"""Exact checks of the Clifford family construction.

The family is stored as its Pauli words, and its signed-permutation arrays
follow from them; these tests hold it to an independent dense oracle
(np.kron of the literal complex 2x2 generators, placed block by block), to
the Pauli-word symplectic form, and to the Kronecker-chain construction and
pair-loop verification kept in `clifford_reference.py`.  Everything is
exact: the dense matrices and their products have entries in {0, +-1, +-i},
so they compare with zero tolerance, and so does a matrix applied to a
vector.  Only the beta / pairwise-orthogonality tests allow a
tolerance, 1e-12.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clifford_reference as ref
from clifford_reference import (
    generator_2x2,
    identity,
    kronecker,
    matrix_times_i,
    product,
    spin_generator,
    tensor_power,
)
from wallspan import clifford as clifford_module
from wallspan.clifford import (
    CliffordFamily,
    GaussMatrix,
    build_family,
    predicted_sign,
    verify_family,
)
from wallspan.invariants import nu

N_GRID = range(17)
ORACLE_GRID = [*range(41), 63, 95, 127]

# -- the independent dense oracle ---------------------------------------------

E2 = np.eye(2, dtype=complex)
G1 = np.array([[1j, 0], [0, -1j]])
G2 = np.array([[0, 1j], [1j, 0]])
T2 = np.array([[0, -1j], [1j, 0]])


def dense(a: GaussMatrix) -> np.ndarray:
    """Expand (perm, phase): row r holds i^phase[r] in column perm[r]."""
    out = np.zeros((a.size, a.size), dtype=complex)
    out[np.arange(a.size), a.perm] = np.array([1, 1j, -1, -1j])[a.phase]
    return out


def dense_power(m: np.ndarray, k: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, m)
    return out


def dense_spin(j: int, v: int) -> np.ndarray:
    if j == 2 * v + 1:
        return 1j * dense_power(T2, v)
    t = (j - 1) // 2
    return np.kron(np.kron(dense_power(E2, v - 1 - t), G1 if j % 2 else G2), dense_power(T2, t))


def dense_family(n: int) -> list[np.ndarray]:
    v = nu(n + 1)
    size = 2**v
    out = []
    for j in range(1, 2 * v + 2):
        block = dense_spin(j, v)
        full = np.zeros((n + 1, n + 1), dtype=complex)
        for start in range(0, n + 1, size):
            full[start : start + size, start : start + size] = block
        out.append(full)
    return out


def same(a: GaussMatrix, b: GaussMatrix) -> bool:
    return np.array_equal(a.perm, b.perm) and np.array_equal(a.phase, b.phase)


def random_monomial(rng, size: int) -> GaussMatrix:
    return GaussMatrix(rng.permutation(size), rng.integers(0, 4, size))


@pytest.mark.parametrize("n", ORACLE_GRID)
def test_family_matches_dense_oracle(n):
    family = build_family(n)
    expected = dense_family(n)
    assert len(family.matrices) == len(expected)
    z = np.array([1, 1j]) @ np.random.default_rng(n).standard_normal((2, n + 1))
    for a, d in zip(family.matrices, expected):
        assert np.array_equal(dense(a), d)
        assert np.array_equal(a.apply(z), d @ z)
    for a in family.matrices[:3]:
        for b in family.matrices:
            assert np.array_equal(dense(product(a, b)), dense(a) @ dense(b))


def test_monomial_products_match_dense():
    rng = np.random.default_rng(23)
    for size in (1, 2, 3, 7):
        for _ in range(5):
            a, b, c = (random_monomial(rng, size) for _ in range(3))
            assert np.array_equal(dense(product(a, b)), dense(a) @ dense(b))
            assert same(product(product(a, b), c), product(a, product(b, c)))
            assert same(product(a, identity(size)), a) and same(product(identity(size), a), a)
            assert np.array_equal(dense(matrix_times_i(a)), 1j * dense(a))


# -- Pauli words and the symplectic form ----------------------------------------
# A_j = (phase) * (Pauli word) on the spinor space, with g1 = iZ, g2 = iX,
# T = Y and E = I.  Two Pauli words anticommute iff the symplectic form of
# their X/Z bit vectors is odd; it is O(nu) work and does not see b.


def pauli_bits(j: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """X and Z bit vectors of A_j's word, tensor factor 0 first."""
    if j == 2 * v + 1:
        word = "Y" * v
    else:
        t = (j - 1) // 2
        word = "I" * (v - 1 - t) + ("Z" if j % 2 else "X") + "Y" * t
    x = np.array([c in "XY" for c in word], dtype=int)
    z = np.array([c in "ZY" for c in word], dtype=int)
    return x, z


def symplectic(p, q) -> int:
    return int(p[0] @ q[1] + p[1] @ q[0]) % 2


def parity(r: np.ndarray, mask: int) -> np.ndarray:
    bits = r & mask
    out = np.zeros_like(r)
    while bits.any():
        out ^= bits & 1
        bits = bits >> 1
    return out


@pytest.mark.parametrize("v", range(13))
def test_anticommutation_is_odd_symplectic_form(v):
    words = [pauli_bits(j, v) for j in range(1, 2 * v + 2)]
    for j in range(len(words)):
        for k in range(j + 1, len(words)):
            assert symplectic(words[j], words[k]) == 1, (j + 1, k + 1)
    # the words are the family's: X bits flip the row index, Z bits sign it
    r = np.arange(2**v)
    weights = 1 << np.arange(v - 1, -1, -1)  # factor 0 is the most significant bit
    family = build_family(2**v - 1)
    for (x, z), a, word in zip(words, family.matrices, family.words):
        assert word[:2] == (int(x @ weights), int(z @ weights))
        assert np.array_equal(a.perm, r ^ int(x @ weights))
        assert np.array_equal((a.phase - a.phase[0]) % 4, 2 * parity(r, int(z @ weights)))


@pytest.mark.parametrize("v", range(1, 6))
def test_symplectic_form_decides_commutation_of_products(v):
    # products of random subsets of the family commute or anticommute; the
    # monomial check and the symplectic form must agree on every pair
    rng = np.random.default_rng(v)
    mats = build_family(2**v - 1).matrices
    words = [pauli_bits(j, v) for j in range(1, 2 * v + 2)]
    seen = set()
    for _ in range(40):
        elems = []
        for _ in range(2):
            a, x, z = identity(2**v), np.zeros(v, int), np.zeros(v, int)
            for i in np.flatnonzero(rng.random(len(mats)) < 0.5):
                a, x, z = product(a, mats[i]), x ^ words[i][0], z ^ words[i][1]
            elems.append((a, (x, z)))
        (a, p), (b, q) = elems
        ab, ba = dense(product(a, b)), dense(product(b, a))
        anticommute = np.array_equal(ab, -ba)
        assert anticommute or np.array_equal(ab, ba)
        assert anticommute == (symplectic(p, q) == 1)
        seen.add(anticommute)
    assert seen == {True, False}


# -- generators, Kronecker products, the family -------------------------------


def test_generator_matrices_literal():
    for name, literal in (("E", E2), ("g1", G1), ("g2", G2), ("T", T2)):
        assert np.array_equal(dense(generator_2x2(name)), literal)


def test_generator_t_squares_to_identity():
    t = generator_2x2("T")
    assert same(product(t, t), identity(2))


def test_generator_unknown_name():
    with pytest.raises(ValueError):
        generator_2x2("g3")


def test_kronecker_identities():
    e = generator_2x2("E")
    assert same(kronecker(e, e), identity(4))
    g1e = dense(kronecker(generator_2x2("g1"), e))
    assert np.array_equal(g1e, np.diag([1j, 1j, -1j, -1j]))


def test_kronecker_associative_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b, c = (random_monomial(rng, size) for size in (2, 3, 2))
        assert same(kronecker(a, kronecker(b, c)), kronecker(kronecker(a, b), c))
        assert np.array_equal(dense(kronecker(a, b)), np.kron(dense(a), dense(b)))


def test_spin_generator_nu1():
    assert same(spin_generator(1, 1), generator_2x2("g1"))
    assert same(spin_generator(2, 1), generator_2x2("g2"))
    assert same(spin_generator(3, 1), matrix_times_i(generator_2x2("T")))


def test_spin_generator_nu2_j4():
    # alpha(4) = 2, floor(3/2) = 1, no leading identity factors
    assert same(spin_generator(4, 2), kronecker(generator_2x2("g2"), generator_2x2("T")))


def test_spin_generator_nu0():
    m = spin_generator(1, 0)
    assert m.size == 1 and np.array_equal(dense(m), [[1j]])


def test_spin_generator_range_errors():
    with pytest.raises(ValueError):
        spin_generator(0, 1)
    with pytest.raises(ValueError):
        spin_generator(4, 1)
    with pytest.raises(ValueError):
        spin_generator(2, 0)


def test_build_family_small_cases():
    f1 = build_family(1)
    assert f1.count == 3 and f1.b == 1
    assert same(f1.matrices[0], generator_2x2("g1"))
    assert same(f1.matrices[1], generator_2x2("g2"))
    assert same(f1.matrices[2], matrix_times_i(generator_2x2("T")))

    f2 = build_family(2)
    assert f2.count == 1 and f2.nu == 0 and f2.b == 3
    assert same(f2.matrices[0], matrix_times_i(identity(3)))

    f0 = build_family(0)
    assert f0.count == 1 and np.array_equal(dense(f0.matrices[0]), [[1j]])


@pytest.mark.parametrize("n", N_GRID)
def test_family_count(n):
    assert build_family(n).count == 2 * nu(n + 1) + 1


def test_family_rejects_a_bad_row_at_construction():
    # a word's x must lie below 2^nu, so that r ^ x permutes each block of
    # 2^nu rows; the words are checked when the family is made, before any row
    family = build_family(7)  # nu = 3
    for n, x in ((7, 8), (7, -1), (7, 2**40), (5, 2), (2, 1)):  # 2^nu = 8, 8, 8, 2, 1
        with pytest.raises(ValueError, match=f"got x = {x}"):
            CliffordFamily(n, ((x, 0, 1),), (-1,))
    edge = CliffordFamily(family.n, ((7, 0, 1), *family.words[1:]), family.predicted_signs)
    assert "perm" not in vars(edge)
    assert np.array_equal(edge.perm[0], np.arange(8)[::-1])
    assert np.array_equal(CliffordFamily(5, ((1, 0, 1),), (-1,)).perm, [[1, 0, 3, 2, 5, 4]])
    for signs in (family.predicted_signs[:-1], (*family.predicted_signs, 1)):
        with pytest.raises(ValueError, match="one sign per word"):
            CliffordFamily(family.n, family.words, signs)


def test_predicted_sign_values():
    assert [predicted_sign(j, 1) for j in (1, 2, 3)] == [-1, -1, 1]
    assert predicted_sign(1, 0) == -1
    assert predicted_sign(5, 2) == -1
    with pytest.raises(ValueError):
        predicted_sign(4, 1)


def test_predicted_sign_against_entrywise_conjugation():
    # conj(g1) = -g1, conj(g2) = -g2, conj(iT) = iT: the nu = 1 signs by hand
    assert np.array_equal(np.conj(G1), -G1)
    assert np.array_equal(np.conj(G2), -G2)
    assert np.array_equal(np.conj(1j * T2), 1j * T2)
    for j, a in enumerate(build_family(1).matrices, start=1):
        assert np.array_equal(np.conj(dense(a)), predicted_sign(j, 1) * dense(a))


# -- verification -------------------------------------------------------------


@pytest.mark.parametrize("n", N_GRID)
def test_verify_family_all_pass(n):
    report = verify_family(build_family(n))
    assert report.all_passed, report.failures()


def test_verify_family_detects_mutation():
    # A_1 = E (x) g1 = iZ on the low bit made iI (z_1 = 0): still skew-Hermitian
    # with odd phases, but it commutes with every other A_k
    family = build_family(3)
    assert family.words[0] == (0, 1, 1)
    failures = verify_family(ref.with_word(family, 1, (0, 0, 1))).failures()
    assert failures == [f"anticommute[1,{k}]" for k in range(2, family.count + 1)]  # in report order


def test_verify_family_n0():
    report = verify_family(build_family(0))
    assert report.all_passed
    # no anticommutation pairs for a single matrix
    assert report.names == ("skew_hermitian[1]", "conjugation_sign[1]") and report.checks == (True, True)


def test_verify_family_scales_to_4095():
    report = verify_family(build_family(4095))
    assert report.all_passed and len(report.checks) == 25 * 24 // 2 + 2 * 25


def test_verify_family_memory_peak():
    # the words decide every identity, so no (count, n + 1) array is built;
    # broadcasting all pairs at once, (count, count, n + 1), read about 80 MB here
    verify_family(build_family(3))
    tracemalloc.start()
    try:
        report = verify_family(build_family(4095))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed and peak <= 8 * 2**20


@pytest.mark.parametrize("name", ["perm", "phase", "units"])
def test_family_arrays_are_read_only(name):
    # clifford_for caches one family per n, so a write would reach every later case
    with pytest.raises(ValueError, match="read-only"):
        getattr(build_family(3), name)[0, 0] = 1


def test_verify_family_builds_no_array():
    # 81 generators on C^(2^40): their arrays would hold 2^40 entries per row
    family = build_family(2**40 - 1)
    report = verify_family(family)
    assert report.all_passed and len(report.checks) == 81 * 80 // 2 + 2 * 81 == 3402
    assert not {"perm", "phase", "units", "matrices"} & vars(family).keys()


# -- the Kronecker-chain oracle (tests/clifford_reference.py) -------------------


def test_build_family_matches_kronecker_reference():
    for n in range(256):
        family = build_family(n)
        perm, phase, signs = ref.build_family(n)
        assert np.array_equal(family.perm, perm), n
        assert np.array_equal(family.phase, phase), n
        assert family.predicted_signs == signs, n
        assert all(same(a, GaussMatrix(p, h)) for a, p, h in zip(family.matrices, perm, phase)), n


def reference_report(family):
    """The pair loop of clifford_reference on the arrays the words expand to."""
    return ref.verify_family(family.perm, family.phase, family.predicted_signs)


def assert_matches_reference(report, family):
    """Same n, names and verdicts as the reference, which builds its own names."""
    expected = reference_report(family)
    assert (report.n, report.names, report.checks) == (expected.n, expected.names, expected.checks)


def _broken_families(family):
    """Every generator made Hermitian, replaced by a copy of the next, or mis-signed."""
    for j in range(1, family.count + 1):
        yield ref.times_i(family, j)
        yield ref.duplicate_word(family, j % family.count + 1, j)
        yield ref.flip_sign(family, j)


@pytest.mark.parametrize("n", [*N_GRID, 23, 63, 95, 127])
def test_verify_family_matches_pair_loop_reference(n):
    family = build_family(n)
    assert_matches_reference(verify_family(family), family)
    for broken in _broken_families(family):
        report = verify_family(broken)
        assert_matches_reference(report, broken)
        # with one generator (n even) its copy of itself stays valid
        assert family.count == 1 or not report.all_passed


@pytest.mark.parametrize("n", [0, 1, 7, 4095])
def test_passing_report_builds_no_name(monkeypatch, n):
    def no_names(count):
        raise AssertionError(f"names built for a passing report on {count} generators")

    monkeypatch.setattr(clifford_module, "_check_names", no_names)
    report = verify_family(build_family(n))
    assert report.all_passed and report.failures() == []


@pytest.mark.parametrize("n", [1, 7, 63])
def test_failures_match_reference_names(n):
    for broken in _broken_families(build_family(n)):
        expected = reference_report(broken)
        failing = [name for name, passed in zip(expected.names, expected.checks) if not passed]
        assert failing and verify_family(broken).failures() == failing


@st.composite
def pauli_families(draw):
    """A family of random Pauli words on C^(n+1), n + 1 = 2^nu * b, with random signs.

    x_j < 2^nu, so that r ^ x_j stays inside r's block of 2^nu rows; z_j
    reaches every bit of n, so its bits above nu sign whole blocks.
    """
    v, b = draw(st.integers(0, 5)), draw(st.sampled_from((1, 3, 5)))
    n = (b << v) - 1
    count = draw(st.integers(1, 7))
    x, z, c = st.integers(0, 2**v - 1), st.integers(0, 2 ** n.bit_length() - 1), st.integers(0, 3)
    words = tuple((draw(x), draw(z), draw(c)) for _ in range(count))
    signs = tuple(draw(st.sampled_from((-1, 1))) for _ in range(count))
    return CliffordFamily(n, words, signs)


@settings(max_examples=150, deadline=None)
@given(pauli_families())
def test_verify_family_matches_pair_loop_on_random_pauli_words(family):
    # random words commute as often as not, unlike build_family's
    assert_matches_reference(verify_family(family), family)
    rows = np.arange(family.n + 1)
    for (x, z, c), perm, phase in zip(family.words, family.perm, family.phase):
        assert np.array_equal(perm, rows ^ x)
        assert np.array_equal(phase, [(c + 2 * (r & z).bit_count()) % 4 for r in range(family.n + 1)])


@pytest.mark.parametrize("n", N_GRID)
def test_squares_are_minus_identity(n):
    minus_id = GaussMatrix(np.arange(n + 1), np.full(n + 1, 2))
    for a in build_family(n).matrices:
        assert same(product(a, a), minus_id)


# -- beta_j(z) = <z, A_j z> = (A_j z)^* z, the form the low fields use --------


def beta(z, a):
    return complex(np.vdot(a.apply(z), z))


def test_beta_n0():
    assert beta(np.array([1.0 + 0j]), build_family(0).matrices[0]) == -1j


def test_beta_dimension_mismatch():
    with pytest.raises(ValueError):
        beta(np.ones(3, dtype=complex), build_family(1).matrices[0])


def _unit_vectors(n, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        yield z / np.linalg.norm(z)


@pytest.mark.parametrize("n", [0, 1, 3, 7, 8])
def test_beta_purely_imaginary_and_scale_invariant(n):
    family = build_family(n)
    for z in _unit_vectors(n, 20, seed=n + 11):
        for a in family.matrices:
            b = beta(z, a)
            assert abs(b.real) <= 1e-12
            assert abs(beta(1j * z, a) - b) <= 1e-12
            omega = np.exp(0.7j)
            assert abs(beta(omega * z, a) - b) <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 7])
def test_pairwise_products_purely_imaginary(n):
    family = build_family(n)
    mats = family.matrices
    for z in _unit_vectors(n, 20, seed=n + 5):
        images = [a.apply(z) for a in mats]
        for j in range(len(mats)):
            for k in range(j + 1, len(mats)):
                assert abs(complex(np.vdot(images[k], images[j])).real) <= 1e-12


# -- the representation -------------------------------------------------------


def test_gauss_matrix_validation():
    with pytest.raises(ValueError):
        GaussMatrix([0, 0], [0, 0])  # not a permutation
    with pytest.raises(ValueError):
        GaussMatrix([1, 2], [0, 0])  # out of range
    with pytest.raises(ValueError, match="not a permutation"):
        GaussMatrix([-1, 0], [0, 0])
    with pytest.raises(ValueError):
        GaussMatrix([0, 1], [0])
    with pytest.raises(ValueError):
        GaussMatrix([[0]], [[0]])
    assert GaussMatrix([1, 0], [5, -1]).phase.tolist() == [1, 3]  # phases mod 4


def test_gauss_matrix_pretty():
    assert matrix_times_i(generator_2x2("T")).pretty() == "[ 0   1]\n[-1   0]"
    assert generator_2x2("g1").pretty() == "[ i   0]\n[ 0  -i]"


def test_tensor_power_empty_is_identity():
    assert same(tensor_power(generator_2x2("T"), 0), identity(1))
