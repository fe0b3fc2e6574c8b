"""Exact checks of the Clifford family construction.

The family is stored as signed permutations; these tests hold it to an
independent dense oracle (np.kron of the literal complex 2x2 generators,
placed block by block), to the Pauli-word symplectic form, and to the
Kronecker-chain construction and pair-loop verification kept in
`clifford_reference.py`.  Everything
is exact: the dense matrices and their products have entries in
{0, +-1, +-i}, so they compare with zero tolerance, and so does a matrix
applied to a vector.  Only the beta / pairwise-orthogonality tests allow a
tolerance, 1e-12.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import clifford_reference as ref
from clifford_reference import generator_2x2, kronecker, spin_generator, tensor_power, with_matrices
from wallspan.clifford import GaussMatrix, build_family, predicted_sign, verify_family
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
            assert np.array_equal(dense(a @ b), dense(a) @ dense(b))


def test_monomial_products_match_dense():
    rng = np.random.default_rng(23)
    for size in (1, 2, 3, 7):
        for _ in range(5):
            a, b, c = (random_monomial(rng, size) for _ in range(3))
            assert np.array_equal(dense(a @ b), dense(a) @ dense(b))
            assert (a @ b) @ c == a @ (b @ c)
            assert a @ GaussMatrix.identity(size) == a == GaussMatrix.identity(size) @ a
            assert np.array_equal(dense(a.times_i()), 1j * dense(a))


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
    for (x, z), a in zip(words, build_family(2**v - 1).matrices):
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
            a, x, z = GaussMatrix.identity(2**v), np.zeros(v, int), np.zeros(v, int)
            for i in np.flatnonzero(rng.random(len(mats)) < 0.5):
                a, x, z = a @ mats[i], x ^ words[i][0], z ^ words[i][1]
            elems.append((a, (x, z)))
        (a, p), (b, q) = elems
        ab, ba = dense(a @ b), dense(b @ a)
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
    assert t @ t == GaussMatrix.identity(2)


def test_generator_unknown_name():
    with pytest.raises(ValueError):
        generator_2x2("g3")


def test_kronecker_identities():
    e = generator_2x2("E")
    assert kronecker(e, e) == GaussMatrix.identity(4)
    g1e = dense(kronecker(generator_2x2("g1"), e))
    assert np.array_equal(g1e, np.diag([1j, 1j, -1j, -1j]))


def test_kronecker_associative_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b, c = (random_monomial(rng, size) for size in (2, 3, 2))
        assert kronecker(a, kronecker(b, c)) == kronecker(kronecker(a, b), c)
        assert np.array_equal(dense(kronecker(a, b)), np.kron(dense(a), dense(b)))


def test_spin_generator_nu1():
    assert spin_generator(1, 1) == generator_2x2("g1")
    assert spin_generator(2, 1) == generator_2x2("g2")
    assert spin_generator(3, 1) == generator_2x2("T").times_i()


def test_spin_generator_nu2_j4():
    # alpha(4) = 2, floor(3/2) = 1, no leading identity factors
    assert spin_generator(4, 2) == kronecker(generator_2x2("g2"), generator_2x2("T"))


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
    assert f1.matrices[0] == generator_2x2("g1")
    assert f1.matrices[1] == generator_2x2("g2")
    assert f1.matrices[2] == generator_2x2("T").times_i()

    f2 = build_family(2)
    assert f2.count == 1 and f2.nu == 0 and f2.b == 3
    assert f2.matrices[0] == GaussMatrix.identity(3).times_i()

    f0 = build_family(0)
    assert f0.count == 1 and np.array_equal(dense(f0.matrices[0]), [[1j]])


@pytest.mark.parametrize("n", N_GRID)
def test_family_count(n):
    assert build_family(n).count == 2 * nu(n + 1) + 1


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
    assert report.all_passed, [c.name for c in report.failures()]


def _mutated(family, j, perm=None, phase=None):
    a = family.matrices[j - 1]
    bad = GaussMatrix(a.perm if perm is None else perm, a.phase if phase is None else phase)
    mats = list(family.matrices)
    mats[j - 1] = bad
    return with_matrices(family, mats)


def test_verify_family_detects_mutation():
    # one flipped phase: A_1 = E (x) g1 is diagonal, so negating one entry keeps
    # it skew-Hermitian with odd phases, but it no longer anticommutes
    family = build_family(3)
    phase = family.matrices[0].phase.copy()
    phase[0] = (phase[0] + 2) % 4
    failures = {c.name for c in verify_family(_mutated(family, 1, phase=phase)).failures()}
    assert failures == {f"anticommute[1,{k}]" for k in range(2, family.count + 1)}


def test_verify_family_detects_perm_swap():
    # swapping two perm entries of A_2 = E (x) g2 (perm 1,0,3,2 -> 3,0,1,2)
    # leaves a 4-cycle: no longer an involution, so not skew-Hermitian
    family = build_family(3)
    perm = family.matrices[1].perm.copy()
    perm[[0, 2]] = perm[[2, 0]]
    failures = {c.name for c in verify_family(_mutated(family, 2, perm=perm)).failures()}
    assert "skew_hermitian[2]" in failures
    assert not any(name.startswith("conjugation_sign") for name in failures)


def test_verify_family_n0():
    report = verify_family(build_family(0))
    assert report.all_passed
    # no anticommutation pairs for a single matrix
    assert all(not c.name.startswith("anticommute") for c in report.checks)


def test_verify_family_scales_to_4095():
    report = verify_family(build_family(4095))
    assert report.all_passed and len(report.checks) == 25 * 24 // 2 + 2 * 25


def test_verify_family_memory_peak():
    # one gather per generator keeps the work O(count * n); broadcasting all
    # pairs at once, (count, count, n + 1), read about 80 MB here
    verify_family(build_family(3))
    tracemalloc.start()
    try:
        report = verify_family(build_family(4095))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed and peak <= 8 * 2**20


# -- the Kronecker-chain oracle (tests/clifford_reference.py) -------------------


def test_build_family_matches_kronecker_reference():
    for n in range(256):
        family, expected = build_family(n), ref.build_family(n)
        assert (family.nu, family.b) == (expected.nu, expected.b), n
        assert np.array_equal(family.perm, expected.perm), n
        assert np.array_equal(family.phase, expected.phase), n
        assert family.predicted_signs == expected.predicted_signs, n
        assert all(a == b for a, b in zip(family.matrices, expected.matrices)), n


def _broken_families(family):
    """Every generator flipped, permuted, duplicated, made Hermitian or mis-signed."""
    mats, count = family.matrices, family.count
    for j, a in enumerate(mats, start=1):
        phase = a.phase.copy()
        phase[-1] += 2
        yield _mutated(family, j, phase=phase)
        phase[0] += 1
        yield _mutated(family, j, phase=phase)
        if a.size > 2:
            perm = a.perm.copy()
            perm[[0, 2]] = perm[[2, 0]]
            yield _mutated(family, j, perm=perm)
        yield with_matrices(family, mats[: j - 1] + (a.times_i(),) + mats[j:])
        yield with_matrices(family, mats[: j - 1] + (mats[j % count],) + mats[j:])
        signs = list(family.predicted_signs)
        signs[j - 1] = -signs[j - 1]
        yield dataclasses.replace(family, predicted_signs=tuple(signs))


@pytest.mark.parametrize("n", [*N_GRID, 23, 63, 95, 127])
def test_verify_family_matches_pair_loop_reference(n):
    family = build_family(n)
    assert verify_family(family) == ref.verify_family(family)
    for broken in _broken_families(family):
        report = verify_family(broken)
        assert report == ref.verify_family(broken)
        # with one generator (n even) a flip, swap or self-duplicate can stay valid
        assert family.count == 1 or not report.all_passed


@pytest.mark.parametrize("n", N_GRID)
def test_squares_are_minus_identity(n):
    minus_id = GaussMatrix(np.arange(n + 1), np.full(n + 1, 2))
    for a in build_family(n).matrices:
        assert a @ a == minus_id


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
    with pytest.raises(ValueError):
        GaussMatrix([-1, 0], [0, 0])
    with pytest.raises(ValueError):
        GaussMatrix([0, 1], [0])
    with pytest.raises(ValueError):
        GaussMatrix([[0]], [[0]])
    assert GaussMatrix([1, 0], [5, -1]) == GaussMatrix([1, 0], [1, 3])  # phases mod 4


def test_gauss_matrix_pretty():
    it = generator_2x2("T").times_i()
    assert it.entries() == [["0", "1"], ["-1", "0"]]
    g1 = generator_2x2("g1")
    assert g1.entries() == [["i", "0"], ["0", "-i"]]
    assert g1.pretty() == "[ i   0]\n[ 0  -i]"


def test_tensor_power_empty_is_identity():
    assert tensor_power(generator_2x2("T"), 0) == GaussMatrix.identity(1)
