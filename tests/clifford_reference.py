"""Slow reference construction of the Clifford family, used only by the tests.

Each generator is built the long way, as a chain of validated Kronecker
products of the four 2x2 generators, then embedded block-diagonally; the
report comes from the loop over every pair (j, k) with two products each,
gathered from the rows' `(perm, phase)` arrays by `gather`.  `build_family`
and `verify_family` in `wallspan.clifford` (the Pauli-word rows, and
verdicts read off the words' masks or, for other rows, gathers) must agree
with them.
"""

from dataclasses import replace

import numpy as np

from wallspan.clifford import CliffordFamily, FamilyReport, GaussMatrix, IdentityCheck
from wallspan.invariants import nu as nu_of


def identity(size: int) -> GaussMatrix:
    return GaussMatrix(np.arange(size), np.zeros(size, dtype=np.int64))


def times_i(a: GaussMatrix) -> GaussMatrix:
    """Every entry multiplied by i."""
    return GaussMatrix(a.perm, a.phase + 1)


def gather(perm_a, phase_a, perm_b, phase_b):
    """(perm, phase) of the product AB: row r of A picks row perm_a[r] of B."""
    return perm_b[perm_a], (phase_a + phase_b[perm_a]) % 4


def product(a: GaussMatrix, b: GaussMatrix) -> GaussMatrix:
    return GaussMatrix(*gather(a.perm, a.phase, b.perm, b.phase))


def kronecker(a: GaussMatrix, b: GaussMatrix) -> GaussMatrix:
    """Kronecker product, left factor major (lexicographic basis order)."""
    return GaussMatrix(
        (a.perm[:, None] * b.size + b.perm).ravel(),
        (a.phase[:, None] + b.phase).ravel(),
    )


def tensor_power(a: GaussMatrix, k: int) -> GaussMatrix:
    """k-fold Kronecker power; the empty product is the 1x1 identity."""
    result = identity(1)
    for _ in range(k):
        result = kronecker(result, a)
    return result


# (perm, phase) of E = I, g1 = diag(i, -i) = iZ, g2 = antidiag(i, i) = iX, T = Y
_GENERATORS_2X2 = {
    "E": ((0, 1), (0, 0)),
    "g1": ((0, 1), (1, 3)),
    "g2": ((1, 0), (1, 1)),
    "T": ((1, 0), (3, 1)),
}


def generator_2x2(name: str) -> GaussMatrix:
    """The four generating 2x2 matrices: E = id, g1 = diag(i, -i),
    g2 = antidiag(i, i), T = [[0, -i], [i, 0]]."""
    if name not in _GENERATORS_2X2:
        raise ValueError(f"unknown generator {name!r}; expected one of {sorted(_GENERATORS_2X2)}")
    return GaussMatrix(*_GENERATORS_2X2[name])


def spin_generator(j: int, nu: int) -> GaussMatrix:
    """Image of the j-th Clifford generator on the spinor space, size 2^nu.

    For 1 <= j <= 2*nu the image is
        E^(nu - 1 - t) (x) g_alpha (x) T^t,   t = floor((j-1)/2),
    with g_alpha = g1 for j odd and g2 for j even.  For j = 2*nu + 1 it is
    i * T^nu; at nu = 0 that degenerates to the 1x1 matrix [i].
    """
    if nu < 0:
        raise ValueError(f"need nu >= 0, got {nu}")
    if not 1 <= j <= 2 * nu + 1:
        raise ValueError(f"need 1 <= j <= {2 * nu + 1}, got j = {j}")
    t_mat = generator_2x2("T")
    if j == 2 * nu + 1:
        return times_i(tensor_power(t_mat, nu))
    t = (j - 1) // 2
    g = generator_2x2("g1" if j % 2 == 1 else "g2")
    left = tensor_power(generator_2x2("E"), nu - 1 - t)
    return kronecker(kronecker(left, g), tensor_power(t_mat, t))


def conjugation_sign(j: int, nu: int) -> int:
    """eps_j counted off the word: componentwise conjugation anticommutes with
    the one g_alpha (or the factor i of i * T^nu) and with each T factor."""
    t_factors = nu if j == 2 * nu + 1 else (j - 1) // 2
    return (-1) ** (1 + t_factors)


def with_matrices(family: CliffordFamily, matrices) -> CliffordFamily:
    """`family` with its rows replaced by `matrices` (for broken families)."""
    return replace(
        family,
        perm=np.stack([a.perm for a in matrices]),
        phase=np.stack([a.phase for a in matrices]),
    )


def build_family(n: int) -> CliffordFamily:
    """The family from b-fold block diagonals E_b (x) A of the spin generators."""
    v = nu_of(n + 1)
    b = (n + 1) >> v
    blocks = identity(b)
    matrices = [kronecker(blocks, spin_generator(j, v)) for j in range(1, 2 * v + 2)]
    signs = tuple(conjugation_sign(j, v) for j in range(1, 2 * v + 2))
    perm, phase = (np.stack([getattr(a, key) for a in matrices]) for key in ("perm", "phase"))
    return CliffordFamily(n, v, b, perm, phase, signs)


def verify_family(family: CliffordFamily) -> FamilyReport:
    """The three identities, one pair and one row at a time."""
    rows = list(zip(family.perm, family.phase))
    checks: list[IdentityCheck] = []
    for j in range(len(rows)):
        for k in range(j + 1, len(rows)):
            jk, kj = gather(*rows[j], *rows[k]), gather(*rows[k], *rows[j])
            ok = np.array_equal(jk[0], kj[0]) and bool(np.all((jk[1] - kj[1]) % 4 == 2))
            checks.append(IdentityCheck(f"anticommute[{j + 1},{k + 1}]", ok))
    for j, (perm, phase) in enumerate(rows):
        ok = np.array_equal(perm[perm], np.arange(perm.size)) and np.array_equal(
            phase, (2 - phase[perm]) % 4
        )
        checks.append(IdentityCheck(f"skew_hermitian[{j + 1}]", ok))
    for j, ((_, phase), sign) in enumerate(zip(rows, family.predicted_signs)):
        ok = bool(np.all(phase % 2 == (sign == -1)))
        checks.append(IdentityCheck(f"conjugation_sign[{j + 1}]", ok))
    return FamilyReport(n=family.n, checks=tuple(checks))
