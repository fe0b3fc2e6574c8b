"""Slow reference construction of the Clifford family, used only by the tests.

Each generator is built the long way, as a chain of validated Kronecker
products of the four 2x2 generators, then embedded block-diagonally, and
`build_family` returns the stacked `(perm, phase)` arrays with the signs.
`verify_family` decides the three identities on such arrays with the loop
over every pair (j, k), two products each, gathered by `gather`, and names
each identity itself.  `wallspan.clifford` keeps only the Pauli words: its
`build_family` must give the same arrays, and its `verify_family`, which
reads the words alone, the same names and verdicts as this loop on the
arrays the words expand to.  The word helpers at the end make the broken
families the tests feed to both.
"""

from typing import NamedTuple

import numpy as np

from wallspan.clifford import CliffordFamily, GaussMatrix
from wallspan.invariants import nu as nu_of


class Report(NamedTuple):
    """The reference's verdicts, with the names it builds itself, in report order."""

    n: int
    names: tuple[str, ...]
    checks: tuple[bool, ...]


def identity(size: int) -> GaussMatrix:
    return GaussMatrix(np.arange(size), np.zeros(size, dtype=np.int64))


def matrix_times_i(a: GaussMatrix) -> GaussMatrix:
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
        return matrix_times_i(tensor_power(t_mat, nu))
    t = (j - 1) // 2
    g = generator_2x2("g1" if j % 2 == 1 else "g2")
    left = tensor_power(generator_2x2("E"), nu - 1 - t)
    return kronecker(kronecker(left, g), tensor_power(t_mat, t))


def conjugation_sign(j: int, nu: int) -> int:
    """eps_j counted off the word: componentwise conjugation anticommutes with
    the one g_alpha (or the factor i of i * T^nu) and with each T factor."""
    t_factors = nu if j == 2 * nu + 1 else (j - 1) // 2
    return (-1) ** (1 + t_factors)


def build_family(n: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """`(perm, phase, signs)` from b-fold block diagonals E_b (x) A of the spin generators."""
    v = nu_of(n + 1)
    blocks = identity((n + 1) >> v)
    matrices = [kronecker(blocks, spin_generator(j, v)) for j in range(1, 2 * v + 2)]
    signs = tuple(conjugation_sign(j, v) for j in range(1, 2 * v + 2))
    return np.stack([a.perm for a in matrices]), np.stack([a.phase for a in matrices]), signs


def verify_family(perm: np.ndarray, phase: np.ndarray, signs) -> Report:
    """The three identities on stacked `(perm, phase)` rows, one pair and one row at a time."""
    rows = list(zip(perm, phase))
    names: list[str] = []
    checks: list[bool] = []
    for j in range(len(rows)):
        for k in range(j + 1, len(rows)):
            jk, kj = gather(*rows[j], *rows[k]), gather(*rows[k], *rows[j])
            names.append(f"anticommute[{j + 1},{k + 1}]")
            checks.append(np.array_equal(jk[0], kj[0]) and bool(np.all((jk[1] - kj[1]) % 4 == 2)))
    for j, (p, h) in enumerate(rows):
        names.append(f"skew_hermitian[{j + 1}]")
        checks.append(np.array_equal(p[p], np.arange(p.size)) and np.array_equal(h, (2 - h[p]) % 4))
    for j, ((_, h), sign) in enumerate(zip(rows, signs)):
        names.append(f"conjugation_sign[{j + 1}]")
        checks.append(bool(np.all(h % 2 == (sign == -1))))
    return Report(perm.shape[1] - 1, tuple(names), tuple(checks))


# -- broken families, one word or sign changed ---------------------------------


def with_word(family: CliffordFamily, j: int, word) -> CliffordFamily:
    """`family` with A_j's word replaced by `word`."""
    words = list(family.words)
    words[j - 1] = word
    return CliffordFamily(family.n, tuple(words), family.predicted_signs)


def times_i(family: CliffordFamily, j: int) -> CliffordFamily:
    """`family` with A_j replaced by i A_j: c_j + 1, so A_j is Hermitian."""
    x, z, c = family.words[j - 1]
    return with_word(family, j, (x, z, c + 1))


def duplicate_word(family: CliffordFamily, j: int, k: int) -> CliffordFamily:
    """`family` with A_k replaced by a copy of A_j."""
    return with_word(family, k, family.words[j - 1])


def flip_sign(family: CliffordFamily, j: int) -> CliffordFamily:
    """`family` with the predicted sign eps_j negated."""
    signs = list(family.predicted_signs)
    signs[j - 1] = -signs[j - 1]
    return CliffordFamily(family.n, family.words, tuple(signs))
