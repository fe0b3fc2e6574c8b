"""Exact construction of the anticommuting skew-Hermitian automorphisms of C^(n+1).

For n + 1 = 2^nu * b with b odd, the complex Clifford algebra on 2*nu + 1
generators acts irreducibly on the spinor space (C^2)^(tensor nu).  Pushing
the generator images through the b-fold block-diagonal embedding into
End(C^(n+1)) produces 2*nu + 1 automorphisms A_1, ..., A_(2nu+1) that

* pairwise anticommute,
* are skew-Hermitian, and
* commute with componentwise complex conjugation up to a sign eps_j
  (a quasi-real structure).

The four generators are Pauli matrices up to a phase (E = I, g1 = iZ,
g2 = iX, T = Y), so every A_j is a tensor word in them: a monomial matrix,
one entry in {+-1, +-i} per row and column.  It is stored as a signed
permutation `(perm, phase)`, row r holding i^phase[r] in column perm[r], so
a product is a gather plus a phase sum mod 4 and every identity is an exact
O(n) comparison of integer arrays.  The direct sum and tensor factors are
identified with C^(n+1) lexicographically (blocks outer, tensor factors by
Kronecker ordering); under that identification componentwise conjugation on
the factors is componentwise conjugation on C^(n+1), so no basis change is
needed and the identities can be checked entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import nu as nu_of

UNITS = np.array([1, 1j, -1, -1j])  # i^phase
_UNIT_LABELS = ("1", "i", "-1", "-i")


class GaussMatrix:
    """Monomial matrix over the Gaussian units: row r holds i^phase[r] in column perm[r]."""

    __slots__ = ("perm", "phase")

    def __init__(self, perm, phase) -> None:
        perm = np.array(perm, dtype=np.int64)
        phase = np.array(phase, dtype=np.int64) % 4
        if perm.ndim != 1 or perm.shape != phase.shape:
            raise ValueError(f"need 1-d perm and phase alike, got {perm.shape}, {phase.shape}")
        if not np.array_equal(np.bincount(perm, minlength=perm.size), np.ones(perm.size)):
            raise ValueError(f"perm is not a permutation of 0..{perm.size - 1}")
        perm.setflags(write=False)
        phase.setflags(write=False)
        self.perm = perm
        self.phase = phase

    @classmethod
    def identity(cls, size: int) -> GaussMatrix:
        return cls(np.arange(size), np.zeros(size))

    @property
    def size(self) -> int:
        return self.perm.size

    def __matmul__(self, other: GaussMatrix) -> GaussMatrix:
        return GaussMatrix(other.perm[self.perm], self.phase + other.phase[self.perm])

    def times_i(self) -> GaussMatrix:
        """Multiply every entry by i."""
        return GaussMatrix(self.perm, self.phase + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussMatrix):
            return NotImplemented
        return np.array_equal(self.perm, other.perm) and np.array_equal(self.phase, other.phase)

    __hash__ = None  # type: ignore[assignment]

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The matrix acting on a complex vector."""
        z = np.asarray(z, dtype=np.complex128)
        if z.shape != (self.size,):
            raise ValueError(f"vector length {z.shape} does not match matrix size {self.size}")
        return UNITS[self.phase] * z[self.perm]

    def entries(self) -> list[list[str]]:
        """Every entry as text, row by row: 0, 1, i, -1 or -i."""
        rows = [["0"] * self.size for _ in range(self.size)]
        for row, col, ph in zip(rows, self.perm.tolist(), self.phase.tolist()):
            row[col] = _UNIT_LABELS[ph]
        return rows

    def pretty(self) -> str:
        cells = self.entries()
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)

    def __repr__(self) -> str:
        return f"GaussMatrix({self.size}x{self.size})"


def kronecker(a: GaussMatrix, b: GaussMatrix) -> GaussMatrix:
    """Kronecker product, left factor major (lexicographic basis order)."""
    return GaussMatrix(
        (a.perm[:, None] * b.size + b.perm).ravel(),
        (a.phase[:, None] + b.phase).ravel(),
    )


def tensor_power(a: GaussMatrix, k: int) -> GaussMatrix:
    """k-fold Kronecker power; the empty product is the 1x1 identity."""
    result = GaussMatrix.identity(1)
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
        return tensor_power(t_mat, nu).times_i()
    t = (j - 1) // 2
    g = generator_2x2("g1" if j % 2 == 1 else "g2")
    left = tensor_power(generator_2x2("E"), nu - 1 - t)
    return kronecker(kronecker(left, g), tensor_power(t_mat, t))


def predicted_sign(j: int, nu: int) -> int:
    """Sign eps_j in conj(A_j z) = eps_j * A_j(conj z).

    Follows from how componentwise conjugation moves past the tensor
    factors: it commutes with E, anticommutes with g1, g2 and T.  For
    j <= 2*nu the sign is -1 iff floor((j-1)/2) is even; for j = 2*nu + 1
    it is -1 iff nu is even.
    """
    if nu < 0:
        raise ValueError(f"need nu >= 0, got {nu}")
    if not 1 <= j <= 2 * nu + 1:
        raise ValueError(f"need 1 <= j <= {2 * nu + 1}, got j = {j}")
    if j == 2 * nu + 1:
        return -1 if nu % 2 == 0 else 1
    return -1 if ((j - 1) // 2) % 2 == 0 else 1


@dataclass(frozen=True)
class CliffordFamily:
    """The 2*nu(n+1) + 1 automorphisms of C^(n+1) with their conjugation signs."""

    n: int
    nu: int
    b: int
    matrices: tuple[GaussMatrix, ...]
    predicted_signs: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.matrices)


def build_family(n: int) -> CliffordFamily:
    """Build the family for C^(n+1): b-fold block diagonals E_b (x) A of the spin generators."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    v = nu_of(n + 1)
    b = (n + 1) >> v
    blocks = GaussMatrix.identity(b)
    matrices = tuple(kronecker(blocks, spin_generator(j, v)) for j in range(1, 2 * v + 2))
    signs = tuple(predicted_sign(j, v) for j in range(1, 2 * v + 2))
    return CliffordFamily(n=n, nu=v, b=b, matrices=matrices, predicted_signs=signs)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool


@dataclass(frozen=True)
class FamilyReport:
    n: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_family(family: CliffordFamily) -> FamilyReport:
    """Exact verification of the three defining identities.

    (a) A_j A_k + A_k A_j = 0 for j != k: both products have the same
        permutation and their phases differ by 2 in every row;
    (b) A_j + A_j^* = 0 (conjugate transpose): perm is an involution and
        i^phase[r] = -conj(i^phase[perm[r]]), i.e. phase = 2 - phase[perm] mod 4;
    (c) conj(A_j) = eps_j A_j entrywise, eps_j the predicted sign: every
        phase is even for eps_j = +1 (real entries) and odd for eps_j = -1.

    Failures are report content, not exceptions.
    """
    mats = family.matrices
    checks: list[IdentityCheck] = []
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            jk, kj = mats[j] @ mats[k], mats[k] @ mats[j]
            ok = np.array_equal(jk.perm, kj.perm) and bool(np.all((jk.phase - kj.phase) % 4 == 2))
            checks.append(IdentityCheck(f"anticommute[{j + 1},{k + 1}]", ok))
    for j, a in enumerate(mats):
        ok = np.array_equal(a.perm[a.perm], np.arange(a.size)) and np.array_equal(
            a.phase, (2 - a.phase[a.perm]) % 4
        )
        checks.append(IdentityCheck(f"skew_hermitian[{j + 1}]", ok))
    for j, (a, sign) in enumerate(zip(mats, family.predicted_signs)):
        ok = bool(np.all(a.phase % 2 == (sign == -1)))
        checks.append(IdentityCheck(f"conjugation_sign[{j + 1}]", ok))
    return FamilyReport(n=family.n, checks=tuple(checks))
