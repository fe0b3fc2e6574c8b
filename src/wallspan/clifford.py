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
g2 = iX, T = Y), so every A_j is i times a Pauli word: for j <= 2*nu and
t = floor((j-1)/2) the word is I^(nu-1-t) Z Y^t (j odd) or I^(nu-1-t) X Y^t
(j even), and A_(2nu+1) = i Y^nu (t = nu).  Such a word is a monomial
matrix, one entry in {+-1, +-i} per row and column, stored as a signed
permutation `(perm, phase)`: row r holds i^phase[r] in column perm[r], so a
product is a gather plus a phase sum mod 4 and every identity is an exact
comparison of integer arrays.  Row r of C^(n+1) is block * 2^nu + spinor
index (blocks outer, tensor factor 0 the most significant spinor bit).  An
X or Y letter flips its bit of r, a Z or Y letter signs it, and each Y adds
a factor -i = i^3, so with xmask_j and zmask_j the bits of those letters

    perm_j[r]  = r XOR xmask_j,
    phase_j[r] = 1 + 3t + 2 * parity(r AND zmask_j)  mod 4,

for every row at once.  The masks lie below 2^nu, so the formula repeats A_j
on each of the b blocks.  Under this identification componentwise
conjugation on the factors is componentwise conjugation on C^(n+1), so the
identities can be checked entrywise.  `verify_family` checks them on the
stacked (2*nu + 1, n + 1) arrays with one gather per generator, O(nu * n)
memory, never all pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class CliffordFamily:
    """The 2*nu(n+1) + 1 automorphisms of C^(n+1) with their conjugation signs.

    Row j - 1 of the stacked (count, n + 1) arrays `perm` and `phase` is A_j;
    `matrices` holds the rows as validated GaussMatrix objects.
    """

    n: int
    nu: int
    b: int
    perm: np.ndarray
    phase: np.ndarray
    predicted_signs: tuple[int, ...]
    matrices: tuple[GaussMatrix, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        perm = np.array(self.perm, dtype=np.int64)
        phase = np.asarray(self.phase, dtype=np.int64) % 4
        if perm.shape != phase.shape or perm.shape[1:] != (self.n + 1,):
            shapes = f"{perm.shape}, {phase.shape}"
            raise ValueError(f"need perm, phase of shape (count, {self.n + 1}), got {shapes}")
        object.__setattr__(self, "matrices", tuple(map(GaussMatrix, perm, phase)))
        for name, value in (("perm", perm), ("phase", phase)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def count(self) -> int:
        return len(self.matrices)

    @cached_property
    def units(self) -> np.ndarray:
        """i^phase for every row, built on first use."""
        return UNITS[self.phase]


def build_family(n: int) -> CliffordFamily:
    """Build the family for C^(n+1) from the Pauli words of the spin generators."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    v = nu_of(n + 1)
    j = np.arange(1, 2 * v + 2)
    t = (j - 1) // 2
    # the Y letters hold the low t bits and the g letter bit t, so each mask is
    # 2^bits - 1: g2 = iX adds bit t to xmask, g1 = iZ to zmask, i*Y^nu neither
    x_bits = np.where(j % 2 == 0, t + 1, t)
    z_bits = np.where(j % 2 == 1, np.minimum(t + 1, v), t)
    rows = np.arange(n + 1)
    low_parity = np.zeros((v + 1, n + 1), dtype=np.int64)  # [s]: parity of rows' low s bits
    np.bitwise_xor.accumulate((rows >> np.arange(v)[:, None]) & 1, axis=0, out=low_parity[1:])
    perm = rows ^ ((1 << x_bits) - 1)[:, None]
    phase = (1 + 3 * t)[:, None] + 2 * low_parity[z_bits]
    signs = tuple(predicted_sign(k, v) for k in j.tolist())
    return CliffordFamily(n, v, (n + 1) >> v, perm, phase, signs)


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

    (a) gathers A_j A_k = (perm[k][perm[j]], phase[j] + phase[k][perm[j]])
    and A_k A_j for all k > j at once, (b) gathers the whole family; no array
    is (count, count, n + 1).  Failures are report content, not exceptions.
    """
    perm, phase, count = family.perm, family.phase, family.count
    checks: list[IdentityCheck] = []
    for j in range(count - 1):
        pj, hj, later = perm[j], phase[j], perm[j + 1 :]
        same_perm = (perm[j + 1 :, pj] == pj[later]).all(axis=1)
        jk_minus_kj = hj + phase[j + 1 :, pj] - phase[j + 1 :] - hj[later]
        ok = same_perm & (jk_minus_kj % 4 == 2).all(axis=1)
        pairs = enumerate(ok.tolist(), j + 2)
        checks += (IdentityCheck(f"anticommute[{j + 1},{k}]", p) for k, p in pairs)
    back = np.take_along_axis(perm, perm, axis=1)
    skew = (back == np.arange(family.n + 1)).all(axis=1) & (
        phase == (2 - np.take_along_axis(phase, perm, axis=1)) % 4
    ).all(axis=1)
    checks += (IdentityCheck(f"skew_hermitian[{j}]", p) for j, p in enumerate(skew.tolist(), 1))
    odd = np.array(family.predicted_signs)[:, None] == -1
    conj = (phase % 2 == odd).all(axis=1)
    checks += (IdentityCheck(f"conjugation_sign[{j}]", p) for j, p in enumerate(conj.tolist(), 1))
    return FamilyReport(n=family.n, checks=tuple(checks))
