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
(j even), and A_(2nu+1) = i Y^nu (t = nu).  The family stores each A_j as
its word (x_j, z_j, c_j): Python ints holding the bits of its X or Y letters,
the bits of its Z or Y letters, and its phase exponent, c_j = 1 + 3t mod 4
(each Y adds a factor -i = i^3).  Row r of C^(n+1) is block * 2^nu + spinor
index (blocks outer, tensor factor 0 the most significant spinor bit).  An
X or Y letter flips its bit of r and a Z or Y letter signs it, so A_j is the
monomial matrix whose row r holds i^phase_j[r] in column perm_j[r] with

    perm_j[r]  = r XOR x_j,
    phase_j[r] = c_j + 2 * parity(r AND z_j)  mod 4.

x_j lies below 2^nu, so the formula repeats A_j on each of the b blocks.
Under this identification componentwise conjugation on the factors is
componentwise conjugation on C^(n+1), so the identities are entrywise
statements.  `verify_family` decides each of them from the words with a
few int bit operations, whatever n is, and its report keeps one bool per
identity, naming them only when read.  The (perm, phase) arrays are
built only for the field engine and for the matrices the CLI prints (n < 8);
`clifford --format json` writes the words, so x, z and c above decode it.

numpy is loaded on first numeric use (`_lazynp`): `import wallspan` binds it
without running its code, so the `invariants` and `cohomology` commands,
which never build a family, never load it.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import chain
from typing import NamedTuple

from ._lazynp import lazy_numpy
from .invariants import Record, nu as nu_of

np = lazy_numpy()

UNITS = (1, 1j, -1, -1j)  # i^phase
_UNIT_LABELS = ("1", "i", "-1", "-i")


class GaussMatrix:
    """Monomial matrix over the Gaussian units: row r holds i^phase[r] in column perm[r]."""

    __slots__ = ("perm", "phase")

    def __init__(self, perm, phase) -> None:
        perm = np.array(perm, dtype=np.int64)
        phase = np.array(phase, dtype=np.int64) % 4
        if perm.ndim != 1 or perm.shape != phase.shape:
            raise ValueError(f"need 1-d perm and phase alike, got {perm.shape}, {phase.shape}")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError(f"perm is not a permutation of 0..{perm.size - 1}")
        perm.setflags(write=False)
        phase.setflags(write=False)
        self.perm = perm
        self.phase = phase

    @property
    def size(self) -> int:
        return self.perm.size

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The matrix acting on a complex vector."""
        z = np.asarray(z, dtype=np.complex128)
        if z.shape != (self.size,):
            raise ValueError(f"vector length {z.shape} does not match matrix size {self.size}")
        return np.array(UNITS)[self.phase] * z[self.perm]

    def pretty(self) -> str:
        """Every entry as text (0, 1, i, -1 or -i), one bracketed row per line."""
        rows = [["0"] * self.size for _ in range(self.size)]
        for row, col, ph in zip(rows, self.perm.tolist(), self.phase.tolist()):
            row[col] = _UNIT_LABELS[ph]
        width = max(len(c) for row in rows for c in row)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in rows)

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class CliffordFamily(Record):
    """The 2*nu(n+1) + 1 automorphisms of C^(n+1) with their conjugation signs.

    `words[j - 1]` is A_j's Pauli word (x_j, z_j, c_j).  The stacked
    (count, n + 1) arrays `perm` and `phase` (row j - 1 is A_j), their units
    and the GaussMatrix rows follow from the words, built on first use.
    Families compare and hash by (n, words, predicted_signs).
    """

    _fields = ("n", "words", "predicted_signs")

    def __init__(
        self, n: int, words: tuple[tuple[int, int, int], ...], predicted_signs: tuple[int, ...]
    ) -> None:
        if len(predicted_signs) != len(words):
            raise ValueError(f"need one sign per word, got {len(predicted_signs)} for {len(words)}")
        block = 1 << nu_of(n + 1)  # r ^ x must stay in r's block of 2^nu rows: every row a permutation
        for j, (x, _, _) in enumerate(words, start=1):
            if not 0 <= x < block:
                raise ValueError(f"word {j}: need 0 <= x < 2^nu = {block}, got x = {x}")
        vars(self).update(n=n, words=words, predicted_signs=predicted_signs)

    @property
    def nu(self) -> int:
        return nu_of(self.n + 1)

    @property
    def b(self) -> int:
        return (self.n + 1) >> self.nu

    @property
    def count(self) -> int:
        return len(self.words)

    def _column(self, i: int) -> np.ndarray:
        """Letter i of every word, one row each: shape (count, 1)."""
        return np.array([word[i] for word in self.words], dtype=np.int64)[:, None]

    @cached_property
    def perm(self) -> np.ndarray:
        return _read_only(np.arange(self.n + 1) ^ self._column(0))

    @cached_property
    def phase(self) -> np.ndarray:
        # parity by xor-shift folding: after folding by 2^k the low 2^k bits hold it
        bits = np.arange(self.n + 1) & self._column(1)
        for k in reversed(range(max(self.n.bit_length() - 1, 0).bit_length())):
            bits ^= bits >> (1 << k)
        return _read_only((self._column(2) + 2 * (bits & 1)) % 4)

    @cached_property
    def units(self) -> np.ndarray:
        """i^phase for every row."""
        return _read_only(np.array(UNITS)[self.phase])

    @cached_property
    def matrices(self) -> tuple[GaussMatrix, ...]:
        return tuple(map(GaussMatrix, self.perm, self.phase))


def build_family(n: int) -> CliffordFamily:
    """Build the family for C^(n+1) from the Pauli words of the spin generators."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    v = nu_of(n + 1)
    gens = range(1, 2 * v + 2)
    words = []
    for j in gens:
        t, odd = (j - 1) // 2, j % 2
        # the Y letters hold the low t bits and the g letter bit t, so each mask is
        # 2^bits - 1: g2 = iX adds bit t to x, g1 = iZ to z, i*Y^nu neither
        words.append(((1 << (t + 1 - odd)) - 1, (1 << min(t + odd, v)) - 1, (1 + 3 * t) % 4))
    return CliffordFamily(n, tuple(words), tuple(predicted_sign(j, v) for j in gens))


class FamilyReport(NamedTuple):
    """The verdict of each identity, `checks[i]` for the one named `names[i]` (built on read)."""

    n: int
    count: int
    checks: tuple[bool, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return _check_names(self.count)

    @property
    def all_passed(self) -> bool:
        return all(self.checks)

    def failures(self) -> list[str]:
        return [self.names[i] for i, passed in enumerate(self.checks) if not passed]


def verify_family(family: CliffordFamily) -> FamilyReport:
    """Exact verification of the three defining identities, from the words alone.

    (a) A_j A_k + A_k A_j = 0 for j != k: both products have permutation
        r ^ x_j ^ x_k and their phases differ by 2 * (popcount(x_j & z_k) +
        popcount(x_k & z_j)) in every row, so (a) holds iff that symplectic
        product is odd (the Pauli-group commutation rule);
    (b) A_j + A_j^* = 0 (conjugate transpose): perm is an involution and
        phase + phase[perm] = 2 * (c_j + popcount(x_j & z_j)) mod 4, so (b)
        holds iff c_j + popcount(x_j & z_j) is odd;
    (c) conj(A_j) = eps_j A_j entrywise, eps_j the predicted sign: every phase
        has the parity of c_j, so (c) holds iff c_j is odd exactly when
        eps_j = -1.

    Since x < 2^nu, the bits of z above nu only sign whole blocks and drop
    out of every rule.  The verdicts are (a) for pairs j < k, then (b), then
    (c), named in that order.  Failures are report content, not exceptions.
    """
    words = family.words
    anticommute = (
        ((xj & zk) ^ (xk & zj)).bit_count() % 2 == 1
        for j, (xj, zj, _) in enumerate(words)
        for xk, zk, _ in words[j + 1 :]
    )
    skew = ((c + (x & z).bit_count()) % 2 == 1 for x, z, c in words)
    signs = (c % 2 == (eps == -1) for (_, _, c), eps in zip(words, family.predicted_signs))
    return FamilyReport(family.n, family.count, tuple(chain(anticommute, skew, signs)))


@cache
def _check_names(count: int) -> tuple[str, ...]:
    """The names of a report on `count` generators, in report order."""
    gens = range(1, count + 1)
    pairs = [f"anticommute[{j},{k}]" for j in gens for k in gens[j:]]
    return (*pairs, *(f"{name}[{j}]" for name in ("skew_hermitian", "conjugation_sign") for j in gens))
