"""The mod-2 cohomology ring of the Wall manifold and the line-bundle splitting obstruction.

H^*(Q(m, n); F_2) = F_2[x, c, d] / (x^2, c^(m+1) - c^m x, d^(n+1)), with
|x| = |c| = 1 and |d| = 2, has the explicit basis x^e c^i d^j, e <= 1,
i <= m, j <= n, all of degree <= dim Q(m, n) = m + 2n + 1.  An element is a
dense 0/1 array indexed (e, i, j); a product is an F_2 convolution folded by
the closed rules c^(m+1) -> x c^m, c^(m+2) -> 0, x^2 -> 0 and d^(n+1) -> 0.

On the ring sits the mod-2 obstruction to splitting k line bundles off the
tangent bundle: if k independent line fields exist, w(Q) / prod(1 + x_i) has
no component above degree dim - k for some degree-1 classes x_1, ..., x_k.
Ruling out every choice of the x_i bounds the projective span by k - 1, and
then every larger k is ruled out too, so `VirtualSwSearch.scan` stops at the
smallest ruled-out k.

The virtual class has a closed form.  With U = (1 + c)^(-1) = sum_{i <= m+1} c^i,
x^2 = 0 gives (1 + x)^(-1) = 1 + x and 1 + x + c = (1 + c)(1 + xU), so mod 2

    w / ((1+x)^k1 (1+c)^k2 (1+x+c)^k3) = w U^s (1 + x (k1 + k3 U)),   s = k2 + k3:

each class is read off the powers w U^s and w U^(s+1), and depends only on
its memo key (s, k1 mod 2, k3 mod 2).  k classes reach the keys with s <= k,
k1 odd only if s < k and k3 odd only if s >= 1, and k is ruled out iff every
reachable key's class has a degree above dim - k.  The witnesses are listed
on demand.

`VirtualSwSearch` keeps each class bit-packed in two Python ints, h0 and h1
(the x^0 and x^1 parts): x^e c^i d^j sits at bit q (m+1) + i, q = e + i + 2j
its degree, so degree q is a block of m + 1 bits and j is implied by q and i.
Times c^t is then a shift by t (m+2), and times U a segmented prefix XOR along
each c run: for t = 1, 2, 4, ... <= m, h ^= (h << t (m+2)) & keep_t, where
keep_t keeps the slots i >= t of every block; h1 ^= (h0 & row_m) << (m+1)
then folds c^(m+1) onto x c^m.  A class's top degree is
(bit_length(h0 | h1) - 1) // (m+1), and its failure degree the lowest set bit
above the block of dim - k.  `rule_out` reads a memoised running minimum of
top degrees over the reachable keys: key (0, 0, 0) at k = 0, and step s adds
(s, 0, 0), (s, 0, 1), (s-1, 1, 0) and, for s >= 2, (s-1, 1, 1).  A scan thus
computes each of its O(bound) keys once, and the powers only as far as it goes.

By Lucas' theorem c^a d^b is odd in (1 + c + d)^(n+1) iff a & b = 0 and a | b
is a submask of n + 1, and c^i in (1 + c)^(m-1) iff i is a submask of m - 1,
so w(Q) needs no ring product (see `total_sw_wall`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .invariants import WallParams

Mono = tuple[int, int, int]
Key = tuple[int, int, int]  # (s, k1 mod 2, k3 mod 2) of a multiset, see VirtualSwSearch

GENERATORS = ("x", "c", "d")


@dataclass(frozen=True)
class WallRing:
    """H^*(Q(m, n); F_2) on the basis x^e c^i d^j, e <= 1, i <= m, j <= n.

    m = 0 is rejected: the relation c^(m+1) = c^m x would collapse c onto x.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"the Wall ring needs m >= 1, got m = {self.m}")
        if self.n < 0:
            raise ValueError(f"need n >= 0, got {self.n}")

    @cached_property
    def degree_grid(self) -> np.ndarray:
        """Degree e + i + 2j of each basis monomial, indexed (e, i, j)."""
        e, i, j = np.indices((2, self.m + 1, self.n + 1))
        return e + i + 2 * j

    @property
    def top_degree(self) -> int:
        return self.m + 2 * self.n + 1

    def basis(self, q: int) -> tuple[Mono, ...]:
        """Basis monomials of degree exactly q, lexicographically sorted."""
        return tuple(map(tuple, np.argwhere(self.degree_grid == q).tolist()))

    def zero(self) -> GradedF2Poly:
        return GradedF2Poly(self, np.zeros(self.degree_grid.shape, np.uint8))

    def one(self) -> GradedF2Poly:
        return self.element([(0, 0, 0)])

    def gen(self, name: str) -> GradedF2Poly:
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}; have {list(GENERATORS)}")
        return self.element([tuple(int(g == name) for g in GENERATORS)])

    def element(self, monos: Iterable[Mono]) -> GradedF2Poly:
        """Sum of free monomials x^e c^i d^j, each folded onto the basis."""
        out = self.zero()
        for e, i, j in monos:
            if i > self.m:  # c^(m+1) = x c^m
                e, i = e + i - self.m, self.m
            if e <= 1 and j <= self.n:
                out.coeffs[e, i, j] ^= 1
        return out


def wall_presentation(m: int, n: int) -> WallRing:
    """H^*(Q(m, n); F_2) = F_2[x, c, d] / (x^2, c^(m+1) - c^m x, d^(n+1))."""
    return WallRing(m, n)


@dataclass(frozen=True, eq=False, slots=True)
class GradedF2Poly:
    """Element of a `WallRing`: 0/1 coefficients indexed (e, i, j)."""

    ring: WallRing
    coeffs: np.ndarray

    def _same_ring(self, other: GradedF2Poly) -> WallRing:
        if self.ring != other.ring:
            raise ValueError(f"mixed rings: {self.ring!r} vs {other.ring!r}")
        return self.ring

    def __add__(self, other: GradedF2Poly) -> GradedF2Poly:
        return GradedF2Poly(self._same_ring(other), self.coeffs ^ other.coeffs)

    def __mul__(self, other: GradedF2Poly) -> GradedF2Poly:
        ring = self._same_ring(other)
        m, n = ring.m, ring.n
        a, b = self.coeffs, other.coeffs
        if np.count_nonzero(a) > np.count_nonzero(b):
            a, b = b, a
        full = np.zeros((3, 2 * m + 1, 2 * n + 1), np.uint8)
        for e, i, j in np.argwhere(a):
            full[e : e + 2, i : i + m + 1, j : j + n + 1] ^= b
        # keep x^e c^i d^j with e <= 1, i <= m, j <= n and fold c^(m+1) = x c^m;
        # x^2, c^(m+2), x c^(m+1) and d^(n+1) all vanish
        out = full[:2, : m + 1, : n + 1].copy()
        out[1, m] ^= full[0, m + 1, : n + 1]
        return GradedF2Poly(ring, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedF2Poly):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self.coeffs, other.coeffs)

    @property
    def monos(self) -> frozenset[Mono]:
        return frozenset(map(tuple, np.argwhere(self.coeffs).tolist()))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def component(self, q: int) -> GradedF2Poly:
        """The degree-q graded piece."""
        return GradedF2Poly(self.ring, self.coeffs * (self.ring.degree_grid == q))

    def degrees(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(np.bincount(self.ring.degree_grid[self.coeffs != 0])).tolist())

    def render(self) -> str:
        ordered = sorted(self.monos, key=lambda mo: (mo[0] + mo[1] + 2 * mo[2], mo))
        return " + ".join(map(render_monomial, ordered)) or "0"

    def __repr__(self) -> str:
        return f"GradedF2Poly({self.render()})"


def render_monomial(mono: Mono) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(GENERATORS, mono) if e]
    return "*".join(parts) or "1"


# -- characteristic classes ----------------------------------------------------


def total_sw_wall(p: WallParams) -> GradedF2Poly:
    """Total Stiefel-Whitney class w(Q(m, n)) = (1 + c + x) (1 + c)^(m-1) (1 + c + d)^(n+1),
    read off by Lucas' theorem (see the module docstring)."""
    m, n = p.m, p.n
    a, b = np.arange(m + 2)[:, None], np.arange(n + 1)
    step = a - a.T  # (1 + c)^(m-1) as the lower Toeplitz matrix of its c^(i - a) coefficients
    toeplitz = (step >= 0) & ((step & ~(m - 1)) == 0)
    fibre = ((a & b) == 0) & (((a | b) & ~(n + 1)) == 0)  # c^a d^b in (1 + c + d)^(n+1)
    prod = (toeplitz.astype(np.intp) @ fibre.astype(np.intp)).astype(np.uint8) & 1
    out = np.stack([prod[: m + 1], prod[: m + 1]])  # (1 + x) prod, then + c prod:
    out[0, 1:] ^= prod[:m]
    out[1, m] ^= prod[m] ^ prod[m + 1]  # c^(m+1) -> x c^m; c^(m+2), x c^(m+1) vanish
    return GradedF2Poly(wall_presentation(m, n), out)


# -- the virtual Stiefel-Whitney obstruction ------------------------------------

H1_LABELS = ("0", "x", "c", "x+c")


@dataclass(frozen=True)
class MultisetWitness:
    """Outcome for one multiset {x_1, ..., x_k} of degree-1 classes.

    `counts` gives the multiplicities of (0, x, c, x+c).  `failure_degree` is
    the smallest degree above dim - k where w / prod(1 + x_i) is nonzero, or
    None if there is none (the multiset satisfies the necessary condition).
    """

    counts: tuple[int, int, int, int]
    failure_degree: int | None

    def describe(self) -> str:
        labels = [lab for lab, count in zip(H1_LABELS, self.counts) for _ in range(count)]
        return "{" + ", ".join(labels) + "}"

    def to_json_dict(self) -> dict[str, Any]:
        counts, failure = list(self.counts), self.failure_degree
        return {"multiset": self.describe(), "counts": counts, "failureDegree": failure}


@dataclass(frozen=True)
class RuleOutResult:
    """Whether k independent line fields are impossible, decided on the memo keys."""

    k: int
    ruled_out: bool
    max_allowed_degree: int
    failure_degree: Callable[[Key, int], int | None] = field(repr=False, compare=False)

    @property
    def bound(self) -> int:
        """The pspan bound when this result ends a `VirtualSwSearch.scan`: k - 1
        if k is ruled out, else k (= dim: the scan ruled nothing out)."""
        return self.k - 1 if self.ruled_out else self.k

    @cached_property
    def witnesses(self) -> tuple[MultisetWitness, ...]:
        """Multisets in (k1, k2, k3) order: all if ruled out, else through the first passing one."""
        k, allowed, failures, out = self.k, self.max_allowed_degree, {}, []
        for k1 in range(k + 1):
            for k2 in range(k - k1 + 1):
                for k3 in range(k - k1 - k2 + 1):
                    key = (k2 + k3, k1 & 1, k3 & 1)
                    if key not in failures:
                        failures[key] = self.failure_degree(key, allowed)
                    out.append(MultisetWitness((k - k1 - k2 - k3, k1, k2, k3), failures[key]))
                    if failures[key] is None:
                        return tuple(out)
        return tuple(out)


def _new_keys(s: int) -> tuple[Key, ...]:
    """The memo keys reachable by s classes but not by s - 1."""
    if s == 0:
        return ((0, 0, 0),)
    return ((s, 0, 0), (s, 0, 1), (s - 1, 1, 0)) + ((s - 1, 1, 1),) * (s >= 2)


class VirtualSwSearch:
    """Scan of the splitting obstruction over all degree-1 multisets, decided on memo keys.

    By the closed form, the virtual class for the multiplicities (k1, k2, k3) of
    x, c and x+c depends only on (k2 + k3, k1 mod 2, k3 mod 2), its memo key.
    Classes are bit-packed pairs (h0, h1) of Python ints, see the module docstring.
    """

    def __init__(self, p: WallParams) -> None:
        self.ring = wall_presentation(p.m, p.n)
        self.w = total_sw_wall(p)
        m, dim = p.m, self.ring.top_degree
        self._block = b = m + 1  # bits per degree
        self._width = width = (dim + 1) * b
        firsts = ((1 << width) - 1) // ((1 << b) - 1)  # slot 0 of every degree
        # times c^t shifts by t (m + 2); keep_t drops what wraps past slot m
        doubling = (1 << a for a in range(m.bit_length()))  # t = 1, 2, 4, ... <= m
        self._steps = [(t * (b + 1), ((1 << b) - (1 << t)) * firsts) for t in doubling]
        self._row_m = firsts << m
        bits = np.zeros((2, width), np.uint8)
        self._slots(bits)[...] = self.w.coeffs
        packed = np.packbits(bits, 1, bitorder="little")
        h0, h1 = (int.from_bytes(row.tobytes(), "little") for row in packed)
        self._powers = [(h0, h1 << b)]  # w U^s for s = 0, 1, ...
        self._min_tops: list[int] = []  # least top degree over the keys reachable by k classes

    def _slots(self, bits: np.ndarray) -> np.ndarray:
        """The (e, i, j) view of a (2, width) bit array: x^e c^i d^j sits at
        bit (i + 2j)(m + 1) + i of row e, so row 1 is h1 one degree low."""
        b = self._block
        shape, strides = (2, b, self.ring.n + 1), (bits.strides[0], b + 1, 2 * b)
        return np.ndarray(shape, np.uint8, bits, 0, strides)

    def _packed_class(self, key: Key) -> tuple[int, int]:
        s, p1, p3 = key
        powers, b = self._powers, self._block
        while len(powers) <= s + 1:  # times U: a segmented prefix XOR along each c run,
            h0, h1 = powers[-1]
            for shift, keep in self._steps:
                h0 ^= (h0 << shift) & keep
                h1 ^= (h1 << shift) & keep
            powers.append((h0, h1 ^ (h0 & self._row_m) << b))  # with c^(m+1) -> x c^m
        h0, h1 = powers[s]
        # add x (p1 w U^s + p3 w U^(s+1)); times x shifts the x^0 half up one degree
        if p1:
            h1 ^= h0 << b
        if p3:
            h1 ^= powers[s + 1][0] << b
        return h0, h1

    def virtual_class(self, triple: tuple[int, int, int]) -> GradedF2Poly:
        """w / ((1+x)^k1 (1+c)^k2 (1+x+c)^k3) for multiplicities (k1, k2, k3)."""
        k1, k2, k3 = triple
        h0, h1 = self._packed_class((k2 + k3, k1 & 1, k3 & 1))
        size = (self._width + 7) // 8
        raw = b"".join(h.to_bytes(size, "little") for h in (h0, h1 >> self._block))
        bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(2, size), 1, bitorder="little")
        return GradedF2Poly(self.ring, self._slots(bits).copy())

    def class_top_degree(self, key: Key) -> int:
        """The class's highest degree: what `rule_out` reads of each key."""
        h0, h1 = self._packed_class(key)
        return ((h0 | h1).bit_length() - 1) // self._block  # every class is a unit, never 0

    def class_failure_degree(self, key: Key, allowed: int) -> int | None:
        """The class's lowest degree above `allowed`, or None if it has none."""
        h0, h1 = self._packed_class(key)
        above = (h0 | h1) >> (allowed + 1) * self._block
        return allowed + 1 + ((above & -above).bit_length() - 1) // self._block if above else None

    def rule_out(self, k: int) -> RuleOutResult:
        dim = self.ring.top_degree
        if not 1 <= k <= dim:
            raise ValueError(f"need 1 <= k <= dim = {dim}, got k = {k}")
        tops = self._min_tops
        while len(tops) <= k:  # each key's top degree enters the running minimum once
            new = [self.class_top_degree(key) for key in _new_keys(len(tops))]
            tops.append(min(tops[-1:] + new))
        return RuleOutResult(k, tops[k] > dim - k, dim - k, self.class_failure_degree)

    def scan(self) -> Iterator[RuleOutResult]:
        """Yield rule_out(k) for k = 1, 2, ..., dim, stopping at the smallest ruled-out k.

        Every larger k is ruled out too: if w / prod(1 + x_i) over k + 1
        classes vanishes above dim - k - 1, then times (1 + x_(k+1)) it vanishes
        above dim - k, so dropping that class gives a passing k-multiset.  The
        last result's `bound` is the bound on pspan.
        """
        for k in range(1, self.ring.top_degree + 1):
            result = self.rule_out(k)
            yield result
            if result.ruled_out:
                return


def sw_upper_bound(p: WallParams) -> int:
    """The bound on pspan(Q(m, n)) the mod-2 obstruction certifies: the
    smallest ruled-out k minus one, or dim Q(m, n) if nothing is ruled out."""
    for last in VirtualSwSearch(p).scan():
        pass
    return last.bound
