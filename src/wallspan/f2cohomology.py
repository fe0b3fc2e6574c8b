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

each class is read off the powers w U^s and w U^(s+1), and multiplying by U
is a running XOR along the c axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator

import numpy as np

from .invariants import WallParams

Mono = tuple[int, int, int]

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

    def __pow__(self, e: int) -> GradedF2Poly:
        if e < 0:
            raise ValueError("negative powers are not defined; see unit_inverse")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
        return tuple(np.unique(self.ring.degree_grid[self.coeffs != 0]).tolist())

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
    """Total Stiefel-Whitney class w(Q(m, n)) = (1 + c + x) (1 + c)^(m-1) (1 + c + d)^(n+1)."""
    ring = wall_presentation(p.m, p.n)
    one = ring.one()
    x, c, d = ring.gen("x"), ring.gen("c"), ring.gen("d")
    return (one + c + x) * (one + c) ** (p.m - 1) * (one + c + d) ** (p.n + 1)


def unit_inverse(p: GradedF2Poly) -> GradedF2Poly:
    """Inverse of a unit (degree-0 component 1) by the geometric series in its nilpotent
    tail: the reference that the closed-form virtual classes are tested against."""
    one = p.ring.one()
    if p.component(0) != one:
        raise ValueError("not a unit: the degree-0 component must be 1")
    tail = p + one
    inverse = power = one
    for _ in range(p.ring.top_degree):
        power = power * tail
        if power.is_zero():
            break
        inverse = inverse + power
    return inverse


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
    """Result of testing whether k independent line fields are impossible."""

    k: int
    ruled_out: bool
    max_allowed_degree: int
    witnesses: tuple[MultisetWitness, ...]

    @property
    def bound(self) -> int:
        """The pspan bound when this result ends a `VirtualSwSearch.scan`: k - 1
        if k is ruled out, else k (= dim: the scan ruled nothing out)."""
        return self.k - 1 if self.ruled_out else self.k


class VirtualSwSearch:
    """Brute-force scan of the splitting obstruction over all degree-1 multisets.

    By the closed form, the virtual class for the multiplicities (k1, k2, k3) of
    x, c and x+c depends only on (k2 + k3, k1 mod 2, k3 mod 2), its memo key.
    """

    def __init__(self, p: WallParams) -> None:
        self.ring = wall_presentation(p.m, p.n)
        self.w = total_sw_wall(p)
        self._powers = [self.w.coeffs]  # w U^s for s = 0, 1, ...
        self._degrees: dict[tuple[int, int, int], tuple[int, ...]] = {}

    def _power(self, s: int) -> np.ndarray:
        while len(self._powers) <= s:  # times U: a running XOR along the c axis,
            nxt = np.bitwise_xor.accumulate(self._powers[-1], axis=1)
            nxt[1, -1] ^= nxt[0, -1]  # with the c^(m+1) coefficient folded onto x c^m
            self._powers.append(nxt)
        return self._powers[s]

    def virtual_class(self, triple: tuple[int, int, int]) -> GradedF2Poly:
        """w / ((1+x)^k1 (1+c)^k2 (1+x+c)^k3) for multiplicities (k1, k2, k3)."""
        k1, k2, k3 = triple
        out = self._power(k2 + k3).copy()
        # add x (k1 w U^s + k3 w U^(s+1)); multiplying by x keeps only the x^0 parts
        out[1] ^= (k1 & 1) * out[0] ^ (k3 & 1) * self._power(k2 + k3 + 1)[0]
        return GradedF2Poly(self.ring, out)

    def rule_out(self, k: int) -> RuleOutResult:
        dim = self.ring.top_degree
        if not 1 <= k <= dim:
            raise ValueError(f"need 1 <= k <= dim = {dim}, got k = {k}")
        allowed = dim - k
        failures: dict[tuple[int, int, int], int | None] = {}  # this k's failure degree per key
        witnesses: list[MultisetWitness] = []
        for k1 in range(k + 1):
            for k2 in range(k - k1 + 1):
                for k3 in range(k - k1 - k2 + 1):
                    key = (k2 + k3, k1 & 1, k3 & 1)
                    if key not in failures:
                        if key not in self._degrees:
                            self._degrees[key] = self.virtual_class((k1, k2, k3)).degrees()
                        failures[key] = next((q for q in self._degrees[key] if q > allowed), None)
                    witnesses.append(MultisetWitness((k - k1 - k2 - k3, k1, k2, k3), failures[key]))
                    if failures[key] is None:
                        return RuleOutResult(k, False, allowed, tuple(witnesses))
        return RuleOutResult(k, True, allowed, tuple(witnesses))

    def scan(self) -> Iterator[RuleOutResult]:
        """Yield rule_out(k) for k = 1, 2, ..., dim, stopping at the smallest ruled-out k.

        Every larger k is ruled out too: if w / prod(1 + x_i) over k + 1
        classes vanishes above dim - k - 1, then times (1 + x_(k+1)) it vanishes
        above dim - k, so dropping that class gives a passing k-multiset.  The
        last result's `bound` is the bound on pspan.  Results come lazily, so a
        caller that keeps only the last holds one k's witnesses at a time.
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
