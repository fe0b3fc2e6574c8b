"""The mod-2 cohomology ring of the Wall manifold and the line-bundle splitting obstruction.

H^*(Q(m, n); F_2) = F_2[x, c, d] / (x^2, c^(m+1) - c^m x, d^(n+1)), with
|x| = |c| = 1 and |d| = 2, has the basis x^e c^i d^j, e <= 1, i <= m, j <= n,
all of degree <= dim Q(m, n) = m + 2n + 1.  An element is a pair of Python
ints (h0, h1), its x^0 and x^1 parts: x^e c^i d^j is bit q (m+1) + i of h_e,
q = e + i + 2j its degree, so each degree is a block of m + 1 bits.  Products
are built from three steps whose shifts and masks `WallRing` computes once:
times c^t shifts by t (m+2) and keeps the slots i >= t of each block, folding
the c^(m+1) = x c^m that h0 wraps onto slot 0 into h1 (c^t = 0 for t >= m + 2);
times d^t shifts by 2t blocks and keeps j <= n; times x moves h0 up one block
into h1.  Mod 2, (1 + y)^(2^t) = 1 + y^(2^t), so w(Q) = (1 + c + x)
(1 + c)^(m-1) (1 + c + d)^(n+1) is 1 + c + x times the factors 1 + c^(2^t)
over the binary digits 2^t of m - 1 and 1 + c^(2^t) + d^(2^t) over those of n + 1.

If k independent line fields exist, w(Q) / prod(1 + x_i) vanishes above degree
dim - k for some degree-1 classes x_1, ..., x_k; ruling out every choice
bounds the projective span by k - 1.  With U = (1 + c)^(-1), x^2 = 0 gives
(1 + x)^(-1) = 1 + x and 1 + x + c = (1 + c)(1 + xU), so mod 2

    w / ((1+x)^k1 (1+c)^k2 (1+x+c)^k3) = w U^s (1 + x (k1 + k3 U)),   s = k2 + k3.

A class depends only on its memo key (s, k1 mod 2, k3 mod 2), and k is ruled
out iff the class of every key that k classes reach has a degree above dim - k.

The period lemma: take 2^L >= m + 2.  Mod 2, (1 + c)^(2^L) = 1 + c^(2^L), and
c^t = 0 for t >= m + 2, so U^(2^L) = 1 and a key's class depends only on its
residue (s mod 2^L, p1, p3).  The keys that `_new_keys` lists at steps 0 ...
2^L + 1 reach all 4 * 2^L residues, (0, 0, 1) first at step 2^L and (0, 1, 1) at
2^L + 1, so `ruled_out` compares a memoised running minimum of top degrees, final
after step 2^L + 1, with dim - k; past it the first ruled-out k is dim - T + 1
for the final minimum T.  As w U^s = w (1 + c)^(2^L - s), `VirtualSwSearch` lists
the w U^r the scan reads, r <= R = min(dim + 1, 2^L - 1, B + 2), B the bound below,
one factor 1 + c apart from w U^R, which takes one factor 1 + c^(2^t) per binary
digit 2^t of 2^L - R: at most 2^L + L factors, 2^L <= 2(m + 1).  Step k reads up to
w U^(k+1), `first_ruled_out` none past B + 1; `_power` builds what tests read past R.

The bound is at most m - 1 + 2^(nu+1), nu = nu(n + 1), for every (m, n).  Sending
x and c to 0 and d to d kills x^2, c^(m+1) - c^m x and d^(n+1), so it is a ring
map onto F_2[d] / (d^(n+1)) (the restriction to the fibre CP^n); it sends the
basis element x^e c^i d^j to d^j if e = i = 0 and to 0 otherwise, so it reads off
the coefficient of each d^j.  It sends w(Q) to (1 + d)^(n+1) and 1 + x, 1 + c,
1 + x + c and U to 1, so the coefficient of d^j in every virtual class is
C(n+1, j) mod 2, j <= n.  By Lucas' theorem C(n+1, j) is odd iff the binary
digits of j are among those of n + 1.  Such a j < n + 1 misses one of them, each
at least 2^nu, the lowest, so the largest j <= n with C(n+1, j) odd is
J = n + 1 - 2^nu.  Every class then has the term d^J in degree 2J, so every k
with dim - k < 2J is ruled out, and the bound is at most dim - 2J =
m - 1 + 2^(nu+1).  For nu <= 1 (4 does not divide n + 1) that is pspan =
m + 1 + 2 nu.

The bound is at least B = m - 1 + 2^(nu+1) = dim - 2J, so it equals B for every
(m, n), and B = dim exactly when n + 1 is a power of 2.  The witness is the key
(m + 2^nu, 0, 1), of k1 = 0, k2 = m - 1 + 2^nu and k3 = 1: it takes m + 2^nu <= B
classes, and the other 2^nu - 1 classes of a B-multiset are 0, so k = B reaches
it.  As 1 + x + c = (1 + c)(1 + xU), w U^m (1 + xU) = (1 + c + d)^(n+1), and
x^2 = 0 gives (1 + xU)^2 = 1, so the key's class is

    (1 + c + d)^(n+1) U^(2^nu) = sum_{j <= J} C(n+1, j) d^j (1 + c)^(J - j),

the terms J < j <= n dropping out as C(n+1, j) is even there (Lucas, as above).
The j = J term is d^J, in degree 2J, and a term j < J has degree at most
2j + (J - j) < 2J.  So the class vanishes above 2J = dim - B: k = B is not ruled
out, and by the monotonicity in `first_ruled_out` no smaller k is either.

So the two witnesses decide the bound: `certified_bound` checks them on the ring
for the reports, `sw_upper_bound` and criterion 5.  The scan is the tests' and CI's
cross-check; it stays here only while the benchmark's tracer wraps `rule_out` by name.

The tests check the ring against sympy's Groebner reduction, a hand expansion
of free monomials and the fibre restriction w(CP^n) = (1 + a)^(n+1), read off
with binomial coefficients; none of the three shares code with it.
"""

from __future__ import annotations

import re
from itertools import count, groupby
from typing import Iterable, Iterator, NamedTuple

from .invariants import Record, WallParams

Mono = tuple[int, int, int]
Key = tuple[int, int, int]  # (s, k1 mod 2, k3 mod 2) of a multiset, see VirtualSwSearch
Pair = tuple[int, int]  # the packed (h0, h1) of a class
Witness = tuple[Key, int | None]  # a key and its class's failure degree, see RuleOutResult

GENERATORS = ("x", "c", "d")


def _bits(h: int) -> list[int]:
    """Positions of the set bits of h >= 0, ascending."""
    return [match.start() for match in re.finditer("1", bin(h)[:1:-1])]


class WallRing(Record):
    """H^*(Q(m, n); F_2) on the basis x^e c^i d^j, e <= 1, i <= m, j <= n.

    m = 0 is rejected: the relation c^(m+1) = c^m x would collapse c onto x.
    Rings compare and hash by (m, n).
    """

    _fields = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        if m < 1:
            raise ValueError(f"the Wall ring needs m >= 1, got m = {m}")
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        b = m + 1  # bits per degree in the packed layout: the slots i = 0..m
        firsts = ((1 << (m + 2 * n + 3) * b) - 1) // ((1 << b) - 1)  # slot 0 of every block to degree dim + 1
        fibre = ((1 << 2 * b * (n + 1)) - 1) // ((1 << 2 * b) - 1)  # d^j at bit 2jb, j <= n
        basis = fibre * (((1 << (b + 1) * b) - 1) // ((1 << b + 1) - 1))  # times c^i at bit i(b+1), i <= m
        vars(self).update(m=m, n=n, block=b, _firsts=firsts, _c_steps={}, _basis_bits=(basis, basis << b))

    @property
    def top_degree(self) -> int:
        return self.m + 2 * self.n + 1

    def _c_step(self, t: int) -> tuple[int, int, int]:
        """(shift, keep, wrap) of times c^t, t >= 1: with s0 = h0 << shift, c^t (h0, h1) is (s0 & keep,
        (h1 << shift) & keep ^ (s0 & wrap) >> 1): slot i moves to i + t, keep holds the slots i >= t of a
        block, and wrap slot 0, c^(m+1) = x c^m, where h0 wraps.  All are 0 for t >= m + 2, as c^t = 0."""
        if t > self.block:
            return 0, 0, 0
        step = self._c_steps.get(t)
        if step is None:  # built on the first use of its t
            b, firsts = self.block, self._firsts
            step = self._c_steps[t] = t * (b + 1), ((1 << b) - (1 << t)) * firsts, firsts
        return step

    def times_one_plus_c(self, h0: int, h1: int, ts: Iterable[int]) -> Pair:
        """(h0, h1) times the product of 1 + c^t over ts, each t >= 1, see `_c_step`."""
        for t in ts:
            shift, keep, wrap = self._c_step(t)
            s0 = h0 << shift
            h0, h1 = h0 ^ s0 & keep, h1 ^ (h1 << shift) & keep ^ (s0 & wrap) >> 1
        return h0, h1

    def times_d(self, h0: int, h1: int, t: int) -> Pair:
        """(h0, h1) times d^t: a shift by 2t blocks, keeping j <= n."""
        shift, (keep0, keep1) = 2 * t * self.block, self._basis_bits
        return (h0 << shift) & keep0, (h1 << shift) & keep1

    def times_mono(self, h0: int, h1: int, mono: Mono) -> Pair:
        """(h0, h1) times the basis monomial x^e c^i d^j."""
        e, i, j = mono
        g0, g1 = self.times_one_plus_c(h0, h1, (i,)) if i else (0, 0)  # c^i h = (1 + c^i) h + h
        h0, h1 = self.times_d(h0 ^ g0, h1 ^ g1, j)
        return (0, h0 << self.block) if e else (h0, h1)

    def basis(self, q: int) -> tuple[Mono, ...]:
        """Basis monomials of degree exactly q, lexicographically sorted."""
        return tuple(sorted(GradedF2Poly(self, *self._basis_bits).component(q).monos))

    def zero(self) -> GradedF2Poly:
        return GradedF2Poly(self, 0, 0)

    def one(self) -> GradedF2Poly:
        return self.element([(0, 0, 0)])

    def gen(self, name: str) -> GradedF2Poly:
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}; have {list(GENERATORS)}")
        return self.element([tuple(int(g == name) for g in GENERATORS)])

    def element(self, monos: Iterable[Mono]) -> GradedF2Poly:
        """Sum of free monomials x^e c^i d^j, each folded onto the basis."""
        h = [0, 0]
        for e, i, j in monos:
            if i > self.m:  # c^(m+1) = x c^m
                e, i = e + i - self.m, self.m
            if e <= 1 and j <= self.n:
                h[e] ^= 1 << (e + i + 2 * j) * self.block + i
        return GradedF2Poly(self, *h)


def wall_presentation(m: int, n: int) -> WallRing:
    """H^*(Q(m, n); F_2) = F_2[x, c, d] / (x^2, c^(m+1) - c^m x, d^(n+1))."""
    return WallRing(m, n)


class GradedF2Poly(Record):
    """Element of a `WallRing`: its x^0 and x^1 parts h0 and h1, bit-packed.

    Elements compare and hash by (ring, h0, h1).
    """

    __slots__ = _fields = ("ring", "h0", "h1")

    def __init__(self, ring: WallRing, h0: int, h1: int) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)

    def _same_ring(self, other: GradedF2Poly) -> WallRing:
        if self.ring != other.ring:
            raise ValueError(f"mixed rings: {self.ring!r} vs {other.ring!r}")
        return self.ring

    def __add__(self, other: GradedF2Poly) -> GradedF2Poly:
        return GradedF2Poly(self._same_ring(other), self.h0 ^ other.h0, self.h1 ^ other.h1)

    def __mul__(self, other: GradedF2Poly) -> GradedF2Poly:
        ring = self._same_ring(other)
        # the sum of one factor times each monomial of the other, the one with fewer terms
        walk, factor = sorted((self, other), key=lambda p: p.h0.bit_count() + p.h1.bit_count())
        terms = (ring.times_mono(factor.h0, factor.h1, mono) for mono in walk.monos)
        return sum((GradedF2Poly(ring, *term) for term in terms), ring.zero())

    @property
    def monos(self) -> frozenset[Mono]:
        b, halves = self.ring.block, (self.h0, self.h1)
        slots = [(e, divmod(pos, b)) for e in (0, 1) for pos in _bits(halves[e])]
        return frozenset((e, i, (q - e - i) // 2) for e, (q, i) in slots)

    def is_zero(self) -> bool:
        return not (self.h0 or self.h1)

    def component(self, q: int) -> GradedF2Poly:
        """The degree-q graded piece."""
        b = self.ring.block
        mask = ((1 << b) - 1) << q * b if q >= 0 else 0
        return GradedF2Poly(self.ring, self.h0 & mask, self.h1 & mask)

    def degrees(self) -> tuple[int, ...]:
        return tuple(dict.fromkeys(pos // self.ring.block for pos in _bits(self.h0 | self.h1)))

    def render_by_degree(self) -> list[tuple[int, str]]:
        """(q, the degree-q piece rendered) for each nonzero q: monomials sorted by degree, then exponents."""
        ordered = groupby(sorted((e + i + 2 * j, (e, i, j)) for e, i, j in self.monos), key=lambda t: t[0])
        return [(q, " + ".join(render_monomial(mo) for _, mo in group)) for q, group in ordered]

    def render(self) -> str:
        return " + ".join(piece for _, piece in self.render_by_degree()) or "0"

    def __repr__(self) -> str:
        return f"GradedF2Poly({self.render()})"


def render_monomial(mono: Mono) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(GENERATORS, mono) if e]
    return "*".join(parts) or "1"


# -- characteristic classes ----------------------------------------------------


def total_sw_wall(p: WallParams) -> GradedF2Poly:
    """Total Stiefel-Whitney class w(Q(m, n)) = (1 + c + x) (1 + c)^(m-1) (1 + c + d)^(n+1),
    each power a product of Frobenius factors (see the module docstring)."""
    ring = wall_presentation(p.m, p.n)
    m1, n1, b, (jn0, jn1) = p.m - 1, p.n + 1, ring.block, ring._basis_bits  # jn: the slots j <= n
    h0, h1 = 1 | 2 << b, 1 << b  # 1 + c + x: 1 and c in h0, x in h1
    for t in range(max(m1, n1).bit_length()):  # the digit T = 2^t
        shift, keep, wrap = ring._c_step(1 << t) if (m1 | n1) >> t & 1 else (0, 0, 0)
        if m1 >> t & 1:  # times 1 + c^T
            s0 = h0 << shift
            h0, h1 = h0 ^ s0 & keep, h1 ^ (h1 << shift) & keep ^ (s0 & wrap) >> 1
        if n1 >> t & 1:  # times 1 + c^T + d^T; times d^T shifts by 2T blocks and keeps j <= n
            s0, d = h0 << shift, 2 * b << t
            h0, h1 = h0 ^ s0 & keep ^ (h0 << d) & jn0, h1 ^ (h1 << shift) & keep ^ (s0 & wrap) >> 1 ^ (h1 << d) & jn1
    return GradedF2Poly(ring, h0, h1)


# -- the virtual Stiefel-Whitney obstruction ------------------------------------

class RuleOutResult(NamedTuple):
    """Whether k independent line fields are impossible, decided on the memo keys.

    `witnesses` pair each key that k classes reach, in `_new_keys` order, with its
    class's lowest degree above `max_allowed_degree` = dim - k, or None."""

    k: int
    ruled_out: bool
    max_allowed_degree: int
    witnesses: tuple[Witness, ...]


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
        self.w = total_sw_wall(p)
        ring = self.ring = self.w.ring
        self._block = ring.block  # bits per degree
        period = self._period = 1 << (p.m + 1).bit_length()  # 2^L > m + 1, as U^(2^L) = 1
        top = min(p.dim + 1, period - 1, p.m + 1 + (2 << p.nu))  # the residues read, see the module docstring
        self._powers = [(self.w.h0, self.w.h1)]
        powers = self._powers = self._powers * top + [self._power(top)]  # w U^top from the binary digits of 2^L - top
        (h0, h1), (shift, keep, wrap) = powers[top], ring._c_step(1)
        for s in range(top - 1, 0, -1):  # w U^s = w U^(s+1) (1 + c)
            s0 = h0 << shift
            g0, g1 = h0 ^ s0 & keep, h1 ^ (h1 << shift) & keep ^ (s0 & wrap) >> 1
            del s0  # copies made once the step's temporaries are freed: a compact heap
            powers[s] = h0, h1 = g0 | 0, g1 | 0
        self._min_tops: list[int] = []  # least top degree over the keys reachable by k classes

    def _power(self, s: int) -> Pair:
        """w U^s = w (1 + c)^e, e = -s mod 2^L: listed, or one factor 1 + c^(2^t) per binary digit 2^t of e."""
        r, e = s % self._period, -s % self._period
        if r < len(self._powers):
            return self._powers[r]
        return self.ring.times_one_plus_c(*self._powers[0], [1 << t for t in range(e.bit_length()) if e >> t & 1])

    def _packed_class(self, key: Key) -> Pair:
        s, p1, p3 = key
        h0, h1 = self._power(s)
        # add x (p1 w U^s + p3 w U^(s+1)); times x moves h0 up one block into h1
        if p1:
            h1 ^= h0 << self._block
        if p3:
            h1 ^= self._power(s + 1)[0] << self._block
        return h0, h1

    def virtual_class(self, triple: tuple[int, int, int]) -> GradedF2Poly:
        """w / ((1+x)^k1 (1+c)^k2 (1+x+c)^k3) for multiplicities (k1, k2, k3)."""
        k1, k2, k3 = triple
        return GradedF2Poly(self.ring, *self._packed_class((k2 + k3, k1 & 1, k3 & 1)))

    def _step_tops(self, s: int) -> Iterator[int]:
        """The least top degree of the classes of `_new_keys(t)` for each step t = s, s + 1, ...: from the
        window w U^(t-1), w U^t, w U^(t+1), which slides one power per step, read off the list or, past it,
        built by `_power` for the tests (step 0 reads w alone).  Every class is a unit, never 0."""
        b, powers, listed, mask, power = self._block, self._powers, len(self._powers), self._period - 1, self._power
        (z0, z1), (a0, a1) = power(s - 1) if s else (0, 0), power(s)
        for t in count(s):
            r = t + 1 & mask
            y0, y1 = powers[r] if r < listed else power(t + 1)
            least = (a0 | a1).bit_length()  # (t, 0, 0)
            if t:  # (t, 0, 1), (t - 1, 1, 0) and, from t = 2, (t - 1, 1, 1)
                fourth = (z0 | z1 ^ (z0 ^ a0) << b).bit_length() if t >= 2 else least
                least = min(least, (a0 | a1 ^ y0 << b).bit_length(), (z0 | z1 ^ z0 << b).bit_length(), fourth)
            yield (least - 1) // b
            z0, z1, a0, a1 = a0, a1, y0, y1

    def _running_min(self, t: int) -> Iterator[int]:
        """The least top degree over the keys of steps 0 .. u, for u = t, t + 1, ...: memoised in `_min_tops`."""
        tops = self._min_tops
        yield from tops[t:]
        least, append = tops[-1] if tops else self.ring.top_degree, tops.append  # every top degree is <= dim
        for u, top in enumerate(self._step_tops(len(tops)), len(tops)):
            least = top if top < least else least
            append(least)
            if u >= t:
                yield least

    def class_failure_degree(self, key: Key, allowed: int) -> int | None:
        """The class's lowest degree above `allowed`, or None if it has none."""
        h0, h1 = self._packed_class(key)
        above = (h0 | h1) >> (allowed + 1) * self._block
        return allowed + 1 + ((above & -above).bit_length() - 1) // self._block if above else None

    def ruled_out(self, k: int) -> bool:
        """Whether k is ruled out: the class of every key that k classes reach has a
        degree above dim - k, read off the running minimum of top degrees."""
        dim = self.ring.top_degree
        if not 1 <= k <= dim:
            raise ValueError(f"need 1 <= k <= dim = {dim}, got k = {k}")
        return next(self._running_min(min(k, self._period + 1))) > dim - k  # no new residue after step 2^L + 1

    def first_ruled_out(self) -> int | None:
        """The smallest ruled-out k, or None if no k <= dim is ruled out.

        Every larger k is ruled out too: if w / prod(1 + x_i) over k + 1
        classes vanishes above dim - k - 1, then times (1 + x_(k+1)) it vanishes
        above dim - k, so dropping that class gives a passing k-multiset.
        """
        dim = least = self.ring.top_degree  # every top degree is <= dim, so k = 0 is never ruled out
        for k, top in zip(range(min(dim, self._period + 1) + 1), self._step_tops(0)):  # the running minimum
            least = top if top < least else least
            if least > dim - k:
                return k
        first = dim - least + 1  # past step 2^L + 1 the minimum is final
        return first if first <= dim else None

    def upper_bound(self) -> int:
        """The bound on pspan(Q) the obstruction certifies: the smallest ruled-out
        k minus one, or dim Q if nothing is ruled out."""
        first = self.first_ruled_out()
        return self.ring.top_degree if first is None else first - 1

    def rule_out(self, k: int) -> RuleOutResult:
        """`ruled_out(k)` with its witnesses, each key's failure degree."""
        ruled_out, allowed = self.ruled_out(k), self.ring.top_degree - k
        keys = (key for t in range(k + 1) for key in _new_keys(t))
        witnesses = tuple((key, self.class_failure_degree(key, allowed)) for key in keys)
        return RuleOutResult(k, ruled_out, allowed, witnesses)


def proved_witnesses(m: int, n: int) -> tuple[int, Key, int | None]:
    """(B, key, J) of Q(m, n): B = m - 1 + 2^(nu+1) = dim - 2J, formed here alone, and its witnesses (module
    docstring): the key (m + 2^nu, 0, 1), admissible at B, and J = n + 1 - 2^nu, whose d^J rules out B + 1."""
    low = n + 1 & -(n + 1)  # 2^nu, the lowest binary digit of n + 1
    return m - 1 + 2 * low, (m + low, 0, 1), n + 1 - low or None  # J = None, and B = dim, if n + 1 = 2^nu


def certified_bound(w: GradedF2Poly) -> tuple[int, Key, int, int | None, bool]:
    """(bound, key, top, J, certified) of w = w(Q(m, n)), (m, n) from its ring: `proved_witnesses`, the top degree
    of the key's class w U^s + x w U^(s+1), w U^(s+1) = w (1 + c)^(-(s+1) mod 2^L), and whether the key takes at
    most `bound` classes, its class vanishes above dim - bound and, unless bound = dim, d^J rules out bound + 1."""
    ring, dim, b = w.ring, w.ring.top_degree, w.ring.block
    bound, key, big_j = proved_witnesses(ring.m, ring.n)
    e = -(key[0] + 1) % (1 << b.bit_length())  # 2^L > m + 1, as U^(2^L) = 1
    y0, y1 = ring.times_one_plus_c(w.h0, w.h1, [1 << t for t in range(e.bit_length()) if e >> t & 1])
    h0, h1 = ring.times_one_plus_c(y0, y1, (1,))
    top = ((h0 | h1 ^ y0 << b).bit_length() - 1) // b  # times x moves h0 up one block into h1
    ruled_out = bound == dim or big_j is not None and 2 * big_j > dim - bound - 1 and w.h0 >> 2 * big_j * b & 1 == 1
    return bound, key, top, big_j, key[0] <= bound and top <= dim - bound and ruled_out


def sw_upper_bound(p: WallParams) -> int:
    """The mod-2 bound on pspan(Q(m, n)) of `certified_bound`; an ArithmeticError if the ring does not certify it."""
    bound, *_, certified = certified_bound(total_sw_wall(p))
    if not certified:
        raise ArithmeticError(f"the two witnesses do not certify the mod-2 bound {bound} of Q({p.m}, {p.n})")
    return bound
