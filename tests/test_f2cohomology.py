"""The Wall ring: normal forms, ring axioms, SW classes, obstruction."""

import random
from collections import Counter
from itertools import accumulate, count, islice, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallspan import f2cohomology
from wallspan.f2cohomology import (
    GradedF2Poly,
    VirtualSwSearch,
    WallRing,
    _new_keys,
    render_monomial,
    sw_upper_bound,
    total_sw_wall,
    wall_presentation,
)
from wallspan.invariants import WallParams, nu

from f2_reference import (
    class_top_degree,
    closed_form_degrees,
    failures_by_key,
    power,
    ring_product_degrees,
    unit_inverse,
    unperiodic_powers,
    unperiodic_rule_out,
)


# -- independent expansion oracle for the Wall ring ---------------------------
#
# Expands products in the free ring with integer coefficients (Counter), then
# reduces each free monomial x^e c^i d^j by hand: d^j dies for j > n, each
# excess c beyond c^m trades for an x, and x^2 dies.  Shares no code with the
# ring.


def reduce_wall_by_hand(mono, m, n):
    e, i, j = mono
    if j > n:
        return None
    while i > m:
        i -= 1
        e += 1
    if e > 1:
        return None
    return (e, i, j)


def expand_wall_by_hand(factors, m, n):
    acc = Counter({(0, 0, 0): 1})
    for factor in factors:
        nxt = Counter()
        for mono, coeff in acc.items():
            for g in factor:
                nxt[tuple(a + b for a, b in zip(mono, g))] += coeff
        acc = nxt
    out = set()
    for mono, coeff in acc.items():
        if coeff % 2 == 0:
            continue
        reduced = reduce_wall_by_hand(mono, m, n)
        if reduced is not None:
            out ^= {reduced}
    return frozenset(out)


def total_sw_by_hand(m, n):
    one, x, c, d = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    factors = [[one, c, x]] + [[one, c]] * (m - 1) + [[one, c, d]] * (n + 1)
    return expand_wall_by_hand(factors, m, n)


def fibre_part(p):
    """Restriction along the fibre inclusion CP^n -> Q(m, n) (x, c -> 0, d -> a),
    as the set of exponents j of the surviving a^j."""
    return frozenset(j for (e, i, j) in p.monos if e == 0 and i == 0)


# -- the ring ------------------------------------------------------------------


def test_wall_degree_one_basis():
    pres = wall_presentation(1, 1)
    assert len(pres.basis(1)) == 2
    assert {render_monomial(mo) for mo in pres.basis(1)} == {"x", "c"}


def test_wall_c_cubed_normalizes():
    # m = 2: c^3 -> c^2 x directly
    assert wall_presentation(2, 1).element([(0, 3, 0)]).render() == "x*c^2"
    # m = 1: c^3 -> c^2 x -> (c x) x -> c x^2 -> 0
    assert wall_presentation(1, 1).element([(0, 3, 0)]).is_zero()


def test_wall_rejects_m_zero():
    with pytest.raises(ValueError, match="the Wall ring needs m >= 1, got m = 0"):
        wall_presentation(0, 2)
    with pytest.raises(ValueError, match="the Wall ring needs m >= 1, got m = 0"):
        WallRing(0, 1)
    with pytest.raises(ValueError, match="need n >= 0, got -1"):
        WallRing(1, -1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_wall_graded_dimensions(m, n):
    # closed count of basis monomials x^eps c^i d^j with eps+i+2j = q
    pres = wall_presentation(m, n)
    for q in range(pres.top_degree + 1):
        expected = sum(
            1
            for eps in (0, 1)
            for i in range(m + 1)
            for j in range(n + 1)
            if eps + i + 2 * j == q
        )
        assert len(pres.basis(q)) == expected


# -- ring arithmetic -----------------------------------------------------------


def test_mul_examples():
    pres = wall_presentation(3, 1)
    one, c = pres.one(), pres.gen("c")
    assert (one + c) * (one + c) == one + c * c

    pres2 = wall_presentation(2, 3)
    x, d = pres2.gen("x"), pres2.gen("d")
    assert (x * x).is_zero()
    assert (power(d, 3) * d).is_zero()
    assert not power(d, 3).is_zero()


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(4))
def test_times_c_power_matches_hand_reduction(m, n):
    # the one times-c^t step, through products in both orders (so whichever factor
    # the product walks, the step runs with this t) and as a factor 1 + c^t
    ring = wall_presentation(m, n)
    basis = [mo for q in range(ring.top_degree + 1) for mo in ring.basis(q)]
    for e, i, j in basis:
        mono = ring.element([(e, i, j)])
        for t in range(m + 3):
            reduced = reduce_wall_by_hand((e, i + t, j), m, n)
            expected = ring.element([reduced]) if reduced is not None else ring.zero()
            c_t = ring.element([(0, t, 0)])
            assert c_t * mono == expected and mono * c_t == expected, (e, i, j, t)
            if t:
                plus = GradedF2Poly(ring, *ring.times_one_plus_c(mono.h0, mono.h1, [t]))
                assert plus == mono + expected, (e, i, j, t)


def test_mul_rejects_mixed_presentations():
    a = wall_presentation(1, 1).gen("c")
    b = wall_presentation(2, 1).gen("c")
    with pytest.raises(ValueError, match="mixed"):
        a * b
    with pytest.raises(ValueError, match="mixed"):
        a + b


_PRES = wall_presentation(2, 2)
_BASIS = [mo for q in range(_PRES.top_degree + 1) for mo in _PRES.basis(q)]
_polys = st.frozensets(st.sampled_from(_BASIS), max_size=10).map(
    lambda monos: _PRES.element(monos)
)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + p).is_zero()
    assert (p + q) * (p + q) == p * p + q * q  # Frobenius in characteristic 2


@settings(max_examples=60, deadline=None)
@given(_polys)
def test_normal_form_idempotent(p):
    assert _PRES.element(p.monos) == p
    assert GradedF2Poly(_PRES, p.h0, p.h1) == p


@settings(max_examples=40, deadline=None)
@given(_polys)
def test_unit_inverse_round_trip(p):
    unit = p + p.component(0) + _PRES.one()  # force degree-0 part to 1
    assert (unit * unit_inverse(unit)) == _PRES.one()


def test_unit_inverse_examples():
    pres = wall_presentation(2, 1)
    one, x, c = pres.one(), pres.gen("x"), pres.gen("c")
    assert unit_inverse(one) == one
    assert unit_inverse(one + x) == one + x
    inv_c = unit_inverse(one + c)
    assert (one + c) * inv_c == one
    with pytest.raises(ValueError, match="unit"):
        unit_inverse(x)
    with pytest.raises(ValueError, match="unit"):
        unit_inverse(pres.zero())


def test_render():
    pres = wall_presentation(2, 2)
    assert pres.zero().render() == "0"
    assert pres.one().render() == "1"
    p = pres.one() + pres.gen("d") + pres.gen("x") * power(pres.gen("c"), 2)
    assert p.render() == "1 + d + x*c^2"


# -- Stiefel-Whitney classes ---------------------------------------------------


def test_total_sw_wall_degree_zero_is_one():
    w = total_sw_wall(WallParams(3, 2))
    assert w.component(0) == wall_presentation(3, 2).one()


def test_total_sw_wall_smallest_case():
    w = total_sw_wall(WallParams(1, 0))
    pres = wall_presentation(1, 0)
    assert w == pres.one() + pres.gen("x")


@pytest.mark.parametrize(
    "m,n", [(m, n) for m in range(1, 5) for n in range(9)] + [(10, 7), (10, 32)]
)
def test_total_sw_wall_matches_hand_expansion(m, n):
    assert total_sw_wall(WallParams(m, n)).monos == total_sw_by_hand(m, n)


@pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (2, 4)])
def test_fiber_restriction_of_top_even_class(m, n):
    # for n even the degree-2n component restricts to a^n != 0: w_2n has a d^n term
    w = total_sw_wall(WallParams(m, n))
    assert fibre_part(w.component(2 * n)) == {n}


def test_fiber_restriction_is_ring_hom():
    # x, c -> 0 is a ring map onto F_2[a] / (a^(n+1)), multiplied here by hand
    pres = wall_presentation(2, 2)
    rng = random.Random(19)
    basis = [mo for q in range(pres.top_degree + 1) for mo in pres.basis(q)]
    for _ in range(25):
        p = pres.element(rng.sample(basis, 5))
        q = pres.element(rng.sample(basis, 5))
        by_hand = Counter(a + b for a in fibre_part(p) for b in fibre_part(q) if a + b <= pres.n)
        assert fibre_part(p * q) == {j for j, count in by_hand.items() if count % 2}


def test_fiber_restriction_of_total_class_is_cpn_total_class():
    # w(CP^n) = (1 + a)^(n+1): a^j survives iff binom(n+1, j) is odd
    for m, n in [(1, 2), (3, 3), (2, 4), (10, 32)]:
        expected = {j for j in range(n + 1) if comb(n + 1, j) % 2}
        assert fibre_part(total_sw_wall(WallParams(m, n))) == expected


def test_total_sw_wall_closed_form_matches_product_chain():
    # n in 0..69 takes in n + 1 = 2^j (n = 0, 1, 3, ..., 63) and 2^j - 1 (n = 2, 6, ..., 62)
    for m in range(1, 17):
        for n in range(70):
            ring = wall_presentation(m, n)
            one, x, c, d = ring.one(), ring.gen("x"), ring.gen("c"), ring.gen("d")
            chain = (one + c + x) * power(one + c, m - 1) * power(one + c + d, n + 1)
            assert total_sw_wall(WallParams(m, n)) == chain, (m, n)


# -- the obstruction search ------------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1), (4, 3)])
def test_rule_out_k1_always_admissible(m, n):
    # the all-zero multiset works at k = 1 since w has no top-degree part
    result = VirtualSwSearch(WallParams(m, n)).rule_out(1)
    assert not result.ruled_out
    assert result.witnesses[0] == ((0, 0, 0), None)  # the key of {0}


def test_rule_out_2_2():
    p = WallParams(2, 2)
    assert VirtualSwSearch(p).rule_out(4).ruled_out
    result3 = VirtualSwSearch(p).rule_out(3)
    assert not result3.ruled_out

    # re-derive a passing key through the public ring operations, on a multiset with that key
    (s, k1, k3), _ = next(w for w in result3.witnesses if w[1] is None)
    pres = wall_presentation(2, 2)
    one, x, c = pres.one(), pres.gen("x"), pres.gen("c")
    product = power(one + x, k1) * power(one + c, s - k3) * power(one + x + c, k3)
    u = total_sw_wall(p) * unit_inverse(product)
    assert max(u.degrees()) <= p.dim - 3


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 4])
def test_rule_out_n_even_at_m_plus_2(m, n):
    p = WallParams(m, n)
    result = VirtualSwSearch(p).rule_out(m + 2)
    assert result.ruled_out
    allowed = result.max_allowed_degree
    # every recorded failure lies in a forbidden degree
    assert all(failure is not None and failure > allowed for _, failure in result.witnesses)

    # re-derive each failure through the public ring operations, on a multiset with its key
    pres = wall_presentation(m, n)
    one, x, c = pres.one(), pres.gen("x"), pres.gen("c")
    w_total = total_sw_wall(p)
    for (s, k1, k3), failure in result.witnesses:
        product = power(one + x, k1) * power(one + c, s - k3) * power(one + x + c, k3)
        u = w_total * unit_inverse(product)
        assert min(q for q in u.degrees() if q > allowed) == failure


def test_rule_out_range_errors():
    p = WallParams(2, 2)
    with pytest.raises(ValueError):
        VirtualSwSearch(p).rule_out(0)
    with pytest.raises(ValueError):
        VirtualSwSearch(p).rule_out(p.dim + 1)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (4, 5)])
def test_every_k_past_the_first_ruled_out_is_ruled_out(m, n):
    # the lemma behind the closed-form entries of `wallspan cohomology`
    p = WallParams(m, n)
    search = VirtualSwSearch(p)
    first = search.first_ruled_out()
    assert first is not None and first < p.dim
    assert [search.ruled_out(k) for k in range(1, p.dim + 1)] == [k >= first for k in range(1, p.dim + 1)]


def assert_witnesses_match_multisets(search, degrees_of, k_max):
    """The key witnesses of rule_out(k), k <= k_max, against every multiset of k
    classes: the same keys, each multiset failing where its key does, the same verdict."""
    dim = search.ring.top_degree
    for k, failures in failures_by_key(degrees_of, dim, k_max):
        result = search.rule_out(k)
        assert len(result.witnesses) == 4 * k, k  # each reachable key once
        assert {key: {failure} for key, failure in result.witnesses} == failures, k
        assert result.ruled_out == all(None not in f for f in failures.values()), k
        assert result.max_allowed_degree == dim - k


@pytest.mark.parametrize("m", range(1, 5))
def test_key_witnesses_match_ring_product_multisets(m):
    # each multiset's class built by ring products alone, at every k <= dim
    for n in range(9):
        p = WallParams(m, n)
        assert_witnesses_match_multisets(VirtualSwSearch(p), ring_product_degrees(p), p.dim)


@pytest.mark.parametrize("m", range(1, 9))
def test_rule_out_matches_triple_loop_at_every_k(m):
    for n in range(8):
        search = VirtualSwSearch(WallParams(m, n))
        assert_witnesses_match_multisets(search, closed_form_degrees(search), search.ring.top_degree)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 9) for n in range(8, 20)] + [(10, 32)])
def test_rule_out_matches_triple_loop_through_the_first_ruled_out_k(m, n):
    # every admissible k, the first ruled-out k and two more
    search = VirtualSwSearch(WallParams(m, n))
    assert search.upper_bound() == sw_upper_bound(WallParams(m, n))
    last = min(sw_upper_bound(WallParams(m, n)) + 3, search.ring.top_degree)
    assert_witnesses_match_multisets(search, closed_form_degrees(search), last)


def test_new_keys_list_exactly_the_reachable_keys():
    # the keys of steps t <= k are those of the multisets of at most k classes, each once
    for k in range(8):
        triples = product(range(k + 1), repeat=3)
        reachable = {(k2 + k3, k1 & 1, k3 & 1) for k1, k2, k3 in triples if k1 + k2 + k3 <= k}
        listed = [key for t in range(k + 1) for key in _new_keys(t)]
        assert len(listed) == len(set(listed)) and set(listed) == reachable, k


def test_rule_out_reads_every_residue_through_step_period_plus_one():
    # fake tops through the seam at 2^L = 8: one residue's classes have top
    # degree 0 and all others dim, so k is admissible from the first k whose
    # multisets reach that residue; (0, 1, 1) is reached last, at 2^L + 1
    p = WallParams(4, 5)
    triples = [t for t in product(range(12), repeat=3) if sum(t) < 12]
    for passing in product(range(8), (0, 1), (0, 1)):
        search = VirtualSwSearch(p)
        dim = search.ring.top_degree
        assert search._period == 8 and dim == 15
        search._step_tops = lambda s, passing=passing: (
            min(0 if (t % 8, p1, p3) == passing else dim for t, p1, p3 in _new_keys(u)) for u in count(s)
        )
        first = min(sum(t) for t in triples if ((t[1] + t[2]) % 8, t[0] & 1, t[2] & 1) == passing)
        assert first == {(0, 0, 1): 8, (0, 1, 1): 9}.get(passing, first)
        assert [search.ruled_out(k) for k in range(1, 12)] == [k < first for k in range(1, 12)], passing


@pytest.mark.parametrize("m,n", [(1, 0), (2, 2), (3, 5), (4, 5), (7, 3), (16, 2)])
def test_key_tops_match_the_per_key_classes(m, n):
    # the seam against each key's class built on its own, over three periods, read from
    # step 0 and from steps mid-way, as the running minimum resumes it
    search = VirtualSwSearch(WallParams(m, n))
    period = search._period
    tops = [min(class_top_degree(search, key) for key in _new_keys(s)) for s in range(3 * period)]
    for start in (0, 1, 2, period - 1, period, period + 1):
        assert list(islice(search._step_tops(start), 3 * period - start)) == tops[start:], start


def test_running_min_matches_the_per_key_classes():
    # the running minimum over three periods against the step-wise minimum of each
    # key's class built on its own
    for m in range(1, 17):
        for n in range(64):
            search = VirtualSwSearch(WallParams(m, n))
            steps = 3 * search._period
            tops = [min(class_top_degree(search, key) for key in _new_keys(s)) for s in range(steps)]
            assert list(islice(search._running_min(0), steps)) == list(accumulate(tops, min)), (m, n)


def test_period_lemma():
    # w U^(s + 2^L) = w U^s, with 2^L the least power of two >= m + 2; each
    # step times 1 + c gives the last power back, so the step is times U
    for m in range(1, 17):
        for n in range(13):
            p = WallParams(m, n)
            search = VirtualSwSearch(p)
            period, ring = search._period, search.ring
            assert m + 2 <= period < 2 * (m + 2)
            powers = unperiodic_powers(p, 2 * period)
            assert all(ring.times_one_plus_c(*powers[s + 1], [1]) == powers[s] for s in range(2 * period - 1))
            assert powers[period:] == powers[:period], (m, n)
            assert [search._power(s) for s in range(2 * period)] == powers, (m, n)


def test_powers_and_bound_at_the_period_edges():
    # m + 2 = 2^k and m + 1 = 2^k: the first listed power w U^r, r = min(dim + 1, 2^L - 1),
    # sits one or two residues below the period, or far below it at small n; every
    # residue, listed or built from binary digits, against the times-U chain
    for k in range(2, 9):
        for m in ((1 << k) - 2, (1 << k) - 1):
            for n in (0, 1, 2, 3, 7):
                p = WallParams(m, n)
                search = VirtualSwSearch(p)
                period = search._period
                powers = unperiodic_powers(p, period)
                assert [search._power(s) for s in range(period)] == powers, (m, n)
                assert sw_upper_bound(p) == min(p.dim, m - 1 + 2 ** (nu(n + 1) + 1)), (m, n)
                assert search.upper_bound() == min(p.dim, m - 1 + 2 ** (nu(n + 1) + 1)), (m, n)


@pytest.mark.parametrize("m,n", [(16, 255), (100, 7)])
def test_scan_multiplies_one_factor_per_power(monkeypatch, m, n):
    # w U^s = w U^(s+1) (1 + c): building the search and deciding every k multiplies
    # at most 2^L + L factors 1 + c^t past w(Q), where a times-U step takes L per power.
    # Each factor, in `times_one_plus_c` or in a loop, reads the wrap mask of `_c_step` once
    p = WallParams(m, n)
    w, factors = total_sw_wall(p), []
    c_step = WallRing._c_step

    class CountedMask(int):
        def __rand__(self, other):  # h & mask, as the subclass's reflected method comes first
            factors.append(1)
            return other & int(self)

    def counted(self, t):
        shift, keep, wrap = c_step(self, t)
        return shift, keep, CountedMask(wrap)

    monkeypatch.setattr(f2cohomology, "total_sw_wall", lambda params: w)
    monkeypatch.setattr(WallRing, "_c_step", counted)
    search = VirtualSwSearch(p)
    assert search.upper_bound() == min(p.dim, m - 1 + 2 ** (nu(n + 1) + 1))
    period = search._period
    assert 0 < len(factors) <= period + period.bit_length() - 1, len(factors)


def test_rule_out_matches_the_unperiodic_scan():
    # every k <= dim, and the witnesses of k = dim, against the running minimum
    # over every step s <= k on classes built with no period
    for m in range(1, 13):
        for n in range(64):
            p = WallParams(m, n)
            search = VirtualSwSearch(p)
            verdicts, witnesses = unperiodic_rule_out(p, p.dim)
            assert [search.ruled_out(k) for k in range(1, p.dim + 1)] == verdicts, (m, n)
            assert search.rule_out(p.dim).witnesses == witnesses, (m, n)


def test_scan_computes_one_period_of_powers():
    # deciding every k <= dim = 527 rules nothing out, from w U^s for s < 2^L = 32 only
    search = VirtualSwSearch(WallParams(16, 255))
    assert search.first_ruled_out() is None and len(search._powers) <= search._period == 32


def test_power_list_length_costs_time_not_the_answer():
    # `_power` builds every residue past the list, so a search whose list is cut to
    # w and w U decides every k, and the bound, as the full one does
    def cut(p):
        search = VirtualSwSearch(p)
        search._powers = search._powers[:2]
        return search

    for m in range(1, 9):
        for n in range(40):
            p = WallParams(m, n)
            full, short, ks = VirtualSwSearch(p), cut(p), range(1, p.dim + 1)
            assert [short.ruled_out(k) for k in ks] == [full.ruled_out(k) for k in ks], (m, n)
            assert cut(p).upper_bound() == VirtualSwSearch(p).upper_bound(), (m, n)


def test_sw_upper_bound_closed_form():
    # the witnesses' bound and the scan's are m - 1 + 2^(nu(n+1) + 1) over the whole grid;
    # the scan cross-checks certified_bound, whose key's top degree is that of the scan's own class
    for m in range(1, 13):
        for n in range(64):
            search = VirtualSwSearch(WallParams(m, n))
            assert sw_upper_bound(WallParams(m, n)) == m - 1 + 2 ** (nu(n + 1) + 1), (m, n)
            assert search.upper_bound() == m - 1 + 2 ** (nu(n + 1) + 1), (m, n)
            bound, key, top, big_j, certified = f2cohomology.certified_bound(search.w)
            assert certified and bound == search.upper_bound(), (m, n)
            assert top == class_top_degree(search, key) and big_j == (n + 1 - 2 ** nu(n + 1) or None), (m, n)


def test_fibre_coefficients_follow_lucas():
    # the "<=" half of the module docstring: x, c -> 0 sends every virtual class to
    # (1 + d)^(n+1), so the coefficient of the basis element d^j is C(n+1, j) mod 2;
    # the largest such odd j <= n is J = n + 1 - 2^nu(n+1), and bound <= dim - 2J.
    # Every reachable key of one period: those of steps 0 .. 2^L + 1
    for m in range(1, 9):
        for n in range(24):
            p = WallParams(m, n)
            search = VirtualSwSearch(p)
            lucas = {j for j in range(n + 1) if comb(n + 1, j) % 2}
            for key in (key for t in range(search._period + 2) for key in _new_keys(t)):
                monos = GradedF2Poly(search.ring, *search._packed_class(key)).monos
                assert {j for e, i, j in monos if e == i == 0} == lucas, (m, n, key)
            big_j = n + 1 - 2 ** nu(n + 1)
            assert max(lucas) == big_j and sw_upper_bound(p) <= p.dim - 2 * big_j, (m, n)
            assert search.upper_bound() <= p.dim - 2 * big_j, (m, n)


def test_witness_key_proves_the_bound():
    # the ">=" half of the module docstring: k1 = 0, k2 = m - 1 + 2^nu, k3 = 1 (key
    # (m + 2^nu, 0, 1)) gives (1 + c + d)^(n+1) U^(2^nu) = sum_{j <= J} C(n+1, j) d^j (1 + c)^(J-j),
    # expanded here monomial by monomial, so k = B = m - 1 + 2^(nu+1) = dim - 2J is admissible
    for m in range(1, 9):
        for n in range(40):
            p, v = WallParams(m, n), nu(n + 1)
            search = VirtualSwSearch(p)
            big_j, bound = n + 1 - 2**v, m - 1 + 2 ** (v + 1)
            expected = search.ring.element(
                (0, i, j)
                for j in range(big_j + 1)
                if comb(n + 1, j) % 2
                for i in range(big_j - j + 1)
                if comb(big_j - j, i) % 2
            )
            key_class = search.virtual_class((0, m - 1 + 2**v, 1))
            assert key_class == expected and max(key_class.degrees()) == 2 * big_j, (m, n)
            assert p.dim - bound == 2 * big_j and search.upper_bound() == min(p.dim, bound), (m, n)
            assert not search.ruled_out(bound), (m, n)
            assert bound == p.dim or search.ruled_out(bound + 1), (m, n)


def test_first_ruled_out_matches_the_per_k_search():
    # the one subtraction past step 2^L + 1 against ruled_out at every k, each on its own
    # search; the 2-adic ladder n = 2^k - 1 puts dim far past the period
    grid = [(m, n) for m in range(1, 13) for n in range(128)]
    for m, n in grid + [(m, 2**k - 1) for m in (1, 16) for k in range(17)]:
        p = WallParams(m, n)
        per_k = VirtualSwSearch(p)
        expected = next((k for k in range(1, p.dim + 1) if per_k.ruled_out(k)), None)
        assert VirtualSwSearch(p).first_ruled_out() == expected, (m, n)


def test_first_ruled_out_reads_the_minimum_after_step_period_plus_one():
    # fake tops at (4, 5), dim = 15, 2^L = 8: every class has top degree 5 but those of
    # residue (0, 1, 1), first reached at step 2^L + 1 = 9, have 2; so no k <= 9 is
    # ruled out, and the final minimum 2 gives the first ruled-out k = 15 - 2 + 1
    search = VirtualSwSearch(WallParams(4, 5))
    assert search._period == 8 and search.ring.top_degree == 15
    search._step_tops = lambda s: (
        min(2 if (t % 8, p1, p3) == (0, 1, 1) else 5 for t, p1, p3 in _new_keys(u)) for u in count(s)
    )
    assert search.first_ruled_out() == 14
    assert [search.ruled_out(k) for k in range(1, 16)] == [k >= 14 for k in range(1, 16)]


def test_first_ruled_out_reads_one_period_of_steps(monkeypatch):
    # at (1, 2^16 - 1), dim = 2^17 and nothing is ruled out: the decision reads the
    # steps 0 .. 2^L + 1 once each and asks ruled_out about no k
    calls = Counter()
    step_tops, ruled_out = VirtualSwSearch._step_tops, VirtualSwSearch.ruled_out

    def counted_steps(self, s):
        for top in step_tops(self, s):
            calls["_step_tops"] += 1
            yield top

    def counted_ruled_out(self, k):
        calls["ruled_out"] += 1
        return ruled_out(self, k)

    monkeypatch.setattr(VirtualSwSearch, "_step_tops", counted_steps)
    monkeypatch.setattr(VirtualSwSearch, "ruled_out", counted_ruled_out)
    search = VirtualSwSearch(WallParams(1, 2**16 - 1))
    assert search.first_ruled_out() is None
    assert 0 < calls["_step_tops"] <= search._period + 2 and calls["ruled_out"] == 0


def test_sw_upper_bound_values():
    assert sw_upper_bound(WallParams(2, 2)) == 3
    assert sw_upper_bound(WallParams(4, 2)) == 5  # m + 1
    assert sw_upper_bound(WallParams(2, 4)) == 3  # m + 1
    assert sw_upper_bound(WallParams(1, 1)) == 4  # = dim, nothing ruled out


# -- the closed-form virtual class and the scan ------------------------------------


@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (4, 5), (10, 7), (10, 32), (15, 3), (16, 3)])
def test_virtual_class_closed_form_matches_products(m, n):
    # w U^s (1 + x (k1 + k3 U)) against w * unit_inverse(product), all through ring
    # products; m = 15, 16 sit at and just past a power of two of the shift steps
    search = VirtualSwSearch(WallParams(m, n))
    pres = wall_presentation(m, n)
    one, x, c = pres.one(), pres.gen("x"), pres.gen("c")
    for k1, k2, k3 in product(range(13), repeat=3):
        if k1 + k2 + k3 > 12:
            continue
        factors = power(one + x, k1) * power(one + c, k2) * power(one + x + c, k3)
        assert search.virtual_class((k1, k2, k3)) == search.w * unit_inverse(factors), (k1, k2, k3)


def test_rings_compare_by_parameters():
    a, b = wall_presentation(3, 2), wall_presentation(3, 2)
    assert a == b and hash(a) == hash(b)
    assert a.gen("c") * b.gen("x") == a.element([(1, 1, 0)])
    assert a != wall_presentation(3, 3)


def test_obstruction_scan_one_path():
    p = WallParams(2, 2)
    search = VirtualSwSearch(p)
    # k = 4 is the first ruled-out k, and every larger k is ruled out too
    assert [search.ruled_out(k) for k in range(1, p.dim + 1)] == [False, False, False, True, True, True, True]
    assert search.first_ruled_out() - 1 == sw_upper_bound(p) == 3
    assert search.upper_bound() == 3
    assert search.w == total_sw_wall(p)
