"""The Wall ring: normal forms, ring axioms, SW classes, obstruction."""

import random
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallspan.f2cohomology import (
    GradedF2Poly,
    VirtualSwSearch,
    render_monomial,
    sw_upper_bound,
    total_sw_wall,
    wall_presentation,
)
from wallspan.invariants import WallParams

from f2_reference import power, rule_out_reference, unit_inverse


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
    with pytest.raises(ValueError):
        wall_presentation(0, 2)


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
    assert GradedF2Poly(_PRES, p.coeffs.copy()) == p


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


@pytest.mark.parametrize("m,n", [(1, 0), (2, 1), (2, 2), (3, 2), (1, 3), (4, 4)])
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
    assert result.witnesses[-1].counts == (1, 0, 0, 0)
    assert result.witnesses[-1].failure_degree is None


def test_rule_out_2_2():
    p = WallParams(2, 2)
    assert VirtualSwSearch(p).rule_out(4).ruled_out
    result3 = VirtualSwSearch(p).rule_out(3)
    assert not result3.ruled_out

    # re-derive the recorded witness through the public ring operations
    admissible = result3.witnesses[-1]
    assert admissible.failure_degree is None
    pres = wall_presentation(2, 2)
    one, x, c = pres.one(), pres.gen("x"), pres.gen("c")
    k0, k1, k2, k3 = admissible.counts
    product = power(one + x, k1) * power(one + c, k2) * power(one + x + c, k3)
    u = total_sw_wall(p) * unit_inverse(product)
    assert max(u.degrees()) <= p.dim - 3


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 4])
def test_rule_out_n_even_at_m_plus_2(m, n):
    p = WallParams(m, n)
    result = VirtualSwSearch(p).rule_out(m + 2)
    assert result.ruled_out
    assert all(w.failure_degree is not None for w in result.witnesses)
    # every recorded failure lies in a forbidden degree
    assert all(w.failure_degree > result.max_allowed_degree for w in result.witnesses)

    # re-derive each failure through the public ring operations
    pres = wall_presentation(m, n)
    one, x, c = pres.one(), pres.gen("x"), pres.gen("c")
    w_total = total_sw_wall(p)
    for witness in result.witnesses:
        _, k1, k2, k3 = witness.counts
        product = power(one + x, k1) * power(one + c, k2) * power(one + x + c, k3)
        u = w_total * unit_inverse(product)
        assert not u.component(witness.failure_degree).is_zero()


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
    *_, first = search.scan()
    assert first.ruled_out and first.k < p.dim
    for k in range(first.k + 1, p.dim + 1):
        result = search.rule_out(k)
        assert result.ruled_out
        assert len(result.witnesses) == (k + 1) * (k + 2) * (k + 3) // 6


def assert_rule_out_matches_reference(search, k):
    result = search.rule_out(k)
    ruled_out, allowed, witnesses = rule_out_reference(search, k)
    assert (result.ruled_out, result.max_allowed_degree) == (ruled_out, allowed), k
    assert result.witnesses == witnesses, k


@pytest.mark.parametrize("m", range(1, 9))
def test_rule_out_matches_triple_loop_at_every_k(m):
    for n in range(8):
        search = VirtualSwSearch(WallParams(m, n))
        for k in range(1, search.ring.top_degree + 1):
            assert_rule_out_matches_reference(search, k)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 9) for n in range(8, 20)] + [(10, 32)])
def test_rule_out_matches_triple_loop_through_the_first_ruled_out_k(m, n):
    # every admissible k, the first ruled-out k and two more: each later k lists
    # all (k+1)(k+2)(k+3)/6 multisets, too many to compare here beyond n < 8
    search = VirtualSwSearch(WallParams(m, n))
    last = min(sw_upper_bound(WallParams(m, n)) + 3, search.ring.top_degree)
    for k in range(1, last + 1):
        assert_rule_out_matches_reference(search, k)


def test_rule_out_consults_exactly_the_reachable_keys():
    # fake classes that all reach degree dim except one key's: k must be
    # admissible iff some multiset of k classes has that key
    search = VirtualSwSearch(WallParams(4, 5))
    dim = search.ring.top_degree
    for k in range(1, 7):
        triples = product(range(k + 1), repeat=3)
        reachable = {(k2 + k3, k1 & 1, k3 & 1) for k1, k2, k3 in triples if k1 + k2 + k3 <= k}
        for passing in product(range(k + 2), (0, 1), (0, 1)):
            search.class_degrees = lambda key, passing=passing: (0,) if key == passing else (0, dim)
            assert search.rule_out(k).ruled_out == (passing not in reachable), (k, passing)


def test_scan_builds_no_witnesses():
    # the witnesses are a cached property, listed on first access only
    results = list(VirtualSwSearch(WallParams(4, 6)).scan())
    assert [r.k for r in results] == [1, 2, 3, 4, 5, 6] and results[-1].ruled_out
    assert all("witnesses" not in vars(r) for r in results)
    assert len(results[-1].witnesses) == 7 * 8 * 9 // 6
    assert "witnesses" in vars(results[-1])


def test_sw_upper_bound_values():
    assert sw_upper_bound(WallParams(2, 2)) == 3
    assert sw_upper_bound(WallParams(4, 2)) == 5  # m + 1
    assert sw_upper_bound(WallParams(2, 4)) == 3  # m + 1
    assert sw_upper_bound(WallParams(1, 1)) == 4  # = dim, nothing ruled out


# -- the closed-form virtual class and the scan ------------------------------------


@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (4, 5), (10, 7), (10, 32)])
def test_virtual_class_closed_form_matches_products(m, n):
    # w U^s (1 + x (k1 + k3 U)) against w * unit_inverse(product), all through ring products
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
    results = list(search.scan())
    # the scan stops at the first ruled-out k (every larger k is ruled out too)
    assert [r.k for r in results] == [1, 2, 3, 4]
    assert [r.ruled_out for r in results] == [False, False, False, True]
    assert results[-1].bound == sw_upper_bound(p) == 3
    assert search.w == total_sw_wall(p)
