"""The Wall ring against an independent oracle: sympy Groebner reduction over F_2.

With the generators ordered c > x > d under grevlex, the ideal
(x^2, c^(m+1) + c^m x, d^(n+1)) has leading terms x^2, c^(m+1), d^(n+1), so
sympy's normal forms are spanned by the same basis x^e c^i d^j (e <= 1,
i <= m, j <= n) that the ring uses.  Products of random elements must reduce
to the same monomials both ways.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallspan.f2cohomology import wall_presentation

sympy = pytest.importorskip("sympy")

c, x, d = sympy.symbols("c x d")
CASES = [(1, 0), (1, 3), (2, 2), (3, 5), (10, 4), (10, 32)]


@lru_cache(maxsize=None)
def groebner_basis(m, n):
    ideal = [x**2, c ** (m + 1) + c**m * x, d ** (n + 1)]
    return sympy.groebner(ideal, c, x, d, modulus=2, order="grevlex")


def as_sympy(monos):
    return sympy.Add(*[x**e * c**i * d**j for e, i, j in monos])


def sympy_normal_form(expr, m, n):
    """The reduced remainder of expr, as a set of (e, i, j) exponent triples."""
    basis = list(groebner_basis(m, n))
    _, remainder = sympy.reduced(expr, basis, c, x, d, modulus=2, order="grevlex")
    poly = sympy.Poly(remainder, c, x, d, modulus=2)
    return {(e, i, j) for (i, e, j), coeff in poly.terms() if coeff % 2}


def test_leading_terms_give_the_ring_basis():
    for m, n in CASES:
        assert set(groebner_basis(m, n).exprs) == {x**2, c ** (m + 1) + c**m * x, d ** (n + 1)}


@st.composite
def products(draw):
    m, n = draw(st.sampled_from(CASES))
    basis = [mo for q in range(m + 2 * n + 2) for mo in wall_presentation(m, n).basis(q)]
    factor = st.lists(st.sampled_from(basis), max_size=6, unique=True)
    return m, n, draw(factor), draw(factor)


@settings(max_examples=60, deadline=None)
@given(products())
def test_products_match_sympy_reduction(case):
    m, n, left, right = case
    ring = wall_presentation(m, n)
    ours = (ring.element(left) * ring.element(right)).monos
    assert ours == sympy_normal_form(sympy.expand(as_sympy(left) * as_sympy(right)), m, n)


@st.composite
def free_monomials(draw):
    m, n = draw(st.sampled_from(CASES))
    mono = st.tuples(st.integers(0, 2), st.integers(0, m + 3), st.integers(0, n + 2))
    return m, n, draw(st.lists(mono, max_size=6))


@settings(max_examples=60, deadline=None)
@given(free_monomials())
def test_free_monomials_match_sympy_reduction(case):
    m, n, monos = case
    expected = sympy_normal_form(sympy.expand(as_sympy(monos)), m, n)
    assert wall_presentation(m, n).element(monos).monos == expected
