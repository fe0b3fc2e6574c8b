"""Slow reference algebra for the Wall ring, used only by the tests.

`power` and `unit_inverse` go through ring products alone, and
`rule_out_reference` is the triple loop over every multiset (k1, k2, k3) that
the key-level `VirtualSwSearch.rule_out` must agree with.
"""

from wallspan.f2cohomology import GradedF2Poly, MultisetWitness, VirtualSwSearch


def power(p: GradedF2Poly, e: int) -> GradedF2Poly:
    """p^e by repeated squaring."""
    result, base = p.ring.one(), p
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def unit_inverse(p: GradedF2Poly) -> GradedF2Poly:
    """Inverse of a unit (degree-0 component 1) by the geometric series in its
    nilpotent tail."""
    one = p.ring.one()
    if p.component(0) != one:
        raise ValueError("not a unit: the degree-0 component must be 1")
    tail = p + one
    inverse = term = one
    for _ in range(p.ring.top_degree):
        term = term * tail
        if term.is_zero():
            break
        inverse = inverse + term
    return inverse


def rule_out_reference(search: VirtualSwSearch, k: int):
    """(ruled_out, max_allowed_degree, witnesses) from a scan of every multiset
    of k classes in (k1, k2, k3) order, stopping at the first passing one.

    Within the call, failure degrees are memoised on (k2 + k3, k1 mod 2,
    k3 mod 2), which determines the class by the closed form (tested on its
    own against ring products)."""
    allowed = search.ring.top_degree - k
    failures = {}
    witnesses = []
    for k1 in range(k + 1):
        for k2 in range(k - k1 + 1):
            for k3 in range(k - k1 - k2 + 1):
                key = (k2 + k3, k1 & 1, k3 & 1)
                if key not in failures:
                    degrees = search.virtual_class((k1, k2, k3)).degrees()
                    failures[key] = next((q for q in degrees if q > allowed), None)
                witnesses.append(MultisetWitness((k - k1 - k2 - k3, k1, k2, k3), failures[key]))
                if failures[key] is None:
                    return False, allowed, tuple(witnesses)
    return True, allowed, tuple(witnesses)
