"""Slow reference algebra for the Wall ring, used only by the tests.

`power` and `unit_inverse` go through ring products alone, and
`failures_by_key` is the triple loop over every multiset (k1, k2, k3) that
the key-level witnesses of `VirtualSwSearch.rule_out` must agree with, on
classes built by ring products (`ring_product_degrees`) or by the closed form
(`closed_form_degrees`).  `unperiodic_rule_out` is the key scan without the
period lemma: the running minimum over every step s <= k, on classes built
from w U^s for every s (`unperiodic_powers`), and `class_top_degree` reads one
key's class at a time, the reference for `VirtualSwSearch._step_tops`.
"""

from wallspan.f2cohomology import GradedF2Poly, VirtualSwSearch, _new_keys, total_sw_wall, wall_presentation
from wallspan.invariants import WallParams


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


def failures_by_key(degrees_of, dim: int, k_max: int):
    """Yield (k, {key: failure degrees}) for k = 1..k_max, over every multiset of k
    degree-1 classes: k0 zeros and k1, k2, k3 copies of x, c and x + c, whose key
    is (k2 + k3, k1 mod 2, k3 mod 2) and whose virtual class has the degrees
    degrees_of((k1, k2, k3)).  A multiset's failure degree is the lowest degree
    of its class above dim - k, or None if there is none (the multiset passes).

    It depends on k and the class's degrees alone, so each key keeps the
    distinct degree tuples of its multisets; the multisets of k are those of
    k - 1 with one more zero, and those with k0 = 0."""
    by_key: dict = {}
    for k in range(k_max + 1):
        for k1 in range(k + 1):
            for k2 in range(k - k1 + 1):
                k3 = k - k1 - k2
                by_key.setdefault((k2 + k3, k1 & 1, k3 & 1), set()).add(tuple(degrees_of((k1, k2, k3))))
        if k:
            yield k, {
                key: {next((q for q in degrees if q > dim - k), None) for degrees in classes}
                for key, classes in by_key.items()
            }


def ring_product_degrees(p: WallParams):
    """degrees_of for `failures_by_key` by ring products alone: the degrees of
    w(Q) / ((1 + x)^k1 (1 + c)^k2 (1 + x + c)^k3), with w(Q) the product of its
    factors and each class one product away from a smaller multiset's."""
    ring = wall_presentation(p.m, p.n)
    one, x, c, d = ring.one(), ring.gen("x"), ring.gen("c"), ring.gen("d")
    inverses = [unit_inverse(one + x), unit_inverse(one + c), unit_inverse(one + x + c)]
    classes = {(0, 0, 0): (one + c + x) * power(one + c, p.m - 1) * power(one + c + d, p.n + 1)}

    def class_of(triple):
        if triple not in classes:
            i = next(i for i, t in enumerate(triple) if t)
            smaller = triple[:i] + (triple[i] - 1,) + triple[i + 1 :]
            classes[triple] = class_of(smaller) * inverses[i]
        return classes[triple]

    return lambda triple: class_of(triple).degrees()


def closed_form_degrees(search: VirtualSwSearch):
    """degrees_of for `failures_by_key` from `VirtualSwSearch.virtual_class`."""
    return lambda triple: search.virtual_class(triple).degrees()


def class_top_degree(search: VirtualSwSearch, key) -> int:
    """The top degree of one key's class, built on its own by `_packed_class`."""
    h0, h1 = search._packed_class(key)
    return ((h0 | h1).bit_length() - 1) // search.ring.block


def unperiodic_powers(p: WallParams, count: int) -> list:
    """w U^s for s < count, each one times-U step from the last and none read
    modulo a period, with U = prod_{l < L} (1 + c^(2^l)), 2^L > m + 1."""
    w = total_sw_wall(p)
    u_steps = [1 << l for l in range((p.m + 1).bit_length())]
    powers = [(w.h0, w.h1)]
    while len(powers) < count:
        powers.append(w.ring.times_one_plus_c(*powers[-1], u_steps))
    return powers


def unperiodic_rule_out(p: WallParams, k_max: int):
    """(ruled_out for k = 1..k_max, the witnesses of k_max): each key's class
    w U^s (1 + x (p1 + p3 U)) from `unperiodic_powers`, the running minimum of
    their top degrees over `_new_keys(s)` for every s <= k, and each witness's
    lowest degree above dim - k_max found by testing degree after degree."""
    powers, b, dim = unperiodic_powers(p, k_max + 2), p.m + 1, p.dim

    def class_bits(key):
        s, p1, p3 = key
        h0, h1 = powers[s]
        return h0 | h1 ^ (p1 * h0 ^ p3 * powers[s + 1][0]) << b

    keys = [key for t in range(k_max + 1) for key in _new_keys(t)]
    bits = {key: class_bits(key) for key in keys}
    least, verdicts = dim + 1, []
    for k in range(k_max + 1):
        least = min([least] + [(bits[key].bit_length() - 1) // b for key in _new_keys(k)])
        verdicts.append(least > dim - k)
    degree_bits = [((1 << b) - 1) << q * b for q in range(dim + 1)]
    forbidden = range(dim - k_max + 1, dim + 1)
    witnesses = tuple((key, next((q for q in forbidden if bits[key] & degree_bits[q]), None)) for key in keys)
    return verdicts[1:], witnesses
