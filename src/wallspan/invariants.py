"""Closed-form integer invariants of the Wall manifolds Q(m, n).

The Wall manifold Q(m, n) is the mapping torus of the involution on the
Dold manifold P(m, n) = (S^m x CP^n) / (antipode x conjugation) induced by
negating the last sphere coordinate; it has dimension m + 2n + 1.  Its
projective span (maximal number of linearly independent tangent line
fields) is 2*nu(n+1) + m + 1, where nu is the 2-adic valuation.  This
module holds that closed form together with the related bounds it is
checked against: the stable span of CP^n and the fibration upper bound.

Everything here is exact integer arithmetic; all functions are pure.
"""

from __future__ import annotations


def nu(k: int) -> int:
    """2-adic valuation: the largest e such that 2**e divides k.

    Defined for k >= 1 only; nu(0) would be infinite.
    """
    if k < 1:
        raise ValueError(f"2-adic valuation needs k >= 1, got {k}")
    return (k & -k).bit_length() - 1


class Record:
    """Base of the immutable records: no attribute can be assigned or deleted, and records equal
    (only records of the same type), hash and print by the fields named in `_fields`.
    Each `__init__` stores its fields inline, by `object.__setattr__` when slotted and
    `vars(self).update` when not: a shared store helper slowed the obstruction scan."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self._fields, self._key()))})"


class WallParams(Record):
    """Parameters of the Wall manifold Q(m, n): m >= 1, n >= 0.  Compares by (m, n)."""

    __slots__ = _fields = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        if m < 1:
            raise ValueError(f"sphere dimension m must be >= 1, got {m}")
        if n < 0:
            raise ValueError(f"complex projective dimension n must be >= 0, got {n}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def nu(self) -> int:
        """nu(n + 1), the valuation entering every bound for Q(m, n)."""
        return nu(self.n + 1)

    @property
    def delta(self) -> int:
        """Number of independent quasi-invariant fields constructed: 2*nu + m + 1."""
        return 2 * self.nu + self.m + 1

    @property
    def dim(self) -> int:
        return self.m + 2 * self.n + 1


def pspan_wall(p: WallParams) -> int:
    """Projective span of Q(m, n): 2*nu(n+1) + m + 1."""
    return 2 * nu(p.n + 1) + p.m + 1


def sspan_cpn(n: int) -> int:
    """Stable span of complex projective space CP^n: 2*nu(n+1)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return 2 * nu(n + 1)


def upper_bound_fibration(p: WallParams) -> int:
    """Upper bound for pspan(Q(m, n)) via the bundle CP^n -> Q(m, n) -> Q(m, 0).

    The bound is sspan_cpn(n) + dim Q(m, 0) = 2*nu(n+1) + m + 1, which
    coincides with the closed form; `pspan_wall` must always agree.
    """
    return sspan_cpn(p.n) + p.m + 1
