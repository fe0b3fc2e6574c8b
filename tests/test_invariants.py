"""Closed-form invariants: frozen values, independent oracles, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallspan.invariants import (
    WallParams,
    nu,
    pspan_wall,
    sspan_cpn,
    upper_bound_fibration,
)


def nu_by_division(k: int) -> int:
    # independent oracle: repeated halving
    e = 0
    while k % 2 == 0:
        k //= 2
        e += 1
    return e


def test_nu_frozen_values():
    assert nu(8) == 3
    assert nu(1) == 0
    assert nu(1024) == 10


def test_nu_rejects_zero():
    with pytest.raises(ValueError):
        nu(0)
    with pytest.raises(ValueError):
        nu(-4)


@given(st.integers(min_value=1, max_value=10**9))
def test_nu_matches_division_oracle(k):
    assert nu(k) == nu_by_division(k)


@given(st.integers(min_value=1, max_value=10**8))
def test_nu_recursion(k):
    assert nu(2 * k) == nu(k) + 1
    assert nu(2 * k - 1) == 0


def test_pspan_wall_examples():
    assert pspan_wall(WallParams(2, 2)) == 3
    assert pspan_wall(WallParams(1, 0)) == 2
    # nu(3+1) = 2 by the division oracle, so 2*2 + 1 + 1 = 6
    assert nu_by_division(4) == 2
    assert pspan_wall(WallParams(1, 3)) == 6


def test_sspan_cpn_examples():
    assert sspan_cpn(7) == 6
    assert sspan_cpn(0) == 0
    assert sspan_cpn(31) == 10
    with pytest.raises(ValueError):
        sspan_cpn(-1)


def test_upper_bound_fibration_examples():
    assert upper_bound_fibration(WallParams(1, 1)) == 2 * nu_by_division(2) + 1 + 1 == 4
    assert upper_bound_fibration(WallParams(3, 0)) == 4
    assert upper_bound_fibration(WallParams(2, 7)) == 9


def test_wall_params_validation():
    with pytest.raises(ValueError, match="sphere dimension m must be >= 1, got 0"):
        WallParams(0, 1)
    with pytest.raises(ValueError, match="complex projective dimension n must be >= 0, got -1"):
        WallParams(1, -1)
    p = WallParams(3, 5)
    assert (p.nu, p.delta, p.dim) == (1, 6, 14)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=256))
def test_bound_consistency(m, n):
    p = WallParams(m, n)
    pspan = pspan_wall(p)
    assert pspan == upper_bound_fibration(p)
    gap = pspan - (m + 1)
    assert gap == 2 * nu(n + 1)
    assert gap >= 0 and gap % 2 == 0
    assert pspan <= p.dim
