"""The tests' own oracle, ``tests/_oracle.py``: its enclosures hold the
values they claim, and a bound they cannot decide fails."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _oracle import Interval, alternating_series, atan, pi, sin, sphere_volume


def _within_one_ulp(enclosure, x: float) -> bool:
    """Whether the double x is within one unit in its last place of every
    point of the enclosure."""
    return enclosure.close_to(x, abs_tol=math.ulp(x))


class TestPi:
    def test_rounds_to_math_pi_and_is_narrow(self):
        # An enclosure this narrow cannot hold a double other than pi
        # itself, so "holds math.pi" means that math.pi is the double
        # nearest to every point of it.
        enclosure = pi()
        assert enclosure.close_to(math.pi, abs_tol=math.ulp(math.pi) / 2)
        assert enclosure.width() < Fraction(1, 2**800)


class TestAtan:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_agrees_with_math_atan(self, x):
        assert _within_one_ulp(atan(x), math.atan(x))

    def test_at_one_overlaps_a_quarter_pi(self):
        # Halving and the series against Machin's formula.
        quarter = atan(1)
        assert quarter.overlaps(pi() / 4)
        assert quarter.width() < Fraction(1, 2**800)


class TestSeries:
    @pytest.mark.parametrize("x", [0.5, 3.0, 140.0, -7.25])
    def test_sine_agrees_with_math_sin(self, x):
        assert _within_one_ulp(sin(x), math.sin(x))

    def test_geometric_series_is_enclosed(self):
        # 1 - 1/3 + 1/9 - ... = 3/4
        total = alternating_series(1, lambda j: (1, 3))
        assert total.lo <= Fraction(3, 4) <= total.hi
        assert total.width() < Fraction(1, 2**800)

    def test_sphere_volumes_agree_with_the_closed_forms(self):
        for m, value in [(1, 2 * math.pi), (2, 4 * math.pi), (3, 2 * math.pi**2),
                         (4, 8 * math.pi**2 / 3), (5, math.pi**3)]:
            assert sphere_volume(m).close_to(value, rel_tol=1e-15)


class TestUndecidedBoundsFail:
    def test_too_wide_for_the_relative_bound(self):
        # 1.0 is the midpoint, but 1.1 is 10% away from it.
        assert not Interval(0.9, 1.1).close_to(1.0, rel_tol=0.05)

    def test_holding_zero_decides_no_relative_bound(self):
        assert not Interval(-1e-30, 1e-30).close_to(0.0, rel_tol=0.5)

    def test_too_wide_for_the_absolute_bound(self):
        wide = sin(1) + Interval(-1e-12, 1e-12)
        assert not wide.close_to(math.sin(1), abs_tol=1e-13)
        assert wide.close_to(math.sin(1), abs_tol=1e-11)
