"""Exact rational building blocks: rising products, half-integer Gamma,
symbolic constants, sphere volumes."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spherehess.exact import (
    ExactConst,
    gamma_half_integer,
    rising,
    sphere_volume,
    sphere_volume_exact,
)

import _oracle


class TestRising:
    def test_empty_product_is_one(self):
        assert rising(Fraction(7), 0) == 1

    @given(st.integers(-6, 8), st.integers(0, 7))
    def test_matches_explicit_product(self, start, length):
        expect = Fraction(1)
        for i in range(length):
            expect *= start + i
        assert rising(Fraction(start), length) == expect

    @given(st.one_of(st.integers(-20, 20),
                     st.builds(Fraction, st.integers(-40, 40), st.integers(2, 9))
                     .filter(lambda x: x.denominator > 1)),
           st.integers(0, 12))
    def test_integer_kernel_matches_fraction_loop(self, start, length):
        # one integer product over q**length, for int and non-integer starts
        expect = Fraction(1)
        for i in range(length):
            expect *= Fraction(start) + i
        got = rising(start, length)
        assert isinstance(got, Fraction)
        assert got == expect

    def test_frozen_values(self):
        assert rising(Fraction(2), 4) == 2 * 3 * 4 * 5
        assert rising(Fraction(-3), 3) == -6
        assert rising(Fraction(1, 2), 2) == Fraction(3, 4)


class TestGammaHalfInteger:
    @pytest.mark.parametrize("twice", range(1, 22))
    def test_against_float_gamma(self, twice):
        coeff, has_sqrt_pi = gamma_half_integer(twice)
        value = float(coeff) * (math.sqrt(math.pi) if has_sqrt_pi else 1.0)
        assert value == pytest.approx(math.gamma(twice / 2), rel=1e-14, abs=0)

    def test_parity_of_sqrt_pi_flag(self):
        for twice in range(1, 22):
            _, has_sqrt_pi = gamma_half_integer(twice)
            assert has_sqrt_pi == (twice % 2 == 1)

    def test_frozen(self):
        assert gamma_half_integer(1) == (Fraction(1), True)  # Gamma(1/2)
        assert gamma_half_integer(3) == (Fraction(1, 2), True)
        assert gamma_half_integer(8) == (Fraction(6), False)  # Gamma(4) = 3!


class TestExactConst:
    def test_float_value(self):
        c = ExactConst(Fraction(3, 4), pi_exp=2, two_exp=Fraction(-1))
        assert float(c) == pytest.approx(0.75 * math.pi**2 / 2, rel=1e-15, abs=0)

    def test_multiplication_stays_exact(self):
        a = ExactConst(Fraction(1, 3), 1, Fraction(1, 2))
        b = ExactConst(Fraction(6), 1, Fraction(1, 2))
        prod = a * b
        assert prod.coeff == 2 and prod.pi_exp == 2 and prod.two_exp == 1

    def test_half_powers_of_two_combine(self):
        root2 = ExactConst(Fraction(1), two_exp=Fraction(1, 2))
        assert root2 * root2 == ExactConst(Fraction(2))
        assert hash(root2 * root2) == hash(ExactConst(Fraction(2)))
        assert ExactConst(Fraction(1), two_exp=Fraction(3, 2)) == 2 * root2
        assert root2 != ExactConst(Fraction(1))

    def test_every_zero_is_equal(self):
        zeros = [ExactConst(Fraction(0)), ExactConst(Fraction(0), 3),
                 ExactConst(Fraction(0), -2, Fraction(5, 2))]
        for a in zeros:
            for b in zeros:
                assert a == b and hash(a) == hash(b)

    def test_negation_and_scalar_arithmetic(self):
        c = ExactConst(Fraction(3, 4), 1, Fraction(1, 2))
        assert -c == ExactConst(Fraction(-3, 4), 1, Fraction(1, 2))
        assert c * 2 == 2 * c == ExactConst(Fraction(3, 2), 1, Fraction(1, 2))
        assert c * Fraction(1, 3) == ExactConst(Fraction(1, 4), 1, Fraction(1, 2))
        assert c / 3 == ExactConst(Fraction(1, 4), 1, Fraction(1, 2))
        assert c / Fraction(3, 2) == ExactConst(Fraction(1, 2), 1, Fraction(1, 2))
        assert c != Fraction(3, 4)

    def test_repr(self):
        assert repr(ExactConst(Fraction(3, 4), 2, Fraction(-1, 2))) == "3/4 * 2^(-1/2) * pi^2"
        assert repr(ExactConst(Fraction(5))) == "5"

    def test_two_exp_must_be_a_half_integer(self):
        with pytest.raises(ValueError, match="half-integer"):
            ExactConst(Fraction(1), two_exp=Fraction(1, 4))


class TestSphereVolume:
    @pytest.mark.parametrize(
        "m,expect",
        [
            (1, 2 * math.pi),
            (2, 4 * math.pi),
            (3, 2 * math.pi**2),
            (4, 8 * math.pi**2 / 3),
            (5, math.pi**3),
        ],
    )
    def test_known_volumes(self, m, expect):
        assert sphere_volume(m) == pytest.approx(expect, rel=1e-15, abs=0)

    @pytest.mark.parametrize("m", range(1, 12))
    def test_exact_matches_gamma_oracle(self, m):
        assert _oracle.sphere_volume(m).close_to(float(sphere_volume_exact(m)), rel_tol=1e-14)

    @pytest.mark.parametrize("m", [342, 343, 350, 357, 420])
    def test_large_spheres_keep_their_precision(self, m):
        # From m = 343 on the rational coefficient alone is below the
        # normal float range, beside a large power of pi; it used to round
        # to a subnormal (4.4e-8 off at m = 350) or to 0 (from m = 357).
        assert _oracle.sphere_volume(m).close_to(sphere_volume(m), rel_tol=2e-14)

    def test_values_outside_the_float_range(self):
        assert sphere_volume(1000) == 0.0
        with pytest.raises(OverflowError):
            float(ExactConst(Fraction(2) ** 1100))
