"""Leading-symbol quadratic forms, gamma prefactors, and the extremal
classification chain."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spherehess.errors import DomainError, ParityError
from spherehess.symbols import (
    ExtremalStatement,
    Functional,
    FormDefiniteness,
    PrefactorMode,
    QuadFormCoeffs,
    bracket_D2,
    bracket_L,
    bracket_definiteness,
    extremal_classification,
    gamma_prefactor,
    gamma_prefactor_exact,
    gamma_prefactor_oracle,
    prefactor_raw,
    printed_pattern_agrees,
    zeta0_prefactor_richardson,
)


class TestBrackets:
    def test_bracket_L_coefficients(self):
        c = bracket_L(5, Fraction(2))
        assert c.a == Fraction(2 * 1, 16) - Fraction(1, 8)
        assert c.b == Fraction(1, 2)
        assert c.extra_factor == 1

    def test_bracket_L_at_zero(self):
        for n in range(3, 14):
            c = bracket_L(n, 0)
            assert c.a == -Fraction(1, 2 * (n - 1))
            assert c.b == Fraction(1, 2)

    def test_bracket_D2_coefficients(self):
        c3 = bracket_D2(3, Fraction(1))
        assert (c3.a, c3.b) == (1, 2 * 1 - 2)
        assert c3.extra_factor == Fraction(1, 2)
        c5 = bracket_D2(5, 0)
        assert (c5.a, c5.b) == (1, -4)
        assert c5.extra_factor == 1
        c7 = bracket_D2(7, 0)
        assert c7.extra_factor == 2

    def test_bracket_D2_even_dimensions_accepted(self):
        # The first-order-square bracket is defined in every dimension;
        # the dyadic factor is 2^(floor(n/2) - 2).
        assert bracket_D2(4, 0).extra_factor == Fraction(1)
        assert bracket_D2(6, 0).extra_factor == Fraction(2)


class TestGammaPrefactor:
    def test_det_n3_frozen(self):
        value, sign = gamma_prefactor(3, PrefactorMode.DET_DERIVATIVE_AT_ZERO)
        assert value == pytest.approx(1 / 256, rel=1e-14, abs=0)
        assert sign == 1
        exact = gamma_prefactor_exact(3, PrefactorMode.DET_DERIVATIVE_AT_ZERO)
        assert float(exact) == pytest.approx(1 / 256, rel=1e-15, abs=0)

    def test_zeta0_n4_frozen(self):
        value, sign = gamma_prefactor(4, PrefactorMode.ZETA0_LIMIT_AT_ZERO)
        assert value == pytest.approx(1 / (960 * math.pi**2), rel=1e-14, abs=0)
        assert sign == 1

    @pytest.mark.parametrize("n", [*range(3, 14), 51, 100, 169])
    def test_oracle_agreement(self, n):
        for mode in PrefactorMode:
            try:
                value, _ = gamma_prefactor(n, mode)
            except ParityError:
                continue
            oracle = gamma_prefactor_oracle(n, mode)
            assert abs(value - oracle) <= 1e-12 * abs(oracle)

    def test_sign_follows_pole_counting(self):
        # sign Gamma(-n/2) = (-1)^((n+1)/2) for odd n, the finite even-n limit
        # (-1)^(n/2); every other factor is positive
        for n in range(3, 401):
            if n % 2:
                mode, rule = PrefactorMode.DET_DERIVATIVE_AT_ZERO, (-1) ** ((n + 1) // 2)
            else:
                mode, rule = PrefactorMode.ZETA0_LIMIT_AT_ZERO, (-1) ** (n // 2)
            assert gamma_prefactor(n, mode)[1] == rule
            assert rule * gamma_prefactor_exact(n, mode).coeff > 0

    def test_parity_gates(self):
        with pytest.raises(ParityError):
            gamma_prefactor(4, PrefactorMode.DET_DERIVATIVE_AT_ZERO)
        with pytest.raises(ParityError):
            gamma_prefactor(5, PrefactorMode.ZETA0_LIMIT_AT_ZERO)

    def test_richardson_limit(self):
        exact, _ = gamma_prefactor(4, PrefactorMode.ZETA0_LIMIT_AT_ZERO)
        rich = zeta0_prefactor_richardson(4)
        assert abs(rich - exact) <= 1e-6 * abs(exact)

    @pytest.mark.parametrize("oracle", [
        lambda: gamma_prefactor_oracle(171, PrefactorMode.DET_DERIVATIVE_AT_ZERO),
        lambda: gamma_prefactor_oracle(170, PrefactorMode.ZETA0_LIMIT_AT_ZERO),
        lambda: prefactor_raw(170, 0.5),
    ], ids=["oracle-171", "oracle-170", "raw-170"])
    def test_oracles_refuse_n_above_169(self, oracle):
        # math.gamma(n + 2) overflows from n = 170: a DomainError, never a
        # bare OverflowError.
        with pytest.raises(DomainError, match="n <= 169"):
            oracle()

    def test_raw_prefactor_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            prefactor_raw(5, -90.25)

    @pytest.mark.parametrize("n,s", [(6, 0.0), (169, 0.5)])
    def test_raw_prefactor_at_a_pole_is_a_domain_error(self, n, s):
        # Gamma(s) at s = 0, and Gamma(s - n/2) at s - n/2 = -84
        with pytest.raises(DomainError, match=rf"n = {n}, s = {s!r} hits a pole"):
            prefactor_raw(n, s)

    @pytest.mark.parametrize("n", [198, 199, 260, 261])
    def test_sign_where_the_float_underflows(self, n):
        # The float prefactor is -0.0 or 0.0 here; the sign check reads the
        # exact coefficient.
        mode = (PrefactorMode.ZETA0_LIMIT_AT_ZERO if n % 2 == 0
                else PrefactorMode.DET_DERIVATIVE_AT_ZERO)
        value, sign = gamma_prefactor(n, mode)
        exact = gamma_prefactor_exact(n, mode)
        assert value == float(exact) == 0.0
        assert sign == (1 if exact.coeff > 0 else -1)

    def test_raw_prefactor_near_zero(self):
        # the raw expression at small s approaches the ZETA0 limit
        exact, _ = gamma_prefactor(6, PrefactorMode.ZETA0_LIMIT_AT_ZERO)
        assert prefactor_raw(6, 1e-7) == pytest.approx(exact, rel=1e-5, abs=0)


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _projector(xi):
    """The orthogonal projector normal to a nonzero rational covector."""
    nrm = sum(x * x for x in xi)
    return [[int(i == j) - xi[i] * xi[j] / nrm for j in range(len(xi))]
            for i in range(len(xi))]


def _t_u(k, proj):
    """t = tr(k P) and u = tr((k P)^2), exactly.

    The product runs on integers: with e and d the common denominators of
    k and P, (e k)(d P) = e d k P.
    """
    n = len(k)
    e = math.lcm(*(v.denominator for row in k for v in row))
    d = math.lcm(*(v.denominator for row in proj for v in row))
    ke = [[v.numerator * (e // v.denominator) for v in row] for row in k]
    pd = [[v.numerator * (d // v.denominator) for v in row] for row in proj]
    kp = [[sum(ke[i][m] * pd[m][j] for m in range(n)) for j in range(n)]
          for i in range(n)]
    scale = e * d
    return (Fraction(sum(kp[i][i] for i in range(n)), scale),
            Fraction(sum(kp[i][j] * kp[j][i] for i in range(n) for j in range(n)),
                     scale * scale))


class TestEvaluateForm:
    def test_cauchy_schwarz_cone(self):
        # t^2 <= (n-1) u for every symmetric k and covector xi: the cone on
        # which bracket_definiteness classifies the bracket.
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(3, 8)
            xi = [0] * n
            while not any(xi):
                xi = [_rational(rng) for _ in range(n)]
            raw = [[_rational(rng) for _ in range(n)] for _ in range(n)]
            k = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
            t, u = _t_u(k, _projector(xi))
            assert t * t <= (n - 1) * u

    def test_null_ray_at_s_zero(self):
        # K = P, the projector normal to xi, makes the bracket value vanish
        for n in range(3, 14):
            proj = _projector([Fraction(i + 1, 2) for i in range(n)])
            t, u = _t_u(proj, proj)
            assert t == u == n - 1
            coeffs = bracket_L(n, 0)
            assert coeffs.a * t * t + coeffs.b * u == 0


class TestDefiniteness:
    def test_semidefinite_at_zero(self):
        for n in range(3, 14):
            assert (
                bracket_definiteness(bracket_L(n, 0), n - 1)
                is FormDefiniteness.POS_SEMIDEF
            )
            if n % 2 == 1:
                assert (
                    bracket_definiteness(bracket_D2(n, 0), n - 1)
                    is FormDefiniteness.NEG_SEMIDEF
                )

    def test_positive_definite_for_large_s(self):
        assert (
            bracket_definiteness(bracket_L(5, 10), 4)
            is FormDefiniteness.POS_DEF
        )

    def test_indefinite_at_one_half(self):
        # a attains its minimum at s = 1/2 where a m + b < 0 while b > 0
        assert (
            bracket_definiteness(bracket_L(5, Fraction(1, 2)), 4)
            is FormDefiniteness.INDEFINITE
        )


class TestExtremalClassification:
    EXPECT = {
        Functional.DET_L: "(-1)^(k+1) det L is a local maximum",
        Functional.ZETA0_L: "(-1)^(k+1) zeta_L(0) is a local maximum",
        Functional.DET_D2: "(-1)^(k) det D2 is a local maximum",
        Functional.ZETA0_D2: "(-1)^(k) zeta_D2(0) is a local maximum",
    }

    def test_patterns_all_dimensions(self):
        for n in range(3, 14):
            for functional in Functional:
                try:
                    st_ = extremal_classification(functional, n)
                except ParityError:
                    continue
                assert st_.pattern == self.EXPECT[functional]

    def test_printed_pattern_agrees_with_the_stated_law_only(self):
        for n in range(3, 41):
            for functional in Functional:
                try:
                    assert printed_pattern_agrees(extremal_classification(functional, n))
                except ParityError:
                    continue
        d2 = extremal_classification(Functional.DET_D2, 5)
        det_l_with_the_d2_law = ExtremalStatement(
            Functional.DET_L, 5, d2.k, d2.c_sign, d2.max_sign,
            d2.pattern.replace("D2", "L"), d2.text.replace("D2", "L"))
        assert not printed_pattern_agrees(det_l_with_the_d2_law)

    def test_intermediate_signs(self):
        for n in range(3, 14, 2):
            k = (n - 1) // 2
            assert extremal_classification(Functional.DET_L, n).c_sign == (-1) ** k
            assert (
                extremal_classification(Functional.DET_D2, n).c_sign
                == (-1) ** (k + 1)
            )
        for n in range(4, 14, 2):
            k = n // 2
            assert extremal_classification(Functional.ZETA0_L, n).c_sign == (-1) ** k
            assert (
                extremal_classification(Functional.ZETA0_D2, n).c_sign
                == (-1) ** (k + 1)
            )

    def test_max_sign_is_opposite_of_c_sign(self):
        st_ = extremal_classification(Functional.DET_L, 3)
        assert st_.max_sign == -st_.c_sign

    def test_parity_rejection(self):
        with pytest.raises(ParityError):
            extremal_classification(Functional.DET_L, 4)
        with pytest.raises(ParityError):
            extremal_classification(Functional.ZETA0_D2, 5)

    def test_statement_text_names_the_sphere(self):
        st_ = extremal_classification(Functional.DET_L, 3)
        assert "local maximum" in st_.text and "S^3" in st_.text
