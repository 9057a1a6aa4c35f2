"""Leading-symbol quadratic forms, gamma prefactors, and the extremal
classification chain."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherehess.errors import DomainError, ParityError, ZeroCovector
from spherehess.symbols import (
    Functional,
    FormDefiniteness,
    PointData,
    PrefactorMode,
    QuadFormCoeffs,
    bracket_D2,
    bracket_L,
    bracket_definiteness,
    evaluate_form,
    extremal_classification,
    gamma_prefactor,
    gamma_prefactor_exact,
    gamma_prefactor_oracle,
    point_projector,
    prefactor_raw,
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
        assert value == pytest.approx(1 / 256, rel=1e-14)
        assert sign == 1
        exact = gamma_prefactor_exact(3, PrefactorMode.DET_DERIVATIVE_AT_ZERO)
        assert float(exact) == pytest.approx(1 / 256, rel=1e-15)

    def test_zeta0_n4_frozen(self):
        value, sign = gamma_prefactor(4, PrefactorMode.ZETA0_LIMIT_AT_ZERO)
        assert value == pytest.approx(1 / (960 * math.pi**2), rel=1e-14)
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
        assert prefactor_raw(6, 1e-7) == pytest.approx(exact, rel=1e-5)


def _random_point(rng, n):
    k = rng.normal(size=(n, n))
    k = (k + k.T) / 2
    xi = rng.normal(size=n)
    while np.linalg.norm(xi) < 0.1:
        xi = rng.normal(size=n)
    return PointData(n=n, k=k, xi=xi)


class TestEvaluateForm:
    def test_cauchy_schwarz_cone(self):
        # t^2 <= (n-1) u for every symmetric k and covector xi
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            p = _random_point(rng, n)
            proj = point_projector(p.xi)
            kp = p.k @ proj
            t = np.trace(kp)
            u = np.trace(kp @ kp)
            assert t * t <= (n - 1) * u + 1e-9 * max(1.0, abs(u))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        coeffs = bracket_L(5, Fraction(3, 2))
        for _ in range(50):
            p = _random_point(rng, 5)
            gauss = rng.normal(size=(5, 5))
            qmat, rmat = np.linalg.qr(gauss)
            qmat = qmat @ np.diag(np.sign(np.diag(rmat)))
            rotated = PointData(n=5, k=qmat @ p.k @ qmat.T, xi=qmat @ p.xi)
            a = evaluate_form(coeffs, 1.3, p, -5.0)
            b = evaluate_form(coeffs, 1.3, rotated, -5.0)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(2)
        coeffs = bracket_D2(5, Fraction(1, 2))
        p = _random_point(rng, 5)
        doubled = PointData(n=5, k=2.0 * p.k, xi=p.xi)
        a = evaluate_form(coeffs, 1.0, p, 0.0)
        b = evaluate_form(coeffs, 1.0, doubled, 0.0)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_zero_covector_rejected(self):
        with pytest.raises(ZeroCovector):
            point_projector(np.zeros(4))

    def test_null_ray_at_s_zero(self):
        # K proportional to the projector makes the bracket value vanish
        for n in range(3, 14):
            xi = np.zeros(n)
            xi[0] = 1.0
            proj = point_projector(xi)
            p = PointData(n=n, k=proj, xi=xi)
            val = evaluate_form(bracket_L(n, 0), 1.0, p, 0.0)
            assert abs(val) <= 1e-12


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
