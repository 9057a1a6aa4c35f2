"""Radial Green's functions: closed forms, ODE residuals, tail integrals,
regular parts, and regularized traces."""

import hashlib
import inspect
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherehess import _quadpack, greens
from spherehess.errors import DomainError, FitUnstable, ParityError, QuadratureFailure
from spherehess.greens import (
    _fit_homogeneous_coefficient,
    _spectral_trace_exact,
    RegularPartConfig,
    TraceKind,
    chart_radius,
    d2_route_gap,
    green_D2,
    green_D2_closed3,
    green_D2_quadrature,
    green_L,
    green_L2,
    green_L_profile,
    green_L2_profile,
    green_D2_profile,
    homogeneous_coefficient_gap,
    homogeneous_mode_residual,
    kv_trace_D2,
    kv_trace_L2,
    ode_residual_L,
    ode_residual_L2,
    pipeline_trace_gap,
    regular_part,
    spectral_trace_reference,
    sphere_constants,
    tau_tail_exact,
    tau_tail_gap,
    tau_tail_quadrature,
    trace_from_pipeline,
    trace_sign_expected,
    zform_operator,
)

R_GRID = [0.3 + 0.1 * i for i in range(28)]


class TestTauTail:
    CASES = [(0, 2), (2, 2), (4, 2), (2, 1), (4, 1), (6, 1)]

    @pytest.mark.parametrize("a,p", CASES)
    def test_closed_form_matches_mpmath_oracle(self, a, p):
        exact = tau_tail_exact(a, p)
        with mpmath.workdps(40):
            for x in (0.3, 1.0, 2.5):
                oracle = mpmath.quad(
                    lambda t: t ** (-a) * (1 + t * t) ** (-p),
                    [x, mpmath.inf],
                )
                assert exact.value(x) == pytest.approx(float(oracle), rel=1e-13)

    @pytest.mark.parametrize("a,p", CASES)
    def test_quadrature_twin_agrees(self, a, p):
        assert tau_tail_gap(a, p) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(CASES), st.floats(0.1, 4.0), st.floats(0.05, 1.0))
    def test_tail_decreasing_and_positive(self, case, x, dx):
        a, p = case
        exact = tau_tail_exact(a, p)
        assert exact.value(x) > exact.value(x + dx) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            tau_tail_quadrature(2, 1, 0.0)

    @pytest.mark.parametrize("tail", [tau_tail_exact(2, 1).value,
                                      lambda x: tau_tail_quadrature(2, 1, x)],
                             ids=["closed-form", "quadrature"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_raises(self, tail, x):
        with pytest.raises(DomainError, match="finite x > 0"):
            tail(x)

    @pytest.mark.parametrize("x, pieces", [
        (0.6, ["direct [0.6, 1.0]", "inverted [0.0, 1.0]"]),
        (1.8, ["inverted [0.0, 0.5555555555555556]"]),
    ])
    def test_nonzero_flag_raises_with_diagnostics(self, monkeypatch, x, pieces):
        # A QUADPACK flag fails the twin even when the summed error estimate
        # is within its bound: the value is not returned quietly.
        real = _quadpack.qag

        def roundoff(f, lo, hi):
            value, abserr, _, neval = real(f, lo, hi)
            return value, abserr, 2, neval

        monkeypatch.setattr(_quadpack, "qag", roundoff)
        with pytest.raises(QuadratureFailure) as exc:
            tau_tail_quadrature(4, 2, x)
        message = str(exc.value)
        assert f"tau^-4 (1+tau^2)^-2 from x = {x!r}" in message
        # The bound is 1e-10 relative to the tail (5.652e-11 at x = 0.6,
        # 1.527e-13 at x = 1.8), which the closed form gives to four digits.
        bound = 1e-10 * abs(tau_tail_exact(4, 2).value(x))
        assert f"against bound {bound:.3e} (" in message
        for piece in pieces:
            assert f"{piece}: error " in message
        assert message.count("ier 2, neval ") == len(pieces)

    def test_subdivision_limit_raises_near_the_pole(self):
        # The tail is 1e200, all of it within a few x of the pole: the
        # direct piece spends its 200 subintervals there and reports ier 1
        # with a 2.1e63 error estimate, so the twin refuses the value.
        with pytest.raises(QuadratureFailure, match=r"ier 1, neval 8379"):
            tau_tail_quadrature(2, 1, 1e-200)

    @pytest.mark.parametrize("a, x", [(4, 1e-5), (6, 3e-5), (62, 1e-4)])
    def test_small_x_matches_the_closed_form(self, a, x):
        # Each of these once raised QuadratureFailure: the epsilon algorithm
        # extrapolated the smooth direct piece to a wrong limit (ier 4).
        exact = tau_tail_exact(a, 1).value(x)
        assert abs(tau_tail_quadrature(a, 1, x) - exact) <= 1e-13 * exact

    def test_integrand_leaving_the_float_range_raises(self):
        # tau^-100 overflows near x = 1e-5; this was a bare OverflowError.
        with pytest.raises(DomainError, match=(
                r"^tail of tau\^-100 \(1\+tau\^2\)\^-1 from x = 1e-05: the "
                r"integrand leaves the float range$")):
            tau_tail_quadrature(100, 1, 1e-5)

    def test_error_estimate_above_bound_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(_quadpack, "qag",
                            lambda f, lo, hi: (0.5, 1e-9, 0, 21))
        with pytest.raises(QuadratureFailure) as exc:
            tau_tail_quadrature(2, 1, 3.0)
        assert str(exc.value) == (
            "tail of tau^-2 (1+tau^2)^-1 from x = 3.0: estimated error "
            "1.000e-09 against bound 5.000e-11 (inverted "
            "[0.0, 0.3333333333333333]: error 1.000e-09, ier 0, neval 21)")

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: value() subtracts F(X) from arctan_coeff * pi/2, "
        "which cancels catastrophically at large X (1.8e-15 against a true "
        "3.8e-19 here)"))
    def test_closed_form_keeps_relative_accuracy_at_large_x(self):
        x = math.tan(1.5)
        quad = tau_tail_quadrature(12, 2, x)
        assert abs(tau_tail_exact(12, 2).value(x) - quad) <= 1e-9 * quad

    def test_coefficients_keep_their_exact_values(self):
        # sha256 of repr((a, p, arctan_coeff, power_coeffs, rational_coeffs))
        # over even a <= 40 and p = 1..40, recorded from the recursive T_l
        # expansion that the one-pass build replaced.
        digest = hashlib.sha256()
        for a in range(0, 41, 2):
            for p in range(1, 41):
                t = tau_tail_exact(a, p)
                digest.update(repr((t.a, t.p, t.arctan_coeff, t.power_coeffs,
                                    t.rational_coeffs)).encode())
        assert digest.hexdigest() == (
            "75dfbbcfcdce197da5bac3942f6d4e13fa5f32125b58e14375b49aa43e649763")

    def test_large_p_builds(self):
        # The recursive expansion raised RecursionError here.
        tail = tau_tail_exact(0, 1100)
        # int_0^inf (1+tau^2)^-p dtau = (pi/2) C(2p-2, p-1) / 4^(p-1)
        assert tail.arctan_coeff == Fraction(math.comb(2198, 1099), 4**1099)
        assert [l for l, _ in tail.rational_coeffs] == list(range(1, 1100))


class TestGreenL:
    def test_pinned_antipodal_values(self):
        assert green_L(3, math.pi) == pytest.approx(1 / (16 * math.pi), rel=1e-14)
        assert green_L(5, math.pi) == pytest.approx(
            1 / (128 * math.pi**2), rel=1e-14
        )

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_ode_residual(self, n):
        assert ode_residual_L(n, R_GRID) <= 1e-8

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_homogeneous_modes_in_z_form(self, n):
        for sigma in (+1, -1):
            for z in (-0.7, 0.0, 0.4, 0.9):
                assert abs(homogeneous_mode_residual(n, sigma, z)) < 1e-11

    def test_even_dimension_rejected(self):
        with pytest.raises(ParityError):
            green_L(4, 1.0)

    def test_z_form_linearity(self):
        # the z-form operator is linear in (y, y', y'')
        val = zform_operator(5, 2.0, 3.0, 4.0, 0.3)
        parts = (
            zform_operator(5, 2.0, 0.0, 0.0, 0.3)
            + zform_operator(5, 0.0, 3.0, 0.0, 0.3)
            + zform_operator(5, 0.0, 0.0, 4.0, 0.3)
        )
        assert val == pytest.approx(parts, rel=1e-14)


class TestGreenL2:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_defining_ode(self, n):
        assert ode_residual_L2(n, R_GRID) <= 1e-8

    def test_three_sphere_has_no_singular_part(self):
        assert green_L2_profile(3).singular_orders == ()
        assert green_L2_profile(5).singular_orders == (-1,)

    @pytest.mark.parametrize("n", range(3, 14, 2))
    def test_fitted_homogeneous_coefficient_matches_exact(self, n):
        assert homogeneous_coefficient_gap(n) <= 1e-9


class TestGreenD2:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_dual_route_agreement(self, n):
        for r in R_GRID:
            x = chart_radius(r)
            value, gap = d2_route_gap(n, x)
            assert value == green_D2(n, x)
            assert gap <= 1e-9

    @pytest.mark.parametrize("n,x", [(35, 1.45), (41, 1.45), (51, 1.3), (51, 1.49)])
    def test_cancelling_bracket_is_summed_as_the_series(self, n, x):
        # the literal bracket loses more than 1e-9 here (the quadrature twin
        # disagrees with it by 2e-9 to 4e-6), so the arctangent series
        # remainder is summed instead
        a = green_D2(n, x)
        b = green_D2_quadrature(n, x)
        assert abs(a - b) <= 1e-12 * abs(b)

    def test_remaining_refusal_names_bound_and_terms(self):
        # at x = 1 the bracket is about 1/(4k) against a rounding estimate
        # of about 4 eps, and the series does not converge there
        with pytest.raises(QuadratureFailure, match=r"k = 300000 .* 1e-9"):
            green_D2(600001, 1.0)

    def test_large_radius_stability(self):
        # the bracket is evaluated through the arctangent remainder series
        # beyond x = 1.5; both routes must still agree to near machine level
        for n in (3, 5, 7, 9):
            for x in (2.0, 8.0, 30.0, 120.0):
                a = green_D2(n, x)
                b = green_D2_quadrature(n, x)
                assert abs(a - b) <= 1e-11 * max(abs(a), abs(b))

    def test_closed_form_three_sphere(self):
        for r in (0.4, 1.0, 2.0, 2.8):
            assert green_D2(3, chart_radius(r)) == pytest.approx(
                green_D2_closed3(r), rel=1e-12
            )

    @pytest.mark.parametrize("route", [green_D2, green_D2_quadrature])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_raises(self, route, x):
        # green_D2(3, nan) and green_D2(3, inf) used to return nan.
        with pytest.raises(DomainError, match="positive and finite"):
            route(3, x)

    def test_printed_example_x_equals_one(self):
        # at x = 1 (r = pi/2) the n = 3 bracket contributes 2 (1 - pi/4)
        # and the chart prefactor is ((1 + x^2)/4) / vol(S^2) = 1/(8 pi)
        expected = (1 / (8 * math.pi)) * 2 * (1 - math.pi / 4)
        assert green_D2(3, 1.0) == pytest.approx(expected, rel=1e-14)


class TestOverflowingValues:
    # Each value leaves the float range at n = 301 and used to come back as
    # inf or -inf.
    @pytest.mark.parametrize("green, r, value", [
        (green_L, 0.3, "inf"),
        (green_L2, 2.8, "inf"),
        (green_L2, 3.0, "-inf"),
    ])
    def test_profile_value_raises(self, green, r, value):
        with pytest.raises(DomainError, match=f"n = 301, r = {r} is {value}$"):
            green(301, r)

    @pytest.mark.parametrize("residual", [ode_residual_L, ode_residual_L2])
    def test_ode_rows_raise(self, residual):
        kind = "L" if residual is ode_residual_L else "L2"
        with pytest.raises(DomainError, match=(
                rf"^{kind} profile at n = 351, r = 0.3 leaves the float range")):
            residual(351, R_GRID)

    def test_d2_value_raises(self):
        # about 1e393; (301, 5.0), which once raised here too, is 7.9e95
        with pytest.raises(DomainError, match=(
                "n = 301, x_norm = 0.1 leaves the float range$")):
            green_D2(301, 0.1)

    # A power of x_norm overflows at (401, 0.15) and vol(S^{n-1}) underflows
    # to 0 at n = 501 and 1001.  Each used to escape as a bare OverflowError
    # or ZeroDivisionError.  At (3, 2e154) the prefactor's x * x overflows;
    # the bracket gave inf, the quadrature twin nan.
    @pytest.mark.parametrize("route", [green_D2, green_D2_quadrature])
    @pytest.mark.parametrize("n, x", [(401, 0.15), (501, 2.0), (1001, 1.001),
                                      (3, 2e154)])
    def test_d2_outside_the_float_range_raises(self, route, n, x):
        with pytest.raises(DomainError, match=(
                rf"^D2 value at n = {n}, x_norm = {re.escape(repr(x))} "
                r"leaves the float range$")):
            route(n, x)


class TestOdeRows:
    @pytest.mark.parametrize("kind", ["L", "L2"])
    @pytest.mark.parametrize("r", [0.0, math.pi, -0.5, math.nan])
    def test_radius_outside_the_open_interval_is_refused(self, kind, r):
        # At r = 0 the L2 rows evaluated the right-hand side first and
        # leaked a bare ZeroDivisionError.
        with pytest.raises(DomainError, match=rf"^r = {r!r} outside \(0, pi\)$"):
            greens.ode_rows(5, kind, [0.5, r])

    def test_profile_without_derivatives_is_refused(self):
        with pytest.raises(DomainError, match=(
                r"^the D2 profile has no closed-form derivatives$")):
            greens.ode_rows(5, "D2", [0.5])

    @pytest.mark.parametrize("builder", [green_L_profile, green_L2_profile])
    def test_terms_value_is_the_profile_value(self, builder):
        # ode_rows prints the value of terms, green_L and green_L2 that of
        # evaluate: two copies of one expression.
        from spherehess.cli import _r_grid

        for n in range(3, 14, 2):
            prof = builder(n)
            for r in _r_grid():
                assert prof.terms(r)[0] == prof.evaluate(r)


class TestD2AtLargeN:
    # At the first three points the literal bracket cancels, and the series
    # needs 620-925 terms, past the fixed cap of 600 it once had.  At
    # n = 351 and 361 the float of vol(S^{n-1}) was 4.4e-8 off and 0.
    @pytest.mark.parametrize("n, x", [(241, 1.033), (301, 1.03), (351, 1.022),
                                      (361, 1.2)])
    def test_value_matches_the_oracle(self, n, x):
        k = (n - 1) // 2
        with mpmath.workdps(50):
            big_x = mpmath.mpf(x)
            bracket = mpmath.pi / 2 - mpmath.atan(big_x) - mpmath.fsum(
                (-1) ** j * big_x ** (-2 * j - 1) / (2 * j + 1) for j in range(k))
            vol = 2 * mpmath.pi ** mpmath.mpf(n / 2) / mpmath.gamma(mpmath.mpf(n / 2))
            oracle = float(((1 + big_x**2) / 4) ** ((n - 1) // 2) / vol
                           * 2 * (-1) ** k * bracket)
        assert abs(green_D2(n, x) - oracle) <= 1e-12 * abs(oracle)

    # The prefactor alone leaves the float range here (it used to raise
    # "is inf" or "leaves the float range"), the value does not.  The oracle
    # writes the tail as a hypergeometric function, not as the bracket.
    @pytest.mark.parametrize("n, x, value", [
        (41, 1e8, 7.7e-15), (29, 1.78e11, 1.0e-18), (301, 5.0, 7.9e95),
        (101, 1e100, 2.6e-94), (437, 3.0, 2.77e182)])
    def test_overflowing_prefactor_is_scaled(self, n, x, value):
        with mpmath.workdps(40):
            big_x = mpmath.mpf(x)
            tail = big_x ** -n / n * mpmath.hyp2f1(
                1, mpmath.mpf(n) / 2, mpmath.mpf(n + 2) / 2, -1 / big_x**2)
            vol = 2 * mpmath.pi ** mpmath.mpf(n / 2) / mpmath.gamma(mpmath.mpf(n / 2))
            oracle = float(((1 + big_x**2) / 4) ** ((n - 1) // 2) / vol * 2 * tail)
        assert abs(green_D2(n, x) - oracle) <= 1e-12 * oracle
        assert oracle == pytest.approx(value, rel=0.01)

    def test_scaled_prefactor_refuses_a_subnormal_volume(self):
        # vol(S^454) is 5e-324, so 1/vol(S^{n-1}) overflows; the quadrature
        # twin gave inf at both points
        for n, x in ((455, 3.0), (301, 5.0)):
            with pytest.raises(DomainError, match="leaves the float range$"):
                green_D2_quadrature(n, x)
        with pytest.raises(DomainError, match="leaves the float range$"):
            green_D2(455, 3.0)

    def test_subnormal_volume_is_refused_and_437_keeps_its_bits(self):
        # From n = 439 on vol(S^{n-1}) is subnormal, and the value divided by
        # it: 9.9e-7 off at n = 449 and 19% off at n = 455, with no error.
        x = 1.2
        for n in range(437, 456, 2):
            k = (n - 1) // 2
            with mpmath.workdps(60):
                big_x = mpmath.mpf(x)
                bracket = mpmath.pi / 2 - mpmath.atan(big_x) - mpmath.fsum(
                    (-1) ** j * big_x ** (-2 * j - 1) / (2 * j + 1) for j in range(k))
                vol = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
                oracle = ((1 + big_x**2) / 4) ** k / vol * 2 * (-1) ** k * bracket
            if n == 437:
                got = green_D2(n, x)
                assert got.hex() == "0x1.68b528cf98597p+739"
                assert abs(got - oracle) <= 1e-13 * oracle
                continue
            assert mpmath.isfinite(oracle) and oracle > 0
            for route in (green_D2, green_D2_quadrature):
                with pytest.raises(DomainError, match=(
                        rf"^D2 value at n = {n}, x_norm = 1.2 leaves the float range$")):
                    route(n, x)
            with pytest.raises(DomainError, match=(
                    rf"^D2 profile at n = {n}, r = 1.2 leaves the float range$")):
                green_D2_profile(n)(1.2)

    def test_first_series_term_below_the_float_range(self):
        # t^3 = 1e-450 rounds to 0, and the value came back as -0.0; the
        # literal bracket is 1e-450 beside pi/2, so the oracle carries 450
        # digits on top of its 50
        n, x = 3, 1e150
        with mpmath.workdps(500):
            big_x = mpmath.mpf(x)
            bracket = mpmath.pi / 2 - mpmath.atan(big_x) - 1 / big_x
            vol = 4 * mpmath.pi
            oracle = float((1 + big_x**2) / 4 / vol * 2 * -bracket)
        got = green_D2(n, x)
        assert got > 0
        assert abs(got - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("x, value", [(1e150, 1.33e-152), (1e154, 1.33e-156)])
    def test_quadrature_tail_below_the_float_range_is_refused(self, x, value):
        # The twin's tail, about x^-3/3, underflows to 0, and the twin gave a
        # quiet 0.0; the bracket keeps its value.
        with pytest.raises(QuadratureFailure, match=(
                r"^tail of tau\^-2 \(1\+tau\^2\)\^-1 from x = "
                + re.escape(repr(x)) + " underflows to 0")):
            green_D2_quadrature(3, x)
        assert green_D2(3, x) == pytest.approx(value, rel=1e-3)

    def test_series_budget_above_a_million_terms_is_refused(self):
        with pytest.raises(QuadratureFailure, match=(
                r"needs up to \d+ terms after the first k = 300000, more "
                r"than 1000000$")):
            green_D2(600001, 1.00001)


class TestSharedScaledFit:
    """Both fits run ``_scaled_lstsq``; each gives the bits of its own fit,
    written out inline here as the reference."""

    @staticmethod
    def _regular_part_fit(rs, vals, exponents):
        # regular_part's own fit
        cols = [rs**e for e in exponents]
        design = np.stack(cols, axis=1)
        scales = np.max(np.abs(design), axis=0)
        coeffs_scaled, _, _, singular_values = np.linalg.lstsq(
            design / scales, vals, rcond=None)
        return coeffs_scaled / scales, singular_values

    @pytest.mark.parametrize("n", range(3, 12, 2))
    def test_homogeneous_coefficient(self, n, monkeypatch):
        calls = []
        shared = greens._scaled_lstsq

        def spy(rs, vals, exponents):
            calls.append((rs, vals, list(exponents)))
            return shared(rs, vals, exponents)

        monkeypatch.setattr(greens, "_scaled_lstsq", spy)
        got = _fit_homogeneous_coefficient(n)
        [(rs, vals, exponents)] = calls
        assert exponents == list(range(7))
        # _fit_homogeneous_coefficient's own fit
        design = np.stack([rs**d for d in range(7)], axis=1)
        scales = np.max(np.abs(design), axis=0)
        coeffs, *_ = np.linalg.lstsq(design / scales, vals, rcond=None)
        assert got == -float(coeffs[0] / scales[0])

    @pytest.mark.parametrize("kind", list(TraceKind))
    @pytest.mark.parametrize("k", [1, 2])
    def test_pipeline_trace(self, kind, k, monkeypatch):
        shared = trace_from_pipeline(kind, k)
        monkeypatch.setattr(greens, "_scaled_lstsq", self._regular_part_fit)
        assert shared == trace_from_pipeline(kind, k)

    def test_synthetic_regular_part(self, monkeypatch):
        def f(r):
            return 3.7 * r**-3 - 1.2 * r**-1 + 0.625 + 0.4 * r**2

        cfg = RegularPartConfig(window=(3e-2, 0.5))
        shared = regular_part(f, singular_orders=(-3, -1), config=cfg)
        monkeypatch.setattr(greens, "_scaled_lstsq", self._regular_part_fit)
        assert shared == regular_part(f, singular_orders=(-3, -1), config=cfg)


class TestRegularPart:
    def test_synthetic_extraction(self):
        def f(r):
            return 3.7 * r**-3 - 1.2 * r**-1 + 0.625 + 0.4 * r**2

        # Window large enough that the r^-3 term does not exhaust double
        # precision at the smallest nodes.
        cfg = RegularPartConfig(window=(3e-2, 0.5))
        res = regular_part(f, singular_orders=(-3, -1), config=cfg)
        assert res.value == pytest.approx(0.625, abs=1e-8)
        assert res.singular_coeffs[-3] == pytest.approx(3.7, rel=1e-6)
        assert res.singular_coeffs[-1] == pytest.approx(-1.2, rel=1e-6)

    def test_unstable_fit_raises(self):
        rng = np.random.default_rng(3)

        def noisy(r):
            return 1.0 / r + float(rng.normal()) * 10.0

        with pytest.raises(FitUnstable):
            regular_part(noisy, singular_orders=(-1,))

    def test_unstable_fit_message_names_its_diagnostics(self):
        # A 1/r^3 pole the basis does not hold: the fit cannot absorb it.
        with pytest.raises(FitUnstable, match=(
                r"^regular part on window \[0\.001, 0\.1\] with 24 nodes: "
                r"error estimate \S+ exceeds 1\.000e-06 \(Richardson gap \S+, "
                r"fit-vs-Richardson gap \S+\); condition number of the scaled "
                r"design \d\.\d{3}e\+\d\d$")):
            regular_part(lambda r: r**-3, ())

    def test_window_validation(self):
        with pytest.raises(DomainError):
            regular_part(lambda r: r, (), config=RegularPartConfig(window=(0.1, 0.01)))

    def test_nan_error_estimate_raises(self):
        # 1e300 / r^3 is inf at the smallest nodes, and the NaN estimate
        # passed the gate as a NaN value.
        with pytest.raises(FitUnstable, match=r"error estimate nan exceeds"):
            regular_part(lambda r: 1e300 / r**3, (-3,))


class TestTraces:
    def test_frozen_values(self):
        assert kv_trace_L2(1) == (Fraction(3, 128), 2)
        assert kv_trace_L2(2) == (Fraction(-5, 2048), 2)
        assert kv_trace_D2(1) == (Fraction(-1, 4), 2)
        assert kv_trace_D2(2) == (Fraction(3, 16), 2)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_sign_laws(self, k):
        l2, _ = kv_trace_L2(k)
        d2, _ = kv_trace_D2(k)
        assert (1 if l2 > 0 else -1) == trace_sign_expected(TraceKind.L2, k)
        assert (1 if d2 > 0 else -1) == trace_sign_expected(TraceKind.D2, k)
        assert trace_sign_expected(TraceKind.L2, k) == (-1) ** (k + 1)
        assert trace_sign_expected(TraceKind.D2, k) == (-1) ** k

    def test_spectral_reference_frozen(self):
        assert spectral_trace_reference(TraceKind.L2, 1) == pytest.approx(
            math.pi**2 / 4, rel=1e-10
        )
        assert spectral_trace_reference(TraceKind.L2, 2) == pytest.approx(
            -math.pi**2 / 64, rel=1e-10
        )
        assert spectral_trace_reference(TraceKind.D2, 1) == pytest.approx(
            -math.pi**2 / 4, rel=1e-10
        )
        assert spectral_trace_reference(TraceKind.D2, 2) == pytest.approx(
            3 * math.pi**2 / 32, rel=1e-10
        )

    def test_spectral_reference_keeps_its_floats(self):
        # The values of the Hurwitz-zeta branches this exact route replaced.
        assert [spectral_trace_reference(kind, k).hex()
                for kind in TraceKind for k in (1, 2)] == [
            "0x1.3bd3cc9be45dep+1", "-0x1.3bd3cc9be45dep-3",
            "-0x1.3bd3cc9be45dep+1", "0x1.d9bdb2e9d68cdp-1"]

    @pytest.mark.parametrize("kind", list(TraceKind))
    @pytest.mark.parametrize("k", [0, -1])
    def test_spectral_reference_needs_k_at_least_one(self, kind, k):
        with pytest.raises(DomainError, match="k >= 1"):
            spectral_trace_reference(kind, k)

    def test_spectral_reference_values_in_q_pi2(self):
        expected = {
            TraceKind.L2: [Fraction(1, 4), Fraction(-1, 64), Fraction(1, 512),
                           Fraction(-5, 16384)],
            TraceKind.D2: [Fraction(-1, 4), Fraction(3, 32), Fraction(-5, 128),
                           Fraction(35, 2048)],
        }
        for kind, values in expected.items():
            assert [_spectral_trace_exact(kind, k) for k in range(1, 5)] == [
                (v, 0) for v in values]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_criterion_08d_ratio_law_in_q(self, k):
        # Criterion 08d stays red because spectral/printed is not constant
        # in k: it is 32/(2k+1) for L^2 and 2^(1-k) for D^2, exactly.
        for kind, printed, law in (
            (TraceKind.L2, kv_trace_L2, Fraction(32, 2 * k + 1)),
            (TraceKind.D2, kv_trace_D2, Fraction(2) ** (1 - k)),
        ):
            pi2, rational = _spectral_trace_exact(kind, k)
            coeff, pi_exp = printed(k)
            assert rational == 0 and pi_exp == 2
            assert pi2 / coeff == law
            assert spectral_trace_reference(kind, k) == float(pi2) * math.pi**2

    def test_pipeline_matches_spectral_reference(self):
        # regular part x volume, times the exact convention factor, equals
        # the independent spectral continuation
        for kind in TraceKind:
            for k in (1, 2):
                assert pipeline_trace_gap(kind, k) <= 1e-5


class TestCachedBuilders:
    def test_exact_data_is_shared(self):
        assert sphere_constants(5) is sphere_constants(5)
        assert tau_tail_exact(4, 2) is tau_tail_exact(4, 2)

    @pytest.mark.parametrize("a, p", [(0, 1), (4, 2), (10, 2), (12, 1)])
    def test_tail_floats_are_the_coefficient_floats(self, a, p):
        tail = tau_tail_exact(a, p)
        assert tail.arctan_float == float(tail.arctan_coeff)
        for floats, exact in ((tail.power_floats, tail.power_coeffs),
                              (tail.rational_floats, tail.rational_coeffs)):
            assert floats == tuple((e, float(c)) for e, c in exact)
        # derived data: not part of the constructor, eq, hash or repr
        twin = greens.TauTailIntegral(a, p, tail.arctan_coeff, tail.power_coeffs,
                                      tail.rational_coeffs)
        assert twin == tail and hash(twin) == hash(tail)
        assert "float" not in repr(tail)

    def test_values_build_each_profile_once(self, monkeypatch):
        builds = []

        def counting(n):
            builds.append(n)
            return green_L2_profile(n)

        greens._shared_profile.cache_clear()
        monkeypatch.setattr(greens, "green_L2_profile", counting)
        try:
            for i in range(200):
                green_L2(7, 0.3 + 0.01 * i)
        finally:
            greens._shared_profile.cache_clear()
        assert builds == [7]

    def test_public_builders_return_fresh_plain_functions(self):
        # a tracer that wraps plain functions counts every build
        for builder in (green_L_profile, green_L2_profile, green_D2_profile):
            assert inspect.isfunction(builder)
            assert builder(5) is not builder(5)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_values_equal_fresh_profiles_bitwise(self, n):
        from spherehess.cli import _r_grid

        prof_l, prof_l2 = green_L_profile(n), green_L2_profile(n)
        for r in _r_grid():
            assert green_L(n, r) == prof_l(r)
            assert green_L2(n, r) == prof_l2(r)


class TestPinnedBits:
    """float.hex of every Green route and pipeline trace, recorded before the
    value routes cached their profiles and float constants."""

    # sha256 of the space-joined float.hex strings over cli._r_grid(), first
    # 16 hex digits, per route and odd n = 3..13
    DIGESTS = {
        "L": ["a1da0123582d4bd1", "aa8c6a2f36357770", "70b1d9f9c6138790",
              "2b35b1aa715366b1", "71286e6ffa91d116", "1fefe4f9bb2a261c"],
        "L2": ["42f619883b0af458", "50653d12f9b26db7", "35a5e3a43382a4f8",
               "524d70be5435ab03", "eb6026be3febd2a0", "467d8c4ca7b5bcfd"],
        "D2": ["922a4da41e9763e3", "0a1c893554d30b3d", "abf769e9f174ea37",
               "7b8763e070eb7a98", "554d5f093c38bf36", "1acefdfb10a40346"],
        "D2 profile": ["f50521790d26871c", "c8b65a5b2a46e97a", "f082c36f90acd0a0",
                       "7138e2f37fa4417b", "475c6defed89602e", "469a1d2d71c5023b"],
    }
    TRACES = {
        (TraceKind.L2, 1): "0x1.3bd3cc9b82ae9p+0",
        (TraceKind.L2, 2): "-0x1.3bd3b42492d33p-4",
        (TraceKind.D2, 1): "-0x1.3bd3cc9aee3c5p+0",
        (TraceKind.D2, 2): "0x1.d9bd32bfa7c66p-3",
    }

    @pytest.mark.parametrize("route", list(DIGESTS))
    def test_route_values_keep_their_bits(self, route):
        from spherehess.cli import _r_grid

        def values(n):
            if route == "L":
                return [green_L(n, r) for r in _r_grid()]
            if route == "L2":
                return [green_L2(n, r) for r in _r_grid()]
            if route == "D2":
                return [green_D2(n, chart_radius(r)) for r in _r_grid()]
            return [green_D2_profile(n)(r) for r in _r_grid()]

        got = [hashlib.sha256(" ".join(v.hex() for v in values(n)).encode())
               .hexdigest()[:16] for n in range(3, 14, 2)]
        assert got == self.DIGESTS[route]

    @pytest.mark.parametrize("kind, k", list(TRACES))
    def test_pipeline_traces_keep_their_bits(self, kind, k):
        assert trace_from_pipeline(kind, k).value.hex() == self.TRACES[kind, k]
