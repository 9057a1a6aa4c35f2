"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states a guarantee of the library at its advertised tolerance:
exact rational identities run with zero tolerance, floating-point checks
carry the tolerance they are documented with.  Every test here is
self-contained so a single ``pytest -v`` line per guarantee tells the
whole story.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spherehess.confgroup import (
    ahlfors_chart,
    check_ahlfors_covariance,
    check_pairing_invariance,
    chart_dilation,
    chart_inversion,
    chart_translation,
    cocycle_residual,
    compose,
    compose_chart,
    conformality_residual,
    moebius_boost,
    pairing,
    random_band_limited_field,
    random_moebius,
    sphere_conformal_fields,
    sphere_grid,
)
from spherehess.greens import (
    TraceKind,
    kv_trace_D2,
    kv_trace_L2,
    ode_residual_L,
    ode_residual_L2,
    tau_tail_exact,
    tau_tail_quadrature,
    trace_from_pipeline,
    trace_sign_expected,
)
from spherehess.ktypes import KType, bundle_ktypes_bruteforce, bundle_weights, pad_weight
from spherehess.qcurv import project_tt, q_hessian_expected, q_hessian_symbol
from spherehess.spectrum import (
    StepDirection,
    kappa,
    kappa_inner_product,
    kappa_step,
    spectrum_generate,
    t0_eigenvalue,
)
from spherehess.symbols import (
    FormDefiniteness,
    Functional,
    PointData,
    PrefactorMode,
    bracket_D2,
    bracket_L,
    bracket_definiteness,
    evaluate_form,
    extremal_classification,
    gamma_prefactor,
    gamma_prefactor_oracle,
    point_projector,
    zeta0_prefactor_richardson,
)


def test_criterion_01_recursion_equals_eigenvalue_table_exactly_and_fast():
    # n in 4..12, j <= 100, q in {0,1,2}: the recursion seeded at (j=0,q=2)
    # reproduces the closed-form eigenvalue at every mode, exact rationals,
    # all nine tables in under five seconds.
    start = time.perf_counter()
    for n in range(4, 13):
        table = spectrum_generate(n, 100, t0_eigenvalue(KType(dim_n=n, j=0, q=2)))
        for j in range(101):
            for q in (0, 1, 2):
                assert table.value(j, q) == t0_eigenvalue(KType(dim_n=n, j=j, q=q))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"spectrum tables took {elapsed:.2f}s (budget 5s)"


def test_criterion_02_kernel_iff_q_below_two_and_n3_sign_change():
    # Eigenvalue vanishes exactly when q in {0,1}, is positive at q = 2;
    # in dimension three the q = 2 and q = -2 values have opposite signs.
    for n in range(4, 13):
        for j in range(101):
            for q in (0, 1):
                assert t0_eigenvalue(KType(dim_n=n, j=j, q=q)) == 0
            assert t0_eigenvalue(KType(dim_n=n, j=j, q=2)) > 0
    for j in range(101):
        plus = t0_eigenvalue(KType(dim_n=3, j=j, q=2))
        minus = t0_eigenvalue(KType(dim_n=3, j=j, q=-2))
        assert plus > 0 and minus < 0


def test_criterion_03_casimir_number_closed_form_vs_weight_oracle_and_steps():
    # Closed formula vs the weight inner product <beta + 2 rho, beta> with
    # 2 rho = (n-1, n-3, ...), plus the unit-step increments n+2j+4 and
    # n+2q-2, all exact.
    for n in range(3, 13):
        q_range = (-2, -1, 0, 1, 2) if n == 3 else (0, 1, 2)
        for j in range(51):
            for q in q_range:
                mode = KType(dim_n=n, j=j, q=q)
                assert kappa(mode) == kappa_inner_product(mode)
                assert kappa_step(mode, StepDirection.J_UP) == n + 2 * j + 4
                if q < 2:
                    assert kappa_step(mode, StepDirection.Q_UP) == n + 2 * q - 2


def test_criterion_04_bruteforce_branching_reproduces_both_families():
    # Brute-force interlacing over all bounded dominant weights lands on
    # exactly the advertised two-parameter families for vector and
    # symmetric-tensor bundles, n in 4..8, first entry bounded by 12.
    for n in range(4, 9):
        for head in ((1,), (2,)):
            sigma = pad_weight(head, n)
            assert bundle_ktypes_bruteforce(sigma, n, 12) == bundle_weights(
                sigma, n, 12
            )


def test_criterion_05_q_hessian_symbol_identity_on_random_rational_input():
    # Pipeline-assembled Hessian symbol == -|xi|^n/4 * k, exact rational
    # arithmetic, 100 random transverse trace-free samples per dimension.
    rng = np.random.default_rng(20260815)
    for n in (4, 6, 8):
        done = 0
        while done < 100:
            xi = [
                Fraction(int(v), int(d))
                for v, d in zip(rng.integers(-9, 10, n), rng.integers(1, 7, n))
            ]
            if all(v == 0 for v in xi):
                continue
            raw_num = rng.integers(-9, 10, (n, n))
            raw_den = rng.integers(1, 7, (n, n))
            m = [
                [Fraction(int(raw_num[i][j]), int(raw_den[i][j])) for j in range(n)]
                for i in range(n)
            ]
            sym = [[(m[i][j] + m[j][i]) / 2 for j in range(n)] for i in range(n)]
            k = project_tt(xi, sym)
            if all(v == 0 for row in k for v in row):
                continue
            assert q_hessian_symbol(n, xi, k).value == q_hessian_expected(n, xi, k).value
            done += 1


def test_criterion_06_extremal_statements_and_intermediate_signs():
    # The four sign theorems for every valid dimension in [3, 13], plus the
    # intermediate Hessian-scale signs (-1)^k for det L and (-1)^{k+1}
    # for det D2.
    patterns = {
        Functional.DET_L: "(-1)^(k+1) det L is a local maximum",
        Functional.ZETA0_L: "(-1)^(k+1) zeta_L(0) is a local maximum",
        Functional.DET_D2: "(-1)^(k) det D2 is a local maximum",
        Functional.ZETA0_D2: "(-1)^(k) zeta_D2(0) is a local maximum",
    }
    for n in range(3, 14):
        valid = (
            (Functional.DET_L, Functional.DET_D2)
            if n % 2 == 1
            else (Functional.ZETA0_L, Functional.ZETA0_D2)
        )
        for functional in valid:
            st = extremal_classification(functional, n)
            assert st.pattern == patterns[functional]
            assert st.max_sign == -st.c_sign
            if functional is Functional.DET_L:
                assert st.c_sign == (-1) ** st.k
            if functional is Functional.DET_D2:
                assert st.c_sign == (-1) ** (st.k + 1)


def test_criterion_07_prefactor_frozen_values_oracle_and_richardson():
    # Derivative-mode prefactor at n=3 equals 1/256 and the n=4 zeta(0)
    # limit equals 1/(960 pi^2), both to 1e-12 relative against the
    # high-precision Gamma oracle; a Richardson limit of the raw prefactor
    # confirms the n=4 value to 1e-6.
    det3, _ = gamma_prefactor(3, PrefactorMode.DET_DERIVATIVE_AT_ZERO)
    assert abs(det3 - 1.0 / 256.0) <= 1e-12 * (1.0 / 256.0)
    oracle3 = gamma_prefactor_oracle(3, PrefactorMode.DET_DERIVATIVE_AT_ZERO)
    assert abs(det3 - oracle3) <= 1e-12 * abs(oracle3)

    zeta4, _ = gamma_prefactor(4, PrefactorMode.ZETA0_LIMIT_AT_ZERO)
    frozen4 = 1.0 / (960.0 * math.pi**2)
    assert abs(zeta4 - frozen4) <= 1e-12 * frozen4
    oracle4 = gamma_prefactor_oracle(4, PrefactorMode.ZETA0_LIMIT_AT_ZERO)
    assert abs(zeta4 - oracle4) <= 1e-12 * abs(oracle4)

    richardson = zeta0_prefactor_richardson(4)
    assert abs(richardson - zeta4) <= 1e-6 * abs(zeta4)


def test_criterion_08a_radial_ode_residuals():
    # Radial profiles satisfy their defining equations to 1e-8 relative on
    # r in [0.3, 3.0]: the first profile solves the homogeneous radial
    # equation away from the pole, the second maps to the first under the
    # radial operator.
    rs = [0.3 + 0.1 * i for i in range(28)]
    for n in (3, 5, 7):
        assert ode_residual_L(n, rs) <= 1e-8
        assert ode_residual_L2(n, rs) <= 1e-8


def test_criterion_08b_tau_tail_quadrature_vs_antiderivative():
    # Adaptive quadrature vs the exact arctan/partial-fraction
    # antiderivative, agreement 1e-10, for both tail-integral families.
    for n in (3, 5, 7):
        for a, p, xs in (
            (n - 1, 2, (0.5, 1.0, 2.0)),
            (n - 1, 1, (0.5, 1.0, 2.0, 5.0)),
        ):
            exact = tau_tail_exact(a, p)
            for x in xs:
                quad = tau_tail_quadrature(a, p, x)
                diff = abs(quad - exact.value(x))
                assert diff <= 1e-10, f"a={a} p={p} x={x}: |diff|={diff:.3e}"


def test_criterion_08c_trace_values_frozen_and_sign_laws():
    # Closed-form trace evaluators: frozen k=1,2 values and the alternating
    # sign laws (-1)^{k+1} / (-1)^k out to k = 10, exact.
    assert kv_trace_L2(1) == (Fraction(3, 128), 2)
    assert kv_trace_L2(2) == (Fraction(-5, 2048), 2)
    assert kv_trace_D2(1) == (Fraction(-1, 4), 2)
    assert kv_trace_D2(2) == (Fraction(3, 16), 2)
    for k in range(1, 11):
        cl2, _ = kv_trace_L2(k)
        cd2, _ = kv_trace_D2(k)
        assert cl2 != 0 and cd2 != 0
        assert (1 if cl2 > 0 else -1) == (-1) ** (k + 1)
        assert (1 if cd2 > 0 else -1) == (-1) ** k
        assert trace_sign_expected(TraceKind.L2, k) == (-1) ** (k + 1)
        assert trace_sign_expected(TraceKind.D2, k) == (-1) ** k


def test_criterion_08d_pipeline_to_printed_ratio_consistency():
    # The numerical regular-part pipeline divided by the closed-form trace
    # values: the ratio is computed at k = 1 and k = 2 for each operator,
    # reported, and required to agree within 1e-3.
    #
    # KNOWN RED: the measured ratios are not constant in k (close to 16/3
    # vs 16/5 for the second-order square, 1/2 vs 1/8 for the first-order
    # square), so this check fails by design rather than being weakened.
    # The pipeline itself is validated independently against spectral
    # reference values in the greens test module.
    report = []
    failures = []
    for kind, printed_fn in ((TraceKind.L2, kv_trace_L2), (TraceKind.D2, kv_trace_D2)):
        ratios = []
        for k in (1, 2):
            coeff, pi_exp = printed_fn(k)
            printed = float(coeff) * math.pi**pi_exp
            pipe = trace_from_pipeline(kind, k)
            ratios.append(pipe.value / printed)
        report.append(
            f"{kind.value}: pipeline/printed ratio k=1 -> {ratios[0]:.9f}, "
            f"k=2 -> {ratios[1]:.9f}"
        )
        if abs(ratios[0] - ratios[1]) > 1e-3 * max(1.0, abs(ratios[0])):
            failures.append(kind.value)
    print()
    for line in report:
        print(line)
    assert not failures, "ratio not constant across k for: " + ", ".join(
        failures
    ) + " | " + " | ".join(report)


def test_criterion_09_moebius_and_conformal_killing_suite():
    # Dimensions 2 and 3: differential conformality 1e-7, scale-factor
    # cocycle 1e-7, weighted-pairing invariance 1e-6 for boosts of rapidity
    # at most 1 on order-40 grids, chart covariance 1e-6 at 50 random
    # points, and rotation plus conformal-gradient fields annihilated by
    # the conformal Killing operator to 1e-8.
    for n in (2, 3):
        rng = np.random.default_rng(100 + n)
        grid = sphere_grid(n, 40)

        for _ in range(5):
            a = random_moebius(rng, n, 1.0)
            b = random_moebius(rng, n, 1.0)
            y = rng.normal(size=n + 1)
            y /= np.linalg.norm(y)
            assert conformality_residual(a, y) <= 1e-7
            assert cocycle_residual(a, b, y) <= 1e-7

        h = random_band_limited_field(rng, n)
        k = random_band_limited_field(rng, n)
        boosts = [moebius_boost(n, n, 1.0), moebius_boost(n, 0, 0.5)]
        boosts.append(compose(moebius_boost(n, 1, 0.8), moebius_boost(n, 0, 0.2)))
        # The pairing check is relative to 1 + |<h, k>|; this bound is absolute.
        scale = 1 + abs(pairing(h, k, grid))
        for boost in boosts:
            assert check_pairing_invariance(h, k, boost, grid) * scale <= 1e-6

        lin = rng.normal(size=(n, n))
        const = rng.normal(size=n)

        def vec_field(x, lin=lin, const=const):
            return const + lin @ x + 0.3 * x * float(x @ x)

        phi = compose_chart(
            chart_translation(np.full(n, 0.7)),
            chart_inversion(),
            chart_dilation(1.3),
        )
        points = rng.normal(size=(50, n)) * 0.8
        assert check_ahlfors_covariance(vec_field, phi, points) <= 1e-6

        samples = rng.normal(size=(6, n)) * 0.9
        for fld in sphere_conformal_fields(n):
            for x in samples:
                assert np.max(np.abs(ahlfors_chart(fld, x))) <= 1e-8


def test_criterion_10_bracket_semidefiniteness_and_null_ray():
    # At s = 0 the second-order bracket is positive semidefinite and the
    # first-order-square bracket negative semidefinite for every n in
    # [3, 13]; the boundary ray k proportional to the transverse projector
    # makes both forms vanish to 1e-12.
    rng = np.random.default_rng(7)
    for n in range(3, 14):
        coeffs_l = bracket_L(n, 0)
        coeffs_d = bracket_D2(n, 0)
        assert bracket_definiteness(coeffs_l, n - 1) is FormDefiniteness.POS_SEMIDEF
        assert bracket_definiteness(coeffs_d, n - 1) is FormDefiniteness.NEG_SEMIDEF
        xi = rng.normal(size=n)
        point = PointData(n=n, k=point_projector(xi), xi=xi)
        for coeffs in (coeffs_l, coeffs_d):
            value = evaluate_form(coeffs, 1.0, point, 0.0)
            assert abs(value) <= 1e-12
