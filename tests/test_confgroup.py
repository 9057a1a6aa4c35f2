"""Moebius action, conformal factors, tensor pairings, and the chart-level
conformal Killing operator."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spherehess import confgroup
from spherehess._nanmax import nan_max
from spherehess.cli import console_main
from spherehess.errors import Degenerate, DomainError
from spherehess.confgroup import (
    ChartMap,
    RepWeight,
    act,
    act_many,
    ahlfors_chart,
    chart_dilation,
    chart_inversion,
    chart_lambda,
    chart_rotation,
    chart_translation,
    check_ahlfors_covariance,
    check_pairing_invariance,
    cocycle_residual,
    compose,
    compose_chart,
    conformal_factor,
    conformality_residual,
    differential,
    differential_many,
    frame_at,
    inverse,
    inverse_stereographic,
    kernel_field_residual,
    lorentz_form_residual,
    metric_field,
    moebius_boost,
    moebius_identity,
    moebius_rotation,
    pairing,
    polynomial_tensor_field,
    pullback_field,
    random_band_limited_field,
    random_chart_map,
    random_moebius,
    sphere_conformal_fields,
    sphere_grid,
    sphere_monomial_integral,
    stereographic,
    u_action,
)
from spherehess.exact import sphere_volume

# ``verify --suite confgroup --format json`` stdout by its other options.
_VERIFY_CONFGROUP_JSON = json.loads(
    (Path(__file__).parent / "data" / "verify_confgroup_json.json").read_text())


def _unit(rng, dim):
    y = rng.normal(size=dim)
    return y / np.linalg.norm(y)


class TestGroup:
    def test_lorentz_form_enforced(self):
        bad = np.eye(5)
        bad[0, 0] = 2.0
        with pytest.raises(DomainError):
            from spherehess.confgroup import MoebiusElement

            MoebiusElement(n=3, matrix=bad)

    @pytest.mark.parametrize("n", [2, 3])
    def test_action_stays_on_sphere_and_inverts(self, n):
        rng = np.random.default_rng(0)
        a = random_moebius(rng, n, 1.0)
        assert lorentz_form_residual(a) < 1e-12
        y = _unit(rng, n + 1)
        z = act(a, y)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-12
        assert np.max(np.abs(act(inverse(a), z) - y)) < 1e-11

    def test_identity_and_composition(self):
        rng = np.random.default_rng(1)
        a = random_moebius(rng, 2, 0.8)
        b = random_moebius(rng, 2, 0.8)
        y = _unit(rng, 3)
        assert np.max(np.abs(act(moebius_identity(2), y) - y)) == 0.0
        assert np.max(np.abs(act(compose(a, b), y) - act(a, act(b, y)))) < 1e-12

    def test_boost_fixed_points_and_factors(self):
        s = 0.7
        north = np.array([0.0, 0.0, 1.0])
        boost = moebius_boost(2, 2, s)
        assert np.max(np.abs(act(boost, north) - north)) < 1e-15
        assert conformal_factor(boost, north) == pytest.approx(math.exp(-s))
        assert conformal_factor(boost, -north) == pytest.approx(math.exp(s))

    def test_rotation_is_isometry(self):
        rot = moebius_rotation(3, 0, 2, 0.9)
        rng = np.random.default_rng(2)
        for _ in range(5):
            y = _unit(rng, 4)
            assert conformal_factor(rot, y) == pytest.approx(1.0, abs=1e-15)

    def test_time_reversal_outside_identity_component(self):
        mat = np.eye(4)
        mat[3, 3] = -1.0
        from spherehess.confgroup import MoebiusElement

        flip = MoebiusElement(n=2, matrix=mat)
        with pytest.raises(Degenerate):
            conformal_factor(flip, np.array([0.0, 0.0, 1.0]))

    def test_nan_rotation_angle_is_refused(self):
        # A NaN residual passed the Lorentz-form gate: an all-NaN element.
        with pytest.raises(DomainError, match=r"Lorentz form by nan"):
            moebius_rotation(2, 0, 1, math.nan)

    def test_boost_axis_outside_the_dimension_is_refused(self):
        # This was a bare IndexError.
        with pytest.raises(DomainError, match=r"^boost direction = 5 is not an axis 0\.\.2$"):
            moebius_boost(2, 5, 1.0)

    def test_boost_rapidity_overflowing_cosh_is_refused(self):
        # This was a bare OverflowError from math.cosh.
        with pytest.raises(DomainError, match=(
                r"^boost rapidity = 1000\.0: cosh is not a finite float$")):
            moebius_boost(2, [1, 0, 0], 1000.0)


class TestDifferential:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_jacobian_matches_finite_difference(self, n):
        rng = np.random.default_rng(3)
        a = random_moebius(rng, n, 1.0)
        y = _unit(rng, n + 1)
        jac = differential(a, y)
        frame = frame_at(y)
        h = 1e-6
        for col in range(n):
            v = frame[:, col]
            yp = (y + h * v) / np.linalg.norm(y + h * v)
            ym = (y - h * v) / np.linalg.norm(y - h * v)
            fd = (act(a, yp) - act(a, ym)) / (2 * h)
            assert np.max(np.abs(jac @ v - fd)) < 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_conformality_and_cocycle(self, n):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = random_moebius(rng, n, 1.0)
            b = random_moebius(rng, n, 1.0)
            y = _unit(rng, n + 1)
            assert conformality_residual(a, y) <= 1e-7
            assert cocycle_residual(a, b, y) <= 1e-7

    @pytest.mark.parametrize("y", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                   [0.0, -np.inf, 1.0]], ids=["zero", "nan", "inf"])
    def test_point_without_a_tangent_space_is_refused(self, y):
        # The zero point gave an all-NaN frame and a quiet NaN residual.
        y = np.array(y)
        message = r"^frame_at needs a point of finite nonzero norm, got (0\.0|nan|inf)$"
        with pytest.raises(DomainError, match=message):
            frame_at(y)
        with pytest.raises(DomainError, match=message):
            conformality_residual(moebius_boost(2, 0, 0.5), y)

    def test_overflowing_norm_is_refused_without_a_warning(self):
        # numpy's norm warned of the overflow before the point was refused,
        # and the warnings filter turns that warning into the failure.
        with pytest.raises(DomainError, match=r"finite nonzero norm, got inf$"):
            conformality_residual(moebius_boost(2, 0, 0.5), [1e300, 1e300, 0.0])


class TestGrids:
    @pytest.mark.parametrize("n", [2, 3])
    def test_weights_sum_to_volume(self, n):
        g = sphere_grid(n, 40)
        assert abs(float(np.sum(g.weights)) - sphere_volume(n)) < 1e-10 * sphere_volume(n)

    def test_monomial_exactness(self):
        g2 = sphere_grid(2, 40)
        for alpha in [(2, 0, 0), (0, 4, 0), (2, 2, 2), (0, 0, 8), (3, 1, 0)]:
            vals = np.prod(g2.nodes ** np.array(alpha), axis=1)
            assert g2.integrate(vals) == pytest.approx(
                sphere_monomial_integral(alpha), abs=1e-10
            )
        g3 = sphere_grid(3, 40)
        for alpha in [(2, 0, 0, 0), (0, 2, 2, 0), (0, 0, 0, 6), (2, 2, 2, 2)]:
            vals = np.prod(g3.nodes ** np.array(alpha), axis=1)
            assert g3.integrate(vals) == pytest.approx(
                sphere_monomial_integral(alpha), abs=1e-10
            )

    def test_monomial_oracle(self):
        # integral of y_1^2 over S^2 is vol/3 = 4 pi / 3
        assert sphere_monomial_integral((2, 0, 0)) == pytest.approx(
            4 * math.pi / 3, rel=1e-14
        )
        assert sphere_monomial_integral((1, 0, 0)) == 0.0

    def test_nan_weight_is_refused(self):
        # A NaN weight sum passed the volume gate.
        with pytest.raises(DomainError, match=r"^weights sum nan differs"):
            confgroup.SphereGrid(2, np.zeros((2, 3)), np.array([math.nan, 1.0]))

    def test_round_metric_pairing(self):
        for n in (2, 3):
            g = sphere_grid(n, 40)
            met = metric_field(n)
            assert pairing(met, met, g) == pytest.approx(
                n * sphere_volume(n), rel=1e-12
            )


class TestTensorAction:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pairing_invariance(self, n):
        rng = np.random.default_rng(5)
        g = sphere_grid(n, 40)
        h = random_band_limited_field(rng, n)
        k = random_band_limited_field(rng, n)
        a = random_moebius(rng, n, 1.0)
        assert check_pairing_invariance(h, k, a, g) <= 1e-6

    @pytest.mark.parametrize("h_dim, k_dim, grid_dim", [(3, 3, 2), (2, 3, 2), (3, 2, 3)])
    def test_pairing_refuses_mismatched_dimensions(self, h_dim, k_dim, grid_dim):
        # S^3 fields on an S^2 grid used to raise a bare IndexError.
        rng = np.random.default_rng(12)
        h = random_band_limited_field(rng, h_dim)
        k = random_band_limited_field(rng, k_dim)
        g = sphere_grid(grid_dim, 6)
        a = random_moebius(rng, grid_dim, 1.0)
        message = (rf"^dimension mismatch: fields on S\^{h_dim} and S\^{k_dim}, "
                   rf"grid on S\^{grid_dim}$")
        with pytest.raises(DomainError, match=message):
            pairing(h, k, g)
        with pytest.raises(DomainError, match=message):
            check_pairing_invariance(h, k, a, g)

    @pytest.mark.parametrize("field", ["polynomial", "metric", "pullback", "u_action"])
    @pytest.mark.parametrize("call", ["raw", "evaluate"])
    def test_field_refuses_points_of_another_sphere(self, field, call):
        # Each died with a bare IndexError or a numpy ValueError.
        rng = np.random.default_rng(15)
        f3 = random_band_limited_field(rng, 3)
        a = random_moebius(rng, 3, 1.0)
        fld = {"polynomial": f3, "metric": metric_field(3),
               "pullback": pullback_field(a, f3),
               "u_action": u_action(RepWeight.of(3, 1), a, f3)}[field]
        with pytest.raises(DomainError, match=(
                r"^dimension mismatch: points of shape \(78, 3\) for a field "
                r"on S\^3, which takes width 4$")):
            getattr(fld, call)(sphere_grid(2, 6).nodes)

    def test_pairing_check_refuses_an_element_of_another_dimension(self):
        rng = np.random.default_rng(13)
        h = random_band_limited_field(rng, 2)
        g = sphere_grid(2, 6)
        with pytest.raises(DomainError, match=r"element on S\^3, grid on S\^2$"):
            check_pairing_invariance(h, h, random_moebius(rng, 3, 1.0), g)

    def test_pairing_check_is_relative_to_one_plus_the_pairing(self):
        rng = np.random.default_rng(14)
        g = sphere_grid(2, 10)
        h = random_band_limited_field(rng, 2)
        k = random_band_limited_field(rng, 2)
        a = random_moebius(rng, 2, 1.0)
        base, moved = confgroup._pairing_terms(h, k, a, g)
        assert check_pairing_invariance(h, k, a, g) == abs(base - moved) / (1 + abs(base))

    def test_u_action_is_a_right_action(self):
        rng = np.random.default_rng(6)
        n = 2
        g = sphere_grid(n, 20)
        w = RepWeight.of(n, Fraction(1, 2))
        fld = random_band_limited_field(rng, n)
        a = random_moebius(rng, n, 0.7)
        b = random_moebius(rng, n, 0.7)
        combined = u_action(w, compose(a, b), fld).sample(g)
        nested = u_action(w, b, u_action(w, a, fld)).sample(g)
        scale = np.max(np.abs(combined)) + 1e-30
        assert np.max(np.abs(combined - nested)) / scale < 1e-12

    def test_pullback_by_rotation_rotates_values(self):
        n = 2
        const = np.diag([1.0, -1.0, 0.0])
        fld = polynomial_tensor_field(n, const)
        rot = moebius_rotation(n, 0, 1, 0.5)
        pulled = pullback_field(rot, fld)
        rng = np.random.default_rng(7)
        ys = np.stack([_unit(rng, 3) for _ in range(4)])
        rmat = rot.matrix[:3, :3]
        want = fld.evaluate(ys @ rmat.T)
        got = pulled.evaluate(ys)
        moved = np.einsum("ji,njk,kl->nil", rmat, want, rmat)
        assert np.max(np.abs(got - moved)) < 1e-12

    def test_rep_weight_validation(self):
        with pytest.raises(DomainError):
            RepWeight(n=2, rho=Fraction(3, 2), nu=Fraction(0))
        assert RepWeight.of(3, Fraction(-3, 2)).pullback_exponent == -2.0


def _whole_grid_pairing(h, k, g):
    return g.integrate(np.einsum("nij,nij->n", h.sample(g), k.sample(g)))


# The one-point chart code that the batched kernels replaced, kept as the
# oracle of their bits: each primitive and each map walks one point, the
# Ahlfors operator takes four field calls per axis, and the covariance
# check loops over the points.
_KIND = confgroup._PrimitiveKind


def _pointwise_apply(prim, x):
    if prim.kind is _KIND.TRANSLATION:
        return x + prim.vector
    if prim.kind is _KIND.DILATION:
        return prim.scale * x
    if prim.kind is _KIND.ROTATION:
        return prim.rotation @ x
    return x / float(x @ x)


def _pointwise_frame(phi, x):
    """(phi(x), J(x), mu(x)) by the map's own walks over its primitives."""
    x = np.asarray(x, dtype=float)
    dim = len(x)
    jac, mu = np.eye(dim), 1.0
    for prim in phi.primitives:
        if prim.kind is _KIND.TRANSLATION:
            step = np.eye(dim)
        elif prim.kind is _KIND.DILATION:
            step = prim.scale * np.eye(dim)
            mu *= abs(prim.scale)
        elif prim.kind is _KIND.ROTATION:
            step = np.array(prim.rotation, dtype=float)
        else:
            r2 = float(x @ x)
            step = (np.eye(dim) - 2.0 * np.outer(x, x) / r2) / r2
            mu *= 1.0 / r2
        jac = step @ jac
        x = _pointwise_apply(prim, x)
    return x, jac, mu


def _pointwise_lambda(x):
    return 2.0 / (1.0 + float(x @ x))


def _pointwise_ahlfors(vec_field, x):
    h = confgroup._FD_STEP
    dim = len(x)
    lam = _pointwise_lambda(x)
    value = np.asarray(vec_field(x), dtype=float)
    dmat = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        fp2 = np.asarray(vec_field(x + 2 * e), dtype=float)
        fp1 = np.asarray(vec_field(x + e), dtype=float)
        fm1 = np.asarray(vec_field(x - e), dtype=float)
        fm2 = np.asarray(vec_field(x - 2 * e), dtype=float)
        dmat[i, :] = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    lie = (-2.0 * lam**3 * float(x @ value) * np.eye(dim)
           + lam**2 * (dmat + dmat.T))
    div_g = float(np.trace(dmat)) - dim * lam * float(x @ value)
    return lie - (2.0 / dim) * div_g * lam**2 * np.eye(dim)


def _pointwise_covariance(vec_field, phi, points):
    def pulled_field(x):
        image, jac, _ = _pointwise_frame(phi, x)
        return np.linalg.solve(jac, np.asarray(vec_field(image), float))

    worst = 0.0
    for x in np.asarray(points, dtype=float):
        image, jac, mu = _pointwise_frame(phi, x)
        omega = mu * _pointwise_lambda(image) / _pointwise_lambda(x)
        lhs = jac.T @ _pointwise_ahlfors(vec_field, image) @ jac
        lhs /= omega**2
        rhs = _pointwise_ahlfors(pulled_field, x)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _cubic_field(rng, n):
    const = rng.normal(size=n)
    lin = rng.normal(size=(n, n))
    return lambda x: const + lin @ x + 0.3 * x * float(x @ x)


def _seeded_chart_map(rng, n, inverted):
    """random_chart_map, or one with two inversions between such maps."""
    phi = random_chart_map(rng, n, max_log_scale=1.0)
    if not inverted:
        return phi
    return compose_chart(phi, chart_inversion(), random_chart_map(rng, n, 0.5),
                         chart_inversion())


class TestSameBits:
    """The blocked, node-last kernels against the formulas they replace.

    Each comparison is bitwise and made in one process, so it holds on any
    machine and BLAS, not only where the CLI goldens were recorded.
    """

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_pullback_kernel_is_einsum(self, n, seed):
        rng = np.random.default_rng(seed)
        ys = rng.normal(size=(777, n + 1))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        fld = random_band_limited_field(rng, n)
        elements = [
            random_moebius(rng, n, 1.0),
            moebius_boost(n, seed % (n + 1), 0.9),
            compose(moebius_rotation(n, 0, n, 0.3), random_moebius(rng, n, 0.5)),
        ]
        for a in elements:
            jac = differential_many(a, ys)
            values = fld.evaluate(act_many(a, ys))
            want = np.einsum("nji,njk,nkl->nil", jac, values, jac)
            got = confgroup._pullback_matrices(jac, values)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_projectors_are_the_broadcast_formula(self, n):
        rng = np.random.default_rng(20 + n)
        ys = rng.normal(size=(513, n + 1))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        want = np.eye(n + 1)[None, :, :] - ys[:, :, None] * ys[:, None, :]
        got = confgroup._tangent_projectors(ys)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_polynomial_raw_is_the_broadcast_formula(self, n):
        rng = np.random.default_rng(30 + n)
        dim = n + 1

        def sym():
            m = rng.normal(size=(dim, dim))
            return m + m.T

        constant = sym()
        linear = [sym() for _ in range(dim)]
        quadratic = [(0, 0, sym()), (0, n, sym()), (1, 2, sym())]
        fld = polynomial_tensor_field(n, constant, linear, quadratic)
        ys = rng.normal(size=(301, dim))
        want = np.broadcast_to(constant, (len(ys), dim, dim)).copy()
        for a, mat in enumerate(linear):
            want += ys[:, a, None, None] * mat[None, :, :]
        for a, b, mat in quadratic:
            want += (ys[:, a] * ys[:, b])[:, None, None] * mat[None, :, :]
        got = fld.raw(ys)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pairing_is_the_whole_grid_pairing(self, n):
        # S^2: 3,240 nodes, 4 blocks of 810; S^3: 129,600 nodes, not a
        # multiple of the block size, so 127 blocks of 1,020 or 1,021.
        rng = np.random.default_rng(40 + n)
        g = sphere_grid(n, 40)
        h = random_band_limited_field(rng, n)
        k = random_band_limited_field(rng, n)
        assert pairing(h, k, g) == _whole_grid_pairing(h, k, g)

    @pytest.mark.parametrize("n", [2, 3])
    def test_u_action_raw_is_the_three_call_formula(self, n):
        # act_many, differential_many and conformal_factor_many each ran the
        # Lorentz product; the pullback now runs it once for phi and J.
        rng = np.random.default_rng(60 + n)
        ys = rng.normal(size=(777, n + 1))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        fld = random_band_limited_field(rng, n)
        for nu in (Fraction(-n, 2), Fraction(n, 2), Fraction(1, 3)):
            w = RepWeight.of(n, nu)
            a = random_moebius(rng, n, 1.0)
            jac = differential_many(a, ys)
            pulled = np.einsum("nji,njk,nkl->nil",
                               jac, fld.evaluate(act_many(a, ys)), jac)
            omega = confgroup.conformal_factor_many(a, ys)
            want = omega[:, None, None] ** w.pullback_exponent * pulled
            assert np.array_equal(pullback_field(a, fld).raw(ys), pulled)
            assert np.array_equal(u_action(w, a, fld).raw(ys), want)

    def test_pulled_back_pairing_is_independent_of_the_block(self, monkeypatch):
        n = 2
        rng = np.random.default_rng(50)
        g = sphere_grid(n, 60)  # 7,260 nodes: 8 blocks of 907 or 908
        hw = u_action(RepWeight.of(n, Fraction(-n, 2)),
                      random_moebius(rng, n, 1.0), random_band_limited_field(rng, n))
        kw = u_action(RepWeight.of(n, Fraction(n, 2)),
                      random_moebius(rng, n, 1.0), random_band_limited_field(rng, n))
        want = _whole_grid_pairing(hw, kw, g)
        assert pairing(hw, kw, g) == want
        # Stepping by 7,259 would leave a one-node tail.
        for block in (3, 1000, len(g.nodes) - 1):
            monkeypatch.setattr(confgroup, "_BLOCK", block)
            assert pairing(hw, kw, g) == want


    @pytest.mark.parametrize("n,order", [(2, 40), (3, 12)])
    def test_fused_terms_are_the_two_pairings(self, n, order):
        # S^2: 3,240 nodes in 4 blocks; S^3: 3,600 nodes in 4 blocks.
        rng = np.random.default_rng(70 + n)
        g = sphere_grid(n, order)
        h = random_band_limited_field(rng, n)
        k = random_band_limited_field(rng, n)
        elements = [
            random_moebius(rng, n, 1.0),
            moebius_boost(n, n, 0.9),
            compose(moebius_rotation(n, 0, n, 0.3), moebius_boost(n, 1, 0.7)),
        ]
        base = pairing(h, k, g)
        assert base == _whole_grid_pairing(h, k, g)
        for a in elements:
            hw = u_action(RepWeight.of(n, Fraction(-n, 2)), a, h)
            kw = u_action(RepWeight.of(n, Fraction(n, 2)), a, k)
            moved = pairing(hw, kw, g)
            assert moved == _whole_grid_pairing(hw, kw, g)
            assert confgroup._pairing_terms(h, k, a, g) == (base, moved)

    def test_fused_terms_are_independent_of_the_block(self, monkeypatch):
        n = 2
        rng = np.random.default_rng(80)
        g = sphere_grid(n, 24)  # 1,176 nodes: 2 blocks
        h = random_band_limited_field(rng, n)
        k = random_band_limited_field(rng, n)
        a = random_moebius(rng, n, 1.0)
        want = confgroup._pairing_terms(h, k, a, g)
        for block in (3, 1000, len(g.nodes) - 1):
            monkeypatch.setattr(confgroup, "_BLOCK", block)
            assert confgroup._pairing_terms(h, k, a, g) == want

    def test_fused_terms_refuse_a_time_reversal_as_u_action_does(self):
        n = 2
        mat = np.eye(n + 2)
        mat[n + 1, n + 1] = -1.0
        flip = confgroup.MoebiusElement(n=n, matrix=mat)
        rng = np.random.default_rng(90)
        g = sphere_grid(n, 10)
        h = random_band_limited_field(rng, n)
        k = random_band_limited_field(rng, n)
        message = (r"^nonpositive normalizing coordinate: element outside "
                   r"the identity component$")
        with pytest.raises(Degenerate, match=message):
            confgroup._pairing_terms(h, k, flip, g)
        with pytest.raises(Degenerate, match=message):
            u_action(RepWeight.of(n, Fraction(-n, 2)), flip, h).raw(g.nodes)
        # The plain pullback needs no conformal factor and still accepts it.
        assert np.all(np.isfinite(pullback_field(flip, h).raw(g.nodes)))


    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("inverted", [False, True])
    def test_chart_frames_are_the_pointwise_walk(self, n, inverted):
        rng = np.random.default_rng(100 + 10 * n + inverted)
        phi = _seeded_chart_map(rng, n, inverted)
        xs = rng.normal(size=(61, n)) * 0.7
        images, jacs, mus = confgroup._chart_frames(phi, xs)
        for x, image, jac, mu in zip(xs, images, jacs, mus):
            want_image, want_jac, want_mu = _pointwise_frame(phi, x)
            assert np.array_equal(image, want_image)
            assert np.array_equal(jac, want_jac)
            assert mu == want_mu
            assert np.array_equal(phi.apply(x), want_image)
            assert np.array_equal(phi.jacobian(x), want_jac)
            assert phi.mu(x) == want_mu
            assert phi.conformal_factor_round(x) == (
                want_mu * _pointwise_lambda(want_image) / _pointwise_lambda(x))
            assert chart_lambda(x) == _pointwise_lambda(x)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_covariance_is_the_pointwise_loop(self, n, seed):
        # 16 maps per n, half of them with two inversions.
        rng = np.random.default_rng(200 + 10 * n + seed)
        vec_field = _cubic_field(rng, n)
        phi = _seeded_chart_map(rng, n, seed % 2 == 1)
        pts = rng.normal(size=(25, n)) * 0.7
        want = _pointwise_covariance(vec_field, phi, pts)
        assert check_ahlfors_covariance(vec_field, phi, pts) == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_covariance_calls_the_field_at_the_same_points(self, n):
        # The same 2 P (4n+1) arguments, bit for bit, in a new order: the
        # images' stencils first, then phi at every stencil point.
        rng = np.random.default_rng(300 + n)
        field = _cubic_field(rng, n)
        phi = _seeded_chart_map(rng, n, True)
        pts = rng.normal(size=(7, n)) * 0.7
        seen = {"batched": [], "pointwise": []}

        def recorder(key):
            def vec_field(x):
                seen[key].append(x.tobytes())
                return field(x)
            return vec_field

        check_ahlfors_covariance(recorder("batched"), phi, pts)
        _pointwise_covariance(recorder("pointwise"), phi, pts)
        assert len(seen["batched"]) == 2 * len(pts) * (4 * n + 1)
        assert sorted(seen["batched"]) == sorted(seen["pointwise"])

    @pytest.mark.parametrize("n", [2, 3])
    def test_kernel_fields_worst_is_the_pointwise_worst(self, n):
        # verify --suite confgroup takes one batched call per field.
        rng = np.random.default_rng(400 + n)
        pts = rng.normal(size=(10, n)) * 0.8
        fields = sphere_conformal_fields(n)
        got = kernel_field_residual(n, pts)
        want = nan_max(float(np.max(np.abs(_pointwise_ahlfors(fld, x))))
                       for fld in fields for x in pts)
        assert got == want
        for x in pts[:3]:
            assert np.array_equal(ahlfors_chart(fields[0], x),
                                  _pointwise_ahlfors(fields[0], x))

    @pytest.mark.parametrize("shape", [(0, 2), (4, 3), (2,)])
    def test_kernel_fields_refuse_points_of_another_shape(self, shape):
        with pytest.raises(DomainError, match=r"non-empty \(P, 2\) array"):
            kernel_field_residual(2, np.ones(shape))

    @pytest.mark.parametrize("case", sorted(_VERIFY_CONFGROUP_JSON))
    def test_verify_confgroup_output_is_unchanged(self, capsys, case):
        # JSON prints every residual's repr; recorded with numpy 2.4.6 and
        # OpenBLAS on x86-64 before the chart kernels were batched.
        code = console_main(["verify", "--suite", "confgroup", *case.split(),
                             "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == _VERIFY_CONFGROUP_JSON[case]


class TestChart:
    def test_stereographic_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.normal(size=3)
            assert np.max(np.abs(stereographic(inverse_stereographic(x)) - x)) < 1e-12

    def test_chart_map_jacobians(self):
        rng = np.random.default_rng(9)
        qmat, rmat = np.linalg.qr(rng.normal(size=(3, 3)))
        qmat = qmat @ np.diag(np.sign(np.diag(rmat)))
        phi = compose_chart(
            chart_translation([0.3, -0.2, 0.5]),
            chart_rotation(qmat),
            chart_inversion(),
            chart_dilation(1.7),
        )
        x = np.array([0.4, 0.1, -0.3])
        h = 1e-6
        jac = phi.jacobian(x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (phi.apply(x + e) - phi.apply(x - e)) / (2 * h)
            assert np.max(np.abs(jac[:, i] - fd)) < 1e-6
        # conformal scale consistency: J^T J = mu^2 Id
        gram = jac.T @ jac
        assert np.max(np.abs(gram - phi.mu(x) ** 2 * np.eye(3))) < 1e-12

    def test_inversion_at_origin_degenerate(self):
        with pytest.raises(Degenerate):
            chart_inversion().apply(np.zeros(2))

    def test_nan_rotation_matrix_is_refused(self):
        # A NaN entry passed the orthogonality gate; apply gave [nan, 1.0].
        with pytest.raises(DomainError, match="must be orthogonal"):
            chart_rotation([[math.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_dilation_is_refused(self, s):
        # These built maps whose images were NaN or inf.
        with pytest.raises(DomainError, match=rf"^dilation scale s = {s!r} must be finite$"):
            chart_dilation(s)

    def test_non_finite_translation_is_refused(self):
        with pytest.raises(DomainError, match=(
                r"^translation vector v = \[nan, 0\.0\] must be finite$")):
            chart_translation([math.nan, 0.0])

    def test_round_factor_matches_metric_pullback(self):
        phi = compose_chart(chart_translation([1.0, 0.5]), chart_dilation(0.6))
        x = np.array([0.2, -0.7])
        jac = phi.jacobian(x)
        lhs = chart_lambda(phi.apply(x)) ** 2 * (jac.T @ jac)
        om = phi.conformal_factor_round(x)
        rhs = om**2 * chart_lambda(x) ** 2 * np.eye(2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestAhlfors:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_flat_operator_times_lambda_squared(self, n):
        # S_g X = lambda^2 (dX + dX^T - (2/n) div X) for the round chart metric
        rng = np.random.default_rng(10)
        lin = rng.normal(size=(n, n))
        const = rng.normal(size=n)

        def vec_field(x):
            return const + lin @ x

        x = rng.normal(size=n) * 0.8
        lam = chart_lambda(x)
        flat = lin + lin.T - (2.0 / n) * np.trace(lin) * np.eye(n)
        got = ahlfors_chart(vec_field, x)
        assert np.max(np.abs(got - lam**2 * flat)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_trace_free_with_respect_to_g(self, n):
        rng = np.random.default_rng(11)
        lin = rng.normal(size=(n, n))

        def vec_field(x):
            return lin @ x + 0.4 * x * float(x @ x)

        x = rng.normal(size=n) * 0.6
        s = ahlfors_chart(vec_field, x)
        assert abs(np.trace(s)) / chart_lambda(x) ** 2 < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_conformal_fields_span_kernel(self, n):
        rng = np.random.default_rng(12)
        fields = sphere_conformal_fields(n)
        assert len(fields) == (n + 1) * (n + 2) // 2
        pts = rng.normal(size=(6, n)) * 0.9
        for fld in fields:
            for x in pts:
                assert np.max(np.abs(ahlfors_chart(fld, x))) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_covariance_under_chart_moebius_maps(self, n):
        rng = np.random.default_rng(13)
        lin = rng.normal(size=(n, n))
        const = rng.normal(size=n)

        def vec_field(x):
            return const + lin @ x + 0.3 * x * float(x @ x)

        phi = compose_chart(
            chart_translation(np.full(n, 0.8)),
            chart_inversion(),
            chart_dilation(1.4),
        )
        pts = rng.normal(size=(50, n)) * 0.7
        assert check_ahlfors_covariance(vec_field, phi, pts) <= 1e-6

    @pytest.mark.parametrize("points", [np.zeros(2), np.zeros((0, 2)),
                                        np.zeros((2, 0)), np.zeros((3, 2, 1))])
    def test_covariance_refuses_points_that_are_not_a_stack(self, points):
        # A 1-D array died with a bare TypeError, and no rows gave 0.0.
        message = (r"^points must be a non-empty \(P, n\) array, got shape "
                   + re.escape(str(points.shape)) + "$")
        with pytest.raises(DomainError, match=message):
            check_ahlfors_covariance(lambda x: x, chart_dilation(1.5), points)

    @pytest.mark.parametrize("phi, part", [
        (chart_translation([0.1, 0.2, 0.3]), "translation of shape (3,)"),
        (compose_chart(chart_dilation(2.0), chart_rotation(np.eye(3))),
         "rotation of shape (3, 3)"),
    ])
    def test_covariance_refuses_a_width_the_map_does_not_fit(self, phi, part):
        # Each died with a bare numpy ValueError.
        with pytest.raises(DomainError, match=re.escape(
                f"points of shape (4, 2) do not fit the chart map's {part}")):
            check_ahlfors_covariance(lambda x: x, phi, np.ones((4, 2)))

    @pytest.mark.parametrize("phi, part", [
        (chart_translation([1.0, 2.0, 3.0]), "translation of shape (3,)"),
        (chart_rotation(np.eye(3)), "rotation of shape (3, 3)"),
    ])
    def test_one_point_methods_refuse_a_width_the_map_does_not_fit(self, phi, part):
        # Each died with a bare numpy ValueError.
        for method in (phi.apply, phi.jacobian, phi.mu, phi.conformal_factor_round):
            with pytest.raises(DomainError, match=re.escape(
                    f"points of shape (1, 2) do not fit the chart map's {part}")):
                method(np.ones(2))

    @pytest.mark.parametrize("point, shape", [(3.0, "()"), ([[1.0, 2.0]], "(1, 2)")])
    def test_one_point_methods_refuse_a_point_that_is_not_a_vector(self, point, shape):
        # The scalar died with a bare IndexError.
        phi = chart_dilation(2.0)
        for method in (phi.apply, phi.jacobian, phi.mu, phi.conformal_factor_round):
            with pytest.raises(DomainError, match=re.escape(
                    f"a point must be an (n,) array, got shape {shape}")):
                method(point)

    def test_inversion_at_a_stencil_point_is_degenerate(self):
        # x + h e_0 is the origin, a point of the pulled field's stencil.
        x = np.array([[-confgroup._FD_STEP, 0.0]])
        with pytest.raises(Degenerate, match="^inversion applied at the origin$"):
            check_ahlfors_covariance(lambda x: x, chart_inversion(), x)

    def test_a_nan_residual_is_not_dropped(self):
        # The point loop folded with the builtin max, which keeps 0.0 beside
        # a NaN: this check returned 6.3e-12 from its first point alone.
        def vec_field(x):
            return x * np.nan if x[0] > 0.5 else x

        pts = np.array([[0.1, 0.2], [0.9, 0.1]])
        assert math.isnan(check_ahlfors_covariance(vec_field, chart_dilation(1.5), pts))
