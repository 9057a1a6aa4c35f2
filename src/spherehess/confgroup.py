"""Numerical conformal group of the round sphere and its tensor actions.

The identity component of the Lorentz group O(n+1, 1) acts on S^n through
the projective formula

    A . y = (A (y, 1))_{1..n+1} / (A (y, 1))_{n+2},

a conformal transformation whose derivative satisfies
(d phi)^T (d phi) = Omega^2 Id on tangent spaces with Omega(y) = 1 / w_t,
w_t the normalizing coordinate.  On top of the action this module builds:

  * exact ambient Jacobians, conformal factors and their cocycle;
  * weighted pullback actions u_nu(phi) k = Omega^{n/2 + nu - 2} phi^* k on
    lazily-evaluated polynomial tensor fields (no interpolation: fields are
    ambient polynomial matrices projected to the tangent bundle, so they can
    be evaluated exactly at mapped points);
  * product quadrature grids on S^2 and S^3 and the L^2 tensor pairing,
    with the invariance <h, k> = <u_{-n/2} h, u_{n/2} k>;
  * the stereographic-chart conformal Killing operator
    S X = L_X g - (2/n) (div_g X) g for g = lambda^2 delta,
    lambda = 2 / (1 + |x|^2), its kernel fields, and its conformal
    covariance Omega^{-2} phi^*(S X) = S(phi^* X) under chart Moebius maps.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._nanmax import nan_max
from ._record import dataclass
from .errors import Degenerate, DomainError
from .exact import sphere_volume

__all__ = [
    "MoebiusElement",
    "moebius_identity",
    "moebius_rotation",
    "moebius_rotation_matrix",
    "moebius_boost",
    "compose",
    "inverse",
    "random_moebius",
    "lorentz_form_residual",
    "act",
    "act_many",
    "differential",
    "differential_many",
    "frame_at",
    "conformal_factor",
    "conformal_factor_many",
    "conformality_residual",
    "cocycle_residual",
    "RepWeight",
    "SphereGrid",
    "sphere_grid",
    "sphere_monomial_integral",
    "TensorField",
    "polynomial_tensor_field",
    "metric_field",
    "random_band_limited_field",
    "pullback_field",
    "u_action",
    "pairing",
    "check_pairing_invariance",
    "chart_lambda",
    "ChartPrimitive",
    "ChartMap",
    "chart_translation",
    "chart_dilation",
    "chart_rotation",
    "chart_inversion",
    "compose_chart",
    "random_chart_map",
    "ahlfors_chart",
    "inverse_stereographic",
    "stereographic",
    "sphere_conformal_fields",
    "kernel_field_residual",
    "check_ahlfors_covariance",
]


# ---------------------------------------------------------------------------
# Group elements.
# ---------------------------------------------------------------------------


def _lorentz_metric(n: int) -> np.ndarray:
    j = np.eye(n + 2)
    j[n + 1, n + 1] = -1.0
    return j


@dataclass(frozen=True)
class MoebiusElement:
    """An (n+2) x (n+2) matrix preserving diag(1, ..., 1, -1)."""

    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.n + 2, self.n + 2):
            raise DomainError(
                f"matrix must be {(self.n + 2, self.n + 2)}, got {m.shape}"
            )
        object.__setattr__(self, "matrix", m)
        res = lorentz_form_residual(self)
        if not res <= 1e-12:
            raise DomainError(
                f"matrix violates the Lorentz form by {res:.3e} (> 1e-12)"
            )


def lorentz_form_residual(a: MoebiusElement) -> float:
    """Max-entry residual of M^T J M - J."""
    j = _lorentz_metric(a.n)
    return float(np.max(np.abs(a.matrix.T @ j @ a.matrix - j)))


def moebius_identity(n: int) -> MoebiusElement:
    return MoebiusElement(n=n, matrix=np.eye(n + 2))


def moebius_rotation(n: int, axis_i: int, axis_j: int, angle: float) -> MoebiusElement:
    """Rotation by ``angle`` in the spatial (axis_i, axis_j) coordinate plane."""
    if not 0 <= axis_i < axis_j <= n:
        raise DomainError("axes must satisfy 0 <= i < j <= n")
    m = np.eye(n + 2)
    c, s = math.cos(angle), math.sin(angle)
    m[axis_i, axis_i] = c
    m[axis_j, axis_j] = c
    m[axis_i, axis_j] = -s
    m[axis_j, axis_i] = s
    return MoebiusElement(n=n, matrix=m)


def moebius_rotation_matrix(n: int, rot: np.ndarray) -> MoebiusElement:
    """Embed an orthogonal (n+1) x (n+1) matrix as a sphere isometry."""
    rot = np.asarray(rot, dtype=float)
    m = np.eye(n + 2)
    m[: n + 1, : n + 1] = rot
    return MoebiusElement(n=n, matrix=m)


def moebius_boost(n: int, direction, rapidity: float) -> MoebiusElement:
    """Hyperbolic boost of the given rapidity along a spatial direction.

    Acts in the Lorentz plane spanned by the unit spatial vector and the
    time axis; on the sphere this is a conformal dilation flowing from the
    antipode of ``direction`` toward ``direction``, an axis 0..n or a
    nonzero vector of n + 1 entries.
    """
    v = np.zeros(n + 1)
    if isinstance(direction, (int, np.integer)):
        if not 0 <= direction <= n:
            raise DomainError(f"boost direction = {direction} is not an axis "
                              f"0..{n}")
        v[int(direction)] = 1.0
    else:
        given = np.asarray(direction, dtype=float)
        if given.shape != v.shape:
            raise DomainError(f"boost direction has shape {given.shape}, expected "
                              f"{v.shape}")
        v[:] = given
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise DomainError("boost direction must be nonzero")
        v /= nrm
    try:
        c, s = math.cosh(rapidity), math.sinh(rapidity)
    except OverflowError:
        c = math.inf
    if not math.isfinite(c):
        raise DomainError(f"boost rapidity = {rapidity!r}: cosh is not a "
                          f"finite float")
    m = np.eye(n + 2)
    m[: n + 1, : n + 1] += (c - 1.0) * np.outer(v, v)
    m[: n + 1, n + 1] = s * v
    m[n + 1, : n + 1] = s * v
    m[n + 1, n + 1] = c
    return MoebiusElement(n=n, matrix=m)


def compose(a: MoebiusElement, b: MoebiusElement) -> MoebiusElement:
    """The product element; acts as a then-after b: (a b) . y = a . (b . y)."""
    if a.n != b.n:
        raise DomainError("cannot compose elements of different dimension")
    return MoebiusElement(n=a.n, matrix=a.matrix @ b.matrix)


def inverse(a: MoebiusElement) -> MoebiusElement:
    """Lorentz inverse J M^T J (exact at the matrix level)."""
    j = _lorentz_metric(a.n)
    return MoebiusElement(n=a.n, matrix=j @ a.matrix.T @ j)


def random_moebius(
    rng: np.random.Generator, n: int, max_rapidity: float = 1.0
) -> MoebiusElement:
    """Rotation * boost * rotation with rapidity drawn up to the bound."""
    def random_rotation() -> MoebiusElement:
        gauss = rng.normal(size=(n + 1, n + 1))
        q, r = np.linalg.qr(gauss)
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return moebius_rotation_matrix(n, q)

    rap = float(rng.uniform(0.1, max_rapidity))
    direction = rng.normal(size=n + 1)
    boost = moebius_boost(n, direction, rap)
    return compose(random_rotation(), compose(boost, random_rotation()))


# ---------------------------------------------------------------------------
# Action, differential, conformal factor.
# ---------------------------------------------------------------------------


def act(a: MoebiusElement, y: np.ndarray) -> np.ndarray:
    """A . y = spatial part of M (y, 1) over its last coordinate."""
    return act_many(a, np.asarray(y, dtype=float)[None, :])[0]


def act_many(a: MoebiusElement, ys: np.ndarray) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    w_s, w_t = _homogeneous(a, ys)
    return w_s / w_t[:, None]


def _homogeneous(a: MoebiusElement, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = a.n
    hom = np.concatenate([ys, np.ones((len(ys), 1))], axis=1)
    w = hom @ a.matrix.T
    w_t = w[:, n + 1]
    if np.min(np.abs(w_t)) < 1e-14:
        raise Degenerate("normalizing coordinate vanished under the action")
    return w[:, : n + 1], w_t


def differential(a: MoebiusElement, y: np.ndarray) -> np.ndarray:
    """Exact ambient Jacobian of the action at y (restricts to T_y S^n)."""
    return differential_many(a, np.asarray(y, dtype=float)[None, :])[0]


def differential_many(a: MoebiusElement, ys: np.ndarray) -> np.ndarray:
    """The Jacobians of :func:`differential` at many nodes."""
    return _moebius_frame(a, np.asarray(ys, dtype=float))[1]


def _moebius_frame(
    a: MoebiusElement, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(y) = w_s / w_t, the Jacobian d phi(y) and w_t from one Lorentz
    product, with the expressions of :func:`act_many`.

    d phi = S / w_t - phi (x) m_row / w_t for M = [[S, b], [m, d]].
    """
    n = a.n
    s_block = a.matrix[: n + 1, : n + 1]
    m_row = a.matrix[n + 1, : n + 1]
    w_s, w_t = _homogeneous(a, ys)
    phi = w_s / w_t[:, None]
    jac = phi[:, :, None] * m_row[None, None, :]
    np.subtract(s_block[None, :, :], jac, out=jac)
    jac /= w_t[:, None, None]
    return phi, jac, w_t


def frame_at(y: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of T_y S^n as columns of an (n+1, n)
    matrix; DomainError where |y| is zero or not finite."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # an infinite norm is refused next
        nrm = np.linalg.norm(y)
    if not 0 < nrm < math.inf:
        raise DomainError(f"frame_at needs a point of finite nonzero norm, got {float(nrm)!r}")
    dim = len(y)
    anchor = int(np.argmax(np.abs(y)))
    cols = []
    basis = [y / nrm]
    for i in range(dim):
        if i == anchor:
            continue
        v = np.zeros(dim)
        v[i] = 1.0
        for b in basis:
            v = v - (v @ b) * b
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-12:
            raise DomainError("degenerate frame construction")
        v /= nrm
        basis.append(v)
        cols.append(v)
    return np.stack(cols, axis=1)


def conformal_factor(a: MoebiusElement, y: np.ndarray) -> float:
    """Omega with (d phi)^T (d phi) = Omega^2 Id on T_y S^n; equals 1 / w_t."""
    return float(conformal_factor_many(a, np.asarray(y, dtype=float)[None, :])[0])


def conformal_factor_many(a: MoebiusElement, ys: np.ndarray) -> np.ndarray:
    return _omega(_homogeneous(a, np.asarray(ys, dtype=float))[1])


def _omega(w_t: np.ndarray) -> np.ndarray:
    """Omega = 1 / w_t, for elements of the identity component only."""
    if np.min(w_t) <= 0:
        raise Degenerate(
            "nonpositive normalizing coordinate: element outside the "
            "identity component"
        )
    return 1.0 / w_t


def conformality_residual(a: MoebiusElement, y: np.ndarray) -> float:
    """Relative deviation of the differential's Gram matrix from Omega^2 Id."""
    y = np.asarray(y, dtype=float)
    fr = frame_at(y)
    jf = differential(a, y) @ fr
    gram = jf.T @ jf
    omega2 = conformal_factor(a, y) ** 2
    dim = gram.shape[0]
    return float(np.max(np.abs(gram - omega2 * np.eye(dim))) / omega2)


def cocycle_residual(a: MoebiusElement, b: MoebiusElement, y: np.ndarray) -> float:
    """Relative residual of Omega_{ab}(y) = Omega_a(b . y) Omega_b(y)."""
    y = np.asarray(y, dtype=float)
    lhs = conformal_factor(compose(a, b), y)
    rhs = conformal_factor(a, act(b, y)) * conformal_factor(b, y)
    return abs(lhs - rhs) / abs(lhs)


# ---------------------------------------------------------------------------
# Quadrature grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature nodes and weights on S^n (n = 2 or 3)."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        total = float(np.sum(self.weights))
        vol = sphere_volume(self.n)
        if not abs(total - vol) <= 1e-10 * vol:
            raise DomainError(
                f"weights sum {total!r} differs from vol(S^{self.n}) = {vol!r}"
            )

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(np.asarray(values, dtype=float), self.weights))


def sphere_grid(n: int, order: int = 40) -> SphereGrid:
    """Gauss-type product grid exact on spherical polynomials up to ``order``.

    S^2: Gauss-Legendre in cos(theta) x trapezoid in the azimuth.
    S^3: Gauss-Chebyshev (second kind, weight sin^2) in the polar angle x
         Gauss-Legendre x trapezoid.
    """
    if order < 2:
        raise DomainError("order must be >= 2")
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(order)
    n_phi = 2 * order + 1
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2 * np.pi / n_phi
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    if n == 2:
        u = gl_nodes[:, None]
        s = np.sqrt(1 - gl_nodes**2)[:, None]
        nodes = np.stack(
            [
                (s * cos_phi[None, :]).ravel(),
                (s * sin_phi[None, :]).ravel(),
                (u * np.ones_like(cos_phi)[None, :]).ravel(),
            ],
            axis=1,
        )
        weights = (gl_weights[:, None] * w_phi * np.ones(n_phi)[None, :]).ravel()
        return SphereGrid(n=2, nodes=nodes, weights=weights)
    if n == 3:
        m = order
        kk = np.arange(1, m + 1)
        theta1 = kk * np.pi / (m + 1)
        w1 = np.pi / (m + 1) * np.sin(theta1) ** 2
        cos1, sin1 = np.cos(theta1), np.sin(theta1)
        u2 = gl_nodes
        s2 = np.sqrt(1 - gl_nodes**2)
        # node = (sin t1 sin t2 cos p, sin t1 sin t2 sin p, sin t1 cos t2, cos t1)
        a = sin1[:, None, None] * s2[None, :, None] * cos_phi[None, None, :]
        b = sin1[:, None, None] * s2[None, :, None] * sin_phi[None, None, :]
        c = sin1[:, None, None] * u2[None, :, None] * np.ones(n_phi)[None, None, :]
        d = cos1[:, None, None] * np.ones((1, order, n_phi))
        nodes = np.stack([a.ravel(), b.ravel(), c.ravel(), d.ravel()], axis=1)
        weights = (
            w1[:, None, None] * gl_weights[None, :, None] * w_phi
            * np.ones(n_phi)[None, None, :]
        ).ravel()
        return SphereGrid(n=3, nodes=nodes, weights=weights)
    raise DomainError("grids implemented for n in {2, 3}")


def sphere_monomial_integral(exponents: Sequence[int]) -> float:
    """Exact integral of prod y_i^{a_i} over the unit sphere in R^{len(a)}.

    Zero unless every exponent is even; otherwise
    2 prod Gamma((a_i+1)/2) / Gamma((sum a_i + dim)/2).
    """
    alphas = list(exponents)
    if any(a < 0 for a in alphas):
        raise DomainError("exponents must be nonnegative")
    if any(a % 2 for a in alphas):
        return 0.0
    dim = len(alphas)
    num = 2.0
    for a in alphas:
        num *= math.gamma((a + 1) / 2)
    return num / math.gamma((sum(alphas) + dim) / 2)


# ---------------------------------------------------------------------------
# Tensor fields and the weighted pullback action.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepWeight:
    """Conformal weight data (rho = n/2 always; nu the free parameter)."""

    n: int
    rho: Fraction
    nu: Fraction

    def __post_init__(self) -> None:
        if self.rho != Fraction(self.n, 2):
            raise DomainError("rho must equal n/2")

    @classmethod
    def of(cls, n: int, nu) -> "RepWeight":
        return cls(n=n, rho=Fraction(n, 2), nu=Fraction(nu))

    @property
    def pullback_exponent(self) -> float:
        """The power of Omega in u_nu: rho + nu - 2."""
        return float(self.rho + self.nu - 2)


# The stacked ``@`` and einsum work on C-contiguous (N, d, d) arrays, whose
# per-node bits do not depend on N.  The elementwise work in between runs
# node-last, on (d, d, N) arrays, where every entry is one contiguous vector;
# its loops write each term into one buffer reused across the loop.


def _node_last(stack: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(stack.transpose(1, 2, 0))


def _node_first(stack: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(stack.transpose(2, 0, 1))


def _tangent_projectors(ys: np.ndarray) -> np.ndarray:
    """P = Id - y y^T at each node, as a C-contiguous (N, d, d) stack."""
    yt = np.ascontiguousarray(ys.T)
    dim = len(yt)
    return _node_first(np.eye(dim)[:, :, None] - yt[:, None, :] * yt[None, :, :])


def _compress(proj: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """P M P at each node: ambient matrices compressed to the tangent space."""
    return proj @ mats @ proj


@dataclass(frozen=True)
class TensorField:
    """A symmetric two-tensor field on S^n, evaluated lazily and exactly.

    ``raw`` maps an (N, n+1) array of points to (N, n+1, n+1) ambient
    symmetric matrices; evaluation compresses them to the tangent space with
    P = Id - y y^T.  Because fields are closed-form (polynomial matrices or
    exact pullbacks thereof), they can be evaluated at arbitrary mapped
    points — no interpolation step exists to fail.
    """

    n: int
    raw: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        _require_width(self.n, ys)
        return _compress(_tangent_projectors(ys), self.raw(ys))

    def sample(self, grid: SphereGrid) -> np.ndarray:
        return self.evaluate(grid.nodes)


def _require_width(n: int, ys: np.ndarray) -> None:
    """DomainError unless ys is an (N, n+1) array of points for a field on S^n."""
    shape = np.shape(ys)
    if len(shape) != 2 or shape[1] != n + 1:
        raise DomainError(f"dimension mismatch: points of shape {shape} for a field "
                          f"on S^{n}, which takes width {n + 1}")


def polynomial_tensor_field(
    n: int, constant: np.ndarray, linear: Sequence[np.ndarray] = (),
    quadratic: Sequence[tuple[int, int, np.ndarray]] = (),
) -> TensorField:
    """Field with ambient matrix C + sum_a y_a L_a + sum y_a y_b Q_{ab}."""
    dim = n + 1
    constant = 0.5 * (np.asarray(constant, float) + np.asarray(constant, float).T)
    linear = [0.5 * (np.asarray(m, float) + np.asarray(m, float).T) for m in linear]
    quadratic = [(a, b, 0.5 * (np.asarray(m, float) + np.asarray(m, float).T))
                 for a, b, m in quadratic]
    if constant.shape != (dim, dim) or any(m.shape != (dim, dim) for m in linear):
        raise DomainError(f"matrices must be {dim} x {dim}")

    def raw(ys: np.ndarray) -> np.ndarray:
        _require_width(n, ys)
        yt = np.ascontiguousarray(ys.T)
        out = np.repeat(constant[:, :, None], len(ys), axis=2)
        term = np.empty_like(out)
        for a, mat in enumerate(linear):
            out += np.multiply(yt[a], mat[:, :, None], out=term)
        monomial = np.empty(len(ys))
        for a, b, mat in quadratic:
            np.multiply(yt[a], yt[b], out=monomial)
            out += np.multiply(monomial, mat[:, :, None], out=term)
        return _node_first(out)

    return TensorField(n=n, raw=raw)


def metric_field(n: int) -> TensorField:
    """The round metric: ambient representation is the tangent projector."""
    dim = n + 1

    def raw(ys: np.ndarray) -> np.ndarray:
        _require_width(n, ys)
        return np.broadcast_to(np.eye(dim), (len(ys), dim, dim)).copy()

    return TensorField(n=n, raw=raw)


def random_band_limited_field(rng: np.random.Generator, n: int) -> TensorField:
    """Random low-degree polynomial field (degree <= 2 ambient entries)."""
    dim = n + 1
    constant = rng.normal(size=(dim, dim))
    linear = [rng.normal(size=(dim, dim)) for _ in range(dim)]
    pairs = [(int(a), int(b)) for a in range(dim) for b in range(a, dim)]
    picks = rng.choice(len(pairs), size=min(3, len(pairs)), replace=False)
    quadratic = [(pairs[i][0], pairs[i][1], rng.normal(size=(dim, dim))) for i in picks]
    return polynomial_tensor_field(n, constant, linear, quadratic)


def _pullback_matrices(jac: np.ndarray, values: np.ndarray) -> np.ndarray:
    """J^T V J at each node, equal bit for bit to
    ``np.einsum("nji,njk,nkl->nil", jac, values, jac)``.

    That einsum sums the terms (J_ji V_jk) J_kl from zero, j outer and k
    inner; this kernel adds the same terms in the same order, node-last.
    """
    jt, vt = _node_last(jac), _node_last(values)
    dim = len(jt)
    out = np.zeros_like(jt)
    row = np.empty_like(jt[0, :, None, :])
    term = np.empty_like(jt)
    for j in range(dim):
        for k in range(dim):
            np.multiply(jt[j, :, None, :], vt[j, k], out=row)
            out += np.multiply(row, jt[k, None, :, :], out=term)
    return _node_first(out)


def _weighted_pullback(
    jac: np.ndarray, omega: np.ndarray, expo: float, values: np.ndarray
) -> np.ndarray:
    """Omega^expo J^T V J at each node: u_nu's matrices from phi's frame."""
    return omega[:, None, None] ** expo * _pullback_matrices(jac, values)


def pullback_field(a: MoebiusElement, fld: TensorField) -> TensorField:
    """phi^* k with matrices J(y)^T k(phi y) J(y) (J the exact Jacobian)."""
    if a.n != fld.n:
        raise DomainError("dimension mismatch")

    def raw(ys: np.ndarray) -> np.ndarray:
        _require_width(fld.n, ys)
        phi, jac, _ = _moebius_frame(a, ys)
        return _pullback_matrices(jac, fld.evaluate(phi))

    return TensorField(n=fld.n, raw=raw)


def u_action(w: RepWeight, a: MoebiusElement, fld: TensorField) -> TensorField:
    """u_nu(phi) k = Omega^{rho + nu - 2} phi^* k (a right action)."""
    if w.n != fld.n or a.n != fld.n:
        raise DomainError("dimension mismatch")
    expo = w.pullback_exponent

    def raw(ys: np.ndarray) -> np.ndarray:
        _require_width(fld.n, ys)
        phi, jac, w_t = _moebius_frame(a, ys)
        return _weighted_pullback(jac, _omega(w_t), expo, fld.evaluate(phi))

    return TensorField(n=fld.n, raw=raw)


# Most grid nodes per block in :func:`pairing` and :func:`_pairing_terms`.
# A block's (N, d, d) intermediates stay in cache, and no such array of a
# whole grid is ever built.  The per-node bits do not depend on the block
# size, so it is set by measurement: of 512, 1,024, 2,048 and 4,096 nodes,
# 1,024 ran ``verify --suite confgroup --dim 3`` fastest on a 2-vCPU host,
# and 4,096 raised its peak memory by about 3 MB.
_BLOCK = 1024


def _blocks(nodes: np.ndarray) -> list[np.ndarray]:
    """Near-equal blocks of at most ``_BLOCK`` nodes.

    No block has a single node unless the grid does: numpy multiplies a
    single row by the Lorentz matrix as a matrix-vector product, whose last
    bits differ from those of the matrix product.
    """
    return np.array_split(nodes, -(-len(nodes) // _BLOCK))


def _density(proj: np.ndarray, h_raw: np.ndarray, k_raw: np.ndarray) -> np.ndarray:
    """The pointwise Frobenius pairing of two compressed fields."""
    return np.einsum("nij,nij->n", _compress(proj, h_raw), _compress(proj, k_raw))


def _require_grid_dim(h: TensorField, k: TensorField, grid: SphereGrid) -> None:
    if not h.n == k.n == grid.n:
        raise DomainError(f"dimension mismatch: fields on S^{h.n} and S^{k.n}, "
                          f"grid on S^{grid.n}")


def pairing(h: TensorField, k: TensorField, grid: SphereGrid) -> float:
    """Integral over S^n of the pointwise Frobenius pairing <h, k>.

    Both fields are evaluated over the same blocks, compressed with the
    block's one set of tangent projectors, and the pointwise density of all
    blocks is integrated once, so the value is bit for bit that of one
    whole-grid evaluation.  DomainError unless h, k and the grid share n.
    """
    _require_grid_dim(h, k, grid)
    return grid.integrate(np.concatenate([
        _density(_tangent_projectors(ys), h.raw(ys), k.raw(ys))
        for ys in _blocks(grid.nodes)
    ]))


def _pairing_terms(
    h: TensorField, k: TensorField, a: MoebiusElement, grid: SphereGrid
) -> tuple[float, float]:
    """<h, k> and <u_{-n/2}(phi) h, u_{n/2}(phi) k> on the grid, in one pass.

    Each block builds once the tangent projectors P(y), the Moebius frame
    (one Lorentz product giving phi, its Jacobian J and Omega = 1 / w_t,
    with the Degenerate checks of :func:`u_action` in its order) and
    P(phi), and feeds them to both fields and both densities.  The kernels
    are those of :func:`pairing` and :func:`u_action`, applied to the same
    operands in the same order, so the two values are bit for bit
    ``pairing(h, k, grid)`` and ``pairing(u_action(-n/2) h, u_action(n/2) k,
    grid)``.
    """
    _require_grid_dim(h, k, grid)
    n = grid.n
    if a.n != n:
        raise DomainError(f"dimension mismatch: element on S^{a.n}, grid on S^{n}")
    expo_h = RepWeight.of(n, Fraction(-n, 2)).pullback_exponent
    expo_k = RepWeight.of(n, Fraction(n, 2)).pullback_exponent
    base, moved = [], []
    for ys in _blocks(grid.nodes):
        proj = _tangent_projectors(ys)
        base.append(_density(proj, h.raw(ys), k.raw(ys)))
        phi, jac, w_t = _moebius_frame(a, ys)
        omega = _omega(w_t)
        proj_phi = _tangent_projectors(phi)
        moved.append(_density(
            proj,
            _weighted_pullback(jac, omega, expo_h, _compress(proj_phi, h.raw(phi))),
            _weighted_pullback(jac, omega, expo_k, _compress(proj_phi, k.raw(phi))),
        ))
    return grid.integrate(np.concatenate(base)), grid.integrate(np.concatenate(moved))


def check_pairing_invariance(
    h: TensorField, k: TensorField, a: MoebiusElement, grid: SphereGrid
) -> float:
    """Residual of <h, k> = <u_{-n/2}(phi) h, u_{n/2}(phi) k>, relative to
    1 + |<h, k>|; DomainError unless h, k, a and the grid share n."""
    base, moved = _pairing_terms(h, k, a, grid)
    return abs(base - moved) / (1.0 + abs(base))


# ---------------------------------------------------------------------------
# Stereographic chart: conformal Killing operator and covariance.
# ---------------------------------------------------------------------------


# The chart kernels work on (M, n) stacks of points, and each row gets the
# bits of a one-point evaluation: a row's |x|^2 and x . v come from a
# stacked (M, 1, n) @ (M, n, 1) product, which runs the dot of the 1-D
# ``x @ v``, and a stacked matrix product runs the 2-D product's kernel on
# each row.


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_m . b_m for each row m of two (M, n) arrays."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lambdas(xs: np.ndarray) -> np.ndarray:
    """Round-metric conformal factor 2 / (1 + |x|^2) at each row."""
    return 2.0 / (1.0 + _row_dots(xs, xs))


def _float_powers(values: np.ndarray, k: int) -> np.ndarray:
    """values**k by Python's float power, which numpy's power does not round
    alike (it differs on about 1 in 1,200 squares and 1 in 20 cubes)."""
    return np.array([v**k for v in values.tolist()])


def _one_point(x) -> np.ndarray:
    """``x`` as a float (1, n) array, DomainError unless it is one (n,) point."""
    point = np.asarray(x, dtype=float)
    if point.ndim != 1:
        raise DomainError(f"a point must be an (n,) array, got shape {point.shape}")
    return point[None, :]


def chart_lambda(x: np.ndarray) -> float:
    """Round-metric conformal factor 2 / (1 + |x|^2) in the chart."""
    return float(_lambdas(_one_point(x))[0])


class _PrimitiveKind(enum.Enum):
    TRANSLATION = "TRANSLATION"
    DILATION = "DILATION"
    ROTATION = "ROTATION"
    INVERSION = "INVERSION"


@dataclass(frozen=True)
class ChartPrimitive:
    """One conformal building block of R^n: x -> phi(x) with exact Jacobian."""

    kind: _PrimitiveKind
    vector: np.ndarray | None = None
    scale: float = 1.0
    rotation: np.ndarray | None = None

    def _frames(self, xs: np.ndarray):
        """(phi(x), J(x), mu(x)) at the rows of an (M, n) array.

        J is one (n, n) matrix for every row, and mu one float, except for
        an inversion, whose J is (M, n, n) and mu (M,).
        """
        dim = xs.shape[1]
        if self.kind is _PrimitiveKind.TRANSLATION:
            return xs + self.vector, np.eye(dim), 1.0
        if self.kind is _PrimitiveKind.DILATION:
            return self.scale * xs, self.scale * np.eye(dim), abs(self.scale)
        if self.kind is _PrimitiveKind.ROTATION:
            return ((self.rotation @ xs[:, :, None])[:, :, 0],
                    np.array(self.rotation, dtype=float), 1.0)
        r2 = _row_dots(xs, xs)
        if np.any(r2 == 0.0):
            raise Degenerate("inversion applied at the origin")
        r2_mat = r2[:, None, None]
        outer = xs[:, :, None] * xs[:, None, :]
        return xs / r2[:, None], (np.eye(dim) - 2.0 * outer / r2_mat) / r2_mat, 1.0 / r2


def _chart_frames(phi: ChartMap, xs: np.ndarray):
    """(phi(x), J(x), mu(x)) at the rows of an (M, n) array, in one walk.

    Returns an (M, n) array, an (M, n, n) stack (a broadcast view when no
    inversion makes J depend on the point) and an (M,) array.
    """
    jac = np.eye(xs.shape[1])
    mu = 1.0
    for p in phi.primitives:
        image, step_jac, step_mu = p._frames(xs)
        jac = step_jac @ jac
        mu = mu * step_mu
        xs = image
    count, dim = xs.shape
    return (xs, np.broadcast_to(jac, (count, dim, dim)),
            np.broadcast_to(mu, (count,)))


@dataclass(frozen=True)
class ChartMap:
    """Composition of chart primitives (applied left to right).

    The one-point methods raise DomainError naming the shape where the point
    is not an (n,) array, and, as :func:`check_ahlfors_covariance` does,
    where its width does not fit a translation or a rotation.
    """

    primitives: tuple[ChartPrimitive, ...]

    def _frames_at(self, x: np.ndarray):
        return _chart_frames(self, _chart_points(self, _one_point(x)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._frames_at(x)[0][0]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return np.array(self._frames_at(x)[1][0])

    def mu(self, x: np.ndarray) -> float:
        """Flat conformal scale: J^T J = mu^2 Id."""
        return float(self._frames_at(x)[2][0])

    def conformal_factor_round(self, x: np.ndarray) -> float:
        """Omega with phi^*(lambda^2 delta) = Omega^2 lambda^2 delta."""
        xs = _chart_points(self, _one_point(x))
        images, _, mu = _chart_frames(self, xs)
        return float((mu * _lambdas(images) / _lambdas(xs))[0])


def chart_translation(v) -> ChartMap:
    v = np.asarray(v, float)
    if not np.all(np.isfinite(v)):
        raise DomainError(f"translation vector v = {v.tolist()!r} must be finite")
    return ChartMap((ChartPrimitive(_PrimitiveKind.TRANSLATION, vector=v),))


def chart_dilation(s: float) -> ChartMap:
    if s == 0:
        raise DomainError("dilation scale must be nonzero")
    if not math.isfinite(s):
        raise DomainError(f"dilation scale s = {s!r} must be finite")
    return ChartMap((ChartPrimitive(_PrimitiveKind.DILATION, scale=float(s)),))


def chart_rotation(q) -> ChartMap:
    q = np.asarray(q, dtype=float)
    if not np.max(np.abs(q.T @ q - np.eye(len(q)))) <= 1e-12:
        raise DomainError("rotation matrix must be orthogonal")
    return ChartMap((ChartPrimitive(_PrimitiveKind.ROTATION, rotation=q),))


def chart_inversion() -> ChartMap:
    return ChartMap((ChartPrimitive(_PrimitiveKind.INVERSION),))


def compose_chart(*maps: ChartMap) -> ChartMap:
    """Apply the given maps in order (left first)."""
    prims: list[ChartPrimitive] = []
    for m in maps:
        prims.extend(m.primitives)
    return ChartMap(tuple(prims))


def random_chart_map(rng: np.random.Generator, n: int, max_log_scale: float = 1.0) -> ChartMap:
    """Dilation conjugated by rotations and translations (a chart Moebius map)."""
    gauss = rng.normal(size=(n, n))
    q, r = np.linalg.qr(gauss)
    q = q @ np.diag(np.sign(np.diag(r)))
    s = math.exp(float(rng.uniform(-max_log_scale, max_log_scale)))
    v = rng.normal(size=n) * 0.4
    return compose_chart(chart_translation(v), chart_rotation(q), chart_dilation(s))


# Step of the finite-difference Jacobian behind the Ahlfors operator.
_FD_STEP = 1e-5


def _stencil(xs: np.ndarray) -> np.ndarray:
    """The 4n+1 difference points of each row x of a (P, n) array, (P, 4n+1, n).

    Point 0 is x; points 1 + 4i .. 4 + 4i are x + 2h e_i, x + h e_i,
    x - h e_i and x - 2h e_i.
    """
    count, dim = xs.shape
    steps = _FD_STEP * np.eye(dim)
    out = np.empty((count, 4 * dim + 1, dim))
    out[:, 0] = xs
    around = out[:, 1:].reshape(count, dim, 4, dim)
    centre = xs[:, None, :]
    around[:, :, 0] = centre + 2 * steps
    around[:, :, 1] = centre + steps
    around[:, :, 2] = centre - steps
    around[:, :, 3] = centre - 2 * steps
    return out


def _field_values(
    vec_field: Callable[[np.ndarray], np.ndarray], pts: np.ndarray
) -> np.ndarray:
    """The field at each row of an (M, n) array, one call per row, in order."""
    return np.array([vec_field(x) for x in pts], dtype=float)


def _ahlfors_from_stencil(xs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """:func:`ahlfors_chart`'s S X at the rows of a (P, n) array, (P, n, n).

    ``values`` is X at :func:`_stencil`'s points, (P, 4n+1, n), and dX its
    4th-order central difference.
    """
    count, dim = xs.shape
    fp2, fp1, fm1, fm2 = np.moveaxis(values[:, 1:].reshape(count, dim, 4, dim), 2, 0)
    dmat = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * _FD_STEP)
    lam = _lambdas(xs)
    lam2 = _float_powers(lam, 2)
    x_dot_value = _row_dots(xs, values[:, 0])
    eye = np.eye(dim)
    lie = ((-2.0 * _float_powers(lam, 3) * x_dot_value)[:, None, None] * eye
           + lam2[:, None, None] * (dmat + dmat.transpose(0, 2, 1)))
    div_g = np.trace(dmat, axis1=1, axis2=2) - dim * lam * x_dot_value
    return lie - ((2.0 / dim) * div_g * lam2)[:, None, None] * eye


def _ahlfors_at(
    vec_field: Callable[[np.ndarray], np.ndarray], xs: np.ndarray
) -> np.ndarray:
    """S X at each row of a (P, n) array: X is called at every stencil point."""
    values = _field_values(vec_field, _stencil(xs).reshape(-1, xs.shape[1]))
    return _ahlfors_from_stencil(xs, values.reshape(len(xs), -1, xs.shape[1]))


def ahlfors_chart(
    vec_field: Callable[[np.ndarray], np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Conformal Killing operator S X = L_X g - (2/n)(div_g X) g in the chart.

    g = lambda^2 delta with lambda = 2/(1+|x|^2), so with dX the derivative
    matrix (dX)_{ij} = d_i X_j,

        L_X g = (X . grad lambda^2) delta + lambda^2 (dX + dX^T),
        div_g X = div X + n (X . grad lambda) / lambda,
        grad lambda = -lambda^2 x.

    The output is trace free with respect to g.
    """
    return _ahlfors_at(vec_field, _one_point(x))[0]


def inverse_stereographic(x: np.ndarray) -> np.ndarray:
    """Chart point to sphere point: (2x, 1 - |x|^2) / (1 + |x|^2)."""
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    return np.concatenate([2.0 * x, [1.0 - r2]]) / (1.0 + r2)


def stereographic(y: np.ndarray) -> np.ndarray:
    """Sphere point to chart point: y_s / (1 + y_t)."""
    y = np.asarray(y, dtype=float)
    t = y[-1]
    if abs(1.0 + t) < 1e-14:
        raise Degenerate("stereographic chart singular at the south pole")
    return y[:-1] / (1.0 + t)


def _stereographic_push(y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Differential of the stereographic chart applied to tangent v at y."""
    t = y[-1]
    return v[:-1] / (1.0 + t) - y[:-1] * v[-1] / (1.0 + t) ** 2


def sphere_conformal_fields(n: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Chart expressions of the (n+1)(n+2)/2 conformal fields of S^n.

    Rotation generators E_{ab} (y_a d_b - y_b d_a) and the conformal
    gradients grad(y_a) = e_a - y_a y, both pushed through the stereographic
    chart exactly.
    """
    fields: list[Callable[[np.ndarray], np.ndarray]] = []

    def rotation_field(aa: int, bb: int) -> Callable[[np.ndarray], np.ndarray]:
        def fld(x: np.ndarray) -> np.ndarray:
            y = inverse_stereographic(x)
            v = np.zeros(n + 1)
            v[bb] += y[aa]
            v[aa] -= y[bb]
            return _stereographic_push(y, v)

        return fld

    def gradient_field(aa: int) -> Callable[[np.ndarray], np.ndarray]:
        def fld(x: np.ndarray) -> np.ndarray:
            y = inverse_stereographic(x)
            v = -y[aa] * y
            v[aa] += 1.0
            return _stereographic_push(y, v)

        return fld

    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            fields.append(rotation_field(a, b))
    for a in range(n + 1):
        fields.append(gradient_field(a))
    return fields


def kernel_field_residual(n: int, points: np.ndarray) -> float:
    """Largest |S X| entry of the fields of :func:`sphere_conformal_fields`
    at a non-empty (P, n) array of chart points, which S annihilates."""
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0 or xs.shape[1] != n:
        raise DomainError(f"points must be a non-empty (P, {n}) array, got shape {xs.shape}")
    return nan_max(float(np.max(np.abs(_ahlfors_at(fld, xs))))
                   for fld in sphere_conformal_fields(n))


def _chart_points(phi: ChartMap, points) -> np.ndarray:
    """``points`` as a float (P, n) array, DomainError unless it fits phi."""
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 2 or 0 in xs.shape:
        raise DomainError(
            f"points must be a non-empty (P, n) array, got shape {xs.shape}")
    dim = xs.shape[1]
    for p in phi.primitives:
        for part, want in ((p.vector, (dim,)), (p.rotation, (dim, dim))):
            if part is not None and part.shape != want:
                raise DomainError(
                    f"points of shape {xs.shape} do not fit the chart map's "
                    f"{p.kind.value.lower()} of shape {part.shape}")
    return xs


def check_ahlfors_covariance(
    vec_field: Callable[[np.ndarray], np.ndarray],
    phi: ChartMap,
    points: np.ndarray,
) -> float:
    """Max residual of Omega^{-2} phi^*(S X) = S(phi^* X) over the points.

    phi^*(two-tensor T)(x) = J^T T(phi x) J and
    (phi^* X)(x) = J^{-1} X(phi x), J the chart Jacobian at x.

    ``points`` is a non-empty (P, n) array; DomainError otherwise, or when
    its width does not fit phi's translations and rotations.  All points
    are done at once: one chart walk gives phi, J and mu at every stencil
    point of every x, and one stacked solve gives phi^* X there.
    ``vec_field`` is called once per stencil point, 2 P (4n+1) times: first
    at the stencils of all the images phi(x), then at phi of every stencil
    point of every x.  Each residual has the bits of the one-point formulas,
    and a NaN residual at any point makes the maximum NaN.
    """
    xs = _chart_points(phi, points)
    count, dim = xs.shape
    width = 4 * dim + 1
    images, jac, mu = _chart_frames(phi, _stencil(xs).reshape(-1, dim))
    ys, jac_x = images[::width], jac[::width]
    s_image = _ahlfors_at(vec_field, ys)
    pulled = np.linalg.solve(jac, _field_values(vec_field, images)[:, :, None])
    s_pulled = _ahlfors_from_stencil(xs, pulled.reshape(count, width, dim))
    omega = mu[::width] * _lambdas(ys) / _lambdas(xs)
    lhs = jac_x.transpose(0, 2, 1) @ s_image @ jac_x
    lhs /= _float_powers(omega, 2)[:, None, None]
    return float(np.max(np.abs(lhs - s_pulled)))
