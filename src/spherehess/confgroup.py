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
    lambda = 2 / (1 + |x|^2), its kernel fields from o(n+1, 1), and its
    covariance Omega^{-2} phi^*(S X) = S(phi^* X) under chart Moebius maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from ._nanmax import nan_max
from ._record import dataclass
from .errors import Degenerate, DomainError
from .exact import sphere_volume

__all__ = [
    "MoebiusElement",
    "moebius_identity",
    "moebius_rotation",
    "moebius_boost",
    "compose",
    "inverse",
    "random_moebius",
    "lorentz_form_residual",
    "act_many",
    "differential_many",
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
    "chart_translation",
    "chart_dilation",
    "chart_rotation",
    "chart_inversion",
    "random_chart_map",
    "ahlfors_chart",
    "sphere_conformal_fields",
    "kernel_field_residual",
    "check_ahlfors_covariance",
    "group_residuals",
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
    """An (n+2) x (n+2) matrix preserving diag(1, ..., 1, -1).

    The gate refuses a matrix whose :func:`lorentz_form_residual` exceeds
    1e-12 max(1, max|M|)^2: the rounding of M^T J M grows with the square
    of the entries, so exact constructions with large entries pass, and up
    to max|M| = 1 the bound is 1e-12.  A non-finite matrix is refused.
    """

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
        scale = max(1.0, float(np.max(np.abs(m))))
        bound = 1e-12 * scale * scale  # inf, not OverflowError, past 1e154
        if not res <= bound < math.inf:
            raise DomainError(
                f"matrix violates the Lorentz form by {res:.3e} (> {bound:.3g})"
            )


def lorentz_form_residual(a: MoebiusElement) -> float:
    """Max-entry residual of M^T J M - J; inf or nan, without a warning,
    where an entry is huge or not finite."""
    j = _lorentz_metric(a.n)
    with np.errstate(over="ignore", invalid="ignore"):
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


def _random_orthogonal(rng: np.random.Generator, m: int) -> np.ndarray:
    """An m x m orthogonal matrix: Q of the QR of a Gaussian draw, with the
    column signs that make R's diagonal positive."""
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q @ np.diag(np.sign(np.diag(r)))


def random_moebius(
    rng: np.random.Generator, n: int, max_rapidity: float = 1.0
) -> MoebiusElement:
    """Rotation * boost * rotation with rapidity drawn up to the bound."""
    def random_rotation() -> MoebiusElement:
        q = _random_orthogonal(rng, n + 1)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        m = np.eye(n + 2)
        m[: n + 1, : n + 1] = q
        return MoebiusElement(n=n, matrix=m)

    rap = float(rng.uniform(0.1, max_rapidity))
    direction = rng.normal(size=n + 1)
    boost = moebius_boost(n, direction, rap)
    return compose(random_rotation(), compose(boost, random_rotation()))


# ---------------------------------------------------------------------------
# Action, differential, conformal factor.
# ---------------------------------------------------------------------------


def act_many(a: MoebiusElement, ys: np.ndarray) -> np.ndarray:
    """A . y = spatial part of M (y, 1) over its last coordinate, at each row."""
    w_s, w_t = _homogeneous(a, _point_stack(a.n, ys))
    return w_s / w_t[:, None]


def _homogeneous(a: MoebiusElement, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = a.n
    hom = np.concatenate([ys, np.ones((len(ys), 1))], axis=1)
    w = hom @ a.matrix.T
    w_t = w[:, n + 1]
    if np.min(np.abs(w_t)) < 1e-14:
        raise Degenerate("normalizing coordinate vanished under the action")
    return w[:, : n + 1], w_t


def differential_many(a: MoebiusElement, ys: np.ndarray) -> np.ndarray:
    """Exact ambient Jacobians of the action at the rows of ys, as (N, d, d);
    each restricts to T_y S^n."""
    return _node_first(_moebius_frame(a, _point_stack(a.n, ys))[1])


def _moebius_frame(
    a: MoebiusElement, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(y) = w_s / w_t, the Jacobian d phi(y) and w_t from one Lorentz
    product, with the expressions of :func:`act_many`.

    d phi = (S - phi (x) m_row) / w_t for M = [[S, b], [m, d]], entry by
    entry.  The Jacobian comes node-last, as the (d, d, N) stack that
    :func:`_pullback_matrices` reads.
    """
    n = a.n
    s_block = a.matrix[: n + 1, : n + 1]
    m_row = a.matrix[n + 1, : n + 1]
    w_s, w_t = _homogeneous(a, ys)
    phi = w_s / w_t[:, None]
    jac = phi.T[:, None, :] * m_row[None, :, None]
    np.subtract(s_block[:, :, None], jac, out=jac)
    jac /= w_t
    return phi, jac, w_t


def conformal_factor_many(a: MoebiusElement, ys: np.ndarray) -> np.ndarray:
    """Omega with (d phi)^T (d phi) = Omega^2 Id on T_y S^n; equals 1 / w_t."""
    return _omega(_homogeneous(a, _point_stack(a.n, ys))[1])


def _omega(w_t: np.ndarray) -> np.ndarray:
    """Omega = 1 / w_t, for elements of the identity component only."""
    if np.min(w_t) <= 0:
        raise Degenerate(
            "nonpositive normalizing coordinate: element outside the "
            "identity component"
        )
    return 1.0 / w_t


def _point_stack(n: int, ys) -> np.ndarray:
    """``ys`` as a float array; DomainError unless it is a non-empty (N, n+1)
    stack.  Unlike the public actions, :func:`_homogeneous` and
    :func:`_moebius_frame` skip it: the pairing kernel calls them per block."""
    ys = np.asarray(ys, dtype=float)
    _require_width(n, ys)
    if len(ys) == 0:
        raise DomainError(f"points must be a non-empty stack, got shape {ys.shape}")
    return ys


def _unit_points(n: int, ys) -> np.ndarray:
    """The rows of a non-empty (N, n+1) stack scaled to unit length;
    DomainError where a row's norm is zero or not finite."""
    ys = _point_stack(n, ys)
    with np.errstate(over="ignore"):  # an infinite norm is refused next
        norms = np.linalg.norm(ys, axis=1)
    bad = norms[~((0 < norms) & (norms < math.inf))]
    if len(bad):
        raise DomainError(f"points need a finite nonzero norm, got {float(bad[0])!r}")
    return ys / norms[:, None]


def conformality_residual(a: MoebiusElement, ys: np.ndarray) -> float:
    """Worst relative deviation of the tangent Gram matrix from Omega^2 over a
    stack of points: max |P J^T J P - Omega^2 P| / Omega^2, where
    P = Id - y y^T = F F^T for any orthonormal tangent frame F."""
    ys = _unit_points(a.n, ys)
    _, jac, w_t = _moebius_frame(a, ys)
    jac, proj = _node_first(jac), _tangent_projectors(ys)
    omega2 = _omega(w_t) ** 2
    gap = _compress(proj, jac.transpose(0, 2, 1) @ jac) - omega2[:, None, None] * proj
    return nan_max(np.max(np.abs(gap), axis=(1, 2)) / omega2)


def cocycle_residual(a: MoebiusElement, b: MoebiusElement, ys: np.ndarray) -> float:
    """Worst relative residual of Omega_{ab}(y) = Omega_a(b . y) Omega_b(y)
    over a stack of points."""
    ys = _unit_points(a.n, ys)
    lhs = conformal_factor_many(compose(a, b), ys)
    w_s, w_t = _homogeneous(b, ys)
    rhs = conformal_factor_many(a, w_s / w_t[:, None]) * _omega(w_t)
    return nan_max(np.abs(lhs - rhs) / np.abs(lhs))


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
        """sum_i values_i w_i, by :func:`_weighted_sum` on a copy of values."""
        return _weighted_sum(np.array(values, dtype=float), self.weights)


def _weighted_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """sum_i values_i w_i, weighting ``values`` in place; numpy's pairwise
    sum runs on one thread, so no BLAS thread count reorders it."""
    return float(np.sum(np.multiply(values, weights, out=values)))


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
        # node = (sin t1 sin t2 cos p, sin t1 sin t2 sin p, sin t1 cos t2, cos t1),
        # each column written in place; a factor of one is exact, so it is left out.
        nodes = np.empty((m * order * n_phi, 4))
        cols = nodes.reshape(m, order, n_phi, 4)
        s12 = sin1[:, None, None] * s2[None, :, None]
        np.multiply(s12, cos_phi, out=cols[..., 0])
        np.multiply(s12, sin_phi, out=cols[..., 1])
        cols[..., 2] = sin1[:, None, None] * u2[None, :, None]
        cols[..., 3] = cos1[:, None, None]
        weights = np.empty(m * order * n_phi)
        weights.reshape(m, order, n_phi)[...] = (
            w1[:, None, None] * gl_weights[None, :, None] * w_phi)
        return SphereGrid(n=3, nodes=nodes, weights=weights)
    raise DomainError("grids implemented for n in {2, 3}")


def sphere_monomial_integral(exponents: Sequence[int]) -> float:
    """Integral of prod y_i^{a_i} over the unit sphere in R^{len(a)}, as a float.

    Zero unless every exponent is even; otherwise
    2 prod Gamma((a_i+1)/2) / Gamma((sum a_i + dim)/2), evaluated in
    floating point with ``math.gamma``, so a nonzero value is rounded.
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
    """Conformal weight data on S^n: the free parameter nu, a Fraction."""

    n: int
    nu: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", Fraction(self.nu))

    @property
    def rho(self) -> Fraction:
        """n/2, the one value the sphere allows."""
        return Fraction(self.n, 2)

    @property
    def pullback_exponent(self) -> float:
        """The power of Omega in u_nu: rho + nu - 2."""
        return float(self.rho + self.nu - 2)


# The stacked ``@`` and einsum work on C-contiguous (N, d, d) arrays, whose
# per-node bits do not depend on N.  The elementwise work in between runs
# node-last, on (..., d, d, N) arrays, where every entry is one contiguous
# vector; its loops write each term into one buffer reused across the loop.


def _node_last(stack: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(stack.transpose(1, 2, 0))


def _node_first(stack: np.ndarray) -> np.ndarray:
    """(..., d, d, N) to C-contiguous (..., N, d, d)."""
    return np.ascontiguousarray(stack.swapaxes(-1, -2).swapaxes(-2, -3))


def _product_into(term: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b broadcast to ``term``'s shape, written into ``term``.

    ``a`` is copied in and multiplied in place by ``b``: the same products
    as ``np.multiply(a, b, out=term)``, which numpy runs slower when an
    operand is broadcast.
    """
    term[...] = a
    term *= b
    return term


def _tangent_projectors(ys: np.ndarray) -> np.ndarray:
    """P = Id - y y^T at each node, as a C-contiguous (N, d, d) stack."""
    yt = np.ascontiguousarray(ys.T)
    dim = len(yt)
    out = _product_into(np.empty((dim, dim, len(ys))), yt[:, None, :], yt)
    return _node_first(np.subtract(np.eye(dim)[:, :, None], out, out=out))


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
    """Field with ambient matrix C + sum_a y_a L_a + sum y_a y_b Q_{ab}.

    The matrices are symmetrised exactly, so entry (j, i) of each node's
    matrix has the bits of entry (i, j): ``raw`` evaluates the upper
    triangle only, node-last, and mirrors it into the (N, d, d) stack.
    """
    dim = n + 1

    def sym(m) -> np.ndarray:
        m = np.asarray(m, float)
        return 0.5 * (m + m.T)

    constant = sym(constant)
    linear = [sym(m) for m in linear]
    quadratic = [(a, b, sym(m)) for a, b, m in quadratic]
    if any(m.shape != (dim, dim)
           for m in [constant, *linear, *(m for _, _, m in quadratic)]):
        raise DomainError(f"matrices must be {dim} x {dim}")
    upper = np.triu_indices(dim)
    # Row of the packed upper triangle holding entry (i, j), i <= j or not.
    mirror = np.empty((dim, dim), dtype=np.intp)
    mirror[upper] = mirror.T[upper] = np.arange(len(upper[0]))
    mirror = mirror.ravel()
    constant = constant[upper]
    linear = [m[upper] for m in linear]
    quadratic = [(a, b, m[upper]) for a, b, m in quadratic]

    def raw(ys: np.ndarray) -> np.ndarray:
        _require_width(n, ys)
        yt = np.ascontiguousarray(ys.T)
        out = np.repeat(constant[:, None], len(ys), axis=1)
        term = np.empty_like(out)
        for a, vec in enumerate(linear):
            out += _product_into(term, yt[a], vec[:, None])
        monomial = np.empty(len(ys))
        for a, b, vec in quadratic:
            np.multiply(yt[a], yt[b], out=monomial)
            out += _product_into(term, monomial, vec[:, None])
        # The row gather is node-last and the transposed copy C-contiguous,
        # as the stacked ``@`` needs.
        return np.ascontiguousarray(out[mirror].T).reshape(len(ys), dim, dim)

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
    """J^T V J at each node, node-last: ``jac`` is a (d, d, N) stack and
    ``values`` a (..., d, d, N) stack of fields pulled back by the same J.

    Each field's matrices equal bit for bit, once made node-first,
    ``np.einsum("nji,njk,nkl->nil", jac, values, jac)`` on the node-first
    stacks.  That einsum sums the terms (J_ji V_jk) J_kl from zero, j outer
    and k inner; this kernel adds the same terms in the same order.  J_kl
    is expanded once over i, so each term's second factor is one multiply
    by a contiguous (d, d, N) array, broadcast only over the fields.
    """
    dim = len(jac)
    out = np.zeros(values.shape)
    row = np.empty(values.shape[:-2] + (1, values.shape[-1]))
    term = np.empty_like(out)
    jac_kl = np.empty((dim, *jac.shape))
    jac_kl[...] = jac[:, None]
    for j in range(dim):
        for k in range(dim):
            np.multiply(jac[j, :, None, :], values[..., j, k, None, None, :], out=row)
            out += _product_into(term, row, jac_kl[k])
    return out


def _weighted_pullback(
    jac: np.ndarray, omega: np.ndarray, expos: Sequence[float], values: np.ndarray
) -> np.ndarray:
    """Omega^expo J^T V J at each node, u_nu's matrices from phi's frame, for
    an (F, d, d, N) stack of F fields and their F exponents; the result is
    the C-contiguous (F, N, d, d) stack."""
    out = _pullback_matrices(jac, values)
    for pulled, expo in zip(out, expos):
        pulled *= omega**expo
    return _node_first(out)


def pullback_field(a: MoebiusElement, fld: TensorField) -> TensorField:
    """phi^* k with matrices J(y)^T k(phi y) J(y) (J the exact Jacobian)."""
    if a.n != fld.n:
        raise DomainError("dimension mismatch")

    def raw(ys: np.ndarray) -> np.ndarray:
        _require_width(fld.n, ys)
        phi, jac, _ = _moebius_frame(a, ys)
        return _node_first(_pullback_matrices(jac, _node_last(fld.evaluate(phi))))

    return TensorField(n=fld.n, raw=raw)


def u_action(w: RepWeight, a: MoebiusElement, fld: TensorField) -> TensorField:
    """u_nu(phi) k = Omega^{rho + nu - 2} phi^* k (a right action)."""
    if w.n != fld.n or a.n != fld.n:
        raise DomainError("dimension mismatch")
    expo = w.pullback_exponent

    def raw(ys: np.ndarray) -> np.ndarray:
        _require_width(fld.n, ys)
        phi, jac, w_t = _moebius_frame(a, ys)
        omega = _omega(w_t)
        return _weighted_pullback(jac, omega, [expo],
                                  _node_last(fld.evaluate(phi))[None])[0]

    return TensorField(n=fld.n, raw=raw)


# Most grid nodes per block in :func:`pairing` and :func:`_pairing_terms`.
# A block's (N, d, d) intermediates stay in cache, and no such array of a
# whole grid is ever built.  The per-node bits do not depend on the block
# size, so it is set by measurement.  ``_pairing_terms`` on
# ``sphere_grid(3, 40)``, one BLAS thread on one core of a 2-vCPU Xeon,
# median of 40 interleaved calls: 1,024 nodes 0.262 s, 1,536 nodes 0.252 s,
# 2,048 nodes 0.256 s.  ``verify --suite confgroup --dim 3`` peaks at
# 47.3, 48.5 and 49.7 MB (median of 6 processes).  Reusing the pullback's
# scratch arrays across blocks was no faster, so each block allocates its own.
_BLOCK = 1536


def _blocks(nodes: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Near-equal blocks of at most ``_BLOCK`` nodes, as (slice, nodes) pairs.

    No block has a single node unless the grid does: numpy multiplies a
    single row by the Lorentz matrix as a matrix-vector product, whose last
    bits differ from those of the matrix product.
    """
    start = 0
    for ys in np.array_split(nodes, -(-len(nodes) // _BLOCK)):
        yield slice(start, start + len(ys)), ys
        start += len(ys)


def _density(
    proj: np.ndarray, h_raw: np.ndarray, k_raw: np.ndarray, out: np.ndarray
) -> None:
    """Write the pointwise Frobenius pairing of two compressed fields."""
    np.einsum("nij,nij->n", _compress(proj, h_raw), _compress(proj, k_raw), out=out)


def _require_grid_dim(h: TensorField, k: TensorField, grid: SphereGrid) -> None:
    if not h.n == k.n == grid.n:
        raise DomainError(f"dimension mismatch: fields on S^{h.n} and S^{k.n}, "
                          f"grid on S^{grid.n}")


def pairing(h: TensorField, k: TensorField, grid: SphereGrid) -> float:
    """Integral over S^n of the pointwise Frobenius pairing <h, k>.

    Both fields are evaluated over the same blocks and compressed with the
    block's one set of tangent projectors.  Each node's density has the
    bits of a whole-grid evaluation, whatever the block size, and
    :func:`_weighted_sum` weights the densities of all blocks in place and
    sums them once, in an order no BLAS thread count changes.  DomainError
    unless h, k and the grid share n.
    """
    _require_grid_dim(h, k, grid)
    density = np.empty(len(grid.nodes))
    for block, ys in _blocks(grid.nodes):
        _density(_tangent_projectors(ys), h.raw(ys), k.raw(ys), out=density[block])
    return _weighted_sum(density, grid.weights)


def _pairing_terms(
    h: TensorField, k: TensorField, a: MoebiusElement, grid: SphereGrid
) -> tuple[float, float]:
    """<h, k> and <u_{-n/2}(phi) h, u_{n/2}(phi) k> on the grid, in one pass.

    Each block builds once the tangent projectors P(y), the Moebius frame
    (one Lorentz product giving phi, its node-last Jacobian J and
    Omega = 1 / w_t, with the Degenerate checks of :func:`u_action` in its
    order) and P(phi), and feeds them to both fields and both densities.
    Both fields are pulled back in one pass against J and scaled by their
    powers of Omega node-last, before one copy back to node-first.  The
    kernels are those of :func:`pairing` and :func:`u_action`, applied to
    the same operands in the same order, so the two values are bit for bit
    ``pairing(h, k, grid)`` and ``pairing(u_action(-n/2) h, u_action(n/2) k,
    grid)``.
    """
    _require_grid_dim(h, k, grid)
    n = grid.n
    if a.n != n:
        raise DomainError(f"dimension mismatch: element on S^{a.n}, grid on S^{n}")
    expos = [RepWeight(n, nu).pullback_exponent
             for nu in (Fraction(-n, 2), Fraction(n, 2))]
    base = np.empty(len(grid.nodes))
    moved = np.empty(len(grid.nodes))
    for block, ys in _blocks(grid.nodes):
        proj = _tangent_projectors(ys)
        _density(proj, h.raw(ys), k.raw(ys), out=base[block])
        phi, jac, w_t = _moebius_frame(a, ys)
        omega = _omega(w_t)
        proj_phi = _tangent_projectors(phi)
        values = np.empty((2, *jac.shape))
        for fld, value in zip((h, k), values):
            value[...] = _compress(proj_phi, fld.raw(phi)).transpose(1, 2, 0)
        hw, kw = _weighted_pullback(jac, omega, expos, values)
        _density(proj, hw, kw, out=moved[block])
    return _weighted_sum(base, grid.weights), _weighted_sum(moved, grid.weights)


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


def chart_translation(v) -> MoebiusElement:
    """x -> x + v, a parabolic element."""
    v = np.asarray(v, float)
    if v.ndim != 1:
        raise DomainError(f"translation vector must have shape (n,), got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"translation vector v = {v.tolist()!r} must be finite")
    n, h = len(v), 0.5 * float(v @ v)
    m = np.eye(n + 2)
    m[:n, n:] = v[:, None]
    m[n:, :n] = -v, v
    m[n:, n:] = [[1.0 - h, -h], [h, 1.0 + h]]
    return MoebiusElement(n=n, matrix=m)


def chart_dilation(n: int, s: float) -> MoebiusElement:
    """x -> s x, a boost along the pole axis (with -Id on the chart for s < 0)."""
    if s == 0:
        raise DomainError("dilation scale must be nonzero")
    if not math.isfinite(s):
        raise DomainError(f"dilation scale s = {s!r} must be finite")
    c, d = 0.5 * (1.0 / abs(s) + abs(s)), 0.5 * (1.0 / abs(s) - abs(s))
    m = np.eye(n + 2)
    m[:n, :n] *= math.copysign(1.0, s)
    m[n:, n:] = [[c, d], [d, c]]
    return MoebiusElement(n=n, matrix=m)


def chart_rotation(q) -> MoebiusElement:
    """x -> q x for an orthogonal (n, n) matrix q."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DomainError(f"rotation matrix must have shape (n, n), got shape {q.shape}")
    n = len(q)
    m = np.eye(n + 2)
    m[:n, :n] = q
    return MoebiusElement(n=n, matrix=m)


def chart_inversion(n: int) -> MoebiusElement:
    """x -> x / |x|^2, the reflection of the pole axis."""
    m = np.eye(n + 2)
    m[n, n] = -1.0
    return MoebiusElement(n=n, matrix=m)


def random_chart_map(rng: np.random.Generator, n: int,
                     max_log_scale: float = 1.0) -> MoebiusElement:
    """Dilation conjugated by rotations and translations (a chart Moebius map)."""
    q = _random_orthogonal(rng, n)
    s = math.exp(float(rng.uniform(-max_log_scale, max_log_scale)))
    v = rng.normal(size=n) * 0.4
    return compose(chart_dilation(n, s), compose(chart_rotation(q), chart_translation(v)))


def _chart_frame(a: MoebiusElement, xs: np.ndarray):
    """(phi(x), J(x), Omega(x)) at the rows of an (M, n) array, as (M, n),
    (M, n, n) and (M,) arrays from one Lorentz product over the stack.

    Index 0..n-1 of the element is the chart, n the pole axis and n+1 time;
    x has homogeneous coordinates p = (2x, 1 - |x|^2, 1 + |x|^2), which is
    (1 + |x|^2) (y, 1) for the sphere point y over x.  With row n of M
    replaced by rows n + (n+1), P = M p = 2 C x + s + |x|^2 t holds the
    image's numerators, its denominator D and the time coordinate (C the
    chart columns, s and t the sum and difference of the last two; the
    x-free s rounds alike at every stencil point).  phi = P_{0..n-1} / D,
    Degenerate where D is 0 to rounding; J = d phi by the quotient rule with
    dP/dx_k = 2 (C e_k + x_k t); Omega = (1 + |x|^2) / P_{n+1}, the sphere's
    conformal factor: phi^*(lambda^2 delta) = Omega^2 lambda^2 delta.
    """
    n = a.n
    rows = a.matrix.copy()
    rows[n] += rows[n + 1]
    cols, s, t = rows[:, :n], rows[:, n] + rows[:, n + 1], rows[:, n + 1] - rows[:, n]
    r2 = _row_dots(xs, xs)
    w = (2.0 * xs) @ cols.T + s + r2[:, None] * t
    size = (2.0 * np.abs(xs)) @ np.abs(cols[n]) + abs(s[n]) + r2 * abs(t[n])
    if np.any(np.abs(w[:, n]) <= 1e-14 * size):
        raise Degenerate("the chart map sends a point to infinity")
    image = w[:, :n] / w[:, n, None]
    jac = (t[:n] - image * t[n])[:, :, None] * xs[:, None, :]
    jac += cols[:n]
    jac -= image[:, :, None] * cols[n]
    jac *= (2.0 / w[:, n])[:, None, None]
    return image, jac, (1.0 + r2) / w[:, n + 1]


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


def sphere_conformal_fields(n: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Chart expressions of the (n+1)(n+2)/2 conformal fields of S^n, one
    per generator K of o(n+1, 1) in the chart's Lorentz basis.

    With p = (2x, 1 - |x|^2, 1 + |x|^2) and w = K p, the field is
    X_K(x) = (w_{0..n-1} - x (w_n + w_{n+1})) / 2, the t-derivative at 0
    of the chart action of exp(tK) (see :func:`_chart_frame`).  The
    generators come in this order: the rotations E_ba - E_ab for
    a < b <= n, then the boosts E_{a,n+1} + E_{n+1,a} for a <= n; on the
    sphere these are y_a d_b - y_b d_a and grad(y_a) = e_a - y_a y.  A
    field casts nothing to float, so it also takes complex points.
    """
    def chart_field(k: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        def fld(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x)
            r2 = x @ x
            w = k @ np.concatenate([2.0 * x, [1.0 - r2, 1.0 + r2]])
            return (w[:n] - x * (w[n] + w[n + 1])) / 2.0

        return fld

    e = np.eye(n + 2)
    rotations = [np.outer(e[b], e[a]) - np.outer(e[a], e[b])
                 for a in range(n + 1) for b in range(a + 1, n + 1)]
    boosts = [np.outer(e[a], e[n + 1]) + np.outer(e[n + 1], e[a]) for a in range(n + 1)]
    return [chart_field(k) for k in rotations + boosts]


def kernel_field_residual(n: int, points: np.ndarray) -> float:
    """Largest |S X| entry of the fields of :func:`sphere_conformal_fields`
    at a non-empty (P, n) array of chart points, which S annihilates.

    S X_K is linear in K, so S vanishes on every conformal field if it
    vanishes on those of a basis of o(n+1, 1).
    """
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0 or xs.shape[1] != n:
        raise DomainError(f"points must be a non-empty (P, {n}) array, got shape {xs.shape}")
    return nan_max(float(np.max(np.abs(_ahlfors_at(fld, xs))))
                   for fld in sphere_conformal_fields(n))


def check_ahlfors_covariance(
    vec_field: Callable[[np.ndarray], np.ndarray],
    phi: MoebiusElement,
    points: np.ndarray,
) -> float:
    """Max residual of Omega^{-2} phi^*(S X) = S(phi^* X) over the points.

    phi^*(two-tensor T)(x) = J^T T(phi x) J and
    (phi^* X)(x) = J^{-1} X(phi x), J the chart Jacobian at x.

    ``points`` is a non-empty (P, phi.n) array; DomainError otherwise.  One
    Lorentz product gives phi, J and Omega at every stencil point of every
    x, and one stacked solve gives phi^* X there.  ``vec_field`` is called
    2 P (4n+1) times: at the stencils of all the images phi(x), then at phi
    of every stencil point of every x.  Given that frame, each residual has
    the bits of the one-point formulas, and a NaN residual at any point
    makes the maximum NaN.
    """
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 2 or 0 in xs.shape:
        raise DomainError(f"points must be a non-empty (P, n) array, got shape {xs.shape}")
    if xs.shape[1] != phi.n:
        raise DomainError(f"points of shape {xs.shape} do not fit a chart map of R^{phi.n}")
    count, dim = xs.shape
    width = 4 * dim + 1
    images, jac, omega = _chart_frame(phi, _stencil(xs).reshape(-1, dim))
    ys, jac_x = images[::width], jac[::width]
    s_image = _ahlfors_at(vec_field, ys)
    pulled = np.linalg.solve(jac, _field_values(vec_field, images)[:, :, None])
    s_pulled = _ahlfors_from_stencil(xs, pulled.reshape(count, width, dim))
    lhs = jac_x.transpose(0, 2, 1) @ s_image @ jac_x
    lhs /= _float_powers(omega[::width], 2)[:, None, None]
    return float(np.max(np.abs(lhs - s_pulled)))


def group_residuals(n: int, seed: int) -> dict[str, list[float]]:
    """The residuals of each group check on S^n (n = 2, 3) over draws from
    ``numpy.random.default_rng(seed)``, keyed by check name.

    Four elements of :func:`random_moebius` give the "lorentz-form"
    residuals, and with one stack of ten points (scaled onto the sphere by
    the checks) the worst "conformality" residual of each element and the
    worst "cocycle" residual of pairs 0, 2 and 1, 3; two pairs of
    band-limited fields, each with a fresh element, the
    "pairing-invariance" residuals on ``sphere_grid(n, 40)``; two vector
    fields c + L x + 0.3 x |x|^2, each with a :func:`random_chart_map`, the
    "ahlfors-covariance" residuals at 50 chart points; ten chart points the
    one "kernel-fields" residual.  The draws come in that order.
    """
    rng = np.random.default_rng(seed)
    elements = [random_moebius(rng, n, 1.0) for _ in range(4)]
    points = rng.normal(size=(10, n + 1))

    lorentz = [lorentz_form_residual(a) for a in elements]
    conf = [conformality_residual(a, points) for a in elements]
    cocycle = [cocycle_residual(a, b, points) for a, b in zip(elements[:2], elements[2:])]
    grid = sphere_grid(n, 40)
    pair_res = []
    for _ in range(2):
        h = random_band_limited_field(rng, n)
        k = random_band_limited_field(rng, n)
        a = random_moebius(rng, n, 1.0)
        pair_res.append(check_pairing_invariance(h, k, a, grid))
    cov_res = []
    for _ in range(2):
        const = rng.normal(size=n)
        lin = rng.normal(size=(n, n))

        def vec_field(x, const=const, lin=lin):
            return const + lin @ x + 0.3 * x * float(x @ x)

        phi = random_chart_map(rng, n, max_log_scale=1.0)
        pts = rng.normal(size=(50, n)) * 0.7
        cov_res.append(check_ahlfors_covariance(vec_field, phi, pts))
    kernel = kernel_field_residual(n, rng.normal(size=(10, n)) * 0.8)
    return {
        "lorentz-form": lorentz,
        "conformality": conf,
        "cocycle": cocycle,
        "pairing-invariance": pair_res,
        "ahlfors-covariance": cov_res,
        "kernel-fields": [kernel],
    }
