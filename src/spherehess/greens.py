"""Radial Green profiles on odd spheres and regularized trace extraction.

The conformal Laplacian on S^n (n odd) restricted to radial functions of the
geodesic distance r is

    (L f)(r) = -f''(r) - (n-1) (cos r / sin r) f'(r) + (n (n-2) / 4) f(r),

and in the variable z = cos r the homogeneous equation becomes

    (1 - z^2) y'' - n z y' - (n (n-2) / 4) y = 0

with the two modes (1 - z)^{-(n-2)/2} and (1 + z)^{-(n-2)/2}.

This module builds three radial profiles:

  * green_L:  fundamental solution of L, C_n / sin^{n-2}(r/2) with
    C_n = 1 / (2^{n-1} (n-2) vol(S^{n-1})).
  * green_L2: a radial solution of L G = green_L (iterated operator), by
    variation of parameters; after the exact cancellation of the strongest
    singular mode it equals
        (D_n/(n-2)) [ (1-z)^{1-m} + (1+z)^{-m} I(z) ],
    with m = (n-2)/2, D_n = 2^{m} C_n and
    I(z) = int_{-1}^z ((1-w)/(1+w))^{-m} dw.
  * green_D2: the radial profile (per spinor component) of the squared Dirac
    operator's second-order Green function,
        (1/vol(S^{n-1})) ((1+X^2)/4)^{(n-1)/2} * 2 int_X^inf
        tau^{1-n} (1+tau^2)^{-1} dtau,   X = tan(r/2).

All tail integrals int_X^inf tau^{-a} (1+tau^2)^{-p} dtau with even a are
evaluated exactly (partial fractions in tau^2 plus the arctangent reduction).
Each value is computed by one route; the independent twins (adaptive
quadrature of the tail by a pure-Python port of QUADPACK's qag, the
least-squares fit of the homogeneous coefficient) are exported for the
tests and the ``verify --suite greens`` checks and are not run on the value
path.

The regularized operator traces are extracted as (regular part of the profile
at r = 0) x vol(S^n).  Closed-form trace evaluators and an independent
spectral route (zeta continuation of the eigenvalue sums, exact in
Q + Q pi^2 for every k) are both provided; see `spectral_trace_reference`.

Importing the module does not load numpy: the least-squares fits import it
when they run, so the exact tails, the profiles and the spectral reference
cost no float library.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from fractions import Fraction
from typing import Callable

from ._nanmax import nan_max
from ._record import dataclass
from .errors import DomainError, FitUnstable, ParityError, QuadratureFailure
from .exact import ExactConst, sphere_volume, sphere_volume_exact

__all__ = [
    "SphereConstants",
    "sphere_constants",
    "sphere_volume",
    "TauTailIntegral",
    "tau_tail_exact",
    "tau_tail_quadrature",
    "tau_tail_gap",
    "RadialGreen",
    "green_L_profile",
    "green_L2_profile",
    "green_D2_profile",
    "green_L",
    "green_L2",
    "green_D2",
    "green_D2_quadrature",
    "d2_route_gap",
    "green_D2_closed3",
    "chart_radius",
    "homogeneous_coefficient_gap",
    "ode_rows",
    "ode_residual_L",
    "ode_residual_L2",
    "RegularPartResult",
    "regular_part",
    "TraceKind",
    "kv_trace_L2",
    "kv_trace_D2",
    "trace_sign_expected",
    "frozen_traces_match",
    "trace_signs_match",
    "PipelineTrace",
    "trace_from_pipeline",
    "spectral_trace_reference",
    "spectral_convention_factor",
    "pipeline_trace_gap",
]


def _require_odd(n: int) -> None:
    if n % 2 == 0:
        raise ParityError(f"n = {n} must be odd")
    if n < 3:
        raise DomainError(f"n = {n} < 3")


@dataclass(frozen=True)
class SphereConstants:
    """Normalization constants of the odd-sphere Green profiles."""

    n: int
    boundary_volume: ExactConst
    c_n: ExactConst
    d_n: ExactConst


@functools.cache
def sphere_constants(n: int) -> SphereConstants:
    """C_n = 1/(2^{n-1} (n-2) vol(S^{n-1})) and D_n = 2^{(n-2)/2} C_n.

    Cached: the result is frozen, so every profile of dimension n shares it.
    The floats that the value routes read are cached beside it, converted
    once per n: vol(S^{n-1}) by :func:`_boundary_volume` and D_n/(n-2) by
    :func:`_l2_coefficient`.
    """
    _require_odd(n)
    omega = sphere_volume_exact(n - 1)
    c_n = ExactConst(Fraction(1, n - 2), 0, Fraction(1 - n)) / omega
    d_n = c_n * ExactConst(Fraction(1), 0, Fraction(n - 2, 2))
    return SphereConstants(n=n, boundary_volume=omega, c_n=c_n, d_n=d_n)


@functools.cache
def _boundary_volume(n: int) -> float:
    """vol(S^{n-1}) as a float; cached per n.

    From n = 439 on the volume is a subnormal float (3.8e-309 at n = 439),
    and from n = 457 on it rounds to 0, so a division by it would lose
    digits without a word (9.9e-7 relative at n = 449, 19% at n = 455).
    There OverflowError names n, and the D2 routes raise their DomainError.
    """
    omega = float(sphere_constants(n).boundary_volume)
    if omega < sys.float_info.min:
        raise OverflowError(f"1 / vol(S^{n - 1}) overflows at n = {n}")
    return omega


@functools.cache
def _l2_coefficient(n: int) -> float:
    """D_n/(n-2), the homogeneous coefficient of :func:`green_L2_profile`, as
    a float; cached per n."""
    return float(sphere_constants(n).d_n) / (n - 2)


# ---------------------------------------------------------------------------
# Exact tail integrals int_X^inf tau^{-a} (1+tau^2)^{-p} dtau, a even.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauTailIntegral:
    """Exact antiderivative data for int_X^inf tau^{-a} (1+tau^2)^{-p} dtau.

    The antiderivative is
        F(tau) = arctan_coeff * arctan(tau)
                 + sum_e power_coeffs[e] tau^e
                 + sum_l rational_coeffs[l] tau (1+tau^2)^{-l},
    and the tail value is F(inf) - F(X) with F(inf) = arctan_coeff * pi/2.

    ``tail`` is one flat closure over the coefficients' floats, converted
    once when the integral is built, and F(inf); the profiles call it.  It
    lets OverflowError escape, so that a profile names its own kind, n and
    r.  It is derived data, set by ``__post_init__`` and not a field: the
    constructor, eq, hash and repr see the coefficients only.
    """

    a: int
    p: int
    arctan_coeff: Fraction
    power_coeffs: tuple[tuple[int, Fraction], ...]
    rational_coeffs: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        arctan = float(self.arctan_coeff)
        powers = tuple((e, float(c)) for e, c in self.power_coeffs)
        rationals = tuple((l, float(c)) for l, c in self.rational_coeffs)
        at_inf, atan, inf = arctan * (math.pi / 2), math.atan, math.inf

        def tail(x: float) -> float:
            if not 0 < x < inf:
                raise DomainError(f"tail integral needs finite x > 0, got x = {x!r}")
            out = arctan * atan(x)
            for e, c in powers:
                out += c * x**e
            for l, c in rationals:
                out += c * x / (1.0 + x * x) ** l
            return at_inf - out

        self.__dict__["tail"] = tail

    def value(self, x: float) -> float:
        """The tail integral from x to infinity (finite x > 0); DomainError
        names a, p and x where a term leaves the float range."""
        try:
            return self.tail(x)
        except OverflowError as exc:
            raise DomainError(f"tail of tau^-{self.a} (1+tau^2)^-{self.p} from x = {x!r}: "
                              f"a term of the antiderivative leaves the float range") from exc


@functools.cache
def tau_tail_exact(a: int, p: int) -> TauTailIntegral:
    """Exact tail integral of tau^{-a} (1+tau^2)^{-p} with even a >= 0, p >= 1.

    Partial fractions in u = tau^2:
        1/(u^s (1+u)^p) = sum_i A_i u^{-i} + sum_l B_l (1+u)^{-l},
        A_i = (-1)^{s-i} C(p+s-i-1, s-i),  B_l = (-1)^s C(s+p-l-1, p-l).
    Each B_l multiplies T_l = int (1+tau^2)^{-l} dtau.  T_1 = arctan(tau)
    and T_l = tau / (2(l-1)(1+tau^2)^{l-1}) + (2l-3)/(2(l-1)) T_{l-1} give
        T_l = P_l [arctan(tau) + sum_{j<l} tau (1+tau^2)^{-j} / (2j P_{j+1})],
        P_l = prod_{i=2..l} (2i-3)/(2i-2),
    so sum_l B_l T_l has arctangent coefficient sum_l B_l P_l and
    tau (1+tau^2)^{-j} coefficient sum_{l>j} B_l P_l / (2j P_{j+1}): one
    pass over l and one suffix sum, exact in Fractions.

    Cached: the result is frozen, so every caller with the same (a, p)
    shares it.
    """
    if a % 2 != 0:
        raise ParityError(f"exponent a = {a} must be even")
    if a < 0 or p < 1:
        raise DomainError("need a >= 0 and p >= 1")
    s = a // 2
    powers: dict[int, Fraction] = {}
    rationals: dict[int, Fraction] = {}
    for i in range(1, s + 1):
        a_i = Fraction((-1) ** (s - i) * math.comb(p + s - i - 1, s - i))
        powers[1 - 2 * i] = a_i / (1 - 2 * i)
    prods, weights = [], []  # P_l and B_l P_l for l = 1..p
    prod = Fraction(1)
    for l in range(1, p + 1):
        if l > 1:
            prod *= Fraction(2 * l - 3, 2 * l - 2)
        prods.append(prod)
        weights.append(prod * ((-1) ** s * (math.comb(s + p - l - 1, p - l) if l < p else 1)))
    arctan_total = sum(weights, Fraction(0))
    tail = Fraction(0)
    for j in range(p - 1, 0, -1):
        tail += weights[j]
        rationals[j] = tail / (2 * j * prods[j])
    return TauTailIntegral(
        a=a,
        p=p,
        arctan_coeff=arctan_total,
        power_coeffs=tuple(sorted(powers.items())),
        rational_coeffs=tuple(sorted(rationals.items())),
    )


def tau_tail_quadrature(a: int, p: int, x: float) -> float:
    """Adaptive-quadrature twin of :func:`tau_tail_exact` at lower bound x.

    The tail beyond tau = max(x, 1) is integrated in the inverted variable
    u = 1/tau, so only finite intervals ever reach the quadrature routine.
    Each piece runs QUADPACK's qag (21-point Gauss–Kronrod with bisection
    of the interval with the largest error; Piessens et al., *QUADPACK*,
    Springer 1983) to 1e-12 relative in at most 200 subintervals, through
    the pure-Python port in ``spherehess._quadpack``.  QuadratureFailure is
    raised when a piece reports a nonzero QUADPACK flag or the summed error
    estimate exceeds 1e-10 times |value|; its message names every piece's
    interval, error estimate, flag and evaluation count.  It is raised too
    when the tail underflows to 0 (x = 1e150 at a = 2, p = 1), since the
    integrand is positive and 0 would be a quiet wrong value.  DomainError
    is raised where the integrand leaves the float range (tau^-a overflows
    on the direct piece: a = 100, x = 1e-5).  The port is imported here, at
    the only call site, so that importing the package and every command
    that does not run this twin stay free of it.
    """
    if not 0 < x < math.inf:
        raise DomainError(f"tail integral needs finite x > 0, got x = {x!r}")
    from . import _quadpack

    def direct(t: float) -> float:
        return t ** (-a) * (1.0 + t * t) ** (-p)

    def inverted(u: float) -> float:
        return u ** (a + 2 * p - 2) / (1.0 + u * u) ** p

    if x >= 1.0:
        spans = [(inverted, 0.0, 1.0 / x)]
    else:
        spans = [(direct, x, 1.0), (inverted, 0.0, 1.0)]
    try:
        pieces = [_quadpack.qag(f, lo, hi) for f, lo, hi in spans]
    except OverflowError as exc:
        raise DomainError(f"tail of tau^-{a} (1+tau^2)^-{p} from x = {x!r}: the "
                          f"integrand leaves the float range") from exc
    val = sum(v for v, _, _, _ in pieces)
    err = sum(e for _, e, _, _ in pieces)
    bound = 1e-10 * abs(val)
    if err > bound or any(ier for _, _, ier, _ in pieces):
        detail = "; ".join(
            f"{f.__name__} [{lo!r}, {hi!r}]: error {e:.3e}, ier {ier}, "
            f"neval {neval}"
            for (f, lo, hi), (_, e, ier, neval) in zip(spans, pieces))
        raise QuadratureFailure(
            f"tail of tau^-{a} (1+tau^2)^-{p} from x = {x!r}: estimated error "
            f"{err:.3e} against bound {bound:.3e} ({detail})")
    if val == 0.0:
        raise QuadratureFailure(
            f"tail of tau^-{a} (1+tau^2)^-{p} from x = {x!r} underflows to 0, "
            f"but its integrand is positive")
    return val


def tau_tail_gap(a: int, p: int) -> float:
    """Worst gap of :func:`tau_tail_quadrature` to :func:`tau_tail_exact` at
    x = 0.25, 0.6, 1, 1.8 and 3, each divided by max(1, |exact|)."""
    exact = tau_tail_exact(a, p)
    gaps = []
    for x in (0.25, 0.6, 1.0, 1.8, 3.0):
        closed = exact.value(x)
        gaps.append(abs(closed - tau_tail_quadrature(a, p, x)) / max(1.0, abs(closed)))
    return nan_max(gaps)


# ---------------------------------------------------------------------------
# Radial profiles.
# ---------------------------------------------------------------------------


@dataclass
class RadialGreen:
    """A radial profile in the geodesic radius with closed-form metadata.

    Attributes:
        dim_n: odd sphere dimension.
        kind: short identifier ("L", "L2", "D2").
        singular_orders: exponents of the negative powers of r present in the
            short-distance expansion (used by the regular-part fit).
        evaluate: the value at r, one flat closure that the builder makes
            with its floats and ``math`` functions bound as locals.
        terms: (value, first, second r-derivative) at r from one shared
            evaluation, or None where no closed-form derivatives are known
            (the "D2" profile).  :func:`ode_rows` reads it.

    Profiles are defined on (0, pi); the pure-power "L" profile extends to
    r = pi, where the others are limits of an indeterminate product.  Calling
    the profile runs ``evaluate``, which raises DomainError outside the
    domain, where the evaluation overflows and where the value is not finite.
    """

    dim_n: int
    kind: str
    singular_orders: tuple[int, ...]
    evaluate: Callable[[float], float]
    terms: Callable[[float], tuple[float, float, float]] | None = None

    def __call__(self, r: float) -> float:
        return self.evaluate(r)


def chart_radius(r: float) -> float:
    """|x| = tan(r/2), the stereographic chart radius of geodesic distance r."""
    if not 0.0 <= r < math.pi:
        raise DomainError(f"r = {r} outside [0, pi)")
    return math.tan(r / 2)


def green_L_profile(n: int) -> RadialGreen:
    """Fundamental-solution profile C_n / sin^{n-2}(r/2) of the conformal
    Laplacian.

    Its ``terms`` gives the value and the closed-form first and second
    derivatives from one sin(r/2) and one cos(r/2).
    """
    c = float(sphere_constants(n).c_n)
    sin, pi, isfinite = math.sin, math.pi, math.isfinite

    def evaluate(r: float) -> float:
        if not 0.0 < r <= pi:
            raise DomainError(f"r = {r} outside the domain of the L profile")
        try:
            value = c * sin(r / 2) ** (2 - n)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"L profile at n = {n}, r = {r!r} leaves the float range") from exc
        if not isfinite(value):
            raise DomainError(f"L profile at n = {n}, r = {r!r} is {value!r}")
        return value

    def terms(r: float) -> tuple[float, float, float]:
        u, v = math.sin(r / 2), math.cos(r / 2)
        return (c * u ** (2 - n),
                c * (2 - n) / 2 * u ** (1 - n) * v,
                c * (2 - n) / 4 * ((1 - n) * u**-n * v**2 - u ** (2 - n)))

    return RadialGreen(dim_n=n, kind="L", singular_orders=tuple(range(2 - n, 0, 2)),
                       evaluate=evaluate, terms=terms)


# n -> shared profile, per kind.  Each lambda looks its builder up when it
# builds, so a replaced module-level builder is the one that runs.
_shared_L = functools.cache(lambda n: green_L_profile(n))
_shared_L2 = functools.cache(lambda n: green_L2_profile(n))
_SHARED = {"L": _shared_L, "L2": _shared_L2, "D2": functools.cache(lambda n: green_D2_profile(n))}


def _shared_profile(kind: str, n: int) -> RadialGreen:
    """The shared ``kind`` profile of dimension n; public builders return fresh
    ones.  ``_shared_profile.cache_clear()`` empties the caches."""
    if kind not in _SHARED:
        raise DomainError(f"unknown profile kind {kind!r}: expected 'L', 'L2' or 'D2'")
    return _SHARED[kind](n)


_shared_profile.cache_clear = lambda: [cache.cache_clear() for cache in _SHARED.values()]


def green_L(n: int, r: float) -> float:
    """Value of the conformal-Laplacian Green profile at geodesic radius r;
    the profile is built once per n, and each call runs its evaluator."""
    return _shared_L(n).evaluate(r)


def _fit_homogeneous_coefficient(n: int) -> float:
    """Numeric extraction of the (1-z)^{-m} coefficient that cancels the
    strongest singular mode of the variation-of-parameters solution.

    Returns A such that G = A (1-z)^{-m} + particular part is the profile
    with the softened r^{-(n-4)} leading singularity.  Exact value is
    D_n / (n-2), which :func:`green_L2_profile` uses.  The samples carry the
    particular part's own prefactor :func:`_l2_coefficient`, so A scales with
    it: a wrong D_n/(n-2) shows in :func:`ode_residual_L2`, not here.

    Domain: odd 3 <= n <= 97.  The fit samples the tail down to r = 1e-3,
    x = tan(r/2) = 5e-4, where the antiderivative's term x^{-(n-4)} leaves
    the float range from n = 99 on; the tail then raises DomainError.
    """
    import numpy as np

    b = _l2_coefficient(n)
    m = (n - 2) / 2.0
    i_int = tau_tail_exact(n - 3, 2)

    def particular_times_mode(r: float) -> float:
        z = math.cos(r)
        x = math.tan(r / 2)
        i_val = 4.0 * i_int.value(x)
        # No cancellation: multiply through by the mode before combining.
        return b * ((1 + z) ** (-m) * (1 - z) ** m * i_val - z)

    # particular_times_mode(r) -> -A + mixed powers of r (integer and, for
    # half-integer m, half-integer-shifted ones all >= 1); recover the
    # constant by least squares against degrees 0..6 on a small window.
    rs = np.geomspace(1e-3, 2e-2, 16)
    vals = np.array([particular_times_mode(float(r)) for r in rs])
    coeffs, _ = _scaled_lstsq(rs, vals, range(7))
    return -float(coeffs[0])


def homogeneous_coefficient_gap(n: int) -> float:
    """|fit / exact - 1| for the fitted cancelling coefficient and the
    particular part's own prefactor D_n/(n-2), which the fit scales with.

    Domain: odd 3 <= n <= 97.  From n = 99 on, x^{-(n-4)} at the fit's
    smallest sample x = 5e-4 leaves the float range, and the tail's
    DomainError propagates (see :func:`_fit_homogeneous_coefficient`).
    """
    return abs(_fit_homogeneous_coefficient(n) / _l2_coefficient(n) - 1.0)


def green_L2_profile(n: int) -> RadialGreen:
    """Radial solution of L G = green_L profile by variation of parameters.

    The strongest singular mode cancels exactly (coefficient D_n/(n-2); its
    numeric re-derivation is a check in the tests and the verify suite),
    leaving

        G(r) = (D_n/(n-2)) [ (1-z)^{1-m} + (1+z)^{-m} I(z) ],  z = cos r,

    which satisfies the iterated equation with residual at roundoff level.
    ``evaluate`` and ``terms`` take I(z) = 4 T(sqrt((1-z)/(1+z))) from the
    flat ``tail`` closure T of ``tau_tail_exact(n - 3, 2)``, once per radius.
    Both terms are positive; ``evaluate`` refuses a value outside (0, inf),
    as T = F(inf) - F(x) cancels near r = pi (to below 0 from n = 7 on).
    """
    b = _l2_coefficient(n)
    m = (n - 2) / 2.0
    tail = tau_tail_exact(n - 3, 2).tail
    cos, sqrt, pi, inf = math.cos, math.sqrt, math.pi, math.inf

    def evaluate(r: float) -> float:
        if not 0.0 < r < pi:
            raise DomainError(f"r = {r} outside the domain of the L2 profile")
        try:
            z = cos(r)
            value = b * ((1 - z) ** (1 - m)
                         + (1 + z) ** (-m) * (4.0 * tail(sqrt((1.0 - z) / (1.0 + z)))))
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"L2 profile at n = {n}, r = {r!r} leaves the float range") from exc
        if not 0.0 < value < inf:
            raise DomainError(f"L2 profile at n = {n}, r = {r!r} is {value!r}")
        return value

    def terms(r: float) -> tuple[float, float, float]:
        # G, its z-derivatives g_z and g_zz, and I, I', I'' at z = cos r;
        # dz/dr = -sin r turns them into r-derivatives.
        z = math.cos(r)
        i_val = 4.0 * tail(math.sqrt((1.0 - z) / (1.0 + z)))
        i_prime = ((1 + z) / (1 - z)) ** m
        i_second = 2 * m * (1 - z) ** (-m - 1) * (1 + z) ** (m - 1)
        g_z = b * (
            -(1 - m) * (1 - z) ** (-m)
            - m * (1 + z) ** (-m - 1) * i_val
            + (1 + z) ** (-m) * i_prime
        )
        g_zz = b * (
            -(1 - m) * m * (1 - z) ** (-m - 1)
            + m * (m + 1) * (1 + z) ** (-m - 2) * i_val
            - 2 * m * (1 + z) ** (-m - 1) * i_prime
            + (1 + z) ** (-m) * i_second
        )
        value = b * ((1 - z) ** (1 - m) + (1 + z) ** (-m) * i_val)
        return value, -math.sin(r) * g_z, math.sin(r) ** 2 * g_zz - z * g_z

    orders = tuple(range(4 - n, 0, 2)) if n >= 5 else ()
    return RadialGreen(dim_n=n, kind="L2", singular_orders=orders, evaluate=evaluate,
                       terms=terms)


def green_L2(n: int, r: float) -> float:
    """Value of the iterated-operator Green profile at geodesic radius r;
    the profile is built once per n, and each call runs its evaluator."""
    return _shared_L2(n).evaluate(r)


def _d2_prefactor(n: int, x: float) -> float:
    """((1+x^2)/4)^{(n-1)/2} / vol(S^{n-1}); OverflowError once x*x does or
    vol(S^{n-1}) is not a normal float (n >= 439)."""
    omega = _boundary_volume(n)
    base = (1.0 + x * x) / 4.0
    if base == math.inf:
        raise OverflowError(f"x * x overflows at x = {x!r}")
    return base ** ((n - 1) / 2.0) / omega


def green_D2_profile(n: int) -> RadialGreen:
    """Per-spinor-component radial profile of the squared-Dirac Green function.

    G(r) = (1/vol(S^{n-1})) ((1+X^2)/4)^{(n-1)/2} * J(X),  X = tan(r/2),
    J(X) = int_X^inf 2 tau^{1-n} (1+tau^2)^{-1} dtau.

    J is the exact partial-fraction tail, not the arctangent bracket of
    :func:`green_D2`: the trace pipeline fits this profile at r <= 0.1, and
    routed through :func:`green_D2` its k = 2 residual against the spectral
    trace grows from 4.13e-6 to 1.48e-5, past the 1e-5 bound of the
    ``pipeline-vs-spectral-D2-k2`` check.
    """
    _require_odd(n)
    tail = tau_tail_exact(n - 1, 1).tail
    tan, pi, isfinite = math.tan, math.pi, math.isfinite

    def evaluate(r: float) -> float:
        if not 0.0 < r < pi:
            raise DomainError(f"r = {r} outside the domain of the D2 profile")
        try:
            x = tan(r / 2)
            value = _d2_prefactor(n, x) * 2.0 * tail(x)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"D2 profile at n = {n}, r = {r!r} leaves the float range") from exc
        if not isfinite(value):
            raise DomainError(f"D2 profile at n = {n}, r = {r!r} is {value!r}")
        return value

    return RadialGreen(dim_n=n, kind="D2", singular_orders=tuple(range(2 - n, 0, 2)),
                       evaluate=evaluate)


def green_D2(n: int, x_norm: float) -> float:
    """Squared-Dirac Green value as a function of the chart radius |x|.

    With k = (n-1)/2 and X = |x| the tail integral reduces to

        J(X) = 2 (-1)^k [ pi/2 - arctan X - sum_{j<k} (-1)^j X^{-2j-1}/(2j+1) ],

    multiplied by the chart prefactor ((1+X^2)/4)^{(n-1)/2} / vol(S^{n-1}).
    Below X = 1.5 the literal form is used while its rounding estimate
    eps (pi/2 + arctan X + sum |terms|) stays within 1e-9 |bracket|; that
    holds for every X at n <= 13 and first fails at n = 27, just below
    X = 1.5.  Elsewhere with X > 1 the bracket is summed as the arctangent
    series remainder; at X <= 1, where that series does not converge, the
    literal form raises QuadratureFailure instead.  Where the prefactor
    alone leaves the float range (n = 41, X = 1e8, where the value is
    7.7e-15), (1+X^2)/4 = m 2^e is raised as m^k and 2^(ek) is applied to
    the finished value.  Where a power of X, x*x or the value leaves the
    float range, or vol(S^{n-1}) is not a normal float (from n = 439 on;
    see :func:`_boundary_volume`), it raises DomainError.  The quadrature twin :func:`green_D2_quadrature` is
    compared with it by :func:`d2_route_gap`, not on every call.
    """
    _require_odd(n)
    if not 0 < x_norm < math.inf:
        raise DomainError(f"x_norm = {x_norm} must be positive and finite")
    k = (n - 1) // 2
    try:
        bracket, shift = _arctan_bracket(n, x_norm, k)
        try:
            value = _d2_prefactor(n, x_norm) * 2.0 * (-1) ** k * bracket
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            m, e = math.frexp((1.0 + x_norm * x_norm) / 4.0)
            value = m ** k / _boundary_volume(n) * 2.0 * (-1) ** k * bracket
            shift -= e * k
        value = math.ldexp(value, -shift)
        if math.isinf(value):
            raise OverflowError(f"the value or x * x overflows at x = {x_norm!r}")
        return value
    except (OverflowError, ZeroDivisionError) as exc:
        raise _d2_range_error(n, x_norm) from exc


def _d2_range_error(n: int, x_norm: float) -> DomainError:
    return DomainError(f"D2 value at n = {n}, x_norm = {x_norm!r} leaves the "
                       f"float range")


def _arctan_bracket(n: int, x_norm: float, k: int) -> tuple[float, int]:
    """(b, s) with b 2^-s = pi/2 - arctan X - sum_{j<k} (-1)^j X^{-2j-1}/(2j+1),
    summed as :func:`green_D2` describes; s = 0 unless the series' first
    term is below the normal float range."""
    if x_norm < 1.5:
        atan = math.atan(x_norm)
        bracket = math.pi / 2 - atan
        magnitude = math.pi / 2 + atan
        for j in range(k):
            term = x_norm ** (-2 * j - 1) / (2 * j + 1)
            bracket -= (-1) ** j * term
            magnitude += term
        rounding = sys.float_info.epsilon * magnitude
        if rounding <= 1e-9 * abs(bracket):
            return bracket, 0
        if x_norm <= 1.0:
            raise QuadratureFailure(
                f"arctangent bracket loses precision at x_norm = {x_norm} "
                f"(n = {n}, k = {k} subtracted terms): rounding estimate "
                f"{rounding:.3e} exceeds the bound 1e-9 |bracket|, with "
                f"|bracket| = {abs(bracket):.3e}"
            )
    # pi/2 - arctan X = arctan(1/X) and the subtracted sum is the first k
    # terms of its Maclaurin series, so the bracket equals the series
    # remainder; summing it directly avoids the catastrophic cancellation
    # of the literal form for large X or large k.
    return _arctan_series_remainder(1.0 / x_norm, k)


# The most terms _arctan_series_remainder will sum.
_SERIES_MAX_TERMS = 10**6


def _arctan_series_remainder(t: float, k: int) -> tuple[float, int]:
    """(S, s) with S 2^-s = sum_{j >= k} (-1)^j t^{2j+1} / (2j+1), 0 < t < 1.

    s = 0 unless t^{2k+1} is below the normal float range (t = 1e-150 at
    k = 1 gives 1e-450, which rounds to 0).  There t = m 2^e is split with
    0.5 <= m < 1, the sum starts from m^{2k+1} and s = -e (2k+1): every
    term is scaled by the same power of two, and the caller applies 2^-s
    once, to the finished value.

    The sum stops at the first term below 1e-18 times the partial sum.  The
    terms fall by at least t^2 per step, and every partial sum of two or more terms is
    at least a_k - a_{k+1}, a_j = t^{2j+1}/(2j+1), so the stop comes within
    floor(ln(1e-18 c) / ln(t^2)) + 2 terms, c = (2k+3)/(2k+1) - t^2.  The
    budget allows two terms more and raises QuadratureFailure beyond them;
    a budget above 10^6 terms (x within 2.6e-5 of 1, n above about 6e4) is
    refused before any term is summed.
    """
    c = (2 * k + 3) / (2 * k + 1) - t * t
    budget = int(math.log(1e-18 * c) / (2 * math.log(t))) + 4
    if budget > _SERIES_MAX_TERMS:
        raise QuadratureFailure(
            f"arctangent remainder series at t = {t} needs up to {budget} "
            f"terms after the first k = {k}, more than {_SERIES_MAX_TERMS}")
    total = 0.0
    power, shift = t ** (2 * k + 1), 0
    if power < sys.float_info.min:
        m, e = math.frexp(t)
        power, shift = m ** (2 * k + 1), -e * (2 * k + 1)
    for j in range(k, k + budget):
        term = power / (2 * j + 1)
        total += term if j % 2 == 0 else -term
        power *= t * t
        if power < 1e-18 * (abs(total) + 1e-300) * (2 * j + 3):
            return total, shift
    raise QuadratureFailure(
        f"arctangent remainder series at t = {t} did not converge in {budget} "
        f"terms after the first k = {k}"
    )


def green_D2_quadrature(n: int, x_norm: float) -> float:
    """Squared-Dirac Green value with the tail integral done by quadrature.

    Raises DomainError where the integrand, the prefactor or the value
    leaves the float range (x*x in the prefactor overflows from x =
    1.35e154, as in :func:`green_D2`) or vol(S^{n-1}) is not a normal float
    (n >= 439), and QuadratureFailure where the tail underflows to 0
    (x = 1e150 at n = 3).
    """
    _require_odd(n)
    if not 0 < x_norm < math.inf:
        raise DomainError(f"x_norm = {x_norm} must be positive and finite")
    try:
        value = _d2_prefactor(n, x_norm) * 2.0 * tau_tail_quadrature(n - 1, 1, x_norm)
        if math.isinf(value):
            raise OverflowError(f"the prefactor or the value overflows at x = {x_norm!r}")
        return value
    except (OverflowError, ZeroDivisionError, DomainError) as exc:
        raise _d2_range_error(n, x_norm) from exc


def d2_route_gap(n: int, x_norm: float) -> tuple[float, float]:
    """(:func:`green_D2` value, its gap to :func:`green_D2_quadrature` / |value|)."""
    value = green_D2(n, x_norm)
    return value, abs(value - green_D2_quadrature(n, x_norm)) / abs(value)


def green_D2_closed3(r: float) -> float:
    """Independent n = 3 closed form (1/(16 pi)) [4/sin r + sec^2(r/2)(r-pi)]."""
    return (4.0 / math.sin(r) + (r - math.pi) / math.cos(r / 2) ** 2) / (16 * math.pi)


# ---------------------------------------------------------------------------
# Radial operator application and residuals.
# ---------------------------------------------------------------------------


def ode_rows(n: int, kind: str, rs) -> list[tuple[float, float]]:
    """(value, relative ODE residual) of the "L" or "L2" profile at each radius.

    L (L-profile) = 0 and L (L2-profile) = L-profile, with
    (L f)(r) = -f'' - (n-1) cot(r) f' + n(n-2)/4 f.  The shared profile's
    ``terms`` and the right-hand side C_n sin^{2-n}(r/2), unchecked so that
    a failing row names the kind asked for, are evaluated once per radius.
    Raises DomainError for a kind other than "L", "L2" and "D2", for a
    profile without ``terms`` (the "D2" one) and for a radius outside
    (0, pi), each before anything is evaluated there, and naming the kind,
    n and r where a value, a derivative or the residual overflows, divides
    by zero or is not finite, and where a value is not positive.
    """
    prof = _shared_profile(kind, n)
    if prof.terms is None:
        raise DomainError(f"the {kind} profile has no closed-form derivatives")
    c = float(sphere_constants(n).c_n) if kind == "L2" else None
    rows = []
    for r in rs:
        if not 0.0 < r < math.pi:
            raise DomainError(f"r = {r} outside (0, pi)")
        try:
            rhs = 0.0 if c is None else c * math.sin(r / 2) ** (2 - n)
            f0, f1, f2 = prof.terms(r)
            val = -f2 - (n - 1) * (math.cos(r) / math.sin(r)) * f1 + n * (n - 2) / 4 * f0
            scale = abs(f2) + abs(n * (n - 2) / 4 * f0) + abs(rhs)
            res = abs(val - rhs) / max(scale, 1e-300)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{kind} profile at n = {n}, r = {r!r} leaves the "
                              f"float range") from exc
        if not all(map(math.isfinite, (f0, f1, f2, rhs, res))):
            raise DomainError(f"{kind} profile at n = {n}, r = {r!r} leaves the "
                              f"float range: value {f0!r}, derivatives {f1!r}, "
                              f"{f2!r}, ODE residual {res!r}")
        if not f0 > 0.0:
            raise DomainError(f"{kind} profile at n = {n}, r = {r!r} is not positive: "
                              f"value {f0!r}")
        rows.append((f0, res))
    return rows


def ode_residual_L(n: int, rs) -> float:
    """Max relative residual of L (L-profile) = 0 over the sample radii.

    Raises DomainError where a radius gives a non-finite value, derivative
    or residual (see :func:`ode_rows`).
    """
    return nan_max(res for _, res in ode_rows(n, "L", rs))


def ode_residual_L2(n: int, rs) -> float:
    """Max relative residual of L (L2-profile) = L-profile over the radii.

    Raises DomainError on a non-finite row, as :func:`ode_residual_L` does.
    """
    return nan_max(res for _, res in ode_rows(n, "L2", rs))


# ---------------------------------------------------------------------------
# Regular part at the diagonal.
# ---------------------------------------------------------------------------


# The regular-part fit: the radius window, geometric nodes over it,
# polynomial degrees besides the singular powers, Richardson levels, and the
# largest error estimate accepted.
_FIT_WINDOW = (1e-3, 1e-1)
_FIT_NODES = 24
_FIT_POLY_DEGREE = 6
_RICHARDSON_LEVELS = 2
_MAX_FIT_ERROR = 1e-6


@dataclass(frozen=True)
class RegularPartResult:
    """Constant term of a profile at r -> 0 with an error estimate."""

    value: float
    error_estimate: float
    singular_coeffs: dict[int, float]


def _scaled_lstsq(rs, vals, exponents):
    """Least-squares coefficients of vals in the columns rs**e, e in exponents.

    Each column is scaled to a largest magnitude of 1 before the solve, and
    the coefficients are scaled back.  Returns them with the singular values
    of the scaled design.
    """
    import numpy as np

    design = np.stack([rs**e for e in exponents], axis=1)
    scales = np.max(np.abs(design), axis=0)
    coeffs, _, _, singular_values = np.linalg.lstsq(design / scales, vals, rcond=None)
    return coeffs / scales, singular_values


def regular_part(
    fun: Callable[[float], float],
    singular_orders: tuple[int, ...],
) -> RegularPartResult:
    """Extract the constant term of fun(r) = sum c_s r^s + c_0 + O(r).

    Least-squares fit on 24 geometric nodes over the fixed window
    [1e-3, 1e-1] with basis {r^s : s in singular_orders} plus polynomial
    degrees 0..6; the fitted negative powers are subtracted and the
    remainder is Richardson extrapolated (two levels, eliminating r and
    r^2) at the smallest nodes.

    Args:
        fun: the profile as a function of r, such as a
            :class:`RadialGreen`'s ``evaluate``.
        singular_orders: the Laurent exponents s < 0 of the expansion,
            such as the profile's ``singular_orders``; () for none.

    Raises:
        FitUnstable: if the combined error estimate exceeds 1e-6 or is not
            a number.  The message names the window, the node count, both
            parts of the estimate (the gap between the last two Richardson
            values and the gap between the fit's constant and the
            extrapolated value) and the condition number of the
            column-scaled design.
    """
    import numpy as np

    lo, hi = _FIT_WINDOW
    rs = np.geomspace(lo, hi, _FIT_NODES)
    vals = np.array([fun(float(r)) for r in rs])

    exponents = list(singular_orders) + list(range(_FIT_POLY_DEGREE + 1))
    coeffs, singular_values = _scaled_lstsq(rs, vals, exponents)
    by_exp = dict(zip(exponents, coeffs))
    c0_fit = by_exp[0]

    # Remainder after subtracting the fitted negative powers only.
    remainder = vals.copy()
    for e in singular_orders:
        remainder = remainder - by_exp[e] * rs**e

    rho = rs[1] / rs[0]
    tableau = [list(remainder[: _RICHARDSON_LEVELS + 2])]
    for k in range(1, _RICHARDSON_LEVELS + 1):
        prev = tableau[-1]
        fac = rho**k
        tableau.append([(fac * prev[i] - prev[i + 1]) / (fac - 1) for i in range(len(prev) - 1)])
    top = tableau[-1]
    value = top[0]
    richardson_gap = abs(top[0] - top[1])
    fit_gap = abs(value - c0_fit)
    err = richardson_gap + fit_gap
    if not err <= _MAX_FIT_ERROR:
        smallest = singular_values[-1]
        cond = singular_values[0] / smallest if smallest > 0 else math.inf
        raise FitUnstable(
            f"regular part on window [{lo!r}, {hi!r}] with {_FIT_NODES} nodes: "
            f"error estimate {err:.3e} exceeds {_MAX_FIT_ERROR:.3e} (Richardson "
            f"gap {richardson_gap:.3e}, fit-vs-Richardson gap {fit_gap:.3e}); "
            f"condition number of the scaled design {cond:.3e}")
    singular = {int(e): float(by_exp[e]) for e in singular_orders}
    return RegularPartResult(value=float(value), error_estimate=float(err), singular_coeffs=singular)


# ---------------------------------------------------------------------------
# Regularized traces.
# ---------------------------------------------------------------------------


class TraceKind(enum.Enum):
    L2 = "L2"
    D2 = "D2"


def kv_trace_L2(k: int) -> tuple[Fraction, int]:
    """Closed-form evaluator for the regularized trace of L^{-2} on S^{2k+1}.

    Returns (rational, pi_exponent):
        (-1)^{k+1} (2k+1) (2k)! / (2^{4k+4} (2k-1) (k!)^2) * pi^2.
    """
    if k < 1:
        raise DomainError("k >= 1")
    num = (-1) ** (k + 1) * (2 * k + 1) * math.factorial(2 * k)
    den = 2 ** (4 * k + 4) * (2 * k - 1) * math.factorial(k) ** 2
    return Fraction(num, den), 2


def kv_trace_D2(k: int) -> tuple[Fraction, int]:
    """Closed-form evaluator for the regularized trace of D^{-2} on S^{2k+1}.

    Returns (rational, pi_exponent):
        (-1)^k (2k)! / (2^{2k+1} (k!)^2) * pi^2.
    """
    if k < 1:
        raise DomainError("k >= 1")
    num = (-1) ** k * math.factorial(2 * k)
    den = 2 ** (2 * k + 1) * math.factorial(k) ** 2
    return Fraction(num, den), 2


def trace_sign_expected(kind: TraceKind, k: int) -> int:
    """Sign law: (-1)^{k+1} for the L^2 trace, (-1)^k for the D^2 trace."""
    return (-1) ** (k + 1) if kind is TraceKind.L2 else (-1) ** k


# The published coefficients of pi^2 for k <= 2.
_FROZEN_TRACES = {
    (TraceKind.L2, 1): Fraction(3, 128),
    (TraceKind.L2, 2): Fraction(-5, 2048),
    (TraceKind.D2, 1): Fraction(-1, 4),
    (TraceKind.D2, 2): Fraction(3, 16),
}


_EVALUATORS = {TraceKind.L2: kv_trace_L2, TraceKind.D2: kv_trace_D2}


def frozen_traces_match(k_max: int) -> bool:
    """True when the evaluators give every frozen coefficient with k <= k_max."""
    return all(_EVALUATORS[kind](k)[0] == value
               for (kind, k), value in _FROZEN_TRACES.items() if k <= k_max)


def trace_signs_match(k_max: int) -> bool:
    """True when every evaluator coefficient with k <= k_max has the sign
    that :func:`trace_sign_expected` states."""
    return all((1 if evaluator(k)[0] > 0 else -1) == trace_sign_expected(kind, k)
               for kind, evaluator in _EVALUATORS.items() for k in range(1, k_max + 1))


@dataclass(frozen=True)
class PipelineTrace:
    """Regular part of the profile at the diagonal times vol(S^n)."""

    kind: TraceKind
    k: int
    n: int
    value: float
    error_estimate: float


def trace_from_pipeline(kind: TraceKind, k: int) -> PipelineTrace:
    """Trace via the numerical pipeline: regular_part(profile) x vol(S^n).

    The profile is the shared one of the value functions.
    """
    n = 2 * k + 1
    prof = _shared_profile(kind.value, n)
    reg = regular_part(prof.evaluate, prof.singular_orders)
    vol = float(sphere_volume_exact(n))
    return PipelineTrace(kind=kind, k=k, n=n, value=reg.value * vol,
                         error_estimate=reg.error_estimate * vol)


def spectral_convention_factor(kind: TraceKind, k: int) -> int:
    """Exact factor linking the pipeline trace to the spectral sum.

    The profile normalization C_n is half the delta-normalized Green constant
    (factor 2 for the L^2 trace), and the squared-Dirac profile is per spinor
    component (factor 2^k = rank of the spinor bundle on S^{2k+1}).
    """
    return 2 if kind is TraceKind.L2 else 2**k


def _zeta2_half_rational(m: int) -> Fraction:
    """Rational part of zeta(2, m + 1/2) = pi^2/2 - 4 sum_{i<m} (2i+1)^{-2}."""
    return -4 * sum(Fraction(1, (2 * i + 1) ** 2) for i in range(m))


def _spectral_trace_exact(kind: TraceKind, k: int) -> tuple[Fraction, Fraction]:
    """The regularized spectral sum on S^{2k+1} as (pi^2 coefficient, rational part).

    The multiplicity is a polynomial in u = b^2: for L^2, b^2 prod_{0<j<k}
    (b^2 - j^2) / (k (2k-1)!) over integers b >= k, against lam^{-2} with
    lam = b^2 - 1/4; for D^2 (both signs), 2^{k+1} prod_{j=1..k}
    (b^2 - (j-1/2)^2) / (2k)! over b in k + 1/2 + N, against b^{-2}.
    Division leaves a polynomial in b^2, whose sums regularize by zeta(-2i)
    = 0, zeta(0) = -1/2 and zeta(s, 1/2) = (2^s - 1) zeta(s) to minus the
    lattice points below the start, and a remainder summed in closed form:
    sum_{b>=k} 1/lam = 2/(2k-1) and 1/lam^2 = (b-1/2)^-2 + (b+1/2)^-2 - 2/lam.
    """
    if k < 1:
        raise DomainError(f"spectral reference needs k >= 1, got k = {k}")
    half = Fraction(1, 2)
    if kind is TraceKind.L2:
        poly = [Fraction(1, k * math.factorial(2 * k - 1))]
        roots = [Fraction(j * j) for j in range(k)]
        pole, order, below, zeta0 = Fraction(1, 4), 2, range(1, k), -half
    else:
        poly = [Fraction(2 ** (k + 1), math.factorial(2 * k))]
        roots = [(j - half) ** 2 for j in range(1, k + 1)]
        pole, order, below, zeta0 = Fraction(0), 1, [b + half for b in range(k)], 0
    # The multiplicity in u, lowest degree first: multiply in each (u - root).
    for root in roots:
        poly = [lo - root * hi for lo, hi in zip([0, *poly], [*poly, 0])]
    # Synthetic division by (u - pole), order times: rems[i] is the
    # coefficient of (u - pole)^(i - order).
    rems = []
    for _ in range(order):
        acc, quotient = Fraction(0), []
        for c in reversed(poly):
            acc = acc * pole + c
            quotient.append(acc)
        rems.append(quotient.pop())
        poly = quotient[::-1]
    rational = sum(c * ((zeta0 if i == 0 else 0) - sum(b ** (2 * i) for b in below))
                   for i, c in enumerate(poly))
    if kind is TraceKind.L2:
        inv2, inv1 = rems
        tele = Fraction(2, 2 * k - 1)
        zetas = _zeta2_half_rational(k - 1) + _zeta2_half_rational(k)
        return inv2, rational + inv1 * tele + inv2 * (zetas - 2 * tele)
    return rems[0] / 2, rational + rems[0] * _zeta2_half_rational(k)


def spectral_trace_reference(kind: TraceKind, k: int) -> float:
    """Independent trace value by zeta continuation of the
    multiplicity-weighted eigenvalue sum; every k >= 1, DomainError below.

    Conformal Laplacian on S^{2k+1}: eigenvalues b^2 - 1/4 on the shifted
    grid b = l + (n-1)/2 + 1/2 with polynomial multiplicities; squared Dirac
    operator: eigenvalues b^2, b = a + n/2, multiplicity
    2^{floor(n/2)} C(a+n-1, a) per sign of the Dirac eigenvalue.  The sum
    is exact in Q + Q pi^2 (:func:`_spectral_trace_exact`) until the return.
    """
    pi2, rational = _spectral_trace_exact(kind, k)
    return float(pi2) * math.pi**2 + float(rational)


def pipeline_trace_gap(kind: TraceKind, k: int) -> float:
    """|factor x pipeline trace - spectral reference| / |spectral reference|."""
    pipe = trace_from_pipeline(kind, k).value
    ref = spectral_trace_reference(kind, k)
    return abs(spectral_convention_factor(kind, k) * pipe - ref) / abs(ref)
