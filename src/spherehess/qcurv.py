"""Exact leading-symbol calculus for linearized curvature quantities.

Everything here is flat-background, leading-order, and exact: tensors are
tuples of `Fraction`s, each symbol function returns its plain `Fraction`
(scalar symbols) or `FracMat` (matrix symbols), and the single derivative
convention sigma(d_j) = i xi_j is fixed once, giving

    sigma(Laplacian)   = -|xi|^2            (scalar)
    sigma(Hessian)_ij  = -xi_i xi_j         (matrix)
    sigma(div div k)   = -xi^T k xi.

Composed through the linearized scalar curvature, Schouten-type tensor and
the critical-order obstruction tensor, the n-th order Hessian of the total
Q-type curvature functional comes out as exactly -|xi|^n / 4 times the
trace-free transverse perturbation, which is the end-to-end identity this
module exists to verify.  The conformal Killing (Ahlfors) operator's symbol
and its adjoint identity are included since its range spans the gauge
directions that the Hessian kills.

The assembled chain (:func:`lin_scalar_symbol`, :func:`lin_schouten_symbol`,
:func:`lin_obstruction_symbol`, :func:`q_hessian_symbol`) and
:func:`project_tt` run on Python ints: each call validates its input, writes
xi = x / d and k = K / e with integer x and K, does all matrix work on
integers and makes one exact division per distinct output entry: every
output matrix is symmetric, and (i, j) and (j, i) share one `Fraction`.
The results are the same `Fraction`s that rational arithmetic gives.  The
routes the chain is checked against (:func:`q_hessian_expected`,
:func:`lin_obstruction_symbol_direct`, :func:`lin_ricci_symbol`,
:func:`lin_schouten_from_ricci`) stay on `Fraction` arithmetic, so a check
compares two different kinds of arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import dataclass
from .errors import (
    DomainError,
    ParityError,
    PreconditionViolation,
    ZeroCovector,
)

__all__ = [
    "FracVec",
    "FracMat",
    "as_vector",
    "as_matrix",
    "identity",
    "mat_add",
    "mat_scale",
    "outer",
    "mat_trace",
    "mat_apply",
    "frobenius",
    "xi_norm_sq",
    "laplacian_symbol",
    "hessian_symbol",
    "lin_scalar_symbol",
    "lin_ricci_symbol",
    "lin_schouten_symbol",
    "lin_schouten_from_ricci",
    "lin_obstruction_symbol",
    "lin_obstruction_symbol_direct",
    "q_hessian_symbol",
    "q_hessian_expected",
    "ahlfors_symbol",
    "project_tt",
    "q_symbol_identity_holds",
]

FracVec = tuple[Fraction, ...]
FracMat = tuple[tuple[Fraction, ...], ...]


def as_vector(entries) -> FracVec:
    """The entries as plain `Fraction`s; an entry that already is one is kept."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def as_matrix(rows) -> FracMat:
    """A square matrix of plain `Fraction`s, as :func:`as_vector` makes them.

    Entries whose type is exactly `Fraction` are kept; everything else
    (ints, bools, "p/q" strings, `Fraction` subclasses) goes through
    ``Fraction(e)``.

    Raises:
        DomainError: the rows do not form a square matrix.
    """
    mat = tuple(tuple(e if type(e) is Fraction else Fraction(e) for e in row)
                for row in rows)
    size = len(mat)
    if any(len(row) != size for row in mat):
        raise DomainError("matrix must be square")
    return mat


def identity(n: int) -> FracMat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_add(*mats: FracMat) -> FracMat:
    size = len(mats[0])
    return tuple(
        tuple(sum((m[i][j] for m in mats), Fraction(0)) for j in range(size))
        for i in range(size)
    )


def mat_scale(c: Fraction, m: FracMat) -> FracMat:
    c = Fraction(c)
    return tuple(tuple(c * e for e in row) for row in m)


def outer(u: FracVec, v: FracVec) -> FracMat:
    return tuple(tuple(ui * vj for vj in v) for ui in u)


def mat_trace(m: FracMat) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def mat_apply(m: FracMat, v: FracVec) -> FracVec:
    return tuple(
        sum((m[i][j] * v[j] for j in range(len(v))), Fraction(0))
        for i in range(len(m))
    )


def frobenius(a: FracMat, b: FracMat) -> Fraction:
    return sum(
        (a[i][j] * b[i][j] for i in range(len(a)) for j in range(len(a))),
        Fraction(0),
    )


def _check_symmetric(m: FracMat) -> None:
    """Raise unless m is symmetric; a shared entry needs no comparison."""
    size = len(m)
    for i in range(size):
        for j in range(i):
            if m[i][j] is not m[j][i] and m[i][j] != m[j][i]:
                raise DomainError("matrix must be symmetric")


def xi_norm_sq(xi: FracVec) -> Fraction:
    return sum((x * x for x in xi), Fraction(0))


def laplacian_symbol(xi: FracVec) -> Fraction:
    """sigma(Laplacian) = -|xi|^2 — the one place the sign convention lives."""
    return -xi_norm_sq(xi)


def hessian_symbol(xi: FracVec) -> FracMat:
    """sigma(second covariant derivative)_ij = -xi_i xi_j."""
    return mat_scale(Fraction(-1), outer(xi, xi))


def _validated(n: int, xi, k) -> tuple[FracVec, FracMat]:
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    xi_v = as_vector(xi)
    k_m = as_matrix(k)
    if len(xi_v) != n or len(k_m) != n:
        raise DomainError("xi and k must have size n")
    _check_symmetric(k_m)
    return xi_v, k_m


def _require_tt(xi: FracVec, k: FracMat) -> None:
    if mat_trace(k) != 0:
        raise PreconditionViolation("k must be trace free")
    if any(c != 0 for c in mat_apply(k, xi)):
        raise PreconditionViolation("k must be transverse (k xi = 0)")


# ---------------------------------------------------------------------------
# Integer core of the assembled chain.  Each linearized symbol is linear in k
# and homogeneous in xi, so with xi = x / d and k = K / e it is an integer
# numerator over a known denominator; a part is a (numerator, denominator)
# pair, and the only division is `_fractions` at the end.
# ---------------------------------------------------------------------------

_IntMat = list[list[int]]


def _over_common_denominator(rows: FracMat) -> tuple[_IntMat, int]:
    """Integer rows and the lcm e of all denominators, with rows = ints / e."""
    e = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (e // v.denominator) for v in row] for row in rows], e


def _int_apply(m, v: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _fractions(num: _IntMat, den: int) -> FracMat:
    """The symmetric matrix num / den, one exact division per distinct entry.

    Only the upper triangle of ``num`` is read; entry (i, j) and (j, i) are
    one shared `Fraction`.
    """
    size = len(num)
    rows = [[None] * size for _ in range(size)]
    for i, num_row in enumerate(num):
        row = rows[i]
        for j in range(i, size):
            row[j] = rows[j][i] = Fraction(num_row[j], den)
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class _Cleared:
    """Validated (xi, k) with denominators cleared: xi = x / d, k = kk / e."""

    n: int
    x: list[int]
    kk: _IntMat
    d: int
    e: int
    nrm: int  # |x|^2 = d^2 |xi|^2


def _cleared(n: int, xi, k, *, tt: bool) -> _Cleared:
    """Validate as the Fraction routes do, then clear the denominators.

    With ``tt`` the input must be trace free and transverse; both
    conditions are scale free, so they are tested on the integers.
    """
    xi_v, k_m = _validated(n, xi, k)
    [x], d = _over_common_denominator((xi_v,))
    kk, e = _over_common_denominator(k_m)
    if tt:
        if sum(kk[i][i] for i in range(n)) != 0:
            raise PreconditionViolation("k must be trace free")
        if any(_int_apply(kk, x)):
            raise PreconditionViolation("k must be transverse (k xi = 0)")
    return _Cleared(n, x, kk, d, e, sum(v * v for v in x))


def _scalar(c: _Cleared) -> tuple[int, int]:
    """sigma(lin Scal) = (-x^T kk x + |x|^2 tr kk) / (d^2 e)."""
    div_div = -sum(a * b for a, b in zip(c.x, _int_apply(c.kk, c.x)))
    trace = sum(c.kk[i][i] for i in range(c.n))
    return div_div + c.nrm * trace, c.d**2 * c.e


def _schouten(c: _Cleared) -> tuple[_IntMat, int]:
    """sigma(lin Schouten) on TT input = |x|^2 kk / (2(n-2) d^2 e)."""
    return ([[c.nrm * v for v in row] for row in c.kk],
            2 * (c.n - 2) * c.d**2 * c.e)


def _obstruction(c: _Cleared) -> tuple[_IntMat, int]:
    """sigma(Lap)^{n/2-2} [sigma(Lap) Schouten - scal sigma(Hess) / (2(n-1))].

    sigma(Lap) = -|x|^2 / d^2 and sigma(Hess) = -x x^T / d^2; the scalar
    part is computed, not assumed to vanish on TT input.
    """
    lap, lap_den = -c.nrm, c.d**2
    schouten, schouten_den = _schouten(c)
    scal, scal_den = _scalar(c)
    # Both terms over one denominator; sigma(Hess)'s minus sign turns the
    # subtraction of the scalar term into an addition of scal x x^T.
    first_den = lap_den * schouten_den
    second_den = scal_den * lap_den * 2 * (c.n - 1)
    den = math.lcm(first_den, second_den)
    first = lap * (den // first_den)
    second = scal * (den // second_den)
    x = c.x
    power = c.n // 2 - 2
    scale = lap**power
    value = [[scale * (first * schouten[i][j] + second * x[i] * x[j])
              for j in range(c.n)] for i in range(c.n)]
    return value, den * lap_den**power


def lin_scalar_symbol(n: int, xi, k) -> Fraction:
    """Leading symbol of the linearized scalar curvature: div div k - Lap tr k.

    Equals -xi^T k xi + |xi|^2 tr k; vanishes identically on trace-free
    transverse perturbations.
    """
    c = _cleared(n, xi, k, tt=False)
    return Fraction(*_scalar(c))


def lin_ricci_symbol(n: int, xi, k) -> FracMat:
    """Leading symbol of the linearized Ricci tensor (no gauge conditions).

    (1/2) [ |xi|^2 k - xi (k xi)^T - (k xi) xi^T + (tr k) xi xi^T ]; on
    trace-free transverse input this collapses to |xi|^2 k / 2.
    """
    xi_v, k_m = _validated(n, xi, k)
    kxi = mat_apply(k_m, xi_v)
    return mat_scale(
        Fraction(1, 2),
        mat_add(
            mat_scale(xi_norm_sq(xi_v), k_m),
            mat_scale(Fraction(-1), outer(xi_v, kxi)),
            mat_scale(Fraction(-1), outer(kxi, xi_v)),
            mat_scale(mat_trace(k_m), outer(xi_v, xi_v)),
        ),
    )


def lin_schouten_symbol(n: int, xi, k) -> FracMat:
    """Leading symbol of the linearized Schouten-type tensor on TT input.

    -(1/(2(n-2))) sigma(Laplacian) k = +|xi|^2 k / (2(n-2)).
    """
    c = _cleared(n, xi, k, tt=True)
    return _fractions(*_schouten(c))


def lin_schouten_from_ricci(n: int, xi, k) -> FracMat:
    """Schouten symbol assembled from the full Ricci symbol (dual route).

    (1/(n-2)) [ sigma(lin Ricci) - (1/(2(n-1))) sigma(lin Scal) * delta ];
    must agree with :func:`lin_schouten_symbol` on trace-free transverse
    input, where the extra terms cancel.  The scalar part is the trace of
    the Ricci symbol, |xi|^2 tr k - xi^T k xi, so this route shares no code
    with the integer chain behind :func:`lin_schouten_symbol`.
    """
    xi_v, k_m = _validated(n, xi, k)
    ricci = lin_ricci_symbol(n, xi_v, k_m)
    scal = mat_trace(ricci)
    return mat_scale(
        Fraction(1, n - 2),
        mat_add(ricci, mat_scale(-Fraction(1, 2 * (n - 1)) * scal, identity(n))),
    )


def _check_even(n: int) -> None:
    if n % 2 == 1:
        raise ParityError(f"n must be even, got {n}")
    if n < 4:
        raise DomainError(f"n must be >= 4, got {n}")


def lin_obstruction_symbol(n: int, xi, k) -> FracMat:
    """Leading symbol of the linearized obstruction tensor, assembled.

    sigma(Laplacian)^{n/2-2} [ sigma(Laplacian) sigma(lin Schouten)
        - (1/(2(n-1))) sigma(Hessian) sigma(lin Scal) ]
    on trace-free transverse input; the scalar-curvature term vanishes there
    and the result is (-1)^{n/2+1} |xi|^n / (2(n-2)) times k.
    """
    _check_even(n)
    c = _cleared(n, xi, k, tt=True)
    return _fractions(*_obstruction(c))


def lin_obstruction_symbol_direct(n: int, xi, k) -> FracMat:
    """Direct route: -(1/(2(n-2))) sigma(Laplacian)^{n/2} k."""
    _check_even(n)
    xi_v, k_m = _validated(n, xi, k)
    _require_tt(xi_v, k_m)
    scale = -Fraction(1, 2 * (n - 2)) * laplacian_symbol(xi_v) ** (n // 2)
    return mat_scale(scale, k_m)


def q_hessian_symbol(n: int, xi, k) -> FracMat:
    """n-th order Hessian symbol of the total Q-type curvature functional.

    (-1)^{n/2} ((n-2)/2) times the obstruction symbol; on trace-free
    transverse input this is exactly -|xi|^n / 4 times k.
    """
    _check_even(n)
    c = _cleared(n, xi, k, tt=True)
    obstruction, den = _obstruction(c)
    factor = (-1) ** (n // 2) * (n - 2)
    value = [[factor * v for v in row] for row in obstruction]
    return _fractions(value, 2 * den)


def q_hessian_expected(n: int, xi, k) -> FracMat:
    """The closed form -|xi|^n / 4 times k (comparison target)."""
    _check_even(n)
    xi_v, k_m = _validated(n, xi, k)
    scale = -Fraction(1, 4) * xi_norm_sq(xi_v) ** (n // 2)
    return mat_scale(scale, k_m)


def ahlfors_symbol(n: int, xi, vec) -> FracMat:
    """Leading symbol of the conformal Killing operator on a vector.

    xi (x) X + X (x) xi - (2/n) (xi . X) Id; trace free by construction and
    adjoint to twice the divergence: <ahlfors_symbol(xi, X), k> = <X, 2 k xi>
    for every trace-free symmetric k.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    xi_v = as_vector(xi)
    x_v = as_vector(vec)
    if len(xi_v) != n or len(x_v) != n:
        raise DomainError("xi and X must have length n")
    dot = sum((a * b for a, b in zip(xi_v, x_v)), Fraction(0))
    return mat_add(
        outer(xi_v, x_v),
        outer(x_v, xi_v),
        mat_scale(-Fraction(2, n) * dot, identity(n)),
    )


def project_tt(xi, m) -> FracMat:
    """Exact trace-free transverse compression of a symmetric matrix.

    P m P - (tr(P m P)/(n-1)) P with P the projector normal to xi; the
    result is symmetric, annihilates xi, and is trace free.
    """
    xi_v = as_vector(xi)
    m_m = as_matrix(m)
    _check_symmetric(m_m)
    n = len(xi_v)
    [x], _ = _over_common_denominator((xi_v,))
    mm, e = _over_common_denominator(m_m)
    nrm = sum(v * v for v in x)
    if nrm == 0:
        raise ZeroCovector("xi must be nonzero")
    if len(mm) != n:
        raise DomainError("xi and m must have the same size")
    # P = Q / nrm with Q = nrm Id - x x^T, and m = mm / e.  For v = mm x and
    # s = x^T v, Q mm Q = nrm^2 mm - nrm (x v^T + v x^T) + s x x^T and
    # tr(Q mm Q) = nrm t with t = nrm tr(mm) - s, so the result is
    # ((n-1) Q mm Q - t Q) / ((n-1) nrm^2 e).
    v = _int_apply(mm, x)
    s = sum(a * b for a, b in zip(x, v))
    t = nrm * sum(mm[i][i] for i in range(n)) - s
    coef_m, coef_xv, coef_xx = (n - 1) * nrm**2, (n - 1) * nrm, (n - 1) * s + t
    num = [
        [coef_m * mm[i][j] - coef_xv * (x[i] * v[j] + v[i] * x[j])
         + coef_xx * x[i] * x[j] - (t * nrm if i == j else 0)
         for j in range(n)]
        for i in range(n)
    ]
    return _fractions(num, (n - 1) * nrm**2 * e)


def q_symbol_identity_holds(n: int) -> bool:
    """True when sigma_n(H) = -|xi|^n/4 * k for every xi != 0 and TT k.

    Both sides are linear in k, O(n)-equivariant and homogeneous of degree
    n in xi, so checking xi = 3/2 e_1 on a basis of its TT matrices decides
    it: E_ij + E_ji for 0 < i < j < n and E_ii - E_(n-1)(n-1), 0-based.  At
    |xi| = 1 a wrong power of |xi|^2 or a wrong denominator would not show.
    """
    _check_even(n)
    xi = (Fraction(3, 2),) + (0,) * (n - 1)
    for i in range(1, n - 1):
        for j in range(i, n):
            k = [[0] * n for _ in range(n)]
            k[i][j] = k[j][i] = 1
            k[-1][-1] -= i == j  # E_ii - E_(n-1)(n-1)
            if q_hessian_symbol(n, xi, k) != q_hessian_expected(n, xi, k):
                return False
    return True
