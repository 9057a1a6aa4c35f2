"""Leading-symbol quadratic forms of determinant-type functionals.

At high frequency the second variation of a spectral functional of the
conformal Laplacian L (or of the squared Dirac operator) acts, on a
symmetric two-tensor k and covector xi, through the quadratic form

    prefactor(s) * extra * |xi|^{power} * [ a(s) (tr K)^2 + b(s) tr(K^2) ],

where K is k compressed to the hyperplane orthogonal to xi.  This module
supplies the exact bracket coefficients (a, b), the Gamma-function prefactor
with its exact sign, the Cauchy-Schwarz classification of the bracket on the
cone (tr K)^2 <= (n-1) tr(K^2), and the resulting local-extremum statements
for the four functionals det L, zeta_L(0), det D2, zeta_D2(0).

The brackets, prefactors and classification are exact and need only the
standard library; numpy is imported by the float point evaluation
(``PointData``, ``point_projector``, ``evaluate_form``) when it runs.  The
Gamma oracles (``gamma_prefactor_oracle``, ``prefactor_raw``) multiply
``math.gamma`` values and cover n <= 169.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import dataclass
from .errors import DomainError, ParityError, ZeroCovector
from .exact import ExactConst, gamma_half_integer

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadFormCoeffs",
    "PointData",
    "bracket_L",
    "bracket_D2",
    "PrefactorMode",
    "gamma_prefactor",
    "gamma_prefactor_exact",
    "gamma_prefactor_oracle",
    "prefactor_oracle_gap",
    "prefactor_raw",
    "zeta0_prefactor_richardson",
    "zeta0_richardson_gap",
    "point_projector",
    "evaluate_form",
    "FormDefiniteness",
    "bracket_definiteness",
    "s0_bracket_check",
    "Functional",
    "ExtremalStatement",
    "extremal_classification",
    "DET_FROM_ZETA_PRIME_SIGN",
]


@dataclass(frozen=True)
class QuadFormCoeffs:
    """Exact coefficients of the bracket a (tr K)^2 + b tr(K^2).

    ``extra_factor`` is a positive overall multiple (e.g. the spinor-bundle
    rank power 2^{floor(n/2)-2} in the Dirac case).
    """

    a: Fraction
    b: Fraction
    extra_factor: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.extra_factor <= 0:
            raise DomainError("extra_factor must be positive")


@dataclass(frozen=True)
class PointData:
    """A pointwise sample (k, xi) for evaluating the symbol form."""

    n: int
    k: np.ndarray
    xi: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        k = np.asarray(self.k, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        if k.shape != (self.n, self.n):
            raise DomainError(f"k must be {self.n}x{self.n}, got {k.shape}")
        if xi.shape != (self.n,):
            raise DomainError(f"xi must have length {self.n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "xi", xi)
        scale = max(float(np.max(np.abs(k))), 1.0)
        if float(np.max(np.abs(k - k.T))) > 1e-12 * scale:
            raise DomainError("k must be symmetric")


def bracket_L(n: int, s: Fraction | int) -> QuadFormCoeffs:
    """Bracket coefficients for functionals of the conformal Laplacian.

    a(s) = s^2/(n-1)^2 - s/(n-1)^2 - 1/(2(n-1)),  b = 1/2,  extra = 1.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    s = Fraction(s)
    a = (s * s - s) / (n - 1) ** 2 - Fraction(1, 2 * (n - 1))
    return QuadFormCoeffs(a=a, b=Fraction(1, 2), extra_factor=Fraction(1))


def bracket_D2(n: int, s: Fraction | int) -> QuadFormCoeffs:
    """Bracket coefficients for functionals of the squared Dirac operator.

    a = 1,  b(s) = 2s - (n-1),  extra = 2^{floor(n/2) - 2}.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    s = Fraction(s)
    exponent = n // 2 - 2
    extra = Fraction(2) ** exponent
    return QuadFormCoeffs(a=Fraction(1), b=2 * s - (n - 1), extra_factor=extra)


class PrefactorMode(enum.Enum):
    """How the Gamma prefactor is renormalized at s = 0.

    DET_DERIVATIVE_AT_ZERO: n odd; the prefactor has a simple zero at s = 0
        (1/Gamma(s) ~ s) and the functional is built from the s-derivative,
        so the limit of prefactor(s)/s is returned.
    ZETA0_LIMIT_AT_ZERO: n even; Gamma(s - n/2)/Gamma(s) has the finite limit
        1/prod_{i=1..n/2}(-i), and the plain s -> 0 limit is returned.
    """

    DET_DERIVATIVE_AT_ZERO = "DET_DERIVATIVE_AT_ZERO"
    ZETA0_LIMIT_AT_ZERO = "ZETA0_LIMIT_AT_ZERO"


def _check_mode_parity(n: int, mode: PrefactorMode) -> None:
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    if mode is PrefactorMode.DET_DERIVATIVE_AT_ZERO and n % 2 == 0:
        raise ParityError("derivative mode needs odd n")
    if mode is PrefactorMode.ZETA0_LIMIT_AT_ZERO and n % 2 == 1:
        raise ParityError("zeta(0) mode needs even n")


def gamma_prefactor_exact(n: int, mode: PrefactorMode) -> ExactConst:
    """Exact value of the renormalized prefactor at s = 0.

    Odd n:   (4 pi)^{-n/2} Gamma(-n/2) Gamma(n/2+1)^2 / (n+1)!
    Even n:  (4 pi)^{-n/2} ((-1)^{n/2} (n/2)!) / (n+1)!

    All half-integer Gamma values are reduced exactly; the square roots of
    pi cancel and the result is a rational times an integer power of pi.
    """
    _check_mode_parity(n, mode)
    if mode is PrefactorMode.DET_DERIVATIVE_AT_ZERO:
        g_neg, root_neg = gamma_half_integer(-n)
        g_pos, root_pos = gamma_half_integer(n + 2)
        assert root_neg and root_pos
        coeff = g_neg * g_pos * g_pos / math.factorial(n + 1)
        # pi powers: -n/2 from (4 pi)^{-n/2}, +1/2 and +1 from the Gammas.
        return ExactConst(coeff, (3 - n) // 2, Fraction(-n))
    h = n // 2
    coeff = Fraction((-1) ** h * math.factorial(h), math.factorial(n + 1))
    return ExactConst(coeff, -h, Fraction(-n))


def gamma_prefactor(n: int, mode: PrefactorMode) -> tuple[float, int]:
    """Renormalized prefactor at s = 0 as (value, exact sign).

    The sign is that of the exact rational coefficient, not of the float,
    which underflows to -0.0 from n = 198.  It follows the pole-counting
    rule sign Gamma(-n/2) = (-1)^{(n+1)/2} for odd n and (-1)^{n/2} for
    even n, since every other factor is positive; the tests check the rule.
    """
    exact = gamma_prefactor_exact(n, mode)
    return float(exact), 1 if exact.coeff > 0 else -1


def _check_oracle_range(n: int) -> None:
    # math.gamma(n + 2) overflows from n = 170.
    if not 3 <= n <= 169:
        raise DomainError(f"the Gamma oracles need 3 <= n <= 169, got n = {n}")


def gamma_prefactor_oracle(n: int, mode: PrefactorMode) -> float:
    """Float Gamma-function evaluation of the same limit, for n <= 169,
    independent of the exact half-integer reduction."""
    _check_mode_parity(n, mode)
    _check_oracle_range(n)
    four_pi = (4 * math.pi) ** (-n / 2)
    gpos = math.gamma(n / 2 + 1) ** 2
    gden = math.gamma(n + 2)
    if mode is PrefactorMode.DET_DERIVATIVE_AT_ZERO:
        gneg = math.gamma(-n / 2)
    else:
        # Finite limit of Gamma(s - n/2)/Gamma(s) = 1/prod_{i=1..n/2}(-i).
        h = n // 2
        gneg = 1 / ((-1) ** h * math.factorial(h))
    return four_pi * gneg * gpos / gden


def prefactor_oracle_gap(n: int) -> float:
    """|:func:`gamma_prefactor` - :func:`gamma_prefactor_oracle`| / |oracle| in
    the one mode of n's parity."""
    mode = (PrefactorMode.DET_DERIVATIVE_AT_ZERO if n % 2
            else PrefactorMode.ZETA0_LIMIT_AT_ZERO)
    got, _ = gamma_prefactor(n, mode)
    oracle = gamma_prefactor_oracle(n, mode)
    return abs(got - oracle) / abs(oracle)


def prefactor_raw(n: int, s: float) -> float:
    """The full prefactor (4 pi)^{-n/2} Gamma(s-n/2) Gamma(-s+n/2+1)^2 /
    (Gamma(s) Gamma(-2s+n+2)) at real s and n <= 169, by float Gamma values;
    DomainError where one overflows or sits at a pole."""
    _check_oracle_range(n)
    try:
        return (
            (4 * math.pi) ** (-n / 2)
            * math.gamma(s - n / 2)
            * math.gamma(-s + n / 2 + 1) ** 2
            / (math.gamma(s) * math.gamma(-2 * s + n + 2))
        )
    except OverflowError as exc:
        raise DomainError(f"prefactor at n = {n}, s = {s!r} overflows a float Gamma") from exc
    except ValueError as exc:
        raise DomainError(
            f"prefactor at n = {n}, s = {s!r} hits a pole of a Gamma factor"
        ) from exc


def zeta0_prefactor_richardson(n: int) -> float:
    """Two-point Richardson limit of the raw prefactor at s -> 0 (even n),
    from the dyadic s = 2^-20 and 2^-23, so that s - n/2 is exact in binary."""
    if n % 2 == 1:
        raise ParityError("the raw prefactor has a zero at s=0 for odd n")
    s1, s2 = 2.0**-20, 2.0**-23
    p1, p2 = prefactor_raw(n, s1), prefactor_raw(n, s2)
    return (s1 * p2 - s2 * p1) / (s1 - s2)


def zeta0_richardson_gap(n: int) -> float:
    """|:func:`zeta0_prefactor_richardson` - exact| / |exact| (even n)."""
    rich = zeta0_prefactor_richardson(n)
    exact = gamma_prefactor(n, PrefactorMode.ZETA0_LIMIT_AT_ZERO)[0]
    return abs(rich - exact) / abs(exact)


def point_projector(xi: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the hyperplane normal to xi."""
    import numpy as np

    xi = np.asarray(xi, dtype=float)
    nrm2 = float(xi @ xi)
    if nrm2 == 0.0:
        raise ZeroCovector("xi must be nonzero")
    return np.eye(len(xi)) - np.outer(xi, xi) / nrm2


def evaluate_form(
    coeffs: QuadFormCoeffs,
    prefactor: float,
    p: PointData,
    s_power: float,
) -> float:
    """prefactor * extra * |xi|^{s_power} * (a t^2 + b u).

    t = tr(k Pi) and u = tr((k Pi)^2) with Pi the projector normal to xi;
    u equals the squared Frobenius norm of the compression Pi k Pi.
    """
    import numpy as np

    proj = point_projector(p.xi)
    kp = p.k @ proj
    t = float(np.trace(kp))
    u = float(np.trace(kp @ kp))
    xi_norm = float(np.linalg.norm(p.xi))
    bracket = float(coeffs.a) * t * t + float(coeffs.b) * u
    return prefactor * float(coeffs.extra_factor) * xi_norm**s_power * bracket


class FormDefiniteness(enum.Enum):
    POS_DEF = "POS_DEF"
    POS_SEMIDEF = "POS_SEMIDEF"
    NEG_SEMIDEF = "NEG_SEMIDEF"
    NEG_DEF = "NEG_DEF"
    INDEFINITE = "INDEFINITE"


def bracket_definiteness(coeffs: QuadFormCoeffs, m: int) -> FormDefiniteness:
    """Classify a t^2 + b u on the cone {0 <= t^2 <= m u} (m = n - 1).

    For fixed u > 0 the form is linear in t^2, so its range is spanned by
    the two extreme rays: t = 0 (value b u) and t^2 = m u, realized by
    K proportional to the projector (value (a m + b) u).
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    edge = coeffs.a * m + coeffs.b
    if coeffs.b > 0 and edge > 0:
        return FormDefiniteness.POS_DEF
    if coeffs.b >= 0 and edge >= 0:
        return FormDefiniteness.POS_SEMIDEF
    if coeffs.b < 0 and edge < 0:
        return FormDefiniteness.NEG_DEF
    if coeffs.b <= 0 and edge <= 0:
        return FormDefiniteness.NEG_SEMIDEF
    return FormDefiniteness.INDEFINITE


def s0_bracket_check(n: int) -> tuple[bool, Fraction]:
    """At s = 0 on S^n: whether L's bracket is positive semidefinite (and, for
    odd n, D2's negative semidefinite), and the larger |value| of the two at
    K = P, the projector normal to xi (t = u = n - 1), where both vanish."""
    lcof, dcof = bracket_L(n, 0), bracket_D2(n, 0)
    semi = bracket_definiteness(lcof, n - 1) is FormDefiniteness.POS_SEMIDEF
    if n % 2 == 1:
        semi = semi and bracket_definiteness(dcof, n - 1) is FormDefiniteness.NEG_SEMIDEF
    return semi, max(abs((n - 1) * (cof.a * (n - 1) + cof.b)) for cof in (lcof, dcof))


_SEMIDEF_SIGN = {
    FormDefiniteness.POS_DEF: 1,
    FormDefiniteness.POS_SEMIDEF: 1,
    FormDefiniteness.NEG_DEF: -1,
    FormDefiniteness.NEG_SEMIDEF: -1,
}

# det P = exp(-zeta_P'(0)): the determinant's second variation carries the
# opposite sign of the zeta-derivative Hessian.  Made explicit so the sign
# chain below is testable link by link.
DET_FROM_ZETA_PRIME_SIGN = -1


class Functional(enum.Enum):
    DET_L = "DET_L"
    ZETA0_L = "ZETA0_L"
    DET_D2 = "DET_D2"
    ZETA0_D2 = "ZETA0_D2"


_DISPLAY = {
    Functional.DET_L: "det L",
    Functional.ZETA0_L: "zeta_L(0)",
    Functional.DET_D2: "det D2",
    Functional.ZETA0_D2: "zeta_D2(0)",
}


@dataclass(frozen=True)
class ExtremalStatement:
    """Which signed multiple of a functional is locally maximized.

    ``c_sign`` is the sign of the Hessian scale on the nondegenerate modes;
    ``max_sign`` = -c_sign is the epsilon with epsilon * F locally maximal
    at the round sphere; ``pattern`` states max_sign as a power of -1 in
    k (n = 2k or 2k+1).
    """

    functional: Functional
    n: int
    k: int
    c_sign: int
    max_sign: int
    pattern: str
    text: str


def _is_det(functional: Functional) -> bool:
    return functional in (Functional.DET_L, Functional.DET_D2)


def _is_dirac(functional: Functional) -> bool:
    return functional in (Functional.DET_D2, Functional.ZETA0_D2)


def extremal_classification(functional: Functional, n: int) -> ExtremalStatement:
    """Local-extremum statement for the functional on the n-sphere.

    The sign of the Hessian scale c is chained from exact ingredients:
    the sign of the exact prefactor coefficient (it follows the
    pole-counting rule stated at :func:`gamma_prefactor`), the bracket
    definiteness at s = 0, and (for determinants) the minus sign linking
    det to the zeta-derivative.  c > 0 makes the functional a local
    minimum, so -sign(c) * F is the locally maximized combination.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    if _is_det(functional):
        if n % 2 == 0:
            raise ParityError(f"{_DISPLAY[functional]} statement needs odd n")
        mode = PrefactorMode.DET_DERIVATIVE_AT_ZERO
        k = (n - 1) // 2
    else:
        if n % 2 == 1:
            raise ParityError(f"{_DISPLAY[functional]} statement needs even n")
        mode = PrefactorMode.ZETA0_LIMIT_AT_ZERO
        k = n // 2
    _, pref_sign = gamma_prefactor(n, mode)
    coeffs = bracket_D2(n, 0) if _is_dirac(functional) else bracket_L(n, 0)
    bracket_sign = _SEMIDEF_SIGN[bracket_definiteness(coeffs, n - 1)]
    c_sign = pref_sign * bracket_sign
    if _is_det(functional):
        c_sign *= DET_FROM_ZETA_PRIME_SIGN
    max_sign = -c_sign
    # max_sign as a power of -1 in k: even exponent iff max_sign == +1.
    exponent = "k" if max_sign == (-1) ** k else "k+1"
    name = _DISPLAY[functional]
    if max_sign == 1:
        text = f"{name} is a local maximum at the round S^{n}"
    else:
        text = f"-{name} is a local maximum at the round S^{n}"
    return ExtremalStatement(
        functional=functional,
        n=n,
        k=k,
        c_sign=c_sign,
        max_sign=max_sign,
        pattern=f"(-1)^({exponent}) {name} is a local maximum",
        text=text,
    )
