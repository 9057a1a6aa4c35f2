"""Exact scalar arithmetic helpers.

Everything downstream that is advertised as exact is computed with
``fractions.Fraction`` (arbitrary-precision rationals).  Constants that are
rational multiples of powers of pi and of sqrt(2) are carried symbolically by
:class:`ExactConst`, so normalization identities can be asserted with ``==``
instead of float comparisons.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["rising", "gamma_half_integer", "ExactConst", "sphere_volume_exact",
           "sphere_volume"]

_MIN_NORMAL = sys.float_info.min


def rising(x: int | Fraction, length: int) -> Fraction:
    """Rising factorial x (x+1) ... (x+length-1) as an exact Fraction.

    With x = p/q in lowest terms the product is prod(p + i q) / q**length:
    one integer product and one normalisation, the same path for int and
    Fraction starts.

    Args:
        x: start value (may be negative or rational).
        length: number of factors, >= 0.

    Returns:
        The product as a Fraction; the empty product is 1.
    """
    if length < 0:
        raise ValueError("rising factorial needs length >= 0")
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(range(p, p + length * q, q)), q**length)


def gamma_half_integer(twice: int) -> tuple[Fraction, bool]:
    """Gamma(twice/2) for integer or half-integer arguments, exactly.

    Args:
        twice: 2 * argument; the argument must not be a nonpositive integer.

    Returns:
        (r, has_sqrt_pi): Gamma(twice/2) = r * sqrt(pi) if has_sqrt_pi else r.
        Half-integer values use Gamma(1/2 + m) = (2m)! sqrt(pi) / (4^m m!) and
        Gamma(1/2 - m) = (-4)^m m! sqrt(pi) / (2m)!.
    """
    if twice % 2 == 0:
        k = twice // 2
        if k <= 0:
            raise ValueError("Gamma pole at nonpositive integer")
        return Fraction(math.factorial(k - 1)), False
    m = (twice - 1) // 2
    if m >= 0:
        return Fraction(math.factorial(2 * m), 4**m * math.factorial(m)), True
    m = -m
    return Fraction((-4) ** m * math.factorial(m), math.factorial(2 * m)), True


@dataclass(frozen=True)
class ExactConst:
    """A constant coeff * 2**two_exp * pi**pi_exp with rational coeff.

    two_exp is a Fraction with denominator 1 or 2, so exact square roots of 2
    (needed by half-integer powers of 2) stay symbolic; any other two_exp
    raises ValueError.
    """

    coeff: Fraction
    pi_exp: int = 0
    two_exp: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if Fraction(self.two_exp).denominator not in (1, 2):
            raise ValueError(f"two_exp must be a half-integer, got {self.two_exp}")

    def _canonical(self) -> tuple[Fraction, Fraction, int]:
        if self.coeff == 0:
            return Fraction(0), Fraction(0), 0
        t = Fraction(self.two_exp)
        whole = t.numerator // t.denominator
        rem = t - whole
        coeff = self.coeff * (Fraction(2) ** whole)
        return coeff, rem, self.pi_exp

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactConst):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __mul__(self, other: "ExactConst | Fraction | int") -> "ExactConst":
        if isinstance(other, ExactConst):
            return ExactConst(
                self.coeff * other.coeff,
                self.pi_exp + other.pi_exp,
                Fraction(self.two_exp) + Fraction(other.two_exp),
            )
        return ExactConst(self.coeff * Fraction(other), self.pi_exp, self.two_exp)

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactConst | Fraction | int") -> "ExactConst":
        if isinstance(other, ExactConst):
            if other.coeff == 0:
                raise ZeroDivisionError
            return ExactConst(
                self.coeff / other.coeff,
                self.pi_exp - other.pi_exp,
                Fraction(self.two_exp) - Fraction(other.two_exp),
            )
        return ExactConst(self.coeff / Fraction(other), self.pi_exp, self.two_exp)

    def __neg__(self) -> "ExactConst":
        return ExactConst(-self.coeff, self.pi_exp, self.two_exp)

    def __float__(self) -> float:
        try:
            coeff = float(self.coeff)
        except OverflowError:
            coeff = None
        if coeff is not None and (abs(coeff) >= _MIN_NORMAL or not self.coeff):
            return coeff * 2.0 ** float(self.two_exp) * math.pi ** self.pi_exp
        # The coefficient alone leaves the normal float range (vol(S^m) has a
        # subnormal one beside a large power of pi from m = 343 on): carry its
        # power of two apart, so that only the value can under- or overflow.
        shift = self.coeff.numerator.bit_length() - self.coeff.denominator.bit_length()
        scaled = float(self.coeff / Fraction(2) ** shift)
        return math.ldexp(scaled * 2.0 ** float(self.two_exp) * math.pi ** self.pi_exp,
                          shift)

    def __repr__(self) -> str:
        parts = [str(self.coeff)]
        if self.two_exp:
            parts.append(f"2^({self.two_exp})")
        if self.pi_exp:
            parts.append(f"pi^{self.pi_exp}")
        return " * ".join(parts)


def sphere_volume_exact(m: int) -> ExactConst:
    """Volume of the unit round sphere S^m as an ExactConst.

    vol(S^{2t+1}) = 2 pi^{t+1} / t!  and  vol(S^{2t}) = 2 (4^t t!/(2t)!) pi^t.
    """
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    if m % 2 == 1:
        t = (m - 1) // 2
        return ExactConst(Fraction(2, math.factorial(t)), t + 1)
    t = m // 2
    coeff = Fraction(2 * 4**t * math.factorial(t), math.factorial(2 * t))
    return ExactConst(coeff, t)


def sphere_volume(m: int) -> float:
    """Volume of the unit round sphere S^m as a float."""
    return float(sphere_volume_exact(m))
