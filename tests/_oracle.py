"""Rational enclosures from the standard library alone: the tests' oracle.

Every value here is an :class:`Interval` [lo, hi] with ``Fraction`` ends
that provably contains the real number it stands for.  Interval arithmetic
rounds each end outward to PREC significant bits, so the ends stay short
binary fractions.  The series are summed in integer fixed point with both
ends of every term carried and rounded outward, so no rounding error is
estimated: it is enclosed.  A test judges a float against an enclosure by
its farthest end (:meth:`Interval.close_to`), so an enclosure too wide to
decide a bound fails the test.

Nothing here imports spherehess: the oracle is a route of its own.  The
methods are those of R. P. Brent and P. Zimmermann, *Modern Computer
Arithmetic* (Cambridge, 2010), chapter 4: Machin's formula for pi, argument
halving for arctan, and power series with the alternating-series bound on
their remainder.
"""

import functools
import math
from fractions import Fraction

PREC = 850  # significant bits kept at each end of an interval
_MAX_TERMS = 10**6


def _down(q: Fraction) -> Fraction:
    """The largest binary fraction with PREC significant bits that is <= q."""
    num, den = q.numerator, q.denominator
    if num == 0:
        return q
    shift = PREC - num.bit_length() + den.bit_length()
    if shift >= 0:
        return Fraction((num << shift) // den, 1 << shift)
    return Fraction(num // (den << -shift) << -shift)


def _up(q: Fraction) -> Fraction:
    return -_down(-q)


class Interval:
    """The closed interval [lo, hi] of rationals: an enclosure of one real.

    Numbers (int, Fraction, float at its exact binary value) combine with
    it as one-point intervals.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = Fraction(lo)
        self.hi = self.lo if hi is None else Fraction(hi)
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __repr__(self) -> str:
        return f"Interval({float(self.lo)!r}, {float(self.hi)!r})"

    def __add__(self, other):
        other = _interval(other)
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -_interval(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _interval(other)
        ends = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Interval(_down(min(ends)), _up(max(ends)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _interval(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError(f"divisor {other!r} contains 0")
        return self * Interval(_down(1 / other.hi), _up(1 / other.lo))

    def __pow__(self, k: int):
        """The k-th power, k >= 0, of an interval of positive numbers."""
        if self.lo <= 0 or k < 0:
            raise ValueError(f"power {k} of {self!r}")
        result, square = Interval(1), self
        while k:
            if k & 1:
                result *= square
            k >>= 1
            if k:
                square *= square
        return result

    def width(self) -> Fraction:
        return self.hi - self.lo

    def overlaps(self, other) -> bool:
        other = _interval(other)
        return self.lo <= other.hi and other.lo <= self.hi

    def close_to(self, x, rel_tol=0, abs_tol=0) -> bool:
        """Whether |x - v| <= max(rel_tol |v|, abs_tol) for every v in here,
        the tolerance of pytest.approx and math.isclose.

        Decided strictly: the farther end's distance against the smaller
        |v| (0 when the interval holds 0).  A float x or tolerance counts at
        its exact binary value; a non-finite x raises.
        """
        x = Fraction(x)
        far = max(abs(x - self.lo), abs(x - self.hi))
        least = 0 if self.lo <= 0 <= self.hi else min(abs(self.lo), abs(self.hi))
        return far <= max(Fraction(rel_tol) * least, Fraction(abs_tol))


def _interval(x) -> Interval:
    return x if isinstance(x, Interval) else Interval(x)


def alternating_series(first, ratio, bits: int = PREC) -> Interval:
    """Enclose sum_{j>=0} t_j, with t_0 = first and t_{j+1} = -(p/q) t_j,
    where ratio(j) gives the pair (p, q) of integers p >= 0, q > 0.

    ``first`` is an exact rational.  The terms over |first| are carried in
    fixed point, as integer pairs in units of 2^-bits rounded outward, so
    every partial sum is enclosed.  Summing stops at the first term t_N with
    |t_N| <= (N + 1) 2^-bits |first|, the rounding already carried: a
    bound on |t_N| that rounds up stalls near 1/(1 - p/q) units.  The
    caller proves that the magnitudes fall to 0 from t_N on; then the
    remainder sum_{j>=N} t_j lies between 0 and t_N (Leibniz), and the
    enclosure takes it in.
    """
    lo = hi = 1 << bits  # |t_j / first| lies in [lo, hi] 2^-bits
    sign = 1
    total_lo = total_hi = 0
    for j in range(_MAX_TERMS):
        if hi <= j + 1:
            break
        if sign > 0:
            total_lo, total_hi = total_lo + lo, total_hi + hi
        else:
            total_lo, total_hi = total_lo - hi, total_hi - lo
        p, q = ratio(j)
        lo, hi = lo * p // q, -(-hi * p // q)
        sign = -sign
    else:
        raise ArithmeticError(f"the terms did not fall to 2^-{bits} of the first in "
                              f"{_MAX_TERMS} terms")
    if sign > 0:
        total_hi += hi
    else:
        total_lo -= hi
    scale = Fraction(first) / (1 << bits)
    ends = sorted((total_lo * scale, total_hi * scale))
    return Interval(_down(ends[0]), _up(ends[1]))


def _atan_series(y: Fraction) -> Interval:
    """arctan y = sum_j (-1)^j y^{2j+1} / (2j+1), alternating and falling
    for 0 <= y <= 1."""
    num, den = y.numerator**2, y.denominator**2
    return alternating_series(y, lambda j: ((2 * j + 1) * num, (2 * j + 3) * den))


@functools.cache
def pi() -> Interval:
    """pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin)."""
    return 16 * _atan_series(Fraction(1, 5)) - 4 * _atan_series(Fraction(1, 239))


def atan(x) -> Interval:
    """arctan x for rational x (a float counts at its exact binary value).

    x < 0 goes to -arctan(-x), and x > 1 to pi/2 - arctan(1/x).  From 2^-16
    to 1, halving, arctan y = 2 arctan(y / (1 + sqrt(1 + y^2))), takes y
    below 2^-16 in at most 16 steps, which shortens the series.  It runs in
    fixed point, y = Y 2^-PREC, with r = isqrt(N) <= sqrt(N) < r + 1: the
    map is increasing in y, so the lower end divides by r + 1 and rounds
    down, the upper one by r and up.
    """
    x = Fraction(x)
    if x < 0:
        return -atan(-x)
    if x > 1:
        return pi() / 2 - atan(1 / x)
    if x <= Fraction(1, 1 << 16):
        return _atan_series(x)
    one = 1 << PREC
    lo = x.numerator * one // x.denominator
    hi = lo + 1
    halvings = 0
    while hi > one >> 16:
        lo = lo * one // (one + math.isqrt(one * one + lo * lo) + 1)
        hi = -(-hi * one // (one + math.isqrt(one * one + hi * hi)))
        halvings += 1
    # arctan' <= 1, so arctan(hi) <= arctan(lo) + (hi - lo): one series.
    low = _atan_series(Fraction(lo, one))
    return Interval(low.lo * 2**halvings, (low.hi + Fraction(hi - lo, one)) * 2**halvings)


def sin(x) -> Interval:
    """sin x for rational x by its Taylor series, with no argument
    reduction: the terms grow to about e^|x| before they fall, which costs
    about 1.44 |x| of the PREC bits (200 at x = 140).  They alternate, and
    fall from the first j with x^2 < (2j+2)(2j+3) on."""
    x = Fraction(x)
    num, den = x.numerator**2, x.denominator**2
    return alternating_series(x, lambda j: (num, den * (2 * j + 2) * (2 * j + 3)))


def sphere_volume(m: int) -> Interval:
    """vol(S^m) = 2 pi^{(m+1)/2} / Gamma((m+1)/2), with Gamma at
    half-integers in Q sqrt(pi): Gamma(j) = (j-1)! and Gamma(j + 1/2) =
    (2j)! sqrt(pi) / (4^j j!), so the volume is a rational times pi^j."""
    j, half = divmod(m + 1, 2)
    if half:
        return pi() ** j * Fraction(2 * 4**j * math.factorial(j), math.factorial(2 * j))
    return pi() ** j * Fraction(2, math.factorial(j - 1))


def tau_antiderivative(tail, t) -> Interval:
    """F(t) = a arctan t + sum_e c_e t^e + sum_l c_l t (1+t^2)^{-l}, from the
    exact coefficients of a tau tail integral: any object with attributes
    ``arctan_coeff`` (a), ``power_coeffs`` ((e, c_e) pairs) and
    ``rational_coeffs`` ((l, c_l) pairs).  Only the arctangent is rounded."""
    t = Fraction(t)
    rational = sum((c * t**e for e, c in tail.power_coeffs), Fraction(0))
    rational += sum((c * t / (1 + t * t) ** l for l, c in tail.rational_coeffs), Fraction(0))
    return tail.arctan_coeff * atan(t) + rational
