"""Adaptive Gauss–Kronrod quadrature: a pure-Python port of QUADPACK's qag.

R. Piessens, E. de Doncker-Kapenga, C. W. Überhuber and D. K. Kahaner,
*QUADPACK: A Subroutine Package for Automatic Integration*, Springer 1983.

:func:`qag` is ``dqage`` with the key for ``dqk21`` (the 21-point
Gauss–Kronrod rule) and ``dqpsrt`` (the ordering of the error list),
translated statement by statement in the original operation order: it
bisects the subinterval with the largest error estimate until the summed
estimate meets the tolerance, and returns the plain sum of the subinterval
results.  No extrapolation is attempted; its only caller,
``greens.tau_tail_quadrature``, hands it integrands that are smooth on a
closed interval.  The lists are indexed from 1 as in the original; index 0
is unused.  That caller fixes the tolerance and the subdivision limit, so
they are module constants and the branches they make unreachable
(``limit == 1``, the tolerance input check) are left out.  The absolute
tolerance is 0: the relative one alone decides, so a tail far below 1 is
resolved as finely as one near 1.
"""

from __future__ import annotations

import sys
from typing import Callable

EPSREL = 1e-12
LIMIT = 200

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)

# dqk21: Kronrod abscissae (the even ones are the 10-point Gauss abscissae),
# Kronrod weights and Gauss weights; the centre node is the last one.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _qk21(f: Callable[[float], float], a: float, b: float
          ) -> tuple[float, float, float, float]:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    # The Gauss abscissae first, then the Kronrod-only ones, which is the
    # original's order of summation.
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5) is 1 for r >= 1; testing first keeps a huge r from
        # raising OverflowError where the compiled pow returns inf.
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(last: int, maxerr: int, elist: list[float], iord: list[int]
           ) -> tuple[int, float]:
    """dqpsrt: keep iord descending in elist; return (maxerr, errmax).

    dqage always bisects the interval of largest error, so nrmax, which
    only dqagse's extrapolation moves, is 1 and its branch is left out.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        jupbn = last
        if last > LIMIT // 2 + 2:
            jupbn = LIMIT + 3 - last
        errmin = elist[last]
        # Insert errmax by traversing the list top-down ...
        jbnd = jupbn - 1
        for i in range(2, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
            maxerr = iord[1]
            return maxerr, elist[maxerr]
        # ... and errmin bottom-up.
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):
            isucc = iord[k]
            if errmin < elist[isucc]:
                iord[k + 1] = last
                break
            iord[k + 1] = isucc
            k -= 1
        else:
            iord[i] = last
    maxerr = iord[1]
    return maxerr, elist[maxerr]


def qag(f: Callable[[float], float], a: float, b: float
        ) -> tuple[float, float, int, int]:
    """dqage: integrate f over [a, b] to EPSREL in LIMIT subintervals.

    Returns ``(value, abserr, ier, neval)``.  ``ier`` is QUADPACK's flag:
    0 converged; 1 the subdivision limit was reached; 2 roundoff kept the
    tolerance out of reach; 3 bad integrand behaviour at a point of the
    range (a subinterval too small to bisect).
    """
    alist = [0.0] * (LIMIT + 1)
    blist = [0.0] * (LIMIT + 1)
    rlist = [0.0] * (LIMIT + 1)
    elist = [0.0] * (LIMIT + 1)
    iord = [0] * (LIMIT + 1)
    ier = 0
    alist[1] = a
    blist[1] = b

    # First approximation to the integral, and the test on its accuracy.
    result, abserr, defabs, resabs = _qk21(f, a, b)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    errbnd = EPSREL * abs(result)
    if abserr <= 50.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if (ier != 0 or (abserr <= errbnd and abserr != resabs)
            or abserr == 0.0):
        return result, abserr, ier, 42 * last - 21

    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    iroff1 = iroff2 = 0

    for last in range(2, LIMIT + 1):
        # Bisect the subinterval with the largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # Improve the previous approximations to the integral and error,
        # and test for accuracy.
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if (abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12)
                    and erro12 >= 0.99 * errmax):
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff2 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = EPSREL * abs(area)
        if not errsum <= errbnd:
            # Roundoff, the subdivision limit, and bad integrand behaviour
            # at a point of the range set the error flag.
            if iroff1 >= 6 or iroff2 >= 20:
                ier = 2
            if last == LIMIT:
                ier = 1
            if (max(abs(a1), abs(b2))
                    <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
                ier = 3

        # Append the newly created intervals to the list.
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax = _qpsrt(last, maxerr, elist, iord)
        if ier != 0 or errsum <= errbnd:
            break

    # The final result: the sum of the subinterval results.
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, ier, 42 * last - 21
