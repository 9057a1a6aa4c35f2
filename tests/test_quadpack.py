"""The pure-Python QUADPACK port: pinned bits, exact references and every
flag.

``spherehess._quadpack.qag`` is a statement-by-statement port of QUADPACK's
dqage with the 21-point rule.  No other library exposes dqage (scipy's
``quad`` runs dqagse on finite ranges), so the port's bits are pinned by a
table instead: ``tests/data/quadpack_pieces.json`` holds the float.hex of
(value, abserr, ier, neval) for every piece that the benchmark's greens
commands hand the quadrature twin, as the earlier dqagse port returned them.
Its accuracy is held to exact integrals: the port's own error estimate must
cover its distance to each.  mpmath evaluates them from closed forms, not by
its own quadrature, which is less accurate than qag on some of these
integrands.
"""

import contextlib
import json
import math
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from spherehess import _quadpack
from spherehess.cli import console_main
from spherehess.greens import tau_tail_exact, tau_tail_quadrature

PIECES = json.loads(
    (Path(__file__).parent / "data" / "quadpack_pieces.json").read_text())


def _power(t, c, alpha):
    """|t - c|^alpha, and 0 at the singular point."""
    return abs(t - c) ** alpha if t != c else 0.0


def _exponents(f):
    """(a, p) of a tau integrand, read from its closure."""
    env = dict(zip(f.__code__.co_freevars, (c.cell_contents for c in f.__closure__)))
    return env["a"], env["p"]


def _key(f, lo, hi):
    """The table key of a tau integrand on [lo, hi]: its name, a, p and ends."""
    a, p = _exponents(f)
    return f"{f.__name__} {a} {p} {lo.hex()} {hi.hex()}"


@contextlib.contextmanager
def _recorded_calls():
    """Every (integrand, lo, hi) that tau_tail_quadrature hands the port."""
    calls = []
    real = _quadpack.qag

    def recording(f, lo, hi):
        calls.append((f, lo, hi))
        return real(f, lo, hi)

    _quadpack.qag = recording
    try:
        yield calls
    finally:
        _quadpack.qag = real


def test_every_piece_of_the_benchmark_greens_commands_keeps_its_bits(capsys):
    seen = set()
    with _recorded_calls() as calls:
        for argv in [*[["greens", "--dim", str(n), "--profile", p, "--format", "json"]
                       for n in (3, 5, 7) for p in ("L2", "D2")],
                     ["verify", "--suite", "greens", "--format", "json"]]:
            assert console_main(argv) == 0
    capsys.readouterr()
    for f, lo, hi in calls:
        key = _key(f, lo, hi)
        value, abserr, ier, neval = _quadpack.qag(f, lo, hi)
        assert [value.hex(), abserr.hex(), ier, neval] == PIECES[key], key
        seen.add(key)
    assert seen == set(PIECES)


def _assert_within_own_estimate(f, lo, hi, exact):
    """The port's error estimate covers its distance to the exact integral."""
    value, abserr, ier, _ = _quadpack.qag(f, lo, hi)
    assert abs(mpmath.mpf(value) - exact) <= abserr
    return ier


def _tau_piece_exact(f, lo, hi):
    """A tau piece's integral from the exact antiderivative F of
    tau_tail_exact, at 250 digits, where its terms cancel to far below a
    double.  The inverted piece over [0, h] is the tail from tau = 1/h."""
    a, p = _exponents(f)
    tail = tau_tail_exact(a, p)

    def frac(c):
        return mpmath.mpf(c.numerator) / c.denominator

    def antiderivative(t):
        out = frac(tail.arctan_coeff) * mpmath.atan(t)
        out += sum(frac(c) * t**e for e, c in tail.power_coeffs)
        out += sum(frac(c) * t / (1 + t * t) ** l for l, c in tail.rational_coeffs)
        return out

    with mpmath.workdps(250):
        if f.__name__ == "direct":
            return antiderivative(mpmath.mpf(hi)) - antiderivative(mpmath.mpf(lo))
        assert lo == 0.0
        return (frac(tail.arctan_coeff) * mpmath.pi / 2
                - antiderivative(1 / mpmath.mpf(hi)))


@settings(max_examples=150, deadline=None)
@given(a=st.sampled_from(range(0, 39, 2)), p=st.integers(1, 3),
       x=st.floats(0.01, 20.0))
def test_tau_integrands_agree_with_the_exact_tail_within_the_estimate(a, p, x):
    with _recorded_calls() as calls:
        tau_tail_quadrature(a, p, x)
    for f, lo, hi in calls:
        assert _assert_within_own_estimate(f, lo, hi, _tau_piece_exact(f, lo, hi)) == 0


def _power_cosine_exact(alpha, c):
    """int_0^1 t^alpha cos(c t) dt = 1F2((alpha+1)/2; 1/2, (alpha+3)/2;
    -c^2/4) / (alpha+1), termwise from the cosine series."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        return mpmath.hyp1f2((a + 1) / 2, 0.5, (a + 3) / 2, -mpmath.mpf(c) ** 2 / 4) / (a + 1)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.2, 1.5])
@pytest.mark.parametrize("c", [1.0, 30.0, 100.0])
def test_power_times_cosine(alpha, c):
    # Without extrapolation the port still converges on t^-0.5 at the end
    # of the range; t^-0.9 needs more than LIMIT bisections, and the flag
    # comes with an error estimate that stays honest.
    ier = _assert_within_own_estimate(
        lambda t: t**alpha * math.cos(c * t), 0.0, 1.0, _power_cosine_exact(alpha, c))
    assert ier == (1 if alpha < -0.5 else 0)


def _step_plus_cosine_exact():
    """int_{-1}^1 -[t < 0] - cos(140 t) dt = -1 - 2 sin(140)/140."""
    with mpmath.workdps(50):
        return -1 - 2 * mpmath.sin(140) / 140


@pytest.mark.parametrize("f, lo, hi, exact", [
    (lambda t: math.log(t) / math.sqrt(t), 0.0, 1.0, mpmath.mpf(-4)),
    # Equal error estimates when ordering the list bottom-up.
    (lambda t: -(1.0 if t < 0 else 0.0) - math.cos(140.0 * t), -1.0, 1.0,
     _step_plus_cosine_exact()),
], ids=["log(t)/sqrt(t)", "tied-errors"])
def test_subdividing_integrands(f, lo, hi, exact):
    assert _assert_within_own_estimate(f, lo, hi, exact) == 0
    assert _quadpack.qag(f, lo, hi)[3] > 21


@pytest.mark.parametrize("f, lo, hi, ier, neval", [
    (math.cos, 0.0, 1.0, 0, 21),
    # The bisections pile up at the pole until LIMIT subintervals are used.
    (lambda t: 1.0 / t, 0.0, 1.0, 1, 8379),
    # The integral is 0 to rounding, so the first rule's error, 50 eps of
    # the integral of |f|, already exceeds the relative bound.
    (lambda t: math.sin(2.0 * math.pi * t), 0.0, 1.0, 2, 21),
    # Bisections stop improving on an integral that is small against |f|.
    (lambda t: math.cos(140.0 * t), -1.0, 1.0, 2, 2583),
    # The interval at the pole becomes too small to bisect.
    (lambda t: _power(t, 1 / 3, -1.0), 0.0, 1.0, 3, 1995),
], ids=["converged", "subdivision-limit", "roundoff-first-rule",
        "roundoff-bisecting", "bad-point"])
def test_each_flag(f, lo, hi, ier, neval):
    value, abserr, got_ier, got_neval = _quadpack.qag(f, lo, hi)
    assert (got_ier, got_neval) == (ier, neval)
    if ier == 0:
        assert abs(value - math.sin(1.0)) <= abserr <= 1e-12 * value
