"""The pure-Python QUADPACK port: pinned bits, exact references and every
flag.

``spherehess._quadpack.qag`` is a statement-by-statement port of QUADPACK's
dqage with the 21-point rule.  No other library exposes dqage (scipy's
``quad`` runs dqagse on finite ranges), so the port's bits are pinned by a
table instead: ``tests/data/quadpack_pieces.json`` holds the float.hex of
(value, abserr, ier, neval) for every piece that the benchmark's greens
commands hand the quadrature twin, as the earlier dqagse port returned them.
Its accuracy is held to exact integrals: the port's own error estimate must
cover its distance to each.  ``tests/_oracle.py`` encloses each exact value
in a rational interval, from a closed form or a series with a proven tail
bound and never by quadrature, and the estimate must cover the distance to
both ends.
"""

import contextlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spherehess import _quadpack
from spherehess.cli import console_main
from spherehess.greens import tau_tail_exact, tau_tail_quadrature

from _oracle import Interval, alternating_series, pi, sin, tau_antiderivative

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
    """The port's error estimate covers its distance to both ends of the
    exact integral's enclosure."""
    value, abserr, ier, _ = _quadpack.qag(f, lo, hi)
    assert exact.close_to(value, abs_tol=abserr), (value, abserr, exact)
    return ier


def test_an_enclosure_wider_than_the_estimate_fails():
    # It holds the exact integral, sin 1, but cannot decide the bound.
    wide = sin(1) + Interval(-1e-12, 1e-12)
    with pytest.raises(AssertionError):
        _assert_within_own_estimate(math.cos, 0.0, 1.0, wide)


def _tau_piece_exact(f, lo, hi):
    """A tau piece's integral from the exact antiderivative F of
    tau_tail_exact, whose rational terms cancel to far below a double and
    are kept exact.  The inverted piece over [0, h] is the tail from tau =
    1/h."""
    a, p = _exponents(f)
    tail = tau_tail_exact(a, p)
    if f.__name__ == "direct":
        return tau_antiderivative(tail, hi) - tau_antiderivative(tail, lo)
    assert lo == 0.0
    return tail.arctan_coeff * pi() / 2 - tau_antiderivative(tail, 1 / Fraction(hi))


@settings(max_examples=150, deadline=None)
@given(a=st.sampled_from(range(0, 39, 2)), p=st.integers(1, 3),
       x=st.floats(0.01, 20.0))
def test_tau_integrands_agree_with_the_exact_tail_within_the_estimate(a, p, x):
    with _recorded_calls() as calls:
        tau_tail_quadrature(a, p, x)
    for f, lo, hi in calls:
        assert _assert_within_own_estimate(f, lo, hi, _tau_piece_exact(f, lo, hi)) == 0


def _power_cosine_exact(alpha, c):
    """int_0^1 t^alpha cos(c t) dt = sum_j (-1)^j c^{2j} / ((2j)! (2j+alpha+1)),
    termwise from the cosine series: 1F2((alpha+1)/2; 1/2, (alpha+3)/2;
    -c^2/4) / (alpha+1).  With b = alpha + 1 > 0 the ratio of terms j+1 and
    j is -c^2 (2j+b) / ((2j+1)(2j+2)(2j+b+2)), so the terms fall from the
    first j with c^2 <= (2j+1)(2j+2) on."""
    b, c2 = Fraction(alpha) + 1, Fraction(c) ** 2
    bn, bd = b.numerator, b.denominator
    return alternating_series(1 / b, lambda j: (
        c2.numerator * (2 * j * bd + bn),
        c2.denominator * (2 * j + 1) * (2 * j + 2) * (2 * j * bd + bn + 2 * bd)))


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
    return -1 - 2 * sin(140) / 140


@pytest.mark.parametrize("f, lo, hi, exact", [
    (lambda t: math.log(t) / math.sqrt(t), 0.0, 1.0, Interval(-4)),
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
