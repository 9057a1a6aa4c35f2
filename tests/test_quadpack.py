"""The pure-Python QUADPACK port: pinned bits, a scipy tolerance oracle and
every flag.

``spherehess._quadpack.qag`` is a statement-by-statement port of QUADPACK's
dqage with the 21-point rule.  scipy has no entry point for dqage (``quad``
runs dqagse on finite ranges), so the port's bits are pinned by a table
instead: ``tests/data/quadpack_pieces.json`` holds the float.hex of (value,
abserr, ier, neval) for every piece that the benchmark's greens commands
hand the quadrature twin, as the earlier dqagse port returned them.  scipy
stays a tolerance oracle only, and those tests skip without it.
"""

import contextlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spherehess import _quadpack
from spherehess.cli import console_main
from spherehess.greens import tau_tail_quadrature

PIECES = json.loads(
    (Path(__file__).parent / "data" / "quadpack_pieces.json").read_text())


def _power(t, c, alpha):
    """|t - c|^alpha, and 0 at the singular point."""
    return abs(t - c) ** alpha if t != c else 0.0


def _key(f, lo, hi):
    """The table key of a tau integrand on [lo, hi]: its name, a, p and ends."""
    env = dict(zip(f.__code__.co_freevars, (c.cell_contents for c in f.__closure__)))
    return f"{f.__name__} {env['a']} {env['p']} {lo.hex()} {hi.hex()}"


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


def _assert_within_both_estimates(f, lo, hi):
    """The port's estimate and scipy's together cover their difference."""
    integrate = pytest.importorskip("scipy.integrate")
    value, abserr, ier, _ = _quadpack.qag(f, lo, hi)
    want, want_err = integrate.quad(f, lo, hi, epsabs=0.0,
                                    epsrel=_quadpack.EPSREL,
                                    limit=_quadpack.LIMIT)
    assert abs(value - want) <= abserr + want_err
    return ier


@settings(max_examples=150, deadline=None)
@given(a=st.sampled_from(range(0, 39, 2)), p=st.integers(1, 3),
       x=st.floats(0.01, 20.0))
def test_tau_integrands_agree_with_scipy_within_both_estimates(a, p, x):
    with _recorded_calls() as calls:
        tau_tail_quadrature(a, p, x)
    for f, lo, hi in calls:
        assert _assert_within_both_estimates(f, lo, hi) == 0


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.2, 1.5])
@pytest.mark.parametrize("c", [1.0, 30.0, 100.0])
def test_power_times_cosine(alpha, c):
    # Without extrapolation the port still converges on t^-0.5 at the end
    # of the range; t^-0.9 needs more than LIMIT bisections, and the flag
    # comes with an error estimate that stays honest.
    ier = _assert_within_both_estimates(
        lambda t: t**alpha * math.cos(c * t), 0.0, 1.0)
    assert ier == (1 if alpha < -0.5 else 0)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda t: math.log(t) / math.sqrt(t), 0.0, 1.0),
    # Equal error estimates when ordering the list bottom-up.
    (lambda t: -(1.0 if t < 0 else 0.0) - math.cos(140.0 * t), -1.0, 1.0),
], ids=["log(t)/sqrt(t)", "tied-errors"])
def test_subdividing_integrands(f, lo, hi):
    assert _assert_within_both_estimates(f, lo, hi) == 0
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
