"""The pure-Python QUADPACK port against ``scipy.integrate.quad``, bit for bit.

``spherehess._quadpack.qagse`` is a statement-by-statement port of QUADPACK's
dqagse, so on every input it must return scipy's value, error estimate and
evaluation count exactly (``==``, not approximately).  scipy is not a
dependency of the package; these tests skip without it.
"""

import contextlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from spherehess import _quadpack
from spherehess.cli import console_main
from spherehess.greens import tau_tail_quadrature

integrate = pytest.importorskip("scipy.integrate")

# Start of each scipy message for QUADPACK's flags that these inputs reach.
SCIPY_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def _power(t, c, alpha):
    """|t - c|^alpha, and 0 at the singular point."""
    return abs(t - c) ** alpha if t != c else 0.0


def _scipy(f, lo, hi):
    """(value, abserr, neval, message) of ``quad`` at the port's settings."""
    out = integrate.quad(f, lo, hi, epsabs=_quadpack.EPSABS,
                         epsrel=_quadpack.EPSREL, limit=_quadpack.LIMIT,
                         full_output=1)
    value, abserr, info = out[:3]
    return value, abserr, info["neval"], out[3] if len(out) > 3 else None


def _assert_same_bits(f, lo, hi):
    value, abserr, ier, neval = _quadpack.qagse(f, lo, hi)
    want_value, want_abserr, want_neval, message = _scipy(f, lo, hi)
    assert (value, abserr, neval) == (want_value, want_abserr, want_neval)
    assert (message is None) == (ier == 0)
    return ier, neval


@contextlib.contextmanager
def _recorded_calls():
    """Every (integrand, lo, hi) that tau_tail_quadrature hands the port."""
    calls = []
    real = _quadpack.qagse

    def recording(f, lo, hi):
        calls.append((f, lo, hi))
        return real(f, lo, hi)

    _quadpack.qagse = recording
    try:
        yield calls
    finally:
        _quadpack.qagse = real


class TestSameBitsAsScipy:
    @pytest.mark.parametrize("argv", [
        *[["greens", "--dim", str(n), "--profile", p, "--format", "json"]
          for n in (3, 5, 7) for p in ("L2", "D2")],
        ["verify", "--suite", "greens", "--format", "json"],
    ], ids=lambda argv: "-".join(argv[:-2]))
    def test_every_call_of_the_benchmark_greens_commands(self, capsys, argv):
        with _recorded_calls() as calls:
            assert console_main(argv) == 0
        capsys.readouterr()
        assert calls
        for f, lo, hi in calls:
            assert _assert_same_bits(f, lo, hi)[0] == 0

    @settings(max_examples=150, deadline=None)
    @given(a=st.sampled_from(range(0, 39, 2)), p=st.integers(1, 3),
           x=st.floats(0.01, 20.0))
    def test_tau_integrands(self, a, p, x):
        with _recorded_calls() as calls:
            tau_tail_quadrature(a, p, x)
        for f, lo, hi in calls:
            _assert_same_bits(f, lo, hi)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.2, 1.5])
    @pytest.mark.parametrize("c", [1.0, 30.0, 100.0])
    def test_power_times_cosine(self, alpha, c):
        _assert_same_bits(lambda t: t**alpha * math.cos(c * t), 0.0, 1.0)

    def test_subdividing_and_extrapolating_integrands(self, monkeypatch):
        extrapolations = []
        real = _quadpack._qelg
        monkeypatch.setattr(_quadpack, "_qelg", lambda *args: (
            extrapolations.append(1) or real(*args)))
        _, neval = _assert_same_bits(
            lambda t: math.log(t) / math.sqrt(t), 0.0, 1.0)
        assert neval > 21
        _, neval = _assert_same_bits(lambda t: _power(t, 0.3, -0.5), 0.0, 1.0)
        assert neval > 21
        assert extrapolations

    @pytest.mark.parametrize("f, lo, hi, ier", [
        (lambda t: 1.0 / t, 0.0, 1.0, 1),
        (lambda t: 1.0 / t**2, 0.0, 1.0, 5),
        (lambda t: _power(t, 1 / 3, -1.0), 0.0, 1.0, 3),
        # Roundoff while extrapolating (the error-flag path that adds the
        # correction to abserr).
        (lambda t: math.log(t) / t, 0.0, 1.0, 1),
        # Irregular behaviour in the epsilon table.
        (lambda t: _power(t, 0.25, -0.5) - _power(t, 0.7, -0.99)
         - math.cos(50.0 * t) / 4, -1.0, 1.0, 4),
        # Equal error estimates when ordering the list bottom-up.
        (lambda t: -(1.0 if t < 0 else 0.0) - math.cos(140.0 * t),
         -1.0, 1.0, 0),
        # A full epsilon table, shifted.
        (lambda t: _power(t, 0.0248, -0.99)
         + 1000.0 * math.exp(-10.0 * abs(t - 0.4758)), 0.0, 2.0, 3),
        # The largest error moving up the ordered list.
        (lambda t: 1.0 + 2.01 * _power(t, 0.25, -1.5), 0.0, 2.0, 5),
        # The divergence test of an integrand that changes sign.
        (lambda t: 0.001 * _power(t, 0.0, -1.5)
         + 1000.0 * math.cos(275.6 * t), 0.0, 2.0, 2),
    ], ids=["1/t", "1/t^2", "1/|t-1/3|", "log(t)/t", "epsilon-table",
            "tied-errors", "full-epsilon-table", "error-moves-up",
            "sign-change"])
    def test_flags_and_rarely_reached_branches(self, f, lo, hi, ier):
        assert _assert_same_bits(f, lo, hi)[0] == ier
        message = _scipy(f, lo, hi)[3]
        assert message is None if ier == 0 else message.startswith(
            SCIPY_MESSAGES[ier])
