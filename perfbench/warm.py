"""The ``library-warm`` workload: public API calls in one warm interpreter.

Usage: python perfbench/warm.py SEED SECONDS [SPANS_PATH]

Imports spherehess and builds every input from SEED.  The workload is a
list of steps; a step is a list of public API calls (one call each, or one
per radius, input or dimension) whose results are checked together, after
the timers stop, against the library's own second route at the tolerance
the library advertises.  Each call is one op and is timed alone.  The steps
run in turn, and none starts after SECONDS once every step has run.  The
calibration kernel (``calibrate.py``) is timed before the first step and
after every step.  With SPANS_PATH every step runs exactly once with every
layer traced and the spans are written there.

The last stdout line is a JSON object mapping each op to its samples,
``[wall_s, cpu_s, ok, speed]`` per execution, ``speed`` being the
calibration factor from the kernel timings nearest to the op's step.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
import traceback
from fractions import Fraction

import spherehess  # first, so -X importtime charges numpy to the package
import calibrate
from spherehess import confgroup, greens, ktypes, qcurv, spectrum, symbols
from spherehess.errors import ParityError

import numpy as np

RADII = np.linspace(0.3, 3.0, 200).tolist()
GREEN_DIMS = (3, 5, 7, 9)
TOL_ODE = 1e-8       # the CLI's default --tol-ode
TOL_CONF = 1e-6      # the CLI's default --tol-conf
TOL_TRACE = 1e-5     # pipeline vs spectral reference, README
TOL_PREFACTOR = 1e-12


class Step:
    """Named calls, timed one by one, whose results ``check`` accepts."""

    def __init__(self, name, calls, check):
        self.name, self.calls, self.check = name, list(calls), check

    def op_names(self) -> list[str]:
        if len(self.calls) == 1:
            return [self.name]
        return [f"{self.name}#{i}" for i in range(len(self.calls))]


def _rational_symmetric(rng: np.random.Generator, n: int):
    while True:
        xi = tuple(Fraction(int(v)) for v in rng.integers(-3, 4, size=n))
        if any(xi):
            break
    raw = rng.integers(-4, 5, size=(n, n))
    sym = tuple(tuple(Fraction(int(raw[i][j] + raw[j][i])) for j in range(n))
                for i in range(n))
    return xi, sym


def _polynomial_vector_field(rng: np.random.Generator, n: int):
    const = rng.normal(size=n)
    lin = rng.normal(size=(n, n))
    return lambda x: const + lin @ x + 0.3 * x * float(x @ x)


def _prefactor_modes():
    for n in range(3, 14):
        for mode in symbols.PrefactorMode:
            try:
                symbols.gamma_prefactor(n, mode)
            except ParityError:
                continue
            yield n, mode


def build_steps(seed: int) -> list[Step]:
    """Every step of one pass, with inputs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    state: dict[object, object] = {}
    KType = ktypes.KType
    closed3 = spectrum.closed_form_table(3, 400).entries

    def keep(key, value):
        state[key] = value
        return value

    steps = [
        Step("spectrum_generate(12, 800)",
             [lambda: keep("gen12", spectrum.spectrum_generate(
                 12, 800, spectrum.t0_eigenvalue(KType(12, 0, 2))))],
             lambda t: len(t[0].entries) == 3 * 801),
        Step("closed_form_table(12, 800)",
             [lambda: spectrum.closed_form_table(12, 800)],
             lambda t: t[0].entries == state["gen12"].entries),
        Step("spectrum_generate3(400)",
             [lambda: spectrum.spectrum_generate3(
                 400, spectrum.t0_eigenvalue(KType(3, 0, 2)),
                 spectrum.t0_eigenvalue(KType(3, 0, -2)))],
             lambda t: t[0].entries == closed3),
    ]

    for n in GREEN_DIMS:
        steps += [
            Step(f"green_L(n={n})",
                 [lambda n=n, r=r: greens.green_L(n, r) for r in RADII],
                 lambda vals, n=n: all(map(math.isfinite, vals))
                 and greens.ode_residual_L(n, RADII) <= TOL_ODE),
            Step(f"green_L2(n={n})",
                 [lambda n=n, r=r: greens.green_L2(n, r) for r in RADII],
                 lambda vals, n=n: all(map(math.isfinite, vals))
                 and greens.ode_residual_L2(n, RADII) <= TOL_ODE),
            # green_D2 evaluates both of its routes and raises if they differ.
            Step(f"green_D2(n={n})",
                 [lambda n=n, r=r: greens.green_D2(n, greens.chart_radius(r))
                  for r in RADII],
                 lambda vals: all(map(math.isfinite, vals))),
        ]

    for kind in greens.TraceKind:
        for k in (1, 2):
            steps.append(Step(
                f"traces({kind.name}, k={k})",
                [lambda kind=kind, k=k: greens.trace_from_pipeline(kind, k),
                 lambda kind=kind, k=k: greens.spectral_trace_reference(kind, k)],
                lambda got, kind=kind, k=k: abs(
                    got[0].value * greens.spectral_convention_factor(kind, k) - got[1])
                <= TOL_TRACE * abs(got[1])))

    for n in (3, 2):
        volume = greens.sphere_volume(n)
        steps.append(Step(
            f"sphere_grid({n}, 40)",
            [lambda n=n: keep(("grid", n), confgroup.sphere_grid(n, 40))],
            lambda g, volume=volume: abs(
                g[0].integrate(np.ones(len(g[0].nodes))) - volume) <= 1e-12 * volume))
        pairs = []
        for _ in range(2):
            h = confgroup.random_band_limited_field(rng, n)
            k = confgroup.random_band_limited_field(rng, n)
            a = confgroup.random_moebius(rng, n, 1.0)
            pairs.append(lambda h=h, k=k, a=a, n=n:
                         confgroup.check_pairing_invariance(h, k, a, state[("grid", n)]))
        steps.append(Step(f"check_pairing_invariance(S^{n})", pairs,
                          lambda res: max(res) <= TOL_CONF))

    for n in (2, 3):
        field = _polynomial_vector_field(rng, n)
        phi = confgroup.random_chart_map(rng, n, max_log_scale=1.0)
        points = rng.normal(size=(200, n)) * 0.7
        steps.append(Step(f"check_ahlfors_covariance(n={n})",
                          [lambda f=field, phi=phi, pts=points:
                           confgroup.check_ahlfors_covariance(f, phi, pts)],
                          lambda res: res[0] <= TOL_CONF))

    raw_inputs = [_rational_symmetric(rng, 12) for _ in range(25)]
    steps += [
        Step("project_tt(n=12)",
             [lambda i=i, xi=xi, m=m: keep(("tt", i), qcurv.project_tt(xi, m))
              for i, (xi, m) in enumerate(raw_inputs)],
             lambda tt: len(tt) == len(raw_inputs)),
        Step("q_hessian_symbol(n=12)",
             [lambda i=i, xi=xi: qcurv.q_hessian_symbol(12, xi, state[("tt", i)])
              for i, (xi, _) in enumerate(raw_inputs)],
             lambda got: got == [qcurv.q_hessian_expected(12, xi, state[("tt", i)])
                                 for i, (xi, _) in enumerate(raw_inputs)]),
    ]

    sigmas = [(n, ktypes.pad_weight((head,), n)) for n in range(6, 11) for head in (1, 2)]
    steps.append(Step(
        "bundle_ktypes_bruteforce(n=6..10, 10)",
        [lambda n=n, s=s: ktypes.bundle_ktypes_bruteforce(s, n, 10) for n, s in sigmas],
        lambda got: got == [ktypes.bundle_weights(s, n, 10) for n, s in sigmas]))

    modes = list(_prefactor_modes())
    steps.append(Step(
        "gamma_prefactor(n=3..13)",
        [lambda n=n, mode=mode: symbols.gamma_prefactor(n, mode)[0] for n, mode in modes],
        lambda got: all(
            abs(value - oracle) <= TOL_PREFACTOR * abs(oracle)
            for (n, mode), value in zip(modes, got)
            for oracle in (symbols.gamma_prefactor_oracle(n, mode),))))
    return steps


def run_step(step_id: int, step: Step, results: dict, execution: int,
             trace=None) -> None:
    values, samples = [], []
    for call in step.calls:
        ok = False
        if trace is not None:
            trace.op_id = step_id
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            values.append(call())
            ok = True
        except Exception:
            traceback.print_exc()
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if trace is not None:
                trace.op_id = -1
        samples.append((wall, cpu, ok))
    checked = len(values) == len(step.calls)
    if checked:
        try:
            checked = bool(step.check(values))
        except Exception:
            traceback.print_exc()
            checked = False
    if not checked:
        sys.stderr.write(f"library-warm: step {step.name!r} failed\n")
    for name, (wall, cpu, ok) in zip(step.op_names(), samples):
        results[name].append([wall, cpu, ok and checked, execution])


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    seed, seconds = int(argv[0]), float(argv[1])
    trace = None
    if len(argv) == 3:
        import tracer

        trace = tracer.Tracer()
        tracer.install(trace)
    steps = build_steps(seed)
    results = {name: [] for step in steps for name in step.op_names()}
    kernel = [calibrate.kernel_seconds()]
    if trace is not None:
        for step_id, step in enumerate(steps):
            run_step(step_id, step, results, step_id, trace)
            kernel.append(calibrate.kernel_seconds())
        trace.dump(argv[2])
    else:
        start = time.perf_counter()
        for i in itertools.count():
            if i >= len(steps) and time.perf_counter() - start >= seconds:
                break
            run_step(i % len(steps), steps[i % len(steps)], results, i)
            kernel.append(calibrate.kernel_seconds())
    factors = calibrate.speeds(kernel)
    for samples in results.values():
        for sample in samples:
            sample[3] = factors[sample[3]]
    print(json.dumps({"ops": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
