"""Benchmark of the spherehess package: cold-start CLI, verify suites, warm API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

* ``cli``            28 command lines, each a fresh process: 21 short
                     README-scale commands and the 7 heavy ``verify`` runs;
* ``library-warm``   public API calls in one warm interpreter (``warm.py``).

A run repeats the workload's ops in turn, starting none after S seconds
once every op has run.  The ops run one after another, never in parallel,
each with one BLAS thread, all on one core.  Every op's time is scaled by
the host speed measured around it (``calibrate.py``).  Every op's output is
checked; a failed op still counts its time.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` the run also
makes one traced pass (every public function of every module wrapped, ``-X
importtime`` on) and reports the per-layer metrics instead.  The line
before it holds the run's metadata, with the end-to-end metrics computed
from the unscaled times.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 8
OP_TIMEOUT_S = 120.0
# numpy's OpenBLAS otherwise starts a pool of up to nproc threads in every
# process, which spin on the second core at import and exit; on a small
# shared machine that doubles the spread of an op's time.  Every op runs
# single-threaded, one after another.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    """One ``spherehess`` command line and how its output is checked.

    ``check`` is ``"version"`` (prints a version), ``"reference"`` (JSON
    results equal the recorded reference) or ``"passing"`` (valid JSON,
    every embedded check PASS).
    """

    argv: tuple[str, ...]
    check: str

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _json_op(check: str, *argv: str) -> CliOp:
    return CliOp(argv + ("--format", "json"), check)


def derived_seeds(seed: int, count: int) -> list[int]:
    """Non-negative seeds for the seeded suites, drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def cli_ops(seed: int) -> list[CliOp]:
    """The README-scale commands, then the heavy verify suites."""
    s = [str(v) for v in derived_seeds(seed, 10)]
    ops = [
        CliOp(("--version",), "version"),
        _json_op("reference", "spectrum", "--dim", "4", "--jmax", "2"),
        _json_op("reference", "spectrum", "--dim", "3", "--jmax", "5"),
        _json_op("reference", "spectrum", "--dim", "2"),
        _json_op("reference", "signs", "--nmax", "9"),
        _json_op("reference", "signs", "--nmax", "13"),
        _json_op("reference", "traces", "--kmax", "2"),
        _json_op("reference", "traces", "--kmax", "6"),
    ]
    ops += [_json_op("reference", "greens", "--dim", str(n), "--profile", p)
            for n in (3, 5, 7) for p in ("L", "L2", "D2")]
    ops += [
        _json_op("passing", "qsymbol", "--dim", "6", "--seed", s[0]),
        _json_op("passing", "verify", "--suite", "greens", "--seed", s[1]),
        _json_op("passing", "verify", "--suite", "symbols", "--seed", s[2]),
        _json_op("passing", "verify", "--suite", "confgroup", "--dim", "2", "--seed", s[3]),
    ]
    ops += [
        _json_op("passing", "verify", "--suite", "spectrum"),
        _json_op("passing", "verify", "--suite", "qcurv", "--seed", s[4]),
        _json_op("passing", "verify", "--suite", "qcurv", "--seed", s[5]),
        _json_op("passing", "verify", "--suite", "confgroup", "--dim", "3", "--seed", s[6]),
        _json_op("passing", "verify", "--suite", "confgroup", "--dim", "3", "--seed", s[7]),
        _json_op("passing", "verify", "--suite", "confgroup", "--dim", "2", "--seed", s[8]),
        _json_op("passing", "verify", "--suite", "confgroup", "--dim", "2", "--seed", s[9]),
    ]
    return ops


WORKLOADS = ("cli", "library-warm")


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One op execution: wall and CPU seconds, max RSS in KiB, verdict.

    ``speed`` is the calibration factor from the kernel timings nearest to
    the op (1 for traced ops, which are not scaled).
    """

    wall: float
    cpu: float
    rss_kib: int
    ok: bool
    speed: float = 1.0


@dataclass
class Finished:
    code: int
    wall: float
    cpu: float
    rss_kib: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return env


def run_process(cmd: list[str], work: Path) -> Finished:
    """Run ``cmd`` to completion; time it and read its rusage with wait4."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_kib=usage.ru_maxrss,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

_EXACT_CELL = re.compile(r"-?\d+(/\d+)?")


def cell_matches(got: str, want: str) -> bool:
    """Exact ``p/q`` cells must be equal; float cells agree to 1e-12 relative."""
    if got == want:
        return True
    if _EXACT_CELL.fullmatch(want):
        return False
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)


def results_match(got: dict, want: dict) -> bool:
    if "notes" in want:
        return got == want
    if got.get("columns") != want["columns"] or len(got.get("rows", ())) != len(want["rows"]):
        return False
    return all(
        len(g) == len(w) and all(map(cell_matches, g, w))
        for g, w in zip(got["rows"], want["rows"])
    )


def output_ok(op: CliOp, done: Finished, reference: dict) -> bool:
    if done.code != 0:
        return False
    if op.check == "version":
        return re.fullmatch(r"\d+\.\d+\.\d+\n", done.stdout) is not None
    try:
        doc = json.loads(done.stdout)
    except json.JSONDecodeError:
        return False
    if op.check == "reference":
        return results_match(doc.get("results", {}), reference[op.label])
    checks = doc.get("checks", [])
    return (doc.get("status") == "PASS" and bool(checks)
            and all(c["status"] == "PASS" for c in checks))


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    """Samples per op label, in op order, plus the run's failure tally."""

    samples: dict[str, list[Sample]] = field(default_factory=dict)

    def add(self, label: str, sample: Sample) -> None:
        self.samples.setdefault(label, []).append(sample)
        if not sample.ok:
            sys.stderr.write(f"perfbench: op failed: {label}\n")

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.samples.values())

    @property
    def failed(self) -> int:
        return sum(not s.ok for v in self.samples.values() for s in v)


def measure_cli(ops: list[CliOp], seconds: float, work: Path, reference: dict,
                into: Measured) -> None:
    """Run the ops in turn, starting none after ``seconds`` once each has run."""
    start = time.perf_counter()
    kernel = [calibrate.kernel_seconds()]
    samples: list[tuple[str, Sample]] = []
    for i in itertools.count():
        if i >= len(ops) and time.perf_counter() - start >= seconds:
            break
        op = ops[i % len(ops)]
        done = run_process([sys.executable, "-m", "spherehess", *op.argv], work)
        kernel.append(calibrate.kernel_seconds())
        samples.append((op.label, Sample(done.wall, done.cpu, done.rss_kib,
                                         output_ok(op, done, reference))))
    for (label, sample), factor in zip(samples, calibrate.speeds(kernel)):
        sample.speed = factor
        into.add(label, sample)


def run_warm(seed: int, seconds: float, work: Path, into: Measured,
             spans: Path | None = None) -> Finished:
    cmd = [sys.executable]
    if spans is not None:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "warm.py"), str(seed), repr(seconds)]
    if spans is not None:
        cmd.append(str(spans))
    done = run_process(cmd, work)
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"library-warm worker exited {done.code} without a report")
    if done.code != 0:
        sys.stderr.write(done.stderr)
    for name, samples in report["ops"].items():
        for wall, cpu, ok, speed in samples:
            into.add(name, Sample(wall, cpu, done.rss_kib, ok and done.code == 0, speed))
    return done


def end_to_end(measured: Measured, scaled: bool = True) -> dict[str, float]:
    """Per-op medians over the run's passes, combined over the op list.

    With ``scaled`` every sample is first multiplied by its calibration
    factor; without, the raw times are combined the same way.
    """
    per_op = list(measured.samples.values())

    def op_time(samples: list[Sample], attr: str) -> float:
        return statistics.median(getattr(s, attr) * (s.speed if scaled else 1.0)
                                 for s in samples)

    wall = [op_time(v, "wall") for v in per_op]
    cpu = [op_time(v, "cpu") for v in per_op]
    return {
        "wall_s": sum(wall),
        "op_p50_s": statistics.median(wall),
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(s.rss_kib for v in per_op for s in v) / 1024.0,
        "ok_ratio": 1.0 - measured.failed / measured.attempted,
    }


def setup_samples(work: Path, count: int) -> list[tuple[float, float]]:
    """Fresh interpreters each running ``import spherehess.cli``.

    Returns each one's wall time and its calibration factor.
    """
    cmd = [sys.executable, "-c", "import spherehess.cli"]
    walls, kernel = [], [calibrate.kernel_seconds()]
    for _ in range(count):
        done = run_process(cmd, work)
        if done.code != 0:
            raise RuntimeError(f"import spherehess.cli failed:\n{done.stderr}")
        kernel.append(calibrate.kernel_seconds())
        walls.append(done.wall)
    return list(zip(walls, calibrate.speeds(kernel)))


def check_package(work: Path) -> None:
    """Fail unless the package imports from this checkout's ``src``.

    This first import also writes the bytecode caches, so that no timed
    sample pays for compiling.
    """
    cmd = [sys.executable, "-c", "import spherehess.cli as m; print(m.__file__)"]
    done = run_process(cmd, work)
    where = Path(done.stdout.strip()).resolve() if done.code == 0 else None
    if where is None or SRC.resolve() not in where.parents:
        raise RuntimeError(f"spherehess does not import from {SRC}:\n{done.stderr}")


# ---------------------------------------------------------------------------
# Traced pass and per-layer metrics.
# ---------------------------------------------------------------------------


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cold-start seconds from ``-X importtime`` output.

    A package's time is the cumulative time of its outermost entries, those
    not imported from inside the same package.
    """
    entries = []  # (depth, name, self_us, cumulative_us), in printed order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(head), int(cumulative)))
    # The output is post-order; walk it backwards to see parents first.
    outer = {"numpy": 0, "scipy": 0, "mpmath": 0, "spherehess": 0}
    own = 0
    stack: list[tuple[int, str]] = []
    for depth, name, self_us, cum_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        family = name.split(".")[0]
        parent_family = stack[-1][1].split(".")[0] if stack else None
        if family in outer and parent_family != family:
            outer[family] += cum_us
        if family == "spherehess":
            own += self_us
        stack.append((depth, name))
    return {
        "import.total_s": outer["spherehess"] / 1e6,
        "import.numpy_s": outer["numpy"] / 1e6,
        "import.scipy_s": outer["scipy"] / 1e6,
        "import.mpmath_s": outer["mpmath"] / 1e6,
        "import.spherehess_self_s": own / 1e6,
    }


SPAN_CALLS = (
    "spectrum.spectrum_generate", "spectrum.spectrum_generate3",
    "spectrum.t0_eigenvalue", "exact.rising", "greens.green_L2",
    "greens.green_D2", "greens.tau_tail_quadrature", "confgroup.pairing",
    "confgroup.ahlfors_chart", "qcurv.q_hessian_symbol",
    "symbols.extremal_classification",
)
SPAN_SELF = (
    "spectrum.spectrum_generate", "spectrum.spectrum_generate3",
    "spectrum.t0_eigenvalue", "spectrum.closed_form_table", "exact.rising",
    "greens.green_L2", "greens.green_D2", "greens.tau_tail_quadrature",
    "greens.regular_part", "greens.trace_from_pipeline",
    "greens.spectral_trace_reference", "confgroup.sphere_grid",
    "confgroup.pairing", "confgroup.pullback", "confgroup.ahlfors_chart",
    "confgroup.check_ahlfors_covariance", "qcurv.q_hessian_symbol",
    "qcurv.project_tt", "symbols.gamma_prefactor_oracle",
    "symbols.zeta0_prefactor_richardson", "cli.render_report",
    "cli.build_parser",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(dumps: list[dict], imports: list[dict[str, float]]) -> dict[str, float]:
    """Layer and span metrics summed over the traced pass's processes.

    The import metrics are medians over the processes, as each process
    pays for one cold start.
    """
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    errors: dict[str, int] = {}
    distinct: dict[str, int] = {}
    for dump in dumps:
        for name, entry in tracer.summarize(dump).items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for into, key in ((counts, "counts"), (errors, "errors"), (distinct, "distinct")):
            for name, value in dump[key].items():
                into[name] = into.get(name, 0) + value

    def span(name: str) -> dict[str, float]:
        return spans.get(name, {"calls": 0, "self_s": 0.0})

    out: dict[str, float] = {}
    for layer in tracer.LAYERS:
        mine = [v for k, v in spans.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(v["calls"] for v in mine)
        out[f"{layer}.self_s"] = sum(v["self_s"] for v in mine)
        out[f"{layer}.errors"] = errors.get(layer, 0)
    for key in imports[0]:
        out[key] = statistics.median(imp[key] for imp in imports)
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = span(name)["calls"]
    for name in SPAN_SELF:
        out[f"{name}.self_s"] = span(name)["self_s"]
    builds = sum(span(n)["calls"] for n in tracer.TABLE_BUILDERS)
    out["spectrum.entries"] = counts.get("spectrum.entries", 0)
    out["spectrum.tables_distinct_ratio"] = _ratio(
        sum(distinct.get(n, 0) for n in tracer.TABLE_BUILDERS), builds)
    out["ktypes.ktype_new"] = counts.get("ktypes.ktype_new", 0)
    profiles = sum(span(n)["calls"] for n in tracer.PROFILE_BUILDERS)
    out["greens.profile_builds"] = profiles
    out["greens.profile_distinct_ratio"] = _ratio(
        sum(distinct.get(n, 0) for n in tracer.PROFILE_BUILDERS), profiles)
    out["confgroup.pullback.nodes"] = counts.get("confgroup.pullback.nodes", 0)
    return out


def traced_pass(workload: str, seed: int, work: Path, reference: dict,
                into: Measured) -> tuple[float, dict[str, float]]:
    """One traced pass: its wall seconds and its per-layer metrics."""
    dumps, imports = [], []
    traced = Measured()
    if workload == "library-warm":
        spans = work / "spans-warm.json"
        done = run_warm(seed, 0.0, work, traced, spans)
        dumps.append(tracer.load(str(spans)))
        imports.append(parse_importtime(done.stderr))
    else:
        for i, op in enumerate(cli_ops(seed)):
            spans = work / f"spans-{i}.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "launch.py"),
                   str(spans), "--", *op.argv]
            done = run_process(cmd, work)
            traced.add(op.label, Sample(done.wall, done.cpu, done.rss_kib,
                                        output_ok(op, done, reference)))
            dumps.append(tracer.load(str(spans)))
            imports.append(parse_importtime(done.stderr))
    for label, samples in traced.samples.items():
        for sample in samples:
            into.add(label, sample)
    wall = sum(s.wall for v in traced.samples.values() for s in v)
    return wall, per_layer(dumps, imports)


# ---------------------------------------------------------------------------
# Metadata and entry point.
# ---------------------------------------------------------------------------


def design_counts() -> dict[str, int]:
    lines = sum(len(p.read_text().splitlines())
                for p in (SRC / "spherehess").rglob("*.py"))
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {"design.src_lines": lines, "design.runtime_deps": len(deps)}


def metadata(args: argparse.Namespace, design: dict[str, int],
             raw: dict[str, float]) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "blas_threads": BLAS_THREADS,
        **design,
        "kernel_reference_s": calibrate.REFERENCE_S,
        "unscaled": raw,
    }


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    reference = json.loads(REFERENCE.read_text())
    design = design_counts()
    check_package(work)
    measured = Measured()
    setup = [] if args.trace else setup_samples(work, SETUP_SAMPLES // 2)
    if args.workload == "library-warm":
        run_warm(args.seed, float(args.seconds), work, measured)
    else:
        measure_cli(cli_ops(args.seed), float(args.seconds), work, reference, measured)
    untraced = end_to_end(measured)
    raw = end_to_end(measured, scaled=False)
    if args.trace:
        traced_wall, metrics = traced_pass(args.workload, args.seed, work,
                                           reference, measured)
        metrics["trace.overhead_s"] = traced_wall - raw["wall_s"]
        metrics.update(design)
    else:
        # Half the set-up samples before the timed ops and half after, so
        # that their median spans the run rather than one moment of it.
        setup += setup_samples(work, SETUP_SAMPLES - len(setup))
        metrics = {"setup_s": statistics.median(w * f for w, f in setup), **untraced}
        raw["setup_s"] = statistics.median(w for w, _ in setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return metadata(args, design, raw), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "spherehess" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no spherehess sources under {SRC}; "
                         "run from the root of a checkout\n")
        return 2
    # One core for the harness and every process it starts, so that the
    # calibration kernel, timed in this process, measures the core the ops
    # run on; the harness only waits while an op runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        meta, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
