"""Command-line front end: tables, verification reports, machine formats.

Subcommands
-----------
spectrum   normalized Hessian eigenvalue table, recursion vs closed form
signs      extremal classification of the four global functionals per dimension
traces     regularized operator traces as exact rational multiples of pi^2
greens     radial Green's function profiles with residual checks
qsymbol    leading-symbol identity of the curvature Hessian
verify     run a named property suite and aggregate PASS/FAIL

Every command fills a ReportEnvelope rendered as an aligned table (default),
CSV, or a single JSON document.  Exact rationals are serialized as "p/q"
strings with a separate pi-exponent field so exactness survives the round
trip.  Identical invocations produce byte-identical output; the randomized
``qsymbol`` and ``verify`` draw from an explicit ``--seed`` (default 0).
Exit status: 0 when every check passes, 1 when any check fails, 2 on usage
errors.

The CLI is the package's only front end; ``verify --suite greens`` also
checks the float trace pipeline against the exact spectral references.
Each command imports the layers it runs when it runs, and importing this
module loads no layer and not numpy.  ``spectrum``, ``signs``, ``traces``,
``greens``, ``qsymbol`` and the spectrum, symbols and qcurv suites never
load numpy: the exact checks run in ``Fraction`` arithmetic, and
``qsymbol`` and the qcurv suite draw from ``random.Random(seed)``.  Only the
greens suite (its least-squares fits) and the confgroup suite (its Möbius
grids and ``default_rng(seed)`` draws) load it.  No command imports the
standard library's ``dataclass`` module: the records come from
``spherehess._record``, and ``inspect`` arrives only with numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from ._nanmax import nan_max as _worst
from ._record import dataclass
from .errors import ParityError, SphereHessError

__all__ = [
    "CheckResult",
    "ReportEnvelope",
    "ResultTable",
    "cmd_spectrum",
    "cmd_signs",
    "cmd_traces",
    "cmd_greens",
    "cmd_qsymbol",
    "cmd_verify",
    "render_report",
    "build_parser",
    "console_main",
]


# ---------------------------------------------------------------------------
# Report envelope.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named verification with its residual and violated tolerance."""

    name: str
    status: str  # "PASS" | "FAIL"
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        if self.status not in ("PASS", "FAIL"):
            raise ValueError("status must be PASS or FAIL")


def check_against(name: str, residual: float, tolerance: float) -> CheckResult:
    status = "PASS" if residual <= tolerance else "FAIL"
    return CheckResult(name=name, status=status, residual=float(residual),
                       tolerance=float(tolerance))


def _exact(name: str, ok: bool) -> CheckResult:
    """An exact check: PASS or FAIL, with residual and tolerance 0."""
    return CheckResult(name, "PASS" if ok else "FAIL", 0.0, 0.0)


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ReportEnvelope:
    command: str
    parameters: dict[str, str]
    results: ResultTable | tuple[str, ...]
    checks: tuple[CheckResult, ...]
    version: str = __version__

    @property
    def all_pass(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)


def frac_str(x: Fraction) -> str:
    """Canonical "p/q" (or integer "p") serialization of a rational."""
    return str(Fraction(x))


def _fmt_res(x: float) -> str:
    return f"{x:.3e}"


def _json_number(x: float) -> float | str:
    """A float for JSON; non-finite values as the string the table prints."""
    return x if math.isfinite(x) else _fmt_res(x)


# ---------------------------------------------------------------------------
# Renderers.
# ---------------------------------------------------------------------------


def _render_table(env: ReportEnvelope) -> str:
    lines = [f"report: {env.command}", f"version: {env.version}", "parameters:"]
    for key, val in env.parameters.items():
        lines.append(f"  {key} = {val}")
    lines.append("results:")
    if isinstance(env.results, ResultTable):
        cols = env.results.columns
        rows = env.results.rows
        widths = [
            max(len(cols[i]), *(len(r[i]) for r in rows)) if rows else len(cols[i])
            for i in range(len(cols))
        ]
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in rows:
            lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(r, widths)))
    else:
        for note in env.results:
            lines.append(f"  {note}")
    lines.append("checks:")
    for c in env.checks:
        extra = f"  residual={_fmt_res(c.residual)}"
        if c.status == "FAIL":
            extra += f"  tolerance={_fmt_res(c.tolerance)}"
        lines.append(f"  [{c.status}] {c.name}{extra}")
    lines.append(f"status: {'PASS' if env.all_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _csv_quote(v: str) -> str:
    if any(ch in v for ch in ',"\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


def _render_csv(env: ReportEnvelope) -> str:
    lines: list[str] = []
    if isinstance(env.results, ResultTable):
        lines.append(",".join(_csv_quote(c) for c in env.results.columns))
        for r in env.results.rows:
            lines.append(",".join(_csv_quote(v) for v in r))
    else:
        for note in env.results:
            lines.append(f"# note,{_csv_quote(note)}")
    for c in env.checks:
        tail = f",{_fmt_res(c.tolerance)}" if c.status == "FAIL" else ""
        lines.append(f"# check,{c.name},{c.status},{_fmt_res(c.residual)}{tail}")
    lines.append(f"# report,{env.command},version,{env.version}")
    return "\n".join(lines) + "\n"


def _render_json(env: ReportEnvelope) -> str:
    if isinstance(env.results, ResultTable):
        results = {
            "columns": list(env.results.columns),
            "rows": [list(r) for r in env.results.rows],
        }
    else:
        results = {"notes": list(env.results)}
    doc = {
        "command": env.command,
        "version": env.version,
        "parameters": env.parameters,
        "results": results,
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "residual": _json_number(c.residual),
                "tolerance": _json_number(c.tolerance),
            }
            for c in env.checks
        ],
        "status": "PASS" if env.all_pass else "FAIL",
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def render_report(env: ReportEnvelope, fmt: str) -> str:
    renderers = {"table": _render_table, "csv": _render_csv, "json": _render_json}
    if fmt not in renderers:
        raise ValueError(f"unknown format {fmt!r}")
    return renderers[fmt](env)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(n: int, j_max: int) -> ReportEnvelope:
    from .ktypes import KType, q_range
    from .spectrum import opposite_signs_at_q_pm2, recursion_table, t0_eigenvalue

    params = {"dim": str(n), "jmax": str(j_max)}
    if n == 2:
        notes = (
            "dimension 2: the Hessian is universally zero "
            "(every direction is a gauge direction); no table.",
        )
        checks = (_exact("universally-zero-hessian", True),)
        return ReportEnvelope("spectrum", params, notes, checks)

    table = recursion_table(n, j_max)
    rows: list[tuple[str, ...]] = []
    all_equal = True
    for j in range(j_max + 1):
        for q in q_range(n):
            rec = table.value(j, q)
            closed = t0_eigenvalue(KType(n, j, q))
            equal = rec == closed
            all_equal = all_equal and equal
            branch = "T0" if n >= 4 else ("T0-" if q < 0 else "T0+")
            rows.append(
                (str(n), str(j), str(q), branch,
                 frac_str(rec), frac_str(closed),
                 "true" if equal else "false")
            )

    checks = [_exact("recursion-equals-closed-form", all_equal)]
    if n == 3:
        checks.append(_exact("opposite-signs-at-q-plus-minus-2",
                             opposite_signs_at_q_pm2(table)))
    result = ResultTable(
        columns=("n", "j", "q", "branch", "recursion_value",
                 "closed_form_value", "equal"),
        rows=tuple(rows),
    )
    return ReportEnvelope("spectrum", params, result, tuple(checks))


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------


# Keyed by symbols.Functional name, so that importing the CLI imports no
# layer.
_EXPECTED_PATTERN = {
    "DET_L": "(-1)^(k+1) det L is a local maximum",
    "ZETA0_L": "(-1)^(k+1) zeta_L(0) is a local maximum",
    "DET_D2": "(-1)^(k) det D2 is a local maximum",
    "ZETA0_D2": "(-1)^(k) zeta_D2(0) is a local maximum",
}


def cmd_signs(n_max: int) -> ReportEnvelope:
    from . import symbols

    params = {"nmax": str(n_max)}
    rows: list[tuple[str, ...]] = []
    all_agree = True
    applicable = 0
    for n in range(3, n_max + 1):
        for functional in symbols.Functional:
            try:
                st = symbols.extremal_classification(functional, n)
            except ParityError:
                rows.append((str(n), functional.name, "-", "-", "-", "-",
                             "NOT-APPLICABLE"))
                continue
            applicable += 1
            agree = st.pattern == _EXPECTED_PATTERN[functional.name]
            all_agree = all_agree and agree
            rows.append(
                (str(n), functional.name, str(st.k),
                 f"{st.c_sign:+d}", f"{st.max_sign:+d}", st.pattern,
                 "PASS" if agree else "FAIL")
            )
    params["applicable_rows"] = str(applicable)
    result = ResultTable(
        columns=("n", "functional", "k", "c_sign", "max_sign",
                 "pattern", "status"),
        rows=tuple(rows),
    )
    return ReportEnvelope("signs", params, result,
                          (_exact("printed-pattern-agreement", all_agree),))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def cmd_traces(k_max: int) -> ReportEnvelope:
    from . import greens

    params = {"kmax": str(k_max)}
    rows: list[tuple[str, ...]] = []
    signs_ok = True
    for kind, label, trace in ((greens.TraceKind.L2, "L^2", greens.kv_trace_L2),
                               (greens.TraceKind.D2, "D^2", greens.kv_trace_D2)):
        for k in range(1, k_max + 1):
            coeff, pi_exp = trace(k)
            n = 2 * k + 1
            signs_ok = signs_ok and (
                (1 if coeff > 0 else -1) == greens.trace_sign_expected(kind, k)
            )
            rows.append(
                (label, str(k), str(n), frac_str(coeff), str(pi_exp),
                 repr(float(coeff) * math.pi**pi_exp))
            )
    result = ResultTable(
        columns=("operator", "k", "dim", "coefficient", "pi_exponent",
                 "float_value"),
        rows=tuple(rows),
    )
    checks = (
        _exact("alternating-sign-pattern", signs_ok),
        _exact("frozen-values-k-le-2", greens.frozen_traces_match(k_max)),
    )
    return ReportEnvelope("traces", params, result, checks)


# ---------------------------------------------------------------------------
# greens
# ---------------------------------------------------------------------------


def _r_grid() -> list[float]:
    return [round(0.3 + 0.1 * i, 10) for i in range(28)]


# Tolerances that several check rows share; every other row has its own.
_TOL_ODE = 1e-8    # ODE residuals of the L and L^2 profiles
_TOL_QUAD = 1e-10  # exact tail vs its quadrature twin
_TOL_CONF = 1e-6   # pairing invariance and Ahlfors covariance


def cmd_greens(n: int, profile: str) -> ReportEnvelope:
    from . import greens

    params = {"dim": str(n), "profile": profile,
              "tol_ode": repr(_TOL_ODE), "tol_quad": repr(_TOL_QUAD)}
    rs = _r_grid()
    if profile in ("L", "L2"):
        found = greens.ode_rows(n, profile, rs)
        rows = [(f"{r:.2f}", repr(val), _fmt_res(res)) for r, (val, res) in zip(rs, found)]
        result = ResultTable(("r", "value", "ode_residual"), tuple(rows))
        checks = [check_against("ode-residual-max", _worst(res for _, res in found), _TOL_ODE)]
        if profile == "L2":
            checks.append(check_against("tau-quadrature-vs-closed-form",
                                        greens.tau_tail_gap(n - 3, 2), _TOL_QUAD))
    elif profile == "D2":
        xs = [greens.chart_radius(r) for r in rs]
        found = [greens.d2_route_gap(n, x) for x in xs]
        rows = [(f"{r:.2f}", repr(x), repr(val), _fmt_res(res))
                for r, x, (val, res) in zip(rs, xs, found)]
        result = ResultTable(("r", "x", "value", "route_residual"), tuple(rows))
        checks = [check_against("dual-route-max", _worst(res for _, res in found), 1e-9),
                  check_against("tau-quadrature-vs-closed-form",
                                greens.tau_tail_gap(n - 1, 1), _TOL_QUAD)]
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return ReportEnvelope("greens", params, result, tuple(checks))


# ---------------------------------------------------------------------------
# qsymbol
# ---------------------------------------------------------------------------


def cmd_qsymbol(n: int, seed: int) -> ReportEnvelope:
    from .qcurv import q_symbol_identity_holds

    params = {"dim": str(n), "seed": str(seed), "trials": "5"}
    ok = q_symbol_identity_holds(seed, (n,), 5)
    notes = (f"sigma_{n}(H) = -|xi|^{n}/4 * Id : {'PASS' if ok else 'FAIL'} (exact)",)
    return ReportEnvelope("qsymbol", params, notes, (_exact("q-symbol-identity", ok),))


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_spectrum(dim: int, seed: int) -> list[CheckResult]:
    from . import spectrum

    table3 = spectrum.recursion_table(3, 40)
    return [
        _exact("recursion-equals-closed-form-n4-8",
               all(spectrum.recursion_matches_closed_form(n, 40) for n in range(4, 9))),
        _exact("five-branch-recursion-n3",
               table3.entries == spectrum.closed_form_table(3, 40).entries),
        _exact("opposite-signs-n3", spectrum.opposite_signs_at_q_pm2(table3)),
    ]


def _suite_greens(dim: int, seed: int) -> list[CheckResult]:
    from . import greens

    checks = []
    rs = _r_grid()
    for n in (3, 5, 7):
        checks += [
            check_against(f"ode-residual-L-n{n}", greens.ode_residual_L(n, rs), _TOL_ODE),
            check_against(f"ode-residual-L2-n{n}", greens.ode_residual_L2(n, rs), _TOL_ODE),
            check_against(f"homogeneous-coefficient-n{n}",
                          greens.homogeneous_coefficient_gap(n), 1e-9),
            check_against(f"dual-route-D2-n{n}", _worst(
                greens.d2_route_gap(n, greens.chart_radius(r))[1] for r in rs), 1e-9),
            check_against(f"tau-quad-L2-n{n}", greens.tau_tail_gap(n - 3, 2), _TOL_QUAD),
        ]
    checks.append(_exact("frozen-trace-values", greens.frozen_traces_match(2)))
    checks += [check_against(f"pipeline-vs-spectral-{kind.value}-k{k}",
                             greens.pipeline_trace_gap(kind, k), 1e-5)
               for kind in (greens.TraceKind.L2, greens.TraceKind.D2) for k in (1, 2)]
    return checks


def _suite_symbols(dim: int, seed: int) -> list[CheckResult]:
    from . import symbols

    checks = [
        check_against("prefactor-vs-oracle",
                      _worst(symbols.prefactor_oracle_gap(n) for n in range(3, 14)), 1e-12),
        check_against("zeta0-richardson-n4", symbols.zeta0_richardson_gap(4), 1e-6),
    ]
    brackets = [symbols.s0_bracket_check(n) for n in range(3, 14)]
    return checks + [
        _exact("semidefinite-at-s0", all(semi for semi, _ in brackets)),
        check_against("null-ray-value", _worst(null for _, null in brackets), 1e-12),
    ]


def _suite_qcurv(dim: int, seed: int) -> list[CheckResult]:
    from .qcurv import q_symbol_identity_holds

    return [_exact("q-symbol-identity-n468", q_symbol_identity_holds(seed, (4, 6, 8), 25))]


def _suite_confgroup(n: int, seed: int) -> list[CheckResult]:
    import numpy as np

    from . import confgroup as cg

    rng = np.random.default_rng(seed)
    elements = [cg.random_moebius(rng, n, 1.0) for _ in range(4)]
    points = rng.normal(size=(10, n + 1))
    points /= np.linalg.norm(points, axis=1, keepdims=True)

    lorentz = _worst(cg.lorentz_form_residual(a) for a in elements)
    conf = _worst(cg.conformality_residual(a, y) for a in elements for y in points)
    cocycle = _worst(
        cg.cocycle_residual(a, b, y)
        for a, b in zip(elements[:2], elements[2:]) for y in points
    )
    grid = cg.sphere_grid(n, 40)
    pair_res = []
    for _ in range(2):
        h = cg.random_band_limited_field(rng, n)
        k = cg.random_band_limited_field(rng, n)
        a = cg.random_moebius(rng, n, 1.0)
        pair_res.append(cg.check_pairing_invariance(h, k, a, grid))
    cov_res = []
    for _ in range(2):
        const = rng.normal(size=n)
        lin = rng.normal(size=(n, n))

        def vec_field(x, const=const, lin=lin):
            return const + lin @ x + 0.3 * x * float(x @ x)

        phi = cg.random_chart_map(rng, n, max_log_scale=1.0)
        pts = rng.normal(size=(50, n)) * 0.7
        cov_res.append(cg.check_ahlfors_covariance(vec_field, phi, pts))
    kernel = cg.kernel_field_residual(n, rng.normal(size=(10, n)) * 0.8)
    return [
        check_against("lorentz-form", lorentz, 1e-12),
        check_against("conformality", conf, 1e-7),
        check_against("cocycle", cocycle, 1e-7),
        check_against("pairing-invariance", _worst(pair_res), _TOL_CONF),
        check_against("ahlfors-covariance", _worst(cov_res), _TOL_CONF),
        check_against("kernel-fields", kernel, 1e-8),
    ]


_SUITES = {
    "spectrum": _suite_spectrum,
    "greens": _suite_greens,
    "symbols": _suite_symbols,
    "qcurv": _suite_qcurv,
    "confgroup": _suite_confgroup,
}


def cmd_verify(suite: str, dim: int, seed: int) -> ReportEnvelope:
    params = {"suite": suite, "seed": str(seed)}
    if suite == "confgroup":  # the only suite that reads --dim
        params["dim"] = str(dim)
    checks = _SUITES[suite](dim, seed)
    notes = tuple(
        f"{c.name}: {c.status} (residual {_fmt_res(c.residual)})" for c in checks
    )
    return ReportEnvelope("verify", params, notes, tuple(checks))


# ---------------------------------------------------------------------------
# Argument parsing and entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherehess",
        description="Verification toolkit for conformal Hessians on round spheres.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p: argparse.ArgumentParser, seed: bool = False) -> None:
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("spectrum", help="Hessian eigenvalue table")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--jmax", type=int, default=10)
    add_options(p)

    p = sub.add_parser("signs", help="extremal classification per dimension")
    p.add_argument("--nmax", type=int, default=9)
    add_options(p)

    p = sub.add_parser("traces", help="regularized trace table")
    p.add_argument("--kmax", type=int, default=2)
    add_options(p)

    p = sub.add_parser("greens", help="radial Green's function profiles")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--profile", choices=("L", "L2", "D2"), default="L")
    add_options(p)

    p = sub.add_parser("qsymbol", help="curvature Hessian symbol identity")
    p.add_argument("--dim", type=int, required=True)
    add_options(p, seed=True)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--dim", type=int)  # confgroup only, default 2
    add_options(p, seed=True)

    return parser


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ReportEnvelope:
    # --seed exists only on the subcommands that take it.
    if "seed" in args and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.command == "spectrum":
        if args.dim < 2:
            parser.error("--dim must be >= 2")
        if args.jmax < 0:
            parser.error("--jmax must be >= 0")
        return cmd_spectrum(args.dim, args.jmax)
    if args.command == "signs":
        if args.nmax < 3:
            parser.error("--nmax must be >= 3")
        return cmd_signs(args.nmax)
    if args.command == "traces":
        if args.kmax < 1:
            parser.error("--kmax must be >= 1")
        return cmd_traces(args.kmax)
    if args.command == "greens":
        if args.dim < 3 or args.dim % 2 == 0:
            parser.error("--dim must be odd and >= 3")
        return cmd_greens(args.dim, args.profile)
    if args.command == "qsymbol":
        if args.dim < 4 or args.dim % 2 == 1:
            parser.error("--dim must be even and >= 4")
        return cmd_qsymbol(args.dim, args.seed)
    if args.command == "verify":
        if args.suite != "confgroup" and args.dim is not None:
            parser.error(f"unrecognized arguments: --dim {args.dim} "
                         "(only --suite confgroup reads it)")
        dim = 2 if args.dim is None else args.dim
        if dim not in (2, 3):
            parser.error("--dim must be 2 or 3 for the confgroup suite")
        return cmd_verify(args.suite, dim, args.seed)
    parser.error(f"unknown command {args.command!r}")
    raise AssertionError("unreachable")


def console_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The exact entries of large tables (spectrum --dim 900) have more digits
    # than CPython's int-to-str guard allows (4300 from 3.10.7 on): the
    # command prints every digit, and library callers keep the guard.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        env = _dispatch(args, parser)
        report = render_report(env, args.format)
    except SphereHessError as exc:
        sys.stderr.write(f"spherehess: computation failed: {exc}\n")
        return 1
    except (ArithmeticError, ValueError) as exc:
        # Overflow, division by zero, numpy's LinAlgError: one line, no
        # traceback, the same exit status as a library error.
        sys.stderr.write(
            f"spherehess: computation failed: {type(exc).__name__}: {exc}\n")
        return 1
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    sys.stdout.write(report)
    return 0 if env.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(console_main())
