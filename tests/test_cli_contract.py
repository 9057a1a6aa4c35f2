"""CLI contract for every input, and a cold start that loads only what runs.

scipy is no dependency of the package: the adaptive-quadrature twin
(``greens.tau_tail_quadrature``) runs ``spherehess._quadpack``, a
stdlib-only port of QUADPACK's qag (Piessens et al., *QUADPACK*,
Springer 1983), so no command, the twin's included, may import it.
The package re-exports its names lazily and each command imports the layers
it runs, so the exact commands (``qsymbol`` and the symbols and qcurv
suites among them) and the Green profiles load no numpy.  mpmath
is no dependency either: the spectral trace reference is exact and the
Gamma oracles use ``math.gamma``, so no command imports it, and the symbols
suite runs where it cannot be imported.  No test imports it: their
high-precision references come from ``tests/_oracle.py``, which imports
only the standard library.
Non-finite residuals must fail their check and still print valid JSON, and
arithmetic failures must end in one stderr line, not a traceback.
"""

import argparse
import ast
import functools
import importlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spherehess
from spherehess import greens
from spherehess._nanmax import nan_max
from spherehess.errors import DomainError
from spherehess.cli import (
    ReportEnvelope,
    ResultTable,
    _r_grid,
    _worst,
    build_parser,
    check_against,
    console_main,
    render_report,
)

SRC = str(Path(spherehess.__file__).resolve().parent.parent)


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's package."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _reject_constant(token: str):
    raise ValueError(f"non-JSON constant {token!r}")


@functools.cache
def _top_level_imports(*args: str) -> frozenset[str]:
    """Top-level packages a fresh ``python -X importtime <args>`` imported.

    Cached: a command that several import-hygiene tests list runs in one
    fresh process, and each test asserts its own conditions on the result.
    """
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return frozenset(line.rsplit("|", 1)[-1].strip().split(".")[0]
                     for line in proc.stderr.splitlines()
                     if line.startswith("import time:"))


def _imported(path: Path) -> set[str]:
    """The top-level modules that a source file imports.  An import inside a
    function counts: it loads its module when it runs."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


class TestImportHygiene:
    @pytest.mark.parametrize("args", [
        ("-c", "import spherehess, spherehess.cli"),
        ("-m", "spherehess", "--version"),
        ("-m", "spherehess", "spectrum", "--dim", "4", "--jmax", "2"),
        ("-m", "spherehess", "greens", "--dim", "5", "--profile", "L2"),
        ("-m", "spherehess", "greens", "--dim", "5", "--profile", "D2"),
        ("-m", "spherehess", "verify", "--suite", "greens"),
    ], ids=["import", "version", "spectrum", "greens-L2", "greens-D2",
            "verify-greens"])
    def test_cold_start_leaves_scipy_unloaded(self, args):
        imported = _top_level_imports(*args)
        assert "spherehess" in imported
        assert "scipy" not in imported

    @pytest.mark.parametrize("a, p, x", [(4, 2, 0.6), (6, 1, 1.8)],
                             ids=["two-pieces", "inverted-piece"])
    def test_quadrature_twin_matches_exact_without_scipy(self, a, p, x):
        proc = _python("-c", (
            "import sys\n"
            "from spherehess.greens import tau_tail_exact, tau_tail_quadrature\n"
            f"quad = tau_tail_quadrature({a}, {p}, {x})\n"
            f"exact = tau_tail_exact({a}, {p}).value({x})\n"
            "print('scipy' in sys.modules, abs(quad - exact) / exact)"
        ))
        assert proc.returncode == 0, proc.stderr
        loaded, rel = proc.stdout.split()
        assert loaded == "False"
        assert float(rel) <= 1e-10

    @pytest.mark.parametrize("args", [
        ("-c", "import spherehess, spherehess.cli"),
        ("-m", "spherehess", "--version"),
        ("-m", "spherehess", "spectrum", "--dim", "4", "--jmax", "2"),
        ("-m", "spherehess", "signs", "--nmax", "9"),
        ("-m", "spherehess", "traces", "--kmax", "2"),
        ("-m", "spherehess", "greens", "--dim", "5", "--profile", "L"),
        ("-m", "spherehess", "greens", "--dim", "5", "--profile", "L2"),
        ("-m", "spherehess", "greens", "--dim", "5", "--profile", "D2"),
        ("-m", "spherehess", "verify", "--suite", "spectrum"),
        ("-m", "spherehess", "qsymbol", "--dim", "6"),
        ("-m", "spherehess", "verify", "--suite", "symbols"),
        ("-m", "spherehess", "verify", "--suite", "qcurv"),
    ], ids=["import", "version", "spectrum", "signs", "traces", "greens-L",
            "greens-L2", "greens-D2", "verify-spectrum", "qsymbol",
            "verify-symbols", "verify-qcurv"])
    def test_cold_start_leaves_numpy_and_mpmath_unloaded(self, args):
        imported = _top_level_imports(*args)
        assert "spherehess" in imported
        assert "numpy" not in imported
        assert "mpmath" not in imported
        # The records come from spherehess._record: the standard dataclasses
        # module, with the inspect it loads, costs about 8 ms of a cold start.
        # A bare interpreter's own imports (a site .pth, say) do not count.
        added = imported - _top_level_imports("-c", "pass")
        assert not added & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("args", [
        ("verify", "--suite", "greens"),
        ("verify", "--suite", "confgroup"),
    ], ids=["verify-greens", "verify-confgroup"])
    def test_float_commands_leave_mpmath_unloaded(self, args):
        imported = _top_level_imports("-m", "spherehess", *args)
        assert "numpy" in imported
        assert "mpmath" not in imported

    def test_oracles_run_where_mpmath_cannot_be_imported(self):
        proc = _python("-c", (
            "import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from spherehess import greens, symbols\n"
            "from spherehess.cli import console_main\n"
            "for kind in greens.TraceKind:\n"
            "    for k in range(1, 5):\n"
            "        greens.spectral_trace_reference(kind, k)\n"
            "for n in range(3, 14):\n"
            "    mode = (symbols.PrefactorMode.DET_DERIVATIVE_AT_ZERO if n % 2\n"
            "            else symbols.PrefactorMode.ZETA0_LIMIT_AT_ZERO)\n"
            "    symbols.gamma_prefactor_oracle(n, mode)\n"
            "sys.exit(console_main(['verify', '--suite', 'symbols']))"
        ))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "prefactor-vs-oracle" in proc.stdout

    @pytest.mark.parametrize("module", ["exact", "ktypes", "spectrum", "symbols",
                                        "qcurv", "_record", "_nanmax", "cli"])
    def test_stdlib_only_module_imports_no_numpy(self, module):
        assert "numpy" not in _imported(Path(spherehess.__file__).parent / f"{module}.py")

    def test_no_source_or_test_module_imports_mpmath(self):
        # A file that never names mpmath cannot import it: parse the others.
        paths = [*Path(SRC).rglob("*.py"), *Path(__file__).parent.rglob("*.py")]
        assert [str(p) for p in paths
                if "mpmath" in p.read_text() and "mpmath" in _imported(p)] == []

    def test_no_source_module_imports_random(self):
        # The exact checks decide their identities on finite bases; the
        # library's only draws are confgroup's numpy default_rng(seed).
        assert [str(p) for p in Path(SRC).rglob("*.py") if "random" in _imported(p)] == []

    def test_every_relative_approx_states_its_absolute_tolerance(self):
        # pytest.approx(x, rel=r) also passes anything within its default
        # abs 1e-12, which makes a relative check on a small value vacuous.
        def loose(node):
            if not isinstance(node, ast.Call):
                return False
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            given = {k.arg for k in node.keywords}
            return name == "approx" and "rel" in given and "abs" not in given

        found = [f"{path.name}:{node.lineno}"
                 for path in Path(__file__).parent.rglob("*.py")
                 for node in ast.walk(ast.parse(path.read_text())) if loose(node)]
        assert found == []

    def test_oracle_imports_only_the_standard_library(self):
        # The tests' oracle is a route of its own: no spherehess, no
        # third-party package.
        imported = _imported(Path(__file__).parent / "_oracle.py")
        assert imported <= sys.stdlib_module_names

    def test_reading_a_name_imports_only_its_submodule(self):
        proc = _python("-c", (
            "import sys, spherehess\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('spherehess'))\n"
            "print(loaded())\n"
            "spherehess.kv_trace_L2(1)\n"
            "print(loaded(), 'numpy' in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "['spherehess']",
            "['spherehess', 'spherehess._nanmax', 'spherehess._record', "
            "'spherehess.errors', 'spherehess.exact', 'spherehess.greens'] False",
        ]


# The package's public names by the submodule that defines them.
_PUBLIC = {
    "errors": """Degenerate DomainError FitUnstable InconsistentSystem
        ParityError PreconditionViolation QuadratureFailure RankMismatch
        SphereHessError UnsupportedSigma ZeroCovector""",
    "exact": "ExactConst gamma_half_integer rising sphere_volume",
    "ktypes": """DominantWeight KType branches bundle_ktypes_bruteforce
        bundle_weights is_dominant""",
    "spectrum": """Classification HessianKind SpectrumTable classify_hessian
        closed_form_table kappa kappa_inner_product
        recursion_matches_closed_form spectrum_generate spectrum_generate3
        t0_eigenvalue""",
    "greens": """RadialGreen RegularPartResult TauTailIntegral TraceKind
        chart_radius green_D2 green_L green_L2 kv_trace_D2 kv_trace_L2
        ode_residual_L ode_residual_L2 regular_part spectral_convention_factor
        spectral_trace_reference tau_tail_exact tau_tail_quadrature
        trace_from_pipeline trace_sign_expected""",
    "symbols": """ExtremalStatement FormDefiniteness Functional PrefactorMode
        QuadFormCoeffs bracket_D2 bracket_L bracket_definiteness
        extremal_classification gamma_prefactor gamma_prefactor_exact
        zeta0_prefactor_richardson""",
    "qcurv": """ahlfors_symbol lin_obstruction_symbol lin_ricci_symbol
        lin_scalar_symbol lin_schouten_symbol project_tt q_hessian_expected
        q_hessian_symbol""",
    "confgroup": """MoebiusElement RepWeight SphereGrid TensorField ahlfors_chart
        check_ahlfors_covariance check_pairing_invariance compose moebius_boost
        moebius_rotation pairing sphere_conformal_fields sphere_grid u_action""",
}
_PUBLIC_NAMES = {name for names in _PUBLIC.values() for name in names.split()}


class TestOneDefinitionPerCheck:
    LAYERS = {"confgroup", "exact", "greens", "ktypes", "qcurv", "spectrum", "symbols"}

    def test_cli_reaches_no_private_layer_name(self):
        # Every residual the CLI prints is a public function of its layer.
        from spherehess import cli

        nodes = list(ast.walk(ast.parse(Path(cli.__file__).read_text())))
        imports = [node for node in nodes if isinstance(node, ast.ImportFrom)]
        aliases = self.LAYERS | {a.asname for node in imports for a in node.names
                                 if a.name in self.LAYERS and a.asname}
        private = [a.name for node in imports if node.module in self.LAYERS
                   for a in node.names if a.name.startswith("_")]
        private += [f"{node.value.id}.{node.attr}" for node in nodes
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")]
        assert private == []

    def test_every_error_class_is_raised_somewhere(self):
        # An error class whose last raise site is removed goes with it.
        from spherehess import errors

        called = set()
        for path in Path(spherehess.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    called.add(func.attr if isinstance(func, ast.Attribute)
                               else getattr(func, "id", None))
        assert set(errors.__all__) - {"SphereHessError"} <= called


class TestLazyExports:
    def test_star_import_gives_the_public_names(self):
        namespace: dict = {}
        exec("from spherehess import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == _PUBLIC_NAMES | set(_PUBLIC)
        assert sorted(spherehess.__all__) == sorted(namespace)

    @pytest.mark.parametrize("module", sorted(_PUBLIC))
    def test_each_name_is_its_submodule_object(self, module):
        sub = importlib.import_module(f"spherehess.{module}")
        assert getattr(spherehess, module) is sub
        for name in _PUBLIC[module].split():
            assert getattr(spherehess, name) is getattr(sub, name), name

    def test_dir_lists_the_public_names(self):
        listed = set(dir(spherehess))
        assert _PUBLIC_NAMES | set(_PUBLIC) <= listed
        assert "__version__" in listed

    @pytest.mark.parametrize("module", sorted(_PUBLIC))
    def test_exports_agree_with_the_submodule_all(self, module):
        sub = importlib.import_module(f"spherehess.{module}")
        assert set(spherehess._EXPORTS[module]) <= set(sub.__all__)
        for name in sub.__all__:
            assert hasattr(sub, name), name

    @pytest.mark.parametrize("name", ["annotations", "cg", "no_such_name"])
    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(spherehess, name)


class TestNonFiniteResiduals:
    def test_worst_keeps_a_late_nan(self):
        assert math.isnan(_worst([0.0, 1e-16, math.nan, 2e-16]))
        assert _worst([0.0, 3e-16, 1e-16]) == 3e-16

    # Lists of floats with NaN, +-inf and subnormals.  -0.0 is left out:
    # where both signed zeros tie for the maximum, numpy's choice between
    # them follows its vector lanes (the documented exception).
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False).filter(
            lambda x: x != 0 or math.copysign(1.0, x) > 0),
        st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                         1e-310, -2.2250738585072e-308])),
        min_size=1, max_size=80))
    def test_nan_max_is_numpy_max_bit_for_bit(self, xs):
        assert (struct.pack("<d", nan_max(xs))
                == struct.pack("<d", float(np.max(xs))))

    def test_nan_max_of_nothing_raises(self):
        with pytest.raises(ValueError):
            nan_max([])

    def test_library_residual_raises_at_a_late_non_finite_row(self):
        # At n = 301 the L2 row is not finite at r = 0.3, 2.8 and 3.0; from
        # r = 2.5 on, the first such row follows finite ones.  It used to
        # give a NaN residual, and now raises naming its radius.
        rs = _r_grid()
        with pytest.raises(DomainError, match=(
                r"^L2 profile at n = 301, r = 2.8 leaves the float range")):
            greens.ode_residual_L2(301, [r for r in rs if r >= 2.5])
        # From r = 0.4 on, the first refused row is an earlier, negative one.
        with pytest.raises(DomainError, match=(
                r"^L2 profile at n = 301, r = 2.3 is not positive: value -1\.19")):
            greens.ode_residual_L2(301, rs[1:])

    def test_non_finite_row_is_one_line_exit_one(self):
        # At n = 301 the L profile's value overflows at r = 0.3 and its second
        # derivative at r = 0.4; the command printed NaN residuals as a FAIL.
        proc = _python("-m", "spherehess", "greens", "--dim", "301",
                       "--profile", "L", "--format", "json")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "spherehess: computation failed: L profile at n = 301, r = 0.3 "
            "leaves the float range: value inf, derivatives -inf, inf, ODE "
            "residual nan"]

    def test_nan_residual_fails_and_prints_valid_json(self):
        env = ReportEnvelope(
            "greens", {}, ResultTable(("r",), (("0.30",),)),
            (check_against("ode-residual-max", math.nan, 1e-8),),
        )
        doc = json.loads(render_report(env, "json"),
                         parse_constant=_reject_constant)
        assert doc["status"] == "FAIL"
        [check] = doc["checks"]
        assert check["status"] == "FAIL"
        assert check["residual"] == "nan"

    def test_infinite_residual_renders_as_string(self):
        env = ReportEnvelope(
            "greens", {}, ResultTable(("r",), (("0.30",),)),
            (check_against("finite", 1e-16, 1e-8),
             check_against("infinite", math.inf, 1e-8)),
        )
        doc = json.loads(render_report(env, "json"),
                         parse_constant=_reject_constant)
        assert [c["residual"] for c in doc["checks"]] == [1e-16, "inf"]
        assert [c["status"] for c in doc["checks"]] == ["PASS", "FAIL"]


class TestArithmeticFailures:
    @pytest.mark.parametrize("profile", ["L", "L2"])
    def test_overflow_is_one_line_exit_one(self, profile):
        proc = _python("-m", "spherehess", "greens", "--dim", "401",
                       "--profile", profile)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"spherehess: computation failed: {profile} "
                                   "profile at n = 401, r = 0.3 leaves the float "
                                   "range")


_TOL_FLAGS = ("--tol-ode", "--tol-quad", "--tol-conf")
_DIMLESS_SUITES = ("spectrum", "greens", "symbols", "qcurv")


class TestOptionSurface:
    """Each subcommand takes only the options it reads, and no check's
    tolerance is an option."""

    EXPECTED = {
        "spectrum": {"--dim", "--jmax", "--format"},
        "signs": {"--nmax", "--format"},
        "traces": {"--kmax", "--format"},
        "greens": {"--dim", "--profile", "--format"},
        "qsymbol": {"--dim", "--format", "--seed"},
        "verify": {"--suite", "--dim", "--format", "--seed"},
    }

    def test_each_subcommand_has_exactly_its_options(self):
        [sub] = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {opt for action in p._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert got == self.EXPECTED

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--dim", "4", "--seed", "1"],
        ["traces", "--tol-ode", "1e-20"],
        ["signs", "--tol-conf", "1e-3"],
        ["greens", "--seed", "1"],
        ["qsymbol", "--dim", "6", "--tol-quad", "1e-3"],
        *[["greens", "--profile", "L2", flag, "1e-3"] for flag in _TOL_FLAGS],
        *[["verify", "--suite", suite, flag, "1e-3"]
          for suite, flag in zip(("greens", "greens", "confgroup"), _TOL_FLAGS)],
        *[["verify", "--suite", suite, "--dim", "9"] for suite in _DIMLESS_SUITES],
    ], ids=["spectrum-seed", "traces-tol-ode", "signs-tol-conf", "greens-seed",
            "qsymbol-tol-quad", *[f"greens{flag[1:]}" for flag in _TOL_FLAGS],
            *[f"verify{flag[1:]}" for flag in _TOL_FLAGS],
            *[f"verify-{suite}-dim" for suite in _DIMLESS_SUITES]])
    def test_option_the_command_does_not_read_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            console_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = [x for x in captured.err.splitlines() if x.startswith("spherehess:")]
        assert line.startswith(
            f"spherehess: error: unrecognized arguments: {argv[-2]} {argv[-1]}")

    @pytest.mark.parametrize("argv", [
        ["qsymbol", "--dim", "6"], *[["verify", "--suite", s] for s in _DIMLESS_SUITES]],
        ids=["qsymbol", *_DIMLESS_SUITES])
    def test_seed_is_echoed_and_not_read(self, capsys, argv):
        # Only the confgroup suite draws; the other seeded commands accept
        # --seed (perfbench's cli workload passes it) and only echo it.
        outputs = []
        for seed in ("0", "7"):
            assert console_main([*argv, "--seed", seed]) == 0
            outputs.append(capsys.readouterr().out.splitlines())
        assert len(outputs[0]) == len(outputs[1])
        assert [(a, b) for a, b in zip(*outputs) if a != b] == [
            ("  seed = 0", "  seed = 7")]

    def test_confgroup_reads_its_seed(self, capsys):
        outputs = []
        for seed in ("0", "7"):
            assert console_main(["verify", "--suite", "confgroup", "--seed", seed]) == 0
            outputs.append(capsys.readouterr().out.replace(f"seed = {seed}", ""))
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--dim", "1"], "--dim must be >= 2"),
        (["spectrum", "--dim", "4", "--jmax", "-1"], "--jmax must be >= 0"),
        (["signs", "--nmax", "2"], "--nmax must be >= 3"),
        (["traces", "--kmax", "0"], "--kmax must be >= 1"),
        (["qsymbol", "--dim", "5"], "--dim must be even and >= 4"),
        (["qsymbol", "--dim", "2"], "--dim must be even and >= 4"),
        (["verify", "--suite", "confgroup", "--dim", "4"],
         "--dim must be 2 or 3 for the confgroup suite"),
    ], ids=["spectrum-dim", "spectrum-jmax", "signs-nmax", "traces-kmax",
            "qsymbol-dim-odd", "qsymbol-dim-small", "confgroup-dim"])
    def test_value_out_of_range_is_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            console_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"spherehess: error: {message}"
