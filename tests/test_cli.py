"""Command-line interface: golden outputs, exit codes, determinism."""

import json
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spherehess.cli import console_main

GOLDEN_SPECTRUM_CSV = """\
n,j,q,branch,recursion_value,closed_form_value,equal
4,0,0,T0,0,0,true
4,0,1,T0,0,0,true
4,0,2,T0,2880,2880,true
4,1,0,T0,0,0,true
4,1,1,T0,0,0,true
4,1,2,T0,8640,8640,true
4,2,0,T0,0,0,true
4,2,1,T0,0,0,true
4,2,2,T0,20160,20160,true
# check,recursion-equals-closed-form,PASS,0.000e+00
# report,spectrum,version,1.0.0
"""

# The last rows of ``spectrum --dim 12 --jmax 300 --format csv``: a large-j
# cell, where the exact integers run to 39 digits.
GOLDEN_SPECTRUM_CSV_TAIL = """\
12,300,2,T0,342097555433808971444136610934292480000,342097555433808971444136610934292480000,true
# check,recursion-equals-closed-form,PASS,0.000e+00
# report,spectrum,version,1.0.0
"""

GOLDEN_TRACES_CSV = """\
operator,k,dim,coefficient,pi_exponent,float_value
L^2,1,3,3/128,2,0.23131885315053183
L^2,2,5,-5/2048,2,-0.024095713869847067
D^2,1,3,-1/4,2,-2.4674011002723395
D^2,2,5,3/16,2,1.8505508252042546
# check,alternating-sign-pattern,PASS,0.000e+00
# check,frozen-values-k-le-2,PASS,0.000e+00
# report,traces,version,1.0.0
"""


README = Path(__file__).resolve().parent.parent / "README.md"

# ``--format json`` stdout of the suites and of qsymbol, by their options.
_CLI_JSON = json.loads(
    (Path(__file__).parent / "data" / "cli_json.json").read_text())


def _readme_commands() -> list[list[str]]:
    """The argument lists of the README's "Command line" example block."""
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("spherehess ")]


def _expand(name: str) -> list[str]:
    """A check name of the "Checks" table with its ``n*`` and ``{a,b}``
    placeholders written out."""
    if "n*" in name:
        return [x for n in (3, 5, 7) for x in _expand(name.replace("n*", f"n{n}", 1))]
    if "{" in name:
        head, rest = name.split("{", 1)
        options, tail = rest.split("}", 1)
        return [x for option in options.split(",") for x in _expand(head + option + tail)]
    return [name]


def _readme_check_rows() -> list[list[str]]:
    """The cells of each row of the README's "Checks" table, between an
    empty first and last cell."""
    section = README.read_text().split("## Checks", 1)[1].split("\n## ", 1)[0]
    lines = [[c.strip() for c in re.split(r"(?<!\\)\|", line)]
             for line in section.splitlines()]
    # The header's check cell is not code.
    return [cells for cells in lines if len(cells) == 7 and cells[2].startswith("`")]


def _readme_checks() -> set[tuple[str, float]]:
    """Each (check name, tolerance) pair of the README's "Checks" table."""
    pairs = set()
    for cells in _readme_check_rows():
        names = [x for name in re.findall(r"`([^`]+)`", cells[2]) for x in _expand(name)]
        tolerances = [float(t) for t in cells[4].split("; ")]
        if len(tolerances) == 1:
            tolerances *= len(names)
        assert len(tolerances) == len(names), cells
        pairs.update(zip(names, tolerances))
    return pairs


def _run(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_spectrum_dim4_csv(self, capsys):
        code, out, _ = _run(
            capsys, "spectrum", "--dim", "4", "--jmax", "2", "--format", "csv"
        )
        assert code == 0
        assert out == GOLDEN_SPECTRUM_CSV

    def test_spectrum_large_j_cell(self, capsys):
        code, out, _ = _run(
            capsys, "spectrum", "--dim", "12", "--jmax", "300", "--format", "csv"
        )
        assert code == 0
        assert out.endswith("\n12,300,1,T0,0,0,true\n" + GOLDEN_SPECTRUM_CSV_TAIL)

    def test_traces_csv(self, capsys):
        code, out, _ = _run(capsys, "traces", "--kmax", "2", "--format", "csv")
        assert code == 0
        assert out == GOLDEN_TRACES_CSV

    def test_qsymbol_note(self, capsys):
        code, out, _ = _run(capsys, "qsymbol", "--dim", "6", "--format", "csv")
        assert code == 0
        assert "# note,sigma_6(H) = -|xi|^6/4 * Id : PASS (exact)" in out
        assert "# check,q-symbol-identity,PASS" in out

    def test_spectrum_dim2_is_note_only(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--dim", "2")
        assert code == 0
        assert "universally zero" in out
        assert "no table" in out
        assert "status: PASS" in out

    def test_spectrum_dim3_has_both_branches(self, capsys):
        code, out, _ = _run(
            capsys, "spectrum", "--dim", "3", "--jmax", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert "3,0,2,T0+,144,144,true" in lines
        assert "3,0,-2,T0-,-144,-144,true" in lines
        assert "3,1,2,T0+,360,360,true" in lines
        assert "3,1,-2,T0-,-360,-360,true" in lines

    def test_signs_rows(self, capsys):
        code, out, _ = _run(capsys, "signs", "--nmax", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert "3,DET_L,1,-1,+1,(-1)^(k+1) det L is a local maximum,PASS" in lines
        assert "4,DET_L,-,-,-,-,NOT-APPLICABLE" in lines
        assert "4,ZETA0_L,2,+1,-1,(-1)^(k+1) zeta_L(0) is a local maximum,PASS" in lines
        assert "4,ZETA0_D2,2,-1,+1,(-1)^(k) zeta_D2(0) is a local maximum,PASS" in lines

    @pytest.mark.parametrize("case", sorted(_CLI_JSON))
    def test_json_output_is_unchanged(self, capsys, case):
        # JSON prints every residual's repr, so a moved check that changes
        # a scale or an operation order changes these bytes.
        code, out, _ = _run(capsys, *case.split(), "--format", "json")
        assert code == 0
        assert out == _CLI_JSON[case]


class TestFormats:
    def test_json_parses_and_reports_status(self, capsys):
        code, out, _ = _run(
            capsys, "spectrum", "--dim", "4", "--jmax", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "spectrum"
        assert doc["status"] == "PASS"
        assert doc["version"] == "1.0.0"
        assert len(doc["results"]["rows"]) == 6

    def test_table_layout(self, capsys):
        code, out, _ = _run(capsys, "traces", "--kmax", "1")
        assert code == 0
        assert out.startswith("report: traces")
        assert "status: PASS" in out

    def test_determinism(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = _run(
                capsys, "greens", "--dim", "5", "--profile", "D2", "--format", "json"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            console_main(["greens", "--dim", "4"])
        assert exc.value.code == 2

    def test_unknown_command_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            console_main(["frobnicate"])
        assert exc.value.code == 2

    def test_failing_tolerance_is_one(self, capsys, monkeypatch):
        from spherehess import greens

        monkeypatch.setattr(greens, "tau_tail_gap", lambda a, p: 2.5e-10)
        code, out, _ = _run(capsys, "greens", "--dim", "5", "--profile", "L2")
        assert code == 1
        assert ("  [FAIL] tau-quadrature-vs-closed-form  residual=2.500e-10"
                "  tolerance=1.000e-10") in out.splitlines()
        assert out.endswith("status: FAIL\n")

    @pytest.mark.parametrize(
        "suite", ["spectrum", "greens", "symbols", "qcurv"]
    )
    def test_verify_suites_pass(self, capsys, suite):
        code, out, _ = _run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "status: PASS" in out

    def test_verify_confgroup_dim2(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "confgroup", "--dim", "2")
        assert code == 0
        assert "status: PASS" in out

    @pytest.mark.parametrize("nmax", ["198", "260"])
    def test_signs_past_the_float_underflow(self, capsys, nmax):
        code, out, _ = _run(capsys, "signs", "--nmax", nmax, "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    @pytest.mark.parametrize("dim", ["27", "41", "101", "151"])
    def test_green_d2_where_the_literal_bracket_cancels(self, capsys, dim):
        code, out, _ = _run(capsys, "greens", "--dim", dim, "--profile", "D2",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_spectrum_prints_every_digit_of_a_large_table(self, capsys, fmt):
        from spherehess.spectrum import recursion_table

        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        code, out, err = _run(capsys, "spectrum", "--dim", "1200", "--jmax", "0",
                              "--format", fmt)
        assert (code, err) == (0, "")
        # The command lifts CPython's int-to-str guard only while it runs.
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        table = recursion_table(1200, 0)
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            cells = {q: str(table.value(0, q)) for q in (0, 1, 2)}
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert len(cells[2]) > 4300
        if fmt == "json":
            rows = json.loads(out)["results"]["rows"]
        elif fmt == "csv":
            rows = [line.split(",") for line in out.splitlines()[1:]
                    if not line.startswith("#")]
        else:
            lines = out.splitlines()
            body = lines[lines.index("results:") + 2:lines.index("checks:")]
            rows = [line.split() for line in body]
        assert [(int(r[2]), r[4], r[5], r[6]) for r in rows] == [
            (q, cells[q], cells[q], "true") for q in (0, 1, 2)]

    def test_negative_seed_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            console_main(["verify", "--suite", "qcurv", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err


class TestReadmeCommands:
    """The CLI is the only front end, so its documented examples must run."""

    def test_block_is_found(self):
        assert _readme_commands()

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_exits_zero(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 0, err
        assert "Traceback" not in out + err


class TestChecksTable:
    """The README's "Checks" table lists what the commands print."""

    COMMANDS = [
        ["spectrum", "--dim", "2"], ["spectrum", "--dim", "3"], ["spectrum", "--dim", "4"],
        ["signs"], ["traces"],
        *[["greens", "--profile", p] for p in ("L", "L2", "D2")],
        ["qsymbol", "--dim", "4"],
        *[["verify", "--suite", s]
          for s in ("spectrum", "greens", "symbols", "qcurv", "confgroup")],
    ]

    def test_printed_tolerances_are_the_tables(self, capsys):
        printed = set()
        for argv in self.COMMANDS:
            code, out, _ = _run(capsys, *argv, "--format", "json")
            assert code == 0, argv
            printed.update((c["name"], c["tolerance"]) for c in json.loads(out)["checks"])
        assert printed == _readme_checks()

    def test_named_functions_exist(self):
        # Each backticked identifier (a call's arguments dropped) of the
        # residual and routes columns is a name of a layer module, so no
        # removal leaves the table naming a deleted function.  Hyphenated
        # names are rows of the table; ``rs`` is the radius grid the text
        # above it defines.
        import importlib

        import spherehess

        modules = [importlib.import_module(f"spherehess.{name}")
                   for name in (*spherehess._EXPORTS, "cli")]
        named = set()
        for cells in _readme_check_rows():
            for code in re.findall(r"`([^`]+)`", cells[3] + cells[5]):
                call = re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", code)
                if call:
                    named.add(call.group(1))
        assert "kernel_field_residual" in named and "tau_tail_gap" in named
        missing = {name for name in named - {"rs"}
                   if not any(hasattr(module, name) for module in modules)}
        assert not missing


class TestSymbolsSuite:
    def test_null_ray_covers_the_d2_bracket(self, capsys, monkeypatch):
        from spherehess import symbols

        bracket_d2 = symbols.bracket_D2

        def perturbed(n, s):
            coeffs = bracket_d2(n, s)
            return symbols.QuadFormCoeffs(coeffs.a, coeffs.b + Fraction(1, 1000),
                                          coeffs.extra_factor)

        monkeypatch.setattr(symbols, "bracket_D2", perturbed)
        code, out, _ = _run(capsys, "verify", "--suite", "symbols", "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["null-ray-value"]["status"] == "FAIL"
        assert checks["null-ray-value"]["residual"] > 1e-12
        assert checks["prefactor-vs-oracle"]["status"] == "PASS"

    def test_null_ray_value_is_judged_in_q(self, capsys, monkeypatch):
        # 10^-400 is 0.0 as a float, and nonzero.
        from spherehess import symbols

        monkeypatch.setattr(symbols, "s0_bracket_check",
                            lambda n: (True, Fraction(1, 10**400) if n == 9 else Fraction(0)))
        code, out, _ = _run(capsys, "verify", "--suite", "symbols", "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["null-ray-value"] == {"name": "null-ray-value", "status": "FAIL",
                                            "residual": 0.0, "tolerance": 0.0}


class TestSpectrumSuite:
    ROWS = ("recursion-equals-closed-form-n4-8", "five-branch-recursion-n3",
            "opposite-signs-n3")

    @classmethod
    def _statuses(cls, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "spectrum", "--format", "json")
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert tuple(statuses) == cls.ROWS
        return code, statuses

    def test_one_closed_form_j_factor_off(self, capsys, monkeypatch):
        # The smallest integer defect in rising(9, 3), the j = 7 factor of
        # the S^3 closed form, changes that table row and no other.
        from spherehess import spectrum

        clean = spectrum.closed_form_table(3, 40).entries
        j_factor = spectrum._j_factor
        monkeypatch.setattr(spectrum, "_j_factor",
                            lambda n, j: j_factor(n, j) + (n == 3 and j == 7))
        bent = spectrum.closed_form_table(3, 40).entries
        assert {t.j for t in clean if bent[t] != clean[t]} == {7}
        code, statuses = self._statuses(capsys)
        assert code == 1
        assert statuses == {"recursion-equals-closed-form-n4-8": "PASS",
                            "five-branch-recursion-n3": "FAIL",
                            "opposite-signs-n3": "PASS"}

    def test_one_recursion_j_edge_off(self, capsys, monkeypatch):
        # mu_11 = mu_10 (n + 12)/12 with one unit more in the numerator at
        # n = 5; the solver's exact re-check refuses the table.
        from spherehess import spectrum

        column_steps = spectrum._column_steps

        def bent(n, j_max):
            steps = column_steps(n, j_max)
            if n == 5:
                hi, lo = steps[10]
                steps[10] = hi + 1, lo
            return steps

        monkeypatch.setattr(spectrum, "_column_steps", bent)
        code, statuses = self._statuses(capsys)
        assert code == 1
        assert statuses == {"recursion-equals-closed-form-n4-8": "FAIL",
                            "five-branch-recursion-n3": "PASS",
                            "opposite-signs-n3": "PASS"}


class TestQcurvRows:
    def test_a_scaled_expected_symbol(self, capsys, monkeypatch):
        # -|xi|^n/4 times (1 + 10^-6): both printed rows compare in Q.
        from spherehess import qcurv

        expected = qcurv.q_hessian_expected
        monkeypatch.setattr(
            qcurv, "q_hessian_expected",
            lambda n, xi, k: qcurv.mat_scale(Fraction(1000001, 1000000),
                                             expected(n, xi, k)))
        for argv, name in ((("verify", "--suite", "qcurv"), "q-symbol-identity-n468"),
                           (("qsymbol", "--dim", "4"), "q-symbol-identity")):
            code, out, _ = _run(capsys, *argv, "--format", "json")
            assert code == 1
            assert json.loads(out)["checks"] == [
                {"name": name, "status": "FAIL", "residual": 0.0, "tolerance": 0.0}]


class TestConfgroupSuite:
    def test_pairing_invariance_sees_a_shifted_weight(self, capsys, monkeypatch):
        # A power of Omega off by 1e-3 moves the pulled-back pairing by about
        # 1e-3, far above the row's 1e-6; the group rows never read a weight.
        from spherehess import confgroup

        exponent = confgroup.RepWeight.pullback_exponent
        monkeypatch.setattr(confgroup.RepWeight, "pullback_exponent",
                            property(lambda w: exponent.fget(w) + 1e-3))
        code, out, _ = _run(capsys, "verify", "--suite", "confgroup", "--dim", "2",
                            "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["pairing-invariance"]["status"] == "FAIL"
        assert checks["pairing-invariance"]["residual"] > 1e-4
        for name in ("lorentz-form", "conformality", "cocycle"):
            assert checks[name]["status"] == "PASS"

    @staticmethod
    def _checks(capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "confgroup", "--dim", "2",
                            "--format", "json")
        assert code == 1
        return {c["name"]: c for c in json.loads(out)["checks"]}

    def test_group_rows_see_a_scaled_conformal_factor(self, capsys, monkeypatch):
        # Omega off by 1e-6 moves Omega^2 by 2e-6 against J^T J, and the
        # cocycle's two sides by 1e-6 against each other.
        from spherehess import confgroup

        omega = confgroup._omega
        monkeypatch.setattr(confgroup, "_omega", lambda w_t: omega(w_t) * (1 + 1e-6))
        checks = self._checks(capsys)
        for name in ("conformality", "cocycle"):
            assert checks[name]["status"] == "FAIL"
            assert checks[name]["residual"] > 5e-7
        assert checks["lorentz-form"]["status"] == "PASS"

    def test_conformality_sees_a_scaled_jacobian(self, capsys, monkeypatch):
        # The cocycle reads no Jacobian.
        from spherehess import confgroup

        frame = confgroup._moebius_frame

        def scaled(a, ys):
            phi, jac, w_t = frame(a, ys)
            return phi, jac * (1 + 1e-6), w_t

        monkeypatch.setattr(confgroup, "_moebius_frame", scaled)
        checks = self._checks(capsys)
        assert checks["conformality"]["status"] == "FAIL"
        assert checks["conformality"]["residual"] > 1e-6
        assert checks["cocycle"]["status"] == "PASS"

    GROUP_ROWS = ("lorentz-form", "conformality", "cocycle", "pairing-invariance")

    def test_kernel_fields_see_a_field_that_is_not_conformal(self, capsys, monkeypatch):
        # S(x_0 x) is not 0, so the bent fields read about 1e-6 against the
        # row's 1e-8; no other row calls the conformal fields.
        from spherehess import confgroup

        fields = confgroup.sphere_conformal_fields

        def bent(n):
            return [lambda x, fld=fld: fld(x) + 1e-6 * x[0] * x for fld in fields(n)]

        monkeypatch.setattr(confgroup, "sphere_conformal_fields", bent)
        checks = self._checks(capsys)
        assert checks["kernel-fields"]["status"] == "FAIL"
        assert checks["kernel-fields"]["residual"] > 1e-7
        for name in (*self.GROUP_ROWS, "ahlfors-covariance"):
            assert checks[name]["status"] == "PASS"

    def test_ahlfors_covariance_sees_a_scaled_chart_factor(self, capsys, monkeypatch):
        # Omega off by 1e-6 scales the left side by 1 - 2e-6; the kernel
        # fields and the group rows read no chart frame.
        from spherehess import confgroup

        frame = confgroup._chart_frame

        def scaled(a, xs):
            image, jac, omega = frame(a, xs)
            return image, jac, omega * (1 + 1e-6)

        monkeypatch.setattr(confgroup, "_chart_frame", scaled)
        checks = self._checks(capsys)
        assert checks["ahlfors-covariance"]["status"] == "FAIL"
        assert checks["ahlfors-covariance"]["residual"] > 1e-5
        for name in (*self.GROUP_ROWS, "kernel-fields"):
            assert checks[name]["status"] == "PASS"


class TestGreensSuite:
    CHECKS = [
        name
        for n in (3, 5, 7)
        for name in (f"ode-residual-L-n{n}", f"ode-residual-L2-n{n}",
                     f"homogeneous-coefficient-n{n}", f"dual-route-D2-n{n}",
                     f"tau-quad-L2-n{n}")
    ] + ["frozen-trace-values"]
    PIPELINE = ["pipeline-vs-spectral-L2-k1", "pipeline-vs-spectral-L2-k2",
                "pipeline-vs-spectral-D2-k1", "pipeline-vs-spectral-D2-k2"]

    def test_pipeline_checks_follow_the_others(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "greens", "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == self.CHECKS + self.PIPELINE
        for check in checks[len(self.CHECKS):]:
            assert check["status"] == "PASS"
            assert check["tolerance"] == 1e-5
            assert check["residual"] <= 1e-5

    @staticmethod
    def _suite_checks(capsys, monkeypatch, name, factor):
        # The shared profiles keep the builders' floats, so they are rebuilt
        # with the defect and again after it.
        from spherehess import greens

        original = getattr(greens, name)
        monkeypatch.setattr(greens, name, lambda *args: original(*args) * factor)
        greens._shared_profile.cache_clear()
        try:
            code, out, _ = _run(capsys, "verify", "--suite", "greens", "--format", "json")
        finally:
            greens._shared_profile.cache_clear()
        assert code == 1
        return {c["name"]: c for c in json.loads(out)["checks"]}

    def test_ode_rows_see_a_scaled_l2_coefficient(self, capsys, monkeypatch):
        checks = self._suite_checks(capsys, monkeypatch, "_l2_coefficient", 1 + 1e-6)
        for n in (3, 5, 7):
            assert checks[f"ode-residual-L2-n{n}"]["status"] == "FAIL"
            assert checks[f"ode-residual-L-n{n}"]["status"] == "PASS"

    def test_pipeline_rows_see_a_scaled_convention_factor(self, capsys, monkeypatch):
        checks = self._suite_checks(capsys, monkeypatch, "spectral_convention_factor",
                                    1 + 1e-4)
        for name in self.PIPELINE:
            assert checks[name]["status"] == "FAIL"
            assert checks[name]["residual"] > 5e-5

    def test_negative_l2_value_is_one_line(self, capsys):
        # n = 17 printed -3.61e-05 at r = 3.00, and status PASS.
        code, out, err = _run(capsys, "greens", "--dim", "17", "--profile", "L2")
        assert code == 1
        assert out == ""
        assert err.startswith("spherehess: computation failed: L2 profile at n = 17, "
                              "r = 3.0 is not positive: value -")
        assert err.count("\n") == 1

    def test_d2_outside_the_float_range_is_one_line(self, capsys):
        code, out, err = _run(capsys, "greens", "--dim", "401", "--profile", "D2")
        assert code == 1
        assert out == ""
        assert err.startswith("spherehess: computation failed: D2 value at "
                              "n = 401, x_norm = 0.151")
        assert err.endswith(" leaves the float range\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("profile", ["L", "L2"])
    def test_l_profiles_outside_the_float_range_are_one_line(self, capsys, profile):
        # L printed inf rows with a nan residual, L2 a bare OverflowError
        code, out, err = _run(capsys, "greens", "--dim", "351", "--profile", profile)
        assert code == 1
        assert out == ""
        assert err.startswith(f"spherehess: computation failed: {profile} profile "
                              "at n = 351, r = 0.3 leaves the float range")
        assert err.count("\n") == 1
