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


def _readme_checks() -> set[tuple[str, float]]:
    """Each (check name, tolerance) pair of the README's "Checks" table."""
    section = README.read_text().split("## Checks", 1)[1].split("\n## ", 1)[0]
    pairs = set()
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)]
        if len(cells) != 7 or not cells[2].startswith("`"):
            continue  # not a row, or the header
        names = [x for name in re.findall(r"`([^`]+)`", cells[2]) for x in _expand(name)]
        tolerances = [float(t) for t in cells[4].split("; ")]
        if len(tolerances) == 1:
            tolerances *= len(names)
        assert len(tolerances) == len(names), line
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
