import hashlib
import importlib.util
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from millsratio import bounds, cli, oracle
from millsratio.bounds import FAMILIES, certify_grid
from millsratio.cli import main
from millsratio.errors import IdentityError
from millsratio.families import quadratic_triple
from millsratio.numutil import nstr_fixed, to_fraction
from millsratio.oracle import phi_quadrature, phi_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    @pytest.mark.parametrize(
        "which,n,expected",
        [
            ("P", 5, "x^5 + 10*x^3 + 15*x"),
            ("Q", 5, "x^4 + 9*x^2 + 8"),
            ("Delta", 1, "x^2 + 8"),
            ("A", 3, "x^6 + 3*x^4 + 9*x^2 - 9"),
            ("B", 2, "2*x^3 - 4*x"),
        ],
    )
    def test_golden_output(self, capsys, which, n, expected):
        code, out, _ = run_cli(capsys, "poly", "--which", which, "--n", str(n))
        assert code == 0
        assert out.strip() == expected

    def test_negative_order_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--which", "P", "--n", "-1"])
        assert exc.value.code == 2
        assert "error: argument --n: must be at least 0, got -1" in capsys.readouterr().err


class TestBounds:
    def test_eq15(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "eq15", "--n", "1", "--x", "1")
        assert code == 0
        assert "lower = 0.5" in out
        assert "upper = 0.75" in out
        assert "phi = 0.655679542418798" in out
        assert "verdict = pass" in out

    def test_i2_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "i2", "--x", "0")
        assert code == 0
        assert "lower = 1.154700538379251" in out
        assert "phi = 1.253314137315500" in out
        assert "verdict = pass" in out

    def test_singularity_is_a_refused_input(self, capsys):
        # A_1(1) is exactly 0: the bound is not stated there
        code, out, err = run_cli(capsys, "bounds", "--family", "i", "--n", "1", "--x", "1")
        assert code == 2
        assert out == ""
        assert "error: A_1(1) is exactly 0" in err

    def test_eq19_domain_edge(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--family", "eq19", "--x", "-1")
        assert code == 2
        assert "must exceed -1" in err

    def test_i2_prints_the_certificate_order(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "i2", "--x", "3/2")
        assert code == 0
        assert out.splitlines()[:2] == ["family = I_2", "n = 2"]

    def test_order_suffix_and_another_n_refused(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--family", "i2", "--n", "5", "--x", "3/2")
        assert code == 2
        assert out == ""
        assert "error: --family i2 names order 2, but --n is 5" in err

    @pytest.mark.parametrize("argv,order", [(("--family", "i", "--n", "5"), 5), (("--family", "i2", "--n", "2"), 2)])
    def test_order_named_once_or_twice_alike(self, capsys, argv, order):
        code, out, _ = run_cli(capsys, "bounds", *argv, "--x", "3/2")
        assert code == 0
        assert out.splitlines()[:2] == [f"family = I_{order}", f"n = {order}"]

    @pytest.mark.parametrize("family,n", [("eq18", 3), ("eq19", 0), ("eq19", 2)])
    def test_fixed_order_and_another_n_refused(self, capsys, family, n):
        code, out, err = run_cli(capsys, "bounds", "--family", family, "--n", str(n), "--x", "3/2")
        assert code == 2
        assert out == ""
        assert f"error: --family {family} has the fixed order {FAMILIES[family].order}, but --n is {n}" in err

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_is_reachable(self, capsys, family):
        n = FAMILIES[family].order  # eq18 and eq19 take their fixed order only
        code, out, err = run_cli(capsys, "bounds", "--family", family, "--n", str(2 if n is None else n), "--x", "3/2")
        assert code == 0, err
        assert f"family = {FAMILIES[family].name}" in out
        assert "verdict = pass" in out

    def test_help_lists_the_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["bounds", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"one of {', '.join(FAMILIES)};" in help_text

    @pytest.mark.parametrize(
        "family,n,x,bits,verdict",
        [
            # a true enclosure with margin 5e-45: far above the oracle error
            # bound (below 2^-176) and the rounding of the margin at 144 bits
            ("eq15", 20, "37/3", 128, "pass"),
            ("eq15", 20, "37/3", 256, "pass"),
            ("eq15", 3, "1/10", 64, "pass"),
            ("eq16", 5, "7/2", 128, "pass"),
            ("eq17", 2, "-3", 96, "pass"),
            ("eq18", 0, "-5/2", 128, "pass"),
            ("eq19", 1, "-1/2", 64, "pass"),
            ("i", 3, "2", 128, "pass"),
            ("i", 4, "-7/3", 256, "pass"),
            # true bounds whose margins (7.2e-21 and 2.6e-26) lie below one
            # unit of rounding at 64 bits but far above the oracle error bound
            ("i", 12, "10", 64, "pass"),
            ("i", 20, "10", 64, "pass"),
        ],
    )
    def test_verdict_is_the_certify_grid_certificate(self, capsys, family, n, x, bits, verdict):
        code, out, _ = run_cli(capsys, "bounds", "--family", family, "--n", str(n), f"--x={x}", "--precision", str(bits))
        lines = dict(line.split(" = ", 1) for line in out.splitlines())
        certs = [c for c in certify_grid(family, [n], [Fraction(x)], bits) if c.family == lines["family"]]
        assert len(certs) == 1
        assert lines["n"] == str(certs[0].n)
        assert lines["margin"] == nstr_fixed(certs[0].margin, 20)
        assert lines["verdict"] == certs[0].verdict == verdict
        assert code == (0 if verdict == "pass" else 1)


class TestUsageErrors:
    """Input that would make a vacuous or unreadable report is a usage error
    (exit 2) that names its option."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("phi", "--x", "1"),
            ("bounds", "--family", "eq18", "--x", "1"),
            ("cf", "--x", "1", "--depth", "2"),
            ("beta", "--m", "1"),
            ("verify", "--n-max", "1", "--grid", "1:1:1"),
        ],
    )
    @pytest.mark.parametrize("digits", ["0", "-3", "two"])
    def test_digits_below_one_refused(self, capsys, argv, digits):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--digits", digits])
        assert exc.value.code == 2
        assert "argument --digits" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["10:1:1", "1:-1:1/2", "0:1:0"])
    def test_empty_grid_refused(self, capsys, grid):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "1", "--grid", grid])
        assert exc.value.code == 2
        assert "argument --grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag,minimum,value",
        [
            (("bounds", "--family", "eq15", "--x", "1"), "--n", 0, "-1"),
            (("beta",), "--m", 0, "-1"),
            (("verify",), "--n-max", 1, "0"),
            (("cf", "--x", "1"), "--depth", 1, "0"),
        ],
    )
    def test_order_below_its_minimum_names_the_flag(self, capsys, argv, flag, minimum, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least {minimum}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag,text",
        [
            (("phi", "--x", "abc"), "--x", "abc"),
            (("bounds", "--family", "eq18", "--x", "1/0"), "--x", "1/0"),
            (("verify", "--grid", "1:x:1"), "--grid", "x"),
        ],
    )
    def test_not_a_rational_names_the_flag(self, capsys, argv, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"argument {flag}: not a rational number: {text!r}" in capsys.readouterr().err

    def test_one_point_grid_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "1", "--grid", "2:2:1", "--digits", "1")
        assert code == 0
        assert {c["x"] for c in json.loads(out)["certificates"]} == {"2"}


class TestBeta:
    def test_beta_one(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--m", "1")
        assert code == 0
        assert "beta = 0.8713379" in out
        assert "bracket_low" in out and "bracket_high" in out

    def test_beta_zero_exact(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--m", "0")
        assert code == 0
        assert "beta = 1.0" in out

    @pytest.mark.parametrize("m", [3, 5])
    def test_exact_values_past_the_int_to_str_limit(self, capsys, m):
        # at tolerance 1e-400, A_{2m+1} at the bracket ends has a denominator
        # 2^(1329 (4m + 4)), past 4300 digits from m = 3: each is printed in
        # full, read back here 1000 digits at a time, and the process-wide
        # limit is left as it is
        def read(text):
            sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
            value = 0
            for i in range(0, len(digits), 1000):
                value = value * 10 ** len(digits[i : i + 1000]) + int(digits[i : i + 1000])
            return sign * value

        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "beta", "--m", str(m), "--tolerance", "1e-400")
        assert (code, sys.get_int_max_str_digits()) == (0, limit)
        lines = dict(line.split(" = ") for line in out.splitlines())
        n, (lo, hi) = 2 * m + 1, bounds.beta(m, Fraction(1, 10**400)).bracket
        for end, x in (("low", lo), ("high", hi)):
            assert Fraction(*map(read, lines[f"bracket_{end}"].split("/"))) == x
            num, den = map(read, lines[f"A_{n}(bracket_{end})"].split("/"))
            assert den > 10**4300  # past the default limit
            assert Fraction(num, den) == quadratic_triple(n).a.eval_rational(x)


class TestNegativeValues:
    """A value that starts with a minus sign reads as in the --opt=value form."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("phi", "--x", "-5/2"), 0),
            (("phi", "--x", "-5/2", "--method", "both"), 0),
            (("bounds", "--family", "eq18", "--x", "-5/2"), 0),
            (("bounds", "--family", "i", "--n", "2", "--x", "-.5"), 0),
            (("verify", "--n-max", "2", "--grid", "-2:2:1/2", "--precision", "64"), 0),
            (("beta", "--m", "1", "--tolerance", "-1/8"), 2),
        ],
    )
    def test_same_as_the_equals_form(self, capsys, argv, code):
        joined = list(argv)
        i = next(i for i, token in enumerate(joined) if token.startswith("-") and not token.startswith("--"))
        joined[i - 1 : i + 1] = [f"{joined[i - 1]}={joined[i]}"]
        result = run_cli(capsys, *argv)  # argparse would exit here if it took the value for an option
        assert result == run_cli(capsys, *joined)
        assert result[0] == code

    def test_following_option_is_still_an_option(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--x", "-1", "--digits", "5")
        assert code == 0
        assert out.splitlines()[-1].startswith("series: 3.4771 ")


class TestCf:
    def test_table_at_one(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--x", "1", "--depth", "5")
        assert code == 0
        assert "9/13" in out
        assert "0.69230769230769" in out

    def test_depth_one_at_two(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--x", "2", "--depth", "1")
        assert code == 0
        assert "1  1  1/2  0.5" in out

    def test_negative_x_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cf", "--x", "-1")
        assert code == 2
        assert "error" in err

    def test_reader_closing_the_pipe_is_quiet(self):
        # `mills cf --x 1 --depth 400 | head -1`: about 219 KB, more than a
        # pipe holds, so the write after the reader closes fails; the exit is
        # a SIGPIPE one, 128 + 13, with nothing on stderr (no "error: [Errno
        # 32] Broken pipe", exit 2, and no "Exception ignored" at exit)
        argv = [sys.executable, "-m", "millsratio.cli", "cf", "--x", "1", "--depth", "400"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"x = 1\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""


class TestPhi:
    def test_both_methods(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--x", "1", "--method", "both")
        assert code == 0
        assert out.count("0.655679542418798") == 2

    def test_both_methods_at_negative_x(self, capsys):
        # the quadrature route reflects x < 0 onto |x|
        code, out, _ = run_cli(capsys, "phi", "--x", "-10", "--method", "both")
        assert code == 0
        values = {line.split()[0]: line.split()[1] for line in out.splitlines() if line.endswith(")")}
        assert values.keys() == {"series:", "quadrature:"}
        assert values["series:"] == values["quadrature:"] == "1.2996129473592022903e+22"

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_error_bound_is_shown_rounded_up(self, capsys, bits):
        # the printed bound is at least the route's error bound and less than
        # one unit in its third significant digit above it; a round to
        # nearest prints 2.51e-51 for phi_series(388/13)'s 2.5109e-51
        for k in range(-390, 391, 26):
            x = Fraction(k, 13)
            code, out, _ = run_cli(capsys, "phi", f"--x={x}", "--method", "both", "--precision", str(bits))
            assert code == 0
            shown = dict(re.findall(r"^(\w+): \S+ \(error_bound <= (\S+)\)$", out, re.M))
            for ov in (phi_series(x, bits), phi_quadrature(x, bits)):
                bound, printed = to_fraction(ov.error_bound), Fraction(shown[ov.method])
                exponent = Decimal(shown[ov.method]).adjusted()
                if printed == Fraction(10) ** exponent and bound < printed:  # carried up to a power of ten
                    exponent -= 1
                assert bound <= printed < bound + Fraction(10) ** (exponent - 2), (x, bits, ov.method)

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "millsratio.cli", "phi", "--x", "0", "--digits", "12"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "1.25331413732" in result.stdout


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--grid", "1:2:1", "--precision", "96")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert report["identities"]
        assert report["certificates"]
        assert report["config"]["n_max"] == 2

    def test_output_is_byte_stable(self):
        # two fresh interpreters with different hash seeds, so that a report
        # that depends on hashing or on process state shows here
        argv = [sys.executable, "-m", "millsratio.cli", "verify", "--n-max", "2", "--grid", "1:2:1", "--precision", "96"]
        outs = []
        for seed in ("0", "1"):
            result = subprocess.run(argv, capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert result.returncode == 0, result.stderr
            outs.append(result.stdout)
        assert outs[0] == outs[1] and outs[0]

    def test_injected_fault_detected(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--n-max", "3", "--grid", "1:2:1", "--precision", "96",
            "--inject-fault", "--out", str(out_path),
        )
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["all_pass"] is False
        assert any(e["status"] == "fail" for e in report["identities"])

    def test_injected_fault_leaves_shared_tables_clean(self):
        # fresh interpreter: the fault run is the first to grow the P/Q memo
        script = (
            "import json, contextlib, io\n"
            "from millsratio.cli import main\n"
            "args = ['verify', '--n-max', '3', '--grid', '1:2:1', '--precision', '96']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(args + ['--inject-fault']) == 1\n"
            "buf = io.StringIO()\n"
            "with contextlib.redirect_stdout(buf):\n"
            "    code = main(args)\n"
            "print(json.dumps({'code': code, 'all_pass': json.loads(buf.getvalue())['all_pass']}))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"code": 0, "all_pass": True}

    @pytest.mark.parametrize("where", [".", "missing/report.json"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, where):
        # a directory, or a path under a missing one: exit 2 naming the path,
        # not exit 1, the code of a certification failure
        path = tmp_path / where
        code, out, err = run_cli(capsys, "verify", "--n-max", "1", "--grid", "1:1:1", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(path)!r}\n") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []

    def test_certificate_rows_have_the_csv_columns(self, capsys):
        # every row the CLI forms holds exactly the report's columns, in
        # order, and the grid's own x strings
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--grid", "1/2:1:1/2", "--precision", "96")
        assert code == 0
        rows = json.loads(out)["certificates"]
        assert rows and all(list(row) == cli.CSV_COLUMNS for row in rows)
        assert {row["x"] for row in rows} == {"1/2", "1"}
        assert next(row for row in rows if row["family"] == "Eq16")["x"] == "1/2"

    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--n-max", "2", "--grid", "1:2:1", "--precision", "96",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "family,n,x,margin,precision_bits,verdict"
        assert len(lines) > 10

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--grid", "1:2:1",
                               "--precision", "96", "--format", "text")
        assert code == 0
        assert "ALL PASS" in out

    def test_text_format_names_each_failing_agreement_point(self, capsys, monkeypatch):
        quadrature = cli.phi_quadrature

        def off_at_two(x, precision_bits):
            ov = quadrature(x, precision_bits)
            return ov._replace(value=ov.value + 1) if x == 2 else ov

        monkeypatch.setattr(cli, "phi_quadrature", off_at_two)
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--grid", "1:2:1",
                               "--precision", "96", "--format", "text")
        assert code == 1
        lines = out.splitlines()
        i = lines.index("oracle agreement: 5/6 pass")
        assert lines[i + 1 :] == ["  FAIL oracle agreement at x=2", "FAILURES PRESENT"]


def _verify_report(*argv) -> dict:
    args = cli.build_parser().parse_args(["verify", *argv])
    args.precision = args.precision or 128
    return cli._run_verification(args)


def _written(report: dict, fmt: str) -> str:
    """What cli.write_report writes of report in fmt, as one text."""
    buf = io.StringIO()
    cli.write_report(report, fmt, buf)
    return buf.getvalue()


def _assert_same_items(got, expected, what):
    """got == expected for two sequences, item by item: a mismatch names its
    first differing item, where a bare == of two whole reports would make
    pytest diff them for minutes."""
    for i, (item, want) in enumerate(zip(got, expected)):
        assert item == want, (what, i)
    assert len(got) == len(expected), what


@pytest.mark.parametrize("argv", [(), ("--precision", "64"), ("--precision", "256"), ("--grid=-2:2:1/2",),
                                  ("--inject-fault",)])
def test_json_report_is_json_dumps_indent_2(argv):
    # the section templates write json.dumps(indent=2)'s layout of each row
    # as the dict of its columns; equal lines with their ends are equal texts
    report = _verify_report(*argv)
    text = _written(report, "json")
    parsed = json.loads(text)
    expected = json.dumps(parsed, indent=2) + "\n"
    _assert_same_items(text.splitlines(keepends=True), expected.splitlines(keepends=True), "line")
    assert list(parsed) == list(report)
    for key, value in report.items():
        if key in cli.SECTIONS:
            assert value, key
            _assert_same_items(parsed[key], [dict(zip(cli.SECTIONS[key], row)) for row in value], key)
        else:
            assert parsed[key] == value, key


def test_json_writer_on_empty_containers_and_separator_text():
    # user text reaches the report in config only, and json's encoder
    # escapes it there; a section with no rows is an empty list
    texts = ['"', "\\", "\x00", "}\x00{", "{\n      \n    }", ",\n", "é ☃ \U0001f600"]
    for out in texts:
        report = _verify_report("--n-max", "1", "--grid", "1:1:1", "--out", out)
        text = _written(report, "json")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", out
        assert json.loads(text)["config"]["out"] == out
        empty = {**report, **{section: [] for section in cli.SECTIONS}}
        assert _written(empty, "json") == json.dumps(empty, indent=2) + "\n", out


# SHA-256 and length of `mills poly --which <which> --n <n>` stdout: A, B
# and C come from quadratic_form over the shared tables, Delta from the
# check through the Wronskians, and a change to either path shows here
POLY_OUTPUT_SHA256 = {
    ("A", 0): ("4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865", 2),
    ("A", 9): ("2093f40b89a7dd5bf2be83185ebcc8453eec82daab208166812e0abf27505a63", 117),
    ("A", 40): ("d62d0d35eb9999207d75fdeced1ffc37077ff7021a6977c5d2480ab29596795e", 1720),
    ("B", 0): ("ea677ad115dcb3dc7c200051168977d0073e971fe05097c1bd2eaa5b6bd5fd15", 3),
    ("B", 9): ("7a26bfe1c3e5d4065fdf3a62d77d45755f2d948db02063d414f10918038fc2a8", 110),
    ("B", 40): ("ef4a2c90ae493a543a30ec0e14699d6fb8be70bf48648dcfd5f3933747936afc", 1731),
    ("C", 0): ("ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28", 3),
    ("C", 9): ("74958b03f64ecedddf797e708cb2b54443529f3d2aa030ace6152a1fa48eeaf0", 102),
    ("C", 40): ("421fcc466ab34676f66d23b396416ec617d642e925f01865faa0f98eca4ecff8", 1714),
    ("Delta", 0): ("0f4d7fc2af21a19ce99d51806102129b45ef3b6cb59ab7139ceaf2b8baedf7e6", 8),
    ("Delta", 9): ("403f98283e8dfde12f8db741a262d06563b1a1f441fcb288d608c7991833de8a", 33),
    ("Delta", 40): ("f74928fd42b5e88ea8882f7e89490975a882519cd49a36f0bcb1ef49e81678e7", 203),
}


@pytest.mark.parametrize("which,n", sorted(POLY_OUTPUT_SHA256))
def test_poly_output_bytes(capsys, which, n):
    code, out, _ = run_cli(capsys, "poly", "--which", which, "--n", str(n))
    assert code == 0
    data = out.encode("utf-8")
    assert (hashlib.sha256(data).hexdigest(), len(data)) == POLY_OUTPUT_SHA256[which, n]


# SHA-256 of `mills verify` with every default, per --format (mpmath 1.3.0,
# pure-Python backend); any change to a verdict, margin digit or layout shows.
DEFAULT_REPORT_SHA256 = {
    "json": "99a1cde60bf82d783e74bc98ff01be325e1794fa9c0e4d775ae4dca00e4675f6",
    "text": "45843e784941034a8d2a55845f13981576da9969199c705048db1f5f51f2c0ab",
    "csv": "9f042cc15bd210907bcef0f510b2adc48bafad8ebb821cf5715e3079e348e12c",
}


@pytest.mark.skipif(
    mpmath.libmp.BACKEND != "python" or mpmath.__version__ != "1.3.0",
    reason="report bytes are pinned for mpmath 1.3.0 with its pure-Python backend",
)
@pytest.mark.parametrize("fmt", sorted(DEFAULT_REPORT_SHA256))
def test_default_verify_report_bytes(capsys, monkeypatch, fmt):
    monkeypatch.delenv("MILLS_PRECISION_BITS", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_REPORT_SHA256[fmt]


# a default `mills verify` in a fresh interpreter, its stdout a sink that
# hashes each write and keeps none of them, the run traced by tracemalloc
REPORT_WRITES_SCRIPT = """
import contextlib, hashlib, json, sys, tracemalloc
import millsratio.cli

class Sink:
    def __init__(self):
        self.digest, self.length, self.largest = hashlib.sha256(), 0, 0
    def write(self, text):
        self.digest.update(text.encode("utf-8"))
        self.length, self.largest = self.length + len(text), max(self.largest, len(text))
    def flush(self):
        pass

sink = Sink()
tracemalloc.start()
with contextlib.redirect_stdout(sink):
    status = millsratio.cli.main(["verify", "--format", sys.argv[1]])
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([status, sink.digest.hexdigest(), sink.length, sink.largest, peak]))
"""


@pytest.mark.skipif(
    mpmath.libmp.BACKEND != "python" or mpmath.__version__ != "1.3.0",
    reason="report bytes are pinned for mpmath 1.3.0 with its pure-Python backend",
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_default_verify_writes_its_report_in_pieces(monkeypatch, fmt):
    # the pinned bytes, written in pieces: no write carries 40% of the
    # report (the largest JSON piece, Eq16's 1200 rows, is 31.7% of it; a
    # CSV row is one write), and the JSON run's tracemalloc peak stays
    # below 4 times the report's length (2.7 here, 5.0 when the report was
    # one string)
    monkeypatch.delenv("MILLS_PRECISION_BITS", raising=False)
    result = subprocess.run([sys.executable, "-c", REPORT_WRITES_SCRIPT, fmt], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    status, digest, length, largest, peak = json.loads(result.stdout)
    assert (status, digest) == (0, DEFAULT_REPORT_SHA256[fmt])
    assert largest <= 0.4 * length, (largest, length)
    if fmt == "json":
        assert peak < 4 * length, (peak, length)


def test_verify_reader_closing_the_pipe_is_quiet():
    # `mills verify | head -1`: the report, 633 KB, is written in pieces
    # after the run; the write after the reader closes fails, and the exit
    # is a SIGPIPE one, 128 + 13, with nothing on stderr
    argv = [sys.executable, "-m", "millsratio.cli", "verify"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_a_planted_failing_certificate_fails_the_run(capsys, monkeypatch):
    # one Eq19 certificate made to fail: the exit status, the JSON's
    # all_pass and the text report's FAIL line each state it, though every
    # identity and agreement row passes
    real, planted = cli.certify_grid, []

    def one_failing(family, orders, grid, precision_bits, memo):
        certs = real(family, orders, grid, precision_bits, memo)
        if family == "eq19":
            certs[-1] = certs[-1]._replace(verdict="fail")
            planted.append(certs[-1])
        return certs

    monkeypatch.setattr(cli, "certify_grid", one_failing)
    argv = ["verify", "--n-max", "2", "--grid", "1:2:1", "--precision", "96"]
    code, out, _ = run_cli(capsys, *argv)
    report = json.loads(out)
    assert code == 1 and report["all_pass"] is False
    assert [row["family"] for row in report["certificates"] if row["verdict"] == "fail"] == ["Eq19"]
    assert all(row["status"] == "pass" for section in ("identities", "oracle_agreement") for row in report[section])
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    family, n, x, margin = planted[-1][:4]
    assert code == 1
    assert out.splitlines()[-2:] == ["oracle agreement: 6/6 pass", "FAILURES PRESENT"]
    assert f"  FAIL {family} n={n} x={x} margin={nstr_fixed(margin, 20)}" in out.splitlines()


# SHA-256 of the `mills verify --precision <bits>` JSON report, every other
# option at its default: each precision rounds every margin differently.
PRECISION_REPORT_SHA256 = {
    64: "4f0c9ec8826885ac57e43725e0e5c0112f6daf6341af5812332bb2a51660a7fc",
    256: "cc9d9b98d05165837fb346594dc3421196c4bdb7435ea964f4772be3389af349",
}


@pytest.mark.skipif(
    mpmath.libmp.BACKEND != "python" or mpmath.__version__ != "1.3.0",
    reason="report bytes are pinned for mpmath 1.3.0 with its pure-Python backend",
)
@pytest.mark.parametrize("bits", sorted(PRECISION_REPORT_SHA256))
def test_verify_report_bytes_at_other_precisions(capsys, monkeypatch, bits):
    monkeypatch.delenv("MILLS_PRECISION_BITS", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--precision", str(bits), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PRECISION_REPORT_SHA256[bits]


@pytest.mark.skipif(
    mpmath.libmp.BACKEND != "python" or mpmath.__version__ != "1.3.0",
    reason="report bytes are pinned for mpmath 1.3.0 with its pure-Python backend",
)
def test_negative_grid_report_bytes(capsys, monkeypatch):
    # SHA-256 and length of `mills verify --n-max 2 --grid=-2:2:1/2
    # --precision 64`, 30431 bytes: the grid crosses the domain edges of
    # Eq15, Eq16 (x > 0) and Eq19 (x > -1), and I_1's singular x = 1,
    # which certify_grid skips
    monkeypatch.delenv("MILLS_PRECISION_BITS", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--grid=-2:2:1/2", "--precision", "64")
    data = out.encode("utf-8")
    assert code == 0
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "9a53a9057bebbd97ab1e86611ad1ce590d4403eb281e95e68d9ad21cf7c3560a", 30431)


@pytest.mark.skipif(
    mpmath.libmp.BACKEND != "python" or mpmath.__version__ != "1.3.0",
    reason="output bytes are pinned for mpmath 1.3.0 with its pure-Python backend",
)
def test_cf_table_bytes(capsys, monkeypatch):
    # SHA-256 of `mills cf --x 7/3 --depth 60`: 60 exact convergents, their
    # decimals and the ladder values, 8423 bytes
    monkeypatch.delenv("MILLS_PRECISION_BITS", raising=False)
    code, out, _ = run_cli(capsys, "cf", "--x", "7/3", "--depth", "60")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "b97de5c1664146c9fb6d8144b5b590716fa12fe368fa2fb0f444e926ecce00c9"


# SHA-256 and length of `mills beta --m <m>` stdout: the bracket, its
# midpoint to 20 digits and the exact A_{2m+1} at both bracket ends
BETA_OUTPUT_SHA256 = {
    0: ("e673965935be511d042711274aea7d2b888e87644ea551ea3432208ef9628a06", 158),
    1: ("03988186282eb8b66670b21f69e7367e966676c15eff1a080077ca5160de3921", 424),
    2: ("f231c27397430279020ae07e435a59fb2ca91059df7b5612a421bf3cecbe70a6", 621),
    5: ("c6eef9db00b822283ec12b6f62635060e389accc51b1e11ca03862c57ce6a1f4", 1204),
    15: ("f80035b046d3f4ed975980a91ed748d87a3d59b968e084906d05d4428b8eaa2e", 3162),
}


@pytest.mark.skipif(
    mpmath.libmp.BACKEND != "python" or mpmath.__version__ != "1.3.0",
    reason="output bytes are pinned for mpmath 1.3.0 with its pure-Python backend",
)
@pytest.mark.parametrize("m", sorted(BETA_OUTPUT_SHA256))
def test_beta_output_bytes(capsys, m):
    code, out, _ = run_cli(capsys, "beta", "--m", str(m))
    assert code == 0
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), len(out.encode("utf-8"))) == BETA_OUTPUT_SHA256[m]


def _load_script(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_verification_script_matches_cli(capsys, tmp_path):
    out_path = tmp_path / "verification.json"
    small = ["--n-max", "2", "--grid", "1:2:1", "--precision", "96"]
    code, _, _ = run_cli(capsys, "verify", *small, "--format", "json", "--out", str(out_path))
    assert code == 0
    cli_json = out_path.read_bytes()
    _, cli_text, _ = run_cli(capsys, "verify", *small, "--format", "text")

    out_path.unlink()
    script = _load_script("run_full_verification")
    assert script.main([*small, "--out", str(out_path)]) == 0
    script_out = capsys.readouterr().out
    assert out_path.read_bytes() == cli_json
    assert script_out == f"wrote {out_path} (exit 0)\n" + cli_text


def test_full_verification_script_refuses_n_max_zero(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        _load_script("run_full_verification").main(["--n-max", "0", "--out", str(tmp_path / "v.json")])
    assert exc.value.code == 2
    assert "argument --n-max: must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_full_verification_script_refuses_precision_below_64(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        _load_script("run_full_verification").main(["--precision", "60", "--out", str(tmp_path / "v.json")])
    assert exc.value.code == 2
    assert "argument --precision: must be at least 64, got 60" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_full_verification_script_refuses_a_directory(capsys, tmp_path):
    assert _load_script("run_full_verification").main(["--n-max", "1", "--grid", "1:1:1", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno ") and err.endswith(f": {str(tmp_path)!r}\n")
    assert tmp_path.is_dir() and sorted(tmp_path.iterdir()) == []


def test_full_verification_script_exits_as_mills_verify(capsys, monkeypatch, tmp_path):
    """An identity error during the run is mills verify's exit 1 with one
    error line, not a traceback, and no report is printed."""

    def broken(*args):
        raise IdentityError("injected")

    monkeypatch.setattr(cli, "verify_identities", broken)
    out_path = tmp_path / "v.json"
    assert _load_script("run_full_verification").main(["--n-max", "1", "--grid", "1:1:1", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: injected\n")
    assert not out_path.exists()


def test_default_verify_reads_phi_once_per_point(capsys, monkeypatch):
    """100 grid points for each of six families, and six route-agreement points."""
    calls = []

    def counting(x, precision_bits, memo=None):
        calls.append(x)
        return phi_at(x, precision_bits, memo)

    phi_at = bounds.phi_at
    monkeypatch.setattr(bounds, "phi_at", counting)
    monkeypatch.setattr(cli, "phi_at", counting)
    monkeypatch.delenv("MILLS_PRECISION_BITS", raising=False)
    assert run_cli(capsys, "verify")[0] == 0
    assert len(calls) == 606


def test_default_verify_forms_each_point_fact_once(capsys, monkeypatch):
    """One integer read of phi per point, one quadratic form per (x, n) of
    Eq17, Eq18, Eq19 and I, and one sweep per point: Eq16's, to order 12,
    formed first and read by every other family.  The oracle agreement
    rows read each of their values once more: the series values at -2, -1
    and 0, off the grid, and the six quadrature values."""
    calls = {"dyadic": 0, "quadratic_form": 0, "pq_sweep": 0}

    def counting(module, name):
        original = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, count)

    counting(oracle, "dyadic")
    counting(bounds, "quadratic_form")
    counting(bounds, "pq_sweep")
    monkeypatch.delenv("MILLS_PRECISION_BITS", raising=False)
    assert run_cli(capsys, "verify")[0] == 0
    assert calls == {"dyadic": 100 + 3 + 6, "quadratic_form": 600, "pq_sweep": 100}


@pytest.mark.parametrize("grid", ["1/10:10:1/10", "-2:2:1/2"])
def test_shared_memo_changes_no_certificate(grid):
    """The verify plan with one memo shared in cli order, in reverse order,
    and interleaved at two precisions gives every certificate, in order, of
    a fresh memo-less call.  -2:2:1/2 reaches the odd orders I skips below
    -beta_m, Eq19's x > -1 and the SingularityError of A_1 at x = 1."""
    plan = cli._verify_plan(cli.grid_points(cli.parse_grid(grid)))
    fresh = {(family, p): certify_grid(family, list(orders), xs, p) for family, orders, xs in plan for p in (96, 128)}
    runs = [[(call, 128) for call in plan], [(call, 128) for call in plan[::-1]],
            [(call, p) for call in plan for p in (96, 128)]]
    for run in runs:
        memo: dict = {}
        for (family, orders, xs), p in run:
            assert certify_grid(family, list(orders), xs, p, memo) == fresh[family, p], (grid, family, p)


def test_certify_path_forms_no_value_no_certificate_reads(capsys, monkeypatch):
    """Eq16's certificates read the sweep and phi, not the convergent and
    error bound its row shows, and Eq17's read no row value; `mills bounds`
    still shows Eq16's both."""
    def refuse(*args):
        raise AssertionError("the certificate path formed a row's values")

    grid = [Fraction(k, 10) for k in range(1, 101)]
    for family, orders, count in (("eq16", range(12), 1200), ("eq17", range(4), 400)):
        with monkeypatch.context() as patch:
            patch.setitem(bounds.FAMILIES, family, FAMILIES[family]._replace(values=refuse))
            certs = certify_grid(family, list(orders), grid)
        assert len(certs) == count and all(c.verdict == "pass" for c in certs), family
    code, out, _ = run_cli(capsys, "bounds", "--family", "eq16", "--n", "5", "--x", "7/2")
    assert code == 0
    assert [line.split(" = ")[0] for line in out.splitlines()] == [
        "family", "n", "x", "precision_bits", "convergent", "error_bound", "phi", "margin", "verdict"]


# `scripts/bounds_table.py` output on small grids; the dashes are the points
# outside a family's domain (x <= 0 for the enclosure, x <= -beta_m for odd
# orders, x <= -1 for Szarek-Werner) and the root of A_1 at x = 1.
BOUNDS_TABLE_GOLDEN = {
    ("--grid=-3/2:2:1/2", "--precision", "96", "--digits", "10"): """\
             x             phi        cf_lower        cf_upper             I_2             I_3        lower_cl        upper_cl
          -3/2     7.205143007               -               -    0.4216951588               -             2.0               -
            -1     3.477051812               -               -     1.151387819               -     1.618033989               -
          -1/2     1.964017495               -               -     1.428571429     2.806627074     1.280776406     2.914854216
             0     1.253314137               -               -     1.154700538     1.333333333             1.0     1.414213562
           1/2    0.8763644565    0.5753424658     1.174377224    0.8571428571    0.8877726583    0.7807764064    0.9148542155
             1    0.6556795424             0.6    0.6923076923    0.6513878189    0.6576707808    0.6180339887    0.6666666667
           3/2    0.5158156382    0.5043478261    0.5217816936    0.5147184146    0.5162228998             0.5    0.5193751525
             2    0.4213692293    0.4186046512    0.4225352113    0.4210526316    0.4214646916    0.4142135624    0.4226497308
""",
    ("--grid=1/2:1:1/2", "--order", "0", "--even", "0", "--odd", "1", "--digits", "8"): """\
           x           phi      cf_lower      cf_upper           I_0           I_1      lower_cl      upper_cl
         1/2    0.87636446           0.0           2.0    0.78077641    0.91485422    0.78077641    0.91485422
           1    0.65567954           0.0           1.0    0.61803399             -    0.61803399    0.66666667
""",
}


@pytest.mark.parametrize("argv", sorted(BOUNDS_TABLE_GOLDEN))
def test_bounds_table_script_golden(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["bounds_table.py", *argv])
    assert _load_script("bounds_table").main() == 0
    assert capsys.readouterr().out == BOUNDS_TABLE_GOLDEN[argv]


@pytest.mark.parametrize("script", ["bounds_table", "run_full_verification"])
def test_scripts_take_a_negative_grid_after_a_space(capsys, monkeypatch, tmp_path, script):
    # "--grid -1:1:1", the form README shows for mills, reads as "--grid=-1:1:1"
    extra = ["--n-max", "1", "--out", str(tmp_path / "v.json")] if script == "run_full_verification" else []
    outputs = []
    for grid in (["--grid", "-1:1:1"], ["--grid=-1:1:1"]):
        monkeypatch.setattr(sys, "argv", [f"{script}.py", *grid, "--precision", "96", *extra])
        assert _load_script(script).main() == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    shown = outputs[0] if script == "bounds_table" else (tmp_path / "v.json").read_text()
    assert "-1" in shown


class TestPrecisionFloor:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--family", "eq15", "--x", "1"),
            ("verify", "--n-max", "1", "--grid", "1:1:1"),
            ("phi", "--x", "1"),
            ("cf", "--x", "1"),
        ],
    )
    @pytest.mark.parametrize("bits", ["60", "8"])
    def test_below_64_refused_before_any_work(self, capsys, argv, bits):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--precision", bits])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --precision: must be at least 64, got {bits}" in captured.err

    def test_beta_takes_no_precision(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["beta", "--m", "1", "--precision", "128"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --precision 128" in capsys.readouterr().err

    def test_beta_ignores_the_precision_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("MILLS_PRECISION_BITS", "abc")
        code, out, _ = run_cli(capsys, "beta", "--m", "1")
        assert code == 0
        assert out.startswith("m = 1\nbeta = ")


class TestPrecisionEnvironment:
    def test_override_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("MILLS_PRECISION_BITS", "96")
        code, out, _ = run_cli(capsys, "phi", "--x", "1")
        assert code == 0
        assert "precision_bits = 96" in out

    @pytest.mark.parametrize("raw", ["abc", "8"])
    def test_bad_value_is_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("MILLS_PRECISION_BITS", raw)
        code, out, err = run_cli(capsys, "phi", "--x", "1")
        assert code == 2
        assert out == ""
        assert "MILLS_PRECISION_BITS" in err
        assert raw in err


@pytest.mark.parametrize(
    "argv",
    [("--grid", "10:1:1"), ("--digits", "0"), ("--precision", "8"), ("--order", "-1"), ("--grid", "0:31:31")],
)
def test_bounds_table_script_refuses_bad_input(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["bounds_table.py", *argv])
    with pytest.raises(SystemExit) as exc:
        _load_script("bounds_table").main()
    assert exc.value.code == 2
    assert f"argument {argv[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("limit", [640, 4300])
def test_exact_str_is_str_past_the_int_to_str_limit(limit):
    # str() of the same values with the limit lifted, then exact_str under
    # limit, which it leaves as it is
    rng, old = random.Random(limit), sys.get_int_max_str_digits()
    values = [v for d in (1, 319, 320, 321, 2149, 2150, 4299, 4300, 4301, 9000, 12901)
              for v in (10**d - 1, 10**d, rng.randrange(10**d), 10 ** (d - 1) + 1)]
    values += [-v for v in values] + [Fraction(3**9000, 2**9000), Fraction(-(7**6000), 10**6000 + 1), Fraction(-5)]
    try:
        sys.set_int_max_str_digits(0)
        want = [str(v) for v in values]
        sys.set_int_max_str_digits(limit)
        got = [cli.exact_str(v) for v in values]
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(old)
    assert got == want


def test_exact_str_of_many_chunks(monkeypatch):
    # a limit of 4 digits cuts 10^2500 into 1250 chunks of 2: one recursion
    # level per chunk passed Python's recursion limit; a loop does not
    value = 10**2500
    want = [str(v) for v in (value, -value - 7, Fraction(value + 1, 3))]
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4)
    got = [cli.exact_str(v) for v in (value, -value - 7, Fraction(value + 1, 3))]
    assert got == want
