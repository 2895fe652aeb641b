import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from millsratio.bounds import FAMILIES, certify_grid
from millsratio.cli import main
from millsratio.numutil import nstr_fixed


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
        code, _, err = run_cli(capsys, "poly", "--which", "P", "--n", "-1")
        assert code == 2
        assert "error" in err


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

    def test_eq19_domain_edge(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--family", "eq19", "--x", "-1")
        assert code == 2
        assert "must exceed -1" in err

    def test_i2_prints_the_certificate_order(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "i2", "--x", "3/2")
        assert code == 0
        assert out.splitlines()[:2] == ["family = I_2", "n = 2"]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_is_reachable(self, capsys, family):
        code, out, err = run_cli(capsys, "bounds", "--family", family, "--n", "2", "--x", "3/2")
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


class TestPhi:
    def test_both_methods(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--x", "1", "--method", "both")
        assert code == 0
        assert out.count("0.655679542418798") == 2

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

    def test_output_is_byte_stable(self, capsys):
        args = ("verify", "--n-max", "2", "--grid", "1:2:1", "--precision", "96")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

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
