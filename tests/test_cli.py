import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import mpmath
import pytest

from millsratio.cli import main


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


def _load_full_verification_script():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"
    spec = importlib.util.spec_from_file_location("run_full_verification", path)
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
    script = _load_full_verification_script()
    assert script.main([*small, "--out", str(out_path)]) == 0
    script_out = capsys.readouterr().out
    assert out_path.read_bytes() == cli_json
    assert script_out == f"wrote {out_path} (exit 0)\n" + cli_text


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
