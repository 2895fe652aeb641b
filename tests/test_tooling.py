"""The benchmark's tracer wraps functions of the package by name, and the
mutation check edits lines of it by their text; a rename or removal there
must fail here, not in a traced benchmark run or a mutation check."""

import ast
import contextlib
import functools
import io
import importlib
import importlib.util
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import millsratio
from millsratio import cli, poly

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _load(TRACER, "perfbench_tracer")
TARGETS = TRACER_MODULE.TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_tracer_targets_resolve(name):
    mod_name, attrs, _, _ = TARGETS[name]
    module = importlib.import_module(f"millsratio.{mod_name}")
    for attr in attrs:
        if "." in attr:  # a method, looked up on its class as the tracer does
            cls_name, method = attr.split(".")
            target = vars(getattr(module, cls_name)).get(method)
        else:
            target = getattr(module, attr, None)
        assert callable(target), f"perfbench/tracer.py wraps millsratio.{mod_name}.{attr}, which is gone"


def test_traced_run_names_every_family_and_restores_every_name():
    """A traced `mills verify` splits certify_grid's self time by family, read
    from its first argument, and uninstalling puts every wrapped name back.
    The same calls run once untraced before the snapshot, so a module-level
    cache they grow (oracle._PI) is not read as a name left wrapped."""
    calls = [lambda: cli.main(["verify", "--n-max", "2", "--grid", "1/2:2:1/2"]),
             lambda: millsratio.second_order_bound(2, Fraction(1, 2)), lambda: millsratio.phi_series(Fraction(1, 2), 64)]
    with contextlib.redirect_stdout(io.StringIO()):
        for call in calls:
            call()
    modules = [m for name, m in sys.modules.items() if name == "millsratio" or name.startswith("millsratio.")]
    before, certify_grid = [(m, dict(vars(m))) for m in (*modules, poly.IntPolynomial)], cli.certify_grid
    tracer = TRACER_MODULE.Tracer()
    tracer.install()
    try:
        assert cli.certify_grid is not certify_grid
        assert calls[0]() == 0
        calls[1]()
        calls[2]()
    finally:
        tracer.uninstall()
    spans = {f"bounds.certify_grid.{family}" for family in ("eq15", "eq16", "eq17", "eq18", "eq19", "i")}
    assert spans <= tracer.self_s.keys(), sorted(tracer.self_s)
    assert tracer.calls["bounds.second_order_bound"] == 1 and tracer.calls["oracle.phi_series"] > 0
    for owner, names in before:
        assert all(vars(owner)[name] is value for name, value in names.items()), owner


BENCH_SOURCES = [TRACER.parent / "child.py", TRACER.parent / "workloads.py"]


def _benchmark_api_names() -> set[str]:
    """Every ``api.<name>`` and ``millsratio.<name>`` the benchmark reads: an
    attribute of a plain name, so ``import millsratio.cli`` and docstrings
    are not counted."""
    names = set()
    for path in BENCH_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("api", "millsratio"):
                    names.add(node.attr)
    return names


API_NAMES = _benchmark_api_names()


def test_benchmark_api_names_are_found():
    # from both files; an empty scan would pass every resolve test vacuously
    assert {"beta", "phi_series", "quadratic_triple", "second_order_bound", "verify_identities"} <= API_NAMES


@pytest.mark.parametrize("name", sorted(API_NAMES))
def test_benchmark_api_names_resolve(name):
    millsratio = importlib.import_module("millsratio")
    assert callable(getattr(millsratio, name, None)), f"perfbench calls millsratio.{name}, which is gone"


MUTATION_CHECK = _load(ROOT / "scripts" / "mutation_check.py", "mutation_check")
MUTANTS = MUTATION_CHECK.MUTANTS


@functools.cache
def _collected() -> frozenset[str]:
    """The test items one `pytest --collect-only` call finds in the files
    the mutants' ids name (an id that is not found would stop it)."""
    files = sorted({test.split("::")[0] for mutant in MUTANTS for test in mutant.tests})
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    return frozenset(line for line in result.stdout.splitlines() if "::" in line)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_line_and_tests_exist(mutant):
    # scripts/mutation_check.py applies each mutant to the one occurrence of
    # its line and runs the test ids it names; a change that deletes the
    # line or renames a test leaves a mutant that no longer tests anything.
    # An id names one item, or a function and every item of it
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
    assert mutant.tests
    for test in mutant.tests:
        assert any(item == test or item.startswith(test + "[") for item in _collected()), (mutant.name, test)


@pytest.mark.parametrize("unmutated_times_out", [False, True])
def test_mutation_check_counts_a_timeout_as_killed(monkeypatch, capsys, unmutated_times_out):
    # every pytest run has the fixed timeout; a mutant whose tests run past
    # it (a loop made endless) is killed, and the unmutated copy running
    # past it stops the check with status 2
    timeouts = []

    def run(command, **kwargs):
        timeouts.append(kwargs["timeout"])
        if unmutated_times_out or len(timeouts) > 1:
            raise subprocess.TimeoutExpired(command, kwargs["timeout"])
        return subprocess.CompletedProcess(command, 0)

    monkeypatch.setattr(MUTATION_CHECK, "MUTANTS", MUTANTS[:2])
    monkeypatch.setattr(subprocess, "run", run)
    status = MUTATION_CHECK.main()
    out, err = capsys.readouterr()
    assert set(timeouts) == {MUTATION_CHECK.TIMEOUT_S}
    if unmutated_times_out:
        assert (status, len(timeouts)) == (2, 1)
        assert f"the unmutated tests run longer than {MUTATION_CHECK.TIMEOUT_S} s" in err
    else:
        assert (status, len(timeouts)) == (0, 3)
        assert [line.split() for line in out.splitlines()] == [
            ["killed", "(timed", "out)", mutant.name] for mutant in MUTANTS[:2]
        ] + [["2", "of", "2", "mutants", "killed"]]


LINE_COUNT = _load(ROOT / "scripts" / "line_count.py", "line_count")


def test_line_count_skips_docstrings_comments_and_blank_lines():
    text = '''"""Module doc.

more"""

import os  # a comment after code


# a comment alone
def f(x):
    """Doc."""
    s = """not a
doc"""
    return (x +
            1)


class C: """One-line doc."""; y = 1
def g(): "é"; return "é"
'''
    # import, def f, the string s (2 lines), return (2 lines), class C, def g
    assert LINE_COUNT.code_lines(text) == 8


def test_line_count_totals_its_rows(capsys):
    assert LINE_COUNT.main([str(ROOT / "src")]) == 0
    *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    modules = sorted(path.relative_to(ROOT / "src").as_posix() for path in (ROOT / "src").rglob("*.py"))
    assert [row[0] for row in rows] == modules
    assert total == ["total", str(sum(int(row[1]) for row in rows)), str(sum(int(row[2]) for row in rows))]
    assert all(int(row[2]) < int(row[1]) for row in rows)
