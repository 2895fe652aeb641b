"""The package's records are NamedTuples, and importing it loads no code generator."""

import ast
import pathlib
import subprocess
import sys

import pytest
from mpmath import mpf

from millsratio import (
    BetaRoot,
    Enclosure,
    OracleValue,
    PQPair,
    QuadraticTriple,
    SecondOrderBound,
    beta,
    first_order_enclosure,
    phi_series,
    pq_pair,
    quadratic_triple,
    second_order_bound,
)
from millsratio.bounds import FAMILIES, Family
from millsratio.numutil import dyadic

ROOT = pathlib.Path(__file__).resolve().parents[1]

# each record with its fields in the order the frozen dataclasses had, and one
# instance made the way the package makes it
RECORDS = {
    "PQPair": (PQPair, ("n", "p", "q"), lambda: pq_pair(3)),
    "QuadraticTriple": (QuadraticTriple, ("n", "a", "b", "c"), lambda: quadratic_triple(2)),
    "Enclosure": (Enclosure, ("x", "lower", "upper", "lower_source", "upper_source", "precision_bits"),
                  lambda: first_order_enclosure(1, 2)),
    "BetaRoot": (BetaRoot, ("m", "value", "bracket"), lambda: beta(1)),
    "SecondOrderBound": (SecondOrderBound, ("n", "value", "role"), lambda: second_order_bound(2, 1)),
    "Family": (Family, ("name", "x_above", "order", "depth", "values", "certify"), lambda: FAMILIES["eq16"]),
    "OracleValue": (OracleValue, ("value", "error_bound", "method", "working_bits", "terms"),
                    lambda: phi_series(1, 128)),
}


def test_import_loads_no_code_generator():
    # a fresh interpreter: dataclasses pulls in inspect, ast, dis and
    # tokenize, and start-up paid for them on every mills command
    script = (
        "import sys\n"
        "import millsratio, millsratio.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    paths = sorted(ROOT.glob("src/millsratio/*.py"))
    assert ROOT / "src" / "millsratio" / "bounds.py" in paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}" for name in names if name == "dataclasses"]
    assert not found


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContract:
    def test_fields_in_order(self, name):
        kind, fields, _ = RECORDS[name]
        assert kind._fields == fields

    def test_fields_cannot_be_assigned(self, name):
        kind, fields, make = RECORDS[name]
        record = make()
        assert type(record) is kind
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_replace_makes_a_new_record(self, name):
        kind, fields, make = RECORDS[name]
        record = make()
        changed = record._replace(**{fields[1]: "changed"})
        assert type(changed) is kind and getattr(changed, fields[1]) == "changed"
        assert getattr(record, fields[1]) != "changed"
        others = [f for f in fields if f != fields[1]]
        assert [getattr(changed, f) for f in others] == [getattr(record, f) for f in others]


def test_oracle_value_defaults():
    ov = OracleValue(mpf(1), mpf(2) ** -60, "series")
    assert (ov.working_bits, ov.terms) == (None, None)


def test_dyadic_is_read_once_per_value():
    ov = phi_series(1, 128)
    first = ov.dyadic
    assert first == dyadic(ov.value, ov.error_bound)
    assert ov.dyadic is first
    replaced = ov._replace(error_bound=2 * ov.error_bound)  # a new value reads its own
    assert replaced.dyadic == dyadic(replaced.value, replaced.error_bound) != first
