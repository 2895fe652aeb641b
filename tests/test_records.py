"""The package's records are NamedTuples, and importing it loads no code
generator and no mpmath: a record holds raw values and reads them as mpfs."""

import ast
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from millsratio import (
    BetaRoot,
    Certificate,
    Enclosure,
    OracleValue,
    PQPair,
    QuadraticTriple,
    SecondOrderBound,
    beta,
    certify_grid,
    first_order_enclosure,
    phi_series,
    pq_pair,
    quadratic_triple,
    second_order_bound,
)
from millsratio.bounds import FAMILIES, Family
from millsratio.numutil import as_mpf, dyadic

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
    "Certificate": (Certificate, ("family", "n", "x", "margin", "precision_bits", "verdict", "threshold"),
                    lambda: certify_grid("eq18", [0], [1])[0]),
}
# the records that hold raw values, with the fields read as mpfs
RAW_FIELDS = {OracleValue: ("value", "error_bound"), Certificate: ("margin", "threshold")}
# the only functions of src/ that may import mpmath, each in its own body
MPMATH_IMPORTERS = {"numutil.py": {"as_mpf", "to_fraction"}, "contfrac.py": {"cf_ladder_eval"},
                    "families.py": {"generating_function_residual"}, "poly.py": {"eval_real", "horner_error_bound"}}


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


@pytest.mark.parametrize("kind", RAW_FIELDS, ids=lambda kind: kind.__name__)
def test_raw_items_read_as_mpfs(kind):
    name = "OracleValue" if kind is OracleValue else "Certificate"
    record = RECORDS[name][2]()
    for field in RAW_FIELDS[kind]:
        item = record[kind._fields.index(field)]
        assert type(item) is tuple and len(item) == 4, field  # held raw
        read = getattr(record, field)
        assert type(read) is mpf and read == mp.make_mpf(item) and read._mpf_ == item, field


@pytest.mark.parametrize("kind", RAW_FIELDS, ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("item", [mpf(3) / 7, mpf(0), None, "changed", 5, Fraction(1, 3), (1, 2)], ids=repr)
def test_other_items_read_as_they_are(kind, item):
    fields = {field: None for field in kind._fields}
    record = kind(**{**fields, **{field: item for field in RAW_FIELDS[kind]}})
    assert all(getattr(record, field) is item for field in RAW_FIELDS[kind])
    assert as_mpf(item) is item


def test_dyadic_is_the_same_for_raw_and_mpf_items():
    for x in (Fraction(1, 3), Fraction(-29), Fraction(0), Fraction(7, 2)):
        ov = phi_series(x, 128)
        wrapped = OracleValue(ov.value, ov.error_bound, ov.method, ov.working_bits, ov.terms)
        assert type(wrapped[0]) is mpf and type(ov[0]) is tuple
        assert wrapped.dyadic == ov.dyadic == dyadic(ov.value, ov.error_bound)


def test_no_module_level_mpmath_import():
    # importing the package must load no mpmath: only the functions of
    # MPMATH_IMPORTERS import it, inside their own bodies
    found = []
    for path in sorted(ROOT.glob("src/millsratio/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = MPMATH_IMPORTERS.get(path.name, set())
        imports = {id(node): node for node in ast.walk(tree) if _imports_mpmath(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name in allowed:
                for node in ast.walk(func):
                    imports.pop(id(node), None)
        found += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in imports.values()]
    assert not found


def _imports_mpmath(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "mpmath" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath"


def test_import_and_verify_load_no_mpmath():
    # a fresh interpreter: the package, the CLI, a default `mills verify` in
    # every format and with a fault injected, `mills poly` and `mills phi`
    # leave mpmath out of sys.modules; reading an oracle value's attribute
    # then loads it
    script = (
        "import contextlib, io, sys\n"
        "import millsratio, millsratio.cli\n"
        "runs = [['verify'], ['verify', '--format', 'csv'], ['verify', '--format', 'text'],\n"
        "        ['verify', '--inject-fault', '--n-max', '5'], ['poly', '--which', 'P', '--n', '5'],\n"
        "        ['phi', '--x', '-7/3', '--method', 'both']]\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = millsratio.cli.main(argv)\n"
        "    assert status == (1 if '--inject-fault' in argv else 0), (argv, status)\n"
        "    assert 'mpmath' not in sys.modules, argv\n"
        "value = millsratio.phi_series(1).value\n"
        "print(type(value).__name__, 'mpmath' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "mpf True"
