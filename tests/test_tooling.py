"""The benchmark's tracer wraps functions of the package by name; a rename
or removal there must fail here, not in a traced benchmark run."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


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
