"""The benchmark's tracer wraps functions of the package by name; a rename
or removal there must fail here, not in a traced benchmark run."""

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
