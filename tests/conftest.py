"""Interpreters the tests start import the package from src/, as the tests
themselves do (pyproject.toml puts src/ on their path), so that a bare
`pytest` from the repository root needs no PYTHONPATH."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
