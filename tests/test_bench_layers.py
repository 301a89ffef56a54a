"""The benchmark's traced run wraps ufs_lab functions by name: each one it
names must still exist, or `perfbench/run.py --trace 1` fails at install."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", load_spans().LAYERS)
def test_traced_layer_resolves_on_ufs_lab(module, attr):
    owner = importlib.import_module(f"ufs_lab.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner)), f"{module}.{attr}"
