"""The benchmark reaches ufs_lab through named functions, workload configs and
attribute chains; each must still resolve, or `perfbench/run.py` fails. The
traced run wraps the functions of `perfbench/spans.py`'s LAYERS, and
`perfbench/run.py` decodes every workload config (and its warm-up variant)
and reads `ufs_lab.<module>.<attr>` chains."""

import ast
import copy
import functools
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import ufs_lab
import ufs_lab.cli
from ufs_lab import harness

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = BENCH / "spans.py"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ufs_lab_chains(path: Path) -> list:
    """The longest `ufs_lab.a.b` attribute chains the script's source reads,
    without the `ufs_lab.` root."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "ufs_lab":
            chains.add(".".join(reversed(parts)))
    return sorted(c for c in chains if not any(o.startswith(c + ".") for o in chains))


@pytest.mark.parametrize("module, attr", load_spans().LAYERS)
def test_traced_layer_resolves_on_ufs_lab(module, attr):
    owner = importlib.import_module(f"ufs_lab.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner)), f"{module}.{attr}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_decodes_with_and_without_warmup(name):
    spec = WORKLOADS[name]
    harness.config_from_dict(copy.deepcopy(spec["config"]))
    harness.config_from_dict(harness.apply_overrides(copy.deepcopy(spec["config"]),
                                                     spec["warmup"]))


CHAINS = ufs_lab_chains(BENCH / "run.py")


def test_run_script_reads_ufs_lab_chains():
    assert "harness.run_experiment" in CHAINS  # the walk finds what the script calls


@pytest.mark.parametrize("chain", CHAINS)
def test_run_script_chain_resolves(chain):
    functools.reduce(getattr, chain.split("."), ufs_lab)
