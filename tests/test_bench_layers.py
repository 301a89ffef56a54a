"""The benchmark reaches ufs_lab through named functions, workload configs and
attribute chains; each must still resolve, or `perfbench/run.py` fails. The
traced run wraps the functions of `perfbench/spans.py`'s LAYERS, and
`perfbench/run.py` decodes every workload config (and its warm-up variant)
and reads `ufs_lab.<module>.<attr>` chains. It and `scripts/fingerprints.py`
also read attributes off the objects a run gives them: the `result` of
`run_experiment` and the `state` restored from a checkpoint."""

import ast
import copy
import functools
import importlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

import ufs_lab
import ufs_lab.cli
from ufs_lab import gan, harness

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SPANS = BENCH / "spans.py"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attribute_chains(paths, root: str) -> list:
    """The longest `root.a.b` attribute chains the scripts' sources read,
    without the root."""
    chains = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id == root:
                chains.add(".".join(reversed(parts)))
    return sorted(c for c in chains if not any(o.startswith(c + ".") for o in chains))


PACKAGE = ROOT / "src" / "ufs_lab"


def public_definitions(path) -> set:
    """The public names a module defines at its top level (defs, classes and
    assigned constants) and the public methods and properties of its classes,
    the latter as `Class.name`."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return {name for name in names if not name.rpartition(".")[2].startswith("_")}


def names_read(paths) -> set:
    """Every name the sources read: as a bare name, an attribute or an import."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_every_public_name_is_read_outside_the_tests():
    # a function only tests reach is folded into the live path or removed
    modules = sorted(PACKAGE.glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py")) + sorted(BENCH.glob("*.py"))
    read = names_read(modules + scripts)
    read |= {part for _, attr in load_spans().LAYERS for part in attr.split(".")}
    defined = [(path.name, name) for path in modules for name in sorted(public_definitions(path))]
    # the scan finds the definitions, methods and properties among them
    assert {("harness.py", "run_experiment"), ("gan.py", "GeneratorNet.sample"),
            ("gan.py", "DiscriminatorNet.feature_dim")} <= set(defined)
    assert [(module, name) for module, name in defined
            if name.rpartition(".")[2] not in read] == []


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


CHAINS = attribute_chains([BENCH / "run.py"], "ufs_lab")


def test_run_script_reads_ufs_lab_chains():
    assert "harness.run_experiment" in CHAINS  # the walk finds what the script calls


@pytest.mark.parametrize("chain", CHAINS)
def test_run_script_chain_resolves(chain):
    functools.reduce(getattr, chain.split("."), ufs_lab)


RUN_SCRIPTS = [BENCH / "run.py", ROOT / "scripts" / "fingerprints.py"]
RUN_CHAINS = [(root, chain) for root in ("result", "state")
              for chain in attribute_chains(RUN_SCRIPTS, root)]


@pytest.fixture(scope="module")
def ring8_run(tmp_path_factory):
    """The RunResult of a 1-iteration ring8 run and the state restored from
    its last checkpoint, under the names the scripts give them."""
    cfg = harness.config_from_dict({
        "dataset": {"kind": "ring8"}, "train": {"batch_size": 8, "iterations": 1},
        "eval_every": 1, "eval_samples": 16, "out_dir": str(tmp_path_factory.mktemp("ring8"))})
    result = harness.run_experiment(cfg)
    _, state = harness.trainer_from_arrays(
        *harness.load_checkpoint(sorted(result.out_dir.glob("checkpoint_*"))[-1]))
    return {"result": result, "state": state}


def test_run_scripts_read_result_and_state_chains():
    # the walk finds what the scripts read
    assert {("result", "status"), ("state", "adam_g.step")} <= set(RUN_CHAINS)


@pytest.mark.parametrize("root, chain", RUN_CHAINS)
def test_run_script_chain_resolves_on_a_run(ring8_run, root, chain):
    functools.reduce(getattr, chain.split("."), ring8_run[root])


def test_bench_iteration_timer_spans_the_critic_steps(tmp_path, monkeypatch):
    # Probe starts an iteration's timer at its first critic step, which it
    # reaches through gan's module name; a loop that bypassed that name would
    # time the generator step alone
    original = gan.train_discriminator_step

    def slow_step(*args, **kwargs):
        time.sleep(0.005)
        return original(*args, **kwargs)

    monkeypatch.setattr(gan, "train_discriminator_step", slow_step)
    cfg = harness.config_from_dict({
        "dataset": {"kind": "ring8"}, "train": {"batch_size": 8, "n_critic": 2, "iterations": 3},
        "eval_every": 3, "eval_samples": 16, "out_dir": str(tmp_path / "run")})
    spans = load_spans()
    probe, patches = spans.Probe(), spans.Patches()
    probe.install(patches)
    try:
        harness.run_experiment(cfg)
    finally:
        patches.restore()
    assert gan.train_discriminator_step is slow_step
    assert len(probe.iter_s) == 3 and min(probe.iter_s) >= 0.010, probe.iter_s
