"""Call-graph guard for the benchmark's traced counts.

The benchmark (``bench/run.py``) wraps every public function with the span
tracer of ``bench/spans.py`` and requires the call counts of one
``solve`` + ``evaluate`` operation to satisfy the identities of its
``count_problems``.  These tests run the same tracer on a small LQ
``solve`` + ``evaluate`` (under AVaR and under a Kusuoka mixture), on
``verify`` at horizon 1 and on two fixed scenario trees, so a change to the
call graph fails here in about a second.  One more runs the benchmark's own
``verify-oracles`` operation at its default seed and compares every count
with ``bench/reference.json``, which it only reads.  Another runs ``verify``
in a fresh interpreter under two tracers in turn, the first of them
installed when ``riskdp.verify`` is first imported, and requires equal
counts from both.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskdp.cli
import riskdp.oracle
from riskdp.fixtures import random_stage_policy, random_tabular_model
from riskdp.model import LQParams, build_lq
from riskdp.risk import AVaR

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
SPANS_PATH = os.path.join(BENCH_DIR, "spans.py")


def load_tracer():
    """``bench/spans.py``'s ``Tracer``, loaded without writing bytecode
    under ``bench/``."""
    spec = importlib.util.spec_from_file_location("riskdp_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.Tracer


def write_lq_config(tmp_path, horizon, risk=None):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "model": {
                    "lq": {
                        "sigma": 1.0, "action_bound": 2.0, "x_lo": -3.0, "x_hi": 3.0,
                        "grid_points": 9, "n_actions": 5, "noise_atoms": 5,
                    }
                },
                "risk": risk or {"kind": "avar", "alpha": 0.7},
                "discount": 0.5,
                "tolerance": 1e-6,
                "horizon": horizon,
            }
        )
    )
    return config


def traced_solve_and_evaluate(config):
    """The tracer of one traced ``solve`` + ``evaluate`` of ``config``, the
    report it wrote, and the number of (state, action) pairs the operation
    reads: ``sweeps·n·m`` over value iteration and backward induction plus
    ``(horizon + 1)·n`` over policy evaluation."""
    out = config.parent / "out"
    tracer = load_tracer()()
    tracer.install()
    try:
        assert riskdp.cli.main(["solve", "-c", str(config)]) == 0
        assert riskdp.cli.main(
            ["evaluate", "-c", str(config), "-p", str(out / "policy.csv")]
        ) == 0
    finally:
        tracer.uninstall()
    report = json.loads((out / "report.json").read_text())
    n, m = len(report["grid"]), len(report["actions"])
    sweeps = len(report["report"]["residuals"]) + report["report"]["horizon"] + 1
    pairs = sweeps * n * m + (report["config"]["horizon"] + 1) * n
    return tracer, report, pairs


def test_traced_counts_follow_the_benchmark_identities(tmp_path):
    config = write_lq_config(tmp_path, horizon=4)
    tracer, report, pairs = traced_solve_and_evaluate(config)
    layer = tracer.layer_metrics(0)
    assert layer["solver.vi_sweeps"] == len(report["report"]["residuals"])
    assert layer["solver.backward_sweeps"] == report["report"]["horizon"] + 1
    assert layer["model.successor_calls"] == pairs
    assert layer["model.interpolate_calls"] == layer["model.successor_calls"]
    assert layer["risk.avar_primal_calls"] == layer["risk.evaluate_calls"] == pairs
    # every noise atom enters the merge, and the risk kernel sees what it
    # returns: a merge that drops or double-counts atoms fails here
    noise_atoms = json.loads(config.read_text())["model"]["lq"]["noise_atoms"]
    assert layer["model.atoms_in"] == pairs * noise_atoms
    assert layer["risk.atoms"] == layer["model.atoms_out"]
    # the model table names its builders, so the tracer still sees them
    names = [span[2] for span in tracer.spans]
    assert names.count("model.build_lq") == names.count("cli.build_model") == 2


def test_traced_kusuoka_values_call_avar_primal_once_per_component(tmp_path):
    """A mixture's value calls the module's ``avar_primal`` once per
    component, where the tracer sees it: a ``value`` holding its own
    reference to the kernel would count nothing."""
    components = [[0.0, 0.3], [0.5, 0.4], [0.9, 0.3]]
    risk = {"kind": "kusuoka", "components": components}
    tracer, _, pairs = traced_solve_and_evaluate(write_lq_config(tmp_path, 4, risk))
    layer = tracer.layer_metrics(0)
    assert layer["risk.evaluate_calls"] == pairs
    assert layer["risk.avar_primal_calls"] == len(components) * layer["risk.evaluate_calls"]


def test_traced_verify_keeps_every_oracle_call(tmp_path, capsys):
    config = write_lq_config(tmp_path, horizon=1)
    tracer = load_tracer()()
    tracer.install()
    try:
        assert riskdp.cli.main(["verify", "-c", str(config)]) == 0
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(0)

    suites = {}
    for line in capsys.readouterr().out.splitlines():
        name, rest = line.split("  checks=")
        suites[name.strip()] = int(rest.split()[0])
    assert layer["oracle.lp_calls"] == suites["tail-average agreement"]

    names = [span[2] for span in tracer.spans]
    searches = names.count("oracle.exhaustive_policy_search")
    spot_checks = sum(
        1
        for _, parent, name, _, _ in tracer.spans
        if name == "oracle.scenario_tree_value"
        and parent >= 0
        and names[parent] == "oracle.exhaustive_policy_search"
    )
    # one scenario-tree spot-check per state of each 4-state search model
    assert searches == suites["dp vs exhaustive search"] > 0
    assert spot_checks == 4 * searches


def internal_nodes(node):
    """Number of nodes with children in the tree under ``node``."""
    if not node.children:
        return 0
    return 1 + sum(internal_nodes(child) for _, blend in node.children for _, child in blend)


@pytest.mark.parametrize("kind", ["tabular", "lq"])
def test_traced_scenario_tree_builds_once_and_evaluates_once_per_internal_node(kind):
    """``scenario_tree_value`` builds one tree and calls ``risk.evaluate``
    once per internal node, directly, and the tracer's ``oracle.tree_nodes``
    is the tree's node count."""
    rng = np.random.default_rng(5)
    if kind == "tabular":
        model = random_tabular_model(rng)
    else:
        params = LQParams(
            sigma=0.8, action_bound=1.0, x_lo=-2.0, x_hi=2.0,
            grid_points=9, n_actions=3, noise_atoms=3,
        )
        model = build_lq(params, 0.5)
    policy = random_stage_policy(rng, model, 4)
    tree = riskdp.oracle.build_scenario_tree(model, policy, 3, 1)
    tracer = load_tracer()()
    tracer.install()
    try:
        riskdp.oracle.scenario_tree_value(model, AVaR(0.3), policy, 3, 1)
    finally:
        tracer.uninstall()
    names = [span[2] for span in tracer.spans]
    parents = {name: [] for name in names}
    for _, parent, name, _, _ in tracer.spans:
        parents[name].append(names[parent] if parent >= 0 else None)
    assert parents["oracle.scenario_tree_value"] == [None]
    assert parents["oracle.build_scenario_tree"] == ["oracle.scenario_tree_value"]
    internal = internal_nodes(tree.root)
    assert internal > 1
    assert parents["risk.evaluate"] == ["oracle.scenario_tree_value"] * internal
    assert tracer.layer_metrics(0)["oracle.tree_nodes"] == tree.n_nodes


def test_traced_verify_oracles_operation_has_the_reference_counts(tmp_path, capsys):
    """The ``verify-oracles`` workload's seed-0 operation (``verify`` of the
    README's S LQ config under AVaR 0.5 at discount 0.5, horizon 3, seed 0),
    rebuilt here: its inputs hash to the reference's ``inputs_sha256``, and
    every integer count of one traced run equals the reference's
    ``counts``, among them 13,219 scenario-tree nodes, 1,200 vertex-LP
    calls and 1,966,080 searched sequences."""
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["verify-oracles"]
    lq = {
        "sigma": 1.0, "action_bound": 2.0, "x_lo": -3.0, "x_hi": 3.0,
        "grid_points": 41, "n_actions": 9, "noise_atoms": 5,
    }
    config = {
        "model": {"lq": lq},
        "risk": {"kind": "avar", "alpha": 0.5},
        "discount": 0.5,
        "horizon": 3,
        "seed": 0,
    }
    texts = {"config.json": json.dumps(config)}
    templates = [["verify", "-c", "{dir}/config.json"]]
    digest = hashlib.sha256(json.dumps([texts, templates], sort_keys=True).encode())
    assert digest.hexdigest() == reference["inputs_sha256"]

    path = tmp_path / "config.json"
    path.write_text(texts["config.json"])
    tracer = load_tracer()()
    tracer.install()
    try:
        assert riskdp.cli.main(["verify", "-c", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layer = tracer.layer_metrics(0)
    counts = {name: value for name, value in layer.items() if isinstance(value, int)}
    assert counts == reference["counts"]
    assert counts["oracle.tree_nodes"] == 13219
    assert counts["oracle.lp_calls"] == 1200
    assert counts["risk.evaluate_calls"] == 5094
    assert counts["risk.avar_primal_calls"] == 3719
    assert counts["oracle.sequences"] == 1966080


#: two tracers, one after the other, each around one ``verify`` of the config
#: at ``argv[2]`` in a fresh interpreter; prints both tracers' integer counts
#: and calls per span name
TWO_TRACERS_PROBE = """\
import importlib.util, json, sys
from collections import Counter

sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("riskdp_bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import riskdp.cli

lazy = sorted({"riskdp.fixtures", "riskdp.verify"} & set(sys.modules))
runs = []
for _ in range(2):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = riskdp.cli.main(["verify", "-c", sys.argv[2]])
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(0)
    runs.append({
        "code": code,
        "counts": {k: v for k, v in layer.items() if isinstance(v, int)},
        "calls": Counter(span[2] for span in tracer.spans),
    })
print(json.dumps({"loaded_before": lazy, "runs": runs}))
"""


def test_a_second_tracer_sees_every_call_of_a_verify_imported_under_the_first(tmp_path):
    """``riskdp.verify`` and ``riskdp.fixtures`` are first imported inside a
    ``verify`` traced by tracer A.  After A is uninstalled, tracer B must
    count the same ``verify`` exactly as A did: a name that either module
    imported from a traced module while A was installed would still hold
    A's wrapper, and B would miss its calls."""
    config = write_lq_config(tmp_path, horizon=1)
    src = str(Path(riskdp.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", TWO_TRACERS_PROBE, SPANS_PATH, str(config)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded_before"] == []
    first, second = result["runs"]
    assert first["code"] == second["code"] == 0
    assert first["counts"]["oracle.lp_calls"] > 0 and first["counts"]["risk.avar_primal_calls"] > 0
    assert second["counts"] == first["counts"]
    assert second["calls"] == first["calls"]
