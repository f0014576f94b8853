"""Call-graph guard for the benchmark's traced counts.

The benchmark (``bench/run.py``) wraps every public function with the span
tracer of ``bench/spans.py`` and requires the call counts of one
``solve`` + ``evaluate`` operation to satisfy the identities of its
``count_problems``.  These tests run the same tracer on a small LQ
``solve`` + ``evaluate`` and on ``verify`` at horizon 1, so a change to the
call graph fails here in about a second.
"""

import importlib.util
import json
import os
import sys

import riskdp.cli

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


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


def write_lq_config(tmp_path, horizon):
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
                "risk": {"kind": "avar", "alpha": 0.7},
                "discount": 0.5,
                "tolerance": 1e-6,
                "horizon": horizon,
            }
        )
    )
    return config


def test_traced_counts_follow_the_benchmark_identities(tmp_path):
    horizon = 4
    config = write_lq_config(tmp_path, horizon)
    out = tmp_path / "out"
    tracer = load_tracer()()
    tracer.install()
    try:
        assert riskdp.cli.main(["solve", "-c", str(config)]) == 0
        assert riskdp.cli.main(
            ["evaluate", "-c", str(config), "-p", str(out / "policy.csv")]
        ) == 0
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(0)

    report = json.loads((out / "report.json").read_text())
    n, m = len(report["grid"]), len(report["actions"])
    sweeps = len(report["report"]["residuals"])
    n0 = report["report"]["horizon"]
    assert layer["solver.vi_sweeps"] == sweeps
    assert layer["solver.backward_sweeps"] == n0 + 1
    pairs = (sweeps + n0 + 1) * n * m + (horizon + 1) * n
    assert layer["model.successor_calls"] == pairs
    assert layer["model.interpolate_calls"] == layer["model.successor_calls"]
    assert layer["risk.avar_primal_calls"] == layer["risk.evaluate_calls"] == pairs
    # the model table names its builders, so the tracer still sees them
    names = [span[2] for span in tracer.spans]
    assert names.count("model.build_lq") == names.count("cli.build_model") == 2


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
