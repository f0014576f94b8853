"""Call-graph guard for the benchmark's traced counts.

The benchmark (``bench/run.py``) wraps every public function with the span
tracer of ``bench/spans.py`` and requires the call counts of one
``solve`` + ``evaluate`` operation to satisfy the identities of its
``count_problems``.  This test runs the same tracer on a small LQ config,
so a change to the call graph fails here in about a second.
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


def test_traced_counts_follow_the_benchmark_identities(tmp_path):
    horizon = 4
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
