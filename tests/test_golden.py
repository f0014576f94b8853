"""Golden corpus: solver results recorded from the scalar per-pair path.

``golden_corpus.json`` holds, for each case below, the results of value
iteration, backward induction and policy evaluation, recorded once from the
scalar per-pair sweep at commit ``c45c6bc``.  The cases are the README's S
LQ config (41 x 9 x 5, discount 0.5) under each of the four risk kinds, an
investment model under a Kusuoka mixture (31 x 5 x 6, clamped at both grid
ends) and a tabular model with sparse rows under mean deviation.

Values are checked to 1e-12 and rules exactly, so a route that reorders
the arithmetic (a batched sweep moves values by ulps) passes and one that
changes a result does not.  The file is a reference: a change that fails it
is mended, and the file is not re-recorded to make it pass.
"""

import json
import os

import numpy as np
import pytest

from riskdp.cli import base_stationary_rule
from riskdp.model import InvestmentParams, LQParams, build_investment, build_lq, build_tabular
from riskdp.risk import AVaR, Expectation, KusuokaMixture, MeanDeviation
from riskdp.solver import assemble_epsilon_policy, backward_induct, evaluate_policy, value_iterate

CORPUS = os.path.join(os.path.dirname(__file__), "golden_corpus.json")
#: backward induction covers stages 0..STAGES; evaluation runs past them
#: onto the base rule
STAGES = 4
EVAL_HORIZON = 7
TOLERANCE = 1e-10
MIXTURE = KusuokaMixture(((0.0, 0.3), (0.5, 0.4), (0.9, 0.3)))


def s_lq():
    return build_lq(LQParams(1.0, 2.0, -3.0, 3.0, 41, 9, 5), 0.5)


def investment():
    return build_investment(InvestmentParams(0.35, 0.02, 0.2, 1.0, 0.0, 3.0, 31, 5, 6), 0.5)


def load_corpus() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def tabular():
    """The corpus's own 8 x 3 kernel, whose rows reach one to four states."""
    doc = load_corpus()["tabular-mean-deviation"]["model"]
    return build_tabular(doc["kernel"], doc["costs"], doc["discount"])


CASES = {
    "s-lq-expectation": (s_lq, Expectation()),
    "s-lq-avar": (s_lq, AVaR(0.5)),
    "s-lq-mean-deviation": (s_lq, MeanDeviation(0.3)),
    "s-lq-kusuoka": (s_lq, MIXTURE),
    "investment-kusuoka": (investment, MIXTURE),
    "tabular-mean-deviation": (tabular, MeanDeviation(0.4)),
}


def results(model, risk) -> dict:
    """Everything the corpus records for one model and risk kind."""
    report = value_iterate(model, risk, TOLERANCE, 500)
    stage_values, stage_rules = backward_induct(model, risk, STAGES)
    policy = assemble_epsilon_policy(stage_rules, base_stationary_rule(model))
    return {
        "sweeps": report.sweeps,
        "residuals": report.residuals,
        "values": report.converged_value.tolist(),
        "rule": report.stationary_policy.tolist(),
        "stage_values": [v.tolist() for v in stage_values],
        "stage_rules": [r.tolist() for r in stage_rules],
        "policy_values": evaluate_policy(model, risk, policy, EVAL_HORIZON).tolist(),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_reproduces_the_golden_corpus(name):
    build, risk = CASES[name]
    got, want = results(build(), risk), load_corpus()[name]["results"]
    assert got["sweeps"] == want["sweeps"]
    assert got["rule"] == want["rule"]
    assert got["stage_rules"] == want["stage_rules"]
    for key in ("residuals", "values", "stage_values", "policy_values"):
        np.testing.assert_allclose(got[key], want[key], rtol=0.0, atol=1e-12, err_msg=key)


def test_the_dynamics_cases_reach_both_grid_ends():
    """Successors of the dynamics cases reach both grid ends, so the corpus
    reads the bracket of the last grid point."""
    for model in (s_lq(), investment()):
        noise = model.transition.noise.dist.values.tolist()
        reached = {
            model.clamp(model.transition.next_state(x, a, xi))
            for x in model.grid.points.tolist()
            for a in model.actions.values.tolist()
            for xi in noise
        }
        assert model.grid.lo in reached and model.grid.hi in reached
