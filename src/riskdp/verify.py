"""Seeded agreement suites between the solver and risk evaluators and the
independent oracles: the work of ``riskdp verify``.

Of the commands, only ``verify`` imports this module, and with it
``riskdp.oracle`` and ``riskdp.fixtures``, so ``solve``, ``evaluate`` and
``sweep`` start without them.  Every risk, solver, oracle and fixture
function is called through its module (``risk.avar_primal``,
``oracle.avar_lp_oracle``), never through a name imported from it.  A
tool that rebinds module-level functions, such as the benchmark's span
tracer, then sees each call, also when this module is first imported while
one such rebinding is in place and run again under the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import fixtures, oracle, risk, solver
from .cli import _risk_to_json
from .risk import AVaR, Expectation, KusuokaMixture, MeanDeviation

__all__ = [
    "AGREEMENT_TOL",
    "DEVIATION_KAPPAS",
    "SuiteResult",
    "TAIL_LEVELS",
    "run_verification_suites",
]


@dataclass
class SuiteResult:
    name: str
    checks: int
    max_error: float
    passed: bool
    counterexample: Optional[dict] = None


#: largest disagreement between two routes that a verify check accepts
AGREEMENT_TOL = 1e-9


def _run_suite(name: str, cases: Iterator[Tuple[float, dict]]) -> SuiteResult:
    """Tally one suite's ``(error, instance)`` checks.

    The suite fails at the first error that is not within ``AGREEMENT_TOL``
    (a NaN included), with that instance as the counterexample; the rest of
    ``cases`` is never drawn.
    """
    worst = 0.0
    checks = 0
    for err, instance in cases:
        checks += 1
        if not err <= AGREEMENT_TOL:
            return SuiteResult(name, checks, float(err), False, instance)
        worst = max(worst, float(err))
    return SuiteResult(name, checks, worst, True)


def _largest(*errors: float) -> float:
    """The largest of the nonnegative ``errors``, NaN if any is NaN: ``max``
    alone may skip a NaN, a sum never does."""
    return math.nan if math.isnan(sum(errors)) else max(errors)


#: the levels and kappas each distribution of a risk-agreement suite is
#: checked at, in check order
TAIL_LEVELS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
DEVIATION_KAPPAS = (0.0, 0.25, 0.5)


def _tail_average_cases(rng, cap_scale: float):
    for _ in range(200):
        dist = fixtures.random_distribution(rng, max_atoms=10)
        atoms = dist.atoms
        # one dual pass per distribution; the primal and the vertex LP keep
        # one call per check, as the traced call counts of
        # ``bench/reference.json`` record them
        duals = risk.avar_duals(TAIL_LEVELS, dist)
        for alpha, (dual, density) in zip(TAIL_LEVELS, duals):
            primal = risk.avar_primal(alpha, dist)
            try:
                vertex = oracle.avar_lp_oracle(alpha, dist, cap_scale=cap_scale)
            except RuntimeError as exc:
                yield math.inf, {"alpha": alpha, "atoms": atoms, "error": str(exc)}
                continue
            err = _largest(
                abs(primal - dual), abs(primal - vertex), abs(density.mass(dist) - 1.0)
            )
            yield err, {
                "alpha": alpha,
                "atoms": atoms,
                "primal": primal,
                "dual": dual,
                "vertex_enumeration": vertex,
            }


def _mean_deviation_cases(rng):
    for _ in range(200):
        dist = fixtures.random_distribution(rng, max_atoms=10)
        atoms = dist.atoms
        duals = risk.mean_deviation_duals(DEVIATION_KAPPAS, dist)
        for kappa, (dual, density) in zip(DEVIATION_KAPPAS, duals):
            primal = risk.mean_deviation_primal(kappa, dist)
            err = _largest(abs(primal - dual), abs(density.mass(dist) - 1.0))
            yield err, {"kappa": kappa, "atoms": atoms, "primal": primal, "dual": dual}


def _dp_vs_exhaustive_cases(rng, depth: int):
    for _ in range(10):
        model = fixtures.random_tabular_model(rng)
        for spec in (Expectation(), AVaR(0.3), MeanDeviation(0.4)):
            instance = {
                "risk": _risk_to_json(spec),
                "kernel": model.transition.kernel.tolist(),
                "costs": model.cost_table.tolist(),
                "depth": depth,
            }
            # the search first, so an oversized depth fails its budget at
            # once instead of after a backward induction over every stage
            try:
                best, _ = oracle.exhaustive_policy_search(model, spec, depth)
            except oracle.BudgetExceededError:
                raise
            except RuntimeError as exc:
                # the search's own scenario-tree spot-check disagreed
                yield math.inf, {**instance, "error": str(exc)}
                continue
            dp_values, _ = solver.backward_induct(model, spec, depth)
            err = float(np.max(np.abs(dp_values[0] - best)))
            yield err, {**instance, "dp": dp_values[0].tolist(), "exhaustive": best.tolist()}


def _tree_vs_policy_evaluation_cases(rng):
    specs = (Expectation(), AVaR(0.3), MeanDeviation(0.4), KusuokaMixture(((0.0, 0.5), (0.5, 0.5))))
    for trial in range(10):
        if trial % 2 == 0:
            model = fixtures.random_tabular_model(rng)
        else:
            model = fixtures.random_lq_model(rng)
        depth = int(rng.integers(0, 4))
        policy = fixtures.random_stage_policy(rng, model, depth + 1)
        spec = specs[trial % len(specs)]
        w = solver.evaluate_policy(model, spec, policy, depth)
        stages = [r.tolist() for r in policy.stages]
        for i in range(model.n_states):
            err = abs(oracle.scenario_tree_value(model, spec, policy, depth, i) - w[i])
            yield err, {
                "risk": _risk_to_json(spec),
                "depth": depth,
                "state_index": i,
                "stages": stages,
            }


def _risk_neutral_cases(rng):
    horizon = 4
    for _ in range(10):
        model = fixtures.random_tabular_model(rng)
        neutral, _ = solver.backward_induct(model, Expectation(), horizon)
        level_zero, _ = solver.backward_induct(model, AVaR(0.0), horizon)
        reference = oracle.risk_neutral_dp(model, horizon)
        err = _largest(
            np.max(np.abs(neutral[0] - reference)),
            np.max(np.abs(neutral[0] - level_zero[0])),
        )
        yield err, {
            "kernel": model.transition.kernel.tolist(),
            "costs": model.cost_table.tolist(),
            "dp": neutral[0].tolist(),
            "reference": reference.tolist(),
        }


def run_verification_suites(
    seed: int, depth: int, cap_scale: float = 1.0
) -> List[SuiteResult]:
    """All oracle-agreement suites on instances seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    return [
        _run_suite("tail-average agreement", _tail_average_cases(rng, cap_scale)),
        _run_suite("mean-deviation agreement", _mean_deviation_cases(rng)),
        _run_suite("dp vs exhaustive search", _dp_vs_exhaustive_cases(rng, depth)),
        _run_suite(
            "policy evaluation vs scenario tree", _tree_vs_policy_evaluation_cases(rng)
        ),
        _run_suite("risk-neutral reference", _risk_neutral_cases(rng)),
    ]
