"""Acceptance suite: the externally checkable guarantees of the package.

Each test covers one acceptance criterion at its stated tolerance and prints
a single PASS/FAIL line; run ``pytest tests/test_acceptance.py -v -s`` to see
the lines as the criteria execute.
"""

import json
import time

import numpy as np

from riskdp.cli import main as cli_main
from riskdp.fixtures import (
    random_distribution,
    random_lq_model,
    random_stage_policy,
    random_tabular_model,
)
from riskdp.model import LQParams, build_lq
from riskdp.oracle import (
    avar_lp_oracle,
    exhaustive_policy_search,
    risk_neutral_dp,
    scenario_tree_value,
)
from riskdp.risk import (
    AVaR,
    DiscreteDistribution,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    avar_duals,
    avar_primal,
    evaluate,
    mean_deviation_duals,
    mean_deviation_primal,
)
from riskdp.solver import (
    Policy,
    assemble_epsilon_policy,
    backward_induct,
    epsilon_horizon,
    evaluate_policy,
    value_iterate,
)


def _report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


def random_outcome_pair(rng, max_atoms: int = 16, lo: float = -10.0, hi: float = 10.0):
    """Shared atom probabilities with two outcome vectors on them.

    Returns ``(probs, x, y)``; pairing outcomes on common atoms makes
    pointwise mixtures and comparisons well defined.
    """
    k = int(rng.integers(2, max_atoms + 1))
    probs = rng.uniform(0.05, 1.0, size=k)
    probs /= probs.sum()
    x = rng.uniform(lo, hi, size=k)
    y = rng.uniform(lo, hi, size=k)
    return probs, x, y


def test_01_risk_axiom_suite():
    rng = np.random.default_rng(11)
    specs = (
        [Expectation()]
        + [AVaR(a / 10.0) for a in range(10)]
        + [MeanDeviation(k) for k in (0.0, 0.25, 0.5)]
        + [
            KusuokaMixture(((0.0, 0.5), (0.5, 0.5))),
            KusuokaMixture(((0.1, 0.3), (0.3, 0.4), (0.7, 0.3))),
            KusuokaMixture(((0.9, 1.0),)),
        ]
    )
    lams = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        probs, x, y = random_outcome_pair(rng, max_atoms=16)
        shift = float(rng.uniform(-5.0, 5.0))
        scale = float(rng.uniform(0.0, 3.0))
        bump = rng.uniform(0.0, 4.0, size=len(x))
        dx = DiscreteDistribution(x, probs)
        dy = DiscreteDistribution(y, probs)
        mixes = [DiscreteDistribution(lam * x + (1 - lam) * y, probs) for lam in lams]
        d_above = DiscreteDistribution(x + bump, probs)
        d_shift = DiscreteDistribution(x + shift, probs)
        d_scale = DiscreteDistribution(scale * x, probs)
        for spec in specs:
            rx = evaluate(spec, dx)
            ry = evaluate(spec, dy)
            # convexity in outcomes, at five mixture weights
            for lam, dmix in zip(lams, mixes):
                worst = max(worst, evaluate(spec, dmix) - (lam * rx + (1 - lam) * ry))
            # monotonicity, translation, positive homogeneity
            worst = max(worst, rx - evaluate(spec, d_above))
            worst = max(worst, abs(evaluate(spec, d_shift) - (rx + shift)))
            worst = max(worst, abs(evaluate(spec, d_scale) - scale * rx))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        "01 risk-axiom suite",
        ok,
        f"1000 distributions x {len(specs)} functionals: worst axiom violation "
        f"{worst:.3e} (tol 1e-9) in {elapsed:.2f}s (budget 5s)",
    )


def test_02_primal_dual_vertex_agreement():
    rng = np.random.default_rng(22)
    worst = 0.0
    checks = 0
    start = time.perf_counter()
    for _ in range(500):
        dist = random_distribution(rng, max_atoms=10)
        for alpha in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
            primal = avar_primal(alpha, dist)
            dual, _ = avar_duals((alpha,), dist)[0]
            vertex = avar_lp_oracle(alpha, dist)
            worst = max(worst, abs(primal - dual), abs(primal - vertex))
            checks += 1
        for kappa in (0.0, 0.25, 0.5):
            primal = mean_deviation_primal(kappa, dist)
            dual, _ = mean_deviation_duals((kappa,), dist)[0]
            worst = max(worst, abs(primal - dual))
            checks += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        "02 primal/dual/vertex agreement",
        ok,
        f"500 distributions, {checks} comparisons: worst gap {worst:.3e} "
        f"(tol 1e-9) in {elapsed:.2f}s (budget 5s)",
    )


def test_03_deviation_penalty_monotone_only_up_to_half():
    rng = np.random.default_rng(33)
    # at or below the coherence boundary: no violations on ordered pairs
    violations = 0
    for _ in range(1000):
        probs, x, _ = random_outcome_pair(rng, max_atoms=16)
        bump = rng.uniform(0.0, 4.0, size=len(x)) * rng.integers(0, 2, size=len(x))
        lo = DiscreteDistribution(x, probs)
        hi = DiscreteDistribution(x + bump, probs)
        for kappa in (0.0, 0.25, 0.5):
            if mean_deviation_primal(kappa, lo) > mean_deviation_primal(kappa, hi) + 1e-9:
                violations += 1

    # a doubled penalty loses monotonicity: random search finds a witness.
    # The guarded constructor refuses kappa > 1/2, so the raw formula is
    # evaluated inline.
    def raw_deviation_value(values, probs, kappa):
        mean = np.sum(values * probs, axis=1, keepdims=True)
        dev = np.sum(np.abs(values - mean) * probs, axis=1)
        return mean[:, 0] + kappa * dev

    found = None
    trials = 0
    chunk = 2000
    while trials < 100_000 and found is None:
        k = 6
        values = rng.uniform(-5.0, 5.0, size=(chunk, k))
        probs = rng.uniform(0.05, 1.0, size=(chunk, k))
        probs /= probs.sum(axis=1, keepdims=True)
        bumps = rng.uniform(0.0, 3.0, size=(chunk, k)) * rng.integers(
            0, 2, size=(chunk, k)
        )
        gap = raw_deviation_value(values + bumps, probs, 1.0) - raw_deviation_value(
            values, probs, 1.0
        )
        bad = np.flatnonzero(gap < -1e-9)
        if len(bad):
            found = trials + int(bad[0]) + 1
        trials += chunk
    ok = violations == 0 and found is not None
    _report(
        "03 deviation-penalty monotonicity boundary",
        ok,
        f"{violations} violations at kappa <= 1/2 over 1000 ordered pairs; "
        f"kappa = 1 witness found at trial {found} (budget 100000)",
    )


def test_04_dp_matches_exhaustive_policy_search():
    rng = np.random.default_rng(44)
    risks = (Expectation(), AVaR(0.3), MeanDeviation(0.4))
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        model = random_tabular_model(rng)
        for risk in risks:
            dp_values, _ = backward_induct(model, risk, 3)
            best, _ = exhaustive_policy_search(model, risk, 3)
            worst = max(worst, float(np.max(np.abs(dp_values[0] - best))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(
        "04 dp vs exhaustive search",
        ok,
        f"50 tabular models x 3 functionals at depth 3: worst gap {worst:.3e} "
        f"(tol 1e-9) in {elapsed:.2f}s (budget 30s)",
    )


def test_05_nested_evaluation_matches_scenario_trees():
    rng = np.random.default_rng(55)
    risks = (
        Expectation(),
        AVaR(0.3),
        MeanDeviation(0.4),
        KusuokaMixture(((0.0, 0.5), (0.5, 0.5))),
    )
    worst = 0.0
    checks = 0
    for trial in range(50):
        model = random_tabular_model(rng) if trial % 2 == 0 else random_lq_model(rng)
        depth = int(rng.integers(0, 6))
        policy = random_stage_policy(rng, model, depth + 1)
        risk = risks[trial % len(risks)]
        w = evaluate_policy(model, risk, policy, depth)
        for i in range(model.n_states):
            tree = scenario_tree_value(model, risk, policy, depth, i)
            worst = max(worst, abs(tree - w[i]))
            checks += 1
    ok = worst <= 1e-9
    _report(
        "05 nested evaluation vs scenario trees",
        ok,
        f"50 seeded (model, policy) pairs at depths <= 5, {checks} states: "
        f"worst gap {worst:.3e} (tol 1e-9)",
    )


def test_06_monotone_value_iteration(lq_fixture):
    risk = AVaR(0.5)
    start = time.perf_counter()
    finite = [backward_induct(lq_fixture, risk, n)[0][0] for n in range(11)]
    horizon_mono = all(
        np.all(later >= earlier - 1e-12) for earlier, later in zip(finite, finite[1:])
    )
    report = value_iterate(lq_fixture, risk, 1e-6, 100)
    elapsed = time.perf_counter() - start
    factor = lq_fixture.discount / (1.0 - lq_fixture.discount)
    stop_ok = (
        report.converged
        and report.sweeps < 100
        and report.residuals[-1] * factor < 1e-6
    )
    sweeps_mono = all(
        np.all(later >= earlier - 1e-12)
        for earlier, later in zip(
            report.values_per_iteration, report.values_per_iteration[1:]
        )
    )
    ok = horizon_mono and stop_ok and sweeps_mono and elapsed < 5.0
    _report(
        "06 monotone value iteration",
        ok,
        f"horizons 0..10 pointwise nondecreasing: {horizon_mono}; converged in "
        f"{report.sweeps} sweeps with residual*beta/(1-beta) = "
        f"{report.residuals[-1] * factor:.3e} < 1e-6; {elapsed:.2f}s (budget 5s)",
    )


def test_07_assembled_policy_is_epsilon_optimal(lq_fixture):
    risk = AVaR(0.5)
    epsilon = 0.1
    v_star = value_iterate(lq_fixture, risk, 1e-9, 200).converged_value
    worst_state = max(abs(lq_fixture.grid.lo), abs(lq_fixture.grid.hi))
    sigma = 1.0
    c_bar = 2.0 * worst_state**2 + 2.0 * sigma**2 * risk.cap()
    n0, tail = epsilon_horizon(c_bar, lq_fixture.discount, epsilon)
    _, stage_rules = backward_induct(lq_fixture, risk, n0)
    zero_action = int(np.argmin(np.abs(lq_fixture.actions.values)))
    base = np.full(lq_fixture.n_states, zero_action)
    policy = assemble_epsilon_policy(stage_rules, base)
    w = evaluate_policy(lq_fixture, risk, policy, n0 + 40)
    gap = float(np.max(np.abs(w - v_star)))
    ok = gap <= epsilon
    _report(
        "07 epsilon-optimal assembly",
        ok,
        f"cost bound {c_bar:.1f} gives horizon {n0} (tail {tail:.3e}); assembled "
        f"policy within {gap:.3e} of the converged values everywhere "
        f"(epsilon {epsilon})",
    )


def test_08_wealth_anchor_geometric_value(investment_fixture):
    zero_action = int(np.argmin(np.abs(investment_fixture.actions.values)))
    policy = Policy(stages=(), tail=np.full(investment_fixture.n_states, zero_action))
    x0 = investment_fixture.grid.nearest_index(1.0)
    target = 1.0 / (1.0 - investment_fixture.discount)
    errs = {}
    for risk in (Expectation(), AVaR(0.5)):
        w = evaluate_policy(investment_fixture, risk, policy, 200)
        errs[type(risk).__name__] = abs(float(w[x0]) - target)
    err = max(errs.values())
    ok = err <= 1e-6
    _report(
        "08 wealth anchor",
        ok,
        f"all-cash policy from wealth 1 at discount 0.9, horizon 200: value "
        f"within {err:.3e} of {target} (tol 1e-6, risk-independent)",
    )


def test_09_quadratic_zero_policy_within_admissibility_bound():
    params = LQParams(
        sigma=1.0,
        action_bound=2.0,
        x_lo=-8.0,
        x_hi=8.0,
        grid_points=161,
        n_actions=9,
        noise_atoms=5,
    )
    model = build_lq(params, 0.5)
    risk = AVaR(0.5)
    zero_action = int(np.argmin(np.abs(model.actions.values)))
    policy = Policy(stages=(), tail=np.full(model.n_states, zero_action))
    w = evaluate_policy(model, risk, policy, 60)
    value = float(w[model.grid.nearest_index(1.0)])
    x0 = 1.0
    bound = 2.0 * x0**2 + 2.0 * params.sigma**2 * risk.cap() / (1.0 - 0.5)
    ok = value <= bound
    _report(
        "09 quadratic zero-policy bound",
        ok,
        f"nested value from state 1 over 60 stages is {value:.4f} <= "
        f"admissibility bound {bound:.1f}",
    )


def test_10_expectation_reduces_to_risk_neutral_dp(
    lq_fixture, investment_fixture, two_state_model
):
    worst = 0.0
    rules_equal = True
    for model in (lq_fixture, investment_fixture, two_state_model):
        horizon = 6
        neutral_values, neutral_rules = backward_induct(model, Expectation(), horizon)
        level0_values, level0_rules = backward_induct(model, AVaR(0.0), horizon)
        reference = risk_neutral_dp(model, horizon)
        worst = max(worst, float(np.max(np.abs(neutral_values[0] - reference))))
        worst = max(
            worst,
            max(
                float(np.max(np.abs(a - b)))
                for a, b in zip(neutral_values, level0_values)
            ),
        )
        rules_equal = rules_equal and all(
            np.array_equal(a, b) for a, b in zip(neutral_rules, level0_rules)
        )
    ok = worst <= 1e-9 and rules_equal
    _report(
        "10 risk-neutral degeneracy",
        ok,
        f"expectation DP vs independent reference and vs level-0 tail average "
        f"on all fixtures: worst gap {worst:.3e} (tol 1e-9), rules identical: "
        f"{rules_equal}",
    )


def test_11_risk_aversion_monotone_in_level(tmp_path):
    config = {
        "model": {
            "lq": {
                "sigma": 1.0,
                "action_bound": 2.0,
                "x_lo": -3.0,
                "x_hi": 3.0,
                "grid_points": 41,
                "n_actions": 9,
                "noise_atoms": 5,
            }
        },
        "risk": {"kind": "avar", "alpha": 0.5},
        "discount": 0.5,
        "output_dir": "out",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = cli_main(
        [
            "sweep",
            "-c",
            str(path),
            "--param",
            "alpha",
            "--values",
            "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        ]
    )
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()[1:]
    values = [float(line.split(",")[1]) for line in lines]
    mono = all(later >= earlier - 1e-12 for earlier, later in zip(values, values[1:]))
    ok = code == 0 and len(values) == 10 and mono
    _report(
        "11 risk-aversion monotonicity",
        ok,
        f"swept tail level 0..0.9: reference-state value rises from "
        f"{values[0]:.4f} to {values[-1]:.4f}, nondecreasing: {mono} "
        f"(slack 1e-12), exit code {code}",
    )
