"""JSON-configured command line driver.

Subcommands:

- ``solve``: value iteration plus near-optimal policy assembly; writes
  ``report.json``, ``values.csv``, ``policy.csv``.
- ``evaluate``: nested value of a policy read back from ``policy.csv``;
  writes ``values.csv``.
- ``verify``: seeded agreement suites between the solver/risk evaluators
  and the independent oracles; writes a counterexample on mismatch.
- ``sweep``: re-solve across risk-parameter values; writes ``sweep.csv``.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 solver non-convergence, 4 I/O error.  Identical configurations and seeds
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields
from typing import Iterator, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .fixtures import (
    random_distribution,
    random_lq_model,
    random_stage_policy,
    random_tabular_model,
)
from .model import (
    InvestmentParams,
    LQParams,
    MarkovModel,
    build_investment,
    build_lq,
    build_tabular,
)
from .oracle import (
    BudgetExceededError,
    avar_lp_oracle,
    exhaustive_policy_search,
    risk_neutral_dp,
    scenario_tree_value,
)
from .risk import (
    AVaR,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    RiskSpec,
    avar_dual,
    avar_primal,
    density_cap,
    mean_deviation_dual,
    mean_deviation_primal,
)
from .solver import (
    MonotonicityError,
    Policy,
    assemble_epsilon_policy,
    backward_induct,
    epsilon_horizon,
    evaluate_policy,
    value_iterate,
)

__all__ = ["ConfigError", "RunConfig", "main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

CONFIG_KEYS = {
    "model",
    "risk",
    "discount",
    "epsilon",
    "tolerance",
    "max_sweeps",
    "horizon",
    "seed",
    "output_dir",
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass
class RunConfig:
    """Validated run configuration with defaults applied."""

    model_kind: str
    model_spec: object
    risk: RiskSpec
    discount: float
    epsilon: float
    tolerance: float
    max_sweeps: int
    horizon: int
    seed: int
    output_dir: str

    def resolved(self) -> dict:
        """JSON echo of the configuration, defaults included."""
        return {
            "model": {self.model_kind: self.model_spec},
            "risk": _risk_to_json(self.risk),
            "discount": self.discount,
            "epsilon": self.epsilon,
            "tolerance": self.tolerance,
            "max_sweeps": self.max_sweeps,
            "horizon": self.horizon,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }


def _risk_to_json(risk: RiskSpec) -> dict:
    """A risk spec's config form: its ``kind``, then its fields."""
    fields = dataclass_fields(risk)
    return {"kind": risk.kind, **{f.name: getattr(risk, f.name) for f in fields}}


def _parse_risk(doc) -> RiskSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("config.risk: expected an object with a 'kind' field")
    kind = doc["kind"]
    # a list or dict ``kind`` is unhashable, so test the type before the lookup
    cls = RISKS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"config.risk.kind: unknown kind {kind!r}")
    fields = get_type_hints(cls)
    _reject_extra(doc, {"kind", *fields}, "config.risk")
    try:
        args = {}
        for name, caster in fields.items():
            if caster is float:
                args[name] = _field(doc, name, float, where="config.risk")
            else:
                # the mixture's (level, weight) pairs, not read by ``_field``,
                # which would prefix the ConfigError of ``_finite`` again
                where = f"config.risk.{name}"
                args[name] = tuple(
                    (_finite(float(a), f"{where}[{k}]"), _finite(float(w), f"{where}[{k}]"))
                    for k, (a, w) in enumerate(doc[name])
                )
        return cls(**args)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config.risk: {exc}") from exc


def _reject_extra(doc: dict, allowed: set, where: str):
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {sorted(extra)}")


def _finite(value, where: str):
    """``value`` itself, or a ConfigError naming ``where`` for a NaN or an
    infinite float (which Python's JSON parser accepts)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return value


def _field(doc: dict, key: str, caster, default=None, where: str = "config"):
    if key not in doc:
        if default is None:
            raise ConfigError(f"{where}.{key}: required field is missing")
        return default
    try:
        value = caster(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc
    return _finite(value, f"{where}.{key}")


#: risk class of each config ``kind``; the config fields, their order and
#: their types are the class's annotated fields
RISKS = {cls.kind: cls for cls in (Expectation, AVaR, MeanDeviation, KusuokaMixture)}

#: parameter class and builder of each parametric model kind; the config
#: fields, their order and their types are the class's annotated fields.  The
#: builder is looked up by name when called, so a rebinding of it (the
#: benchmark's span tracer rebinds every public function) is honoured.
MODELS = {"lq": (LQParams, "build_lq"), "investment": (InvestmentParams, "build_investment")}


def _parse_model(doc, config_dir: str):
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ConfigError(
            "config.model: expected exactly one of 'lq', 'investment', 'tabular'"
        )
    kind, spec = next(iter(doc.items()))
    if kind == "tabular":
        if not isinstance(spec, str):
            raise ConfigError("config.model.tabular: expected a file path")
        path = spec if os.path.isabs(spec) else os.path.join(config_dir, spec)
        return kind, path
    if kind not in MODELS:
        raise ConfigError(f"config.model: unknown model kind {kind!r}")
    if not isinstance(spec, dict):
        raise ConfigError(f"config.model.{kind}: expected an object")
    fields = get_type_hints(MODELS[kind][0])
    _reject_extra(spec, set(fields), f"config.model.{kind}")
    parsed = {
        name: _field(spec, name, caster, where=f"config.model.{kind}")
        for name, caster in fields.items()
    }
    return kind, parsed


def parse_config(doc: dict, config_dir: str = ".") -> RunConfig:
    """Validate a configuration document and apply defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    _reject_extra(doc, CONFIG_KEYS, "config")
    if "model" not in doc:
        raise ConfigError("config.model: required field is missing")
    if "risk" not in doc:
        raise ConfigError("config.risk: required field is missing")
    model_kind, model_spec = _parse_model(doc["model"], config_dir)
    risk = _parse_risk(doc["risk"])
    discount = _field(doc, "discount", float, where="config")
    if not (0.0 < discount < 1.0):
        raise ConfigError(f"config.discount: must lie in (0, 1), got {discount!r}")
    epsilon = _field(doc, "epsilon", float, default=0.1, where="config")
    if epsilon <= 0.0:
        raise ConfigError(f"config.epsilon: epsilon must be positive, got {epsilon!r}")
    tolerance = _field(doc, "tolerance", float, default=1e-8, where="config")
    if tolerance <= 0.0:
        raise ConfigError(f"config.tolerance: must be positive, got {tolerance!r}")
    max_sweeps = _field(doc, "max_sweeps", int, default=500, where="config")
    if max_sweeps < 1:
        raise ConfigError(f"config.max_sweeps: must be at least 1, got {max_sweeps!r}")
    horizon = _field(doc, "horizon", int, default=3, where="config")
    if horizon < 0:
        raise ConfigError(f"config.horizon: must be nonnegative, got {horizon!r}")
    seed = _field(doc, "seed", int, default=0, where="config")
    output_dir = _field(doc, "output_dir", str, default="out", where="config")
    if not os.path.isabs(output_dir):
        output_dir = os.path.join(config_dir, output_dir)
    return RunConfig(
        model_kind=model_kind,
        model_spec=model_spec,
        risk=risk,
        discount=discount,
        epsilon=epsilon,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
        horizon=horizon,
        seed=seed,
        output_dir=output_dir,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a configuration file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    return parse_config(doc, config_dir=os.path.dirname(os.path.abspath(path)))


def _load_tabular_file(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read model file {path!r}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"model file {path!r}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"model file {path!r}: expected a JSON object")
    for key in ("states", "actions", "kernel", "costs"):
        if key not in doc:
            raise ConfigError(f"model file {path!r}: missing field {key!r}")
    _reject_extra(doc, {"states", "actions", "kernel", "costs"}, f"model file {path!r}")
    kernel = np.asarray(doc["kernel"], dtype=float)
    costs = np.asarray(doc["costs"], dtype=float)
    n, m = int(doc["states"]), int(doc["actions"])
    if kernel.shape != (n, m, n):
        raise ConfigError(
            f"model file {path!r}: kernel shape {kernel.shape} does not match "
            f"{n} states and {m} actions"
        )
    if costs.shape != (n, m):
        raise ConfigError(
            f"model file {path!r}: costs shape {costs.shape} does not match "
            f"{n} states and {m} actions"
        )
    return kernel, costs


def build_model(config: RunConfig) -> MarkovModel:
    """Instantiate the configured model."""
    try:
        if config.model_kind == "tabular":
            kernel, costs = _load_tabular_file(config.model_spec)
            return build_tabular(kernel, costs, config.discount)
        params, builder = MODELS[config.model_kind]
        return globals()[builder](params(**config.model_spec), config.discount)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config.model.{config.model_kind}: {exc}") from exc


def compute_c_bar(config: RunConfig, model: MarkovModel, risk: RiskSpec) -> float:
    """Uniform per-stage cost bound used for the horizon selection.

    The linear-quadratic bound doubles the worst squared state and adds the
    dual-cap-scaled noise second moment; the other models use their largest
    stage cost (the wealth model's is the grid top, its cost being wealth).
    """
    if config.model_kind == "lq":
        worst = max(abs(model.grid.lo), abs(model.grid.hi))
        sigma = float(config.model_spec["sigma"])
        try:
            c_bar = 2.0 * worst ** 2 + 2.0 * sigma ** 2 * density_cap(risk)
        except OverflowError:
            c_bar = math.inf
        if not math.isfinite(c_bar):
            raise ConfigError(
                "config.model.lq: the stage-cost bound 2 * x**2 + 2 * sigma**2 * cap "
                "overflows; sigma or the grid bounds are too large"
            )
        return c_bar
    return float(np.nanmax(model.cost_table))


def reference_state_index(config: RunConfig, model: MarkovModel) -> int:
    """Grid index reported as the representative initial state: the grid
    point nearest unit wealth for the wealth model, nearest zero otherwise
    (a tabular model's state 0)."""
    return model.grid.nearest_index(1.0 if config.model_kind == "investment" else 0.0)


def base_stationary_rule(model: MarkovModel) -> np.ndarray:
    """Stationary tail rule: at every state, the admissible action closest
    to zero (lowest index on ties)."""
    # the cost table is NaN exactly at the inadmissible pairs
    magnitudes = np.abs(model.actions.values)
    return np.where(np.isnan(model.cost_table), np.inf, magnitudes).argmin(axis=1)


# ---------------------------------------------------------------------------
# deterministic writers and readers


def _fmt(x: float) -> str:
    return repr(float(x))


def write_values_csv(path: str, grid_points: np.ndarray, values: np.ndarray):
    lines = ["state,value"]
    for x, v in zip(grid_points, values):
        lines.append(f"{_fmt(x)},{_fmt(v)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_policy_csv(path: str, model: MarkovModel, policy: Policy):
    """Rows (stage, state, action value); the stationary tail rule is
    written with stage -1."""
    lines = ["stage,state,action"]
    rules = list(enumerate(policy.stages))
    if policy.tail is not None:
        rules.append((-1, policy.tail))
    for stage, rule in rules:
        for i, x in enumerate(model.grid.points):
            a = float(model.actions.values[int(rule[i])])
            lines.append(f"{stage},{_fmt(float(x))},{_fmt(a)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_policy_csv(path: str, model: MarkovModel) -> Policy:
    """Rebuild a policy written by ``write_policy_csv``, checking that the
    states and actions match the configured model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read policy file {path!r}: {exc}") from exc
    if not lines or lines[0].strip() != "stage,state,action":
        raise ConfigError(f"policy file {path!r}: expected header 'stage,state,action'")
    staged: dict = {}
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"policy file {path!r} line {ln}: expected 3 columns")
        try:
            stage = int(parts[0])
            state = float(parts[1])
            action = float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"policy file {path!r} line {ln}: {exc}") from exc
        staged.setdefault(stage, []).append((state, action))

    def to_rule(rows, stage):
        if len(rows) != model.n_states:
            raise ConfigError(
                f"policy file {path!r}: stage {stage} covers {len(rows)} states, "
                f"model has {model.n_states}"
            )
        states, actions = np.array(rows).T
        # a NaN, or the inf of a difference that overflows, matches nothing
        with np.errstate(over="ignore"):
            state_ok = np.abs(states - model.grid.points) <= 1e-9
            matches = np.abs(actions[:, None] - model.actions.values) <= 1e-12
        # the first bad row, or row 0 if none is
        i = int((state_ok & matches.any(axis=1)).argmin())
        if not state_ok[i]:
            raise ConfigError(
                f"policy file {path!r}: stage {stage} row {i} has state "
                f"{rows[i][0]!r}, expected grid point {float(model.grid.points[i])!r}"
            )
        if not matches[i].any():
            raise ConfigError(
                f"policy file {path!r}: stage {stage} row {i} action "
                f"{rows[i][1]!r} is not in the model's action set"
            )
        return matches.argmax(axis=1)

    tail = None
    if -1 in staged:
        tail = to_rule(staged.pop(-1), -1)
    stages = sorted(staged)
    if stages != list(range(len(stages))):
        raise ConfigError(f"policy file {path!r}: stages must be contiguous from 0")
    rules = tuple(to_rule(staged[s], s) for s in stages)
    if not rules and tail is None:
        raise ConfigError(f"policy file {path!r}: no decision rules found")
    return Policy(stages=rules, tail=tail)


def _strict_json(doc):
    """``doc`` with each non-finite float as a string, ``"NaN"``,
    ``"Infinity"`` or ``"-Infinity"``: JSON has no number for them."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else json.dumps(doc)
    if isinstance(doc, dict):
        return {key: _strict_json(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict_json(value) for value in doc]
    return doc


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _ensure_output_dir(config: RunConfig) -> str:
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        probe = os.path.join(config.output_dir, ".write-probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"cannot write to output directory {config.output_dir!r}: {exc}") from exc
    return config.output_dir


# ---------------------------------------------------------------------------
# commands


def cmd_solve(config: RunConfig) -> int:
    model = build_model(config)
    out_dir = _ensure_output_dir(config)
    report = value_iterate(model, config.risk, config.tolerance, config.max_sweeps)
    if not report.converged:
        print(
            f"error: value iteration did not converge in {config.max_sweeps} sweeps "
            f"(last residual {report.residuals[-1]!r})",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    c_bar = compute_c_bar(config, model, config.risk)
    n0, tail = epsilon_horizon(c_bar, config.discount, config.epsilon)
    _, stage_rules = backward_induct(model, config.risk, n0)
    policy = assemble_epsilon_policy(stage_rules, base_stationary_rule(model))
    report.horizon = n0
    report.epsilon = config.epsilon
    report.tail_bound = tail
    report.policy = policy

    doc = {
        "config": config.resolved(),
        "c_bar": c_bar,
        "reference_state_index": reference_state_index(config, model),
        "grid": model.grid.points.tolist(),
        "actions": model.actions.values.tolist(),
        "report": report.to_dict(),
    }
    _write_json(os.path.join(out_dir, "report.json"), doc)
    write_values_csv(
        os.path.join(out_dir, "values.csv"), model.grid.points, report.converged_value
    )
    write_policy_csv(os.path.join(out_dir, "policy.csv"), model, policy)
    print(
        f"solve: converged in {report.sweeps} sweeps; horizon {n0}; "
        f"outputs in {out_dir}"
    )
    return EXIT_OK


def cmd_evaluate(config: RunConfig, policy_path: str) -> int:
    model = build_model(config)
    out_dir = _ensure_output_dir(config)
    policy = read_policy_csv(policy_path, model)
    try:
        values = evaluate_policy(model, config.risk, policy, config.horizon)
    except ValueError as exc:
        raise ConfigError(f"policy file {policy_path!r}: {exc}") from exc
    write_values_csv(os.path.join(out_dir, "values.csv"), model.grid.points, values)
    print(f"evaluate: horizon {config.horizon}; outputs in {out_dir}")
    return EXIT_OK


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


def _tail_average_cases(rng, cap_scale: float):
    for _ in range(200):
        dist = random_distribution(rng, max_atoms=10)
        atoms = dist.atoms
        for alpha in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
            primal = avar_primal(alpha, dist)
            dual, density = avar_dual(alpha, dist)
            try:
                vertex = avar_lp_oracle(alpha, dist, cap_scale=cap_scale)
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
        dist = random_distribution(rng, max_atoms=10)
        atoms = dist.atoms
        for kappa in (0.0, 0.25, 0.5):
            primal = mean_deviation_primal(kappa, dist)
            dual, density = mean_deviation_dual(kappa, dist)
            err = _largest(abs(primal - dual), abs(density.mass(dist) - 1.0))
            yield err, {"kappa": kappa, "atoms": atoms, "primal": primal, "dual": dual}


def _dp_vs_exhaustive_cases(rng, depth: int):
    for _ in range(10):
        model = random_tabular_model(rng)
        for risk in (Expectation(), AVaR(0.3), MeanDeviation(0.4)):
            instance = {
                "risk": _risk_to_json(risk),
                "kernel": model.transition.kernel.tolist(),
                "costs": model.cost_table.tolist(),
                "depth": depth,
            }
            # the search first, so an oversized depth fails its budget at
            # once instead of after a backward induction over every stage
            try:
                best, _ = exhaustive_policy_search(model, risk, depth)
            except BudgetExceededError:
                raise
            except RuntimeError as exc:
                # the search's own scenario-tree spot-check disagreed
                yield math.inf, {**instance, "error": str(exc)}
                continue
            dp_values, _ = backward_induct(model, risk, depth)
            err = float(np.max(np.abs(dp_values[0] - best)))
            yield err, {**instance, "dp": dp_values[0].tolist(), "exhaustive": best.tolist()}


def _tree_vs_policy_evaluation_cases(rng):
    risks = (Expectation(), AVaR(0.3), MeanDeviation(0.4), KusuokaMixture(((0.0, 0.5), (0.5, 0.5))))
    for trial in range(10):
        model = random_tabular_model(rng) if trial % 2 == 0 else random_lq_model(rng)
        depth = int(rng.integers(0, 4))
        policy = random_stage_policy(rng, model, depth + 1)
        risk = risks[trial % len(risks)]
        w = evaluate_policy(model, risk, policy, depth)
        stages = [r.tolist() for r in policy.stages]
        for i in range(model.n_states):
            err = abs(scenario_tree_value(model, risk, policy, depth, i) - w[i])
            yield err, {
                "risk": _risk_to_json(risk),
                "depth": depth,
                "state_index": i,
                "stages": stages,
            }


def _risk_neutral_cases(rng):
    horizon = 4
    for _ in range(10):
        model = random_tabular_model(rng)
        neutral, _ = backward_induct(model, Expectation(), horizon)
        level_zero, _ = backward_induct(model, AVaR(0.0), horizon)
        reference = risk_neutral_dp(model, horizon)
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


def cmd_verify(config: RunConfig, cap_scale: float = 1.0) -> int:
    out_dir = _ensure_output_dir(config)
    try:
        results = run_verification_suites(config.seed, config.horizon, cap_scale)
    except BudgetExceededError as exc:
        print(f"error: config.horizon: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  checks={r.checks:<5d} max_error={r.max_error:.3e}  {status}")
    failed = [r for r in results if not r.passed]
    if failed:
        path = os.path.join(out_dir, "counterexample.json")
        _write_json(
            path,
            {"suite": failed[0].name, "instance": failed[0].counterexample},
        )
        print(f"error: {len(failed)} suite(s) failed; counterexample in {path}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_sweep(config: RunConfig, param: str, values: Sequence[float]) -> int:
    if param not in ("alpha", "kappa"):
        raise ConfigError(f"sweep parameter must be 'alpha' or 'kappa', got {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one parameter value")
    model = build_model(config)
    out_dir = _ensure_output_dir(config)
    x0 = reference_state_index(config, model)
    rows: List[Tuple[float, float, int, int]] = []
    for v in values:
        try:
            risk = AVaR(v) if param == "alpha" else MeanDeviation(v)
        except ValueError as exc:
            raise ConfigError(f"sweep value {v!r}: {exc}") from exc
        report = value_iterate(model, risk, config.tolerance, config.max_sweeps)
        if not report.converged:
            print(
                f"error: value iteration did not converge at {param}={v!r}",
                file=sys.stderr,
            )
            return EXIT_NO_CONVERGENCE
        c_bar = compute_c_bar(config, model, risk)
        n0, _ = epsilon_horizon(c_bar, config.discount, config.epsilon)
        rows.append((v, float(report.converged_value[x0]), n0, report.sweeps))

    lines = ["param,value,N0,sweeps"]
    for v, value, n0, sweeps in rows:
        lines.append(f"{_fmt(v)},{_fmt(value)},{n0},{sweeps}")
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    if param == "alpha" and sorted(values) == list(values):
        for (lo_v, lo_val, _, _), (hi_v, hi_val, _, _) in zip(rows, rows[1:]):
            if hi_val < lo_val - 1e-12:
                print(
                    f"error: reference value decreased from {param}={lo_v!r} "
                    f"({lo_val!r}) to {param}={hi_v!r} ({hi_val!r})",
                    file=sys.stderr,
                )
                return EXIT_VERIFICATION
    print(f"sweep: {len(rows)} solves; outputs in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdp",
        description="risk-averse dynamic programming on finite grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="value iteration plus policy assembly")
    solve.add_argument("-c", "--config", required=True, help="JSON configuration file")

    evaluate = sub.add_parser("evaluate", help="nested value of a stored policy")
    evaluate.add_argument("-c", "--config", required=True, help="JSON configuration file")
    evaluate.add_argument("-p", "--policy", required=True, help="policy.csv to evaluate")

    verify = sub.add_parser("verify", help="oracle agreement suites")
    verify.add_argument("-c", "--config", required=True, help="JSON configuration file")
    verify.add_argument("--corrupt-cap", type=float, default=1.0, help=argparse.SUPPRESS)

    sweep = sub.add_parser("sweep", help="re-solve across risk parameter values")
    sweep.add_argument("-c", "--config", required=True, help="JSON configuration file")
    sweep.add_argument("--param", required=True, choices=("alpha", "kappa"))
    sweep.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        config = load_config(args.config)
        try:
            if args.command == "solve":
                return cmd_solve(config)
            if args.command == "evaluate":
                return cmd_evaluate(config, args.policy)
            if args.command == "verify":
                return cmd_verify(config, cap_scale=args.corrupt_cap)
            if args.command == "sweep":
                try:
                    values = [float(v) for v in args.values.split(",") if v.strip()]
                except ValueError as exc:
                    raise ConfigError(f"--values: {exc}") from exc
                return cmd_sweep(config, args.param, values)
            raise ConfigError(f"unknown command {args.command!r}")
        except OverflowError as exc:  # a sweep's values left the float range
            raise ConfigError(f"config.model.{config.model_kind}: {exc}") from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MonotonicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
