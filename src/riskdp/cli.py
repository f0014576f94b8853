"""JSON-configured command line driver.

Subcommands:

- ``solve``: value iteration plus near-optimal policy assembly; writes
  ``report.json``, ``values.csv``, ``policy.csv``.
- ``evaluate``: nested value of a policy read back from ``policy.csv``;
  writes ``values.csv``.
- ``verify``: seeded agreement suites between the solver/risk evaluators
  and the independent oracles (``riskdp.verify``, imported only by this
  command); writes a counterexample on mismatch.
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
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from typing import List, Sequence, Tuple, get_type_hints

import numpy as np

from .model import (
    InvestmentParams,
    LQParams,
    MarkovModel,
    build_investment,
    build_lq,
    build_tabular,
)
from .risk import AVaR, Expectation, KusuokaMixture, MeanDeviation, RiskSpec
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


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


class _VerificationFailed(RuntimeError):
    """A verify suite found a mismatch, or a sweep's values broke their order."""


class _NotConverged(RuntimeError):
    """Value iteration spent ``config.max_sweeps`` sweeps short of ``config.tolerance``."""


def _bounded(test, rule: str, default=MISSING):
    """A bounded config key's field: a value failing ``test`` is rejected
    with a message stating ``rule``."""
    return field(default=default, metadata={"test": test, "rule": rule})


@dataclass
class RunConfig:
    """Validated run configuration with defaults applied.

    Each field is one config key, in the order of the config echo: its
    annotation is the key's type and its default the key's default (a key
    without one is required).  ``model`` and ``risk`` come first and have
    their own parsers; ``model`` is the one ``{kind: parsed spec}`` pair.
    """

    model: dict
    risk: RiskSpec
    discount: float = _bounded(lambda d: 0.0 < d < 1.0, "must lie in (0, 1)")
    epsilon: float = _bounded(lambda e: e > 0.0, "epsilon must be positive", 0.1)
    tolerance: float = _bounded(lambda t: t > 0.0, "must be positive", 1e-8)
    max_sweeps: int = _bounded(lambda s: s >= 1, "must be at least 1", 500)
    horizon: int = _bounded(lambda h: h >= 0, "must be nonnegative", 3)
    seed: int = _bounded(lambda s: s >= 0, "must be nonnegative", 0)
    output_dir: str = "out"

    @property
    def model_kind(self) -> str:
        """The one key of ``model``: ``lq``, ``investment`` or ``tabular``."""
        return next(iter(self.model))

    def resolved(self) -> dict:
        """JSON echo of the configuration, defaults included."""
        doc = {key.name: getattr(self, key.name) for key in dataclass_fields(self)}
        return {**doc, "risk": _risk_to_json(self.risk)}


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
        for name, field_type in fields.items():
            if field_type is float:
                args[name] = _field(doc, name, float, where="config.risk")
            else:
                # the mixture's (level, weight) pairs, not read by ``_field``,
                # which would prefix the ConfigError of ``_typed`` again
                where = f"config.risk.{name}"
                args[name] = tuple(
                    (_typed(a, float, f"{where}[{k}]"), _typed(w, float, f"{where}[{k}]"))
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


#: the JSON value each config type takes, as a rejection names it
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}


def _typed(value, kind, where: str):
    """``value`` as the config type ``kind``, or a ConfigError naming
    ``where``: a count (``int``) takes a JSON integer, so ``41.0`` is
    rejected, a real (``float``) any JSON number, returned as a finite
    float, and ``str`` a string.  A JSON ``true`` or ``false`` is none of
    them.  A real too large for a float raises ``OverflowError``."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{where}: expected {_JSON_TYPES[kind]}, got {value!r}")
    return _finite(float(value), where) if kind is float else value


def _field(doc: dict, key: str, kind, default=MISSING, where: str = "config"):
    if key not in doc:
        if default is MISSING:
            raise ConfigError(f"{where}.{key}: required field is missing")
        return default
    try:
        return _typed(doc[key], kind, f"{where}.{key}")
    except OverflowError as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


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
        return {kind: path}
    if kind not in MODELS:
        raise ConfigError(f"config.model: unknown model kind {kind!r}")
    if not isinstance(spec, dict):
        raise ConfigError(f"config.model.{kind}: expected an object")
    fields = get_type_hints(MODELS[kind][0])
    _reject_extra(spec, set(fields), f"config.model.{kind}")
    parsed = {
        name: _field(spec, name, field_type, where=f"config.model.{kind}")
        for name, field_type in fields.items()
    }
    return {kind: parsed}


def parse_config(doc: dict, config_dir: str = ".") -> RunConfig:
    """Validate a configuration document and apply defaults: each key's
    type, default and bound are its ``RunConfig`` field's."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    keys = dataclass_fields(RunConfig)
    _reject_extra(doc, {key.name for key in keys}, "config")
    if "model" not in doc:
        raise ConfigError("config.model: required field is missing")
    if "risk" not in doc:
        raise ConfigError("config.risk: required field is missing")
    args = {"model": _parse_model(doc["model"], config_dir), "risk": _parse_risk(doc["risk"])}
    types = get_type_hints(RunConfig)
    for key in keys[2:]:
        value = args[key.name] = _field(doc, key.name, types[key.name], key.default)
        if "test" in key.metadata and not key.metadata["test"](value):
            raise ConfigError(f"config.{key.name}: {key.metadata['rule']}, got {value!r}")
    if not os.path.isabs(args["output_dir"]):
        args["output_dir"] = os.path.join(config_dir, args["output_dir"])
    return RunConfig(**args)


def _read_json(path: str, where: str):
    """The document in the JSON file at ``path``; text that is not UTF-8
    JSON raises a ConfigError naming ``where``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
        raise ConfigError(f"{where}: invalid JSON: {exc}") from exc


def load_config(path: str) -> RunConfig:
    """Read and validate a configuration file."""
    config_dir = os.path.dirname(os.path.abspath(path))
    return parse_config(_read_json(path, "config"), config_dir=config_dir)


def _number_array(value, where: str) -> np.ndarray:
    """``value``, nested lists of JSON numbers, as a float array; any other
    entry (a string, a boolean, ``null``, an object) fails ``_typed``'s rule
    for a real, naming ``where``; the first such entry in reading order is
    the one named.  The shape is the caller's to check."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(reversed(item))
        else:
            _typed(item, float, where)
    return np.asarray(value, dtype=float)


def _load_tabular_file(path: str):
    try:
        doc = _read_json(path, f"model file {path!r}")
    except OSError as exc:
        raise OSError(f"cannot read model file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"model file {path!r}: expected a JSON object")
    for key in ("states", "actions", "kernel", "costs"):
        if key not in doc:
            raise ConfigError(f"model file {path!r}: missing field {key!r}")
    _reject_extra(doc, {"states", "actions", "kernel", "costs"}, f"model file {path!r}")
    where = f"config.model.tabular: model file {path!r} field"
    n, m = (_typed(doc[key], int, f"{where} {key!r}") for key in ("states", "actions"))
    kernel, costs = (_number_array(doc[key], f"{where} {key!r}") for key in ("kernel", "costs"))
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
            kernel, costs = _load_tabular_file(config.model["tabular"])
            return build_tabular(kernel, costs, config.discount)
        params, builder = MODELS[config.model_kind]
        return globals()[builder](params(**config.model[config.model_kind]), config.discount)
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
        sigma = float(config.model["lq"]["sigma"])
        try:
            c_bar = 2.0 * worst ** 2 + 2.0 * sigma ** 2 * risk.cap()
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


def _write_lines(path: str, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_values_csv(path: str, grid_points: np.ndarray, values: np.ndarray):
    rows = (f"{_fmt(x)},{_fmt(v)}" for x, v in zip(grid_points, values))
    _write_lines(path, ["state,value", *rows])


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
    _write_lines(path, lines)


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


def _solve_to_horizon(config: RunConfig, model: MarkovModel, risk: RiskSpec):
    """Value iteration to ``config.tolerance``, the per-stage cost bound
    ``c_bar`` and the smallest horizon whose cost tail is below
    ``config.epsilon``: the report, ``c_bar`` and the ``HorizonBound``."""
    report = value_iterate(model, risk, config.tolerance, config.max_sweeps)
    if not report.converged:
        setting = " ".join(f"{k}={v!r}" for k, v in _risk_to_json(risk).items())
        raise _NotConverged(
            f"value iteration under risk {setting} did not converge within "
            f"config.max_sweeps={config.max_sweeps} sweeps to "
            f"config.tolerance={config.tolerance!r} (last residual {report.residuals[-1]!r})"
        )
    c_bar = compute_c_bar(config, model, risk)
    return report, c_bar, epsilon_horizon(c_bar, config.discount, config.epsilon)


def cmd_solve(config: RunConfig):
    model = build_model(config)
    out_dir = _ensure_output_dir(config)
    report, c_bar, (n0, tail) = _solve_to_horizon(config, model, config.risk)
    _, stage_rules = backward_induct(model, config.risk, n0)
    policy = assemble_epsilon_policy(stage_rules, base_stationary_rule(model))

    doc = {
        "config": config.resolved(),
        "c_bar": c_bar,
        "reference_state_index": reference_state_index(config, model),
        "grid": model.grid.points.tolist(),
        "actions": model.actions.values.tolist(),
        "report": {
            **report.to_dict(),
            "horizon": n0,
            "epsilon": config.epsilon,
            "tail_bound": tail,
            "policy": {
                "stages": [rule.tolist() for rule in policy.stages],
                "tail": policy.tail.tolist(),
            },
        },
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


#: largest ``(horizon + 1) * n_states`` an ``evaluate`` run accepts.  A stage
#: of README's S config (41 states) took 0.27-0.37 ms on a 2-vCPU Xeon, some
#: 7-9 us a (stage, state) evaluation, so the budget is about a minute of
#: sweeps; it admits a horizon of 10,000 on a 1,000-point grid
MAX_EVALUATE_STAGE_STATES = 10 ** 7


def cmd_evaluate(config: RunConfig, policy_path: str):
    model = build_model(config)
    work = (config.horizon + 1) * model.n_states
    if work > MAX_EVALUATE_STAGE_STATES:
        raise ConfigError(
            f"config.horizon: {config.horizon + 1} stages of {model.n_states} states are "
            f"{work} (stage, state) evaluations, over the evaluate budget of "
            f"{MAX_EVALUATE_STAGE_STATES}"
        )
    out_dir = _ensure_output_dir(config)
    policy = read_policy_csv(policy_path, model)
    try:
        values = evaluate_policy(model, config.risk, policy, config.horizon)
    except ValueError as exc:
        raise ConfigError(f"policy file {policy_path!r}: {exc}") from exc
    write_values_csv(os.path.join(out_dir, "values.csv"), model.grid.points, values)
    print(f"evaluate: horizon {config.horizon}; outputs in {out_dir}")


def cmd_verify(config: RunConfig, cap_scale: float = 1.0):
    # the suites and the oracles load here, so the other commands start without them
    from .oracle import BudgetExceededError
    from .verify import run_verification_suites

    out_dir = _ensure_output_dir(config)
    try:
        results = run_verification_suites(config.seed, config.horizon, cap_scale)
    except BudgetExceededError as exc:
        raise ConfigError(f"config.horizon: {exc}") from exc
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
        raise _VerificationFailed(f"{len(failed)} suite(s) failed; counterexample in {path}")


def cmd_sweep(config: RunConfig, param: str, values: Sequence[float]):
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
        report, _, (n0, _) = _solve_to_horizon(config, model, risk)
        rows.append((v, float(report.converged_value[x0]), n0, report.sweeps))

    lines = (f"{_fmt(v)},{_fmt(value)},{n0},{sweeps}" for v, value, n0, sweeps in rows)
    _write_lines(os.path.join(out_dir, "sweep.csv"), ["param,value,N0,sweeps", *lines])

    if param == "alpha" and sorted(values) == list(values):
        for (lo_v, lo_val, _, _), (hi_v, hi_val, _, _) in zip(rows, rows[1:]):
            if hi_val < lo_val - 1e-12:
                raise _VerificationFailed(
                    f"reference value decreased from {param}={lo_v!r} "
                    f"({lo_val!r}) to {param}={hi_v!r} ({hi_val!r})"
                )
    print(f"sweep: {len(rows)} solves; outputs in {out_dir}")


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


#: exit code of each failure a command raises (see the module docstring);
#: a failure takes the code of the first class it is an instance of
EXIT_CODES = {
    ConfigError: 2,
    MonotonicityError: 1,
    _VerificationFailed: 1,
    _NotConverged: 3,
    OSError: 4,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        config = load_config(args.config)
        try:
            if args.command == "solve":
                cmd_solve(config)
            elif args.command == "evaluate":
                cmd_evaluate(config, args.policy)
            elif args.command == "verify":
                cmd_verify(config, cap_scale=args.corrupt_cap)
            else:
                try:
                    values = [float(v) for v in args.values.split(",") if v.strip()]
                except ValueError as exc:
                    raise ConfigError(f"--values: {exc}") from exc
                cmd_sweep(config, args.param, values)
        except OverflowError as exc:  # a sweep's values left the float range
            raise ConfigError(f"config.model.{config.model_kind}: {exc}") from exc
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
