"""Command-line driver: configuration validation, exit codes, output
determinism, and the verification subcommand's fault detection."""

import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskdp.cli import (
    ConfigError,
    RunConfig,
    base_stationary_rule,
    main,
    parse_config,
    read_policy_csv,
)
from riskdp.model import ActionSet, MarkovModel, StateGrid, Tabular, build_tabular
from riskdp.risk import AVaR, Expectation, KusuokaMixture, MeanDeviation
from riskdp.solver import MonotonicityError, Policy


LQ_MODEL = {
    "lq": {
        "sigma": 1.0,
        "action_bound": 2.0,
        "x_lo": -3.0,
        "x_hi": 3.0,
        "grid_points": 11,
        "n_actions": 5,
        "noise_atoms": 3,
    }
}


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "model": LQ_MODEL,
        "risk": {"kind": "avar", "alpha": 0.3},
        "discount": 0.5,
        "output_dir": "out",
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_tabular_config(tmp_path, **overrides):
    model_path = tmp_path / "tab.json"
    model_path.write_text(
        json.dumps(
            {
                "states": 2,
                "actions": 2,
                "kernel": [
                    [[1.0, 0.0], [0.0, 1.0]],
                    [[1.0, 0.0], [0.0, 1.0]],
                ],
                "costs": [[1.0, 1.0], [0.0, 0.0]],
            }
        )
    )
    return write_config(
        tmp_path, model={"tabular": "tab.json"}, risk={"kind": "expectation"}, **overrides
    )


# ---------------------------------------------------------------------------
# configuration parsing


def test_parse_config_applies_defaults():
    config = parse_config(
        {"model": LQ_MODEL, "risk": {"kind": "expectation"}, "discount": 0.5}
    )
    assert config.epsilon == 0.1
    assert config.tolerance == 1e-8
    assert config.max_sweeps == 500
    assert config.horizon == 3
    assert config.seed == 0
    assert config.output_dir.endswith("out")
    echo = config.resolved()
    assert echo["risk"] == {"kind": "expectation"}
    assert echo["discount"] == 0.5


def test_readme_config_keys_are_the_accepted_and_echoed_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(example)
    keys = [key.name for key in dataclasses.fields(RunConfig)]
    assert list(doc) == keys == list(parse_config(doc).resolved())
    # README: "model", "risk" and "discount" are required, the rest default
    for key in keys:
        partial = {k: v for k, v in doc.items() if k != key}
        if key in ("model", "risk", "discount"):
            with pytest.raises(ConfigError, match=f"config.{key}: required"):
                parse_config(partial)
        else:
            assert list(parse_config(partial).resolved()) == keys


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"unknown field.*surprise"):
        parse_config(
            {
                "model": LQ_MODEL,
                "risk": {"kind": "expectation"},
                "discount": 0.5,
                "surprise": 1,
            }
        )


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("discount", 0.0, "config.discount"),
        ("discount", 1.0, "config.discount"),
        ("epsilon", 0.0, "config.epsilon"),
        ("epsilon", -0.1, "config.epsilon"),
        ("tolerance", 0.0, "config.tolerance"),
        ("max_sweeps", 0, "config.max_sweeps"),
        ("horizon", -1, "config.horizon"),
        # numpy's generator takes no negative seed, so ``verify`` would raise
        ("seed", -1, "config.seed"),
    ],
)
def test_parse_config_names_the_bad_field(field, value, fragment):
    doc = {"model": LQ_MODEL, "risk": {"kind": "expectation"}, "discount": 0.5}
    doc[field] = value
    with pytest.raises(ConfigError, match=fragment):
        parse_config(doc)


def test_parse_config_requires_model_and_risk():
    with pytest.raises(ConfigError, match="config.model"):
        parse_config({"risk": {"kind": "expectation"}, "discount": 0.5})
    with pytest.raises(ConfigError, match="config.risk"):
        parse_config({"model": LQ_MODEL, "discount": 0.5})


def test_parse_risk_kinds():
    base = {"model": LQ_MODEL, "discount": 0.5}
    cases = [
        ({"kind": "expectation"}, Expectation),
        ({"kind": "avar", "alpha": 0.25}, AVaR),
        ({"kind": "mean_deviation", "kappa": 0.5}, MeanDeviation),
        ({"kind": "kusuoka", "components": [[0.0, 0.5], [0.5, 0.5]]}, KusuokaMixture),
    ]
    for doc, expected in cases:
        config = parse_config({**base, "risk": doc})
        assert isinstance(config.risk, expected)
        assert config.resolved()["risk"]["kind"] == doc["kind"]


def test_parse_risk_rejects_bad_specs():
    base = {"model": LQ_MODEL, "discount": 0.5}
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config({**base, "risk": {"kind": "variance"}})
    with pytest.raises(ConfigError, match="config.risk"):
        parse_config({**base, "risk": {"kind": "avar", "alpha": 1.0}})
    with pytest.raises(ConfigError, match="config.risk"):
        parse_config({**base, "risk": {"kind": "avar"}})
    with pytest.raises(ConfigError, match="config.risk"):
        parse_config({**base, "risk": {"kind": "avar", "alpha": 0.3, "kappa": 0.1}})
    # an integer too large for a float, which JSON reads exactly
    with pytest.raises(ConfigError, match=r"^config\.risk: int too large"):
        parse_config({**base, "risk": {"kind": "kusuoka", "components": [[0.5, 10**400]]}})
    # an unhashable kind must not reach the kind table's lookup
    for kind in ([], {}, 1, None):
        with pytest.raises(ConfigError, match=r"^config\.risk\.kind: unknown kind"):
            parse_config({**base, "risk": {"kind": kind}})


def test_parse_model_rejects_bad_specs():
    base = {"risk": {"kind": "expectation"}, "discount": 0.5}
    with pytest.raises(ConfigError, match="config.model"):
        parse_config({**base, "model": {"brownian": {}}})
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({**base, "model": {"lq": LQ_MODEL["lq"], "tabular": "x.json"}})
    broken = dict(LQ_MODEL["lq"])
    del broken["sigma"]
    with pytest.raises(ConfigError, match="config.model.lq.sigma"):
        parse_config({**base, "model": {"lq": broken}})
    extra = dict(LQ_MODEL["lq"], theta=1.0)
    with pytest.raises(ConfigError, match="config.model.lq"):
        parse_config({**base, "model": {"lq": extra}})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"model": {"lq": dict(LQ_MODEL["lq"], sigma=NAN)}}, "config.model.lq.sigma"),
        ({"model": {"lq": dict(LQ_MODEL["lq"], x_hi=INF)}}, "config.model.lq.x_hi"),
        ({"model": {"lq": dict(LQ_MODEL["lq"], x_lo=-INF)}}, "config.model.lq.x_lo"),
        ({"model": {"lq": dict(LQ_MODEL["lq"], grid_points=INF)}}, "config.model.lq.grid_points"),
        ({"risk": {"kind": "avar", "alpha": NAN}}, "config.risk.alpha"),
        ({"risk": {"kind": "mean_deviation", "kappa": NAN}}, "config.risk.kappa"),
        ({"risk": {"kind": "kusuoka", "components": [[0.1, NAN]]}}, "config.risk.components[0]"),
        ({"discount": NAN}, "config.discount"),
        ({"tolerance": INF}, "config.tolerance"),
        ({"horizon": INF}, "config.horizon"),
    ],
)
def test_non_finite_numbers_exit_2_naming_the_field(tmp_path, capsys, overrides, fragment):
    config = write_config(tmp_path, **overrides)
    assert main(["solve", "-c", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}: ")
    assert not (tmp_path / "out").exists()


def lq_fields(**fields):
    return {"model": {"lq": dict(LQ_MODEL["lq"], **fields)}}


@pytest.mark.parametrize(
    "overrides,message",
    [
        (lq_fields(grid_points=5.9), "config.model.lq.grid_points: expected an integer, got 5.9"),
        (lq_fields(grid_points=11.0), "config.model.lq.grid_points: expected an integer, got 11.0"),
        (lq_fields(sigma="1"), "config.model.lq.sigma: expected a number, got '1'"),
        ({"max_sweeps": 2.9}, "config.max_sweeps: expected an integer, got 2.9"),
        ({"horizon": True}, "config.horizon: expected an integer, got True"),
        ({"seed": True}, "config.seed: expected an integer, got True"),
        ({"discount": "0.5"}, "config.discount: expected a number, got '0.5'"),
        ({"epsilon": False}, "config.epsilon: expected a number, got False"),
        (
            {"risk": {"kind": "avar", "alpha": "0.5"}},
            "config.risk.alpha: expected a number, got '0.5'",
        ),
        (
            {"risk": {"kind": "kusuoka", "components": [[0.0, True]]}},
            "config.risk.components[0]: expected a number, got True",
        ),
        ({"output_dir": 5}, "config.output_dir: expected a string, got 5"),
        ({"output_dir": None}, "config.output_dir: expected a string, got None"),
    ],
    ids=[
        "grid_points-fraction", "grid_points-integral-float", "sigma-string",
        "max_sweeps-fraction", "horizon-bool", "seed-bool", "discount-string", "epsilon-bool",
        "alpha-string", "components-bool", "output_dir-number", "output_dir-null",
    ],
)
def test_values_of_the_wrong_json_type_exit_2_naming_the_field(tmp_path, capsys, overrides, message):
    """A count takes a JSON integer, a real any JSON number and
    ``output_dir`` a string; a boolean is none of them, and a value is never
    cast to the field's type."""
    config = write_config(tmp_path, **overrides)
    assert main(["solve", "-c", config]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_integers_are_accepted_as_reals_and_echoed_as_floats():
    doc = {"model": {"lq": dict(LQ_MODEL["lq"], sigma=1)}, "risk": {"kind": "avar", "alpha": 0}}
    echo = parse_config({**doc, "discount": 0.5, "epsilon": 1}).resolved()
    assert echo["model"]["lq"]["sigma"] == 1.0 and isinstance(echo["model"]["lq"]["sigma"], float)
    assert isinstance(echo["risk"]["alpha"], float) and isinstance(echo["epsilon"], float)


@pytest.mark.parametrize(
    "key,value", [("states", 2.0), ("states", True), ("actions", "2"), ("actions", 2.5)]
)
def test_tabular_sizes_of_the_wrong_json_type_exit_2(tmp_path, capsys, key, value):
    config = write_tabular_config(tmp_path)
    model_path = tmp_path / "tab.json"
    doc = json.loads(model_path.read_text())
    doc[key] = value
    model_path.write_text(json.dumps(doc))
    assert main(["solve", "-c", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.model.tabular: model file ")
    assert err.endswith(f" field {key!r}: expected an integer, got {value!r}\n")


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("kernel", [[["0.5", 0.5], [0.0, 1.0]]] * 2, "expected a number, got '0.5'"),
        ("kernel", [[[True, False], [0.0, 1.0]]] * 2, "expected a number, got True"),
        ("kernel", [[[None, 1.0], [0.0, 1.0]]] * 2, "expected a number, got None"),
        ("costs", [["1"], [0.5]], "expected a number, got '1'"),
        ("costs", [[1.0, {"c": 1.0}], [0.0, 0.0]], "expected a number, got {'c': 1.0}"),
        ("costs", [[float("nan"), 1.0], [0.0, 0.0]], "must be finite, got nan"),
    ],
    ids=[
        "kernel-string", "kernel-booleans", "kernel-null", "costs-string", "costs-object",
        "costs-nan",
    ],
)
def test_tabular_entries_of_the_wrong_json_type_exit_2(tmp_path, capsys, key, value, message):
    """Every kernel and cost entry takes a finite JSON number, by the rule of
    the config's reals: a string, a boolean or a null is not converted."""
    config = write_tabular_config(tmp_path)
    model_path = tmp_path / "tab.json"
    doc = json.loads(model_path.read_text())
    doc[key] = value
    model_path.write_text(json.dumps(doc))
    assert main(["solve", "-c", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.model.tabular: model file ")
    assert err.endswith(f" field {key!r}: {message}\n")
    assert sorted(os.listdir(tmp_path)) == ["config.json", "tab.json"]


def test_tabular_file_with_infinite_size_exits_2(tmp_path, capsys):
    config = write_tabular_config(tmp_path)
    model_path = tmp_path / "tab.json"
    model_path.write_text(model_path.read_text().replace('"states": 2', '"states": Infinity'))
    assert main(["solve", "-c", config]) == 2
    assert capsys.readouterr().err.startswith("error: config.model.tabular: ")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"states": null, "actions": 2, "kernel": [], "costs": []}', "config.model.tabular: "),
        ("[1, 2]", "model file "),
        ("5", "model file "),
        ('{"states": 1' + "0" * 5000 + "}", "model file "),
    ],
    ids=["null-size", "list", "number", "integer-too-long"],
)
def test_malformed_tabular_file_exits_2(tmp_path, capsys, text, fragment):
    config = write_tabular_config(tmp_path)
    (tmp_path / "tab.json").write_text(text)
    assert main(["solve", "-c", config]) == 2
    assert capsys.readouterr().err.startswith(f"error: {fragment}")


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", b'{"discount": 1' + b"0" * 5000 + b"}"],
    ids=["not-utf-8", "integer-too-long"],
)
def test_unreadable_config_text_exits_2(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main(["solve", "-c", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: config: invalid JSON: ")


@pytest.mark.parametrize(
    "model,fragment",
    [
        # grid_points * n_actions * noise_atoms is over the successor budget;
        # the check runs before any allocation, so this returns at once
        (
            {"lq": dict(LQ_MODEL["lq"], grid_points=10 ** 6, n_actions=10)},
            "config.model.lq: grid_points * n_actions * noise_atoms exceeds",
        ),
        (
            {
                "investment": {
                    "mu": 0.05, "r": 0.0, "sigma": 0.2, "action_bound": 1.0,
                    "wealth_lo": 0.0, "wealth_hi": 2.0,
                    "grid_points": 10 ** 4, "n_actions": 10 ** 4, "noise_atoms": 10 ** 4,
                }
            },
            "config.model.investment: grid_points * n_actions * noise_atoms exceeds",
        ),
        # one noise atom passes the atom budget; the pair budget still holds
        (
            {"lq": dict(LQ_MODEL["lq"], grid_points=2 * 10 ** 5, n_actions=10, noise_atoms=1)},
            "config.model.lq: grid_points * n_actions exceeds",
        ),
        (
            {
                "investment": {
                    "mu": 0.05, "r": 0.0, "sigma": 0.2, "action_bound": 1.0,
                    "wealth_lo": 0.0, "wealth_hi": 2.0,
                    "grid_points": 10 ** 7, "n_actions": 1, "noise_atoms": 1,
                }
            },
            "config.model.investment: grid_points * n_actions exceeds",
        ),
        # growth factors that overflow would make zero wealth's successor NaN
        (
            {
                "investment": {
                    "mu": 0.05, "r": 0.0, "sigma": 1e308, "action_bound": 2.0,
                    "wealth_lo": 0.0, "wealth_hi": 2.0,
                    "grid_points": 5, "n_actions": 3, "noise_atoms": 3,
                }
            },
            "config.model.investment: growth factor",
        ),
        # the LQ stage-cost bound 2 x**2 + 2 sigma**2 cap overflows
        ({"lq": dict(LQ_MODEL["lq"], sigma=1e300)}, "config.model.lq: the stage-cost bound"),
        # costs up to 1e308 at discount 0.5 bound the values by 2e308, which
        # overflows before value iteration starts
        (
            {"lq": dict(LQ_MODEL["lq"], x_lo=-1e154, x_hi=1e154)},
            "config.model.lq: value bound max stage cost / (1 - discount) overflows",
        ),
        # np.linspace(-b, b, n) warned and made NaN actions once 2 * b overflowed
        (
            {"lq": dict(LQ_MODEL["lq"], action_bound=1e308)},
            "config.model.lq: action range 2 * action_bound must be finite",
        ),
    ],
    ids=[
        "lq-over-budget",
        "investment-over-budget",
        "lq-one-atom-over-pair-budget",
        "investment-one-atom-over-pair-budget",
        "growth-overflow",
        "cost-bound-overflow",
        "value-bound-overflow",
        "action-range-overflow",
    ],
)
def test_model_out_of_budget_or_overflowing_exits_2(tmp_path, capsys, model, fragment):
    config = write_config(tmp_path, model=model)
    assert main(["solve", "-c", config]) == 2
    assert capsys.readouterr().err.startswith(f"error: {fragment}")


@pytest.mark.parametrize(
    "command",
    [["solve"], ["sweep", "--param", "alpha", "--values", "0.5"], ["evaluate", "-p"]],
    ids=["solve", "sweep", "evaluate"],
)
def test_tabular_costs_whose_value_bound_overflows_exit_2(tmp_path, capsys, command):
    """Every cost 1e308 at discount 0.9 bounds the values by 1e309: the
    model is rejected, naming it, before any sweep, where value iteration
    raised on infinite values and ``evaluate`` blamed the policy file."""
    (tmp_path / "tab.json").write_text(
        json.dumps(
            {
                "states": 2,
                "actions": 2,
                "kernel": [[[1.0, 0.0], [0.0, 1.0]]] * 2,
                "costs": [[1e308, 1e308]] * 2,
            }
        )
    )
    policy = tmp_path / "policy.csv"
    policy.write_text("stage,state,action\n-1,0.0,0.0\n-1,1.0,0.0\n")
    config = write_config(tmp_path, model={"tabular": "tab.json"}, discount=0.9)
    argv = [command[0], "-c", config, *command[1:]]
    if command[0] == "evaluate":
        argv.append(str(policy))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: config.model.tabular: value bound max stage cost / (1 - discount) overflows"
    )


#: a kernel on which value iteration from zero at discount 0.1, with every
#: stage cost at 0.9 times the largest float, overflows by rounding: the
#: value bound cost / (1 - discount) is the largest finite float itself
SLIVER_KERNEL = [
    [[0.35028055339082925, 0.6497194466091707], [0.6999073152674175, 0.30009268473258266]],
    [[0.045967462533888406, 0.9540325374661117], [0.1679866073448039, 0.8320133926551962]],
]


@pytest.mark.parametrize(
    "command",
    [["solve"], ["sweep", "--param", "kappa", "--values", "0.3"], ["evaluate", "-p"]],
    ids=["solve", "sweep", "evaluate"],
)
def test_values_that_overflow_within_the_value_bound_exit_2(tmp_path, capsys, command):
    """The model passes the value-bound check, but a sweep overflows: the
    run ends in exit 2 naming the model, where value iteration raised a
    traceback and ``evaluate`` blamed the policy file, and no numpy warning
    is raised on the way."""
    cost = sys.float_info.max * 0.9
    assert cost / (1.0 - 0.1) == sys.float_info.max
    (tmp_path / "tab.json").write_text(
        json.dumps(
            {"states": 2, "actions": 2, "kernel": SLIVER_KERNEL, "costs": [[cost, cost]] * 2}
        )
    )
    policy = tmp_path / "policy.csv"
    policy.write_text("stage,state,action\n-1,0.0,0.0\n-1,1.0,0.0\n")
    config = write_config(
        tmp_path,
        model={"tabular": "tab.json"},
        risk={"kind": "expectation"},
        discount=0.1,
        horizon=50,
    )
    argv = [command[0], "-c", config, *command[1:]]
    if command[0] == "evaluate":
        argv.append(str(policy))
    # numpy's overflow warnings would print before the message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: config.model.tabular: values overflow the float range"
    )


@pytest.mark.parametrize(
    "kind, fields, message",
    [
        ("lq", {"x_lo": -1e308, "x_hi": 1e308}, "state grid width x_hi - x_lo must be finite"),
        ("lq", {"x_lo": 0.0, "x_hi": sys.float_info.max, "grid_points": 7}, "cost at state"),
        (
            "investment",
            {"wealth_hi": sys.float_info.max, "grid_points": 7},
            "value bound max stage cost / (1 - discount) overflows",
        ),
    ],
    ids=["lq-width", "lq-last-step", "investment-last-step"],
)
def test_grid_bounds_near_the_float_range_exit_2_without_warnings(
    tmp_path, capsys, kind, fields, message
):
    """Bounds whose width overflows are rejected before a grid is built, and
    a finite width whose last step rounds past the largest float builds its
    grid quietly; numpy's linspace warnings printed before either message."""
    base = {
        "lq": LQ_MODEL["lq"],
        "investment": {
            "mu": 0.08, "r": 0.02, "sigma": 0.3, "action_bound": 2.0, "wealth_lo": 0.0,
            "wealth_hi": 2.0, "grid_points": 5, "n_actions": 3, "noise_atoms": 3,
        },
    }[kind]
    config = write_config(tmp_path, model={kind: dict(base, **fields)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "-c", config]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"error: config.model.{kind}: {message}"
    )


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_outputs_and_reports_convergence(tmp_path):
    config = write_config(tmp_path)
    assert main(["solve", "-c", config]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["converged"] is True
    assert report["report"]["horizon"] >= 1
    assert report["report"]["tail_bound"] < report["config"]["epsilon"]
    # the solver's report, then the epsilon-policy fields the command adds
    assert list(report["report"]) == [
        "values_per_iteration", "residuals", "converged", "converged_value",
        "stationary_policy", "horizon", "epsilon", "tail_bound", "policy",
    ]
    assert report["config"]["max_sweeps"] == 500
    residuals = report["report"]["residuals"]
    assert len(residuals) == len(report["report"]["values_per_iteration"]) - 1

    values_lines = (out / "values.csv").read_text().strip().splitlines()
    assert values_lines[0] == "state,value"
    assert len(values_lines) == 1 + 11

    policy_lines = (out / "policy.csv").read_text().strip().splitlines()
    assert policy_lines[0] == "stage,state,action"
    stages = {int(line.split(",")[0]) for line in policy_lines[1:]}
    assert -1 in stages
    assert stages - {-1} == set(range(report["report"]["horizon"] + 1))


def test_solve_report_json_round_trips_converged_values(tmp_path):
    config = write_config(tmp_path)
    assert main(["solve", "-c", config]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    stored = np.array(report["report"]["converged_value"])
    csv_values = np.array(
        [
            float(line.split(",")[1])
            for line in (tmp_path / "out" / "values.csv").read_text().strip().splitlines()[1:]
        ]
    )
    assert np.array_equal(stored, csv_values)


def test_solve_outputs_are_deterministic(tmp_path):
    config = write_config(tmp_path)
    assert main(["solve", "-c", config]) == 0
    out = tmp_path / "out"
    first = {name: (out / name).read_bytes() for name in ("report.json", "values.csv", "policy.csv")}
    assert main(["solve", "-c", config]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_solve_two_state_tabular_reaches_exact_fixed_point(tmp_path):
    config = write_tabular_config(tmp_path)
    assert main(["solve", "-c", config]) == 0
    lines = (tmp_path / "out" / "values.csv").read_text().strip().splitlines()[1:]
    values = [float(line.split(",")[1]) for line in lines]
    assert values == [1.0, 0.0]


def test_solve_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, name="bad.json", discount=1.5)
    assert main(["solve", "-c", bad]) == 2
    assert "config.discount" in capsys.readouterr().err

    missing_model = write_config(tmp_path, name="mm.json", model={"tabular": "nope.json"})
    assert main(["solve", "-c", missing_model]) == 4
    assert "cannot read model file" in capsys.readouterr().err

    assert main(["solve", "-c", str(tmp_path / "absent.json")]) == 4

    not_json = tmp_path / "mangled.json"
    not_json.write_text("{not json")
    assert main(["solve", "-c", str(not_json)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    slow = write_config(tmp_path, name="slow.json", max_sweeps=1, tolerance=1e-12)
    assert main(["solve", "-c", slow]) == 3
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["sweep", "--param", "alpha", "--values", "0.1,0.2"]],
)
def test_monotonicity_failure_exits_1(tmp_path, capsys, monkeypatch, argv):
    import riskdp.cli as cli

    def decreasing(*args, **kwargs):
        raise MonotonicityError(
            "value iterates decreased pointwise; "
            "the model violates the monotone-iteration contract"
        )

    monkeypatch.setattr(cli, "value_iterate", decreasing)
    config = write_config(tmp_path)
    assert main([argv[0], "-c", config, *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: value iterates decreased pointwise")


def test_solve_epsilon_zero_rejected(tmp_path, capsys):
    config = write_config(tmp_path, epsilon=0.0)
    assert main(["solve", "-c", config]) == 2
    assert "epsilon must be positive" in capsys.readouterr().err


def test_report_config_echo_reruns_bit_identically(tmp_path):
    config = write_config(tmp_path)
    assert main(["solve", "-c", config]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())

    echo = report["config"]
    echo["output_dir"] = str(tmp_path / "rerun")
    rerun_config = tmp_path / "rerun.json"
    rerun_config.write_text(json.dumps(echo))
    assert main(["solve", "-c", str(rerun_config)]) == 0

    rereport = json.loads((tmp_path / "rerun" / "report.json").read_text())
    assert rereport["report"]["converged_value"] == report["report"]["converged_value"]
    assert (tmp_path / "rerun" / "values.csv").read_bytes() == (
        tmp_path / "out" / "values.csv"
    ).read_bytes()


# ---------------------------------------------------------------------------
# evaluate and the policy round trip


def test_evaluate_of_solved_policy_tracks_report_values(tmp_path):
    # the assembled near-optimal policy, evaluated far past its horizon,
    # must reproduce the solve's converged values to within epsilon
    config = write_config(tmp_path, epsilon=0.1)
    assert main(["solve", "-c", config]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    converged = np.array(report["report"]["converged_value"])
    long_horizon = report["report"]["horizon"] + 40

    eval_config = write_config(
        tmp_path, name="eval.json", epsilon=0.1, horizon=long_horizon,
        output_dir="eval_out",
    )
    assert main(["evaluate", "-c", eval_config, "-p", str(out / "policy.csv")]) == 0
    lines = (tmp_path / "eval_out" / "values.csv").read_text().strip().splitlines()[1:]
    evaluated = np.array([float(line.split(",")[1]) for line in lines])
    assert np.max(np.abs(evaluated - converged)) <= 0.1


def test_single_value_sweep_matches_solve(tmp_path):
    config = write_config(tmp_path)
    assert main(["solve", "-c", config]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    x0 = report["reference_state_index"]

    assert main(["sweep", "-c", config, "--param", "alpha", "--values", "0.3"]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    param, value, n0, sweeps = lines[1].split(",")
    assert float(param) == 0.3
    assert float(value) == report["report"]["converged_value"][x0]
    assert int(n0) == report["report"]["horizon"]
    assert int(sweeps) == len(report["report"]["residuals"])


def test_evaluate_round_trip(tmp_path):
    config = write_config(tmp_path, horizon=6)
    assert main(["solve", "-c", config]) == 0
    out = tmp_path / "out"
    solve_values = (out / "values.csv").read_bytes()
    assert main(["evaluate", "-c", config, "-p", str(out / "policy.csv")]) == 0
    lines = (out / "values.csv").read_text().strip().splitlines()
    assert lines[0] == "state,value"
    evaluated = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(np.isfinite(evaluated))
    assert np.all(evaluated >= 0.0)
    assert (out / "values.csv").read_bytes() != solve_values  # finite horizon


def test_base_stationary_rule_takes_the_admissible_action_closest_to_zero():
    """Inadmissible actions (NaN in the cost table) never win, and ties,
    -0.0 against 0.0 included, go to the lowest index."""
    actions = ActionSet(
        np.array([-1.0, -0.0, 0.0, 0.5, -0.5, 2.0]), admissible=((0, 5), (3, 4), (1, 2), (5,))
    )
    kernel = np.full((4, 6, 4), 0.25)
    model = MarkovModel(StateGrid(np.arange(4.0)), actions, Tabular(kernel), lambda x, a: 1.0, 0.5)
    assert base_stationary_rule(model).tolist() == [0, 3, 1, 5]


def test_read_policy_csv_round_trip(tmp_path):
    model = build_tabular(
        [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        [[1.0, 1.0], [0.0, 0.0]],
        0.5,
    )
    policy = Policy(
        stages=(np.array([0, 1]), np.array([1, 1])), tail=np.array([0, 0])
    )
    path = tmp_path / "policy.csv"
    from riskdp.cli import write_policy_csv

    write_policy_csv(str(path), model, policy)
    loaded = read_policy_csv(str(path), model)
    assert len(loaded.stages) == 2
    assert np.array_equal(loaded.stages[0], [0, 1])
    assert np.array_equal(loaded.stages[1], [1, 1])
    assert np.array_equal(loaded.tail, [0, 0])


def test_read_policy_csv_rejects_mismatches(tmp_path):
    model = build_tabular(
        [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        [[1.0, 1.0], [0.0, 0.0]],
        0.5,
    )
    path = tmp_path / "policy.csv"

    path.write_text("wrong,header,here\n")
    with pytest.raises(ConfigError, match="header"):
        read_policy_csv(str(path), model)

    path.write_text("stage,state,action\n0,0.0,0.0\n0,1.0,5.0\n")
    with pytest.raises(ConfigError, match="action set"):
        read_policy_csv(str(path), model)

    path.write_text("stage,state,action\n0,0.0,0.0\n")
    with pytest.raises(ConfigError, match="covers 1 states"):
        read_policy_csv(str(path), model)

    path.write_text("stage,state,action\n0,0.0,0.0\n0,1.0,0.0\n2,0.0,0.0\n2,1.0,0.0\n")
    with pytest.raises(ConfigError, match="contiguous"):
        read_policy_csv(str(path), model)


def test_read_policy_csv_rejects_a_nan_state_and_reports_the_first_bad_row(tmp_path):
    """A NaN state is no grid point.  Of several bad rows the first is
    reported, and a row with a bad state and a bad action names its state."""
    model = build_tabular(np.full((3, 2, 3), 1.0 / 3.0), np.ones((3, 2)), 0.5)
    path = tmp_path / "policy.csv"
    cases = [
        ("0,nan,0.0\n0,1.0,0.0\n0,2.0,0.0", "stage 0 row 0 has state nan, expected grid point 0.0"),
        ("0,0.0,0.0\n0,1.0,0.0\n0,nan,1.0", "stage 0 row 2 has state nan, expected grid point 2.0"),
        ("-1,0.0,0.0\n-1,nan,7.0\n-1,2.0,0.0", "stage -1 row 1 has state nan"),
        ("0,0.0,0.0\n0,1.0,5.0\n0,nan,0.0", "stage 0 row 1 action 5.0 is not"),
        ("0,0.0,nan\n0,1.0,0.0\n0,2.0,0.0", "stage 0 row 0 action nan is not"),
    ]
    for rows, message in cases:
        path.write_text("stage,state,action\n" + rows + "\n")
        with pytest.raises(ConfigError, match=message):
            read_policy_csv(str(path), model)
    path.write_text("stage,state,action\n0,0.0,1.0\n0,1.0,0.0\n0,2.0000000001,1.0\n")
    assert read_policy_csv(str(path), model).stages[0].tolist() == [1, 0, 1]


def test_evaluate_exit_codes(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["evaluate", "-c", config, "-p", str(tmp_path / "absent.csv")]) == 4
    assert "cannot read policy file" in capsys.readouterr().err

    bad = tmp_path / "bad_policy.csv"
    bad.write_text("stage,state,action\n")
    assert main(["evaluate", "-c", config, "-p", str(bad)]) == 2
    assert "no decision rules" in capsys.readouterr().err


def test_evaluate_requires_policy_for_full_horizon(tmp_path, capsys):
    # a single stage rule with no tail cannot cover horizon 3
    config = write_tabular_config(tmp_path, horizon=3)
    policy = tmp_path / "short.csv"
    policy.write_text("stage,state,action\n0,0.0,0.0\n0,1.0,0.0\n")
    assert main(["evaluate", "-c", config, "-p", str(policy)]) == 2
    assert "no decision rule for stage" in capsys.readouterr().err


def test_evaluate_rejects_a_horizon_over_its_budget_before_any_sweep(
    tmp_path, capsys, monkeypatch
):
    import riskdp.cli as cli

    def no_evaluation(*args):
        raise AssertionError("policy evaluation ran")

    monkeypatch.setattr(cli, "evaluate_policy", no_evaluation)
    policy = tmp_path / "policy.csv"
    policy.write_text("stage,state,action\n-1,0.0,0.0\n-1,1.0,0.0\n")
    # the tabular model has 2 states, so horizon + 1 stages are 2 * (horizon + 1) evaluations
    budget = cli.MAX_EVALUATE_STAGE_STATES
    config = write_tabular_config(tmp_path, horizon=budget // 2)
    assert main(["evaluate", "-c", config, "-p", str(policy)]) == 2
    assert capsys.readouterr().err == (
        f"error: config.horizon: {budget // 2 + 1} stages of 2 states are {budget + 2} "
        f"(stage, state) evaluations, over the evaluate budget of {budget}\n"
    )
    assert not (tmp_path / "out").exists()

    monkeypatch.setattr(cli, "evaluate_policy", lambda m, risk, p, horizon: np.zeros(m.n_states))
    config = write_tabular_config(tmp_path, horizon=budget // 2 - 1)
    assert main(["evaluate", "-c", config, "-p", str(policy)]) == 0


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_prints_table(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["verify", "-c", config]) == 0
    out = capsys.readouterr().out
    for name in (
        "tail-average agreement",
        "mean-deviation agreement",
        "dp vs exhaustive search",
        "policy evaluation vs scenario tree",
        "risk-neutral reference",
    ):
        assert name in out
    assert "FAIL" not in out
    assert not (tmp_path / "out" / "counterexample.json").exists()


def test_verify_detects_corrupted_oracle(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["verify", "-c", config, "--corrupt-cap", "1.2"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    blob = json.loads((tmp_path / "out" / "counterexample.json").read_text())
    assert blob["suite"] == "tail-average agreement"
    assert "atoms" in blob["instance"]


def test_verify_infeasible_corruption_also_fails(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["verify", "-c", config, "--corrupt-cap", "0.5"]) == 1
    capsys.readouterr()
    blob = json.loads((tmp_path / "out" / "counterexample.json").read_text())
    assert blob["suite"] == "tail-average agreement"


def test_verify_rejects_budget_breaking_depth(tmp_path, capsys):
    config = write_config(tmp_path, horizon=12)
    assert main(["verify", "-c", config]) == 2
    assert "budget" in capsys.readouterr().err


def test_verify_rejects_a_huge_depth_before_solving_it(tmp_path, capsys):
    # 16**1000001 sequences: too many digits to print, and a backward
    # induction over a million stages would run for minutes first
    config = write_config(tmp_path, horizon=10 ** 6)
    assert main(["verify", "-c", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.horizon: about 10**1204121 stage-policy sequences")
    assert "budget" in err


def test_verify_reports_a_failed_spot_check_as_a_failed_suite(tmp_path, capsys, monkeypatch):
    import riskdp.oracle

    def disagreeing(*args, **kwargs):
        raise RuntimeError(
            "batched enumeration disagrees with the scenario tree at state 0: 1.0 vs 2.0"
        )

    monkeypatch.setattr(riskdp.oracle, "exhaustive_policy_search", disagreeing)
    config = write_config(tmp_path, horizon=1)
    assert main(["verify", "-c", config]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "suite(s) failed" in captured.err
    (line,) = [l for l in captured.out.splitlines() if l.startswith("dp vs exhaustive")]
    assert "checks=1 " in line and "max_error=inf" in line and line.endswith("FAIL")
    blob = json.loads((tmp_path / "out" / "counterexample.json").read_text())
    assert blob["suite"] == "dp vs exhaustive search"
    assert "disagrees with the scenario tree" in blob["instance"]["error"]
    assert blob["instance"]["depth"] == 1
    assert {"risk", "kernel", "costs"} <= set(blob["instance"])


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_json_outputs_spell_non_finite_floats_as_strings(tmp_path):
    from riskdp.cli import _write_json

    path = tmp_path / "doc.json"
    doc = {"a": [1.5, float("nan"), (float("inf"), -float("inf"))], "b": {"c": np.float64("nan")}}
    _write_json(str(path), doc)
    assert json.loads(path.read_text(), parse_constant=_reject_constant) == {
        "a": [1.5, "NaN", ["Infinity", "-Infinity"]],
        "b": {"c": "NaN"},
    }


def _nan_duals(duals):
    def patched(levels, dist):
        return [(float("nan"), density) for _, density in duals(levels, dist)]

    return patched


def _nan_values(route):
    def patched(*args, **kwargs):
        result = route(*args, **kwargs)
        if isinstance(result, tuple):
            return (result[0] * np.nan,) + result[1:]
        return result * np.nan

    return patched


@pytest.mark.parametrize(
    "route, suite, wrap",
    [
        ("avar_duals", "tail-average agreement", _nan_duals),
        # not the first part of its check's error, where ``max`` would skip it
        ("avar_lp_oracle", "tail-average agreement", _nan_values),
        ("mean_deviation_duals", "mean-deviation agreement", _nan_duals),
        ("exhaustive_policy_search", "dp vs exhaustive search", _nan_values),
        ("evaluate_policy", "policy evaluation vs scenario tree", _nan_values),
        ("risk_neutral_dp", "risk-neutral reference", _nan_values),
    ],
)
def test_verify_fails_on_a_nan_from_any_route(tmp_path, capsys, monkeypatch, route, suite, wrap):
    import riskdp

    # the defining module (``riskdp.oracle``, ``riskdp.risk`` or
    # ``riskdp.solver``), through which the suites call every route
    original = getattr(riskdp, route)
    monkeypatch.setattr(sys.modules[original.__module__], route, wrap(original))
    config = write_config(tmp_path, horizon=1)
    assert main(["verify", "-c", config]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (line,) = [l for l in captured.out.splitlines() if l.startswith(suite)]
    assert "max_error=nan" in line and line.endswith("FAIL")
    # strict JSON: no bare NaN or Infinity token
    blob = json.loads(
        (tmp_path / "out" / "counterexample.json").read_text(), parse_constant=_reject_constant
    )
    assert blob["suite"] == suite


def test_verify_is_seed_stable(tmp_path, capsys):
    config = write_config(tmp_path, seed=7)
    assert main(["verify", "-c", config]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "-c", config]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# sweep


def test_sweep_alpha_rows_and_monotonicity(tmp_path):
    config = write_config(tmp_path)
    code = main(
        ["sweep", "-c", config, "--param", "alpha", "--values", "0,0.25,0.5,0.75,0.9"]
    )
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "param,value,N0,sweeps"
    assert len(lines) == 6
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    n0s = [int(line.split(",")[2]) for line in lines[1:]]
    assert all(n >= 1 for n in n0s)


def test_sweep_kappa(tmp_path):
    config = write_config(tmp_path)
    assert main(["sweep", "-c", config, "--param", "kappa", "--values", "0,0.25,0.5"]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv, setting",
    [(["solve"], "alpha=0.3"), (["sweep", "--param", "alpha", "--values", "0.1"], "alpha=0.1")],
    ids=["solve", "sweep"],
)
def test_non_convergence_exits_3_naming_the_risk_and_the_fields(tmp_path, capsys, argv, setting):
    config = write_config(tmp_path, max_sweeps=1)
    assert main([argv[0], "-c", config, *argv[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: value iteration under risk kind='avar' ")
    assert setting in err and "config.max_sweeps=1 " in err and "config.tolerance" in err


@pytest.mark.parametrize("max_sweeps", [500, 5])
@pytest.mark.parametrize(
    "model, risk",
    [
        (
            {"lq": dict(LQ_MODEL["lq"], grid_points=9, n_actions=3, noise_atoms=3)},
            {"kind": "avar", "alpha": 0.5},
        ),
        (
            {
                "investment": {
                    "mu": 0.12, "r": 0.02, "sigma": 0.2, "action_bound": 1.0,
                    "wealth_lo": 0.0, "wealth_hi": 2.0 ** 20,
                    "grid_points": 33, "n_actions": 5, "noise_atoms": 5,
                }
            },
            {"kind": "mean_deviation", "kappa": 0.3},
        ),
    ],
    ids=["lq-avar", "investment-mean-deviation"],
)
def test_an_unreachable_tolerance_exits_0_at_a_fixed_point_or_3(
    tmp_path, capsys, model, risk, max_sweeps
):
    """A tolerance of 1e-300 at discount 0.9 is below every positive
    residual the values' rounding leaves.  The run ends in exit 0 when value
    iteration reaches an exact floating-point fixed point (its last residual
    is 0.0; both models do within 500 sweeps), or in exit 3 naming
    ``config.tolerance`` when ``max_sweeps`` runs out first, and never in
    exit 1 or an exception."""
    config = write_config(
        tmp_path, model=model, risk=risk, discount=0.9, tolerance=1e-300, max_sweeps=max_sweeps
    )
    code = main(["solve", "-c", config])
    err = capsys.readouterr().err
    assert code in (0, 3)
    if code == 0:
        report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
        assert report["converged"] and report["residuals"][-1] == 0.0
    else:
        assert "config.max_sweeps=" in err and "config.tolerance=1e-300 " in err


def test_sweep_error_paths(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["sweep", "-c", config, "--param", "kappa", "--values", "0.2,0.8"]) == 2
    assert "kappa" in capsys.readouterr().err
    assert main(["sweep", "-c", config, "--param", "alpha", "--values", ""]) == 2
    capsys.readouterr()
    assert main(["sweep", "-c", config, "--param", "alpha", "--values", "0.1,zebra"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_and_missing_args_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["solve"]) == 2
    assert main(["sweep", "--param", "resolution"]) == 2
    capsys.readouterr()


def test_console_entry_point_is_wired():
    import riskdp.cli as cli

    assert callable(cli.main)
    # declared in pyproject as riskdp = "riskdp.cli:main"
    from importlib.metadata import entry_points

    eps = entry_points()
    scripts = eps.select(group="console_scripts") if hasattr(eps, "select") else eps["console_scripts"]
    names = {ep.name: ep.value for ep in scripts}
    assert names.get("riskdp") == "riskdp.cli:main"
