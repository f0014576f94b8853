"""Fuzz the configuration documents: a small valid LQ or investment config
with some of its fields replaced by values of the wrong type, negative,
zero, huge, non-finite, ``null``, list or object values must end in one of
the documented exit codes (0-4), never in a traceback or a numpy warning.
A config that is accepted must be echoed in ``report.json`` as written: a
value is never cast to its field's type (an integer may stand for a real)."""

import json
import os
import sys
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskdp.cli import main

MODELS = {
    "lq": {
        "sigma": 1.0, "action_bound": 1.0, "x_lo": -1.0, "x_hi": 1.0,
        "grid_points": 5, "n_actions": 3, "noise_atoms": 3,
    },
    "investment": {
        "mu": 0.08, "r": 0.02, "sigma": 0.3, "action_bound": 2.0,
        "wealth_lo": 0.0, "wealth_hi": 2.0, "grid_points": 5, "n_actions": 3,
        "noise_atoms": 3,
    },
}
RISKS = (
    {"kind": "expectation"},
    {"kind": "avar", "alpha": 0.5},
    {"kind": "mean_deviation", "kappa": 0.3},
    {"kind": "kusuoka", "components": [[0.0, 0.5], [0.6, 0.5]]},
)
REPLACEMENTS = (
    None, [], [1.0], {}, {"a": 1}, "x", "", True, False,
    0, 0.0, -1, -1.0, -0.5, 2, 0.5,
    10 ** 18, 10 ** 100, 1e300, -1e300, sys.float_info.max,
    float("nan"), float("inf"), float("-inf"),
)


@st.composite
def config_documents(draw):
    """A small valid config, then one to three of its fields replaced."""
    kind = draw(st.sampled_from(sorted(MODELS)))
    doc = {
        "model": {kind: dict(MODELS[kind])},
        "risk": dict(draw(st.sampled_from(RISKS))),
        "discount": draw(st.floats(0.1, 0.9)),
        "epsilon": draw(st.floats(1e-3, 1.0)),
        "tolerance": 1e-8,
        "max_sweeps": 500,
        "horizon": 2,
        "seed": 0,
        "output_dir": "out",
    }
    parents = [doc, doc["model"][kind], doc["risk"]]
    for _ in range(draw(st.integers(1, 3))):
        parent = draw(st.sampled_from(parents))
        key = draw(st.sampled_from(sorted(parent)))
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return doc


def _found(kind, risk=None, **fields):
    """A config the random draws rarely reach that once ended in a
    traceback, or was run with its values silently cast; a field named
    ``config_<key>`` sets the config key ``<key>``."""
    keys = {name[7:]: fields.pop(name) for name in list(fields) if name.startswith("config_")}
    return {
        "model": {kind: dict(MODELS[kind], **fields)},
        "risk": risk or {"kind": "avar", "alpha": 0.5},
        "discount": 0.5,
        "output_dir": "out",
        **keys,
    }


def _json_type(value):
    """The JSON type of a parsed value: a number whether int or float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float
    return type(value)


def _echoes(written, echoed):
    """Whether ``echoed`` repeats ``written`` with the same JSON types; an
    integer given for a real is echoed as the nearest float."""
    if isinstance(written, dict):
        return isinstance(echoed, dict) and written.keys() == echoed.keys() and all(
            _echoes(value, echoed[key]) for key, value in written.items()
        )
    if isinstance(written, list):
        return isinstance(echoed, list) and len(written) == len(echoed) and all(
            _echoes(a, b) for a, b in zip(written, echoed)
        )
    if isinstance(echoed, float) and _json_type(written) is float:
        return float(written) == echoed
    return _json_type(written) is _json_type(echoed) and written == echoed


@settings(max_examples=150, deadline=None)
@given(config_documents())
# sigma ** 2 raised OverflowError in the horizon bound
@example(_found("lq", sigma=1e300))
# an infinite growth factor made zero wealth's successor NaN
@example(_found("investment", sigma=sys.float_info.max))
@example(_found("investment", mu=sys.float_info.max))
# the value bound wealth_hi / (1 - discount) overflowed, and value iteration
# raised on its infinite values
@example(_found("investment", wealth_hi=sys.float_info.max))
# bounds whose width overflows, and a last grid step that rounds past the
# largest float, made np.linspace warn
@example(_found("lq", x_lo=-1e308, x_hi=1e308))
@example(_found("investment", wealth_hi=sys.float_info.max, grid_points=7))
# an action range 2 * action_bound that overflows made np.linspace warn
@example(_found("lq", action_bound=1e308))
@example(_found("investment", action_bound=1e308))
# values cast to the field's type: a count from a float, a real from a
# string, an integer from a boolean, a directory name from a number
@example(_found("lq", grid_points=5.9))
@example(_found("lq", config_max_sweeps=2.9))
@example(_found("lq", config_discount="0.5"))
@example(_found("lq", risk={"kind": "avar", "alpha": "0.5"}))
@example(_found("lq", config_seed=True))
@example(_found("lq", config_output_dir=5))
def test_solve_on_a_fuzzed_config_returns_a_documented_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(["solve", "-c", path])
        assert code in (0, 1, 2, 3, 4)
        if code == 0:
            assert isinstance(doc["output_dir"], str)
            out = os.path.join(tmp, doc["output_dir"])
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                echo = json.load(fh)["config"]
            assert _echoes({**doc, "output_dir": out}, {key: echo[key] for key in doc})
