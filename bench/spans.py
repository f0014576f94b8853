"""Span tracer that times riskdp's public functions from outside the package.

``Tracer.install`` wraps every public function defined in ``riskdp.cli``,
``riskdp.model``, ``riskdp.risk``, ``riskdp.solver`` and ``riskdp.oracle``.
The package imports functions by name into other modules (``solver`` holds
``successor_distribution`` and ``evaluate``, ``cli`` holds the solver and
oracle functions, ``riskdp`` re-exports everything), so the wrapper replaces
every module-level binding of the original object; a binding left unpatched
would silently count nothing.  ``uninstall`` restores the originals.

Each call records a span ``(operation id, parent span, name, start, end)``
in memory; a layer's self time is its span minus its direct child spans.
A few counts that the span boundaries cannot show (atoms in and out of the
successor distribution, atoms seen by the risk kernel, policy sequences
enumerated, scenario-tree nodes built) are read off the call arguments and
results at the same boundaries.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "model", "risk", "solver", "oracle")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_successor(counts, args, kwargs, result):
    from riskdp.model import Tabular

    model = _arg(args, kwargs, 0, "model")
    mechanism = model.transition
    if isinstance(mechanism, Tabular):
        i = _arg(args, kwargs, 1, "state_index")
        a = _arg(args, kwargs, 2, "action_index")
        produced = int((mechanism.kernel[i, a] > 0.0).sum())
    else:
        produced = len(mechanism.noise.dist.values)
    counts["model.atoms_in"] += produced
    counts["model.atoms_out"] += len(result)


def _count_risk_atoms(counts, args, kwargs, result):
    counts["risk.atoms"] += len(_arg(args, kwargs, 1, "dist"))


def _count_sequences(counts, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    depth = _arg(args, kwargs, 2, "depth")
    rules = 1
    for i in range(model.n_states):
        rules *= len(model.actions.indices_for(i))
    counts["oracle.sequences"] += rules ** (depth + 1)


def _count_tree_nodes(counts, args, kwargs, result):
    counts["oracle.tree_nodes"] += result.n_nodes


COUNTERS = {
    "model.successor_distribution": _count_successor,
    "risk.evaluate": _count_risk_atoms,
    "oracle.exhaustive_policy_search": _count_sequences,
    "oracle.build_scenario_tree": _count_tree_nodes,
}


class Tracer:
    """In-memory spans and counts for calls into riskdp's layers."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.op_id = 0
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op_id, parent, name, start, end)
            if counter is not None:
                counter(self.counts[self.op_id], args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every binding of each public layer function by a wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"riskdp.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    if hasattr(obj, "__wrapped__"):
                        raise RuntimeError(f"riskdp.{layer}.{attr} is already wrapped")
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "riskdp" or name.startswith("riskdp.")
        ]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(namespace, attr, entry[1])
                    self._patched.append((namespace, attr, obj))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def write_csv(self, path):
        """Write every recorded span, times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "span", "parent", "name", "start_ns", "end_ns"])
            for index, (op, parent, name, start, end) in enumerate(self.spans):
                out.writerow([op, index, parent, name, start - origin, end - origin])

    def layer_metrics(self, op_id):
        """Per-layer metrics of one traced operation (times in seconds)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == op_id]
        names = {i: s[2] for i, s in spans}
        duration = {i: (s[4] - s[3]) * 1e-9 for i, s in spans}
        child_time = defaultdict(float)
        for i, s in spans:
            if s[1] >= 0:
                child_time[s[1]] += duration[i]
        inclusive, self_time = defaultdict(float), defaultdict(float)
        calls, under = Counter(), Counter()
        for i, s in spans:
            name = s[2]
            inclusive[name] += duration[i]
            self_time[name] += duration[i] - child_time[i]
            calls[name] += 1
            under[(name, names.get(s[1]))] += 1
        layer_self = defaultdict(float)
        for name, t in self_time.items():
            layer_self[name.split(".", 1)[0]] += t
        counts = self.counts[op_id]

        bellman_calls = calls["solver.bellman_update"]
        vi = under[("solver.bellman_update", "solver.value_iterate")]
        backward = under[("solver.bellman_update", "solver.backward_induct")]
        pairs = under[("model.successor_distribution", "solver.bellman_update")]
        atoms_in = counts["model.atoms_in"]
        return {
            "cli.load_config_s": inclusive["cli.load_config"],
            "cli.build_model_s": inclusive["cli.build_model"],
            "cli.write_s": inclusive["cli.write_values_csv"] + inclusive["cli.write_policy_csv"],
            "cli.self_s": layer_self["cli"],
            "model.self_s": layer_self["model"],
            "model.successor_calls": calls["model.successor_distribution"],
            "model.successor_self_s": self_time["model.successor_distribution"],
            "model.interpolate_calls": calls["model.interpolate"],
            "model.interpolate_s": inclusive["model.interpolate"],
            "model.atoms_in": atoms_in,
            "model.atoms_out": counts["model.atoms_out"],
            "model.merge_ratio": counts["model.atoms_out"] / atoms_in if atoms_in else 0.0,
            "risk.self_s": layer_self["risk"],
            "risk.evaluate_calls": calls["risk.evaluate"],
            "risk.evaluate_s": inclusive["risk.evaluate"],
            "risk.avar_primal_calls": calls["risk.avar_primal"],
            "risk.avar_primal_s": inclusive["risk.avar_primal"],
            "risk.atoms": counts["risk.atoms"],
            "risk.ns_per_atom": (
                inclusive["risk.evaluate"] * 1e9 / counts["risk.atoms"]
                if counts["risk.atoms"]
                else 0.0
            ),
            "risk.avar_dual_s": inclusive["risk.avar_dual"],
            "risk.mean_deviation_s": (
                inclusive["risk.mean_deviation_primal"] + inclusive["risk.mean_deviation_dual"]
            ),
            "solver.self_s": layer_self["solver"],
            "solver.vi_sweeps": vi,
            "solver.backward_sweeps": backward,
            "solver.repeated_sweep_ratio": backward / bellman_calls if bellman_calls else 0.0,
            "solver.bellman_update_s": (
                inclusive["solver.bellman_update"] / bellman_calls if bellman_calls else 0.0
            ),
            "solver.bellman_update_self_s": self_time["solver.bellman_update"],
            "solver.value_iterate_s": inclusive["solver.value_iterate"],
            "solver.backward_induct_s": inclusive["solver.backward_induct"],
            "solver.pairs_per_s": (
                pairs / inclusive["solver.bellman_update"] if bellman_calls else 0.0
            ),
            "solver.evaluate_policy_s": inclusive["solver.evaluate_policy"],
            "oracle.self_s": layer_self["oracle"],
            "oracle.exhaustive_s": inclusive["oracle.exhaustive_policy_search"],
            "oracle.sequences": counts["oracle.sequences"],
            "oracle.tree_s": inclusive["oracle.scenario_tree_value"],
            "oracle.tree_nodes": counts["oracle.tree_nodes"],
            "oracle.lp_calls": calls["oracle.avar_lp_oracle"],
            "oracle.lp_s": inclusive["oracle.avar_lp_oracle"],
            "oracle.risk_neutral_s": inclusive["oracle.risk_neutral_dp"],
        }
