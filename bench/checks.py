"""Correctness checks on the outputs of one riskdp command.

``summarize`` reads what a command wrote (files in its output directory and
its standard output) into a small JSON-ready summary and lists every
property that holds without a reference: a converged, pointwise
nondecreasing value iteration, ``values.csv`` equal to the converged value,
one policy stage per horizon step, finite evaluated values and every
verify suite passing.

``compare`` matches a summary against the reference recorded from an
earlier commit on the same inputs: floats within ``VALUE_TOL``, everything
else (rules, horizons, sweep counts, check counts) exactly.
"""

from __future__ import annotations

import json
import math
import os
import re

VALUE_TOL = 1e-12

_SUITE_LINE = re.compile(r"^(?P<name>.+?)\s+checks=(?P<checks>\d+)\s+max_error=\S+\s+(?P<status>pass|FAIL)$")


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    return rows[0], rows[1:]


def _values_csv(path, problems):
    header, rows = _read_csv(path)
    if header != ["state", "value"]:
        problems.append(f"{path}: unexpected header {header}")
    values = [float(v) for _, v in rows]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        problems.append(f"{path}: values must be finite and nonnegative")
    return values


def _summarize_solve(out_dir, problems):
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    iterates = report["values_per_iteration"]
    if not report["converged"]:
        problems.append("solve: value iteration did not converge")
    if len(iterates) != len(report["residuals"]) + 1:
        problems.append("solve: one iterate per sweep expected")
    for k, (before, after) in enumerate(zip(iterates, iterates[1:]), start=1):
        if any(b > a + VALUE_TOL for b, a in zip(before, after)):
            problems.append(f"solve: values_per_iteration decreased at sweep {k}")
            break
    values = _values_csv(os.path.join(out_dir, "values.csv"), problems)
    if values != report["converged_value"]:
        problems.append("solve: values.csv differs from the converged value")
    header, rows = _read_csv(os.path.join(out_dir, "policy.csv"))
    rules = {}
    for stage, _, action in rows:
        rules.setdefault(stage, []).append(action)
    n0 = report["horizon"]
    if header != ["stage", "state", "action"] or sorted(rules, key=int) != [
        str(s) for s in range(-1, n0 + 1)
    ]:
        problems.append(f"solve: policy.csv must hold stages 0..{n0} and the tail rule")
    return {
        "values": values,
        "rules": [[stage, " ".join(actions)] for stage, actions in rules.items()],
        "n0": n0,
        "sweeps": len(report["residuals"]),
    }


def _summarize_evaluate(out_dir, problems):
    return {"values": _values_csv(os.path.join(out_dir, "values.csv"), problems)}


def _summarize_verify(stdout, problems):
    suites = []
    for line in stdout.splitlines():
        match = _SUITE_LINE.match(line.strip())
        if match:
            suites.append([match["name"], int(match["checks"]), match["status"] == "pass"])
            if match["status"] != "pass":
                problems.append(f"verify: suite {match['name']!r} failed")
    if len(suites) != 5:
        problems.append(f"verify: expected 5 suite lines, found {len(suites)}")
    return {"suites": suites}


def summarize(argv, exit_code, stdout, out_dir):
    """Summary of one command's outputs and the reference-free problems."""
    problems = []
    if exit_code != 0:
        return None, [f"{argv[0]}: exit code {exit_code}"]
    command = argv[0]
    try:
        if command == "solve":
            summary = _summarize_solve(out_dir, problems)
        elif command == "evaluate":
            summary = _summarize_evaluate(out_dir, problems)
        elif command == "verify":
            summary = _summarize_verify(stdout, problems)
        else:
            raise ValueError(f"no check for command {command!r}")
    except (OSError, ValueError, KeyError) as exc:
        return None, [f"{command}: unreadable output: {exc}"]
    return summary, problems


def compare(summary, reference, where="output"):
    """Differences between a summary and its reference, as messages."""
    if isinstance(reference, float) and isinstance(summary, (int, float)):
        if abs(summary - reference) > VALUE_TOL:
            return [f"{where}: {summary!r} differs from reference {reference!r}"]
        return []
    if isinstance(reference, dict) and isinstance(summary, dict):
        if set(summary) != set(reference):
            return [f"{where}: keys {sorted(summary)} differ from {sorted(reference)}"]
        return [m for key in reference for m in compare(summary[key], reference[key], f"{where}.{key}")]
    if isinstance(reference, list) and isinstance(summary, list):
        if len(summary) != len(reference):
            return [f"{where}: length {len(summary)} differs from reference {len(reference)}"]
        return [
            m
            for k, (s, r) in enumerate(zip(summary, reference))
            for m in compare(s, r, f"{where}[{k}]")
        ]
    if summary != reference or type(summary) is not type(reference):
        return [f"{where}: {summary!r} differs from reference {reference!r}"]
    return []
