"""riskdp benchmark: seeded workloads, end-to-end timings, a traced per-layer run.

Run from the root of a checkout; nothing needs installing, ``src`` is put on
the import path and the console script is not used:

    python3 bench/run.py --workload lq-solve --seed 1 --seconds 50 --trace 0

A run builds the workload's inputs from ``--seed`` (the program only sees
the generated config and model files), runs a negative control, and then
repeats the workload's command sequence through ``riskdp.cli.main`` in this
one process and thread for ``--seconds`` seconds, after one warm-up
operation.  Fresh-interpreter set-up probes are spread over the same
window, and the calibration tasks of ``calibration.py`` run next to the
operations and the probes.  Every command's outputs are checked
(``checks.py``); on inputs that match ``reference.json``, recorded
from the default seed, they must also equal the recorded outputs.  An
operation that exits nonzero, raises, or fails a check counts as failed and
is not timed.  Scratch files go to ``.bench_work/`` inside the checkout.

End-to-end metrics (``--trace 0``), medians over the run.  The two times
are wall times scaled to the reference machine's quiet speed: each sample
is divided by the calibration timed next to it, and the median ratio is
multiplied by the reference calibration time.  This takes out the shared
host's drift in speed and leaves riskdp's own cost.

- ``setup_s``: a fresh interpreter importing ``riskdp`` and running
  ``cli.load_config`` and ``cli.build_model``; every CLI call pays it.
- ``op_s``: one operation, the workload's command sequence.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

The table above the result line also gives ``solve_s``, ``evaluate_s``,
``verify_s`` and ``sweep_s`` (per command, n/a where the workload does not
run it), ``output_bytes`` (bytes left in the output directory plus bytes
printed) and ``error_rate``.  Those stay out of the result line because
each metric there must apply to every workload and never be 0; the error
rate is carried by ``attempted`` and ``failed``.  The table's times are
raw wall times; the scaled ones follow it.

``--trace 1`` alternates untraced and traced operations.  The traced ones
give the per-layer metrics of one operation (``spans.py``); their counts
must repeat exactly and agree with the program's outputs, and the ratio of
the traced to the untraced median is ``trace.overhead_ratio``.
``bench.op_wall_s`` and ``bench.setup_wall_s`` are the raw median times,
``bench.calib_batch_s`` and ``bench.calib_import_s`` the median
calibration times.  The spans are written to
``.bench_work/trace-<workload>.csv``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record-reference``
re-records ``reference.json``.

Sizes: the ROADMAP's S/M/L configs (41x9x5, 201x21x9, 1001x41x15) do not
fit.  With the scalar Bellman sweep one M solve takes about 2 minutes and
one L solve more than an hour, too long to repeat for every check.  The
workloads below finish in seconds on a 2-core Xeon with Python 3.11 and
numpy 2.4.  M and L can join once the batched sweep has landed.

Two more workloads were tried and left out because the run-to-run spread
of their raw wall times on that box reached the ``op_s`` bound:
``tabular-kusuoka`` (60 states x 4 actions, dense Dirichlet rows, Kusuoka
mixture, the sort-heavy risk path; 10-28%) and ``investment-sweep`` (one
investment model, three ``sweep`` solves; 22%).  They were not tried with
the calibrated times: 50-second runs leave room for two workloads in the
time a full check may take.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import calibration
import checks
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
DEFAULT_SEED = 0
#: the end-to-end metrics of the result line (see BENCHMARK.json)
END_TO_END = ("setup_s", "op_s", "peak_rss_mb")
#: fresh interpreters timed per run; the median is reported
SETUP_REPEATS = 21
#: calibration time before the first operation and after each (``calibration.py``)
CALIBRATION_S = 0.4

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import riskdp.cli
riskdp.cli.build_model(riskdp.cli.load_config(sys.argv[1]))
print(time.perf_counter() - start)
"""

# The README's LQ config (41 grid points x 9 actions x 5 atoms).
S_LQ = {
    "sigma": 1.0, "action_bound": 2.0, "x_lo": -3.0, "x_hi": 3.0,
    "grid_points": 41, "n_actions": 9, "noise_atoms": 5,
}


# ---------------------------------------------------------------------------
# workloads: each returns {file name: JSON document} and the command
# sequence of one operation; "{dir}" stands for the inputs directory and
# every config writes to "{dir}/out".


def _lq_solve(seed):
    """LQ 41 x 9 x 7, AVaR 0.7, beta 0.6, horizon 30: ``solve`` then
    ``evaluate`` of the written ``policy.csv``.

    The dynamics path: a Python ``next_state`` callback, ``interpolate`` and
    ``np.unique`` per (state, action) pair, few atoms and many pairs.  At
    the seed commit a solve runs 41-42 VI sweeps plus 13 repeated backward
    sweeps; traced self time is ``successor_distribution`` 53%,
    ``interpolate`` 29% and ``avar_primal`` 14%.  The batched successor
    operator and the equal-weight sort-free tail average (ROADMAP item 2)
    and dropping the repeated sweeps (item 3) act here.  The seed draws
    sigma from [0.9, 1.1]; the sweep counts stay the same.

    The grid is the README's 41 x 9 rather than 61 x 11 (about 5 s per
    solve) so that a run holds about ten operations: on a shared 2-core
    box, ten seeds of five 5 s operations per run spread by 26% (quartile
    distance over median), against 6-19% at 41 x 9.
    """
    rng = np.random.default_rng(seed)
    lq = dict(S_LQ, sigma=float(rng.uniform(0.9, 1.1)), noise_atoms=7)
    config = {
        "model": {"lq": lq},
        "risk": {"kind": "avar", "alpha": 0.7},
        "discount": 0.6,
        "horizon": 30,
    }
    return {"config.json": config}, [
        ["solve", "-c", "{dir}/config.json"],
        ["evaluate", "-c", "{dir}/config.json", "-p", "{dir}/out/policy.csv"],
    ]


def _verify_config(seed, horizon):
    return {
        "model": {"lq": dict(S_LQ)},
        "risk": {"kind": "avar", "alpha": 0.5},
        "discount": 0.5,
        "horizon": horizon,
        "seed": seed,
    }


def _verify_oracles(seed):
    """``verify`` at horizon 3 with the workload seed as the config seed.

    About 2.2 s at the seed commit, ``exhaustive_policy_search`` 59% and
    ``avar_lp_oracle`` 18%.  The fixtures have 4 states, so fixed per-call
    overhead dominates: a batching change that adds set-up cost per call
    shows here as a regression, and the large-model paths are bypassed, so
    ROADMAP items 2-3 predict no change.
    """
    return {"config.json": _verify_config(seed, 3)}, [["verify", "-c", "{dir}/config.json"]]


def _negative_control(seed):
    """``verify --corrupt-cap 2``, which must exit 1 with a counterexample.

    Horizon 0 keeps the exhaustive search small; the corrupted density cap
    makes the tail-average suite fail on its first check."""
    return {"config.json": _verify_config(seed, 0)}, [
        ["verify", "-c", "{dir}/config.json", "--corrupt-cap", "2"]
    ]


WORKLOADS = {
    "lq-solve": _lq_solve,
    "verify-oracles": _verify_oracles,
}


class Inputs:
    """A workload's generated input files, written under ``directory``."""

    def __init__(self, generator, seed, directory):
        files, templates = generator(seed)
        self.out_dir = os.path.join(directory, "out")
        texts = {name: json.dumps(doc) for name, doc in files.items()}
        digest = hashlib.sha256(json.dumps([texts, templates], sort_keys=True).encode())
        self.sha256 = digest.hexdigest()
        os.makedirs(directory)
        for name, text in texts.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.commands = [[arg.replace("{dir}", directory) for arg in t] for t in templates]
        self.config_path = self.commands[0][2]


# ---------------------------------------------------------------------------
# running commands


def run_command(cli, argv):
    """Run one CLI command in-process; returns (seconds, exit code, stdout).

    A traceback is reported on stderr and gives exit code None."""
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        code = None
        print(f"{argv[0]}: traceback\n{traceback.format_exc()}", file=sys.stderr)
    return time.perf_counter() - start, code, stdout.getvalue()


def run_operation(cli, inputs):
    """Run a workload's command sequence on a clean output directory.

    Returns per-command wall times, the output summaries, the output byte
    count and the list of problems; a command that fails stops the
    sequence."""
    shutil.rmtree(inputs.out_dir, ignore_errors=True)
    times, summaries, problems, printed = [], [], [], 0
    for argv in inputs.commands:
        seconds, code, stdout = run_command(cli, argv)
        printed += len(stdout.encode())
        summary, found = checks.summarize(argv, code, stdout, inputs.out_dir)
        times.append(seconds)
        summaries.append(summary)
        problems += found
        if summary is None:
            break
    written = sum(
        os.path.getsize(os.path.join(inputs.out_dir, name))
        for name in (os.listdir(inputs.out_dir) if os.path.isdir(inputs.out_dir) else ())
    )
    return times, summaries, written + printed, problems


def time_probe(code, *args):
    """Seconds that a fresh interpreter running ``code`` prints, or None
    and the problem."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return None, [f"probe: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    return float(proc.stdout.strip().splitlines()[-1]), []


def count_problems(name, inputs, summaries, layer, reference):
    """Tracer counts that must agree with the program's own outputs."""
    problems = []
    by_command = dict(zip((c[0] for c in inputs.commands), summaries))
    if "solve" in by_command:
        solve = by_command["solve"]
        if layer["solver.vi_sweeps"] != solve["sweeps"]:
            problems.append(f"solver.vi_sweeps {layer['solver.vi_sweeps']} != report.json sweeps {solve['sweeps']}")
        if layer["solver.backward_sweeps"] != solve["n0"] + 1:
            problems.append(f"solver.backward_sweeps {layer['solver.backward_sweeps']} != N0 + 1 = {solve['n0'] + 1}")
        with open(inputs.config_path, "r", encoding="utf-8") as fh:
            horizon = json.load(fh)["horizon"]
        with open(os.path.join(inputs.out_dir, "report.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        n, m = len(report["grid"]), len(report["actions"])
        sweeps = layer["solver.vi_sweeps"] + layer["solver.backward_sweeps"]
        expected = sweeps * n * m + (horizon + 1) * n
        if layer["model.successor_calls"] != expected:
            problems.append(
                f"model.successor_calls {layer['model.successor_calls']} != "
                f"{sweeps} sweeps x {n * m} pairs + {horizon + 1} x {n} evaluate calls = {expected}"
            )
    if "verify" in by_command:
        tail_checks = by_command["verify"]["suites"][0][1]
        if layer["oracle.lp_calls"] != tail_checks:
            problems.append(f"oracle.lp_calls {layer['oracle.lp_calls']} != tail-average checks {tail_checks}")
    if reference is not None:
        problems += checks.compare(_counts(layer), reference["counts"], "counts")
    return [f"{name}: count check: {p}" for p in problems]


def _counts(layer):
    return {k: v for k, v in layer.items() if isinstance(v, int)}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine_info(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one benchmark run


class Tally:
    """Operations attempted and failed; only operations that pass are timed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {False: [], True: []}
        #: the calibration batch time next to each sample
        self.batch_s = {False: [], True: []}

    def record(self, found, times=None, traced=False, batch_s=None):
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems += found
        elif times is not None:
            self.samples[traced].append(times)
            self.batch_s[traced].append(batch_s)
        return not found


def negative_control(cli, seed, work_dir):
    """Problems with the failure accounting: a ``verify`` run against a
    corrupted oracle must be counted as failed and give no timing."""
    control = Inputs(_negative_control, seed, work_dir)
    tally = Tally()
    times, _, _, found = run_operation(cli, control)
    tally.record(found, times)
    counterexample = os.path.isfile(os.path.join(control.out_dir, "counterexample.json"))
    if found != ["verify: exit code 1"] or not counterexample:
        return [f"negative control: expected exit code 1 and a counterexample, got {found}"]
    if tally.failed != 1 or any(tally.samples.values()):
        return ["negative control: the failed run was not counted as failed"]
    return []


def bench(cli, name, seed, seconds, trace, work_dir):
    reference = _load_reference().get(name)
    inputs = Inputs(WORKLOADS[name], seed, os.path.join(work_dir, "inputs"))
    if reference is not None and reference["inputs_sha256"] != inputs.sha256:
        reference = None
    tally = Tally()
    setup_times, import_times, probes = [], [], 0

    def probe_setup():
        nonlocal probes
        probes += 1
        setup, found = time_probe(SETUP_PROBE, inputs.config_path)
        if tally.record(found):
            seconds, found = time_probe(calibration.IMPORT_PROBE)
            if tally.record(found):
                setup_times.append(setup)
                import_times.append(seconds)

    self_check = negative_control(cli, seed, os.path.join(work_dir, "control"))

    _, summaries, _, found = run_operation(cli, inputs)
    if reference is not None and not found:
        found = checks.compare(summaries, reference["outputs"], name)
    tally.record(found)  # warm-up: checked, not timed

    tracer = Tracer() if trace else None
    layers, output_bytes, runs = [], [], {False: 0, True: 0}
    traced = False
    batch_before = calibration.seconds_per_batch(CALIBRATION_S)
    loop_start = time.perf_counter()
    while True:
        if traced:
            tracer.op_id = runs[True]
            tracer.install()
        try:
            times, summaries, written, found = run_operation(cli, inputs)
        finally:
            if traced:
                tracer.uninstall()
        batch_after = calibration.seconds_per_batch(CALIBRATION_S)
        runs[traced] += 1
        if reference is not None and not found:
            found = checks.compare(summaries, reference["outputs"], name)
        if traced and not found:
            layers.append(tracer.layer_metrics(tracer.op_id))
            found = count_problems(name, inputs, summaries, layers[-1], reference)
        if tally.record(found, times, traced, (batch_before + batch_after) / 2):
            output_bytes.append(written)
        batch_before = batch_after
        if trace:
            traced = not traced
        pending = tally.samples[traced][-1] if tally.samples[traced] else times
        # set-up probes are spread over the run so that their median, like
        # the operations', does not rest on one phase of the machine's load
        while probes < SETUP_REPEATS and time.perf_counter() - loop_start >= probes * seconds / SETUP_REPEATS:
            probe_setup()
        must_trace = trace and runs[True] == 0
        if not must_trace and time.perf_counter() - loop_start + CALIBRATION_S + sum(pending) > seconds:
            break
    while probes < SETUP_REPEATS:
        probe_setup()

    for k, layer in enumerate(layers[1:], start=1):
        if _counts(layer) != _counts(layers[0]):
            tally.record([f"{name}: count check: counts of traced operation {k} differ from operation 0"])
    if tracer is not None:
        tracer.write_csv(os.path.join(WORK_ROOT, f"trace-{name}.csv"))
    return {
        "inputs": inputs,
        "reference_checked": reference is not None,
        "setup_times": setup_times,
        "import_times": import_times,
        "tally": tally,
        "layers": layers,
        "output_bytes": output_bytes,
        "self_check": self_check,
    }


def end_to_end(result):
    """Every end-to-end metric by name: (values, unit); None where the
    workload does not run the command."""
    tally = result["tally"]
    untraced = tally.samples[False]
    commands = [c[0] for c in result["inputs"].commands]
    table = {"setup_s": (result["setup_times"], "s")}
    for command in ("solve", "evaluate", "verify", "sweep"):
        k = commands.index(command) if command in commands else None
        table[f"{command}_s"] = (None if k is None else [t[k] for t in untraced], "s")
    table["op_s"] = ([sum(times) for times in untraced], "s")
    table["peak_rss_mb"] = ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB")
    table["output_bytes"] = (result["output_bytes"], "bytes")
    table["error_rate"] = ([tally.failed / tally.attempted], "ratio")
    table["calib_batch_s"] = (tally.batch_s[False], "s")
    table["calib_import_s"] = (result["import_times"], "s")
    return table


def scaled_times(result):
    """The end-to-end times at the reference machine's quiet speed: each
    sample over the calibration timed next to it, and the median of those
    ratios times the reference calibration time (``calibration.py``)."""
    tally = result["tally"]
    ops = [sum(times) / batch for times, batch in zip(tally.samples[False], tally.batch_s[False])]
    setups = [setup / speed for setup, speed in zip(result["setup_times"], result["import_times"])]
    return {
        "setup_s": _median(setups) * calibration.REFERENCE_IMPORT_S,
        "op_s": _median(ops) * calibration.REFERENCE_BATCH_S,
    }


def per_layer(result):
    """Per-layer metrics of one operation: medians of the traced operations'
    times, their (identical) counts, and the tracing overhead."""
    layers = result["layers"]
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        metrics[key] = values[0] if isinstance(values[0], int) else _median(values)
    samples = result["tally"].samples
    traced = [sum(times) for times in samples[True]]
    untraced = [sum(times) for times in samples[False]]
    metrics["trace.overhead_ratio"] = _median(traced) / _median(untraced)
    metrics["bench.op_wall_s"] = _median(untraced)
    metrics["bench.setup_wall_s"] = _median(result["setup_times"])
    metrics["bench.calib_batch_s"] = _median(result["tally"].batch_s[False])
    metrics["bench.calib_import_s"] = _median(result["import_times"])
    metrics["cli.output_bytes"] = result["output_bytes"][0]
    return metrics


SPECIAL_UNITS = {
    "solver.bellman_update_s": "s/call",
    "solver.pairs_per_s": "1/s",
    "risk.ns_per_atom": "ns",
    "cli.output_bytes": "bytes",
}


def _layer_unit(key):
    if key in SPECIAL_UNITS:
        return SPECIAL_UNITS[key]
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith("_ratio") else "count"


def _load_reference():
    try:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record_reference(cli):
    """Record every workload's outputs and counts at the default seed."""
    recorded = {}
    for name, generator in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work_dir:
            inputs = Inputs(generator, DEFAULT_SEED, os.path.join(work_dir, "inputs"))
            tracer = Tracer()
            tracer.install()
            try:
                _, summaries, _, problems = run_operation(cli, inputs)
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics(0)
            problems += count_problems(name, inputs, summaries, layer, None)
            if problems:
                raise SystemExit(f"{name}: cannot record a reference: {problems}")
            recorded[name] = {
                "inputs_sha256": inputs.sha256,
                "outputs": summaries,
                "counts": _counts(layer),
            }
            print(f"recorded {name}", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "riskdp", "cli.py")):
        print(f"error: no riskdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import riskdp.cli as cli

    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.record_reference:
        record_reference(cli)
        return 0

    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result = bench(cli, args.workload, args.seed, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"riskdp benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine: " + json.dumps(machine_info(args.seed)))
    print(f"inputs: sha256 {result['inputs'].sha256[:16]}, reference "
          f"{'matched' if result['reference_checked'] else 'absent (invariant checks only)'}")
    tally = result["tally"]
    for problem in tally.problems + result["self_check"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    table = end_to_end(result)
    print(f"{'metric':<14} {'median':>12}  {'min':>12} {'q1':>12} {'q3':>12}  {'n':>3}  unit")
    for key, (values, unit) in table.items():
        if not values:
            print(f"{key:<14} {'n/a':>12}  {'':>12} {'':>12} {'':>12}  {'':>3}  {unit}")
            continue
        q1, q3 = _quartiles(values)
        print(f"{key:<14} {_median(values):>12.6g}  {min(values):>12.6g} {q1:>12.6g} {q3:>12.6g}  {len(values):>3}  {unit}")

    if args.trace:
        values = per_layer(result) if result["layers"] and tally.samples[False] else {}
        for key, value in values.items():
            print(f"{key:<30} {value:>14.6g}  {_layer_unit(key)}")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    else:
        scaled = scaled_times(result)
        print("result (times scaled to the reference machine's quiet speed):")
        metrics = {}
        for key in END_TO_END:
            values, unit = table[key]
            if values:
                value = scaled.get(key, _median(values))
                metrics[key] = {"value": value, "unit": unit}
                print(f"  {key:<12} {value:>12.6g}  {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and not result["self_check"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
