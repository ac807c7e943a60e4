#!/usr/bin/env python3
"""ritzmesh benchmark: three mesh-adaptation workloads timed from outside.

Run from the repository root:

    python3 bench/run.py --workload adapt-arctan2d --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --self-test     # a few steps per workload, checks the schema
    python3 bench/run.py --record        # recompute bench/expected.json

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
run's environment.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, with --trace 1 the per-layer ones.  A failed
correctness check prints the result with "correct": false and exits 1.

The program is imported from src/ of the checkout, never from an
installed copy; without it the benchmark exits 2.  See README.md in
this directory for the workloads and the metric definitions.
"""

import time

T_START = time.perf_counter()   # the set-up probe times imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: numpy reads these when it is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from spans import Patches, Tracer, per_layer_names  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
TRACE_DIR = BENCH / "out"

#: the seed picks one of this many input variants, each with recorded e_final
VARIANTS = 16
#: e_final may drift from its recorded value by roundoff, not by more
E_FINAL_RTOL = 1e-6
#: gradient gate: central differences of the full pipeline, as in the
#: acceptance suite's criterion 1
GATE_N = 8
GATE_STEP = 1e-5
GATE_RTOL = 1e-5
#: moving nodes stay this far from fixed nodes in the gate, so no
#: finite-difference step crosses a relabeling or a material interface
GATE_CLEARANCE = 1e-3

# lshape runs at 1e-3: at N=128 the 1e-2 rate of the N=32 preset drives
# chain nodes into slivers beside the fixed lines x, y = 0.5, and for
# sigma = (1.833, 0.695) the solve breaks its residual contract at step 5
WORKLOADS = {
    "adapt-arctan2d": {"kind": "direct", "family": "arctan2d", "n": 16,
                       "options": {"mode": "quadrature", "order": 50},
                       "schedule": ((0, 1e-2),)},
    "adapt-lshape": {"kind": "direct", "family": "lshape", "n": 128, "options": {},
                     "schedule": ((0, 1e-3),)},
    "param-arctan1d": {"kind": "param", "family": "arctan1d", "n": 16, "options": {},
                       "schedule": ((0, 1e-2),)},
}
# acceptance criterion 7a's configuration.  Monitoring every 70 steps
# (once per 10 epochs) rather than the CLI's 10 keeps monitor steps out
# of the step-time p90: at 10 they are exactly a tenth of all steps, so
# p90 would sit on the edge between the two kinds of step
GRID_COUNTS = (10, 10)
BATCH = 10
MONITOR_EVERY = 70

#: instances per run, direct steps and parametric epochs per episode,
#: fresh set-up processes per run
FULL = {"instances": 4, "steps": 20, "epochs": 50, "setup_repeats": 5}
SMOKE = {"instances": 1, "steps": 3, "epochs": 1, "setup_repeats": 1}


def import_program():
    """Put the checkout's src/ first on the path; exit 2 if it is absent."""
    if not (SRC / "ritzmesh" / "__init__.py").is_file():
        print(f"benchmark: no program at {SRC / 'ritzmesh'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ritzmesh
    if Path(ritzmesh.__file__).resolve().parent != SRC / "ritzmesh":
        print(f"benchmark: imported ritzmesh from {ritzmesh.__file__}", file=sys.stderr)
        sys.exit(2)


# --------------------------------------------------------------------------
# inputs


def build_instances(spec, variant, sizes):
    """The run's inputs: problems (direct) or (seed, grid) pairs (param)."""
    from ritzmesh import problems, sampling

    count = sizes["instances"]
    if spec["kind"] == "param":
        axes = sampling.default_axes(spec["family"], counts=GRID_COUNTS)
        seeds = [variant * FULL["instances"] + i for i in range(count)]
        return [(s, sampling.split_train_test(axes, seed=s)) for s in seeds]
    tuples = sampling.build_grid(sampling.DEFAULT_AXES[spec["family"]])
    picks = np.random.default_rng(variant).choice(len(tuples), size=count, replace=False)
    return [problems.make_problem(spec["family"], sigma=tuple(float(v) for v in tuples[i]),
                                  n_elements=spec["n"], **spec["options"])
            for i in picks]


def entry(spec, instance, count):
    """Call the workload's public entry point with `count` steps or epochs."""
    from ritzmesh import training

    if spec["kind"] == "direct":
        return training.train_nonparametric(instance, schedule=spec["schedule"],
                                            iterations=count)
    seed, grid = instance
    return training.train_parametric(spec["family"], grid, spec["n"], schedule=spec["schedule"],
                                     epochs=count, batch=BATCH, seed=seed,
                                     monitor_every=MONITOR_EVERY)


# --------------------------------------------------------------------------
# episodes


@dataclass
class Episode:
    instance: int
    wall: float
    step_s: np.ndarray       # seconds between successive optimizer steps
    evals: int               # reduced-gradient evaluations attempted
    skipped: int
    e_final: float
    finals: list             # (final J, problem) pairs to check


class SkipCounter(logging.Handler):
    """Counts the samples train_parametric skips and logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if str(record.msg).startswith("skipping"):
            self.count += 1


def _stamping(fn, stamps):
    def stamped(*args, **kwargs):
        result = fn(*args, **kwargs)
        stamps.append(time.perf_counter())
        return result
    return stamped


def run_episode(spec, k, instance, sizes, skips, tracer=None):
    """One timed call of the entry point; traced if a tracer is given."""
    from ritzmesh import training
    from ritzmesh.pipeline import evaluate_mesh

    stamps = []
    before = skips.count
    with Patches() as patches:
        if tracer is not None:
            missing = tracer.install(patches)
            if missing:
                print(f"benchmark: not traced, gone from the program: {missing}",
                      file=sys.stderr)
            tracer.start()
        if spec["kind"] == "direct":
            start = time.perf_counter()
            _, history = training.train_nonparametric(
                instance, schedule=spec["schedule"], iterations=sizes["steps"],
                callback=lambda *_: stamps.append(time.perf_counter()))
            wall = time.perf_counter() - start
        else:
            if tracer is None:
                patches.replace("ritzmesh.training", "adam_step",
                                lambda fn: _stamping(fn, stamps))
            start = time.perf_counter()
            run = entry(spec, instance, sizes["epochs"])
            wall = time.perf_counter() - start
        if tracer is not None:
            tracer.stop()
    if spec["kind"] == "direct":
        # callback t follows step t's gradient; the last one follows a
        # final evaluation without a gradient and is left out
        _, J, e_final = history.rows[-1]
        return Episode(k, wall, np.diff(stamps[:-1]), sizes["steps"], 0, e_final,
                       [(J, instance)])
    _, grid = instance
    finals = []
    for sigma in grid.tuples[grid.monitor_idx]:
        problem = run.problem_for(sigma)
        finals.append((evaluate_mesh(problem, run.mesh_for(sigma)).J, problem))
    return Episode(k, wall, np.diff(stamps), sizes["epochs"] * grid.train_idx.size,
                   skips.count - before, run.history.rows[-1][2], finals)


def measure(spec, instances, sizes, seconds, skips, tracer):
    """Closed loop over the instances until the time is up and each ran once.

    With a tracer, every untraced episode is followed by a traced one on
    the same instance, so the two walls compare like for like.
    """
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    i = 0
    while i < len(instances) or time.perf_counter() < deadline:
        k = i % len(instances)
        untraced.append(run_episode(spec, k, instances[k], sizes, skips))
        if tracer is not None:
            traced.append(run_episode(spec, k, instances[k], sizes, skips, tracer))
        i += 1
    return untraced, traced


# --------------------------------------------------------------------------
# correctness


def _clear_theta(problem, rng):
    """Small random logits whose moving nodes keep clear of the fixed nodes."""
    fixed = [problem.fixed_nodes] if problem.dim == 1 else problem.fixed_nodes
    for _ in range(100):
        theta = rng.normal(0.0, 0.2, problem.theta_size)
        mesh = problem.build_mesh(theta)
        axes = [mesh] if problem.dim == 1 else [mesh.mesh_x, mesh.mesh_y]
        gaps = [np.abs(m.nodes[1:-1, None] - np.array(f, dtype=float)[None, :])
                for m, f in zip(axes, fixed)]
        if all(g[g > 1e-12].min(initial=1.0) >= GATE_CLEARANCE for g in gaps):
            return theta
    raise RuntimeError("could not draw logits clear of the fixed nodes")


def gradient_gate(spec, instances, variant):
    """Relative error of the reduced gradient against full-pipeline FD."""
    from ritzmesh import pipeline, problems

    first = instances[0]
    if spec["kind"] == "direct":
        sigma = first.sigma
    else:
        _, grid = first
        sigma = tuple(float(v) for v in grid.tuples[grid.train_idx[0]])
    problem = problems.make_problem(spec["family"], sigma=sigma, n_elements=GATE_N,
                                    **spec["options"])
    theta = _clear_theta(problem, np.random.default_rng(variant))
    _, grad = pipeline.evaluate_with_gradient(problem, theta)
    fd = pipeline.finite_difference_gradient(problem, theta, step=GATE_STEP)
    return float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))


def check_episodes(episodes, recorded):
    """Failures of the energy floor and of the recorded e_final, as text."""
    from ritzmesh.energy import ENERGY_SLACK
    from ritzmesh.loads import reference_ritz

    failures = []
    refs = {}
    for ep in episodes:
        for J, problem in ep.finals:
            key = (problem.family, problem.sigma)
            if key not in refs:
                refs[key] = reference_ritz(problem)
            if not J >= refs[key] - ENERGY_SLACK:
                failures.append(f"final J {J!r} below reference {refs[key]!r} for {key}")
        if recorded is not None:
            want = recorded[ep.instance]
            if not abs(ep.e_final - want) <= E_FINAL_RTOL * abs(want):
                failures.append(f"instance {ep.instance}: e_final {ep.e_final!r} != "
                                f"recorded {want!r} (rtol {E_FINAL_RTOL})")
    return failures


def start_error(spec, instance):
    """Error on the zero-logit mesh that adaptation starts from.

    For parametric runs it is the mean over the whole parameter grid the
    network is trained for, which is the same for every seed.
    """
    from ritzmesh.energy import relative_error
    from ritzmesh.loads import reference_ritz
    from ritzmesh.pipeline import evaluate
    from ritzmesh.problems import make_problem

    if spec["kind"] == "direct":
        cases = [instance]
    else:
        _, grid = instance
        cases = [make_problem(spec["family"], sigma=tuple(sigma), n_elements=spec["n"])
                 for sigma in grid.tuples]
    return float(np.mean([relative_error(evaluate(p).J, reference_ritz(p)) for p in cases]))


def load_recorded(workload, variant):
    with open(EXPECTED) as fh:
        return json.load(fh)[workload][str(variant)]


# --------------------------------------------------------------------------
# set-up time


def setup_probe(workload, seed, sizes):
    """Body of the fresh process that times imports and set-up."""
    import_program()
    spec = WORKLOADS[workload]
    for instance in build_instances(spec, seed % VARIANTS, sizes):
        entry(spec, instance, 0)
    return time.perf_counter() - T_START


def setup_times(workload, seed, smoke):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range((SMOKE if smoke else FULL)["setup_repeats"]):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# --------------------------------------------------------------------------
# metrics


def end_to_end(spec, sizes, episodes, wall0, setups, e_ratios):
    step_ms = 1e3 * np.concatenate([ep.step_s for ep in episodes])
    # an epoch passes over the training set once; a direct problem's
    # training set is the one problem, so there an epoch is one step
    epochs = sizes["steps"] if spec["kind"] == "direct" else sizes["epochs"]
    steady = [ep.wall - wall0[ep.instance] for ep in episodes]
    return {
        "step_ms.p50": (float(np.percentile(step_ms, 50)), "ms"),
        "step_ms.p90": (float(np.percentile(step_ms, 90)), "ms"),
        "evals_per_s": (sum(ep.evals - ep.skipped for ep in episodes) / sum(steady), "1/s"),
        "epoch_s": (statistics.median(s / epochs for s in steady), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "e_final.vs_start": (float(np.median(e_ratios)), "rel"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, untraced, traced):
    values = tracer.summary(max(tracer.step, 1))
    values["training.skipped"] = sum(ep.skipped for ep in traced)
    values["trace.overhead_frac"] = (sum(ep.wall for ep in traced)
                                     / sum(ep.wall for ep in untraced) - 1.0)
    units = {"calls": "count", "skipped": "count", "dofs": "count", "nnz": "count",
             "iterations": "count", "residual_rel_max": "rel", "overhead_frac": "rel"}
    return {name: (float(values[name]), units.get(name.rsplit(".", 1)[1], "ms"))
            for name in per_layer_names()}


def environment(workload, seed, seconds, trace):
    import scipy

    return {
        "workload": workload, "seed": seed, "variant": seed % VARIANTS,
        "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --------------------------------------------------------------------------
# one run


def run(workload, seed, seconds, trace, smoke=False):
    """Returns (result dict, failures, environment)."""
    spec = WORKLOADS[workload]
    sizes = SMOKE if smoke else FULL
    variant = seed % VARIANTS
    instances = build_instances(spec, variant, sizes)
    setups = [] if trace else setup_times(workload, seed, smoke)

    failures = []
    gate = gradient_gate(spec, instances, variant)
    if not gate <= GATE_RTOL:
        failures.append(f"reduced gradient vs finite differences: rel err {gate:.3e}")

    skips = SkipCounter()
    logger = logging.getLogger("ritzmesh.training")
    logger.addHandler(skips)
    try:
        # warm caches and lazy imports, then time each instance's set-up
        # call so that it can be taken off its episodes
        entry(spec, instances[0], 1)
        wall0 = []
        for instance in instances:
            start = time.perf_counter()
            entry(spec, instance, 0)
            wall0.append(time.perf_counter() - start)
        tracer = Tracer() if trace else None
        untraced, traced = measure(spec, instances, sizes, seconds, skips, tracer)
    finally:
        logger.removeHandler(skips)

    episodes = untraced + traced
    recorded = None if smoke else load_recorded(workload, variant)
    failures += check_episodes(episodes, recorded)
    if trace:
        metrics = per_layer(tracer, untraced, traced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{workload}.jsonl")   # the latest run only
    else:
        e_ratios = [next(ep.e_final for ep in untraced if ep.instance == k)
                    / start_error(spec, instance) for k, instance in enumerate(instances)]
        metrics = end_to_end(spec, sizes, untraced, wall0, setups, e_ratios)
    result = {
        "correct": not failures,
        "attempted": int(sum(ep.evals for ep in episodes)),
        "failed": int(sum(ep.skipped for ep in episodes)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, failures, environment(workload, seed, seconds, trace)


# --------------------------------------------------------------------------
# self-test and recording


def schema_errors(result, trace):
    """Differences between one result and the metrics BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted is not a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        errors.append("failed is not a whole number")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in declared):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not np.isfinite(got.get("value", np.nan)):
            errors.append(f"{m['name']}: {got}")
    return errors


def self_test():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, failures, _ = run(workload, 0, 0, trace, smoke=True)
            errors = failures + schema_errors(result, trace)
            status = "ok" if not errors else "; ".join(errors)
            print(f"self-test {workload} --trace {trace}: {status}")
            ok = ok and not errors
    return ok


def record(workloads):
    """Recompute e_final for every variant of the given workloads."""
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for workload in workloads:
        spec = WORKLOADS[workload]
        table[workload] = {}
        for variant in range(VARIANTS):
            finals = []
            for instance in build_instances(spec, variant, FULL):
                out = entry(spec, instance, FULL["steps" if spec["kind"] == "direct"
                                                 else "epochs"])
                history = out[1] if spec["kind"] == "direct" else out.history
                finals.append(history.rows[-1][2])
            table[workload][str(variant)] = finals
            print(workload, variant, finals, flush=True)
        EXPECTED.write_text(json.dumps(table, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, SMOKE if args.smoke else FULL))
        return 0
    import_program()
    if args.self_test:
        return 0 if self_test() else 1
    if args.record:
        record([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, failures, env = run(args.workload, args.seed, args.seconds, args.trace)
    for failure in failures:
        print(f"benchmark: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
