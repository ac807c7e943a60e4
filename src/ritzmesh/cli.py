"""Command-line front end.

Commands: solve, adapt, train, convergence, landscape, report.  Runs
are described by a JSON config file plus a few overriding flags; with
identical configs and seeds, output files are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments, problems, sampling, training
from .errors import (ConfigurationError, DegenerateMeshError, InconsistentReferenceError,
                     SolverError)
from .optim import lr_at

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"malformed config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config {path} is not a JSON object")
    return cfg


def build_problem(cfg):
    if "problem" not in cfg:
        raise ConfigurationError("config is missing the 'problem' key")
    n_elements = _value("N", cfg["N"], lo=1) if "N" in cfg else None
    try:
        return problems.make_problem(
            cfg["problem"],
            sigma=cfg.get("sigma"),
            n_elements=n_elements,
            **cfg.get("problem_options", {}),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad problem config: {exc}") from exc


def build_grid(cfg, family, seed):
    grid = cfg.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigurationError(f"bad grid: {grid!r} is not an object")
    counts = grid.get("counts")
    if counts is not None:
        if not isinstance(counts, list):
            raise ConfigurationError(f"bad grid counts: {counts!r} is not a list")
        counts = [_value("grid count", k, lo=2) for k in counts]
    try:
        axes = sampling.default_axes(family, counts=counts)
        return sampling.split_train_test(axes, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad grid config: {exc}") from exc


def apply_preset(cfg, preset):
    if preset is None:
        return cfg
    if preset not in experiments.PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset!r}; available: {sorted(experiments.PRESETS)}"
        )
    merged = dict(experiments.PRESETS[preset])
    merged.update(cfg)
    return merged


def _value(name, value, kind=int, lo=None, hi=None):
    """A config value converted by `kind` and checked against [lo, hi].

    Bools, non-integral numbers for an int and non-finite values are
    rejected, not truncated or passed on.
    """
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError(value)
        out = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad {name}: {value!r} is not {kind.__name__}") from exc
    if not math.isfinite(out):
        raise ConfigurationError(f"bad {name}: {value!r} is not finite")
    if lo is not None and not out >= lo:
        raise ConfigurationError(f"bad {name}: {value!r} is below {lo}")
    if hi is not None and not out <= hi:
        raise ConfigurationError(f"bad {name}: {value!r} is above {hi}")
    return out


def _schedule(cfg, default=((0, 1e-2),)):
    try:
        pairs = [(float(e), float(lr)) for e, lr in cfg.get("schedule", list(default))]
        lr_at(pairs, 0)   # rejects an empty schedule or one not starting at 0
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad schedule: {exc}") from exc
    return pairs


def cmd_solve(cfg, out, seed):
    problem = build_problem(cfg)
    J, e_h = experiments.solve_summary(problem)
    print(f"J = {J:.10g}")
    if e_h is not None:
        print(f"e_h = {e_h:.10g}")
    experiments.write_csv(os.path.join(out, "solve.csv"),
                          ("N", "J", "e_h"),
                          [(problem.n_elements, J, np.nan if e_h is None else e_h)])


def cmd_adapt(cfg, out, seed):
    problem = build_problem(cfg)
    theta, history = training.train_nonparametric(
        problem,
        schedule=_schedule(cfg),
        iterations=_value("iterations", cfg.get("iterations", 1000), lo=0),
    )
    history.write_csv(os.path.join(out, "history.csv"))
    nodes = np.concatenate([m.nodes for m in problem.build_mesh(theta).axes])
    experiments.write_csv(os.path.join(out, "theta.csv"), ("theta",),
                          [(t,) for t in theta])
    experiments.write_csv(os.path.join(out, "nodes.csv"), ("node",),
                          [(x,) for x in nodes])
    last = history.rows[-1]
    print(f"final J = {last[1]:.10g}, e_theta = {last[2]:.10g}")


def cmd_train(cfg, out, seed):
    problem = build_problem(cfg)
    grid = build_grid(cfg, problem.family, seed)
    run = training.train_parametric(
        problem.family, grid, problem.n_elements,
        schedule=_schedule(cfg),
        epochs=_value("epochs", cfg.get("epochs", 50), lo=0),
        batch=_value("batch", cfg.get("batch", 10), lo=1),
        seed=seed,
        monitor_every=_value("monitor_every", cfg.get("monitor_every", 10), lo=1),
        checkpoint_path=os.path.join(out, "checkpoint.npz"),
    )
    run.history.write_csv(os.path.join(out, "history.csv"))
    last = run.history.rows[-1]
    print(f"epochs = {run.epochs_done}, final e_test = {last[2]:.10g}")


def cmd_convergence(cfg, out, seed):
    problem = build_problem(cfg)
    n_list = cfg.get("N_list", [32, 64, 128, 256])
    if not isinstance(n_list, list):
        raise ConfigurationError(f"bad N_list: {n_list!r} is not a list")
    n_list = [_value("N_list entry", n, lo=1) for n in n_list]
    rows, r_u, r_a = experiments.run_convergence(
        problem, n_list,
        iterations=_value("iterations", cfg.get("iterations", 1000), lo=0),
        schedule=_schedule(cfg),
        out=out,
    )
    for n, e_h, e_t in rows:
        print(f"N={n:4d}  e_h={e_h:.6g}  e_theta={e_t:.6g}")
    print(f"rate_uniform = {r_u:.4f}, rate_adaptive = {r_a:.4f}")


def cmd_landscape(cfg, out, seed):
    sweep = cfg.get("sweep", {})
    quad_orders = cfg.get("quad_orders", [2])
    if not isinstance(sweep, dict) or not isinstance(quad_orders, list) or not quad_orders:
        raise ConfigurationError("sweep must be an object and quad_orders a non-empty list")
    lo = _value("sweep.lo", sweep.get("lo", -0.05), float)
    hi = _value("sweep.hi", sweep.get("hi", 0.05), float)
    count = _value("sweep.count", sweep.get("count", 200), lo=1)
    n_elements = _value("N", cfg.get("N", 10), lo=2)
    rows, columns, j_true = experiments.run_landscape(
        alpha=_value("alpha", cfg.get("alpha", 50.0), float),
        s=_value("s", cfg.get("s", 0.5), float),
        n_elements=n_elements,
        movable_index=_value("movable_index", cfg.get("movable_index", 5),
                             lo=1, hi=n_elements - 1),
        offsets=np.linspace(lo, hi, count),
        quad_orders=tuple(quad_orders),
        out=out,
    )
    exact_min = min(r[1] for r in rows)
    quad_min = min(r[2] for r in rows)
    print(f"J(u) = {j_true:.10g}")
    print(f"min exact landscape = {exact_min:.10g}")
    print(f"min quadrature landscape = {quad_min:.10g}")


def cmd_report(cfg, out, seed):
    problem = build_problem(cfg)
    grid = build_grid(cfg, problem.family, seed)
    checkpoint = cfg.get("checkpoint")
    if not isinstance(checkpoint, str):
        raise ConfigurationError(f"report needs a 'checkpoint' path, got {checkpoint!r}")
    params, _, epoch = training.load_checkpoint(checkpoint)
    shape = (params.W1.shape[1], params.W3.shape[0])
    if shape != (len(grid.axes), problem.theta_size):
        raise ConfigurationError(
            f"checkpoint {checkpoint} maps {shape[0]} parameters to {shape[1]} logits; "
            f"{problem.family} N={problem.n_elements} needs {len(grid.axes)} to "
            f"{problem.theta_size}")
    run = training.ParametricRun(
        params=params, history=training.History(columns=()), grid=grid,
        family=problem.family, n_elements=problem.n_elements, epochs_done=epoch,
    )
    reports = experiments.parametric_error_report(run)
    experiments.write_report(reports, out)
    for label, me_t, mx_t, me_h, mx_h in experiments.report_rows(reports):
        print(f"{label:5s}  e_theta mean={me_t:.4f} max={mx_t:.4f}   "
              f"e_h mean={me_h:.4f} max={mx_h:.4f}")


COMMANDS = {
    "solve": cmd_solve,
    "adapt": cmd_adapt,
    "train": cmd_train,
    "convergence": cmd_convergence,
    "landscape": cmd_landscape,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ritzmesh",
        description="r-adaptive FEM by Ritz energy minimization",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--preset", help="named schedule preset")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = apply_preset(cfg, args.preset)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot make output directory {args.out}: {exc}") from exc
        if not os.access(args.out, os.W_OK):
            raise ConfigurationError(f"output directory {args.out} is not writable")
        COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateMeshError, SolverError, InconsistentReferenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
