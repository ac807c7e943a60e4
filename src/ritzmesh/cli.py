"""Command-line front end.

Commands: solve, adapt, train, convergence, landscape, report.  Runs
are described by a JSON config file plus a few overriding flags; with
identical configs and seeds, output files are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
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
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"malformed config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def build_problem(cfg):
    if "problem" not in cfg:
        raise ConfigurationError("config is missing the 'problem' key")
    try:
        return problems.make_problem(
            cfg["problem"],
            sigma=cfg.get("sigma"),
            n_elements=cfg.get("N"),
            **cfg.get("problem_options", {}),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad problem config: {exc}") from exc


def build_grid(cfg, family, seed):
    counts = cfg.get("grid", {}).get("counts")
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


def _schedule(cfg, default=((0, 1e-2),)):
    try:
        pairs = [(float(e), float(lr)) for e, lr in cfg.get("schedule", list(default))]
        lr_at(pairs, 0)   # rejects an empty schedule or one not starting at 0
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad schedule: {exc}") from exc
    return pairs


def cmd_solve(cfg, out, seed):
    problem = build_problem(cfg)
    J, e_h, ev = experiments.solve_summary(problem)
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
        iterations=int(cfg.get("iterations", 1000)),
        seed=seed,
    )
    history.write_csv(os.path.join(out, "history.csv"))
    mesh = problem.build_mesh(theta)
    experiments.write_csv(os.path.join(out, "theta.csv"), ("theta",),
                          [(t,) for t in theta])
    nodes = mesh.nodes if problem.dim == 1 else np.concatenate(
        [mesh.mesh_x.nodes, mesh.mesh_y.nodes])
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
        epochs=int(cfg.get("epochs", 50)),
        batch=int(cfg.get("batch", 10)),
        seed=seed,
        monitor_every=int(cfg.get("monitor_every", 10)),
        checkpoint_path=os.path.join(out, "checkpoint.npz"),
    )
    run.history.write_csv(os.path.join(out, "history.csv"))
    last = run.history.rows[-1]
    print(f"epochs = {run.epochs_done}, final e_test = {last[2]:.10g}")


def cmd_convergence(cfg, out, seed):
    problem = build_problem(cfg)
    n_list = cfg.get("N_list", [32, 64, 128, 256])
    rows, r_u, r_a = experiments.run_convergence(
        problem, n_list,
        iterations=int(cfg.get("iterations", 1000)),
        schedule=_schedule(cfg),
        seed=seed, out=out,
    )
    for n, e_h, e_t in rows:
        print(f"N={n:4d}  e_h={e_h:.6g}  e_theta={e_t:.6g}")
    print(f"rate_uniform = {r_u:.4f}, rate_adaptive = {r_a:.4f}")


def cmd_landscape(cfg, out, seed):
    sweep = cfg.get("sweep", {})
    lo = float(sweep.get("lo", -0.05))
    hi = float(sweep.get("hi", 0.05))
    count = int(sweep.get("count", 200))
    rows, columns, j_true = experiments.run_landscape(
        alpha=float(cfg.get("alpha", 50.0)),
        s=float(cfg.get("s", 0.5)),
        n_elements=int(cfg.get("N", 10)),
        movable_index=int(cfg.get("movable_index", 5)),
        offsets=np.linspace(lo, hi, count),
        quad_orders=tuple(cfg.get("quad_orders", [2])),
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
    if checkpoint is None:
        raise ConfigurationError("report needs a 'checkpoint' path in the config")
    params, state, epoch = training.load_checkpoint(checkpoint)
    refs = training.uniform_reference_energies(problem.family, grid, problem.n_elements,
                                               indices=grid.train_idx)
    run = training.ParametricRun(
        params=params, state=state, history=training.History(columns=()),
        grid=grid, family=problem.family, n_elements=problem.n_elements,
        uniform_refs=refs, epochs_done=epoch,
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
        os.makedirs(args.out, exist_ok=True)
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
