"""Training loops: direct mesh adaptation and the parametric network.

Direct (non-parametric) mode optimizes the logits of a single problem,
starting from zeros (the uniform partition).  Parametric mode trains
the network that maps an encoded parameter tuple to logits, using the
balanced energy averaged over mini-batches; one epoch is a full pass
over the training tuples in a freshly shuffled order.

Each step runs the same chain: build mesh, assemble, solve (never
differentiated), evaluate the energy, contract the closed-form element
derivatives, pull back, update.  Parametric mode runs each mini-batch,
the uniform references and the monitor as one pipeline.evaluate_batch
call and one network pass, bitwise equal to a loop over the samples.
"""

import csv
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import loads as ld
from .energy import balanced_ritz, relative_error, ritz_gradient
from .errors import ConfigurationError, DegenerateMeshError
from .network import MlpParams, lecun_init, mlp_backward, mlp_forward
from .optim import AdamState, adam_step
from .pipeline import evaluate, evaluate_batch
from .problems import make_problem
from .sampling import ParamGrid

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1
FLOAT_FMT = "%.17g"


def write_csv(path, columns, rows):
    """Fixed column order; integers as such, floats with 17 significant
    digits, anything else by str."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _format_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


@dataclass
class History:
    """Per-iteration log rows with a fixed CSV schema."""

    columns: tuple
    rows: list = field(default_factory=list)

    def append(self, *row):
        self.rows.append(tuple(row))

    def column(self, name):
        i = self.columns.index(name)
        return np.array([r[i] for r in self.rows])

    def write_csv(self, path):
        write_csv(path, self.columns, self.rows)


def train_nonparametric(problem, schedule=((0, 1e-2),), iterations=1000, callback=None):
    """Adapt one problem's mesh by gradient descent on the Ritz energy.

    The schedule is indexed by iteration here.  Returns (theta, history)
    where history rows are (iteration, J, e_theta); row t is the state
    after t updates.  A degenerate mesh aborts with the iteration index.
    """
    theta = np.zeros(problem.theta_size)
    state = AdamState.for_params([theta], schedule=schedule)
    try:
        j_exact = ld.reference_ritz(problem)
    except ConfigurationError:
        j_exact = None
    history = History(columns=("iteration", "J", "e_theta"))

    def record(t, J):
        e = relative_error(J, j_exact) if j_exact is not None else np.nan
        history.append(t, J, e)
        if callback is not None:
            callback(t, theta, J)

    for t in range(iterations):
        try:
            ev = evaluate(problem, theta)
        except DegenerateMeshError as exc:
            raise DegenerateMeshError(f"iteration {t}: {exc}") from exc
        grad = ritz_gradient(problem, ev.mesh, ev.system, ev.c)
        record(t, ev.J)
        adam_step(state, [theta], [grad], epoch=t)
    record(iterations, evaluate(problem, theta).J)
    return theta, history


@dataclass
class ParametricRun:
    params: MlpParams
    history: History
    grid: ParamGrid
    family: str
    n_elements: int
    epochs_done: int = 0

    def logits_for(self, sigma):
        out, _ = mlp_forward(self.params, self.grid.encode(sigma))
        return out

    def problem_for(self, sigma):
        return make_problem(self.family, sigma=tuple(sigma), n_elements=self.n_elements)

    def mesh_for(self, sigma):
        return self.problem_for(sigma).build_mesh(self.logits_for(sigma))


def uniform_reference_energies(family, grid: ParamGrid, n_elements, indices=None):
    """J at the equispaced mesh per tuple; the balancing denominators."""
    rows = grid.tuples if indices is None else grid.tuples[indices]
    batch = evaluate_batch([make_problem(family, sigma=tuple(s), n_elements=n_elements)
                            for s in rows])
    for error in batch.errors:
        if error is not None:
            raise error
    return {tuple(sigma): J for sigma, J in zip(rows, batch.J)}


def train_parametric(family, grid: ParamGrid, n_elements, schedule=((0, 1e-2),),
                     epochs=50, batch=10, seed=0, monitor_every=10, checkpoint_path=None):
    """Train the parameter-to-mesh network on the balanced Ritz loss.

    The schedule is indexed by epoch.  History rows are
    (iteration, loss, e_test) where loss is the batch-averaged balanced
    energy and e_test averages the monitor tuples' relative errors.
    Tuples whose mesh degenerates (or whose system defeats the solver)
    are skipped and logged, not fatal.  Returns a ParametricRun.
    """
    needed = np.union1d(grid.train_idx, grid.monitor_idx)
    refs = uniform_reference_energies(family, grid, n_elements, indices=needed)
    sigmas = {i: tuple(grid.tuples[i].tolist()) for i in needed}
    problems = {i: make_problem(family, sigma=sigmas[i], n_elements=n_elements) for i in needed}
    inputs = {i: grid.encode(sigmas[i]) for i in needed}
    params = lecun_init(len(grid.axes), problems[needed[0]].theta_size, seed=seed)
    state = AdamState.for_params(params, schedule=schedule)
    history = History(columns=("iteration", "loss", "e_test"))
    exact = {i: ld.reference_ritz(problems[i]) for i in grid.monitor_idx}
    run = ParametricRun(params=params, history=history, grid=grid, family=family,
                        n_elements=n_elements)

    def forward(members):
        return mlp_forward(params, np.array([inputs[i] for i in members]))

    def monitor_error():
        ev = evaluate_batch([problems[i] for i in grid.monitor_idx],
                            forward(grid.monitor_idx)[0])
        errs = []
        for i, J, error in zip(grid.monitor_idx, ev.J, ev.errors):
            if error is not None:
                logger.warning("monitor skipped sigma=%s: %s", sigmas[i], error)
            else:
                errs.append(relative_error(J, exact[i]))
        return float(np.mean(errs)) if errs else float("nan")

    rng = np.random.default_rng(seed)
    iteration = 0
    last_loss = np.nan
    history.append(iteration, last_loss, monitor_error())
    for epoch in range(epochs):
        order = grid.train_idx.copy()
        rng.shuffle(order)
        for lo in range(0, order.size, batch):
            members = order[lo: lo + batch]
            logits, cache = forward(members)
            ev = evaluate_batch([problems[i] for i in members], logits,
                                [1.0 / abs(refs[sigmas[i]]) for i in members])
            for i, error in zip(members, ev.errors):
                if error is not None:
                    # one bad sample must not kill a long run
                    logger.warning("skipping sigma=%s at iteration %d: %s",
                                   sigmas[i], iteration, error)
            iteration += 1
            kept = ev.kept
            if not kept.any():
                continue
            losses = [balanced_ritz(J, refs[sigmas[i]]) for i, J in zip(members[kept], ev.J[kept])]
            grads = mlp_backward(params, [a[kept] for a in cache], ev.grad[kept])
            for arr in grads.arrays():
                arr /= len(losses)
            last_loss = float(np.mean(losses))
            adam_step(state, params, grads, epoch=epoch)
            if iteration % monitor_every == 0:
                history.append(iteration, last_loss, monitor_error())
        run.epochs_done = epoch + 1
    if iteration % monitor_every != 0:
        history.append(iteration, last_loss, monitor_error())
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, params, state, run.epochs_done)
    return run


def save_checkpoint(path, params: MlpParams, state: AdamState, epoch):
    """Versioned dump of network weights, optimizer moments, and epoch."""
    arrays = {
        "version": np.array(CHECKPOINT_VERSION),
        "epoch": np.array(epoch),
        "t": np.array(state.t),
        "beta1": np.array(state.beta1),
        "beta2": np.array(state.beta2),
        "eps": np.array(state.eps),
        "schedule": np.array(state.schedule, dtype=float),
    }
    for i, name in enumerate(("W1", "b1", "W2", "b2", "W3")):
        arrays[name] = params.arrays()[i]
        arrays["m_" + name] = state.m[i]
        arrays["v_" + name] = state.v[i]
    np.savez(path, **arrays)


def load_checkpoint(path):
    with np.load(path) as data:
        if int(data["version"]) != CHECKPOINT_VERSION:
            raise ConfigurationError(f"unsupported checkpoint version {data['version']}")
        names = ("W1", "b1", "W2", "b2", "W3")
        params = MlpParams(*(data[n].copy() for n in names))
        state = AdamState(
            m=[data["m_" + n].copy() for n in names],
            v=[data["v_" + n].copy() for n in names],
            t=int(data["t"]),
            beta1=float(data["beta1"]),
            beta2=float(data["beta2"]),
            eps=float(data["eps"]),
            schedule=[(float(a), float(b)) for a, b in data["schedule"]],
        )
        epoch = int(data["epoch"])
    return params, state, epoch
