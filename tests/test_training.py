"""Training loops: bookkeeping, determinism, and short optimization runs."""

import numpy as np
import pytest

from ritzmesh.errors import DegenerateMeshError
from ritzmesh.network import mlp_forward
from ritzmesh.pipeline import evaluate_uniform
from ritzmesh.problems import arctan1d, twomaterial1d
from ritzmesh.sampling import default_axes, split_train_test
from ritzmesh.training import (
    History,
    load_checkpoint,
    save_checkpoint,
    train_nonparametric,
    train_parametric,
    uniform_reference_energies,
)


class TestNonparametric:
    def test_zero_iterations_is_uniform(self):
        p = arctan1d(10.0, 0.5, n_elements=8)
        theta, hist = train_nonparametric(p, iterations=0)
        np.testing.assert_array_equal(theta, 0.0)
        assert len(hist.rows) == 1
        assert abs(hist.rows[0][1] - evaluate_uniform(p).J) < 1e-14

    def test_descends_and_records(self):
        p = arctan1d(10.0, 0.5, n_elements=12)
        theta, hist = train_nonparametric(p, schedule=[(0, 1e-2)], iterations=100)
        J = hist.column("J")
        assert J[-1] < J[0]
        np.testing.assert_array_equal(hist.column("iteration"), np.arange(101))

    def test_error_column_tracks_reference(self):
        p = arctan1d(10.0, 0.5, n_elements=8)
        _, hist = train_nonparametric(p, iterations=5)
        e = hist.column("e_theta")
        assert np.all(np.isfinite(e)) and np.all(e >= 0)

    def test_history_csv_roundtrip(self, tmp_path):
        p = arctan1d(10.0, 0.5, n_elements=8)
        _, hist = train_nonparametric(p, iterations=3)
        path = tmp_path / "history.csv"
        hist.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,J,e_theta"
        assert len(lines) == 5


@pytest.fixture(scope="module")
def small_grid():
    return split_train_test(default_axes("arctan1d", counts=(5, 5)), seed=0)


class TestParametric:

    def test_zero_epochs_records_monitor(self, small_grid):
        run = train_parametric("arctan1d", small_grid, 8, epochs=0, batch=5, seed=0)
        assert len(run.history.rows) == 1
        assert np.isfinite(run.history.rows[0][2])

    def test_epoch_accounting(self, small_grid):
        run = train_parametric("arctan1d", small_grid, 8, epochs=2, batch=5, seed=0,
                               monitor_every=1000)
        n_train = small_grid.train_idx.size
        expected = 2 * int(np.ceil(n_train / 5))
        assert run.history.rows[-1][0] == expected

    def test_seed_reproducibility(self, small_grid):
        a = train_parametric("arctan1d", small_grid, 8, epochs=1, batch=5, seed=3,
                             monitor_every=2)
        b = train_parametric("arctan1d", small_grid, 8, epochs=1, batch=5, seed=3,
                             monitor_every=2)
        assert a.history.rows == b.history.rows
        for x, y in zip(a.params.arrays(), b.params.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_loss_decreases_over_epochs(self, small_grid):
        run = train_parametric("arctan1d", small_grid, 8, epochs=10, batch=5, seed=0,
                               monitor_every=1)
        losses = run.history.column("loss")[1:]
        n_per_epoch = int(np.ceil(small_grid.train_idx.size / 5))
        medians = [np.median(losses[i * n_per_epoch:(i + 1) * n_per_epoch])
                   for i in range(10)]
        # balanced energies hover near -1; the trend over epochs must not rise
        assert medians[-1] <= medians[0] + 1e-9

    def test_uniform_references_match_direct_solve(self, small_grid):
        refs = uniform_reference_energies("arctan1d", small_grid, 8,
                                          indices=small_grid.train_idx[:3])
        from ritzmesh.problems import make_problem
        for sig, val in refs.items():
            p = make_problem("arctan1d", sigma=sig, n_elements=8)
            assert abs(evaluate_uniform(p).J - val) < 1e-14

    def test_parametric_history_csv(self, small_grid, tmp_path):
        run = train_parametric("arctan1d", small_grid, 8, epochs=1, batch=5, seed=0)
        path = tmp_path / "history.csv"
        run.history.write_csv(path)
        assert path.read_text().splitlines()[0] == "iteration,loss,e_test"

    def test_degenerate_sample_skipped(self, small_grid, caplog):
        # a run whose first few updates are huge will degenerate some
        # meshes; it must keep going rather than abort
        import logging
        with caplog.at_level(logging.WARNING, logger="ritzmesh.training"):
            run = train_parametric("arctan1d", small_grid, 8,
                                   schedule=[(0, 5.0)], epochs=2, batch=5, seed=0,
                                   monitor_every=1000)
        assert run.epochs_done == 2

    def test_skip_messages_print_plain_floats(self, small_grid, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="ritzmesh.training"):
            train_parametric("arctan1d", small_grid, 8, schedule=[(0, 5.0)], epochs=2,
                             batch=5, seed=0, monitor_every=1000)
        skipped = [r.getMessage() for r in caplog.records
                   if r.getMessage().startswith("skipping sigma=")]
        assert skipped
        assert not any("np.float64" in m for m in skipped)


def _reference_train_parametric(family, grid, n_elements, schedule, epochs, batch, seed,
                                monitor_every, checkpoint_path):
    """train_parametric as a loop over the samples of each mini-batch: the
    single-problem chain per sample, gradients accumulated in sample
    order.  The batched training must reproduce its bytes."""
    import logging

    from ritzmesh import loads as ld
    from ritzmesh.energy import balanced_ritz, relative_error, ritz_gradient
    from ritzmesh.errors import SolverError
    from ritzmesh.network import lecun_init, mlp_backward
    from test_network import accumulate, zero_grads
    from ritzmesh.optim import AdamState, adam_step
    from ritzmesh.pipeline import evaluate, evaluate_mesh
    from ritzmesh.problems import make_problem
    from ritzmesh.training import ParametricRun

    logger = logging.getLogger("ritzmesh.training")
    needed = np.union1d(grid.train_idx, grid.monitor_idx)
    refs = {tuple(s): evaluate_uniform(make_problem(family, sigma=tuple(s),
                                                    n_elements=n_elements)).J
            for s in grid.tuples[needed]}
    probe = make_problem(family, sigma=tuple(grid.tuples[0]), n_elements=n_elements)
    params = lecun_init(len(grid.axes), probe.theta_size, seed=seed)
    state = AdamState.for_params(params, schedule=schedule)
    history = History(columns=("iteration", "loss", "e_test"))
    exact = {tuple(s): ld.reference_ritz(make_problem(family, sigma=tuple(s),
                                                      n_elements=n_elements))
             for s in grid.tuples[grid.monitor_idx]}
    run = ParametricRun(params=params, history=history, grid=grid, family=family,
                        n_elements=n_elements)

    def monitor_error():
        errs = []
        for sigma in grid.tuples[grid.monitor_idx]:
            sig = tuple(sigma)
            try:
                ev = evaluate_mesh(run.problem_for(sig), run.mesh_for(sig))
            except (DegenerateMeshError, SolverError) as exc:
                logger.warning("monitor skipped sigma=%s: %s", tuple(sigma.tolist()), exc)
                continue
            errs.append(relative_error(ev.J, exact[sig]))
        return float(np.mean(errs)) if errs else float("nan")

    rng = np.random.default_rng(seed)
    iteration = 0
    last_loss = np.nan
    history.append(iteration, last_loss, monitor_error())
    for epoch in range(epochs):
        order = grid.train_idx.copy()
        rng.shuffle(order)
        for lo in range(0, order.size, batch):
            grads = zero_grads(params)
            losses = []
            for idx in order[lo: lo + batch]:
                sigma = tuple(grid.tuples[idx])
                problem = run.problem_for(sigma)
                logits, cache = mlp_forward(params, grid.encode(sigma))
                try:
                    ev = evaluate(problem, logits)
                except (DegenerateMeshError, SolverError) as exc:
                    logger.warning("skipping sigma=%s at iteration %d: %s",
                                   tuple(grid.tuples[idx].tolist()), iteration, exc)
                    continue
                ref = refs[sigma]
                losses.append(balanced_ritz(ev.J, ref))
                grad_logits = ritz_gradient(problem, ev.mesh, ev.system, ev.c,
                                            scale=1.0 / abs(ref))
                accumulate(grads, mlp_backward(params, cache, grad_logits))
            iteration += 1
            if not losses:
                continue
            for arr in grads.arrays():
                arr /= len(losses)
            last_loss = float(np.mean(losses))
            adam_step(state, params, grads, epoch=epoch)
            if iteration % monitor_every == 0:
                history.append(iteration, last_loss, monitor_error())
        run.epochs_done = epoch + 1
    if iteration % monitor_every != 0:
        history.append(iteration, last_loss, monitor_error())
    save_checkpoint(checkpoint_path, params, state, run.epochs_done)
    return run


class TestBatchedTrainingBytes:
    """train_parametric runs each mini-batch as one batch; its history CSV
    and checkpoint must be byte for byte those of the per-sample loop."""

    CASES = {
        "arctan1d": ("arctan1d", (5, 5), 8, {}, 2),
        "power1d": ("power1d", (12,), 8, {}, 2),
        "twomaterial1d": ("twomaterial1d", (12,), 8, {}, 2),
        "skips": ("arctan1d", (5, 5), 8, {"schedule": [(0, 5.0)]}, 3),
        "arctan2d": ("arctan2d", (3, 2, 2), 4, {}, 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_bytes_as_per_sample_loop(self, case, tmp_path, caplog):
        import logging

        family, counts, n, options, epochs = self.CASES[case]
        grid = split_train_test(default_axes(family, counts=counts), seed=1)
        kwargs = dict(schedule=options.get("schedule", [(0, 1e-2)]), epochs=epochs, batch=5,
                      seed=2, monitor_every=2)
        logs = []
        for name, train in (("batched", train_parametric),
                            ("reference", _reference_train_parametric)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="ritzmesh.training"):
                run = train(family, grid, n, checkpoint_path=tmp_path / f"{name}.npz", **kwargs)
            run.history.write_csv(tmp_path / f"{name}.csv")
            logs.append([r.getMessage() for r in caplog.records])
        for suffix in ("csv", "npz"):
            assert ((tmp_path / f"batched.{suffix}").read_bytes()
                    == (tmp_path / f"reference.{suffix}").read_bytes())
        assert logs[0] == logs[1]
        skipped = [m for m in logs[0] if m.startswith("skipping sigma=")]
        assert bool(skipped) == (case == "skips")


class TestEndToEndGradient:
    def test_batch_loss_weight_gradients_match_fd(self, small_grid):
        # full parametric chain: weights -> logits -> mesh -> assemble
        # -> solve -> balanced energy, averaged over a batch of 3
        from ritzmesh.energy import balanced_ritz, ritz_gradient
        from ritzmesh.network import lecun_init, mlp_backward, mlp_forward
        from test_network import accumulate, zero_grads
        from ritzmesh.pipeline import evaluate
        from ritzmesh.problems import make_problem

        grid = small_grid
        batch = [tuple(grid.tuples[i]) for i in grid.train_idx[:3]]
        n_elements = 8
        refs = uniform_reference_energies("arctan1d", grid, n_elements,
                                          indices=grid.train_idx[:3])
        params = lecun_init(2, 8, seed=11)

        def batch_loss(ps):
            total = 0.0
            for sig in batch:
                problem = make_problem("arctan1d", sigma=sig, n_elements=n_elements)
                logits, _ = mlp_forward(ps, grid.encode(sig))
                ev = evaluate(problem, logits)
                total += balanced_ritz(ev.J, refs[sig])
            return total / len(batch)

        grads = zero_grads(params)
        for sig in batch:
            problem = make_problem("arctan1d", sigma=sig, n_elements=n_elements)
            logits, cache = mlp_forward(params, grid.encode(sig))
            ev = evaluate(problem, logits)
            g_logits = ritz_gradient(problem, ev.mesh, ev.system, ev.c,
                                     scale=1.0 / abs(refs[sig]))
            g = mlp_backward(params, cache, g_logits)
            accumulate(grads, g, weight=1.0 / len(batch))

        rng = np.random.default_rng(12)
        # init-scale weight gradients are ~1e-5, so the oracle step must
        # keep the difference quotient's roundoff noise well below them
        step = 1e-5
        sampled_fd, sampled_an = [], []
        for arr, garr in zip(params.arrays(), grads.arrays()):
            flat, gflat = arr.ravel(), garr.ravel()
            for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                keep = flat[i]
                flat[i] = keep + step
                up = batch_loss(params)
                flat[i] = keep - step
                dn = batch_loss(params)
                flat[i] = keep
                sampled_fd.append((up - dn) / (2 * step))
                sampled_an.append(gflat[i])
        sampled_fd = np.array(sampled_fd)
        sampled_an = np.array(sampled_an)
        assert sampled_fd.size >= 25
        rel = np.linalg.norm(sampled_an - sampled_fd) / np.linalg.norm(sampled_fd)
        assert rel < 1e-5


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        from ritzmesh.network import lecun_init
        from ritzmesh.optim import AdamState
        params = lecun_init(2, 6, seed=5)
        state = AdamState.for_params(params, schedule=[(0, 1e-2), (20, 1e-3)])
        state.t = 17
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, state, epoch=4)
        p2, s2, epoch = load_checkpoint(path)
        assert epoch == 4
        assert s2.t == 17
        assert s2.schedule == [(0.0, 1e-2), (20.0, 1e-3)]
        for a, b in zip(params.arrays(), p2.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_version_check(self, tmp_path):
        import numpy as np
        from ritzmesh.errors import ConfigurationError
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.array(99))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)
