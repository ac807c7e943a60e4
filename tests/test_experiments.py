"""Experiment drivers: rate fitting, landscape sweep, reports, CSV format."""

import numpy as np
import pytest

from ritzmesh.experiments import (
    PRESETS,
    fit_rate,
    landscape_mesh,
    parametric_error_report,
    report_rows,
    run_convergence,
    run_landscape,
)
from ritzmesh.energy import ErrorReport, relative_error
from ritzmesh.loads import reference_ritz
from ritzmesh.network import lecun_init
from ritzmesh.pipeline import evaluate_mesh, evaluate_uniform
from ritzmesh.problems import arctan1d, make_problem, power1d
from ritzmesh.sampling import default_axes, split_train_test
from ritzmesh.training import History, ParametricRun, write_csv


class TestFitRate:
    def test_recovers_synthetic_power_law(self):
        n = np.array([8, 16, 32, 64, 128])
        for r in (0.2, 0.5, 0.98, 2.0):
            err = 3.7 * n ** (-r)
            assert abs(fit_rate(n, err) + r) < 1e-6

    def test_insensitive_to_constant(self):
        n = np.array([10, 20, 40])
        assert abs(fit_rate(n, 5.0 * n ** (-1.0)) - fit_rate(n, 0.1 * n ** (-1.0))) < 1e-12


class TestRunConvergence:
    def test_uniform_errors_decrease(self, tmp_path):
        rows, r_u, r_a = run_convergence(
            arctan1d(10.0, 0.5), [8, 16, 32], iterations=50,
            schedule=[(0, 1e-2)], out=str(tmp_path))
        e_h = [r[1] for r in rows]
        assert e_h[0] > e_h[1] > e_h[2]
        assert (tmp_path / "convergence.csv").exists()
        header = (tmp_path / "convergence.csv").read_text().splitlines()[0]
        assert header == "N,e_h,e_theta"

    def test_adapted_beats_uniform(self, tmp_path):
        rows, _, _ = run_convergence(arctan1d(10.0, 0.5), [16], iterations=300,
                                     schedule=[(0, 1e-2)])
        assert rows[0][2] < rows[0][1]


@pytest.fixture(scope="module")
def sweep():
    offsets = np.linspace(-0.05, 0.05, 41)
    return run_landscape(alpha=50.0, s=0.5, n_elements=10, movable_index=5,
                         offsets=offsets, quad_orders=(2,))


class TestRunLandscape:

    def test_exact_landscape_above_true_minimum(self, sweep):
        rows, _, j_true = sweep
        assert all(r[1] >= j_true - 1e-10 for r in rows)

    def test_quadrature_landscape_dives_below(self, sweep):
        rows, _, j_true = sweep
        assert min(r[2] for r in rows) < j_true

    def test_exact_landscape_symmetric(self, sweep):
        rows, _, _ = sweep
        js = np.array([r[1] for r in rows])
        np.testing.assert_allclose(js, js[::-1], rtol=1e-9)

    def test_columns(self, sweep):
        _, columns, _ = sweep
        assert columns == ("theta", "J_exact_min", "J_quad_min")

    def test_multiple_orders_add_columns(self):
        rows, columns, _ = run_landscape(offsets=np.array([0.0, 0.01]),
                                         quad_orders=(2, 8))
        assert columns == ("theta", "J_exact_min", "J_quad_min_q2", "J_quad_min_q8")
        assert len(rows[0]) == 4

    def test_only_an_interior_node_moves(self):
        # moving node 0 or N (or -1, which is N) would sweep an end of the
        # interval and so change the domain of the landscape
        for index in (0, 10, -1):
            with pytest.raises(ValueError, match="movable_index"):
                landscape_mesh(10, index, 0.01)
            with pytest.raises(ValueError, match="movable_index"):
                run_landscape(n_elements=10, movable_index=index, offsets=np.array([0.05]))


class TestReports:
    def test_aggregates_over_datasets(self):
        from ritzmesh.sampling import default_axes, split_train_test
        from ritzmesh.training import train_parametric
        grid = split_train_test(default_axes("arctan1d", counts=(5, 5)), seed=0)
        run = train_parametric("arctan1d", grid, 8, epochs=1, batch=5, seed=0)
        reports = parametric_error_report(run)
        rows = report_rows(reports)
        assert [r[0] for r in rows] == ["train", "test"]
        for row in rows:
            assert all(np.isfinite(v) and v >= 0 for v in row[1:])
            assert row[1] <= row[2]  # mean <= max
            assert row[3] <= row[4]


def _reference_error_report(run):
    """The report as two single-problem chains per tuple."""
    out = {}
    for label, idx in (("train", run.grid.train_idx), ("test", run.grid.test_idx)):
        report = ErrorReport()
        for sigma in run.grid.tuples[idx]:
            sig = tuple(sigma)
            problem = run.problem_for(sig)
            j_exact = reference_ritz(problem)
            report.adaptive[sig] = relative_error(
                evaluate_mesh(problem, run.mesh_for(sig)).J, j_exact)
            report.uniform[sig] = relative_error(evaluate_uniform(problem).J, j_exact)
        out[label] = report
    return out


@pytest.mark.parametrize("family,counts,n", [("arctan1d", (6, 5), 16),
                                             ("arctan2d", (3, 3, 2), 4)])
def test_report_matches_single_problem_chains(family, counts, n):
    grid = split_train_test(default_axes(family, counts=counts), seed=1)
    probe = make_problem(family, sigma=tuple(grid.tuples[0]), n_elements=n)
    params = lecun_init(len(grid.axes), probe.theta_size, seed=2)
    run = ParametricRun(params=params, history=History(columns=()), grid=grid,
                        family=family, n_elements=n)
    reports, expected = parametric_error_report(run), _reference_error_report(run)
    for label in ("train", "test"):
        assert reports[label] == expected[label]
        assert list(reports[label].adaptive) == list(expected[label].adaptive)


def test_report_skips_failed_tuples(tmp_path, caplog):
    """A tuple whose adapted or uniform solve fails is logged and left out
    of both columns, as training skips it; the CLI exits 0."""
    import dataclasses
    import json
    import logging

    from ritzmesh.cli import EXIT_OK, build_grid, main
    from ritzmesh.errors import DegenerateMeshError, SolverError
    from ritzmesh.training import load_checkpoint

    grid_cfg = {"problem": "arctan1d", "N": 8, "grid": {"counts": [6, 5]}}
    train_cfg = dict(grid_cfg, epochs=2, batch=10, schedule=[[0, 1.0]])
    report_cfg = dict(grid_cfg, checkpoint=str(tmp_path / "train" / "checkpoint.npz"))
    for name, cfg in (("train", train_cfg), ("report", report_cfg)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    with caplog.at_level(logging.WARNING, logger="ritzmesh.experiments"):
        for name in ("train", "report"):
            assert main([name, "--config", str(tmp_path / f"{name}.json"), "--seed", "5",
                         "--out", str(tmp_path / name)]) == EXIT_OK
    skipped = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("skipping sigma=")]
    assert len(skipped) == 2

    grid = build_grid(grid_cfg, "arctan1d", 5)
    run = ParametricRun(params=load_checkpoint(report_cfg["checkpoint"])[0],
                        history=History(columns=()), grid=grid, family="arctan1d",
                        n_elements=8)

    def kept(idx):
        out = []
        for i in idx:
            sig = tuple(grid.tuples[i])
            try:
                evaluate_mesh(run.problem_for(sig), run.mesh_for(sig))
                evaluate_uniform(run.problem_for(sig))
            except (DegenerateMeshError, SolverError):
                continue
            out.append(i)
        return np.array(out, dtype=grid.train_idx.dtype)

    kept_grid = dataclasses.replace(grid, train_idx=kept(grid.train_idx),
                                    test_idx=kept(grid.test_idx))
    assert kept_grid.train_idx.size + kept_grid.test_idx.size == grid.tuples.shape[0] - 2
    expected = report_rows(_reference_error_report(dataclasses.replace(run, grid=kept_grid)))
    lines = (tmp_path / "report" / "error_report.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    assert [(r[0], *map(float, r[1:])) for r in rows] == expected


class TestCsvFormat:
    def test_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        value = 1.0 / 3.0
        write_csv(str(path), ("a", "b"), [(1, value)])
        text = path.read_text().splitlines()
        assert text[0] == "a,b"
        assert text[1] == "1," + "%.17g" % value
        assert float(text[1].split(",")[1]) == value

    def test_deterministic_bytes(self, tmp_path):
        rows = [(i, np.sin(i)) for i in range(5)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(a), ("i", "x"), rows)
        write_csv(str(b), ("i", "x"), rows)
        assert a.read_bytes() == b.read_bytes()


class TestPresets:
    def test_named_schedules_present(self):
        assert PRESETS["arctan1d-parametric"]["schedule"] == ((0, 1e-2), (20, 1e-3))
        assert PRESETS["twomaterial1d-parametric"]["schedule"] == ((0, 1e-2), (30, 1e-3))
        assert PRESETS["twomaterial1d-parametric"]["epochs"] == 150
        assert PRESETS["lshape-adapt"]["iterations"] == 100000
