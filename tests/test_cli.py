"""Command-line interface: commands, exit codes, artifact determinism."""

import json
import os

import numpy as np
import pytest

from ritzmesh.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSolve:
    def test_toy_problem_prints_hand_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "solve.json",
                          {"problem": "constant1d", "sigma": [1.0], "N": 2})
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "-0.15625" in out
        assert (tmp_path / "out" / "solve.csv").exists()

    def test_benchmark_solve_reports_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "solve.json",
                          {"problem": "arctan1d", "N": 16})
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "e_h" in capsys.readouterr().out


class TestAdapt:
    def test_writes_history_and_nodes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "adapt.json",
                          {"problem": "arctan1d", "N": 8, "iterations": 20})
        out = tmp_path / "run"
        code = main(["adapt", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,J,e_theta"
        assert len(history) == 22
        nodes = (out / "nodes.csv").read_text().splitlines()
        assert len(nodes) == 10  # header + 9 nodes

    def test_seeded_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "adapt.json",
                          {"problem": "twomaterial1d", "N": 8, "iterations": 15})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["adapt", "--config", cfg, "--seed", "7",
                         "--out", str(out)]) == EXIT_OK
            outs.append((out / "history.csv").read_bytes())
        assert outs[0] == outs[1]


class TestTrainAndReport:
    def test_train_then_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "train.json", {
            "problem": "arctan1d", "N": 8,
            "grid": {"counts": [5, 5]},
            "epochs": 2, "batch": 5, "schedule": [[0, 1e-2]],
        })
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "checkpoint.npz").exists()
        assert (out / "history.csv").read_text().splitlines()[0] == "iteration,loss,e_test"

        report_cfg = write_config(tmp_path, "report.json", {
            "problem": "arctan1d", "N": 8,
            "grid": {"counts": [5, 5]},
            "checkpoint": str(out / "checkpoint.npz"),
        })
        assert main(["report", "--config", report_cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "error_report.csv").read_text().splitlines()
        assert lines[0] == "dataset,mean_e_theta,max_e_theta,mean_e_h,max_e_h"
        assert lines[1].startswith("train,") and lines[2].startswith("test,")


class TestConvergenceAndLandscape:
    def test_convergence_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "conv.json", {
            "problem": "arctan1d", "N_list": [4, 8], "iterations": 10,
        })
        out = tmp_path / "conv"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "rate_uniform" in capsys.readouterr().out
        assert (out / "rates.csv").exists()

    def test_landscape_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "land.json",
                          {"alpha": 50.0, "s": 0.5, "N": 10,
                           "sweep": {"lo": -0.02, "hi": 0.02, "count": 11}})
        out = tmp_path / "land"
        assert main(["landscape", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "landscape.csv").read_text().splitlines()
        assert lines[0] == "theta,J_exact_min,J_quad_min"
        assert len(lines) == 12


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_problem(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"problem": "warp_drive"})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_problem_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"N": 4})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_preset(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"problem": "arctan1d"})
        assert main(["solve", "--config", cfg, "--preset", "warp",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_numerical_failure_exit_code(self, tmp_path):
        # N = 11 leaves 10 logits, and the uniform 10-chain puts a node
        # exactly on the fixed interface: degenerate at iteration 0
        cfg = write_config(tmp_path, "c.json",
                          {"problem": "twomaterial1d", "N": 11, "iterations": 5})
        code = main(["adapt", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("order", ["x", 2.5])
    def test_bad_quadrature_order(self, tmp_path, order):
        cfg = write_config(tmp_path, "c.json", {"problem": "arctan2d", "N": 4,
                                                "problem_options": {"order": order}})
        assert main(["adapt", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_grid_counts_of_wrong_length(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"problem": "arctan1d", "N": 8,
                                                "grid": {"counts": [3]}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_schedule_not_starting_at_zero(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"problem": "arctan1d", "N": 8,
                                                "iterations": 5, "schedule": [[1, 1e-2]]})
        assert main(["adapt", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_non_integer_element_count(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"problem": "arctan1d", "N": "x"})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_inconsistent_reference_exit_code(self, tmp_path):
        # one-point quadrature lets adaptation push J below J(u)
        cfg = write_config(tmp_path, "c.json", {
            "problem": "arctan1d", "sigma": [50.0, 0.5], "N": 4, "iterations": 20,
            "problem_options": {"mode": "quadrature", "order": 1}})
        assert main(["adapt", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL

    def test_preset_supplies_schedule(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                          {"problem": "arctan1d", "N": 8, "iterations": 5})
        assert main(["adapt", "--config", cfg, "--preset", "arctan1d-adapt",
                     "--out", str(tmp_path / "o")]) == EXIT_OK
