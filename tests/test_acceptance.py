"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The expensive criteria (singular convergence, L-shape adaptation) take
a few minutes together; everything is deterministic for fixed seeds.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ritzmesh.energy import relative_error
from ritzmesh.experiments import (
    fit_rate,
    parametric_error_report,
    run_landscape,
)
from ritzmesh.loads import (
    energy_norm_sq_power,
    energy_norm_sq_sine_material,
    reference_ritz,
)
from ritzmesh.mesh import MeshParams1D, build_mesh_1d, mesh_pullback, softmax_partition
from ritzmesh.pipeline import (
    evaluate_uniform,
    evaluate_with_gradient,
    finite_difference_gradient,
)
from ritzmesh.problems import arctan1d, arctan2d, lshape, make_problem, power1d, twomaterial1d
from ritzmesh.sampling import default_axes, split_train_test
from ritzmesh.solver import RESIDUAL_TOL, solve_spd
from ritzmesh.training import train_nonparametric, train_parametric

GRAD_TOL = 1e-5
#: central-difference step; 1e-5 keeps the oracle's own roundoff
#: noise (~eps * |J| / step) well below GRAD_TOL * |grad|
FD_STEP = 1e-5
POWER_SCHEDULE = [(0, 1e-2), (4000, 1e-3), (14000, 1e-4)]


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_benchmark_configs(rng):
    """One random (problem, theta) pair per draw, per family."""

    def safe_theta(problem, scale, guard_coords):
        # keep movable nodes clear of coordinate thresholds (fixed
        # interfaces, the L-shape mask line) so the finite-difference
        # step never crosses a sort tie or a relabeling
        for _ in range(100):
            theta = rng.normal(0, scale, problem.theta_size)
            mesh = problem.build_mesh(theta)
            axes = [mesh] if problem.dim == 1 else [mesh.mesh_x, mesh.mesh_y]
            clear = True
            for m in axes:
                interior = m.nodes[1:-1]
                for guard in guard_coords:
                    moving = interior[np.abs(interior - guard) > 1e-12]
                    if moving.size and np.min(np.abs(moving - guard)) < 1e-3:
                        clear = False
            if clear:
                return theta
        raise RuntimeError("could not draw a guarded theta")

    def draw(family):
        if family == "arctan1d":
            p = arctan1d(float(rng.uniform(2, 40)), float(rng.uniform(0.25, 0.75)),
                         n_elements=int(rng.integers(6, 17)))
            return p, rng.normal(0, 0.3, p.theta_size)
        if family == "power1d":
            # the singular regime; sigma -> 1 makes the exact solution
            # representable on every mesh, so the gradient (and any
            # finite-difference reference) vanishes into roundoff there
            p = power1d(float(rng.uniform(0.55, 0.9)),
                        n_elements=int(rng.integers(6, 17)))
            return p, rng.normal(0, 0.3, p.theta_size)
        if family == "twomaterial1d":
            p = twomaterial1d(float(10 ** rng.uniform(-2, 2)),
                              n_elements=int(rng.integers(6, 17)))
            return p, safe_theta(p, 0.3, (0.5,))
        if family == "arctan2d":
            p = arctan2d(float(rng.uniform(2, 12)), float(rng.uniform(0.2, 0.8)),
                         float(rng.uniform(0.2, 0.8)),
                         n_elements=int(rng.integers(3, 6)), order=5)
            return p, rng.normal(0, 0.25, p.theta_size)
        p = lshape(float(10 ** rng.uniform(-0.5, 0.5)),
                   float(10 ** rng.uniform(-0.5, 0.5)),
                   n_elements=int(rng.integers(2, 4)) * 2)
        return p, safe_theta(p, 0.2, (0.5,))

    return draw


class TestCriterion1GradientCorrectness:
    def test_reduced_gradient_matches_full_pipeline_fd(self):
        rng = np.random.default_rng(2024)
        draw = _random_benchmark_configs(rng)
        start = time.time()
        worst = {}
        for family in ("arctan1d", "power1d", "twomaterial1d", "arctan2d", "lshape"):
            rels = []
            for _ in range(20):
                problem, theta = draw(family)
                _, grad = evaluate_with_gradient(problem, theta)
                fd = finite_difference_gradient(problem, theta, step=FD_STEP)
                rels.append(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
            worst[family] = max(rels)
        elapsed = time.time() - start
        ok = all(r < GRAD_TOL for r in worst.values()) and elapsed < 60
        detail = (
            "reduced gradient vs FD over 20 configs/family, worst rel err "
            + ", ".join(f"{f}={r:.2e}" for f, r in worst.items())
            + f", runtime {elapsed:.1f}s"
        )
        _report(1, ok, detail)


class TestCriterion2VanishingPartial:
    def test_frozen_solution_gradient_equals_resolving_fd(self):
        # the analytic gradient treats the solved coefficients as
        # constants (the solve is never differentiated); the finite
        # difference re-solves at every perturbed logit.  Agreement is
        # the stationarity of the energy in the coefficients, observed
        # operationally.
        rng = np.random.default_rng(7)
        draw = _random_benchmark_configs(rng)
        rels = {}
        for family in ("arctan1d", "power1d", "twomaterial1d", "arctan2d", "lshape"):
            problem, theta = draw(family)
            _, grad = evaluate_with_gradient(problem, theta)
            fd = finite_difference_gradient(problem, theta, step=FD_STEP)
            rels[family] = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        ok = all(r < GRAD_TOL for r in rels.values())
        _report(2, ok, "no-solver-derivative gradient agrees with re-solving FD: "
                + ", ".join(f"{f}={r:.2e}" for f, r in rels.items()))


class TestCriterion3SingularPowerConvergence:
    def test_uniform_and_adaptive_rates(self):
        problem = power1d(0.7)
        n_list = [32, 64, 128, 256]
        j_exact = reference_ritz(problem)
        e_h = [relative_error(evaluate_uniform(problem.with_n(n)).J, j_exact)
               for n in n_list]
        rate_uniform = fit_rate(n_list, e_h)

        e_t = []
        for n in n_list:
            _, history = train_nonparametric(problem.with_n(n),
                                             schedule=POWER_SCHEDULE,
                                             iterations=20000)
            e_t.append(history.column("e_theta")[-1])
        rate_adaptive = fit_rate(n_list, e_t)

        ok = abs(rate_uniform + 0.20) <= 0.05 and rate_adaptive <= -0.90
        _report(3, ok, f"uniform rate {rate_uniform:+.3f} (target -0.20 +/- 0.05), "
                f"adaptive rate {rate_adaptive:+.3f} (target <= -0.90); "
                f"e_h={['%.4f' % e for e in e_h]}, e_theta={['%.4f' % e for e in e_t]}")


class TestCriterion4ArctanAdaptation:
    def test_beats_uniform_then_stagnates(self):
        problem = arctan1d(10.0, 0.5, n_elements=32)
        j_exact = reference_ritz(problem)
        e_h = relative_error(evaluate_uniform(problem).J, j_exact)
        _, history = train_nonparametric(problem, schedule=[(0, 1e-2)],
                                         iterations=5000)
        e = history.column("e_theta")
        beats_by_1000 = e[1000] < e_h
        stagnation = abs(e[5000] - e[1000]) / e[1000]
        ok = beats_by_1000 and stagnation < 0.05
        _report(4, ok, f"e_theta(1000)={e[1000]:.5f} < e_h={e_h:.5f}: {beats_by_1000}; "
                f"relative change 1000->5000 = {stagnation:.2e} (< 5%)")


class TestCriterion5QuadraturePathology:
    def test_two_point_loads_break_the_lower_bound(self):
        offsets = np.linspace(-0.05, 0.05, 200)
        rows, _, j_true = run_landscape(alpha=50.0, s=0.5, n_elements=10,
                                        movable_index=5, offsets=offsets,
                                        quad_orders=(2,))
        arr = np.array(rows)
        exact_above = bool(np.all(arr[:, 1] >= j_true - 1e-10))
        quad_min = arr[:, 2].min()
        quad_below = bool(quad_min < j_true)
        ok = exact_above and quad_below
        _report(5, ok, f"exact landscape >= J(u)-1e-10 everywhere: {exact_above}; "
                f"2-pt quadrature min {quad_min:.1f} < J(u) = {j_true:.3f}: {quad_below}")


class TestCriterion6LShape:
    def test_monotone_uniform_energies_and_adaptive_gain(self):
        problem = lshape(1.0, 1.0, n_elements=32)
        j_ref = reference_ritz(problem)
        energies = [evaluate_uniform(problem.with_n(n)).J for n in (8, 16, 32)]
        monotone = energies[0] > energies[1] > energies[2] > j_ref
        e_h32 = relative_error(energies[2], j_ref)
        _, history = train_nonparametric(problem, schedule=[(0, 1e-2)],
                                         iterations=10000)
        e_t32 = history.column("e_theta")[-1]
        ok = monotone and e_t32 < e_h32
        _report(6, ok, f"J_h {['%.7f' % j for j in energies]} decreasing toward "
                f"{j_ref}: {monotone}; adapted e_theta={e_t32:.5f} < "
                f"uniform e_h={e_h32:.5f}")


class TestCriterion7ParametricDeskScale:
    def test_arctan_family_halves_uniform_error(self):
        grid = split_train_test(default_axes("arctan1d", counts=(10, 10)), seed=0)
        run = train_parametric("arctan1d", grid, n_elements=16,
                               schedule=[(0, 1e-2)], epochs=50, batch=10, seed=0,
                               monitor_every=70)
        agg = parametric_error_report(run)["test"].aggregate()
        ok = agg["mean_adaptive"] < 0.5 * agg["mean_uniform"]
        _report("7a", ok, f"arctan1d N=16, 10x10 grid, 50 epochs: mean test "
                f"e_theta={agg['mean_adaptive']:.4f} < 0.5 * mean test "
                f"e_h={agg['mean_uniform']:.4f}")

    def test_two_material_family_beats_uniform(self):
        grid = split_train_test(default_axes("twomaterial1d", counts=(20,)), seed=0)
        run = train_parametric("twomaterial1d", grid, n_elements=12,
                               schedule=[(0, 1e-2), (30, 1e-3)], epochs=150,
                               batch=10, seed=0, monitor_every=100)
        agg = parametric_error_report(run)["test"].aggregate()
        ok = agg["mean_adaptive"] < agg["mean_uniform"]
        _report("7b", ok, f"twomaterial1d N=12, 20 samples, 150 epochs: mean test "
                f"e_theta={agg['mean_adaptive']:.4f} < mean test "
                f"e_h={agg['mean_uniform']:.4f}")


class TestCriterion8AnalyticEnergies:
    def test_closed_form_identities(self):
        rng = np.random.default_rng(88)
        worst_power = 0.0
        for sg in rng.uniform(0.51, 5.0, size=50):
            lhs = energy_norm_sq_power(sg) * (2 * sg - 1)
            worst_power = max(worst_power, abs(lhs - sg * sg) / (sg * sg))
        worst_sine = 0.0
        for sg in 10 ** rng.uniform(-3, 3, size=50):
            expected = np.pi**2 * (1 + 1 / sg)
            worst_sine = max(worst_sine,
                             abs(energy_norm_sq_sine_material(sg) - expected) / expected)
        ok = worst_power < 1e-12 and worst_sine < 1e-12
        _report(8, ok, f"power identity worst rel err {worst_power:.2e}, "
                f"two-material identity worst rel err {worst_sine:.2e} (both < 1e-12)")


class TestCriterion9SolverContract:
    def test_benchmark_residuals_and_method_agreement(self):
        cases = [
            arctan1d(10.0, 0.5, n_elements=256),
            power1d(0.7, n_elements=256),
            twomaterial1d(10.0, n_elements=256),
            arctan2d(10.0, 0.05, 0.05, n_elements=64),
            lshape(1.0, 1.0, n_elements=64),
        ]
        worst_res, worst_gap = 0.0, 0.0
        for problem in cases:
            system = evaluate_uniform(problem).system
            direct = solve_spd(system)
            rel_res = direct.residual_norm / np.linalg.norm(system.ell)
            worst_res = max(worst_res, rel_res)
            # the independent check: Jacobi-preconditioned CG
            cg, info = spla.cg(system.B, system.ell, rtol=1e-12, atol=0.0,
                               maxiter=20 * system.ell.size,
                               M=sp.diags(1.0 / system.B.diagonal()))
            assert info == 0
            gap = np.linalg.norm(direct.c - cg) / np.linalg.norm(direct.c)
            worst_gap = max(worst_gap, gap)
        ok = worst_res <= RESIDUAL_TOL and worst_gap < 1e-8
        _report(9, ok, f"N=256 (1D) and 64^2 (2D) benchmarks: worst relative "
                f"residual {worst_res:.2e} (<= 1e-10), worst direct-vs-CG gap "
                f"{worst_gap:.2e} (< 1e-8)")


class TestCriterion10MeshInvariantSuite:
    def test_thousand_randomized_cases(self):
        rng = np.random.default_rng(1000)
        failures = []
        worst_fd = 0.0
        for case in range(1000):
            n = int(rng.integers(2, 13))
            theta = rng.normal(0, 2.0, n)
            a, b = sorted(rng.normal(0, 2, 2))
            if b - a < 0.1:
                b = a + 0.1
            params = MeshParams1D(theta=theta, interval=(a, b))
            delta = softmax_partition(theta)
            if abs(delta.sum() - 1.0) > 1e-14 * n:
                failures.append((case, "partition"))
            mesh = build_mesh_1d(params)
            if not np.all(np.diff(mesh.nodes) > 0):
                failures.append((case, "monotonicity"))
            if mesh.nodes[0] != a or mesh.nodes[-1] != b:
                failures.append((case, "endpoints"))
            shifted = build_mesh_1d(MeshParams1D(theta=theta + rng.normal(), interval=(a, b)))
            if not np.allclose(shifted.nodes, mesh.nodes, rtol=1e-12, atol=1e-12 * (b - a)):
                failures.append((case, "shift invariance"))
            if case % 25 == 0:
                w = rng.normal(size=mesh.nodes.size)
                grad_nodes = w * np.cos(w @ mesh.nodes)
                analytic = mesh_pullback(grad_nodes, mesh.record, params)
                fd = np.zeros(n)
                for j in range(n):
                    for sign in (+1, -1):
                        bumped = theta.copy()
                        bumped[j] += sign * 1e-6
                        m = build_mesh_1d(MeshParams1D(theta=bumped, interval=(a, b)))
                        fd[j] += sign * np.sin(w @ m.nodes)
                    fd[j] /= 2e-6
                denom = max(np.linalg.norm(fd), 1e-12)
                rel = np.linalg.norm(analytic - fd) / denom
                worst_fd = max(worst_fd, rel)
                if rel > 1e-6:
                    failures.append((case, f"pullback fd {rel:.1e}"))
        ok = not failures
        _report(10, ok, f"1000 randomized meshes: partition of unity, "
                f"monotonicity, exact endpoints, shift invariance, pullback-FD "
                f"(worst {worst_fd:.2e}); failures: {failures[:5]}")
