"""Linear solver contract."""

import _ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ritzmesh import solver
from ritzmesh.assembly import DofLabeling, SparseSystem, assemble_system, label_dirichlet
from ritzmesh.energy import ENERGY_SLACK, ritz_energy, ritz_energy_of
from ritzmesh.errors import SolverError
from ritzmesh.loads import reference_ritz
from ritzmesh.pipeline import evaluate, evaluate_uniform
from ritzmesh.problems import arctan1d, arctan2d, lshape, power1d, twomaterial1d
from ritzmesh.solver import RESIDUAL_TOL, solve_splu, solve_splu_batch, solve_spd
from ritzmesh.training import train_nonparametric


def _system(B, ell):
    ell = np.asarray(ell, dtype=float)
    n = ell.size
    lab = DofLabeling(free=np.arange(n), dirichlet=np.empty(0, dtype=int), n_nodes=n)
    return SparseSystem(B=sp.csr_matrix(B), ell=ell, labeling=lab)


class TestSolveSpd:
    def test_identity(self):
        ell = np.array([3.0, -1.0, 2.0])
        rep = solve_spd(_system(np.eye(3), ell))
        np.testing.assert_allclose(rep.c, ell, rtol=1e-14)
        assert rep.iterations == 0

    def test_hand_solved_2x2(self):
        rep = solve_spd(_system([[4.0, -2.0], [-2.0, 2.0]], [0.5, 0.25]))
        np.testing.assert_allclose(rep.c, [0.375, 0.5], rtol=1e-14)

    def test_random_spd_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(50, 50))
        A = M.T @ M + np.eye(50)
        b = rng.normal(size=50)
        expected = np.linalg.solve(A, b)
        for method, ran in (("direct-cholesky", "banded-cholesky"), ("cg", "cg")):
            rep = solve_spd(_system(A, b), method=method)
            rel = np.linalg.norm(rep.c - expected) / np.linalg.norm(expected)
            assert rel < 1e-10, method
            assert rep.method == ran

    def test_residual_contract(self):
        rng = np.random.default_rng(10)
        M = rng.normal(size=(30, 30))
        A = M.T @ M + 0.5 * np.eye(30)
        b = rng.normal(size=30)
        rep = solve_spd(_system(A, b))
        assert rep.residual_norm <= RESIDUAL_TOL * np.linalg.norm(b)

    def test_rejects_asymmetric(self):
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(SolverError):
            solve_spd(_system(A, np.ones(2)))

    def test_rejects_singular(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SolverError):
            solve_spd(_system(A, np.ones(2)))

    def test_rejects_overflowing_solution(self):
        # c = 1 / 1e-310 overflows: an infinite residual against an infinite bound
        with pytest.raises(SolverError, match="^residual"):
            solve_spd(_system(np.diag([1e-310, 1.0]), np.ones(2)))

    def test_rejects_nonfinite_load(self):
        with pytest.raises(SolverError):
            solve_spd(_system(np.eye(2), np.array([1.0, np.inf])))

    def test_zero_load(self):
        rep = solve_spd(_system(np.eye(3), np.zeros(3)))
        np.testing.assert_array_equal(rep.c, 0.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_spd(_system(np.eye(2), np.ones(2)), method="magic")


BENCH_1D = [
    lambda n: arctan1d(10.0, 0.5, n_elements=n),
    lambda n: power1d(0.7, n_elements=n),
    lambda n: twomaterial1d(10.0, n_elements=n),
]


class TestBenchmarkSystems:
    @pytest.mark.parametrize("make", BENCH_1D)
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_residual_1d(self, make, n):
        ev = evaluate_uniform(make(n))
        assert ev.report.residual_norm <= RESIDUAL_TOL * np.linalg.norm(ev.system.ell)

    @pytest.mark.parametrize("make", [
        lambda n: arctan2d(10.0, 0.05, 0.05, n_elements=n, order=10),
        lambda n: lshape(1.0, 1.0, n_elements=n),
    ])
    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_residual_2d(self, make, n):
        ev = evaluate_uniform(make(n))
        assert ev.report.residual_norm <= RESIDUAL_TOL * np.linalg.norm(ev.system.ell)

    @pytest.mark.parametrize("make", BENCH_1D)
    def test_direct_and_cg_agree(self, make):
        system = evaluate_uniform(make(128)).system
        direct = solve_spd(system, method="direct-cholesky")
        cg = solve_spd(system, method="cg")
        rel = np.linalg.norm(direct.c - cg.c) / np.linalg.norm(direct.c)
        assert rel < 1e-8

    def test_direct_and_cg_agree_2d(self):
        system = evaluate_uniform(lshape(3.0, 0.3, n_elements=32)).system
        direct = solve_spd(system, method="direct-cholesky")
        cg = solve_spd(system, method="cg")
        rel = np.linalg.norm(direct.c - cg.c) / np.linalg.norm(direct.c)
        assert rel < 1e-8

    def test_energy_minimized_at_solution(self):
        from ritzmesh.energy import ritz_energy
        ev = evaluate_uniform(arctan1d(10.0, 0.5, n_elements=16))
        J0 = ritz_energy(ev.system, ev.c)
        rng = np.random.default_rng(12)
        for _ in range(10):
            i = rng.integers(ev.c.size)
            for sign in (+1, -1):
                c = ev.c.copy()
                c[i] += sign * 1e-3
                assert ritz_energy(ev.system, c) > J0


def _splu_reference(system):
    """The general sparse LU that banded Cholesky replaced for 2D systems."""
    return spla.splu(system.B.tocsc()).solve(system.ell)


class TestSolvePaths:
    @pytest.mark.parametrize("make", [
        lambda n: lshape(1.7, 0.4, n_elements=n),
        lambda n: arctan2d(10.0, 0.3, 0.6, n_elements=n, order=10),
    ])
    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_banded_matches_splu_2d(self, make, n):
        problem = make(n)
        rng = np.random.default_rng(n)
        system = evaluate(problem, rng.normal(0, 0.3, problem.theta_size)).system
        rep = solve_spd(system)
        assert rep.method == "banded-cholesky"
        ref = _splu_reference(system)
        assert np.linalg.norm(rep.c - ref) <= 1e-12 * np.linalg.norm(ref)
        assert rep.residual_norm <= RESIDUAL_TOL * np.linalg.norm(system.ell)

    @pytest.mark.parametrize("offsets,ran", [((-1, 0, 1), "splu"), ((-2, 0, 2), "cg")])
    def test_auto_cg_only_above_limit_and_not_tridiagonal(self, offsets, ran):
        n = 20001
        B = sp.diags([-np.ones(n - offsets[2]), np.full(n, 4.0), -np.ones(n - offsets[2])],
                     offsets, format="csr")
        ell = np.linspace(1.0, 2.0, n)
        rep = solve_spd(_system(B, ell))
        assert rep.method == ran
        assert rep.residual_norm <= RESIDUAL_TOL * np.linalg.norm(ell)

    def test_indefinite_pentadiagonal_raises(self, monkeypatch):
        # symmetric and nonsingular, so LU would solve it; Cholesky must not
        n = 12
        main = np.full(n, 4.0)
        main[5] = -4.0
        B = sp.diags([np.ones(n - 2), -np.ones(n - 1), main, -np.ones(n - 1),
                      np.ones(n - 2)], [-2, -1, 0, 1, 2], format="csr")
        assert np.isfinite(np.linalg.cond(B.toarray()))

        def forbidden(*args, **kwargs):
            raise AssertionError("pentadiagonal system went to splu")

        monkeypatch.setattr(spla, "splu", forbidden)
        with pytest.raises(SolverError, match="banded Cholesky"):
            solve_spd(_system(B, np.ones(n)))

    def test_wide_band_takes_splu(self):
        # arrow pattern: dense first row and column, bandwidth n - 1
        n = 200
        A = sp.lil_matrix((n, n))
        A.setdiag(float(n))
        A[0, 1:] = 1.0
        A[1:, 0] = 1.0
        b = np.linspace(1.0, 2.0, n)
        rep = solve_spd(_system(A.tocsr(), b))
        assert rep.method == "splu"
        np.testing.assert_allclose(rep.c, np.linalg.solve(A.toarray(), b), rtol=1e-12)

    @pytest.mark.parametrize("make", BENCH_1D)
    def test_1d_is_bitwise_splu(self, make):
        # the recorded parametric arctan1d errors depend on this arithmetic
        problem = make(64)
        rng = np.random.default_rng(5)
        system = evaluate(problem, rng.normal(0, 0.3, problem.theta_size)).system
        rep = solve_spd(system)
        assert rep.method == "splu"
        np.testing.assert_array_equal(rep.c, _splu_reference(system))

    def test_zero_load_reports_selected_path(self):
        rep = solve_spd(_system(sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(9, 9)),
                                np.zeros(9)))
        assert rep.method == "splu" and rep.iterations == 0


class TestRefinement:
    """There is none: one factorization, one backward-error check."""

    @pytest.mark.parametrize("seed,make,single", [
        (747, lambda rng: arctan1d(rng.uniform(1, 50), rng.uniform(0.2, 0.8), n_elements=16),
         _splu_reference),
        (493, lambda rng: lshape(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                                 n_elements=8),
         lambda s: sla.solveh_banded(sla_band(s.B), s.ell, lower=True)),
    ], ids=["splu", "banded-cholesky"])
    def test_graded_system_is_one_factorization(self, seed, make, single):
        # random graded meshes (from a seeded search) whose single
        # factorization leaves |r| above 1e-10 |ell|: the solve is
        # backward stable all the same, and its c is accepted as it is
        rng = np.random.default_rng(seed)
        problem = make(rng)
        system = evaluate(problem, rng.normal(0, rng.uniform(1, 6), problem.theta_size)).system
        tol = RESIDUAL_TOL * np.linalg.norm(system.ell)
        c0 = single(system)
        assert np.linalg.norm(system.B @ c0 - system.ell) > tol
        rep = solve_spd(system)
        assert rep.iterations == 0
        np.testing.assert_array_equal(rep.c, c0)

    @pytest.mark.parametrize("error", [1e-6, 1e-4, 1e-2])
    def test_inexact_factor_raises(self, monkeypatch, error):
        # an inexact factor: each solve returns (1 - error) times the
        # exact one, a backward error of about `error`
        B = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(9, 9), format="csr")
        ell = np.linspace(1.0, 2.0, 9)

        class Inexact:
            def __init__(self, A):
                self.A = A.toarray()

            def solve(self, b):
                return (1.0 - error) * np.linalg.solve(self.A, b)

        monkeypatch.setattr(spla, "splu", Inexact)
        with pytest.raises(SolverError, match="^residual"):
            solve_spd(_system(B, ell))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    def test_rounded_exact_solution_misses_residual_bound(self):
        # uniform arctan1d, N=4000, with the exact stiffness w = N on every
        # element: the flux recurrence q = reverse cumsum(ell), c =
        # cumsum(q / w) in long double, rounded, is the exact solution to
        # about an ulp, yet |B c - ell| > 1e-10 |ell|
        n = 4000
        ell = evaluate_uniform(arctan1d(n_elements=n)).system.ell
        B = sp.diags([np.full(n - 1, -n), np.append(np.full(n - 1, 2 * n), n),
                      np.full(n - 1, -n)], [-1, 0, 1], format="csr", dtype=float)
        q = np.cumsum(ell[::-1].astype(np.longdouble))[::-1]
        c = np.cumsum(q / n).astype(float)
        residual = np.linalg.norm(B @ c - ell)
        assert residual > RESIDUAL_TOL * np.linalg.norm(ell)
        solver._check_residual(residual, np.linalg.norm(B.data), np.linalg.norm(c),
                               np.linalg.norm(ell))
        rep = solve_spd(_system(B, ell))
        assert np.linalg.norm(rep.c - c) <= 1e-10 * np.linalg.norm(c)

    @pytest.mark.parametrize("make", [
        lambda: arctan1d(n_elements=4000),
        lambda: twomaterial1d(10.0, n_elements=8000),
        lambda: power1d(0.9, n_elements=20001),
    ], ids=["arctan1d-4000", "twomaterial1d-8000", "power1d-20001"])
    def test_fine_uniform_mesh_completes(self, make):
        # fine meshes, where |B| |c| dwarfs |ell|
        problem = make()
        ev = evaluate_uniform(problem)
        assert ev.report.method == "splu" and ev.report.iterations == 0
        assert ev.J >= reference_ritz(problem) - ENERGY_SLACK

    def test_lshape_sliver_run_completes(self):
        # at step 5 the banded solve leaves |r| = 1.1e-10 |ell|, a tiny
        # backward error, and the run goes on
        problem = lshape(1.8329807108324356, 0.6951927961775606, n_elements=128)
        _, history = train_nonparametric(problem, schedule=[(0, 1e-2)], iterations=12)
        assert history.rows[-1][0] == 12 and np.all(np.isfinite(history.column("J")))


def sla_band(B):
    """Lower band storage of a canonical symmetric CSR matrix."""
    offsets = B.indices - np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
    kd = int(offsets.max())
    lower = offsets <= 0
    ab = np.zeros((kd + 1, B.shape[0]))
    ab[-offsets[lower], B.indices[lower]] = B.data[lower]
    return ab


def _graded_747():
    """TestRefinement's seed-747 arctan1d system, whose one-splu residual
    exceeds 1e-10 |ell|."""
    rng = np.random.default_rng(747)
    problem = arctan1d(rng.uniform(1, 50), rng.uniform(0.2, 0.8), n_elements=16)
    return evaluate(problem, rng.normal(0, rng.uniform(1, 6), problem.theta_size)).system


def _csc(B):
    A = B.tocsc()
    A.has_canonical_format = True
    return A


def _assert_batch_is_single_solves(systems):
    """solve_splu_batch on the systems' shared pattern gives, row by row,
    solve_splu's report or error and ritz_energy's J, bitwise."""
    As = [_csc(s.B) for s in systems]
    data = np.array([A.data for A in As])
    ells = [s.ell.copy() for s in systems]
    batch = solve_splu_batch(As[0].indptr, As[0].indices, data, ells)
    assert len(batch) == len(systems)
    for A, ell, (result, Bc) in zip(As, ells, batch):
        try:
            single = solve_splu(A, ell)
        except SolverError as exc:
            assert isinstance(result, SolverError) and str(result) == str(exc)
            assert Bc is None
            continue
        np.testing.assert_array_equal(result.c, single.c)
        assert (result.residual_norm, result.iterations, result.method) == (
            single.residual_norm, single.iterations, single.method)
        J = ritz_energy_of(Bc, ell, result.c)
        assert J == ritz_energy(SparseSystem(B=A, ell=ell, labeling=None), single.c)
    return batch


FAMILIES_1D = {
    "arctan1d": lambda rng, n: arctan1d(rng.uniform(1, 100), rng.uniform(0.1, 0.9),
                                        n_elements=n),
    "power1d": lambda rng, n: power1d(rng.uniform(0.51, 5.0), n_elements=n),
    "twomaterial1d": lambda rng, n: twomaterial1d(10 ** rng.uniform(-4, 4), n_elements=n),
}


class TestSolveBatch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(family=st.sampled_from(sorted(FAMILIES_1D)),
           n=st.sampled_from([1, 2, 3, 8, 16, 64, 20001]), rows=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 4.0),
           loads=st.lists(st.sampled_from(["assembled", "zero", "nan", "inf"]), min_size=6,
                          max_size=6),
           graded=st.booleans())
    @example(family="arctan1d", n=16, rows=6, seed=1, sigma=1.0, graded=True,
             loads=["assembled", "zero", "nan", "inf", "assembled", "assembled"])
    @example(family="arctan1d", n=20001, rows=2, seed=2, sigma=0.0, graded=False,
             loads=["assembled"] * 6)
    @example(family="power1d", n=20001, rows=2, seed=3, sigma=0.0, graded=False,
             loads=["assembled", "zero"] * 3)
    def test_rows_are_bitwise_single_solves(self, family, n, rows, seed, sigma, loads, graded):
        rng = np.random.default_rng(seed)
        if n == 20001:
            rows = min(rows, 2)
        if family == "twomaterial1d":
            n = max(n + n % 2, 2)     # the interface at 0.5 is a fixed node
        graded = graded and family == "arctan1d"
        if graded:
            n = 16
        systems = []
        for kind in loads[:rows]:
            problem = FAMILIES_1D[family](rng, n)
            mesh = problem.build_mesh(rng.normal(0.0, sigma if n < 20001 else 0.05,
                                                 problem.theta_size))
            labeling = label_dirichlet(mesh, problem.boundary)
            system = assemble_system(mesh, labeling, problem.material, problem.load)
            ell = system.ell.copy()
            if kind == "zero":
                ell[:] = 0.0
            elif ell.size and kind != "assembled":
                ell[rng.integers(ell.size)] = np.nan if kind == "nan" else np.inf
            systems.append(SparseSystem(B=system.B, ell=ell, labeling=labeling))
        if graded:
            systems.append(_graded_747())
        if len({s.labeling.free.tobytes() for s in systems}) == 1:
            _assert_batch_is_single_solves(systems)

    def test_graded_row_is_one_splu_in_the_block(self, monkeypatch):
        rng = np.random.default_rng(2)
        systems = [evaluate(arctan1d(rng.uniform(1, 50), 0.5, n_elements=16),
                            rng.normal(0, 0.5, 16)).system for _ in range(3)]
        systems.insert(1, _graded_747())
        _assert_batch_is_single_solves(systems)         # warms the pattern cache
        calls = []
        real = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(k) or real(*a, **k))
        batch = _assert_batch_is_single_solves(systems)
        assert calls[0] == {"permc_spec": "NATURAL"}
        assert batch[1][0].iterations == 0
        np.testing.assert_array_equal(batch[1][0].c, _splu_reference(systems[1]))

    @pytest.mark.parametrize("case", ["singular", "off-diagonal-pivot"])
    def test_failed_block_goes_row_by_row(self, monkeypatch, case):
        # tridiagonal rows on one pattern: a singular row makes the block
        # factor raise; a row with tiny diagonals makes it pivot off the
        # diagonal, where the single factors' arithmetic may differ
        n = 6
        def tridiagonal(off, diag):
            return sp.diags([np.full(n - 1, off), np.full(n, diag), np.full(n - 1, off)],
                            [-1, 0, 1], format="csr")
        bad = tridiagonal(-1.0, 2.0) if case == "singular" else tridiagonal(1.0, 1e-3)
        systems = [_system(tridiagonal(-1.0, d), np.linspace(1, 2, n)) for d in (2.0, 3.0)]
        systems.insert(1, _system(bad, np.linspace(1, 2, n)))
        if case == "singular":
            systems[1].B.data[:] = 0.0            # keep the tridiagonal pattern
        _assert_batch_is_single_solves(systems)
        calls = []
        real = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(k) or real(*a, **k))
        batch = _assert_batch_is_single_solves(systems)
        # one block factor, then one splu per row in the batch and in the oracle
        assert calls[0] == {"permc_spec": "NATURAL"} and len(calls) == 1 + 2 * len(systems)
        if case == "singular":
            assert isinstance(batch[1][0], SolverError)
            assert "factorization failed" in str(batch[1][0])
        assert all(not isinstance(result, SolverError) for result, _ in batch[::2])


class TestBlasThreads:
    def test_missing_library_or_symbol_gives_no_setter(self, tmp_path):
        assert solver._thread_setter(tmp_path) is None
        (tmp_path / "libscipy_openblas-bad.so").write_bytes(b"not a library")
        assert solver._thread_setter(tmp_path) is None
        other = tmp_path / "symbol"
        other.mkdir()
        # a loadable library without openblas_set_num_threads_local
        (other / "libscipy_openblas-other.so").symlink_to(Path(_ctypes.__file__))
        assert solver._thread_setter(other) is None

    def test_banded_solve_pins_one_thread_and_restores(self, monkeypatch):
        system = evaluate_uniform(lshape(1.0, 1.0, n_elements=16)).system
        calls = []
        monkeypatch.setattr(solver, "_scipy_blas_threads",
                            lambda: lambda k: calls.append(k) or 7)
        pinned = solve_spd(system)
        assert pinned.method == "banded-cholesky" and calls == [1, 7]
        monkeypatch.setattr(solver, "_scipy_blas_threads", lambda: None)
        np.testing.assert_array_equal(solve_spd(system).c, pinned.c)

    def test_setter_found_in_this_install(self):
        # scipy's wheels bundle libscipy_openblas with the symbol
        setter = solver._scipy_blas_threads()
        assert setter is not None
        previous = setter(1)
        assert setter(previous) == 1
