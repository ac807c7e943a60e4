"""pipeline.evaluate_batch against the single-problem chain, bitwise.

The oracle is evaluate_with_gradient per sample: a batch row must carry
the same mesh nodes, free-node load, coefficients, energy and logits
gradient to the last bit, because the parametric benchmark amplifies
last-bit differences past its recorded final errors.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ritzmesh import loads as ld
from ritzmesh import pipeline, problems
from ritzmesh.errors import DegenerateMeshError, SolverError
from ritzmesh.solver import RESIDUAL_TOL

FAMILIES = {
    "arctan1d": lambda rng, n: problems.arctan1d(rng.uniform(10, 100), rng.uniform(0.1, 0.9),
                                                 n_elements=n),
    "arctan1d-quadrature": lambda rng, n: problems.arctan1d(
        rng.uniform(10, 100), rng.uniform(0.1, 0.9), n_elements=n, mode="quadrature", order=3),
    "power1d": lambda rng, n: problems.power1d(rng.uniform(0.51, 5.0), n_elements=n),
    "twomaterial1d": lambda rng, n: problems.twomaterial1d(10 ** rng.uniform(-4, 4),
                                                           n_elements=n),
}


def _assert_rows_match(batch, probs, logits, scales):
    for k, problem in enumerate(probs):
        ev, grad = pipeline.evaluate_with_gradient(problem, logits[k], scale=scales[k])
        assert batch.errors[k] is None
        np.testing.assert_array_equal(batch.nodes[k], ev.mesh.nodes)
        np.testing.assert_array_equal(batch.c[k], ev.c)
        assert batch.J[k] == ev.J
        np.testing.assert_array_equal(batch.grad[k], grad)


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batch_matches_single_problem_chain(family, k, n):
    rng = np.random.default_rng([k, n])
    probs = [FAMILIES[family](rng, n) for _ in range(k)]
    logits = rng.normal(0.0, 0.5, (k, probs[0].theta_size))
    scales = rng.uniform(0.5, 2.0, k)
    batch = pipeline.evaluate_batch(probs, logits, scales)
    _assert_rows_match(batch, probs, logits, scales)
    uniform = pipeline.evaluate_batch(probs)
    assert uniform.grad is None
    for k, problem in enumerate(probs):
        ev = pipeline.evaluate_uniform(problem)
        assert uniform.J[k] == ev.J
        np.testing.assert_array_equal(uniform.c[k], ev.c)


def test_degenerate_row_is_masked_and_others_unchanged():
    rng = np.random.default_rng(3)
    probs = [FAMILIES["arctan1d"](rng, 16) for _ in range(4)]
    logits = rng.normal(0.0, 0.5, (4, 16))
    logits[2, 0] = -40.0          # first element ~ e^-40 long: below the floor
    scales = np.ones(4)
    batch = pipeline.evaluate_batch(probs, logits, scales)
    with pytest.raises(DegenerateMeshError) as single:
        probs[2].build_mesh(logits[2])
    assert isinstance(batch.errors[2], DegenerateMeshError)
    assert str(batch.errors[2]) == str(single.value)
    np.testing.assert_array_equal(batch.kept, [True, True, False, True])
    assert np.isnan(batch.J[2]) and np.all(np.isnan(batch.grad[2]))
    assert batch.c[2] is None
    for i in (0, 1, 3):
        ev, grad = pipeline.evaluate_with_gradient(probs[i], logits[i])
        assert batch.J[i] == ev.J
        np.testing.assert_array_equal(batch.c[i], ev.c)
        np.testing.assert_array_equal(batch.grad[i], grad)


def test_rows_with_different_free_sets():
    # a first element shorter than the labeling tolerance (1e-12) but
    # above the mesh floor (1e-14) makes node 1 a Dirichlet node too
    rng = np.random.default_rng(7)
    probs = [problems.power1d(sigma, n_elements=16) for sigma in (0.6, 0.8, 1.5)]
    logits = rng.normal(0.0, 0.5, (3, 16))
    logits[1, 0] = -28.0
    free = [pipeline.evaluate(p, theta).labeling.n_free for p, theta in zip(probs, logits)]
    assert free[1] == free[0] - 1 == free[2] - 1
    scales = np.ones(3)
    _assert_rows_match(pipeline.evaluate_batch(probs, logits, scales), probs, logits, scales)


def test_power_batch_drops_infinite_dirichlet_load():
    # sigma < 1: the falling hat at x = 0 meets a non-integrable forcing,
    # so node 0 carries an infinite load that only its Dirichlet
    # constraint keeps out of the system
    rng = np.random.default_rng(4)
    probs = [problems.power1d(sigma, n_elements=16) for sigma in (0.55, 0.7, 0.9)]
    logits = rng.normal(0.0, 0.5, (3, 16))
    for problem, theta in zip(probs, logits):
        x = problem.build_mesh(theta).nodes
        assert not np.isfinite(ld.hat_loads(problem.load, np.stack([x[:1], x[1:2]], -1))[0][0, 0])
    scales = np.ones(3)
    _assert_rows_match(pipeline.evaluate_batch(probs, logits, scales), probs, logits, scales)


@pytest.mark.parametrize("problem", [
    problems.arctan2d(10.0, 0.3, 0.6, n_elements=4, order=8),
    problems.lshape(1.7, 0.4, n_elements=4),
], ids=["arctan2d", "lshape"])
def test_2d_batch_loops_the_single_problem_chain(problem):
    rng = np.random.default_rng(5)
    logits = rng.normal(0.0, 0.3, (3, problem.theta_size))
    scales = np.array([1.0, 0.5, 2.0])
    batch = pipeline.evaluate_batch([problem] * 3, logits, scales)
    assert batch.nodes is None
    for k in range(3):
        ev, grad = pipeline.evaluate_with_gradient(problem, logits[k], scale=scales[k])
        assert batch.J[k] == ev.J
        np.testing.assert_array_equal(batch.c[k], ev.c)
        np.testing.assert_array_equal(batch.grad[k], grad)


def test_gradient_needs_logits():
    with pytest.raises(ValueError):
        pipeline.evaluate_batch([problems.arctan1d(n_elements=4)], None, [1.0])


@pytest.mark.parametrize("shape", [(2, 8), (3, 16), (16,)])
@pytest.mark.parametrize("scales", [None, [1.0, 1.0]])
def test_logits_of_another_shape_raise(shape, scales):
    # (2, 8) would build 8-element meshes for a 16-element problem
    with pytest.raises(ValueError, match=r"expected \(2, 16\)"):
        pipeline.evaluate_batch([problems.arctan1d(n_elements=16)] * 2, np.zeros(shape), scales)


def test_1d_beyond_direct_limit_factors():
    # tridiagonal systems factor at every size; Jacobi CG missed the
    # contract here (residual 1.9e-8 after 4 s)
    ev = pipeline.evaluate_uniform(problems.power1d(0.7, n_elements=20001))
    assert ev.report.method == "splu"
    assert ev.report.residual_norm <= RESIDUAL_TOL * np.linalg.norm(ev.system.ell)


def test_1d_batch_beyond_direct_limit_matches_single_problem_chain():
    rng = np.random.default_rng(8)
    probs = [problems.power1d(sigma, n_elements=20001) for sigma in (0.6, 0.9)]
    logits = rng.normal(0.0, 0.05, (2, 20001))
    batch = pipeline.evaluate_batch(probs, logits, np.ones(2))
    assert batch.nodes is not None
    for k, problem in enumerate(probs):
        try:
            ev, grad = pipeline.evaluate_with_gradient(problem, logits[k])
        except SolverError as exc:
            assert isinstance(batch.errors[k], SolverError)
            assert str(batch.errors[k]) == str(exc)
            continue
        assert batch.errors[k] is None
        assert batch.J[k] == ev.J
        np.testing.assert_array_equal(batch.grad[k], grad)


def test_warm_batch_factors_once(monkeypatch):
    # the rows of one free set share one block factor; per-row splu is
    # only the fallback
    rng = np.random.default_rng(11)
    probs = [FAMILIES["arctan1d"](rng, 16) for _ in range(10)]
    logits = rng.normal(0.0, 0.5, (10, 16))
    pipeline.evaluate_batch(probs, logits, np.ones(10))
    calls = []
    real = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(k) or real(*a, **k))
    batch = pipeline.evaluate_batch(probs, logits, np.ones(10))
    assert batch.kept.all()
    assert calls == [{"permc_spec": "NATURAL"}]
