"""Names that code outside the test suite imports or patches still exist.

The demos and the reference-table script run on import and no test runs
them; the benchmark wraps each layer's functions by module attribute and
silently stops tracing one that is gone.  A deletion that breaks any of
them fails here instead.
"""

import ast
import dataclasses
import importlib.util
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import ritzmesh
from ritzmesh import loads, pipeline, problems

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(path for folder in ("demos", "scripts", "bench")
                 for path in (ROOT / folder).glob("*.py"))


def _ritzmesh_imports(path):
    """(module, name) per `from ritzmesh[.x] import name`, and (module,
    None) per `import ritzmesh[.x]`, in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ritzmesh":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "ritzmesh")


def _resolves(module, name):
    owner = import_module(module)
    if name is None or hasattr(owner, name):
        return True
    try:
        import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_caller_imports_resolve(path):
    missing = [(m, n) for m, n in _ritzmesh_imports(path) if not _resolves(m, n)]
    assert not missing, f"{path.name} imports names ritzmesh no longer has: {missing}"


def test_benchmark_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, module, path in spans.TARGETS:
        owner, attr = spans._resolve(module, path)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(name)
    assert not missing, f"benchmark spans without a target: {missing}"


def test_package_all_imports():
    namespace = {}
    exec("from ritzmesh import *", namespace)
    assert set(ritzmesh.__all__) <= namespace.keys()


LOAD_SPANS = ("hat_loads", "hat_load_derivs", "area_loads", "area_load_derivs",
              "line_hat_loads", "line_hat_load_derivs")


def _count_calls(monkeypatch, module, names):
    """Wrap module.<name> for every name; returns the live call counts."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def _count_integrands(monkeypatch, family):
    """Wrap the integrands of a forcing family in loads.FAMILIES: a 1D
    family's f and f', a 2D family's factors.  Returns the call log of
    (name, shape of the values returned)."""
    forcing = loads.FAMILIES[family]
    log = []

    def logged(name, fn):
        def wrapper(*args):
            out = fn(*args)
            log.append((name, np.shape(out[0] if name == "factors" else out)))
            return out
        return wrapper

    names = ("factors",) if forcing.factors is not None else ("f", "fp")
    monkeypatch.setitem(loads.FAMILIES, family, dataclasses.replace(
        forcing, **{name: logged(name, getattr(forcing, name)) for name in names}))
    return log


@pytest.mark.parametrize("problem,called", [
    (problems.arctan1d(10.0, 0.5, n_elements=8), {"hat_loads": 1, "hat_load_derivs": 1}),
    (problems.arctan1d(10.0, 0.5, n_elements=8, mode="quadrature", order=3),
     {"hat_load_derivs": 1, "line_hat_load_derivs": 1}),
    (problems.arctan2d(10.0, 0.3, 0.6, n_elements=4, order=8),
     {"area_load_derivs": 1, "line_hat_load_derivs": 1}),
    (problems.lshape(1.7, 0.4, n_elements=4),
     {"area_load_derivs": 1, "line_hat_load_derivs": 1}),
], ids=["arctan1d", "arctan1d-quadrature", "arctan2d", "lshape"])
def test_benchmark_load_spans_are_called(monkeypatch, problem, called):
    # the benchmark times the loads by wrapping these module attributes;
    # a call route that bypasses them would leave its spans at zero.  A
    # step reaches the loads once, and the gradient reuses what assembly
    # kept: in quadrature mode the integrand and its derivative are
    # evaluated exactly once, in 2D every factor on both axes in one call
    counts = _count_calls(monkeypatch, loads, LOAD_SPANS)
    log = _count_integrands(monkeypatch, problem.load.family)
    pipeline.evaluate_with_gradient(problem, None)
    assert counts == {name: called.get(name, 0) for name in LOAD_SPANS}
    forcing = loads.FAMILIES[problem.load.family]
    E, q = problem.n_elements, problem.load.order
    if problem.dim == 2:
        n_factors = 1 + max(max(term) for term in forcing.terms)
        assert log == [("factors", (n_factors, 2, E, q))]
    elif problem.load.mode == "quadrature":
        assert sorted(log) == [("f", (E, q)), ("fp", (E, q))]


def test_quadrature_batch_evaluates_its_integrand_once(monkeypatch):
    # a 1D quadrature batch with gradients: one line_hat_load_derivs for
    # the loads and, through hat_load_derivs, the contraction
    family = [problems.arctan1d(a, s, n_elements=8, mode="quadrature", order=3)
              for a, s in ((10.0, 0.5), (20.0, 0.3), (5.0, 0.7))]
    counts = _count_calls(monkeypatch, loads, LOAD_SPANS)
    log = _count_integrands(monkeypatch, "arctan1d")
    logits = np.random.default_rng(4).normal(0, 0.3, (3, family[0].theta_size))
    pipeline.evaluate_batch(family, logits, [1.0, 1.0, 1.0])
    assert counts == {name: int(name in ("hat_load_derivs", "line_hat_load_derivs"))
                      for name in LOAD_SPANS}
    assert sorted(log) == [("f", (3, 8, 3)), ("fp", (3, 8, 3))]


@pytest.mark.parametrize("problem", [problems.arctan2d(10.0, 0.3, 0.6, n_elements=6, order=4),
                                     problems.lshape(1.7, 0.4, n_elements=6)],
                         ids=["arctan2d", "lshape"])
def test_2d_gradient_is_one_pullback(monkeypatch, problem):
    # the axes are the rows of the mesh's record: one mesh_pullback
    # serves both, and the problem's axis parameters are built once
    from ritzmesh import energy, mesh
    theta = np.random.default_rng(5).normal(0, 0.5, problem.theta_size)
    problem.build_mesh(theta)
    counts = _count_calls(monkeypatch, energy, ["mesh_pullback"])
    params = _count_calls(monkeypatch, mesh.MeshParams1D, ["__post_init__"])
    _, grad = pipeline.evaluate_with_gradient(problem, theta)
    assert counts == {"mesh_pullback": 1} and params == {"__post_init__": 0}
    assert grad.shape == (problem.theta_size,)


def test_parametric_epoch_calls_layers_once_per_batch(monkeypatch):
    # the benchmark traces parametric training through these attributes;
    # the batched path must call each once per mini-batch, not per sample
    from ritzmesh import sampling, training

    targets = [(loads, "hat_loads"), (loads, "hat_load_derivs"), (training, "mlp_forward"),
               (training, "mlp_backward"), (training, "adam_step")]
    counts = dict.fromkeys((name for _, name in targets), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    grid = sampling.split_train_test(sampling.default_axes("arctan1d", counts=(5, 5)), seed=0)
    totals = []
    for epochs in (1, 2):    # the difference is one epoch, without set-up and monitor
        counts.update(dict.fromkeys(counts, 0))
        training.train_parametric("arctan1d", grid, 8, epochs=epochs, batch=4,
                                  monitor_every=1000)
        totals.append(dict(counts))
    batches = -(-grid.train_idx.size // 4)
    assert {name: totals[1][name] - totals[0][name] for name in counts} == \
        dict.fromkeys(counts, batches)
