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


@pytest.mark.parametrize("problem,called", [
    (problems.arctan1d(10.0, 0.5, n_elements=8), {"hat_loads": 1, "hat_load_derivs": 1}),
    (problems.arctan2d(10.0, 0.3, 0.6, n_elements=4, order=8),
     {"area_load_derivs": 1, "line_hat_load_derivs": 4}),
    (problems.lshape(1.7, 0.4, n_elements=4),
     {"area_load_derivs": 1, "line_hat_load_derivs": 2}),
], ids=["arctan1d", "arctan2d", "lshape"])
def test_benchmark_load_spans_are_called(monkeypatch, problem, called):
    # the benchmark times the loads by wrapping these module attributes;
    # a call route that bypasses them would leave its spans at zero.  A
    # 2D step reaches the loads once, through area_load_derivs, and the
    # gradient reuses what assembly kept: every term's factor f and its
    # derivative f' are evaluated exactly once per axis
    counts = dict.fromkeys(LOAD_SPANS, 0)
    factor_calls = {}

    def counting(name, fn, tally=counts):
        def wrapper(*args, **kwargs):
            tally[name] = tally.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in LOAD_SPANS:
        monkeypatch.setattr(loads, name, counting(name, getattr(loads, name)))
    forcing = loads.FAMILIES[problem.load.family]
    if forcing.terms is not None:
        def terms(*params):
            return tuple(tuple((counting((k, axis, "f"), f, factor_calls),
                                counting((k, axis, "fp"), fp, factor_calls), flux)
                               for axis, (f, fp, flux) in enumerate(term))
                         for k, term in enumerate(forcing.terms(*params)))

        monkeypatch.setitem(loads.FAMILIES, problem.load.family,
                            dataclasses.replace(forcing, terms=terms))
    pipeline.evaluate_with_gradient(problem, None)
    assert counts == {name: called.get(name, 0) for name in LOAD_SPANS}
    if forcing.terms is not None:
        n_terms = len(forcing.terms(*(problem.load.params[k] for k in forcing.keys)))
        assert factor_calls == {(k, axis, kind): 1 for k in range(n_terms)
                                for axis in (0, 1) for kind in ("f", "fp")}


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
