"""In-memory spans around the public functions of each ritzmesh layer.

The benchmark measures the program from outside: it replaces each
layer's public function, at the module attribute its callers resolve,
with a wrapper that records a span, and puts the original back
afterwards.  Most callers bind names at import time (``training`` does
``from .optim import adam_step``), so a function is patched in the
calling module, not where it is defined.  ``assembly`` calls the load
functions as ``ld.area_loads`` and so on, which resolve in
``ritzmesh.loads``.

Each span is [name, start, end, parent index, step id].  Root spans
named ``training`` cover one optimizer step each, from the end of one
``adam_step`` to the end of the next; their self time is the training
loop's own overhead.
"""

import json
import time
from collections import Counter, defaultdict
from importlib import import_module

import numpy as np

# (span name, module, attribute path): patched where the caller looks it up
TARGETS = (
    ("mesh.build", "ritzmesh.problems", "ProblemSpec.build_mesh"),
    ("mesh.pullback", "ritzmesh.energy", "mesh_pullback"),
    ("assembly.label", "ritzmesh.pipeline", "label_dirichlet"),
    ("assembly.assemble", "ritzmesh.pipeline", "assemble_system"),
    ("assembly.contract", "ritzmesh.energy", "assembly_gradient_contraction"),
    ("loads.hat", "ritzmesh.loads", "hat_loads"),
    ("loads.hat_derivs", "ritzmesh.loads", "hat_load_derivs"),
    ("loads.area", "ritzmesh.loads", "area_loads"),
    ("loads.area_derivs", "ritzmesh.loads", "area_load_derivs"),
    ("loads.line_hat", "ritzmesh.loads", "line_hat_loads"),
    ("loads.line_hat_derivs", "ritzmesh.loads", "line_hat_load_derivs"),
    ("solver.solve", "ritzmesh.pipeline", "solve_spd"),
    ("energy.energy", "ritzmesh.pipeline", "ritz_energy"),
    ("energy.gradient", "ritzmesh.training", "ritz_gradient"),
    ("network.forward", "ritzmesh.training", "mlp_forward"),
    ("network.backward", "ritzmesh.training", "mlp_backward"),
    ("optim.adam", "ritzmesh.training", "adam_step"),
    ("problems.make", "ritzmesh.training", "make_problem"),
)
ROOT = "training"
STEP_SPAN = "optim.adam"
SOLVE_SPAN = "solver.solve"


def per_layer_names():
    """Every per-layer metric name the traced run reports, in order."""
    names = []
    for span, _, _ in TARGETS:
        names += [f"{span}.self_ms", f"{span}.calls"]
    return names + ["training.self_ms", "training.skipped", "solver.dofs",
                    "solver.nnz", "solver.iterations", "solver.residual_rel_max",
                    "trace.overhead_frac"]


def _resolve(module, path):
    owner = import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return owner, attr


class Patches:
    """Replace module or class attributes; leaving the block restores them."""

    def __init__(self):
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def replace(self, module, path, make_wrapper):
        """Patch one attribute; returns False if the program no longer has it."""
        owner, attr = _resolve(module, path)
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Span recorder for one process; single-threaded by construction."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.step = 0
        self.solves = []     # (dofs, nnz, relative residual, iterations)

    def install(self, patches):
        """Wrap every target; returns the span names whose target is missing."""
        return [name for name, module, path in TARGETS
                if not patches.replace(module, path,
                                       lambda fn, name=name: self._wrap(name, fn))]

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.step])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if name == SOLVE_SPAN:
                self._observe_solve(args[0], result)
            elif name == STEP_SPAN:
                self._close()            # the step's root span
                self.step += 1
                self._open(ROOT)
            return result
        return traced

    def _observe_solve(self, system, report):
        ell_norm = float(np.linalg.norm(system.ell))
        rel = report.residual_norm / ell_norm if ell_norm > 0 else 0.0
        self.solves.append((system.B.shape[0], system.B.nnz, rel, report.iterations))

    def start(self):
        """Open the root span of the first step of an episode."""
        self._open(ROOT)

    def stop(self):
        self._close()
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans left open")

    def summary(self, steps):
        """Self time (ms) and calls per optimizer step for every span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / steps
            out[f"{name}.calls"] = calls[name] / steps
        out["training.self_ms"] = 1e3 * self_s[ROOT] / steps
        solves = np.array(self.solves, dtype=float).reshape(-1, 4)
        if solves.size:
            out["solver.dofs"] = float(solves[:, 0].mean())
            out["solver.nnz"] = float(solves[:, 1].mean())
            out["solver.residual_rel_max"] = float(solves[:, 2].max())
            out["solver.iterations"] = float(solves[:, 3].mean())
        else:
            out.update({"solver.dofs": 0.0, "solver.nnz": 0.0,
                        "solver.residual_rel_max": 0.0, "solver.iterations": 0.0})
        return out

    def write(self, path):
        """All spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "step": step}) + "\n")
