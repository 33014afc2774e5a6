"""Span tracing by swapping module attributes for timing wrappers.

A traced run replaces the attributes through which one layer calls the
next (``cli.evolve``, ``solver.assemble_generator``, ``model.validate_model``,
``_kernels.run_blocks`` ...) with wrappers that record a span: name, start,
end, parent span and operation id.  Spans stay in memory and are written out
when the run ends.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module path, attribute, span name).  A dotted attribute names a method.
BOUNDARIES = [
    ("lindbladrate.cli", "load_config", "config.load"),
    ("lindbladrate.config", "ModelSource.build", "config.build"),
    ("lindbladrate.cli", "evolve", "solver.evolve"),
    ("lindbladrate.cli", "memory_kernel_at", "solver.memory_kernel"),
    ("lindbladrate.cli", "stationary_state", "solver.stationary_state"),
    ("lindbladrate.cli", "homogeneity_check", "solver.homogeneity"),
    ("lindbladrate.cli", "run_ensemble", "stochastic.run_ensemble"),
    ("lindbladrate.cli", "deterministic_table", "config.table"),
    ("lindbladrate.cli", "stochastic_table", "config.table"),
    ("lindbladrate.cli", "emit_csv", "config.emit"),
    ("lindbladrate.solver", "assemble_generator", "model.assemble"),
    ("lindbladrate.solver", "stationary_projector", "solver.stationary_projector"),
    ("lindbladrate.model", "validate_model", "model.validate"),
    ("lindbladrate._kernels", "run_blocks", "kernels.run_blocks"),
    ("lindbladrate.stochastic", "EnsembleAccumulator.system_estimate", "stochastic.reduce"),
    ("lindbladrate.stochastic", "EnsembleAccumulator.system_standard_error", "stochastic.reduce"),
    ("lindbladrate.stochastic", "EnsembleAccumulator.channel_occupation", "stochastic.reduce"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op_id = None

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id)

        return wrapper

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in BOUNDARIES:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.span(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


def summarize(spans: list[tuple]) -> dict:
    """Per span name: call count, inclusive time and self time.

    Inclusive time counts only spans with no ancestor of the same name, so
    recursion through one boundary is not counted twice.  Self time is a
    span's duration minus that of its direct children.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, parent, _) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[idx]
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc is None:
            rec["total_s"] += end - start
    return dict(out)
