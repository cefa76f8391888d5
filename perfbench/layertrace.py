"""Outside-in layer trace: spans and counters around the package's public functions.

Each module of the package is a layer. ``Tracer.install`` swaps every public
function a layer defines for a timed wrapper, in every package namespace that
holds a reference to it (``from .kernels import cross_gram`` copies the
reference into ``nystrom``), so calls between layers are traced as well as
calls from the benchmark. Nothing under ``src/`` is edited; ``uninstall``
puts the originals back.

A span records its name, its parent span, start and end. Busy time of a
function is the time inside its outermost calls; self time is its spans'
duration minus the part covered by their direct child spans. Counts are
computed from the arguments and results the wrapper sees, not read from the
program, and the element and byte counts are labelled ``computed`` in their
units.
"""

from __future__ import annotations

import functools
import inspect
import logging
import sys
import time
from collections import defaultdict

from nystrom_krr import (
    diagnostics,
    experiments,
    kernels,
    krr,
    linalg,
    nystrom,
    spectral,
    synthetic,
)

LAYERS = (kernels, linalg, krr, nystrom, spectral, synthetic, diagnostics, experiments)


def _ninf_source(bound) -> str:
    """Which N_inf the size rule uses, by the precedence ``subsample_size`` applies."""
    args = bound.arguments
    params = args["params"]
    if params.gamma is not None and params.c_gamma is not None:
        return "envelope"
    kernel = args.get("kernel")
    if args.get("profile") is not None or (kernel is not None and kernel.is_designed):
        return "exact"
    return "plugin"


def _ninf_basis_elements(bound) -> int:
    """Basis entries the grid search of ``n_infinity`` evaluates (0 for the plug-in)."""
    source = bound.arguments["source"]
    grid = bound.arguments.get("grid_size", 512)
    designed = isinstance(source, spectral.SpectralProfile) or source.is_designed
    return grid * source.truncation if designed else 0


class _JitterCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if "jitter" in record.getMessage():
            self.count += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._swapped: list[tuple] = []
        self._jitter = _JitterCounter()
        self._log = logging.getLogger(linalg.__name__)
        self._log_state = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "nystrom_krr"]
        for layer in LAYERS:
            short = layer.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(layer).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != layer.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._swapped.append((ns, key, fn))
                            setattr(ns, key, wrapped)
        self._log_state = (self._log.level, self._log.propagate)
        self._log.setLevel(logging.INFO)
        self._log.propagate = False
        self._log.addHandler(self._jitter)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._swapped):
            setattr(ns, key, fn)
        self._swapped.clear()
        self._log.removeHandler(self._jitter)
        self._log.setLevel(self._log_state[0])
        self._log.propagate = self._log_state[1]

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        count = self._counter(name, sig)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, parent, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, sig):
        c, mx = self.counts, self.maxima
        if name == "kernels.fourier_basis":
            def count(args, kwargs, out):
                c["kernels.fourier_basis.elements"] += out.size
        elif name == "kernels.cross_gram":
            def count(args, kwargs, out):
                c["kernels.cross_gram.bytes_out"] += 8 * out.size
        elif name == "linalg.cholesky_psd":
            def count(args, kwargs, out):
                mx["linalg.cholesky_psd.max_dim"] = max(mx["linalg.cholesky_psd.max_dim"], out.shape[0])
        elif name == "nystrom.fit_nystrom":
            def count(args, kwargs, model):
                c["nystrom.fit_nystrom.flops"] += model.opcount.flops
                c["nystrom.m"] += model.alpha.size
        elif name == "nystrom.subsample_size":
            def count(args, kwargs, out):
                c[f"nystrom.subsample_size.ninf_{_ninf_source(sig.bind(*args, **kwargs))}"] += 1
        elif name == "spectral.n_infinity":
            def count(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                c["spectral.n_infinity.basis_elements"] += _ninf_basis_elements(bound)
        else:
            count = None
        return count

    # -- aggregation -------------------------------------------------------

    def summary(self, n_ops: int, op_wall_s: float) -> dict:
        """Per-op calls, busy and self time of every traced function, plus counts.

        ``trace.top_level_share`` is the share of the traced ops' wall time
        that spans called directly from the benchmark cover.
        """
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        top = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor < 0:
                busy[name] += dur
            if parent < 0:
                top += dur
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.busy_s"] = busy[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
        for key, val in self.counts.items():
            out[key] = val / n_ops
        out.update(self.maxima)
        out["linalg.jitter_escalations"] = self._jitter.count / n_ops
        out["trace.top_level_share"] = top / op_wall_s
        return out
