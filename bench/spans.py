"""Span tracing from outside the program.

The benchmark times calls into each layer's public function without editing
``src/``: :func:`instrument` swaps a module (or class) attribute for a
wrapper that records a span, and restores the original afterwards.  Spans
(name, start, end, parent, run id, rank, attributes) stay in memory and are
written out once the traced run is over.

A layer's self time is its span time minus the part of that interval its
child spans cover; :func:`layer_metrics` turns one run's spans into the
per-layer metrics the benchmark declares.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict

#: Collective methods the comm proxy times as ``parallel.comm`` spans.
COLLECTIVES = frozenset(
    {"allreduce", "allgather", "alltoall", "bcast", "gather", "scatter",
     "reduce", "barrier", "send", "recv"}
)


class Tracer:
    """In-memory span store for one traced run.

    Each thread keeps its own stack of open spans.  A span opened on an
    empty stack (a rank thread, or a rank program in a forked process whose
    stack was empty) takes the run's root span as its parent.  Spans
    recorded in a forked rank live in that process's copy of the tracer;
    the rank program returns them with :meth:`spans_since` and the parent
    merges them back with :meth:`adopt`.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.root: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_rank(self, rank: int) -> None:
        """Tag spans opened by the calling thread with an SPMD rank."""
        self._local.rank = rank

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "name": name,
            "run": self.run_id,
            "parent": stack[-1]["id"] if stack else self.root,
            "rank": getattr(self._local, "rank", None),
            "attrs": attrs,
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    @contextlib.contextmanager
    def run(self):
        """The root span of one traced run."""
        with self.span("run") as root:
            self.root = root["id"]
            yield root

    def spans_since(self, start: int) -> list[dict]:
        """Spans recorded after index ``start``, if this is a forked copy."""
        return self.spans[start:] if os.getpid() != self.pid else []

    def adopt(self, spans: list[dict]) -> None:
        with self._lock:
            self.spans.extend(spans)


class TimedComm:
    """Forwards to a communicator, recording each collective as a span."""

    def __init__(self, comm, tracer: Tracer) -> None:
        self._comm = comm
        self._tracer = tracer

    def __getattr__(self, name: str):
        attr = getattr(self._comm, name)
        if name not in COLLECTIVES:
            return attr

        def timed(*args, **kwargs):
            with self._tracer.span("parallel.comm", op=name):
                return attr(*args, **kwargs)

        return timed


# -- counts recorded at each layer boundary ------------------------------------
#
# Operation counts are *computed* from the problem sizes: the K-Means and FFT
# formulas are those of repro.perf.costmodel, the implicit apply count is the
# one ImplicitCasidaOperator.apply charges to its timers, and GEMMs count
# 2 m n k.


def _solver_counts(args, result) -> dict:
    return {"iters": int(result.iterations), "converged": bool(result.converged)}


def _scf_counts(args, gs) -> dict:
    return {"iters": len(gs.history), "converged": bool(gs.converged)}


def _kmeans_counts(args, info) -> dict:
    n_mu = int(args[2])
    candidates = int(info.candidate_indices.size)
    return {
        "iters": int(info.n_iter),
        "candidates": candidates,
        "gflop": 8.0 * candidates * n_mu * info.n_iter / 1e9,
    }


def _fitting_counts(args, theta) -> dict:
    psi_v, psi_c, indices = args[:3]
    n_bands = psi_v.shape[0] + psi_c.shape[0]
    n_r, n_mu = psi_v.shape[1], len(indices)
    flop = 2 * n_r * n_mu * n_bands + 2 * n_mu**2 * n_bands + 2 * n_r * n_mu**2
    return {"gflop": flop / 1e9}


def _kernel_counts(args, vtilde) -> dict:
    n_r, n_mu = args[0].theta.shape
    ffts = 2 * n_mu
    flop = ffts * 5.0 * n_r * math.log2(n_r) + 2.0 * n_r * n_mu**2
    return {"ffts": ffts, "gflop": flop / 1e9}


def _implicit_counts(args, out) -> dict:
    op, x = args[:2]
    k = x.shape[1] if x.ndim == 2 else 1
    n_v = op.isdf.psi_v_mu.shape[0]
    n_c = op.isdf.psi_c_mu.shape[0]
    n_mu = op.isdf.n_mu
    flop = 2 * k * (2 * n_v * n_c * n_mu + n_mu**2) + 4 * n_v * n_c * k
    return {"gflop": flop / 1e9}


#: (owner, attribute, layer, counts): every wrapped entry point.  The owner
#: is the namespace the caller looks the name up in, which is not always the
#: defining module (``repro.core.isdf`` imports ``select_points_kmeans``).
LAYERS = (
    ("repro.dft.scf", "run_scf", "dft.scf", _scf_counts),
    ("repro.batch.engine", "_run_scf_core", "dft.scf", _scf_counts),
    ("repro.core.isdf", "select_points_kmeans", "core.kmeans", _kmeans_counts),
    ("repro.core.isdf", "fit_interpolation_vectors", "core.fitting", _fitting_counts),
    ("repro.core.implicit", "project_kernel", "core.kernel", _kernel_counts),
    ("repro.core.driver", "lobpcg", "eigen.lobpcg", _solver_counts),
    ("repro.core.implicit:ImplicitCasidaOperator", "apply", "core.implicit",
     _implicit_counts),
    ("repro.batch.warm", "classify_points", "batch.warm", None),
    ("repro.parallel.parallel_isdf", "distributed_select_points_kmeans",
     "parallel.kmeans", None),
    ("repro.parallel.parallel_isdf", "distributed_fit_theta", "parallel.fit", None),
    ("repro.parallel.parallel_isdf", "distributed_isdf_vtilde", "parallel.vtilde", None),
    ("repro.parallel.parallel_isdf", "distributed_lobpcg", "parallel.lobpcg",
     _solver_counts),
)


def _owner(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _traced(tracer: Tracer, fn, layer: str, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer) as span:
            result = fn(*args, **kwargs)
        if counts is not None:
            span["attrs"].update(counts(args, result))
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every entry point in :data:`LAYERS`; restore them on exit."""
    patched = []
    try:
        for target, attr, layer, counts in LAYERS:
            owner = _owner(target)
            original = getattr(owner, attr)
            setattr(owner, attr, _traced(tracer, original, layer, counts))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------------


def _covered(start: float, end: float, children: list[dict]) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    covered, reach = 0.0, start
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> self time (duration minus the time child spans cover)."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    return {
        span["id"]: span["end"] - span["start"]
        - _covered(span["start"], span["end"], children[span["id"]])
        for span in spans
    }


#: (layer, metric suffixes) in declaration order.  ``s`` is self time and
#: ``calls`` the span count, both taken on the busiest rank; the other
#: counts are summed span attributes.
LAYER_METRICS = (
    ("dft.scf", ("s", "calls", "iters", "share")),
    ("core.kmeans", ("s", "calls", "iters", "candidates", "gflop", "share")),
    ("core.fitting", ("s", "gflop", "share")),
    ("core.kernel", ("s", "ffts", "gflop", "share")),
    ("eigen.lobpcg", ("s", "iters", "share")),
    ("core.implicit", ("s", "calls", "gflop", "share")),
    ("batch.warm", ("s",)),
    ("parallel.kmeans", ("s",)),
    ("parallel.fit", ("s",)),
    ("parallel.vtilde", ("s",)),
    ("parallel.lobpcg", ("s",)),
    ("parallel.comm", ("wait_s", "calls", "share")),
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run (one root span named ``run``)."""
    (root,) = [s for s in spans if s["name"] == "run"]
    wall = root["end"] - root["start"]
    own = self_times(spans)
    busy = defaultdict(lambda: defaultdict(float))  # layer -> rank -> self s
    calls = defaultdict(lambda: defaultdict(int))
    attrs = defaultdict(lambda: defaultdict(int))
    for span in spans:
        name, rank = span["name"], span["rank"]
        busy[name][rank] += own[span["id"]]
        calls[name][rank] += 1
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attrs[name][key] += value

    metrics: dict[str, float] = {}
    for layer, suffixes in LAYER_METRICS:
        seconds = max(busy[layer].values(), default=0.0)
        for suffix in suffixes:
            if suffix in ("s", "wait_s"):
                value = seconds
            elif suffix == "share":
                value = seconds / wall
            elif suffix == "calls":
                value = max(calls[layer].values(), default=0)
            else:
                value = attrs[layer][suffix]
            metrics[f"{layer}.{suffix}"] = value
    other = own[root["id"]]
    metrics["other.s"] = other
    metrics["trace.coverage"] = 1.0 - other / wall
    return metrics

