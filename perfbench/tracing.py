"""Spans and marks recorded from outside the amlp package.

The package source is never edited. Instead, the benchmark rebinds the public
functions at each module boundary: every name in an ``amlp.*`` module that
refers to the original function object is pointed at a wrapper, so calls made
through ``from .graph import propagate`` bindings are seen as well.

Two recorders exist:

* ``Marks`` is the only hook of an untraced run. It notes the entry time of
  ``amlp.model.init_weights`` (the end of a training run's set-up) and the
  return times of ``amlp.model.adam_step`` (the end of each epoch).
* ``Tracer`` records a span (name, start, end, parent, run id, attributes) for
  every wrapped call. Spans are kept in memory and written out once, at the
  end of the benchmark run.

The arithmetic used to turn spans into layer metrics (interval union, self
time, tail percentile) lives here too, so that the self-test can check it on
synthetic spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import tracemalloc
from pathlib import Path

# ---------------------------------------------------------------------------
# Rebinding
# ---------------------------------------------------------------------------


class _Patcher:
    """Rebinds every ``amlp.*`` module attribute that is a given function."""

    def __init__(self):
        self._saved = []  # (module, attribute, original)

    def replace(self, original, wrapper, module: str | None = None) -> None:
        """Rebind in every amlp module, or only in ``module`` if given."""
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "amlp" or mod_name.startswith("amlp.")):
                continue
            if module is not None and mod_name != module:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    count += 1
        if count == 0:
            raise RuntimeError(f"no amlp module binds {original!r}")

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def _function(qualified: str):
    """Resolve 'amlp.graph.propagate' to the function object."""
    mod_name, _, attr = qualified.rpartition(".")
    return getattr(sys.modules[mod_name], attr)


# ---------------------------------------------------------------------------
# Untraced hook
# ---------------------------------------------------------------------------


class Marks:
    """Entry times of init_weights and, per training run, the return times of
    adam_step: ``epoch_ends[i]`` belongs to the run that ``init_weights[i]``
    started."""

    def __init__(self):
        self.init_weights: list[float] = []
        self.epoch_ends: list[list[float]] = []
        self._patcher = _Patcher()

    def install(self) -> "Marks":
        init = _function("amlp.model.init_weights")
        adam = _function("amlp.model.adam_step")

        @functools.wraps(init)
        def init_hook(*args, **kwargs):
            self.init_weights.append(time.perf_counter())
            self.epoch_ends.append([])
            return init(*args, **kwargs)

        @functools.wraps(adam)
        def adam_hook(*args, **kwargs):
            out = adam(*args, **kwargs)
            self.epoch_ends[-1].append(time.perf_counter())
            return out

        self._patcher.replace(init, init_hook)
        # the model's training loops only: evaluate's linear probe also
        # calls adam_step, outside any training run
        self._patcher.replace(adam, adam_hook, module="amlp.model")
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def as_dict(self) -> dict:
        return {"init_weights": self.init_weights, "epoch_ends": self.epoch_ends}

    def last_run(self) -> tuple[float, tuple[int, float]]:
        """Entry time of the last run's init_weights, and that run's epochs."""
        return self.init_weights[-1], epoch_run(self.epoch_ends[-1])


def epoch_run(ends) -> tuple[int, float]:
    """(epochs, median epoch duration in s) of one training run, from its
    adam_step return times. An epoch is the interval between consecutive
    returns, so the first epoch, which follows set-up, is left out of the
    median."""
    return len(ends), median(b - a for a, b in zip(ends, ends[1:]))


def epoch_rate(runs) -> float:
    """Epochs per second of training-loop time, each run's epochs counted at
    that run's median epoch duration, so a stall in one epoch does not move
    it: sum(epochs) / sum(epochs * median)."""
    runs = list(runs)
    busy = sum(n * m for n, m in runs)
    return sum(n for n, _ in runs) / busy if busy > 0 else 0.0


# ---------------------------------------------------------------------------
# Attributes recorded at the boundaries ("computed" counts come from shapes,
# nnz and file sizes, never from timers)
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _recon_attrs(args, kwargs, out):
    import numpy as np

    g = _arg(args, kwargs, 0, "g")
    s, stats = out
    deg_in = np.diff(g.indptr).astype(np.int64)
    return {
        "candidates": int(stats.candidates_scored),
        "kept": int(stats.edges_kept),
        "isolated": int(np.count_nonzero(np.diff(s.indptr) == 0)),
        "n": int(s.n_nodes),
        "a2_entries": int(np.dot(deg_in, deg_in)),
    }


def _nnz_attrs(args, kwargs, out):
    return {"nnz": int(out.indices.size)}


def _propagate_attrs(args, kwargs, out):
    adj = _arg(args, kwargs, 0, "adj")
    x = _arg(args, kwargs, 1, "x")
    k = _arg(args, kwargs, 2, "k")
    return {"flop": 2 * int(adj.indices.size) * int(x.shape[1]) * int(k)}


def _train_attrs(args, kwargs, out):
    g = _arg(args, kwargs, 0, "g")
    d, c = out[0].W.shape
    return {
        "n": int(g.n_nodes),
        "d": int(d),
        "c": int(c),
        # A~ = normalize_with_self_loops(g): both orientations plus the diagonal
        "nnz_a": int(g.indices.size + g.n_nodes),
    }


def _exp1_attrs(args, kwargs, out):
    return {"aggregator": str(_arg(args, kwargs, 2, "aggregator"))}


def _file_bytes(*paths) -> int:
    return sum(p.stat().st_size for p in map(Path, paths) if p.is_file())


def _dataset_bytes(path) -> int:
    import json

    path = Path(path)
    meta = json.loads((path / "meta.json").read_text())
    return _file_bytes(
        path / "meta.json",
        path / "edges.tsv",
        path / meta["features_file"],
        path / "labels.csv",
        path / "splits.json",
    )


def _path_bytes(args, kwargs, out):
    return {"bytes": _file_bytes(args[0])}


def _dataset_dir_bytes(args, kwargs, out):
    return {"bytes": _dataset_bytes(args[0])}


def _meta_bytes(args, kwargs, out):
    return {"bytes": _file_bytes(Path(args[0]) / "meta.json")}


def _checkpoint_bytes(args, kwargs, out):
    d = Path(args[0])
    return {"bytes": _file_bytes(d / "checkpoint.json", d / "weights.csv")}


def _cli_attrs(args, kwargs, out):
    argv = _arg(args, kwargs, 0, "argv")
    return {"command": argv[0] if argv else "", "exit_code": out}


# (function, span name, attribute recorder). write_report's size is left out
# of bytes_written because reports embed wall-clock readings, so their length
# is not a repeatable count.
TRACED = (
    ("amlp.reconstruct.reconstruct_hard", "reconstruct.reconstruct_hard", _recon_attrs),
    ("amlp.reconstruct.reconstruct_soft", "reconstruct.reconstruct_soft", _recon_attrs),
    ("amlp.graph.normalize_with_self_loops", "graph.normalize_with_self_loops", _nnz_attrs),
    ("amlp.graph.normalize_no_self_loops", "graph.normalize_no_self_loops", _nnz_attrs),
    ("amlp.graph.propagate", "graph.propagate", _propagate_attrs),
    ("amlp.graph.row_normalize", "graph.row_normalize", None),
    ("amlp.graph.dirichlet_energy", "graph.dirichlet_energy", None),
    ("amlp.model.init_weights", "model.init_weights", None),
    ("amlp.model.adam_step", "model.adam_step", None),
    ("amlp.model.train", "model.train", _train_attrs),
    ("amlp.model.exp1_train", "model.exp1_train", _exp1_attrs),
    ("amlp.evaluate.kmeans", "evaluate.kmeans", None),
    ("amlp.evaluate.hungarian_acc", "evaluate.hungarian_acc", None),
    ("amlp.evaluate.nmi", "evaluate.nmi", None),
    ("amlp.evaluate.make_splits", "evaluate.make_splits", None),
    ("amlp.evaluate.linear_probe", "evaluate.linear_probe", None),
    ("amlp.dataio.load_dataset", "dataio.load_dataset", _dataset_dir_bytes),
    ("amlp.dataio.load_meta", "dataio.load_meta", _meta_bytes),
    ("amlp.dataio.load_embeddings_csv", "dataio.load_embeddings_csv", _path_bytes),
    ("amlp.dataio.load_float_csv", "dataio.load_float_csv", _path_bytes),
    ("amlp.dataio.parse_int_lines", "dataio.parse_int_lines", _path_bytes),
    ("amlp.dataio.load_checkpoint", "dataio.load_checkpoint", _checkpoint_bytes),
    ("amlp.dataio.save_dataset", "dataio.save_dataset", _dataset_dir_bytes),
    ("amlp.dataio.save_embeddings_csv", "dataio.save_embeddings_csv", _path_bytes),
    ("amlp.dataio.save_checkpoint", "dataio.save_checkpoint", _checkpoint_bytes),
    ("amlp.dataio.write_report", "dataio.write_report", None),
    ("amlp.cli.main", "cli.main", _cli_attrs),
)

# spans during which tracemalloc runs, for model.traced_peak_mb
_MEMORY_SPANS = ("model.train",)


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, run, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patcher = _Patcher()

    def wrap(self, name: str, fn, attrs=None):
        memory = name in _MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            extra = attrs(args, kwargs, out) if attrs else {}
            if memory:
                extra["peak_bytes"] = int(peak)
            span[5] = extra or None
            return out

        return wrapper

    def install(self) -> "Tracer":
        for qualified, name, attrs in TRACED:
            if qualified.rpartition(".")[0] not in sys.modules:
                continue  # module not loaded in this process, so never called
            fn = _function(qualified)
            self._patcher.replace(fn, self.wrap(name, fn, attrs))
        return self

    def uninstall(self) -> None:
        self._patcher.restore()


def merge_spans(into: list[list], spans: list[list], run_id: str) -> None:
    """Append spans recorded in another list (a child process), re-basing
    their parent indices and tagging them with ``run_id``."""
    base = len(into)
    for name, start, end, parent, _, attrs in spans:
        into.append([name, start, end, parent + base if parent >= 0 else -1, run_id, attrs])


# ---------------------------------------------------------------------------
# Arithmetic on spans
# ---------------------------------------------------------------------------


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(spans: list[list], idx: int) -> float:
    """Duration of span ``idx`` minus the part its direct children cover."""
    _, start, end = spans[idx][:3]
    kids = [(s[1], s[2]) for s in spans if s[3] == idx]
    return (end - start) - union_length(kids, start, end)


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def tail_percentile(values, beyond: int = 10) -> tuple[float, float, int]:
    """Highest rank percentile that still has ``beyond`` samples above it.

    Returns (value, percentile, sample count). With n sorted samples the value
    is the (n - beyond)-th smallest, i.e. percentile 100 * (n - beyond) / n.
    With fewer than beyond + 1 samples the maximum is returned as the 100th
    percentile.
    """
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= beyond:
        return float(values[-1]), 100.0, n
    return float(values[n - beyond - 1]), 100.0 * (n - beyond) / n, n
