"""Per-layer metrics derived from the spans of a traced run.

Spans carry run ids of the form ``p<pass>[.<part>...]``: the pass number
first, then the SBM preset (exp1_sweep) or the command index and name
(cli_pipeline). Sums are taken per traced pass and the median over traced
passes is reported; per-epoch and per-call samples are pooled over passes.

Counts marked COMPUTED come from shapes, nnz and file sizes rather than from
timers, so they must repeat exactly from pass to pass.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import median, self_time, tail_percentile

AGGREGATORS = ("mean", "max", "sum", "weighted_sum")
PRESETS = ("hom", "het")
CLI_COMMANDS = ("reconstruct", "train", "cluster", "classify")

# (name, unit, better) for every per-layer metric; BENCHMARK.json lists the same
PER_LAYER = (
    ("model.epoch_ms_p50", "ms", "lower"),
    ("model.epoch_ms_tail", "ms", "lower"),
    ("model.epoch_ms_tail_pct", "%", "higher"),
    ("model.epoch_samples", "count", "higher"),
    ("model.adam_ms_p50", "ms", "lower"),
    ("model.epoch_gflop", "GFLOP", "lower"),
    ("model.epoch_mb", "MB", "lower"),
    ("model.epoch_gflops", "GFLOP/s", "higher"),
    ("model.precompute_s", "s", "lower"),
    ("model.finalize_s", "s", "lower"),
    ("model.traced_peak_mb", "MB", "lower"),
    *(
        (f"model.exp1_epoch_ms.{tag}.{agg}", "ms", "lower")
        for tag in PRESETS
        for agg in AGGREGATORS
    ),
    ("reconstruct.busy_s", "s", "lower"),
    ("reconstruct.candidates", "count", "lower"),
    ("reconstruct.kept_ratio", "ratio", "higher"),
    ("reconstruct.isolated_frac", "ratio", "lower"),
    ("reconstruct.a2_entries", "count", "lower"),
    ("graph.normalize_s", "s", "lower"),
    ("graph.propagate_s", "s", "lower"),
    ("graph.propagate_gflop", "GFLOP", "lower"),
    ("graph.dirichlet_s", "s", "lower"),
    ("evaluate.kmeans_s", "s", "lower"),
    ("evaluate.kmeans_calls", "count", "lower"),
    ("evaluate.score_s", "s", "lower"),
    ("evaluate.splits_s", "s", "lower"),
    ("evaluate.probe_ms_p50", "ms", "lower"),
    ("dataio.load_s", "s", "lower"),
    ("dataio.save_s", "s", "lower"),
    ("dataio.bytes_read", "B", "lower"),
    ("dataio.bytes_written", "B", "lower"),
    ("cli.startup_s", "s", "lower"),
    *((f"cli.{cmd}_s", "s", "lower") for cmd in CLI_COMMANDS),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

COMPUTED = (
    "model.epoch_gflop",
    "model.epoch_mb",
    "graph.propagate_gflop",
    "reconstruct.a2_entries",
    "reconstruct.candidates",
    "dataio.bytes_read",
    "dataio.bytes_written",
)

_LOADERS = {
    "dataio.load_dataset",
    "dataio.load_meta",
    "dataio.load_embeddings_csv",
    "dataio.load_float_csv",
    "dataio.parse_int_lines",
    "dataio.load_checkpoint",
}


def epoch_gflop(n: int, d: int, c: int, nnz_a: int) -> float:
    """Computed FLOP of one train() epoch: the GEMMs BW and B^T G_Y (4Ndc), MW
    (2d^2c), the decoder Gram and its product (4Nc^2) and A~ Yh (2 nnz c)."""
    return (4 * n * d * c + 2 * d * d * c + 4 * n * c * c + 2 * nnz_a * c) / 1e9


def epoch_mb(n: int, d: int, c: int, nnz_a: int) -> float:
    """Computed bytes of one train() epoch, each operand moved once per use:
    B read twice (BW, B^T G_Y), M once, about twelve N x c float64 passes in
    the decoder and row-norm chain, ten d x c passes for the GEMM outputs and
    Adam, and A~ as 8-byte values plus 4-byte indices."""
    return (8 * (2 * n * d + d * d + 12 * n * c + 10 * d * c) + 12 * nnz_a) / 1e6


def _dur(span) -> float:
    return span[2] - span[1]


def _pass_of(span) -> str:
    return span[4].split(".")[0]


def _pass_sums(spans, idxs, launches) -> dict:
    m: dict[str, float] = defaultdict(float)
    kept = isolated = nodes = 0
    for i in idxs:
        name, start, end, parent, run, attrs = spans[i]
        attrs = attrs or {}
        layer = name.split(".")[0]
        if layer == "reconstruct":
            m["reconstruct.busy_s"] += end - start
            m["reconstruct.candidates"] += attrs["candidates"]
            m["reconstruct.a2_entries"] += attrs["a2_entries"]
            kept += attrs["kept"]
            isolated += attrs["isolated"]
            nodes += attrs["n"]
        elif name.startswith("graph.normalize"):
            m["graph.normalize_s"] += end - start
        elif name == "graph.propagate":
            m["graph.propagate_s"] += end - start
            m["graph.propagate_gflop"] += attrs["flop"] / 1e9
        elif name == "graph.dirichlet_energy":
            m["graph.dirichlet_s"] += end - start
        elif name == "evaluate.kmeans":
            m["evaluate.kmeans_s"] += end - start
            m["evaluate.kmeans_calls"] += 1
        elif name in ("evaluate.hungarian_acc", "evaluate.nmi"):
            m["evaluate.score_s"] += end - start
        elif name == "evaluate.make_splits":
            m["evaluate.splits_s"] += end - start
        elif layer == "dataio" and not (parent >= 0 and spans[parent][0].startswith("dataio.")):
            if name in _LOADERS:
                m["dataio.load_s"] += end - start
                m["dataio.bytes_read"] += attrs.get("bytes", 0)
            else:
                m["dataio.save_s"] += end - start
                m["dataio.bytes_written"] += attrs.get("bytes", 0)
        elif name == "cli.main":
            m["cli.startup_s"] += start - launches[run]
            m["cli.self_s"] += self_time(spans, i)
            cmd = attrs["command"]
            if cmd in CLI_COMMANDS:
                m[f"cli.{cmd}_s"] += end - start
    cand = m["reconstruct.candidates"]
    m["reconstruct.kept_ratio"] = kept / cand if cand else 0.0
    m["reconstruct.isolated_frac"] = isolated / nodes if nodes else 0.0
    m["trace.spans"] = len(idxs)
    return m


def _epoch_samples(spans):
    """Per-epoch intervals (ms) between consecutive adam_step returns (for
    train() runs, for all runs, and per exp1 cell), adam durations, and the
    precompute, finalize, memory peak and shape of each train() run."""
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids.setdefault(s[3], []).append(i)
    train_epochs, all_epochs, adam, cells = [], [], [], {}
    precompute, finalize, peaks, shapes = [], [], [], []
    for i, s in enumerate(spans):
        if s[0] not in ("model.train", "model.exp1_train"):
            continue
        children = [spans[j] for j in kids.get(i, [])]
        steps = sorted(c[2] for c in children if c[0] == "model.adam_step")
        adam.extend(_dur(c) * 1e3 for c in children if c[0] == "model.adam_step")
        intervals = [(b - a) * 1e3 for a, b in zip(steps, steps[1:])]
        all_epochs.extend(intervals)
        if s[0] == "model.exp1_train":
            tag = s[4].split(".")[1]
            cells.setdefault((tag, s[5]["aggregator"]), []).extend(intervals)
            continue
        train_epochs.extend(intervals)
        init = [c for c in children if c[0] == "model.init_weights"]
        props = [c[2] for c in children if c[0] == "graph.propagate"]
        if init and props:
            precompute.append(init[0][1] - max(props))
        if steps:
            finalize.append(s[2] - steps[-1])
        peaks.append(s[5]["peak_bytes"])
        shapes.append((s[5]["n"], s[5]["d"], s[5]["c"], s[5]["nnz_a"]))
    return train_epochs, all_epochs, adam, cells, precompute, finalize, peaks, shapes


def layer_metrics(spans, launches, untraced_walls, traced_walls) -> tuple[dict, list[str]]:
    """Every PER_LAYER metric (0 where the workload never calls the layer),
    plus the names of computed counts that did not repeat across passes."""
    by_pass: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_pass.setdefault(_pass_of(s), []).append(i)
    sums = [_pass_sums(spans, idxs, launches) for idxs in by_pass.values()]
    keys = set().union(*sums)
    out = {key: median(p[key] for p in sums) for key in keys}

    train_ep, all_ep, adam, cells, precompute, finalize, peaks, shapes = _epoch_samples(spans)
    tail, pct, n = tail_percentile(all_ep)
    out["model.epoch_ms_p50"] = median(all_ep)
    out["model.epoch_ms_tail"] = tail
    out["model.epoch_ms_tail_pct"] = pct
    out["model.epoch_samples"] = n
    out["model.adam_ms_p50"] = median(adam)
    gflops = [epoch_gflop(*shape) for shape in shapes]
    mbs = [epoch_mb(*shape) for shape in shapes]
    out["model.epoch_gflop"] = gflops[0] if gflops else 0.0
    out["model.epoch_mb"] = mbs[0] if mbs else 0.0
    p50 = median(train_ep)
    out["model.epoch_gflops"] = out["model.epoch_gflop"] / (p50 / 1e3) if p50 else 0.0
    out["model.precompute_s"] = median(precompute)
    out["model.finalize_s"] = median(finalize)
    out["model.traced_peak_mb"] = max(peaks) / 1e6 if peaks else 0.0
    for tag in PRESETS:
        for agg in AGGREGATORS:
            out[f"model.exp1_epoch_ms.{tag}.{agg}"] = median(cells.get((tag, agg), []))
    out["evaluate.probe_ms_p50"] = median(
        _dur(s) * 1e3 for s in spans if s[0] == "evaluate.linear_probe"
    )
    base = median(untraced_walls)
    out["trace.overhead_pct"] = (median(traced_walls) / base - 1.0) * 100.0 if base else 0.0

    unstable = [key for key in COMPUTED if key in keys and len({p[key] for p in sums}) > 1]
    if len(set(gflops)) > 1 or len(set(mbs)) > 1:
        unstable += ["model.epoch_gflop", "model.epoch_mb"]
    return {name: float(out.get(name, 0.0)) for name, _, _ in PER_LAYER}, unstable
