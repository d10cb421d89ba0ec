"""Self-test of the harness, run by ``python3 perfbench/run.py --selftest``.

1. Self time, interval union, tail percentile, epoch intervals and the
   epoch rate on synthetic spans and marks whose answers are known.
2. The metric lists in BENCHMARK.json match what the harness emits.
3. Every workload at smoke shape, traced, twice: no operation fails, reruns
   give identical outputs, and computed counts repeat exactly across passes
   and across runs. Then once untraced: every end-to-end metric is above 0.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import layers
import workloads
from tracing import epoch_rate, epoch_run, median, self_time, tail_percentile, union_length

ROOT = Path(__file__).resolve().parents[1]


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_arithmetic() -> None:
    spans = [
        ["root", 0.0, 10.0, -1, "p0", None],
        ["a", 1.0, 3.0, 0, "p0", None],
        ["b", 2.0, 5.0, 0, "p0", None],
        ["grandchild", 2.5, 2.7, 1, "p0", None],  # not a direct child of root
        ["d", 7.0, 8.0, 0, "p0", None],
        ["late", 9.0, 12.0, 0, "p0", None],  # clipped to root's end
    ]
    # children of root cover [1, 5] + [7, 8] + [9, 10] = 6
    assert _close(self_time(spans, 0), 4.0), self_time(spans, 0)
    assert _close(self_time(spans, 1), 1.8), self_time(spans, 1)
    assert _close(self_time(spans, 3), 0.2), self_time(spans, 3)
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0
    assert union_length([(0.0, 1.0), (0.5, 0.7), (3.0, 2.0)]) == 1.0

    assert tail_percentile(range(1, 101)) == (90.0, 90.0, 100)
    assert tail_percentile([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)
    value, pct, n = tail_percentile(range(11))
    assert (value, n) == (0.0, 11) and _close(pct, 100.0 / 11)
    assert tail_percentile([]) == (0.0, 0.0, 0)
    assert median([3, 1, 2]) == 2 and median([1, 2, 3, 4]) == 2.5 and median([]) == 0.0

    # epochs 0.5, 1.0 (a stall) and 0.25 s long; the first, after set-up, is not one
    assert epoch_run([10.0, 10.5, 11.5, 11.75]) == (4, 0.5)
    assert epoch_run([]) == (0, 0.0)
    # 4 epochs at 0.5 s and 2 at 0.25 s: 6 epochs in 2.5 s
    assert _close(epoch_rate([(4, 0.5), (2, 0.25)]), 2.4)
    assert _close(epoch_rate(iter([(4, 0.5), (2, 0.25)])), 2.4)
    assert epoch_rate([]) == 0.0

    shape = {"n": 10, "d": 4, "c": 2, "nnz_a": 30, "peak_bytes": 2_000_000}
    train = [
        ["model.train", 0.0, 3.0, -1, "p1", shape],
        ["graph.propagate", 0.1, 0.2, 0, "p1", {"flop": 480}],
        ["model.init_weights", 0.3, 0.31, 0, "p1", None],
        ["model.adam_step", 0.9, 1.0, 0, "p1", None],
        ["model.adam_step", 1.4, 1.5, 0, "p1", None],
        ["model.adam_step", 2.4, 2.5, 0, "p1", None],
    ]
    m, unstable = layers.layer_metrics(train, {}, [1.0], [1.1])
    assert unstable == []
    assert _close(m["model.epoch_ms_p50"], 750.0), m["model.epoch_ms_p50"]
    assert m["model.epoch_samples"] == 2
    assert _close(m["model.adam_ms_p50"], 100.0)
    assert _close(m["model.precompute_s"], 0.1)
    assert _close(m["model.finalize_s"], 0.5)
    assert _close(m["model.traced_peak_mb"], 2.0)
    assert _close(m["model.epoch_gflop"], (4 * 10 * 4 * 2 + 2 * 16 * 2 + 4 * 10 * 4 + 2 * 30 * 2) / 1e9)
    assert _close(m["graph.propagate_gflop"], 480 / 1e9)
    assert _close(m["trace.overhead_pct"], 10.0)
    assert m["trace.spans"] == 6


def check_metric_lists() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(workloads.END_TO_END), e2e
    assert per_layer == list(layers.PER_LAYER), per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def check_smoke(workdir: Path) -> None:
    for name in workloads.WORKLOADS:
        computed = []
        for run, min_passes in ((0, 4), (1, 2)):
            wd = workdir / f"{name}-{run}"
            shutil.rmtree(wd, ignore_errors=True)
            wd.mkdir(parents=True)
            out = workloads.run_workload(name, 0, 0.0, True, True, wd, min_passes=min_passes)
            assert out.ledger.failed == 0, out.ledger.errors
            assert out.reruns_identical, f"{name}: reruns differ"
            assert out.unstable_counts == [], f"{name}: {out.unstable_counts} changed across passes"
            computed.append({k: out.metrics[k][0] for k in layers.COMPUTED})
        assert computed[0] == computed[1], f"{name}: computed counts changed across runs"
        wd = workdir / f"{name}-untraced"
        shutil.rmtree(wd, ignore_errors=True)
        wd.mkdir(parents=True)
        out = workloads.run_workload(name, 0, 0.0, False, True, wd)
        assert out.ledger.failed == 0, out.ledger.errors
        assert all(v > 0 for v, _ in out.metrics.values()), f"{name}: {out.metrics}"
        print(f"selftest: {name} smoke ok, computed counts {computed[0]}")


def main(workdir: Path) -> int:
    check_arithmetic()
    print("selftest: span arithmetic ok")
    check_metric_lists()
    print("selftest: BENCHMARK.json metric lists ok")
    check_smoke(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: ok")
    return 0
