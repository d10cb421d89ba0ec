"""The benchmark's three workloads, their inputs and their output checks.

Every workload makes its inputs from the workload seed, runs timed passes
until the run's time is spent (at least two, so that reruns can be compared),
and counts each training run, CLI command and evaluation call as one
operation. An operation fails if it raises, exits non-zero or fails its
output check; failures are counted, never fatal.

Calls into amlp go through module attributes (``amlp.model.train``), so the
wrappers that tracing.py installs on those attributes see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import amlp.cli  # noqa: F401  (loads every amlp module, so all can be traced)
import amlp.dataio
import amlp.evaluate
import amlp.model
from amlp.graph import AGGREGATORS, graph_from_edges
from amlp.model import AMLPConfig
from amlp.reconstruct import ReconstructionConfig
from amlp.synth import (
    SbmSpec,
    generate_dataset,
    generate_features,
    generate_sbm,
    heterophilic_preset,
    homophilic_preset,
)

import layers
from tracing import Marks, Tracer, epoch_rate, epoch_run, median, merge_spans

HERE = Path(__file__).resolve().parent

# (name, unit, better) of the end-to-end metrics every workload reports
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("epochs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed with the end-to-end metrics but not part of the result line, which
# needs every metric on every workload, never 0 and steady across seeds:
# probe_acc and dr_agree hold for one workload only, error_rate reads 0 on a
# healthy run, and ACC/NMI depend on the seed's graph far more than any bound
# allows (cli_pipeline ACC spans 0.46-0.65 over ten seeds, exp1 NMI is ~0.04)
EXTRA = (
    ("acc", "ratio"),
    ("nmi", "ratio"),
    ("probe_acc", "ratio"),
    ("dr_agree", "ratio"),
    ("error_rate", "ratio"),
)

MAX_PASSES = 40
CHILD_TIMEOUT_S = 150.0


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, label, fn, check=None):
        """Run one operation; return its output, or None if it raised."""
        self.attempted += 1
        try:
            out = fn()
        except Exception as e:  # a failing operation is counted, the run goes on
            self.fail(f"{label}: {type(e).__name__}: {e}")
            return None
        problem = check(out) if check else None
        if problem:
            self.fail(f"{label}: {problem}")
        return out

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors.append(reason)


@dataclass
class Pass:
    traced: bool
    wall: float
    setup: float = 0.0
    runs: list = field(default_factory=list)  # (epochs, median epoch s) per training run
    epochs: int = 0
    quality: dict = field(default_factory=dict)
    fingerprint: tuple = ()


def cluster_scores(y_hat, labels, k) -> dict:
    """K-means (seed 0, 10 restarts) on an embedding, scored by ACC and NMI."""
    res = amlp.evaluate.kmeans(y_hat, k, seed=0, restarts=10)
    return {
        "acc": amlp.evaluate.hungarian_acc(res.assignments, labels),
        "nmi": amlp.evaluate.nmi(res.assignments, labels),
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    def __init__(self, ledger: Ledger, tracer: Tracer):
        self.ledger = ledger
        self.tracer = tracer

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class InProcess(Workload):
    """Workload whose operations run in this process. One untimed warm-up
    operation precedes timing: the first training call in a process pays about
    0.75 s of one-off cost that later calls do not."""

    def run_pass(self, index: int, traced: bool) -> Pass:
        rec = self.tracer.install() if traced else Marks().install()
        self.tracer.run_id = f"p{index}"
        try:
            return self._pass(index, traced, None if traced else rec)
        finally:
            rec.uninstall()


class WideTrain(InProcess):
    """train() at the criterion-10 shape, then k-means, ACC and NMI."""

    name = "wide_train"
    FULL = dict(n=3000, d=1500, c=500, epochs=20)
    SMOKE = dict(n=300, d=60, c=20, epochs=5)

    def prepare(self, seed: int, smoke: bool, workdir: Path) -> None:
        s = self.SMOKE if smoke else self.FULL
        spec = SbmSpec(
            n_nodes=s["n"], n_classes=4, p_in=0.02, p_out=0.002,
            feature_dim=s["d"], class_separation=1.0, noise_sigma=0.02, seed=seed,
        )
        self.g, self.labels = generate_sbm(spec)
        self.x = generate_features(self.labels, s["d"], 1.0, 0.02, seed=seed + 1)
        self.cfg = AMLPConfig(
            k=3, lambda_=0.1, hidden_dim=s["c"], learning_rate=1e-3,
            epochs=s["epochs"], seed=seed,
        )
        self.recon = ReconstructionConfig()  # hard, on the original edges
        self.ledger.run(
            "warm-up train",
            lambda: amlp.model.train(self.g, self.x, replace(self.cfg, epochs=1), self.recon),
        )

    def _pass(self, index, traced, marks) -> Pass:
        t0 = time.perf_counter()
        out = self.ledger.run(
            "train",
            lambda: amlp.model.train(self.g, self.x, self.cfg, self.recon),
            check=_check_train,
        )
        t1 = time.perf_counter()
        if out is None:
            return Pass(traced, t1 - t0)
        _, y_hat, report = out
        q = self.ledger.run(
            "evaluate",
            lambda: cluster_scores(y_hat, self.labels, 4),
            check=lambda q: None if q["acc"] >= 0.99 else f"ACC {q['acc']:.4f} < 0.99",
        )
        t2 = time.perf_counter()
        p = Pass(traced, t2 - t0, quality=q or {}, epochs=report.epochs_run)
        p.fingerprint = (_digest(y_hat.tobytes()), *sorted((q or {}).items()))
        if marks is not None:
            init, run = marks.last_run()
            p.setup, p.runs = init - t0, [run]
        return p


def _check_train(out) -> str | None:
    _, y_hat, report = out
    losses = (report.losses_agg, report.losses_rec, report.losses_total)
    if not all(np.all(np.isfinite(v)) for v in losses):
        return "non-finite loss"
    if not report.losses_total[-1] < report.losses_total[0]:
        return f"final loss {report.losses_total[-1]} not below first {report.losses_total[0]}"
    norms = np.linalg.norm(y_hat, axis=1)
    if not np.all((np.abs(norms - 1.0) <= 1e-9) | (norms == 0.0)):
        return "embedding rows are neither unit nor zero norm"
    return None


class Exp1Sweep(InProcess):
    """exp1_train over both SBM presets, four aggregators, with and without
    L_agg (the criterion-6 workload), each embedding scored by k-means."""

    name = "exp1_sweep"
    FULL = dict(n=None, c=64, epochs=200)
    SMOKE = dict(n=80, c=8, epochs=10)

    def prepare(self, seed: int, smoke: bool, workdir: Path) -> None:
        s = self.SMOKE if smoke else self.FULL
        sizes = {"n_nodes": s["n"]} if s["n"] else {}
        self.data = {
            "hom": generate_dataset(homophilic_preset(seed=seed, **sizes)),
            "het": generate_dataset(heterophilic_preset(seed=seed, **sizes)),
        }
        self.cfg = AMLPConfig(hidden_dim=s["c"], learning_rate=1e-3, epochs=s["epochs"], seed=seed)
        g, x, _ = self.data["hom"]
        self.ledger.run(
            "warm-up exp1_train", lambda: amlp.model.exp1_train(g, x, "mean", False, 0.1, self.cfg)
        )

    def _pass(self, index, traced, marks) -> Pass:
        p = Pass(traced, 0.0)
        drs, scores = {}, []
        t_start = time.perf_counter()
        for tag, (g, x, labels) in self.data.items():
            self.tracer.run_id = f"p{index}.{tag}"
            for agg in AGGREGATORS:
                for flag in (False, True):
                    label = f"exp1_train {tag}/{agg}/{'with' if flag else 'without'} L_agg"
                    t0 = time.perf_counter()
                    out = self.ledger.run(
                        label,
                        lambda: amlp.model.exp1_train(g, x, agg, flag, 0.1, self.cfg),
                        check=lambda out: None if math.isfinite(out[0]) and out[0] >= 0.0
                        else f"Dirichlet energy {out[0]}",
                    )
                    if out is None:
                        continue
                    drs[(tag, agg, flag)] = out[0]
                    p.epochs += self.cfg.epochs
                    if marks is not None:
                        init, run = marks.last_run()
                        p.setup += init - t0
                        p.runs.append(run)
                    q = self.ledger.run(
                        f"evaluate {label}", lambda: cluster_scores(out[1], labels, 4)
                    )
                    if q is not None:
                        scores.append(q)
        p.wall = time.perf_counter() - t_start
        agree = []  # L_agg lowers Dr on the homophilic preset, raises it on the other
        for tag in self.data:
            for agg in AGGREGATORS:
                without, with_ = drs.get((tag, agg, False)), drs.get((tag, agg, True))
                if without is not None and with_ is not None:
                    agree.append(with_ < without if tag == "hom" else with_ > without)
        if scores:
            p.quality = {
                "acc": float(np.mean([q["acc"] for q in scores])),
                "nmi": float(np.mean([q["nmi"] for q in scores])),
                "dr_agree": float(np.mean(agree)) if agree else 0.0,
            }
        p.fingerprint = (tuple(sorted(drs.items())), *sorted(p.quality.items()))
        return p


class CliPipeline(Workload):
    """The user's path: five `amlp` commands, each in its own process, run one
    after another on a dataset directory. No warm-up: users pay process
    start-up on every command."""

    name = "cli_pipeline"
    # 300 epochs: epochs_per_s samples only the two train commands of a run,
    # and at 100 epochs (about 5 s of epochs per run) host drift spread it
    # 22% between the quartiles of ten runs
    FULL = dict(n=4000, hubs=8, hub_degree=1500, c=64, epochs=300, seeds=5, splits=10)
    SMOKE = dict(n=300, hubs=2, hub_degree=60, c=8, epochs=5, seeds=2, splits=2)

    def __init__(self, ledger: Ledger, tracer: Tracer):
        super().__init__(ledger, tracer)
        self.launches: dict[str, float] = {}  # child run id -> launch time

    def prepare(self, seed: int, smoke: bool, workdir: Path) -> None:
        s = self.s = self.SMOKE if smoke else self.FULL
        n = s["n"]
        spec = SbmSpec(
            n_nodes=n, n_classes=4, p_in=0.01, p_out=0.001, feature_dim=64,
            class_separation=2.0, noise_sigma=1.0, seed=seed,
        )
        g, labels = generate_sbm(spec)
        x = generate_features(labels, 64, 2.0, 1.0, seed=seed + 1)
        # hubs make sum(d^2), the nnz of the sparse square A.A, about 2e7
        rng = np.random.default_rng(seed + 2)
        edges = g.edge_array()
        us, vs = [edges[:, 0]], [edges[:, 1]]
        for hub in rng.choice(n, s["hubs"], replace=False):
            others = np.delete(np.arange(n), hub)
            us.append(np.full(s["hub_degree"], hub))
            vs.append(rng.choice(others, s["hub_degree"], replace=False))
        g = graph_from_edges(n, np.concatenate(us), np.concatenate(vs))
        self.workdir = workdir
        self.data = workdir / "data"
        amlp.dataio.save_dataset(self.data, g, x, labels, name="perfbench-cli")
        self.config = workdir / "train.json"
        self.config.write_text(json.dumps({
            "hidden_dim": s["c"], "mode": "soft", "learning_rate": 1e-4,
            "epochs": s["epochs"], "seed": seed,
        }))

    def _commands(self, out: Path):
        data, emb = str(self.data), str(out / "train" / "embeddings.csv")
        return (
            ("reconstruct", ["--data", data, "--out", str(out / "all_pairs"), "--policy", "all_pairs"],
             [out / "all_pairs" / "edges.tsv", out / "all_pairs" / "reconstruction.json"]),
            ("reconstruct", ["--data", data, "--out", str(out / "soft"), "--soft"],
             [out / "soft" / "edge_weights.tsv", out / "soft" / "reconstruction.json"]),
            ("train", ["--data", data, "--out", str(out / "train"), "--config", str(self.config)],
             [out / "train" / "embeddings.csv", out / "train" / "report.json",
              out / "train" / "checkpoint.json"]),
            ("cluster", ["--data", data, "--emb", emb, "--seeds", str(self.s["seeds"]),
                         "--out", str(out / "cluster.json")],
             [out / "cluster.json"]),
            ("classify", ["--data", data, "--emb", emb, "--n-splits", str(self.s["splits"]),
                          "--out", str(out / "classify.json")],
             [out / "classify.json"]),
        )

    def _launch(self, argv, hooks: Path, traced: bool):
        cmd = [sys.executable, str(HERE / "launch.py"), "1" if traced else "0", str(hooks), *argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"timed out after {CHILD_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {err.strip()[-300:]}")
        recorded = json.loads(hooks.read_text())
        hooks.unlink()
        return t0, recorded

    def run_pass(self, index: int, traced: bool) -> Pass:
        out = self.workdir / f"p{index}"
        p = Pass(traced, 0.0)
        t_start = time.perf_counter()
        for j, (command, args, artifacts) in enumerate(self._commands(out)):
            hooks = self.workdir / f"hooks-p{index}-{j}.json"
            res = self.ledger.run(
                f"amlp {command} ({j})",
                lambda: self._launch([command, *args], hooks, traced),
                check=lambda res: _missing(artifacts),
            )
            if res is None:
                continue
            t_launch, recorded = res
            if traced:
                run_id = f"p{index}.{j}.{command}"
                self.launches[run_id] = t_launch
                merge_spans(self.tracer.spans, recorded["spans"], run_id)
            elif command == "train":
                marks = recorded["marks"]
                p.setup = marks["init_weights"][0] - t_launch
                p.runs = [epoch_run(marks["epoch_ends"][0])]
        p.wall = time.perf_counter() - t_start
        self._read_outputs(out, p)
        shutil.rmtree(out, ignore_errors=True)
        return p

    def _read_outputs(self, out: Path, p: Pass) -> None:
        def report():
            rep = json.loads((out / "train" / "report.json").read_text())["train"]
            if not all(math.isfinite(v) for series in rep["losses"].values() for v in series):
                raise ValueError("non-finite loss in report.json")
            return rep

        rep = self.ledger.run("check report.json", report)
        if rep is not None:
            p.epochs = rep["epochs_run"]
        emb = out / "train" / "embeddings.csv"
        cluster = _read_json(out / "cluster.json")
        probe = _read_json(out / "classify.json")
        if cluster and probe:
            p.quality = {
                "acc": cluster["metrics"]["acc"]["mean"],
                "nmi": cluster["metrics"]["nmi"]["mean"],
                "probe_acc": probe["metrics"]["accuracy"]["mean"],
            }
        p.fingerprint = (
            _digest(emb.read_bytes()) if emb.is_file() else None,
            *sorted(p.quality.items()),
        )

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _missing(paths) -> str | None:
    gone = [str(p.name) for p in paths if not p.is_file()]
    return f"missing artifacts {gone}" if gone else None


def _read_json(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


WORKLOADS = {w.name: w for w in (WideTrain, Exp1Sweep, CliPipeline)}


@dataclass
class Outcome:
    ledger: Ledger
    passes: list
    metrics: dict  # name -> (value, unit)
    extra: dict
    spans: list
    reruns_identical: bool
    unstable_counts: list


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 workdir: Path, min_passes: int = 2) -> Outcome:
    """Prepare inputs, run passes for ``seconds`` (at least ``min_passes``),
    and reduce them to metrics. With tracing, every pass after the first is
    traced; the untraced first pass is the base of the tracing overhead."""
    ledger, tracer = Ledger(), Tracer()
    workload = WORKLOADS[name](ledger, tracer)
    workload.prepare(seed, smoke, workdir)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) > 0
        passes.append(workload.run_pass(len(passes), traced))
        elapsed = time.perf_counter() - start
        if len(passes) >= MAX_PASSES:
            break
        if len(passes) >= min_passes and elapsed + passes[-1].wall > seconds:
            break

    plain = [p for p in passes if not p.traced]
    fingerprints = {p.fingerprint for p in passes}
    extra = {"error_rate": ledger.failed / max(ledger.attempted, 1)}
    for key in ("acc", "nmi", "probe_acc", "dr_agree"):
        vals = [p.quality[key] for p in plain if key in p.quality]
        if vals:
            extra[key] = median(vals)
    unstable: list[str] = []
    if trace:
        values, unstable = layers.layer_metrics(
            tracer.spans,
            getattr(workload, "launches", {}),
            [p.wall for p in plain],
            [p.wall for p in passes if p.traced],
        )
        metrics = {key: (values[key], unit) for key, unit, _ in layers.PER_LAYER}
    else:
        values = {
            "wall_s": median(p.wall for p in plain),
            "setup_s": median(p.setup for p in plain),
            "epochs_per_s": epoch_rate(run for p in plain for run in p.runs),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        metrics = {key: (values[key], unit) for key, unit, _ in END_TO_END}
    return Outcome(
        ledger=ledger,
        passes=passes,
        metrics=metrics,
        extra=extra,
        spans=tracer.spans,
        reruns_identical=len(fingerprints) == 1,
        unstable_counts=unstable,
    )
