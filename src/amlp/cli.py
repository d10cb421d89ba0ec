"""Command-line interface.

Subcommands: prep, sbm, reconstruct, train, cluster, classify, diagnose, exp1.
Exit codes: 0 success, 1 validation/usage/file error, 2 numerical failure.

The environment variable AMLP_THREADS caps the worker count of the numeric
backends; it must be applied before numpy is first imported, which is why this
module touches os.environ at import time.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

_threads = os.environ.get("AMLP_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

import numpy as np

from . import dataio, evaluate, synth
from .errors import NumericalError, ValidationError
from .graph import (
    AGGREGATORS,
    build_graph,
    dirichlet_energy,
    homophily_ratio,
    normalize_with_self_loops,
    row_normalize,
)
from .model import AMLPConfig, exp1_train, train
from .reconstruct import ReconstructionConfig, reconstruct_hard, reconstruct_soft


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amlp",
        description="Aggregation-aware single-layer graph representation learning.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("prep", help="convert raw edge/feature/label files to a dataset dir")
    p.add_argument("--edges", required=True, help="whitespace-separated edge list file")
    p.add_argument("--features", required=True, help="CSV of node features")
    p.add_argument("--labels", required=True, help="one integer label per line (-1 = unlabeled)")
    p.add_argument("--n-nodes", type=int, default=None, help="node count (default: inferred)")
    p.add_argument("--name", default="dataset")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sbm", help="generate a synthetic SBM dataset dir")
    p.add_argument("--preset", choices=["homophilic", "heterophilic"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-nodes", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="refine a graph and emit it as a dataset dir")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=0.001)
    p.add_argument("--policy", choices=["original_edges", "all_pairs"], default="original_edges")
    p.add_argument("--soft", action="store_true", help="sigmoid-relaxed weights instead of 0/1")
    p.add_argument("--steepness", type=float, default=100.0)

    p = sub.add_parser("train", help="train the model; write checkpoint, embeddings, report")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON run config; lists for k/lambda/learning_rate run a grid")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--k", type=int, default=None, help="override hop count")
    p.add_argument("--lambda", dest="lambda_", type=float, default=None, help="override trade-off")
    p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("cluster", help="K-means on embeddings; ACC/NMI against dataset labels")
    p.add_argument("--data", required=True)
    p.add_argument("--emb", required=True, help="embeddings CSV")
    p.add_argument("--k", type=int, default=None, help="cluster count (default: meta num_classes)")
    p.add_argument("--seeds", type=int, default=1, help="number of K-means seeds")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out", default=None, help="metrics JSON path (default: stdout only)")

    p = sub.add_parser("classify", help="linear probe on frozen embeddings")
    p.add_argument("--data", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--ratios", default="0.48,0.32,0.20", help="train,val,test fractions")
    p.add_argument("--n-splits", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("diagnose", help="homophily ratio and embedding Dirichlet energy")
    p.add_argument("--data", required=True)
    p.add_argument("--emb", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("exp1", help="aggregator study: Dirichlet energy with/without the aggregation loss")
    p.add_argument("--data", required=True)
    p.add_argument("--aggregator", choices=list(AGGREGATORS) + ["all"], default="all")
    p.add_argument("--with-agg-loss", choices=["true", "false", "both"], default="both")
    p.add_argument("--lambda", dest="lambda_", type=float, default=0.1)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--hidden-dim", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--out", required=True, help="CSV of Dr values")

    return parser


def _check_counts(**flags) -> None:
    """Refuse a count flag below 1 before any data is read."""
    for name, value in flags.items():
        if value < 1:
            raise ValidationError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _check_out_file(path) -> None:
    """Refuse an output file path, before any data is read, that names a
    directory or whose directory does not exist."""
    if path is None:
        return
    if os.path.isdir(path):
        raise ValidationError(f"--out {path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        why = "is not a directory" if os.path.exists(parent) else "does not exist"
        raise ValidationError(f"--out {path}: {parent} {why}")


def _check_out_dir(path) -> None:
    """Refuse an output directory path, before any data is read, that names
    a file or lies below one; missing directories are created later."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValidationError(f"--out {path}: {existing} is not a directory")


def _load_embeddings(path, n_nodes: int) -> np.ndarray:
    """The embeddings CSV at ``path``, which must hold one row per node."""
    y_hat = dataio.load_embeddings_csv(path)
    if y_hat.shape[0] != n_nodes:
        raise ValidationError(f"{path}: {y_hat.shape[0]} rows, dataset has {n_nodes} nodes")
    return y_hat


def _cmd_prep(args) -> int:
    edges = dataio.parse_int_lines(args.edges, 2)
    x = dataio.load_float_csv(args.features)
    labels = dataio.parse_int_lines(args.labels, 1).ravel()
    n = args.n_nodes if args.n_nodes is not None else labels.size
    try:
        g = build_graph(edges, n)
    except ValidationError as e:
        raise ValidationError(f"{args.edges}: {e}") from e
    if x.shape[0] != n:
        raise ValidationError(f"{args.features}: {x.shape[0]} rows, expected {n}")
    if labels.size != n:
        raise ValidationError(f"{args.labels}: {labels.size} labels, expected {n}")
    dataio.save_dataset(args.out, g, x, labels, name=args.name)
    print(f"wrote dataset to {args.out}")
    return 0


def _cmd_sbm(args) -> int:
    preset = synth.homophilic_preset if args.preset == "homophilic" else synth.heterophilic_preset
    overrides = {}
    if args.n_nodes is not None:
        overrides["n_nodes"] = args.n_nodes
    spec = preset(seed=args.seed, **overrides)
    g, x, labels = synth.generate_dataset(spec)
    dataio.save_dataset(args.out, g, x, labels, name=f"sbm-{args.preset}-{args.seed}")
    print(
        f"wrote {args.preset} SBM ({spec.n_nodes} nodes, {g.n_edges} edges, "
        f"{spec.n_classes} classes) to {args.out}"
    )
    return 0


def _cmd_reconstruct(args) -> int:
    t0 = time.perf_counter()
    _check_out_dir(args.out)
    cfg = ReconstructionConfig(
        epsilon=args.epsilon,
        candidate_policy=args.policy,
        mode="soft" if args.soft else "hard",
        steepness=args.steepness,
    )
    g, x, labels = dataio.load_dataset(args.data)
    reconstruct = reconstruct_soft if args.soft else reconstruct_hard
    s, stats = reconstruct(g, x, cfg)
    # in soft mode the dataset dir carries the full candidate support, and the
    # sigmoid weights go in a sidecar edge_weights.tsv (u, v, weight; u < v)
    dataio.save_dataset(args.out, s, x, labels, name="reconstructed")
    if args.soft:
        rows = np.repeat(np.arange(s.n_nodes), np.diff(s.indptr))
        mask = rows < s.indices
        # float64 table: %d prints the integral endpoints exactly
        table = np.column_stack([rows[mask], s.indices[mask], s.values[mask]])
        with open(os.path.join(args.out, "edge_weights.tsv"), "w") as f:
            dataio.write_rows(f, "%d\t%d\t%.9g\n", table)
    report = dataio.make_report(
        config={
            "epsilon": cfg.epsilon,
            "candidate_policy": cfg.candidate_policy,
            "mode": cfg.mode,
            "steepness": cfg.steepness,
        },
        seed=0,
        metrics=stats.as_dict(),
        wall_clock_seconds=time.perf_counter() - t0,
    )
    dataio.write_report(os.path.join(args.out, "reconstruction.json"), report)
    print(
        f"scored {stats.candidates_scored} candidates, kept {stats.edges_kept}, "
        f"removed {stats.edges_removed} (mean score {stats.mean_score:.4g})"
    )
    return 0


def _cmd_train(args) -> int:
    t0 = time.perf_counter()
    run_cfg = dataio.RunConfig.from_json(args.config) if args.config else dataio.RunConfig()
    if args.seed is not None:
        run_cfg.seed = args.seed
    if args.k is not None:
        run_cfg.k = args.k
    if args.lambda_ is not None:
        run_cfg.lambda_ = args.lambda_
    if args.epochs is not None:
        run_cfg.epochs = args.epochs
    # the model and reconstruction configs refuse bad values before any read
    combos = run_cfg.grid()
    meta = dataio.load_meta(args.data)
    g, x, labels = dataio.load_dataset(args.data, meta)
    has_labels = bool((labels >= 0).any()) and meta.get("num_classes", 0) >= 2
    if len(combos) > 1 and not has_labels:
        raise ValidationError(
            "grid config needs labels to pick the best setting by clustering ACC"
        )
    if run_cfg.n_seeds > 1 and not has_labels:
        raise ValidationError("n_seeds > 1 needs labels to pick the best run by ACC")
    os.makedirs(args.out, exist_ok=True)
    grid_rows = []
    best = None  # (acc, row index, model, y_hat, report)
    for combo_idx, (amlp_cfg, recon_cfg) in enumerate(combos):
        for seed_offset in range(run_cfg.n_seeds):
            cfg_s = replace(amlp_cfg, seed=amlp_cfg.seed + seed_offset)
            model, y_hat, report = train(g, x, cfg_s, recon_cfg)
            acc = None
            if has_labels:
                res = evaluate.kmeans(
                    y_hat,
                    int(meta["num_classes"]),
                    seed=cfg_s.seed,
                    restarts=run_cfg.kmeans_restarts,
                )
                acc = evaluate.hungarian_acc(res.assignments, labels)
            grid_rows.append(
                {
                    "k": cfg_s.k,
                    "lambda": cfg_s.lambda_,
                    "learning_rate": cfg_s.learning_rate,
                    "seed": cfg_s.seed,
                    "acc": acc,
                    "final_loss": float(report.losses_total[-1]),
                }
            )
            key = acc if acc is not None else -float(report.losses_total[-1])
            if best is None or key > best[0]:
                best = (key, len(grid_rows) - 1, model, y_hat, report)
    _, best_idx, model, y_hat, report = best
    dataio.save_checkpoint(args.out, model)
    dataio.save_embeddings_csv(os.path.join(args.out, "embeddings.csv"), y_hat)
    metrics = {"final_dirichlet_energy": report.final_dirichlet}
    if has_labels:
        metrics["best_acc"] = grid_rows[best_idx]["acc"]
    extra = {"train": report.as_dict()}
    if len(grid_rows) > 1:
        extra["grid"] = grid_rows
        extra["best_index"] = best_idx
    out_report = dataio.make_report(
        config=run_cfg.as_dict(),
        seed=run_cfg.seed,
        metrics=metrics,
        wall_clock_seconds=time.perf_counter() - t0,
        **extra,
    )
    dataio.write_report(os.path.join(args.out, "report.json"), out_report)
    print(
        f"trained {len(combos)} configuration(s); "
        f"artifacts in {args.out} (best index {best_idx})"
    )
    return 0


def _cmd_cluster(args) -> int:
    t0 = time.perf_counter()
    _check_counts(seeds=args.seeds, restarts=args.restarts)
    _check_out_file(args.out)
    meta, labels = dataio.load_labels(args.data)
    y_hat = _load_embeddings(args.emb, labels.size)
    k = args.k if args.k is not None else int(meta["num_classes"])
    if k < 1:
        raise ValidationError("cluster count must be >= 1 (set --k or meta num_classes)")
    accs, nmis = [], []
    for s in range(args.seeds):
        res = evaluate.kmeans(y_hat, k, seed=s, restarts=args.restarts)
        accs.append(evaluate.hungarian_acc(res.assignments, labels))
        nmis.append(evaluate.nmi(res.assignments, labels))
    record = evaluate.MetricsRecord(acc_values=accs, nmi_values=nmis)
    report = dataio.make_report(
        config={"k": k, "seeds": args.seeds, "restarts": args.restarts},
        seed=0,
        metrics=record.as_dict(),
        wall_clock_seconds=time.perf_counter() - t0,
    )
    if args.out:
        dataio.write_report(args.out, report)
    print(
        f"acc {record.acc_mean:.4f} ± {record.acc_std:.4f}, "
        f"nmi {record.nmi_mean:.4f} ± {record.nmi_std:.4f} over {args.seeds} seed(s)"
    )
    return 0


def _cmd_classify(args) -> int:
    t0 = time.perf_counter()
    _check_counts(n_splits=args.n_splits)
    _check_out_file(args.out)
    _, labels = dataio.load_labels(args.data)
    y_hat = _load_embeddings(args.emb, labels.size)
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:
        ratios = ()
    if len(ratios) != 3:
        raise ValidationError(
            f"--ratios must be three comma-separated fractions, got {args.ratios!r}"
        )
    split_set = evaluate.make_splits(labels, ratios, n_splits=args.n_splits, seed=args.seed)
    accs = [
        evaluate.linear_probe(y_hat, labels, split) for split in split_set.splits
    ]
    report = dataio.make_report(
        config={"ratios": list(ratios), "n_splits": args.n_splits},
        seed=args.seed,
        metrics={
            "accuracy": {
                "per_split": accs,
                "mean": float(np.mean(accs)),
                "std": float(np.std(accs)),
            }
        },
        wall_clock_seconds=time.perf_counter() - t0,
    )
    if args.out:
        dataio.write_report(args.out, report)
    print(f"probe accuracy {np.mean(accs):.4f} ± {np.std(accs):.4f} over {args.n_splits} splits")
    return 0


def _cmd_diagnose(args) -> int:
    t0 = time.perf_counter()
    _check_out_file(args.out)
    g, x, labels = dataio.load_dataset(args.data)
    metrics = {
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
    }
    if (labels >= 0).any() and (g.degrees() > 0).any():
        metrics["homophily_ratio"] = homophily_ratio(g, labels)
    if args.emb:
        y_hat = _load_embeddings(args.emb, g.n_nodes)
        a_tilde = normalize_with_self_loops(g)
        metrics["dirichlet_energy"] = dirichlet_energy(
            a_tilde, row_normalize(y_hat)
        )
    report = dataio.make_report(
        config={"data": str(args.data), "emb": args.emb},
        seed=0,
        metrics=metrics,
        wall_clock_seconds=time.perf_counter() - t0,
    )
    if args.out:
        dataio.write_report(args.out, report)
    for key, val in metrics.items():
        print(f"{key}: {val}")
    return 0


def _cmd_exp1(args) -> int:
    _check_counts(seeds=args.seeds)
    _check_out_file(args.out)
    g, x, labels = dataio.load_dataset(args.data)
    aggs = list(AGGREGATORS) if args.aggregator == "all" else [args.aggregator]
    flags = {"true": [True], "false": [False], "both": [False, True]}[args.with_agg_loss]
    rows = []
    for agg in aggs:
        for flag in flags:
            for seed in range(args.seeds):
                cfg = AMLPConfig(
                    hidden_dim=args.hidden_dim,
                    learning_rate=args.learning_rate,
                    epochs=args.epochs,
                    seed=seed,
                )
                dr, _ = exp1_train(g, x, agg, flag, lambda_=args.lambda_, cfg=cfg)
                rows.append((agg, flag, seed, dr))
    with open(args.out, "w") as f:
        f.write("aggregator,with_agg_loss,seed,dirichlet_energy\n")
        for agg, flag, seed, dr in rows:
            f.write(f"{agg},{str(flag).lower()},{seed},{dr:.9g}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_COMMANDS = {
    "prep": _cmd_prep,
    "sbm": _cmd_sbm,
    "reconstruct": _cmd_reconstruct,
    "train": _cmd_train,
    "cluster": _cmd_cluster,
    "classify": _cmd_classify,
    "diagnose": _cmd_diagnose,
    "exp1": _cmd_exp1,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; map to the documented code 1
        return 0 if not e.code else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
