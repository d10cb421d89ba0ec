import json
import subprocess
import sys

import numpy as np
import pytest

from amlp.cli import main
from amlp.dataio import load_dataset, save_dataset
from amlp.synth import generate_dataset, homophilic_preset


@pytest.fixture(scope="module")
def sbm_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "hom"
    assert main(["sbm", "--preset", "homophilic", "--seed", "0", "--out", str(path)]) == 0
    return path


def test_sbm_writes_dataset(sbm_dir):
    g, x, labels, _ = load_dataset(sbm_dir)
    assert g.n_nodes == 400
    assert x.shape == (400, 16)
    assert set(np.unique(labels)) == {0, 1, 2, 3}


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_unknown_flag_exits_1():
    assert main(["sbm", "--preset", "homophilic", "--bogus", "x"]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_missing_dataset_exits_1(tmp_path, capsys):
    assert main(["diagnose", "--data", str(tmp_path / "nope")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("epochs", "abc"), ("epochs", True), ("lambda", [1, "x"])]
)
def test_train_config_with_wrong_type_exits_1(sbm_dir, tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({key: value}))
    code = main(
        ["train", "--data", str(sbm_dir), "--out", str(tmp_path / "run"), "--config", str(cfg)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(cfg) in err and repr(key) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, config, flags, named",
    [
        ("train", {"n_seeds": 0}, [], "'n_seeds'"),
        ("train", {"kmeans_restarts": 0}, [], "'kmeans_restarts'"),
        ("cluster", None, ["--restarts", "0"], "--restarts"),
        ("cluster", None, ["--seeds", "0"], "--seeds"),
        ("classify", None, ["--n-splits", "0"], "--n-splits"),
        ("exp1", None, ["--seeds", "0"], "--seeds"),
    ],
)
def test_zero_counts_exit_1(sbm_dir, tmp_path, capsys, command, config, flags, named):
    argv = [command, "--data", str(sbm_dir)]
    if command == "train":
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(config))
        argv += ["--out", str(tmp_path / "run"), "--config", str(cfg)]
    elif command == "exp1":
        argv += ["--out", str(tmp_path / "run")]
    else:
        # the embeddings file does not exist: the count is refused first
        argv += ["--emb", str(tmp_path / "missing.csv")]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err and "must be >= 1" in err
    assert not (tmp_path / "run").exists()


def test_train_cluster_diagnose_pipeline(sbm_dir, tmp_path):
    run = tmp_path / "run"
    code = main(
        [
            "train",
            "--data",
            str(sbm_dir),
            "--out",
            str(run),
            "--epochs",
            "30",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    assert (run / "checkpoint.json").is_file()
    assert (run / "weights.csv").is_file()
    assert (run / "embeddings.csv").is_file()
    report = json.loads((run / "report.json").read_text())
    for key in ("config", "seed", "metrics", "wall_clock_seconds"):
        assert key in report
    assert report["train"]["epochs_run"] == 30

    metrics = tmp_path / "metrics.json"
    code = main(
        [
            "cluster",
            "--data",
            str(sbm_dir),
            "--emb",
            str(run / "embeddings.csv"),
            "--seeds",
            "2",
            "--out",
            str(metrics),
        ]
    )
    assert code == 0
    parsed = json.loads(metrics.read_text())
    assert "acc" in parsed["metrics"] and "nmi" in parsed["metrics"]
    assert len(parsed["metrics"]["acc"]["per_seed"]) == 2
    assert 0.0 <= parsed["metrics"]["acc"]["mean"] <= 1.0

    diag = tmp_path / "diag.json"
    code = main(
        [
            "diagnose",
            "--data",
            str(sbm_dir),
            "--emb",
            str(run / "embeddings.csv"),
            "--out",
            str(diag),
        ]
    )
    assert code == 0
    parsed = json.loads(diag.read_text())
    assert "homophily_ratio" in parsed["metrics"]
    assert "dirichlet_energy" in parsed["metrics"]


def test_train_grid_reports_best(sbm_dir, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps(
            {"k": 2, "lambda": [1, 0.1, 0.01, 0.001], "epochs": 10, "hidden_dim": 16}
        )
    )
    run = tmp_path / "gridrun"
    code = main(
        ["train", "--data", str(sbm_dir), "--out", str(run), "--config", str(cfg)]
    )
    assert code == 0
    report = json.loads((run / "report.json").read_text())
    assert len(report["grid"]) == 4
    assert "best_index" in report
    assert all(r["acc"] is not None for r in report["grid"])
    accs = [r["acc"] for r in report["grid"]]
    assert report["metrics"]["best_acc"] == max(accs)


def test_train_seed_sweep(sbm_dir, tmp_path):
    cfg = tmp_path / "seeds.json"
    cfg.write_text(json.dumps({"n_seeds": 2, "epochs": 10, "hidden_dim": 16}))
    run = tmp_path / "seedrun"
    code = main(
        ["train", "--data", str(sbm_dir), "--out", str(run), "--config", str(cfg)]
    )
    assert code == 0
    report = json.loads((run / "report.json").read_text())
    assert [r["seed"] for r in report["grid"]] == [0, 1]


def test_reconstruct_emits_dataset_and_stats(sbm_dir, tmp_path):
    out = tmp_path / "recon"
    code = main(
        [
            "reconstruct",
            "--data",
            str(sbm_dir),
            "--out",
            str(out),
            "--epsilon",
            "0.001",
        ]
    )
    assert code == 0
    g, x, labels, _ = load_dataset(out)
    stats = json.loads((out / "reconstruction.json").read_text())
    assert stats["metrics"]["candidates_scored"] > 0
    assert (
        stats["metrics"]["edges_kept"] + stats["metrics"]["edges_removed"]
        == stats["metrics"]["candidates_scored"]
    )


def test_reconstruct_soft_writes_weights(sbm_dir, tmp_path):
    out = tmp_path / "soft"
    code = main(
        [
            "reconstruct",
            "--data",
            str(sbm_dir),
            "--out",
            str(out),
            "--soft",
            "--steepness",
            "50",
        ]
    )
    assert code == 0
    lines = (out / "edge_weights.tsv").read_text().splitlines()
    assert lines
    w = np.array([float(line.split("\t")[2]) for line in lines])
    assert np.all((w > 0) & (w < 1))


def test_classify_runs(sbm_dir, tmp_path):
    run = tmp_path / "probe_run"
    main(["train", "--data", str(sbm_dir), "--out", str(run), "--epochs", "20"])
    out = tmp_path / "cls.json"
    code = main(
        [
            "classify",
            "--data",
            str(sbm_dir),
            "--emb",
            str(run / "embeddings.csv"),
            "--n-splits",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    parsed = json.loads(out.read_text())
    accs = parsed["metrics"]["accuracy"]["per_split"]
    assert len(accs) == 2
    assert all(0.0 <= a <= 1.0 for a in accs)


def test_exp1_emits_eight_rows(tmp_path):
    data = tmp_path / "tiny"
    g, x, labels = generate_dataset(homophilic_preset(seed=0, n_nodes=60))
    save_dataset(data, g, x, labels)
    out = tmp_path / "exp1.csv"
    code = main(
        [
            "exp1",
            "--data",
            str(data),
            "--epochs",
            "5",
            "--hidden-dim",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "aggregator,with_agg_loss,seed,dirichlet_energy"
    assert len(lines) == 1 + 8  # 4 aggregators x {without, with}


def test_prep_builds_dataset(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    feats = tmp_path / "feats.csv"
    feats.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n-1\n")
    out = tmp_path / "prepped"
    code = main(
        [
            "prep",
            "--edges",
            str(edges),
            "--features",
            str(feats),
            "--labels",
            str(labels),
            "--out",
            str(out),
            "--name",
            "toy",
        ]
    )
    assert code == 0
    g, x, lab, _ = load_dataset(out)
    assert g.n_nodes == 3
    assert np.array_equal(lab, [0, 1, -1])
    assert np.array_equal(x, [[1, 2], [3, 4], [5, 6]])


def test_prep_reports_bad_line(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\noops\n")
    feats = tmp_path / "feats.csv"
    feats.write_text("1.0\n2.0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    code = main(
        [
            "prep",
            "--edges",
            str(edges),
            "--features",
            str(feats),
            "--labels",
            str(labels),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "edges.txt:2" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    """Same config and seed twice -> byte-identical embeddings CSV."""
    data = tmp_path / "data"
    g, x, labels = generate_dataset(homophilic_preset(seed=3, n_nodes=80))
    save_dataset(data, g, x, labels)
    outs = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(data),
                    "--out",
                    str(run),
                    "--epochs",
                    "15",
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        outs.append((run / "embeddings.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_subprocess_entry(tmp_path):
    """The module entry point works as a subprocess (console-script path)."""
    import os

    out = tmp_path / "d"
    env = dict(os.environ, AMLP_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "amlp", "sbm", "--preset", "heterophilic", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "meta.json").is_file()
    proc = subprocess.run(
        [sys.executable, "-m", "amlp", "nope"], capture_output=True, text=True
    )
    assert proc.returncode == 1
