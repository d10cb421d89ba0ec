import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import amlp
from amlp import dataio
from amlp.cli import main
from amlp.dataio import load_dataset, save_dataset
from amlp.reconstruct import ReconstructionConfig
from amlp.synth import generate_dataset, homophilic_preset


@pytest.fixture(scope="module")
def sbm_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "hom"
    assert main(["sbm", "--preset", "homophilic", "--seed", "0", "--out", str(path)]) == 0
    return path


def test_sbm_writes_dataset(sbm_dir):
    g, x, labels = load_dataset(sbm_dir)
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
    g, x, labels = load_dataset(out)
    stats = json.loads((out / "reconstruction.json").read_text())
    assert stats["metrics"]["candidates_scored"] > 0
    assert (
        stats["metrics"]["edges_kept"] + stats["metrics"]["edges_removed"]
        == stats["metrics"]["candidates_scored"]
    )


def test_reconstruct_defaults_are_the_config_defaults(sbm_dir, tmp_path, monkeypatch):
    """amlp reconstruct retypes ReconstructionConfig's defaults as flag
    defaults; with no flags it runs that config."""
    from amlp import reconstruct

    seen = []
    real = reconstruct.reconstruct_hard

    def spy(g, x, cfg):
        seen.append(cfg)
        return real(g, x, cfg)

    monkeypatch.setattr(reconstruct, "reconstruct_hard", spy)
    assert main(["reconstruct", "--data", str(sbm_dir), "--out", str(tmp_path / "r")]) == 0
    assert seen == [ReconstructionConfig()]


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


def test_reconstruct_soft_weights_match_per_value_loop(sbm_dir, tmp_path):
    from amlp.reconstruct import ReconstructionConfig, reconstruct_soft

    out = tmp_path / "soft"
    assert main(["reconstruct", "--data", str(sbm_dir), "--out", str(out), "--soft"]) == 0
    g, x, _ = load_dataset(sbm_dir)
    s, _ = reconstruct_soft(g, x, ReconstructionConfig(mode="soft"))
    rows = np.repeat(np.arange(s.n_nodes), np.diff(s.indptr))
    mask = rows < s.indices
    want = "".join(
        f"{u}\t{v}\t{w:.9g}\n"
        for u, v, w in zip(rows[mask], s.indices[mask], s.values[mask])
    )
    assert (out / "edge_weights.tsv").read_text() == want


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
    g, x, lab = load_dataset(out)
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


def test_prep_refuses_features_beyond_float32_at_their_line(tmp_path, capsys):
    """A finite feature that float32 cannot hold is refused at its line, as
    load_dataset would refuse the inf it became, and nothing is written."""
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
    feats = tmp_path / "feats.csv"
    feats.write_text("1.0,2.0\n1e39,4.0\n5.0,6.0\n")
    (tmp_path / "labels.csv").write_text("0\n1\n-1\n")
    out = tmp_path / "prepped"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["prep", "--edges", str(tmp_path / "edges.txt"), "--features", str(feats),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {feats}:2: non-finite value (beyond the float32 range)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cluster", "classify", "diagnose"])
def test_label_below_minus_one_refused_at_labels_csv(sbm_dir, tmp_path, capsys, monkeypatch,
                                                    command):
    """Labels are integers >= -1; a -5 in labels.csv ends every command that
    reads labels in one line naming the file, before any training or
    evaluation."""
    from amlp import cli, evaluate

    data = tmp_path / "data"
    g, x, labels = load_dataset(sbm_dir)
    save_dataset(data, g, x, labels)
    lines = (data / "labels.csv").read_text().splitlines()
    lines[2] = "-5"
    (data / "labels.csv").write_text("\n".join(lines) + "\n")
    emb = tmp_path / "emb.csv"
    dataio.save_embeddings_csv(emb, np.random.default_rng(0).standard_normal((400, 4)))
    calls = []
    for module, name in [(cli, "train"), (evaluate, "kmeans"), (evaluate, "make_splits"),
                         (cli, "homophily_ratio")]:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    out = tmp_path / "run"
    argv = {
        "train": ["--out", str(out), "--epochs", "2"],
        "cluster": ["--emb", str(emb)],
        "classify": ["--emb", str(emb), "--n-splits", "2"],
        "diagnose": ["--emb", str(emb)],
    }[command]
    assert main([command, "--data", str(data), *argv]) == 1
    _assert_one_error_line(capsys, f"error: {data / 'labels.csv'}: ", "-1")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", ["exp1", "train"])
def test_unallocatable_width_exits_1_with_one_line(sbm_dir, tmp_path, capsys, command):
    """A hidden width whose arrays the allocator refuses at once ends in one
    error line, not numpy's MemoryError traceback. 10^12 columns of 400
    float64 rows are petabytes, so no host grants them."""
    cfg = tmp_path / "wide.json"
    cfg.write_text('{"hidden_dim": 1000000000000}')
    argv = {
        "exp1": ["--hidden-dim", "1000000000000", "--epochs", "2", "--aggregator", "mean",
                 "--with-agg-loss", "false", "--out", str(tmp_path / "e.csv")],
        "train": ["--config", str(cfg), "--out", str(tmp_path / "run")],
    }[command]
    assert main([command, "--data", str(sbm_dir), *argv]) == 1
    _assert_one_error_line(capsys, "Unable to allocate")


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


def _child_env(**extra) -> dict:
    """The environment for a child interpreter, with this package's source
    directory on its path (pytest's pythonpath setting is not inherited)."""
    src = str(Path(amlp.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_cli_subprocess_entry(tmp_path):
    """The module entry point works as a subprocess (console-script path)."""
    out = tmp_path / "d"
    env = _child_env(AMLP_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "amlp", "sbm", "--preset", "heterophilic", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "meta.json").is_file()
    proc = subprocess.run(
        [sys.executable, "-m", "amlp", "nope"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1


_SCIPY_PARTS = ("scipy", "scipy.optimize", "scipy.sparse")


def _scipy_loaded_by(argv) -> list[str]:
    """Import amlp.cli in a fresh interpreter, run ``argv`` through main when
    it is not empty, and return which of _SCIPY_PARTS were loaded at exit."""
    script = (
        "import json, sys\n"
        "import amlp.cli\n"
        "if sys.argv[1:]:\n"
        "    assert amlp.cli.main(sys.argv[1:]) == 0\n"
        f"print(json.dumps([m for m in {_SCIPY_PARTS!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cluster_and_train_leave_scipy_optimize_unimported(sbm_dir, tmp_path):
    """Scoring matches clusters to classes without scipy.optimize, whose
    import costs each scoring command about 0.4 s."""
    run = tmp_path / "run"
    for argv in (
        ["train", "--data", str(sbm_dir), "--out", str(run), "--epochs", "5"],
        ["cluster", "--data", str(sbm_dir), "--emb", str(run / "embeddings.csv"), "--restarts", "2"],
    ):
        assert "scipy.optimize" not in _scipy_loaded_by(argv)


def test_commands_without_sparse_products_leave_scipy_sparse_unimported(sbm_dir, tmp_path):
    """Importing the CLI, scoring embeddings, generating or converting a
    dataset and reconstructing on either candidate policy, hard or soft,
    never load scipy at all, whose sparse import costs each process about
    20 MB and a quarter of a second; train multiplies by sparse matrices,
    and loads it."""
    run, data = tmp_path / "run", str(sbm_dir)
    emb = str(run / "embeddings.csv")
    train = ["train", "--data", data, "--out", str(run), "--epochs", "5"]
    assert {"scipy", "scipy.sparse"} <= set(_scipy_loaded_by(train))
    for argv in (
        [],
        ["cluster", "--data", data, "--emb", emb, "--restarts", "2"],
        ["classify", "--data", data, "--emb", emb, "--n-splits", "2"],
        ["sbm", "--preset", "heterophilic", "--out", str(tmp_path / "sbm")],
        ["prep", "--edges", f"{data}/edges.tsv", "--features", f"{data}/features.csv",
         "--labels", f"{data}/labels.csv", "--out", str(tmp_path / "prep")],
        ["reconstruct", "--data", data, "--out", str(tmp_path / "hard")],
        ["reconstruct", "--data", data, "--out", str(tmp_path / "soft"), "--soft"],
        ["reconstruct", "--data", data, "--out", str(tmp_path / "ap-hard"),
         "--policy", "all_pairs"],
        ["reconstruct", "--data", data, "--out", str(tmp_path / "ap-soft"),
         "--policy", "all_pairs", "--soft"],
    ):
        assert _scipy_loaded_by(argv) == [], argv


def _assert_one_error_line(capsys, *named):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for part in named:
        assert part in err, err


@pytest.mark.parametrize("command", ["cluster", "classify", "diagnose"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
def test_non_finite_embeddings_exit_1(sbm_dir, tmp_path, capsys, command, value):
    """A NaN, an infinity or a value beyond float32 is refused at its line;
    blank and comment lines count toward the line number."""
    rows = ["0.5,0.25"] * 400
    rows[6] = f"0.5,{value}"
    emb = tmp_path / "emb.csv"
    emb.write_text("# embeddings\n\n" + "\n".join(rows) + "\n")
    assert main([command, "--data", str(sbm_dir), "--emb", str(emb)]) == 1
    _assert_one_error_line(capsys, f"{emb}:9:", "non-finite")


@pytest.mark.parametrize("command", ["cluster", "classify", "diagnose"])
def test_embeddings_row_count_checked(sbm_dir, tmp_path, capsys, command):
    emb = tmp_path / "emb.csv"
    emb.write_text("0.5,0.25\n" * 5)
    assert main([command, "--data", str(sbm_dir), "--emb", str(emb)]) == 1
    _assert_one_error_line(capsys, f"{emb}: 5 rows, dataset has 400 nodes")


def test_embeddings_without_rows_exit_1_without_a_warning(sbm_dir, tmp_path, capsys):
    """np.loadtxt warns on a file that holds no row; the reader keeps the
    warning off stderr, which holds only the row-count error line."""
    emb = tmp_path / "emb.csv"
    emb.write_text("# no rows\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", "--data", str(sbm_dir), "--emb", str(emb)]) == 1
    _assert_one_error_line(capsys, f"{emb}: 0 rows, dataset has 400 nodes")


def _dataset_with_splits(tmp_path, text):
    data = tmp_path / "data"
    g, x, labels = generate_dataset(homophilic_preset(seed=0, n_nodes=60))
    save_dataset(data, g, x, labels)
    (data / "splits.json").write_text(text)
    return data


@pytest.mark.parametrize(
    "text",
    ['{"ratios": [0.5, 0.25]}', '{"splits": [', "[]"],
    ids=["two-ratios", "bad-json", "not-an-object"],
)
@pytest.mark.parametrize("command", ["train", "cluster", "classify", "diagnose", "exp1"])
def test_malformed_splits_json_is_not_read(tmp_path, capsys, command, text):
    """No command reads a dataset's splits.json (classify draws its own
    splits), so a malformed one stops none of them."""
    data = _dataset_with_splits(tmp_path, text)
    emb = tmp_path / "emb.csv"
    dataio.save_embeddings_csv(emb, np.random.default_rng(0).standard_normal((60, 4)))
    argv = {
        "train": ["--out", str(tmp_path / "run"), "--epochs", "3"],
        "cluster": ["--emb", str(emb)],
        "classify": ["--emb", str(emb), "--n-splits", "2"],
        "diagnose": ["--emb", str(emb)],
        "exp1": ["--out", str(tmp_path / "e.csv"), "--epochs", "3", "--aggregator", "mean",
                 "--with-agg-loss", "false"],
    }[command]
    assert main([command, "--data", str(data)] + argv) == 0
    assert "error" not in capsys.readouterr().err


def _dataset_with_meta_value(tmp_path, key, value):
    data = tmp_path / "data"
    g, x, labels = generate_dataset(homophilic_preset(seed=0, n_nodes=60))
    save_dataset(data, g, x, labels)
    meta = json.loads((data / "meta.json").read_text())
    meta[key] = value
    (data / "meta.json").write_text(json.dumps(meta))
    return data


@pytest.mark.parametrize("case", ["train-config", "diagnose-meta", "cluster-labels", "prep-edges"])
def test_input_that_is_not_utf8_exits_1(tmp_path, capsys, case):
    """A byte that is not UTF-8 ends the command in one error line naming
    the file and the line, not a decoding traceback."""
    data = tmp_path / "data"
    g, x, labels = generate_dataset(homophilic_preset(seed=0, n_nodes=60))
    save_dataset(data, g, x, labels)
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{np.sin(i):.6f},{np.cos(i):.6f}\n" for i in range(60)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 2}\n')
    bad, argv = {
        "train-config": (cfg, ["train", "--data", str(data), "--out", str(tmp_path / "run"),
                               "--config", str(cfg)]),
        "diagnose-meta": (data / "meta.json", ["diagnose", "--data", str(data)]),
        "cluster-labels": (data / "labels.csv", ["cluster", "--data", str(data),
                                                 "--emb", str(emb), "--restarts", "1"]),
        "prep-edges": (data / "edges.tsv", ["prep", "--edges", str(data / "edges.tsv"),
                                            "--features", str(data / "features.csv"),
                                            "--labels", str(data / "labels.csv"),
                                            "--out", str(tmp_path / "prepped")]),
    }[case]
    lines = bad.read_bytes().split(b"\n")
    lines[1] = b"\xe9" + lines[1]
    bad.write_bytes(b"\n".join(lines))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text\n"


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("num_nodes", "abc", 'key \'num_nodes\' must be an integer >= 0, got "abc"'),
        ("num_nodes", "60", 'key \'num_nodes\' must be an integer >= 0, got "60"'),
        ("num_nodes", 60.5, "key 'num_nodes' must be an integer >= 0, got 60.5"),
        ("num_nodes", 60.0, "key 'num_nodes' must be an integer >= 0, got 60.0"),
        ("num_nodes", -1, "key 'num_nodes' must be an integer >= 0, got -1"),
        ("num_nodes", None, "key 'num_nodes' must be an integer >= 0, got null"),
        ("num_features", True, "key 'num_features' must be an integer >= 0, got true"),
        ("num_features", [3], "key 'num_features' must be an integer >= 0, got [3]"),
        ("num_classes", 2.0, "key 'num_classes' must be an integer >= 0, got 2.0"),
        ("num_classes", "2", 'key \'num_classes\' must be an integer >= 0, got "2"'),
        ("name", 7, "key 'name' must be a string, got 7"),
        ("features_file", None, "key 'features_file' must be a string, got null"),
        ("features_file", ["features.csv"],
         'key \'features_file\' must be a string, got ["features.csv"]'),
    ],
)
def test_meta_json_value_types_exit_1(tmp_path, capsys, key, value, expected):
    """Each meta.json value of the wrong type ends diagnose in one error line
    naming the file and the key."""
    data = _dataset_with_meta_value(tmp_path, key, value)
    meta_path = data / "meta.json"
    assert main(["diagnose", "--data", str(data)]) == 1
    assert capsys.readouterr().err == f"error: {meta_path}: {expected}\n"


def test_meta_json_node_count_checked_against_labels_first(tmp_path, capsys):
    """A well-typed num_nodes is compared with the label count before any
    array is sized by it, so one beyond int64 is an error line too."""
    data = _dataset_with_meta_value(tmp_path, "num_nodes", 2**63)
    assert main(["diagnose", "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {data / 'labels.csv'}: 60 labels, expected {2**63}\n"


def test_train_reads_meta_json_once(sbm_dir, tmp_path, monkeypatch):
    """train takes num_classes from the meta.json that the dataset load checks."""
    calls = []
    read_meta = dataio._read_meta

    def spy(path):
        calls.append(path)
        return read_meta(path)

    monkeypatch.setattr(dataio, "_read_meta", spy)
    run = tmp_path / "run"
    assert main(["train", "--data", str(sbm_dir), "--out", str(run), "--epochs", "3"]) == 0
    assert calls == [sbm_dir / "meta.json"]


@pytest.mark.parametrize(
    "command, flags", [("cluster", ["--seeds", "1"]), ("classify", ["--n-splits", "2"])]
)
def test_cluster_and_classify_read_neither_features_nor_edges(tmp_path, command, flags):
    """Neither command uses the graph or the features, so neither parses
    them: both run on a dataset whose features.csv and edges.tsv are garbage."""
    data = tmp_path / "data"
    g, x, labels = generate_dataset(homophilic_preset(seed=0, n_nodes=60))
    save_dataset(data, g, x, labels)
    (data / "features.csv").write_text("not,a,number\n")
    (data / "edges.tsv").write_text("x y\n")
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{np.sin(i):.6f},{np.cos(i):.6f}\n" for i in range(60)))
    assert main([command, "--data", str(data), "--emb", str(emb), *flags]) == 0


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"eps_norm": 0}', "eps_norm"),
        ('{"eps_norm": -1}', "eps_norm"),
        ('{"eps_norm": NaN}', "eps_norm"),
        ('{"eps_norm": Infinity}', "eps_norm"),
        ('{"learning_rate": NaN}', "learning_rate"),
        ('{"learning_rate": [0.001, Infinity]}', "learning_rate"),
        ('{"lambda": Infinity}', "lambda"),
        ('{"lambda": NaN}', "lambda"),
        ('{"steepness": NaN, "mode": "soft"}', "steepness"),
    ],
)
def test_train_refuses_non_finite_config_values(sbm_dir, tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    run = tmp_path / "run"
    argv = ["train", "--data", str(sbm_dir), "--out", str(run), "--config", str(cfg)]
    assert main(argv) == 1
    _assert_one_error_line(capsys, named)
    assert not run.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flags_exit_1(sbm_dir, tmp_path, capsys, value):
    out = tmp_path / "out"
    assert main(["reconstruct", "--data", str(sbm_dir), "--out", str(out), "--soft",
                 f"--steepness={value}"]) == 1
    _assert_one_error_line(capsys, "steepness")
    assert not out.exists()
    assert main(["train", "--data", str(sbm_dir), "--out", str(out), f"--lambda={value}"]) == 1
    _assert_one_error_line(capsys, "lambda")
    assert main(["exp1", "--data", str(sbm_dir), "--out", str(out), f"--lambda={value}",
                 "--epochs", "2"]) == 1
    _assert_one_error_line(capsys, "lambda")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sbm", "train", "train --config", "classify"])
def test_negative_seeds_exit_1(sbm_dir, tmp_path, capsys, command):
    """numpy's generators refuse a negative seed; each is one error line."""
    out, emb, cfg = tmp_path / "out", tmp_path / "emb.csv", tmp_path / "seed.json"
    np.savetxt(emb, np.ones((400, 2)), delimiter=",")
    cfg.write_text(json.dumps({"seed": -1}))
    argv = {
        "sbm": ["sbm", "--preset", "homophilic", "--out", str(out), "--seed", "-1"],
        "train": ["train", "--data", str(sbm_dir), "--out", str(out), "--seed", "-1"],
        "train --config": ["train", "--data", str(sbm_dir), "--out", str(out), "--config", str(cfg)],
        "classify": ["classify", "--data", str(sbm_dir), "--emb", str(emb), "--seed", "-1"],
    }[command]
    assert main(argv) == 1
    _assert_one_error_line(capsys, "seed must be >= 0, got -1")
    assert not out.exists()


@pytest.mark.parametrize(
    "ratios, named",
    [
        ("0.5,0.5,0", "test split"),
        ("-0.5,1.0,0.5", "[0, 1]"),
        ("nan,0.5,0.5", "[0, 1]"),
        ("0.5,x,0.5", "--ratios"),
        ("0.5,0.5", "--ratios"),
    ],
)
def test_classify_refuses_bad_ratios(sbm_dir, tmp_path, capsys, ratios, named):
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{np.sin(i):.6f},{np.cos(i):.6f}\n" for i in range(400)))
    out = tmp_path / "classify.json"
    argv = ["classify", "--data", str(sbm_dir), "--emb", str(emb), f"--ratios={ratios}",
            "--out", str(out)]
    assert main(argv) == 1
    _assert_one_error_line(capsys, named)
    assert not out.exists()


@pytest.mark.parametrize(
    "case", ["train-out-file", "reconstruct-out-file", "cluster-out-dir", "exp1-out-dir",
             "missing-config", "missing-emb"],
)
def test_file_errors_exit_1(sbm_dir, tmp_path, capsys, case):
    """A path that cannot be read or written ends as one error line, not a
    traceback."""
    data = str(sbm_dir)
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{np.sin(i):.6f},{np.cos(i):.6f}\n" for i in range(400)))
    taken = tmp_path / "taken"
    taken.write_text("")
    nodir = tmp_path / "nodir"
    argv = {
        "train-out-file": ["train", "--data", data, "--out", str(taken), "--epochs", "2"],
        "reconstruct-out-file": ["reconstruct", "--data", data, "--out", str(taken)],
        "cluster-out-dir": ["cluster", "--data", data, "--emb", str(emb),
                            "--restarts", "1", "--out", str(nodir / "x.json")],
        "exp1-out-dir": ["exp1", "--data", data, "--aggregator", "mean", "--epochs", "2",
                         "--with-agg-loss", "false", "--out", str(nodir / "e.csv")],
        "missing-config": ["train", "--data", data, "--out", str(tmp_path / "run"),
                           "--config", str(tmp_path / "nope.json")],
        "missing-emb": ["cluster", "--data", data, "--emb", str(tmp_path / "nope.csv")],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, bad",
    [(command, bad) for command in ("exp1", "cluster", "classify", "diagnose")
     for bad in ("missing-dir", "is-dir", "below-file", "empty")]
    + [(command, bad) for command in ("reconstruct", "sbm", "prep", "train")
       for bad in ("is-file", "below-file", "empty")],
)
def test_unusable_out_path_refused_before_any_work(sbm_dir, tmp_path, capsys, monkeypatch,
                                                   command, bad):
    """An --out path that cannot be written ends as one error line before
    the data is read, so nothing is generated, parsed, loaded, trained,
    reconstructed or evaluated. reconstruct, sbm, prep and train write a
    directory, creating missing parents, so only a file in the way stops
    them. An empty path is refused by every command, and nothing is written
    to the working directory."""
    from amlp import cli, synth

    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    calls = []

    def spy(name):
        return lambda *args, **kwargs: calls.append(name)

    for name in ("exp1_train", "train", "reconstruct"):
        monkeypatch.setattr(cli, name, spy(name))
    monkeypatch.setattr(synth, "generate_dataset", spy("generate_dataset"))
    for name in ("load_dataset", "load_meta", "load_labels", "load_embeddings_csv",
                 "parse_int_lines", "load_float_csv", "read_labels", "read_edges",
                 "read_features_csv"):
        monkeypatch.setattr(dataio, name, spy(name))
    taken = tmp_path / "taken"
    taken.write_text("")
    out = {
        "missing-dir": tmp_path / "nodir" / "out",
        "is-dir": tmp_path,
        "is-file": taken,
        "below-file": taken / "out",
        "empty": "",
    }[bad]
    emb = str(tmp_path / "emb.csv")
    argv = {
        "exp1": ["exp1", "--data", str(sbm_dir), "--epochs", "2"],
        "cluster": ["cluster", "--data", str(sbm_dir), "--emb", emb],
        "classify": ["classify", "--data", str(sbm_dir), "--emb", emb],
        "diagnose": ["diagnose", "--data", str(sbm_dir), "--emb", emb],
        "reconstruct": ["reconstruct", "--data", str(sbm_dir)],
        "sbm": ["sbm", "--preset", "homophilic"],
        "prep": ["prep", "--edges", str(sbm_dir / "edges.tsv"),
                 "--features", str(sbm_dir / "features.csv"),
                 "--labels", str(sbm_dir / "labels.csv")],
        "train": ["train", "--data", str(sbm_dir), "--epochs", "2"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 1
    _assert_one_error_line(capsys, f"--out {out}" if out else "--out '': empty path")
    assert calls == []
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "exp1"])
def test_non_finite_loss_exits_2(sbm_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "train":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 1e300, "epochs": 5, "hidden_dim": 8}))
        argv = ["train", "--data", str(sbm_dir), "--out", str(out), "--config", str(cfg)]
    else:
        argv = ["exp1", "--data", str(sbm_dir), "--out", str(out), "--learning-rate", "1e300",
                "--with-agg-loss", "true", "--aggregator", "mean", "--epochs", "5",
                "--hidden-dim", "8"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    last = err.strip().splitlines()[-1]
    assert last.startswith("numerical failure: non-finite loss at epoch 1"), last
    assert "agg=" in last and "rec=" in last, last
    # the error line is all a user sees: no numpy warning precedes it
    assert err == last + "\n" and [str(w.message) for w in caught] == [], (err, caught)


def test_diagnose_skips_homophily_when_no_labeled_node_has_an_edge(tmp_path, capsys):
    """Only unlabeled nodes have edges: diagnose reports the graph without a
    homophily ratio, whose eligible nodes are the labeled ones with an edge."""
    (tmp_path / "edges.txt").write_text("0 1\n")
    (tmp_path / "feats.csv").write_text("1.0\n2.0\n3.0\n")
    (tmp_path / "labels.csv").write_text("-1\n-1\n0\n")
    data, diag = tmp_path / "data", tmp_path / "diag.json"
    assert main(["prep", "--edges", str(tmp_path / "edges.txt"),
                 "--features", str(tmp_path / "feats.csv"),
                 "--labels", str(tmp_path / "labels.csv"), "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--data", str(data), "--out", str(diag)]) == 0
    assert capsys.readouterr().out == "n_nodes: 3\nn_edges: 1\n"
    assert json.loads(diag.read_text())["metrics"] == {"n_nodes": 3, "n_edges": 1}


@pytest.mark.parametrize(
    "flags, want",
    [
        ([], '{"epsilon": 0.001, "candidate_policy": "original_edges", "mode": "hard", '
             '"steepness": 100.0}'),
        (["--soft", "--steepness", "50", "--policy", "all_pairs"],
         '{"epsilon": 0.001, "candidate_policy": "all_pairs", "mode": "soft", '
         '"steepness": 50.0}'),
    ],
    ids=["hard", "soft"],
)
def test_reconstruction_report_config_echo(sbm_dir, tmp_path, flags, want):
    """reconstruction.json echoes the settings a run config can set, in
    ReconstructionConfig's order, and not all_pairs_cap."""
    out = tmp_path / "r"
    assert main(["reconstruct", "--data", str(sbm_dir), "--out", str(out), *flags]) == 0
    assert json.dumps(json.loads((out / "reconstruction.json").read_text())["config"]) == want


def test_train_report_config_echo_and_grid_rows(sbm_dir, tmp_path):
    """report.json echoes the whole run config, and each grid row the grid
    keys and the seed of its run, in AMLPConfig's order, then its scores."""
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(
        {"k": [1, 2], "lambda": [0.1, 0.5], "n_seeds": 2, "hidden_dim": 4, "epochs": 5}
    ))
    out = tmp_path / "run"
    assert main(["train", "--data", str(sbm_dir), "--out", str(out), "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert json.dumps(report["config"]) == (
        '{"k": [1, 2], "lambda": [0.1, 0.5], "hidden_dim": 4, "learning_rate": 0.001, '
        '"epochs": 5, "seed": 0, "eps_norm": 1e-12, "early_stop": false, "epsilon": 0.001, '
        '"candidate_policy": "original_edges", "mode": "hard", "steepness": 100.0, '
        '"kmeans_restarts": 10, "n_seeds": 2, "output": null}'
    )
    assert all(isinstance(row["acc"], float) for row in report["grid"])
    rows = [{**row, "acc": "A", "final_loss": "L"} for row in report["grid"]]
    assert json.dumps(rows) == "[" + ", ".join(
        f'{{"k": {k}, "lambda": {lam}, "learning_rate": 0.001, "seed": {seed}, '
        '"acc": "A", "final_loss": "L"}'
        for k in (1, 2) for lam in (0.1, 0.5) for seed in (0, 1)
    ) + "]"


def _masked_report(path) -> str:
    """The report at ``path`` as one-line JSON, with its wall clock and the
    leaves of its metrics masked, after checking that the file is the
    report's indented JSON."""
    text = Path(path).read_text()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2) + "\n"

    def mask(value):
        return {k: mask(v) for k, v in value.items()} if isinstance(value, dict) else "M"

    return json.dumps({**report, "metrics": mask(report["metrics"]), "wall_clock_seconds": "W"})


def test_cluster_classify_diagnose_reports(sbm_dir, tmp_path, monkeypatch):
    """The reports of cluster, classify and diagnose: the schema's keys in
    order, each command's echo of its own flags, classify's --seed, and no
    file at all without --out."""
    emb = tmp_path / "emb.csv"
    dataio.save_embeddings_csv(emb, np.random.default_rng(0).standard_normal((400, 3)))
    data = ["--data", str(sbm_dir), "--emb", str(emb)]
    cluster = data + ["--k", "3", "--seeds", "2", "--restarts", "2"]
    classify = data + ["--ratios", "0.5,0.2,0.3", "--n-splits", "2", "--seed", "7"]
    runs = [("cluster", cluster), ("classify", classify), ("diagnose", data)]
    empty = tmp_path / "cwd"
    empty.mkdir()
    monkeypatch.chdir(empty)
    before = sorted(tmp_path.rglob("*"))
    for command, flags in runs:
        assert main([command, *flags]) == 0
    assert sorted(tmp_path.rglob("*")) == before
    for command, flags in runs:
        assert main([command, *flags, "--out", str(tmp_path / f"{command}.json")]) == 0
    acc = '{"per_seed": "M", "mean": "M", "std": "M"}'
    assert _masked_report(tmp_path / "cluster.json") == (
        '{"config": {"k": 3, "seeds": 2, "restarts": 2}, "seed": 0, '
        f'"metrics": {{"acc": {acc}, "nmi": {acc}}}, "wall_clock_seconds": "W"}}'
    )
    assert _masked_report(tmp_path / "classify.json") == (
        '{"config": {"ratios": [0.5, 0.2, 0.3], "n_splits": 2}, "seed": 7, '
        '"metrics": {"accuracy": {"per_split": "M", "mean": "M", "std": "M"}}, '
        '"wall_clock_seconds": "W"}'
    )
    assert _masked_report(tmp_path / "diagnose.json") == (
        f'{{"config": {{"data": {json.dumps(str(sbm_dir))}, "emb": {json.dumps(str(emb))}}}, '
        '"seed": 0, "metrics": {"n_nodes": "M", "n_edges": "M", "homophily_ratio": "M", '
        '"dirichlet_energy": "M"}, "wall_clock_seconds": "W"}'
    )
