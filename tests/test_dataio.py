import json

import numpy as np
import pytest

from amlp.dataio import (
    RunConfig,
    load_checkpoint,
    load_dataset,
    load_embeddings_csv,
    make_report,
    parse_int_lines,
    save_checkpoint,
    save_dataset,
    save_embeddings_csv,
    write_report,
)
from amlp.errors import ValidationError
from amlp.evaluate import SplitSet, make_splits
from amlp.graph import build_graph
from amlp.model import AMLPConfig, AMLPModel


def tiny_dataset():
    g = build_graph([(0, 1)], 2)
    x = np.array([[1.5, -2.0], [0.25, 3.0]])
    labels = np.array([0, 1])
    return g, x, labels


def test_round_trip_tiny(tmp_path):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels, name="tiny")
    g2, x2, labels2, splits = load_dataset(tmp_path / "d")
    assert g2.n_nodes == 2
    assert list(g2.neighbors(0)) == [1]
    assert np.array_equal(x2, x)  # values are exactly float32-representable
    assert np.array_equal(labels2, labels)
    assert splits is None


def test_round_trip_bit_identical_after_first_save(tmp_path):
    rng = np.random.default_rng(0)
    n = 20
    dense = np.triu(rng.random((n, n)) < 0.2, k=1)
    u, v = np.nonzero(dense)
    g = build_graph(np.column_stack([u, v]), n)
    x = rng.standard_normal((n, 5))
    labels = rng.integers(0, 3, size=n)
    save_dataset(tmp_path / "a", g, x, labels)
    g1, x1, l1, _ = load_dataset(tmp_path / "a")
    save_dataset(tmp_path / "b", g1, x1, l1)
    for name in ("meta.json", "edges.tsv", "features.csv", "labels.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        if name == "meta.json":
            continue  # name field differs
        assert a == b, name


def test_f32_branch(tmp_path):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels, features_file="features.f32")
    raw = (tmp_path / "d" / "features.f32").read_bytes()
    assert len(raw) == 4 * 2 * 2
    expected = x.astype("<f4").tobytes(order="C")
    assert raw == expected
    _, x2, _, _ = load_dataset(tmp_path / "d")
    assert np.array_equal(x2, x)


def test_edges_written_once_with_u_less_than_v(tmp_path):
    g = build_graph([(1, 0), (2, 1)], 3)
    save_dataset(tmp_path / "d", g, np.zeros((3, 1)), np.full(3, -1, dtype=np.int64))
    lines = (tmp_path / "d" / "edges.tsv").read_text().splitlines()
    assert lines == ["0\t1", "1\t2"]


def test_load_rejects_short_labels(tmp_path):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels)
    (tmp_path / "d" / "labels.csv").write_text("0\n")
    with pytest.raises(ValidationError, match="labels.csv"):
        load_dataset(tmp_path / "d")


def test_load_reports_malformed_edge_line(tmp_path):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels)
    (tmp_path / "d" / "edges.tsv").write_text("0\t1\n0\tx\n")
    with pytest.raises(ValidationError, match="edges.tsv:2"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize(
    "text, n_cols, expected",
    [
        ("0\t1\n2\t3\n", 2, [[0, 1], [2, 3]]),
        ("\n0 1\n\n  \n2 3\n\n", 2, [[0, 1], [2, 3]]),
        ("0 1\r\n2 3\r\n", 2, [[0, 1], [2, 3]]),
        ("0\t \t1\n", 2, [[0, 1]]),
        ("+1 -2\n", 2, [[1, -2]]),
        ("1_0 2\n", 2, [[10, 2]]),
        ("5\n-1\n", 1, [[5], [-1]]),
        ("", 2, np.zeros((0, 2), dtype=np.int64)),
        ("\n\n", 1, np.zeros((0, 1), dtype=np.int64)),
        ("9223372036854775807 0\n", 2, [[2**63 - 1, 0]]),
        ("0 1\n# 2\n", 2, ":2: not an integer: '# 2'"),
        ("0 1 # edge\n", 2, ":1: expected 2 fields, got 4"),
        ("1.0 2\n", 2, ":1: not an integer: '1.0 2'"),
        ("0 1\n0 1 2\n", 2, ":2: expected 2 fields, got 3"),
        ("0 1 2\n3 4 5\n", 2, ":1: expected 2 fields, got 3"),
        ("0 1\n", 1, ":1: expected 1 fields, got 2"),
        ("0\t99999999999999999999\n", 2, ":1: integer out of range: '0\\t99999999999999999999'"),
        ("-9223372036854775809 0\n", 2, ":1: integer out of range: '-9223372036854775809 0'"),
    ],
)
def test_parse_int_lines_table(tmp_path, text, n_cols, expected):
    path = tmp_path / "rows.txt"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as info:
            parse_int_lines(path, n_cols)
        assert str(info.value) == f"{path}{expected}"
    else:
        rows = parse_int_lines(path, n_cols)
        assert rows.dtype == np.int64 and rows.shape == (len(expected), n_cols)
        assert np.array_equal(rows, np.asarray(expected, dtype=np.int64).reshape(-1, n_cols))


def test_load_rejects_unknown_features_file(tmp_path):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels)
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    meta["features_file"] = "features.bin"
    (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match="features_file"):
        load_dataset(tmp_path / "d")


def test_load_rejects_out_of_range_edge(tmp_path):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels)
    (tmp_path / "d" / "edges.tsv").write_text("0\t5\n")
    with pytest.raises(ValidationError, match="edges.tsv"):
        load_dataset(tmp_path / "d")


def test_splits_round_trip(tmp_path):
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    labels = np.array([0, 1, 0, 1])
    x = np.zeros((4, 2))
    splits = make_splits(labels, (0.5, 0.25, 0.25), n_splits=2, seed=0)
    save_dataset(tmp_path / "d", g, x, labels, splits=splits)
    _, _, _, loaded = load_dataset(tmp_path / "d")
    assert isinstance(loaded, SplitSet)
    assert len(loaded.splits) == 2
    for (a, b, c), (a2, b2, c2) in zip(splits.splits, loaded.splits):
        assert np.array_equal(a, a2) and np.array_equal(b, b2) and np.array_equal(c, c2)


def test_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    y = rng.standard_normal((10, 4)).astype(np.float32).astype(np.float64)
    save_embeddings_csv(tmp_path / "emb.csv", y)
    y2 = load_embeddings_csv(tmp_path / "emb.csv")
    assert np.array_equal(y, y2)


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    w = rng.standard_normal((5, 3))
    model = AMLPModel(W=w, config=AMLPConfig(k=2, lambda_=0.5, hidden_dim=3, seed=9))
    save_checkpoint(tmp_path / "ckpt", model)
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert np.array_equal(loaded.W, w)
    assert loaded.config == model.config


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        RunConfig.from_dict({"k": 3, "bogus": 1})


def test_run_config_checks_value_types():
    cfg = RunConfig.from_dict({"epsilon": 1, "lambda": [1, 0.5], "output": None})
    assert cfg.epsilon == 1 and cfg.lambda_ == [1, 0.5]
    for raw in ({"k": True}, {"early_stop": 1}, {"hidden_dim": [8, 16]}, {"k": []}):
        with pytest.raises(ValidationError, match=f"config: key '{next(iter(raw))}' must be"):
            RunConfig.from_dict(raw)


def test_run_config_grid_expansion():
    cfg = RunConfig.from_dict({"k": [1, 2], "lambda": [0.1, 1.0], "learning_rate": 1e-3})
    combos = cfg.grid()
    assert len(combos) == 4
    assert cfg.is_grid()
    ks = sorted({c.k for c, _ in combos})
    assert ks == [1, 2]
    single = RunConfig.from_dict({"k": 3})
    assert not single.is_grid()
    assert len(single.grid()) == 1


def test_run_config_json_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": 5, "lambda": 0.01, "epochs": 50}))
    cfg = RunConfig.from_json(path)
    assert cfg.k == 5
    assert cfg.lambda_ == 0.01
    assert cfg.epochs == 50
    assert cfg.as_dict()["lambda"] == 0.01


def test_report_schema_enforced(tmp_path):
    report = make_report(config={"a": 1}, seed=0, metrics={"x": 1.0}, wall_clock_seconds=0.5)
    write_report(tmp_path / "r.json", report)
    parsed = json.loads((tmp_path / "r.json").read_text())
    for key in ("config", "seed", "metrics", "wall_clock_seconds"):
        assert key in parsed
    with pytest.raises(ValidationError):
        write_report(tmp_path / "bad.json", {"config": {}})
