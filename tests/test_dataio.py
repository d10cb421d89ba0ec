import json
import re

import numpy as np
import pytest

from amlp import dataio
from amlp.dataio import (
    FLOAT_FMT,
    RunConfig,
    load_checkpoint,
    load_dataset,
    load_embeddings_csv,
    load_float_csv,
    make_report,
    parse_int_lines,
    save_checkpoint,
    save_dataset,
    save_embeddings_csv,
    write_report,
    write_rows,
)
from amlp.errors import ValidationError
from amlp.graph import build_graph
from amlp.model import AMLPConfig, AMLPModel
from amlp.reconstruct import ReconstructionConfig


def tiny_dataset():
    g = build_graph([(0, 1)], 2)
    x = np.array([[1.5, -2.0], [0.25, 3.0]])
    labels = np.array([0, 1])
    return g, x, labels


def test_round_trip_tiny(tmp_path):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels, name="tiny")
    g2, x2, labels2 = load_dataset(tmp_path / "d")
    assert g2.n_nodes == 2
    assert list(g2.neighbors(0)) == [1]
    assert np.array_equal(x2, x)  # values are exactly float32-representable
    assert np.array_equal(labels2, labels)


def test_round_trip_bit_identical_after_first_save(tmp_path):
    rng = np.random.default_rng(0)
    n = 20
    dense = np.triu(rng.random((n, n)) < 0.2, k=1)
    u, v = np.nonzero(dense)
    g = build_graph(np.column_stack([u, v]), n)
    x = rng.standard_normal((n, 5))
    labels = rng.integers(0, 3, size=n)
    save_dataset(tmp_path / "a", g, x, labels)
    g1, x1, l1 = load_dataset(tmp_path / "a")
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
    _, x2, _ = load_dataset(tmp_path / "d")
    assert np.array_equal(x2, x)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_f32_branch_refuses_non_finite_features(tmp_path, value):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels, features_file="features.f32")
    x[1, 0] = value
    (tmp_path / "d" / "features.f32").write_bytes(x.astype("<f4").tobytes())
    with pytest.raises(ValidationError, match="features.f32: non-finite value .* in row 2$"):
        load_dataset(tmp_path / "d")


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
        ("1_0 2\n", 2, ":1: not an integer: '1_0 2'"),
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
        ("\u0661 2\n", 2, ":1: not an integer: '\u0661 2'"),
        ("0 1\n\uff12 3\n", 2, ":2: not an integer: '\uff12 3'"),
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


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda h: "{not json", "invalid JSON"),
        (lambda h: "[1, 2]", "must be a JSON object"),
        (lambda h: {k: v for k, v in h.items() if k != "weights_file"}, "missing key 'weights_file'"),
        (lambda h: {k: v for k, v in h.items() if k != "d"}, "missing key 'd'"),
        (lambda h: {**h, "config": 3}, "key 'config' must be a JSON object"),
        (lambda h: {**h, "config": {"k": 2}}, "config: missing key 'lambda'"),
        (lambda h: {**h, "config": {**h["config"], "bogus": 1}}, "key 'config'"),
        (lambda h: {**h, "config": {**h["config"], "k": True}},
         "key 'config': key 'k' must be an integer, got true"),
        (lambda h: {**h, "config": {**h["config"], "k": "3"}},
         "key 'config': key 'k' must be an integer, got \"3\""),
        (lambda h: {**h, "config": {**h["config"], "epochs": 2.5}},
         "key 'config': key 'epochs' must be an integer, got 2.5"),
        (lambda h: {**h, "config": {**h["config"], "learning_rate": 10**400}},
         "key 'config': key 'learning_rate' must be a number"),
        (lambda h: {**h, "config": {**h["config"], "k": 0}}, "key 'config': k must be >= 1"),
        (lambda h: {**h, "config": {**h["config"], "hidden_dim": 7}},
         "config hidden_dim 7 does not match c = 3"),
        (lambda h: {**h, "weights_file": 5}, "key 'weights_file' must be a string, got 5"),
        (lambda h: {**h, "weights_file": "nope.csv"}, "is not a file"),
        (lambda h: {**h, "weights_file": "."}, "is not a file"),
        (lambda h: {**h, "d": -2}, "key 'd' must be an integer >= 0, got -2"),
        (lambda h: {**h, "c": 3.0}, "key 'c' must be an integer >= 0, got 3.0"),
    ],
)
def test_checkpoint_header_errors_name_file_and_key(tmp_path, edit, named):
    model = AMLPModel(W=np.ones((2, 3)), config=AMLPConfig(hidden_dim=3))
    save_checkpoint(tmp_path / "ckpt", model)
    header_path = tmp_path / "ckpt" / "checkpoint.json"
    header = edit(json.loads(header_path.read_text()))
    header_path.write_text(header if isinstance(header, str) else json.dumps(header))
    with pytest.raises(ValidationError) as info:
        load_checkpoint(tmp_path / "ckpt")
    assert str(header_path) in str(info.value) and named in str(info.value)


@pytest.mark.parametrize(
    "text, named",
    [("1,2,3\nnan,0,0\n", ":2: non-finite"), ("1,2,3\n4,5,6,7\n", ":2: expected 3 fields")],
)
def test_checkpoint_refuses_bad_weights_at_their_line(tmp_path, text, named):
    model = AMLPModel(W=np.ones((2, 3)), config=AMLPConfig(hidden_dim=3))
    save_checkpoint(tmp_path / "ckpt", model)
    weights = tmp_path / "ckpt" / "weights.csv"
    weights.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(weights))}{named}"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("reader", [load_float_csv, load_embeddings_csv])
@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,2\n3,4\n", [[1, 2], [3, 4]]),
        ("# c\n\n1,2 # c\r\n3,4\r5,6\r", [[1, 2], [3, 4], [5, 6]]),
        (" 1 ,\t2\n", [[1, 2]]),
        ("# header\n\n1,x\n", ":3: malformed float row"),
        ("1,2\n\n3,4,5\n", ":3: expected 2 fields, got 3"),
        ("1,2\n # a data line\n", ":2: malformed float row"),
        ("1,2\n\t\n3,4\n", ":2: malformed float row"),
        ("1,2,\n", ":1: malformed float row"),
        ("1_0,2\n", ":1: malformed float row"),
        ("1,2\r3,x\r", ":2: malformed float row"),
        ("1,2\n# c\n\nnan,1\n", ":4: non-finite value"),
        ("1,2\n-inf,1\n", ":2: non-finite value"),
        (b"1,2\n# \xff\n", ":2: not UTF-8 text"),
        (b"1,2\r\xc3,1\n", ":2: not UTF-8 text"),
    ],
)
def test_float_readers_refuse_a_row_at_its_line(tmp_path, reader, text, expected):
    """Both float readers count lines as np.loadtxt does (blank and '#'
    lines hold no row, and LF, CR LF and a lone CR each end a line) and
    name the line of the first row they refuse."""
    path = tmp_path / "rows.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as info:
            reader(path)
        assert str(info.value).startswith(f"{path}{expected}"), str(info.value)
    else:
        assert np.array_equal(reader(path), expected)


def test_float32_range_is_checked_for_features_and_embeddings(tmp_path):
    """A finite float64 beyond the float32 range is refused where the file is
    float32 at rest, and kept by the plain float reader."""
    emb = tmp_path / "emb.csv"
    emb.write_text("0.5,0.25\n\n0.5,-1e39\n")
    assert load_float_csv(emb)[1, 1] == -1e39
    with pytest.raises(ValidationError, match=f"^{re.escape(str(emb))}:3: non-finite value"):
        load_embeddings_csv(emb)
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels)
    (tmp_path / "d" / "features.csv").write_text("1.5,-2\n3.5e38,3\n")
    with pytest.raises(ValidationError, match="features.csv:2: non-finite value"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("name", ["meta.json", "labels.csv", "edges.tsv", "features.csv"])
def test_dataset_files_that_are_not_utf8_are_refused_at_their_line(tmp_path, name):
    g, x, labels = tiny_dataset()
    save_dataset(tmp_path / "d", g, x, labels)
    path = tmp_path / "d" / name
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: not UTF-8 text$"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"k": 1' + "0" * 5000 + "}", "invalid JSON"),
        ("[" * 100_000 + "]" * 100_000, "invalid JSON"),
        ('{"k": 3}\n\xff', ":2: not UTF-8 text"),
        ('{"learning_rate": 1' + "0" * 400 + "}", "key 'learning_rate' must be a number"),
    ],
    ids=["int-of-5001-digits", "nested-100000-deep", "not-utf8", "learning-rate-huge-int"],
)
def test_run_config_json_edge_cases_are_validation_errors(tmp_path, text, named):
    path = tmp_path / "cfg.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ValidationError) as info:
        RunConfig.from_json(path)
    assert str(info.value).startswith(str(path)) and named in str(info.value)


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


def test_run_config_defaults_are_the_config_defaults():
    """RunConfig retypes the defaults of AMLPConfig and ReconstructionConfig;
    its default grid is their defaults."""
    assert RunConfig().grid() == [(AMLPConfig(), ReconstructionConfig())]


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


# ---------------------------------------------------------------------------
# Writers: the chunked writers give the bytes of the per-value loops
# ---------------------------------------------------------------------------

# -0.0, tiny and huge magnitudes, float32 subnormals and integral floats
SPECIAL_VALUES = [
    -0.0, 0.0, 1e-30, -1e-30, 3.4e38, -3.4e38, 1e-40, 1.4e-45, -1e-45,
    1.0, -2.0, 16777216.0, 123456.0, 0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308,
]


def reference_dataset_files(graph, x, labels):
    """edges.tsv, features.csv and labels.csv as the per-value loops wrote them."""
    edges = "".join(f"{u}\t{v}\n" for u, v in graph.edge_array())
    features = "".join(
        ",".join(FLOAT_FMT % val for val in row) + "\n" for row in x.astype(np.float32)
    )
    lines = "".join(f"{lab}\n" for lab in labels)
    return {"edges.tsv": edges, "features.csv": features, "labels.csv": lines}


def special_matrix(n, d, seed, float32):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    pool = np.array([v for v in SPECIAL_VALUES if not float32 or abs(v) < 3.5e38])
    x.flat[rng.choice(x.size, min(x.size, 3 * pool.size), replace=False)] = np.resize(
        pool, min(x.size, 3 * pool.size)
    )
    return x


@pytest.mark.parametrize("cells", [1, 5, 1 << 17])
@pytest.mark.parametrize("n_edges", [0, 1, 40])
def test_save_dataset_bytes_match_per_value_loops(tmp_path, monkeypatch, cells, n_edges):
    monkeypatch.setattr(dataio, "_FORMAT_CELLS", cells)
    rng = np.random.default_rng(n_edges)
    n = 30
    edges = rng.integers(0, n, size=(n_edges, 2))
    g = build_graph(edges, n)
    x = special_matrix(n, 7, seed=cells, float32=True)
    labels = rng.integers(-1, 4, size=n)
    save_dataset(tmp_path / "d", g, x, labels)
    for name, text in reference_dataset_files(g, x, labels).items():
        assert (tmp_path / "d" / name).read_text() == text, name


@pytest.mark.parametrize("cells", [1, 5, 1 << 17])
def test_embedding_and_weight_bytes_match_per_value_loops(tmp_path, monkeypatch, cells):
    monkeypatch.setattr(dataio, "_FORMAT_CELLS", cells)
    y = special_matrix(12, 5, seed=1, float32=True)
    save_embeddings_csv(tmp_path / "emb.csv", y)
    want = "".join(
        ",".join(FLOAT_FMT % val for val in row) + "\n" for row in y.astype(np.float32)
    )
    assert (tmp_path / "emb.csv").read_text() == want
    w = special_matrix(6, 4, seed=2, float32=False)
    save_checkpoint(tmp_path / "ckpt", AMLPModel(W=w, config=AMLPConfig(hidden_dim=4)))
    want = "".join(",".join("%.17g" % val for val in row) + "\n" for row in w)
    assert (tmp_path / "ckpt" / "weights.csv").read_text() == want


@pytest.mark.parametrize("cells", [1 << 10, None])
def test_embedding_writer_memory_is_one_chunk(tmp_path, monkeypatch, traced_peak, cells):
    # a chunk's Python floats, their list and tuple and its text: about 50
    # bytes a value; the float64 embedding train writes adds its float32 copy
    if cells is not None:
        monkeypatch.setattr(dataio, "_FORMAT_CELLS", cells)
    y = np.random.default_rng(0).standard_normal((4000, 64))
    y32 = y.astype(np.float32)
    chunk = 64 * dataio._FORMAT_CELLS + (1 << 16)
    _, peak = traced_peak(lambda: save_embeddings_csv(tmp_path / "e32.csv", y32))
    assert peak < min(chunk, y32.nbytes)
    _, peak = traced_peak(lambda: save_embeddings_csv(tmp_path / "e64.csv", y))
    assert peak < y32.nbytes + chunk
    assert (tmp_path / "e32.csv").read_bytes() == (tmp_path / "e64.csv").read_bytes()


def test_edge_weight_rows_match_per_value_loop(tmp_path):
    # the layout amlp reconstruct --soft writes: integral endpoints, float weight
    rng = np.random.default_rng(3)
    u = np.array([0, 1, 2, 5, 70_000, 2**31 + 7] * 3)
    v = u + rng.integers(1, 100, size=u.size)
    w = np.resize(np.array(SPECIAL_VALUES), u.size)
    with open(tmp_path / "w.tsv", "w") as f:
        write_rows(f, "%d\t%d\t%.9g\n", np.column_stack([u, v, w]))
    want = "".join(f"{a}\t{b}\t{c:.9g}\n" for a, b, c in zip(u, v, w))
    assert (tmp_path / "w.tsv").read_text() == want
