"""Property tests of the file readers: whatever a file holds, each reader
returns or raises ValidationError, never another exception. The examples
are derandomized and bounded, so the tests are deterministic and quick."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from amlp.dataio import (  # noqa: E402
    RunConfig,
    load_checkpoint,
    load_embeddings_csv,
    load_float_csv,
    load_meta,
    parse_int_lines,
    save_checkpoint,
)
from amlp.errors import ValidationError  # noqa: E402
from amlp.model import AMLPConfig, AMLPModel, config_keys  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)

# pieces of numeric text, line endings, comments and bytes that are not UTF-8
PIECES = [
    b"0", b"1", b"7", b"-", b"+", b".", b"e", b",", b" ", b"\t", b"\n", b"\r", b"#", b"_",
    b"nan", b"inf", b"1e39", b"99999999999999999999", b"\x00", b"\x0c", b"\xff", b"\xc3",
    b"\xc3\xa9",
]
FILE_BYTES = st.one_of(
    st.binary(max_size=40), st.lists(st.sampled_from(PIECES), max_size=30).map(b"".join)
)
# an explicit alphabet spares Hypothesis building its Unicode tables (about 2 s)
JSON_TEXT = st.text("ak_.\"\\/\x00\u00e9\U0001f600", max_size=8) | st.sampled_from(
    ["weights.csv", "checkpoint.json", ".", "lambda", "k"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=6,
)


def overrides(keys):
    """Dicts that set some of ``keys`` (and an unknown key) to any JSON value."""
    return st.dictionaries(st.sampled_from([*keys, "bogus"]), JSON_VALUES, max_size=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def returns_or_refuses(read, *args):
    try:
        read(*args)
    except ValidationError:
        pass


@FUZZ
@given(data=FILE_BYTES, n_cols=st.integers(1, 3))
def test_parse_int_lines_returns_or_refuses(workdir, data, n_cols):
    path = workdir / "rows.txt"
    path.write_bytes(data)
    returns_or_refuses(parse_int_lines, path, n_cols)


@FUZZ
@given(data=FILE_BYTES)
@pytest.mark.parametrize("read", [load_float_csv, load_embeddings_csv])
def test_float_readers_return_or_refuse(workdir, read, data):
    path = workdir / "rows.csv"
    path.write_bytes(data)
    returns_or_refuses(read, path)


@FUZZ
@given(doc=JSON_VALUES | overrides(config_keys(RunConfig)))
def test_run_config_from_json_returns_or_refuses(workdir, doc):
    path = workdir / "config.json"
    path.write_text(json.dumps(doc))
    returns_or_refuses(RunConfig.from_json, path)


META = {"name": "d", "num_nodes": 2, "num_features": 1, "num_classes": 1,
        "features_file": "features.csv"}


@FUZZ
@given(doc=JSON_VALUES | overrides(META).map(lambda o: {**META, **o}))
def test_load_meta_returns_or_refuses(workdir, doc):
    (workdir / "meta.json").write_text(json.dumps(doc))
    returns_or_refuses(load_meta, workdir)


@FUZZ
@given(
    header=overrides(["d", "c", "config", "weights_file", "seed"]),
    config=overrides(config_keys(AMLPConfig)),
)
def test_load_checkpoint_returns_or_refuses(workdir, header, config):
    """A saved checkpoint whose header, or the config in it, has some keys
    set to any JSON value."""
    ckpt = workdir / "ckpt"
    save_checkpoint(ckpt, AMLPModel(W=np.ones((2, 3)), config=AMLPConfig(hidden_dim=3)))
    path = ckpt / "checkpoint.json"
    saved = json.loads(path.read_text())
    path.write_text(json.dumps({**saved, "config": {**saved["config"], **config}, **header}))
    returns_or_refuses(load_checkpoint, ckpt)
