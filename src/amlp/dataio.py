"""Dataset directory format, run configuration, checkpoints and reports.

A dataset directory contains:

    meta.json      {"name", "num_nodes", "num_features", "num_classes",
                    "features_file"}
    edges.tsv      one undirected edge per line, "u<TAB>v" with u < v
    features.csv   N rows of comma-separated floats (9 significant digits), or
    features.f32   N*d little-endian float32, row-major
    labels.csv     one integer per line, -1 = unlabeled

Features are stored at single precision; 9 significant decimal digits
round-trip float32 exactly, so save -> load -> save is byte-stable, and each
writer refuses before writing what its reader would: a label below -1, a NaN,
an infinity, or a feature or embedding beyond the float32 range.

Every file is read by one reader per kind: _lines (numbered lines of UTF-8
text), load_float_csv (float matrices; malformed, ragged and non-finite rows
are refused at their line) and _read_json_object (JSON objects, whose values
_check_config_value checks). load_dataset and ``amlp prep`` read each part
with one reader that names its file in any refusal: read_labels (integers
>= -1), read_edges (as build_graph) and read_features_csv (float32 at rest).
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import typing
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .evaluate import KMEANS_RESTARTS
from .graph import SparseGraph, build_graph, check_features, check_labels
from .model import AMLPConfig, AMLPModel, config_as_dict, config_keys
from .reconstruct import ReconstructionConfig

META_FILE = "meta.json"
FLOAT_FMT = "%.9g"
# values formatted per % operation in write_rows: bounds the Python objects
# a chunk creates (256 rows of 64 values, 2^13 edges)
_FORMAT_CELLS = 1 << 14
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# an integer field as np.loadtxt reads one: int() also takes digit-grouping
# underscores and non-ASCII digits
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
# the declared type of a JSON integer >= 0, such as a node count
_Count = typing.NewType("_Count", int)

_META_TYPES = {
    "name": str,
    "num_nodes": _Count,
    "num_features": _Count,
    "num_classes": _Count,
    "features_file": str,
}

_CHECKPOINT_TYPES = {"d": _Count, "c": _Count, "config": dict, "weights_file": str}

_TYPE_NAMES = {
    _Count: "an integer >= 0",
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    dict: "a JSON object",
    type(None): "null",
}


def _is_json_type(value, t) -> bool:
    """A JSON value against a declared scalar type: bool is not an integer,
    and an integer within the float range is accepted where a float is
    declared."""
    if isinstance(value, bool):
        return t is bool
    if t is _Count:
        return isinstance(value, int) and value >= 0
    if t is float:
        return isinstance(value, float) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max
        )
    return isinstance(value, t)


def _check_config_value(source, key: str, value, hint) -> None:
    """Raise ValidationError unless ``value`` has the type ``hint`` declares.
    A hint that includes ``list`` also accepts a non-empty list whose
    elements have one of the hint's other types (the grid keys)."""
    allowed = typing.get_args(hint) or (hint,)
    scalars = tuple(t for t in allowed if t is not list)
    if list in allowed and isinstance(value, list):
        if value and all(any(_is_json_type(v, t) for t in scalars) for v in value):
            return
    elif any(_is_json_type(value, t) for t in scalars):
        return
    expected = " or ".join(_TYPE_NAMES[t] for t in scalars)
    if list in allowed:
        expected += ", or a non-empty list of them"
    raise ValidationError(
        f"{source}: key {key!r} must be {expected}, got {json.dumps(value)}"
    )


def _read_config(cls, raw: dict, source):
    """An instance of the config dataclass ``cls`` from parsed JSON: every key
    is the JSON key of one of its fields and every value has that field's
    declared type. ``source`` prefixes each error."""
    names = config_keys(cls)
    unknown = set(raw) - set(names)
    if unknown:
        raise ValidationError(f"{source}: unknown config keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        _check_config_value(source, key, value, hints[names[key]])
    try:
        return cls(**{names[key]: value for key, value in raw.items()})
    except ValidationError as e:
        raise ValidationError(f"{source}: {e}") from e


@dataclass
class RunConfig:
    """Flat bag of pipeline settings; the grid keys, whose declared type
    admits a list, may be lists, in which case the trainer runs the grid. The
    fields that AMLPConfig or ReconstructionConfig also declare take their
    defaults from there. ``output`` is accepted and echoed in report.json,
    but no code reads it: ``train --out`` names the run directory."""

    k: int | list = AMLPConfig.k
    lambda_: float | list = AMLPConfig.lambda_
    hidden_dim: int = AMLPConfig.hidden_dim
    learning_rate: float | list = AMLPConfig.learning_rate
    epochs: int = AMLPConfig.epochs
    seed: int = AMLPConfig.seed
    eps_norm: float = AMLPConfig.eps_norm
    early_stop: bool = AMLPConfig.early_stop
    epsilon: float = ReconstructionConfig.epsilon
    candidate_policy: str = ReconstructionConfig.candidate_policy
    mode: str = ReconstructionConfig.mode
    steepness: float = ReconstructionConfig.steepness
    kmeans_restarts: int = KMEANS_RESTARTS
    n_seeds: int = 1
    output: str | None = None

    def __post_init__(self):
        for key in ("n_seeds", "kmeans_restarts"):
            if getattr(self, key) < 1:
                raise ValidationError(
                    f"key {key!r} must be >= 1, got {getattr(self, key)}"
                )

    @classmethod
    def from_dict(cls, raw: dict, source="config") -> "RunConfig":
        """Settings from parsed JSON; every value must have its declared type,
        and ``source`` (the file) prefixes the error naming a bad key."""
        return _read_config(cls, raw, source)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(_read_json_object(Path(path)), source=path)

    def as_dict(self) -> dict:
        return config_as_dict(self)

    def _shared(self, cls) -> dict:
        """This config's values of the fields that ``cls`` also declares."""
        mine = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name in mine}

    @classmethod
    def grid_axes(cls) -> dict:
        """Name -> scalar type of each grid key: each field whose declared
        type admits a list, in declaration order."""
        hints = {name: typing.get_args(t) for name, t in typing.get_type_hints(cls).items()}
        return {name: args[0] for name, args in hints.items() if list in args}

    @classmethod
    def echo(cls, cfg, names=None) -> dict:
        """The fields of ``cfg`` named in ``names``, by default those RunConfig
        declares, under their JSON keys: what a report repeats of ``cfg``."""
        names = names or config_keys(cls).values()
        return {k: getattr(cfg, n) for k, n in config_keys(type(cfg)).items() if n in names}

    def grid(self) -> list[tuple["AMLPConfig", "ReconstructionConfig"]]:
        """Expand list-valued keys into the cartesian product of settings,
        each value cast to its key's scalar type: an integer learning rate in
        JSON stays a float (1.0) in checkpoint.json."""
        axes = self.grid_axes()
        values = [getattr(self, name) for name in axes]
        lists = [v if isinstance(v, (list, tuple)) else [v] for v in values]
        amlp = self._shared(AMLPConfig)
        recon = self._shared(ReconstructionConfig)
        return [
            (
                AMLPConfig(**{**amlp, **{n: t(v) for (n, t), v in zip(axes.items(), combo)}}),
                ReconstructionConfig(**recon),
            )
            for combo in itertools.product(*lists)
        ]

    def is_grid(self) -> bool:
        return any(isinstance(getattr(self, name), (list, tuple)) for name in self.grid_axes())


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------


def save_dataset(
    path,
    graph: SparseGraph,
    x: np.ndarray,
    labels: np.ndarray,
    name: str = "dataset",
    features_file: str = "features.csv",
) -> None:
    """Write a dataset directory (see module docstring for the layout)."""
    if features_file not in ("features.csv", "features.f32"):
        raise ValidationError("features_file must be features.csv or features.f32")
    x32 = _float32(check_features(x, graph.n_nodes))
    _refuse_unwritable(x32, "feature row {}: beyond the float32 range")
    labels = check_labels(labels, graph.n_nodes)
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": name,
        "num_nodes": graph.n_nodes,
        "num_features": int(x32.shape[1]),
        "num_classes": num_classes,
        "features_file": features_file,
    }
    (path / META_FILE).write_text(json.dumps(meta, indent=2) + "\n")
    with open(path / "edges.tsv", "w") as f:
        write_rows(f, "%d\t%d\n", graph.edge_array())
    if features_file == "features.csv":
        with open(path / "features.csv", "w") as f:
            write_rows(f, _row_format(FLOAT_FMT, x32.shape[1]), x32)
    else:
        (path / "features.f32").write_bytes(x32.astype("<f4").tobytes(order="C"))
    with open(path / "labels.csv", "w") as f:
        write_rows(f, "%d\n", labels[:, None])


def _row_format(fmt: str, width: int) -> str:
    """A CSV line of ``width`` values, each formatted by ``fmt``."""
    return ",".join([fmt] * width) + "\n"


def write_rows(f, line_fmt: str, table: np.ndarray) -> None:
    """Write one line per row of the 2-D ``table``, ``line_fmt % tuple(row)``.

    A chunk of rows is formatted by one ``%`` operation, which gives the same
    text as formatting each value on its own; chunks hold about
    _FORMAT_CELLS values.
    """
    rows = max(1, _FORMAT_CELLS // max(1, table.shape[1]))
    for lo in range(0, table.shape[0], rows):
        chunk = table[lo : lo + rows]
        f.write((line_fmt * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _lines(path):
    """(line number, text) of each line of the file at ``path``, without its
    line ending. Lines are split as a text-mode file, and so np.loadtxt,
    splits them: LF, CR LF and a lone CR each end one. A line that is not
    UTF-8 is refused at its number."""
    # an undecodable byte becomes a lone surrogate, which does not encode
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.encode()
            except UnicodeEncodeError:
                raise ValidationError(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line.rstrip("\n")


def parse_int_lines(path, n_cols: int) -> np.ndarray:
    """Whitespace-separated integer rows; errors carry file and line number."""
    path = Path(path)
    try:
        with warnings.catch_warnings():
            # an empty file warns instead of raising
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None)
        if rows.shape[1] == n_cols:
            return rows
    except (ValueError, Warning):
        pass
    # slow path: the judge of what is accepted, and of what the error says
    rows = []
    for lineno, line in _lines(path):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != n_cols:
            raise ValidationError(
                f"{path}:{lineno}: expected {n_cols} fields, got {len(parts)}"
            )
        if not all(_INT_FIELD.fullmatch(p) for p in parts):
            raise ValidationError(f"{path}:{lineno}: not an integer: {line!r}")
        row = [int(p) for p in parts]
        if not all(_INT64_MIN <= i <= _INT64_MAX for i in row):
            raise ValidationError(f"{path}:{lineno}: integer out of range: {line!r}")
        rows.append(row)
    return np.asarray(rows, dtype=np.int64).reshape(-1, n_cols)


def _csv_rows(path):
    """(line number, text before any '#') of each line of the file at
    ``path`` that holds a row as np.loadtxt reads it: a line that is empty
    before its '#' holds none."""
    for lineno, line in _lines(path):
        text = line.split("#", 1)[0]
        if text:
            yield lineno, text


def _is_float_field(field: str) -> bool:
    """Whether np.loadtxt reads ``field`` as a float: float() does, and it is
    ASCII without the digit-grouping underscores that float() allows."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and "_" not in field


def _refuse_non_finite(path, x: np.ndarray, what: str) -> None:
    """Refuse, at its line, the first row of ``x``, the rows of the file at
    ``path``, that holds a NaN or an infinity."""
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        lineno = next(itertools.islice(_csv_rows(path), int(bad.argmax()), None))[0]
        raise ValidationError(f"{path}:{lineno}: {what}")


def load_float_csv(path) -> np.ndarray:
    """Comma-separated float rows as float64, read as np.loadtxt reads them:
    '#' starts a comment and a line empty before it holds no row. A
    malformed, ragged or non-finite row is refused at its line."""
    path = Path(path)
    try:
        with warnings.catch_warnings():
            # a file with no rows warns; it loads as a (0, 1) matrix
            warnings.simplefilter("ignore", UserWarning)
            x = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as e:
        # slow path only to point at the offending line
        width = None
        for lineno, text in _csv_rows(path):
            parts = text.split(",")
            if not all(_is_float_field(p) for p in parts):
                raise ValidationError(f"{path}:{lineno}: malformed float row")
            if width is not None and len(parts) != width:
                raise ValidationError(
                    f"{path}:{lineno}: expected {width} fields, got {len(parts)}"
                )
            width = len(parts)
        raise ValidationError(f"{path}: malformed float CSV ({e})") from e
    _refuse_non_finite(path, x, "non-finite value (NaN or inf)")
    return x


def _float32(x: np.ndarray) -> np.ndarray:
    """``x`` at float32, the precision of features and embeddings at rest (no
    copy if it is); a value beyond its range becomes inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float32)


def _refuse_unwritable(x: np.ndarray, message: str) -> None:
    """Refuse, as ``message`` formatted with its 1-based index, the first row
    of the 2-D ``x``, as a writer would store it, that holds a NaN or an
    infinity, which the file's reader would refuse. A row is checked by its
    extremes, so no array of x's shape is made."""
    hi, lo = x.max(axis=1, initial=0), x.min(axis=1, initial=0)
    bad = ~(np.isfinite(hi) & np.isfinite(lo))
    if bad.any():
        raise ValidationError(message.format(int(bad.argmax()) + 1))


def read_features_csv(path, n_nodes: int | None = None, n_features: int | None = None):
    """The float CSV at ``path``, ``n_nodes`` rows of ``n_features`` values
    where given, as load_float_csv reads it, rounded to float32 and promoted
    back: the 9-digit text identifies the float32 value. A value beyond the
    float32 range is refused at its line."""
    x = load_float_csv(path)
    if n_nodes is not None and x.shape[0] != n_nodes:
        raise ValidationError(f"{path}: {x.shape[0]} rows, dataset has {n_nodes} nodes")
    if n_features is not None and x.shape[1] != n_features:
        raise ValidationError(f"{path}: {x.shape[1]} columns, expected {n_features}")
    x32 = _float32(x)
    _refuse_non_finite(path, x32, "non-finite value (beyond the float32 range)")
    return x32.astype(np.float64)


def read_labels(path, n_nodes: int | None = None) -> np.ndarray:
    """The labels file at ``path``: one integer >= -1 a line, -1 meaning
    unlabeled, and ``n_nodes`` of them where given. The count is checked
    first, so that it bounds a node count before anything is sized by it."""
    labels = parse_int_lines(path, 1).ravel()
    if n_nodes is not None and labels.size != n_nodes:
        raise ValidationError(f"{path}: {labels.size} labels, expected {n_nodes}")
    try:
        return check_labels(labels)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e


def read_edges(path, n_nodes: int) -> SparseGraph:
    """The graph on ``n_nodes`` nodes of the edge list at ``path``: one
    whitespace-separated pair of node ids a line, as build_graph takes them."""
    edges = parse_int_lines(path, 2)
    try:
        return build_graph(edges, n_nodes)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e


def load_labels(path, meta: dict | None = None):
    """Read the labels of a dataset directory without its graph or features.

    Returns (meta, labels), checked as ``load_dataset`` checks them.
    ``meta``, if given, is the directory's meta.json as ``load_meta``
    returned it, which is then not read again.
    """
    path = Path(path)
    if meta is None:
        meta = _read_meta(path / META_FILE)
    labels = read_labels(path / "labels.csv", meta["num_nodes"])
    if (labels >= 0).any() and labels.max() >= max(meta["num_classes"], 1):
        raise ValidationError(
            f"{path / 'labels.csv'}: label {labels.max()} exceeds num_classes "
            f"{meta['num_classes']}"
        )
    return meta, labels


def load_dataset(path, meta: dict | None = None):
    """Load and validate a dataset directory.

    Returns (SparseGraph, features, labels). Counts are checked against
    meta.json, which is read unless ``meta`` gives it as ``load_meta``
    returned it; malformed lines are reported with file and line number.
    """
    path = Path(path)
    meta, labels = load_labels(path, meta)
    n, d = meta["num_nodes"], meta["num_features"]
    graph = read_edges(path / "edges.tsv", n)
    feat_file = meta["features_file"]
    if feat_file == "features.csv":
        x = read_features_csv(path / "features.csv", n, d)
    elif feat_file == "features.f32":
        raw = (path / "features.f32").read_bytes()
        if len(raw) != 4 * n * d:
            raise ValidationError(
                f"{path / 'features.f32'}: {len(raw)} bytes, expected {4 * n * d}"
            )
        x = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(n, d)
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            raise ValidationError(
                f"{path / 'features.f32'}: non-finite value (NaN or inf) in row "
                f"{int(bad.argmax()) + 1}"
            )
    else:
        raise ValidationError(f"{path / META_FILE}: unknown features_file {feat_file!r}")
    return graph, x, labels


def _read_json_object(path: Path) -> dict:
    """The JSON object in the file at ``path``."""
    text = "\n".join(line for _, line in _lines(path))
    # besides bad JSON, a ValueError is an integer past Python's 4300-digit
    # limit, and a RecursionError a nesting too deep to parse
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ValidationError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: must be a JSON object")
    return raw


def _require_keys(path: Path, raw: dict, keys, where: str = "") -> None:
    for key in keys:
        if key not in raw:
            raise ValidationError(f"{path}: {where}missing key {key!r}")


def _read_typed(path: Path, raw: dict, types: dict) -> dict:
    """``raw``, read from ``path``, with every key of ``types`` present and
    of its type there."""
    _require_keys(path, raw, types)
    for key, t in types.items():
        _check_config_value(path, key, raw[key], t)
    return raw


def load_meta(path) -> dict:
    return _read_meta(Path(path) / META_FILE)


def _read_meta(path: Path) -> dict:
    """meta.json, its values typed as _META_TYPES declares."""
    if not path.is_file():
        raise ValidationError(f"{path}: missing")
    return _read_typed(path, _read_json_object(path), _META_TYPES)


# ---------------------------------------------------------------------------
# Embeddings, checkpoints, reports
# ---------------------------------------------------------------------------


def save_embeddings_csv(path, y_hat: np.ndarray) -> None:
    """N x c CSV at 9 significant digits (float32 at rest, like features)."""
    y32 = _float32(y_hat)
    _refuse_unwritable(y32, "embedding row {}: NaN, infinity or beyond the float32 range")
    with open(path, "w") as f:
        write_rows(f, _row_format(FLOAT_FMT, y32.shape[1]), y32)


def load_embeddings_csv(path, n_nodes: int | None = None) -> np.ndarray:
    """N x c embeddings, ``n_nodes`` rows where given, read as a features
    CSV is: float32 at rest, a malformed row or a value beyond the float32
    range refused at its line."""
    return read_features_csv(path, n_nodes)


def save_checkpoint(dir_path, model: AMLPModel) -> None:
    """JSON header (dimensions, config, seed) plus the weights as CSV.

    Weights use 17 significant digits so a reload restores the exact float64
    matrix.
    """
    _refuse_unwritable(model.W, "weight row {}: non-finite value")
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    d, c = model.W.shape
    header = {
        "d": d,
        "c": c,
        "config": model.config.as_dict(),
        "seed": model.config.seed,
        "weights_file": "weights.csv",
    }
    (dir_path / "checkpoint.json").write_text(json.dumps(header, indent=2) + "\n")
    with open(dir_path / "weights.csv", "w") as f:
        write_rows(f, _row_format("%.17g", c), model.W)


def load_checkpoint(dir_path) -> AMLPModel:
    """The model save_checkpoint wrote. The header's values are typed as
    _CHECKPOINT_TYPES declares, its config is read as a run config is (with
    'lambda' required), and the weights are a (d, c) float CSV whose c is
    the config's hidden_dim."""
    dir_path = Path(dir_path)
    header_path = dir_path / "checkpoint.json"
    header = _read_typed(header_path, _read_json_object(header_path), _CHECKPOINT_TYPES)
    _require_keys(header_path, header["config"], ("lambda",), "config: ")
    cfg = _read_config(AMLPConfig, header["config"], f"{header_path}: key 'config'")
    d, c = header["d"], header["c"]
    if cfg.hidden_dim != c:
        raise ValidationError(
            f"{header_path}: config hidden_dim {cfg.hidden_dim} does not match c = {c}"
        )
    weights = dir_path / header["weights_file"]
    if not weights.is_file():
        raise ValidationError(f"{header_path}: weights_file {weights} is not a file")
    w = load_float_csv(weights)
    if w.shape != (d, c):
        raise ValidationError(
            f"{weights}: weight shape {w.shape} does not match header ({d}, {c})"
        )
    return AMLPModel(W=w, config=cfg)


def make_report(config: dict, seed, metrics: dict, wall_clock_seconds: float, **extra) -> dict:
    """Schema for every JSON run report: config echo, seed, metrics, wall-clock."""
    report = {
        "config": config,
        "seed": seed,
        "metrics": metrics,
        "wall_clock_seconds": wall_clock_seconds,
    }
    report.update(extra)
    return report


def write_report(path, report: dict) -> None:
    for key in ("config", "seed", "metrics", "wall_clock_seconds"):
        if key not in report:
            raise ValidationError(f"report missing schema key {key!r}")
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
