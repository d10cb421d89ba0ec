"""Dataset directory format, run configuration, checkpoints and reports.

A dataset directory contains:

    meta.json      {"name", "num_nodes", "num_features", "num_classes",
                    "features_file"}
    edges.tsv      one undirected edge per line, "u<TAB>v" with u < v
    features.csv   N rows of comma-separated floats (9 significant digits), or
    features.f32   N*d little-endian float32, row-major
    labels.csv     one integer per line, -1 = unlabeled
    splits.json    optional {"ratios": [...], "splits": [{"train": ...}, ...]}

Features are stored at single precision; 9 significant decimal digits
round-trip float32 exactly, so save -> load -> save is byte-stable.
"""

from __future__ import annotations

import itertools
import json
import typing
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .evaluate import SplitSet
from .graph import SparseGraph, build_graph, check_features, check_labels
from .model import AMLPConfig, AMLPModel, config_as_dict, config_keys
from .reconstruct import ReconstructionConfig

META_FILE = "meta.json"
FLOAT_FMT = "%.9g"
# values formatted per % operation in write_rows: bounds the Python objects
# a chunk creates (about 2^16 edges)
_FORMAT_CELLS = 1 << 17
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

_META_TYPES = {
    "name": str,
    "num_nodes": int,
    "num_features": int,
    "num_classes": int,
    "features_file": str,
}

_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    type(None): "null",
}


def _is_json_type(value, t) -> bool:
    """A JSON value against a declared scalar type: bool is not an integer,
    and an integer is accepted where a float is declared."""
    if isinstance(value, bool):
        return t is bool
    if t is float:
        return isinstance(value, (int, float))
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


@dataclass
class RunConfig:
    """Flat bag of pipeline settings; k / lambda / learning_rate may be lists,
    in which case the trainer runs the grid."""

    k: int | list = 3
    lambda_: float | list = 0.1
    hidden_dim: int = 500
    learning_rate: float | list = 1e-3
    epochs: int = 200
    seed: int = 0
    eps_norm: float = 1e-12
    early_stop: bool = False
    epsilon: float = 0.001
    candidate_policy: str = "original_edges"
    mode: str = "hard"
    steepness: float = 100.0
    kmeans_restarts: int = 10
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

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}: invalid JSON ({e})") from e
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw, source=path)

    def as_dict(self) -> dict:
        return config_as_dict(self)

    def _shared(self, cls) -> dict:
        """This config's values of the fields that ``cls`` also declares."""
        mine = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name in mine}

    def grid(self) -> list[tuple["AMLPConfig", "ReconstructionConfig"]]:
        """Expand list-valued keys into the cartesian product of settings."""
        def as_list(v):
            return list(v) if isinstance(v, (list, tuple)) else [v]

        # the casts keep an integer learning rate in JSON a float (1.0) in
        # checkpoint.json
        amlp = self._shared(AMLPConfig)
        recon = self._shared(ReconstructionConfig)
        return [
            (
                AMLPConfig(
                    **{**amlp, "k": int(k), "lambda_": float(lam), "learning_rate": float(lr)}
                ),
                ReconstructionConfig(**recon),
            )
            for k, lam, lr in itertools.product(
                as_list(self.k), as_list(self.lambda_), as_list(self.learning_rate)
            )
        ]

    def is_grid(self) -> bool:
        return any(isinstance(getattr(self, a), (list, tuple)) for a in ("k", "lambda_", "learning_rate"))


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
    splits: SplitSet | None = None,
) -> None:
    """Write a dataset directory (see module docstring for the layout)."""
    if features_file not in ("features.csv", "features.f32"):
        raise ValidationError("features_file must be features.csv or features.f32")
    x = check_features(x, graph.n_nodes)
    labels = check_labels(labels, graph.n_nodes)
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": name,
        "num_nodes": graph.n_nodes,
        "num_features": int(x.shape[1]),
        "num_classes": num_classes,
        "features_file": features_file,
    }
    (path / META_FILE).write_text(json.dumps(meta, indent=2) + "\n")
    with open(path / "edges.tsv", "w") as f:
        write_rows(f, "%d\t%d\n", graph.edge_array())
    x32 = x.astype(np.float32)
    if features_file == "features.csv":
        with open(path / "features.csv", "w") as f:
            write_rows(f, _row_format(FLOAT_FMT, x32.shape[1]), x32)
    else:
        (path / "features.f32").write_bytes(x32.astype("<f4").tobytes(order="C"))
    with open(path / "labels.csv", "w") as f:
        write_rows(f, "%d\n", labels[:, None])
    if splits is not None:
        (path / "splits.json").write_text(json.dumps(splits.as_dict()) + "\n")


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
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != n_cols:
                raise ValidationError(
                    f"{path}:{lineno}: expected {n_cols} fields, got {len(parts)}"
                )
            try:
                row = [int(p) for p in parts]
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: not an integer: {line!r}")
            if not all(_INT64_MIN <= i <= _INT64_MAX for i in row):
                raise ValidationError(f"{path}:{lineno}: integer out of range: {line!r}")
            rows.append(row)
    return np.asarray(rows, dtype=np.int64).reshape(-1, n_cols)


def load_float_csv(path) -> np.ndarray:
    """Comma-separated float rows; errors carry file and line number."""
    path = Path(path)
    try:
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError:
        # slow path only to point at the offending line
        width = None
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                parts = line.strip().split(",")
                try:
                    [float(p) for p in parts if p != ""]
                except ValueError:
                    raise ValidationError(f"{path}:{lineno}: malformed float row")
                if width is not None and len(parts) != width:
                    raise ValidationError(
                        f"{path}:{lineno}: expected {width} fields, got {len(parts)}"
                    )
                width = len(parts)
        raise ValidationError(f"{path}: malformed feature file")


def _load_features_csv(path: Path, n_nodes: int, n_features: int) -> np.ndarray:
    x = load_float_csv(path)
    if x.shape != (n_nodes, n_features):
        raise ValidationError(
            f"{path}: feature shape {x.shape} does not match meta "
            f"({n_nodes}, {n_features})"
        )
    # features are float32 at rest; the 9-digit text uniquely identifies the
    # float32 value, so recover it before promoting back to float64
    return x.astype(np.float32).astype(np.float64)


def load_labels(path, meta: dict | None = None):
    """Read the labels of a dataset directory without its graph or features.

    Returns (meta, labels, SplitSet | None), checked as ``load_dataset``
    checks them. ``meta``, if given, is the directory's meta.json as
    ``load_meta`` returned it, which is then not read again.
    """
    path = Path(path)
    if meta is None:
        meta = _read_meta(path / META_FILE)
    n = meta["num_nodes"]
    # the label count bounds num_nodes before anything is sized by it
    labels = parse_int_lines(path / "labels.csv", 1).ravel()
    if labels.size != n:
        raise ValidationError(
            f"{path / 'labels.csv'}: {labels.size} labels, expected {n}"
        )
    if (labels >= 0).any() and labels.max() >= max(meta["num_classes"], 1):
        raise ValidationError(
            f"{path / 'labels.csv'}: label {labels.max()} exceeds num_classes "
            f"{meta['num_classes']}"
        )
    splits = None
    splits_path = path / "splits.json"
    if splits_path.is_file():
        splits = _load_splits(splits_path, n)
    return meta, labels, splits


def load_dataset(path, meta: dict | None = None):
    """Load and validate a dataset directory.

    Returns (SparseGraph, features, labels, SplitSet | None). Counts are
    checked against meta.json, which is read unless ``meta`` gives it as
    ``load_meta`` returned it; malformed lines are reported with file and
    line number.
    """
    path = Path(path)
    meta, labels, splits = load_labels(path, meta)
    n = meta["num_nodes"]
    d = meta["num_features"]
    edges = parse_int_lines(path / "edges.tsv", 2)
    try:
        graph = build_graph(edges, n)
    except ValidationError as e:
        raise ValidationError(f"{path / 'edges.tsv'}: {e}") from e
    feat_file = meta["features_file"]
    if feat_file == "features.csv":
        x = _load_features_csv(path / "features.csv", n, d)
    elif feat_file == "features.f32":
        raw = (path / "features.f32").read_bytes()
        if len(raw) != 4 * n * d:
            raise ValidationError(
                f"{path / 'features.f32'}: {len(raw)} bytes, expected {4 * n * d}"
            )
        x = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(n, d)
    else:
        raise ValidationError(f"{path / META_FILE}: unknown features_file {feat_file!r}")
    return graph, x, labels, splits


def _read_json_object(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: must be a JSON object")
    return raw


def _require_keys(path: Path, raw: dict, keys, where: str = "") -> None:
    for key in keys:
        if key not in raw:
            raise ValidationError(f"{path}: {where}missing key {key!r}")


def _load_splits(path: Path, n_nodes: int) -> SplitSet:
    """splits.json: three ratios, and splits whose train/val/test lists hold
    node indices in [0, n_nodes)."""
    raw = _read_json_object(path)
    _require_keys(path, raw, ("ratios", "splits"))
    ratios = raw["ratios"]
    if not (
        isinstance(ratios, list)
        and len(ratios) == 3
        and all(_is_json_type(r, float) for r in ratios)
    ):
        raise ValidationError(f"{path}: key 'ratios' must be a list of three numbers")
    if not isinstance(raw["splits"], list):
        raise ValidationError(f"{path}: key 'splits' must be a list")
    splits = []
    for i, split in enumerate(raw["splits"]):
        if not isinstance(split, dict):
            raise ValidationError(f"{path}: splits[{i}] must be a JSON object")
        _require_keys(path, split, ("train", "val", "test"), f"splits[{i}]: ")
        for key in ("train", "val", "test"):
            idx = split[key]
            if not (
                isinstance(idx, list)
                and all(type(j) is int and 0 <= j < n_nodes for j in idx)
            ):
                raise ValidationError(
                    f"{path}: splits[{i}] key {key!r} must be a list of node "
                    f"indices in [0, {n_nodes})"
                )
        splits.append(
            tuple(np.asarray(split[key], dtype=np.int64) for key in ("train", "val", "test"))
        )
    return SplitSet(splits=splits, ratios=tuple(float(r) for r in ratios))


def load_meta(path) -> dict:
    return _read_meta(Path(path) / META_FILE)


def _read_meta(path: Path) -> dict:
    """meta.json: every key of _META_TYPES present, with a value of its type;
    the counts are JSON integers >= 0 (not bools, floats or strings)."""
    if not path.is_file():
        raise ValidationError(f"{path}: missing")
    meta = _read_json_object(path)
    _require_keys(path, meta, _META_TYPES)
    for key, t in _META_TYPES.items():
        value = meta[key]
        if not _is_json_type(value, t) or (t is int and value < 0):
            expected = "an integer >= 0" if t is int else _TYPE_NAMES[t]
            raise ValidationError(
                f"{path}: key {key!r} must be {expected}, got {json.dumps(value)}"
            )
    return meta


# ---------------------------------------------------------------------------
# Embeddings, checkpoints, reports
# ---------------------------------------------------------------------------


def save_embeddings_csv(path, y_hat: np.ndarray) -> None:
    """N x c CSV at 9 significant digits (float32 at rest, like features)."""
    y32 = np.asarray(y_hat, dtype=np.float32)
    with open(path, "w") as f:
        write_rows(f, _row_format(FLOAT_FMT, y32.shape[1]), y32)


def load_embeddings_csv(path) -> np.ndarray:
    """N x c embeddings, float32 at rest; NaN, infinity and values beyond
    the float32 range are refused at their line."""
    try:
        x = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as e:
        raise ValidationError(f"{path}: malformed embeddings CSV ({e})") from e
    with np.errstate(over="ignore"):  # beyond float32 becomes inf, refused below
        x = x.astype(np.float32).astype(np.float64)
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise ValidationError(
            f"{path}:{_data_line(path, int(bad.argmax()))}: non-finite value "
            "(NaN, inf, or beyond the float32 range)"
        )
    return x


def _data_line(path, row: int) -> int:
    """1-based line number of data row ``row`` (0-based) as np.loadtxt reads
    the file: a line that is empty before any '#' holds no row."""
    with open(path) as f:
        data_lines = (
            lineno
            for lineno, line in enumerate(f, start=1)
            if line.rstrip("\r\n").split("#", 1)[0]
        )
        return next(itertools.islice(data_lines, row, None))


def save_checkpoint(dir_path, model: AMLPModel) -> None:
    """JSON header (dimensions, config, seed) plus the weights as CSV.

    Weights use 17 significant digits so a reload restores the exact float64
    matrix.
    """
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
    dir_path = Path(dir_path)
    header_path = dir_path / "checkpoint.json"
    header = _read_json_object(header_path)
    _require_keys(header_path, header, ("d", "c", "config", "weights_file"))
    if not isinstance(header["config"], dict):
        raise ValidationError(f"{header_path}: key 'config' must be a JSON object")
    _require_keys(header_path, header["config"], ("lambda",), "config: ")
    w = np.loadtxt(dir_path / header["weights_file"], delimiter=",", ndmin=2)
    if w.shape != (header["d"], header["c"]):
        raise ValidationError(
            f"{dir_path}: weight shape {w.shape} does not match header"
        )
    names = config_keys(AMLPConfig)
    try:
        cfg = AMLPConfig(
            **{names.get(key, key): value for key, value in header["config"].items()}
        )
    except TypeError as e:  # an unknown config key
        raise ValidationError(f"{header_path}: key 'config': {e}") from e
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
