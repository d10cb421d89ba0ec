"""Byte-identity of every command, against a committed manifest.

``sbm`` (homophilic preset, seed 0), ``prep`` from the files it wrote,
``reconstruct`` in hard, ``--soft`` and ``--policy all_pairs`` form, ``train``
for a few epochs, ``cluster``, ``classify`` and ``diagnose`` on its
embeddings, and a small ``exp1`` each run as a child process with
AMLP_THREADS=1. The sha256 of each one's stdout and of every file it writes
must equal ``tests/golden/manifest.json``, with each report's
``wall_clock_seconds`` masked. The manifest also records the Python, numpy,
scipy and BLAS versions and the AMLP_THREADS it was made with; a failure
names any that differ here, since a different BLAS may round the all-pairs
feature product and the training GEMMs differently.

After a change that is meant to alter these outputs, regenerate the manifest
from the repository root with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
SRC = Path(__file__).resolve().parents[1] / "src"

# (name, argv); every path is relative to one scratch directory, so that the
# stdout lines that echo a path do not depend on where it lies
RUNS = [
    ("sbm", ["sbm", "--preset", "homophilic", "--seed", "0", "--out", "sbm"]),
    ("prep", ["prep", "--edges", "sbm/edges.tsv", "--features", "sbm/features.csv",
              "--labels", "sbm/labels.csv", "--out", "prep"]),
    ("reconstruct-hard", ["reconstruct", "--data", "sbm", "--out", "hard"]),
    ("reconstruct-soft", ["reconstruct", "--data", "sbm", "--out", "soft", "--soft"]),
    ("reconstruct-all-pairs", ["reconstruct", "--data", "sbm", "--out", "all-pairs",
                               "--policy", "all_pairs"]),
    ("train", ["train", "--data", "sbm", "--out", "train", "--epochs", "5"]),
    ("cluster", ["cluster", "--data", "sbm", "--emb", "train/embeddings.csv",
                 "--out", "cluster.json"]),
    ("classify", ["classify", "--data", "sbm", "--emb", "train/embeddings.csv",
                  "--n-splits", "2", "--out", "classify.json"]),
    ("diagnose", ["diagnose", "--data", "sbm", "--emb", "train/embeddings.csv",
                  "--out", "diagnose.json"]),
    ("exp1", ["exp1", "--data", "sbm", "--epochs", "3", "--hidden-dim", "8",
              "--out", "exp1.csv"]),
]
THREADS = "1"

_WALL_CLOCK = re.compile(rb'"wall_clock_seconds": [^,\n}]+')


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "AMLP_THREADS": THREADS,
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(_WALL_CLOCK.sub(b'"wall_clock_seconds": null', data)).hexdigest()


def run_all(workdir: Path) -> dict:
    """{"<run> stdout" or "<run> <file>": sha256} of RUNS, executed in order
    in the empty directory ``workdir``; a run's --out is a directory of
    files or one file."""
    env = dict(os.environ, AMLP_THREADS=THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    hashes = {}
    for name, argv in RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "amlp", *argv], cwd=workdir, env=env, capture_output=True
        )
        assert proc.returncode == 0, (name, proc.stderr.decode())
        hashes[f"{name} stdout"] = _sha256(proc.stdout)
        out = workdir / argv[argv.index("--out") + 1]
        for path in sorted(out.iterdir()) if out.is_dir() else [out]:
            hashes[f"{name} {path.name}"] = _sha256(path.read_bytes())
    return hashes


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    got = run_all(tmp_path)
    differ = sorted(
        key for key in set(got) | set(manifest["sha256"])
        if got.get(key) != manifest["sha256"].get(key)
    )
    changed = [
        f"{key} {manifest['provenance'].get(key)!r} in the manifest, {value!r} here"
        for key, value in provenance().items()
        if manifest["provenance"].get(key) != value
    ]
    assert not differ, (
        f"outputs differ from {MANIFEST.name}: {', '.join(differ)}; "
        + (f"provenance differs: {'; '.join(changed)}" if changed
           else "the provenance is the manifest's")
    )


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        hashes = run_all(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    manifest = {"provenance": provenance(), "sha256": hashes}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST}")
