"""Byte-identity of every command, against a committed manifest.

``sbm`` (homophilic preset, seed 0), ``prep`` from the files it wrote,
``reconstruct`` in hard, ``--soft`` and ``--policy all_pairs`` form, ``train``
for a few epochs, ``cluster``, ``classify`` and ``diagnose`` on its
embeddings, and a small ``exp1`` each run as a child process with
AMLP_THREADS=1. The sha256 of each one's stdout and of every file it writes
must equal ``tests/golden/manifest.json``, with each report's
``wall_clock_seconds`` masked. So must the sha256 of the arrays of library
calls that these commands do not reach at preset scale, made in one more
child process with AMLP_THREADS=1: a hidden-form ``train()`` and
``exp1_train`` for each aggregator, with and without L_agg
(``in_process_hashes``). The manifest also records the Python, numpy,
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


def _array_sha256(a) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def in_process_hashes() -> dict:
    """{"<case> <array>": sha256} of library calls on a 60-node,
    300-feature SBM whose soft reconstruction keeps few enough entries for
    train() to run the hidden form: that train()'s W, Yh and three loss
    series, and each aggregator's exp1_train Dr and Yh with and without
    L_agg. To be called in a fresh process: importing amlp.cli first applies
    AMLP_THREADS before numpy loads, as in a command's process."""
    import amlp.cli  # noqa: F401
    import numpy as np

    from amlp import synth
    from amlp.graph import AGGREGATORS
    from amlp.model import AMLPConfig, _propagates_hidden, exp1_train, train
    from amlp.reconstruct import ReconstructionConfig, reconstruct

    spec = synth.SbmSpec(n_nodes=60, n_classes=3, p_in=0.3, p_out=0.02,
                         feature_dim=300, noise_sigma=0.8, seed=0)
    g, x, _ = synth.generate_dataset(spec)
    cfg, recon = AMLPConfig(hidden_dim=16, epochs=20, seed=3), ReconstructionConfig(mode="soft")
    assert _propagates_hidden(*x.shape, cfg.k, reconstruct(g, x, recon)[0].indices.size)
    model, y_hat, report = train(g, x, cfg, recon)
    arrays = {
        "train-hidden W": model.W,
        "train-hidden Yh": y_hat,
        "train-hidden losses_agg": report.losses_agg,
        "train-hidden losses_rec": report.losses_rec,
        "train-hidden losses_total": report.losses_total,
    }
    cfg = AMLPConfig(hidden_dim=8, epochs=10, seed=1)
    for agg in AGGREGATORS:
        for flag in (False, True):
            dr, y_hat = exp1_train(g, x, agg, flag, cfg=cfg)
            name = f"exp1_train-{agg}-{'with' if flag else 'without'}-agg-loss"
            arrays[f"{name} Dr"] = np.array([dr])
            arrays[f"{name} Yh"] = y_hat
    return {key: _array_sha256(a) for key, a in arrays.items()}


def run_all(workdir: Path) -> dict:
    """{"<run> stdout" or "<run> <file>": sha256} of RUNS, executed in order
    in the empty directory ``workdir`` (a run's --out is a directory of files
    or one file), and then ``in_process_hashes`` from a child process."""
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
    proc = subprocess.run(
        [sys.executable, __file__, "--in-process"], cwd=workdir, env=env, capture_output=True
    )
    assert proc.returncode == 0, ("in-process", proc.stderr.decode())
    hashes.update(json.loads(proc.stdout))
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

    if sys.argv[1:] == ["--in-process"]:
        print(json.dumps(in_process_hashes()))
        sys.exit()
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        hashes = run_all(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    manifest = {"provenance": provenance(), "sha256": hashes}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST}")
