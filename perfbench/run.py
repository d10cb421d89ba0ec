"""amlp benchmark: one command per workload, result as the last stdout line.

    python3 perfbench/run.py --workload wide_train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` and nowhere else. With --trace 0 the
last line carries the end-to-end metrics, with --trace 1 the per-layer ones.
The lines before it print every metric with its unit, the host and
provenance, and where the run's record (and, traced, its spans) was written.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("wide_train", "exp1_sweep", "cli_pipeline")
# BLAS threads: one. On a shared 2-core host a two-thread GEMM waits for
# whichever core a neighbour holds: with one core kept busy by another
# process, wide_train's epoch went from 0.26 s to 0.45-0.51 s at 2 threads,
# while at 1 thread it stayed at 0.40 s busy or idle.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "AMLP_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny shapes that run in seconds")
    ap.add_argument("--selftest", action="store_true",
                    help="check the harness arithmetic, then every workload at smoke shape")
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    return args


def _import_amlp():
    """Import amlp from this checkout's src, or exit without a result."""
    src = ROOT / "src"
    if not (src / "amlp" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'amlp'} not found; run inside a checkout of the repository")
    sys.path.insert(0, str(src))
    import amlp

    if Path(amlp.__file__).resolve().parent != (src / "amlp").resolve():
        sys.exit(f"error: imported amlp from {amlp.__file__}, not from {src}")


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "pinned_threads": THREADS, "threads_in_use": None}
    with open("/proc/self/maps") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "blas" in ln.lower() and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                out["threads_in_use"] = fn()
                return out
    return out


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> dict:
    import layers
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = WORKDIR / tag
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "work").mkdir(parents=True)
    out = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir / "work"
    )
    shutil.rmtree(workdir / "work")
    ledger = out.ledger
    correct = ledger.failed == 0 and out.reruns_identical and not out.unstable_counts
    if not out.reruns_identical:
        ledger.errors.append("passes with the same seed gave different outputs")
    if out.unstable_counts:
        ledger.errors.append(f"computed counts changed between passes: {out.unstable_counts}")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(out.passes)} ({sum(p.traced for p in out.passes)} traced)")
    for name, (value, unit) in out.metrics.items():
        label = " (computed)" if name in layers.COMPUTED else ""
        print(f"{name:40s} {_fmt(value):>14s} {unit}{label}")
    extra_units = dict(workloads.EXTRA)
    for name, value in out.extra.items():
        print(f"{name:40s} {_fmt(value):>14s} {extra_units[name]}")
    for err in ledger.errors:
        print(f"error: {err}")
    record = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
        "extra": out.extra,
        "computed": [k for k in layers.COMPUTED if k in out.metrics],
        "passes": [
            {"traced": p.traced, "wall_s": p.wall, "setup_s": p.setup,
             "epochs": p.epochs, "epoch_runs": p.runs, "quality": p.quality}
            for p in out.passes
        ],
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if out.spans:
        keys = ("name", "start", "end", "parent", "run", "attrs")
        (workdir / "spans.json").write_text(
            json.dumps([dict(zip(keys, s)) for s in out.spans]) + "\n"
        )
    print("provenance " + json.dumps(record["provenance"]))
    print(f"record {workdir.relative_to(ROOT)}")
    return {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    return total


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    _import_amlp()  # before numpy, so the thread variables above take effect
    if args.selftest:
        import selftest

        return selftest.main(WORKDIR / "selftest")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
