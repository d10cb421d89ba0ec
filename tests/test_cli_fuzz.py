"""Property tests of the command line: whatever argv a subcommand gets, with
valid and invalid flags, numbers and paths mixed, amlp exits 0, 1 or 2 and
prints no traceback. Each example calls cli.main in this process on one tiny
SBM dataset. Loop counts and sizes are drawn from small values only (epochs,
hops, restarts, splits, hidden width, and --n-nodes, which the O(N^2)
generator squares), so every example runs in milliseconds. The examples are
derandomized and bounded, so the tests are deterministic and quick."""

import contextlib
import io
import json
import shutil

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from amlp import cli  # noqa: E402

ARGV = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# Each flag has a pool of valid values and one of invalid ones. Numbers of
# the float flags and seeds; "-inf" reads as an option.
BAD_NUMBERS = ["-1", "nan", "inf", "-inf", "1e999", "99999999999999999999", "x", ""]
FRACTIONS = (["0.001", "0.1", "0.5"], BAD_NUMBERS + ["0", "1e300"])
POSITIVE = (["0.01", "1", "100"], BAD_NUMBERS + ["0", "1e300"])
SEEDS = (["0", "7", "99999999999999999999"], ["-1", "-7", "1.5", "nan", "x", ""])
# counts that size a loop or an array: small valid ones, zero, negative, junk
BAD_COUNTS = ["0", "-1", "nan", "1.5", "x", ""]
COUNTS = (["1", "2", "3"], BAD_COUNTS)
# paths, as names that run() resolves in the work directory
BAD_PATHS = ["@missing", "@empty", "@blocker", "@blocker/below", "@meta"]
DATA = (["@data"], BAD_PATHS + ["@features"])
EMB = (["@emb", "@features"], BAD_PATHS)
OUT_DIR = (["@out_dir", "@out_existing"], ["@blocker", "@blocker/below"])
OUT_FILE = (["@out_file"], ["@out_existing", "@missing/report.json", "@blocker/below"])

# each subcommand's flags, the ones always given first: its required flags,
# and the ones whose defaults (200 epochs, 10 probe splits, 100 hidden
# columns) would set an example's run time
COMMANDS = {
    "prep": {
        "--edges": (["@edges"], BAD_PATHS + ["@labels"]),
        "--features": (["@features"], BAD_PATHS + ["@emb"]),
        "--labels": (["@labels"], BAD_PATHS + ["@edges"]),
        "--out": OUT_DIR,
        "--n-nodes": (["30"], BAD_COUNTS + ["40", "2"]),
        "--name": (["x", ""], ["--out"]),
    },
    "sbm": {
        "--preset": (["homophilic", "heterophilic"], ["x"]),
        "--out": OUT_DIR,
        "--seed": SEEDS,
        "--n-nodes": (["12", "30"], BAD_COUNTS + ["1", "3"]),
    },
    "reconstruct": {
        "--data": DATA, "--out": OUT_DIR, "--epsilon": FRACTIONS,
        "--policy": (["original_edges", "all_pairs"], ["x"]), "--soft": None,
        "--steepness": POSITIVE,
    },
    "train": {
        "--data": DATA, "--out": OUT_DIR, "--epochs": COUNTS,
        "--config": (["@config", "@grid"], BAD_PATHS), "--seed": SEEDS,
        "--k": COUNTS, "--lambda": FRACTIONS,
    },
    "cluster": {
        "--data": DATA, "--emb": EMB, "--k": (["2", "3"], BAD_COUNTS + ["30", "40"]),
        "--seeds": COUNTS, "--restarts": COUNTS, "--out": OUT_FILE,
    },
    "classify": {
        "--data": DATA, "--emb": EMB, "--n-splits": COUNTS, "--seed": SEEDS,
        "--ratios": (
            ["0.5,0.3,0.2", "0.6,0,0.4"],
            ["1,0,0", "0,0,1", "0.5,nan,0.5", "-1,1,1", "0.5,0.5", "0.9,0.9,0.9", "x"],
        ),
        "--out": OUT_FILE,
    },
    "diagnose": {"--data": DATA, "--emb": EMB, "--out": OUT_FILE},
    "exp1": {
        "--data": DATA, "--out": OUT_FILE, "--epochs": COUNTS,
        # 10^12 columns: an array size the allocator refuses at once
        "--hidden-dim": (COUNTS[0], BAD_COUNTS + ["1000000000000"]),
        "--aggregator": (["mean", "max", "all"], ["x"]),
        "--with-agg-loss": (["true", "false", "both"], ["x"]),
        "--lambda": FRACTIONS, "--seeds": COUNTS, "--learning-rate": POSITIVE,
    },
}
ALWAYS = {
    "prep": 4, "sbm": 2, "reconstruct": 2, "train": 3,
    "cluster": 2, "classify": 3, "diagnose": 1, "exp1": 4,
}
JUNK = ["--bogus", "x", "-h", "--", "-1"]


@st.composite
def argvs(draw, command):
    """``command`` with the flags it always gets and some of the others, in
    any order, and at most one fault: one flag's value drawn from its
    invalid pool, an always-given flag left out, or a stray token. Returns
    (argv, fault): the faulty flag's name, "drop", "junk" or None."""
    flags = COMMANDS[command]
    names, n = list(flags), ALWAYS[command]
    chosen = names[:n] + draw(st.lists(st.sampled_from(names[n:]), unique=True))
    chosen = draw(st.permutations(chosen))
    fault = draw(st.sampled_from([None, "drop", "junk", *chosen]))
    if fault == "drop":
        chosen.remove(draw(st.sampled_from(names[:n])))
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(st.sampled_from(flags[flag][flag == fault])))
    if fault == "junk":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv, fault


def run(argv, root=None):
    """(exit code, stderr) of cli.main on ``argv``, with each '@name' in it
    resolved to a path below ``root``."""
    if root is not None:
        argv = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """The work directory: a 30-node SBM dataset, embeddings trained on it,
    run configs, an empty directory that no example writes to, an existing
    output directory and a file where a directory belongs."""
    root = tmp_path_factory.mktemp("argv")
    data, trained = root / "data", root / "trained"
    assert run(["sbm", "--preset", "homophilic", "--n-nodes", "30", "--out", data])[0] == 0
    assert run(["train", "--data", data, "--out", trained, "--epochs", "2"])[0] == 0
    for name in ("edges.tsv", "features.csv", "labels.csv", "meta.json"):
        shutil.copyfile(data / name, root / name.split(".")[0])
    shutil.copyfile(trained / "embeddings.csv", root / "emb")
    (root / "config").write_text(json.dumps({"hidden_dim": 4, "epochs": 2}))
    (root / "grid").write_text(json.dumps({"hidden_dim": 4, "epochs": 2, "k": [1, 2]}))
    (root / "empty").mkdir()
    (root / "out_existing").mkdir()
    (root / "blocker").write_text("a file where a directory belongs\n")
    return root


@pytest.mark.parametrize("command", sorted(COMMANDS))
@ARGV
@given(data=st.data())
def test_argv_exits_0_1_or_2_without_a_traceback(root, command, data):
    argv, fault = data.draw(argvs(command), label="argv")
    code, err = run(argv, root)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert code == 0 or err.strip(), argv  # a failure says why
    if fault == "--out":  # an unusable --out is refused, and named
        assert code == 1 and "--out" in err, (argv, code, err)
