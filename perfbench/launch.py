"""Run one `amlp` command in this process, with the benchmark's hooks.

    python3 perfbench/launch.py <trace 0|1> <hooks.json> <amlp arguments...>

The process is what a user's `amlp ...` would be, plus the recorders from
tracing.py, installed before ``amlp.cli.main`` is called: with trace 0 only
the init_weights and adam_step marks, with trace 1 every span. What they
recorded is written to hooks.json when the command returns, and the exit code
is the command's. Thread variables come from the parent's environment.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    traced = sys.argv[1] == "1"
    hooks = Path(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import amlp.cli  # applies AMLP_THREADS before numpy loads

    import tracing

    recorder = tracing.Tracer() if traced else tracing.Marks()
    recorder.install()
    code = amlp.cli.main(sys.argv[3:])
    payload = {"spans": recorder.spans} if traced else {"marks": recorder.as_dict()}
    hooks.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
