"""Record bench/golden.json from the current program.

    python3 bench/record_golden.py

Sweeps get the sha256 of their report with the seed echo set to 0;
closed loops get one digest (ranks, witnesses and, for linsys_sparse,
members) per op of the default seed, for the first GOLDEN_OPS ops.
Re-record only when a change is meant to alter these outputs, and say
so in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import CHILD_ENV, ROOT  # noqa: E402

# About four times what a 10 s run completes on a 2-core Xeon.
GOLDEN_OPS = {"linsys_sparse": 400, "toric_dense": 800}
WORKLOADS = ("sweep5_csv", "linsys_sparse", "toric_dense")


def main() -> None:
    golden = {}
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
                   "--seed", "0", "--mode", "golden", "--tmp", tmp,
                   "--ops", str(GOLDEN_OPS.get(name, 0))]
            out = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                                 text=True, check=True)
        golden[name] = json.loads(out.stdout.splitlines()[-1])["golden"]
        print(name, "recorded", file=sys.stderr)
    scratch.rmdir()
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
