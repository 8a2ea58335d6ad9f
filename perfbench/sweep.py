"""Run the benchmark over several seeds, one run at a time.

    python3 perfbench/sweep.py --out perfbench/results/base --seeds 1-10 \
        [--workloads mc-invariant,exact-geometry] [--trace 0]

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace T`
with the record saved in --out; compare.py reads the directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:300]}", flush=True)
            status |= proc.returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
