"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc-invariant --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  The run starts one fresh single-threaded
worker interpreter (worker.py) that runs the seed's job list pass after
pass for `--seconds`; between passes it starts, one at a time, the set-up
probes whose median is `setup_s`.  The
run prints every metric by name with its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
with `--trace 1` the per-layer ones.  The full record, with per-job digests
and the environment, is saved under perfbench/results/ (or `--out`) for
compare.py.  Exits 2 without a result when the checkout has no ggtlab
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-invariant", "chain-pushforward", "exact-geometry")
SETUP_PROBES = 7
# the run must end well inside 180 s
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def git_sha(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
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
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run a worker interpreter to completion and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, timeout),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "results"), help="directory for the run record")
    args = ap.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        return fail("--seconds must be between 1 and 60")
    if not (SRC / "ggtlab" / "__init__.py").is_file():
        return fail(f"no ggtlab sources under {SRC}; run from the root of a checkout")
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(bench_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        worker_args += ["--spans", str(out_dir / f"{base}-spans.json")]
    else:
        worker_args += ["--probes", str(SETUP_PROBES)]
    record = run_child(worker_args, RUN_LIMIT_S)
    values = record["per_layer"] if args.trace else record["end_to_end"]
    problems = list(record["problems"])
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record.update(
        {
            "trace": args.trace,
            "seconds": args.seconds,
            "metrics": metrics,
            "problems": problems,
            "environment": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": record["versions"]["python"],
                "numpy": record["versions"]["numpy"],
                "platform": platform.platform(),
                "git_sha": git_sha(ROOT),
                "threads": {var: "1" for var in THREAD_VARS},
            },
        }
    )
    (out_dir / f"{base}.json").write_text(json.dumps(record, indent=1))

    correct = record["failed"] == 0 and not problems
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(record['passes']['plain'])}+{len(record['passes']['traced'])} traced  "
          f"jobs/pass {record['jobs_per_pass']}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {record['failed'] / record['attempted']:>16.6g} 1")
    if not args.trace:
        for name, value in record["raw"].items():
            print(f"  {'unscaled ' + name:44s} {value:>16.6g} {metrics.get(name, {}).get('unit', '')}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in sorted(record["shares"].items(), key=lambda kv: -kv[1]))
        print(f"  self-time shares: {shares}")
        print(f"  largest layer: {record['largest_layer']}")
        for claim, ok in record["predictions"].items():
            print(f"  prediction {'holds' if ok else 'FAILS'}: {claim}")
    for f in record["failures"][:10]:
        print(f"  failed: pass {f['pass']} job {f['job']}: {f['reason']}")
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
