"""Read run records (written by run.py) and judge spread or a parent/change pair.

    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py pair PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py expect RECORD.json ...

`spread` prints, per workload and end-to-end metric, the median and
quartiles over the seeds in DIR and the quartile distance as a share of the
median, against the metric's bound from BENCHMARK.json.

`pair` prints one row per workload x end-to-end metric: each side's median
and quartiles, the fraction of same-seed pairs the change won, and a verdict:

* worse      - the change's median is worse than the parent's by more than the bound;
* better     - the change wins at least 9/10 of the pairs and the medians differ
               by more than the parent's quartile distance;
* unresolved - the parent's own spread is wider than the bound and not every
               change run beats every parent run;
* unchanged  - otherwise.

It also compares the per-job result digests of every seed both sides ran: a
change that claims a gain must leave them equal.  Only untraced records
(trace 0) are read.

`expect` stores the exit codes and digests of default-seed records as the
expected values (expected/<workload>.json) that every later default-seed
run is checked against.  Refresh them only with a change that is meant to
alter results, and say so.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: str) -> dict:
    """{workload: {seed: record}} of the untraced records in a directory."""
    out: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        out[rec["workload"]][rec["seed"]] = rec
    return out


def bench_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric: dict, parent: list[float], change: list[float], pairs: list[tuple]) -> tuple[str, float]:
    sign = 1 if metric["better"] == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    frac = won / len(pairs) if pairs else 0.0
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse_by > metric["bound"]:
        return "worse", frac
    if frac >= 0.9 and sign * (cm - pm) < 0 and abs(cm - pm) > (p3 - p1):
        return "better", frac
    if pm and (p3 - p1) / pm > metric["bound"] and not all_better:
        return "unresolved", frac
    return "unchanged", frac


def cmd_spread(directory: str) -> int:
    spec = bench_spec()
    runs = load(directory)
    status = 0
    print(f"{'workload':18s} {'metric':12s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload, by_seed in sorted(runs.items()):
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in by_seed.values() if m["name"] in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "" if spread < m["bound"] / 3 else ("  above bound/3" if spread < m["bound"] else "  ABOVE BOUND")
            if m["name"] != "setup_s" and spread >= m["bound"]:
                status = 1
            print(f"{workload:18s} {m['name']:12s} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {m['bound']:6.2f}{mark}")
        bad = sum(r["failed"] for r in by_seed.values())
        print(f"{workload:18s} failed jobs over {len(by_seed)} run(s): {bad}")
        status |= bad > 0
    return status


def cmd_pair(parent_dir: str, change_dir: str) -> int:
    spec = bench_spec()
    parent, change = load(parent_dir), load(change_dir)
    print(f"{'workload':18s} {'metric':12s} {'parent med [q1, q3]':>36s} {'change med [q1, q3]':>36s} {'won':>5s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent[workload].values()]
            cv = [r["metrics"][name]["value"] for r in change[workload].values()]
            pairs = [(parent[workload][s]["metrics"][name]["value"], change[workload][s]["metrics"][name]["value"]) for s in seeds]
            v, frac = verdict(m, pv, cv, pairs)
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{workload:18s} {name:12s} {pq[1]:12.6g} [{pq[0]:9.4g}, {pq[2]:9.4g}] "
                  f"{cq[1]:12.6g} [{cq[0]:9.4g}, {cq[2]:9.4g}] {frac:5.2f}  {v}")
        for s in seeds:
            pj = {j["id"]: (j["code"], j["sha256"]) for j in parent[workload][s]["jobs"]}
            cj = {j["id"]: (j["code"], j["sha256"]) for j in change[workload][s]["jobs"]}
            diff = sorted(k for k in pj.keys() | cj.keys() if pj.get(k) != cj.get(k))
            state = "equal" if not diff else f"{len(diff)} job(s) differ: {', '.join(diff[:5])}"
            print(f"{workload:18s} seed {s}: digests {state}")
    return 0


def cmd_expect(paths: list[str]) -> int:
    for path in paths:
        rec = json.loads(Path(path).read_text())
        if rec["failed"]:
            print(f"{path}: {rec['failed']} failed job(s); not recorded", file=sys.stderr)
            return 1
        out = HERE / "expected" / f"{rec['workload']}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seed": rec["seed"], "jobs": rec["jobs"]}, indent=1) + "\n")
        print(f"wrote {out.relative_to(HERE.parent)} ({len(rec['jobs'])} jobs, seed {rec['seed']})")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "spread":
        return cmd_spread(argv[1])
    if len(argv) >= 2 and argv[0] == "expect":
        return cmd_expect(argv[1:])
    if len(argv) == 3 and argv[0] == "pair":
        return cmd_pair(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
