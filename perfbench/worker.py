"""One measured run in a fresh interpreter (started by run.py).

Imports ggtlab from the checkout's `src/`, builds what the workload's
library jobs share, then runs passes over the seed's job list until the
time budget is spent.  Every job is timed between two runs of a fixed
reference loop, and its latency is scaled by the machine speed they show
(see `reference`).  Program caches (`model_from_descriptor`,
`_line_data`) are cleared before every pass, so each pass starts as cold as
a CLI user's process and its counts repeat from pass to pass.  Set-up
probes run between passes.  With tracing on, untraced and traced passes
alternate; the untraced ones give the trace overhead.  Prints one JSON
record as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

clock = time.perf_counter


# The reference loop's time on a machine where the scaled times read as
# seconds; measured on a 2-vCPU VM (Python 3.11) in its faster state.
REF_NOMINAL_S = 0.004
REF_ROUNDS = 3000


class _Key:
    __slots__ = ("t", "h")

    def __init__(self, t):
        self.t = t
        self.h = hash(t)

    def __hash__(self):
        return self.h

    def __eq__(self, other):
        return self.t == other.t


def _reference_loop() -> int:
    """Fixed pure-Python work like the program's own: objects with
    __hash__/__eq__ as dict keys, tuples, int and str arithmetic, a sort."""
    d: dict = {}
    acc = 0
    for i in range(REF_ROUNDS):
        k = _Key((i & 31, i >> 5))
        d[k] = d.get(k, 0) + 1
        acc += len(str(i)) * (i % 7)
    return acc + len(sorted(d, key=lambda k: (k.t[1], -k.t[0])))


def reference() -> float:
    """Seconds one reference loop takes now, with the cyclic GC off so that
    the program's heap does not enter it.

    On a shared machine other tenants slow every process by up to 2x for
    seconds to minutes at a time, and a job's wall time follows.  The
    reference loop, timed just before and after a job, slows with it, so
    latency x REF_NOMINAL_S / reference time measures the program, not the
    machine's state; a change to ggtlab cannot move the loop.
    """
    gc.disable()
    try:
        t = clock()
        _reference_loop()
        return clock() - t
    finally:
        gc.enable()


def speed(runs: int = 3) -> float:
    """Median reference time of a few loops, after one warm-up loop."""
    reference()
    return statistics.median(reference() for _ in range(runs))


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


class Caches:
    """The program's process-wide caches, held by their original objects."""

    def __init__(self, groups, projections):
        self.fns = [
            getattr(groups, "model_from_descriptor", None),
            getattr(projections, "_line_data", None),
        ]
        self.line_data = self.fns[1]

    def clear(self) -> None:
        for fn in self.fns:
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    def line_data_info(self):
        return self.line_data.cache_info() if hasattr(self.line_data, "cache_info") else None


def run_pass(jobs_mod, env: dict, joblist: list[dict], tracer=None) -> dict:
    """One pass over the job list.  Each job starts after a full collection,
    so its GC work does not depend on the jobs before it, and between two
    reference loops, which give its scaled latency."""
    results = []
    t_pass = clock()
    gc.collect()
    ref_before = reference()
    for job in joblist:
        token = tracer.job_begin(job["kind"]) if tracer is not None else None
        t0 = clock()
        try:
            code, text = jobs_mod.run_job(env, job)
            error = None
        except Exception as exc:  # a failing job is recorded, the run goes on
            code, text, error = None, "", f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
        if tracer is not None:
            tracer.job_end(token)
        ref_after = reference()
        gc.collect()
        results.append(
            {
                "code": code,
                "digest": jobs_mod.digest(text) if error is None else None,
                "latency": latency,
                "scaled": latency * 2 * REF_NOMINAL_S / (ref_before + ref_after),
                "bytes": len(text),
                "shape_ok": error is None and jobs_mod.check_shape(job, text),
                "error": error,
            }
        )
        ref_before = ref_after
    # `wall` is the jobs' own time, which the tracer splits into layers;
    # `elapsed` adds the reference loops and collections between jobs
    return {
        "wall": sum(r["latency"] for r in results),
        "elapsed": clock() - t_pass,
        "jobs": results,
    }


def per_job(passes: list[dict], key: str = "scaled") -> list[float]:
    """Each job's median latency over the given passes."""
    return [_median([p["jobs"][i][key] for p in passes]) for i in range(len(passes[0]["jobs"]))]


def _failures(jobs_mod, joblist, passes, expected) -> list[dict]:
    """Every (pass, job) that raised, exited wrongly or gave a wrong digest."""
    out = []
    for pi, p in enumerate(passes):
        for job, r, first in zip(joblist, p["jobs"], passes[0]["jobs"]):
            reason = None
            if r["error"]:
                reason = r["error"]
            elif r["code"] not in jobs_mod.expected_codes(job):
                reason = f"exit code {r['code']}"
            elif not r["shape_ok"]:
                reason = "result text has the wrong form"
            elif r["digest"] != first["digest"] or r["code"] != first["code"]:
                reason = "result differs from the first pass"
            elif expected is not None:
                want = expected.get(job["id"])
                if want is None or want["spec"] != job:
                    reason = "job not in the expected list"
                elif (want["code"], want["sha256"]) != (r["code"], r["digest"]):
                    reason = "digest differs from the expected value"
            if reason:
                out.append({"pass": pi, "job": job["id"], "reason": reason})
    return out


def setup_probe(args) -> dict:
    """Set-up time of a fresh interpreter that only imports and builds."""
    proc = subprocess.run(
        [sys.executable, __file__, "--src", args.src, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probes", type=int, default=0, help="set-up probes to run between passes")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    if args.setup_only:
        ref_before = speed()
    t0 = clock()
    sys.path.insert(0, args.src)
    import jobs as jobs_mod  # imports ggtlab

    env = jobs_mod.build(args.workload)
    setup_s = clock() - t0
    if args.setup_only:
        ref = (ref_before + speed()) / 2
        print(json.dumps({"setup_s": setup_s, "scaled": setup_s * REF_NOMINAL_S / ref}))
        return 0

    import numpy

    from ggtlab import groups, projections

    caches = Caches(groups, projections)
    joblist = jobs_mod.generate(args.workload, args.seed)
    tracer = None
    problems: list[str] = []
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        left = tracer.unpatched()
        tracer.uninstall()
        if left:
            problems.append(f"wrappers missed {len(left)} names: {', '.join(left[:5])}")

    plain, traced, layer_runs, probes = [], [], [], []
    probe_cost = 0.0
    start = clock()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        caches.clear()
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(jobs_mod, env, joblist, tracer)
            finally:
                tracer.uninstall()
            traced.append(p)
            layer_runs.append(
                (tracer.metrics(p["wall"], caches.line_data_info()), tracer.layer_self(p["wall"]))
            )
            spans = tracer.span_records()
        else:
            plain.append(run_pass(jobs_mod, env, joblist))
        if len(probes) < args.probes:
            # spread over the run, so one slow spell of the machine does not
            # set every probe
            t_probe = clock()
            probes.append(setup_probe(args))
            probe_cost = clock() - t_probe
        elapsed = clock() - start
        nxt = traced if tracer is not None and len(plain) > len(traced) else plain
        estimate = (nxt[-1]["elapsed"] if nxt else elapsed) + (probe_cost if len(probes) < args.probes else 0)
        if tracer is not None and not traced:
            continue
        if elapsed + estimate > args.seconds:
            break

    while len(probes) < args.probes:
        probes.append(setup_probe(args))
    passes = plain + traced
    expected = None
    if args.seed == jobs_mod.DEFAULT_SEED:
        path = Path(__file__).resolve().parent / "expected" / f"{args.workload}.json"
        if path.is_file():
            expected = {j["spec"]["id"]: j for j in json.loads(path.read_text())["jobs"]}
        else:
            problems.append(f"no expected digests at {path.name}")
    failures = _failures(jobs_mod, joblist, passes, expected)

    # A job's latency is the median over the run's passes of its scaled
    # latency (see `reference`); the raw wall-clock figures are kept too.
    job_latency = per_job(plain)
    raw_latency = per_job(plain, "latency")
    p50, p90 = _percentiles(job_latency)
    raw_p50, raw_p90 = _percentiles(raw_latency)
    mc_steps = sum(job.get("steps", 0) for job in joblist)
    mc_time = sum(t for job, t in zip(joblist, job_latency) if job.get("steps"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_pass": len(joblist),
        "passes": {"plain": [p["wall"] for p in plain], "traced": [p["wall"] for p in traced]},
        "latencies": [[r["latency"] for r in p["jobs"]] for p in plain],
        "scaled_latencies": [[r["scaled"] for r in p["jobs"]] for p in plain],
        "attempted": len(joblist) * len(passes),
        "failed": len({(f["pass"], f["job"]) for f in failures}),
        "failures": failures[:50],
        "problems": problems,
        "end_to_end": {
            "wall_s": sum(job_latency),
            "job_p50_ms": 1e3 * p50,
            "job_p90_ms": 1e3 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mc_steps_per_s": mc_steps / mc_time if mc_time else 0.0,
            "setup_s": _median([p["scaled"] for p in probes]),
        },
        "raw": {
            "wall_s": sum(raw_latency),
            "job_p50_ms": 1e3 * raw_p50,
            "job_p90_ms": 1e3 * raw_p90,
            "setup_s": _median([p["setup_s"] for p in probes]),
        },
        "setup_probes": probes,
        "cli_output_bytes": sum(
            r["bytes"] for job, r in zip(joblist, plain[0]["jobs"]) if job["kind"] == "cli"
        ),
        "jobs": [
            {"id": job["id"], "code": r["code"], "sha256": r["digest"], "spec": job}
            for job, r in zip(joblist, plain[0]["jobs"])
        ],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if tracer is not None:
        per_layer = {
            name: _median([m[name] for m, _ in layer_runs]) for name in layer_runs[0][0]
        }
        per_layer["cli.output_bytes"] = record["cli_output_bytes"]
        per_layer["mc_steps_per_s"] = record["end_to_end"]["mc_steps_per_s"]
        per_layer["trace.overhead_frac"] = sum(per_job(traced)) / sum(job_latency) - 1.0
        layer_self = {k: _median([ls[k] for _, ls in layer_runs]) for k in layer_runs[0][1]}
        share = tracer_mod.shares(layer_self)
        layers_only = {k: v for k, v in share.items() if k in tracer_mod.LAYERS}
        silent = [
            layer
            for layer in tracer_mod.PREDICTED_LAYERS[args.workload]
            if per_layer[f"{layer}.calls"] == 0
        ]
        if silent:
            problems.append(f"predicted layers recorded no calls: {', '.join(silent)}")
        record.update(
            {
                "per_layer": per_layer,
                "shares": share,
                "largest_layer": max(layers_only, key=layers_only.get),
                "predictions": tracer_mod.predictions(args.workload, share),
            }
        )
        if args.spans:
            Path(args.spans).write_text(json.dumps(spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
