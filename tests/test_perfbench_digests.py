"""Every benchmark job's output at the default seed, against its stored digest.

Runs each workload's job list once in-process through `perfbench/jobs.py`,
as one benchmark pass does, and compares every exit code and result digest
with `perfbench/expected/<workload>.json`; so a change to any output the
benchmark checks fails here too, not only in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("mc-invariant", "chain-pushforward", "exact-geometry")


@pytest.fixture(scope="module")
def jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", PERFBENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_outputs_match_the_expected_digests(jobs, workload):
    expected = json.loads((PERFBENCH / "expected" / f"{workload}.json").read_text())
    assert expected["seed"] == jobs.DEFAULT_SEED
    joblist = jobs.generate(workload, jobs.DEFAULT_SEED)
    assert joblist == [want["spec"] for want in expected["jobs"]]
    env = jobs.build(workload)
    got = []
    for job in joblist:
        code, text = jobs.run_job(env, job)
        got.append((job["id"], code, jobs.digest(text)))
    assert got == [(want["spec"]["id"], want["code"], want["sha256"]) for want in expected["jobs"]]
