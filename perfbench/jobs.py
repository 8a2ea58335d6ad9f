"""Workloads of the benchmark: set-up, seeded job lists and job execution.

A job is plain data: an id, a kind and the generated inputs.  `run_job`
turns it into one call of a public ggtlab entry point, either
`ggtlab.cli.main(argv)` with stdout captured or a public library function
where the CLI exposes nothing, and returns the exit code and the result text
whose digest the benchmark checks.

Every job list is drawn from the workload seed alone.  Job *shapes* (sample
counts, horizons, word lengths, radii) are fixed per kind and only the
letters, cells and seeds vary, so a pass costs about the same on every seed
and the seed changes what is computed, not how much.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re

from ggtlab import chains, cli, experiments, groups, spaces

# Expected digests are stored for this seed only (expected/<workload>.json).
DEFAULT_SEED = 0

F2, Z2_Z, Z2_Z_X_Z = "F2", "Z^2 * Z", "(Z^2 * Z) x Z"
KERNELS = ("srw", "lazy:1/2")
SEGMENT_GRID = "1,0;1,2;2,2"


# ---------------------------------------------------------------------------
# set-up: what a run builds before its first job


def build(workload: str) -> dict:
    """The objects the workload's library jobs share: the F2 model and, for
    the push-forward workload, its kernel (whose construction checks the QI
    on a ball).  CLI jobs build their own, as a CLI user's process does."""
    if workload not in ("mc-invariant", "chain-pushforward", "exact-geometry"):
        raise ValueError(f"unknown workload {workload!r}")
    f2 = groups.model_from_descriptor(F2)
    env = {"F2": f2}
    if workload == "chain-pushforward":
        env["kernel"] = experiments.resolve_kernel(f2, "srw-branch-swap")
    return env


# ---------------------------------------------------------------------------
# word generation (plain strings; the program parses them)


def spell(letters: list[int], names: str) -> str:
    """Run-length spelling in the CLI's syntax, e.g. ``a^2 b^-1``."""
    if not letters:
        return "e"
    parts, i = [], 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        name = names[abs(letters[i]) - 1]
        exp = (j - i) * (1 if letters[i] > 0 else -1)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def free_letters(rng: random.Random, length: int, avoid_first: int = 0) -> list[int]:
    """A reduced F2 word of exactly `length` letters."""
    out: list[int] = []
    while len(out) < length:
        s = rng.choice((1, -1, 2, -2))
        prev = out[-1] if out else -avoid_first
        if prev == -s:
            continue
        out.append(s)
    return out


def free_word(rng: random.Random, length: int) -> str:
    return spell(free_letters(rng, length), "ab")


def free_product_word(rng: random.Random, syllables: int, first: int | None = None, unit: bool = False) -> str:
    """Alternating Z^2 / Z syllables of Z^2 * Z (letters x, y | z); with
    `unit`, every syllable is one letter, so the word's length is fixed."""
    factor = rng.randrange(2) if first is None else first
    parts = []
    for _ in range(syllables):
        if unit:
            parts.append(rng.choice(("x", "x^-1", "y", "y^-1") if factor == 0 else ("z", "z^-1")))
        elif factor == 0:
            i, j = 0, 0
            while i == 0 and j == 0:
                i, j = rng.randint(-2, 2), rng.randint(-1, 1)
            parts += [spell([1 if i > 0 else -1] * abs(i), "xy")] if i else []
            parts += [spell([2 if j > 0 else -2] * abs(j), "xy")] if j else []
        else:
            parts.append(spell([1 if rng.random() < 0.5 else -1] * rng.randint(1, 2), "z"))
        factor = 1 - factor
    return " ".join(parts)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 10**6))


# ---------------------------------------------------------------------------
# job lists


def _job(jobs: list, kind: str, params: dict) -> None:
    jobs.append({"id": f"{len(jobs):03d}-{kind}", "kind": kind, **params})


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of one pass, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[dict] = []
    if workload == "mc-invariant":
        for i in range(35):
            _job(jobs, "bounded-proj", {
                "kernel": KERNELS[i % 2], "seed": int(_seed(rng)),
                "p": free_word(rng, rng.randint(0, 2)), "h": free_word(rng, rng.randint(0, 4)),
                "samples": 32, "n": [25, 50, 100, 200], "steps": 32 * 200,
            })
        for i in range(20):
            t = 3 + i % 2
            o_letters = free_letters(rng, 2)
            link = [rng.choice((2, -2))]
            while link[0] == -o_letters[-1]:
                link = [rng.choice((2, -2))]
            # p ends on the line of the coset o*link<a>, so samples move its
            # projection at once and the tail fit has points; with an empty
            # fit `tail` stops with a TypeError (c_prime is None), a known
            # defect that these inputs are not meant to measure
            p_letters = o_letters + link + [1] * (t + rng.randint(1, 2))
            _job(jobs, "cli", {
                "argv": ["tail", "--seed", _seed(rng), "--kernel", KERNELS[i % 2],
                         "--samples", "100", "--steps", "48", "--T", str(t),
                         "--o", spell(o_letters, "ab"), "--p", spell(p_letters, "ab")],
                "steps": 100 * 48, "expect": r"C' = \d",
            })
        for i in range(45):
            _job(jobs, "cli", {
                "argv": ["progress", "--seed", _seed(rng), "--kernel", KERNELS[i % 2],
                         "--samples", "50", "--n", "50,100,200", "--C", ("3", "4", "3,6")[i % 3]],
                "steps": 50 * 200, "expect": r"n=200: drift \d",
            })
    elif workload == "chain-pushforward":
        kernel = ["--kernel", "srw-branch-swap"]
        for i in range(30):
            _job(jobs, "cli", {
                "argv": ["progress", "--seed", _seed(rng), *kernel, "--samples", "16",
                         "--n", "20,40", "--C", ("2", "3", "4")[i % 3]],
                "steps": 16 * 40, "expect": r"n=40: drift \d",
            })
        for _ in range(60):
            _job(jobs, "cli", {
                "argv": ["simulate", "--seed", _seed(rng), *kernel, "--steps", "100", "--count", "2",
                         "--start", free_word(rng, rng.randint(0, 3))],
                "steps": 2 * 100, "expect": r"2 trajectorie\(s\) of 100 step\(s\)",
            })
        for _ in range(8):
            grid = sorted(rng.sample(range(1, 6), 3)) + [6]
            _job(jobs, "nonamenability", {"n": grid})
        for _ in range(10):
            _job(jobs, "irreducibility", {
                "s": free_word(rng, rng.randint(1, 2)), "k_max": 3,
                "base": ["e", free_word(rng, 2), free_word(rng, 3)],
            })
        for _ in range(10):
            q = free_letters(rng, rng.randint(0, 3))
            _job(jobs, "reach", {
                "q": spell(q, "ab"),
                "p": spell(q + free_letters(rng, 3, avoid_first=q[-1] if q else 0), "ab"),
            })
    elif workload == "exact-geometry":
        _job(jobs, "cli", {
            "argv": ["htsum", "--model", Z2_Z, "--space", "bass-serre",
                     "--g", free_product_word(rng, 2, first=0, unit=True), "--o", "e",
                     "--p", free_product_word(rng, 5, unit=True), "--T", "2", "--window", "2"],
            "codes": [2], "expect": r"^$",
        })
        for i in range(2):
            _job(jobs, "cli", {
                "argv": ["incompat", "--model", Z2_Z, "--flat-size", "3", "--tail", "5", "--L", "8",
                         "--kappa", str(1 + i)],
                "expect": r"witness|inconclusive",
            })
        _job(jobs, "cli", {
            "argv": ["fibers", "--model", Z2_Z_X_Z, "--radius", "3",
                     "--x", _z2zz_word(rng), "--y", _z2zz_word(rng), "--bound", "4"],
            "expect": r"^verdict: ",
        })
        for _ in range(15):
            _job(jobs, "cli", {
                "argv": ["project", "--model", Z2_Z, "--space", "bass-serre",
                         "--x", free_product_word(rng, 4),
                         "--axis-root", free_product_word(rng, 2, first=0),
                         "--axis-rep", free_product_word(rng, 1)],
                "expect": r"\(scan-axis\)$",
            })
        for i in range(12):
            _job(jobs, "cli", {
                "argv": ["htsum", "--g", ("a", "b", "a b", "a b^-1")[i % 4], "--o", free_word(rng, 2),
                         "--p", free_word(rng, 8), "--T", ("3", "4")[i % 2]],
                "expect": r"sum over threshold-\d cosets = \d+$",
            })
        for i in range(30):
            _job(jobs, "cli", {
                "argv": ["order", "--g", ("a", "b")[i % 2], "--o", free_word(rng, 1),
                         "--p", free_word(rng, 9), "--T", "3"],
                "expect": r"order criteria: ",
            })
        for i in range(15):
            _job(jobs, "cli", {
                "argv": ["pivot", "--alpha", free_word(rng, 6), "--h", ("a", "b", "a b")[i % 3],
                         "--h-rep", free_word(rng, 2), "--s", "3", "--bound", "2"],
                # exit 2 is the documented "no pivot within bound" answer
                "codes": [0, 2], "expect": r"^pivot: ",
            })
        for i in range(10):
            _job(jobs, "cli", {
                "argv": ["cone", "--model", F2, "--radius", "4", "--cone", free_word(rng, 1 + i % 2)],
                "expect": r"coned ball: 161 vertices",
            })
        for i in range(5):
            _job(jobs, "cone-delta", {
                "root": free_word(rng, 1 + i % 2), "radius": 4, "points": 40,
                "seed": int(_seed(rng)),
            })
        for _ in range(8):
            _job(jobs, "cli", {
                "argv": ["morse", "--segment", free_word(rng, 5), "--grid", SEGMENT_GRID, "--window", "3"],
                "expect": r"M\(2,2\) = \d+",
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def _z2zz_word(rng: random.Random) -> str:
    """A word of (Z^2 * Z) x Z of length <= 3, so it lies in the radius-3 ball."""
    letters = [rng.choice((1, -1, 2, -2, 3, -3, 4, -4)) for _ in range(rng.randint(1, 3))]
    return spell(letters, "xyzt")


# ---------------------------------------------------------------------------
# execution


def digest(text: str) -> str:
    """sha256 of the result text without `#` header lines and `wrote` lines.

    Headers carry the version and the config digest, which change with
    metadata-only edits; the rest is the answer the job computes.
    """
    kept = [ln for ln in text.splitlines() if not ln.startswith("#") and not ln.startswith("wrote ")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def run_job(env: dict, job: dict) -> tuple[int, str]:
    """Execute one job; returns (exit code, result text)."""
    kind = job["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job["argv"]))
        return code, out.getvalue()
    return 0, _LIBRARY_JOBS[kind](env, job)


def _bounded_proj(env: dict, job: dict) -> str:
    f2 = env["F2"]
    cfg = experiments.parse_config("", kernel=job["kernel"], seed=job["seed"], samples=job["samples"])
    cell = (groups.parse_word(f2, job["p"]), groups.parse_word(f2, job["h"]))
    res = experiments.bounded_projection_experiment(cfg, cells=[cell], n_list=job["n"], bound=2.0)
    return res.csv()


def _nonamenability(env: dict, job: dict) -> str:
    rep = chains.estimate_nonamenability(env["kernel"], job["n"])
    lines = [f"{n},{v!r},{m}" for n, v, m in rep.entries]
    lines.append(f"rho={rep.rho_head!r},{rep.rho_tail!r},{rep.rho_hat!r} {rep.verdict}")
    return "\n".join(lines) + "\n"


def _irreducibility(env: dict, job: dict) -> str:
    f2 = env["F2"]
    base = [groups.parse_word(f2, b) for b in job["base"]]
    res = chains.check_irreducibility(env["kernel"], groups.parse_word(f2, job["s"]), job["k_max"], base)
    return f"target={res.target} eps={res.eps} k={res.k}\n"


def _reach(env: dict, job: dict) -> str:
    f2 = env["F2"]
    res = chains.reach_probability(env["kernel"], groups.parse_word(f2, job["p"]), groups.parse_word(f2, job["q"]))
    table = " ".join(f"{t}:{p}" for t, p in res.table)
    return f"t={res.t} p={res.probability} eps0={res.eps0!r}\n{table}\n"


def _cone_delta(env: dict, job: dict) -> str:
    f2 = env["F2"]
    family = spaces.cyclic_coset_family(f2, groups.parse_word(f2, job["root"]))
    graph = spaces.cone_off(f2, job["radius"], [family])
    pick = random.Random(job["seed"]).sample(range(len(graph)), job["points"])
    est = spaces.delta_estimate(graph, [graph.vertices[i] for i in sorted(pick)])
    return (
        f"vertices={len(graph)} cliques={len(graph.cliques)} delta={est.value!r} "
        f"quadruples={est.quadruples} exhaustive={est.exhaustive}\n"
    )


_LIBRARY_JOBS = {
    "bounded-proj": _bounded_proj,
    "nonamenability": _nonamenability,
    "irreducibility": _irreducibility,
    "reach": _reach,
    "cone-delta": _cone_delta,
}

_LIBRARY_EXPECT = {
    "bounded-proj": r"^0,.*,200,[01]",
    "nonamenability": r"exact-dp",
    "irreducibility": r"^target=.* k=\d",
    "reach": r"^t=\d+ p=",
    "cone-delta": r"^vertices=161 ",
}


def check_shape(job: dict, text: str) -> bool:
    """Seed-independent sanity check of the result text's form."""
    pattern = job.get("expect") or _LIBRARY_EXPECT[job["kind"]]
    return re.search(pattern, text, re.MULTILINE) is not None


def expected_codes(job: dict) -> list[int]:
    return job.get("codes", [0])
