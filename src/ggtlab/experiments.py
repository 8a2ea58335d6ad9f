"""Seeded statistical experiments tying chains to projections.

Everything is driven by a plain-text config with a mandatory seed, checked
when the config is built.  Each experiment samples one `chains.ensemble` of
walks per seed: one generator re-keyed per trajectory, the uniforms drawn in
blocks of walks, every trajectory on its own counter-based stream, so
outputs are byte-identical across runs.  Linear progress steps each walk to
its checkpoints and reads the displacement of its letters.  Bounded
projections and tail sums read one AxisTracker per coset, which follows a
walk's letter stream on its own reduced word and overlap with the coset's
line in one loop and returns the line key after each letter: bounded
projections read the nearest coset positions of the keys at their
checkpoints, and tail sums read every step's projection distance from the
spread memoized by key.

numpy loads at first use, inside the experiments that sample or count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import __version__
from .chains import Kernel, branch_swap, ensemble, fit_log_linear, push_forward, srw
from .groups import FreeGroup, GroupModel, Word, ball, model_from_descriptor, parse_grid, parse_word
from .projections import Axis, _line_foot, axis_of, enumerate_cosets, nearest_positions
from .spaces import OrbitMap, top_level_orbit


class ExperimentError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "F2"
    kernel: str = "srw"
    g: str = "a"
    threshold: int = 4
    c_grid: tuple[float, ...] = (4.0,)
    n_grid: tuple[int, ...] = (50, 100, 200, 400)
    samples: int = 1000
    seed: int | None = None

    def __post_init__(self):
        # below 2^63, so the per-cell seed offsets stay inside Philox's 64-bit key
        if self.seed is not None and not 0 <= self.seed < 2**63:
            raise ExperimentError(f"seed must lie in [0, 2^63), got {self.seed}")
        if self.samples < 1:
            raise ExperimentError(f"samples must be >= 1, got {self.samples}")
        if not self.n_grid or min(self.n_grid) < 1:
            raise ExperimentError(f"n grid must be positive integers, got {self.n_grid}")
        if not self.c_grid or not all(0 < c < math.inf for c in self.c_grid):
            raise ExperimentError(f"C grid must be positive finite numbers, got {self.c_grid}")
        for name, grid in (("n", self.n_grid), ("C", self.c_grid)):
            if len(set(grid)) != len(grid):
                raise ExperimentError(f"{name} grid repeats a value: {grid}")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ExperimentError("stochastic experiments require an explicit seed")
        return self.seed

    def to_text(self) -> str:
        return (
            f"model = {self.model}\n"
            f"kernel = {self.kernel}\n"
            f"g = {self.g}\n"
            f"T = {self.threshold}\n"
            f"C = {','.join(str(c) for c in self.c_grid)}\n"
            f"n = {','.join(str(n) for n in self.n_grid)}\n"
            f"samples = {self.samples}\n"
            f"seed = {self.seed}\n"
        )

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]

    def csv_header(self) -> str:
        """The first line of every experiment CSV."""
        return f"# config={self.digest()} seed={self.seed} version={__version__}"


def _config_int(key: str, text: str) -> int:
    """The int value of a config key, refused under the key's name."""
    try:
        return int(text)
    except ValueError:
        raise ExperimentError(f"config key {key} must be an int value, got {text!r}") from None


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Key = value lines; '#' starts a comment; overrides win."""
    values: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ExperimentError(f"bad config line {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    cfg = ExperimentConfig()
    mapping = {
        "model": ("model", str),
        "kernel": ("kernel", str),
        "g": ("g", str),
        "T": ("threshold", lambda s: _config_int("T", s)),
        "C": ("c_grid", lambda s: parse_grid("config key C", s, float)),
        "n": ("n_grid", lambda s: parse_grid("config key n", s, int)),
        "samples": ("samples", lambda s: _config_int("samples", s)),
        "seed": ("seed", lambda s: None if s == "None" else _config_int("seed", s)),
    }
    for key, val in values.items():
        if key not in mapping:
            raise ExperimentError(f"unknown config key {key!r}")
        attr, conv = mapping[key]
        cfg = replace(cfg, **{attr: conv(val)})
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def resolve_kernel(model: GroupModel, spec: str) -> Kernel:
    if spec == "srw":
        return srw(model)
    if spec.startswith("lazy:"):
        try:
            stay = Fraction(spec[5:])
        except (ValueError, ZeroDivisionError):
            raise ExperimentError(f"kernel spec {spec!r}: the laziness must be a fraction such as 1/3") from None
        return srw(model, stay=stay)
    if spec == "srw-branch-swap":
        if not isinstance(model, FreeGroup):
            raise ExperimentError("branch-swap push-forward needs a free group")
        return push_forward(srw(model), branch_swap(model))
    raise ExperimentError(f"unknown kernel spec {spec!r}")


def resolve_setup(config: ExperimentConfig) -> tuple[GroupModel, OrbitMap, Kernel]:
    model = model_from_descriptor(config.model)
    orbit = top_level_orbit(model)
    if not orbit.is_identity:
        raise ExperimentError("experiments are shipped for free-group Cayley trees")
    return model, orbit, resolve_kernel(model, config.kernel)


# ---------------------------------------------------------------------------
# fast coupled walks


class _Spreads(dict):
    """Spreads of line keys against base positions, computed at first read:
    the positions' max - min, read as 0 where they are the base's own."""

    def __init__(self, phase: int, q: int, base: tuple[int, ...]):
        super().__init__()
        self.phase, self.q, self.base = phase, q, base

    def __missing__(self, key: int) -> int:
        pos, base = nearest_positions(key, self.phase, self.q), self.base
        spread = self[key] = 0 if pos == base else max(pos + base) - min(pos + base)
        return spread


class AxisTracker:
    """The projection of a free-group walk onto an axis line, followed letter by letter.

    Built at the walk's start, it holds the reduced letters of
    anchor^-1 * start on a stack with a 0 at its bottom, their overlap
    lengths `fwd` and `bwd` with the two line directions, and the start's
    nearest coset positions `base`.  A state's nearest positions follow
    from its line key, `fwd or -bwd`, and the coset phase:
    `nearest_positions(key, phase, q)`.  `keys` follows one walk's letter
    stream from the start and returns the key after each letter; `spreads`
    reads them through a memo of the spread against `base` shared by all
    the tracker's walks.
    """

    def __init__(self, axis: Axis, start: Word):
        anchor, direction, phase = axis.line
        self.q = q = len(direction)
        self.phase = phase
        self.ahead = direction
        self.behind = tuple(-direction[-1 - i] for i in range(q))
        self.stack = [0, *(anchor.inverse() * start).letters]
        # a cyclically reduced direction meets the stack forwards or backwards, not both
        foot, _ = _line_foot(anchor, direction, start)
        self.foot = foot  # the start's line key
        self.fwd, self.bwd = max(foot, 0), max(-foot, 0)
        self.base = nearest_positions(foot, phase, q)
        self.memo = _Spreads(phase, q, self.base)

    def keys(self, letters: Sequence[int]) -> list[int]:
        """The line key after each of `letters`, one walk from the start.

        The stack and overlaps live in locals, so the tracker itself stays
        at the start for the next walk; pushes and pops are O(1), and a 0
        letter repeats the last key.
        """
        stack, fwd, bwd = self.stack.copy(), self.fwd, self.bwd
        ahead, behind, q = self.ahead, self.behind, self.q
        push, pop, top = stack.append, stack.pop, stack[-1]
        n = len(stack) - 1
        keys = []
        key = keys.append
        for x in letters:
            if x == -top:
                if x:
                    pop()
                    top = stack[-1]
                    n -= 1
                    if fwd > n:
                        fwd = n
                    if bwd > n:
                        bwd = n
            elif x:
                push(x)
                top = x
                if fwd == n and x == ahead[n % q]:
                    fwd += 1
                if bwd == n and x == behind[n % q]:
                    bwd += 1
                n += 1
            key(fwd or -bwd)
        return keys

    def spreads(self, letters: Sequence[int], width: int) -> list[int]:
        """The spread after each step of `letters`, `width` letters a step."""
        return list(map(self.memo.__getitem__, self.keys(letters)[width - 1 :: width]))


# ---------------------------------------------------------------------------
# linear progress


@dataclass(frozen=True)
class ProgressRow:
    n: int
    c: float
    probability: float
    std_error: float
    successes: int


@dataclass(frozen=True)
class ProgressResult:
    config: ExperimentConfig
    rows: tuple[ProgressRow, ...]
    drifts: tuple[tuple[int, float], ...]
    fit: tuple[float, float] | None  # failure-decay (slope, R^2)

    def csv(self) -> str:
        lines = [
            self.config.csv_header(),
            "n,C,probability,std_error,successes,samples",
        ]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.c:.10g},{r.probability:.10g},{r.std_error:.10g},{r.successes},{self.config.samples}"
            )
        return "\n".join(lines) + "\n"


def linear_progress_experiment(config: ExperimentConfig) -> ProgressResult:
    """Monte Carlo estimates of P[d_X(o, w_n) >= n/C] with one shared
    trajectory ensemble recorded at the n-grid checkpoints."""
    import numpy as np

    seed = config.require_seed()
    model, orbit, kernel = resolve_setup(config)
    grid = sorted(config.n_grid)
    dists = np.zeros((config.samples, len(grid)), dtype=np.int64)
    walks = ensemble(kernel, model.identity(), seed, range(config.samples), grid[-1])
    for i, walk in enumerate(walks):
        prev = 0
        for j, n in enumerate(grid):
            walk.steps(n - prev)
            prev = n
            dists[i, j] = orbit.displacement(walk.current())
    rows = []
    for j, n in enumerate(grid):
        col = dists[:, j]
        for c in config.c_grid:
            hits = int(np.sum(col >= n / c))
            p_hat = hits / config.samples
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / config.samples)
            rows.append(ProgressRow(n, c, p_hat, se, hits))
    drifts = tuple((n, float(dists[:, j].mean()) / n) for j, n in enumerate(grid))
    # failure-probability decay, cells with at least 10 failures
    fit = fit_log_linear([
        (r.n, (config.samples - r.successes) / config.samples)
        for r in rows
        if config.samples - r.successes >= 10
    ])
    return ProgressResult(config, tuple(rows), drifts, fit)


# ---------------------------------------------------------------------------
# bounded projections


@dataclass(frozen=True)
class BoundedProjectionResult:
    config: ExperimentConfig
    cells: tuple[tuple[Word, Word], ...]
    bound: float
    table: dict
    min_probability: float

    def csv(self) -> str:
        lines = [
            self.config.csv_header(),
            "cell,p,h,n,probability",
        ]
        for (ci, n), prob in sorted(self.table.items()):
            p, h = self.cells[ci]
            lines.append(f"{ci},{p},{h},{n},{prob:.10g}")
        return "\n".join(lines) + "\n"


def default_projection_cells(config: ExperimentConfig) -> list[tuple[Word, Word]]:
    import numpy as np

    model, _, _ = resolve_setup(config)
    axis = axis_of(parse_word(model, config.g))
    rng = np.random.default_rng(config.require_seed() ^ 0x9E3779B9)
    starts = ball(model, model.identity(), 2)
    shifts = ball(model, model.identity(), 4)
    cells: list[tuple[Word, Word]] = []
    seen = set()
    while len(cells) < 20:
        p = starts[int(rng.integers(len(starts)))]
        h = shifts[int(rng.integers(len(shifts)))]
        key = (p.letters, axis.translate(h).rep.letters)
        if key in seen:
            continue
        seen.add(key)
        cells.append((p, h))
    return cells


def bounded_projection_experiment(
    config: ExperimentConfig,
    bound: float,
    cells: Sequence[tuple[Word, Word]] | None = None,
    n_list: Sequence[int] | None = None,
) -> BoundedProjectionResult:
    """Per-cell probability that the walk's projection stays near its start.

    Each cell fixes a start p and a coset translate h; the estimated quantity
    is P[d_{h<root>}(p, w_n) <= bound] for every n in the grid, re-using one
    ensemble per cell via checkpoints.  One AxisTracker per cell follows each
    walk's letter stream, and a checkpoint reads the nearest coset positions
    of its line key; the distance is the max - min of those positions and
    p's own, so a tie reads its two points' gap.
    """
    seed = config.require_seed()
    if not 0 <= bound < math.inf:
        raise ExperimentError(f"bound must be a finite number >= 0, got {bound}")
    model, _, kernel = resolve_setup(config)
    axis = axis_of(parse_word(model, config.g))
    if kernel.qi is not None:
        raise ExperimentError("bounded-projection experiment needs an invariant kernel")
    if cells is None:
        cells = default_projection_cells(config)
    ns = tuple(sorted(n_list if n_list is not None else (10, 25, 50, 100, 200)))
    if ns and ns[0] < 0:
        raise ExperimentError(f"checkpoints must be >= 0, got {ns[0]}")
    horizon = max(ns, default=0)
    table: dict = {}
    for ci, (p, h) in enumerate(cells):
        tracker = AxisTracker(axis.translate(h), p)
        near = {}  # line key -> whether the positions there lie within `bound` of p's
        hits = [0] * len(ns)
        for walk in ensemble(kernel, p, seed + 1000 * ci, range(config.samples), horizon):
            keys = tracker.keys(walk.letters(horizon))
            for j, n in enumerate(ns):
                key = keys[n * walk.width - 1] if n else tracker.foot
                if key not in near:
                    pos = nearest_positions(key, tracker.phase, tracker.q) + tracker.base
                    near[key] = max(pos) - min(pos) <= bound
                hits[j] += near[key]
        for j, n in enumerate(ns):
            table[(ci, n)] = hits[j] / config.samples
    min_prob = min(table.values())
    return BoundedProjectionResult(config, tuple(cells), bound, table, float(min_prob))


# ---------------------------------------------------------------------------
# tail curves


@dataclass(frozen=True)
class TailCurve:
    config: ExperimentConfig
    o: Word
    p: Word
    n: int
    t_values: tuple[int, ...]
    g_counts: tuple[int, ...]
    f_counts: tuple[int, ...]
    samples: int
    c_prime: float | None

    def g(self) -> np.ndarray:
        import numpy as np

        return np.array(self.g_counts) / self.samples

    def f(self) -> np.ndarray:
        import numpy as np

        return np.array(self.f_counts) / self.samples

    def envelope_ok(self) -> bool:
        """Whether g(t) <= 2 exp(-t/C') at every t with at least 10 successes."""
        if self.c_prime is None:
            return False
        g = self.g()
        for t, cnt in zip(self.t_values, self.g_counts):
            if cnt >= 10 and g[t] > 2 * math.exp(-t / self.c_prime) + 1e-12:
                return False
        return True

    def csv(self) -> str:
        lines = [
            f"{self.config.csv_header()} o={self.o} p={self.p} n={self.n} Cprime={self.c_prime}",
            "t,g,f,g_count,f_count,samples",
        ]
        g, f = self.g(), self.f()
        for t in self.t_values:
            lines.append(
                f"{t},{g[t]:.10g},{f[t]:.10g},{self.g_counts[t]},{self.f_counts[t]},{self.samples}"
            )
        return "\n".join(lines) + "\n"


def _at_least(values: list[int], t_max: int) -> np.ndarray:
    """counts[t] = how many of `values` are >= t, for t = 0, ..., t_max."""
    import numpy as np

    return np.bincount(np.minimum(values, t_max), minlength=t_max + 1)[::-1].cumsum()[::-1]


def tail_experiment(
    config: ExperimentConfig,
    o: Word | None,
    p: Word | None,
    n: int,
) -> TailCurve:
    """Estimate g(t) = P[some partial sum >= t] and f(t) = P[final sum >= t]
    for t <= 3n/4.

    Both curves are computed on the same trajectory ensemble, so the
    containment g >= f holds exactly sample-by-sample.  Each sample's
    letter stream goes once through each coset's AxisTracker, whose keys,
    read every J letters through the spread memo, sum to the distance sum
    after every step; the counts come from the samples' running maxima and
    final sums after the loop.  The reported C' is
    the larger of the least-squares decay fit of g and the minimal constant
    making the 2 exp(-t/C') envelope hold at every cell with enough
    successes.  A coset search that `enumerate_cosets` cannot certify is
    refused (CertificationError) before any walk is drawn.
    """
    seed = config.require_seed()
    if n < 1:
        raise ExperimentError(f"tail walks need at least one step, got {n}")
    model, orbit, kernel = resolve_setup(config)
    if kernel.qi is not None:
        raise ExperimentError("tail experiment needs an invariant kernel")
    if o is None:
        o = model.identity()
    if p is None:
        p = parse_word(model, "b a^5 b")
    record = enumerate_cosets(orbit, parse_word(model, config.g), o, p, config.threshold)
    t_max = 3 * n // 4
    trackers = [AxisTracker(e.axis, p) for e in record.entries]
    maxima, finals = [], []
    for walk in ensemble(kernel, p, seed, range(config.samples), n):
        letters = walk.letters(n)
        rows = [tr.spreads(letters, walk.width) for tr in trackers] or [[0]]
        # the threshold-coset distance sum after each step
        sums = rows[0] if len(rows) == 1 else list(map(sum, zip(*rows)))
        maxima.append(max(sums))
        finals.append(sums[-1])
    g_counts, f_counts = _at_least(maxima, t_max), _at_least(finals, t_max)
    g_hat = g_counts / config.samples
    fit_pts = [(t, g_hat[t]) for t in range(1, t_max + 1) if g_counts[t] >= 10]
    fitted = fit_log_linear(fit_pts)
    c_fit = -1.0 / fitted[0] if fitted and fitted[0] < 0 else None
    c_env = [t / math.log(2 / g_hat[t]) for t, _ in fit_pts if g_hat[t] < 2]
    c_prime = max(c_env + ([] if c_fit is None else [c_fit]), default=None)
    return TailCurve(
        config,
        o,
        p,
        n,
        tuple(range(t_max + 1)),
        tuple(int(x) for x in g_counts),
        tuple(int(x) for x in f_counts),
        config.samples,
        c_prime,
    )


# ---------------------------------------------------------------------------
# recursion check


@dataclass(frozen=True)
class RecursionVerdict:
    t: int
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class RecursionReport:
    verdicts: tuple[RecursionVerdict, ...]
    implied_c: float | None
    fitted_c: float | None

    @property
    def pass_fraction(self) -> float:
        if not self.verdicts:
            return 1.0
        return sum(v.passed for v in self.verdicts) / len(self.verdicts)


def check_recursion_inputs(n: int, gap: int, eps: float) -> None:
    """Refuse a recursion check on the curve of an n-step tail experiment
    that has no t with [t - gap, t + gap] inside [0, 3n/4], or whose eps is
    negative, infinite or nan (at eps = 0 the check passes vacuously)."""
    if gap < 1:
        raise ExperimentError(f"gap must be >= 1, got {gap}")
    if not 0 <= eps < math.inf:
        raise ExperimentError(f"eps must be a finite number >= 0, got {eps}")
    if 2 * gap > 3 * n // 4:
        raise ExperimentError("curve does not cover [t - gap, t + gap]")


def recursion_check(curve: TailCurve, gap: int, eps: float) -> RecursionReport:
    """Check eps * g(t) <= f(t - gap) - f(t + gap) at 95% confidence per t.

    The implied decay constant 2*gap / log(1 + eps) is reported next to the
    curve's fitted constant.
    """
    check_recursion_inputs(curve.n, gap, eps)
    ts = [t for t in curve.t_values if t - gap >= 0 and t + gap <= curve.t_values[-1]]
    g, f = curve.g(), curve.f()
    nsamp = curve.samples
    verdicts = []
    for t in ts:
        lhs = eps * g[t]
        rhs = f[t - gap] - f[t + gap]
        se_lhs = eps * math.sqrt(max(g[t] * (1 - g[t]), 0) / nsamp)
        se_rhs = math.sqrt(
            max(f[t - gap] * (1 - f[t - gap]), 0) / nsamp
            + max(f[t + gap] * (1 - f[t + gap]), 0) / nsamp
        )
        passed = lhs <= rhs + 1.96 * (se_lhs + se_rhs)
        verdicts.append(RecursionVerdict(t, float(lhs), float(rhs), bool(passed)))
    implied = 2 * gap / math.log(1 + eps) if eps > 0 else None
    return RecursionReport(tuple(verdicts), implied, curve.c_prime)
