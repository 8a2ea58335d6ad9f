"""Seeded statistical experiments tying chains to projections.

Everything is driven by a plain-text config with a mandatory seed, checked
when the config is built.  Each experiment samples one `chains.ensemble` of
walks per seed: one generator re-keyed per trajectory, the uniforms drawn in
blocks of walks, every trajectory on its own counter-based stream, so
outputs are byte-identical across runs.  Bounded projections read the
nearest coset positions of the walk's state at their checkpoints
(`projections.line_positions`).  Tail sums need every step, so there the
walk hands its increments to one AxisTracker per threshold coset, which
follows the reduced word and its overlap with the coset's line in one pass;
the per-step projection distance is one lookup of the spread memoized by
that overlap.

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
from .groups import FreeGroup, GroupModel, Word, ball, model_from_descriptor, parse_word
from .projections import Axis, _lcp, _line_data, _spell, axis_of, enumerate_cosets, line_positions, nearest_positions
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
        "T": ("threshold", int),
        "C": ("c_grid", lambda s: tuple(float(x) for x in s.split(","))),
        "n": ("n_grid", lambda s: tuple(int(x) for x in s.split(","))),
        "samples": ("samples", int),
        "seed": ("seed", lambda s: None if s == "None" else int(s)),
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
            return srw(model, stay=Fraction(spec.split(":", 1)[1]))
        except ZeroDivisionError:
            raise ExperimentError(f"laziness {spec[5:]!r} has a zero denominator") from None
    if spec == "srw-branch-swap":
        if not isinstance(model, FreeGroup):
            raise ExperimentError("branch-swap push-forward needs a free group")
        return push_forward(srw(model), branch_swap(model))
    raise ExperimentError(f"unknown kernel spec {spec!r}")


def resolve_setup(config: ExperimentConfig) -> tuple[GroupModel, OrbitMap, Kernel, Axis]:
    model = model_from_descriptor(config.model)
    orbit = top_level_orbit(model)
    if not orbit.is_identity:
        raise ExperimentError("experiments are shipped for free-group Cayley trees")
    kernel = resolve_kernel(model, config.kernel)
    axis = axis_of(orbit.space, parse_word(model, config.g))
    return model, orbit, kernel, axis


# ---------------------------------------------------------------------------
# fast coupled walks


class AxisTracker:
    """The projection of a free-group walk onto an axis line, followed step by step.

    Built at the walk's start, it holds the reduced letters of
    anchor^-1 * start, their overlap lengths `fwd` and `bwd` with the two
    line directions, and the start's nearest coset positions `base`.  The
    nearest positions of any state follow from its overlap and the coset
    phase, so the spread of a state's positions against `base` is a function
    of `fwd or -bwd`, memoised on the tracker across walks.
    """

    def __init__(self, model: GroupModel, axis: Axis, start: Word):
        anchor, direction, phase = _line_data(model, axis.root.letters, axis.rep.letters)
        self.q = len(direction)
        self.dir = direction
        self.phase = phase
        self.stack = list((anchor.inverse() * start).letters)
        n = len(self.stack)
        self.fwd = _lcp(self.stack, _spell(direction, n))
        self.bwd = _lcp(self.stack, _spell(direction, -n))
        self.base = nearest_positions(self.fwd or -self.bwd, phase, self.q)
        self.memo: dict[int, int] = {}

    def _spread(self, key: int) -> int:
        """The spread of the positions at line key `key` against `base`
        (0 where they coincide), memoised."""
        pos, base = nearest_positions(key, self.phase, self.q), self.base
        spread = self.memo[key] = 0 if pos == base else max(pos + base) - min(pos + base)
        return spread

    def spreads(self, increments: Sequence[tuple[int, ...]]) -> list[int]:
        """The spread after each of `increments`, one walk from the start.

        The stack and overlaps live in locals, so the tracker itself stays
        at the start for the next walk; pushes and pops are O(1), and a
        letterless (lazy) step repeats the last spread.
        """
        stack, fwd, bwd = self.stack.copy(), self.fwd, self.bwd
        direction, q, memo = self.dir, self.q, self.memo
        n = len(stack)
        spread = 0  # the start's own positions are `base`
        out = []
        for inc in increments:
            if inc:
                for letter in inc:
                    if n and stack[-1] == -letter:
                        stack.pop()
                        n -= 1
                        if fwd > n:
                            fwd = n
                        if bwd > n:
                            bwd = n
                    else:
                        stack.append(letter)
                        if fwd == n and letter == direction[n % q]:
                            fwd += 1
                        if bwd == n and letter == -direction[(-1 - n) % q]:
                            bwd += 1
                        n += 1
                key = fwd or -bwd
                spread = memo[key] if key in memo else self._spread(key)
            out.append(spread)
        return out


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
    model, orbit, kernel, _ = resolve_setup(config)
    grid = sorted(config.n_grid)
    dists = np.zeros((config.samples, len(grid)), dtype=np.int64)
    walks = ensemble(kernel, model.identity(), seed, range(config.samples), grid[-1])
    for i, walk in enumerate(walks):
        prev = 0
        for j, n in enumerate(grid):
            walk.steps(n - prev)
            prev = n
            dists[i, j] = len(walk.state())
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

    model, orbit, _, axis = resolve_setup(config)
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
    cells: Sequence[tuple[Word, Word]] | None = None,
    n_list: Sequence[int] | None = None,
    bound: float = 2.0,
) -> BoundedProjectionResult:
    """Per-cell probability that the walk's projection stays near its start.

    Each cell fixes a start p and a coset translate h; the estimated quantity
    is P[d_{h<root>}(p, w_n) <= bound] for every n in the grid, re-using one
    ensemble per cell via checkpoints.
    """
    import numpy as np

    seed = config.require_seed()
    if not 0 <= bound < math.inf:
        raise ExperimentError(f"bound must be a finite number >= 0, got {bound}")
    _, _, kernel, axis = resolve_setup(config)
    if kernel.qi is not None:
        raise ExperimentError("bounded-projection experiment needs an invariant kernel")
    if cells is None:
        cells = default_projection_cells(config)
    ns = tuple(sorted(n_list if n_list is not None else (10, 25, 50, 100, 200)))
    table: dict = {}
    for ci, (p, h) in enumerate(cells):
        cell_axis = axis.translate(h)
        base = line_positions(cell_axis, p)[0]
        hits = np.zeros(len(ns), dtype=np.int64)
        for walk in ensemble(kernel, p, seed + 1000 * ci, range(config.samples), max(ns, default=0)):
            prev = 0
            for j, n in enumerate(ns):
                walk.steps(n - prev)
                prev = n
                pos = line_positions(cell_axis, walk.state())[0] + base
                if max(pos) - min(pos) <= bound:
                    hits[j] += 1
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
    o: Word | None = None,
    p: Word | None = None,
    n: int = 200,
) -> TailCurve:
    """Estimate g(t) = P[some partial sum >= t] and f(t) = P[final sum >= t]
    for t <= 3n/4.

    Both curves are computed on the same trajectory ensemble, so the
    containment g >= f holds exactly sample-by-sample.  Each sample's
    increments go once through each coset's AxisTracker, whose spreads sum
    to the distance sum after every step; the counts come from the samples'
    running maxima and final sums after the loop.  The reported C' is
    the larger of the least-squares decay fit of g and the minimal constant
    making the 2 exp(-t/C') envelope hold at every cell with enough
    successes.  A coset search that `enumerate_cosets` cannot certify is
    refused (CertificationError) before any walk is drawn.
    """
    seed = config.require_seed()
    if n < 1:
        raise ExperimentError(f"tail walks need at least one step, got {n}")
    model, orbit, kernel, _ = resolve_setup(config)
    if kernel.qi is not None:
        raise ExperimentError("tail experiment needs an invariant kernel")
    if o is None:
        o = model.identity()
    if p is None:
        p = parse_word(model, "b a^5 b")
    record = enumerate_cosets(orbit, parse_word(model, config.g), o, p, config.threshold)
    t_max = 3 * n // 4
    trackers = [AxisTracker(model, e.axis, p) for e in record.entries]
    maxima, finals = [], []
    for walk in ensemble(kernel, p, seed, range(config.samples), n):
        steps = walk.increments(n)
        rows = [tr.spreads(steps) for tr in trackers] or [[0]]
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
