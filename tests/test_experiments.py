"""Config plumbing, fast walks, and the statistical experiment harness."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ggtlab
from ggtlab import chains, experiments
from ggtlab.chains import (
    HORIZON_CAP,
    ChainError,
    LeftTranslation,
    _pick,
    ensemble,
    make_invariant,
    push_forward,
    simulate,
    srw,
)
from ggtlab.experiments import (
    AxisTracker,
    BoundedProjectionResult,
    ExperimentConfig,
    ExperimentError,
    ProgressResult,
    TailCurve,
    bounded_projection_experiment,
    default_projection_cells,
    linear_progress_experiment,
    parse_config,
    recursion_check,
    resolve_kernel,
    tail_experiment,
)
from ggtlab.groups import Word, model_from_descriptor
from ggtlab.projections import (
    CertificationError,
    axis_of,
    coset_distance,
    line_positions,
    nearest_positions,
    project_to_set,
)
from ggtlab.spaces import top_level_orbit

from conftest import w
from oracles import drift_oracle_free_srw, trajectory_stream


# --- configs -----------------------------------------------------------------


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig(seed=3, samples=77, n_grid=(10, 20))
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert cfg.digest() == again.digest()
    assert cfg.digest() != ExperimentConfig(seed=4, samples=77, n_grid=(10, 20)).digest()


def test_config_rejects_unknown_key():
    with pytest.raises(ExperimentError):
        parse_config("modell = F2")


def test_seed_mandatory():
    with pytest.raises(ExperimentError):
        linear_progress_experiment(ExperimentConfig(seed=None))


def test_lazy_specs_name_themselves_when_refused(f2):
    for spec in ("lazy:abc", "lazy:", "lazy:1/0"):
        with pytest.raises(ExperimentError, match=rf"^kernel spec '{spec}': the laziness must be a fraction"):
            resolve_kernel(f2, spec)
    # a number outside [0, 1) is refused by the walk itself
    with pytest.raises(ChainError, match=r"^laziness must lie in \[0, 1\), got 2$"):
        resolve_kernel(f2, "lazy:2")


# --- fast walks ---------------------------------------------------------------


def test_free_walk_matches_simulate(f2):
    kernel = srw(f2)
    start = w(f2, "b a")
    jumps = [s for s, _ in kernel.measure]
    cdf = np.cumsum([float(p) for _, p in kernel.measure])
    cdf[-1] = 1.0
    for idx in range(4):
        walk = next(ensemble(kernel, start, 9, (idx,), 25))
        walk.steps(10)
        walk.steps(15)
        [traj] = simulate(kernel, start, 25, seed=9, indices=(idx,))
        assert walk.current() == traj.path[-1]
        # reference: one uniform per step through the ordered law, word products
        cur = start
        for u, state in zip(trajectory_stream(9, idx).random(25), traj.states[1:]):
            cur = cur * jumps[min(int(np.searchsorted(cdf, u, side="right")), len(jumps) - 1)]
            assert cur == state


def tail_distance(orbit, axis, p, x) -> int:
    """The coset distance of p and x, read as 0 where they project to the
    same points, as the tail sums read it (a tie's two points are q apart)."""
    if project_to_set(orbit, x, axis).points == project_to_set(orbit, p, axis).points:
        return 0
    return coset_distance(orbit, axis, p, x)


def assert_tracked(orbit, kernel, axes, p, seed, n, distance=tail_distance):
    """Drive one tracker per axis as `tail_experiment` does, over one walk's
    letter stream, and check every step's spread against `distance`."""
    model, width = kernel.model, kernel.step_table.shape[1]
    letters = next(ensemble(kernel, p, seed, (0,), n)).letters(n)
    rows = [AxisTracker(ax, p).spreads(letters, width) for ax in axes]
    cur = p
    for j in range(n):
        cur = cur * Word(model, tuple(filter(None, letters[j * width : (j + 1) * width])))
        assert [row[j] for row in rows] == [distance(orbit, ax, p, cur) for ax in axes]


def test_tracker_matches_projection_distance(f2, f2_orbit):
    p = w(f2, "a b")
    lazy = srw(f2, Fraction(1, 3))
    # the first step of seed 0 under the lazy walk is a stay
    assert next(ensemble(lazy, p, 0, (0,), 1)).letters(1) == [0]
    for kernel in (srw(f2), lazy):
        for root, shift, seed in [("a", "b", 3), ("a b", "b^2 a", 8), ("a b", "e", 0)]:
            ax = axis_of(w(f2, root)).translate(w(f2, shift))
            # no state of these walks projects onto a tie of p's own
            assert_tracked(f2_orbit, kernel, [ax], p, seed, 150, coset_distance)


_signed = st.sampled_from([1, -1, 2, -2, 3, -3])


@given(
    st.sampled_from(["F2", "F3"]),
    st.sampled_from(["srw", "lazy:1/3", "jumps"]),
    st.lists(st.lists(_signed, min_size=1, max_size=3), min_size=1, max_size=3),
    st.lists(
        st.tuples(st.lists(_signed, min_size=1, max_size=3), st.lists(_signed, max_size=3)), min_size=1, max_size=3
    ),
    st.lists(_signed, max_size=4),
    st.integers(0, 2**32),
)
# a first step that stays (as in test_tracker_matches_projection_distance), two trackers
@example("F2", "lazy:1/3", [[1]], [([1], [2]), ([1, 2], [])], [1, 2], 0)
@settings(max_examples=60, deadline=None)
def test_trackers_match_projection_distances(desc, spec, jumps_raw, axes_raw, p_raw, seed):
    model = model_from_descriptor(desc)
    orbit = top_level_orbit(model)

    def word(raw):  # onto the model's letters
        fit = [(abs(x) - 1) % model.rank + 1 if x > 0 else -((abs(x) - 1) % model.rank + 1) for x in raw]
        return Word(model, model.normalize(tuple(fit)))

    if spec == "jumps":
        # jumps of length 2 and 3 with their inverses, uniformly weighted
        jumps = {s for raw in jumps_raw if len(s := word(raw + raw[:1])) in (2, 3)}
        assume(jumps)
        jumps |= {s.inverse() for s in jumps}
        kernel = make_invariant(model, {s: Fraction(1, len(jumps)) for s in jumps})
    else:
        kernel = resolve_kernel(model, spec)
    roots = [(word(r), word(h)) for r, h in axes_raw]
    assume(all(not r.is_identity() for r, _ in roots))
    axes = [axis_of(r).translate(h) for r, h in roots]
    assert_tracked(orbit, kernel, axes, word(p_raw), seed, 40)


def test_tracker_keys_give_line_positions(f2):
    """The nearest coset positions of a tracker's keys, at every step of
    walks by the shipped kernels and by jumps of two letters, against
    `line_positions` of the state, ties included."""
    pairs = make_invariant(f2, {w(f2, s): Fraction(1, 5) for s in ("a b", "b^-1 a^-1", "a^2", "a^-2", "e")})
    ties = 0
    for root, shift, p in [("a^2 b^2", "e", "a"), ("a^2 b^2", "b a", "a b"), ("a b", "b^2", "e"), ("a", "b", "a b")]:
        cell_axis = axis_of(w(f2, root)).translate(w(f2, shift))
        start = w(f2, p)
        tracker = AxisTracker(cell_axis, start)
        assert nearest_positions(tracker.foot, tracker.phase, tracker.q) == line_positions(cell_axis, start)[0]
        for kernel in (srw(f2), srw(f2, Fraction(1, 3)), pairs):
            width = kernel.step_table.shape[1]
            for seed in range(3):
                letters = next(ensemble(kernel, start, seed, (0,), 60)).letters(60)
                keys = tracker.keys(letters)
                cur = start
                for n in range(1, 61):
                    cur = cur * Word(f2, tuple(filter(None, letters[(n - 1) * width : n * width])))
                    pos = line_positions(cell_axis, cur)[0]
                    assert nearest_positions(keys[n * width - 1], tracker.phase, tracker.q) == pos
                    ties += len(pos) == 2
    assert ties


def test_progress_reads_the_pushed_displacement(monkeypatch, f2):
    """Under a push-forward through a left translation, progress reads
    |f(w_n)|, not the length of the walk's own word."""
    f = LeftTranslation(f2, w(f2, "a b"))
    kernel = push_forward(srw(f2), f)
    monkeypatch.setattr(experiments, "resolve_kernel", lambda model, spec: kernel)
    cfg = ExperimentConfig(samples=12, seed=4, n_grid=(3, 10))
    words = [s for s, _ in kernel.measure]
    pushed, unmapped = [], []
    for i in range(cfg.samples):
        cur, row = f.inverse().apply(f2.identity()), []
        for n, k in enumerate(_pick(kernel.cdf, trajectory_stream(4, i).random(10)).tolist(), 1):
            cur = cur * words[k]
            if n in cfg.n_grid:
                row.append(cur)
        pushed.append([len(f.apply(x)) for x in row])
        unmapped.append([len(x) for x in row])

    def drifts(dists):
        return tuple((n, float(np.array(dists)[:, j].mean()) / n) for j, n in enumerate(cfg.n_grid))

    assert linear_progress_experiment(cfg).drifts == drifts(pushed) != drifts(unmapped)


def test_walk_experiments_build_no_words_per_sample_or_step(monkeypatch, f2):
    cells = [(w(f2, "a b"), w(f2, "b a^2"))]
    built = []
    real = Word.__init__

    def counted(self, model, letters):
        built.append(1)
        real(self, model, letters)

    monkeypatch.setattr(Word, "__init__", counted)

    def words(run) -> int:
        built.clear()
        run()
        return len(built)

    for kernel in ("srw", "lazy:1/2"):
        progress, bounded = set(), set()
        for samples in (16, 32):
            for n in (200, 400):
                cfg = ExperimentConfig(kernel=kernel, samples=samples, seed=3, n_grid=(50, n))
                progress.add(words(lambda: linear_progress_experiment(cfg)))
                bounded.add(words(lambda: bounded_projection_experiment(cfg, bound=2.0, cells=cells, n_list=(50, n))))
        assert len(progress) == len(bounded) == 1


# --- drift oracle ----------------------------------------------------------------


def test_drift_oracle_small_values():
    assert drift_oracle_free_srw(1) == 1.0
    assert drift_oracle_free_srw(2) == 0.75  # 3/4 chance of radius 2


def test_drift_oracle_limit():
    assert abs(drift_oracle_free_srw(2000) - 0.5) < 0.001


def test_drift_oracle_limit_rank_three():
    # (k - 1) / k for the SRW on F_k
    assert abs(drift_oracle_free_srw(2000, rank=3) - 2 / 3) < 0.001


# --- linear progress ----------------------------------------------------------------


def test_single_step_always_moves(f2):
    cfg = ExperimentConfig(seed=2, samples=200, n_grid=(1,), c_grid=(1.0,))
    res = linear_progress_experiment(cfg)
    assert res.rows[0].probability == 1.0


def test_progress_reproducible_csv():
    cfg = ExperimentConfig(seed=21, samples=300, n_grid=(20, 40), c_grid=(4.0,))
    assert linear_progress_experiment(cfg).csv() == linear_progress_experiment(cfg).csv()


def test_progress_drift_near_oracle():
    cfg = ExperimentConfig(seed=13, samples=400, n_grid=(300,), c_grid=(4.0,))
    res = linear_progress_experiment(cfg)
    assert abs(res.drifts[0][1] - drift_oracle_free_srw(300)) < 0.03


# --- bounded projections -----------------------------------------------------------


def test_bounded_projection_zero_steps(f2):
    cfg = ExperimentConfig(seed=5, samples=50)
    cells = [(f2.identity(), w(f2, "b"))]
    res = bounded_projection_experiment(cfg, bound=2.0, cells=cells, n_list=(0, 10))
    assert res.table[(0, 0)] == 1.0


def test_bounded_projection_refuses_a_horizon_past_the_cap_before_drawing(monkeypatch, f2):
    # the CLI runs the default checkpoints; a library caller sets its own
    def fail(*args, **kwargs):
        raise AssertionError("a generator was made for a refused horizon")

    monkeypatch.setattr(chains, "trajectory_rng", fail)
    cfg = ExperimentConfig(seed=5, samples=1)
    with pytest.raises(ChainError, match="horizon"):
        bounded_projection_experiment(cfg, bound=2.0, cells=[(f2.identity(), w(f2, "b"))], n_list=(10, HORIZON_CAP + 1))


def test_bounded_projection_min_positive():
    cfg = ExperimentConfig(seed=5, samples=100)
    res = bounded_projection_experiment(cfg, bound=2.0, n_list=(10, 50))
    assert len(res.cells) == 20
    assert res.min_probability > 0


def test_default_cells_deterministic():
    cfg = ExperimentConfig(seed=5)
    a = default_projection_cells(cfg)
    b = default_projection_cells(cfg)
    assert a == b


# --- tail curves ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_curve():
    cfg = ExperimentConfig(seed=6, samples=400)
    return tail_experiment(cfg, o=None, p=None, n=120)


def test_tail_trivial_values(small_curve):
    g = small_curve.g()
    assert g[0] == 1.0
    assert g[-1] == 0.0  # sums grow at most linearly; far cells are empty


def test_tail_containment_exact(small_curve):
    g, f = small_curve.g(), small_curve.f()
    gap = 8
    assert np.all(g >= f)
    assert np.all(f[:-gap] >= f[gap:])


def test_tail_envelope(small_curve):
    assert small_curve.c_prime is not None
    assert small_curve.envelope_ok()


def test_tail_requires_certified_record():
    # root a b^2 spaces coset points 3 apart; threshold 3 cannot certify
    cfg = ExperimentConfig(seed=6, samples=10, g="a b^2", threshold=3)
    with pytest.raises(CertificationError, match="enumeration window insufficient"):
        tail_experiment(cfg, o=None, p=None, n=10)


def test_tail_refuses_push_forward_kernel():
    cfg = ExperimentConfig(seed=6, samples=10, kernel="srw-branch-swap")
    with pytest.raises(ExperimentError, match="needs an invariant kernel"):
        tail_experiment(cfg, o=None, p=None, n=10)


# --- recursion ----------------------------------------------------------------------


def test_recursion_vacuous_at_zero_eps(small_curve):
    rep = recursion_check(small_curve, gap=8, eps=0.0)
    assert rep.pass_fraction == 1.0 and rep.implied_c is None


def test_recursion_majority_passes(small_curve):
    rep = recursion_check(small_curve, gap=8, eps=0.2)
    assert rep.pass_fraction >= 0.5
    assert rep.implied_c is not None and rep.fitted_c is not None


def test_recursion_flat_region_flags_nonzero_g():
    # synthetic curve: f constant, g positive => the rearranged inequality
    # must fail at interior cells
    cfg = ExperimentConfig(seed=1, samples=10000)
    n_t = 20
    curve = TailCurve(
        cfg,
        None,
        None,
        50,
        tuple(range(n_t + 1)),
        tuple([10000] * (n_t + 1)),
        tuple([5000] * (n_t + 1)),
        10000,
        10.0,
    )
    rep = recursion_check(curve, gap=2, eps=0.5)
    assert rep.pass_fraction == 0.0


def test_recursion_needs_coverage(small_curve):
    with pytest.raises(ExperimentError):
        recursion_check(small_curve, gap=10**6, eps=0.1)


def test_csv_headers_share_one_line_with_the_package_version(f2):
    cfg = ExperimentConfig(seed=5)
    header = f"# config={cfg.digest()} seed=5 version={ggtlab.__version__}"
    assert cfg.csv_header() == header
    progress = ProgressResult(cfg, (), (), None)
    bounded = BoundedProjectionResult(cfg, (), 0.0, {}, 0.0)
    tail = TailCurve(cfg, f2.identity(), w(f2, "a"), 4, (), (), (), 1, None)
    for csv in (progress.csv(), bounded.csv()):
        assert csv.splitlines()[0] == header
    assert tail.csv().splitlines()[0] == f"{header} o=e p=a n=4 Cprime=None"


def test_golden_bounded_projection_tables():
    # sha256 of the CSV without its `#` line, recorded before the checkpoints
    # read positions from the walk's state instead of a per-sample tracker
    import hashlib

    tables = []
    for seed in (0, 1, 2):
        for kernel in ("srw", "lazy:1/2"):
            cfg = ExperimentConfig(kernel=kernel, samples=16, seed=seed)
            csv = bounded_projection_experiment(cfg, bound=2.0).csv()
            tables.append("\n".join(csv.splitlines()[1:]))
    assert hashlib.sha256("\n\n".join(tables).encode()).hexdigest() == (
        "a0530989ee56fb52513521ec345c52dc857ef7ed4f96d8306b4e7058de50d89b"
    )


def test_golden_tail_tables(f2):
    # sha256 of the CSVs without their `#` line, recorded before each sample
    # copied one tracker template per axis instead of starting its own
    import hashlib

    tables = []
    for seed in (0, 1, 2):
        for kernel in ("srw", "lazy:1/2"):
            for g, p in (("a", "b a^5 b"), ("a b", "a b a"), ("a", "b")):
                cfg = ExperimentConfig(kernel=kernel, samples=24, seed=seed, g=g)
                csv = tail_experiment(cfg, o=None, p=w(f2, p), n=60).csv()
                tables.append("\n".join(csv.splitlines()[1:]))
    assert hashlib.sha256("\n\n".join(tables).encode()).hexdigest() == (
        "2ca12cf7f16a6ae49a36daf434d39f0a82249a482c42c877bae44fd9aa8aaa10"
    )


def test_tracker_spreads_leave_the_tracker_at_its_start(f2):
    ax = axis_of(w(f2, "a"))
    tracker = AxisTracker(ax, w(f2, "a"))
    letters = [1, 0, 1, -2, 2]
    first = tracker.spreads(letters, 1)
    assert tracker.spreads(letters, 1) == first
    fresh = AxisTracker(ax, w(f2, "a"))
    assert (tracker.stack, tracker.fwd, tracker.bwd) == (fresh.stack, fresh.fwd, fresh.bwd)
    # a^3 b^-1 leaves the line at a^3 and projects there, as a^3 does
    assert first == [1, 1, 2, 2, 2]
