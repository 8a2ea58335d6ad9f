"""Config plumbing, fast walks, and the statistical experiment harness."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ggtlab
from ggtlab import chains
from ggtlab.chains import HORIZON_CAP, ChainError, ensemble, make_invariant, simulate, srw, trajectory_rng
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
from ggtlab.projections import CertificationError, axis_of, coset_distance, project_to_set
from ggtlab.spaces import top_level_orbit

from conftest import w
from oracles import drift_oracle_free_srw


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
        traj = simulate(kernel, start, 25, seed=9, index=idx)
        assert walk.state() == traj.states[-1]
        # reference: one uniform per step through the ordered law, word products
        cur = start
        for u, state in zip(trajectory_rng(9, idx).random(25), traj.states[1:]):
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
    increments, and check every step's spread against `distance`."""
    model = kernel.model
    steps = next(ensemble(kernel, p, seed, (0,), n)).increments(n)
    rows = [AxisTracker(model, ax, p).spreads(steps) for ax in axes]
    cur = p
    for j, inc in enumerate(steps):
        cur = cur * Word(model, inc)
        assert [row[j] for row in rows] == [distance(orbit, ax, p, cur) for ax in axes]


def test_tracker_matches_projection_distance(f2, f2_tree, f2_orbit):
    p = w(f2, "a b")
    lazy = srw(f2, Fraction(1, 3))
    # the first step of seed 0 under the lazy walk is a stay
    assert next(ensemble(lazy, p, 0, (0,), 1)).increments(1) == [()]
    for kernel in (srw(f2), lazy):
        for root, shift, seed in [("a", "b", 3), ("a b", "b^2 a", 8), ("a b", "e", 0)]:
            ax = axis_of(f2_tree, w(f2, root)).translate(w(f2, shift))
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
    axes = [axis_of(orbit.space, r).translate(h) for r, h in roots]
    assert_tracked(orbit, kernel, axes, word(p_raw), seed, 40)


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
    res = bounded_projection_experiment(cfg, cells=cells, n_list=(0, 10))
    assert res.table[(0, 0)] == 1.0


def test_bounded_projection_refuses_a_horizon_past_the_cap_before_drawing(monkeypatch, f2):
    # the CLI runs the default checkpoints; a library caller sets its own
    def fail(*args, **kwargs):
        raise AssertionError("a generator was made for a refused horizon")

    monkeypatch.setattr(chains, "trajectory_rng", fail)
    cfg = ExperimentConfig(seed=5, samples=1)
    with pytest.raises(ChainError, match="horizon"):
        bounded_projection_experiment(cfg, cells=[(f2.identity(), w(f2, "b"))], n_list=(10, HORIZON_CAP + 1))


def test_bounded_projection_min_positive():
    cfg = ExperimentConfig(seed=5, samples=100)
    res = bounded_projection_experiment(cfg, n_list=(10, 50))
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
    return tail_experiment(cfg, n=120)


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
        tail_experiment(cfg, n=10)


def test_tail_refuses_push_forward_kernel():
    cfg = ExperimentConfig(seed=6, samples=10, kernel="srw-branch-swap")
    with pytest.raises(ExperimentError, match="needs an invariant kernel"):
        tail_experiment(cfg, n=10)


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
            csv = bounded_projection_experiment(cfg).csv()
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
                csv = tail_experiment(cfg, p=w(f2, p), n=60).csv()
                tables.append("\n".join(csv.splitlines()[1:]))
    assert hashlib.sha256("\n\n".join(tables).encode()).hexdigest() == (
        "2ca12cf7f16a6ae49a36daf434d39f0a82249a482c42c877bae44fd9aa8aaa10"
    )


def test_tracker_spreads_leave_the_tracker_at_its_start(f2, f2_tree):
    ax = axis_of(f2_tree, w(f2, "a"))
    tracker = AxisTracker(f2, ax, w(f2, "a"))
    steps = [(1,), (), (1,), (-2,), (2,)]
    first = tracker.spreads(steps)
    assert tracker.spreads(steps) == first
    fresh = AxisTracker(f2, ax, w(f2, "a"))
    assert (tracker.stack, tracker.fwd, tracker.bwd) == (fresh.stack, fresh.fwd, fresh.bwd)
    # a^3 b^-1 leaves the line at a^3 and projects there, as a^3 does
    assert first == [1, 1, 2, 2, 2]
