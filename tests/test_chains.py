"""Kernels, push-forwards, tameness diagnostics and symmetry witnesses."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy as np

from ggtlab import chains, experiments
from ggtlab.chains import (
    BijectiveQI,
    ChainError,
    CompositionQI,
    ExactLaw,
    GeneratorPermutation,
    Kernel,
    LeftTranslation,
    branch_swap,
    _pick,
    check_irreducibility,
    ensemble,
    estimate_nonamenability,
    make_invariant,
    push_forward,
    quasi_homogeneity_witness,
    reach_probability,
    simulate,
    srw,
)
from ggtlab.experiments import resolve_kernel
from ggtlab.groups import Word, ball, model_from_descriptor, word_distance

from conftest import w
from oracles import fraction_step, radial_sup, trajectory_stream


def validates(trajectory, kernel) -> bool:
    """Whether every step of the trajectory has positive probability."""
    for s, t in zip(trajectory.states, trajectory.states[1:]):
        if all(p == 0 or tgt != t for tgt, p in kernel.law(s)):
            return False
    return True


@pytest.fixture(scope="module")
def f2k():
    return model_from_descriptor("F2")


@pytest.fixture(scope="module")
def walk(f2k):
    return srw(f2k)


# --- simulation ----------------------------------------------------------------


def test_zero_steps(f2k, walk):
    [t] = simulate(walk, f2k.identity(), 0, seed=1)
    assert t.states == (f2k.identity(),)


def test_reproducible_and_parity(f2k, walk):
    [t1] = simulate(walk, f2k.identity(), 3, seed=42)
    [t2] = simulate(walk, f2k.identity(), 3, seed=42)
    assert t1.states == t2.states
    assert len(t1.states[-1]) in (1, 3)
    assert validates(t1, walk)


def test_translation_invariance_of_paths(f2k, walk):
    g = w(f2k, "b a^2")
    [t1] = simulate(walk, f2k.identity(), 12, seed=7)
    [t2] = simulate(walk, g, 12, seed=7)
    assert tuple(g * s for s in t1.states) == t2.states


def test_bounded_jumps(f2k, walk):
    [t] = simulate(walk, f2k.identity(), 40, seed=3)
    for a, b in zip(t.states, t.states[1:]):
        assert word_distance(f2k, a, b) == 1


def test_distinct_indices_decouple(f2k, walk):
    [t1] = simulate(walk, f2k.identity(), 10, seed=5, indices=(0,))
    [t2] = simulate(walk, f2k.identity(), 10, seed=5, indices=(1,))
    assert t1.states != t2.states



# --- walk ensembles ----------------------------------------------------------------


def stream(kernel, seed: int, index: int, horizon: int) -> list[int]:
    """The letter row of a walk: the padded step table read at the picks of
    the trajectory's own stream."""
    return kernel.step_table[_pick(kernel.cdf, trajectory_stream(seed, index).random(horizon))].ravel().tolist()


@pytest.mark.parametrize("seed", [0, 2**63 - 1 + 1000 * 34, 2**64 - 1])
def test_ensemble_walks_draw_each_trajectorys_own_stream(f2k, walk, seed):
    indices = [0, 1, 2**64 - 1]
    for horizon in (1, 3, 4, 5, 200):
        walks = list(ensemble(walk, f2k.identity(), seed, indices, horizon))
        for i, got in zip(indices, walks):
            assert got.row == stream(walk, seed, i, horizon)


def test_walks_refuse_steps_past_their_horizon(f2k, walk):
    z2 = model_from_descriptor("Z^2")
    for kernel, start in ((walk, f2k.identity()), (srw(z2), z2.identity())):
        stepped = next(ensemble(kernel, start, 4, (0,), 5))
        stepped.steps(3)
        with pytest.raises(ChainError, match="horizon"):
            stepped.steps(3)
        handed = next(ensemble(kernel, start, 4, (0,), 5))
        with pytest.raises(ChainError, match="horizon"):
            handed.path(6)
    streamed = next(ensemble(walk, f2k.identity(), 4, (0,), 5))
    with pytest.raises(ChainError, match="horizon"):
        streamed.letters(6)
    # off free groups too, a walk's row is its step-table stream
    assert next(ensemble(srw(z2), z2.identity(), 4, (0,), 5)).row == stream(srw(z2), 4, 0, 5)
    with pytest.raises(ChainError):
        list(ensemble(walk, f2k.identity(), 1, [2**64], 3))


def test_ensemble_refuses_a_horizon_past_the_cap_before_drawing(monkeypatch, f2k, walk):
    def fail(*args, **kwargs):
        raise AssertionError("a generator was made for a refused horizon")

    monkeypatch.setattr(chains, "trajectory_rng", fail)
    for horizon in (-1, chains.HORIZON_CAP + 1):
        with pytest.raises(ChainError, match="horizon"):
            next(ensemble(walk, f2k.identity(), 1, range(3), horizon))


def test_horizon_cap_bounds_a_rows_letters(monkeypatch, f2k, walk):
    # a row holds horizon * J letters: with 3-letter jumps the cap allows a third of the steps
    quarter = Fraction(1, 4)
    long_jumps = make_invariant(f2k, {w(f2k, s): quarter for s in ("a b a", "a^-1 b^-1 a^-1", "b", "b^-1")})
    assert (walk.step_table.shape[1], long_jumps.step_table.shape[1]) == (1, 3)
    monkeypatch.setattr(chains, "HORIZON_CAP", 30)
    assert len(next(ensemble(walk, f2k.identity(), 1, (0,), 11)).row) == 11
    assert len(next(ensemble(long_jumps, f2k.identity(), 1, (0,), 10)).row) == 30

    def fail(*args, **kwargs):
        raise AssertionError("a generator was made for a refused horizon")

    monkeypatch.setattr(chains, "trajectory_rng", fail)
    with pytest.raises(ChainError, match=r"horizon must lie in \[0, 10\], got 11"):
        next(ensemble(long_jumps, f2k.identity(), 1, (0,), 11))


def test_ensemble_blocks_keep_every_stream(monkeypatch, f2k, walk):
    # seven uniforms a block: one row each at horizons 5 and 200, several rows at 1 and 3
    monkeypatch.setattr(chains, "_BLOCK_DRAWS", 7)
    indices = [*range(9), 2**64 - 1]
    for horizon in (0, 1, 3, 5, 200):
        walks = list(ensemble(walk, f2k.identity(), 11, indices, horizon))
        assert len(walks) == len(indices)
        for i, got in zip(indices, walks):
            assert got.row == stream(walk, 11, i, horizon)
    # an ensemble of many blocks still makes one Philox
    test_one_philox_per_ensemble(monkeypatch, f2k, walk)


def test_ensemble_memory_stays_at_one_block(f2k, walk):
    import tracemalloc

    def peak(count: int) -> int:
        tracemalloc.start()
        try:
            for _ in ensemble(walk, f2k.identity(), 2, range(count), 2000):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the kernel's cached CDF and letters are made once, outside the measured runs
    block = peak(chains._BLOCK_DRAWS // 2000)
    # drawn at once, the uniforms of 1000 walks alone would take 16 MB
    assert peak(1000) < 2 * block < 8 * 2000 * 1000


def test_one_philox_per_ensemble(monkeypatch, f2k, walk):
    made = []
    real = np.random.Philox

    def counted(*args, **kwargs):
        made.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    assert len(list(ensemble(walk, f2k.identity(), 3, range(40), 10))) == 40
    assert len(made) == 1
    made.clear()
    cfg = experiments.ExperimentConfig(samples=30, seed=5, n_grid=(5, 20))
    experiments.linear_progress_experiment(cfg)
    experiments.tail_experiment(cfg, o=None, p=None, n=20)
    cells = [(w(f2k, "a"), w(f2k, "b")), (w(f2k, "b"), w(f2k, "a b"))]
    experiments.bounded_projection_experiment(cfg, bound=2.0, cells=cells, n_list=(4, 8))
    # one for progress, one for tail, one per bounded-projection cell
    assert len(made) == 4

def law_path(kernel, start, n, seed, index):
    """Reference sampler: step the kernel's own law at every state."""
    import numpy as np

    states = [start]
    for u in trajectory_stream(seed, index).random(n):
        pairs = kernel.law(states[-1])
        cdf = np.cumsum([float(p) for _, p in pairs])
        cdf[-1] = 1.0
        states.append(pairs[min(int(np.searchsorted(cdf, u, side="right")), len(pairs) - 1)][0])
    return tuple(states)


def test_invariant_kernel_rejects_repeated_jumps(f2k):
    half = Fraction(1, 2)
    with pytest.raises(ChainError):
        Kernel(f2k, ((w(f2k, "a"), half), (w(f2k, "a"), half)))


_letter = st.integers(-3, 3).filter(bool)


@given(
    st.sampled_from(["F2", "F3", "Z^2", "Z^2 * Z", "F2 x Z", "(Z^2 * Z) x Z"]),
    st.sampled_from(["srw", "lazy:1/3", "jumps"]),
    st.lists(st.lists(_letter, min_size=2, max_size=3), min_size=1, max_size=3),
    st.lists(_letter, min_size=1, max_size=4),
    st.lists(st.integers(0, 12), min_size=1, max_size=4),
    st.integers(0, 8),
    st.booleans(),
    st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_stream_walks_match_word_products(desc, spec, jumps_raw, start_raw, splits, rest, pushed, seed):
    """A walk stepped through its letter stream to random checkpoints, then
    read to its horizon by `path`, against the word-product fold of the jump
    words at the trajectory's own picks: on free groups (the letter stack)
    and off them (the model's product, multi-letter jumps included)."""
    model = model_from_descriptor(desc)

    def word(raw):  # onto the model's letters
        fit = [((abs(x) - 1) % model.rank + 1) * (1 if x > 0 else -1) for x in raw]
        return Word(model, model.normalize(tuple(fit)))

    start = word(start_raw)
    assume(not start.is_identity())
    if spec == "jumps":
        # jumps of 2 and 3 letters with their inverses, and the identity
        jumps = {s for raw in jumps_raw if len(s := word(raw)) in (2, 3)}
        assume(jumps)
        jumps |= {s.inverse() for s in jumps} | {model.identity()}
        kernel = make_invariant(model, {s: Fraction(1, len(jumps)) for s in jumps})
    else:
        kernel = resolve_kernel(model, spec)
    if pushed:
        kernel = push_forward(kernel, LeftTranslation(model, word([1, 2])))
    f = kernel.qi
    horizon = sum(splits) + rest
    walk = next(ensemble(kernel, start, seed, (0,), horizon))
    words = [s for s, _ in kernel.measure]
    picks = iter(_pick(kernel.cdf, trajectory_stream(seed, 0).random(horizon)).tolist())
    cur = start if f is None else f.inverse().apply(start)
    for split in splits:
        walk.steps(split)
        for _ in range(split):
            cur = cur * words[next(picks)]
        assert walk.current() == (cur if f is None else f.apply(cur)).letters
    path = [cur.letters]
    for k in picks:
        cur = cur * words[k]
        path.append(cur.letters)
    assert list(walk.path(rest)) == path


# --- push-forwards -----------------------------------------------------------


def test_push_forward_identity_translation(f2k, walk):
    phi = LeftTranslation(f2k, w(f2k, "a b"))
    pushed = push_forward(walk, phi)
    # invariant law: the increments are unchanged by a translation
    for st in ball(f2k, f2k.identity(), 2)[:6]:
        assert dict(pushed.law(st)) == dict(walk.law(st))


def test_push_forward_branch_swap_permutes_law(f2k):
    biased = make_invariant(
        f2k,
        {
            w(f2k, "a"): Fraction(1, 2),
            w(f2k, "b"): Fraction(1, 6),
            w(f2k, "a^-1"): Fraction(1, 6),
            w(f2k, "b^-1"): Fraction(1, 6),
        },
    )
    pushed = push_forward(biased, branch_swap(f2k))
    law = dict(pushed.law(f2k.identity()))
    assert law[w(f2k, "b")] == Fraction(1, 2)
    assert law[w(f2k, "a")] == Fraction(1, 6)


def test_push_forward_law_identity_random(f2k, walk):
    import numpy as np

    phi = branch_swap(f2k)
    pushed = push_forward(walk, phi)
    rng = np.random.default_rng(0)
    pts = ball(f2k, f2k.identity(), 3)
    inv = phi.inverse()
    for _ in range(200):
        st = pts[int(rng.integers(len(pts)))]
        law = dict(pushed.law(st))
        src = inv.apply(st)
        base = dict(walk.law(src))
        for tgt, pr in law.items():
            assert base.get(inv.apply(tgt), Fraction(0)) == pr


@pytest.mark.parametrize("stay", [Fraction(0), Fraction(1, 2)])
def test_push_forward_walks_by_conjugation(f2k, stay):
    base = srw(f2k, stay=stay)
    phi = branch_swap(f2k)
    pushed = push_forward(base, phi)
    for start in ("e", "a b^-1", "b^2 a", "a^-1 b"):
        s = w(f2k, start)
        for seed, index in [(1, 0), (7, 3), (2024, 1)]:
            [t] = simulate(pushed, s, 40, seed, (index,))
            [ref] = simulate(base, phi.inverse().apply(s), 40, seed, (index,))
            assert t.states == tuple(map(phi.apply, ref.states))
            assert t.states == law_path(pushed, s, 40, seed, index)


def test_branch_swap_is_the_letterwise_relabel_on_f3():
    # a u -> b sigma(u) and b u -> a sigma(u), sigma relabelling a <-> b
    # letterwise; c and c^-1 are fixed everywhere, and so is a word starting
    # with an inverse generator or with c
    f3 = model_from_descriptor("F3")
    swap = branch_swap(f3)
    sigma = {"a": "b", "b": "a", "c": "c"}
    for u in ball(f3, f3.identity(), 3):
        tokens = str(u).split()
        if tokens[0][0] in "ab" and "^-" not in tokens[0]:
            tokens = [sigma[tok[0]] + tok[1:] for tok in tokens]
        assert swap.apply(u) == w(f3, " ".join(tokens))
        assert [abs(l) == 3 for l in swap.apply(u).letters] == [abs(l) == 3 for l in u.letters]
    assert swap.check_bijective(3)


class _MergeAtRadiusThree(BijectiveQI):
    """Swaps a^3 and b^3 but sends b^-3 to a^3 too: a bijection on the
    radius-2 ball, not injective on the radius-3 ball."""

    def __init__(self, model):
        self.model = model
        self.moves = {(1, 1, 1): (2, 2, 2), (2, 2, 2): (1, 1, 1), (-2, -2, -2): (1, 1, 1)}

    def map(self, letters):
        return self.moves.get(letters, letters)

    def inverse(self):
        return self


def test_push_forward_refuses_a_map_not_injective_on_the_radius_three_ball(f2k, walk):
    merge = _MergeAtRadiusThree(f2k)
    assert merge.check_bijective(2) and not merge.check_bijective(3)
    with pytest.raises(ChainError, match="not bijective"):
        push_forward(walk, merge)


def _shipped_qis():
    """Every shipped map by name: translations and branch swaps on F2 and
    F3, generator permutations on F2 and Z^2, and a composition."""
    f2, f3, z2 = (model_from_descriptor(d) for d in ("F2", "F3", "Z^2"))
    return {
        "translation-F2": LeftTranslation(f2, w(f2, "a b^-1 a")),
        "translation-F3": LeftTranslation(f3, w(f3, "c^-1 b")),
        "swap-F2": branch_swap(f2),
        "swap-F3": branch_swap(f3),
        "permutation-F2": GeneratorPermutation(f2, (-2, 1)),
        "permutation-Z2": GeneratorPermutation(z2, (2, -1)),
        "composition-F2": CompositionQI(f2, (branch_swap(f2), LeftTranslation(f2, w(f2, "b a")))),
    }


SHIPPED_QIS = _shipped_qis()


@pytest.mark.parametrize("qi", SHIPPED_QIS.values(), ids=list(SHIPPED_QIS))
@given(draws=st.lists(st.integers(-3, 3).filter(bool), max_size=10))
@settings(max_examples=150, deadline=None)
def test_qi_maps_normal_forms_like_apply_and_inverts(qi, draws):
    # the empty word and every one-letter word, then words drawn from letters
    model = qi.model
    words = [(), *((s,) for i in range(1, model.rank + 1) for s in (i, -i))]
    words.append(model.normalize([((abs(d) - 1) % model.rank + 1) * (1 if d > 0 else -1) for d in draws]))
    inv = qi.inverse()
    for x in words:
        y = qi.map(x)
        assert qi.apply(Word(model, x)).letters == y
        assert model.normalize(y) == y
        assert inv.map(y) == x


def test_qi_constants(f2k):
    assert LeftTranslation(f2k, w(f2k, "a b")).measured_qi_constants(3) == 1.0
    perm = GeneratorPermutation(f2k, (2, 1))
    assert perm.measured_qi_constants(3) == 1.0
    swap = branch_swap(f2k)
    assert swap.check_bijective(4)
    assert swap.measured_qi_constants(3) <= swap.claimed_nu


# --- irreducibility and decay ---------------------------------------------------


def test_irreducibility_srw(f2k, walk):
    res = check_irreducibility(walk, w(f2k, "a"), 3)
    assert (res.eps, res.k) == (Fraction(1, 4), 1)


def test_irreducibility_lazy(f2k):
    lazy = srw(f2k, stay=Fraction(1, 2))
    res = check_irreducibility(lazy, w(f2k, "a"), 3)
    assert (res.eps, res.k) == (Fraction(1, 8), 1)


@pytest.mark.parametrize("stay", [Fraction(1), Fraction(2), Fraction(-1, 2)])
def test_laziness_outside_zero_to_one_is_refused(f2k, stay):
    # a laziness of 1 never moves; above 1 or below 0 the moves get a negative probability
    with pytest.raises(ChainError, match=rf"^laziness must lie in \[0, 1\), got {stay}$"):
        srw(f2k, stay=stay)


def test_irreducibility_pushed(f2k, walk):
    pushed = push_forward(walk, branch_swap(f2k))
    res = check_irreducibility(pushed, w(f2k, "a"), 2)
    assert res.eps > 0 and res.k <= 2


def test_return_probability_exact(f2k, walk):
    rep = estimate_nonamenability(walk, [2])
    # sup at n=2 is attained at the identity: must backtrack the same edge
    assert rep.entries[0][1] == 0.25
    assert rep.entries[0][2] == "exact-dp"


@pytest.mark.parametrize("k", [2, 3])
def test_return_probabilities_approach_kesten(k):
    # Kesten: the SRW on F_k has spectral radius rho = sqrt(2k-1)/k, so
    # p_{2m+2}(e, e) / p_{2m}(e, e) increases to rho^2 from below; the
    # radial oracle reaches n = 162, far past the exact law's support cap
    ms = (10, 20, 40, 80)
    ratios = [float(radial_sup(k, 2 * m + 2) / radial_sup(k, 2 * m)) for m in ms]
    rho2 = (2 * k - 1) / k**2
    assert ratios == sorted(ratios) and ratios[-1] < rho2
    assert ratios[-1] > 0.97 * rho2


def test_decay_f2_vs_z2(f2k):
    rep = estimate_nonamenability(srw(f2k), list(range(2, 17, 2)))
    assert rep.rho_hat is not None and rep.rho_hat < 0.95
    assert rep.verdict == "consistent with nonamenability"
    # the amenable non-example needs a longer grid before its polynomial
    # decay pushes the fitted tail rate over the threshold
    z2 = model_from_descriptor("Z^2")
    rep2 = estimate_nonamenability(srw(z2), list(range(8, 65, 8)))
    assert rep2.rho_tail > rep2.rho_head  # rate drifting toward 1
    assert "amenable-like" in rep2.verdict


def test_decay_grid_points_past_the_support_cap_are_skipped(monkeypatch):
    import math

    import ggtlab.chains

    # the SRW on Z^2 stands on (n + 1)^2 states after n steps: 49 after 6, 64 after 7
    walk = srw(model_from_descriptor("Z^2"))
    exact = estimate_nonamenability(walk, [2, 4, 6])
    monkeypatch.setattr(ggtlab.chains, "_DECAY_SUPPORT_CAP", 50)
    rep = estimate_nonamenability(walk, [2, 4, 6, 8, 10])
    assert rep.entries[:3] == exact.entries
    assert [(n, m) for n, _, m in rep.entries[3:]] == [(8, "skipped"), (10, "skipped")]
    assert all(math.isnan(v) for _, v, _ in rep.entries[3:])
    # the fits and the verdict come from the exact rows only
    assert (rep.rho_head, rep.rho_tail, rep.rho_hat, rep.verdict) == (
        exact.rho_head,
        exact.rho_tail,
        exact.rho_hat,
        exact.verdict,
    )


# --- quasi-homogeneity witnesses -------------------------------------------------


def test_witness_identity(f2k, walk):
    phi, rep = quasi_homogeneity_witness(walk, w(f2k, "a b"), w(f2k, "a b"))
    assert phi.apply(w(f2k, "a b")) == w(f2k, "a b")
    assert rep.exact


def test_witness_translation(f2k, walk):
    phi, rep = quasi_homogeneity_witness(walk, f2k.identity(), w(f2k, "a b"))
    assert isinstance(phi, LeftTranslation) and rep.exact


def test_witness_pushforward(f2k, walk):
    pushed = push_forward(walk, branch_swap(f2k))
    phi, rep = quasi_homogeneity_witness(pushed, f2k.identity(), w(f2k, "a"))
    assert isinstance(phi, CompositionQI)
    assert phi.apply(f2k.identity()) == w(f2k, "a")
    assert rep.exact


# --- reachability -------------------------------------------------------------------


def test_reach_trivial(f2k, walk):
    res = reach_probability(walk, f2k.identity(), f2k.identity())
    assert res.t == 0 and res.probability == 1


def test_reach_two_steps(f2k, walk):
    res = reach_probability(walk, w(f2k, "a b"), f2k.identity())
    assert res.t == 2 and res.probability == Fraction(1, 16)
    assert res.eps0 == 0.25


def test_reach_lazy(f2k):
    lazy = srw(f2k, stay=Fraction(1, 2))
    res = reach_probability(lazy, w(f2k, "a b"), f2k.identity())
    assert res.probability > 0
    assert res.t >= 2


def test_reach_budget(f2k, walk):
    with pytest.raises(ChainError):
        reach_probability(walk, w(f2k, "a b a b a b a"), f2k.identity())


def test_reach_long_jumps_keep_every_live_state(f2k):
    # jumps of length 2: a state 2r from p can still reach it in r steps, so
    # the pruning must scale with the jump bound
    quarter = Fraction(1, 4)
    kernel = make_invariant(f2k, {w(f2k, s): quarter for s in ("a^2", "a^-2", "b", "b^-1")})
    assert kernel.jump_bound == 2
    p = w(f2k, "a^2")
    res = reach_probability(kernel, p, f2k.identity())
    expected = (
        (0, Fraction(0)),
        (1, Fraction(1, 4)),
        (2, Fraction(0)),
        (3, Fraction(7, 64)),
        (4, Fraction(0)),
        (5, Fraction(29, 512)),
        (6, Fraction(0)),
    )
    assert res.table == expected
    assert (res.t, res.probability) == (1, Fraction(1, 4))
    # the unpruned exact law gives the same table
    dist = {f2k.identity(): Fraction(1)}
    for _, pr in expected[1:]:
        dist = fraction_step(kernel, dist)
        assert dist.get(p, Fraction(0)) == pr


# --- the exact-law engine against the Fraction reference step -----------------------


def kernel_family(model, name):
    quarter = Fraction(1, 4)
    if name == "srw":
        return srw(model)
    if name == "lazy":
        return srw(model, stay=Fraction(1, 2))
    if name == "long-jumps":
        return make_invariant(model, {w(model, s): quarter for s in ("a^2", "a^-2", "b", "b^-1")})
    if name == "branch-swap":
        return push_forward(srw(model), branch_swap(model))
    if name == "nested":
        lazy_swap = push_forward(srw(model, stay=Fraction(1, 3)), branch_swap(model))
        return push_forward(lazy_swap, LeftTranslation(model, w(model, "a b^-1")))
    raise AssertionError(name)


FAMILIES = ("srw", "lazy", "long-jumps", "branch-swap", "nested")


@pytest.mark.parametrize("name", FAMILIES)
def test_exact_law_matches_fraction_step(f2k, name):
    kernel = kernel_family(f2k, name)
    for start in ("e", "b a^-1"):
        s = w(f2k, start)
        law, ref = ExactLaw(kernel, s), {s: Fraction(1)}
        for _ in range(5):
            law.step()
            ref = fraction_step(kernel, ref)
            assert len(law) == len(ref)
            assert all(law.prob(x) == pr for x, pr in ref.items())
            assert law.sup() == max(ref.values())


@pytest.mark.parametrize("name", ["srw", "lazy:1/3", "srw-branch-swap", "nested"])
def test_engines_step_without_rebuilding_a_law(f2k, name, monkeypatch):
    # both engines step every kernel through its measure, a push-forward of
    # a push-forward by conjugation too, so neither calls `law`
    kernel = kernel_family(f2k, "nested") if name == "nested" else resolve_kernel(f2k, name)
    start = w(f2k, "b a^-1")
    path = law_path(kernel, start, 30, 3, 1)
    ref = {start: Fraction(1)}
    for _ in range(4):
        ref = fraction_step(kernel, ref)

    def refuse(self, state):
        raise AssertionError("an engine rebuilt a law")

    monkeypatch.setattr(Kernel, "law", refuse)
    assert simulate(kernel, start, 30, seed=3, indices=(1,))[0].states == path
    law = ExactLaw(kernel, start)
    for _ in range(4):
        law.step()
    assert len(law) == len(ref) and all(law.prob(x) == pr for x, pr in ref.items())


@pytest.mark.parametrize(
    "desc, name, start",
    [
        ("F2", "srw", "b a^-1"),
        ("F2", "lazy", "a^2"),
        ("F2", "branch-swap", "e"),
        ("F2", "branch-swap", "a b^-1"),
        ("F2", "nested", "b^2 a"),
        ("Z^2 * Z", "srw", "x z y^-1"),
        ("(Z^2 * Z) x Z", "lazy", "z t"),
    ],
)
def test_trajectory_json_spells_every_state(desc, name, start):
    import json

    model = model_from_descriptor(desc)
    if name in ("srw", "lazy"):
        kernel = srw(model, stay=Fraction(1, 2) if name == "lazy" else Fraction(0))
    else:
        kernel = kernel_family(model, name)
    [traj] = simulate(kernel, w(model, start), 80, seed=11, indices=(2,))
    row = json.loads(traj.to_json())
    assert row["states"] == [str(u) for u in traj.states]
    assert (row["start"], row["n"], len(traj.states)) == (start, 80, 81)
    assert traj.states[0] == w(model, start) and all(u.model is model for u in traj.states)


def test_exact_law_on_a_free_product():
    model = model_from_descriptor("Z^2 * Z")
    kernel = srw(model, stay=Fraction(1, 4))
    s = w(model, "x z")
    law, ref = ExactLaw(kernel, s), {s: Fraction(1)}
    for _ in range(4):
        law.step()
        ref = fraction_step(kernel, ref)
        assert len(law) == len(ref) and all(law.prob(x) == pr for x, pr in ref.items())


def test_reach_measures_the_jump_bound_once(f2k, walk, monkeypatch):
    # a push-forward's jump bound rebuilds its law on a ball of states; the
    # exact DP walks by conjugation, so a second query makes no law call
    kernel = push_forward(walk, branch_swap(f2k))
    calls = []
    law = Kernel.law
    monkeypatch.setattr(Kernel, "law", lambda self, st: calls.append(st) or law(self, st))
    first = reach_probability(kernel, w(f2k, "a b"), f2k.identity())
    assert len(calls) == len(ball(f2k, f2k.identity(), 3))
    calls.clear()
    assert reach_probability(kernel, w(f2k, "a b"), f2k.identity()) == first
    assert calls == []


@pytest.mark.parametrize("name", FAMILIES)
def test_reach_table_matches_pruned_fraction_step(f2k, name):
    kernel = kernel_family(f2k, name)
    jump = kernel.jump_bound
    for q, p in [("e", "a b"), ("b", "b a^2 b"), ("a^-1", "a^-1 b^-1")]:
        q, p = w(f2k, q), w(f2k, p)
        d = word_distance(f2k, p, q)
        horizon = 3 * d
        res = reach_probability(kernel, p, q)
        dist, table = {q: Fraction(1)}, [(0, Fraction(0))]
        for t in range(1, horizon + 1):
            budget = jump * (horizon - t)
            dist = fraction_step(kernel, dist, lambda x: word_distance(f2k, x, p) <= budget)
            table.append((t, dist.get(p, Fraction(0))))
        assert res.table == tuple(table)
        assert (res.t, res.probability) == max(table, key=lambda tp: (tp[1], -tp[0]))


def test_pushed_exact_dp_equals_radial_closed_form():
    # the exact law's sup is the radial oracle's, for walks and lazy walks;
    # f is a bijection fixing e, so the pushed sup is the base walk's sup
    for desc, stay, top in (("F2", Fraction(0), 8), ("F3", Fraction(0), 6), ("F2", Fraction(1, 3), 8)):
        model = model_from_descriptor(desc)
        base = srw(model, stay=stay)
        pushed = push_forward(base, branch_swap(model))
        sups = [radial_sup(model.rank, n, stay) for n in range(1, top + 1)]
        laws = [ExactLaw(base, model.identity()), ExactLaw(pushed, model.identity())]
        for sup in sups:
            for law in laws:
                law.step()
                assert law.sup() == sup
        rows = [(n, float(sup), "exact-dp") for n, sup in enumerate(sups, 1)]
        for kernel in (base, pushed):
            assert list(estimate_nonamenability(kernel, range(1, top + 1)).entries) == rows


# --- golden pins ----------------------------------------------------------------
# sha256 digests recorded before the settings that no caller passes were
# removed; the outputs at the defaults must not move


def _sha(lines) -> str:
    import hashlib

    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_golden_decay_reports(f2k, walk):
    # every row is read off the exact law: the lazy F2 walk's support passes
    # the cap after 9 steps, so its rows for n = 10, 11, 12 read "skipped"
    z2 = model_from_descriptor("Z^2")
    runs = [
        (srw(f2k, stay=Fraction(1, 3)), range(1, 13)),
        (push_forward(walk, branch_swap(f2k)), range(1, 9)),
        (push_forward(srw(f2k, stay=Fraction(1, 2)), branch_swap(f2k)), range(2, 9, 2)),
        (srw(z2), range(2, 25, 2)),
    ]
    lines = []
    for kernel, grid in runs:
        rep = estimate_nonamenability(kernel, list(grid))
        lines += [repr(e) for e in rep.entries]
        lines.append(repr((rep.rho_head, rep.rho_tail, rep.rho_hat, rep.verdict)))
    assert _sha(lines) == (
        "f9aa37d50d9878a6c54c3a99db7f660ed4d9cc06d64e9e06377d5d212dba163c"
    )


def test_golden_witness_reports(f2k, walk):
    pts = ball(f2k, f2k.identity(), 3)
    pushed = push_forward(srw(f2k, stay=Fraction(1, 3)), branch_swap(f2k))
    lines = []
    for kernel in (walk, pushed):
        for p, q in (("e", "a"), ("a b", "b^-1"), ("b a^-1", "a^2 b")):
            phi, rep = quasi_homogeneity_witness(kernel, w(f2k, p), w(f2k, q))
            lines.append(f"{[str(s) for s in rep.checked_states]} {rep.exact}")
            lines.append(str([str(phi.apply(x)) for x in pts]))
    assert _sha(lines) == (
        "db118d734de672250aa1514bc741dcda2a442726613b871e2c26b16925fd8b93"
    )


def test_golden_pushed_kernel_diagnostics():
    # sha256 recorded before the branch swap relabelled letters through a table
    lines = []
    for desc in ("F2", "F3"):
        m = model_from_descriptor(desc)
        for stay in (Fraction(0), Fraction(1, 3)):
            kernel = push_forward(srw(m, stay=stay), branch_swap(m))
            for p, q in (("a", "e"), ("a b", "b^-1"), ("b a^-1 b", "a")):
                r = reach_probability(kernel, w(m, p), w(m, q))
                lines.append(repr((r.t, r.probability, r.eps0, r.table)))
            for s in ("a", "b a", "a^-1 b^-1"):
                r = check_irreducibility(kernel, w(m, s), 3, [w(m, "e"), w(m, "a b"), w(m, "b^-1 a^2")])
                lines.append(repr((str(r.target), r.eps, r.k)))
            rep = estimate_nonamenability(kernel, [1, 2, 3, 5] if desc == "F3" else [1, 2, 4, 6])
            lines.append(repr((rep.entries, rep.rho_head, rep.rho_tail, rep.rho_hat, rep.verdict)))
    assert _sha(lines) == (
        "b81dc7795a08941ebc7f14eee248fec5dad6d960966f331228eb020121ed8c08"
    )
