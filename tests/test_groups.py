"""Normal forms, word metrics, balls and geodesics on the shipped models."""

import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggtlab import groups
from ggtlab.groups import (
    BallCapError,
    FreeAbelian,
    GroupError,
    Word,
    ball,
    ball_letters,
    ball_size,
    diameter,
    distance_from,
    distance_row,
    geodesic,
    model_from_descriptor,
    normal_form,
    parse_model,
    parse_word,
    spell_letters,
    word_diameter,
    word_distance,
)

from conftest import w
from oracles import abelian2_ball_size, free_ball_size, greedy_geodesic, naive_ball, reference_normal_form


# --- parsing -------------------------------------------------------------


def test_model_descriptors_roundtrip():
    for text in ["F2", "Z^2", "Z^2 * Z", "(Z^2 * Z) x Z", "F2 x Z"]:
        m = parse_model(text)
        assert m.describe() == text


def test_generator_name_allocation(f2, z2z, z2z_by_z):
    assert f2.generator_names == ("a", "b")
    assert z2z.generator_names == ("x", "y", "z")
    assert z2z_by_z.generator_names == ("x", "y", "z", "t")


def test_parse_rejects_garbage():
    with pytest.raises(GroupError):
        parse_model("Q8")
    with pytest.raises(GroupError):
        parse_model("F2 x F2")
    with pytest.raises(GroupError):
        parse_model("(Z^2 * Z")


@pytest.mark.parametrize("text, char", [("F2.", "."), ("F2,", ","), ("Z^2 - Z", "-")])
def test_stray_character_in_a_descriptor_is_refused(text, char):
    # a character that starts no token once made the tokenizer loop without
    # advancing; a child process with a time and memory limit turns such a
    # regression into a failure instead of a hung suite
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import ggtlab

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))

    code = (
        "from ggtlab.groups import GroupError, parse_model\n"
        "try:\n    parse_model(input())\nexcept GroupError as exc:\n    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=text, capture_output=True, text=True, timeout=10,
        env={"PYTHONPATH": str(Path(ggtlab.__file__).parents[1])}, preexec_fn=limit_memory,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == f"unexpected character {char!r} in model descriptor {text!r}\n"


def test_parse_word_and_str(f2):
    word = parse_word(f2, "b a^5 b")
    assert str(word) == "b a^5 b"
    assert len(word) == 7
    assert parse_word(f2, "e").is_identity()
    with pytest.raises(GroupError):
        parse_word(f2, "c^2")


@pytest.mark.parametrize("text", ["F0", "Z^0", "F2 * Z^0", "(F0 * Z) x Z"])
def test_rank_zero_factor_is_refused_by_its_rank(text):
    # take(pool, 0) once ran through the whole name pool
    with pytest.raises(GroupError, match=r"rank 0; a factor needs rank >= 1"):
        parse_model(text)


def test_parse_word_sums_powers_before_expanding(f2, monkeypatch):
    monkeypatch.setattr(groups, "WORD_LETTER_BUDGET", 10)
    assert str(parse_word(f2, "a^4 b^-6")) == "a^4 b^-6"
    assert parse_word(f2, "a^5 a^-5").is_identity()
    for text in ("a^11", "a^6 a^-5", "a^99999999999999999999"):
        with pytest.raises(GroupError, match=r"at most 10 are parsed"):
            parse_word(f2, text)


# --- normal forms --------------------------------------------------------


def test_free_reduction(f2):
    assert normal_form(f2, (1, -1, 2)) == w(f2, "b")


def test_abelian_commuting_sort(z2):
    assert normal_form(z2, (1, 2, 1)) == w(z2, "x^2 y")


def test_free_product_cross_syllable_cancellation(z2z):
    # x z z^-1 y collapses to the single syllable xy
    assert normal_form(z2z, (1, 3, -3, 2)) == w(z2z, "x y")
    assert z2z.syllables(w(z2z, "x y").letters) == [(0, (1, 2))]


def test_direct_product_normal_form(z2z_by_z):
    word = normal_form(z2z_by_z, (4, 1, -4, 2, 4))
    assert word == w(z2z_by_z, "x y t")


def test_normal_form_idempotent_examples(f2, z2, z2z):
    for model, raw in [(f2, (1, 1, -1, 2)), (z2, (2, 1, -2)), (z2z, (3, 1, -3, 3))]:
        word = normal_form(model, raw)
        assert normal_form(model, word.letters) == word


def test_unknown_letter_rejected(f2):
    with pytest.raises(GroupError):
        normal_form(f2, (3,))


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
@settings(max_examples=150, deadline=None)
def test_normal_form_idempotent_free(letters):
    f2 = model_from_descriptor("F2")
    word = normal_form(f2, letters)
    assert normal_form(f2, word.letters) == word


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12))
@settings(max_examples=150, deadline=None)
def test_normal_form_represents_same_element_free_product(letters):
    # multiplying letter by letter must agree with one-shot normalization
    m = model_from_descriptor("Z^2 * Z")
    word = normal_form(m, letters)
    step = m.identity()
    for ell in letters:
        step = step * Word(m, (ell,))
    assert step == word


# --- word metric ----------------------------------------------------------


def test_distance_examples(f2, z2, z2z):
    assert word_distance(f2, f2.identity(), w(f2, "a b a^-1")) == 3
    assert word_distance(z2, z2.identity(), w(z2, "x^3 y^-2")) == 5
    assert word_distance(z2z, z2z.identity(), w(z2z, "x y z x")) == 4


def test_distance_against_bfs_radius(z2z):
    # BFS over the Cayley graph: every element of the radius-4 ball has
    # word length equal to its BFS depth
    e = z2z.identity()
    depths = {e: 0}
    frontier = [e]
    for d in range(1, 5):
        nxt = []
        for v in frontier:
            for i in range(1, z2z.rank + 1):
                for s in (i, -i):
                    u = v * Word(z2z, (s,))
                    if u not in depths:
                        depths[u] = d
                        nxt.append(u)
        frontier = nxt
    for word, d in depths.items():
        assert word_distance(z2z, e, word) == d


def test_metric_axioms_small_balls(f2, z2, z2z):
    for model in (f2, z2, z2z):
        pts = ball(model, model.identity(), 2)
        for g, h in itertools.combinations(pts[:12], 2):
            assert word_distance(model, g, h) == word_distance(model, h, g)
        for g, h, k in itertools.combinations(pts[:9], 3):
            assert word_distance(model, g, k) <= word_distance(model, g, h) + word_distance(
                model, h, k
            )


def test_left_invariance_random(f2, z2z, z2z_by_z):
    import numpy as np

    rng = np.random.default_rng(7)
    for model in (f2, z2z, z2z_by_z):
        pts = ball(model, model.identity(), 3)
        for _ in range(1000):
            g, a, b = (pts[int(i)] for i in rng.integers(0, len(pts), 3))
            assert word_distance(model, g * a, g * b) == word_distance(model, a, b)


# --- balls ----------------------------------------------------------------


def test_ball_counts(f2, z2):
    assert len(ball(f2, f2.identity(), 1)) == 5
    assert len(ball(f2, f2.identity(), 2)) == 17
    assert len(ball(z2, z2.identity(), 2)) == 13


def test_ball_against_formula_oracle(f2, z2):
    for r in range(5):
        assert len(ball(f2, f2.identity(), r)) == free_ball_size(2, r)
        assert len(ball(z2, z2.identity(), r)) == abelian2_ball_size(r)


def test_ball_against_naive_bfs(f2, z2, z2z, z2z_by_z):
    # the oracle's vertices in length-lexicographic order by an independent
    # key: positive letters before their inverses, generators in index order
    def pair_key(u):
        return (len(u.letters), tuple((abs(l), 0 if l > 0 else 1) for l in u.letters))

    for model, centre in ((f2, "b a^-1"), (z2, "x y^-2"), (z2z, "x z y^-1"), (z2z_by_z, "z x t^-1")):
        c = w(model, centre)
        for r in range(4):
            assert ball(model, c, r) == sorted(naive_ball(model, c, r), key=pair_key)


# every family: free and abelian factors, three factors, a direct product as
# a factor (first, or after a free factor so that its letters are shifted),
# a nested free product, and a free product inside a direct product
FAMILIES = [
    "F2",
    "F3",
    "Z^2",
    "Z^2 * Z",
    "Z^2 * Z^2",
    "Z^2 * Z * F2",
    "(Z^2 x Z) * F2",
    "F2 * (Z^2 x Z)",
    "F2 * (Z^2 * Z)",
    "F2 * ((Z^2 * Z) x Z)",
    "F2 x Z",
    "(Z^2 * Z) x Z",
]


@pytest.mark.parametrize("desc", FAMILIES)
def test_ball_size_counts_the_ball(desc):
    m = model_from_descriptor(desc)
    lengths = [len(ls) for ls in ball_letters(m, m.identity(), 5)]
    assert [ball_size(m, r) for r in range(6)] == [sum(n <= r for n in lengths) for r in range(6)]


def test_ball_size_refuses_past_the_budget_at_once(monkeypatch):
    # F2's radius-13 ball (4782969 vertices) is past the budget; Z's
    # radius-10^9 ball is refused by its least possible size, 2r + 1
    f2, z = model_from_descriptor("F2"), model_from_descriptor("Z")
    assert ball_size(f2, 12) == free_ball_size(2, 12)
    with pytest.raises(BallCapError, match="radius-13 ball of F2 has more than 2000000 vertices"):
        ball_size(f2, 13)
    with pytest.raises(BallCapError, match="radius-1000000000 ball of Z has more than 2000000 vertices"):
        ball_size(z, 10**9)
    monkeypatch.setattr(groups, "BALL_VERTEX_BUDGET", 21)
    assert ball_size(z, 10) == 21 and ball_size(f2, 2) == 17
    for model, radius in ((z, 11), (f2, 3)):
        with pytest.raises(BallCapError, match="more than 21 vertices"):
            ball_size(model, radius)
    with pytest.raises(GroupError, match="radius must be >= 0"):
        ball_size(z, -1)


def test_ball_order_deterministic(f2):
    b = ball(f2, f2.identity(), 2)
    assert b == sorted(b, key=Word.sort_key)
    assert b[0].is_identity()
    assert str(b[1]) == "a"


def test_ball_cap(f2, monkeypatch):
    # a ball of exactly the budget enumerates; one vertex more is refused
    monkeypatch.setattr(groups, "BALL_VERTEX_BUDGET", free_ball_size(2, 4))
    assert len(ball(f2, f2.identity(), 4)) == free_ball_size(2, 4)
    with pytest.raises(BallCapError, match="more than 161 vertices"):
        ball(f2, f2.identity(), 5)


# --- words ----------------------------------------------------------------


def test_words_are_immutable(f2):
    import copy
    import pickle

    u = w(f2, "a b")
    for name in ("letters", "model", "other"):
        with pytest.raises(AttributeError):
            setattr(u, name, ())
        with pytest.raises(AttributeError):
            delattr(u, name)
    assert u.letters == (1, 2) and u.model is f2
    assert copy.copy(u) == u and pickle.loads(pickle.dumps(u)) == u


def test_word_repr_text(f2, z2z_by_z):
    assert repr(w(f2, "a b^-1")) == "Word(model=<FreeGroup F2>, letters=(1, -2))"
    assert repr(Word(f2, (1,))) == "Word(model=<FreeGroup F2>, letters=(1,))"
    assert repr(z2z_by_z.identity()) == "Word(model=<DirectProduct (Z^2 * Z) x Z>, letters=())"


def test_words_of_equal_models_are_equal_and_hash_as_their_letters():
    m1, m2 = parse_model("Z^2 * Z"), parse_model("Z^2 * Z")
    u, v = Word(m1, (1, 3, -2)), Word(m2, (1, 3, -2))
    assert m1 is not m2 and u == v and not u != v
    assert hash(u) == hash(u.letters) == hash(v)
    assert u != Word(m1, (1, 3)) and u != Word(parse_model("F3"), (1, 3, -2))
    assert u != (1, 3, -2)


# --- geodesics --------------------------------------------------------


def test_geodesic_examples(f2, z2, z2z):
    p1 = geodesic(f2, f2.identity(), w(f2, "a b"))
    assert [str(v) for v in p1] == ["e", "a", "a b"]
    p2 = geodesic(z2, z2.identity(), w(z2, "x y"))
    assert [str(v) for v in p2] == ["e", "x", "x y"]
    p2r = geodesic(z2, z2.identity(), w(z2, "x y"), reverse=True)
    assert [str(v) for v in p2r] == ["e", "y", "x y"]
    p3 = geodesic(z2z, z2z.identity(), w(z2z, "x z"))
    assert [str(v) for v in p3] == ["e", "x", "x z"]


def test_geodesic_lengths_exhaustive(z2z):
    e = z2z.identity()
    for target in ball(z2z, e, 3):
        path = geodesic(z2z, e, target)
        assert len(path) - 1 == word_distance(z2z, e, target)
        assert path[0] == e and path[-1] == target
        for u, v in zip(path, path[1:]):
            assert word_distance(z2z, u, v) == 1


@pytest.mark.parametrize("desc", ["F2", "Z^2", "Z^2 * Z", "(Z^2 * Z) x Z"])
@pytest.mark.parametrize("reverse", [False, True])
def test_geodesic_greedy_letter_order(desc, reverse):
    # letters a, a^-1, b, b^-1, ...: forward takes the first closer one,
    # reverse the last
    m = model_from_descriptor(desc)
    order = [s for i in range(1, m.rank + 1) for s in (i, -i)]
    if reverse:
        order.reverse()
    pts = ball(m, m.identity(), 2)
    for g, h in itertools.product(pts[::3], pts[::2]):
        path = geodesic(m, g, h, reverse=reverse)
        assert path[0] == g and path[-1] == h and len(path) == word_distance(m, g, h) + 1
        for u, v in zip(path, path[1:]):
            d = word_distance(m, u, h)
            closer = [s for s in order if word_distance(m, u * Word(m, (s,)), h) < d]
            assert v == u * Word(m, (closer[0],))


@pytest.mark.parametrize(
    "desc", ["F2", "F3", "Z^2", "Z^3", "Z^2 * Z", "Z * Z", "F2 * Z^2", "F2 x Z", "(Z^2 * Z) x Z"]
)
def test_geodesic_matches_the_greedy_search(desc):
    # the spelled normal form against the neighbour-by-neighbour search,
    # both directions, on seeded pairs of words of length up to 8
    m = model_from_descriptor(desc)
    rng = random.Random(22)
    letters = [s for i in range(1, m.rank + 1) for s in (i, -i)]
    for _ in range(120):
        g, h = (normal_form(m, rng.choices(letters, k=rng.randint(0, 8))) for _ in range(2))
        for reverse in (False, True):
            assert list(geodesic(m, g, h, reverse=reverse)) == greedy_geodesic(m, g, h, reverse=reverse)


def test_diameter(f2):
    row = partial(distance_row, f2)
    assert diameter([], row) == 0
    assert diameter([w(f2, "a b")], row) == 0
    assert diameter(iter([f2.identity(), w(f2, "a"), w(f2, "b^-1 a")]), row) == 3


@pytest.mark.parametrize("desc", ["F2", "Z^2", "Z^2 * Z", "(Z^2 * Z) x Z", "F2 x Z"])
def test_distance_row_matches_word_distance(desc):
    m = model_from_descriptor(desc)
    pts = ball(m, m.identity(), 2)
    for g in pts[::2]:
        expected = [word_distance(m, g, h) for h in pts]
        assert distance_row(m, g, pts) == expected
        assert distance_row(m, g, iter(pts)) == expected
        assert list(map(distance_from(m, g), pts)) == expected
    some = pts[::3]
    assert word_diameter(m, iter(some)) == max(word_distance(m, g, h) for g, h in itertools.combinations(some, 2))
    assert word_diameter(m, []) == word_diameter(m, pts[:1]) == 0
    other = model_from_descriptor("F3")
    with pytest.raises(GroupError):
        distance_row(m, other.identity(), pts)


@pytest.mark.parametrize("desc", ["F2 x Z", "(Z^2 * Z) x Z"])
def test_direct_product_rows_are_the_lengths_of_the_products(desc):
    # a G x Z row cuts each point once and adds the central exponents'
    # distance to the G-row: the length of the product g^-1 h it spells
    m = model_from_descriptor(desc)
    pts = ball(m, m.identity(), 3)
    for g in pts:
        g_inv = m.inverse(g.letters)
        assert distance_row(m, g, pts) == [len(m.product(g_inv, h.letters)) for h in pts]


# --- the word layer: junction products, structural inverses, keys ------------

WORD_MODELS = ["F2", "Z^2", "Z^2 * Z", "(Z^2 * Z) x Z"]


def _raw(model, letters):
    """Map unsigned draws onto valid signed letters of the model."""
    return [(abs(x) % model.rank + 1) * (1 if x > 0 else -1) for x in letters]


def _reverse_inverse(raw):
    return [-l for l in reversed(raw)]


_draws = st.lists(st.integers(-8, 8).filter(bool), max_size=9)


@given(st.sampled_from(WORD_MODELS), _draws, _draws, st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_word_operations_match_raw_normal_forms(desc, da, dc, k):
    m = model_from_descriptor(desc)
    ra = _raw(m, da)
    # b opens with the inverse of a's last k letters, so the junction cancels
    rb = _reverse_inverse(ra[len(ra) - min(k, len(ra)):]) + _raw(m, dc)
    a, b = normal_form(m, ra), normal_form(m, rb)
    assert a * b == normal_form(m, ra + rb)
    assert a.inverse() == normal_form(m, _reverse_inverse(ra))
    assert a.inverse().inverse() == a
    assert word_distance(m, a, b) == len(normal_form(m, _reverse_inverse(ra) + rb))
    assert word_distance(m, a, b) == word_distance(m, b, a)


@given(st.sampled_from(WORD_MODELS), st.lists(st.tuples(_draws, st.integers(1, 4)), max_size=5))
@settings(max_examples=200, deadline=None)
def test_str_spells_runs_and_parses_back(desc, runs):
    m = model_from_descriptor(desc)
    word = normal_form(m, [ell for draws, k in runs for ell in _raw(m, draws) for _ in range(k)])
    # reference spelling: one token per maximal run of one letter
    tokens = []
    for ell, run in itertools.groupby(word.letters):
        name, exp = m.generator_names[abs(ell) - 1], len(list(run)) * (1 if ell > 0 else -1)
        tokens.append(name if exp == 1 else f"{name}^{exp}")
    assert str(word) == (" ".join(tokens) or "e")
    assert parse_word(m, str(word)) == word


SPELL_MODELS = ["F2", "F3", "Z^2", "Z^2 * Z", "F2 x Z", "(Z^2 * Z) x Z"]

# one move of a path of words: a one-letter step, a power of one letter (so
# runs grow, shrink and change sign), an arbitrary jump, or a return to the
# identity
_moves = st.one_of(
    st.tuples(st.just("step"), st.integers(-8, 8).filter(bool)),
    st.tuples(st.just("power"), st.integers(-8, 8).filter(bool), st.integers(-6, 6)),
    st.tuples(st.just("jump"), _draws),
    st.tuples(st.just("identity")),
)


@given(st.sampled_from(SPELL_MODELS), _draws, st.lists(_moves, max_size=30))
@settings(max_examples=300, deadline=None)
def test_spell_path_spells_every_word(desc, start, moves):
    m = model_from_descriptor(desc)
    cur = normal_form(m, _raw(m, start))
    path = [cur]
    for kind, *arg in moves:
        if kind == "step":
            cur = cur * normal_form(m, _raw(m, arg))
        elif kind == "power":
            cur = cur * normal_form(m, _raw(m, arg[:1])) ** arg[1]
        elif kind == "jump":
            cur = cur * normal_form(m, _raw(m, arg[0]))
        else:
            cur = m.identity()
        path.append(cur)
    assert spell_letters(m, [u.letters for u in path]) == [str(u) for u in path]


@pytest.mark.parametrize(
    "desc, texts",
    [
        # a run that grows, shrinks, vanishes and comes back with the other sign
        ("F2", ["a", "a^2", "a^3", "a^2", "a^2 b", "a^2", "a", "e", "a^-1", "a^-2", "a^-2 b^3"]),
        # runs that start the word, and a change of the first letter
        ("F2", ["a^2 b", "a^3 b", "b^-1 a", "a^2 b^-1", "a^2", "b^2"]),
        # an abelian syllable grows inside the word, not at its end
        ("Z^2 * Z", ["x y", "x^2 y", "x^2 y z", "x^2 y^2 z", "x^2 y^2", "y^2"]),
        # the central letters stay last while the left letters change
        ("F2 x Z", ["a t", "a b t", "a b t^2", "a t^2", "t^2", "a^-1 t^2", "e"]),
    ],
)
def test_spell_path_keeps_only_what_the_words_share(desc, texts):
    m = model_from_descriptor(desc)
    assert spell_letters(m, [parse_word(m, t).letters for t in texts]) == texts
    assert spell_letters(m, []) == []


def _letters_spelled(monkeypatch) -> list[int]:
    """A one-item list that counts the letters handed to `_spell_runs` from
    here on."""
    handed, spell_runs = [0], groups._spell_runs

    def counted(model, letters, i, parts):
        handed[0] += len(letters) - i
        spell_runs(model, letters, i, parts)

    monkeypatch.setattr(groups, "_spell_runs", counted)
    return handed


def test_spell_path_spells_a_walks_states_from_the_state_before(monkeypatch):
    # every state of a free-group walk adds or removes one letter at the end
    # of the one before it, so only the first state is spelled from scratch
    m, rng = model_from_descriptor("F2"), random.Random(5)
    path = [parse_word(m, "a^2 b^-1 a b^3").letters]
    for _ in range(2000):
        path.append(m.product(path[-1], (rng.choice((1, -1, 2, -2)),)))
    texts = [str(Word(m, ls)) for ls in path]
    handed = _letters_spelled(monkeypatch)
    assert spell_letters(m, path) == texts
    assert handed[0] <= len(path[0]) + 2 * len(path)


def test_spell_path_from_a_long_word_and_back(monkeypatch):
    # runs of 1 to 4 letters, a b a^-1 b^-1 in turn, 200,000 letters in all
    m = model_from_descriptor("F2")
    runs = itertools.cycle([(1, 1), (2, 2), (-1, 3), (-2, 4)])
    start = tuple(itertools.islice((ell for ell, n in runs for _ in range(n)), 200_000))
    # take off the last five letters (the last run goes and a^-1^3 shrinks),
    # add a^-1 b^2 a (a^-1^2 grows, then two new runs), take those off again
    # and put the five back
    steps = [-ell for ell in reversed(start[-5:])] + [-1, 2, 2, 1, -1, -2, -2, 1] + list(start[-5:])
    path = [start]
    for ell in steps:
        path.append(m.product(path[-1], (ell,)))
    assert path[-1] == start and len(min(path, key=len)) == len(start) - 5
    texts = [str(Word(m, ls)) for ls in path]
    handed = _letters_spelled(monkeypatch)
    assert spell_letters(m, path) == texts
    assert handed[0] <= len(path[0]) + 2 * len(path)


_raw_letters = st.lists(st.integers(-12, 12).filter(bool), max_size=16)


@given(st.sampled_from(FAMILIES), _raw_letters, _raw_letters, st.integers(0, 16), _raw_letters)
@settings(max_examples=400, deadline=None)
def test_word_operations_match_the_reference_normal_form(desc, da, db, k, draw):
    m = model_from_descriptor(desc)
    a = reference_normal_form(m, _raw(m, da))
    # b opens with the inverse of a's last k letters, so the junction cancels
    b = reference_normal_form(m, _reverse_inverse(a[len(a) - min(k, len(a)) :]) + _raw(m, db))
    raw = _raw(m, draw)
    assert m.normalize(raw) == reference_normal_form(m, raw)
    assert m.product(a, b) == reference_normal_form(m, a + b)
    assert m.inverse(a) == reference_normal_form(m, _reverse_inverse(a))
    assert m.product(a, m.inverse(a)) == ()


def test_a_product_merges_only_the_junction_syllables(monkeypatch, z2z):
    merges = []
    product = FreeAbelian.product

    def counted(model, a, b):
        merges.append((a, b))
        return product(model, a, b)

    monkeypatch.setattr(FreeAbelian, "product", counted)
    long = (1, 2, 3) * 5000  # x y | z | x y | z ...: 10,000 syllables
    assert len(z2z.syllables(long)) == 10_000
    assert z2z.product(long, (3,)) == long + (3,) and merges == [((3,), (3,))]
    merges.clear()
    assert z2z.product(long[:-1], (-1,)) == long[:-3] + (2,) and merges == [((1, 2), (-1,))]


def test_junction_cancels_whole_syllables(z2z, z2z_by_z):
    assert w(z2z, "x z") * w(z2z, "z^-1 y") == w(z2z, "x y")
    assert w(z2z, "z x z") * w(z2z, "z^-1 x^-1 z^-1") == z2z.identity()
    assert w(z2z, "z x y z") * w(z2z, "z^-1 y^-1") == w(z2z, "z x")
    assert w(z2z_by_z, "x z t") * w(z2z_by_z, "z^-1 y t^-2") == w(z2z_by_z, "x y t^-1")
    assert w(z2z_by_z, "z x t^2").inverse() == w(z2z_by_z, "x^-1 z^-1 t^-2")


@pytest.mark.parametrize("desc", WORD_MODELS)
def test_word_distance_matches_bfs_oracle(desc):
    from oracles import cayley_graph_adjacency, graph_bfs

    m = model_from_descriptor(desc)
    e = m.identity()
    depth = graph_bfs(cayley_graph_adjacency(m, 3), e)
    for u, d in depth.items():
        assert word_distance(m, e, u) == d
        assert word_distance(m, u, e) == d
        assert len(u) == d


@pytest.mark.parametrize("desc", WORD_MODELS)
def test_equal_descriptors_hash_equal(desc):
    m1, m2 = parse_model(desc), parse_model(desc)
    assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2)
    words = ball(m1, m1.identity(), 2)
    twins = [Word(m2, u.letters) for u in words]
    assert all(u == v and hash(u) == hash(v) for u, v in zip(words, twins))
    assert set(words) == set(twins) and len(set(words)) == len(words)
    index = {u: i for i, u in enumerate(words)}
    assert [index[v] for v in twins] == list(range(len(words)))


@pytest.mark.parametrize("desc", WORD_MODELS)
def test_sort_key_orders_like_the_pair_key(desc):
    def pair_key(u):
        return (len(u.letters), tuple((abs(l), 0 if l > 0 else 1) for l in u.letters))

    m = model_from_descriptor(desc)
    words = ball(m, m.identity(), 3)
    assert words == sorted(words, key=pair_key)
    shuffled = words[::-1]
    assert sorted(shuffled, key=Word.sort_key) == sorted(shuffled, key=pair_key)


@pytest.mark.parametrize("desc", WORD_MODELS)
def test_out_of_range_letters_rejected_at_the_boundary(desc):
    m = model_from_descriptor(desc)
    for bad in (0, m.rank + 1, -(m.rank + 1)):
        with pytest.raises(GroupError):
            normal_form(m, (1, bad))
    with pytest.raises(GroupError):
        parse_word(m, "q")
