"""Morse certificates, incompatibility, mutual projections."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ggtlab.groups import (
    GroupError,
    Word,
    distance_row,
    geodesic,
    model_from_descriptor,
    normal_form,
    word_distance,
)
from ggtlab.morse import (
    IncompatibilityWitness,
    _is_quasi_geodesic,
    diagonal_crossing_ray,
    incompatibility_witness,
    morse_certificate,
    mutual_projection_check,
    tree_gauge,
)
from ggtlab.projections import axis_of

from conftest import w
from oracles import naive_ball, reference_morse_certificate


# --- certificates -------------------------------------------------------------


def test_tree_segment_geodesic_cell_zero(f2):
    seg = geodesic(f2, f2.identity(), w(f2, "a^6"))
    cert = morse_certificate(f2, seg, [(1, 0)], window=4)
    cell = cert.cells[(1, 0)]
    assert cell.max_detour == 0 and cell.status == "certified-on-window"


def test_tree_random_segments_geodesic_cell_zero(f2):
    import numpy as np

    rng = np.random.default_rng(12)
    pts = sorted(naive_ball(f2, f2.identity(), 5), key=Word.sort_key)
    for _ in range(50):
        a, b = (pts[int(i)] for i in rng.integers(0, len(pts), 2))
        if a == b:
            continue
        cert = morse_certificate(f2, geodesic(f2, a, b), [(1, 0)], window=3)
        assert cert.cells[(1, 0)].max_detour == 0


def test_staircase_corner_detour(z2):
    # corner path through (6, 0) realizes the max detour of 6
    seg = []
    letters = []
    seg.append(z2.identity())
    for _ in range(6):
        letters.append(1)
        seg.append(Word(z2, z2.normalize(tuple(letters))))
        letters.append(2)
        seg.append(Word(z2, z2.normalize(tuple(letters))))
    cert = morse_certificate(z2, seg, [(1, 0)], window=7)
    cell = cert.cells[(1, 0)]
    assert cell.max_detour == 6
    # either corner path realizes the detour
    assert w(z2, "x^6") in cell.witness or w(z2, "y^6") in cell.witness


def test_free_product_z_segment(z2z):
    seg = geodesic(z2z, z2z.identity(), w(z2z, "z^6"))
    cert = morse_certificate(z2z, seg, [(1, 0)], window=3)
    assert cert.cells[(1, 0)].max_detour == 0


@pytest.mark.parametrize(
    "cell", [(float("inf"), 0), (1, float("inf")), (float("nan"), 0), (1, float("nan")), (0.5, 0), (1, -1)]
)
def test_bad_grid_cell_refused_before_the_window(monkeypatch, f2, cell):
    import ggtlab.morse

    def fail(*args, **kwargs):
        raise AssertionError("window built for a refused grid")

    monkeypatch.setattr(ggtlab.morse, "_window", fail)
    seg = geodesic(f2, f2.identity(), w(f2, "a^3"))
    with pytest.raises(GroupError, match="grid cells need"):
        morse_certificate(f2, seg, [(1, 0), cell], window=3)


def test_certificate_monotone_and_gauge(f2):
    seg = geodesic(f2, f2.identity(), w(f2, "a^5"))
    grid = [(1, 0), (1, 2), (2, 0), (2, 2)]
    cert = morse_certificate(f2, seg, grid, window=3)
    t = {cell: v.max_detour for cell, v in cert.cells.items()}
    assert t[(1, 0)] <= t[(1, 2)] <= t[(2, 2)]
    assert t[(1, 0)] <= t[(2, 0)] <= t[(2, 2)]


def test_tree_excursions_bounded_by_reference_gauge(f2):
    # quasi-geodesic cells on a tree segment stay within the shipped gauge
    seg = geodesic(f2, f2.identity(), w(f2, "a^6"))
    cert = morse_certificate(f2, seg, [(1, 2), (2, 2)], window=4)
    for (lam, eps), cell in cert.cells.items():
        assert cell.max_detour <= tree_gauge(lam, eps)


# Cells of `morse_certificate` on grid 1,0;1,2;2,2 with window 3, recorded
# before the window search moved onto a letter-keyed table and kept since
# the window is indexed by integer ids: per target, one (max detour, status,
# witness letters) triple per grid cell.  The first ten
# targets are seeded reduced F2 words of length 5, the last is on Z^2 * Z.
GOLDEN_GRID = [(1.0, 0.0), (1.0, 2.0), (2.0, 2.0)]
GOLDEN_CELLS = [
    ((2, -1, -2, 1, 1), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (1,), (), (2,), (2, -1), (2, -1, -2), (2, -1, -2, 1), (2, -1, -2, 1, 1),
        )),
        (3, "witness-found", (
            (), (1,), (1, 1), (1, 1, 1), (1, 1), (1,), (), (2,), (2, -1), (2, -1, -2),
            (2, -1, -2, 1), (2, -1, -2, 1, 1),
        )),
    ]),
    ((1, 2, 1, 1, 1), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (-1,), (), (1,), (1, 2), (1, 2, 1), (1, 2, 1, 1), (1, 2, 1, 1, 1),
        )),
        (3, "witness-found", (
            (), (-1,), (-1, -1), (-1, -1, -1), (-1, -1), (-1,), (), (1,), (1, 2), (1, 2, 1),
            (1, 2, 1, 1), (1, 2, 1, 1, 1),
        )),
    ]),
    ((-2, -2, 1, 1, -2), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (1,), (), (-2,), (-2, -2), (-2, -2, 1), (-2, -2, 1, 1), (-2, -2, 1, 1, -2),
        )),
        (3, "witness-found", (
            (), (1,), (1, 1), (1, 1, 1), (1, 1), (1,), (), (-2,), (-2, -2), (-2, -2, 1),
            (-2, -2, 1, 1), (-2, -2, 1, 1, -2),
        )),
    ]),
    ((1, 1, 1, -2, 1), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (-1,), (), (1,), (1, 1), (1, 1, 1), (1, 1, 1, -2), (1, 1, 1, -2, 1),
        )),
        (3, "witness-found", (
            (), (-1,), (-1, -1), (-1, -1, -1), (-1, -1), (-1,), (), (1,), (1, 1), (1, 1, 1),
            (1, 1, 1, -2), (1, 1, 1, -2, 1),
        )),
    ]),
    ((-1, -1, 2, -1, 2), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (1,), (), (-1,), (-1, -1), (-1, -1, 2), (-1, -1, 2, -1), (-1, -1, 2, -1, 2),
        )),
        (3, "witness-found", (
            (), (1,), (1, 1), (1, 1, 1), (1, 1), (1,), (), (-1,), (-1, -1), (-1, -1, 2),
            (-1, -1, 2, -1), (-1, -1, 2, -1, 2),
        )),
    ]),
    ((-1, -1, 2, 1, 1), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (1,), (), (-1,), (-1, -1), (-1, -1, 2), (-1, -1, 2, 1), (-1, -1, 2, 1, 1),
        )),
        (3, "witness-found", (
            (), (1,), (1, 1), (1, 1, 1), (1, 1), (1,), (), (-1,), (-1, -1), (-1, -1, 2),
            (-1, -1, 2, 1), (-1, -1, 2, 1, 1),
        )),
    ]),
    ((1, -2, -2, -2, -2), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (-1,), (), (1,), (1, -2), (1, -2, -2), (1, -2, -2, -2), (1, -2, -2, -2, -2),
        )),
        (3, "witness-found", (
            (), (-1,), (-1, -1), (-1, -1, -1), (-1, -1), (-1,), (), (1,), (1, -2), (1, -2, -2),
            (1, -2, -2, -2), (1, -2, -2, -2, -2),
        )),
    ]),
    ((2, 2, -1, -1, -1), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (1,), (), (2,), (2, 2), (2, 2, -1), (2, 2, -1, -1), (2, 2, -1, -1, -1),
        )),
        (3, "witness-found", (
            (), (1,), (1, 1), (1, 1, 1), (1, 1), (1,), (), (2,), (2, 2), (2, 2, -1),
            (2, 2, -1, -1), (2, 2, -1, -1, -1),
        )),
    ]),
    ((1, 2, 2, 2, 1), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (-1,), (), (1,), (1, 2), (1, 2, 2), (1, 2, 2, 2), (1, 2, 2, 2, 1),
        )),
        (3, "witness-found", (
            (), (-1,), (-1, -1), (-1, -1, -1), (-1, -1), (-1,), (), (1,), (1, 2), (1, 2, 2),
            (1, 2, 2, 2), (1, 2, 2, 2, 1),
        )),
    ]),
    ((1, -2, -1, 2, -1), [
        (0, "certified-on-window", None),
        (1, "witness-found", (
            (), (-1,), (), (1,), (1, -2), (1, -2, -1), (1, -2, -1, 2), (1, -2, -1, 2, -1),
        )),
        (3, "witness-found", (
            (), (-1,), (-1, -1), (-1, -1, -1), (-1, -1), (-1,), (), (1,), (1, -2), (1, -2, -1),
            (1, -2, -1, 2), (1, -2, -1, 2, -1),
        )),
    ]),
    ((1, 2, 3, 1, 2), [
        (1, "certified-on-window", ((), (2,), (1, 2))),
        (2, "witness-found", (
            (), (2,), (-1, 2), (2,), (1, 2), (1, 2, 3), (1, 2, 3, 2), (1, 2, 3, 1, 2),
        )),
        (3, "witness-found", (
            (), (-1,), (-1, -1), (-1, -1, -1), (-1, -1), (-1, -1, 2), (-1, 2), (2,), (1, 2),
            (1, 2, 3), (1, 2, 3, 2), (1, 2, 3, 1, 2),
        )),
    ]),
]


def _reduced_f2_letters(rng, length):
    out = []
    while len(out) < length:
        s = rng.choice((1, -1, 2, -2))
        if not (out and out[-1] == -s):
            out.append(s)
    return tuple(out)


def test_golden_certificate_cells(f2, z2z):
    import random

    rng = random.Random(7)
    targets = [Word(f2, _reduced_f2_letters(rng, 5)) for _ in range(10)]
    targets.append(w(z2z, "x y z x y"))
    assert [t.letters for t in targets] == [letters for letters, _ in GOLDEN_CELLS]
    for target, (_, expected) in zip(targets, GOLDEN_CELLS):
        model = target.model
        cert = morse_certificate(model, geodesic(model, model.identity(), target), GOLDEN_GRID, 3)
        got = []
        for key in GOLDEN_GRID:
            cell = cert.cells[key]
            witness = None if cell.witness is None else tuple(v.letters for v in cell.witness)
            got.append((cell.max_detour, cell.status, witness))
        assert got == expected, target


def test_exact_cell_witness_is_a_geodesic_between_segment_vertices(z2z):
    for target in ("x y z x y", "x y x y", "z x y x", "z x^3 y^2 z"):
        seg = geodesic(z2z, z2z.identity(), w(z2z, target))
        for window in (2, 3):
            cell = morse_certificate(z2z, seg, [(1, 0)], window).cells[(1, 0)]
            path = cell.witness
            assert path[0] in seg and path[-1] in seg
            assert word_distance(z2z, path[0], path[-1]) == len(path) - 1
            assert all(word_distance(z2z, u, v) == 1 for u, v in zip(path, path[1:]))
            detours = [min(word_distance(z2z, v, s) for s in seg) for v in path]
            assert max(detours) == cell.max_detour > 0


REFERENCE_MODELS = ["F2", "F3", "Z^2", "Z^2 * Z", "Z^2 * Z^2", "F2 x Z", "(Z^2 * Z) x Z"]
REFERENCE_GRID = [(1.0, 0.0), (1.0, 2.0), (2.0, 2.0), (1.5, 1.0), (3.0, 0.0), (2.0, 4.0)]


def _cells(cert):
    return {
        key: (cell.max_detour, cell.status, None if cell.witness is None else tuple(v.letters for v in cell.witness))
        for key, cell in cert.cells.items()
    }


@given(
    st.sampled_from(REFERENCE_MODELS),
    st.lists(st.integers(-8, 8).filter(bool), min_size=1, max_size=7),
    st.integers(1, 3),
)
@settings(max_examples=150, deadline=None)
def test_certificate_matches_the_letter_keyed_reference(desc, draws, window):
    # the witnesses follow how the layers' tuple sets iterate, so the
    # id-indexed window must give the same cells, statuses and witnesses
    m = model_from_descriptor(desc)
    target = normal_form(m, [(abs(x) % m.rank + 1) * (1 if x > 0 else -1) for x in draws])
    assume(target.letters)
    seg = geodesic(m, m.identity(), target)
    cert = morse_certificate(m, seg, REFERENCE_GRID, window)
    assert _cells(cert) == reference_morse_certificate(m, seg, REFERENCE_GRID, window)


def test_certificate_builds_words_only_for_witnesses(monkeypatch, z2z):
    # the window, its layers and its traces run on ids and letter tuples
    seg = geodesic(z2z, z2z.identity(), w(z2z, "x y z x y"))
    init, built = Word.__init__, []

    def counted(self, model, letters):
        built.append(letters)
        init(self, model, letters)

    monkeypatch.setattr(Word, "__init__", counted)
    cert = morse_certificate(z2z, seg, GOLDEN_GRID, 3)
    witnesses = sum(len(cell.witness) for cell in cert.cells.values() if cell.witness is not None)
    assert 0 < len(built) <= witnesses + len(seg)


@pytest.mark.parametrize("cell", [(1e308, 1e308), (1e200, 1e200), (1e6, 1e6), (2, 1e308)])
def test_huge_grid_cells_are_skipped(f2, cell):
    # the horizon lam (d + eps) is inf for the first and last cells: it is
    # compared with the state budget before it is made an int
    seg = geodesic(f2, f2.identity(), w(f2, "a^2"))
    cert = morse_certificate(f2, seg, [(1, 0), cell], window=3)
    assert (cert.cells[cell].max_detour, cert.cells[cell].status) == (0, "skipped")
    assert cert.cells[(1, 0)].status == "certified-on-window"


# --- incompatibility ----------------------------------------------------------------


def revalidate(wit: IncompatibilityWitness, model, beta, gauge) -> bool:
    """Re-check a witness from its own data: its path is a quasi-geodesic
    for its parameters and its point clears the gauge by its margin."""
    k, c = wit.params
    if not _is_quasi_geodesic(model, wit.mu, k, c):
        return False
    d = min(distance_row(model, wit.point, beta))
    return d - (gauge(k, c + 2 * wit.kappa) + 2 * wit.kappa) == wit.margin


def test_no_witness_on_tree_ray(f2):
    beta = [w(f2, f"a^{k}") if k else f2.identity() for k in range(12)]
    assert incompatibility_witness(f2, beta, tree_gauge, kappa=1, prefix_bound=10) is None


def test_diagonal_crossing_witness(z2z):
    beta = diagonal_crossing_ray(z2z, flat_size=6, tail=12)
    wit = incompatibility_witness(z2z, beta, tree_gauge, kappa=1, prefix_bound=24)
    assert wit is not None
    assert wit.margin >= 1
    assert revalidate(wit, z2z, beta, tree_gauge)
    assert min(word_distance(z2z, wit.point, b) for b in beta) == 6


def test_golden_incompatibility_witnesses(z2z):
    # sha256 of each witness's path, point and margin, recorded before the
    # detour of a point from the ray was measured once per distinct point
    import hashlib

    lines = []
    for flat, tail, bound, kappa in ((3, 5, 8, 1), (4, 6, 12, 1), (6, 8, 20, 1), (6, 8, 20, 2), (5, 8, 14, 1)):
        beta = diagonal_crossing_ray(z2z, flat, tail)
        wit = incompatibility_witness(z2z, beta, tree_gauge, kappa, bound)
        lines.append("none" if wit is None else f"{[str(v) for v in wit.mu]} {wit.point} {wit.margin} {wit.params}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "3b4c7d4a13cda80606239fd0d345c85cffd94dc2d5f6989c088508a22c1e18ee"
    )


def test_witness_needs_window(z2z):
    beta = diagonal_crossing_ray(z2z, flat_size=6, tail=12)
    assert incompatibility_witness(z2z, beta, tree_gauge, kappa=1, prefix_bound=2) is None


def test_prefix_too_short(z2z):
    with pytest.raises(GroupError):
        incompatibility_witness(z2z, [z2z.identity()], tree_gauge, 1, 10)


# --- mutual projections ---------------------------------------------------------------


def test_mutual_projection_orthogonal_rays(f2, f2_orbit):
    alpha = [w(f2, f"a^{k}") if k else f2.identity() for k in range(10)]
    beta = [w(f2, f"b^{k}") if k else f2.identity() for k in range(10)]
    res = mutual_projection_check(f2_orbit, alpha, beta)
    assert res.diam_first_on_second == (0, 0)
    assert res.diam_second_on_first == (0, 0)
    assert res.stabilized and not res.same_ray


def test_mutual_projection_same_ray_flagged(f2, f2_orbit):
    alpha = [w(f2, f"a^{k}") if k else f2.identity() for k in range(10)]
    res = mutual_projection_check(f2_orbit, alpha, alpha)
    assert res.same_ray
    assert res.diam_first_on_second[0] == 9  # grows with the window


def test_mutual_projection_parallel_translate(f2, f2_orbit):
    alpha = [w(f2, f"a^{k}") if k else f2.identity() for k in range(10)]
    beta = [w(f2, "b") * v for v in alpha]
    res = mutual_projection_check(f2_orbit, alpha, beta)
    assert max(res.diam_first_on_second) <= 2
    assert max(res.diam_second_on_first) <= 2


def test_golden_mutual_projections(f2, z2z, f2_orbit, bs_orbit):
    # sha256 recorded before the projection union became `projection_of_set`
    import hashlib

    from ggtlab.groups import geodesic

    lines = []
    for orbit, model, rays in (
        (f2_orbit, f2, [("a^9", "b^9"), ("a^9", "a^3 b a^5"), ("a b^-1 a b a^4", "a b^-1 a^-2 b")]),
        (bs_orbit, z2z, [("x z x z x z", "x z y^-1 z x"), ("z x^2 z y z", "z x^2 y z x")]),
    ):
        for a, b in rays:
            alpha = geodesic(model, model.identity(), w(model, a))
            beta = geodesic(model, model.identity(), w(model, b))
            res = mutual_projection_check(orbit, alpha, beta)
            lines.append(f"{res.diam_first_on_second} {res.diam_second_on_first} {res.stabilized} {res.same_ray}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "cd0b03e84aabc4179b17f21f75658dc5365b899342319b11e5341be1765b8aa9"
    )
