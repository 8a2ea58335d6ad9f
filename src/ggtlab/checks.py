"""Fast self-check registry backing the command-line `check` subcommand.

Each check is a small, deterministic property probe (seconds, not minutes);
the heavyweight verification lives in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .boundary import cross_ratio, make_boundary_point
from .chains import (
    GeneratorPermutation,
    LeftTranslation,
    branch_swap,
    check_irreducibility,
    push_forward,
    quasi_homogeneity_witness,
    simulate,
    srw,
)
from .groups import ball, geodesic, model_from_descriptor, parse_word, word_distance
from .hhs import coning_schedule, figure_skeleton
from .morse import mutual_projection_check
from .projections import (
    axis_of,
    behrstock_alternative,
    distance_formula_sum,
    enumerate_cosets,
    linear_order,
    lower_bound_check,
    project_to_set,
    translate_axis_pool,
)
from .spaces import _bass_serre_distance, cone_off, cyclic_coset_family, delta_estimate, top_level_orbit


def _setup():
    orbit = top_level_orbit(model_from_descriptor("F2"))
    return orbit.group, orbit


def check_ball_counts() -> tuple[bool, str]:
    f2 = model_from_descriptor("F2")
    z2 = model_from_descriptor("Z^2")
    ok = len(ball(f2, f2.identity(), 2)) == 17 and len(ball(z2, z2.identity(), 2)) == 13
    return ok, "|B_F2(2)| = 17, |B_Z2(2)| = 13"


def check_metric_axioms() -> tuple[bool, str]:
    m = model_from_descriptor("Z^2 * Z")
    pts = ball(m, m.identity(), 2)[:10]
    for g in pts:
        for h in pts:
            if word_distance(m, g, h) != word_distance(m, h, g):
                return False, f"symmetry fails at {g}, {h}"
            for k in pts[:6]:
                if word_distance(m, g, k) > word_distance(m, g, h) + word_distance(m, h, k):
                    return False, "triangle inequality fails"
    return True, "symmetry and triangle inequality on a Z^2*Z sample"


def check_geodesics() -> tuple[bool, str]:
    m = model_from_descriptor("Z^2 * Z")
    for target in ball(m, m.identity(), 2):
        path = geodesic(m, m.identity(), target)
        if len(path) - 1 != word_distance(m, m.identity(), target):
            return False, f"geodesic length mismatch at {target}"
    return True, "geodesic lengths match distances on a radius-2 ball"


def check_bass_serre_examples() -> tuple[bool, str]:
    m = model_from_descriptor("Z^2 * Z")
    ok = _bass_serre_distance(m, 0, 0, parse_word(m, "z").letters) == 2
    ok = ok and _bass_serre_distance(m, 0, 1, ()) == 1
    return ok, "d(A, zA) = 2 and d(A, B) = 1 on the coset tree"


def check_tree_hyperbolicity() -> tuple[bool, str]:
    f2, orbit = _setup()
    est = delta_estimate(orbit, ball(f2, f2.identity(), 3))
    return est.value == 0.0, "four-point defect 0 on the tree"


def check_cone_contracts() -> tuple[bool, str]:
    f2, _ = _setup()
    fam = cyclic_coset_family(f2, parse_word(f2, "a"), single_rep=f2.identity())
    coned = cone_off(f2, 3, [fam])
    ok = coned.distance(parse_word(f2, "a^3"), parse_word(f2, "a^-3")) == 1
    e = f2.identity()
    dmap = coned.distances_from(e)
    ok = ok and all(dmap[v] <= word_distance(f2, e, v) for v in coned.vertices)
    return ok, "coned coset has diameter 1; coning never increases distances"


def check_projection_examples() -> tuple[bool, str]:
    f2, orbit = _setup()
    ax = axis_of(parse_word(f2, "a"))
    p1 = project_to_set(orbit, parse_word(f2, "b a b"), ax).points
    p2 = project_to_set(orbit, parse_word(f2, "a^4 b"), ax).points
    ok = [str(x) for x in p1] == ["e"] and [str(x) for x in p2] == ["a^4"]
    return ok, "projections of bab and a^4 b onto <a>"


def check_projection_retraction() -> tuple[bool, str]:
    f2, orbit = _setup()
    ax = axis_of(parse_word(f2, "a b"))
    for n in range(-3, 4):
        x = ax.point(n)
        if project_to_set(orbit, x, ax).points != (x,):
            return False, f"retraction fails at {x}"
    return True, "projection restricted to the axis is the identity"


def check_behrstock_small() -> tuple[bool, str]:
    f2, orbit = _setup()
    pool = translate_axis_pool(parse_word(f2, "a"), 4, seed=5)
    xs = ball(f2, f2.identity(), 3)
    for i in range(len(pool)):
        for j in range(len(pool)):
            if i != j and not behrstock_alternative(orbit, pool[i], pool[j], xs, 2).ok:
                return False, f"violation between {pool[i]} and {pool[j]}"
    return True, "two-sided alternative with B = 2 on a 4-axis pool"


def check_coset_sums() -> tuple[bool, str]:
    f2, orbit = _setup()
    rec = enumerate_cosets(orbit, parse_word(f2, "a"), f2.identity(), parse_word(f2, "b a^5 b"), 4)
    ok = len(rec.entries) == 1 and rec.entries[0].value == 5
    ok = ok and distance_formula_sum(rec, f2.identity(), parse_word(f2, "b a^5 b")) == 5
    return ok, "threshold-4 cosets of (e, b a^5 b) and their sum"


def check_linear_order() -> tuple[bool, str]:
    f2, orbit = _setup()
    rec = enumerate_cosets(
        orbit, parse_word(f2, "a"), f2.identity(), parse_word(f2, "b a^4 b^2 a^4 b"), 3
    )
    entries, report = linear_order(rec)
    ok = [str(e.axis.rep) for e in entries] == ["b", "b a^4 b^2"] and report.consistent
    return ok, "two-coset order along the path, four criteria agreeing"


def check_lower_bound() -> tuple[bool, str]:
    f2, orbit = _setup()
    res = lower_bound_check(orbit, parse_word(f2, "a"), f2.identity(), parse_word(f2, "b a^5 b"), 4)
    return (res.lhs, res.rhs, res.passed) == (7, 2.5, True), "distance dominates half the sum"


def check_chain_invariance() -> tuple[bool, str]:
    f2, _ = _setup()
    kernel = srw(f2)
    g = parse_word(f2, "b a")
    [t1] = simulate(kernel, f2.identity(), 10, seed=7)
    [t2] = simulate(kernel, g, 10, seed=7)
    ok = tuple(g * s for s in t1.states) == t2.states
    return ok, "translated starts give translated sample paths"


def check_pushforward_and_witness() -> tuple[bool, str]:
    f2, _ = _setup()
    pushed = push_forward(srw(f2), branch_swap(f2))
    phi, rep = quasi_homogeneity_witness(pushed, f2.identity(), parse_word(f2, "a"))
    return rep.exact, "conjugated translation matches the pushed chain exactly"


def check_qi_constants() -> tuple[bool, str]:
    f2, _ = _setup()
    for qi in (LeftTranslation(f2, parse_word(f2, "a b")), GeneratorPermutation(f2, (2, 1)), branch_swap(f2)):
        nu = qi.measured_qi_constants(3)
        if nu > qi.claimed_nu:
            return False, f"{type(qi).__name__} measures nu = {nu} above its claimed {qi.claimed_nu}"
    return True, "translation, generator swap and branch swap stay within their claimed nu on B(3)"


def check_irreducibility_quick() -> tuple[bool, str]:
    f2, _ = _setup()
    res = check_irreducibility(srw(f2), parse_word(f2, "a"), 2)
    return (res.eps, res.k) == (Fraction(1, 4), 1), "one-step probability 1/4"


def check_coning_rounds() -> tuple[bool, str]:
    sched = coning_schedule(figure_skeleton())
    got = [sorted(r.removed) for r in sched.rounds]
    ok = got == [["A", "B", "C", "D"], ["E", "F", "G"], ["H", "I"]]
    return ok, "figure skeleton peels 4-clique, triangle, edge"


def check_cross_ratios() -> tuple[bool, str]:
    f2, _ = _setup()
    mk = lambda p, v: make_boundary_point(f2, parse_word(f2, p), parse_word(f2, v))  # noqa: E731
    a, b = mk("e", "a"), mk("e", "b")
    ab, ba = mk("a", "b"), mk("b", "a")
    ok = cross_ratio(f2, a, b, ab, ba) == 0 and cross_ratio(f2, a, ab, b, ba) == 2
    return ok, "the two exact quadruple values 0 and 2"


def check_mutual_projections() -> tuple[bool, str]:
    f2, orbit = _setup()
    alpha = [parse_word(f2, f"a^{k}") if k else f2.identity() for k in range(8)]
    beta = [parse_word(f2, f"b^{k}") if k else f2.identity() for k in range(8)]
    res = mutual_projection_check(orbit, alpha, beta)
    ok = res.diam_first_on_second == (0, 0) and res.diam_second_on_first == (0, 0)
    return ok, "orthogonal rays project to the basepoint"


REGISTRY: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("ball-counts", check_ball_counts),
    ("metric-axioms", check_metric_axioms),
    ("geodesics", check_geodesics),
    ("bass-serre", check_bass_serre_examples),
    ("tree-hyperbolicity", check_tree_hyperbolicity),
    ("coning", check_cone_contracts),
    ("projection-examples", check_projection_examples),
    ("projection-retraction", check_projection_retraction),
    ("projection-alternative", check_behrstock_small),
    ("coset-sums", check_coset_sums),
    ("linear-order", check_linear_order),
    ("lower-bound", check_lower_bound),
    ("chain-invariance", check_chain_invariance),
    ("pushforward-witness", check_pushforward_and_witness),
    ("qi-constants", check_qi_constants),
    ("irreducibility", check_irreducibility_quick),
    ("coning-rounds", check_coning_rounds),
    ("cross-ratios", check_cross_ratios),
    ("mutual-projections", check_mutual_projections),
]


def run_all() -> int:
    """Run every registered check; returns the number of failures."""
    failures = 0
    for name, fn in REGISTRY:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, then count as failure
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    return failures
