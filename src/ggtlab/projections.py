"""Nearest-point projections onto axes, coset distance sums, and pivots.

An *axis* is the coset h<r> of a cyclic subgroup, viewed as a point set
{h r^n x0} in the top-level tree of its model; `axis_of` takes r primitive
and, on a free group, cyclically reduced.  Projections return the full set
of nearest points.  Coset distances take one of two conventions, which
differ only where the two projections coincide.  `coset_distance`, the
values of `enumerate_cosets`, the criteria of `linear_order` and the spread
max(pos) - min(pos) of the bounded-projection experiment read the diameter
of the union,

    d_A(x, y) = diam_X( proj_A(x) ∪ proj_A(y) ),

which is the root length q, not 0, where x and y project to one tie pair;
`distance_formula_sum` and `experiments.AxisTracker` read 0 wherever
proj_A(x) = proj_A(y).  The hypothesis/conclusion sides of the two-sided
projection alternative use plain point-set distance (min over pairs), which
is the sharp convention on trees.

On Cayley trees of free groups projections are computed analytically from
word overlaps: each axis anchors its line at the vertex nearest the identity
(`Axis.line`), where the parameterization is cancellation-free, and the
shadow of one axis on another and the threshold cosets of a geodesic are
read off the same lines, by comparing their letters.  On other tree models
a projection is a scan: the nearest points among one coset-walk window
rep·root^n, |n| <= window, wide enough that the linear growth of the axis
provably dominates the distance of rep.  A finite target set is scanned the
same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence

from .groups import (
    DirectProduct,
    FreeGroup,
    FreeProduct,
    GroupError,
    GroupModel,
    Word,
    ball,
    ball_size,
    diameter,
    distance_from,
    geodesic,
)
from .spaces import OrbitMap, SpaceError, left_component, top_level_orbit


class NotLoxodromicError(GroupError):
    """The element fixes a point (or is elliptic) in the chosen space model."""


class CertificationError(RuntimeError):
    """A search could not certify that its answer is complete and bounded."""


# ---------------------------------------------------------------------------
# axes


def _cyclic_reduce_free(letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (conjugator letters, cyclically reduced core) in a free group."""
    conj: list[int] = []
    core = list(letters)
    while len(core) >= 2 and core[0] == -core[-1]:
        conj.append(core[0])
        core = core[1:-1]
    return tuple(conj), tuple(core)


def _primitive_period(seq: Sequence) -> int:
    """Smallest period p dividing len(seq) with seq = block^(len/p)."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and all(seq[i] == seq[i % p] for i in range(n)):
            return p
    return n  # pragma: no cover


@dataclass(frozen=True)
class Axis:
    """The coset rep·<root> of a cyclic subgroup.

    ``root`` is canonical (the smaller of r and r^-1 in length-lex order) and
    ``rep`` is the minimal element of the coset, so equal point sets compare
    equal.  On a free group the root is cyclically reduced (`make_axis`
    refuses any other root there).
    """

    model: GroupModel
    root: Word
    rep: Word

    def point(self, n: int) -> Word:
        return self.rep * self.root**n

    def points(self, window: int) -> list[Word]:
        return list(_coset_walk(self.rep, self.root, window))

    def translate(self, g: Word) -> "Axis":
        return make_axis(self.model, self.root, g * self.rep)

    @cached_property
    def line(self) -> tuple[Word, tuple[int, ...], int]:
        """(anchor, direction, phase) of the coset's line on a Cayley tree:
        its vertex at position t is anchor * _spell(direction, t), without
        cancellation, and the coset points sit at positions ≡ phase (mod
        |root|).  From rep the line cancels `_cancellation`(root, rep)
        letters and then grows, so the anchor, its vertex nearest the
        identity, is rep without them; the direction reads root on from
        there, in the orientation that spells smaller."""
        model, r, q = self.model, self.root.letters, len(self.root)
        t0 = _cancellation(r, self.rep.letters)
        anchor = Word(model, self.rep.letters[: len(self.rep) - abs(t0)])
        forward = r[t0 % q :] + r[: t0 % q]
        backward = model.inverse(forward)
        if model.sort_key(forward) <= model.sort_key(backward):
            return anchor, forward, -t0 % q
        return anchor, backward, t0 % q

    def __str__(self) -> str:
        return f"{self.rep}<{self.root}>"


def _coset_walk(h: Word, root: Word, window: int) -> Iterator[Word]:
    """The coset points h, h r, h r^-1, h r^2, h r^-2, ... out to h r^±window."""
    yield h
    inv = root.inverse()
    fwd = bwd = h
    for _ in range(window):
        fwd = fwd * root
        bwd = bwd * inv
        yield fwd
        yield bwd


def _cancellation(root: tuple[int, ...], h: tuple[int, ...]) -> int:
    """The number of h's last letters that cancel against root root ...,
    or minus the number that cancel against root^-1 root^-1 ..., in a free
    group; for a cyclically reduced root at most one of the two is nonzero."""
    n, q = len(h), len(root)
    m = 0
    while m < n and h[-1 - m] == -root[m % q]:
        m += 1
    if m:
        return m
    while m < n and h[-1 - m] == root[-1 - m % q]:
        m += 1
    return -m


def coset_rep_key(root: Word, h: Word) -> tuple[int, ...]:
    """Letters of the minimal element (by `Word.sort_key`) of the coset h<root>.

    On a free group with a cyclically reduced root r, h r^±k loses |r|
    letters per step while the m = |`_cancellation`(r, h)| last letters of h
    cancel and grows after, so the minimum is h r^±k0 or h r^±(k0+1), k0 =
    m // |r|.  Otherwise the coset is walked out to h r^±(2|h|/q + 2), q the
    length of the cyclically reduced core of r on a free group and |r|
    elsewhere, past which no point is shorter than h.
    """
    model, r, letters = root.model, root.letters, h.letters
    if not letters:  # e is the shortest element of <root>
        return letters
    if isinstance(model, FreeGroup) and r and r[0] != -r[-1]:
        m = _cancellation(r, letters)
        if not m:
            return letters
        if m < 0:
            r, m = model.inverse(r), -m
        n, k0 = len(letters), m // len(r)
        near = letters[: n - k0 * len(r)]
        far = letters[: n - m] + (r * (k0 + 1))[m:]
        return min(near, far, key=model.sort_key)
    q = len(_cyclic_reduce_free(r)[1]) if isinstance(model, FreeGroup) else len(r)
    walk = _coset_walk(h, root, 2 * (len(h) // max(1, q)) + 2)
    best = next(walk)
    best_key = best.sort_key()
    for cand in walk:
        # the key leads with the length, so longer words cannot win
        if len(cand.letters) <= best_key[0]:
            key = cand.sort_key()
            if key < best_key:
                best, best_key = cand, key
    return best.letters


def make_axis(model: GroupModel, root: Word, rep: Word) -> Axis:
    if root.is_identity():
        raise NotLoxodromicError("the identity is not loxodromic")
    if isinstance(model, FreeGroup) and root.letters[0] == -root.letters[-1]:
        raise GroupError(f"the root {root} of an axis is not cyclically reduced")
    root = min(root, root.inverse(), key=Word.sort_key)
    return Axis(model, root, Word(model, coset_rep_key(root, rep)))


def axis_of(g: Word) -> Axis:
    """Axis data of a loxodromic element in the top-level tree of its model
    (`spaces.top_level_orbit`): primitive root and canonical coset.

    On G x Z the axis lives in the tree of G (see `_axis_direct_product`).
    Raises SpaceError for a model with no top-level tree, and
    NotLoxodromicError when g fixes a point of the tree (for instance an
    element of a vertex factor acting on a Bass-Serre tree).
    """
    if g.is_identity():
        raise NotLoxodromicError("the identity is not loxodromic")
    model = g.model
    tree = top_level_orbit(model).tree
    if tree is not model:
        return _axis_direct_product(g)
    if isinstance(tree, FreeGroup):
        conj, core = _cyclic_reduce_free(g.letters)
        p = _primitive_period(core)
        root = Word(model, core[:p])
        return make_axis(model, root, Word(model, model.normalize(conj)))
    return _axis_free_product(model, g)


def _axis_free_product(model: FreeProduct, g: Word) -> Axis:
    conj = model.identity()
    cur = g
    while True:
        runs = model.syllables(cur.letters)
        if len(runs) < 2:
            raise NotLoxodromicError(
                f"{g} is conjugate into a free-product factor; it fixes a vertex"
            )
        if runs[0][0] != runs[-1][0]:
            break
        head = Word(model, runs[0][1])
        conj = conj * head
        cur = head.inverse() * cur * head
    # the syllables alternate the two factors, so cur is cyclically reduced
    # and its root is its shortest repeating block of syllables
    runs = model.syllables(cur.letters)
    root = Word(model, tuple(l for _, seg in runs[: _primitive_period(runs)] for l in seg))
    return make_axis(model, root, conj)


def _axis_direct_product(g: Word) -> Axis:
    """Axis of (u, k) in G x Z acting on the tree of G (a Cayley or a
    Bass-Serre tree), built from the axis of u in that tree."""
    model: DirectProduct = g.model
    u = left_component(model, g)
    if u.is_identity():
        raise NotLoxodromicError(f"{g} acts trivially on the quotient tree")
    inner = axis_of(u)  # raises if elliptic
    _, k = model.split(g.letters)
    # write u = rep * root^m_signed * rep^-1 (rep may be any coset element)
    core = inner.rep.inverse() * u * inner.rep
    m = max(1, len(core) // max(1, len(inner.root)))
    if inner.root**m == core:
        m_signed = m
    elif inner.root**-m == core:
        m_signed = -m
    else:  # pragma: no cover - defensive
        raise GroupError("power extraction failed in direct-product axis")
    j = abs(m_signed) if k == 0 else math.gcd(abs(m_signed), abs(k))

    def embed(w: Word, t: int) -> Word:
        c = model.central_index
        tail = tuple([c if t > 0 else -c] * abs(t))
        return Word(model, model.normalize(w.letters + tail))

    inner_piece = inner.rep * inner.root ** (m_signed // j) * inner.rep.inverse()
    root = embed(inner_piece, k // j)
    return make_axis(model, root, embed(inner.rep, 0))


# ---------------------------------------------------------------------------
# analytic projection on Cayley trees


def _lcp(a: Sequence[int], b: Sequence[int]) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def _spell(direction: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Letters of the first |t| steps along a line from its anchor: forward
    through `direction` for t >= 0, backward (inverse letters, last first)
    for t < 0."""
    if t < 0:
        direction, t = tuple(-l for l in reversed(direction)), -t
    return (direction * (t // len(direction) + 1))[:t]


def nearest_positions(t_star: int, phase: int, q: int) -> tuple[int, ...]:
    """The positions ≡ phase (mod q) nearest to t_star: the one below, the
    one above, or both when they tie."""
    m0 = t_star - ((t_star - phase) % q)
    d0, d1 = t_star - m0, m0 + q - t_star
    if d0 != d1:
        return (m0,) if d0 < d1 else (m0 + q,)
    return (m0, m0 + q)


def _line_foot(anchor: Word, direction: tuple[int, ...], x: Word) -> tuple[int, int]:
    """Position of x's nearest vertex on the line anchor * _spell(direction, t),
    and x's distance to that vertex, on a Cayley tree: w = anchor^-1 x is
    read against the direction cyclically, forwards, and else against its
    reversed inverse."""
    w = (anchor.inverse() * x).letters
    n, q = len(w), len(direction)
    t = 0
    while t < n and w[t] == direction[t % q]:
        t += 1
    if not t:
        while t < n and w[t] == -direction[-1 - t % q]:
            t += 1
        t = -t
    return t, n - abs(t)


def line_positions(axis: Axis, x: Word) -> tuple[tuple[int, ...], int]:
    """Line positions (see `Axis.line`) of the coset points nearest x, and
    x's distance to them, on a Cayley tree."""
    anchor, direction, phase = axis.line
    t_star, off = _line_foot(anchor, direction, x)
    positions = nearest_positions(t_star, phase, len(direction))
    return positions, off + abs(t_star - positions[0])


def _line_vertex(anchor: Word, direction: tuple[int, ...], t: int) -> Word:
    """The vertex at position t of the line anchor * _spell(direction, t); the
    anchoring makes the product cancellation-free."""
    return Word(anchor.model, anchor.model.product(anchor.letters, _spell(direction, t)))


def _project_cayley(axis: Axis, x: Word) -> tuple[tuple[Word, ...], int]:
    anchor, direction, _ = axis.line
    positions, dist = line_positions(axis, x)
    return tuple(sorted((_line_vertex(anchor, direction, m) for m in positions), key=Word.sort_key)), dist


# ---------------------------------------------------------------------------
# projection values


@dataclass(frozen=True)
class ProjectionValue:
    points: tuple[Word, ...]
    distance: int
    method: str
    window: int | None = None

    def __iter__(self):
        return iter(self.points)


def project_to_set(orbit: OrbitMap, x: Word, target) -> ProjectionValue:
    """Full nearest-point set of an axis or a finite set of group elements.

    For axes on Cayley trees the projection is computed analytically.  On
    other models an axis is scanned as the finite set of its points out to
    a window, which is wide enough that the axis has provably escaped past
    the distance of its representative; the scan walks the translated coset
    x^-1 rep<root>, so x is inverted once and each point costs one product.
    A finite set is scanned by one `OrbitMap.distance_row`.
    """
    if orbit.is_identity and isinstance(target, Axis):
        pts, dist = _project_cayley(target, x)
        return ProjectionValue(pts, dist, "analytic")
    window = back = None
    if isinstance(target, Axis):
        # the walk from x^-1 rep reads each axis point's distance from x as
        # its displacement, and its nearest points are multiplied back by x;
        # it yields x^-1 rep first, and the axis points' spacing, the
        # displacement of the root, is positive since `axis_of` takes
        # loxodromics only
        group, displacement = orbit.group, orbit.displacement
        start = Word(group, group.product(group.inverse(x.letters), target.rep.letters))
        d_start = displacement(start.letters)
        window = (2 * d_start + 2) // displacement(target.root.letters) + 2
        pts = list(_coset_walk(start, target.root, window))
        dists = [d_start, *(displacement(p.letters) for p in pts[1:])]
        back = x
    else:
        pts = list(target)
        if not pts:
            raise SpaceError("cannot project to an empty set")
        dists = orbit.distance_row(x, pts)
    m = min(dists)
    chosen = [p if back is None else back * p for p, d in zip(pts, dists) if d == m]
    kind = "scan-finite" if window is None else "scan-axis"
    return ProjectionValue(tuple(sorted(chosen, key=Word.sort_key)), m, kind, window)


def projection_of_set(orbit: OrbitMap, pts: Iterable[Word], target) -> frozenset[Word]:
    """Union of the projections of a finite set of elements."""
    out: set[Word] = set()
    for p in pts:
        out.update(project_to_set(orbit, p, target).points)
    return frozenset(out)


def project_axis_onto(orbit: OrbitMap, src: Axis, target: Axis) -> frozenset[Word]:
    """Projection of a whole axis onto another, in closed form on a Cayley tree.

    Two distinct lines of the tree overlap in fewer than q_s + q_t edges
    (q_s, q_t the root lengths): an overlap that long has both periods, so by
    Fine and Wilf it has a period dividing both, which primitive roots force
    to be q_s = q_t, and the two lines then agree everywhere.  The line
    projection of src's line onto target's is that overlap, or else the
    single foot of the bridge between disjoint lines.  The projection of
    target.rep onto src's line, `foot`, lies in the overlap or is the bridge's
    foot, so comparing edge letters outwards from it reads the overlap in
    fewer than q_s + q_t steps.  Every point of src beyond the overlap has
    the line projection of the overlap's end on its side, so src's coset
    points up to the first one past each end give the whole shadow.  Line
    positions stay integers; only the shadow's points are spelled.

    Raises CertificationError, before any projection is computed, when both
    axes lie on one line (the same coset, or cosets of one line with
    different coset points), whose shadow is unbounded, and on any orbit map
    other than the identity on a Cayley tree.
    """
    if not orbit.is_identity:
        raise CertificationError(
            f"no closed-form projection of {src} onto {target} by the {orbit.name} orbit map"
        )
    anchor_s, d_s, phase_s = src.line
    anchor_t, d_t, phase_t = target.line
    if (anchor_s, d_s) == (anchor_t, d_t):
        raise CertificationError(f"{src} and {target} lie on one line, so the projection is unbounded")
    foot, _ = _line_foot(anchor_s, d_s, target.rep)
    t0, off = _line_foot(anchor_t, d_t, _line_vertex(anchor_s, d_s, foot))
    q_s, q_t = len(d_s), len(d_t)
    sign, lo, hi = 1, foot, foot
    if off == 0:
        # both lines read from their shared vertex, src's ahead along target's
        # forward (sign 1) or backward (sign -1) direction
        from_s = d_s[foot % q_s :] + d_s[: foot % q_s]
        from_t = d_t[t0 % q_t :] + d_t[: t0 % q_t]
        k = q_s + q_t
        for sg in (1, -1):
            ahead = _lcp(_spell(from_s, k), _spell(from_t, sg * k))
            back = _lcp(_spell(from_s, -k), _spell(from_t, -sg * k))
            if ahead + back > hi - lo:
                sign, lo, hi = sg, foot - back, foot + ahead
    first = lo - (lo - phase_s) % q_s
    positions: set[int] = set()
    for m in range(first, hi + q_s, q_s):
        positions.update(nearest_positions(t0 + sign * (min(max(m, lo), hi) - foot), phase_t, q_t))
    return frozenset(_line_vertex(anchor_t, d_t, t) for t in positions)


def _setdist_x(orbit: OrbitMap, a: Iterable[Word], b: Collection[Word]) -> int:
    return min(min(orbit.distance_row(u, b)) for u in a)


def coset_distance(orbit: OrbitMap, axis, x, y) -> int:
    """diam_X of the union of the projections of x and y onto `axis`, an
    axis or a finite target set.

    x and y may be single elements or finite iterables of elements.
    """
    xs = [x] if isinstance(x, Word) else list(x)
    ys = [y] if isinstance(y, Word) else list(y)
    union = set(projection_of_set(orbit, xs, axis)) | set(projection_of_set(orbit, ys, axis))
    return diameter(union, orbit.distance_row)


# ---------------------------------------------------------------------------
# two-sided projection alternative


@dataclass(frozen=True)
class AlternativeReport:
    violations: tuple
    bound: int

    @property
    def ok(self) -> bool:
        return not self.violations


def behrstock_alternative(
    orbit: OrbitMap, a1: Axis, a2: Axis, xs: Sequence[Word], bound: int
) -> AlternativeReport:
    """Check: far projection on one axis forces a close projection on the other.

    Hypothesis and conclusion both use point-set distance (min over pairs);
    a violation is an x that is far on both sides.
    """
    p12 = project_axis_onto(orbit, a2, a1)
    p21 = project_axis_onto(orbit, a1, a2)
    violations = []
    for x in xs:
        q1 = project_to_set(orbit, x, a1).points
        if _setdist_x(orbit, q1, p12) > bound:
            q2 = project_to_set(orbit, x, a2).points
            if _setdist_x(orbit, q2, p21) > bound:
                violations.append(x)
    return AlternativeReport(tuple(violations), bound)


# ---------------------------------------------------------------------------
# coset enumeration and distance-formula sums


@dataclass(frozen=True)
class CosetEntry:
    axis: Axis
    value: int
    position: int
    proj_o: tuple[Word, ...]
    proj_p: tuple[Word, ...]


@dataclass
class CosetRecord:
    """All cosets of a root's cyclic subgroup where the projections of o and
    p lie at least a threshold apart; `enumerate_cosets` builds only complete
    records."""

    orbit: OrbitMap
    o: Word
    p: Word
    entries: list[CosetEntry]

    def to_jsonl(self) -> str:
        lines = []
        for i, e in enumerate(self.entries):
            lines.append(
                json.dumps(
                    {
                        "cosetRep": str(e.axis.rep),
                        "root": str(e.axis.root),
                        "value": e.value,
                        "orderIndex": i,
                        "projections": {
                            "o": [str(w) for w in e.proj_o],
                            "p": [str(w) for w in e.proj_p],
                        },
                    }
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _block_runs(w: tuple[int, ...], u: tuple[int, ...]) -> list[int]:
    """For each vertex i = 0..len(w) of the path spelled by w, the length of
    the longest stretch of the path through i that reads u u u ... with a
    block boundary at i, in one pass each way."""
    n, q = len(w), len(u)
    fwd, bwd = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        fwd[i] = q + fwd[i + q] if w[i : i + q] == u else _lcp(w[i : i + q], u)
    u_back = u[::-1]
    for i in range(1, n + 1):
        back = w[max(0, i - q) : i][::-1]
        bwd[i] = q + bwd[i - q] if back == u_back else _lcp(back, u_back)
    return [f + b for f, b in zip(fwd, bwd)]


def enumerate_cosets(orbit: OrbitMap, g: Word, o: Word, p: Word, threshold: int) -> CosetRecord:
    """Cosets h<root(g)> with projection distance of (o, p) at least threshold.

    Certified only on a Cayley tree with the identity orbit map and for
    threshold T >= (q - 1) + 2(q//2) with T > 2(q//2), q = |root|; any other
    search raises CertificationError, after `axis_of` has checked g and
    before any ball or geodesic is built.  Then the coset points nearest o
    and p lie within q//2 of their projections onto the coset's line, and a
    diameter of T > q cannot come from one tie pair, so the line of a
    threshold coset runs along [o, p] for at least T - 2(q//2) >= max(1, q - 1)
    edges.  The q or more vertices of that stretch hold one of its coset
    points v, and the line of v<root> is spelled from v by root forward and
    root^-1 backward.  So one
    pass over the letters of o^-1 p, keeping each vertex v whose line runs
    along [o, p] for T - 2(q//2) edges or more, finds every threshold coset;
    each candidate is then valued by the projections of o and p.
    """
    root = axis_of(g).root
    if threshold < 1:
        raise GroupError("threshold must be >= 1")
    q = len(root)
    if not (orbit.is_identity and threshold > 2 * (q // 2) and threshold >= (q - 1) + 2 * (q // 2)):
        raise CertificationError("enumeration window insufficient")
    model = orbit.group
    geo = geodesic(model, o, p)
    w = model.product(model.inverse(o.letters), p.letters)
    need = threshold - 2 * (q // 2)
    runs = zip(geo, _block_runs(w, root.letters), _block_runs(w, model.inverse(root.letters)))
    keys = dict.fromkeys(coset_rep_key(root, v) for v, along, against in runs if max(along, against) >= need)
    to_o, to_p = distance_from(model, o), distance_from(model, p)
    entries = []
    for key in keys:
        ax = Axis(model, root, Word(model, key))
        po, pp = project_to_set(orbit, o, ax).points, project_to_set(orbit, p, ax).points
        value = diameter(set(po) | set(pp), orbit.distance_row)
        if value >= threshold:
            # in a tree, x's nearest vertex on [o, p] lies (d(o, x) + d(o, p) - d(p, x)) / 2 from o
            position = (to_o(po[0]) + len(w) - to_p(po[0])) // 2
            entries.append(CosetEntry(ax, value, position, po, pp))
    entries.sort(key=lambda e: (e.position, e.axis.rep.sort_key()))
    return CosetRecord(orbit, o, p, entries)


def distance_formula_sum(record: CosetRecord, x: Word, y: Word) -> int:
    """Sum of coset distances of (x, y) over the record's cosets where the
    projections of x and y actually differ."""
    orbit = record.orbit
    total = 0
    for e in record.entries:
        px = project_to_set(orbit, x, e.axis).points
        py = project_to_set(orbit, y, e.axis).points
        if set(px) != set(py):
            total += diameter(set(px) | set(py), orbit.distance_row)
    return total


@dataclass(frozen=True)
class OrderReport:
    pairs: int
    disagreements: tuple

    @property
    def consistent(self) -> bool:
        return not self.disagreements


def linear_order(record: CosetRecord) -> tuple[list[CosetEntry], OrderReport]:
    """Entries ordered along [o, p], with the four order criteria cross-checked.

    For every ordered pair the report evaluates: (1) o projects far from the
    later coset's shadow on the earlier one, (2) o and the earlier coset have
    identical projections on the later one, (3) p projects far from the
    earlier coset's shadow on the later one, (4) p and the later coset have
    identical projections on the earlier one.  Any disagreement among the
    four is recorded (data, not an error).  "Far" means a diameter above 2.
    """
    orbit = record.orbit
    entries = record.entries
    disagreements = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a_i, a_j = entries[i].axis, entries[j].axis
            shadow_ij = project_axis_onto(orbit, a_j, a_i)  # a_j seen on a_i
            shadow_ji = project_axis_onto(orbit, a_i, a_j)
            c1 = diameter(set(entries[i].proj_o) | set(shadow_ij), orbit.distance_row) > 2
            c2 = frozenset(entries[j].proj_o) == shadow_ji
            c3 = diameter(set(entries[j].proj_p) | set(shadow_ji), orbit.distance_row) > 2
            c4 = frozenset(entries[i].proj_p) == shadow_ij
            if not (c1 and c2 and c3 and c4):
                disagreements.append(((i, j), (c1, c2, c3, c4)))
    n = len(entries)
    return entries, OrderReport(n * (n - 1) // 2, tuple(disagreements))


@dataclass(frozen=True)
class LowerBoundResult:
    lhs: int
    rhs: float
    passed: bool


def lower_bound_check(orbit: OrbitMap, g: Word, a: Word, b: Word, threshold: int) -> LowerBoundResult:
    """Check d_X(a x0, b x0) >= half the distance-formula sum of (a, b).

    The sum runs over the complete record of `enumerate_cosets`, which raises
    CertificationError for a search it cannot certify."""
    record = enumerate_cosets(orbit, g, a, b, threshold)
    lhs = orbit.distance(a, b)
    rhs = 0.5 * distance_formula_sum(record, a, b)
    return LowerBoundResult(lhs, rhs, lhs >= rhs)


# ---------------------------------------------------------------------------
# pivot search


@dataclass(frozen=True)
class PivotResult:
    pivot: Word
    values: tuple[int, int]
    passed: bool
    examined: int


def default_independent_loxodromics(model: GroupModel) -> tuple[Word, Word]:
    """Two loxodromics with distinct axes, used to seed pivot searches."""
    if isinstance(model, FreeGroup) and model.rank >= 2:
        g = model.generators()
        return g[0], g[1]
    if isinstance(model, FreeProduct) and len(model.factors) == 2:
        gens = model.generators()
        f0 = model.factors[0].rank
        if f0 >= 2:
            return gens[0] * gens[f0], gens[1] * gens[f0]
        return gens[0] * gens[f0], gens[0].inverse() * gens[f0]
    raise GroupError(f"no default loxodromic pair shipped for {model.describe()}")


_PIVOT_BUDGET = 500_000  # n^2 * |B(s)| a pivot search may take, n the path vertices


def pivot(
    orbit: OrbitMap,
    alpha: tuple[Word, ...],
    q: Word,
    h_axis: Axis,
    s: int,
    bound: int,
) -> PivotResult:
    """Search a small ball for a translate that uncouples a path from an axis.

    Returns q' with d(p, q') <= s minimizing the larger of (i) the projection
    spread of the translated path on the axis together with p, and (ii) the
    projection spread of the axis on the translated path together with q'.
    The search tries powers of the model's independent loxodromics first and
    then the whole ball, stopping early once both values are <= bound.
    Each candidate costs about n^2 distances (n the path vertices), so a
    search past `_PIVOT_BUDGET` is refused before any candidate is valued.
    """
    if not 0 <= bound < math.inf:
        raise GroupError(f"pivot: bound must be a finite number >= 0, got {bound}")
    model = orbit.group
    p = alpha[0]
    if q not in set(alpha):
        raise GroupError("pivot: q must lie on the path")
    size = ball_size(model, s)
    if len(alpha) ** 2 * size > _PIVOT_BUDGET:
        raise GroupError(f"pivot: a path of {len(alpha)} vertices with {size} candidates is past the budget")
    pad = ball(model, model.identity(), s)
    axis_pts = h_axis.points(max(8, 2 * (len(p) + len(q) + s)))

    def values(qp: Word) -> tuple[int, int]:
        t = qp * q.inverse()
        moved = [t * v for v in alpha]
        return coset_distance(orbit, h_axis, moved, p), coset_distance(orbit, moved, axis_pts, qp)

    candidates: list[Word] = [p]
    for g0 in default_independent_loxodromics(model):
        j = 1
        while j * len(g0) <= s:
            candidates.append(p * g0**j)
            candidates.append(p * g0**-j)
            j += 1
    candidates += [p * w for w in pad]

    seen: set[tuple[int, ...]] = set()
    best: tuple[int, tuple[int, int], Word] | None = None
    examined = 0
    to_p = distance_from(model, p)
    for qp in candidates:
        if qp.letters in seen or to_p(qp) > s:
            continue
        seen.add(qp.letters)
        v = values(qp)
        examined += 1
        score = max(v)
        if best is None or score < best[0]:
            best = (score, v, qp)
        if score <= bound:
            return PivotResult(qp, v, True, examined)
    assert best is not None
    return PivotResult(best[2], best[1], False, examined)


# ---------------------------------------------------------------------------
# axis pools


def translate_axis_pool(g: Word, count: int, seed: int) -> list[Axis]:
    """Distinct random translates h·<root(g)> of one elementary closure, h in
    the radius-5 ball.

    The sharp two-sided projection constants (and the exact identification of
    far projections with the gate shadow) hold for translates of a single
    cyclic coset family; mixed-root pools genuinely violate the exact
    identification on trees, e.g. the axes a<a b^-1> and e<a> share the edge
    from a to a^2, and points far out on the first project to {a} while the
    first axis' shadow on the second is {a, a^2}.
    """
    import numpy as np

    model = g.model
    base = axis_of(g)
    rng = np.random.default_rng(seed)
    translates = [base.translate(h) for h in ball(model, model.identity(), 5)]
    distinct = len({(ax.root.letters, ax.rep.letters) for ax in translates})
    if count > distinct:
        raise GroupError(f"the radius-5 ball gives {distinct} distinct translates of {base}, fewer than {count}")
    pool: list[Axis] = []
    seen = set()
    while len(pool) < count:
        ax = translates[int(rng.integers(len(translates)))]
        key = (ax.root.letters, ax.rep.letters)
        if key not in seen:
            seen.add(key)
            pool.append(ax)
    return pool
