"""Nearest-point projections onto axes, coset distance sums, and pivots.

An *axis* is the coset h<r> of a cyclic subgroup generated by a cyclically
reduced primitive root, viewed as a point set {h r^n x0} in a space model.
Projections return the full set of nearest points; coset distances follow the
diameter-of-union convention

    d_A(x, y) = diam_X( proj_A(x) ∪ proj_A(y) ),

while the hypothesis/conclusion sides of the two-sided projection alternative
use plain point-set distance (min over pairs), which is the sharp convention
on trees.

On Cayley trees of free groups projections are computed analytically from
word overlaps (the line through a coset is re-anchored at its vertex nearest
the identity, where the parameterization is cancellation-free).  On other
tree models a projection is a scan: the nearest points among one coset-walk
window rep·root^n, |n| <= window, wide enough that the linear growth of the
axis provably dominates the distance of rep.  A finite target set is scanned
the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Sequence

from .groups import (
    DirectProduct,
    FreeGroup,
    FreeProduct,
    GeodesicPath,
    GroupError,
    GroupModel,
    Word,
    ball,
    diameter,
    distance_from,
    geodesic,
)
from .spaces import (
    BassSerreTree,
    CayleyTree,
    OrbitMap,
    SpaceError,
    left_component,
)


class NotLoxodromicError(GroupError):
    """The element fixes a point (or is elliptic) in the chosen space model."""


class CertificationError(RuntimeError):
    """A windowed search could not certify completeness of its answer."""


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


def _min_word(a: Word, b: Word) -> Word:
    return a if a.sort_key() <= b.sort_key() else b


@dataclass(frozen=True)
class Axis:
    """The coset rep·<root> of a cyclic subgroup on a primitive root.

    ``root`` is canonical (the smaller of r and r^-1 in length-lex order) and
    ``rep`` is the minimal element of the coset, so equal point sets compare
    equal.
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

    def __str__(self) -> str:
        return f"{self.rep}<{self.root}>"


def _canonical_root(r: Word) -> Word:
    return _min_word(r, r.inverse())


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


def coset_rep_key(root: Word, h: Word) -> tuple[int, ...]:
    """Letters of the minimal element (by `Word.sort_key`) of the coset h<root>.

    Closed form, O(|h|) and no products, on a free group with a cyclically
    reduced root r (r[0] != r[-1]^-1): let m count the letters at the end of
    h that cancel against r r r ... or against r^-1 r^-1 ... (at most one of
    the two is nonzero) and k0 = m // |r|.  Then h r^±k drops |r| letters
    per step up to k0 and grows from k0 + 1 on, and the other direction only
    grows, so the minimum is h r^±k0 or h r^±(k0+1).  Other models and roots
    walk the coset out to h r^±(2|h|/q + 2), q the length of the cyclically
    reduced core of r on a free group (where |r^k| >= |k| q, so no point past
    that window is shorter than h) and |r| elsewhere.
    """
    r, letters = root.letters, h.letters
    if isinstance(root.model, FreeGroup) and r and r[0] != -r[-1]:
        n, q = len(letters), len(r)
        m = 0
        while m < n and letters[-1 - m] == -r[m % q]:
            m += 1
        if not m:
            r = tuple(-ell for ell in reversed(r))
            while m < n and letters[-1 - m] == -r[m % q]:
                m += 1
        if not m:
            return letters
        k0 = m // q
        near = letters[: n - k0 * q]
        far = letters[: n - m] + (r * (k0 + 1))[m:]
        return min(near, far, key=root.model.sort_key)
    q = len(_cyclic_reduce_free(r)[1]) if isinstance(root.model, FreeGroup) else len(r)
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
    root = _canonical_root(root)
    return Axis(model, root, Word(model, coset_rep_key(root, rep)))


def axis_of(space, g: Word) -> Axis:
    """Axis data of a loxodromic element: primitive root and canonical coset.

    Raises NotLoxodromicError when g fixes a point of the space model (for
    instance an element of a vertex factor acting on a Bass-Serre tree).
    """
    if g.is_identity():
        raise NotLoxodromicError("the identity is not loxodromic")
    model = g.model
    if isinstance(space, CayleyTree):
        if model != space.model:
            raise GroupError("axis_of: model mismatch")
        conj, core = _cyclic_reduce_free(g.letters)
        p = _primitive_period(core)
        root = Word(model, core[:p])
        return make_axis(model, root, Word(model, model.normalize(conj)))
    if isinstance(space, BassSerreTree):
        if isinstance(model, DirectProduct):
            return _axis_direct_product(space, g)
        if model != space.model:
            raise GroupError("axis_of: model mismatch")
        return _axis_free_product(space.model, g)
    raise SpaceError(f"axis_of not supported on {space!r}")


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
    runs = model.syllables(cur.letters)
    m = len(runs)
    root = cur
    for d in range(2, m, 2):
        if m % d == 0:
            cand = Word(model, tuple(l for _, seg in runs[:d] for l in seg))
            if cand ** (m // d) == cur:
                root = cand
                break
    return make_axis(model, root, conj)


def _axis_direct_product(space: BassSerreTree, g: Word) -> Axis:
    """Axis of (u, k) in G x Z acting on the Bass-Serre tree of G."""
    model: DirectProduct = g.model
    if space.model != model.left:
        raise GroupError("axis_of: Bass-Serre tree does not match the left factor")
    u = left_component(model, g)
    if u.is_identity():
        raise NotLoxodromicError(f"{g} acts trivially on the quotient tree")
    inner = _axis_free_product(model.left, u)  # raises if elliptic
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


@lru_cache(maxsize=4096)
def _line_data(model: GroupModel, root_letters: tuple[int, ...], rep_letters: tuple[int, ...]):
    """Anchor the line of a coset at its vertex nearest the identity.

    Returns (anchor Word, direction letters, phase) such that the line's
    vertex at position t is anchor * _spell(direction, t) without
    cancellation, and the coset points sit at positions ≡ phase (mod |root|).
    """
    q = len(root_letters)

    def vertex(t: int) -> Word:
        return Word(model, model.normalize(rep_letters + _spell(root_letters, t)))

    step = 1 if len(vertex(1)) < len(rep_letters) else -1
    t0, cur, nxt = 0, Word(model, rep_letters), vertex(step)
    while len(nxt) < len(cur):
        t0 += step
        cur, nxt = nxt, vertex(t0 + step)
    dir_plus = tuple(root_letters[(t0 + i) % q] for i in range(q))
    dir_minus = tuple(-root_letters[(t0 - 1 - i) % q] for i in range(q))
    rank = model._sort_rank
    if [rank[l] for l in dir_plus] <= [rank[l] for l in dir_minus]:
        return cur, dir_plus, (-t0) % q
    return cur, dir_minus, t0 % q


def nearest_positions(t_star: int, phase: int, q: int) -> tuple[int, ...]:
    """The positions ≡ phase (mod q) nearest to t_star: the one below, the
    one above, or both when they tie."""
    m0 = t_star - ((t_star - phase) % q)
    d0, d1 = t_star - m0, m0 + q - t_star
    if d0 != d1:
        return (m0,) if d0 < d1 else (m0 + q,)
    return (m0, m0 + q)


def line_positions(axis: Axis, x: Word) -> tuple[tuple[int, ...], int]:
    """Line positions (see `_line_data`) of the coset points nearest x, and
    x's distance to them, on a Cayley tree."""
    anchor, direction, phase = _line_data(axis.model, axis.root.letters, axis.rep.letters)
    w = (anchor.inverse() * x).letters
    t_star = _lcp(w, _spell(direction, len(w))) or -_lcp(w, _spell(direction, -len(w)))
    positions = nearest_positions(t_star, phase, len(direction))
    return positions, len(w) - abs(t_star) + abs(t_star - positions[0])


def _project_cayley(axis: Axis, x: Word) -> tuple[tuple[Word, ...], int]:
    model = axis.model
    anchor, direction, _ = _line_data(model, axis.root.letters, axis.rep.letters)
    positions, dist = line_positions(axis, x)
    # cancellation-free by the anchoring, but normalize defensively
    line = (Word(model, model.normalize(anchor.letters + _spell(direction, m))) for m in positions)
    return tuple(sorted(line, key=Word.sort_key)), dist


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


def _orbit_spacing(orbit: OrbitMap, axis: Axis) -> int:
    s = orbit.distance(axis.rep, axis.rep * axis.root)
    if s == 0:
        raise NotLoxodromicError(f"axis {axis} has zero translation length in the space")
    return s


def project_to_set(orbit: OrbitMap, x: Word, target) -> ProjectionValue:
    """Full nearest-point set of an axis or a finite set of group elements.

    For axes on Cayley trees the projection is computed analytically.  On
    other models an axis is scanned as the finite set of its points out to
    a window, which is wide enough that the axis has provably escaped past
    the distance of its representative.
    """
    if orbit.is_identity and isinstance(target, Axis):
        pts, dist = _project_cayley(target, x)
        return ProjectionValue(pts, dist, "analytic")
    window = None
    if isinstance(target, Axis):
        d_rep = orbit.distance(x, target.rep)
        window = (2 * d_rep + 2) // _orbit_spacing(orbit, target) + 2
        # the walk yields rep first, whose distance is already known
        pts = target.points(window)
        dists = [d_rep] + [orbit.distance(x, p) for p in pts[1:]]
    else:
        pts = list(target)
        if not pts:
            raise SpaceError("cannot project to an empty set")
        dists = [orbit.distance(x, p) for p in pts]
    m = min(dists)
    chosen = tuple(sorted((p for p, d in zip(pts, dists) if d == m), key=Word.sort_key))
    return ProjectionValue(chosen, m, "scan-finite" if window is None else "scan-axis", window)


def projection_of_set(orbit: OrbitMap, pts: Iterable[Word], target) -> frozenset[Word]:
    """Union of the projections of a finite set of elements."""
    out: set[Word] = set()
    for p in pts:
        out.update(project_to_set(orbit, p, target).points)
    return frozenset(out)


_AXIS_WINDOW_CAP = 512  # widest window `project_axis_onto` scans


def project_axis_onto(orbit: OrbitMap, src: Axis, target) -> frozenset[Word]:
    """Projection of a whole axis: the projection of its points out to
    window 8, 16, ..., taken once two successive windows agree.

    Raises CertificationError when none agree up to `_AXIS_WINDOW_CAP`."""
    prev = None
    w = 8
    while w <= _AXIS_WINDOW_CAP:
        cur = projection_of_set(orbit, src.points(w), target)
        if cur == prev:
            return cur
        prev = cur
        w *= 2
    raise CertificationError(f"the projection of {src} did not stabilize within window {_AXIS_WINDOW_CAP}")


def _diam_x(orbit: OrbitMap, pts: Iterable[Word]) -> int:
    return diameter(pts, orbit.distance)


def _setdist_x(orbit: OrbitMap, a: Iterable[Word], b: Collection[Word]) -> int:
    return min(orbit.distance(u, v) for u in a for v in b)


def coset_distance(orbit: OrbitMap, axis, x, y) -> int:
    """diam_X of the union of the projections of x and y onto `axis`, an
    axis or a finite target set.

    x and y may be single elements or finite iterables of elements.
    """
    xs = [x] if isinstance(x, Word) else list(x)
    ys = [y] if isinstance(y, Word) else list(y)
    union = set(projection_of_set(orbit, xs, axis)) | set(projection_of_set(orbit, ys, axis))
    return _diam_x(orbit, union)


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
    orbit: OrbitMap, a1: Axis, a2: Axis, xs: Sequence[Word], bound: int = 2
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
    """All cosets of <root(g)> where the projections of o and p lie at least
    threshold apart; `enumerate_cosets` builds only complete records."""

    orbit: OrbitMap
    g: Word
    o: Word
    p: Word
    threshold: int
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


def enumerate_cosets(orbit: OrbitMap, g: Word, o: Word, p: Word, threshold: int) -> CosetRecord:
    """Cosets h<root(g)> with projection distance of (o, p) at least threshold.

    A coset whose projections of o and p lie >= threshold apart must cross
    the geodesic [o, p], so on a Cayley tree with the identity orbit map the
    candidates drawn from a small neighbourhood of that geodesic are complete
    once threshold exceeds the coset point spacing plus rounding.  Any other
    search raises CertificationError, after `axis_of` has checked g and
    before any ball or geodesic is built.
    """
    root = axis_of(orbit.space, g).root
    if threshold < 1:
        raise GroupError("threshold must be >= 1")
    q = len(root)
    if not (orbit.is_identity and threshold > 2 * (q // 2) and threshold >= (q - 1) + 2 * (q // 2)):
        raise CertificationError("enumeration window insufficient")
    model = orbit.group
    geo = geodesic(model, o, p).vertices
    pad = ball(model, model.identity(), q // 2 + 1)

    def position(pts: tuple[Word, ...]) -> int:
        dists = [orbit.distance(pts[0], v) for v in geo]
        return dists.index(min(dists))

    entries = []
    for key in dict.fromkeys(coset_rep_key(root, v * u) for v in geo for u in pad):
        ax = Axis(model, root, Word(model, key))
        po, pp = project_to_set(orbit, o, ax).points, project_to_set(orbit, p, ax).points
        value = _diam_x(orbit, set(po) | set(pp))
        if value >= threshold:
            entries.append(CosetEntry(ax, value, position(po), po, pp))
    entries.sort(key=lambda e: (e.position, e.axis.rep.sort_key()))
    return CosetRecord(orbit, g, o, p, threshold, entries)


def distance_formula_sum(record: CosetRecord, x: Word, y: Word) -> int:
    """Sum of coset distances of (x, y) over the record's cosets where the
    projections of x and y actually differ."""
    orbit = record.orbit
    total = 0
    for e in record.entries:
        px = project_to_set(orbit, x, e.axis).points
        py = project_to_set(orbit, y, e.axis).points
        if set(px) != set(py):
            total += _diam_x(orbit, set(px) | set(py))
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
            c1 = _diam_x(orbit, set(entries[i].proj_o) | set(shadow_ij)) > 2
            c2 = frozenset(entries[j].proj_o) == shadow_ji
            c3 = _diam_x(orbit, set(entries[j].proj_p) | set(shadow_ji)) > 2
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
    alpha: GeodesicPath,
    q: Word,
    h_axis: Axis,
    s: int,
    bound: int = 4,
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
    p = alpha.vertices[0]
    if q not in set(alpha.vertices):
        raise GroupError("pivot: q must lie on the path")
    pad = ball(model, model.identity(), s)
    if len(alpha.vertices) ** 2 * len(pad) > _PIVOT_BUDGET:
        raise GroupError(f"pivot: a path of {len(alpha.vertices)} vertices with {len(pad)} candidates is past the budget")

    def values(qp: Word) -> tuple[int, int]:
        t = qp * q.inverse()
        moved = [t * v for v in alpha.vertices]
        axis_pts = h_axis.points(max(8, 2 * (len(p) + len(q) + s)))
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


def translate_axis_pool(tree: CayleyTree, g: Word, count: int, seed: int) -> list[Axis]:
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

    model = tree.model
    base = axis_of(tree, g)
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
