"""Ends of trees: eventually periodic rays, centers of ideal triples, and
cross-ratios.

Boundary points are restricted to eventually periodic rays (finite prefix
plus repeating block), so every ideal line is finitely describable and the
center of an ideal triple is an exact tree median, one vertex.  The
cross-ratio of four ends is the word distance between the centers of two of
their triples.  Descriptors are
canonicalized (shortest prefix, minimal period), making equality of boundary
points a plain data comparison.  Only free-group Cayley trees are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FreeGroup, GroupError, Word, word_distance


class BoundaryError(GroupError):
    """Invalid boundary-point data or coincident points."""


@dataclass(frozen=True)
class BoundaryPoint:
    """The end of the ray prefix * period^infinity, in canonical form."""

    model: FreeGroup
    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def vertex(self, t: int) -> Word:
        """The t-th vertex of the geodesic ray from the identity."""
        if t < 0:
            raise BoundaryError("ray parameter must be >= 0")
        need = t + len(self.prefix) + 2 * len(self.period)
        reps = need // len(self.period) + 2
        letters = self.model.normalize(self.prefix + self.period * reps)
        return Word(self.model, letters[:t])

    def __str__(self) -> str:
        pre = Word(self.model, self.prefix)
        per = Word(self.model, self.period)
        return f"{'' if pre.is_identity() else pre}.({per})"


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def make_boundary_point(model: FreeGroup, prefix: Word, period: Word) -> BoundaryPoint:
    """Canonicalize a descriptor: minimal eventual period, shortest prefix."""
    if not isinstance(model, FreeGroup):
        raise BoundaryError("boundary points live on free-group trees")
    if period.is_identity():
        raise BoundaryError("period must be nontrivial")
    horizon = len(prefix) + 4 * len(period) + 8
    reps = horizon // len(period) + 2
    letters = model.normalize(prefix.letters + period.letters * reps)
    if len(letters) < horizon:
        raise BoundaryError(f"{prefix}*({period})^inf collapses; not a ray")
    window = letters[: len(prefix) + 3 * len(period) + 6]
    for p in _divisors(len(period)):
        # earliest point after which the spelling is p-periodic
        t0 = len(window) - p
        while t0 > 0 and window[t0 - 1] == window[t0 - 1 + p]:
            t0 -= 1
        if all(
            window[i] == window[i + p] for i in range(t0, len(window) - p)
        ) and t0 + 2 * p <= len(window):
            return BoundaryPoint(model, window[:t0], window[t0 : t0 + p])
    raise BoundaryError("could not extract an eventual period")  # pragma: no cover


def parse_boundary_point(model: FreeGroup, text: str) -> BoundaryPoint:
    """Parse ``prefix.(period)``, e.g. ``b.(a)`` for b a^inf; prefix optional."""
    from .groups import parse_word

    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise BoundaryError(f"bad boundary descriptor {text!r}")
    head, _, tail = text.partition("(")
    head = head.rstrip(".").strip()
    prefix = parse_word(model, head) if head else model.identity()
    period = parse_word(model, tail[:-1])
    return make_boundary_point(model, prefix, period)


# ---------------------------------------------------------------------------
# centers and cross-ratios


def _stable_median(model: FreeGroup, a: BoundaryPoint, b: BoundaryPoint, c: BoundaryPoint, t0: int) -> Word:
    """Median of the depth-t vertices of three rays, taken once it stops
    changing as t grows."""

    def median_at(t: int) -> Word:
        av, bv, cv = (p.vertex(t) for p in (a, b, c))
        dab = word_distance(model, av, bv)
        dac = word_distance(model, av, cv)
        dbc = word_distance(model, bv, cv)
        k = (dab + dac - dbc) // 2
        w = (av.inverse() * bv).letters
        return Word(model, model.normalize(av.letters + w[:k]))

    t = t0
    m = median_at(t)
    for _ in range(10):
        m2 = median_at(t + 3)
        if m2 == m:
            return m
        m, t = m2, t + 3
    raise BoundaryError("median failed to stabilize")


def _descriptor_size(p: BoundaryPoint) -> int:
    return len(p.prefix) + len(p.period)


def tripod_center(model: FreeGroup, a: BoundaryPoint, b: BoundaryPoint, c: BoundaryPoint) -> Word:
    """Center of an ideal triple: the exact tree median of the three ends."""
    pts = (a, b, c)
    for i in range(3):
        for j in range(i + 1, 3):
            if pts[i] == pts[j]:
                raise BoundaryError("boundary points of a triple must be distinct")
    t0 = 2 * max(_descriptor_size(p) for p in pts) + 8
    return _stable_median(model, a, b, c, t0)


def cross_ratio(
    model: FreeGroup,
    a: BoundaryPoint,
    b: BoundaryPoint,
    c: BoundaryPoint,
    d: BoundaryPoint,
) -> int:
    """d(center(a,b,c), center(a,d,c)), an exact integer on trees."""
    for p, q in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
        if p == q:
            raise BoundaryError("cross-ratio needs four distinct boundary points")
    return word_distance(model, tripod_center(model, a, b, c), tripod_center(model, a, d, c))
