"""Exact isometric embedding search into a built prefix.

Finds injective maps of a small target space into a prefix that realize all
pairwise distances exactly, by depth-first backtracking over target points
in order.  Candidate images for point k must already match the k previously
established distances; candidates are served from the prefix's per-point
distance buckets (:attr:`PrefixState.distance_buckets`).  A look-ahead
filter then keeps only the candidates whose own buckets include every
distance from k to the later target points, so a point that could not
serve as the image of k is dropped before any later point is tried for it.
A point's buckets are built the first time the search reads them and are
kept with the prefix, so a search that finds its map among the first points
builds only those points' buckets, and a later search reuses them.  Trying
prefix indices in increasing order makes the first complete map the
lexicographically smallest one.  A target with a distance above the
prefix's largest (``running_max[-1]``) is refuted before any bucket is read.

A negative search result never disproves embeddability — it only says the
target does not fit in *this* prefix, so the result carries the searched
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import ge

from .construct import PrefixState
from .errors import InvalidPartialIsometry
from .metric import FiniteMetricSpace, point_index
from .rational import format_ratio

FOUND = "found"
NOT_FOUND = "not-found-up-to"


@dataclass(frozen=True)
class EmbeddingResult:
    """Search outcome: mapping of target index -> prefix index when found,
    plus the prefix length that was searched either way."""

    status: str
    mapping: tuple[int, ...] | None
    searched_prefix_length: int


def find_isometric_embedding(
    target: FiniteMetricSpace, prefix: PrefixState
) -> EmbeddingResult:
    """Lexicographically smallest exact embedding of ``target``, if any."""
    t = target.n
    m = prefix.m
    if t > m:
        return EmbeddingResult(NOT_FOUND, None, m)
    # Target distances as integers over the prefix's scale.  If the target's
    # scale does not divide it, some target distance is not a multiple of
    # 1/scale, and such a distance occurs nowhere in the prefix.
    if prefix.scale % target.scale:
        return EmbeddingResult(NOT_FOUND, None, m)
    factor = prefix.scale // target.scale
    wanted = [[v * factor for v in row] for row in target.lower]
    # A distance above the prefix's largest, running_max[-1], occurs nowhere
    # in it: refuted before any index entry is read.
    top = prefix.running_max[-1]
    if max(map(max, wanted[1:]), default=0) * top.denominator > top.numerator * prefix.scale:
        return EmbeddingResult(NOT_FOUND, None, m)
    mapping = _first_embedding(wanted, prefix.distance_buckets, m)
    if mapping is None:
        return EmbeddingResult(NOT_FOUND, None, m)
    return EmbeddingResult(FOUND, mapping, m)


def _first_embedding(wanted, buckets, m: int) -> tuple[int, ...] | None:
    """Depth-first search with an explicit stack of candidate iterators.

    A candidate for target point k lies in ``buckets[mapping[i]]`` for every
    i < k (their :func:`_common` points), and no bucket of u holds u, so the
    images are distinct without a separate check.  It must also have every
    distance of ``need[k]``, the ones from k to the later target points, as
    a key of its own entry, or no later point could be placed.  The filter
    is lazy and runs in C-level iterators, so a candidate's entry is read
    only when the search reaches it, and the candidates keep index order.
    The last point's candidates are not filtered, so their entries are not
    read.  There is no recursive closure: a closure that refers to itself
    is a reference cycle, which would keep ``buckets`` alive after the call
    until the cycle collector runs.
    """
    t = len(wanted)
    need = [{row[k] for row in wanted[k + 1:]} for k in range(t)]
    entry = buckets.__getitem__

    def viable(k, candidates):
        if k == t - 1:
            return iter(candidates)
        return compress(candidates, map(ge, map(dict.keys, map(entry, candidates)), repeat(need[k])))

    mapping: list[int] = []
    stack = [viable(0, range(m))]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            if mapping:
                mapping.pop()
            continue
        mapping.append(c)
        depth = len(mapping)
        if depth == t:
            return tuple(mapping)
        stack.append(viable(depth, _common([entry(u)[d] for u, d in zip(mapping, wanted[depth])])))
    return None


def _common(buckets) -> tuple[int, ...]:
    """The points in every one of ``buckets``, in ascending index order.

    It walks the shortest bucket and keeps the points that the next shortest
    holds, and so on, so its work is bounded by the smallest bucket times
    the others' lengths.  An empty bucket ends the walk, and a lone bucket
    comes back as it is (the same object)."""
    common, *rest = sorted(buckets, key=len)
    for bucket in rest:
        if not common:
            break
        common = tuple([v for v in common if v in bucket])
    return common


@dataclass(frozen=True)
class PartialIsometry:
    """Distance-preserving pairing of prefix points (sources -> images).

    Construction validates injectivity on both sides, index bounds, and
    exact distance agreement, raising :class:`InvalidPartialIsometry` with a
    witness pair otherwise.
    """

    prefix: PrefixState
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, prefix: PrefixState, pairs):
        pairs = tuple((point_index(s), point_index(t)) for s, t in pairs)
        sources = [s for s, _ in pairs]
        images = [t for _, t in pairs]
        for value in sources + images:
            if not 0 <= value < prefix.m:
                raise InvalidPartialIsometry("index {} out of range", value)
        if len(set(sources)) != len(sources) or len(set(images)) != len(images):
            raise InvalidPartialIsometry("pairing must be injective on both sides")
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                lhs = prefix.entry(pairs[i][0], pairs[j][0])
                rhs = prefix.entry(pairs[i][1], pairs[j][1])
                if lhs != rhs:
                    lhs, rhs = format_ratio(lhs, prefix.scale), format_ratio(rhs, prefix.scale)
                    raise InvalidPartialIsometry(
                        f"pairs {{}} and {{}} disagree: {lhs} != {rhs}", i, j, witness=(i, j)
                    )
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "pairs", pairs)


def extend_partial_isometry(
    p: PartialIsometry, new_source: int
) -> PartialIsometry | None:
    """Extend by one source point to the smallest compatible image.

    The image is the smallest point of the intersection (:func:`_common`) of
    the buckets ``distance_buckets[t][d(new_source, s)]`` over the pairs
    (s, t); no bucket of t holds t, so no image is taken twice.  With no
    pairs it is point 0.  Returns None when no point of the prefix can serve
    as the image (the prefix is too short to contain one).
    """
    prefix = p.prefix
    new_source = point_index(new_source)
    if not 0 <= new_source < prefix.m:
        raise InvalidPartialIsometry("index {} out of range", new_source)
    if any(s == new_source for s, _ in p.pairs):
        raise InvalidPartialIsometry("source {} already mapped", new_source)
    image = 0
    if p.pairs:
        buckets = prefix.distance_buckets
        common = _common([buckets[t].get(prefix.entry(new_source, s), ()) for s, t in p.pairs])
        if not common:
            return None
        image = common[0]
    return PartialIsometry(prefix, p.pairs + ((new_source, image),))
