"""Exact isometric embedding search into a built prefix.

Finds injective maps of a small target space into a prefix that realize all
pairwise distances exactly, by depth-first backtracking over target points
in order.  Candidate images for point k must already match the k previously
established distances; candidates are served from the prefix's per-point
distance buckets (:attr:`PrefixState.distance_buckets`).  A point's buckets
are built the first time the search reads them and are kept with the
prefix, so a search that finds its map among the first points builds only
those points' buckets, and a later search reuses them.  Trying prefix
indices in increasing order makes the first complete map the
lexicographically smallest one.

A negative search result never disproves embeddability — it only says the
target does not fit in *this* prefix, so the result carries the searched
length.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    mapping = _first_embedding(wanted, prefix.distance_buckets, m)
    if mapping is None:
        return EmbeddingResult(NOT_FOUND, None, m)
    return EmbeddingResult(FOUND, mapping, m)


def _first_embedding(wanted, buckets, m: int) -> tuple[int, ...] | None:
    """Depth-first search with an explicit stack of candidate iterators.

    A candidate for target point k lies in ``buckets[mapping[i]]`` for every
    i < k, and no bucket of u holds u, so the images are distinct without a
    separate check.  There is no recursive closure: a closure that refers to
    itself is a reference cycle, which would keep ``buckets`` alive after
    the call until the cycle collector runs.
    """
    t = len(wanted)
    mapping: list[int] = []
    stack = [iter(range(m))]
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
        needed = [buckets[mapping[i]].get(wanted[depth][i]) for i in range(depth)]
        if all(needed):
            first, rest = needed[0], needed[1:]
            stack.append(iter([v for v in first if all(v in bucket for bucket in rest)]))
        else:
            mapping.pop()
    return None


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

    The image is the smallest point of the intersection of the buckets
    ``distance_buckets[t][d(new_source, s)]`` over the pairs (s, t); no
    bucket of t holds t, so no image is taken twice.  With no pairs it is
    point 0.  Returns None when no point of the prefix can serve as the
    image (the prefix is too short to contain one).
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
        first, *rest = [buckets[t].get(prefix.entry(new_source, s), ()) for s, t in p.pairs]
        image = next((v for v in first if all(v in bucket for bucket in rest)), None)
        if image is None:
            return None
    return PartialIsometry(prefix, p.pairs + ((new_source, image),))
