"""Exact isometric embedding search into a built prefix.

Finds injective maps of a small target space into a prefix that realize all
pairwise distances exactly, by depth-first backtracking over target points
in order.  Candidate images for point k must already match the k previously
established distances; candidates are served from the prefix's per-point
distance buckets (:attr:`PrefixState.distance_buckets`, built on the first
search and kept with the prefix), and trying prefix indices in increasing
order makes the first complete map the lexicographically smallest one.

A negative search result never disproves embeddability — it only says the
target does not fit in *this* prefix, so the result carries the searched
length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import PrefixState
from .errors import InvalidPartialIsometry
from .metric import FiniteMetricSpace

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

    buckets = prefix.distance_buckets
    mapping: list[int] = []
    used: set[int] = set()

    def search(depth: int) -> bool:
        if depth == t:
            return True
        if depth == 0:
            candidates = range(m)
        else:
            needed = [buckets[mapping[i]].get(target.distance(depth, i)) for i in range(depth)]
            if not all(needed):
                return False
            first, rest = needed[0], needed[1:]
            candidates = [c for c in first if all(c in bucket for bucket in rest)]
        for c in candidates:
            if c in used:
                continue
            mapping.append(c)
            used.add(c)
            if search(depth + 1):
                return True
            used.remove(c)
            mapping.pop()
        return False

    if search(0):
        return EmbeddingResult(FOUND, tuple(mapping), m)
    return EmbeddingResult(NOT_FOUND, None, m)


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
        pairs = tuple((int(s), int(t)) for s, t in pairs)
        sources = [s for s, _ in pairs]
        images = [t for _, t in pairs]
        for value in sources + images:
            if not 0 <= value < prefix.m:
                raise InvalidPartialIsometry("index {} out of range", value)
        if len(set(sources)) != len(sources) or len(set(images)) != len(images):
            raise InvalidPartialIsometry("pairing must be injective on both sides")
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                lhs = prefix.rho[pairs[i][0]][pairs[j][0]]
                rhs = prefix.rho[pairs[i][1]][pairs[j][1]]
                if lhs != rhs:
                    raise InvalidPartialIsometry(
                        f"pairs {{}} and {{}} disagree: {lhs} != {rhs}", i, j, witness=(i, j)
                    )
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "pairs", pairs)


def extend_partial_isometry(
    p: PartialIsometry, new_source: int
) -> PartialIsometry | None:
    """Extend by one source point to the smallest compatible image.

    Returns None when no point of the prefix can serve as the image (the
    prefix is too short to contain one).
    """
    if not 0 <= new_source < p.prefix.m:
        raise InvalidPartialIsometry("index {} out of range", new_source)
    if any(s == new_source for s, _ in p.pairs):
        raise InvalidPartialIsometry("source {} already mapped", new_source)
    rho = p.prefix.rho
    images = {t for _, t in p.pairs}
    for candidate in range(p.prefix.m):
        if candidate in images:
            continue
        if all(rho[new_source][s] == rho[candidate][t] for s, t in p.pairs):
            return PartialIsometry(p.prefix, p.pairs + ((new_source, candidate),))
    return None
