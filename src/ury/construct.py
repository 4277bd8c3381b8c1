"""Step-by-step construction of the rational Urysohn prefix space.

The construction enumerates all nonempty finite sets of positive rationals
and grows a metric space one point at a time.  The enumeration labels
singleton sets with the naturals not divisible by 4 and, for each p >= 2,
labels the p-element sets with the naturals whose 2-adic valuation is
exactly p.  Within each cardinality class the order is fixed here by:

* the Calkin-Wilf breadth-first sequence 1, 1/2, 2, 1/3, 3/2, 2/3, 3, ...
  as the canonical bijection between positive integers and positive
  rationals, and
* the combinatorial number system (colex rank) on strictly increasing
  tuples of Calkin-Wilf indices for p-element sets.

Together these give a computable bijection between positive integers and
all finite sets of distinct positive rationals.

Growth rule: with points ``a_1..a_n`` built and label set
``(r_1, ..., r_p)`` at step ``n`` (``p <= n``), the label is *correctly
defined* when every pair ``i,k <= p`` satisfies

    |r_i - r_k| <= rho(a_i, a_k) <= r_i + r_k.

If so (Case 2) the new point gets ``rho(a_{n+1}, a_j) =
min_{l <= p} (rho(a_j, a_l) + r_l)``; otherwise (Case 1) every distance to
the new point equals a running maximum, whose scope is configurable: the
default ``all-prior`` takes the maximum over all existing pairs, while
``labels-only`` restricts to pairs among the first ``p`` points.  The
``legacy-multiset`` duplicate mode keeps repeated elements of an explicit
override set instead of collapsing them; that reproduces the classical
pitfall where a two-element reading of ``{r, r}`` forces Case 1 and breaks
the triangle inequality (see ``demos/02_urysohn_prefix.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .errors import (
    InvalidMode,
    ParseError,
    PrefixTooShort,
    TooLarge,
    digit_limit,
    quoted,
    too_many_digits,
)
from .metric import (
    common_scale,
    fraction_rows,
    katetov_failure,
    katetov_row,
)
from .rational import as_rational, format_rational, parse_rational

ENUMERATION_VERSION = "cw1"

# A build keeps O(m·w) ints for labels of at most w elements (w <= 11 below
# 4000 points), and no row.  tools/command_sizes.py, medians of three at 1000
# / 2000 / 4000 points: `ury build` 0.03 / 0.06 / 0.12 s and 18 / 20 / 23 MiB
# cold, 0.04 / 0.07 / 0.14 s and 19 / 21 / 27 MiB resumed from 0.9·N points;
# `isom-extend` to the last point 0.02 / 0.04 / 0.14 s and 18 / 20 / 24 MiB;
# an `embed` found among the first points searches 0.001 / 0.002 / 0.007 s,
# and one that finds nothing builds its whole index, one position per
# ordered pair of points: 0.5 / 2.4 / 14 s and 86 / 339 / 1481 MiB.
PREFIX_MAX_POINTS = 4000

SET_COLLAPSE = "set-collapse"
LEGACY_MULTISET = "legacy-multiset"
ALL_PRIOR = "all-prior"
LABELS_ONLY = "labels-only"


# ---------------------------------------------------------------------------
# Enumeration: Calkin-Wilf order and the combinatorial number system
# ---------------------------------------------------------------------------

def calkin_wilf(i: int) -> Fraction:
    """The i-th positive rational (i >= 1) in Calkin-Wilf breadth-first order.

    The binary expansion of ``i`` below its leading bit is the root-to-node
    path in the Calkin-Wilf tree: 0 descends to a/(a+b), 1 to (a+b)/b.
    """
    if i < 1:
        raise ValueError("Calkin-Wilf indices start at 1")
    a, b = 1, 1
    for bit in bin(i)[3:]:
        if bit == "0":
            b = a + b
        else:
            a = a + b
    return Fraction(a, b)


def calkin_wilf_index(q) -> int:
    """Position of a positive rational in the Calkin-Wilf order (inverse of
    :func:`calkin_wilf`)."""
    q = as_rational(q)
    if q <= 0:
        raise ValueError(f"Calkin-Wilf order covers positive rationals only, got {q}")
    a, b = q.numerator, q.denominator
    bits = []
    while (a, b) != (1, 1):
        if a > b:
            bits.append("1")
            a -= b
        else:
            bits.append("0")
            b -= a
    return int("1" + "".join(reversed(bits)), 2)


def colex_rank(indices: Sequence[int]) -> int:
    """Colex rank of a strictly increasing tuple of positive integers."""
    rank = 0
    prev = 0
    for pos, c in enumerate(indices, start=1):
        if c <= prev:
            raise ValueError("indices must be strictly increasing and positive")
        rank += comb(c - 1, pos)
        prev = c
    return rank


def colex_unrank(rank: int, p: int) -> tuple[int, ...]:
    """The rank-th (0-based) strictly increasing p-tuple of positive
    integers in colex order; inverse of :func:`colex_rank`."""
    if rank < 0 or p < 1:
        raise ValueError("rank must be >= 0 and p >= 1")
    out = []
    r = rank
    for size in range(p, 0, -1):
        c = size
        while comb(c, size) <= r:
            c += 1
        out.append(c)
        r -= comb(c - 1, size)
    out.reverse()
    return tuple(out)


def cardinality_of_index(n: int) -> int:
    """Cardinality of the n-th label set: 1 unless 4 | n, else the 2-adic
    valuation of n."""
    if n < 1:
        raise ValueError("indices start at 1")
    if n % 4:
        return 1
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class QLabel:
    """A label in the enumeration: an index and its set of positive rationals.

    ``elements`` is nondecreasing; for canonical labels it is strictly
    increasing (sets have no repeats).  ``index`` is the position in the
    canonical enumeration, or the step ordinal when the label comes from an
    explicit override sequence.
    """

    index: int
    elements: tuple[Fraction, ...]

    @property
    def cardinality(self) -> int:
        return len(self.elements)


def subset_of_index(n: int) -> QLabel:
    """The n-th finite set of distinct positive rationals.

    Bijective: every such set has exactly one index (see
    :func:`index_of_subset`).
    """
    p = cardinality_of_index(n)
    if p == 1:
        position = 3 * (n // 4) + (n % 4) - 1
        elements = (calkin_wilf(position + 1),)
    else:
        position = ((n >> p) - 1) // 2
        cw_indices = colex_unrank(position, p)
        elements = tuple(sorted(calkin_wilf(c) for c in cw_indices))
    return QLabel(index=n, elements=elements)


def index_of_subset(elements: Iterable) -> int:
    """Index of a finite set of distinct positive rationals (inverse of
    :func:`subset_of_index`)."""
    values = sorted(as_rational(v) for v in elements)
    if not values:
        raise ValueError("the empty set is not enumerated")
    if any(v <= 0 for v in values):
        raise ValueError("elements must be positive")
    if len(set(values)) != len(values):
        raise ValueError("elements must be distinct")
    p = len(values)
    if p == 1:
        position = calkin_wilf_index(values[0]) - 1
        return 4 * (position // 3) + position % 3 + 1
    rank = colex_rank(sorted(calkin_wilf_index(v) for v in values))
    return (2 * rank + 1) << p


# ---------------------------------------------------------------------------
# Construction state and modes
# ---------------------------------------------------------------------------

def _label_elements(entry) -> list[Fraction]:
    """The elements of a label set as Fractions, in the given order.  A label
    set is nonempty and its elements are positive: anything else is a
    :class:`ValueError`."""
    values = [as_rational(v) for v in entry]
    if not values:
        raise ValueError("override label sets must be nonempty")
    if any(v <= 0 for v in values):
        raise ValueError("override label elements must be positive")
    return values


@dataclass(frozen=True)
class ConstructionMode:
    """Settings for :func:`build_prefix`.

    ``q_override`` replaces the canonical enumeration for the first
    ``len(q_override)`` steps; later steps fall back to the canonical label
    of the same index.  ``legacy-multiset`` duplicate handling is only
    meaningful for explicit overrides and is rejected without one.
    """

    duplicate_handling: str = SET_COLLAPSE
    case1_scope: str = ALL_PRIOR
    q_override: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        if self.duplicate_handling not in (SET_COLLAPSE, LEGACY_MULTISET):
            raise InvalidMode(f"unknown duplicate handling {self.duplicate_handling!r}")
        if self.case1_scope not in (ALL_PRIOR, LABELS_ONLY):
            raise InvalidMode(f"unknown case-1 scope {self.case1_scope!r}")
        if self.q_override is not None:
            canon = tuple(
                self._canonical_elements(entry) for entry in self.q_override
            )
            object.__setattr__(self, "q_override", canon)
        elif self.duplicate_handling == LEGACY_MULTISET:
            raise InvalidMode("legacy-multiset requires an explicit q_override")

    def _canonical_elements(self, entry) -> tuple[Fraction, ...]:
        values = _label_elements(entry)
        if self.duplicate_handling == SET_COLLAPSE:
            values = sorted(set(values))
        else:
            values = sorted(values)
        return tuple(values)

    @property
    def tag(self) -> str:
        enum = "override" if self.q_override is not None else ENUMERATION_VERSION
        return f"{self.duplicate_handling},{self.case1_scope},{enum}"

    def label_for_step(self, step: int) -> QLabel:
        if self.q_override is not None and step <= len(self.q_override):
            return QLabel(index=step, elements=self.q_override[step - 1])
        return subset_of_index(step)


DEFAULT_MODE = ConstructionMode()


@dataclass(frozen=True)
class StepRecord:
    step: int
    label: QLabel
    correctly_defined: bool

    @cached_property
    def text(self) -> str:
        """The record's line in a cache file, ``n | elements | C-or-I``.  Made
        once and kept, so a load that compares it and a save that writes it
        share it.  Not a field."""
        elements = " ".join(map(format_rational, self.label.elements))
        return f"{self.step} | {elements} | {'C' if self.correctly_defined else 'I'}"


def _step_row(heads, record, i: int) -> tuple[int, ...]:
    """Row i of the lower triangle, ``d(i, j)`` for ``j < i``, from step i's
    record: a Case-1 distance (an int), or the Case-2 radii (a tuple), whose
    min-plus extension reads the first ``len(radii)`` head rows."""
    if isinstance(record, int):
        return (record,) * i
    p = len(record)
    return tuple(katetov_row([head[:i] for head in heads[:p]], range(p), record))


def _step_entry(heads, record, x: int) -> int:
    """``d(k, x)`` from step k's record, for a point x below k that is no
    point of its label (``x >= len(radii)``)."""
    if isinstance(record, int):
        return record
    return min(r + heads[l][x] for l, r in enumerate(record))


def _row(heads, steps, i: int) -> tuple[int, ...]:
    """Row i of the lower triangle: a head slice, or step i's row."""
    return heads[i][:i] if i < len(heads) else _step_row(heads, steps[i - 1], i)


class _DistanceBuckets(dict):
    # Point u -> {distance: points at that distance, ascending}, each entry
    # built on its first read from row u and then column u, whose entry
    # d(v, u) for each later point v comes from step v's record.  It holds the
    # heads and records, not the state, which holds it.  A read of a built
    # entry is a plain dict lookup; ``__missing__`` runs once per point.
    # ``len`` and iteration cover every point, like a tuple's.  Most buckets
    # hold one point (32 195 of the 33 645 at 200 points), so the index makes
    # one 1-tuple (v,) per point, once, and every entry stores a bucket whose
    # only point is v as that shared tuple; only a bucket that gets a second
    # point becomes a tuple of its own.
    __slots__ = ("_heads", "_steps", "_ones")

    def __init__(self, heads, steps):
        super().__init__()
        self._heads = heads
        self._steps = steps
        self._ones = list(zip(range(len(steps) + 1)))  # (v,) for each point v

    def __missing__(self, u: int) -> dict[int, tuple[int, ...]]:
        heads, steps = self._heads, self._steps
        if not 0 <= u < len(self):
            raise IndexError(f"point {u} out of range")
        if u < len(heads):
            column = heads[u][u + 1:]
        else:
            below = [head[u] for head in heads]  # d(l, u) for each head l
            first = below[0]
            column = [
                rec if isinstance(rec, int)
                else rec[0] + first if len(rec) == 1  # a singleton label, the common step
                else min(map(add, rec, below))
                for rec in steps[u:]
            ]
        ones = self._ones
        entry: dict[int, tuple[int, ...]] = {}
        setdefault = entry.setdefault
        for one, d in chain(zip(ones, _row(heads, steps, u)), zip(ones[u + 1:], column)):
            bucket = setdefault(d, one)  # a new bucket is v's shared tuple
            if bucket is not one:
                entry[d] = bucket + one
        self[u] = entry
        return entry

    def __len__(self) -> int:
        return len(self._steps) + 1

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _rescaled(heads, steps, num: int, den: int) -> tuple[list[list[int]], list]:
    """Head rows and step records times ``num`` or divided by ``den`` (the
    other one is 1), as new lists."""
    if num == den:
        return [list(head) for head in heads], list(steps)
    if den == 1:
        return (
            [[v * num for v in head] for head in heads],
            [rec * num if isinstance(rec, int) else tuple([r * num for r in rec]) for rec in steps],
        )
    return (
        [[v // den for v in head] for head in heads],
        [rec // den if isinstance(rec, int) else tuple([r // den for r in rec]) for rec in steps],
    )


def _built_state(heads, steps, scale: int, log, mode_tag: str, running_max) -> PrefixState:
    """The state whose lower triangle follows from ``heads`` and ``steps``
    over ``scale``, with the full rows of the points below its widest label
    only, moved to the canonical scale.  Every entry is a min, max or sum of
    head entries and Case-2 radii, and a radius is a head entry too (it is
    pinned as ``d(new, a_l)``, in the head row of ``a_l``), so the gcd of
    ``scale`` and the head entries is the one of all entries."""
    m = len(steps) + 1
    width = max([1] + [rec.label.cardinality for rec in log])
    heads = [head[:m] for head in heads[:width]]
    g = gcd(scale, *chain.from_iterable(heads))
    heads, steps = _rescaled(heads, steps, 1, g)
    return PrefixState(
        heads=tuple(map(tuple, heads)),
        steps=tuple(steps),
        scale=scale // g,
        log=tuple(log),
        mode_tag=mode_tag,
        running_max=tuple(running_max),
    )


@dataclass(frozen=True)
class PrefixState:
    """A built prefix: m points, their exact distances, and the log.

    Distances are integers over one common denominator, one per pair:
    ``entry(i, j) / scale`` is ``rho(a_i, a_j)``.  ``scale`` is the lcm of
    the denominators of the distances, so it is canonical.  ``rho``
    restricted to the first k points equals the k-point prefix for every k
    (incrementality).  In ``set-collapse`` mode the matrix is always a valid
    metric; ``legacy-multiset`` overrides can break it by design.

    The state holds ``heads``, the full rows of the points below its widest
    label, and ``steps``, one record per step: the Case-2 radii (a tuple) or
    the Case-1 distance (an int).  Every distance is read from them, by
    :meth:`row` or :meth:`entry`, and none is kept.  Both fields are
    canonical, so two states are equal exactly when their metrics, logs and
    modes are, and equality, hashing, ``repr`` and pickling read no row.  A
    state is made by :func:`build_prefix`, :func:`truncate_prefix`, a cache
    load, or :meth:`from_lower` from the rows of a lower triangle.
    """

    m: int = field(init=False)
    heads: tuple[tuple[int, ...], ...] = field(repr=False)
    steps: tuple = field(repr=False)
    scale: int
    log: tuple[StepRecord, ...] = field(repr=False)
    mode_tag: str
    # running_max[k] is the largest distance among the first k + 1 points.
    running_max: tuple[Fraction, ...] = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "m", len(self.steps) + 1)

    def __getstate__(self):
        # The fields only: the cached views below are rebuilt on demand.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_lower(cls, lower: Sequence[Sequence], log: Iterable[StepRecord], mode_tag: str) -> PrefixState:
        """The state whose distances ``rho(a_i, a_j)``, ``j < i``, are the
        rationals ``lower[i][j]``, built by the steps of ``log`` under the
        mode ``mode_tag``: the replay of ``log`` under that mode, with the
        log's labels under an ``override`` tag.

        Raises :class:`InvalidMode` unless the log has one record per step
        after the first point, numbered from 1, under a canonical (``cw1``)
        tag every label is the enumeration's label of its step, and the
        replay gives the same log, C/I flags included, and the same rows.
        """
        log = tuple(log)
        rows = [[as_rational(v) for v in row] for row in lower]
        m = len(rows)
        if (
            len(log) != m - 1
            or any(rec.step != k for k, rec in enumerate(log, start=1))
            or any(len(row) != i for i, row in enumerate(rows))
        ):
            raise InvalidMode("the state's rows do not follow its log")
        canonical = mode_tag.endswith("," + ENUMERATION_VERSION)
        for rec in log if canonical else ():
            if rec.label != subset_of_index(rec.step):
                raise InvalidMode(f"step {rec.step} does not have its {ENUMERATION_VERSION} label")
        override = None if canonical else tuple(rec.label.elements for rec in log)
        mode = ConstructionMode(*mode_tag.split(",")[:2], override)
        if mode.tag != mode_tag:
            raise InvalidMode(f"unknown mode tag {mode_tag!r}")
        state = build_prefix(m, mode)
        scale = state.scale
        if state.log != log or any(
            [v * scale for v in row] != list(state.row(i)) for i, row in enumerate(rows)
        ):
            raise InvalidMode("the state's rows do not follow its log")
        return state

    def row(self, i: int) -> tuple[int, ...]:
        """Row i of the lower triangle over ``scale``, ``d(i, j)`` for
        ``j < i``: a head slice, or made from step i's record in O(i·p).
        Not kept.  An index outside ``0..m-1`` is an :class:`IndexError`."""
        if not 0 <= i < self.m:
            raise IndexError(f"row {i} out of range")
        return _row(self.heads, self.steps, i)

    def entry(self, i: int, j: int) -> int:
        """``d(i, j)`` over ``scale``: a head entry when i or j is a head
        point, else read from the record of step ``max(i, j)`` in O(p).  An
        index outside ``0..m-1`` is an :class:`IndexError`."""
        if not (0 <= i < self.m and 0 <= j < self.m):
            raise IndexError(f"pair ({i}, {j}) out of range")
        i, j = max(i, j), min(i, j)
        heads = self.heads
        if j < len(heads):
            return heads[j][i]
        return _step_entry(heads, self.steps[i - 1], j) if i != j else 0

    def distance(self, i: int, j: int) -> Fraction:
        return Fraction(self.entry(i, j), self.scale)

    @cached_property
    def rho(self) -> tuple[tuple[Fraction, ...], ...]:
        """The full distance matrix as Fractions, ``rho[i][j]`` for every i
        and j.  A view made on first access and kept with the state, at
        O(m^2) time and memory, so no command reads it.  Not a field."""
        return fraction_rows(list(map(self.row, range(self.m))), self.scale)

    @cached_property
    def distance_buckets(self) -> _DistanceBuckets:
        """For each point u, ``distance_buckets[u]`` maps every distance from
        u (as an integer over ``scale``) to the tuple of points at that
        distance, in ascending index order.  Entry u is built on its first
        read from row u and the step records of the later points, in
        O(m·p), and kept with the state, so a search that stops early builds
        only the points it reached; the state is immutable, so no entry goes
        stale.  A bucket of one point v is the index's shared tuple
        ``(v,)``, one object in every entry that has it.  ``len`` and
        iteration cover all ``m`` points.  Callers must not mutate it.  Not a
        field: it takes no part in equality, hashing or ``repr``."""
        return _DistanceBuckets(self.heads, self.steps)


def is_correctly_defined(prefix: PrefixState, label) -> tuple[bool, tuple[int, int] | None]:
    """Test the two-sided correctness condition of a label against a prefix.

    ``label`` may be a :class:`QLabel` or a plain sequence of rationals; an
    empty label or one with an element that is not positive is a
    :class:`ValueError`.  Returns ``(True, None)`` or ``(False, (i, k))``
    with the lexicographically first violating pair of element positions
    (0-based).
    """
    elements = _label_elements(label.elements if isinstance(label, QLabel) else label)
    p = len(elements)
    if p > prefix.m:
        raise PrefixTooShort(
            f"label has {p} elements but the prefix has {prefix.m} points"
        )
    block = list(map(prefix.row, range(p)))
    d, radii, _ = common_scale(block, prefix.scale, range(p), elements)
    failure = katetov_failure(d, range(p), radii, two_sided=True)
    return (True, None) if failure is None else (False, failure[0])


def build_prefix(
    m: int,
    mode: ConstructionMode = DEFAULT_MODE,
    resume: PrefixState | None = None,
) -> PrefixState:
    """Build the m-point prefix deterministically under ``mode``.

    ``resume`` may supply any earlier state (built, loaded from a cache or
    made by :meth:`PrefixState.from_lower`); it must carry the same mode
    tag, and under an override the same labels, otherwise
    :class:`InvalidMode` is raised — a cache is never silently reused across
    settings.  The build continues from its heads and step records.

    Every step runs in integers over the lcm of the denominators of all
    labels used; the result is then reduced to the canonical scale.  It
    keeps the full rows of the points below the widest label and one record
    per step, O(m·w) work for labels of at most w elements, and every
    distance is read from those.  m above :data:`PREFIX_MAX_POINTS` raises
    :class:`TooLarge` before any work.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > PREFIX_MAX_POINTS:
        raise TooLarge(f"a prefix is limited to {PREFIX_MAX_POINTS} points")
    if mode.duplicate_handling == LEGACY_MULTISET and mode.q_override is None:
        raise InvalidMode("legacy-multiset requires an explicit q_override")

    if resume is not None:
        if resume.mode_tag != mode.tag:
            raise InvalidMode(
                f"cached prefix was built as {resume.mode_tag!r}, requested {mode.tag!r}"
            )
        # A state under a canonical mode holds that mode's labels: every state
        # is a build, or a replay under its tag.  An override is checked label
        # by label.
        if mode.q_override is not None:
            for rec in resume.log:
                if rec.label != mode.label_for_step(rec.step):
                    raise InvalidMode(
                        f"cached step {rec.step} used a different label; refusing to resume"
                    )
        if resume.m >= m:
            return truncate_prefix(resume, m)

    start = 1 if resume is None else resume.m
    labels = [mode.label_for_step(step) for step in range(start, m)]
    if resume is None:
        heads, steps, base_scale, log, maxima = [], [], 1, [], [Fraction(0)]
    else:
        heads, steps = resume.heads, resume.steps
        base_scale = resume.scale
        log, maxima = list(resume.log), list(resume.running_max)
    # One scale for the prior entries, their largest distance and every label.
    elements = [maxima[-1]] + [r for label in labels for r in label.elements]
    scale = lcm(base_scale, *(r.denominator for r in elements))
    heads, steps = _rescaled(heads, steps, scale // base_scale, 1)
    scaled = (r.numerator * (scale // r.denominator) for r in elements)
    top = next(scaled)
    # A step reads only the full rows d(x, .) of its label's points x < p, and
    # every other row follows from those and the step's record.  So only the
    # points below the widest label (and point 0) keep a full row, grown step
    # by step; a resume whose labels are wider completes the missing ones.
    width = max([1, len(heads)] + [label.cardinality for label in labels])
    for x in range(len(heads), min(width, start)):
        row = _step_row(heads, steps[x - 1], x) if x else ()
        heads.append([*row, 0, *(_step_entry(heads, steps[k - 1], x) for k in range(x + 1, start))])
    head_max = list(map(max, heads))  # the largest d(x, .) so far, per head

    last = top  # maxima[-1] over scale: a new Fraction only when top grows
    for step, label in enumerate(labels, start=start):
        p = label.cardinality
        if p > step:
            raise PrefixTooShort(
                f"step {step}: label needs {p} points but only {step} exist"
            )
        radii = [next(scaled) for _ in label.elements]
        failure = katetov_failure(heads, range(p), radii, two_sided=True)
        if failure is None:
            record = tuple(radii)
            # The new row's largest entry, max_z min_l (r_l + d(a_l, z)), is at
            # most min_l (r_l + max d(a_l, .)), and equal to it for one point;
            # only a wider label that could raise top scans its row.
            bound = min(map(add, radii, head_max))
            if p > 1 and bound > top:
                bound = max(_step_row(heads, record, step))
            top = max(top, bound)
        elif mode.case1_scope == ALL_PRIOR:
            record = top
        else:  # a distance among the first p points, so at most top
            record = max(heads[i][k] for i in range(p) for k in range(i + 1, p))

        full = step < width  # the new point keeps a full row
        new_row = _step_row(heads, record, step if full else len(heads))
        for head, dist in zip(heads, new_row):
            head.append(dist)
        head_max = list(map(max, head_max, new_row))
        if full:
            heads.append([*new_row, 0])
            head_max.append(max(new_row))
        steps.append(record)
        maxima.append(maxima[-1] if top == last else Fraction(top, scale))
        last = top
        log.append(StepRecord(step=step, label=label, correctly_defined=failure is None))

    return _built_state(heads, steps, scale, log, mode.tag, maxima)


def truncate_prefix(state: PrefixState, m: int) -> PrefixState:
    """The first-m-points prefix of ``state`` (exact, by incrementality),
    reduced to its own canonical scale."""
    if not 1 <= m <= state.m:
        raise ValueError(f"cannot truncate a {state.m}-point prefix to {m}")
    if m == state.m:
        return state
    return _built_state(state.heads, state.steps[: m - 1], state.scale, state.log[: m - 1],
                        state.mode_tag, state.running_max[:m])


# ---------------------------------------------------------------------------
# Cache file format: header "URY0 v2 <mode-tag>" then "n | elements | C-or-I"
# per step.  Rows are derived data: a load replays the log and compares.
# ---------------------------------------------------------------------------

_CACHE_MAGIC = "URY0 v2"


def dump_prefix_text(state: PrefixState) -> str:
    """Render a prefix as its construction log: the labels and C/I flags."""
    lines = [f"{_CACHE_MAGIC} {state.mode_tag}"] + [rec.text for rec in state.log]
    return "\n".join(lines) + "\n"


def _record_label(line: str, lineno: int) -> tuple[Fraction, ...]:
    """The label of the cache record ``line`` at line ``lineno`` (step
    ``lineno - 1``); a malformed record is a :class:`ParseError` there."""
    parts = line.split(" | ")
    if len(parts) != 3:
        raise ParseError(lineno, 1, "expected 3 fields separated by ' | '")
    step_text, elements_text, flag = parts
    try:
        wrong = not (step_text.isascii() and step_text.isdigit()) or int(step_text) != lineno - 1
    except ValueError:
        raise too_many_digits(lineno, step_text) from None
    if wrong:
        raise ParseError(lineno, 1, f"expected step {lineno - 1}, got {quoted(step_text)}")
    if flag not in ("C", "I"):
        raise ParseError(lineno, 1, f"flag must be C or I, got {quoted(flag)}")
    try:
        elements = tuple(map(parse_rational, elements_text.split(" ")))
    except ValueError as exc:
        if str(exc) == digit_limit():
            raise too_many_digits(lineno, line) from None
        raise ParseError(lineno, 1, str(exc)) from None
    if len(elements) >= lineno or min(elements) <= 0:
        raise ParseError(lineno, 1, f"label must be 1..{lineno - 1} positive rationals")
    return elements


def load_prefix_text(text: str, m: int | None = None) -> PrefixState:
    """The first ``m`` points (default: all) of the prefix a cache text
    logs: one replay under the logged mode (an ``override`` tag's labels
    read from lines 2..m), compared with lines 2..m; no later line is read.
    The first faulty line is a :class:`ParseError`, which names a malformed
    record's fault.  Any version but v2 is a :class:`ParseError` at line 1
    that names it; m past the text's lines is a :class:`ValueError`, and
    past :data:`PREFIX_MAX_POINTS` a :class:`TooLarge`, before any record."""
    lines = text.splitlines()
    header = lines[0].split(" ") if lines else []
    if len(header) != 3 or header[0] != "URY0":
        raise ParseError(1, 1, f"missing '{_CACHE_MAGIC}' header")
    if header[1] != "v2":
        raise ParseError(1, 6, f"unsupported cache version {quoted(header[1])}: only v2 is read")
    tag = header[2].split(",")
    if (
        len(tag) != 3
        or tag[0] not in (SET_COLLAPSE, LEGACY_MULTISET)
        or tag[1] not in (ALL_PRIOR, LABELS_ONLY)
        or tag[2] not in (ENUMERATION_VERSION, "override")
    ):
        raise ParseError(1, 9, f"malformed mode tag {quoted(header[2])}")
    m = len(lines) if m is None else m
    if m > len(lines):
        raise ValueError(f"cache holds {len(lines)} points, cannot load {m}")
    if m > PREFIX_MAX_POINTS:
        raise TooLarge(f"a prefix is limited to {PREFIX_MAX_POINTS} points")
    records = lines[1:m]
    labels = list(map(_record_label, records, range(2, m + 1))) if tag[2] == "override" else None
    try:
        mode = ConstructionMode(tag[0], tag[1], labels)
    except InvalidMode as exc:
        raise ParseError(1, 9, str(exc)) from None
    state = build_prefix(m, mode)
    replay = [rec.text for rec in state.log]
    if replay != records:
        # The first record that differs; a malformed one names its fault.
        lineno = next(k for k, (line, rec) in enumerate(zip(records, replay), 2) if line != rec)
        _record_label(records[lineno - 2], lineno)
        raise ParseError(lineno, 1, f"step {lineno - 1} differs from its replay")
    return state


def write_atomically(path, lines: Iterable[str]) -> None:
    """Write the strings ``lines`` to ``path`` via a sibling ``.tmp`` file
    and ``os.replace``: a failure part-way, in the writing or in making the
    lines, leaves the old file intact and no ``.tmp`` file, never a torn
    file that may still parse.  Symlinks are followed; a device or pipe is
    written in place."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
        return
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            for line in lines:
                fh.write(line)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_prefix(state: PrefixState, path) -> None:
    """Write the cache text of ``state`` to ``path`` with
    :func:`write_atomically`."""
    write_atomically(path, [dump_prefix_text(state)])


def load_prefix(path, m: int | None = None) -> PrefixState:
    """:func:`load_prefix_text` of the file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_prefix_text(fh.read(), m)
