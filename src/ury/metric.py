"""Finite metric spaces over exact rationals.

Provides metric-axiom validation with exact witnesses, the immutable
:class:`FiniteMetricSpace` value type, the Katetov kernels, and the
``.dmat`` text format (canonical, byte-stable, shared by the whole
toolkit).  A space is held as a prefix holds it, as its lower triangle of
ints over one canonical scale; a kernel reads the square rows it needs
through :func:`square_rows`, and no ``.dmat`` command builds the square.
The triangle scan first finds, in Python ints, the pairs that can break a
triangle.  While there are at most ``_PAIRS_PER_POINT`` of them per point,
as in every space of 19 points or fewer and every prefix, it checks them in
Python ints and never loads numpy; only a space with more, or one past 19
points whose pairs meet many mids each, is scanned in numpy.

``.dmat`` format (UTF-8; lines end in LF or CRLF, and no other character
breaks a line):

* line 1: the point count ``n`` (a positive integer);
* lines 2..n: row ``i`` (for ``i = 2..n``, 1-based) holding the ``i - 1``
  distances ``d(i,1) .. d(i,i-1)`` as canonical rationals separated by
  single spaces, no trailing spaces.

All indices in the public API are 0-based; external formats render them
1-based (see :mod:`ury.cli`).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, groupby, islice, repeat, zip_longest
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import MetricViolation, NonSquareInput, ParseError, TooLarge, quoted, too_many_digits
from .rational import as_rational, format_ratio, parse_rational

if TYPE_CHECKING:
    import numpy as np

# The triangle scan shifts entries right until they lie below this bound, so
# that a sum of two of them fits in int64.
_INT64_LIMIT = 2**62


@dataclass(frozen=True)
class Violation:
    """One broken metric axiom with an exact witness.

    kind is one of ``diagonal``, ``symmetry``, ``positivity``, ``triangle``.
    For triangles the witness indices are ``(a, mid, b)`` meaning
    ``d(a,b) > d(a,mid) + d(mid,b)`` with ``lhs = d(a,b)`` and
    ``rhs = d(a,mid) + d(mid,b)``.
    """

    kind: str
    indices: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def _square_input(matrix) -> tuple[tuple[tuple[int, ...], ...], int, tuple[Violation, ...]]:
    """The lower triangle ``lower[i][j] = d(i, j)``, ``j < i``, of a square
    matrix as integers over ``scale``, the lcm of its entries'
    denominators, and its violations: those of the diagonal and symmetry
    stages, which only a square matrix has, or else the triangle's.
    Raises :class:`NonSquareInput` for non-square inputs."""
    entries = [[as_rational(v) for v in row] for row in matrix]
    n = len(entries)
    if n == 0:
        raise NonSquareInput("matrix has no rows")
    if any(len(row) != n for row in entries):
        raise NonSquareInput(f"matrix is not {n}x{n}")
    denominators = {v.denominator for row in entries for v in row}
    scale = lcm(*denominators)
    factor = {q: scale // q for q in denominators}
    rows = [[v.numerator * factor[v.denominator] for v in row] for row in entries]

    def q(v: int) -> Fraction:
        return Fraction(v, scale)

    found = [
        Violation("diagonal", (i,), q(rows[i][i]), Fraction(0)) for i in range(n) if rows[i][i]
    ]
    found += [
        Violation("symmetry", (i, j), q(rows[i][j]), q(rows[j][i]))
        for i, j in combinations(range(n), 2) if rows[i][j] != rows[j][i]
    ]
    lower = tuple(tuple(row[:i]) for i, row in enumerate(rows))
    return lower, scale, tuple(found) or _lower_violations(lower, scale)


def reduced(lower: list[list[int]], scale: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The lower triangle ``lower`` over ``scale`` moved to the canonical
    scale, the lcm of the denominators of its entries, as tuples.  Each list
    of ``lower`` is replaced as it is read, so the rows are not held twice."""
    # The gcd of scale and every entry.  The scan starts at the last rows,
    # which usually hold the largest denominators, and stops once nothing
    # can cancel.
    g = scale
    for row in reversed(lower):
        g = gcd(g, *row)
        if g == 1:
            break
    for i, row in enumerate(lower):
        lower[i] = tuple([v // g for v in row] if g > 1 else row)
    return tuple(lower), scale // g


def symmetric_row(lower: Sequence[Sequence[int]], x: int) -> list[int]:
    """Row ``x`` of the symmetric matrix with a zero diagonal whose entries
    ``d(i, j)``, ``j < i``, are ``lower[i][j]``: ``d(x, j)`` for every j."""
    return [*lower[x], 0, *map(operator.itemgetter(x), islice(lower, x + 1, None))]


def square_rows(
    lower: Sequence[Sequence[int]], points: Iterable[int], factor: int = 1
) -> dict[int, list[int]]:
    """``{x: row}`` for each x of ``points``, with row the
    :func:`symmetric_row` x of ``lower`` times ``factor``: the rows a
    Katetov kernel reads, made one per point read."""
    if factor == 1:
        return {x: symmetric_row(lower, x) for x in points}
    return {x: [v * factor for v in symmetric_row(lower, x)] for x in points}


def common_scale(
    lower: Sequence[Sequence[int]], scale: int, points: Iterable[int], values: Sequence[Fraction]
) -> tuple[dict[int, list[int]], list[int], int]:
    """The rows at ``points`` of the symmetric matrix ``lower / scale`` (see
    :func:`square_rows`) and the Fractions ``values`` (radii or function
    values) as integers over ``common``, the lcm of their scales:
    ``(rows, ints, common)``."""
    common = lcm(scale, *(v.denominator for v in values))
    ints = [v.numerator * (common // v.denominator) for v in values]
    return square_rows(lower, points, common // scale), ints, common


def fraction_rows(lower: Sequence[Sequence[int]], scale: int) -> tuple[tuple[Fraction, ...], ...]:
    """The symmetric matrix with a zero diagonal and entries ``lower[i][j] /
    scale``, ``j < i``, as Fractions, one per distinct value."""
    values = {v: Fraction(v, scale) for v in set().union(*lower, (0,))}
    return tuple(tuple(values[v] for v in symmetric_row(lower, x)) for x in range(len(lower)))


def _lower_violations(lower: Sequence[Sequence[int]], scale: int) -> tuple[Violation, ...]:
    # The positivity stage, then the triangle stage, on lower[i][j] = d(i, j)
    # for j < i.  Witness pairs (j, i) come out in (j, i) order, as on the
    # square matrix.
    def q(v: int) -> Fraction:
        return Fraction(v, scale)

    nonpositive = sorted(
        (j, i)
        for i, row in enumerate(lower) if min(row, default=1) <= 0
        for j, v in enumerate(row) if v <= 0
    )
    if nonpositive:
        return tuple(
            Violation("positivity", (j, i), q(lower[i][j]), Fraction(0)) for j, i in nonpositive
        )
    if len(lower) < 3:
        return ()

    def at(i: int, j: int) -> int:
        return lower[i][j] if i > j else lower[j][i]

    return tuple(
        Violation("triangle", (a, mid, b), q(lower[b][a]), q(at(a, mid) + at(mid, b)))
        for a, b, mid in _triangle_scan(lower)
    )


# The triangle scan checks the rows in tiles of this many, each tile against
# the mids that can break one of its pairs, so that a tile and its buffer stay
# in cache.
_TILE = 64

# The most candidate pairs per point that the triangle scan checks in Python
# ints; past it the scan runs in numpy.  At 9, every space of 19 points or
# fewer (n(n-1)/2 <= 9n pairs) stays in Python ints and never loads numpy,
# and so does a prefix, with about 0.8 pairs per point.  With numpy already
# imported (tools/scan_crossover.py), the Python finish was the faster on
# prefixes of 100 to 450 points, and on stars whose pairs spread over their
# rows up to 27 pairs per point.  On the path metric and shortest-path
# closures, where each pair meets many mids, it was the slower from about 4
# pairs per point, but by at most about 0.2 ms a call within the budget,
# where numpy's import costs about 0.1 s; and such a space past 19 points is
# handed to numpy once its pairs have compared as many mids as it has pairs.
_PAIRS_PER_POINT = 9


def _candidate_flags(lower: Sequence[Sequence[int]], m: Sequence[int], b: int) -> Iterator[bool]:
    # d(a, b) > m[a] + m[b] for each a < b, in Python ints.
    return map(operator.gt, lower[b], map(operator.add, m, repeat(m[b])))


def _prefilter(
    lower: Sequence[Sequence[int]], top: int, budget: int
) -> tuple[list[int], list[tuple[int, int]] | None]:
    # The nearest-neighbour distances m[x] = min_{y != x} d(x, y) of the
    # positive entries lower[i][j] = d(i, j), j < i, of n >= 2 points whose
    # largest entry is top, and the candidate pairs (a, b), a < b, with
    # d(a, b) > m[a] + m[b], in Python ints; None for the pairs once there
    # are more than budget of them.  A triangle d(a,b) > d(a,mid) + d(mid,b)
    # can break only on such a pair, as d(a,mid) >= m[a] and d(mid,b) >=
    # m[b].  m[x] is the least of row x and of column x, each column read
    # through zip_longest with a sentinel above top.
    above = top + 1
    columns = [*map(min, zip_longest(*islice(lower, 1, None), fillvalue=above)), above]
    m = list(map(min, columns, [above, *map(min, islice(lower, 1, None))]))
    pairs = []
    for b in range(1, len(lower)):
        pairs += zip(compress(range(b), _candidate_flags(lower, m, b)), repeat(b))
        if len(pairs) > budget:
            return m, None
    return m, pairs


def _pair_scan(
    lower: Sequence[Sequence[int]], m: Sequence[int], pairs: list[tuple[int, int]], limit: int | None
) -> list[tuple[int, int, int]] | None:
    # _triangle_scan on the candidate pairs in Python ints, or None once the
    # pairs have compared more than limit mids.  A mid can break the pair
    # (a, b) only if d(a,mid) < d(a,b) - m[b], as d(mid,b) >= m[b].  Row a
    # is made and read once per distinct a, for the mids below the largest
    # such bound of its pairs; each pair compares only those, and checks
    # the ones below its own bound.
    n = len(lower)
    found = []
    compared = 0
    pairs.sort()
    for a, group in groupby(pairs, operator.itemgetter(0)):
        ends = [b for _, b in group]
        row = symmetric_row(lower, a)
        bounds = [row[b] - m[b] for b in ends]
        # d(a, a) = 0 is raised to the largest bound, so that a is no mid.
        row[a] = max(bounds)
        near = list(compress(range(n), map(operator.gt, repeat(row[a]), row)))
        distances = list(map(row.__getitem__, near))
        for b, bound in zip(ends, bounds):
            compared += len(near)
            if limit is not None and compared > limit:
                return None
            top, row_b = row[b], lower[b]
            for mid in compress(near, map(operator.gt, repeat(bound), distances)):
                if top > row[mid] + (lower[mid][b] if mid > b else row_b[mid]):
                    found.append((a, b, mid))
    found.sort()
    return found


def _candidates(lower: Sequence[Sequence[int]], m: Sequence[int]) -> np.ndarray:
    # numpy is imported by the two functions that use it, so that a command
    # that validates nothing does not load it.
    import numpy as np

    # The n x n bool array whose entry [b, a] is d(a, b) > m[a] + m[b] for
    # a < b (False on and above the diagonal): the candidate pairs of
    # _prefilter, one row at a time.
    n = len(lower)
    candidate = np.zeros((n, n), dtype=bool)
    for b in range(1, n):
        candidate[b, :b] = list(_candidate_flags(lower, m, b))
    return candidate


def _triangle_scan(lower: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    # Every (a, b, mid) with a < b and d(a,b) > d(a,mid) + d(mid,b), sorted, on
    # the positive entries lower[i][j] = d(i, j), j < i, of n >= 2 points.
    # When the largest entry is at most twice the smallest, d(a,b) <= 2 min
    # <= d(a,mid) + d(mid,b) for every triple, and the scan ends here.
    # Otherwise _prefilter finds the candidate pairs.  While there are at
    # most _PAIRS_PER_POINT per point, _pair_scan checks them in Python ints
    # and numpy is never loaded; a space whose every pair fits that budget
    # stays there, and a larger one is handed to numpy once _pair_scan has
    # compared as many mids as the space has pairs.
    # The int64 scan runs on the entries shifted right by s bits, the least s
    # that puts them all below _INT64_LIMIT, so no sum of two can wrap.
    # Flooring keeps every violation (x > y + z implies x>>s >= (y>>s) +
    # (z>>s)), so for s > 0 the filter is >=.  It may also flag tight
    # triangles, so each flagged triple is rechecked in Python ints.  The
    # shifted diagonal is 1, so that no pair flags against one of its own
    # ends.
    # Only a candidate pair can break, and only through a mid with d(a,b) >
    # 2 m[mid].  A tile of rows a is skipped unless one of its pairs a < b is
    # a candidate; otherwise its rows and columns b that hold a candidate
    # make a block, scanned against the mids whose shifted 2 m[mid] passes
    # the filter against the block's largest entry.  The mids go in chunks
    # that fill one buffer: per mid and row, the largest d(a,b) - d(mid,b) is
    # checked against d(a,mid), and only the chunks where one passes are
    # searched for their triples, which are rechecked at once.  The n x n
    # candidate flags are reduced to each tile's rows and columns before the
    # int64 matrix is made.
    top = max(map(max, islice(lower, 1, None)))
    if top <= 2 * min(map(min, islice(lower, 1, None))):
        return []
    n = len(lower)
    budget, space_pairs = _PAIRS_PER_POINT * n, n * (n - 1) // 2
    m, pairs = _prefilter(lower, top, budget)
    if pairs is not None:
        found = _pair_scan(lower, m, pairs, space_pairs if space_pairs > budget else None)
        if found is not None:
            return found
    import numpy as np

    candidate = _candidates(lower, m)
    tile_rows = candidate.any(axis=0)
    starts = range(0, n, _TILE)
    tile_cols = np.logical_or.reduceat(candidate, starts, axis=1)
    del candidate
    s = max(0, top.bit_length() - _INT64_LIMIT.bit_length() + 1)
    d = np.empty((n, n), dtype=np.int64)
    for i, row in enumerate(lower):
        d[i, :i] = [v >> s for v in row] if s else row
        d[:i, i] = d[i, :i]
    np.fill_diagonal(d, 1 if s else 0)
    flags = np.greater_equal if s else np.greater
    twice = 2 * np.array([v >> s for v in m], dtype=np.int64)
    buffer = np.empty(_TILE * n, dtype=np.int64)
    found = []
    columns = {}
    for k, t in enumerate(starts):
        rows = np.flatnonzero(tile_rows[t : t + _TILE]) + t
        if not len(rows):
            continue
        cols = np.flatnonzero(tile_cols[:, k])
        block = d[rows[:, None], cols]
        mids = np.flatnonzero(flags(block.max(), twice))
        h, w = block.shape
        # A chunk fills at most the buffer, and its rows gathered from d at
        # most an eighth of it.
        step = max(1, min(len(buffer) // (h * w), len(buffer) // (8 * (h + w))))
        for j in range(0, len(mids), step):
            chunk = mids[j : j + step]
            to_rows, to_cols = d[chunk[:, None], rows], d[chunk[:, None], cols]
            rest = buffer[: len(chunk) * h * w].reshape(len(chunk), h, w)
            np.subtract(block, to_cols[:, None, :], out=rest)
            if not flags(rest.max(axis=2), to_rows).any():
                continue
            at, x, y = np.nonzero(flags(rest, to_rows[:, :, None]))
            a, b = rows[x], cols[y]
            keep = a < b
            for a, b, mid in zip(a[keep].tolist(), b[keep].tolist(), chunk[at[keep]].tolist()):
                if mid not in columns:
                    columns[mid] = symmetric_row(lower, mid)
                if lower[b][a] > columns[mid][a] + columns[mid][b]:
                    found.append((a, b, mid))
    found.sort()
    return found


def validate_metric(matrix: Sequence[Sequence]) -> ValidationReport:
    """Check the metric axioms exactly, reporting every violation found.

    Axioms are checked in stages — diagonal/symmetry, then positivity, then
    the triangle inequality — and a stage only runs when the previous ones
    hold, so each reported witness is meaningful on its own.  Every stage
    runs on integers over the common denominator, and the stages after
    symmetry on the lower triangle.  The triangle stage finds the pairs
    that can break a triangle in Python ints; while there are at most
    ``_PAIRS_PER_POINT`` per point it checks their mids in Python ints, and
    otherwise it runs one int64 scan on the entries shifted to fit, with
    each triple it flags rechecked exactly.
    Raises :class:`NonSquareInput` for inputs that are not square matrices.
    """
    violations = _square_input(matrix)[2]
    return ValidationReport(not violations, violations)


def validate_lower_triangle(lower: Sequence[Sequence[int]], scale: int) -> ValidationReport:
    """:func:`validate_metric` on the symmetric matrix with a zero diagonal
    whose entries ``d(i, j)``, ``j < i``, are ``lower[i][j] / scale``: only
    the positivity and triangle stages, which are all that can fail."""
    violations = _lower_violations(lower, scale)
    return ValidationReport(not violations, violations)


def point_index(x) -> int:
    """``x`` as a point index: an int or integer-like, never a bool, float
    or string, which a silent ``int(x)`` would truncate or convert."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise TypeError(f"point index must be an integer, got {x!r}")
    return operator.index(x)


def katetov_failure(
    d, points: Sequence[int], radii: Sequence[Fraction], two_sided: bool
) -> tuple[tuple[int, int], str] | None:
    """The lexicographically first pair of positions ``(i, j)`` where the radii
    at ``points`` break ``d(x_i, x_j) <= r_i + r_j`` (side ``"upper"``) or, if
    ``two_sided``, first ``|r_i - r_j| <= d(x_i, x_j)`` (``"lower"``); else None."""
    for i in range(len(points)):
        row, ri = d[points[i]], radii[i]
        for j in range(i + 1, len(points)):
            dist = row[points[j]]
            if two_sided and abs(ri - radii[j]) > dist:
                return (i, j), "lower"
            if dist > ri + radii[j]:
                return (i, j), "upper"
    return None


def katetov_row(d, points: Sequence[int], radii: Sequence[Fraction]) -> list[Fraction]:
    """The min-plus extension ``min_l (r_l + d(x_l, z))`` for every z, with each
    ``points[l]`` pinned to ``radii[l]`` (a no-op when the lower side holds).
    One shifted row ``r_l + d(x_l, .)`` per point, then their column-wise
    minimum; a single point's shifted row is the answer itself."""
    sums = [[r + v for v in d[x]] for x, r in zip(points, radii)]
    row = sums[0] if len(sums) == 1 else list(map(min, *sums))
    for x, r in zip(points, radii):
        row[x] = r
    return row


@dataclass(frozen=True)
class FiniteMetricSpace:
    """An n-point metric space given by its exact distances.

    The space holds its lower triangle, ``distance(i, j) ==
    Fraction(lower[i][j], scale)`` for ``j < i``, as integers over one
    common denominator, ``scale``, the lcm of their denominators; so two
    spaces are equal, and hash equal, iff their matrices are.  Construction
    validates all axioms and raises :class:`MetricViolation` otherwise.
    Instances are immutable.
    """

    lower: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, matrix):
        """The space of a square matrix; its diagonal and symmetry are
        checked here, and only its lower triangle is kept."""
        self._set(*_square_input(matrix))

    def _set(self, lower, scale: int, violations: tuple[Violation, ...] = ()) -> None:
        # Keep lower / scale, on its canonical scale, unless it has violations.
        if violations:
            raise MetricViolation(ValidationReport(False, violations))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def from_scaled_lower(cls, lower: list, scale: int) -> "FiniteMetricSpace":
        """The space whose distances ``d(i, j)``, ``j < i``, are the ints
        ``lower[i][j] / scale``, as :func:`parse_lower_triangle` gives them:
        put on its canonical scale by :func:`reduced`, which replaces the
        rows of the list ``lower`` in place, and validated."""
        lower, scale = reduced(lower, scale)
        space = object.__new__(cls)
        space._set(lower, scale, _lower_violations(lower, scale))
        return space

    @classmethod
    def _trusted(cls, lower: tuple[tuple[int, ...], ...], scale: int) -> "FiniteMetricSpace":
        """The space ``lower / scale``, given on its canonical scale and
        proven a metric: not validated."""
        space = object.__new__(cls)
        space._set(lower, scale)
        return space

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix as Fractions: a view made on first access and
        kept with the space, at O(n^2) time and memory.  Not a field."""
        return fraction_rows(self.lower, self.scale)

    @property
    def n(self) -> int:
        return len(self.lower)

    def distance(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"pair ({i}, {j}) out of range")
        i, j = max(i, j), min(i, j)
        return Fraction(self.lower[i][j] if i != j else 0, self.scale)

    def points(self) -> range:
        return range(self.n)

    @classmethod
    def from_lower_triangle(cls, triangle: Sequence[Sequence]) -> "FiniteMetricSpace":
        """Build a space from rows ``[d(1,0)], [d(2,0), d(2,1)], ...``."""
        rows = [[as_rational(v) for v in row] for row in triangle]
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise NonSquareInput(f"triangle row {i} has {len(row)} entries, wanted {i + 1}")
        scale = lcm(*(v.denominator for row in rows for v in row))
        lower = [[v.numerator * (scale // v.denominator) for v in row] for row in [[], *rows]]
        return cls.from_scaled_lower(lower, scale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteMetricSpace(n={self.n})"


# A .dmat entry that parses as it stands: an unsigned integer or a ``p/q``
# fraction of ASCII digits whose denominator is not all zeros; and a row of
# such entries with single spaces between them.  The fraction part is an
# alternative with an empty branch, not ``?``, which ``re`` matches slower.
_TOKEN = r"[0-9]+(?:/0*[1-9][0-9]*|)"
_TOKEN_RE = re.compile(_TOKEN)
_ROW_RE = re.compile(f"{_TOKEN}(?: {_TOKEN})*")


def _split_lines(text: str) -> Iterator[str]:
    # The lines of .dmat text: split on LF only, one CR dropped from the end
    # of each, and no empty line after a final LF.
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        line = text[start:stop]
        yield line[:-1] if line.endswith("\r") else line
        start = stop + 1


def _point_count(head: str | None) -> int:
    if head is None:
        raise ParseError(1, 1, "empty input")
    if not (head.isascii() and head.isdigit()):
        raise ParseError(1, 1, f"invalid point count {quoted(head)}")
    try:
        n = int(head)
    except ValueError:
        raise too_many_digits(1, head) from None
    if n < 1:
        raise ParseError(1, 1, "point count must be at least 1")
    return n


def dmat_point_count(text: str) -> int:
    """The point count on the first line of ``.dmat`` text, checked as the
    parse checks it, with no distance row read."""
    return _point_count(next(_split_lines(text), None))


# Every parse bounds the point count at the largest prefix a command builds,
# so that every export parses, and the canonical scale: the entries are
# multiplied out over the lcm of their denominators, so the parsed triangle
# holds about pairs x scale bits, and a file whose entries have distinct prime
# denominators needs about n^4 of them.
# The 4000-point prefix export, the largest a prefix command writes, has a
# 298-bit scale: 7 998 000 pairs x 298 bits = 2.38e9, and `ury verify` on it
# takes 13.8 s and 814 MiB (README).
DMAT_MAX_POINTS = 4000
DMAT_MAX_PAIR_BITS = 2_400_000_000


class _Denominators(dict):
    # One int per distinct denominator string; "" (no slash) is 1.
    def __missing__(self, q: str) -> int:
        value = self[q] = int(q or 1)
        return value


def parse_lower_triangle(text: str) -> tuple[list[list[int]], int]:
    """Parse ``.dmat`` syntax into ``(lower, scale)``: ``lower[i][j] / scale``
    is ``d(i, j)`` for ``j < i``, with ``scale`` the lcm of the denominators
    written (not reduced), and no metric axiom checked.  Each row is turned
    into ints as soon as it is read.  A point count above
    :data:`DMAT_MAX_POINTS` raises :class:`TooLarge` before any row is read,
    and so does a scale of more than :data:`DMAT_MAX_PAIR_BITS` over the
    number of pairs bits, before any entry is multiplied out: the lcm is
    built one denominator at a time and not finished."""
    lines = _split_lines(text)
    n = _point_count(next(lines, None))
    if n > DMAT_MAX_POINTS:
        raise TooLarge(f"a distance matrix is limited to {DMAT_MAX_POINTS} points")
    count = text.count("\n") + (not text.endswith("\n"))
    if count > n:
        raise ParseError(n + 1, 1, "unexpected extra line")
    if count < n:
        raise ParseError(count + 1, 1, f"expected {n - 1} distance rows, got {count - 1}")

    # rows[i] is d(i, .) as (numerators, denominators) until all are read:
    # two lists, or one int each for a row that repeats one entry.
    denominators = _Denominators()
    den = denominators.__getitem__
    rows = [([], [])]
    for i, line in enumerate(lines, 1):
        # A row that repeats one entry is checked and converted once.
        first = line.partition(" ")[0]
        repeated = len(line) == i * (len(first) + 1) - 1 and line == " ".join([first] * i)
        if not (_TOKEN_RE.fullmatch(first) if repeated else _ROW_RE.fullmatch(line)):
            raise _row_error(line, i + 1, i)
        count = line.count(" ") + 1
        if count != i:
            raise ParseError(i + 1, 1, f"expected {i} entries, got {count}")
        try:
            if repeated:
                p, _, q = first.partition("/")
                rows.append((int(p), den(q)))
            elif line.count("/") == i:  # every entry is a fraction
                parts = line.replace("/", " ").split(" ")
                rows.append((list(map(int, parts[::2])), list(map(den, parts[1::2]))))
            else:
                tokens = [token.partition("/") for token in line.split(" ")]
                rows.append(([int(p) for p, _, _ in tokens], [den(q) for _, _, q in tokens]))
        except ValueError:
            raise too_many_digits(i + 1, line) from None
    limit = DMAT_MAX_PAIR_BITS // max(1, n * (n - 1) // 2)
    scale = 1
    for q in denominators.values():
        scale = lcm(scale, q)
        if scale.bit_length() > limit:
            raise TooLarge(
                f"a distance matrix of {n} points is limited to a common denominator of {limit} bits"
            )
    factor = {q: scale // q for q in denominators.values()}
    for i, (nums, dens) in enumerate(rows):
        if isinstance(dens, int):
            rows[i] = [nums * factor[dens]] * i
        else:
            rows[i] = list(map(operator.mul, nums, map(factor.__getitem__, dens)))
    return rows, scale


def _row_error(line: str, lineno: int, count: int) -> ParseError:
    # The first fault of a row that _ROW_RE refused, checked in order:
    # trailing whitespace, an empty field, the entry count, then each entry
    # from the left.
    if line != line.rstrip():
        return ParseError(lineno, len(line.rstrip()) + 1, "trailing whitespace")
    tokens = line.split(" ")
    if "" in tokens:
        return ParseError(lineno, 1, "empty field (double space?)")
    if len(tokens) != count:
        return ParseError(lineno, 1, f"expected {count} entries, got {len(tokens)}")
    col = 1
    for token in tokens:
        if token.startswith("-"):
            return ParseError(lineno, col, "negative distance")
        try:
            parse_rational(token)
        except ValueError as exc:
            return ParseError(lineno, col, str(exc))
        col += len(token) + 1
    raise AssertionError(f"line {lineno} is a well-formed row")


def parse_matrix_text(text: str) -> list[list[Fraction]]:
    """Parse ``.dmat`` syntax into a raw symmetric Fraction matrix, without
    validating the metric axioms (``validate_metric`` handles those
    separately): a view of :func:`parse_lower_triangle`."""
    return [list(row) for row in fraction_rows(*parse_lower_triangle(text))]


def parse_distance_matrix(text: str) -> FiniteMetricSpace:
    """Parse and validate a ``.dmat`` document.

    Raises :class:`ParseError` for malformed syntax, :class:`TooLarge` for a
    point count above :data:`DMAT_MAX_POINTS` or a scale past
    :data:`DMAT_MAX_PAIR_BITS`, and :class:`MetricViolation` when the
    parsed matrix is not a metric.  The lower triangle of the parse is
    reduced to its canonical scale and kept; only the positivity and
    triangle stages run, as the format can express no other fault.
    """
    return FiniteMetricSpace.from_scaled_lower(*parse_lower_triangle(text))


def serialize_matrix(matrix: Sequence[Sequence[Fraction]]) -> str:
    """Render any square symmetric matrix in ``.dmat`` syntax: the
    :func:`dmat_lines` of its lower triangle over the lcm of the entries'
    denominators.  Entries are read with :func:`as_rational`."""
    lower = [[as_rational(row[j]) for j in range(i)] for i, row in enumerate(matrix)]
    scale = lcm(*(v.denominator for row in lower for v in row))
    rows = ([v.numerator * (scale // v.denominator) for v in row] for row in lower[1:])
    return "".join(dmat_lines(len(lower), rows, scale))


class _DenominatorText(dict):
    # The gcd g of an entry and the scale -> the text after its reduced
    # numerator: "/" and the denominator scale // g, or "" when that is 1.
    __slots__ = ("scale",)

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, g: int) -> str:
        den = self.scale // g
        text = self[g] = f"/{den}" if den != 1 else ""
        return text


def dmat_lines(n: int, rows: Iterable[Sequence[int]], scale: int) -> Iterator[str]:
    """The ``.dmat`` lines, each ending in LF, of the n-point matrix whose
    rows 1..n-1 are ``rows`` over ``scale`` (row i holds ``d(i, j) * scale``,
    ``j < i``): each entry in canonical form, with no Fraction made.
    A row that repeats one value is formatted once; any other entry costs
    one gcd, its denominator text cached per gcd."""
    denominator = _DenominatorText(scale)
    yield f"{n}\n"
    for row in rows:
        if row.count(row[0]) == len(row):
            yield " ".join([format_ratio(row[0], scale)] * len(row)) + "\n"
            continue
        g = list(map(gcd, row, repeat(scale, len(row))))
        numerators = map(str, map(operator.floordiv, row, g))
        yield " ".join(map(operator.add, numerators, map(denominator.__getitem__, g))) + "\n"


def serialize_distance_matrix(space: FiniteMetricSpace) -> str:
    """Canonical ``.dmat`` text; inverse of :func:`parse_distance_matrix`."""
    return "".join(dmat_lines(space.n, space.lower[1:], space.scale))
