"""Finite metric spaces over exact rationals.

Provides metric-axiom validation with exact witnesses, the immutable
:class:`FiniteMetricSpace` value type, and the ``.dmat`` text format
(canonical, byte-stable, shared by the whole toolkit).

``.dmat`` format (UTF-8, LF line endings):

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
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .errors import MetricViolation, NonSquareInput, ParseError, TooLarge
from .rational import as_rational, format_ratio, format_rational, parse_rational

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


def _scaled_matrix(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(rows, scale)`` with ``matrix[i][j] == rows[i][j] / scale`` and
    ``scale`` the lcm of the entries' denominators: the common denominator
    of a Fraction matrix (:func:`common_scale` is the one of integer rows
    and values).  Raises :class:`NonSquareInput` for non-square inputs."""
    entries = [[as_rational(v) for v in row] for row in matrix]
    n = len(entries)
    if n == 0:
        raise NonSquareInput("matrix has no rows")
    if any(len(row) != n for row in entries):
        raise NonSquareInput(f"matrix is not {n}x{n}")
    denominators = {v.denominator for row in entries for v in row}
    scale = lcm(*denominators)
    factor = {q: scale // q for q in denominators}
    return tuple(tuple(v.numerator * factor[v.denominator] for v in row) for row in entries), scale


def _rescaled(rows: Sequence[Sequence[int]], num: int, den: int) -> list[list[int]]:
    """``rows[i][j] * num // den`` for a symmetric matrix with a zero diagonal.
    Each pair is computed once and the same int stored at ``(i, j)`` and
    ``(j, i)``, so the copy costs no more memory than the original."""
    out = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        out_i = out[i]
        for j in range(i):
            out_i[j] = out[j][i] = row[j] * num // den
    return out


def reduced(rows: Sequence[Sequence[int]], scale: int) -> tuple[Sequence[Sequence[int]], int]:
    """``rows`` over ``scale`` moved to the canonical scale, the lcm of the
    denominators of its entries.  The gcd scan starts at the last rows, which
    usually hold the largest denominators, and stops once nothing can cancel."""
    g = scale
    for row in reversed(rows):
        g = gcd(g, *row)
        if g == 1:
            return rows, scale
    return _rescaled(rows, 1, g), scale // g


def common_scale(rows, scale: int, values: Sequence[Fraction]) -> tuple[Sequence, list[int], int]:
    """The symmetric matrix ``rows / scale`` and the Fractions ``values`` (radii
    or function values) as integers over ``common``, the lcm of their scales:
    ``(rows', ints, common)``, with ``rows' is rows`` when the scale stays."""
    common = lcm(scale, *(v.denominator for v in values))
    if common != scale:
        rows = _rescaled(rows, common // scale, 1)
    return rows, [v.numerator * (common // v.denominator) for v in values], common


def fraction_rows(rows: Sequence[Sequence[int]], scale: int) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix ``rows[i][j] / scale`` as Fractions, one per distinct value."""
    values = {v: Fraction(v, scale) for v in set().union(*rows)}
    return tuple(tuple(values[v] for v in row) for row in rows)


def _violations(rows: tuple[tuple[int, ...], ...], scale: int) -> tuple[Violation, ...]:
    # validate_metric's stages on the integers; only witnesses become Fractions.
    n = len(rows)

    def q(v: int) -> Fraction:
        return Fraction(v, scale)

    found = [
        Violation("diagonal", (i,), q(rows[i][i]), Fraction(0)) for i in range(n) if rows[i][i]
    ]
    found += [
        Violation("symmetry", (i, j), q(rows[i][j]), q(rows[j][i]))
        for i, j in combinations(range(n), 2) if rows[i][j] != rows[j][i]
    ]
    if not found:
        found = [
            Violation("positivity", (i, j), q(rows[i][j]), Fraction(0))
            for i, j in combinations(range(n), 2) if rows[i][j] <= 0
        ]
    if found or n < 3:
        return tuple(found)
    return tuple(
        Violation("triangle", (a, mid, b), q(rows[a][b]), q(rows[a][mid] + rows[mid][b]))
        for a, b, mid in sorted(_triangle_scan(rows))
    )


def _triangle_scan(rows) -> list[tuple[int, int, int]]:
    # Emits (a, b, mid), a < b, for every failing d(a,b) <= d(a,mid) + d(mid,b),
    # on positive entries with a zero diagonal.  The int64 scan runs on the
    # entries shifted right by s bits, the least s that puts them all below
    # _INT64_LIMIT, so no sum of two can wrap.  Flooring keeps every violation
    # (x > y + z implies x>>s >= (y>>s) + (z>>s)), so for s > 0 the filter is
    # (x>>s) + 1 > (y>>s) + (z>>s).  It may also flag tight triangles, so each
    # flagged triple is rechecked in Python ints.  The shifted diagonal is 1,
    # so that no pair flags against one of its own ends.
    s = max(0, max(map(max, rows)).bit_length() - _INT64_LIMIT.bit_length() + 1)
    if s:
        d = np.array([[v >> s for v in row] for row in rows], dtype=np.int64)
        np.fill_diagonal(d, 1)
        lhs = d + 1
    else:
        d = lhs = np.array(rows, dtype=np.int64)
    found = []
    for mid in range(len(rows)):
        excess = lhs > d[:, mid : mid + 1] + d[mid : mid + 1, :]
        if not excess.any():
            continue
        for a, b in np.argwhere(np.triu(excess, k=1)).tolist():
            if rows[a][b] > rows[a][mid] + rows[mid][b]:
                found.append((a, b, mid))
    return found


def validate_metric(matrix: Sequence[Sequence]) -> ValidationReport:
    """Check the metric axioms exactly, reporting every violation found.

    Axioms are checked in stages — diagonal/symmetry, then positivity, then
    the triangle inequality — and a stage only runs when the previous ones
    hold, so each reported witness is meaningful on its own.  Every stage
    runs on integers over the common denominator; the triangle stage is one
    int64 scan on the entries shifted to fit, with each triple it flags
    rechecked exactly.  Raises
    :class:`NonSquareInput` for inputs that are not square matrices.
    """
    return validate_scaled_matrix(*_scaled_matrix(matrix))


def validate_scaled_matrix(rows: Sequence[Sequence[int]], scale: int) -> ValidationReport:
    """:func:`validate_metric` on the square matrix ``rows[i][j] / scale``."""
    violations = _violations(rows, scale)
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
    """An n-point metric space given by its exact distance matrix.

    Distances are integers over one common denominator,
    ``matrix[i][j] == Fraction(rows[i][j], scale)``, with ``scale`` the lcm
    of their denominators; so two spaces are equal, and hash equal, iff
    their matrices are.  Construction validates all axioms and raises
    :class:`MetricViolation` otherwise.  Instances are immutable.
    """

    rows: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, matrix):
        self._set_validated(*_scaled_matrix(matrix))

    def _set_validated(self, rows: tuple[tuple[int, ...], ...], scale: int) -> None:
        report = validate_scaled_matrix(rows, scale)
        if not report.ok:
            raise MetricViolation(report)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def _validated(cls, rows: tuple[tuple[int, ...], ...], scale: int) -> "FiniteMetricSpace":
        """The space ``rows / scale``, given on its canonical scale; validated."""
        space = object.__new__(cls)
        space._set_validated(rows, scale)
        return space

    @classmethod
    def _trusted(cls, rows, scale: int) -> "FiniteMetricSpace":
        """The space ``rows / scale``, proven a metric: put on its canonical scale, not validated."""
        rows, scale = reduced(rows, scale)
        space = object.__new__(cls)
        object.__setattr__(space, "rows", tuple(map(tuple, rows)))
        object.__setattr__(space, "scale", scale)
        return space

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix as Fractions: a view made on first access and
        kept with the space, at O(n^2) time and memory.  Not a field."""
        return fraction_rows(self.rows, self.scale)

    @property
    def n(self) -> int:
        return len(self.rows)

    def distance(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[i][j], self.scale)

    def points(self) -> range:
        return range(self.n)

    @classmethod
    def from_lower_triangle(cls, triangle: Sequence[Sequence]) -> "FiniteMetricSpace":
        """Build a space from rows ``[d(1,0)], [d(2,0), d(2,1)], ...``."""
        return cls(_matrix_from_triangle(triangle))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteMetricSpace(n={self.n})"


def _matrix_from_triangle(triangle: Sequence[Sequence]) -> list[list[Fraction]]:
    rows = [[as_rational(v) for v in row] for row in triangle]
    n = len(rows) + 1
    for i, row in enumerate(rows):
        if len(row) != i + 1:
            raise NonSquareInput(f"triangle row {i} has {len(row)} entries, wanted {i + 1}")
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(i):
            matrix[i][j] = matrix[j][i] = rows[i - 1][j]
    return matrix


# A .dmat row that parses as it stands: unsigned integers or ``p/q`` fractions
# of ASCII digits, single spaces between them, and no denominator of zeros.
_ROW_RE = re.compile(r"[0-9]+(?:/[0-9]+)?(?: [0-9]+(?:/[0-9]+)?)*")
_ZERO_DENOMINATOR_RE = re.compile(r"/0+(?: |$)")


def parse_scaled_matrix(
    text: str, max_points: int | None = None
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Parse ``.dmat`` syntax into ``(rows, scale)``: the symmetric matrix
    ``rows[i][j] / scale`` on its canonical scale, as
    :func:`_scaled_matrix` gives it, with no Fraction made and no metric
    axiom checked.  A point count above ``max_points`` raises
    :class:`TooLarge` before any row is read."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, 1, "empty input")
    head = lines[0]
    if not (head.isascii() and head.isdigit()):
        raise ParseError(1, 1, f"invalid point count {head!r}")
    n = int(head)
    if n < 1:
        raise ParseError(1, 1, "point count must be at least 1")
    if max_points is not None and n > max_points:
        raise TooLarge(f"a distance matrix is limited to {max_points} points")
    if len(lines) > n:
        raise ParseError(n + 1, 1, "unexpected extra line")
    if len(lines) < n:
        raise ParseError(len(lines) + 1, 1, f"expected {n - 1} distance rows, got {len(lines) - 1}")

    # entries[i][j] is d(i, j) as (numerator, "/" or "", denominator or "").
    entries = [[]]
    for i in range(1, n):
        line = lines[i]
        if _ROW_RE.fullmatch(line) is None or _ZERO_DENOMINATOR_RE.search(line):
            raise _row_error(line, i + 1, i)
        entries.append([token.partition("/") for token in line.split(" ")])
        if len(entries[i]) != i:
            raise ParseError(i + 1, 1, f"expected {i} entries, got {len(entries[i])}")
    denominators = {q for row in entries for _, _, q in row}
    scale = lcm(*(int(q) for q in denominators if q))
    factor = {q: scale // int(q or 1) for q in denominators}
    lower = [[int(p) * factor[q] for p, _, q in row] for row in entries]
    # Column i of the lower triangle, padded with zeros, is row i's upper part.
    columns = list(zip(*(row + [0] * (n - i) for i, row in enumerate(lower))))
    rows, scale = reduced([(*lower[i], *columns[i][i:]) for i in range(n)], scale)
    return tuple(map(tuple, rows)), scale


def _row_error(line: str, lineno: int, count: int) -> ParseError:
    # The first fault of a row that _ROW_RE refused or that has a zero
    # denominator, checked in order: trailing whitespace, an empty field, the
    # entry count, then each entry from the left.
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
    separately): a view of :func:`parse_scaled_matrix`."""
    return [list(row) for row in fraction_rows(*parse_scaled_matrix(text))]


def parse_distance_matrix(text: str, max_points: int | None = None) -> FiniteMetricSpace:
    """Parse and validate a ``.dmat`` document.

    Raises :class:`ParseError` for malformed syntax, :class:`TooLarge` for a
    point count above ``max_points``, and :class:`MetricViolation` when the
    parsed matrix is not a metric.
    """
    return FiniteMetricSpace._validated(*parse_scaled_matrix(text, max_points))


def serialize_matrix(matrix: Sequence[Sequence[Fraction]]) -> str:
    """Render any square symmetric matrix in ``.dmat`` syntax."""
    n = len(matrix)
    lines = [str(n)]
    for i in range(1, n):
        lines.append(" ".join(format_rational(matrix[i][j]) for j in range(i)))
    return "\n".join(lines) + "\n"


def serialize_scaled_matrix(rows: Sequence[Sequence[int]], scale: int) -> str:
    """Render the matrix ``rows[i][j] / scale`` in ``.dmat`` syntax: the same
    text as :func:`serialize_matrix` gives for it, with no Fraction made."""
    lines = [str(len(rows))]
    for i in range(1, len(rows)):
        lines.append(" ".join(format_ratio(v, scale) for v in rows[i][:i]))
    return "\n".join(lines) + "\n"


def serialize_distance_matrix(space: FiniteMetricSpace) -> str:
    """Canonical ``.dmat`` text; inverse of :func:`parse_distance_matrix`."""
    return serialize_scaled_matrix(space.rows, space.scale)
