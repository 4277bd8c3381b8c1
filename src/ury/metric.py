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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .errors import MetricViolation, NonSquareInput, ParseError
from .rational import as_rational, format_ratio, format_rational

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
    violations = _violations(*_scaled_matrix(matrix))
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
    ``points[l]`` pinned to ``radii[l]`` (a no-op when the lower side holds)."""
    row = [min(r + d[x][z] for x, r in zip(points, radii)) for z in range(len(d))]
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
        rows, scale = _scaled_matrix(matrix)
        violations = _violations(rows, scale)
        if violations:
            raise MetricViolation(ValidationReport(False, violations))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scale", scale)

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


def parse_matrix_text(text: str) -> list[list[Fraction]]:
    """Parse ``.dmat`` syntax into a raw symmetric matrix, without validating
    the metric axioms (``validate_metric`` handles those separately)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, 1, "empty input")
    head = lines[0]
    if not (head.isascii() and head.isdigit()):
        raise ParseError(1, 1, f"invalid point count {head!r}")
    n = int(head)
    if n < 1:
        raise ParseError(1, 1, "point count must be at least 1")
    if len(lines) > n:
        raise ParseError(n + 1, 1, "unexpected extra line")
    if len(lines) < n:
        raise ParseError(len(lines) + 1, 1, f"expected {n - 1} distance rows, got {len(lines) - 1}")

    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        line = lines[i]
        lineno = i + 1
        if line != line.rstrip():
            raise ParseError(lineno, len(line.rstrip()) + 1, "trailing whitespace")
        tokens = line.split(" ")
        if tokens != [t for t in tokens if t]:
            raise ParseError(lineno, 1, "empty field (double space?)")
        if len(tokens) != i:
            raise ParseError(lineno, 1, f"expected {i} entries, got {len(tokens)}")
        col = 1
        for j, token in enumerate(tokens):
            if token.startswith("-"):
                raise ParseError(lineno, col, "negative distance")
            try:
                value = as_rational(token)
            except ValueError as exc:
                raise ParseError(lineno, col, str(exc)) from None
            matrix[i][j] = matrix[j][i] = value
            col += len(token) + 1
    return matrix


def parse_distance_matrix(text: str) -> FiniteMetricSpace:
    """Parse and validate a ``.dmat`` document.

    Raises :class:`ParseError` for malformed syntax and
    :class:`MetricViolation` when the parsed matrix is not a metric.
    """
    return FiniteMetricSpace(parse_matrix_text(text))


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
