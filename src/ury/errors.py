"""Exception hierarchy for the ury library.

Every library-raised error derives from :class:`UryError` so callers (and
the CLI) can distinguish domain failures from programming mistakes.
"""

from __future__ import annotations

import re
import sys

# A piece of input quoted in an error message is cut to this many characters,
# then "...": a malformed token or line is never echoed back whole.
_QUOTED = 40


def quoted(text: str) -> str:
    """``repr`` of the first 40 characters of ``text``, then ``...`` if any
    were cut: how an error message quotes a piece of its input."""
    return f"{text[:_QUOTED]!r}{'...' if len(text) > _QUOTED else ''}"


class UryError(Exception):
    """Base class of all library-specific errors."""


class NonSquareInput(UryError):
    """A distance-matrix input is not square."""


class ParseError(UryError):
    """A structured text input is malformed.

    Carries a 1-based ``line`` and ``column`` of the offending token plus a
    short ``reason``.
    """

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


def digit_limit() -> str:
    """The reason given for a run of digits that ``int()`` refused: longer
    than the interpreter's int-string limit (``sys.get_int_max_str_digits()``,
    a process-wide setting that is left as it is)."""
    return f"integer longer than the {sys.get_int_max_str_digits()}-digit limit"


def too_many_digits(line: int, text: str) -> ParseError:
    """The error for line ``line``, whose ``text`` holds a run of digits
    that ``int()`` refused (:func:`digit_limit`).  The column is that of the
    first such run."""
    run = re.search(f"[0-9]{{{sys.get_int_max_str_digits() + 1},}}", text)
    return ParseError(line, run.start() + 1, digit_limit())


class MetricViolation(UryError):
    """A matrix fails the metric axioms; carries the validation report."""

    def __init__(self, report):
        kinds = sorted({v.kind for v in report.violations})
        super().__init__(
            f"{len(report.violations)} metric axiom violation(s): {', '.join(kinds)}"
        )
        self.report = report


class PrefixTooShort(UryError):
    """A label refers to more points than the prefix currently has."""


class InvalidMode(UryError):
    """A construction mode combination (or cache/mode pairing) is not allowed."""


class EmptySupport(UryError):
    """A one-point extension request has no support points."""


class Inadmissible(UryError):
    """Extension radii violate the two-sided admissibility inequalities.

    ``pair`` holds the offending pair of support positions (0-based) and
    ``side`` is ``"lower"`` (|a_i - a_j| > d) or ``"upper"`` (d > a_i + a_j).
    """

    def __init__(self, pair: tuple[int, int], side: str):
        super().__init__(f"inadmissible radii at support pair {pair} ({side} bound)")
        self.pair = pair
        self.side = side


class PairwiseInfeasible(UryError):
    """Two balls are too far apart to intersect: d(x_i, x_j) > r_i + r_j."""

    def __init__(self, pair: tuple[int, int], lhs, rhs):
        super().__init__(
            f"balls {pair} cannot meet: center distance {lhs} > radius sum {rhs}"
        )
        self.pair = pair
        self.lhs = lhs
        self.rhs = rhs


class EmptyFamily(UryError):
    """A ball family must contain at least one ball."""


class NotAdmissible(UryError):
    """A function violates d(x,y) <= f(x) + f(y) for some pair."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"function is not admissible at pair {pair}")
        self.pair = pair


class SpaceMismatch(UryError):
    """Two functions do not live on the same underlying metric space."""


class NotAdmissibleOnSubset(UryError):
    """Radius data on a subset violates d(x,y) <= r(x) + r(y)."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"radius function is not admissible at subset pair {pair}")
        self.pair = pair


class TooLarge(UryError):
    """Input exceeds the enforced combinatorial size limit."""


class DegeneratePath(UryError):
    """A polyline candidate is degenerate (short or repeating breakpoints)."""


class DimensionMismatch(UryError):
    """Boxes in one family must share a dimension."""


class InvalidPartialIsometry(UryError):
    """A partial isometry violates its invariants.

    ``reason`` has one ``{}`` per entry of ``indices``: the offending point
    indices or pair positions, 0-based like the library API.  ``witness``
    holds the disagreeing pair positions when there are some.
    """

    def __init__(self, reason: str, *indices: int, witness=None):
        self.reason = reason
        self.indices = indices
        super().__init__(self.message(0))
        self.witness = witness

    def message(self, base: int) -> str:
        """The reason with every index counted from ``base``."""
        return self.reason.format(*(i + base for i in self.indices))
