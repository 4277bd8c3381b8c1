import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ury.rational import as_rational, format_rational, parse_rational

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


def test_canonical_rendering():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(0)) == "0"


def test_parse_examples():
    assert parse_rational("7") == 7
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-5/3") == Fraction(-5, 3)


@pytest.mark.parametrize("bad", ["0.5", "1e3", "", " 1", "1 ", "1/0", "--1", "1/-2", "a"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_parse_render_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


@given(rationals, rationals)
def test_exact_arithmetic(a, b):
    assert a + b - b == a
    assert (a + b) - (b + a) == 0


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational("3/9") == Fraction(1, 3)
    assert as_rational(Fraction(5, 7)) == Fraction(5, 7)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-string limit")
@pytest.mark.parametrize("template", ["{run}", "1/{run}", "-{run}/3"])
def test_a_run_past_the_int_string_limit_has_the_library_reason(template):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as exc:
        parse_rational(template.format(run="7" * (limit + 1)))
    assert str(exc.value) == f"integer longer than the {limit}-digit limit"
    assert parse_rational(template.format(run="7" * limit)) != 0
