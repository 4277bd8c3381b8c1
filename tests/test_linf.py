import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ury import (
    Box,
    DimensionMismatch,
    TooLarge,
    box_intersection,
    c0_counterexample,
    max_norm_ball,
    max_norm_distance,
)
from ury.linf import C0_MAX_DIMENSION
from helpers import random_pairwise_family


def test_box_validation():
    with pytest.raises(ValueError):
        Box([])
    with pytest.raises(ValueError):
        Box([(1, 0)])


def test_single_box_intersection():
    box = Box([("0", "2"), ("-1", "1")])
    result = box_intersection([box])
    assert result.box == box
    assert result.witness == (0, -1)


def test_two_box_example():
    a = Box([("0", "2"), ("0", "2")])
    b = Box([("1", "3"), ("-1", "1")])
    result = box_intersection([a, b])
    assert result.box == Box([("1", "2"), ("0", "1")])
    assert result.witness == (1, 0)


def test_basis_balls_meet_in_single_point():
    e1, e2 = (1, 0), (0, 1)
    result = box_intersection([max_norm_ball(e1, "1/2"), max_norm_ball(e2, "1/2")])
    assert result.box.is_single_point()
    assert result.witness == (Fraction(1, 2), Fraction(1, 2))


def test_empty_intersection_reports_coordinate():
    a = Box([("0", "1"), ("0", "1")])
    b = Box([("0", "1"), ("2", "3")])
    result = box_intersection([a, b])
    assert result.box is None and result.witness is None
    assert result.first_empty_coordinate == 1


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        box_intersection([Box([("0", "1")]), Box([("0", "1"), ("0", "1")])])
    with pytest.raises(DimensionMismatch):
        max_norm_distance((0, 0), (0, 0, 0))


def test_helly_property_random_families():
    rng = random.Random(101)
    for _ in range(300):
        dim = rng.randint(1, 5)
        boxes = random_pairwise_family(rng, dim, rng.randint(2, 8))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert box_intersection([boxes[i], boxes[j]]).box is not None
        total = box_intersection(boxes)
        assert total.box is not None
        assert all(b.contains(total.witness) for b in boxes)


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=8),
            st.fractions(min_value=0, max_value=4, max_denominator=8),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_witness_membership_hypothesis(widths):
    boxes = [Box([(lo, lo + width)]) for lo, width in widths]
    result = box_intersection(boxes)
    if result.box is not None:
        assert all(b.contains(result.witness) for b in boxes)
    else:
        k = result.first_empty_coordinate
        assert max(b.intervals[k][0] for b in boxes) > min(b.intervals[k][1] for b in boxes)


# ---------------------------------------------------------------------------
# Null-sequence truncation demo
# ---------------------------------------------------------------------------

def test_c0_n2():
    report = c0_counterexample(2)
    assert report.pairwise_distance == 1
    assert report.pairwise_feasible
    assert report.witness == (Fraction(1, 2), Fraction(1, 2))
    assert report.conclusion == "unique-linf-witness"


def test_c0_n100():
    report = c0_counterexample(100)
    assert report.N == 100
    assert report.pairwise_distance == 1
    assert report.witness == tuple([Fraction(1, 2)] * 100)
    assert report.witness_tail_value == Fraction(1, 2)
    assert report.conclusion == "unique-linf-witness"


def test_c0_single_point_for_every_size():
    for n in (2, 3, 7, 20):
        report = c0_counterexample(n)
        assert report.intersection.is_single_point()
        # The witness keeps sup-norm distance 1/2 from the origin at every
        # truncation size: it cannot head toward the zero sequence.
        origin = tuple([Fraction(0)] * n)
        assert max_norm_distance(report.witness, origin) == Fraction(1, 2)


def test_c0_perturbed_radius_empty():
    report = c0_counterexample(2, Fraction(1, 4))
    assert not report.pairwise_feasible  # 1 > 1/4 + 1/4
    assert report.witness is None
    assert report.conclusion == "none"


def test_c0_large_radius_not_unique():
    report = c0_counterexample(3, Fraction(3, 4))
    assert report.witness is not None
    assert report.conclusion == "none"  # nonempty but not a single point
    assert report.witness == tuple([Fraction(1, 4)] * 3)


def test_c0_requires_two_points():
    with pytest.raises(ValueError):
        c0_counterexample(1)


@pytest.mark.parametrize("n", [2, 7, 20, 100])
def test_c0_pairwise_distance_holds_for_every_pair(n):
    # The report states the distance in closed form; every pair agrees.
    report = c0_counterexample(n)
    basis = [tuple(Fraction(int(k == i)) for k in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            assert max_norm_distance(basis[i], basis[j]) == report.pairwise_distance


def test_c0_dimension_limit():
    with pytest.raises(TooLarge):
        c0_counterexample(C0_MAX_DIMENSION + 1)


@pytest.mark.parametrize("radius", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(2)])
def test_c0_closed_form_matches_the_ball_intersection(radius):
    for n in range(2, 31):
        basis = [[int(k == i) for k in range(n)] for i in range(n)]
        result = box_intersection([max_norm_ball(e, radius) for e in basis])
        report = c0_counterexample(n, radius)
        assert report.N == n
        assert report.intersection == result.box
        assert report.witness == result.witness
        assert report.witness_tail_value == (min(result.witness) if result.witness else None)
        assert report.pairwise_distance == max_norm_distance(basis[0], basis[1])
        assert report.pairwise_feasible == (report.pairwise_distance <= 2 * radius)
        unique = result.box is not None and result.box.is_single_point()
        assert report.conclusion == ("unique-linf-witness" if unique else "none")


@pytest.mark.parametrize("radius", [0, Fraction(-1, 2)])
def test_c0_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        c0_counterexample(3, radius)
