import random
from fractions import Fraction

import numpy as np
import pytest

import ury.extension as extension_mod
import ury.metric as metric_mod
from ury import (
    BallFamily,
    EmptyFamily,
    EmptySupport,
    ExtensionRequest,
    FiniteMetricSpace,
    Inadmissible,
    PairwiseInfeasible,
    admissible,
    ball_intersection_witness,
    extend_one_point,
    reduce_ball_family,
    validate_metric,
)
from helpers import (
    oracle_extended_matrix,
    oracle_is_metric,
    rand_rational,
    random_feasible_family,
    random_metric_space,
    record_calls,
)

T345 = FiniteMetricSpace.from_lower_triangle([[3], [4, 5]])
PATH = FiniteMetricSpace.from_lower_triangle([[1], [2, 1]])  # d12=1, d13=2, d23=1
TWO = FiniteMetricSpace.from_lower_triangle([[1]])


def test_midpoint_radii_admissible():
    req = ExtensionRequest(TWO, [0, 1], [Fraction(1, 2), Fraction(1, 2)])
    assert admissible(req).ok


def test_upper_side_failure():
    space = FiniteMetricSpace.from_lower_triangle([[3]])
    result = admissible(ExtensionRequest(space, [0, 1], [1, 1]))
    assert (result.ok, result.pair, result.side) == (False, (0, 1), "upper")


def test_lower_side_failure():
    result = admissible(ExtensionRequest(TWO, [0, 1], [3, 1]))
    assert (result.ok, result.pair, result.side) == (False, (0, 1), "lower")


def test_path_space_radii_211():
    # d(1,2)=1, d(1,3)=2, d(2,3)=1 with radii (2,1,1): all pairs two-sided.
    assert admissible(ExtensionRequest(PATH, [0, 1, 2], [2, 1, 1])).ok


def test_extend_singleton_base():
    space = FiniteMetricSpace([[0]])
    ext = extend_one_point(ExtensionRequest(space, [0], [1]))
    assert ext.n == 2 and ext.distance(0, 1) == 1


def test_extend_345_full_support():
    ext = extend_one_point(ExtensionRequest(T345, [0, 1, 2], [1, 2, 3]))
    assert [ext.distance(3, z) for z in range(3)] == [1, 2, 3]
    assert oracle_is_metric(ext.matrix)


def test_extend_path_space():
    ext = extend_one_point(ExtensionRequest(PATH, [0, 1, 2], [2, 1, 1]))
    assert [ext.distance(3, z) for z in range(3)] == [2, 1, 1]
    assert oracle_is_metric(ext.matrix)


def test_extend_partial_support_uses_min_formula():
    ext = extend_one_point(ExtensionRequest(PATH, [0], [Fraction(1, 2)]))
    assert ext.distance(3, 0) == Fraction(1, 2)
    assert ext.distance(3, 1) == Fraction(3, 2)  # 1/2 + d(a1,a2)
    assert ext.distance(3, 2) == Fraction(5, 2)


def test_extend_inadmissible_raises():
    with pytest.raises(Inadmissible) as exc:
        extend_one_point(ExtensionRequest(TWO, [0, 1], [5, 1]))
    assert exc.value.pair == (0, 1) and exc.value.side == "lower"


def test_request_validation():
    with pytest.raises(EmptySupport):
        ExtensionRequest(TWO, [], [])
    with pytest.raises(ValueError):
        ExtensionRequest(TWO, [0, 0], [1, 1])
    with pytest.raises(ValueError):
        ExtensionRequest(TWO, [0], [0])
    with pytest.raises(ValueError):
        ExtensionRequest(TWO, [0, 1], [1])
    with pytest.raises(ValueError):
        ExtensionRequest(TWO, [0, 5], [1, 1])


def test_equivalence_admissible_iff_extended_metric():
    # Full and random partial supports (ball witnesses extend over the
    # surviving centres only).  When admissible, the extension made without
    # re-validation equals the validated space over the same matrix.
    rng = random.Random(17)
    seen = {(ok, full): 0 for ok in (True, False) for full in (True, False)}
    for _ in range(400):
        space = random_metric_space(rng, rng.randint(1, 6))
        full = rng.random() < 0.5
        support = list(space.points()) if full else rng.sample(range(space.n), rng.randint(1, space.n))
        radii = [rand_rational(rng, Fraction(1, 4), Fraction(5, 2)) for _ in support]
        req = ExtensionRequest(space, support, radii)
        ok = admissible(req).ok
        seen[ok, full] += 1
        matrix = oracle_extended_matrix(space, support, radii)
        assert ok == oracle_is_metric(matrix)
        assert ok == validate_metric(matrix).ok
        if ok:
            ext = extend_one_point(req)
            validated = FiniteMetricSpace(matrix)
            assert ext == validated and hash(ext) == hash(validated)
            square = metric_mod.square_rows
            assert square(ext.lower, ext.points()) == square(validated.lower, validated.points())
            assert (ext.scale, ext.matrix) == (validated.scale, validated.matrix)
    assert min(seen.values()) > 30  # both outcomes genuinely exercised, on both kinds of support


def test_extension_and_witness_run_no_triangle_scan(monkeypatch):
    rng = random.Random(41)
    spaces = [random_metric_space(rng, n) for n in (3, 5, 6)]
    families = [random_feasible_family(rng, space, 4) for space in spaces]
    calls = record_calls(monkeypatch, metric_mod, ["_lower_violations", "_triangle_scan"])
    for space, family in zip(spaces, families):
        ext = extend_one_point(ExtensionRequest(space, [0, 1], [space.distance(0, 1)] * 2))
        assert ext.n == space.n + 1
        assert ball_intersection_witness(family).space.n == space.n + 1
    assert calls == []
    FiniteMetricSpace(ext.matrix)  # the validating constructor is seen
    assert calls == ["_lower_violations", "_triangle_scan"]


def test_extend_one_point_puts_the_base_on_scale_once(monkeypatch):
    # Admissibility and the new row share one common scale: radii on the
    # base's scale, off it (a 1/1009 offset), and inadmissible ones alike.
    rng = random.Random(43)
    calls = record_calls(monkeypatch, extension_mod, ["common_scale"])
    for n in (2, 4, 7):
        space = random_metric_space(rng, n)
        d = space.distance(0, 1)
        for radii in ([d, d], [d / 2 + Fraction(1, 1009)] * 2):
            ext = extend_one_point(ExtensionRequest(space, [0, 1], radii))
            assert ext.distance(n, 0) == radii[0]
            assert calls == ["common_scale"]
            calls.clear()
        with pytest.raises(Inadmissible):
            extend_one_point(ExtensionRequest(space, [0, 1], [d / 3, d / 3]))
        assert calls == ["common_scale"]
        calls.clear()


def test_extension_shares_the_base_rows_when_the_scale_stays():
    # Radii on the base's scale add one row and reuse every base row object;
    # radii off it (a 1/1009 offset) put every row on the new scale.
    rng = random.Random(47)
    for n in (2, 3, 6, 9):
        space = random_metric_space(rng, n)
        far = max(space.distance(0, x) for x in space.points())
        for radii, kept in (([far + 1], True), ([far + Fraction(1, 1009)], False)):
            ext = extend_one_point(ExtensionRequest(space, [0], radii))
            assert len(ext.lower) == n + 1 and len(ext.lower[n]) == n
            # Row 0 is the empty tuple, the same object in every space.
            assert all(a is b for a, b in zip(ext.lower[1:], space.lower[1:])) == kept
            assert ext == FiniteMetricSpace(oracle_extended_matrix(space, [0], radii))


def test_midpoints_always_admissible():
    rng = random.Random(23)
    for _ in range(60):
        space = random_metric_space(rng, rng.randint(2, 7))
        for x in space.points():
            for y in range(x + 1, space.n):
                half = space.distance(x, y) / 2
                assert admissible(ExtensionRequest(space, [x, y], [half, half])).ok


# ---------------------------------------------------------------------------
# Ball families
# ---------------------------------------------------------------------------

def test_single_ball_trace():
    family = BallFamily(TWO, [(0, Fraction(1, 2))])
    trace = reduce_ball_family(family)
    assert trace.survivors == (0,) and trace.removals == ()


def test_containing_ball_removed():
    family = BallFamily(PATH, [(0, 4), (1, 1), (2, 1)])
    trace = reduce_ball_family(family)
    assert trace.survivors == (1, 2)
    (removal,) = trace.removals
    assert removal.removed == 0 and removal.dominating == 1
    assert removal.lhs == 4 and removal.rhs == 2
    # Survivors satisfy the two-sided condition.
    assert abs(Fraction(1) - Fraction(1)) <= PATH.distance(1, 2) <= 2


def test_identical_balls_both_survive():
    family = BallFamily(PATH, [(1, 2), (1, 2)])
    trace = reduce_ball_family(family)
    assert trace.survivors == (0, 1) and trace.removals == ()


def test_pairwise_infeasible():
    space = FiniteMetricSpace.from_lower_triangle([[10]])
    family = BallFamily(space, [(0, 1), (1, 2)])
    with pytest.raises(PairwiseInfeasible) as exc:
        reduce_ball_family(family)
    assert exc.value.pair == (0, 1)
    assert exc.value.lhs == 10 and exc.value.rhs == 3


def test_family_validation():
    with pytest.raises(EmptyFamily):
        BallFamily(TWO, [])
    with pytest.raises(ValueError):
        BallFamily(TWO, [(0, 0)])
    with pytest.raises(ValueError):
        BallFamily(TWO, [(7, 1)])


@pytest.mark.parametrize("center", [1.9, 1.0, True, "1", Fraction(1)])
def test_family_rejects_a_center_that_is_not_an_integer(center):
    # int(1.9) would put the ball at point 1; a bool is no index either.
    with pytest.raises(TypeError):
        BallFamily(PATH, [(center, 3)])


@pytest.mark.parametrize("support", [[True, 0], [0, 1.0], [0.5]])
def test_request_rejects_a_support_point_that_is_not_an_integer(support):
    with pytest.raises(TypeError):
        ExtensionRequest(PATH, support, [1] * len(support))


def test_integer_like_indices_are_accepted():
    req = ExtensionRequest(PATH, [np.int64(0)], [1])
    assert req.support == (0,) and type(req.support[0]) is int
    assert BallFamily(PATH, [(np.int64(2), 1)]).balls[0].center == 2


def test_witness_single_ball_on_sphere():
    result = ball_intersection_witness(BallFamily(TWO, [(0, Fraction(3, 4))]))
    assert result.space.distance(result.witness, 0) == Fraction(3, 4)


def test_witness_411_family():
    result = ball_intersection_witness(BallFamily(PATH, [(0, 4), (1, 1), (2, 1)]))
    y = result.witness
    assert result.space.distance(y, 1) == 1
    assert result.space.distance(y, 2) == 1
    assert result.space.distance(y, 0) == 2 <= 4
    entries = {e.ball: e for e in result.certificate}
    assert entries[0].on_sphere is False and entries[0].distance == 2
    assert entries[1].on_sphere and entries[2].on_sphere


def test_witness_midpoint():
    result = ball_intersection_witness(
        BallFamily(TWO, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    )
    assert result.space.distance(result.witness, 0) == Fraction(1, 2)
    assert result.space.distance(result.witness, 1) == Fraction(1, 2)


def test_witness_duplicate_balls():
    result = ball_intersection_witness(BallFamily(PATH, [(1, 2), (1, 2)]))
    assert result.space.distance(result.witness, 1) == 2
    assert all(e.on_sphere for e in result.certificate)


def test_witness_random_families_sphere_exact():
    rng = random.Random(29)
    removed_seen = 0
    for _ in range(150):
        space = random_metric_space(rng, rng.randint(2, 6))
        family = random_feasible_family(rng, space, rng.randint(1, 6))
        result = ball_intersection_witness(family)
        y = result.witness
        survivors = set(result.trace.survivors)
        removed_seen += len(result.trace.removals)
        for k, ball in enumerate(family.balls):
            dist = result.space.distance(y, ball.center)
            if k in survivors:
                assert dist == ball.radius
            else:
                assert dist <= ball.radius
        for removal in result.trace.removals:
            d = space.distance(
                family.balls[removal.removed].center,
                family.balls[removal.dominating].center,
            )
            assert removal.lhs == family.balls[removal.removed].radius
            assert removal.rhs == d + family.balls[removal.dominating].radius
            assert removal.lhs > removal.rhs
    assert removed_seen > 20  # the reduction path is genuinely exercised


def test_witness_deterministic():
    rng = random.Random(31)
    space = random_metric_space(rng, 5)
    family = random_feasible_family(rng, space, 5)
    first = ball_intersection_witness(family)
    second = ball_intersection_witness(family)
    assert first == second
