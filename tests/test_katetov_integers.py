"""The integer Katetov layer against its Fraction oracles.

``extension`` and ``tightspan`` compute in integers over the common scale of
the space and of the radii or function values.  The spaces and data here are
seeded so that the scale changes: radii and values often carry a
denominator of 7, 11 or 13, which divides no scale of ``random_metric_space``
(its denominators have no prime factor above 5).
"""

import inspect
import random
from fractions import Fraction
from math import lcm

import pytest

import ury.extension as extension_mod
import ury.tightspan as tightspan_mod
from ury import (
    BallFamily,
    ExtensionRequest,
    FiniteMetricSpace,
    KatetovFunction,
    NotAdmissible,
    NotAdmissibleOnSubset,
    PairwiseInfeasible,
    PathHullCandidate,
    admissible,
    ball_intersection_witness,
    chebyshev,
    extend_one_point,
    extend_radius_function,
    extremal_below,
    find_isometric_embedding,
    is_admissible_function,
    is_extremal,
    kuratowski,
    parse_distance_matrix,
    reduce_ball_family,
    sup_distance,
    tight_span_vertices,
    tripod_center,
    verify_hull_candidate,
)
from ury.construct import PrefixState
from ury.tightspan import check_vertex_limit
from helpers import (
    oracle_admissible,
    oracle_extend_radius_function,
    oracle_extended_matrix,
    oracle_extremal_below,
    oracle_is_extremal,
    oracle_katetov_failure,
    oracle_reduce_ball_family,
    oracle_tripod_center,
    rand_rational,
    random_metric_space,
)


def off_scale(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in [lo, hi], half the time with a denominator of 7, 11 or
    13 that no ``random_metric_space`` scale is divisible by."""
    if rng.random() < 0.5:
        return rand_rational(rng, lo, hi)
    den = rng.choice((7, 11, 13))
    return Fraction(rng.randint(-(-lo * den // 1), hi * den // 1), den)


def joint_scale(space: FiniteMetricSpace, values) -> int:
    return lcm(space.scale, *(Fraction(v).denominator for v in values))


def test_extend_one_point_matches_the_fraction_oracle():
    rng = random.Random(101)
    seen = {(ok, rescaled): 0 for ok in (True, False) for rescaled in (True, False)}
    for _ in range(400):
        space = random_metric_space(rng, rng.randint(1, 6))
        support = rng.sample(range(space.n), rng.randint(1, space.n))
        draw = off_scale if rng.random() < 0.5 else rand_rational
        radii = [draw(rng, Fraction(1, 4), Fraction(5, 2)) for _ in support]
        req = ExtensionRequest(space, support, radii)
        failure = oracle_admissible(space, support, radii)
        check = admissible(req)
        assert (check.ok, check.pair, check.side) == (
            (True, None, None) if failure is None else (False, *failure)
        )
        matrix = oracle_extended_matrix(space, support, radii)
        rescaled = joint_scale(space, radii) != space.scale
        seen[check.ok, rescaled] += 1
        if check.ok:
            ext = extend_one_point(req)
            expected = FiniteMetricSpace(matrix)
            assert (ext.rows, ext.scale) == (expected.rows, expected.scale)
            assert ext == expected and hash(ext) == hash(expected)
            # Every radius is an entry of the result, so the joint scale is
            # the canonical one.
            assert ext.scale == joint_scale(space, radii)
    assert min(seen.values()) > 30


def test_extension_reduction_scans_to_the_first_row():
    # Only d(0,1) = 1/2 is off the integers, so every row after row 1 is
    # even on scale 2 and the gcd scan of the result runs down to row 1.
    n = 12
    matrix = [[Fraction(0 if i == j else 2) for j in range(n)] for i in range(n)]
    matrix[0][1] = matrix[1][0] = Fraction(1, 2)
    space = FiniteMetricSpace(matrix)
    req = ExtensionRequest(space, [5, 7], [2, 2])
    ext = extend_one_point(req)
    expected = FiniteMetricSpace(oracle_extended_matrix(space, [5, 7], [2, 2]))
    assert (ext.rows, ext.scale) == (expected.rows, expected.scale) and ext.scale == 2


def test_parse_and_computed_functions_are_on_the_canonical_scale():
    space = parse_distance_matrix("3\n2/4\n6/4 4/4\n")
    assert (space.lower, space.scale) == (((), (1,), (3, 2)), 2)
    assert space.rows == ((0, 1, 3), (1, 0, 2), (3, 2, 0))
    assert space == FiniteMetricSpace.from_lower_triangle([["1/2"], ["3/2", 1]])
    # The legs 2/4, 0/4 and 4/4 over twice the space's scale reduce to 2.
    f = tripod_center(space)
    assert (f.ints, f.scale) == ((1, 0, 2), 2)
    assert f == KatetovFunction(space, ["1/2", 0, 1]) and hash(f) == hash(KatetovFunction(space, ["1/2", 0, 1]))


def test_computed_functions_skip_the_validating_constructor(monkeypatch):
    # kuratowski, extremal_below, extend_radius_function, tripod_center and
    # every tight-span vertex come from the trusted constructor; each equals
    # the function the validating one makes of the same values.
    made = []
    init = KatetovFunction.__init__
    monkeypatch.setattr(KatetovFunction, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    rng = random.Random(113)
    for n in (1, 3, 4, 6):
        space = random_metric_space(rng, n)
        g = KatetovFunction(space, [off_scale(rng, Fraction(2), Fraction(4)) for _ in space.points()])
        made.clear()
        results = [kuratowski(space, n - 1), extremal_below(g), *tight_span_vertices(space).vertices]
        results.append(extend_radius_function(space, [0], [off_scale(rng, Fraction(1, 4), Fraction(3))]))
        if n == 3:
            results.append(tripod_center(space))
        assert made == []
        for f in results:
            assert f == KatetovFunction(space, f.values) and f.scale == joint_scale(space, f.values)


def random_family(rng: random.Random, space: FiniteMetricSpace) -> BallFamily:
    """Balls of off-scale radii; some families are infeasible, and giant
    balls (removed by the reduction) carry a denominator of their own."""
    dmax = max((space.distance(i, j) for i in space.points() for j in range(i)), default=Fraction(1))
    k = rng.randint(1, 5)
    radii = [dmax / 2 + off_scale(rng, Fraction(0), dmax) for _ in range(k)]
    if rng.random() < 0.5:
        radii = [off_scale(rng, Fraction(1, 4), dmax) for _ in range(k)]
    if rng.random() < 0.5:
        radii[rng.randrange(k)] = 3 * dmax + Fraction(1, rng.choice((7, 11, 13)))
    return BallFamily(space, [(rng.randrange(space.n), r) for r in radii])


def test_ball_reduction_matches_the_fraction_oracle():
    rng = random.Random(103)
    seen = {"infeasible": 0, "removals": 0, "witness_scale_below_joint": 0}
    for _ in range(400):
        space = random_metric_space(rng, rng.randint(1, 6))
        family = random_family(rng, space)
        expected = oracle_reduce_ball_family(family)
        if expected[0] == "infeasible":
            with pytest.raises(PairwiseInfeasible) as exc:
                reduce_ball_family(family)
            assert ("infeasible", exc.value.pair, exc.value.lhs, exc.value.rhs) == expected
            seen["infeasible"] += 1
            continue
        trace = reduce_ball_family(family)
        assert ("reduced", trace.survivors, tuple(map(tuple, trace.removals))) == expected
        assert all(
            type(r.lhs) is Fraction and type(r.rhs) is Fraction for r in trace.removals
        )
        seen["removals"] += bool(trace.removals)
        result = ball_intersection_witness(family)
        radii = [family.balls[i].radius for i in trace.survivors]
        support = [family.balls[i].center for i in trace.survivors]
        support, radii = zip(*dict(zip(support, radii)).items())
        assert result.space == FiniteMetricSpace(oracle_extended_matrix(space, support, radii))
        seen["witness_scale_below_joint"] += result.space.scale < joint_scale(
            space, [b.radius for b in family.balls]
        )
    assert min(seen.values()) > 30


def test_ball_reduction_matches_the_oracle_on_structured_families():
    # 60 balls: 20 identical ones, a nested chain of 20 (each inside the
    # next, or inside the one before), then 20 at two centres with radii on a
    # coarse grid.  Every radius is at least the largest distance, so every
    # family is feasible; many balls are removed and many radii tie.
    rng = random.Random(211)
    removed = 0
    for trial in range(24):
        space = random_metric_space(rng, rng.randint(1, 5))
        top = max([space.distance(i, j) for i in space.points() for j in range(i)], default=Fraction(1))
        identical = [(rng.randrange(space.n), 2 * top)] * 20
        chain = [(rng.randrange(space.n), 3 * top + k * (top + 1)) for k in range(20)]
        if trial % 2:
            chain.reverse()
        centres = [rng.randrange(space.n) for _ in range(2)]
        duplicates = [(rng.choice(centres), top * rng.randint(1, 6)) for _ in range(20)]
        balls = identical + chain + duplicates
        if trial % 3 == 2:
            rng.shuffle(balls)
        family = BallFamily(space, balls)
        trace = reduce_ball_family(family)
        assert ("reduced", trace.survivors, tuple(map(tuple, trace.removals))) == (
            oracle_reduce_ball_family(family)
        )
        removed += len(trace.removals)
    assert removed >= 24 * 20


def test_tightspan_functions_match_the_fraction_oracles():
    rng = random.Random(107)
    seen = {"admissible": 0, "inadmissible": 0, "extremal": 0, "rescaled": 0}
    for _ in range(400):
        space = random_metric_space(rng, rng.randint(1, 5))
        shape = rng.random()
        if shape < 0.4:
            values = [off_scale(rng, Fraction(0), Fraction(3)) for _ in space.points()]
        else:
            seed = [off_scale(rng, Fraction(2), Fraction(4)) for _ in space.points()]
            values = list(oracle_extremal_below(space, seed))
            if shape < 0.7:
                values[rng.randrange(space.n)] += off_scale(rng, Fraction(0), Fraction(1))
        f = KatetovFunction(space, values)
        failure = oracle_katetov_failure(space.matrix, range(space.n), f.values, two_sided=False)
        assert is_admissible_function(f) == ((True, None) if failure is None else (False, failure[0]))
        assert is_extremal(f) == oracle_is_extremal(f)
        below = oracle_extremal_below(space, f.values)
        if below is None:
            with pytest.raises(NotAdmissible) as exc:
                extremal_below(f)
            assert exc.value.pair == failure[0]
        else:
            assert extremal_below(f).values == below
        seen["inadmissible" if below is None else "admissible"] += 1
        seen["extremal"] += is_extremal(f)
        seen["rescaled"] += joint_scale(space, f.values) != space.scale

        subset = rng.sample(range(space.n), rng.randint(1, space.n))
        r = [off_scale(rng, Fraction(1, 4), Fraction(3)) for _ in subset]
        expected, pair = oracle_extend_radius_function(space, subset, r)
        if pair is not None:
            with pytest.raises(NotAdmissibleOnSubset) as exc:
                extend_radius_function(space, subset, r)
            assert exc.value.pair == pair
        else:
            assert extend_radius_function(space, subset, r).values == expected
        if space.n == 3:
            assert tripod_center(space).values == oracle_tripod_center(space)
    assert min(seen.values()) > 50
    # extremal_below at the sizes and shapes katetov_mix projects: 6 to 8
    # points, half of them shortest-path closures with many tight
    # triangles, from g at or well above each row's maximum.
    for closure in (False, True) * 100:
        space = random_metric_space(rng, rng.randint(6, 8), closure=closure)
        g = [max(row) + off_scale(rng, Fraction(0), Fraction(4)) for row in space.matrix]
        assert extremal_below(KatetovFunction(space, g)).values == oracle_extremal_below(space, g)


def test_library_never_reads_the_fraction_view(monkeypatch, prefix50):
    # Every public function of extension and tightspan, and the embedding
    # search, runs on the integer rows; a read of a Fraction view is counted.
    reads = []
    for cls, name in ((FiniteMetricSpace, "matrix"), (PrefixState, "rho")):
        view = vars(cls)[name].func
        monkeypatch.setattr(cls, name, property(lambda self, _n=name, _v=view: reads.append(_n) or _v(self)))
    rng = random.Random(109)
    space = random_metric_space(rng, 5)
    tripod = FiniteMetricSpace.from_lower_triangle([["3/2"], [2, "5/2"]])
    radii = [off_scale(rng, Fraction(1, 4), Fraction(5, 2)) for _ in range(3)]
    request = ExtensionRequest(space, [0, 2, 4], radii)
    family = BallFamily(space, [(0, 4), (1, Fraction(9, 7)), (2, Fraction(100, 11))])
    f = KatetovFunction(space, [Fraction(k, 7) + 3 for k in range(5)])
    calls = {
        "admissible": lambda: admissible(request),
        "extend_one_point": lambda: extend_one_point(ExtensionRequest(space, [1], [Fraction(1, 7)])),
        "reduce_ball_family": lambda: reduce_ball_family(family),
        "ball_intersection_witness": lambda: ball_intersection_witness(family),
        "is_admissible_function": lambda: is_admissible_function(f),
        "is_extremal": lambda: is_extremal(f),
        "extremal_below": lambda: extremal_below(f),
        "kuratowski": lambda: kuratowski(space, 3),
        "sup_distance": lambda: sup_distance(f, kuratowski(space, 0)),
        "extend_radius_function": lambda: extend_radius_function(space, [1, 3], [2, Fraction(23, 13)]),
        "check_vertex_limit": lambda: check_vertex_limit(space.n),
        "tight_span_vertices": lambda: tight_span_vertices(space),
        "tripod_center": lambda: tripod_center(tripod),
        "chebyshev": lambda: chebyshev((0, 0), (1, 2)),
        "verify_hull_candidate": lambda: verify_hull_candidate(
            PathHullCandidate([(0, 0), (1, 1)], [(0, 0), (0, 1)]), Fraction(1, 4)
        ),
    }
    public = {
        name
        for module in (extension_mod, tightspan_mod)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }
    assert set(calls) == public
    for call in calls.values():
        call()
    find_isometric_embedding(FiniteMetricSpace.from_lower_triangle([[1], [1, 1]]), prefix50)
    with pytest.raises(NotAdmissible):
        extremal_below(KatetovFunction(space, [0] * 5))
    assert reads == []
    assert space.matrix and prefix50.rho and reads == ["matrix", "rho"]  # the counter works
