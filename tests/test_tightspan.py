import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ury import (
    DegeneratePath,
    FiniteMetricSpace,
    KatetovFunction,
    NotAdmissible,
    NotAdmissibleOnSubset,
    PathHullCandidate,
    SpaceMismatch,
    TooLarge,
    extend_radius_function,
    extremal_below,
    is_admissible_function,
    is_extremal,
    kuratowski,
    sup_distance,
    tight_span_vertices,
    tripod_center,
    verify_hull_candidate,
)
from ury.metric import square_rows
from ury.tightspan import IsometryViolation, _odd_cycles, _vertex_search
from helpers import (
    fraction_rank,
    oracle_hull_isometry,
    oracle_is_extremal,
    oracle_tight_span_vertices,
    oracle_vertex_search,
    rand_rational,
    random_metric_space,
    random_tripod_space,
)

T345 = FiniteMetricSpace.from_lower_triangle([[3], [4, 5]])
PATH = FiniteMetricSpace.from_lower_triangle([[1], [2, 1]])
TWO = FiniteMetricSpace.from_lower_triangle([[1]])
ONE = FiniteMetricSpace([[0]])
STEP = Fraction(1, 64)
A_PAIR = [("0", "0"), ("0", "1")]


def test_kuratowski_is_admissible():
    rng = random.Random(41)
    for _ in range(20):
        space = random_metric_space(rng, rng.randint(1, 6))
        for a in space.points():
            ok, _ = is_admissible_function(kuratowski(space, a))
            assert ok


def test_admissible_examples():
    assert is_admissible_function(KatetovFunction(T345, [1, 2, 3])) == (True, None)
    assert is_admissible_function(KatetovFunction(TWO, [0, 0])) == (False, (0, 1))


def test_extremal_examples():
    assert is_extremal(KatetovFunction(TWO, [0, 1]))
    assert is_extremal(KatetovFunction(T345, [1, 2, 3]))
    assert not is_extremal(KatetovFunction(TWO, [1, 1]))
    assert not is_extremal(KatetovFunction(TWO, [0, 0]))  # inadmissible


def test_extremal_oracle_agreement():
    rng = random.Random(43)
    agree = {True: 0, False: 0}
    for _ in range(500):
        space = random_metric_space(rng, rng.randint(1, 5))
        style = rng.random()
        if style < 0.35:
            values = [rand_rational(rng, Fraction(0), Fraction(3)) for _ in space.points()]
        elif style < 0.6:
            values = list(kuratowski(space, rng.randrange(space.n)).values)
            if rng.random() < 0.5 and space.n > 1:
                values[rng.randrange(space.n)] += rand_rational(rng, Fraction(0), Fraction(1))
        else:
            seed = [rand_rational(rng, Fraction(2), Fraction(4)) for _ in space.points()]
            values = list(extremal_below(KatetovFunction(space, seed)).values)
            if rng.random() < 0.4:
                values[rng.randrange(space.n)] += Fraction(1, 3)
        f = KatetovFunction(space, values)
        expected = oracle_is_extremal(f)
        assert is_extremal(f) == expected
        agree[expected] += 1
    assert min(agree.values()) > 100


def test_descent_two_point():
    f = extremal_below(KatetovFunction(TWO, [1, 1]))
    assert f.values == (0, 1)


def test_descent_idempotent_on_extremal():
    g = KatetovFunction(T345, [1, 2, 3])
    assert extremal_below(g).values == g.values


def test_descent_345():
    g = KatetovFunction(T345, [3, 3, 3])
    f = extremal_below(g)
    assert all(a <= b for a, b in zip(f.values, g.values))
    assert is_extremal(f) and oracle_is_extremal(f)


def test_descent_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        extremal_below(KatetovFunction(TWO, [0, Fraction(1, 2)]))


def test_descent_outputs_extremal_and_lipschitz():
    rng = random.Random(47)
    for _ in range(120):
        space = random_metric_space(rng, rng.randint(1, 5))
        base = max(space.matrix[i][j] for i in space.points() for j in space.points())
        g = KatetovFunction(
            space, [base + rand_rational(rng, Fraction(0), Fraction(2)) for _ in space.points()]
        )
        f = extremal_below(g)
        assert all(fv <= gv for fv, gv in zip(f.values, g.values))
        assert oracle_is_extremal(f)
        assert extremal_below(f).values == f.values
        for x in space.points():
            for y in space.points():
                assert abs(f.values[x] - f.values[y]) <= space.distance(x, y)


def test_kuratowski_values():
    assert kuratowski(T345, 0).values == (0, 3, 4)
    assert kuratowski(TWO, 0).values == (0, 1)
    rng = random.Random(53)
    for _ in range(30):
        space = random_metric_space(rng, rng.randint(1, 8))
        for a in space.points():
            f = kuratowski(space, a)
            assert f.values[a] == 0
            assert is_extremal(f)


@pytest.mark.parametrize("a", [-1, 3, 9])
def test_kuratowski_rejects_an_index_off_the_space(a):
    # A negative index would silently pick a row from the end.
    with pytest.raises(ValueError):
        kuratowski(T345, a)


@pytest.mark.parametrize("a", [True, 1.0, "1"])
def test_kuratowski_rejects_an_index_that_is_not_an_integer(a):
    # True would silently pick row 1.
    with pytest.raises(TypeError):
        kuratowski(T345, a)


def test_kuratowski_isometry():
    rng = random.Random(59)
    for _ in range(60):
        space = random_metric_space(rng, rng.randint(1, 8))
        for a in space.points():
            for b in space.points():
                assert sup_distance(kuratowski(space, a), kuratowski(space, b)) == space.distance(a, b)


def test_sup_distance_examples():
    f = KatetovFunction(TWO, [0, 1])
    g = KatetovFunction(TWO, [1, 0])
    assert sup_distance(f, f) == 0
    assert sup_distance(f, g) == 1


def test_sup_distance_space_mismatch():
    with pytest.raises(SpaceMismatch):
        sup_distance(KatetovFunction(TWO, [0, 1]), KatetovFunction(T345, [0, 3, 4]))


# ---------------------------------------------------------------------------
# Radius extension
# ---------------------------------------------------------------------------

def test_extend_radius_full_subset_is_identity():
    r = [Fraction(2), Fraction(3), Fraction(4)]
    f = extend_radius_function(T345, [0, 1, 2], r)
    assert list(f.values) == r


def test_extend_radius_path_space():
    f = extend_radius_function(PATH, [0, 2], [1, 1])
    assert f.values == (1, 2, 1)


def test_extend_radius_single_point_is_shifted_kuratowski():
    f = extend_radius_function(T345, [0], [1])
    expected = [1 + v for v in kuratowski(T345, 0).values]
    expected[0] = Fraction(1)
    assert list(f.values) == expected


def test_extend_radius_rejects_inadmissible_subset():
    with pytest.raises(NotAdmissibleOnSubset) as exc:
        extend_radius_function(PATH, [0, 2], [Fraction(1, 2), Fraction(1, 2)])
    assert exc.value.pair == (0, 1)


@pytest.mark.parametrize("subset", [[True], [0, 2.0], [Fraction(0)]])
def test_extend_radius_function_rejects_an_index_that_is_not_an_integer(subset):
    with pytest.raises(TypeError):
        extend_radius_function(PATH, subset, [1] * len(subset))


def test_extend_radius_is_admissible_everywhere():
    rng = random.Random(61)
    for _ in range(80):
        space = random_metric_space(rng, rng.randint(2, 7))
        k = rng.randint(1, space.n)
        subset = rng.sample(range(space.n), k)
        dmax = max(space.matrix[i][j] for i in space.points() for j in space.points())
        r = [dmax / 2 + rand_rational(rng, Fraction(0), Fraction(1)) for _ in subset]
        f = extend_radius_function(space, subset, r)
        ok, _ = is_admissible_function(f)
        assert ok
        for a, rv in zip(subset, r):
            assert f.values[a] == rv


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------

def test_vertices_one_point():
    result = tight_span_vertices(ONE)
    assert [f.values for f in result.vertices] == [(0,)]


def test_vertices_two_point():
    result = tight_span_vertices(TWO)
    assert [f.values for f in result.vertices] == [(0, 1), (1, 0)]


def test_vertices_345():
    result = tight_span_vertices(T345)
    assert [f.values for f in result.vertices] == [
        (0, 3, 4),
        (1, 2, 3),
        (3, 0, 5),
        (4, 5, 0),
    ]


def test_vertices_random_tripods():
    rng = random.Random(67)
    for _ in range(80):
        space, legs = random_tripod_space(rng)
        result = tight_span_vertices(space)
        values = [f.values for f in result.vertices]
        assert len(values) == 4
        assert tuple(legs) in values
        assert tripod_center(space).values == tuple(legs)
        for a in range(3):
            assert kuratowski(space, a).values in values


def test_degenerate_tripod_center_merges_with_leaf():
    result = tight_span_vertices(PATH)
    values = [f.values for f in result.vertices]
    assert len(values) == 3  # center (1,0,1) equals the middle Kuratowski leaf
    assert tripod_center(PATH).values == (1, 0, 1)
    assert (1, 0, 1) in values


def test_vertices_properties_four_to_six_points():
    rng = random.Random(71)
    for n in (4, 5, 6):
        space = random_metric_space(rng, n)
        result = tight_span_vertices(space)
        values = [f.values for f in result.vertices]
        assert values == sorted(set(values))
        for f in result.vertices:
            assert is_extremal(f) and oracle_is_extremal(f)
            for x in space.points():
                for y in space.points():
                    assert abs(f.values[x] - f.values[y]) <= space.distance(x, y)
        for a in space.points():
            assert kuratowski(space, a).values in values


def _vertex_values(space):
    return [f.values for f in tight_span_vertices(space).vertices]


def test_vertices_match_oracle_up_to_four_points():
    rng = random.Random(79)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            space = random_metric_space(rng, n)
            assert _vertex_values(space) == oracle_tight_span_vertices(space)


@pytest.mark.parametrize("closure", [False, True], ids=["strict", "closure"])
def test_vertices_match_oracle_five_points(closure):
    rng = random.Random(f"five:{closure}")
    for _ in range(5):
        space = random_metric_space(rng, 5, closure)
        assert _vertex_values(space) == oracle_tight_span_vertices(space)


def test_vertices_match_oracle_six_points():
    space = random_metric_space(random.Random(83), 6, closure=True)
    assert _vertex_values(space) == oracle_tight_span_vertices(space)


def _equilateral(n):
    return FiniteMetricSpace([[0 if i == j else 1 for j in range(n)] for i in range(n)])


def _line(positions):
    return FiniteMetricSpace([[abs(p - q) for q in positions] for p in positions])


def _path(n):
    # Points of a line at 0, 1, 3, 6, ...: gaps 1, 2, 3, ...
    return _line([k * (k + 1) // 2 for k in range(n)])


def _generic(rng, n):
    # Every distance from [11, 20], so every triangle is strict.
    return FiniteMetricSpace.from_lower_triangle(
        [[rng.randint(11, 20) for _ in range(i)] for i in range(1, n)]
    )


def _star(legs):
    # Point 0 is the center; leaves i, j sit legs[i] + legs[j] apart.
    n = len(legs) + 1
    reach = [0] + list(legs)
    return FiniteMetricSpace(
        [[0 if i == j else reach[i] + reach[j] for j in range(n)] for i in range(n)]
    )


# Spaces where many constraint sets give the same vertex.
DEGENERATE_SPACES = {
    "equilateral3": _equilateral(3),
    "equilateral4": _equilateral(4),
    "equilateral5": _equilateral(5),
    "equilateral6": _equilateral(6),
    "path5": _line([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(7, 2), Fraction(9, 2)]),
    "star5": _star([Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(1)]),
}


@pytest.mark.parametrize("name", list(DEGENERATE_SPACES))
def test_vertices_match_oracle_on_degenerate_spaces(name):
    space = DEGENERATE_SPACES[name]
    assert _vertex_values(space) == oracle_tight_span_vertices(space)


@pytest.mark.slow
def test_vertices_match_oracle_six_point_sweep():
    rng = random.Random(89)
    for k in range(20):
        space = random_metric_space(rng, 6, closure=k % 2 == 1)
        assert _vertex_values(space) == oracle_tight_span_vertices(space)


# A generic 6-point space: every triangle is strict.
GENERIC6 = FiniteMetricSpace.from_lower_triangle([
    [Fraction(17, 3)],
    [8, Fraction(22, 3)],
    [Fraction(23, 3), Fraction(28, 3), 8],
    [Fraction(23, 3), Fraction(16, 3), Fraction(23, 3), Fraction(26, 3)],
    [Fraction(17, 3), Fraction(26, 3), 5, Fraction(20, 3), 9],
])


def test_vertex_search_keeps_each_state_once():
    # The output cannot show a lost deduplication, so count the states the
    # growth keeps: 160, where the constraint-set search visited 573 sets.
    w = list(square_rows(GENERIC6.lower, GENERIC6.points(), 2).values())
    found, states = _vertex_search(w)
    assert len(found) == 28
    assert all(tuple(row) in found for row in w)  # the Kuratowski functions
    assert states == 160


def test_vertex_search_seeds_the_kuratowski_vertices():
    # On a line every triangle is tight and every vertex is a Kuratowski
    # function, so the 7-point path grows no state, where the constraint-set
    # search visited 4412 sets.  Every pair is tight at the centre of the
    # equilateral space, where it visited 88 412 sets; the growth keeps one
    # state per set of at least 3 points, 99 at n = 7.
    for space, vertices, count in ((_path(7), 7, 0), (_equilateral(7), 8, 99)):
        w = list(square_rows(space.lower, space.points(), 2).values())
        found, states = _vertex_search(w)
        assert len(found) == vertices
        assert all(tuple(row) in found for row in w)
        assert states == count


def test_odd_cycle_table_lists_each_cycle_once():
    # Each entry: the cycle, its mask, its edges and then its chords read
    # from the flattened matrix, and the chords, the pairs of positions not
    # adjacent on it.
    for n, size in enumerate((0, 0, 1, 4, 22, 92, 647), start=1):
        table = _odd_cycles(n)
        assert len(table) == size == len({frozenset(map(frozenset, _edges(c))) for c, *_ in table})
        flat = [(a, b) for a in range(n) for b in range(n)]
        for cycle, mask, weights, chords in table:
            k = len(cycle)
            assert k % 2 == 1 and len(set(cycle)) == k and mask == sum(1 << a for a in cycle)
            assert chords == [
                (i, j) for i, j in combinations(range(k), 2) if (j - i) % k not in (1, k - 1)
            ]
            assert weights(flat) == (*_edges(cycle), *((cycle[i], cycle[j]) for i, j in chords))


def _edges(cycle):
    return list(zip(cycle, cycle[1:] + cycle[:1]))


def _search_corpus(group):
    rng = random.Random(f"search:{group}")
    if group.startswith("random"):
        n = int(group.removeprefix("random"))
        return [random_metric_space(rng, n, closure=k % 2 == 1) for k in range(30)]
    if group == "degenerate":
        return list(DEGENERATE_SPACES.values())
    if group == "equilateral_and_path":
        return [space for n in range(3, 8) for space in (_equilateral(n), _path(n))]
    return [_generic(rng, 7) for _ in range(2)]


@pytest.mark.parametrize(
    "group", ["random3", "random4", "random5", "random6", "degenerate", "equilateral_and_path", "generic7"]
)
def test_vertex_search_matches_reference_search(group):
    # The growth from odd cycles and the constraint-set search share no step.
    for space in _search_corpus(group):
        w = list(square_rows(space.lower, space.points(), 2).values())
        assert _vertex_search(w)[0] == oracle_vertex_search(w)[0]


def _clusters(sizes):
    # Groups of points 10 apart inside a group and 6 apart across groups.
    group = [k for k, size in enumerate(sizes) for _ in range(size)]
    return FiniteMetricSpace([[0 if i == j else 10 if g == h else 6 for j, h in enumerate(group)]
                              for i, g in enumerate(group)])


def test_two_component_vertices_match_the_brute_force():
    # The all-5 vertex is tight on two triangles and on no pair across them,
    # so it is reached only by starting a second cycle.
    space = _clusters([3, 3])
    values = _vertex_values(space)
    assert values == oracle_tight_span_vertices(space)
    assert (5,) * 6 in values


def test_two_component_vertices_match_the_reference_search():
    space = _clusters([3, 4])
    w = list(square_rows(space.lower, space.points(), 2).values())
    found, _ = _vertex_search(w)
    assert found == oracle_vertex_search(w)[0]
    assert (10,) * 7 in found  # the all-5 vertex on the scale 2


@st.composite
def _small_closures(draw):
    # Shortest-path closures of small integer weights, so many ties.
    n = draw(st.integers(3, 7))
    d = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(st.integers(1, 4))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_small_closures())
def test_vertex_search_matches_reference_search_on_small_closures(d):
    w = [[2 * x for x in row] for row in d]
    assert _vertex_search(w)[0] == oracle_vertex_search(w)[0]


@pytest.mark.parametrize("group", ["random3", "random4", "random5", "degenerate"])
def test_vertices_with_a_zero_coordinate_are_the_kuratowski_functions(group):
    # What the search rests on, checked on the brute-force vertices: it takes
    # the Kuratowski functions as given, and keeps every coordinate of the
    # others at least 1 on the scale 2 * space.scale, where each is an integer.
    for space in _search_corpus(group):
        vertices = oracle_tight_span_vertices(space)
        zero = sorted(f for f in vertices if 0 in f)
        assert zero == sorted(kuratowski(space, a).values for a in space.points())
        assert all((2 * space.scale * v).denominator == 1 for f in vertices for v in f)


SEVEN = {
    "generic": _generic(random.Random(101), 7),
    "closure": random_metric_space(random.Random(103), 7, closure=True),
    "equilateral": _equilateral(7),
    "path": _path(7),
}


@pytest.mark.parametrize("name", list(SEVEN))
def test_vertices_properties_seven_points(name):
    space = SEVEN[name]
    n, d = space.n, space.matrix
    values = _vertex_values(space)
    assert values == sorted(set(values))
    for f in values:
        assert min(f) >= 0
        assert all(f[x] + f[y] >= d[x][y] for x, y in combinations(range(n), 2))
        # A vertex is the unique solution of its tight constraints.
        tight = [[int(i == x) for i in range(n)] for x in range(n) if f[x] == 0]
        tight += [
            [int(i in (x, y)) for i in range(n)]
            for x, y in combinations(range(n), 2) if f[x] + f[y] == d[x][y]
        ]
        assert fraction_rank(tight) == n
    for a in space.points():
        assert kuratowski(space, a).values in values
    if name == "equilateral":
        assert len(values) == 8 and (Fraction(1, 2),) * 7 in values
    if name == "path":
        assert len(values) == 7


def test_vertices_leave_no_reference_cycle():
    # With the cycle collector off, a search that left a reference cycle
    # behind (a recursive closure) leaves objects only gc.collect() finds.
    gc.collect()
    gc.disable()
    try:
        tight_span_vertices(T345)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_vertices_too_large():
    rng = random.Random(73)
    with pytest.raises(TooLarge):
        tight_span_vertices(random_metric_space(rng, 8))


# ---------------------------------------------------------------------------
# Hull candidates
# ---------------------------------------------------------------------------

def test_hull_h1_passes():
    candidate = PathHullCandidate([("0", "0"), ("1", "1")], A_PAIR)
    report = verify_hull_candidate(candidate, STEP)
    assert report.ok and report.endpoint_ok and report.isometry_ok
    assert report.endpoint_distance == 1  # the length, as the path is a segment
    assert report.sample_count == 65


def test_hull_h2_passes():
    candidate = PathHullCandidate([("0", "0"), ("1/2", "1/2"), ("1", "0")], A_PAIR)
    report = verify_hull_candidate(candidate, STEP)
    assert report.ok


def test_hull_straight_segment_passes():
    candidate = PathHullCandidate([("0", "0"), ("0", "1")], A_PAIR)
    assert verify_hull_candidate(candidate, STEP).ok


def test_hull_backtracking_fails_isometry():
    candidate = PathHullCandidate([("0", "0"), ("2", "0"), ("0", "0")], A_PAIR)
    report = verify_hull_candidate(candidate, STEP)
    assert not report.ok
    assert not report.isometry_ok
    v = report.first_violation
    assert v is not None and v.actual != v.expected


def test_hull_endpoint_mismatch():
    candidate = PathHullCandidate([("0", "0"), ("1/2", "1/2")], A_PAIR)
    report = verify_hull_candidate(candidate, STEP)
    assert report.isometry_ok and not report.endpoint_ok and not report.ok
    assert report.endpoint_distance == Fraction(1, 2)
    assert report.reference_distance == 1


def test_hull_diagonal_corner_is_a_geodesic():
    # Bends at slope <= 45 degrees stay geodesic under the max norm: this
    # corner path is yet another valid hull of a distance-2 pair.
    candidate = PathHullCandidate([("0", "0"), ("1", "1"), ("0", "2")], [("0", "0"), ("0", "2")])
    assert verify_hull_candidate(candidate, STEP).ok


def test_hull_axis_aligned_corner_fails_isometry():
    # An axis-aligned L-path is not a max-norm geodesic: its endpoints sit
    # at distance 1 while the arclength parameters differ by 2.
    candidate = PathHullCandidate([("0", "0"), ("1", "0"), ("1", "1")], A_PAIR)
    report = verify_hull_candidate(candidate, STEP)
    assert report.endpoint_ok
    assert not report.isometry_ok and not report.ok


def test_hull_degenerate_paths():
    with pytest.raises(DegeneratePath):
        verify_hull_candidate(PathHullCandidate([("0", "0")], A_PAIR), STEP)
    with pytest.raises(DegeneratePath):
        verify_hull_candidate(
            PathHullCandidate([("0", "0"), ("0", "0"), ("1", "1")], A_PAIR), STEP
        )


def test_hull_step_must_divide_one():
    candidate = PathHullCandidate([("0", "0"), ("1", "1")], A_PAIR)
    with pytest.raises(ValueError):
        verify_hull_candidate(candidate, Fraction(2, 3))
    with pytest.raises(ValueError):
        verify_hull_candidate(candidate, Fraction(0))


def test_hull_first_violation_needs_no_samples():
    # 4 * 2^64 + 1 samples: the first violation, just past the turn at 2,
    # comes from the breakpoints alone, without visiting the samples.
    candidate = PathHullCandidate([("0", "0"), ("2", "0"), ("0", "0")], A_PAIR)
    step = Fraction(1, 2**64)
    report = verify_hull_candidate(candidate, step)
    assert report.sample_count == 4 * 2**64 + 1
    past = Fraction(2**65 + 1, 2**64)
    assert report.first_violation == IsometryViolation(Fraction(0), past, past, Fraction(2**65 - 1, 2**64))


def _random_polyline(rng: random.Random):
    def q(lo, hi):
        return rand_rational(rng, Fraction(lo), Fraction(hi))

    shape = rng.randrange(4)
    if shape == 0:
        # Backtracking: out along one axis, then partly or fully back.
        a = (q(0, 1), q(0, 1))
        b = (a[0] + q("1/4", 2), a[1])
        back = q("1/4", b[0] - a[0])
        return [a, b, (b[0] - back, b[1] + q(0, back))]
    if shape == 1:
        # Axis-aligned L-path (never a geodesic), sometimes with a diagonal tail.
        b = (q("1/4", 2), Fraction(0))
        c = (b[0], rng.choice((1, -1)) * q("1/4", 2))
        bps = [(Fraction(0), Fraction(0)), b, c]
        if rng.random() < 0.5:
            dx = q("1/4", 1)
            bps.append((c[0] + dx, c[1] + dx))
        return bps
    if shape == 2:
        # Geodesic: x advances by dx on every segment and |dy| <= dx.
        bps = [(Fraction(0), Fraction(0))]
        for _ in range(rng.randint(1, 4)):
            x, y = bps[-1]
            dx = q("1/4", 1)
            bps.append((x + dx, y + rng.choice((1, -1)) * q(0, dx)))
        return bps
    # General polylines: a mix of geodesic and non-geodesic ones.
    bps = [(Fraction(0), Fraction(0))]
    size = rng.randint(2, 5)
    while len(bps) < size:
        x, y = bps[-1]
        p = (x + q(-1, 2), y + q(-1, 2))
        if p != bps[-1]:
            bps.append(p)
    return bps


def test_hull_scan_matches_pairwise_oracle():
    rng = random.Random(2024)
    failures_seen = 0
    for _ in range(300):
        bps = _random_polyline(rng)
        step = Fraction(1, rng.choice((1, 2, 3, 4, 5, 8, 12)))
        report = verify_hull_candidate(PathHullCandidate(bps, A_PAIR), step)
        ok, violation, count = oracle_hull_isometry(bps, step)
        assert report.isometry_ok == ok
        assert report.sample_count == count
        if violation is None:
            assert report.first_violation is None
        else:
            failures_seen += 1
            v = report.first_violation
            assert (v.param_a, v.param_b, v.expected, v.actual) == violation
    assert 100 < failures_seen < 250
