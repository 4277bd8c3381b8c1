import gc
import random
import sys
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from ury import (
    ConstructionMode,
    FiniteMetricSpace,
    InvalidPartialIsometry,
    PartialIsometry,
    build_prefix,
    dump_prefix_text,
    extend_partial_isometry,
    find_isometric_embedding,
    load_prefix_text,
    truncate_prefix,
)
from ury.embed import _common
from ury.errors import MetricViolation
from helpers import (
    DENOMINATORS,
    oracle_build_prefix,
    oracle_distance_buckets,
    oracle_embedding,
    oracle_first_embedding,
    rand_rational,
    random_metric_space,
)

TWO = FiniteMetricSpace.from_lower_triangle([[1]])


def test_one_point_target_maps_to_first_point(prefix50):
    result = find_isometric_embedding(FiniteMetricSpace([[0]]), prefix50)
    assert result.status == "found" and result.mapping == (0,)


def test_two_point_unit_target(prefix50):
    result = find_isometric_embedding(TWO, truncate_prefix(prefix50, 2))
    assert result.status == "found" and result.mapping == (0, 1)


def test_distance_seven_not_in_three():
    prefix = build_prefix(3)
    target = FiniteMetricSpace.from_lower_triangle([[7]])
    result = find_isometric_embedding(target, prefix)
    assert result.status == "not-found-up-to"
    assert result.mapping is None
    assert result.searched_prefix_length == 3


def test_target_larger_than_prefix():
    result = find_isometric_embedding(random_metric_space(random.Random(1), 5), build_prefix(3))
    assert result.status == "not-found-up-to"


def test_found_mappings_are_sound(prefix200):
    rng = random.Random(103)
    found = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        points = rng.sample(range(prefix200.m), n)
        matrix = [[prefix200.rho[a][b] for b in points] for a in points]
        target = FiniteMetricSpace(matrix)
        result = find_isometric_embedding(target, prefix200)
        assert result.status == "found"  # an isometric copy certainly exists
        found += 1
        m = result.mapping
        assert len(set(m)) == len(m)
        for i in range(n):
            for j in range(n):
                assert target.distance(i, j) == prefix200.rho[m[i]][m[j]]
    assert found == 40


def test_oracle_agreement_random_targets(prefix200):
    rng = random.Random(107)
    prefix60 = truncate_prefix(prefix200, 60)
    statuses = {"found": 0, "not-found-up-to": 0}
    for _ in range(30):
        if rng.random() < 0.5:
            n = rng.randint(1, 4)
            points = rng.sample(range(60), n)
            matrix = [[prefix60.rho[a][b] for b in points] for a in points]
            target = FiniteMetricSpace(matrix)
        else:
            target = random_metric_space(rng, rng.randint(2, 4))
        result = find_isometric_embedding(target, prefix60)
        expected = oracle_embedding(target, prefix60)
        if expected is None:
            assert result.status == "not-found-up-to"
        else:
            assert result.status == "found" and result.mapping == expected
        statuses[result.status] += 1
    assert min(statuses.values()) >= 5


def test_oracle_agreement_four_point_targets_full_length(prefix200):
    rng = random.Random(127)
    for case in range(6):
        if case % 2 == 0:
            points = rng.sample(range(prefix200.m), 4)
            matrix = [[prefix200.rho[a][b] for b in points] for a in points]
            target = FiniteMetricSpace(matrix)
        else:
            target = random_metric_space(rng, 4)
        result = find_isometric_embedding(target, prefix200)
        expected = oracle_embedding(target, prefix200)
        if expected is None:
            assert result.status == "not-found-up-to"
        else:
            assert result.status == "found" and result.mapping == expected


def test_monotonicity_in_prefix_length(prefix200):
    rng = random.Random(109)
    for _ in range(10):
        points = sorted(rng.sample(range(40), 3))
        matrix = [[prefix200.rho[a][b] for b in points] for a in points]
        target = FiniteMetricSpace(matrix)
        base = find_isometric_embedding(target, truncate_prefix(prefix200, 40))
        assert base.status == "found"
        for m in (41, 80, 200):
            again = find_isometric_embedding(target, truncate_prefix(prefix200, m))
            assert again.status == "found"
            assert again.mapping == base.mapping
            assert again.searched_prefix_length == m


# ---------------------------------------------------------------------------
# The per-prefix candidate index
# ---------------------------------------------------------------------------

def subspace(prefix, points):
    return FiniteMetricSpace([[prefix.rho[a][b] for b in points] for a in points])


def test_distance_buckets_list_every_point_in_ascending_order(prefix50):
    prefix = truncate_prefix(prefix50, 50)  # a fresh state, with no entry built yet
    rho, scale = prefix.rho, prefix.scale
    checked = 0
    assert len(prefix.distance_buckets) == 50
    for u, by_value in enumerate(prefix.distance_buckets):
        others = [v for v in range(prefix.m) if v != u]
        assert {d: list(points) for d, points in by_value.items()} == {
            int(rho[u][v] * scale): [w for w in others if rho[u][w] == rho[u][v]] for v in others
        }
        checked += 1
    assert checked == prefix.m == 50


def built_entries(prefix) -> list[int]:
    """The points whose index entry has been built so far."""
    return sorted(prefix.distance_buckets.keys())


def test_a_search_that_stops_early_builds_few_entries(prefix300):
    prefix = truncate_prefix(prefix300, 200)  # a fresh state, with no entry built yet
    target = subspace(prefix, [2, 5, 9])
    result = find_isometric_embedding(target, prefix)
    assert result.status == "found" and result.mapping == oracle_embedding(target, prefix)
    built = built_entries(prefix)
    # Only the points tried as images of target points 0 and 1 are built
    # (five of them here).
    assert set(result.mapping[:2]) <= set(built)
    assert 0 < len(built) < prefix.m // 10 and len(prefix.distance_buckets) == prefix.m
    again = find_isometric_embedding(target, prefix)
    assert again == result and built_entries(prefix) == built


def test_a_failed_search_leaves_the_whole_index(prefix200):
    prefix = truncate_prefix(prefix200, 60)
    target = FiniteMetricSpace.from_lower_triangle([[1], [1, 1]])
    assert oracle_embedding(target, prefix) is None
    assert find_isometric_embedding(target, prefix).status == "not-found-up-to"
    assert built_entries(prefix) == list(range(60))
    oracle = oracle_distance_buckets(oracle_build_prefix(60).rho, prefix.scale)
    index = [prefix.distance_buckets[u] for u in range(60)]
    assert [[(d, tuple(points)) for d, points in entry.items()] for entry in oracle] == [
        list(entry.items()) for entry in index
    ]
    assert all(type(points) is tuple for entry in index for points in entry.values())


def test_an_index_refuses_points_out_of_range(prefix50):
    prefix = truncate_prefix(prefix50, 10)
    for u in (10, 11, -1):
        with pytest.raises(IndexError):
            prefix.distance_buckets[u]
    assert built_entries(prefix) == []


def test_repeated_searches_reuse_one_index(prefix200):
    rng = random.Random(131)
    prefix = truncate_prefix(prefix200, 60)
    twin = build_prefix(60)
    assert twin == prefix and twin is not prefix
    targets = [subspace(prefix, rng.sample(range(60), 3)) for _ in range(6)]
    targets += [random_metric_space(rng, 3) for _ in range(6)]
    expected = [oracle_embedding(target, prefix) for target in targets]
    assert any(e is None for e in expected) and any(e is not None for e in expected)

    def search_all():
        for target, mapping in zip(targets, expected):
            assert find_isometric_embedding(target, prefix).mapping == mapping
            assert find_isometric_embedding(target, twin).mapping == mapping

    search_all()
    index = prefix.distance_buckets
    search_all()
    search_all()
    assert prefix.distance_buckets is index  # built once, then kept
    assert twin.distance_buckets is not index


def test_truncated_prefix_gets_its_own_index(prefix200):
    find_isometric_embedding(TWO, prefix200)
    assert "distance_buckets" in vars(prefix200)
    short = truncate_prefix(prefix200, 60)
    assert "distance_buckets" not in vars(short)
    rng = random.Random(137)
    outcomes = set()
    for _ in range(20):
        target = subspace(prefix200, rng.sample(range(200), 3))
        result = find_isometric_embedding(target, short)
        assert result.mapping is None or max(result.mapping) < 60
        assert result.mapping == oracle_embedding(target, short)
        outcomes.add(result.status)
    assert outcomes == {"found", "not-found-up-to"}
    assert len(short.distance_buckets) == 60


def test_building_or_loading_leaves_the_index_unbuilt(prefix50):
    find_isometric_embedding(TWO, prefix50)
    assert "distance_buckets" not in vars(build_prefix(30))
    assert "distance_buckets" not in vars(build_prefix(60, resume=prefix50))
    assert "distance_buckets" not in vars(load_prefix_text(dump_prefix_text(prefix50)))
    assert "distance_buckets" not in vars(load_prefix_text(dump_prefix_text(prefix50), 20))


def test_index_is_invisible_to_equality_hash_and_repr():
    state, twin = build_prefix(20), build_prefix(20)
    before = (repr(state), hash(state))
    find_isometric_embedding(TWO, state)
    assert state.rho
    assert "distance_buckets" in vars(state) and "rho" in vars(state)
    assert (repr(state), hash(state)) == before
    assert state == twin and repr(state) == repr(twin)


def test_a_search_leaves_no_reference_to_the_index(prefix50):
    # With the cycle collector off, a search that left a reference cycle
    # behind (a recursive closure) would keep one more reference each time.
    prefix = build_prefix(50)
    target = subspace(prefix, [3, 17, 29])
    find_isometric_embedding(target, prefix)
    gc.disable()
    try:
        before = sys.getrefcount(prefix.distance_buckets)
        assert find_isometric_embedding(target, prefix).status == "found"
        assert find_isometric_embedding(TWO, prefix).status == "found"
        after = sys.getrefcount(prefix.distance_buckets)  # not inside an assert, which holds one more
        assert after == before
    finally:
        gc.enable()


def test_a_distance_off_the_prefix_scale_is_not_found(prefix200):
    rng = random.Random(149)
    prefix = truncate_prefix(prefix200, 40)
    for _ in range(10):
        points = rng.sample(range(40), 3)
        matrix = [[prefix.rho[a][b] for b in points] for a in points]
        # A denominator the scale lacks, on a pair that stays in the metric.
        matrix[1][2] = matrix[2][1] = matrix[1][2] + Fraction(1, 7 * prefix.scale)
        target = FiniteMetricSpace(matrix)
        assert prefix.scale % target.distance(1, 2).denominator
        result = find_isometric_embedding(target, prefix)
        assert (result.status, result.mapping, result.searched_prefix_length) == (
            "not-found-up-to", None, 40
        )
        assert oracle_embedding(target, prefix) is None


@pytest.mark.parametrize("m, mode", [
    (200, None),
    (60, ConstructionMode(case1_scope="labels-only")),
    (60, ConstructionMode("legacy-multiset", "labels-only", (("2",), ("3",), ("4",), ("1/2", "1/2")))),
], ids=["cw1", "labels-only", "override"])
def test_every_one_point_bucket_of_a_point_is_one_shared_tuple(prefix300, m, mode):
    # A fresh state: its index has no entry built yet.
    prefix = truncate_prefix(prefix300, m) if mode is None else build_prefix(m, mode)
    index = list(prefix.distance_buckets)  # the whole index
    oracle = oracle_distance_buckets(prefix.rho, prefix.scale)
    assert [[(d, tuple(points)) for d, points in entry.items()] for entry in oracle] == [
        list(entry.items()) for entry in index
    ]
    buckets = [bucket for entry in index for bucket in entry.values()]
    ones: dict[int, tuple[int]] = {}
    for bucket in buckets:
        if len(bucket) == 1:
            assert ones.setdefault(bucket[0], bucket) is bucket
    wide = sum(len(bucket) >= 2 for bucket in buckets)
    assert len(ones) + wide < len(buckets)
    assert len(set(map(id, buckets))) <= m + wide


def test_common_is_the_ascending_intersection_and_keeps_a_lone_bucket():
    rng = random.Random(163)
    shapes = set()
    for _ in range(2000):
        buckets = [tuple(sorted(rng.sample(range(40), rng.choice((0, 1, 1, 2, 5, 12, 30)))))
                   for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.2:
            buckets.append(rng.choice(buckets))  # one object twice, as shared tuples are
        common = _common(buckets)
        assert type(common) is tuple
        assert common == tuple(sorted(set(buckets[0]).intersection(*buckets[1:])))
        if len(buckets) == 1:
            assert common is buckets[0]
        shapes.add((len(buckets) == 1, bool(common), min(map(len, buckets)) == 0))
    # A lone bucket, empty or not; and many, with or without a common point, or one empty.
    assert len(shapes) == 5


# ---------------------------------------------------------------------------
# The look-ahead filter against the reference search
# ---------------------------------------------------------------------------

class _Reads(dict):
    """An index that serves each entry from ``index`` and records the points
    read, which are the entries a search would build on a fresh state."""

    def __init__(self, index):
        super().__init__()
        self.index, self.read = index, set()

    def __missing__(self, u):
        self.read.add(u)
        return self.index[u]


def reference_search(target, prefix):
    """The reference's mapping on ``prefix``, after the checks that
    :func:`find_isometric_embedding` makes first, and the entries it reads."""
    if target.n > prefix.m or prefix.scale % target.scale:
        return None, set()
    factor = prefix.scale // target.scale
    wanted = [[v * factor for v in row] for row in target.lower]
    index = _Reads(prefix.distance_buckets)
    return oracle_first_embedding(wanted, index, prefix.m), index.read


def integer_rows(rows, scale):
    """Fraction rows as ints over ``scale``, for :func:`oracle_embedding` to
    compare: ints compare much faster than Fractions."""
    assert all(scale % d.denominator == 0 for row in rows for d in row)
    return [[d.numerator * (scale // d.denominator) for d in row] for row in rows]


def lookahead_targets(rng, prefix):
    """302 targets drawn from ``prefix`` and around it, by kind.  Most are
    found among the first points: a target that is not found makes the
    search build the whole index, and the oracle scan every pair."""
    rho, m = prefix.rho, prefix.m
    distances = sorted({rho[i][j] for i in range(m) for j in range(i)})
    near = sorted({rho[i][j] for i in range(30) for j in range(i)})
    present = set(distances)
    step = Fraction(1, prefix.scale)
    targets = {kind: [] for kind in ("one", "two", "repeated", "absent", "subspace", "random")}
    targets["one"] = [FiniteMetricSpace([[0]])] * 10
    for k in range(96):
        d = rand_rational(rng, Fraction(1, 4), Fraction(3)) if k % 6 == 0 else rng.choice(near)
        targets["two"].append(FiniteMetricSpace.from_lower_triangle([[d]]))
    while len(targets["repeated"]) < 70:
        if len(targets["repeated"]) % 15:
            # Two points at one distance from a third: a subspace.
            u = rng.randrange(30)
            twins = [v for v in range(60) if v != u and rho[u][v] == rho[u][rng.randrange(60)]]
            if len(twins) >= 2:
                targets["repeated"].append(subspace(prefix, [u, *rng.sample(twins, 2)]))
            continue
        a, b = rng.choice(distances), rng.choice(distances)
        rows = [[a], [a, a]] if rng.random() < 0.5 else [[a], [a, b], [a, b, rng.choice([a, b])]]
        try:
            targets["repeated"].append(FiniteMetricSpace.from_lower_triangle(rows))
        except MetricViolation:
            pass
    while len(targets["absent"]) < 8:
        # A subspace with one distance moved to the nearest value on the
        # prefix's scale that no pair of the prefix has.
        points = rng.sample(range(m), rng.randint(2, 4))
        matrix = [[rho[a][b] for b in points] for a in points]
        i, j = rng.sample(range(len(points)), 2)
        d = matrix[i][j]
        while d in present:
            d += step
        matrix[i][j] = matrix[j][i] = d
        try:
            targets["absent"].append(FiniteMetricSpace(matrix))
        except MetricViolation:
            pass
    for k in range(110):
        points = range(30) if k % 20 < 17 else range(200) if k % 20 < 19 else range(m)
        targets["subspace"].append(subspace(prefix, rng.sample(points, rng.randint(2, 6))))
    for k in range(8):
        targets["random"].append(random_metric_space(rng, 3 + k % 4))
    return targets


def test_lookahead_search_matches_the_reference_and_builds_no_more():
    rng = random.Random(151)
    base = build_prefix(301)  # so that the 300-point states are fresh too
    scale = lcm(base.scale, *DENOMINATORS)
    sizes = (300, 200, 60)
    longest = truncate_prefix(base, sizes[0])
    targets = lookahead_targets(rng, longest)
    assert sum(map(len, targets.values())) >= 300
    rows = integer_rows(longest.rho, scale)
    stand_ins = {m: SimpleNamespace(m=m, rho=[row[:m] for row in rows[:m]]) for m in sizes}
    outcomes, pruned = set(), 0
    for kind, group in targets.items():
        for target in group:
            for m in sizes:
                fresh = truncate_prefix(base, m)
                result = find_isometric_embedding(target, fresh)
                built = built_entries(fresh)
                expected, reference_built = reference_search(target, fresh)
                # The oracle's smallest map into a longer prefix is also the
                # smallest into this one if it lies in it, and if there is
                # none there is none here either.
                if m == sizes[0] or (oracle is not None and max(oracle) >= m):
                    space = SimpleNamespace(n=target.n, matrix=integer_rows(target.matrix, scale))
                    oracle = oracle_embedding(space, stand_ins[m])
                assert result.mapping == expected == oracle, (kind, m)
                assert result.status == ("not-found-up-to" if expected is None else "found")
                assert result.searched_prefix_length == m
                assert set(built) <= reference_built, (kind, m)
                pruned += len(built) < len(reference_built)
                outcomes.add((kind, result.status))
    assert outcomes >= {
        ("one", "found"), ("two", "found"), ("repeated", "found"), ("repeated", "not-found-up-to"),
        ("absent", "not-found-up-to"), ("subspace", "found"), ("subspace", "not-found-up-to"),
        ("random", "found"), ("random", "not-found-up-to"),
    }
    assert pruned > 0


def test_a_distance_above_the_largest_is_refuted_before_any_entry(prefix300):
    prefix = truncate_prefix(prefix300, 120)
    top = prefix.running_max[-1]
    assert top == max(map(max, prefix.rho))
    rng = random.Random(157)
    for _ in range(10):
        points = rng.sample(range(120), 3)
        matrix = [[prefix.rho[a][b] for b in points] for a in points]
        # Shift every distance up by the same amount: still a metric, and
        # the new largest distance is above the prefix's.
        shift = top - max(map(max, matrix)) + Fraction(1, prefix.scale)
        matrix = [[d + shift if d else d for d in row] for row in matrix]
        target = FiniteMetricSpace(matrix)
        fresh = truncate_prefix(prefix300, 120)
        result = find_isometric_embedding(target, fresh)
        assert (result.status, result.mapping, result.searched_prefix_length) == (
            "not-found-up-to", None, 120
        )
        assert built_entries(fresh) == []
        assert oracle_embedding(target, prefix) is None


# ---------------------------------------------------------------------------
# Partial isometries
# ---------------------------------------------------------------------------

def test_empty_partial_isometry_extends_to_first_point(prefix50):
    p = PartialIsometry(prefix50, [])
    extended = extend_partial_isometry(p, 5)
    assert extended is not None
    assert extended.pairs == ((5, 0),)


def test_identity_pairs_extend_identically(prefix50):
    p = PartialIsometry(prefix50, [(0, 0), (1, 1)])
    extended = extend_partial_isometry(p, 2)
    assert extended is not None and extended.pairs[-1] == (2, 2)


def test_extension_agrees_with_exhaustive_scan(prefix50):
    rho = prefix50.rho
    p = PartialIsometry(prefix50, [(0, 1), (1, 0)])  # swap is distance-preserving
    result = extend_partial_isometry(p, 2)
    expected = next(
        (
            t
            for t in range(prefix50.m)
            if t not in (0, 1)
            and rho[2][0] == rho[t][1]
            and rho[2][1] == rho[t][0]
        ),
        None,
    )
    if expected is None:
        assert result is None
    else:
        assert result is not None and result.pairs[-1] == (2, expected)


def test_random_partial_isometries_against_scan(prefix200):
    rng = random.Random(113)
    prefix = truncate_prefix(prefix200, 120)
    rho = prefix.rho
    outcomes = {"found": 0, "none": 0}
    for _ in range(40):
        # Identity pairings restricted to a random subset are always valid.
        sources = rng.sample(range(prefix.m), rng.randint(0, 3))
        pairs = [(s, s) for s in sources]
        new_source = rng.choice([x for x in range(prefix.m) if x not in sources])
        result = extend_partial_isometry(PartialIsometry(prefix, pairs), new_source)
        images = set(sources)
        expected = next(
            (
                t
                for t in range(prefix.m)
                if t not in images
                and all(rho[new_source][s] == rho[t][s] for s in sources)
            ),
            None,
        )
        if expected is None:
            assert result is None
            outcomes["none"] += 1
        else:
            assert result is not None and result.pairs[-1] == (new_source, expected)
            outcomes["found"] += 1
    assert outcomes["found"] > 0


def test_invalid_partial_isometry_rejected(prefix50):
    with pytest.raises(InvalidPartialIsometry):
        PartialIsometry(prefix50, [(0, 0), (0, 1)])  # duplicate source
    with pytest.raises(InvalidPartialIsometry):
        PartialIsometry(prefix50, [(0, 2), (1, 2)])  # duplicate image
    with pytest.raises(InvalidPartialIsometry):
        PartialIsometry(prefix50, [(0, 99)])  # out of range
    with pytest.raises(InvalidPartialIsometry) as exc:
        PartialIsometry(prefix50, [(0, 1), (1, 2)])  # rho(0,1) != rho(1,2)
    assert exc.value.witness == (0, 1)


@pytest.mark.parametrize("pair", [(1.9, 1), (0, True), ("1", 1)])
def test_partial_isometry_rejects_an_index_that_is_not_an_integer(prefix50, pair):
    # int(1.9) would silently pair point 1.
    with pytest.raises(TypeError):
        PartialIsometry(prefix50, [pair])


@pytest.mark.parametrize("source", [True, 1.0, "1"])
def test_extend_rejects_a_source_that_is_not_an_integer(prefix50, source):
    # True and 1.0 would pass the range check as point 1 and then be
    # reported as a mapped source.
    with pytest.raises(TypeError):
        extend_partial_isometry(PartialIsometry(prefix50, [(1, 1)]), source)


def test_extend_rejects_mapped_source(prefix50):
    p = PartialIsometry(prefix50, [(0, 0)])
    with pytest.raises(InvalidPartialIsometry):
        extend_partial_isometry(p, 0)
