"""Acceptance gate: one test per shipped guarantee, all tolerances exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every assertion is an exact rational comparison; there are no
numeric tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

from ury import (
    ConstructionMode,
    ExtensionRequest,
    FiniteMetricSpace,
    KatetovFunction,
    PathHullCandidate,
    admissible,
    ball_intersection_witness,
    box_intersection,
    build_prefix,
    c0_counterexample,
    cardinality_of_index,
    extremal_below,
    find_isometric_embedding,
    is_extremal,
    kuratowski,
    sup_distance,
    tight_span_vertices,
    tripod_center,
    truncate_prefix,
    validate_metric,
    verify_hull_candidate,
)
from helpers import (
    oracle_embedding,
    oracle_extended_matrix,
    oracle_is_extremal,
    oracle_is_metric,
    rand_rational,
    random_feasible_family,
    random_metric_space,
    random_pairwise_family,
    random_tripod_space,
)


def report(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_labeling_reproduction():
    assert [cardinality_of_index(n) for n in (1, 2, 3)] == [1, 1, 1]
    assert [cardinality_of_index(n) for n in (4, 12, 20)] == [2, 2, 2]
    assert [cardinality_of_index(n) for n in (8, 24, 40)] == [3, 3, 3]
    report("labeling rule: cardinalities for indices {1,2,3}, {4,12,20}, {8,24,40}")


def test_duplicate_multiset_contradiction_trace():
    override = (("2",), ("3",), ("4",), ("1/2", "1/2"))
    legacy = ConstructionMode("legacy-multiset", "labels-only", override)
    state = build_prefix(5, legacy)
    assert state.rho[3][2] == 7
    assert all(state.rho[4][j] == 2 for j in range(4))
    rep = validate_metric(state.rho)
    assert not rep.ok
    assert any(
        v.kind == "triangle" and v.indices == (2, 4, 3) and v.lhs == 7 and v.rhs == 4
        for v in rep.violations
    )
    collapsed = build_prefix(5, ConstructionMode(q_override=override))
    assert validate_metric(collapsed.rho).ok
    report("duplicate trace: multiset reading breaks the triangle (7 > 4); set collapse stays metric")


def test_prefix_metric_validity_and_incrementality(prefix300):
    rep = validate_metric(prefix300.rho)
    assert rep.ok and rep.violations == ()
    for m in range(1, 301):
        # Whole states: at one canonical scale, equal rows are equal metrics.
        assert build_prefix(m) == truncate_prefix(prefix300, m)
    report("prefix validity: 300-point build passes every exact axiom check; incrementality for all m <= 300")


def test_extension_equivalence_1000_random():
    rng = random.Random(201)
    outcomes = {True: 0, False: 0}
    for _ in range(1000):
        space = random_metric_space(rng, rng.randint(1, 6))
        radii = [rand_rational(rng, Fraction(1, 4), Fraction(5, 2)) for _ in space.points()]
        req = ExtensionRequest(space, list(space.points()), radii)
        ok = admissible(req).ok
        outcomes[ok] += 1
        assert ok == oracle_is_metric(oracle_extended_matrix(space, list(space.points()), radii))
    assert min(outcomes.values()) > 100
    report("extension equivalence: admissible <=> extended matrix is a metric, 1000 random instances")


def test_finite_ball_intersection_500_random():
    rng = random.Random(203)
    removed_total = 0
    for _ in range(500):
        space = random_metric_space(rng, rng.randint(2, 6))
        family = random_feasible_family(rng, space, rng.randint(1, 6))
        result = ball_intersection_witness(family)
        survivors = set(result.trace.survivors)
        removed_total += len(result.trace.removals)
        for k, ball in enumerate(family.balls):
            dist = result.space.distance(result.witness, ball.center)
            if k in survivors:
                assert dist == ball.radius
            else:
                assert dist <= ball.radius
    assert removed_total > 50
    report("ball intersection: witness on every survivor sphere, inside every removed ball, 500 families")


def test_midpoint_admissibility_100_spaces():
    rng = random.Random(205)
    for _ in range(100):
        space = random_metric_space(rng, rng.randint(2, 7))
        for x in space.points():
            for y in range(x + 1, space.n):
                half = space.distance(x, y) / 2
                assert admissible(ExtensionRequest(space, [x, y], [half, half])).ok
    report("midpoint admissibility: radii (d/2, d/2) admissible for every pair in 100 random spaces")


def test_kuratowski_isometry_100_spaces():
    rng = random.Random(207)
    for _ in range(100):
        space = random_metric_space(rng, rng.randint(1, 8))
        functions = [kuratowski(space, a) for a in space.points()]
        for a in space.points():
            for b in space.points():
                assert sup_distance(functions[a], functions[b]) == space.distance(a, b)
    report("kuratowski isometry: sup distance of f_a, f_b equals d(a,b) exactly, 100 random spaces")


def test_extremality_oracle_500_candidates():
    rng = random.Random(209)
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        space = random_metric_space(rng, rng.randint(1, 5))
        roll = rng.random()
        if roll < 0.4:
            values = [rand_rational(rng, Fraction(0), Fraction(3)) for _ in space.points()]
        elif roll < 0.7:
            seed = [rand_rational(rng, Fraction(2), Fraction(4)) for _ in space.points()]
            values = list(extremal_below(KatetovFunction(space, seed)).values)
            if rng.random() < 0.5:
                values[rng.randrange(space.n)] += Fraction(1, 5)
        else:
            values = list(kuratowski(space, rng.randrange(space.n)).values)
        f = KatetovFunction(space, values)
        expected = oracle_is_extremal(f)
        outcomes[expected] += 1
        assert is_extremal(f) == expected
    assert min(outcomes.values()) > 100
    report("extremality: pinning test agrees with the pointwise-minimality oracle, 500 candidates")


def test_tight_span_vertices_acceptance():
    two = FiniteMetricSpace.from_lower_triangle([[1]])
    assert [f.values for f in tight_span_vertices(two).vertices] == [(0, 1), (1, 0)]
    rng = random.Random(211)
    for _ in range(200):
        space, legs = random_tripod_space(rng)
        vertices = [f.values for f in tight_span_vertices(space).vertices]
        assert len(vertices) == 4
        assert tripod_center(space).values == tuple(legs)
        assert tuple(legs) in vertices
        for a in range(3):
            assert kuratowski(space, a).values in vertices
    report("tight span: 2-point vertices {(0,1),(1,0)}; 200 random 3-point spaces give 4 vertices with the tripod center")


def test_two_hulls_pass_backtracker_fails():
    a_pair = [("0", "0"), ("0", "1")]
    step = Fraction(1, 64)
    h1 = PathHullCandidate([("0", "0"), ("1", "1")], a_pair)
    h2 = PathHullCandidate([("0", "0"), ("1/2", "1/2"), ("1", "0")], a_pair)
    back = PathHullCandidate([("0", "0"), ("2", "0"), ("0", "0")], a_pair)
    r1, r2, r3 = (verify_hull_candidate(c, step) for c in (h1, h2, back))
    assert r1.ok and r1.endpoint_distance == 1
    assert r2.ok and r2.endpoint_distance == 1
    assert not r3.ok and not r3.isometry_ok
    report("hull candidates: diagonal and bent paths verify at step 1/64; the backtracking path fails")


def test_null_sequence_demo_and_helly():
    rep = c0_counterexample(100)
    assert rep.pairwise_distance == 1
    assert rep.witness == tuple([Fraction(1, 2)] * 100)
    assert rep.conclusion == "unique-linf-witness"

    rng = random.Random(213)
    for _ in range(1000):
        dim = rng.randint(1, 5)
        boxes = random_pairwise_family(rng, dim, rng.randint(2, 8))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert box_intersection([boxes[i], boxes[j]]).box is not None
        total = box_intersection(boxes)
        assert total.box is not None and len(total.witness) == dim
        assert all(lo <= v <= hi for b in boxes for v, (lo, hi) in zip(total.witness, b.intervals))
    report("max-norm demo: truncated basis balls meet only at (1/2,...,1/2); Helly holds on 1000 families")


def test_embedding_search_oracle(prefix200):
    values = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    targets = []
    for d12, d13, d23 in itertools.product(values, repeat=3):
        if d12 <= d13 + d23 and d13 <= d12 + d23 and d23 <= d12 + d13:
            targets.append(
                FiniteMetricSpace([[0, d12, d13], [d12, 0, d23], [d13, d23, 0]])
            )
    assert len(targets) == 52
    statuses = {"found": 0, "not-found-up-to": 0}
    for target in targets:
        result = find_isometric_embedding(target, prefix200)
        expected = oracle_embedding(target, prefix200)
        if expected is None:
            assert result.status == "not-found-up-to"
            assert result.searched_prefix_length == 200
        else:
            assert result.status == "found"
            assert result.mapping == expected
        statuses[result.status] += 1
    assert statuses["found"] > 0 and statuses["not-found-up-to"] > 0
    report("embedding search: backtracker agrees with exhaustive enumeration on all 52 small targets at length 200")
