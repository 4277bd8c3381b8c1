import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ury.metric as metric_mod
from ury import (
    BallFamily,
    ExtensionRequest,
    FiniteMetricSpace,
    KatetovFunction,
    MetricViolation,
    NonSquareInput,
    NotAdmissibleOnSubset,
    PairwiseInfeasible,
    ParseError,
    admissible,
    extend_radius_function,
    is_admissible_function,
    is_correctly_defined,
    parse_distance_matrix,
    serialize_distance_matrix,
    serialize_matrix,
    reduce_ball_family,
    validate_metric,
    ValidationReport,
)
from helpers import (
    oracle_is_metric,
    oracle_violations,
    oracle_katetov_failure,
    oracle_katetov_row,
    oracle_parse_matrix,
    prefix_stand_in,
    record_calls,
    rand_rational,
    random_metric_space,
)

T345 = "3\n3\n4 5\n"


def test_one_point_matrix_ok():
    report = validate_metric([[0]])
    assert report.ok and report.violations == ()


def test_345_triangle_ok():
    report = validate_metric([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    assert report.ok


def test_113_triangle_violation():
    report = validate_metric([[0, 1, 1], [1, 0, 3], [1, 3, 0]])
    assert not report.ok
    assert len(report.violations) == 1
    v = report.violations[0]
    # 1-based witness (2,1,3): d(2,3) = 3 > d(2,1) + d(1,3) = 2
    assert (v.kind, v.indices, v.lhs, v.rhs) == ("triangle", (1, 0, 2), 3, 2)


def test_violation_kinds_localized():
    base = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    asym = [row[:] for row in base]
    asym[0][1] = Fraction(2)
    report = validate_metric(asym)
    assert [v.kind for v in report.violations] == ["symmetry"]
    assert report.violations[0].indices == (0, 1)

    diag = [row[:] for row in base]
    diag[2][2] = Fraction(1)
    report = validate_metric(diag)
    assert [v.kind for v in report.violations] == ["diagonal"]

    zero = [row[:] for row in base]
    zero[0][1] = zero[1][0] = Fraction(0)
    report = validate_metric(zero)
    assert [v.kind for v in report.violations] == ["positivity"]
    assert report.violations[0].indices == (0, 1)


def test_fuzz_single_entry_perturbation_localizes():
    rng = random.Random(7)
    for _ in range(80):
        space = random_metric_space(rng, rng.randint(3, 6))
        rows = [list(r) for r in space.matrix]
        n = len(rows)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        j = j if j < i else j + 1
        kind = rng.choice(["symmetry", "positivity", "triangle"])
        if kind == "symmetry":
            rows[i][j] += Fraction(1, 7)
        elif kind == "positivity":
            rows[i][j] = rows[j][i] = Fraction(0)
        else:
            bound = max(
                rows[i][k] + rows[k][j] for k in range(n) if k != i and k != j
            )
            rows[i][j] = rows[j][i] = bound + Fraction(1, 7)
        report = validate_metric(rows)
        assert not report.ok
        assert {v.kind for v in report.violations} == {kind}
        assert all(set((i, j)) <= set(v.indices) for v in report.violations)


def test_validate_agrees_with_plain_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(0, 4), rng.choice([1, 2, 3])) for _ in range(n)]
            for _ in range(n)
        ]
        for i in range(n):
            rows[i][i] = Fraction(0) if rng.random() < 0.9 else rows[i][i]
            for j in range(i):
                if rng.random() < 0.9:
                    rows[i][j] = rows[j][i]
        assert validate_metric(rows).ok == oracle_is_metric(rows)


def test_non_square_inputs():
    with pytest.raises(NonSquareInput):
        validate_metric([[0, 1], [1, 0], [2, 2]])
    with pytest.raises(NonSquareInput):
        validate_metric([[0, 1], [1]])
    with pytest.raises(NonSquareInput):
        validate_metric([])


def _stretched_lower(rng: random.Random, n: int) -> tuple[list[list[Fraction]], list[list[int]], int]:
    # A seeded n-point space with a few pairs stretched (most break some
    # triangles), as a Fraction matrix and as its integer lower triangle.
    rows = [list(r) for r in random_metric_space(rng, n).matrix]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] * rng.choice([2, 3, 50]) / rng.choice([1, 2, 7])
    lower, scale, _ = metric_mod._square_input(rows)
    return rows, list(map(list, lower)), scale


def test_shifted_scan_matches_oracle(monkeypatch):
    # Seeded spaces with a few stretched pairs, so most break triangles in
    # several places (some at once through one pair).  Each is validated by
    # the Python loop these sizes take, then by the numpy scan at its
    # natural shift and with the int64 bound lowered to 2, 4 and 8 bits,
    # which shifts the entries and makes the filter flag tight and near-tight
    # triangles that the exact recheck must drop.  Every report, also that
    # of the lower-triangle validator verify runs, must equal the plain
    # Fraction oracle's, violation for violation.
    rng = random.Random(3)
    broken = shifted = 0
    for _ in range(240):
        rows, lower, scale = _stretched_lower(rng, rng.randint(3, 12))
        expected = oracle_violations(rows)
        oracle = ValidationReport(not expected, expected)
        assert metric_mod.validate_metric(rows) == oracle
        assert metric_mod.validate_lower_triangle(lower, scale) == oracle
        for limit in (metric_mod._INT64_LIMIT, 2**2, 2**4, 2**8):
            with monkeypatch.context() as patch:
                patch.setattr(metric_mod, "_NUMPY_MIN_N", 3)
                patch.setattr(metric_mod, "_INT64_LIMIT", limit)
                assert metric_mod.validate_metric(rows) == oracle
                assert metric_mod.validate_lower_triangle(lower, scale) == oracle
        assert oracle.ok == oracle_is_metric(rows)
        broken += not oracle.ok
        shifted += max(map(max, lower[1:])) >= 2**8
    assert 100 < broken < 240
    assert shifted > 150  # most spaces are shifted even at the 8-bit bound


@pytest.mark.parametrize("bits", [62, 63, 64, 65, 80, 127, 200, 300])
def test_shifted_scan_floor_rule(monkeypatch, bits):
    # d(0,2) = a against d(0,1) + d(1,2) = b + c with a = b + c - 1, b + c and
    # b + c + 1, the largest entry about ``bits`` bits long.  From 63 bits on
    # the numpy scan shifts the entries: the filter must flag every real
    # violation (a = b + c + 1, even when the floors of b and c lose a carry)
    # and the exact recheck must drop the tight and strict triangles it also
    # flags.  A fourth point at distance b + c from all three keeps every
    # other triangle strict.  The Python loop these 4 points take, and the
    # numpy scan, must both be exact.
    rng = random.Random(bits)
    thresholds = (metric_mod._NUMPY_MIN_N, 4)
    for _ in range(40):
        b = rng.getrandbits(bits - 1) | 1 << (bits - 2)
        c = rng.getrandbits(bits - 1) | 1 << (bits - 2)
        for delta in (-1, 0, 1):
            a = b + c + delta
            far = b + c
            rows = [[0, b, a, far], [b, 0, c, far], [a, c, 0, far], [far, far, far, 0]]
            lower = [row[:i] for i, row in enumerate(rows)]
            expected = oracle_violations(rows)
            for numpy_min_n in thresholds:
                monkeypatch.setattr(metric_mod, "_NUMPY_MIN_N", numpy_min_n)
                assert metric_mod._triangle_scan(lower) == ([(0, 2, 1)] if delta > 0 else [])
                assert validate_metric(rows) == ValidationReport(not expected, expected)


@pytest.mark.parametrize("top,expected", [(10, []), (11, [(0, 1, 2)])], ids=["2min", "2min+1"])
def test_triangle_scan_at_twice_the_smallest_entry(monkeypatch, top, expected):
    # With every entry in [5, 10] no triangle can break, and the scan ends
    # before the prefilter; one unit above, d(0,1) = 11 > d(0,2) + d(2,1)
    # must still be found: by the Python loop these 5 points take, and by
    # the numpy scan once the threshold is below 5.
    calls = record_calls(monkeypatch, metric_mod, ["_candidates"])
    rows = [[0, top, 5, 7, 9], [top, 0, 5, 8, 6], [5, 5, 0, 10, 7], [7, 8, 10, 0, 5], [9, 6, 7, 5, 0]]
    lower = [row[:i] for i, row in enumerate(rows)]
    assert metric_mod._triangle_scan(lower) == expected
    assert calls == []
    monkeypatch.setattr(metric_mod, "_NUMPY_MIN_N", 4)
    assert metric_mod._triangle_scan(lower) == expected
    assert calls == ([] if top == 10 else ["_candidates"])
    assert validate_metric(rows) == ValidationReport(not expected, oracle_violations(rows))


@pytest.mark.parametrize("tile", [4, 8])
@pytest.mark.parametrize("extra", [-1, 0, 1, "2t+1"])
def test_triangle_scan_on_sizes_around_the_tile(monkeypatch, tile, extra):
    # Tile size minus one, the tile size, one more, and two tiles plus one,
    # so that violations cross tile boundaries in both directions.  The
    # threshold is below every size, so that the numpy scan runs.
    n = 2 * tile + 1 if extra == "2t+1" else tile + extra
    rng = random.Random(tile * 100 + n)
    limits = (metric_mod._INT64_LIMIT, 2**4)
    monkeypatch.setattr(metric_mod, "_TILE", tile)
    monkeypatch.setattr(metric_mod, "_NUMPY_MIN_N", 2)
    broken = 0
    for _ in range(30):
        rows, lower, scale = _stretched_lower(rng, n)
        expected = oracle_violations(rows)
        broken += bool(expected)
        for limit in limits:
            monkeypatch.setattr(metric_mod, "_INT64_LIMIT", limit)
            assert metric_mod.validate_lower_triangle(lower, scale).violations == expected
            assert validate_metric(rows).violations == expected
    assert broken > 5


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_scan_on_both_sides_of_the_numpy_threshold(monkeypatch, offset):
    # Spaces of _NUMPY_MIN_N - 1, _NUMPY_MIN_N and _NUMPY_MIN_N + 1 points:
    # shortest-path closures, and seeded spaces with a few stretched pairs,
    # most of which break triangles.  Each is validated at the default
    # threshold, which takes the Python loop below _NUMPY_MIN_N points and
    # the numpy scan from there, and with the threshold moved to send it
    # down the other path.  Both must give the oracle's report.
    n = metric_mod._NUMPY_MIN_N + offset
    below = offset < 0
    paths = [
        (metric_mod._NUMPY_MIN_N, "_small_scan" if below else "_candidates"),
        (n if below else n + 1, "_candidates" if below else "_small_scan"),
    ]
    rng = random.Random(50 + n)
    cases = [[list(r) for r in random_metric_space(rng, n, closure=True).matrix] for _ in range(6)]
    cases += [_stretched_lower(rng, n)[0] for _ in range(12)]
    calls = record_calls(monkeypatch, metric_mod, ["_small_scan", "_candidates"])
    broken = spread = 0
    for rows in cases:
        lower, scale, _ = metric_mod._square_input(rows)
        expected = oracle_violations(rows)
        broken += bool(expected)
        scanned = max(map(max, lower[1:])) > 2 * min(map(min, lower[1:]))
        spread += scanned
        for threshold, name in paths:
            monkeypatch.setattr(metric_mod, "_NUMPY_MIN_N", threshold)
            calls.clear()
            assert metric_mod.validate_lower_triangle(lower, scale).violations == expected
            assert validate_metric(rows).violations == expected
            assert calls == [name] * 2 * scanned
    assert broken > 5 and spread > 8


def _brute_candidates(lower):
    # The nearest-neighbour distances and the candidate pairs (a, b), a < b,
    # by their definitions, one pair at a time.
    n = len(lower)

    def at(i, j):
        return lower[max(i, j)][min(i, j)]

    m = [min(at(x, y) for y in range(n) if y != x) for x in range(n)]
    return m, {(a, b) for b in range(n) for a in range(b) if at(a, b) > m[a] + m[b]}


def _star(radii, bumps=()):
    # Leaves 0..k-1 at the given distances from the centre k, and d(i, j) =
    # r_i + r_j between leaves: every leaf pair sits exactly on m_i + m_j.
    # Each bump (i, j, delta) moves d(i, j) by delta.
    k = len(radii)
    lower = [[radii[i] + radii[j] for j in range(i)] for i in range(k)] + [list(radii)]
    for i, j, delta in bumps:
        lower[max(i, j)][min(i, j)] += delta
    return lower


def _path(n, scale=1):
    return [[(i - j) * scale for j in range(i)] for i in range(n)]


def _assert_scan_matches_oracle(lower, monkeypatch):
    # At the default threshold, then by the numpy scan at both shifts.
    rows = [metric_mod.symmetric_row(lower, x) for x in range(len(lower))]
    expected = oracle_violations(rows)
    assert metric_mod.validate_lower_triangle(lower, 1).violations == expected
    with monkeypatch.context() as patch:
        patch.setattr(metric_mod, "_NUMPY_MIN_N", 2)
        for limit in (metric_mod._INT64_LIMIT, 2**4):
            patch.setattr(metric_mod, "_INT64_LIMIT", limit)
            assert metric_mod.validate_lower_triangle(lower, 1).violations == expected
    return expected


def test_candidates_match_their_definition():
    rng = random.Random(13)
    for _ in range(60):
        _, lower, _ = _stretched_lower(rng, rng.randint(2, 14))
        m, candidate = metric_mod._candidates(lower)
        brute_m, pairs = _brute_candidates(lower)
        assert m.tolist() == brute_m
        assert {(a, b) for b, a in np.argwhere(candidate).tolist()} == pairs


def test_every_violation_lies_on_a_candidate_pair():
    rng = random.Random(14)
    broken = 0
    for _ in range(60):
        rows, lower, _ = _stretched_lower(rng, rng.randint(3, 14))
        _, pairs = _brute_candidates(lower)
        violations = oracle_violations(rows)
        broken += bool(violations)
        assert {(v.indices[0], v.indices[2]) for v in violations} <= pairs
    assert broken > 20


@pytest.mark.parametrize("scale", [1, 2**80], ids=["unscaled", "scaled-2^80"])
def test_scan_at_the_candidate_bound(monkeypatch, scale):
    # Stars whose leaf pairs sit exactly on d(a,b) = m_a + m_b (no candidate,
    # every triangle through the centre tight), with pairs moved one unit
    # above the bound (a violation through the centre only) or below it, at
    # both shifts and with tiles of 4.  Equal radii that are multiples of
    # 2^s put a bumped pair's shifted distance exactly on 2 m_mid of the
    # centre, so the mid filter must keep its floor rule.
    monkeypatch.setattr(metric_mod, "_TILE", 4)
    rng = random.Random(scale.bit_length())
    broken = 0
    for _ in range(40):
        k = rng.randint(2, 13)
        radii = [rng.choice([1, 2, 3, 7]) * scale for _ in range(k)]
        if rng.random() < 0.3:
            radii = [2**10 * scale] * k
        bumps = [(*rng.sample(range(k), 2), rng.choice([1, -1])) for _ in range(rng.randint(0, 3))]
        lower = _star(radii, bumps)
        _, pairs = _brute_candidates(lower)
        assert pairs <= {(min(i, j), max(i, j)) for i, j, delta in bumps if delta > 0}
        expected = _assert_scan_matches_oracle(lower, monkeypatch)
        broken += bool(expected)
        assert {v.indices[1] for v in expected} <= {k}
    assert broken > 10


@pytest.mark.parametrize(
    "lower,candidates,stretch,mids",
    [
        # The path prunes only the pairs at distance 1 and 2; the equilateral
        # space and the star have no candidate pair, every one on the bound.
        # Each stretch (b, a, delta) moves one pair just past its triangles:
        # through every point between the ends of the path, every other
        # point of the equilateral space, or the centre of the star.
        pytest.param(_path(30), 29 * 30 // 2 - 29 - 28, (29, 0, 1), range(1, 29), id="path"),
        pytest.param(
            _path(30, 2**80), 29 * 30 // 2 - 29 - 28, (29, 0, 1), range(1, 29), id="path-2^80"
        ),
        pytest.param([[5] * i for i in range(17)], 0, (16, 0, 6), range(1, 16), id="equilateral"),
        pytest.param(_star([1, 2, 3, 5, 8, 13, 21, 34, 55, 89]), 0, (1, 0, 1), [10], id="star"),
    ],
)
def test_scan_on_spaces_the_prefilter_cannot_prune(monkeypatch, lower, candidates, stretch, mids):
    monkeypatch.setattr(metric_mod, "_TILE", 4)
    assert int(metric_mod._candidates(lower)[1].sum()) == candidates
    assert _assert_scan_matches_oracle(lower, monkeypatch) == ()
    b, a, delta = stretch
    lower = [list(row) for row in lower]
    lower[b][a] += delta
    found = _assert_scan_matches_oracle(lower, monkeypatch)
    assert [v.indices for v in found] == [(a, mid, b) for mid in mids]


def test_few_pairs_of_a_prefix_are_candidates(prefix300):
    n = prefix300.m
    lower = list(map(prefix300.row, range(n)))
    _, candidate = metric_mod._candidates(lower)
    assert 0 < candidate.sum() < 0.01 * n * (n - 1) / 2
    assert metric_mod._triangle_scan(lower) == []


def test_small_spaces_through_the_library_do_not_load_numpy():
    # Seeded 3- to 8-point shortest-path closures, nearly all with a largest
    # distance above twice the smallest, validated and taken through the
    # Katetov functions, a one-point extension, a ball witness and (up to 6
    # points) the tight span, in a child that has not loaded numpy.
    child = """
import random, sys
from helpers import random_metric_space
from ury import (BallFamily, ExtensionRequest, FiniteMetricSpace, KatetovFunction,
                 ball_intersection_witness, extend_one_point, extremal_below, is_extremal,
                 kuratowski, tight_span_vertices)

rng = random.Random(23)
spread = 0
for n in [*range(3, 9)] * 4:
    space = FiniteMetricSpace(random_metric_space(rng, n, closure=True).matrix)
    spread += max(map(max, space.lower[1:])) > 2 * min(map(min, space.lower[1:]))
    g = KatetovFunction(space, [v + 1 for v in kuratowski(space, n - 1).values])
    assert is_extremal(extremal_below(g))
    assert extend_one_point(ExtensionRequest(space, range(n), g.values)).n == n + 1
    assert ball_intersection_witness(BallFamily(space, enumerate(g.values))).witness == n
    if n <= 6:
        assert tight_span_vertices(space).vertices
print(spread, "numpy" in sys.modules)
"""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    result = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                            check=True)
    spread, loaded = result.stdout.split()
    assert int(spread) > 20 and loaded == "False"


def test_negative_distance_is_a_positivity_violation():
    rows = [[0, -1, 2], [-1, 0, 2], [2, 2, 0]]
    report = validate_metric(rows)
    assert report.violations == oracle_violations(rows)
    assert [(v.kind, v.indices, v.lhs) for v in report.violations] == [("positivity", (0, 1), -1)]


def test_positivity_witnesses_come_in_pair_order():
    # Zeros at (1, 2) and (0, 3): the lower triangle meets (2, 1) first, but
    # the witnesses are ordered by pair, as on the square matrix.
    rows = [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
    expected = oracle_violations(rows)
    assert [v.indices for v in expected] == [(0, 3), (1, 2)]
    assert validate_metric(rows).violations == expected
    lower = [row[:i] for i, row in enumerate(rows)]
    assert metric_mod.validate_lower_triangle(lower, 1).violations == expected


@pytest.mark.parametrize(
    "rows,kinds",
    [
        # A diagonal and a symmetry failure are reported together and hide
        # the zero distance and the triangle.
        ([[0, 0, 5], [2, 0, 1], [5, 1, Fraction(1, 3)]], ["diagonal", "symmetry"]),
        # The zero distance hides the triangle.
        ([[0, 0, 5], [0, 0, 1], [5, 1, 0]], ["positivity"]),
        ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], ["triangle"]),
    ],
)
def test_staged_reports_match_the_oracle(rows, kinds):
    report = validate_metric(rows)
    assert report.violations == oracle_violations(rows)
    assert [v.kind for v in report.violations] == kinds


def test_space_over_a_prefix_matrix_has_the_prefix_rows_and_scale(prefix50):
    space = FiniteMetricSpace(prefix50.rho)
    assert space.scale == prefix50.scale
    assert space.matrix == prefix50.rho


def test_space_equality_and_hash_follow_the_metric():
    halves = FiniteMetricSpace([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    same = FiniteMetricSpace.from_lower_triangle([["2/4"]])
    assert (halves.rows, halves.scale) == (((0, 1), (1, 0)), 2)
    assert halves == same and hash(halves) == hash(same)
    assert halves != FiniteMetricSpace([[0, 1], [1, 0]])
    assert halves.distance(1, 0) == halves.distance(0, 1) == Fraction(1, 2)
    for pair in ((2, 2), (0, 2), (-1, 0)):
        with pytest.raises(IndexError):
            halves.distance(*pair)


# ---------------------------------------------------------------------------
# .dmat parsing and serialization
# ---------------------------------------------------------------------------

def test_parse_one_point():
    assert parse_distance_matrix("1\n").n == 1


def test_parse_345():
    space = parse_distance_matrix(T345)
    assert space.distance(0, 1) == 3
    assert space.distance(0, 2) == 4
    assert space.distance(1, 2) == 5


def test_serialize_345_canonical():
    space = FiniteMetricSpace.from_lower_triangle([[3], [4, 5]])
    assert serialize_distance_matrix(space) == T345


def test_serialize_one_point():
    assert serialize_distance_matrix(FiniteMetricSpace([[0]])) == "1\n"


def test_serialize_fraction():
    space = FiniteMetricSpace.from_lower_triangle([["1/2"]])
    assert serialize_distance_matrix(space) == "2\n1/2\n"


def test_negative_distance_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_distance_matrix("2\n-1\n")
    assert exc.value.reason == "negative distance"
    assert (exc.value.line, exc.value.column) == (2, 1)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("0\n", 1),
        ("x\n", 1),
        ("\u00b2\n1\n", 1),
        ("2\n", 2),
        ("2\n1 2\n", 2),
        ("2\n1\nextra\n", 3),
        ("2\n1 \n", 2),
        ("3\n1\n1  1\n", 3),
        ("2\n1/0\n", 2),
        ("2\n0.5\n", 2),
    ],
)
def test_parse_errors(text, line):
    with pytest.raises(ParseError) as exc:
        parse_distance_matrix(text)
    assert exc.value.line == line


def test_zero_offdiagonal_is_metric_violation_not_parse_error():
    with pytest.raises(MetricViolation) as exc:
        parse_distance_matrix("2\n0\n")
    assert exc.value.report.violations[0].kind == "positivity"


def test_roundtrip_on_random_spaces():
    rng = random.Random(5)
    for _ in range(40):
        space = random_metric_space(rng, rng.randint(1, 7))
        text = serialize_distance_matrix(space)
        assert parse_distance_matrix(text) == space
        assert serialize_distance_matrix(parse_distance_matrix(text)) == text
        # The integer renderer against the independent Fraction one.
        assert text == serialize_matrix(space.matrix)


def test_parse_normalizes_then_serializes_canonically():
    assert serialize_distance_matrix(parse_distance_matrix("2\n2/4\n")) == "2\n1/2\n"


def test_missing_final_newline_tolerated():
    assert parse_distance_matrix("2\n1") == parse_distance_matrix("2\n1\n")


def _spelled(rng: random.Random, value: Fraction, slash: bool = False) -> str:
    # value as a valid but often non-canonical .dmat token: 2/4, 007, 0/3, ...
    # With slash, always p/q, and q sometimes with leading zeros: 1/01.
    k = rng.choice((1, 1, 2, 3, 10))
    num = str(value.numerator * k).zfill(rng.choice((0, 0, 2, 3)))
    den = value.denominator * k
    if slash:
        return f"{num}/{str(den).zfill(rng.choice((0, 0, 2)))}"
    return num if den == 1 and rng.random() < 0.5 else f"{num}/{den}"


def test_integer_parse_matches_the_fraction_oracle():
    rng = random.Random(1010)
    texts = ["1\n", "2\n2/4\n", "2\n007\n", "2\n0\n", "2\n0/3\n", "3\n0/3\n0 0/5\n", "2\r\n1/2\r\n"]
    for _ in range(150):
        n = rng.randint(1, 9)
        values = [[rand_rational(rng, Fraction(0), Fraction(3)) for _ in range(i)] for i in range(n)]
        texts.append(f"{n}\n" + "".join(" ".join(_spelled(rng, v) for v in row) + "\n" for row in values[1:]))
    for text in texts:
        oracle = oracle_parse_matrix(text)
        assert metric_mod.reduced(*metric_mod.parse_lower_triangle(text)) == (
            metric_mod._square_input(oracle)[:2]
        ), text
        assert metric_mod.parse_matrix_text(text) == oracle


def test_lower_triangle_parse_holds_the_values_written():
    # Each entry over the lcm of the denominators written, not reduced.
    assert metric_mod.parse_lower_triangle("3\n2/4\n1 3/2\n") == ([[], [2], [4, 6]], 4)
    rng = random.Random(1011)
    for _ in range(60):
        n = rng.randint(1, 9)
        values = [[rand_rational(rng, Fraction(0), Fraction(3)) for _ in range(i)] for i in range(n)]
        text = f"{n}\n" + "".join(" ".join(_spelled(rng, v) for v in row) + "\n" for row in values[1:])
        lower, scale = metric_mod.parse_lower_triangle(text)
        assert [[Fraction(v, scale) for v in row] for row in lower] == values


def test_parsed_space_keeps_its_lower_triangle_and_builds_no_square(monkeypatch):
    # A .dmat space runs the positivity and triangle stages on the parsed
    # triangle, reduced to its canonical scale, and no stage or view that
    # needs a square matrix.
    rng = random.Random(1013)
    for n in (1, 2, 5, 12):
        space = random_metric_space(rng, n, closure=n > 2)
        # The canonical text, and every entry over twice the scale.
        doubled = f"{n}\n" + "".join(
            " ".join(f"{2 * v}/{2 * space.scale}" for v in row) + "\n" for row in space.lower[1:]
        )
        names = ["parse_lower_triangle", "reduced", "_lower_violations", "_square_input",
                 "symmetric_row", "square_rows", "fraction_rows"]
        for source in (serialize_distance_matrix(space), doubled):
            calls = record_calls(monkeypatch, metric_mod, names)
            parsed = parse_distance_matrix(source)
            assert calls == ["parse_lower_triangle", "reduced", "_lower_violations"]
            assert parsed == space and parsed.scale == space.scale
            assert [len(row) for row in parsed.lower] == list(range(n))
            assert all(type(row) is tuple for row in parsed.lower)
            monkeypatch.undo()


@pytest.mark.parametrize(
    "text,lines",
    [
        ("", []),
        ("\n", [""]),
        ("2\n1", ["2", "1"]),
        ("2\n1\n", ["2", "1"]),
        ("2\r\n1\r\n", ["2", "1"]),
        ("2\n1\r", ["2", "1"]),
        ("2\r\r\n1\n\n", ["2\r", "1", ""]),
        ("\r\n\r", ["", ""]),
        ("3\x1c1\x1c2 3", ["3\x1c1\x1c2 3"]),
        ("3\u20281\u2028\x852\x0b3\x0c\n", ["3\u20281\u2028\x852\x0b3\x0c"]),
    ],
)
def test_dmat_lines_break_on_lf_only(text, lines):
    assert list(metric_mod._split_lines(text)) == lines


@pytest.mark.parametrize("text", ["3\x1c1\x1c2 3", "3\u20281\u20282 3\n", "2\n1\x1d", "2\r1\r"])
def test_other_line_breaks_are_parse_errors(text):
    with pytest.raises(ParseError):
        metric_mod.parse_lower_triangle(text)
    with pytest.raises(ParseError):
        parse_distance_matrix(text)


MALFORMED = [
    "", "\n", "x\n", "0\n", "+3\n", "\u00b2\n1\n", " 2\n1\n",
    "2\n1\nextra\n", "3\n1\n", "4\n1\n1 1\n", "2\n",
    "2\n1 \n", "3\n1\n1 1\t\n", "3\n1\n1  1\n", "2\n 1\n", "3\n1\n\n",
    "2\n1 2\n", "3\n1\n1/2\n", "3\n1\n1/0\n", "3\n1\n1 1 1\n",
    "2\n-1\n", "3\n1\n1 -x\n", "2\n1.5\n", "2\n1e3\n", "2\n1/0\n", "3\n1\n2 1/00\n",
    "2\n1/\n", "2\n/2\n", "2\n1//2\n", "2\n1/2/3\n", "2\n\u0661\n", "3\n1\n1 1/\u0661\n",
    "2\n+1\n", "2\n1_0\n", "2\n\t1\n", "3\n1/0\n1 x\n", "3\n1\n1/0 x\n",
    # rows that repeat one entry
    "3\n1\n1/0 1/0\n", "3\n1\n1/ 1/\n", "3\n1\nx x\n", "3\n1\n-1 -1\n", "3\n1\n1/00 1/00\n",
    "3\n1\n2/3 2/3 2/3\n", "4\n1\n1 1\n1 1\n", "3\n1\n\u0661 \u0661\n", "2\n0/0\n",
    # rows whose every entry holds a slash
    "3\n1\n1/2 1/0\n", "3\n1\n1/2 3/4/5\n", "3\n1\n1//2 3/4\n", "3\n1\n1/2 /4\n",
    "3\n1\n1/2 1/3 1/4\n", "3\n1\n1/2 3/\u0661\n", "3\n1\n1/2/3 4\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_integer_parse_errors_match_the_fraction_oracle(text):
    with pytest.raises(ParseError) as expected:
        oracle_parse_matrix(text)
    with pytest.raises(ParseError) as got:
        parse_distance_matrix(text)
    assert (got.value.line, got.value.column, got.value.reason) == (
        expected.value.line, expected.value.column, expected.value.reason
    )


# Entries that are no .dmat entry, each refused with its own reason.
BAD_ENTRIES = ["1/0", "0/00", "1/", "/2", "x", "-1", "1//2", "1/2/3", "\u0661", "1.5", "+1"]


def test_parse_matches_the_oracle_on_repeated_all_slash_and_mixed_rows():
    # Random rows of three shapes, each parsed on its own path; every second
    # text has one fault: a bad entry, a whole row of them, or an entry too
    # many or too few.
    rng = random.Random(1012)
    for trial in range(400):
        n = rng.randint(2, 10)
        rows = []
        for i in range(1, n):
            shape = rng.choice(("repeated", "all-slash", "mixed"))
            values = [rand_rational(rng, Fraction(0), Fraction(3)) for _ in range(i)]
            if shape == "repeated":
                rows.append([_spelled(rng, values[0], rng.random() < 0.5)] * i)
            else:
                rows.append([_spelled(rng, v, shape == "all-slash") for v in values])
        if trial % 2:
            row, bad = rng.choice(rows), rng.choice(BAD_ENTRIES)
            fault = rng.choice(("entry", "row", "extra", "missing"))
            if fault == "entry":
                row[rng.randrange(len(row))] = bad
            elif fault == "row":
                row[:] = [bad] * len(row)
            elif fault == "extra":
                row.append(row[-1])
            else:
                row.pop()
        text = f"{n}\n" + "".join(" ".join(row) + "\n" for row in rows)
        try:
            oracle = oracle_parse_matrix(text)
        except ParseError as expected:
            with pytest.raises(ParseError) as got:
                metric_mod.parse_lower_triangle(text)
            assert (got.value.line, got.value.column, got.value.reason) == (
                expected.line, expected.column, expected.reason
            ), text
            continue
        lower, scale = metric_mod.parse_lower_triangle(text)
        assert [[Fraction(v, scale) for v in row] for row in lower] == [
            row[:i] for i, row in enumerate(oracle)
        ], text


@pytest.mark.parametrize(
    "text,bad",
    [
        ("x" * 41 + "\n", "x" * 41),
        ("2\n" + "1" * 60 + "x\n", "1" * 60 + "x"),
        ("3\n1\n1 1/" + "0" * 60 + "\n", "1/" + "0" * 60),
        ("2\n" + "9" * 39 + "x\n", "9" * 39 + "x"),
    ],
)
def test_long_bad_input_is_quoted_to_a_bounded_prefix(text, bad):
    # A bad header or token is quoted up to 40 characters, then "...".
    with pytest.raises(ParseError) as expected:
        oracle_parse_matrix(text)
    with pytest.raises(ParseError) as got:
        parse_distance_matrix(text)
    assert got.value.reason == expected.value.reason
    cut = "..." if len(bad) > 40 else ""
    assert got.value.reason.endswith(f"{bad[:40]!r}{cut}")


# Python refuses to turn more digits than this into an int (0: no limit).
INT_DIGITS = sys.get_int_max_str_digits()
LONG = "7" * (INT_DIGITS + 1)


@pytest.mark.skipif(INT_DIGITS == 0, reason="the interpreter has no int-string limit")
@pytest.mark.parametrize(
    "text,line,column",
    [
        (LONG + "\n", 1, 1),  # the point count
        ("3\n1\n2 " + LONG + "\n", 3, 3),  # a numerator
        ("3\n1\n2/" + LONG + " 3\n", 3, 3),  # a denominator
        ("3\n1/" + LONG + "\n2 3\n", 2, 3),  # a denominator, first read
        ("3\n1\n" + LONG + " " + LONG + "\n", 3, 1),  # a repeated numerator
        ("3\n1\n1/" + LONG + " 1/" + LONG + "\n", 3, 3),  # a repeated denominator
        ("3\n1\n1/2 3/" + LONG + "\n", 3, 7),  # a denominator of an all-slash row
    ],
    ids=["point_count", "numerator", "denominator", "first_denominator", "repeated_numerator",
         "repeated_denominator", "all_slash_denominator"],
)
def test_integers_past_the_int_string_limit_are_parse_errors(text, line, column):
    for parse in (metric_mod.parse_lower_triangle, parse_distance_matrix):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert exc.value.reason == f"integer longer than the {INT_DIGITS}-digit limit"
    if line == 1:
        with pytest.raises(ParseError):
            metric_mod.dmat_point_count(text)


@pytest.mark.skipif(INT_DIGITS == 0, reason="the interpreter has no int-string limit")
def test_integers_at_the_int_string_limit_parse():
    top = int("7" * INT_DIGITS)
    lower, scale = metric_mod.parse_lower_triangle(f"3\n1\n{top} 1/{top}\n")
    assert lower == [[], [top], [top * top, 1]] and scale == top


# ---------------------------------------------------------------------------
# Katetov row: the column-wise kernel against the per-z oracle
# ---------------------------------------------------------------------------

def test_katetov_row_matches_the_per_point_oracle():
    rng = random.Random(777)
    pinned = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        space = random_metric_space(rng, n)
        for p in range(1, n + 1):
            points = rng.sample(range(n), p) if rng.random() < 0.5 else range(p)
            # Small radii from a short list make ties common; most miss the
            # lower side |r_i - r_j| <= d, so the pins change the row.
            radii = [rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(4))) for _ in points]
            if rng.random() < 0.3:
                radii = [space.matrix[points[0]][x] + Fraction(1, 4) for x in points]
            expected = oracle_katetov_row(space.matrix, points, radii)
            assert metric_mod.katetov_row(space.matrix, points, radii) == expected
            d, ints, scale = metric_mod.common_scale(space.lower, space.scale, points, radii)
            row = metric_mod.katetov_row(d, points, ints)
            assert [Fraction(v, scale) for v in row] == expected
            assert all(type(v) is int for v in row)
            unpinned = [min(r + space.matrix[x][z] for x, r in zip(points, radii)) for z in range(n)]
            pinned += unpinned != expected
    assert pinned >= 100


# ---------------------------------------------------------------------------
# Katetov pair check: every wrapper reports the oracle's first failing pair
# ---------------------------------------------------------------------------

def test_katetov_wrappers_match_first_failure_oracle():
    rng = random.Random(4242)
    sides = {"lower": 0, "upper": 0, None: 0}
    for _ in range(300):
        n = rng.randint(2, 6)
        space = random_metric_space(rng, n)
        d = space.matrix
        k = rng.randint(2, n)
        support = rng.sample(range(n), k)
        if rng.random() < 0.3:
            # d(c, .) + offset is 1-Lipschitz and above d(c, .): admissible.
            c = rng.randrange(n)
            offset = rand_rational(rng, Fraction(1, 4), Fraction(2))
            radii = [d[c][x] + offset for x in support]
        else:
            radii = [rand_rational(rng, Fraction(1, 8), Fraction(2)) for _ in support]

        expected = oracle_katetov_failure(d, support, radii, two_sided=True)
        sides[expected and expected[1]] += 1
        check = admissible(ExtensionRequest(space, support, radii))
        assert (check.ok, check.pair, check.side) == (
            (True, None, None) if expected is None else (False, *expected)
        )

        prefix = prefix_stand_in(d)
        expected = oracle_katetov_failure(d, range(k), radii, two_sided=True)
        assert is_correctly_defined(prefix, radii) == (
            (True, None) if expected is None else (False, expected[0])
        )

        values = [rand_rational(rng, Fraction(0), Fraction(2)) for _ in range(n)]
        expected = oracle_katetov_failure(d, range(n), values, two_sided=False)
        assert is_admissible_function(KatetovFunction(space, values)) == (
            (True, None) if expected is None else (False, expected[0])
        )

        expected = oracle_katetov_failure(d, support, radii, two_sided=False)
        if expected is None:
            extend_radius_function(space, support, radii)
        else:
            with pytest.raises(NotAdmissibleOnSubset) as info:
                extend_radius_function(space, support, radii)
            assert info.value.pair == expected[0]

        centers = [rng.randrange(n) for _ in radii]
        expected = oracle_katetov_failure(d, centers, radii, two_sided=False)
        family = BallFamily(space, list(zip(centers, radii)))
        if expected is None:
            reduce_ball_family(family)
        else:
            with pytest.raises(PairwiseInfeasible) as info:
                reduce_ball_family(family)
            (i, j), _ = expected
            assert info.value.pair == (i, j)
            assert info.value.lhs == d[centers[i]][centers[j]]
            assert info.value.rhs == radii[i] + radii[j]
    assert min(sides.values()) >= 30
