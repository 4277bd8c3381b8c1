import os
import pickle
import random
import stat
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from ury import (
    ConstructionMode,
    InvalidMode,
    ParseError,
    PrefixTooShort,
    TooLarge,
    build_prefix,
    calkin_wilf,
    cardinality_of_index,
    dump_prefix_text,
    is_correctly_defined,
    load_prefix,
    load_prefix_text,
    save_prefix,
    subset_of_index,
    truncate_prefix,
    validate_metric,
)
from ury import construct as construct_mod
from ury.construct import DEFAULT_MODE, PREFIX_MAX_POINTS, colex_unrank

from helpers import oracle_build_prefix

REMARK_OVERRIDE = (("2",), ("3",), ("4",), ("1/2", "1/2"))


# ---------------------------------------------------------------------------
# Labeling rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 1), (6, 1), (4, 2), (12, 2), (20, 2), (8, 3), (24, 3), (40, 3)])
def test_cardinality_worked_examples(n, expected):
    assert cardinality_of_index(n) == expected


def test_cardinality_laws():
    assert cardinality_of_index(1) == 1
    for n in range(2, 100_001):
        p = cardinality_of_index(n)
        assert p < n
        if n % 4:
            assert p == 1
        else:
            assert n % (1 << p) == 0 and n % (1 << (p + 1)) != 0


def test_cardinality_matches_subsets():
    for n in range(1, 100_001):
        assert len(subset_of_index(n)) == cardinality_of_index(n)


# ---------------------------------------------------------------------------
# Calkin-Wilf order and colex unranking
# ---------------------------------------------------------------------------

def bfs_calkin_wilf(count):
    """Oracle: the first ``count`` rationals of a literal breadth-first
    traversal of the tree rooted at 1/1 with children a/(a+b) and (a+b)/b."""
    queue = [(1, 1)]
    for a, b in queue:
        if len(queue) >= count:
            break
        queue += [(a, a + b), (a + b, b)]
    return [Fraction(a, b) for a, b in queue[:count]]


def test_calkin_wilf_against_bfs_oracle():
    for i, q in enumerate(bfs_calkin_wilf(2048), start=1):
        assert calkin_wilf(i) == q


def test_calkin_wilf_first_terms():
    expected = ["1", "1/2", "2", "1/3", "3/2", "2/3", "3"]
    assert [str(calkin_wilf(i)) for i in range(1, 8)] == expected


def test_colex_against_enumeration_oracle():
    # Oracle: sort all p-subsets of {1..9} by colex comparison (reversed
    # tuple order) and compare positions.
    for p in (2, 3, 4):
        subsets = sorted(combinations(range(1, 10), p), key=lambda t: t[::-1])
        for rank, subset in enumerate(subsets):
            assert colex_unrank(rank, p) == subset


def test_subset_of_index_examples():
    assert subset_of_index(1) == (Fraction(1),)
    assert subset_of_index(4) == (Fraction(1, 2), Fraction(1))
    assert subset_of_index(12) == (Fraction(1), Fraction(2))


def test_subset_index_bijection():
    # Injective: the first 10 000 labels are distinct increasing sets of
    # positive rationals.  Surjective: among them is every set of at most 3
    # elements drawn from the first 16 Calkin-Wilf rationals (the last of
    # those 696 sets is label (2 * comb(16, 3) - 1) * 8 = 8952).
    seen = set()
    for n in range(1, 10_001):
        label = subset_of_index(n)
        assert list(label) == sorted(set(label))
        assert all(r > 0 for r in label)
        assert label not in seen
        seen.add(label)
    rationals = sorted(bfs_calkin_wilf(16))
    wanted = {subset for p in (1, 2, 3) for subset in combinations(rationals, p)}
    assert len(wanted) == 696
    assert wanted <= seen


# ---------------------------------------------------------------------------
# Correctness condition
# ---------------------------------------------------------------------------

def test_singleton_always_correct(prefix50):
    for r in ("1", "7/3", "100"):
        assert is_correctly_defined(prefix50, (r,)) == (True, None)


def test_multiset_reading_fails_after_remark_prefix():
    prefix = build_prefix(4, ConstructionMode(q_override=REMARK_OVERRIDE[:3]))
    ok, pair = is_correctly_defined(prefix, ("1/2", "1/2"))
    assert not ok and pair == (0, 1)  # rho(a1,a2) = 2 > 1/2 + 1/2


def test_two_sided_set_is_correct_after_remark_prefix():
    prefix = build_prefix(4, ConstructionMode(q_override=REMARK_OVERRIDE[:3]))
    assert prefix.rho[0][1] == 2
    assert is_correctly_defined(prefix, ("3", "5")) == (True, None)


def test_prefix_too_short():
    with pytest.raises(PrefixTooShort):
        is_correctly_defined(build_prefix(1), ("1", "2"))


@pytest.mark.parametrize("label", [(), ("-1",), ("0",)], ids=["empty", "negative", "zero"])
def test_a_label_that_is_no_label_set_is_refused_as_in_an_override(label):
    with pytest.raises(ValueError) as refused:
        ConstructionMode(q_override=(label,))
    with pytest.raises(ValueError, match=f"^{refused.value}$"):
        is_correctly_defined(build_prefix(10), label)


# ---------------------------------------------------------------------------
# Prefix construction
# ---------------------------------------------------------------------------

def test_build_two_and_three_points():
    assert build_prefix(2).rho[1][0] == 1
    s3 = build_prefix(3)
    assert s3.rho[2][0] == Fraction(1, 2)
    assert s3.rho[2][1] == Fraction(3, 2)


def test_override_case2_trace_with_canonical_continuation():
    # Three singleton overrides, then the canonical enumeration resumes.
    state = build_prefix(5, ConstructionMode(q_override=REMARK_OVERRIDE[:3]))
    assert state.rho[3][2] == 7  # min over lambda of rho(a3,a1) + 4 = 3 + 4
    assert validate_metric(state.rho).ok


def test_legacy_multiset_reproduces_triangle_contradiction():
    mode = ConstructionMode("legacy-multiset", "labels-only", REMARK_OVERRIDE)
    state = build_prefix(5, mode)
    assert state.rho[3][2] == 7
    assert all(state.rho[4][j] == 2 for j in range(4))
    report = validate_metric(state.rho)
    assert not report.ok
    assert any(
        v.kind == "triangle" and v.indices == (2, 4, 3) and v.lhs == 7 and v.rhs == 4
        for v in report.violations
    )


def test_set_collapse_same_override_is_valid():
    state = build_prefix(5, ConstructionMode(q_override=REMARK_OVERRIDE))
    assert validate_metric(state.rho).ok
    # {1/2, 1/2} collapses to the singleton {1/2}: Case 2 applies.
    assert state.log[3].label == (Fraction(1, 2),)
    assert state.rho[4][0] == Fraction(1, 2)


def test_legacy_all_prior_scope_stays_valid():
    mode = ConstructionMode("legacy-multiset", "all-prior", REMARK_OVERRIDE)
    state = build_prefix(5, mode)
    assert all(state.rho[4][j] == 7 for j in range(4))
    assert validate_metric(state.rho).ok


def test_legacy_requires_override():
    with pytest.raises(InvalidMode):
        ConstructionMode(duplicate_handling="legacy-multiset")


def test_override_rejects_bad_labels():
    with pytest.raises(ValueError):
        ConstructionMode(q_override=((),))
    with pytest.raises(ValueError):
        ConstructionMode(q_override=(("0",),))
    with pytest.raises(ValueError):
        ConstructionMode(q_override=(("-1/2",),))


def test_override_label_wider_than_prefix():
    with pytest.raises(PrefixTooShort):
        build_prefix(3, ConstructionMode(q_override=(("1", "2"),)))


def test_positivity_and_symmetry_up_to_200(prefix200):
    rho = prefix200.rho
    for i in range(200):
        assert rho[i][i] == 0
        for j in range(i):
            assert rho[i][j] == rho[j][i] > 0


def test_incrementality_snapshots(prefix300):
    rng = random.Random(2)
    for m in [1, 2, 3, 10, rng.randint(4, 299), 299]:
        state = build_prefix(m)
        assert state.rho == truncate_prefix(prefix300, m).rho
        assert state.log == prefix300.log[: m - 1]


def test_log_flags_are_redundant(prefix200):
    for rec in prefix200.log:
        flag, _ = is_correctly_defined(prefix200, rec.label)
        assert flag == rec.correctly_defined
    # Both cases must actually occur in the first 200 steps.
    flags = {rec.correctly_defined for rec in prefix200.log}
    assert flags == {True, False}


def test_resume_equivalence(prefix50):
    shorter = truncate_prefix(prefix50, 30)
    resumed = build_prefix(50, resume=shorter)
    assert resumed == prefix50


MODES = [
    DEFAULT_MODE,
    ConstructionMode(case1_scope="labels-only"),
    ConstructionMode("legacy-multiset", "all-prior", REMARK_OVERRIDE),
    ConstructionMode("legacy-multiset", "labels-only", REMARK_OVERRIDE),
]
MODE_IDS = ["cw1", "labels-only", "legacy-all-prior", "legacy-labels-only"]


def step_maxima(rho):
    """Largest distance among the first k + 1 points, for each k, by a full scan."""
    return tuple(max(rho[i][j] for i in range(k + 1) for j in range(k + 1)) for k in range(len(rho)))


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_running_max_matches_a_scan(mode):
    state = build_prefix(40, mode)
    expected = step_maxima(state.rho)
    assert state.running_max == expected
    assert truncate_prefix(state, 25).running_max == expected[:25]
    assert build_prefix(40, mode, resume=truncate_prefix(state, 25)).running_max == expected
    assert load_prefix_text(dump_prefix_text(state)).running_max == expected


def entry_scale(state):
    """The lcm of the denominators of the state's distances."""
    return lcm(*(v.denominator for row in state.rho for v in row))


def assert_matches_oracle(state, oracle):
    m = state.m
    assert state.rho == tuple(row[:m] for row in oracle.rho[:m])
    assert state.log == oracle.log[: m - 1]
    assert state.running_max == oracle.running_max[:m]
    assert state.scale == entry_scale(state)


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_integer_kernel_matches_the_fraction_oracle(mode):
    oracle = oracle_build_prefix(60, mode)
    state = build_prefix(60, mode)
    assert_matches_oracle(state, oracle)
    # A resume whose scale must grow, and truncations that must shrink it.
    changes = [k for k in range(2, 60) if truncate_prefix(state, k).scale != state.scale]
    assert changes
    for k in (changes[0], changes[-1]):
        short = truncate_prefix(state, k)
        assert_matches_oracle(short, oracle)
        assert short == build_prefix(k, mode)
        resumed = build_prefix(60, mode, resume=short)
        assert_matches_oracle(resumed, oracle)
        assert resumed == state
    assert_matches_oracle(load_prefix_text(dump_prefix_text(state), 37), oracle)


def oracle_lower(oracle, state):
    """The oracle's first ``state.m`` points as a lower triangle over ``state.scale``."""
    return tuple(tuple(v * state.scale for v in row[:i]) for i, row in enumerate(oracle.rho[: state.m]))


def lower_rows(state):
    """Every row of ``state``'s lower triangle, by :meth:`PrefixState.row`."""
    return tuple(map(state.row, range(state.m)))


def test_lower_holds_each_pair_once(prefix50):
    oracle = oracle_build_prefix(50)
    short = truncate_prefix(prefix50, 20)
    resumed = build_prefix(50, resume=short)
    assert short.scale != resumed.scale
    for state in (prefix50, short, resumed):
        assert [len(row) for row in lower_rows(state)] == list(range(state.m))
        assert lower_rows(state) == oracle_lower(oracle, state)


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_row_and_entry_match_the_oracle_on_every_pair(mode):
    oracle = oracle_build_prefix(60, mode)
    state = build_prefix(60, mode)
    scale = state.scale
    assert lower_rows(state) == oracle_lower(oracle, state)
    for i in range(60):
        for j in range(60):
            assert state.entry(i, j) == oracle.rho[i][j] * scale
            assert state.distance(i, j) == oracle.rho[i][j]
    for i in (60, 61, -1, -60):
        with pytest.raises(IndexError):
            state.row(i)
        for pair in ((i, 0), (0, i), (i, i)):
            with pytest.raises(IndexError):
                state.entry(*pair)


def wide_override():
    """Canonical labels for steps 1..29, then two labels wider than any
    canonical label up to 60 points (which has at most 5 elements): at step
    30 a correctly defined one of 20 elements (radii within 2/10^5 of 100,
    closer together than any two points and each larger than half of every
    distance), at step 31 one of 23 tiny radii that breaks the upper bound."""
    near_100 = tuple(100 + Fraction(i, 10**6) for i in range(1, 21))
    tiny = tuple(Fraction(i, 1000) for i in range(1, 24))
    return tuple(subset_of_index(step) for step in range(1, 30)) + (near_100, tiny)


@pytest.mark.parametrize("scope", ["all-prior", "labels-only"])
def test_head_rows_match_the_oracle(scope):
    # A step reads full rows only for the points below its label's
    # cardinality.  These are the cases where that set of rows must grow:
    # a label wider than every canonical one (and, resumed from up to 20
    # points, wider than the short state itself); a resume from 1, 2 or 3
    # points, whose next labels reach 4 and 5 elements (steps 16 and 32); and
    # resumes whose scale grows.
    canonical = ConstructionMode(case1_scope=scope)
    wide = ConstructionMode(case1_scope=scope, q_override=wide_override())
    assert max(len(subset_of_index(step)) for step in range(1, 60)) == 5
    for mode in (canonical, wide):
        oracle = oracle_build_prefix(60, mode)
        state = build_prefix(60, mode)
        assert_matches_oracle(state, oracle)
        assert lower_rows(state) == oracle_lower(oracle, state)
        for k in (1, 2, 3, 5, 12, 25, 30, 31, 45):
            short = truncate_prefix(state, k)
            resumed = build_prefix(60, mode, resume=short)
            assert_matches_oracle(resumed, oracle)
            assert lower_rows(resumed) == lower_rows(state)
        assert any(truncate_prefix(state, k).scale < state.scale for k in (2, 3, 5, 12, 25))
    flags = [(len(rec.label), rec.correctly_defined) for rec in state.log[29:31]]
    assert flags == [(20, True), (23, False)]


def test_scale_is_the_lcm_of_the_entry_denominators(prefix300):
    assert prefix300.scale == entry_scale(prefix300)
    for m in (1, 2, 3, 17, 120, 299):
        assert truncate_prefix(prefix300, m).scale == entry_scale(truncate_prefix(prefix300, m))
    assert build_prefix(1).scale == 1
    # A Case-1 label's denominator drops out: the build runs over 7 and
    # reduces to scale 1.
    mode = ConstructionMode(q_override=(("1",), ("1/7", "5")))
    state = build_prefix(3, mode)
    assert not state.log[-1].correctly_defined
    assert state.scale == entry_scale(state) == 1
    assert_matches_oracle(state, oracle_build_prefix(3, mode))
    # A Case-2 label's second radius brings a denominator that no distance
    # from the first point has: d(2, 1) = 3/2, while d(0, .) is 1, 1.
    mode = ConstructionMode(q_override=(("1",), ("1", "3/2")))
    state = build_prefix(3, mode)
    assert state.log[-1].correctly_defined
    assert state.scale == entry_scale(state) == 2
    assert_matches_oracle(state, oracle_build_prefix(3, mode))


def test_resume_rejects_other_mode(prefix50):
    other = ConstructionMode(case1_scope="labels-only")
    with pytest.raises(InvalidMode):
        build_prefix(60, other, resume=prefix50)


def test_resume_rejects_other_override():
    mode_a = ConstructionMode(q_override=(("2",), ("3",)))
    mode_b = ConstructionMode(q_override=(("2",), ("5",)))
    state = build_prefix(3, mode_a)
    with pytest.raises(InvalidMode):
        build_prefix(4, mode_b, resume=state)


# ---------------------------------------------------------------------------
# Cache format
# ---------------------------------------------------------------------------

def test_cache_roundtrip_bit_exact(prefix50):
    text = dump_prefix_text(prefix50)
    loaded = load_prefix_text(text)
    assert loaded == prefix50
    assert dump_prefix_text(loaded) == text


def test_cache_roundtrip_legacy():
    mode = ConstructionMode("legacy-multiset", "labels-only", REMARK_OVERRIDE)
    state = build_prefix(5, mode)
    text = dump_prefix_text(state)
    assert "1/2 1/2 | I" in text
    assert load_prefix_text(text) == state


def test_cache_header_and_records():
    text = dump_prefix_text(build_prefix(3))
    assert text.splitlines() == [
        "URY0 v2 set-collapse,all-prior,cw1",
        "1 | 1 | C",
        "2 | 1/2 | C",
    ]


def test_a_v1_cache_is_a_parse_error_that_names_its_version():
    # A v1 record also carried the new point's row.  No v1 file is read: the
    # header is refused before any record.
    text = "URY0 v1 set-collapse,all-prior,cw1\n1 | 1 | C | 1\n2 | 1/2 | C | 1/2 3/2\n"
    with pytest.raises(ParseError) as exc:
        load_prefix_text(text)
    assert (exc.value.line, exc.value.column) == (1, 6)
    assert exc.value.reason == "unsupported cache version 'v1': only v2 is read"


def test_cache_flipped_flag_is_a_parse_error(prefix50):
    lines = dump_prefix_text(truncate_prefix(prefix50, 12)).splitlines(keepends=True)
    assert lines[8].startswith("8 | 1/2 1 2 | I")
    lines[8] = lines[8].replace(" | I", " | C", 1)
    with pytest.raises(ParseError) as exc:
        load_prefix_text("".join(lines))
    assert exc.value.line == 9


def test_cache_wrong_canonical_label_is_a_parse_error(prefix50):
    text = dump_prefix_text(truncate_prefix(prefix50, 12))
    assert "\n5 | 1/3 | C\n" in text
    with pytest.raises(ParseError) as exc:
        load_prefix_text(text.replace("\n5 | 1/3 | C\n", "\n5 | 1/4 | C\n"))
    assert exc.value.line == 6


def test_cache_override_labels_are_replayed():
    mode = ConstructionMode(q_override=REMARK_OVERRIDE)
    text = dump_prefix_text(build_prefix(8, mode))
    assert text.splitlines()[0] == "URY0 v2 set-collapse,all-prior,override"
    # An override label is taken from the file, so a changed label changes
    # the replay instead of failing it; a changed flag still fails.
    changed = load_prefix_text(text.replace("\n1 | 2 | C\n", "\n1 | 5 | C\n"))
    assert changed == build_prefix(8, ConstructionMode(q_override=(("5",),) + REMARK_OVERRIDE[1:]))
    with pytest.raises(ParseError) as exc:
        load_prefix_text(text.replace("\n2 | 3 | C\n", "\n2 | 3 | I\n"))
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "mode",
    [DEFAULT_MODE, ConstructionMode("legacy-multiset", "labels-only", REMARK_OVERRIDE)],
    ids=["cw1", "legacy-multiset-override"],
)
def test_partial_load_equals_truncated_full_load(mode, tmp_path):
    path = tmp_path / "p.ury"
    save_prefix(build_prefix(30, mode), path)
    full = load_prefix(path)
    assert full == build_prefix(30, mode)
    for m in (1, 2, 15, 30):
        assert load_prefix(path, m) == truncate_prefix(full, m)
    with pytest.raises(ValueError, match="cache holds 30 points"):
        load_prefix(path, 31)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "URY1 v1 tag\n",
        "URY0 v1 set-collapse,all-prior,cw1\n2 | 1 | C | 1\n",
        "URY0 v1 set-collapse,all-prior,cw1\n1 | 1 | X | 1\n",
        "URY0 v1 set-collapse,all-prior,cw1\n1 | 1 | C | 1 2\n",
        "URY0 v1 set-collapse,all-prior,cw1\n1 | 1 | C\n",
        "URY0 v2 set-collapse,all-prior,cw1\n1 | 1 | C | 1\n",
        "URY0 v1 set-collapse,all-prior,cw1\n\u00b2 | 1 | C | 1\n",
        "URY0 v2 set-collapse,all-prior,cw9\n",
        "URY0 v2 legacy-multiset,all-prior,cw1\n",
        "URY0 v2 set-collapse,all-prior,override\n1 | 1 2 | C\n",
        "URY0 v2 set-collapse,all-prior,override\n1 | 0 | C\n",
        "URY0 v2 set-collapse,all-prior,override\n1 | 2/4 | C\n",
    ],
)
def test_cache_parse_errors(text):
    with pytest.raises(ParseError):
        load_prefix_text(text)


@pytest.mark.parametrize(
    "line",
    [
        "URY0 v2 set-collapse,all-prior,cw1" + "x" * 100,
        "URY0 v2 " + "x" * 100 + ",all-prior,cw1",
        "1 | " + "1" * 100 + "x | C",
        "1 | 1/" + "0" * 100 + " | C",
        "x" * 100 + " | 1 | C",
        "1 | 1 | " + "C" * 100,
    ],
)
def test_cache_parse_errors_quote_a_bounded_prefix(line):
    # A bad tag, label token, step or flag is quoted up to 40 characters.
    header = "URY0 v2 set-collapse,all-prior,cw1"
    text = (line if line.startswith("URY0") else f"{header}\n{line}") + "\n"
    with pytest.raises(ParseError) as exc:
        load_prefix_text(text)
    assert exc.value.reason.endswith("'...") and len(exc.value.reason) < 100


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-string limit")
def test_a_step_past_the_int_string_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    lines = dump_prefix_text(build_prefix(3)).splitlines()
    lines[2] = "0" * limit + "2" + lines[2][1:]  # step 2, one digit too many
    with pytest.raises(ParseError) as exc:
        load_prefix_text("\n".join(lines) + "\n")
    assert (exc.value.line, exc.value.column) == (3, 1)
    assert exc.value.reason == f"integer longer than the {limit}-digit limit"
    lines[2] = lines[2][1:]  # at the limit the step reads as 2, not as its canonical text
    with pytest.raises(ParseError, match="step 2 differs from its replay"):
        load_prefix_text("\n".join(lines) + "\n")


def test_save_is_atomic_when_the_write_fails(prefix50, tmp_path, monkeypatch):
    path = tmp_path / "prefix.ury"
    save_prefix(truncate_prefix(prefix50, 10), path)
    old = path.read_bytes()

    class HalfWriter:
        """A file that writes the first half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    def failing_open(file, *args, **kwargs):
        return HalfWriter(open(file, *args, **kwargs))

    with monkeypatch.context() as patch:
        patch.setattr("ury.construct.open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_prefix(prefix50, path)

    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["prefix.ury"]
    assert load_prefix(path) == truncate_prefix(prefix50, 10)


def test_save_writes_through_symlinks_and_pipes(prefix50, tmp_path):
    state = truncate_prefix(prefix50, 10)
    target, link = tmp_path / "real.ury", tmp_path / "link.ury"
    target.write_text("old")
    link.symlink_to(target)
    save_prefix(state, link)
    assert link.is_symlink() and load_prefix(target) == state

    # A pipe cannot be replaced; it must receive the text and stay a pipe.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        save_prefix(state, fifo)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 1 << 16).decode() == dump_prefix_text(state)
    finally:
        os.close(reader)
    assert sorted(os.listdir(tmp_path)) == ["link.ury", "pipe", "real.ury"]


def test_loaded_cache_resumes(prefix50):
    loaded = load_prefix_text(dump_prefix_text(truncate_prefix(prefix50, 20)))
    assert build_prefix(50, resume=loaded) == prefix50


def test_label_index_matches_step(prefix50):
    for rec in prefix50.log:
        assert rec.label == subset_of_index(rec.step)


def test_metric_validity_up_to_500():
    state = build_prefix(500)
    assert validate_metric(state.rho).ok


def test_build_over_the_point_bound_is_refused_before_any_step(monkeypatch, prefix50):
    def no_label(self, step):
        raise AssertionError("a label was enumerated")

    monkeypatch.setattr(ConstructionMode, "label_for_step", no_label)
    for resume in (None, prefix50):
        with pytest.raises(TooLarge, match=f"limited to {PREFIX_MAX_POINTS} points"):
            build_prefix(PREFIX_MAX_POINTS + 1, resume=resume)


# ---------------------------------------------------------------------------
# Head rows and step records: a state holds the full rows of the points below
# its widest label and one record per step, and reads every distance from
# them.
# ---------------------------------------------------------------------------

def assert_as_cold_build(state, oracle, mode):
    """``state`` compares, hashes and prints as the cold build of its
    ``state.m`` points under ``mode``, has its scale and running maxima, and
    reads as the oracle's rows."""
    expected = build_prefix(state.m, mode)
    assert state == expected and expected == state
    assert not state != expected
    assert hash(state) == hash(expected)
    assert repr(state) == repr(expected)
    assert state.scale == expected.scale == entry_scale(expected)
    assert state.running_max == expected.running_max == oracle.running_max[: state.m]
    assert lower_rows(state) == lower_rows(expected) == oracle_lower(oracle, state)


@pytest.mark.parametrize("scope", ["all-prior", "labels-only"])
def test_lazy_rows_match_the_oracle(scope):
    # 130 points pass step 128, the first label of 7 elements.
    mode = ConstructionMode(case1_scope=scope)
    state = build_prefix(130, mode)
    assert len(state.heads) == 7
    assert_as_cold_build(state, oracle_build_prefix(130, mode), mode)


@pytest.mark.parametrize("scope", ["all-prior", "labels-only"])
def test_lazy_rows_of_a_wide_legacy_override(scope):
    # The remark's {1/2, 1/2} read as two elements (Case 1), then canonical
    # labels, then a correctly defined label of 20 elements at step 30 and a
    # Case-1 label of 23 at step 31.
    mode = ConstructionMode("legacy-multiset", scope, REMARK_OVERRIDE + wide_override()[4:])
    oracle = oracle_build_prefix(60, mode)
    state = build_prefix(60, mode)
    assert [rec.correctly_defined for rec in state.log[3:4] + state.log[29:31]] == [False, True, False]
    assert_as_cold_build(state, oracle, mode)
    for k in (4, 5, 30, 31, 32):
        assert_as_cold_build(build_prefix(60, mode, resume=truncate_prefix(state, k)), oracle, mode)


def test_a_resume_across_a_width_increase_matches_the_oracle():
    # A 500-point state keeps the rows of points below 8 (its widest label,
    # step 256); steps 512 and 1024 have the first labels of 9 and 10
    # elements, so the resume completes the rows of points 8 and 9 first.
    oracle = oracle_build_prefix(1100)
    short = build_prefix(500)
    assert len(short.heads) == 8
    resumed = build_prefix(1100, resume=short)
    assert len(resumed.heads) == 10
    assert_as_cold_build(resumed, oracle, DEFAULT_MODE)


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_resumes_from_states_made_by_hand_and_every_truncation(mode):
    # Every state is a build, a truncation or a .ury replay; the replay of
    # each truncation stands in for a state made from outside the build.
    oracle = oracle_build_prefix(60, mode)
    state = build_prefix(60, mode)
    for k in range(1, 61):
        short = truncate_prefix(state, k)
        assert_as_cold_build(short, oracle, mode)
        loaded = load_prefix_text(dump_prefix_text(short))
        assert_as_cold_build(truncate_prefix(loaded, max(1, k - 7)), oracle, mode)
        resumed = build_prefix(60, mode, resume=loaded)
        assert resumed is loaded or k < 60
        assert_as_cold_build(resumed, oracle, mode)


def test_equality_hashing_repr_and_pickling_build_no_row(monkeypatch):
    state, twin = build_prefix(1100), build_prefix(1100)
    built = []
    step_row = construct_mod._step_row
    monkeypatch.setattr(construct_mod, "_step_row", lambda *args: built.append(args[-1]) or step_row(*args))
    assert state == twin and not state != twin
    assert hash(state) == hash(twin)
    assert repr(state) == f"PrefixState(m=1100, scale={state.scale}, mode_tag={state.mode_tag!r})"
    data = pickle.dumps(state)
    copy = pickle.loads(data)
    assert copy == state and hash(copy) == hash(state)
    assert built == []
    # A pickle holds the fields, not the views read so far.
    assert lower_rows(state) == lower_rows(copy) and state.distance_buckets[0]
    assert pickle.dumps(state) == data
    # A truncation keeps the heads of its own widest label, as a cold build does.
    short, cold = truncate_prefix(build_prefix(100), 20), build_prefix(20)
    assert short == cold and hash(short) == hash(cold)
    assert len(short.heads) == len(cold.heads) == 4


def counted_parses(monkeypatch) -> list[str]:
    """The tokens the loader parses as rationals, from now on."""
    parsed = []
    parse = construct_mod.parse_rational
    monkeypatch.setattr(construct_mod, "parse_rational", lambda t: parsed.append(t) or parse(t))
    return parsed


@pytest.mark.parametrize("scope", ["all-prior", "labels-only"])
def test_no_cw1_load_parses_a_record_whole_or_partial(monkeypatch, scope):
    # A cw1 log follows from its mode tag alone: its records are compared with
    # the replay's, and only one that differs is parsed, to name its fault.
    state = build_prefix(50, ConstructionMode(case1_scope=scope))
    text = dump_prefix_text(state)
    parsed = counted_parses(monkeypatch)
    assert load_prefix_text(text) == state
    for m in (1, 2, 30, 49):
        assert load_prefix_text(text, m) == truncate_prefix(state, m)
    assert parsed == []
    # Faults are reported in line order: the changed label on line 6, not the
    # malformed token on line 9 after it.
    bad = text.replace("\n5 | 1/3 | C\n", "\n5 | 1/4 | C\n").replace("\n8 | 1/2 1 2 | I\n", "\n8 | 1/2 1 x | I\n")
    with pytest.raises(ParseError) as exc:
        load_prefix_text(bad)
    assert (exc.value.line, exc.value.reason) == (6, "step 5 differs from its replay")


def test_an_override_load_parses_the_labels_of_its_records_only(monkeypatch):
    mode = ConstructionMode("legacy-multiset", "labels-only", REMARK_OVERRIDE)
    state = build_prefix(30, mode)
    lines = dump_prefix_text(state).splitlines()
    parsed = counted_parses(monkeypatch)
    for m in (1, 2, 5, 30):
        parsed.clear()
        assert load_prefix_text("\n".join(lines) + "\n", m) == truncate_prefix(state, m)
        assert parsed == [token for line in lines[1:m] for token in line.split(" | ")[1].split(" ")]


@pytest.mark.parametrize(
    "mode",
    [DEFAULT_MODE, ConstructionMode("legacy-multiset", "labels-only", REMARK_OVERRIDE)],
    ids=["cw1", "legacy-multiset-override"],
)
def test_a_partial_load_reads_no_record_past_its_points(mode):
    full = build_prefix(50, mode)
    lines = dump_prefix_text(full).splitlines()
    lines[40] = "40 | 1 x | C"  # line 41: the record of the 41st point
    text = "\n".join(lines) + "\n"
    assert load_prefix_text(text, 40) == truncate_prefix(full, 40)
    with pytest.raises(ParseError) as exc:
        load_prefix_text(text)
    assert (exc.value.line, exc.value.column, exc.value.reason) == (41, 1, "not a rational literal: 'x'")


@pytest.mark.parametrize(
    "record,reason",
    [
        ("8 | 1/2 1 2", "expected 3 fields separated by ' | '"),
        ("9 | 1/2 1 2 | I", "expected step 8, got '9'"),
        ("8 | 1/2 1 2 | X", "flag must be C or I, got 'X'"),
        ("8 | 1/2 1 x | I", "not a rational literal: 'x'"),
        ("8 | 1/2 1 0 | I", "label must be 1..8 positive rationals"),
        ("8 | 1/2 1 | I", "step 8 differs from its replay"),
    ],
)
def test_the_first_differing_record_names_its_fault(prefix50, record, reason):
    lines = dump_prefix_text(prefix50).splitlines()
    assert lines[8] == "8 | 1/2 1 2 | I"
    lines[8] = record
    lines[20] = "x"  # a later fault is not reached
    with pytest.raises(ParseError) as exc:
        load_prefix_text("\n".join(lines) + "\n")
    assert (exc.value.line, exc.value.column, exc.value.reason) == (9, 1, reason)


@pytest.mark.parametrize("enumeration", ["cw1", "override"])
def test_a_load_past_the_point_bound_is_refused_before_any_record(monkeypatch, enumeration):
    # The records of one point more than the bound, the first of them garbage.
    records = ["x"] + [f"{k} | 1 | C" for k in range(2, PREFIX_MAX_POINTS + 1)]
    text = "\n".join([f"URY0 v2 set-collapse,all-prior,{enumeration}", *records]) + "\n"
    parsed = counted_parses(monkeypatch)
    for m in (None, PREFIX_MAX_POINTS + 1):
        with pytest.raises(TooLarge, match=f"limited to {PREFIX_MAX_POINTS} points"):
            load_prefix_text(text, m)
    assert parsed == []
    with pytest.raises(ParseError) as exc:
        load_prefix_text(text, 3)
    assert (exc.value.line, exc.value.reason) == (2, "expected 3 fields separated by ' | '")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-string limit")
@pytest.mark.parametrize("token,column", [("{run}", 5), ("1/{run}", 7), ("1 {run}", 7)])
def test_a_label_past_the_int_string_limit_is_a_parse_error(token, column):
    limit = sys.get_int_max_str_digits()
    lines = dump_prefix_text(build_prefix(3)).splitlines()
    lines[2] = f"2 | {token.format(run='7' * (limit + 1))} | C"
    with pytest.raises(ParseError) as exc:
        load_prefix_text("\n".join(lines) + "\n")
    assert (exc.value.line, exc.value.column) == (3, column)
    assert exc.value.reason == f"integer longer than the {limit}-digit limit"


def test_a_two_point_label_whose_bound_overshoots_has_its_row_scanned():
    # Step 3's label {2, 3} is correctly defined.  min_l (r_l + max d(a_l, .))
    # is 4, above the largest distance so far (5/2), but the row peaks at 3.
    mode = ConstructionMode(q_override=(("2",), ("1/2",), ("2", "3")))
    state = build_prefix(4, mode)
    assert state.log[-1].correctly_defined
    assert state.running_max == oracle_build_prefix(4, mode).running_max
    assert state.running_max[-1] == 3
