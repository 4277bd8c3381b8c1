import argparse
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ury import (
    build_prefix,
    construct,
    embed,
    extension,
    find_isometric_embedding,
    load_prefix,
    metric,
    serialize_distance_matrix,
    truncate_prefix,
)
from ury.cli import build_parser, main
from ury.metric import FiniteMetricSpace, dmat_lines, parse_matrix_text, serialize_matrix

from helpers import oracle_build_prefix, oracle_dmat_text, oracle_violations, prime_denominator_dmat

T345 = "3\n3\n4 5\n"
BAD113 = "3\n1\n1 3\n"


@pytest.fixture(autouse=True)
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("URY_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_cache(tmp_path, capsys):
    out = tmp_path / "p.ury"
    code, stdout, _ = run(capsys, "build", "--points", "100", "--out", str(out))
    assert code == 0
    assert "points=100" in stdout
    state = load_prefix(out)
    assert state == build_prefix(100)


def test_build_reuses_and_extends_cache(tmp_path, capsys):
    out1 = tmp_path / "a.ury"
    out2 = tmp_path / "b.ury"
    code1, stdout1, _ = run(capsys, "build", "--points", "40", "--out", str(out1))
    code2, stdout2, _ = run(capsys, "build", "--points", "60", "--out", str(out2))
    code3, stdout3, _ = run(capsys, "build", "--points", "40", "--out", str(out1))
    assert code1 == code2 == code3 == 0
    assert load_prefix(out2) == build_prefix(60)
    assert load_prefix(out1) == build_prefix(40)


def test_build_rebuilds_a_corrupt_v1_cache(tmp_path, capsys):
    # A v1 cache, whose records also carry the new point's row, here with
    # its last token 3/2 cut to 3/1: no v1 file is read, so build rebuilds
    # over it and writes a v2 cache.
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "set-collapse,all-prior,cw1.ury"
    path.write_text("URY0 v1 set-collapse,all-prior,cw1\n1 | 1 | C | 1\n2 | 1/2 | C | 1/2 3/1\n")
    out, dmat = tmp_path / "p.ury", tmp_path / "p.dmat"
    code, stdout, _ = run(capsys, "build", "--points", "14", "--out", str(out))
    assert code == 0 and stdout.startswith("points=14 ")
    assert run(capsys, "export", "--cache", str(out), "--out", str(dmat))[0] == 0
    assert run(capsys, "verify", "--dmat", str(dmat))[:2] == (0, "OK: metric on 14 points\n")
    assert parse_matrix_text(dmat.read_text()) == [list(row) for row in build_prefix(14).rho]
    assert load_prefix(path) == build_prefix(14)


def test_build_rebuilds_a_cache_with_a_non_ascii_step(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "set-collapse,all-prior,cw1.ury"
    path.write_text("URY0 v2 set-collapse,all-prior,cw1\n1 | 1 | C\n\u00b2 | 1/2 | C\n")
    code, stdout, _ = run(capsys, "build", "--points", "5")
    assert code == 0 and stdout.startswith("points=5 ")
    assert load_prefix(path) == build_prefix(5)


def test_build_rebuilds_a_cache_with_an_over_long_step(tmp_path, capsys):
    # A step of 5000 digits is past Python's default int-string limit; the
    # cache is unreadable like any other and is rebuilt.
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "set-collapse,all-prior,cw1.ury"
    path.write_text("URY0 v2 set-collapse,all-prior,cw1\n1 | 1 | C\n" + "0" * 4999 + "2 | 1/2 | C\n")
    code, stdout, _ = run(capsys, "build", "--points", "5")
    assert code == 0 and stdout.startswith("points=5 ")
    assert load_prefix(path) == build_prefix(5)


def test_build_replays_no_more_of_the_cache_than_asked(tmp_path, capsys, monkeypatch):
    run(capsys, "build", "--points", "200")
    path = tmp_path / "cache" / "set-collapse,all-prior,cw1.ury"
    cached = path.read_bytes()
    sizes = []
    build = construct.build_prefix

    def counting_build(m, *args, **kwargs):
        sizes.append(m)
        return build(m, *args, **kwargs)

    monkeypatch.setattr(construct, "build_prefix", counting_build)
    code, stdout, _ = run(capsys, "build", "--points", "10")
    assert code == 0 and sizes and max(sizes) <= 10
    assert path.read_bytes() == cached
    monkeypatch.setenv("URY_CACHE_DIR", str(tmp_path / "cold"))
    assert run(capsys, "build", "--points", "10") == (0, stdout, "")


def test_build_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "x.ury"
    out2 = tmp_path / "y.ury"
    _, stdout1, _ = run(capsys, "build", "--points", "30", "--out", str(out1))
    _, stdout2, _ = run(capsys, "build", "--points", "30", "--out", str(out2))
    assert stdout1 == stdout2
    assert out1.read_bytes() == out2.read_bytes()


def test_export_roundtrip(tmp_path, capsys):
    cache = tmp_path / "p.ury"
    dmat = tmp_path / "p.dmat"
    run(capsys, "build", "--points", "10", "--out", str(cache))
    code, _, _ = run(capsys, "export", "--cache", str(cache), "--points", "4", "--out", str(dmat))
    assert code == 0
    state = truncate_prefix(build_prefix(10), 4)
    assert dmat.read_text() == serialize_distance_matrix(FiniteMetricSpace(state.rho))


def test_export_matches_the_fraction_oracle(tmp_path, capsys):
    legacy = construct.ConstructionMode(
        duplicate_handling="legacy-multiset", q_override=((2,), (3,), (4,), (Fraction(1, 2), Fraction(1, 2)))
    )
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([list(map(str, entry)) for entry in legacy.q_override]))
    dmat = tmp_path / "p.dmat"
    for mode in (construct.DEFAULT_MODE, construct.ConstructionMode(case1_scope="labels-only"), legacy):
        cache = tmp_path / f"{mode.tag}.ury"
        flags = ["--duplicates", mode.duplicate_handling, "--case1-scope", mode.case1_scope]
        if mode.q_override is not None:
            flags += ["--q-override", str(labels)]
        assert run(capsys, "build", "--points", "90", "--out", str(cache), *flags)[0] == 0
        oracle = oracle_build_prefix(90, mode)
        for k in (1, 2, 45, 90):
            assert run(capsys, "export", "--cache", str(cache), "--points", str(k), "--out", str(dmat))[0] == 0
            assert dmat.read_text() == oracle_dmat_text([row[:k] for row in oracle.rho[:k]]), (mode, k)


def test_export_text_is_the_serialised_space_and_fraction_matrix(tmp_path, capsys):
    # A 60-point prefix has Case-1 rows (one repeated distance) and Case-2
    # rows; its 1- and 2-point exports have no row or one entry.
    cache, dmat = tmp_path / "p.ury", tmp_path / "p.dmat"
    run(capsys, "build", "--points", "60", "--out", str(cache))
    state = load_prefix(cache)
    assert {type(record) for record in state.steps} == {int, tuple}
    for k in (1, 2, 60):
        assert run(capsys, "export", "--cache", str(cache), "--points", str(k), "--out", str(dmat))[0] == 0
        part = truncate_prefix(state, k)
        space = FiniteMetricSpace.from_scaled_lower([list(part.row(i)) for i in range(k)], part.scale)
        assert dmat.read_text() == serialize_distance_matrix(space) == oracle_dmat_text(part.rho)


def test_a_failed_export_leaves_the_old_file(tmp_path, capsys, monkeypatch):
    # The export is written line by line; a fault while its rows are made
    # leaves the file it was to replace as it was, and no .tmp file.
    cache, dmat = tmp_path / "p.ury", tmp_path / "p.dmat"
    run(capsys, "build", "--points", "60", "--out", str(cache))
    assert run(capsys, "export", "--cache", str(cache), "--points", "20", "--out", str(dmat))[0] == 0
    old = dmat.read_bytes()
    step_row = construct._step_row

    def failing(heads, record, i):
        if i == 50:
            raise OSError("disk full")
        return step_row(heads, record, i)

    monkeypatch.setattr(construct, "_step_row", failing)
    code, stdout, stderr = run(capsys, "export", "--cache", str(cache), "--out", str(dmat))
    assert (code, stdout, json.loads(stderr)) == (2, "", {"error": "OSError", "detail": "disk full"})
    assert dmat.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "p.dmat", "p.ury"]


def test_build_and_export_do_not_load_numpy(tmp_path):
    # Only the triangle scan uses numpy, and neither command validates.
    child = (
        "import sys\n"
        "from ury.cli import main\n"
        "assert main(['build', '--points', '60', '--out', 'p.ury']) == 0\n"
        "assert main(['export', '--cache', 'p.ury', '--out', 'p.dmat']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "URY_CACHE_DIR": str(tmp_path / "cache")}
    result = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False"


# Small .dmat inputs, each of whose largest distance is more than twice its
# smallest except the equilateral space's: the 5-point path (points 0, 1, 3,
# 6 and 10 of a line), a 3-point target, and a ball family on the path.
SMALL_INPUTS = {
    "e.dmat": "4\n1\n1 1\n1 1 1\n",
    "path.dmat": "5\n1\n3 2\n6 5 3\n10 9 7 4\n",
    "t.dmat": "3\n1\n3 2\n",
    "family.json": json.dumps({"dmat": "path.dmat", "balls": [
        {"center": 1, "radius": 2}, {"center": 5, "radius": 9}, {"center": 3, "radius": 5}]}),
}


@pytest.mark.parametrize(
    "commands,stdout",
    [
        pytest.param(
            [["tightspan", "--dmat", "e.dmat", "--vertices"]],
            ["0 1 1 1", "1/2 1/2 1/2 1/2", "1 0 1 1", "1 1 0 1", "1 1 1 0"],
            id="tightspan-equilateral",
        ),
        pytest.param(
            [["tightspan", "--dmat", "path.dmat", "--vertices"]],
            ["0 1 3 6 10", "1 0 2 5 9", "3 2 0 3 7", "6 5 3 0 4", "10 9 7 4 0"],
            id="tightspan-path",
        ),
        pytest.param(
            [["extend", "--dmat", "path.dmat", "--support", "1,5", "--radii", "1,9"]],
            ["1 2 4 7 9"],
            id="extend",
        ),
        pytest.param([["balls", "--family", "family.json"]], None, id="balls"),
        pytest.param(
            [["build", "--points", "60", "--out", "p.ury"],
             ["embed", "--target", "t.dmat", "--prefix", "p.ury", "--limit", "60"]],
            None,
            id="embed",
        ),
    ],
)
def test_small_space_commands_do_not_load_numpy(tmp_path, commands, stdout):
    # A space this small has few enough candidate pairs for the Python
    # finish, and an equilateral space's scan ends before the prefilter: no
    # command loads numpy.
    for name, text in SMALL_INPUTS.items():
        (tmp_path / name).write_text(text)
    child = (
        "import sys\n"
        "from ury.cli import main\n"
        f"assert [main(argv) for argv in {commands!r}] == {[0] * len(commands)!r}\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "URY_CACHE_DIR": str(tmp_path / "cache")}
    result = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=True)
    lines = result.stdout.splitlines()
    assert lines[-1] == "False"
    if stdout is not None:
        assert lines[:-1] == stdout


def test_prefix_commands_do_not_load_numpy(tmp_path, monkeypatch, capsys):
    # A 450-point prefix export has about one candidate pair per point, far
    # within the budget, so the four commands that validate it print what
    # the numpy scan leads them to print, without loading numpy.  A 40-point
    # path, with one pair stretched past its 38 mids, has 703 candidate
    # pairs: verify loads numpy and prints the oracle's violations.
    n = 450
    state = build_prefix(n)
    (tmp_path / "p.dmat").write_text("".join(dmat_lines(n, map(state.row, range(1, n)), state.scale)))
    family = {"dmat": "p.dmat", "balls": [{"center": 1, "radius": 1}, {"center": 2, "radius": 2}]}
    (tmp_path / "family.json").write_text(json.dumps(family))
    path = [[i - j for j in range(i)] for i in range(40)]
    path[39][0] += 1
    (tmp_path / "path.dmat").write_text("".join(dmat_lines(40, path[1:], 1)))
    commands = [
        ["verify", "--dmat", "p.dmat"],
        ["extend", "--dmat", "p.dmat", "--support", "1", "--radii", "1"],
        ["balls", "--family", "family.json"],
        ["tightspan", "--dmat", "p.dmat", "--kuratowski", "1"],
    ]
    child = (
        "import contextlib, io, json, sys\n"
        "from ury.cli import main\n"
        "def run(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    return code, out.getvalue()\n"
        "print(json.dumps([[*run(argv), 'numpy' in sys.modules] for argv in json.loads(sys.argv[1])]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "URY_CACHE_DIR": str(tmp_path / "cache")}

    def in_child(argvs):
        result = subprocess.run([sys.executable, "-c", child, json.dumps(argvs)], cwd=tmp_path,
                                env=env, capture_output=True, text=True, check=True)
        return json.loads(result.stdout)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(metric, "_PAIRS_PER_POINT", 0)
    expected = [[*run(capsys, *argv)[:2], False] for argv in commands]
    assert expected[0] == [0, f"OK: metric on {n} points\n", False]
    assert all(code == 0 for code, _, _ in expected)
    assert in_child(commands) == expected

    rows = [metric.symmetric_row(path, x) for x in range(40)]
    lines = [f"violation triangle at {(v.indices[0] + 1, v.indices[1] + 1, v.indices[2] + 1)}: "
             f"{v.lhs} vs {v.rhs}\n" for v in oracle_violations(rows)]
    assert len(lines) == 38
    assert in_child([["verify", "--dmat", "path.dmat"]]) == [[1, "".join(lines), True]]


# Asking for more points than a cache holds: exit code and error kind as
# before the loaders took a point count.
def test_export_past_the_cache_size_is_a_value_error(tmp_path, capsys):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "10", "--out", str(cache))
    code, stdout, stderr = run(
        capsys, "export", "--cache", str(cache), "--points", "11", "--out", str(tmp_path / "x")
    )
    assert (code, stdout, json.loads(stderr)["error"]) == (2, "", "ValueError")
    assert not (tmp_path / "x").exists()


def test_embed_past_the_prefix_size_is_a_value_error(tmp_path, capsys):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "10", "--out", str(cache))
    target = tmp_path / "t.dmat"
    target.write_text("2\n1\n")
    code, stdout, stderr = run(
        capsys, "embed", "--target", str(target), "--prefix", str(cache), "--limit", "12"
    )
    assert (code, stdout, json.loads(stderr)["error"]) == (2, "", "ValueError")


def test_verify_ok(tmp_path, capsys):
    f = tmp_path / "t.dmat"
    f.write_text(T345)
    code, stdout, stderr = run(capsys, "verify", "--dmat", str(f))
    assert code == 0
    assert "OK: metric on 3 points" in stdout
    assert stderr == ""


def test_verify_violation_exit_one(tmp_path, capsys):
    f = tmp_path / "bad.dmat"
    f.write_text(BAD113)
    code, stdout, stderr = run(capsys, "verify", "--dmat", str(f))
    assert code == 1
    payload = json.loads(stderr)
    assert payload["error"] == "MetricViolation"
    assert payload["violations"] == [
        {"kind": "triangle", "indices": [2, 1, 3], "lhs": "3", "rhs": "2"}
    ]
    assert "3 vs 2" in stdout


# stdout, stderr and exit code of ``verify`` on the .dmat files in
# tests/golden, byte for byte as the Fraction implementation printed them.
# The triangle files hold 6 points, 40 points with a 15-bit scale and 40
# points with a 228-bit scale, past 2^62.  Each has at most 7 candidate
# pairs, so the Python finish checks them; the numpy scan is reached from
# the CLI by the dense path of test_prefix_commands_do_not_load_numpy.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name",
    ["verify_positivity", "verify_triangle_6", "verify_triangle_40_int64", "verify_triangle_40_bigint"],
)
def test_verify_violations_golden(name, capsys):
    code, stdout, stderr = run(capsys, "verify", "--dmat", str(GOLDEN / f"{name}.dmat"))
    assert code == 1
    assert stdout == (GOLDEN / f"{name}.out").read_text()
    assert stderr == (GOLDEN / f"{name}.err").read_text()


@pytest.mark.parametrize("text", ["3\x1c1\x1c2 3", "3\u20281\u20282 3\n", "3\r1\r2 3\r"])
def test_verify_breaks_lines_on_lf_only(tmp_path, capsys, text):
    f = tmp_path / "breaks.dmat"
    f.write_bytes(text.encode())
    code, stdout, stderr = run(capsys, "verify", "--dmat", str(f))
    assert (code, stdout) == (2, "")
    assert json.loads(stderr)["error"] == "ParseError"


def test_verify_quotes_a_bounded_prefix_of_a_one_line_file(tmp_path, capsys):
    # The 1000-point export, 6.1 MB, with its line breaks replaced: the whole
    # file is one header line, and the error quotes only its first 40
    # characters.
    state = build_prefix(1000)
    lines = "".join(dmat_lines(state.m, map(state.row, range(1, state.m)), state.scale)).splitlines()
    for sep in (" ", "\x1c"):
        f = tmp_path / "one-line.dmat"
        f.write_bytes(sep.join(lines).encode())
        code, stdout, stderr = run(capsys, "verify", "--dmat", str(f))
        assert (code, stdout) == (2, "")
        assert stderr.count("\n") == 1 and len(stderr) < 200
        detail = f"line 1, column 1: invalid point count {sep.join(lines)[:40]!r}..."
        assert json.loads(stderr) == {"error": "ParseError", "detail": detail}


def test_verify_quotes_a_bounded_prefix_of_a_bad_token(tmp_path, capsys):
    # A 2-point file whose one distance is a 1 000 000-character bad token.
    token = "1" * 999_999 + "x"
    f = tmp_path / "long-token.dmat"
    f.write_text(f"2\n{token}\n")
    code, stdout, stderr = run(capsys, "verify", "--dmat", str(f))
    assert (code, stdout) == (2, "")
    assert stderr.count("\n") == 1 and len(stderr.encode()) < 200
    detail = f"line 2, column 1: not a rational literal: {token[:40]!r}..."
    assert json.loads(stderr) == {"error": "ParseError", "detail": detail}


def test_verify_accepts_crlf_lines(tmp_path, capsys):
    f = tmp_path / "crlf.dmat"
    f.write_bytes(T345.replace("\n", "\r\n").encode())
    assert run(capsys, "verify", "--dmat", str(f)) == (0, "OK: metric on 3 points\n", "")


def test_verify_parse_error_exit_two(tmp_path, capsys):
    f = tmp_path / "mangled.dmat"
    f.write_text("2\n-1\n")
    code, _, stderr = run(capsys, "verify", "--dmat", str(f))
    assert code == 2
    assert json.loads(stderr)["error"] == "ParseError"


def test_extend_prints_new_row(tmp_path, capsys):
    f = tmp_path / "t.dmat"
    f.write_text(T345)
    out = tmp_path / "ext.dmat"
    code, stdout, _ = run(
        capsys, "extend", "--dmat", str(f), "--radii", "1,2,3", "--out", str(out)
    )
    assert code == 0
    assert stdout.strip() == "1 2 3"
    assert out.read_text() == "4\n3\n4 5\n1 2 3\n"


def test_extend_inadmissible(tmp_path, capsys):
    f = tmp_path / "t.dmat"
    f.write_text("2\n3\n")
    code, _, stderr = run(capsys, "extend", "--dmat", str(f), "--radii", "1,1")
    assert code == 1
    assert stderr == (
        '{"error": "Inadmissible", "detail": "radii at points 1 and 2 fail the upper bound",'
        ' "points": [1, 2], "side": "upper"}\n'
    )


def test_extend_rejects_decimal_radii(tmp_path, capsys):
    f = tmp_path / "t.dmat"
    f.write_text(T345)
    code, _, _ = run(capsys, "extend", "--dmat", str(f), "--radii", "1.5,2,3")
    assert code == 2


@pytest.mark.parametrize("support", ["1_0", "+1,2", "\u0661,2", " 1,2"])
def test_extend_rejects_a_support_that_is_not_ascii_digits(tmp_path, capsys, support):
    # int() reads "1_0" as 10, and "+1", " 1" and Arabic-Indic "\u0661" as 1.
    f = tmp_path / "t.dmat"
    f.write_text(T345)
    code, stdout, stderr = run(capsys, "extend", "--dmat", str(f), "--radii", "1,2", "--support", support)
    assert (code, stdout) == (2, "")
    assert "expected comma-separated integers" in stderr


@pytest.mark.parametrize(
    "argv",
    [["--pairs", "\u0661:2", "--source", "3"], ["--pairs", "1:1", "--source", "\u0663"]],
    ids=["pairs", "source"],
)
def test_isom_extend_rejects_indices_that_are_not_ascii_digits(tmp_path, capsys, argv):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "10", "--out", str(cache))
    code, stdout, _ = run(capsys, "isom-extend", "--prefix", str(cache), *argv)
    assert (code, stdout) == (2, "")


def test_tightspan_kuratowski_off_the_space_is_a_value_error(tmp_path, capsys):
    f = tmp_path / "t.dmat"
    f.write_text(T345)
    code, stdout, stderr = run(capsys, "tightspan", "--dmat", str(f), "--kuratowski", "9")
    assert (code, stdout) == (2, "")
    assert stderr.count("\n") == 1 and json.loads(stderr)["error"] == "ValueError"


def test_unknown_flag_is_an_error(capsys):
    code, _, _ = run(capsys, "verify", "--dmat", "x", "--frobnicate")
    assert code == 2


def test_balls_certificate(tmp_path, capsys):
    dmat = tmp_path / "sp.dmat"
    dmat.write_text("3\n1\n2 1\n")
    family = tmp_path / "fam.json"
    family.write_text(
        json.dumps(
            {
                "dmat": str(dmat),
                "balls": [
                    {"center": 1, "radius": "4"},
                    {"center": 2, "radius": "1"},
                    {"center": 3, "radius": "1"},
                ],
            }
        )
    )
    cert_path = tmp_path / "cert.json"
    code, stdout, _ = run(capsys, "balls", "--family", str(family), "--out", str(cert_path))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["witness_index"] == 4
    assert payload["survivors"] == [2, 3]
    assert payload["removals"] == [
        {"removed": 1, "dominating": 2, "lhs": "4", "rhs": "2"}
    ]
    spheres = {e["ball"]: e["on_sphere"] for e in payload["certificate"]}
    assert spheres == {1: False, 2: True, 3: True}
    assert json.loads(cert_path.read_text()) == payload


def test_balls_inline_dmat_and_infeasible(tmp_path, capsys):
    family = tmp_path / "fam.json"
    family.write_text(
        json.dumps(
            {
                "dmat": "2\n10\n",
                "balls": [{"center": 1, "radius": "1"}, {"center": 2, "radius": "2"}],
            }
        )
    )
    code, _, stderr = run(capsys, "balls", "--family", str(family))
    assert code == 1
    payload = json.loads(stderr)
    assert payload["error"] == "PairwiseInfeasible"
    assert payload["balls"] == [1, 2]
    assert payload["center_distance"] == "10"


def test_tightspan_vertices(tmp_path, capsys):
    f = tmp_path / "t.dmat"
    f.write_text(T345)
    code, stdout, _ = run(capsys, "tightspan", "--dmat", str(f), "--vertices")
    assert code == 0
    assert stdout.splitlines() == ["0 3 4", "1 2 3", "3 0 5", "4 5 0"]


# A shortest-path metric with 18 tight triangles and mixed denominators; its
# tight span has 14 vertices.  The stdout is pinned byte for byte: vertex
# order, deduplication and canonical rational formatting.
SIX_TIGHT = (
    "6\n3/8\n9/8 3/4\n47/40 4/5 31/20\n9/5 87/40 117/40 17/6\n"
    "4/3 57/40 87/40 5/8 5/2\n"
)
SIX_TIGHT_VERTICES = (
    "0 3/8 9/8 47/40 9/5 4/3\n"
    "17/240 107/240 287/240 53/48 83/48 101/80\n"
    "17/120 7/30 59/60 31/30 233/120 143/120\n"
    "17/80 73/240 253/240 77/80 449/240 269/240\n"
    "19/60 83/120 173/120 27/20 89/60 61/60\n"
    "3/8 0 3/4 4/5 87/40 57/40\n"
    "107/240 17/240 197/240 35/48 101/48 65/48\n"
    "11/24 11/20 13/10 29/24 13/8 7/8\n"
    "113/120 31/30 107/60 7/30 13/5 47/120\n"
    "9/8 3/4 0 31/20 117/40 87/40\n"
    "47/40 4/5 31/20 0 17/6 5/8\n"
    "19/16 307/240 487/240 23/48 113/48 7/48\n"
    "4/3 57/40 87/40 5/8 5/2 0\n"
    "9/5 87/40 117/40 17/6 0 5/2\n"
)


def test_tightspan_vertices_golden_six_points(tmp_path, capsys):
    f = tmp_path / "six.dmat"
    f.write_text(SIX_TIGHT)
    code, stdout, stderr = run(capsys, "tightspan", "--dmat", str(f), "--vertices")
    assert (code, stderr) == (0, "")
    assert stdout == SIX_TIGHT_VERTICES


def test_tightspan_vertices_refuses_eight_points_before_parsing(tmp_path, capsys, monkeypatch):
    from ury import metric

    def unexpected(*args):
        raise AssertionError("the distance matrix was parsed")

    monkeypatch.setattr(metric, "parse_lower_triangle", unexpected)
    f = tmp_path / "eight.dmat"
    f.write_text("8\n" + "".join(" ".join(["1"] * i) + "\n" for i in range(1, 8)))
    code, stdout, stderr = run(capsys, "tightspan", "--dmat", str(f), "--vertices")
    assert (code, stdout) == (1, "")
    payload = json.loads(stderr)
    assert payload["error"] == "TooLarge"
    assert payload["detail"] == "vertex enumeration is limited to 7 points"


def test_tightspan_vertices_refuses_a_one_line_header_before_parsing(tmp_path, capsys, monkeypatch):
    # Seven points with their rows separated by \x1c: one line, so the header
    # is no point count, and the refusal comes before the matrix is parsed.
    from ury import metric

    def unexpected(*args):
        raise AssertionError("the distance matrix was parsed")

    monkeypatch.setattr(metric, "parse_lower_triangle", unexpected)
    f = tmp_path / "seven.dmat"
    f.write_bytes(("7\x1c" + "\x1c".join(" ".join(["1"] * i) for i in range(1, 7))).encode())
    code, stdout, stderr = run(capsys, "tightspan", "--dmat", str(f), "--vertices")
    assert (code, stdout) == (2, "")
    assert json.loads(stderr)["error"] == "ParseError"


def test_tightspan_project_and_kuratowski(tmp_path, capsys):
    f = tmp_path / "two.dmat"
    f.write_text("2\n1\n")
    code, stdout, _ = run(capsys, "tightspan", "--dmat", str(f), "--project", "1 1")
    assert (code, stdout.strip()) == (0, "0 1")
    code, stdout, _ = run(capsys, "tightspan", "--dmat", str(f), "--kuratowski", "2")
    assert (code, stdout.strip()) == (0, "1 0")


# Malformed JSON inputs: exit 2 with one JSON line on stderr, no traceback.
@pytest.mark.parametrize(
    "argv,content,detail",
    [
        (["build", "--points", "3", "--q-override"], 5, "the override must be a JSON list, got 5"),
        (
            ["build", "--points", "3", "--q-override"],
            [[1], 2],
            "each item of the override must be a JSON list, got 2",
        ),
        (
            ["balls", "--family"],
            {"dmat": "2\n1\n", "balls": ["x"]},
            'each item of "balls" must be a JSON dict, got "x"',
        ),
        (["balls", "--family"], {"dmat": 7, "balls": []}, '"dmat" must be a JSON str, got 7'),
        (
            ["balls", "--family"],
            {"dmat": "2\n1\n", "balls": [{"center": 1.9, "radius": "1"}]},
            "a center must be a JSON int, got 1.9",
        ),
        (
            ["balls", "--family"],
            {"dmat": "2\n1\n", "balls": [{"center": True, "radius": "1"}]},
            "a center must be a JSON int, got true",
        ),
        (
            ["hull-check", "--candidate"],
            {"breakpoints": [1, 2], "a": [["0", "0"], ["0", "1"]]},
            'each item of "breakpoints" must be a JSON list, got 1',
        ),
    ],
    ids=[
        "override-number",
        "override-item-number",
        "balls-item-string",
        "dmat-number",
        "center-float",
        "center-bool",
        "breakpoints-numbers",
    ],
)
def test_malformed_json_input_is_a_usage_error(tmp_path, capsys, argv, content, detail):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(content))
    code, stdout, stderr = run(capsys, *argv, str(f))
    assert (code, stdout) == (2, "")
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": "ValueError", "detail": detail}


@pytest.mark.parametrize(
    "argv,what",
    [(["balls", "--family"], "the family"), (["hull-check", "--candidate"], "the candidate")],
    ids=["family", "candidate"],
)
def test_a_wide_json_value_of_the_wrong_type_is_quoted_cut(tmp_path, capsys, argv, what):
    # A list of 10^6 zeros is a 3 MB file; its error line quotes the first
    # 40 characters of its JSON text, then "...".
    f = tmp_path / "wide.json"
    f.write_text(json.dumps([0] * 1_000_000))
    code, stdout, stderr = run(capsys, *argv, str(f))
    assert (code, stdout) == (2, "")
    assert stderr.count("\n") == 1 and len(stderr.encode()) <= 200
    assert json.loads(stderr) == {
        "error": "ValueError",
        "detail": f"{what} must be a JSON dict, got {json.dumps([0] * 14)[:40]}...",
    }


@pytest.mark.parametrize(
    "argv",
    [["build", "--points", "3", "--q-override"], ["balls", "--family"], ["hull-check", "--candidate"]],
    ids=["override", "family", "candidate"],
)
def test_deeply_nested_json_input_is_a_usage_error(tmp_path, argv):
    # 100 000 nested arrays are a small file, but past the JSON parser's
    # recursion limit: exit 2 with one JSON error line and no traceback.
    f = tmp_path / "nested.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "URY_CACHE_DIR": str(tmp_path / "cache")}
    result = subprocess.run([sys.executable, "-m", "ury.cli", *argv, str(f)], cwd=tmp_path,
                            env=env, capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert json.loads(result.stderr) == {
        "error": "ValueError",
        "detail": f"JSON value in {f} is nested too deeply",
    }


def test_build_over_the_point_bound_is_refused_before_the_cache_is_read(tmp_path, capsys, monkeypatch):
    run(capsys, "build", "--points", "12")

    def no_replay(*args, **kwargs):
        raise AssertionError("the cache was replayed")

    monkeypatch.setattr(construct, "load_prefix_text", no_replay)
    code, stdout, stderr = run(capsys, "build", "--points", str(construct.PREFIX_MAX_POINTS + 1))
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "TooLarge",
        "detail": f"a prefix is limited to {construct.PREFIX_MAX_POINTS} points",
    }


@pytest.mark.parametrize("command", ["export", "embed", "isom-extend"])
def test_replaying_a_cache_over_the_point_bound_is_refused(tmp_path, capsys, monkeypatch, command):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "12", "--out", str(cache))
    target = tmp_path / "t.dmat"
    target.write_text("2\n1\n")
    argv = {
        "export": ["export", "--cache", str(cache), "--out", str(tmp_path / "x.dmat")],
        "embed": ["embed", "--target", str(target), "--prefix", str(cache)],
        "isom-extend": ["isom-extend", "--prefix", str(cache), "--source", "1"],
    }[command]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(construct, "PREFIX_MAX_POINTS", 11)
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "TooLarge", "detail": "a prefix is limited to 11 points"}


DMAT_COMMANDS = ["verify", "extend", "balls", "balls-inline", "tightspan", "embed"]


def dmat_argv(command: str, dmat: Path, cache: Path) -> list[str]:
    """The arguments of ``command`` (one of :data:`DMAT_COMMANDS`) reading
    ``dmat``, as a file or, for ``balls-inline``, as the text of a ball
    family written beside it; ``embed`` searches the prefix ``cache``."""
    family = dmat.with_name(f"family-{dmat.stem}.json")
    inline = command == "balls-inline"
    balls = [{"center": 1, "radius": "1"}]
    family.write_text(json.dumps({"dmat": dmat.read_text() if inline else str(dmat), "balls": balls}))
    return {
        "verify": ["verify", "--dmat", str(dmat)],
        "extend": ["extend", "--dmat", str(dmat), "--support", "1", "--radii", "1"],
        "balls": ["balls", "--family", str(family)],
        "balls-inline": ["balls", "--family", str(family)],
        "tightspan": ["tightspan", "--dmat", str(dmat), "--kuratowski", "1"],
        "embed": ["embed", "--target", str(dmat), "--prefix", str(cache)],
    }[command]


@pytest.mark.parametrize("command", DMAT_COMMANDS)
def test_a_dmat_over_the_point_bound_is_refused_before_its_rows(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(metric, "DMAT_MAX_POINTS", 11)
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "11", "--out", str(cache))
    at_bound = tmp_path / "at.dmat"
    run(capsys, "export", "--cache", str(cache), "--out", str(at_bound))
    # Twelve points, and rows that would be a parse error (exit 2) if read.
    over = tmp_path / "over.dmat"
    over.write_text("12\nx\n")

    assert run(capsys, *dmat_argv(command, at_bound, cache))[0] == 0
    code, stdout, stderr = run(capsys, *dmat_argv(command, over, cache))
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "TooLarge",
        "detail": "a distance matrix is limited to 11 points",
    }


@pytest.mark.parametrize("command", DMAT_COMMANDS)
def test_a_dmat_over_the_scale_bound_is_refused(tmp_path, capsys, monkeypatch, command):
    # The budget patched to what the 11-point export needs: the export is
    # read, and 11 points over 55 distinct primes are refused.
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "11", "--out", str(cache))
    at_bound = tmp_path / "at.dmat"
    run(capsys, "export", "--cache", str(cache), "--out", str(at_bound))
    bits = load_prefix(cache).scale.bit_length()
    monkeypatch.setattr(metric, "DMAT_MAX_PAIR_BITS", 55 * bits)
    over = tmp_path / "over.dmat"
    over.write_text(prime_denominator_dmat(11))

    assert run(capsys, *dmat_argv(command, at_bound, cache))[0] == 0
    code, stdout, stderr = run(capsys, *dmat_argv(command, over, cache))
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "TooLarge",
        "detail": f"a distance matrix of 11 points is limited to a common denominator of {bits} bits",
    }


def test_a_ball_family_over_the_bound_is_refused_before_any_pair(tmp_path, capsys, monkeypatch):
    family = tmp_path / "family.json"

    def balls(k: int) -> list[str]:
        family.write_text(json.dumps({"dmat": "2\n1\n", "balls": [{"center": 1, "radius": "1"}] * k}))
        return ["balls", "--family", str(family)]

    def no_pair(*args, **kwargs):
        raise AssertionError("a pair of balls was checked")

    with monkeypatch.context() as patch:
        patch.setattr(construct, "PREFIX_MAX_POINTS", 11)
        assert run(capsys, *balls(11))[0] == 0
    monkeypatch.setattr(extension, "katetov_failure", no_pair)
    code, stdout, stderr = run(capsys, *balls(construct.PREFIX_MAX_POINTS + 1))
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "TooLarge",
        "detail": f"a ball family is limited to {construct.PREFIX_MAX_POINTS} balls",
    }


def test_the_size_tool_runs_every_subcommand():
    # Loading the tool as a module starts no child process.
    path = Path(__file__).resolve().parents[1] / "tools" / "command_sizes.py"
    spec = importlib.util.spec_from_file_location("command_sizes", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parser = build_parser()
    (subcommands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(tool.COMMANDS) == sorted(subcommands)
    for command, runs in tool.COMMANDS.items():
        assert runs
        for _, argv in runs:
            args = parser.parse_args([token.format(n=10, h=5, d="work") for token in argv.split()])
            assert args.command == command
    # Every timed name is a function of the library.
    for command, timed in tool.TIMED.items():
        assert command in subcommands
        for target in timed.values():
            module, _, prefix = target.partition(".")
            assert any(name.startswith(prefix) for name in dir(importlib.import_module(f"ury.{module}")))


def test_every_name_the_benchmark_tracer_wraps_is_in_the_library():
    # The traced benchmark runs wrap these names, so a deleted one would
    # break only those runs.  The tracer imports the stdlib only; its source
    # is run here, so no bytecode is written beside it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer: dict = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)
    assert tracer["TARGETS"]
    for span, (module, attr, _) in tracer["TARGETS"].items():
        target = importlib.import_module(f"ury.{module}")
        for name in attr.split("."):  # a function, or Class.method
            assert hasattr(target, name), span
            target = getattr(target, name)
        assert callable(target), span


def test_hull_check_builtins(capsys):
    for name in ("h1", "h2", "segment"):
        code, stdout, _ = run(capsys, "hull-check", "--builtin", name)
        assert code == 0 and "PASS" in stdout
    code, stdout, stderr = run(capsys, "hull-check", "--builtin", "backtrack")
    assert code == 1
    assert json.loads(stderr)["error"] == "HullCheckFailed"


def test_hull_check_candidate_file(tmp_path, capsys):
    payload = {
        "breakpoints": [["0", "0"], ["1/2", "1/2"], ["1", "0"]],
        "a": [["0", "0"], ["0", "1"]],
    }
    f = tmp_path / "cand.json"
    f.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, "hull-check", "--candidate", str(f), "--step", "1/32")
    assert code == 0 and "PASS" in stdout


def test_c0_demo(capsys):
    code, stdout, _ = run(capsys, "c0-demo", "--n", "4")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["pairwise_distance"] == "1"
    assert payload["witness"] == ["1/2"] * 4
    assert payload["conclusion"] == "unique-linf-witness"

    code, stdout, stderr = run(capsys, "c0-demo", "--n", "4", "--radius", "1/4")
    assert code == 1
    assert json.loads(stdout)["conclusion"] == "none"
    assert json.loads(stderr)["error"] == "EmptyIntersection"


def test_embed_matches_library(tmp_path, capsys):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "60", "--out", str(cache))
    target = tmp_path / "t.dmat"
    target.write_text("2\n1\n")
    code, stdout, _ = run(
        capsys, "embed", "--target", str(target), "--prefix", str(cache), "--limit", "50"
    )
    assert code == 0
    payload = json.loads(stdout)
    library = find_isometric_embedding(
        FiniteMetricSpace([[0, 1], [1, 0]]), truncate_prefix(build_prefix(60), 50)
    )
    assert payload == {
        "status": "found",
        "mapping": [m + 1 for m in library.mapping],
        "searched": 50,
    }


def test_embed_not_found(tmp_path, capsys):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "3", "--out", str(cache))
    target = tmp_path / "t.dmat"
    target.write_text("2\n7\n")
    code, stdout, stderr = run(capsys, "embed", "--target", str(target), "--prefix", str(cache))
    assert code == 1
    assert json.loads(stdout)["status"] == "not-found-up-to"
    assert json.loads(stderr)["error"] == "NotFound"


def test_isom_extend(tmp_path, capsys):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "10", "--out", str(cache))
    code, stdout, _ = run(
        capsys, "isom-extend", "--prefix", str(cache), "--pairs", "1:1,2:2", "--source", "3"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["status"] == "extended"
    assert payload["new_pair"] == [3, 3]


def test_isom_extend_invalid_pairs(tmp_path, capsys):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "10", "--out", str(cache))
    code, _, stderr = run(
        capsys, "isom-extend", "--prefix", str(cache), "--pairs", "1:2,2:3", "--source", "4"
    )
    assert code == 1
    assert json.loads(stderr)["error"] == "InvalidPartialIsometry"


@pytest.mark.parametrize(
    "argv,detail",
    [
        (["--pairs", "1:1", "--source", "99"], "index 99 out of range"),
        (["--pairs", "1:31", "--source", "2"], "index 31 out of range"),
        (["--pairs", "0:1", "--source", "2"], "index 0 out of range"),
        (["--pairs", "1:2,2:3", "--source", "4"], "pairs 1 and 2 disagree: 1 != 3/2"),
        (["--pairs", "3:3", "--source", "3"], "source 3 already mapped"),
        (["--pairs", "1:1,1:2", "--source", "3"], "pairing must be injective on both sides"),
    ],
    ids=["source", "image", "zero", "disagree", "mapped", "injective"],
)
def test_isom_extend_errors_count_from_one(tmp_path, capsys, argv, detail):
    cache = tmp_path / "p.ury"
    run(capsys, "build", "--points", "30", "--out", str(cache))
    code, stdout, stderr = run(capsys, "isom-extend", "--prefix", str(cache), *argv)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "InvalidPartialIsometry", "detail": detail}


def build_and_scan(tmp_path, capsys, *argv):
    """Run ``build``; return its ``max_distance`` and the maximum over the
    exported matrix of the prefix it wrote, found by a full scan."""
    cache, dmat = tmp_path / "out.ury", tmp_path / "out.dmat"
    code, stdout, _ = run(capsys, "build", *argv, "--out", str(cache))
    assert code == 0
    assert run(capsys, "export", "--cache", str(cache), "--out", str(dmat))[0] == 0
    rows = parse_matrix_text(dmat.read_text())
    printed = stdout.rstrip("\n").rpartition(" max_distance=")[2]
    return Fraction(printed), max(v for row in rows for v in row)


def test_build_max_distance_matches_the_exported_matrix(tmp_path, capsys):
    cold = build_and_scan(tmp_path, capsys, "--points", "40")
    resumed = build_and_scan(tmp_path, capsys, "--points", "70")
    truncated = build_and_scan(tmp_path, capsys, "--points", "25")
    labels_only = build_and_scan(tmp_path, capsys, "--points", "60", "--case1-scope", "labels-only")
    for printed, scanned in (cold, resumed, truncated, labels_only):
        assert printed == scanned
    assert len({cold, resumed, truncated, labels_only}) == 4


@pytest.mark.parametrize("scope", ["all-prior", "labels-only"])
def test_legacy_build_max_distance_matches_the_exported_matrix(tmp_path, capsys, scope):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([["2"], ["3"], ["4"], ["1/2", "1/2"]]))
    flags = ["--duplicates", "legacy-multiset", "--case1-scope", scope, "--q-override", str(labels)]
    printed, scanned = build_and_scan(tmp_path, capsys, "--points", "12", *flags)
    assert printed == scanned


def test_missing_subcommand_usage_error(capsys):
    assert main([]) == 2


def test_no_command_reads_the_full_matrix_view(tmp_path, capsys, monkeypatch):
    # PrefixState holds its heads and step records; the full matrix
    # PrefixState.rho is a view for tests.  A read of it is counted, across
    # the commands that build or load a prefix and the library calls they
    # make.
    reads = []
    full = construct.PrefixState.rho.func
    monkeypatch.setattr(
        construct.PrefixState, "rho", property(lambda self: reads.append(self.m) or full(self))
    )
    cache, dmat, target = tmp_path / "p.ury", tmp_path / "p.dmat", tmp_path / "t.dmat"
    target.write_text(T345)
    commands = [
        ["build", "--points", "40"],
        ["build", "--points", "60", "--out", str(cache)],  # resumed from the cache
        ["build", "--points", "50", "--case1-scope", "labels-only"],
        ["export", "--cache", str(cache), "--points", "45", "--out", str(dmat)],
        ["embed", "--target", str(target), "--prefix", str(cache)],
        ["isom-extend", "--prefix", str(cache), "--pairs", "1:1,2:2", "--source", "3"],
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] in (0, 1), argv
    state = load_prefix(cache)
    find_isometric_embedding(FiniteMetricSpace.from_lower_triangle([[1], [1, 1]]), state)
    extended = embed.extend_partial_isometry(embed.PartialIsometry(state, [(0, 0), (1, 1)]), 2)
    assert extended.pairs == ((0, 0), (1, 1), (2, 2))
    assert reads == []
    assert state.rho and reads == [60]  # the counter works


def test_commands_build_only_the_rows_they_read(tmp_path, capsys, monkeypatch):
    # A row past a prefix's heads is made from its step record by
    # construct._step_row; each call after the command's load is counted.
    # On a 400-point prefix, embed and isom-extend read the index entries of
    # the points they try, and each entry makes at most its own row, so
    # neither makes a row per point.
    cache, target = tmp_path / "p.ury", tmp_path / "t.dmat"
    assert run(capsys, "build", "--points", "400", "--out", str(cache))[0] == 0
    state = build_prefix(400)
    points = (2, 5, 9)
    target.write_text(serialize_matrix([[state.distance(a, b) for b in points] for a in points]))
    loaded, built = [], []
    load, step_row = construct.load_prefix, construct._step_row

    def counted_load(*args):
        loaded.append(load(*args))
        return loaded[-1]

    monkeypatch.setattr(construct, "load_prefix", counted_load)
    monkeypatch.setattr(
        construct, "_step_row", lambda heads, record, i: loaded and built.append(i) or step_row(heads, record, i)
    )
    for argv, payload in (
        (["embed", "--target", str(target), "--prefix", str(cache)], {"mapping": [3, 6, 10]}),
        (["isom-extend", "--prefix", str(cache), "--pairs", "1:1,2:2", "--source", "400"], {"new_pair": [400, 400]}),
        (["isom-extend", "--prefix", str(cache), "--pairs", "1:1,3:5", "--source", "53"], {"new_pair": [53, 13]}),
    ):
        loaded.clear()
        built.clear()
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and payload.items() <= json.loads(stdout).items(), argv
        entries = set(loaded[0].distance_buckets.keys())  # the entries built
        assert set(built) <= entries and len(built) == len(set(built)) and len(entries) < 10, argv
    assert built == [] and entries == {0, 4}  # the images of 1 and 3, both head points
@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-string limit")
@pytest.mark.parametrize("label", ["run", "bare"], ids=["string", "json-number"])
def test_a_q_override_label_past_the_int_string_limit_is_a_usage_error(tmp_path, capsys, label):
    limit = sys.get_int_max_str_digits()
    run_ = "7" * (limit + 1)
    labels = tmp_path / "labels.json"
    labels.write_text(f'[["1"], ["{run_}"]]' if label == "run" else f"[[1], [{run_}]]")
    code, stdout, stderr = run(capsys, "build", "--points", "3", "--q-override", str(labels))
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "ValueError", "detail": f"integer longer than the {limit}-digit limit"}


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-string limit")
def test_a_c0_radius_past_the_int_string_limit_is_a_usage_error(capsys):
    limit = sys.get_int_max_str_digits()
    code, stdout, stderr = run(capsys, "c0-demo", "--n", "4", "--radius", "7" * (limit + 1))
    assert (code, stdout) == (2, "")
    assert stderr.endswith(f"argument --radius: integer longer than the {limit}-digit limit\n")
    assert "set_int_max_str_digits" not in stderr
