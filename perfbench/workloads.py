"""The three benchmark workloads.

Each workload is one closed-loop client: it issues one operation, waits for
it, checks it, and only then issues the next.  Inputs come from the seed
alone (``random.Random`` seeded with a string is stable across Python
versions); the program only ever sees the generated inputs.  A workload runs
in passes: pass 0's inputs are made during set-up, later passes draw fresh
inputs from the same seed before their first operation.

Only the call into the program is timed.  Output checks (``oracles``) run
after the clock stops, and every operation also appends a canonical text
record of its result; the sha256 of pass 0's records is the run's output
digest.  Nothing in a record depends on the run directory.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import shutil
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from ury import cli, construct, embed, extension, linf, metric, tightspan

import oracles
from oracles import CheckFailed, check


def random_metric(rng: random.Random, n: int, style: int) -> list[list[Fraction]]:
    """A random rational metric on n points.

    Style 0 draws every distance from [b, 2b], so every triangle is strict.
    Style 1 is the shortest-path closure of a random weighted complete graph,
    which leaves many triangles tight (degenerate tight spans).
    """
    q = rng.choice([1, 2, 3, 4, 6])
    if style == 0:
        b = rng.randint(2, 6)
        lo, hi = b * q, 2 * b * q
    else:
        lo, hi = q, 5 * q
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(lo, hi), q)
    if style == 1:
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if m[i][k] + m[k][j] < m[i][j]:
                        m[i][j] = m[i][k] + m[k][j]
    return m


def fmt(values) -> str:
    return " ".join(str(v) for v in values)


class PassResult:
    def __init__(self):
        self.latencies: list[float] = []  # reference-speed seconds, one per attempted op
        self.raw_latencies: list[float] = []  # wall-clock seconds
        self.failures: list[str] = []
        self.records: list[str] = []
        self.traffic: dict[str, Counter] = {}

    def tally(self, key: str, value) -> None:
        self.traffic.setdefault(key, Counter())[str(value)] += 1

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.records).encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, tracer, probe, workdir: Path):
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.workdir = workdir

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def prepare(self, index: int) -> None:
        """Draw the inputs of pass ``index`` (pass 0's are drawn in set-up)."""
        self.inputs = self.make_inputs(index)

    def timed(self, res: PassResult, mark) -> None:
        raw, scaled = self.probe.elapsed(mark)
        res.raw_latencies.append(raw)
        res.latencies.append(scaled)
        self.tracer.end_op(scaled / raw if raw > 0 else 1.0)

    def op(self, res: PassResult, name: str, call, verify, record, pre=None) -> None:
        """Time ``call()``; then run ``verify`` and ``record`` on its result.

        A raised exception, a failed ``pre`` condition or a failed check
        makes the op a failure; it is still counted as attempted and timed.
        """
        problem = None
        if pre is not None:
            try:
                pre()
            except CheckFailed as exc:
                problem = f"precondition: {exc}"
        self.tracer.begin_op(name)
        mark = self.probe.mark()
        try:
            out = call()
        except Exception as exc:  # any error from the program is a failed op
            self.timed(res, mark)
            res.failures.append(f"{name}: raised {exc!r}")
            res.records.append(f"{name}: raised {type(exc).__name__}")
            return
        self.timed(res, mark)
        try:
            verify(out)
        except Exception as exc:  # includes malformed output tripping the oracle
            problem = problem or f"{type(exc).__name__}: {exc}"
        try:
            res.records.append(record(out))
        except Exception as exc:
            res.records.append(f"{name}: unrecordable output")
            problem = problem or f"record: {type(exc).__name__}: {exc}"
        if problem:
            res.failures.append(f"{name}: {problem}")


# ---------------------------------------------------------------------------
# prefix_pipeline: the CLI user path
# ---------------------------------------------------------------------------

_BUILD_LINE = re.compile(r"points=(\d+) mode=\S+ correctly_defined=(\d+)/(\d+) max_distance=\S+\n")
_CACHE_RECORD = re.compile(r"^\d+ \| ", re.M)


def count_cache_points(path: Path) -> int:
    """Points in a prefix cache file, read without the library: one record
    line ``n | ...`` per step after the first point."""
    return len(_CACHE_RECORD.findall(path.read_text(encoding="utf-8"))) + 1


class PrefixPipeline(Workload):
    """build (cold) -> build (resume) -> export+verify twice -> embed -> isom-extend,
    all through ``ury.cli.main`` with a private, initially empty cache."""

    name = "prefix_pipeline"
    COLD, FULL, EXPORTS, EMBED_LIMIT = 900, 1000, (350, 450), 400
    BASE = 120  # inputs are drawn from this many leading prefix points

    def __init__(self, seed, tracer, probe, workdir):
        super().__init__(seed, tracer, probe, workdir)
        self.base = construct.build_prefix(self.BASE).rho
        self.inputs = self.make_inputs(0)

    def make_inputs(self, index: int):
        rng = self.rng(index)
        base = self.base
        target = oracles.submatrix(base, rng.sample(range(self.BASE), 5))
        # A swap of two points at some distance, plus a source that the swap
        # extends to inside the base points (so the CLI search succeeds).
        while True:
            a, b = rng.sample(range(self.BASE), 2)
            pairs = [(a, b), (b, a)]
            sources = [s for s in range(self.BASE) if s not in (a, b)]
            rng.shuffle(sources)
            source = next(
                (s for s in sources if oracles.smallest_image(base, pairs, s, self.BASE) is not None),
                None,
            )
            if source is not None:
                return target, pairs, source

    def cli(self, argv: list[str]):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def run_pass(self, index: int) -> PassResult:
        target, pairs, source = self.inputs
        rundir = self.workdir / f"pass{index}"
        rundir.mkdir(parents=True)
        home = Path.cwd()
        os.environ["URY_CACHE_DIR"] = "cache"  # relative: inside the run directory
        os.chdir(rundir)
        try:
            return self._run(target, pairs, source)
        finally:
            os.chdir(home)
            shutil.rmtree(rundir)

    def _run(self, target, pairs, source) -> PassResult:
        res = PassResult()
        Path("target.dmat").write_text(oracles.dmat_text(target), encoding="utf-8")
        check_rng = self.rng(1_000_000)
        exported: dict[int, list[list[Fraction]]] = {}
        tracer = self.tracer

        def cache_points() -> int:
            files = sorted(Path("cache").glob("*.ury")) if Path("cache").is_dir() else []
            check(len(files) <= 1, f"{len(files)} cache files")
            return count_cache_points(files[0]) if files else 0

        def cache_is(points: int):
            return lambda: check(cache_points() == points, f"cache holds {cache_points()} points, expected {points}")

        def run(name, argv, verify, pre=None, files=()):
            def record(out):
                code, stdout = out
                tracer.count("cli.stdout_bytes", len(stdout.encode()))
                digests = "".join(
                    f"{f} sha256 {hashlib.sha256(Path(f).read_bytes()).hexdigest()}\n" for f in files)
                return f"ury {' '.join(argv)} -> {code}\n{stdout}{digests}"

            self.op(res, name, lambda: self.cli(argv), verify, record, pre)

        def verify_build(points):
            def verify(out):
                code, stdout = out
                check(code == 0, f"exit code {code}")
                m = _BUILD_LINE.fullmatch(stdout)
                check(m is not None and int(m[1]) == points and int(m[3]) == points - 1,
                      f"unexpected build output {stdout!r}")
                check(cache_points() == points, "cache was not extended to the requested size")
            return verify

        run("build_cold", ["build", "--points", str(self.COLD)], verify_build(self.COLD),
            pre=cache_is(0))

        def verify_resume(out):
            verify_build(self.FULL)(out)
            check(count_cache_points(Path("p.ury")) == self.FULL, "p.ury has the wrong size")
            if tracer.active:
                resumed = tracer.resumed_from
                check(resumed[-1:] == [self.COLD], f"build did not resume from the cache: {resumed}")

        run("build_resume", ["build", "--points", str(self.FULL), "--out", "p.ury"],
            verify_resume, pre=cache_is(self.COLD))

        for k in self.EXPORTS:
            dmat = f"p{k}.dmat"

            def verify_export(out, k=k, dmat=dmat):
                code, stdout = out
                check(code == 0, f"exit code {code}")
                check(stdout == f"wrote {k}-point distance matrix to {dmat}\n", f"output {stdout!r}")
                m = oracles.parse_dmat(Path(dmat).read_text(encoding="utf-8"))
                check(len(m) == k, "wrong point count")
                base = self.base
                check(all(m[i][j] == base[i][j] for i in range(self.BASE) for j in range(i)),
                      "export disagrees with the in-process prefix")
                exported[k] = m

            run("export", ["export", "--cache", "p.ury", "--points", str(k), "--out", dmat],
                verify_export, files=[dmat])

            def verify_verify(out, k=k):
                code, stdout = out
                check(code == 0 and stdout == f"OK: metric on {k} points\n", f"verify said {stdout!r}")
                m = exported[k]
                oracles.check_sampled_triangles(m, check_rng, 4000, f"p{k}.dmat")
                if k != self.EXPORTS[0]:
                    small = exported[self.EXPORTS[0]]
                    check(all(m[i][:len(small)] == small[i] for i in range(len(small))),
                          "exports are not nested prefixes")
                res.tally("space_size", k)

            run("verify", ["verify", "--dmat", dmat], verify_verify)

        def verify_embed(out):
            code, stdout = out
            check(code == 0, f"exit code {code}")
            payload = json.loads(stdout)
            check(payload["status"] == "found" and payload["searched"] == self.EMBED_LIMIT,
                  f"embed said {payload}")
            mapping = tuple(i - 1 for i in payload["mapping"])
            rows = exported[self.EXPORTS[-1]]
            oracles.check_embedding(target, rows, mapping, self.EMBED_LIMIT)
            check(mapping == oracles.smallest_embedding(target, rows, self.EMBED_LIMIT),
                  "embedding is not the lexicographically smallest")
            res.tally("target_size", len(target))
            res.tally("embed", "found")

        run("embed", ["embed", "--target", "target.dmat", "--prefix", "p.ury",
                      "--limit", str(self.EMBED_LIMIT)], verify_embed)

        pair_text = ",".join(f"{s + 1}:{t + 1}" for s, t in pairs)

        def verify_isom(out):
            code, stdout = out
            check(code == 0, f"exit code {code}")
            payload = json.loads(stdout)
            rows = exported[self.EXPORTS[-1]]
            image = oracles.smallest_image(rows, pairs, source, self.BASE)
            expected = [[s + 1, t + 1] for s, t in pairs + [(source, image)]]
            check(payload == {"status": "extended", "pairs": expected, "new_pair": expected[-1]},
                  f"isom-extend said {payload}, expected new pair {expected[-1]}")

        run("isom_extend", ["isom-extend", "--prefix", "p.ury", "--pairs", pair_text,
                            "--source", str(source + 1)], verify_isom)
        return res


# ---------------------------------------------------------------------------
# embed_queries: many searches against one prefix
# ---------------------------------------------------------------------------

class EmbedQueries(Workload):
    """100 queries per pass against one in-memory prefix: 70 found subspace
    searches, 20 random-space searches, 10 partial-isometry extensions."""

    name = "embed_queries"
    POINTS = 200
    MIX = (("sub", 70), ("rand", 20), ("ext", 10))

    def __init__(self, seed, tracer, probe, workdir):
        super().__init__(seed, tracer, probe, workdir)
        self.prefix = construct.build_prefix(self.POINTS)
        self.rows = self.prefix.rho
        by_distance: dict[Fraction, list[tuple[int, int]]] = {}
        for a in range(self.POINTS):
            for b in range(self.POINTS):
                if a != b:
                    by_distance.setdefault(self.rows[a][b], []).append((a, b))
        self.by_distance = by_distance
        self.inputs = self.make_inputs(0)

    def make_inputs(self, index: int):
        rng = self.rng(index)
        m = self.POINTS
        queries = []
        for kind, count in self.MIX:
            for j in range(count):
                size = 3 + j % 4
                if kind == "sub":
                    target = oracles.submatrix(self.rows, rng.sample(range(m), size))
                elif kind == "rand":
                    target = random_metric(rng, size, j % 2)
                else:
                    a, b = rng.sample(range(m), 2)
                    c, d = rng.choice(self.by_distance[self.rows[a][b]])
                    source = rng.choice([s for s in range(m) if s not in (a, b)])
                    queries.append((kind, [(a, c), (b, d)], source))
                    continue
                queries.append((kind, target, metric.FiniteMetricSpace(target)))
        rng.shuffle(queries)
        return queries

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        prefix, rows, m = self.prefix, self.rows, self.POINTS
        for kind, first, second in self.inputs:
            if kind == "ext":
                pairs, source = first, second

                def verify_ext(out, pairs=pairs, source=source):
                    image = oracles.smallest_image(rows, pairs, source, m)
                    expected = None if image is None else tuple(pairs) + ((source, image),)
                    check((out.pairs if out else None) == expected, f"extension {out} != {expected}")
                    res.tally("extension", "extended" if out else "none")

                self.op(
                    res, kind,
                    lambda pairs=pairs, source=source: embed.extend_partial_isometry(
                        embed.PartialIsometry(prefix, pairs), source),
                    verify_ext,
                    lambda out, pairs=pairs, source=source:
                        f"ext {pairs} {source} -> {out.pairs if out else None}",
                )
                continue
            target, space = first, second

            def verify_find(out, kind=kind, target=target):
                check(out.searched_prefix_length == m, "wrong searched length")
                expected = oracles.smallest_embedding(target, rows, m)
                if out.mapping is not None:
                    oracles.check_embedding(target, rows, out.mapping, m)
                check(out.mapping == expected, f"mapping {out.mapping} != {expected}")
                check(kind != "sub" or out.status == embed.FOUND, "subspace not found")
                res.tally("target_size", len(target))
                res.tally(f"{kind}_result", out.status)

            self.op(
                res, kind,
                lambda space=space: embed.find_isometric_embedding(space, prefix),
                verify_find,
                lambda out, kind=kind, target=target:
                    f"{kind} {oracles.dmat_text(target)!r} -> {out.status} {out.mapping}",
            )
        return res


# ---------------------------------------------------------------------------
# katetov_mix: Katetov functions, extensions, tight spans, max-norm demos
# ---------------------------------------------------------------------------

H2 = [("0", "0"), ("1/2", "1/2"), ("1", "0")]  # the CLI's builtin h2
HULL_REFERENCE = [("0", "0"), ("0", "1")]
HULL_STEP = Fraction(1, 256)


class KatetovMix(Workload):
    """17 spaces of each size 3..8 per pass, each one op through the Katetov,
    extension and ball-witness calls, with its tight span as a second op when
    n <= 5; then one 6-point tight span, two hull checks and one c0 demo."""

    name = "katetov_mix"
    PER_SIZE = 17
    SIZES = range(3, 9)

    def __init__(self, seed, tracer, probe, workdir):
        super().__init__(seed, tracer, probe, workdir)
        # The 6-point tight span takes 5-7 s depending on the space's
        # combinatorial type, which would dominate the seed-to-seed spread
        # of wall_s; so that one space is the same for every seed.
        self.six = random_metric(random.Random(f"{self.name}:six"), 6, 0)
        self.six_space = metric.FiniteMetricSpace(self.six)
        self.inputs = self.make_inputs(0)

    def make_inputs(self, index: int):
        rng = self.rng(index)
        spaces = []
        for n in self.SIZES:
            for j in range(self.PER_SIZE):
                d = random_metric(rng, n, j % 2)
                diameter = max(max(row) for row in d)
                center = rng.randrange(n)
                offset = Fraction(rng.randint(1, 6), rng.choice([1, 2, 4]))
                support = rng.sample(range(n), rng.randint(1, n))
                balls = [
                    (rng.randrange(n), diameter / 2 + Fraction(rng.randint(0, 8), rng.choice([1, 2, 4])))
                    for _ in range(rng.randint(2, n + 2))
                ]
                spaces.append({
                    "d": d,
                    "space": metric.FiniteMetricSpace(d),
                    "point": rng.randrange(n),
                    # g >= the row maximum is admissible: d(x,y) <= g(x) + g(y).
                    "g": [max(row) + Fraction(rng.randint(0, 4), rng.choice([1, 2, 3])) for row in d],
                    # d(center, .) + offset is 1-Lipschitz and above d(center, .),
                    # so these radii pass the two-sided check.
                    "support": support,
                    "radii": [d[center][x] + offset for x in support],
                    # Every radius is at least half the diameter: pairwise feasible.
                    "balls": balls,
                })
        weights = [rng.randint(1, 6) for _ in range(rng.randint(3, 5))]
        x = y = Fraction(0)
        polyline = [(x, y)]
        for w in weights:
            dx = Fraction(w, sum(weights))
            x, y = x + dx, y + dx * Fraction(rng.randint(-4, 4), 4)  # |dy| <= dx
            polyline.append((x, y))
        return {
            "spaces": spaces,
            "polyline": polyline,
            "c0": rng.randint(60, 80),
        }

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        def vertices(name, d, space):
            self.op(res, name, lambda: tightspan.tight_span_vertices(space),
                    lambda out: self.verify_vertices(res, d, out),
                    lambda out: f"{name} " + "; ".join(fmt(v.values) for v in out.vertices))

        for sp in self.inputs["spaces"]:
            n = len(sp["d"])
            self.op(res, f"space{n}", lambda sp=sp: self.space_calls(sp),
                    lambda out, sp=sp: self.verify_space(res, sp, out), self.record_space)
            if n <= 5:
                vertices(f"tightspan{n}", sp["d"], sp["space"])
        vertices("tightspan6", self.six, self.six_space)

        polyline = self.inputs["polyline"]
        for name, bps in (("hull_h2", H2), ("hull_seeded", polyline)):
            bps_q = [(Fraction(a), Fraction(b)) for a, b in bps]
            ref_q = [(Fraction(a), Fraction(b)) for a, b in HULL_REFERENCE]
            self.op(
                res, name,
                lambda bps=bps: tightspan.verify_hull_candidate(
                    tightspan.PathHullCandidate(bps, HULL_REFERENCE), HULL_STEP),
                lambda out, name=name, bps_q=bps_q, ref_q=ref_q:
                    oracles.check_hull(out, bps_q, ref_q, HULL_STEP, name),
                lambda out, name=name: f"{name} ok={out.ok} samples={out.sample_count} "
                                       f"violation={out.first_violation}",
            )

        n = self.inputs["c0"]
        self.op(res, "c0", lambda: linf.c0_counterexample(n),
                lambda out: oracles.check_c0(out, n, "c0"),
                lambda out: f"c0 {out.N} {out.conclusion} {fmt(out.witness or ())}")
        return res

    @staticmethod
    def space_calls(sp):
        space = sp["space"]
        f = tightspan.kuratowski(space, sp["point"])
        e = tightspan.extremal_below(tightspan.KatetovFunction(space, sp["g"]))
        x = extension.extend_one_point(extension.ExtensionRequest(space, sp["support"], sp["radii"]))
        w = extension.ball_intersection_witness(extension.BallFamily(space, sp["balls"]))
        return f, e, x, w

    @staticmethod
    def verify_space(res: PassResult, sp, out) -> None:
        f, e, x, w = out
        d = sp["d"]
        check(f.values == tuple(d[sp["point"]]), "kuratowski is not the distance row")
        oracles.check_extremal(f.values, d, "kuratowski")
        check(all(a <= b for a, b in zip(e.values, sp["g"])), "extremal_below went above g")
        oracles.check_extremal(e.values, d, "extremal_below")
        oracles.check_one_point_extension(d, x.matrix, sp["support"], sp["radii"], "extension")
        oracles.check_ball_witness(d, sp["balls"], w.space.matrix, w.witness, w.certificate,
                                   set(w.trace.survivors), "ball witness")
        res.tally("space_size", len(d))
        res.tally("balls_removed", len(w.trace.removals))

    @staticmethod
    def verify_vertices(res: PassResult, d, out) -> None:
        oracles.check_vertices([v.values for v in out.vertices], d, f"{len(d)}-point tight span")
        res.tally("tight_span_size", len(d))

    @staticmethod
    def record_space(out) -> str:
        f, e, x, w = out
        return (
            f"kuratowski {fmt(f.values)}\nextremal {fmt(e.values)}\n"
            f"extension {fmt(x.matrix[-1])}\nwitness {fmt(w.space.matrix[w.witness])} "
            f"removed {[r.removed for r in w.trace.removals]}"
        )


WORKLOADS = {cls.name: cls for cls in (PrefixPipeline, EmbedQueries, KatetovMix)}
