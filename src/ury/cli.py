"""Batch command-line surface over the library.

One subcommand per capability: ``build``, ``export``, ``verify``,
``extend``, ``balls``, ``tightspan``, ``hull-check``, ``c0-demo``,
``embed``, ``isom-extend``.  Every command is a thin adapter over the
library and is deterministic: identical inputs produce byte-identical
outputs.

Exit codes: 0 on success; 1 on a domain failure (axiom violation found,
inadmissible radii, infeasible family, nothing found) with a
machine-readable JSON reason on stderr; 2 on usage or parse errors.

Conventions: all numeric flag values are exact rationals (decimal notation
is rejected, never converted), and all point/ball indices in flags, files,
and printed output are 1-based; the library API underneath is 0-based.
The only environment dependence is ``URY_CACHE_DIR``, which overrides the
default prefix-cache directory ``.ury-cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import construct, embed, extension, linf, metric, tightspan
from .errors import (
    _QUOTED,
    Inadmissible,
    InvalidMode,
    InvalidPartialIsometry,
    PairwiseInfeasible,
    ParseError,
    TooLarge,
    UryError,
)
from .rational import format_ratio, format_rational, parse_int, parse_rational

BUILTIN_HULLS = {
    "h1": [("0", "0"), ("1", "1")],
    "h2": [("0", "0"), ("1/2", "1/2"), ("1", "0")],
    "segment": [("0", "0"), ("0", "1")],
    "backtrack": [("0", "0"), ("2", "0"), ("0", "0")],
}
HULL_REFERENCE = (("0", "0"), ("0", "1"))


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _digits(text: str) -> bool:
    """ASCII digits only, unlike ``int()``: no sign, ``_``, space or other script."""
    return text.isascii() and text.isdigit()


def _positive_int(text: str) -> int:
    if not _digits(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _index_list(text: str) -> list[int]:
    tokens = [t for t in text.split(",") if t]
    if not all(map(_digits, tokens)):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return [int(t) for t in tokens]


def _rational_list(text: str) -> list[Fraction]:
    try:
        return [parse_rational(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pair_list(text: str) -> list[tuple[int, int]]:
    pairs = []
    if not text:
        return pairs
    for chunk in text.split(","):
        left, sep, right = chunk.partition(":")
        if not sep or not _digits(left) or not _digits(right):
            raise argparse.ArgumentTypeError(f"expected s:t pairs, got {chunk!r}")
        pairs.append((int(left), int(right)))
    return pairs


def _fail(kind: str, detail: str, **extra) -> int:
    payload = {"error": kind, "detail": detail}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _json_value(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (a bool is no int); else a ValueError,
    so a malformed JSON file is a usage error, not a crash.  The message
    quotes the value's JSON text cut as :func:`~ury.errors.quoted` cuts,
    and encodes no more of it than it shows."""
    if isinstance(value, bool) or not isinstance(value, kind):
        shown = ""
        for chunk in json.JSONEncoder().iterencode(value):
            shown += chunk
            if len(shown) > _QUOTED:
                shown = shown[:_QUOTED] + "..."
                break
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {shown}")
    return value


def _json_items(value, kind: type, what: str) -> list:
    """The items of the JSON array ``value``, each of JSON type ``kind``."""
    return [_json_value(v, kind, f"each item of {what}") for v in _json_value(value, list, what)]


def _violation_dict(v: metric.Violation) -> dict:
    return {
        "kind": v.kind,
        "indices": [i + 1 for i in v.indices],
        "lhs": format_rational(v.lhs),
        "rhs": format_rational(v.rhs),
    }


def _read_text(path: str) -> str:
    # Line ends stay as written, so that a .dmat line may end in LF or CRLF
    # and in nothing else (a lone CR is not turned into a line break).
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _read_json(path: str):
    """The JSON value in file ``path``.  An integer longer than the
    interpreter's int-string limit is a ValueError with the library's
    reason, as in every other input, and so is a value nested deeper than
    the parser's recursion limit."""
    try:
        return json.loads(_read_text(path), parse_int=parse_int)
    except RecursionError:
        raise ValueError(f"JSON value in {path} is nested too deeply") from None


def _read_space(path: str) -> metric.FiniteMetricSpace:
    """A ``.dmat`` file as a validated space.  The text is dropped once
    parsed, so that the validation does not hold it too: ``verify`` does
    the same."""
    lower, scale = metric.parse_lower_triangle(_read_text(path))
    return metric.FiniteMetricSpace.from_scaled_lower(lower, scale)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cache_dir() -> str:
    return os.environ.get("URY_CACHE_DIR", ".ury-cache")


def cmd_build(args) -> int:
    override = None
    if args.q_override:
        data = _json_items(_read_json(args.q_override), list, "the override")
        override = tuple(tuple(parse_rational(str(v)) for v in entry) for entry in data)
    mode = construct.ConstructionMode(
        duplicate_handling=args.duplicates,
        case1_scope=args.case1_scope,
        q_override=override,
    )

    cache_path = os.path.join(_cache_dir(), f"{mode.tag}.ury")
    resume = None
    # An oversized request is refused by build_prefix before any replay.
    if os.path.exists(cache_path) and args.points <= construct.PREFIX_MAX_POINTS:
        try:
            text = _read_text(cache_path)
            # One line per point; replay no more of the cache than is asked for.
            resume = construct.load_prefix_text(text, min(args.points, len(text.splitlines())))
            state = construct.build_prefix(args.points, mode, resume=resume)
        except (ParseError, OSError, InvalidMode):
            # An unreadable cache, or one whose mode tag or labels disagree
            # with the requested enumeration: rebuild from scratch.
            resume = None
    if resume is None:
        state = construct.build_prefix(args.points, mode)

    os.makedirs(_cache_dir(), exist_ok=True)
    if resume is None or resume.m < state.m:
        construct.save_prefix(state, cache_path)
    if args.out:
        construct.save_prefix(state, args.out)

    correct = sum(1 for rec in state.log if rec.correctly_defined)
    print(
        f"points={state.m} mode={state.mode_tag} correctly_defined={correct}/{len(state.log)} "
        f"max_distance={format_rational(state.running_max[-1])}"
    )
    return 0


def cmd_export(args) -> int:
    state = construct.load_prefix(args.cache, args.points)
    rows = map(state.row, range(1, state.m))
    construct.write_atomically(args.out, metric.dmat_lines(state.m, rows, state.scale))
    print(f"wrote {state.m}-point distance matrix to {args.out}")
    return 0


def cmd_verify(args) -> int:
    lower, scale = metric.parse_lower_triangle(_read_text(args.dmat))
    report = metric.validate_lower_triangle(lower, scale)
    if report.ok:
        print(f"OK: metric on {len(lower)} points")
        return 0
    violations = list(map(_violation_dict, report.violations))
    for d in violations:
        print(f"violation {d['kind']} at {tuple(d['indices'])}: {d['lhs']} vs {d['rhs']}")
    return _fail("MetricViolation", f"{len(violations)} axiom violation(s)", violations=violations)


def cmd_extend(args) -> int:
    space = _read_space(args.dmat)
    support_1b = args.support if args.support else list(range(1, space.n + 1))
    support = [i - 1 for i in support_1b]
    req = extension.ExtensionRequest(space, support, args.radii)
    try:
        ext = extension.extend_one_point(req)
    except Inadmissible as exc:
        i, j = exc.pair
        return _fail(
            "Inadmissible",
            f"radii at points {support_1b[i]} and {support_1b[j]} fail the {exc.side} bound",
            points=[support_1b[i], support_1b[j]],
            side=exc.side,
        )
    print(" ".join(format_ratio(v, ext.scale) for v in ext.lower[space.n]))
    if args.out:
        construct.write_atomically(args.out, metric.dmat_lines(ext.n, ext.lower[1:], ext.scale))
    return 0


def cmd_balls(args) -> int:
    data = _json_value(_read_json(args.family), dict, "the family")
    dmat = _json_value(data["dmat"], str, '"dmat"')
    if "\n" in dmat:
        space = metric.parse_distance_matrix(dmat)
    else:
        space = _read_space(dmat)
    balls = [
        (_json_value(b["center"], int, "a center") - 1, parse_rational(str(b["radius"])))
        for b in _json_items(data["balls"], dict, '"balls"')
    ]
    # The reduction is O(k^2) in k balls: bound k as a prefix's points are.
    if len(balls) > construct.PREFIX_MAX_POINTS:
        raise TooLarge(f"a ball family is limited to {construct.PREFIX_MAX_POINTS} balls")
    family = extension.BallFamily(space, balls)
    try:
        result = extension.ball_intersection_witness(family)
    except PairwiseInfeasible as exc:
        return _fail(
            "PairwiseInfeasible",
            f"balls {exc.pair[0] + 1} and {exc.pair[1] + 1} cannot meet",
            balls=[exc.pair[0] + 1, exc.pair[1] + 1],
            center_distance=format_rational(exc.lhs),
            radius_sum=format_rational(exc.rhs),
        )
    payload = {
        "witness_index": result.witness + 1,
        "survivors": [i + 1 for i in result.trace.survivors],
        "removals": [
            {
                "removed": r.removed + 1,
                "dominating": r.dominating + 1,
                "lhs": format_rational(r.lhs),
                "rhs": format_rational(r.rhs),
            }
            for r in result.trace.removals
        ],
        "certificate": [
            {
                "ball": e.ball + 1,
                "center": e.center + 1,
                "radius": format_rational(e.radius),
                "distance": format_rational(e.distance),
                "on_sphere": e.on_sphere,
            }
            for e in result.certificate
        ],
        "extended_dmat": metric.serialize_distance_matrix(result.space),
    }
    out = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(out)
    if args.out:
        construct.write_atomically(args.out, [out])
    return 0


def cmd_tightspan(args) -> int:
    if args.vertices:
        # Refuse an oversized space on its header, before the O(n^3) validation.
        tightspan.check_vertex_limit(metric.dmat_point_count(_read_text(args.dmat)))
    space = _read_space(args.dmat)
    if args.vertices:
        functions = tightspan.tight_span_vertices(space).vertices
    elif args.kuratowski is not None:
        functions = [tightspan.kuratowski(space, args.kuratowski - 1)]
    else:
        values = [parse_rational(t) for t in args.project.split()]
        functions = [tightspan.extremal_below(tightspan.KatetovFunction(space, values))]
    for f in functions:
        print(" ".join(format_rational(v) for v in f.values))
    return 0


def cmd_hull_check(args) -> int:
    if args.builtin:
        breakpoints = BUILTIN_HULLS[args.builtin]
        reference = HULL_REFERENCE
    else:
        data = _json_value(_read_json(args.candidate), dict, "the candidate")
        breakpoints = [
            (str(x), str(y)) for x, y in _json_items(data["breakpoints"], list, '"breakpoints"')
        ]
        reference = [(str(x), str(y)) for x, y in _json_items(data["a"], list, '"a"')]
    candidate = tightspan.PathHullCandidate(breakpoints, reference)
    report = tightspan.verify_hull_candidate(candidate, args.step)
    print(
        f"endpoints: distance {format_rational(report.endpoint_distance)} "
        f"vs reference {format_rational(report.reference_distance)} "
        f"-> {'ok' if report.endpoint_ok else 'FAIL'}"
    )
    if report.isometry_ok:
        print(f"isometry: exact at all {report.sample_count} samples")
    else:
        v = report.first_violation
        print(
            f"isometry: FAIL at parameters ({format_rational(v.param_a)}, "
            f"{format_rational(v.param_b)}): distance {format_rational(v.actual)} "
            f"!= {format_rational(v.expected)}"
        )
    if report.ok:
        print("PASS: isometric to a segment with matching endpoints")
        return 0
    print("FAIL")
    detail = "endpoint distance mismatch" if not report.endpoint_ok else "not isometric to a segment"
    return _fail("HullCheckFailed", detail)


def cmd_c0_demo(args) -> int:
    report = linf.c0_counterexample(args.n, args.radius)
    payload = {
        "n": report.N,
        "pairwise_distance": format_rational(report.pairwise_distance),
        "pairwise_feasible": report.pairwise_feasible,
        "conclusion": report.conclusion,
        "witness": [format_rational(v) for v in report.witness] if report.witness else None,
        "witness_tail_value": (
            format_rational(report.witness_tail_value)
            if report.witness_tail_value is not None
            else None
        ),
    }
    print(json.dumps(payload))
    if report.witness is None:
        return _fail("EmptyIntersection", "the ball family has no common point")
    return 0


def cmd_embed(args) -> int:
    state = construct.load_prefix(args.prefix, args.limit)
    target = _read_space(args.target)
    result = embed.find_isometric_embedding(target, state)
    payload = {
        "status": result.status,
        "mapping": [i + 1 for i in result.mapping] if result.mapping else None,
        "searched": result.searched_prefix_length,
    }
    print(json.dumps(payload))
    if result.status != embed.FOUND:
        return _fail("NotFound", f"no embedding within the first {state.m} points")
    return 0


def cmd_isom_extend(args) -> int:
    state = construct.load_prefix(args.prefix)
    pairs = [(s - 1, t - 1) for s, t in args.pairs]
    try:
        partial = embed.PartialIsometry(state, pairs)
        extended = embed.extend_partial_isometry(partial, args.source - 1)
    except InvalidPartialIsometry as exc:
        return _fail("InvalidPartialIsometry", exc.message(1))
    if extended is None:
        print(json.dumps({"status": "not-found", "searched": state.m}))
        return _fail("NotFound", f"no compatible image within the first {state.m} points")
    payload = {
        "status": "extended",
        "pairs": [[s + 1, t + 1] for s, t in extended.pairs],
        "new_pair": [extended.pairs[-1][0] + 1, extended.pairs[-1][1] + 1],
    }
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ury",
        description="Exact rational toolkit for Urysohn-style metric constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a prefix of the rational universal space")
    p.add_argument("--points", type=_positive_int, required=True)
    p.add_argument("--out", help="also write the cache file here")
    p.add_argument(
        "--duplicates",
        choices=[construct.SET_COLLAPSE, construct.LEGACY_MULTISET],
        default=construct.SET_COLLAPSE,
    )
    p.add_argument(
        "--case1-scope",
        choices=[construct.ALL_PRIOR, construct.LABELS_ONLY],
        default=construct.ALL_PRIOR,
    )
    p.add_argument("--q-override", help="JSON file: list of label sets (rational strings)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("export", help="convert a prefix cache to a .dmat matrix")
    p.add_argument("--cache", required=True)
    p.add_argument("--points", type=_positive_int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", help="validate the metric axioms of a .dmat file")
    p.add_argument("--dmat", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="adjoin a point at prescribed distances")
    p.add_argument("--dmat", required=True)
    p.add_argument("--radii", type=_rational_list, required=True)
    p.add_argument("--support", type=_index_list, help="1-based points (default: all)")
    p.add_argument("--out", help="write the extended matrix here")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("balls", help="witness a finite ball family intersection")
    p.add_argument("--family", required=True, help="JSON: {dmat, balls:[{center,radius}]}")
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_balls)

    p = sub.add_parser("tightspan", help="tight-span computations on a .dmat space")
    p.add_argument("--dmat", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--vertices", action="store_true", help="enumerate all vertices")
    g.add_argument("--project", help="space-separated values to project to an extremal function")
    g.add_argument("--kuratowski", type=_positive_int, help="print f_a for a 1-based point")
    p.set_defaults(func=cmd_tightspan)

    p = sub.add_parser("hull-check", help="verify a max-norm polyline hull candidate")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--candidate", help="JSON: {breakpoints: [[x,y],...], a: [[x,y],[x,y]]}")
    g.add_argument("--builtin", choices=sorted(BUILTIN_HULLS))
    p.add_argument("--step", type=_rational_flag, default=Fraction(1, 64))
    p.set_defaults(func=cmd_hull_check)

    p = sub.add_parser("c0-demo", help="truncated null-sequence ball intersection demo")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--radius", type=_rational_flag, default=Fraction(1, 2))
    p.set_defaults(func=cmd_c0_demo)

    p = sub.add_parser("embed", help="search a prefix for an isometric copy of a target")
    p.add_argument("--target", required=True, help=".dmat file")
    p.add_argument("--prefix", required=True, help="prefix cache file")
    p.add_argument("--limit", type=_positive_int, help="search only the first L points")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("isom-extend", help="extend a partial isometry within a prefix")
    p.add_argument("--prefix", required=True, help="prefix cache file")
    p.add_argument("--pairs", type=_pair_list, default=[], help="existing s:t pairs, 1-based")
    p.add_argument("--source", type=_positive_int, required=True)
    p.set_defaults(func=cmd_isom_extend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, KeyError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except UryError as exc:
        return _fail(type(exc).__name__, str(exc))


def entry_point() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
