"""Span tracing around the public functions of each ``ury`` layer.

The traced run replaces selected public functions with wrappers that record
one span per call: ``[name, start, end, parent span, op id]``.  Spans stay in
memory and are reduced to per-layer metrics when the run ends.  A layer's
self time is its spans' durations minus the time covered by their direct
child spans.

Wrapping happens at module attributes, and every ``ury`` module attribute
that holds the same function object is replaced too, so names bound by
``from .x import f`` are caught as well.  Methods (``FiniteMetricSpace.__init__``,
``PartialIsometry.__init__``) are patched on the class, which every importer
shares.  ``ury.rational`` and ``fractions.Fraction`` are never wrapped: they
are per-scalar and reached only through the other layers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import comb, lcm

LAYERS = ("cli", "construct", "metric", "embed", "tightspan", "extension", "linf")

# cli.main spans are charged to cli.<op>_s by the name of the benchmark op
# that issued them.
CLI_OPS = ("build_cold", "build_resume", "export", "verify", "embed", "isom_extend")

INT64_LIMIT = 2**62
SMALL_N = 40  # below this size metric validation loops over Fractions


class NullTracer:
    """The untraced run: every hook is a no-op."""

    active = False

    def begin_op(self, name: str) -> None:
        pass

    def end_op(self, factor: float) -> None:
        pass

    def count(self, name: str, k=1) -> None:
        pass


class Tracer:
    active = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_names: list[str] = ["setup"]
        # Reference-speed seconds per raw second of each op (see speed.py);
        # op 0 is set-up.
        self.op_factors: list[float] = [1.0]
        self.counts: Counter = Counter()
        self.resumed_from: list[int | None] = []  # resume.m seen by each build_prefix call
        self.scale_bits_max = 0

    def begin_op(self, name: str) -> None:
        self.op_names.append(name)
        self.op_factors.append(1.0)

    def end_op(self, factor: float) -> None:
        self.op_factors[-1] = factor

    def count(self, name: str, k=1) -> None:
        self.counts[name] += k

    def wrap(self, name: str, fn, post=None):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.op_names) - 1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if post is not None:
                post(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS` across all loaded ury modules."""
        import ury.cli  # noqa: F401  (the package itself loads every other layer)

        modules = [m for k, m in sys.modules.items() if k == "ury" or k.startswith("ury.")]
        for span_name, (module_name, attr, post) in TARGETS.items():
            module = sys.modules[f"ury.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(span_name, getattr(cls, method), post))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span_name, original, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # -- reduction -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; times are reference-speed seconds."""
        spans = self.spans
        dur = [(rec[2] - rec[1]) * self.op_factors[rec[4]] for rec in spans]
        child_time = [0.0] * len(spans)
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                child_time[rec[3]] += dur[i]
        total = Counter()  # inclusive seconds per span name
        self_by_layer = Counter()
        cli_by_op = Counter()
        for i, rec in enumerate(spans):
            total[rec[0]] += dur[i]
            self_by_layer[rec[0].split(".")[0]] += dur[i] - child_time[i]
            if rec[0] == "cli.main":
                cli_by_op[self.op_names[rec[4]]] += dur[i]

        def outermost(names: set[str]) -> float:
            return sum(
                dur[i]
                for i, rec in enumerate(spans)
                if rec[0] in names and (rec[3] < 0 or spans[rec[3]][0] not in names)
            )

        c = self.counts
        queries = c["embed.queries"]
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_by_layer[layer], "s")
        out.update({
            "cli.commands": (c["cli.commands"], "count"),
            "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
            **{f"cli.{op}_s": (cli_by_op[op], "s") for op in CLI_OPS},
            "construct.build_s": (total["construct.build_prefix"], "s"),
            "construct.points_built": (c["construct.points_built"], "count"),
            "construct.case1_steps": (c["construct.case1_steps"], "count"),
            "construct.case2_steps": (c["construct.case2_steps"], "count"),
            "construct.resumed_builds": (c["construct.resumed_builds"], "count"),
            "construct.cache_load_s": (
                outermost({"construct.load_prefix", "construct.load_prefix_text"}), "s"),
            "construct.cache_save_s": (
                outermost({"construct.save_prefix", "construct.dump_prefix_text"}), "s"),
            "construct.cache_bytes_read": (c["construct.cache_bytes_read"], "bytes"),
            "construct.cache_bytes_written": (c["construct.cache_bytes_written"], "bytes"),
            "metric.validate_s": (total["metric.validate_metric"], "s"),
            "metric.validate_calls": (c["metric.validate_calls"], "count"),
            "metric.validate_small_n_calls": (c["metric.validate_small_n_calls"], "count"),
            "metric.validate_below_2p62_calls": (c["metric.validate_below_2p62_calls"], "count"),
            "metric.validate_above_2p62_calls": (c["metric.validate_above_2p62_calls"], "count"),
            "metric.triples": (c["metric.triples"], "count"),
            "metric.scale_bits_max": (self.scale_bits_max, "bits"),
            "metric.parse_s": (total["metric.parse_matrix_text"], "s"),
            "metric.serialize_s": (total["metric.serialize_matrix"], "s"),
            "metric.space_init_s": (total["metric.FiniteMetricSpace"], "s"),
            "embed.find_s": (total["embed.find_isometric_embedding"], "s"),
            "embed.queries": (queries, "count"),
            "embed.found": (c["embed.found"], "count"),
            "embed.found_ratio": (c["embed.found"] / queries if queries else 0.0, "ratio"),
            "embed.extend_s": (total["embed.extend_partial_isometry"], "s"),
            "embed.extend_calls": (c["embed.extend_calls"], "count"),
            "tightspan.vertices_s": (total["tightspan.tight_span_vertices"], "s"),
            "tightspan.vertex_calls": (c["tightspan.vertex_calls"], "count"),
            "tightspan.vertices_found": (c["tightspan.vertices_found"], "count"),
            "tightspan.project_s": (total["tightspan.extremal_below"], "s"),
            "tightspan.hull_s": (total["tightspan.verify_hull_candidate"], "s"),
            "tightspan.hull_samples": (c["tightspan.hull_samples"], "count"),
            "extension.extend_s": (total["extension.extend_one_point"], "s"),
            "extension.witness_s": (total["extension.ball_intersection_witness"], "s"),
            "extension.balls_removed": (c["extension.balls_removed"], "count"),
            "linf.c0_s": (total["linf.c0_counterexample"], "s"),
            "linf.c0_dims": (c["linf.c0_dims"], "count"),
            "trace.spans": (len(spans), "count"),
        })
        return out


# -- post-call hooks: counters taken after the span has closed ---------------

def _post_cli_main(tr: Tracer, args, kwargs, code) -> None:
    tr.count("cli.commands")


def _post_build(tr: Tracer, args, kwargs, state) -> None:
    resume = kwargs.get("resume", args[2] if len(args) > 2 else None)
    done = resume.m if resume is not None else 1
    new_steps = state.log[done - 1:] if state.m > done else ()
    case2 = sum(rec.correctly_defined for rec in new_steps)
    tr.count("construct.points_built", max(state.m - (resume.m if resume else 0), 0))
    tr.count("construct.case2_steps", case2)
    tr.count("construct.case1_steps", len(new_steps) - case2)
    tr.count("construct.resumed_builds", int(resume is not None))
    tr.resumed_from.append(resume.m if resume is not None else None)


def _post_load_text(tr: Tracer, args, kwargs, state) -> None:
    tr.count("construct.cache_bytes_read", len(args[0]))


def _post_dump_text(tr: Tracer, args, kwargs, text) -> None:
    tr.count("construct.cache_bytes_written", len(text))


def _post_validate(tr: Tracer, args, kwargs, report) -> None:
    rows = args[0]
    n = len(rows)
    tr.count("metric.validate_calls")
    tr.count("metric.triples", comb(n, 3))
    if n < SMALL_N:
        tr.count("metric.validate_small_n_calls")
        return
    values = {(v.numerator, v.denominator) for row in rows for v in row}
    scale = lcm(*(den for _, den in values))
    top = max(num * (scale // den) for num, den in values)
    tr.scale_bits_max = max(tr.scale_bits_max, top.bit_length())
    side = "below" if top < INT64_LIMIT else "above"
    tr.count(f"metric.validate_{side}_2p62_calls")


def _post_find(tr: Tracer, args, kwargs, result) -> None:
    tr.count("embed.queries")
    tr.count("embed.found", int(result.mapping is not None))


def _post_extend_iso(tr: Tracer, args, kwargs, result) -> None:
    tr.count("embed.extend_calls")


def _post_vertices(tr: Tracer, args, kwargs, result) -> None:
    tr.count("tightspan.vertex_calls")
    tr.count("tightspan.vertices_found", len(result.vertices))


def _post_hull(tr: Tracer, args, kwargs, report) -> None:
    tr.count("tightspan.hull_samples", report.sample_count)


def _post_witness(tr: Tracer, args, kwargs, result) -> None:
    tr.count("extension.balls_removed", len(result.trace.removals))


def _post_c0(tr: Tracer, args, kwargs, report) -> None:
    tr.count("linf.c0_dims", report.N)


TARGETS = {
    "cli.main": ("cli", "main", _post_cli_main),
    "construct.build_prefix": ("construct", "build_prefix", _post_build),
    "construct.load_prefix": ("construct", "load_prefix", None),
    "construct.save_prefix": ("construct", "save_prefix", None),
    "construct.load_prefix_text": ("construct", "load_prefix_text", _post_load_text),
    "construct.dump_prefix_text": ("construct", "dump_prefix_text", _post_dump_text),
    "construct.truncate_prefix": ("construct", "truncate_prefix", None),
    "metric.validate_metric": ("metric", "validate_metric", _post_validate),
    "metric.FiniteMetricSpace": ("metric", "FiniteMetricSpace.__init__", None),
    "metric.parse_matrix_text": ("metric", "parse_matrix_text", None),
    "metric.serialize_matrix": ("metric", "serialize_matrix", None),
    "embed.find_isometric_embedding": ("embed", "find_isometric_embedding", _post_find),
    "embed.PartialIsometry": ("embed", "PartialIsometry.__init__", None),
    "embed.extend_partial_isometry": ("embed", "extend_partial_isometry", _post_extend_iso),
    "tightspan.tight_span_vertices": ("tightspan", "tight_span_vertices", _post_vertices),
    "tightspan.extremal_below": ("tightspan", "extremal_below", None),
    "tightspan.kuratowski": ("tightspan", "kuratowski", None),
    "tightspan.verify_hull_candidate": ("tightspan", "verify_hull_candidate", _post_hull),
    "extension.extend_one_point": ("extension", "extend_one_point", None),
    "extension.reduce_ball_family": ("extension", "reduce_ball_family", None),
    "extension.ball_intersection_witness": (
        "extension", "ball_intersection_witness", _post_witness),
    "linf.c0_counterexample": ("linf", "c0_counterexample", _post_c0),
    "linf.box_intersection": ("linf", "box_intersection", None),
}
