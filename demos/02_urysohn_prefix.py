"""Growing the rational universal space one point at a time.

The construction enumerates every nonempty finite set of positive
rationals, then adds one point per label set: when the set's elements fit
the existing distances (the two-sided correctness condition), the new
point's distances come from a min-formula over the label; otherwise every
new distance is a running maximum.  The result is a metric space whose
completion is the classical universal homogeneous metric space — here we
only ever build finite prefixes, exactly.
"""

from ury import (
    ConstructionMode,
    build_prefix,
    calkin_wilf,
    cardinality_of_index,
    dump_prefix_text,
    is_correctly_defined,
    load_prefix_text,
    subset_of_index,
    validate_metric,
)

# The enumeration.  Indices not divisible by 4 label singletons; an index
# with 2-adic valuation p >= 2 labels a p-element set.
print("label cardinalities for 1..12:", [cardinality_of_index(n) for n in range(1, 13)])

# Positive rationals are ordered breadth-first through the Calkin-Wilf
# tree, so every finite set of them gets exactly one index.
print("Calkin-Wilf order:", [str(calkin_wilf(i)) for i in range(1, 8)])
for n in (1, 2, 3, 4, 8, 12):
    print(f"  label {n}: {{{', '.join(str(r) for r in subset_of_index(n).elements)}}}")

# Build ten points and peek at the log.
state = build_prefix(10)
print("\nfirst distances: rho(a2,a1) =", state.rho[1][0], " rho(a3,a1) =", state.rho[2][0])
flags = "".join("C" if rec.correctly_defined else "I" for rec in state.log)
print("step outcomes (C = correctly defined):", flags)
print("10-point prefix is a metric:", validate_metric(state.rho).ok)

# The cache logs only labels and C/I flags; loading replays the
# construction, and prefixes resume from it.
text = dump_prefix_text(build_prefix(4))
print("\ncache text for 4 points:")
print(text)
assert load_prefix_text(text) == build_prefix(4)
assert build_prefix(10, resume=load_prefix_text(text)) == state

# Why repeated elements must collapse: read {1/2, 1/2} as a genuine
# two-element multiset after the sets {2}, {3}, {4} and the construction
# contradicts itself.  The 'legacy-multiset' mode exists to replay that
# failure; the default collapses duplicates and stays consistent.
override = (("2",), ("3",), ("4",), ("1/2", "1/2"))
prefix4 = build_prefix(4, ConstructionMode(q_override=override[:3]))
print("against {2},{3},{4}: is {1/2,1/2} correctly defined?",
      is_correctly_defined(prefix4, ("1/2", "1/2")))

legacy = ConstructionMode("legacy-multiset", "labels-only", override)
broken = build_prefix(5, legacy)
print("legacy distances from a5:", [str(broken.rho[4][j]) for j in range(4)])
print("legacy rho(a4,a3) =", broken.rho[3][2], "(7 > 2 + 2: triangle broken)")
report = validate_metric(broken.rho)
print("violations:", [(v.kind, tuple(i + 1 for i in v.indices)) for v in report.violations])

collapsed = build_prefix(5, ConstructionMode(q_override=override))
print("same sets with duplicate collapse: metric?", validate_metric(collapsed.rho).ok)
