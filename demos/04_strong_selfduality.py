"""Strong self-duality: equality with the dual, not just isomorphism.

On top of the line sums vanishing, the variety coincides with its dual under
the canonical coordinate identification iff every integer affine relation
is balanced: prod e^e over positive entries == prod e^(-e) over negative
entries (0^0 = 1).  The test reads the fundamental circuits, the primitive
relations on the lex-first column basis plus one more column, named by that
column.  Their size is compared on exponents over a coprime base, so no
power is formed; their sign is checked after halving sums of circuits that
are relations too, so the generators reach all of the relation lattice up
to odd index.  The answer is the same on every Gale basis.  For Lawrence
lifts this collapses to a parity condition on the block: some subset of
rows with all column sums odd.
"""

from toricdual import (
    config_from_gale,
    family_alpha,
    is_self_dual,
    is_strongly_self_dual,
    lawrence,
    lawrence_strong_parity,
    parse_configuration,
    segre,
)

print(__doc__)

print("=" * 72)
print("Point in the projective line: self-dual but NOT strongly")
print("=" * 72)
point = parse_configuration([[1, 1]])
print("self-dual:", is_self_dual(point).value)
v = is_strongly_self_dual(point)
print("strongly self-dual:", v.value)
print("unbalanced circuits:", v.witness["unbalanced_circuits"], "(1^1 vs (-1)^1)")

print()
print("=" * 72)
print("Segre varieties are strongly self-dual for every m")
print("=" * 72)
for m in (2, 3, 4):
    print(f"m={m}:", is_strongly_self_dual(segre(m)).value)

print()
print("=" * 72)
print("A 7x9 strongly self-dual example that is not a Lawrence lift")
print("=" * 72)
strong = parse_configuration(
    [
        [1, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 1, 0, 0, 0, 0, 2, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 1, 0, 0, -2, -2],
        [0, 0, 0, 0, 0, 1, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, -1],
    ]
)
v = is_strongly_self_dual(strong)
print("strongly self-dual:", v.value)
for cls in v.witness["classes"]:
    print(f"  line class {cls['members']}, multiples {cls['multiples']}")
print("unbalanced circuits:", v.witness["unbalanced_circuits"])

print()
print("=" * 72)
print("Balance can fail even when the line sums vanish")
print("=" * 72)
scaled_conic = parse_configuration([[1, 1, 1], [0, 1, -1]])
print("self-dual:", is_self_dual(scaled_conic).value)
v = is_strongly_self_dual(scaled_conic)
print("strongly self-dual:", v.value, " unbalanced circuits:", v.witness["unbalanced_circuits"])

print()
print("=" * 72)
print("Balanced circuits, yet not strong: half a sum of circuits decides")
print("=" * 72)
# Gale dual rows ±(1,0), ±(0,3), ±(1,-1), ±(1,1); the circuits span the
# relations with index 2
halving = parse_configuration(
    [
        [1, 0, 0, 1, 0, 2, 0, -1],
        [0, 1, 0, 1, 0, 1, 0, -2],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 3, 0, -3],
        [0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1],
    ]
)
v = is_strongly_self_dual(halving)
print("self-dual:", is_self_dual(halving).value, " strongly self-dual:", v.value)
print("halvings:", v.witness["halvings"], " unbalanced circuits:", v.witness["unbalanced_circuits"])

print()
print("=" * 72)
print("Entries far past any power: e^e is never formed")
print("=" * 72)
v = is_strongly_self_dual(family_alpha(10**30))
print("family_alpha(10^30):", v.value, " unbalanced circuits:", v.witness["unbalanced_circuits"])
a, b = 10**30 + 1, 10**30 + 3
v = is_strongly_self_dual(config_from_gale([[a], [b], [-a], [-b]]))
print("Gale column (a, b, -a, -b), a = 10^30 + 1, b = 10^30 + 3:", v.value)

print()
print("=" * 72)
print("Parity criterion for Lawrence blocks")
print("=" * 72)
for block in ([[1, 1, 1]], [[2, 1]], [[1, 2, 3], [0, 1, 1]]):
    parity = lawrence_strong_parity(block)
    direct = is_strongly_self_dual(lawrence(block))
    print(f"M={block}: parity={parity.value} direct={direct.value} witness={parity.witness}")
