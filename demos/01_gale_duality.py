"""Gale duality in five minutes.

A configuration is an integer matrix whose columns are lattice points; its
Gale dual stacks a saturated basis of the affine relations among the columns.
Self-duality of the associated projective toric variety is visible in how
the dual rows distribute over lines through the origin: the variety is
self-dual exactly when every line's rows sum to zero.
"""

from toricdual import (
    gale_dual,
    is_self_dual,
    line_partition,
    parse_configuration,
    verify_gale_dual,
)

print(__doc__)

print("=" * 72)
print("The quadric surface: four points forming a unit square")
print("=" * 72)
square = parse_configuration([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
dual = gale_dual(square)
print("weights (columns are the points):")
print(square.weights)
print("Gale dual rows:", dual.rows())
print("the single relation says col0 - col1 - col2 + col3 = 0")
verdict = is_self_dual(square)
print(f"self-dual? {verdict.value}  (criterion: {verdict.criterion})")

print()
print("=" * 72)
print("The twisted cubic: four collinear exponents 0,1,2,3")
print("=" * 72)
cubic = parse_configuration([[0, 1, 2, 3]])
dual = gale_dual(cubic)
print("Gale dual rows:", dual.rows())
part = line_partition(dual)
for cls in part.classes:
    print(f"  line {cls.direction}: rows {cls.members}, sum {cls.total}")
verdict = is_self_dual(cubic)
print(f"self-dual? {verdict.value}")
print("every line carries a single row, so no line can sum to zero:")
print("witness:", verdict.witness)
print("(the verdict reads the fundamental-circuit basis of the relations, so")
print(" the witness's direction and sum are in its coordinates; the members")
print(" are the same in every basis)")

print()
print("=" * 72)
print("Any matrix whose columns are a relation basis is 'a' Gale dual")
print("=" * 72)
g = gale_dual(square).matrix
print("canonical dual accepted:", verify_gale_dual(square, g))
doubled = [[2 * x for x in row] for row in g]
print("doubled columns rejected (index-2 sublattice):", verify_gale_dual(square, doubled))
