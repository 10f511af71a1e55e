"""Repeats, pyramids, and the join decomposition.

The weights W and the weights [1; W] under a row of ones present one
projective variety with one lattice of affine relations, and the
reductions shown here (merge repeated columns, split off pyramid apexes)
keep that lattice too.  The duality criteria therefore read the lattice off
the input as given: they merge repeated columns and take the apexes from
the zero rows of the Gale dual.  The variety is an iterated join over what
remains, and self-duality of the join needs the apex count to match the
repeat count.
"""

from toricdual import (
    affine_dim,
    dedup,
    full_decomposition,
    gale_dual,
    is_self_dual,
    parse_configuration,
)

print(__doc__)

print("=" * 72)
print("W and [1; W]: one variety, one answer")
print("=" * 72)
c = parse_configuration([[0, 2, 4]])
lifted = parse_configuration([[1] * c.npoints, *c.weights])
print("W:     ", c.weights.tolist())
print("[1; W]:", lifted.weights.tolist())
print("Gale duals:", gale_dual(c).matrix.tolist(), "==", gale_dual(lifted).matrix.tolist())
print("affine dimensions:", affine_dim(c), "==", affine_dim(lifted))

print()
print("=" * 72)
print("A pyramid over a conic is never self-dual (without repeats)")
print("=" * 72)
pyramid = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
rep = full_decomposition(pyramid)
print("apexes:", rep.apex_indices, " core:", rep.core_indices)
v = is_self_dual(pyramid)
print("self-dual?", v.value, "->", v.witness["kind"])

print()
print("=" * 72)
print("Repeats can rescue a pyramid: a point in the projective line")
print("=" * 72)
point = parse_configuration([[1, 1]])
print("dedup:", dedup(point).multiplicity, "repeat codimension:", dedup(point).repeat_codim)
v = is_self_dual(point)
print("self-dual?", v.value, "->", v.witness["kind"])

print()
print("=" * 72)
print("A join with a non-trivial core: apex doubled over a square")
print("=" * 72)
joined = parse_configuration(
    [
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
    ]
)
rep = full_decomposition(joined)
print("join shape (repeats, apexes, core points):", rep.join_shape)
v = is_self_dual(joined)
print("self-dual?", v.value)
print("the core is the quadric square, and the apex count matches the repeat count")
