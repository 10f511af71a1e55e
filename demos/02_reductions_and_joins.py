"""Repeats, pyramids, and the join decomposition.

The reductions shown here (regularize: put the points on an affine
hyperplane off the origin; merge repeated columns; split off pyramid
apexes) all keep the lattice of affine relations.  The duality criteria therefore read that lattice off the
input as given: they merge repeated columns and take the apexes from the
zero rows of the Gale dual.  The variety is an iterated join over what
remains, and self-duality of the join needs the apex count to match the
repeat count.
"""

from toricdual import (
    affine_dim,
    dedup,
    full_decomposition,
    is_self_dual,
    parse_configuration,
    regularize,
)

print(__doc__)

print("=" * 72)
print("Regularize")
print("=" * 72)
c = parse_configuration([[0, 2, 4]])
print("input:", c.weights.tolist(), "regular:", c.regular)
r = regularize(c)
print("regularized:", r.weights.tolist(), "regular:", r.regular)
print("affine dimension is invariant:", affine_dim(c), "==", affine_dim(r))

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
