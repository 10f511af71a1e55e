"""Every verdict has an independent brute-force referee.

Circuits (minimal affine dependencies) are enumerated by subsets, and flats
(span-closed subsets of dual rows) by growing their lattice upward from the
zero rows; face membership is re-decided by an exact separating-functional
LP; strong self-duality is re-decided by exact evaluation on a certifying
grid.  The crosscheck sweep runs four equivalent
self-duality tests on seeded random instances and demands unanimity.
"""

import random

from toricdual import (
    coparallel_classes,
    coparallel_via_circuits,
    crosscheck,
    enumerate_circuits,
    enumerate_flats,
    facial_via_separation,
    gale_dual,
    is_facial,
    parse_configuration,
    segre,
)
from toricdual.oracle import random_configuration

print(__doc__)

print("=" * 72)
print("Circuits and flats of the 3-dimensional Segre variety")
print("=" * 72)
c = segre(3)
for circ in enumerate_circuits(c):
    print("  circuit", circ.support, "relation", circ.relation)
flats = enumerate_flats(gale_dual(c))
print(f"{len(flats)} distinct flats; closures:")
for f in flats:
    print("  ", f.closure)

print()
print("=" * 72)
print("Coparallelism two ways: parallel dual rows vs shared circuits")
print("=" * 72)
print("gale side:   ", coparallel_classes(gale_dual(c)))
print("circuit side:", coparallel_via_circuits(c))

print()
print("=" * 72)
print("Face membership two ways on a random instance")
print("=" * 72)
inst = random_configuration(random.Random(11), max_points=6)
print("instance:", inst.weights.tolist())
print("(the draw as random_configuration returns it: regularized, and only the rows")
print(" that raise the rank kept, so its entries are the draw's; another presentation")
print(" would print other numbers with the same affine relations and the same answers)")
for sub in ([0], [0, 1], [1, 2, 3]):
    fast = is_facial(inst, sub).value
    slow = facial_via_separation(inst, sub)
    print(f"  subset {sub}: gale={fast} lp={slow}")

print()
print("=" * 72)
print("Seeded equivalence sweep (four criteria, strict unanimity)")
print("=" * 72)
report = crosscheck(seed=1, count=25)
print("instances:", report["count"])
print("self-dual among them:", report["self_dual_instances"])
print("disagreements:", report["disagreements"])
