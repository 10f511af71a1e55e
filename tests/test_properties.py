"""Cross-cutting invariants tying the fast predicates to the oracles.

The acceptance sweep finds self-dual instances mostly in codimension one, so
the deeper structural properties (heredity, interior-point exclusion, class
sizes) are exercised here on known self-dual configurations of codimension
two and three as well.
"""

import itertools
import random

import pytest

from toricdual.configuration import (
    affine_dim,
    parse_configuration,
    regularize,
)
from toricdual.engine import is_self_dual, is_strongly_self_dual, smooth_certificate
from toricdual.exceptions import GuardExceeded, InapplicableInput
from toricdual.families import family_alpha, family_codim, lawrence, segre
from toricdual.gale import coparallel_classes, gale_dual, is_facial
from toricdual.oracle import (
    enumerate_circuits,
    enumerate_flats,
    random_configuration,
    strong_via_points,
)
from toricdual.ratlp import feasible_nonneg
from test_intlinalg import product

INT_POINT_FACE = parse_configuration(
    [
        [1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 1, 2, 0, 0, 0],
        [0, 0, 0, 0, 1, 2],
    ]
)
MISSING_POINTS = parse_configuration(
    [
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [2, 0, 0, 2, 0, 1],
    ]
)

SELF_DUAL_DEEP = [
    family_alpha(1),
    family_alpha(3),
    segre(3),
    segre(4),
    INT_POINT_FACE,
    MISSING_POINTS,
    family_codim(2, 2, [2, -2]),
]


def codim(c):
    return c.npoints - 1 - affine_dim(c)


def on_proper_face(c, i) -> bool:
    """Exact LP: is there a supporting hyperplane through point i?"""
    reg = regularize(c)
    d = reg.dim
    cols = [list(col) for col in reg.columns()]
    others = [j for j in range(reg.npoints) if j != i]
    nslack = len(others) + 1
    rows = []
    rhs = []

    def lhs(col, slack_idx=None):
        row = col + [-x for x in col] + [0] * nslack
        if slack_idx is not None:
            row[2 * d + slack_idx] = 1
        return row

    rows.append(lhs(cols[i]))
    rhs.append(0)
    for pos, j in enumerate(others):
        rows.append(lhs(cols[j], pos))
        rhs.append(0)
    total = [sum(cols[j][t] for j in others) for t in range(d)]
    rows.append(lhs(total, len(others)))
    rhs.append(-1)
    x, _ = feasible_nonneg(rows, rhs)
    return x is not None


def test_deep_instances_are_self_dual_beyond_codim_one():
    for c in SELF_DUAL_DEEP:
        assert is_self_dual(c).value
        assert codim(c) >= 2


def test_hereditary_property_on_deep_instances():
    # every non-pyramidal subset of a self-dual configuration is facial and self-dual
    for c in SELF_DUAL_DEEP:
        for size in range(2, c.npoints + 1):
            for sub in itertools.combinations(range(c.npoints), size):
                d = parse_configuration(c.weights.select(sub))
                b = gale_dual(d)
                if b.corank == 0 or b.zero_rows():
                    continue
                assert is_self_dual(d).value, (c, sub)
                assert is_facial(c, sub).value, (c, sub)


def test_interior_point_exclusion():
    # codim > 1 self-dual without repeats: no configuration point is interior
    for c in SELF_DUAL_DEEP:
        for i in range(c.npoints):
            assert on_proper_face(c, i), (c, i)
    # sanity of the LP itself: the conic's midpoint is interior to the segment
    assert not on_proper_face(parse_configuration([[0, 1, 2]]), 1)


def test_coparallel_classes_of_self_dual_are_facial_pairs_or_bigger():
    for c in SELF_DUAL_DEEP:
        b = gale_dual(c)
        for cls in coparallel_classes(b):
            assert len(cls) >= 2, (c, cls)
            assert is_facial(c, cls).value, (c, cls)


def test_strong_implies_self_dual():
    instances = [segre(m) for m in range(2, 6)]
    instances.append(parse_configuration([[1, 1, 1], [0, 1, -1]]))
    instances.append(family_alpha(2))
    rng = random.Random(90125)
    instances.extend(random_configuration(rng) for _ in range(25))
    for c in instances:
        try:
            strong = is_strongly_self_dual(c).value
        except InapplicableInput:
            continue
        if strong:
            assert is_self_dual(c).value


def test_strong_criterion_matches_point_oracle():
    rng = random.Random(555)
    checked = 0
    while checked < 25:
        c = random_configuration(rng)
        if gale_dual(c).corank > 3:
            continue
        try:
            fast = is_strongly_self_dual(c).value
            slow = strong_via_points(c)
        except GuardExceeded:
            continue
        assert fast == slow, c.weights.tolist()
        checked += 1


def test_every_flat_is_a_union_of_coparallel_classes():
    rng = random.Random(31337)
    for _ in range(15):
        c = random_configuration(rng, max_points=7)
        b = gale_dual(c)
        classes = coparallel_classes(b)
        for flat in enumerate_flats(b):
            members = set(flat.closure)
            for cls in classes:
                overlap = members & set(cls)
                assert overlap in (set(), set(cls)), (flat, cls)


def test_circuit_supports_are_minimal():
    rng = random.Random(2024)
    for _ in range(10):
        c = random_configuration(rng, max_points=7)
        supports = [set(x.support) for x in enumerate_circuits(c)]
        for a in supports:
            for b in supports:
                assert not (a < b), "circuit support strictly inside another"


def test_parity_sanity_smooth_self_dual_beyond_hypersurfaces_has_even_n():
    # the conic (n = 3) is smooth and self-dual but is a hypersurface, so the
    # parity constraint only binds in codimension > 1
    candidates = [segre(m) for m in range(2, 7)]
    candidates.append(parse_configuration([[0, 1, 2]]))
    candidates.extend(SELF_DUAL_DEEP)
    rng = random.Random(161803)
    candidates.extend(random_configuration(rng) for _ in range(40))
    seen = 0
    for c in candidates:
        if len(set(c.columns())) != c.npoints:
            continue
        if not is_self_dual(c).value or codim(c) <= 1:
            continue
        if smooth_certificate(c).value:
            assert c.npoints % 2 == 0, c.weights.tolist()
            seen += 1
    assert seen >= 3  # the Segre instances actually exercise the assertion


def _random_unimodular(rng, d):
    from toricdual.intlinalg import eye

    u = eye(d).tolist()
    for _ in range(3 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i != j:
            f = rng.choice([-2, -1, 1, 2])
            u[i] = [x + f * y for x, y in zip(u[i], u[j])]
    return u


def test_self_duality_is_an_affine_invariant():
    # permuting columns, unimodular row transforms, and translations must
    # never change the verdict
    rng = random.Random(40961)
    for _ in range(12):
        c = random_configuration(rng, max_points=7)
        base = is_self_dual(c).value

        perm = list(range(c.npoints))
        rng.shuffle(perm)
        permuted = parse_configuration(c.weights.select(perm))
        assert is_self_dual(permuted).value == base

        u = _random_unimodular(rng, c.dim)
        transformed = parse_configuration(product(u, c.weights))
        assert is_self_dual(transformed).value == base

        shift = [[rng.randint(-3, 3)] * c.npoints for _ in range(c.dim)]
        translated = parse_configuration(
            [[x + s for x, s in zip(row, srow)] for row, srow in zip(c.weights, shift)]
        )
        assert is_self_dual(translated).value == base


def test_join_reduction_matches_core_verdict():
    # doubling one fresh basis point over a core reduces to the core's verdict
    rng = random.Random(2718)
    for _ in range(10):
        core = random_configuration(rng, max_points=6)
        d, n = core.dim, core.npoints
        rows = [[1, 1] + [0] * n]
        for i in range(d):
            rows.append([0, 0] + [int(x) for x in core.weights[i]])
        lifted = parse_configuration(rows)
        assert is_self_dual(lifted).value == is_self_dual(core).value
        # without the repeat the apex makes it a plain pyramid: never self-dual
        pyramid = parse_configuration([r[1:] for r in rows])
        assert not is_self_dual(pyramid).value


def test_facial_with_repeated_columns_requires_both_twins():
    c = parse_configuration([[0, 0, 1]])
    assert not is_facial(c, [0]).value  # the twin of column 0 sits on every face
    assert is_facial(c, [0, 1]).value
    assert is_facial(c, [2]).value


def test_lawrence_lifts_self_dual_even_without_saturation():
    # self-duality is an affine invariant, so the lift of any matrix with a
    # full-support kernel is self-dual, saturated column lattice or not
    rng = random.Random(7777)
    from toricdual.intlinalg import imat, integer_kernel

    found = 0
    while found < 20:
        d = rng.randint(1, 3)
        n = rng.randint(2, 4)
        m = imat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        k = integer_kernel(m)
        if k.shape[1] == 0:
            continue
        if any(all(x == 0 for x in k[i]) for i in range(n)):
            continue
        assert is_self_dual(lawrence(m)).value, m.tolist()
        found += 1
