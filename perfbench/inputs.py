"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain integer matrices
(lists of rows); nothing here imports ``toricdual``.  The make-up of each
corpus (shapes, kinds, counts) is fixed, and the seed only picks entries, so
two seeds give corpora of the same size and character.
"""

import random

from exact import columns, corank, gcd_of_minors, kernel_basis, rank, zero_gale_rows


def rng_for(seed, tag):
    return random.Random(f"{seed}/{tag}")


def random_matrix(rng, d, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(d)]


def segre(m):
    """(Id_m | Id_m) over (0 | 1): the Segre embedding of P^1 x P^(m-1)."""
    rows = [[1 if j % m == i else 0 for j in range(2 * m)] for i in range(m)]
    return rows + [[0] * m + [1] * m]


def lawrence(block):
    """(Id_n | Id_n) over (0 | M)."""
    n = len(block[0])
    rows = [[1 if j % n == i else 0 for j in range(2 * n)] for i in range(n)]
    return rows + [[0] * n + list(r) for r in block]


def family_alpha(a):
    """The 5 x 7 self-dual family of the paper, for a nonzero integer a."""
    return [
        [1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 0, 0],
        [0, 1, 0, a, 0, -a, 0],
        [0, 0, 1, 0, -a, 0, a],
    ]


def simplex_product(*sizes):
    """Vertices of a product of simplices, one indicator block per factor."""
    points = [[]]
    for s in sizes:
        points = [p + [i] for p in points for i in range(s + 1)]
    rows = []
    for f, s in enumerate(sizes):
        for i in range(s + 1):
            rows.append([1 if p[f] == i else 0 for p in points])
    return rows


# 7x9 strongly self-dual example (not a Lawrence lift)
STRONG_7X9 = [
    [1, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 1, 0, 0, 0, 0, 2, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 2],
    [0, 0, 0, 0, 1, 0, 0, -2, -2],
    [0, 0, 0, 0, 0, 1, 0, -1, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, -1],
]

# Two self-dual configurations that are singular, so not certified smooth.
SINGULAR = [
    [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 0, 0], [0, 0, 0, 0, 1, 2]],
    [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1], [2, 0, 0, 2, 0, 1]],
]

# Regular, non-pyramidal 6x16 input on which the strong test forms e^e
# products too large to print under the default int-to-str digit limit.
STRONG_6X16 = [
    [1] * 16,
    [3, -3, 2, 0, -1, 2, 3, -2, 1, -3, -1, -3, -3, -3, 2, 1],
    [-3, 0, 2, -2, 0, 2, -3, 1, -2, 3, 0, 0, 1, -2, -1, -2],
    [2, -2, 3, 0, -1, -3, 0, 3, 1, 2, -3, -2, 2, 2, 3, -1],
    [-3, 2, -1, 2, 2, 1, 0, 1, 3, 2, -2, -1, -1, 1, 0, 3],
    [1, 0, 1, 3, -3, 0, -2, 2, 3, 0, 0, 2, -2, -1, 1, 2],
]


def lawrence_block(rng, d, n):
    """A d x n block, entries in [-2, 2], whose Lawrence lift is
    non-pyramidal and whose column lattice is saturated (the hypotheses of
    the parity criterion)."""
    while True:
        m = random_matrix(rng, d, n, 2)
        kernel = kernel_basis(m, n)
        if not kernel or any(all(v[i] == 0 for v in kernel) for i in range(n)):
            continue
        if gcd_of_minors(m, rank(m)) == 1:
            return m


def unimodular(rng, d, steps):
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def apply_rows(u, m):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in u]


def block_diag(*blocks):
    total = sum(len(b[0]) for b in blocks)
    out, offset = [], 0
    for b in blocks:
        w = len(b[0])
        for row in b:
            out.append([0] * offset + list(row) + [0] * (total - offset - w))
        offset += w
    return out


def add_repeats(rng, m, k):
    n = len(m[0])
    picks = [rng.randrange(n) for _ in range(k)]
    return [row + [row[j] for j in picks] for row in m]


def add_apexes(m, r):
    """Join with r new coordinate points: each lies in no affine relation."""
    n = len(m[0])
    out = [row + [0] * r for row in m]
    for i in range(r):
        out.append([0] * n + [int(t == i) for t in range(r)])
    return out


def join_piece(rng, kind):
    if kind[0] == "segre":
        return segre(kind[1])
    if kind[0] == "alpha":
        return family_alpha(rng.choice((-3, -2, -1, 1, 2, 3)))
    return lawrence(lawrence_block(rng, kind[1], kind[2]))


# (pieces, repeats, apexes, scale one row by 2): repeats == apexes keeps a
# join of self-dual pieces self-dual, a mismatch makes it not self-dual.
SMALL_JOINS = [
    ((("segre", 3), ("alpha",)), 1, 1, False),
    ((("lawrence", 2, 4), ("segre", 2)), 2, 2, False),
    ((("alpha",), ("alpha",), ("segre", 2)), 0, 0, True),
    ((("lawrence", 2, 5), ("alpha",)), 2, 1, False),
    ((("segre", 4), ("lawrence", 3, 5)), 1, 1, False),
    ((("lawrence", 3, 6), ("segre", 3)), 1, 2, False),
    ((("segre", 2), ("alpha",)), 0, 0, False),
    ((("lawrence", 1, 4), ("segre", 3)), 1, 1, True),
]
BIG_JOINS = [
    ((("segre", 5), ("alpha",), ("lawrence", 2, 4)), 0, 0, True),
    ((("alpha",), ("segre", 6), ("lawrence", 2, 4)), 2, 2, True),
    ((("lawrence", 2, 6), ("lawrence", 2, 4), ("alpha",)), 1, 1, False),
    ((("segre", 4), ("lawrence", 3, 6), ("alpha",)), 0, 0, True),
]

# (rows, cols, repeats, apexes, variant); entries in [-3, 3].  The seven
# 8x24 inputs cost about the same and sit in the middle of the corpus's time
# order (small joins below, big joins and big inputs above), so the median
# instance is the middle one of them whatever the seed.
MID_GENERAL = [
    (8, 24, 0, 0, "plain"),
    (8, 24, 2, 0, "plain"),
    (8, 24, 0, 1, "plain"),
    (8, 24, 1, 1, "plain"),
    (8, 24, 0, 0, "plain"),
    (8, 24, 2, 0, "plain"),
    (8, 24, 0, 1, "plain"),
]
BIG_GENERAL = [
    (10, 40, 0, 0, "scaled"),
    (10, 40, 0, 2, "regular"),
    (12, 48, 1, 1, "scaled"),
    (15, 60, 0, 0, "plain"),
]


def general_instance(rng, d, n, k, r, variant):
    m = random_matrix(rng, d, n, 3)
    if variant == "regular":
        m[0] = [1] * n
    elif variant == "scaled":
        i = rng.randrange(d)
        m[i] = [2 * x for x in m[i]]
    return add_apexes(add_repeats(rng, m, k), r)


def join_instance(rng, pieces, k, r, scale):
    m = block_diag(*(join_piece(rng, p) for p in pieces))
    m = apply_rows(unimodular(rng, len(m), len(m)), m)
    if scale:
        i = rng.randrange(len(m))
        m[i] = [2 * x for x in m[i]]
    return add_apexes(add_repeats(rng, m, k), r)


def selfdual_corpus(seed, general=MID_GENERAL + BIG_GENERAL, joins=SMALL_JOINS + BIG_JOINS):
    rng = rng_for(seed, "selfdual")
    out = [general_instance(rng, *spec) for spec in general]
    out += [join_instance(rng, *spec) for spec in joins]
    return out


# (rows, cols, entry bound, run is_self_dual too).  The cost of the wide
# and large-entry inputs swings 5-15% with their entries, so there are
# several of each rather than one large one.
BIGINT = [
    (4, 80, 100, True),
    (4, 80, 100, True),
    (4, 80, 100, True),
    (6, 30, 1000, True),
    (6, 30, 1000, True),
    (6, 30, 10**6, True),
    (6, 30, 10**6, True),
    (6, 30, 10**6, True),
    (6, 30, 10**6, True),
    (21, 80, 3, False),
]


def bigint_corpus(seed, specs=BIGINT):
    rng = rng_for(seed, "bigint")
    return [(random_matrix(rng, d, n, b), sd) for d, n, b, sd in specs]


LAWRENCE_SHAPES = [(1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (1, 5), (2, 6)]

# (rows, points, apexes): facial tests run on every subset of size <= 3
FACIAL = [(2, 6, 0), (3, 7, 0), (3, 8, 0), (2, 7, 1), (4, 9, 0), (3, 8, 2)]


def facial_config(rng, d, n, r):
    """Random repeat-free points with r pyramid apexes added."""
    while True:
        m = random_matrix(rng, d, n - r, 3)
        if len(set(columns(m))) == n - r and corank(m) > 0:
            return add_apexes(m, r) if r else m


def certificates_corpus(seed, lawrence_count=50, facial=FACIAL):
    rng = rng_for(seed, "certificates")
    blocks = [lawrence_block(rng, *LAWRENCE_SHAPES[i % len(LAWRENCE_SHAPES)])
              for i in range(lawrence_count)]
    configs = [facial_config(rng, *spec) for spec in facial]
    return blocks, configs


# (points, corank) of each crosscheck instance; the time of one instance
# depends mostly on these two, so fixing them keeps the sweep's cost from
# swinging with the seed while the instances themselves change.
ORACLE_STRATA = [(8, 3), (8, 3), (8, 4), (8, 4), (8, 5), (7, 2), (7, 3), (7, 4),
                 (6, 2), (6, 3), (5, 2), (4, 1)]


def oracle_instance(crosscheck_seed):
    """The first instance ``toricdual.oracle.crosscheck(seed, 1)`` draws.

    Replays the rejection sampling of ``random_configuration`` with its
    default filters (repeat-free, non-pyramidal, at least one relation).
    Every filter is invariant under the reduction the program applies, so
    it can be decided on the raw draw.
    """
    rng = random.Random(crosscheck_seed)
    while True:
        d = rng.randint(1, 4)
        n = rng.randint(max(2, d + 1), 8)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        if len(set(columns(rows))) != n:
            continue
        if zero_gale_rows(rows) or corank(rows) == 0:
            continue
        return rows


def oracle_seeds(seed, strata=ORACLE_STRATA):
    """One crosscheck seed per stratum, drawn from the workload seed."""
    rng = rng_for(seed, "oracle")
    out = []
    for n, k in strata:
        while True:
            s = rng.randrange(2**31)
            rows = oracle_instance(s)
            if len(rows[0]) == n and corank(rows) == k:
                out.append((s, rows))
                break
    return out

