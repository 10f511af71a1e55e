"""Exact integer and rational arithmetic for checking results.

Written for the benchmark alone: nothing here imports ``toricdual``, so a
verdict that agrees with these functions agrees with a second, unrelated
implementation.  Matrices are lists of rows of Python ints.
"""

from fractions import Fraction
from math import gcd


def _content(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    return g


def echelon(rows):
    """Fraction-free Gauss-Jordan elimination.

    Returns ``(reduced, pivots)``: the nonzero rows of a reduced echelon
    form (each pivot column is zero in every other row; rows keep integer
    entries with content 1) and the pivot column of each row.
    """
    work = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    done = []
    pivots = []
    for c in range(ncols):
        piv = next((i for i, r in enumerate(work) if r[c] != 0), None)
        if piv is None:
            continue
        p = work.pop(piv)
        p_c = p[c]
        rest = []
        for r in work:
            if r[c] != 0:
                f = r[c]
                r = [x * p_c - f * y for x, y in zip(r, p)]
                g = _content(r)
                if g == 0:
                    continue
                if g > 1:
                    r = [x // g for x in r]
            rest.append(r)
        for k, r in enumerate(done):
            if r[c] != 0:
                f = r[c]
                r = [x * p_c - f * y for x, y in zip(r, p)]
                g = _content(r)
                done[k] = [x // g for x in r] if g > 1 else r
        work = rest
        done.append(p)
        pivots.append(c)
        if not work:
            break
    return done, pivots


def rank(rows) -> int:
    return len(echelon(rows)[1])


def in_row_span(rows, vec) -> bool:
    """Whether ``vec`` (ints or Fractions) is a rational combination of ``rows``."""
    den = 1
    for x in vec:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ivec = [int(Fraction(x) * den) for x in vec]
    return rank(list(rows) + [ivec]) == rank(rows)


def kernel_basis(rows, ncols):
    """Integer basis (as a list of vectors) of the rational kernel of ``rows``.

    One vector per non-pivot column; not saturated in general, which the
    self-duality test below does not need.
    """
    red, pivots = echelon(rows) if rows else ([], [])
    pset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pset:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in zip(red, pivots):
            vec[c] = Fraction(-r[f], r[c])
        den = 1
        for x in vec:
            den = den * x.denominator // gcd(den, x.denominator)
        basis.append([int(x * den) for x in vec])
    return basis


def affine_rows(matrix):
    """The rows of ``[1; W]`` for a d x n matrix ``W``."""
    n = len(matrix[0])
    return [[1] * n] + [list(r) for r in matrix]


def columns(matrix):
    return [tuple(col) for col in zip(*matrix)]


def primitive(vec):
    g = _content(vec)
    v = [x // g for x in vec]
    lead = next(x for x in v if x != 0)
    return tuple(-x for x in v) if lead < 0 else tuple(v)


def self_dual(matrix) -> bool:
    """Self-duality of the toric variety of a d x n integer matrix.

    With k repeated columns, the zero rows of a rational basis of the affine
    relations among the distinct columns as apexes (r of them), and the
    remaining rows as the core: self-dual iff r == k and every line class of
    core rows sums to zero.  Line classes and their sums do not change under
    a rational change of basis, so any basis will do.
    """
    cols = columns(matrix)
    distinct = list(dict.fromkeys(cols))
    k = len(cols) - len(distinct)
    sub = [list(r) for r in zip(*distinct)]
    basis = kernel_basis(affine_rows(sub), len(distinct))
    gale_rows = [tuple(v[i] for v in basis) for i in range(len(distinct))]
    core = [row for row in gale_rows if any(row)]
    if len(gale_rows) - len(core) != k:
        return False
    sums = {}
    for row in core:
        key = primitive(row)
        acc = sums.setdefault(key, [0] * len(row))
        for j, x in enumerate(row):
            acc[j] += x
    return all(not any(s) for s in sums.values())


def zero_gale_rows(matrix):
    """Indices of columns that lie in no affine relation (pyramid apexes)."""
    n = len(matrix[0])
    basis = kernel_basis(affine_rows(matrix), n)
    return [i for i in range(n) if all(v[i] == 0 for v in basis)]


def corank(matrix) -> int:
    n = len(matrix[0])
    return n - rank(affine_rows(matrix))


def det(square):
    """Determinant by Bareiss elimination."""
    w = [list(r) for r in square]
    n = len(w)
    sign, prev = 1, 1
    for k in range(n - 1):
        if w[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if w[i][k] != 0), None)
            if swap is None:
                return 0
            w[k], w[swap] = w[swap], w[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
        prev = w[k][k]
    return sign * w[n - 1][n - 1] if n else 1


def independent_rows(rows, order):
    """Greedy maximal independent subset of ``rows``, scanned in ``order``."""
    transposed = [list(col) for col in zip(*(rows[i] for i in order))]
    return [order[c] for c in echelon(transposed)[1]]


def rank_mod(rows, p):
    work = [[x % p for x in r] for r in rows]
    rk = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rk, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        inv = pow(work[rk][c], -1, p)
        pr = [x * inv % p for x in work[rk]]
        work[rk] = pr
        for i in range(rk + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], pr)]
        rk += 1
    return rk


def saturated(rows, tries=8, trial_limit=10**5):
    """Whether the columns of a full-column-rank n x r matrix span a
    saturated lattice, i.e. the gcd of its maximal minors is 1.

    Takes the gcd g of a few maximal minors (row subsets picked greedily in
    several orders).  Every prime dividing all minors divides g, so g == 1
    certifies saturation; otherwise the small prime factors of g are tested
    one by one (the matrix must keep full rank mod p), and a cofactor left
    after trial division is not certified.
    """
    import random

    n, r = len(rows), len(rows[0])
    orders = [list(range(n)), list(range(n - 1, -1, -1))]
    shuffler = random.Random(0)
    for _ in range(tries - 2):
        order = list(range(n))
        shuffler.shuffle(order)
        orders.append(order)
    g = 0
    for order in orders:
        pick = independent_rows(rows, order)
        if len(pick) < r:
            return False
        g = gcd(g, abs(det([rows[i] for i in sorted(pick)])))
        if g == 1:
            return True
    p = 2
    while g > 1 and p <= trial_limit:
        if g % p == 0:
            if rank_mod(rows, p) < r:
                return False
            while g % p == 0:
                g //= p
        p += 1
    return g == 1


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def gf2_ones_in_row_span(block) -> bool:
    """Whether the all-ones vector lies in the GF(2) row span of ``block``."""
    n = len(block[0])
    masks = [sum((x & 1) << j for j, x in enumerate(row)) for row in block]
    basis = []
    for m in masks:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
    target = (1 << n) - 1
    for b in sorted(basis, reverse=True):
        target = min(target, target ^ b)
    return target == 0


def gcd_of_minors(matrix, size):
    """gcd of all ``size`` x ``size`` minors (small matrices only)."""
    from itertools import combinations

    g = 0
    for rs in combinations(range(len(matrix)), size):
        for cs in combinations(range(len(matrix[0])), size):
            g = gcd(g, abs(det([[matrix[i][j] for j in cs] for i in rs])))
            if g == 1:
                return 1
    return g
