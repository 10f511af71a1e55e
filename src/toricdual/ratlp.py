"""Exact rational linear solving and feasibility.

There is no floating point and no tolerance anywhere, and no elimination
runs on ``fractions.Fraction``: rational input is scaled to integers row by
row (``_integral_rows``), and Fractions appear only in the results.
``solve_linear`` is one fraction-free Gauss-Jordan pass, the Bareiss loop of
:mod:`intlinalg`; the simplex behind ``feasible_nonneg`` is fraction-free
too.  Infeasibility comes with a Farkas certificate that the caller can
recheck by two inner products.
"""

from fractions import Fraction
from math import lcm

from .intlinalg import _bareiss


def solve_linear(a, b):
    """One rational solution ``x`` of ``a @ x = b``, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.  One
    fraction-free Gauss-Jordan pass (:func:`intlinalg._bareiss`) runs over the
    integral rows of ``[a | b]``; it leaves row t equal to its last pivot
    ``d`` times the reduced row echelon row of the t-th pivot, so ``x`` at
    that pivot is ``row[n] / d``, and a pivot in the last column means that
    no solution exists.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != m:
        raise ValueError("right-hand side length mismatch")
    rows, _ = _integral_rows(a, b)
    pivots, d = _bareiss(rows, jordan=True)
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for t, c in enumerate(pivots):
        x[c] = Fraction(rows[t][n], d)
    return tuple(x)


def _integral_rows(a, b):
    """Rows of ``[a | b]`` as int lists with a nonnegative last entry.

    Each row is multiplied by ``s_i``: the lcm of its denominators (1 for an
    integer row), negated when its right-hand side is negative.  Returns the
    rows and the multipliers; the scaled system has the same solutions.
    """
    rows, scale = [], []
    for row, rhs in zip(a, b):
        vals = [*row, rhs]
        s = 1
        if not all(type(v) is int for v in vals):
            vals = [Fraction(v) for v in vals]
            s = lcm(*(v.denominator for v in vals))
            vals = [int(v * s) for v in vals]
        if vals[-1] < 0:
            s = -s
            vals = [-v for v in vals]
        rows.append(vals)
        scale.append(s)
    return rows, scale


def feasible_nonneg(a, b):
    """Find ``x >= 0`` with ``a @ x = b`` by exact phase-1 simplex.

    Returns ``(x, None)`` when feasible and ``(None, y)`` otherwise, where the
    Farkas vector ``y`` satisfies ``y @ a <= 0`` componentwise and
    ``y @ b > 0`` — a self-contained proof that no such ``x`` exists.
    Bland's rule makes the pivoting finite and deterministic.

    The tableau is fraction-free (Edmonds' integer-preserving pivoting): int
    rows ``M`` with one positive common denominator ``d``, the true tableau
    being ``M / d``.  A pivot on ``p = M[r][c] > 0`` replaces every other row
    by ``(p * M[i] - M[i][c] * M[r]) // d``, an exact division, and sets
    ``d = p``.  Signs and ratio comparisons read ``M`` directly, so the pivot
    sequence is that of the same simplex on Fractions.  A row with
    non-integral entries is first scaled to integers.
    """
    m = len(a)
    k = len(a[0]) if m else 0
    if len(b) != m:
        raise ValueError("right-hand side length mismatch")
    if m == 0:
        return (), None
    rows, scale = _integral_rows(a, b)
    last = k + m
    tab = []
    for i, row in enumerate(rows):
        art = [0] * m
        art[i] = 1
        tab.append(row[:k] + art + row[k:])
    basis = list(range(k, last))
    # reduced-cost row for the objective "minimize sum of artificials"
    obj = [-sum(col) for col in zip(*rows)]
    obj[k:k] = [0] * m
    d = 1

    while True:
        enter = next((j for j in range(last) if obj[j] < 0), None)
        if enter is None:
            break
        row = None
        for i in range(m):
            t = tab[i]
            p = t[enter]
            if p > 0:
                if row is None:
                    row, num, den = i, t[last], p
                else:
                    # t[last] / p against the smallest ratio num / den so far
                    diff = t[last] * den - num * p
                    if diff < 0 or (diff == 0 and basis[i] < basis[row]):
                        row, num, den = i, t[last], p
        assert row is not None, "phase-1 objective is bounded below by zero"
        pr = tab[row]
        p = pr[enter]
        for i in range(m):
            if i != row:
                t = tab[i]
                f = t[enter]
                if f:
                    tab[i] = [(p * x - f * y) // d for x, y in zip(t, pr)]
                else:  # only rescaled to the new denominator
                    tab[i] = [p * x // d for x in t]
        f = obj[enter]
        obj = [(p * x - f * y) // d for x, y in zip(obj, pr)]
        d = p
        basis[row] = enter

    if obj[last] == 0:
        x = [Fraction(0)] * k
        for i, bv in enumerate(basis):
            if bv < k:
                x[bv] = Fraction(tab[i][last], d)
        return tuple(x), None
    # d * y, rechecked exactly against the caller's system before handing out
    dy = [s * (d - obj[k + i]) for i, s in enumerate(scale)]
    for j in range(k):
        assert sum(v * row[j] for v, row in zip(dy, a)) <= 0
    assert sum(v * rhs for v, rhs in zip(dy, b)) > 0
    return None, tuple(Fraction(v, d) for v in dy)


def positive_dependency_certified(rows):
    """Strictly positive rational coefficients with ``sum r_i * rows[i] = 0``,
    and a Farkas certificate when there are none.

    Returns ``(r, None)`` with r a tuple of positive Fractions, or
    ``(None, z)``.  Scaling lets us search for ``r >= 1`` instead of
    ``r > 0``, which is exact-LP territory.  Zero-length vectors are
    trivially dependent.  The Farkas certificate ``z`` has
    ``<z, rows[i]> >= 0`` for every i and strict somewhere, witnessing that no
    strictly positive dependency can exist.
    """
    vecs = [list(v) for v in rows]
    if not vecs:
        raise ValueError("a positive dependency of an empty family")
    dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise ValueError("vectors of unequal length")
    kk = len(vecs)
    if dim == 0:
        return tuple(Fraction(1) for _ in range(kk)), None
    # substitute r = 1 + x, x >= 0:  A x = -A 1  with A[j][i] = rows[i][j]
    a = [list(col) for col in zip(*vecs)]
    x, farkas = feasible_nonneg(a, [-sum(row) for row in a])
    if x is None:
        return None, tuple(-val for val in farkas)
    # den * r, rechecked exactly before handing out
    den = lcm(*(xi.denominator for xi in x))
    r = [den + xi.numerator * (den // xi.denominator) for xi in x]
    for row in a:
        assert sum(ri * v for ri, v in zip(r, row)) == 0
    assert all(ri > 0 for ri in r)
    return tuple(Fraction(ri, den) for ri in r), None
