"""Exact linear feasibility on integers.

The input is integer and so is every answer: a rational vector comes back
as int numerators over one positive int denominator.  The simplex behind
``feasible_nonneg`` is fraction-free, with no floating point and no
tolerance: each pivot is one ``intlinalg._pivot`` on a tableau whose last
row is the objective.  Infeasibility comes with a Farkas certificate that
the caller can recheck by two inner products.
"""

from .intlinalg import _lowest_terms, _pivot


def _signed_rows(a, b):
    """Rows of ``[a | b]``, each times the sign ``s_i`` that makes its last
    entry nonnegative, and those signs; the system keeps its solutions."""
    signs = [-1 if rhs < 0 else 1 for rhs in b]
    return [[s * v for v in (*row, rhs)] for s, row, rhs in zip(signs, a, b)], signs


def feasible_nonneg(a, b):
    """Find ``x >= 0`` with ``a @ x = b`` (ints) by exact phase-1 simplex.

    Returns ``((x, d), None)`` when feasible, the solution being ``x / d``,
    and ``(None, (y, d))`` otherwise, where the Farkas vector ``y / d``
    satisfies ``y @ a <= 0`` componentwise and ``y @ b > 0`` — a
    self-contained proof that no such ``x`` exists.  ``x`` and ``y`` are int
    lists and ``d`` is a positive int.  Bland's rule makes the pivoting
    finite and deterministic.

    The tableau is fraction-free (Edmonds' integer-preserving pivoting): int
    rows ``M`` over the last pivot ``d``, and each pivot on ``p = M[r][c] >
    0`` is one ``intlinalg._pivot``, after which ``d = p``.  The rows keep
    denominators of their own, every one a past pivot and so positive:
    signs and the ratio test (each ratio is of two entries of one row) read
    ``M`` directly, and the pivot sequence is that of the same simplex on
    Fractions.  At the end only the solution's entries are brought up to
    ``d``.  The objective is the last row; its entry in the entering column
    is negative, so every pivot updates it, its denominator stays ``d`` and
    the Farkas vector reads it unchanged.
    """
    m = len(a)
    k = len(a[0]) if m else 0
    if len(b) != m:
        raise ValueError("right-hand side length mismatch")
    if m == 0:
        return ([], 1), None
    rows, signs = _signed_rows(a, b)
    last = k + m
    tab = []
    for i, row in enumerate(rows):
        art = [0] * m
        art[i] = 1
        tab.append(row[:k] + art + row[k:])
    basis = list(range(k, last))
    # the last row: reduced costs of "minimize the sum of artificials"
    obj = [-sum(col) for col in zip(*rows)]
    obj[k:k] = [0] * m
    tab.append(obj)
    d = 1
    scale = [1] * (m + 1)  # scale[i]: the d row i was last brought to

    while True:
        obj = tab[m]
        for enter in range(last):
            if obj[enter] < 0:
                break
        else:
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
        d = _pivot(tab, scale, row, enter, d)
        basis[row] = enter

    if obj[last] == 0:
        x = [0] * k
        for i, bv in enumerate(basis):
            if bv < k:
                x[bv] = tab[i][last] * d // scale[i]
        return (x, d), None
    # d * y, rechecked exactly against the caller's system before handing out
    dy = [s * (d - obj[k + i]) for i, s in enumerate(signs)]
    for j in range(k):
        assert sum(v * row[j] for v, row in zip(dy, a)) <= 0
    assert sum(v * rhs for v, rhs in zip(dy, b)) > 0
    return None, (dy, d)


def positive_dependency_certified(rows):
    """Strictly positive rational coefficients with ``sum r_i * rows[i] = 0``
    (int rows), and a Farkas certificate when there are none.

    Returns ``((r, den), None)``, the coefficients being ``r / den``, or
    ``(None, (z, den))``, each in lowest terms: ``den > 0`` and
    ``gcd(den, *r) = 1``.  Scaling lets us search for ``r >= 1`` instead of
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
    if dim == 0:
        return ([1] * len(vecs), 1), None
    # substitute r = 1 + x, x >= 0:  A x = -A 1  with A[j][i] = rows[i][j]
    a = [list(col) for col in zip(*vecs)]
    sol, farkas = feasible_nonneg(a, [-sum(row) for row in a])
    if sol is None:
        y, d = farkas
        return None, _lowest_terms([-v for v in y], d)
    # d * r = d + x, rechecked exactly before handing out
    x, d = sol
    r = [d + xi for xi in x]
    for row in a:
        assert sum(ri * v for ri, v in zip(r, row)) == 0
    assert all(ri > 0 for ri in r)
    return _lowest_terms(r, d), None
