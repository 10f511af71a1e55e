"""Exact integer linear algebra on numpy object arrays.

Matrices are 2-d numpy arrays with ``dtype=object`` whose entries are Python
ints (arbitrary precision), so nothing here can overflow or round.  Every
transform that claims to be unimodular really is, and the tests check it.

The fast path is fraction-free and runs on plain int lists: one Bareiss loop
serves ``rank`` and ``det`` (forward elimination) and ``circuit_kernel``
(the same loop eliminating above each pivot too), and one Hermite echelon
loop (``_echelon``) serves ``row_hermite``, ``hermite_normal_form``,
``integer_kernel`` and ``lattice_basis``.  ``lattice_basis`` answers every
question about a column lattice: equality (``column_lattices_equal``),
saturation (``column_lattice_saturated``), whether it is all of Z^d, and a
basis to rewrite the columns in (``configuration.normalize_lattice``); no
Smith form is needed for any of them.
``integer_kernel`` is the saturated canonical kernel basis behind the Gale
dual; ``circuit_kernel`` is the fundamental-circuit basis, a kernel basis
over Q only, and the self-duality verdict states its line-sum witnesses in
its coordinates.  ``rational_rank`` and
``in_row_span`` keep ``fractions.Fraction`` Gauss-Jordan elimination as the
oracles' reference arithmetic; the package's fast predicates do not call
them.
"""

from fractions import Fraction
from math import gcd

import numpy as np


def imat(rows) -> np.ndarray:
    """Build an exact integer matrix from nested sequences.

    Entries must be integral; bools and floats with fractional parts are
    rejected so nothing inexact sneaks into a computation.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == object and rows.ndim == 2:
        data = rows.tolist()
    else:
        data = [list(r) for r in rows]
    if not data:
        raise ValueError("empty matrix")
    ncols = len(data[0])
    out = np.empty((len(data), ncols), dtype=object)
    for i, row in enumerate(data):
        if len(row) != ncols:
            raise ValueError("ragged rows in matrix input")
        for j, e in enumerate(row):
            if isinstance(e, bool) or not isinstance(e, (int, np.integer)):
                if isinstance(e, Fraction) and e.denominator == 1:
                    e = e.numerator
                else:
                    raise ValueError(f"non-integer entry {e!r} at ({i},{j})")
            out[i, j] = int(e)
    return out


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def _int_rows(a) -> list:
    """A fresh list-of-lists copy of ``a`` with Python int entries."""
    return [[int(x) for x in row] for row in (a.tolist() if isinstance(a, np.ndarray) else a)]


def _with_identity(a) -> list:
    """Rows of ``[a | I]`` as int lists, ``I`` the identity of ``a``'s row count."""
    rows = _int_rows(a)
    for i, row in enumerate(rows):
        row.extend(int(i == j) for j in range(len(rows)))
    return rows


def _matrix(rows: list, ncols: int) -> np.ndarray:
    """An object array holding ``rows`` (which may be empty) as a matrix."""
    out = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


def _echelon(rows: list, ncols: int) -> list:
    """Canonical row echelon form of the first ``ncols`` columns, in place.

    The pivot candidate is the entry of smallest absolute value in its column
    at or below the current row (ties to the lowest row), made positive; the
    rows below are reduced by floor division by it, and this repeats until it
    is the only nonzero entry left there.  The entries above the pivot are
    then reduced into ``[0, pivot)``.  Columns past ``ncols`` are carried
    along by the same row operations, which is how transforms are recorded.
    Returns ``rows``.
    """
    m = len(rows)
    r = 0
    for c in range(ncols):
        if r == m:
            break
        while True:
            best = None
            for i in range(r, m):
                x = rows[i][c]
                if x and (best is None or abs(x) < abs(rows[best][c])):
                    best = i
            if best is None:
                break
            rows[r], rows[best] = rows[best], rows[r]
            pr = rows[r]
            if pr[c] < 0:
                pr = rows[r] = [-x for x in pr]
            p = pr[c]
            done = True
            for i in range(r + 1, m):
                row = rows[i]
                if row[c]:
                    q = row[c] // p
                    if q:
                        row = rows[i] = [x - q * y for x, y in zip(row, pr)]
                    if row[c]:
                        done = False
            if done:
                break
        pr = rows[r]
        p = pr[c]
        if p:
            for i in range(r):
                q = rows[i][c] // p
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], pr)]
            r += 1
    return rows


def row_hermite(a: np.ndarray):
    """Row Hermite normal form.

    Returns ``(h, u)`` with ``u @ a == h``, ``u`` unimodular and ``h`` in the
    canonical row echelon form: pivots positive, entries above each pivot
    reduced into ``[0, pivot)``, zero rows at the bottom.  The form is unique,
    so two matrices have equal row lattices iff their forms agree.  Computed
    as the echelon form of ``[a | I]``.
    """
    m, n = a.shape
    rows = _echelon(_with_identity(a), n)
    return _matrix([row[:n] for row in rows], n), _matrix([row[n:] for row in rows], m)


def hermite_normal_form(a: np.ndarray):
    """Column Hermite normal form: ``(h, u)`` with ``a @ u == h``, u unimodular.

    The rank of ``a`` is the number of nonzero columns of ``h``.
    """
    ht, ut = row_hermite(a.T)
    return ht.T.copy(), ut.T.copy()


def _bareiss(rows: list, jordan: bool = False) -> tuple:
    """Fraction-free (Bareiss 1968) elimination of ``rows``, in place.

    Columns without a pivot are skipped, so every division is exact on any
    shape.  Returns ``(rank, sign, pivot)``: ``sign`` is the parity of the row
    swaps and ``pivot`` the last pivot; a nonsingular square matrix has
    determinant ``sign * pivot``.  Forward elimination by default; with
    ``jordan`` the rows above each pivot are eliminated by the same update
    (fraction-free Gauss-Jordan), which leaves the first ``rank`` rows equal
    to ``pivot`` times the reduced row echelon form, each with its first
    nonzero entry in its pivot column.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    r, sign, prev = 0, 1, 1
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pr = rows[r]
        p = pr[c]
        for i in range(0 if jordan else r + 1, m):
            if i != r:
                f = rows[i][c]
                rows[i] = [(x * p - f * y) // prev for x, y in zip(rows[i], pr)]
        prev = p
        r += 1
    return r, sign, prev


def det(a: np.ndarray):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m, n = a.shape
    if m != n:
        raise ValueError("determinant requires a square matrix")
    r, sign, pivot = _bareiss(_int_rows(a))
    return sign * pivot if r == n else 0


def rank(a) -> int:
    """Rank of an integer matrix (array or nested lists), by fraction-free
    elimination."""
    return _bareiss(_int_rows(a))[0]


def rational_rank(a: np.ndarray) -> int:
    """Rank of the matrix over the rationals, computed exactly."""
    rows = [[Fraction(int(x)) for x in row] for row in a.tolist()]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(m):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / pr[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        rank += 1
        if rank == m:
            break
    return rank


def integer_kernel(a: np.ndarray) -> np.ndarray:
    """Saturated basis of the integer kernel ``{v : a @ v = 0}``.

    The columns of the result span the full lattice ``ker(a) ∩ Z^n``, not a
    finite-index sublattice, and are the canonical (column Hermite) basis, so
    the output is deterministic.  After an echelon pass over the first m
    columns of ``[a^T | I_n]``, the rows that vanish there carry a unimodular
    basis of the kernel; echelon them on their own to get the Hermite form.
    """
    m, n = a.shape
    rows = _echelon(_with_identity(a.T), m)
    return _matrix(_echelon([row[m:] for row in rows if not any(row[:m])], n), n).T.copy()


def circuit_kernel(a) -> np.ndarray:
    """Fundamental-circuit basis of the rational kernel ``{v : a @ v = 0}``.

    The pivot columns of a fraction-free Gauss-Jordan pass form the
    lex-first column basis of ``a``.  Column t of the result belongs to the
    t-th non-pivot column j: it is the primitive kernel vector supported on
    the basis plus j, positive at j.  It spans the kernel over Q but, unlike
    :func:`integer_kernel`, need not span the kernel lattice; no saturation
    step runs: before the column's common factor is divided out, each entry
    is, up to sign, a ``rank(a)``-square minor of ``a``.
    """
    rows = _int_rows(a)
    n = len(rows[0])
    k, _, d = _bareiss(rows, jordan=True)
    # row t is d times the reduced echelon row of the t-th pivot
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows[:k]]
    s = 1 if d > 0 else -1
    taken = set(pivots)
    cols = []
    for j in range(n):
        if j in taken:
            continue
        v = [0] * n
        v[j] = abs(d)
        for t, c in enumerate(pivots):
            v[c] = -s * rows[t][j]
        g = gcd(*v)
        cols.append([x // g for x in v])
    return _matrix(cols, n).T.copy()


def lattice_basis(vectors, dim: int) -> list:
    """Canonical Hermite basis, as int lists, of the lattice that the integer
    vectors of length ``dim`` generate; equal lattices give equal bases."""
    return [row for row in _echelon(_int_rows(vectors), dim) if any(row)]


def column_lattices_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two integer matrices generate the same column lattice."""
    if a.shape[0] != b.shape[0]:
        return False
    return lattice_basis(a.T, a.shape[0]) == lattice_basis(b.T, b.shape[0])


def column_lattice_saturated(a) -> bool:
    """Whether the column lattice L of ``a`` (array or nested lists) is
    saturated, L = span_Q(L) ∩ Z^d: every nonzero invariant factor is 1.

    With H the r x d Hermite basis of L, the index of L in its saturation is
    the gcd of the r-square minors of H, which is the index in Z^r of the
    lattice that H's d columns generate; so L is saturated iff those columns
    have the identity as their Hermite basis.
    """
    rows = _int_rows(a)
    h = lattice_basis(zip(*rows), len(rows))
    return lattice_basis(zip(*h), len(h)) == eye(len(h)).tolist()


def in_row_span(a: np.ndarray, v) -> bool:
    """Whether vector ``v`` (ints or Fractions) is a rational combination of rows of ``a``."""
    vec = [Fraction(x) for x in (v.tolist() if isinstance(v, np.ndarray) else list(v))]
    if len(vec) != a.shape[1]:
        raise ValueError(f"vector length {len(vec)} != matrix columns {a.shape[1]}")
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ivec = np.array([int(x * den) for x in vec], dtype=object)
    stacked = np.vstack([a, ivec.reshape(1, -1)])
    return rational_rank(stacked) == rational_rank(a)


def primitive_vector(v) -> tuple:
    """Divide out the gcd and flip the sign so the first nonzero entry is positive.

    The zero vector is returned unchanged; used as the canonical key for the
    line through the origin spanned by ``v``.
    """
    vals = [int(x) for x in (v.tolist() if isinstance(v, np.ndarray) else list(v))]
    g = 0
    for x in vals:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(vals)
    vals = [x // g for x in vals]
    lead = next(x for x in vals if x != 0)
    if lead < 0:
        vals = [-x for x in vals]
    return tuple(vals)
