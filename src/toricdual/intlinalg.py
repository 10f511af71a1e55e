"""Exact integer linear algebra on immutable matrices of Python ints.

A matrix is an :class:`IntMatrix`, a tuple of row tuples whose entries are
Python ints (arbitrary precision), so nothing here can overflow or round.
:func:`imat` validates outside input into one, and the functions here also
take nested int sequences.

The fast path is fraction-free and runs on plain int lists.  One Bareiss loop
(``_bareiss``) serves ``rank`` (forward elimination); ``circuit_form``,
``ratlp.solve_linear`` and the edges at a simple vertex in
``engine.smooth_certificate`` (the same loop eliminating above each pivot
too); and ``integer_kernel`` (that Gauss-Jordan pass on the reversed
columns, then a Hermite form kept modulo its last pivot).  One Hermite
echelon loop (``_echelon``) serves ``lattice_basis``.
``lattice_basis`` answers every question about a lattice: equality (equal
lattices have equal bases, which ``smooth_certificate`` compares) and
saturation (``column_lattice_saturated``, which ``verify_gale_dual``
reads); no Smith form is needed for either.
``integer_kernel`` is the saturated canonical kernel basis behind the Gale
dual (the oracles keep the two-pass echelon route to the same basis as
their reference); ``circuit_kernel`` is the fundamental-circuit basis, a
kernel basis over Q only, written out from the Gauss-Jordan form that
``circuit_form`` returns.  The self-duality verdict reads its line classes
off that form without writing the basis out, and states its line-sum
witnesses in the basis's coordinates.  ``rational_rank`` and
``in_row_span`` keep ``fractions.Fraction`` Gauss-Jordan elimination as
reference arithmetic (the sigma referee's span test ranks with
``rational_rank``); the package's fast predicates do not call them.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


class IntMatrix:
    """An immutable integer matrix: a tuple of row tuples of Python ints.

    ``m[i]`` is row i, ``m.column(j)`` column j, ``m.select(cols)`` the
    matrix of the chosen columns and ``m.T`` the transpose; iterating gives
    the rows.  There are no arithmetic operators; :func:`matmul` forms a
    product.  Build one from outside data with :func:`imat`, which
    validates; the constructor trusts its rows and column count, which a
    matrix without rows needs.
    """

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows, ncols: int):
        self._rows = tuple(map(tuple, rows))
        self._ncols = ncols

    @property
    def shape(self) -> tuple:
        return len(self._rows), self._ncols

    @property
    def T(self) -> "IntMatrix":
        if not self._rows:
            return IntMatrix(((),) * self._ncols, 0)
        return IntMatrix(zip(*self._rows), len(self._rows))

    def tolist(self) -> list:
        return [list(row) for row in self._rows]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self._rows)

    def select(self, cols) -> "IntMatrix":
        """The matrix of columns ``cols`` (a sequence), in that order."""
        return IntMatrix([[row[j] for j in cols] for row in self._rows], len(cols))

    def __getitem__(self, i):
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    def __repr__(self):
        return f"IntMatrix({self.tolist()})"


def imat(rows) -> IntMatrix:
    """Validate nested sequences of integers into an :class:`IntMatrix`.

    Entries must be ints or integral Fractions; bools, floats and anything
    else raise ``ValueError``, so nothing inexact sneaks into a computation,
    as does a row that is not a sequence.  A matrix needs at least one row;
    rows may be empty (an n x 0 matrix).
    """
    if isinstance(rows, IntMatrix):
        return rows
    try:
        data = [tuple(r) for r in rows]
    except TypeError:
        raise ValueError("a matrix must be a sequence of rows of integers") from None
    if not data:
        raise ValueError("empty matrix")
    ncols = len(data[0])
    for i, row in enumerate(data):
        if len(row) != ncols:
            raise ValueError("ragged rows in matrix input")
        if not all(type(e) is int for e in row):
            for j, e in enumerate(row):
                if isinstance(e, bool) or not isinstance(e, (int, Fraction)) or e.denominator != 1:
                    raise ValueError(f"non-integer entry {e!r} at ({i},{j})")
            data[i] = tuple(map(int, row))
    return IntMatrix(data, ncols)


def eye(n: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)], n)


def matmul(a, b) -> IntMatrix:
    """The exact product of an m x k and a k x n integer matrix (an
    :class:`IntMatrix` or nested int sequences)."""
    a, b = imat(a), imat(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    cols = b.T
    return IntMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a], b.shape[1]
    )


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


def _bareiss(rows: list, jordan: bool = False) -> tuple:
    """Fraction-free (Bareiss 1968) elimination of ``rows``, in place.

    Columns without a pivot are skipped, so every division is exact on any
    shape.  Returns ``(pivots, pivot)``: ``pivots`` lists the pivot columns
    in order (their count is the rank) and ``pivot`` is the last pivot, a
    rank-square minor of the input up to sign.  Forward elimination by
    default; with ``jordan`` the rows above each pivot are eliminated by the
    same update (fraction-free Gauss-Jordan), which leaves row t, for t
    below the rank, equal to ``pivot`` times the reduced row echelon row of
    the t-th pivot.

    The update of a row x by the pivot row y is ``(x·p - f·y) / prev``, with
    f the row's entry in the pivot column.  When f is 0 that is ``x·p /
    prev``, which is x itself when the new pivot p equals the previous one:
    such a row is left as it is.  Sparse 0/±1 input (Segre and Lawrence
    configurations) meets that case at almost every pivot.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots, r, prev = [], 0, 1
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        p = pr[c]
        for i in range(0 if jordan else r + 1, m):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = [(x * p - f * y) // prev for x, y in zip(rows[i], pr)]
                elif p != prev:
                    rows[i] = [x * p // prev for x in rows[i]]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, prev


def rank(a) -> int:
    """Rank of an integer matrix (or nested int sequences), by fraction-free
    elimination."""
    return len(_bareiss(list(a))[0])


def rational_rank(a) -> int:
    """Rank of the matrix over the rationals, computed exactly."""
    rows = [[Fraction(x) for x in row] for row in a]
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


def integer_kernel(a) -> IntMatrix:
    """Saturated basis of the integer kernel ``{v : a @ v = 0}``.

    The columns of the result span the full lattice ``L = ker(a) ∩ Z^n``,
    not a finite-index sublattice, and are its column Hermite form, so the
    output is deterministic.  Method: Hermite form modulo a determinant
    (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987; Cohen, *A Course
    in Computational Algebraic Number Theory*, Alg. 2.4.8) behind one
    fraction-free Gauss-Jordan pass over ``a`` with its columns reversed.

    That pass picks B, the lex-last column basis (k = rank(a) columns), and
    ends on the pivot d; with D = |d|, P the other columns in increasing
    order and R the k Jordan rows on P, the kernel is
    ``d·x_B + R·x_P = 0``.  A vector of L can have its first nonzero entry
    at column j iff column j of ``a`` lies in the span of the later columns,
    i.e. iff j is in P, so P is the pivot set of the Hermite form H of L.
    Projecting L onto P is injective (x_P determines x_B), with image
    ``L_P = {x : R·x ≡ 0 mod D}``, which contains D·Z^P; so H on P is the
    Hermite form of L_P, square, upper triangular, each pivot dividing D,
    and every entry can be kept mod D.  Each row is lifted back exactly by
    ``x_B = -(R·x_P)/d``.

    The rows of H are found right to left over P.  The lattice
    ``Λ = (span of the columns of R seen) + D·Z^k`` is kept as a Hermite
    basis whose rows carry their coefficients on the columns inserted; since
    D·e_s lies in the span of the rows from s on, every entry right of a
    pivot may be reduced mod D.  If column j of R lies in Λ, the pivot h is 1
    and the reduction gives the row's coefficients; otherwise h is the index
    of Λ in Λ + Z·R_j (the ratio of the pivot products as R_j is inserted by
    extended gcd) and the row comes from reducing h·R_j against the old Λ.
    A back-reduction on the columns with h > 1 gives H; unit columns carry
    no entries.  The Hermite form of a lattice is unique, so this is entry
    for entry the basis of the textbook route (echelon ``[a^T | I]``, then
    echelon the kernel rows again), without that second pass's entry growth.
    """
    a = imat(a)
    n = a.shape[1]
    rows = [row[::-1] for row in a]
    pivots, d = _bareiss(rows, jordan=True)
    k = len(pivots)
    big = abs(d)
    cols = list(zip(*rows[:k])) if k else [()] * n  # R's columns, reversed numbering
    lam = [[big if s == t else 0 for s in range(k)] for t in range(k)]
    taken = set(pivots)
    # slots: the columns with h > 1, in sweep order; hs: their h; full: their
    # rows of H on the slots (h last)
    slots, hs, full = [], [], []
    out = []
    for j in range(n):
        if j in taken:
            continue
        v = [y % big for y in cols[j]] + [0] * len(slots)
        old, h = None, 1
        for t in range(k):
            x = v[t]
            if not x:
                continue
            row = lam[t]
            g = row[t]
            q, rem = divmod(x, g)
            if not rem:
                v = [(y - q * z) % big for y, z in zip(v, row)]
                continue
            if old is None:  # R_j is not in Λ: insert it, with a slot for j
                old, part = lam, v
                lam = [r + [0] for r in lam]
                row, v = lam[t], v + [1]
            # extended gcd, f·g + u·x = e = gcd(g, x): the pivot drops to e
            e = gcd(g, x)
            g1, x1 = g // e, x // e
            u = pow(x1, -1, g1)
            f = (1 - u * x1) // g1
            lam[t] = [(f * y + u * z) % big for y, z in zip(row, v)]
            v = [(g1 * z - x1 * y) % big for y, z in zip(row, v)]
            h *= g1
        if old is not None:
            # h·R_j lies in the old Λ; reducing it there gives the coefficients
            v = [h * y % big for y in part]
            for t in range(k):
                x = v[t]
                if x:
                    row = old[t]
                    q = x // row[t]
                    if q:
                        v = [(y - q * z) % big for y, z in zip(v, row)]
        x = v[k:] + [h]  # row j of H on the slots so far, then h at j
        ns = len(x) - 1
        for s in range(ns - 1, -1, -1):  # left to right in a's numbering
            q = x[s] // hs[s]
            if q:
                rs = full[s]
                for t in range(s + 1):
                    x[t] -= q * rs[t]
        if h > 1:
            slots.append(j)
            hs.append(h)
            full.append(x)
        vec = [0] * n
        vec[j] = h
        lift = [h * y for y in cols[j]]
        for s in range(ns):
            c = x[s]
            if c:
                i = slots[s]
                vec[i] = c
                lift = [z + c * y for z, y in zip(lift, cols[i])]
        for p, y in zip(pivots, lift):
            vec[p] = -y // d
        out.append(vec)
    if not out:
        return IntMatrix(((),) * n, 0)
    # out holds H's rows right to left, each in reversed numbering
    out.reverse()
    return IntMatrix(reversed(list(zip(*out))), len(out))


class CircuitForm(NamedTuple):
    """The fraction-free Gauss-Jordan form of a matrix ``a`` with n columns.

    ``pivots`` are the pivot columns, the lex-first column basis of ``a``;
    ``free`` the other columns, in increasing order; ``pivot`` the last
    pivot d, a ``rank(a)``-square minor of ``a`` up to sign.  ``rows[i][t]``
    is R_i at ``free[t]``, where R_i is d times the reduced echelon row of
    pivot i (on the pivot columns R_i is d times a unit vector, so those
    entries are not kept).  The kernel of ``a`` is ``d·x_B + R·x_free = 0``
    with B the pivots; :meth:`basis` writes out its fundamental circuits.
    """

    ncols: int
    pivots: tuple
    free: tuple
    pivot: int
    rows: tuple

    def basis(self) -> IntMatrix:
        """The fundamental-circuit basis: column t is ``|d|`` at ``free[t]``
        and ``-sign(d)·rows[i][t]`` at ``pivots[i]``, divided by the gcd of
        those entries."""
        n, big = self.ncols, abs(self.pivot)
        s = 1 if self.pivot > 0 else -1
        cols = []
        for t, j in enumerate(self.free):
            v = [0] * n
            v[j] = big
            for c, row in zip(self.pivots, self.rows):
                v[c] = -s * row[t]
            g = gcd(*v)
            cols.append([x // g for x in v])
        return IntMatrix(cols, n).T


def circuit_form(a) -> CircuitForm:
    """The :class:`CircuitForm` of ``a`` (an :class:`IntMatrix` or nested
    int sequences with at least one row): one fraction-free Gauss-Jordan
    pass."""
    rows = list(a)
    n = len(rows[0])
    pivots, d = _bareiss(rows, jordan=True)
    taken = set(pivots)
    free = tuple(j for j in range(n) if j not in taken)
    jordan = tuple(tuple(row[j] for j in free) for row in rows[: len(pivots)])
    return CircuitForm(n, tuple(pivots), free, d, jordan)


def circuit_kernel(a) -> IntMatrix:
    """Fundamental-circuit basis of the rational kernel ``{v : a @ v = 0}``.

    The pivot columns of a fraction-free Gauss-Jordan pass form the
    lex-first column basis of ``a``.  Column t of the result belongs to the
    t-th non-pivot column j: it is the primitive kernel vector supported on
    the basis plus j, positive at j.  It spans the kernel over Q but, unlike
    :func:`integer_kernel`, need not span the kernel lattice; no saturation
    step runs: before the column's common factor is divided out, each entry
    is, up to sign, a ``rank(a)``-square minor of ``a``.  The pass is
    :func:`circuit_form`, and :meth:`CircuitForm.basis` writes the columns.
    """
    return circuit_form(a).basis()


def lattice_basis(vectors, dim: int) -> list:
    """Canonical Hermite basis, as int lists, of the lattice that the integer
    vectors of length ``dim`` generate; equal lattices give equal bases."""
    return [row for row in _echelon([list(v) for v in vectors], dim) if any(row)]


def column_lattice_saturated(a) -> bool:
    """Whether the column lattice L of ``a`` (or of nested int sequences) is
    saturated, L = span_Q(L) ∩ Z^d: every nonzero invariant factor is 1.

    With H the r x d Hermite basis of L, the index of L in its saturation is
    the gcd of the r-square minors of H, which is the index in Z^r of the
    lattice that H's d columns generate; so L is saturated iff those columns
    have the identity as their Hermite basis.
    """
    rows = list(a)
    h = lattice_basis(zip(*rows), len(rows))
    return lattice_basis(zip(*h), len(h)) == eye(len(h)).tolist()


def in_row_span(a, v) -> bool:
    """Whether vector ``v`` (ints or Fractions) is a rational combination of rows of ``a``."""
    a = imat(a)
    vec = [Fraction(x) for x in v]
    if len(vec) != a.shape[1]:
        raise ValueError(f"vector length {len(vec)} != matrix columns {a.shape[1]}")
    den = lcm(*(x.denominator for x in vec))
    return rational_rank([*a, [int(x * den) for x in vec]]) == rational_rank(a)


def primitive_vector(v) -> tuple:
    """Divide out the gcd and flip the sign so the first nonzero entry is positive.

    The zero vector is returned unchanged; used as the canonical key for the
    line through the origin spanned by ``v``.
    """
    vals = [int(x) for x in v]
    g = gcd(*vals)
    if g == 0:
        return tuple(vals)
    vals = [x // g for x in vals]
    lead = next(x for x in vals if x != 0)
    if lead < 0:
        vals = [-x for x in vals]
    return tuple(vals)
