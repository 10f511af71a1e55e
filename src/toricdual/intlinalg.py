"""Exact integer linear algebra on immutable matrices of Python ints.

A matrix is an :class:`IntMatrix`, a tuple of row tuples whose entries are
Python ints (arbitrary precision), so nothing here can overflow or round.
:func:`imat` validates outside input into one, and the functions here also
take nested int sequences.

Every elimination here is fraction-free and runs on plain int lists, and
this is the one module that runs or reads an elimination loop: other
modules go through ``circuit_form``, ``integer_kernel`` and
``column_lattice`` (the simplex of ``ratlp`` takes its pivot steps through
``_pivot``).  One Bareiss loop (``_bareiss``), always Gauss-Jordan
(eliminating above each pivot too), serves ``circuit_form``, whose
:class:`CircuitForm` is how every other module reads that pass, and
``integer_kernel`` (the pass on the reversed columns, read on its full
rows, then a Hermite form kept modulo its last pivot).  Each step
of the list loop is one ``_pivot``, in which a row with a 0 in the pivot
column is not rescaled but keeps its own denominator until its next update.
On a dense matrix with small entries the loop instead holds each row as one
int, its entries the balanced base-2^w digits (``_bareiss_packed``, packed
a row at a time by ``struct``, which rescales such a row at once): a row
update is one big-int operation, exact because every stored entry is a
minor of the input and so fits the slot Hadamard's bound sizes.  A fixed
rule on the shape, the nonzero count and the slot width picks that path;
every other matrix keeps the list loop.  One Hermite echelon loop (``_echelon``)
serves ``lattice_basis``, whose canonical basis gives the rank of a column
lattice and decides its saturation (``column_lattice``, which
``verify_gale_dual`` and ``config_from_gale`` read) with no Smith form;
equal lattices have equal bases.  ``smooth_certificate``
needs no Hermite form: its lattice test is whether the last pivot of a
``circuit_form`` divides every Jordan entry.
``integer_kernel`` is the saturated canonical kernel basis behind the Gale
dual (the tests keep the two-pass echelon route to the same basis as its
reference).  ``circuit_form`` is the Gauss-Jordan form whose
:meth:`CircuitForm.basis` is the fundamental-circuit basis, a kernel basis
over Q only.  The self-duality verdict reads its line classes off that form
without writing the basis out, and states its line-sum witnesses in the
basis's coordinates.
"""

import reprlib
from math import gcd
from operator import mul
from struct import Struct
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


def _excerpt(value) -> str:
    """``value``'s repr for an error message, cut to a few dozen characters
    (``reprlib`` bounds its depth and lengths; the cut bounds the rest)."""
    text = reprlib.repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


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
        if not {int}.issuperset(map(type, row)):
            from fractions import Fraction  # only here, off the int-only import path

            for j, e in enumerate(row):
                if isinstance(e, bool) or not isinstance(e, (int, Fraction)) or e.denominator != 1:
                    raise ValueError(f"non-integer entry {_excerpt(e)} at ({i},{j})")
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


def _pivot(rows: list, scale: list, r: int, c: int, prev: int) -> int:
    """One fraction-free pivot step on ``rows[r][c]``, in place, after the
    pivot ``prev``; returns that entry p, the new pivot.  Row r is first
    brought up to ``prev``; every other row is then updated.

    A row x with entry f in column c becomes ``(x·p - f·y) / prev``, y the
    pivot row.  When f is 0 that only rescales x, so x is left as it is and
    keeps ``s = scale[i]``, the pivot it was last brought to, as its own
    denominator: its next update ``(x·p - f·y) // s`` is exact and equals
    the eager one.  Sparse 0/±1 input meets f = 0 at about half the updates.
    """
    s = scale[r]
    if s != prev:
        rows[r] = [x * prev // s for x in rows[r]]
    pr = rows[r]
    p = scale[r] = pr[c]
    for i in range(len(rows)):
        if i != r:
            f = rows[i][c]
            if f:
                s = scale[i]
                rows[i] = [(x * p - f * y) // s for x, y in zip(rows[i], pr)]
                scale[i] = p
    return p


def _bareiss(rows: list) -> tuple:
    """Fraction-free (Bareiss 1968) Gauss-Jordan elimination of ``rows``,
    in place.

    Columns without a pivot are skipped, so every division is exact on any
    shape.  Returns ``(pivots, pivot)``: ``pivots`` lists the pivot columns
    in order (their count is the rank) and ``pivot`` is the last pivot, a
    rank-square minor of the input up to sign.  The rows above each pivot
    are eliminated by the same update as those below, which leaves row t,
    for t below the rank, equal to ``pivot`` times the reduced row echelon
    row of the t-th pivot; the rows past the rank are zero.

    Each pivot is one :func:`_pivot`, whose rows keep their own
    denominators; every row is brought up to the last pivot at the end, so
    every output is the eager loop's.

    Packed rows.  A matrix with at least 16 columns and 7 rows, at least
    half its entries nonzero and slots of at most 256 bits (32 bytes of
    ``_slot_bytes``) runs :func:`_bareiss_packed`: each row is one int whose
    balanced base-2^w digits are its entries (Kronecker substitution), so
    an update is ``(p·X - f·Y) // prev`` on the whole row, one big-int
    operation where the list loop takes one interpreted step per entry.
    That is exact: every entry the pass stores is, up to sign, a minor of
    the input, so Hadamard's bound over the nonzero rows bounds it and
    sizes a slot that never overflows; and every entry of ``p·X - f·Y`` is
    divisible by ``prev``, so the packed int is ``prev`` times the packed
    update and ``//`` returns that exactly.  Other matrices keep the list
    loop, which is faster on small, sparse or huge-entry input: it leaves
    untouched rows alone, and its cost does not grow with a slot width.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if ncols >= 16 and m >= 7 and 2 * sum(ncols - row.count(0) for row in rows) >= m * ncols:
        nbytes = _slot_bytes(rows)
        if nbytes <= 32:
            return _bareiss_packed(rows, nbytes)
    pivots, r, prev = [], 0, 1
    scale = [1] * m  # scale[i]: the pivot row i was last brought to
    for c in range(ncols):
        if r == m:
            break
        for piv in range(r, m):
            if rows[piv][c]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale[r], scale[piv] = scale[piv], scale[r]
        prev = _pivot(rows, scale, r, c, prev)
        pivots.append(c)
        r += 1
    for i in range(r):
        s = scale[i]
        if s != prev:
            rows[i] = [x * prev // s for x in rows[i]]
    return pivots, prev


def _slot_bytes(rows: list) -> int:
    """Bytes per slot of ``_bareiss_packed`` on ``rows``: a slot of w bits
    holds the entries below 2^(w-1) in absolute value, and Hadamard's bound
    (the product of the lengths of the nonzero rows) bounds every minor.
    Exact up to 32 bytes, the widest slot the rule packs; past that some
    count above 32, as the product stops once it has more than 510 bits."""
    bound = 1  # the square of Hadamard's bound
    for row in rows:
        bound *= sum(map(mul, row, row)) or 1
        if bound.bit_length() > 510:
            break
    return ((bound.bit_length() + 1) // 2 + 8) // 8


def _bareiss_packed(rows: list, nbytes: int) -> tuple:
    """:func:`_bareiss` with each row held as one int, in slots of
    ``nbytes`` bytes, wide enough for Hadamard's bound on ``rows``
    (``_slot_bytes(rows)`` or more when that is at most 32); same result.

    Row x is the int ``Σ_j x_j·2^(w·j)``, w = 8·nbytes.  Adding ``off``
    (``half`` in every slot) makes every digit nonnegative, so an entry is
    read with no carry by a shift and a mask.  The intermediate ``p·X -
    f·Y`` may outgrow its slots, its quotient by ``prev`` does not.  The same
    pivots are found as in the list loop, but a row with f = 0 is rescaled
    at once: on rows this dense that is rare, and deferring it measured no
    faster.  At the end rows ``[:rank]`` are unpacked and the rest are zero.
    A slot of at most 8 bytes is widened to 1, 2, 4 or 8, so that one
    ``struct`` call packs or unpacks a whole row from its two's complement
    bytes, which are those of ``x + half`` with the top bit of each slot
    flipped (one ``^ off``); a wider slot goes entry by entry.
    """
    m, n = len(rows), len(rows[0])
    fmt = None
    if nbytes <= 8:
        nbytes = 1 << (nbytes - 1).bit_length()
        fmt = Struct(f"<{n}{ {1: 'b', 2: 'h', 4: 'i', 8: 'q'}[nbytes] }")
    w = 8 * nbytes
    half, mask = 1 << (w - 1), (1 << w) - 1
    off = int.from_bytes(half.to_bytes(nbytes, "little") * n, "little")
    if fmt:
        packed = [(int.from_bytes(fmt.pack(*row), "little") ^ off) - off for row in rows]
    else:
        packed = [
            int.from_bytes(b"".join((x + half).to_bytes(nbytes, "little") for x in row), "little")
            - off
            for row in rows
        ]
    pivots, r, prev = [], 0, 1
    for c in range(n):
        if r == m:
            break
        s = w * c
        # rows r.. are zero left of c, so their digit c needs no offset
        piv = next((i for i in range(r, m) if packed[i] >> s & mask), None)
        if piv is None:
            continue
        packed[r], packed[piv] = packed[piv], packed[r]
        y = packed[r]
        p = ((y >> s) + half & mask) - half
        for i in range(m):
            if i != r:
                x = packed[i]
                f = ((x + off) >> s & mask) - half
                if f:
                    packed[i] = (p * x - f * y) // prev
                elif p != prev:
                    packed[i] = x * p // prev
        prev = p
        pivots.append(c)
        r += 1
    if fmt:
        for i in range(r):
            rows[i] = list(fmt.unpack(((packed[i] + off) ^ off).to_bytes(nbytes * n, "little")))
    else:
        cuts = [slice(k, k + nbytes) for k in range(0, nbytes * n, nbytes)]
        for i in range(r):
            data = (packed[i] + off).to_bytes(nbytes * n, "little")
            rows[i] = [int.from_bytes(data[k], "little") - half for k in cuts]
    rows[r:] = [[0] * n for _ in range(r, m)]
    return pivots, prev


def integer_kernel(a) -> IntMatrix:
    """Saturated basis of the integer kernel ``{v : a @ v = 0}``.

    The columns of the result span the full lattice ``L = ker(a) ∩ Z^n``,
    not a finite-index sublattice, and are its column Hermite form, so the
    output is deterministic.  Method: Hermite form modulo a determinant
    (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987; Cohen, *A Course
    in Computational Algebraic Number Theory*, Alg. 2.4.8) behind the
    Gauss-Jordan pass of :func:`circuit_form` (each pivot one :func:`_pivot`)
    over ``a`` with its columns reversed, read on its full rows.

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
    pivots, d = _bareiss(rows)
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
    with B the pivots; :meth:`basis` writes out its fundamental circuits
    and :meth:`zero_rows` names that basis's zero rows.
    """

    ncols: int
    pivots: tuple
    free: tuple
    pivot: int
    rows: tuple

    def basis(self) -> IntMatrix:
        """The fundamental-circuit basis of the rational kernel of ``a``.

        Column t is ``|d|`` at ``free[t]`` and ``-sign(d)·rows[i][t]`` at
        ``pivots[i]``, divided by the gcd of those entries: the primitive
        kernel vector supported on the pivots plus ``free[t]``, positive
        there.  Before that division each entry is, up to sign, a
        ``rank(a)``-square minor of ``a``.  The columns span the kernel over
        Q but, unlike :func:`integer_kernel`, need not span the kernel
        lattice: no saturation step runs."""
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

    def zero_rows(self) -> tuple:
        """The zero rows of :meth:`basis`, without writing it out: the
        pivots whose Jordan row is zero, which is every column when none is
        free (the kernel is then 0).  These are the points of ``a`` that lie
        in no circuit."""
        return tuple(p for p, row in zip(self.pivots, self.rows) if not any(row))


def circuit_form(a) -> CircuitForm:
    """The :class:`CircuitForm` of ``a`` (an :class:`IntMatrix` or nested
    int sequences with at least one row): one fraction-free Gauss-Jordan
    pass."""
    rows = list(a)
    n = len(rows[0])
    pivots, d = _bareiss(rows)
    taken = set(pivots)
    free = tuple(j for j in range(n) if j not in taken)
    jordan = tuple(tuple(map(row.__getitem__, free)) for row in rows[: len(pivots)])
    return CircuitForm(n, tuple(pivots), free, d, jordan)


def lattice_basis(vectors, dim: int) -> list:
    """Canonical Hermite basis, as int lists, of the lattice that the integer
    vectors of length ``dim`` generate; equal lattices give equal bases."""
    return [row for row in _echelon([list(v) for v in vectors], dim) if any(row)]


def column_lattice(a) -> tuple:
    """``(rank, saturated)`` for the column lattice L of ``a`` (or of nested
    int sequences): the rank of ``a``, and whether L is saturated,
    L = span_Q(L) ∩ Z^d, which is whether every nonzero invariant factor
    is 1.

    With H the r x d Hermite basis of L, r is the rank, and the index of L
    in its saturation is the gcd of the r-square minors of H, which is the
    index in Z^r of the lattice that H's d columns generate; so L is
    saturated iff those columns have the identity as their Hermite basis.
    """
    rows = list(a)
    h = lattice_basis(zip(*rows), len(rows))
    return len(h), lattice_basis(zip(*h), len(h)) == eye(len(h)).tolist()


def _lowest_terms(nums, den) -> tuple:
    """``(v, e)``: the rational vector ``nums / den`` (``den`` nonzero) as
    an int list ``v`` over ``e > 0`` with ``gcd(e, *v) = 1``, which is the
    vector scaled by the lcm ``e`` of its entries' reduced denominators."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return [x // g for x in nums], den // g


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
