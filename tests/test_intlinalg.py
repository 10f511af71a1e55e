import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricdual import intlinalg
from toricdual.configuration import parse_configuration
from toricdual.intlinalg import (
    IntMatrix,
    _bareiss,
    _bareiss_packed,
    _echelon,
    _slot_bytes,
    circuit_form,
    column_lattice_saturated,
    eye,
    imat,
    integer_kernel,
    lattice_basis,
    matmul,
    primitive_vector,
    rank,
)
from test_gale import _digits_3900, column_lattices_equal


def cofactor_det(rows):
    """Independent determinant oracle: textbook cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def product(a, b):
    """Reference matrix product as int lists, by the textbook triple loop
    over indices (not ``intlinalg.matmul``)."""
    a, b = [list(r) for r in a], [list(r) for r in b]
    assert all(len(row) == len(b) for row in a)
    ncols = len(b[0]) if b else 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(ncols)]
        for i in range(len(a))
    ]


def minor_gcd(rows, size):
    """Independent lattice-index oracle: the gcd of all ``size``-square
    minors (cofactor expansion), stopping once it reaches 1; 0 when there is
    no such minor or all vanish.  For ``size`` the rank, it is 1 exactly
    when the column lattice is saturated (every nonzero invariant factor 1);
    for ``size`` the row count, exactly when the columns span Z^d."""
    rows = [[int(x) for x in row] for row in rows]
    g = 0
    for rs in combinations(range(len(rows)), size):
        for cs in combinations(range(len(rows[0])), size):
            g = gcd(g, cofactor_det([[rows[i][j] for j in cs] for i in rs]))
            if g == 1:
                return 1
    return g


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


# entries up to 10^12; ``_decorate`` adds repeated, zero and scaled rows
big_entries = st.one_of(st.integers(-6, 6), st.integers(-(10**12), 10**12))
big_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(big_entries, min_size=n, max_size=n), min_size=m, max_size=m),
            st.lists(st.sampled_from(["copy", "zero", "scale"]), max_size=3),
        )
    )
)


def _decorate(rows, extras):
    """Append a repeated, a zero or a scaled copy of a row for each extra."""
    rows = [list(r) for r in rows]
    made = {
        "copy": lambda src: list(src),
        "zero": lambda src: [0] * len(src),
        "scale": lambda src: [-3 * x for x in src],
    }
    for k, kind in enumerate(extras):
        rows.append(made[kind](rows[k % len(rows)]))
    return rows


any_matrices = st.one_of(small_matrices, big_matrices.map(lambda case: _decorate(*case)))


def _is_column_hermite(k) -> bool:
    """Column Hermite form: each column's first nonzero entry (its pivot) is
    positive and lies strictly below the previous column's, and every other
    entry in a pivot's row lies in [0, pivot)."""
    rows, cols = k.shape
    last = -1
    for j in range(cols):
        p = next((i for i in range(rows) if k[i][j] != 0), None)
        if p is None or p <= last or k[p][j] <= 0:
            return False
        if any(not 0 <= k[p][i] < k[p][j] for i in range(cols) if i != j):
            return False
        last = p
    return True


def test_imat_rejects_non_integers():
    with pytest.raises(ValueError):
        imat([[1, 2.5]])
    with pytest.raises(ValueError):
        imat([])
    with pytest.raises(ValueError):
        imat([[1, 2], [3]])
    with pytest.raises(ValueError):
        imat([[True, 0]])


def test_imat_rejects_rows_that_are_not_sequences():
    for bad in (5, [5], [[1, 2], 3], None):
        with pytest.raises(ValueError):
            imat(bad)


def test_imat_accepts_zero_columns():
    m = imat([[], [], []])
    assert m.shape == (3, 0)
    assert m.tolist() == [[], [], []]
    assert m.T.shape == (0, 3)
    assert m.T.T == m


def test_int_matrix_access_and_equality():
    m = imat([[1, 2, 3], [4, 5, Fraction(6)]])
    assert m.shape == (2, 3)
    assert m.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert all(type(x) is int for row in m.tolist() for x in row)
    assert m[1] == (4, 5, 6) and list(m) == [(1, 2, 3), (4, 5, 6)] and len(m) == 2
    assert m.column(2) == (3, 6)
    assert m.T.tolist() == [[1, 4], [2, 5], [3, 6]]
    assert m.select([2, 0]).tolist() == [[3, 1], [6, 4]]
    assert m.select([]).shape == (2, 0)
    assert imat(m) is m
    assert m == imat([[1, 2, 3], [4, 5, 6]]) == imat(m.tolist())
    assert m != imat([[1, 2, 3]]) and m != m.T and m != m.tolist()
    assert imat([[]]) != imat([[], []])


def test_int_matrix_is_immutable():
    m = imat([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        m[0] = (0, 0)
    with pytest.raises(TypeError):
        m[0][0] = 0
    rows = m.tolist()
    rows[0][0] = 9
    assert m.tolist() == [[1, 2], [3, 4]]


@settings(max_examples=150, deadline=None)
@given(any_matrices, st.integers(1, 4), st.randoms(use_true_random=False))
def test_matmul_matches_reference_product(rows, k, rnd):
    other = [[rnd.randint(-9, 9) for _ in range(k)] for _ in rows[0]]
    assert matmul(rows, other).tolist() == product(rows, other)
    assert matmul(imat(rows), imat(other)) == imat(product(rows, other))
    with pytest.raises(ValueError):
        matmul(rows, other + [[0] * k])


def _in_lattice(h, v) -> bool:
    """Whether ``v`` is an integer combination of the rows of the echelon
    basis ``h``, by exact back-substitution along its pivots."""
    v = list(v)
    for row in h:
        p = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[p], row[p])
        if rem:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def test_hermite_identity():
    # the column Hermite form of a is the row Hermite form of its transpose
    assert lattice_basis(eye(3).T, 3) == eye(3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_hermite_zero():
    # the zero lattice has an empty basis
    assert lattice_basis(imat([[0, 0], [0, 0]]).T, 2) == []


def test_hermite_2x2_example():
    m = imat([[2, 4], [0, 2]])
    h = lattice_basis(m.T, 2)
    assert h == [[2, 0], [0, 2]]
    assert all(_in_lattice(h, col) for col in m.T)
    assert abs(cofactor_det(h)) == abs(cofactor_det(m.tolist())) == 4


def _check_hermite_basis(vectors, dim):
    """``lattice_basis`` against independent oracles: Hermite shape, the
    rank, every generator in its lattice, and equal maximal-minor gcds (so
    the generators' lattice is not a proper sublattice of it)."""
    h = lattice_basis(vectors, dim)
    k = len(h)
    assert _is_column_hermite(IntMatrix([[row[i] for row in h] for i in range(dim)], k))
    assert k == fraction_rank(vectors)
    assert all(_in_lattice(h, v) for v in vectors)
    if k:
        assert minor_gcd(h, k) == minor_gcd(vectors, k)


@settings(max_examples=150, deadline=None)
@given(any_matrices)
def test_hermite_properties(rows):
    m = imat(rows)
    _check_hermite_basis(m.T.tolist(), m.shape[0])  # column lattice
    _check_hermite_basis(m.tolist(), m.shape[1])  # row lattice


def test_lattice_basis_is_canonical():
    # same lattice presented by two generating sets -> identical basis
    a = [[2, 1], [0, 3]]
    b = [[2, 1], [2, 4], [4, 5]]
    assert lattice_basis(a, 2) == lattice_basis(b, 2) == [[2, 1], [0, 3]]


def test_kernel_collinear_triple():
    # three collinear points 0, 1, 2 with the middle one the midpoint
    m = imat([[1, 1, 1], [0, 1, 2]])
    k = integer_kernel(m)
    assert k.shape == (3, 1)
    col = primitive_vector(k.column(0))
    assert col == (1, -2, 1)


def test_kernel_identity_is_trivial():
    k = integer_kernel(eye(4))
    assert k.shape == (4, 0)


def test_kernel_twisted_cubic_lattice():
    m = imat([[1, 1, 1, 1], [0, 1, 2, 3]])
    k = integer_kernel(m)
    assert k.shape == (4, 2)
    expected = imat([[1, 0], [-2, 1], [1, -2], [0, 1]])
    assert column_lattices_equal(k, expected)


@settings(max_examples=150, deadline=None)
@given(any_matrices)
def test_kernel_is_saturated_and_annihilates(rows):
    # these four properties determine the kernel matrix uniquely
    m = imat(rows)
    k = integer_kernel(m)
    if k.shape[1]:
        prod = product(m, k)
        assert prod == [[0] * k.shape[1] for _ in range(m.shape[0])]
        # saturated basis: its maximal minors are coprime
        assert minor_gcd(k.tolist(), k.shape[1]) == 1
        assert _is_column_hermite(k)
    assert k.shape == (m.shape[1], m.shape[1] - fraction_rank(m))


def _with_columns(rows, extras, ones):
    """Append a repeated, a scaled or a zero copy of a column for each extra,
    then a row of ones on top if ``ones`` (the ``[1; W]`` of a Gale dual)."""
    cols = [list(c) for c in zip(*rows)]
    made = {
        "repeat": list,
        "scale": lambda src: [5 * x for x in src],
        "zero": lambda src: [0] * len(src),
    }
    for k, kind in enumerate(extras):
        cols.append(made[kind](cols[k % len(cols)]))
    rows = [list(r) for r in zip(*cols)]
    return [[1] * len(cols), *rows] if ones else rows


kernel_matrices = st.one_of(
    st.tuples(
        any_matrices,
        st.lists(st.sampled_from(["repeat", "scale", "zero"]), max_size=3),
        st.booleans(),
    ).map(lambda case: _with_columns(*case)),
    # rank 0: the kernel is everything
    st.tuples(st.integers(1, 3), st.integers(1, 5)).map(lambda s: [[0] * s[1]] * s[0]),
)


def _hermite_kernel(a) -> IntMatrix:
    """The saturated kernel basis by the two-pass Hermite route, the
    reference ``integer_kernel`` is checked against.

    An echelon pass over the first m columns of ``[a^T | I_n]`` leaves, in
    the rows that vanish there, a unimodular basis of ``ker(a) ∩ Z^n``;
    echelon those rows on their own for the Hermite form.  The result equals
    ``integer_kernel(a)``, which reaches the same form modulo a determinant
    without the second pass's entry growth.
    """
    a = imat(a)
    m, n = a.shape
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a.T)]
    rows = _echelon(rows, m)
    return IntMatrix(_echelon([row[m:] for row in rows if not any(row[:m])], n), n).T


@settings(max_examples=300, deadline=None)
@given(kernel_matrices)
def test_kernel_equals_two_pass_reference(rows):
    assert integer_kernel(rows) == _hermite_kernel(rows)


def _random_26x100():
    # the entries of demos/data/random_26x100.txt
    rng = random.Random(26100)
    return [[rng.randint(-3, 3) for _ in range(100)] for _ in range(26)]


@pytest.mark.parametrize(
    "weights", [_random_26x100(), _digits_3900(3, 6)], ids=["26x100", "3900-digit-3x6"]
)
def test_kernel_equals_two_pass_reference_at_scale(weights):
    a = [[1] * len(weights[0]), *weights]
    assert integer_kernel(a) == _hermite_kernel(a)


def fraction_echelon(a) -> list:
    """The tests' reference elimination, in ``Fraction`` arithmetic: each
    row of ``a`` reduced by the rows kept before it, ``v <- v - v[p]·row``,
    and, unless zero, kept as ``(p, row)`` scaled so that its first nonzero
    entry ``row[p]`` is 1."""
    echelon = []
    for row in a:
        v = [Fraction(x) for x in row]
        for p, kept in echelon:
            f = v[p]
            if f:
                v = [x - f * y for x, y in zip(v, kept)]
        p = next((p for p, x in enumerate(v) if x), None)
        if p is not None:
            echelon.append((p, [x / v[p] for x in v]))
    return echelon


def fraction_rank(a) -> int:
    """Rank over the rationals: the length of ``fraction_echelon(a)``; no
    package module computes a rank this way."""
    return len(fraction_echelon(a))


def test_rank_examples():
    for a, r in ((eye(5), 5), (imat([[0, 0], [0, 0]]), 0), (imat([[1, 2], [2, 4]]), 1)):
        assert fraction_rank(a) == rank(a) == r


def in_row_span(a, v) -> bool:
    """Whether vector ``v`` (ints or Fractions) is a rational combination of
    rows of ``a``: the tests' reference for row-span membership, by the
    Fraction rank."""
    a = imat(a)
    vec = [Fraction(x) for x in v]
    if len(vec) != a.shape[1]:
        raise ValueError(f"vector length {len(vec)} != matrix columns {a.shape[1]}")
    den = lcm(*(x.denominator for x in vec))
    return fraction_rank([*a, [int(x * den) for x in vec]]) == fraction_rank(a)


def test_in_row_span():
    m = imat([[1, 1, 1], [0, 1, 2]])
    assert in_row_span(m, [1, 1, 1])
    assert in_row_span(m, [0, 0, 0])
    # solve the 2x3 system by hand: a=1, b=-1 forces third coord -1, not 0
    assert not in_row_span(m, [1, 0, 0])
    assert in_row_span(m, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        in_row_span(m, [1, 0])
    # unequal denominators: the vector is cleared by their lcm, not divided
    assert not in_row_span([[2, 4]], [Fraction(1, 2), Fraction(1, 3)])
    assert in_row_span([[2, 4]], [Fraction(1, 2), 1])


def test_primitive_vector():
    assert primitive_vector([-2, 4, -6]) == (1, -2, 3)
    assert primitive_vector([0, 0]) == (0, 0)
    assert primitive_vector([0, -5]) == (0, 1)


def test_big_integers_survive():
    big = 10**40
    m = imat([[big, 0], [0, 1]])
    assert _bareiss(list(m)) == ([0, 1], big)


@settings(max_examples=150, deadline=None)
@given(any_matrices)
def test_saturation_and_normalized_flag_match_minor_gcd(rows):
    r = fraction_rank(imat(rows))
    assert column_lattice_saturated(rows) == (r == 0 or minor_gcd(rows, r) == 1)
    assert column_lattice_saturated(imat(rows)) == column_lattice_saturated(rows)
    # the columns span Z^d exactly when their Hermite basis is the identity
    spans = lattice_basis(imat(rows).T, len(rows)) == eye(len(rows)).tolist()
    assert spans == (minor_gcd(rows, len(rows)) == 1)


@settings(max_examples=200, deadline=None)
@given(any_matrices)
def test_bareiss_rank_equals_fraction_rank(rows):
    m = imat(rows)
    assert rank(m) == rank(rows) == rank(m.T) == fraction_rank(m)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_bareiss_det_equals_cofactor_expansion(rows):
    # full rank iff the determinant is nonzero, and then the last pivot is
    # the determinant up to the sign of the row swaps
    n = min(len(rows), len(rows[0]))
    square = [r[:n] for r in rows[:n]]
    pivots, pivot = _bareiss([list(r) for r in square])
    d = cofactor_det(square)
    assert (len(pivots) == n) == (d != 0)
    if d:
        assert abs(pivot) == abs(d)


def _bareiss_unskipped(rows, jordan=False):
    """The eager Bareiss loop that ``_bareiss`` must match: at every pivot,
    every row other than the pivot row gets the full update ``(x·p - f·y) /
    prev``, so no row is left out or kept over a denominator of its own."""
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
                rows[i] = [(x * p - f * y) // prev for x, y in zip(rows[i], pr)]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, prev


def _identity_block(rows):
    """``(I | rows)``: a unit block beside the draw, as in a Lawrence lift's
    top rows, where most pivots equal the one before."""
    return [[int(i == j) for j in range(len(rows))] + list(row) for i, row in enumerate(rows)]


def _lawrence_rows(rows):
    """The rows of the Lawrence lift ``(I | I ; 0 | M)`` of ``rows`` (d x n)."""
    n = len(rows[0])
    top = [[int(j % n == i) for j in range(2 * n)] for i in range(n)]
    return top + [[0] * n + list(row) for row in rows]


def _block_diagonal(rows):
    """Two or three copies of ``rows`` (the k-th times k) down the diagonal,
    over one dense row across them all: a row sits out every pivot of the
    blocks before its own, and enters its own block as the pivot row while
    still left out."""
    n, copies = len(rows[0]), 2 + len(rows) % 2
    out = [
        [0] * (k * n) + [(k + 1) * x for x in row] + [0] * ((copies - k - 1) * n)
        for k in range(copies)
        for row in rows
    ]
    return out + [[1 + j % 3 for j in range(copies * n)]]


SHAPES = {
    "dense": list,
    "identity block": _identity_block,
    "lawrence": _lawrence_rows,
    "block diagonal": _block_diagonal,
}


@settings(max_examples=267, deadline=None)
@given(any_matrices, st.sampled_from(sorted(SHAPES)), st.booleans())
def test_bareiss_skip_leaves_every_output_as_the_full_update(rows, shape, jordan):
    rows = SHAPES[shape](rows)
    skipped, full = [list(r) for r in rows], [list(r) for r in rows]
    assert _bareiss(skipped, jordan) == _bareiss_unskipped(full, jordan)
    assert [list(r) for r in skipped] == full


def _hadamard_slot_bytes(rows):
    """The slot width of the whole Hadamard bound on ``rows``: what
    ``_slot_bytes`` returns up to 32 bytes, where it stops counting."""
    bound = prod(sum(x * x for x in row) or 1 for row in rows)
    return ((bound.bit_length() + 1) // 2 + 8) // 8


def _packed_matches_reference(rows, jordan):
    """``_bareiss_packed`` at the slot width of Hadamard's bound, called
    directly (whatever the rule would pick), against the full update."""
    packed, full = [list(r) for r in rows], [list(r) for r in rows]
    width = _hadamard_slot_bytes(packed)
    assert _bareiss_packed(packed, jordan, width) == _bareiss_unskipped(full, jordan)
    assert packed == [list(r) for r in full]
    # the rule's width is that one up to 32 bytes, and past 32 past it
    assert min(_slot_bytes(rows), 33) == min(width, 33)


@settings(max_examples=267, deadline=None)
@given(any_matrices, st.sampled_from(sorted(SHAPES)), st.booleans())
def test_packed_rows_leave_every_output_as_the_full_update(rows, shape, jordan):
    _packed_matches_reference(SHAPES[shape](rows), jordan)


@settings(max_examples=200, deadline=None)
@given(any_matrices, st.sampled_from(sorted(SHAPES)), st.booleans())
@example([[1]], "dense", False)
@example([[1, -1], [2, 3]], "block diagonal", True)
def test_packed_rows_at_every_slot_width(rows, shape, jordan):
    # from Hadamard's width up to 9 bytes: slots of 1, 2, 4 and 8 bytes go
    # through struct (3 and 5-7 round up), wider ones through bytes
    rows = SHAPES[shape](rows)
    width = _hadamard_slot_bytes(rows)
    for nbytes in range(width, max(width, 9) + 1):
        packed, full = [list(r) for r in rows], [list(r) for r in rows]
        assert _bareiss_packed(packed, jordan, nbytes) == _bareiss_unskipped(full, jordan)
        assert packed == full


def _sylvester(n):
    """The n x n Sylvester-Hadamard matrix (n a power of 2): its
    determinant meets Hadamard's bound, so every slot is as full as the
    bound allows."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def _packed_edge_cases():
    rng = random.Random(40)
    for n in (8, 16):
        for h in (_sylvester(n), [[-x for x in row] for row in _sylvester(n)]):
            yield f"hadamard-{n}", h
            yield f"hadamard-{n}-zero-column-repeated-row", [row + [0] for row in h] + [h[3] + [0]]
    yield "7-equal-rows", [[1, -2, 3, 0, 5] * 4] * 7
    yield "zero-8x20", [[0] * 20 for _ in range(8)]
    yield "9x0", [[] for _ in range(9)]
    yield "entries-1e40", [[rng.randint(-(10**40), 10**40) for _ in range(18)] for _ in range(8)]


@pytest.mark.parametrize("jordan", [False, True], ids=["forward", "jordan"])
@pytest.mark.parametrize("case", list(_packed_edge_cases()), ids=lambda case: case[0])
def test_packed_rows_on_edge_cases(case, jordan):
    _packed_matches_reference(case[1], jordan)


def test_hadamard_matrix_fills_its_slots_to_the_bound():
    # |det| = 16^8 = 2^32 meets Hadamard's bound and is the largest entry
    # the pass stores; 33 bits and a sign bit, rounded up to whole bytes
    h = _sylvester(16)
    assert _slot_bytes(h) == 5
    rows = [list(r) for r in h]
    assert abs(_bareiss(rows, jordan=True)[1]) == 2**32 == max(abs(x) for r in rows for x in r)


def _packed_calls(monkeypatch, rows, jordan=True):
    """How many times ``_bareiss`` took the packed path on ``rows``."""
    calls = []

    def recording(rows, jordan, nbytes):
        calls.append(nbytes)
        return _bareiss_packed(rows, jordan, nbytes)

    monkeypatch.setattr(intlinalg, "_bareiss_packed", recording)
    _bareiss([list(r) for r in rows], jordan)
    return len(calls)


def test_the_rule_packs_dense_small_entry_matrices_only(monkeypatch):
    rng = random.Random(2280)
    dense = [[1] * 80] + [[rng.randint(-3, 3) for _ in range(80)] for _ in range(21)]
    lifted = _lawrence_rows([[rng.randint(-3, 3) for _ in range(10)] for _ in range(4)])
    small = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)]
    huge = [[rng.randint(-(10**100), 10**100) for _ in range(30)] for _ in range(12)]
    # [1; W] of an 8x20 W with 1000-digit entries: its second row alone puts
    # Hadamard's bound past 32-byte slots, where the rule stops counting
    rng = random.Random(3)
    digits = [[1] * 20] + [[rng.randrange(10**999, 10**1000) for _ in range(20)] for _ in range(8)]
    assert 32 < _slot_bytes(digits) < _hadamard_slot_bytes(digits)
    assert _packed_calls(monkeypatch, dense) == _packed_calls(monkeypatch, dense, False) == 1
    assert [_packed_calls(monkeypatch, rows) for rows in (lifted, small, huge, digits)] == [0] * 4
    # forward elimination makes half the updates: 8 rows pack only for Jordan
    assert _packed_calls(monkeypatch, dense[:8]) == 1
    assert _packed_calls(monkeypatch, dense[:8], False) == 0


def test_circuit_kernel_twisted_cubic():
    # basis {0, 1}; the circuits of columns 2 and 3 are 1-2+1 and 2-3+1
    k = circuit_form(imat([[1, 1, 1, 1], [0, 1, 2, 3]])).basis()
    assert k.tolist() == [[1, 2], [-2, -3], [1, 0], [0, 1]]


def _lex_first_basis(m):
    """Greedy column basis, each column tested with the Fraction rank."""
    basis = []
    for j in range(m.shape[1]):
        if fraction_rank(m.select(basis + [j])) > len(basis):
            basis.append(j)
    return basis


@settings(max_examples=150, deadline=None)
@given(any_matrices)
def test_circuit_basis_columns_are_fundamental_circuits(rows):
    c = parse_configuration(rows)
    a = imat([[1] * c.npoints] + rows)
    k = c.circuit_basis
    assert k == circuit_form(a).basis()
    basis = _lex_first_basis(a)
    free = [j for j in range(c.npoints) if j not in basis]
    assert k.shape == (c.npoints, c.npoints - fraction_rank(a))
    for t, j in enumerate(free):
        col = list(k.column(t))
        # an affine relation, primitive, on the basis plus j, positive at j
        assert product(a, [[x] for x in col]) == [[0]] * a.shape[0]
        assert gcd(*col) == 1
        assert all(x == 0 for i, x in enumerate(col) if i != j and i not in basis)
        assert col[j] > 0


@settings(max_examples=200, deadline=None)
@given(any_matrices)
@example([[0, 0, 0], [0, 0, 0]])  # rank 0: no zero row
@example([[2, 1], [1, 3]])  # corank 0: every row is zero
@example([[1, 0, 0], [0, 1, 1]])  # column 0 lies in no circuit
def test_zero_rows_are_the_zero_rows_of_the_basis(rows):
    form = circuit_form(rows)
    expected = tuple(i for i, row in enumerate(form.basis()) if not any(row))
    assert form.zero_rows() == expected
