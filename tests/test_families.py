import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricdual.configuration import affine_dim, parse_configuration
from toricdual.engine import is_segre, is_self_dual
from toricdual.families import (
    config_from_gale,
    family_alpha,
    family_alpha_gale,
    family_codim,
    family_dim,
    lawrence,
    segre,
)
from toricdual.gale import gale_dual, verify_gale_dual
from toricdual.intlinalg import imat, integer_kernel, lattice_basis
from test_engine import _nonsingular, _unimodular
from test_gale import column_lattices_equal
from test_intlinalg import _hermite_kernel, cofactor_det, fraction_rank, in_row_span, product


def test_segre_shape_and_lattice():
    c = segre(2)
    assert c.weights.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert in_row_span(c.weights, [1] * c.npoints)  # on the hyperplane x + y = 1
    # the columns span Z^3: their Hermite basis is the identity
    assert lattice_basis(c.weights.T, c.dim) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError):
        segre(1)


def test_segre_never_pyramidal():
    for m in (2, 3, 4, 5):
        assert not gale_dual(segre(m)).zero_rows()


def test_lawrence_relations_are_lifted_kernel():
    m = imat([[1, 2, 3]])
    c = lawrence(m)
    k = integer_kernel(m)
    lifted = [[-x for x in k.column(j)] + list(k.column(j)) for j in range(k.shape[1])]
    assert column_lattices_equal(gale_dual(c).matrix, imat(lifted).T)


def test_lawrence_pyramidal_iff_block_pyramidal():
    # identity block: no relations at all -> pyramidal lift
    assert gale_dual(lawrence([[1, 0], [0, 1]])).zero_rows() == tuple(range(4))
    # full-support kernel -> non-pyramidal lift
    assert gale_dual(lawrence([[1, 1, 1]])).zero_rows() == ()


def test_family_alpha_matches_companion_dual_and_dim():
    for a in (1, 2, 3, -2):
        c = family_alpha(a)
        assert affine_dim(c) == 4
        assert verify_gale_dual(c, family_alpha_gale(a))
    with pytest.raises(ValueError):
        family_alpha(0)


def test_config_from_gale_round_trip_segre():
    b = gale_dual(segre(2)).matrix
    c = config_from_gale(b)
    assert verify_gale_dual(c, b)
    # same affine relation lattice as the original
    assert column_lattices_equal(gale_dual(c).matrix, b)


def test_config_from_gale_round_trip_family_alpha():
    b = family_alpha_gale(2)
    c = config_from_gale(b)
    assert verify_gale_dual(c, b)
    assert column_lattices_equal(gale_dual(c).matrix, gale_dual(family_alpha(2)).matrix)


def test_config_from_gale_round_trip_simplex():
    # a simplex has no affine relations: its Gale dual has no columns
    b = gale_dual(parse_configuration([[0, 1, 0], [0, 0, 1]])).matrix
    assert b.shape == (3, 0)
    for gale in (b, [[], [], []]):
        c = config_from_gale(gale)
        assert c.weights.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert verify_gale_dual(c, b)


def test_config_from_gale_regularity():
    c = config_from_gale([[1, 0], [-1, 0], [0, 1], [0, -1], [2, -2], [-2, 2]])
    # the points lie on an affine hyperplane off the origin
    assert in_row_span(c.weights, [1] * c.npoints)


def test_config_from_gale_rejects_bad_input():
    with pytest.raises(ValueError):
        config_from_gale([[1, 0], [0, 1]])  # rows do not sum to zero
    with pytest.raises(ValueError):
        config_from_gale([[1, 1], [-1, -1]])  # dependent columns
    with pytest.raises(ValueError):
        config_from_gale([[2], [-2]])  # index-2 sublattice, not saturated


def test_families_have_their_literal_shapes():
    # Segre: (Id | Id ; 0 | 1...1), written out row by row
    for m in range(2, 10):
        unit = [[int(i == j) for j in range(m)] for i in range(m)]
        rows = [row + row for row in unit] + [[0] * m + [1] * m]
        assert segre(m).weights.tolist() == rows
    # family_dim: the planar Gale rows (a_i, 0), (0, +-1), +-(1, 1)
    for alphas in ([1, -1], [2, -2], [1, 1, -2], [3, -1, -2], [2, 2, -1, -3], [5, -1, -1, -1, -2]):
        gale = [[a, 0] for a in alphas] + [[0, 1], [0, -1], [1, 1], [-1, -1]]
        c = family_dim(len(alphas), alphas)
        assert c.weights.tolist() == config_from_gale(gale).weights.tolist()


def test_family_dim_examples():
    c = family_dim(2, [1, -1])
    assert affine_dim(c) == 3
    assert is_segre(c) == 3  # the +-1 case is the Segre embedding of P^1 x P^2
    c2 = family_dim(2, [2, -2])
    assert affine_dim(c2) == 3
    assert is_self_dual(c2).value
    assert is_segre(c2) is None
    for r, alphas in ((3, [1, 1, -2]), (4, [2, -1, -1, 0])):
        if any(a == 0 for a in alphas):
            with pytest.raises(ValueError):
                family_dim(r, alphas)
        else:
            c = family_dim(r, alphas)
            assert affine_dim(c) == r + 1
            assert is_self_dual(c).value


def test_family_codim_examples():
    c = family_codim(2, 2, [1, -1])
    assert affine_dim(c) == 3  # m + r - 1
    assert c.npoints == 2 * 2 + 2
    assert c.npoints - 1 - affine_dim(c) == 2  # codimension m
    assert is_self_dual(c).value
    c = family_codim(3, 2, [2, -2])
    assert affine_dim(c) == 4
    assert c.npoints - 1 - affine_dim(c) == 3
    assert is_self_dual(c).value
    assert not gale_dual(c).zero_rows()


def test_family_validation():
    with pytest.raises(ValueError):
        family_dim(1, [1])
    with pytest.raises(ValueError):
        family_dim(2, [1, 1])  # does not sum to zero
    with pytest.raises(ValueError):
        family_codim(1, 2, [1, -1])
    with pytest.raises(ValueError):
        family_codim(2, 2, [1, -1, 0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: family_alpha_gale(0), "alpha != 0"),
        (lambda: family_alpha_gale(0), "^family_alpha_gale requires alpha != 0$"),
        (lambda: family_dim(3, [1, -1]), "expected 3 alpha values"),
        (lambda: family_dim(2, [0, 0]), "nonzero and sum to zero"),
        (lambda: family_codim(2, 1, [1]), "r >= 2"),
        (lambda: family_codim(2, 2, [0, 0]), "nonzero and sum to zero"),
        (lambda: family_codim(2, 2, [1, 1]), "nonzero and sum to zero"),
        # non-integers are refused, not truncated: 2.7 - 2.2 is not 0
        (lambda: family_dim(2, [2.7, -2.2]), "integer alpha, got 2.7"),
        (lambda: family_codim(2, 2, ["1", "-1"]), "integer alpha, got '1'"),
        (lambda: family_codim(2, 2, [Fraction(1, 2), Fraction(-1, 2)]), "integer alpha"),
        (lambda: family_codim(2, 2, [True, -1]), "integer alpha, got True"),
        (lambda: family_codim(2, 2, None), "family_codim requires an iterable alphas, got None$"),
        (lambda: family_dim(2, 5), "iterable alphas, got 5$"),
        (lambda: family_codim(2.9, 2, [1, -1]), "integer m, got 2.9"),
        (lambda: family_dim(2.0, [1, -1]), "integer r, got 2.0"),
        (lambda: family_codim(2, "2", [1, -1]), "integer r"),
        (lambda: segre(2.5), "segre requires an integer m, got 2.5"),
        (lambda: segre("3"), "integer m"),
        # alpha is refused as the caller wrote it, not as an entry built from it
        (lambda: family_alpha(True), r"family_alpha requires an integer alpha, got True$"),
        (lambda: family_alpha(2.0), r"integer alpha, got 2\.0$"),
        (lambda: family_alpha(1.5), r"integer alpha, got 1\.5$"),
        (lambda: family_alpha_gale(True), r"family_alpha_gale requires an integer alpha, got True$"),
        (lambda: family_alpha_gale(2.0), r"integer alpha, got 2\.0$"),
        (lambda: family_alpha_gale(1.5), r"integer alpha, got 1\.5$"),
    ],
)
def test_family_argument_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _canonical_verify(c, b):
    """The former ``verify_gale_dual``, kept as the reference: the columns
    are affine relations, independent, as many as the canonical Gale dual's
    and generate the same lattice; the canonical basis comes from the
    two-pass Hermite kernel of ``test_intlinalg`` and the rank from
    Fractions."""
    ones_on_top = [[1] * c.npoints, *c.weights]
    bm = imat(b)
    if any(map(any, product(ones_on_top, bm))) or fraction_rank(bm) != bm.shape[1]:
        return False
    canonical = _hermite_kernel(ones_on_top)
    return bm.shape[1] == canonical.shape[1] and column_lattices_equal(bm, canonical)


def _candidate(c, kind, rng):
    """A candidate Gale dual of ``c`` of the given kind, and the answer when
    the kind decides it (None otherwise)."""
    rel = c.relations.tolist()
    n, r = len(rel), len(rel[0])
    if kind == "unimodular":  # another basis of the saturated lattice
        return product(rel, _unimodular(rng, r)), True
    if kind == "nonsingular":  # a sublattice, proper unless |det| = 1
        m = _nonsingular(rng, r).tolist()
        return product(rel, m), abs(cofactor_det(m)) == 1
    if kind in ("doubled", "zeroed"):  # index 2; dependent, still saturated
        t, f = rng.randrange(r), 2 if kind == "doubled" else 0
        return [[f * x if j == t else x for j, x in enumerate(row)] for row in rel], False
    if kind == "circuits":  # a basis over Q, saturated or not
        return c.circuit_basis, None
    if kind == "wrong_count":  # one column too few or one too many
        if rng.random() < 0.5:
            return [row[1:] for row in rel], False
        return [row + [row[0]] for row in rel], False
    if kind == "combination":  # r - 1, r or r + 1 integer combinations
        k = rng.randint(max(0, r - 1), r + 1)
        m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)]
        return product(rel, m), None
    return [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)], None


# d <= 3 rows and n >= d + 2 points, so there is at least one relation
gale_inputs = st.integers(1, 3).flatmap(
    lambda d: st.integers(d + 2, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=d, max_size=d
        )
    )
)
candidate_kinds = st.sampled_from(
    [
        "unimodular",
        "nonsingular",
        "doubled",
        "zeroed",
        "circuits",
        "wrong_count",
        "combination",
        "random",
    ]
)


@settings(max_examples=300, deadline=None)
@given(gale_inputs, candidate_kinds, st.integers(0, 2**32))
def test_verify_gale_dual_matches_the_canonical_comparison(rows, kind, seed):
    c = parse_configuration(rows)
    b, expected = _candidate(c, kind, random.Random(seed))
    got = verify_gale_dual(c, b)
    assert got == _canonical_verify(c, b)
    if expected is not None:
        assert got == expected
