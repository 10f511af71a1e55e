import pytest

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
from toricdual.intlinalg import column_lattices_equal, imat, integer_kernel, lattice_basis


def test_segre_shape_and_flags():
    c = segre(2)
    assert c.weights.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert c.regular
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


def test_config_from_gale_regularity():
    c = config_from_gale([[1, 0], [-1, 0], [0, 1], [0, -1], [2, -2], [-2, 2]])
    assert c.regular


def test_config_from_gale_rejects_bad_input():
    with pytest.raises(ValueError):
        config_from_gale([[1, 0], [0, 1]])  # rows do not sum to zero
    with pytest.raises(ValueError):
        config_from_gale([[1, 1], [-1, -1]])  # dependent columns
    with pytest.raises(ValueError):
        config_from_gale([[2], [-2]])  # index-2 sublattice, not saturated


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
