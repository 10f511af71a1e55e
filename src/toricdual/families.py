"""Constructors for the standard example families and the Gale-inverse map."""

from .configuration import Configuration, _integer, parse_configuration
from .intlinalg import IntMatrix, column_lattice, imat, integer_kernel


def segre(m: int) -> Configuration:
    """The (m+1) x 2m configuration of the Segre embedding of P^1 x P^(m-1).

    It is the Lawrence lift of the all-ones row: block shape (Id_m | Id_m)
    on top, (0...0 | 1...1) below.
    """
    if _integer("segre", "m", m) < 2:
        raise ValueError("segre requires m >= 2")
    return lawrence([[1] * m])


def lawrence(m) -> Configuration:
    """The Lawrence lift (Id_n | Id_n ; 0 | M) of a d x n integer matrix."""
    mm = imat(m)
    d, n = mm.shape
    rows = []
    for i in range(n):
        rows.append([1 if j % n == i else 0 for j in range(2 * n)])
    for i in range(d):
        rows.append([0] * n + list(mm[i]))
    return parse_configuration(rows)


def family_alpha(alpha: int) -> Configuration:
    """A 5 x 7 one-parameter family of self-dual configurations (alpha != 0).

    Its planar Gale dual has three line classes, each summing to zero, for
    every nonzero integer alpha.
    """
    a = _integer("family_alpha", "alpha", alpha)
    if a == 0:
        raise ValueError("family_alpha requires alpha != 0")
    return parse_configuration(
        [
            [1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 0, 0],
            [0, 0, 0, 1, 1, 0, 0],
            [0, 1, 0, a, 0, -a, 0],
            [0, 0, 1, 0, -a, 0, a],
        ]
    )


def family_alpha_gale(alpha: int) -> IntMatrix:
    """The companion 7 x 2 Gale dual matrix for :func:`family_alpha`."""
    a = _integer("family_alpha_gale", "alpha", alpha)
    if a == 0:
        raise ValueError("family_alpha_gale requires alpha != 0")
    return imat(
        [
            [2 * a, 0],
            [-a, 0],
            [-a, 0],
            [1, 1],
            [-1, -1],
            [0, 1],
            [0, -1],
        ]
    )


def config_from_gale(b) -> Configuration:
    """A configuration whose Gale dual is the given matrix.

    Rows of the result are a saturated basis of the lattice orthogonal to the
    columns of ``b`` (canonicalized by Hermite form, since the configuration
    is only determined up to affine equivalence).  Requires the rows of ``b``
    to sum to zero, its columns to be independent, and the columns to span a
    saturated lattice — exactly the properties a Gale dual matrix has; the
    last two are read off one Hermite basis of the columns
    (``column_lattice``), whose length is their rank.  Then
    the all-ones row lies in the row span of the result, so the columns of
    ``b`` are affine relations, as many as its corank: the result passes
    :func:`verify_gale_dual` by construction.
    """
    bm = imat(b)
    if any(map(sum, bm.T)):
        raise ValueError("rows of a Gale dual must sum to zero")
    rank, saturated = column_lattice(bm)
    if rank != bm.shape[1]:
        raise ValueError("columns of a Gale dual must be linearly independent")
    if not saturated:
        raise ValueError(
            "columns do not span a saturated relation lattice; "
            "no configuration has this exact matrix as a Gale dual"
        )
    # the columns of the kernel are a saturated basis in Hermite form already
    return parse_configuration(integer_kernel(bm.T).T)


def family_dim(r: int, alphas) -> Configuration:
    """Self-dual configurations of dimension r+1 (any r >= 2) and codimension 2.

    This is :func:`family_codim` at m = 2: the planar Gale configuration
    {(a_1,0),...,(a_r,0),(0,1),(0,-1),(1,1),(-1,-1)} where the nonzero
    integers a_i sum to zero.
    """
    return _family("family_dim", 2, r, alphas)


def family_codim(m: int, r: int, alphas) -> Configuration:
    """Self-dual configurations of codimension m (any m >= 2) and dimension m+r-1.

    Built from the Gale configuration in Z^m consisting of a_i e_1 for each of
    the r alphas, ±e_j for j = 2..m, and ±(e_1+...+e_m).
    """
    return _family("family_codim", m, r, alphas)


def _family(who: str, m, r, alphas) -> Configuration:
    """:func:`family_codim`, its refusals naming ``who``, the caller."""
    m = _integer(who, "m", m)
    r = _integer(who, "r", r)
    try:
        alphas = [_integer(who, "alpha", a) for a in alphas]
    except TypeError:  # _integer raises ValueError only: alphas is no iterable
        raise ValueError(f"{who} requires an iterable alphas, got {alphas!r}") from None
    if m < 2:
        raise ValueError(f"{who} requires m >= 2")
    if r < 2:
        raise ValueError(f"{who} requires r >= 2")
    if len(alphas) != r:
        raise ValueError(f"expected {r} alpha values")
    if any(a == 0 for a in alphas) or sum(alphas) != 0:
        raise ValueError("alphas must be nonzero and sum to zero")
    rows = [[a] + [0] * (m - 1) for a in alphas]
    for j in range(1, m):
        plus = [0] * m
        plus[j] = 1
        rows.append(plus)
        rows.append([-x for x in plus])
    rows.append([1] * m)
    rows.append([-1] * m)
    return config_from_gale(rows)
