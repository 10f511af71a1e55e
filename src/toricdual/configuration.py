"""Lattice point configurations and their standard reductions.

A configuration is a d x n integer matrix whose columns are lattice points
(weights of a torus action); columns may repeat.  The reductions here —
regularize, normalize the lattice, merge repeated columns, split off pyramid
apexes — all preserve the lattice of affine relations among the columns,
which is the invariant every duality criterion in this package consumes.
Every question about the column lattice itself (is it Z^d, is it
saturated, what basis to rewrite the columns in) is answered by its Hermite
basis, :func:`lattice_basis`.
"""

from dataclasses import dataclass
from functools import cached_property

from .intlinalg import (
    IntMatrix,
    circuit_kernel,
    column_lattice_saturated,
    eye,
    imat,
    integer_kernel,
    lattice_basis,
    matmul,
    rank,
)


@dataclass(frozen=True, eq=False)
class Configuration:
    """A d x n matrix of column weights; every invariant is computed on first
    use and then kept.

    ``regular`` means the columns lie on a rational affine hyperplane off the
    origin (equivalently the all-ones vector is in the row span), so affine
    relations among columns coincide with linear ones.  ``lattice_normalized``
    means the columns span the full ambient lattice Z^d, that is, the
    Hermite basis of their lattice is the identity.  ``relations`` is the
    saturated affine relation basis that :func:`gale_dual` wraps.
    ``circuit_basis`` is the fundamental-circuit basis of the same relations
    (:func:`circuit_kernel` of ``[1; W]``): it spans them over Q only, needs
    no saturation step, and is what the self-duality verdict reads, so its
    witnesses are stated in its coordinates.  ``weights``, ``relations`` and
    ``circuit_basis`` are immutable :class:`IntMatrix` values, and each
    invariant is computed at most once per configuration.
    """

    weights: IntMatrix

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def npoints(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def regular(self) -> bool:
        return rank(self.weights) == rank(_ones_on_top(self))

    @cached_property
    def _lattice_basis(self) -> list:
        """Hermite basis (as rows) of the lattice the columns generate."""
        return lattice_basis(self.weights.T, self.dim)

    @cached_property
    def lattice_normalized(self) -> bool:
        return self._lattice_basis == eye(self.dim).tolist()

    @cached_property
    def relations(self) -> IntMatrix:
        return affine_relation_kernel(self)

    @cached_property
    def circuit_basis(self) -> IntMatrix:
        return circuit_kernel(_ones_on_top(self))

    def column(self, j: int) -> tuple:
        return self.weights.column(j)

    def columns(self) -> list:
        return list(self.weights.T)

    def __repr__(self):
        return (
            f"Configuration({self.dim}x{self.npoints}, regular={self.regular}, "
            f"normalized={self.lattice_normalized})"
        )


@dataclass(frozen=True)
class DedupReport:
    """Distinct columns of a configuration with their multiplicities.

    ``multiplicity[i]`` counts how often distinct column i occurs;
    ``index_map[j]`` sends original column j to its distinct index.
    ``repeat_codim`` is n - h: the codimension of the smallest projective
    subspace containing the associated toric variety.
    """

    distinct: Configuration
    multiplicity: tuple
    index_map: tuple

    @property
    def repeat_codim(self) -> int:
        return sum(self.multiplicity) - len(self.multiplicity)


@dataclass(frozen=True)
class DecompositionReport:
    """Pyramid/join structure of a configuration without repeated columns.

    Apexes are the points that belong to no affine relation (zero rows of any
    Gale dual); the core is the rest.  ``splitting_valid`` records whether the
    ambient lattice splits as (lattice spanned by the apexes, which they must
    base) ⊕ (a complement containing the core); by :func:`pyramid_decompose`
    that is saturation of the regular presentation's column lattice.  The
    engine reports it for the lattice-normalized presentation, where it
    always holds; that presentation has the input's relations, so the engine
    does not compute it.  ``join_shape`` is (repeat multiplicity count, apex
    count, core count): the variety is an iterated join of an empty factor of
    that first size, a projective subspace spanned by the apexes, and the
    core's variety.
    """

    repeat_codim: int
    apex_indices: tuple
    core_indices: tuple
    splitting_valid: bool
    join_shape: tuple


def parse_configuration(matrix) -> Configuration:
    """Validate an integer matrix with at least one column; flags are
    computed on use."""
    w = imat(matrix)
    if not w.shape[1]:
        raise ValueError("a configuration needs at least one point (column)")
    return Configuration(weights=w)


def _ones_on_top(c: Configuration) -> list:
    """Rows of ``[1; W]``: the weights under a row of ones."""
    return [(1,) * c.npoints, *c.weights]


def subconfiguration(c: Configuration, indices) -> Configuration:
    """The configuration made of the selected columns (order preserved)."""
    idx = list(indices)
    if not idx:
        raise ValueError("empty column selection")
    if any(j < 0 or j >= c.npoints for j in idx):
        raise ValueError("column index out of range")
    return parse_configuration(c.weights.select(idx))


def regularize(c: Configuration) -> Configuration:
    """Place the configuration on an affine hyperplane off the origin.

    A regular configuration is returned unchanged.  Otherwise a row of ones
    is prepended, which leaves the affine relation lattice untouched while
    turning affine relations into linear ones.
    """
    if c.regular:
        return c
    return parse_configuration(_ones_on_top(c))


def affine_relation_kernel(c: Configuration) -> IntMatrix:
    """Saturated basis (as columns) of the affine relations among the columns.

    Always computed as the integer kernel of the weights with a prepended
    all-ones row, so regular and non-regular inputs go through one code path.
    ``c.relations`` keeps the result; call this only to recompute it.
    """
    return integer_kernel(_ones_on_top(c))


def affine_dim(c: Configuration) -> int:
    """Dimension of the affine span of the columns (= dim of the toric variety):
    rank([1; W]) - 1, which is n - 1 - (number of independent relations)."""
    return rank(_ones_on_top(c)) - 1


def normalize_lattice(c: Configuration):
    """Rewrite the configuration so its columns span the full ambient lattice.

    Returns ``(c2, back)`` where ``c2.lattice_normalized`` holds and ``back``
    is an integer matrix with ``c.weights == matmul(back, c2.weights)``; the
    affine relation lattice is unchanged.  ``back`` is the d x r Hermite
    basis H of the column lattice (its columns), and column j of ``c2`` holds
    the coordinates of column j of W in it, read off H's pivots by exact
    back-substitution.  H is injective and its columns are generated by W's,
    so ``c2`` spans Z^r and has exactly the relations of W, at any rank r.
    """
    if c.lattice_normalized:
        return c, eye(c.dim)
    h = c._lattice_basis
    if not h:
        raise ValueError("rank-zero configuration cannot be normalized")
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    coords = []
    for w in c.columns():
        x = []
        for row, p in zip(h, pivots):
            q, rem = divmod(w[p] - sum(a * b[p] for a, b in zip(x, h)), row[p])
            assert rem == 0
            x.append(q)
        coords.append(x)
    c2 = parse_configuration(list(zip(*coords)))
    back = IntMatrix(zip(*h), len(h))
    assert c.weights == matmul(back, c2.weights)
    return c2, back


def reduce_configuration(c: Configuration) -> Configuration:
    """Regularize then normalize: the standard presentation used by the engine."""
    c2, _ = normalize_lattice(regularize(c))
    return c2


def dedup(c: Configuration) -> DedupReport:
    """Group equal columns, keeping first-occurrence order.

    Without repeats the distinct configuration is ``c`` itself.
    """
    seen = {}
    order = []
    index_map = []
    for j, col in enumerate(c.columns()):
        if col not in seen:
            seen[col] = len(order)
            order.append(j)
        index_map.append(seen[col])
    mult = [0] * len(order)
    for t in index_map:
        mult[t] += 1
    if len(order) == c.npoints:
        distinct = c
    else:
        distinct = parse_configuration(c.weights.select(order))
    return DedupReport(
        distinct=distinct, multiplicity=tuple(mult), index_map=tuple(index_map)
    )


def pyramid_decompose(c: Configuration) -> DecompositionReport:
    """Split a repeat-free configuration into pyramid apexes and a core.

    Apexes are detected as the zero rows of the fundamental-circuit basis
    ``c.circuit_basis``: a point lies in no affine relation exactly when its
    row vanishes in any basis of the relations over Q.  Apexes are therefore
    linearly independent in the regular presentation and meet the span of
    the core only in 0; the lattice then splits exactly when the column
    lattice of that presentation is saturated (``column_lattice_saturated``),
    which is checked only when apexes exist.  After normalization this
    always holds; on a non-normalized presentation it can genuinely fail and
    the report says so instead of silently renormalizing.
    """
    if len(set(c.columns())) != c.npoints:
        raise ValueError("pyramid decomposition expects no repeated columns")
    apex, core = [], []
    for i, row in enumerate(c.circuit_basis):
        (core if any(row) else apex).append(i)
    splitting = True
    if apex:
        splitting = column_lattice_saturated(regularize(c).weights)
    return DecompositionReport(
        repeat_codim=0,
        apex_indices=tuple(apex),
        core_indices=tuple(core),
        splitting_valid=splitting,
        join_shape=(0, len(apex), len(core)),
    )
