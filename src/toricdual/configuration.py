"""Lattice point configurations and the reductions that keep their relations.

A configuration is a d x n integer matrix whose columns are lattice points
(weights of a torus action); columns may repeat.  Every duality criterion in
this package reads a configuration only through the lattice of affine
relations among its columns, so the verdicts work on the input as given.
The two reductions here keep that lattice: ``regularize`` puts the columns
on an affine hyperplane off the origin, and ``dedup`` merges repeated
columns and records their multiplicities.  Apexes are split off in
``engine.full_decomposition``, as the zero rows of a Gale dual.
``affine_dim`` is read off the Gauss-Jordan form of ``[1; W]`` that each
configuration caches, the one place the rank of ``[1; W]`` is taken.
"""

import operator
from functools import cached_property
from typing import NamedTuple

from .intlinalg import CircuitForm, IntMatrix, circuit_form, imat, integer_kernel, rank
from .verdict import ReadOnly


class Configuration(ReadOnly):
    """A d x n matrix of column weights; every invariant is computed on first
    use and then kept.

    ``regular`` means the columns lie on a rational affine hyperplane off the
    origin (equivalently the all-ones vector is in the row span, or
    ``rank(W) == rank([1; W])``), so affine relations among columns
    coincide with linear ones.  It is read off ``circuit_form``: every
    column of ``[1; W]`` is a combination of its pivot columns B, so every
    column of W is the same combination of the columns of W on B, and the
    flag is ``rank(W_B) == |B|``, one d x |B| rank.  ``relations`` is the
    saturated affine relation basis that :func:`gale_dual` wraps.
    ``circuit_form`` is the fraction-free Gauss-Jordan form of ``[1; W]``
    (:func:`circuit_form`), and ``circuit_basis`` the fundamental-circuit
    basis of the same relations written out from it: it spans them over Q
    only and needs no saturation step.  The self-duality and strong
    verdicts read their line classes off ``circuit_form`` without building
    ``circuit_basis``, and state their witnesses in that basis; every
    reader of either shares the one elimination.  ``weights``,
    ``relations`` and ``circuit_basis`` are immutable :class:`IntMatrix`
    values, ``circuit_form`` an immutable :class:`CircuitForm`, and each
    invariant is computed at most once per configuration.  A configuration refuses
    attribute assignment and equals only itself; its repr gives the shape
    only, so printing one computes nothing.
    """

    def __init__(self, weights: IntMatrix):
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def npoints(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def regular(self) -> bool:
        pivots = self.circuit_form.pivots
        return rank(self.weights.select(pivots)) == len(pivots)

    @cached_property
    def relations(self) -> IntMatrix:
        return affine_relation_kernel(self)

    @cached_property
    def circuit_form(self) -> CircuitForm:
        return circuit_form(_ones_on_top(self))

    @cached_property
    def circuit_basis(self) -> IntMatrix:
        return self.circuit_form.basis()

    def columns(self) -> list:
        return list(self.weights.T)

    def __repr__(self):
        return f"Configuration({self.dim}x{self.npoints})"


class DedupReport(NamedTuple):
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


class DecompositionReport(NamedTuple):
    """Join structure of a configuration: repeats, pyramid apexes and core.

    ``repeat_codim`` counts the repeated columns beyond the first of each.
    Apexes are the distinct points that belong to no affine relation (zero
    rows of any Gale dual); the core is the rest.  Indices number the
    distinct columns.  ``join_shape`` is (repeat multiplicity count, apex
    count, core count): the variety is an iterated join of an empty factor of
    that first size, a projective subspace spanned by the apexes, and the
    core's variety.
    """

    repeat_codim: int
    apex_indices: tuple
    core_indices: tuple
    join_shape: tuple

    def as_json(self) -> dict:
        """The report's fields in order, index tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}


def parse_configuration(matrix) -> Configuration:
    """Validate an integer matrix with at least one column; flags are
    computed on use."""
    w = imat(matrix)
    if not w.shape[1]:
        raise ValueError("a configuration needs at least one point (column)")
    return Configuration(weights=w)


def _ones_on_top(c: Configuration) -> IntMatrix:
    """``[1; W]``: the weights under a row of ones, built trusted (the
    weights were validated once), so no caller checks it again."""
    return IntMatrix([(1,) * c.npoints, *c.weights], c.npoints)


def column_indices(c: Configuration, indices) -> list:
    """``indices`` as a list of ints, in the order given; ``ValueError`` when
    it is empty, holds a non-integer (a bool too), or names no column of
    ``c``."""
    try:
        items = list(indices)
        if bool in map(type, items):
            raise TypeError("a bool is no column index")
        idx = list(map(operator.index, items))
    except TypeError:
        raise ValueError("column indices must be integers") from None
    if not idx:
        raise ValueError("empty column selection")
    if min(idx) < 0 or max(idx) >= c.npoints:
        raise ValueError("column index out of range")
    return idx


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
    rank([1; W]) - 1, which is n - 1 - (number of independent relations).
    The rank is the pivot count of ``c.circuit_form``."""
    return len(c.circuit_form.pivots) - 1


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
