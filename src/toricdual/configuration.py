"""Lattice point configurations and the reductions that keep their relations.

A configuration is a d x n integer matrix whose columns are lattice points
(weights of a torus action); columns may repeat.  Every duality criterion in
this package reads a configuration only through the lattice of affine
relations among its columns, so the verdicts work on the input as given:
W and ``[1; W]`` present one projective variety and get one answer.  The
reduction here keeps that lattice: ``dedup`` merges repeated columns and
records their multiplicities.  Apexes are split off in
``engine.full_decomposition``, as the zero rows of a Gale dual.
``affine_dim`` is read off the Gauss-Jordan form of ``[1; W]`` that each
configuration caches, the one place the rank of ``[1; W]`` is taken.
"""

import operator
from functools import cached_property
from typing import NamedTuple

from .intlinalg import CircuitForm, IntMatrix, circuit_form, imat, integer_kernel
from .verdict import ReadOnly


class Configuration(ReadOnly):
    """A d x n matrix of column weights; every invariant is computed on first
    use and then kept.

    ``relations`` is the saturated affine relation basis that
    :func:`gale_dual` wraps.  ``circuit_form`` is the fraction-free
    Gauss-Jordan form of ``[1; W]`` (:func:`circuit_form`), and
    ``circuit_basis`` the fundamental-circuit basis of the same relations
    written out from it: it spans them over Q only and needs no saturation
    step.  The self-duality and strong verdicts read their line classes off
    ``circuit_form`` without building ``circuit_basis``, and state their
    witnesses in that basis; every reader of either shares the one
    elimination.  ``weights``, ``relations`` and ``circuit_basis`` are
    immutable :class:`IntMatrix` values, ``circuit_form`` an immutable
    :class:`CircuitForm`, and each invariant is computed at most once per
    configuration.  A configuration refuses attribute assignment and equals
    only itself; its repr gives the shape only, so printing one computes
    nothing.
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
    """Validate an integer matrix with at least one column; its invariants
    are computed on use."""
    w = imat(matrix)
    if not w.shape[1]:
        raise ValueError("a configuration needs at least one point (column)")
    return Configuration(weights=w)


def _ones_on_top(c: Configuration) -> IntMatrix:
    """``[1; W]``: the weights under a row of ones, built trusted (the
    weights were validated once), so no caller checks it again."""
    return IntMatrix([(1,) * c.npoints, *c.weights], c.npoints)


def _integer(who: str, name: str, x) -> int:
    """``x`` as an int, by ``operator.index``; ``ValueError`` naming the
    argument otherwise, so a float is refused rather than truncated, and a
    bool rather than read as 0 or 1."""
    try:
        if isinstance(x, bool):
            raise TypeError("a bool is no integer argument")
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{who} requires an integer {name}, got {x!r}") from None


def column_indices(c: Configuration, indices) -> list:
    """``indices`` as a list of ints, in the order given; ``ValueError`` when
    it is empty, holds a non-integer (a bool too, by :func:`_integer`), or
    names no column of ``c``."""
    try:
        idx = [_integer("a column selection", "index", x) for x in indices]
    except TypeError:  # _integer raises ValueError only: indices is no iterable
        raise ValueError("column indices must be integers") from None
    if not idx:
        raise ValueError("empty column selection")
    if min(idx) < 0 or max(idx) >= c.npoints:
        raise ValueError("column index out of range")
    return idx


def affine_relation_kernel(c: Configuration) -> IntMatrix:
    """Saturated basis (as columns) of the affine relations among the columns.

    Computed as the integer kernel of ``[1; W]``, whose linear relations
    are the affine relations of W.
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
    seen = {}  # distinct column -> its index, in order of first occurrence
    index_map = tuple(seen.setdefault(col, len(seen)) for col in zip(*c.weights))
    if len(seen) == c.npoints:
        return DedupReport(distinct=c, multiplicity=(1,) * len(seen), index_map=index_map)
    mult = [0] * len(seen)
    for t in index_map:
        mult[t] += 1
    distinct = Configuration(IntMatrix(zip(*seen), len(seen)))
    return DedupReport(distinct=distinct, multiplicity=tuple(mult), index_map=index_map)
