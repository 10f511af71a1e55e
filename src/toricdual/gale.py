"""Gale duality and the combinatorics read off from it.

The Gale dual of a configuration of n points is an n x r integer matrix
whose columns form a saturated basis of the affine relation lattice; its
rows b_1..b_n are the dual configuration.  Self-duality of the toric variety
is decided entirely from how those rows sit on lines through the origin, and
faces of the convex hull correspond to strictly positive dependencies among
complementary rows.
"""

from math import gcd
from typing import NamedTuple

from .configuration import Configuration, _ones_on_top, column_indices, regularize
from .exceptions import pyramidal_input, repeated_columns
from .intlinalg import (
    CircuitForm,
    IntMatrix,
    _bareiss,
    _lowest_terms,
    column_lattice_saturated,
    imat,
    matmul,
    primitive_vector,
    rank,
)
from .verdict import ReadOnly, Verdict


class GaleDual(ReadOnly):
    """n x r matrix whose columns are a basis of the affine relations.

    :func:`gale_dual` gives the saturated canonical basis;
    ``Configuration.circuit_basis``, a basis over Q only, can be wrapped
    too, though the self-duality verdict reads its line classes off
    ``Configuration.circuit_form`` instead.  A Gale dual refuses attribute
    assignment and equals only itself.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        object.__setattr__(self, "matrix", matrix)

    def __repr__(self):
        return f"GaleDual(matrix={self.matrix!r})"

    @property
    def npoints(self) -> int:
        return self.matrix.shape[0]

    @property
    def corank(self) -> int:
        return self.matrix.shape[1]

    def row(self, i: int) -> tuple:
        return self.matrix[i]

    def rows(self) -> list:
        return list(self.matrix)

    def zero_rows(self) -> tuple:
        return tuple(i for i, row in enumerate(self.matrix) if not any(row))


class LineClass(NamedTuple):
    """All dual rows lying on one line through the origin."""

    direction: tuple  # primitive, sign-normalized
    members: tuple  # row indices
    total: tuple  # exact sum of the member rows


class LinePartition(NamedTuple):
    classes: tuple
    zero_rows: tuple


def gale_dual(c: Configuration) -> GaleDual:
    """The canonical Gale dual (deterministic Hermite-form basis).

    Wraps ``c.relations``, which is computed once per configuration and is
    read-only.
    """
    return GaleDual(matrix=c.relations)


def verify_gale_dual(c: Configuration, b) -> bool:
    """Check that ``b`` is a legitimate Gale dual matrix for ``c``.

    Decided from the defining properties, with no Gale dual computed: the
    columns are affine relations (``[1; W]·b = 0``), independent, as many
    as the corank ``n - rank([1; W])``, and they span a saturated lattice.
    The first three make them a basis of the relations over Q; a saturated
    lattice of that rank inside them is all of their integer points.
    """
    bm = imat(b)
    if bm.shape[0] != c.npoints:
        raise ValueError(
            f"candidate has {bm.shape[0]} rows, configuration has {c.npoints} points"
        )
    a = _ones_on_top(c)
    return (
        not any(map(any, matmul(a, bm)))
        and bm.shape[1] == c.npoints - rank(a) == rank(bm)
        and column_lattice_saturated(bm)
    )


def line_partition(b: GaleDual) -> LinePartition:
    """Group the nonzero dual rows by the line through the origin they span."""
    rows = b.matrix
    classes = {}
    zero = []
    for i, row in enumerate(rows):
        if not any(row):
            zero.append(i)
            continue
        key = primitive_vector(row)
        classes.setdefault(key, []).append(i)
    out = []
    for key in sorted(classes, key=lambda k: (classes[k][0],)):
        members = classes[key]
        total = tuple(map(sum, zip(*(rows[i] for i in members))))
        out.append(LineClass(direction=key, members=tuple(members), total=total))
    return LinePartition(classes=tuple(out), zero_rows=tuple(zero))


def _circuit_partition(form: CircuitForm) -> tuple:
    """``(part, multiples)``: :func:`line_partition` of the fundamental-
    circuit basis C of a :class:`CircuitForm`, read off the form without
    building C and equal to it entry for entry, and for each class the
    multiples λ_i with row i of C equal to ``λ_i·direction``, in member
    order.

    With d the last pivot, s its sign, R the Jordan rows on the free
    columns f_t and g_t the gcd of |d| and column t of R, row f_t of C is
    ``(|d|/g_t)·e_t`` and row p_i of the i-th pivot is ``-s·R_i[t]/g_t``
    over t.  So each free point lies on its own axis e_t, joined there by
    any pivot row whose one nonzero entry is at t; the other nonzero pivot
    rows group by their primitive vector, and the zero ones are the
    apexes.  A class total is the sum of its multiples times its direction.
    Only the pivot rows are formed: O(rank·corank) work.
    """
    big = abs(form.pivot)
    m = len(form.free)
    g = [big] * m
    for r in form.rows:
        g = list(map(gcd, g, r))
    neg = -1 if form.pivot > 0 else 1
    # key of each point: t for the axis e_t, a primitive vector, or None;
    # and its multiple of that direction
    keys = [None] * form.ncols
    lams = [0] * form.ncols
    for t, j in enumerate(form.free):
        keys[j], lams[j] = t, big // g[t]
    for p, r in zip(form.pivots, form.rows):
        row = [neg * x // y for x, y in zip(r, g)]
        support = m - row.count(0)
        if support == 1:
            t = next(t for t, x in enumerate(row) if x)
            keys[p], lams[p] = t, row[t]
        elif support:
            lam = gcd(*row)
            if next(x for x in row if x) < 0:
                lam = -lam
            keys[p], lams[p] = tuple(x // lam for x in row), lam
    classes, zero = {}, []
    for i, key in enumerate(keys):
        if key is None:
            zero.append(i)
        else:
            classes.setdefault(key, []).append(i)
    out, multiples = [], []
    for key, members in classes.items():  # in order of first member
        lam = tuple(lams[i] for i in members)
        s = sum(lam)
        if type(key) is int:
            head, tail = (0,) * key, (0,) * (m - key - 1)
            direction, total = (*head, 1, *tail), (*head, s, *tail)
        else:
            direction, total = key, tuple(map(s.__mul__, key))
        out.append(LineClass(direction=direction, members=tuple(members), total=total))
        multiples.append(lam)
    return LinePartition(classes=tuple(out), zero_rows=tuple(zero)), tuple(multiples)


def _line_sums_verdict(part: LinePartition) -> Verdict:
    """The verdict of :func:`line_sums_zero` on a line partition."""
    if part.zero_rows:
        raise pyramidal_input(part.zero_rows, "the line-sum self-duality criterion")
    for cls in part.classes:
        if any(x != 0 for x in cls.total):
            return Verdict(
                value=False,
                criterion="gale-line-sums",
                witness={
                    "kind": "violating_line_class",
                    "direction": list(cls.direction),
                    "members": list(cls.members),
                    "sum": list(cls.total),
                },
            )
    return Verdict(
        value=True,
        criterion="gale-line-sums",
        witness={
            "kind": "line_classes",
            "classes": [
                {"direction": list(c.direction), "members": list(c.members)}
                for c in part.classes
            ],
        },
    )


def line_sums_zero(b: GaleDual) -> Verdict:
    """Self-duality test for non-pyramidal configurations.

    True iff every line class of dual rows sums to zero.  A zero row means
    the configuration is pyramidal and the criterion does not apply.  The
    verdict, the witness kind and its members are the same for every basis
    of the relations over Q; the ``direction`` and ``sum`` of a witness are
    coordinates in the columns of ``b`` as given.
    """
    return _line_sums_verdict(line_partition(b))


def coparallel_classes(b: GaleDual) -> tuple:
    """Partition of the point indices into coparallelism classes.

    Two points are coparallel iff their dual rows are parallel.  A zero row
    (pyramid apex) sits in a singleton class; downstream self-duality
    predicates refuse such input rather than extend the criterion.
    """
    part = line_partition(b)
    groups = [tuple(cls.members) for cls in part.classes]
    groups.extend((i,) for i in part.zero_rows)
    return tuple(sorted(groups, key=lambda g: g[0]))


def is_facial(c: Configuration, subset) -> Verdict:
    """Is ``subset`` exactly the set of points on some face of the hull?

    Decided on the Gale side: the complement must carry a strictly positive
    rational dependency among its dual rows.  The full set is the improper
    face; a configuration with no affine relations is a simplex, where every
    nonempty subset is facial.  The dependency, or the Farkas vector that
    rules one out, is given in integers: the rational one in lowest terms
    over a positive denominator, times that denominator, which is a
    certificate too.
    """
    inside = set(column_indices(c, subset))
    complement = [i for i in range(c.npoints) if i not in inside]
    if not complement:
        return Verdict(
            value=True,
            criterion="gale-positive-dependency",
            witness={"kind": "improper_face"},
        )
    b = gale_dual(c)
    if b.corank == 0:
        return Verdict(
            value=True,
            criterion="gale-positive-dependency",
            witness={"kind": "simplex", "note": "no affine relations"},
        )
    from . import ratlp  # loaded by the first LP: a plain check imports no simplex

    dep, farkas = ratlp.positive_dependency_certified([b.matrix[i] for i in complement])
    if dep is not None:
        return Verdict(
            value=True,
            criterion="gale-positive-dependency",
            witness={
                "kind": "positive_dependency",
                "complement": complement,
                "coefficients": dep[0],
            },
        )
    return Verdict(
        value=False,
        criterion="gale-positive-dependency",
        witness={
            "kind": "no_positive_dependency",
            "complement": complement,
            "separating_certificate": farkas[0],
        },
    )


def is_parallel_face_complement(c: Configuration, members) -> Verdict:
    """Does a linear functional take value 0 off ``members`` and 1 on them?

    When it does, ``members`` and its complement lie in parallel hyperplanes
    and both are faces; the witness gives the functional as ``ell``, integers
    to be divided by ``denominator``, in lowest terms.  It is read off one
    fraction-free Gauss-Jordan pass (``_bareiss``, the pass behind
    ``circuit_form``) over the rows ``[column_j | target_j]``: a pivot in
    the target column means there is none; otherwise ``ell`` is the target
    column of the Jordan rows over the last pivot, and 0 at the free
    unknowns.
    """
    sel = sorted(set(column_indices(c, members)))
    inside = set(sel)
    dim = c.dim
    rows = [[*col, int(j in inside)] for j, col in enumerate(c.columns())]
    pivots, d = _bareiss(rows, jordan=True)
    if dim in pivots:
        return Verdict(
            value=False,
            criterion="parallel-face-complement",
            witness={"kind": "no_functional", "members": sel},
        )
    ell = [0] * dim
    for p, row in zip(pivots, rows):
        ell[p] = row[dim]
    ell, den = _lowest_terms(ell, d)
    return Verdict(
        value=True,
        criterion="parallel-face-complement",
        witness={"kind": "functional", "members": sel, "ell": ell, "denominator": den},
    )


def coparallel_criterion(c: Configuration) -> Verdict:
    """Self-duality via the primal geometry: every coparallelism class must be
    a parallel face complement.

    Equivalent to :func:`line_sums_zero`; requires a repeat-free non-pyramidal
    configuration.  The classes are read off ``c.circuit_form``, the
    partition that :func:`~toricdual.engine.is_self_dual` reads, since
    parallel and zero rows do not change with the basis over Q; the
    functionals are solved in the regular presentation, so that linear
    functionals capture affine conditions.
    """
    if len(set(c.columns())) != c.npoints:
        raise repeated_columns("the coparallelism criterion")
    part, _ = _circuit_partition(c.circuit_form)
    if part.zero_rows:
        raise pyramidal_input(part.zero_rows, "the coparallelism criterion")
    reg = regularize(c)
    functionals = []
    # with no zero rows the classes are the line classes, by first member
    for cls in (line.members for line in part.classes):
        sub = is_parallel_face_complement(reg, cls)
        if not sub.value:
            return Verdict(
                value=False,
                criterion="coparallel-face-complements",
                witness={"kind": "violating_class", "members": list(cls)},
            )
        w = sub.witness
        functionals.append(
            {"members": list(cls), "ell": w["ell"], "denominator": w["denominator"]}
        )
    return Verdict(
        value=True,
        criterion="coparallel-face-complements",
        witness={"kind": "class_functionals", "classes": functionals},
    )
