"""Gale duality and the combinatorics read off from it.

The Gale dual of a configuration of n points is an n x r integer matrix
whose columns form a saturated basis of the affine relation lattice; its
rows b_1..b_n are the dual configuration.  Self-duality of the toric variety
is decided entirely from how those rows sit on lines through the origin, and
faces of the convex hull correspond to strictly positive dependencies among
complementary rows.
"""

from itertools import filterfalse, repeat
from math import gcd
from operator import floordiv, itemgetter, mul
from typing import NamedTuple

from .configuration import Configuration, _ones_on_top, column_indices
from .exceptions import pyramidal_input, repeated_columns
from .intlinalg import (
    CircuitForm,
    IntMatrix,
    _lowest_terms,
    circuit_form,
    column_lattice,
    imat,
    matmul,
    primitive_vector,
)
from .verdict import ReadOnly, Verdict


class GaleDual(ReadOnly):
    """n x r matrix whose columns are a basis of the affine relations.

    :func:`gale_dual` gives the saturated canonical basis;
    ``Configuration.circuit_basis``, a basis over Q only, can be wrapped
    too, though the self-duality verdict reads its line classes off
    ``Configuration.circuit_form`` instead.  The matrix is checked by
    ``imat`` (an :class:`IntMatrix` passes as it is); a Gale dual refuses
    attribute assignment and equals only itself.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        object.__setattr__(self, "matrix", imat(matrix))

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
    columns are affine relations (``[1; W]·b = 0``), as many as the corank
    ``n - rank([1; W])`` (the free columns of ``c.circuit_form``, so
    ``[1; W]`` is eliminated at most once per configuration), independent,
    and they span a saturated lattice.  The pass is shared only when another
    reader, such as ``is_self_dual``, has built the form already; on a fresh
    configuration this call builds it.  Independence and saturation are
    read off one Hermite basis of the columns (``column_lattice``), whose
    length is their rank.  The first three make them a basis of the
    relations over Q; a saturated lattice of that rank inside them is all
    of their integer points.
    """
    bm = imat(b)
    if bm.shape[0] != c.npoints:
        raise ValueError(
            f"candidate has {bm.shape[0]} rows, configuration has {c.npoints} points"
        )
    a = _ones_on_top(c)
    return (
        not any(map(any, matmul(a, bm)))
        and bm.shape[1] == len(c.circuit_form.free)
        and column_lattice(bm) == (bm.shape[1], True)
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


class _CircuitClasses(NamedTuple):
    """The line classes of the fundamental-circuit basis C of a
    :class:`CircuitForm` as :func:`_circuit_partition` keeps them, grouped
    in C's own coordinates: the classes that hold a pivot row, a free point
    alone on its axis formed only when asked for.  A class is ``(key,
    members, lams)``: the key (t for the axis e_t, else C's primitive
    direction), its points in increasing order and each one's multiple λ_i
    of the key, so row i of C is ``λ_i·key``."""

    form: CircuitForm
    axes: list  # C's entry |d|/g_t at the free point f_t
    groups: dict  # key -> class: the pivot groups and the joined axes
    zero_rows: tuple

    def violating(self):
        """The first class whose line sum does not vanish, or None, found
        without visiting the free points alone on their axes: the first of
        those (its sum is |d|/g_t) and every pivot group or joined axis
        whose ``Σ λ`` does not vanish are the candidates."""
        free, groups = self.form.free, self.groups
        bad = [cls for cls in groups.values() if sum(cls[2])]
        t = next(filterfalse(groups.__contains__, range(len(free))), None)
        if t is not None:
            bad.append((t, (free[t],), (self.axes[t],)))
        return min(bad, key=itemgetter(1), default=None)

    def ordered(self) -> list:
        """Every class, in order of first member."""
        groups = self.groups
        lone = [(t, (f,), (self.axes[t],)) for t, f in enumerate(self.form.free) if t not in groups]
        return sorted([*groups.values(), *lone], key=itemgetter(1))

    def line_class(self, cls) -> tuple:
        """``(LineClass, λ)``: class ``cls`` as :func:`line_partition` of C
        gives it, and the λ_i with row i of C equal to ``λ_i·direction``."""
        key, members, lams = cls
        s = sum(lams)
        if type(key) is int:
            axis = [0] * len(self.form.free)
            axis[key] = 1
            direction = tuple(axis)
            axis[key] = s
            return LineClass(direction, members, tuple(axis)), lams
        return LineClass(key, members, tuple(map(s.__mul__, key))), lams

    def written(self) -> tuple:
        """``(part, multiples)``: every class written out by
        :meth:`line_class`; ``part`` equals :func:`line_partition` of C
        entry for entry."""
        out = [self.line_class(cls) for cls in self.ordered()]
        classes = tuple(line for line, _ in out)
        return LinePartition(classes, self.zero_rows), tuple(lam for _, lam in out)


def _circuit_partition(form: CircuitForm) -> _CircuitClasses:
    """The line classes of the fundamental-circuit basis C of a
    :class:`CircuitForm`, decided on its pivot rows without building C.

    With d the last pivot, s its sign, R the Jordan rows on the free
    columns f_t and g_t the gcd of |d| and column t of R, row f_t of C is
    ``|d|/g_t·e_t`` and row p_i of the i-th pivot is ``-s·R_i`` with each
    entry t divided by g_t (exactly, as g_t divides column t).  The classes
    are grouped in those coordinates, so none is rewritten later: each free
    point lies alone on its axis e_t, joined there by any pivot row whose
    one nonzero entry is at t; the other nonzero pivot rows group by their
    primitive vector, and the zero ones are the apexes.  Each point keeps
    its multiple λ_i of that key, so a line sum vanishes iff ``Σ λ_i = 0``.
    Only the rank many pivot rows are grouped, in O(rank·corank) work, and
    a free point alone on its axis is not visited until the full list is
    asked for.
    """
    big, neg = abs(form.pivot), -1 if form.pivot > 0 else 1
    m, rows = len(form.free), form.rows
    # without rows, map would run on repeat alone
    g = [big] * m if big == 1 or not rows else list(map(gcd, repeat(big), *rows))
    groups, zero = {}, []
    for p, r in zip(form.pivots, rows):
        support = m - r.count(0)
        if support == 1:
            key = next(t for t, x in enumerate(r) if x)
            lam = neg * r[key] // g[key]
        elif support:
            if big > 1:
                r = list(map(floordiv, r, g))
            # row p of C is neg·r = lam·key, key's first nonzero entry > 0
            q = gcd(*r) if next(filter(None, r)) > 0 else -gcd(*r)
            key = tuple(r) if q == 1 else tuple(map(q.__rfloordiv__, r))
            lam = neg * q
        else:
            zero.append(p)
            continue
        ps, lams = groups.setdefault(key, ([], []))
        ps.append(p)
        lams.append(lam)
    axes = [big // y for y in g]
    # a free point follows every pivot row on its axis: a Jordan row is zero
    # left of its pivot
    classes = {
        key: (key, (*ps, form.free[key]), (*lams, axes[key])) if type(key) is int
        else (key, tuple(ps), tuple(lams))
        for key, (ps, lams) in groups.items()
    }
    return _CircuitClasses(form, axes, classes, tuple(zero))


def _line_sums_verdict(bad, classes=()) -> Verdict:
    """The verdict of :func:`line_sums_zero`: False with ``bad``, the first
    line class whose sum does not vanish, else (``bad`` None) True with
    every class of ``classes``."""
    if bad is not None:
        return Verdict(
            value=False,
            criterion="gale-line-sums",
            witness={
                "kind": "violating_line_class",
                "direction": list(bad.direction),
                "members": list(bad.members),
                "sum": list(bad.total),
            },
        )
    return Verdict(
        value=True,
        criterion="gale-line-sums",
        witness={
            "kind": "line_classes",
            "classes": [
                {"direction": list(c.direction), "members": list(c.members)}
                for c in classes
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
    part = line_partition(b)
    if part.zero_rows:
        raise pyramidal_input(part.zero_rows, "the line-sum self-duality criterion")
    bad = next((cls for cls in part.classes if any(cls.total)), None)
    return _line_sums_verdict(bad, part.classes)


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


def _face_functionals(c: Configuration, targets) -> list:
    """The witness ``{"members", "ell", "denominator"}`` of each point set
    of ``targets``, in order and up to the first that has none: ``ell`` over
    ``denominator``, in lowest terms, is the affine functional on ``[1; W]``
    that is 1 on the set and 0 off it.

    One :func:`circuit_form` solves them all, on the rows ``[a_p | χ_1(p)
    .. χ_k(p)]`` at the pivot points p of ``c.circuit_form`` (a_p is column
    p of ``[1; W]``).  These are independent, so the pivots are coordinate
    columns, and a target's column of the Jordan rows over the last pivot
    d, with 0 at the free unknowns, is the reduced echelon solution on all
    n points if there is one.  There is iff every free point f has
    ``Σ ell_q·a_f[q] == d·χ(f)``, checked by evaluation.
    """
    form, points = c.circuit_form, _ones_on_top(c).T
    chis = [[int(j in s) for j in range(c.npoints)] for s in map(set, targets)]
    solve = circuit_form([[*points[p], *(chi[p] for chi in chis)] for p in form.pivots])
    d, out = solve.pivot, []
    # the target columns are the last len(chis) free ones of the solve
    for t, members, chi in zip(range(-len(chis), 0), targets, chis):
        ell = [0] * (c.dim + 1)
        for q, row in zip(solve.pivots, solve.rows):
            ell[q] = row[t]
        if any(sum(map(mul, ell, points[f])) != d * chi[f] for f in form.free):
            break
        ell, den = _lowest_terms(ell, d)
        out.append({"members": list(members), "ell": ell, "denominator": den})
    return out


def is_parallel_face_complement(c: Configuration, members) -> Verdict:
    """Does an affine functional take value 0 off ``members`` and 1 on them?

    When it does, ``members`` and its complement lie in parallel hyperplanes
    and both are faces.  An affine functional of W is a linear one of
    ``[1; W]``, so the question is solved on its columns and W and ``[1; W]``
    get one answer; the witness gives the functional as ``ell``, its d + 1
    coefficients on ``[1; W]`` (the constant term first) as integers to be
    divided by ``denominator``, in lowest terms: the one-target case of
    ``_face_functionals``, solved on the pivot points of ``c.circuit_form``
    and checked at the other points by evaluation.
    """
    sel = sorted(set(column_indices(c, members)))
    witness = {"kind": "no_functional", "members": sel}
    if found := _face_functionals(c, [sel]):
        witness = {"kind": "functional", **found[0]}
    return Verdict(value=bool(found), criterion="parallel-face-complement", witness=witness)


def coparallel_criterion(c: Configuration) -> Verdict:
    """Self-duality via the primal geometry: every coparallelism class must be
    a parallel face complement.

    Equivalent to :func:`line_sums_zero`; requires a repeat-free non-pyramidal
    configuration.  The classes are read off ``c.circuit_form``, the
    partition that :func:`~toricdual.engine.is_self_dual` reads, since
    parallel and zero rows do not change with the basis over Q.  Their
    functionals, those of :func:`is_parallel_face_complement`, are solved
    in one pass on the pivot points (``_face_functionals``), and the check
    by evaluation stops at the first class that fails, which the witness
    names.
    """
    if len(set(c.columns())) != c.npoints:
        raise repeated_columns("the coparallelism criterion")
    part = _circuit_partition(c.circuit_form)
    if part.zero_rows:
        raise pyramidal_input(part.zero_rows, "the coparallelism criterion")
    # with no zero rows the classes are the line classes, by first member
    classes = [cls for _, cls, _ in part.ordered()]
    found = _face_functionals(c, classes)
    if len(found) < len(classes):
        bad = {"kind": "violating_class", "members": list(classes[len(found)])}
        return Verdict(value=False, criterion="coparallel-face-complements", witness=bad)
    witness = {"kind": "class_functionals", "classes": found}
    return Verdict(value=True, criterion="coparallel-face-complements", witness=witness)
