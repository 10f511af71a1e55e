"""Gale duality and the combinatorics read off from it.

The Gale dual of a configuration of n points is an n x r integer matrix
whose columns form a saturated basis of the affine relation lattice; its
rows b_1..b_n are the dual configuration.  Self-duality of the toric variety
is decided entirely from how those rows sit on lines through the origin, and
faces of the convex hull correspond to strictly positive dependencies among
complementary rows.
"""

from itertools import compress
from math import gcd, lcm
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
    :class:`CircuitForm`, decided on its Jordan rows by
    :func:`_circuit_partition`; :meth:`line_class` writes one out in C's
    coordinates.  Classes are in order of first member."""

    form: CircuitForm
    keys: tuple  # per class: t for the axis e_t, or a primitive Jordan direction
    members: tuple  # per class: its points, increasing
    mus: tuple  # per class: each member's multiple μ_i of its key
    zero_rows: tuple

    def violating(self):
        """The first class whose line sum does not vanish, or None."""
        return next((k for k, mus in enumerate(self.mus) if sum(mus)), None)

    def line_class(self, k: int, g=None) -> tuple:
        """``(LineClass, λ)``: class k as :func:`line_partition` of C gives
        it, and the λ_i with row i of C equal to ``λ_i·direction``.

        ``g`` holds the g_t of every free column (as :meth:`written` takes
        them); without it they are taken on the class's support only.  On that
        support C's rows of the class are ``μ_i·key_t/g_t``: with L the lcm
        of those g_t and ``w_t = key_t·L/g_t``, the direction is w over
        ``h = gcd(w)``, positive where the key is, and ``λ_i = μ_i·h/L``.
        """
        form, key, mus = self.form, self.keys[k], self.mus[k]
        members = self.members[k]
        if type(key) is int:
            gt = g[key] if g is not None else gcd(form.pivot, *(r[key] for r in form.rows))
            lam = mus if gt == 1 else tuple(map(gt.__rfloordiv__, mus))
            axis = [0] * len(form.free)
            axis[key] = 1
            direction = tuple(axis)
            axis[key] = sum(lam)
            return LineClass(direction, members, tuple(axis)), lam
        if g is None:  # g_t on the support, in order
            gs = [abs(form.pivot)] * (len(key) - key.count(0))
            for r in form.rows:
                gs = list(map(gcd, gs, compress(r, key)))
        else:
            gs = list(compress(g, key))
        big_l = lcm(*gs)
        direction, lam = key, mus
        if big_l > 1:
            scale = iter([big_l // y for y in gs])  # taken in order at the support
            w = [x and x * next(scale) for x in key]
            h = gcd(*w)
            direction = tuple(w) if h == 1 else tuple(map(h.__rfloordiv__, w))
            lam = tuple(mu * h // big_l for mu in mus)
        s = sum(lam)
        return LineClass(direction, members, tuple(map(s.__mul__, direction))), lam

    def written(self) -> tuple:
        """``(part, multiples)``: every class written out by
        :meth:`line_class`, each g_t taken once; ``part`` equals
        :func:`line_partition` of C entry for entry."""
        big = abs(self.form.pivot)
        g = [big] * len(self.form.free)
        for r in self.form.rows if big > 1 else ():  # each g_t divides |d|
            g = list(map(gcd, g, r))
        out = [self.line_class(k, g) for k in range(len(self.keys))]
        classes = tuple(line for line, _ in out)
        return LinePartition(classes, self.zero_rows), tuple(lam for _, lam in out)


def _circuit_partition(form: CircuitForm) -> _CircuitClasses:
    """The line classes of the fundamental-circuit basis C of a
    :class:`CircuitForm`, decided on its Jordan rows without building C.

    With d the last pivot, s its sign, R the Jordan rows on the free
    columns f_t and g_t the gcd of |d| and column t of R, C is B'·D for
    ``D = diag(1/g_t)``, where row f_t of B' is ``|d|·e_t`` and row p_i of
    the i-th pivot is ``-s·R_i``.  A positive column scaling changes
    neither which rows are parallel nor the sign of a row's first nonzero
    entry, so the classes are grouped on B': each free point lies on its
    own axis e_t, joined there by any pivot row whose one nonzero entry is
    at t; the other nonzero pivot rows group by their primitive vector, and
    the zero ones are the apexes.  Each point keeps its multiple μ_i of
    that key.  C's multiples of a class are ``λ_i = c·μ_i`` for one
    ``c > 0``, so its line sum vanishes iff ``Σ μ_i = 0``: the line-sum
    verdicts are decided here, and C's coordinates are formed only for the
    classes a witness or the strong test prints
    (:meth:`_CircuitClasses.line_class`).  Only the pivot rows are read:
    O(rank·corank) work.
    """
    big = abs(form.pivot)
    neg = -1 if form.pivot > 0 else 1
    m = len(form.free)
    # per point: its key (None for an apex) and its multiple of the key
    key_of = [None] * form.ncols
    mu_of = [0] * form.ncols
    for t, j in enumerate(form.free):
        key_of[j], mu_of[j] = t, big
    for p, r in zip(form.pivots, form.rows):
        support = m - r.count(0)
        if support == 1:
            t = next(t for t, x in enumerate(r) if x)
            key_of[p], mu_of[p] = t, neg * r[t]
        elif support:
            # row p of B' is neg·r = mu·key, key's first nonzero entry > 0
            q = gcd(*r) if next(filter(None, r)) > 0 else -gcd(*r)
            key_of[p] = r if q == 1 else tuple(map(q.__rfloordiv__, r))
            mu_of[p] = neg * q
    classes, zero = {}, []
    for i, key in enumerate(key_of):
        if key is None:
            zero.append(i)
        else:
            classes.setdefault(key, []).append(i)
    return _CircuitClasses(
        form=form,
        keys=tuple(classes),
        members=tuple(map(tuple, classes.values())),
        mus=tuple(tuple(map(mu_of.__getitem__, members)) for members in classes.values()),
        zero_rows=tuple(zero),
    )


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


def is_parallel_face_complement(c: Configuration, members) -> Verdict:
    """Does an affine functional take value 0 off ``members`` and 1 on them?

    When it does, ``members`` and its complement lie in parallel hyperplanes
    and both are faces.  An affine functional of W is a linear one of
    ``[1; W]``, so the question is solved on its columns and W and ``[1; W]``
    get one answer; the witness gives the functional as ``ell``, its d + 1
    coefficients on ``[1; W]`` (the constant term first) as integers to be
    divided by ``denominator``, in lowest terms.  It is read off the
    :func:`~toricdual.intlinalg.circuit_form` of the rows ``[1 | column_j |
    target_j]``: a pivot in the target column means there is none;
    otherwise the target column is the last free one, ``ell`` is the last
    free entry of each Jordan row over the last pivot, and 0 at the free
    unknowns.
    """
    sel = sorted(set(column_indices(c, members)))
    inside = set(sel)
    points = _ones_on_top(c)
    target = len(points)
    form = circuit_form([[*col, int(j in inside)] for j, col in enumerate(points.T)])
    if target in form.pivots:
        return Verdict(
            value=False,
            criterion="parallel-face-complement",
            witness={"kind": "no_functional", "members": sel},
        )
    ell = [0] * target
    for p, row in zip(form.pivots, form.rows):
        ell[p] = row[-1]
    ell, den = _lowest_terms(ell, form.pivot)
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
    parallel and zero rows do not change with the basis over Q; each
    functional is the affine one of :func:`is_parallel_face_complement`,
    solved on ``[1; W]``.  Each class gets its own pass, and the loop stops
    at the first class that fails: one pass with every class target as an
    extra column made ``crosscheck``, whose draws are mostly not self-dual,
    7.6% slower.
    """
    if len(set(c.columns())) != c.npoints:
        raise repeated_columns("the coparallelism criterion")
    part = _circuit_partition(c.circuit_form)
    if part.zero_rows:
        raise pyramidal_input(part.zero_rows, "the coparallelism criterion")
    functionals = []
    # with no zero rows the classes are the line classes, by first member
    for cls in part.members:
        sub = is_parallel_face_complement(c, cls)
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
