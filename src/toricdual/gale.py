"""Gale duality and the combinatorics read off from it.

The Gale dual of a configuration of n points is an n x r integer matrix
whose columns form a saturated basis of the affine relation lattice; its
rows b_1..b_n are the dual configuration.  Self-duality of the toric variety
is decided entirely from how those rows sit on lines through the origin, and
faces of the convex hull correspond to strictly positive dependencies among
complementary rows.
"""

from dataclasses import dataclass
from math import lcm

from .configuration import Configuration, _ones_on_top, regularize
from .exceptions import InapplicableInput, pyramidal_input
from .intlinalg import IntMatrix, column_lattices_equal, imat, matmul, primitive_vector, rank
from .ratlp import positive_dependency_certified, solve_linear
from .verdict import Verdict


@dataclass(frozen=True, eq=False)
class GaleDual:
    """n x r matrix whose columns are a basis of the affine relations.

    :func:`gale_dual` gives the saturated canonical basis; the self-duality
    verdict wraps ``Configuration.circuit_basis``, a basis over Q only.
    """

    matrix: IntMatrix

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


@dataclass(frozen=True)
class LineClass:
    """All dual rows lying on one line through the origin."""

    direction: tuple  # primitive, sign-normalized
    members: tuple  # row indices
    total: tuple  # exact sum of the member rows


@dataclass(frozen=True)
class LinePartition:
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

    Columns must be affine relations, be linearly independent, and span the
    full saturated relation lattice (not a finite-index sublattice); the last
    is a canonical-form comparison against the computed dual.
    """
    bm = imat(b)
    if bm.shape[0] != c.npoints:
        raise ValueError(
            f"candidate has {bm.shape[0]} rows, configuration has {c.npoints} points"
        )
    if any(map(any, matmul(_ones_on_top(c), bm))) or rank(bm) != bm.shape[1]:
        return False
    canonical = gale_dual(c).matrix
    return bm.shape[1] == canonical.shape[1] and column_lattices_equal(bm, canonical)


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


def _cleared(values) -> tuple:
    """``(ints, den)``: the rationals times ``den``, the lcm of their
    denominators, so a witness is stated in integers."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def is_facial(c: Configuration, subset) -> Verdict:
    """Is ``subset`` exactly the set of points on some face of the hull?

    Decided on the Gale side: the complement must carry a strictly positive
    rational dependency among its dual rows.  The full set is the improper
    face; a configuration with no affine relations is a simplex, where every
    nonempty subset is facial.  The dependency, or the Farkas vector that
    rules one out, is given in integers: the rational one times the lcm of
    its denominators, which is a certificate too.
    """
    sel = sorted(set(int(j) for j in subset))
    if not sel:
        raise ValueError("facial test expects a nonempty subset")
    if sel[0] < 0 or sel[-1] >= c.npoints:
        raise ValueError("subset index out of range")
    inside = set(sel)
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
    dep, farkas = positive_dependency_certified([b.matrix[i] for i in complement])
    if dep is not None:
        return Verdict(
            value=True,
            criterion="gale-positive-dependency",
            witness={
                "kind": "positive_dependency",
                "complement": complement,
                "coefficients": _cleared(dep)[0],
            },
        )
    return Verdict(
        value=False,
        criterion="gale-positive-dependency",
        witness={
            "kind": "no_positive_dependency",
            "complement": complement,
            "separating_certificate": _cleared(farkas)[0],
        },
    )


def is_parallel_face_complement(c: Configuration, members) -> Verdict:
    """Does a linear functional take value 0 off ``members`` and 1 on them?

    When it does, ``members`` and its complement lie in parallel hyperplanes
    and both are faces; the witness gives the functional as ``ell``, integers
    to be divided by ``denominator``.
    """
    sel = sorted(set(int(j) for j in members))
    if not sel:
        raise ValueError("expected a nonempty class")
    if sel[0] < 0 or sel[-1] >= c.npoints:
        raise ValueError("class index out of range")
    inside = set(sel)
    targets = [int(j in inside) for j in range(c.npoints)]
    ell = solve_linear(c.columns(), targets)
    if ell is None:
        return Verdict(
            value=False,
            criterion="parallel-face-complement",
            witness={"kind": "no_functional", "members": sel},
        )
    ell, den = _cleared(ell)
    return Verdict(
        value=True,
        criterion="parallel-face-complement",
        witness={"kind": "functional", "members": sel, "ell": ell, "denominator": den},
    )


def coparallel_criterion(c: Configuration) -> Verdict:
    """Self-duality via the primal geometry: every coparallelism class must be
    a parallel face complement.

    Equivalent to :func:`line_sums_zero`; requires a repeat-free non-pyramidal
    configuration.  The classes are read off ``c.circuit_basis``, since
    parallel and zero rows do not change with the basis over Q; the
    functionals are solved in the regular presentation, so that linear
    functionals capture affine conditions.
    """
    if len(set(c.columns())) != c.npoints:
        raise InapplicableInput(
            "repeated columns: the coparallelism criterion expects a "
            "repeat-free configuration"
        )
    b = GaleDual(matrix=c.circuit_basis)
    if b.zero_rows():
        raise pyramidal_input(b.zero_rows(), "the coparallelism criterion")
    reg = regularize(c)
    functionals = []
    for cls in coparallel_classes(b):
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
