"""Independent brute-force referees for every criterion in the package.

Each referee decides its question by a different route from the fast
predicate it checks: circuits come from subset enumeration, flats from a
Fraction echelon basis of each row subset, row-span tests from the Fraction
``in_row_span`` (the fast path's rank is fraction-free, so the two do not
share elimination code), faces from a separating-functional LP, strong
self-duality from exact evaluation of the defining binomials on a grid large
enough to certify a polynomial identity.  The inputs they start from are
shared, not independent.  ``strong_via_points`` reads ``gale_dual`` (so
``integer_kernel``, through the Gale kernel cached on each configuration)
as the strong predicate does.  ``crosscheck`` hands that same Gale dual to
``line_sums_zero`` and ``self_dual_via_flats``; ``coparallel_criterion``
reads the fundamental-circuit basis (``circuit_kernel``) for its classes and
``solve_linear`` for its functionals, so there it shares no kernel basis
with those two.  ``enumerate_circuits`` reads ``affine_dim`` (a Bareiss
rank) as ``hypersurface_class`` and ``smooth_certificate`` do, and
``regularize`` as ``coparallel_criterion`` does.  ``facial_via_separation`` reads the input
columns only, not the Gale dual.  ``enumerate_circuits`` and
``random_lawrence_block`` compute kernels with ``_hermite_kernel``, the
two-pass Hermite echelon route kept here as the reference, so they share no
kernel code with ``integer_kernel`` (a Hermite form modulo a determinant).
The self-duality verdict reads the fundamental-circuit basis (a
Bareiss-Jordan pass), so the flat-sum referee and it share no kernel
either.  ``random_lawrence_block`` reads the column lattice through its
Hermite basis (``column_lattice_saturated``).  These run at desk scale only
and guard themselves with explicit size limits.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .configuration import (
    Configuration,
    affine_dim,
    parse_configuration,
    regularize,
)
from .exceptions import GuardExceeded, InapplicableInput, pyramidal_input
from .gale import GaleDual, gale_dual
from .intlinalg import (
    IntMatrix,
    _echelon,
    column_lattice_saturated,
    imat,
    in_row_span,
    primitive_vector,
    rank,
)
from .ratlp import feasible_nonneg

ENUMERATION_GUARD = 12


@dataclass(frozen=True)
class Circuit:
    """A minimal affine dependency: primitive relation, zero off its support."""

    support: tuple
    relation: tuple


@dataclass(frozen=True)
class Flat:
    """A span-closed subset of Gale rows, with the subset that generated it."""

    generators: tuple
    closure: tuple


def _check_guard(n: int, what: str):
    if n > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"{what} enumerates subsets of {n} points; the guard is "
            f"{ENUMERATION_GUARD}"
        )


def _hermite_kernel(a) -> IntMatrix:
    """The referees' saturated kernel basis, by the two-pass Hermite route.

    An echelon pass over the first m columns of ``[a^T | I_n]`` leaves, in
    the rows that vanish there, a unimodular basis of ``ker(a) ∩ Z^n``;
    echelon those rows on their own for the Hermite form.  The result equals
    ``integer_kernel(a)``, which reaches the same form modulo a determinant;
    keeping this route here means a referee and the predicate it checks do
    not share kernel code.
    """
    a = imat(a)
    m, n = a.shape
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a.T)]
    rows = _echelon(rows, m)
    return IntMatrix(_echelon([row[m:] for row in rows if not any(row[:m])], n), n).T


def enumerate_circuits(c: Configuration) -> list:
    """All circuits, by subset enumeration plus a kernel-rank-1 test.

    A subset supports a circuit iff its affine relation space has rank one
    and the generator is nonzero on the whole subset.
    """
    _check_guard(c.npoints, "circuit enumeration")
    reg = regularize(c)
    max_size = affine_dim(c) + 2
    out = []
    for size in range(2, max_size + 1):
        for sub in itertools.combinations(range(c.npoints), size):
            k = _hermite_kernel(reg.weights.select(sub))
            if k.shape[1] != 1 or not all(k.column(0)):
                continue
            rel = [0] * c.npoints
            vec = primitive_vector(k.column(0))
            for pos, j in enumerate(sub):
                rel[j] = vec[pos]
            out.append(Circuit(support=tuple(sub), relation=tuple(rel)))
    return out


def coparallel_via_circuits(c: Configuration) -> tuple:
    """Partition of points by identical circuit membership.

    Points in no circuit at all (pyramid apexes) form singleton classes.
    """
    circuits = enumerate_circuits(c)
    membership = {i: frozenset() for i in range(c.npoints)}
    for idx, circ in enumerate(circuits):
        for i in circ.support:
            membership[i] = membership[i] | {idx}
    groups = {}
    for i in range(c.npoints):
        groups.setdefault(membership[i], []).append(i)
    classes = []
    for key, members in groups.items():
        if key == frozenset():
            classes.extend((i,) for i in members)
        else:
            classes.append(tuple(members))
    return tuple(sorted(classes, key=lambda g: g[0]))


def _fraction_echelon(rows) -> list:
    """A basis over Q of the span of Fraction ``rows``, as (pivot column, row)
    pairs: each row is 1 at its pivot and 0 at the pivots listed before it."""
    basis = []
    for v in rows:
        v = _reduce(basis, v)
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            basis.append((c, [x / v[c] for x in v]))
    return basis


def _reduce(basis, v) -> list:
    """``v`` minus its components along the pivots of ``basis``, in order;
    this leaves ``v`` zero at every pivot, so the result is the zero vector
    exactly when ``v`` lies in the span of ``basis``."""
    for c, row in basis:
        if v[c]:
            f = v[c]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def enumerate_flats(b: GaleDual) -> list:
    """All distinct flats of the dual row configuration.

    The flat of a subset J is every row index whose row lies in the span of
    the rows indexed by J; J = {} gives the zero rows.  Each subset's rows are
    brought to a Fraction echelon basis once, and every row is tested by
    reducing it against that basis.
    """
    _check_guard(b.npoints, "flat enumeration")
    rows = [[Fraction(x) for x in row] for row in b.matrix]
    seen = {}
    for size in range(0, b.npoints + 1):
        for sub in itertools.combinations(range(b.npoints), size):
            basis = _fraction_echelon([rows[j] for j in sub])
            closure = tuple(
                i for i in range(b.npoints) if not any(_reduce(basis, rows[i]))
            )
            if closure not in seen:
                seen[closure] = sub
    return [Flat(generators=j, closure=cl) for cl, j in sorted(seen.items())]


def self_dual_via_flats(b: GaleDual) -> bool:
    """Self-duality referee: every flat of the dual rows must sum to zero."""
    if b.zero_rows():
        raise pyramidal_input(b.zero_rows(), "the flat-sum test")
    for flat in enumerate_flats(b):
        total = [
            sum(b.row(i)[j] for i in flat.closure) for j in range(b.corank)
        ]
        if any(x != 0 for x in total):
            return False
    return True


def self_dual_via_sigma(c: Configuration) -> bool:
    """Self-duality referee via dual-variety dimension.

    For each circuit relation v, the 0/1 vector marking the zero set of v
    must lie in the rational row span of the weights.  Requires a regular
    configuration so that span membership expresses the affine condition.
    """
    if not c.regular:
        raise InapplicableInput(
            "the zero-set row-span test requires a regular configuration "
            "(all-ones vector in the row span)"
        )
    for circ in enumerate_circuits(c):
        sigma = [0 if circ.relation[i] != 0 else 1 for i in range(c.npoints)]
        if not in_row_span(c.weights, sigma):
            return False
    return True


def facial_via_separation(c: Configuration, subset) -> bool:
    """Face membership referee by exact LP separation.

    ``subset`` is a face intersection iff some affine functional vanishes on
    it and is <= -1 on the rest (scaling makes strictness linear).  It shares
    ``feasible_nonneg`` with ``is_facial`` but on a different LP: the primal
    one, whose unknowns are the functional and one slack per outside point,
    where ``is_facial`` looks for a positive dependency among the Gale dual
    rows of the complement.
    """
    sel = sorted(set(int(j) for j in subset))
    if not sel:
        raise ValueError("facial test expects a nonempty subset")
    if sel[0] < 0 or sel[-1] >= c.npoints:
        raise ValueError("subset index out of range")
    inside = set(sel)
    outside = [j for j in range(c.npoints) if j not in inside]
    if not outside:
        return True
    reg = regularize(c)
    d = reg.dim
    # variables: ell = p - q (free), one slack per strict inequality
    nvars = 2 * d + len(outside)
    rows = []
    rhs = []
    cols = reg.columns()
    for j in sel:
        col = list(cols[j])
        rows.append(col + [-x for x in col] + [0] * len(outside))
        rhs.append(0)
    for pos, j in enumerate(outside):
        col = list(cols[j])
        slack = [0] * len(outside)
        slack[pos] = 1
        rows.append(col + [-x for x in col] + slack)
        rhs.append(-1)
    x, _ = feasible_nonneg(rows, rhs)
    return x is not None


def strong_binomial_degree(b: GaleDual) -> int:
    """Largest one-sided degree among the basis binomials."""
    return max((sum(x for x in column if x > 0) for column in b.matrix.T), default=0)


def strong_via_points(c: Configuration) -> bool:
    """Strong self-duality referee by exact evaluation.

    Substitutes the dual parameterization into each basis binomial and checks
    the two sides agree on an integer grid with more values per coordinate
    than the degree bound — which certifies the polynomial identity, so the
    answer is exact, not probabilistic.
    """
    if not c.regular:
        raise InapplicableInput(
            "strong self-duality is defined for regular configurations"
        )
    b = gale_dual(c)
    if b.zero_rows():
        raise pyramidal_input(b.zero_rows(), "strong self-duality")
    if b.corank == 0:
        return True
    per_axis = strong_binomial_degree(b) + 1
    if per_axis**b.corank > 200_000:
        raise GuardExceeded(
            f"certifying grid would need {per_axis}^{b.corank} evaluations"
        )
    grid = [range(per_axis)] * b.corank
    cols = list(b.matrix.T)
    for s in itertools.product(*grid):
        coords = [
            sum(s[j] * b.row(i)[j] for j in range(b.corank)) for i in range(b.npoints)
        ]
        for v in cols:
            lhs = prod(coords[i] ** vi for i, vi in enumerate(v) if vi > 0)
            if lhs != prod(coords[i] ** -vi for i, vi in enumerate(v) if vi < 0):
                return False
    return True


def random_configuration(
    rng: random.Random, max_points: int = 8, non_pyramidal: bool = True
) -> Configuration:
    """One random regular, repeat-free configuration of at most
    ``max_points`` points, drawn in dimension at most 4 with entries in
    [-3, 3]; with ``non_pyramidal`` it also has a relation and no apex.

    Drawing is rejection-based (at most 20000 draws) but fully determined by
    the caller's ``rng``, so seeded sweeps are reproducible; the benchmark's
    ``oracle_instance`` replays the draws.  The filters run on the raw draw.
    The draw that is kept is regularized, and of its rows only those that
    raise the rank, read top to bottom, are returned: ``rank([1; W])``
    independent rows, still regular, with the draw's own relations and
    entries.
    """
    for _ in range(20_000):
        d = rng.randint(1, 4)
        n = rng.randint(max(2, d + 1), max_points)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        c = parse_configuration(rows)
        if len(set(c.columns())) != c.npoints:
            continue
        if non_pyramidal:
            b = GaleDual(matrix=c.circuit_basis)
            if b.corank == 0 or b.zero_rows():
                continue
        basis = []
        for row in regularize(c).weights:
            if rank([*basis, row]) > len(basis):
                basis.append(row)
        return parse_configuration(basis)
    raise RuntimeError("rejection sampling starved; loosen the filters")


def random_lawrence_block(rng: random.Random) -> IntMatrix:
    """A random M, at most 4 x 4 with entries in [-3, 3], whose Lawrence lift
    is non-pyramidal and whose columns span a saturated lattice (the standing
    hypothesis of the parity criterion); at most 20000 draws."""
    for _ in range(20_000):
        d = rng.randint(1, 4)
        n = rng.randint(1, 4)
        m = imat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        if not all(map(any, _hermite_kernel(m))):
            continue  # pyramidal lift: a zero kernel row, or no kernel at all
        if not column_lattice_saturated(m):
            continue
        return m
    raise RuntimeError("rejection sampling starved")


def crosscheck(seed: int, count: int) -> dict:
    """Run the four equivalent self-duality tests on a seeded random corpus.

    Returns a report with one entry per instance and the list of any
    disagreements (there should never be one).
    """
    from .gale import coparallel_criterion, line_sums_zero

    rng = random.Random(seed)
    results = []
    disagreements = []
    for idx in range(count):
        c = random_configuration(rng)
        b = gale_dual(c)
        answers = {
            "line_sums_zero": bool(line_sums_zero(b).value),
            "flats": self_dual_via_flats(b),
            "sigma": self_dual_via_sigma(c),
            "coparallel": bool(coparallel_criterion(c).value),
        }
        entry = {
            "index": idx,
            "dim": c.dim,
            "points": c.npoints,
            "answers": answers,
            "agree": len(set(answers.values())) == 1,
        }
        results.append(entry)
        if not entry["agree"]:
            disagreements.append(entry)
    return {
        "seed": seed,
        "count": count,
        "self_dual_instances": sum(1 for r in results if r["answers"]["line_sums_zero"]),
        "disagreements": disagreements,
        "results": results,
    }
