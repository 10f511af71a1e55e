"""Independent brute-force referees for every criterion in the package.

Each referee decides its question by a different route from the fast
predicate it checks, and the self-duality referees stop at the first
counterexample.  Flats are grown upward through the lattice of flats by
integer residue operations (``_reduce`` and ``_unit``: a residue kept
divided by its gcd, a class key signed by its first nonzero entry), with no
``intlinalg`` routine and no line classes, and ``_closures`` yields each
one as it is found.  Circuits come the same way from ``_circuits``, a
depth-first search over independent index tuples of ``[1; W]`` whose
columns carry their coefficients, so a zero residue gives its relation with
no kernel, and ``enumerate_circuits`` reads no ``affine_dim`` and makes no
Bareiss rank.  The sigma referee keeps a ``_reduce`` basis of the rows of
``[1; W]``, built as a flat's greedy basis is, and reduces each zero-set
vector against it, so it too runs on ints with no ``intlinalg``
elimination.  Each referee reads ``[1; W]``, whose variety is that of W.
Faces come from a separating-functional LP, and strong self-duality from
exact evaluation of the defining binomials on a grid large enough to
certify a polynomial identity.

The inputs the referees start from are shared, not independent.
``strong_via_points`` reads ``gale_dual`` (so ``integer_kernel``, through
the Gale kernel cached on each configuration); the strong predicate reads
``circuit_form`` instead, so these two share only the configuration.
``crosscheck`` compares the verdict that ships, ``is_self_dual``
(line sums on the fundamental-circuit basis), with ``self_dual_via_flats``
on the canonical Gale dual, ``self_dual_via_sigma`` and
``coparallel_criterion``, which reads the circuit form cached on the
configuration for its classes and solves every functional in one more
``circuit_form`` on its pivot points: it shares the verdict's pivot
choice, not its Jordan-row sums.
``facial_via_separation`` reads the input columns only, not the Gale dual.
The self-duality verdict reads the fundamental-circuit basis (a
Bareiss-Jordan pass) and the flat-sum referee the canonical Gale dual
(``integer_kernel``, a Hermite form modulo a determinant), so the two
share no kernel.  The generators are not referees: ``random_configuration``
and ``random_lawrence_block`` refuse pyramids by the zero rows of a
``circuit_form``, and ``random_lawrence_block`` reads the column lattice
through its Hermite basis (``column_lattice``).  These run at
desk scale only and guard themselves with explicit size limits.
"""

import itertools
import random
from math import gcd, prod
from typing import NamedTuple

from .configuration import (
    Configuration,
    _integer,
    _ones_on_top,
    column_indices,
    parse_configuration,
)
from .exceptions import GuardExceeded, pyramidal_input
from .engine import is_self_dual
from .gale import GaleDual, coparallel_criterion, gale_dual
from .intlinalg import IntMatrix, circuit_form, column_lattice, imat
from .ratlp import feasible_nonneg

ENUMERATION_GUARD = 12


class Circuit(NamedTuple):
    """A minimal affine dependency: primitive relation, zero off its support."""

    support: tuple
    relation: tuple


class Flat(NamedTuple):
    """A span-closed subset of Gale rows, with the subset that generated it."""

    generators: tuple
    closure: tuple


def _check_guard(n: int, what: str):
    if n > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"{what} enumerates subsets of {n} points; the guard is "
            f"{ENUMERATION_GUARD}"
        )


def _circuits(c: Configuration):
    """Yield each circuit of ``c`` as the depth-first search finds it.

    The columns of ``[1; W]`` have the affine relations of ``W`` as their
    linear ones.  The search grows increasing index tuples that stay
    independent, keeping the residue of every later column modulo the
    prefix's span (``_reduce``), with the column's m entries followed by
    its coefficients, which start as ``e_j`` and are never zero.  A residue
    that is zero (the ``_unit`` pivot is at m or beyond) makes the prefix
    dependent, its key's coefficients are the primitive relation, first
    nonzero entry positive, and the set is a circuit iff that relation is
    nonzero on all of it.  No prefix outgrows the rank.
    """
    _check_guard(c.npoints, "circuit enumeration")
    points = _ones_on_top(c)
    m, n = len(points), c.npoints

    def grow(prefix, residues):
        for j, v in residues.items():
            sub = (*prefix, j)
            p, key = unit = _unit(v)
            if p >= m:
                if all(key[m + i] for i in sub):
                    yield Circuit(support=sub, relation=key[m:])
            else:
                yield from grow(sub, {i: _reduce([unit], w) for i, w in residues.items() if i > j})

    columns = [[*col, *(int(i == j) for i in range(n))] for j, col in enumerate(zip(*points))]
    yield from grow((), dict(enumerate(columns)))


def enumerate_circuits(c: Configuration) -> list:
    """All circuits, from the depth-first search of ``_circuits``: integer
    residues, as the flats referee keeps them, with no kernel, no
    ``affine_dim`` and no Bareiss rank.  Circuits come sorted by size, then
    support.
    """
    return sorted(_circuits(c), key=lambda circ: (len(circ.support), circ.support))


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


def _reduce(basis, v) -> list:
    """Reduce the int vector ``v`` by each key ``(p, u)`` of ``basis`` in
    order, ``v <- u[p]·v - v[p]·u`` and then divided by its gcd; this leaves
    ``v`` zero at every pivot, so the result is the zero vector exactly when
    ``v`` lies in the span of ``basis``.  With ``u[p] > 0`` each step keeps
    ``v`` a positive multiple of its residue over the rationals."""
    for p, u in basis:
        f = v[p]
        if f:
            up = u[p]
            v = [up * x - f * y for x, y in zip(v, u)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
    return v


def _unit(v):
    """``(p, key)`` for the first nonzero entry ``v[p]``, where ``key`` is
    ``v`` divided by its gcd and signed so that ``key[p] > 0``: the class
    key of the line through ``v``.  None when ``v`` is zero."""
    for p, x in enumerate(v):
        if x:
            g = gcd(*v) if x > 0 else -gcd(*v)
            return p, tuple(v) if g == 1 else tuple(y // g for y in v)
    return None


def _greedy_basis(rows):
    """Yield ``(i, unit)`` for each row ``rows[i]`` that is independent of
    the rows before it, ``unit`` the ``_unit`` key of its residue modulo
    them; the units, in order, are a ``_reduce`` basis of the row span."""
    basis = []
    for i, row in enumerate(rows):
        unit = _unit(_reduce(basis, row))
        if unit is not None:
            basis.append(unit)
            yield i, unit


def _lex_first_basis(rows, closure) -> tuple:
    """The rows of ``closure`` that are independent of the rows before them:
    the greedy basis, which is the lexicographically first basis of the flat
    and so the first subset, by size and then lexicographically, that
    generates it."""
    return tuple(closure[i] for i, _ in _greedy_basis([rows[i] for i in closure]))


def _closures(b: GaleDual):
    """Yield the closure of each flat of the dual rows once, as it is found.

    The flat of a subset J is every row index whose row lies in the span of
    the rows indexed by J; J = {} gives the zero rows.  The flats are grown
    upward, one rank at a time, from that bottom flat.  Each flat F keeps the
    residue of every row modulo span(F) (``_reduce``), zero exactly on F.
    The flats covering F join it with one parallel class of nonzero
    residues (those with one ``_unit`` key), and a cover's residues are F's
    reduced by that key.
    """
    _check_guard(b.npoints, "flat enumeration")
    rows = list(b.matrix)
    bottom = tuple(i for i, row in enumerate(rows) if not any(row))
    yield bottom
    level = {bottom: rows}
    while level:
        covers = {}
        for flat, residues in level.items():
            classes = {}
            for i, v in enumerate(residues):
                unit = _unit(v)
                if unit is not None:
                    classes.setdefault(unit, []).append(i)
            for unit, members in classes.items():
                closure = tuple(sorted((*flat, *members)))
                if closure not in covers:  # a cover's rank is one more than F's
                    yield closure
                    covers[closure] = [_reduce([unit], v) for v in residues]
        level = covers


def enumerate_flats(b: GaleDual) -> list:
    """All distinct flats of the dual row configuration, from ``_closures``,
    sorted by closure; a flat's generators are its lexicographically first
    basis."""
    rows = list(b.matrix)
    return [Flat(_lex_first_basis(rows, closure), closure) for closure in sorted(_closures(b))]


def self_dual_via_flats(b: GaleDual) -> bool:
    """Self-duality referee: every flat of the dual rows must sum to zero.
    False at the first closure ``_closures`` yields that does not; no flat's
    generators are computed."""
    if b.zero_rows():
        raise pyramidal_input(b.zero_rows(), "the flat-sum test")
    rows = list(b.matrix)
    return not any(any(map(sum, zip(*(rows[i] for i in closure)))) for closure in _closures(b))


def self_dual_via_sigma(c: Configuration) -> bool:
    """Self-duality referee via dual-variety dimension.

    For each circuit relation v, the 0/1 vector marking the zero set of v
    must lie in the rational row span of ``[1; W]``, where span membership
    is the affine condition: its rows are reduced once to a ``_reduce``
    basis (``_greedy_basis``, integer residues kept divided by their gcd),
    and False comes at the first circuit from ``_circuits`` whose vector
    that basis leaves a nonzero residue.
    """
    basis = [unit for _, unit in _greedy_basis(_ones_on_top(c))]
    return not any(
        any(_reduce(basis, [0 if x else 1 for x in circ.relation])) for circ in _circuits(c)
    )


def facial_via_separation(c: Configuration, subset) -> bool:
    """Face membership referee by exact LP separation.

    ``subset`` is a face intersection iff some affine functional vanishes on
    it and is <= -1 on the rest (scaling makes strictness linear).  It shares
    ``feasible_nonneg`` with ``is_facial`` but on a different LP: the primal
    one, whose unknowns are the functional and one slack per outside point,
    where ``is_facial`` looks for a positive dependency among the Gale dual
    rows of the complement.  An affine functional of W is a linear one of
    ``[1; W]``, so the LP runs on its columns.
    """
    sel = sorted(set(column_indices(c, subset)))
    inside = set(sel)
    outside = [j for j in range(c.npoints) if j not in inside]
    if not outside:
        return True
    # variables: ell = p - q (free), one slack per strict inequality
    rows = []
    rhs = []
    cols = _ones_on_top(c).T
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


def strong_via_points(c: Configuration) -> bool:
    """Strong self-duality referee by exact evaluation.

    Substitutes the dual parameterization into each basis binomial and checks
    the two sides agree on an integer grid with more values per coordinate
    than the degree bound — which certifies the polynomial identity, so the
    answer is exact, not probabilistic.  It reads ``gale_dual``, the
    kernel of ``[1; W]``, so W and ``[1; W]`` get one answer.
    """
    b = gale_dual(c)
    if b.zero_rows():  # every row is zero at corank 0
        raise pyramidal_input(b.zero_rows(), "strong self-duality")
    cols = list(b.matrix.T)
    # more values per axis than the largest one-sided degree of a binomial
    per_axis = max(sum(x for x in v if x > 0) for v in cols) + 1
    if per_axis**b.corank > 200_000:
        raise GuardExceeded(
            f"certifying grid would need {per_axis}^{b.corank} evaluations"
        )
    grid = [range(per_axis)] * b.corank
    for s in itertools.product(*grid):
        coords = [
            sum(s[j] * b.row(i)[j] for j in range(b.corank)) for i in range(b.npoints)
        ]
        for v in cols:
            lhs = prod(coords[i] ** vi for i, vi in enumerate(v) if vi > 0)
            if lhs != prod(coords[i] ** -vi for i, vi in enumerate(v) if vi < 0):
                return False
    return True


def random_configuration(rng: random.Random, max_points: int = 8) -> Configuration:
    """One random repeat-free, non-pyramidal configuration (it has a
    relation and no apex) of at most ``max_points`` points, drawn in
    dimension at most 4 (and below ``max_points``) with entries in [-3, 3].
    ``ValueError`` when ``max_points`` is no integer (a bool or a float
    neither) or is below 3: two points have no relation.

    Drawing is rejection-based (at most 20000 draws) but fully determined by
    the caller's ``rng``, so seeded sweeps are reproducible; the benchmark's
    ``oracle_instance`` replays the draws.  The non-pyramidal filter reads
    the raw draw's ``circuit_form``: a draw with no relation, or with a
    point in no circuit, has zero rows (``CircuitForm.zero_rows``).  Of the
    rows of ``[1; W]`` for the draw W that is kept, only those that raise
    the rank, read top to bottom, are returned (``_greedy_basis``, as a
    flat's lex-first basis is found): ``rank([1; W])`` independent rows,
    the first all ones, with the draw's own relations and entries.
    """
    if (max_points := _integer("random_configuration", "max_points", max_points)) < 3:
        raise ValueError(f"max_points must be at least 3, got {max_points}")
    for _ in range(20_000):
        d = rng.randint(1, min(4, max_points - 1))
        n = rng.randint(max(2, d + 1), max_points)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        c = parse_configuration(rows)
        if len(set(c.columns())) != c.npoints or c.circuit_form.zero_rows():
            continue
        points = _ones_on_top(c)
        return parse_configuration([points[i] for i, _ in _greedy_basis(points)])
    raise RuntimeError("rejection sampling starved; loosen the filters")


def random_lawrence_block(rng: random.Random) -> IntMatrix:
    """A random M, at most 4 x 4 with entries in [-3, 3], whose Lawrence lift
    is non-pyramidal and whose columns span a saturated lattice (the standing
    hypothesis of the parity criterion); at most 20000 draws."""
    for _ in range(20_000):
        d = rng.randint(1, 4)
        n = rng.randint(1, 4)
        m = imat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        if circuit_form(m).zero_rows():
            continue  # pyramidal lift: a zero kernel row, or no kernel at all
        if not column_lattice(m)[1]:
            continue
        return m
    raise RuntimeError("rejection sampling starved")


def crosscheck(seed: int, count: int) -> dict:
    """Run the four equivalent self-duality tests on a seeded random corpus.

    The ``"line_sums_zero"`` answer is the shipped verdict,
    ``is_self_dual(c).value``; the other three are the referees.  Returns a
    report with one entry per instance and the list of any disagreements
    (there should never be one).  A non-integer ``seed`` or ``count`` (a
    bool or a float too) or a negative ``count`` raises ``ValueError``.
    """
    seed = _integer("crosscheck", "seed", seed)
    if (count := _integer("crosscheck", "count", count)) < 0:
        raise ValueError(f"crosscheck count must be at least 0, got {count}")
    rng = random.Random(seed)
    results = []
    disagreements = []
    for idx in range(count):
        c = random_configuration(rng)
        answers = {
            "line_sums_zero": bool(is_self_dual(c).value),
            "flats": self_dual_via_flats(gale_dual(c)),
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
