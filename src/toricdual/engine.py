"""Top-level verdicts: self-duality, strong self-duality, recognizers.

The main pipeline works on the input as given, because every criterion here
reads only its lattice of affine relations: merge repeated columns, then
read the pyramid apexes off a Gale dual as its zero rows.  Zero rows, line
classes and zero line sums do not change when the Gale basis is changed
over Q, so the self-duality verdict reads the fundamental-circuit basis
and never saturates it; its line-sum witnesses give directions and sums in
that basis and say so with ``"basis": "fundamental_circuits"``.  It does
not write that n x (n - rank) basis out either: ``_decompose`` reads the
line classes and the apexes off the Gauss-Jordan form that the
configuration caches (``Configuration.circuit_form``), in which only the
rank many pivot rows carry information, each free point lying on its own
axis.  ``full_decomposition`` and ``gale.coparallel_criterion`` read the
same partition.  The other questions that hold over Q
read a circuit basis too: ``hypersurface_class`` the one column of
``circuit_basis``, and ``is_segre`` its corank, its antipodal pairs and its
sign vector, a primitive 1-dimensional kernel (its lattice condition
follows from those); ``lawrence_strong_parity`` reads the zero rows of
``circuit_form(M)`` without writing its basis out.  The strong test reads
the same form as the self-duality verdict, and needs no regular flag: the
size of its products is a homomorphism to a torsion-free group, decided on
the fundamental circuits, and its sign is decided on generators of odd
index in the relation lattice, found by halving sums of circuits.
The saturated canonical basis of :func:`gale_dual`
(``Configuration.relations``) is read only by ``is_facial`` (so by
``check facial`` and the facial tests behind ``smooth_certificate``), by
``gale_dual`` itself and the commands that print it, by the referees in
``oracle`` and by the benchmark's checks (``config_from_gale`` runs
``integer_kernel`` on its own input).
"""

import enum
from math import gcd

from .configuration import Configuration, DecompositionReport, affine_dim, dedup
from .exceptions import pyramidal_input, repeated_columns
from .gale import (
    LinePartition,
    _circuit_partition,
    _line_sums_verdict,
    is_facial,
)
from .intlinalg import IntMatrix, circuit_form, imat, primitive_vector
from .verdict import Verdict


def _decompose(c: Configuration):
    """The decision pipeline: merge repeats, then split off apexes.

    Returns ``(part, report)``: the line partition of the
    fundamental-circuit Gale dual of the distinct columns of ``c`` (a
    rational, not a saturated, basis of their relations), read off their
    cached Gauss-Jordan form without building that n x (n - rank) basis,
    and the combined report.  Apexes are the partition's zero rows and the
    core is every other row.
    """
    rep = dedup(c)
    part, _ = _circuit_partition(rep.distinct.circuit_form)
    apex = part.zero_rows
    core = tuple(i for i in range(rep.distinct.npoints) if i not in apex)
    k = rep.repeat_codim
    report = DecompositionReport(
        repeat_codim=k,
        apex_indices=apex,
        core_indices=core,
        join_shape=(k, len(apex), len(core)),
    )
    return part, report


def is_self_dual(c: Configuration) -> Verdict:
    """Decide whether the projective toric variety of ``c`` is self-dual.

    Fully general input: repeats and pyramids are handled by reducing to the
    join decomposition.  A repeat-free non-pyramidal configuration is decided
    directly by the line sums of its Gale dual; otherwise the variety is an
    iterated join over the distinct-point core, which must be non-pyramidal
    with apex count equal to the number of repeats, and have a self-dual core
    (empty core means the variety is a linear subspace, self-dual exactly in
    the half-dimensional pattern).  Everything is read off one Gauss-Jordan
    form of ``c``'s relations, that of the fundamental-circuit basis; no
    other presentation and no saturated Gale dual is computed, and the
    basis itself is never written out.  Line class directions and sums in
    the witness are in that basis, marked ``"basis":
    "fundamental_circuits"``.
    """
    part, dec = _decompose(c)
    k, r = dec.repeat_codim, len(dec.apex_indices)
    if r == 0 and k == 0:
        return _circuit_line_sums(part)
    if r != k:
        note = "self-duality of a join needs apex count == repeat count"
        value, head = False, {"kind": "apex_repeat_mismatch", "note": note}
    elif not dec.core_indices:
        note = "subspace of half the ambient dimension"
        value, head = True, {"kind": "linear_subspace", "note": note}
    else:
        # apexes lie in no circuit: the core's circuit basis is the distinct
        # one without its zero rows, so its classes are these, renumbered
        at = {i: t for t, i in enumerate(dec.core_indices)}
        classes = tuple(
            cls._replace(members=tuple(at[i] for i in cls.members)) for cls in part.classes
        )
        core = _circuit_line_sums(LinePartition(classes=classes, zero_rows=()))
        value, head = core.value, {"kind": "join_core", "core_verdict": core.witness}
    return Verdict(value, "join-decomposition", {**head, **dec.as_json()})


def _circuit_line_sums(part: LinePartition) -> Verdict:
    """The line-sum verdict on a partition of a fundamental-circuit basis,
    with the witness marked as stated in that basis."""
    v = _line_sums_verdict(part)
    return Verdict(v.value, v.criterion, {**v.witness, "basis": "fundamental_circuits"})


def _coprime_base(numbers) -> list:
    """A coprime base (Bernstein 2005) of ``numbers`` (all > 1): pairwise
    coprime integers > 1 whose products give each of them.  A split replaces
    ``x, p`` with ``g = gcd(x, p) > 1`` by ``g, p/g, x/g`` (ones dropped); it
    divides the product of all numbers held by ``g``, so the loop ends."""
    pending, base = set(numbers), []
    while pending:
        x = pending.pop()
        for i, p in enumerate(base):
            g = gcd(x, p)
            if g > 1:
                del base[i]
                pending.update(y for y in (g, p // g, x // g) if y > 1)
                break
        else:
            base.append(x)
    return base


def _mod2_dependency(vectors) -> int:
    """A nonempty set of the integer ``vectors``, as a bitmask of their
    indices, whose sum is even in every entry; 0 when they are independent
    mod 2.  Each vector becomes the bitmask of its odd entries, reduced
    against a GF(2) basis kept by lowest bit, each basis entry paired with
    the bitmask of the vectors it combines."""
    basis = {}
    for t, v in enumerate(vectors):
        a, combo = sum((x & 1) << i for i, x in enumerate(v)), 1 << t
        while a:
            low = a & -a
            if low not in basis:
                basis[low] = (a, combo)
                break
            b, w = basis[low]
            a, combo = a ^ b, combo ^ w
        else:
            return combo
    return 0


def _unbalanced_generators(free, classes, multiples) -> tuple:
    """``(unbalanced, halvings)`` of the strong test on the line classes of
    a fundamental-circuit basis whose line sums vanish (see
    :func:`is_strongly_self_dual`): the columns of ``free`` whose final
    generator is unbalanced, and the halvings that made the generators."""
    m = len(free)
    gs = [gcd(*lam) for lam in multiples]
    # class values y_C = g_C·u_C[t] of each circuit t, and the sign weights M_C
    ys = [[g * cls.direction[t] for g, cls in zip(gs, classes)] for t in range(m)]
    ms = [sum(x for x in lam if x < 0) // g for lam, g in zip(multiples, gs)]

    def odd(y):
        return sum(a * b for a, b in zip(ms, y)) & 1

    nets = []  # per class: a -> the net multiple of absolute value a > 1
    for lam in multiples:
        net = {}
        for x in lam:
            if abs(x) > 1:
                net[abs(x)] = net.get(abs(x), 0) + x
        nets.append({a: s for a, s in net.items() if s})
    base = _coprime_base({a for net in nets for a in net})
    size = [[0] * len(base) for _ in range(m)]
    for cls, net in zip(classes, nets):
        if not net:  # K_C = 1
            continue
        nu = []  # K_C as exponents over the base
        for p in base:
            exponent = 0
            for a, s in net.items():
                while a % p == 0:
                    a //= p
                    exponent += s
            nu.append(exponent)
        for t, x in enumerate(cls.direction):
            if x:
                size[t] = [a + x * b for a, b in zip(size[t], nu)]
    unbalanced = [free[t] for t in range(m) if any(size[t]) or odd(ys[t])]
    if unbalanced:
        return unbalanced, []
    # the sign on generators of odd index: halve sums that are even
    halvings = []
    while w := _mod2_dependency(ys):
        ts = [t for t in range(m) if w >> t & 1]
        ys[ts[0]] = [sum(col) // 2 for col in zip(*(ys[t] for t in ts))]
        halvings.append([free[t] for t in ts])
    return [free[t] for t, y in enumerate(ys) if odd(y)], halvings


def is_strongly_self_dual(c: Configuration) -> Verdict:
    """Decide strong self-duality (equality with the dual under the canonical
    coordinate identification).

    Requires a non-pyramidal configuration.  Regularity is no hypothesis:
    scalars act trivially on P(V), so W and ``[1; W]`` have one variety, and
    the test reads only the affine relations, the linear ones of ``[1; W]``.
    Two conditions on the lattice L of integer affine relations: (a) the
    line classes of Gale rows sum to zero, and (b) every v in L is
    balanced, the product of ``e^e`` over its entries being 1
    (``0^0 = 1``).  Both are decided on ``Configuration.circuit_form``, the
    elimination that :func:`is_self_dual` reads, with no power formed and no
    saturated Gale dual: ``Configuration.relations`` is left to
    :func:`is_facial`, :func:`gale_dual` and its commands, the referees and
    the benchmark.
    The generators are the m fundamental circuits, the primitive relations
    on the lex-first column basis of ``[1; W]`` plus one other column,
    which names them; they span a sublattice of L of finite index (they are
    a basis of the relations over Q only).

    (a) is read off the line classes of the circuit basis, as for
    :func:`is_self_dual`.
    Under (a), write class C's rows as ``λ_i·u_C`` with ``u_C`` primitive,
    ``g_C = gcd(λ_i)`` and ``μ_i = λ_i/g_C``, so ``Σ μ_i = 0``.  A
    rational combination x of the circuits is integral iff ``g_C·<u_C, x>``
    is an integer for every class, so each v in L is fixed by its class
    values ``y_C = g_C·<u_C, x>``, with entries ``v_i = μ_i·y_C``.  Then:

    - size: ``|∏ e^e| = ∏_C k_C^y_C`` with ``k_C = ∏|μ_i|^μ_i`` (the
      ``|y_C|`` factors cancel since ``Σ μ_i = 0``), which is
      ``∏_C K_C^<u_C, x>`` with ``K_C = ∏|λ_i|^λ_i = k_C^g_C``.  Its values
      lie in Q_{>0}, which has no torsion, so it is 1 on L iff on every
      circuit t: ``Σ_C u_C[t]·v_p(K_C) = 0`` for each p of a coprime base
      of the ``|λ_i| > 1``.
    - sign: ``(-1)^(Σ_C M_C·y_C)`` with ``M_C = Σ_{μ_i<0} μ_i`` (when
      ``y_C < 0`` the negative entries are the ``μ_i > 0``, whose sum is
      ``-M_C·y_C``), a homomorphism to Z/2; it is trivial on L iff on a
      sublattice of odd index.  While the class-value vectors of the
      generators are dependent mod 2, a GF(2) kernel vector w gives the
      vector ``(Σ_{t in w} y_t)/2`` of L, which replaces the generator of
      the first column in w: that doubles the lattice they span, so the
      2-part of its index halves and the loop ends, on an odd index.

    Both tests run on the circuits; when every circuit passes, the sign
    test runs again on the halved generators, whose size passes with the
    circuits'.  The witness states this with
    ``"basis": "fundamental_circuits"``: ``classes`` gives each line
    class's ``members`` and ``multiples`` (the λ_i, for u_C with its first
    nonzero entry positive), so (a) holds iff every class's multiples sum to
    zero; ``halvings`` lists the halving steps in order, each as the columns
    of the generators summed, the first being the one replaced; and
    ``unbalanced_circuits`` names the final generators that are not
    balanced by their columns, None when (a) fails (balance is then not
    evaluated).  The verdict is True iff (a) holds and that list is empty.
    No other Gale basis can change it: under (a) the product over ``B·u``
    is a homomorphism of u, trivial on one basis of L iff on all of it.
    """
    form = c.circuit_form
    part, multiples = _circuit_partition(form)
    if part.zero_rows:
        raise pyramidal_input(part.zero_rows, "strong self-duality")
    sums_zero = not any(map(sum, multiples))
    unbalanced, halvings = None, []
    if sums_zero:
        unbalanced, halvings = _unbalanced_generators(form.free, part.classes, multiples)
    return Verdict(
        value=unbalanced == [],
        criterion="strong-gale-products",
        witness={
            "kind": "strong_conditions",
            "line_sums_zero": sums_zero,
            "basis": "fundamental_circuits",
            "classes": [
                {"members": list(cls.members), "multiples": list(lam)}
                for cls, lam in zip(part.classes, multiples)
            ],
            "halvings": halvings,
            "unbalanced_circuits": unbalanced,
        },
    )


def is_lawrence(c: Configuration):
    """Recover M when the weights literally have the block shape
    (Id_n | Id_n ; 0 | M) up to column order; None otherwise.

    Recognition is syntactic: affine-equivalent presentations of a Lawrence
    configuration are not detected.
    """
    rows_total, cols_total = c.weights.shape
    if cols_total % 2 != 0:
        return None
    n = cols_total // 2
    d = rows_total - n
    if d < 1:
        return None
    cols = c.columns()
    pairs = {}
    for j, col in enumerate(cols):
        top = col[:n]
        ones = [i for i, x in enumerate(top) if x == 1]
        if len(ones) != 1 or any(x not in (0, 1) for x in top):
            return None
        pairs.setdefault(ones[0], []).append(j)
    if set(pairs) != set(range(n)) or any(len(v) != 2 for v in pairs.values()):
        return None
    m_cols = []
    for i in range(n):
        bot1, bot2 = (cols[j][n:] for j in pairs[i])
        if any(bot1) and any(bot2):
            return None
        m_cols.append(bot1 if any(bot1) else bot2)
    return IntMatrix(zip(*m_cols), n)


def lawrence_strong_parity(m) -> Verdict:
    """Strong self-duality of a Lawrence lift, decided by parity.

    True iff some subset I of the rows of M has odd column sums throughout,
    i.e. the all-ones vector lies in the GF(2) row span of M.  Applies when
    the lift is non-pyramidal: the lift's Gale dual is ``(-K ; K)`` for a
    kernel basis K of M, so its zero rows are i and n + i for each zero row
    i of K.
    """
    mm = imat(m)
    d, n = mm.shape
    if not n:
        raise ValueError("a Lawrence block needs at least one column: its lift has no points")
    zero = list(circuit_form(mm).zero_rows())
    if zero:  # a zero row, or no kernel at all
        raise pyramidal_input(zero + [n + i for i in zero], "the Lawrence parity criterion")
    # solve alpha @ M == 1 over GF(2): equation k is column k of M as a
    # bitmask, bit d its right-hand side, paired with the bitmask of the
    # columns combined into it, for a certificate
    eqs = [
        (sum((x & 1) << i for i, x in enumerate(col)) | 1 << d, 1 << k)
        for k, col in enumerate(mm.T)
    ]
    pivots = []
    for col in range(d):
        r, bit = len(pivots), 1 << col
        piv = next((i for i in range(r, n) if eqs[i][0] & bit), None)
        if piv is None:
            continue
        eqs[r], eqs[piv] = eqs[piv], eqs[r]
        e, t = eqs[r]
        for i, (a, b) in enumerate(eqs):
            if i != r and a & bit:
                eqs[i] = (a ^ e, b ^ t)
        pivots.append(col)
    for a, t in eqs[len(pivots):]:
        if a >> d & 1:
            # 0 = 1 row: its columns give a mod-2 kernel vector of M with odd sum
            return Verdict(
                value=False,
                criterion="lawrence-parity",
                witness={
                    "kind": "odd_kernel_certificate",
                    "combination": [t >> k & 1 for k in range(n)],
                },
            )
    subset = [col for (a, _), col in zip(eqs, pivots) if a >> d & 1]
    sums = [sum(column[i] for i in subset) for column in mm.T]
    assert all(s % 2 == 1 for s in sums)
    return Verdict(
        value=True,
        criterion="lawrence-parity",
        witness={"kind": "odd_row_subset", "rows": subset, "column_sums": sums},
    )


def is_segre(c: Configuration):
    """Return m when the configuration is that of the Segre embedding of
    P^1 x P^(m-1); None otherwise.

    Characterized on the Gale dual: 2m rows in antipodal pairs, one
    representative per pair summing to zero over all pairs, with any m-1 of
    the representatives a lattice basis.  The corank and the pairing read
    the same on every basis over Q (rows pair under ``B·M``, M invertible,
    exactly when they pair under ``B``), so they are decided on
    ``c.circuit_basis``.  The m representatives span Q^(m-1), so their
    relations form one line: a zero-sum choice of signs exists iff its
    primitive vector is all ±1, read off their one fundamental circuit.  The
    lattice condition then holds by itself: the rows of a saturated basis
    generate Z^(m-1) (it extends to a unimodular matrix), each row is ± a
    representative, and with a ±1 zero-sum relation any m-1 of them
    generate what all m do.  No saturated basis is read.
    """
    n = c.npoints
    if n % 2 != 0 or n < 4:
        return None
    m = n // 2
    rows = c.circuit_basis
    if rows.shape[1] != m - 1:
        return None
    unmatched = list(range(n))
    reps = []
    while unmatched:
        i = unmatched.pop(0)
        neg = tuple(-x for x in rows[i])
        j = next((t for t in unmatched if rows[t] == neg), None)
        if j is None:
            return None
        unmatched.remove(j)
        reps.append(i)
    signs = circuit_form(IntMatrix([rows[i] for i in reps], m - 1).T).basis().column(0)
    return m if all(abs(s) == 1 for s in signs) else None


class HypersurfaceClass(enum.Enum):
    POINT = "point"
    CONIC = "conic"
    SEGRE_QUADRIC = "segre_quadric"
    OTHER_HYPERSURFACE = "other_hypersurface"
    NOT_HYPERSURFACE = "not_hypersurface"


def hypersurface_class(c: Configuration) -> HypersurfaceClass:
    """Classify hypersurface configurations (n = affine dimension + 2).

    The three smooth patterns are recognized from the single Gale column up
    to permutation and global sign: a point in P^1, the conic, and the Segre
    quadric surface.  The one column of ``c.circuit_basis`` is primitive, so
    it is the saturated Gale column up to sign.
    """
    if c.npoints != affine_dim(c) + 2:
        return HypersurfaceClass.NOT_HYPERSURFACE
    b = c.circuit_basis
    assert b.shape[1] == 1
    col = b.column(0)
    canon = min(tuple(sorted(col)), tuple(sorted(-x for x in col)))
    if canon == (-1, 1):
        return HypersurfaceClass.POINT
    if canon == (-2, 1, 1):
        return HypersurfaceClass.CONIC
    if canon == (-1, -1, 1, 1):
        return HypersurfaceClass.SEGRE_QUADRIC
    return HypersurfaceClass.OTHER_HYPERSURFACE


def full_decomposition(c: Configuration) -> DecompositionReport:
    """Merge repeats and split off apexes; one combined report."""
    return _decompose(c)[1]


def _simplicial_edges(vertex, diffs, candidates, height):
    """The edges at ``vertex`` and their lattice test, read off one
    elimination: ``(rank, edges, basis)``.

    ``height`` is an affine functional, 0 at the vertex and positive at
    every other point, and ``diffs[k]`` is point k minus the vertex.  The
    points of a candidate line lie on one ray from the vertex, so the point
    of smallest height on it is its nearest point.  One ``circuit_form``
    runs over the nearest differences in order of (height, candidate), then
    every other difference.  Its pivots are the greedy lex-first basis E of
    the nearest ones, and ``rank`` is the affine dimension.  When every
    Jordan row is sign-consistent with the last pivot d (only its free
    entries are tested: on the pivot columns it is d times a unit vector),
    every difference is a nonnegative combination of E, so the tangent cone
    is the simplicial cone(E) and its edges are exactly the E lines:
    ``edges``, as sorted (line, nearest point) pairs.  Column f is
    ``Σ_i (R_i[f]/d)·E_i`` and the differences at a point generate the
    difference lattice, so ``basis``, whether E is a basis of it, is
    whether d divides every Jordan entry.

    Otherwise ``edges`` and ``basis`` are None: the vertex fails the
    smoothness certificate.  Suppose it passes: its dim nearest edge vectors
    E form a lattice basis and generate its tangent cone, so every
    difference is a nonnegative integer combination of E.  A point off the
    edges then has two or more nonzero coordinates, so it is strictly higher
    than every edge in its support, and a further point on an edge is a
    multiple of its nearest one.  Ordered by height, each edge is
    independent of every difference before it, and every other difference
    lies in the span of the edges before it, so the pass picks exactly E,
    with sign-consistent Jordan rows.  A non-simple vertex, or a simple one
    where a point off the edges is lower than an edge, gives None.
    """
    # each line's nearest point as (height, line, point), in that order
    lines = sorted(min((height[k], s, k) for k in s if k != vertex) for s in candidates)
    order = [k for _, _, k in lines]
    nearest = set(order)
    order += [k for k in range(len(diffs)) if k != vertex and k not in nearest]
    form = circuit_form(IntMatrix([diffs[k] for k in order], len(diffs[vertex])).T)
    d = form.pivot
    if any(x * d < 0 for row in form.rows for x in row):
        return len(form.pivots), None, None
    edges = sorted(lines[p][1:] for p in form.pivots)
    return len(form.pivots), edges, not any(x % d for row in form.rows for x in row)


def smooth_certificate(c: Configuration) -> Verdict:
    """Sufficient smoothness certificate from the vertex charts.

    Certifies smoothness when every hull vertex has exactly (affine dim) many
    edges and the differences to the nearest configuration point along each
    edge form a basis of the difference lattice.  Not certified does not mean
    singular: the test is one-sided.  Repeat-free input required.  The check
    runs on ``c`` itself, so the edge vectors are differences of input
    columns; line grouping, the nearest point on an edge and lattice equality
    do not change under an injective integral linear map, so any other
    presentation of the same relations gives the same verdict.

    One pass over the points, with one facial LP per point and none per
    line.  A point's LP decides whether it is a vertex, and its positive
    dependency gives heights, an affine functional that vanishes at the
    vertex only.  At each vertex one elimination ordered by the heights
    reads off its edges, their lattice test and ``needed``, the affine
    dimension (:func:`_simplicial_edges`); the simplex and the single point
    have no heights, but each line there holds one point, so any order
    works.  The pass stops at the first vertex that fails: one where the
    elimination shows no simplicial tangent cone, which fails the
    certificate whatever its edges are, or one whose edge vectors are not a
    basis.  So at most n LPs run, and ``vertices`` in the witness ends at
    that vertex; its entry has no ``edge_count`` when no simplicial cone was
    shown.
    """
    if len(set(c.columns())) != c.npoints:
        raise repeated_columns("the smoothness certificate")
    cols = c.columns()
    report = []
    certified = True
    for i in range(c.npoints):
        v = is_facial(c, (i,))
        if not v.value:
            continue
        diffs = [[x - y for x, y in zip(col, cols[i])] for col in cols]
        lines = {}
        for j in range(c.npoints):
            if j != i:
                lines.setdefault(primitive_vector(diffs[j]), [i]).append(j)
        candidates = sorted(tuple(sorted(on_line)) for on_line in lines.values())
        h = v.witness.get("coefficients", [0] * (c.npoints - 1))
        needed, edges, ok = _simplicial_edges(i, diffs, candidates, [*h[:i], 0, *h[i:]])
        if edges is None:
            reason = "the elimination shows no simplicial tangent cone"
            report.append({"vertex": i, "needed": needed, "reason": reason})
        else:
            vectors = [diffs[k] for _, k in edges]
            report.append({"vertex": i, "edge_count": len(edges), "needed": needed,
                           "edge_vectors": vectors, "basis_of_difference_lattice": ok})
        if not ok:
            certified = False
            break
    return Verdict(
        value=certified,
        criterion="vertex-chart-basis",
        witness={
            "kind": "smooth_certificate",
            "certified": certified,
            "vertices": report,
            "note": "one-sided: not certified does not mean singular",
        },
    )
