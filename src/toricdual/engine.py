"""Top-level verdicts: self-duality, strong self-duality, recognizers.

The main pipeline works on the input as given, because every criterion here
reads only its lattice of affine relations: merge repeated columns, then
read the pyramid apexes off a Gale dual as its zero rows.  Zero rows, line
classes and zero line sums do not change when the Gale basis is changed
over Q, so the self-duality verdict reads the fundamental-circuit basis
(``Configuration.circuit_basis``) and never saturates it; its line-sum
witnesses give directions and sums in that basis and say so with
``"basis": "fundamental_circuits"``.  The other questions that hold over Q
read a circuit basis too: ``hypersurface_class`` the one column of
``circuit_basis``, ``lawrence_strong_parity`` the zero rows of
``circuit_kernel(M)``, and ``is_segre`` its sign vector, a primitive
1-dimensional kernel.  Only the strong test (whose sign condition needs a
lattice basis), ``is_segre``'s determinant and the facial tests behind
``smooth_certificate`` read the saturated canonical basis of
:func:`gale_dual`.
"""

import enum
from math import gcd

from .configuration import Configuration, DecompositionReport, affine_dim, dedup
from .exceptions import InapplicableInput, pyramidal_input
from .gale import GaleDual, gale_dual, is_facial, line_sums_zero
from .intlinalg import IntMatrix, circuit_kernel, det, imat, lattice_basis, primitive_vector
from .verdict import Verdict


def _decompose(c: Configuration):
    """The decision pipeline: merge repeats, then split off apexes.

    Returns ``(distinct, b, report)``: the distinct-column configuration of
    ``c``, its fundamental-circuit Gale dual (a rational, not a saturated,
    basis of its relations), and the combined report.  Apexes are the zero
    rows of ``b`` and the core is every other row.
    """
    rep = dedup(c)
    b = GaleDual(matrix=rep.distinct.circuit_basis)
    apex = b.zero_rows()
    core = tuple(i for i in range(b.npoints) if i not in apex)
    k = rep.repeat_codim
    report = DecompositionReport(
        repeat_codim=k,
        apex_indices=apex,
        core_indices=core,
        join_shape=(k, len(apex), len(core)),
    )
    return rep.distinct, b, report


def is_self_dual(c: Configuration) -> Verdict:
    """Decide whether the projective toric variety of ``c`` is self-dual.

    Fully general input: repeats and pyramids are handled by reducing to the
    join decomposition.  A repeat-free non-pyramidal configuration is decided
    directly by the line sums of its Gale dual; otherwise the variety is an
    iterated join over the distinct-point core, which must be non-pyramidal
    with apex count equal to the number of repeats, and have a self-dual core
    (empty core means the variety is a linear subspace, self-dual exactly in
    the half-dimensional pattern).  Everything is read off the
    fundamental-circuit basis of ``c``'s relations; no other presentation
    and no saturated Gale dual is computed.  Line class directions and sums
    in the witness are in that basis, marked ``"basis":
    "fundamental_circuits"``.
    """
    _, b, dec = _decompose(c)
    k, r = dec.repeat_codim, len(dec.apex_indices)
    if r == 0 and k == 0:
        return _circuit_line_sums(b)
    decomposition = {
        "repeat_codim": k,
        "apex_indices": list(dec.apex_indices),
        "core_indices": list(dec.core_indices),
        "join_shape": list(dec.join_shape),
    }
    if r != k:
        return Verdict(
            value=False,
            criterion="join-decomposition",
            witness={
                "kind": "apex_repeat_mismatch",
                "note": "self-duality of a join needs apex count == repeat count",
                **decomposition,
            },
        )
    if not dec.core_indices:
        return Verdict(
            value=True,
            criterion="join-decomposition",
            witness={
                "kind": "linear_subspace",
                "note": "subspace of half the ambient dimension",
                **decomposition,
            },
        )
    # the core's circuit basis is the distinct one without its zero rows
    core_rows = IntMatrix([b.matrix[i] for i in dec.core_indices], b.corank)
    core_verdict = _circuit_line_sums(GaleDual(matrix=core_rows))
    return Verdict(
        value=core_verdict.value,
        criterion="join-decomposition",
        witness={
            "kind": "join_core",
            "core_verdict": core_verdict.witness,
            **decomposition,
        },
    )


def _circuit_line_sums(b: GaleDual) -> Verdict:
    """:func:`line_sums_zero` on a fundamental-circuit basis, with the
    witness marked as stated in that basis."""
    v = line_sums_zero(b)
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


def _balanced(column) -> bool:
    """Whether ``prod e^e`` over ``column`` is 1 (``0^0 = 1``), with no power
    formed.  Its sign is ``(-1)^(sum of the negative e)``; its size is
    ``prod a^s_a`` with ``s_a`` the sum of the ``e`` with ``|e| = a``, which is
    1 iff ``sum s_a v_p(a) = 0`` for each ``p`` of a coprime base of the ``a``.
    """
    if sum(e for e in column if e < 0) % 2:
        return False
    net = {}
    for e in column:
        if e:  # 0^0 = 1, and no valuation of 0 ends
            net[abs(e)] = net.get(abs(e), 0) + e
    net = {a: s for a, s in net.items() if a > 1 and s}
    for p in _coprime_base(net):
        exponent = 0
        for a, s in net.items():
            while a % p == 0:
                a //= p
                exponent += s
        if exponent:
            return False
    return True


def is_strongly_self_dual(c: Configuration) -> Verdict:
    """Decide strong self-duality (equality with the dual under the canonical
    coordinate identification).

    Requires a regular non-pyramidal configuration.  Two conditions on the
    Gale dual ``B`` of :func:`gale_dual`: (a) every line class of rows sums
    to zero, (b) every column is balanced, the product of e^e over its
    entries being 1 (0^0 = 1); (b) is decided on exponents, no power formed.
    When (a) fails, (b) is not evaluated and ``unbalanced_columns`` is None.

    No other basis can change the verdict.  Under (a), write the rows of a
    line class C as ``λ_i u_C``, ``u_C`` primitive and ``Σ λ_i = 0``; then
    the column ``B u`` has ``∏ e^e = ∏_C K_C^<u_C, u>``, ``K_C = ∏ λ_i^λ_i``.
    That is a homomorphism Z^r → Q^×, trivial on one basis of the saturated
    relation lattice iff on all of it, so on every Gale dual that
    :func:`verify_gale_dual` accepts.
    """
    if not c.regular:
        raise InapplicableInput(
            "strong self-duality is defined for regular configurations "
            "(all-ones vector in the row span)"
        )
    b = gale_dual(c)
    apexes = b.zero_rows()
    if apexes:
        raise pyramidal_input(apexes, "strong self-duality")
    sums_zero = bool(line_sums_zero(b).value)
    unbalanced = None
    if sums_zero:
        unbalanced = [j for j, column in enumerate(b.matrix.T) if not _balanced(column)]
    return Verdict(
        value=unbalanced == [],
        criterion="strong-gale-products",
        witness={
            "kind": "strong_conditions",
            "line_sums_zero": sums_zero,
            "unbalanced_columns": unbalanced,
            "basis": b.matrix.tolist(),
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
    the lift is non-pyramidal (the kernel of M has full support).
    """
    mm = imat(m)
    d, n = mm.shape
    kernel = circuit_kernel(mm)
    if not all(map(any, kernel)):  # a zero row, or no kernel at all
        raise InapplicableInput(
            "the Lawrence lift of this matrix is pyramidal (its kernel does "
            "not have full support); the parity criterion requires a "
            "non-pyramidal lift"
        )
    # solve alpha @ M == 1 over GF(2); track combinations for a certificate
    eqs = []
    for k, column in enumerate(mm.T):
        row = [x % 2 for x in column] + [1]
        tracker = [1 if t == k else 0 for t in range(n)]
        eqs.append((row, tracker))
    pivots = []
    r = 0
    for col in range(d):
        piv = next((i for i in range(r, len(eqs)) if eqs[i][0][col] == 1), None)
        if piv is None:
            continue
        eqs[r], eqs[piv] = eqs[piv], eqs[r]
        for i in range(len(eqs)):
            if i != r and eqs[i][0][col] == 1:
                eqs[i] = (
                    [(a + b) % 2 for a, b in zip(eqs[i][0], eqs[r][0])],
                    [(a + b) % 2 for a, b in zip(eqs[i][1], eqs[r][1])],
                )
        pivots.append((r, col))
        r += 1
    for i in range(r, len(eqs)):
        if eqs[i][0][d] == 1:
            # 0 = 1 row: its tracker is a mod-2 kernel vector of M with odd sum
            return Verdict(
                value=False,
                criterion="lawrence-parity",
                witness={
                    "kind": "odd_kernel_certificate",
                    "combination": eqs[i][1],
                },
            )
    alpha = [0] * d
    for i, col in pivots:
        alpha[col] = eqs[i][0][d]
    subset = [i for i in range(d) if alpha[i] == 1]
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
    the representatives a lattice basis.  The m representatives span
    Q^(m-1), so their relations form one line: a zero-sum choice of signs
    exists iff its primitive vector is all ±1, and then the signs change no
    determinant's absolute value.  That vector is read off
    :func:`circuit_kernel`; the determinant needs the saturated basis.
    """
    n = c.npoints
    if n % 2 != 0 or n < 4:
        return None
    m = n // 2
    b = gale_dual(c)
    if b.corank != m - 1:
        return None
    rows = b.rows()
    unmatched = list(range(n))
    reps = []
    while unmatched:
        i = unmatched.pop(0)
        neg = tuple(-x for x in rows[i])
        j = next((t for t in unmatched if rows[t] == neg), None)
        if j is None:
            return None
        unmatched.remove(j)
        reps.append(rows[i])
    signs = circuit_kernel(IntMatrix(reps, m - 1).T).column(0)
    if any(abs(s) != 1 for s in signs):
        return None
    # rows sum to zero, so every (m-1)-subset has the same |det|
    return m if abs(det(reps[: m - 1])) == 1 else None


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
    return _decompose(c)[2]


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
    """
    if len(set(c.columns())) != c.npoints:
        raise ValueError("smoothness certificate expects no repeated columns")
    n = c.npoints
    dim = affine_dim(c)
    cols = c.columns()
    # the differences to any one point generate the whole difference lattice
    to_first = [[x - y for x, y in zip(col, cols[0])] for col in cols]
    lattice = lattice_basis(to_first, c.dim)
    facial = {}

    def is_face(subset):
        # an edge is a candidate at both of its ends: test each subset once
        if subset not in facial:
            facial[subset] = is_facial(c, subset).value
        return facial[subset]

    vertices = [i for i in range(n) if is_face((i,))]
    report = []
    certified = True
    for i in vertices:
        diffs = [[x - y for x, y in zip(col, cols[i])] for col in cols]
        lines = {}
        for j in range(n):
            if j != i:
                lines.setdefault(primitive_vector(diffs[j]), [i]).append(j)
        candidates = sorted(tuple(sorted(on_line)) for on_line in lines.values())
        edges = [s for s in candidates if is_face(s)]
        entry = {"vertex": i, "edge_count": len(edges), "needed": dim}
        if len(edges) != dim:
            entry["reason"] = "edge count differs from dimension"
            certified = False
            report.append(entry)
            continue
        # the point nearest to the vertex along each edge, by the 1-norm
        vectors = [
            diffs[min((k for k in s if k != i), key=lambda k: sum(map(abs, diffs[k])))]
            for s in edges
        ]
        ok = lattice_basis(vectors, c.dim) == lattice
        entry["edge_vectors"] = vectors
        entry["basis_of_difference_lattice"] = ok
        if not ok:
            certified = False
        report.append(entry)
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
