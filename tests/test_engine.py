import itertools
import json
import pathlib
import random
import sys
import time
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricdual import engine
from toricdual.cli import read_matrix
from toricdual.configuration import affine_dim, dedup, parse_configuration
from toricdual.engine import (
    HypersurfaceClass,
    full_decomposition,
    hypersurface_class,
    is_lawrence,
    is_segre,
    is_self_dual,
    is_strongly_self_dual,
    lawrence_strong_parity,
    smooth_certificate,
)
from toricdual.exceptions import GuardExceeded, InapplicableInput
from toricdual.families import config_from_gale, family_alpha, lawrence, segre
from toricdual.gale import (
    GaleDual,
    _CircuitClasses,
    coparallel_criterion,
    gale_dual,
    is_facial,
    line_sums_zero,
    verify_gale_dual,
)
from toricdual.intlinalg import eye, imat, lattice_basis, primitive_vector
from toricdual.oracle import (
    random_configuration,
    random_lawrence_block,
    self_dual_via_flats,
    self_dual_via_sigma,
    strong_via_points,
)
from toricdual.verdict import Verdict
from test_gale import ones_row_lift
from test_intlinalg import cofactor_det, fraction_rank, in_row_span, product

# two faces of this one contain a configuration point in their relative interior
INT_POINT_FACE = parse_configuration(
    [
        [1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 1, 2, 0, 0, 0],
        [0, 0, 0, 0, 1, 2],
    ]
)

# all points are vertices but the polytope has extra lattice points on edges
MISSING_POINTS = parse_configuration(
    [
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [2, 0, 0, 2, 0, 1],
    ]
)

# 7 x 9 strongly self-dual example that is not a Lawrence configuration
STRONG_7x9 = parse_configuration(
    [
        [1, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 1, 0, 0, 0, 0, 2, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 1, 0, 0, -2, -2],
        [0, 0, 0, 0, 0, 1, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, -1],
    ]
)

PYRAMID = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])

# regular and non-pyramidal; its canonical Gale dual has 11-bit entries, so
# the e^e products of its columns would run to tens of thousands of bits
STRONG_6X16 = [
    [1] * 16,
    [3, -3, 2, 0, -1, 2, 3, -2, 1, -3, -1, -3, -3, -3, 2, 1],
    [-3, 0, 2, -2, 0, 2, -3, 1, -2, 3, 0, 0, 1, -2, -1, -2],
    [2, -2, 3, 0, -1, -3, 0, 3, 1, 2, -3, -2, 2, 2, 3, -1],
    [-3, 2, -1, 2, 2, 1, 0, 1, 3, 2, -2, -1, -1, 1, 0, 3],
    [1, 0, 1, 3, -3, 0, -2, 2, 3, 0, 0, 2, -2, -1, 1, 2],
]


def test_self_dual_family_alpha():
    for a in (1, 2, 3):
        v = is_self_dual(family_alpha(a))
        assert v.value
        assert v.criterion == "gale-line-sums"


def test_self_dual_point_in_p1():
    v = is_self_dual(parse_configuration([[1, 1]]))
    assert v.value
    assert v.witness["kind"] == "linear_subspace"


def test_self_dual_pyramid_without_repeats_false():
    v = is_self_dual(PYRAMID)
    assert not v.value
    assert v.witness["kind"] == "apex_repeat_mismatch"


def test_self_dual_examples_from_corpus():
    assert is_self_dual(INT_POINT_FACE).value
    assert is_self_dual(MISSING_POINTS).value
    # sigma referee agrees
    assert self_dual_via_sigma(ones_row_lift(INT_POINT_FACE))
    assert self_dual_via_sigma(ones_row_lift(MISSING_POINTS))


def test_self_dual_twisted_cubic_false():
    assert not is_self_dual(parse_configuration([[0, 1, 2, 3]])).value


def test_self_dual_join_with_core():
    # one apex repeated twice over a non-pyramidal core: join of a point and the core
    c = parse_configuration(
        [
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 1, 1],
            [0, 0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1, 1],
        ]
    )
    v = is_self_dual(c)
    assert v.value
    assert v.witness["kind"] == "join_core"
    assert v.witness["join_shape"] == [1, 1, 4]


def test_self_dual_linear_patterns():
    # p^(k-1) inside p^(2k-1): every distinct point doubled, points independent
    doubled = parse_configuration([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert is_self_dual(doubled).value
    # tripled points give a mismatch
    assert not is_self_dual(parse_configuration([[1, 1, 1]])).value
    assert not is_self_dual(parse_configuration([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])).value
    # the whole space: a single subspace equal to everything is not self-dual
    assert not is_self_dual(parse_configuration([[0, 1]])).value


def test_self_dual_unnormalized_input_is_reduced_first():
    # same variety as the doubled-basis example, presented on a sublattice
    c = parse_configuration([[2, 2, 0, 0], [0, 0, 3, 3]])
    assert is_self_dual(c).value


def test_self_dual_handles_rank_zero_weights():
    # the doubled origin is a point in the projective line
    assert is_self_dual(parse_configuration([[0, 0]])).value
    assert not is_self_dual(parse_configuration([[0]])).value
    assert not is_self_dual(parse_configuration([[0, 0, 0]])).value


def test_strongly_self_dual_7x9():
    v = is_strongly_self_dual(STRONG_7x9)
    assert v.value
    assert is_lawrence(STRONG_7x9) is None


def _e_e_balanced(column):
    """Reference balance test: form both e^e products of a Gale column and
    compare them (0^0 = 1).  For small entries only."""
    return prod(e**e for e in column if e > 0) == prod(e ** -e for e in column if e < 0)


def test_strongly_self_dual_7x9_accepts_supplied_dual():
    printed = [
        [-2, 1],
        [-2, 1],
        [-2, 2],
        [-2, 0],
        [4, -2],
        [1, -1],
        [1, 0],
        [1, -1],
        [1, 0],
    ]
    assert is_strongly_self_dual(STRONG_7x9).value
    # a Gale dual other than the canonical one: balanced column by column
    assert verify_gale_dual(STRONG_7x9, printed)
    assert all(_e_e_balanced(column) for column in imat(printed).T)


def test_strongly_self_dual_segre2():
    assert is_strongly_self_dual(segre(2)).value


def test_strong_rejects_unbalanced_conic_variant():
    # dual column (-2, 1, 1): 2^2 = 4 on one side, 1 on the other
    c = parse_configuration([[1, 1, 1], [0, 1, -1]])
    v = is_strongly_self_dual(c)
    assert not v.value
    assert not strong_via_points(c)


def test_strong_rejects_bad_inputs():
    with pytest.raises(InapplicableInput):
        is_strongly_self_dual(PYRAMID)


def test_strong_point_in_p1_is_self_dual_but_not_strong():
    c = parse_configuration([[1, 1]])
    assert is_self_dual(c).value
    assert not is_strongly_self_dual(c).value


def _rank_mod2(vectors):
    """The rank over GF(2) of integer vectors, each as a bitmask of its odd
    entries, by the tests' own elimination."""
    basis = []
    for v in vectors:
        a = sum((int(x) & 1) << i for i, x in enumerate(v))
        for b in basis:
            a = min(a, a ^ b)
        if a:
            basis.append(a)
    return len(basis)


def _replay_strong(c, witness, balanced=_e_e_balanced):
    """Check a witness of ``is_strongly_self_dual(c)`` against generators
    rebuilt here in Fraction arithmetic, with no intlinalg echelon.

    Its classes are those of the rows of the fundamental circuits of ``c``,
    with their multiples; the generators are those circuits, named by their
    column, after the listed halvings (each an integer vector); the ones
    listed as unbalanced fail ``balanced`` and the others pass.  When none
    is listed, or halvings ran, the final generators are independent mod 2,
    so they span a sublattice of odd index of the saturated relation
    lattice (whose index is the gcd of their maximal minors).
    """
    assert witness["kind"] == "strong_conditions"
    assert witness["basis"] == "fundamental_circuits"
    circuits = _fundamental_circuits(c)
    classes = _row_classes(circuits, c.npoints).values()
    expected = sorted([[i for i, _ in members], [lam for _, lam in members]] for members in classes)
    assert sorted([cls["members"], cls["multiples"]] for cls in witness["classes"]) == expected
    sums_zero = all(sum(cls["multiples"]) == 0 for cls in witness["classes"])
    assert witness["line_sums_zero"] is sums_zero
    if not sums_zero:
        assert witness["unbalanced_circuits"] is None
        assert witness["halvings"] == []
        return
    generators = {j: [Fraction(x) for x in col] for j, col in circuits.items()}
    for step in witness["halvings"]:
        half = [sum(entries) / 2 for entries in zip(*(generators[j] for j in step))]
        assert all(x.denominator == 1 for x in half)
        generators[step[0]] = half
    listed = witness["unbalanced_circuits"]
    assert set(listed) <= set(generators)
    if witness["halvings"] or not listed:
        assert _rank_mod2(generators.values()) == len(generators)
    for j, g in generators.items():
        assert balanced([int(x) for x in g]) is (j not in listed), (j, g)


def test_strong_stops_at_failed_line_sums():
    c = parse_configuration(STRONG_6X16)
    assert not is_self_dual(c).value
    v = is_strongly_self_dual(c)
    assert v.value is _strong_reference(c) is False
    assert v.witness["line_sums_zero"] is False
    # balance is not evaluated when the line sums fail
    assert v.witness["unbalanced_circuits"] is None
    _replay_strong(c, v.witness)


def test_strong_reports_unbalanced_columns():
    v = is_strongly_self_dual(STRONG_7x9)
    assert v.value is _strong_reference(STRONG_7x9) is True
    assert v.witness["kind"] == "strong_conditions"
    assert v.witness["line_sums_zero"] is True
    # both circuits give 2^2 == (-2)^2 (-1)^1 (-1)^1 = 4
    assert v.witness["unbalanced_circuits"] == []
    _replay_strong(STRONG_7x9, v.witness)
    # the point in P^1 has products 1 and (-1)^1: equal size, opposite sign;
    # its one circuit is the relation (-1, 1) of column 1
    c = parse_configuration([[1, 1]])
    v = is_strongly_self_dual(c)
    assert v.value is _strong_reference(c) is False
    assert v.witness["line_sums_zero"] is True
    assert v.witness["classes"] == [{"members": [0, 1], "multiples": [-1, 1]}]
    assert v.witness["unbalanced_circuits"] == [1]
    _replay_strong(c, v.witness)


def _strong_reference(c):
    """The verdict by forming the e^e products of the saturated canonical
    Gale dual's columns."""
    b = gale_dual(c)
    return bool(line_sums_zero(b).value) and all(map(_e_e_balanced, b.matrix.T))


def _strong_corpus(seed):
    """Regular non-pyramidal small-entry input, with many self-dual cases:
    random draws, Lawrence lifts and antipodal Gale columns."""
    rng = random.Random(seed)
    corpus = [random_configuration(rng, max_points=9) for _ in range(60)]
    corpus += [lawrence(random_lawrence_block(rng)) for _ in range(30)]
    corpus += [segre(m) for m in range(2, 6)] + [STRONG_7x9, family_alpha(2)]
    for a in range(1, 8):
        for b in range(1, 8):
            try:
                corpus.append(config_from_gale([[a], [b], [-a], [-b]]))
            except ValueError:  # gcd(a, b) > 1: not a saturated Gale dual
                pass
    return corpus


def _fraction_rref(rows):
    """Reduced row echelon rows in Fraction arithmetic and their pivot
    columns: the tests' own elimination, sharing no code with intlinalg."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _fundamental_circuits(c):
    """``{j: circuit}`` for each column j off the lex-first column basis of
    ``[1; W]``: the primitive integer relation supported on that basis plus
    j, positive at j, found by :func:`_fraction_rref`."""
    rref, pivots = _fraction_rref([[1] * c.npoints, *c.weights])
    out = {}
    for j in range(c.npoints):
        if j in pivots:
            continue
        v = [Fraction(0)] * c.npoints
        v[j] = Fraction(1)
        for row, p in zip(rref, pivots):
            v[p] = -row[j]
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        out[j] = [x // g for x in ints]
    return out


def _row_classes(circuits, n):
    """The line classes of the rows of the circuit matrix (columns in the
    order of their free columns): ``{u: [(i, λ_i), ...]}`` with row i equal
    to ``λ_i·u``, u primitive with its first nonzero entry positive."""
    cols = [circuits[j] for j in sorted(circuits)]
    classes = {}
    for i in range(n):
        row = [col[i] for col in cols]
        if any(row):
            g = gcd(*row)
            lam = g if next(x for x in row if x) > 0 else -g
            classes.setdefault(tuple(x // lam for x in row), []).append((i, lam))
    return classes


def _line_sum_corpus(seed, count, multiples=(-3, -2, -1, 1, 2, 3), bound=2, most=4):
    """Regular non-pyramidal input whose line sums vanish, built from Gale
    duals: per class (at most ``most``) a direction u with entries up to
    ``bound`` and a few ``multiples`` λ, completed to sum to zero (half the
    time mirrored, λ and -λ alike), rows λ·u."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, most)):
            u = [rng.randint(-bound, bound) for _ in range(r)]
            if not any(u):
                continue
            lam = [rng.choice(multiples) for _ in range(rng.randint(1, 3))]
            lam = lam + [-x for x in lam] if rng.random() < 0.5 else lam + [-sum(lam)]
            rows += [[x * y for y in u] for x in lam if x]
        try:
            out.append(config_from_gale(rows))
        except ValueError:  # no rows, dependent or unsaturated columns
            pass
    return out


def test_strong_products_factor_through_class_values():
    # the identities that let is_strongly_self_dual decide on the circuit
    # form: once the line sums of the circuit rows vanish, every integer
    # relation v has v_i = μ_i·y_C with y_C = g_C·<u_C, x> an integer (x its
    # circuit coordinates), its sign is Σ_C M_C·y_C mod 2, and its product
    # of e^e is ∏_C k_C^y_C, with k_C^g_C = K_C
    rng = random.Random(31)
    checked = 0
    for c in _line_sum_corpus(3, 40) + [segre(3), STRONG_7x9, lawrence([[1, 2, 3]])]:
        n = c.npoints
        circuits = _fundamental_circuits(c)
        classes = _row_classes(circuits, n)
        assert not any(sum(lam for _, lam in members) for members in classes.values())
        cmat = [[circuits[j][i] for j in sorted(circuits)] for i in range(n)]
        basis = [list(col) for col in gale_dual(c).matrix.T]
        combos = []
        for _ in range(3):
            coefficients = [rng.randint(-1, 1) for _ in basis]
            combos.append([sum(a * col[i] for a, col in zip(coefficients, basis)) for i in range(n)])
        for v in basis + combos:
            x = [row[-1] for row in _fraction_rref([r + [e] for r, e in zip(cmat, v)])[0]]
            sign, size = 0, Fraction(1)
            for u, members in classes.items():
                g = gcd(*(lam for _, lam in members))
                y = g * sum(a * b for a, b in zip(u, x))
                assert y.denominator == 1
                mu = [lam // g for _, lam in members]
                assert [v[i] for i, _ in members] == [m * y for m in mu]
                sign += sum(m for m in mu if m < 0) * y
                k = prod(Fraction(abs(m)) ** m for m in mu)
                assert k**g == prod(Fraction(abs(lam)) ** lam for _, lam in members)
                size *= k ** int(y)
            assert sum(e for e in v if e < 0) % 2 == sign % 2
            assert prod(Fraction(abs(e)) ** e for e in v if e) == size
            checked += 1
    assert checked >= 150


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strong_matches_the_product_reference(seed):
    strong = 0
    for c in _strong_corpus(seed):
        v = is_strongly_self_dual(c)
        assert v.value is _strong_reference(c), c.weights
        _replay_strong(c, v.witness)
        strong += v.value
    assert strong >= 10


def test_strong_sweep_needs_the_halvings():
    # regular non-pyramidal input with vanishing line sums, where circuit
    # lattices of even index are common: the circuits can all be balanced
    # while a half-sum of them is not, and only the halved generators see it
    even = halved = decided_by_halving = skipped = 0
    for c in _line_sum_corpus(21, 500, multiples=(-3, -1, 1, 3), bound=1, most=5):
        v = is_strongly_self_dual(c)
        try:
            assert strong_via_points(c) is v.value, c.weights
        except GuardExceeded:
            skipped += 1
        _replay_strong(c, v.witness)
        circuits = _fundamental_circuits(c)
        even += _rank_mod2(circuits.values()) < len(circuits)
        halved += bool(v.witness["halvings"])
        decided_by_halving += bool(v.witness["halvings"] and v.witness["unbalanced_circuits"])
    assert even >= 10 and halved >= 3 and decided_by_halving >= 2
    assert skipped <= 10
    rng = random.Random(22)
    for _ in range(60):
        block = random_lawrence_block(rng)
        c = lawrence(block)
        v = is_strongly_self_dual(c)
        assert v.value is lawrence_strong_parity(block).value, block
        _replay_strong(c, v.witness)


def test_strong_matches_the_point_oracle_on_antipodal_pairs():
    # (a, b, -a, -b) is balanced iff a + b is even, i.e. both odd
    for a, b in [(1, 2), (3, 5), (5, 7), (2, 7), (7, 9), (4, 9)]:
        c = config_from_gale([[a], [b], [-a], [-b]])
        assert is_strongly_self_dual(c).value == strong_via_points(c) == (a % 2 == b % 2 == 1)


# Gale duals with vanishing line sums: per class a direction u and
# multipliers λ summing to zero, giving rows λ·u; a mirrored class (λ and
# -λ alike) has K = (-1)^(sum of the λ), so many of these are strong
line_class = st.tuples(
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(line_class, min_size=1, max_size=4), st.integers(0, 2**32))
def test_strong_verdict_holds_on_every_gale_basis(r, classes, seed):
    rows = []
    for u, lambdas, mirrored in classes:
        if not any(u[:r]):
            continue
        if mirrored:
            lambdas = lambdas + [-lam for lam in lambdas]
        elif sum(lambdas):
            lambdas = lambdas + [-sum(lambdas)]
        rows += [[lam * x for x in u[:r]] for lam in lambdas]
    if not rows:
        return
    try:
        c = config_from_gale(rows)
    except ValueError:  # dependent or unsaturated columns: not a Gale dual
        return
    v = is_strongly_self_dual(c)
    assert v.witness["line_sums_zero"] is True
    # the reference on another lattice basis B·U agrees with the verdict
    changed = product(rows, _unimodular(random.Random(seed), r))
    assert all(_e_e_balanced(column) for column in zip(*changed)) == v.value


def _e_e_balanced_past_any_power(column):
    """Balance of a column whose powers cannot be formed: after cancelling
    the e^e of equal |e| on the two sides, balanced iff nothing is left but
    an even sign; otherwise it is unbalanced when the two sides differ
    modulo the prime 2^61 - 1, and undecided (an error) when they agree."""
    net = {}
    for e in column:
        if e:
            net[abs(e)] = net.get(abs(e), 0) + e
    if not any(net.values()):
        return sum(e for e in column if e < 0) % 2 == 0
    p = 2**61 - 1
    positive = prod(pow(e, e, p) for e in column if e > 0) % p
    negative = prod(pow(e, -e, p) for e in column if e < 0) % p
    assert positive != negative, "undecided"
    return False


def test_strong_decides_family_alpha_past_any_power():
    # 10^30 ** 10^30 has about 10^31 bits; the exponents decide at once
    c = family_alpha(10**30)
    start = time.process_time()
    v = is_strongly_self_dual(c)
    assert time.process_time() - start < 1
    assert v.value is False
    assert v.witness["line_sums_zero"] is True
    # each circuit holds (2a)^(2a) against a^a·a^a: a factor 2^(2a) apart
    assert v.witness["unbalanced_circuits"] == [4, 6]
    _replay_strong(c, v.witness, _e_e_balanced_past_any_power)
    # the same verdict at a = 5, where the products can be formed
    assert is_strongly_self_dual(family_alpha(5)).value is _strong_reference(family_alpha(5))


def test_strong_accepts_antipodal_pair_past_any_power():
    a, b = 10**30 + 1, 10**30 + 3
    c = config_from_gale([[a], [b], [-a], [-b]])
    start = time.process_time()
    v = is_strongly_self_dual(c)
    assert time.process_time() - start < 1
    assert v.value is True
    assert v.witness["unbalanced_circuits"] == []
    _replay_strong(c, v.witness, _e_e_balanced_past_any_power)
    c = config_from_gale([[5], [7], [-5], [-7]])
    assert is_strongly_self_dual(c).value is _strong_reference(c) is True


def test_is_lawrence_round_trip():
    m = imat([[1, 2, -1], [0, 3, 5]])
    c = lawrence(m)
    back = is_lawrence(c)
    assert back.tolist() == m.tolist()


def test_is_lawrence_segre():
    back = is_lawrence(segre(3))
    assert back.tolist() == [[1, 1, 1]]


def test_is_lawrence_rejects():
    assert is_lawrence(parse_configuration([[1, 0], [0, 1]])) is None
    assert is_lawrence(parse_configuration([[1, 1, 0], [0, 0, 1]])) is None
    # the block Id_1 | Id_1 takes the only row, leaving no row for M
    assert is_lawrence(parse_configuration([[1, 1]])) is None
    # unit tops, but e_1 tops three columns and e_2 one
    assert is_lawrence(parse_configuration([[1, 1, 1, 0], [0, 0, 0, 1], [0, 0, 5, 0]])) is None
    # paired, but both columns of the first pair have a nonzero bottom
    assert is_lawrence(parse_configuration([[1, 0, 1, 0], [0, 1, 0, 1], [2, 0, 3, 0]])) is None
    back = is_lawrence(parse_configuration([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 2, 3]]))
    assert back.tolist() == [[2, 3]]


def test_verdict_truth_value_is_its_value():
    assert Verdict(True, "c")
    assert not Verdict(False, "c", {"kind": "k"})
    assert bool(is_self_dual(segre(2))) is True


def test_lawrence_parity_examples():
    v = lawrence_strong_parity([[1, 1, 1]])
    assert v.value
    assert v.witness["rows"] == [0]

    v = lawrence_strong_parity([[2, 1]])
    assert not v.value
    # the certificate ends at the first column with an odd dependency on
    # the columns before it: column 0, even in the one row
    v = lawrence_strong_parity([[-2, 2, -1]])
    assert not v.value and v.witness["combination"] == [1, 0, 0]

    # trivial kernel -> pyramidal lift -> criterion inapplicable
    with pytest.raises(InapplicableInput):
        lawrence_strong_parity([[1, 0], [0, 1]])
    # zero matrix: kernel is everything (full support), but all sums are even
    v = lawrence_strong_parity([[0, 0, 0]])
    assert not v.value
    # a block with no columns has a lift with no points, as lawrence says
    for block in ([[]], [[], []]):
        with pytest.raises(ValueError, match="at least one column"):
            lawrence_strong_parity(block)
        with pytest.raises(ValueError, match="at least one point"):
            lawrence(block)

    # no subset of these rows has an odd sum in every column; the certificate
    # is a mod-2 kernel vector of M with an odd sum
    m = [[1, 1, 0], [0, 1, 1]]
    v = lawrence_strong_parity(m)
    assert v.value is False and v.witness["kind"] == "odd_kernel_certificate"
    combination = v.witness["combination"]
    assert combination == [1, 1, 1]
    assert all(sum(x * y for x, y in zip(row, combination)) % 2 == 0 for row in m)
    assert sum(combination) % 2 == 1


def test_lawrence_parity_sweep_against_row_subsets():
    rng = random.Random(20081)
    decided = 0
    while decided < 500:
        d, n = rng.randint(1, 5), rng.randint(1, 7)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        try:
            v = lawrence_strong_parity(m)
        except InapplicableInput as exc:
            # the refusal names the zero rows of the lift's own Gale dual
            zero = list(gale_dual(lawrence(m)).zero_rows())
            assert zero and f"zero Gale rows at {zero}" in str(exc)
            continue
        decided += 1
        odd_subset = any(
            all(sum(m[i][j] for i in rows) % 2 for j in range(n))
            for size in range(d + 1)
            for rows in itertools.combinations(range(d), size)
        )
        assert v.value == odd_subset
        if v.value:
            rows = v.witness["rows"]
            assert v.witness["kind"] == "odd_row_subset" and rows == sorted(set(rows))
            assert v.witness["column_sums"] == [sum(m[i][j] for i in rows) for j in range(n)]
            assert all(s % 2 for s in v.witness["column_sums"])
        else:
            combination = v.witness["combination"]
            assert v.witness["kind"] == "odd_kernel_certificate"
            assert len(combination) == n and set(combination) <= {0, 1}
            assert all(sum(x * y for x, y in zip(row, combination)) % 2 == 0 for row in m)
            assert sum(combination) % 2 == 1
            # canonical: its last column t is the least that ends an odd
            # mod-2 kernel vector, and its other columns are independent of
            # the columns before them, so it is the dependency of column t
            # on the lex-first basis of the columns before t
            odd_kernel = [
                x for x in itertools.product((0, 1), repeat=n)
                if sum(x) % 2 and all(sum(a * b for a, b in zip(row, x)) % 2 == 0 for row in m)
            ]
            t = max(k for k in range(n) if combination[k])
            assert t == min(max(k for k in range(n) if x[k]) for x in odd_kernel)
            assert all(not _in_mod2_span(m, k) for k in range(t) if combination[k])


def _in_mod2_span(m, k):
    """Whether column k of ``m`` is a mod-2 sum of the columns before it."""
    return any(
        all((sum(row[j] for j in cols) - row[k]) % 2 == 0 for row in m)
        for size in range(k + 1)
        for cols in itertools.combinations(range(k), size)
    )


def test_mod2_dependencies_are_a_kernel_basis():
    # one dependency per vector in the mod-2 span of the vectors before
    # it, ending at that vector: n - rank_2 of them, each even in every entry
    rng = random.Random(20083)
    for _ in range(300):
        d, n = rng.randint(1, 4), rng.randint(1, 7)
        vectors = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]
        masks = list(engine._mod2_dependencies(vectors))
        span = {tuple(sum(v[i] for v in chosen) % 2 for i in range(d))
                for size in range(n + 1) for chosen in itertools.combinations(vectors, size)}
        assert len(masks) == n - (len(span).bit_length() - 1)
        stacked = list(map(list, zip(*vectors)))  # the vectors as columns
        assert [w.bit_length() - 1 for w in masks] == [
            k for k in range(n) if _in_mod2_span(stacked, k)
        ]
        for w in masks:
            chosen = [v for t, v in enumerate(vectors) if w >> t & 1]
            assert all(sum(col) % 2 == 0 for col in zip(*chosen))


def test_lawrence_parity_matches_strong_on_lift():
    for m in ([[1, 1, 1]], [[2, 1]], [[1, 2, 3], [0, 1, 1]]):
        mm = imat(m)
        parity = lawrence_strong_parity(mm)
        strong = is_strongly_self_dual(lawrence(mm))
        assert parity.value == strong.value


def test_is_segre():
    for m in (2, 3, 4):
        assert is_segre(segre(m)) == m
    assert is_segre(family_alpha(1)) is None
    assert is_segre(parse_configuration([[0, 1, 2, 3]])) is None


def test_is_segre_needs_no_sign_search():
    # the signs come from one kernel vector, with no search over 2^m patterns
    start = time.process_time()
    assert is_segre(segre(14)) == 14
    assert time.process_time() - start < 1


def test_is_segre_under_column_permutation():
    c = segre(3)
    perm = [4, 0, 5, 2, 1, 3]
    assert is_segre(parse_configuration(c.weights.select(perm))) == 3


def test_hypersurface_class():
    assert hypersurface_class(parse_configuration([[1, 1]])) is HypersurfaceClass.POINT
    assert hypersurface_class(parse_configuration([[0, 1, 2]])) is HypersurfaceClass.CONIC
    assert hypersurface_class(segre(2)) is HypersurfaceClass.SEGRE_QUADRIC
    assert (
        hypersurface_class(parse_configuration([[0, 1, 2, 3]]))
        is HypersurfaceClass.NOT_HYPERSURFACE
    )
    assert (
        hypersurface_class(parse_configuration([[0, 1, 3]]))
        is HypersurfaceClass.OTHER_HYPERSURFACE
    )


def test_full_decomposition():
    rep = full_decomposition(parse_configuration([[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert rep.repeat_codim == 2
    assert rep.join_shape == (2, 2, 0)


def test_smooth_certificate_segre():
    for m in (2, 3):
        assert smooth_certificate(segre(m)).value


def test_smooth_certificate_computes_the_gale_kernel_once(monkeypatch):
    from toricdual import configuration

    calls = []
    original = configuration.affine_relation_kernel

    def counting(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(configuration, "affine_relation_kernel", counting)
    assert smooth_certificate(segre(6)).value
    assert len(calls) == 1


def _count_facial_tests(monkeypatch):
    """Record every LP and every subset that ``smooth_certificate`` tests."""
    lps, subsets = [], []
    for name, module in sorted(sys.modules.items()):
        if name.startswith("toricdual") and hasattr(module, "feasible_nonneg"):

            def counting(a, b, _original=module.feasible_nonneg):
                lps.append(a)
                return _original(a, b)

            monkeypatch.setattr(module, "feasible_nonneg", counting)

    def recording(c, subset, _original=engine.is_facial):
        subsets.append(tuple(subset))
        return _original(c, subset)

    monkeypatch.setattr(engine, "is_facial", recording)
    return lps, subsets


def test_smooth_certificate_tests_each_subset_once(monkeypatch):
    lps, subsets = _count_facial_tests(monkeypatch)
    v = smooth_certificate(segre(6))
    assert v.value
    # the 12 points are the vertices of a product of simplices, each simple:
    # one LP per point finds the vertices and their heights, and every
    # vertex's edges come from the elimination
    n = 12
    assert len(v.witness["vertices"]) == n
    assert len(lps) == n
    assert subsets == [(i,) for i in range(n)]


# the apex 0 of a square pyramid has four edges in dimension 3: it is not
# simple; each base vertex is
SQUARE_PYRAMID = parse_configuration(
    [[1, 1, 1, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 1, 0], [1, 0, 0, 0, 0]]
)
# every vertex of the octahedron has four edges in dimension 3
OCTAHEDRON = parse_configuration(
    [[1] * 6, [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]]
)


@pytest.mark.parametrize(
    "c, lps",
    [
        # the apex fails at once
        (SQUARE_PYRAMID, 1),
        # the apex last: the four simple base vertices pass before it
        (parse_configuration(SQUARE_PYRAMID.weights.select([1, 2, 3, 4, 0])), 5),
        # no vertex is simple
        (OCTAHEDRON, 1),
    ],
    ids=["square-pyramid", "square-pyramid-apex-last", "octahedron"],
)
def test_smooth_certificate_stops_at_the_first_failing_vertex(monkeypatch, c, lps):
    counted, subsets = _count_facial_tests(monkeypatch)
    v = smooth_certificate(c)
    assert not v.value
    assert len(counted) == lps
    assert subsets == [(i,) for i in range(lps)]
    witness = v.witness["vertices"]
    assert [e["vertex"] for e in witness] == list(range(lps))
    assert "edge_count" not in witness[-1] and "reason" in witness[-1]
    assert all(e["basis_of_difference_lattice"] for e in witness[:-1])


def _lines_at(c, i):
    """The differences to point i and the sorted candidate lines through it,
    each the tuple of the points on it."""
    cols = c.columns()
    diffs = [[x - y for x, y in zip(col, cols[i])] for col in cols]
    lines = {}
    for j in range(c.npoints):
        if j != i:
            lines.setdefault(primitive_vector(diffs[j]), [i]).append(j)
    return diffs, sorted(tuple(sorted(on_line)) for on_line in lines.values())


def _smooth_by_lps(c):
    """The smoothness certificate with one facial LP per point and per line
    through a vertex: the reference for :func:`smooth_certificate` on
    repeat-free input."""
    dim = affine_dim(c)
    cols = c.columns()
    lattice = lattice_basis([[x - y for x, y in zip(col, cols[0])] for col in cols], c.dim)
    report = []
    certified = True
    for i in range(c.npoints):
        if not is_facial(c, (i,)).value:
            continue
        diffs, candidates = _lines_at(c, i)
        edges = [s for s in candidates if is_facial(c, s).value]
        entry = {"vertex": i, "edge_count": len(edges), "needed": dim}
        if len(edges) != dim:
            entry["reason"] = "edge count differs from dimension"
            certified = False
            report.append(entry)
            continue
        vectors = [
            diffs[min((k for k in s if k != i), key=lambda k: sum(map(abs, diffs[k])))]
            for s in edges
        ]
        ok = lattice_basis(vectors, c.dim) == lattice
        entry["edge_vectors"] = vectors
        entry["basis_of_difference_lattice"] = ok
        certified = certified and ok
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


def _simplex_product(*sizes):
    """The vertices of a product of simplices, one indicator block per factor."""
    points = list(itertools.product(*(range(s + 1) for s in sizes)))
    return parse_configuration(
        [[int(p[f] == i) for p in points] for f, s in enumerate(sizes) for i in range(s + 1)]
    )


def _grid_configuration(rng):
    """Distinct points of {0, 1, 2}^d, d = 2 or 3, so that lines through a
    vertex often hold three points."""
    d = rng.randint(2, 3)
    points = rng.sample(list(itertools.product(range(3), repeat=d)), rng.randint(d + 1, 9))
    return parse_configuration([[1] * len(points)] + [list(r) for r in zip(*points)])


def _repeat_free_lift(rng):
    while True:
        c = lawrence(random_lawrence_block(rng))
        if len(set(c.columns())) == c.npoints:
            return c


# up to 7 distinct points of {-2, ..., 2}^d, d = 1, 2 or 3
POINT_SETS = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=7, unique=True)
)


def _assert_matches_the_lp_reference(c):
    """The verdict is the reference's, and so is the whole witness when
    certified; otherwise the witness holds the reference's entries up to its
    first failing vertex, which ends it."""
    v, ref = smooth_certificate(c), _smooth_by_lps(c)
    assert v.value == ref.value
    if ref.value:
        assert v == ref
        return
    *passed, failed = v.witness["vertices"]
    expected = ref.witness["vertices"][: len(passed) + 1]
    assert passed == expected[:-1]
    assert all(e["basis_of_difference_lattice"] for e in passed)
    assert not expected[-1].get("basis_of_difference_lattice")
    if "edge_count" in failed:
        assert failed == expected[-1]
    else:
        assert failed["vertex"] == expected[-1]["vertex"]
        assert failed["needed"] == expected[-1]["needed"]
    assert v.witness == {**ref.witness, "vertices": v.witness["vertices"]}


def test_smooth_certificate_matches_the_lp_reference_on_families():
    cases = [segre(m) for m in range(2, 6)]
    cases += [_simplex_product(*p) for p in [(1, 1), (2, 2), (1, 1, 1), (1, 2), (2, 3)]]
    cases += [INT_POINT_FACE, MISSING_POINTS, SQUARE_PYRAMID, OCTAHEDRON]
    for c in cases:
        _assert_matches_the_lp_reference(c)


@pytest.mark.parametrize("seed", range(4))
def test_smooth_certificate_matches_the_lp_reference_on_seeded_draws(seed):
    rng = random.Random(seed)
    cases = [random_configuration(rng) for _ in range(15)]
    cases += [_grid_configuration(rng) for _ in range(15)]
    cases += [_repeat_free_lift(rng) for _ in range(3)]
    for c in cases:
        _assert_matches_the_lp_reference(c)


@settings(max_examples=100, deadline=None)
@given(POINT_SETS)
def test_smooth_certificate_matches_the_lp_reference(points):
    _assert_matches_the_lp_reference(parse_configuration([list(row) for row in zip(*points)]))


def _heights(c, i):
    """The heights that the vertex test of point i gives: 0 at i."""
    h = is_facial(c, (i,)).witness["coefficients"]
    return [*h[:i], 0, *h[i:]]


def _simplicial_edges(c, i):
    """The edge lines that the elimination at vertex i reads, or None."""
    rank, edges, _ = engine._simplicial_edges(c, i, _heights(c, i))
    assert rank == affine_dim(c)
    if edges is None:
        return None
    lines = _lines_at(c, i)[1]
    return [next(s for s in lines if k in s) for k in edges]


def _edges_by_lps(c, i):
    return [s for s in _lines_at(c, i)[1] if is_facial(c, s).value]


def test_simplicial_edges_needs_a_simple_vertex():
    assert len(_edges_by_lps(SQUARE_PYRAMID, 0)) == 4
    assert _simplicial_edges(SQUARE_PYRAMID, 0) is None
    for i in range(1, 5):
        assert _simplicial_edges(SQUARE_PYRAMID, i) == _edges_by_lps(SQUARE_PYRAMID, i)


def test_simplicial_edges_refuses_a_middle_point_below_an_edge():
    # the vertices 0, 2, 3, 5 are simple, but the middle point of the
    # three-point line 3, 4, 5 (or 0, 1, 2) lies below an edge at 0 and 2
    # (3 and 5), so the elimination cannot show the cone is simplicial
    for i in (0, 2, 3, 5):
        assert len(_edges_by_lps(INT_POINT_FACE, i)) == 3
        assert _simplicial_edges(INT_POINT_FACE, i) is None


def test_simplicial_edges_at_simple_vertices_whose_edges_are_no_basis():
    for i in range(4):
        assert _simplicial_edges(MISSING_POINTS, i) == _edges_by_lps(MISSING_POINTS, i)
    # the first vertex already fails, and ends the witness
    (entry,) = smooth_certificate(MISSING_POINTS).witness["vertices"]
    assert entry["vertex"] == 0
    assert not entry["basis_of_difference_lattice"]


def test_edge_vectors_follow_the_smallest_point_on_their_line():
    # at vertex 2, the origin, the x-axis line holds 0 and 3 and the y-axis
    # line 1 and 4: the x-axis edge comes first although its nearest point,
    # 3, is a later pivot than 1
    c = parse_configuration([[2, 0, 0, 1, 0, 1], [0, 1, 0, 0, 2, 1]])
    v = smooth_certificate(c)
    assert v.value
    (entry,) = [e for e in v.witness["vertices"] if e["vertex"] == 2]
    assert entry["edge_vectors"] == [[1, 0], [0, 1]]
    assert _simplicial_edges(c, 2) == [(0, 2, 3), (1, 2, 4)]


def _assert_no_simplicial_cone_fails_the_vertex(c):
    """At every vertex with heights where the elimination gives None, the
    reference with one LP per line fails that vertex."""
    ref = {e["vertex"]: e for e in _smooth_by_lps(c).witness["vertices"]}
    for i, entry in ref.items():
        if is_facial(c, (i,)).witness["kind"] != "positive_dependency":
            continue
        if _simplicial_edges(c, i) is None:
            assert not entry.get("basis_of_difference_lattice"), (c.weights, i)


@pytest.mark.parametrize("seed", range(4))
def test_no_simplicial_cone_fails_the_vertex_on_seeded_draws(seed):
    rng = random.Random(seed)
    cases = [random_configuration(rng) for _ in range(15)]
    cases += [_grid_configuration(rng) for _ in range(15)]
    cases += [INT_POINT_FACE, SQUARE_PYRAMID, OCTAHEDRON]
    for c in cases:
        _assert_no_simplicial_cone_fails_the_vertex(c)


@settings(max_examples=100, deadline=None)
@given(POINT_SETS)
def test_no_simplicial_cone_fails_the_vertex(points):
    _assert_no_simplicial_cone_fails_the_vertex(
        parse_configuration([list(row) for row in zip(*points)])
    )


def test_smooth_certificate_ends_on_the_26x100_sample(monkeypatch):
    # vertex 0 of demos/data/random_26x100.txt has 99 candidate lines in
    # dimension 26, so it is not simple: one LP decides the verdict
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data" / "random_26x100.txt"
    c = parse_configuration(read_matrix(str(path)))
    lps, _ = _count_facial_tests(monkeypatch)
    v = smooth_certificate(c)
    assert not v.value
    assert len(lps) == 1
    assert v.witness["vertices"] == [
        {"vertex": 0, "needed": 26, "reason": "the elimination shows no simplicial tangent cone"}
    ]


def test_smooth_certificate_not_certified_examples():
    v = smooth_certificate(INT_POINT_FACE)
    assert not v.value
    v = smooth_certificate(MISSING_POINTS)
    assert not v.value


def test_smooth_certificate_conic_certified():
    # the midpoint is in the configuration, so the nearest-point chart is fine
    assert smooth_certificate(parse_configuration([[0, 1, 2]])).value
    # without the midpoint the chart fails (cuspidal patch)
    assert not smooth_certificate(parse_configuration([[0, 2, 3]])).value


def test_smooth_certificate_rejects_repeats():
    # a failed hypothesis, refused as the coparallelism criterion refuses it
    for rows in ([[1, 1]], [[1, 1, 1, 1], [0, 1, 2, 1]]):
        for criterion in (smooth_certificate, coparallel_criterion):
            with pytest.raises(InapplicableInput, match="repeated columns"):
                criterion(parse_configuration(rows))


REPEATS = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 1]])


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: smooth_certificate(REPEATS), "repeated columns"),
        (lambda: coparallel_criterion(REPEATS), "repeated columns"),
        (lambda: is_strongly_self_dual(PYRAMID), r"zero Gale rows at \[3\]"),
        (lambda: line_sums_zero(gale_dual(PYRAMID)), r"zero Gale rows at \[3\]"),
        (lambda: coparallel_criterion(PYRAMID), r"zero Gale rows at \[3\]"),
        (lambda: self_dual_via_flats(gale_dual(PYRAMID)), r"zero Gale rows at \[3\]"),
        # a trivial kernel: every row of the lift's Gale dual is zero
        (lambda: lawrence_strong_parity([[1, 0], [0, 1]]), r"zero Gale rows at \[0, 1, 2, 3\]"),
        # kernel row 2 is zero, so rows 2 and 2 + n of the lift are
        (lambda: lawrence_strong_parity([[1, 1, 0], [0, 0, 1]]), r"zero Gale rows at \[2, 5\]"),
    ],
    ids=[
        "smooth-repeats", "coparallel-repeats",
        "strong-pyramid", "line-sums-pyramid", "coparallel-pyramid", "flats-pyramid",
        "parity-no-kernel", "parity-zero-kernel-row",
    ],
)
def test_refusals_name_their_hypothesis(refuse, message):
    with pytest.raises(InapplicableInput, match=message):
        refuse()


def _irregular_draws(seed, count=300):
    """Three points on a line, the unit square (P^1 x P^1, strongly
    self-dual), then seeded non-pyramidal configurations whose points lie on
    no affine hyperplane off the origin (the ones row is not in the row span
    of W), d <= 4 and n <= 9 with entries in [-2, 2], repeats allowed."""
    rng = random.Random(seed)
    draws = [parse_configuration([[0, 1, 3]]), parse_configuration([[0, 1, 0, 1], [0, 0, 1, 1]])]
    while len(draws) < count:
        d = rng.randint(1, 4)
        n = rng.randint(d + 1, 9)
        c = parse_configuration([[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)])
        if not c.circuit_form.zero_rows() and not in_row_span(c.weights, [1] * n):
            draws.append(c)
    return draws


def test_strong_test_of_w_is_that_of_its_ones_row_lift():
    # W and [1; W] have one variety and one circuit form, so value,
    # criterion and witness agree
    values = set()
    for c in _irregular_draws(32):
        v = is_strongly_self_dual(c)
        assert v == is_strongly_self_dual(ones_row_lift(c)), c.weights.tolist()
        values.add(v.value)
    assert values == {True, False}


def test_strong_via_points_agrees_on_irregular_input():
    checked = {True: 0, False: 0}
    for c in _irregular_draws(33):
        try:
            points = strong_via_points(c)
        except GuardExceeded:
            continue
        assert points is is_strongly_self_dual(c).value, c.weights.tolist()
        checked[points] += 1
    assert checked[True] and checked[False] > 150


def test_sigma_of_w_is_that_of_its_ones_row_lift():
    values = set()
    for c in _irregular_draws(34):
        sigma = self_dual_via_sigma(c)
        assert sigma is self_dual_via_sigma(ones_row_lift(c)), c.weights.tolist()
        values.add(sigma)
    assert values == {True, False}


def test_smooth_certificate_degenerate_point():
    # a single point is a zero-dimensional variety; the chart test is vacuous
    assert smooth_certificate(parse_configuration([[5]])).value
    assert smooth_certificate(parse_configuration([[5, 7]])).value


# small weights, then optional decorations: the first row scaled, the first
# column repeated, and an apex on a new coordinate
decorated_configurations = st.tuples(
    st.integers(1, 3).flatmap(
        lambda d: st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=d,
                max_size=d,
            )
        )
    ),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
    st.booleans(),
)


def _decorated(rows, scale, repeat, apex):
    rows = [[scale * x for x in rows[0]]] + rows[1:]
    if repeat:
        rows = [r + r[:1] for r in rows]
    if apex:
        rows = [r + [0] for r in rows] + [[0] * len(rows[0]) + [1]]
    return rows


def _unimodular(rng, r):
    """A random r x r unimodular matrix: signed swaps and row additions."""
    u = eye(r).tolist()
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i != j:
            f = rng.randint(-2, 2)
            u[i] = [x + f * y for x, y in zip(u[i], u[j])]
            if rng.random() < 0.3:
                u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    assert abs(cofactor_det(u)) == 1
    return u


def _nonsingular(rng, r):
    while True:
        m = imat([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
        if fraction_rank(m) == r:
            return m


def _members(witness):
    if witness["kind"] == "violating_line_class":
        return witness["members"]
    return [cls["members"] for cls in witness["classes"]]


@settings(max_examples=200, deadline=None)
@given(decorated_configurations, st.integers(0, 2**32))
def test_circuit_basis_verdict_matches_the_canonical_line_sums(case, seed):
    c = parse_configuration(_decorated(*case))
    v = is_self_dual(c)
    canonical = gale_dual(dedup(c).distinct)
    w = v.witness
    if v.criterion == "join-decomposition":
        assert w["apex_indices"] == list(canonical.zero_rows())
        if w["kind"] != "join_core":
            return
        b, got = imat([canonical.matrix[i] for i in w["core_indices"]]), w["core_verdict"]
    else:
        b, got = canonical.matrix, w
    assert got["basis"] == "fundamental_circuits"
    rng = random.Random(seed)
    r = b.shape[1]
    # line classes, members and zero sums survive any change of basis over Q
    for change in (eye(r), _unimodular(rng, r), _nonsingular(rng, r)):
        ref = line_sums_zero(GaleDual(matrix=imat(product(b, change))))
        assert ref.value == v.value
        assert ref.witness["kind"] == got["kind"]
        assert _members(ref.witness) == _members(got)


def _self_dual_by_matrix(c):
    """:func:`is_self_dual` with the fundamental-circuit basis written out
    and grouped by :func:`line_sums_zero`: the reference for the verdict
    read off the Gauss-Jordan form."""
    rep = dedup(c)
    b = GaleDual(matrix=rep.distinct.circuit_basis)
    apex = b.zero_rows()
    core = tuple(i for i in range(b.npoints) if i not in apex)
    k, r = rep.repeat_codim, len(apex)

    def marked(v):
        return Verdict(v.value, v.criterion, {**v.witness, "basis": "fundamental_circuits"})

    if r == 0 and k == 0:
        return marked(line_sums_zero(b))
    if r != k:
        note = "self-duality of a join needs apex count == repeat count"
        value, head = False, {"kind": "apex_repeat_mismatch", "note": note}
    elif not core:
        note = "subspace of half the ambient dimension"
        value, head = True, {"kind": "linear_subspace", "note": note}
    else:
        core_rows = imat([b.matrix[i] for i in core])
        v = marked(line_sums_zero(GaleDual(matrix=core_rows)))
        value, head = v.value, {"kind": "join_core", "core_verdict": v.witness}
    dec = {
        "repeat_codim": k,
        "apex_indices": list(apex),
        "core_indices": list(core),
        "join_shape": [k, r, len(core)],
    }
    return Verdict(value, "join-decomposition", {**head, **dec})


def _assert_same_as_by_matrix(c):
    v, ref = is_self_dual(c), _self_dual_by_matrix(c)
    assert v == ref
    # the same witness, key for key in the same order
    assert json.dumps(v.witness) == json.dumps(ref.witness)
    return v


def test_self_dual_matches_the_matrix_reference_on_seeded_draws():
    rng = random.Random(20)
    kinds = set()
    for _ in range(300):
        d, n = rng.randint(1, 4), rng.randint(2, 9)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        if rng.random() < 0.2:
            rows = [[x * 10**30 + rng.randint(-2, 2) for x in row] for row in rows]
        # as many repeats as apexes, often, so that a core is decided
        k = rng.randint(0, 2)
        r = k if rng.random() < 0.6 else rng.randint(0, 2)
        rows = [row + [row[rng.randrange(n)] for _ in range(k)] for row in rows]
        for _ in range(r):
            rows = [row + [0] for row in rows] + [[0] * len(rows[0]) + [1]]
        kinds.add(_assert_same_as_by_matrix(parse_configuration(rows)).witness["kind"])
    for c in [segre(m) for m in range(2, 6)] + [family_alpha(a) for a in (1, 2, -3)]:
        kinds.add(_assert_same_as_by_matrix(c).witness["kind"])
        # the same core joined with one repeat and one apex
        rows = [[*row, row[0], 0] for row in c.weights] + [[0] * (c.npoints + 1) + [1]]
        kinds.add(_assert_same_as_by_matrix(parse_configuration(rows)).witness["kind"])
    assert kinds == {
        "violating_line_class",
        "line_classes",
        "apex_repeat_mismatch",
        "linear_subspace",
        "join_core",
    }


@settings(max_examples=200, deadline=None)
@given(decorated_configurations, st.integers(0, 2))
def test_self_dual_matches_the_matrix_reference(case, big):
    rows = [[x * 10**30 * big + x for x in row] for row in _decorated(*case)]
    _assert_same_as_by_matrix(parse_configuration(rows))


def test_wide_sample_matches_the_matrix_reference():
    # demos/data/wide_4x80.txt: 80 points, corank 75, the seeded draw below
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data" / "wide_4x80.txt"
    rng = random.Random(480)
    rows = [[rng.randint(-100, 100) for _ in range(80)] for _ in range(4)]
    assert read_matrix(str(path)) == imat(rows)
    c = parse_configuration(rows)
    assert len(c.circuit_form.free) == 75
    _assert_same_as_by_matrix(c)
    # joined with a repeat and an apex: a False core verdict, renumbered
    joined = parse_configuration([[*row, row[0], 0] for row in rows] + [[0] * 81 + [1]])
    v = _assert_same_as_by_matrix(joined)
    assert not v.value and v.witness["core_verdict"]["kind"] == "violating_line_class"


def _count_class_write_outs(monkeypatch):
    """Count, per class, the line classes written out in fundamental-circuit
    coordinates (all at once or one at a time), keyed by the class's place
    in order of first member."""
    counts = {}
    original, ordered = _CircuitClasses.line_class, _CircuitClasses.ordered

    def counting(self, cls):
        k = ordered(self).index(cls)
        counts[k] = counts.get(k, 0) + 1
        return original(self, cls)

    monkeypatch.setattr(_CircuitClasses, "line_class", counting)
    return counts


def _count_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of ``owner.name``."""
    calls, original = [], getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_false_line_sum_verdict_writes_one_class(monkeypatch):
    counts = _count_class_write_outs(monkeypatch)
    listed = _count_calls(monkeypatch, _CircuitClasses, "ordered")
    grouped = _count_calls(monkeypatch, engine, "_circuit_partition")
    rng = random.Random(480)  # the wide sample: 80 classes
    wide = [[rng.randint(-100, 100) for _ in range(80)] for _ in range(4)]
    for rows in [[[0, 1, 2, 3]], wide]:
        counts.clear()
        v = is_self_dual(parse_configuration(rows))
        assert v.witness["kind"] == "violating_line_class"
        assert list(counts.values()) == [1]
    # the wide sample groups its 5 pivot rows and lists no class
    assert (len(grouped), listed) == (2, [])
    # a core joined with a repeat and an apex prints its one violating class
    counts.clear()
    rows = [[*row, row[0], 0] for row in wide] + [[0] * 81 + [1]]
    v = is_self_dual(parse_configuration(rows))
    assert v.witness["core_verdict"]["kind"] == "violating_line_class"
    assert list(counts.values()) == [1]
    assert (len(grouped), listed) == (3, [])
    # the decomposition alone reads the zero rows and groups no class
    for rows in [wide, rows]:
        full_decomposition(parse_configuration(rows))
    assert (len(grouped), listed) == (3, [])


def test_a_mismatch_and_the_coparallel_criterion_write_no_class(monkeypatch):
    counts = _count_class_write_outs(monkeypatch)
    grouped = _count_calls(monkeypatch, engine, "_circuit_partition")
    pyramid = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
    assert is_self_dual(pyramid).witness["kind"] == "apex_repeat_mismatch"
    # the mismatch is read off the zero rows: no class is grouped
    assert grouped == []
    for c in [family_alpha(2), parse_configuration([[0, 1, 2, 3]])]:
        coparallel_criterion(c)
    assert counts == {}


def test_true_verdicts_and_the_strong_test_write_each_class_once(monkeypatch):
    counts = _count_class_write_outs(monkeypatch)
    alpha = family_alpha(2)
    joined = parse_configuration(
        [[*row, row[0], 0] for row in alpha.weights] + [[0] * (alpha.npoints + 1) + [1]]
    )
    for c in [alpha, joined]:
        counts.clear()
        v = is_self_dual(c)
        classes = v.witness.get("core_verdict", v.witness)["classes"]
        assert v.value and counts == dict.fromkeys(range(len(classes)), 1)
    for c in [STRONG_7x9, segre(3), parse_configuration([[0, 1, 2, 3]])]:
        counts.clear()
        v = is_strongly_self_dual(c)
        assert counts == dict.fromkeys(range(len(v.witness["classes"])), 1)
