import inspect
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricdual import intlinalg, oracle
from toricdual.configuration import affine_dim, parse_configuration
from toricdual.engine import is_self_dual
from toricdual.exceptions import GuardExceeded, InapplicableInput
from toricdual.families import family_alpha, lawrence, segre
from toricdual.gale import (
    GaleDual,
    coparallel_classes,
    gale_dual,
    is_facial,
    line_sums_zero,
)
from toricdual.intlinalg import CircuitForm, imat, integer_kernel, matmul, primitive_vector
from toricdual.oracle import (
    ENUMERATION_GUARD,
    Circuit,
    coparallel_via_circuits,
    crosscheck,
    enumerate_circuits,
    enumerate_flats,
    facial_via_separation,
    random_configuration,
    random_lawrence_block,
    self_dual_via_flats,
    self_dual_via_sigma,
    strong_via_points,
)
from test_configuration import _count_calls, _toricdual_modules
from test_engine import _unimodular
from test_gale import ones_row_lift
from test_intlinalg import fraction_rank, in_row_span, pivot_count

CONIC = parse_configuration([[0, 1, 2]])
TWISTED_CUBIC = parse_configuration([[0, 1, 2, 3]])


def test_circuits_conic():
    circuits = enumerate_circuits(CONIC)
    assert len(circuits) == 1
    assert circuits[0].relation in [(1, -2, 1)]
    assert circuits[0].support == (0, 1, 2)


def test_circuits_affinely_independent_empty():
    assert enumerate_circuits(parse_configuration([[0, 1], [0, 0]])) == []


def test_circuits_segre2_unique():
    circuits = enumerate_circuits(segre(2))
    assert len(circuits) == 1
    assert circuits[0].relation == (1, -1, -1, 1)


def _circuits_by_definition(c):
    """Circuits by their definition: every subset of at most
    ``affine_dim + 2`` points whose affine relations have rank one, with a
    generator nonzero on the whole subset, in the order of subsets by size
    and then lexicographically.  The kernel is ``integer_kernel``; the
    referee computes none."""
    reg = ones_row_lift(c)
    out = []
    for size in range(2, affine_dim(c) + 3):
        for sub in itertools.combinations(range(c.npoints), size):
            k = integer_kernel(reg.weights.select(sub))
            if k.shape[1] != 1 or not all(k.column(0)):
                continue
            rel = [0] * c.npoints
            for j, x in zip(sub, primitive_vector(k.column(0))):
                rel[j] = x
            out.append(Circuit(support=sub, relation=tuple(rel)))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_circuits_match_the_definition(seed):
    rng = random.Random(seed)
    for _ in range(3):
        c = random_configuration(rng, max_points=9)
        assert enumerate_circuits(c) == _circuits_by_definition(c)


@st.composite
def raw_configurations(draw):
    """1-3 rows of 1-6 drawn columns with entries in [-2, 2], then up to
    three more, inserted anywhere: a repeat of a column, or its
    multiple by -1, 2 or 3 (collinear with the origin) or by 0 (the zero
    column); either of the last two puts the points on no affine hyperplane
    off the origin."""
    d = draw(st.integers(1, 3))
    cols = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=d, max_size=d),
            min_size=1,
            max_size=6,
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        col = cols[draw(st.integers(0, len(cols) - 1))]
        k = draw(st.sampled_from([1, 0, -1, 2, 3]))
        cols.insert(draw(st.integers(0, len(cols))), [k * x for x in col])
    return parse_configuration([list(row) for row in zip(*cols)])


@settings(max_examples=60, deadline=None)
@given(raw_configurations())
def test_circuits_of_raw_input_match_the_definition(c):
    assert enumerate_circuits(c) == _circuits_by_definition(c)


def test_circuits_make_no_rank_or_fast_kernel_call(monkeypatch):
    # a dependent candidate's relation is read off its zero residue (so no
    # kernel) and put in canonical form by the referee's own _unit (so no
    # primitive_vector); no circuit basis is written out
    names = ("_bareiss", "basis", "integer_kernel", "primitive_vector")
    for seed in range(4):
        c = random_configuration(random.Random(seed))
        expected = _circuits_by_definition(c)
        _assert_presents_the_draw(c, _replayed_draw(random.Random(seed)))
        counts = _count_calls(monkeypatch, [*_toricdual_modules(), CircuitForm], names)
        assert enumerate_circuits(c) == expected
        assert counts == dict.fromkeys(names, 0)
        monkeypatch.undo()


def test_circuits_guard():
    wide = parse_configuration([list(range(13))])
    with pytest.raises(GuardExceeded):
        enumerate_circuits(wide)


def test_coparallel_via_circuits_matches_gale_side():
    for c in (segre(2), segre(3), family_alpha(1), TWISTED_CUBIC, CONIC):
        assert coparallel_via_circuits(c) == coparallel_classes(gale_dual(c))


def test_coparallel_apex_is_singleton():
    pyramid = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
    classes = coparallel_via_circuits(pyramid)
    assert (3,) in classes


def test_flats_rank_one_dual():
    flats = enumerate_flats(gale_dual(CONIC))
    closures = {f.closure for f in flats}
    assert closures == {(), (0, 1, 2)}


def test_flats_family_alpha_contains_line_classes():
    flats = enumerate_flats(gale_dual(family_alpha(1)))
    closures = {f.closure for f in flats}
    assert {(0, 1, 2), (3, 4), (5, 6)} <= closures
    assert () in closures  # empty generating set -> zero rows


def _flats_by_rank(b):
    """Flats by their definition: the closure of J is every row i with
    rank(rows J + row i) == rank(rows J); the first J, in the order of
    subsets by size and then lexicographically, names each closure.  The
    rank is the pivot count of a Bareiss pass, which the referee never
    runs."""
    rows = b.matrix
    seen = {}
    for size in range(b.npoints + 1):
        for sub in itertools.combinations(range(b.npoints), size):
            base = pivot_count([rows[j] for j in sub])
            closure = tuple(
                i
                for i in range(b.npoints)
                if pivot_count([rows[j] for j in sub] + [rows[i]]) == base
            )
            seen.setdefault(closure, sub)
    return sorted((cl, j) for cl, j in seen.items())


@pytest.mark.parametrize("seed", range(6))
def test_flat_closures_match_the_rank_definition(seed):
    c = random_configuration(random.Random(seed), max_points=8)
    b = gale_dual(c)
    flats = enumerate_flats(b)
    assert [(f.closure, f.generators) for f in flats] == _flats_by_rank(b)


@st.composite
def gale_matrices(draw):
    """1-9 rows of corank 1-4 with entries in [-3, 3]: up to 6 drawn rows,
    then a zero row and up to two rows that repeat another row scaled by
    ±1, ±2 or ±3, inserted anywhere.  The reference makes 2^n (n + 1) rank
    tests, so most draws stay below 9 rows."""
    r = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=r, max_size=r),
            min_size=1,
            max_size=6,
        )
    )
    for _ in range(draw(st.integers(0, 1))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * r)
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
        rows.insert(draw(st.integers(0, len(rows))), [k * x for x in row])
    return GaleDual(matrix=imat(rows))


@settings(max_examples=40, deadline=None)
@given(gale_matrices())
def test_flats_match_the_rank_definition(b):
    flats = enumerate_flats(b)
    assert [(f.closure, f.generators) for f in flats] == _flats_by_rank(b)


def test_flat_closures_include_zero_rows():
    b = gale_dual(parse_configuration([[0, 1, 2, 0], [0, 0, 0, 1]]))
    assert b.zero_rows() == (3,)
    flats = enumerate_flats(b)
    assert [(f.closure, f.generators) for f in flats] == _flats_by_rank(b)
    assert any(f.generators == () and f.closure == (3,) for f in flats)


def test_flats_guard():
    line = [[i, 1] for i in range(12)]
    assert len(enumerate_flats(GaleDual(matrix=imat(line)))) == 14
    with pytest.raises(GuardExceeded):
        enumerate_flats(GaleDual(matrix=imat([*line, [12, 1]])))


def test_flats_share_no_code_with_the_line_sum_test(monkeypatch):
    # every intlinalg routine (its eliminations, ranks, the circuit basis
    # and primitive_vector), and the line classes behind line_sums_zero and
    # coparallel_criterion
    names = [
        name
        for name, f in vars(intlinalg).items()
        if inspect.isfunction(f) and f.__module__ == intlinalg.__name__
    ]
    names += ["basis", "line_partition", "coparallel_classes"]
    assert {"_bareiss", "_echelon", "primitive_vector"} <= set(names)
    b = gale_dual(random_configuration(random.Random(2)))
    expected = bool(line_sums_zero(b).value)
    counts = _count_calls(monkeypatch, [*_toricdual_modules(), CircuitForm], names)
    assert enumerate_flats(b)
    assert self_dual_via_flats(b) == expected
    assert counts == dict.fromkeys(names, 0)


def test_self_dual_via_flats():
    assert self_dual_via_flats(gale_dual(family_alpha(1)))
    assert not self_dual_via_flats(gale_dual(TWISTED_CUBIC))
    assert self_dual_via_flats(gale_dual(CONIC))
    pyramid = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
    with pytest.raises(InapplicableInput):
        self_dual_via_flats(gale_dual(pyramid))


def test_self_dual_via_sigma():
    assert self_dual_via_sigma(ones_row_lift(family_alpha(1)))
    assert not self_dual_via_sigma(ones_row_lift(TWISTED_CUBIC))
    # circuit-free: vacuously self-dual by this test
    assert self_dual_via_sigma(parse_configuration([[1, 0], [0, 1]]))
    # W itself is answered on [1; W]
    assert not self_dual_via_sigma(TWISTED_CUBIC)


def test_sigma_twisted_cubic_witness():
    # sigma of the circuit on {0,1,2} is (0,0,0,1), which is not in the row span
    reg = ones_row_lift(TWISTED_CUBIC)
    assert not in_row_span(reg.weights, [0, 0, 0, 1])


def _agreement_corpus():
    """Ten crosscheck draws for each seed 0-9, Segre 2-6, family_alpha(1..3)
    and 20 Lawrence lifts."""
    corpus = []
    for seed in range(10):
        rng = random.Random(seed)
        corpus += [random_configuration(rng) for _ in range(10)]
    corpus += [segre(m) for m in range(2, 7)] + [family_alpha(a) for a in (1, 2, 3)]
    rng = random.Random(0)
    return corpus + [lawrence(random_lawrence_block(rng)) for _ in range(20)]


def _sigma_by_definition(c) -> bool:
    """Every zero-set vector of a circuit leaves the Fraction rank of the
    weights as it is."""
    base = fraction_rank(c.weights)
    return all(
        fraction_rank([*c.weights, [0 if x else 1 for x in circ.relation]]) == base
        for circ in enumerate_circuits(c)
    )


def test_referees_answer_their_definitions():
    # the definitions from the full lists: every flat sums to zero, and
    # every zero-set vector leaves the Fraction rank of the weights as it is
    self_dual = 0
    for c in _agreement_corpus():
        b, reg = gale_dual(c), ones_row_lift(c)
        flats = all(
            not any(map(sum, zip(*(b.matrix[i] for i in f.closure)))) for f in enumerate_flats(b)
        )
        assert self_dual_via_flats(b) == flats
        assert self_dual_via_sigma(reg) == _sigma_by_definition(reg)
        self_dual += flats
    assert self_dual >= 20


@st.composite
def _regular_large_weights(draw):
    """d + 1 rows of n <= 8 columns, entries small or up to 10^30, whose sum
    is the ones row (so the ones row is in their span), then one row plus a
    multiple, up to 10^30, of another (the row span is kept)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=d, max_size=d))
    rows.append([1 - sum(col) for col in zip(*rows)])
    i, j = draw(st.integers(0, d)), draw(st.integers(0, d))
    if i != j:
        f = draw(st.integers(-(10**30), 10**30))
        rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=60, deadline=None)
@given(_regular_large_weights(), st.integers(0, 2**32))
# Segre(2) and family_alpha(1), both self-dual, after a row operation by 10^30
@example([[1, 0, 1, 0], [0, 1, 0, 1], [10**30, 10**30, 10**30 + 1, 10**30 + 1]], 0)
@example(
    [*family_alpha(1).weights[:4], [10**30 + x for x in family_alpha(1).weights[4]]], 1
)
def test_sigma_is_its_definition_at_large_entries(rows, seed):
    c = parse_configuration(rows)
    assert in_row_span(c.weights, [1] * c.npoints) and c.npoints <= ENUMERATION_GUARD
    expected = _sigma_by_definition(c)
    assert self_dual_via_sigma(c) == expected
    # U·W has the row span of W, for any unimodular U
    u = _unimodular(random.Random(seed), c.dim)
    assert self_dual_via_sigma(parse_configuration(matmul(u, c.weights))) == expected


def test_referees_stop_at_the_first_counterexample(monkeypatch):
    # the first draw of seed 0 that is not self-dual, and has more than one circuit
    rng = random.Random(0)
    draw = next(
        c
        for c in iter(lambda: random_configuration(rng), None)
        if not is_self_dual(c).value and len(enumerate_circuits(c)) > 1
    )
    for c in (ones_row_lift(TWISTED_CUBIC), draw):
        ncircuits = len(enumerate_circuits(c))
        drawn = 0

        def counting(c, _circuits=oracle._circuits):
            nonlocal drawn
            for circ in _circuits(c):
                drawn += 1
                yield circ

        monkeypatch.setattr(oracle, "_circuits", counting)
        counts = _count_calls(monkeypatch, [oracle], ("_lex_first_basis",))
        assert not self_dual_via_sigma(c)
        assert not self_dual_via_flats(gale_dual(c))
        # sigma stops at the first circuit whose zero-set vector fails
        assert 1 <= drawn < ncircuits
        assert counts["_lex_first_basis"] == 0
        monkeypatch.undo()
    counts = _count_calls(monkeypatch, [oracle], ("_lex_first_basis",))
    assert self_dual_via_flats(gale_dual(segre(4)))
    assert counts == {"_lex_first_basis": 0}


def test_strong_via_points_examples():
    assert strong_via_points(segre(2))
    assert strong_via_points(segre(3))
    # conic variant with dual column (-2, 1, 1): 4 s^2 != s^2
    c = parse_configuration([[1, 1, 1], [0, 1, -1]])
    assert not strong_via_points(c)
    # non-regular: the unit square is P^1 x P^1, and 0, 1, 3 gives 2^2 != 3^3
    assert strong_via_points(parse_configuration([[0, 1, 0, 1], [0, 0, 1, 1]]))
    assert not strong_via_points(parse_configuration([[0, 1, 3]]))


def test_facial_via_separation_matches_gale_test():
    import itertools

    for c in (CONIC, segre(2), parse_configuration([[0, 1, 2, 5], [0, 0, 1, 0]])):
        for size in range(1, c.npoints + 1):
            for sub in itertools.combinations(range(c.npoints), size):
                assert facial_via_separation(c, sub) == is_facial(c, sub).value, sub


@pytest.mark.parametrize("subset", [[], [3], [-1], [0, 3]])
def test_facial_via_separation_refuses_bad_subsets(subset):
    with pytest.raises(ValueError):
        facial_via_separation(CONIC, subset)


def _replayed_draw(rng, max_points=8):
    """The draw ``random_configuration(rng, max_points)`` keeps, found by
    replaying its rejection sampling with the default filters on the
    saturated Gale dual, as the benchmark's ``oracle_instance`` does."""
    while True:
        d = rng.randint(1, min(4, max_points - 1))
        n = rng.randint(max(2, d + 1), max_points)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        c = parse_configuration(rows)
        if len(set(c.columns())) != n:
            continue
        b = gale_dual(c)
        if b.corank and not b.zero_rows():
            return rows


def _assert_presents_the_draw(c, draw):
    """``c`` is the draw W as ``random_configuration`` returns it:
    rank([1; W]) independent rows taken from [1; W], the first all ones,
    with the canonical Gale dual of W itself."""
    ones_on_top = [[1] * len(draw[0]), *draw]
    assert c.weights[0] == (1,) * c.npoints
    assert c.dim == fraction_rank(c.weights) == fraction_rank(ones_on_top)
    assert all(list(row) in ones_on_top for row in c.weights)
    assert gale_dual(c).matrix == gale_dual(parse_configuration(draw)).matrix


def test_random_configuration_presents_the_replayed_draw():
    for seed in range(40):
        draw = _replayed_draw(random.Random(seed))
        _assert_presents_the_draw(random_configuration(random.Random(seed)), draw)
        # a crosscheck report's dim is rank([1; W]) of the draw
        (entry,) = crosscheck(seed, 1)["results"]
        n = len(draw[0])
        assert (entry["points"], entry["dim"]) == (n, fraction_rank([[1] * n, *draw]))


def test_random_configuration_filters():
    rng, replay = random.Random(7), random.Random(7)
    for _ in range(10):
        c = random_configuration(rng)
        assert len(set(c.columns())) == c.npoints
        assert not gale_dual(c).zero_rows()
        _assert_presents_the_draw(c, _replayed_draw(replay))


@pytest.mark.parametrize("max_points", [*range(1, 10), 4.0, 3.5, True])
def test_random_configuration_at_every_max_points(max_points):
    # two distinct points have no relation, and one point is refused too,
    # as is a bool or a float; a refusal comes before any draw
    for seed in range(50):
        rng = random.Random(seed)
        if type(max_points) is not int or max_points < 3:
            message = "at least 3" if type(max_points) is int else "integer max_points"
            with pytest.raises(ValueError, match=message):
                random_configuration(rng, max_points)
            assert rng.random() == random.Random(seed).random()
            continue
        c = random_configuration(rng, max_points)
        _assert_presents_the_draw(c, _replayed_draw(random.Random(seed), max_points))
        assert c.npoints <= max_points
        assert len(set(c.columns())) == c.npoints
        b = gale_dual(c)
        assert b.corank and not b.zero_rows()


def test_random_configuration_deterministic():
    a = random_configuration(random.Random(123)).weights.tolist()
    b = random_configuration(random.Random(123)).weights.tolist()
    assert a == b


def test_crosscheck_small_run():
    report = crosscheck(seed=5, count=8)
    assert report["count"] == 8
    assert report["disagreements"] == []


def test_crosscheck_reports_a_disagreeing_referee(monkeypatch):
    sigma = oracle.self_dual_via_sigma
    monkeypatch.setattr(oracle, "self_dual_via_sigma", lambda c: not sigma(c))
    report = crosscheck(seed=5, count=3)
    assert report["disagreements"] == report["results"]
    for entry in report["disagreements"]:
        answers = entry["answers"]
        assert not entry["agree"]
        assert answers["sigma"] != answers["line_sums_zero"] == answers["flats"]


class _LowestDraws(random.Random):
    """A generator whose ``randint`` always returns its lower bound."""

    def randint(self, a, b):
        return a


@pytest.mark.parametrize("generator", [random_configuration, random_lawrence_block])
def test_generators_raise_when_every_draw_is_rejected(generator):
    # the lowest draw is a repeated point, or a 1 x 1 block with no
    # relation, every time
    with pytest.raises(RuntimeError, match="rejection sampling starved"):
        generator(_LowestDraws())


def test_crosscheck_refuses_a_negative_count():
    with pytest.raises(ValueError, match="at least 0"):
        crosscheck(seed=5, count=-1)
    empty = crosscheck(seed=5, count=0)
    assert (empty["count"], empty["results"], empty["disagreements"]) == (0, [], [])
    # a bool or a float is refused, not run as one draw or left to a TypeError
    for count in (True, 2.5, 2.0):
        with pytest.raises(ValueError, match=f"crosscheck requires an integer count, got {count}$"):
            crosscheck(seed=5, count=count)


def test_pyramidal_refusals_name_the_zero_rows():
    from toricdual.engine import is_strongly_self_dual
    from toricdual.gale import coparallel_criterion

    pyramid = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
    # a simplex has no relations: every row of its Gale dual is zero
    simplex = parse_configuration([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    for c, zero_rows in ((pyramid, r"\[3\]"), (simplex, r"\[0, 1, 2\]")):
        b = gale_dual(c)
        for refuse in (
            lambda: line_sums_zero(b),
            lambda: coparallel_criterion(c),
            lambda: self_dual_via_flats(b),
            lambda: strong_via_points(c),
            lambda: is_strongly_self_dual(c),
        ):
            with pytest.raises(InapplicableInput, match="zero Gale rows at " + zero_rows):
                refuse()
