import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricdual.configuration import (
    affine_dim,
    affine_relation_kernel,
    column_indices,
    dedup,
    parse_configuration,
)
from toricdual.engine import (
    HypersurfaceClass,
    _decompose,
    full_decomposition,
    hypersurface_class,
    is_segre,
    is_self_dual,
    is_strongly_self_dual,
    lawrence_strong_parity,
    smooth_certificate,
)
from toricdual.families import config_from_gale, family_alpha, segre
from toricdual.gale import (
    GaleDual,
    coparallel_criterion,
    gale_dual,
    is_facial,
    line_partition,
    verify_gale_dual,
)
from toricdual.intlinalg import CircuitForm, eye, imat, lattice_basis
from test_engine import STRONG_7x9, _unimodular
from test_gale import _digits_3900, column_lattices_equal, ones_row_lift
from test_intlinalg import fraction_rank, product

SEGRE2 = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]


def test_parse_rejects_empty():
    with pytest.raises(ValueError):
        parse_configuration([])


def test_missing_points_example_spans_its_lattice():
    c = parse_configuration(
        [
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
            [2, 0, 0, 2, 0, 1],
        ]
    )
    assert lattice_basis(c.weights.T, c.dim) == eye(4).tolist()
    assert affine_dim(c) == 3


def test_a_configuration_needs_a_point():
    for rows in ([[]], [[], []]):
        with pytest.raises(ValueError, match="at least one point"):
            parse_configuration(rows)
    c = parse_configuration([[1, 2]])
    with pytest.raises(ValueError):
        column_indices(c, [])


def test_dedup_counts():
    c = parse_configuration([[1, 1]])
    rep = dedup(c)
    assert rep.distinct.npoints == 1
    assert rep.multiplicity == (2,)
    assert rep.repeat_codim == 1

    c = parse_configuration([[1, 2, 3]])
    assert dedup(c).repeat_codim == 0

    c = parse_configuration([[5, 5, 7, 7, 7]])
    rep = dedup(c)
    assert rep.multiplicity == (2, 3)
    assert rep.repeat_codim == 3
    assert rep.index_map == (0, 0, 1, 1, 1)


def test_affine_dim():
    assert affine_dim(parse_configuration([[3]])) == 0
    # rank of the translated matrix: 4 distinct directions in the prism
    segre3 = parse_configuration(
        [
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1],
            [0, 0, 0, 1, 1, 1],
        ]
    )
    assert affine_dim(segre3) == 3
    assert affine_dim(parse_configuration(SEGRE2)) == 2


def test_affine_dim_is_rank_of_ones_row_lift_minus_one():
    c = parse_configuration([[0, 1, 2, 5], [0, 0, 0, 1]])
    assert affine_dim(c) == fraction_rank(ones_row_lift(c).weights) - 1


def test_pyramid_decompose_cone_over_conic():
    c = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
    rep = full_decomposition(c)
    assert rep.apex_indices == (3,)
    assert rep.core_indices == (0, 1, 2)
    assert rep.join_shape == (0, 1, 3)
    k = affine_relation_kernel(c)
    assert k.shape == (4, 1)


def test_pyramid_decompose_non_pyramidal():
    rep = full_decomposition(parse_configuration(SEGRE2))
    assert rep.apex_indices == ()
    assert rep.join_shape == (0, 0, 4)


def test_pyramid_decompose_identity_all_apex():
    rep = full_decomposition(parse_configuration(eye(3)))
    assert rep.apex_indices == (0, 1, 2)
    assert rep.core_indices == ()


def test_pyramid_splitting_fails_off_the_spanned_lattice():
    # two independent points whose lattice has index 2 in the ambient plane
    # are both apexes: no lattice normalization is needed to find them
    c = parse_configuration([[1, 1], [0, 2]])
    assert full_decomposition(c).apex_indices == (0, 1)


conf_matrices = st.integers(1, 3).flatmap(
    lambda d: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=d,
            max_size=d,
        )
    )
)


def _other_presentation(c, seed):
    """``[1; U W]`` for a random unimodular U: other columns with the
    relations of ``c``, and the same repeats."""
    u = _unimodular(random.Random(seed), c.dim)
    return ones_row_lift(parse_configuration(product(u, c.weights)))


def _apexes_by_rank(c):
    """The distinct columns of ``c`` whose removal lowers rank([1; W]): the
    points that lie in no affine relation."""
    distinct = dedup(c).distinct
    ones_on_top = [[1] * distinct.npoints, *distinct.weights]
    full = fraction_rank(ones_on_top)
    return tuple(
        i
        for i in range(distinct.npoints)
        if fraction_rank([row[:i] + row[i + 1 :] for row in ones_on_top]) < full
    )


seeds = st.integers(0, 2**16)


@settings(max_examples=100, deadline=None)
@given(conf_matrices, seeds)
def test_other_presentation_preserves_relations_and_affine_dim(rows, seed):
    c = parse_configuration(rows)
    red = _other_presentation(c, seed)
    assert column_lattices_equal(affine_relation_kernel(c), affine_relation_kernel(red))
    assert affine_dim(c) == affine_dim(red)


@settings(max_examples=100, deadline=None)
@given(conf_matrices, seeds)
def test_dedup_then_decompose_partitions(rows, seed):
    c = _other_presentation(parse_configuration(rows), seed)
    rep = dedup(c)
    dec = full_decomposition(c)
    assert sorted(dec.apex_indices + dec.core_indices) == list(
        range(rep.distinct.npoints)
    )
    assert dec.apex_indices == _apexes_by_rank(c)


@settings(max_examples=100, deadline=None)
@given(conf_matrices, seeds)
def test_non_pyramidal_iff_full_support_relation(rows, seed):
    # a configuration has no apexes iff some affine relation has full support
    c = _other_presentation(parse_configuration(rows), seed)
    rep = dedup(c)
    kernel = affine_relation_kernel(rep.distinct)
    dec = full_decomposition(c)
    # generic combination of kernel columns: support = rows that are not all zero
    nonzero_rows = {
        i
        for i in range(kernel.shape[0])
        if kernel.shape[1] and any(x != 0 for x in kernel[i])
    }
    assert set(dec.core_indices) == nonzero_rows


def _same_rational_column_space(b, canonical):
    """Equal ranks of ``b``, ``canonical`` and the two side by side."""
    assert b.shape == canonical.shape
    both = [row + other for row, other in zip(b, canonical)]
    assert fraction_rank(b) == fraction_rank(canonical) == fraction_rank(both) == b.shape[1]


@settings(max_examples=100, deadline=None)
@given(conf_matrices)
def test_core_gale_rows_are_the_core_gale_dual(rows):
    try:
        c = parse_configuration(rows)
        part, dec = _decompose(c)
    except ValueError:
        return
    distinct = dedup(c).distinct
    b = GaleDual(matrix=distinct.circuit_basis)
    part = part.written()[0]
    assert part == line_partition(b)
    canonical = gale_dual(distinct)
    _same_rational_column_space(b.matrix, canonical.matrix)
    assert part.zero_rows == b.zero_rows() == canonical.zero_rows() == dec.apex_indices
    assume(dec.core_indices)
    core = parse_configuration(distinct.weights.select(dec.core_indices))
    core_rows = imat([b.matrix[i] for i in dec.core_indices])
    # apexes lie in no circuit, so dropping them keeps every circuit and
    # the lex-first basis of the rest: the same columns, even unscaled
    assert core_rows == core.circuit_basis
    _same_rational_column_space(core_rows, gale_dual(core).matrix)
    # so the core's classes are the distinct ones renumbered to core positions
    at = {i: t for t, i in enumerate(dec.core_indices)}
    renumbered = [(cls.direction, [at[i] for i in cls.members], cls.total) for cls in part.classes]
    core_part = line_partition(GaleDual(matrix=core_rows))
    assert [(cls.direction, list(cls.members), cls.total) for cls in core_part.classes] == renumbered
    assert core_part.zero_rows == ()


@settings(max_examples=150, deadline=None)
@given(conf_matrices, st.integers(2, 3), seeds)
def test_decompose_matches_the_reduce_first_pipeline(rows, scale, seed):
    # a scaled first row, the first column repeated, and an apex on a new
    # coordinate
    rows = [[scale * x for x in rows[0]]] + rows[1:]
    rows = [r + r[:1] + [0] for r in rows]
    c = parse_configuration(rows + [[0] * (len(rows[0]) - 1) + [1]])
    part, dec = _decompose(c)
    b = GaleDual(matrix=dedup(c).distinct.circuit_basis)
    assert part.written()[0] == line_partition(b)
    # a pipeline that changes the presentation first, and apexes by their
    # rank definition, written out
    rep = dedup(_other_presentation(c, seed))
    apexes = _apexes_by_rank(c)
    _same_rational_column_space(b.matrix, gale_dual(rep.distinct).matrix)
    # the circuits depend on the relations only, not on the presentation
    assert b.matrix == rep.distinct.circuit_basis
    assert dec.apex_indices == apexes == _apexes_by_rank(rep.distinct)
    assert dec.core_indices == tuple(i for i in range(rep.distinct.npoints) if i not in apexes)
    assert dec.repeat_codim == rep.repeat_codim
    assert dec.join_shape == (rep.repeat_codim, len(apexes), rep.distinct.npoints - len(apexes))


@settings(max_examples=100, deadline=None)
@given(conf_matrices, st.integers(1, 3), seeds)
def test_smooth_certificate_runs_on_the_input_columns(rows, scale, seed):
    # a scaled row moves the columns onto a sublattice of their span
    c = parse_configuration([[scale * x for x in rows[0]]] + rows[1:])
    assume(len(set(c.columns())) == c.npoints)
    v = smooth_certificate(c)
    ref = smooth_certificate(_other_presentation(c, seed))
    assert v.value == ref.value
    keys = ("vertex", "edge_count", "needed", "basis_of_difference_lattice")
    assert [[e.get(k) for k in keys] for e in v.witness["vertices"]] == [
        [e.get(k) for k in keys] for e in ref.witness["vertices"]
    ]
    cols = c.columns()
    for entry in v.witness["vertices"]:
        base = cols[entry["vertex"]]
        differences = [[x - y for x, y in zip(col, base)] for col in cols]
        for vec in entry.get("edge_vectors", []):
            assert vec in differences


@settings(max_examples=100, deadline=None)
@given(conf_matrices, st.booleans())
def test_dedup_hands_on_the_recomputed_circuit_form_and_relations(rows, flags_known):
    c = parse_configuration([r + r[:1] for r in rows])  # one repeated column
    if flags_known:  # computed before the reduction runs
        _ = c.circuit_form
    d = dedup(c).distinct
    fresh = parse_configuration(d.weights)
    assert d.circuit_form == fresh.circuit_form and d.relations == fresh.relations


def _count_calls(monkeypatch, modules, names):
    """Count calls to ``names`` made through any of ``modules``' bindings
    (a class among them has its methods counted)."""
    counts = dict.fromkeys(names, 0)
    for module in modules:
        for name in names:
            if not hasattr(module, name):
                continue
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return counts


def _toricdual_modules():
    return [m for k, m in sorted(sys.modules.items()) if k.startswith("toricdual")]


@pytest.mark.parametrize("doubled_row", [False, True])
def test_self_dual_computes_each_invariant_once(monkeypatch, doubled_row):
    rng = random.Random(8)
    rows = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(5)]
    if doubled_row:
        rows[0] = [2 * x for x in rows[0]]
    dec = full_decomposition(parse_configuration(rows))
    assert dec.repeat_codim == 0
    assert not dec.apex_indices
    kernels = ("affine_relation_kernel", "integer_kernel", "basis")
    # one Gauss-Jordan pass, and the circuit basis is never written out
    passes = ("circuit_form", "_bareiss")
    for decide in (is_self_dual, full_decomposition):
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, [*_toricdual_modules(), CircuitForm], kernels + passes)
            decide(parse_configuration(rows))
        assert counts == {
            "affine_relation_kernel": 0,
            "integer_kernel": 0,
            "basis": 0,
            "circuit_form": 1,
            "_bareiss": 1,
        }
    # the readers of one configuration share its one elimination; the only
    # other passes are coparallel_criterion's functionals, one per line
    # class it solves (the random rows fail at their first class)
    for c in (parse_configuration(rows), segre(3)):
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, _toricdual_modules(), ("circuit_form",))
            is_self_dual(c)
            full_decomposition(c)
            v = coparallel_criterion(c)
        solved = len(v.witness["classes"]) if v.value else 1
        assert v.value or v.witness["members"] == [0]
        assert counts == {"circuit_form": 1 + solved}


def test_strong_reads_the_shared_circuit_form(monkeypatch):
    rng = random.Random(24)
    rows = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(5)]
    rows = [[1 - sum(col) for col in zip(*rows)], *rows]  # regular
    names = ("integer_kernel", "gale_dual", "affine_relation_kernel", "circuit_form")
    counts = _count_calls(monkeypatch, _toricdual_modules(), names)
    # a fresh copy: another test may have cached the shared instance's form
    strong = parse_configuration(STRONG_7x9.weights)
    for c in (parse_configuration(rows), segre(4), strong, family_alpha(3)):
        is_strongly_self_dual(c)
    assert counts == {
        "integer_kernel": 0,
        "gale_dual": 0,
        "affine_relation_kernel": 0,
        "circuit_form": 4,
    }
    # the self-dual verdict and the strong one share one elimination of the
    # configuration
    c = parse_configuration(rows)
    is_self_dual(c)
    is_strongly_self_dual(c)
    assert counts["circuit_form"] == 5


def test_gale_dual_runs_one_bareiss_pass_and_no_echelon(monkeypatch):
    rng = random.Random(11)
    rows = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(5)]
    c = parse_configuration(rows)
    counts = _count_calls(monkeypatch, _toricdual_modules(), ("_bareiss", "_echelon"))
    assert gale_dual(c).corank == 14 - 6
    assert counts == {"_bareiss": 1, "_echelon": 0}


# each public predicate as called on a fresh configuration c, then its
# (_bareiss, _echelon) calls on segre(4) and on a regular random 6 x 14
# draw.  b is the Gale matrix of another configuration with the same
# weights, so verify_gale_dual runs cold (its pass is c's circuit form,
# its two echelons the Hermite basis of b's columns, read for their rank
# and saturation); the parity test takes c's weights as the block of a
# Lawrence lift.  coparallel_criterion adds one pass per line class it
# solves (4 on segre(4); the draw fails its first), smooth_certificate one
# per vertex it reaches (8 on segre(4), 1 on the draw) after the Gale
# kernel of its LPs
ELIMINATIONS = {
    "is_self_dual": (lambda c, b: is_self_dual(c), (1, 0), (1, 0)),
    "is_strongly_self_dual": (lambda c, b: is_strongly_self_dual(c), (1, 0), (1, 0)),
    "coparallel_criterion": (lambda c, b: coparallel_criterion(c), (5, 0), (2, 0)),
    "is_facial": (lambda c, b: is_facial(c, (0,)), (1, 0), (1, 0)),
    "smooth_certificate": (lambda c, b: smooth_certificate(c), (9, 0), (2, 0)),
    "is_segre": (lambda c, b: is_segre(c), (2, 0), (1, 0)),
    "hypersurface_class": (lambda c, b: hypersurface_class(c), (1, 0), (1, 0)),
    "full_decomposition": (lambda c, b: full_decomposition(c), (1, 0), (1, 0)),
    "gale_dual": (lambda c, b: gale_dual(c), (1, 0), (1, 0)),
    "verify_gale_dual": (lambda c, b: verify_gale_dual(c, b), (1, 2), (1, 2)),
    "lawrence_strong_parity": (lambda c, b: lawrence_strong_parity(c.weights), (1, 0), (1, 0)),
}


def _regular_draw():
    rng = random.Random(8)
    rows = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(5)]
    return [[1 - sum(col) for col in zip(*rows)], *rows]


@pytest.mark.parametrize("name", list(ELIMINATIONS))
def test_eliminations_per_public_predicate(monkeypatch, name):
    predicate, *expected = ELIMINATIONS[name]
    counted = []
    for weights in (segre(4).weights, _regular_draw()):
        b = gale_dual(parse_configuration(weights)).matrix
        c = parse_configuration(weights)
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, _toricdual_modules(), ("_bareiss", "_echelon"))
            predicate(c, b)
        counted.append((counts["_bareiss"], counts["_echelon"]))
    assert counted == expected


def test_verify_gale_dual_reads_the_corank_off_the_cached_form(monkeypatch):
    rng = random.Random(12)
    c = parse_configuration([[rng.randint(-3, 3) for _ in range(14)] for _ in range(5)])
    b = gale_dual(c).matrix
    is_self_dual(c)
    counts = _count_calls(monkeypatch, _toricdual_modules(), ("_bareiss",))
    assert verify_gale_dual(c, b)
    assert counts == {"_bareiss": 0}  # b's rank is the length of its Hermite basis


def test_affine_dim_computes_no_gale_kernel(monkeypatch):
    rng = random.Random(10)
    rows = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(5)]
    kernels = ("affine_relation_kernel", "integer_kernel")
    counts = _count_calls(monkeypatch, _toricdual_modules(), kernels)
    assert affine_dim(parse_configuration(rows)) == 5
    assert counts == dict.fromkeys(kernels, 0)
    # 14 points in dimension 5 are no hypersurface: no Gale dual is needed
    assert hypersurface_class(parse_configuration(rows)).value == "not_hypersurface"
    assert counts == dict.fromkeys(kernels, 0)


def _hypersurface(seed):
    """A random repeat-free 5 x 7 configuration with one affine relation."""
    rng = random.Random(seed)
    while True:
        c = parse_configuration([[rng.randint(-3, 3) for _ in range(7)] for _ in range(5)])
        if len(set(c.columns())) == 7 and fraction_rank([[1] * 7, *c.weights]) == 6:
            return c


def test_hypersurface_class_runs_one_elimination(monkeypatch):
    counts = _count_calls(monkeypatch, _toricdual_modules(), ("_bareiss",))
    for c in (_hypersurface(14), segre(2), parse_configuration([[0, 1, 2]])):
        before = counts["_bareiss"]
        assert hypersurface_class(c) != HypersurfaceClass.NOT_HYPERSURFACE
        assert counts["_bareiss"] == before + 1


def test_affine_dim_and_the_verdicts_share_one_circuit_form(monkeypatch):
    c = _hypersurface(15)
    counts = _count_calls(monkeypatch, _toricdual_modules(), ("circuit_form", "_bareiss"))
    assert affine_dim(c) == 5
    is_self_dual(c)
    hypersurface_class(c)
    assert counts == {"circuit_form": 1, "_bareiss": 1}


def test_repr_runs_no_elimination(monkeypatch):
    rng = random.Random(16)
    rows = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(5)]
    counts = _count_calls(monkeypatch, _toricdual_modules(), ("circuit_form", "_bareiss"))
    c = parse_configuration(rows)
    assert repr(c) == "Configuration(5x14)"
    assert repr(dedup(c)).startswith("DedupReport(distinct=Configuration(5x14), ")
    assert counts == {"circuit_form": 0, "_bareiss": 0}


def test_rational_questions_compute_no_hermite_kernel(monkeypatch):
    counts = _count_calls(monkeypatch, _toricdual_modules(), ("integer_kernel",))
    assert coparallel_criterion(family_alpha(2)).value
    assert not coparallel_criterion(parse_configuration([[1, 2, 3, 5]])).value
    assert hypersurface_class(segre(2)).value == "segre_quadric"
    assert hypersurface_class(parse_configuration([[0, 1, 2]])).value == "conic"
    assert lawrence_strong_parity([[1, 1]]).value
    assert not lawrence_strong_parity([[1, 1, 0], [0, 1, 1]]).value
    assert counts == {"integer_kernel": 0}


def test_is_segre_computes_no_saturated_kernel(monkeypatch):
    counts = _count_calls(monkeypatch, _toricdual_modules(), ("integer_kernel",))
    assert is_segre(parse_configuration(_digits_3900(3, 6))) is None
    assert is_segre(family_alpha(1)) is None
    assert is_segre(segre(3)) == 3
    assert is_segre(segre(4)) == 4
    assert counts == {"integer_kernel": 0}


def test_gale_dual_checks_compute_no_second_kernel(monkeypatch):
    rng = random.Random(12)
    rows = [[rng.randint(-3, 3) for _ in range(9)] for _ in range(3)]
    b = gale_dual(parse_configuration(rows)).matrix
    counts = _count_calls(monkeypatch, _toricdual_modules(), ("integer_kernel",))
    # a fresh configuration: its Gale kernel is not cached yet
    assert verify_gale_dual(parse_configuration(rows), b)
    assert counts == {"integer_kernel": 0}
    # the construction's own kernel, and no second one to check it
    c = config_from_gale(b)
    assert counts == {"integer_kernel": 1}
    assert c.relations == b


def test_cached_invariants_are_read_only():
    c = parse_configuration(SEGRE2)
    assert c.relations.tolist() == [[1], [-1], [-1], [1]]
    for name in ("relations", "circuit_form", "circuit_basis"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
