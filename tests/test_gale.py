import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricdual.configuration import parse_configuration, regularize
from toricdual.exceptions import InapplicableInput
from toricdual.families import family_alpha, family_alpha_gale, segre
from toricdual.gale import (
    GaleDual,
    LineClass,
    LinePartition,
    _circuit_partition,
    coparallel_classes,
    coparallel_criterion,
    gale_dual,
    is_facial,
    is_parallel_face_complement,
    line_partition,
    line_sums_zero,
    verify_gale_dual,
)
from toricdual.intlinalg import (
    circuit_form,
    imat,
    lattice_basis,
    primitive_vector,
)
from toricdual.oracle import facial_via_separation

TWISTED_CUBIC = parse_configuration([[0, 1, 2, 3]])
CONIC = parse_configuration([[0, 1, 2]])


def column_lattices_equal(a, b) -> bool:
    """Whether two integer matrices generate the same column lattice: the
    tests' reference for lattice equality."""
    a, b = imat(a), imat(b)
    if len(a) != len(b):
        return False
    return lattice_basis(a.T, len(a)) == lattice_basis(b.T, len(b))


def test_gale_dual_segre2_single_column():
    b = gale_dual(segre(2))
    assert b.matrix.shape == (4, 1)
    assert primitive_vector(b.matrix.column(0)) in [(1, -1, -1, 1)]


def test_gale_dual_family_alpha_matches_companion():
    for a in (1, 2, 3, -2):
        c = family_alpha(a)
        b = gale_dual(c)
        assert column_lattices_equal(b.matrix, family_alpha_gale(a))


def test_gale_dual_of_simplex_is_empty():
    c = parse_configuration([[1, 0], [0, 1]])
    assert gale_dual(c).matrix.shape == (2, 0)


def test_a_corank_zero_gale_dual_has_no_columns():
    # n x 0 matrices are legitimate input: the Gale dual of a simplex
    c = parse_configuration([[1, 0], [0, 1]])
    assert verify_gale_dual(c, [[], []])
    assert verify_gale_dual(c, imat([[], []]))
    assert gale_dual(c).matrix == imat([[], []])
    assert not verify_gale_dual(c, [[1], [-1]])


def test_gale_rows_sum_to_zero():
    for c in (segre(3), family_alpha(2), TWISTED_CUBIC):
        b = gale_dual(c)
        total = [sum(b.row(i)[j] for i in range(b.npoints)) for j in range(b.corank)]
        assert all(x == 0 for x in total)


def test_gale_corank_is_points_minus_one_minus_dim():
    from toricdual.configuration import affine_dim

    for c in (segre(2), segre(4), family_alpha(1), TWISTED_CUBIC, CONIC):
        assert gale_dual(c).corank == c.npoints - 1 - affine_dim(c)


def test_verify_gale_dual():
    c = family_alpha(1)
    assert verify_gale_dual(c, family_alpha_gale(1))
    g = gale_dual(c).matrix
    # doubling gives an index-2 sublattice: not saturated
    assert not verify_gale_dual(c, [[2 * x for x in row] for row in g])
    # swapping basis columns is still a basis
    assert verify_gale_dual(c, g.select([1, 0]))
    with pytest.raises(ValueError):
        verify_gale_dual(c, imat([[1, 0]]))


def test_line_partition_family_alpha():
    part = line_partition(gale_dual(family_alpha(1)))
    groups = {cls.members: cls for cls in part.classes}
    assert set(groups) == {(0, 1, 2), (3, 4), (5, 6)}
    assert all(all(x == 0 for x in cls.total) for cls in part.classes)
    assert part.zero_rows == ()


def test_line_partition_all_rows_equal():
    from toricdual.gale import GaleDual

    dual = GaleDual(matrix=imat([[2, 0], [2, 0], [2, 0]]))
    part = line_partition(dual)
    assert len(part.classes) == 1
    assert part.classes[0].total == (6, 0)


def test_line_partition_strongly_selfdual_example():
    from toricdual.gale import GaleDual

    rows = [
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
    part = line_partition(GaleDual(matrix=imat(rows)))
    groups = {cls.members for cls in part.classes}
    assert groups == {(0, 1, 4), (2, 5, 7), (3, 6, 8)}
    assert all(all(x == 0 for x in cls.total) for cls in part.classes)


def _partition_by_matrix(a):
    """The line partition of the fundamental-circuit basis of ``a``, written
    out: the reference for the partition read off the Gauss-Jordan form."""
    return line_partition(GaleDual(matrix=circuit_form(a).basis()))


def _assert_multiples(a, part, multiples):
    """Each class's multiples give its rows of the written-out circuit
    basis as multiples of its direction."""
    rows = circuit_form(a).basis()
    assert len(multiples) == len(part.classes)
    for cls, lams in zip(part.classes, multiples):
        assert [rows[i] for i in cls.members] == [
            tuple(lam * x for x in cls.direction) for lam in lams
        ]


def _seeded_matrix(rng):
    """A random matrix, as ``[1; W]`` or raw, with repeated and zero
    columns, apexes, dependent rows or entries past 10^30 mixed in."""
    d, n = rng.randint(1, 4), rng.randint(1, 9)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
    for _ in range(rng.randint(0, 2)):
        j = rng.randrange(len(rows[0]))
        for row in rows:
            row.append(row[j] if rng.random() < 0.7 else 0)
    if rng.random() < 0.3:  # an apex: a point on a coordinate of its own
        rows = [row + [0] for row in rows] + [[0] * len(rows[0]) + [1]]
    if rng.random() < 0.3:
        rows.append([x + 2 * y for x, y in zip(rows[0], rows[-1])])
    if rng.random() < 0.15:
        rows = [[x * 10**30 + rng.randint(-2, 2) for x in row] for row in rows]
    return [[1] * len(rows[0]), *rows] if rng.random() < 0.8 else rows


def test_circuit_partition_matches_the_written_out_basis_on_seeded_draws():
    rng = random.Random(20)
    seen = set()
    for _ in range(800):
        a = _seeded_matrix(rng)
        form = circuit_form(a)
        part, multiples = _circuit_partition(form)
        assert part == _partition_by_matrix(a)
        _assert_multiples(a, part, multiples)
        seen |= {
            ("negative pivot", form.pivot < 0),
            ("corank 0", not form.free),
            ("apex", bool(part.zero_rows)),
            # a pivot row on a free point's axis
            ("axis merge", any(1 in cls.direction and sum(map(abs, cls.direction)) == 1
                               and len(cls.members) > 1 for cls in part.classes)),
            ("pivot row off the axes", any(sum(map(bool, cls.direction)) > 1
                                           for cls in part.classes)),
            ("past 10^30", max(abs(x) for row in a for x in row) > 10**30),
            ("regular", a[0] == [1] * len(a[0])),
        }
    assert {(what, True) for what, _ in seen} <= seen


entries = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda x: x * 10**30 + 1))
matrices = st.integers(1, 4).flatmap(
    lambda d: st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(entries, st.just(0)), min_size=n, max_size=n),
            min_size=d,
            max_size=d,
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(matrices, st.booleans(), st.booleans())
def test_circuit_partition_matches_the_written_out_basis(rows, ones, repeat):
    if repeat:  # a repeated column and a dependent row
        rows = [row + row[:1] for row in rows]
        rows.append([2 * x for x in rows[-1]])
    a = [[1] * len(rows[0]), *rows] if ones else rows
    part, multiples = _circuit_partition(circuit_form(a))
    assert part == _partition_by_matrix(a)
    _assert_multiples(a, part, multiples)


def test_circuit_partition_at_corank_zero_and_a_negative_pivot():
    # no relations: every point is an apex
    a = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
    assert _circuit_partition(circuit_form(a)) == (LinePartition(classes=(), zero_rows=(0, 1, 2)), ())
    # the pass ends on -2: column 2's circuit is (-1, -1, 2), positive at 2
    a = [[1, 1, 1], [1, -1, 0]]
    form = circuit_form(a)
    assert form.pivot == -2
    assert form.basis() == imat([[-1], [-1], [2]])
    axis = LineClass(direction=(1,), members=(0, 1, 2), total=(0,))
    assert _circuit_partition(form) == (LinePartition(classes=(axis,), zero_rows=()), ((-1, -1, 2),))


def test_line_sums_zero_family_alpha_true():
    assert line_sums_zero(gale_dual(family_alpha(1))).value


def test_line_sums_zero_twisted_cubic_false():
    v = line_sums_zero(gale_dual(TWISTED_CUBIC))
    assert not v.value
    assert v.witness["kind"] == "violating_line_class"


def test_line_sums_zero_single_column_always_true():
    # one line only, and Gale rows always sum to zero
    assert line_sums_zero(gale_dual(CONIC)).value
    assert line_sums_zero(gale_dual(segre(2))).value


def test_line_sums_zero_rejects_pyramid():
    pyramid = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
    with pytest.raises(InapplicableInput):
        line_sums_zero(gale_dual(pyramid))


def test_coparallel_classes_segre2_all_parallel():
    assert coparallel_classes(gale_dual(segre(2))) == ((0, 1, 2, 3),)


def test_coparallel_classes_family_alpha():
    assert coparallel_classes(gale_dual(family_alpha(1))) == (
        (0, 1, 2),
        (3, 4),
        (5, 6),
    )


def test_coparallel_classes_antiparallel_pair_one_class():
    from toricdual.gale import GaleDual

    dual = GaleDual(matrix=imat([[1, 2], [-1, -2]]))
    assert coparallel_classes(dual) == ((0, 1),)


def test_coparallel_classes_pyramid_singletons():
    pyramid = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
    assert coparallel_classes(gale_dual(pyramid)) == ((0, 1, 2), (3,))


def test_is_facial_conventions():
    assert is_facial(CONIC, [0, 1, 2]).value  # improper face
    assert is_facial(CONIC, [0]).value  # endpoint vertex
    assert not is_facial(CONIC, [1]).value  # interior point of the segment
    assert not is_facial(CONIC, [0, 1]).value  # not closed: face containing 1 has 2
    with pytest.raises(ValueError):
        is_facial(CONIC, [])


@pytest.mark.parametrize(
    "indices, match",
    [
        ([], "empty column selection"),
        ([-1], "out of range"),
        ([3], "out of range"),
        ([0, 3], "out of range"),
        ([0.9], "must be integers"),
    ],
)
@pytest.mark.parametrize(
    "select",
    [is_facial, is_parallel_face_complement, facial_via_separation],
    ids=lambda f: f.__name__,
)
def test_index_lists_are_refused_alike(select, indices, match):
    with pytest.raises(ValueError, match=match):
        select(CONIC, indices)


@pytest.mark.parametrize("subset", [[3], [-1], [0, 3]])
def test_subsets_and_classes_out_of_range_are_refused(subset):
    with pytest.raises(ValueError, match="out of range"):
        is_facial(CONIC, subset)
    with pytest.raises(ValueError, match="out of range"):
        is_parallel_face_complement(CONIC, subset)


def test_is_facial_simplex_everything():
    simplex = parse_configuration([[0, 1, 0], [0, 0, 1]])
    for subset in ([0], [1], [0, 1], [0, 2], [0, 1, 2]):
        assert is_facial(simplex, subset).value


def test_parallel_face_complement_segre2():
    c = segre(2)
    # the two columns sharing first coordinate 1; ell = (1,0,0) works
    v = is_parallel_face_complement(c, [0, 2])
    assert v.value
    assert v.witness["ell"] == [1, 0, 0] and v.witness["denominator"] == 1
    # the whole set: solvable iff the configuration is regular
    assert is_parallel_face_complement(c, [0, 1, 2, 3]).value
    assert not is_parallel_face_complement(parse_configuration([[0, 1, 2]]), [0, 1, 2]).value


def _digits_3900(rows, cols):
    # entries of 3900 digits: a witness's decimal form passes the
    # interpreter's int-to-str digit limit, so witnesses must not need one
    rng = random.Random(3)
    return [[rng.randrange(10**3899, 10**3900) for _ in range(cols)] for _ in range(rows)]


def test_facial_witness_in_integers_past_the_digit_limit():
    c = parse_configuration(_digits_3900(3, 6))
    v = is_facial(c, [0])
    assert v.value and v.witness["kind"] == "positive_dependency"
    coefficients = v.witness["coefficients"]
    assert all(type(x) is int and x > 0 for x in coefficients)
    assert max(coefficients).bit_length() > 14300  # past 4300 digits
    rows = [gale_dual(c).matrix[i] for i in v.witness["complement"]]
    assert not any(sum(x * row[j] for x, row in zip(coefficients, rows)) for j in range(2))


def test_parallel_face_witness_in_integers_past_the_digit_limit():
    c = parse_configuration(_digits_3900(3, 3))
    v = is_parallel_face_complement(c, [0])
    assert v.value
    ell, den = v.witness["ell"], v.witness["denominator"]
    assert all(type(x) is int for x in ell) and den > 0
    assert den.bit_length() > 14300
    values = [sum(x * y for x, y in zip(ell, col)) for col in c.columns()]
    assert values == [den, 0, 0]


def test_parallel_face_complement_needs_facial():
    # {0,2} in the conic is not even facial, and indeed no functional exists
    assert not is_parallel_face_complement(regularize(CONIC), [0, 2]).value


def test_coparallel_criterion_matches_line_sums():
    for c in (family_alpha(1), family_alpha(2), segre(2), segre(3), CONIC, TWISTED_CUBIC):
        assert coparallel_criterion(c).value == line_sums_zero(gale_dual(c)).value


def test_coparallel_criterion_rejects_pyramid_and_repeats():
    pyramid = parse_configuration([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]])
    with pytest.raises(InapplicableInput):
        coparallel_criterion(pyramid)
    with pytest.raises(InapplicableInput):
        coparallel_criterion(parse_configuration([[1, 1]]))


def test_gale_dual_is_cached_and_read_only():
    c = parse_configuration([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
    m = gale_dual(c).matrix
    assert gale_dual(c).matrix is m
    with pytest.raises(TypeError):
        m[0][0] = 7
    with pytest.raises(TypeError):
        m[0] = (7,)
    assert gale_dual(c).matrix.tolist() == [[1], [-1], [-1], [1]]
