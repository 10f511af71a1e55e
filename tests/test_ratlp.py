from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricdual import is_parallel_face_complement, parse_configuration, ratlp
from toricdual.ratlp import feasible_nonneg, positive_dependency_certified


def fraction_phase1(a, b):
    """Reference: the phase-1 simplex with Bland's rule on Fractions.

    Same tableau, entering rule and ratio test as ``feasible_nonneg``, so the
    fraction-free version must return the identical ``(x, y)``.
    """
    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in b]
    m = len(rows)
    k = len(rows[0]) if m else 0
    if m == 0:
        return (), None
    flip = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flip[i] = -1
    width = k + m + 1
    tab = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [k + i for i in range(m)]
    obj = [-sum(tab[i][j] for i in range(m)) for j in range(k)] + [Fraction(0)] * m
    obj.append(-sum(rhs))
    while True:
        enter = next((j for j in range(k + m) if obj[j] < 0), None)
        if enter is None:
            break
        keys = [
            ((tab[i][-1] / tab[i][enter], basis[i]), i) for i in range(m) if tab[i][enter] > 0
        ]
        row = min(keys)[1]
        tab[row] = [v / tab[row][enter] for v in tab[row]]
        for i in range(m):
            if i != row:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[row])]
        f = obj[enter]
        obj = [v - f * w for v, w in zip(obj, tab[row])]
        basis[row] = enter
    if obj[-1] == 0:
        x = [Fraction(0)] * k
        for i, bv in enumerate(basis):
            if bv < k:
                x[bv] = tab[i][-1]
        return tuple(x), None
    return None, tuple(flip[i] * (1 - obj[k + i]) for i in range(m))


def fraction_solve(a, b):
    """Reference: Gauss-Jordan elimination on Fractions, free variables 0.

    The reduced row echelon form of ``[a | b]`` is unique, so the functional
    that ``is_parallel_face_complement`` reads off its fraction-free
    Gauss-Jordan pass must be the identical vector.
    """
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [rows[i] + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(aug[i][n] != 0 for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x)


def as_fractions(pair):
    """The rational vector ``nums / den`` of an integer answer, whose
    denominator must be positive."""
    nums, den = pair
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    return tuple(Fraction(v, den) for v in nums)


def rationals(result):
    """``(x, y)`` of a ``feasible_nonneg`` answer as Fraction tuples."""
    return tuple(None if pair is None else as_fractions(pair) for pair in result)


def assert_valid(a, b, result):
    """``x >= 0`` solving ``a x = b``, or a Farkas ``y`` with ``y a <= 0 < y b``."""
    x, y = rationals(result)
    assert (x is None) != (y is None)
    if x is not None:
        assert all(v >= 0 for v in x)
        for row, rhs in zip(a, b):
            assert sum(v * w for v, w in zip(row, x)) == rhs
    else:
        for j in range(len(a[0])):
            assert sum(yi * row[j] for yi, row in zip(y, a)) <= 0
        assert sum(yi * rhs for yi, rhs in zip(y, b)) > 0


def functional(weights, members):
    """The affine functional of ``is_parallel_face_complement`` as
    Fractions, constant term first, or None when there is none; the witness
    must be in lowest terms."""
    v = is_parallel_face_complement(parse_configuration(weights), members)
    if not v.value:
        assert v.witness == {"kind": "no_functional", "members": sorted(set(members))}
        return None
    ell, den = v.witness["ell"], v.witness["denominator"]
    assert gcd(den, *ell) == 1
    return as_fractions((ell, den))


def test_parallel_face_functional_basic():
    # the points (2, 0) and (0, 4) off the origin: ell = 0 + x/2 + y/4 is 1
    # on both and 0 at the origin, constant term first
    v = is_parallel_face_complement(parse_configuration([[2, 0, 0], [0, 4, 0]]), [0, 1])
    assert v.witness == {
        "kind": "functional", "members": [0, 1], "ell": [0, 2, 1], "denominator": 4
    }
    # members on y = 0, the rest on y = 1: only an affine functional, 1 - y
    assert functional([[1, 2, 3, 4], [0, 1, 0, 1]], [0, 2]) == (1, 0, -1)
    # a repeated point inside and outside the members: inconsistent
    assert functional([[1, 1], [1, 1]], [1]) is None
    # underdetermined: free unknowns pinned to zero, so the constant 1
    assert functional([[1], [2], [3]], [0]) == (1, 0, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        functional([[1, 2]], [2])


@st.composite
def linear_systems(draw):
    """``(weights, members)``: d x n integer points with entries up to
    10**30, some with a zero row, some with a repeated (or scaled) point; a
    repeated point makes the targets inconsistent when it lies on one side
    of the members and its copy on the other."""
    bound = draw(st.sampled_from([1, 3, 10**6, 10**30]))
    entry = st.integers(-bound, bound)
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    w = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(d)]
    if n > 1 and draw(st.booleans()):
        k = draw(st.sampled_from([1, 1, -1, 2]))
        for row in w:
            row[-1] = k * row[0]
    if draw(st.booleans()):
        w[0] = [0] * n
    members = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return w, members


@settings(max_examples=400, deadline=None)
@given(linear_systems())
@example(([[0, 0]], [0]))
@example(([[1, 2], [1, 2]], [0]))
@example(([[10**30, 10**30 + 1], [1, 1]], [0]))
def test_parallel_face_functional_matches_fraction_reference(system):
    # the functional is affine: solved on the columns of [1; W]
    w, members = system
    columns = [(1, *col) for col in zip(*w)]
    targets = [int(j in members) for j in range(len(columns))]
    got = functional(w, members)
    assert got == fraction_solve(columns, targets)
    if got is not None:
        assert [sum(v * x for v, x in zip(got, col)) for col in columns] == targets


def test_feasible_nonneg_simple():
    x, cert = rationals(feasible_nonneg([[1, 1]], [2]))
    assert cert is None
    assert sum(x) == 2 and all(v >= 0 for v in x)
    x, cert = rationals(feasible_nonneg([[1, 1]], [-1]))
    assert x is None
    # certificate: y*a <= 0 and y*b > 0
    assert cert[0] * 1 <= 0 and cert[0] * (-1) > 0
    with pytest.raises(ValueError, match="length mismatch"):
        feasible_nonneg([[1, 1]], [1, 2])


def test_positive_dependency_antiparallel_pair():
    assert positive_dependency_certified([(1,), (-1,)]) == (([1, 1], 1), None)
    # r = (3/2, 1) in lowest terms: numerators (3, 2) over 2
    assert positive_dependency_certified([(2,), (-3,)]) == (([3, 2], 2), None)


def test_positive_dependency_independent_pair():
    assert positive_dependency_certified([(1, 0), (0, 1)])[0] is None


def test_positive_dependency_family_rows():
    # rows 4 and 5 of the planar dual of the rank-two example family
    r = positive_dependency_certified([(1, 1), (-1, -1)])[0]
    assert r is not None


def test_positive_dependency_errors():
    with pytest.raises(ValueError):
        positive_dependency_certified([])
    with pytest.raises(ValueError):
        positive_dependency_certified([(1, 2), (1,)])


def test_positive_dependency_zero_dim_convention():
    assert positive_dependency_certified([(), ()]) == (([1, 1], 1), None)


def test_certificate_signs():
    rows = [(2, 0), (1, 1)]
    r, (z, den) = positive_dependency_certified(rows)
    assert r is None and den > 0 and gcd(den, *z) == 1
    dots = [sum(a * b for a, b in zip(z, v)) for v in rows]
    assert all(d >= 0 for d in dots)
    assert any(d > 0 for d in dots)


vec3 = st.lists(st.integers(-4, 4), min_size=2, max_size=2)


@settings(max_examples=120, deadline=None)
@given(st.lists(vec3, min_size=1, max_size=6))
def test_positive_dependency_is_sound_and_certified(rows):
    rows = [tuple(v) for v in rows]
    r, z = positive_dependency_certified(rows)
    if r is not None:
        assert gcd(r[1], *r[0]) == 1
        r = as_fractions(r)
        assert all(v > 0 for v in r)
        for j in range(2):
            assert sum(ri * v[j] for ri, v in zip(r, rows)) == 0
    else:
        z = as_fractions(z)
        dots = [sum(a * b for a, b in zip(z, v)) for v in rows]
        assert all(d >= 0 for d in dots)
        assert any(d > 0 for d in dots)


@st.composite
def integer_lps(draw):
    """Integer LPs with zero rows, repeated rows and, at small bounds, many
    degenerate ratio ties.  In sparse ones most coefficients are 0, so the
    simplex leaves rows out of pivots, over denominators of their own."""
    bound = draw(st.sampled_from([1, 2, 3, 10**6]))
    entry = st.integers(-bound, bound)
    sparse = draw(st.booleans())
    coefficient = st.one_of(st.just(0), st.just(0), entry) if sparse else entry
    m = draw(st.integers(0, 5))
    k = draw(st.integers(0, 9 if sparse else 6))
    a = [draw(st.lists(coefficient, min_size=k, max_size=k)) for _ in range(m)]
    b = draw(st.lists(entry, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        a[draw(st.integers(0, m - 1))] = [0] * k
    if m > 1 and draw(st.booleans()):
        a[-1], b[-1] = list(a[0]), b[0]
    return a, b


@settings(max_examples=800, deadline=None)
@given(integer_lps())
@example(([], []))
def test_feasible_nonneg_matches_fraction_reference(lp):
    a, b = lp
    got = feasible_nonneg(a, b)
    assert rationals(got) == fraction_phase1(a, b)
    if a:
        assert_valid(a, b, got)


def test_tampered_farkas_certificate_fails_the_recheck(monkeypatch):
    a, b = [[1, 1]], [-1]
    assert_valid(a, b, feasible_nonneg(a, b))
    original = ratlp._signed_rows

    def wrong_signs(a, b):
        rows, signs = original(a, b)
        return rows, [1] * len(signs)

    monkeypatch.setattr(ratlp, "_signed_rows", wrong_signs)
    with pytest.raises(AssertionError):
        feasible_nonneg(a, b)


def test_tampered_positive_dependency_fails_the_recheck(monkeypatch):
    rows = [(1, 2), (-1, -2)]
    assert positive_dependency_certified(rows)[0] is not None
    original = ratlp.feasible_nonneg

    def shifted(a, b):
        (x, d), y = original(a, b)
        return ([x[0] + d, *x[1:]], d), y

    monkeypatch.setattr(ratlp, "feasible_nonneg", shifted)
    with pytest.raises(AssertionError):
        positive_dependency_certified(rows)
