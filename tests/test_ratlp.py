from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricdual import ratlp
from toricdual.ratlp import (
    feasible_nonneg,
    positive_dependency,
    positive_dependency_certified,
    solve_linear,
)


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

    The reduced row echelon form of ``[a | b]`` is unique, so the
    fraction-free ``solve_linear`` must return the identical tuple.
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


def assert_valid(a, b, result):
    """``x >= 0`` solving ``a x = b``, or a Farkas ``y`` with ``y a <= 0 < y b``."""
    x, y = result
    assert (x is None) != (y is None)
    if x is not None:
        assert all(v >= 0 for v in x)
        for row, rhs in zip(a, b):
            assert sum(v * w for v, w in zip(row, x)) == rhs
    else:
        for j in range(len(a[0])):
            assert sum(yi * row[j] for yi, row in zip(y, a)) <= 0
        assert sum(yi * rhs for yi, rhs in zip(y, b)) > 0


def test_solve_linear_basic():
    x = solve_linear([[2, 0], [0, 4]], [1, 2])
    assert x == (Fraction(1, 2), Fraction(1, 2))
    assert solve_linear([[1, 1], [1, 1]], [0, 1]) is None
    # underdetermined: free variable pinned to zero
    x = solve_linear([[1, 2, 3]], [6])
    assert x == (6, 0, 0)
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [1, 2])


@st.composite
def linear_systems(draw):
    """Int or rational systems with entries up to 10**30, some with a zero
    row or a multiple of the first row, consistent or not."""
    bound = draw(st.sampled_from([1, 3, 10**6, 10**30]))
    entry = st.integers(-bound, bound)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.builds(Fraction, entry, st.integers(1, 12)))
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 6))
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(entry, min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        k = draw(entry)
        a[-1] = [k * x for x in a[0]]
        b[-1] = k * b[0] + draw(st.sampled_from([0, 0, 1]))
    if m and draw(st.booleans()):
        a[0] = [0] * n
    return a, b


@settings(max_examples=400, deadline=None)
@given(linear_systems())
@example(([], []))
@example(([[], []], [0, 1]))
@example(([[1, 1], [2, 2]], [1, 3]))
@example(([[10**30, 1], [10**30 + 1, 1]], [Fraction(1, 3), 0]))
def test_solve_linear_matches_fraction_reference(system):
    a, b = system
    got = solve_linear(a, b)
    # repr also compares the types: Fractions, not ints
    assert repr(got) == repr(fraction_solve(a, b))
    if got is not None:
        assert [sum(v * w for v, w in zip(row, got)) for row in a] == list(b)


def test_feasible_nonneg_simple():
    x, cert = feasible_nonneg([[1, 1]], [2])
    assert cert is None
    assert sum(x) == 2 and all(v >= 0 for v in x)
    x, cert = feasible_nonneg([[1, 1]], [-1])
    assert x is None
    # certificate: y*a <= 0 and y*b > 0
    assert cert[0] * 1 <= 0 and cert[0] * (-1) > 0


def test_positive_dependency_antiparallel_pair():
    r = positive_dependency([(1,), (-1,)])
    assert r is not None
    assert r[0] * 1 + r[1] * (-1) == 0
    assert all(v > 0 for v in r)


def test_positive_dependency_independent_pair():
    assert positive_dependency([(1, 0), (0, 1)]) is None


def test_positive_dependency_family_rows():
    # rows 4 and 5 of the planar dual of the rank-two example family
    r = positive_dependency([(1, 1), (-1, -1)])
    assert r is not None


def test_positive_dependency_errors():
    with pytest.raises(ValueError):
        positive_dependency([])
    with pytest.raises(ValueError):
        positive_dependency([(1, 2), (1,)])


def test_positive_dependency_zero_dim_convention():
    assert positive_dependency([(), ()]) == (1, 1)


def test_certificate_signs():
    rows = [(2, 0), (1, 1)]
    r, z = positive_dependency_certified(rows)
    assert r is None
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
        assert all(v > 0 for v in r)
        for j in range(2):
            assert sum(ri * v[j] for ri, v in zip(r, rows)) == 0
    else:
        dots = [sum(a * b for a, b in zip(z, v)) for v in rows]
        assert all(d >= 0 for d in dots)
        assert any(d > 0 for d in dots)


@st.composite
def integer_lps(draw):
    """Integer LPs with zero rows, repeated rows and, at small bounds, many
    degenerate ratio ties."""
    bound = draw(st.sampled_from([1, 2, 10**6]))
    entry = st.integers(-bound, bound)
    m = draw(st.integers(0, 5))
    k = draw(st.integers(0, 6))
    a = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
    b = draw(st.lists(entry, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        a[draw(st.integers(0, m - 1))] = [0] * k
    if m > 1 and draw(st.booleans()):
        a[-1], b[-1] = list(a[0]), b[0]
    return a, b


@settings(max_examples=400, deadline=None)
@given(integer_lps())
@example(([], []))
def test_feasible_nonneg_matches_fraction_reference(lp):
    a, b = lp
    got = feasible_nonneg(a, b)
    # repr also compares the types: Fractions, not ints
    assert repr(got) == repr(fraction_phase1(a, b))
    if a:
        assert_valid(a, b, got)


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_feasible_nonneg_rational_input(m, k, data):
    a = [data.draw(st.lists(fractions, min_size=k, max_size=k)) for _ in range(m)]
    b = data.draw(st.lists(fractions, min_size=m, max_size=m))
    got = feasible_nonneg(a, b)
    assert_valid(a, b, got)
    assert (got[0] is None) == (fraction_phase1(a, b)[0] is None)


def test_tampered_farkas_certificate_fails_the_recheck(monkeypatch):
    a, b = [[1, 1]], [-1]
    assert_valid(a, b, feasible_nonneg(a, b))
    original = ratlp._integral_rows

    def wrong_signs(a, b):
        rows, scale = original(a, b)
        return rows, [abs(s) for s in scale]

    monkeypatch.setattr(ratlp, "_integral_rows", wrong_signs)
    with pytest.raises(AssertionError):
        feasible_nonneg(a, b)


def test_tampered_positive_dependency_fails_the_recheck(monkeypatch):
    rows = [(1, 2), (-1, -2)]
    assert positive_dependency(rows) is not None
    original = ratlp.feasible_nonneg

    def shifted(a, b):
        x, y = original(a, b)
        return (x[0] + 1, *x[1:]), y

    monkeypatch.setattr(ratlp, "feasible_nonneg", shifted)
    with pytest.raises(AssertionError):
        positive_dependency(rows)
