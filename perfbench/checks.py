"""Independent checks of program outputs.

Each check takes the benchmark's own input matrix and a plain rendering of
what the program returned, and recomputes the claim with ``exact``; none of
them calls the function under test.  ``self_test`` shows that every check
rejects a deliberately wrong result.
"""

from fractions import Fraction

import exact


class Expected:
    """Self-duality answers of the inputs, computed once per matrix."""

    def __init__(self):
        self._cache = {}

    def self_dual(self, matrix):
        key = tuple(map(tuple, matrix))
        if key not in self._cache:
            self._cache[key] = exact.self_dual(matrix)
        return self._cache[key]


def check_self_dual(expected, matrix, value):
    return value is expected.self_dual(matrix)


def check_gale(matrix, gale):
    """``gale`` (n x r rows) is a saturated basis of the affine relations.

    [1; W] @ gale == 0, r == n - rank [1; W], and a few maximal minors of
    gale have gcd 1, or failing that every prime dividing them leaves gale
    of full rank mod p.
    """
    a = exact.affine_rows(matrix)
    n = len(matrix[0])
    r = n - exact.rank(a)
    if len(gale) != n or any(len(row) != r for row in gale):
        return False
    if r == 0:
        return True
    if any(any(row) for row in exact.matmul(a, gale)):
        return False
    return exact.saturated(gale)


def check_lawrence_strong(block, value):
    """Strong self-duality of a Lawrence lift is GF(2) parity of its block."""
    return value is exact.gf2_ones_in_row_span(block)


def check_strong_implies_self_dual(expected, matrix, value):
    return value is False or expected.self_dual(matrix)


def check_facial(matrix, subset, value, witness, gale=None):
    """Replay a facial witness on the input matrix.

    A positive dependency gives a vector in the row span of [1; W] (an
    affine functional) that is zero on the subset and positive off it.  A
    Farkas vector z gives gale @ z, which must be an affine relation that is
    >= 0 off the subset and nonzero there.  ``gale`` is only used to map z
    into relation space; the relation itself is checked against W.
    """
    n = len(matrix[0])
    inside = set(subset)
    outside = [i for i in range(n) if i not in inside]
    kind = witness.get("kind")
    a = exact.affine_rows(matrix)
    if kind == "positive_dependency":
        if value is not True or witness["complement"] != outside:
            return False
        coefs = [Fraction(x) for x in witness["coefficients"]]
        if len(coefs) != len(outside) or any(x <= 0 for x in coefs):
            return False
        vec = [Fraction(0)] * n
        for i, x in zip(outside, coefs):
            vec[i] = x
        return exact.in_row_span(a, vec)
    if kind == "no_positive_dependency":
        if value is not False or witness["complement"] != outside or gale is None:
            return False
        z = [Fraction(x) for x in witness["separating_certificate"]]
        rel = [sum(Fraction(g) * zj for g, zj in zip(row, z)) for row in gale]
        if any(sum(x * y for x, y in zip(arow, rel)) != 0 for arow in a):
            return False
        off = [rel[i] for i in outside]
        return all(x >= 0 for x in off) and any(x > 0 for x in off)
    if kind == "simplex":
        return value is True and exact.corank(matrix) == 0
    return False


def check_crosscheck(expected, rows, report):
    """One-instance ``crosscheck`` report against the replayed instance."""
    if report["count"] != 1 or report["disagreements"]:
        return False
    entry = report["results"][0]
    if entry["points"] != len(rows[0]) or entry["dim"] != exact.rank(exact.affine_rows(rows)):
        return False
    want = expected.self_dual(rows)
    return entry["agree"] and all(v is want for v in entry["answers"].values())


def self_test(toricdual):
    """Run every check on a right and on a deliberately wrong result.

    Returns the cases where a check rejected the right result or accepted
    the wrong one; an empty list means every check tells them apart.
    """
    from inputs import lawrence, segre

    expected = Expected()
    square, cubic = segre(2), [[0, 1, 2, 3]]
    block = [[1, 1, 1]]
    cases = [
        ("self-duality, self-dual input",
         lambda v: check_self_dual(expected, square, v), True, False),
        ("self-duality, not self-dual input",
         lambda v: check_self_dual(expected, cubic, v), False, True),
        ("Lawrence strong verdict",
         lambda v: check_lawrence_strong(block, v), True, False),
        ("strong implies self-dual",
         lambda m: check_strong_implies_self_dual(expected, m, True), lawrence(block), [[1] * 4] + cubic),
    ]
    pts = [[0, 1, 0, 1, 2], [0, 0, 1, 1, 3]]
    c = toricdual.parse_configuration(pts)
    gale = toricdual.gale_dual(c).matrix.tolist()
    doubled = [row[:-1] + [2 * row[-1]] for row in gale]
    cases.append(("Gale dual, a column scaled by 2", lambda g: check_gale(pts, g), gale, doubled))
    for subset in ([0], [3], [1, 2]):
        v = toricdual.is_facial(c, subset)
        tampered = dict(v.witness)
        if tampered["kind"] == "positive_dependency":
            key = "coefficients"
            tampered[key] = [str(Fraction(tampered[key][0]) + 1)] + tampered[key][1:]
        else:
            key = "separating_certificate"
            tampered[key] = [str(-Fraction(x)) for x in tampered[key]]
        cases.append((f"facial {subset}, tampered {key}",
                      lambda w, s=subset, val=v.value: check_facial(pts, s, val, w, gale),
                      v.witness, tampered))
        cases.append((f"facial {subset}, flipped verdict",
                      lambda val, s=subset, w=v.witness: check_facial(pts, s, val, w, gale),
                      v.value, not v.value))
    answers = ("line_sums_zero", "flats", "sigma", "coparallel")

    def report(value):
        entry = {"points": 4, "dim": 2, "agree": True, "answers": {k: value for k in answers}}
        return {"count": 1, "disagreements": [], "results": [entry]}

    cases.append(("crosscheck answers", lambda r: check_crosscheck(expected, cubic, r),
                  report(False), report(True)))
    bad = []
    for label, check, right, wrong in cases:
        if not check(right):
            bad.append(f"{label}: rejected the right result")
        if check(wrong):
            bad.append(f"{label}: accepted a wrong result")
    kinds = {toricdual.is_facial(c, s).witness["kind"] for s in ([0], [3], [1, 2])}
    if kinds != {"positive_dependency", "no_positive_dependency"}:
        bad.append(f"facial self-test covers only {sorted(kinds)}")
    return bad
