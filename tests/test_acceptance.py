"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Every expected value is exact; there are no tolerances anywhere.  Randomized
sweeps are seeded and therefore reproducible run to run.
"""

import itertools
import random

import pytest

from toricdual.configuration import affine_dim, parse_configuration
from toricdual.engine import (
    is_lawrence,
    is_segre,
    is_self_dual,
    is_strongly_self_dual,
    lawrence_strong_parity,
    smooth_certificate,
)
from toricdual.families import family_alpha, family_alpha_gale, lawrence, segre
from toricdual.gale import (
    coparallel_classes,
    coparallel_criterion,
    gale_dual,
    is_facial,
    line_sums_zero,
    verify_gale_dual,
)
from toricdual.oracle import (
    coparallel_via_circuits,
    facial_via_separation,
    random_configuration,
    random_lawrence_block,
    self_dual_via_flats,
    self_dual_via_sigma,
)
from test_engine import _e_e_balanced

SWEEP_SEED = 20260809
LAWRENCE_SEED = 424242
COPARALLEL_SEED = 777
FACIAL_SEED = 1618

INT_POINT_FACE = parse_configuration(
    [
        [1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 1, 2, 0, 0, 0],
        [0, 0, 0, 0, 1, 2],
    ]
)
MISSING_POINTS = parse_configuration(
    [
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [2, 0, 0, 2, 0, 1],
    ]
)
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
STRONG_7x9_GALE = [
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


@pytest.fixture(scope="module")
def sweep_corpus():
    rng = random.Random(SWEEP_SEED)
    corpus = [random_configuration(rng) for _ in range(200)]
    verdicts = [bool(line_sums_zero(gale_dual(c)).value) for c in corpus]
    return corpus, verdicts


def test_criterion_01_alpha_family():
    for a in (1, 2, 3, -2):
        c = family_alpha(a)
        assert is_self_dual(c).value, a
        assert verify_gale_dual(c, family_alpha_gale(a)), a
        assert affine_dim(c) == 4, a
    print("ACCEPTANCE 1: PASS  alpha family self-dual, companion dual verified, dim 4")


def test_criterion_02_strongly_self_dual_example():
    assert is_strongly_self_dual(STRONG_7x9).value
    # the printed Gale dual is another basis, balanced column by column
    assert verify_gale_dual(STRONG_7x9, STRONG_7x9_GALE)
    assert all(_e_e_balanced(column) for column in zip(*STRONG_7x9_GALE))
    assert is_lawrence(STRONG_7x9) is None
    print("ACCEPTANCE 2: PASS  7x9 example strongly self-dual, not Lawrence")


def test_criterion_03_segre_family():
    for m in range(2, 7):
        c = segre(m)
        assert is_self_dual(c).value, m
        assert is_strongly_self_dual(c).value, m
        assert is_segre(c) == m, m
        assert lawrence_strong_parity([[1] * m]).value, m
        assert smooth_certificate(c).value, m
    print("ACCEPTANCE 3: PASS  Segre m=2..6 self-dual, strong, recognized, smooth")


def test_criterion_04_singular_self_dual_examples():
    for name, c in (("interior-point-face", INT_POINT_FACE), ("missing-points", MISSING_POINTS)):
        assert is_self_dual(c).value, name
        assert not smooth_certificate(c).value, name
    print("ACCEPTANCE 4: PASS  both singular examples self-dual, not certified smooth")


def test_criterion_05_oracle_equivalence_sweep(sweep_corpus):
    corpus, verdicts = sweep_corpus
    assert len(corpus) == 200
    disagreements = 0
    for c, expected in zip(corpus, verdicts):
        b = gale_dual(c)
        answers = {
            bool(line_sums_zero(b).value),
            self_dual_via_flats(b),
            self_dual_via_sigma(c),
            bool(coparallel_criterion(c).value),
        }
        if answers != {expected}:
            disagreements += 1
    assert disagreements == 0
    print(
        "ACCEPTANCE 5: PASS  200-instance sweep, four criteria agree "
        f"({sum(verdicts)} self-dual instances found)"
    )


def test_criterion_06_lawrence_parity_equivalence():
    rng = random.Random(LAWRENCE_SEED)
    for _ in range(50):
        m = random_lawrence_block(rng)
        lift = lawrence(m)
        parity = lawrence_strong_parity(m).value
        strong = is_strongly_self_dual(lift).value
        assert parity == strong, m.tolist()
        assert is_self_dual(lift).value, m.tolist()
    print("ACCEPTANCE 6: PASS  50 Lawrence lifts: parity == strong, all self-dual")


def test_criterion_07_coparallelism_equivalence():
    rng = random.Random(COPARALLEL_SEED)
    for _ in range(100):
        c = random_configuration(rng)
        assert coparallel_classes(gale_dual(c)) == coparallel_via_circuits(c)
    print("ACCEPTANCE 7: PASS  100 instances: dual-row parallelism == circuit classes")


def _facial_draws(count):
    """Seeded repeat-free draws of at most 7 points in dimension at most 4,
    entries in [-3, 3], taken as they come: pyramids, simplices and
    non-regular presentations included."""
    rng = random.Random(FACIAL_SEED)
    draws = []
    while len(draws) < count:
        d = rng.randint(1, 4)
        n = rng.randint(2, 7)
        c = parse_configuration([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        if len(set(c.columns())) == n:
            draws.append(c)
    return draws


def test_criterion_08_facial_equivalence():
    for c in _facial_draws(30):
        for size in range(1, c.npoints + 1):
            for sub in itertools.combinations(range(c.npoints), size):
                assert is_facial(c, sub).value == facial_via_separation(c, sub), (
                    c.weights.tolist(),
                    sub,
                )
    print("ACCEPTANCE 8: PASS  30 instances: Gale facial test == LP separation on all subsets")


def test_criterion_09_hereditary_property(sweep_corpus):
    corpus, verdicts = sweep_corpus
    checked = 0
    for c, sd in zip(corpus, verdicts):
        if not sd:
            continue
        for size in range(1, c.npoints + 1):
            for sub in itertools.combinations(range(c.npoints), size):
                d = parse_configuration(c.weights.select(sub))
                b = gale_dual(d)
                if b.corank == 0 or b.zero_rows():
                    continue  # pyramidal subset: exempt
                assert is_self_dual(d).value, (c.weights.tolist(), sub)
                assert is_facial(c, sub).value, (c.weights.tolist(), sub)
                checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 9: PASS  hereditary: {checked} non-pyramidal subsets all facial+self-dual")


def test_criterion_10_hypersurface_law(sweep_corpus):
    corpus, verdicts = sweep_corpus
    hypersurfaces = 0
    for c, sd in zip(corpus, verdicts):
        if c.npoints == affine_dim(c) + 2:
            hypersurfaces += 1
            assert sd, c.weights.tolist()
    assert hypersurfaces > 0
    print(
        f"ACCEPTANCE 10: PASS  all {hypersurfaces} non-pyramidal hypersurfaces "
        "in the sweep are self-dual"
    )
