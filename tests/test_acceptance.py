"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs in exact rational arithmetic, so every tolerance below is
zero; the only numeric bounds are the stated runtime ceilings.  Scales are
pinned here: n up to 3, 5 seeds per cell, 100 samples per stratum for the
positivity criterion.
"""

from tnncompact.verify import VerifyConfig, run_suite

CFG = VerifyConfig(n=3, seeds=5, samples=100)


def _run(name: str, cases: int):
    """Run one suite at the acceptance config; it passes with exactly
    ``cases`` cases, the count that every later change must keep."""
    rep = run_suite(name, CFG)
    print(rep.line())
    assert rep.ok, rep.failures[:3]
    assert rep.cases == cases
    return rep


def test_criterion_1_cell_census():
    """13 cells for n=2 (9 closed + 4 open stratum), dimension multiset from
    the formula, cross-checked against brute-force enumeration, under 1s."""
    _run("census", 8)


def test_criterion_2_dimension_formula_vs_geometry():
    """Exact Jacobian rank equals the formula dimension for every nonempty
    label at n=2 and n=3, all strata; zero tolerance.  283 controls: each
    label with two free steps in word 1 loses full rank when they merge."""
    _run("dimensions", 698 + 283)


def test_criterion_3_entrywise_criterion_forward():
    """100 seeded positive points per supported stratum have all four
    projective matrices strictly positive entrywise, and the supported
    strata are the expected ones at n = 2 and 3; under a minute."""
    rep = _run("positivity-forward", 2 + 2 * 5 * CFG.samples)
    assert rep.wall < 60.0


def test_criterion_4_entrywise_criterion_converse_evidence():
    """100 points with one negated unipotent Levi coordinate (coset part
    outside L_{≥0}Z(L)), and 100 points of lower cells of each of the 4
    strata at n=3, are all rejected."""
    _run("positivity-converse", CFG.samples + 4 * CFG.samples)


def test_criterion_5_marsh_rietsch_correctness():
    """Every chart for every (v, w) and every reduced word, n ≤ 3, lands in
    its double coset: pos(B^+,·) = w and pos(B^-,·) = w0·v; exhaustive.
    Each chart with a free step refuses a zero coordinate."""
    _run("marsh-rietsch", 159)


def test_criterion_6_roundtrip_classification():
    """classify(sample(label)) == label for every nonempty label, n ≤ 3,
    5 seeds, zero failures.  658 controls: the samples at two seeds of each
    label of positive dimension (9 at n = 2, 649 at n = 3) are unequal.
    622 controls: on the same labels bar the 36 of J = I at n = 3, the
    seed-0 sample moved by the centre of its Levi factor is the same
    point."""
    _run("roundtrip", 3490 + 9 + 649 + 9 + 613)


def test_criterion_7_emptiness():
    """Labels with v or v' outside W^J refuse to sample, and a sampled point
    moved by a positive pair classifies into the top cell of its stratum."""
    _run("emptiness", 144)


def test_criterion_8_limits_and_base_points():
    """For every exponent vector in {0,1,2}^(n−1), the torus curve through
    a sampled positive pair limits, in every fundamental representation, to
    the closed-form torus limit; and the base point maps to ([I_1], [I_L])
    wherever the embedding pair exists."""
    _run("limits", 17)


def test_criterion_9_retraction():
    """50 boundary points from limits of positive data, retracted by 10
    strict pairs, all land in the positive part; 100 negative-Levi points
    of J = {1}, outside the closure, each make the retraction raise or land
    in the positive part, and at least one raises; 10 lower-cell points of
    each of the 4 strata at n=3 start outside it and retract into the top
    cell of their stratum."""
    _run("retraction", 500 + CFG.samples + 1 + 4 * 10)


def test_criterion_10_monoid_cross_checks():
    """Sampler outputs pass the all-minors test; products and transposes
    stay strictly positive; one-sided absorption keeps unipotent cones.
    Inverses of positive unipotents and words with a zero coordinate are
    refused."""
    _run("monoid", 210)
