"""Acceptance gate: one test per criterion, every check exact.

Criteria 1, 2 and 4 share one sweep of the full verification box
(s in {1,2,3}, length <= 6, entries in [-3,3], m in {1,2,3}, five scalar
classes; about 1.8 million oracle cases), computed once per session.
"""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path
from statistics import linear_regression
from math import log

import pytest

from cuspcm import (
    BundleTriple,
    CuspGeometry,
    LambdaBase,
    SSeq,
    apply_sigma,
    ar_sequence,
    canonical_form,
    classify_label,
    cohom_dims,
    cusp_quiver,
    descend,
    enumerate_rank,
    export_dot,
    family_counts,
    free_label,
    geometry_of,
    is_aperiodic,
    is_sigma_symmetric,
    kahn_condition,
    module_rank,
    oracle_dims,
    shift_by,
    sigma_of_module,
    tpq_iso,
    tpq_quiver,
    verify_grid,
)
from cuspcm.tpq import TpqKind

GOLDEN = Path(__file__).parent / "golden"

B1 = CuspGeometry(1, [1])

SIGMA_CASES = [(3, 7), (3, 8), (4, 5), (4, 6), (5, 5), (5, 6), (6, 7)]


@pytest.fixture(scope="module")
def grid_report():
    return verify_grid(
        s_values=(1, 2, 3),
        rs_max=6,
        lo=-3,
        hi=3,
        m_values=(1, 2, 3),
        lambdas=(1, -1, 2, -2, Fraction(1, 2)),
    )


def test_criterion_01_formula_equals_oracle_on_the_full_grid(grid_report):
    assert grid_report.cases > 10_000
    assert grid_report.formula_mismatches == ()
    print(f"ACCEPTANCE 01 formula-oracle equivalence: PASS ({grid_report.cases} cases)")


def test_criterion_02_euler_invariant_on_the_full_grid(grid_report):
    assert grid_report.euler_failures == ()
    print("ACCEPTANCE 02 Euler invariant: PASS")


def test_criterion_03_structure_sheaf_anchor():
    for s in range(1, 5):
        triple = BundleTriple(SSeq(s, (0,) * s), 1, Fraction(1))
        formula = cohom_dims(triple)
        measured = oracle_dims(triple)
        assert (formula.h0, formula.h1) == (1, 1), f"formula at s={s}"
        assert (measured.h0, measured.h1) == (1, 1), f"oracle at s={s}"
    print("ACCEPTANCE 03 structure-sheaf anchor: PASS")


def test_criterion_04_rank_identity_on_the_full_grid(grid_report):
    assert grid_report.rank_identity_failures == ()
    print("ACCEPTANCE 04 rk h = m*theta - delta: PASS")


def tube_bases(geom, max_rank):
    """m = 1 family positions whose module has rank <= max_rank."""
    bases = []
    for rank in range(1, max_rank + 1):
        bases.extend(
            fam.seq for fam in enumerate_rank(geom, rank).families if fam.m == 1
        )
    return bases


def test_criterion_05_ar_rank_additivity():
    # Ranks inside a tube depend on the scalar only through the jump at
    # (d, lam) = (B, 1), checked separately below; the largest geometry is
    # swept at one generic scalar, the small ones at four including 1.
    checked = 0
    for s, b in [(1, [1]), (1, [2]), (2, [1, 0]), (3, [1, 1, 0])]:
        geom = CuspGeometry(s, b)
        if s == 3:
            lams = [Fraction(2)]
        else:
            lams = [Fraction(2), Fraction(1), Fraction(-1), Fraction(1, 2)]
        for seq in tube_bases(geom, 6):
            for lam in lams:
                if lam == 1 and not any(v > 0 for v in seq.entries):
                    continue
                for m in range(1, 6):
                    left = classify_label(BundleTriple(seq, m, lam), geom)
                    ars = ar_sequence(geom, left)
                    total = sum(x.rank for x in ars.middle)
                    assert total == 2 * left.rank, f"b={b} {left}"
                    checked += 1
        low = classify_label(BundleTriple(geom.b_sequence, 1, Fraction(1)), geom)
        high = classify_label(BundleTriple(geom.b_sequence, 2, Fraction(1)), geom)
        assert 1 + high.rank == 2 * low.rank, f"special tube over b={b}"
    assert checked > 100
    print(f"ACCEPTANCE 05 AR rank additivity: PASS ({checked} sequences)")


def test_criterion_06_sigma_laws():
    for p, q in SIGMA_CASES:
        geom = geometry_of(p, q)
        s = geom.cusp.s
        rng = random.Random(10_000 * p + q)
        assert is_sigma_symmetric(geom, geom.cusp.b_sequence), f"B over T_{p},{q}"
        for _ in range(500):
            r = rng.randint(1, max(1, 12 // s))
            seq = SSeq(s, tuple(rng.randint(-3, 3) for _ in range(r * s)))
            k = rng.randint(-3, 3)
            assert apply_sigma(geom, apply_sigma(geom, seq)) == seq
            assert canonical_form(apply_sigma(geom, shift_by(seq, k))) == (
                canonical_form(apply_sigma(geom, seq))
            )
            lifted = SSeq(s, tuple(abs(v) for v in seq.entries))
            lam = Fraction(rng.choice([1, -1, 2, Fraction(1, 2)]))
            triple = BundleTriple(canonical_form(lifted), rng.randint(1, 3), lam)
            if not kahn_condition(triple):
                continue
            back = sigma_of_module(geom, sigma_of_module(geom, triple))
            assert back == triple and back.lam == lam
    print(f"ACCEPTANCE 06 sigma laws: PASS ({len(SIGMA_CASES)} geometries x 500)")


def slice_by_m_then_length(geom, rank):
    """Independent enumeration: m outermost, coarse bound sum(d) <= rank/m + r*sum(b)."""
    fams, excs = [], []
    b_total = sum(geom.b)
    for m in range(1, rank + 1):
        for r in range(1, rank // m + 1):
            cap = rank // m + r * b_total
            for entries in product(range(cap + 1), repeat=r * geom.s):
                if sum(entries) > cap:
                    continue
                seq = SSeq(geom.s, entries)
                if not is_aperiodic(seq) or canonical_form(seq) != seq:
                    continue
                generic = module_rank(BundleTriple(seq, m, Fraction(3)), geom)
                if generic == rank:
                    fams.append((entries, m))
                one = BundleTriple(seq, m, Fraction(1))
                if (
                    generic != rank
                    and kahn_condition(one)
                    and module_rank(one, geom) == rank
                ):
                    excs.append((entries, m))
    return sorted(fams), sorted(excs)


def test_criterion_07_double_enumeration_agreement():
    for rank in range(1, 7):
        piece = enumerate_rank(B1, rank)
        fams, excs = slice_by_m_then_length(B1, rank)
        assert sorted((f.seq.entries, f.m) for f in piece.families) == fams
        assert sorted(
            (lab.triple.seq.entries, lab.triple.m) for lab in piece.exceptional
        ) == excs
        for fam in piece.families:
            assert module_rank(BundleTriple(fam.seq, fam.m, Fraction(5)), B1) == rank
        for lab in piece.exceptional:
            assert module_rank(lab.triple, B1) == rank
    table = family_counts(B1, 2)
    assert table.counts[1] == 2 and table.counts[2] == 5
    print("ACCEPTANCE 07 double enumeration, d(1)=2, d(2)=5: PASS")


def test_criterion_08_family_count_growth():
    table = family_counts(B1, 10)
    counts = [table.counts[r] for r in range(4, 11)]
    assert all(a <= b for a, b in zip(counts, counts[1:])), counts
    slope = linear_regression(range(4, 11), [log(c) for c in counts]).slope
    assert slope > 0, slope
    print(f"ACCEPTANCE 08 growth of d(r): PASS (slope {slope:.3f}, d(4..10)={counts})")


def single_key(geom, label):
    a = (label.seq.entries, label.lam)
    b = (canonical_form(apply_sigma(geom, label.seq)).entries, 1 / label.lam)
    return min(a, b)


def test_criterion_09_knorrer_descent_bookkeeping():
    geom = geometry_of(3, 8)
    cusp = geom.cusp
    sample = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    surface = []
    for rank in range(1, 5):
        piece = enumerate_rank(cusp, rank)
        for fam in piece.families:
            for lam in sample:
                if lam == 1 and fam.base is LambdaBase.NONZERO_EXCEPT_ONE:
                    continue
                surface.append(classify_label(BundleTriple(fam.seq, fam.m, lam), cusp))
        surface.extend(piece.exceptional)
    assert len(set(surface)) == len(surface)

    # The label set is closed under the involution, by construction of the
    # scalar sample; fixed points are the sigma-symmetric d with lam = +-1.
    triples = [lab.triple for lab in surface]
    images = {str(t): sigma_of_module(geom, t) for t in triples}
    assert set(images.values()) <= set(triples)
    fixed = [t for t in triples if images[str(t)] == t]
    for t in fixed:
        assert is_sigma_symmetric(geom, t.seq) and t.lam in (1, -1)

    downstairs = []
    for lab in surface:
        got = descend(geom, lab)
        assert len(got) in (1, 2)
        downstairs.extend(got)

    # tpq_iso must be the equality of orbit keys, which makes it an
    # equivalence relation; check agreement on every pair.
    keys = []
    for lab in downstairs:
        if lab.kind is TpqKind.SINGLE:
            keys.append(("single", lab.m, single_key(geom, lab)))
        else:
            keys.append(("split", lab.seq.entries, lab.m, lab.sign, lab.branch))
    for i, a in enumerate(downstairs):
        for j, b in enumerate(downstairs):
            assert tpq_iso(geom, a, b) == (keys[i] == keys[j])

    classes = len(set(keys))
    paired = len(triples) - len(fixed)
    assert paired % 2 == 0
    assert classes == paired // 2 + 2 * len(fixed)
    print(
        "ACCEPTANCE 09 Knoerrer bookkeeping: PASS "
        f"({len(triples)} labels, {len(fixed)} fixed, {classes} classes)"
    )


def test_criterion_10_golden_quivers_and_free_placement():
    cusp_dot = export_dot(cusp_quiver(B1, max_base_rank=2, depth=3, lambdas=(1, 2)))
    again = export_dot(cusp_quiver(B1, max_base_rank=2, depth=3, lambdas=(1, 2)))
    assert cusp_dot == again
    assert cusp_dot == (GOLDEN / "cusp_b1_quiver.dot").read_text()

    geom = geometry_of(3, 8)
    base = [(SSeq(2, (1, 0)), Fraction(1))]
    tube_dot = export_dot(tpq_quiver(geom, depth=3, bases=base))
    assert tube_dot == export_dot(tpq_quiver(geom, depth=3, bases=base))
    assert tube_dot == (GOLDEN / "tpq38_special_tube.dot").read_text()

    free = free_label(B1)
    with_free = 0
    for rank in (1, 2):
        for fam in enumerate_rank(B1, rank).families:
            if fam.m != 1:
                continue
            for lam in (Fraction(1), Fraction(2)):
                if lam == 1 and (fam.seq != B1.b_sequence or rank + 1 > 2):
                    continue
                for m in range(1, 4):
                    label = classify_label(BundleTriple(fam.seq, m, lam), B1)
                    middle = ar_sequence(B1, label).middle
                    with_free += sum(1 for x in middle if x == free)
    assert with_free == 1
    print("ACCEPTANCE 10 golden quivers, free module placement: PASS")
