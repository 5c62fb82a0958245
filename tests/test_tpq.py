"""T_pq geometries, the reflection sigma, and Knoerrer descent of labels."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspcm import cusp, tpq
from test_sequences import longer_word
from cuspcm import (
    BundleTriple,
    CMModuleLabel,
    CuspGeometry,
    KahnViolation,
    SSeq,
    TpqBranch,
    TpqCase,
    TpqFree,
    TpqGeometry,
    TpqKind,
    TpqSingle,
    apply_sigma,
    build_tube,
    canonical_form,
    classify_label,
    cusp_quiver,
    descend,
    enumerate_rank,
    family_counts,
    free_label,
    geometry_of,
    is_aperiodic,
    is_sigma_symmetric,
    kahn_condition,
    module_rank,
    n_global,
    shift_by,
    sigma_of_module,
    tpq_iso,
    tpq_quiver,
    twist_by_cycle,
)

G38 = geometry_of(3, 8)
G55 = geometry_of(5, 5)
B1 = CuspGeometry(1, (1,))
M1 = BundleTriple(SSeq(1, (1,)), 1, 2)
M38 = BundleTriple(SSeq(2, (1, 0)), 1, 2)

CASES = [(3, 7), (3, 8), (4, 5), (4, 6), (5, 5), (5, 6), (6, 7)]


def sequences_for(geom, max_r=3, lo=-2, hi=2):
    s = geom.cusp.s
    return st.integers(1, max_r).flatmap(
        lambda r: st.tuples(*[st.integers(lo, hi)] * (r * s)).map(
            lambda e: SSeq(s, e)
        )
    )


# ------------------------------------------------------------- geometry


def test_geometry_examples():
    g = geometry_of(3, 7)
    assert (g.cusp.s, g.cusp.b) == (1, (1,))
    g = geometry_of(4, 6)
    assert (g.cusp.s, g.cusp.b) == (2, (2, 0))
    assert (G55.cusp.s, G55.t, G55.cusp.b) == (2, 2, (1, 1))
    assert (G38.cusp.s, G38.cusp.b, G38.t) == (2, (1, 0), None)
    g = geometry_of(6, 7)
    assert (g.cusp.s, g.t, g.cusp.b) == (5, 3, (1, 0, 1, 0, 0))


def test_geometry_rejects_non_cusps():
    with pytest.raises(ValueError):
        geometry_of(2, 9)
    with pytest.raises(ValueError):
        geometry_of(4, 3)
    with pytest.raises(ValueError):
        geometry_of(3, 6)  # 1/3 + 1/6 = 1/2 exactly
    with pytest.raises(ValueError):
        geometry_of(4, 4)


def test_a_directly_built_geometry_must_be_geometry_of():
    assert TpqGeometry(3, 8, CuspGeometry(2, (1, 0)), None, TpqCase.P3) == G38
    wrong = [
        # The cycle of T_3,7 under T_3,8: descend would split M([1],1,-1)
        # on a cycle that T_3,8's cover does not have.
        (3, 8, CuspGeometry(1, (1,)), None, TpqCase.P3),
        (3, 8, G38.cusp, 1, TpqCase.P3),
        (3, 8, G38.cusp, None, TpqCase.P4),
        (5, 5, G55.cusp, None, TpqCase.P5PLUS),
    ]
    for fields in wrong:
        with pytest.raises(ValueError, match=r"^not the double cover of T_\d,\d: "):
            TpqGeometry(*fields)
    with pytest.raises(ValueError, match="^p must be at least 3, got 2$"):
        TpqGeometry(2, 9, CuspGeometry(1, (1,)), None, TpqCase.P3)


# ---------------------------------------------------------------- sigma


def test_sigma_examples():
    assert apply_sigma(G38, SSeq(2, (1, 2, 3, 4))).entries == (1, 4, 3, 2)
    assert apply_sigma(G55, SSeq(2, (3, 9))).entries == (9, 3)
    assert apply_sigma(G38, SSeq(2, (7, 9))).entries == (7, 9)
    with pytest.raises(ValueError):
        apply_sigma(G38, SSeq(1, (1,)))


def test_sigma_symmetry_examples():
    assert is_sigma_symmetric(G38, SSeq(2, (1, 2, 1, 3)))
    assert not is_sigma_symmetric(G38, SSeq(2, (1, 2, 3, 4)))
    assert is_sigma_symmetric(G55, SSeq(2, (1, 1)))


def reference_sigma(geom, seq):
    # apply_sigma's index formula: entry i is entry axis - 1 - i, cyclic.
    e = seq.entries
    n = len(e)
    return tuple(e[(geom.axis - 1 - i) % n] for i in range(n))


def reference_is_sigma_symmetric(geom, seq):
    reflected = apply_sigma(geom, seq)
    return any(reflected == shift_by(seq, k) for k in range(seq.r))


def test_sigma_symmetry_matches_the_shift_by_definition():
    rng = random.Random(20020)
    seen = set()
    for p, q in CASES:
        geom = geometry_of(p, q)
        s = geom.cusp.s
        for _ in range(300):
            r = rng.randint(1, max(1, 8 // s))
            seq = SSeq(s, tuple(rng.randint(0, 1) for _ in range(r * s)))
            want = reference_is_sigma_symmetric(geom, seq)
            assert is_sigma_symmetric(geom, seq) == want, (p, q, seq)
            seen.add(want)
    assert seen == {True, False}


def test_sigma_symmetry_matches_the_reference_on_longer_words():
    # Random, periodic and nearly periodic words of up to 16 blocks; every
    # other one is followed by its own reflection, which often makes the
    # whole word sigma-symmetric.
    rng = random.Random(20023)
    seen = set()
    for p, q in CASES:
        geom = geometry_of(p, q)
        s = geom.cusp.s
        for k in range(120):
            entries = longer_word(rng, s, k % 3)
            if k % 2:
                entries += apply_sigma(geom, SSeq(s, entries)).entries
            seq = SSeq(s, entries)
            assert apply_sigma(geom, seq).entries == reference_sigma(geom, seq)
            assert tpq._reflect(geom, seq) == canonical_form(apply_sigma(geom, seq)).entries
            want = reference_is_sigma_symmetric(geom, seq)
            assert is_sigma_symmetric(geom, seq) == want, (p, q, seq)
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("p,q", CASES)
def test_b_sequence_is_sigma_symmetric(p, q):
    geom = geometry_of(p, q)
    assert is_sigma_symmetric(geom, geom.cusp.b_sequence)


@pytest.mark.parametrize("p,q", CASES)
@given(data=st.data())
def test_sigma_involution_and_shift_orbits(p, q, data):
    geom = geometry_of(p, q)
    seq = data.draw(sequences_for(geom))
    k = data.draw(st.integers(-4, 4))
    assert apply_sigma(geom, seq).entries == reference_sigma(geom, seq)
    assert apply_sigma(geom, apply_sigma(geom, seq)) == seq
    assert canonical_form(apply_sigma(geom, shift_by(seq, k))) == canonical_form(
        apply_sigma(geom, seq)
    )
    assert tpq._reflect(geom, seq) == canonical_form(apply_sigma(geom, seq)).entries


def test_sigma_of_module_examples():
    got = sigma_of_module(G38, BundleTriple(SSeq(2, (1, 2, 3, 4)), 1, Fraction(5)))
    assert got.seq.entries == canonical_form(SSeq(2, (1, 4, 3, 2))).entries
    assert (got.m, got.lam) == (1, Fraction(1, 5))
    fixed = BundleTriple(SSeq(2, (1, 1)), 2, Fraction(1))
    assert sigma_of_module(G55, fixed) == fixed
    with pytest.raises(KahnViolation):
        sigma_of_module(G38, BundleTriple(SSeq(2, (0, 0)), 1, Fraction(1)))


@pytest.mark.parametrize(
    "triple",
    [
        BundleTriple(SSeq(1, (1,)), 1, 2),  # another s
        BundleTriple(SSeq(2, (0, -1)), 1, 2),  # fails Kahn's test
        BundleTriple(SSeq(1, (-1,)), 1, 2),  # both: the s is named first
    ],
    ids=["other-s", "kahn", "both"],
)
def test_sigma_of_module_rejects_as_classify_label_does(triple):
    with pytest.raises(ValueError) as ours:
        sigma_of_module(G38, triple)
    with pytest.raises(ValueError) as theirs:
        classify_label(triple, G38.cusp)
    assert type(ours.value) is type(theirs.value)
    assert str(ours.value) == str(theirs.value)


@given(data=st.data())
def test_sigma_of_module_is_an_involution(data):
    seq = data.draw(sequences_for(G38, lo=0, hi=2))
    lam = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    triple = BundleTriple(canonical_form(seq), 1, lam)
    if all(v == 0 for v in seq.entries) and lam == 1:
        return
    back = sigma_of_module(G38, sigma_of_module(G38, triple))
    assert back == triple  # canonical forms make shift-equivalence equality
    assert back.lam == triple.lam


# Beyond the seven geometries of SIGMA_CASES, with all three TpqCases.
BEYOND_SIGMA_CASES = [(3, 9), (3, 11), (4, 7), (4, 9), (5, 7), (6, 6), (7, 8)]


def test_descent_is_sigma_invariant_beyond_the_sigma_cases():
    # descend(sigma t) is descend(t), label by label up to tpq_iso, for a
    # fixed seeded count of module labels per geometry.  Every other word is
    # followed by its own reflection, which often makes it sigma-symmetric.
    rng = random.Random(20033)
    start = time.perf_counter()
    cases, kinds = set(), set()
    for p, q in BEYOND_SIGMA_CASES:
        geom = geometry_of(p, q)
        cases.add(geom.case_tag)
        s = geom.cusp.s
        checked = 0
        while checked < 150:
            entries = tuple(rng.randint(-1, 2) for _ in range(s * rng.randint(1, 3)))
            if checked % 2:
                entries += apply_sigma(geom, SSeq(s, entries)).entries
            lam = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 5)])
            triple = BundleTriple(canonical_form(SSeq(s, entries)), rng.randint(1, 3), lam)
            if not (is_aperiodic(triple.seq) and kahn_condition(triple)):
                continue
            down = descend(geom, classify_label(triple, geom.cusp))
            flipped = classify_label(sigma_of_module(geom, triple), geom.cusp)
            flipped_down = descend(geom, flipped)
            assert len(flipped_down) == len(down), (p, q, triple)
            for a, b in zip(down, flipped_down):
                assert tpq_iso(geom, a, b), (p, q, triple)
            kinds.update(lab.kind for lab in down)
            checked += 1
    assert cases == set(TpqCase)
    assert kinds == {TpqKind.SINGLE, TpqKind.SPLIT}
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"{elapsed:.2f} s"


# -------------------------------------------------------------- labels


def test_label_validation():
    with pytest.raises(TypeError):
        TpqFree(G38, m=1)  # the free label carries no parameters
    with pytest.raises(TypeError):
        TpqSingle(geometry=G38, seq=SSeq(2, (1, 2)), m=1, lam=3, sign=1)
    with pytest.raises(ValueError):
        TpqSingle(
            geometry=G38, seq=SSeq(2, (1, 0)), m=1, lam=1
        )  # sigma-symmetric with lam=1 must split
    with pytest.raises(ValueError):
        TpqBranch(
            geometry=G38, seq=SSeq(2, (1, 2, 3, 4)), m=1,
            sign=1, branch=1,
        )  # not sigma-symmetric
    with pytest.raises(ValueError):
        TpqBranch(
            geometry=G38, seq=SSeq(2, (0, 0)), m=1,
            sign=1, branch=1,
        )  # zero sequence only splits at sign -1
    lab = TpqBranch(
        geometry=G38, seq=SSeq(2, (1, 0)), m=1, sign=-1, branch=2
    )
    assert str(lab) == "N2([1,0],1,-1)"


@pytest.mark.parametrize("sign,branch", [(1.0, 1), (True, 1), (1, 1.0), (1, True)])
def test_branch_labels_take_int_sign_and_branch(sign, branch):
    # 1.0 and True equal 1 but would print as "1.0" and "True" in the label.
    with pytest.raises(ValueError, match="must be"):
        TpqBranch(G38, SSeq(2, (1, 0)), 1, sign, branch)


# -------------------------------------------------------------- descend


def test_descend_free():
    labs = descend(G38, free_label(G38.cusp))
    assert [lab.kind for lab in labs] == [TpqKind.FREE]
    assert str(labs[0]) == "A'"


def test_descend_sigma_symmetric_generic_lam_stays_single():
    lab = classify_label(BundleTriple(SSeq(2, (1, 2, 1, 3)), 1, Fraction(5)), G38.cusp)
    got = descend(G38, lab)
    assert [g.kind for g in got] == [TpqKind.SINGLE]
    assert str(got[0]) == "N([1,2,1,3],1,5)"


def test_descend_splits_at_sign():
    lab = classify_label(BundleTriple(SSeq(2, (1, 0)), 1, Fraction(-1)), G38.cusp)
    got = descend(G38, lab)
    assert [str(g) for g in got] == ["N1([1,0],1,-1)", "N2([1,0],1,-1)"]


def test_descend_checks_symmetry_once_and_nothing_else(monkeypatch):
    # The surface label is checked by construction; descending a split one
    # tests sigma-symmetry once and re-checks nothing.
    lab = classify_label(BundleTriple(SSeq(2, (1, 0)), 1, Fraction(-1)), G38.cusp)
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in [(tpq, "is_sigma_symmetric"),
                         (tpq, "_canonical_triple"), (cusp, "canonical_form"),
                         (cusp, "is_aperiodic"), (cusp, "classify_label")]:
        counting(module, name)
    got = descend(G38, lab)
    assert [str(g) for g in got] == ["N1([1,0],1,-1)", "N2([1,0],1,-1)"]
    assert calls == ["is_sigma_symmetric"]


def test_curve_labels_check_without_the_rank(monkeypatch):
    # A curve label has no rank, so its check computes none.
    calls = []
    real = cusp.module_rank

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cusp, "module_rank", counted)
    single = TpqSingle(G38, SSeq(2, (3, 4, 1, 2)), 1, Fraction(5))
    branch = TpqBranch(G38, SSeq(2, (1, 0)), 1, -1, 2)
    assert (str(single), str(branch)) == ("N([1,2,3,4],1,5)", "N2([1,0],1,-1)")
    assert calls == []


# Each call, given the other kind of geometry -> the kind it needs.
WRONG_KIND = {
    "CMModuleLabel-free": (lambda: CMModuleLabel(G38, None, 1), "CuspGeometry"),
    "CMModuleLabel-module": (lambda: CMModuleLabel(G38, M38, 1), "CuspGeometry"),
    "free_label": (lambda: free_label(G38), "CuspGeometry"),
    "classify_label": (lambda: classify_label(M38, G38), "CuspGeometry"),
    "module_rank": (lambda: module_rank(M38, G38), "CuspGeometry"),
    "n_global": (lambda: n_global(M38, G38), "CuspGeometry"),
    "twist_by_cycle": (lambda: twist_by_cycle(M38.seq, G38), "CuspGeometry"),
    "enumerate_rank": (lambda: enumerate_rank(G38, 1), "CuspGeometry"),
    "family_counts": (lambda: family_counts(G38, 2), "CuspGeometry"),
    "build_tube": (lambda: build_tube(G38, M38.seq, 2, 1), "CuspGeometry"),
    "cusp_quiver": (lambda: cusp_quiver(G38, 1, 1), "CuspGeometry"),
    "TpqFree": (lambda: TpqFree(B1), "TpqGeometry"),
    "TpqSingle": (lambda: TpqSingle(B1, M1.seq, 1, 2), "TpqGeometry"),
    "TpqBranch": (lambda: TpqBranch(B1, M1.seq, 1, 1, 1), "TpqGeometry"),
    "apply_sigma": (lambda: apply_sigma(B1, M1.seq), "TpqGeometry"),
    "is_sigma_symmetric": (lambda: is_sigma_symmetric(B1, M1.seq), "TpqGeometry"),
    "sigma_of_module": (lambda: sigma_of_module(B1, M1), "TpqGeometry"),
    "descend-free": (lambda: descend(B1, free_label(B1)), "TpqGeometry"),
    "descend-module": (lambda: descend(B1, classify_label(M1, B1)), "TpqGeometry"),
    "tpq_quiver-rank": (lambda: tpq_quiver(B1, 1, max_base_rank=1), "TpqGeometry"),
    "tpq_quiver-bases": (lambda: tpq_quiver(B1, 1, bases=[((1,), 2)]), "TpqGeometry"),
}


@pytest.mark.parametrize("case", WRONG_KIND)
def test_a_geometry_of_the_wrong_kind_is_a_value_error(case):
    call, kind = WRONG_KIND[case]
    with pytest.raises(ValueError, match=f"^expected a {kind}, got "):
        call()


def test_descend_rejects_other_geometry():
    with pytest.raises(ValueError):
        descend(G38, free_label(G55.cusp))


# -------------------------------------------------------------- tpq_iso


def single(seq, m, lam, geom=G38):
    return TpqSingle(
        geometry=geom, seq=SSeq(geom.cusp.s, seq), m=m,
        lam=Fraction(lam),
    )


def test_iso_examples():
    assert tpq_iso(G38, single((1, 2), 1, 3), single((1, 2), 1, Fraction(1, 3)))
    assert tpq_iso(
        G38, single((1, 2, 3, 4), 1, 5), single((1, 4, 3, 2), 1, Fraction(1, 5))
    )
    assert not tpq_iso(G38, single((1, 2), 1, 3), single((1, 2), 1, 5))
    a = TpqBranch(
        geometry=G38, seq=SSeq(2, (1, 0)), m=1, sign=-1, branch=1
    )
    b = TpqBranch(
        geometry=G38, seq=SSeq(2, (1, 0)), m=1, sign=-1, branch=2
    )
    assert not tpq_iso(G38, a, b)
    assert tpq_iso(G38, a, a)


def test_iso_rejects_other_geometry():
    a = single((1, 2), 1, 3)
    for geom, b in [(G55, a), (G38, TpqFree(G55)), (G38, single((1, 0), 1, 3, G55))]:
        with pytest.raises(ValueError, match="^labels belong to a different geometry$"):
            tpq_iso(geom, a, b)


def test_iso_mixed_kinds_differ():
    free = TpqFree(geometry=G38)
    assert not tpq_iso(G38, free, single((1, 2), 1, 3))
    assert tpq_iso(G38, free, TpqFree(geometry=G38))


@given(data=st.data())
def test_iso_is_symmetric(data):
    seqs = st.sampled_from([(1, 2), (1, 2, 3, 4), (0, 1), (2, 2)])
    a = single(data.draw(seqs), 1, data.draw(st.sampled_from([3, 5, Fraction(1, 3)])))
    b = single(data.draw(seqs), 1, data.draw(st.sampled_from([3, 5, Fraction(1, 3)])))
    assert tpq_iso(G38, a, b) == tpq_iso(G38, b, a)
