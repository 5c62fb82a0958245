"""Classification labels, rank-indexed enumeration, family counting.

The enumeration is cross-checked against a deliberately dumber search:
iterate (m, sequence) the other way around under the coarser bound
sum(d) <= rank/m + r*sum(b) and keep whatever has the right rank.  The
Lyndon walk of the candidate search is cross-checked against the earlier
search over every word, which it replaced, filtered by brute force.
"""

import gc
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from cuspcm import cohomology, cusp, sequences
from cuspcm import (
    BundleTriple,
    CMModuleLabel,
    CuspGeometry,
    FamilyDescriptor,
    KahnViolation,
    LambdaBase,
    SSeq,
    canonical_form,
    classify_label,
    enumerate_rank,
    family_counts,
    free_label,
    is_aperiodic,
    module_rank,
)

B1 = CuspGeometry(1, [1])


def brute_families(geom, rank):
    """(entries, m) pairs of generic rank `rank`, ordered by (m, length)."""
    found = []
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
                if module_rank(BundleTriple(seq, m, Fraction(7)), geom) == rank:
                    found.append((entries, m))
    return found


def reference_twist_candidates(geom, r, slack):
    """Every degree tuple d >= 0 of length r*s whose twist d - B^r has
    exactly slack sections at m = 1, rotations and periodic words included,
    in lexicographic order: the candidate search before it walked only
    block prenecklaces."""
    b = geom.b * r
    n = geom.s * r
    vmax = slack + 1
    buf = [0] * n
    out = []

    def close(sigma, pos):
        return sigma - 1 if pos else 0

    def rec(i, closed, cur_sum, cur_pos, cur_open, seen_neg, head_sum, head_pos,
            head_any):
        if i == n:
            if not seen_neg:
                h = head_sum
            elif cur_open and head_any:
                h = closed + close(cur_sum + head_sum, cur_pos or head_pos)
            else:
                h = closed
                if cur_open:
                    h += close(cur_sum, cur_pos)
                if head_any:
                    h += close(head_sum, head_pos)
            if h == slack:
                out.append(tuple(buf))
            return
        head_lb = close(head_sum, head_pos) if head_any else 0
        for v in range(-b[i], vmax + 1):
            buf[i] = v + b[i]
            if v < 0:
                done = closed + (close(cur_sum, cur_pos) if cur_open else 0)
                if done + head_lb > slack:
                    continue
                rec(i + 1, done, 0, False, False, True, head_sum, head_pos, head_any)
            elif not seen_neg:
                hs, hp = head_sum + v, head_pos or v > 0
                if close(hs, hp) > slack:
                    break
                rec(i + 1, closed, 0, False, False, False, hs, hp, True)
            else:
                cs, cp = cur_sum + v, cur_pos or v > 0
                if closed + close(cs, cp) + head_lb > slack:
                    break
                rec(i + 1, closed, cs, cp, True, True, head_sum, head_pos, head_any)

    rec(0, 0, 0, False, False, False, 0, False, False)
    return out


def is_block_lyndon(entries, s):
    """True when every rotation by a nonzero multiple of s is strictly
    greater: exactly the canonical aperiodic sequences."""
    return all(entries[c:] + entries[:c] > entries for c in range(s, len(entries), s))


# The benchmark's growth tables: (b, largest rank).
GROWTH_BOXES = [((1,), 9), ((2,), 7), ((1, 0), 6), ((1, 1, 0), 4)]


# --------------------------------------------------------- validation


def test_validate_cusp_examples():
    assert CuspGeometry(1, [1]).b == (1,)
    assert CuspGeometry(3, [1, 0, 0]).s == 3
    with pytest.raises(ValueError):
        CuspGeometry(2, [0, 0])
    with pytest.raises(ValueError):
        CuspGeometry(1, [0])
    with pytest.raises(ValueError):
        CuspGeometry(0, [])


# --------------------------------------------------------------- labels


def test_classify_label_examples():
    lab = classify_label(BundleTriple(SSeq(1, (1,)), 1, Fraction(1)), B1)
    assert lab.rank == 2 and lab.kind == "module"
    assert str(lab) == "M([1],1,1)"
    with pytest.raises(KahnViolation):
        classify_label(BundleTriple(SSeq(1, (0,)), 1, Fraction(1)), B1)
    geom = CuspGeometry(2, [1, 0])
    with pytest.raises(ValueError):
        classify_label(BundleTriple(SSeq(2, (1, 0, 1, 0)), 1, Fraction(2)), geom)
    with pytest.raises(ValueError):
        classify_label(BundleTriple(SSeq(2, (1, 0)), 1, Fraction(2)), B1)


def test_classify_label_checks_each_rule_once(monkeypatch):
    # The component count and Kahn's test run once per label, in module_rank;
    # the aperiodicity check runs before them.
    calls = []

    def counting(name):
        real = getattr(cohomology, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cohomology, name, counted)

    counting("_same_s")
    counting("kahn_condition")
    lab = classify_label(BundleTriple(SSeq(2, (2, 0, 1, 3)), 1, Fraction(-2)),
                         CuspGeometry(2, (1, 0)))
    assert (str(lab), lab.rank) == ("M([1,3,2,0],1,-2)", 6)
    assert calls == ["_same_s", "kahn_condition"]


def test_classify_label_scans_the_rotations_once(monkeypatch):
    # One rotation scan answers both the aperiodicity check and the
    # canonical form; a sequence that is already least is kept, not copied.
    real = sequences._least_rotation
    scans = []

    def counted(entries, s):
        scans.append(entries)
        return real(entries, s)

    monkeypatch.setattr(sequences, "_least_rotation", counted)
    least = SSeq(1, (0, 2))
    assert classify_label(BundleTriple(least, 1, Fraction(3)), B1).triple.seq is least
    assert classify_label(BundleTriple(SSeq(1, (2, 0)), 1, Fraction(3)), B1).triple.seq == least
    assert scans == [(0, 2), (2, 0)]
    # The periodic check comes first: [1,0,1,0] would also fail the
    # component count of B1.
    with pytest.raises(ValueError, match=r"^periodic sequence \[1,0,1,0\] does not label"):
        classify_label(BundleTriple(SSeq(2, (1, 0, 1, 0)), 1, Fraction(2)), B1)
    assert len(scans) == 3


def test_classify_label_canonicalizes():
    lab = classify_label(BundleTriple(SSeq(1, (2, 0)), 1, Fraction(3)), B1)
    assert lab.triple.seq.entries == (0, 2)


def test_free_label():
    lab = free_label(B1)
    assert lab.is_free and lab.rank == 1 and str(lab) == "A"


@pytest.mark.parametrize("triple,rank", [
    (BundleTriple(SSeq(1, (2,)), 1, 3), 7),  # M([2],1,3) has rank 2, not 7
    (BundleTriple(SSeq(1, (2, 0)), 1, 3), 2),  # the right rank, not canonical
    (BundleTriple(SSeq(1, (1, 1)), 1, 3), 4),  # periodic
    (BundleTriple(SSeq(1, (0,)), 1, 1), 1),  # no module: Kahn's condition fails
    (BundleTriple(SSeq(1, (1, -1)), 1, 3), 2),  # no module: a negative entry
    (BundleTriple(SSeq(2, (1, 0)), 1, 3), 2),  # a sequence for s = 2
    (None, 2),  # the free module has rank 1
    (None, True),  # a bool is not a rank
], ids=str)
def test_a_hand_built_label_is_checked(triple, rank):
    with pytest.raises(ValueError):
        CMModuleLabel(B1, triple, rank=rank)


def test_a_hand_built_copy_of_a_label_is_accepted():
    for lab in (
        classify_label(BundleTriple(SSeq(1, (2,)), 1, 3), B1),
        classify_label(BundleTriple(SSeq(1, (1,)), 3, 1), B1),
        free_label(B1),
    ):
        copy = CMModuleLabel(lab.geometry, lab.triple, lab.rank)
        assert copy == lab and hash(copy) == hash(lab) and str(copy) == str(lab)


# ---------------------------------------------------------- enumeration


def test_rank_one_slice():
    piece = enumerate_rank(B1, 1)
    assert piece.free
    assert [(f.seq.entries, f.m, f.base) for f in piece.families] == [
        ((0,), 1, LambdaBase.NONZERO_EXCEPT_ONE),
        ((1,), 1, LambdaBase.NONZERO_EXCEPT_ONE),
    ]
    assert piece.exceptional == ()


def test_rank_two_slice():
    piece = enumerate_rank(B1, 2)
    assert not piece.free
    assert [(f.seq.entries, f.m, f.base) for f in piece.families] == [
        ((0,), 2, LambdaBase.NONZERO_EXCEPT_ONE),
        ((1,), 2, LambdaBase.NONZERO_EXCEPT_ONE),
        ((2,), 1, LambdaBase.ALL_NONZERO),
        ((0, 1), 1, LambdaBase.ALL_NONZERO),
        ((0, 2), 1, LambdaBase.ALL_NONZERO),
    ]
    assert [str(lab) for lab in piece.exceptional] == ["M([1],1,1)"]
    assert piece.exceptional[0].rank == 2


def test_rank_zero_rejected():
    with pytest.raises(ValueError):
        enumerate_rank(B1, 0)


@pytest.mark.parametrize("rank", [2.0, 2.5, True])
def test_a_non_int_rank_is_a_value_error(rank):
    # A float rank used to end in a bare TypeError inside the search.
    with pytest.raises(ValueError, match="rank must be an integer"):
        enumerate_rank(B1, rank)
    with pytest.raises(ValueError, match="r_max must be an integer"):
        family_counts(B1, rank)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_families_agree_with_brute_force(rank):
    got = sorted((f.seq.entries, f.m) for f in enumerate_rank(B1, rank).families)
    assert got == sorted(brute_families(B1, rank))


@pytest.mark.parametrize("geom", [B1, CuspGeometry(2, [1, 0]), CuspGeometry(2, [2, 0])])
def test_slices_are_sound_and_duplicate_free(geom):
    for rank in range(1, 5):
        piece = enumerate_rank(geom, rank)
        keys = set()
        for fam in piece.families:
            assert fam.rank == rank
            assert is_aperiodic(fam.seq) and canonical_form(fam.seq) == fam.seq
            generic = module_rank(BundleTriple(fam.seq, fam.m, Fraction(2)), geom)
            assert generic == rank
            key = (fam.seq.entries, fam.m)
            assert key not in keys
            keys.add(key)
        for lab in piece.exceptional:
            assert lab.rank == rank
            assert lab.triple.lam == 1
            assert lab.triple.seq == geom.b_sequence


def test_exceptional_ranks_follow_multiplicity():
    # M(B, m, 1) has rank m + 1, so rank r lists exactly M(B, r-1, 1).
    for rank in range(2, 6):
        (lab,) = enumerate_rank(B1, rank).exceptional
        assert lab.triple.m == rank - 1
        assert module_rank(lab.triple, B1) == rank


# --------------------------------------------------------------- counts


def test_family_counts_spot_values():
    table = family_counts(B1, 2)
    assert table.counts == {1: 2, 2: 5}
    assert [str(lab) for lab in table.exceptional[2]] == ["M([1],1,1)"]
    assert table.exceptional[1] == ()


def test_family_counts_rejects_bad_bound():
    with pytest.raises(ValueError):
        family_counts(B1, 0)


# ----------------------------------------------------- Lyndon candidates


@pytest.mark.parametrize(
    "b,r_max",
    GROWTH_BOXES + [((2, 0, 1, 0), 4), ((1, 0, 0, 1, 0), 4), ((3,), 7), ((0, 2), 6)],
    ids=str,
)
def test_candidates_are_the_reference_lyndon_words(b, r_max):
    geom = CuspGeometry(len(b), b)
    for r in range(1, r_max + 1):
        for slack in range(r_max - r + 1):
            every = reference_twist_candidates(geom, r, slack)
            want = [e for e in every if is_block_lyndon(e, geom.s)]
            assert cusp._twist_candidates(geom, r, slack) == want, (r, slack)


@pytest.mark.parametrize("b,r_max", GROWTH_BOXES, ids=str)
def test_the_walk_yields_exactly_the_families(b, r_max):
    # enumerate_rank's filter has nothing left to drop.
    geom = CuspGeometry(len(b), b)
    for rank in range(1, r_max + 1):
        walked = sum(
            len(cusp._twist_candidates(geom, r, rank // m - r))
            for r in range(1, rank + 1)
            for m in range(1, rank // r + 1)
            if rank % m == 0
        )
        assert walked == len(enumerate_rank(geom, rank).families), rank


@pytest.mark.parametrize("b,r_max", GROWTH_BOXES + [((1, 1, 0), 5)], ids=str)
def test_enumerate_rank_matches_the_reference_search(b, r_max, monkeypatch):
    geom = CuspGeometry(len(b), b)
    got = [enumerate_rank(geom, rank) for rank in range(1, r_max + 1)]
    monkeypatch.setattr(cusp, "_twist_candidates", reference_twist_candidates)
    assert got == [enumerate_rank(geom, rank) for rank in range(1, r_max + 1)]


def test_enumerate_rank_leaves_no_garbage_cycle():
    gc.collect()
    gc.disable()
    try:
        enumerate_rank(CuspGeometry(2, [1, 0]), 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_held_rank_slice_stays_small():
    # 31,293 families.  With the value classes built on __slots__ they held
    # 8.3 MiB on CPython 3.10, 3.11 and 3.12; with an instance __dict__,
    # 10.2-14.1 MiB.
    geom = CuspGeometry(3, (1, 1, 0))
    enumerate_rank(geom, 2)  # warm up, so that only the slice below is counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        piece = enumerate_rank(geom, 5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(piece.families) == 31293
    assert held < 9.0 * 2**20


# ------------------------------------------------------------ long cycles


def one_weight(s):
    """The cycle of s lines with one weight 1.  Its rank-1 families are the
    zero sequence and the s sequences of length s with a single entry 1."""
    return CuspGeometry(s, (1,) + (0,) * (s - 1))


@pytest.mark.parametrize("s", [2, 10, 50, 300])
def test_one_weight_rank_one_count(s):
    assert len(enumerate_rank(one_weight(s), 1).families) == s + 1


def test_a_cycle_longer_than_the_recursion_limit():
    piece = enumerate_rank(one_weight(1200), 1)
    assert len(piece.families) == 1201


@pytest.mark.parametrize(
    "b,ranks",
    [(b, range(1, r_max + 1)) for b, r_max in GROWTH_BOXES] + [((1, 1, 0), [5])],
    ids=str,
)
def test_enumerated_families_are_publicly_constructible(b, ranks):
    # The enumeration builds its sequences past the public check; each must
    # be what that check would have built.
    geom = CuspGeometry(len(b), b)
    for rank in ranks:
        for fam in enumerate_rank(geom, rank).families:
            entries = fam.seq.entries
            assert type(entries) is tuple
            assert all(type(e) is int for e in entries)
            assert fam.seq == SSeq(geom.s, entries)
            assert fam == FamilyDescriptor(fam.seq, fam.m, fam.base, rank)
