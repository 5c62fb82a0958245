"""Sequence arithmetic: shifts, aperiodicity, canonical forms, enumeration.

The independent reference here is a brute-force model: materialize all r
rotations of a sequence and take set minima / dedup directly.  On boxes
beyond brute force, enumeration is checked against the next-prenecklace
loop that enumerate_canonical used before the one block-Lyndon walk.
"""

import gc
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcm import (
    SSeq,
    canonical_form,
    enumerate_canonical,
    geometry_of,
    is_aperiodic,
    is_sigma_symmetric,
    shift_by,
)


def rotations(s, entries):
    n = len(entries)
    return [entries[k:] + entries[:k] for k in range(0, n, s)]


def brute_canonical(s, entries):
    return min(rotations(s, entries))


def brute_aperiodic(s, entries):
    n = len(entries)
    for period in range(s, n, s):
        if n % period == 0 and entries == entries[:period] * (n // period):
            return False
    return True


def reference_canonical_form(seq):
    """canonical_form as it was first written: every rotation built by
    concatenation, the sequence itself returned when no rotation is less."""
    e = seq.entries
    best = e
    for cut in range(seq.s, len(e), seq.s):
        rot = e[cut:] + e[:cut]
        if rot < best:
            best = rot
    return seq if best is e else SSeq(seq.s, best)


def brute_enumerate(s, max_r, lo, hi):
    out = []
    for r in range(1, max_r + 1):
        reps = set()
        for tup in product(range(lo, hi + 1), repeat=r * s):
            if brute_aperiodic(s, tup):
                reps.add(brute_canonical(s, tup))
        out.extend(sorted(reps))
    return out


def reference_enumerate_canonical(s, max_r, lo, hi):
    """enumerate_canonical as a next-prenecklace loop, before one walk served
    both enumerations: raise the last entry below hi, fill the rest of its
    block with lo, repeat the prefix up to there, and keep the word when
    its period p is its length."""
    found = []
    for n in range(s, max_r * s + 1, s):
        a = [lo] * n
        p = s
        while True:
            if p == n:
                found.append(tuple(a))
            i = n - 1
            while i >= 0 and a[i] == hi:
                i -= 1
            if i < 0:
                break
            a[i] += 1
            p = (i // s + 1) * s
            head = a[: i + 1] + [lo] * (p - i - 1)
            a = (head * (n // p + 1))[:n]
    return found


@st.composite
def sseqs(draw, max_s=3, max_r=4, lo=-3, hi=3):
    s = draw(st.integers(1, max_s))
    r = draw(st.integers(1, max_r))
    entries = draw(st.tuples(*[st.integers(lo, hi)] * (r * s)))
    return SSeq(s, entries)


# ---------------------------------------------------------------- SSeq


def test_sseq_rejects_bad_input():
    with pytest.raises(ValueError):
        SSeq(0, (1,))
    with pytest.raises(ValueError):
        SSeq(1, ())
    with pytest.raises(ValueError):
        SSeq(2, (1, 2, 3))
    with pytest.raises(ValueError):
        SSeq(1, (1, "2"))


def test_sseq_r_and_str():
    seq = SSeq(2, (1, 2, 3, 4))
    assert seq.r == 2
    assert str(seq) == "[1,2,3,4]"


# ------------------------------------------------------------- shift_by


def test_shift_examples():
    assert shift_by(SSeq(2, (1, 2, 3, 4)), 1).entries == (3, 4, 1, 2)
    assert shift_by(SSeq(1, (5,)), 7).entries == (5,)
    assert shift_by(SSeq(2, (1, 2)), 1).entries == (1, 2)


@pytest.mark.parametrize("k", [True, 1.5])
def test_shift_by_takes_only_an_int(k):
    with pytest.raises(ValueError, match=f"^k must be an integer, got {k}$"):
        shift_by(SSeq(1, (1, 2)), k)


@given(seq=sseqs(), a=st.integers(-10, 10), b=st.integers(-10, 10))
def test_shift_composes(seq, a, b):
    assert shift_by(seq, 0) == seq
    assert shift_by(shift_by(seq, a), b) == shift_by(seq, a + b)


# --------------------------------------------------------- is_aperiodic


def test_aperiodic_examples():
    assert not is_aperiodic(SSeq(2, (1, 0, 1, 0)))
    assert is_aperiodic(SSeq(2, (1, 0, 1, 1)))
    assert is_aperiodic(SSeq(2, (0, 1)))


def test_aperiodic_respects_s():
    # Period 1 as a plain tuple, but the shortest s-sequence has length 2.
    assert is_aperiodic(SSeq(2, (7, 7)))
    assert not is_aperiodic(SSeq(1, (7, 7)))


@given(seq=sseqs(), k=st.integers(-5, 5))
def test_aperiodic_shift_invariant(seq, k):
    assert is_aperiodic(seq) == is_aperiodic(shift_by(seq, k))


@given(seq=sseqs())
def test_aperiodic_matches_brute_force(seq):
    assert is_aperiodic(seq) == brute_aperiodic(seq.s, seq.entries)


# ------------------------------------------------------- canonical_form


def test_canonical_examples():
    assert canonical_form(SSeq(2, (3, 4, 1, 2))).entries == (1, 2, 3, 4)
    assert canonical_form(SSeq(2, (1, 0))).entries == (1, 0)
    assert canonical_form(SSeq(1, (2, -1, 0, -1))).entries == (-1, 0, -1, 2)


@given(seq=sseqs(), k=st.integers(-5, 5))
def test_canonical_constant_on_orbits(seq, k):
    canon = canonical_form(seq)
    assert canonical_form(shift_by(seq, k)) == canon
    assert canonical_form(canon) == canon
    assert canon.entries == brute_canonical(seq.s, seq.entries)


def test_canonical_returns_a_least_sequence_itself():
    least = SSeq(2, (1, 2, 3, 4))
    assert canonical_form(least) is least
    rotated = SSeq(2, (3, 4, 1, 2))
    assert canonical_form(rotated) is not rotated


def seeded_sequences(seed, count):
    """Random sequences with s in {1, 2, 3}; every third one repeats a
    shorter word, so periodic sequences are among them."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        s = rng.randint(1, 3)
        word = tuple(rng.randint(-2, 2) for _ in range(s * rng.randint(1, 3)))
        out.append(SSeq(s, word * (rng.randint(2, 3) if k % 3 == 0 else 1)))
    return out


@pytest.mark.parametrize("seed", [3, 17])
def test_canonical_matches_the_reference(seed):
    for seq in seeded_sequences(seed, 400):
        want = reference_canonical_form(seq)
        got = canonical_form(seq)
        assert got == want, seq
        assert (got is seq) == (want is seq), seq
        assert type(got.entries) is tuple


def longer_word(rng, s, kind):
    """Entries of up to 16 blocks of s: kind 0 is random, kind 1 a periodic
    word w^k, kind 2 a periodic word with one block changed."""
    if kind == 0:
        return tuple(rng.randint(-1, 1) for _ in range(s * rng.randint(1, 16)))
    q = rng.randint(1, 8)
    word = [rng.randint(-1, 1) for _ in range(s * q)] * rng.randint(2, 16 // q)
    if kind == 2:
        word[rng.randrange(len(word))] += rng.choice((-1, 1))
    return tuple(word)


@pytest.mark.parametrize("seed", [5, 23])
def test_rotation_answers_match_the_references_on_longer_words(seed):
    rng = random.Random(seed)
    seen = set()
    for k in range(900):
        s = rng.randint(1, 4)
        seq = SSeq(s, longer_word(rng, s, k % 3))
        want = reference_canonical_form(seq)
        got = canonical_form(seq)
        assert got == want, seq
        assert (got is seq) == (want is seq), seq
        aperiodic = brute_aperiodic(seq.s, seq.entries)
        assert is_aperiodic(seq) == aperiodic, seq
        seen.add((aperiodic, got is seq))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_rotation_answers_are_linear_on_long_sequences():
    # 200,000 entries: trying every rotation would take minutes.
    lone = SSeq(1, (1,) + (0,) * 199999)
    bump = SSeq(2, (1, 0) * 99999 + (2, 0))
    periodic = SSeq(2, (0, 1) * 100000)
    start = time.perf_counter()
    assert is_aperiodic(lone)
    assert canonical_form(lone).entries == (0,) * 199999 + (1,)
    assert is_sigma_symmetric(geometry_of(3, 7), lone)
    assert is_aperiodic(bump)
    assert canonical_form(bump) is bump
    assert is_sigma_symmetric(geometry_of(3, 8), bump)
    assert not is_aperiodic(periodic)
    assert canonical_form(periodic) is periodic
    assert is_sigma_symmetric(geometry_of(3, 8), periodic)
    assert time.perf_counter() - start < 5


# -------------------------------------------------- enumerate_canonical


def test_enumerate_examples():
    assert [q.entries for q in enumerate_canonical(1, 2, 0, 1)] == [
        (0,),
        (1,),
        (0, 1),
    ]
    assert [q.entries for q in enumerate_canonical(2, 1, 0, 1)] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    assert [q.entries for q in enumerate_canonical(1, 1, 5, 5)] == [(5,)]
    # longer than the default recursion limit: one value leaves one word
    assert [q.entries for q in enumerate_canonical(1, 1500, 5, 5)] == [(5,)]


def test_enumerate_rejects_bad_ranges():
    with pytest.raises(ValueError):
        enumerate_canonical(1, 2, 3, 1)
    with pytest.raises(ValueError):
        enumerate_canonical(1, 0, 0, 1)
    with pytest.raises(ValueError):
        enumerate_canonical(0, 1, 0, 1)
    for lo, hi in [(0, 1.5), (0.0, 1), (False, True)]:
        with pytest.raises(ValueError):
            enumerate_canonical(1, 2, lo, hi)
    for s, max_r in [(1.0, 2), (True, 2), (1, 2.0), (1, True)]:
        with pytest.raises(ValueError, match="must be an integer"):
            enumerate_canonical(s, max_r, 0, 1)


def test_enumerated_sequences_are_publicly_constructible():
    for seq in enumerate_canonical(2, 3, -1, 1):
        assert all(type(e) is int for e in seq.entries)
        assert seq == SSeq(2, seq.entries)


@pytest.mark.parametrize(
    "s,max_r,lo,hi",
    [
        (1, 3, 0, 2), (1, 3, -1, 1), (2, 2, 0, 1), (2, 3, -1, 0), (3, 2, 0, 1),
        (1, 6, 0, 2), (2, 3, 0, 2), (4, 2, -1, 0),
        (3, 2, 1, 1), (1, 4, -3, -2), (3, 2, 2, 3),
    ],
)
def test_enumerate_matches_brute_force(s, max_r, lo, hi):
    got = [q.entries for q in enumerate_canonical(s, max_r, lo, hi)]
    assert got == brute_enumerate(s, max_r, lo, hi)
    assert got == reference_enumerate_canonical(s, max_r, lo, hi)
    assert len(set(got)) == len(got)


@pytest.mark.parametrize(
    "s,max_r,lo,hi",
    [
        (1, 7, -2, 2), (2, 4, -1, 1), (3, 3, -1, 1), (4, 2, -2, 1), (1, 14, 0, 1),
        (1, 9, -2, 2), (3, 4, -1, 1),
    ],
)
def test_enumerate_matches_the_reference_loop(s, max_r, lo, hi):
    # boxes beyond brute force: the next-prenecklace loop the walk replaced
    got = [q.entries for q in enumerate_canonical(s, max_r, lo, hi)]
    assert got == reference_enumerate_canonical(s, max_r, lo, hi)


def test_enumerate_leaves_no_garbage_cycle():
    # A cycle would keep each call's state alive until a full collection,
    # so a long sweep's memory would grow with the number of calls.
    gc.collect()
    gc.disable()
    try:
        enumerate_canonical(2, 3, 0, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=30)
@given(s=st.integers(1, 3), lo=st.integers(-3, 3), width=st.integers(0, 2))
def test_enumerate_r1_count(s, lo, width):
    # Every length-s sequence is aperiodic and its own canonical form.
    hi = lo + width
    assert len(enumerate_canonical(s, 1, lo, hi)) == (width + 1) ** s
