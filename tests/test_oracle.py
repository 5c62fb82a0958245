"""The linear-algebra oracle, checked against two slower references.

The package measures rk h in F/G: it projects the im f generators along the
glueing space G and eliminates sparse integer rows.  Two references measure
dim(im f + G) - dim G in F instead: a plain dense Gaussian elimination over
Fraction, reimplemented from scratch, and the earlier G-first path, which
puts the glueing vectors into the sparse eliminator before im f.  All must
report the same ranks.
"""

import random
import re
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcm import (
    BundleTriple,
    OracleSpace,
    SSeq,
    build_presentation,
    cohom_dims,
    enumerate_canonical,
    is_aperiodic,
    oracle_dims,
    rank_of_h,
    verify_formula,
    verify_grid,
)
from cuspcm import oracle
from cuspcm.oracle import _eliminate
from test_sequences import sseqs


def dense(vec, dim):
    out = [Fraction(0)] * dim
    for c, v in vec.items():
        out[c] = Fraction(v)
    return out


def dense_rank(rows):
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def reference_rank_of_h(triple):
    space = build_presentation(triple)
    g = [dense(vec, space.dim_f) for vec in space.g_basis]
    imf = [dense(vec, space.dim_f) for vec in space.imf_basis]
    dim_g = dense_rank(g)
    assert dim_g == len(space.g_basis)
    return dense_rank(g + imf) - dim_g


def _integer_rows(vectors):
    # Clearing denominators rescales each vector; spans are unchanged.
    rows = []
    for vec in vectors:
        den = 1
        for v in vec.values():
            den = den * v.denominator // gcd(den, v.denominator)
        rows.append({c: int(v * den) for c, v in vec.items()})
    return rows


def g_first_rank_of_h(triple):
    """dim(im f + G) - dim G in F: the glueing vectors are eliminated first
    and checked to be independent, then the im f generators that remain
    independent are counted."""
    space = build_presentation(triple)
    pivots = {}
    dim_g = _eliminate(_integer_rows(space.g_basis), pivots)
    assert dim_g == len(space.g_basis), "glueing vectors came out dependent"
    return _eliminate(_integer_rows(space.imf_basis), pivots)


def triple(s, entries, m=1, lam=2):
    return BundleTriple(SSeq(s, entries), m, Fraction(lam))


PRIME, DOUBLE_PRIME = 0, 1  # the two sides of a coordinate eps_{ik}


def coordinate_index(i, k, side, m):
    """Index of eps_{ik} (i, k 1-based) on a side in the (i, k, side)-
    lexicographic coordinate order of build_presentation."""
    return ((i - 1) * m + (k - 1)) * 2 + side


# ----------------------------------------------------------- the spaces


def test_coordinate_order_is_i_k_side():
    assert coordinate_index(1, 1, PRIME, 2) == 0
    assert coordinate_index(1, 1, DOUBLE_PRIME, 2) == 1
    assert coordinate_index(1, 2, PRIME, 2) == 2
    assert coordinate_index(2, 1, PRIME, 2) == 4


def test_presentation_single_position():
    lam = Fraction(5)
    space = build_presentation(triple(1, (0,), lam=lam))
    assert space.dim_f == 2
    assert space.g_basis == ({0: 1, 1: lam},)
    assert space.imf_basis == ({0: 1, 1: 1},)


def test_presentation_skips_negative_degrees():
    space = build_presentation(triple(1, (2, -1)))
    assert space.dim_f == 4
    i1p = coordinate_index(1, 1, PRIME, 1)
    i1d = coordinate_index(1, 1, DOUBLE_PRIME, 1)
    assert space.imf_basis == ({i1p: 1}, {i1d: 1})


def test_presentation_jordan_block():
    lam = Fraction(3)
    space = build_presentation(triple(1, (0,), m=2, lam=lam))
    e11 = {coordinate_index(1, 1, PRIME, 2): 1, coordinate_index(1, 1, DOUBLE_PRIME, 2): lam}
    e12 = {
        coordinate_index(1, 2, PRIME, 2): 1,
        coordinate_index(1, 2, DOUBLE_PRIME, 2): lam,
        coordinate_index(1, 1, DOUBLE_PRIME, 2): 1,
    }
    assert space.g_basis == (e11, e12)


@given(seq=sseqs(max_s=2, max_r=3), m=st.integers(1, 3))
def test_presentation_generator_counts(seq, m):
    space = build_presentation(BundleTriple(seq, m, Fraction(7)))
    rs = len(seq.entries)
    assert space.dim_f == 2 * m * rs
    assert len(space.g_basis) == m * rs
    expected = sum(2 * m for v in seq.entries if v > 0) + sum(
        m for v in seq.entries if v == 0
    )
    assert len(space.imf_basis) == expected


# ----------------------------------------------------------- rank of h


def test_rank_examples():
    assert rank_of_h(triple(1, (0,), lam=1)) == 0
    assert rank_of_h(triple(1, (0,), lam=2)) == 1
    assert rank_of_h(triple(1, (2, -1), lam=1)) == 2
    assert rank_of_h(triple(1, (2, -1), lam="4/7")) == 2


@settings(max_examples=40, deadline=None)
@given(seq=sseqs(max_s=2, max_r=2, lo=-2, hi=2), m=st.integers(1, 2),
       lam=st.sampled_from([1, -1, 2, "1/2", "-3/5"]))
def test_rank_matches_dense_reference(seq, m, lam):
    t = BundleTriple(seq, m, Fraction(lam))
    assert rank_of_h(t) == reference_rank_of_h(t)


def box_triples(rs_max):
    """Every case of the default `verify_grid` box, in sweep order."""
    for s in (1, 2, 3):
        for seq in enumerate_canonical(s, rs_max // s, -3, 3):
            for m in (1, 2, 3):
                for lam in (1, -1, 2, -2, Fraction(1, 2)):
                    yield BundleTriple(seq, m, Fraction(lam))


def test_rank_matches_g_first_elimination_on_the_box():
    cases = 0
    for t in box_triples(rs_max=5):
        assert rank_of_h(t) == g_first_rank_of_h(t), t
        cases += 1
    assert cases == 84_840


def _corrupt_presentation(monkeypatch, corrupt):
    # rank_of_h reads the presentation through the module global.
    real = oracle.build_presentation

    def bad(t):
        space = real(t)
        g = [dict(vec) for vec in space.g_basis]
        corrupt(g)
        return OracleSpace(space.dim_f, tuple(g), space.imf_basis)

    monkeypatch.setattr(oracle, "build_presentation", bad)


def _share_lead(g):
    lead = coordinate_index(1, 1, PRIME, 1)
    del g[1][coordinate_index(2, 1, PRIME, 1)]
    g[1][lead] = Fraction(1)


def _scale_lead(g):
    g[0][coordinate_index(1, 1, PRIME, 1)] = Fraction(2)


def _two_leads(g):
    g[0][coordinate_index(2, 1, PRIME, 1)] = Fraction(1)


def _drop_vector(g):
    del g[-1]


@pytest.mark.parametrize("corrupt", [_share_lead, _scale_lead, _two_leads, _drop_vector])
def test_rank_rejects_a_corrupt_glueing_space(monkeypatch, corrupt):
    t = triple(1, (0, 1), lam=3)
    assert rank_of_h(t) == 2
    _corrupt_presentation(monkeypatch, corrupt)
    with pytest.raises(ArithmeticError, match="corrupt presentation"):
        rank_of_h(t)


def random_triple(rng):
    """An aperiodic sequence with rs <= 40, m <= 6 and lam = p/q with
    |p|, |q| <= 10**6."""
    s = rng.randint(1, 4)
    r = rng.randint(1, 40 // s)
    while True:
        seq = SSeq(s, tuple(rng.randint(-3, 3) for _ in range(r * s)))
        if is_aperiodic(seq):
            break
    p = rng.choice((-1, 1)) * rng.randint(1, 10**6)
    q = rng.randint(1, 10**6)
    return BundleTriple(seq, rng.randint(1, 6), Fraction(p, q))


def test_formula_matches_oracle_beyond_the_box():
    rng = random.Random(20020)
    start = time.perf_counter()
    for _ in range(2_000):
        t = random_triple(rng)
        f = cohom_dims(t)
        o = oracle_dims(t)
        rk = rank_of_h(t)
        assert (f.h0, f.h1) == (o.h0, o.h1), t
        assert f.h0 - f.h1 == t.m * sum(t.seq.entries), t
        assert rk == t.m * f.theta - f.delta, t
    # About 1.5 s on a 2-vCPU VM; the bound catches a blow-up in coefficient
    # size or elimination work, not host noise.
    assert time.perf_counter() - start < 30


@given(seq=sseqs(max_s=2, max_r=2), m=st.integers(1, 2))
def test_rank_depends_only_on_the_lam_class(seq, m):
    away = {rank_of_h(BundleTriple(seq, m, lam)) for lam in (2, -1, Fraction(1, 3))}
    assert len(away) == 1


# ------------------------------------------------------ measured dims


def test_oracle_dims_examples():
    r = oracle_dims(triple(1, (0,), lam=1))
    assert (r.h0, r.h1) == (1, 1)
    r = oracle_dims(triple(2, (1, 1), m=2, lam=5))
    assert (r.h0, r.h1) == (4, 0)
    r = oracle_dims(triple(1, (0, -1), lam=7))
    assert (r.h0, r.h1, r.theta) == (0, 1, 1)


def test_verify_formula_examples():
    assert verify_formula(triple(1, (0,), lam=1)).agree
    rep = verify_formula(triple(1, (1, -1, 2), lam=3))
    assert rep.agree
    assert (rep.formula.h0, rep.formula.h1) == (2, 0)


@settings(max_examples=60, deadline=None)
@given(seq=sseqs(max_s=3, max_r=2), m=st.integers(1, 3),
       lam=st.sampled_from([1, -1, 2, "1/2"]))
def test_oracle_agrees_with_formula(seq, m, lam):
    t = BundleTriple(seq, m, Fraction(lam))
    rep = verify_formula(t)
    assert rep.agree, f"{t}: {rep.formula} vs {rep.oracle}"
    assert rep.oracle == cohom_dims(t)  # theta/delta recovery included


# --------------------------------------------------------------- sweeps


def test_verify_grid_small_box():
    report = verify_grid(
        s_values=(1, 2), rs_max=3, lo=-2, hi=2, m_values=(1, 2), lambdas=(1, 2)
    )
    assert report.ok
    assert report.formula_mismatches == ()
    assert report.euler_failures == ()
    assert report.rank_identity_failures == ()
    # Canonical aperiodic sequences: 5 + 10 + 40 for s=1 at lengths 1,2,3
    # and 25 for s=2 at length 2; times 4 (m, lam) pairs.
    assert report.cases == (5 + 10 + 40 + 25) * 4


def test_verify_grid_skips_oversized_s():
    report = verify_grid(
        s_values=(1, 5), rs_max=2, lo=0, hi=1, m_values=(1,), lambdas=(2,)
    )
    # s=1 contributes [0], [1], [0,1]; s=5 exceeds rs_max and is skipped.
    assert report.ok and report.cases == 3


@pytest.mark.parametrize("s", [0, -1])
def test_verify_grid_rejects_s_below_one(s):
    with pytest.raises(ValueError, match=f"s must be at least 1, got {s}"):
        verify_grid(s_values=(1, s), rs_max=2, lo=0, hi=1, m_values=(1,), lambdas=(2,))


@pytest.mark.parametrize(
    "box, message",
    [
        ({"rs_max": True}, "rs_max must be an integer, got True"),
        ({"rs_max": "2"}, "rs_max must be an integer, got '2'"),
        ({"s_values": ("1",)}, "s must be an integer, got '1'"),
    ],
    ids=["rs_max-bool", "rs_max-str", "s-str"],
)
def test_verify_grid_rejects_a_count_that_is_not_an_int(box, message):
    small = {"s_values": (1,), "rs_max": 2, "lo": 0, "hi": 1, "m_values": (1,),
             "lambdas": (2,)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_grid(**{**small, **box})


@pytest.mark.parametrize(
    "values, repeat",
    [
        ({"s_values": (1, 2, 1)}, "s=1"),
        ({"m_values": (1, 1)}, "m=1"),
        ({"lambdas": (2, "4/2")}, "lambda=2"),
        ({"lambdas": (Fraction(1, 2), "2/4")}, "lambda=1/2"),
    ],
)
def test_verify_grid_rejects_a_repeated_value(values, repeat):
    small = {"rs_max": 2, "lo": 0, "hi": 1, "m_values": (1,), "lambdas": (2,)}
    with pytest.raises(ValueError, match=f"{repeat} is repeated in the grid box"):
        verify_grid(**{**small, **values})


@pytest.mark.parametrize(
    "box", [{"rs_max": -1}, {"m_values": ()}, {"lambdas": ()}, {"s_values": (9,)}]
)
def test_verify_grid_rejects_an_empty_box(box):
    small = {"rs_max": 4, "lo": 0, "hi": 1, "m_values": (1,), "lambdas": (2,)}
    with pytest.raises(ValueError, match="holds no cases"):
        verify_grid(**{**small, **box})
