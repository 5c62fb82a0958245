"""Independent linear-algebra measurement of the cohomology dimensions.

The bundle G(d, m, lam) is glued from m copies of O(d_i) on the components
of the cycle.  Write F for the 2*m*rs dimensional space with one basis
vector eps'_{ik} and one eps''_{ik} per walk position i and copy k: the
values a section may take at the two nodes of position i.  Two subspaces
of F are written down directly from the glueing data:

  * G, spanned by the vectors e_{ik} that encode the cyclic glueing with
    the lam-twist and a Jordan block across the copies, and
  * im f, generated by the node values realized by sections of O(d_i): the
    full pair for d_i > 0, the diagonal vector for d_i = 0, nothing for
    d_i < 0.

The rank of the comparison map between sections upstairs and the glueing
obstruction is rk h = dim(im f + G) - dim G, and the cohomology follows:
h^0 = m * sum((d_i + 1)^+) - rk h and h^1 = m*rs - rk h + m * sum((d_i + 1)^-).

rk h is measured in F/G.  Each glueing vector e_{ik} holds exactly one eps'
coordinate, eps'_{ik}, with coefficient 1, so F = G + span(eps'') is a
direct sum and modulo G each eps'_{ik} equals -(e_{ik} - eps'_{ik}).
Substituting that into the im f generators projects them onto span(eps'')
along G, and rk h is the rank of the projected generators.  The
presentation is checked to have this shape before it is used.  Everything
is exact rational arithmetic; no closed-form count is consulted, so this
module serves as an oracle for the formulas in `cohomology`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import _EXPORTS
from .cohomology import BundleTriple, CohomReport, _scalar, cohom_dims, delta
from .sequences import SSeq, _count, _frozen, enumerate_canonical

__all__ = _EXPORTS["oracle"]

PRIME = 0
DOUBLE_PRIME = 1
_ONE = Fraction(1)


@_frozen
class OracleSpace:
    """Presentation data for one triple.

    Vectors are sparse maps from coordinate index to a nonzero rational
    coefficient.  The coordinate of eps_{ik} on side PRIME or DOUBLE_PRIME
    (i and k 1-based) is ((i - 1)*m + k - 1)*2 + side: an (i, k, side)-
    lexicographic order, fixed so that elimination pivots are reproducible.
    """

    dim_f: int
    g_basis: tuple[dict[int, Fraction], ...]
    imf_basis: tuple[dict[int, Fraction], ...]


def build_presentation(triple: BundleTriple) -> OracleSpace:
    """Write down G and the generators of im f for the triple.

    The glueing vectors are, for k = 1..m,
      e_{ik}  = eps'_{ik} + eps''_{i+1,k}                     for i < rs,
      e_{rs,k} = eps'_{rs,k} + lam*eps''_{1,k} + eps''_{1,k-1} for k > 1,
      e_{rs,1} = eps'_{rs,1} + lam*eps''_{1,1}.
    """
    d = triple.seq.entries
    rs = len(d)
    m = triple.m
    lam = triple.lam
    one = _ONE

    g: list[dict[int, Fraction]] = []
    imf: list[dict[int, Fraction]] = []
    for i in range(rs):
        for k in range(m):
            # The coordinate of eps_{i+1,k+1} on a side is at + side.
            at = 2 * (i * m + k)
            if i != rs - 1:
                g.append({at + PRIME: one, at + 2 * m + DOUBLE_PRIME: one})
            elif k != 0:
                g.append({
                    at + PRIME: one,
                    2 * k + DOUBLE_PRIME: lam,
                    2 * (k - 1) + DOUBLE_PRIME: one,
                })
            else:
                g.append({at + PRIME: one, DOUBLE_PRIME: lam})
            if d[i] > 0:
                imf.append({at + PRIME: one})
                imf.append({at + DOUBLE_PRIME: one})
            elif d[i] == 0:
                imf.append({at + PRIME: one, at + DOUBLE_PRIME: one})

    return OracleSpace(dim_f=2 * m * rs, g_basis=tuple(g), imf_basis=tuple(imf))


def _eliminate(rows: Iterable[dict[int, int]], pivots: dict[int, dict[int, int]]) -> int:
    """Feed rows into a growing sparse echelon basis; count the independent ones.

    Rows are integer vectors standing for rational vectors up to nonzero
    scale.  One reduction step replaces row by b*row - a*pivot where a and b
    are the leading coefficients, which is the exact rational elimination
    step with denominators cleared; each new pivot row is normalized by the
    gcd of its entries.  Pivot columns are always the least coordinate of
    the reduced row, so the elimination order is deterministic.
    """
    added = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                pivots[c] = {cc: v // g for cc, v in row.items()}
                added += 1
                break
            a = row.pop(c)
            b = piv[c]
            if b != 1:
                for cc in row:
                    row[cc] *= b
            for cc, v in piv.items():
                if cc == c:
                    continue
                nv = row.get(cc, 0) - a * v
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return added


def _glueing_leads(space: OracleSpace, m_rs: int) -> dict[int, dict[int, Fraction]]:
    """Each eps' coordinate, mapped to the one glueing vector it leads.

    Every glueing vector must hold exactly one eps' coordinate, with
    coefficient 1, and the m*rs vectors must lead distinct coordinates.
    Then G meets span(eps'') in 0 and F = G + span(eps''), so F/G is
    span(eps'') and eps'_c = -(g_c - eps'_c) modulo G.
    """
    lead_of: dict[int, dict[int, Fraction]] = {}
    for g in space.g_basis:
        lead = [c for c in g if c % 2 == PRIME]
        if len(lead) != 1 or g[lead[0]] != 1 or lead[0] in lead_of:
            raise ArithmeticError(
                f"glueing vector {g} does not lead its own eps' coordinate "
                "with coefficient 1; corrupt presentation"
            )
        lead_of[lead[0]] = g
    if len(lead_of) != m_rs:
        raise ArithmeticError(
            f"{len(lead_of)} glueing vectors for {m_rs} eps' coordinates; "
            "corrupt presentation"
        )
    return lead_of


def rank_of_h(triple: BundleTriple) -> int:
    """rk h = dim(im f + G) - dim G, measured in F/G by exact elimination.

    F/G is span(eps''), see `_glueing_leads`.  Each im f generator is
    projected onto it along G: every eps'_c becomes -(g_c - eps'_c), and
    the terms are put over one denominator, read off each coefficient's
    numerator and denominator.  That gives an integer row with at most
    three nonzero entries, and rk h is the rank of these rows.
    """
    space = build_presentation(triple)
    lead_of = _glueing_leads(space, triple.m * len(triple.seq.entries))
    rows = []
    for vec in space.imf_basis:
        terms = []  # (coordinate, numerator, denominator)
        for c, a in vec.items():
            g = lead_of.get(c)
            if g is None:
                terms.append((c, a.numerator, a.denominator))
                continue
            a_num, a_den = -a.numerator, a.denominator
            for cc, v in g.items():
                if cc != c:
                    terms.append((cc, a_num * v.numerator, a_den * v.denominator))
        den = lcm(*[d for _, _, d in terms])
        row: dict[int, int] = {}
        for cc, num, d in terms:
            nv = row.get(cc, 0) + num * (den // d)
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
        rows.append(row)
    return _eliminate(rows, {})


def oracle_dims(triple: BundleTriple) -> CohomReport:
    """h^0 and h^1 measured from the presentation alone.

    delta comes straight from its definition; theta is recovered from the
    measured rank via rk h = m*theta - delta, so a formula/oracle comparison
    of reports checks that identity as well.
    """
    d = triple.seq.entries
    rs = len(d)
    m = triple.m
    rk = rank_of_h(triple)
    de = delta(triple.seq, triple.lam)
    th, rem = divmod(rk + de, m)
    if rem:
        raise ArithmeticError(
            f"measured rank {rk} of {triple} is not of the form m*theta - delta"
        )
    pos = sum(v + 1 for v in d if v + 1 > 0)
    neg = sum(-(v + 1) for v in d if v + 1 < 0)
    return CohomReport(theta=th, delta=de, h0=m * pos - rk, h1=m * rs - rk + m * neg)


@_frozen
class VerifyReport:
    """Formula and oracle reports side by side for one triple."""

    formula: CohomReport
    oracle: CohomReport
    agree: bool


def verify_formula(triple: BundleTriple) -> VerifyReport:
    """Compare the closed form against the measurement; agree means both
    h^0 and h^1 match exactly."""
    f = cohom_dims(triple)
    o = oracle_dims(triple)
    return VerifyReport(formula=f, oracle=o, agree=f.h0 == o.h0 and f.h1 == o.h1)


@_frozen
class GridReport:
    """Aggregate result of a formula-vs-oracle sweep.

    Each failure list holds one human-readable descriptor per offending
    case, in sweep order; all empty means the sweep is clean.
    """

    cases: int
    formula_mismatches: tuple[str, ...]
    euler_failures: tuple[str, ...]
    rank_identity_failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not (
            self.formula_mismatches
            or self.euler_failures
            or self.rank_identity_failures
        )


def _case_tag(s: int, seq: SSeq, m: int, lam: Fraction) -> str:
    # Built only for a failing case: formatting costs about 3% of a check.
    return f"s={s} d={seq} m={m} lam={lam}"


def verify_grid(
    s_values: Sequence[int] = (1, 2, 3),
    rs_max: int = 6,
    lo: int = -3,
    hi: int = 3,
    m_values: Sequence[int] = (1, 2, 3),
    lambdas: Sequence[Fraction | int | str] = (1, -1, 2, -2, "1/2"),
) -> GridReport:
    """Sweep every canonical aperiodic sequence in the box against the oracle.

    For each s in s_values, each canonical aperiodic sequence with length up
    to rs_max and entries in [lo, hi], each multiplicity and each lam, three
    exact checks run: the closed-form h^0/h^1 equal the measured ones, both
    sides satisfy h^0 - h^1 = m * sum(d), and the measured rank satisfies
    rk h = m*theta(d) - delta(d, lam).  Zero tolerance throughout.

    Raises:
        ValueError: for an rs_max or s that is not an int, an s below 1,
            lam = 0, a repeated s, m or lam (compared as Fractions, so 2 and
            "4/2" repeat), or a box that holds no case.
    """
    _count("rs_max", rs_max, positive=False)
    for s in s_values:
        _count("s", s, positive=False)
    if any(s < 1 for s in s_values):
        raise ValueError(f"s must be at least 1, got {min(s_values)}")
    lams = tuple(map(_scalar, lambdas))
    for name, values in (("s", s_values), ("m", m_values), ("lambda", lams)):
        seen: set = set()
        for v in values:
            if v in seen:
                raise ValueError(f"{name}={v} is repeated in the grid box")
            seen.add(v)
    cases = 0
    mismatches: list[str] = []
    euler: list[str] = []
    rank_id: list[str] = []
    for s in s_values:
        if s > rs_max:
            continue
        for seq in enumerate_canonical(s, rs_max // s, lo, hi):
            rs = len(seq.entries)
            dsum = sum(seq.entries)
            pos = sum(v + 1 for v in seq.entries if v + 1 > 0)
            neg = sum(-(v + 1) for v in seq.entries if v + 1 < 0)
            for m in m_values:
                for lam in lams:
                    triple = BundleTriple(seq, m, lam)
                    cases += 1
                    formula = cohom_dims(triple)
                    rk = rank_of_h(triple)
                    oracle_h0 = m * pos - rk
                    oracle_h1 = m * rs - rk + m * neg
                    if formula.h0 != oracle_h0 or formula.h1 != oracle_h1:
                        mismatches.append(
                            f"{_case_tag(s, seq, m, lam)}: formula "
                            f"({formula.h0},{formula.h1}) vs oracle ({oracle_h0},{oracle_h1})"
                        )
                    if (
                        formula.h0 - formula.h1 != m * dsum
                        or oracle_h0 - oracle_h1 != m * dsum
                    ):
                        euler.append(_case_tag(s, seq, m, lam))
                    if rk != m * formula.theta - formula.delta:
                        rank_id.append(f"{_case_tag(s, seq, m, lam)}: rk={rk}")
    if cases == 0:
        raise ValueError(
            f"the grid box holds no cases: s={list(s_values)}, rs_max={rs_max}, "
            f"m={list(m_values)}, {len(lams)} lambdas"
        )
    return GridReport(
        cases=cases,
        formula_mismatches=tuple(mismatches),
        euler_failures=tuple(euler),
        rank_identity_failures=tuple(rank_id),
    )
