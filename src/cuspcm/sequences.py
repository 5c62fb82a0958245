"""Cyclic degree sequences on a cycle of s projective lines.

A sequence of multiplicity r assigns one integer to each of the r*s
positions obtained by walking the cycle r times.  Positions are cyclic
(position i + r*s is position i), and the only relabelings that preserve
the underlying geometry are rotations by whole copies of the cycle, i.e.
by multiples of s.  This module provides that rotation, the aperiodicity
test, the canonical (lexicographically least) representative, and bounded
enumeration of canonical representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _EXPORTS

__all__ = _EXPORTS["sequences"]


@dataclass(frozen=True)
class SSeq:
    """An integer sequence of length r*s, considered up to rotation by s.

    Attributes:
        s: number of components of the cycle (positive).
        entries: the degrees, one per walk position; the length must be a
            positive multiple of s.
    """

    s: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _count("component count", self.s)
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("sequence must be nonempty")
        if set(map(type, entries)) != {int}:  # exactly int: bool is rejected
            raise ValueError("sequence entries must be integers")
        if len(entries) % self.s:
            raise ValueError(
                f"sequence length {len(entries)} is not a multiple of s={self.s}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def r(self) -> int:
        """How many times the sequence walks around the cycle."""
        return len(self.entries) // self.s

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


def _count(name: str, value: object, positive: bool = True) -> None:
    # The one count rule: exactly an int (bool and float are rejected), >= 1.
    # A caller with a stronger lower bound passes positive=False and checks it.
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if positive and value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


_new, _set = object.__new__, object.__setattr__


def _checked(cls, *values):
    # An instance of the frozen dataclass cls from values already checked:
    # the fields are set in order, as the dataclass __init__ sets them, and
    # __post_init__ is skipped.
    obj = _new(cls)
    for name, value in zip(cls.__match_args__, values):
        _set(obj, name, value)
    return obj


def shift_by(seq: SSeq, k: int) -> SSeq:
    """Rotate by k copies of the cycle; entry i of the result is entry i + k*s."""
    cut = (k % seq.r) * seq.s
    return SSeq(seq.s, seq.entries[cut:] + seq.entries[:cut])


def is_aperiodic(seq: SSeq) -> bool:
    """True unless the sequence is a repetition of a strictly shorter s-sequence."""
    e = seq.entries
    n = len(e)
    for cut in range(seq.s, n, seq.s):
        if n % cut == 0 and e == e[:cut] * (n // cut):
            return False
    return True


def canonical_form(seq: SSeq) -> SSeq:
    """The lexicographically least among the r rotations of the sequence.

    A sequence that is already least is returned as it is, not copied.
    """
    e = seq.entries
    n, s = len(e), seq.s
    if n == s:
        return seq
    twice = e + e
    best = e
    for cut in range(s, n, s):
        rot = twice[cut:cut + n]
        if rot < best:
            best = rot
    return seq if best is e else _checked(SSeq, s, best)


def enumerate_canonical(s: int, max_r: int, lo: int, hi: int) -> list[SSeq]:
    """All aperiodic canonical sequences with r <= max_r and entries in [lo, hi].

    Canonical means equal to its own canonical form, so each rotation class
    appears exactly once.  The result is ordered by (length, entries).

    These are the Lyndon words over the alphabet of s-blocks.  They come
    from the Fredricksen-Kessler-Maiorana algorithm (Cattell, Ruskey,
    Sawada, Serra and Miers 2000), which walks the block prenecklaces in
    lexicographic order: p is the period of the word, a multiple of s,
    and a prenecklace of length n is Lyndon exactly when p == n.

    Raises:
        ValueError: for s or max_r not an int >= 1, entries lo or hi not
            an int, or an empty entry range (lo > hi).
    """
    _count("component count", s)
    _count("max_r", max_r)
    if type(lo) is not int or type(hi) is not int:
        raise ValueError("sequence entries must be integers")
    if lo > hi:
        raise ValueError(f"empty entry range: lo={lo} is greater than hi={hi}")
    found: list[SSeq] = []
    for n in range(s, max_r * s + 1, s):
        a = [lo] * n
        p = s  # the period of a, a multiple of s
        while True:
            if p == n:
                found.append(_checked(SSeq, s, tuple(a)))
            # the next prenecklace: raise the last entry below hi, fill the
            # rest of its block with lo, then repeat the prefix up to there
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
