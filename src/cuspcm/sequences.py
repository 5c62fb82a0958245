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

from . import _EXPORTS

__all__ = _EXPORTS["sequences"]


def _count(name: str, value: object, positive: bool = True) -> None:
    # The one count rule: exactly an int (bool and float are rejected), >= 1.
    # A caller with a stronger lower bound passes positive=False and checks it.
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if positive and value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen value."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls):
    # The frozen value class that @dataclass(frozen=True) would make of cls,
    # written from one exec of per-class source.  The fields are the
    # annotations (strings) that are not ClassVar, in order; a class
    # attribute named after a field is its default.  __init__ sets the
    # fields in order, then calls __post_init__ if cls has one; __repr__,
    # __eq__ (same class only) and __hash__ are the dataclass ones; _trusted
    # builds an instance from checked values without __post_init__.
    names = [n for n, a in cls.__annotations__.items() if not a.startswith("ClassVar")]
    defaults = {f"_d_{n}": vars(cls)[n] for n in names if n in vars(cls)}
    params = ", ".join(f"{n}=_d_{n}" if f"_d_{n}" in defaults else n for n in names)
    sets = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    mine, theirs = ("".join(f"{who}.{n}," for n in names) for who in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    source = (
        f"def __init__(self, {params}):\n{sets}{post}"
        f"def _trusted({', '.join(names)}):\n    self = _new(_cls)\n{sets}"
        "    return self\n"
        "def __repr__(self):\n"
        f'    return self.__class__.__qualname__ + f"({shown})"\n'
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
    )
    written: dict = {}
    scope = {"_new": object.__new__, "_set": object.__setattr__, "_cls": cls}
    exec(source, {**scope, **defaults}, written)
    for name, fn in written.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, staticmethod(fn) if name == "_trusted" else fn)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = tuple(names)
    return cls


@_frozen
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


def shift_by(seq: SSeq, k: int) -> SSeq:
    """Rotate by k copies of the cycle; entry i of the result is entry i + k*s.

    Raises:
        ValueError: for a k that is not an int.
    """
    _count("k", k, positive=False)
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
    return seq if best is e else SSeq._trusted(s, best)


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
                found.append(SSeq._trusted(s, tuple(a)))
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
