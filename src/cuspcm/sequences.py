"""Cyclic degree sequences on a cycle of s projective lines.

A sequence of multiplicity r assigns one integer to each of the r*s
positions obtained by walking the cycle r times.  Positions are cyclic
(position i + r*s is position i), and the only relabelings that preserve
the underlying geometry are rotations by whole copies of the cycle, i.e.
by multiples of s.  This module provides that rotation, bounded
enumeration of canonical (lexicographically least) representatives, and
one scan, linear in the length, behind is_aperiodic, canonical_form and
the sigma-symmetry test of T_pq.
"""

from __future__ import annotations

from operator import attrgetter

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
    # The frozen value class that @dataclass(frozen=True, slots=True) would
    # make of cls, built anew with __slots__ equal to its fields.  The fields
    # are the annotations (strings) that are not ClassVar, in order; a class
    # attribute named after a field is its default, kept only by __init__.
    # __init__ sets the fields in order, then calls __post_init__ if cls has
    # one; __repr__, __eq__ (same class only) and __hash__ are the
    # dataclass ones; _trusted builds from checked values without
    # __post_init__ (the class itself, if it has none).  Only __init__ and
    # _trusted are written per class, for speed: each writes a field through
    # the __set__ of that field's slot descriptor, bound once per class and
    # read as a global _set_<name>, which skips object.__setattr__'s name
    # lookup.  __eq__ answers True for the object itself before it builds
    # the field tuples, as the tuple comparison would.
    names = tuple(n for n, a in cls.__annotations__.items() if not a.startswith("ClassVar"))
    defaults = {f"_d_{n}": vars(cls)[n] for n in names if n in vars(cls)}
    params = ", ".join(f"{n}=_d_{n}" if f"_d_{n}" in defaults else n for n in names)
    sets = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    trusted = post and (f"def _trusted({', '.join(names)}):\n"
                        f"    self = _new(_cls)\n{sets}    return self\n")
    scope = {"_new": object.__new__, **defaults}
    written: dict = {}
    exec(f"def __init__(self, {params}):\n{sets}{post}{trusted}", scope, written)
    get = attrgetter(*names) if len(names) > 1 else lambda obj: (getattr(obj, names[0]),)
    shown = "{}(" + ", ".join(f"{n}={{!r}}" for n in names) + ")"

    def __repr__(self):
        return shown.format(self.__class__.__qualname__, *get(self))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(get(self))

    def __getstate__(self):
        return get(self)

    def __setstate__(self, state):
        # pickle and copy restore the fields here, past the frozen __setattr__
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    namespace = {n: v for n, v in vars(cls).items()
                 if n not in (*names, "__dict__", "__weakref__")}
    namespace.update(
        __init__=written["__init__"], __slots__=names, __match_args__=names,
        __qualname__=cls.__qualname__, __repr__=__repr__, __eq__=__eq__,
        __hash__=__hash__, __getstate__=__getstate__, __setstate__=__setstate__,
        __setattr__=_frozen_setattr, __delattr__=_frozen_delattr,
    )
    new = scope["_cls"] = type(cls)(cls.__name__, cls.__bases__, namespace)
    scope.update((f"_set_{n}", vars(new)[n].__set__) for n in names)
    new._trusted = staticmethod(written["_trusted"]) if trusted else new
    for name, fn in written.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return new


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


def _least_rotation(entries: tuple, s: int) -> tuple[tuple, bool]:
    # The least rotation of entries by a multiple of s (entries itself if it
    # is least) and whether entries is periodic, by the linear two-pointer scan
    # over s-blocks (Booth 1980).  Every block start below j but i is beaten by
    # some rotation.  After k equal entries and a mismatch, the larger side and
    # its next k // s starts are beaten; k >= n means i and j agree: a period.
    n = len(entries)
    twice = entries + entries
    i, j, k = 0, s, 0
    while j < n and k < n:
        a, b = twice[i + k], twice[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i = max(j, i + (k // s + 1) * s)
            j = i + s
        else:
            j += (k // s + 1) * s
        k = 0
    return entries if i == 0 else twice[i:i + n], k >= n


def is_aperiodic(seq: SSeq) -> bool:
    """True unless the sequence is a repetition of a strictly shorter s-sequence."""
    return not _least_rotation(seq.entries, seq.s)[1]


def canonical_form(seq: SSeq) -> SSeq:
    """The lexicographically least among the r rotations of the sequence.

    A sequence that is already least is returned as it is, not copied.
    """
    least = _least_rotation(seq.entries, seq.s)[0]
    return seq if least is seq.entries else SSeq._trusted(seq.s, least)


def _least_form(seq: SSeq) -> tuple[SSeq, bool]:
    # canonical_form(seq) and whether seq is periodic, from one scan.  The
    # rule is written out in canonical_form as well, which runs once per
    # enumeration candidate and so pays for a call through here.
    least, periodic = _least_rotation(seq.entries, seq.s)
    return (seq if least is seq.entries else SSeq._trusted(seq.s, least)), periodic


def enumerate_canonical(s: int, max_r: int, lo: int, hi: int) -> list[SSeq]:
    """All aperiodic canonical sequences with r <= max_r and entries in [lo, hi].

    Canonical means equal to its own canonical form, so each rotation class
    appears exactly once.  The result is ordered by (length, entries).

    These are the Lyndon words over the alphabet of s-blocks.  They come
    from the Fredricksen-Kessler-Maiorana algorithm (Cattell, Ruskey,
    Sawada, Serra and Miers 2000), which walks the block prenecklaces in
    lexicographic order: p is the period of the word, a multiple of s,
    and a prenecklace of length n is Lyndon exactly when p == n.
    `cusp._twist_candidates` is the same walk with the same rule, over
    twist bounds and with a section-count prune.

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
