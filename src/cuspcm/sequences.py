"""Cyclic degree sequences on a cycle of s projective lines.

A sequence of multiplicity r assigns one integer to each of the r*s
positions obtained by walking the cycle r times.  Positions are cyclic
(position i + r*s is position i), and the only relabelings that preserve
the underlying geometry are rotations by whole copies of the cycle, i.e.
by multiples of s.  This module provides that rotation, one scan, linear
in the length, behind is_aperiodic, canonical_form and the sigma-symmetry
test of T_pq, and one walk over the canonical aperiodic sequences (the
block Lyndon words) behind both enumerations: the bounded box of
enumerate_canonical and the section-count search of enumerate_rank.
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


def _block_lyndon(s: int, b: tuple[int, ...], low: int, vmax: int,
                  slack: int) -> list[tuple[int, ...]]:
    """The block Lyndon words d of length n = len(b), in lexicographic
    order, with low <= d_i <= b_i + vmax and whose twist v = d - b has
    exactly slack global sections at m = 1 and generic lam; b has period s.

    This one walk serves both enumerations.  A block Lyndon word is
    strictly less than each of its rotations by a nonzero multiple of s:
    exactly a canonical aperiodic sequence.  The walk is the
    Fredricksen-Kessler-Maiorana search (Cattell, Ruskey, Sawada, Serra and
    Miers 2000) over the alphabet of s-blocks.  It visits every block
    prenecklace, a prefix of a word least among its rotations: p is the
    period of the prefix, a multiple of s, and while the block being filled
    still equals the block p back, entry i is at least d[i - p], so
    v[i] >= v[i - p].  A prenecklace of length n is a Lyndon word exactly
    when its period is n, so a leaf is kept when its last block exceeds
    the block p back.

    The section count is the rule of cohomology._dims at m = 1: each
    maximal cyclic run of non-negative entries of v adds its sum, less one
    if it holds a positive entry and is shorter than the whole cycle.
    Entries are filled left to right in increasing order; a partial run
    only gains sum, so the count so far is a lower bound and prunes the
    search.  The run through position 0 is settled last, once its wrap is
    known.

    The box [lo, hi]^n is the walk with low = lo, b = (hi,) * n and
    vmax = slack = 0: the twist of a box word by the constant hi is
    nowhere positive, so every word has 0 sections and the prune never
    cuts inside the box.  The twist search has low = 0 and b = B^r, and
    vmax = slack + 1, since a positive v_i costs at least v_i - 1
    sections.  The transfer-matrix family counts of ROADMAP items 2 and 4
    are the counting twins of this walk.  The frames live on an explicit
    stack, so the depth n is not bounded by the recursion limit.
    """
    # The frame filling entry i.  gt: the block being filled already exceeds
    # the block p back.  closed counts the sections of the runs already
    # ended; run is the sum of the open run and head the sum of the run
    # through position 0, which stays open until the first negative entry
    # (neg).  Entries of a run are non-negative, so its sum is positive
    # exactly when it holds a positive entry: it then costs sum - 1.
    # The c_ names hold the state with entry i placed.  The first block has
    # nothing to exceed; it fixes p = s when it ends.
    n = len(b)
    buf = [0] * n
    out: list[tuple[int, ...]] = []
    stack: list[tuple] = []
    i, p, gt, closed, run, neg, head = 0, 0, True, 0, 0, False, 0
    v = low - b[0]
    while True:
        if v > vmax:
            if not stack:
                return out
            i, p, gt, closed, run, neg, head, v = stack.pop()
            continue
        if v < 0:
            # within slack: head <= vmax, and each extension of run was checked
            c_closed = closed + (run - 1 if run > 0 else 0)
            c_run, c_neg, c_head = 0, True, head
        elif not neg:
            c_head = head + v
            if c_head > vmax:
                v = vmax + 1
                continue
            c_closed, c_run, c_neg = closed, 0, False
        else:
            c_run = run + v
            head_cost = head - 1 if head > 0 else 0
            if closed + (c_run - 1 if c_run > 0 else 0) + head_cost > slack:
                v = vmax + 1
                continue
            c_closed, c_neg, c_head = closed, True, head
        buf[i] = v + b[i]
        if i + 1 == n:
            if c_neg:
                total = c_run + c_head  # the open run wraps into the head run
                c_closed += total - 1 if total > 0 else 0
            if (c_closed if c_neg else c_head) == slack and (gt or buf[i] > buf[i - p]):
                out.append(tuple(buf))
            v += 1
            continue
        stack.append((i, p, gt, closed, run, neg, head, v + 1))
        gt = gt or buf[i] > buf[i - p]
        i += 1
        if gt and i % s == 0:
            p, gt = i, False
        closed, run, neg, head = c_closed, c_run, c_neg, c_head
        v = low - b[i] if gt else buf[i - p] - b[i]


def enumerate_canonical(s: int, max_r: int, lo: int, hi: int) -> list[SSeq]:
    """All aperiodic canonical sequences with r <= max_r and entries in [lo, hi].

    Canonical means equal to its own canonical form, so each rotation class
    appears exactly once.  The result is ordered by (length, entries).
    These are the block Lyndon words of each length n = r*s, from
    `_block_lyndon` with low = lo, b = (hi,) * n and vmax = slack = 0.

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
    return [SSeq._trusted(s, d) for n in range(s, max_r * s + 1, s)
            for d in _block_lyndon(s, (hi,) * n, lo, 0, 0)]
