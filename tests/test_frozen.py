"""The frozen value classes against their dataclass twins.

`sequences._frozen` writes every value class (and the CLI's `Command`)
without importing `dataclasses`.  Its reference is the decorator it
replaces: each class is compared with a `dataclasses.dataclass(frozen=True)`
twin built from the same annotations and defaults, on instances the
library itself made.
"""

import dataclasses
import importlib
import inspect
from fractions import Fraction

import pytest

from cuspcm import (
    BundleTriple, CuspGeometry, SSeq, TpqFree, TpqKind, ar_sequence, build_presentation,
    build_tube, classify_label, cohom_dims, descend, enumerate_rank, family_counts,
    free_label, geometry_of, verify_formula, verify_grid,
)
from cuspcm.cli import COMMANDS

MODULES = ("sequences", "cohomology", "oracle", "cusp", "tpq", "quiver", "cli")

B1 = CuspGeometry(1, (1,))
G38 = geometry_of(3, 8)


def written_classes():
    """Every class that _frozen wrote, by name."""
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"cuspcm.{module}")
        for value in vars(mod).values():
            if isinstance(value, type) and "_trusted" in vars(value):
                found[value.__name__] = value
    return found


def samples():
    """Instances of every written class, made by the library."""
    triple = BundleTriple(SSeq(2, (2, 0, 1, 1)), 2, Fraction(3, 2))
    label = classify_label(BundleTriple(SSeq(1, (1,)), 2, 1), B1)
    tube = build_tube(B1, SSeq(1, (1,)), 1, 3)
    piece = enumerate_rank(B1, 3)
    single = classify_label(BundleTriple(SSeq(2, (2, 1)), 1, Fraction(5)), G38.cusp)
    split = classify_label(BundleTriple(SSeq(2, (1, 0)), 1, -1), G38.cusp)
    values = [
        triple.seq, triple, B1, cohom_dims(triple), build_presentation(triple),
        verify_formula(triple), verify_grid(s_values=(1,), rs_max=2, lo=-1, hi=1,
                                            m_values=(1,), lambdas=(2,)),
        label, free_label(B1), piece, *piece.families, family_counts(B1, 3),
        G38, *descend(G38, free_label(G38.cusp)), *descend(G38, single),
        *descend(G38, split), *tube.nodes, *tube.arrows, *tube.tubes, tube,
        ar_sequence(B1, label), *COMMANDS,
    ]
    by_class: dict = {}
    for value in values:
        by_class.setdefault(type(value).__name__, []).append(value)
    return by_class


CLASSES = written_classes()
SAMPLES = samples()


def twin(cls, post_init=None):
    """The dataclass that @dataclass(frozen=True) makes of cls's annotations
    and defaults, with the given __post_init__."""
    annotations = dict(vars(cls)["__annotations__"])
    namespace = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
                 "__annotations__": annotations}
    namespace.update((n, vars(cls)[n]) for n in annotations if n in vars(cls))
    if post_init is not None:
        namespace["__post_init__"] = post_init
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def fields_of(obj):
    return [getattr(obj, name) for name in type(obj).__match_args__]


def outcome(call):
    """What a call gives: its value, or the type and message it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def test_every_written_class_has_samples():
    assert set(SAMPLES) == set(CLASSES)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_fields_and_signature_are_the_dataclasss(name):
    cls = CLASSES[name]
    tw = twin(cls)
    assert cls.__match_args__ == tw.__match_args__
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(tw))
    ours = inspect.signature(cls).parameters.values()
    theirs = inspect.signature(tw).parameters.values()
    assert [(p.name, p.kind, p.default) for p in ours] == [
        (p.name, p.kind, p.default) for p in theirs
    ]
    assert vars(cls)["__doc__"]  # dataclass would have written one


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_construction_repr_eq_and_hash_are_the_dataclasss(name):
    cls = CLASSES[name]
    tw = twin(cls)
    for obj in SAMPLES[name]:
        values = fields_of(obj)
        theirs = tw(*values)
        keyword = dict(zip(cls.__match_args__, values))
        for ours in (cls(*values), cls(**keyword), cls._trusted(*values)):
            assert type(ours) is cls
            assert fields_of(ours) == values
            assert ours == obj and not ours != obj
            assert repr(ours) == repr(theirs)
            assert outcome(lambda: hash(ours)) == outcome(lambda: hash(theirs))
        assert repr(obj) == repr(theirs)
        # Another class is never equal, not even the twin with equal fields.
        assert obj.__eq__(theirs) is NotImplemented
        assert obj != theirs and obj != object()
        other = next(o for n, os in SAMPLES.items() if n != name for o in os)
        assert obj != other
        for i in range(len(values)):
            changed = values[:i] + [object()] + values[i + 1:]
            assert (obj == cls._trusted(*changed)) is (theirs == tw(*changed)) is False


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_defaults_are_the_dataclasss(name):
    cls = CLASSES[name]
    tw = twin(cls)
    required = [p for p in inspect.signature(tw).parameters.values()
                if p.default is p.empty]
    obj = SAMPLES[name][0]
    head = fields_of(obj)[:len(required)]
    assert repr(cls(*head)) == repr(tw(*head))


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_assignment_and_deletion_fail_as_in_the_dataclass(name):
    cls = CLASSES[name]
    obj = SAMPLES[name][0]
    theirs = twin(cls)(*fields_of(obj))
    for attr in (*cls.__match_args__, "other"):
        for act in (lambda o: setattr(o, attr, 1), lambda o: delattr(o, attr)):
            with pytest.raises(AttributeError) as ours_err:
                act(obj)
            with pytest.raises(dataclasses.FrozenInstanceError) as their_err:
                act(theirs)
            assert str(ours_err.value) == str(their_err.value)
            assert type(ours_err.value).__name__ == "FrozenInstanceError"
    assert fields_of(obj) == fields_of(theirs)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_post_init_runs_as_in_the_dataclass(name, monkeypatch):
    cls = CLASSES[name]
    calls = []

    def spy(self):
        calls.append(fields_of(self))

    has_post_init = hasattr(cls, "__post_init__")
    if has_post_init:
        monkeypatch.setattr(cls, "__post_init__", spy)
    tw = twin(cls, spy if has_post_init else None)
    values = fields_of(SAMPLES[name][0])
    cls(*values)
    tw(*values)
    cls._trusted(*values)  # the trusted builder skips it
    assert calls == ([values, values] if has_post_init else [])


def test_a_class_variable_is_not_a_field():
    assert "kind" not in TpqFree.__match_args__
    free = TpqFree(G38)
    assert free.kind is TpqKind.FREE and "kind" not in vars(free)
    for name in ("TpqFree", "TpqSingle", "TpqBranch"):
        names = [f.name for f in dataclasses.fields(twin(CLASSES[name]))]
        assert "kind" not in names and tuple(names) == CLASSES[name].__match_args__
