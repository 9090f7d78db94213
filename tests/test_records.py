"""The library's record classes behave as frozen stdlib dataclasses.

Every class that `homcyc.records.record` decorates is compared with a
reference that `dataclasses.make_dataclass` builds from the same field
specs (names, order, defaults, default factories and the compare flag):
construction, eq and ne, hash, repr, frozenness and
`replace`.  A sample instance of each class comes from the library.
"""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction as F

import pytest

import homcyc
from homcyc.algebra import AlgebraMorphism, ValidationReport, Violation
from homcyc.cocycles import Functional, TwistedDerivation, is_cyclic_cocycle
from homcyc.coefficients import regular_bimodule
from homcyc.complexes import (BoundarySquareError, ChainComplex,
                               HomologyReport)
from homcyc.constructions import Decomposition, a_circ
from homcyc.corpus import two_dim_unital
from homcyc.cyclic import (cyclic_bicomplex, cyclic_homology_both,
                           periodic_homology)
from homcyc.hochschild import (build_hochschild_homology_complex,
                               hochschild_homology)
from homcyc.linalg import Matrix, Subspace, _matrix
from homcyc.records import MISSING, FrozenInstanceError, replace


def _samples():
    A = two_dim_unital()
    phi = Functional(0, (F(1), F(0)))
    return [
        A, A.alpha, Subspace.full(2), regular_bimodule(A), a_circ(A),
        Violation("axiom", (0, 1), (F(1),), (F(0),)),
        ValidationReport(True, True),
        Decomposition(A, A, ((F(1), F(0)),), ((F(0), F(1)),)),
        AlgebraMorphism(A, A, Matrix.identity(2)),
        build_hochschild_homology_complex(A, regular_bimodule(A), 2),
        hochschild_homology(A, 1, representatives=True),
        cyclic_bicomplex(A, 1), cyclic_homology_both(A, 1),
        periodic_homology(A, 0), phi, is_cyclic_cocycle(phi, A),
        TwistedDerivation(Matrix.zero(2, 2))]


SAMPLES = {type(x): x for x in _samples()}
CLASSES = sorted(SAMPLES, key=lambda c: c.__name__)
INIT = [c for c in CLASSES if c is not Matrix]  # Matrix has its own


def _names(classes):
    return [c.__name__ for c in classes]


def _reference(cls):
    """A frozen stdlib dataclass with cls's name and field specs."""
    specs = []
    for f in cls.__record_fields__:
        kw = {"compare": f.compare}
        if f.default is not MISSING:
            kw["default"] = f.default
        if f.default_factory is not MISSING:
            kw["default_factory"] = f.default_factory
        specs.append((f.name, object, dataclasses.field(**kw)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _copy(x, cls=None, **values):
    """An instance of cls (x's class by default) holding x's fields and
    `values`, made without calling __init__."""
    out = object.__new__(cls or type(x))
    for f in type(x).__record_fields__:
        vars(out)[f.name] = values.get(f.name, getattr(x, f.name))
    return out


def _outcome(fn):
    """fn()'s value, or the type of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the outcome is what is compared
        return type(exc)


def _init_values(x) -> dict:
    return {f.name: getattr(x, f.name) for f in type(x).__record_fields__}


def test_every_record_class_has_a_sample():
    found = set()
    for info in pkgutil.iter_modules(homcyc.__path__):
        module = importlib.import_module(f"homcyc.{info.name}")
        found |= {c for c in vars(module).values() if isinstance(c, type)
                  and "__record_fields__" in vars(c)}
    assert found == set(SAMPLES) and len(found) == 17


@pytest.mark.parametrize("cls", CLASSES, ids=_names(CLASSES))
def test_eq_ne_hash_and_repr_match_the_dataclass(cls):
    """With each field changed alone, an instance equals the sample
    exactly when the reference's does; no instance of another class,
    the reference included, is equal."""
    x, ref = SAMPLES[cls], _reference(cls)
    r = _copy(x, ref)
    assert repr(x) == repr(r)
    assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(r))
    assert x == _copy(x) and not x != _copy(x)
    marker = object()
    for f in cls.__record_fields__:
        y, ry = _copy(x, **{f.name: marker}), _copy(x, ref, **{f.name: marker})
        assert (x == y, x != y, y == x) == (r == ry, r != ry, ry == r), f.name
    assert x.__eq__(r) is NotImplemented and x != r and not x == r
    other = next(s for c, s in SAMPLES.items() if c is not cls)
    assert x != other and not x == other


@pytest.mark.parametrize("cls", CLASSES, ids=_names(CLASSES))
def test_assignment_and_deletion_raise_as_in_the_dataclass(cls):
    """On a field or any other name, with the dataclass's messages; the
    error is an AttributeError."""
    x = SAMPLES[cls]
    r = _copy(x, _reference(cls))
    for name in [f.name for f in cls.__record_fields__] + ["other"]:
        messages = []
        for obj, error in ((x, FrozenInstanceError),
                           (r, dataclasses.FrozenInstanceError)):
            with pytest.raises(error) as assigned:
                setattr(obj, name, 1)
            with pytest.raises(error) as deleted:
                delattr(obj, name)
            messages.append((str(assigned.value), str(deleted.value)))
        assert messages[0] == messages[1]
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("cls", INIT, ids=_names(INIT))
def test_construction_matches_the_dataclass(cls):
    """By position, by keyword and with the defaults left out; too many,
    repeated, unknown or missing arguments raise TypeError in both."""
    x, ref = SAMPLES[cls], _reference(cls)
    kw = _init_values(x)
    args = list(kw.values())
    for made, expected in ((cls(*args), ref(*args)),
                           (cls(**kw), ref(**kw))):
        assert repr(made) == repr(expected) and made == x
    required = {f.name: kw[f.name] for f in cls.__record_fields__
                if MISSING is f.default is f.default_factory}
    assert repr(cls(**required)) == repr(ref(**required))
    first = next(iter(required))
    for a, k in [(args + [None], {}), (args, {first: None}),
                 ((), {**kw, "unknown": None}),
                 ((), {n: v for n, v in kw.items() if n != first})]:
        assert _outcome(lambda: cls(*a, **k)) is \
            _outcome(lambda: ref(*a, **k)) is TypeError


def test_matrix_keeps_its_own_init_and_fast_path():
    m = Matrix(2, 2, [1, F(1, 2), 0, 3])
    assert m == _matrix(2, 2, m._int_rows) == Matrix.from_rows(
        [[1, F(1, 2)], [0, 3]])
    assert [f.name for f in Matrix.__record_fields__] == \
        ["rows", "cols", "_int_rows"]


def test_each_instance_gets_a_fresh_default_dict():
    """default_factory fields get their own dict, and so does each
    ChainComplex's cached `_ranks`."""
    factory = {cls: [f.name for f in cls.__record_fields__
                     if f.default_factory is dict] for cls in CLASSES}
    factory = {cls: names for cls, names in factory.items() if names}
    assert set(factory) == {HomologyReport}
    factory[ChainComplex] = ["_ranks"]
    for cls, names in factory.items():
        kw = {n: v for n, v in _init_values(SAMPLES[cls]).items()
              if n not in names}
        a, b = cls(**kw), cls(**kw)
        for name in names:
            assert getattr(a, name) == {}
            assert getattr(a, name) is not getattr(b, name)


def test_cached_ranks_are_no_field_and_post_init():
    """ChainComplex._ranks is a cached attribute, not a field: out of
    the fields, init, eq and repr, and replace starts with empty ranks;
    __post_init__ checks d o d."""
    C = SAMPLES[ChainComplex]
    C.rank(1)
    assert "_ranks" not in [f.name for f in C.__record_fields__]
    assert C._ranks and "_ranks" not in repr(C)
    assert C == _copy(C) and not _copy(C)._ranks
    D = replace(C)
    assert D == C and D._ranks == {} and D is not C
    ref = _reference(ChainComplex)
    for do in (lambda: ChainComplex(C.dims, C.diffs, _ranks={}),
               lambda: replace(C, _ranks={}),
               lambda: dataclasses.replace(_copy(C, ref), _ranks={})):
        with pytest.raises(TypeError):
            do()
    one = Matrix.identity(1)
    with pytest.raises(BoundarySquareError, match="d o d"):
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: one, 2: one})


@pytest.mark.parametrize("cls", INIT, ids=_names(INIT))
def test_replace_matches_the_dataclass(cls):
    """The same fields as dataclasses.replace, the changed one put in,
    and none of the instance's caches."""
    x, ref = SAMPLES[cls], _reference(cls)
    name = next(iter(_init_values(x)))
    value = getattr(x, name)
    for changes in ({}, {name: value}):
        made = replace(x, **changes)
        expected = dataclasses.replace(_copy(x, ref), **changes)
        assert repr(made) == repr(expected) and made == x
        assert set(vars(made)) == {f.name for f in cls.__record_fields__}
