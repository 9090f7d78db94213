"""Frozen record classes, without `dataclasses`.

`@record` makes a class whose body annotates its fields a frozen value
type, as `@dataclass(frozen=True)` does: an `__init__` taking the
fields in order, by position or keyword, with their defaults; `__eq__`
between instances of the same class on the compared fields, and a
`__hash__` equal to the hash of their tuple; a `__repr__` of the shown
fields; and a `__setattr__` and `__delattr__` that raise
`FrozenInstanceError`.  A field whose default is a `Field(...)` spec
may take a `default_factory`, called once per instance, or be left out
of the `__init__` (`init=False`), of comparison and hashing
(`compare=False`) or of the repr (`repr=False`).  A method the class
body defines itself is kept.  `__post_init__`, if the class has one, runs last in
`__init__`, and `replace` copies a record with some fields changed.

The methods are generic closures over each class's field specs, so
decorating a class compiles no code, and this module imports only
`operator`.  `dataclasses` imports `inspect`, `ast`, `dis` and
`tokenize` and execs generated source for every class, which a fresh
command-line process pays for on each request.

Instances keep a `__dict__` (no `__slots__`): `cached` attributes and
the caches the library stores in `vars(x)` need one, and they bypass the
frozen `__setattr__`.
"""

from operator import attrgetter

MISSING = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


class Field:
    """One field's spec: its name, default or default factory, and
    whether it enters `__init__`, comparison and hashing, and repr."""

    __slots__ = ("name", "default", "default_factory", "init", "compare",
                 "repr")

    def __init__(self, *, default=MISSING, default_factory=MISSING,
                 init=True, compare=True, repr=True):
        self.name = None
        self.default, self.default_factory = default, default_factory
        self.init, self.compare, self.repr = init, compare, repr


def record(cls):
    """Make `cls` a frozen record of its annotated fields, in order."""
    fields = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, MISSING)
        if not isinstance(spec, Field):
            spec = Field(default=spec)
        spec.name = name
        if spec.default is MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        fields.append(spec)
    cls.__record_fields__ = fields = tuple(fields)
    names = [f.name for f in fields]
    # the length of a call that gives every field by position, if any
    positional = len(names) if all(f.init for f in fields) else -1
    shown = [f.name for f in fields if f.repr]
    compared = [f.name for f in fields if f.compare]
    post = hasattr(cls, "__post_init__")
    # the compared values as a tuple, also for one field or none, so the
    # hash is that of the dataclass
    if len(compared) == 1:
        get = attrgetter(*compared)

        def key(self):
            return (get(self),)
    else:
        key = attrgetter(*compared) if compared else lambda self: ()

    def __init__(self, *args, **kwargs):
        vars(self).update(zip(names, args) if len(args) == positional and
                          not kwargs else _bind(cls, args, kwargs))
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in shown) + ")"

    for name, method in {"__init__": __init__, "__eq__": __eq__,
                         "__hash__": __hash__, "__repr__": __repr__,
                         "__setattr__": _assign,
                         "__delattr__": _delete}.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


class cached:
    """`functools.cached_property` without the lock Python 3.11's takes
    on each first read: the value is kept in the instance's `__dict__`."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __get__(self, obj, cls=None):
        return self if obj is None else \
            vars(obj).setdefault(self.fn.__name__, self.fn(obj))


def _assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls, args: tuple, kwargs: dict) -> dict:
    """{field: value} of a call cls(*args, **kwargs): the init fields
    from the arguments, by position then by keyword, else from their
    defaults, and the other fields from their defaults."""
    init = [f.name for f in cls.__record_fields__ if f.init]
    if len(args) > len(init):
        raise TypeError(f"{cls.__qualname__}() takes {len(init)} "
                        f"arguments but {len(args)} were given")
    given = dict(zip(init, args))
    for name, value in kwargs.items():
        if name in given or name not in init:
            raise TypeError(f"{cls.__qualname__}() got an unexpected or "
                            f"repeated argument {name!r}")
        given[name] = value
    values = {}
    for f in cls.__record_fields__:
        if f.name in given:
            values[f.name] = given[f.name]
        elif f.default is not MISSING:
            values[f.name] = f.default
        elif f.default_factory is not MISSING:
            values[f.name] = f.default_factory()
        elif f.init:
            raise TypeError(f"{cls.__qualname__}() missing argument "
                            f"{f.name!r}")
    return values


def replace(obj, **changes):
    """A new record of obj's class: obj's init fields, with `changes`
    put in, through `__init__`.  Attributes outside the fields, such as
    caches, are not copied."""
    for f in obj.__record_fields__:
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name} is declared with "
                                 "init=False, it cannot be specified with "
                                 "replace()")
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)
