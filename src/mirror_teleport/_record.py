"""Frozen value records, built without generated code.

``@record`` makes a class whose annotated names are its fields into an
immutable value type that keeps its fields in slots.  The class gets a
constructor that takes the fields by position or keyword (a class
attribute of a field's name is its default) and then calls
``__post_init__``; ``__setattr__`` and ``__delattr__`` that raise
AttributeError; ``__eq__`` and ``__hash__`` over the fields in order; a
``__repr__`` in the standard library's ``Name(field=value, ...)`` format;
and pickling and copying through the constructor.  :func:`replace` copies
a record through its constructor too, so the class's checks run again.

The methods are closures over the field names: making a class generates
and compiles no source, and this module imports only ``itertools``.  Slots
rather than an instance ``__dict__`` hold the fields because, on CPython
3.11, a field of a ``__dict__`` filled in one call reads more slowly than
an attribute set on its own, and a slot reads as fast as the latter.
"""

from itertools import repeat


def record(cls):
    """Class decorator: ``cls`` as a frozen record of its annotated fields."""
    body = dict(vars(cls))
    names = tuple(cls.__annotations__)
    defaults = {name: body.pop(name) for name in names if name in body}
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body.update(__slots__=names, __qualname__=cls.__qualname__)
    cls = type(cls.__name__, cls.__bases__, body)
    count = len(names)
    setters = tuple(vars(cls)[name].__set__ for name in names)
    by_name = dict(zip(names, setters))
    post_init = getattr(cls, "__post_init__", None)
    title = f"{cls.__name__}()"

    def bind(args, kwargs):
        """The values, by name and with the defaults, of a call that gives
        neither one value for each field by position nor one for each by
        keyword; the caller rejects a name that is no field."""
        if len(args) > count:
            raise TypeError(f"{title} takes {count} arguments, got {len(args)}")
        given = dict(zip(names, args))
        if not given.keys().isdisjoint(kwargs):
            raise TypeError(f"{title} got two values for {sorted(given.keys() & kwargs)}")
        values = {**defaults, **given, **kwargs}
        if len(values) < count:
            raise TypeError(f"{title} lacks {[n for n in names if n not in values]}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            if args or len(kwargs) != count:
                kwargs = bind(args, kwargs)
            try:
                for name, value in kwargs.items():
                    by_name[name](self, value)
            except KeyError as exc:
                raise TypeError(f"{title} has no field {exc}") from None
        else:
            # A counter: zip or enumerate made a 3-field record slower to
            # build than a generated __init__ on CPython 3.11.
            i = 0
            for set_field in setters:
                set_field(self, args[i])
                i += 1
        if post_init is not None:
            post_init(self)

    def values(self):
        return tuple(map(getattr, repeat(self), names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        items = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({items})"

    def __reduce__(self):
        return self.__class__, values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __reduce__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def replace(obj, /, **changes):
    """A copy of record ``obj`` with the fields in ``changes`` replaced, made by
    its constructor, so that the record's checks run on the new values."""
    names = obj.__slots__
    return type(obj)(**{**dict(zip(names, map(getattr, repeat(obj), names))), **changes})
