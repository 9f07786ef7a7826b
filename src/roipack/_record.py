"""Frozen records: what roipack used of `dataclasses`, without its import
of `inspect` (and with it `ast`, `dis` and `tokenize`), which cost about
1 MB of RSS on Python 3.11.

`frozen` rebuilds a class from its annotated fields, in order, with a field's
default the value assigned to it in the class body. The record has
`__slots__` and no `__dict__`, an `__init__` that calls the class's
`__post_init__` check if it has one, value `__eq__` and `__hash__` within
its own class, a `Name(field=value, ...)` repr, and raises AttributeError on
assigning or deleting a field. Records are not meant to be pickled or copied.
"""


def frozen(cls):
    """The class `cls` rebuilt as a frozen record of its annotated fields."""
    names = tuple(cls.__annotations__)
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    scope = {f"_default_{n}": body.pop(n) for n in names if n in body}
    cls = type(cls.__name__, cls.__bases__, {**body, "__slots__": names, "_fields": names})
    # __init__ stores each field through its slot's descriptor, past the
    # refusing __setattr__, which builds a Rect faster than dataclasses'
    # object.__setattr__ calls do.
    scope.update({f"_set_{n}": getattr(cls, n).__set__ for n in names})
    params = ", ".join(f"{n}=_default_{n}" if f"_default_{n}" in scope else n for n in names)
    mine, theirs = ("".join(f"{who}.{n}, " for n in names) for who in ("self", "other"))
    exec(
        f"def __init__(self, {params}):\n"
        + "".join(f"    _set_{n}(self, {n})\n" for n in names)
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n"
        "        return NotImplemented\n"
        f"    return ({mine}) == ({theirs})\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n",
        scope,
    )
    for name in ("__init__", "__eq__", "__hash__"):
        setattr(cls, name, scope[name])
    cls.__setattr__, cls.__delattr__, cls.__repr__ = _refuse_set, _refuse_delete, _repr
    return cls


def replace(record, **changes):
    """A new record of `record`'s class with `changes` to its fields, checked again."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**(fields | changes))


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"
