"""Value records: the part of the standard ``dataclass`` that the package uses.

The standard module loads ``inspect``, ``ast``, ``dis`` and ``tokenize``
(about 8 ms of a cold start), so the package's records come from here:
fields in annotation order, each with an optional default;
``__post_init__``; frozen instances whose assignment and deletion raise
AttributeError.  Every field is in the constructor, eq, hash and repr.  An
``__eq__``, ``__hash__`` or ``__repr__`` written in the class body stays.
As the standard decorator does, each class compiles its ``__init__``,
``__eq__`` and ``__hash__`` from one source string, so a constructor runs
no loop over its fields.  ``__dataclass_fields__`` lets the standard
``replace()`` copy a record with changed fields.
"""

_MISSING = object()


class field:
    """A field's default; ``name`` is set when its class is decorated."""

    # What replace() reads besides name and default: a field that is neither
    # a ClassVar nor an InitVar, and is passed to the constructor.
    _field_type = None
    init = True

    def __init__(self, *, default=_MISSING):
        self.default = default


def dataclass(cls=None, /, *, frozen=False):
    if cls is None:
        return lambda c: _record(c, frozen)
    return _record(cls, frozen)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(names):
    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"
    return __repr__


def _record(cls, frozen):
    body = cls.__dict__
    fields = {}
    for name in body.get("__annotations__", {}):
        f = field(default=body.get(name, _MISSING))
        f.name = name
        fields[name] = f
        if f.default is _MISSING:
            if name in body:
                delattr(cls, name)
        else:
            setattr(cls, name, f.default)
    ns = {"_set": object.__setattr__}
    params, lines = ["self"], []
    for name, f in fields.items():
        if f.default is not _MISSING:
            ns[f"_d_{name}"] = f.default
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
        lines.append(f"  _set(self, {name!r}, {name})" if frozen
                     else f"  self.{name} = {name}")
    if "__post_init__" in body:
        lines.append("  self.__post_init__()")
    mine = "".join(f"self.{n}," for n in fields)
    theirs = "".join(f"other.{n}," for n in fields)
    exec("\n".join([f"def __init__({', '.join(params)}):", *lines, "  pass",
                    "def __eq__(self, other):",
                    "  if other.__class__ is self.__class__:",
                    f"    return ({mine}) == ({theirs})",
                    "  return NotImplemented",
                    "def __hash__(self):",
                    f"  return hash(({mine}))"]), ns)
    methods = {"__init__": ns["__init__"],
               "__repr__": _repr(list(fields)),
               "__eq__": ns["__eq__"],
               "__hash__": ns["__hash__"] if frozen else None}
    for method, fn in methods.items():
        if method not in body:
            if fn is not None:
                fn.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, fn)
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    cls.__dataclass_fields__ = fields
    return cls
