"""
Frozen value records, the base of poromix's value classes.

A subclass lists its fields as annotated class attributes, in order, and a
class-level value is that field's default:

    class Spec(Record):
        Ns: int
        M: int | None = None

gives Spec(Ns, M=None), with a repr, equality and hash by fields, and
instances that refuse assignment and deletion, as a frozen dataclass does.
``class Domain(Record, eq=False)`` keeps equality and hash by identity.
Unlike the dataclass decorator, nothing is generated or compiled per class:
every subclass shares the methods below, which read the field names
``__init_subclass__`` stores on the class.  A subclass may define
``__post_init__`` to check or normalise its fields once they are bound,
writing through ``object.__setattr__``.
"""

from __future__ import annotations

__all__ = ["Record"]

_setattr = object.__setattr__


class Record:
    """Base class of an immutable record of named fields (see the module docstring)."""

    _fields = ()  # the field names, in order, and the defaults of those that have one
    _defaults = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        # cls.__annotations__, not cls.__dict__: from Python 3.14 (PEP 649)
        # a class's annotations may be formed only on first access.
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # Not through self.__dict__: reading it moves the attributes out of
        # CPython's inline storage, which makes every later read slower.
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call with `args` and `kwargs`;
        a TypeError names a missing, unknown or repeated argument."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values, missing = list(args), []
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                missing.append(field)
        for key in kwargs:
            if key in fields:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if missing:
            raise TypeError(f"{name}() missing required argument"
                            f"{'s' if len(missing) > 1 else ''}: "
                            + ", ".join(repr(m) for m in missing))
        return values

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
