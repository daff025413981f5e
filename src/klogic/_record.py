"""Immutable value records, built without `dataclasses`.

Every klogic process needs the formula and result types at start-up.
Generating their methods with `dataclasses` compiles over a hundred small
functions and imports `inspect`, which together cost more than the rest of
klogic's import; `Record` supplies the same behaviour from one set of
generic methods.
"""

from __future__ import annotations


class Record:
    """Base of klogic's frozen value types.

    A subclass declares its fields as class annotations; a base's fields
    come first, and a class attribute named like a field is its default.
    Instances are built from positional or keyword arguments, then
    `__post_init__` runs, which may normalise a field with
    `object.__setattr__`.  Assigning or deleting an attribute raises
    AttributeError.  Two records are equal when they are of the same class
    and their fields are equal, and a record hashes over its fields.  The
    repr is `Name(field=value, ...)`, `__match_args__` lists the fields, and
    pickling rebuilds a record through `__init__`.
    """

    __match_args__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls.__match_args__ = tuple(dict.fromkeys((*cls.__match_args__, *own)))
        cls._defaults = {
            name: getattr(cls, name) for name in cls.__match_args__ if hasattr(cls, name)
        }

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """Field name to value from constructor arguments, defaults filled in."""
        fields = cls.__match_args__
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in cls._defaults:
                        raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
                    values[name] = cls._defaults[name]
        return values

    def __init__(self, *args, **kwargs):
        object.__setattr__(self, "__dict__", self._bind(args, kwargs))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate or normalise the fields; called by `__init__`."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
