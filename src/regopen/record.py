"""Immutable value classes without the dataclass machinery.

Importing ``dataclasses`` (which loads ``inspect``) and building each
``@dataclass`` took most of the package's import time, which every command
pays. A ``Record`` gives the same value semantics to a plain slotted class.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A value whose fields are its class's ``__slots__``, in order.

    ``__init__`` validates its arguments and stores them with ``_set``;
    after that no field can be assigned or deleted. Equality and hashing
    compare the fields of two records of one class, and the repr shows them
    as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
