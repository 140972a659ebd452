"""The shared base of qloop's immutable value records.

RepSpec, ModePattern, RootIndex, CartanExponent, Weight and LWeight are small
immutable values.  Each subclass of Record names its two or more fields in
__slots__, in constructor order, and its own __init__ validates the
arguments and sets the fields with object.__setattr__.  Record gives them one
value semantics: records are equal when they are of the same class with equal
fields, hash as the tuple of their fields, refuse assignment, print as
Name(field=value, ...), and copy and pickle by calling the class on their
fields again, so a copy passes the same validation.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable value compared, hashed and printed by its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields as one tuple, read in C
        cls._values = property(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values
