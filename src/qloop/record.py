"""Value semantics for qloop's immutable types, written once.

Frozen refuses assignment and deletion; subclasses set their slots with
object.__setattr__ (or the slot's own descriptor) while they are built.

Record extends it for the nine values compared by their fields: RepSpec,
RootIndex, CartanExponent, Weight, LWeight, USeries, URational, FockState
and OscWord.  Each names its two or more fields in __slots__, in
constructor order, and its own __init__ validates or normalizes them.  A Record may inherit its fields: a subclass whose
__slots__ is empty keeps its base's, as RootIndex and CartanExponent keep
those of rootsys._NodeVector.  Records are equal when of the same class with
equal fields (so a RootIndex never equals a CartanExponent), hash as the
tuple of their fields (a FockState, whose terms are a dict, has no hash),
print as Name(field=value, ...) unless the class prints itself, and copy and
pickle by calling the class on their fields again.

QRational and OpExpr take Frozen only: both are interned, one object per
value, so equality is identity and comparing fields would add nothing; each
copies and pickles by rebuilding from its fields, which finds the interned one.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """An object whose attributes cannot be assigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    """An immutable value compared, hashed and printed by its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        # a class that names no fields keeps its base's
        fields = vars(cls).get("__slots__", ())
        if fields:
            cls._fields = fields
            # the fields as one tuple, read in C
            cls._values = property(attrgetter(*fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values
