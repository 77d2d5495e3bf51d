"""`Frozen`, the base of the package's immutable value classes.

A subclass names its fields in `__slots__` (a subclass that adds none sets
`__slots__ = ()`) and writes its `__init__` out, storing each field with
`set_field`.  The base derives the rest from the fields, in slot order:
equality only between instances of one class, a hash of the field values,
`Name(field=value, ...)` reprs, copying and pickling by calling the class
on the field values, and `AttributeError` on assignment or deletion.
"""

from operator import attrgetter

set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields = ()
    # the field values, read in C; a class of one field gets that value alone
    _key = staticmethod(lambda self: ())

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__dict__.get("__slots__", ())
        if cls._fields:
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
