"""The base of wavesym's value classes.

A value class names its compared fields in ``_fields`` and sets them in a
plain ``__init__`` with :func:`set_field`, since instances refuse
assignment.  Instances compare equal when they are of the same class with
equal fields and hash by the tuple of those fields.  The classes are
written out rather than generated by ``dataclasses``, whose import and
per-class code generation cost more start-up time than a whole command's
own work.  The hot classes (canonical forms, charts and vector fields)
define their own ``__eq__`` and ``__hash__`` without the loop over field
names below.  Expression nodes keep these, since no command compares or
hashes a parsed tree.
"""

from __future__ import annotations

# sets a field of a value under construction.  Writing ``__dict__``
# instead would make Python keep a separate dict per instance.
set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
