"""The base of wavesym's value classes.

A value class names its compared fields in ``_fields`` and sets them in a
plain ``__init__`` with :func:`set_field`, since instances refuse
assignment.  Instances compare equal when they are of the same class with
equal fields and hash by the tuple of those fields.  The classes are
written out rather than generated by ``dataclasses``, whose import and
per-class code generation cost more start-up time than a whole command's
own work.  Every class compares by the one rule below: no command compares
or hashes values often enough for a class of its own to pay.  A seed-1
benchmark pass compares or hashes canonical forms at most 267 times and
charts at most 52, and `--K 160 --source paper verify-algebra` hashes 1,298
forms.  Each class reads its fields with one ``operator.attrgetter``, made
once when the class is defined: a comparison of two equal forms then takes
about 1 us, against about 2 us for a list of ``getattr`` calls turned into a
tuple (CPython 3.11 on a 2-vCPU container).  A class of one field compares
and hashes by that field's value, a class of more by their tuple.  A vector field
keeps its own hash, computed once, because the caches of prolonged fields
and compiled rank matrices hash whole fields.  The run settings, which
stay assignable, have none.
"""

from __future__ import annotations

import operator

# sets a field of a value under construction.  Writing ``__dict__``
# instead would make Python keep a separate dict per instance.
set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # a plain attribute, not a method: the getter takes the value
            cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
