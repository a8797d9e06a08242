"""Bases for knotpot's record types, written out instead of generated.

A record class lists its field names in `_fields`, in declaration
order, and writes its own __init__. The bases give it what the
dataclass decorator would: __eq__ over the fields, true only against
the same class, and a repr Name(field=value, ...). FrozenRecord adds a
__hash__ over the fields and refuses assignment and deletion, as a
frozen dataclass does; its __init__ fills the instance __dict__.
Importing them generates no code, which keeps the start-up of a CLI
process short.
"""

from dataclasses import FrozenInstanceError


class RecordBase:
    """Field-wise __eq__ and __repr__; unhashable, like a plain dataclass."""

    __hash__ = None

    def _astuple(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(["%s=%r" % (f, getattr(self, f)) for f in self._fields])
        return "%s(%s)" % (self.__class__.__qualname__, fields)


class FrozenRecord(RecordBase):
    """A record hashed by its fields whose fields cannot be reassigned."""

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)
