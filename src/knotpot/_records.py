"""The base of knotpot's record types, written out instead of generated.

A record class lists its field names in `_fields`, in declaration
order, and the defaults of its optional fields in `_defaults`. The
base gives it what a frozen dataclass would: an __init__ taking the
fields by position or by name, __eq__ over the fields, true only
against the same class, a repr Name(field=value, ...), a __hash__
over the fields (a TypeError where a field is a dict or list), and
FrozenInstanceError on assignment and deletion. So no reader can
change a solve result that later solves share, such as the complete
structure a scan fills every slope from. Importing the base generates
no code, which keeps a CLI process's start-up short. ParamPoint, built
about 426 times per trace op, writes its own __init__: 0.5 µs a call
against the shared one's 1.3 µs (timeit, one core of a 2-core Xeon
VM). A record may keep a value computed from its fields outside them,
as a functools.cached_property, which writes the instance dict past
__setattr__: ParamPoint keeps the Li2 of its dilog arguments so, and
==, hash and repr, which read only _fields, do not see it.
invariants.InvariantReport stays a frozen dataclass, the one record
callers rebuild with dataclasses.replace.
"""

from dataclasses import FrozenInstanceError


class RecordBase:
    """Field-wise __init__, __eq__, __repr__ and __hash__; frozen."""

    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name = self.__class__.__qualname__
            rest = fields[len(args):]
            if len(args) > len(fields) or not kwargs.keys() <= set(rest):
                raise TypeError("%s() takes each of %s once" % (name, ", ".join(fields)))
            kwargs = {**self._defaults, **kwargs}
            try:
                args += tuple([kwargs[f] for f in rest])
            except KeyError as e:
                raise TypeError("%s() missing field %r" % (name, e.args[0])) from None
        # the instance dict is filled directly, past a frozen __setattr__
        self.__dict__.update(zip(fields, args))

    def _astuple(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(["%s=%r" % (f, getattr(self, f)) for f in self._fields])
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)
