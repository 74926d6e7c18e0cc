"""Read-only fields and fields computed on first read.

krl computes each check once and keeps it on the object it describes,
which is sound only while that object cannot change.  One rule keeps it
so: public names are read-only.  Assigning or deleting a name without a
leading underscore, whether set by ``__init__`` or computed by
:class:`lazy`, raises ``dataclasses.FrozenInstanceError``.  Lattices,
structures, algebras and changed algebras inherit :class:`ReadOnly`;
Krivine structures, maps, interior operators and certificates are frozen
dataclasses, which refuse every field the same way.  ``__init__`` and
:class:`lazy` write past the guard with ``object.__setattr__``.  The
other rule, that a meet needs a checked order, rests on this one: the
lookup tables of an explicit lattice's meets are lazy fields that run its
order check on first read (:mod:`krl.order`), and nothing can replace
them or the order under them.

Each computed value has one store: the object it describes keeps it once,
in a lazy field or in a table built there (an implicative structure's
``rows`` and ``app_rows``, a Krivine structure's ``perp_lefts``), and
every reader indexes that store instead of keeping a copy in front of it.
A few values asked one by one before, or instead of, their whole table
are kept by cell (application cells, the point tables of perp classes).

:class:`lazy` is what every cached value in krl uses instead of
``functools.cached_property``.  That one stores through the instance
``__dict__``, whose first use on CPython 3.11 turns the object's inline
attribute storage into a plain dict for good and slows every later
attribute read on the object, and on 3.11 it also takes a lock per
first read.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class ReadOnly:
    """Refuses assignment to and deletion of every public name.  A name
    with a leading underscore, such as a private cache, is stored as
    usual."""

    def __setattr__(self, name, value):
        if name[0] != "_":
            raise FrozenInstanceError(f"cannot assign to field '{name}'")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name[0] != "_":
            raise FrozenInstanceError(f"cannot delete field '{name}'")
        object.__delattr__(self, name)


class lazy:
    """A field computed by the decorated method on first read, then stored
    on the instance under the same name with ``object.__setattr__``.  The
    descriptor defines no ``__set__``, so the stored value is found before
    it on every later read.  The store passes :class:`ReadOnly` and frozen
    dataclasses, as a cached value is not a reassignment; any later store
    of a public name is refused like that of a declared field."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value
