"""Fields computed on first read.

:class:`lazy` is what every cached value in krl uses instead of
``functools.cached_property``.  That one stores through the instance
``__dict__``, whose first use on CPython 3.11 turns the object's inline
attribute storage into a plain dict for good and slows every later
attribute read on the object, and on 3.11 it also takes a lock per
first read.
"""

from __future__ import annotations


class lazy:
    """A field computed by the decorated method on first read, then stored
    on the instance under the same name with ``object.__setattr__``.  The
    descriptor defines no ``__set__``, so the stored value is found before
    it on every later read.  The store passes the read-only guards and
    frozen dataclasses, as a cached value is not a reassignment."""

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
