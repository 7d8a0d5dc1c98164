"""The base of the records that keep cached answers or check their fields.

Every result record of the library is an immutable typing.NamedTuple.  One
that keeps functools.cached_property answers, or checks its fields, is a
class over a NamedTuple of its fields with Record first among its bases,
as GMap(Record, _GMapFields).  Declaring no __slots__, it has a __dict__
for the cached answers while its fields stay read-only; its checks go in
its own __new__, since a tuple runs no __init__ and a NamedTuple body may
not define __new__.

namedtuple's _make, which _replace calls, builds the tuple directly: it
would skip those checks, and it counts the fields with len(), which
LimitSet answers with its number of elements.  Record's _make goes
through the class instead, so a copy is checked as a new record is and
starts with no cached answers.
"""


class Record:
    """Copies (_make, _replace) built through the record's own class."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
