"""Immutable records: tuple subclasses whose fields a class names by its
annotations.

A direct subclass of ``Record`` lists its fields as annotations, in order,
gives a field its default as a class attribute, and declares
``__slots__ = ()`` so its instances hold nothing but the tuple::

    class Span(Record):
        __slots__ = ()
        start: int
        end: int = 0

The class then behaves as the ``typing.NamedTuple`` with the same body
would: fields read by name (through the descriptor ``namedtuple`` uses) or
index, ``_fields``, ``_field_defaults``, ``__match_args__``, ``_make``,
``_replace``, ``_asdict``, a repr naming the fields, and pickling and
copying by value.  Unlike ``collections.namedtuple``, which compiles a
``__new__`` for each class from generated source, building a record class
generates no code.  Every record is constructed by the one generic
``Record.__new__``, so ``inspect.signature`` shows ``(*args, **kwargs)``;
it fills defaults from a table built with the class and raises the
``TypeError`` a generated constructor would for a missing, extra or
unknown argument.  A record class may define its own checked ``__new__``
that builds the tuple with ``tuple.__new__``.  A subclass of a record
class keeps its parent's fields.
"""

from collections import _tuplegetter

_new = tuple.__new__


class Record(tuple):
    __slots__ = ()

    _fields = ()
    _field_defaults = {}

    def __init_subclass__(cls):
        if Record not in cls.__bases__:
            return
        fields = tuple(cls.__annotations__)
        own = vars(cls)
        defaults = {}
        for index, name in enumerate(fields):
            if name in own:
                defaults[name] = own[name]
            elif defaults:
                raise TypeError(f"{cls.__name__}: field {name!r} without a default "
                                f"follows a field with one")
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))
        tail = tuple(defaults.values())
        required = len(fields) - len(tail)
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = defaults
        cls._arity = len(fields)
        # Per count of positional arguments that the defaults can complete
        # short of the arity, the defaults that complete it.
        cls._completions = {required + k: tail[k:] for k in range(len(tail))}
        cls._repr_format = "(" + ", ".join(f"{name}=%r" for name in fields) + ")"

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != cls._arity:
            tail = None if kwargs else cls._completions.get(len(args))
            args = _arguments(cls, args, kwargs) if tail is None else args + tail
        return _new(cls, args)

    @classmethod
    def _make(cls, iterable):
        """A record of ``cls`` from an iterable of all its field values."""
        result = _new(cls, iterable)
        if len(result) != cls._arity:
            raise TypeError(f"Expected {cls._arity} arguments, got {len(result)}")
        return result

    def _replace(self, /, **changes):
        """A copy with the named fields given new values."""
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def _asdict(self):
        """A dict mapping each field name to its value."""
        return dict(zip(self._fields, self))

    def __repr__(self):
        return self.__class__.__name__ + self._repr_format % self

    def __getnewargs__(self):
        return tuple(self)


def _arguments(cls, args, kwargs):
    """The field values of a call with keywords or with too few or too many
    positional arguments, in field order."""
    fields = cls._fields
    name = cls.__name__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    values = list(args)
    defaults = cls._field_defaults
    for field in fields[len(args):]:
        if field in kwargs:
            values.append(kwargs.pop(field))
        elif field in defaults:
            values.append(defaults[field])
        else:
            raise TypeError(f"{name}() missing required argument: {field!r}")
    if kwargs:
        field = next(iter(kwargs))
        reason = "multiple values for" if field in fields else "an unexpected keyword"
        raise TypeError(f"{name}() got {reason} argument {field!r}")
    return values
