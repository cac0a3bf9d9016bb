"""The common exception base (one exit code in the CLI), the value-record
base and number syntax."""


class SfqlecError(Exception):
    """Base class for all errors raised by this package."""


class Value:
    """Base of a `__slots__` record compared by value: equal to a record of
    its own type with equal fields (never to a tuple), and hashed from its
    fields, so hashing fails, as a tuple's does, if one is unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


def parse_number(text: str, convert=int):
    """`convert(text)`, int or float, for ASCII text without `_` only."""
    if not text.isascii() or "_" in text:  # no 1_000, no other script's digits
        raise ValueError(f"invalid number {text!r}")
    return convert(text)
