"""The common exception base (one exit code in the CLI) and number syntax."""


class SfqlecError(Exception):
    """Base class for all errors raised by this package."""


def parse_number(text: str, convert=int):
    """`convert(text)`, int or float, for ASCII text without `_` only."""
    if not text.isascii() or "_" in text:  # no 1_000, no other script's digits
        raise ValueError(f"invalid number {text!r}")
    return convert(text)
