"""Shared exception types, and the line and number rules of the input files."""


class TieupkitError(Exception):
    """Base class for all package errors."""


class ParseError(TieupkitError):
    """Malformed input file.

    Carries the offending line number (1-based) and, when known, the path,
    so batch tools can point at the exact spot.
    """

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        where = []
        if path is not None:
            where.append(path)
        if line is not None:
            where.append(f"line {line}")
        prefix = ":".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class DanglingReferenceError(TieupkitError):
    """A template object points at an object id that was never emitted."""

    def __init__(self, ref: str):
        self.ref = ref
        super().__init__(f"dangling object reference: {ref}")


# Longest number any file format takes: every number then fits in 64 bits,
# and ``int`` never sees a string long enough to be slow or refused.
MAX_DIGITS = 18
# The numbers below 256 by their one accepted spelling: nearly every object
# number is one of them, and is then read without the checks.
_SMALL_NUMBERS = {str(n): n for n in range(256)}


def read_number(digits: str, what: str, line: int | None, path: str | None) -> int:
    """``digits`` as an int: ASCII digits, no sign, underscore or leading zero,
    at most MAX_DIGITS of them.  ``what`` names the number in the error, with
    ``{}`` where its spelling goes."""
    number = _SMALL_NUMBERS.get(digits)
    if number is not None:
        return number
    if len(digits) > MAX_DIGITS:
        raise ParseError(
            what.format(digits[:MAX_DIGITS] + "...") + f" has more than {MAX_DIGITS} digits",
            line, path,
        )
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and len(digits) > 1):
        raise ParseError(
            what.format(digits) + " must be ASCII digits with no leading zero", line, path
        )
    return int(digits)


def content_lines(text: str):
    """``(lineno, stripped)`` for each line of ``text`` that is neither blank
    nor starts with ``#``, numbered as ``str.splitlines`` numbers lines."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped
