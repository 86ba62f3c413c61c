"""Exception types shared across the package, the line reader of the text
inputs and the quoting of input values in error messages."""

from __future__ import annotations

import contextlib
from typing import Iterator, TextIO


class ValidationError(Exception):
    """Input data violates a format or consistency rule."""


class CycleError(ValidationError):
    """The ontology contains a cycle; the offending path is in the message."""


class NumericalError(Exception):
    """A numerical routine failed (degenerate input, non-convergence)."""


@contextlib.contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text with universal newlines.

    A byte that is not UTF-8, met while the body reads the file, raises a
    ValidationError ``<path>:<line>: ...`` for the first such byte in the
    file. Its line is counted as the text stream counts them: ``\\n``,
    ``\\r\\n`` and a lone ``\\r`` each end one.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # The stream's error counts bytes within one read chunk, so the
            # file is decoded again whole to place the byte.
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = data[: exc.start]
                line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
                raise ValidationError(
                    f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                    f"({exc.reason})"
                ) from None
            raise


def is_data_line(text: str) -> bool:
    """False for a line to skip: blank, or ``#`` first after whitespace."""
    return text.lstrip()[:1] not in ("", "#")


def data_lines(path: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of ``path`` that is_data_line
    keeps, without its newline. Lines are read and numbered by open_text,
    skipped ones included."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if is_data_line(raw):
                yield lineno, raw.rstrip("\n")


QUOTE_CHARS = 60  # of an input value's repr that an error message quotes


def quote(value: object) -> str:
    """``repr(value)`` for an error message, cut to QUOTE_CHARS characters;
    a cut one ends with the value's type and full length."""
    text = repr(value)
    if len(text) <= QUOTE_CHARS:
        return text
    length = len(value) if hasattr(value, "__len__") else len(text)
    return f"{text[:QUOTE_CHARS]}... ({type(value).__name__} of length {length})"
