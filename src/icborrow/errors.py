"""Exception types shared across the package, and the text reader that
turns a byte that is not UTF-8 into a ValidationError."""

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
