"""Calendar quarters ("2016Q3") with total ordering and arithmetic."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ValidationError, quote

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


@dataclass(frozen=True, order=True)
class Quarter:
    """A calendar quarter. Ordering is chronological."""

    year: int
    quarter: int

    def __post_init__(self) -> None:
        if not 1 <= self.quarter <= 4:
            raise ValueError(f"quarter must be in 1..4, got {self.quarter}")

    @classmethod
    def parse(cls, text: str) -> "Quarter":
        m = _QUARTER_RE.match(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise ValidationError(f"bad quarter {quote(text)}, expected YYYYQn")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}Q{self.quarter}"  # parse reads it back

    @property
    def ordinal(self) -> int:
        return self.year * 4 + self.quarter - 1

    @classmethod
    def from_ordinal(cls, ordinal: int) -> "Quarter":
        return cls(ordinal // 4, ordinal % 4 + 1)

    def __add__(self, n: int) -> "Quarter":
        return Quarter.from_ordinal(self.ordinal + n)

    def __sub__(self, other):
        """Quarter - Quarter gives a signed count of quarters; Quarter - int shifts."""
        if isinstance(other, Quarter):
            return self.ordinal - other.ordinal
        return Quarter.from_ordinal(self.ordinal - other)
