"""Deterministic time base: logical ticks and the fixed DATETIME text form.

All timestamps in the system are logical. A tick is an integer number of
seconds relative to a fixed epoch; the wire/text representation is always
the 15-character form "YYYYMMDDThhmmss" (UTC, no offset). Wall clocks are
never read.
"""

from __future__ import annotations

import datetime as _dt

from .errors import Nde4Error

DATETIME_LENGTH = 15

# tick 0 of every run
EPOCH = _dt.datetime(2020, 1, 1, 0, 0, 0)
EPOCH_TEXT = "20200101T000000"


class BadDatetime(Nde4Error):
    """Text does not conform to the fixed YYYYMMDDThhmmss layout."""


def format_tick(tick: int) -> str:
    """Render a logical tick as the canonical 15-char DATETIME text."""
    moment = EPOCH + _dt.timedelta(seconds=tick)  # OverflowError out of range
    return "%04d%02d%02dT%02d%02d%02d" % (
        moment.year, moment.month, moment.day,
        moment.hour, moment.minute, moment.second,
    )


def parse_datetime(text: str) -> int:
    """Parse canonical DATETIME text back to a logical tick.

    Raises BadDatetime on any layout or calendar violation. The layout is
    exactly 8 ASCII digits, "T", 6 ASCII digits: DATETIME texts are compared
    as strings, so only the one canonical form of each moment may parse,
    and int() alone would also take signs, spaces and non-ASCII digits.
    """
    if len(text) != DATETIME_LENGTH:
        raise BadDatetime(
            f"datetime must be {DATETIME_LENGTH} chars, got {len(text)}: {text!r}"
        )
    date, separator, time = text[:8], text[8], text[9:]
    if not (
        text.isascii() and date.isdigit() and separator == "T" and time.isdigit()
    ):
        raise BadDatetime(f"datetime must be ASCII YYYYMMDDThhmmss: {text!r}")
    try:
        moment = _dt.datetime(
            int(date[:4]), int(date[4:6]), int(date[6:]),
            int(time[:2]), int(time[2:4]), int(time[4:]),
        )
    except ValueError as exc:
        raise BadDatetime(f"invalid datetime {text!r}: {exc}") from exc
    if moment < EPOCH:
        raise BadDatetime(f"datetime precedes the epoch: {text!r}")
    return int((moment - EPOCH).total_seconds())


def is_valid_datetime(text: str) -> bool:
    try:
        parse_datetime(text)
    except BadDatetime:
        return False
    return True


class LogicalClock:
    """Monotone integer clock shared by every component of one run."""

    def __init__(self, start: int = 0):
        self._tick = start
        self._text: tuple[int | None, str] = (None, "")  # (tick, its text)

    @property
    def tick(self) -> int:
        return self._tick

    def now_text(self) -> str:
        """DATETIME text of the current tick, formatted once per tick."""
        tick, cached = self._tick, self._text  # one tuple, so threads see a pair
        if cached[0] != tick:
            cached = self._text = (tick, format_tick(tick))
        return cached[1]

    def advance(self, seconds: int = 1) -> int:
        if seconds < 0:
            raise ValueError("clock cannot run backwards")
        self._tick += seconds
        return self._tick

    def advance_to(self, tick: int) -> int:
        if tick < self._tick:
            raise ValueError(f"clock cannot run backwards: {tick} < {self._tick}")
        self._tick = tick
        return self._tick
