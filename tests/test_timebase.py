from __future__ import annotations

import datetime
import random

import pytest

from nde4 import timebase
from nde4.timebase import (
    BadDatetime,
    DATETIME_LENGTH,
    EPOCH_TEXT,
    LogicalClock,
    format_tick,
    is_valid_datetime,
    parse_datetime,
)


def test_epoch_is_tick_zero():
    assert format_tick(0) == EPOCH_TEXT
    assert parse_datetime(EPOCH_TEXT) == 0


def test_round_trip_against_datetime_oracle():
    # oracle: stdlib datetime arithmetic from the same epoch
    epoch = datetime.datetime(2020, 1, 1)
    for tick in [1, 59, 60, 3600, 86_400, 31_536_000, 123_456_789]:
        text = format_tick(tick)
        oracle = (epoch + datetime.timedelta(seconds=tick)).strftime("%Y%m%dT%H%M%S")
        assert text == oracle
        assert len(text) == DATETIME_LENGTH
        assert parse_datetime(text) == tick


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "2020-01-01T00:00",
        "20200101T0000",  # too short
        "20200101T0000000",  # too long
        "20201301T000000",  # month 13
        "20200101X000000",  # wrong separator
        "19991231T235959",  # before epoch
        "\u0662\u0660\u0662\u06600101T000000",  # Arabic-Indic digits for 2020
        "２０２００１０１T000000",  # fullwidth digits
        "202001 1T000000",  # space-padded day, which strptime's %d takes
        "+2020101T000000",  # signs and spaces where int() would take them
        "20200101T 00000",
    ],
)
def test_parse_rejects_bad_text(bad):
    assert not is_valid_datetime(bad)
    with pytest.raises(BadDatetime):
        parse_datetime(bad)


def test_every_accepted_text_is_the_canonical_form_of_its_tick():
    # mutated canonical texts and random ones: whatever parses must format back
    # to itself, so two texts of one moment never both pass
    rng = random.Random(2024)
    alphabet = "0123456789T +-_:.Z\t\u0663"
    accepted = 0
    for _ in range(30_000):
        if rng.random() < 0.5:
            chars = list(format_tick(rng.randrange(0, 4_000_000_000)))
            for _ in range(rng.randint(1, 3)):
                chars[rng.randrange(len(chars))] = rng.choice(alphabet)
            text = "".join(chars)
        else:
            text = "".join(rng.choice("0123456789 T") for _ in range(DATETIME_LENGTH))
        try:
            tick = parse_datetime(text)
        except BadDatetime:
            continue
        accepted += 1
        assert format_tick(tick) == text
    assert accepted > 1000


def test_clock_is_monotone():
    clock = LogicalClock()
    assert clock.tick == 0
    clock.advance()
    clock.advance(10)
    assert clock.tick == 11
    clock.advance_to(100)
    assert clock.now_text() == format_tick(100)
    assert clock.advance(0) == 100  # no-op, not an error
    with pytest.raises(ValueError):
        clock.advance(-1)
    with pytest.raises(ValueError):
        clock.advance_to(99)


def test_now_text_formats_each_tick_once(monkeypatch):
    calls = []

    def counted(tick):
        calls.append(tick)
        return format_tick(tick)

    monkeypatch.setattr(timebase, "format_tick", counted)
    clock = LogicalClock(start=5)
    assert {clock.now_text() for _ in range(50)} == {format_tick(5)}
    assert calls == [5]
    clock.advance(0)  # same tick: still cached
    clock.now_text()
    assert calls == [5]
    clock.advance()
    assert clock.now_text() == format_tick(6)
    clock.advance_to(100)
    assert clock.now_text() == clock.now_text() == format_tick(100)
    assert calls == [5, 6, 100]
