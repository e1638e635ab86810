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


EPOCH = datetime.datetime(2020, 1, 1)


def tick_of(moment: datetime.datetime) -> int:
    delta = moment - EPOCH  # whole seconds: total_seconds() rounds far from 2020
    return delta.days * 86_400 + delta.seconds


def test_round_trip_against_datetime_oracle():
    # oracle: stdlib datetime arithmetic from the same epoch, and strftime,
    # whose %Y pads to four digits only from year 1000 on (glibc)
    rng = random.Random(1000)
    first, last = tick_of(datetime.datetime(1000, 1, 1)), tick_of(datetime.datetime.max)
    ticks = [1, 59, 60, 3600, 86_400, 31_536_000, 123_456_789, -1, -86_400, first, last]
    ticks += [rng.randrange(first, last + 1) for _ in range(10_000)]
    ticks += [rng.randrange(-400 * 86_400, 40 * 365 * 86_400) for _ in range(10_000)]
    ticks += [day * 86_400 - 1 for day in range(-40, 4000, 7)]  # last second of a day
    for year in (1000, 1999, 2019, 2020, 2023, 2024, 2099, 2100, 9998):
        end = tick_of(datetime.datetime(year + 1, 1, 1))  # year ends
        ticks += [end - 1, end]
    for moment in ("20200228T235959", "20200229T000000", "20200229T235959",
                   "20200301T000000", "20240229T120000"):
        ticks.append(tick_of(datetime.datetime.strptime(moment, "%Y%m%dT%H%M%S")))
    assert len(ticks) > 20_000
    for tick in ticks:
        text = format_tick(tick)
        oracle = (EPOCH + datetime.timedelta(seconds=tick)).strftime("%Y%m%dT%H%M%S")
        assert text == oracle
        assert len(text) == DATETIME_LENGTH
        if tick >= 0:
            assert parse_datetime(text) == tick
        else:  # the text of a moment before the epoch does not parse
            assert not is_valid_datetime(text)
    assert format_tick(tick_of(datetime.datetime(2020, 2, 29, 23, 59, 59))) == "20200229T235959"


def test_format_tick_pads_years_before_1000():
    # strftime writes year 499 as "499": 14 characters, where the layout has 15
    tick = tick_of(datetime.datetime(499, 12, 31, 9, 36))
    assert format_tick(tick) == "04991231T093600"
    assert format_tick(tick_of(datetime.datetime.min)) == "00010101T000000"


@pytest.mark.parametrize(
    "tick",
    [tick_of(datetime.datetime.max) + 1, tick_of(datetime.datetime.min) - 1, 10**18, -(10**18)],
)
def test_format_tick_out_of_range_raises_overflow(tick):
    with pytest.raises(OverflowError):
        format_tick(tick)


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
