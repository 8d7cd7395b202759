"""Shorthands the tests build fixtures with and the program does not need.

Import them as ``from tests.conftest import ...``, like the other
cross-module test helpers.
"""

from bemopt.schema import (
    DAYS_PER_WEEK,
    OUTPUT_CHANNELS,
    T_INT_INDEX,
    WEEKDAYS,
    BmsSchedule,
    OccupancySchedule,
)


def constant_bms(**daily_values: float) -> BmsSchedule:
    """Same value every day; keyword per variable name."""
    return BmsSchedule(**{k: (float(v),) * DAYS_PER_WEEK for k, v in daily_values.items()})


def constant_occ(start: float, end: float, max_occupants: float = 0.0) -> OccupancySchedule:
    """Same occupation window every weekday."""
    return OccupancySchedule((float(start),) * WEEKDAYS, (float(end),) * WEEKDAYS, max_occupants)


def channel(out, name: str):
    """One named output channel of a simulated week (`SimOutput`)."""
    return out.data[:, OUTPUT_CHANNELS.index(name)]


def t_int(out):
    """The indoor temperature channel of a simulated week (`SimOutput`)."""
    return out.data[:, T_INT_INDEX]
