"""Synthetic weekly weather traces and their on-disk CSV form.

The sampler needs a pool of plausible weekly weather; real recordings can
be dropped in as hourly CSV files (`schema.write_hourly_csv`) with the same
seven channels. The synthetic generator draws a season at random, builds a
diurnal temperature cycle with AR(1) synoptic noise, and derives the
irradiance channels from a solar-elevation proxy modulated by cloud cover,
keeping the identity IGLOB_H = IBEAM_H + IDIFF_H and DNI = IBEAM_N.
"""

from __future__ import annotations

import os

import numpy as np

from .schema import (
    HOURS_PER_WEEK,
    WEATHER_CHANNELS,
    SchemaError,
    WeatherSeries,
    make_output_dir,
    read_hourly_csv,
    write_hourly_csv,
)
from .seeding import substream


def synthetic_week(rng: np.random.Generator) -> WeatherSeries:
    """One week of hourly weather at a uniformly drawn time of year."""
    doy = rng.uniform(0.0, 365.0)
    season = -np.cos(2 * np.pi * (doy + 10.0) / 365.0)  # -1 midwinter, +1 midsummer
    t_season = 11.0 + 9.0 * season
    t_offset = rng.normal(0.0, 2.5)
    diurnal_amp = rng.uniform(2.0, 5.0)
    cloud_base = rng.uniform(0.15, 0.95)

    hours = np.arange(HOURS_PER_WEEK)
    hod = hours % 24

    ar = np.empty(HOURS_PER_WEEK)
    x = rng.normal(0.0, 1.0)
    for h in range(HOURS_PER_WEEK):
        x = 0.9 * x + rng.normal(0.0, 0.35)
        ar[h] = x
    tamb = t_season + t_offset - diurnal_amp * np.cos(2 * np.pi * (hod - 14.5) / 24.0) + ar

    cloud = np.empty(HOURS_PER_WEEK)
    c = cloud_base
    for h in range(HOURS_PER_WEEK):
        c = cloud_base + 0.85 * (c - cloud_base) + rng.normal(0.0, 0.06)
        cloud[h] = min(max(c, 0.0), 1.0)

    half_day = 6.0 + 2.5 * season  # hours of daylight either side of noon
    elev = np.maximum(0.0, np.cos(np.pi * (hod - 12.0) / (2.0 * half_day)))
    elev[np.abs(hod - 12.0) >= half_day] = 0.0

    dni = 950.0 * (1.0 - cloud) * (0.85 + 0.15 * elev) * (elev > 0)
    ibeam_h = dni * elev
    idiff_h = (80.0 + 220.0 * cloud) * elev
    iglob_h = ibeam_h + idiff_h
    rhum = np.clip(70.0 - 1.2 * (tamb - t_season) + 25.0 * (cloud - 0.5), 15.0, 98.0)

    data = np.column_stack([dni, ibeam_h, dni, idiff_h, iglob_h, rhum, tamb])
    return WeatherSeries(data)


def generate_pool(seed: int, n_weeks: int) -> list[WeatherSeries]:
    """Deterministic pool of synthetic weeks; week i depends only on (seed, i)."""
    return [synthetic_week(substream(seed, "weather-week", i)) for i in range(n_weeks)]


def save_week(path, week: WeatherSeries) -> None:
    write_hourly_csv(path, WEATHER_CHANNELS, week.data)


def load_week(path) -> WeatherSeries:
    """Read a week written by `save_week` (see `schema.read_hourly_csv`)."""
    data = read_hourly_csv(path, WEATHER_CHANNELS)
    try:
        return WeatherSeries(data)
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from None


def save_pool(directory, weeks: list[WeatherSeries]) -> list[str]:
    make_output_dir(directory)
    paths = []
    for i, week in enumerate(weeks):
        p = os.path.join(directory, f"week_{i:04d}.csv")
        save_week(p, week)
        paths.append(p)
    return paths


def load_pool(directory) -> list[WeatherSeries]:
    names = sorted(n for n in os.listdir(directory) if n.endswith(".csv"))
    if not names:
        raise SchemaError(f"{directory}: no weather CSV files found")
    return [load_week(os.path.join(directory, n)) for n in names]
