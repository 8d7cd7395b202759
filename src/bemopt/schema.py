"""Variable schemas, schedules and the hourly episode representation.

Everything downstream (simulator, surrogate, calibration, optimization)
speaks in terms of the types defined here: static building parameters,
daily management-system and occupancy schedules, hourly weather, and the
assembled per-week episode matrix. All containers are immutable after
construction (arrays are marked read-only), so they can be shared freely
across workers. `write_hourly_csv`/`read_hourly_csv` are the one on-disk
form of a week of hourly values (weather weeks, sensor traces, predicted
series), `make_output_dir` is the one place output directories are
created (`check_output_dir` tells early whether it can), and `SchemaError`
is the one exception for bad input.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7
WEEKDAYS = 5  # week starts Monday (hour 0 = Monday 00:00)
HOURS_PER_WEEK = HOURS_PER_DAY * DAYS_PER_WEEK

DAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

WEATHER_CHANNELS = ("DNI", "IBEAM_H", "IBEAM_N", "IDIFF_H", "IGLOB_H", "RHUM", "TAMB")
OUTPUT_CHANNELS = (
    "Q_AC_OFFICE",
    "Q_HEAT_OFFICE",
    "Q_PEOPLE",
    "Q_EQP",
    "Q_LIGHT",
    "Q_AHU_C",
    "Q_AHU_H",
    "T_INT_OFFICE",
)
T_INT_INDEX = OUTPUT_CHANNELS.index("T_INT_OFFICE")
# Channels summed into the "heat consumption" sensor aggregate.
HEAT_AGGREGATE_CHANNELS = ("Q_HEAT_OFFICE", "Q_AHU_H", "Q_EQP", "Q_LIGHT")
HEAT_AGGREGATE_INDICES = tuple(OUTPUT_CHANNELS.index(c) for c in HEAT_AGGREGATE_CHANNELS)


class SchemaError(ValueError):
    """Input from outside the program is malformed or out of range."""


def make_output_dir(path) -> None:
    """Create the directory ``path`` (and its parents) unless it exists.

    A path that cannot be a directory, such as an existing regular file,
    raises SchemaError naming it.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise SchemaError(f"cannot create output directory {path}: {e.strerror or e}") from None


def check_output_dir(path) -> None:
    """Raise SchemaError unless ``path`` is a directory or its nearest existing
    ancestor is one, so a command can fail before its work on an output
    path that `make_output_dir` would refuse. Creates nothing."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe) and os.path.dirname(probe) != probe:
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise SchemaError(f"cannot create output directory {path}: {probe} is not a directory")


def write_hourly_csv(path, columns: Sequence[str], data) -> None:
    """Write a (168, k) array as a `hour,<columns>` header and one row per hour.

    Cells are `repr` of Python floats, which read back bit for bit.
    """
    rows = np.asarray(data, dtype=np.float64).tolist()
    lines = ["hour," + ",".join(columns)]
    lines += [f"{h}," + ",".join(map(repr, row)) for h, row in enumerate(rows)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_hourly_csv(path, columns: Sequence[str]) -> np.ndarray:
    """Read a `write_hourly_csv` file into a (168, k) array.

    The header must be exactly `hour,<columns>`, the hour column must read
    0..167 in order, and each row holds one number per column; blank lines
    are skipped. Any other file raises SchemaError naming the path (and the
    line, where there is one).
    """
    want = "hour," + ",".join(columns)
    with open(path) as f:
        lines = f.read().split("\n")
    if lines[0].strip() != want:
        raise SchemaError(f"{path}: unexpected header {lines[0].strip()!r}, want {want!r}")
    width = 1 + len(columns)
    values = []  # row-major cells, one flat list
    n_rows = 0
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != width:
            raise SchemaError(f"{path}: line {lineno}: expected {width} fields")
        if parts[0] != str(n_rows):
            raise SchemaError(f"{path}: line {lineno}: hour {parts[0]!r}, expected {n_rows}")
        try:
            values += map(float, parts[1:])
        except ValueError as e:
            raise SchemaError(f"{path}: line {lineno}: {e}") from None
        n_rows += 1
    if n_rows != HOURS_PER_WEEK:
        raise SchemaError(f"{path}: expected {HOURS_PER_WEEK} rows, got {n_rows}")
    return np.array(values).reshape(n_rows, len(columns))


@dataclass(frozen=True)
class VariableSpec:
    """One sampled variable: its range and granularity."""

    name: str
    min: float
    max: float
    step: float

    def __post_init__(self):
        if not self.min <= self.max:
            raise SchemaError(f"{self.name}: min {self.min} > max {self.max}")
        if not self.step > 0:
            raise SchemaError(f"{self.name}: step must be > 0, got {self.step}")
        ratio = (self.max - self.min) / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise SchemaError(
                f"{self.name}: span {self.max - self.min} is not a multiple of step {self.step}"
            )

    @property
    def n_levels(self) -> int:
        """Number of points on the sampling grid (both endpoints included)."""
        return int(round((self.max - self.min) / self.step)) + 1


def decode_unit_box(specs: Sequence[VariableSpec], x01) -> np.ndarray:
    """Unit-box coordinates -> grid values, one spec per coordinate.

    Each coordinate is clipped to [0, 1], rescaled to its spec's range and
    snapped to the nearest grid point (ties to even, like Python's
    ``round``), clipped to the grid's ends; every search space decodes
    through this one function.
    """
    x01 = np.asarray(x01, dtype=np.float64)
    if x01.shape != (len(specs),):
        raise ValueError(f"decode: want ({len(specs)},), got {x01.shape}")
    lo = np.array([s.min for s in specs], dtype=np.float64)
    hi = np.array([s.max for s in specs], dtype=np.float64)
    step = np.array([s.step for s in specs], dtype=np.float64)
    top = np.rint((hi - lo) / step)  # n_levels - 1
    value = lo + np.clip(x01, 0.0, 1.0) * (hi - lo)
    k = np.clip(np.rint((value - lo) / step), 0.0, top)
    return lo + step * k


# Ranges from the building-parameter table.
BUILDING_SPECS = (
    VariableSpec("airchange_infiltration_vol_per_h", 0.1, 0.5, 0.1),
    VariableSpec("capacitance_kJ_perdegreK_perm3", 50, 300, 10),
    VariableSpec("power_VCV_kW_heat", 0, 1000, 100),
    VariableSpec("power_VCV_kW_clim", 0, 1000, 100),
    VariableSpec("nb_occupants", 1000, 2000, 200),
    VariableSpec("nb_PCs", 1000, 2000, 200),
    VariableSpec("percent_light_night", 0, 70, 10),
    VariableSpec("percent_PCs_night", 0, 70, 10),
    VariableSpec("facade_1_thickness_2", 0.05, 0.15, 0.05),
    VariableSpec("facade_2_thickness_2", 0.05, 0.15, 0.05),
    VariableSpec("facade_3_thickness_2", 0.05, 0.15, 0.05),
    VariableSpec("facade_4_thickness_2", 0.05, 0.15, 0.05),
    VariableSpec("roof_1_thickness_3", 0.05, 0.15, 0.05),
    VariableSpec("facade_1_window_area_percent", 40, 50, 5),
    VariableSpec("facade_2_window_area_percent", 40, 50, 5),
    VariableSpec("facade_3_window_area_percent", 40, 50, 5),
    VariableSpec("facade_4_window_area_percent", 40, 50, 5),
)

# Daily management-system settings; each holds one value per day of week.
# vol_ventilation_day: the published step (0.3) does not divide the range
# width; 0.25 keeps both endpoints on the grid.
BMS_SPECS = (
    VariableSpec("start_clim_day", 7, 9, 1),
    VariableSpec("end_clim_day", 18, 20, 1),
    VariableSpec("t_clim_red_day", 24, 30, 0.5),
    VariableSpec("t_clim_conf_day", 20, 24, 0.5),
    VariableSpec("start_heat_day", 6, 8, 1),
    VariableSpec("end_heat_day", 17, 19, 1),
    VariableSpec("t_heat_red_day", 17, 22, 0.5),
    VariableSpec("t_heat_conf_day", 22, 24, 0.5),
    VariableSpec("start_ventilation_day", 7, 9, 1),
    VariableSpec("end_ventilation_day", 18, 20, 1),
    VariableSpec("t_ventilation_day", 18, 26, 0.5),
    VariableSpec("vol_ventilation_day", 0.7, 1.7, 0.25),
)

# Occupancy window; applies to weekdays only, weekends are unoccupied.
OCCUPANCY_SPECS = (
    VariableSpec("start_occupation", 7, 9, 1),
    VariableSpec("end_occupation", 17, 20, 1),
)


class Schema:
    """The one variable declaration shared by a dataset and its models.

    Every schedule type, the sampler and the simulator are written against
    these specs, so no other declaration can be used.
    """

    building = BUILDING_SPECS
    bms = BMS_SPECS
    occupancy = OCCUPANCY_SPECS
    weather_channels = WEATHER_CHANNELS
    output_channels = OUTPUT_CHANNELS

    def spec(self, name: str) -> VariableSpec:
        for s in self.building + self.bms + self.occupancy:
            if s.name == name:
                return s
        raise SchemaError(f"unknown variable {name!r}")

    @property
    def input_channel_names(self) -> tuple[str, ...]:
        return (
            tuple(s.name for s in self.building)
            + tuple(s.name for s in self.bms)
            + ("occupancy_fraction",)
            + self.weather_channels
        )

    @property
    def d_in(self) -> int:
        """Input width of one episode row, derived from the declaration."""
        return len(self.input_channel_names)

    @property
    def d_out(self) -> int:
        return len(self.output_channels)

    def to_dict(self) -> dict:
        """The declaration as stored in every dataset manifest."""
        def rows(specs):
            return [
                {"name": s.name, "min": s.min, "max": s.max, "step": s.step}
                for s in specs
            ]

        return {
            "version": 1,
            "building": rows(self.building),
            "bms": rows(self.bms),
            "occupancy": rows(self.occupancy),
            "weather_channels": list(self.weather_channels),
            "output_channels": list(self.output_channels),
        }


DEFAULT_SCHEMA = Schema()


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


_BUILDING_FIELDS = tuple(s.name for s in BUILDING_SPECS)
# the two night fractions and the four window-area fractions
_PERCENT_FIELDS = tuple(name for name in _BUILDING_FIELDS if "percent" in name)


@dataclass(frozen=True)
class BuildingParams:
    """Static geometric/thermal parameters, one per building-table row.

    Every value must be finite and >= 0, the capacitance > 0 and the
    percentages <= 100.
    """

    airchange_infiltration_vol_per_h: float
    capacitance_kJ_perdegreK_perm3: float
    power_VCV_kW_heat: float
    power_VCV_kW_clim: float
    nb_occupants: float
    nb_PCs: float
    percent_light_night: float
    percent_PCs_night: float
    facade_1_thickness_2: float
    facade_2_thickness_2: float
    facade_3_thickness_2: float
    facade_4_thickness_2: float
    roof_1_thickness_3: float
    facade_1_window_area_percent: float
    facade_2_window_area_percent: float
    facade_3_window_area_percent: float
    facade_4_window_area_percent: float

    def __post_init__(self):
        for name in _BUILDING_FIELDS:
            v = getattr(self, name)
            if not 0 <= v < math.inf:  # NaN fails too
                raise SchemaError(f"{name} must be finite and >= 0, got {v}")
            if v > 100 and name in _PERCENT_FIELDS:
                raise SchemaError(f"{name} must be <= 100, got {v}")
        if self.capacitance_kJ_perdegreK_perm3 == 0:
            raise SchemaError("capacitance_kJ_perdegreK_perm3 must be > 0, got 0")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=np.float64)

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "BuildingParams":
        names = [f.name for f in fields(cls)]
        if len(v) != len(names):
            raise SchemaError(f"expected {len(names)} building values, got {len(v)}")
        return cls(**{n: float(x) for n, x in zip(names, v)})

    @classmethod
    def from_dict(cls, d: Mapping[str, float]) -> "BuildingParams":
        return cls(**{f.name: float(d[f.name]) for f in fields(cls)})

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def facade_thicknesses(self) -> tuple[float, float, float, float]:
        return (
            self.facade_1_thickness_2,
            self.facade_2_thickness_2,
            self.facade_3_thickness_2,
            self.facade_4_thickness_2,
        )

    @property
    def window_fractions(self) -> tuple[float, float, float, float]:
        return (
            self.facade_1_window_area_percent / 100.0,
            self.facade_2_window_area_percent / 100.0,
            self.facade_3_window_area_percent / 100.0,
            self.facade_4_window_area_percent / 100.0,
        )


_BMS_FIELDS = tuple(s.name for s in BMS_SPECS)


@dataclass(frozen=True)
class BmsSchedule:
    """Management-system settings; every field holds 7 finite per-day values (Mon..Sun)."""

    start_clim_day: tuple[float, ...]
    end_clim_day: tuple[float, ...]
    t_clim_red_day: tuple[float, ...]
    t_clim_conf_day: tuple[float, ...]
    start_heat_day: tuple[float, ...]
    end_heat_day: tuple[float, ...]
    t_heat_red_day: tuple[float, ...]
    t_heat_conf_day: tuple[float, ...]
    start_ventilation_day: tuple[float, ...]
    end_ventilation_day: tuple[float, ...]
    t_ventilation_day: tuple[float, ...]
    vol_ventilation_day: tuple[float, ...]

    def __post_init__(self):
        for name in _BMS_FIELDS:
            values = tuple(float(v) for v in getattr(self, name))
            if len(values) != DAYS_PER_WEEK:
                raise SchemaError(f"{name}: expected {DAYS_PER_WEEK} daily values, got {len(values)}")
            if not all(map(math.isfinite, values)):
                raise SchemaError(f"{name}: values must be finite, got {list(values)}")
            object.__setattr__(self, name, values)
        if min(self.vol_ventilation_day) < 0:
            raise SchemaError(f"vol_ventilation_day must be >= 0, got {list(self.vol_ventilation_day)}")
        for day in range(DAYS_PER_WEEK):
            for start, end in (
                ("start_clim_day", "end_clim_day"),
                ("start_heat_day", "end_heat_day"),
                ("start_ventilation_day", "end_ventilation_day"),
            ):
                if not getattr(self, start)[day] < getattr(self, end)[day]:
                    raise SchemaError(
                        f"{start}[{DAY_NAMES[day]}]={getattr(self, start)[day]} "
                        f"must be < {end}[{DAY_NAMES[day]}]={getattr(self, end)[day]}"
                    )
            if getattr(self, "t_heat_conf_day")[day] < getattr(self, "t_heat_red_day")[day]:
                raise SchemaError(
                    f"t_heat_conf_day[{DAY_NAMES[day]}] below t_heat_red_day[{DAY_NAMES[day]}]"
                )

    @classmethod
    def from_dict(cls, d: Mapping[str, Sequence[float]]) -> "BmsSchedule":
        return cls(**{name: tuple(float(v) for v in d[name]) for name in _BMS_FIELDS})

    def to_dict(self) -> dict:
        return {name: list(getattr(self, name)) for name in _BMS_FIELDS}

    def as_matrix(self) -> np.ndarray:
        """(7, 12) day-by-variable matrix in schema order."""
        return np.array([getattr(self, name) for name in _BMS_FIELDS], dtype=np.float64).T


@dataclass(frozen=True)
class OccupancySchedule:
    """Weekday occupation window; the building is empty on weekends."""

    start_occupation: tuple[float, ...]  # Mon..Fri arrival hour
    end_occupation: tuple[float, ...]  # Mon..Fri departure hour

    def __post_init__(self):
        for name in ("start_occupation", "end_occupation"):
            values = tuple(float(v) for v in getattr(self, name))
            if len(values) != WEEKDAYS:
                raise SchemaError(f"{name}: expected {WEEKDAYS} weekday values, got {len(values)}")
            object.__setattr__(self, name, values)
        for spec in OCCUPANCY_SPECS:
            for day, v in enumerate(getattr(self, spec.name)):
                if not spec.min <= v <= spec.max:
                    raise SchemaError(
                        f"{spec.name}[{DAY_NAMES[day]}] outside [{spec.min}, {spec.max}]")

    @classmethod
    def from_dict(cls, d: Mapping) -> "OccupancySchedule":
        return cls(
            tuple(float(v) for v in d["start_occupation"]),
            tuple(float(v) for v in d["end_occupation"]),
        )

    def to_dict(self) -> dict:
        return {
            "start_occupation": list(self.start_occupation),
            "end_occupation": list(self.end_occupation),
        }


@dataclass(frozen=True)
class WeatherSeries:
    """One week of hourly weather, channels in WEATHER_CHANNELS order."""

    data: np.ndarray  # (168, 7)

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.shape != (HOURS_PER_WEEK, len(WEATHER_CHANNELS)):
            raise SchemaError(f"weather must be {(HOURS_PER_WEEK, len(WEATHER_CHANNELS))}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise SchemaError("weather contains non-finite values")
        irr = a[:, : WEATHER_CHANNELS.index("RHUM")]
        if np.any(irr < 0):
            raise SchemaError("irradiance channels must be >= 0")
        rhum = a[:, WEATHER_CHANNELS.index("RHUM")]
        if np.any((rhum < 0) | (rhum > 100)):
            raise SchemaError("RHUM must lie in [0, 100]")
        object.__setattr__(self, "data", _readonly(a))

    def channel(self, name: str) -> np.ndarray:
        return self.data[:, WEATHER_CHANNELS.index(name)]

    @property
    def tamb(self) -> np.ndarray:
        return self.channel("TAMB")


@dataclass(frozen=True)
class SimOutput:
    """One simulated week: 7 consumption channels (kW) and indoor temperature."""

    data: np.ndarray  # (168, 8)

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.shape != (HOURS_PER_WEEK, len(OUTPUT_CHANNELS)):
            raise SchemaError(f"outputs must be {(HOURS_PER_WEEK, len(OUTPUT_CHANNELS))}, got {a.shape}")
        q = np.delete(a, T_INT_INDEX, axis=1)
        if np.any(q < -1e-12):
            raise SchemaError("consumption channels must be >= 0")
        object.__setattr__(self, "data", _readonly(a))


def heat_aggregate_of(targets: np.ndarray) -> np.ndarray:
    """Aggregate heat consumption of an output matrix (..., 168, 8) -> (..., 168)."""
    return np.asarray(targets)[..., list(HEAT_AGGREGATE_INDICES)].sum(axis=-1)


def expand_daily(schedule) -> np.ndarray:
    """Expand a daily schedule to hourly channels over one week.

    BmsSchedule -> (168, 12) matrix: each day's settings repeated for its
    24 hours. OccupancySchedule -> (168,) presence fraction: 1.0 inside
    [start, end) on weekdays, 0.0 otherwise (weekends included).
    """
    day_of_hour = np.arange(HOURS_PER_WEEK) // HOURS_PER_DAY
    hour_of_day = np.arange(HOURS_PER_WEEK) % HOURS_PER_DAY

    if isinstance(schedule, BmsSchedule):
        per_day = schedule.as_matrix()  # (7, 12)
        return per_day[day_of_hour]
    if isinstance(schedule, OccupancySchedule):
        # weekends get the empty window [0, 0)
        start = np.zeros(DAYS_PER_WEEK)
        end = np.zeros(DAYS_PER_WEEK)
        start[:WEEKDAYS] = schedule.start_occupation
        end[:WEEKDAYS] = schedule.end_occupation
        inside = (start[day_of_hour] <= hour_of_day) & (hour_of_day < end[day_of_hour])
        return inside.astype(np.float64)
    raise TypeError(f"cannot expand {type(schedule).__name__}")


@dataclass(frozen=True)
class Episode:
    """One model example: assembled hourly inputs and their targets."""

    inputs: np.ndarray  # (168, D_in)
    targets: np.ndarray | None  # (168, 8) or None before labeling

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != HOURS_PER_WEEK:
            raise SchemaError(f"inputs must be (168, D_in), got {x.shape}")
        object.__setattr__(self, "inputs", _readonly(x))
        if self.targets is not None:
            y = np.asarray(self.targets, dtype=np.float64)
            if y.shape != (HOURS_PER_WEEK, len(OUTPUT_CHANNELS)):
                raise SchemaError(f"targets must be (168, 8), got {y.shape}")
            object.__setattr__(self, "targets", _readonly(y))


# make_episode and assemble_inputs stay module-level: perfbench/tracer.py patches both.
def assemble_inputs(
    params: BuildingParams,
    bms: BmsSchedule,
    occ: OccupancySchedule,
    weather: WeatherSeries,
) -> np.ndarray:
    """Stack (static | daily BMS | occupancy fraction | weather) into (168, D_in).

    Each part has its declared width by construction of its type, so the
    result is DEFAULT_SCHEMA.d_in wide.
    """
    static = np.tile(params.as_vector(), (HOURS_PER_WEEK, 1))
    bms_channels = expand_daily(bms)
    occ_frac = expand_daily(occ)[:, None]
    return np.hstack([static, bms_channels, occ_frac, weather.data])


_OCCUPANCY_COLUMN = DEFAULT_SCHEMA.input_channel_names.index("occupancy_fraction")


def occupied_hours(inputs) -> np.ndarray:
    """Occupied hours of assembled inputs: (..., 168, D_in) -> (..., 168) bool.

    The one rule for which hours count as occupied: the occupancy-fraction
    channel is positive. Comfort and the occupied-hours error metrics read it.
    """
    x = np.asarray(inputs)
    if x.shape[-2:] != (HOURS_PER_WEEK, DEFAULT_SCHEMA.d_in):
        raise SchemaError(f"inputs must be (..., 168, {DEFAULT_SCHEMA.d_in}), got {x.shape}")
    return x[..., _OCCUPANCY_COLUMN] > 0


def make_episode(
    params: BuildingParams,
    bms: BmsSchedule,
    occ: OccupancySchedule,
    weather: WeatherSeries,
    targets: np.ndarray | None = None,
) -> Episode:
    return Episode(assemble_inputs(params, bms, occ, weather), targets)


@dataclass(frozen=True)
class NormStats:
    """Invertible per-channel transforms fitted on the training split.

    Inputs are min-max mapped to [0, 1]: bounded variables use their
    schema ranges, the occupancy fraction uses [0, 1], weather channels
    use the training-set min/max. Targets are standardized with the
    training-set mean/std. Channels with zero width map to the constant
    0.5 (inputs) or 0.0 (targets) and are listed in ``flagged``.
    """

    input_lo: np.ndarray
    input_hi: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray
    flagged: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "input_lo", _readonly(self.input_lo))
        object.__setattr__(self, "input_hi", _readonly(self.input_hi))
        object.__setattr__(self, "target_mean", _readonly(self.target_mean))
        object.__setattr__(self, "target_std", _readonly(self.target_std))

    @classmethod
    def fit(
        cls,
        train_inputs: Iterable[np.ndarray],
        train_targets: Iterable[np.ndarray],
    ) -> "NormStats":
        names = DEFAULT_SCHEMA.input_channel_names
        lo = np.empty(len(names))
        hi = np.empty(len(names))
        ranged = {s.name: s for s in BUILDING_SPECS + BMS_SPECS}
        weather_start = len(names) - len(WEATHER_CHANNELS)
        for i, name in enumerate(names):
            if name in ranged:
                lo[i], hi[i] = ranged[name].min, ranged[name].max
            elif name == "occupancy_fraction":
                lo[i], hi[i] = 0.0, 1.0
            else:
                lo[i], hi[i] = np.inf, -np.inf  # filled from data below
        for x in train_inputs:
            w = np.asarray(x)[:, weather_start:]
            lo[weather_start:] = np.minimum(lo[weather_start:], w.min(axis=0))
            hi[weather_start:] = np.maximum(hi[weather_start:], w.max(axis=0))
        ys = [np.asarray(y) for y in train_targets]
        if not ys:
            raise SchemaError("cannot fit normalization without training targets")
        all_y = np.concatenate(ys, axis=0)
        mean = all_y.mean(axis=0)
        std = all_y.std(axis=0)

        flagged = []
        for i, name in enumerate(names):
            if not hi[i] > lo[i]:
                flagged.append(name)
        for j, name in enumerate(OUTPUT_CHANNELS):
            if std[j] == 0:
                std[j] = 1.0
                flagged.append(name)
        return cls(lo, hi, mean, std, tuple(flagged))

    def normalize_inputs(self, x: np.ndarray) -> np.ndarray:
        width = self.input_hi - self.input_lo
        safe = np.where(width > 0, width, 1.0)
        out = (np.asarray(x) - self.input_lo) / safe
        return np.where(width > 0, out, 0.5)

    def normalize_targets(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y) - self.target_mean) / self.target_std

    def denormalize_targets(self, yn: np.ndarray) -> np.ndarray:
        return np.asarray(yn) * self.target_std + self.target_mean

    def to_dict(self) -> dict:
        return {
            "input_lo": self.input_lo.tolist(),
            "input_hi": self.input_hi.tolist(),
            "target_mean": self.target_mean.tolist(),
            "target_std": self.target_std.tolist(),
            "flagged": list(self.flagged),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "NormStats":
        """Stats read back from disk; every array must be finite and as wide
        as the declaration's inputs or outputs, every target_std positive and
        no input_hi below its input_lo, as fit() makes them."""
        stats = cls(
            np.array(d["input_lo"], dtype=np.float64),
            np.array(d["input_hi"], dtype=np.float64),
            np.array(d["target_mean"], dtype=np.float64),
            np.array(d["target_std"], dtype=np.float64),
            tuple(d.get("flagged", ())),
        )
        for name in ("input_lo", "input_hi", "target_mean", "target_std"):
            want = DEFAULT_SCHEMA.d_in if name.startswith("input") else DEFAULT_SCHEMA.d_out
            a = getattr(stats, name)
            if a.shape != (want,) or not np.all(np.isfinite(a)):
                raise SchemaError(f"norm {name}: want {want} finite values, got shape {a.shape}")
        bad = np.flatnonzero(stats.target_std <= 0)
        if bad.size:
            j = bad[0]
            raise SchemaError(f"norm target_std[{j}]: must be > 0, got {stats.target_std[j]}")
        bad = np.flatnonzero(stats.input_hi < stats.input_lo)
        if bad.size:
            i = bad[0]
            raise SchemaError(f"norm input_hi[{i}]: below input_lo[{i}] "
                              f"({stats.input_hi[i]} < {stats.input_lo[i]})")
        return stats

