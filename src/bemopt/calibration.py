"""Derivative-free calibration of model inputs against sensor traces.

A self-contained CMA-ES (ask/tell) searches a box-bounded space of free
building/schedule variables, rescaled to [0,1] per dimension; the frozen
surrogate maps each candidate to predicted sensor series and the cost is
one minus the mean coefficient of determination over the two channels.
"""

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import model as mdl
from .schema import (
    BMS_SPECS,
    BUILDING_SPECS,
    DAY_NAMES,
    DAYS_PER_WEEK,
    DEFAULT_SCHEMA,
    HOURS_PER_WEEK,
    WEEKDAYS,
    BmsSchedule,
    BuildingParams,
    OccupancySchedule,
    SchemaError,
    assemble_inputs,
    decode_unit_box,
    occupied_hours,
    read_hourly_csv,
    sensor_series,
    write_hourly_csv,
)
from .seeding import stream
from .training import episode_errors, predict, r2_score

__all__ = [
    "CmaState",
    "cma_ask",
    "cma_tell",
    "cma_minimize",
    "SensorTrace",
    "FreeVariable",
    "CalibrationSpace",
    "cost_from_series",
    "calibrate",
    "CalibrationReport",
]

# ---------------------------------------------------------------------------
# CMA-ES

SIGMA0 = 0.3  # initial step size, in unit-box coordinates
BUDGET = 500  # calibrate's default number of generations


def population_size(n: int) -> int:
    """Default lambda of an n-dimensional CMA-ES: 4 + floor(3 ln n)."""
    return 4 + int(3 * math.log(n))


class CmaState:
    """Mean, step size, covariance, and evolution paths of one CMA-ES run.

    The search space is the unit box [0,1]^n; candidates are folded back
    into the box by coordinate-wise reflection. Strategy constants follow
    the standard (mu/mu_w, lambda) formulas.
    """

    def __init__(self, n: int, seed: int, sigma0: float = SIGMA0):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if sigma0 <= 0:
            raise ValueError(f"sigma0 must be > 0, got {sigma0}")
        self.n = n
        self.sigma = float(sigma0)
        self.m = np.full(n, 0.5)

        self.lam = population_size(n)
        self.mu = self.lam // 2
        w = np.log((self.lam + 1) / 2) - np.log(np.arange(1, self.mu + 1))
        self.weights = w / w.sum()
        self.mu_eff = 1.0 / np.sum(self.weights**2)

        self.c_sigma = (self.mu_eff + 2) / (n + self.mu_eff + 5)
        self.d_sigma = 1 + 2 * max(0.0, math.sqrt((self.mu_eff - 1) / (n + 1)) - 1) + self.c_sigma
        self.c_c = (4 + self.mu_eff / n) / (n + 4 + 2 * self.mu_eff / n)
        self.c_1 = 2 / ((n + 1.3) ** 2 + self.mu_eff)
        self.c_mu = min(1 - self.c_1, 2 * (self.mu_eff - 2 + 1 / self.mu_eff) / ((n + 2) ** 2 + self.mu_eff))
        self.chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))

        self.C = np.eye(n)
        self.p_sigma = np.zeros(n)
        self.p_c = np.zeros(n)
        self.generation = 0
        self.repairs = 0
        self.best_x = self.m.copy()
        self.best_f = math.inf
        self.rng = stream(seed, "cma")
        self._decompose()

    def _decompose(self) -> None:
        """Refresh the eigenfactors of C, repairing it if degenerate."""
        self.C = 0.5 * (self.C + self.C.T)
        if not np.all(np.isfinite(self.C)):
            self.C = np.eye(self.n)
            self.repairs += 1
        vals, vecs = np.linalg.eigh(self.C)
        floor = 1e-14
        if vals[0] < floor:
            vals = np.maximum(vals, floor)
            self.C = (vecs * vals) @ vecs.T
            self.repairs += 1
        self._B = vecs
        self._D = np.sqrt(vals)


def _reflect_into_unit_box(x: np.ndarray) -> np.ndarray:
    r = np.mod(x, 2.0)
    return np.where(r > 1.0, 2.0 - r, r)


def cma_ask(state: CmaState) -> np.ndarray:
    """Sample lambda candidates around the mean, reflected into [0,1]^n."""
    z = state.rng.standard_normal((state.lam, state.n))
    y = z * state._D @ state._B.T  # rows: B @ (D * z_k)
    return _reflect_into_unit_box(state.m + state.sigma * y)


def _ranked_indices(fitnesses: np.ndarray) -> np.ndarray:
    """Ascending fitness order; non-finite values rank last."""
    f = np.array(fitnesses, dtype=np.float64)
    f[~np.isfinite(f)] = math.inf
    return np.argsort(f, kind="stable")


def cma_tell(state: CmaState, candidates: np.ndarray, fitnesses) -> None:
    """Standard mean/path/covariance/step-size update from one generation."""
    candidates = np.asarray(candidates, dtype=np.float64)
    fitnesses = np.asarray(fitnesses, dtype=np.float64)
    if candidates.shape != (state.lam, state.n) or fitnesses.shape != (state.lam,):
        raise ValueError(
            f"cma_tell: want ({state.lam}, {state.n}) candidates and {state.lam} "
            f"fitnesses, got {candidates.shape} and {fitnesses.shape}"
        )
    order = _ranked_indices(fitnesses)
    if np.isfinite(fitnesses[order[0]]) and fitnesses[order[0]] < state.best_f:
        state.best_f = float(fitnesses[order[0]])
        state.best_x = candidates[order[0]].copy()

    sel = candidates[order[: state.mu]]
    y_sel = (sel - state.m) / state.sigma
    y_w = state.weights @ y_sel
    state.m = state.weights @ sel

    # C^{-1/2} y_w through the cached eigenfactors
    c_inv_half_yw = state._B @ ((state._B.T @ y_w) / state._D)
    cs = state.c_sigma
    state.p_sigma = (1 - cs) * state.p_sigma + math.sqrt(cs * (2 - cs) * state.mu_eff) * c_inv_half_yw

    state.generation += 1
    norm_ps = float(np.linalg.norm(state.p_sigma))
    h_sigma = norm_ps / math.sqrt(1 - (1 - cs) ** (2 * state.generation)) < (1.4 + 2 / (state.n + 1)) * state.chi_n
    cc = state.c_c
    state.p_c = (1 - cc) * state.p_c
    if h_sigma:
        state.p_c = state.p_c + math.sqrt(cc * (2 - cc) * state.mu_eff) * y_w

    delta_h = (1 - float(h_sigma)) * cc * (2 - cc)
    rank_mu = (y_sel.T * state.weights) @ y_sel
    state.C = (
        (1 - state.c_1 - state.c_mu) * state.C
        + state.c_1 * (np.outer(state.p_c, state.p_c) + delta_h * state.C)
        + state.c_mu * rank_mu
    )
    state.sigma *= math.exp((cs / state.d_sigma) * (norm_ps / state.chi_n - 1))
    state._decompose()


class CmaResult(NamedTuple):
    best_x: np.ndarray
    best_f: float  # never above initial_f: the start mean competes too
    evaluations: int
    history: list  # best-so-far cost after each generation
    initial_f: float  # cost of the start mean, evaluated before any sample


def cma_minimize(evaluate, n: int, seed: int, max_evals: int, sigma0: float = SIGMA0,
                 target: float | None = None, log=None) -> CmaResult:
    """The one ask/tell loop over [0,1]^n.

    `evaluate` is batch-only: it maps a (k, n) candidate matrix to k costs.
    It is called once on the start mean, whose cost seeds the state's best
    record (ModelError if it is not finite), then once per generation on the
    lambda sampled candidates, until `max_evals` evaluations are spent or the
    best cost falls below `target`. `log(generation, best_f)` is called
    every 50 generations.
    """
    state = CmaState(n, seed, sigma0=sigma0)
    initial_f = state.best_f = float(_costs(evaluate, state.m[None])[0])
    if not math.isfinite(initial_f):  # no sample beats a NaN, and no JSON holds either
        raise mdl.ModelError(f"cost of the start point is {initial_f}")
    history = []
    evals = 1
    while evals < max_evals:
        xs = cma_ask(state)
        fs = _costs(evaluate, xs)
        evals += len(xs)
        cma_tell(state, xs, fs)
        history.append(state.best_f)
        if log is not None and len(history) % 50 == 0:
            log(len(history), state.best_f)
        if target is not None and state.best_f < target:
            break
    return CmaResult(state.best_x, state.best_f, evals, history, initial_f)


def _costs(evaluate, xs: np.ndarray) -> np.ndarray:
    fs = np.asarray(evaluate(xs), dtype=np.float64)
    if fs.shape != (len(xs),):
        raise ValueError(f"evaluator returned shape {fs.shape}, want ({len(xs)},)")
    return fs


# ---------------------------------------------------------------------------
# sensor traces


TRACE_COLUMNS = ("t_int", "q_heat")


@dataclass(frozen=True)
class SensorTrace:
    """One week of building-level observations: mean indoor temperature
    and the aggregate heat consumption, both hourly."""

    t_int: np.ndarray  # (168,) deg C
    q_heat: np.ndarray  # (168,) kW

    def __post_init__(self):
        for name in TRACE_COLUMNS:
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != (HOURS_PER_WEEK,):
                raise SchemaError(f"{name}: want ({HOURS_PER_WEEK},), got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise SchemaError(f"{name}: non-finite values")
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_output(cls, targets: np.ndarray) -> "SensorTrace":
        """Aggregate a full (168, 8) output matrix down to the two sensors."""
        return cls(*sensor_series(targets))

    def save_csv(self, path) -> None:
        write_hourly_csv(path, TRACE_COLUMNS, np.column_stack([self.t_int, self.q_heat]))

    @classmethod
    def load_csv(cls, path) -> "SensorTrace":
        """Read `save_csv` output (see `schema.read_hourly_csv`)."""
        t, q = read_hourly_csv(path, TRACE_COLUMNS).T
        try:
            return cls(t, q)
        except SchemaError as e:
            raise SchemaError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# the search space


@dataclass(frozen=True)
class FreeVariable:
    """One schema variable freed for calibration.

    Daily variables expand to one dimension per day when per_day is set,
    otherwise a single dimension drives every day in lockstep.
    """

    name: str
    per_day: bool = False


class CalibrationSpace:
    """Ordered free variables plus the pinned values of everything else."""

    def __init__(self, free, base_params: BuildingParams, base_bms: BmsSchedule,
                 base_occ: OccupancySchedule):
        self.free = tuple(free)
        if not all(isinstance(f, FreeVariable) for f in self.free):
            raise TypeError(f"free variables must be FreeVariables, got {self.free!r}")
        if not self.free:
            raise SchemaError("calibration space needs at least one free variable")
        self.base_params = base_params
        self.base_bms = base_bms
        self.base_occ = base_occ

        self._building = {s.name for s in BUILDING_SPECS}
        self._bms = {s.name for s in BMS_SPECS}
        self._dims = []  # (label, spec, kind, day)
        seen = set()
        for fv in self.free:
            spec = DEFAULT_SCHEMA.spec(fv.name)  # raises on unknown names
            if fv.name in seen:  # also a lockstep and a per-day copy of one variable
                raise SchemaError(f"duplicate free variable {fv.name}")
            seen.add(fv.name)
            if fv.name in self._building:
                if fv.per_day:
                    raise SchemaError(f"{fv.name} is static, per_day does not apply")
                self._dims.append((fv.name, spec, "static", None))
            else:
                n_days = DAYS_PER_WEEK if fv.name in self._bms else WEEKDAYS
                if fv.per_day:
                    for d in range(n_days):
                        self._dims.append((f"{fv.name}[{DAY_NAMES[d]}]", spec, "daily", d))
                else:
                    self._dims.append((fv.name, spec, "daily", None))
        self._specs = [spec for _, spec, _, _ in self._dims]

    @property
    def dim(self) -> int:
        return len(self._dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(label for label, *_ in self._dims)

    def values(self, x01) -> np.ndarray:
        """Grid values of the free dimensions of a [0,1]^n vector, in space order."""
        return decode_unit_box(self._specs, x01)

    def decode(self, x01):
        """[0,1]^n vector -> (params, bms, occ) with the free values on their grids."""
        params_d = self.base_params.to_dict()
        bms_d = self.base_bms.to_dict()
        occ_d = self.base_occ.to_dict()
        for (label, spec, kind, day), v in zip(self._dims, self.values(x01).tolist()):
            if kind == "static":
                params_d[spec.name] = v
            elif spec.name in self._bms:
                if day is None:
                    bms_d[spec.name] = [v] * DAYS_PER_WEEK
                else:
                    bms_d[spec.name][day] = v
            else:
                if day is None:
                    occ_d[spec.name] = [v] * WEEKDAYS
                else:
                    occ_d[spec.name][day] = v
        return (
            BuildingParams.from_dict(params_d),
            BmsSchedule.from_dict(bms_d),
            OccupancySchedule.from_dict(occ_d),
        )

    def assemble(self, x01, weathers) -> np.ndarray:
        """One candidate's model inputs for each weather week: (weeks, 168, d_in).

        The candidate is decoded once; only the weather columns differ
        between weeks.
        """
        params, bms, occ = self.decode(x01)
        return np.stack([assemble_inputs(params, bms, occ, w) for w in weathers])

    # A hand-picked informative subset: envelope and internal-gain levers
    # that shape both channels without the full 100+ dim schedule space.
    DEFAULT_FREE = tuple(FreeVariable(name) for name in (
        "capacitance_kJ_perdegreK_perm3",
        "airchange_infiltration_vol_per_h",
        "nb_occupants",
        "nb_PCs",
        "percent_light_night",
        "percent_PCs_night",
        "facade_1_window_area_percent",
        "facade_3_window_area_percent",
    ))

    @classmethod
    def default(cls, base_params, base_bms, base_occ):
        return cls(cls.DEFAULT_FREE, base_params, base_bms, base_occ)

    def to_dict(self) -> dict:
        return {
            "free": [{"name": f.name, "per_day": f.per_day} for f in self.free],
            "base": {
                "params": self.base_params.to_dict(),
                "bms": self.base_bms.to_dict(),
                "occ": self.base_occ.to_dict(),
            },
        }


# ---------------------------------------------------------------------------
# cost


def cost_from_series(pred_t, pred_q, trace: SensorTrace) -> float:
    """1 - (R2_T + R2_Q)/2 between predicted series and the trace."""
    return 1.0 - 0.5 * (r2_score(trace.t_int, pred_t) + r2_score(trace.q_heat, pred_q))


# ---------------------------------------------------------------------------
# the calibration loop


@dataclass
class CalibrationReport:
    names: tuple
    values: tuple  # quantized physical values of the best candidate
    best_cost: float
    initial_cost: float
    history: list  # best-so-far cost per generation
    week_metrics: list  # per calibration week
    holdout_metrics: list  # per held-out week
    generations: int
    evaluations: int

    def to_dict(self) -> dict:
        return asdict(self)


def calibrate(
    space: CalibrationSpace,
    model: mdl.FrozenModel,
    traces,
    weathers,
    budget: int = BUDGET,
    seed: int = 0,
    holdout_traces=(),
    holdout_weathers=(),
    sigma0: float = SIGMA0,
    log=None,
):
    """CMA-ES over the space for `budget` generations; the model stays frozen.

    Returns (best_x01, report). Candidate fitness is the mean cost over the
    calibration weeks, summed in week order, and ranks last if it overflows.
    Each generation runs one batched `predict` over every (candidate, week) pair.
    """
    traces = list(traces)
    weathers = list(weathers)
    if len(traces) != len(weathers) or not traces:
        raise ValueError(f"need matching traces/weathers, got {len(traces)}/{len(weathers)}")
    if len(holdout_traces) != len(holdout_weathers):
        raise ValueError("held-out traces and weathers differ in length")

    def population_costs(xs) -> np.ndarray:
        batch = np.concatenate([space.assemble(x, weathers) for x in xs])
        preds = predict(model, inputs=batch)
        preds = preds.reshape(len(xs), len(weathers), *preds.shape[1:])
        costs = np.zeros(len(xs))
        with np.errstate(all="ignore"):
            for w, trace in enumerate(traces):
                for i, p in enumerate(preds[:, w]):
                    costs[i] += cost_from_series(*sensor_series(p), trace)
        return costs / len(traces)

    result = cma_minimize(population_costs, space.dim, seed,
                          max_evals=1 + budget * population_size(space.dim),
                          sigma0=sigma0, log=log)
    best_x = result.best_x

    def week_rows(ts, ws):
        if not ws:
            return []
        inputs = space.assemble(best_x, ws)
        preds = predict(model, inputs=inputs)
        rows = []
        for k, (trace, pred, mask) in enumerate(zip(ts, preds, occupied_hours(inputs))):
            p_t, p_q = sensor_series(pred)
            row = episode_errors(p_t, trace.t_int, p_q, trace.q_heat, mask)
            row["week"] = k
            rows.append(row)
        return rows

    report = CalibrationReport(
        names=space.names,
        values=tuple(space.values(best_x).tolist()),
        best_cost=result.best_f,
        initial_cost=result.initial_f,
        history=result.history,
        week_metrics=week_rows(traces, weathers),
        holdout_metrics=week_rows(list(holdout_traces), list(holdout_weathers)),
        generations=budget,
        evaluations=result.evaluations,
    )
    return best_x, report

