"""Two-objective search over weekly control schedules on a frozen surrogate.

An in-package NSGA-II (fast non-dominated sort, crowding, binary tournament,
SBX crossover, polynomial mutation, elitist truncation) trades off occupied
comfort against mean consumption. Building fabric and occupancy stay pinned;
only the control schedule varies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import FrozenModel
from .schema import (
    BMS_SPECS,
    DAY_NAMES,
    DAYS_PER_WEEK,
    BmsSchedule,
    BuildingParams,
    OccupancySchedule,
    SchemaError,
    WeatherSeries,
    assemble_inputs,
    decode_unit_box,
    heat_aggregate_of,
    occupied_hours,
)
from .seeding import stream
from .training import T_INT_INDEX, predict

__all__ = [
    "T_STAR",
    "PENALTY",
    "Objectives",
    "NsgaConfig",
    "ParetoFront",
    "SelectedPoint",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume_2d",
    "nsga2_run",
    "BmsSpace",
    "objectives_from_series",
    "evaluate_settings",
    "optimize_bms",
    "select_equivalent_comfort",
]

T_STAR = 22.5  # deg C comfort reference
PENALTY = 1e30  # nsga2_run's score for an evaluator's non-finite objective
COMFORT_TOLERANCE = 0.05  # deg C

# NSGA-II variation operators; the per-coordinate mutation probability is
# 1/n for an n-dimensional search box.
ETA_CROSSOVER = 15.0  # SBX distribution index
P_CROSSOVER = 0.9  # chance that a parent pair is recombined
ETA_MUTATION = 20.0  # polynomial-mutation distribution index
TOURNAMENT = 2  # contenders per parent selection


@dataclass(frozen=True)
class Objectives:
    """One candidate's scores; lower is better on both."""

    comfort: float  # deg C gap from the reference over occupied hours
    consumption: float  # mean aggregate heat power, kW

    def __post_init__(self):
        for name in ("comfort", "consumption"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    def dominates(self, other: "Objectives") -> bool:
        le = self.comfort <= other.comfort and self.consumption <= other.consumption
        lt = self.comfort < other.comfort or self.consumption < other.consumption
        return le and lt


@dataclass(frozen=True)
class NsgaConfig:
    population: int = 100
    generations: int = 300  # desk-scale default; large reference budget is 3000

    def __post_init__(self):
        if self.population < 4 or self.population % 2:
            raise SchemaError(f"population must be even and >= 4, got {self.population}")
        if self.generations < 0:
            raise SchemaError(f"generations must be >= 0, got {self.generations}")


class ParetoFront:
    """Mutually non-dominated solutions plus per-generation search history.

    `hypervolume` and `objective_minima` both start at the initial population,
    so their length is generations + 1.
    """

    def __init__(self, members, hypervolume, objective_minima=()):
        self.members = tuple((np.array(x, dtype=np.float64), obj) for x, obj in members)
        for x, _ in self.members:
            x.flags.writeable = False
        self.hypervolume = tuple(float(h) for h in hypervolume)
        self.objective_minima = tuple((float(a), float(b)) for a, b in objective_minima)
        for _, a in self.members:
            for _, b in self.members:
                if a.dominates(b) or b.dominates(a):
                    raise ValueError("front members must be mutually non-dominated")

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# NSGA-II machinery


def non_dominated_sort(objectives) -> list:
    """Partition row-wise objective pairs into fronts (lists of indices)."""
    F = np.asarray(objectives, dtype=np.float64)
    if F.ndim != 2 or len(F) < 1:
        raise ValueError(f"want a non-empty (m, k) objective matrix, got {F.shape}")
    le = np.all(F[:, None, :] <= F[None, :, :], axis=-1)
    lt = np.any(F[:, None, :] < F[None, :, :], axis=-1)
    dominates = le & lt  # [i, j]: i dominates j
    counts = dominates.sum(axis=0)
    assigned = np.zeros(len(F), dtype=bool)
    fronts = []
    while not assigned.all():
        front = np.where(~assigned & (counts == 0))[0]
        fronts.append(front)
        assigned[front] = True
        counts = counts - dominates[front].sum(axis=0)
    return fronts


def crowding_distance(objectives) -> np.ndarray:
    """Per-member diversity score; boundary members are infinite."""
    F = np.asarray(objectives, dtype=np.float64)
    m = len(F)
    d = np.zeros(m)
    for j in range(F.shape[1]):
        order = np.argsort(F[:, j], kind="stable")
        d[order[0]] = d[order[-1]] = math.inf
        span = F[order[-1], j] - F[order[0], j]
        if span <= 0:  # degenerate range contributes nothing
            continue
        d[order[1:-1]] += (F[order[2:], j] - F[order[:-2], j]) / span
    return d


def hypervolume_2d(objectives, ref) -> float:
    """Area dominated by the points and bounded by the reference corner."""
    F = np.asarray(objectives, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    inside = np.all(F < ref, axis=1)
    if not inside.any():
        return 0.0
    P = np.unique(F[inside], axis=0)
    P = P[non_dominated_sort(P)[0]]
    P = P[np.argsort(P[:, 0])]
    f1 = np.append(P[1:, 0], ref[0])
    return float(np.sum((f1 - P[:, 0]) * (ref[1] - P[:, 1])))


def _tournament(rng, ranks, crowd, rounds: int, size: int) -> np.ndarray:
    contenders = rng.integers(0, len(ranks), size=(rounds, size))
    winners = np.empty(rounds, dtype=np.int64)
    for i, row in enumerate(contenders):
        order = np.lexsort((-crowd[row], ranks[row]))
        winners[i] = row[order[0]]
    return winners


def _sbx(rng, x1, x2, lo, hi, eta: float, p_cross: float):
    """Bounded simulated binary crossover over paired parent rows."""
    c1, c2 = x1.copy(), x2.copy()
    do_pair = rng.random(len(x1)) < p_cross
    do_var = rng.random(x1.shape) < 0.5
    u = rng.random(x1.shape)
    swap = rng.random(x1.shape) < 0.5
    y1 = np.minimum(x1, x2)
    y2 = np.maximum(x1, x2)
    width = hi - lo
    active = do_pair[:, None] & do_var & (y2 - y1 > 1e-14) & (width > 0)

    with np.errstate(divide="ignore", invalid="ignore"):
        diff = y2 - y1
        beta_lo = 1.0 + 2.0 * (y1 - lo) / diff
        beta_hi = 1.0 + 2.0 * (hi - y2) / diff

        def child(beta):
            alpha = 2.0 - beta ** -(eta + 1.0)
            return np.where(
                u <= 1.0 / alpha,
                (u * alpha) ** (1.0 / (eta + 1.0)),
                (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0)),
            )

        lo_child = 0.5 * ((y1 + y2) - child(beta_lo) * diff)
        hi_child = 0.5 * ((y1 + y2) + child(beta_hi) * diff)
    lo_child = np.clip(lo_child, lo, hi)
    hi_child = np.clip(hi_child, lo, hi)
    a = np.where(swap, hi_child, lo_child)
    b = np.where(swap, lo_child, hi_child)
    c1[active] = a[active]
    c2[active] = b[active]
    return c1, c2


def _polynomial_mutation(rng, x, lo, hi, eta: float, p_mut: float) -> np.ndarray:
    y = x.copy()
    u = rng.random(x.shape)
    do = (rng.random(x.shape) < p_mut) & (hi - lo > 0)
    width = np.broadcast_to(hi - lo, x.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (x - lo) / width
        d2 = (hi - x) / width
        mpow = 1.0 / (eta + 1.0)
        low_branch = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)) ** mpow - 1.0
        high_branch = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)) ** mpow
        delta = np.where(u < 0.5, low_branch, high_branch)
    moved = np.clip(x + delta * width, np.broadcast_to(lo, x.shape), np.broadcast_to(hi, x.shape))
    y[do] = moved[do]
    return y


def _rank_and_crowd(F):
    fronts = non_dominated_sort(F)
    ranks = np.empty(len(F), dtype=np.int64)
    crowd = np.zeros(len(F))
    for r, front in enumerate(fronts):
        ranks[front] = r
        crowd[front] = crowding_distance(F[front])
    return fronts, ranks, crowd


def _truncate(F, pop: int) -> np.ndarray:
    """Elitist selection of `pop` survivors: rank first, crowding inside the cut."""
    survivors = []
    for front in non_dominated_sort(F):
        if len(survivors) + len(front) <= pop:
            survivors.extend(front.tolist())
        elif len(survivors) < pop:
            d = crowding_distance(F[front])
            order = np.argsort(-d, kind="stable")
            survivors.extend(front[order[: pop - len(survivors)]].tolist())
    return np.array(survivors[:pop])


def nsga2_run(config: NsgaConfig, evaluator, bounds, seed: int, log=None) -> ParetoFront:
    """Generational loop over a box-bounded continuous space.

    `evaluator` is batch-only: it receives the whole (pop, n) candidate
    matrix and must return a (pop, 2) array. Non-finite scores are
    penalized and the run continues. The hypervolume reference corner is
    fixed at the component-wise worst of the initial population.
    """
    lo, hi = (np.asarray(b, dtype=np.float64) for b in bounds)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(f"bounds must be two equal-length vectors, got {lo.shape}/{hi.shape}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(hi >= lo)):
        raise ValueError("bounds must be finite with hi >= lo")
    n = len(lo)
    pop = config.population
    p_mut = 1.0 / n
    rng = stream(seed, "nsga2")

    def eval_pop(X) -> np.ndarray:
        F = np.array(evaluator(X), dtype=np.float64)
        if F.shape != (len(X), 2):
            raise ValueError(f"evaluator returned {F.shape}, want ({len(X)}, 2)")
        return np.where(np.isfinite(F), F, PENALTY)

    X = lo + rng.random((pop, n)) * (hi - lo)
    F = eval_pop(X)
    ref = F.max(axis=0)
    fronts, ranks, crowd = _rank_and_crowd(F)
    hv = [hypervolume_2d(F[fronts[0]], ref)]
    minima = [F.min(axis=0)]

    for gen in range(config.generations):
        parents = _tournament(rng, ranks, crowd, pop, TOURNAMENT)
        p1, p2 = X[parents[0::2]], X[parents[1::2]]
        c1, c2 = _sbx(rng, p1, p2, lo, hi, ETA_CROSSOVER, P_CROSSOVER)
        children = np.concatenate([c1, c2])
        children = _polynomial_mutation(rng, children, lo, hi, ETA_MUTATION, p_mut)
        Fc = eval_pop(children)

        X_all = np.concatenate([X, children])
        F_all = np.concatenate([F, Fc])
        survivors = _truncate(F_all, pop)
        X, F = X_all[survivors], F_all[survivors]

        fronts, ranks, crowd = _rank_and_crowd(F)
        hv.append(hypervolume_2d(F[fronts[0]], ref))
        minima.append(F.min(axis=0))
        if log is not None and (gen + 1) % 50 == 0:
            log(gen + 1, hv[-1])

    first = fronts[0]
    _, unique_idx = np.unique(X[first], axis=0, return_index=True)
    members = [(X[i], Objectives(float(F[i, 0]), float(F[i, 1])))
               for i in first[np.sort(unique_idx)]]
    return ParetoFront(members, hv, minima)


# ---------------------------------------------------------------------------
# the control-schedule objectives


def objectives_from_series(t_pred, q_pred, occupied) -> Objectives:
    """Comfort gap over occupied hours and mean consumption over all hours.

    The comfort normalization divides by the occupied count outside the
    square root, as specified.
    """
    t_pred = np.asarray(t_pred, dtype=np.float64)
    q_pred = np.asarray(q_pred, dtype=np.float64)
    occupied = np.asarray(occupied, dtype=bool)
    if t_pred.shape != q_pred.shape or t_pred.shape != occupied.shape:
        raise ValueError("t, q, and the occupancy mask must share a shape")
    n_occ = int(occupied.sum())
    if n_occ == 0:
        comfort = 0.0
    else:
        sq = float(np.sum((t_pred[occupied] - T_STAR) ** 2))
        comfort = math.sqrt(sq) / n_occ
    mean_q = float(np.mean(q_pred))
    consumption = 0.0 if mean_q <= 0.0 else mean_q  # NaN stays NaN, which Objectives refuses
    return Objectives(comfort, consumption)


class BmsSpace:
    """The control-schedule search box: every daily variable, every day.

    Candidates live in [0,1]^(12*7); decoding rescales each dimension to its
    declared range and snaps to the declared step, so the search is a
    continuous relaxation of the discrete schedule grid.
    """

    def __init__(self, base_params: BuildingParams, base_occ: OccupancySchedule):
        self.base_params = base_params
        self.base_occ = base_occ
        self._dims = [(f"{spec.name}[{DAY_NAMES[d]}]", spec, d)
                      for spec in BMS_SPECS for d in range(DAYS_PER_WEEK)]
        self._specs = [spec for _, spec, _ in self._dims]

    @property
    def dim(self) -> int:
        return len(self._dims)

    @property
    def names(self) -> tuple:
        return tuple(label for label, _, _ in self._dims)

    def values(self, x01) -> np.ndarray:
        """Grid values of a [0,1]^84 vector, in dimension order."""
        return decode_unit_box(self._specs, x01)

    def decode(self, x01) -> BmsSchedule:
        return self.schedule_from_settings(self.values(x01))

    def settings_vector(self, bms: BmsSchedule) -> np.ndarray:
        """Physical values of a schedule flattened in dimension order."""
        return np.array([getattr(bms, spec.name)[day] for _, spec, day in self._dims])

    def schedule_from_settings(self, settings) -> BmsSchedule:
        """Inverse of settings_vector: physical values back to a schedule."""
        settings = np.asarray(settings, dtype=np.float64)
        if settings.shape != (self.dim,):
            raise ValueError(f"settings: want ({self.dim},), got {settings.shape}")
        bms_d = {spec.name: [None] * DAYS_PER_WEEK for spec in BMS_SPECS}
        for (label, spec, day), v in zip(self._dims, settings.tolist()):
            bms_d[spec.name][day] = v
        return BmsSchedule.from_dict(bms_d)

    def assemble(self, x01, weather: WeatherSeries) -> np.ndarray:
        return assemble_inputs(self.base_params, self.decode(x01), self.base_occ, weather)


def evaluate_settings(model: FrozenModel, params: BuildingParams, bms: BmsSchedule,
                      occ: OccupancySchedule, weather: WeatherSeries) -> Objectives:
    """Objectives of one explicit configuration under the frozen surrogate."""
    inputs = assemble_inputs(params, bms, occ, weather)
    pred = predict(model.params, model.config, model.kind, inputs, model.norm)
    return objectives_from_series(pred[:, T_INT_INDEX], heat_aggregate_of(pred),
                                  occupied_hours(inputs))


def optimize_bms(space: BmsSpace, model: FrozenModel, weather: WeatherSeries,
                 config: NsgaConfig | None = None, seed: int = 0,
                 log=None) -> ParetoFront:
    """NSGA-II over the control schedule; returns a front of physical settings.

    A generation's candidates whose snapped schedule was not scored
    before in this run go through one batched forward pass; the others
    reuse their stored objectives, the same bits since a row's prediction
    does not depend on its batch.
    """
    config = config or NsgaConfig()
    scored = {}  # snapped schedule bytes -> (comfort, consumption)

    def batch_evaluator(X):
        keys = [space.values(x).tobytes() for x in X]
        new = {}  # unscored schedule -> its first candidate, in candidate order
        for key, x in zip(keys, X):
            if key not in scored:
                new.setdefault(key, x)
        if new:
            inputs = np.stack([space.assemble(x, weather) for x in new.values()])
            preds = predict(model.params, model.config, model.kind, inputs, model.norm)
            for key, p, occupied in zip(new, preds, occupied_hours(inputs)):
                o = objectives_from_series(p[:, T_INT_INDEX], heat_aggregate_of(p), occupied)
                scored[key] = (o.comfort, o.consumption)
        return np.array([scored[key] for key in keys])

    raw = nsga2_run(config, batch_evaluator, (np.zeros(space.dim), np.ones(space.dim)),
                    seed, log=log)
    members, seen = [], set()
    for x01, obj in raw.members:
        settings = space.values(x01)
        key = settings.tobytes()
        if key in seen:  # distinct unit-box points can share a snapped schedule
            continue
        seen.add(key)
        members.append((settings, obj))
    return ParetoFront(members, raw.hypervolume, raw.objective_minima)


@dataclass(frozen=True)
class SelectedPoint:
    settings: np.ndarray
    objectives: Objectives
    savings: float  # fraction of baseline consumption removed
    within_tolerance: bool


def select_equivalent_comfort(front: ParetoFront, baseline: Objectives,
                              tolerance: float = COMFORT_TOLERANCE) -> SelectedPoint:
    """Cheapest member whose comfort stays within `tolerance` of the baseline.

    When no member qualifies, falls back to the member closest to the
    baseline comfort and flags it via within_tolerance=False.
    """
    if len(front) == 0:
        raise ValueError("empty front")
    admissible = [(x, o) for x, o in front.members if o.comfort <= baseline.comfort + tolerance]
    if admissible:
        x, o = min(admissible, key=lambda m: (m[1].consumption, m[1].comfort))
        within = True
    else:
        x, o = min(front.members, key=lambda m: abs(m[1].comfort - baseline.comfort))
        within = False
    savings = 0.0 if baseline.consumption == 0 else 1.0 - o.consumption / baseline.consumption
    return SelectedPoint(x, o, savings, within)
