"""Two-node lumped-RC thermal simulation of one building week.

Stand-in for a detailed building energy model: maps static building
parameters, management-system schedules, occupancy and weather to the
eight hourly output channels. The zone is reduced to an air node and an
envelope mass node. All drivers are constant within an hour and the
proportional HVAC branch is linear in the state, so the trajectory is
integrated exactly (eigendecomposition of the 2x2 system) with explicit
event handling where the controller changes regime (off / proportional /
saturated). The per-hour energy ledger therefore balances to machine
precision.

Boundary rule: a segment that starts exactly on a level where the latched
branch changes regime (its off level or its saturation level), whether a
crossing landed it there or the hour began there, continues on the side
the drift points to. The applied flux is continuous across the level, so
that drift does not depend on the regime. Each hour is one segment,
split only at control events.

Control timing: the HVAC mode (heat / cool / off) is latched once per
hour from the air temperature at the hour start, which makes heating and
cooling mutually exclusive within any hour by construction. The latched
branch then acts as an exact continuous proportional controller.

Cost, per week: everything the schedule and the weather alone set
(setpoints, cooling threshold, ventilation, supply temperature, AHU
loads; `week_schedule`) is computed for all 168 hours in one pass, and
one open/closed linear-system pair is built per distinct ventilation
conductance, each with its propagator over one hour (the modal
exponentials and their integrals at s = 1). Per hour: the latch (the
proportional law at the hour-start air temperature) and the fixed point,
levels and HVAC flux of each regime. Per segment: an hour without a
control event evaluates no exponential, and the crossing search gets the
segment's end temperatures from the propagation it already did. It
takes the log of the interior extremum only where the two modal slopes
have opposite signs, and builds its knots and bisects only where a level
lies between two of them. The float operations and their order are those
of the plain per-segment solution, so the cached and the recomputed
forms give the same bits (`tests/test_rcsim.py` pins a digest of every
output). Only the detailed path (`simulate_week_detailed`) computes the
energy ledger (the mass-node integral and both flux sums per segment)
and the node traces; `simulate_week` runs the same segment loop without
them, so both paths give the same output bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .schema import (
    BMS_SPECS,
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    BmsSchedule,
    BuildingParams,
    OccupancySchedule,
    SimOutput,
    WeatherSeries,
    expand_daily,
)

# Fixed vertical wall areas; walls 1..4 carry the parameterized windows.
FACADE_AREAS_M2 = (3521.0, 2692.0, 3257.0, 599.0)
WALL5_AREA_M2 = 16329.0

T_SANITY_LO = -30.0
T_SANITY_HI = 60.0

_OFF, _ACTIVE, _SAT = 0, 1, 2
_MAX_EVENTS_PER_HOUR = 64


class NumericalError(RuntimeError):
    """Simulation state went non-finite or left the sanity band."""

    def __init__(self, hour: int, message: str):
        super().__init__(f"hour {hour}: {message}")
        self.hour = hour
        self.message = message

    def __reduce__(self):
        # a labeling worker's error is pickled back to the parent process
        return type(self), (self.hour, self.message)


@dataclass(frozen=True)
class RcModelConfig:
    """Fixed physical constants of the simulated building.

    Everything the sampled BuildingParams do not cover: geometry, envelope
    construction, internal gain intensities and the control constants.
    """

    base_resistance_m2k_w: float = 0.5  # opaque assembly without insulation
    insulation_lambda_w_mk: float = 0.04
    window_u_w_m2k: float = 2.6
    wall5_u_w_m2k: float = 0.35  # fifth wall: fixed construction, no windows
    ground_u_w_m2k: float = 0.3
    facade_areas_m2: tuple[float, float, float, float] = FACADE_AREAS_M2
    wall5_area_m2: float = WALL5_AREA_M2
    roof_area_m2: float = 5747.0
    ground_area_m2: float = 5747.0
    floor_area_m2: float = 28733.0
    volume_m3: float = 86199.0
    shgc: float = 0.6
    solar_projection: float = 0.35  # horizontal-global to in-window projection
    solar_air_fraction: float = 0.4  # remainder of solar gain lands on the mass
    film_w_m2k: float = 8.0  # air-to-surface coupling
    occupant_gain_w: float = 100.0
    pc_gain_w: float = 120.0
    light_w_m2: float = 8.0
    air_heat_capacity_kj_m3k: float = 1.206
    ground_temp_c: float = 12.0
    hvac_gain_kw_k: float = 50.0
    deadband_k: float = 0.5


DEFAULT_RC_CONFIG = RcModelConfig()


def _check_state(hour: int, t_air: float, t_mass: float) -> None:
    """Raise NumericalError unless both node temperatures (°C) are sane."""
    if not (math.isfinite(t_air) and math.isfinite(t_mass)):
        raise NumericalError(hour, f"non-finite state T_air={t_air}, T_mass={t_mass}")
    if not (T_SANITY_LO <= t_air <= T_SANITY_HI):
        raise NumericalError(hour, f"T_air={t_air:.2f} outside sanity band [{T_SANITY_LO}, {T_SANITY_HI}]")


_HOUR_OF_DAY = np.arange(HOURS_PER_WEEK) % HOURS_PER_DAY


class WeekSchedule(NamedTuple):
    """What the schedule and the weather alone set, one value per hour."""

    heat_sp: list[float]  # heating setpoint (°C)
    cool_threshold: list[float]  # cooling engages above it (°C)
    g_vent: list[float]  # supply-air conductance (kW/K), 0.0 while the AHU is off
    t_vent: list[float]  # supply-air temperature (°C)
    q_ahu_h: list[float]  # AHU heating load (kW)
    q_ahu_c: list[float]  # AHU cooling load (kW)


def week_schedule(
    bms: BmsSchedule, weather: WeatherSeries, cfg: RcModelConfig = DEFAULT_RC_CONFIG
) -> WeekSchedule:
    """The 168 hours' setpoints, ventilation and AHU loads.

    Setpoints follow the schedule (comfort value inside the window, reduced
    value outside). Cooling engages only above
    max(cooling setpoint, heating setpoint + deadband), so the two bands
    can never overlap even when the schedules would cross. While
    ventilation is scheduled, the AHU tempers outside air to the supply
    setpoint.
    """
    hourly = dict(zip((spec.name for spec in BMS_SPECS), expand_daily(bms).T))

    def in_window(name: str) -> np.ndarray:
        """Whether each hour lies in its day's window: start inclusive, end exclusive."""
        return (hourly[f"start_{name}_day"] <= _HOUR_OF_DAY) & (_HOUR_OF_DAY < hourly[f"end_{name}_day"])

    heat_sp = np.where(in_window("heat"), hourly["t_heat_conf_day"], hourly["t_heat_red_day"])
    cool_sp = np.where(in_window("clim"), hourly["t_clim_conf_day"], hourly["t_clim_red_day"])
    floor = heat_sp + cfg.deadband_k
    cool_threshold = np.where(floor > cool_sp, floor, cool_sp)  # max(cool_sp, floor)
    ventilated = in_window("ventilation")
    g_on = cfg.air_heat_capacity_kj_m3k * hourly["vol_ventilation_day"] * cfg.volume_m3 / 3600.0
    g_vent = np.where(ventilated, g_on, 0.0)
    t_vent = hourly["t_ventilation_day"]
    lift = t_vent - weather.tamb
    heating = lift > 0
    q_ahu_h = np.where(ventilated & heating, g_vent * lift, 0.0)
    q_ahu_c = np.where(ventilated & ~heating, -g_vent * lift, 0.0)
    return WeekSchedule(*(a.tolist() for a in (heat_sp, cool_threshold, g_vent, t_vent, q_ahu_h, q_ahu_c)))


def proportional(gain: float, error: float, cap: float) -> float:
    """Demand (kW) of the proportional law: gain × error, clipped to [0, cap]."""
    return min(max(gain * error, 0.0), cap)


@dataclass
class EnergyLedger:
    """Per-hour stored-energy changes vs integrated fluxes (kWh)."""

    air_delta: np.ndarray
    air_flux: np.ndarray
    mass_delta: np.ndarray
    mass_flux: np.ndarray


@dataclass
class SimResult:
    output: SimOutput
    ledger: EnergyLedger
    t_air: np.ndarray  # 169 node values at hour boundaries
    t_mass: np.ndarray


def _u_opaque(thickness_m: float, cfg: RcModelConfig) -> float:
    return 1.0 / (cfg.base_resistance_m2k_w + thickness_m / cfg.insulation_lambda_w_mk)


def _propagator(l1: float, l2: float, s: float) -> tuple[float, float, float, float]:
    """Modal growth e_i = exp(λ_i s) and its integral g_i = (e_i − 1)/λ_i over [0, s]."""
    e1, e2 = math.exp(l1 * s), math.exp(l2 * s)
    return e1, e2, (e1 - 1.0) / l1, (e2 - 1.0) / l2


class _LinearSystem:
    """Exact solution machinery for dx/dt = A x + b with 2x2 Hurwitz A.

    Holds the eigendecomposition of A and the propagator over one hour;
    b varies hour to hour, so the fixed point is supplied per hour. The
    state at time s (hours) of a segment is x* + V diag(e(s)) w with modal
    coordinates w = W (x(0) − x*), W = V⁻¹; ``modal`` holds W and V row by
    row, λ1, λ2 and the `_propagator` at s = 1.
    """

    __slots__ = ("a11", "a12", "ai11", "ai12", "ai21", "ai22", "modal")

    def __init__(self, a11: float, a12: float, a21: float, a22: float):
        self.a11, self.a12 = a11, a12
        det = a11 * a22 - a12 * a21
        self.ai11, self.ai12 = a22 / det, -a12 / det
        self.ai21, self.ai22 = -a21 / det, a11 / det
        half = 0.5 * (a11 + a22)
        disc = math.sqrt(max(0.25 * (a11 - a22) ** 2 + a12 * a21, 0.0))
        l1, l2 = half + disc, half - disc
        if abs(l1 - l2) < 1e-9 * max(abs(l1), abs(l2)):
            # RC networks have distinct real eigenvalues away from degenerate
            # corners; nudge apart so the diagonalized form stays usable
            l2 -= 1e-9 * max(abs(l1), abs(l2))
        # eigenvectors (a12, λ−a11); a12 = G_ma/C_air > 0 keeps them independent
        v11, v21 = a12, l1 - a11
        v12, v22 = a12, l2 - a11
        dv = v11 * v22 - v12 * v21
        w11, w12 = v22 / dv, -v12 / dv
        w21, w22 = -v21 / dv, v11 / dv
        self.modal = (w11, w12, w21, w22, v11, v12, v21, v22, l1, l2, _propagator(l1, l2, 1.0))

    def fixed_point(self, ba: float, bm: float) -> tuple[float, float]:
        return -(self.ai11 * ba + self.ai12 * bm), -(self.ai21 * ba + self.ai22 * bm)


def _interior_extremum(c1, c2, l1, l2, xsa, s_max):
    """(s, T_air(s)) at the extremum of T_air inside (0, s_max), or None.

    T_air(s) = xsa + c1·exp(l1·s) + c2·exp(l2·s) has at most one; it has
    one only where the modal slopes c1·l1 and c2·l2 have opposite signs.
    """
    alpha, beta = c1 * l1, c2 * l2
    if alpha != 0.0 and beta != 0.0 and alpha * beta < 0:
        s_ext = math.log(-beta / alpha) / (l1 - l2)
        if 0.0 < s_ext < s_max:
            return s_ext, xsa + c1 * math.exp(l1 * s_ext) + c2 * math.exp(l2 * s_ext)
    return None


def _earliest_crossing(c1, c2, l1, l2, xsa, s_max, ta_start, ta_end, levels, skip_level):
    """First (time, level) in (0, s_max] where T_air hits one of ``levels``.

    Splitting T_air at its interior extremum gives monotone pieces on which
    a sign change pins the root for bisection. The caller passes the end
    values ``ta_start`` = T_air(0) and ``ta_end`` = T_air(s_max) it already
    has, so a segment without a sign change costs no exponential beyond the
    extremum's. ``skip_level`` marks a boundary the segment starts on: its
    residual at s=0 is rounding noise, so the departure sign is probed just
    inside instead.
    """
    exp = math.exp
    knots = [(0.0, ta_start), (s_max, ta_end)]
    extremum = _interior_extremum(c1, c2, l1, l2, xsa, s_max)
    if extremum:
        knots.insert(1, extremum)
    best = None
    for level in levels:
        for (lo, ta_lo), (hi, ta_hi) in zip(knots, knots[1:]):
            if lo == 0.0 and level == skip_level:
                lo = min(1e-9, 0.5 * hi)
                ta_lo = xsa + c1 * exp(l1 * lo) + c2 * exp(l2 * lo)
            f_lo = ta_lo - level
            if f_lo == 0.0 and lo == 0.0:
                continue  # segment starts on this boundary; regime already chosen
            if f_lo * (ta_hi - level) > 0:
                continue
            a, b = lo, hi
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = xsa + c1 * exp(l1 * mid) + c2 * exp(l2 * mid) - level
                # once the midpoint rounds onto an end the bracket never moves again
                if f_lo * fm <= 0:
                    if mid == b:
                        break
                    b = mid
                else:
                    if mid == a:
                        break
                    a, f_lo = mid, fm
            s_hit = 0.5 * (a + b)
            if s_hit > 1e-15 and (best is None or s_hit < best[0]):
                best = (s_hit, level)
            break  # earlier piece wins for this level
    return best


def _crossing(c1, c2, l1, l2, xsa, s_max, ta_start, ta_end, levels, skip_level):
    """`_earliest_crossing`, with a cheap answer where no level is crossed.

    A segment that starts off every level is bisected only on a piece
    (between its ends and its interior extremum) whose end values bracket a
    level; without one, the search returns None. The same knots and sign
    tests decide that here, before any list is built, so the answer is the
    full search's. A segment that starts on a level takes the full search.
    """
    if skip_level is None:
        extremum = _interior_extremum(c1, c2, l1, l2, xsa, s_max)
        for level in levels:
            f_start, f_end = ta_start - level, ta_end - level
            if extremum is None:
                if f_start != 0.0 and not f_start * f_end > 0:
                    break
            else:
                f_ext = extremum[1] - level
                if (f_start != 0.0 and not f_start * f_ext > 0) or not f_ext * f_end > 0:
                    break
        else:
            return None
    return _earliest_crossing(c1, c2, l1, l2, xsa, s_max, ta_start, ta_end, levels, skip_level)


def _simulate(params, bms, occ, weather, cfg, t0, detailed):
    """One week's outputs; with ``detailed``, the `SimResult` that adds the
    energy ledger and the node traces, which only the detailed path computes."""
    win_frac = params.window_fractions
    window_area = sum(a * w for a, w in zip(cfg.facade_areas_m2, win_frac))
    opaque_facade = [
        (a * (1.0 - w), _u_opaque(th, cfg))
        for a, w, th in zip(cfg.facade_areas_m2, win_frac, params.facade_thicknesses)
    ]
    g_win = cfg.window_u_w_m2k * window_area / 1000.0
    g_inf = (
        cfg.air_heat_capacity_kj_m3k * params.airchange_infiltration_vol_per_h * cfg.volume_m3 / 3600.0
    )
    g_wi = g_win + g_inf  # both couple the air node to ambient
    g_om = (
        sum(a * u for a, u in opaque_facade)
        + cfg.wall5_u_w_m2k * cfg.wall5_area_m2
        + _u_opaque(params.roof_1_thickness_3, cfg) * cfg.roof_area_m2
    ) / 1000.0
    g_gnd = cfg.ground_u_w_m2k * cfg.ground_area_m2 / 1000.0
    mass_surface = (
        sum(a for a, _ in opaque_facade) + cfg.wall5_area_m2 + cfg.roof_area_m2 + cfg.ground_area_m2
    )
    g_ma = cfg.film_w_m2k * mass_surface / 1000.0
    c_air = cfg.air_heat_capacity_kj_m3k * cfg.volume_m3 / 3600.0  # kWh/K
    c_mass = params.capacitance_kJ_perdegreK_perm3 * cfg.volume_m3 / 3600.0

    gain = cfg.hvac_gain_kw_k
    cap_heat = float(params.power_VCV_kW_heat)
    cap_cool = float(params.power_VCV_kW_clim)

    def system(g_vent: float, closed_loop: bool) -> _LinearSystem:
        a11 = -(g_win + g_inf + g_vent + g_ma) / c_air
        if closed_loop:
            a11 -= gain / c_air
        return _LinearSystem(a11, g_ma / c_air, g_ma / c_mass, -(g_ma + g_om + g_gnd) / c_mass)

    schedule = week_schedule(bms, weather, cfg)
    pair_of = {g_vent: (system(g_vent, False), system(g_vent, True)) for g_vent in set(schedule.g_vent)}

    occupied_h = expand_daily(occ).tolist()
    tamb_h = weather.tamb.tolist()
    iglob_h = weather.channel("IGLOB_H").tolist()
    solar_coeff = cfg.solar_projection * cfg.shgc * window_area / 1000.0  # kW per (W/m²)
    f_air = cfg.solar_air_fraction

    q_people_occ = params.nb_occupants * cfg.occupant_gain_w / 1000.0
    q_eqp_day = params.nb_PCs * cfg.pc_gain_w / 1000.0
    q_eqp_night = q_eqp_day * params.percent_PCs_night / 100.0
    q_light_day = cfg.light_w_m2 * cfg.floor_area_m2 / 1000.0
    q_light_night = q_light_day * params.percent_light_night / 100.0

    rows = []
    detail = []  # per hour: air and mass stored-energy change and flux, end temperatures

    ta = tm = float(t0)
    _check_state(0, ta, tm)
    tg = cfg.ground_temp_c

    for hour, (heat_sp, cool_threshold, g_vent, t_vent, q_ahu_h, q_ahu_c) in enumerate(zip(*schedule)):
        sys_open, sys_closed = pair_of[g_vent]
        tamb = tamb_h[hour]

        occupied = occupied_h[hour]
        is_occ = occupied > 0
        q_people = occupied * q_people_occ
        q_eqp = q_eqp_day if is_occ else q_eqp_night
        q_light = q_light_day if is_occ else q_light_night
        q_int = q_people + q_eqp + q_light
        q_sol = solar_coeff * iglob_h[hour]
        q_air = q_int + f_air * q_sol  # gains landing on the air node (kW)
        q_mass = (1.0 - f_air) * q_sol

        ba_open = (g_wi * tamb + g_vent * t_vent + q_int + f_air * q_sol) / c_air
        bm = (g_om * tamb + g_gnd * tg + q_mass) / c_mass

        # the HVAC branch is latched from the air temperature at the hour start
        heat = proportional(gain, heat_sp - ta, cap_heat)
        cool = proportional(gain, ta - cool_threshold, cap_cool)
        sp = cool_threshold if cool > 0 else heat_sp
        if heat > 0:
            mode, cap = 1, cap_heat
        elif cool > 0:
            mode, cap = -1, cap_cool
        else:
            mode, cap = 0, 0.0

        # per regime (indexed by _OFF, _ACTIVE, _SAT): system, fixed point,
        # constant HVAC flux and the levels where the regime ends
        xs_open = sys_open.fixed_point(ba_open, bm)
        if mode == 0:
            regimes = ((sys_open, *xs_open, 0.0, ()),)
        else:
            # temperature levels where the latched branch changes regime
            level_off = sp
            level_sat = sp - cap / gain if mode == 1 else sp + cap / gain
            q_sat = cap if mode == 1 else -cap
            regimes = (
                (sys_open, *xs_open, 0.0, (level_off,)),
                (sys_closed, *sys_closed.fixed_point(ba_open + gain * sp / c_air, bm), 0.0,
                 (level_off,) if cap == math.inf else (level_off, level_sat)),
                (sys_open, *sys_open.fixed_point(ba_open + q_sat / c_air, bm), q_sat, (level_sat,)),
            )

        heat_kwh = 0.0
        cool_kwh = 0.0
        int_ta_h = 0.0
        air_sum = 0.0
        mass_sum = 0.0
        ta0_h, tm0_h = ta, tm
        events = 0
        current = None

        s_left = 1.0  # hours
        while s_left > 1e-14:
            on_level = None
            if mode == 0:
                regime = _OFF
            elif ta == level_off or ta == level_sat:
                # The applied flux is continuous across a regime boundary, so
                # the drift direction there is regime-independent and decides
                # which side the trajectory continues on.
                on_level = ta
                q_b = q_sat if ta == level_sat else 0.0
                drift = sys_open.a11 * ta + sys_open.a12 * tm + ba_open + q_b / c_air
                if ta == level_off:
                    leaving = drift > 0 if mode == 1 else drift < 0
                    regime = _OFF if leaving else _ACTIVE
                else:
                    entering_band = drift > 0 if mode == 1 else drift < 0
                    regime = _ACTIVE if entering_band else _SAT
            elif mode == 1:
                regime = _OFF if ta >= level_off else _SAT if ta <= level_sat else _ACTIVE
            else:
                regime = _OFF if ta <= level_off else _SAT if ta >= level_sat else _ACTIVE
            if regime != current:
                current = regime
                sys, xsa, xsm, q_const, levels = regimes[regime]
                w11, w12, w21, w22, v11, v12, v21, v22, l1, l2, prop_hour = sys.modal

            da, dm = ta - xsa, tm - xsm
            w1, w2 = w11 * da + w12 * dm, w21 * da + w22 * dm
            c1, c2 = v11 * w1, v12 * w2
            e1, e2, g1, g2 = prop_hour if s_left == 1.0 else _propagator(l1, l2, s_left)
            xa = xsa + c1 * e1 + c2 * e2
            hit = (
                _crossing(c1, c2, l1, l2, xsa, s_left, xsa + c1 + c2, xa, levels, on_level)
                if levels
                else None
            )
            if hit:
                s_seg = hit[0]
                e1, e2, g1, g2 = _propagator(l1, l2, s_seg)
            else:
                s_seg = s_left
            c3, c4 = v21 * w1, v22 * w2
            xm = xsm + c3 * e1 + c4 * e2
            ia = xsa * s_seg + c1 * g1 + c2 * g2  # exact ∫T_air dt over the segment

            if regime == _ACTIVE:
                q_hvac_kwh = gain * (sp * s_seg - ia)  # ∫ gain·(sp − T) dt, signed
            else:
                q_hvac_kwh = q_const * s_seg
            if mode == 1:
                heat_kwh += q_hvac_kwh
            elif mode == -1:
                cool_kwh += -q_hvac_kwh

            int_ta_h += ia
            if detailed:
                im = xsm * s_seg + c3 * g1 + c4 * g2
                air_sum += (
                    g_wi * (tamb * s_seg - ia)
                    + g_vent * (t_vent * s_seg - ia)
                    + g_ma * (im - ia)
                    + q_air * s_seg
                    + q_hvac_kwh
                )
                mass_sum += (
                    g_ma * (ia - im)
                    + g_om * (tamb * s_seg - im)
                    + g_gnd * (tg * s_seg - im)
                    + q_mass * s_seg
                )

            tm = xm
            s_left -= s_seg
            if hit:
                ta = hit[1]  # land exactly on the boundary
                events += 1
                if events > _MAX_EVENTS_PER_HOUR:
                    raise NumericalError(hour, "HVAC regime chatter: too many control events")
            else:
                ta = xa

        _check_state(hour, ta, tm)
        if detailed:
            detail.append((c_air * (ta - ta0_h), air_sum, c_mass * (tm - tm0_h), mass_sum, ta, tm))
        rows.append((
            max(cool_kwh, 0.0),  # Q_AC_OFFICE: kWh over one hour = mean kW
            max(heat_kwh, 0.0),
            q_people,
            q_eqp,
            q_light,
            q_ahu_c,
            q_ahu_h,
            int_ta_h,  # hour-mean air temperature
        ))

    output = SimOutput(np.array(rows))
    if not detailed:
        return output
    air_delta, air_flux, mass_delta, mass_flux, t_air, t_mass = np.array(detail).T
    start = float(t0)
    return SimResult(
        output,
        EnergyLedger(air_delta, air_flux, mass_delta, mass_flux),
        np.concatenate(([start], t_air)),
        np.concatenate(([start], t_mass)),
    )


def simulate_week(
    params: BuildingParams,
    bms: BmsSchedule,
    occ: OccupancySchedule,
    weather: WeatherSeries,
    cfg: RcModelConfig = DEFAULT_RC_CONFIG,
    t0: float = 20.0,
) -> SimOutput:
    """Simulate one week; see simulate_week_detailed for diagnostics."""
    return _simulate(params, bms, occ, weather, cfg, t0, detailed=False)


def simulate_week_detailed(
    params: BuildingParams,
    bms: BmsSchedule,
    occ: OccupancySchedule,
    weather: WeatherSeries,
    cfg: RcModelConfig = DEFAULT_RC_CONFIG,
    t0: float = 20.0,
) -> SimResult:
    """`simulate_week`'s outputs plus the per-hour energy ledger and the
    169 hour-boundary values of both node temperatures."""
    return _simulate(params, bms, occ, weather, cfg, t0, detailed=True)
