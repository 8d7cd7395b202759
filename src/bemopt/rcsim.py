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
that drift does not depend on the regime. The sub-step partition therefore
changes results only by float rounding.

Control timing: the HVAC mode (heat / cool / off) is latched once per
hour from the air temperature at the hour start, which makes heating and
cooling mutually exclusive within any hour by construction. The latched
branch then acts as an exact continuous proportional controller.

Cost: each linear system caches its propagator over one full sub-step
(the modal exponentials and their integrals at ``dt``), and the fixed
point, levels and HVAC flux of each regime are set once per hour, so a
sub-step without a control event evaluates no exponential. The crossing
search gets the segment's end temperatures from the propagation it
already did and bisects only where it finds a sign change. The float
operations and their order are those of the plain per-segment solution,
so the cached and the recomputed forms give the same bits
(`tests/test_rcsim.py` pins a digest of every output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schema import (
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
    substeps: int = 6


DEFAULT_RC_CONFIG = RcModelConfig()


def _check_state(hour: int, t_air: float, t_mass: float) -> None:
    """Raise NumericalError unless both node temperatures (°C) are sane."""
    if not (math.isfinite(t_air) and math.isfinite(t_mass)):
        raise NumericalError(hour, f"non-finite state T_air={t_air}, T_mass={t_mass}")
    if not (T_SANITY_LO <= t_air <= T_SANITY_HI):
        raise NumericalError(hour, f"T_air={t_air:.2f} outside sanity band [{T_SANITY_LO}, {T_SANITY_HI}]")


@dataclass(frozen=True)
class HvacDemand:
    heat_kw: float
    cool_kw: float
    setpoint: float  # the setpoint the active branch tracks


def _scheduled(hour_of_day: float, start: float, end: float) -> bool:
    return start <= hour_of_day < end


def hvac_control(
    t: float,
    hour: int,
    bms: BmsSchedule,
    gain: float = 50.0,
    heat_cap: float = math.inf,
    cool_cap: float = math.inf,
    deadband: float = 0.5,
) -> HvacDemand:
    """Proportional heating/cooling demand at one hour of the week.

    Setpoints follow the schedule (comfort value inside [start, end),
    reduced value outside). Cooling engages only above
    max(cooling setpoint, heating setpoint + deadband), so the two bands
    can never overlap even when the schedules would cross.
    """
    day = (hour // HOURS_PER_DAY) % 7
    hod = hour % HOURS_PER_DAY
    heat_sp = (
        bms.t_heat_conf_day[day]
        if _scheduled(hod, bms.start_heat_day[day], bms.end_heat_day[day])
        else bms.t_heat_red_day[day]
    )
    cool_sp = (
        bms.t_clim_conf_day[day]
        if _scheduled(hod, bms.start_clim_day[day], bms.end_clim_day[day])
        else bms.t_clim_red_day[day]
    )
    cool_threshold = max(cool_sp, heat_sp + deadband)
    heat = min(max(gain * (heat_sp - t), 0.0), heat_cap)
    cool = min(max(gain * (t - cool_threshold), 0.0), cool_cap)
    return HvacDemand(heat, cool, cool_threshold if cool > 0 else heat_sp)


def _ventilation(day: int, hod: int, bms: BmsSchedule, cfg: RcModelConfig) -> float | None:
    """Supply-air conductance (kW/K) while the AHU is scheduled, else None."""
    if not _scheduled(hod, bms.start_ventilation_day[day], bms.end_ventilation_day[day]):
        return None
    return cfg.air_heat_capacity_kj_m3k * bms.vol_ventilation_day[day] * cfg.volume_m3 / 3600.0


def ahu_load(
    hour: int, bms: BmsSchedule, weather: WeatherSeries, cfg: RcModelConfig = DEFAULT_RC_CONFIG
) -> tuple[float, float]:
    """(Q_AHU_H, Q_AHU_C) in kW: tempering outside air to the supply setpoint."""
    day = (hour // HOURS_PER_DAY) % 7
    g_vent = _ventilation(day, hour % HOURS_PER_DAY, bms, cfg)
    if g_vent is None:
        return 0.0, 0.0
    tamb = float(weather.tamb[hour])
    lift = bms.t_ventilation_day[day] - tamb
    if lift > 0:
        return g_vent * lift, 0.0
    return 0.0, -g_vent * lift


@dataclass
class EnergyLedger:
    """Per-hour stored-energy changes vs integrated fluxes (kWh)."""

    air_delta: np.ndarray
    air_flux: np.ndarray
    mass_delta: np.ndarray
    mass_flux: np.ndarray

    def max_relative_error(self) -> float:
        num = np.abs(self.air_delta - self.air_flux) + np.abs(self.mass_delta - self.mass_flux)
        scale = np.maximum(
            1e-9,
            np.abs(self.air_flux) + np.abs(self.mass_flux) + np.abs(self.air_delta) + np.abs(self.mass_delta),
        )
        return float(np.max(num / scale))


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

    Holds the eigendecomposition of A and the propagator over one full
    sub-step ``dt``; b varies hour to hour, so the fixed point is supplied
    per hour. The state at time s of a segment is x* + V diag(e(s)) w with
    modal coordinates w = W (x(0) − x*), W = V⁻¹; ``modal`` holds W and V
    row by row, λ1, λ2 and the `_propagator` at ``dt``.
    """

    __slots__ = ("a11", "a12", "ai11", "ai12", "ai21", "ai22", "modal")

    def __init__(self, a11: float, a12: float, a21: float, a22: float, dt: float):
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
        self.modal = (w11, w12, w21, w22, v11, v12, v21, v22, l1, l2, _propagator(l1, l2, dt))

    def fixed_point(self, ba: float, bm: float) -> tuple[float, float]:
        return -(self.ai11 * ba + self.ai12 * bm), -(self.ai21 * ba + self.ai22 * bm)


def _earliest_crossing(c1, c2, l1, l2, xsa, s_max, ta_start, ta_end, levels, skip_level):
    """First (time, level) in (0, s_max] where T_air hits one of ``levels``.

    T_air(s) = xsa + c1·exp(l1·s) + c2·exp(l2·s) has at most one interior
    extremum; splitting there gives monotone pieces on which a sign change
    pins the root for bisection. The caller passes the end values
    ``ta_start`` = T_air(0) and ``ta_end`` = T_air(s_max) it already has, so
    a segment without a sign change costs no exponential. ``skip_level``
    marks a boundary the segment starts on: its residual at s=0 is rounding
    noise, so the departure sign is probed just inside instead.
    """
    exp = math.exp
    alpha, beta = c1 * l1, c2 * l2
    knots = [(0.0, ta_start), (s_max, ta_end)]
    if alpha != 0.0 and beta != 0.0 and alpha * beta < 0:
        s_ext = math.log(-beta / alpha) / (l1 - l2)
        if 0.0 < s_ext < s_max:
            knots.insert(1, (s_ext, xsa + c1 * exp(l1 * s_ext) + c2 * exp(l2 * s_ext)))
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


def simulate_week_detailed(
    params: BuildingParams,
    bms: BmsSchedule,
    occ: OccupancySchedule,
    weather: WeatherSeries,
    cfg: RcModelConfig = DEFAULT_RC_CONFIG,
    t0: float = 20.0,
) -> SimResult:
    n_sub = int(cfg.substeps)
    dt = 1.0 / n_sub  # hours

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

    systems: dict[tuple[float, bool], _LinearSystem] = {}

    def system(g_vent: float, closed_loop: bool) -> _LinearSystem:
        key = (round(g_vent, 9), closed_loop)
        if key not in systems:
            a11 = -(g_win + g_inf + g_vent + g_ma) / c_air
            if closed_loop:
                a11 -= gain / c_air
            systems[key] = _LinearSystem(
                a11, g_ma / c_air, g_ma / c_mass, -(g_ma + g_om + g_gnd) / c_mass, dt
            )
        return systems[key]

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
    air_delta, air_flux, mass_delta, mass_flux = [], [], [], []

    ta = tm = float(t0)
    _check_state(0, ta, tm)
    t_air_trace, t_mass_trace = [ta], [tm]
    tg = cfg.ground_temp_c

    for hour in range(HOURS_PER_WEEK):
        day = hour // HOURS_PER_DAY
        hod = hour % HOURS_PER_DAY
        tamb = tamb_h[hour]
        t_vent = bms.t_ventilation_day[day]
        g_vent = _ventilation(day, hod, bms, cfg) or 0.0

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
        demand = hvac_control(
            ta, hour, bms, gain=gain, heat_cap=cap_heat, cool_cap=cap_cool, deadband=cfg.deadband_k
        )
        sp = demand.setpoint
        if demand.heat_kw > 0:
            mode, cap = 1, cap_heat
        elif demand.cool_kw > 0:
            mode, cap = -1, cap_cool
        else:
            mode, cap = 0, 0.0

        sys_open = system(g_vent, False)
        # per regime (indexed by _OFF, _ACTIVE, _SAT): system, fixed point,
        # constant HVAC flux and the levels where the regime ends
        xs_open = sys_open.fixed_point(ba_open, bm)
        if mode == 0:
            regimes = ((sys_open, *xs_open, 0.0, ()),)
        else:
            sys_closed = system(g_vent, True)
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

        for _ in range(n_sub):
            s_left = dt
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
                    w11, w12, w21, w22, v11, v12, v21, v22, l1, l2, prop_dt = sys.modal

                da, dm = ta - xsa, tm - xsm
                w1, w2 = w11 * da + w12 * dm, w21 * da + w22 * dm
                c1, c2 = v11 * w1, v12 * w2
                e1, e2, g1, g2 = prop_dt if s_left == dt else _propagator(l1, l2, s_left)
                xa = xsa + c1 * e1 + c2 * e2
                hit = (
                    _earliest_crossing(c1, c2, l1, l2, xsa, s_left, xsa + c1 + c2, xa, levels, on_level)
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
                im = xsm * s_seg + c3 * g1 + c4 * g2

                if regime == _ACTIVE:
                    q_hvac_kwh = gain * (sp * s_seg - ia)  # ∫ gain·(sp − T) dt, signed
                else:
                    q_hvac_kwh = q_const * s_seg
                if mode == 1:
                    heat_kwh += q_hvac_kwh
                elif mode == -1:
                    cool_kwh += -q_hvac_kwh

                int_ta_h += ia
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
        q_ahu_h, q_ahu_c = ahu_load(hour, bms, weather, cfg)
        air_delta.append(c_air * (ta - ta0_h))
        mass_delta.append(c_mass * (tm - tm0_h))
        air_flux.append(air_sum)
        mass_flux.append(mass_sum)
        t_air_trace.append(ta)
        t_mass_trace.append(tm)
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

    ledger = EnergyLedger(*(np.array(v) for v in (air_delta, air_flux, mass_delta, mass_flux)))
    return SimResult(SimOutput(np.array(rows)), ledger, np.array(t_air_trace), np.array(t_mass_trace))


def simulate_week(
    params: BuildingParams,
    bms: BmsSchedule,
    occ: OccupancySchedule,
    weather: WeatherSeries,
    cfg: RcModelConfig = DEFAULT_RC_CONFIG,
    t0: float = 20.0,
) -> SimOutput:
    """Simulate one week; see simulate_week_detailed for diagnostics."""
    return simulate_week_detailed(params, bms, occ, weather, cfg, t0).output
