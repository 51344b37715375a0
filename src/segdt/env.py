"""Seeded toy highway driving MDP.

A single-lane route with one lead vehicle and one traffic light.  The core
dynamics are deterministic; stochasticity enters only through (a) resampling
of the lead vehicle's hidden target speed with probability ``delta`` per step
and (b) the light's hidden phase schedule, which is fixed at reset from the
seed.  With ``delta = 0`` an episode is a pure function of (config, seed,
action sequence).

The policy-visible state is a 12-float vector; the lead vehicle's latents
(target speed, visibility range) and the light schedule never appear in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

ENV_VERSION = "toy-highway-1"

DT = 0.5            # seconds per tick
V_MAX = 40.0        # m/s
ACCEL_MAX = 6.0     # m/s^2
STEER_RATE = 0.4    # rad/s of heading change at full steer
COLLISION_GAP = 2.0  # m
OFF_ROUTE_OFFSET = 2.5  # m
LEAD_DIST_MAX = 60.0    # observed clamp when lead not visible
LIGHT_DIST_MAX = 200.0  # observed clamp when no light ahead
LIGHT_VISIBILITY = 80.0  # m at which the phase becomes observable
WAYPOINT_SPACING = 15.0  # m between route-curvature lookahead samples

PHASE_RED = 0.0
PHASE_GREEN = 1.0
PHASE_UNKNOWN = 0.5

STATE_DIM = 12
ACTION_DIM = 2

STATE_FIELDS = (
    "ego_speed", "ego_lane_offset", "ego_heading_err",
    "lead_distance", "lead_speed",
    "light_distance", "light_phase",
    "waypoint_0", "waypoint_1", "waypoint_2", "waypoint_3",
    "step_index",
)


def clip_scalar(x, lo, hi):
    """``np.clip`` for one float, without its per-call overhead; the same
    result on NaN, infinities and signed zeros."""
    x = lo if x < lo else x
    return hi if x > hi else x


def norm_actions(a) -> np.ndarray:
    """Actions as the networks see them: target speed mapped from [0, V_MAX]
    to [-1, 1], steer unchanged (it is already in [-1, 1])."""
    out = np.array(a, dtype=np.float64)
    out[..., 0] = 2.0 * out[..., 0] / V_MAX - 1.0
    return out


def denorm_action(a) -> np.ndarray:
    """One network action back in raw units: the inverse of ``norm_actions``."""
    return np.array([(a[0] + 1.0) / 2.0 * V_MAX, a[1]])


@dataclass(frozen=True)
class EnvConfig:
    delta: float = 0.0
    lead_speed_range: tuple = (20.0, 40.0)
    lead_visibility_range: tuple = (10.0, 30.0)
    episode_horizon: int = 130
    seed: int = 0
    route_length: float = 900.0
    v_desired_range: tuple = (24.0, 32.0)

    def validate(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        for name in ("lead_speed_range", "lead_visibility_range", "v_desired_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must be non-degenerate, got ({lo}, {hi})")
        if self.episode_horizon < 1:
            raise ValueError("episode_horizon must be positive")
        return self


@dataclass(frozen=True)
class EnvAction:
    target_speed: float
    target_steer: float

    def clamped(self) -> "EnvAction":
        return EnvAction(
            float(clip_scalar(self.target_speed, 0.0, V_MAX)),
            float(clip_scalar(self.target_steer, -1.0, 1.0)),
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.target_speed, self.target_steer])


@dataclass
class EnvState:
    ego_speed: float
    ego_lane_offset: float
    ego_heading_err: float
    lead_distance: float
    lead_speed: float
    light_distance: float
    light_phase: float
    waypoints: np.ndarray  # 4 upcoming curvature samples
    step_index: int

    def as_array(self) -> np.ndarray:
        return np.array([
            self.ego_speed, self.ego_lane_offset, self.ego_heading_err,
            self.lead_distance, self.lead_speed,
            self.light_distance, self.light_phase,
            *self.waypoints,
            float(self.step_index),
        ])


@dataclass
class StepOutcome:
    state: EnvState
    reward: float
    reward_terms: dict
    done: bool
    infraction: str | None  # collision | red_light | off_route


@dataclass
class _Latents:
    """Hidden episode realization; never exposed through EnvState."""
    v_desired: float
    lead_initial_gap: float
    lead_target_speed: float
    lead_visibility: float
    light_position: float
    light_schedule: np.ndarray  # phase per step, PHASE_RED/PHASE_GREEN
    curvature_knots: np.ndarray  # curvature per 100 m route segment


class HighwayEnv:
    """One instance per episode stream; not shared across threads."""

    def __init__(self, config: EnvConfig):
        self.config = config.validate()
        self._active = False

    # -- episode control ---------------------------------------------------

    def reset(self, seed: int | None = None) -> EnvState:
        cfg = self.config
        if seed is not None:
            cfg = replace(cfg, seed=seed)
            self.config = cfg
        self._rng = np.random.default_rng(cfg.seed)
        rng = self._rng

        n_knots = int(cfg.route_length // 100) + 2
        red_len = rng.integers(8, 16)
        green_len = rng.integers(20, 31)
        phase0 = PHASE_GREEN if rng.random() < 0.6 else PHASE_RED
        schedule = np.empty(cfg.episode_horizon + 1)
        phase, left = phase0, (green_len if phase0 == PHASE_GREEN else red_len)
        for t in range(cfg.episode_horizon + 1):
            schedule[t] = phase
            left -= 1
            if left <= 0:
                phase = PHASE_RED if phase == PHASE_GREEN else PHASE_GREEN
                left = red_len if phase == PHASE_RED else green_len

        self._lat = _Latents(
            v_desired=rng.uniform(*cfg.v_desired_range),
            lead_initial_gap=rng.uniform(40.0, 120.0),
            lead_target_speed=rng.uniform(*cfg.lead_speed_range),
            lead_visibility=rng.uniform(*cfg.lead_visibility_range),
            light_position=rng.uniform(0.35, 0.65) * cfg.route_length,
            light_schedule=schedule,
            curvature_knots=rng.uniform(-0.06, 0.06, size=n_knots),
        )
        self._ego_pos = 0.0
        self._ego_speed = self._lat.v_desired * rng.uniform(0.8, 1.0)
        self._offset = rng.uniform(-0.3, 0.3)
        self._heading = rng.uniform(-0.02, 0.02)
        self._lead_pos = self._lat.lead_initial_gap
        self._lead_speed = self._lat.lead_target_speed
        self._prev_steer = 0.0
        self._step = 0
        self._active = True
        self._lead_was_visible = False
        self.lead_reveal_step: int | None = None  # diagnostics for scripted scenarios
        return self._observe()

    @property
    def privileged_latents(self) -> _Latents:
        return self._lat

    @property
    def v_desired(self) -> float:
        return self._lat.v_desired

    def _curvature(self, pos: float) -> float:
        knots = self._lat.curvature_knots
        i = min(int(max(pos, 0.0) // 100), len(knots) - 1)
        return float(knots[i])

    def _light_phase_at(self, step: int) -> float:
        t = min(max(step, 0), len(self._lat.light_schedule) - 1)
        return float(self._lat.light_schedule[t])

    def _light_phase_now(self) -> float:
        return self._light_phase_at(self._step)

    def _observe(self) -> EnvState:
        lat = self._lat
        gap = self._lead_pos - self._ego_pos
        if 0.0 <= gap <= lat.lead_visibility:
            lead_distance = min(gap, LEAD_DIST_MAX)
            lead_speed = self._lead_speed
            if not self._lead_was_visible:
                self._lead_was_visible = True
                self.lead_reveal_step = self._step
        else:
            lead_distance = LEAD_DIST_MAX
            lead_speed = V_MAX
        light_dist = lat.light_position - self._ego_pos
        if 0.0 <= light_dist <= LIGHT_VISIBILITY:
            light_distance = light_dist
            light_phase = self._light_phase_now()
        else:
            light_distance = min(max(light_dist, 0.0), LIGHT_DIST_MAX) if light_dist >= 0 else LIGHT_DIST_MAX
            light_phase = PHASE_UNKNOWN
        wps = np.array([
            self._curvature(self._ego_pos + WAYPOINT_SPACING * (i + 1)) for i in range(4)
        ])
        return EnvState(
            ego_speed=self._ego_speed,
            ego_lane_offset=self._offset,
            ego_heading_err=self._heading,
            lead_distance=lead_distance,
            lead_speed=lead_speed,
            light_distance=light_distance,
            light_phase=light_phase,
            waypoints=wps,
            step_index=self._step,
        )

    # -- dynamics ----------------------------------------------------------

    def step(self, action: EnvAction) -> StepOutcome:
        if not self._active:
            raise RuntimeError("step() called on a finished episode; call reset() first")
        cfg, lat = self.config, self._lat
        action = action.clamped()

        # lead latent resampling: the only delta-controlled stochastic event
        if cfg.delta > 0.0 and self._rng.random() < cfg.delta:
            self._lat = replace(lat, lead_target_speed=self._rng.uniform(*cfg.lead_speed_range))
            lat = self._lat

        # ego longitudinal
        dv = clip_scalar(action.target_speed - self._ego_speed, -ACCEL_MAX * DT, ACCEL_MAX * DT)
        self._ego_speed = float(clip_scalar(self._ego_speed + dv, 0.0, V_MAX))
        prev_pos = self._ego_pos
        self._ego_pos += self._ego_speed * DT

        # ego lateral: heading error integrates steer against route curvature
        curv = self._curvature(prev_pos)
        self._heading += (STEER_RATE * action.target_steer - curv) * DT
        self._offset += self._ego_speed * np.sin(self._heading) * DT

        # lead vehicle
        lead_dv = clip_scalar(lat.lead_target_speed - self._lead_speed,
                              -ACCEL_MAX * DT, ACCEL_MAX * DT)
        self._lead_speed = float(clip_scalar(self._lead_speed + lead_dv, 0.0, V_MAX))
        self._lead_pos += self._lead_speed * DT

        self._step += 1

        # infractions
        infraction = None
        gap = self._lead_pos - self._ego_pos
        crossed_light = prev_pos < lat.light_position <= self._ego_pos
        if gap < COLLISION_GAP:
            infraction = "collision"
        elif crossed_light and self._light_phase_now() == PHASE_RED:
            infraction = "red_light"
        elif abs(self._offset) > OFF_ROUTE_OFFSET:
            infraction = "off_route"

        success = infraction is None and self._ego_pos >= cfg.route_length
        horizon_end = self._step >= cfg.episode_horizon
        done = infraction is not None or success or horizon_end

        # reward decomposition; reward is the exact sum of the five terms
        r_speed = 1.0 - abs(self._ego_speed - lat.v_desired) / V_MAX
        r_position = -0.5 * abs(self._offset)
        r_rotation = -abs(self._heading)
        r_action = -0.1 if abs(action.target_steer - self._prev_steer) > 0.01 else 0.0
        if success:
            r_terminal = 10.0
        elif infraction is not None:
            r_terminal = -10.0
        else:
            r_terminal = 0.0
        terms = {
            "r_speed": r_speed,
            "r_position": r_position,
            "r_rotation": r_rotation,
            "r_action": r_action,
            "r_terminal": r_terminal,
        }
        reward = r_speed + r_position + r_rotation + r_action + r_terminal

        self._prev_steer = action.target_steer
        if done:
            self._active = False
        state = self._observe()
        return StepOutcome(state=state, reward=reward, reward_terms=terms,
                           done=done, infraction=infraction)

    @property
    def route_completion(self) -> float:
        return min(self._ego_pos / self.config.route_length, 1.0)


# ---------------------------------------------------------------------------
# Privileged rule expert (collection-time only)
# ---------------------------------------------------------------------------

EXPERT_VERSION = "rule-expert-1"


@dataclass(frozen=True)
class ExpertConfig:
    noise_rate: float = 0.05  # per-step probability of a random perturbation
    seed: int = 0


class RuleExpert:
    """Follow target speed, brake for red lights and slow leads, hold lane.

    Uses the environment's privileged latents (actual lead gap/speed and the
    live light phase), which is the collection-time privilege the trained
    policies never get.
    """

    def __init__(self, config: ExpertConfig = ExpertConfig()):
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def reseed(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def act(self, env: HighwayEnv, state: EnvState) -> EnvAction:
        lat = env.privileged_latents
        target_speed = lat.v_desired

        # lead: privileged true gap and speed
        gap = env._lead_pos - env._ego_pos
        if gap >= 0.0:
            safe_gap = 6.0 + 0.6 * env._ego_speed
            if gap < safe_gap:
                target_speed = min(target_speed, env._lead_speed)
            if gap < 0.5 * safe_gap:
                target_speed = min(target_speed, env._lead_speed - 4.0)
            if gap < 2.0 * COLLISION_GAP:
                target_speed = 0.0

        # light: privileged live phase and schedule (anticipates flips)
        light_dist = lat.light_position - env._ego_pos
        if light_dist >= 0.0:
            arrival = int(np.ceil(light_dist / max(env._ego_speed * DT, 1e-6)))
            red_now = env._light_phase_now() == PHASE_RED
            red_upcoming = any(
                env._light_phase_at(env._step + k) == PHASE_RED
                for k in range(0, arrival + 3)
            )
            decel = 0.6 * ACCEL_MAX  # margin under the physical limit
            brake_dist = env._ego_speed**2 / (2.0 * decel) + 12.0
            braking = red_now or (red_upcoming and env._ego_speed > 5.0)
            if braking and light_dist < brake_dist:
                stop_margin = max(light_dist - 4.0, 0.0)
                target_speed = min(target_speed, np.sqrt(2.0 * decel * stop_margin))

        # lane keeping: feedforward curvature plus PD on offset and heading
        curv = env._curvature(env._ego_pos)
        desired_heading = float(clip_scalar(-0.08 * state.ego_lane_offset, -0.2, 0.2))
        steer = (curv + 1.2 * (desired_heading - state.ego_heading_err)) / STEER_RATE
        steer = float(clip_scalar(steer, -1.0, 1.0))

        if self._rng.random() < self.config.noise_rate:
            target_speed = float(clip_scalar(target_speed + self._rng.uniform(-6.0, 6.0),
                                             0.0, V_MAX))
            steer = float(clip_scalar(steer + self._rng.uniform(-0.3, 0.3), -1.0, 1.0))
        return EnvAction(target_speed, steer)
