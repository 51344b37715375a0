import numpy as np
import pytest

from segdt.env import (
    ACTION_DIM, COLLISION_GAP, LIGHT_VISIBILITY, PHASE_GREEN, PHASE_RED,
    PHASE_UNKNOWN, STATE_DIM, V_MAX, EnvAction, EnvConfig, ExpertConfig,
    HighwayEnv, RuleExpert, clip_scalar, denorm_action, norm_actions,
)


def make_env(delta=0.0, **kw):
    return HighwayEnv(EnvConfig(delta=delta, **kw))


def roll(env, policy, seed):
    state = env.reset(seed=seed)
    outs = []
    while True:
        out = env.step(policy(env, state))
        outs.append(out)
        state = out.state
        if out.done:
            break
    return outs


def cruise(env, state):
    return EnvAction(28.0, 0.0)


def test_same_seed_same_initial_state():
    a = make_env().reset(seed=11).as_array()
    b = make_env().reset(seed=11).as_array()
    assert np.array_equal(a, b)
    assert a.shape == (STATE_DIM,)


def test_different_seed_different_initial_state():
    a = make_env().reset(seed=1).as_array()
    b = make_env().reset(seed=2).as_array()
    assert not np.array_equal(a, b)


def test_delta_zero_full_determinism():
    outs_a = roll(make_env(delta=0.0), cruise, seed=3)
    outs_b = roll(make_env(delta=0.0), cruise, seed=3)
    assert len(outs_a) == len(outs_b)
    for oa, ob in zip(outs_a, outs_b):
        assert np.array_equal(oa.state.as_array(), ob.state.as_array())
        assert oa.reward == ob.reward
        assert oa.infraction == ob.infraction


def test_reward_is_exact_sum_of_terms():
    env = make_env(delta=0.1)
    expert = RuleExpert(ExpertConfig(seed=5))
    for out in roll(env, expert.act, seed=5):
        assert out.reward == sum(out.reward_terms.values())
        assert set(out.reward_terms) == {
            "r_speed", "r_position", "r_rotation", "r_action", "r_terminal"}


def test_speed_term_peaks_at_desired_speed():
    env = make_env()
    env.reset(seed=7)
    # drive exactly at the hidden desired speed with no steering
    env._ego_speed = env.v_desired
    env._offset = 0.0
    env._heading = 0.0
    out = env.step(EnvAction(env.v_desired, 0.0))
    assert out.reward_terms["r_speed"] == pytest.approx(1.0)
    assert out.reward_terms["r_position"] == pytest.approx(
        -0.5 * abs(out.state.ego_lane_offset))


def test_collision_terminates_with_penalty():
    env = make_env()
    env.reset(seed=9)
    env._lead_pos = env._ego_pos + COLLISION_GAP - 0.5
    env._lead_speed = 0.0
    env._lat.lead_target_speed = 0.0
    out = env.step(EnvAction(V_MAX, 0.0))
    assert out.infraction == "collision"
    assert out.done
    assert out.reward_terms["r_terminal"] == -10.0
    with pytest.raises(RuntimeError):
        env.step(EnvAction(0.0, 0.0))


def test_hard_steer_goes_off_route():
    env = make_env()
    outs = roll(env, lambda e, s: EnvAction(25.0, 1.0), seed=13)
    assert outs[-1].infraction == "off_route"
    assert outs[-1].reward_terms["r_terminal"] == -10.0
    assert abs(outs[-1].state.ego_lane_offset) > 2.5


def test_steer_change_costs_action_term():
    env = make_env()
    env.reset(seed=15)
    out1 = env.step(EnvAction(25.0, 0.5))   # steer jumps from 0 -> 0.5
    assert out1.reward_terms["r_action"] == -0.1
    out2 = env.step(EnvAction(25.0, 0.5))   # held steady
    assert out2.reward_terms["r_action"] == 0.0


def test_light_phase_hidden_until_visible():
    for seed in range(10):
        state = make_env().reset(seed=seed)
        assert state.light_distance > LIGHT_VISIBILITY
        assert state.light_phase == PHASE_UNKNOWN


def test_latent_frequencies_monte_carlo():
    cfg = EnvConfig()
    v_des, light_pos, phase0 = [], [], []
    for seed in range(400):
        env = HighwayEnv(cfg)
        env.reset(seed=seed)
        lat = env.privileged_latents
        v_des.append(lat.v_desired)
        light_pos.append(lat.light_position)
        phase0.append(lat.light_schedule[0])
    v_des = np.array(v_des)
    light_pos = np.array(light_pos)
    assert v_des.min() >= cfg.v_desired_range[0]
    assert v_des.max() <= cfg.v_desired_range[1]
    assert np.all((light_pos >= 0.35 * cfg.route_length)
                  & (light_pos <= 0.65 * cfg.route_length))
    green_frac = np.mean(np.array(phase0) == PHASE_GREEN)
    assert abs(green_frac - 0.6) < 0.08  # binomial 3-sigma at n=400 is ~0.073


def test_delta_resamples_lead_target_speed():
    env = make_env(delta=1.0)
    env.reset(seed=17)
    seen = set()
    for _ in range(20):
        out = env.step(EnvAction(20.0, 0.0))
        seen.add(env.privileged_latents.lead_target_speed)
        if out.done:
            break
    assert len(seen) > 5  # resampled nearly every step


def test_delta_changes_lead_behavior_vs_deterministic():
    def lead_trace(delta):
        env = make_env(delta=delta)
        state = env.reset(seed=19)
        trace = []
        for _ in range(30):
            out = env.step(cruise(env, state))
            trace.append(env._lead_pos)
            state = out.state
            if out.done:
                break
        return trace

    assert lead_trace(0.0) != lead_trace(0.5)


def test_schedule_alternates_red_green():
    env = make_env()
    env.reset(seed=21)
    sched = env.privileged_latents.light_schedule
    assert set(np.unique(sched)) <= {PHASE_RED, PHASE_GREEN}
    assert (sched == PHASE_RED).any() and (sched == PHASE_GREEN).any()


def test_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(delta=1.5)
    with pytest.raises(ValueError):
        EnvConfig(lead_speed_range=(30.0, 20.0))
    with pytest.raises(ValueError):
        EnvConfig(episode_horizon=0)


@pytest.mark.parametrize("length", [float("nan"), float("inf"), 0.0, -900.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_config_rejects_a_route_length_that_is_not_finite_and_positive(length):
    """A NaN route failed only at ``reset``, inside a worker, and a negative
    one ran with a route completion of -0.0."""
    with pytest.raises(ValueError, match=f"route_length must be finite and > 0, got {length}"):
        EnvConfig(route_length=length)


def test_expert_success_rate_delta_zero():
    successes = 0
    n = 200
    for seed in range(n):
        env = make_env(delta=0.0)
        expert = RuleExpert(ExpertConfig(seed=0))
        expert.reseed(seed)
        outs = roll(env, expert.act, seed=seed)
        if outs[-1].infraction is None and env.route_completion >= 1.0:
            successes += 1
    assert successes / n >= 0.95, f"expert success rate {successes / n:.3f}"


def test_action_dim_and_clamping():
    a = EnvAction(99.0, -3.0).clamped()
    assert a.target_speed == V_MAX
    assert a.target_steer == -1.0
    assert a.as_array().shape == (ACTION_DIM,)


@pytest.mark.parametrize("lo, hi", [(0.0, V_MAX), (-1.0, 1.0), (-0.0, 0.0), (-3.0, -3.0)])
def test_clip_scalar_matches_np_clip(lo, hi):
    values = [np.nan, np.inf, -np.inf, 0.0, -0.0, lo, hi, -lo, -hi, 0.5 * (lo + hi),
              np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 1e300, -1e300, 5e-324]
    for x in values:
        want = float(np.clip(x, lo, hi))
        got = float(clip_scalar(x, lo, hi))
        assert np.array_equal(np.array(got), np.array(want), equal_nan=True), x
        assert np.signbit(got) == np.signbit(want), x


def test_action_scaling_maps_speed_range_and_inverts():
    raw = np.array([[0.0, 0.3], [V_MAX, -1.0], [10.0, 1.0]])
    scaled = norm_actions(raw)
    assert np.array_equal(scaled, [[-1.0, 0.3], [1.0, -1.0], [-0.5, 1.0]])
    assert np.array_equal(raw, [[0.0, 0.3], [V_MAX, -1.0], [10.0, 1.0]])  # not in place
    for a, z in zip(raw, scaled):
        assert np.array_equal(denorm_action(z), a)
