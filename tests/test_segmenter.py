import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdt import trajlog
from segdt.env import EnvConfig, ExpertConfig
from segdt.nn import Standardizer
from segdt.return_model import ReturnEnsemble, ReturnMemberModel, ReturnModelConfig
from segdt.segmenter import (
    CERTAIN, UNCERTAIN, Part, UncertaintyTrace, estimate_uncertainty,
    forecast_uncertainty, gaussian_kl_array, load_segmented, relabel,
    save_segmented, segment, segment_dataset,
)


def make_trace(flags, epsilon=1.0):
    # u above/below epsilon encodes the flags exactly
    u = np.where(np.asarray(flags, dtype=bool), epsilon + 1.0, 0.0)
    return UncertaintyTrace(u=u, epsilon=epsilon)


def make_traj(rewards):
    return trajlog.compute_returns(
        trajlog.Trajectory(
            states=np.zeros((len(rewards), 12)), actions=np.zeros((len(rewards), 2)),
            rewards=np.asarray(rewards, dtype=np.float64),
            reward_terms=[{}] * len(rewards), infractions=[None] * len(rewards),
        ), 1.0)


# -- KL ---------------------------------------------------------------------


def test_kl_self_divergence_zero():
    assert gaussian_kl_array(1.3, 2.7, 1.3, 2.7) == pytest.approx(0.0, abs=1e-12)


def test_kl_unit_mean_shift():
    assert gaussian_kl_array(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)


def test_kl_variance_two_vs_one():
    got = gaussian_kl_array(0.0, 2.0, 0.0, 1.0)
    assert got == pytest.approx(0.5 * (1.0 - np.log(2.0)), abs=1e-12)
    assert got == pytest.approx(0.1534, abs=5e-5)


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = float(rng.normal()), float(rng.uniform(0.1, 5))
        q = float(rng.normal()), float(rng.uniform(0.1, 5))
        assert gaussian_kl_array(*p, *q) >= 0.0


def test_kl_monte_carlo_cross_check():
    rng = np.random.default_rng(1)
    (mu_p, var_p), (mu_q, var_q) = (0.7, 1.6), (-0.4, 0.9)
    x = rng.normal(mu_p, np.sqrt(var_p), size=400_000)
    log_ratio = (-0.5 * (x - mu_p) ** 2 / var_p - 0.5 * np.log(var_p)
                 + 0.5 * (x - mu_q) ** 2 / var_q + 0.5 * np.log(var_q))
    assert gaussian_kl_array(mu_p, var_p, mu_q, var_q) == pytest.approx(log_ratio.mean(),
                                                                         rel=0.02)


def test_kl_rejects_bad_variance():
    with pytest.raises(ValueError, match="non-positive variance"):
        gaussian_kl_array(0.0, 1.0, 0.0, 0.0)


# -- segmentation -----------------------------------------------------------


def oracle_uncertain_mask(flags, c):
    """Independent reference: an uncertain stretch persists until c-1
    consecutive unflagged steps follow the latest flagged step."""
    flags = np.asarray(flags, dtype=bool)
    T = flags.size
    out = np.zeros(T, dtype=bool)
    t = 0
    while t < T:
        if not flags[t]:
            t += 1
            continue
        run, j = 0, t + 1
        while j < T and run < c - 1:
            run = 0 if flags[j] else run + 1
            j += 1
        out[t:j] = True
        t = j
    return out


def parts_to_mask(parts, T):
    mask = np.zeros(T, dtype=bool)
    for p in parts:
        if p.label == UNCERTAIN:
            mask[p.start:p.stop] = True
    return mask


def test_all_certain_single_part():
    parts = segment(make_trace([0] * 7), c=3)
    assert parts == [Part(CERTAIN, 0, 7)]


def test_all_uncertain_single_part():
    parts = segment(make_trace([1] * 7), c=3)
    assert parts == [Part(UNCERTAIN, 0, 7)]


def test_hand_trace_example():
    parts = segment(make_trace([0, 0, 1, 0, 0, 0]), c=3)
    assert parts == [Part(CERTAIN, 0, 2), Part(UNCERTAIN, 2, 5), Part(CERTAIN, 5, 6)]


def test_invalid_c_rejected():
    with pytest.raises(ValueError):
        segment(make_trace([0, 1]), c=0)


@settings(max_examples=300, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=40),
    c=st.integers(1, 8),
)
def test_segment_matches_oracle_and_invariants(flags, c):
    parts = segment(make_trace(flags), c=c)
    T = len(flags)
    # coverage: contiguous, non-overlapping, spanning [0, T)
    assert parts[0].start == 0 and parts[-1].stop == T
    for a, b in zip(parts, parts[1:]):
        assert a.stop == b.start
        assert a.label != b.label  # strictly alternating
    assert parts_to_mask(parts, T).tolist() == oracle_uncertain_mask(flags, c).tolist()


def test_segment_deterministic():
    rng = np.random.default_rng(2)
    flags = rng.random(50) < 0.3
    assert segment(make_trace(flags), 4) == segment(make_trace(flags), 4)


# -- relabeling -------------------------------------------------------------


def test_relabel_all_certain():
    traj = make_traj([1.0, 2.0, 3.0, 4.0, 5.0])
    trace = make_trace([0] * 5)
    seg = relabel(traj, trace, segment(trace, 3))
    assert seg.h.tolist() == [5, 4, 3, 2, 1]
    assert seg.r_h.tolist() == [15.0, 14.0, 12.0, 9.0, 5.0]


def test_relabel_hand_trace():
    traj = make_traj([1.0] * 6)
    trace = make_trace([0, 0, 1, 0, 0, 0])
    seg = relabel(traj, trace, segment(trace, 3))
    assert seg.h.tolist() == [2, 1, 0, 0, 0, 1]
    assert seg.r_h.tolist() == [2.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    assert seg.global_returns.tolist() == [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.booleans(), st.floats(-5, 5, allow_nan=False)),
        min_size=1, max_size=30),
    c=st.integers(1, 6),
)
def test_relabel_brute_force_window_sums(data, c):
    flags = [f for f, _ in data]
    rewards = [r for _, r in data]
    traj = make_traj(rewards)
    trace = make_trace(flags)
    parts = segment(trace, c)
    seg = relabel(traj, trace, parts)
    uncertain = parts_to_mask(parts, len(flags))
    for t in range(len(flags)):
        if uncertain[t]:
            assert seg.h[t] == 0 and seg.r_h[t] == 0.0
        else:
            assert seg.h[t] > 0
            # h never crosses into an uncertain part
            assert not uncertain[t: t + seg.h[t]].any()
            # the span ends exactly at a boundary (next part or episode end)
            end = t + seg.h[t]
            assert end == len(flags) or uncertain[end]
            assert seg.r_h[t] == pytest.approx(sum(rewards[t: end]), abs=1e-9)
    # the first step of each certain part accounts for the part's whole reward
    for p in parts:
        if p.label == CERTAIN:
            assert seg.r_h[p.start] == pytest.approx(
                sum(rewards[p.start: p.stop]), abs=1e-9)


def test_relabel_length_mismatch_rejected():
    traj = make_traj([1.0, 2.0])
    trace = make_trace([0, 0, 0])
    with pytest.raises(ValueError):
        relabel(traj, trace, segment(trace, 2))


# -- uncertainty estimation -------------------------------------------------


def test_untrained_twins_give_zero_uncertainty():
    # zero-init heads put both roles at N(0, 1) -> KL = 0 at every step
    cfg = ReturnModelConfig(n_layers=1, n_heads=2, embed_dim=16, seq_length=5,
                            dropout=0.0, ensemble_size=1)
    member = ReturnMemberModel(cfg, np.random.default_rng(0)).eval()
    ens = ReturnEnsemble(cfg, [member], Standardizer(np.zeros(12), np.ones(12)),
                         Standardizer(0.0, 1.0), [0])
    traj = make_traj(list(np.random.default_rng(1).uniform(0, 1, size=8)))
    trace = estimate_uncertainty(traj, ens, epsilon=0.5)
    assert np.allclose(trace.u, 0.0, atol=1e-12)
    assert not trace.flags.any()


def scalar_uncertainty(p: dict, t: int) -> float:
    """The per-step formula forecast_uncertainty replaces: moment-match each
    head's members, then a clipped KL, all on Python floats."""
    def moments(mus, vars_):
        mus, vars_ = np.array(mus), np.array(vars_)
        mu = mus.mean()
        var = max((vars_ + mus**2).mean() - mu**2, vars_.min() * 1e-12 + 1e-300)
        return float(mu), float(var)

    mu_p, var_p = moments(list(p["mu_s"][:, t]), list(p["var_s"][:, t]))
    mu_q, var_q = moments(list(p["mu_a"][:, t]), list(p["var_a"][:, t]))
    kl = float(0.5 * np.log(var_q / var_p)
               + (var_p + (mu_p - mu_q) ** 2) / (2.0 * var_q) - 0.5)
    return max(kl, 0.0)


class StubEnsemble:
    def __init__(self, forecast):
        self.forecast = forecast

    def predict_trajectory(self, states, actions):
        return self.forecast


@pytest.mark.parametrize("K", [1, 2, 5])
@pytest.mark.parametrize("near_identical", [False, True])
def test_uncertainty_bitwise_equal_scalar_formula(K, near_identical):
    rng = np.random.default_rng(10 + K)
    T = 3000
    centre = rng.normal(size=T) * 10.0 ** rng.uniform(-2, 3, size=T)
    scale = 1e-13 if near_identical else 1.0
    p = {}
    for head in ("s", "a"):
        p["mu_" + head] = centre * (1.0 + scale * rng.normal(size=(K, T)))
        p["var_" + head] = 10.0 ** rng.uniform(-3, 3, size=T) * (
            1.0 + scale * rng.uniform(size=(K, T)))
    u = forecast_uncertainty(p)
    assert [float(v) for v in u] == [scalar_uncertainty(p, t) for t in range(T)]
    trace = estimate_uncertainty(make_traj([0.0] * T), StubEnsemble(p), epsilon=1.0)
    assert np.array_equal(trace.u, u)


def test_uncertainty_rejects_invalid_member_forecast():
    p = {k: np.ones((2, 4)) for k in ("mu_s", "var_s", "mu_a", "var_a")}
    p["var_a"][1, 2] = 0.0
    with pytest.raises(ValueError, match="invalid return distribution"):
        forecast_uncertainty(p)
    p["var_a"][1, 2] = np.nan
    with pytest.raises(ValueError, match="invalid return distribution"):
        forecast_uncertainty(p)


def test_kl_array_matches_scalar_and_rejects_bad_variance():
    rng = np.random.default_rng(4)
    mu_p, mu_q = rng.normal(size=50), rng.normal(size=50)
    var_p, var_q = rng.uniform(0.1, 5, size=50), rng.uniform(0.1, 5, size=50)
    kl = gaussian_kl_array(mu_p, var_p, mu_q, var_q)
    for i in range(50):
        assert kl[i] == gaussian_kl_array(float(mu_p[i]), float(var_p[i]),
                                          float(mu_q[i]), float(var_q[i]))
    var_q[7] = -1.0
    with pytest.raises(ValueError, match="non-positive variance"):
        gaussian_kl_array(mu_p, var_p, mu_q, var_q)


def test_trace_validation():
    with pytest.raises(ValueError):
        UncertaintyTrace(u=np.array([-0.1]), epsilon=1.0)
    with pytest.raises(ValueError):
        UncertaintyTrace(u=np.array([np.nan]), epsilon=1.0)


# -- the whole dataset, serial and pooled ------------------------------------


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(scope="module")
def episodes():
    return trajlog.collect_dataset(EnvConfig(delta=0.1), ExpertConfig(), episodes=9,
                                   base_seed=40)


def random_ensemble(K=2, seed=0):
    """Untrained twins with random heads, so their forecasts disagree."""
    cfg = ReturnModelConfig(n_layers=1, n_heads=2, embed_dim=16, seq_length=5,
                            dropout=0.0, ensemble_size=K)
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(K):
        member = ReturnMemberModel(cfg, rng).eval()
        for head in (member.head_state, member.head_action):
            for p in head.parameters():
                p.data[...] = rng.normal(scale=0.5, size=p.data.shape)
        members.append(member)
    return ReturnEnsemble(cfg, members, Standardizer(np.zeros(12), np.full(12, 10.0)),
                          Standardizer(0.0, 1.0), list(range(K)))


def test_pooled_segmentation_matches_serial_bitwise(episodes, monkeypatch, tmp_path):
    ensemble = random_ensemble()
    u = np.concatenate([estimate_uncertainty(t, ensemble, 0.0).u for t in episodes])
    epsilon = float(np.quantile(u, 0.8))
    runs = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        runs[cpus] = segment_dataset(episodes, ensemble, epsilon, c=3)
        assert multiprocessing.active_children() == []
        save_segmented(runs[cpus], tmp_path / f"cpus{cpus}.npz")
    assert (tmp_path / "cpus1.npz").read_bytes() == (tmp_path / "cpus2.npz").read_bytes()
    assert len(runs[2]) == len(episodes)
    for a, b, traj in zip(runs[1], runs[2], episodes):
        for name in ("u", "h", "r_h"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert a.parts == b.parts and b.epsilon == epsilon
        assert b.traj.states is traj.states   # the trajectory never left the caller
        assert b.global_returns.tobytes() == trajlog.compute_returns(
            traj, 1.0).returns_for(1.0).tobytes()
    labels = {p.label for seg in runs[2] for p in seg.parts}
    assert labels == {CERTAIN, UNCERTAIN}


def test_pooled_segmentation_raises_the_lowest_failing_trajectory(episodes, monkeypatch):
    ensemble = random_ensemble()
    poisoned = {len(episodes[1]): 0.3, len(episodes[6]): 0.0}   # step count -> delay
    lengths = [len(t) for t in episodes]
    assert all(lengths.count(T) == 1 for T in poisoned)
    real = ensemble.members[1].infer_last

    def infer_last(ws, wa, mask):
        T = ws.shape[0]
        if T in poisoned:
            time.sleep(poisoned[T])   # trajectory 6 fails first, trajectory 1 still wins
            raise ValueError(f"poisoned forecast over {T} steps")
        return real(ws, wa, mask)

    ensemble.members[1].infer_last = infer_last
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match=f"over {len(episodes[1])} steps"):
            segment_dataset(episodes, ensemble, 1.0, c=3)
        assert multiprocessing.active_children() == []


def test_pipeline_builds_no_reward_term_dicts(monkeypatch, tmp_path):
    """Collecting, saving, loading, annotating, segmenting and saving again
    never reads the per-step ``reward_terms`` view."""
    def built(traj):
        raise AssertionError("per-step reward-term dicts were built")

    monkeypatch.setattr(trajlog.Trajectory, "reward_terms", property(built))
    _cpus(monkeypatch, 1)
    trajlog.save(trajlog.collect_dataset(EnvConfig(delta=0.1), ExpertConfig(), episodes=3,
                                         base_seed=40), tmp_path / "d.npz")
    trajs = trajlog.annotate_dataset(trajlog.load(tmp_path / "d.npz"))
    segs = segment_dataset(trajs, random_ensemble(), 0.1, c=3)
    save_segmented(segs, tmp_path / "s.npz")
    save_segmented(load_segmented(tmp_path / "s.npz"), tmp_path / "again.npz")
    assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "s.npz").read_bytes()


# -- persistence ------------------------------------------------------------


def test_segmented_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    segs = []
    for k in range(3):
        T = int(rng.integers(4, 12))
        traj = trajlog.compute_returns(trajlog.Trajectory(
            states=rng.normal(size=(T, 12)), actions=rng.normal(size=(T, 2)),
            rewards=rng.normal(size=T),
            reward_terms=[{"r_speed": float(x), "r_lane": -0.1} for x in rng.normal(size=T)],
            infractions=[None] * (T - 1) + [["collision", None, "off_road"][k]],
            meta={"seed": k, "delta": 0.2}), 1.0)
        trace = UncertaintyTrace(u=rng.uniform(0, 2, size=T), epsilon=1.0)
        segs.append(relabel(traj, trace, segment(trace, 3)))
    path = tmp_path / "seg.npz"
    save_segmented(segs, path)
    loaded = load_segmented(path)
    assert len(loaded) == 3
    for a, b in zip(segs, loaded):
        assert np.array_equal(a.traj.states, b.traj.states)
        assert np.array_equal(a.traj.actions, b.traj.actions)
        assert np.array_equal(a.traj.rewards, b.traj.rewards)
        assert a.traj.reward_terms == b.traj.reward_terms
        assert a.traj.infractions == b.traj.infractions
        assert a.traj.meta == b.traj.meta
        assert np.array_equal(a.u, b.u)
        assert a.epsilon == b.epsilon
        assert np.array_equal(a.h, b.h) and b.h.dtype == np.int64
        assert np.array_equal(a.r_h, b.r_h)
        assert np.array_equal(a.global_returns, b.global_returns)
        assert a.parts == b.parts
    # save -> load -> save gives the same bytes
    save_segmented(loaded, tmp_path / "again.npz")
    assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()


def test_segmented_truncation_fails(tmp_path):
    traj = make_traj([1.0] * 6)
    trace = make_trace([0, 0, 1, 0, 0, 0])
    seg = relabel(traj, trace, segment(trace, 3))
    path = tmp_path / "seg.npz"
    save_segmented([seg, seg], path)
    blob = path.read_bytes()
    # the temporary path holds the test's name, so match past it
    for cut in (blob[:len(blob) // 2], blob[:-22]):
        path.write_bytes(cut)
        with pytest.raises(ValueError, match=r"seg\.npz: cut or corrupt archive"):
            load_segmented(path)


def rewrite(path, **changes):
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files}
    arrays.update(changes)
    np.savez(path, **arrays)


@pytest.mark.parametrize("column", ["u", "h", "r_h", "epsilon", "part_counts", "parts"])
def test_segmented_columns_must_match_lengths(tmp_path, column):
    trace = make_trace([0, 0, 1, 0, 0, 0])
    seg = relabel(make_traj([1.0] * 6), trace, segment(trace, 3))
    path = tmp_path / "seg.npz"
    save_segmented([seg, seg], path)
    with np.load(path) as z:
        short = z[column][:-1]
    rewrite(path, **{column: short})
    message = ("lengths sum to 12 steps" if column in ("u", "h", "r_h")
               else "2 trajectories, but epsilon has shape")
    with pytest.raises(ValueError, match=rf"seg\.npz: {message}"):
        load_segmented(path)
