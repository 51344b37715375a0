import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from segdt import trajlog
from segdt.env import EnvConfig, ExpertConfig
from segdt.segmenter import UncertaintyTrace, relabel, save_segmented, segment


def make_traj(rewards, seed=0):
    T = len(rewards)
    rng = np.random.default_rng(seed)
    return trajlog.Trajectory(
        states=rng.normal(size=(T, 12)),
        actions=rng.normal(size=(T, 2)),
        rewards=np.asarray(rewards, dtype=np.float64),
        reward_terms=[{"r_speed": float(r)} for r in rewards],
        infractions=[None] * T,
        meta={"seed": seed},
    )


def brute_force_returns(rewards, gamma):
    T = len(rewards)
    return np.array([
        sum(gamma ** (k - t) * rewards[k] for k in range(t, T)) for t in range(T)
    ])


def test_returns_undiscounted_example():
    ann = trajlog.compute_returns(make_traj([1.0, 1.0, 1.0]), gamma=1.0)
    assert np.allclose(ann.returns_for(1.0), [3.0, 2.0, 1.0], atol=1e-12)


def test_returns_discounted_example():
    ann = trajlog.compute_returns(make_traj([1.0, 0.0, 2.0]), gamma=0.5)
    assert np.allclose(ann.returns_for(0.5), [1.5, 1.0, 2.0], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    rewards=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
    gamma=st.floats(0.05, 1.0),
)
def test_returns_match_double_sum_oracle(rewards, gamma):
    ann = trajlog.compute_returns(make_traj(rewards), gamma)
    assert np.allclose(ann.returns_for(gamma), brute_force_returns(rewards, gamma),
                       rtol=1e-10, atol=1e-10)


def test_invalid_gamma_rejected():
    for g in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            trajlog.compute_returns(make_traj([1.0]), g)


def test_missing_annotation_raises():
    ann = trajlog.compute_returns(make_traj([1.0]), 0.95)
    with pytest.raises(KeyError):
        ann.returns_for(0.5)


def test_annotate_dataset_both_gammas():
    out = trajlog.annotate_dataset([make_traj([1.0, 2.0])], gammas=(0.95, 1.0))
    assert np.allclose(out[0].returns_for(1.0), [3.0, 2.0])
    assert np.allclose(out[0].returns_for(0.95), [1.0 + 0.95 * 2.0, 2.0])


def test_empty_trajectory_rejected():
    with pytest.raises(ValueError):
        make_traj([])


def test_nonfinite_reward_rejected():
    with pytest.raises(ValueError):
        make_traj([1.0, np.nan])


@pytest.fixture(scope="module")
def small_dataset():
    return trajlog.collect_dataset(EnvConfig(delta=0.1), ExpertConfig(seed=0),
                                   episodes=3, base_seed=100)


def test_collect_dataset_meta(small_dataset):
    assert len(small_dataset) == 3
    for k, traj in enumerate(small_dataset):
        assert traj.meta["seed"] == 100 + k
        assert traj.meta["delta"] == 0.1
        assert 0.0 <= traj.meta["route_completion"] <= 1.0
        assert traj.states.shape == (len(traj), 12)
        assert traj.actions.shape == (len(traj), 2)


def test_jsonl_roundtrip_bitwise(small_dataset, tmp_path):
    path = tmp_path / "d.jsonl"
    trajlog.save(small_dataset, path)
    loaded = trajlog.load(path)
    assert len(loaded) == len(small_dataset)
    for a, b in zip(small_dataset, loaded):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)
        assert a.reward_terms == b.reward_terms
        assert a.infractions == b.infractions
        assert a.meta == b.meta


def test_binary_roundtrip_bitwise(small_dataset, tmp_path):
    # trajectories of different lengths, so a misplaced slice shows
    trajs = small_dataset + [make_traj([0.5] * n, seed=n) for n in (1, 7, 4)]
    assert len({len(t) for t in trajs}) >= 3
    trajlog.save_binary(trajs, tmp_path / "d.npz")
    trajlog.save(trajs, tmp_path / "d.jsonl")
    packed = trajlog.load_binary(tmp_path / "d.npz")
    jsonl = trajlog.load(tmp_path / "d.jsonl")
    assert len(packed) == len(jsonl) == len(trajs)
    for a, b, c in zip(trajs, packed, jsonl):
        for loaded in (b, c):
            assert np.array_equal(a.states, loaded.states)
            assert np.array_equal(a.actions, loaded.actions)
            assert np.array_equal(a.rewards, loaded.rewards)
            assert a.reward_terms == loaded.reward_terms
            assert a.infractions == loaded.infractions
            assert a.meta == loaded.meta


def test_truncated_file_fails_loudly(small_dataset, tmp_path):
    path = tmp_path / "d.jsonl"
    trajlog.save(small_dataset, path)
    lines = path.read_text().splitlines(keepends=True)
    dropped = "".join(lines[:-1])
    cut = dropped + lines[-1][:len(lines[-1]) // 2]
    # the temporary path holds the test's name, so match past it
    for text in (dropped, cut):
        path.write_text(text)
        with pytest.raises(ValueError, match="truncated (file|or malformed record)"):
            trajlog.load(path)


def test_columns_of_unequal_length_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    trajlog.save([make_traj([1.0, 2.0, 3.0])], path)
    header, line = path.read_text().splitlines()
    rec = json.loads(line)
    rec["rewards"] = rec["rewards"][:-1]
    path.write_text(header + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match="one length"):
        trajlog.load(path)


def test_file_format_pinned(tmp_path):
    """Key order and float encoding of both file kinds, pinned by sha256."""
    trajs = [trajlog.Trajectory(
        states=np.arange(T * 12).reshape(T, 12) / 7.0 - 3.0,
        actions=np.arange(T * 2).reshape(T, 2) * 0.3 - 0.5,
        rewards=np.array([0.1, -0.25, 1 / 3, 2.5e-17, -0.0][:T]),
        reward_terms=[{"r_speed": t / 3, "r_lane": -0.05} for t in range(T)],
        infractions=[None] * (T - 1) + ["collision"],
        meta={"seed": T, "delta": 0.1},
    ) for T in (5, 3)]
    traces = [UncertaintyTrace(u=np.array([0.0, 1.5, 0.25, 0.5, 1 / 7][:len(t)]),
                               epsilon=1.0) for t in trajs]
    segs = [relabel(t, tr, segment(tr, 2)) for t, tr in zip(trajs, traces)]
    trajlog.save(trajs, tmp_path / "d.jsonl")
    save_segmented(segs, tmp_path / "s.jsonl")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("d.jsonl", "s.jsonl")]
    assert digests == [
        "50c554b3fde21cd7ec92ca7d1fa72a9f629de13b1b0b97604c85d36c3dc6b09e",
        "ade54c1d63c7962b61b10a8ae35396613f8b58474a1912cdc4586795f428a462",
    ]


def test_schema_version_mismatch(small_dataset, tmp_path):
    path = tmp_path / "d.jsonl"
    trajlog.save(small_dataset[:1], path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace(trajlog.SCHEMA_VERSION, "traj-v0")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="schema version mismatch"):
        trajlog.load(path)


def test_window_left_padding_and_content():
    traj = make_traj(np.arange(1.0, 4.0))  # length 3
    rng = np.random.default_rng(0)
    batch = trajlog.sample_window([traj], length=5, batch_size=16, rng=rng)
    assert batch["states"].shape == (16, 5, 12)
    for b in range(16):
        mask = batch["mask"][b]
        n = mask.sum()
        assert 1 <= n <= 3
        assert not mask[: 5 - n].any() and mask[5 - n:].all()
        # padded slots are zero, real slots match the trajectory suffix window
        assert np.array_equal(batch["rewards"][b, : 5 - n], np.zeros(5 - n))
        end = int(batch["rewards"][b, -1])  # rewards are 1..3 => end index
        assert np.array_equal(batch["states"][b, 5 - n:],
                              traj.states[end - n:end])


def test_window_end_positions_uniform_chi2():
    traj = make_traj(np.arange(1.0, 9.0))  # rewards 1..8 identify the end
    rng = np.random.default_rng(1)
    counts = np.zeros(8)
    for _ in range(40):
        batch = trajlog.sample_window([traj], length=4, batch_size=100, rng=rng)
        ends = batch["rewards"][:, -1].astype(int)
        for e in ends:
            counts[e - 1] += 1
    assert stats.chisquare(counts).pvalue > 1e-3


def test_window_trajectory_choice_weighted_by_length():
    short, long = make_traj([1.0] * 10, seed=1), make_traj([2.0] * 90, seed=2)
    rng = np.random.default_rng(2)
    batch = trajlog.sample_window([short, long], length=1, batch_size=4000, rng=rng)
    frac_long = (batch["rewards"][:, -1] == 2.0).mean()
    assert abs(frac_long - 0.9) < 0.03


def test_window_extra_columns_aligned():
    traj = make_traj(np.arange(1.0, 7.0))
    ann = trajlog.compute_returns(traj, 1.0)
    rng = np.random.default_rng(3)
    batch = trajlog.sample_window(
        [ann], length=3, batch_size=32, rng=rng,
        columns={"returns": [ann.returns_for(1.0)]},
    )
    # undiscounted return at a slot determines the reward there: R_t - R_{t+1}
    m = batch["mask"]
    rets = batch["returns"]
    full = ann.returns_for(1.0)
    lookup = {full[t]: traj.rewards[t] for t in range(6)}
    for b in range(32):
        for t in range(3):
            if m[b, t]:
                assert batch["rewards"][b, t] == lookup[rets[b, t]]


def test_window_rejects_bad_args():
    with pytest.raises(ValueError):
        trajlog.sample_window([], 4, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        trajlog.sample_window([make_traj([1.0])], 0, 2, np.random.default_rng(0))
