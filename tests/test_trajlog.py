import hashlib
import json
import math
import time

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


@pytest.mark.parametrize("column", ["actions", "rewards", "reward_terms", "infractions"])
def test_misaligned_step_columns_rejected(column):
    columns = dict(states=np.zeros((3, 12)), actions=np.zeros((3, 2)), rewards=np.zeros(3),
                   reward_terms=[{}] * 3, infractions=[None] * 3)
    columns[column] = columns[column][:2]
    with pytest.raises(ValueError, match="3 states but per-step entries"):
        trajlog.Trajectory(**columns)


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


def assert_same(a, b):
    """Bitwise equal arrays; equal terms, infractions and meta, floats to the bit."""
    for name in ("states", "actions", "rewards"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.float64 and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name
    # JSON writes floats by repr, which tells -0.0 from 0.0; == does not
    for name in ("reward_terms", "infractions", "meta"):
        x, y = getattr(a, name), getattr(b, name)
        assert x == y and json.dumps(x, sort_keys=True) == json.dumps(y, sort_keys=True), name


def test_roundtrip_bitwise_at_the_exact_path(small_dataset, tmp_path):
    path = tmp_path / "d.jsonl"   # any suffix: the file is written where asked
    trajlog.save(small_dataset, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]
    loaded = trajlog.load(path)
    assert len(loaded) == len(small_dataset)
    for a, b in zip(small_dataset, loaded):
        assert_same(a, b)


def test_binary_roundtrip_bitwise(small_dataset, tmp_path):
    # the former packed twin's names are the codec itself
    assert trajlog.save_binary is trajlog.save and trajlog.load_binary is trajlog.load
    # trajectories of different lengths, so a misplaced slice shows
    trajs = small_dataset + [make_traj([0.5] * n, seed=n) for n in (1, 7, 4)]
    assert len({len(t) for t in trajs}) >= 3
    trajlog.save_binary(trajs, tmp_path / "d.npz")
    packed = trajlog.load_binary(tmp_path / "d.npz")
    assert len(packed) == len(trajs)
    for a, b in zip(trajs, packed):
        assert_same(a, b)


def test_roundtrip_fidelity_of_terms_infractions_and_meta(tmp_path):
    trajs = [make_traj([1.0, -0.0, 2.5e-17]), make_traj([0.5, 0.25], seed=1),
             make_traj([-1.0], seed=2)]
    # mixed term-name sets, an empty one, and floats that a lossy codec would change
    trajs[0].reward_terms = [{"r_speed": -0.0, "r_lane": 2.5e-17}, {},
                             {"r_terminal": 10.0, "r_speed": 1 / 3}]
    trajs[1].reward_terms = [{"r_new": -1e-300}, {"r_speed": 0.0}]
    trajs[2].reward_terms = [{}]
    trajs[0].infractions = [None, "collision", None]
    trajs[1].infractions = ["red_light", "off_route"]
    trajs[0].meta = {"seed": 0, "nested": {"list": [1, 2.5, None, "x"], "neg_zero": -0.0},
                     "lead_reveal_step": None}
    trajs[2].meta = {}
    path = tmp_path / "d.npz"
    trajlog.save(trajs, path)
    loaded = trajlog.load(path)
    for a, b in zip(trajs, loaded):
        assert_same(a, b)
    assert math.copysign(1.0, loaded[0].reward_terms[0]["r_speed"]) == -1.0
    assert loaded[0].reward_terms[1] == {} and loaded[2].reward_terms == [{}]
    assert all(type(v) is float for terms in loaded[0].reward_terms for v in terms.values())


@pytest.mark.parametrize("value", [1, True, "0.5", None, np.float32(0.5)])
def test_non_float_term_rejected_at_save(tmp_path, value):
    traj = make_traj([1.0, 2.0])
    traj.reward_terms = [{"r_speed": 0.5}, {"r_speed": value}]
    path = tmp_path / "d.npz"
    with pytest.raises(ValueError, match="term names must be str and values float"):
        trajlog.save([traj], path)


def test_saves_are_byte_identical(small_dataset, tmp_path, monkeypatch):
    trajlog.save(small_dataset, tmp_path / "a.npz")
    # a day later, so an entry stamped with the clock would differ
    later = time.time() + 86400.0
    monkeypatch.setattr(time, "time", lambda: later)
    trajlog.save(trajlog.load(tmp_path / "a.npz"), tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def rewrite(path, drop=(), **changes):
    """Save the archive's members again, with some replaced or dropped."""
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files if name not in drop}
    arrays.update(changes)
    np.savez(path, **arrays)


def test_truncated_file_fails_loudly(small_dataset, tmp_path):
    path = tmp_path / "d.npz"
    trajlog.save(small_dataset, path)
    blob = path.read_bytes()
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0xFF
    # the temporary path holds the test's name, so match past it
    for damaged in (blob[:100], blob[:len(blob) // 2], blob[:-1], bytes(flipped)):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=r"d\.npz: cut or corrupt archive"):
            trajlog.load(path)
    for cut in (b"", blob[:3]):
        path.write_bytes(cut)
        with pytest.raises(ValueError, match=r"d\.npz: not an npz archive"):
            trajlog.load(path)
    trajlog.save(small_dataset, path)
    rewrite(path, drop=("meta",))
    with pytest.raises(ValueError, match=r"d\.npz: missing members \['meta'\]"):
        trajlog.load(path)


def test_extra_records_named(small_dataset, tmp_path):
    path = tmp_path / "d.npz"
    trajlog.save(small_dataset, path)
    metas = [t.meta for t in small_dataset]
    rewrite(path, meta=np.frombuffer(json.dumps(metas + metas[-1:]).encode(), np.uint8))
    with pytest.raises(ValueError, match=r"lengths \[\d+, \d+, \d+\] disagree with 4 meta "
                                         r"records"):
        trajlog.load(path)
    trajlog.save(small_dataset, path)
    rewrite(path, extra=np.zeros(3))
    with pytest.raises(ValueError, match=r"d\.npz: missing members \[\], unexpected members "
                                         r"\['extra'\]"):
        trajlog.load(path)


@pytest.mark.parametrize("lengths, message", [
    ([3, 2], "lengths sum to 5 steps"),           # fewer steps than stored rows
    ([4, 3], r"lengths \[4, 3\] disagree with 2 meta records and infraction counts "
             r"\[3, 4\]"),                        # right total, wrong split
], ids=["short", "split"])
def test_binary_lengths_must_match_stored_steps(tmp_path, lengths, message):
    path = tmp_path / "d.npz"
    trajlog.save_binary([make_traj([1.0] * 3), make_traj([2.0] * 4, seed=1)], path)
    with np.load(path) as z:
        assert z["lengths"].tolist() == [3, 4]
    rewrite(path, lengths=np.array(lengths))
    with pytest.raises(ValueError, match=message):
        trajlog.load_binary(path)


def test_columns_of_unequal_length_rejected(tmp_path):
    path = tmp_path / "d.npz"
    for column in ("states", "actions", "rewards", "term_values", "term_present"):
        trajlog.save([make_traj([1.0, 2.0, 3.0])], path)
        with np.load(path) as z:
            short = z[column][:-1]
        rewrite(path, **{column: short})
        with pytest.raises(ValueError, match="lengths sum to 3 steps over 1 trajectories, "
                                             "stored step columns have shapes"):
            trajlog.load(path)
    trajlog.save([make_traj([1.0, 2.0, 3.0])], path)
    rewrite(path, infractions=np.frombuffer(b"[[null, null]]", np.uint8))
    with pytest.raises(ValueError, match=r"infraction counts \[2\]"):
        trajlog.load(path)


def test_file_format_pinned(tmp_path):
    """Member order, dtypes and float encoding of both file kinds, pinned by sha256."""
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
    trajlog.save(trajs, tmp_path / "d.npz")
    save_segmented(segs, tmp_path / "s.npz")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("d.npz", "s.npz")]
    assert digests == [
        "9b7c882b2338770c7027eff5477e95808d96b0836d1e9abe2e22892b348f5cee",
        "0ab1b19a92b122bcc605111a1e3b387a205d7c38517872e1380a2dc8e2f103ca",
    ]


def test_schema_version_mismatch(small_dataset, tmp_path):
    path = tmp_path / "d.npz"
    trajlog.save(small_dataset[:1], path)
    rewrite(path, schema_version=np.array("traj-v0"))
    with pytest.raises(ValueError, match="schema version mismatch: expected 'traj-v3', "
                                         "found 'traj-v0'"):
        trajlog.load(path)
    # a traj-v2 file: a JSONL header line, then one line per trajectory
    path.write_text(json.dumps({"schema_version": "traj-v2", "trajectory_count": 0}) + "\n")
    with pytest.raises(ValueError, match=r"d\.npz: not an npz archive"):
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
