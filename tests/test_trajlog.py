import gc
import hashlib
import json
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from segdt import archive, trajlog
from segdt.env import EnvConfig, ExpertConfig
from segdt.segmenter import (
    UncertaintyTrace, load_segmented, relabel, save_segmented, segment,
)


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


def recursive_returns(rewards, gamma):
    """The backward recursion R_t = r_t + gamma * R_{t+1}, one step at a time."""
    R, acc = np.empty(len(rewards)), 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        R[t] = acc
    return R


@pytest.mark.parametrize("rewards", [
    np.random.default_rng(0).normal(size=200),
    np.random.default_rng(1).normal(size=71) * 1e3,
    np.array([1.5, -2.0, -0.0]),        # trailing -0.0 returns 0.0, not -0.0
    np.array([-0.0, -0.0]),
    np.array([0.25]),                    # one step
    np.array([-0.0]),
])
def test_undiscounted_returns_equal_the_recursion_bitwise(rewards):
    R = trajlog.compute_returns(make_traj(rewards), 1.0).returns_for(1.0)
    assert R.dtype == np.float64 and R.flags.c_contiguous
    assert R.tobytes() == recursive_returns(rewards, 1.0).tobytes()


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


def test_collected_returns_equal_the_recursion_bitwise(small_dataset):
    for traj in small_dataset:
        R = trajlog.compute_returns(traj, 1.0).returns_for(1.0)
        assert R.tobytes() == recursive_returns(traj.rewards, 1.0).tobytes()


@pytest.mark.parametrize("gamma", [0.95, 0.5, 0.999])
def test_discounted_returns_equal_the_recursion_bitwise(small_dataset, gamma):
    rng = np.random.default_rng(2)
    for rewards in [t.rewards for t in small_dataset] + [
            rng.normal(size=200) * 1e3, np.array([1.5, -2.0, -0.0]), np.array([-0.0])]:
        R = trajlog.compute_returns(make_traj(rewards), gamma).returns_for(gamma)
        assert R.dtype == np.float64 and R.flags.c_contiguous
        assert R.tobytes() == recursive_returns(rewards, gamma).tobytes()


def test_pooled_collection_matches_serial_bitwise(monkeypatch, tmp_path):
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        runs[cpus] = trajlog.collect_dataset(EnvConfig(delta=0.1), ExpertConfig(seed=0),
                                             episodes=7, base_seed=100)
        assert multiprocessing.active_children() == []
        trajlog.save(runs[cpus], tmp_path / f"cpus{cpus}.npz")
    assert (tmp_path / "cpus1.npz").read_bytes() == (tmp_path / "cpus2.npz").read_bytes()
    assert [t.meta["seed"] for t in runs[2]] == list(range(100, 107))
    for a, b in zip(runs[1], runs[2]):
        assert_same(a, b)


def test_collected_reward_terms_are_the_env_steps(small_dataset):
    from segdt.env import HighwayEnv, RuleExpert
    traj = small_dataset[0]
    env, expert = HighwayEnv(EnvConfig(delta=0.1)), RuleExpert(ExpertConfig(seed=0))
    state = env.reset(seed=100)
    expert.reseed(100)
    for terms, reward, infraction in zip(traj.reward_terms, traj.rewards, traj.infractions):
        out = env.step(expert.act(env, state))
        assert terms == out.reward_terms and list(terms) == list(out.reward_terms)
        assert reward == out.reward and infraction == out.infraction
        state = out.state
    assert out.done


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
    for damaged in (b"", blob[:3], blob[:100], blob[:len(blob) // 2], blob[:-1],
                    bytes(flipped)):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=r"d\.npz: cut or corrupt archive"):
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


def hand_built_trajectories():
    """Terms that only some steps carry, empty dicts, -0.0 and 2.5e-17."""
    terms = [[{"r_speed": -0.0, "r_lane": 2.5e-17}, {}, {"r_speed": 1 / 3, "r_terminal": -10.0}],
             [{"r_new": -1e-300}, {"r_speed": 0.0}], [{}]]
    return [trajlog.Trajectory(
        states=np.arange(len(rows) * 12).reshape(len(rows), 12) / 7.0 - 3.0,
        actions=np.arange(len(rows) * 2).reshape(len(rows), 2) * 0.3 - 0.5,
        rewards=np.array([-0.0, 2.5e-17, 0.5][:len(rows)]),
        reward_terms=rows, infractions=[None] * (len(rows) - 1) + ["collision"],
        meta={"seed": k}) for k, rows in enumerate(terms)]


def test_hand_built_terms_pinned(tmp_path):
    """The bytes of an archive of partly present, empty and signed-zero terms,
    written from dicts and again from the loaded columns, pinned by sha256."""
    trajlog.save(hand_built_trajectories(), tmp_path / "h.npz")
    trajlog.save(trajlog.load(tmp_path / "h.npz"), tmp_path / "again.npz")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("h.npz", "again.npz")]
    assert digests == ["a3987cb4a8885ae51e3a7b41cca3ead1ccb820082ba5df005864ac64aa73f0f9"] * 2


def test_term_columns_in_first_seen_then_sorted_order(tmp_path):
    trajs = hand_built_trajectories()
    # names in first-seen order, 0.0 where a step lacks a term
    assert trajs[0].term_names == ("r_speed", "r_lane", "r_terminal")
    assert trajs[0].term_values.tolist() == [[-0.0, 2.5e-17, 0.0], [0.0, 0.0, 0.0],
                                             [1 / 3, 0.0, -10.0]]
    assert trajs[2].term_names == () and trajs[2].term_values.shape == (1, 0)
    # loaded: the file's sorted union of names
    trajlog.save(trajs, tmp_path / "h.npz")
    loaded = trajlog.load(tmp_path / "h.npz")
    names = ("r_lane", "r_new", "r_speed", "r_terminal")
    assert all(t.term_names == names for t in loaded)
    assert list(loaded[0].reward_terms[2]) == ["r_speed", "r_terminal"]
    assert loaded[1].term_present.tolist() == [[False, True, False, False],
                                               [False, False, True, False]]


def held_bytes_per_step(read, path) -> float:
    """Bytes that ``read(path)``'s result holds per step, under tracemalloc."""
    read(path)   # first-call caches are not the result's
    tracemalloc.start()
    try:
        out = read(path)
        gc.collect()   # the npz header parser leaves reference cycles behind
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / sum(len(getattr(x, "traj", x)) for x in out)


def test_loaded_trajectories_hold_at_most_250_bytes_a_step(small_dataset, tmp_path):
    # the step columns take 173 B a step; per-step term dicts made it about 400
    trajlog.save(small_dataset, tmp_path / "d.npz")
    assert held_bytes_per_step(trajlog.load, tmp_path / "d.npz") <= 250


def segmented(trajs, seed=0) -> list:
    rng = np.random.default_rng(seed)
    traces = [UncertaintyTrace(u=rng.uniform(0, 2, size=len(t)), epsilon=1.0) for t in trajs]
    return [relabel(t, trace, segment(trace, 3)) for t, trace in zip(trajs, traces)]


def test_loaded_segmented_trajectories_hold_at_most_300_bytes_a_step(small_dataset, tmp_path):
    save_segmented(segmented(small_dataset), tmp_path / "s.npz")
    assert held_bytes_per_step(load_segmented, tmp_path / "s.npz") <= 300


def test_term_columns_are_views_of_the_archive(small_dataset, tmp_path, monkeypatch):
    read, archives = archive.read, []
    monkeypatch.setattr(archive, "read",
                        lambda *args, **kwargs: archives.append(read(*args, **kwargs))
                        or archives[-1])
    trajlog.save(small_dataset, tmp_path / "d.npz")
    loaded = trajlog.load(tmp_path / "d.npz")
    for name in ("term_values", "term_present"):
        assert all(np.shares_memory(getattr(t, name), archives[0][name]) for t in loaded)
    # annotating passes the columns on uncopied
    for t, a in zip(loaded, trajlog.annotate_dataset(loaded, gammas=(0.5, 1.0))):
        assert (a.term_names is t.term_names and a.term_values is t.term_values
                and a.term_present is t.term_present)
    save_segmented(segmented(loaded), tmp_path / "s.npz")
    for seg in load_segmented(tmp_path / "s.npz"):
        assert np.shares_memory(seg.traj.term_values, archives[1]["term_values"])


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
