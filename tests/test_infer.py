"""Each model's tape-free ``infer`` returns its taped ``forward``'s arrays bit
for bit, ``infer`` restricted to some rows returns those rows' bits, a
policy decision builds no ``Tensor``, and training on the row-restricted
trunk gives the bits of training on every row."""

import numpy as np
import pytest

from segdt import autodiff, nn, trajlog
from segdt.autodiff import Tensor, no_grad
from segdt.planner import TargetPredictorConfig, _TargetMlp
from segdt.policy import Context, Policy, PolicyConfig, PolicyNormalizer, \
    SequencePolicyModel, train_policy
from segdt.return_model import ReturnEnsemble, ReturnMemberModel, ReturnModelConfig, \
    train_return_models
from segdt.segmenter import Part, SegmentedTrajectory


def randomized(module, seed=0):
    """Every parameter redrawn, so zero-init heads and unit gains carry signal."""
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    return module.eval()


def left_padded_mask(B, L, rng):
    """Row 0 full; the others start with 0 to L - 1 padded steps."""
    pads = np.concatenate([[0], rng.integers(0, L, size=B - 1)])
    return np.arange(L)[None, :] >= pads[:, None]


def test_causal_mask_is_built_once_and_read_only():
    m = nn.causal_mask(6)
    assert m is nn.causal_mask(6)
    assert not m.flags.writeable
    assert np.array_equal(m, np.triu(np.full((6, 6), nn.NEG_INF), k=1))


@pytest.mark.parametrize("B", [1, 3])
def test_transformer_trunk_infer_matches_forward(B):
    rng = np.random.default_rng(1)
    trunk = randomized(nn.CausalTransformer(8, 2, 2, 9, rng, dropout=0.1), 2)
    for T in range(1, 10):
        x = rng.normal(size=(B, T, 8))
        for key_mask in (None, left_padded_mask(B, T, rng)):
            with no_grad():
                want = trunk(Tensor(x), key_mask).data
            assert np.array_equal(trunk.infer(x, key_mask), want)


@pytest.mark.parametrize("B", [1, 3])
def test_transformer_trunk_infer_rows_match_forward_rows(B):
    rng = np.random.default_rng(11)
    trunk = randomized(nn.CausalTransformer(8, 2, 2, 9, rng, dropout=0.1), 12)
    for T in range(2, 10):
        x = rng.normal(size=(B, T, 8))
        for key_mask in (None, left_padded_mask(B, T, rng)):
            with no_grad():
                want = trunk(Tensor(x), key_mask).data
            for start in range(T - 1):
                rows = slice(start, start + 2)
                got = trunk.infer(x, key_mask, rows)
                assert got.shape == (B, 2, 8)
                assert np.array_equal(got, want[:, rows]), (T, start)
            # the strided rows the models read: every per-th token from
            # per - 2 (policy, per 2 and 3), and the return heads' rows
            L = (T - 1) // 2
            for rows in (slice(0, None, 2), slice(1, None, 3), slice(1, 2 * L, 2),
                         slice(0, 2 * L, 2)):
                if not range(T)[rows]:
                    continue
                with no_grad():
                    taped = trunk(Tensor(x), key_mask, rows=rows).data
                assert np.array_equal(trunk.infer(x, key_mask, rows), want[:, rows]), (T, rows)
                assert np.array_equal(taped, want[:, rows]), (T, rows)


POLICY_CASES = {
    "unrest": dict(kind="unrest"),
    "unrest-no-span": dict(kind="unrest", use_return_span=False),
    "unrest-global": dict(kind="unrest", use_global_return=True, global_bins=7),
    "dt": dict(kind="dt"),
    "bc": dict(kind="bc"),
}


def policy_batch(cfg, B, L, rng):
    mask = left_padded_mask(B, L, rng)
    m = mask[..., None]
    # spans from the dummy 0 to well above the embedding table's h_max
    h = rng.integers(0, cfg.h_max + 6, size=(B, L))
    h.flat[0], h.flat[-1] = 0, cfg.h_max + 3
    return {
        "states": rng.normal(size=(B, L, 12)) * m,
        "actions": rng.normal(size=(B, L, 2)) * m,
        "h": h,
        "r_h": rng.normal(size=(B, L)),
        "R": rng.normal(size=(B, L)),
        "R_raw": rng.normal(0.0, 4.0, size=(B, L)),
        "R_bounds": (-5.0, 5.0),
        "mask": mask,
    }


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
def test_policy_infer_matches_forward(case):
    cfg = PolicyConfig(n_layers=2, n_heads=2, embed_dim=16, seq_length=4, dropout=0.1,
                       h_max=6, **POLICY_CASES[case])
    model = randomized(SequencePolicyModel(cfg, np.random.default_rng(0)), 3)
    rng = np.random.default_rng(4)
    for B in (1, 5):
        for L in range(1, cfg.seq_length + 1):
            batch = policy_batch(cfg, B, L, rng)
            with no_grad():
                want = model.forward(batch).data
            got = model.infer(batch)
            assert got.shape == (B, L, 2)
            assert np.array_equal(got, want), (case, B, L)


def test_policy_act_builds_no_tensor(monkeypatch):
    cfg = PolicyConfig(n_layers=1, n_heads=2, embed_dim=16, seq_length=5, h_max=6)
    model = randomized(SequencePolicyModel(cfg, np.random.default_rng(0)), 5)
    policy = Policy(model, cfg, PolicyNormalizer(
        nn.Standardizer(np.zeros(12), np.ones(12)), nn.Standardizer(0.5, 2.0),
        nn.Standardizer(1.0, 3.0), R_bounds=(-10.0, 10.0)))
    rng = np.random.default_rng(6)
    context = Context(5)
    for h in (3, 0, 9):
        context.push(rng.normal(size=12), h=h, r_h=1.5, R=4.0)
        if h != 9:
            context.record(rng.normal(size=2))
    batches, infer = [], model.infer
    monkeypatch.setattr(model, "infer", lambda batch: batches.append(batch) or infer(batch))
    built = []
    init = autodiff.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(autodiff.Tensor, "__init__", counting)
    got = policy.act(context)
    assert not built
    assert got.dtype == np.float64    # from a float32 model
    with no_grad():
        row = model.forward(batches[0]).data[0, -1]
    # ``act`` denormalizes the float32 row in float64, as this oracle does
    want = policy.normalizer.denorm_action(row.astype(np.float64))
    assert np.array_equal(got, want)


def test_return_member_infer_matches_forward():
    cfg = ReturnModelConfig(n_layers=2, n_heads=2, embed_dim=16, seq_length=5, dropout=0.1)
    member = randomized(ReturnMemberModel(cfg, np.random.default_rng(0)), 7)
    rng = np.random.default_rng(8)
    for B in (1, 4):
        for L in range(1, cfg.seq_length + 1):
            mask = left_padded_mask(B, L, rng)
            states = rng.normal(size=(B, L, 12)) * mask[..., None]
            actions = rng.normal(size=(B, L, 2)) * mask[..., None]
            with no_grad():
                want = [t.data for t in member.forward(states, actions, mask)]
            got = member.infer(states, actions, mask)
            assert len(got) == 4
            for g, w in zip(got, want):
                assert g.shape == (B, L)
                assert np.array_equal(g, w), (B, L)


def test_infer_in_train_mode_draws_no_dropout():
    """``infer`` on models left in ``train()`` mode returns the eval-mode bits,
    even when handed an rng, where the taped call with an rng applies dropout."""
    pcfg = PolicyConfig(n_layers=2, n_heads=2, embed_dim=16, seq_length=4, dropout=0.1, h_max=6)
    policy = randomized(SequencePolicyModel(pcfg, np.random.default_rng(0)), 3)
    batch = policy_batch(pcfg, 3, 4, np.random.default_rng(4))
    rcfg = ReturnModelConfig(n_layers=2, n_heads=2, embed_dim=16, seq_length=5, dropout=0.1)
    member = randomized(ReturnMemberModel(rcfg, np.random.default_rng(0)), 7)
    rng = np.random.default_rng(8)
    mask = left_padded_mask(3, 5, rng)
    windows = (rng.normal(size=(3, 5, 12)) * mask[..., None],
               rng.normal(size=(3, 5, 2)) * mask[..., None], mask)
    def arrays(out):
        return [t.data if isinstance(t, Tensor) else t
                for t in (out if isinstance(out, tuple) else (out,))]

    for model, args in ((policy, (batch,)), (member, windows)):
        with no_grad():
            want = arrays(model.eval().forward(*args))
            dropped = arrays(model.train().forward(*args, np.random.default_rng(9)))
        assert model.training
        for got in (arrays(model.infer(*args)),
                    arrays(model.infer(*args, np.random.default_rng(9)))):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert not all(np.array_equal(d, w) for d, w in zip(dropped, want))


def count_tensors(monkeypatch, fn) -> int:
    """How many ``Tensor``s ``fn()`` builds."""
    built = []
    init = autodiff.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(autodiff.Tensor, "__init__", counting)
        fn()
    return len(built)


# Tensors one taped loss builds.  Each Linear, LayerNorm, attention softmax
# and dropout is one fused tape node (``autodiff.linear``,
# ``affine_layernorm``, ``masked_softmax`` and ``dropout``): a Linear builds
# 1 Tensor, not 2, a LayerNorm 1, not 3, the scale, mask and softmax 1, not
# 5, and a dropout 1, not 2 (7 dropout sites in a 2-layer trunk)
POLICY_LOSS_TENSORS = {"unrest": 90, "unrest-global": 92, "dt": 81, "bc": 78}
RETURN_LOSS_TENSORS = 169


@pytest.mark.parametrize("case", sorted(POLICY_LOSS_TENSORS))
def test_policy_loss_tensor_count(case, monkeypatch):
    cfg = PolicyConfig(n_layers=2, n_heads=2, embed_dim=16, seq_length=4, dropout=0.1,
                       h_max=6, **POLICY_CASES[case])
    model = randomized(SequencePolicyModel(cfg, np.random.default_rng(0)), 3).train()
    batch = policy_batch(cfg, 3, 4, np.random.default_rng(4))

    def loss():
        pred = model.forward(batch, np.random.default_rng(1))
        nn.mse_loss(pred, batch["actions"], batch["mask"])

    assert count_tensors(monkeypatch, loss) == POLICY_LOSS_TENSORS[case]


def test_return_member_loss_tensor_count(monkeypatch):
    cfg = ReturnModelConfig(n_layers=2, n_heads=2, embed_dim=16, seq_length=5, dropout=0.1)
    member = randomized(ReturnMemberModel(cfg, np.random.default_rng(0)), 7).train()
    rng = np.random.default_rng(8)
    mask = left_padded_mask(3, 5, rng)
    states, actions = rng.normal(size=(3, 5, 12)), rng.normal(size=(3, 5, 2))
    returns = rng.normal(size=(3, 5))

    def loss():
        mu_s, lv_s, mu_a, lv_a = member.forward(states, actions, mask, np.random.default_rng(2))
        nn.gaussian_nll(mu_s, lv_s, returns, mask) + nn.gaussian_nll(mu_a, lv_a, returns, mask)

    assert count_tensors(monkeypatch, loss) == RETURN_LOSS_TENSORS


SMOKE_ARCH = dict(n_layers=1, n_heads=2, embed_dim=16, seq_length=5)
DEFAULT_ARCH = dict(n_layers=2, n_heads=4, embed_dim=64, seq_length=10)


@pytest.mark.parametrize("arch", [SMOKE_ARCH, DEFAULT_ARCH], ids=["smoke", "default"])
def test_return_member_infer_last_matches_infer_final_slot(arch):
    """``infer_last`` on the left-padded windows ``predict_trajectory`` builds,
    one per step, equals ``infer``'s final slot for every trajectory length."""
    cfg = ReturnModelConfig(dropout=0.1, **arch)
    ensemble = ReturnEnsemble(
        cfg, [randomized(ReturnMemberModel(cfg, np.random.default_rng(0)), 13)],
        nn.Standardizer(np.zeros(12), np.ones(12)), nn.Standardizer(0.0, 1.0), [0])
    member = ensemble.members[0]
    rng = np.random.default_rng(14)
    for T in range(1, cfg.seq_length + 3):
        states, actions = rng.normal(size=(T, 12)), rng.uniform(-1, 1, size=(T, 2))
        windows = ensemble._windows(states, actions)
        want = member.infer(*windows)
        got = member.infer_last(*windows)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert g.shape == (T,)
            assert np.array_equal(g, w[:, -1]), T
        forecast = ensemble.predict_trajectory(states, actions)
        assert {v.dtype for v in forecast.values()} == {np.dtype(np.float64)}
        assert np.array_equal(forecast["mu_s"][0], want[0][:, -1])
        assert np.array_equal(forecast["mu_a"][0], want[2][:, -1])


@pytest.mark.parametrize("n_hidden", [1, 2])
def test_target_mlp_infer_matches_forward(n_hidden):
    cfg = TargetPredictorConfig(hidden_dim=16, n_hidden=n_hidden)
    mlp = randomized(_TargetMlp(cfg, np.random.default_rng(0)), 9)
    rng = np.random.default_rng(10)
    for B in (1, 2, 7):
        x = rng.normal(size=(B, 13))
        with no_grad():
            want = [t.data for t in mlp.forward(x)]
        got = mlp.infer(x)
        for g, w in zip(got, want):
            assert g.shape == (B,)
            assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# Training on the row-restricted trunk against training on every row
# ---------------------------------------------------------------------------


def every_row_trunk(monkeypatch):
    """The reference: each trunk call runs every row and selects afterwards."""
    call, infer = nn.CausalTransformer.__call__, nn.CausalTransformer.infer

    def full_call(self, tokens, key_mask=None, rng=None, rows=slice(None)):
        return call(self, tokens, key_mask, rng=rng)[:, rows]

    def full_infer(self, tokens, key_mask=None, rows=slice(None)):
        return infer(self, tokens, key_mask)[:, rows]

    monkeypatch.setattr(nn.CausalTransformer, "__call__", full_call)
    monkeypatch.setattr(nn.CausalTransformer, "infer", full_infer)


def synthetic_segments(seed):
    """Segmented episodes, some shorter than a window (left padding), with
    dummy (h = 0) and certain steps."""
    rng = np.random.default_rng(seed)
    segs = []
    for T in (4, 9, 17, 30, 23, 12, 7, 26):
        traj = trajlog.Trajectory(
            states=rng.normal(size=(T, 12)), actions=rng.uniform(-1, 1, size=(T, 2)) * [5.0, 0.2],
            rewards=rng.normal(size=T), reward_terms=[{}] * T, infractions=[None] * T)
        traj = trajlog.annotate_dataset([traj])[0]
        h = rng.integers(0, 12, size=T)
        h[rng.random(T) < 0.3] = 0
        segs.append(SegmentedTrajectory(
            traj=traj, u=np.zeros(T), epsilon=1.0, parts=[Part("certain", 0, T)],
            h=h, r_h=np.where(h > 0, rng.normal(size=T), 0.0)))
    return segs


def assert_same_state(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


# the default architecture: the 16-d smoke one does not show every BLAS effect
TRAIN_ARCH = dict(n_layers=2, n_heads=4, embed_dim=64, batch_size=64, dropout=0.1,
                  epochs=3, iters_per_epoch=1)


@pytest.mark.parametrize("seq_length", [10, 1])
@pytest.mark.parametrize("kind", ["unrest", "dt", "bc"])
def test_train_policy_on_read_rows_matches_every_row(kind, seq_length, monkeypatch):
    segs = synthetic_segments(21)
    cfg = PolicyConfig(kind=kind, seq_length=seq_length, seed=4, **TRAIN_ARCH)
    policy, curve = train_policy(segs, cfg)
    every_row_trunk(monkeypatch)
    ref_policy, ref_curve = train_policy(segs, cfg)
    assert len(curve) == 3 and curve == ref_curve
    assert_same_state(policy.model.state_dict(), ref_policy.model.state_dict())


@pytest.mark.parametrize("seq_length", [10, 1])
def test_train_return_models_on_read_rows_matches_every_row(seq_length, monkeypatch):
    trajs = [s.traj for s in synthetic_segments(22)]
    cfg = ReturnModelConfig(seq_length=seq_length, ensemble_size=2, val_fraction=0.25,
                            seed=6, **TRAIN_ARCH)
    ensemble, history = train_return_models(trajs, cfg)
    every_row_trunk(monkeypatch)
    ref_ensemble, ref_history = train_return_models(trajs, cfg)
    assert [len(c) for c in history] == [4, 4] and history == ref_history
    for member, ref in zip(ensemble.members, ref_ensemble.members):
        assert_same_state(member.state_dict(), ref.state_dict())
