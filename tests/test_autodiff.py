import functools
import multiprocessing
import os
import resource
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from segdt.autodiff import (Tensor, ShapeError, affine_layernorm, concat, linear,
                            masked_softmax, no_grad)
from segdt import archive, autodiff, nn, planner, return_model
from segdt.policy import PolicyConfig, SequencePolicyModel

from gradcheck import finite_diff_check


RNG = np.random.default_rng(7)


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal((a @ eye).data, a.data)


def test_softmax_uniform_logits():
    x = Tensor(np.zeros(4))
    assert np.allclose(x.softmax().data, 0.25)


def test_zero_linear_layer_outputs_zero():
    lin = nn.Linear(5, 3, np.random.default_rng(0), zero_init=True)
    out = lin(Tensor(RNG.normal(size=(4, 5))))
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    assert x.grad == pytest.approx(6.0)


def test_detached_parameter_keeps_zero_grad():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(5.0, requires_grad=True)
    (y * y).backward()
    assert x.grad == 0.0


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_backward_without_graph_fails():
    with pytest.raises(ValueError):
        Tensor(1.0).backward()


def test_matmul_shape_error_names_op():
    with pytest.raises(ShapeError, match="matmul"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


@pytest.mark.parametrize("shape_a,shape_b", [((3, 4), (4, 2)), ((2, 3, 4), (4, 5)), ((2, 2, 3), (2, 3, 2))])
def test_matmul_gradcheck(shape_a, shape_b):
    finite_diff_check(lambda a, b: (a @ b).sum(), [RNG.normal(size=shape_a), RNG.normal(size=shape_b)])


def test_elementwise_gradcheck():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 4)) + 3.0
    finite_diff_check(lambda x, y: ((x * y + x - y) / y).sum(), [a, b])


def test_broadcast_add_gradcheck():
    finite_diff_check(lambda x, b: (x + b).sum(), [RNG.normal(size=(3, 4)), RNG.normal(size=4)])


def test_unary_gradcheck():
    x = RNG.normal(size=(2, 5)) * 0.8
    finite_diff_check(lambda t: (t.tanh() + t.exp() + t.gelu() + t.relu()).sum(), [x])
    finite_diff_check(lambda t: (t * t + 1.2).log().sum(), [x])


def test_softmax_layernorm_gradcheck():
    x = RNG.normal(size=(3, 6))
    w = RNG.normal(size=6)
    finite_diff_check(lambda t, u: (t.softmax() * u).sum(), [x, w])
    finite_diff_check(lambda t, u: (t.layernorm() * u).sum(), [x, w])


def test_reshape_transpose_getitem_concat_gradcheck():
    x = RNG.normal(size=(2, 3, 4))
    finite_diff_check(lambda t: t.reshape(6, 4).transpose((1, 0))[1:3].sum(), [x])
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(2, 2))
    finite_diff_check(lambda u, v: (concat([u, v], axis=1) ** 2).sum(), [a, b])


def test_basic_getitem_gradcheck():
    x = RNG.normal(size=(3, 4, 5))
    finite_diff_check(lambda t: (t[1:, None, ..., ::2] ** 2).sum()
                      + (t[0, 2] * t[-1, :, 3:4]).sum(), [x])


def test_repeated_integer_array_getitem_gradcheck():
    x = RNG.normal(size=(4, 3))
    rows = np.array([2, 0, 2, 2, 3])
    finite_diff_check(lambda t: (t[rows] ** 2).sum() + t[:, np.array([1, 1])].sum(), [x])
    t = Tensor(x, requires_grad=True)
    t[rows].sum().backward()
    assert np.array_equal(t.grad[:, 0], [1.0, 0.0, 3.0, 1.0])


def test_node_without_gradient_gradcheck():
    # b feeds only a branch the loss never reads: its grad stays zero, and
    # the branch's node is never written
    unused = []

    def fn(a, b):
        unused.append(b.exp() * a)
        return (a * a).sum()

    a, b = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))
    finite_diff_check(fn, [a, b])
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    fn(ta, tb).backward()
    assert unused[-1].grad is None
    assert np.array_equal(tb.grad, np.zeros((2, 3)))


def _tape_nodes(root):
    """The interior nodes of ``root``'s tape."""
    nodes, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if id(node) not in nodes and node._parents:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def test_shared_gradient_is_not_aliased():
    # s = y + z hands one incoming grad to y and to z; w writes into y after
    # s's backward has run, so an aliased buffer would corrupt z's gradient.
    # Every node owns its grad buffer, also where its child passed a view.
    def fn(a):
        y, z = a * 1.5, a * 2.0
        w = y * 3.0
        s = y + z
        t = concat([s.reshape(3, 1).transpose((1, 0)), z.reshape(1, 3)], axis=0)
        return (z * z).sum() + (w * w).sum() + (s * s).sum() + (t * t).sum()

    finite_diff_check(fn, [RNG.normal(size=3)])
    loss = fn(Tensor(RNG.normal(size=3), requires_grad=True))
    nodes = _tape_nodes(loss)
    assert len(nodes) == 19
    # backward frees each interior grad once its closure has run, so capture
    # the buffer each closure receives (and keep it alive) to compare them
    received = []
    for node in nodes:
        def capture(g, closure=node._backward):
            received.append(g)
            closure(g)
        node._backward = capture
    loss.backward()
    assert len(received) == 19
    for i, u in enumerate(received):
        for v in received[i + 1:]:
            assert not np.shares_memory(u, v)


def _leaf_bits(fn, inputs):
    """(output bits, every leaf's grad) of ``fn`` over fresh leaves."""
    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    out = fn(*leaves)
    (out * Tensor(np.cos(np.arange(out.data.size)).reshape(out.shape))).sum().backward()
    return out.data, [t.grad for t in leaves]


def assert_same_bits(fused, composed, inputs):
    out, grads = _leaf_bits(fused, inputs)
    want_out, want_grads = _leaf_bits(composed, inputs)
    assert np.array_equal(out, want_out)
    for g, w in zip(grads, want_grads):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("rows", [None, (7, slice(1, None, 3)), (7, slice(2, 6))],
                         ids=["every-row", "strided", "contiguous"])
def test_linear_matches_composed_ops(rows):
    R = 7 if rows is None else len(range(7)[rows[1]])
    x, w, b = RNG.normal(size=(3, R, 8)), RNG.normal(size=(8, 5)), RNG.normal(size=5)
    assert_same_bits(lambda t, u, v: linear(t, u, v, rows),
                     lambda t, u, v: t.matmul(u, rows) + v, [x, w, b])
    assert_same_bits(lambda t, u: linear(t, u, rows=rows),
                     lambda t, u: t.matmul(u, rows), [x, w])


def test_affine_layernorm_matches_composed_ops():
    assert_same_bits(affine_layernorm, lambda t, u, v: t.layernorm() * u + v,
                     [RNG.normal(size=(3, 4, 6)), RNG.normal(size=6), RNG.normal(size=6)])


@pytest.mark.parametrize("key_masked", [False, True], ids=["causal", "key-masked"])
def test_masked_softmax_matches_composed_ops(key_masked):
    key_mask = np.array([[True] * 5, [False, False, True, True, True]]) if key_masked else None
    mask = nn._attention_mask(5, key_mask, slice(1, None, 2))
    scale = 1.0 / np.sqrt(4)
    assert_same_bits(lambda t: masked_softmax(t, scale, mask),
                     lambda t: (t * scale + mask).softmax(axis=-1),
                     [RNG.normal(size=(2, 3, 2, 5))])


def test_fused_ops_gradcheck():
    x = RNG.normal(size=(2, 5, 4))
    finite_diff_check(lambda t, u, v: (linear(t, u, v, (7, slice(1, 6))) ** 2).sum(),
                      [x, RNG.normal(size=(4, 3)), RNG.normal(size=3)])
    finite_diff_check(lambda t, u, v: (affine_layernorm(t, u, v) ** 2).sum(),
                      [x, RNG.normal(size=4), RNG.normal(size=4)])
    # no query row whose keys are all masked: central differences lose
    # precision at NEG_INF
    mask = nn._attention_mask(5, np.array([[True] * 5, [False] + [True] * 4]), slice(1, None))
    w = Tensor(RNG.normal(size=(2, 2, 4, 5)))
    finite_diff_check(lambda t: (masked_softmax(t, 0.5, mask) * w).sum(),
                      [RNG.normal(size=(2, 2, 4, 5))])


# -- kernel oracles -----------------------------------------------------------
# The shared kernels work in place in buffers they allocate.  These are the
# composed formulas they replaced, one numpy expression per step; each kernel
# must give their bits, forward and backward.


def oracle_gelu(x):
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    return x * cdf, cdf


def oracle_gelu_grad(g, x, cdf):
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return g * (cdf + x * pdf)


def oracle_layernorm(x, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def oracle_layernorm_grad(g, out, inv):
    gm = g.mean(axis=-1, keepdims=True)
    gy = (g * out).mean(axis=-1, keepdims=True)
    return inv * (g - gm - out * gy)


def oracle_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def oracle_softmax_grad(g, out):
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def hard_inputs(shape, rng):
    """Normal draws with signed zeros, |x| > 6 and one all-zero last-axis row."""
    x = rng.normal(scale=3.0, size=shape)
    flat = x.reshape(-1)
    flat[:8] = [0.0, -0.0, 6.5, -7.25, 12.0, -40.0, 6.0000001, -0.0]
    x[(0,) * (x.ndim - 1)] = -0.0
    return x


def upstream(shape):
    """An output gradient with zeros of both signs."""
    g = np.cos(np.arange(int(np.prod(shape)), dtype=np.float64)).reshape(shape)
    g.reshape(-1)[1:3] = [0.0, -0.0]
    return g


def tape_bits(fn, inputs):
    """(output, each leaf's gradient) of ``fn`` over fresh leaves, with
    ``upstream`` as the output's gradient.  The leaves start with no grad
    buffer, so each keeps the array its op computed (adding it into zeros
    would turn a -0.0 into 0.0)."""
    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    for t in leaves:
        t.grad = None
    out = fn(*leaves)
    (out * Tensor(upstream(out.shape))).sum().backward()
    return out.data, [t.grad for t in leaves]


def assert_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def lead_sum(a):
    """Sum over every axis but the last, as ``_unbroadcast`` does."""
    return a.sum(axis=tuple(range(a.ndim - 1)))


def test_gelu_kernel_matches_oracle():
    x = hard_inputs((3, 5, 8), RNG)
    out, (gx,) = tape_bits(Tensor.gelu, [x])
    want, cdf = oracle_gelu(x)
    assert_bits(out, want)
    assert_bits(gx, oracle_gelu_grad(upstream(x.shape), x, cdf))
    assert_bits(nn.ARRAY.gelu(x), want)
    assert_bits(autodiff._normal_cdf(x), cdf)
    with no_grad():     # calls the tape does not record
        assert_bits(Tensor(x, requires_grad=True).gelu().data, want)
    assert_bits(Tensor(x).gelu().data, want)


def test_layernorm_kernels_match_oracle():
    # 7 wide: a mean's divide by 7 and a multiply by 1/7 differ in bits
    x, gain, shift = hard_inputs((3, 5, 7), RNG), RNG.normal(size=7), RNG.normal(size=7)
    g = upstream(x.shape)
    normed, inv = oracle_layernorm(x)

    out, (gx,) = tape_bits(Tensor.layernorm, [x])
    assert_bits(out, normed)
    assert_bits(gx, oracle_layernorm_grad(g, normed, inv))

    out, (gx, ggain, gshift) = tape_bits(affine_layernorm, [x, gain, shift])
    assert_bits(out, normed * gain + shift)
    assert_bits(gx, oracle_layernorm_grad(g * gain, normed, inv))
    assert_bits(ggain, lead_sum(g * normed))
    assert_bits(gshift, lead_sum(g))
    assert_bits(nn.ARRAY.layernorm(x, gain, shift), normed * gain + shift)


@pytest.mark.parametrize("key_masked", [False, True], ids=["causal", "padded-keys"])
def test_softmax_kernels_match_oracle(key_masked):
    # left-padded keys: the padded query rows see no real key at all
    key_mask = np.array([[False, False, False, True, True, True],
                         [True] * 6]) if key_masked else None
    mask = nn._attention_mask(6, key_mask, slice(1, None, 2))
    x, scale = hard_inputs((2, 3, 3, 6), RNG), 1.0 / np.sqrt(4)
    g = upstream(x.shape)

    out, (gx,) = tape_bits(Tensor.softmax, [x])
    want = oracle_softmax(x)
    assert_bits(out, want)
    assert_bits(gx, oracle_softmax_grad(g, want))

    out, (gx,) = tape_bits(lambda t: masked_softmax(t, scale, mask), [x])
    want = oracle_softmax(x * scale + mask)
    assert_bits(out, want)
    assert_bits(gx, oracle_softmax_grad(g, want) * scale)
    assert_bits(nn.ARRAY.softmax(x, scale, mask), want)


def test_no_grad_gelu_makes_no_cdf():
    """An unrecorded GELU keeps nothing that only backward reads: it
    allocates its output and no cdf beside it, and has ``infer``'s bits."""
    x = RNG.normal(size=(64, 10, 256))
    for make in (lambda: Tensor(x, requires_grad=True), lambda: Tensor(x)):
        t = make()
        tracemalloc.start()
        try:
            with no_grad():
                out = t.gelu()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out._node is None and out._rebuild is None
        assert_bits(out.data, nn.ARRAY.gelu(x))
        assert x.nbytes <= peak < 1.1 * x.nbytes


REBUILT_OPS = {
    "gelu": lambda t, rng: t.gelu(),
    "affine-layernorm": lambda t, rng: affine_layernorm(
        t, Tensor(rng.normal(size=t.shape[-1])), Tensor(rng.normal(size=t.shape[-1]))),
    # over a softmax's output, which its closure keeps, as attention is
    "dropout": lambda t, rng: autodiff.dropout(t.softmax(), 0.3, rng),
    "dropout-rows": lambda t, rng: autodiff.dropout(t[:, 1::3].softmax(), 0.3, rng,
                                                    (10, slice(1, None, 3))),
}


@pytest.mark.parametrize("op", list(REBUILT_OPS))
def test_rebuild_remakes_the_output_bits(op):
    """Oracle: a recorded GELU's, affine LayerNorm's or dropout's output
    carries a rebuild, the forward's own elementwise op over arrays its
    closure keeps, and the rebuild remakes the output byte for byte (so a
    -0.0 stays -0.0), also once the output itself is gone."""
    x = hard_with_nonfinite((128, 10, 128), RNG)
    with np.errstate(invalid="ignore"):    # inf * 0, inf - inf
        out = REBUILT_OPS[op](Tensor(x, requires_grad=True), np.random.default_rng(5))
        rebuild, want = out._rebuild, out.data.tobytes()
        assert isinstance(rebuild, functools.partial)
        assert not any(np.shares_memory(a, out.data) for a in rebuild.args
                       if isinstance(a, np.ndarray))
        del out
        assert rebuild().tobytes() == want


def test_a_rebuild_captures_only_arrays_a_closure_keeps():
    """A dropout over a softmax's output, which the softmax's closure keeps,
    carries a rebuild; an affine LayerNorm whose normalized array no
    gradient reads carries none, which would keep that array alive, and its
    output still has the bits of a recorded op."""
    x, rng = RNG.normal(size=(4, 5, 6)), np.random.default_rng(5)
    t = Tensor(x, requires_grad=True)
    assert autodiff.dropout(t.softmax(), 0.3, rng)._rebuild is not None
    gain, shift = Tensor(RNG.normal(size=6)), Tensor(RNG.normal(size=6), requires_grad=True)
    out = affine_layernorm(Tensor(x), gain, shift)
    assert out._node is not None and out._rebuild is None
    assert_bits(out.data, nn.ARRAY.layernorm(x, gain.data, shift.data))


def wgrad_step(D, O):
    """Batch items per run of ``autodiff._weight_grad`` at a (D, O) weight."""
    return max(1, autodiff._WGRAD_CHUNK_BYTES // (8 * D * O))


D_IN, D_OUT = 64, 256     # fc1's weight at the default architecture
STEP = wgrad_step(D_IN, D_OUT)


@pytest.mark.parametrize("B", [1, STEP - 1, 2 * STEP + 1],
                         ids=["batch-1", "under-a-run", "ragged-runs"])
@pytest.mark.parametrize("rows", [None, (7, slice(1, None, 3))], ids=["every-row", "rows"])
def test_linear_kernel_matches_oracle(B, rows):
    assert STEP > 2           # the cases cover one short run and ragged runs
    R = 7 if rows is None else len(range(7)[rows[1]])
    x, w, b = hard_inputs((B, R, D_IN), RNG), RNG.normal(size=(D_IN, D_OUT)), RNG.normal(size=D_OUT)
    g = upstream((B, R, D_OUT))
    full = g
    if rows is not None:
        full = np.zeros((B, 7, D_OUT))
        full[:, rows[1]] = g
    # the input gradient is one 2-D product over the batch's rows flattened
    want_gx = (full.reshape(-1, D_OUT) @ w.T).reshape(full.shape[:-1] + (D_IN,))
    want_gx = want_gx if rows is None else want_gx[:, rows[1]]
    want_gw = (np.swapaxes(x, -1, -2) @ g).sum(axis=0)     # the whole (B, D, O) stack

    out, (gx, gw, gb) = tape_bits(lambda t, u, v: linear(t, u, v, rows), [x, w, b])
    assert_bits(out, x @ w + b)
    assert_bits(gx, want_gx)
    assert_bits(gw, want_gw)
    assert_bits(gb, lead_sum(g))
    out, (gx, gw) = tape_bits(lambda t, u: linear(t, u, rows=rows), [x, w])
    assert_bits(out, x @ w)
    assert_bits(gw, want_gw)
    assert_bits(nn.ARRAY.linear(x, w, b, rows), x @ w + b)
    assert_bits(nn.ARRAY.linear(x, w), x @ w)


def test_tape_kernels_leave_their_inputs_alone():
    """The in-place kernels write only buffers they allocated: neither the
    operands' ``.data`` nor a received gradient changes."""
    x, gain, shift = hard_inputs((3, 5, 5), RNG), RNG.normal(size=5), RNG.normal(size=5)
    w, mask = RNG.normal(size=(5, 5)), nn._attention_mask(5, None)
    ops = [Tensor.gelu, Tensor.layernorm, Tensor.softmax,
           lambda t: affine_layernorm(t, Tensor(gain), Tensor(shift)),
           lambda t: masked_softmax(t, 0.5, mask), lambda t: linear(t, Tensor(w))]
    for op in ops:
        t = Tensor(x.copy(), requires_grad=True)
        out = op(t)
        g = upstream(out.shape)
        out._node._backward(g)
        assert_bits(t.data, x)
        assert_bits(g, upstream(out.shape))
        assert not np.shares_memory(t.grad, g)


def test_second_backward_adds_one_more_gradient():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss = ((x * x) * 2.0).sum()
    loss.backward()
    assert np.array_equal(x.grad, 4.0 * x.data)
    loss.backward()
    assert np.array_equal(x.grad, 8.0 * x.data)


def test_second_backward_through_a_dropped_closure_raises():
    """A closure that kept an array of 128 KiB or more is dropped once it
    has run, so a second backward() would miss its gradient: it raises."""
    x = Tensor(np.ones(autodiff._SPEND_BYTES // 8), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    assert np.array_equal(x.grad, 2.0 * x.data)
    with pytest.raises(ValueError, match="an earlier backward"):
        loss.backward()
    assert np.array_equal(x.grad, 2.0 * x.data)


def _rebuilds(root):
    """Every rebuild the closures of ``root``'s tape keep, once each."""
    found = {}
    for node in _tape_nodes(root):
        for cell in node._backward.__closure__ or ():
            if isinstance(cell.cell_contents, functools.partial):
                found[id(cell.cell_contents)] = cell.cell_contents
    return list(found.values())


def _rebuilt_bytes(root) -> int:
    """The bytes of the arrays that the rebuilds of ``root``'s tape remake:
    what the tape would hold if it kept those arrays instead."""
    return sum(rebuild().nbytes for rebuild in _rebuilds(root))


def policy_step(dim=64, B=64):
    """An ``unrest`` policy (2 layers, 4 heads, seq 10; the default arch at
    ``dim`` 64) and a loss function over one fixed batch of ``B`` windows."""
    cfg = PolicyConfig(n_layers=2, n_heads=4, embed_dim=dim, seq_length=10, dropout=0.1,
                       h_max=6)
    model = SequencePolicyModel(cfg, np.random.default_rng(0)).train()
    rng = np.random.default_rng(1)
    L = cfg.seq_length
    batch = {"states": rng.normal(size=(B, L, 12)), "actions": rng.uniform(-1, 1, size=(B, L, 2)),
             "h": rng.integers(0, cfg.h_max + 1, size=(B, L)), "r_h": rng.normal(size=(B, L)),
             "R": rng.normal(size=(B, L)), "R_raw": rng.normal(size=(B, L)),
             "R_bounds": (-5.0, 5.0), "mask": np.ones((B, L), dtype=bool)}
    return model, lambda: nn.mse_loss(model.forward(batch, rng), batch["actions"],
                                      batch["mask"])


def member_step():
    """A default-arch return member (twin trunks, each reading its own
    ``rows`` slice) and a loss function over one fixed batch of 64 windows."""
    cfg = return_model.ReturnModelConfig()
    model = return_model.ReturnMemberModel(cfg, np.random.default_rng(0)).train()
    rng = np.random.default_rng(1)
    B, L = cfg.batch_size, cfg.seq_length
    states, actions = rng.normal(size=(B, L, 12)), rng.uniform(-1, 1, size=(B, L, 2))
    returns, mask = rng.normal(size=(B, L)), np.ones((B, L), dtype=bool)
    mask[:5, :3] = False

    def loss_fn():
        mu_s, lv_s, mu_a, lv_a = model.forward(states, actions, mask, rng)
        return (nn.gaussian_nll(mu_s, lv_s, returns, mask)
                + nn.gaussian_nll(mu_a, lv_a, returns, mask))

    return model, loss_fn


def predictor_step():
    """A default-config target predictor member and its loss function."""
    cfg = planner.TargetPredictorConfig()
    model = planner._TargetMlp(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    xs, ys = rng.normal(size=(cfg.batch_size, 13)), rng.normal(size=cfg.batch_size)
    return model, lambda: nn.gaussian_nll(*model.forward(xs), ys)


def backward_over_tape(dim: int, batch: int) -> float:
    """One taped step of an ``unrest`` policy (2 layers, 4 heads, seq 10):
    backward's peak above the forward tape, as a fraction of the forward
    tape plus the arrays its rebuilds remake (the tape that kept those
    arrays).  Also checks that only the leaves kept a gradient."""
    model, loss_fn = policy_step(dim, batch)
    tracemalloc.start()
    try:
        loss = loss_fn()
        held = tracemalloc.get_traced_memory()[0]
        rebuilt = _rebuilt_bytes(loss)
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(node.grad is None for node in _tape_nodes(loss))
    for name, p in model.named_parameters():
        assert p.grad.shape == p.shape and np.any(p.grad), name
    return (peak - held) / (held + rebuilt)


def test_backward_keeps_only_leaf_grads():
    """Backward frees each interior grad once consumed, so a 32-d step at
    batch 16 peaks within a quarter of its tape (about 110% over it when
    every interior grad was kept)."""
    assert backward_over_tape(32, 16) <= 0.25


def test_backward_peak_at_the_default_arch():
    """At 64-d and batch 64, with no (B, D, O) weight-gradient stack and
    GELU's backward in one buffer, backward peaks within 20% of the tape
    (23.5% with both)."""
    assert backward_over_tape(64, 64) <= 0.20


def _root_id(arr: np.ndarray) -> int:
    return id(arr if arr.base is None else arr.base)


def steady_peak(model, loss_fn) -> float:
    """Three training steps: the traced peak of steps 2 and 3 as a multiple
    of one forward tape plus the arrays its rebuilds remake (the tape that
    kept those arrays)."""
    opt = nn.AdamW(model.parameters())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = loss_fn()
        tape = tracemalloc.get_traced_memory()[0] - base + _rebuilt_bytes(loss)
        del loss
        nn.train_step(opt, loss_fn, "probe", "step 1")
        tracemalloc.reset_peak()
        for step in (2, 3):
            nn.train_step(opt, loss_fn, "probe", f"step {step}")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / tape


def test_training_steps_recycle_one_tape():
    """Three default-arch policy steps: each step's graph is freed when the
    step returns, so steps 2 and 3 peak within 1.3 times one tape (about
    2.2 times when each step's graph lived until the next forward
    returned)."""
    ratio = steady_peak(*policy_step())
    assert ratio <= 1.3, ratio


def test_member_training_steps_recycle_one_tape():
    """The same for a default-arch twin-trunk return member at batch 64."""
    ratio = steady_peak(*member_step())
    assert ratio <= 1.3, ratio


def test_steady_training_steps_fault_no_pages_in():
    """malloc keeps what a step frees for the next one (``autodiff`` raises
    its mmap and trim thresholds at import): after a first default-arch
    policy step, steps 2 and 3 each take fewer than 300 minor page faults,
    where glibc's default thresholds cost 7.7k-10.2k a step."""
    model, loss_fn = policy_step()
    opt = nn.AdamW(model.parameters())
    nn.train_step(opt, loss_fn, "probe", "step 1")
    faults = []
    for step in (2, 3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        nn.train_step(opt, loss_fn, "probe", f"step {step}")
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) < 300, faults


@pytest.mark.parametrize("make", [policy_step, member_step, predictor_step],
                         ids=["policy", "member", "predictor"])
def test_tape_keeps_only_what_backward_reads(make, monkeypatch):
    """After a taped forward no node holds an array, and every array a
    closure keeps is one its backward reads: with that array taken out, the
    closure fails.  No closure keeps the output of a GELU, an affine
    LayerNorm or a dropout, not even as a rebuild's argument; a closure that
    reads one keeps its rebuild instead, and with any array the rebuild
    captures taken out, the closure fails."""
    outputs = []    # the three ops' outputs, held so that no id is reused
    for name in ("gelu", "layernorm", "dropout"):
        def spy(*args, op=getattr(nn.TapeOps, name), **kwargs):
            out = op(*args, **kwargs)
            outputs.append(out.data)
            return out
        monkeypatch.setattr(nn.TapeOps, name, staticmethod(spy))
    model, loss_fn = make()
    loss = loss_fn()
    monkeypatch.undo()
    made = {_root_id(a) for a in outputs}
    nodes = _tape_nodes(loss)
    assert all(not isinstance(getattr(node, slot), np.ndarray)
               for node in nodes for slot in autodiff.Node.__slots__)
    checked = rebuilt = 0
    for node in nodes:
        for cell in node._backward.__closure__ or ():
            kept = cell.cell_contents
            if isinstance(kept, functools.partial):
                for i, arg in enumerate(kept.args):
                    if not isinstance(arg, np.ndarray):
                        continue
                    assert _root_id(arg) not in made
                    args = list(kept.args)
                    args[i] = object()
                    cell.cell_contents = functools.partial(kept.func, *args)
                    with pytest.raises(Exception):
                        node._backward(np.ones(node.shape))
                    rebuilt += 1
                cell.cell_contents = kept
            elif isinstance(kept, np.ndarray):
                assert _root_id(kept) not in made
                cell.cell_contents = object()     # no array, index or scalar
                with pytest.raises(Exception):
                    node._backward(np.ones(node.shape))
                cell.cell_contents = kept
                checked += 1
    assert checked > 10 and len(made) > 1
    assert rebuilt == sum(isinstance(a, np.ndarray) for r in _rebuilds(loss) for a in r.args) > 1


@pytest.mark.parametrize("make", [policy_step, member_step], ids=["policy", "member"])
def test_a_training_step_records_only_float32_arrays(make, monkeypatch):
    """No float64 array enters a default-arch training tape: every array a
    ``Tensor`` holds, every gradient a backward adds into a node, every
    floating array a closure keeps and every parameter gradient is float32."""
    made, added = set(), set()
    init, accum = autodiff.Tensor.__init__, autodiff.Node._accum

    def spy_init(self, data, requires_grad=False):
        init(self, data, requires_grad)
        made.add(self.data.dtype)

    def spy_accum(self, g, owned):
        added.add(np.asarray(g).dtype)
        accum(self, g, owned)

    monkeypatch.setattr(autodiff.Tensor, "__init__", spy_init)
    monkeypatch.setattr(autodiff.Node, "_accum", spy_accum)
    model, loss_fn = make()
    loss = loss_fn()
    kept = {a.dtype for node in _tape_nodes(loss) for cell in node._backward.__closure__ or ()
            for a in (cell.cell_contents.args if isinstance(cell.cell_contents, functools.partial)
                      else (cell.cell_contents,))
            if isinstance(a, np.ndarray) and a.dtype.kind == "f"}
    loss.backward()
    assert made == added == kept == {np.dtype(np.float32)}
    assert {p.grad.dtype for p in model.parameters()} == {np.dtype(np.float32)}


def hard_with_nonfinite(shape, rng):
    x = hard_inputs(shape, rng)
    x.reshape(-1)[8:11] = [np.inf, -np.inf, np.nan]
    return x


@pytest.mark.parametrize("rows", [None, (7, slice(1, None, 3)), (7, slice(2, 5))],
                         ids=["every-row", "strided", "contiguous"])
def test_dropout_matches_composed_ops(rows):
    """One node with a bool mask gives the bits of ``x`` times the float
    mask ``(draw >= p) / (1 - p)``, forward and backward, on the same draws."""
    R = 7 if rows is None else len(range(7)[rows[1]])
    x = hard_with_nonfinite((3, R, 6), RNG)
    g = hard_with_nonfinite(x.shape, RNG)[::-1].copy()

    def composed(t):
        draw = np.random.default_rng(5).random((3, 7, 6))
        draw = draw if rows is None else draw[..., rows[1], :]
        return t * Tensor((draw >= 0.3) / (1.0 - 0.3))

    results = []
    for fn in (lambda t: autodiff.dropout(t, 0.3, np.random.default_rng(5), rows), composed):
        t = Tensor(x.copy(), requires_grad=True)
        t.grad = None
        with np.errstate(invalid="ignore"):    # inf * 0
            out = fn(t)
            out._node._backward(g)
        results.append((out, t.grad))
    (out, gx), (want, want_gx) = results
    assert_bits(out.data, want.data)
    assert_bits(gx, want_gx)
    assert _tape_nodes(out) == [out._node]
    masks = [c.cell_contents for c in out._node._backward.__closure__
             if isinstance(c.cell_contents, np.ndarray)]
    assert [m.dtype for m in masks] == [np.dtype(bool)]


def test_dropout_gradcheck():
    w = Tensor(RNG.normal(size=(2, 5, 4)))
    finite_diff_check(lambda t: (autodiff.dropout(t, 0.4, np.random.default_rng(3)) * w).sum(),
                      [RNG.normal(size=(2, 5, 4))])
    finite_diff_check(
        lambda t: (autodiff.dropout(t, 0.4, np.random.default_rng(3), (7, slice(2, 7))) * w).sum(),
        [RNG.normal(size=(2, 5, 4))])


def test_mean_sum_axis_gradcheck():
    x = RNG.normal(size=(3, 4, 2))
    finite_diff_check(lambda t: (t.mean(axis=1) * t.sum(axis=(0, 2)).mean()).sum(), [x])


def test_gaussian_nll_values():
    y = Tensor(np.array([1.0]))
    assert nn.gaussian_nll(Tensor(np.array([1.0])), Tensor(np.array([0.0])), y).item() == pytest.approx(0.0)
    assert nn.gaussian_nll(Tensor(np.array([0.0])), Tensor(np.array([0.0])), y).item() == pytest.approx(1.0)
    # mu=0, y=2, sigma^2=2 -> 4/2 + ln 2
    got = nn.gaussian_nll(Tensor(np.array([0.0])), Tensor(np.array([np.log(2.0)])), Tensor(np.array([2.0])))
    assert got.item() == pytest.approx(2.0 + np.log(2.0), abs=1e-12)


def test_gaussian_nll_gradcheck():
    mu = RNG.normal(size=(4,))
    lv = RNG.normal(size=(4,)) * 0.5
    y = RNG.normal(size=(4,))
    finite_diff_check(lambda m, l: nn.gaussian_nll(m, l, Tensor(y)), [mu, lv])


def test_gaussian_nll_minimized_at_squared_error_variance():
    # grid scan over sigma^2 for fixed mu, y
    mu, y = 1.0, 3.0
    best = min(
        (float((mu - y) ** 2 / v + np.log(v)), v) for v in np.linspace(0.5, 12.0, 2000)
    )[1]
    assert best == pytest.approx((mu - y) ** 2, rel=2e-3)


def test_causal_attention_single_token():
    attn = nn.CausalSelfAttention(8, 2, np.random.default_rng(1))
    x = Tensor(RNG.normal(size=(1, 1, 8)))
    out = attn(x)
    assert out.shape == (1, 1, 8)


def test_causal_attention_indivisible_heads():
    with pytest.raises(ShapeError):
        nn.CausalSelfAttention(10, 3, np.random.default_rng(1))


def test_causal_mask_blocks_future():
    rng = np.random.default_rng(2)
    trunk = nn.CausalTransformer(dim=8, heads=2, layers=2, max_tokens=6, rng=rng)
    trunk.eval()
    x = RNG.normal(size=(1, 5, 8))
    base = trunk(Tensor(x)).data.copy()
    pert = x.copy()
    pert[0, 3] += RNG.normal(size=8)  # perturb position 3
    out = trunk(Tensor(pert)).data
    assert np.array_equal(out[0, :3], base[0, :3])
    assert not np.allclose(out[0, 3:], base[0, 3:])


def test_causal_attention_gradient_zero_for_future():
    rng = np.random.default_rng(3)
    attn = nn.CausalSelfAttention(8, 2, rng)
    x = Tensor(RNG.normal(size=(1, 4, 8)), requires_grad=True)
    out = attn(x)
    out[0, 1].sum().backward()  # output at position 1
    assert np.allclose(x.grad[0, 2:], 0.0)
    assert not np.allclose(x.grad[0, :2], 0.0)


def test_uniform_attention_is_causal_running_mean():
    """Zeroed q/k projections give uniform causal weights -> running mean of v."""
    rng = np.random.default_rng(4)
    attn = nn.CausalSelfAttention(4, 1, rng)
    D = 4
    attn.qkv.weight.data[:, : 2 * D] = 0.0  # q and k projections zero
    attn.qkv.weight.data[:, 2 * D:] = np.eye(D)  # v = x
    attn.qkv.bias.data[...] = 0.0
    attn.proj.weight.data[...] = np.eye(D)
    attn.proj.bias.data[...] = 0.0
    x = np.arange(12, dtype=np.float64).reshape(1, 3, 4)
    out = attn(Tensor(x)).data
    expected = np.stack([x[0, :1].mean(0), x[0, :2].mean(0), x[0, :3].mean(0)])
    assert np.allclose(out[0], expected)


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(5)
    trunk = nn.CausalTransformer(dim=16, heads=4, layers=2, max_tokens=8, rng=rng)
    trunk.eval()
    x = RNG.normal(size=(2, 8, 16))
    a = trunk(Tensor(x)).data
    b = trunk(Tensor(x)).data
    assert np.array_equal(a, b)


def test_key_mask_removes_padding():
    rng = np.random.default_rng(6)
    trunk = nn.CausalTransformer(dim=8, heads=2, layers=1, max_tokens=6, rng=rng)
    trunk.eval()
    x = RNG.normal(size=(1, 4, 8))
    mask = np.array([[False, False, True, True]])
    base = trunk(Tensor(x), key_mask=mask).data
    x2 = x.copy()
    x2[0, :2] = 123.0  # padded content must not matter at valid positions
    out = trunk(Tensor(x2), key_mask=mask).data
    assert np.allclose(out[0, 2:], base[0, 2:])


@pytest.mark.parametrize("rows", [slice(1, None, 3), slice(2, 6)], ids=["strided", "contiguous"])
def test_trunk_rows_gradcheck(rows):
    """The row-restricted taped trunk, whose last block pads its input-gradient
    products back to every row, against central differences."""
    rng = np.random.default_rng(12)
    trunk = nn.CausalTransformer(dim=8, heads=2, layers=2, max_tokens=7, rng=rng, dropout=0.0)
    x = rng.normal(size=(2, 7, 8))
    # pad only row 0, which neither slice reads: a query row whose keys are
    # all masked sits at NEG_INF, where central differences lose precision
    key_mask = np.array([[True] * 7, [False] + [True] * 6])
    w = rng.normal(size=(2, len(range(7)[rows]), 8))
    finite_diff_check(lambda t: (trunk(t, key_mask, rows=rows) * w).sum(), [x])


def test_adamw_minimizes_quadratic():
    p = nn.Parameter(np.array([5.0, -3.0]))
    opt = nn.AdamW([p], lr=0.2)
    for _ in range(200):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    assert np.allclose(p.data, 0.0, atol=1e-2)


def test_no_grad_skips_tape():
    x = Tensor(2.0, requires_grad=True)
    with no_grad():
        y = x * x
    assert y._node is None
    with pytest.raises(ValueError):
        y.backward()


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    trunk = nn.CausalTransformer(dim=8, heads=2, layers=1, max_tokens=4, rng=rng)
    path = tmp_path / "ckpt.npz"
    nn.save_checkpoint(path, "trunk-v1", {"dim": 8, "lr": 1e-3}, {"": trunk})
    def build(meta):
        trunk = nn.CausalTransformer(dim=meta["dim"], heads=2, layers=1, max_tokens=4,
                                     rng=np.random.default_rng(123))
        return (meta, trunk), {"": trunk}

    meta, trunk2 = nn.load_checkpoint(path, "trunk-v1", build)
    assert meta == {"dim": 8, "lr": 1e-3}
    for (name, p), (name2, p2) in zip(trunk.named_parameters(), trunk2.named_parameters()):
        assert name == name2 and p.data.tobytes() == p2.data.tobytes()
    x = RNG.normal(size=(1, 4, 8))
    trunk.eval(), trunk2.eval()
    assert np.array_equal(trunk(Tensor(x)).data, trunk2(Tensor(x)).data)


def _linear(meta):
    layer = nn.Linear(3, 2, np.random.default_rng(1))
    return layer, {"": layer}


def test_cut_checkpoint_names_the_file(tmp_path):
    path = tmp_path / "policy.npz"
    nn.save_checkpoint(path, "linear-v1", {}, _linear({})[1])
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValueError, match="policy.npz: cut or corrupt archive"):
        nn.load_checkpoint(path, "linear-v1", _linear)


def test_a_float64_checkpoint_is_refused_naming_the_file(tmp_path):
    """Parameters stored at float64, as before models computed in float32,
    are never cast on load: the archive's input error names the file."""
    path = tmp_path / "policy.npz"
    layer = _linear({})[0]
    archive.write(path, "linear-v1", meta={},
                  **{name: p.data.astype(np.float64) for name, p in layer.named_parameters()})
    with pytest.raises(ValueError, match=r"policy.npz: entry 'weight' has shape \(3, 2\) and "
                                         r"dtype float64, expected \(3, 2\) and float32"):
        nn.load_checkpoint(path, "linear-v1", _linear)


def test_checkpoint_missing_params_names_the_file(tmp_path):
    path = tmp_path / "policy.npz"
    nn.save_checkpoint(path, "linear-v1", {}, {"": nn.Linear(3, 2, RNG, bias=False)})
    with pytest.raises(ValueError, match=r"policy.npz: missing members \['bias'\]"):
        nn.load_checkpoint(path, "linear-v1", _linear)


def test_checkpoint_format_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    nn.save_checkpoint(path, "other", {}, _linear({})[1])
    with pytest.raises(ValueError, match="schema version mismatch: expected 'linear-v1', "
                                         "found 'other'"):
        nn.load_checkpoint(path, "linear-v1", _linear)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_map_members_in_member_order(monkeypatch):
    parent = os.getpid()
    _cpus(monkeypatch, 1)
    assert nn.map_members(lambda k: (k * k, os.getpid()), 3) == [
        (0, parent), (1, parent), (4, parent)]
    _cpus(monkeypatch, 2)
    out = nn.map_members(lambda k: (time.sleep(0.2 if k == 0 else 0.0), k * k, os.getpid()), 5)
    assert [r[1] for r in out] == [0, 1, 4, 9, 16]
    assert parent not in {r[2] for r in out}
    assert multiprocessing.active_children() == []


def test_map_chunks_in_index_order(monkeypatch):
    parent = os.getpid()
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        assert nn.pool_workers(7) == cpus and nn.pool_workers(2) == min(2, cpus)
        out = nn.map_chunks(lambda i: (i * i, os.getpid()), 7)
        assert [r[0] for r in out] == [i * i for i in range(7)]
        assert (parent in {r[1] for r in out}) == (cpus == 1)
        assert multiprocessing.active_children() == []
    assert nn.map_chunks(lambda i: i, 0) == []
    assert nn.map_chunks(lambda i: os.getpid(), 1) == [parent]


def test_map_members_raises_the_lowest_failing_member(monkeypatch):
    def fn(k):
        if k == 1:
            time.sleep(0.3)  # member 3 fails first, member 1 still wins
        if k in (1, 3):
            raise nn.TrainingDiverged(f"member {k}: boom")
        return k

    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(nn.TrainingDiverged, match="member 1:"):
            nn.map_members(fn, 5)
        assert multiprocessing.active_children() == []
