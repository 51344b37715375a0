"""Print the memory of one default-arch training step, as four figures.

Usage: python scripts/step_memory.py

For a default-arch ``unrest`` policy step and a default-arch return-member
step, each over one fixed batch of 64 windows, it prints one line with:

- ``tape``: the traced bytes a taped forward holds once the loss is built;
- ``backward``: the traced peak while that loss runs backward, tape
  included;
- ``steady``: the traced peak of steps 2 and 3 of three ``nn.train_step``
  calls;
- ``faults``: the minor page faults per step of two more steps, run with
  ``tracemalloc`` off (its own bookkeeping faults pages in).

MB are 10**6 bytes, traced by ``tracemalloc`` from after the model and its
AdamW are built, with BLAS pinned to one thread.  The MB figures depend on
the code and the numpy build only, so two checkouts on one machine compare
line by line; the faults also depend on the C library's allocator.  With
the models in float32 (numpy 2.4, glibc) it printed:

    policy: tape 12.8 MB, backward 14.1 MB, steady 15.5 MB, faults 2
    member: tape 18.5 MB, backward 19.9 MB, steady 20.3 MB, faults 2

Backward read 15.5 and 20.6 MB while the pruned last block's input
gradients were zero-padded back to every row; with the models in float64,
24.7/30.0/30.0 MB and 35.9/40.0/40.1 MB.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import resource
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from segdt import nn, return_model  # noqa: E402
from segdt.policy import PolicyConfig, SequencePolicyModel  # noqa: E402

B = 64


def policy_step():
    """An ``unrest`` policy (2 layers, 4 heads, 64-d, seq 10) and the MSE
    loss over one fixed batch of B windows."""
    cfg = PolicyConfig(n_layers=2, n_heads=4, embed_dim=64, seq_length=10, dropout=0.1,
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
    """A default-arch return member (twin trunks) and its NLL over one
    fixed batch of B windows."""
    cfg = return_model.ReturnModelConfig(batch_size=B)
    model = return_model.ReturnMemberModel(cfg, np.random.default_rng(0)).train()
    rng = np.random.default_rng(1)
    L = cfg.seq_length
    states, actions = rng.normal(size=(B, L, 12)), rng.uniform(-1, 1, size=(B, L, 2))
    returns, mask = rng.normal(size=(B, L)), np.ones((B, L), dtype=bool)
    mask[:5, :3] = False

    def loss_fn():
        mu_s, lv_s, mu_a, lv_a = model.forward(states, actions, mask, rng)
        return (nn.gaussian_nll(mu_s, lv_s, returns, mask)
                + nn.gaussian_nll(mu_a, lv_a, returns, mask))

    return model, loss_fn


def figures(model, loss_fn) -> tuple:
    """(tape, backward peak, steady peak) in MB, and faults per steady step."""
    opt = nn.AdamW(model.parameters())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = loss_fn()
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        backward = tracemalloc.get_traced_memory()[1] - base
        del loss
        nn.train_step(opt, loss_fn, "probe", "step 1")
        tracemalloc.reset_peak()
        for step in (2, 3):
            nn.train_step(opt, loss_fn, "probe", f"step {step}")
        steady = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for step in (4, 5):
        nn.train_step(opt, loss_fn, "probe", f"step {step}")
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 2
    return tape / 1e6, backward / 1e6, steady / 1e6, faults


def main():
    for name, make in (("policy", policy_step), ("member", member_step)):
        tape, backward, steady, faults = figures(*make())
        print(f"{name}: tape {tape:.1f} MB, backward {backward:.1f} MB, "
              f"steady {steady:.1f} MB, faults {faults:.0f}")


if __name__ == "__main__":
    main()
