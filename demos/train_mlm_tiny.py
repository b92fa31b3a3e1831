"""Masked-token pretraining at desk scale
========================================

A tiny Hartley-mixing encoder learns a repetitive synthetic corpus in a few
hundred steps, deterministically. The run ends with the checkpoint dance:
save, reload bit-exactly, swap the mixing kind without touching any weights
(the mixing map has no parameters), and keep training.

Run with: python3 demos/train_mlm_tiny.py
"""

import tempfile
from pathlib import Path

import numpy as np

from specmix import (
    AdamW,
    BatchSchedule,
    ByteTokenizer,
    EncoderConfig,
    MixingKind,
    SplitRng,
    encoder_config_to_dict,
    encoder_forward,
    init_encoder_state,
    load_checkpoint,
    pack_corpus,
    save_checkpoint,
    state_from_arrays,
    swap_mixing,
    train_mlm,
)

# a corpus with obvious structure so a 2-layer model can make real progress
tok = ByteTokenizer()
sentences = [
    "the cat sat on the mat. ",
    "the dog ate the bone. ",
    "a bird sang in the tree. ",
    "the sun set over the sea. ",
]
docs = [tok.encode(s * 8) for s in sentences * 4]

cfg = EncoderConfig(n_layers=2, d_model=64, d_ff=256, vocab_size=tok.vocab_size,
                    max_positions=128, mixing=MixingKind.HARTLEY)
dataset = pack_corpus(docs, cfg.max_positions)
print(f"packed {len(docs)} documents into {len(dataset)} slices of {cfg.max_positions}")

state = init_encoder_state(cfg, SplitRng(0))
opt = AdamW(base_lr=1e-3, warmup_steps=10)
trace = train_mlm(cfg, state, dataset, BatchSchedule([(None, 4)]),
                  steps=150, seed=0, optimizer=opt)

first = float(np.mean([r.loss for r in trace[:20]]))
last = float(np.mean([r.loss for r in trace[-20:]]))
print(f"loss: first-20 mean {first:.4f} -> last-20 mean {last:.4f}")
for row in trace[::30]:
    print(f"  step {row.step:3d}  loss {row.loss:.4f}  lr {row.lr:.2e}")

# identical seeds give bit-identical traces; training is fully deterministic
state2 = init_encoder_state(cfg, SplitRng(0))
trace2 = train_mlm(cfg, state2, dataset, BatchSchedule([(None, 4)]),
                   steps=150, seed=0, optimizer=AdamW(base_lr=1e-3, warmup_steps=10))
same = all(a.loss == b.loss for a, b in zip(trace, trace2))
print(f"rerun with the same seeds is bit-identical: {same}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "tiny.spmx"
    save_checkpoint(path, encoder_config_to_dict(cfg),
                    {n: p.value for n, p in state.named_params()})
    ckpt = load_checkpoint(path)
    restored = state_from_arrays(cfg, ckpt.arrays)
    ids = dataset[0][:16]
    a = encoder_forward(cfg, state, ids).value
    b = encoder_forward(cfg, restored, ids).value
    print(f"checkpoint round trip, forward max err: {np.max(np.abs(a - b)):.1e}")

    # swap the mixing kind on the loaded checkpoint; weights are untouched
    new_cfg, new_state = swap_mixing(ckpt, MixingKind.FOURIER_REAL)
    more = train_mlm(new_cfg, new_state, dataset, BatchSchedule([(None, 4)]),
                     steps=20, seed=1, optimizer=AdamW(base_lr=1e-3, warmup_steps=10))
    print(f"resumed under {new_cfg.mixing.value}: 20 more steps, "
          f"final loss {more[-1].loss:.4f}")
