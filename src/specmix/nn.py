"""Dense tensor ops with manual vector-Jacobian products on a forward tape.

There is no general expression-graph autodiff here: each operation computes
its forward value, then (when a :class:`Tape` is supplied) records a closure
that propagates the output cotangent to its inputs. ``Tape.backward`` walks
the recorded closures in reverse. Ops called with ``tape=None`` run forward
only, which is the inference path.

Values are float64 ndarrays wrapped in :class:`Node`; trainable tensors are
:class:`Parameter` nodes with a persistent gradient buffer that accumulates
across backward passes until the optimizer clears it. One forward+backward
per tape at a time; independent tapes are safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import CheckpointError, ShapeError

IGNORE_LABEL = -1
INIT_SCALE = 0.02

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Node:
    """A float64 array plus a lazily allocated cotangent."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None

    def add_grad(self, g) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g


class Parameter(Node):
    """Named trainable node; its gradient buffer persists across backwards."""

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value)
        self.name = name
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def init_params(shapes: dict, rng) -> dict:
    """Fresh Parameters for a name -> shape spec, drawn from rng in spec order.

    Layer-norm scales (``.gamma``) start at one, every other 1-D tensor at
    zero, and every matrix at N(0, INIT_SCALE).
    """
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".gamma"):
            value = np.ones(shape)
        elif len(shape) == 1:
            value = np.zeros(shape)
        else:
            value = rng.normal(size=shape) * INIT_SCALE
        params[name] = Parameter(name, value)
    return params


def params_from_arrays(shapes: dict, arrays: dict, what: str) -> dict:
    """Parameters for exactly the names in shapes, copied from arrays as float64.

    A missing name, an extra name or a wrong shape raises CheckpointError;
    what names the spec in the message.
    """
    missing = sorted(set(shapes) - set(arrays))
    extra = sorted(set(arrays) - set(shapes))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match {what}: missing {missing}, extra {extra}"
        )
    params = {}
    for name, shape in shapes.items():
        value = np.array(arrays[name], dtype=np.float64)
        if value.shape != shape:
            raise CheckpointError(f"parameter {name} has shape {value.shape}, expected {shape}")
        params[name] = Parameter(name, value)
    return params


class Tape:
    """Reverse-order record of backward closures for one forward pass."""

    __slots__ = ("_steps",)

    def __init__(self):
        self._steps = []

    def record(self, fn) -> None:
        self._steps.append(fn)

    def backward(self, output: Node, seed=1.0) -> None:
        """Seed the output cotangent and run all recorded closures in reverse."""
        output.add_grad(np.broadcast_to(np.asarray(seed, dtype=np.float64), output.value.shape))
        for fn in reversed(self._steps):
            fn()


def add(a: Node, b: Node, tape: Tape | None) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shapes differ: {a.value.shape} vs {b.value.shape}")
    out = Node(a.value + b.value)
    if tape is not None:
        def backward():
            if out.grad is None:
                return
            a.add_grad(out.grad)
            b.add_grad(out.grad)
        tape.record(backward)
    return out


def linear(x: Node, w: Node, b: Node, tape: Tape | None) -> Node:
    """y = x @ w + b over the last axis of x."""
    if x.value.shape[-1] != w.value.shape[0]:
        raise ShapeError(
            f"linear: input shape {x.value.shape} does not match weight shape {w.value.shape}"
        )
    if b.value.shape != (w.value.shape[1],):
        raise ShapeError(
            f"linear: bias shape {b.value.shape} does not match weight shape {w.value.shape}"
        )
    out = Node(x.value @ w.value + b.value)
    if tape is not None:
        def backward():
            g = out.grad
            if g is None:
                return
            lead = x.value.reshape(-1, x.value.shape[-1])
            gflat = g.reshape(-1, g.shape[-1])
            w.add_grad(lead.T @ gflat)
            b.add_grad(gflat.sum(axis=0))
            x.add_grad((g @ w.value.T).reshape(x.value.shape))
        tape.record(backward)
    return out


def layer_norm(x: Node, gamma: Node, beta: Node, eps: float, tape: Tape | None) -> Node:
    """Normalize the last axis to zero mean / unit population variance, then scale-shift."""
    v = x.value
    mean = v.mean(axis=-1, keepdims=True)
    centered = v - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = Node(xhat * gamma.value + beta.value)
    if tape is not None:
        def backward():
            g = out.grad
            if g is None:
                return
            lead = (-1, v.shape[-1])
            gf = g.reshape(lead)
            xh = xhat.reshape(lead)
            gamma.add_grad((gf * xh).sum(axis=0))
            beta.add_grad(gf.sum(axis=0))
            d = g * gamma.value
            dmean = d.mean(axis=-1, keepdims=True)
            dproj = (d * xhat).mean(axis=-1, keepdims=True)
            x.add_grad((d - dmean - xhat * dproj) * inv_std)
        tape.record(backward)
    return out


def gelu(x: Node, tape: Tape | None) -> Node:
    """Exact GELU, x * Phi(x) with the erf-based normal CDF."""
    v = x.value
    cdf = 0.5 * (1.0 + erf(v * _INV_SQRT2))
    out = Node(v * cdf)
    if tape is not None:
        def backward():
            g = out.grad
            if g is None:
                return
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * v * v)
            x.add_grad(g * (cdf + v * pdf))
        tape.record(backward)
    return out


def _softmax_rows(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(v: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis by log-sum-exp; finite wherever v is."""
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(x: Node, tape: Tape | None) -> Node:
    """Max-subtracted softmax along the last axis."""
    y = _softmax_rows(x.value)
    out = Node(y)
    if tape is not None:
        def backward():
            g = out.grad
            if g is None:
                return
            x.add_grad((g - (g * y).sum(axis=-1, keepdims=True)) * y)
        tape.record(backward)
    return out


def embedding_lookup(ids, table: Node, tape: Tape | None) -> Node:
    """Row gather; the VJP scatter-adds cotangent rows back into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    vocab = table.value.shape[0]
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        offender = ids[bad].ravel()[0]
        raise ShapeError(f"embedding id {offender} out of range [0, {vocab})")
    out = Node(table.value[ids])
    if tape is not None:
        def backward():
            g = out.grad
            if g is None:
                return
            if table.grad is None:
                table.grad = np.zeros_like(table.value)
            np.add.at(table.grad, ids, g)
        tape.record(backward)
    return out


def tied_logits(x: Node, emb: Node, bias: Node, tape: Tape | None) -> Node:
    """Output projection sharing the embedding table: y = x @ emb.T + bias."""
    if x.value.shape[-1] != emb.value.shape[1]:
        raise ShapeError(
            f"tied_logits: input shape {x.value.shape} vs embedding shape {emb.value.shape}"
        )
    out = Node(x.value @ emb.value.T + bias.value)
    if tape is not None:
        def backward():
            g = out.grad
            if g is None:
                return
            emb.add_grad(g.T @ x.value)
            bias.add_grad(g.sum(axis=0))
            x.add_grad(g @ emb.value)
        tape.record(backward)
    return out


def masked_cross_entropy(logits: Node, labels, tape: Tape | None) -> Node:
    """Mean of -log softmax(logits)[label] over positions whose label is not -1.

    With every position ignored the loss is exactly 0 with zero gradient.
    """
    labels = np.asarray(labels, dtype=np.int64)
    v = logits.value
    if labels.shape != v.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {v.shape}")
    vocab = v.shape[-1]
    if ((labels < IGNORE_LABEL) | (labels >= vocab)).any():
        raise ShapeError(f"labels must be -1 or in [0, {vocab})")
    active = labels != IGNORE_LABEL
    n_active = int(active.sum())
    if n_active == 0:
        out = Node(0.0)
        return out
    flat_logp = log_softmax_rows(v).reshape(-1, vocab)
    flat_labels = labels.reshape(-1)
    flat_active = active.reshape(-1)
    rows = np.nonzero(flat_active)[0]
    loss = float(-flat_logp[rows, flat_labels[rows]].sum() / n_active)
    out = Node(loss)
    if tape is not None:
        def backward():
            g = out.grad
            if g is None:
                return
            d = np.exp(flat_logp)
            d[rows, flat_labels[rows]] -= 1.0
            d[~flat_active] = 0.0
            logits.add_grad((float(g) / n_active) * d.reshape(v.shape))
        tape.record(backward)
    return out


@dataclass(frozen=True)
class AttentionConfig:
    n_heads: int
    d_model: int
    causal: bool = False

    def __post_init__(self):
        if self.n_heads < 1 or self.d_model < 1:
            raise ValueError("attention extents must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


@dataclass
class AttentionParams:
    """Projection weights for one attention sub-layer (all shape-checked by linear)."""

    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter


def _attention_bias(l_q: int, l_k: int, causal: bool, pad_mask) -> np.ndarray | None:
    """0/-inf additive bias, or None when nothing is masked. Errors on dead rows."""
    bias = None
    if causal:
        bias = np.where(np.tril(np.ones((l_q, l_k), dtype=bool)), 0.0, -np.inf)
    if pad_mask is not None:
        pad_mask = np.asarray(pad_mask, dtype=bool)
        if pad_mask.shape != (l_k,):
            raise ShapeError(f"pad_mask shape {pad_mask.shape} != key length ({l_k},)")
        pad_bias = np.where(pad_mask, 0.0, -np.inf)[None, :]
        bias = pad_bias if bias is None else bias + pad_bias
    if bias is not None and not np.isfinite(bias).any(axis=1).all():
        raise ShapeError("attention row with every key masked (malformed batch)")
    return bias


def _attend(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, bias=None,
            weights: np.ndarray | None = None) -> np.ndarray:
    """Per-head softmax(q k^T / sqrt(d_h) + bias) v over projected, head-split inputs.

    qh is [..., L_q, H, d_h] and kh, vh are [..., L_k, H, d_h] with leading
    axes that broadcast against q's, so one key set can serve a batch of
    queries. Heads run one at a time. When given, weights [H, L_q, L_k]
    receives each head's softmax.
    """
    scale = 1.0 / np.sqrt(qh.shape[-1])
    ctx = np.empty(qh.shape)
    for h in range(qh.shape[-2]):
        scores = (qh[..., h, :] @ np.swapaxes(kh[..., h, :], -1, -2)) * scale
        if bias is not None:
            scores += bias
        a = _softmax_rows(scores)
        if weights is not None:
            weights[h] = a
        ctx[..., h, :] = a @ vh[..., h, :]
    return ctx


def multi_head_attention(
    q: Node,
    k: Node,
    v: Node,
    params: AttentionParams,
    cfg: AttentionConfig,
    tape: Tape | None,
    pad_mask=None,
) -> Node:
    """Scaled dot-product attention with per-head width d/h and output projection.

    Masked logits are set to -inf before the softmax. Heads are processed one
    at a time, which bounds scratch memory to a single (L_q, L_k) score matrix
    during inference.
    """
    l_q = q.value.shape[0]
    l_k = k.value.shape[0]
    if l_k == 0 or l_q == 0:
        raise ShapeError("attention requires at least one query and one key")
    d = cfg.d_model
    n_heads = cfg.n_heads
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    qp = linear(q, params.wq, params.bq, tape)
    kp = linear(k, params.wk, params.bk, tape)
    vp = linear(v, params.wv, params.bv, tape)
    bias = _attention_bias(l_q, l_k, cfg.causal, pad_mask)

    qh = qp.value.reshape(l_q, n_heads, dh)
    kh = kp.value.reshape(l_k, n_heads, dh)
    vh = vp.value.reshape(l_k, n_heads, dh)

    weights = np.empty((n_heads, l_q, l_k)) if tape is not None else None
    concat = Node(_attend(qh, kh, vh, bias, weights).reshape(l_q, d))
    if tape is not None:
        def backward():
            g = concat.grad
            if g is None:
                return
            gh = g.reshape(l_q, n_heads, dh)
            dq = np.empty_like(qh)
            dk = np.empty_like(kh)
            dv = np.empty_like(vh)
            for h in range(n_heads):
                a = weights[h]
                da = gh[:, h, :] @ vh[:, h, :].T
                dv[:, h, :] = a.T @ gh[:, h, :]
                ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
                dq[:, h, :] = ds @ kh[:, h, :]
                dk[:, h, :] = ds.T @ qh[:, h, :]
            qp.add_grad(dq.reshape(l_q, d))
            kp.add_grad(dk.reshape(l_k, d))
            vp.add_grad(dv.reshape(l_k, d))
        tape.record(backward)
    return linear(concat, params.wo, params.bo, tape)
