"""Dense tensor ops with manual vector-Jacobian products on a forward tape.

There is no general expression-graph autodiff here: each operation computes
its forward value, then (when a :class:`Tape` is supplied) records a closure
``backward(g)`` that receives the output cotangent ``g`` and propagates it to
the op's inputs. ``Tape.backward`` pops the recorded closures in reverse and
skips every closure whose output no cotangent reached. It consumes the tape:
each closure, with the activations it captured and its output node's
cotangent, is freed as soon as it has run, so a training step peaks near its
forward pass instead of holding every activation until the tape is dropped.
Ops called with ``tape=None`` run forward only, which is the inference path.
A closure holds its inputs' cotangents (a node's :class:`Cotangent`, apart
from its value) and only the arrays its VJP reads, never a Node. The
first cotangent a node receives becomes its buffer, uncopied, so each
closure hands over an array nothing else holds: ``add`` copies its output
cotangent once per input, and ``Tape.backward`` seeds a fresh array. Taped
attention keeps no softmax weights: its backward recomputes each head's from
the saved queries and keys with the forward's own code, bit for bit.

Freeing mid-backward changes how the C allocator behaves. glibc's dynamic
trim threshold settles near twice the largest array freed, so each free at
the heap top hands memory back to the OS and the next cotangent faults it in
again, page by page. Importing this module therefore fixes one allocator
policy for the process: arrays up to 32 MiB come from the heap, and the heap
is trimmed only once 64 MiB sit free at its top. Where the C library has no
``mallopt`` the policy is skipped and only speed, not results, differs.

Values are float64 ndarrays wrapped in :class:`Node`; trainable tensors are
:class:`Parameter` nodes with a persistent gradient buffer that accumulates
across backward passes until the optimizer clears it. One forward+backward
per tape at a time; independent tapes are safe to run concurrently.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np
from scipy.special import erf

from .errors import CheckpointError, ShapeError

IGNORE_LABEL = -1
INIT_SCALE = 0.02
# Elements per chunk of a large array updated in place (a parameter's
# gradient here, its AdamW moments in training): each chunk's temporaries
# stay 16 MiB whatever the array's size.
CHUNK_ELEMS = 2**21

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc <malloc.h>; 32 MiB is glibc's own ceiling for its mmap threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _set_allocator_policy() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_set_allocator_policy()


class Cotangent:
    """A node's lazily allocated gradient buffer, which backward closures hold."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None

    def add(self, g) -> None:
        """Accumulate g, keeping the first g itself as the buffer later ones add into.

        So g must be a writable float64 array that nothing else holds: a
        backward that hands one array to more than one holder copies it first.
        """
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


def _add_matmul(cot: Cotangent, a, b) -> None:
    """Add a @ b into cot, CHUNK_ELEMS output elements at a time once it holds a buffer.

    Each chunk is a block of a's rows, so no temporary of the whole product
    is built. A block holds at least two rows, since numpy multiplies a
    one-row block as a vector, which rounds differently; so wherever b has
    two or more columns the bits are a @ b's.
    """
    if cot.grad is None:
        cot.add(a @ b)
        return
    n, rows = a.shape[0], max(2, CHUNK_ELEMS // b.shape[1])
    start = 0
    while start < n:
        stop = start + rows if n - start > rows + 1 else n
        cot.grad[start:stop] += a[start:stop] @ b
        start = stop


class Node:
    """A float64 array plus its Cotangent."""

    __slots__ = ("value", "cot")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.cot = Cotangent()

    @property
    def grad(self):
        return self.cot.grad

    @grad.setter
    def grad(self, g) -> None:
        self.cot.grad = g


class Parameter(Node):
    """Named trainable node; its gradient buffer persists across backwards.

    A new Parameter holds no buffer, so weights loaded only for inference
    carry no gradient; zero_grad allocates a missing one.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value)
        self.name = name

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad[...] = 0.0


def init_params(shapes: dict, rng) -> dict:
    """Fresh Parameters for a name -> shape spec, drawn from rng in spec order.

    Layer-norm scales (``.gamma``) start at one, every other 1-D tensor at
    zero, and every matrix at N(0, INIT_SCALE). Each gets a zero gradient
    buffer, since a fresh state is made to be trained.
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
        params[name].zero_grad()
    return params


def params_from_arrays(shapes: dict, arrays: dict, what: str) -> dict:
    """Parameters for exactly the names in shapes, copied from arrays as float64.

    They hold no gradient buffer: the training loop gives them one. A missing
    name, an extra name or a wrong shape raises CheckpointError; what names
    the spec in the message.
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
    """Reverse-order record of backward closures for one forward pass, used up by backward."""

    __slots__ = ("_steps",)

    def __init__(self):
        self._steps = []

    def record(self, fn) -> None:
        self._steps.append(fn)

    def backward(self, output: Node, seed=1.0) -> None:
        """Seed the output cotangent and pop and run the recorded closures in reverse.

        This consumes the tape: each closure is dropped once it has run, which
        frees what it captured, and a second call raises RuntimeError. The
        module docstring says why freeing mid-backward needs nn's allocator
        policy.
        """
        steps = self._steps
        if steps is None:
            raise RuntimeError("Tape.backward already ran on this tape; record a new tape")
        self._steps = None
        output.cot.add(np.full(output.value.shape, seed, dtype=np.float64))
        while steps:
            steps.pop()()


def _record(tape: Tape | None, out: Node, backward) -> None:
    """Record backward(out.grad) on tape, skipped when no cotangent reached out.

    It holds out's Cotangent, not out. Private and called from each op's own
    frame, so a tracer that wraps the public ops attributes every closure to
    the op that recorded it.
    """
    if tape is not None:
        cot = out.cot
        tape.record(lambda: cot.grad is None or backward(cot.grad))


def add(a: Node, b: Node, tape: Tape | None) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shapes differ: {a.value.shape} vs {b.value.shape}")
    out = Node(a.value + b.value)
    a_cot, b_cot = a.cot, b.cot

    def backward(g):  # each input gets its own copy: out's cotangent holds g
        a_cot.add(g.copy())
        b_cot.add(g.copy())
    _record(tape, out, backward)
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
    xv, wv = x.value, w.value
    y = xv @ wv
    y += b.value
    out = Node(y)
    x_cot, w_cot, b_cot = x.cot, w.cot, b.cot

    def backward(g):
        lead = xv.reshape(-1, xv.shape[-1])
        gflat = g.reshape(-1, g.shape[-1])
        _add_matmul(w_cot, lead.T, gflat)
        b_cot.add(gflat.sum(axis=0))
        x_cot.add((g @ wv.T).reshape(xv.shape))
    _record(tape, out, backward)
    return out


def layer_norm(x: Node, gamma: Node, beta: Node, eps: float, tape: Tape | None) -> Node:
    """Normalize the last axis to zero mean / unit population variance, then scale-shift."""
    v, n = x.value, x.value.shape[-1]
    # sum / n is np.mean's arithmetic, without its Python wrapper
    xhat = v - v.sum(axis=-1, keepdims=True) / n  # centered here, normalized in place below
    y = xhat * xhat  # squares here, the output below
    var = y.sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    gv = gamma.value
    np.multiply(xhat, gv, out=y)
    y += beta.value
    out = Node(y)
    lead = (-1, n)
    x_cot, gamma_cot, beta_cot = x.cot, gamma.cot, beta.cot

    def backward(g):
        gf = g.reshape(lead)
        xh = xhat.reshape(lead)
        gamma_cot.add((gf * xh).sum(axis=0))
        beta_cot.add(gf.sum(axis=0))
        # dx = (d - mean(d) - xhat * mean(d * xhat)) * inv_std, built in d and
        # xhat in that order: backward runs once
        d = g * gv
        dproj = (d * xhat).sum(axis=-1, keepdims=True) / n
        d -= d.sum(axis=-1, keepdims=True) / n
        d -= np.multiply(xhat, dproj, out=xhat)
        d *= inv_std
        x_cot.add(d)
    _record(tape, out, backward)
    return out


def gelu(x: Node, tape: Tape | None) -> Node:
    """Exact GELU, x * Phi(x) with the erf-based normal CDF.

    erf is exactly odd, so it runs on |x| / sqrt 2 and copysign restores the sign: the bits
    are erf's own, and its branches no longer mispredict on the sign of half the inputs.
    """
    v = x.value
    # one buffer for the CDF (and the tape-free output); out= keeps a 0-d input an array
    cdf = np.multiply(v, _INV_SQRT2, out=np.empty_like(v))
    erf(np.abs(cdf, out=cdf), out=cdf)
    np.copysign(cdf, v, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if tape is None:
        return Node(np.multiply(v, cdf, out=cdf))
    out = Node(v * cdf)
    # the derivative cdf + v * pdf(v): the tape keeps it instead of v and the CDF
    d = np.multiply(v, v, out=np.empty_like(v))
    d *= -0.5
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= v
    d += cdf
    x_cot = x.cot

    def backward(g):
        x_cot.add(np.multiply(d, g, out=d))  # in place: backward runs once
    _record(tape, out, backward)
    return out


def _softmax_rows(v: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of float64 v, computed in v, which it returns."""
    v -= v.max(axis=-1, keepdims=True)
    np.exp(v, out=v)
    v /= v.sum(axis=-1, keepdims=True)
    return v


def log_softmax_rows(v: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis by log-sum-exp; finite wherever v is."""
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def embedding_lookup(ids, table: Node, tape: Tape | None) -> Node:
    """Row gather; the VJP scatter-adds cotangent rows back into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    vocab = table.value.shape[0]
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        offender = ids[bad].ravel()[0]
        raise ShapeError(f"embedding id {offender} out of range [0, {vocab})")
    out = Node(table.value[ids])
    table_cot, shape = table.cot, table.value.shape

    def backward(g):
        if table_cot.grad is None:
            table_cot.grad = np.zeros(shape)
        elif not table_cot.grad.flags.c_contiguous:  # the scatter below needs a flat view
            table_cot.grad = np.ascontiguousarray(table_cot.grad)
        # one scatter of every element, in the order a 2-D np.add.at adds them;
        # 1-D indices and values take np.add.at's fast path
        row = math.prod(shape[1:])
        flat = (ids.reshape(-1, 1) * row + np.arange(row)).reshape(-1)
        np.add.at(table_cot.grad.reshape(-1), flat, g.reshape(-1))
    _record(tape, out, backward)
    return out


def tied_logits(x: Node, emb: Node, bias: Node, tape: Tape | None) -> Node:
    """Output projection sharing the embedding table: y = x @ emb.T + bias."""
    if x.value.shape[-1] != emb.value.shape[1]:
        raise ShapeError(
            f"tied_logits: input shape {x.value.shape} vs embedding shape {emb.value.shape}"
        )
    xv, ev = x.value, emb.value
    out = Node(xv @ ev.T + bias.value)
    x_cot, emb_cot, bias_cot = x.cot, emb.cot, bias.cot

    def backward(g):
        _add_matmul(emb_cot, g.T, xv)
        bias_cot.add(g.sum(axis=0))
        x_cot.add(g @ ev)
    _record(tape, out, backward)
    return out


def masked_cross_entropy(logits: Node, labels, tape: Tape | None, examples=None) -> Node:
    """Sum over examples of the mean -log softmax(logits)[label] over the example's
    positions whose label is not -1.

    examples holds each position's example index, labels' shape; without it
    every position belongs to one example and the loss is that one mean. Each
    labeled position is divided by its own example's labeled count, so an
    example with no labeled position adds exactly 0, and with every position
    ignored the loss is exactly 0 with zero gradient.
    """
    labels = np.asarray(labels, dtype=np.int64)
    v = logits.value
    if labels.shape != v.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {v.shape}")
    examples = np.zeros(labels.shape, np.int64) if examples is None else np.asarray(examples)
    if examples.shape != labels.shape or (examples < 0).any():
        raise ShapeError(f"examples must be indices >= 0 of labels' shape {labels.shape}, "
                         f"got shape {examples.shape}")
    vocab = v.shape[-1]
    if ((labels < IGNORE_LABEL) | (labels >= vocab)).any():
        raise ShapeError(f"labels must be -1 or in [0, {vocab})")
    flat_labels = labels.reshape(-1)
    rows = np.flatnonzero(flat_labels != IGNORE_LABEL)
    if len(rows) == 0:
        out = Node(0.0)
        return out
    flat_logp = log_softmax_rows(v).reshape(-1, vocab)
    picked = flat_logp[rows, flat_labels[rows]]
    owner = examples.reshape(-1)[rows]
    counts = np.bincount(owner)
    loss = 0.0
    for b in np.flatnonzero(counts):  # each example's mean, in example order
        loss -= picked[owner == b].sum() / counts[b]
    out = Node(float(loss))
    logits_cot, shape = logits.cot, v.shape

    def backward(g):
        d = np.exp(flat_logp)
        d[rows, flat_labels[rows]] -= 1.0
        scale = np.zeros(len(d))  # ignored positions get no gradient
        scale[rows] = float(g) / counts[owner]
        d *= scale[:, None]
        logits_cot.add(d.reshape(shape))
    _record(tape, out, backward)
    return out


def _head_weights(qh: np.ndarray, kh: np.ndarray, scale: float, bias) -> np.ndarray:
    """One head's softmax(q k^T * scale + bias): the one routine forward and backward run."""
    a = qh @ np.swapaxes(kh, -1, -2)
    a *= scale
    if bias is not None:
        a += bias
    return _softmax_rows(a)


def _attend(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, bias=None) -> np.ndarray:
    """Per-head softmax(q k^T / sqrt(d_h) + bias) v over projected, head-split inputs.

    qh is [..., L_q, H, d_h] and kh, vh are [..., L_k, H, d_h] with leading
    axes that broadcast against q's, so one key set can serve a batch of
    queries. Heads run one at a time and no head's weights outlive its turn.
    """
    scale = 1.0 / np.sqrt(qh.shape[-1])
    ctx = np.empty(qh.shape)
    for h in range(qh.shape[-2]):
        ctx[..., h, :] = _head_weights(qh[..., h, :], kh[..., h, :], scale, bias) @ vh[..., h, :]
    return ctx


def multi_head_attention(q: Node, k: Node, v: Node, n_heads: int, tape: Tape | None,
                         causal: bool = False) -> Node:
    """Per-head scaled dot-product attention of projected q [L_q, d] over k and v.

    k and v are [..., L_k, d]. q's rows split evenly over their leading axes,
    so 2-D keys serve every query and keys [B, t, d] give each of B groups of
    query rows its own key set. causal keeps only keys j <= i for query row i
    of a group. Returns the per-head context [L_q, d], before any output
    projection. Heads run one at a time, which bounds scratch memory to a few
    score matrices. Only 2-D keys can be taped. The tape keeps no [H, L_q, L_k]
    weights: backward recomputes each head's softmax from q and k with
    _head_weights, as the forward ran it, so the gradients are the same bits.
    """
    qv, kv = q.value, k.value
    if qv.ndim != 2 or kv.ndim < 2 or kv.shape != v.value.shape or kv.shape[-1] != qv.shape[1]:
        raise ShapeError(f"attention: q {qv.shape}, k {kv.shape} and v {v.value.shape} "
                         "need q [L_q, d] and equal k, v of shape [..., L_k, d]")
    d, lead = qv.shape[1], kv.shape[:-2]
    if n_heads < 1 or d % n_heads != 0:
        raise ShapeError(f"attention: width {d} not divisible by n_heads {n_heads}")
    if tape is not None and lead:
        raise ShapeError(f"attention: only 2-D keys can be taped, got {kv.shape}")
    l_q, l_k, groups = qv.shape[0], kv.shape[-2], math.prod(lead)
    if l_q == 0 or kv.size == 0 or l_q % groups != 0:
        raise ShapeError(f"attention: {l_q} queries do not split over keys {kv.shape}")
    rows, heads = l_q // groups, (n_heads, d // n_heads)  # query rows per key set
    qh = qv.reshape(*lead, rows, *heads)
    kh, vh = (x.value.reshape(*kv.shape[:-1], *heads) for x in (k, v))
    bias = None
    if causal:
        bias = np.where(np.tril(np.ones((rows, l_k), dtype=bool)), 0.0, -np.inf)
    out = Node(_attend(qh, kh, vh, bias).reshape(l_q, d))
    scale = 1.0 / np.sqrt(heads[1])
    q_cot, k_cot, v_cot = q.cot, k.cot, v.cot

    def backward(g):
        gh = g.reshape(l_q, *heads)
        dq = np.empty_like(qh)
        dk = np.empty_like(kh)
        dv = np.empty_like(vh)
        for h in range(n_heads):
            a = _head_weights(qh[:, h, :], kh[:, h, :], scale, bias)
            da = gh[:, h, :] @ vh[:, h, :].T
            dv[:, h, :] = a.T @ gh[:, h, :]
            # the score cotangent (da - sum(da * a)) * a * scale, built in da
            da -= (da * a).sum(axis=-1, keepdims=True)
            da *= a
            da *= scale
            dq[:, h, :] = da @ kh[:, h, :]
            dk[:, h, :] = da.T @ qh[:, h, :]
        q_cot.add(dq.reshape(l_q, d))
        k_cot.add(dk.reshape(l_k, d))
        v_cot.add(dv.reshape(l_k, d))
    _record(tape, out, backward)
    return out
