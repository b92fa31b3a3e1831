"""The benchmark's workloads: seeded synthetic inputs, a closed loop over the
library API, and output checks made outside the timed region.

Every workload is a closed loop: the next operation starts only when the
previous one has finished. Text and masks come from the seed, through
``np.random.default_rng([seed, stream])``, so nothing is downloaded and the
same seed gives the same inputs. Document and source lengths come from a
generator that ignores the seed, stratified (one draw from each of n equal
slices of the range), so that every seed sees the same lengths. Time and
memory grow with length (the library caches one dense kernel per length), so
run-to-run spread then comes from the program, not the draw.

    mlm_pretrain    train_mlm on text-like byte slices of 128: power-of-two
                    mixing, many small per-example tapes, AdamW.
    longdoc_encode  encoder_forward without a tape on documents of 256-2048
                    tokens: non-power-of-two mixing dominates.
    summarize       train_seq2seq, a checkpoint round trip, then generate at
                    beam 1 and 4 and ROUGE against the references.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import specmix as sm

TOKENIZER = sm.ByteTokenizer()
VOCAB = TOKENIZER.vocab_size
LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
MAX_FAILURES = 50


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator number `index` of a run's seed."""
    return np.random.default_rng([seed, index])


def stratified_lengths(n: int, lo: int, hi: int) -> np.ndarray:
    """n lengths in [lo, hi], one from each of n equal strata in shuffled order,
    the same for every seed."""
    rng = np.random.default_rng(0)
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + np.floor(u * (hi - lo + 1)).astype(np.int64)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Lexicon:
    """Zipf-weighted pseudo-words; a sentence is 4-12 of them ending in '. '."""

    def __init__(self, rng, n_words: int = 300):
        self.words = ["".join(rng.choice(LETTERS, size=int(rng.integers(2, 9))))
                      for _ in range(n_words)]
        weights = 1.0 / np.arange(1, n_words + 1)
        self.p = weights / weights.sum()

    def sentence(self, rng) -> str:
        words = rng.choice(self.words, size=int(rng.integers(4, 13)), p=self.p)
        return " ".join(words).capitalize() + ". "

    def text(self, rng, n_bytes: int, sentences=None) -> str:
        """Exactly n_bytes of ASCII text, from `sentences` when given."""
        parts, size = [], 0
        while size < n_bytes:
            s = (self.sentence(rng) if sentences is None
                 else sentences[int(rng.integers(len(sentences)))])
            parts.append(s)
            size += len(s)
        return "".join(parts)[:n_bytes]


class StepClock(sm.AdamW):
    """AdamW that timestamps each step(), so step boundaries are timed from outside."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.durations = []
        self._last = 0.0

    def mark(self) -> None:
        self.durations.clear()
        self._last = time.perf_counter()

    def step(self, named_params) -> float:
        lr = super().step(named_params)
        now = time.perf_counter()
        self.durations.append(now - self._last)
        self._last = now
        return lr


@dataclass
class Pass:
    """What one closed-loop pass did: timed seconds, samples, checks, digests."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    timed_s: float = 0.0
    wall_s: float = 0.0
    iterations: int = 0
    samples: dict = field(default_factory=lambda: defaultdict(list))
    totals: dict = field(default_factory=lambda: defaultdict(float))
    digest_parts: dict = field(default_factory=lambda: defaultdict(list))

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        """Count n operations; all of them fail when ok is false."""
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.failures) < 20:
                self.failures.append(what)

    def call(self, fn, *args, **kwargs):
        """Time one library call; returns (result, seconds, exception or None)."""
        start = time.perf_counter()
        try:
            result, err = fn(*args, **kwargs), None
        except Exception as exc:  # an operation that raises counts as failed
            result, err = None, exc
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        self.timed_s += elapsed
        return result, elapsed, err

    def digests(self) -> dict:
        return {key: hashlib.sha256(b"".join(parts)).hexdigest()[:16]
                for key, parts in sorted(self.digest_parts.items())}


def generation_problem(out, gen) -> str | None:
    """Why a generated id list breaks its contract, or None when it is valid."""
    ids = [int(t) for t in out]
    if len(ids) > gen.max_target_len:
        return f"{len(ids)} tokens > max_target_len {gen.max_target_len}"
    if any(t < 0 or t >= VOCAB for t in ids):
        return f"id outside [0, {VOCAB})"
    n = gen.no_repeat_ngram
    seq = [gen.bos_id] + ids
    grams = [tuple(seq[k:k + n]) for k in range(len(seq) - n + 1)] if n > 0 else []
    if len(set(grams)) != len(grams):
        return f"a {n}-gram repeats"
    return None


# Largest allowed gap between mix2d and the reference, on the orthonormal scale
# (both divided by sqrt(L*H), which leaves unit-scale input at unit scale).
ORACLE_TOL = 1e-9


def dft_kernel(n: int) -> np.ndarray:
    """exp(-2j*pi*k*m/n), built here so that it shares nothing with the library's
    kernels; k*m is reduced mod n first, so every phase is exact."""
    k = np.arange(n)
    return np.exp((-2j * np.pi / n) * (np.outer(k, k) % n))


def rouge_in_range(score) -> bool:
    return all(0.0 <= v <= 1.0 for v in (score.precision, score.recall, score.fmeasure))


class Workload:
    """One closed loop; subclasses define setup, one iteration and the checks."""

    name = ""
    min_iterations = 1
    # end-to-end metric -> the named metric that supplies it
    end_to_end_source = {}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, i: int, p: Pass) -> None:
        raise NotImplementedError

    def final_checks(self, p: Pass) -> None:
        """Run-level checks, made after the loop and outside its timing."""

    def named(self, p: Pass) -> dict:
        """This workload's own metrics, reported in full on the report line."""
        raise NotImplementedError

    def end_to_end(self, p: Pass) -> dict:
        named = self.named(p)
        return {metric: named[source] for metric, source in self.end_to_end_source.items()}

    def run(self, seconds: float | None = None, iterations: int | None = None) -> Pass:
        """Iterate until `seconds` of timed work and min_iterations, or exactly `iterations`."""
        p = Pass()
        start = time.perf_counter()
        i = 0
        while p.failed <= MAX_FAILURES:
            if iterations is not None:
                if i >= iterations:
                    break
            elif i >= self.min_iterations and p.timed_s >= seconds:
                break
            self.iterate(i, p)
            i += 1
        p.iterations = i
        p.wall_s = time.perf_counter() - start
        return p


class MlmPretrain(Workload):
    name = "mlm_pretrain"
    end_to_end_source = {"tokens_per_s": "train_tokens_per_s", "op_ms_p50": "train_step_ms_p50"}

    def __init__(self, seed: int, d_model=64, d_ff=256, seq_len=128, batch=8, n_slices=256,
                 chunk=10, min_steps=100, window=20):
        super().__init__(seed)
        if min_steps % chunk or min_steps < 2 * window:
            raise ValueError("min_steps must be a multiple of chunk and cover two windows")
        self.d_model, self.d_ff, self.seq_len = d_model, d_ff, seq_len
        self.batch, self.n_slices, self.chunk = batch, n_slices, chunk
        self.min_steps, self.window = min_steps, window
        self.min_iterations = min_steps // chunk

    def setup(self) -> None:
        rng = stream(self.seed, 0)
        lexicon = Lexicon(rng)
        # a small sentence pool repeated in seeded order: text-like repetition
        pool = [lexicon.sentence(rng) for _ in range(48)]
        text = lexicon.text(rng, self.n_slices * self.seq_len, sentences=pool)
        docs = [TOKENIZER.encode(text[j:j + 1024]) for j in range(0, len(text), 1024)]
        self.dataset = sm.pack_corpus(docs, self.seq_len)
        self.cfg = sm.EncoderConfig(n_layers=2, d_model=self.d_model, d_ff=self.d_ff,
                                    vocab_size=VOCAB, max_positions=self.seq_len,
                                    mixing=sm.MixingKind.HARTLEY)
        self.state = sm.init_encoder_state(self.cfg, sm.SplitRng(self.seed))
        self.schedule = sm.BatchSchedule([(None, self.batch)])
        self.opt = StepClock(base_lr=1e-3, warmup_steps=10)
        # warm the transform plans and kernels with one discarded backward
        inputs, labels = sm.apply_mlm_mask(self.dataset[0], sm.MaskingPolicy(),
                                           sm.SplitRng(self.seed).split(99))
        tape = sm.Tape()
        hidden = sm.encoder_forward(self.cfg, self.state, inputs, tape=tape)
        logits = sm.mlm_logits(self.cfg, self.state, hidden, tape)
        tape.backward(sm.nn.masked_cross_entropy(logits, labels, tape))
        self.state.zero_grad()

    def iterate(self, i: int, p: Pass) -> None:
        self.opt.mark()
        trace, _, err = p.call(sm.train_mlm, self.cfg, self.state, self.dataset, self.schedule,
                               self.chunk, seed=self.seed * 1_000_003 + i, optimizer=self.opt)
        if err is not None:
            p.check(False, f"train_mlm chunk {i}: {err!r}", n=self.chunk)
            return
        losses = p.samples["loss"]
        for row in trace:
            losses.append(row.loss)
            p.check(math.isfinite(row.loss), f"step {len(losses)}: loss {row.loss}")
            if len(losses) <= self.min_steps:
                p.digest_parts["loss"].append(np.float64(row.loss).tobytes())
        p.samples["step_ms"].extend(1e3 * d for d in self.opt.durations)
        p.totals["tokens"] += len(trace) * self.batch * self.seq_len

    def final_checks(self, p: Pass) -> None:
        losses, w = p.samples["loss"], self.window
        first, last = float(np.mean(losses[:w])), float(np.mean(losses[-w:]))
        p.check(last < first, f"loss did not fall: first {w} mean {first:.4f}, last {last:.4f}")

    def named(self, p: Pass) -> dict:
        steps = p.samples["step_ms"]
        return {"train_tokens_per_s": p.totals["tokens"] / p.timed_s,
                "train_step_ms_p50": percentile(steps, 50),
                "train_step_ms_p90": percentile(steps, 90),
                "train_steps": len(steps)}


class LongdocEncode(Workload):
    name = "longdoc_encode"
    end_to_end_source = {"tokens_per_s": "encode_tokens_per_s", "op_ms_p50": "encode_doc_ms_p50"}

    def __init__(self, seed: int, d_model=96, d_ff=384, lo=256, hi=2048, block=100,
                 min_docs=100):
        super().__init__(seed)
        self.d_model, self.d_ff, self.lo, self.hi = d_model, d_ff, lo, hi
        self.block, self.min_docs = block, min_docs
        self.min_iterations = min_docs

    def _block_docs(self, b: int) -> list:
        # Every block has the same lengths in the same order and new text: the
        # library's per-length kernel cache, and so peak memory, then repeat
        # one pattern however many blocks a run gets through.
        rng = stream(self.seed, 1 + b)
        return [TOKENIZER.encode(self.lexicon.text(rng, int(n))) for n in self.lengths]

    def doc(self, i: int) -> np.ndarray:
        b = i // self.block
        if b != self._block:
            self._docs, self._block = self._block_docs(b), b
        return self._docs[i % self.block]

    def setup(self) -> None:
        self.lexicon = Lexicon(stream(self.seed, 0))
        self.lengths = stratified_lengths(self.block, self.lo, self.hi)
        self._block = -1
        self.first_doc = self.doc(0)
        self.cfg = sm.EncoderConfig(n_layers=2, d_model=self.d_model, d_ff=self.d_ff,
                                    vocab_size=VOCAB, max_positions=self.hi,
                                    mixing=sm.MixingKind.HARTLEY)
        self.state = sm.init_encoder_state(self.cfg, sm.SplitRng(self.seed), with_mlm_head=False)
        # warm the hidden-axis kernel, which every document reuses
        sm.encoder_forward(self.cfg, self.state, self.first_doc[:64])

    def iterate(self, i: int, p: Pass) -> None:
        ids = self.doc(i)
        hidden, elapsed, err = p.call(sm.encoder_forward, self.cfg, self.state, ids)
        if err is not None:
            p.check(False, f"doc {i}: {err!r}")
            return
        v = hidden.value
        p.check(v.shape == (len(ids), self.d_model) and bool(np.isfinite(v).all()),
                f"doc {i}: encoder output has shape {v.shape} or is not finite")
        p.samples["doc_ms"].append(1e3 * elapsed)
        p.totals["tokens"] += len(ids)
        if i < self.min_docs:
            p.digest_parts["encoder"].append(np.array([v.sum(), v[0, 0], v[-1, -1]]).tobytes())

    def final_checks(self, p: Pass) -> None:
        """The first block's mix2d output against a naive 2D DFT of its input.

        The unnormalized outputs reach about 3e4 here, so the gap is judged on
        the orthonormal scale; the absolute gap is reported as well.
        """
        captured = []
        mix2d = sm.encoder.mix2d

        def capture(x, kind):
            out = mix2d(x, kind)
            captured.append((np.array(x), out))
            return out

        sm.encoder.mix2d = capture
        try:
            sm.encoder_forward(self.cfg, self.state, self.first_doc)
        finally:
            sm.encoder.mix2d = mix2d
        x, out = captured[0]
        f = dft_kernel(x.shape[0]) @ x @ dft_kernel(x.shape[1])
        err = float(np.max(np.abs(out - (f.real - f.imag))))
        scaled = err / math.sqrt(x.size)
        p.totals["mix2d_oracle_abs_err"] = err
        p.totals["mix2d_oracle_scaled_err"] = scaled
        p.check(scaled <= ORACLE_TOL,
                f"first-block mix2d is {scaled:.3e} (orthonormal scale) from the naive DFT")

    def named(self, p: Pass) -> dict:
        docs = p.samples["doc_ms"]
        return {"encode_tokens_per_s": p.totals["tokens"] / p.timed_s,
                "encode_doc_ms_p50": percentile(docs, 50),
                "encode_doc_ms_p90": percentile(docs, 90),
                "mix2d_oracle_abs_err": p.totals["mix2d_oracle_abs_err"],
                "mix2d_oracle_scaled_err": p.totals["mix2d_oracle_scaled_err"],
                "docs": len(docs)}


class Summarize(Workload):
    """Cycles of the CLI flow: finetune, checkpoint round trip, generate, evaluate.

    Each cycle trains one epoch of the pair pool, so every cycle does the same
    training work, then summarizes HELDOUT held-out sources of the middle
    length. Decoding ignores end-of-sequence, as decode benchmarks of serving
    systems do: no id the model can emit ends a hypothesis, so every source
    costs max_target_len steps at each beam size. Otherwise the decode work,
    and op_ms_p50 (beam-4 ms per generated token), would follow where each
    seed's model learned to stop rather than the decoder's speed.
    """

    name = "summarize"
    beams = (1, 4)
    HELDOUT = 2
    end_to_end_source = {"tokens_per_s": "tokens_per_s", "op_ms_p50": "beam4_ms_per_token_p50"}

    def __init__(self, seed: int, workdir: Path, d_model=64, d_ff=256, n_heads=4, lo=256,
                 hi=1024, pool=24, batch=4, target_bytes=48):
        super().__init__(seed)
        if pool % batch:
            raise ValueError("pool must be a whole number of batches")
        self.ckpt_path = Path(workdir) / f"summarize-{seed}.spmx"
        self.d_model, self.d_ff, self.n_heads = d_model, d_ff, n_heads
        self.lo, self.hi, self.pool, self.batch = lo, hi, pool, batch
        self.target_bytes = target_bytes

    def _pair(self, rng, n_bytes: int):
        """A source and its lead sentence, cut to target_bytes at a word boundary."""
        source = self.lexicon.text(rng, n_bytes)
        lead = source.split(". ", 1)[0]
        if len(lead) > self.target_bytes:
            lead = lead[:self.target_bytes].rsplit(" ", 1)[0]
        target = np.concatenate((TOKENIZER.encode(lead), [TOKENIZER.eos_id]))
        return TOKENIZER.encode(source), target, lead

    def heldout_pairs(self, cycle: int) -> list:
        # One length for all: decode time grows with the source length, so the
        # per-source times then spread with the program, not the draw.
        rng = stream(self.seed, 1 + cycle)
        return [self._pair(rng, (self.lo + self.hi) // 2) for _ in range(self.HELDOUT)]

    def setup(self) -> None:
        rng = stream(self.seed, 0)
        self.lexicon = Lexicon(rng)
        self.pairs = [self._pair(rng, int(n))[:2]
                      for n in stratified_lengths(self.pool, self.lo, self.hi)]
        self.pool_tokens = sum(len(s) + len(t) for s, t in self.pairs)
        self.ecfg = sm.EncoderConfig(n_layers=2, d_model=self.d_model, d_ff=self.d_ff,
                                     vocab_size=VOCAB, max_positions=self.hi,
                                     mixing=sm.MixingKind.HARTLEY)
        self.dcfg = sm.DecoderConfig(n_layers=2, d_model=self.d_model, d_ff=self.d_ff,
                                     n_heads=self.n_heads, vocab_size=VOCAB,
                                     max_positions=self.target_bytes + 16)
        self.ckpt_config = {"encoder": sm.encoder_config_to_dict(self.ecfg),
                            "decoder": dataclasses.asdict(self.dcfg)}
        self.gen = {b: sm.GenerationConfig(max_input_len=self.hi,
                                           max_target_len=self.target_bytes,
                                           no_repeat_ngram=2, beam_size=b, eos_id=VOCAB)
                    for b in self.beams}
        self.state = sm.init_seq2seq_state(self.ecfg, self.dcfg, sm.SplitRng(self.seed))
        self.opt = StepClock(base_lr=1e-3, warmup_steps=10)
        # warm the kernels of both halves with a discarded backward and a short decode
        tape = sm.Tape()
        tape.backward(sm.seq2seq_loss(self.state, *self.pairs[0], tape))
        self.state.zero_grad()
        sm.generate(self.state, self.pairs[0][0][:64], dataclasses.replace(self.gen[1],
                                                                          max_target_len=2))

    def _round_trip(self):
        arrays = {name: p.value for name, p in self.state.named_params()}
        sm.save_checkpoint(self.ckpt_path, self.ckpt_config, arrays)
        ckpt = sm.load_checkpoint(self.ckpt_path)
        return arrays, ckpt, sm.seq2seq_state_from_arrays(self.ecfg, self.dcfg, ckpt.arrays)

    def iterate(self, c: int, p: Pass) -> None:
        steps = self.pool // self.batch
        self.opt.mark()
        trace, elapsed, err = p.call(sm.train_seq2seq, self.state, self.pairs, steps,
                                     seed=self.seed * 1_000_003 + c, optimizer=self.opt,
                                     batch_size=self.batch)
        if err is not None:
            p.check(False, f"cycle {c}: train_seq2seq: {err!r}", n=steps)
            return
        for row in trace:
            p.check(math.isfinite(row.loss), f"cycle {c}: loss {row.loss}")
            if c == 0:
                p.digest_parts["loss"].append(np.float64(row.loss).tobytes())
        p.samples["step_ms"].extend(1e3 * d for d in self.opt.durations)
        p.totals["train_tokens"] += self.pool_tokens
        p.totals["train_s"] += elapsed

        result, _, err = p.call(self._round_trip)
        if err is not None:
            p.check(False, f"cycle {c}: checkpoint round trip: {err!r}")
            return
        arrays, ckpt, self.state = result
        same = set(ckpt.arrays) == set(arrays) and all(
            ckpt.arrays[n].shape == a.shape and ckpt.arrays[n].tobytes() == a.tobytes()
            for n, a in arrays.items())
        p.check(same, f"cycle {c}: checkpoint round trip changed the arrays")

        for source, _, reference in self.heldout_pairs(c):
            for beam in self.beams:
                self._summarize(c, beam, source, reference, p)

    def _summarize(self, c: int, beam: int, source, reference: str, p: Pass) -> None:
        gen = self.gen[beam]
        out, elapsed, err = p.call(sm.generate, self.state, source, gen)
        if err is not None:
            p.check(False, f"cycle {c}: generate beam {beam}: {err!r}")
            return
        problem = generation_problem(out, gen)
        p.check(problem is None, f"cycle {c}: beam {beam}: {problem}")
        p.samples[f"beam{beam}_ms_per_token"].append(1e3 * elapsed / max(len(out), 1))
        p.totals["gen_tokens"] += len(out)
        p.totals["decode_tokens"] += min(len(source), gen.max_input_len) + len(out)
        p.totals["decode_s"] += elapsed
        if c == 0:
            p.digest_parts["generated"].append(np.asarray(out, dtype=np.int64).tobytes() + b"|")
        hyp = TOKENIZER.decode(out)
        scores, _, err = p.call(lambda: (sm.rougeL_f(hyp, reference), sm.rouge1_f(hyp, reference)))
        p.check(err is None and all(rouge_in_range(s) for s in scores),
                f"cycle {c}: ROUGE out of [0, 1] or failed: {err!r}")

    def named(self, p: Pass) -> dict:
        t = p.totals
        return {"tokens_per_s": (t["train_tokens"] + t["decode_tokens"]) / p.timed_s,
                "train_tokens_per_s": t["train_tokens"] / t["train_s"] if t["train_s"] else 0.0,
                "train_step_ms_p50": percentile(p.samples["step_ms"], 50),
                "gen_tokens_per_s": t["gen_tokens"] / t["decode_s"] if t["decode_s"] else 0.0,
                "generate_share": t["decode_s"] / p.timed_s,
                "greedy_ms_per_token_p50": percentile(p.samples["beam1_ms_per_token"], 50),
                "beam4_ms_per_token_p50": percentile(p.samples["beam4_ms_per_token"], 50),
                "train_steps": len(p.samples["step_ms"]),
                "sources": len(p.samples["beam4_ms_per_token"]),
                "generated_tokens": int(t["gen_tokens"])}


WORKLOADS = {cls.name: cls for cls in (MlmPretrain, LongdocEncode, Summarize)}


def make_workload(name: str, seed: int, workdir: Path, **sizes) -> Workload:
    cls = WORKLOADS[name]
    if cls is Summarize:
        return cls(seed, workdir, **sizes)
    return cls(seed, **sizes)
