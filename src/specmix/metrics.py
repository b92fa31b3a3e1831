"""Summarization metrics: ROUGE-1/L and the relative-performance summary
statistic.

ROUGE normalization is deliberately minimal and deterministic: lowercase,
split on whitespace, no stemming. Scores are therefore comparable across runs
of this library, not against scorers with different normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    fmeasure: float


@dataclass(frozen=True)
class TaskMetricPair:
    candidate: float
    reference: float
    task: str = ""


def _tokens(text: str) -> list:
    return text.lower().split()


def _score(overlap: int, n_hyp: int, n_ref: int) -> RougeScore:
    if n_hyp == 0 or n_ref == 0:
        return RougeScore(0.0, 0.0, 0.0)
    p = overlap / n_hyp
    r = overlap / n_ref
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return RougeScore(p, r, f)


def rouge1_f(hyp: str, ref: str) -> RougeScore:
    """Clipped unigram overlap f-measure."""
    h, r = _tokens(hyp), _tokens(ref)
    counts = {}
    for tok in r:
        counts[tok] = counts.get(tok, 0) + 1
    overlap = 0
    for tok in h:
        if counts.get(tok, 0) > 0:
            counts[tok] -= 1
            overlap += 1
    return _score(overlap, len(h), len(r))


def _lcs_len(a: list, b: list) -> int:
    # classic O(len(a)*len(b)) dynamic program, one rolling row
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                row.append(prev[j - 1] + 1)
            else:
                row.append(max(row[-1], prev[j]))
        prev = row
    return prev[-1]


def rougeL_f(hyp: str, ref: str) -> RougeScore:
    """Longest-common-subsequence f-measure."""
    h, r = _tokens(hyp), _tokens(ref)
    return _score(_lcs_len(h, r), len(h), len(r))


def relative_performance(pairs) -> float:
    """Mean over tasks of candidate/reference (task-level ratios, then mean)."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("relative_performance: empty pair list")
    ratios = []
    for pair in pairs:
        if pair.reference <= 0:
            raise ValueError(
                f"relative_performance: nonpositive reference for task {pair.task!r}"
            )
        ratios.append(pair.candidate / pair.reference)
    return float(np.mean(ratios))
