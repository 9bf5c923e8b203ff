"""Payload query surface: PayloadTermQuery / payload aggregation.

Reference: ``Search/Payloads/PayloadTermQuery.cs`` (a SpanTermQuery whose
scorer additionally folds a PayloadFunction over each match's payload),
``AveragePayloadFunction.cs`` / ``MinPayloadFunction.cs`` /
``MaxPayloadFunction.cs``; tests ``Search/Payloads/TestPayloadTermQuery.cs``.
Payloads here are per-position integers written by the index when
``IndexConfig.payloads`` is set (offset payloads — the
TokenOffsetPayloadTokenFilter analog; see ``IndexConfig.payloads``).

Aggregation is fully vectorized: a chunk's payload stream decodes to a flat
array + per-doc offsets, and per-doc min/max/sum reduce with
``np.minimum.reduceat``-style segment ops — no per-doc Python loops.
"""

from __future__ import annotations

import numpy as np

from lucenenet_ray.search.bm25 import TermWeight, avg_field_length, norm_cache


def _per_doc_reduce(chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n, min, max, sum) per doc of one chunk's payload stream."""
    flat, offs = chunk.payloads_flat()
    freqs = chunk.freqs().astype(np.int64)
    nz = freqs > 0
    starts = offs[:-1][nz]
    mins = np.full(chunk.df, 0, dtype=np.int64)
    maxs = np.full(chunk.df, 0, dtype=np.int64)
    sums = np.zeros(chunk.df, dtype=np.int64)
    if flat.size:
        mins[nz] = np.minimum.reduceat(flat, starts)
        maxs[nz] = np.maximum.reduceat(flat, starts)
        sums[nz] = np.add.reduceat(flat, starts)
    return freqs, mins, maxs, sums


def payload_stats(reader, term: str) -> list[tuple[int, int, int, int, int]]:
    """Per-doc payload aggregates for ``term``: [(doc_id, n, min, max, sum)]
    in doc order — the PayloadSpanUtil.GetPayloadsForQuery-style bulk
    retrieval surface (Search/Payloads/PayloadSpanUtil.cs), aggregated
    instead of materializing every payload byte."""
    out: list[tuple[int, int, int, int, int]] = []
    for b in reader.bucket_ids:
        bd = reader.bucket(b)
        c = bd.chunks_for_terms([term]).get(term)
        if c is None:
            continue
        n, mn, mx, sm = _per_doc_reduce(c)
        docs = c.docs()
        for i in range(c.df):
            out.append((int(docs[i]), int(n[i]), int(mn[i]), int(mx[i]),
                        int(sm[i])))
    out.sort()
    return out


def payload_term_topk(reader, term: str, k: int = 10,
                      fn: str = "avg") -> list[tuple[int, float]]:
    """PayloadTermQuery with includeSpanScore=true: score = spanScore ×
    payloadFactor, both float32 (PayloadTermQuery.PayloadTermWeight
    .PayloadTermSpanScorer.GetScoreCurrentDoc: ``scorer.SloppyFreq``-based
    span score times ``payloadScore``). For a single-term span, spanScore
    equals the term's BM25 score (sloppyFreq(0)=1 per match ⇒ freq=tf);
    payloadFactor = AveragePayloadFunction (sum/count, float32) or min/max.
    Ties break by doc ascending (HitQueue)."""
    N = reader.num_docs
    avgdl = avg_field_length(reader.sum_total_term_freq, N)
    cache = norm_cache(avgdl)
    stats = reader.term_stats([term])
    if term not in stats:
        return []
    df, ttf = stats[term]
    w = TermWeight.build(term, df, ttf, N)
    all_d: list[np.ndarray] = []
    all_s: list[np.ndarray] = []
    for b in reader.bucket_ids:
        bd = reader.bucket(b)
        c = bd.chunks_for_terms([term]).get(term)
        if c is None:
            continue
        from lucenenet_ray.search.bm25 import score_freqs

        norms = bd.norm_of_docs(c.docs())
        span_score = score_freqs(c.freqs(), norms, w.weight_value, cache)
        n, mn, mx, sm = _per_doc_reduce(c)
        if fn == "avg":
            # AveragePayloadFunction.DocScore: payloadScore / numPayloadsSeen
            # (float division of the float32 running sum; payload values are
            # exact ints ≤ 2^24 here, so the float32 sum is exact and the
            # division is one correctly-rounded float32 op)
            factor = (sm.astype(np.float32) / n.astype(np.float32)).astype(np.float32)
        elif fn == "min":
            factor = mn.astype(np.float32)
        elif fn == "max":
            factor = mx.astype(np.float32)
        else:
            raise ValueError(f"unknown payload function {fn!r}")
        all_d.append(c.docs())
        all_s.append((span_score * factor).astype(np.float32))
    if not all_d:
        return []
    docs = np.concatenate(all_d)
    scores = np.concatenate(all_s)
    order = np.lexsort((docs, -scores))[:k]
    return [(int(docs[i]), float(scores[i])) for i in order]
