"""Span queries: positional span algebra over the positions index.

The ``Search/Spans`` module analog (``SpanTermQuery.cs``, ``SpanNearQuery.cs``
/ ``NearSpansOrdered.cs:42-96`` shrinkToAfterShortestMatch, ``SpanOrQuery.cs``,
``SpanNotQuery.cs``, ``SpanFirstQuery.cs``; scoring ``SpanScorer.cs:61-76``).

A span is (start, end) in token positions, end exclusive. Semantics:

- SpanTerm: one (p, p+1) span per occurrence.
- SpanNear(in_order=True): minimal ordered matches — each emitted span has
  every clause's sub-span starting at/after the previous clause's end, the
  leading clauses advanced as far as order allows (the shortest-match shrink
  of NearSpansOrdered); match slop = (end - start) - Σ sub-span lengths.
- SpanNear(in_order=False): greedy smallest-window combination: repeatedly
  take the current tuple's (min start, max end) window, emit if within slop,
  then advance the earliest-starting clause (NearSpansUnordered's queue).
- SpanOr: position-sorted union. SpanNot: include spans that overlap no
  exclude span. SpanFirst: spans with end <= n.

Scoring is BM25 with freq = float32 Σ 1/(matchSlop+1) over a doc's spans
(SloppyFreq — SpanScorer accumulates per-span sloppyFreq) and weight idf =
sum over all clause terms in extraction order, like phrase weights.

Per-doc span combination is scalar Python over numpy position slices — span
queries run on top-k candidates and short position lists; the doc-candidate
intersection and position gathering below it stay vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lucenenet_ray.search.bm25 import score_freqs
from lucenenet_ray.search.reader import BucketData, IndexReader, PostingsChunk
from lucenenet_ray.search.searcher import (
    TopDocs,
    _EMPTY_D,
    _EMPTY_S,
    _topk,
    plan_query,
)
from lucenenet_ray.search.query import Query, TermQuery


@dataclass(frozen=True)
class SpanQuery:
    boost: float = 1.0


@dataclass(frozen=True)
class SpanTermQuery(SpanQuery):
    term: str = ""


@dataclass(frozen=True)
class SpanNearQuery(SpanQuery):
    clauses: tuple[SpanQuery, ...] = ()
    slop: int = 0
    in_order: bool = True


@dataclass(frozen=True)
class SpanOrQuery(SpanQuery):
    clauses: tuple[SpanQuery, ...] = ()


@dataclass(frozen=True)
class SpanNotQuery(SpanQuery):
    include: SpanQuery = None
    exclude: SpanQuery = None


@dataclass(frozen=True)
class SpanFirstQuery(SpanQuery):
    match: SpanQuery = None
    end: int = 0


@dataclass(frozen=True)
class SpanPositionRangeQuery(SpanQuery):
    """Spans whose positions fall inside [start, end]
    (``Search/Spans/SpanPositionRangeQuery.cs:60-66`` AcceptPosition:
    span.start >= self.start AND span.end <= self.end; SpanFirstQuery is
    the start=0 special case)."""

    match: SpanQuery = None
    start: int = 0
    end: int = 0


@dataclass(frozen=True)
class SpanPayloadCheckQuery(SpanQuery):
    """Spans of ``match`` whose per-position payload sequence equals
    ``payloads`` exactly, in order (``Search/Spans/SpanPayloadCheckQuery.cs``
    AcceptPosition :57-88: count equal + element-wise Arrays.Equals; a span
    with NO payload is accepted — the ``result == false → YES`` arm :87).
    SpanNearQuery is rejected as the match, like the reference ctor :50-53
    — use SpanNearPayloadCheckQuery. Payloads here are the index's
    per-position integers (offset payloads; see search/payloads.py)."""

    match: SpanQuery = None
    payloads: tuple[int, ...] = ()

    def __post_init__(self):
        if isinstance(self.match, SpanNearQuery):
            raise ValueError("SpanNearQuery not allowed — use "
                             "SpanNearPayloadCheckQuery")


@dataclass(frozen=True)
class SpanNearPayloadCheckQuery(SpanQuery):
    """Payload check over a SpanNearQuery
    (``Search/Spans/SpanNearPayloadCheckQuery.cs`` AcceptPosition :47-85):
    near payloads are not order-stable, so the check is count-equality plus
    every candidate payload equalling SOME target payload (first-match,
    per-candidate ``break`` — duplicates in the target are not consumed);
    a span with no payload is REJECTED (the trailing ``return NO`` :85)."""

    match: SpanQuery = None
    payloads: tuple[int, ...] = ()


@dataclass(frozen=True)
class SpanFieldMaskingQuery(SpanQuery):
    """Lie about a span clause's field so it can compose with clauses of
    another field (``Search/Spans/FieldMaskingSpanQuery.cs`` — GetField()
    returns ``field`` while GetSpans/Rewrite/Extract fully delegate to
    ``match``, :102-117; scoring keeps the WRAPPED field's statistics,
    the documented :62-66 caveat). Here fields are prefixed terms in one
    position space, and span algebra never re-checks fields — so, exactly
    like the reference's GetSpans, evaluation is the identity on ``match``;
    the wrapper's value is composing aligned-position fields (the
    reference's parallel-array pattern) inside one SpanNear."""

    match: SpanQuery = None
    field: str = ""


def span_multi_term_wrapper(reader: "IndexReader", mtq) -> SpanOrQuery:
    """SpanMultiTermQueryWrapper
    (``Search/Spans/SpanMultiTermQueryWrapper.cs`` with
    SpanOrTermsQuery/SpanRewriteMethod — the wrapper rewrites the
    multi-term query against the term dictionary into a SpanOr over
    matching SpanTermQueries, which then composes with any span operator).
    Uses the reader's type-aware ``expand_query`` pushdown (range-scan for
    prefix/term-range, literal-prefix restriction for wildcard/regexp), so
    the rewrite never scans the whole vocabulary for pushdown-able types."""
    terms = reader.expand_query(mtq)
    return SpanOrQuery(
        clauses=tuple(SpanTermQuery(term=t) for t in sorted(terms)))


def extract_terms(q: SpanQuery, out: list[str]) -> None:
    """Clause terms in extraction order (SpanWeight term extraction)."""
    if isinstance(q, SpanTermQuery):
        out.append(q.term)
    elif isinstance(q, SpanNearQuery) or isinstance(q, SpanOrQuery):
        for c in q.clauses:
            extract_terms(c, out)
    elif isinstance(q, SpanNotQuery):
        extract_terms(q.include, out)
        extract_terms(q.exclude, out)
    elif isinstance(q, (SpanFirstQuery, SpanPositionRangeQuery,
                        SpanPayloadCheckQuery, SpanNearPayloadCheckQuery,
                        SpanFieldMaskingQuery)):
        extract_terms(q.match, out)


# ---------------------------------------------------------------------------
# span algebra on per-doc (start, end) lists (position-sorted)

Spans = list[tuple[int, int]]


def _emit(lists, idx, start: int, end: int):
    """Near-span emit: plain (start, end), or (start, end, payloads) when
    any constituent carries payloads — concatenated in clause order, the
    NearSpans.GetPayload collection order."""
    pl: tuple[int, ...] = ()
    has = False
    for i in range(len(lists)):
        sp = lists[i][idx[i]]
        if len(sp) > 2:
            has = True
            pl = pl + sp[2]
    return (start, end, pl) if has else (start, end)


def near_ordered(lists: list[Spans], slop: int) -> Spans:
    n = len(lists)
    if any(not l for l in lists):
        return []
    idx = [0] * n
    out: Spans = []
    while True:
        ok = True
        for i in range(1, n):
            while (idx[i] < len(lists[i])
                   and lists[i][idx[i]][0] < lists[i - 1][idx[i - 1]][1]):
                idx[i] += 1
            if idx[i] >= len(lists[i]):
                ok = False
                break
        if not ok:
            return out
        # shrink-to-shortest: advance leading clauses while order holds
        changed = True
        while changed:
            changed = False
            for i in range(n - 1):
                ni = idx[i] + 1
                if (ni < len(lists[i])
                        and lists[i][ni][1] <= lists[i + 1][idx[i + 1]][0]
                        and (i == 0 or lists[i][ni][0] >= lists[i - 1][idx[i - 1]][1])):
                    idx[i] = ni
                    changed = True
        start = lists[0][idx[0]][0]
        end = lists[n - 1][idx[n - 1]][1]
        length = sum(lists[i][idx[i]][1] - lists[i][idx[i]][0] for i in range(n))
        if end - start - length <= slop:
            out.append(_emit(lists, idx, start, end))
        idx[0] += 1
        if idx[0] >= len(lists[0]):
            return out


def near_unordered(lists: list[Spans], slop: int) -> Spans:
    n = len(lists)
    if any(not l for l in lists):
        return []
    idx = [0] * n
    out: Spans = []
    while True:
        starts = [lists[i][idx[i]][0] for i in range(n)]
        ends = [lists[i][idx[i]][1] for i in range(n)]
        start, end = min(starts), max(ends)
        length = sum(e - s for s, e in zip(starts, ends))
        if end - start - length <= slop:
            if not out or (out[-1][0], out[-1][1]) != (start, end):
                out.append(_emit(lists, idx, start, end))
        i_min = int(np.argmin(starts))
        idx[i_min] += 1
        if idx[i_min] >= len(lists[i_min]):
            return out


def span_or(lists: list[Spans]) -> Spans:
    merged = sorted(x for l in lists for x in l)
    return merged


def span_not(include: Spans, exclude: Spans) -> Spans:
    out = []
    for sp in include:
        s, e = sp[0], sp[1]
        if not any(x[0] < e and s < x[1] for x in exclude):
            out.append(sp)
    return out


def span_first(match: Spans, end: int) -> Spans:
    return [sp for sp in match if sp[1] <= end]


def span_position_range(match: Spans, start: int, end: int) -> Spans:
    return [sp for sp in match if sp[0] >= start and sp[1] <= end]


def _spans_for(q: SpanQuery, positions_of, payloads_of=None,
               with_pl: bool = False) -> Spans:
    """Evaluate the span tree for ONE doc. ``positions_of(term)`` returns
    the doc's ascending position array for a term (empty if absent);
    ``payloads_of(term)`` the parallel payload array (or None when the
    index carries no payload stream). ``with_pl`` makes term spans carry
    their payloads as a 3rd tuple element (payload-check subtrees)."""
    if isinstance(q, SpanTermQuery):
        pos = positions_of(q.term)
        if with_pl and payloads_of is not None:
            pl = payloads_of(q.term)
            if pl is not None and len(pl) == len(pos):
                return [(int(p), int(p) + 1, (int(v),))
                        for p, v in zip(pos, pl)]
        return [(int(p), int(p) + 1) for p in pos]
    if isinstance(q, SpanNearQuery):
        lists = [_spans_for(c, positions_of, payloads_of, with_pl)
                 for c in q.clauses]
        return (near_ordered(lists, q.slop) if q.in_order
                else near_unordered(lists, q.slop))
    if isinstance(q, SpanOrQuery):
        return span_or([_spans_for(c, positions_of, payloads_of, with_pl)
                        for c in q.clauses])
    if isinstance(q, SpanNotQuery):
        return span_not(
            _spans_for(q.include, positions_of, payloads_of, with_pl),
            _spans_for(q.exclude, positions_of, payloads_of, with_pl))
    if isinstance(q, SpanFirstQuery):
        return span_first(
            _spans_for(q.match, positions_of, payloads_of, with_pl), q.end)
    if isinstance(q, SpanPositionRangeQuery):
        return span_position_range(
            _spans_for(q.match, positions_of, payloads_of, with_pl),
            q.start, q.end)
    if isinstance(q, SpanPayloadCheckQuery):
        subs = _spans_for(q.match, positions_of, payloads_of, with_pl=True)
        out: Spans = []
        for sp in subs:
            if len(sp) < 3:
                # no payload available → YES (SpanPayloadCheckQuery.cs:87)
                out.append(sp if with_pl else (sp[0], sp[1]))
                continue
            cand = sp[2]
            if cand == q.payloads:
                out.append(sp if with_pl else (sp[0], sp[1]))
        return out
    if isinstance(q, SpanNearPayloadCheckQuery):
        subs = _spans_for(q.match, positions_of, payloads_of, with_pl=True)
        out = []
        for sp in subs:
            if len(sp) < 3:
                continue  # no payload → NO (SpanNearPayloadCheckQuery.cs:85)
            cand = sp[2]
            if (len(cand) == len(q.payloads)
                    and all(c in q.payloads for c in cand)):
                out.append(sp if with_pl else (sp[0], sp[1]))
        return out
    if isinstance(q, SpanFieldMaskingQuery):
        # FieldMaskingSpanQuery.GetSpans delegates untouched (:102-104)
        return _spans_for(q.match, positions_of, payloads_of, with_pl)
    raise TypeError(f"unsupported span node {type(q)}")


# ---------------------------------------------------------------------------
# bucket evaluation + search


def _required_terms(q: SpanQuery) -> list[set[str]]:
    """Conjunctive candidate pre-filter: sets of alternatives, one per
    REQUIRED slot (SpanOr contributes one set; SpanNot only its include)."""
    if isinstance(q, SpanTermQuery):
        return [{q.term}]
    if isinstance(q, SpanNearQuery):
        out = []
        for c in q.clauses:
            out.extend(_required_terms(c))
        return out
    if isinstance(q, SpanOrQuery):
        alts: set[str] = set()
        for c in q.clauses:
            ts: list[str] = []
            extract_terms(c, ts)
            alts.update(ts)
        return [alts]
    if isinstance(q, SpanNotQuery):
        return _required_terms(q.include)
    if isinstance(q, (SpanFirstQuery, SpanPositionRangeQuery,
                      SpanPayloadCheckQuery, SpanNearPayloadCheckQuery,
                      SpanFieldMaskingQuery)):
        return _required_terms(q.match)
    return []


def _has_payload_check(q: SpanQuery) -> bool:
    if isinstance(q, (SpanPayloadCheckQuery, SpanNearPayloadCheckQuery)):
        return True
    if isinstance(q, (SpanNearQuery, SpanOrQuery)):
        return any(_has_payload_check(c) for c in q.clauses)
    if isinstance(q, SpanNotQuery):
        return _has_payload_check(q.include) or _has_payload_check(q.exclude)
    if isinstance(q, (SpanFirstQuery, SpanPositionRangeQuery,
                      SpanFieldMaskingQuery)):
        return _has_payload_check(q.match)
    return False


def span_eval_bucket(q: SpanQuery, bucket: BucketData,
                     chunks: dict[str, PostingsChunk]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """→ (bucket-local rows, float32 span freqs Σ 1/(matchSlop+1))."""
    req = _required_terms(q)
    nb = bucket.n_docs
    cnt = np.zeros(nb, dtype=np.int16)
    for alts in req:
        present = np.zeros(nb, dtype=bool)
        hit = False
        for t in alts:
            c = chunks.get(t)
            if c is not None:
                present[c.local_ids(bucket)] = True
                hit = True
        if not hit:
            return _EMPTY_D, _EMPTY_S
        cnt[present] += 1
    cand_l = np.flatnonzero(cnt == len(req))
    if cand_l.size == 0:
        return _EMPTY_D, _EMPTY_S

    terms: list[str] = []
    extract_terms(q, terms)
    need_pl = _has_payload_check(q)
    per_term = {}
    pl_of_term = {}
    for t in set(terms):
        c = chunks.get(t)
        if c is None:
            per_term[t] = None
        else:
            per_term[t] = (c.row_of_local(bucket)[cand_l],) + c.positions_flat()
            if need_pl:
                try:
                    pl_of_term[t] = c.payloads_flat()[0]
                except ValueError:
                    pl_of_term[t] = None  # no payload stream in this index

    freqs = np.zeros(cand_l.size, dtype=np.float32)
    empty = np.empty(0, dtype=np.int64)
    for k in range(cand_l.size):
        def positions_of(t: str, _k=k):
            e = per_term.get(t)
            if e is None:
                return empty
            rows, flat, offs = e
            r = rows[_k]
            if r < 0:
                return empty
            return flat[offs[r]:offs[r + 1]]

        payloads_of = None
        if need_pl:
            def payloads_of(t: str, _k=k):  # noqa: F811
                e = per_term.get(t)
                plf = pl_of_term.get(t)
                if plf is None:
                    return None  # no payload stream → payload-less spans
                if e is None:
                    return empty
                rows, _flat, offs = e
                r = rows[_k]
                if r < 0:
                    return empty
                return plf[offs[r]:offs[r + 1]]

        spans = _spans_for(q, positions_of, payloads_of)
        if spans:
            # SpanScorer: freq += SloppyFreq(matchLength) per span, where
            # matchLength = end - start - 1 (single-span slop consumed)
            f = np.float32(0.0)
            for s, e in spans:
                f = np.float32(f + np.float32(1.0) / np.float32(e - s))
            freqs[k] = f
    return cand_l, freqs


def span_search(reader: IndexReader, q: SpanQuery, k: int = 10) -> TopDocs:
    """Top-k BM25 over span freq (SpanScorer path), TopDocs.Merge order."""
    terms: list[str] = []
    extract_terms(q, terms)
    # reuse the main planner for stats/weights/cache (phrase-weight shape)
    bq = TermQuery(term=terms[0])  # plan needs a node; weights come per term
    plan = plan_query(reader, bq)
    stats = reader.term_stats(sorted(set(terms)))
    from lucenenet_ray.search.bm25 import TermWeight

    s = np.float32(0.0)
    for t in terms:  # extraction order (SpanWeight.BuildSimWeight)
        if t in stats:
            w = TermWeight.build(t, stats[t][0], stats[t][1], reader.num_docs,
                                 k1=plan.k1)
            s = np.float32(s + w.idf)
    wv = np.float32(np.float32(s * np.float32(q.boost))
                    * np.float32(np.float32(plan.k1) + np.float32(1.0)))
    all_d, all_s, total = [], [], 0
    for b in reader.bucket_ids:
        bd = reader.bucket(b)
        chunks = bd.chunks_for_terms(sorted(set(terms)))
        lidx, freqs = span_eval_bucket(q, bd, chunks)
        live = bd.live_mask(plan.deleted_terms)
        if live is not None and lidx.size:
            keep = live[lidx]
            lidx, freqs = lidx[keep], freqs[keep]
        m = freqs > 0
        lidx, freqs = lidx[m], freqs[m]
        if lidx.size == 0:
            continue
        norms = bd.norms()[2][lidx]
        scores = score_freqs(freqs, norms, wv, plan.cache)
        docs = bd.norms()[0][lidx]
        d, sc = _topk(docs, scores, k)
        all_d.append(d)
        all_s.append(sc)
        total += int(lidx.size)
    docs = np.concatenate(all_d) if all_d else _EMPTY_D
    scores = np.concatenate(all_s) if all_s else _EMPTY_S
    d, sc = _topk(docs, scores, k)
    return TopDocs(docs=d, scores=sc, total_hits=total)


def span_counts(reader: IndexReader, q: SpanQuery) -> list[tuple[int, int]]:
    """(doc_id, n_spans) for every matching doc, doc_id ascending — the
    Spans-enumeration surface (used by the driver oracle check)."""
    out = []
    terms: list[str] = []
    extract_terms(q, terms)
    for b in reader.bucket_ids:
        bd = reader.bucket(b)
        chunks = bd.chunks_for_terms(sorted(set(terms)))
        lidx, _freqs = span_eval_bucket(q, bd, chunks)
        if lidx.size == 0:
            continue
        # recount integer span counts (freqs are sloppy-weighted)
        need_pl = _has_payload_check(q)
        per_term = {}
        pl_of_term = {}
        for t in set(terms):
            c = chunks.get(t)
            per_term[t] = None if c is None else (
                (c.row_of_local(bd)[lidx],) + c.positions_flat())
            if need_pl and c is not None:
                try:
                    pl_of_term[t] = c.payloads_flat()[0]
                except ValueError:
                    pl_of_term[t] = None
        empty = np.empty(0, dtype=np.int64)
        doc_ids = bd.norms()[0]
        for k in range(lidx.size):
            def positions_of(t: str, _k=k):
                e = per_term.get(t)
                if e is None:
                    return empty
                rows, flat, offs = e
                r = rows[_k]
                if r < 0:
                    return empty
                return flat[offs[r]:offs[r + 1]]

            payloads_of = None
            if need_pl:
                def payloads_of(t: str, _k=k):  # noqa: F811
                    e = per_term.get(t)
                    plf = pl_of_term.get(t)
                    if plf is None:
                        return None
                    if e is None:
                        return empty
                    rows, _flat, offs = e
                    r = rows[_k]
                    if r < 0:
                        return empty
                    return plf[offs[r]:offs[r + 1]]

            spans = _spans_for(q, positions_of, payloads_of)
            if spans:
                out.append((int(doc_ids[lidx[k]]), len(spans)))
    out.sort()
    return out
