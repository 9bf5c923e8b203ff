"""Top-k BM25 search over the merged index: per-bucket scorers + global merge.

Execution model mirrors ``IndexSearcher.Search`` (SURVEY §3.2): the driver
captures GLOBAL collection/term statistics once (idf from whole-index df — the
thing that makes scores comparable across buckets, ``IndexSearcher.cs:982-1007``),
builds a QueryPlan (the CreateNormalizedWeight analog), then each doc-range
bucket is scored independently (the per-segment Scorer analog) and the
per-bucket top-k are merged with ``TopDocs.Merge`` semantics: score desc,
then docID asc (``HitQueue.cs:77-87``; bucket order == docID-range order, so
(score desc, docID asc) reproduces (score, shardIndex, hit-order) exactly —
``TopDocs.cs:255-340``).

Float32 discipline: per-clause scores are float32; a document's Boolean score
is the float32 sum of its clause scores **in clause order** (BooleanScorer
accumulates score += in subscorer order over 2048-doc windows,
``BooleanScorer.cs:60-144``). Coord is 1 for BM25
(``Similarity.cs:117-121``).

Block-max pruning (``prune=True``): a lossless MaxScore/block-max variant —
clauses are evaluated in descending upper-bound order; once the top-k lower
bound exceeds the sum of remaining clause upper bounds, remaining clauses are
evaluated ONLY on current candidates, decoding just the 128-postings blocks
that contain candidates (via the skip/block-max metadata, SURVEY §2.5). The
final accumulation replays contributions in clause order, so pruned results
are bit-identical to the exhaustive path (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lucenenet_ray.index.codec import (
    BLOCK_SIZE,
    SKIP1_FANOUT,
    decode_doc_block,
    decode_freq_block,
)
from lucenenet_ray.search.bm25 import (
    B_DEFAULT,
    K1_DEFAULT,
    TermWeight,
    avg_field_length,
    norm_cache,
    score_freqs,
    upper_bound,
)
from lucenenet_ray.search.query import (
    BooleanClause,
    BooleanQuery,
    DisjunctionMaxQuery,
    DocIdSetQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    MultiTermQuery,
    NumericDocValuesRangeQuery,
    Occur,
    PhraseQuery,
    Query,
    TermQuery,
)
from lucenenet_ray.search.reader import BucketData, IndexReader, PostingsChunk


@dataclass
class QueryPlan:
    """Driver-side precomputed query state, shipped to bucket scorers."""

    query: Query
    k1: float
    b: float
    num_docs: int
    avgdl: np.float32
    cache: np.ndarray  # float32[256]
    # weights keyed (term, boost): weightValue = idf * boost * (k1+1), so the
    # same term under different boosts gets distinct float32 weights
    # (TermWeight/BM25Stats; QueryParser ^boost)
    weights: dict[tuple[str, float], TermWeight]
    phrase_weights: dict[tuple, np.float32]  # phrase terms → weight_value
    # MultiTermQuery rewrites keyed by the frozen query node itself (NOT
    # id(q)): plans are pickled to QueryServer actors, and value-based keys
    # survive serialization where object identity does not.
    expansions: dict[Query, tuple[str, ...]]
    all_terms: tuple[str, ...]
    # norm cache used for omit-norms fields (every entry = k1: "if there are
    # no norms, we act as if b=0", BM25Similarity.cs:267-268)
    cache_k1: np.ndarray = None
    # tombstone delete-by-term entries captured at plan time (reader state →
    # shipped with the plan to QueryServer actors; each bucket resolves its
    # live mask once and caches it). Stats/weights above are over ALL docs —
    # Lucene's pre-merge liveDocs semantics (SegmentReader liveDocs).
    deleted_terms: tuple[str, ...] = ()
    # numeric doc-values update generations captured at plan time (same
    # ship-with-the-plan model as deleted_terms): NumericDocValuesRangeQuery
    # resolves them per bucket so range filters see updated values
    dv_updates: tuple[tuple[str, str, int], ...] = ()
    # Similarity override (Similarity.cs / PerFieldSimilarityWrapper surface):
    # "bm25" (default) or "classic" (TFIDFSimilarity/DefaultSimilarity —
    # sqrt-tf · idf² · queryNorm · decoded norm, with Boolean coord).
    similarity: str = "bm25"
    classic_table: np.ndarray = None
    # SimilarityBase family (simbase.py): a SimBaseSpec when similarity ==
    # "simbase" — DFR / IB / LM Dirichlet / LM Jelinek-Mercer scoring over
    # the SAME norm bytes (SimilarityBase.EncodeNormValue == BM25's).
    simbase: object = None
    sim_nft: int = 0  # BasicStats.NumberOfFieldTokens (= sumTotalTermFreq)
    sim_avg: np.float32 = None  # float32 avgFieldLength (SimilarityBase.cs:138)

    def cache_for(self, term: str) -> np.ndarray:
        from lucenenet_ray.search.query import FIELD_SEP

        return self.cache_k1 if FIELD_SEP in term else self.cache


def _collect_terms(q: Query, reader: IndexReader, terms: set[str],
                   wkeys: set[tuple[str, float]],
                   expansions: dict[Query, tuple[str, ...]]) -> None:
    if isinstance(q, TermQuery):
        terms.add(q.term)
        wkeys.add((q.term, float(q.boost)))
    elif isinstance(q, PhraseQuery):
        terms.update(t for t, _ in q.terms)
        wkeys.update((t, 1.0) for t, _ in q.terms)  # idf lookup for phrases
    elif isinstance(q, MultiPhraseQuery):
        for ts, _ in q.slots:
            terms.update(ts)
            wkeys.update((t, 1.0) for t in ts)
    elif isinstance(q, BooleanQuery):
        for c in q.clauses:
            _collect_terms(c.query, reader, terms, wkeys, expansions)
    elif isinstance(q, DisjunctionMaxQuery):
        for sq in q.disjuncts:
            _collect_terms(sq, reader, terms, wkeys, expansions)
    elif isinstance(q, MultiTermQuery):
        exp = tuple(reader.expand_query(q))
        expansions[q] = exp
        terms.update(exp)
        # scoring-boolean rewrite: each expanded TermQuery inherits the
        # parent query's boost (MultiTermQuery.ScoringBooleanQueryRewrite)
        wkeys.update((t, float(q.boost)) for t in exp)
    elif isinstance(q, MatchAllDocsQuery):
        pass
    elif isinstance(q, NumericDocValuesRangeQuery):
        # no terms of its own, but doc-values UPDATE resolution needs the
        # update terms' postings in every bucket (reader.numeric_docvalues
        # model, shipped via plan.dv_updates)
        terms.update(t for (t, f, _v) in getattr(reader, "dv_updates", ())
                     if f == q.field)
    elif isinstance(q, DocIdSetQuery):
        pass  # precomputed set — no terms, no stats
    else:  # pragma: no cover
        raise TypeError(f"unsupported query node {type(q)}")


def plan_query(reader: IndexReader, query: Query,
               k1: float = K1_DEFAULT, b: float = B_DEFAULT,
               similarity: str = "bm25") -> QueryPlan:
    """Rewrite + weight computation (the CreateNormalizedWeight analog)."""
    terms: set[str] = set()
    wkeys: set[tuple[str, float]] = set()
    expansions: dict[Query, tuple[str, ...]] = {}
    _collect_terms(query, reader, terms, wkeys, expansions)
    stats = reader.term_stats(sorted(terms))
    n = reader.num_docs
    avgdl = avg_field_length(reader.sum_total_term_freq, n)
    cache = norm_cache(avgdl, k1, b)
    if similarity == "classic":
        return _plan_classic(reader, query, stats, n, k1, cache, terms)
    if not isinstance(similarity, str):
        return _plan_simbase(reader, query, stats, n, k1, cache, terms,
                             similarity)
    weights = {
        (t, bo): TermWeight.build(t, stats[t][0], stats[t][1], n, boost=bo, k1=k1)
        for (t, bo) in wkeys
        if t in stats
    }

    phrase_weights: dict[tuple, np.float32] = {}

    def walk(q: Query) -> None:
        if isinstance(q, PhraseQuery):
            # phrase idf = float32 sum of member idfs in term order
            # (BM25Similarity.IdfExplain(TermStatistics[]), :209-224)
            s = np.float32(0.0)
            for t, _ in q.terms:
                w = weights.get((t, 1.0))
                if w is not None:
                    s = np.float32(s + w.idf)
            phrase_weights[q.terms] = np.float32(
                np.float32(s * np.float32(q.boost)) * np.float32(np.float32(k1) + np.float32(1.0))
            )
        elif isinstance(q, MultiPhraseQuery):
            # MultiPhraseWeight: idf = float32 sum over ALL slot terms in add
            # order (MultiPhraseQuery.cs:188-204 flattens the term arrays)
            s = np.float32(0.0)
            for ts, _ in q.slots:
                for t in ts:
                    w = weights.get((t, 1.0))
                    if w is not None:
                        s = np.float32(s + w.idf)
            phrase_weights[q.slots] = np.float32(
                np.float32(s * np.float32(q.boost)) * np.float32(np.float32(k1) + np.float32(1.0))
            )
        elif isinstance(q, BooleanQuery):
            for c in q.clauses:
                walk(c.query)

    walk(query)
    return QueryPlan(
        query=query,
        k1=k1,
        b=b,
        num_docs=n,
        avgdl=avgdl,
        cache=cache,
        weights=weights,
        phrase_weights=phrase_weights,
        expansions=expansions,
        all_terms=tuple(sorted(terms)),
        cache_k1=np.full(256, np.float32(k1), dtype=np.float32),
        deleted_terms=getattr(reader, "deleted_terms", ()),
        dv_updates=getattr(reader, "dv_updates", ()),
    )


def _plan_classic(reader: IndexReader, query: Query, stats: dict, n: int,
                  k1: float, cache: np.ndarray, terms: set[str]) -> QueryPlan:
    """ClassicSimilarity weight computation (TFIDFSimilarity.cs Weight
    lifecycle): queryWeight = idf·boost per clause; sumOfSquaredWeights =
    float32 Σ queryWeight² in clause order; queryNorm = (float)(1/sqrt(sum));
    value = (queryWeight·queryNorm)·idf. Supports Term/Boolean trees (the
    query shapes DefaultSimilarity's coord applies to)."""
    from lucenenet_ray.search.bm25 import classic_idf, classic_query_norm
    from lucenenet_ray.util.smallfloat import CLASSIC_NORM_TABLE

    leaves: list[tuple[str, float]] = []

    def walk(q: Query) -> None:
        if isinstance(q, TermQuery):
            leaves.append((q.term, float(q.boost)))
        elif isinstance(q, BooleanQuery):
            for c in q.clauses:
                if c.occur != Occur.MUST_NOT:
                    walk(c.query)
        else:
            raise NotImplementedError(
                "classic similarity supports Term/Boolean queries in v1")

    walk(query)
    idfs = {t: classic_idf(stats[t][0], n) for t, _ in leaves if t in stats}
    sum_sq = np.float32(0.0)
    for t, bo in leaves:  # clause order — float32 accumulation contract
        if t in idfs:
            qw = np.float32(idfs[t] * np.float32(bo))
            sum_sq = np.float32(sum_sq + np.float32(qw * qw))
    qnorm = classic_query_norm(sum_sq) if sum_sq > 0 else np.float32(1.0)
    weights = {}
    for t, bo in leaves:
        if t in idfs:
            qw = np.float32(idfs[t] * np.float32(bo))
            value = np.float32(np.float32(qw * qnorm) * idfs[t])
            weights[(t, bo)] = TermWeight(
                term=t, df=stats[t][0], ttf=stats[t][1],
                idf=idfs[t], weight_value=value)
    return QueryPlan(
        query=query, k1=k1, b=0.0, num_docs=n,
        avgdl=np.float32(1.0), cache=cache, weights=weights,
        phrase_weights={}, expansions={}, all_terms=tuple(sorted(terms)),
        cache_k1=np.full(256, np.float32(k1), dtype=np.float32),
        deleted_terms=getattr(reader, "deleted_terms", ()),
        similarity="classic", classic_table=CLASSIC_NORM_TABLE,
    )


def _plan_simbase(reader: IndexReader, query: Query, stats: dict, n: int,
                  k1: float, cache: np.ndarray, terms: set[str],
                  spec) -> QueryPlan:
    """SimilarityBase weight computation (SimilarityBase.ComputeWeight +
    FillBasicStats, SimilarityBase.cs:70-148): per-term BasicStats only —
    no precomputed weightValue; the docLen-dependent Score runs per posting
    chunk in _eval_term.  Supports Term/Boolean trees (the shapes the
    reference's BasicSimScorer covers without positions)."""
    from lucenenet_ray.search import simbase as sb

    leaves: list[tuple[str, float]] = []

    def walk(q: Query) -> None:
        if isinstance(q, TermQuery):
            leaves.append((q.term, float(q.boost)))
        elif isinstance(q, BooleanQuery):
            for c in q.clauses:
                walk(c.query)
        else:
            raise NotImplementedError(
                "SimilarityBase family supports Term/Boolean queries")

    walk(query)
    weights = {
        (t, bo): TermWeight(term=t, df=stats[t][0], ttf=stats[t][1],
                            idf=np.float32(0.0), weight_value=np.float32(0.0))
        for t, bo in leaves if t in stats
    }
    nft = reader.sum_total_term_freq
    return QueryPlan(
        query=query, k1=k1, b=0.0, num_docs=n,
        avgdl=np.float32(1.0), cache=cache, weights=weights,
        phrase_weights={}, expansions={}, all_terms=tuple(sorted(terms)),
        cache_k1=np.full(256, np.float32(k1), dtype=np.float32),
        deleted_terms=getattr(reader, "deleted_terms", ()),
        similarity="simbase", simbase=spec, sim_nft=nft,
        sim_avg=sb.avg_field_length(nft, n),
    )


# ---------------------------------------------------------------------------
# per-bucket evaluation


_EMPTY_D = np.empty(0, dtype=np.int64)
_EMPTY_S = np.empty(0, dtype=np.float32)


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized concat of aranges [starts[i], starts[i]+lengths[i])."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifted = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - shifted, lengths)


def _eval_term(term: str, boost: float, chunks: dict[str, PostingsChunk],
               plan: QueryPlan, bucket: BucketData) -> tuple[np.ndarray, np.ndarray]:
    """→ (bucket-local doc rows ascending, float32 scores).

    All evaluation below works in DENSE bucket-local doc coordinates: every
    chunk caches its docs' local rows once (FieldCache pattern), so per-query
    work is pure fancy-indexing — no searchsorted in the hot path (was 60%
    of query time at 800k docs)."""
    c = chunks.get(term)
    w = plan.weights.get((term, float(boost)))
    if c is None or w is None:
        return _EMPTY_D, _EMPTY_S
    lidx = c.local_ids(bucket)
    norms = bucket.norms()[2][lidx]
    if plan.similarity == "classic":
        from lucenenet_ray.search.bm25 import classic_score_freqs

        return lidx, classic_score_freqs(c.freqs(), norms, w.weight_value,
                                         plan.classic_table)
    if plan.similarity == "simbase":
        from lucenenet_ray.search import simbase as sb
        from lucenenet_ray.util.smallfloat import NORM_TABLE

        return lidx, sb.score_freqs(
            plan.simbase, plan.num_docs, plan.sim_nft, plan.sim_avg,
            w.df, w.ttf, boost, c.freqs(),
            NORM_TABLE[np.asarray(norms, dtype=np.int64)])
    scores = score_freqs(c.freqs(), norms, w.weight_value, plan.cache_for(term))
    return lidx, scores


def _eval_phrase(q: PhraseQuery, chunks: dict[str, PostingsChunk], plan: QueryPlan,
                 bucket: BucketData) -> tuple[np.ndarray, np.ndarray]:
    """ExactPhraseScorer semantics: freq = number of positions p such that
    term_i occurs at p + rel_i for all i; docs with freq>0 score with the
    summed-idf weight (PhraseQuery.cs / ExactPhraseScorer.cs).
    slop>0 routes to the SloppyPhraseScorer port (sloppy.py)."""
    member = []
    for t, rel in q.terms:
        c = chunks.get(t)
        if c is None:
            return _EMPTY_D, _EMPTY_S
        member.append((c, rel))
    # candidate docs present in ALL member chunks — dense intersection
    nb = bucket.n_docs
    cnt = np.zeros(nb, dtype=np.int16)
    for c, _ in member:
        cnt[c.local_ids(bucket)] += 1
    cand_l = np.flatnonzero(cnt == len(member))
    if cand_l.size == 0:
        return _EMPTY_D, _EMPTY_S
    if q.slop > 0:
        return _eval_phrase_sloppy(q, member, cand_l, plan, bucket)
    # Vectorized phrase matching: encode each (doc, shifted position) pair as
    # a single int64 key candrow*2^32 + (pos - rel) and intersect the key
    # sets across members; phrase freq per doc = bincount over candrow.
    SHIFT = np.int64(1) << np.int64(32)
    keys = None
    # intersect starting from the rarest member: the key set shrinks fastest
    # (Lucene's phrase scorers also lead with the least-frequent term)
    member = sorted(member, key=lambda m: m[0].df)
    for c, rel in member:
        idx = c.row_of_local(bucket)[cand_l]  # O(1) row per candidate
        flat, offs = c.positions_flat()
        take = _concat_ranges(offs[idx], offs[idx + 1] - offs[idx])
        docrep = np.repeat(
            np.arange(cand_l.size, dtype=np.int64), (offs[idx + 1] - offs[idx])
        )
        align = flat[take] - rel
        # ExactPhraseScorer drops matches at negative phrase-start alignment
        # (ChunkState.LastPos=-1 init + posIndex>=0 guards,
        # ExactPhraseScorer.cs:294-299,334-340) — only reachable via explicit
        # hole phrases whose first rel > 0 (TestSloppyPhraseQuery slop=0)
        if rel > 0:
            neg = align < 0
            if neg.any():
                keepm = ~neg
                align = align[keepm]
                docrep = docrep[keepm]
        k = docrep * SHIFT + align
        # k is sorted by construction (candidates ascending, positions
        # ascending per doc) → searchsorted intersection beats np.isin's
        # internal sort
        if keys is None:
            keys = k
        else:
            idx = np.searchsorted(keys, k)
            valid = idx < keys.size
            keys = k[valid & (keys[np.minimum(idx, keys.size - 1)] == k)]
        if keys.size == 0:
            return _EMPTY_D, _EMPTY_S
    counts = np.bincount((keys // SHIFT).astype(np.int64), minlength=cand_l.size)
    keep = counts > 0
    lidx = cand_l[keep]
    freqs = counts[keep].astype(np.int32)
    if lidx.size == 0:
        return _EMPTY_D, _EMPTY_S
    wv = plan.phrase_weights.get(q.terms)
    if wv is None:
        return _EMPTY_D, _EMPTY_S
    norms = bucket.norms()[2][lidx]
    scores = score_freqs(freqs, norms, wv, plan.cache)
    return lidx, scores


def _eval_phrase_sloppy(q: PhraseQuery, member: list, cand_l: np.ndarray,
                        plan: QueryPlan, bucket: BucketData
                        ) -> tuple[np.ndarray, np.ndarray]:
    """SloppyPhraseScorer port (see sloppy.py): per candidate doc, the greedy
    PQ traversal accumulates float32 Σ 1/(matchLength+1) over within-slop
    matches; docs with freq>0 score via the same BM25 formula with the float
    freq (``SloppyPhraseScorer.cs:101-145``, ``BM25Similarity.cs:265-270``)."""
    from lucenenet_ray.search.sloppy import repeat_groups, sloppy_phrase_freq

    rels = [rel for _, rel in q.terms]
    if len(set(rels)) != len(rels):
        raise NotImplementedError(
            "multiple terms at one phrase position = MultiPhraseQuery")
    rgs = repeat_groups(q.terms)
    # member is in q.terms order; gather per-candidate position slices once
    per = []
    for c, _rel in member:
        rows = c.row_of_local(bucket)[cand_l]
        flat, offs = c.positions_flat()
        per.append((flat, offs, rows))
    freqs = np.empty(cand_l.size, dtype=np.float32)
    for k in range(cand_l.size):
        plists = [flat[offs[rows[k]]:offs[rows[k] + 1]]
                  for (flat, offs, rows) in per]
        freqs[k] = sloppy_phrase_freq(plists, rels, rgs, q.slop)
    keep = freqs > 0
    if not keep.any():
        return _EMPTY_D, _EMPTY_S
    wv = plan.phrase_weights.get(q.terms)
    if wv is None:
        return _EMPTY_D, _EMPTY_S
    lidx = cand_l[keep]
    norms = bucket.norms()[2][lidx]
    scores = score_freqs(freqs[keep], norms, wv, plan.cache)
    return lidx, scores


def _eval_multiphrase(q: MultiPhraseQuery, chunks: dict[str, PostingsChunk],
                      plan: QueryPlan, bucket: BucketData
                      ) -> tuple[np.ndarray, np.ndarray]:
    """MultiPhraseQuery scorer (``Search/MultiPhraseQuery.cs`` /
    UnionPostingsEnum): per slot, the postings are the UNION of the slot's
    terms; a doc matches when some alignment has a member of every slot at
    its relative position. Exact path intersects per-slot (doc, shifted
    position) key sets; slop>0 routes the merged per-slot position lists
    through the SloppyPhraseScorer (slots with identical term sets act as
    repeats)."""
    nb = bucket.n_docs
    slot_chunks: list[tuple[list[PostingsChunk], int]] = []
    for ts, rel in q.slots:
        cs = [chunks[t] for t in ts if t in chunks]
        if not cs:
            return _EMPTY_D, _EMPTY_S
        slot_chunks.append((cs, rel))
    cnt = np.zeros(nb, dtype=np.int16)
    for cs, _ in slot_chunks:
        present = np.zeros(nb, dtype=bool)
        for c in cs:
            present[c.local_ids(bucket)] = True
        cnt[present] += 1
    cand_l = np.flatnonzero(cnt == len(slot_chunks))
    if cand_l.size == 0:
        return _EMPTY_D, _EMPTY_S
    wv = plan.phrase_weights.get(q.slots)
    if wv is None:
        return _EMPTY_D, _EMPTY_S

    def slot_keys(cs: list[PostingsChunk], rel: int) -> np.ndarray:
        """Sorted unique (candrow<<32 | pos-rel) keys over the slot union."""
        SHIFT = np.int64(1) << np.int64(32)
        parts = []
        for c in cs:
            idx = c.row_of_local(bucket)[cand_l]
            has = idx >= 0
            if not has.any():
                continue
            idxh = idx[has]
            flat, offs = c.positions_flat()
            lens = offs[idxh + 1] - offs[idxh]
            take = _concat_ranges(offs[idxh], lens)
            docrep = np.repeat(np.flatnonzero(has).astype(np.int64), lens)
            align = flat[take] - rel
            if rel > 0:
                pos_ok = align >= 0
                align, docrep = align[pos_ok], docrep[pos_ok]
            parts.append(docrep * SHIFT + align)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    if q.slop > 0:
        return _eval_multiphrase_sloppy(q, slot_chunks, cand_l, plan, bucket, wv)
    SHIFT = np.int64(1) << np.int64(32)
    keys = None
    # lead with the lowest-total-df slot: the key set shrinks fastest
    for cs, rel in sorted(slot_chunks, key=lambda s: sum(c.df for c in s[0])):
        k = slot_keys(cs, rel)
        if keys is None:
            keys = k
        else:
            idx = np.searchsorted(keys, k)
            valid = idx < keys.size
            keys = k[valid & (keys[np.minimum(idx, keys.size - 1)] == k)]
        if keys.size == 0:
            return _EMPTY_D, _EMPTY_S
    counts = np.bincount((keys // SHIFT).astype(np.int64), minlength=cand_l.size)
    keep = counts > 0
    lidx = cand_l[keep]
    freqs = counts[keep].astype(np.int32)
    norms = bucket.norms()[2][lidx]
    return lidx, score_freqs(freqs, norms, wv, plan.cache)


def _eval_multiphrase_sloppy(q: MultiPhraseQuery, slot_chunks, cand_l,
                             plan: QueryPlan, bucket: BucketData, wv
                             ) -> tuple[np.ndarray, np.ndarray]:
    from lucenenet_ray.search.sloppy import sloppy_phrase_freq

    rels = [rel for _, rel in q.slots]
    # repeats: slots with identical term sets behave as repeated terms
    # (MultiPhraseQuery sloppy repeat detection over shared term arrays)
    by_set: dict[tuple, list[int]] = {}
    for i, (ts, _rel) in enumerate(q.slots):
        by_set.setdefault(tuple(sorted(ts)), []).append(i)
    rgs = [v for v in by_set.values() if len(v) > 1]
    per = []
    for cs, _rel in slot_chunks:
        rows = [c.row_of_local(bucket)[cand_l] for c in cs]
        flats = [c.positions_flat() for c in cs]
        per.append((cs, rows, flats))
    freqs = np.empty(cand_l.size, dtype=np.float32)
    for k in range(cand_l.size):
        plists = []
        for (cs, rows, flats) in per:
            segs = []
            for c, row, (flat, offs) in zip(cs, rows, flats):
                r = row[k]
                if r >= 0:
                    segs.append(flat[offs[r]:offs[r + 1]])
            merged = (np.unique(np.concatenate(segs)) if segs
                      else np.empty(0, dtype=np.int64))
            plists.append(merged)
        freqs[k] = sloppy_phrase_freq(plists, rels, rgs, q.slop)
    keep = freqs > 0
    if not keep.any():
        return _EMPTY_D, _EMPTY_S
    lidx = cand_l[keep]
    norms = bucket.norms()[2][lidx]
    return lidx, score_freqs(freqs[keep], norms, wv, plan.cache)


def _eval_multiterm(q: MultiTermQuery, chunks: dict[str, PostingsChunk],
                    plan: QueryPlan, bucket: BucketData) -> tuple[np.ndarray, np.ndarray]:
    exp = plan.expansions.get(q, ())
    if not exp:
        return _EMPTY_D, _EMPTY_S
    if q.constant_score:
        # CONSTANT_SCORE rewrite: every matching doc scores boost (==1·boost),
        # ConstantScoreQuery.cs:37
        mask = np.zeros(bucket.n_docs, dtype=bool)
        hit = False
        for t in exp:
            c = chunks.get(t)
            if c is not None:
                mask[c.local_ids(bucket)] = True
                hit = True
        if not hit:
            return _EMPTY_D, _EMPTY_S
        lidx = np.flatnonzero(mask)
        return lidx, np.full(lidx.size, np.float32(q.boost), dtype=np.float32)
    # SCORING_BOOLEAN rewrite: OR of TermQueries in term order, each clause
    # inheriting the parent boost (ScoringRewrite.cs)
    sub = BooleanQuery(
        clauses=tuple(
            BooleanClause(Occur.SHOULD, TermQuery(term=t, boost=q.boost))
            for t in exp
        )
    )
    return _eval_boolean(sub, chunks, plan, bucket)


def _eval_dismax(q: DisjunctionMaxQuery, chunks: dict[str, PostingsChunk],
                 plan: QueryPlan, bucket: BucketData) -> tuple[np.ndarray, np.ndarray]:
    """DisjunctionMaxScorer: score = max + tie_breaker*(sum - max), float32."""
    evaled = [_eval_query(sq, chunks, plan, bucket) for sq in q.disjuncts]
    nb = bucket.n_docs
    smax = np.zeros(nb, dtype=np.float32)
    ssum = np.zeros(nb, dtype=np.float32)
    matched = np.zeros(nb, dtype=bool)
    for d, s in evaled:
        if d.size == 0:
            continue
        np.maximum.at(smax, d, s)
        ssum[d] += s
        matched[d] = True
    lidx = np.flatnonzero(matched)
    if lidx.size == 0:
        return _EMPTY_D, _EMPTY_S
    tie = np.float32(q.tie_breaker)
    sm = smax[lidx]
    return lidx, (sm + tie * (ssum[lidx] - sm)).astype(np.float32)


def _eval_query(q: Query, chunks: dict[str, PostingsChunk], plan: QueryPlan,
                bucket: BucketData) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(q, TermQuery):
        return _eval_term(q.term, q.boost, chunks, plan, bucket)
    if isinstance(q, PhraseQuery):
        return _eval_phrase(q, chunks, plan, bucket)
    if isinstance(q, MultiPhraseQuery):
        return _eval_multiphrase(q, chunks, plan, bucket)
    if isinstance(q, BooleanQuery):
        return _eval_boolean(q, chunks, plan, bucket)
    if isinstance(q, DisjunctionMaxQuery):
        return _eval_dismax(q, chunks, plan, bucket)
    if isinstance(q, MultiTermQuery):
        return _eval_multiterm(q, chunks, plan, bucket)
    if isinstance(q, MatchAllDocsQuery):
        lidx = np.arange(bucket.n_docs, dtype=np.int64)
        return lidx, np.full(lidx.size, np.float32(q.boost), dtype=np.float32)
    if isinstance(q, NumericDocValuesRangeQuery):
        return _eval_dv_range(q, chunks, plan, bucket)
    if isinstance(q, DocIdSetQuery):
        return _eval_docidset(q, bucket)
    raise TypeError(f"unsupported query node {type(q)}")


def _eval_docidset(q: DocIdSetQuery, bucket: BucketData
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Filter/CachingWrapperFilter analog: one vectorized membership test of
    the bucket's global-id column against the precomputed set; constant
    score = boost (0.0 by default → FilteredQuery identity under the
    float32 clause sum)."""
    gids = bucket.norms()[0]
    lidx = np.flatnonzero(np.isin(gids, q.sorted_array()))
    if lidx.size == 0:
        return _EMPTY_D, _EMPTY_S
    return lidx, np.full(lidx.size, np.float32(q.boost), dtype=np.float32)


def _eval_dv_range(q: NumericDocValuesRangeQuery,
                   chunks: dict[str, PostingsChunk], plan: QueryPlan,
                   bucket: BucketData) -> tuple[np.ndarray, np.ndarray]:
    """FieldCacheRangeFilter.NewInt64Range semantics: one vectorized compare
    against the bucket's pinned doc-values column, constant score = boost
    (a filter under ConstantScoreQuery). Update generations from the plan
    override the base column first (later wins — ReaderAndUpdates order)."""
    vals = bucket.docvalues(q.field)
    relevant = [(t, v) for (t, f, v) in plan.dv_updates if f == q.field]
    if relevant:
        vals = vals.copy()
        for term, value in relevant:
            c = chunks.get(term)
            if c is not None:
                vals[c.local_ids(bucket)] = value
    mask = np.ones(vals.size, dtype=bool)
    if q.lower is not None:
        mask &= (vals >= q.lower) if q.include_lower else (vals > q.lower)
    if q.upper is not None:
        mask &= (vals <= q.upper) if q.include_upper else (vals < q.upper)
    lidx = np.flatnonzero(mask)
    if lidx.size == 0:
        return _EMPTY_D, _EMPTY_S
    return lidx, np.full(lidx.size, np.float32(q.boost), dtype=np.float32)


def _eval_boolean(q: BooleanQuery, chunks: dict[str, PostingsChunk], plan: QueryPlan,
                  bucket: BucketData) -> tuple[np.ndarray, np.ndarray]:
    pos = [(c.occur, c.query) for c in q.clauses if c.occur != Occur.MUST_NOT]
    neg = [c.query for c in q.clauses if c.occur == Occur.MUST_NOT]
    if not pos:
        return _EMPTY_D, _EMPTY_S
    nb = bucket.n_docs
    acc = np.zeros(nb, dtype=np.float32)
    matched = np.zeros(nb, dtype=bool)
    n_must = sum(1 for occur, _ in pos if occur == Occur.MUST)
    must_cnt = np.zeros(nb, dtype=np.int16) if n_must else None
    msm = getattr(q, "min_should_match", 0)
    should_cnt = np.zeros(nb, dtype=np.int16) if msm else None
    classic = plan.similarity == "classic"
    ov_cnt = np.zeros(nb, dtype=np.int16) if classic else None
    for occur, sq in pos:  # clause order — float32 add order contract
        d, s = _eval_query(sq, chunks, plan, bucket)
        if d.size == 0:
            if occur == Occur.MUST:
                return _EMPTY_D, _EMPTY_S
            continue
        acc[d] += s
        matched[d] = True
        if ov_cnt is not None:
            ov_cnt[d] += 1
        if occur == Occur.MUST:
            must_cnt[d] += 1
        elif should_cnt is not None:
            should_cnt[d] += 1
    sel = matched if must_cnt is None else (must_cnt == n_must)
    if should_cnt is not None:
        # MinShouldMatchSumScorer: at least msm optional clauses must match
        sel = sel & (should_cnt >= msm)
    for nq in neg:
        nd, _ = _eval_query(nq, chunks, plan, bucket)
        if nd.size:
            sel = sel.copy() if sel is matched else sel
            sel[nd] = False
    lidx = np.flatnonzero(sel)
    if lidx.size == 0:
        return _EMPTY_D, _EMPTY_S
    if classic:
        # DefaultSimilarity.Coord = overlap / (float)maxOverlap, applied to
        # the clause-order float32 sum (BooleanScorer2 coordFactor)
        from lucenenet_ray.search.bm25 import classic_coord

        coord = classic_coord(ov_cnt[lidx], len(pos))
        return lidx, (acc[lidx] * coord).astype(np.float32)
    return lidx, acc[lidx]


def _topk(docs: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(score desc, docID asc) — TopScoreDocCollector/HitQueue tie-break."""
    if docs.size == 0:
        return _EMPTY_D, _EMPTY_S
    if docs.size > k * 4 and k < docs.size:
        part = np.argpartition(-scores, min(k, scores.size - 1))[: max(k * 2, k)]
        # careful with score ties at the boundary: fall back to full sort when
        # the partition boundary is ambiguous
        kth = scores[part[:k]].min() if part.size >= k else -np.inf
        cut = scores >= kth
        docs, scores = docs[cut], scores[cut]
    order = np.lexsort((docs, -scores.astype(np.float64)))[:k]
    return docs[order], scores[order]


def score_bucket(bucket: BucketData, plan: QueryPlan, k: int,
                 prune: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
    """Score one bucket → (top-k GLOBAL docIDs, scores, total_hits).

    Only the query terms' chunks are built; their row groups are read once
    per reader (or already pinned by QueryServer.warm)."""
    chunks = bucket.chunks_for_terms(list(plan.all_terms))
    q = plan.query
    live = bucket.live_mask(plan.deleted_terms)
    if prune and plan.similarity != "bm25":
        prune = False  # MaxScore bounds are BM25-shaped; classic goes exhaustive
    if prune and _is_pure_or_terms(q):
        lidx, scores = _eval_or_pruned(q, chunks, plan, bucket, k, live=live)
        total = int(lidx.size)
    else:
        lidx, scores = _eval_query(q, chunks, plan, bucket)
        if live is not None and lidx.size:
            keep = live[lidx]
            lidx, scores = lidx[keep], scores[keep]
        total = int(lidx.size)
    docs = bucket.norms()[0][lidx] if lidx.size else _EMPTY_D
    d, s = _topk(docs, scores, k)
    return d, s, total


def _is_pure_or_terms(q: Query) -> bool:
    return isinstance(q, BooleanQuery) and all(
        c.occur == Occur.SHOULD and isinstance(c.query, TermQuery) for c in q.clauses
    )


# level-0 skip entries examined by _skip_to_blocks since process start —
# tests assert the level-1 pre-select reduces this for head terms
SKIP_STATS = {"level0_examined": 0, "level0_total": 0}


def _skip_to_blocks(c: PostingsChunk, cand_docs: np.ndarray) -> np.ndarray:
    """Target 128-blocks containing any candidate doc — the multi-level skip
    (MultiLevelSkipListWriter.cs fan-out 128). Head terms (stored level-1
    entries, df > 128²) first bound each candidate to a REGION of
    SKIP1_FANOUT level-0 blocks, then binary-search only those regions'
    level-0 slices; small terms binary-search level-0 directly."""
    nb = len(c.block_last_doc)
    s1 = c.skip1_last_doc
    if s1.size == 0:
        SKIP_STATS["level0_examined"] += nb
        SKIP_STATS["level0_total"] += nb
        blocks = np.unique(np.searchsorted(c.block_last_doc, cand_docs))
        return blocks[blocks < nb]
    reg_of = np.searchsorted(s1, cand_docs)
    keep = reg_of < s1.size
    reg_of, cands = reg_of[keep], cand_docs[keep]
    out: list[np.ndarray] = []
    examined = 0
    for r in np.unique(reg_of):
        lo = int(r) * SKIP1_FANOUT
        hi = min(lo + SKIP1_FANOUT, nb)
        sub = c.block_last_doc[lo:hi]
        examined += hi - lo
        b = np.unique(np.searchsorted(sub, cands[reg_of == r])) + lo
        out.append(b[b < hi])
    SKIP_STATS["level0_examined"] += examined
    SKIP_STATS["level0_total"] += nb
    return (np.unique(np.concatenate(out)) if out
            else np.empty(0, dtype=np.int64))


def _eval_term_restricted(term: str, boost: float, matched: np.ndarray,
                          chunks: dict[str, PostingsChunk],
                          plan: QueryPlan, bucket: BucketData
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Score `term` only for docs with matched[local]==True.

    Warm path (chunk decoded + cached): fancy-index restriction. Cold path
    with few touched blocks: skip-in via block_last_doc and decode only those
    128-blocks (the skip list at work)."""
    c = chunks.get(term)
    w = plan.weights.get((term, float(boost)))
    if c is None or w is None:
        return _EMPTY_D, _EMPTY_S
    cache = plan.cache_for(term)
    if c._docs is not None:
        lidx = c.local_ids(bucket)
        m = matched[lidx]
        if not m.any():
            return _EMPTY_D, _EMPTY_S
        lsel = lidx[m]
        norms = bucket.norms()[2][lsel]
        return lsel, score_freqs(c.freqs()[m], norms, w.weight_value, cache)
    cand_docs = bucket.norms()[0][np.flatnonzero(matched)]
    blocks = _skip_to_blocks(c, cand_docs)
    if blocks.size * BLOCK_SIZE * 4 > c.df:
        lidx = c.local_ids(bucket)  # decodes once; cached for later queries
        m = matched[lidx]
        if not m.any():
            return _EMPTY_D, _EMPTY_S
        lsel = lidx[m]
        norms = bucket.norms()[2][lsel]
        return lsel, score_freqs(c.freqs()[m], norms, w.weight_value, cache)
    out_d: list[np.ndarray] = []
    out_f: list[np.ndarray] = []
    for bi in blocks:
        bd = decode_doc_block(c.doc_bytes, int(bi), c.df, c.block_doc_off,
                              c.block_last_doc)
        idx = np.searchsorted(bd, cand_docs)
        valid = idx < bd.size
        vi = idx[valid]
        sel = bd[vi] == cand_docs[valid]
        if not sel.any():
            continue
        bf = decode_freq_block(c.freq_bytes, c.doc_bytes, int(bi), c.df,
                               c.block_freq_off, c.block_doc_off)
        out_d.append(bd[vi[sel]])
        out_f.append(bf[vi[sel]])
    if not out_d:
        return _EMPTY_D, _EMPTY_S
    docs = np.concatenate(out_d)
    freqs = np.concatenate(out_f)
    lsel = np.searchsorted(bucket.norms()[0], docs)
    norms = bucket.norms()[2][lsel]
    return lsel, score_freqs(freqs, norms, w.weight_value, plan.cache)


def _eval_or_pruned(q: BooleanQuery, chunks: dict[str, PostingsChunk], plan: QueryPlan,
                    bucket: BucketData, k: int,
                    live: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lossless MaxScore: full-evaluate clauses in descending upper bound until
    no unseen doc can reach the top-k; then candidate-restricted scoring with
    block skipping. Contributions replay in clause order → bit-identical.
    All in dense bucket-local coordinates."""
    terms = [c.query.term for c in q.clauses]
    boosts = [c.query.boost for c in q.clauses]
    nb = bucket.n_docs
    ubs = np.zeros(len(terms), dtype=np.float64)
    for i, t in enumerate(terms):
        c = chunks.get(t)
        w = plan.weights.get((t, float(boosts[i])))
        if c is not None and w is not None:
            ubs[i] = float(upper_bound(c.max_freq, c.max_norm, w.weight_value,
                                       plan.cache_for(t)))
    order = np.argsort(-ubs, kind="stable")
    contributions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    acc = np.zeros(nb, dtype=np.float32)
    matched = np.zeros(nb, dtype=bool)
    n_matched = 0
    switch_at = len(order)
    for oi, ci in enumerate(order):
        # safety-margined remaining bound (float32 addition can round up)
        remaining = float(ubs[order[oi:]].sum()) * (1 + 1e-5) + 1e-30
        if n_matched >= k:
            mvals = acc[matched]
            theta = float(np.partition(mvals, mvals.size - k)[mvals.size - k])
            # acc sums clauses in upper-bound order; the final score sums in
            # CLAUSE order — float32 reassociation can differ by ~m·eps, so
            # shrink theta before using it as a pruning threshold (scores are
            # non-negative; 1e-4 ≫ 1024 clauses × f32 eps)
            theta_safe = theta * (1.0 - 1e-4)
            if remaining < theta_safe:
                switch_at = oi
                break
        d, s = _eval_term(terms[ci], boosts[ci], chunks, plan, bucket)
        if live is not None and d.size:
            keepm = live[d]
            d, s = d[keepm], s[keepm]
        contributions[ci] = (d, s)
        if d.size:
            acc[d] += s
            matched[d] = True
            n_matched = int(matched.sum())
    for ci in order[switch_at:]:
        d, s = _eval_term_restricted(terms[ci], boosts[ci], matched,
                                     chunks, plan, bucket)
        if live is not None and d.size:
            keepm = live[d]
            d, s = d[keepm], s[keepm]
        contributions[ci] = (d, s)
    # replay in clause order for float32 bit-identity with the naive path
    final = np.zeros(nb, dtype=np.float32)
    for ci in range(len(terms)):
        d, s = contributions.get(ci, (_EMPTY_D, _EMPTY_S))
        if d.size == 0:
            continue
        final[d] += s
    lidx = np.flatnonzero(matched)
    return lidx, final[lidx]


# ---------------------------------------------------------------------------
# driver-side search


@dataclass
class TopDocs:
    """The TopDocs analog: (doc, score) hits + totalHits (TopDocs.cs).

    Under block-max pruning totalHits is a LOWER BOUND (docs proven unable to
    reach the top-k are never counted) — ``total_hits_relation`` is "gte"
    then, mirroring Lucene 8's TotalHits.Relation; the top-k itself is always
    exact."""

    docs: np.ndarray
    scores: np.ndarray
    total_hits: int
    total_hits_relation: str = "eq"
    # TimeLimitingCollector outcome: True when the time budget expired and
    # the result covers only the buckets scored so far (partial hits, like
    # catching TimeExceededException with a partial collector —
    # Search/TimeLimitingCollector.cs:38-74)
    timed_out: bool = False

    def to_list(self) -> list[tuple[int, float]]:
        return [(int(d), float(s)) for d, s in zip(self.docs, self.scores)]


def search(reader: IndexReader, query: Query, k: int = 10,
           prune: bool = False,
           after: tuple[float, int] | None = None,
           time_limit_ms: float | None = None,
           similarity: str = "bm25") -> TopDocs:
    """Sequential scatter over buckets + TopDocs.Merge. For the actor-pool
    parallel path see ``lucenenet_ray.search.serve.QueryServer``.

    ``after=(score, doc)`` = deep paging: only hits strictly after the anchor
    in (score desc, doc asc) order (IndexSearcher.SearchAfter,
    IndexSearcher.cs:252-270).

    ``time_limit_ms`` = TimeLimitingCollector: stop after the first bucket
    whose completion exceeds the budget and return the partial result with
    ``timed_out=True`` (budget granularity is one bucket — the collector's
    per-doc clock check maps to our per-scorer unit; at least one bucket
    always completes, like the collector always scoring the doc in flight).
    """
    import time as _time

    t_start = _time.perf_counter() if time_limit_ms is not None else None
    plan = plan_query(reader, query, similarity=similarity)
    # SearchAfter needs k + enough headroom per bucket: collect k hits AFTER
    # the anchor within each bucket by filtering before the per-bucket top-k.
    all_d: list[np.ndarray] = []
    all_s: list[np.ndarray] = []
    total = 0
    timed_out = False
    for b in reader.bucket_ids:
        if (t_start is not None
                and (_time.perf_counter() - t_start) * 1000.0 > time_limit_ms
                and all_d):
            timed_out = True
            break
        bd = reader.bucket(b)
        if after is None:
            d, s, t = score_bucket(bd, plan, k, prune=prune)
        else:
            chunks = bd.chunks_for_terms(list(plan.all_terms))
            lidx, scores = _eval_query(plan.query, chunks, plan, bd)
            live = bd.live_mask(plan.deleted_terms)
            if live is not None and lidx.size:
                keepl = live[lidx]
                lidx, scores = lidx[keepl], scores[keepl]
            docs = bd.norms()[0][lidx] if lidx.size else _EMPTY_D
            a_s = np.float32(after[0])
            a_d = np.int64(after[1])
            keep = (scores < a_s) | ((scores == a_s) & (docs > a_d))
            d, s = _topk(docs[keep], scores[keep], k)
            t = int(docs.size)
        all_d.append(d)
        all_s.append(s)
        total += t
    docs = np.concatenate(all_d) if all_d else _EMPTY_D
    scores = np.concatenate(all_s) if all_s else _EMPTY_S
    d, s = _topk(docs, scores, k)
    rel = "gte" if (prune and after is None) or timed_out else "eq"
    return TopDocs(docs=d, scores=s, total_hits=total,
                   total_hits_relation=rel, timed_out=timed_out)


def search_sorted_by_docvalue(
    reader: IndexReader, query: Query, field: str, k: int = 10,
    reverse: bool = True,
) -> list[tuple[int, int]]:
    """TopFieldCollector over a numeric doc-values sort field
    (``Search/TopFieldCollector.cs`` with ``SortField(field, LONG, reverse)``;
    comparator ``FieldComparator.Int64Comparator``): per bucket, matching
    docs' doc-values (update log applied — reader.numeric_docvalues) feed a
    partial top-k by (value, doc_id) and the per-bucket heads merge like
    TopDocs.Merge. Returns [(doc_id, value)] in (value desc|asc, doc asc)
    order. No scores are computed — trackDocScores=false."""
    plan = plan_query(reader, query)
    all_d: list[np.ndarray] = []
    all_v: list[np.ndarray] = []
    for b in reader.bucket_ids:
        bd = reader.bucket(b)
        chunks = bd.chunks_for_terms(list(plan.all_terms))
        lidx, _scores = _eval_query(plan.query, chunks, plan, bd)
        live = bd.live_mask(plan.deleted_terms)
        if live is not None and lidx.size:
            lidx = lidx[live[lidx]]
        if lidx.size == 0:
            continue
        vals = reader.numeric_docvalues(b, field)[lidx]
        docs = bd.norms()[0][lidx]
        # partial top-k inside the bucket: sort keys (∓value, doc)
        kk = min(k, vals.size)
        keys = np.lexsort((docs, -vals if reverse else vals))[:kk]
        all_d.append(docs[keys])
        all_v.append(vals[keys])
    if not all_d:
        return []
    docs = np.concatenate(all_d)
    vals = np.concatenate(all_v)
    order = np.lexsort((docs, -vals if reverse else vals))[:k]
    return [(int(docs[i]), int(vals[i])) for i in order]


def search_sorted_by_fields(
    reader: IndexReader, query: Query, fields: list[tuple[str, bool]],
    k: int = 10,
) -> list[tuple]:
    """Compound-sort TopFieldCollector — ``Sort(new SortField[]{...})``
    with a chained comparator per field (``Search/Sort.cs:37-58``,
    ``FieldValueHitQueue.MultiComparersFieldValueHitQueue``): docs order by
    field[0], ties break to field[1], …, final tie-break doc asc (the
    implicit docID comparator, TopDocs.cs). ``fields`` is
    [(dv_field, reverse), ...] over numeric doc-values (update log
    applied). Returns [(doc_id, v0, v1, ...)]. Same per-bucket partial
    top-k + TopDocs.Merge shape as the single-field collector above."""
    plan = plan_query(reader, query)

    def order(docs: np.ndarray, cols: list[np.ndarray], kk: int) -> np.ndarray:
        # np.lexsort: LAST key is primary → (doc, field_n, ..., field_0)
        keys = [docs] + [(-v if rev else v)
                         for (_f, rev), v in reversed(list(zip(fields, cols)))]
        return np.lexsort(tuple(keys))[:kk]

    all_d: list[np.ndarray] = []
    all_c: list[list[np.ndarray]] = []
    for b in reader.bucket_ids:
        bd = reader.bucket(b)
        chunks = bd.chunks_for_terms(list(plan.all_terms))
        lidx, _scores = _eval_query(plan.query, chunks, plan, bd)
        live = bd.live_mask(plan.deleted_terms)
        if live is not None and lidx.size:
            lidx = lidx[live[lidx]]
        if lidx.size == 0:
            continue
        cols = [reader.numeric_docvalues(b, f)[lidx] for f, _ in fields]
        docs = bd.norms()[0][lidx]
        sel = order(docs, cols, min(k, docs.size))
        all_d.append(docs[sel])
        all_c.append([c[sel] for c in cols])
    if not all_d:
        return []
    docs = np.concatenate(all_d)
    cols = [np.concatenate([c[i] for c in all_c]) for i in range(len(fields))]
    sel = order(docs, cols, k)
    return [(int(docs[i]), *(int(c[i]) for c in cols)) for i in sel]


def count_matches(reader: IndexReader, query: Query) -> int:
    """TotalHitCountCollector analog (Search/TotalHitCountCollector.cs)."""
    return search(reader, query, k=1, prune=False).total_hits


def rescore(reader: IndexReader, first_pass: TopDocs, query: Query,
            weight: float = 1.0, k: int | None = None) -> TopDocs:
    """QueryRescorer analog (Search/QueryRescorer.cs:32): re-evaluate `query`
    on the first-pass top hits only; combined score = first + weight*second
    (float32, like QueryRescorer.Combine with secondPassMatches). Hits that
    don't match the rescore query keep their first-pass score."""
    plan = plan_query(reader, query)
    docs = first_pass.docs
    combined = first_pass.scores.astype(np.float32).copy()
    for b in reader.bucket_ids:
        bd = reader.bucket(b)
        chunks = bd.chunks_for_terms(list(plan.all_terms))
        lidx, s2 = _eval_query(plan.query, chunks, plan, bd)
        if lidx.size == 0:
            continue
        d2 = bd.norms()[0][lidx]
        idx = np.searchsorted(d2, docs)
        valid = idx < d2.size
        vi = idx[valid]
        sel = d2[vi] == docs[valid]
        hit_rows = np.flatnonzero(valid)[sel]
        combined[hit_rows] = combined[hit_rows] + np.float32(weight) * s2[vi[sel]]
    k = k or len(docs)
    d, s = _topk(docs, combined, k)
    return TopDocs(docs=d, scores=s, total_hits=first_pass.total_hits,
                   total_hits_relation=first_pass.total_hits_relation)
