"""FunctionQuery / ValueSource family (``Lucene.Net.Queries/Function``)
re-expressed as vectorized float32 kernels over the engine's per-bucket
doc-values columns.

Reference semantics (NOT ported):

- ValueSource tree (``Function/ValueSource.cs`` + ``ValueSources/*``): a
  composable per-document float function. Each node here evaluates a whole
  bucket at once as a float32 numpy array — IEEE-754 single ops match the
  reference's per-doc C# ``float`` arithmetic bit-for-bit, node by node.
  Implemented sources: Int64FieldSource (``LongFieldSource.cs`` —
  (float)longVal over the doc-values column, update generations honored),
  ConstValueSource, SumFunction (``SumFloatFunction.cs``, left-assoc add),
  ProductFunction (``ProductFloatFunction.cs``, left-assoc multiply),
  LinearFunction (``LinearFloatFunction.cs``: m*x+b), ReciprocalFunction
  (``ReciprocalFloatFunction.cs:82-85``: a/(m*x+b)), ScaleFunction
  (``ScaleFloatFunction.cs``: (x-minVal)*(max-min)/(maxVal-minVal)+min
  with minVal/maxVal computed over ALL docs of the reader like
  CreateScaleInfo walks every segment).

- Wave 2 combinators: PowFunction (``PowFloatFunction.cs:41-44``, double
  pow cast to float), DivFunction (``DivFloatFunction.cs``), Max/MinFunction
  (``MaxFloatFunction.cs:39-46``), RangeMapFunction
  (``RangeMapFloatFunction.cs``), IfFunction (``IfFunction.cs:80-83``); and
  stats-backed sources: TermFreqSource/TFSource
  (``TermFreqValueSource.cs:164`` / ``TFValueSource.cs:155-179`` — per-doc
  postings freq / sqrt tf), DocFreqSource/IDFSource
  (``DocFreqValueSource.cs`` / ``IDFValueSource.cs:48-58`` — constants from
  GLOBAL term stats, broadcast in the plan, never recomputed per bucket),
  NormSource (``NormValueSource.cs:95-98``), SumTotalTermFreqSource /
  TotalTermFreqSource, MaxDocSource / NumDocsSource.

- :func:`function_search` — ``FunctionQuery.cs`` AllScorer:167-174: every
  live doc matches, score = f32(boost * value). Evaluated per bucket with
  a per-bucket partial top-k then a tiny driver merge (never a corpus-size
  sort), the same scatter/merge shape as the BM25 serving path.

- :func:`boosted_search` — ``BoostedQuery.cs`` CustomScorer:181-184:
  score = f32(f32(boost * subQueryScore) * value) over the sub-query's
  match set (left-assoc float multiply order as written there:
  ``qWeight * scorer.GetScore() * vals.SingleVal(doc)``).

At cluster scale the ValueSource tree is plan-shippable state (pure
constants + field names), evaluated bucket-locally by the serving actors;
nothing here materializes text or postings on the driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lucenenet_ray.search.query import Query


@dataclass(frozen=True)
class ValueSource:
    def values(self, reader, bucket) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class Int64FieldSource(ValueSource):
    """LongFieldSource.cs: SingleVal = (float)longValue from doc values —
    read through :meth:`IndexReader.numeric_docvalues` so stacked
    update-log generations are applied (ReaderAndUpdates semantics)."""

    field: str = ""

    def values(self, reader, bucket) -> np.ndarray:
        return reader.numeric_docvalues(
            bucket.bucket_id, self.field).astype(np.float32)


@dataclass(frozen=True)
class ConstValueSource(ValueSource):
    value: float = 0.0

    def values(self, reader, bucket) -> np.ndarray:
        return np.full(bucket.n_docs, np.float32(self.value),
                       dtype=np.float32)


@dataclass(frozen=True)
class SumFunction(ValueSource):
    sources: tuple[ValueSource, ...] = ()

    def values(self, reader, bucket) -> np.ndarray:
        acc = np.zeros(bucket.n_docs, dtype=np.float32)
        for s in self.sources:  # left-assoc float32 adds
            acc = acc + s.values(reader, bucket)
        return acc


@dataclass(frozen=True)
class ProductFunction(ValueSource):
    sources: tuple[ValueSource, ...] = ()

    def values(self, reader, bucket) -> np.ndarray:
        acc = np.ones(bucket.n_docs, dtype=np.float32)
        for s in self.sources:  # left-assoc float32 multiplies
            acc = acc * s.values(reader, bucket)
        return acc


@dataclass(frozen=True)
class LinearFunction(ValueSource):
    """LinearFloatFunction.cs: m*x + b."""

    source: ValueSource = None
    slope: float = 1.0
    intercept: float = 0.0

    def values(self, reader, bucket) -> np.ndarray:
        x = self.source.values(reader, bucket)
        return np.float32(self.slope) * x + np.float32(self.intercept)


@dataclass(frozen=True)
class ReciprocalFunction(ValueSource):
    """ReciprocalFloatFunction.cs:82-85: a/(m*x + b)."""

    source: ValueSource = None
    a: float = 1.0
    m: float = 1.0
    b: float = 1.0

    def values(self, reader, bucket) -> np.ndarray:
        x = self.source.values(reader, bucket)
        return np.float32(self.a) / (np.float32(self.m) * x
                                     + np.float32(self.b))


@dataclass(frozen=True)
class ScaleFunction(ValueSource):
    """ScaleFloatFunction.cs: rescale the source's [minVal, maxVal] (over
    ALL docs, CreateScaleInfo) into [min, max]."""

    source: ValueSource = None
    min: float = 0.0
    max: float = 1.0

    def _scale_info(self, reader) -> tuple[np.float32, np.float32]:
        # CreateScaleInfo walks every segment once per search; memoized per
        # reader so per-bucket evaluation isn't O(buckets^2).
        cache = reader.__dict__.setdefault("_scaleinfo_cache", {})
        hit = cache.get(self)
        if hit is not None:
            return hit
        lo = np.float32(np.inf)
        hi = np.float32(-np.inf)
        for b in reader.bucket_ids:
            v = self.source.values(reader, reader.bucket(b))
            if v.size:
                lo = min(lo, v.min())
                hi = max(hi, v.max())
        cache[self] = (np.float32(lo), np.float32(hi))
        return cache[self]

    def values(self, reader, bucket) -> np.ndarray:
        lo, hi = self._scale_info(reader)
        span = hi - lo
        scale = (np.float32(1.0) if span == np.float32(0.0)
                 else (np.float32(self.max) - np.float32(self.min)) / span)
        x = self.source.values(reader, bucket)
        return (x - lo) * scale + np.float32(self.min)


@dataclass(frozen=True)
class PowFunction(ValueSource):
    """PowFloatFunction.cs:41-44: (float)Math.Pow(a, b) — the two float32
    operands are promoted to double, powed, and cast back to float32."""

    a: ValueSource = None
    b: ValueSource = None

    def values(self, reader, bucket) -> np.ndarray:
        av = self.a.values(reader, bucket).astype(np.float64)
        bv = self.b.values(reader, bucket).astype(np.float64)
        return np.power(av, bv).astype(np.float32)


@dataclass(frozen=True)
class DivFunction(ValueSource):
    """DivFloatFunction.cs:39-42: a / b, float32 division."""

    a: ValueSource = None
    b: ValueSource = None

    def values(self, reader, bucket) -> np.ndarray:
        return self.a.values(reader, bucket) / self.b.values(reader, bucket)


@dataclass(frozen=True)
class MaxFunction(ValueSource):
    """MaxFloatFunction.cs:39-46: elementwise max over components (the
    reference folds with a float.NegativeInfinity seed)."""

    sources: tuple[ValueSource, ...] = ()

    def values(self, reader, bucket) -> np.ndarray:
        acc = np.full(bucket.n_docs, -np.inf, dtype=np.float32)
        for s in self.sources:
            acc = np.maximum(acc, s.values(reader, bucket))
        return acc


@dataclass(frozen=True)
class MinFunction(ValueSource):
    """MinFloatFunction.cs:39-46: elementwise min over components."""

    sources: tuple[ValueSource, ...] = ()

    def values(self, reader, bucket) -> np.ndarray:
        acc = np.full(bucket.n_docs, np.inf, dtype=np.float32)
        for s in self.sources:
            acc = np.minimum(acc, s.values(reader, bucket))
        return acc


@dataclass(frozen=True)
class RangeMapFunction(ValueSource):
    """RangeMapFloatFunction.cs:80-90: source values inside [min, max]
    (inclusive, float32 compare) map to the target source's value; values
    outside map to the default source's value, or pass through unchanged
    when no default is given."""

    source: ValueSource = None
    min: float = 0.0
    max: float = 0.0
    target: ValueSource = None
    default: ValueSource | None = None

    def values(self, reader, bucket) -> np.ndarray:
        v = self.source.values(reader, bucket)
        t = self.target.values(reader, bucket)
        d = (self.default.values(reader, bucket)
             if self.default is not None else v)
        inside = (v >= np.float32(self.min)) & (v <= np.float32(self.max))
        return np.where(inside, t, d).astype(np.float32)


@dataclass(frozen=True)
class IfFunction(ValueSource):
    """IfFunction.cs:80-83: ifVals.BoolVal(doc) ? trueVal : falseVal; a
    float SingleDocValues' BoolVal is ``SingleVal(doc) != 0``
    (DocValues/SingleDocValues.cs)."""

    cond: ValueSource = None
    true_source: ValueSource = None
    false_source: ValueSource = None

    def values(self, reader, bucket) -> np.ndarray:
        c = self.cond.values(reader, bucket)
        t = self.true_source.values(reader, bucket)
        f = self.false_source.values(reader, bucket)
        return np.where(c != np.float32(0.0), t, f).astype(np.float32)


@dataclass(frozen=True)
class TermFreqSource(ValueSource):
    """TermFreqValueSource.cs:164: the raw postings Freq for the term in
    each doc; 0 for docs without the term (the reference's enum returns
    ``Freq = 0`` past the last match)."""

    term: str = ""

    def values(self, reader, bucket) -> np.ndarray:
        ids = bucket.norms()[0]
        out = np.zeros(len(ids), dtype=np.float32)
        ch = bucket.chunks_for_terms([self.term]).get(self.term)
        if ch is not None:
            idx = np.searchsorted(ids, ch.docs())
            out[idx] = ch.freqs().astype(np.float32)
        return out


@dataclass(frozen=True)
class TFSource(ValueSource):
    """TFValueSource.cs:155-179: similarity.Tf(freq) with the searcher's
    TFIDFSimilarity — (float)Math.Sqrt(freq); Tf(0) = 0 for docs without
    the term."""

    term: str = ""

    def values(self, reader, bucket) -> np.ndarray:
        f = TermFreqSource(self.term).values(reader, bucket)
        return np.sqrt(f.astype(np.float64)).astype(np.float32)


@dataclass(frozen=True)
class DocFreqSource(ValueSource):
    """DocFreqValueSource.cs:53: constant (float)searcher.DocFreq(term) —
    GLOBAL df (IndexSearcher.TermStatistics), identical in every bucket."""

    term: str = ""

    def values(self, reader, bucket) -> np.ndarray:
        df = reader.term_stats([self.term]).get(self.term, (0, 0))[0]
        return np.full(bucket.n_docs, np.float32(df), dtype=np.float32)


@dataclass(frozen=True)
class IDFSource(ValueSource):
    """IDFValueSource.cs:48-58: constant TFIDFSimilarity.Idf(docFreq,
    reader.MaxDoc) = (float)(ln(maxDoc / (double)(df + 1)) + 1)."""

    term: str = ""

    def values(self, reader, bucket) -> np.ndarray:
        from lucenenet_ray.search.bm25 import classic_idf

        df = reader.term_stats([self.term]).get(self.term, (0, 0))[0]
        w = classic_idf(df, reader.num_docs)
        return np.full(bucket.n_docs, w, dtype=np.float32)


@dataclass(frozen=True)
class NormSource(ValueSource):
    """NormValueSource.cs:95-98: similarity.DecodeNormValue(normByte) —
    ClassicSimilarity's SmallFloat Byte315ToSingle table per doc."""

    field: str = "body"

    def values(self, reader, bucket) -> np.ndarray:
        from lucenenet_ray.util.smallfloat import CLASSIC_NORM_TABLE

        norm = bucket.norms()[2]
        return CLASSIC_NORM_TABLE[norm.astype(np.int64)].astype(np.float32)


@dataclass(frozen=True)
class SumTotalTermFreqSource(ValueSource):
    """SumTotalTermFreqValueSource.cs:72: constant (float)sumTotalTermFreq
    of the field (total token count of the index)."""

    field: str = "body"

    def values(self, reader, bucket) -> np.ndarray:
        return np.full(bucket.n_docs, np.float32(reader.sum_total_term_freq),
                       dtype=np.float32)


@dataclass(frozen=True)
class TotalTermFreqSource(ValueSource):
    """TotalTermFreqValueSource.cs:66-80: constant (float)totalTermFreq of
    the term summed over all segments (0 when absent)."""

    term: str = ""

    def values(self, reader, bucket) -> np.ndarray:
        ttf = reader.term_stats([self.term]).get(self.term, (0, 0))[1]
        return np.full(bucket.n_docs, np.float32(ttf), dtype=np.float32)


@dataclass(frozen=True)
class QueryValueSource(ValueSource):
    """QueryValueSource.cs: per-doc value = the wrapped query's relevance
    score, ``def_val`` for docs the query doesn't match (the reference's
    QueryDocValues walks the scorer lazily; here the sub-search runs once
    per reader — memoized — and scores scatter into a doc-aligned
    array)."""

    query: Query = None
    def_val: float = 0.0

    def _scores(self, reader) -> tuple[np.ndarray, np.ndarray]:
        cache = reader.__dict__.setdefault("_qvs_cache", {})
        hit = cache.get(self)
        if hit is None:
            from lucenenet_ray.search.searcher import search

            td = search(reader, self.query, k=reader.num_docs, prune=False)
            order = np.argsort(td.docs, kind="stable")
            hit = (td.docs[order], td.scores.astype(np.float32)[order])
            cache[self] = hit
        return hit

    def values(self, reader, bucket) -> np.ndarray:
        docs, scores = self._scores(reader)
        ids = bucket.norms()[0]
        out = np.full(len(ids), np.float32(self.def_val), dtype=np.float32)
        if docs.size:
            idx = np.searchsorted(docs, ids)
            ok = idx < docs.size
            ok[ok] = docs[idx[ok]] == ids[ok]
            out[ok] = scores[idx[ok]]
        return out


@dataclass(frozen=True)
class OrdFieldSource(ValueSource):
    """OrdFieldSource.cs:63-103 / ReverseOrdFieldSource.cs:66-100: the
    doc's GLOBAL ordinal for a single-valued string field — both sources
    wrap the TOP-level reader (SlowCompositeReaderWrapper), so the ord is
    the rank of the doc's value among the index-wide sorted distinct
    values of the field; missing docs read ord -1. ``reverse`` gives
    ``valueCount - ord - 1`` (ReverseOrdFieldSource Int32Val).

    Global ords come from ONE term-dictionary range scan (the field's
    sorted terms — plan-shippable, broadcast once per reader); per-bucket
    assignment walks only that field's postings (single-valued: one hit
    per doc), memoized per (bucket, field)."""

    field: str = ""
    reverse: bool = False

    def _field_terms(self, reader) -> list[str]:
        from lucenenet_ray.search.query import FIELD_SEP

        cache = reader.__dict__.setdefault("_ord_terms_cache", {})
        terms = cache.get(self.field)
        if terms is None:
            from lucenenet_ray.search.reader import _prefix_successor

            prefix = self.field + FIELD_SEP
            terms = reader.terms_in_range(prefix, _prefix_successor(prefix))
            cache[self.field] = terms
        return terms

    def _ords(self, reader, bucket) -> np.ndarray:
        cache = reader.__dict__.setdefault("_ord_vals_cache", {})
        key = (bucket.bucket_id, self.field)
        ords = cache.get(key)
        if ords is None:
            terms = self._field_terms(reader)
            ords = np.full(bucket.n_docs, -1, dtype=np.int64)
            chunks = bucket.chunks_for_terms(terms)
            for ordinal, t in enumerate(terms):
                c = chunks.get(t)
                if c is not None:
                    ords[c.local_ids(bucket)] = ordinal
            cache[key] = ords
        return ords

    def values(self, reader, bucket) -> np.ndarray:
        ords = self._ords(reader, bucket)
        if self.reverse:
            end = len(self._field_terms(reader))
            return (end - ords - 1).astype(np.float32)
        return ords.astype(np.float32)


@dataclass(frozen=True)
class MaxDocSource(ValueSource):
    """MaxDocValueSource.cs: constant reader.MaxDoc (includes deleted
    docs — tombstones don't shrink the docID space)."""

    def values(self, reader, bucket) -> np.ndarray:
        return np.full(bucket.n_docs, np.float32(reader.num_docs),
                       dtype=np.float32)


@dataclass(frozen=True)
class NumDocsSource(ValueSource):
    """NumDocsValueSource.cs:43: constant reader.NumDocs = maxDoc minus
    tombstoned docs, counted once per reader over every bucket's liveDocs."""

    def values(self, reader, bucket) -> np.ndarray:
        cache = reader.__dict__.setdefault("_numdocs_cache", {})
        key = getattr(reader, "deleted_terms", ())
        n = cache.get(key)
        if n is None:
            deleted = key
            n = 0
            for b in reader.bucket_ids:
                bd = reader.bucket(b)
                live = bd.live_mask(deleted)
                n += int(live.sum()) if live is not None else bd.n_docs
            cache[key] = n
        return np.full(bucket.n_docs, np.float32(n), dtype=np.float32)


def function_search(reader, vs: ValueSource, k: int = 10,
                    boost: float = 1.0) -> list[tuple[int, np.float32]]:
    """FunctionQuery top-k: all docs scored f32(boost * value), merged from
    per-bucket partial top-k in (score desc, doc asc) order."""
    bf = np.float32(boost)
    deleted = getattr(reader, "deleted_terms", ())
    partials: list[tuple[np.ndarray, np.ndarray]] = []
    for b in reader.bucket_ids:
        bucket = reader.bucket(b)
        ids = bucket.norms()[0]
        scores = bf * vs.values(reader, bucket)
        live = bucket.live_mask(deleted)
        if live is not None:
            ids, scores = ids[live], scores[live]
        if ids.size > k:
            # tie-safe partial top-k: keep EVERY doc scoring >= the k-th
            # score, then (score desc, doc asc) — HitQueue tie-break
            part = np.argpartition(-scores, k - 1)
            kth = scores[part[k - 1]]
            cand = np.flatnonzero(scores >= kth)
            top = cand[np.lexsort((ids[cand], -scores[cand]))][:k]
        else:
            top = np.lexsort((ids, -scores))
        partials.append((ids[top], scores[top]))
    docs = np.concatenate([p[0] for p in partials])
    scores = np.concatenate([p[1] for p in partials])
    order = np.lexsort((docs, -scores))[:k]
    return [(int(docs[i]), np.float32(scores[i])) for i in order]


def function_grouping_search(reader, sub: Query, vs: ValueSource,
                             n_groups: int = 3, group_docs: int = 2,
                             ) -> list[tuple[np.float32, list[tuple[int, np.float32]]]]:
    """GroupingSearch(ValueSource) — the Grouping/Function collectors
    (``FunctionFirstPassGroupingCollector.cs`` /
    ``FunctionSecondPassGroupingCollector.cs``): the group key is the
    value source's per-doc value; first pass ranks groups by their best
    doc's relevance (groupSort = score desc, key asc on ties), second
    pass keeps the top ``group_docs`` docs per selected group
    (score desc, doc asc). Returns [(key, [(doc, score), ...]), ...] in
    group-rank order."""
    from lucenenet_ray.search.searcher import search

    td = search(reader, sub, k=reader.num_docs, prune=False)
    all_ids: list[np.ndarray] = []
    all_vals: list[np.ndarray] = []
    for b in reader.bucket_ids:
        bucket = reader.bucket(b)
        all_ids.append(bucket.norms()[0])
        all_vals.append(vs.values(reader, bucket))
    ids = np.concatenate(all_ids)
    vals = np.concatenate(all_vals)
    order = np.argsort(ids, kind="stable")
    ids, vals = ids[order], vals[order]
    keys = vals[np.searchsorted(ids, td.docs)]
    scores = td.scores.astype(np.float32)
    uniq = np.unique(keys)
    gmax = np.array([scores[keys == u].max() for u in uniq],
                    dtype=np.float32)
    gorder = np.lexsort((uniq, -gmax))[:n_groups]
    out = []
    for gi in gorder:
        u = uniq[gi]
        m = keys == u
        d, s = td.docs[m], scores[m]
        top = np.lexsort((d, -s))[:group_docs]
        out.append((np.float32(u),
                    [(int(d[i]), np.float32(s[i])) for i in top]))
    return out


def boosted_search(reader, sub: Query, vs: ValueSource, k: int = 10,
                   boost: float = 1.0) -> list[tuple[int, np.float32]]:
    """BoostedQuery top-k: sub-query hits re-scored by
    f32(f32(boost * subscore) * value)."""
    from lucenenet_ray.search.searcher import search

    bf = np.float32(boost)
    td = search(reader, sub, k=reader.num_docs, prune=False)
    all_ids: list[np.ndarray] = []
    all_vals: list[np.ndarray] = []
    for b in reader.bucket_ids:
        bucket = reader.bucket(b)
        all_ids.append(bucket.norms()[0])
        all_vals.append(vs.values(reader, bucket))
    ids = np.concatenate(all_ids)
    vals = np.concatenate(all_vals)
    order = np.argsort(ids, kind="stable")
    ids, vals = ids[order], vals[order]
    hit_vals = vals[np.searchsorted(ids, td.docs)]
    scores = (bf * td.scores.astype(np.float32)) * hit_vals
    top = np.lexsort((td.docs, -scores))[:k]
    return [(int(td.docs[i]), np.float32(scores[i])) for i in top]
