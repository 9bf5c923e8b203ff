"""Index-backed text classification (Lucene.Net.Classification analogs).

Reference semantics re-expressed (NOT ported):

- :class:`NaiveBayesClassifier` — ``SimpleNaiveBayesClassifier.cs:141-232``:
  classes are the terms of a keyword class field; for input tokens w (in
  token order, duplicates counted)::

      logp(c) = ln(df_c) - ln(D)                            # prior
              + sum_w ln((hits(w, c) + 1) / (avgUnique * df_c + D))

  where ``hits(w,c)`` is the doc count of ``w AND class:c``
  (``GetWordFreqForClass``, :85 conjunction + TotalHitCountCollector),
  ``D`` the number of docs with a class (``CountDocsWithClass``), and
  ``avgUnique = sumDocFreq(text)/docCount(text)`` the average number of
  unique terms per doc (``GetTextTermFreqForClass``, :192-203).  The
  assigned class is the strict-max in class-sorted order
  (termsEnum order + ``>`` at :157) with score ``10/|max|`` (:163).

- :class:`KNNClassifier` — ``KNearestNeighborClassifier.cs:70-122``:
  MoreLikeThis query from the input text (ops/mlt.py), BM25 top-k, then a
  majority vote over the neighbours' class field; score = votes/k.  Vote
  ties break toward the lexicographically smallest class (the reference's
  dict iteration order is unspecified; we pin a deterministic rule).

Ray shapes
----------
The classifier objects serve the reference's one-text-at-a-time API from an
:class:`IndexReader` (postings intersections are vectorized: a doc→class
array built once at train + one ``bincount`` per token — never a per-class
search loop).  For corpus-scale classification there are two Dataset-first
stages:

- :func:`train_nb_model` — ONE ``groupby(term, class)`` shuffle over
  per-batch-deduped (term, class) doc pairs; the model (vocab × classes hit
  counts + priors) comes back as one small Arrow table.
- :func:`nb_classify_dataset` — ``map_batches`` inference with the model
  broadcast via ``ray.put`` once (actor-pool stage: the log-likelihood
  matrix is built once per actor in ``__init__``); per-doc scores are
  ``np.add.reduceat`` segment sums — token order, left-associative, exactly
  the reference's accumulation order, no per-row Python.

Scale note: the model is vocab × n_classes.  At web scale prune the vocab
(df floor) or feature-hash before broadcasting; the shuffle side is already
pre-aggregated per batch so the exchange carries (term, class) pairs, not
tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _ln(a: np.ndarray) -> np.ndarray:
    """Elementwise natural log through LIBM (math.log), not numpy's SIMD
    kernel: DuckDB's ln() is libm and the oracle hashes are bit-compared,
    and numpy's vectorized log differs from libm by 1 ulp on ~20% of
    inputs (measured).  Only used on model-sized arrays (vocab x classes,
    built once) — the per-doc hot path stays vectorized adds."""
    return np.array([math.log(v) for v in np.asarray(a, dtype=np.float64).ravel()],
                    dtype=np.float64).reshape(np.shape(a))

# ---------------------------------------------------------------------------
# shared model


@dataclass
class NBModel:
    """Trained naive-Bayes state: everything AssignClass needs, no reader."""

    classes: list[str]              # sorted
    df_c: np.ndarray                # docs per class                (int64)
    docs_with_class: int            # D
    avg_unique: float               # sumDocFreq(text) / docCount(text)
    vocab: dict[str, int]           # term -> row in hits
    hits: np.ndarray                # (|vocab|, |classes|) doc counts

    def dens(self) -> np.ndarray:
        """Per-class likelihood denominator (doubles, reference :181)."""
        return self.avg_unique * self.df_c.astype(np.float64) + float(
            self.docs_with_class)

    def priors(self) -> np.ndarray:
        return _ln(self.df_c.astype(np.float64)) - math.log(
            float(self.docs_with_class))

    def log_probs(self, tokens: list[str]) -> np.ndarray:
        """Per-class logp for one tokenized doc — reference accumulation
        order: lik starts at 0.0 and adds ln((h+1)/den) per token in doc
        order, then prior + lik."""
        dens = self.dens()
        lik = np.zeros(len(self.classes), dtype=np.float64)
        unk = _ln(1.0 / dens)
        lnrows: dict[str, np.ndarray] = {}
        for w in tokens:
            row = lnrows.get(w)
            if row is None:
                i = self.vocab.get(w)
                row = unk if i is None else _ln(
                    (self.hits[i].astype(np.float64) + 1.0) / dens)
                lnrows[w] = row
            lik = lik + row
        return self.priors() + lik

    def assign(self, tokens: list[str]) -> tuple[str, float]:
        """(class, score) — strict max in class-sorted order, score 10/|max|
        (SimpleNaiveBayesClassifier.cs:147-164)."""
        lp = self.log_probs(tokens)
        i = int(np.argmax(lp))  # first max == strict '>' in sorted order
        return self.classes[i], 10.0 / abs(float(lp[i]))


# ---------------------------------------------------------------------------
# reference-shaped: train from the inverted index


def _class_terms(reader, class_field: str) -> list[str]:
    from lucenenet_ray.search.reader import _prefix_successor
    from lucenenet_ray.search.query import FIELD_SEP

    pref = class_field + FIELD_SEP
    qterms = reader.terms_in_range(pref, _prefix_successor(pref))
    return [t.split(FIELD_SEP, 1)[1] for t in qterms]


def _doc_class_array(reader, class_field: str,
                     classes: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(global doc→class-index array (-1 = unclassed), per-class doc counts).
    Built from the class terms' postings — the FieldCache pattern: one pass,
    then every hits() lookup is fancy indexing."""
    from lucenenet_ray.search.query import field_term

    maxdoc = 0
    for b in reader.bucket_ids:
        ids = reader.bucket(b).norms()[0]
        if ids.size:
            maxdoc = max(maxdoc, int(ids[-1]))
    arr = np.full(maxdoc + 1, -1, dtype=np.int32)
    df_c = np.zeros(len(classes), dtype=np.int64)
    for b in reader.bucket_ids:
        bucket = reader.bucket(b)
        chunks = bucket.chunks_for_terms(
            [field_term(class_field, c) for c in classes])
        for ci, c in enumerate(classes):
            ch = chunks.get(field_term(class_field, c))
            if ch is None:
                continue
            docs = ch.docs()
            arr[docs] = ci
            df_c[ci] += docs.size
    return arr, df_c


def _body_field_stats(reader) -> tuple[int, int]:
    """(sumDocFreq, docCount) of the body field — Terms.SumDocFreq /
    Terms.DocCount (reference :192-203): sum of df over body terms from the
    index's term dictionary; docs with >=1 body token from norms."""
    from lucenenet_ray.search.query import FIELD_SEP

    sumdf = 0
    for batch in reader._termstats().to_batches(columns=["term", "df"]):
        mask = pc.invert(pc.match_substring(batch.column("term"), FIELD_SEP))
        sumdf += int(pc.sum(pc.filter(batch.column("df"), mask)).as_py() or 0)
    doc_count = 0
    for b in reader.bucket_ids:
        doc_count += int((reader.bucket(b).norms()[1] > 0).sum())
    return sumdf, doc_count


def train_nb_from_reader(reader,
                         class_field: str = "source"
                         ) -> tuple[NBModel, np.ndarray]:
    """Train(atomicReader, textField, classField) analog: all statistics
    come from the index (term dictionary + class postings + norms).  The
    vocab×class hits matrix is filled lazily per query by
    :class:`NaiveBayesClassifier`; returns (class-side model state,
    global doc→class-index array)."""
    classes = _class_terms(reader, class_field)
    arr, df_c = _doc_class_array(reader, class_field, classes)
    sumdf, doc_count = _body_field_stats(reader)
    return NBModel(
        classes=classes,
        df_c=df_c,
        docs_with_class=int((arr >= 0).sum()),
        avg_unique=sumdf / doc_count,
        vocab={},
        hits=np.empty((0, len(classes)), dtype=np.int64),
    ), arr


class NaiveBayesClassifier:
    """SimpleNaiveBayesClassifier over an :class:`IndexReader`: hits(w,c)
    computed as ``bincount(class_of[postings(w)])`` — the conjunction counts
    of the reference's per-(word, class) Boolean searches, all classes in
    one postings read."""

    def __init__(self, reader, class_field: str = "source", analyzer=None):
        from lucenenet_ray.analysis.standard import StandardAnalyzer

        self.reader = reader
        self.model, self._class_of = train_nb_from_reader(reader, class_field)
        self.analyzer = analyzer or StandardAnalyzer()
        self._hits_cache: dict[str, np.ndarray] = {}

    def _prefetch(self, terms: list[str]) -> None:
        """Load hits for every missing term in ONE postings pass per bucket
        (chunks_for_terms reads each term's row group once per reader)."""
        missing = sorted({t for t in terms if t not in self._hits_cache})
        if not missing:
            return
        n = len(self.model.classes)
        acc = {t: np.zeros(n, dtype=np.int64) for t in missing}
        for b in self.reader.bucket_ids:
            chunks = self.reader.bucket(b).chunks_for_terms(missing)
            for t, ch in chunks.items():
                ci = self._class_of[ch.docs()]
                ci = ci[ci >= 0]
                acc[t] += np.bincount(ci, minlength=n)
        self._hits_cache.update(acc)

    def _hits(self, term: str) -> np.ndarray:
        self._prefetch([term])
        return self._hits_cache[term]

    def log_probs(self, text: str) -> np.ndarray:
        tokens, _pos = self.analyzer(text)
        self._prefetch(tokens)
        dens = self.model.dens()
        lik = np.zeros(len(self.model.classes), dtype=np.float64)
        lnrows: dict[str, np.ndarray] = {}
        for w in tokens:
            row = lnrows.get(w)
            if row is None:
                row = lnrows[w] = _ln(
                    (self._hits(w).astype(np.float64) + 1.0) / dens)
            lik = lik + row
        return self.model.priors() + lik

    def assign_class(self, text: str) -> tuple[str, float]:
        lp = self.log_probs(text)
        i = int(np.argmax(lp))
        return self.model.classes[i], 10.0 / abs(float(lp[i]))


# ---------------------------------------------------------------------------
# reference-shaped: kNN via MoreLikeThis


class KNNClassifier:
    """KNearestNeighborClassifier.cs:70-122 — MLT query, BM25 top-k,
    majority vote over the class stored field."""

    def __init__(self, reader, class_field: str = "source", k: int = 10,
                 analyzer=None):
        self.reader = reader
        self.class_field = class_field
        self.k = k
        self.analyzer = analyzer
        self.classes = _class_terms(reader, class_field)
        self._class_of, _df = _doc_class_array(reader, class_field,
                                               self.classes)

    def vote_table(self, text: str) -> list[tuple[str, int]]:
        """Class → votes among the k nearest neighbours, ordered
        (votes desc, class asc)."""
        from lucenenet_ray.ops.mlt import more_like_this_query
        from lucenenet_ray.search.searcher import search

        q = more_like_this_query(self.reader, text, analyzer=self.analyzer)
        td = search(self.reader, q, k=self.k, prune=True)
        votes: dict[str, int] = {}
        for doc_id, _score in td.to_list():
            ci = int(self._class_of[doc_id])
            if ci >= 0:
                c = self.classes[ci]
                votes[c] = votes.get(c, 0) + 1
        return sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))

    def assign_class(self, text: str) -> tuple[str, float]:
        """(class, votes/k) — SelectClassFromNeighbors with the pinned
        deterministic tie-break."""
        vt = self.vote_table(text)
        if not vt:
            return "", 0.0
        c, n = vt[0]
        return c, n / float(self.k)


# ---------------------------------------------------------------------------
# Ray-Data-first: corpus-scale train + classify


def train_nb_model(docs_ds, class_col: str = "source",
                   text_col: str = "text") -> NBModel:
    """ONE-shuffle NB trainer over a documents Dataset.

    map_batches tokenizes and emits per-batch-DEDUPED (term, class) doc
    pairs (the combiner: a doc never spans batches, so per-doc dedup is
    exact), then a single ``groupby(term, class).count()`` produces the
    hits matrix.  Class priors and the avg-unique-terms scalar ride the
    same pass as tiny side aggregates.
    """
    import ray
    import ray.data  # noqa: F401

    def pairs(batch: pa.Table) -> pa.Table:
        from lucenenet_ray.analysis.standard import StandardAnalyzer

        an = _analyzer_singleton(StandardAnalyzer)
        terms, classes = [], []
        cls_col = batch.column(class_col).to_pylist()
        txt_col = batch.column(text_col).to_pylist()
        for c, txt in zip(cls_col, txt_col):
            toks, _ = an(txt)
            uniq = sorted(set(toks))
            terms.extend(uniq)
            classes.extend([c] * len(uniq))
        return pa.table({
            "term": pa.array(terms, type=pa.string()),
            "cls": pa.array(classes, type=pa.string()),
        })

    agg = docs_ds.map_batches(pairs, batch_format="pyarrow") \
                 .groupby(["term", "cls"]).count()
    t = pa.concat_tables(
        [b for b in ray.get(agg.to_arrow_refs()) if b.num_rows],
        promote_options="permissive")
    # class priors + body-field stats from the same table (plus doc counts)
    df_tab = docs_ds.groupby(class_col).count().to_pandas()
    classes = sorted(df_tab[class_col].tolist())
    cidx = {c: i for i, c in enumerate(classes)}
    df_c = np.zeros(len(classes), dtype=np.int64)
    for c, n in zip(df_tab[class_col], df_tab["count()"]):
        df_c[cidx[c]] = n
    sumdf = int(pc.sum(t.column("count()")).as_py())  # (doc,term) pairs
    # docCount(text) = docs with >=1 token = sum over classes of docs that
    # contributed pairs — recompute exactly: docs with empty token sets
    # contribute no pairs, so count distinct docs via a tiny second agg
    # on doc length (cheap: one column)
    doc_count = docs_ds.map_batches(_doc_count_batch(text_col),
                                    batch_format="pyarrow") \
                       .sum(on="nonempty")
    vocab_terms = pc.unique(t.column("term")).to_pylist()
    vocab_terms.sort()
    vocab = {w: i for i, w in enumerate(vocab_terms)}
    hits = np.zeros((len(vocab), len(classes)), dtype=np.int64)
    trow = [vocab[w] for w in t.column("term").to_pylist()]
    tcol = [cidx[c] for c in t.column("cls").to_pylist()]
    hits[trow, tcol] = t.column("count()").to_numpy()
    return NBModel(
        classes=classes,
        df_c=df_c,
        docs_with_class=int(df_c.sum()),
        avg_unique=sumdf / int(doc_count),
        vocab=vocab,
        hits=hits,
    )


def _doc_count_batch(text_col: str):
    def fn(batch: pa.Table) -> pa.Table:
        from lucenenet_ray.analysis.standard import StandardAnalyzer

        an = _analyzer_singleton(StandardAnalyzer)
        n = 0
        for txt in batch.column(text_col).to_pylist():
            toks, _ = an(txt)
            if toks:
                n += 1
        return pa.table({"nonempty": pa.array([n], type=pa.int64())})
    return fn


_AN_SINGLETON = {}


def _analyzer_singleton(cls):
    a = _AN_SINGLETON.get(cls)
    if a is None:
        a = _AN_SINGLETON[cls] = cls()
    return a


class NBClassifyBatches:
    """Actor-pool inference stage: the ln((h+1)/den) matrix and priors are
    built ONCE per actor from the broadcast model ref (``__init__``); each
    ``__call__`` classifies a whole Arrow batch with reduceat segment sums
    (token-order left-assoc adds — the reference's loop order)."""

    def __init__(self, model_ref, text_col: str = "text",
                 id_col: str = "doc_id"):
        import ray

        model: NBModel = ray.get(model_ref) if not isinstance(
            model_ref, NBModel) else model_ref
        self.text_col, self.id_col = text_col, id_col
        self.classes = np.array(model.classes)
        dens = model.dens()
        self.priors = model.priors()
        # last row = unknown-term fallback ln(1/den)
        self.lnmat = np.vstack([
            _ln((model.hits.astype(np.float64) + 1.0) / dens),
            _ln(1.0 / dens)[None, :],
        ])
        self.vocab = model.vocab
        self.unk = len(model.vocab)
        from lucenenet_ray.analysis.standard import StandardAnalyzer

        self.analyzer = StandardAnalyzer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy()
        rows, seg = [], [0]
        for txt in batch.column(self.text_col).to_pylist():
            toks, _ = self.analyzer(txt)
            rows.extend(self.vocab.get(w, self.unk) for w in toks)
            seg.append(len(rows))
        seg = np.asarray(seg)
        starts, ends = seg[:-1], seg[1:]
        lp = np.tile(self.priors, (len(ids), 1))
        nonempty = ends > starts
        if rows:
            # empty docs contribute zero rows, so each nonempty doc's
            # segment runs exactly [start, next nonempty start) == its own
            # token range: reduceat gives fresh per-doc left-assoc sums in
            # token order — the reference's accumulation order bit-exactly
            # (0.0 + x == x, so starting from the first element matches)
            sums = np.add.reduceat(self.lnmat[np.asarray(rows)],
                                   starts[nonempty], axis=0)
            lp[nonempty] += sums
        amax = np.argmax(lp, axis=1)
        return pa.table({
            self.id_col: pa.array(ids),
            "cls": pa.array(self.classes[amax]),
        })


def nb_classify_dataset(docs_ds, model: NBModel, text_col: str = "text",
                        id_col: str = "doc_id", concurrency: int = 4):
    """Corpus-scale AssignClass: broadcast the model once, classify every
    doc with the actor-pool stage.  The pool is capped at cluster CPUs − 2
    so the upstream read tasks keep a slot (a pool that owns every CPU
    starves the reads and deadlocks the streaming executor)."""
    import ray

    ref = ray.put(model)
    cap = max(1, int(ray.cluster_resources().get("CPU", 4)) - 2)
    return docs_ds.map_batches(
        NBClassifyBatches,
        fn_constructor_args=(ref, text_col, id_col),
        batch_format="pyarrow",
        concurrency=min(concurrency, cap),
    )


# ---------------------------------------------------------------------------
# train/test/cv dataset splitting (Utils/DatasetSplitter.cs)


def dataset_split_assignment(size: int, test_ratio: float,
                             cv_ratio: float) -> "np.ndarray":
    """DatasetSplitter.Split's sequential assignment rule
    (DatasetSplitter.cs:112-124), reproduced exactly: iterating docs in
    docID order with counter b, a doc goes to TEST when ``b % 2 == 0`` and
    the test index is under ``size*testRatio`` docs, else to CV while under
    ``size*cvRatio``, else to TRAIN.  Returns int8 per position:
    0=train, 1=test, 2=cv."""
    out = np.zeros(size, dtype=np.int8)
    n_test = n_cv = 0
    for b in range(size):
        if b % 2 == 0 and n_test < size * test_ratio:
            out[b] = 1
            n_test += 1
        elif n_cv < size * cv_ratio:
            out[b] = 2
            n_cv += 1
    return out


def dataset_split(index_path: str, out_train: str, out_test: str,
                  out_cv: str, test_ratio: float = 0.2,
                  cv_ratio: float = 0.1):
    """Split one index into train/test/cross-validation indexes
    (DatasetSplitter.cs Split): one ``merge_indexes`` call per output,
    the other splits' docs dropped as its dead set — each output is a
    self-contained index with recomputed stats.  Returns the three
    manifests (train, test, cv).
    """
    from lucenenet_ray.index.merge_indexes import merge_indexes
    from lucenenet_ray.search.reader import IndexReader

    reader = IndexReader(index_path, deletes_path="/nonexistent")
    buckets = sorted(reader.bucket_ids)
    per_bucket = {b: reader.bucket(b).norms()[0] for b in buckets}
    size = sum(d.size for d in per_bucket.values())
    assign = dataset_split_assignment(size, test_ratio, cv_ratio)
    manifests = []
    pos0 = {b: 0 for b in buckets}
    pos = 0
    for b in buckets:  # global position = bucket offset + local row
        pos0[b] = pos
        pos += per_bucket[b].size
    for split_id, out in ((0, out_train), (1, out_test), (2, out_cv)):
        dead = {}
        for b in buckets:
            docs = per_bucket[b]
            a = assign[pos0[b]:pos0[b] + docs.size]
            dead[b] = docs[a != split_id]
        manifests.append(merge_indexes([(index_path, dead)], out))
    return manifests
