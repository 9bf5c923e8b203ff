"""ParallelCompositeReader analog — several field-partitioned indexes over
the SAME document space searched as one index
(``Lucene.Net/Index/ParallelCompositeReader.cs`` /
``ParallelAtomicReader.cs``: "an AtomicReader which reads multiple,
parallel indexes. Each index added must have the same number of
documents, but typically each contains different fields").

Re-expressed for this engine's layout: every index shares the bucketed
docID partitioning (build the parallel indexes with the SAME id_min /
id_max / n_buckets — the analog of Lucene's same-docID requirement, which
the reference enforces at :71-76 by comparing maxDoc across readers).
Terms route by their embedded field prefix (``F\x1fterm``; body terms are
unprefixed), exactly ParallelAtomicReader's fieldToReader map (:66-94):

* postings / term stats / multi-term expansion → the reader that owns
  the term's field;
* norms, docIDs, doc order → the BODY reader (the reader that owns the
  scored field — ParallelAtomicReader likewise serves Norms from the
  field's owner);
* live docs → the AND of every sub-reader's tombstone resolution (each
  delete-by-term applies on the index that owns the term; the reference
  takes liveDocs from parallel readers as an invariant-shared view);
* numeric doc-values → routed by an explicit ``dv_fields`` map (the
  fieldToReader map again, DocValues arm :96-118).

Chunks produced by a field index are mapped to bucket-local positions
against the body bucket's norms (PostingsChunk.local_ids takes the
bucket to map against), which is exactly why the same-docs requirement
exists.
"""

from __future__ import annotations

import numpy as np

from lucenenet_ray.search.query import FIELD_SEP
from lucenenet_ray.search.reader import BucketData, IndexReader


def _field_of(term: str) -> str | None:
    """None = body (unprefixed terms)."""
    return term.split(FIELD_SEP, 1)[0] if FIELD_SEP in term else None


class ParallelBucketData:
    """One bucket of the parallel view: body bucket serves norms/doc
    order; postings route by field.  Everything not overridden delegates
    to the body bucket."""

    def __init__(self, body: BucketData,
                 bucket_of: dict[str | None, BucketData]):
        self._body = body
        self._bucket_of = bucket_of
        self._plive: tuple | None = None

    def __getattr__(self, name):
        return getattr(self._body, name)

    def _route(self, terms: list[str]) -> list[tuple[BucketData, list[str]]]:
        out: dict[int, tuple[BucketData, list[str]]] = {}
        for t in terms:
            bd = self._bucket_of.get(_field_of(t), self._body)
            out.setdefault(id(bd), (bd, []))[1].append(t)
        return list(out.values())

    def chunks_for_terms(self, terms: list[str]):
        chunks = {}
        for bd, ts in self._route(list(terms)):
            chunks.update(bd.chunks_for_terms(ts))
        return chunks

    def live_mask(self, deleted_terms: tuple[str, ...]) -> np.ndarray | None:
        """AND of every sub-reader's tombstone resolution, aligned to the
        BODY doc order (same-docs invariant)."""
        if not deleted_terms:
            return None
        if self._plive is not None and self._plive[0] == deleted_terms:
            return self._plive[1]
        live = np.ones(self._body.n_docs, dtype=bool)
        hit = False
        chunks = self.chunks_for_terms(list(deleted_terms))
        for c in chunks.values():
            # map against SELF: norms() delegates to the body bucket
            live[c.local_ids(self)] = False
            hit = True
        mask = live if hit else None
        self._plive = (deleted_terms, mask)
        return mask

    def docvalues(self, field: str) -> np.ndarray:
        return self._bucket_of.get(f"__dv__{field}", self._body) \
            .docvalues(field)


class ParallelIndexReader:
    """Compose readers over the same doc space; ``field_map`` maps field
    name → index into ``readers`` (None = the body/scored field);
    ``dv_fields`` maps numeric doc-values field → reader index."""

    def __init__(self, readers: list[IndexReader],
                 field_map: dict[str | None, int],
                 dv_fields: dict[str, int] | None = None):
        self.readers = readers
        self.field_map = dict(field_map)
        self.dv_fields = dict(dv_fields or {})
        body = readers[self.field_map.get(None, 0)]
        self.body = body
        # ParallelCompositeReader.cs:71-76 — same maxDoc/numDocs required
        for r in readers:
            if r.num_docs != body.num_docs:
                raise ValueError(
                    f"parallel readers must share the doc space: "
                    f"{r.index_path} has {r.num_docs} docs, body has "
                    f"{body.num_docs}")
            if list(r.bucket_ids) != list(body.bucket_ids):
                raise ValueError("parallel readers must share the bucket "
                                 "partitioning (same id range / n_buckets)")
        self.index_path = body.index_path
        self.manifest = body.manifest
        self.num_docs = body.num_docs
        self.sum_total_term_freq = body.sum_total_term_freq
        self.deleted_terms = tuple(
            t for r in readers for t in r.deleted_terms)
        self.dv_updates = tuple(
            u for r in readers for u in r.dv_updates)
        self._buckets: dict[int, ParallelBucketData] = {}

    # -- reader surface consumed by plan_query/search ----------------------
    @property
    def bucket_ids(self):
        return self.body.bucket_ids

    def version(self) -> tuple:
        return tuple(r.version() for r in self.readers)

    def _reader_of(self, field: str | None) -> IndexReader:
        return self.readers[self.field_map.get(field,
                                               self.field_map.get(None, 0))]

    def bucket(self, bucket_id: int) -> ParallelBucketData:
        pb = self._buckets.get(bucket_id)
        if pb is None:
            bucket_of: dict[str | None, BucketData] = {
                f: self.readers[i].bucket(bucket_id)
                for f, i in self.field_map.items()
            }
            for f, i in self.dv_fields.items():
                bucket_of[f"__dv__{f}"] = self.readers[i].bucket(bucket_id)
            pb = ParallelBucketData(
                self.readers[self.field_map.get(None, 0)].bucket(bucket_id),
                bucket_of)
            self._buckets[bucket_id] = pb
        return pb

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        by_reader: dict[int, list[str]] = {}
        for t in terms:
            r = self._reader_of(_field_of(t))
            by_reader.setdefault(id(r), []).append(t)
        readers_by_id = {id(r): r for r in self.readers}
        out: dict[str, tuple[int, int]] = {}
        for rid, ts in by_reader.items():
            out.update(readers_by_id[rid].term_stats(ts))
        return out

    def numeric_docvalues(self, bucket_id: int, field: str) -> np.ndarray:
        return self.readers[self.dv_fields.get(
            field, self.field_map.get(None, 0))] \
            .numeric_docvalues(bucket_id, field)

    def term_vector(self, doc_id: int, field: str | None = None):
        return self._reader_of(field).term_vector(doc_id, field)

    def expand_query(self, q) -> list[str]:
        """Every sub-reader expands with its own term dict; the per-reader
        field filter keeps expansions inside the query's field, so the
        concatenation is exactly the owning reader's result."""
        out: list[str] = []
        for r in self.readers:
            out.extend(r.expand_query(q))
        return out

    def expand_terms(self, predicate, max_expansions: int = 1024):
        out = []
        for r in self.readers:
            out.extend(r.expand_terms(predicate, max_expansions))
        return out[:max_expansions]

    def terms_in_range(self, lower, upper, **kw):
        out = []
        for r in self.readers:
            out.extend(r.terms_in_range(lower, upper, **kw))
        return out

    def doc_count(self) -> int:
        return self.body.doc_count()
