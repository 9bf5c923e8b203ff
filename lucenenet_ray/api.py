"""IndexWriter / IndexSearcher facade — the reference's primary user API
(``Index/IndexWriter.cs`` add/update/delete/commit/forceMerge,
``Search/IndexSearcher.cs`` search) mapped onto this engine's batch
machinery, so a Lucene.NET caller can switch call-for-call:

* ``AddDocument``      -> :meth:`IndexWriter.add_document` (buffered)
* ``DeleteDocuments``  -> :meth:`IndexWriter.delete_documents`
* ``UpdateDocument``   -> :meth:`IndexWriter.update_document`
* ``Commit``           -> :meth:`IndexWriter.commit` (buffer flushes to a
  new shard index with the next doc-id range; a writer manifest is the
  segments_N analog, written temp+rename)
* ``MaybeMerge`` / ``ForceMerge(n)`` -> :meth:`IndexWriter.maybe_merge` /
  :meth:`IndexWriter.force_merge` (index/merge_policy.py selections, one
  merge_indexes call per group; each shard's tombstone log goes into the
  merge, which drops the deleted docs)
* ``DirectoryReader.Open(writer_dir)`` -> :meth:`IndexWriter.reader`
  (search/multi_reader.py federation over the committed shards)

Delete semantics match the writer contract: a delete applies to every
document added BEFORE the call. Matching docs still in the RAM buffer are
dropped eagerly (the DWPT delete-queue analog), so ``update_document`` =
delete + re-add never tombstones its own replacement. Delete terms for the
committed shards are buffered in RAM (the ``BufferedUpdates`` analog) and
flushed as ONE tombstone-log generation per committed shard (resolved at
query time, ``index/deletes.py``) when the writer commits, opens a reader
or searcher, or merges. So ``update_document``'s delete and re-add reach
disk together at commit (unless a reader is opened in between), and a
writer dropped before commit loses both. Docs are visible from commit on;
a reader opened from the writer also hides the pending deletes, which it
flushes first. SearcherManager-on-commits is the supported refresh model
(index/commits.py).

Each shard's term-hash partition count (``n_hparts``) is sized from its
bytes by ``build.writer_hparts``: the buffered docs' indexed text for a
commit, the source shards' bytes for a merge. A small shard has one
postings file per bucket, as a Lucene segment has one terms file however
small; a shard of gigabytes gets up to the 8 a build defaults to, so its
reducer groups stay bounded. Shards of different hpart counts federate
and merge as they are.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Iterable

from lucenenet_ray.search.query import FIELD_SEP

_MANIFEST = "writer_manifest.json"


class IndexWriter:
    """``doc`` is a plain dict: ``text`` (the analyzed body field) plus
    any columns named in ``extra_fields`` (same triples as
    ``IndexConfig.extra_fields``: (column, field, analyzed)). Doc ids are
    writer-assigned, dense, and stable across merges."""

    def __init__(self, root: str, n_buckets: int = 8,
                 extra_fields: tuple = (),
                 stored_fields: tuple[str, ...] = (),
                 merge_policy=None,
                 max_buffered_docs: int = 100_000):
        from lucenenet_ray.index.merge_policy import TieredMergePolicy

        self.root = root
        self.n_buckets = n_buckets
        self.extra_fields = tuple(extra_fields)
        # Field.Store.YES columns: each commit also writes a doc_id-sorted
        # docstore (store/docstore.py) so searcher.doc(id) works
        self.stored_fields = tuple(stored_fields)
        self.merge_policy = merge_policy or TieredMergePolicy()
        self.max_buffered_docs = max_buffered_docs
        os.makedirs(root, exist_ok=True)
        mpath = os.path.join(root, _MANIFEST)
        if os.path.exists(mpath):
            with open(mpath) as f:
                self._m = json.load(f)
        else:
            self._m = {"next_id": 0, "gen": 0, "shards": []}
        self._buffer: list[dict[str, Any]] = []
        # per buffered doc: column -> its analyzed term set, filled lazily
        self._buffer_terms: list[dict[str, set[str]]] = []
        # delete terms not yet in the committed shards' tombstone logs
        self._pending_deletes: set[str] = set()

    # -- add / update / delete (IndexWriter.cs:1443,1538,1596) -------------
    def add_document(self, doc: dict[str, Any]) -> None:
        if self.max_buffered_docs and len(self._buffer) >= self.max_buffered_docs:
            self.commit()
        self._buffer.append(dict(doc))
        self._buffer_terms.append({})

    def add_documents(self, docs: Iterable[dict[str, Any]]) -> None:
        for d in docs:
            self.add_document(d)

    def _terms_of(self, i: int, col: str, value: Any) -> set[str]:
        """The analyzed terms of buffered doc ``i``'s column ``col``:
        ``analyze`` runs at most once per doc and column."""
        cache = self._buffer_terms[i]
        if col not in cache:
            from lucenenet_ray.analysis import analyze

            cache[col] = set(analyze(str(value))[0])
        return cache[col]

    def _buffered_doc_matches(self, i: int, term: str) -> bool:
        doc = self._buffer[i]
        if FIELD_SEP in term:
            fname, body = term.split(FIELD_SEP, 1)
            for col, f, analyzed in self.extra_fields:
                if f == fname:
                    v = doc.get(col)
                    if v is None:
                        return False
                    if analyzed is True:
                        return body in self._terms_of(i, col, v)
                    return str(v) == body
            return False
        return term in self._terms_of(i, "text", doc.get("text", ""))

    def delete_documents(self, *terms: str) -> None:
        """Delete every doc added before this call that holds one of
        ``terms`` (docs added after it are unaffected — IndexWriter
        delete-queue ordering). Matching buffered docs are dropped now;
        the terms are queued for the committed shards and written as one
        tombstone generation per shard at the next commit, ``reader()``,
        ``searcher()``, ``maybe_merge`` or ``force_merge``."""
        self._pending_deletes.update(terms)
        keep = [i for i in range(len(self._buffer))
                if not any(self._buffered_doc_matches(i, t) for t in terms)]
        self._buffer = [self._buffer[i] for i in keep]
        self._buffer_terms = [self._buffer_terms[i] for i in keep]

    def _flush_deletes(self) -> None:
        """Write the pending delete terms as ONE tombstone-log generation
        per committed shard (none when no shard is committed)."""
        if not self._pending_deletes:
            return
        from lucenenet_ray.index.deletes import delete_documents

        terms = sorted(self._pending_deletes)
        for sh in self._m["shards"]:
            delete_documents(sh["deletes"], terms)
        self._pending_deletes = set()

    def update_document(self, term: str, doc: dict[str, Any]) -> None:
        """Delete-by-term then add — last-writer-wins by key
        (IndexWriter.UpdateDocument, IndexWriter.cs:1538-1556). Atomic at
        commit: the delete and the new doc reach disk together, unless a
        reader or merge flushes the delete first."""
        self.delete_documents(term)
        self.add_document(doc)

    # -- commit (two-phase manifest swap, IndexWriter.cs:228) --------------
    def commit(self) -> int:
        """Flush the pending deletes and the buffer (as a new shard index);
        returns the commit generation. With an empty buffer only the
        deletes are written, and the current generation is returned."""
        if not self._buffer:
            self._flush_deletes()
            return self._m["gen"]
        import pyarrow as pa
        import ray.data as rd

        from lucenenet_ray.index.build import (
            IndexConfig,
            build_index,
            writer_hparts,
        )

        lo = self._m["next_id"]
        hi = lo + len(self._buffer) - 1
        name = f"shard_{self._m['gen']:06d}"
        path = os.path.join(self.root, "shards", name)
        rows = []
        for i, d in enumerate(self._buffer):
            row = {"doc_id": lo + i, "text": str(d.get("text", ""))}
            for col, _f, _a in self.extra_fields:
                row[col] = d.get(col)
            rows.append(row)
        index_cols = ["doc_id", "text"] + [c for c, _f, _a in self.extra_fields]
        nbytes = sum(len(str(r[c]).encode("utf-8")) for r in rows
                     for c in index_cols[1:] if r[c] is not None)
        cfg = IndexConfig(index_path=path, id_min=lo, id_max=max(hi, lo),
                          n_buckets=self.n_buckets,
                          n_hparts=writer_hparts(nbytes, self.n_buckets),
                          extra_fields=self.extra_fields)
        if self.stored_fields:
            for r, d in zip(rows, self._buffer):
                for c in self.stored_fields:
                    r.setdefault(c, d.get(c))
        t = pa.Table.from_pylist(rows)
        build_index(rd.from_arrow(t.select(index_cols)), cfg)
        entry = {"path": path,
                 "deletes": os.path.join(self.root, "deletes", name)}
        if self.stored_fields:
            from lucenenet_ray.store.docstore import build_docstore

            dpath = os.path.join(self.root, "docstore", name)
            build_docstore(rd.from_arrow(t), dpath,
                           columns=list(self.stored_fields))
            entry["docstore"] = dpath
        # before the append: the pending deletes were already applied to
        # the buffered docs the new shard holds
        self._flush_deletes()
        self._m["shards"].append(entry)
        self._m["next_id"] = hi + 1
        self._m["gen"] += 1
        self._buffer, self._buffer_terms = [], []
        self._write_manifest()
        return self._m["gen"]

    def _write_manifest(self) -> None:
        tmp = os.path.join(self.root, "." + _MANIFEST + ".tmp")
        with open(tmp, "w") as f:
            json.dump(self._m, f, indent=1)
        os.replace(tmp, os.path.join(self.root, _MANIFEST))

    # -- merging (MaybeMerge / ForceMerge) ----------------------------------
    def _apply_merges(self, spec) -> int:
        """SegmentMerger.Merge: one ``merge_indexes`` call per group, each
        source with its tombstone log, so the merge drops deleted docs
        (liveDocs applied) and the merged shard starts with an empty delete
        log; its df/avgdl no longer count reclaimed docs — exactly the
        reference's merge-reclaims-deletes behavior. A group whose every
        doc is deleted leaves no shard. Old shard dirs are left on disk (an
        IndexFileDeleter-style GC of unreferenced dirs is the caller's
        concern). The merged shard's hparts are sized from the sources'
        bytes."""
        from lucenenet_ray.index.build import writer_hparts
        from lucenenet_ray.index.merge_indexes import merge_indexes

        applied = 0
        for group in spec:
            if len(group) < 2:
                continue
            name = f"merged_{self._m['gen']:06d}_{applied}"
            out = os.path.join(self.root, "shards", name)
            by_path = {sh["path"]: sh for sh in self._m["shards"]}
            m = merge_indexes(
                [(s.path, by_path[s.path]["deletes"]) for s in group], out,
                n_hparts=writer_hparts(sum(s.bytes for s in group),
                                       self.n_buckets))
            merged_set = {s.path for s in group}
            src_stores = [sh.get("docstore") for sh in self._m["shards"]
                          if sh["path"] in merged_set and sh.get("docstore")]
            self._m["shards"] = [sh for sh in self._m["shards"]
                                 if sh["path"] not in merged_set]
            applied += 1
            if not m["n_docs"]:
                # 100%-deleted group: nothing is written into a new segment
                shutil.rmtree(out, ignore_errors=True)
                continue
            entry = {"path": out,
                     "deletes": os.path.join(self.root, "deletes", name)}
            # stored fields travel as a file-level union (disjoint id
            # ranges; DocStore prunes by row-group stats regardless of
            # cross-file order). Documented delta vs the reference: stored
            # rows of RECLAIMED docs persist here until a docstore rebuild
            # — unreachable through search either way.
            if src_stores:
                dpath = os.path.join(self.root, "docstore", name)
                os.makedirs(dpath, exist_ok=True)
                k = 0
                for sdir in src_stores:
                    for f in sorted(os.listdir(sdir)):
                        if f.endswith(".parquet"):
                            shutil.copy(os.path.join(sdir, f),
                                        os.path.join(dpath, f"{k:06d}.parquet"))
                            k += 1
                entry["docstore"] = dpath
            self._m["shards"].append(entry)
        if applied:
            self._m["gen"] += 1
            self._write_manifest()
        return applied

    def _metas(self):
        from lucenenet_ray.index.merge_policy import SegmentMeta, _dir_bytes

        return [SegmentMeta(name=sh["path"], bytes=_dir_bytes(sh["path"]),
                            path=sh["path"])
                for sh in self._m["shards"]]

    def maybe_merge(self, max_rounds: int = 10) -> int:
        """Cascading policy merges (IndexWriter.MaybeMerge); returns the
        number of merges applied."""
        self._flush_deletes()
        total = 0
        for _ in range(max_rounds):
            spec = self.merge_policy.find_merges(self._metas())
            n = self._apply_merges(spec)
            if not n:
                break
            total += n
        return total

    def force_merge(self, max_segment_count: int = 1,
                    max_rounds: int = 10) -> int:
        self._flush_deletes()
        total = 0
        for _ in range(max_rounds):
            spec = self.merge_policy.find_forced_merges(
                self._metas(), max_segment_count=max_segment_count)
            n = self._apply_merges(spec)
            if not n:
                break
            total += n
        return total

    # -- read side ----------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._m["shards"])

    def reader(self):
        """DirectoryReader.Open over the COMMITTED shards: one federated
        reader across them, each with its tombstone log. Pending deletes
        are flushed first, so the reader hides them."""
        from lucenenet_ray.search.multi_reader import MultiIndexReader
        from lucenenet_ray.search.reader import IndexReader as _R

        if not self._m["shards"]:
            raise ValueError("no committed shards yet")
        self._flush_deletes()
        return MultiIndexReader([
            _R(sh["path"], deletes_path=sh["deletes"])
            for sh in self._m["shards"]])

    def doc(self, doc_id: int, columns: list[str] | None = None
            ) -> dict[str, Any] | None:
        """IndexSearcher.Doc(docID): the stored fields of one document
        (row-group-pruned docstore read). None when the id is unknown or
        the writer stores no fields."""
        from lucenenet_ray.store.docstore import DocStore

        for sh in self._m["shards"]:
            dpath = sh.get("docstore")
            if not dpath:
                continue
            t = DocStore(dpath).get_ordered([int(doc_id)], columns=columns)
            if t.num_rows:
                return {k: v[0] for k, v in t.to_pydict().items()}
        return None

    def searcher(self) -> "IndexSearcher":
        """IndexSearcher over the committed state, with Doc(docID) wired
        to this writer's stored fields."""
        return IndexSearcher(self.reader(), doc_fn=self.doc)

    def close(self) -> None:
        self.commit()


class IndexSearcher:
    """``IndexSearcher.Search(query, n)`` over any reader this engine
    produces (single, parallel, or federated). Accepts a query string
    (classic parser) or a query-tree node."""

    def __init__(self, reader, doc_fn=None):
        self.reader = reader
        self._doc_fn = doc_fn

    def search(self, query, n: int = 10, **kw):
        from lucenenet_ray.search.query import Query, parse_query
        from lucenenet_ray.search.searcher import search as _search

        q = parse_query(query) if isinstance(query, str) else query
        return _search(self.reader, q, k=n, **kw)

    def doc(self, doc_id: int, columns: list[str] | None = None):
        """IndexSearcher.Doc(docID) — stored-fields fetch for a hit."""
        if self._doc_fn is None:
            raise ValueError("no stored fields: open via "
                             "IndexWriter.searcher() with stored_fields set")
        return self._doc_fn(doc_id, columns=columns)
