"""Tombstone deletes: delete-by-term log applied at query time.

The ``IndexWriter.DeleteDocuments(Term)`` analog (``Index/IndexWriter.cs:1596-1720``,
``BufferedUpdatesStream.cs``): deletes are buffered as terms, not doc IDs, and
resolved against postings when a reader applies them — here a tiny sidecar
parquet log next to the immutable index (SURVEY §2.9's tombstone design).

Semantics match Lucene's liveDocs model: deleted docs become invisible to
every query, but collection statistics (df, ttf, norms, avgdl — hence idf and
every BM25 weight) are computed over ALL docs until the deletes are physically
expunged (``IndexWriter.ForceMergeDeletes``; segments keep their stats until
merge, ``SegmentReader.cs`` liveDocs vs FieldInfos). ``expunge_deletes``
and every ``IndexWriter`` merge drop dead docs inside ``merge_indexes``
(the one postings rewrite) and recompute the stats.

Log layout: ``<deletes_dir>/del-<generation>.parquet`` with a single ``term``
column; generations are monotone, a reader unions all generations. The log is
append-only, but not free to re-read: every ``IndexReader`` opens and reads
each generation file (``load_deleted_terms``), so a reopen's cost grows with
the generation count. ``api.IndexWriter`` therefore buffers its delete terms
and writes one generation per shard per flush (commit, reader open, merge).
Per-bucket live masks are resolved once per (bucket, log state) and cached
(the BufferedUpdatesStream "applyDeletes on reader open" path).
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq


def delete_documents(deletes_dir: str, terms: list[str]) -> int:
    """Append a delete-by-term generation; returns the new generation number.

    ``terms`` use the same field-prefixed form as the term dictionary
    ("term" for the default body field, "field\\x1fterm" otherwise — see
    ``search.query.field_term``).
    """
    os.makedirs(deletes_dir, exist_ok=True)
    gens = [
        int(os.path.basename(f)[4:-8])
        for f in glob.glob(os.path.join(deletes_dir, "del-*.parquet"))
    ]
    gen = (max(gens) + 1) if gens else 0
    t = pa.table({"term": pa.array(sorted(set(terms)), type=pa.string())})
    tmp = os.path.join(deletes_dir, f".del-{gen:06d}.tmp")
    pq.write_table(t, tmp)
    os.replace(tmp, os.path.join(deletes_dir, f"del-{gen:06d}.parquet"))
    return gen


def load_deleted_terms(deletes_dir: str | None) -> tuple[str, ...]:
    """Union of all delete generations, sorted. Empty if no log exists."""
    if not deletes_dir or not os.path.isdir(deletes_dir):
        return ()
    out: set[str] = set()
    for f in sorted(glob.glob(os.path.join(deletes_dir, "del-*.parquet"))):
        out.update(pq.read_table(f).column("term").to_pylist())
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# physical expunge (IndexWriter.ForceMergeDeletes analog)


def expunge_deletes(index_path: str, out_path: str,
                    deletes_path: str | None = None) -> dict:
    """Physically rewrite the index without its deleted docs
    (``IndexWriter.ForceMergeDeletes``): a one-source ``merge_indexes``
    whose per-bucket tasks resolve the tombstone log against the postings
    they decode and drop the dead docs before the build's exchange and
    reducer. ``deletes_path`` defaults to ``<index>/deletes``, as in
    ``IndexReader``. The result is byte-identical to an index built directly
    over the surviving docs, stats included (tested); a fully deleted bucket
    leaves no files."""
    from lucenenet_ray.index.merge_indexes import merge_indexes

    if deletes_path is None:
        deletes_path = os.path.join(index_path, "deletes")
    return merge_indexes([(index_path, deletes_path)], out_path)
