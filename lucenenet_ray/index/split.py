"""Index splitting (Lucene.Net.Misc analogs).

Reference semantics re-expressed (NOT ported):

- :func:`split_index` — ``Index/PKIndexSplitter.cs:38-75``: split one index
  into two by a filter; documents MATCHING the filter go to the first
  output, the rest to the second (the reference feeds a
  DocumentFilteredAtomicIndexReader into ``AddIndexes``, i.e. it rewrites
  segments applying the filter as liveDocs).  The primary-key form
  (:66-71, ``PKIndexSplitter(version, in, dir1, dir2, midTerm)``) sends
  ids < mid to the first index.

- :func:`split_index_round_robin` — ``Index/MultiPassIndexSplitter.cs:62``
  with ``seq=false``: N outputs, doc i of the global order lands in output
  ``i % n`` (the reference emulates this with FakeDeleteIndexReader masks
  — exactly the dead-set rewrite used here).

Each output is one ``merge_indexes`` call over the source with the other
outputs' docs as its dead set (the merge drops them — SegmentMerger
applying liveDocs), so each output is a self-contained index with
recomputed stats, byte-identical to a direct build of its docs.
"""

from __future__ import annotations

import numpy as np

from lucenenet_ray.index.merge_indexes import merge_indexes


def _matches_by_bucket(reader, first_filter) -> dict[int, np.ndarray]:
    """Per-bucket doc ids matching the filter: an int 'mid' (PK split:
    doc_id < mid matches) or a term/boolean Query (evaluated on postings
    via the sorter's restricted matcher)."""
    out: dict[int, np.ndarray] = {}
    for b in reader.bucket_ids:
        bucket = reader.bucket(b)
        all_docs = bucket.norms()[0]
        if isinstance(first_filter, (int, np.integer)):
            out[b] = all_docs[all_docs < int(first_filter)]
        else:
            from lucenenet_ray.index.sorter import _bucket_matches

            out[b] = np.intersect1d(_bucket_matches(bucket, first_filter),
                                    all_docs)
    return out


def split_index(index_path: str, out1: str, out2: str, first_filter):
    """Split into (matching → out1, rest → out2); returns both manifests."""
    from lucenenet_ray.search.reader import IndexReader

    reader = IndexReader(index_path, deletes_path="/nonexistent")
    match = _matches_by_bucket(reader, first_filter)
    dead1, dead2 = {}, {}
    for b in reader.bucket_ids:
        all_docs = reader.bucket(b).norms()[0]
        dead1[b] = np.setdiff1d(all_docs, match[b])  # out1 keeps matches
        dead2[b] = match[b]                          # out2 keeps the rest
    return (merge_indexes([(index_path, dead1)], out1),
            merge_indexes([(index_path, dead2)], out2))


def split_index_round_robin(index_path: str, outputs: list[str]):
    """MultiPassIndexSplitter seq=false: doc at global position i → output
    i % len(outputs); returns the manifests."""
    from lucenenet_ray.search.reader import IndexReader

    reader = IndexReader(index_path, deletes_path="/nonexistent")
    n = len(outputs)
    # global position = offset of the bucket + local row (buckets are
    # ascending id ranges, docs ascending inside)
    offsets: dict[int, int] = {}
    pos = 0
    for b in sorted(reader.bucket_ids):
        offsets[b] = pos
        pos += reader.bucket(b).norms()[0].size
    manifests = []
    for part, out in enumerate(outputs):
        dead: dict[int, np.ndarray] = {}
        for b in sorted(reader.bucket_ids):
            docs = reader.bucket(b).norms()[0]
            gpos = offsets[b] + np.arange(docs.size, dtype=np.int64)
            dead[b] = docs[(gpos % n) != part]
        manifests.append(merge_indexes([(index_path, dead)], out))
    return manifests
