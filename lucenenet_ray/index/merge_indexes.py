"""Index merge: the AddIndexes analog for already-encoded indexes.

``merge_indexes`` is the ``IndexWriter.AddIndexes(Directory[])`` analog
(SURVEY §2.1): it combines several complete indexes (same bucket layout,
disjoint docID sets) into one by re-running the build's salted
exchange. Each source bucket's postings chunks turn back into the
Inverter's shuffle-wire rows (docs, freqs, per-doc norms from the bucket's
norms file, position/payload runs passed through unchanged), plus one
doc-length sentinel row per bucket; ``build._hash_shuffle_merge_write``
feeds them to the build's own ``_merge_write_group`` reducer, and the build's
termstats + manifest tail finishes the index. A merged index is therefore
byte-identical to the direct build of the same documents. Each term's
hpart is recomputed for the output, so sources may differ in ``n_hparts``
when the caller names the output's.

A source may name dead docs (a tombstone log, or docID sets per bucket);
its bucket tasks drop them from the wire rows. That is the one postings
rewrite behind ``expunge_deletes``, the index splitters and
``IndexWriter`` merges, so each of them is one ``merge_indexes`` call.

A resumable sharded build is not a merge: ``build.build_index_incremental``
checkpoints each shard's pre-encode wire rows and ends in the build's one
reduce, so no posting is encoded twice.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lucenenet_ray.index.build import (
    DOCLEN_TERM,
    IndexConfig,
    _binary_parts,
    _hash_shuffle_merge_write,
    finish_index,
    term_hpart,
    wire_table,
)
from lucenenet_ray.index.codec import (
    _grouped_take,
    check_manifest,
    decode_postings,
)
from lucenenet_ray.index.deletes import load_deleted_terms

# config fields that must agree across merged sources: they fix the file
# layout and the wire-row schema
_LAYOUT_KEYS = ("n_buckets", "n_hparts", "store_positions", "payloads")
# per-doc sidecar directories a merge does not rewrite
_SIDECARS = ("bloom", "docvalues", "termvectors")


def _wire_rows(index_path: str, bucket: int, n_hparts: int,
               dead_terms: tuple[str, ...], dead_docs: np.ndarray) -> pa.Table:
    """One source bucket → the Inverter's shuffle-wire rows: one row per
    postings chunk, then the bucket's doc-length sentinel row. Every chunk
    of the bucket is decoded in one ``decode_postings`` pass.

    Dead docs are dropped on the way (liveDocs applied, as Lucene's
    ``SegmentMerger`` does): ``dead_docs`` plus every doc of a chunk whose
    term is in ``dead_terms`` (a tombstone log resolved against the chunks
    decoded here). Their docs, freqs, norms and position/payload runs go;
    a chunk left with no live doc goes, and a bucket with no live doc
    yields no rows."""
    norms = pq.read_table(
        os.path.join(index_path, "norms", f"bucket={bucket:05d}.parquet"))
    doc_ids = norms.column("doc_id").to_numpy().astype(np.int64)
    files = sorted(glob.glob(os.path.join(
        index_path, "postings", f"bucket={bucket:05d}*.parquet")))
    post = pa.concat_tables([pq.read_table(f) for f in files]) if files \
        else None
    terms, pos_rows, pay_rows = [], [], []
    dfs = np.empty(0, dtype=np.int64)
    docs = np.empty(0, dtype=np.int64)
    freqs = np.empty(0, dtype=np.int32)
    has_pay = post is not None and "pay_bytes" in post.column_names
    if post is not None:
        terms = post.column("term").to_pylist()
        dfs = post.column("df").to_numpy().astype(np.int64)
        doc_data, doc_offs = _binary_parts(post.column("doc_bytes"))
        freq_data, freq_offs = _binary_parts(post.column("freq_bytes"))
        docs, freqs = decode_postings(
            doc_data, freq_data, doc_offs, freq_offs, dfs,
            pc.list_flatten(post.column("block_doc_off")).to_numpy(),
            pc.list_flatten(post.column("block_freq_off")).to_numpy())
        # position/payload runs are self-contained per doc: they move as bytes
        pos_rows = post.column("pos_bytes").to_pylist()
        if has_pay:
            pay_rows = post.column("pay_bytes").to_pylist()
        if dead_terms:
            hit = pc.is_in(post.column("term"),
                           value_set=pa.array(dead_terms, type=pa.string()))
            dead_docs = np.concatenate(
                (dead_docs, docs[np.repeat(hit.to_numpy(), dfs)]))
    if len(dead_docs):
        live = ~np.isin(doc_ids, dead_docs)
        norms, doc_ids = norms.filter(pa.array(live)), doc_ids[live]
        terms, dfs, docs, freqs, pos_rows, pay_rows = _drop_docs(
            terms, dfs, docs, freqs, pos_rows, pay_rows, dead_docs)
    all_docs = np.concatenate((docs, doc_ids))
    # per-doc norm bytes: chunk docs are looked up in the bucket's norms
    idx = np.searchsorted(doc_ids, all_docs)
    if not ((idx < len(doc_ids)).all()
            and np.array_equal(doc_ids[idx], all_docs)):
        raise ValueError(f"{index_path} bucket {bucket}: postings name docs "
                         "absent from its norms file")
    sentinel = [DOCLEN_TERM] if len(doc_ids) else []
    return wire_table(
        pa.array(terms + sentinel, type=pa.string()),
        np.full(len(terms) + len(sentinel), bucket, dtype=np.int64),
        np.array([term_hpart(t, n_hparts) for t in terms]
                 + [0] * len(sentinel), dtype=np.int64),
        np.concatenate((dfs, np.full(len(sentinel), len(doc_ids)))),
        all_docs,
        np.concatenate((freqs, norms.column("doc_len").to_numpy())),
        norms.column("norm").to_numpy().astype(np.uint8)[idx],
        pos_rows + [b""] * len(sentinel),
        pay_rows + [b""] * len(sentinel) if has_pay else None)


def _drop_docs(terms, dfs, docs, freqs, pos_rows, pay_rows, dead_docs):
    """Drop a dead-doc set from one bucket's decoded chunks (``docs`` and
    ``freqs`` flat, chunk after chunk, ``dfs`` each); a chunk left with no
    live doc goes. Position and payload runs are cut by a terminator scan
    plus a byte-segment gather (each doc's run is a self-contained VInt
    segment of ``freq`` values), never decoded."""
    flat_freqs = freqs.astype(np.int64)
    keep = ~np.isin(docs, dead_docs)
    chunk_of = np.repeat(np.arange(len(terms)), dfs)
    live_df = np.bincount(chunk_of[keep], minlength=len(terms))
    live = np.flatnonzero(live_df)
    # kept-pair bounds of each live chunk
    bounds = np.concatenate(([0], np.cumsum(live_df[live])))

    def cut_runs(rows: list[bytes]) -> list[bytes]:
        stream = np.frombuffer(b"".join(rows), dtype=np.uint8)
        if not stream.size:
            return [b""] * len(live)
        ends = np.flatnonzero((stream & 0x80) == 0)
        if ends.size != flat_freqs.sum():
            raise ValueError(f"run stream corrupt: {ends.size} values, "
                             f"expected {int(flat_freqs.sum())}")
        run_end = ends[np.cumsum(flat_freqs) - 1] + 1
        run_start = np.concatenate(([0], run_end[:-1]))
        run_len = (run_end - run_start)[keep]
        kept = stream[_grouped_take(run_start[keep], run_len)].tobytes()
        offs = np.concatenate(([0], np.cumsum(run_len)))[bounds]
        return [kept[offs[i]:offs[i + 1]] for i in range(len(live))]

    return (
        [terms[i] for i in live],
        live_df[live],
        docs[keep],
        freqs[keep],
        cut_runs(pos_rows),
        cut_runs(pay_rows) if pay_rows else [],
    )


def _merge_ranges(ranges: list[list[int]]) -> list[list[int]]:
    """Coalesce [lo, hi] pairs: sort, merge overlapping/adjacent."""
    out: list[list[int]] = []
    for lo, hi in sorted([int(a), int(b)] for a, b in ranges):
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def merge_indexes(sources: list, out_path: str,
                  n_hparts: int | None = None) -> dict:
    """Combine complete same-layout indexes into one (AddIndexes analog):
    one task per source bucket re-derives its wire rows, then the build's
    exchange, reducer and termstats/manifest tail write ``out_path``.

    ``n_hparts`` is the output's hpart count. ``None`` keeps the sources'
    shared layout and refuses sources that differ in it; an int lets them
    differ in ``n_hparts`` only (each term's output hpart is recomputed).

    A source is an index path, or a ``(path, dead)`` pair whose dead docs
    the merge drops — ``AddIndexes`` over readers with liveDocs. ``dead`` is
    a tombstone-log directory (delete-by-term, ``index/deletes.py``) or a
    ``{bucket: docIDs}`` map. Sidecars (term vectors, docvalues, bloom) are
    not carried; the manifest names the dropped ones."""
    import ray

    index_paths, deads, manifests = [], [], []
    for src in sources:
        p, dead = src if isinstance(src, tuple) else (src, None)
        if os.path.realpath(p) == os.path.realpath(out_path):
            raise ValueError(f"cannot merge {p} into itself")
        with open(os.path.join(p, "manifest.json")) as f:
            manifests.append(json.load(f))
        check_manifest(manifests[-1])
        index_paths.append(p)
        deads.append(dead)
    cfg0 = manifests[0]["config"]
    layout_keys = _LAYOUT_KEYS
    if n_hparts is not None:
        cfg0 = cfg0 | {"n_hparts": n_hparts}
        layout_keys = tuple(k for k in _LAYOUT_KEYS if k != "n_hparts")
    for m in manifests[1:]:
        for k in layout_keys:
            if m["config"].get(k) != cfg0.get(k):
                raise ValueError(f"sources differ in {k}; cannot merge")

    # id range = the UNION of the sources' doc spaces (the honest
    # description of what the merged index covers — MultiIndexReader's
    # disjointness check and any range-based tooling read this). The
    # merged index's buckets keep the sources' numbering (every source
    # shares n_buckets), NOT recomputed from this range.
    config = cfg0 | {
        "id_min": min(m["config"]["id_min"] for m in manifests),
        "id_max": max(m["config"]["id_max"] for m in manifests),
        "store_term_vectors": False,
    }
    cfg = IndexConfig(index_path=out_path, id_min=config["id_min"],
                      id_max=config["id_max"], n_buckets=cfg0["n_buckets"],
                      n_hparts=cfg0["n_hparts"],
                      store_positions=cfg0.get("store_positions", True))

    # a rerun into the same out_path starts from empty index directories
    for sub in ("postings", "norms", "termstats"):
        shutil.rmtree(os.path.join(out_path, sub), ignore_errors=True)
    os.makedirs(out_path, exist_ok=True)
    wire = ray.remote(_wire_rows)
    no_docs = np.empty(0, dtype=np.int64)
    refs = []
    for p, m, dead in zip(index_paths, manifests, deads):
        dead_terms = load_deleted_terms(dead) if isinstance(dead, str) else ()
        dead_docs = dead if isinstance(dead, dict) else {}
        for b in m["buckets"]:
            b = int(b["bucket"])
            refs.append(wire.remote(p, b, cfg.n_hparts, dead_terms,
                                    dead_docs.get(b, no_docs)))
    rows = _hash_shuffle_merge_write(refs, cfg, cfg.store_positions)
    return finish_index(
        out_path, config, rows,
        # the EXACT doc-space as a coalesced range list — merges of
        # non-adjacent shards leave holes that a single [min,max] can't
        # express (MultiIndexReader checks disjointness against this)
        id_ranges=_merge_ranges([
            r for m in manifests
            for r in m.get("id_ranges",
                           [[m["config"]["id_min"], m["config"]["id_max"]]])
        ]),
        merged_from=index_paths,
        dropped_sidecars=sorted({s for p in index_paths for s in _SIDECARS
                                 if os.path.isdir(os.path.join(p, s))}))
