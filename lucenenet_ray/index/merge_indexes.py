"""Index-merge + incremental/resumable build.

``merge_indexes`` is the ``IndexWriter.AddIndexes(Directory[])`` analog
(SURVEY §2.1): it combines several complete indexes (same bucket/hpart
layout, disjoint docID sets) into one by re-running the build's salted
exchange. Each source bucket's postings chunks turn back into the
Inverter's shuffle-wire rows (docs, freqs, per-doc norms from the bucket's
norms file, position/payload runs passed through unchanged), plus one
doc-length sentinel row per bucket; ``build._hash_shuffle_merge_write``
feeds them to the build's own ``_merge_write_group`` reducer, and the build's
termstats + manifest tail finishes the index. A merged index is therefore
byte-identical to the direct build of the same documents.

``build_index_incremental`` is the checkpoint-resume story (north rule:
"resumable from checkpoint with per-partition lineage"): the input is a list
of shards; each shard builds its own complete index generation under
``<out>/shards/<name>`` with an atomic manifest; a rerun SKIPS shards whose
manifest exists (lineage recorded per shard), then the final merge runs. A
killed run therefore loses at most one shard's work.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucenenet_ray.index.build import (
    DOCLEN_TERM,
    IndexConfig,
    _hash_shuffle_merge_write,
    build_index,
    finish_index,
    term_hpart,
    wire_table,
)
from lucenenet_ray.index.codec import decode_docs, decode_freqs

# config fields that must agree across merged sources: they fix the file
# layout, the postings encoding and the wire-row schema
_LAYOUT_KEYS = ("n_buckets", "n_hparts", "codec", "store_positions",
                "payloads")


def _wire_rows(index_path: str, bucket: int, n_hparts: int,
               codec: str) -> pa.Table:
    """One source bucket → the Inverter's shuffle-wire rows: one row per
    postings chunk, then the bucket's doc-length sentinel row."""
    norms = pq.read_table(
        os.path.join(index_path, "norms", f"bucket={bucket:05d}.parquet"))
    doc_ids = norms.column("doc_id").to_numpy().astype(np.int64)
    files = sorted(glob.glob(os.path.join(
        index_path, "postings", f"bucket={bucket:05d}*.parquet")))
    post = pa.concat_tables([pq.read_table(f) for f in files]) if files \
        else None
    terms, dfs, docs, freqs, pos_rows, pay_rows = [], [], [], [], [], []
    has_pay = post is not None and "pay_bytes" in post.column_names
    if post is not None:
        terms = post.column("term").to_pylist()
        dfs = post.column("df").to_pylist()
        for d, f, n in zip(post.column("doc_bytes").to_pylist(),
                           post.column("freq_bytes").to_pylist(), dfs):
            docs.append(decode_docs(d, n, codec=codec))
            freqs.append(decode_freqs(f, n, codec=codec, doc_bytes=d))
        # position/payload runs are self-contained per doc: they move as bytes
        pos_rows = post.column("pos_bytes").to_pylist()
        if has_pay:
            pay_rows = post.column("pay_bytes").to_pylist()
    all_docs = np.concatenate(docs + [doc_ids])
    # per-doc norm bytes: chunk docs are looked up in the bucket's norms
    idx = np.searchsorted(doc_ids, all_docs)
    if not ((idx < len(doc_ids)).all()
            and np.array_equal(doc_ids[idx], all_docs)):
        raise ValueError(f"{index_path} bucket {bucket}: postings name docs "
                         "absent from its norms file")
    n_rows = len(terms) + 1
    return wire_table(
        pa.array(terms + [DOCLEN_TERM], type=pa.string()),
        np.full(n_rows, bucket, dtype=np.int64),
        np.array([term_hpart(t, n_hparts) for t in terms] + [0],
                 dtype=np.int64),
        np.array(dfs + [len(doc_ids)], dtype=np.int64),
        all_docs,
        np.concatenate(freqs + [norms.column("doc_len").to_numpy()]),
        norms.column("norm").to_numpy().astype(np.uint8)[idx],
        pos_rows + [b""],
        pay_rows + [b""] if has_pay else None)


def _merge_ranges(ranges: list[list[int]]) -> list[list[int]]:
    """Coalesce [lo, hi] pairs: sort, merge overlapping/adjacent."""
    out: list[list[int]] = []
    for lo, hi in sorted([int(a), int(b)] for a, b in ranges):
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def merge_indexes(index_paths: list[str], out_path: str) -> dict:
    """Combine complete same-layout indexes into one (AddIndexes analog):
    one task per source bucket re-derives its wire rows, then the build's
    exchange, reducer and termstats/manifest tail write ``out_path``."""
    import ray

    manifests = []
    for p in index_paths:
        if os.path.realpath(p) == os.path.realpath(out_path):
            raise ValueError(f"cannot merge {p} into itself")
        with open(os.path.join(p, "manifest.json")) as f:
            manifests.append(json.load(f))
    cfg0 = manifests[0]["config"]
    for m in manifests[1:]:
        for k in _LAYOUT_KEYS:
            if m["config"].get(k) != cfg0.get(k):
                raise ValueError(f"sources differ in {k}; cannot merge")

    # id range = the UNION of the sources' doc spaces (the honest
    # description of what the merged index covers — MultiIndexReader's
    # disjointness check and any range-based tooling read this). The
    # merged index's buckets keep the sources' numbering (every source
    # shares n_buckets), NOT recomputed from this range.
    config = cfg0 | {
        "index_path": out_path,
        "id_min": min(m["config"]["id_min"] for m in manifests),
        "id_max": max(m["config"]["id_max"] for m in manifests),
    }
    codec = cfg0.get("codec", "vint")
    cfg = IndexConfig(index_path=out_path, id_min=config["id_min"],
                      id_max=config["id_max"], n_buckets=cfg0["n_buckets"],
                      n_hparts=cfg0["n_hparts"], codec=codec,
                      store_positions=cfg0.get("store_positions", True))

    # a rerun into the same out_path starts from empty index directories
    for sub in ("postings", "norms", "termstats"):
        shutil.rmtree(os.path.join(out_path, sub), ignore_errors=True)
    os.makedirs(out_path, exist_ok=True)
    wire = ray.remote(_wire_rows)
    refs = [wire.remote(p, int(b["bucket"]), cfg.n_hparts, codec)
            for p, m in zip(index_paths, manifests) for b in m["buckets"]]
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
        merged_from=index_paths)


def build_index_incremental(shards: list[tuple[str, "object"]], out_path: str,
                            cfg_template: IndexConfig,
                            text_col: str = "text",
                            id_col: str = "doc_id") -> dict:
    """Shard-at-a-time resumable build: each (name, dataset_factory) shard
    builds its own index generation (SKIPPED if its manifest already exists —
    the checkpoint), then all generations merge into <out_path>.

    ``dataset_factory`` is a zero-arg callable returning the shard's Dataset
    (lazy so skipped shards never read their input).
    """
    from dataclasses import replace

    import time as _time

    shard_paths = []
    lineage = []
    for name, factory in shards:
        spath = os.path.join(out_path, "shards", name)
        shard_paths.append(spath)
        if os.path.exists(os.path.join(spath, "manifest.json")):
            with open(os.path.join(spath, "manifest.json")) as f:
                sm = json.load(f)
            lineage.append({"shard": name, "status": "skipped (checkpoint)",
                            "n_docs": sm.get("n_docs")})
            continue
        cfg = replace(cfg_template, index_path=spath)
        t0 = _time.perf_counter()
        sm = build_index(factory(), cfg, text_col=text_col, id_col=id_col)
        dt = _time.perf_counter() - t0
        # per-shard metrics ride the lineage (north-rule "lineage + metrics")
        lineage.append({
            "shard": name, "status": "built",
            "build_sec": round(dt, 3),
            "n_docs": sm["n_docs"],
            "docs_per_sec": round(sm["n_docs"] / dt, 1) if dt > 0 else None,
            "sum_total_term_freq": sm["sum_total_term_freq"],
            "n_buckets": len(sm.get("buckets", [])),
        })

    manifest = merge_indexes(shard_paths, out_path)
    manifest["shard_lineage"] = lineage
    with open(os.path.join(out_path, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest
