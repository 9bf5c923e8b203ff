"""CheckIndex analog: walk every bucket verifying index invariants.

Mirrors ``src/Lucene.Net/Index/CheckIndex.cs:62`` (term counts, postings
monotonicity, norms presence, stats consistency) over the Parquet index
layout (FIXTURES.md §6). Raises ``CorruptIndexError`` on the first violation,
or returns a stats dict when clean.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow.parquet as pq

from lucenenet_ray.index.codec import (
    BLOCK_SIZE,
    _frame_nbytes,
    check_manifest,
    decode_docs_freqs,
    decode_positions,
)

_BLOCK_COLUMNS = ("block_last_doc", "block_doc_off", "block_freq_off",
                  "block_max_freq", "block_max_norm")


class CorruptIndexError(Exception):
    pass


def _frames_chain(buf: bytes, offs: np.ndarray, end: int) -> bool:
    """True when FOR frames start at every offset in ``offs``, back to back
    from byte 0, and the last one ends at ``end``."""
    if offs.size == 0:
        return end == 0
    if offs[0] != 0 or offs.min() < 0 or offs.max() >= len(buf):
        return False
    widths = np.frombuffer(buf, dtype=np.uint8)[offs]
    if widths.max() > 64:
        return False
    nxt = offs + 1 + _frame_nbytes(widths.astype(np.int64))
    return bool(np.array_equal(nxt[:-1], offs[1:]) and nxt[-1] == end)


def check_index(index_path: str, check_positions: bool = True) -> dict:
    import json

    with open(os.path.join(index_path, "manifest.json")) as f:
        manifest = json.load(f)
    check_manifest(manifest)

    n_terms = 0
    n_postings = 0
    df_by_term: dict[str, int] = {}
    for fp in sorted(glob.glob(os.path.join(index_path, "postings", "*.parquet"))):
        t = pq.read_table(fp)
        terms = t.column("term").to_pylist()
        if terms != sorted(terms):
            raise CorruptIndexError(f"{fp}: term dictionary not sorted")
        if len(set(terms)) != len(terms):
            raise CorruptIndexError(f"{fp}: duplicate terms")
        for i in range(t.num_rows):
            term = terms[i]
            df = t.column("df")[i].as_py()
            n_blocks = -(-df // BLOCK_SIZE)
            for c in _BLOCK_COLUMNS:
                if len(t.column(c)[i].values) != n_blocks:
                    raise CorruptIndexError(
                        f"{fp}:{term}: {c} has {len(t.column(c)[i].values)} "
                        f"entries for df {df}")
            db = t.column("doc_bytes")[i].as_py()
            fb = t.column("freq_bytes")[i].as_py()
            doc_off = t.column("block_doc_off")[i].values.to_numpy()
            freq_off = t.column("block_freq_off")[i].values.to_numpy()
            n_full = df // BLOCK_SIZE
            tail_at = int(doc_off[n_full]) if df % BLOCK_SIZE else len(db)
            if not (_frames_chain(db, doc_off[:n_full], tail_at)
                    and tail_at <= len(db)
                    and _frames_chain(fb, freq_off[:n_full], len(fb))):
                raise CorruptIndexError(f"{fp}:{term}: block offsets do not "
                                        "match the postings streams")
            try:
                docs, freqs = decode_docs_freqs(db, fb, df, doc_off, freq_off)
            except ValueError as e:
                raise CorruptIndexError(f"{fp}:{term}: {e}") from e
            if len(docs) != df or len(freqs) != df:
                raise CorruptIndexError(f"{fp}:{term}: df mismatch")
            if df > 1 and not np.all(np.diff(docs) > 0):
                raise CorruptIndexError(f"{fp}:{term}: docIDs not increasing")
            if not np.all(freqs >= 1):
                raise CorruptIndexError(f"{fp}:{term}: freq < 1")
            if int(freqs.sum()) != t.column("ttf")[i].as_py():
                raise CorruptIndexError(f"{fp}:{term}: ttf != sum(freqs)")
            blast = t.column("block_last_doc")[i].as_py()
            if blast[-1] != docs[-1]:
                raise CorruptIndexError(f"{fp}:{term}: block_last_doc tail wrong")
            if int(max(freqs)) != t.column("max_freq")[i].as_py():
                raise CorruptIndexError(f"{fp}:{term}: max_freq wrong")
            if check_positions:
                pos_b = t.column("pos_bytes")[i].as_py()
                if pos_b:
                    for p, fr in zip(decode_positions(pos_b, freqs), freqs):
                        if len(p) != fr or (len(p) > 1 and not np.all(np.diff(p) > 0)):
                            raise CorruptIndexError(
                                f"{fp}:{term}: positions corrupt"
                            )
            df_by_term[term] = df_by_term.get(term, 0) + int(df)
            n_postings += int(df)
        n_terms += t.num_rows

    n_docs = 0
    sum_len = 0
    for fp in sorted(glob.glob(os.path.join(index_path, "norms", "*.parquet"))):
        t = pq.read_table(fp)
        ids = t.column("doc_id").to_numpy()
        if len(ids) > 1 and not np.all(np.diff(ids) > 0):
            raise CorruptIndexError(f"{fp}: norm docIDs not increasing")
        n_docs += len(ids)
        sum_len += int(np.sum(t.column("doc_len").to_numpy()))

    if n_docs != manifest["n_docs"]:
        raise CorruptIndexError(
            f"manifest n_docs {manifest['n_docs']} != norms {n_docs}"
        )
    if sum_len != manifest["sum_total_term_freq"]:
        raise CorruptIndexError("manifest sumTotalTermFreq != sum(doc_len)")

    # global termstats must equal per-bucket df sums
    ts = pq.read_table(os.path.join(index_path, "termstats"))
    for i in range(ts.num_rows):
        term = ts.column("term")[i].as_py()
        if df_by_term.get(term, 0) != ts.column("df")[i].as_py():
            raise CorruptIndexError(f"termstats df mismatch for {term!r}")

    return {
        "n_docs": n_docs,
        "n_terms_rows": n_terms,
        "n_postings": n_postings,
        "vocab": ts.num_rows,
        "status": "clean",
    }
