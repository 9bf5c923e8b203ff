"""Distributed inverted-index build on ray.data.Dataset.

Pipeline (SURVEY §2.4, §3.1 — the Ray-native analog of Lucene's
DocumentsWriterPerThread → flush → SegmentMerger path):

    docs(id,text)
      → map_batches(invert_batch_fn)               # the DWPT analog
            emits partial postings rows (term, bucket, hpart, docs[], freqs[],
            norms[], pos_bytes) — one row per (term, input-batch), plus one
            doc-length row per bucket (term="" sentinel) carrying
            (doc_id, field_len) used for norms + collection stats
      → hash exchange on (bucket, hpart)           # the SegmentMerger analog:
            a salted term shuffle — hpart = term_hpart(term) bounds reducer
            input; a Zipf head term is additionally split across doc-range
            buckets, so NO single reducer ever sees more than one bucket's
            share of one hash-slice (explicit skew design, SURVEY §4)
      → _merge_write_group per (bucket, hpart)     # final index layout:
            postings/bucket=NNNNN_hHH.parquet sorted by term (term dictionary
            = sorted row groups, SURVEY §2.5), norms/bucket=NNNNN.parquet
      → termstats + manifest.json

``build_index_incremental`` checkpoints the map output shard by shard and
then runs the same one exchange and reducer over every shard's rows;
``merge_indexes`` (AddIndexes) feeds already-built indexes through them. Both
write the direct build's bytes.

DocIDs are caller-provided int64s (deterministic — unlike Lucene's
thread-timing-dependent docIDs, SURVEY §4 "ordering/determinism"); buckets are
contiguous docID ranges so concatenating bucket results preserves global doc
order. Merged index bytes are a pure function of the input rows: the same
corpus produces identical bytes at any parallelism level (tested).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lucenenet_ray.analysis.standard import StandardAnalyzer
from lucenenet_ray.index.codec import (
    FORMAT,
    _grouped_take,
    decode_docs_freqs,
    encode_postings,
    read_vints,
    write_vints,
)
from lucenenet_ray.util.smallfloat import encode_norm

DOCLEN_TERM = ""  # sentinel term: per-bucket doc-length rows (sorts first)


@dataclass
class IndexConfig:
    index_path: str
    id_min: int
    id_max: int
    n_buckets: int = 16
    # term-hash salt slices per bucket: one postings file and one reducer
    # group per (bucket, hpart). They bound reducer memory only (a lookup
    # reads one row group of a term-sorted file, whatever the count);
    # ``api.IndexWriter`` sizes them per shard with ``writer_hparts``
    n_hparts: int = 8
    store_positions: bool = True
    batch_size: int = 2048
    # when set, per-document analyzer dispatch on this column (per-language
    # stop sets — SURVEY §2.2; 'und'/unknown routes to the default chain)
    lang_col: str | None = None
    # additional indexed fields: (column, field_name, analyzed) triples.
    # analyzed=True → TextField-like (analyzer chain, positions);
    # analyzed=False → StringField-like keyword (single term, position 0,
    # Demo/IndexFiles.cs:88-122 path field). Terms are stored prefixed
    # "field\x1fterm" in the shared dictionary (FieldInfos analog); these
    # fields omit norms and don't contribute to body doc length / sumttf
    # (per-field stats, CollectionStatistics).
    extra_fields: tuple[tuple[str, str, bool], ...] = ()
    # index-time field boost column (Document.Field.Boost /
    # FieldInvertState.Boost, Index/FieldInvertState.cs:180-196): per-doc
    # float multiplied into the norm byte at encode time —
    # SingleToByte315(boost / sqrt(len)). None = boost 1.0 (byte-identical
    # to an unboosted build).
    boost_col: str | None = None
    k1: float = 1.2
    b: float = 0.75
    # per-position payloads (FieldInfo.IndexOptions
    # DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS /
    # TokenOffsetPayloadTokenFilter): "offset" stores each kept token's
    # start character offset as a payload stream parallel to positions —
    # per-doc self-contained VInt runs, so the segment merge moves payload
    # bytes without decoding (same invariant as pos_bytes). None = no
    # payloads (no pay_bytes column; index bytes unchanged).
    payloads: str | None = None
    # physical term-vector sidecar (CompressingTermVectorsWriter .tvd/.tvx
    # analog): each invert task side-writes its batch's doc-major
    # (doc_id, term, freq, positions[, start_offsets]) rows to
    # termvectors/tv-<mindoc>-<maxdoc>-<digest>.parquet (atomic temp+rename,
    # content-keyed name → idempotent under task retries). Point lookups
    # prune by filename doc range then parquet row-group stats — no
    # re-tokenization at retrieval time (vs the reconstruct-on-demand path).
    store_term_vectors: bool = False

    def bucket_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """Doc-range bucket: (id - id_min) // ceil(span / n_buckets).

        Width-division form — the naive ``id * n_buckets // span`` overflows
        int64 for 60-bit docID spaces (observed: negative bucket labels and
        16 collapsed buckets at n_buckets=32)."""
        span = self.id_max - self.id_min + 1
        width = (span + self.n_buckets - 1) // self.n_buckets
        return ((doc_ids - self.id_min) // width).astype(np.int32)


@functools.lru_cache(maxsize=1 << 20)
def term_hpart(term: str, n_hparts: int) -> int:
    """Deterministic term → hash-slice (salt) assignment: FNV-1a over the
    UTF-8 bytes (stable across processes, unlike Python's hash())."""
    h = 0xCBF29CE484222325
    for b in term.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % n_hparts


def postings_file_name(bucket: int, hpart: int) -> str:
    """Postings file of one (bucket, hpart) reducer group."""
    return f"bucket={bucket:05d}_h{hpart:02d}.parquet"


class Inverter:
    """map_batches stage: (doc_id, text) batch → partial postings.

    The analyzer (compiled token DFA + stop set) is built once per worker,
    mirroring Lucene's per-thread Analyzer reuse (``Analyzer.cs``
    ReuseStrategy; SURVEY §2.3). Runs via ``invert_batch_fn`` as plain
    tasks on the shared worker pool (no actor startup latency; the inverter
    is a module-level per-process singleton).
    """

    def __init__(self, cfg: IndexConfig, text_col: str = "text", id_col: str = "doc_id"):
        self.cfg = cfg
        self.text_col = text_col
        self.id_col = id_col
        if cfg.lang_col:
            from lucenenet_ray.analysis.lang import MultiLangAnalyzer

            self.multilang = MultiLangAnalyzer()
        else:
            self.multilang = None
        self.analyzer = StandardAnalyzer()
        if cfg.payloads and (cfg.lang_col or not cfg.store_positions):
            raise ValueError(
                "payloads need store_positions and the standard analyzer "
                "(per-language chains don't report offsets)")

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column(self.id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        # Sort the batch by doc_id so docs (and hence buckets) are monotone —
        # every downstream slice is then contiguous and vectorizable.
        border = np.argsort(doc_ids, kind="stable")
        doc_ids = doc_ids[border]
        texts_all = batch.column(self.text_col).to_pylist()
        texts = [texts_all[i] for i in border]
        analyzer = self.analyzer

        langs = None
        if self.multilang is not None and self.cfg.lang_col in batch.column_names:
            langs_all = batch.column(self.cfg.lang_col).to_pylist()
            langs = [langs_all[i] for i in border]

        # Flatten the whole batch into (term, doc_idx, position[, payload])
        # tuples.
        want_pay = bool(self.cfg.payloads)
        flat_terms: list[str] = []
        flat_docidx: list[int] = []
        flat_pos: list[int] = []
        flat_pay: list[int] = []
        doc_lens = np.zeros(len(texts), dtype=np.int32)
        for di, text in enumerate(texts):
            if langs is not None:
                terms, positions = self.multilang(text or "", langs[di])
            elif want_pay:
                terms, positions, offs = analyzer.call_with_offsets(text or "")
                flat_pay.extend(offs)
            else:
                terms, positions = analyzer(text or "")
            doc_lens[di] = len(terms)
            flat_terms.extend(terms)
            flat_docidx.extend([di] * len(terms))
            flat_pos.extend(positions)

        # extra fields append AFTER the body stream. Correctness relies only
        # on each field's triples being doc-ordered internally: prefixed
        # terms never collide with body terms, so per-term runs stay
        # (doc, position)-sorted for the pair detection below.
        from lucenenet_ray.search.query import FIELD_SEP

        for col, fname, analyzed in self.cfg.extra_fields:
            if col not in batch.column_names:
                continue
            if isinstance(analyzed, str) and analyzed.startswith("numeric"):
                # NumericTokenStream analog (NumericUtils.cs:150-174): one
                # prefix-coded trie term per shift level 0, ps, 2ps, ... < 64,
                # all at position 0, vectorized per shift over the batch.
                from lucenenet_ray.index.numeric import (
                    PRECISION_STEP_DEFAULT, int64_array_to_prefix_coded,
                    trie_shifts)

                ps = (int(analyzed.split(":", 1)[1]) if ":" in analyzed
                      else PRECISION_STEP_DEFAULT)
                arr = batch.column(col)
                valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)[border]
                vals = (arr.combine_chunks() if hasattr(arr, "combine_chunks")
                        else arr)
                vals = pc.fill_null(pc.cast(vals, pa.int64()), 0).to_numpy(
                    zero_copy_only=False)[border]
                idxs = np.flatnonzero(valid)
                sel = vals[idxs].astype(np.int64)
                pfx = fname + FIELD_SEP
                idx_list = idxs.tolist()
                for sh in trie_shifts(ps):
                    toks = int64_array_to_prefix_coded(sel, sh)
                    flat_terms.extend(pfx + t for t in toks)
                    flat_docidx.extend(idx_list)
                    flat_pos.extend([0] * len(toks))
                    if want_pay:
                        flat_pay.extend([0] * len(toks))
                continue
            vals_all = batch.column(col).to_pylist()
            prefix = fname + FIELD_SEP
            for di in range(len(texts)):
                v = vals_all[border[di]]
                if v is None:
                    continue
                if analyzed:
                    terms, positions = analyzer(str(v))
                    flat_terms.extend(prefix + t for t in terms)
                    flat_docidx.extend([di] * len(terms))
                    flat_pos.extend(positions)
                    if want_pay:  # keyword/extra fields carry payload 0
                        flat_pay.extend([0] * len(terms))
                else:
                    flat_terms.append(prefix + str(v))
                    flat_docidx.append(di)
                    flat_pos.append(0)
                    if want_pay:
                        flat_pay.append(0)

        out_term_arr = pa.array([], type=pa.string())
        out_bucket_arr = np.empty(0, dtype=np.int64)
        out_hpart_arr = np.empty(0, dtype=np.int64)
        out_pos: list[bytes] = []
        out_pay: list[bytes] = []

        if self.cfg.boost_col and self.cfg.boost_col in batch.column_names:
            boosts = batch.column(self.cfg.boost_col).to_numpy(
                zero_copy_only=False).astype(np.float32)[border]
            norms_all = encode_norm(doc_lens, boosts)
        else:
            norms_all = encode_norm(doc_lens)
        buckets_all = self.cfg.bucket_of(doc_ids)
        store_pos = self.cfg.store_positions

        pair_docid = np.empty(0, dtype=np.int64)
        pair_freq = np.empty(0, dtype=np.int32)
        pair_norm = np.empty(0, dtype=np.uint8)

        if flat_terms:
            # Arrow dictionary-encode replaces np.unique on an object array:
            # the string hashing runs in C and the sort below works on int32
            # codes, not Python string compares (~2× less inverter CPU).
            # uniq order is first-appearance, not lexicographic — downstream
            # canonicalization (_merge_group term sort + docID sort) makes
            # the final index bytes independent of this order (digest-tested).
            darr = pa.array(flat_terms, type=pa.string()).dictionary_encode()
            term_inv = darr.indices.to_numpy().astype(np.int64)
            uniq_terms = darr.dictionary.to_pylist()
            docidx_arr = np.array(flat_docidx, dtype=np.int32)
            pos_arr = np.array(flat_pos, dtype=np.int64)
            # docidx is already doc_id-ordered; stable sort by term keeps
            # (doc, position) order inside each term run
            order = np.argsort(term_inv, kind="stable")
            t_sorted = term_inv[order]
            d_sorted = docidx_arr[order]
            p_sorted = pos_arr[order]
            # (term, doc) run boundaries
            n = len(order)
            new_pair = np.empty(n, dtype=bool)
            new_pair[0] = True
            np.not_equal(t_sorted[1:], t_sorted[:-1], out=new_pair[1:])
            new_pair[1:] |= d_sorted[1:] != d_sorted[:-1]
            pair_starts = np.flatnonzero(new_pair)
            pair_term = t_sorted[pair_starts]
            pair_doci = d_sorted[pair_starts]
            pair_freq = np.diff(np.append(pair_starts, n)).astype(np.int32)
            pair_docid = doc_ids[pair_doci]
            pair_norm = norms_all[pair_doci]
            pair_bucket = buckets_all[pair_doci]

            # per-run delta-encoded positions, one vectorized pass:
            # delta[i] = p[i] - p[i-1], reset to absolute at run starts
            pos_delta = p_sorted.copy()
            pos_delta[1:] -= p_sorted[:-1]
            pos_delta[pair_starts] = p_sorted[pair_starts]
            if want_pay:
                # payload stream mirrors positions exactly: offsets ascend
                # within a (term, doc) run, so the same delta scheme applies
                pay_arr = np.array(flat_pay, dtype=np.int64)[order]
                pay_delta = pay_arr.copy()
                pay_delta[1:] -= pay_arr[:-1]
                pay_delta[pair_starts] = pay_arr[pair_starts]

            # output rows = (term, bucket) runs over the pair list (bucket is
            # monotone within a term because docs are sorted)
            m = len(pair_starts)
            new_row = np.empty(m, dtype=bool)
            new_row[0] = True
            np.not_equal(pair_term[1:], pair_term[:-1], out=new_row[1:])
            new_row[1:] |= pair_bucket[1:] != pair_bucket[:-1]
            row_starts = np.flatnonzero(new_row)
            row_ends = np.append(row_starts[1:], m)
            pair_val_ends = np.append(pair_starts[1:], n)

            # fully vectorized row assembly — no per-row Python loop:
            # terms via one Arrow dictionary take, hpart computed once per
            # UNIQUE term (not per row), and positions/payloads VInt-encoded
            # in ONE bulk pass over the whole batch then split at row
            # boundaries (rows are contiguous slices of the pair arrays).
            row_codes = pair_term[row_starts]
            out_term_arr = darr.dictionary.take(pa.array(row_codes))
            out_bucket_arr = pair_bucket[row_starts].astype(np.int64)
            n_hparts = self.cfg.n_hparts
            uniq_hparts = np.fromiter(
                (term_hpart(t, n_hparts) for t in uniq_terms), dtype=np.int64,
                count=len(uniq_terms))
            out_hpart_arr = uniq_hparts[row_codes]
            if store_pos:
                row_pos_counts = (
                    pair_val_ends[row_ends - 1] - pair_starts[row_starts]
                ).astype(np.int64)
                out_pos = _split_vint_stream(
                    write_vints(pos_delta.astype(np.uint64)), row_pos_counts)
                if want_pay:
                    out_pay = _split_vint_stream(
                        write_vints(pay_delta.astype(np.uint64)),
                        row_pos_counts)
            else:
                out_pos = [b""] * len(row_starts)

            if self.cfg.store_term_vectors:
                _write_term_vector_file(
                    self.cfg.index_path, pair_docid, pair_term, pair_freq,
                    pair_starts, pair_val_ends,
                    p_sorted if store_pos else None,
                    pay_arr if (store_pos and want_pay) else None,
                    darr.dictionary)

        # assemble per-row value arrays (contiguous slices of the pair arrays)
        n_rows = len(out_term_arr)
        docs_vals = np.empty(0, np.int64)
        freqs_vals = np.empty(0, np.int64)
        norms_vals = np.empty(0, np.uint8)
        lens = np.empty(0, dtype=np.int64)
        if n_rows:
            lens = (row_ends - row_starts).astype(np.int64)
            docs_vals = pair_docid
            freqs_vals = pair_freq.astype(np.int64)
            norms_vals = pair_norm

        # per-bucket doc-length sentinel rows (norms + collection stats);
        # doc_ids already sorted → buckets contiguous
        bk_starts = np.flatnonzero(
            np.concatenate(([True], buckets_all[1:] != buckets_all[:-1]))
        ) if len(doc_ids) else np.empty(0, np.int64)
        bk_ends = np.append(bk_starts[1:], len(doc_ids))
        dl_term: list[str] = []
        dl_bucket: list[int] = []
        for s, e in zip(bk_starts, bk_ends):
            dl_term.append(DOCLEN_TERM)
            dl_bucket.append(int(buckets_all[s]))

        all_lens = np.concatenate((lens, (bk_ends - bk_starts).astype(np.int64)))
        docs_vals = np.concatenate((docs_vals, doc_ids))
        freqs_vals = np.concatenate((freqs_vals, doc_lens.astype(np.int64)))
        norms_vals = np.concatenate((norms_vals, norms_all))

        return wire_table(
            pa.concat_arrays([out_term_arr.cast(pa.string()),
                              pa.array(dl_term, type=pa.string())]),
            np.concatenate((out_bucket_arr,
                            np.asarray(dl_bucket, dtype=np.int64))),
            np.concatenate((out_hpart_arr,
                            np.zeros(len(dl_term), dtype=np.int64))),
            all_lens, docs_vals, freqs_vals, norms_vals,
            out_pos + [b""] * len(dl_term),
            out_pay + [b""] * len(dl_term) if want_pay else None)


def wire_table(terms: pa.Array, buckets: np.ndarray, hparts: np.ndarray,
               lens: np.ndarray, docs: np.ndarray, freqs: np.ndarray,
               norms: np.ndarray, pos_rows: list[bytes],
               pay_rows: list[bytes] | None) -> pa.Table:
    """Assemble shuffle-wire rows: row i holds the ``lens[i]`` postings
    that follow row i-1's in ``docs``/``freqs``/``norms``, with its own
    position (and payload) run bytes.

    Wire format: docs RAW little-endian int64 (docIDs are md5-random 60-bit
    values — their deltas average ~7 VInt bytes, so VInt bought ~nothing
    while costing a 7-pass encode here and a 7-pass decode in every reducer;
    raw int64 is one memcpy each way), freqs VInt (mostly 1 byte), norms raw
    uint8. Transient format only — the on-disk index keeps Lucene-style
    d-gap FOR blocks + VInt tails (codec.py)."""
    bounds = np.concatenate(([0], np.cumsum(lens)))
    doc_b = np.asarray(docs).astype("<i8").tobytes()
    doc_rows = [doc_b[bounds[i] * 8 : bounds[i + 1] * 8]
                for i in range(len(lens))]
    freq_rows = _split_vint_stream(
        write_vints(np.asarray(freqs).astype(np.uint64)), lens)
    norm_b = np.asarray(norms, dtype=np.uint8).tobytes()
    norm_rows = [norm_b[bounds[i] : bounds[i + 1]] for i in range(len(lens))]
    cols = {
        "term": terms,
        "bucket": pa.array(buckets, type=pa.int32()),
        "hpart": pa.array(hparts, type=pa.int32()),
        "n": pa.array(lens, type=pa.int32()),
        "doc_bytes": pa.array(doc_rows, type=pa.large_binary()),
        "freq_bytes": pa.array(freq_rows, type=pa.large_binary()),
        "norm_bytes": pa.array(norm_rows, type=pa.large_binary()),
        "pos_bytes": pa.array(pos_rows, type=pa.large_binary()),
    }
    if pay_rows is not None:
        cols["pay_bytes"] = pa.array(pay_rows, type=pa.large_binary())
    return pa.table(cols)


def _split_vint_stream(stream: np.ndarray, counts: np.ndarray) -> list[bytes]:
    """Split a bulk VInt byte stream into per-row byte strings, where row i
    holds counts[i] values. Vectorized terminator scan + python slicing."""
    if stream.size == 0:
        return [b""] * len(counts)
    ends = np.flatnonzero((stream & 0x80) == 0)  # last byte of each value
    vbound = np.cumsum(counts)  # value index after each row
    tail = np.where(vbound > 0, ends[np.maximum(vbound, 1) - 1] + 1, 0)
    byte_bound = np.concatenate(([0], tail))
    raw = stream.tobytes()
    return [bytes(raw[byte_bound[i] : byte_bound[i + 1]]) for i in range(len(counts))]


def _binary_parts(col: "pa.ChunkedArray") -> tuple[np.ndarray, np.ndarray]:
    """A binary column's values back to back, in row order, as one uint8
    array, and each row's byte offsets into it: the combined array's data
    buffer between its first and last offsets, with no per-row
    ``.as_py()`` + join loop."""
    arr = col.combine_chunks()
    dt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=dt)[
        arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data_buf = arr.buffers()[2]
    data = (np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None
            else np.empty(0, dtype=np.uint8))
    return data[offs[0] : offs[-1]], offs - offs[0]


def _binary_array(data: np.ndarray | bytes, offs: np.ndarray) -> pa.Array:
    """large_binary column whose row i is ``data[offs[i]:offs[i+1]]``."""
    return pa.Array.from_buffers(
        pa.large_binary(), len(offs) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(offs, dtype=np.int64)),
         pa.py_buffer(data)])


def _list_array(values: np.ndarray, offs: np.ndarray, typ) -> pa.Array:
    """list<typ> column whose row i is ``values[offs[i]:offs[i+1]]``."""
    return pa.ListArray.from_arrays(pa.array(offs, type=pa.int32()),
                                    pa.array(values, type=typ))


def _run_max(vals: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Maximum of each run ``vals[offs[i]:offs[i+1]]``; 0 for an empty run."""
    out = np.zeros(len(offs) - 1, dtype=np.int64)
    nonempty = offs[1:] > offs[:-1]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(vals, offs[:-1][nonempty])
    return out


def _segmented_cumsum_reset(deltas: np.ndarray, run_starts: np.ndarray,
                            run_lengths: np.ndarray) -> np.ndarray:
    """Absolute values from per-run delta encoding (first delta absolute)."""
    c = np.cumsum(deltas)
    base = c[run_starts] - deltas[run_starts]
    return c - np.repeat(base, run_lengths)


_INVERTER_SINGLETON: dict[tuple, Inverter] = {}


def _write_term_vector_file(index_path: str, pair_docid, pair_term,
                            pair_freq, pair_starts, pair_val_ends,
                            p_sorted, pay_arr, term_dict) -> None:
    """Side-write one batch's physical term vectors (doc-major, term-sorted
    within doc — TermVectorsReader enumerates terms in term order). All
    columns assembled by vectorized gathers over the inverter's pair arrays;
    no re-tokenization. Idempotent: the file name is content-keyed and the
    write is temp+rename, so task retries replace with identical bytes."""
    import hashlib

    terms_np = np.asarray(term_dict.to_pylist(), dtype=object)[pair_term]
    tv_order = np.lexsort((terms_np, pair_docid))
    docs = pair_docid[tv_order]
    terms = terms_np[tv_order]
    freqs = pair_freq[tv_order].astype(np.int32)
    cols: dict = {
        "doc_id": pa.array(docs, type=pa.int64()),
        "term": pa.array(terms, type=pa.string()),
        "freq": pa.array(freqs, type=pa.int32()),
    }
    if p_sorted is not None:
        lens_tv = (pair_val_ends - pair_starts)[tv_order]
        offs = np.concatenate(([0], np.cumsum(lens_tv)))
        gather = (np.repeat(pair_starts[tv_order] - offs[:-1], lens_tv)
                  + np.arange(offs[-1]))
        cols["positions"] = pa.ListArray.from_arrays(
            pa.array(offs, type=pa.int32()),
            pa.array(p_sorted[gather].astype(np.int32)))
        if pay_arr is not None:
            cols["start_offsets"] = pa.ListArray.from_arrays(
                pa.array(offs, type=pa.int32()),
                pa.array(pay_arr[gather].astype(np.int32)))
    tbl = pa.table(cols)
    tvdir = os.path.join(index_path, "termvectors")
    os.makedirs(tvdir, exist_ok=True)
    key = hashlib.md5(docs.tobytes()).hexdigest()[:12]
    name = f"tv-{int(docs[0]):015d}-{int(docs[-1]):015d}-{key}.parquet"
    tmp = os.path.join(tvdir, f".{name}.{os.getpid()}.tmp")
    pq.write_table(tbl, tmp, row_group_size=8192)
    os.replace(tmp, os.path.join(tvdir, name))


def read_term_vector(index_path: str, doc_id: int) -> pa.Table:
    """Point-lookup a doc's stored term vector: prune sidecar files by the
    doc range in the name, then parquet row-group stats prune inside the
    file (Lucene .tvx doc→pointer analog). Raises if the index was built
    without store_term_vectors."""
    tvdir = os.path.join(index_path, "termvectors")
    if not os.path.isdir(tvdir):
        raise FileNotFoundError(
            f"index at {index_path} has no termvectors/ sidecar")
    parts = []
    for f in sorted(os.listdir(tvdir)):
        if not (f.startswith("tv-") and f.endswith(".parquet")):
            continue
        _, lo, hi, _rest = f.split("-", 3)
        if int(lo) <= doc_id <= int(hi):
            t = pq.read_table(
                os.path.join(tvdir, f),
                filters=pc.field("doc_id") == doc_id)
            if t.num_rows:
                parts.append(t)
    if not parts:
        return None
    from lucenenet_ray.util.tables import concat_tables

    return concat_tables(parts, schema=parts[0].schema)


def invert_batch_fn(batch: pa.Table, cfg: IndexConfig, text_col: str,
                    id_col: str) -> pa.Table:
    """Task-mode inverter: reuses a per-process Inverter (worker pool is warm
    from earlier stages — no actor cold-start). The singleton key includes
    every config field that changes the inverter's output, so rebuilding the
    same index_path with a different IndexConfig never reuses stale state."""
    key = (cfg.index_path, text_col, id_col, cfg.id_min, cfg.id_max,
           cfg.n_buckets, cfg.n_hparts, cfg.lang_col, cfg.store_positions,
           cfg.extra_fields, cfg.payloads)
    inv = _INVERTER_SINGLETON.get(key)
    if inv is None:
        inv = Inverter(cfg, text_col, id_col)
        _INVERTER_SINGLETON.clear()
        _INVERTER_SINGLETON[key] = inv
    return inv(batch)


def _merge_group(group: pa.Table, store_positions: bool) -> pa.Table:
    """Merge all partial rows of one (bucket, hpart) group: concatenate each
    term's per-batch runs, sort them by docID, and encode every term's
    canonical chunk (d-gaps + 128-block skip/block-max metadata) in ONE
    ``encode_postings`` call over the whole group.

    Mirrors ``SegmentMerger.MergeTerms`` (SegmentMerger.cs:443): a k-way
    per-term postings merge in term order — fully vectorized here, with no
    per-term loop: one lexsort of every posting by (term, doc), grouped
    gathers of the position/payload bytes, and output columns assembled
    from offsets and buffers.
    """
    terms = group.column("term").to_numpy(zero_copy_only=False)
    bucket = int(group.column("bucket")[0].as_py())
    row_lens = group.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    uniq, row_term = np.unique(terms, return_inverse=True)

    # bulk-decode the partial rows in row order: each binary column's data
    # buffer IS its rows' bytes back to back
    total_vals = int(row_lens.sum())
    # docs are raw little-endian int64 on the shuffle wire (see Inverter)
    g_docs = np.frombuffer(_binary_parts(group.column("doc_bytes"))[0],
                           dtype="<i8")
    if g_docs.size != total_vals:
        raise ValueError(
            f"doc stream corrupt: {g_docs.size} values, expected {total_vals}")
    g_docs = g_docs.astype(np.int64, copy=False)
    g_freqs = read_vints(_binary_parts(group.column("freq_bytes"))[0],
                         total_vals).astype(np.int32)
    g_norms = _binary_parts(group.column("norm_bytes"))[0]

    # one stable sort of every posting by (term, doc): rows of a term in
    # any order, docIDs unique, so the result is independent of row order
    pair_term = np.repeat(row_term, row_lens)
    order = np.lexsort((g_docs, pair_term))
    dfs = np.bincount(pair_term, minlength=uniq.size)
    post_offs = np.concatenate(([0], np.cumsum(dfs)))
    docs, freqs, norms = g_docs[order], g_freqs[order], g_norms[order]
    enc = encode_postings(docs, freqs, norms, None, dfs=dfs)

    # Position streams are NEVER decoded in the merge: each (term, doc)
    # pair's run is a self-contained VInt segment (first delta absolute per
    # pair — see Inverter), and the final on-disk layout is the same per-doc
    # runs concatenated in merged doc order. So merging positions is a pure
    # BYTE reorder: scan terminators once to find each pair's byte segment,
    # then gather every segment in merged (term, doc) order. Payload runs
    # have the same per-pair value counts (one payload per position).
    run_names = ["pos_bytes"] + (
        ["pay_bytes"] if "pay_bytes" in group.column_names else [])
    run_cols = {name: _binary_array(b"", np.zeros(uniq.size + 1, np.int64))
                for name in run_names}
    if store_positions:
        # doclen sentinel rows carry no positions
        has_runs = np.repeat(terms != DOCLEN_TERM, row_lens)
        vbound = np.cumsum(np.where(has_runs, g_freqs.astype(np.int64), 0))
        expected = int(vbound[-1]) if vbound.size else 0
        for name in run_names:
            blob = _binary_parts(group.column(name))[0]
            ends = np.flatnonzero((blob & 0x80) == 0)
            if ends.size != expected:
                kind = "position" if name == "pos_bytes" else "payload"
                raise ValueError(f"{kind} stream corrupt: {ends.size} "
                                 f"values, expected {expected}")
            pair_end = np.zeros(vbound.size, dtype=np.int64)
            if ends.size:
                nz = vbound > 0
                pair_end[nz] = ends[vbound[nz] - 1] + 1
            pair_start = np.concatenate(([0], pair_end[:-1]))
            pair_len = (pair_end - pair_start)[order]
            run_cols[name] = _binary_array(
                blob[_grouped_take(pair_start[order], pair_len)],
                np.concatenate(([0], np.cumsum(pair_len)))[post_offs])

    # the sentinel row keeps its per-doc norm BYTES (merged doc order):
    # norms can't be re-derived from doc_len when an index-time boost is
    # baked in (encode_norm(boost/sqrt(L))); dropped before the postings
    # write so on-disk bytes are unchanged
    is_doclen = uniq == DOCLEN_TERM
    doclen_norms = norms[np.repeat(is_doclen, dfs)]
    doclen_offs = np.concatenate(([0], np.cumsum(np.where(is_doclen, dfs, 0))))
    freq_csum = np.concatenate(([0], np.cumsum(freqs, dtype=np.int64)))
    blocks, skip1 = enc["block_offs"], enc["skip1_offs"]
    return pa.table(
        {
            "bucket": pa.array(np.full(uniq.size, bucket), type=pa.int32()),
            "term": pa.array(uniq, type=pa.string()),
            "df": pa.array(dfs, type=pa.int64()),
            "ttf": pa.array(np.diff(freq_csum[post_offs]), type=pa.int64()),
            "max_freq": pa.array(_run_max(freqs, post_offs), type=pa.int32()),
            "max_norm": pa.array(_run_max(norms, post_offs), type=pa.int32()),
            "doc_bytes": _binary_array(enc["doc_bytes"], enc["doc_offs"]),
            "freq_bytes": _binary_array(enc["freq_bytes"], enc["freq_offs"]),
            "pos_bytes": run_cols["pos_bytes"],
            "doclen_norm_bytes": _binary_array(doclen_norms, doclen_offs),
            **({"pay_bytes": run_cols["pay_bytes"]}
               if "pay_bytes" in run_cols else {}),
            "block_last_doc": _list_array(enc["block_last_doc"], blocks, pa.int64()),
            "block_doc_off": _list_array(enc["block_doc_off"], blocks, pa.int64()),
            "block_freq_off": _list_array(enc["block_freq_off"], blocks, pa.int64()),
            "block_max_freq": _list_array(enc["block_max_freq"], blocks, pa.int32()),
            "block_max_norm": _list_array(enc["block_max_norm"], blocks, pa.int32()),
            # level-1 skip entries (MultiLevelSkipListWriter fan-out 128):
            # empty lists for terms below df = 128^2
            "skip1_last_doc": _list_array(enc["skip1_last_doc"], skip1, pa.int64()),
            "skip1_max_freq": _list_array(enc["skip1_max_freq"], skip1, pa.int32()),
            "skip1_max_norm": _list_array(enc["skip1_max_norm"], skip1, pa.int32()),
        }
    )


def _merge_write_group(group: pa.Table, store_positions: bool,
                       index_path: str) -> pa.Table:
    """Fused reducer: merge one (bucket, hpart) group's chunks, then write
    postings (term-sorted) and — for the hpart-0 group — the bucket's norms.
    Returns one manifest row."""
    merged = _merge_group(group, store_positions)
    bucket = int(group.column("bucket")[0].as_py())
    hpart = int(group.column("hpart")[0].as_py())

    terms = merged.column("term")
    is_doclen = pc.equal(terms, DOCLEN_TERM)
    doclen_rows = merged.filter(is_doclen)
    postings = merged.filter(pc.invert(is_doclen))

    os.makedirs(os.path.join(index_path, "postings"), exist_ok=True)
    os.makedirs(os.path.join(index_path, "norms"), exist_ok=True)

    n_docs = 0
    sum_len = 0
    if doclen_rows.num_rows:
        row = doclen_rows.slice(0, 1)
        nd = int(row.column("df")[0].as_py())
        doc_ids, doc_lens = decode_docs_freqs(
            row.column("doc_bytes")[0].as_py(),
            row.column("freq_bytes")[0].as_py(), nd,
            row.column("block_doc_off")[0].values.to_numpy(),
            row.column("block_freq_off")[0].values.to_numpy())
        # the inverter-encoded norm bytes carried through the merge (they
        # embed any index-time boost, FieldInvertState.Boost)
        norms = np.frombuffer(row.column("doclen_norm_bytes")[0].as_py(),
                              dtype=np.uint8)
        n_docs = nd
        sum_len = int(doc_lens.sum())
        norm_table = pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "doc_len": pa.array(doc_lens, type=pa.int32()),
                "norm": pa.array(norms.astype(np.int32), type=pa.int32()),
            }
        )
        _atomic_write_parquet(
            norm_table, os.path.join(index_path, "norms", f"bucket={bucket:05d}.parquet")
        )

    if postings.num_rows:
        # rows are already term-sorted by _merge_group; the sentinel-only
        # norm-bytes column never reaches disk (on-disk bytes unchanged)
        postings = postings.drop_columns(["doclen_norm_bytes"])
        _atomic_write_parquet(
            postings,
            os.path.join(index_path, "postings",
                         postings_file_name(bucket, hpart)),
            row_group_size=2048,
        )

    return pa.table(
        {
            "bucket": pa.array([bucket], type=pa.int32()),
            "hpart": pa.array([hpart], type=pa.int32()),
            "n_docs": pa.array([n_docs], type=pa.int64()),
            "sum_len": pa.array([sum_len], type=pa.int64()),
            "n_terms": pa.array([postings.num_rows], type=pa.int64()),
        }
    )


def _atomic_write_parquet(table: pa.Table, path: str, row_group_size: int = 65536) -> None:
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    os.close(fd)
    try:
        pq.write_table(table, tmp, row_group_size=row_group_size)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# map-output blocks handed to one split task: bounds the object count
# (⌈M/8⌉ × P entries; plasma creation serializes) while keeping splits
# flowing during the map stage
SPLIT_GROUP = 8
# split tasks are brief memory-bound repartitions on blocks that already
# exist; a fractional CPU lets them schedule DURING the map stage instead of
# queueing behind map tasks (the last splits would otherwise start after the
# map drains and sit on the critical path)
SPLIT_CPUS = 0.5


# the reducer-group size ``writer_hparts`` aims for: a group's bytes stay
# at most this (docs/SCALE.md bounds a reducer at ~10^8 bytes of partials)
WRITER_GROUP_BYTES = 64 << 20
# the most hparts a writer shard gets (the layout it had before sizing)
WRITER_MAX_HPARTS = 8


def writer_hparts(nbytes: int, n_buckets: int) -> int:
    """The hpart count of an ``IndexWriter`` shard of ``nbytes`` input
    bytes: the smallest power of two that keeps ``nbytes / (n_buckets ×
    n_hparts)`` at most ``WRITER_GROUP_BYTES``, clamped to [1,
    ``WRITER_MAX_HPARTS``]. Small commits and merges get one postings file
    per bucket, as a Lucene segment keeps one terms file however small."""
    h = 1
    while h < WRITER_MAX_HPARTS and nbytes > n_buckets * h * WRITER_GROUP_BYTES:
        h *= 2
    return h


# the exchange bytes ``exchange_parts`` gives one reduce task: ~0.5 s of
# reduce work at the measured reduce rate
EXCHANGE_PART_BYTES = 2 << 20


def exchange_parts(nbytes: int, n_groups: int, cpus: int) -> int:
    """The reduce-task count of an exchange handed ``nbytes`` of wire rows:
    one task per ``EXCHANGE_PART_BYTES``, clamped to [1, min(``n_groups``,
    max(128, 4 × ``cpus``))]. The cap is the count a large stream gets;
    a small input runs one reducer and starts no extra Ray workers."""
    cap = min(n_groups, max(128, 4 * cpus))
    return max(1, min(cap, -(-nbytes // EXCHANGE_PART_BYTES)))


def _hash_shuffle_merge_write(block_refs, cfg: IndexConfig,
                              store_pos: bool) -> list[dict]:
    """Raw-Ray map-reduce hash exchange, STREAMED against the map stage.

    ``block_refs`` yields object refs of shuffle-wire tables (the Inverter's
    output schema). ``build_index`` streams the inverter's output blocks
    (``iter_internal_ref_bundles`` — no materialize barrier);
    ``build_index_incremental`` streams its shards' checkpointed rows, and
    ``merge_indexes`` passes the wire rows re-derived from built indexes.
    Map side: groups of blocks are handed to split tasks that partition
    rows into P tables by ``(bucket * n_hparts + hpart) % P`` (num_returns=P
    → reducers fetch only their slice), so the exchange's partitioning work
    and object creation overlap the map tail instead of serializing after
    it. Reduce side: one task per partition concats its slices, groups by
    exact (bucket, hpart), and runs the merge+write reducer per group.

    Deterministic OUTPUT despite nondeterministic stream order: partition
    assignment is a pure key function, and ``_merge_group`` canonicalizes
    each term's postings by (term, docID) sort — docIDs are globally unique,
    so merged bytes are independent of block arrival order (tested: identical
    digests at 8 vs 32 CPUs, and sharded vs direct builds).

    REDUCER-SIZING RULE (the 100×-scale contract, tested in
    tests/test_index_search.py::test_reducer_bytes_bounded_under_skew):
    a reducer's memory is the bytes of its (bucket, hpart) groups.
    ``bucket`` is a docID-range partition, so even a single head term —
    the worst skew an inverted index can produce — spreads its postings
    uniformly over ALL buckets: max group bytes ≤ corpus_postings_bytes /
    (n_buckets × n_hparts) + one term-chunk. To run at 100× the corpus,
    raise ``n_buckets`` (and/or ``n_hparts``) proportionally; the reduce-task
    count follows the input: a stream that ends within one split group
    (≤ ``SPLIT_GROUP`` blocks) gets ``exchange_parts`` of its blocks' object
    bytes, so a small build runs one reducer; a longer stream gets the cap,
    min(n_buckets × n_hparts, max(128, 4 × cluster CPUs)). Output bytes are
    invariant to the reduce-task count. Hparts bound reducer memory only:
    reads route a term to its row group by the file's min/max statistics, so
    more hparts mean more files, not smaller reads. The writer sizes them
    from a shard's bytes (``writer_hparts``).
    """
    import ray

    # A stream of more than SPLIT_GROUP blocks gets the cap: ≥ 128 reduce
    # tasks, fine enough that reducer waves pack well at 32 CPUs (64 tasks =
    # 2 ragged waves; zipf-skewed groups straggle), coarse enough that
    # per-task overhead stays small at 8; 4 per CPU beyond that. A stream
    # that ends within one split group is sized from its blocks' bytes, read
    # from the object directory (the driver pulls no block; a task result
    # small enough to be inlined has no entry there and counts 0). Output
    # bytes are independent of n_parts (files are written per exact
    # (bucket, hpart) group).
    cpus = int(ray.cluster_resources().get("CPU", 1))
    n_groups = cfg.n_buckets * cfg.n_hparts
    block_refs = iter(block_refs)
    head = list(itertools.islice(block_refs, SPLIT_GROUP + 1))
    if len(head) > SPLIT_GROUP:  # too long to size before the first split
        n_parts = exchange_parts(1 << 62, n_groups, cpus)
    else:
        if head:
            ray.wait(head, num_returns=len(head), fetch_local=False)
        locs = ray.experimental.get_object_locations(head)
        nbytes = sum(locs[r]["object_size"] or 0 for r in head if r in locs)
        n_parts = exchange_parts(nbytes, n_groups, cpus)

    @ray.remote
    def split_block(n_parts_: int, *tables):
        # ONE stable sort by partition key + zero-copy slices, instead of
        # n_parts mask+filter passes (which re-scan the key column and
        # re-gather the table once per partition — 128x the memory traffic).
        # Each slice is compacted to Arrow IPC bytes: the IPC writer
        # truncates sliced buffers, so returned objects hold only their own
        # rows (a pickled Table slice would ship the whole parent buffers),
        # and the reducer's deserialization is a zero-copy stream read.
        table = pa.concat_tables([t for t in tables if t is not None])
        key = (
            table.column("bucket").to_numpy(zero_copy_only=False).astype(np.int64)
            * cfg.n_hparts
            + table.column("hpart").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        part = key % n_parts_
        order = np.argsort(part, kind="stable")  # stable: block order kept
        ts = table.take(order)
        bounds = np.searchsorted(part[order], np.arange(n_parts_ + 1))
        out = []
        for p in range(n_parts_):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            if hi == lo:
                out.append(None)
                continue
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, ts.schema) as w:
                w.write_table(ts.slice(lo, hi - lo))
            out.append(sink.getvalue())
        return tuple(out)

    @ray.remote
    def reduce_part(index_path: str, store_pos_: bool, *tables):
        tabs = []
        for tb in tables:
            if tb is None:
                continue
            if isinstance(tb, (pa.Buffer, bytes, memoryview)):  # IPC slice
                tb = pa.ipc.open_stream(tb).read_all()
            if tb.num_rows:
                tabs.append(tb)
        if not tabs:
            return []
        # no table-level combine_chunks: it would copy every binary column
        # once more — _binary_parts combines exactly the columns it reads
        t = pa.concat_tables(tabs)
        key = (
            t.column("bucket").to_numpy(zero_copy_only=False).astype(np.int64)
            * cfg.n_hparts
            + t.column("hpart").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        out_rows = []
        for kv in np.unique(key):
            m = _merge_write_group(t.filter(pa.array(key == kv)), store_pos_,
                                   index_path)
            out_rows.append({c: m.column(c)[0].as_py() for c in m.column_names})
        return out_rows

    split_refs: list = []
    raw_refs: list = []
    group: list = []
    for bref in itertools.chain(head, block_refs):
        if n_parts == 1:
            raw_refs.append(bref)
            continue
        group.append(bref)
        if len(group) >= SPLIT_GROUP:
            split_refs.append(
                split_block.options(num_returns=n_parts, num_cpus=SPLIT_CPUS)
                .remote(n_parts, *group)
            )
            group = []
    if group:
        split_refs.append(
            split_block.options(num_returns=n_parts, num_cpus=SPLIT_CPUS)
            .remote(n_parts, *group)
        )
    if n_parts == 1:
        # no split needed: hand the map blocks straight to the one reducer
        # (num_returns=1 would wrap the 1-tuple as a single object)
        result_refs = [reduce_part.remote(cfg.index_path, store_pos, *raw_refs)]
    else:
        result_refs = [
            reduce_part.remote(cfg.index_path, store_pos,
                               *[sr[p] for sr in split_refs])
            for p in range(n_parts)
        ]
    rows: list[dict] = []
    for rr in ray.get(result_refs):
        rows.extend(rr)
    return rows


def write_termstats(index_path: str, n_term_rows: int) -> None:
    """Aggregate global (term, df, ttf) across buckets from the postings dir.
    Below ~2M term rows a driver-side pyarrow aggregate beats a distributed
    groupby's fixed costs; above it the Ray groupby shuffles (web-scale vocab
    ~1e9 rows → distributed)."""
    import ray.data

    import glob as _glob

    ts_path = os.path.join(index_path, "termstats")
    postings_dir = os.path.join(index_path, "postings")
    if not _glob.glob(os.path.join(postings_dir, "*.parquet")):
        # a merge whose every source doc was dead (an expunge of a fully
        # deleted shard) legitimately has no postings files — empty stats
        os.makedirs(ts_path, exist_ok=True)
        empty = pa.table({"term": pa.array([], type=pa.string()),
                          "df": pa.array([], type=pa.int64()),
                          "ttf": pa.array([], type=pa.int64())})
        _atomic_write_parquet(empty, os.path.join(ts_path, "termstats.parquet"))
        return
    if n_term_rows <= 2_000_000:
        stats_t = pq.read_table(postings_dir, columns=["term", "df", "ttf"])
        agg = pa.TableGroupBy(stats_t, "term").aggregate([("df", "sum"), ("ttf", "sum")])
        agg = agg.rename_columns(["term", "df", "ttf"])
        agg = agg.take(pc.sort_indices(agg.column("term")))
        os.makedirs(ts_path, exist_ok=True)
        _atomic_write_parquet(agg, os.path.join(ts_path, "termstats.parquet"))
    else:
        stats_ds = ray.data.read_parquet(postings_dir, columns=["term", "df", "ttf"])
        from ray.data.aggregate import Sum

        termstats = (
            stats_ds.groupby("term")
            .aggregate(Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf"))
            .sort("term")
        )
        termstats.write_parquet(ts_path)


def finish_index(index_path: str, config: dict, rows: list[dict],
                 **extra) -> dict:
    """Fold the reducers' manifest rows into per-bucket stats, write global
    termstats and an atomic manifest.json; returns the manifest. ``config``
    is recorded with the postings layout (``codec``) and without
    ``index_path``, so an index's bytes do not depend on where it is
    written; ``extra`` entries (e.g. a merge's ``id_ranges``) are added to
    the manifest."""
    by_bucket: dict[int, dict] = {}
    for r in rows:
        b = int(r["bucket"])
        agg = by_bucket.setdefault(
            b, {"bucket": b, "n_docs": 0, "sum_len": 0, "n_terms": 0}
        )
        agg["n_docs"] += int(r["n_docs"])
        agg["sum_len"] += int(r["sum_len"])
        agg["n_terms"] += int(r["n_terms"])
    buckets = [by_bucket[b] for b in sorted(by_bucket)]

    # global term stats (df/ttf summed across buckets) — the CollectionStatistics
    # / TermStatistics source (IndexSearcher.cs:982-1007)
    write_termstats(index_path, sum(r["n_terms"] for r in buckets))

    manifest = {
        "format_version": 1,
        "config": {k: v for k, v in config.items() if k != "index_path"}
        | {"codec": FORMAT},
        "n_docs": sum(r["n_docs"] for r in buckets),
        "sum_total_term_freq": sum(r["sum_len"] for r in buckets),
        **extra,
        "buckets": buckets,
    }
    tmp = os.path.join(index_path, ".manifest.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(index_path, "manifest.json"))
    return manifest


def _inverted(ds, cfg: IndexConfig, text_col: str, id_col: str):
    """The build's map step: ``ds`` → the Inverter's shuffle-wire rows,
    task-mode on the shared worker pool (analyzer cached per process)."""
    return ds.map_batches(
        functools.partial(
            invert_batch_fn, cfg=cfg, text_col=text_col, id_col=id_col
        ),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


def _block_refs(ds):
    """Stream a Dataset's block refs (no materialize barrier)."""
    return (ref for bundle in ds.iter_internal_ref_bundles()
            for ref in bundle.block_refs)


def build_index(
    ds,
    cfg: IndexConfig,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Run the full index build; returns the manifest dict.

    ``ds`` is a ray.data.Dataset with at least (id_col:int64, text_col:str).
    Never calls ray.init (caller owns the session). The map streams into
    ONE exchange (no materialize barrier): each (bucket, hpart) reducer
    merges its term chunks and writes its index file directly. Ray Data's
    groupby is a full SORT shuffle, which at 32 CPUs cost more wall time
    than all the map compute combined; the build needs partitioning, not
    order, hence the raw-Ray hash exchange (``_hash_shuffle_merge_write``).
    """
    rows = _hash_shuffle_merge_write(
        _block_refs(_inverted(ds, cfg, text_col, id_col)), cfg,
        cfg.store_positions)
    return finish_index(cfg.index_path, asdict(cfg), rows)


# a shard checkpoint's marker, written last: its presence means every
# wire-row file of the shard is in place
CHECKPOINT = "_checkpoint.json"


def build_index_incremental(shards: list[tuple[str, "object"]], out_path: str,
                            cfg_template: IndexConfig,
                            text_col: str = "text",
                            id_col: str = "doc_id") -> dict:
    """Shard-at-a-time resumable build, ending in the build's one reduce.

    Each ``(name, dataset_factory)`` shard runs ``build_index``'s map and
    checkpoints the wire rows as parquet in ``<out_path>/shards/<name>``
    (written to ``<name>.tmp``, marker last, then renamed). A rerun SKIPS
    every shard whose marker exists under the same config, so a killed run
    loses at most one shard's map. Then every shard's wire rows stream
    through ``build_index``'s exchange and reducer, and ``finish_index``
    writes termstats and the one manifest with per-shard ``shard_lineage``:
    each posting is encoded once, into ``build_index``'s bytes for the
    union of the (docID-disjoint) shards.

    ``dataset_factory`` is a zero-arg callable returning the shard's Dataset
    (lazy so skipped shards never read their input).
    """
    import glob
    import shutil
    import time
    from dataclasses import replace

    import ray.data as rd

    cfg = replace(cfg_template, index_path=out_path)
    # what the wire rows depend on: rows made under another config (bucket
    # layout, analyzer fields, ...) are rebuilt, not reused
    spec = json.loads(json.dumps(
        [asdict(replace(cfg, index_path="")), text_col, id_col]))
    os.makedirs(out_path, exist_ok=True)

    lineage, files = [], []
    for name, factory in shards:
        shard_dir = os.path.join(out_path, "shards", name)
        try:
            with open(os.path.join(shard_dir, CHECKPOINT)) as f:
                marker = json.load(f)
        except FileNotFoundError:
            marker = {}
        if marker.get("spec") == spec:
            lineage.append({"shard": name, "status": "skipped (checkpoint)",
                            "n_docs": marker["n_docs"]})
        else:
            t0 = time.perf_counter()
            tmp = shard_dir + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)  # a crashed attempt
            _inverted(factory(), cfg, text_col, id_col).write_parquet(tmp)
            parts = glob.glob(os.path.join(tmp, "*.parquet"))
            # docs = the doc-length sentinel rows' counts
            n_docs = int(sum(pq.read_table(
                p, columns=["n"], filters=[("term", "=", DOCLEN_TERM)])
                .column("n").to_numpy().sum() for p in parts))
            dt = time.perf_counter() - t0
            stats = {"n_docs": n_docs, "build_sec": round(dt, 3),
                     "docs_per_sec": round(n_docs / dt, 1),
                     "wire_bytes": sum(map(os.path.getsize, parts))}
            os.makedirs(tmp, exist_ok=True)
            with open(os.path.join(tmp, CHECKPOINT), "w") as f:
                json.dump({**stats, "spec": spec}, f)
            # a dir without a valid marker (an older layout, another
            # config) gives way to the new checkpoint
            shutil.rmtree(shard_dir, ignore_errors=True)
            os.rename(tmp, shard_dir)
            lineage.append({"shard": name, "status": "built", **stats})
        files += sorted(glob.glob(os.path.join(shard_dir, "*.parquet")))

    # a rerun into the same out_path starts from empty index directories
    for sub in ("postings", "norms", "termstats"):
        shutil.rmtree(os.path.join(out_path, sub), ignore_errors=True)
    refs = _block_refs(rd.read_parquet(files, partitioning=None)) \
        if files else ()
    rows = _hash_shuffle_merge_write(refs, cfg, cfg.store_positions)
    return finish_index(out_path, asdict(cfg), rows, shard_lineage=lineage)
