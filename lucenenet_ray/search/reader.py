"""Index reader: manifest + per-bucket postings/norms access with caching.

The IndexSearcher-side state model (SURVEY §2.3): a reader pins term
dictionaries and norms once and serves many queries — here per doc-range
bucket. Postings and termstats rows are term-sorted parquet, and every term
lookup goes through a ``TermDict`` over the file: the footer's per-row-group
min/max ``term`` statistics are the .tip block index (SURVEY §2.5), a lookup
reads the one row group that can hold the term once per reader, and later
lookups in it are a ``searchsorted`` to a row. A ``PostingsChunk`` is built
only for a term that is looked up.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from lucenenet_ray.index.build import postings_file_name, term_hpart
from lucenenet_ray.index.codec import (
    check_manifest,
    decode_docs_freqs,
    decode_vint_runs,
)


def _open_parquet(path: str) -> pq.ParquetFile:
    """Every parquet open the reader makes for postings, termstats and norms."""
    return pq.ParquetFile(path)


class TermDict:
    """Terms index over one term-sorted parquet file (a postings
    ``bucket=NNNNN_hHH.parquet`` or a ``termstats`` file), BlockTree's .tip
    over .tim (SURVEY §2.5). The footer's row-group min/max ``term``
    statistics are the block index: a lookup binary-searches them to the one
    row group that can hold the term, reads it once and keeps it with its
    term column as a sorted key array. Statistics are only bounds; a file
    without them, or whose row-group ranges overlap, is one block of all its
    row groups. Every read goes through the handle that read the footer, so
    a block never comes from another version of the file; the handle closes
    once every block is read."""

    def __init__(self, path: str):
        self._pf = _open_parquet(path)
        md = self._pf.metadata
        n = md.num_row_groups
        lo, hi = [], []
        for g in range(n):
            rg = md.row_group(g)
            if g == 0:  # not md.schema: each ParquetSchema leaks native memory
                j = [rg.column(c).path_in_schema
                     for c in range(rg.num_columns)].index("term")
            st = rg.column(j).statistics
            if st is None or not st.has_min_max:
                break
            lo.append(st.min)
            hi.append(st.max)
        if len(lo) == n and all(h < l for h, l in zip(hi, lo[1:])):
            self._blocks = [[g] for g in range(n)]
            self._lo = np.array(lo, dtype=object)
            self._hi = np.array(hi, dtype=object)
        else:
            self._blocks = [list(range(n))] if n else []
            self._lo = self._hi = None
        if not self._blocks:
            self._pf.close()
        self._read: dict[int, tuple[np.ndarray, pa.Table]] = {}

    def _may_hold(self, b: int, lower: str | None, upper: str | None) -> bool:
        return self._lo is None or not (
            (upper is not None and self._lo[b] > upper)
            or (lower is not None and self._hi[b] < lower))

    def block(self, b: int) -> tuple[np.ndarray, pa.Table]:
        """(sorted term keys, rows) of block ``b``, read once."""
        got = self._read.get(b)
        if got is None:
            t = self._pf.read_row_groups(self._blocks[b], use_threads=False)
            col = t.column("term").combine_chunks()
            if len(col) > 1 and pc.any(pc.less(col[1:], col[:-1])).as_py():
                t = t.take(pc.sort_indices(col))
                col = t.column("term").combine_chunks()
            got = self._read[b] = (col.to_numpy(zero_copy_only=False), t)
            if len(self._read) == len(self._blocks):
                self._pf.close()
        return got

    def blocks(self):
        """Every block's (sorted term keys, rows), reading what is unread."""
        return (self.block(b) for b in range(len(self._blocks)))

    def find(self, terms: list[str]) -> dict[str, tuple[pa.Table, int]]:
        """term → (block rows, row) for the terms this file holds."""
        out = {}
        for term in terms:
            # the first block whose max >= term
            b = 0 if self._lo is None else int(self._hi.searchsorted(term))
            if b >= len(self._blocks) or not self._may_hold(b, term, term):
                continue
            keys, t = self.block(b)
            i = int(keys.searchsorted(term))
            if i < len(keys) and keys[i] == term:
                out[term] = (t, i)
        return out

    def terms_between(self, lower: str | None, upper: str | None,
                      include_lower: bool, include_upper: bool) -> list[str]:
        out: list[str] = []
        for b in range(len(self._blocks)):
            if not self._may_hold(b, lower, upper):
                continue
            keys, _t = self.block(b)
            i = 0 if lower is None else keys.searchsorted(
                lower, "left" if include_lower else "right")
            j = len(keys) if upper is None else keys.searchsorted(
                upper, "right" if include_upper else "left")
            out.extend(keys[i:j].tolist())
        return out


@dataclass
class PostingsChunk:
    """One (term, bucket) encoded postings chunk + lazy decode."""

    term: str
    df: int
    ttf: int
    max_freq: int
    max_norm: int
    doc_bytes: bytes
    freq_bytes: bytes
    pos_bytes: bytes
    block_last_doc: np.ndarray
    block_doc_off: np.ndarray
    block_freq_off: np.ndarray
    block_max_freq: np.ndarray
    block_max_norm: np.ndarray
    # level-1 skip last-docs (MultiLevelSkipListWriter fan-out, one per
    # SKIP1_FANOUT level-0 blocks); empty below df = 128²
    skip1_last_doc: np.ndarray
    pay_bytes: bytes = b""  # per-position payloads (IndexConfig.payloads)
    _docs: np.ndarray | None = None
    _freqs: np.ndarray | None = None
    _pos_flat: np.ndarray | None = None  # absolute positions, doc-major
    _pos_offs: np.ndarray | None = None  # per-doc offsets into _pos_flat
    _local: np.ndarray | None = None  # dense bucket-local row of each doc

    _row_of: np.ndarray | None = None

    def local_ids(self, bucket: "BucketData") -> np.ndarray:
        """Bucket-local dense index of every posting's doc — computed ONCE
        per chunk and cached (the FieldCache pattern, SURVEY §2.3): all
        per-query lookups become plain fancy-indexing."""
        if self._local is None:
            doc_ids, _l, _n = bucket.norms()
            self._local = np.searchsorted(doc_ids, self.docs())
        return self._local

    def row_of_local(self, bucket: "BucketData") -> np.ndarray:
        """Inverse map: bucket-local doc → posting row in this chunk (-1 if
        the doc has no posting). Cached; used by positional queries."""
        if self._row_of is None:
            lidx = self.local_ids(bucket)
            inv = np.full(bucket.n_docs, -1, dtype=np.int32)
            inv[lidx] = np.arange(lidx.size, dtype=np.int32)
            self._row_of = inv
        return self._row_of

    def _decode(self) -> None:
        self._docs, self._freqs = decode_docs_freqs(
            self.doc_bytes, self.freq_bytes, self.df, self.block_doc_off,
            self.block_freq_off)

    def docs(self) -> np.ndarray:
        if self._docs is None:
            self._decode()
        return self._docs

    def freqs(self) -> np.ndarray:
        if self._freqs is None:
            self._decode()
        return self._freqs

    def positions_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat absolute positions, per-doc offsets) — cached, vectorized."""
        if self._pos_flat is None:
            self._pos_flat, self._pos_offs = decode_vint_runs(
                self.pos_bytes, self.freqs())
        return self._pos_flat, self._pos_offs

    def positions(self) -> list[np.ndarray]:
        flat, offs = self.positions_flat()
        return [flat[offs[i] : offs[i + 1]] for i in range(self.df)]

    _pay_flat: np.ndarray | None = None

    def payloads_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat absolute payload values, per-doc offsets) — payloads are
        VInt delta runs parallel to positions (one value per position; see
        IndexConfig.payloads), decoded like them."""
        if self._pay_flat is None:
            if not self.pay_bytes:
                raise ValueError(
                    f"term {self.term!r}: index has no payload stream")
            self._pay_flat, self._pos_offs = decode_vint_runs(
                self.pay_bytes, self.freqs())
        return self._pay_flat, self._pos_offs


class BucketData:
    """All loaded state for one doc-range bucket."""

    def __init__(self, bucket_id: int, norms_path: str,
                 hpart_files: dict[int, str], n_hparts: int,
                 docvalues_path: str | None = None,
                 bloom_path: str | None = None):
        self.bucket_id = bucket_id
        self.norms_path = norms_path
        self.docvalues_path = docvalues_path
        self.bloom_path = bloom_path
        self._bloom_cached: object = False  # False = not loaded yet
        # a term's chunk lives in its hpart's file only (hpart → path, the
        # files present; IndexReader lists the postings dir once for all)
        self.n_hparts = n_hparts
        self._hpart_file = hpart_files
        self.postings_files = sorted(hpart_files.values())
        self._norms: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._dicts: dict[str, TermDict] = {}
        self._chunk_cache: dict[str, PostingsChunk | None] = {}
        self._dv_cache: dict[str, np.ndarray] = {}

    # -- norms ---------------------------------------------------------------
    def norms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids ascending, doc_len int32, norm uint8)."""
        if self._norms is None:
            if os.path.exists(self.norms_path):
                t = _open_parquet(self.norms_path).read(use_threads=False)
                self._norms = (
                    t.column("doc_id").to_numpy().astype(np.int64),
                    t.column("doc_len").to_numpy().astype(np.int32),
                    t.column("norm").to_numpy().astype(np.uint8),
                )
            else:
                z = np.empty(0, dtype=np.int64)
                self._norms = (z, z.astype(np.int32), z.astype(np.uint8))
        return self._norms

    def docvalues(self, field: str) -> np.ndarray:
        """Base numeric doc-values column aligned to norms() doc order
        (int64; Lucene42DocValuesProducer.GetNumeric analog — loaded once
        per (bucket, field) and pinned, the FieldCache pattern). Docs absent
        from the docvalues file read 0, Lucene's missing-value default
        (``NumericDocValues`` returns 0 for docs without a value)."""
        dv = self._dv_cache.get(field)
        if dv is None:
            dv = self._dv_cache[field] = self._load_docvalues(
                field, 0, np.int64)
        return dv

    def binary_docvalues(self, field: str) -> np.ndarray:
        """Base BINARY doc-values column aligned to norms() doc order
        (object array of ``bytes``; ``BinaryDocValues.Get`` analog). Docs
        absent from the docvalues file read ``b""`` — the reference's
        missing-value default (an empty ``BytesRef``). Loaded once per
        (bucket, field) like the numeric path; the values live in the SAME
        per-bucket docvalues parquet, just as a binary-typed column
        (Lucene42DocValuesConsumer writes BINARY and NUMERIC entries into
        one .dvd file, ``Codecs/Lucene42/Lucene42DocValuesConsumer.cs``)."""
        key = "\x00bin:" + field  # cache namespace apart from numeric
        dv = self._dv_cache.get(key)
        if dv is None:
            dv = self._dv_cache[key] = self._load_docvalues(
                field, b"", object)
        return dv

    def _load_docvalues(self, field: str, missing, dtype) -> np.ndarray:
        """One docvalues column read from the bucket's docvalues file and
        aligned to norms() doc order; docs without a value, or a field the
        file lacks, read ``missing``."""
        doc_ids = self.norms()[0]
        dv = np.full(len(doc_ids), missing, dtype=dtype)
        if not (self.docvalues_path and os.path.exists(self.docvalues_path)):
            return dv
        pf = _open_parquet(self.docvalues_path)
        try:
            md = pf.metadata
            # the field's column, found as TermDict finds ``term``: not
            # through pq.read_schema or md.schema, whose ParquetSchema
            # objects leak native memory
            rg = md.row_group(0) if md.num_row_groups else None
            if rg is None or field not in [rg.column(c).path_in_schema
                                           for c in range(rg.num_columns)]:
                return dv
            t = pf.read(columns=["doc_id", field], use_threads=False)
        finally:
            pf.close()
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        vals = t.column(field).to_numpy(zero_copy_only=False).astype(dtype)
        idx = np.searchsorted(doc_ids, ids)
        ok = (idx < len(doc_ids))
        ok[ok] = doc_ids[idx[ok]] == ids[ok]
        dv[idx[ok]] = vals[ok]
        return dv

    def norm_of_docs(self, docs: np.ndarray) -> np.ndarray:
        doc_ids, _lens, norm = self.norms()
        idx = np.searchsorted(doc_ids, docs)
        return norm[idx]

    @property
    def n_docs(self) -> int:
        return len(self.norms()[0])

    # -- postings ------------------------------------------------------------
    @staticmethod
    def _list_np(t: pa.Table, name: str, i: int, dtype) -> np.ndarray:
        # ListScalar.values → Arrow array → numpy without the per-element
        # as_py() list round-trip (head terms have ~df/128 block entries;
        # as_py() was the chunk-load hot spot)
        v = t.column(name)[i].values
        return v.to_numpy(zero_copy_only=False).astype(dtype, copy=False)

    def _row_to_chunk(self, t: pa.Table, i: int) -> PostingsChunk:
        return PostingsChunk(
            term=t.column("term")[i].as_py(),
            df=t.column("df")[i].as_py(),
            ttf=t.column("ttf")[i].as_py(),
            max_freq=t.column("max_freq")[i].as_py(),
            max_norm=t.column("max_norm")[i].as_py(),
            doc_bytes=t.column("doc_bytes")[i].as_py(),
            freq_bytes=t.column("freq_bytes")[i].as_py(),
            pos_bytes=t.column("pos_bytes")[i].as_py(),
            pay_bytes=(t.column("pay_bytes")[i].as_py()
                       if "pay_bytes" in t.column_names else b""),
            block_last_doc=self._list_np(t, "block_last_doc", i, np.int64),
            block_doc_off=self._list_np(t, "block_doc_off", i, np.int64),
            block_freq_off=self._list_np(t, "block_freq_off", i, np.int64),
            block_max_freq=self._list_np(t, "block_max_freq", i, np.int32),
            block_max_norm=self._list_np(t, "block_max_norm", i, np.int32),
            skip1_last_doc=self._list_np(t, "skip1_last_doc", i, np.int64),
        )

    def _dict(self, path: str) -> TermDict:
        d = self._dicts.get(path)
        if d is None:
            d = self._dicts[path] = TermDict(path)
        return d

    def pin(self) -> int:
        """Read every postings row group of this bucket; returns the number
        of term rows. Builds no ``PostingsChunk``."""
        return sum(len(keys) for f in self.postings_files
                   for keys, _t in self._dict(f).blocks())

    def load_full(self) -> dict[str, PostingsChunk]:
        """term → chunk for every term in this bucket, in file order."""
        out: dict[str, PostingsChunk] = {}
        for f in self.postings_files:
            for keys, t in self._dict(f).blocks():
                for i, term in enumerate(keys.tolist()):
                    c = self._chunk_cache.get(term)
                    if c is None:
                        c = self._chunk_cache[term] = self._row_to_chunk(t, i)
                    out[term] = c
        return out

    _live_cache: tuple[tuple[str, ...], "np.ndarray | None"] | None = None

    def live_mask(self, deleted_terms: tuple[str, ...]) -> np.ndarray | None:
        """Bool[n_docs] live-docs mask resolving tombstone delete-by-term
        entries against this bucket's postings (BufferedUpdatesStream's
        apply-deletes-on-open; SegmentReader.LiveDocs). None = all live.
        Cached per log state — resolved once, reused across queries."""
        if not deleted_terms:
            return None
        if self._live_cache is not None and self._live_cache[0] == deleted_terms:
            return self._live_cache[1]
        live = np.ones(self.n_docs, dtype=bool)
        chunks = self.chunks_for_terms(list(deleted_terms))
        hit = False
        for c in chunks.values():
            live[c.local_ids(self)] = False
            hit = True
        mask = live if hit else None
        self._live_cache = (deleted_terms, mask)
        return mask

    def _bloom_set(self):
        """Lazy-loaded per-bucket FuzzySet sidecar (None when absent —
        filters are optional, exactly BloomFilteringPostingsFormat reading
        a segment with no .blm entry for the field)."""
        if self._bloom_cached is False:
            from lucenenet_ray.index.bloom import load_bloom

            self._bloom_cached = (load_bloom(self.bloom_path)
                                  if self.bloom_path else None)
        return self._bloom_cached

    def chunks_for_terms(self, terms: list[str]) -> dict[str, PostingsChunk]:
        """term → chunk for terms present in this bucket."""
        missing = [t for t in terms if t not in self._chunk_cache]
        if missing:
            # Bloom consult (BloomFilteringPostingsFormat.cs: check the
            # FuzzySet before touching the terms dict): bloom-negative terms
            # are DEFINITELY absent — cache the miss, skip the parquet scan.
            fs = self._bloom_set()
            if fs is not None and missing:
                import numpy as _np

                from lucenenet_ray.index.bloom import murmurhash2_batch

                neg = ~fs.may_contain_hashes(murmurhash2_batch(
                    [m.encode("utf-8") for m in missing]))
                if _np.any(neg):
                    for m, is_neg in zip(missing, neg):
                        if is_neg:
                            self._chunk_cache[m] = None
                    missing = [m for m, is_neg in zip(missing, neg)
                               if not is_neg]
        if missing:
            files: dict[str, list[str]] = {}
            for m in missing:
                f = self._hpart_file.get(term_hpart(m, self.n_hparts))
                if f is not None:
                    files.setdefault(f, []).append(m)
            for f, ts in files.items():
                for term, (t, i) in self._dict(f).find(ts).items():
                    self._chunk_cache[term] = self._row_to_chunk(t, i)
            for m in missing:
                self._chunk_cache.setdefault(m, None)
        return {
            t: self._chunk_cache[t]
            for t in terms
            if self._chunk_cache.get(t) is not None
        }


class IndexReader:
    """Whole-index handle: manifest + collection stats + buckets + term dict."""

    def __init__(self, index_path: str,
                 deletes_path: str | None = None,
                 dv_updates_path: str | None = None):
        self.index_path = index_path
        with open(os.path.join(index_path, "manifest.json")) as f:
            self.manifest = json.load(f)
        check_manifest(self.manifest)
        self.num_docs: int = self.manifest["n_docs"]
        self.sum_total_term_freq: int = self.manifest["sum_total_term_freq"]
        self._buckets: dict[int, BucketData] = {}
        self._termstats_ds = None
        self._ts_dicts: list[TermDict] | None = None
        self._stats_cache: dict[str, tuple[int, int] | None] = {}
        # tombstone deletes (IndexWriter.DeleteDocuments analog, deletes.py):
        # default log location is <index>/deletes; pass an explicit sidecar
        # path to apply deletes without touching a shared index
        from lucenenet_ray.index.deletes import load_deleted_terms

        self.deletes_path = (
            deletes_path if deletes_path is not None
            else os.path.join(index_path, "deletes")
        )
        self.deleted_terms: tuple[str, ...] = load_deleted_terms(self.deletes_path)
        # numeric doc-values update log (UpdateNumericDocValues analog,
        # docvalues.py) — same sidecar-generation model as deletes
        from lucenenet_ray.index.docvalues import load_dv_updates

        self.dv_updates_path = (
            dv_updates_path if dv_updates_path is not None
            else os.path.join(index_path, "dv_updates")
        )
        self.dv_updates: tuple[tuple[str, str, int], ...] = load_dv_updates(
            self.dv_updates_path)
        from lucenenet_ray.index.docvalues import load_dvb_updates

        self.dvb_updates: tuple[tuple[str, str, bytes], ...] = (
            load_dvb_updates(self.dv_updates_path))
        self._dv_resolved: dict[tuple[int, str], tuple] = {}
        self._dvb_resolved: dict[tuple[int, str], tuple] = {}
        self._postings_by_bucket: dict[int, dict[int, str]] | None = None
        self._version = self._stamp()

    def _stamp(self) -> tuple:
        """Read the current commit-point stamp from disk: manifest identity +
        delete/docvalues-update log generations. Cheap: one stat + two dir
        listings."""
        import glob as _glob

        st = os.stat(os.path.join(self.index_path, "manifest.json"))
        dels = tuple(sorted(
            os.path.basename(f) for f in _glob.glob(
                os.path.join(self.deletes_path, "del-*.parquet"))
        )) if os.path.isdir(self.deletes_path) else ()
        dvus = tuple(sorted(
            os.path.basename(f) for f in _glob.glob(
                os.path.join(self.dv_updates_path, "dvu-*.parquet"))
            + [os.path.basename(f) for f in _glob.glob(
                os.path.join(self.dv_updates_path, "dvb-*.parquet"))]
        )) if os.path.isdir(self.dv_updates_path) else ()
        return (st.st_mtime_ns, st.st_size, dels, dvus)

    def version(self) -> tuple:
        """Commit-point stamp AT OPEN TIME (``SegmentInfos.Version`` /
        ``IndexReader.Version`` — DirectoryReader.DoOpenIfChanged compares
        a live stamp against this to decide whether a reopen is needed).
        Fixed for the reader's lifetime, like Lucene's."""
        return self._version

    def term_vector(self, doc_id: int, field: str | None = None):
        """Stored term vector for one doc from the physical termvectors/
        sidecar (TermVectorsReader.Get(doc) analog; requires the index to
        have been built with store_term_vectors). ``field=None`` → body
        terms only; ``field='src'`` → that field's prefixed terms,
        unprefixed in the result. Returns a term-sorted pyarrow table
        (term, freq, positions[, start_offsets]) or None if absent."""
        from lucenenet_ray.index.build import read_term_vector
        from lucenenet_ray.search.query import FIELD_SEP

        t = read_term_vector(self.index_path, doc_id)
        if t is None:
            return None
        import pyarrow.compute as _pc

        has_sep = _pc.match_substring(t.column("term"), FIELD_SEP)
        if field is None:
            t = t.filter(_pc.invert(has_sep))
        else:
            pref = field + FIELD_SEP
            t = t.filter(_pc.starts_with(t.column("term"), pref))
            t = t.set_column(
                t.schema.get_field_index("term"), "term",
                _pc.utf8_slice_codeunits(t.column("term"), len(pref)))
        return t.sort_by("term")

    @property
    def bucket_ids(self) -> list[int]:
        return [b["bucket"] for b in self.manifest["buckets"]]

    def _hpart_files(self, bucket_id: int) -> dict[int, str]:
        """hpart → postings file of one bucket, from ONE listing of the
        postings dir per reader (files of no (bucket, hpart) of this
        manifest's layout are ignored)."""
        if self._postings_by_bucket is None:
            n_hparts = self.manifest["config"]["n_hparts"]
            slot = {postings_file_name(b, h): (b, h)
                    for b in self.bucket_ids for h in range(n_hparts)}
            pdir = os.path.join(self.index_path, "postings")
            self._postings_by_bucket = {}
            for name in (os.listdir(pdir) if os.path.isdir(pdir) else ()):
                if name in slot:
                    b, h = slot[name]
                    self._postings_by_bucket.setdefault(b, {})[h] = \
                        os.path.join(pdir, name)
        return self._postings_by_bucket.get(bucket_id, {})

    def bucket(self, bucket_id: int) -> BucketData:
        bd = self._buckets.get(bucket_id)
        if bd is None:
            bd = BucketData(
                bucket_id,
                os.path.join(self.index_path, "norms", f"bucket={bucket_id:05d}.parquet"),
                self._hpart_files(bucket_id),
                self.manifest["config"]["n_hparts"],
                docvalues_path=os.path.join(
                    self.index_path, "docvalues", f"bucket={bucket_id:05d}.parquet"),
                bloom_path=os.path.join(
                    self.index_path, "bloom", f"bucket={bucket_id:05d}.parquet"),
            )
            self._buckets[bucket_id] = bd
        return bd

    def numeric_docvalues(self, bucket_id: int, field: str) -> np.ndarray:
        """Per-bucket numeric doc-values WITH the update log applied
        (``SegmentReader`` stacking .dvu generations over the base column,
        ``ReaderAndUpdates.cs``): updates resolve (term → matching docs) via
        this bucket's postings and override in generation order — later
        generations win, exactly ``IndexWriter.UpdateNumericDocValues``
        semantics. Resolution is vectorized (one fancy-index per update) and
        the result is cached per (bucket, field, log state)."""
        bd = self.bucket(bucket_id)
        # Keyed by (bucket, field) so expressions binding several dv fields
        # don't evict each other; log state is part of the value for safety.
        key = self.dv_updates
        cached = self._dv_resolved.get((bucket_id, field))
        if cached is not None and cached[0] == key:
            return cached[1]
        vals = bd.docvalues(field)
        relevant = [(t, v) for (t, f, v) in self.dv_updates if f == field]
        if relevant:
            vals = vals.copy()
            chunks = bd.chunks_for_terms([t for t, _ in relevant])
            for term, value in relevant:
                c = chunks.get(term)
                if c is not None:
                    vals[c.local_ids(bd)] = value
        self._dv_resolved[(bucket_id, field)] = (key, vals)
        return vals

    def binary_docvalues(self, bucket_id: int, field: str) -> np.ndarray:
        """Per-bucket BINARY doc-values WITH the dvb update log applied —
        ``IndexWriter.UpdateBinaryDocValues`` resolution
        (``BinaryDocValuesFieldUpdates.cs``; same stacking model as the
        numeric path above): each (term, field, value) generation overrides
        the matching docs' bytes, later generations win. Returns an object
        array of ``bytes`` aligned to the bucket's norms doc order."""
        bd = self.bucket(bucket_id)
        key = self.dvb_updates
        cached = self._dvb_resolved.get((bucket_id, field))
        if cached is not None and cached[0] == key:
            return cached[1]
        vals = bd.binary_docvalues(field)
        relevant = [(t, v) for (t, f, v) in self.dvb_updates if f == field]
        if relevant:
            vals = vals.copy()
            chunks = bd.chunks_for_terms([t for t, _ in relevant])
            for term, value in relevant:
                c = chunks.get(term)
                if c is not None:
                    vals[c.local_ids(bd)] = value
        self._dvb_resolved[(bucket_id, field)] = (key, vals)
        return vals

    # -- global term statistics (IndexSearcher.cs:982-1007) ------------------
    def _termstats(self):
        if self._termstats_ds is None:
            self._termstats_ds = pads.dataset(os.path.join(self.index_path, "termstats"))
        return self._termstats_ds

    def _termstats_dicts(self) -> list[TermDict]:
        """One ``TermDict`` per termstats file (the distributed termstats
        write leaves several)."""
        if self._ts_dicts is None:
            import glob as _glob

            self._ts_dicts = [TermDict(f) for f in sorted(_glob.glob(
                os.path.join(self.index_path, "termstats", "*.parquet")))]
        return self._ts_dicts

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """term → (df, ttf) over the whole index; absent terms omitted
        (df=0 clauses contribute nothing, FIXTURES §4). Cached per reader —
        the IndexSearcher pins its term-dict state across queries
        (SURVEY §2.3)."""
        if not terms:
            return {}
        missing = [t for t in terms if t not in self._stats_cache]
        for d in self._termstats_dicts() if missing else ():
            for term, (t, i) in d.find(missing).items():
                self._stats_cache[term] = (int(t.column("df")[i].as_py()),
                                           int(t.column("ttf")[i].as_py()))
        for m in missing:
            self._stats_cache.setdefault(m, None)
        return {
            t: v for t in terms if (v := self._stats_cache.get(t)) is not None
        }

    def expand_terms(self, predicate, max_expansions: int = 1024) -> list[str]:
        """Generic MultiTermQuery rewrite fallback: all index terms matching a
        Python predicate, in term order (MultiTermQuery.cs:63-196). Full
        dictionary scan — only used for query types without a pushdown plan
        (see ``expand_query`` for the scale path)."""
        out: list[str] = []
        for batch in self._termstats().to_batches(columns=["term"]):
            for term in batch.column("term").to_pylist():
                if predicate(term):
                    out.append(term)
                    if len(out) > max_expansions:
                        raise ValueError("Too many expanded terms (MaxClauseCount)")
        return sorted(out)

    def terms_in_range(self, lower: str | None, upper: str | None,
                       include_lower: bool = True,
                       include_upper: bool = False) -> list[str]:
        """Range scan over the SORTED term dictionary: row-group min/max
        bounds pick the blocks, a ``searchsorted`` the rows — the .tip
        prefix-index analog (BlockTree terms are prefix-sorted for exactly
        this reason, BlockTreeTermsWriter.cs:146-168). Reads only the row
        groups the range touches."""
        return sorted(t for d in self._termstats_dicts()
                      for t in d.terms_between(lower, upper, include_lower,
                                               include_upper))

    def expand_query(self, q) -> list[str]:
        """Type-aware MultiTermQuery rewrite (MultiTermQuery.cs:63-196),
        scale-safe per query family:

        - Prefix/TermRange → pure range scan on the sorted term dict
          (row-group min/max pushdown; touches only matching row groups).
        - Wildcard/Regexp  → range-restrict by the pattern's literal prefix,
          then vectorized/predicate match on the candidate slice.
        - Fuzzy            → utf8_length band filter (|len diff| <= maxEdits)
          then Levenshtein on candidates; keeps the best ``max_expansions``
          by (edit distance, term) — TopTermsScoringBooleanQueryRewrite(50)
          keeps top terms instead of failing (FuzzyQuery.cs:56).

        Boolean/constant-score rewrites raise on > max_expansions
        (BooleanQuery.MaxClauseCount semantics); fuzzy never raises.
        """
        from lucenenet_ray.search.query import (
            FuzzyQuery,
            NumericRangeQuery64,
            PrefixQuery,
            RegexpQuery,
            TermRangeQuery,
            WildcardQuery,
        )

        from lucenenet_ray.search.query import FIELD_SEP

        def qfield(s_):
            return s_.split(FIELD_SEP, 1)[0] if s_ and FIELD_SEP in s_ else None

        def field_filter(terms_, qf):
            # fields share one term dictionary ("F\x1fterm"): an expansion
            # must stay inside its own field — a body prefix scan must not
            # leak "source\x1f..." terms and vice versa (per-field TermsEnum)
            return [t for t in terms_
                    if (t.split(FIELD_SEP, 1)[0] if FIELD_SEP in t else None) == qf]

        if isinstance(q, PrefixQuery):
            out = field_filter(
                self.terms_in_range(q.prefix, _prefix_successor(q.prefix)),
                qfield(q.prefix))
        elif isinstance(q, TermRangeQuery):
            out = field_filter(
                self.terms_in_range(q.lower, q.upper,
                                    q.include_lower, q.include_upper),
                qfield(q.lower if q.lower is not None else q.upper))
        elif isinstance(q, NumericRangeQuery64):
            # NumericRangeQuery.cs:340-379: SplitRange sub-ranges, each a
            # pure range scan on the sorted term dict at one shift level
            # (disjoint: shift byte leads each encoding). Row-group min/max
            # pushdown prunes like any TermRange scan.
            prefix = q.field_name + FIELD_SEP
            out = []
            for lo, hi in q.encoded_ranges():
                out.extend(self.terms_in_range(prefix + lo, prefix + hi,
                                               True, True))
            out = sorted(set(out))
        elif isinstance(q, (WildcardQuery, RegexpQuery)):
            pat = q.pattern
            lit = _literal_prefix(pat, wildcard=isinstance(q, WildcardQuery))
            cand = self.terms_in_range(lit or None,
                                       _prefix_successor(lit) if lit else None)
            out = field_filter([t for t in cand if q.matches_term(t)],
                               qfield(pat))
        elif isinstance(q, FuzzyQuery):
            k = q.max_edits
            lo, hi = max(0, len(q.term) - k), len(q.term) + k
            expr = (pc.utf8_length(pc.field("term")) >= lo) & (
                pc.utf8_length(pc.field("term")) <= hi
            )
            t = self._termstats().to_table(columns=["term"], filter=expr)
            from lucenenet_ray.search.query import _levenshtein_within

            qf = qfield(q.term)
            scored = []
            for term in field_filter(t.column("term").to_pylist(), qf):
                for d in range(k + 1):
                    if _levenshtein_within(term, q.term, d):
                        scored.append((d, term))
                        break
            scored.sort()
            return [term for _, term in scored[: q.max_expansions]]
        else:
            return self.expand_terms(q.matches_term, q.max_expansions)
        if len(out) > q.max_expansions:
            raise ValueError("Too many expanded terms (MaxClauseCount)")
        return out

    def doc_count(self) -> int:
        return self.num_docs


def _prefix_successor(prefix: str) -> str | None:
    """Smallest string greater than every string with this prefix: increment
    the last incrementable code point (skipping the surrogate gap)."""
    for i in range(len(prefix) - 1, -1, -1):
        c = ord(prefix[i])
        if c < 0x10FFFF:
            nc = c + 1
            if 0xD800 <= nc <= 0xDFFF:
                nc = 0xE000
            return prefix[:i] + chr(nc)
    return None


def _literal_prefix(pattern: str, wildcard: bool) -> str:
    """Leading literal chars of a wildcard/regex pattern (for range pruning)."""
    meta = "*?" if wildcard else "\\^$.|?*+()[]{}"
    out = []
    for ch in pattern:
        if ch in meta:
            break
        out.append(ch)
    return "".join(out)
