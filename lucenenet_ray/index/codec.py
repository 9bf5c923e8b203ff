"""Postings on-disk format: d-gaps in FOR-packed 128-blocks plus a VInt tail,
with 128-block skip/block-max metadata.

Matches the layout *semantics* of Lucene 4.1's postings format
(``src/Lucene.Net/Codecs/Lucene41/Lucene41PostingsFormat.cs:200-225``): docIDs
as d-gaps, block size 128 (``:375``), per-block skip entries carrying the last
doc of the block plus byte offsets (``Lucene41SkipWriter.cs``), augmented with
block-max impact metadata (max termFreq + max norm byte per block) for
lossless block-max pruning — Lucene 4.8 has skip lists but no WAND; the
block-max arrays double as both (SURVEY §2.5).

VInt semantics are Lucene's ``DataOutput.WriteVInt32/64``
(``src/Lucene.Net/Store/DataOutput.cs:197-240``): 7 bits per byte, low group
first, high bit = continuation.

Encode and decode are vectorized numpy with no per-posting Python loop.
``encode_postings`` encodes a whole run of terms (a reducer's (bucket, hpart)
group) in one pass with no per-term loop either: FOR frames are packed once
per bit width, every parity tail goes through one ``write_vints`` call, and
per-term and per-block byte offsets come from the frame sizes and one
terminator scan of the tails. Its cost grows with the postings, as Lucene's
streaming postings writer does, not with the number of terms.

One postings layout, recorded in the manifest as ``config.codec = "for"``
(the per-segment codec-name header of SegmentInfos): full 128-blocks are
bit-packed FOR frames — 1 width byte + w 16-byte bit-planes per block
(plane j = bit j of all 128 values; same size as Lucene's value-major
packing, chosen for vectorized bulk decode) — and the partial tail block is
VInt with Lucene's freq-parity fold: ``(docDelta << 1) | (freq == 1)`` then
the freq only when > 1, interleaved in the DOC stream
(``Lucene41PostingsFormat.cs:200-225``, ``ForUtil.cs:157-244``; semantics
parity, not byte parity). The freq stream holds only full FOR blocks.
Positions and payloads are per-doc self-contained VInt runs — that is what
lets the segment merge and the expunge rewrite move their bytes without
decoding them (build.py _merge_group; a deliberate departure from Lucene's
packed .pos). ``check_manifest`` rejects an index that records another
layout.

The reference's other postings formats (``Codecs/SimpleText`` and
``src/Lucene.Net.Codecs/{Memory,Direct,Sep,IntBlock,Appending,DiskDV}``)
are n/a by design: they are alternate PHYSICAL layouts of the same postings
contract, a debug format or motivated by JVM heap / filesystem constraints
— here the per-bucket Arrow tables cached by ``search/reader.py`` ARE the
RAM-resident (Direct/Memory) form, Parquet files are already append-only
immutable (Appending), and doc values already live as Parquet columns
(DiskDV).
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128  # Lucene41PostingsFormat.cs:375

# Multi-level skip (MultiLevelSkipListWriter.cs fan-out): for small terms
# np.searchsorted(block_last_doc, target) is the skip list — a vectorized
# binary search over the in-memory level-0 entries. For HEAD terms
# (df > BLOCK_SIZE * SKIP1_FANOUT) a stored LEVEL-1 array (one entry per
# SKIP1_FANOUT level-0 blocks: last doc + max freq/norm bounds) lets the
# reader locate candidate REGIONS first and touch only those regions'
# level-0 slices — at 10^9-df terms the level-0 arrays are ~10^7 entries
# and the level-1 pre-select keeps cold lookups from scanning them
# (see search/searcher.py _eval_term_restricted).
SKIP1_FANOUT = 128


def _skip1_runs(blk_last: np.ndarray, blk_maxf: np.ndarray,
                blk_maxn: np.ndarray, block_offs: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Level-1 skip entries of a run of terms whose level-0 entries are
    ``[block_offs[t], block_offs[t+1])``: per SKIP1_FANOUT blocks, (last
    doc, max freq, max norm) → the flat level-1 arrays plus each term's
    level-1 offsets. Only terms with ≥ 2 regions (df > 128²) get entries —
    Lucene's writer likewise only adds a level when it has ≥ 2 entries."""
    nblk = np.diff(block_offs)
    n1 = np.where(nblk >= SKIP1_FANOUT * 2,
                  (nblk + SKIP1_FANOUT - 1) // SKIP1_FANOUT, 0)
    skip1_offs = np.concatenate(([0], np.cumsum(n1))).astype(np.int64)
    head = n1 > 0
    if not head.any():
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int32), skip1_offs)
    # compress to the head terms' blocks, so the regions tile the arrays
    # and one reduceat per array takes every region's maximum
    in_head = np.repeat(head, nblk)
    hblk = nblk[head]
    hoffs = np.concatenate(([0], np.cumsum(hblk)))
    r_term = np.repeat(np.arange(hblk.size), n1[head])
    r_k = np.arange(r_term.size) - np.repeat(skip1_offs[:-1][head], n1[head])
    r_start = hoffs[r_term] + r_k * SKIP1_FANOUT
    r_end = np.minimum(r_start + SKIP1_FANOUT, hoffs[r_term + 1])
    return (
        blk_last[in_head][r_end - 1].astype(np.int64),
        np.maximum.reduceat(blk_maxf[in_head], r_start).astype(np.int32),
        np.maximum.reduceat(blk_maxn[in_head], r_start).astype(np.int32),
        skip1_offs,
    )


# the manifest's ``config.codec`` of every index this engine writes and reads
FORMAT = "for"


def check_manifest(manifest: dict) -> None:
    """Raise ``ValueError`` unless ``manifest`` records this engine's
    postings layout: ``config.codec`` must be ``FORMAT`` (a missing key
    meant the retired plain-VInt layout) and ``config.n_hparts`` must be
    present (it names the per-hpart postings files)."""
    cfg = manifest.get("config", {})
    if cfg.get("codec") != FORMAT:
        raise ValueError(
            f"index manifest config.codec is {cfg.get('codec')!r}; only the "
            f"{FORMAT!r} postings layout can be read")
    if "n_hparts" not in cfg:
        raise ValueError("index manifest has no config.n_hparts; only "
                         "per-hpart postings files can be read")


_PLANE_BYTES = BLOCK_SIZE // 8  # 16 bytes per bit-plane


# 2**j for j < 64: searchsorted(_POW2, v, "right") is v's bit length
_POW2 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _pack_for_frames(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, 128) values → (k full FOR frames back to back, each frame's byte
    size). A frame is a width byte + w bit-PLANES of 16 bytes each — plane j
    holds bit j of all 128 values (LSB-first), w the bit length of the
    block's maximum. The plane layout is this engine's choice (semantics
    parity with Lucene's FOR, not byte parity): it makes bulk decode w
    contiguous unpack/shift passes instead of per-value bit arithmetic.
    Frames of equal width are packed together: one unpackbits/packbits pass
    per width, not one per block."""
    v = np.ascontiguousarray(vals, dtype="<u8")
    k = v.shape[0]
    widths = np.searchsorted(_POW2, v.max(axis=1), side="right") if k \
        else np.empty(0, dtype=np.int64)
    sizes = 1 + widths * _PLANE_BYTES
    offs = np.concatenate(([0], np.cumsum(sizes)))
    out = np.empty(int(offs[-1]), dtype=np.uint8)
    out[offs[:-1]] = widths
    vb = v.view(np.uint8).reshape(k, BLOCK_SIZE, 8)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == w)
        bits = np.unpackbits(vb[sel, :, : (w + 7) // 8], axis=2,
                             bitorder="little")[:, :, :w]  # (s, 128, w)
        planes = np.packbits(bits.transpose(0, 2, 1), axis=2,
                             bitorder="little")  # (s, w, 16)
        nbytes = w * _PLANE_BYTES
        out[(offs[sel] + 1)[:, None] + np.arange(nbytes)] = \
            planes.reshape(sel.size, nbytes)
    return out, sizes


def _frame_nbytes(w):
    """Payload bytes of a FOR frame of width ``w`` (an int or an array)."""
    return w * _PLANE_BYTES


def _planes_to_vals(payload: np.ndarray, k: int, w: int) -> np.ndarray:
    """(k frames × w planes × 16 bytes) → (k, 128) uint64."""
    bits = np.unpackbits(payload.reshape(k * w, _PLANE_BYTES), axis=1,
                         bitorder="little")  # (k*w, 128)
    planes = bits.reshape(k, w, BLOCK_SIZE)
    vals = np.zeros((k, BLOCK_SIZE), dtype=np.uint64)
    for j in range(w):
        vals |= planes[:, j, :].astype(np.uint64) << np.uint64(j)
    return vals


def _unpack_for_block(buf: np.ndarray, off: int) -> tuple[np.ndarray, int]:
    """Decode one FOR frame at byte offset ``off`` → (128 uint64, next off)."""
    w = int(buf[off])
    if w == 0:
        return np.zeros(BLOCK_SIZE, dtype=np.uint64), off + 1
    nbytes = _frame_nbytes(w)
    payload = buf[off + 1 : off + 1 + nbytes]
    return _planes_to_vals(payload, 1, w)[0], off + 1 + nbytes


def _encode_tail_parity(deltas: np.ndarray, freqs: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Freq-parity VInt tail: (delta<<1)|(freq==1), then freq when > 1 —
    interleaved, Lucene41's tail doc-stream layout. Any run of tails
    concatenated encodes in one call. → (stream, byte start of each posting
    plus the stream length)."""
    if deltas.size == 0:
        return np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    one = freqs == 1
    folded = (deltas.astype(np.uint64) << np.uint64(1)) | one.astype(np.uint64)
    vals = np.empty(deltas.size + int((~one).sum()), dtype=np.uint64)
    # interleave: positions of folded deltas account for preceding freqs
    slot = np.arange(deltas.size) + np.concatenate(([0], np.cumsum(~one)[:-1]))
    vals[slot] = folded
    vals[slot[~one] + 1] = freqs[~one].astype(np.uint64)
    stream = write_vints(vals)
    # byte start of every value: one scan for the terminator bytes
    value_start = np.concatenate(([0], np.flatnonzero((stream & 0x80) == 0) + 1))
    return stream, np.append(value_start[slot], stream.size)


def _decode_tail_parity(buf: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """→ (deltas, freqs) of the first ``count`` tail postings in ``buf``.

    A posting is one folded value, plus its freq value when the fold bit is
    0. Every odd value ends a posting (a fold bit of 1, or an odd freq), so
    the stream splits into segments that start at value 0 and after every
    odd value; inside a segment, even offsets are folded deltas and odd
    offsets are freqs."""
    if count == 0:
        return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
    vals = read_vints(buf)  # count + #freq>1 values
    odd = (vals & np.uint64(1)).astype(bool)
    seg_start = np.flatnonzero(np.concatenate(([True], odd[:-1])))
    seg_len = np.diff(np.append(seg_start, vals.size))
    offset = np.arange(vals.size) - np.repeat(seg_start, seg_len)
    folded_at = np.flatnonzero(offset % 2 == 0)
    # only the last posting read can lack its freq value
    last_unpaired = (folded_at.size > 0 and not odd[folded_at[-1]]
                     and folded_at[-1] + 1 >= vals.size)
    if last_unpaired and folded_at.size <= count:
        raise ValueError("parity tail truncated at freq value")
    if folded_at.size < count:
        raise ValueError(
            f"parity tail truncated: {vals.size} values for {count} postings")
    folded_at = folded_at[:count]
    one = odd[folded_at]
    freqs = np.ones(count, dtype=np.uint64)
    freqs[~one] = vals[folded_at[~one] + 1]
    return vals[folded_at] >> np.uint64(1), freqs


def write_vints(values: np.ndarray) -> np.ndarray:
    """Vectorized VInt encode of a uint64 array → uint8 byte stream."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8)
    # 7-bit groups per value (≥1), by repeated shifting (≤10 rounds for 64-bit)
    ngroups = np.ones(v.shape, dtype=np.int64)
    shifted = v >> np.uint64(7)
    while np.any(shifted > 0):
        ngroups += (shifted > 0).astype(np.int64)
        shifted >>= np.uint64(7)
    total = int(ngroups.sum())
    out = np.empty(total, dtype=np.uint8)
    # byte positions: for each value, its groups start at cumsum
    starts = np.concatenate(([0], np.cumsum(ngroups)[:-1]))
    # write group g of each value that has > g groups
    max_g = int(ngroups.max())
    for g in range(max_g):
        mask = ngroups > g
        vals = (v[mask] >> np.uint64(7 * g)) & np.uint64(0x7F)
        cont = (ngroups[mask] - 1) > g
        out[starts[mask] + g] = (vals | (cont.astype(np.uint64) << np.uint64(7))).astype(
            np.uint8
        )
    return out


def read_vints(buf: np.ndarray, count: int | None = None) -> np.ndarray:
    """Vectorized VInt decode of a uint8 byte stream → uint64 array."""
    b = np.asarray(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    if count is not None and count == b.size and not (b & 0x80).any():
        # all values single-byte (the common case for freq streams):
        # one cast instead of the terminator-scan decode
        return b.astype(np.uint64)
    ends = np.flatnonzero((b & 0x80) == 0)  # terminator bytes
    n = ends.size
    if count is not None and n != count:
        raise ValueError(f"VInt stream had {n} values, expected {count}")
    if n == 0:
        raise ValueError("VInt stream holds no complete value")
    # byte i carries 7 bits at 7 × (its index within its value); one OR per
    # value over its bytes, with no pass per byte position
    starts = np.concatenate(([0], ends[:-1] + 1))
    used = int(ends[-1]) + 1
    shift = (np.arange(used) - np.repeat(starts, ends - starts + 1)) * 7
    groups = (b[:used] & 0x7F).astype(np.uint64) << shift.astype(np.uint64)
    return np.bitwise_or.reduceat(groups, starts)


def _grouped_take(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized concat of aranges: [starts[i] .. starts[i]+lengths[i]) ."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifted = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - shifted, lengths)


def _run_blocks(dfs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Block layout of a run of terms with ``dfs`` postings each: BLOCK_SIZE
    postings per block, a term's last block partial → (per-term posting
    offsets, per-term block offsets, and per block: its term, its first
    posting, its posting count)."""
    post_offs = np.concatenate(([0], np.cumsum(dfs))).astype(np.int64)
    nblk = (dfs + BLOCK_SIZE - 1) // BLOCK_SIZE
    block_offs = np.concatenate(([0], np.cumsum(nblk))).astype(np.int64)
    blk_term = np.repeat(np.arange(dfs.size), nblk)
    blk_k = np.arange(blk_term.size) - block_offs[:-1][blk_term]
    blk_start = post_offs[:-1][blk_term] + blk_k * BLOCK_SIZE
    blk_len = np.minimum(BLOCK_SIZE, dfs[blk_term] - blk_k * BLOCK_SIZE)
    return post_offs, block_offs, blk_term, blk_start, blk_len


def encode_postings(
    docs: np.ndarray,
    freqs: np.ndarray,
    norms: np.ndarray,
    positions: list[np.ndarray] | None = None,
    dfs: np.ndarray | None = None,
) -> dict:
    """Encode a run of terms' postings in one vectorized pass.

    ``docs``/``freqs``/``norms`` are flat and sorted by (term, doc); term t
    holds the next ``dfs[t]`` postings (``dfs=None``: one term holds them
    all, docs ascending and unique). Every term's streams start afresh —
    its first d-gap is its absolute first doc — so term t's bytes are
    exactly what a run of that term alone encodes.

    Returns a dict of the terms' buffers back to back, with per-term offsets:
      doc_bytes / freq_bytes — term t's are bytes [doc_offs[t], doc_offs[t+1])
                     and [freq_offs[t], freq_offs[t+1]); FOR frames and
                     parity tails
      pos_bytes    — VInt per-doc delta-encoded positions (concatenated;
                     per-doc counts == freqs), empty if positions is None
      block_last_doc / block_doc_off / block_freq_off — one entry per
                     BLOCK_SIZE postings of a term (the skip list, SURVEY
                     §2.5); term t's are [block_offs[t], block_offs[t+1]),
                     byte offsets relative to the term's own streams
      block_max_freq / block_max_norm — block-max impact bounds
      skip1_last_doc / skip1_max_freq / skip1_max_norm — level-1 entries of
                     head terms, term t's at [skip1_offs[t], skip1_offs[t+1])
    """
    docs = np.asarray(docs, dtype=np.int64)
    freqs = np.asarray(freqs, dtype=np.int32)
    norms = np.asarray(norms, dtype=np.uint8)
    n = docs.size
    dfs = np.array([n] if dfs is None else dfs, dtype=np.int64)
    post_offs, block_offs, blk_term, blk_start, blk_len = _run_blocks(dfs)
    deltas = np.empty(n, dtype=np.uint64)
    if n:
        np.subtract(docs[1:], docs[:-1], out=deltas[1:], casting="unsafe")
        first = post_offs[:-1][dfs > 0]
        deltas[first] = docs[first]

    doc_bytes, doc_sizes, freq_bytes, freq_sizes = _for_streams(
        deltas, freqs, blk_start, blk_len)
    doc_starts = np.concatenate(([0], np.cumsum(doc_sizes)))
    freq_starts = np.concatenate(([0], np.cumsum(freq_sizes)))
    doc_offs, freq_offs = doc_starts[block_offs], freq_starts[block_offs]
    blk_doc_off = doc_starts[:-1] - doc_offs[blk_term]
    blk_frq_off = freq_starts[:-1] - freq_offs[blk_term]

    if positions is not None and len(positions):
        # per-doc position deltas (first delta is the absolute first position)
        flat = np.concatenate(positions).astype(np.int64)
        lens = np.fromiter(map(len, positions), dtype=np.int64,
                           count=len(positions))
        dl = np.diff(flat, prepend=0)
        doc_first = np.concatenate(([0], np.cumsum(lens)[:-1]))[lens > 0]
        dl[doc_first] = flat[doc_first]
        pos_bytes = write_vints(dl.astype(np.uint64))
    else:
        pos_bytes = np.empty(0, dtype=np.uint8)

    # block metadata: one reduceat per array over the block starts
    if blk_start.size:
        blk_maxf = np.maximum.reduceat(freqs, blk_start).astype(np.int32)
        blk_maxn = (np.maximum.reduceat(norms, blk_start) if norms.size
                    else np.zeros(blk_start.size, dtype=np.uint8))
    else:
        blk_maxf = np.empty(0, dtype=np.int32)
        blk_maxn = np.empty(0, dtype=np.uint8)
    blk_last = docs[blk_start + blk_len - 1]
    s1_last, s1_maxf, s1_maxn, skip1_offs = _skip1_runs(
        blk_last, blk_maxf, blk_maxn, block_offs)
    return {
        "doc_bytes": doc_bytes.tobytes(),
        "freq_bytes": freq_bytes.tobytes(),
        "pos_bytes": pos_bytes.tobytes(),
        "doc_offs": doc_offs,
        "freq_offs": freq_offs,
        "block_offs": block_offs,
        "block_last_doc": blk_last,
        "block_doc_off": blk_doc_off,
        "block_freq_off": blk_frq_off,
        "block_max_freq": blk_maxf,
        "block_max_norm": blk_maxn,
        "skip1_offs": skip1_offs,
        "skip1_last_doc": s1_last,
        "skip1_max_freq": s1_maxf,
        "skip1_max_norm": s1_maxn,
    }


def _for_streams(deltas: np.ndarray, freqs: np.ndarray,
                 blk_start: np.ndarray, blk_len: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``for`` doc and freq streams of a run of terms, blocks in order →
    (doc stream, each block's doc bytes, freq stream, each block's freq
    bytes). A full block is one FOR frame in each stream; a term's partial
    last block is its parity tail, in the doc stream only."""
    full = blk_len == BLOCK_SIZE
    full_idx = blk_start[full][:, None] + np.arange(BLOCK_SIZE)
    doc_frames, doc_frame_sizes = _pack_for_frames(deltas[full_idx])
    freq_bytes, freq_frame_sizes = _pack_for_frames(
        freqs[full_idx].astype(np.uint64))
    tail_idx = _grouped_take(blk_start[~full], blk_len[~full])
    tails, tail_post_start = _encode_tail_parity(deltas[tail_idx],
                                                 freqs[tail_idx])
    tail_start = tail_post_start[
        np.concatenate(([0], np.cumsum(blk_len[~full])))]
    doc_sizes = np.zeros(blk_len.size, dtype=np.int64)
    doc_sizes[full] = doc_frame_sizes
    doc_sizes[~full] = np.diff(tail_start)
    freq_sizes = np.zeros(blk_len.size, dtype=np.int64)
    freq_sizes[full] = freq_frame_sizes
    # interleave frames and tails in block order: one gather from both
    src = np.concatenate((doc_frames, tails))
    src_start = np.empty(blk_len.size, dtype=np.int64)
    src_start[full] = np.concatenate(([0], np.cumsum(doc_frame_sizes)[:-1]))
    src_start[~full] = doc_frames.size + tail_start[:-1]
    return (src[_grouped_take(src_start, doc_sizes)], doc_sizes,
            freq_bytes, freq_sizes)


def decode_postings(
    doc_bytes: bytes | np.ndarray,
    freq_bytes: bytes | np.ndarray,
    doc_offs: np.ndarray,
    freq_offs: np.ndarray,
    dfs: np.ndarray,
    block_doc_off: np.ndarray,
    block_freq_off: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a run of terms' postings in one vectorized pass — the inverse
    of ``encode_postings`` over a run. Term t's streams are bytes
    [doc_offs[t], doc_offs[t+1]) and [freq_offs[t], freq_offs[t+1]), back to
    back, with the flat per-term-relative block offsets.
    → (docs int64, freqs int32), flat in (term, doc) order. For bulk reads
    (a merge re-reading whole buckets); queries decode one term's chunk,
    or one block of it, with ``decode_docs_freqs``/``decode_doc_block``."""
    db = np.frombuffer(doc_bytes, dtype=np.uint8)
    fb = np.frombuffer(freq_bytes, dtype=np.uint8)
    dfs = np.asarray(dfs, dtype=np.int64)
    doc_offs = np.asarray(doc_offs, dtype=np.int64)
    freq_offs = np.asarray(freq_offs, dtype=np.int64)
    post_offs, _, blk_term, blk_start, blk_len = _run_blocks(dfs)
    n = int(post_offs[-1])
    if len(block_doc_off) != blk_term.size \
            or len(block_freq_off) != blk_term.size:
        raise ValueError(f"postings need {blk_term.size} block offsets per "
                         "stream")
    # absolute byte offset of every block in the run's streams
    blk_doc = doc_offs[blk_term] + np.asarray(block_doc_off, dtype=np.int64)
    blk_freq = freq_offs[blk_term] + np.asarray(block_freq_off, dtype=np.int64)
    deltas = np.empty(n, dtype=np.uint64)
    freqs = np.empty(n, dtype=np.uint64)
    full = blk_len == BLOCK_SIZE
    n_full = int(full.sum())
    if n_full:
        vals = np.empty(n_full * BLOCK_SIZE, dtype=np.uint64)
        at = (blk_start[full][:, None] + np.arange(BLOCK_SIZE)).ravel()
        _unpack_for_stream(db, vals, blk_doc[full])
        deltas[at] = vals
        _unpack_for_stream(fb, vals, blk_freq[full])
        freqs[at] = vals
    if n_full < blk_len.size:
        # every tail ends its term's doc stream; tails back to back are
        # one parity stream (each holds whole postings)
        t_start = blk_doc[~full]
        t_end = doc_offs[blk_term[~full] + 1]
        tails = db[_grouped_take(t_start, t_end - t_start)]
        at = _grouped_take(blk_start[~full], blk_len[~full])
        deltas[at], freqs[at] = _decode_tail_parity(tails, at.size)
    # each term's first d-gap is its absolute first doc
    c = np.cumsum(deltas.astype(np.int64))
    nonempty = dfs > 0
    base = (c - deltas.astype(np.int64))[post_offs[:-1][nonempty]]
    return c - np.repeat(base, dfs[nonempty]), freqs.astype(np.int32)


def _unpack_for_stream(buf: np.ndarray, out: np.ndarray,
                       offs: np.ndarray) -> None:
    """Vectorized multi-frame unpack of the FOR frames that start at byte
    offsets ``offs``: frames grouped by width so each width costs ONE
    unpackbits pass (≤64 groups), not one numpy call per block. Fills
    out[: len(offs)*BLOCK_SIZE]."""
    offs = np.asarray(offs, dtype=np.int64)
    widths = buf[offs].astype(np.int64)
    ov = out[: offs.size * BLOCK_SIZE].reshape(offs.size, BLOCK_SIZE)
    for w in np.unique(widths):
        w = int(w)
        sel = np.flatnonzero(widths == w)
        if w == 0:
            ov[sel] = 0
            continue
        nbytes = _frame_nbytes(w)
        take = (offs[sel][:, None] + 1 + np.arange(nbytes)).ravel()
        ov[sel] = _planes_to_vals(buf[take], len(sel), w)


def decode_docs_freqs(doc_bytes: bytes, freq_bytes: bytes, n: int,
                      block_doc_off: np.ndarray, block_freq_off: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """One chunk's ``n`` docIDs (int64 ascending) and freqs (int32), given
    its stored block offsets. The tail carries both (freqs parity-folded
    into the doc stream), so it is decoded once."""
    db = np.frombuffer(doc_bytes, dtype=np.uint8)
    n_full = n // BLOCK_SIZE
    tail = n - n_full * BLOCK_SIZE
    deltas = np.empty(n, dtype=np.uint64)
    freqs = np.empty(n, dtype=np.uint64)
    if n_full:
        _unpack_for_stream(db, deltas, block_doc_off[:n_full])
        _unpack_for_stream(np.frombuffer(freq_bytes, dtype=np.uint8), freqs,
                           block_freq_off[:n_full])
    if tail:
        deltas[n_full * BLOCK_SIZE:], freqs[n_full * BLOCK_SIZE:] = \
            _decode_tail_parity(db[int(block_doc_off[n_full]):], tail)
    return np.cumsum(deltas.astype(np.int64)), freqs.astype(np.int32)


def decode_vint_runs(buf: bytes, freqs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Decode per-doc VInt delta runs (positions, or the payloads parallel
    to them: ``freqs[i]`` values for doc i, each run delta-coded from 0) →
    (flat absolute values int64, per-doc offsets of ``len(freqs) + 1``):
    one VInt decode and one segmented cumsum over every doc's run."""
    freqs = np.asarray(freqs, dtype=np.int64)
    offs = np.zeros(freqs.size + 1, dtype=np.int64)
    np.cumsum(freqs, out=offs[1:])
    deltas = read_vints(np.frombuffer(buf, dtype=np.uint8),
                        int(offs[-1])).astype(np.int64)
    c = np.cumsum(deltas)
    nonempty = freqs > 0
    starts = offs[:-1][nonempty]
    return c - np.repeat(c[starts] - deltas[starts], freqs[nonempty]), offs


def decode_positions(pos_bytes: bytes, freqs: np.ndarray) -> list[np.ndarray]:
    """Decode per-doc positions (delta-encoded per doc) → one array per
    doc: ``decode_vint_runs``, then split."""
    flat, offs = decode_vint_runs(pos_bytes, freqs)
    return [flat[a:b] for a, b in zip(offs[:-1].tolist(), offs[1:].tolist())]


def decode_doc_block(
    doc_bytes: bytes,
    block_idx: int,
    n_postings: int,
    block_doc_off: np.ndarray,
    block_last_doc: np.ndarray,
) -> np.ndarray:
    """Decode one 128-block of docIDs without touching earlier blocks.

    The block's first d-gap is relative to the previous block's last doc
    (carried in ``block_last_doc``) — this is what makes skip-in possible,
    mirroring Lucene's skip entries storing file pointers + last doc
    (``Lucene41SkipWriter.cs``).
    """
    buf = np.frombuffer(doc_bytes, dtype=np.uint8)
    start = int(block_doc_off[block_idx])
    count = min(BLOCK_SIZE, n_postings - block_idx * BLOCK_SIZE)
    if count == BLOCK_SIZE:
        deltas = _unpack_for_block(buf, start)[0].astype(np.int64)
    else:  # parity tail
        deltas = _decode_tail_parity(buf[start:], count)[0].astype(np.int64)
    base = int(block_last_doc[block_idx - 1]) if block_idx > 0 else 0
    return base + np.cumsum(deltas)


def decode_freq_block(
    freq_bytes: bytes,
    doc_bytes: bytes,
    block_idx: int,
    n_postings: int,
    block_freq_off: np.ndarray,
    block_doc_off: np.ndarray,
) -> np.ndarray:
    """Decode one 128-block of freqs (skip-in). Tail freqs come from the
    doc stream's parity fold."""
    count = min(BLOCK_SIZE, n_postings - block_idx * BLOCK_SIZE)
    if count == BLOCK_SIZE:
        fb = np.frombuffer(freq_bytes, dtype=np.uint8)
        return _unpack_for_block(fb, int(block_freq_off[block_idx]))[0].astype(np.int32)
    db = np.frombuffer(doc_bytes, dtype=np.uint8)
    return _decode_tail_parity(
        db[int(block_doc_off[block_idx]):], count)[1].astype(np.int32)
