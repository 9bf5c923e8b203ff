"""Randomized postings-codec round-trips (the BasePostingsFormatTestCase
pattern, SURVEY §5.1): encode → decode == identity; block metadata honest."""

import numpy as np
import pytest

from lucenenet_ray.index.codec import (
    BLOCK_SIZE,
    decode_doc_block,
    decode_docs_freqs,
    decode_positions,
    decode_postings,
    encode_postings,
    read_vints,
    write_vints,
)


def _decode(enc, df):
    """A one-term encode's (docs, freqs), through its stored block offsets."""
    return decode_docs_freqs(enc["doc_bytes"], enc["freq_bytes"], df,
                             enc["block_doc_off"], enc["block_freq_off"])


def test_vint_edges():
    for vals in ([0], [127], [128], [16383], [16384], [2**32 - 1], [2**60],
                 list(range(300))):
        v = np.array(vals, dtype=np.uint64)
        assert np.array_equal(read_vints(write_vints(v)), v)


def test_vint_empty():
    assert write_vints(np.empty(0, np.uint64)).size == 0
    assert read_vints(np.empty(0, np.uint8)).size == 0


def test_vint_wire_format_is_lucenes():
    # DataOutput.cs:197-240: low 7 bits first, high bit = continuation
    assert write_vints(np.array([5], np.uint64)).tolist() == [5]
    assert write_vints(np.array([300], np.uint64)).tolist() == [0xAC, 0x02]


@pytest.mark.parametrize("df", [1, 2, 127, 128, 129, 1000, 1300])
def test_roundtrip_structured(df):
    rng = np.random.default_rng(df)
    docs = np.sort(rng.choice(10**12, size=df, replace=False)).astype(np.int64)
    freqs = rng.integers(1, 255, size=df).astype(np.int32)
    norms = rng.integers(0, 256, size=df).astype(np.uint8)
    positions = [
        np.sort(rng.choice(100000, size=f, replace=False)).astype(np.int64)
        for f in freqs
    ]
    enc = encode_postings(docs, freqs, norms, positions)
    got_d, got_f = _decode(enc, df)
    assert np.array_equal(got_d, docs)
    assert np.array_equal(got_f, freqs)
    dec_pos = decode_positions(enc["pos_bytes"], freqs)
    for a, b in zip(dec_pos, positions):
        assert np.array_equal(a, b)
    # block metadata (skip list + block-max, SURVEY §2.5)
    nblocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    assert len(enc["block_last_doc"]) == nblocks
    for bi in range(nblocks):
        lo, hi = bi * BLOCK_SIZE, min(df, (bi + 1) * BLOCK_SIZE)
        assert enc["block_last_doc"][bi] == docs[hi - 1]
        assert enc["block_max_freq"][bi] == freqs[lo:hi].max()
        assert enc["block_max_norm"][bi] == norms[lo:hi].max()
        # independent block decode (skip-in) matches the slice
        blk = decode_doc_block(
            enc["doc_bytes"], bi, df, enc["block_doc_off"], enc["block_last_doc"]
        )
        assert np.array_equal(blk, docs[lo:hi])


def test_random_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(50):
        df = int(rng.integers(1, 700))
        docs = np.sort(rng.choice(10**9, size=df, replace=False)).astype(np.int64)
        freqs = rng.integers(1, 64, size=df).astype(np.int32)
        norms = rng.integers(0, 256, size=df).astype(np.uint8)
        enc = encode_postings(docs, freqs, norms, None)
        got_d, got_f = _decode(enc, df)
        assert np.array_equal(got_d, docs)
        assert np.array_equal(got_f, freqs)


def test_empty_run():
    enc = encode_postings(np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int32),
                          np.empty(0, dtype=np.uint8), None)
    assert enc["doc_bytes"] == b"" and enc["freq_bytes"] == b""
    assert len(enc["block_last_doc"]) == 0
    got_d, got_f = _decode(enc, 0)
    assert got_d.size == 0 and got_f.size == 0


def test_bucket_of_no_overflow():
    """Regression: 60-bit docID spaces must not overflow the bucket formula
    (observed: negative bucket labels at n_buckets=32)."""
    import numpy as np

    from lucenenet_ray.index.build import IndexConfig

    cfg = IndexConfig(index_path="/x", id_min=0, id_max=(1 << 60) - 1,
                      n_buckets=32)
    ids = np.array([0, 1 << 58, 1 << 59, (1 << 60) - 1], dtype=np.int64)
    b = cfg.bucket_of(ids)
    assert b.min() >= 0 and b.max() < 32
    assert b[0] == 0 and b[-1] == 31
    # monotone in doc_id
    rng = np.random.default_rng(1)
    ids2 = np.sort(rng.integers(0, 1 << 60, size=10000))
    b2 = cfg.bucket_of(ids2)
    assert np.all(np.diff(b2) >= 0)
    assert len(np.unique(b2)) == 32


# ---------------------------------------------------------------------------
# FOR codec (bit-packed 128-blocks + freq-parity VInt tail,
# Lucene41PostingsFormat.cs:200-225 / ForUtil.cs:157-244 layout semantics)


def _mk_postings(rng, df, id_space):
    docs = np.sort(rng.choice(id_space, size=df, replace=False)).astype(np.int64)
    freqs = rng.integers(1, 12, size=df).astype(np.int32)
    # bias many freqs to 1 to exercise the parity fold
    freqs[rng.random(df) < 0.6] = 1
    norms = rng.integers(0, 256, size=df).astype(np.uint8)
    return docs, freqs, norms


@pytest.mark.parametrize("df", [1, 5, 127, 128, 129, 300, 1000])
def test_for_roundtrip(df):
    rng = np.random.default_rng(df)
    docs, freqs, norms = _mk_postings(rng, df, 100_000)
    enc = encode_postings(docs, freqs, norms, None)
    got_d, got_f = _decode(enc, df)
    assert np.array_equal(got_d, docs)
    assert np.array_equal(got_f, freqs)


@pytest.mark.parametrize("df", [129, 300, 1000])
def test_for_block_skip_decode(df):
    from lucenenet_ray.index.codec import decode_freq_block

    rng = np.random.default_rng(df + 7)
    docs, freqs, norms = _mk_postings(rng, df, 10_000_000)
    enc = encode_postings(docs, freqs, norms, None)
    nblocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    for bi in range(nblocks):
        lo, hi = bi * BLOCK_SIZE, min((bi + 1) * BLOCK_SIZE, df)
        bd = decode_doc_block(enc["doc_bytes"], bi, df,
                              enc["block_doc_off"], enc["block_last_doc"])
        bf = decode_freq_block(enc["freq_bytes"], enc["doc_bytes"], bi, df,
                               enc["block_freq_off"], enc["block_doc_off"])
        assert np.array_equal(bd, docs[lo:hi]), bi
        assert np.array_equal(bf, freqs[lo:hi]), bi


def _build_skip1(block_last_doc, block_max_freq, block_max_norm):
    """Reference: one term's level-1 entries, one region of SKIP1_FANOUT
    level-0 blocks at a time; none below 2 regions."""
    from lucenenet_ray.index.codec import SKIP1_FANOUT

    nb = len(block_last_doc)
    if nb < 2 * SKIP1_FANOUT:
        return (np.empty(0, np.int64), np.empty(0, np.int32),
                np.empty(0, np.int32))
    starts = range(0, nb, SKIP1_FANOUT)
    return (
        np.array([block_last_doc[min(s + SKIP1_FANOUT, nb) - 1]
                  for s in starts], dtype=np.int64),
        np.array([block_max_freq[s:s + SKIP1_FANOUT].max() for s in starts],
                 dtype=np.int32),
        np.array([block_max_norm[s:s + SKIP1_FANOUT].max() for s in starts],
                 dtype=np.int32))


def test_skip1_level_entries():
    """Level-1 skip entries (MultiLevelSkipListWriter fan-out 128): present
    exactly when df > 128*128 (2+ regions), aggregates equal recomputation
    from level-0, and the two-level block lookup equals the flat one."""
    from lucenenet_ray.index.codec import SKIP1_FANOUT

    rng = np.random.default_rng(5)
    # head term: df spanning > 2 regions, gappy docids
    df = BLOCK_SIZE * SKIP1_FANOUT * 2 + 777
    docs = np.cumsum(rng.integers(1, 4, size=df)).astype(np.int64)
    freqs = rng.integers(1, 9, size=df).astype(np.int32)
    norms = rng.integers(1, 255, size=df).astype(np.uint8)
    enc = encode_postings(docs, freqs, norms, None)
    nb = len(enc["block_last_doc"])
    n1 = (nb + SKIP1_FANOUT - 1) // SKIP1_FANOUT
    assert len(enc["skip1_last_doc"]) == n1
    # aggregates match a recomputation from level-0
    want_last, want_maxf, want_maxn = _build_skip1(
        enc["block_last_doc"], enc["block_max_freq"], enc["block_max_norm"])
    assert np.array_equal(enc["skip1_last_doc"], want_last)
    assert np.array_equal(enc["skip1_max_freq"], want_maxf)
    assert np.array_equal(enc["skip1_max_norm"], want_maxn)
    assert enc["skip1_last_doc"][-1] == docs[-1]
    # small term: no level-1
    enc_small = encode_postings(docs[:BLOCK_SIZE * 4], freqs[:BLOCK_SIZE * 4],
                                norms[:BLOCK_SIZE * 4], None)
    assert len(enc_small["skip1_last_doc"]) == 0


def test_skip_to_blocks_two_level_equals_flat():
    """The level-1 pre-select must pick exactly the blocks the flat
    binary search picks, while examining far fewer level-0 entries."""
    from lucenenet_ray.index.codec import SKIP1_FANOUT
    from lucenenet_ray.search.reader import PostingsChunk
    from lucenenet_ray.search.searcher import SKIP_STATS, _skip_to_blocks

    rng = np.random.default_rng(11)
    df = BLOCK_SIZE * SKIP1_FANOUT * 12 + 13
    docs = np.cumsum(rng.integers(1, 3, size=df)).astype(np.int64)
    freqs = np.ones(df, dtype=np.int32)
    norms = np.ones(df, dtype=np.uint8)
    enc = encode_postings(docs, freqs, norms, None)

    def mk(skip1):
        return PostingsChunk(
            term="t", df=df, ttf=df, max_freq=1, max_norm=1,
            doc_bytes=enc["doc_bytes"], freq_bytes=enc["freq_bytes"],
            pos_bytes=b"",
            block_last_doc=enc["block_last_doc"],
            block_doc_off=enc["block_doc_off"],
            block_freq_off=enc["block_freq_off"],
            block_max_freq=enc["block_max_freq"],
            block_max_norm=enc["block_max_norm"],
            skip1_last_doc=skip1)

    # candidates: a tight cluster + block-boundary docs + out-of-range
    cands = np.unique(np.concatenate([
        docs[1000:1100], enc["block_last_doc"][:3],
        np.array([docs[-1] + 50])]))
    flat = mk(np.empty(0, dtype=np.int64))  # forces the flat path
    nb = len(enc["block_last_doc"])
    want = np.unique(np.searchsorted(enc["block_last_doc"], cands))
    want = want[want < nb]
    before = dict(SKIP_STATS)
    got = _skip_to_blocks(mk(enc["skip1_last_doc"]), cands)
    examined = SKIP_STATS["level0_examined"] - before["level0_examined"]
    total = SKIP_STATS["level0_total"] - before["level0_total"]
    assert np.array_equal(np.asarray(got), want)
    # measured decode-skip reduction: clustered candidates touch few regions
    assert examined <= 3 * SKIP1_FANOUT
    assert examined < total / 10


# ---------------------------------------------------------------------------
# One encoder call over a run of terms (the reducer encodes a whole
# (bucket, hpart) group at once)

RUN_DFS = (1, 127, 128, 129, 256, 257, BLOCK_SIZE * 256, BLOCK_SIZE * 256 + 5)


def _term_slice(enc, t):
    """Term t's part of a run encode, in the one-term result's shape."""
    d0, d1 = enc["doc_offs"][t], enc["doc_offs"][t + 1]
    f0, f1 = enc["freq_offs"][t], enc["freq_offs"][t + 1]
    b0, b1 = enc["block_offs"][t], enc["block_offs"][t + 1]
    s0, s1 = enc["skip1_offs"][t], enc["skip1_offs"][t + 1]
    out = {"doc_bytes": enc["doc_bytes"][d0:d1],
           "freq_bytes": enc["freq_bytes"][f0:f1]}
    for k in ("block_last_doc", "block_doc_off", "block_freq_off",
              "block_max_freq", "block_max_norm"):
        out[k] = enc[k][b0:b1]
    for k in ("skip1_last_doc", "skip1_max_freq", "skip1_max_norm"):
        out[k] = enc[k][s0:s1]
    return out


def test_run_encode_equals_one_term_encodes():
    """Term by term, one call over a run of terms gives exactly what
    one-term calls give: bytes, block and level-1 skip arrays, dtypes; and
    one ``decode_postings`` call gives the run back."""
    rng = np.random.default_rng(17)
    dfs = list(RUN_DFS) + [0, 3]  # an empty term mid-run too
    terms = []
    for i, df in enumerate(dfs):
        docs, freqs, norms = _mk_postings(rng, df, 10**12)
        if i % 3 == 0:
            freqs[rng.random(df) < 0.1] = 0  # doc-length rows hold zeros
        terms.append((docs, freqs, norms))
    enc = encode_postings(np.concatenate([t[0] for t in terms]),
                          np.concatenate([t[1] for t in terms]),
                          np.concatenate([t[2] for t in terms]),
                          None, dfs=dfs)
    assert len(enc["doc_offs"]) == len(dfs) + 1
    # the run decoder inverts the run encoder in one call
    got_docs, got_freqs = decode_postings(
        enc["doc_bytes"], enc["freq_bytes"], enc["doc_offs"],
        enc["freq_offs"], dfs, enc["block_doc_off"], enc["block_freq_off"])
    assert np.array_equal(got_docs, np.concatenate([t[0] for t in terms]))
    assert np.array_equal(got_freqs, np.concatenate([t[1] for t in terms]))
    for t, (docs, freqs, norms) in enumerate(terms):
        one = encode_postings(docs, freqs, norms, None)
        got = _term_slice(enc, t)
        for k, want in got.items():
            if isinstance(want, bytes):
                assert one[k] == want, (t, k)
            else:
                assert one[k].dtype == want.dtype, (t, k)
                assert np.array_equal(one[k], want), (t, k)
        df = len(docs)
        got_d, got_f = _decode(got, df)
        assert np.array_equal(got_d, docs)
        assert np.array_equal(got_f, freqs)
        assert len(got["skip1_last_doc"]) == (
            (len(got["block_last_doc"]) + 127) // 128 if df > BLOCK_SIZE * 255
            else 0)


def _decode_tail_parity_loop(buf, count):
    """Reference: the posting-at-a-time parity-tail decoder."""
    if count == 0:
        return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
    vals = read_vints(buf)
    deltas = np.empty(count, dtype=np.uint64)
    freqs = np.empty(count, dtype=np.uint64)
    i = 0
    for k in range(count):
        if i >= vals.size:
            raise ValueError(
                f"parity tail truncated: {vals.size} values for {count} postings")
        v = int(vals[i])
        i += 1
        deltas[k] = v >> 1
        if v & 1:
            freqs[k] = 1
        else:
            if i >= vals.size:
                raise ValueError("parity tail truncated at freq value")
            freqs[k] = int(vals[i])
            i += 1
    return deltas, freqs


def test_tail_parity_decode_matches_loop_reference():
    """The vectorized parity-tail decoder equals the posting-at-a-time loop
    on encoder tails, whole and truncated at every kind of cut, including
    the exact ValueError a truncated stream raises."""
    from lucenenet_ray.index.codec import _decode_tail_parity

    def run(fn, buf, count):
        try:
            d, f = fn(buf, count)
            return d.tolist(), f.tolist()
        except ValueError as e:
            return str(e)

    rng = np.random.default_rng(23)
    errors = set()
    for _ in range(600):
        df = int(rng.integers(BLOCK_SIZE, BLOCK_SIZE * 3))
        docs, freqs, norms = _mk_postings(rng, df, 10**int(rng.integers(4, 13)))
        freqs[rng.random(df) < 0.1] = 0
        enc = encode_postings(docs, freqs, norms, None)
        tail_off = int(enc["block_doc_off"][-1])
        tail = np.frombuffer(enc["doc_bytes"], dtype=np.uint8)[tail_off:]
        count = df % BLOCK_SIZE
        cut = int(rng.integers(0, tail.size + 1)) if rng.random() < 0.5 \
            else tail.size
        for c in {count, max(count - 1, 0), count + 1}:
            want = run(_decode_tail_parity_loop, tail[:cut], c)
            assert run(_decode_tail_parity, tail[:cut], c) == want
            if isinstance(want, str):
                errors.add(want.split(":")[0])
        if cut == tail.size and count:
            # the tail's first d-gap is from the last doc of the full blocks
            d, f = _decode_tail_parity(tail, count)
            assert np.array_equal(d, np.diff(docs[-count - 1:]))
            assert np.array_equal(f, freqs[-count:])
    # both truncation errors were exercised
    assert {"parity tail truncated",
            "parity tail truncated at freq value"} <= errors


def test_query_decodes_each_tail_only_chunk_once(documents_index, monkeypatch):
    """A term query reads both docs and freqs of every chunk it scores; a
    tail-only ``for`` chunk carries both in its parity tail, so the tail is
    decoded once per chunk, not once per list."""
    import lucenenet_ray.index.codec as codec_mod
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search

    calls = []
    real = codec_mod._decode_tail_parity

    def counting(buf, count):
        calls.append(count)
        return real(buf, count)

    monkeypatch.setattr(codec_mod, "_decode_tail_parity", counting)
    reader = IndexReader(documents_index[0])
    chunks = [reader.bucket(b).chunks_for_terms(["spark"]).get("spark")
              for b in reader.bucket_ids]
    chunks = [c for c in chunks if c is not None]
    assert chunks and all(c.df < BLOCK_SIZE for c in chunks)
    assert not calls
    assert search(reader, parse_query("spark"), k=10).total_hits == sum(
        c.df for c in chunks)
    assert sorted(calls) == sorted(c.df for c in chunks)
    for c in chunks:
        got_d, got_f = decode_docs_freqs(c.doc_bytes, c.freq_bytes, c.df,
                                         c.block_doc_off, c.block_freq_off)
        assert np.array_equal(c.docs(), got_d)
        assert np.array_equal(c.freqs(), got_f)
