"""Bloom-filtering term dictionary (``Lucene.Net.Codecs/Bloom``) as a
per-bucket sidecar, re-expressed for the Ray engine.

Reference semantics matched bit-for-bit (NOT ported):

- ``MurmurHash2.cs:43-106`` — Hash32 with seed 0x9747b28c over the term's
  UTF-8 bytes: little-endian 4-byte words, m=0x5bd1e995, r=24, and the
  port's *arithmetic* right shifts (C# ``int >>``) in the mix/avalanche
  steps. All arithmetic wraps in int32, which numpy's int32 ops reproduce.
- ``FuzzySet.cs`` — bitset sizes are all-ones numbers (2^k - 1) so
  ``hash & bloomSize`` is the modulo (FuzzySet.cs:244); negative hashes are
  flipped with a wrapping ``hash * -1`` (FuzzySet.cs:165-168, int.MinValue
  stays put); ``GetNearestSetSize(n, saturation)`` picks the first usable
  size whose estimated-unique-values-at-saturation exceeds n
  (FuzzySet.cs:126-136); ``Downsize(0.10)`` re-projects set bits into the
  smallest size that keeps saturation <= target (FuzzySet.cs:254-291).
- ``DefaultBloomFilterFactory.cs`` — the set is sized from the segment's
  doc count at 10% saturation, and a filter saturated beyond 0.9 is not
  saved (IsSaturated). ``BloomFilteringPostingsFormat.cs`` consults the
  filter before touching the terms dict; here the consult happens in
  ``BucketData.chunks_for_terms``, skipping the postings term
  dictionary entirely for bloom-negative terms.

Scale note: each bucket's filter is built independently (one Ray task per
bucket, reading ONLY the postings ``term`` column), is a few hundred KB at
10% saturation, and rides along with the bucket at query time — the exact
shape a 256-node serving fleet wants: rare-term queries touch only the
buckets whose filter says maybe.
"""

from __future__ import annotations

import glob as _glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_SEED = np.int32(np.uint32(0x9747B28C).view(np.int32))
_M = np.int32(np.uint32(0x5BD1E995).view(np.int32))
VERSION_CURRENT = 2  # FuzzySet.VERSION_MURMUR2

# FuzzySet._usableBitSetSizes: 30 all-ones sizes 3, 7, ..., 2^31 - 1
USABLE_SIZES: list[int] = []
_s = 1
for _ in range(30):
    _s = (_s << 1) | 1
    USABLE_SIZES.append(_s)


def murmurhash2_batch(terms: list[bytes]) -> np.ndarray:
    """MurmurHash2.Hash32 over many byte strings, vectorized: int32[n].

    Word loop runs over the max term length / 4 with per-row masks — no
    per-term Python in the hot loop.
    """
    n = len(terms)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    maxlen = int(lens.max())
    pad = maxlen + 3
    buf = np.zeros((n, pad), dtype=np.uint8)
    for i, t in enumerate(terms):  # one memcpy per term (setup, not search)
        buf[i, : len(t)] = np.frombuffer(t, dtype=np.uint8)
    with np.errstate(over="ignore"):
        h = (_SEED ^ lens.astype(np.int32)).astype(np.int32)
        len4 = (lens >> 2).astype(np.int64)
        nwords = int(len4.max())
        b = buf.astype(np.int32)
        for w in range(nwords):
            o = w << 2
            k = (b[:, o + 3] << 24) | (b[:, o + 2] << 16) \
                | (b[:, o + 1] << 8) | b[:, o]
            k = (k * _M).astype(np.int32)
            k ^= k >> 24  # arithmetic shift, as the C# port writes it
            k = (k * _M).astype(np.int32)
            active = len4 > w
            h = np.where(active, ((h * _M).astype(np.int32) ^ k), h)
        left = (lens & 3).astype(np.int64)
        lm = (len4 << 2).astype(np.int64)
        rows = np.arange(n)
        t3 = np.where(left >= 3, b[rows, np.maximum(lens - 3, 0)] << 16, 0)
        t2 = np.where(left >= 2, b[rows, np.maximum(lens - 2, 0)] << 8, 0)
        t1 = np.where(left >= 1, b[rows, np.maximum(lens - 1, 0)], 0)
        del lm
        hx = (h ^ t3 ^ t2 ^ t1).astype(np.int32)
        hx = (hx * _M).astype(np.int32)
        h = np.where(left != 0, hx, h).astype(np.int32)
        h ^= h >> 13
        h = (h * _M).astype(np.int32)
        h ^= h >> 15
    return h.astype(np.int32)


def murmurhash2(data: bytes) -> int:
    """Scalar MurmurHash2.Hash32 (query-time single-term path)."""
    return int(murmurhash2_batch([data])[0])


def estimated_unique_values(set_size: int, num_bits: int) -> int:
    """FuzzySet.GetEstimatedNumberUniqueValuesAllowingForCollisions."""
    import math

    saturation = num_bits / float(set_size)
    return int(set_size * -math.log(1 - saturation))


def nearest_set_size(max_values: int, saturation: float) -> int:
    """FuzzySet.GetNearestSetSize(n, desiredSaturation): first usable size
    whose unique-value capacity at that saturation exceeds n (-1 if none)."""
    for t in USABLE_SIZES:
        if estimated_unique_values(t, int(t * saturation)) > max_values:
            return t
    return -1


def _positive(h: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.where(h < 0, (-h).astype(np.int32), h)


class FuzzySet:
    """FixedBitSet + all-ones-mask modulo (FuzzySet.cs)."""

    def __init__(self, bloom_size: int, bits: np.ndarray | None = None):
        self.bloom_size = int(bloom_size)
        nwords = ((self.bloom_size + 1) + 63) >> 6
        self.bits = (bits if bits is not None
                     else np.zeros(nwords, dtype=np.uint64))

    def add_hashes(self, h: np.ndarray) -> None:
        pos = (_positive(h).astype(np.int64) & self.bloom_size)
        np.bitwise_or.at(self.bits, pos >> 6,
                         np.uint64(1) << (pos & 63).astype(np.uint64))

    def may_contain_hashes(self, h: np.ndarray) -> np.ndarray:
        pos = (_positive(h).astype(np.int64) & self.bloom_size)
        word = self.bits[pos >> 6]
        return (word >> (pos & 63).astype(np.uint64)) & np.uint64(1) != 0

    def may_contain(self, term: str) -> bool:
        return bool(self.may_contain_hashes(
            murmurhash2_batch([term.encode("utf-8")]))[0])

    def cardinality(self) -> int:
        return int(np.unpackbits(self.bits.view(np.uint8)).sum())

    def saturation(self) -> float:
        return self.cardinality() / float(self.bloom_size)

    def downsize(self, target_saturation: float) -> "FuzzySet | None":
        """FuzzySet.Downsize: re-project set bits into the smallest usable
        size keeping saturation <= target; None if already over-saturated."""
        num_set = self.cardinality()
        new_size = self.bloom_size
        for t in USABLE_SIZES:
            if num_set / float(t) <= target_saturation:
                new_size = t
                break
        if new_size >= self.bloom_size:
            return None
        out = FuzzySet(new_size)
        set_idx = np.flatnonzero(
            np.unpackbits(self.bits.view(np.uint8), bitorder="little"))
        set_idx = set_idx[set_idx <= self.bloom_size]
        pos = np.unique(set_idx & new_size)
        np.bitwise_or.at(out.bits, pos >> 6,
                         np.uint64(1) << (pos & 63).astype(np.uint64))
        return out


# ---------------------------------------------------------------------------
# sidecar I/O (atomic temp+rename, like every other index artifact)


def _bloom_path(index_path: str, bucket_id: int) -> str:
    return os.path.join(index_path, "bloom", f"bucket={bucket_id:05d}.parquet")


def save_bloom(index_path: str, bucket_id: int, fs: FuzzySet) -> None:
    t = pa.table({
        "version": pa.array([VERSION_CURRENT], type=pa.int32()),
        "bloom_size": pa.array([fs.bloom_size], type=pa.int64()),
        "bits": pa.array([fs.bits.tobytes()], type=pa.large_binary()),
    })
    path = _bloom_path(index_path, bucket_id)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, path)


def load_bloom(path: str) -> FuzzySet | None:
    if not os.path.exists(path):
        return None
    t = pq.read_table(path)
    bits = np.frombuffer(t.column("bits")[0].as_py(), dtype=np.uint64)
    return FuzzySet(int(t.column("bloom_size")[0].as_py()), bits.copy())


def _build_one(index_path: str, bucket_id: int, saturation: float,
               max_saturation: float) -> dict:
    """Build one bucket's filter: distinct terms from the postings `term`
    column only (column-pruned read), sized from the bucket's doc count
    (DefaultBloomFilterFactory.GetSetForField), downsized after fill."""
    files = sorted(_glob.glob(
        os.path.join(index_path, "postings", f"bucket={bucket_id:05d}*.parquet")))
    terms: list[bytes] = []
    for f in files:
        col = pq.read_table(f, columns=["term"]).column("term")
        terms.extend(s.encode("utf-8") for s in col.to_pylist())
    norms = os.path.join(index_path, "norms", f"bucket={bucket_id:05d}.parquet")
    n_docs = pq.ParquetFile(norms).metadata.num_rows if os.path.exists(norms) else len(terms)
    size = nearest_set_size(max(n_docs, 1), saturation)
    if size < 0:
        size = USABLE_SIZES[-1]
    fs = FuzzySet(size)
    fs.add_hashes(murmurhash2_batch(terms))
    smaller = fs.downsize(saturation)
    if smaller is not None:
        fs = smaller
    sat = fs.saturation()
    if sat > max_saturation:  # IsSaturated: not worth saving
        return {"bucket": bucket_id, "saved": False, "saturation": sat}
    save_bloom(index_path, bucket_id, fs)
    return {"bucket": bucket_id, "saved": True, "saturation": sat,
            "bloom_size": fs.bloom_size, "n_terms": len(terms)}


def build_bloom(index_path: str, saturation: float = 0.10,
                max_saturation: float = 0.9,
                parallel: bool = True) -> list[dict]:
    """Write the `bloom/` sidecar for every bucket of an index — one Ray
    task per bucket (embarrassingly parallel; each reads only its own
    postings `term` column). Idempotent: atomic per-bucket replace."""
    import json

    with open(os.path.join(index_path, "manifest.json")) as f:
        buckets = [b["bucket"] for b in json.load(f)["buckets"]]
    if parallel:
        import ray

        fn = ray.remote(num_cpus=1)(_build_one)
        return ray.get([fn.remote(index_path, b, saturation, max_saturation)
                        for b in buckets])
    return [_build_one(index_path, b, saturation, max_saturation)
            for b in buckets]
