"""Bloom-filtering term dictionary (index/bloom.py) vs the FuzzySet /
MurmurHash2 contracts in Lucene.Net.Codecs/Bloom."""

import random

import numpy as np
import pytest

M32 = 0xFFFFFFFF


def _asr(x: int, n: int) -> int:
    """int32 arithmetic shift right on a uint32-held value."""
    if x & 0x80000000:
        return ((x >> n) | (M32 << (32 - n))) & M32
    return x >> n


def murmur_ref(data: bytes) -> int:
    """Independent pure-int reimplementation of MurmurHash2.cs Hash32
    (seed 0x9747b28c, the port's arithmetic shifts) for cross-checking."""
    m = 0x5BD1E995
    h = (0x9747B28C ^ len(data)) & M32
    len4 = len(data) >> 2
    for i in range(len4):
        o = i << 2
        k = (data[o + 3] << 24 | data[o + 2] << 16
             | data[o + 1] << 8 | data[o]) & M32
        k = (k * m) & M32
        k ^= _asr(k, 24)
        k = (k * m) & M32
        h = (h * m) & M32
        h ^= k
    left = len(data) & 3
    if left >= 3:
        h ^= (data[len(data) - 3] << 16)
    if left >= 2:
        h ^= (data[len(data) - 2] << 8)
    if left >= 1:
        h ^= data[len(data) - 1]
        h = (h * m) & M32
    h ^= _asr(h, 13)
    h = (h * m) & M32
    h ^= _asr(h, 15)
    return h - 0x100000000 if h >= 0x80000000 else h


def test_murmur_matches_independent_reference():
    from lucenenet_ray.index.bloom import murmurhash2_batch

    rng = random.Random(42)
    samples = [b"", b"a", b"ab", b"abc", b"abcd", b"abcde",
               "führer".encode(), "中文词".encode(), b"spark", b"window"]
    samples += [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 33)))
                for _ in range(200)]
    got = murmurhash2_batch(samples)
    exp = [murmur_ref(s) for s in samples]
    assert got.tolist() == exp


def test_fuzzyset_no_false_negatives_and_downsize():
    from lucenenet_ray.index.bloom import (
        FuzzySet,
        murmurhash2_batch,
        nearest_set_size,
    )

    terms = [f"term{i:05d}".encode() for i in range(5000)]
    size = nearest_set_size(5000, 0.10)
    fs = FuzzySet(size)
    fs.add_hashes(murmurhash2_batch(terms))
    assert fs.may_contain_hashes(murmurhash2_batch(terms)).all()
    small = fs.downsize(0.5)
    if small is not None:
        assert small.bloom_size < fs.bloom_size
        assert small.may_contain_hashes(murmurhash2_batch(terms)).all()
        assert small.saturation() <= 0.5


def test_usable_sizes_are_all_ones():
    from lucenenet_ray.index.bloom import USABLE_SIZES

    assert len(USABLE_SIZES) == 30
    for s in USABLE_SIZES:
        assert (s & (s + 1)) == 0  # 2^k - 1
    assert USABLE_SIZES[0] == 3 and USABLE_SIZES[-1] == 2**31 - 1


@pytest.fixture(scope="module")
def bloomed_index(documents_index):
    from lucenenet_ray.index.bloom import build_bloom

    path, _m = documents_index
    stats = build_bloom(path)
    return path, stats


def test_build_bloom_saves_every_bucket(bloomed_index):
    path, stats = bloomed_index
    assert stats and all(s["saved"] for s in stats)
    assert all(s["saturation"] <= 0.9 for s in stats)


def test_bloom_query_identity_and_scan_skip(bloomed_index, monkeypatch):
    """Search results are bit-identical with the bloom sidecar present, and
    a bloom-negative term never opens a postings file."""
    from lucenenet_ray.search import reader as reader_mod
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search

    path, _stats = bloomed_index
    r = IndexReader(path)
    td = search(r, parse_query("spark window"), k=10)
    r_nobloom = IndexReader(path)
    for b in r_nobloom.bucket_ids:
        r_nobloom.bucket(b).bloom_path = None
    td2 = search(r_nobloom, parse_query("spark window"), k=10)
    assert td.to_list() == td2.to_list()
    assert td.total_hits == td2.total_hits

    # absent term: all bucket lookups resolve via the bloom, zero file scans
    r2 = IndexReader(path)
    for b in r2.bucket_ids:
        r2.bucket(b)._bloom_set()  # preload sidecars before counting
    calls = {"n": 0}
    orig = reader_mod._open_parquet

    def counting(*a, **kw):
        calls["n"] += 1
        return orig(*a, **kw)

    monkeypatch.setattr(reader_mod, "_open_parquet", counting)
    for b in r2.bucket_ids:
        got = r2.bucket(b).chunks_for_terms(["zzzzqqqqxxxx"])
        assert got == {}
    assert calls["n"] == 0


def test_bloom_positive_terms_still_found(bloomed_index):
    from lucenenet_ray.search.reader import IndexReader

    path, _stats = bloomed_index
    r = IndexReader(path)
    found_any = False
    for b in r.bucket_ids:
        got = r.bucket(b).chunks_for_terms(["spark"])
        found_any |= bool(got)
    assert found_any


def test_oversaturated_filter_not_saved(documents_index, tmp_path):
    """IsSaturated > max_saturation → bucket ships without a filter."""
    import os
    import shutil

    from lucenenet_ray.index.bloom import build_bloom

    path, _m = documents_index
    clone = str(tmp_path / "idxclone")
    shutil.copytree(path, clone)
    shutil.rmtree(os.path.join(clone, "bloom"), ignore_errors=True)
    stats = build_bloom(clone, max_saturation=0.0001, parallel=False)
    assert all(not s["saved"] for s in stats)
    assert not os.path.isdir(os.path.join(clone, "bloom"))


def test_commit_snapshots_bloom_sidecar(bloomed_index, tmp_path):
    """The bloom/ dir is in _SNAPSHOT_ENTRIES: a commit checkout keeps the
    filter, so a replicated serving node still prunes bucket scans."""
    import os
    import shutil

    from lucenenet_ray.index.commits import commit, open_commit, replicate

    path, _stats = bloomed_index
    view = str(tmp_path / "view")
    shutil.copytree(path, view)
    g = commit(view)
    r = open_commit(view, g)
    assert any(r.bucket(b)._bloom_set() is not None for b in r.bucket_ids)
    tgt = str(tmp_path / "replica")
    replicate(view, g, tgt)
    assert os.path.isdir(os.path.join(tgt, "bloom"))
