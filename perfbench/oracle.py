"""Expected outputs, computed apart from the engine.

Everything here starts from the generator's golden tokens and re-derives
what the engine must return: term statistics, BM25 top-k with Lucene's
float32 arithmetic (k1=1.2, b=0.75, SmallFloat 3-mantissa-bit norm bytes,
clause-order float32 sums, ties broken by docID), phrase frequencies,
prefix hit counts, and the live-document view of an update stream. No
engine module is imported.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter

import numpy as np

K1 = np.float32(1.2)
B = np.float32(0.75)


def norm_byte(length: int) -> int:
    """SmallFloat.floatToByte315(1 / sqrt(length)) with the float32 steps of
    BM25Similarity.encodeNormValue (double sqrt, float division)."""
    f = np.float32(np.float32(1.0) / np.float32(math.sqrt(length)))
    bits = int(np.array([f], dtype=np.float32).view(np.int32)[0])
    small = bits >> 21
    bias = (63 - 15) << 3
    if small <= bias:
        return 0 if bits <= 0 else 1
    if small >= bias + 0x100:
        return 255
    return small - bias


def _norm_table() -> np.ndarray:
    """BM25's decode table: 1 / f^2 of each norm byte's float."""
    out = np.empty(256, dtype=np.float32)
    for b in range(256):
        if b == 0:
            f = np.float32(0.0)
        else:
            bits = np.array([(b << 21) + ((63 - 15) << 24)], dtype=np.int32)
            f = bits.view(np.float32)[0]
        with np.errstate(divide="ignore"):
            out[b] = np.float32(1.0) / np.float32(f * f)
    return out


NORM_TABLE = _norm_table()


class Bm25Oracle:
    """Postings rebuilt from golden tokens, scored with Lucene's BM25."""

    def __init__(self, tokens: dict[int, list[str]]):
        self.tokens = tokens
        self.docs = np.array(sorted(tokens), dtype=np.int64)
        self.n = len(self.docs)
        self.post: dict[str, dict[int, int]] = {}
        for d in self.docs.tolist():
            for t, c in Counter(tokens[d]).items():
                self.post.setdefault(t, {})[d] = c
        total = sum(len(v) for v in tokens.values())
        avgdl = np.float32(total / float(self.n))
        self.norm = {d: norm_byte(len(tokens[d])) for d in self.docs.tolist()}
        self.cache = (K1 * ((np.float32(1) - B) + B * NORM_TABLE / avgdl)
                      ).astype(np.float32)

    def term_stats(self, term: str) -> tuple[int, int]:
        p = self.post.get(term, {})
        return len(p), sum(p.values())

    def idf(self, term: str) -> np.float32:
        df = len(self.post.get(term, {}))
        return np.float32(math.log(1 + (self.n - df + 0.5) / (df + 0.5)))

    def _weight(self, idf: np.float32) -> np.float32:
        return np.float32(np.float32(idf * np.float32(1.0))
                          * np.float32(K1 + np.float32(1.0)))

    def _score(self, w: np.float32, freq: int, doc: int) -> np.float32:
        f = np.float32(freq)
        return np.float32(np.float32(w * f)
                          / np.float32(f + self.cache[self.norm[doc]]))

    def term_scores(self, term: str) -> dict[int, np.float32]:
        p = self.post.get(term)
        if not p:
            return {}
        w = self._weight(self.idf(term))
        return {d: self._score(w, f, d) for d, f in p.items()}

    def phrase_scores(self, a: str, b: str) -> dict[int, np.float32]:
        pa_, pb = self.post.get(a, {}), self.post.get(b, {})
        s = np.float32(0.0)
        for t in (a, b):
            if self.post.get(t):
                s = np.float32(s + self.idf(t))
        w = self._weight(s)
        out = {}
        for d in set(pa_) & set(pb):
            toks = self.tokens[d]
            freq = sum(1 for i in range(len(toks) - 1)
                       if toks[i] == a and toks[i + 1] == b)
            if freq:
                out[d] = self._score(w, freq, d)
        return out

    def matches(self, q) -> dict[int, np.float32]:
        """docID -> float32 score for a generated query."""
        if q.cls == "phrase":
            return self.phrase_scores(*q.terms)
        if q.cls == "prefix":
            hit = set()
            for t, p in self.post.items():
                if t.startswith(q.terms[0]):
                    hit.update(p)
            return {d: np.float32(1.0) for d in hit}
        per = [self.term_scores(t) for t in q.terms]
        if q.cls == "and":
            keep = set(per[0]).intersection(*per[1:])
        else:
            keep = set().union(*per)
        out = {}
        for d in keep:
            acc = np.float32(0.0)
            for sc in per:  # clause order
                if d in sc:
                    acc = np.float32(acc + sc[d])
            out[d] = acc
        return out

    def top_k(self, q, k: int = 10) -> tuple[list[int], list[np.float32], int]:
        m = self.matches(q)
        order = sorted(m, key=lambda d: (-float(m[d]), d))[:k]
        return order, [m[d] for d in order], len(m)


def same_top(expected, docs, scores) -> bool:
    """Docs equal and float32 scores bit-equal."""
    exp_docs, exp_scores = expected[0], expected[1]
    if [int(d) for d in docs] != list(exp_docs):
        return False
    a = np.asarray(scores, dtype=np.float32)
    b = np.asarray(exp_scores, dtype=np.float32)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.int32),
                                                      b.view(np.int32)))


def sample_terms(tokens: dict[int, list[str]], rng: np.random.Generator,
                 per_band: int = 8) -> list[str]:
    """A seeded sample of head, mid and tail terms by document frequency."""
    df = Counter(t for toks in tokens.values() for t in set(toks))
    ranked = sorted(df, key=lambda t: (-df[t], t))
    n = len(ranked)
    bands = (ranked[: max(1, n // 100)], ranked[n // 100: n // 10] or ranked,
             ranked[n // 10:] or ranked)
    out: list[str] = []
    for band in bands:
        k = min(per_band, len(band))
        out.extend(band[i] for i in sorted(rng.choice(len(band), k, replace=False)))
    return sorted(set(out))


def index_digest(index_path: str) -> str:
    """sha256 over the postings and norms files, by name."""
    h = hashlib.sha256()
    for sub in ("postings", "norms"):
        d = os.path.join(index_path, sub)
        for fn in sorted(os.listdir(d)):
            with open(os.path.join(d, fn), "rb") as f:
                h.update(fn.encode())
                h.update(f.read())
    return h.hexdigest()[:16]


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(base, f))
    return total


class LiveModel:
    """What a reader over an update stream must show: writer-assigned dense
    docIDs in add order, the newest docID of every live key, and no
    deleted key."""

    def __init__(self) -> None:
        self.next_id = 0
        self.newest: dict[str, int] = {}
        self.deleted: set[str] = set()

    def commit(self, added_keys: list[str]) -> None:
        """``added_keys``: keys of the buffered docs, in add order."""
        for k in added_keys:
            self.newest[k] = self.next_id
            self.deleted.discard(k)
            self.next_id += 1

    def delete(self, keys: list[str]) -> None:
        for k in keys:
            self.newest.pop(k, None)
            self.deleted.add(k)

    @property
    def live_count(self) -> int:
        return len(self.newest)
