"""Seeded input generators: page corpora, the query mix and the update script.

Every input the engine sees comes from here, as a pure function of a seed.
Pages are HTML whose extracted body is known by construction: the generator
lays the page's words out in markup that exercises the DemoHTMLParser rules
the extractor implements (style/script suppression, ``<img alt>`` -> ``[alt]``,
unclosed ``<li>``, ``<br>``, uppercase tag names, text before ``<body>``), and
keeps the words themselves as the golden token list. Words are letters only,
never stopwords, and every page is tagged ``en`` (a chain that lowercases and
drops stopwords but does not stem), so the reference tokens of a page are its
golden words, lowercased, at consecutive positions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

# Lucene's English stop set; the generator never emits these words.
STOP_WORDS = frozenset(
    "a an and are as at be but by for if in into is it no not of on or such "
    "that the their then there these they this to was will with".split())
ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Latin letters whose lower/upper case round-trip one-to-one.
LATIN_LETTERS = "éèêñüöäåøçàâíóúô"
BASE_TS_US = 1_700_000_000_000_000
LANG = "en"

_WRAPPERS = ("p", "div", "h2", "blockquote", "pre")


def make_vocab(rng: np.random.Generator, n: int, min_len: int = 4,
               max_len: int = 10, non_ascii_share: float = 0.0) -> list[str]:
    """``n`` distinct lowercase letter-only words, none a stopword; about
    ``non_ascii_share`` of them carry one Latin letter outside ASCII."""
    words: list[str] = []
    seen: set[str] = set()
    letters = np.array(list(ASCII_LETTERS))
    latin = np.array(list(LATIN_LETTERS))
    while len(words) < n:
        m = n - len(words)
        lens = rng.integers(min_len, max_len + 1, size=m)
        chars = rng.choice(letters, size=(m, max_len))
        latin_mask = rng.random(m) < non_ascii_share
        latin_pos = rng.integers(0, min_len, size=m)
        latin_ch = rng.choice(latin, size=m)
        for i in range(m):
            w = chars[i, : lens[i]].copy()
            if latin_mask[i]:
                w[latin_pos[i]] = latin_ch[i]
            s = "".join(w)
            if s in seen or s in STOP_WORDS:
                continue
            seen.add(s)
            words.append(s)
    return words


def doc_id_of(url: str) -> int:
    """The engine's documented docID rule: the first 60 bits of md5(url)."""
    return int(hashlib.md5(url.encode("utf-8")).hexdigest()[:15], 16)


def _display(rng: np.random.Generator, words: list[str]) -> list[str]:
    """Mixed-case display forms (the analyzer lowercases them back)."""
    r = rng.random(len(words))
    out = []
    for w, x in zip(words, r):
        if x < 0.06:
            out.append(w[0].upper() + w[1:])
        elif x < 0.07:
            out.append(w.upper())
        else:
            out.append(w)
    return out


def render_html(rng: np.random.Generator, words: list[str],
                title: list[str]) -> str:
    """HTML whose extracted body holds exactly ``words`` in order."""
    shown = _display(rng, words)
    upper = rng.random() < 1 / 17
    lead_in = rng.random() < 1 / 19 and len(shown) > 4

    def t(name: str) -> str:
        return name.upper() if upper else name

    html = ["<html>"]
    i = 0
    if lead_in:
        # text before <body>: the parser opens the body implicitly
        html.append(" ".join(shown[:2]) + " ")
        i = 2
    else:
        html.append(f"<{t('head')}><{t('title')}>{' '.join(title)}"
                    f"</{t('title')}>")
        html.append(f'<{t("meta")} name="lang" content="{LANG}">')
        html.append(f"</{t('head')}><{t('body')}>")
    n = len(shown)
    alt = None
    if n - i >= 2 and rng.random() < 0.2:
        alt = shown[n - 1]  # the last word travels as <img alt>
        n -= 1
    chunk = int(rng.integers(6, 15))
    while i < n:
        ws = shown[i: min(n, i + chunk)]
        i += len(ws)
        kind = int(rng.integers(0, 10))
        half = max(1, len(ws) // 2)
        a, b = " ".join(ws[:half]), " ".join(ws[half:])
        if kind < 5 or not b:
            w = _WRAPPERS[int(rng.integers(0, len(_WRAPPERS)))]
            html.append(f"<{t(w)}>{' '.join(ws)}</{t(w)}>")
        elif kind < 7:
            # unclosed <li> items: the second <li> closes the first
            html.append(f"<{t('ul')}><{t('li')}>{a}<{t('li')}>{b}</{t('ul')}>")
        elif kind == 7:
            html.append(f"<{t('div')}>{a}<{t('br')}>{b}</{t('div')}>")
        elif kind == 8:
            html.append(f"<{t('style')}>.c{{color:red}}</{t('style')}>"
                        f"<{t('p')}>{' '.join(ws)}</{t('p')}>")
        else:
            html.append(f"<{t('script')}>var x = 1;</{t('script')}>"
                        f"<{t('p')}>{' '.join(ws)}</{t('p')}>")
    if alt is not None:
        html.append(f'<{t("img")} src="f.png" alt="{alt}">')
    if not lead_in:
        html.append(f"</{t('body')}>")
    html.append("</html>")
    return "".join(html)


@dataclass
class Corpus:
    """A page table plus what the engine should make of it."""

    pages: pa.Table                    # url, warc_ts, html, lang (with dups)
    tokens: dict[int, list[str]]       # docID of each url's newest row -> tokens
    n_dup_rows: int                    # older rows the dedup must drop

    @property
    def n_urls(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CorpusSpec:
    """How a corpus is drawn. ``zipf_s`` None = uniform word choice."""

    n_urls: int
    vocab: int
    zipf_s: float | None
    len_median: float
    len_sigma: float
    len_min: int
    len_max: int
    dup_share: float
    non_ascii_share: float


TEMPLATED = CorpusSpec(n_urls=3000, vocab=30, zipf_s=None, len_median=160,
                       len_sigma=0.25, len_min=60, len_max=400,
                       dup_share=0.03, non_ascii_share=0.0)
ZIPF = CorpusSpec(n_urls=150, vocab=100_000, zipf_s=1.05, len_median=150,
                  len_sigma=0.6, len_min=15, len_max=1500, dup_share=0.03,
                  non_ascii_share=0.03)


class WordSource:
    """Draws words from a seeded vocabulary, uniformly or Zipf-ranked."""

    def __init__(self, rng: np.random.Generator, spec: CorpusSpec):
        self.spec = spec
        self.vocab = make_vocab(rng, spec.vocab,
                                non_ascii_share=spec.non_ascii_share)
        if spec.zipf_s is None:
            self.cdf = None
        else:
            w = 1.0 / np.arange(1, spec.vocab + 1, dtype=np.float64) ** spec.zipf_s
            self.cdf = np.cumsum(w / w.sum())

    def words(self, rng: np.random.Generator, n: int) -> list[str]:
        if self.cdf is None:
            idx = rng.integers(0, len(self.vocab), size=n)
        else:
            idx = np.minimum(np.searchsorted(self.cdf, rng.random(n)),
                             len(self.vocab) - 1)
        v = self.vocab
        return [v[i] for i in idx]

    def lengths(self, rng: np.random.Generator, n: int) -> list[int]:
        """``n`` lognormal page lengths, rescaled so that their sum is the
        distribution's mean times ``n``: the corpus size does not vary with
        the seed, only how it is spread over pages."""
        s = self.spec
        x = rng.lognormal(np.log(s.len_median), s.len_sigma, size=n)
        x *= n * s.len_median * np.exp(s.len_sigma ** 2 / 2) / x.sum()
        return [int(v) for v in np.clip(np.round(x), s.len_min, s.len_max)]

    def page(self, rng: np.random.Generator, length: int) -> tuple[str, list[str]]:
        words = self.words(rng, length)
        return render_html(rng, words, self.words(rng, 3)), words


def make_corpus(seed: int, spec: CorpusSpec, tag: str,
                n_urls: int | None = None) -> Corpus:
    """Seeded pages: ``n_urls`` distinct urls, ``dup_share`` of them with
    one older row (different words), rows shuffled."""
    n_urls = spec.n_urls if n_urls is None else n_urls
    rng = np.random.default_rng([seed, len(tag), *tag.encode()])
    src = WordSource(rng, spec)
    n_dup = int(round(spec.dup_share * n_urls))
    dup_of = set(rng.choice(n_urls, size=n_dup, replace=False).tolist())
    lens = src.lengths(rng, n_urls)
    old_lens = iter(src.lengths(rng, n_dup))
    urls, ts, htmls = [], [], []
    tokens: dict[int, list[str]] = {}
    for i in range(n_urls):
        url = f"https://site{i % 53}.example/{tag}/{seed}/{i}"
        html, words = src.page(rng, lens[i])
        urls.append(url)
        ts.append(BASE_TS_US + i * 1_000_000)
        htmls.append(html.encode("utf-8"))
        tokens[doc_id_of(url)] = words
        if i in dup_of:
            old_html, _ = src.page(rng, next(old_lens))
            urls.append(url)
            ts.append(BASE_TS_US + i * 1_000_000 - 86_400_000_000)
            htmls.append(old_html.encode("utf-8"))
    if len(tokens) != n_urls:
        raise ValueError("docID collision in generated urls")
    order = rng.permutation(len(urls))
    table = pa.table({
        "url": pa.array([urls[j] for j in order], type=pa.string()),
        "warc_ts": pa.array([ts[j] for j in order], type=pa.timestamp("us")),
        "html": pa.array([htmls[j] for j in order], type=pa.binary()),
        "lang": pa.array([LANG] * len(urls), type=pa.string()),
    })
    return Corpus(pages=table, tokens=tokens, n_dup_rows=n_dup)


# -- query mix ---------------------------------------------------------------

QUERY_SHARES = (("or", 0.55), ("and", 0.15), ("phrase", 0.15), ("prefix", 0.15))


@dataclass(frozen=True)
class BenchQuery:
    cls: str            # or | and | phrase | prefix
    text: str           # classic query syntax, as a user would type it
    terms: tuple[str, ...]


def rank_bands(tokens: dict[int, list[str]]) -> tuple[list[str], list[str], list[str]]:
    """Head / mid / tail terms of a corpus by document frequency."""
    df: dict[str, int] = {}
    for toks in tokens.values():
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    ranked = sorted(df, key=lambda t: (-df[t], t))
    h = max(8, len(ranked) // 500)
    m = max(h + 8, len(ranked) // 20)
    return ranked[:h], ranked[h:m], ranked[m:]


def make_queries(seed: int, tokens: dict[int, list[str]], n: int,
                 shares=QUERY_SHARES, or_terms=(1, 5),
                 prefix_len=(2, 3)) -> list[BenchQuery]:
    """``n`` seeded queries over terms that occur in the corpus: OR queries
    of ``or_terms`` terms, ``prefix_len``-letter prefixes."""
    rng = np.random.default_rng([seed, 7])
    head, mid, tail = rank_bands(tokens)
    bands = [b for b in (head, mid, tail) if b]
    band_p = np.array([0.3, 0.4, 0.3][: len(bands)])
    band_p /= band_p.sum()
    docs = [d for d in sorted(tokens) if len(tokens[d]) >= 2]
    vocab = sorted({t for toks in tokens.values() for t in toks})
    counts = [int(round(n * s)) for _, s in shares]
    counts[0] += n - sum(counts)
    out: list[BenchQuery] = []
    for (cls, _), cnt in zip(shares, counts):
        for _ in range(cnt):
            if cls == "or":
                k = int(rng.integers(or_terms[0], or_terms[1] + 1))
                terms: list[str] = []
                while len(terms) < k:
                    band = bands[int(rng.choice(len(bands), p=band_p))]
                    t = band[int(rng.integers(0, len(band)))]
                    if t not in terms:
                        terms.append(t)
                out.append(BenchQuery("or", " ".join(terms), tuple(terms)))
            elif cls == "and":
                while True:
                    toks = tokens[docs[int(rng.integers(0, len(docs)))]]
                    a = toks[int(rng.integers(0, len(toks)))]
                    b = toks[int(rng.integers(0, len(toks)))]
                    if a != b:
                        break
                out.append(BenchQuery("and", f"{a} AND {b}", (a, b)))
            elif cls == "phrase":
                while True:
                    toks = tokens[docs[int(rng.integers(0, len(docs)))]]
                    i = int(rng.integers(0, len(toks) - 1))
                    if toks[i] != toks[i + 1]:
                        break
                a, b = toks[i], toks[i + 1]
                out.append(BenchQuery("phrase", f'"{a} {b}"', (a, b)))
            else:
                while True:
                    w = vocab[int(rng.integers(0, len(vocab)))]
                    p = w[: int(rng.integers(prefix_len[0], prefix_len[1] + 1))]
                    if p.isascii() and len(p) >= prefix_len[0]:
                        break
                out.append(BenchQuery("prefix", f"{p}*", (p,)))
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


# -- update script -----------------------------------------------------------

@dataclass(frozen=True)
class UpdateSpec:
    base_docs: int = 240
    adds: int = 40
    updates: int = 10
    deletes: int = 40
    queries: int = 20


UPDATE = UpdateSpec()
UPDATE_CORPUS = CorpusSpec(n_urls=0, vocab=100_000, zipf_s=1.05, len_median=60,
                           len_sigma=0.5, len_min=10, len_max=400,
                           dup_share=0.0, non_ascii_share=0.03)


@dataclass
class UpdateRound:
    adds: list[tuple[str, str, list[str]]]      # (key, html, tokens)
    updates: list[tuple[str, str, list[str]]]   # existing keys, new pages
    deletes: list[str]                          # existing keys
    queries: list[BenchQuery]


class UpdateScript:
    """The update stream: a base batch, then identical-shape rounds.

    Keys live in a model the script keeps: ``live`` maps each live key to
    its newest tokens. Rounds are drawn lazily and depend only on the seed
    and the round number, never on timing."""

    def __init__(self, seed: int, spec: UpdateSpec = UPDATE):
        self.spec = spec
        self.rng = np.random.default_rng([seed, 11])
        self.src = WordSource(self.rng, UPDATE_CORPUS)
        self.next_key = 0
        self.live: dict[str, list[str]] = {}

    def _pages(self, n: int) -> list[tuple[str, list[str]]]:
        return [self.src.page(self.rng, ln) for ln in self.src.lengths(self.rng, n)]

    def _new(self, n: int) -> list[tuple[str, str, list[str]]]:
        out = []
        for html, words in self._pages(n):
            out.append((f"k{self.next_key:07d}", html, words))
            self.next_key += 1
        return out

    def base(self) -> list[tuple[str, str, list[str]]]:
        docs = self._new(self.spec.base_docs)
        for k, _h, w in docs:
            self.live[k] = w
        return docs

    def next_round(self) -> UpdateRound:
        s, rng = self.spec, self.rng
        adds = self._new(s.adds)
        keys = sorted(self.live)
        pick = rng.choice(len(keys), size=s.updates + s.deletes, replace=False)
        upd_keys = [keys[i] for i in pick[: s.updates]]
        del_keys = [keys[i] for i in pick[s.updates:]]
        updates = [(k, h, w) for k, (h, w) in zip(upd_keys, self._pages(s.updates))]
        for k, _h, w in adds + updates:
            self.live[k] = w
        for k in del_keys:
            del self.live[k]
        live_tokens = {i: self.live[k] for i, k in enumerate(sorted(self.live))}
        shares = (("or", 0.5), ("and", 0.2), ("phrase", 0.15), ("prefix", 0.15))
        queries = make_queries(int(rng.integers(0, 2**31)), live_tokens,
                               s.queries, shares, or_terms=(2, 2),
                               prefix_len=(3, 3))
        return UpdateRound(adds, updates, del_keys, queries)
