"""Highlighter + spell-suggest — the Highlighter / Suggest module analogs.

Highlighter (``src/Lucene.Net.Highlighter``, inventoried SURVEY §0): find the
best token window of a document for a set of query terms (the
QueryScorer/SimpleFragmenter behavior in spirit: fragment score = number of
query-term hits in the window) and render it with <b> markers.

Suggest (``src/Lucene.Net.Suggest`` / SpellChecker): candidate corrections for
a term from the index's term dictionary ranked by (edit distance asc, df
desc, term asc) — DirectSpellChecker-style.
"""

from __future__ import annotations

import numpy as np

from lucenenet_ray.analysis.standard import StandardAnalyzer
from lucenenet_ray.search.query import _levenshtein_within


def best_fragment(text: str, query_terms: set[str], window: int = 16,
                  analyzer: StandardAnalyzer | None = None) -> tuple[str, int]:
    """Best `window`-token fragment of `text` for `query_terms` →
    (highlighted fragment, hit count). Hits are wrapped in <b></b>.
    Deterministic: earliest window among ties."""
    analyzer = analyzer or StandardAnalyzer()
    raw_tokens = text.split()  # fragment rendering keeps the raw tokens
    # map query terms to raw-token slots by analyzing each distinct slot
    hit = np.zeros(len(raw_tokens), dtype=np.int32)
    seen: dict[str, bool] = {}  # analyze each distinct raw token once
    for i, rt in enumerate(raw_tokens):
        v = seen.get(rt)
        if v is None:
            t, _p = analyzer(rt)
            v = any(x in query_terms for x in t)
            seen[rt] = v
        hit[i] = v
    if len(raw_tokens) == 0:
        return "", 0
    w = min(window, len(raw_tokens))
    sums = np.convolve(hit, np.ones(w, dtype=np.int32), mode="valid")
    best = int(np.argmax(sums))  # argmax returns FIRST maximum → earliest
    frag = []
    for i in range(best, best + w):
        frag.append(f"<b>{raw_tokens[i]}</b>" if hit[i] else raw_tokens[i])
    return " ".join(frag), int(sums[best])


PASSAGE_WINDOW = 20


def best_passages(reader, terms: list[str], doc_ids, window: int = PASSAGE_WINDOW
                  ) -> dict[int, tuple[int, int]]:
    """PostingsHighlighter analog (``PostingsHighlight/PostingsHighlighter.cs``):
    score passages from the POSTINGS' position streams — no re-analysis of
    stored text. Passages are fixed ``window``-position blocks (a
    deterministic, SQL-expressible stand-in for the BreakIterator sentence
    fragmenter); passage score = number of query-term position hits inside
    the block; best passage per doc = (hits desc, passage asc).

    Returns {doc_id: (passage_idx, n_hits)} for every requested doc that has
    at least one query-term hit. Vectorized per bucket: one
    chunks_for_terms() + fancy-indexed position slices.
    """
    import numpy as np

    want = np.asarray(sorted({int(d) for d in doc_ids}), dtype=np.int64)
    per_doc: dict[int, list[np.ndarray]] = {}
    for bid in reader.bucket_ids:
        bucket = reader.bucket(bid)
        doc_arr, _l, _n = bucket.norms()
        idx = np.searchsorted(doc_arr, want)
        inb = (idx < doc_arr.size)
        inb[inb] = doc_arr[idx[inb]] == want[inb]
        if not inb.any():
            continue
        chunks = bucket.chunks_for_terms(list(terms))
        for c in chunks.values():
            if c is None:
                continue
            rows = c.row_of_local(bucket)
            flat, offs = c.positions_flat()
            for g, li in zip(want[inb], idx[inb]):
                r = int(rows[li])
                if r < 0:
                    continue
                per_doc.setdefault(int(g), []).append(flat[offs[r]:offs[r + 1]])
    best: dict[int, tuple[int, int]] = {}
    for g, plist in per_doc.items():
        allpos = np.concatenate(plist)
        pidx = allpos // window
        u, cnt = np.unique(pidx, return_counts=True)
        j = int(np.lexsort((u, -cnt))[0])
        best[g] = (int(u[j]), int(cnt[j]))
    return best


def suggest_terms(reader, term: str, max_edits: int = 2, k: int = 5
                  ) -> list[tuple[str, int, int]]:
    """Spell suggestions from the term dictionary → [(term, distance, df)]
    ranked by (distance asc, df desc, term asc); the input term itself is
    excluded (DirectSpellChecker behavior).

    Scale path: candidates are prefiltered by a pushed-down utf8_length band
    (|len−len(term)| ≤ max_edits — a Levenshtein necessary condition), so the
    Python distance loop only sees the band, never the full vocabulary
    (DirectSpellChecker walks a Levenshtein automaton for the same reason)."""
    import pyarrow.compute as pc

    lo, hi = max(0, len(term) - max_edits), len(term) + max_edits
    expr = (pc.utf8_length(pc.field("term")) >= lo) & (
        pc.utf8_length(pc.field("term")) <= hi
    )
    from lucenenet_ray.search.query import FIELD_SEP

    t = reader._termstats().to_table(columns=["term", "df"], filter=expr)
    m = pc.invert(pc.match_substring(t.column("term"), FIELD_SEP))
    t = t.filter(m)  # spell-check over the default (body) field only
    cands = t.column("term").to_pylist()
    dfs = t.column("df").to_pylist()
    out = []
    for cand, df in zip(cands, dfs):
        if cand == term:
            continue
        for d in range(1, max_edits + 1):
            if _levenshtein_within(cand, term, d):
                out.append((cand, d, int(df)))
                break
    out.sort(key=lambda x: (x[1], -x[2], x[0]))
    return out[:k]


def classic_best_fragment(text: str, term_weights: dict[str, np.float32],
                          fragment_size: int = 100,
                          analyzer: StandardAnalyzer | None = None
                          ) -> tuple[int, np.float32] | None:
    """Classic Highlighter core (``Highlight/Highlighter.cs``
    GetBestTextFragments + ``SimpleFragmenter.cs:57-63`` +
    ``QueryTermScorer.cs:119-143``): the analyzer's kept-token stream is
    cut into fragments — a new fragment starts at the first token whose
    END char offset reaches ``fragment_size * currentNumFrags`` — and each
    fragment scores the float32 sum of the weights of the UNIQUE query
    terms it contains (first-occurrence accumulation order). Weights are
    the caller's (``QueryTermExtractor.GetIdfWeightedTerms`` boost·idf).

    Returns (fragment_index, score) of the best fragment (score desc,
    earliest on ties), or None when no query term occurs.

    The fragmenter state machine ``k_i = min(k_{i-1}+1, e_i//F + 1)`` has
    the closed form ``k_i = i + 1 + min(0, min_{j<=i}(e_j//F - j))``
    (1-based i), evaluated here as one numpy running-min — the same
    window-function form the SQL oracle uses."""
    analyzer = analyzer or StandardAnalyzer()
    terms, _pos, offs = analyzer.call_with_offsets(text or "")
    if not terms:
        return None
    ends = np.asarray([o + len(t) for o, t in zip(offs, terms)],
                      dtype=np.int64)
    f = ends // int(fragment_size)
    i1 = np.arange(1, len(terms) + 1, dtype=np.int64)
    runmin = np.minimum.accumulate(np.concatenate(([0], f - i1)))
    frag = i1 + runmin[1:]  # 0-based fragment per token
    best: tuple[np.float32, int] | None = None
    score = np.float32(0.0)
    seen: set[str] = set()
    cur = 0
    for t, fr in zip(terms, frag):
        if fr != cur:
            if score > 0 and (best is None or score > best[0]):
                best = (score, cur)
            cur = int(fr)
            score = np.float32(0.0)
            seen = set()
        w = term_weights.get(t)
        if w is not None and t not in seen:
            score = np.float32(score + w)
            seen.add(t)
    if score > 0 and (best is None or score > best[0]):
        best = (score, cur)
    return None if best is None else (best[1], best[0])


def fvh_best_fragment(index_path: str, text: str, doc_id: int,
                      terms: list[str], fragsize: int = 100,
                      tag: str = "b") -> tuple[str, int, int] | None:
    """FastVectorHighlighter analog (``Highlighter/VectorHighlight/``
    FieldTermStack + SimpleFragListBuilder + the fragments builder): the
    hit list comes from the doc's PHYSICAL term vector (positions +
    start offsets stored by the inverter, index/build.py
    _write_term_vector_file) — no re-analysis and no postings traversal,
    which is exactly why the reference requires
    ``FieldType.StoreTermVectorOffsets``.

    Fragments are fixed ``fragsize``-char windows opened greedily at each
    unconsumed hit (SimpleFragListBuilder's margin-less core); the best
    fragment is the one with the most hits (tie: earliest).  Returns
    (rendered fragment with <tag> marks, n_hits, frag_start) or None when
    the doc has no vector / no hits.

    End offsets are start + len(term): the standard chain is
    length-preserving on this corpus (lowercase only); a stemming chain
    would need stored end offsets like the reference's .tvf writes.
    """
    from lucenenet_ray.index.build import read_term_vector

    tv = read_term_vector(index_path, doc_id)
    if tv is None or "start_offsets" not in tv.column_names:
        return None
    want = set(terms)
    hits: list[tuple[int, int]] = []  # (start_char, term_len)
    for term, offs in zip(tv.column("term").to_pylist(),
                          tv.column("start_offsets").to_pylist()):
        if term in want:
            hits.extend((o, len(term)) for o in offs)
    if not hits:
        return None
    hits.sort()
    # greedy windows
    best: tuple[int, int] | None = None  # (-n_hits, start)
    i = 0
    n = len(hits)
    while i < n:
        start = hits[i][0]
        j = i
        while j < n and hits[j][0] + hits[j][1] <= start + fragsize:
            j += 1
        cand = (-(j - i), start)
        if best is None or cand < best:
            best = cand
        i = j if j > i else i + 1
    n_hits, frag_start = -best[0], best[1]
    frag_end = min(len(text), frag_start + fragsize)
    piece = text[frag_start:frag_end]
    # render marks right-to-left so offsets stay valid
    marks = [(o - frag_start, ln) for o, ln in hits
             if frag_start <= o and o + ln <= frag_end]
    for off, ln in sorted(marks, reverse=True):
        piece = (piece[:off] + f"<{tag}>" + piece[off:off + ln]
                 + f"</{tag}>" + piece[off + ln:])
    return piece, n_hits, frag_start


def query_scorer_best_fragment(text: str, phrase_terms: list[str],
                               fragment_size: int = 100,
                               analyzer: StandardAnalyzer | None = None
                               ) -> tuple[int, int, int] | None:
    """QueryScorer + WeightedSpanTermExtractor analog — POSITION-SENSITIVE
    highlighting for phrase queries, the piece QueryTermScorer cannot do.

    Reference semantics re-expressed:
    - a PhraseQuery with slop 0 converts to SpanNearQuery(inOrder, slop=0)
      and its terms become position-sensitive
      (``Highlight/WeightedSpanTermExtractor.cs:139-199`` Extract);
    - span positions are collected from the document's own token stream
      (``:299-305`` GetSpans loop → ``PositionSpan(Start, End-1)``);
    - ``QueryScorer.GetTokenScore`` (``QueryScorer.cs:146-173``) scores a
      token only when the term is in the extracted map AND its position
      falls inside a collected span
      (``WeightedSpanTerm.CheckPosition :49-63``) — a phrase word outside
      any phrase match contributes NOTHING;
    - per fragment, each unique term accumulates once (``foundTerms``),
      fragments cut by the SimpleFragmenter running-min closed form shared
      with :func:`classic_best_fragment`.

    With unit term weights the fragment score is the count of unique
    marked terms — an exact integer, which is what the gate grades.
    Returns ``(best_fragment, n_unique_marked_terms_in_it,
    n_marked_token_occurrences_in_doc)`` or None when the phrase never
    matches."""
    analyzer = analyzer or StandardAnalyzer()
    terms, pos, offs = analyzer.call_with_offsets(text or "")
    if not terms:
        return None
    pos_a = np.asarray(pos, dtype=np.int64)
    L = len(phrase_terms)
    pos_of = {}
    for t, p in zip(terms, pos):
        pos_of.setdefault(t, set()).add(p)
    starts = sorted(pos_of.get(phrase_terms[0], ()))
    spans = [(s, s + L - 1) for s in starts
             if all((s + i) in pos_of.get(phrase_terms[i], ())
                    for i in range(1, L))]
    if not spans:
        return None
    qset = set(phrase_terms)
    marked = np.zeros(len(terms), dtype=bool)
    for j, (t, p) in enumerate(zip(terms, pos)):
        if t in qset and any(s <= p <= e for s, e in spans):
            marked[j] = True
    ends = np.asarray([o + len(t) for o, t in zip(offs, terms)],
                      dtype=np.int64)
    f = ends // int(fragment_size)
    i1 = np.arange(1, len(terms) + 1, dtype=np.int64)
    runmin = np.minimum.accumulate(np.concatenate(([0], f - i1)))
    frag = i1 + runmin[1:]
    best: tuple[int, int] | None = None  # (n_unique, frag) best-first
    seen: set[str] = set()
    cur = 0
    for j, (t, fr) in enumerate(zip(terms, frag)):
        if fr != cur:
            if seen and (best is None or len(seen) > best[0]):
                best = (len(seen), cur)
            cur = int(fr)
            seen = set()
        if marked[j]:
            seen.add(t)
    if seen and (best is None or len(seen) > best[0]):
        best = (len(seen), cur)
    assert best is not None  # spans exist, so some token marked
    return best[1], best[0], int(marked.sum())
