"""DuckDB oracle-SQL generators for the driver correctness gate.

Each generator returns ANSI-ish SQL (DuckDB 1.0) computing the same result as
the corresponding Ray pipeline over the pre-registered testdata views.

The BM25 oracles reproduce the engine's float32 arithmetic BIT-EXACTLY in
SQL: DuckDB's REAL arithmetic is IEEE-754 binary32 with correct rounding
(verified empirically), but its decimal-literal→REAL parse is sloppy — so
every float constant is routed through ``CAST(CAST(x AS DOUBLE) AS REAL)``,
and the SmallFloat norm-byte quantization (SmallSingle.SingleToByte315) is
emulated with exponent/mantissa math on the float32 value (exactly
representable in DOUBLE).  Validated: norm bytes equal for doc lengths
1..10000; the 256-entry cache, idf, avgdl, and the score kernel are bit-equal
to the numpy float32 engine.

Tokenization parity: the documents corpus is single-space-separated lowercase
ASCII (verified), so ``string_split(text, ' ')`` equals the UAX#29 analyzer
output on this corpus; the 33-entry stop set is Lucene's
(StopAnalyzer.cs:44-56).
"""

from __future__ import annotations

from lucenenet_ray.analysis.standard import ENGLISH_STOP_WORDS

STOP_SQL = "(" + ", ".join(f"'{w}'" for w in sorted(ENGLISH_STOP_WORDS)) + ")"

# float32 constants (exact or via double-cast)
_R = "CAST(CAST({v} AS DOUBLE) AS REAL)"
K1_R = _R.format(v="1.2")
B_R = _R.format(v="0.75")
ONE_MINUS_B_R = _R.format(v="0.25")
ZERO_R = "CAST(0.0 AS REAL)"
K1P1_R = f"({K1_R} + CAST(1.0 AS REAL))"  # float32 1.2f + 1f

# ---------------------------------------------------------------------------
# shared CTE fragments over the `documents` view


def _toks_cte(table: str = "documents") -> str:
    return f"""
toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM {table}
),
kept AS (
  SELECT doc_id, term, pos FROM toks
  WHERE term <> '' AND term NOT IN {STOP_SQL}
),
doclen AS (
  SELECT d.doc_id, COALESCE(k.L, 0) AS L
  FROM {table} d
  LEFT JOIN (SELECT doc_id, count(*) AS L FROM kept GROUP BY doc_id) k
    USING (doc_id)
),
coll AS (
  SELECT count(*) AS N, sum(L) AS sumttf FROM doclen
)"""


def _norm_cte(boost_expr: str = "1.0") -> str:
    """Norm CTE with an index-time boost numerator
    (FieldInvertState.Boost baked into the byte:
    SingleToByte315(float32(boost) / float32(sqrt(L)))); the default 1.0
    is the plain unboosted norm used everywhere else."""
    return f"""
normf AS (
  SELECT doc_id, L,
         CASE WHEN L = 0 THEN NULL
              ELSE CAST({boost_expr} AS REAL)
                   / CAST(sqrt(CAST(L AS DOUBLE)) AS REAL)
         END AS f
  FROM doclen
),
normb AS (
  -- SmallSingle.SingleToByte315(1/sqrt(L)): top-11-bit float32 truncation
  SELECT doc_id, L,
         CASE WHEN L = 0 THEN 255
              ELSE GREATEST(1,
                4 * (CAST(floor(log2(f)) AS BIGINT) + 127)
                + CAST(floor((f / power(2.0, floor(log2(f))) - 1.0) * 4.0) AS BIGINT)
                - 384)
         END AS nb
  FROM normf
),
normcache AS (
  -- BM25Similarity cache[b] = k1*((1-b) + b*NORM_TABLE[nb]/avgdl), float32
  SELECT n.doc_id, n.L, n.nb,
    {K1_R} * ({ONE_MINUS_B_R} + {B_R} *
      (CAST(1.0 AS REAL) /
        (CAST((1.0 + CAST((n.nb + 384) % 4 AS DOUBLE)/4.0)
              * power(2.0, CAST(floor((n.nb + 384)/4) AS BIGINT) - 127) AS REAL)
         * CAST((1.0 + CAST((n.nb + 384) % 4 AS DOUBLE)/4.0)
              * power(2.0, CAST(floor((n.nb + 384)/4) AS BIGINT) - 127) AS REAL)))
      / (SELECT CAST(CAST(sumttf AS DOUBLE)/N AS REAL) FROM coll)) AS cache
  FROM normb n
)"""


_NORM_CTE = _norm_cte()


def term_stats_sql() -> str:
    """(term, df, ttf) over documents — mirrors the index's global termstats."""
    return f"""WITH {_toks_cte()}
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM kept GROUP BY term ORDER BY term"""


def collection_stats_sql() -> str:
    return f"""WITH {_toks_cte()}
SELECT N AS n_docs, CAST(sumttf AS BIGINT) AS sum_total_term_freq FROM coll"""


def doc_norms_sql() -> str:
    """(doc_id, doc_len, norm byte) — the index's norms columns."""
    return f"""WITH {_toks_cte()},{_NORM_CTE}
SELECT doc_id, L AS doc_len, nb AS norm FROM normb ORDER BY doc_id"""


def top_terms_sql(n: int = 20) -> str:
    """HighFreqTerms analog (Misc/HighFreqTerms.cs): top-n by df desc."""
    return f"""WITH {_toks_cte()}
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM kept GROUP BY term ORDER BY df DESC, term LIMIT {n}"""


def prefix_df_sql(prefix: str) -> str:
    """PrefixQuery rewrite surface: matching terms with df (term order)."""
    esc = prefix.replace("'", "''")
    return f"""WITH {_toks_cte()}
SELECT term, count(DISTINCT doc_id) AS df FROM kept
WHERE term LIKE '{esc}%' GROUP BY term ORDER BY term"""


def _weights_cte(terms: list[str], boosts: dict[str, float] | None = None) -> str:
    """Per-term float32 weightValue = idf * boost * (k1+1); df over the whole
    corpus. ``boosts`` maps term → query boost (default 1.0; TermWeight.build
    float32 order: (idf * boost) * (k1+1))."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    idf = ("CAST(ln(1 + (CAST((SELECT N FROM coll) AS DOUBLE) - df + 0.5)"
           "/(df + 0.5)) AS REAL)")
    if boosts:
        boost_case = "CASE " + " ".join(
            f"WHEN term = '{t}' THEN {_R.format(v=repr(float(b)))}"
            for t, b in boosts.items()
        ) + f" ELSE CAST(1.0 AS REAL) END"
        wv = f"CAST(CAST({idf} * {boost_case} AS REAL) * {K1P1_R} AS REAL)"
    else:
        wv = f"{idf} * {K1P1_R}"
    return f"""
qstats AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM kept
  WHERE term IN ({terms_sql}) GROUP BY term
),
qweights AS (
  SELECT term, df,
    {idf} AS idf,
    {wv} AS wv
  FROM qstats
)"""


def field_term_lookup_sql(field: str, value: str, k: int = 10) -> str:
    """Keyword-field TermQuery oracle: every doc with {field}={value} scores
    the same omit-norms BM25: wv·f/(f+k1) with f=1 and norm=k1
    (BM25Similarity.cs:265-270 with norms==null). Tie-break doc_id asc."""
    return f"""WITH
fstats AS (
  SELECT count(*) AS df FROM documents WHERE {field} = '{value}'
),
w AS (
  SELECT CAST(CAST(ln(1 + (CAST((SELECT count(*) FROM documents) AS DOUBLE)
          - df + 0.5)/(df + 0.5)) AS REAL) * {K1P1_R} AS REAL) AS wv
  FROM fstats
),
scored AS (
  SELECT d.doc_id,
         ((SELECT wv FROM w) * CAST(1.0 AS REAL))
           / (CAST(1.0 AS REAL) + {K1_R}) AS score
  FROM documents d WHERE d.{field} = '{value}'
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def parallel_fields_bm25_sql(term: str, field: str, value: str,
                             k: int = 10) -> str:
    """ParallelCompositeReader conjunction oracle: MUST body ``term`` +
    MUST keyword ``{field}:{value}`` where each field lives in its OWN
    index (parallel_reader.py). Composition must be score-invariant, so
    the oracle is the plain single-index semantics: float32
    bm25(term) + wv_field·1/(1+k1) (omit-norms keyword clause,
    BM25Similarity.cs:265-270), clause-order f32 add."""
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte([term])},
fw AS (
  SELECT CAST(CAST(ln(1 + (CAST((SELECT count(*) FROM documents) AS DOUBLE)
          - df + 0.5)/(df + 0.5)) AS REAL) * {K1P1_R} AS REAL) AS wv
  FROM (SELECT count(*) AS df FROM documents WHERE {field} = '{value}') s
),
fscore AS (
  SELECT ((SELECT wv FROM fw) * CAST(1.0 AS REAL))
           / (CAST(1.0 AS REAL) + {K1_R}) AS fs
),
tf AS (
  SELECT doc_id, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term = '{term}' GROUP BY doc_id
),
scored AS (
  SELECT tf.doc_id,
         CAST(CAST((w.wv * tf.f) / (tf.f + c.cache) AS REAL)
              + (SELECT fs FROM fscore) AS REAL) AS score
  FROM tf
  JOIN qweights w ON w.term = '{term}'
  JOIN normcache c ON c.doc_id = tf.doc_id
  JOIN documents d ON d.doc_id = tf.doc_id
  WHERE d.{field} = '{value}'
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def bm25_topk_sql(terms: list[str], k: int = 10, mode: str = "or",
                  boosts: dict[str, float] | None = None,
                  deleted_terms: list[str] | None = None,
                  stored_cols: list[str] | None = None,
                  offset: int = 0,
                  restrict_docs_sql: str | None = None,
                  norm_boost_expr: str | None = None) -> str:
    """Full BM25 top-k oracle — float32-bit-identical to the engine.

    mode 'or'  → BooleanQuery of SHOULD TermQuery clauses
    mode 'and' → MUST clauses (doc must contain every term)
    Output: (rank, doc_id, score DOUBLE) ordered by (score desc, doc_id asc)
    — HitQueue tie-break (HitQueue.cs:77-87).

    ``deleted_terms``: tombstone delete-by-term semantics — docs containing
    any of these terms are excluded from the RESULTS, but every statistic
    (df, idf, norms, avgdl) is still computed over the full corpus, exactly
    Lucene's pre-merge liveDocs model (deletes.py).
    """
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    # float32 left-assoc sum in clause order
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"({score_expr} + COALESCE(s{i}, {ZERO_R}))"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}" for i, t in enumerate(terms)
    )
    if mode == "and":
        and_filter = "HAVING count(DISTINCT term) = " + str(len(set(terms)))
    elif mode.startswith("msm"):
        # minimumNumberShouldMatch (MinShouldMatchSumScorer.cs)
        and_filter = "HAVING count(DISTINCT term) >= " + mode[3:]
    else:
        and_filter = ""
    if deleted_terms:
        dead_sql = ", ".join(f"'{t}'" for t in deleted_terms)
        dead_filter = (
            f"\n  WHERE doc_id NOT IN (SELECT DISTINCT doc_id FROM kept"
            f" WHERE term IN ({dead_sql}))"
        )
    else:
        dead_filter = ""
    if restrict_docs_sql:
        # FilteredQuery composition (DocIdSetQuery boost=0.0 → +0.0f is a
        # float32 identity, scores unchanged): restrict RESULTS only; every
        # statistic stays corpus-wide like the engine's filter clause
        kw = "AND" if dead_filter else "WHERE"
        dead_filter += f"\n  {kw} doc_id IN ({restrict_docs_sql})"
    if stored_cols:
        stored_sel = "".join(f", d.{c}" for c in stored_cols)
        stored_join = "JOIN documents d USING (doc_id)"
    else:
        stored_sel = ""
        stored_join = ""
    norm_cte = (_norm_cte(norm_boost_expr) if norm_boost_expr else _NORM_CTE)
    return f"""WITH {_toks_cte()},{norm_cte},{_weights_cte(terms, boosts)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id {and_filter}
),
scored AS (
  SELECT doc_id, {score_expr} AS score FROM agg{dead_filter}
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score{stored_sel}
FROM scored {stored_join} ORDER BY score DESC, doc_id ASC LIMIT {k} OFFSET {offset}"""


def dv_sort_updated_sql(match_term: str, update_term: str, new_value: int,
                        k: int = 20) -> str:
    """Numeric doc-values update + field-sort oracle
    (UpdateNumericDocValues(term, n_chars, v) then
    TopFieldCollector(SortField(n_chars, LONG, reverse=true))): docs
    containing ``update_term`` read the updated value, everything else the
    base n_chars column; matches of ``match_term`` sort by (value desc,
    doc asc)."""
    return f"""WITH {_toks_cte()},
matches AS (
  SELECT DISTINCT doc_id FROM kept WHERE term = '{match_term}'
),
upd AS (
  SELECT DISTINCT doc_id FROM kept WHERE term = '{update_term}'
)
SELECT m.doc_id,
       CASE WHEN u.doc_id IS NOT NULL THEN {new_value}
            ELSE d.n_chars END AS n_chars
FROM matches m
JOIN documents d USING (doc_id)
LEFT JOIN upd u ON u.doc_id = m.doc_id
ORDER BY n_chars DESC, m.doc_id ASC LIMIT {k}"""


def binary_dv_sql(update_term: str = "dup", new_value: str = "<<DUP>>",
                  head_len: int = 12, max_doc: int = 300) -> str:
    """Binary doc-values oracle (BinaryDocValuesField +
    UpdateBinaryDocValues): per-doc hex of the resolved bytes — the
    first-``head_len``-bytes base column unless the doc contains
    ``update_term``, in which case the update generation's payload. The
    corpus is ASCII (module docstring), so substr's character slice equals
    the engine's byte slice."""
    return f"""WITH {_toks_cte()}
SELECT d.doc_id,
       CASE WHEN d.doc_id IN
                 (SELECT DISTINCT doc_id FROM kept WHERE term = '{update_term}')
            THEN hex(encode('{new_value}'))
            ELSE hex(encode(substr(d.text, 1, {head_len}))) END AS head_hex
FROM documents d
WHERE d.doc_id < {max_doc}
ORDER BY d.doc_id"""


def multi_field_sort_sql(match_term: str = "spark", k: int = 25) -> str:
    """Compound Sort(SortField[]) oracle: matches order by
    (n_chars // 100 DESC, n_chars % 10 ASC, doc ASC)."""
    return f"""WITH {_toks_cte()},
matches AS (
  SELECT DISTINCT doc_id FROM kept WHERE term = '{match_term}'
)
SELECT m.doc_id,
       CAST(d.n_chars // 100 AS BIGINT) AS nc_bucket,
       CAST(d.n_chars % 10 AS BIGINT) AS nc_rem
FROM matches m JOIN documents d USING (doc_id)
ORDER BY nc_bucket DESC, nc_rem ASC, m.doc_id ASC LIMIT {k}"""


def incremental_dedup_sql() -> str:
    """Cross-snapshot dedup oracle: the synthesized new snapshot keeps only
    rows whose text is NOT in the old corpus — exactly the doc_id % 3 <> 0
    rows (their ' uniq'||id suffix is globally unique), re-derived here
    without assuming the modulus shortcut (the anti-join IS the spec)."""
    return """WITH new_snap AS (
  SELECT doc_id + (SELECT count(*) FROM documents) AS doc_id,
         CASE WHEN doc_id % 3 = 0 THEN text
              ELSE text || ' uniq' || CAST(doc_id AS VARCHAR) END AS text,
         lang
  FROM documents
)
SELECT n.doc_id, n.lang
FROM new_snap n
WHERE NOT EXISTS (SELECT 1 FROM documents o WHERE o.text = n.text)
ORDER BY n.doc_id"""


def expr_sort_sql(terms: list[str], k: int = 20) -> str:
    """Expression-sort oracle for `_score + sqrt(n_chars) / 100` over an OR
    BooleanQuery: the BM25 float32 score CTE (bit-exact, see bm25_topk_sql)
    widened to DOUBLE, plus correctly-rounded double sqrt/div/add — both
    numpy and DuckDB evaluate these IEEE-exactly, so the hash matches."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"({score_expr} + COALESCE(s{i}, {ZERO_R}))"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id
),
scored AS (
  SELECT doc_id, {score_expr} AS score FROM agg
)
SELECT s.doc_id,
       CAST(s.score AS DOUBLE) + sqrt(CAST(d.n_chars AS DOUBLE)) / 100
         AS escore
FROM scored s JOIN documents d USING (doc_id)
ORDER BY escore DESC, s.doc_id ASC LIMIT {k}"""


_OFFS_CTE = """
offs AS (
  -- start char offset of token `pos` in single-space-joined text:
  -- sum of (len + 1) of all PRECEDING tokens (incl. stopwords — offsets are
  -- a raw-token property; the engine stores them only for kept tokens)
  SELECT doc_id, term, pos,
         CAST(sum(length(term) + 1) OVER (
                PARTITION BY doc_id ORDER BY pos
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              - length(term) - 1 AS BIGINT) AS start
  FROM toks
)"""


def payload_stats_sql(term: str) -> str:
    """Offset-payload aggregation oracle: per doc containing ``term``, the
    count/min/max/sum of the term's start character offsets."""
    return f"""WITH {_toks_cte()},{_OFFS_CTE}
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n,
       CAST(min(start) AS BIGINT) AS min_off,
       CAST(max(start) AS BIGINT) AS max_off,
       CAST(sum(start) AS BIGINT) AS sum_off
FROM offs WHERE term = '{term}'
GROUP BY doc_id ORDER BY doc_id"""


def payload_term_score_sql(term: str, k: int = 10) -> str:
    """PayloadTermQuery(avg, includeSpanScore) oracle: BM25 float32 term
    score × float32 average offset-payload (sum/count — both exact in
    float32 for offsets < 2^24), final float32 product; top-k by (score
    desc, doc asc)."""
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte([term])},{_OFFS_CTE},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term = '{term}' GROUP BY doc_id, term
),
pay AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(start) AS BIGINT) AS sum_off
  FROM offs WHERE term = '{term}' GROUP BY doc_id
),
scored AS (
  SELECT tf.doc_id,
         CAST(((w.wv * tf.f) / (tf.f + c.cache))
              * CAST(CAST(p.sum_off AS REAL) / CAST(p.n AS REAL) AS REAL)
              AS REAL) AS score
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
  JOIN pay p ON p.doc_id = tf.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def numeric_range_filter_sql(term: str, lo: int, hi: int, k: int = 10) -> str:
    """NumericDocValuesRangeQuery-as-MUST-clause oracle: bm25 float32 score
    of ``term`` plus the filter clause's constant 1.0f (clause-order float32
    add), restricted to docs with n_chars in [lo, hi]."""
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte([term])},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term = '{term}' GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         CAST(((w.wv * tf.f) / (tf.f + c.cache)) + CAST(1.0 AS REAL)
              AS REAL) AS score
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
  JOIN documents d ON d.doc_id = tf.doc_id
  WHERE d.n_chars BETWEEN {lo} AND {hi}
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def tfidf_topk_sql(terms: list[str], k: int = 10) -> str:
    """ClassicSimilarity (TFIDFSimilarity/DefaultSimilarity) OR-query oracle,
    float32-bit-exact: idf = (float)(ln(N/(df+1))+1); queryNorm =
    (float)(1/sqrt(Σ float32 (idf·boost)²)); value = (idf·queryNorm)·idf;
    per-term score = ((float)sqrt(tf) · value) · decodedNorm; doc score =
    clause-order float32 sum × coord(overlap/maxOverlap)."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    idf_of = ("CAST(ln(CAST((SELECT N FROM coll) AS DOUBLE)/(df + 1)) + 1.0 "
              "AS REAL)")
    # float32 left-assoc sum of squared query weights, in clause order
    sum_sq = "CAST(0.0 AS REAL)"
    for t in terms:
        qw = f"(SELECT idf FROM cweights WHERE term = '{t}')"
        sum_sq = f"CAST({sum_sq} + CAST({qw} * {qw} AS REAL) AS REAL)"
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"CAST({score_expr} + COALESCE(s{i}, {ZERO_R}) AS REAL)"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    maxov = len(terms)
    return f"""WITH {_toks_cte()},{_NORM_CTE},
cweights AS (
  SELECT term, count(DISTINCT doc_id) AS df, {idf_of} AS idf
  FROM kept WHERE term IN ({terms_sql}) GROUP BY term
),
qn AS (SELECT CAST(1.0 / sqrt(CAST({sum_sq} AS DOUBLE)) AS REAL) AS v),
cvals AS (
  SELECT term, CAST(CAST(idf * (SELECT v FROM qn) AS REAL) * idf AS REAL) AS value
  FROM cweights
),
normdec AS (
  SELECT doc_id,
    CASE WHEN nb = 0 THEN CAST(0.0 AS REAL)
         ELSE CAST((1.0 + CAST((nb + 384) % 4 AS DOUBLE)/4.0)
              * power(2.0, CAST(floor((nb + 384)/4) AS BIGINT) - 127) AS REAL)
    END AS dec
  FROM normb
),
tf AS (
  SELECT doc_id, term, count(*) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
    CAST(CAST(CAST(sqrt(CAST(tf.f AS DOUBLE)) AS REAL) * v.value AS REAL)
         * nd.dec AS REAL) AS s
  FROM tf
  JOIN cvals v USING (term)
  JOIN normdec nd ON nd.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, count(DISTINCT term) AS overlap, {pivot_cols}
  FROM persc GROUP BY doc_id
),
scored AS (
  SELECT doc_id,
    CAST(({score_expr}) *
      CAST(CAST(overlap AS REAL) / CAST({maxov} AS REAL) AS REAL) AS REAL) AS score
  FROM agg
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def bm25_phrase_sql(terms_positions: list[tuple[str, int]], k: int = 10) -> str:
    """Exact-phrase BM25 oracle (ExactPhraseScorer semantics): phrase freq =
    count of base positions matching all (term, rel) members; weight = float32
    sum of member idfs (in term order) * (k1+1)."""
    t0, r0 = terms_positions[0]
    joins = []
    for i, (t, r) in enumerate(terms_positions[1:], 1):
        joins.append(
            f"JOIN kept a{i} ON a{i}.doc_id = a0.doc_id AND a{i}.term = '{t}' "
            f"AND a{i}.pos = a0.pos - {r0} + {r}"
        )
    terms = [t for t, _ in terms_positions]
    idf_sum = "CAST(0.0 AS REAL)"
    for t in terms:
        idf_sum = f"({idf_sum} + COALESCE((SELECT idf FROM qweights WHERE term = '{t}'), {ZERO_R}))"
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms)},
pmatch AS (
  SELECT a0.doc_id, a0.pos AS base
  FROM kept a0
  {' '.join(joins)}
  WHERE a0.term = '{t0}'
),
pf AS (
  SELECT doc_id, CAST(count(*) AS REAL) AS f FROM pmatch GROUP BY doc_id
),
scored AS (
  SELECT pf.doc_id,
         (({idf_sum} * {K1P1_R}) * pf.f) / (pf.f + c.cache) AS score
  FROM pf JOIN normcache c ON c.doc_id = pf.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def bm25_multiphrase_sql(slots: list[tuple[list[str], int]], k: int = 10) -> str:
    """MultiPhraseQuery exact oracle (``Search/MultiPhraseQuery.cs`` /
    UnionPostingsEnum): a doc matches at base position b when every slot
    (terms_i, rel_i) has ANY member at b + rel_i; freq = count of matching
    bases; weight idf = float32 sum over ALL slot terms in add order
    (MultiPhraseQuery.cs:188-204). Only one token occupies a (doc, pos), so
    the joins can't duplicate rows."""
    all_terms = [t for ts, _ in slots for t in ts]
    (ts0, r0) = slots[0]
    in0 = ", ".join(f"'{t}'" for t in ts0)
    joins = []
    for i, (ts, r) in enumerate(slots[1:], 1):
        ins = ", ".join(f"'{t}'" for t in ts)
        joins.append(
            f"JOIN kept a{i} ON a{i}.doc_id = a0.doc_id AND a{i}.term IN ({ins}) "
            f"AND a{i}.pos = a0.pos - {r0} + {r}"
        )
    idf_sum = "CAST(0.0 AS REAL)"
    for t in all_terms:
        idf_sum = f"({idf_sum} + COALESCE((SELECT idf FROM qweights WHERE term = '{t}'), {ZERO_R}))"
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(all_terms)},
pmatch AS (
  SELECT a0.doc_id, a0.pos - {r0} AS base
  FROM kept a0
  {' '.join(joins)}
  WHERE a0.term IN ({in0}) AND a0.pos - {r0} >= 0
),
pf AS (
  SELECT doc_id, CAST(count(*) AS REAL) AS f FROM pmatch GROUP BY doc_id
),
scored AS (
  SELECT pf.doc_id,
         (({idf_sum} * {K1P1_R}) * pf.f) / (pf.f + c.cache) AS score
  FROM pf JOIN normcache c ON c.doc_id = pf.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def span_near_count_sql(t1: str, t2: str, slop: int) -> str:
    """Ordered SpanNear([t1, t2], slop) span enumeration oracle
    (NearSpansOrdered minimal matches): the emitted pairs are exactly
    {(p1, p2) : p2 = min occurrence of t2 after p1, p1 = max occurrence of
    t1 before that p2} with gap p2-p1-1 <= slop (shrinkToAfterShortestMatch
    — spans.py near_ordered). Output (doc_id, n_spans) doc_id asc."""
    return f"""WITH {_toks_cte()},
occ1 AS (SELECT doc_id, pos FROM kept WHERE term = '{t1}'),
occ2 AS (SELECT doc_id, pos FROM kept WHERE term = '{t2}'),
m1 AS (
  SELECT o1.doc_id, o1.pos AS p1, min(o2.pos) AS p2
  FROM occ1 o1 JOIN occ2 o2 ON o2.doc_id = o1.doc_id AND o2.pos >= o1.pos + 1
  GROUP BY o1.doc_id, o1.pos
),
m2 AS (SELECT doc_id, max(p1) AS p1, p2 FROM m1 GROUP BY doc_id, p2)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_spans
FROM m2 WHERE p2 - p1 - 1 <= {slop}
GROUP BY doc_id ORDER BY doc_id"""


def span_position_range_count_sql(t1: str, t2: str, slop: int,
                                  pstart: int, pend: int) -> str:
    """SpanPositionRange(SpanNear([t1, t2], slop), start, end) oracle
    (SpanPositionRangeQuery.cs AcceptPosition over the NearSpansOrdered
    minimal matches): the near pairs of span_near_count_sql additionally
    filtered to span.start >= pstart AND span.end (= p2 + 1) <= pend."""
    return f"""WITH {_toks_cte()},
occ1 AS (SELECT doc_id, pos FROM kept WHERE term = '{t1}'),
occ2 AS (SELECT doc_id, pos FROM kept WHERE term = '{t2}'),
m1 AS (
  SELECT o1.doc_id, o1.pos AS p1, min(o2.pos) AS p2
  FROM occ1 o1 JOIN occ2 o2 ON o2.doc_id = o1.doc_id AND o2.pos >= o1.pos + 1
  GROUP BY o1.doc_id, o1.pos
),
m2 AS (SELECT doc_id, max(p1) AS p1, p2 FROM m1 GROUP BY doc_id, p2)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_spans
FROM m2 WHERE p2 - p1 - 1 <= {slop}
  AND p1 >= {pstart} AND p2 + 1 <= {pend}
GROUP BY doc_id ORDER BY doc_id"""


def span_near_pred_count_sql(pred1: str, t2: str, slop: int) -> str:
    """span_near_count_sql generalized: the FIRST clause is any SQL term
    predicate (an OR-group ``term IN (...)`` per SrndOrQuery, or a
    truncation ``term LIKE 'p%'`` per SrndTruncQuery expansion — the merged
    occurrence list is one sorted width-1 span list, so the same
    minimal-match closed form applies). Output (doc_id, n_spans)."""
    return f"""WITH {_toks_cte()},
occ1 AS (SELECT doc_id, pos FROM kept WHERE {pred1}),
occ2 AS (SELECT doc_id, pos FROM kept WHERE term = '{t2}'),
m1 AS (
  SELECT o1.doc_id, o1.pos AS p1, min(o2.pos) AS p2
  FROM occ1 o1 JOIN occ2 o2 ON o2.doc_id = o1.doc_id AND o2.pos >= o1.pos + 1
  GROUP BY o1.doc_id, o1.pos
),
m2 AS (SELECT doc_id, max(p1) AS p1, p2 FROM m1 GROUP BY doc_id, p2)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_spans
FROM m2 WHERE p2 - p1 - 1 <= {slop}
GROUP BY doc_id ORDER BY doc_id"""


def surround_trunc_count_sql(prefix: str, t2: str, slop: int) -> str:
    """Oracle for ``(slop+1)W(prefix*, t2)``: truncation-expanded ordered
    near (Surround/Query/SrndTruncQuery.cs + DistanceQuery.cs analog)."""
    return span_near_pred_count_sql(f"term LIKE '{prefix}%'", t2, slop)


def complex_phrase_count_sql(alts: list[str], t2: str, slop: int) -> str:
    """Oracle for ComplexPhrase ``"(a b) c"~slop``: OR-group first slot,
    ordered near (ComplexPhraseQueryParser.cs rewrite-to-spans analog)."""
    inlist = ", ".join(f"'{a}'" for a in alts)
    return span_near_pred_count_sql(f"term IN ({inlist})", t2, slop)


def shingle_stats_sql(n: int = 20) -> str:
    """2-gram ShingleFilter surface over the RAW token stream (no stop
    filter → no fillers; ShingleAnalyzerWrapper default use): top-n shingles
    by (df desc, term asc) with df/ttf — mirrors the engine's distributed
    shingle aggregation."""
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
big AS (
  SELECT doc_id,
         term || ' ' || lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS sh
  FROM toks WHERE term <> ''
)
SELECT sh AS term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM big WHERE sh IS NOT NULL
GROUP BY sh ORDER BY df DESC, term LIMIT {n}"""


def bm25_phrase_slop_sql(terms_positions: list[tuple[str, int]], slop: int,
                         k: int = 10) -> str:
    """Sloppy-phrase BM25 oracle for a TWO-term phrase — bit-exact replay of
    the SloppyPhraseScorer greedy traversal (SloppyPhraseScorer.cs:101-145).

    For two single-term phrase positions the greedy PQ algorithm reduces to a
    closed-form epoch walk (derivation in search/sloppy.py): with per-doc
    phrase-coordinate streams A = {pos-relA} and B = {pos-relB},
      v1 = max(min A, min B)   (tie → the larger-offset stream is on top),
      v_{i+1} = min{p in other(v_i) : p > v_i},
    and each epoch contributes 1/(v_i - pred_{other}(v_i) + 1) when the
    distance ≤ slop, accumulated as a float32 left-assoc sum in epoch order
    (BM25Similarity.SloppyFreq, :74-77). Docs with freq 0 don't match.
    Implemented as a recursive CTE carrying the running float32 freq.
    """
    assert len(terms_positions) == 2, "oracle covers the 2-term case"
    (ta, ra), (tb, rb) = terms_positions
    tie_s = "A" if ra > rb else "B"
    sf = (f"CASE WHEN n.p - n.prd <= {slop} THEN "
          f"CAST(CAST(1.0 AS REAL)/CAST((n.p - n.prd + 1) AS REAL) AS REAL) "
          f"ELSE {ZERO_R} END")
    idf_sum = "CAST(0.0 AS REAL)"
    for t in (ta, tb):
        idf_sum = (f"({idf_sum} + COALESCE((SELECT idf FROM qweights "
                   f"WHERE term = '{t}'), {ZERO_R}))")
    return f"""WITH RECURSIVE {_toks_cte()},{_NORM_CTE},{_weights_cte([ta, tb])},
ap AS (SELECT doc_id, pos - {ra} AS p FROM kept WHERE term = '{ta}'),
bp AS (SELECT doc_id, pos - {rb} AS p FROM kept WHERE term = '{tb}'),
merged AS (
  SELECT doc_id, p, 'A' AS s FROM ap
  UNION ALL
  SELECT doc_id, p, 'B' AS s FROM bp
),
nodes AS (
  SELECT m.doc_id, m.p, m.s,
    (SELECT max(o.p) FROM merged o
      WHERE o.doc_id = m.doc_id AND o.s <> m.s AND o.p <= m.p) AS prd,
    (SELECT min(o.p) FROM merged o
      WHERE o.doc_id = m.doc_id AND o.s <> m.s AND o.p > m.p) AS nxt
  FROM merged m
),
start AS (
  SELECT sa.doc_id, GREATEST(am, bm) AS v,
    CASE WHEN am > bm THEN 'A' WHEN bm > am THEN 'B' ELSE '{tie_s}' END AS s
  FROM (SELECT doc_id, min(p) AS am FROM ap GROUP BY doc_id) sa
  JOIN (SELECT doc_id, min(p) AS bm FROM bp GROUP BY doc_id) sb
    USING (doc_id)
),
walk AS (
  SELECT n.doc_id, n.p, n.s, n.nxt, CAST({sf} AS REAL) AS freq
  FROM nodes n
  JOIN start st ON st.doc_id = n.doc_id AND st.v = n.p AND st.s = n.s
  UNION ALL
  SELECT n.doc_id, n.p, n.s, n.nxt, CAST(w.freq + {sf} AS REAL)
  FROM walk w
  JOIN nodes n ON n.doc_id = w.doc_id AND n.p = w.nxt AND n.s <> w.s
),
pf AS (
  SELECT doc_id, freq AS f FROM walk WHERE nxt IS NULL AND freq > 0
),
scored AS (
  SELECT pf.doc_id,
         (({idf_sum} * {K1P1_R}) * pf.f) / (pf.f + c.cache) AS score
  FROM pf JOIN normcache c ON c.doc_id = pf.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def facet_lang_sql() -> str:
    """Facet-count analog (FacetsCollector): per-category match counts."""
    return "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang ORDER BY lang"


def block_join_sql(k: int = 20) -> str:
    """ToParentBlockJoin(Max) oracle over orders/lineitem."""
    return f"""SELECT l.l_orderkey AS o_orderkey,
       max(l.l_extendedprice) AS score,
       any_value(o.o_totalprice) AS o_totalprice
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE l.l_returnflag = 'R' AND l.l_quantity > 30
GROUP BY l.l_orderkey
ORDER BY score DESC, o_orderkey ASC LIMIT {k}"""


def suggest_prefix_sql(prefix: str, k: int = 5) -> str:
    """Prefix-autocomplete oracle: top-k terms by (df desc, term asc)."""
    esc = prefix.replace("'", "''")
    return f"""WITH {_toks_cte()}
SELECT term, count(DISTINCT doc_id) AS weight FROM kept
WHERE term LIKE '{esc}%' GROUP BY term
ORDER BY weight DESC, term LIMIT {k}"""


def suggest_weighted_sql(prefix: str, k: int = 10) -> str:
    """AnalyzingSuggester oracle: 2-gram completions of ``prefix`` over the
    raw token stream, (weight = total occurrences) desc, key asc."""
    esc = prefix.replace("'", "''").replace("%", "\\%").replace("_", "\\_")
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
big AS (
  SELECT doc_id,
         term || ' ' || lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS sh
  FROM toks WHERE term <> ''
)
SELECT sh AS key, count(*) AS weight
FROM big WHERE sh IS NOT NULL AND sh LIKE '{esc}%' ESCAPE '\\'
GROUP BY sh ORDER BY weight DESC, key LIMIT {k}"""


def highlight_passages_sql(terms: list[str], k: int = 10,
                           window: int = 20) -> str:
    """Passage-highlight oracle: best fixed-``window`` position block per
    top-k doc — (rank, doc_id, passage, n_hits); passage tie → lowest idx.
    Positions are the analyzer's (stop holes preserved), which on this
    corpus equal raw whitespace-token ordinals (module docstring)."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    return f"""WITH top AS (
  SELECT * FROM ({bm25_topk_sql(terms, k)}) s
),
{_toks_cte()},
hits AS (
  SELECT k.doc_id, CAST(floor(k.pos / {window}) AS BIGINT) AS passage,
         count(*) AS n_hits
  FROM kept k
  WHERE k.term IN ({terms_sql})
    AND k.doc_id IN (SELECT doc_id FROM top)
  GROUP BY k.doc_id, passage
),
best AS (
  SELECT doc_id, passage, n_hits,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY n_hits DESC, passage ASC) AS rn
  FROM hits
)
SELECT t.rank, t.doc_id, b.passage, b.n_hits
FROM top t JOIN best b ON t.doc_id = b.doc_id AND b.rn = 1
ORDER BY t.rank"""


def term_vector_sql(doc_id: int = 0) -> str:
    """Term-vector oracle: (term, freq) of one doc, term-sorted."""
    return f"""WITH {_toks_cte()}
SELECT term, count(*) AS freq FROM kept WHERE doc_id = {doc_id}
GROUP BY term ORDER BY term"""


def rescore_sql(first_terms: list[str], phrase: list[tuple[str, int]],
                weight: float, k_first: int, k: int = 10) -> str:
    """QueryRescorer oracle (Search/QueryRescorer.cs:32): first-pass OR
    top-k_first, then combined = first + weight*phrase (float32; hits with
    no phrase match keep the first-pass score), re-ranked (score desc,
    doc_id asc)."""
    all_terms = sorted(set(first_terms) | {t for t, _ in phrase})
    terms_sql = ", ".join(f"'{t}'" for t in first_terms)
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(first_terms)):
        score_expr = f"({score_expr} + COALESCE(s{i}, {ZERO_R}))"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(first_terms))
    t0, r0 = phrase[0]
    joins = []
    for i, (t, r) in enumerate(phrase[1:], 1):
        joins.append(
            f"JOIN kept a{i} ON a{i}.doc_id = a0.doc_id AND a{i}.term = '{t}' "
            f"AND a{i}.pos = a0.pos - {r0} + {r}")
    idf_sum = "CAST(0.0 AS REAL)"
    for t, _ in phrase:
        idf_sum = (f"({idf_sum} + COALESCE((SELECT idf FROM qweights "
                   f"WHERE term = '{t}'), {ZERO_R}))")
    w_r = _R.format(v=repr(float(weight)))
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(all_terms)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term, (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (SELECT doc_id, {pivot_cols} FROM persc GROUP BY doc_id),
firstpass AS (
  SELECT doc_id, {score_expr} AS s1 FROM agg
  ORDER BY s1 DESC, doc_id ASC LIMIT {k_first}
),
pmatch AS (
  SELECT a0.doc_id, a0.pos AS base FROM kept a0 {' '.join(joins)}
  WHERE a0.term = '{t0}'
),
pf AS (SELECT doc_id, CAST(count(*) AS REAL) AS f FROM pmatch GROUP BY doc_id),
psc AS (
  SELECT pf.doc_id, (({idf_sum} * {K1P1_R}) * pf.f) / (pf.f + c.cache) AS s2
  FROM pf JOIN normcache c ON c.doc_id = pf.doc_id
),
combined AS (
  SELECT fp.doc_id,
    CASE WHEN p.s2 IS NULL THEN fp.s1
         ELSE CAST(fp.s1 + CAST({w_r} * p.s2 AS REAL) AS REAL) END AS score
  FROM firstpass fp LEFT JOIN psc p USING (doc_id)
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM combined ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def total_hits_sql(terms: list[str]) -> str:
    """TotalHitCountCollector oracle: docs containing EVERY term."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    return f"""WITH {_toks_cte()}
SELECT CAST(count(*) AS BIGINT) AS n_hits FROM (
  SELECT doc_id FROM kept WHERE term IN ({terms_sql})
  GROUP BY doc_id HAVING count(DISTINCT term) = {len(set(terms))}
)"""


def constant_score_prefix_sql(prefix: str, boost: float, k: int = 10) -> str:
    """ConstantScoreQuery over a prefix filter: every match scores boost
    (a float32-exact constant), ties by doc_id asc."""
    esc = prefix.replace("'", "''")
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term LIKE '{esc}%')
SELECT CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST({boost!r} AS DOUBLE) AS score
FROM m ORDER BY doc_id ASC LIMIT {k}"""


def near_dup_embedding_sql(threshold: float = 0.4) -> str:
    """Embedding-cosine near-dup oracle: exact pair self-join."""
    return f"""SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {threshold}
ORDER BY id_a, id_b"""


def near_dup_embedding_clustered_sql(threshold: float = 0.4,
                                     n_clusters: int = 8) -> str:
    """Cluster-bucketed exact-verify near-dup oracle (ops/knn.py
    cosine_pairs_clustered): the semdedup_sql assignment (nearest of the
    n_clusters lowest-vec_id seeds, cosine argmax, ties to low seed id),
    then exact cosine >= threshold WITHIN a cluster only."""
    return f"""WITH seeds AS (
  SELECT vec_id AS sid, embedding AS semb FROM embeddings
  WHERE vec_id < {n_clusters}
),
sims AS (
  SELECT v.vec_id, s.sid,
         list_cosine_similarity(v.embedding, s.semb) AS cs
  FROM embeddings v CROSS JOIN seeds s
),
asg AS (
  SELECT vec_id, sid AS cluster FROM (
    SELECT *, row_number() OVER (
      PARTITION BY vec_id ORDER BY cs DESC, sid ASC) AS rn
    FROM sims
  ) WHERE rn = 1
)
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM asg a
JOIN asg b ON b.cluster = a.cluster AND a.vec_id < b.vec_id
JOIN embeddings ea ON ea.vec_id = a.vec_id
JOIN embeddings eb ON eb.vec_id = b.vec_id
WHERE list_cosine_similarity(ea.embedding, eb.embedding) >= {threshold}
ORDER BY id_a, id_b"""


def facet_taxonomy_sql() -> str:
    """Taxonomy facet rollup oracle: counts at every path prefix."""
    return """SELECT path, CAST(n_docs AS BIGINT) AS n_docs FROM (
  SELECT lang AS path, count(*) AS n_docs FROM documents GROUP BY lang
  UNION ALL
  SELECT lang || '/' || source AS path, count(*) AS n_docs
  FROM documents GROUP BY lang, source
) ORDER BY path"""


def facet_range_sql(term: str, edges: tuple, labels: tuple) -> str:
    """Numeric-range facet oracle: n_chars range counts over docs matching
    ``term``; every range present (zero counts included), label order."""
    rows = []
    for i, lab in enumerate(labels):
        lo = edges[i]
        hi = edges[i + 1] if i + 1 < len(edges) else None
        cond = (f"n_chars >= {lo}" if hi is None
                else f"n_chars >= {lo} AND n_chars < {hi}")
        rows.append(f"SELECT {i} AS ord, '{lab}' AS range, "
                    f"(SELECT count(*) FROM documents d JOIN m USING (doc_id)"
                    f" WHERE {cond}) AS n_docs")
    union = "\nUNION ALL\n".join(rows)
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term = '{term}')
SELECT range, CAST(n_docs AS BIGINT) AS n_docs FROM ({union}) ORDER BY ord"""


def grouping_distinct_sql(term: str) -> str:
    """AbstractDistinctValuesCollector oracle: distinct lang count per
    source among docs matching ``term``."""
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term = '{term}')
SELECT d.source, count(DISTINCT d.lang) AS n_langs
FROM documents d JOIN m USING (doc_id)
GROUP BY d.source ORDER BY d.source"""


def drill_sideways_sql(term: str, lang_drill: str, source_drill: str) -> str:
    """DrillSideways oracle: for each drilled dim, counts applying every
    OTHER drill but not its own."""
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term = '{term}'),
hits AS (SELECT d.* FROM documents d JOIN m USING (doc_id)),
side AS (
  SELECT 'lang' AS dim, lang AS value, count(*) AS n_docs
  FROM hits WHERE source = '{source_drill}' GROUP BY lang
  UNION ALL
  SELECT 'source', source, count(*)
  FROM hits WHERE lang = '{lang_drill}' GROUP BY source
)
SELECT dim, value, n_docs FROM side ORDER BY dim, value"""


def sortedset_facets_sql(term: str, top_n: int = 3) -> str:
    """SortedSetDocValuesFacetCounts oracle (Facet/SortedSet/
    SortedSetDocValuesFacetCounts.cs:75-149): flat dim$label facets over the
    hits of ``term``. Each hit doc carries a SORTED_SET of labels — dim 'tag'
    gets two md5-derived labels (the set DEDUPS equal pairs, mirroring
    SORTED_SET semantics), dim 'grp' one. Per dim: label counts, dim total
    (sum over labels with count>0), child count (labels with count>0), and
    the top-N labels by (count desc, label asc) — the unicode-ord tie-break
    the reference documents at SortedSetDocValuesFacetCounts.cs:49."""
    ha = _MD5_INT60.format(s="'ss-a-'||CAST(doc_id AS VARCHAR)")
    hb = _MD5_INT60.format(s="'ss-b-'||CAST(doc_id AS VARCHAR)")
    hc = _MD5_INT60.format(s="'ss-c-'||CAST(doc_id AS VARCHAR)")
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term = '{term}'),
lab AS (
  SELECT doc_id, 'tag' AS dim, 't'||CAST({ha} % 8 AS VARCHAR) AS label FROM m
  UNION
  SELECT doc_id, 'tag', 't'||CAST({hb} % 8 AS VARCHAR) FROM m
  UNION
  SELECT doc_id, 'grp', 'g'||CAST({hc} % 5 AS VARCHAR) FROM m
),
cnt AS (SELECT dim, label, count(*) AS n_docs FROM lab GROUP BY dim, label),
win AS (
  SELECT dim, label, n_docs,
         SUM(n_docs) OVER (PARTITION BY dim) AS dim_total,
         COUNT(*) OVER (PARTITION BY dim) AS child_count,
         row_number() OVER (PARTITION BY dim
                            ORDER BY n_docs DESC, label ASC) AS rk
  FROM cnt)
SELECT dim, label, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(dim_total AS BIGINT) AS dim_total,
       CAST(child_count AS BIGINT) AS child_count
FROM win WHERE rk <= {top_n}
ORDER BY dim, n_docs DESC, label"""


def facet_lang_sampled_sql(pct_buckets: int = 10, keep_lt: int = 3) -> str:
    """RandomSamplingFacetsCollector oracle: identical deterministic
    md5(doc_id) 30% sample, exact counts within it."""
    h = _MD5_INT60.format(s="CAST(doc_id AS VARCHAR)")
    return f"""SELECT lang, count(*) AS n_docs FROM documents
WHERE {h} % {pct_buckets} < {keep_lt}
GROUP BY lang ORDER BY lang"""


def simple_or_and_sql(or_terms: list[str], must_terms: list[str],
                      k: int = 10) -> str:
    """BM25 oracle for the SimpleQueryParser tree of ``"a|b c"`` under
    DefaultOperator=MUST (SimpleQueryParser.cs BuildQueryTree :494-543):
    BooleanQuery(MUST (a SHOULD b), MUST c). Engine float32 order: the
    nested group sums first ((0+s_a)+s_b), then each MUST term adds —
    left-assoc in clause order."""
    terms = list(or_terms) + list(must_terms)
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    inner = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(or_terms)):
        inner = f"({inner} + COALESCE(s{i}, {ZERO_R}))"
    score = inner
    for i in range(len(or_terms), len(terms)):
        score = f"({score} + COALESCE(s{i}, {ZERO_R}))"
    or_cond = " OR ".join(
        f"s{i} IS NOT NULL" for i in range(len(or_terms)))
    must_cond = " AND ".join(
        f"s{i} IS NOT NULL" for i in range(len(or_terms), len(terms)))
    having = f"HAVING ({or_cond})" + (f" AND {must_cond}" if must_cond else "")
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id {having}
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM (SELECT doc_id, {score} AS score FROM agg)
ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def duplicate_keep_sql(field: str = "source", keep: str = "last") -> str:
    """DuplicateFilter keeper set (Sandbox DuplicateFilter.cs:33-47,
    KM_USE_FIRST/LAST_OCCURRENCE under PM_FULL_VALIDATION): one surviving
    doc per key-field value — composes into bm25_topk_sql via
    ``restrict_docs_sql``."""
    agg = "max" if keep == "last" else "min"
    return f"SELECT {agg}(doc_id) FROM documents GROUP BY {field}"


def dedup_exact_sql() -> str:
    """Exact content dedup: keep min doc_id per md5(text)."""
    return """SELECT md5(text) AS text_hash, min(doc_id) AS keep_doc_id,
       count(*) AS n_copies
FROM documents GROUP BY md5(text) ORDER BY text_hash"""


# ---------------------------------------------------------------------------
# training-data ops oracles (neardup / textstats / knn)

_MD5_INT31 = "CAST(('0x'||substr(md5({s}),1,15)) AS BIGINT) % 2147483648"
_MD5_INT60 = "CAST(('0x'||substr(md5({s}),1,15)) AS BIGINT)"
_MD5_LOW63 = ("CAST(CAST(('0x'||substr(md5({s}),17,16)) AS UBIGINT) "
              "% 9223372036854775808 AS BIGINT)")


def _shingles_cte(k: int = 3) -> str:
    return f"""
arrs AS (SELECT doc_id, string_split(text, ' ') AS arr FROM documents),
sh AS (
  SELECT DISTINCT doc_id, gram FROM (
    SELECT doc_id, array_to_string(list_slice(arr, i, i + {k - 1}), ' ') AS gram
    FROM arrs, LATERAL (SELECT unnest(range(1, len(arr) - {k - 2})) AS i)
    WHERE len(arr) >= {k}
    UNION ALL
    SELECT doc_id, array_to_string(arr, ' ') AS gram
    FROM arrs WHERE len(arr) < {k} AND len(arr) > 0
  )
)"""


def minhash_candidates_sql(num_perm: int = 16, num_bands: int = 4,
                           k: int = 3) -> str:
    """Candidate near-dup pairs sharing ≥1 LSH band; n_bands = shared count."""
    from lucenenet_ray.ops.neardup import MERSENNE61, _perm_params

    a, b = _perm_params(num_perm)
    r = num_perm // num_bands
    perm_rows = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})" for i in range(num_perm))
    return f"""WITH {_shingles_cte(k)},
perms(perm, a, b) AS (VALUES {perm_rows}),
hashes AS (
  SELECT doc_id, {_MD5_INT31.format(s='gram')} AS h FROM sh
),
minh AS (
  SELECT doc_id, perm, min((a * h + b) % {MERSENNE61}) AS mh
  FROM hashes CROSS JOIN perms GROUP BY doc_id, perm
),
bands AS (
  SELECT doc_id, perm // {r} AS band,
         string_agg(CAST(mh AS VARCHAR), '-' ORDER BY perm) AS band_key
  FROM minh GROUP BY doc_id, perm // {r}
)
SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, count(*) AS n_bands
FROM bands x JOIN bands y
  ON x.band = y.band AND x.band_key = y.band_key AND x.doc_id < y.doc_id
GROUP BY x.doc_id, y.doc_id
ORDER BY doc_a, doc_b"""


def jaccard_pairs_sql(num_perm: int = 16, num_bands: int = 4, k: int = 3) -> str:
    """Exact k-shingle (intersection, union) counts for LSH candidate pairs."""
    cand = minhash_candidates_sql(num_perm, num_bands, k)
    return f"""WITH cand AS ({cand}),
{_shingles_cte(k)},
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, count(*) AS inter
  FROM cand c JOIN sh a ON a.doc_id = c.doc_a
              JOIN sh b ON b.doc_id = c.doc_b AND b.gram = a.gram
  GROUP BY c.doc_a, c.doc_b
)
SELECT c.doc_a AS doc_a, c.doc_b AS doc_b,
       COALESCE(i.inter, 0) AS inter,
       sa.n + sb.n - COALESCE(i.inter, 0) AS uni
FROM cand c
LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
JOIN sizes sa ON sa.doc_id = c.doc_a
JOIN sizes sb ON sb.doc_id = c.doc_b
ORDER BY c.doc_a, c.doc_b"""


def simhash_sql() -> str:
    """63-bit tf-weighted SimHash per doc (bit i of md5-low-63 per token)."""
    return f"""WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
),
tf AS (
  SELECT doc_id, term, count(*) AS cnt FROM toks WHERE term <> ''
  GROUP BY doc_id, term
),
th AS (SELECT doc_id, cnt, {_MD5_LOW63.format(s='term')} AS h FROM tf),
bits AS (
  SELECT doc_id, i, sum(cnt * (2 * ((h >> i) & 1) - 1)) AS acc
  FROM th CROSS JOIN (SELECT unnest(range(63)) AS i)
  GROUP BY doc_id, i
),
sig AS (
  SELECT doc_id,
         CAST(COALESCE(sum(CASE WHEN acc > 0 THEN (CAST(1 AS BIGINT) << i) END), 0) AS BIGINT) AS simhash
  FROM bits GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(s.simhash, 0) AS simhash
FROM documents d LEFT JOIN sig s USING (doc_id) ORDER BY doc_id"""


def fingerprints_sql(k: int = 3, window: int = 4) -> str:
    """Winnowing fingerprints: distinct per-window min of k-gram hashes."""
    return f"""WITH arrs AS (SELECT doc_id, string_split(text, ' ') AS arr FROM documents),
grams AS (
  SELECT doc_id, i,
         {_MD5_INT60.format(s="array_to_string(list_slice(arr, i, i + " + str(k - 1) + "), ' ')")} AS h,
         len(arr) - {k - 1} AS n_grams
  FROM arrs, LATERAL (SELECT unnest(range(1, len(arr) - {k - 2})) AS i)
  WHERE len(arr) >= {k}
  UNION ALL
  SELECT doc_id, 1 AS i, {_MD5_INT60.format(s="array_to_string(arr, ' ')")} AS h, 1 AS n_grams
  FROM arrs WHERE len(arr) < {k} AND len(arr) > 0
),
win AS (
  SELECT doc_id, i, n_grams,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND {window - 1} FOLLOWING) AS fp
  FROM grams
),
small AS (SELECT doc_id, min(h) AS fp FROM grams WHERE n_grams <= {window} GROUP BY doc_id),
big AS (SELECT DISTINCT doc_id, fp FROM win WHERE n_grams > {window} AND i <= n_grams - {window - 1})
SELECT doc_id, fp FROM (SELECT * FROM small UNION ALL SELECT * FROM big)
ORDER BY doc_id, fp"""


def lang_id_sql() -> str:
    from lucenenet_ray.ops.textstats import LANG_MARKERS, LANG_ORDER

    cnt_cols = []
    for lang in LANG_ORDER:
        words = ", ".join(f"'{w}'" for w in sorted(LANG_MARKERS[lang]))
        cnt_cols.append(
            f"sum(CASE WHEN term IN ({words}) THEN 1 ELSE 0 END) AS c_{lang}"
        )
    best = "GREATEST(" + ", ".join(f"c_{lang}" for lang in LANG_ORDER) + ")"
    n_best = " + ".join(
        f"(CASE WHEN c_{lang} = {best} THEN 1 ELSE 0 END)" for lang in LANG_ORDER
    )
    first = "CASE " + " ".join(
        f"WHEN c_{lang} = {best} THEN '{lang}'" for lang in LANG_ORDER
    ) + " END"
    return f"""WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
),
cnts AS (
  SELECT d.doc_id, {', '.join(cnt_cols)}
  FROM documents d LEFT JOIN toks USING (doc_id)
  GROUP BY d.doc_id
)
SELECT doc_id,
       CASE WHEN {best} = 0 OR {best} IS NULL THEN 'und'
            WHEN ({n_best}) > 1 THEN 'und'
            ELSE {first} END AS pred_lang
FROM cnts ORDER BY doc_id"""


def quality_stats_sql() -> str:
    from lucenenet_ray.ops.textstats import STOP10

    stop = ", ".join(f"'{w}'" for w in sorted(STOP10))
    return f"""WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
),
agg AS (
  SELECT doc_id,
         count(*) AS n_tokens,
         CAST(sum(CASE WHEN term IN ({stop}) THEN 1 ELSE 0 END) AS BIGINT) AS n_stopwords,
         count(DISTINCT term) AS n_unique,
         max(len(term)) AS max_token_len
  FROM toks GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(a.n_tokens, 0) AS n_tokens,
       COALESCE(a.n_stopwords, 0) AS n_stopwords,
       COALESCE(a.n_unique, 0) AS n_unique,
       COALESCE(a.max_token_len, 0) AS max_token_len,
       len(d.text) AS n_chars
FROM documents d LEFT JOIN agg a USING (doc_id) ORDER BY doc_id"""


def knn_exact_sql(query_vec_ids: list[int], k: int = 10) -> str:
    ids = ", ".join(str(i) for i in query_vec_ids)
    return f"""WITH q AS (
  SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id IN ({ids})
),
sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(e.embedding, q.embedding) AS sim
  FROM embeddings e CROSS JOIN q
)
SELECT query_id,
       CAST(row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rank,
       vec_id
FROM sims
QUALIFY rank <= {k}
ORDER BY query_id, rank"""


def _pq_codes_cte(m: int = 4, k: int = 16, dim: int = 64) -> str:
    """Shared CTEs re-deriving PQ codes from the deterministic seed
    codebooks (ops/pq.py seed_codebooks + pq_encode): codeword j of
    subspace s = subspace-s slice of the j-th lowest-vec_id vector; a
    vector's code for subspace s = argmin squared L2 over the k codewords
    (ties → lowest code). DOUBLE[] casts keep the accumulation in float64,
    matching the engine's numpy math."""
    dsub = dim // m
    return f"""seeds AS (
  SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS code,
         embedding
  FROM (SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT {k})
),
subs AS (SELECT unnest(range({m})) AS s),
pq_d AS (
  SELECT e.vec_id, subs.s, seeds.code,
         list_distance(
           list_slice(e.embedding::DOUBLE[], subs.s*{dsub}+1, subs.s*{dsub}+{dsub}),
           list_slice(seeds.embedding::DOUBLE[], subs.s*{dsub}+1, subs.s*{dsub}+{dsub})
         ) AS dist
  FROM embeddings e CROSS JOIN seeds CROSS JOIN subs
),
pq_codes AS (
  SELECT vec_id, s, code FROM pq_d
  QUALIFY row_number() OVER (PARTITION BY vec_id, s
                             ORDER BY dist ASC, code ASC) = 1
)"""


def pq_codes_sql(m: int = 4, k: int = 16, dim: int = 64) -> str:
    """Product-quantization codes (ops/pq.py pq_encode with seed
    codebooks), pivoted to flat c0..c{m-1} columns."""
    cases = ",\n  ".join(
        f"MAX(CASE WHEN s = {s} THEN code END) AS c{s}" for s in range(m))
    return f"""WITH {_pq_codes_cte(m, k, dim)}
SELECT vec_id,
  {cases}
FROM pq_codes GROUP BY vec_id ORDER BY vec_id"""


def knn_pq_adc_sql(query_vec_ids: list[int], m: int = 4, k_codewords: int = 16,
                   dim: int = 64, k: int = 10) -> str:
    """ADC top-k (ops/pq.py adc_topk): distance(q, x) = sum over subspaces
    of squared L2 between q's subspace slice and x's ASSIGNED codeword —
    the query stays un-quantized (Jégou et al. 2011 §IV). Rank output only
    (count desc analog of knn_exact_sql): (query_id, rank, vec_id)."""
    dsub = dim // m
    ids = ", ".join(str(i) for i in query_vec_ids)
    return f"""WITH {_pq_codes_cte(m, k_codewords, dim)},
q AS (SELECT vec_id AS query_id, embedding FROM embeddings
      WHERE vec_id IN ({ids})),
adc AS (
  -- list_sum over an ORDER BY s list: fixed-order summation — a bare
  -- SUM() is an unordered float aggregate and flaps at near-ties under
  -- DuckDB's parallel hash aggregate
  SELECT q.query_id, c.vec_id,
         list_sum(list(POWER(list_distance(
           list_slice(q.embedding::DOUBLE[], c.s*{dsub}+1, c.s*{dsub}+{dsub}),
           list_slice(s2.embedding::DOUBLE[], c.s*{dsub}+1, c.s*{dsub}+{dsub})
         ), 2) ORDER BY c.s)) AS dist
  FROM pq_codes c
  JOIN seeds s2 ON s2.code = c.code
  CROSS JOIN q
  GROUP BY q.query_id, c.vec_id
)
SELECT query_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY dist ASC, vec_id ASC) AS BIGINT) AS rank,
       vec_id
FROM adc QUALIFY rank <= {k} ORDER BY query_id, rank"""


def _sq8_cte(dim: int = 64) -> str:
    """Shared CTEs re-deriving SQ8 codes (ops/sq.py train_sq + sq_encode):
    per-dimension corpus min/max, then
    ``floor((x - mn) / ((mx - mn)/255) + 0.5)`` clipped to [0, 255] —
    the SQL divides by the PRE-DIVIDED scale exactly as the engine does,
    so the float64 expression trees are identical."""
    return f"""vals AS (
  SELECT e.vec_id, t.g AS ord, CAST(e.embedding[t.g] AS DOUBLE) AS val
  FROM embeddings e, generate_series(1, {dim}) AS t(g)
),
stats AS (SELECT ord, min(val) AS mn, max(val) AS mx FROM vals GROUP BY ord),
sq_codes AS (
  SELECT v.vec_id, v.ord,
         CASE WHEN s.mx > s.mn THEN CAST(LEAST(255, GREATEST(0,
           FLOOR((v.val - s.mn) / ((s.mx - s.mn) / 255.0) + 0.5)))
           AS BIGINT)
         ELSE 0 END AS code
  FROM vals v JOIN stats s USING (ord)
)"""


def sq8_codes_sql(dim: int = 64, sample_mod: int = 16) -> str:
    """SQ8 code table, flat (vec_id, ord, code) rows (flat avoids Arrow
    list-child-name schema mismatches in the gate compare). ``sample_mod``
    keeps every vector but every ``sample_mod``-th dimension — the full
    per-dim stats still back every emitted code."""
    return f"""WITH {_sq8_cte(dim)}
SELECT vec_id, ord, code FROM sq_codes
WHERE ord % {sample_mod} = 1 ORDER BY vec_id, ord"""


def knn_sq8_sql(query_vec_ids: list[int], dim: int = 64, k: int = 10) -> str:
    """Asymmetric SQ8 top-k (ops/sq.py knn_sq8): candidates reconstructed
    as mn + code * ((mx-mn)/255), squared-L2 to the raw query, ties →
    lower vec_id. Rank-only output like knn_exact_sql."""
    ids = ", ".join(str(i) for i in query_vec_ids)
    return f"""WITH {_sq8_cte(dim)},
q AS (SELECT vec_id AS query_id, embedding FROM embeddings
      WHERE vec_id IN ({ids})),
qvals AS (
  SELECT q.query_id, t.g AS ord, CAST(q.embedding[t.g] AS DOUBLE) AS qval
  FROM q, generate_series(1, {dim}) AS t(g)
),
rec AS (
  SELECT c.vec_id, c.ord,
         CASE WHEN s.mx > s.mn
              THEN s.mn + c.code * ((s.mx - s.mn) / 255.0)
              ELSE s.mn END AS rv
  FROM sq_codes c JOIN stats s USING (ord)
),
dist AS (
  -- fixed-order summation (see knn_pq_adc_sql): unordered SUM flaps at
  -- near-ties under the parallel hash aggregate
  SELECT qv.query_id, r.vec_id,
         list_sum(list(POWER(r.rv - qv.qval, 2) ORDER BY qv.ord)) AS d
  FROM rec r JOIN qvals qv USING (ord)
  GROUP BY qv.query_id, r.vec_id
)
SELECT query_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY d ASC, vec_id ASC) AS BIGINT) AS rank,
       vec_id
FROM dist QUALIFY rank <= {k} ORDER BY query_id, rank"""


def knn_ivfpq_sql(query_vec_ids: list[int], n_lists: int = 8,
                  nprobe: int = 2, m: int = 4, k_codewords: int = 16,
                  dim: int = 64, k: int = 10) -> str:
    """IVFADC oracle (ops/pq.py knn_ivfpq, non-residual variant): coarse
    centroids = the n_lists lowest-id vectors (L2, un-normalized); every
    vector assigned to its L2-nearest list (ties → lower list); each query
    probes its nprobe closest lists; candidates ranked by ADC distance
    over the PQ codes, ties → lower vec_id. The oracle re-derives the
    ENTIRE approximate pipeline — assignment, probe routing, codes, ADC."""
    dsub = dim // m
    ids = ", ".join(str(i) for i in query_vec_ids)
    return f"""WITH {_pq_codes_cte(m, k_codewords, dim)},
coarse AS (
  SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS list,
         embedding
  FROM (SELECT vec_id, embedding FROM embeddings ORDER BY vec_id
        LIMIT {n_lists})
),
vlist AS (
  SELECT vec_id, list FROM (
    SELECT e.vec_id, c.list,
           row_number() OVER (PARTITION BY e.vec_id ORDER BY
             list_distance(e.embedding::DOUBLE[], c.embedding::DOUBLE[])
             ASC, c.list ASC) AS rk
    FROM embeddings e CROSS JOIN coarse c)
  WHERE rk = 1
),
q AS (SELECT vec_id AS query_id, embedding FROM embeddings
      WHERE vec_id IN ({ids})),
allowed AS (
  SELECT query_id, list FROM (
    SELECT q.query_id, c.list,
           row_number() OVER (PARTITION BY q.query_id ORDER BY
             list_distance(q.embedding::DOUBLE[], c.embedding::DOUBLE[])
             ASC, c.list ASC) AS rk
    FROM q CROSS JOIN coarse c)
  WHERE rk <= {nprobe}
),
cand AS (
  SELECT a.query_id, v.vec_id
  FROM allowed a JOIN vlist v ON v.list = a.list
),
adc AS (
  -- fixed-order summation (see knn_pq_adc_sql): unordered SUM flaps at
  -- near-ties under the parallel hash aggregate
  SELECT cand.query_id, cand.vec_id,
         list_sum(list(POWER(list_distance(
           list_slice(q.embedding::DOUBLE[], pc2.s*{dsub}+1, pc2.s*{dsub}+{dsub}),
           list_slice(s2.embedding::DOUBLE[], pc2.s*{dsub}+1, pc2.s*{dsub}+{dsub})
         ), 2) ORDER BY pc2.s)) AS dist
  FROM cand
  JOIN q ON q.query_id = cand.query_id
  JOIN pq_codes pc2 ON pc2.vec_id = cand.vec_id
  JOIN seeds s2 ON s2.code = pc2.code
  GROUP BY cand.query_id, cand.vec_id
)
SELECT query_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY dist ASC, vec_id ASC) AS BIGINT) AS rank,
       vec_id
FROM adc QUALIFY rank <= {k} ORDER BY query_id, rank"""


def mlt_terms_sql(doc_id: int = 0, max_terms: int = 25, min_tf: int = 2,
                  min_df: int = 5) -> str:
    """MoreLikeThis term ranking for one doc: score = tf * (1 + ln(N/(df+1)))
    in double — identical to the engine's math, so ranks match exactly."""
    return f"""WITH {_toks_cte()},
src AS (
  SELECT term, count(*) AS tf
  FROM (SELECT unnest(string_split(text, ' ')) AS term
        FROM documents WHERE doc_id = {doc_id})
  WHERE term <> '' GROUP BY term
),
dfs AS (
  -- df from the INDEX's term dictionary: stopwords never get postings, so
  -- they rank out exactly as in the engine (df lookup misses → dropped)
  SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term
),
scored AS (
  SELECT s.term, s.tf, d.df,
         s.tf * (1.0 + ln(CAST((SELECT count(*) FROM documents) AS DOUBLE)
                          / (d.df + 1.0))) AS score
  FROM src s JOIN dfs d USING (term)
  WHERE s.tf >= {min_tf} AND d.df >= {min_df}
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, term ASC) AS BIGINT) AS rank,
       term, tf, df
FROM scored ORDER BY score DESC, term ASC LIMIT {max_terms}"""


def mlt_search_sql(doc_id: int = 0, n_terms: int = 2, k: int = 10,
                   min_tf: int = 2, min_df: int = 5) -> str:
    """MoreLikeThisQuery oracle (ops/mlt.py more_like_this_query): the
    top-``n_terms`` MLT terms of ``doc_id`` are derived IN SQL, then a
    data-driven BM25 OR runs over them. ``n_terms`` must be ≤ 2: the
    engine sums clause scores in float32 clause order, and a two-value
    DOUBLE SUM rounded once equals exactly one f32 add."""
    assert n_terms <= 2
    return f"""WITH {_toks_cte()},{_NORM_CTE},
src AS (
  SELECT term, count(*) AS tf
  FROM (SELECT unnest(string_split(text, ' ')) AS term
        FROM documents WHERE doc_id = {doc_id})
  WHERE term <> '' GROUP BY term
),
dfs AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term
),
mscored AS (
  SELECT s.term,
         s.tf * (1.0 + ln(CAST((SELECT N FROM coll) AS DOUBLE)
                          / (d.df + 1.0))) AS mscore
  FROM src s JOIN dfs d USING (term)
  WHERE s.tf >= {min_tf} AND d.df >= {min_df}
),
mlt AS (
  SELECT term FROM mscored ORDER BY mscore DESC, term ASC LIMIT {n_terms}
),
qweights AS (
  SELECT d.term,
    CAST(ln(1 + (CAST((SELECT N FROM coll) AS DOUBLE) - d.df + 0.5)
            /(d.df + 0.5)) AS REAL) * {K1P1_R} AS wv
  FROM dfs d WHERE d.term IN (SELECT term FROM mlt)
),
tf2 AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN (SELECT term FROM mlt) GROUP BY doc_id, term
),
persc AS (
  SELECT tf2.doc_id, (w.wv * tf2.f) / (tf2.f + c.cache) AS s
  FROM tf2
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf2.doc_id
),
scored AS (
  SELECT doc_id, CAST(SUM(s) AS REAL) AS score FROM persc GROUP BY doc_id
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def semi_join_sql() -> str:
    return """SELECT o.o_orderkey, o.o_custkey
FROM orders o
WHERE o.o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000)
ORDER BY o.o_orderkey"""


def term_stats_cjk_sql() -> str:
    """(term, df, ttf) over the deterministic CJK corpus (sources/cjk.py).

    Re-derives the EXPECTED token stream from the same md5 formulas that
    generate the corpus text — Han/Hiragana one token per code point,
    Katakana/Hangul one token per run, latin words verbatim — so a compare
    against the engine's termstats validates the tokenizer's CJK token
    classes (StandardTokenizer.cs:85-104) without reimplementing UAX#29."""
    from lucenenet_ray.sources.cjk import (
        HAN, HANGUL, HIRAGANA, KATAKANA, LATIN_WORDS, N_DOCS, N_SEGS,
    )

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    words = ", ".join(f"'{w}'" for w in LATIN_WORDS)
    return f"""WITH docs AS (
  SELECT doc_id FROM documents WHERE doc_id < {N_DOCS}
),
segs AS (
  SELECT doc_id, j,
    {md5i("'cjk-s-'||doc_id||'-'||j")} % 5 AS script,
    1 + ({md5i("'cjk-l-'||doc_id||'-'||j")} % 3) AS seglen
  FROM docs, generate_series(0, {N_SEGS - 1}) AS t(j)
),
chars AS (
  SELECT doc_id, j, script, k,
    {md5i("'cjk-c-'||doc_id||'-'||j||'-'||k")} AS r
  FROM segs, LATERAL (SELECT unnest(range(0, seglen)) AS k)
),
tokens AS (
  SELECT doc_id, chr(CAST({HAN[0]} + (r % {HAN[1]}) AS INTEGER)) AS term
  FROM chars WHERE script = 0
  UNION ALL
  SELECT doc_id, chr(CAST({HIRAGANA[0]} + (r % {HIRAGANA[1]}) AS INTEGER))
  FROM chars WHERE script = 1
  UNION ALL
  SELECT doc_id, string_agg(chr(CAST({KATAKANA[0]} + (r % {KATAKANA[1]}) AS INTEGER)), '' ORDER BY k)
  FROM chars WHERE script = 2 GROUP BY doc_id, j
  UNION ALL
  SELECT doc_id, string_agg(chr(CAST({HANGUL[0]} + (r % {HANGUL[1]}) AS INTEGER)), '' ORDER BY k)
  FROM chars WHERE script = 3 GROUP BY doc_id, j
  UNION ALL
  SELECT doc_id, ([{words}])[1 + (r % {len(LATIN_WORDS)})]
  FROM chars WHERE script = 4 AND k = 0
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM tokens GROUP BY term ORDER BY term"""


def smartcn_term_stats_sql() -> str:
    """(term, df, ttf) over the RAW split of the deterministic SmartCn
    corpus (sources/smartcn.py). The corpus vocabulary is prefix-free with
    word-initial/continuation code-point classes disjoint, so the TRUE
    segmentation of each unsegmented raw doc is unique and re-derivable
    here straight from the md5 generator formulas; the engine has to
    recover it with the HHMM seg-graph + bigram Viterbi
    (Hhmm/HHMMSegmenter.cs, BiSegGraph.cs:52-118)."""
    from lucenenet_ray.sources.smartcn import (
        C_BASE, C_RANGE, N_DOCS, N_TRAIN, S_BASE, S_RANGE, V,
    )

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    return f"""WITH ids AS (
  SELECT doc_id FROM documents
  WHERE doc_id >= {N_TRAIN} AND doc_id < {N_DOCS}
),
rawpos AS (
  SELECT doc_id, j,
    {md5i("'scn-d-'||doc_id||'-'||j")} % {V} AS widx
  FROM ids, generate_series(0, 14) AS t(j)
  WHERE j < 6 + ({md5i("'scn-n-'||doc_id")} % 10)
),
vocab AS (
  SELECT i, (i % {S_RANGE}) AS s_idx
  FROM generate_series(0, {V - 1}) AS t(i)
),
vwords AS (
  SELECT i,
    chr(CAST({S_BASE} + s_idx AS INTEGER)) || COALESCE(string_agg(
      chr(CAST({C_BASE} + ({md5i("'scn-w-'||i||'-'||k")} % {C_RANGE})
          AS INTEGER)), '' ORDER BY k), '') AS word
  FROM vocab LEFT JOIN LATERAL
    (SELECT unnest(range(1, 1 + s_idx % 3)) AS k) ON TRUE
  GROUP BY i, s_idx
)
SELECT word AS term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM rawpos JOIN vwords ON vwords.i = rawpos.widx
GROUP BY word ORDER BY term"""


def kuromoji_term_stats_sql() -> str:
    """(term, df, ttf) over the deterministic Kuromoji corpus
    (sources/kuromoji.py): true segmentation re-derived from the md5
    generator formulas (prefix-free katakana vocabulary => unique)."""
    from lucenenet_ray.sources.kuromoji import (
        C_BASE, C_RANGE, N_DOCS, S_BASE, S_RANGE, V,
    )

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    return f"""WITH ids AS (
  SELECT doc_id FROM documents WHERE doc_id < {N_DOCS}
),
rawpos AS (
  SELECT doc_id, j,
    {md5i("'kj-d-'||doc_id||'-'||j")} % {V} AS widx
  FROM ids, generate_series(0, 14) AS t(j)
  WHERE j < 6 + ({md5i("'kj-n-'||doc_id")} % 10)
),
vocab AS (
  SELECT i, (i % {S_RANGE}) AS s_idx
  FROM generate_series(0, {V - 1}) AS t(i)
),
vwords AS (
  SELECT i,
    chr(CAST({S_BASE} + s_idx AS INTEGER)) || COALESCE(string_agg(
      chr(CAST({C_BASE} + ({md5i("'kj-w-'||i||'-'||k")} % {C_RANGE})
          AS INTEGER)), '' ORDER BY k), '') AS word
  FROM vocab LEFT JOIN LATERAL
    (SELECT unnest(range(1, 1 + s_idx % 3)) AS k) ON TRUE
  GROUP BY i, s_idx
)
SELECT word AS term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM rawpos JOIN vwords ON vwords.i = rawpos.widx
GROUP BY word ORDER BY term"""


def stempel_term_stats_sql() -> str:
    """(term, df, ttf) over the md5-synthesized Stempel corpus
    (sources/stempel.py): the true stem of every corpus word is
    re-derived from the generator formulas (word position p of doc d
    uses stem index md5('st-i-d-p') % N_STEMS)."""
    from lucenenet_ray.sources.stempel import N_DOCS, N_STEMS

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    return f"""WITH ids AS (
  SELECT doc_id FROM documents WHERE doc_id < {N_DOCS}
),
pos AS (
  SELECT doc_id, p,
    {md5i("'st-i-'||doc_id||'-'||p")} % {N_STEMS} AS si
  FROM ids, generate_series(0, 14) AS t(p)
  WHERE p < 8 + ({md5i("'st-n-'||doc_id")} % 8)
),
stems AS (
  SELECT i, string_agg(
    chr(CAST(97 + ({md5i("'st-s-'||i||'-'||k")} % 13) AS INTEGER)),
    '' ORDER BY k) AS stem
  FROM generate_series(0, {N_STEMS - 1}) AS t(i),
       LATERAL (SELECT unnest(range(0,
         3 + {md5i("'st-l-'||i")} % 3)) AS k)
  GROUP BY i
)
SELECT stem AS term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM pos JOIN stems ON stems.i = pos.si
GROUP BY stem ORDER BY term"""


def hyphen_compound_stats_sql() -> str:
    """(term, df, ttf) over the compound corpus (sources/hyphen.py):
    every compound token passes through; constituents are emitted only
    when the compound reaches minWordSize=5
    (CompoundWordTokenFilterBase.cs:44,126)."""
    from lucenenet_ray.sources.hyphen import N_DOCS, N_WORDS

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    return f"""WITH ids AS (
  SELECT doc_id FROM documents WHERE doc_id < {N_DOCS}
),
vocab AS (
  SELECT i,
    chr(CAST(97 + (i % 20) AS INTEGER)) || COALESCE(string_agg(
      chr(CAST(117 + ({md5i("'hy-w-'||i||'-'||k")} % 6) AS INTEGER)),
      '' ORDER BY k), '') AS word,
    2 + (i % 20) % 3 AS wlen
  FROM generate_series(0, {N_WORDS - 1}) AS t(i)
  LEFT JOIN LATERAL (SELECT unnest(range(1, 2 + (i % 20) % 3)) AS k) ON TRUE
  GROUP BY i
),
slots AS (
  SELECT doc_id, c, j,
    {md5i("'hy-d-'||doc_id||'-'||c||'-'||j")} % {N_WORDS} AS widx
  FROM ids,
    generate_series(0, 8) AS tc(c),
    generate_series(0, 2) AS tj(j)
  WHERE c < 4 + ({md5i("'hy-m-'||doc_id")} % 5)
    AND j < 2 + ({md5i("'hy-k-'||doc_id||'-'||c")} % 2)
),
comps AS (
  SELECT doc_id, c,
    string_agg(word, '' ORDER BY j) AS comp,
    sum(wlen) AS total
  FROM slots JOIN vocab ON vocab.i = slots.widx
  GROUP BY doc_id, c
),
tokens AS (
  SELECT doc_id, comp AS term FROM comps
  UNION ALL
  SELECT s.doc_id, v.word AS term
  FROM slots s
  JOIN vocab v ON v.i = s.widx
  JOIN comps cp ON cp.doc_id = s.doc_id AND cp.c = s.c
  WHERE cp.total >= 5
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM tokens GROUP BY term ORDER BY term"""


def bm_phonetic_stats_sql() -> str:
    """(term, df, ttf) over Beider-Morse encodings of the synthesized
    corpus (sources/bm.py): unit sequence, next-unit context (LEAD) and
    the final translate() re-derived from the md5 formulas."""
    from lucenenet_ray.sources.bm import (
        FINAL_SRC, N_DOCS, N_UNITS, RCTX_SET, final_map,
    )

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    rctx = ", ".join(f"'{c}'" for c in RCTX_SET)

    def ph(var: int) -> str:
        e0 = md5i(f"'bm-p{var}-'||i0||'-0'")
        e1 = md5i(f"'bm-p{var}-'||i0||'-1'")
        return (f"chr(CAST(117 + ({e0} % 6) AS INTEGER)) || "
                f"chr(CAST(117 + ({e1} % 6) AS INTEGER))")

    return f"""WITH ids AS (
  SELECT doc_id FROM documents WHERE doc_id < {N_DOCS}
),
units AS (
  SELECT i,
    chr(CAST(97 + (i % 10) AS INTEGER)) || COALESCE(string_agg(
      chr(CAST(107 + ({md5i("'bm-u-'||i||'-'||k")} % 10) AS INTEGER)),
      '' ORDER BY k), '') AS word
  FROM generate_series(0, {N_UNITS - 1}) AS t(i)
  LEFT JOIN LATERAL (SELECT unnest(range(1, 1 + (i % 10) % 2)) AS k) ON TRUE
  GROUP BY i
),
vocab AS (
  SELECT word, min(i) AS i0 FROM units GROUP BY word
),
ph AS (
  SELECT word, {ph(1)} AS ph1, {ph(2)} AS ph2 FROM vocab
),
slots AS (
  SELECT doc_id, w, j,
    {md5i("'bm-d-'||doc_id||'-'||w||'-'||j")} % {N_UNITS} AS uidx
  FROM ids,
    generate_series(0, 13) AS tw(w),
    generate_series(0, 4) AS tj(j)
  WHERE w < 6 + ({md5i("'bm-n-'||doc_id")} % 8)
    AND j < 2 + ({md5i("'bm-k-'||doc_id||'-'||w")} % 3)
),
seq AS (
  SELECT s.doc_id, s.w, s.j, u.word, p.ph1, p.ph2,
    lead(substr(u.word, 1, 1)) OVER
      (PARTITION BY s.doc_id, s.w ORDER BY s.j) AS nxt
  FROM slots s
  JOIN units u ON u.i = s.uidx
  JOIN ph p ON p.word = u.word
),
enc AS (
  SELECT doc_id, w,
    translate(string_agg(
      CASE WHEN nxt IN ({rctx}) THEN ph1 ELSE ph2 END, '' ORDER BY j),
      '{FINAL_SRC}', '{final_map()}') AS term
  FROM seq GROUP BY doc_id, w
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM enc GROUP BY term ORDER BY term"""


def join_scored_none_sql() -> str:
    return """SELECT l_orderkey, CAST(count(*) AS BIGINT) AS score
FROM lineitem WHERE l_returnflag = 'R'
GROUP BY l_orderkey
ORDER BY score DESC, l_orderkey ASC LIMIT 20"""


def join_scored_total_sql() -> str:
    return """SELECT l_orderkey,
       CAST(sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT))
            AS BIGINT) AS score
FROM lineitem WHERE l_returnflag = 'R'
GROUP BY l_orderkey
ORDER BY score DESC, l_orderkey ASC LIMIT 20"""


def pos_tag_stats_sql() -> str:
    """(tag, df, n) over the RAW split of the POS corpus
    (sources/pos.py): true tag = pure function of the word id's initial
    range, re-derived from the md5 formulas."""
    from lucenenet_ray.sources.pos import N_DOCS, N_TRAIN, S_RANGE, TAGS, V

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    tags_arr = ", ".join(f"'{t}'" for t in TAGS)
    return f"""WITH ids AS (
  SELECT doc_id FROM documents
  WHERE doc_id >= {N_TRAIN} AND doc_id < {N_DOCS}
),
pos AS (
  SELECT doc_id, j,
    ([{tags_arr}])[1 + (({md5i("'pos-d-'||doc_id||'-'||j")} % {V})
                        % {S_RANGE}) // 3] AS tag
  FROM ids, generate_series(0, 14) AS t(j)
  WHERE j < 6 + ({md5i("'pos-n-'||doc_id")} % 10)
)
SELECT tag, count(DISTINCT doc_id) AS df, count(*) AS n
FROM pos GROUP BY tag ORDER BY tag"""


def quality_eval_sql(terms: tuple[str, ...], k: int, mod: int,
                     avp_lcm: int) -> str:
    """Quality-benchmark oracle: re-rank each single-term query with the
    full BM25 SQL (bit-identical to the engine), join the md5 relevance
    judgments, and emit the same exact-integer metric numerators."""

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    ranked = "\nUNION ALL\n".join(
        f"SELECT '{t}' AS qt, rank, doc_id FROM ({bm25_topk_sql([t], k)})"
        for t in terms)
    values = ", ".join(f"('{t}')" for t in terms)
    rel_expr_r = md5i("'qrel-'||qt||'-'||doc_id")
    rel_expr_d = md5i("'qrel-'||t.qt||'-'||d.doc_id")
    return f"""WITH ranked AS (
{ranked}
),
cum AS (
  SELECT qt, rank,
    CASE WHEN {rel_expr_r} % {mod} = 0 THEN 1 ELSE 0 END AS rel,
    sum(CASE WHEN {rel_expr_r} % {mod} = 0 THEN 1 ELSE 0 END)
      OVER (PARTITION BY qt ORDER BY rank) AS good
  FROM ranked
),
mg AS (
  SELECT t.qt, count(*) AS max_good
  FROM (VALUES {values}) AS t(qt), documents d
  WHERE {rel_expr_d} % {mod} = 0
  GROUP BY t.qt
),
agg AS (
  SELECT qt,
    max(rank) AS num_ret,
    COALESCE(min(rank) FILTER (WHERE rel = 1 AND rank <= 5), 0) AS mrr_rank,
    COALESCE(max(good) FILTER (WHERE rank <= 5), 0) AS p5_num,
    COALESCE(max(good) FILTER (WHERE rank <= 10), 0) AS p10_num,
    max(good) AS good_total,
    COALESCE(sum(good * ({avp_lcm} // rank)) FILTER (WHERE rel = 1), 0)
      AS avp_scaled
  FROM cum GROUP BY qt
)
SELECT a.qt AS query_term,
       CAST(a.num_ret AS BIGINT) AS num_ret,
       CAST(COALESCE(m.max_good, 0) AS BIGINT) AS num_rel,
       CAST(a.mrr_rank AS BIGINT) AS mrr_rank,
       CAST(a.p5_num AS BIGINT) AS p5_num,
       CAST(a.p10_num AS BIGINT) AS p10_num,
       CAST(a.good_total AS BIGINT) AS good_total,
       CAST(a.avp_scaled AS BIGINT) AS avp_scaled
FROM agg a LEFT JOIN mg m ON m.qt = a.qt
ORDER BY query_term"""


_SNAP_EPOCH_US = 1704067200000000  # 2024-01-01 UTC, microseconds


def _snaps_cte(salt: str, span_days: int) -> str:
    md5i = _MD5_INT31.format(s=f"'{salt}-'||o_orderkey")
    return f"""SELECT o_custkey % 15 AS user_id, o_orderkey, o_totalprice,
    {_SNAP_EPOCH_US} + ({md5i} % {span_days * 86400}) * 1000000 AS snap_us
  FROM orders"""


def asof_join_sql() -> str:
    """Latest snapshot (snap_us <= event ts, ties by greatest o_orderkey)
    per event of the same user; LEFT semantics."""
    return f"""WITH snaps AS (
  {_snaps_cte("snap", 30)}
),
ev AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us FROM events
),
j AS (
  SELECT e.event_id, s.o_orderkey, s.o_totalprice,
    row_number() OVER (PARTITION BY e.event_id
                       ORDER BY s.snap_us DESC, s.o_orderkey DESC) AS rn
  FROM ev e LEFT JOIN snaps s
    ON s.user_id = e.user_id AND s.snap_us <= e.ts_us
)
SELECT event_id, o_orderkey, o_totalprice FROM j
WHERE rn = 1 ORDER BY event_id"""


def range_join_events_sql() -> str:
    """Per 3-day synthesized order window: count + exact milli-scaled sum
    of same-user event values in [start, end)."""
    return f"""WITH wins AS (
  SELECT user_id, o_orderkey, snap_us AS ws,
         snap_us + {3 * 86400000000} AS we
  FROM ({_snaps_cte("win", 27)})
),
ev AS (
  SELECT user_id, epoch_us(ts) AS ts_us,
         CAST(round(value * 1000, 0) AS BIGINT) AS vm
  FROM events
)
SELECT w.o_orderkey,
       count(e.ts_us) AS n,
       CAST(COALESCE(sum(e.vm), 0) AS BIGINT) AS total_milli
FROM wins w LEFT JOIN ev e
  ON e.user_id = w.user_id AND e.ts_us >= w.ws AND e.ts_us < w.we
GROUP BY w.o_orderkey ORDER BY w.o_orderkey"""


def term_stats_cjk_bigram_sql() -> str:
    """(term, df, ttf) after the CJKBigramFilter chain (HAN|HIRAGANA
    flags) over the deterministic CJK corpus: Han/Hiragana segments of
    length n emit n-1 intra-segment bigrams (n>=2) or one unigram (n==1)
    — whitespace between segments breaks offset alignment, so bigrams
    never cross segments (CJKBigramFilter.cs IncrementToken clears its
    buffer on unaligned offsets); Katakana/Hangul runs and latin words
    pass through unmodified."""
    from lucenenet_ray.sources.cjk import (
        HAN, HANGUL, HIRAGANA, KATAKANA, LATIN_WORDS, N_DOCS, N_SEGS,
    )

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    words = ", ".join(f"'{w}'" for w in LATIN_WORDS)
    return f"""WITH docs AS (
  SELECT doc_id FROM documents WHERE doc_id < {N_DOCS}
),
segs AS (
  SELECT doc_id, j,
    {md5i("'cjk-s-'||doc_id||'-'||j")} % 5 AS script,
    1 + ({md5i("'cjk-l-'||doc_id||'-'||j")} % 3) AS seglen
  FROM docs, generate_series(0, {N_SEGS - 1}) AS t(j)
),
chars AS (
  SELECT doc_id, j, script, seglen, k,
    {md5i("'cjk-c-'||doc_id||'-'||j||'-'||k")} AS r
  FROM segs, LATERAL (SELECT unnest(range(0, seglen)) AS k)
),
hh AS (
  SELECT doc_id, j, seglen, k,
    CASE WHEN script = 0
         THEN chr(CAST({HAN[0]} + (r % {HAN[1]}) AS INTEGER))
         ELSE chr(CAST({HIRAGANA[0]} + (r % {HIRAGANA[1]}) AS INTEGER))
    END AS ch
  FROM chars WHERE script IN (0, 1)
),
tokens AS (
  SELECT a.doc_id, a.ch || b.ch AS term
  FROM hh a JOIN hh b ON b.doc_id = a.doc_id AND b.j = a.j AND b.k = a.k + 1
  UNION ALL
  SELECT doc_id, ch FROM hh WHERE seglen = 1
  UNION ALL
  SELECT doc_id, string_agg(chr(CAST({KATAKANA[0]} + (r % {KATAKANA[1]}) AS INTEGER)), '' ORDER BY k)
  FROM chars WHERE script = 2 GROUP BY doc_id, j
  UNION ALL
  SELECT doc_id, string_agg(chr(CAST({HANGUL[0]} + (r % {HANGUL[1]}) AS INTEGER)), '' ORDER BY k)
  FROM chars WHERE script = 3 GROUP BY doc_id, j
  UNION ALL
  SELECT doc_id, ([{words}])[1 + (r % {len(LATIN_WORDS)})]
  FROM chars WHERE script = 4 AND k = 0
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM tokens GROUP BY term ORDER BY term"""


def term_stats_multilang_sql() -> str:
    """Per-language analyzer dispatch: stop set chosen by the lang column
    (de/fr/es; everything else routes through the English default chain)."""
    from lucenenet_ray.analysis.lang import FRENCH_STOP, GERMAN_STOP, SPANISH_STOP

    def sset(s):
        return "(" + ", ".join(f"'{w}'" for w in sorted(s)) + ")"

    return f"""WITH toks AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS term FROM documents
),
kept AS (
  SELECT doc_id, term FROM toks
  WHERE term <> '' AND NOT (
       (lang = 'de' AND term IN {sset(GERMAN_STOP)})
    OR (lang = 'fr' AND term IN {sset(FRENCH_STOP)})
    OR (lang = 'es' AND term IN {sset(SPANISH_STOP)})
    OR (lang NOT IN ('de','fr','es') AND term IN {STOP_SQL})
  )
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM kept GROUP BY term ORDER BY term"""


def term_stats_de_stemmed_sql() -> str:
    """GermanLightStemmer oracle (Analysis/De/GermanLightStemmer.cs): the
    two suffix steps expressed as CASE chains over the 'de' docs (the corpus
    is ASCII so the stemmer's accent fold is a no-op here). Stop set =
    the engine's German set, as in term_stats_multilang."""
    from lucenenet_ray.analysis.lang import GERMAN_STOP

    stop = "(" + ", ".join(f"'{w}'" for w in sorted(GERMAN_STOP)) + ")"
    st = "('b','d','f','g','h','k','l','m','n','t')"
    return f"""WITH t0 AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w
  FROM documents WHERE lang = 'de'
),
k AS (SELECT doc_id, w FROM t0 WHERE w <> '' AND w NOT IN {stop}),
s1 AS (
  SELECT doc_id, CASE
    WHEN len(w) > 5 AND w LIKE '%ern' THEN substr(w, 1, len(w)-3)
    WHEN len(w) > 4 AND substr(w, len(w)-1, 1) = 'e'
         AND substr(w, len(w), 1) IN ('m','n','r','s')
      THEN substr(w, 1, len(w)-2)
    WHEN len(w) > 3 AND substr(w, len(w), 1) = 'e' THEN substr(w, 1, len(w)-1)
    WHEN len(w) > 3 AND substr(w, len(w), 1) = 's'
         AND substr(w, len(w)-1, 1) IN {st}
      THEN substr(w, 1, len(w)-1)
    ELSE w END AS w
  FROM k
),
s2 AS (
  SELECT doc_id, CASE
    WHEN len(w) > 5 AND w LIKE '%est' THEN substr(w, 1, len(w)-3)
    WHEN len(w) > 4 AND substr(w, len(w)-1, 1) = 'e'
         AND substr(w, len(w), 1) IN ('r','n')
      THEN substr(w, 1, len(w)-2)
    WHEN len(w) > 4 AND substr(w, len(w)-1, 2) = 'st'
         AND substr(w, len(w)-2, 1) IN {st}
      THEN substr(w, 1, len(w)-2)
    ELSE w END AS term
  FROM s1
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM s2 GROUP BY term ORDER BY term"""


def spell_suggest_sql(term: str, max_edits: int = 2, k: int = 5) -> str:
    """DirectSpellChecker analog: dictionary terms within edit distance,
    ranked (distance asc, df desc, term asc)."""
    esc = term.replace("'", "''")
    return f"""WITH {_toks_cte()},
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term)
SELECT term, CAST(levenshtein(term, '{esc}') AS BIGINT) AS distance, df
FROM dfs
WHERE term <> '{esc}' AND levenshtein(term, '{esc}') <= {max_edits}
ORDER BY distance, df DESC, term LIMIT {k}"""


def sort_by_field_sql(term: str, k: int = 20) -> str:
    """TopFieldCollector analog: docs matching `term`, sorted by a stored
    field (n_chars desc, doc_id asc) instead of relevance (Sort/SortField)."""
    esc = term.replace("'", "''")
    return f"""WITH {_toks_cte()}
SELECT DISTINCT k.doc_id, d.n_chars
FROM kept k JOIN documents d USING (doc_id)
WHERE k.term = '{esc}'
ORDER BY d.n_chars DESC, k.doc_id ASC LIMIT {k}"""


def grouping_topk_sql(k: int = 3) -> str:
    """Grouping-module analog: top-k docs per lang by (n_chars desc, doc_id)."""
    return f"""SELECT lang, doc_id, n_chars, rnk FROM (
  SELECT lang, doc_id, n_chars,
         CAST(row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC) AS BIGINT) AS rnk
  FROM documents) WHERE rnk <= {k} ORDER BY lang, rnk"""


# ---------------------------------------------------------------------------
# classification (Lucene.Net.Classification analogs, ops/classify.py)

_NB_STATS_CTE = """
pairs AS (SELECT DISTINCT doc_id, term FROM kept),
body AS (
  -- Terms.SumDocFreq / Terms.DocCount of the text field
  SELECT count(*) AS sumdf, count(DISTINCT doc_id) AS dc FROM pairs
),
cls AS (SELECT source AS c, count(*) AS dfc FROM documents GROUP BY source),
tot AS (SELECT CAST(sum(dfc) AS BIGINT) AS D FROM cls)"""


def _nb_percls_cte(input_filter: str) -> str:
    """(input_id, class, pos) → per-token ln((hits+1)/den) rows; the
    likelihood sum is a left-assoc list_reduce in token order, matching the
    engine's accumulation (SimpleNaiveBayesClassifier.cs:168-190).  DuckDB
    ln() is libm — bit-identical to the engine's math.log (verified)."""
    return f"""
itoks AS (
  SELECT doc_id AS input_id, term, pos FROM kept WHERE {input_filter}
),
hits AS (
  SELECT k.term, d.source AS c, count(DISTINCT k.doc_id) AS h
  FROM kept k JOIN documents d USING (doc_id)
  WHERE k.term IN (SELECT DISTINCT term FROM itoks)
  GROUP BY k.term, d.source
),
percl AS (
  SELECT i.input_id, cl.c, i.pos,
         ln((COALESCE(h.h, 0) + 1.0)
            / ((CAST((SELECT sumdf FROM body) AS DOUBLE)
                / (SELECT dc FROM body)) * cl.dfc + (SELECT D FROM tot)))
           AS lnv
  FROM itoks i CROSS JOIN cls cl
  LEFT JOIN hits h ON h.term = i.term AND h.c = cl.c
),
lik AS (
  SELECT input_id, c,
         list_reduce(list(lnv ORDER BY pos), (x, y) -> x + y) AS l
  FROM percl GROUP BY input_id, c
),
logps AS (
  SELECT l.input_id, l.c,
         (ln(CAST(cl.dfc AS DOUBLE))
          - ln(CAST((SELECT D FROM tot) AS DOUBLE))) + l.l AS logp
  FROM lik l JOIN cls cl ON cl.c = l.c
)"""


def nb_classify_sql(doc_ids: list[int]) -> str:
    """Per-class naive-Bayes log-probabilities for the given input docs
    (SimpleNaiveBayesClassifier.AssignClass inner loop, classify.py
    NaiveBayesClassifier.log_probs) — doubles, bit-exact."""
    ids = ", ".join(str(i) for i in doc_ids)
    return f"""WITH {_toks_cte()},{_NB_STATS_CTE},{_nb_percls_cte(f"doc_id IN ({ids})")}
SELECT input_id, c AS cls, logp FROM logps ORDER BY input_id, cls"""


def nb_classify_all_sql() -> str:
    """Corpus-wide AssignClass (classify.py nb_classify_dataset): the argmax
    class per doc, ties to the lexicographically smallest class (the
    engine's strict-max in class-sorted order)."""
    return f"""WITH {_toks_cte()},{_NB_STATS_CTE},{_nb_percls_cte("TRUE")},
allc AS (
  -- docs with zero kept tokens still classify: prior-only logp
  SELECT d.doc_id AS input_id, cl.c,
         COALESCE(lp.logp,
                  ln(CAST(cl.dfc AS DOUBLE))
                  - ln(CAST((SELECT D FROM tot) AS DOUBLE))) AS logp
  FROM documents d CROSS JOIN cls cl
  LEFT JOIN logps lp ON lp.input_id = d.doc_id AND lp.c = cl.c
)
SELECT input_id AS doc_id, c AS cls
FROM (SELECT input_id, c,
             row_number() OVER (PARTITION BY input_id
                                ORDER BY logp DESC, c ASC) AS rn
      FROM allc)
WHERE rn = 1 ORDER BY doc_id"""


def knn_classify_sql(doc_id: int = 0, k: int = 10, max_terms: int = 25,
                     min_tf: int = 2, min_df: int = 5) -> str:
    """kNN classifier oracle (KNearestNeighborClassifier.cs:70-122 /
    classify.py KNNClassifier): MLT term selection for the input doc
    (mlt_terms_sql math), float32 BM25 over the selected terms with the
    clause-order left-assoc sum done by list_reduce (REAL-cast each step —
    bit-identical to the engine's float32 accumulation), top-k by
    (score desc, doc asc), then the class vote (votes desc, class asc)."""
    return f"""WITH {_toks_cte()},{_NORM_CTE},
src AS (
  SELECT term, count(*) AS tf
  FROM (SELECT unnest(string_split(text, ' ')) AS term
        FROM documents WHERE doc_id = {doc_id})
  WHERE term <> '' GROUP BY term
),
dfs AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term
),
mltsel AS (
  SELECT s.term, d.df,
         s.tf * (1.0 + ln(CAST((SELECT count(*) FROM documents) AS DOUBLE)
                          / (d.df + 1.0))) AS mscore
  FROM src s JOIN dfs d USING (term)
  WHERE s.tf >= {min_tf} AND d.df >= {min_df}
),
sel AS (
  SELECT term, df,
         CAST(row_number() OVER (ORDER BY mscore DESC, term ASC) AS BIGINT) AS r
  FROM mltsel ORDER BY mscore DESC, term ASC LIMIT {max_terms}
),
qw AS (
  SELECT term, r,
    CAST(ln(1 + (CAST((SELECT N FROM coll) AS DOUBLE) - df + 0.5)
            /(df + 0.5)) AS REAL) * {K1P1_R} AS wv
  FROM sel
),
tfq AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN (SELECT term FROM sel) GROUP BY doc_id, term
),
persc AS (
  SELECT tfq.doc_id, w.r, (w.wv * tfq.f) / (tfq.f + c.cache) AS sc
  FROM tfq JOIN qw w USING (term)
  JOIN normcache c ON c.doc_id = tfq.doc_id
),
cand AS (SELECT DISTINCT doc_id FROM persc),
fullm AS (
  SELECT cand.doc_id, s.r, COALESCE(p.sc, {ZERO_R}) AS sc
  FROM cand CROSS JOIN sel s
  LEFT JOIN persc p ON p.doc_id = cand.doc_id AND p.r = s.r
),
scored AS (
  SELECT doc_id,
         list_reduce(list(sc ORDER BY r), (x, y) -> CAST(x + y AS REAL))
           AS score
  FROM fullm GROUP BY doc_id
),
topk AS (
  SELECT doc_id FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
)
SELECT d.source AS cls, CAST(count(*) AS BIGINT) AS votes
FROM topk JOIN documents d USING (doc_id)
GROUP BY d.source ORDER BY votes DESC, cls ASC"""


# ---------------------------------------------------------------------------
# MemoryIndex / percolation (Lucene.Net.Memory analogs, ops/percolate.py)


def percolate_sql() -> str:
    """Match pairs for the fixed percolation query set in
    ``__ray_entry__._percolate_plans`` (ops/percolate.py Percolator).

    Phrase adjacency uses the kept CTE's ORIGINAL token positions (stopword
    holes preserved), matching the analyzer's position increments; the
    sloppy 2-term phrase matches iff some pair satisfies
    |pos2 - pos1 - 1| <= slop (SloppyPhraseScorer match condition for two
    distinct terms at offsets 0,1)."""
    def ex(term: str) -> str:
        return ("EXISTS (SELECT 1 FROM kept k WHERE k.doc_id = d.doc_id "
                f"AND k.term = '{term}')")

    q0 = f"{ex('spark')} AND {ex('window')}"
    q1 = ("EXISTS (SELECT 1 FROM kept a JOIN kept b ON b.doc_id = a.doc_id "
          "AND b.pos = a.pos + 1 AND b.term = 'merge' "
          "WHERE a.doc_id = d.doc_id AND a.term = 'batch')")
    q2 = f"({ex('vector')} OR {ex('dup')}) AND NOT {ex('spark')}"
    q3 = ("EXISTS (SELECT 1 FROM kept k WHERE k.doc_id = d.doc_id "
          "AND k.term LIKE 'sp%')")
    q4 = f"{ex('merge')} AND NOT {ex('window')}"
    q5 = ("EXISTS (SELECT 1 FROM kept a JOIN kept b ON b.doc_id = a.doc_id "
          "AND b.term = 'data' AND abs(b.pos - a.pos - 1) <= 2 "
          "WHERE a.doc_id = d.doc_id AND a.term = 'spark')")
    q6 = "d.n_chars >= 200 AND d.n_chars < 1200"
    arms = "\nUNION ALL\n".join(
        f"SELECT d.doc_id, 'q{i}' AS query_id FROM documents d WHERE {cond}"
        for i, cond in enumerate((q0, q1, q2, q3, q4, q5, q6)))
    return f"""WITH {_toks_cte()}
SELECT doc_id, query_id FROM ({arms})
ORDER BY doc_id, query_id"""


def memory_index_score_sql() -> str:
    """Per-doc MemoryIndex.Search score for the OR query 'spark merge'
    (ops/percolate.py MemoryIndex.search): each doc is its own one-doc
    collection — N = 1, df = 1 per present term, avgdl = the doc's own
    length — with the engine's float32 kernel (w*f)/(f+cache) and
    clause-order adds.  Docs matching neither term are absent (no-match =
    no hit, like the reference collector)."""
    # idf(N=1, df=1) = ln(1 + 0.5/1.5), float32; weight = f32(f32(idf*1f)*2.2f)
    wv = (f"CAST(CAST(ln(1 + 0.5/1.5) AS REAL) * CAST(1.0 AS REAL) AS REAL)"
          f" * {K1P1_R}")
    decoded = ("CAST((1.0 + CAST((n.nb + 384) % 4 AS DOUBLE)/4.0)"
               " * power(2.0, CAST(floor((n.nb + 384)/4) AS BIGINT) - 127)"
               " AS REAL)")
    return f"""WITH {_toks_cte()},{_NORM_CTE},
micache AS (
  -- per-doc cache: avgdl is the doc's OWN length (one-doc collection)
  SELECT n.doc_id,
    {K1_R} * ({ONE_MINUS_B_R} + {B_R} *
      (CAST(1.0 AS REAL) / ({decoded} * {decoded}))
      / CAST(CAST(n.L AS DOUBLE) AS REAL)) AS cache
  FROM normb n WHERE n.L > 0
),
tfq AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ('spark', 'merge') GROUP BY doc_id, term
),
persc AS (
  SELECT t.doc_id, t.term,
         CAST(({wv} * t.f) / (t.f + c.cache) AS REAL) AS sc
  FROM tfq t JOIN micache c USING (doc_id)
)
SELECT doc_id,
       CAST(COALESCE(s0.sc, {ZERO_R}) + COALESCE(s1.sc, {ZERO_R}) AS REAL)
         AS score
FROM (SELECT DISTINCT doc_id FROM persc) m
LEFT JOIN (SELECT doc_id, sc FROM persc WHERE term = 'spark') s0 USING (doc_id)
LEFT JOIN (SELECT doc_id, sc FROM persc WHERE term = 'merge') s1 USING (doc_id)
ORDER BY doc_id"""


# ---------------------------------------------------------------------------
# phonetic encoders (Lucene.Net.Analysis.Phonetic analogs, analysis/phonetic.py)


def _collapse_runs(expr: str, digits: str) -> str:
    """Adjacent-duplicate collapse without backrefs (DuckDB RE2 has none):
    one '{d}+' -> '{d}' replace per possible code digit."""
    for d in digits:
        expr = f"regexp_replace({expr}, '{d}+', '{d}', 'g')"
    return expr


def soundex_stats_sql(n: int = 20) -> str:
    """(soundex code, n_terms, sum_df) over the term dictionary — the
    Soundex.cs US_ENGLISH algorithm in SQL: first letter kept, H/W removed
    from the tail (they don't break runs), vowels kept as '0' separators
    through the collapse then dropped, pad to 4."""
    digits = ("translate(u[1] || translate(substr(u, 2), 'HW', ''), "
              "'ABCDEFGHIJKLMNOPQRSTUVWXYZ', '01230120022455012623010202')")
    coll = _collapse_runs(digits, "0123456")
    code = f"u[1] || substr(replace(substr({coll}, 2), '0', '') || '000', 1, 3)"
    return f"""WITH {_toks_cte()},
terms AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
),
coded AS (
  SELECT CASE WHEN u = '' THEN '' ELSE {code} END AS code, df
  FROM (SELECT upper(regexp_replace(term, '[^a-zA-Z]', '', 'g')) AS u, df
        FROM terms)
)
SELECT code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM coded GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def refined_soundex_stats_sql(n: int = 20) -> str:
    """(refined-soundex code, n_terms, sum_df) — RefinedSoundex.cs: first
    letter + EVERY letter's code (vowel '0's included), adjacent-duplicate
    collapse, unlimited length."""
    digits = ("translate(u, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ', "
              "'01360240043788015936020505')")
    code = f"u[1] || {_collapse_runs(digits, '0123456789')}"
    return f"""WITH {_toks_cte()},
terms AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
),
coded AS (
  SELECT CASE WHEN u = '' THEN '' ELSE {code} END AS code, df
  FROM (SELECT upper(regexp_replace(term, '[^a-zA-Z]', '', 'g')) AS u, df
        FROM terms)
)
SELECT code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM coded GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def early_terminated_sort_sql(term: str = "spark", k: int = 10) -> str:
    """Sorted-index early-terminated top-k (index/sorter.py): docs
    containing the term, by (n_chars desc, doc_id asc) — the sorted index's
    docID order."""
    return f"""WITH {_toks_cte()}
SELECT d.doc_id, d.n_chars
FROM documents d
WHERE EXISTS (SELECT 1 FROM kept k WHERE k.doc_id = d.doc_id
              AND k.term = '{term}')
ORDER BY d.n_chars DESC, d.doc_id ASC LIMIT {k}"""


def sweetspot_topk_sql(terms: list[str], k: int = 10,
                       ln_min: int = 3, ln_max: int = 8,
                       tf_base: float = 1.5, tf_min: float = 2.0) -> str:
    """SweetSpotSimilarity OR-query oracle (Misc/SweetSpotSimilarity.cs,
    search/sweetspot.py), float32-bit-exact: DefaultSimilarity idf/
    queryNorm/coord with BaselineTf and the plateau length norm swapped in;
    the norm is byte315-encoded from the doc length then classic-decoded
    (the byte a SweetSpot writer would have stored)."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    idf_of = ("CAST(ln(CAST((SELECT N FROM coll) AS DOUBLE)/(df + 1)) + 1.0 "
              "AS REAL)")
    sum_sq = "CAST(0.0 AS REAL)"
    for t in terms:
        qw = f"(SELECT idf FROM cweights WHERE term = '{t}')"
        sum_sq = f"CAST({sum_sq} + CAST({qw} * {qw} AS REAL) AS REAL)"
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"CAST({score_expr} + COALESCE(s{i}, {ZERO_R}) AS REAL)"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    maxov = len(terms)
    span = ln_max - ln_min
    return f"""WITH {_toks_cte()},
cweights AS (
  SELECT term, count(DISTINCT doc_id) AS df, {idf_of} AS idf
  FROM kept WHERE term IN ({terms_sql}) GROUP BY term
),
qn AS (SELECT CAST(1.0 / sqrt(CAST({sum_sq} AS DOUBLE)) AS REAL) AS v),
cvals AS (
  SELECT term, CAST(CAST(idf * (SELECT v FROM qn) AS REAL) * idf AS REAL) AS value
  FROM cweights
),
lnv AS (
  -- ComputeLengthNorm(L): plateau [ln_min, ln_max], float32
  SELECT doc_id,
    CAST(1.0 / sqrt(CAST(
      0.5 * (abs(L - {ln_min}) + abs(L - {ln_max}) - {span}) + 1.0
      AS DOUBLE)) AS REAL) AS f
  FROM doclen WHERE L > 0
),
ssnb AS (
  -- SingleToByte315 of the length norm (same emulation as normb)
  SELECT doc_id,
    GREATEST(1,
      4 * (CAST(floor(log2(f)) AS BIGINT) + 127)
      + CAST(floor((f / power(2.0, floor(log2(f))) - 1.0) * 4.0) AS BIGINT)
      - 384) AS nb
  FROM lnv
),
normdec AS (
  SELECT doc_id,
    CAST((1.0 + CAST((nb + 384) % 4 AS DOUBLE)/4.0)
         * power(2.0, CAST(floor((nb + 384)/4) AS BIGINT) - 127) AS REAL)
      AS dec
  FROM ssnb
),
tf AS (
  SELECT doc_id, term, count(*) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
    CAST(CAST(
      CASE WHEN tf.f <= {tf_min}
           THEN CAST(CAST({tf_base} AS DOUBLE) AS REAL)
           ELSE CAST(sqrt(CAST(
             (CAST(tf.f AS REAL) + CAST({tf_base * tf_base} AS REAL))
             - CAST({tf_min} AS REAL) AS DOUBLE)) AS REAL)
      END * v.value AS REAL) * nd.dec AS REAL) AS s
  FROM tf
  JOIN cvals v USING (term)
  JOIN normdec nd ON nd.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, count(DISTINCT term) AS overlap, {pivot_cols}
  FROM persc GROUP BY doc_id
),
scored AS (
  SELECT doc_id,
    CAST(({score_expr}) *
      CAST(CAST(overlap AS REAL) / CAST({maxov} AS REAL) AS REAL) AS REAL) AS score
  FROM agg
)
SELECT doc_id, score FROM scored
ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def bpe_token_count_sql() -> str:
    """GPT-2-style pre-tokenizer token counts (ops/textstats.py
    BpeTokenCount) — identical RE2-safe pattern, leftmost-first in both."""
    pat = r" ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"
    return f"""SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_bpe_tokens
FROM documents ORDER BY doc_id"""


def pk_split_term_stats_sql(mid: int = 250) -> str:
    """Term stats of the first PK-split output (index/split.py split_index
    with doc_id < mid): identical to a direct build over the id range."""
    return f"""WITH
toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents WHERE doc_id < {mid}
),
kept AS (
  SELECT doc_id, term, pos FROM toks
  WHERE term <> '' AND term NOT IN {STOP_SQL}
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM kept GROUP BY term ORDER BY term"""


def dataset_split_counts_sql() -> str:
    """Per-split (n_docs, sum token count) for DatasetSplitter ratios
    (0.2 test, 0.1 cv) — ops/classify.py dataset_split. Closed form of the
    sequential rule (DatasetSplitter.cs:112-124) at ANY corpus size: both
    quotas fill inside the even/odd interleave prefix when
    cvRatio <= testRatio <= 0.5, so test = the first ceil(N*testRatio)
    even positions and cv = the first ceil(N*cvRatio) odd positions
    (positions in docID order). The quota is ceil because the engine's
    loop admits while ``count < N*ratio`` (strict float compare)."""
    return f"""WITH {_toks_cte()},
q AS (
  SELECT CAST(2 * ceil(count(*) * 0.2) AS BIGINT) AS test_lim,
         CAST(2 * ceil(count(*) * 0.1) AS BIGINT) AS cv_lim
  FROM documents
),
posed AS (
  SELECT doc_id,
         CAST(row_number() OVER (ORDER BY doc_id) - 1 AS BIGINT) AS pos
  FROM documents
),
assigned AS (
  SELECT doc_id,
    CASE WHEN pos % 2 = 0 AND pos < (SELECT test_lim FROM q) THEN 'test'
         WHEN pos % 2 = 1 AND pos < (SELECT cv_lim FROM q) THEN 'cv'
         ELSE 'train' END AS split
  FROM posed
)
SELECT a.split, CAST(count(DISTINCT a.doc_id) AS BIGINT) AS n_docs,
       CAST(COALESCE(sum(d.L), 0) AS BIGINT) AS sum_ttf
FROM assigned a JOIN doclen d USING (doc_id)
GROUP BY a.split ORDER BY a.split"""


def suggest_infix_sql(query: str, k: int = 10) -> str:
    """AnalyzingInfixSuggester oracle: 2-gram completions where ANY token
    starts with the query, weight desc, key asc."""
    esc = query.replace("'", "''").replace("%", "\\%").replace("_", "\\_")
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
big AS (
  SELECT doc_id,
         term || ' ' || lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS sh
  FROM toks WHERE term <> ''
)
SELECT sh AS key, count(*) AS weight
FROM big WHERE sh IS NOT NULL
  AND (sh LIKE '{esc}%' ESCAPE '\\' OR sh LIKE '% {esc}%' ESCAPE '\\')
GROUP BY sh ORDER BY weight DESC, key LIMIT {k}"""


# ---------------------------------------------------------------------------
# spatial (Lucene.Net.Spatial analogs, ops/spatial.py)

_GEO_CTE = """
geo AS (
  SELECT doc_id,
         CAST((doc_id * 7919) % 18000 - 9000 AS BIGINT) AS lat_c,
         CAST((doc_id * 104729) % 36000 - 18000 AS BIGINT) AS lon_c
  FROM documents
),
geod AS (
  SELECT doc_id, lat_c, lon_c,
         CAST(lat_c AS DOUBLE) / 100.0 AS lat,
         CAST(lon_c AS DOUBLE) / 100.0 AS lon
  FROM geo
)"""


def spatial_bbox_sql(lat_min: float, lat_max: float, lon_min: float,
                     lon_max: float) -> str:
    """Rectangle filter (PointVectorStrategy two-range form,
    ops/spatial.py bbox_filter) over the deterministic synthetic coords."""
    return f"""WITH {_GEO_CTE}
SELECT doc_id, lat, lon FROM geod
WHERE lat >= {lat_min} AND lat < {lat_max}
  AND lon >= {lon_min} AND lon < {lon_max}
ORDER BY doc_id"""


def spatial_knn_sql(points: list[tuple[float, float]], k: int = 10) -> str:
    """Squared-Euclidean-degree knn (Vector/DistanceValueSource.cs sort
    key; *,+,- only — bit-exact doubles both sides)."""
    arms = []
    for qi, (qlat, qlon) in enumerate(points):
        arms.append(f"""SELECT CAST({qi} AS BIGINT) AS query_id,
       CAST(row_number() OVER (
         ORDER BY (lat - {qlat}) * (lat - {qlat})
                + (lon - {qlon}) * (lon - {qlon}) ASC, doc_id ASC)
         AS BIGINT) AS rank,
       doc_id,
       (lat - {qlat}) * (lat - {qlat})
       + (lon - {qlon}) * (lon - {qlon}) AS dist2
FROM geod QUALIFY rank <= {k}""")
    body = "\nUNION ALL\n".join(arms)
    return f"""WITH {_GEO_CTE}
SELECT * FROM ({body}) ORDER BY query_id, rank"""


def spatial_cells_sql(level: int = 3) -> str:
    """Doc counts per level-L QuadPrefixTree cell (A=NW B=NE C=SW D=SE,
    QuadPrefixTree.cs:182-185) — integer grid math identical to
    quad_cells_from_centi."""
    grid = 1 << level
    x = f"(((lon_c + 18000) * {grid}) // 36000)"
    y = f"(((lat_c + 9000) * {grid}) // 18000)"
    parts = []
    for i in range(level):
        shift = level - 1 - i
        xb = f"(({x} >> {shift}) & 1)"
        yb = f"(({y} >> {shift}) & 1)"
        parts.append(
            f"CASE WHEN {yb} = 1 THEN (CASE WHEN {xb} = 0 THEN 'A' "
            f"ELSE 'B' END) ELSE (CASE WHEN {xb} = 0 THEN 'C' ELSE 'D' "
            f"END) END")
    cell = " || ".join(parts)
    return f"""WITH {_GEO_CTE}
SELECT {cell} AS cell, CAST(count(*) AS BIGINT) AS n
FROM geod GROUP BY cell ORDER BY cell"""


def caverphone_stats_sql(n: int = 20) -> str:
    """(Caverphone-2.0 code, n_terms, sum_df) over the term dictionary —
    the full ordered rewrite pipeline (analysis/caverphone.py _RULES)
    expressed as a chain of RE2 regexp_replace('g') calls, exactly the
    reference's Regex.Replace-all semantics."""
    from lucenenet_ray.analysis.caverphone import _RULES

    expr = "regexp_replace(lower(term), '[^a-z]', '', 'g')"
    for pat, rep in _RULES:
        p = pat.replace("\\", "\\\\").replace("'", "''")
        expr = f"regexp_replace({expr}, '{p}', '{rep}', 'g')"
    code = f"substr({expr} || '1111111111', 1, 10)"
    return f"""WITH {_toks_cte()},
terms AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
)
SELECT {code} AS code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM terms GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def boosting_query_sql(match_term: str, context_term: str, boost: float,
                       k: int = 10) -> str:
    """BoostingQuery oracle (Queries/BoostingQuery.cs:71-83,
    search/queries_ext.py boosting_search): BM25 float32 clause scores;
    docs matching only the match term keep their score (coord 1.0), docs
    also matching the context term get the clause sum times ``boost``."""
    boost_r = _R.format(v=repr(float(boost)))
    terms = [match_term, context_term]
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id,
         MAX(CASE WHEN term = '{match_term}' THEN s END) AS s0,
         MAX(CASE WHEN term = '{context_term}' THEN s END) AS s1
  FROM persc GROUP BY doc_id
),
scored AS (
  SELECT doc_id,
         CASE WHEN s1 IS NULL THEN CAST(s0 AS REAL)
              ELSE CAST(CAST(s0 + s1 AS REAL) * {boost_r} AS REAL)
         END AS score
  FROM agg WHERE s0 IS NOT NULL
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def custom_score_sql(terms: list[str], dv_field: str = "n_chars",
                     k: int = 10) -> str:
    """CustomScoreQuery oracle (Queries/CustomScoreQuery.cs /
    CustomScoreProvider.CustomScore, search/queries_ext.py
    custom_score_search): f32(BM25 OR-sum * (float)docvalue)."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"({score_expr} + COALESCE(s{i}, {ZERO_R}))"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols} FROM persc GROUP BY doc_id
),
scored AS (
  SELECT a.doc_id,
         CAST(CAST(({score_expr}) AS REAL)
              * CAST(d.{dv_field} AS REAL) AS REAL) AS score
  FROM agg a JOIN documents d USING (doc_id)
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def geohash_cells_sql() -> str:
    """Doc counts per precision-2 geohash (ops/spatial.py geohash_encode /
    GeohashPrefixTree.cs token family): 10 interleaved bits (lon first)
    from the 5-bit integer grids — exactly the interval-halving result
    because every cell boundary is a multiple of 25 centi-degrees (exact
    in binary)."""
    b32 = "0123456789bcdefghjkmnpqrstuvwxyz"
    x = "(((lon_c + 18000) * 32) // 36000)"
    y = "(((lat_c + 9000) * 32) // 18000)"
    c1 = (f"(((({x} >> 4) & 1) << 4) | ((({y} >> 4) & 1) << 3) | "
          f"((({x} >> 3) & 1) << 2) | ((({y} >> 3) & 1) << 1) | "
          f"(({x} >> 2) & 1))")
    c2 = (f"(((({y} >> 2) & 1) << 4) | ((({x} >> 1) & 1) << 3) | "
          f"((({y} >> 1) & 1) << 2) | ((({x} >> 0) & 1) << 1) | "
          f"(({y} >> 0) & 1))")
    return f"""WITH {_GEO_CTE}
SELECT substr('{b32}', CAST({c1} AS INTEGER) + 1, 1)
       || substr('{b32}', CAST({c2} AS INTEGER) + 1, 1) AS geohash,
       CAST(count(*) AS BIGINT) AS n
FROM geod GROUP BY geohash ORDER BY geohash"""


def mra_stats_sql(n: int = 20) -> str:
    """(Match-Rating-Approach code, n_terms, sum_df) over the term
    dictionary (analysis/cologne.py match_rating_encode).  The corpus
    terms are ASCII, so the accent-fold step is a no-op and the whole
    pipeline is string functions: clean, drop vowels except a leading
    one, single-pass double-consonant collapse, first-3 + last-3."""
    clean = ("regexp_replace(regexp_replace(upper(term), "
             "'[-&''.,]', '', 'g'), '\\s+', '', 'g')")
    body = "regexp_replace(s, '[AEIOU]', '', 'g')"
    dedup = "s2"
    for dc in ("BB", "CC", "DD", "FF", "GG", "HH", "JJ", "KK", "LL", "MM",
               "NN", "PP", "QQ", "RR", "SS", "TT", "VV", "WW", "XX", "YY",
               "ZZ"):
        dedup = f"replace({dedup}, '{dc}', '{dc[0]}')"
    return f"""WITH {_toks_cte()},
terms AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
),
cl AS (SELECT {clean} AS s, df FROM terms),
vless AS (
  SELECT CASE WHEN length(s) < 2 THEN ''
              WHEN substr(s, 1, 1) IN ('A','E','I','O','U')
                THEN substr(s, 1, 1) || {body}
              ELSE {body} END AS s2, df
  FROM cl
),
coded AS (
  SELECT CASE WHEN s3 = '' THEN ''
              WHEN length(s3) > 6
                THEN substr(s3, 1, 3) || substr(s3, length(s3) - 2, 3)
              ELSE s3 END AS code, df
  FROM (SELECT {dedup} AS s3, df FROM vless)
)
SELECT code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM coded GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def _stem_stats_wrap(stem_case: str, n: int) -> str:
    return f"""WITH {_toks_cte()},
terms AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
),
s1 AS (SELECT CASE WHEN len(term) > 4 AND right(term, 1) = 's'
                   THEN substr(term, 1, len(term) - 1) ELSE term END AS w,
              df FROM terms),
coded AS (SELECT {stem_case} AS code, df FROM s1)
SELECT code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM coded GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def sv_stem_stats_sql(n: int = 20) -> str:
    """SwedishLightStemmer oracle (Analysis/Sv/SwedishLightStemmer.cs,
    lang_stem.swedish_light_stem): possessive -s then ONE longest-first
    suffix strip, applied to every body term."""
    cut = "substr(w, 1, len(w) - {k})"
    case = f"""CASE
    WHEN len(w) > 7 AND right(w, 5) IN ('elser', 'heten') THEN {cut.format(k=5)}
    WHEN len(w) > 6 AND right(w, 4) IN ('arne','erna','ande','else','aste','orna','aren') THEN {cut.format(k=4)}
    WHEN len(w) > 5 AND right(w, 3) IN ('are','ast','het') THEN {cut.format(k=3)}
    WHEN len(w) > 4 AND right(w, 2) IN ('ar','er','or','en','at','te','et') THEN {cut.format(k=2)}
    WHEN len(w) > 3 AND right(w, 1) IN ('t','a','e','n') THEN {cut.format(k=1)}
    ELSE w END"""
    return _stem_stats_wrap(case, n)


def snowball_da_stats_sql(n: int = 20) -> str:
    """Danish *Snowball* stemmer oracle (Tartarus DanishStemmer.cs,
    analysis/snowball.py danish_stem) — the full algorithm re-expressed in
    SQL: R1 with 3-letter minimum (regexp for the first vowel→non-vowel
    boundary), longest main suffix fitting R1 (s needs an s_ending letter
    before it), consonant-pair trim, igst/other-suffix step (with the
    consonant-pair retry), final undouble."""
    V = "aeiouyæåø"
    S_END = "'a','b','c','d','f','g','h','j','k','l','m','n','o','p','r','t','v','y','z','å'"

    def cut(e: str, k: int) -> str:
        return f"substr({e}, 1, len({e}) - {k})"

    def cp(e: str) -> str:  # consonant_pair: gd/dt/gt/kt in R1 → drop last
        return (f"CASE WHEN len({e}) >= 2 AND right({e}, 2) IN "
                f"('gd','dt','gt','kt') AND len({e}) - 2 >= p1 "
                f"THEN {cut(e, 1)} ELSE {e} END")

    main = f"""CASE
 WHEN right(w,7)='erendes' AND len(w)-7>=p1 THEN {cut('w',7)}
 WHEN right(w,6) IN ('erende','hedens') AND len(w)-6>=p1 THEN {cut('w',6)}
 WHEN right(w,5) IN ('ethed','erede','heden','heder','endes','ernes','erens','erets') AND len(w)-5>=p1 THEN {cut('w',5)}
 WHEN right(w,4) IN ('ered','ende','erne','eren','erer','heds','enes','eres','eret') AND len(w)-4>=p1 THEN {cut('w',4)}
 WHEN right(w,3) IN ('hed','ene','ere','ens','ers','ets') AND len(w)-3>=p1 THEN {cut('w',3)}
 WHEN right(w,2) IN ('en','er','es','et') AND len(w)-2>=p1 THEN {cut('w',2)}
 WHEN right(w,1)='e' AND len(w)-1>=p1 THEN {cut('w',1)}
 WHEN right(w,1)='s' AND len(w)-1>=p1 THEN
   CASE WHEN len(w)>=2 AND substr(w,len(w)-1,1) IN ({S_END})
        THEN {cut('w',1)} ELSE w END
 ELSE w END"""
    other = f"""CASE
 WHEN right(wa,4)='løst' AND len(wa)-4>=p1 THEN {cut('wa',1)}
 WHEN right(wa,4)='elig' AND len(wa)-4>=p1 THEN {cp(cut('wa',4))}
 WHEN right(wa,3) IN ('lig','els') AND len(wa)-3>=p1 THEN {cp(cut('wa',3))}
 WHEN right(wa,2)='ig' AND len(wa)-2>=p1 THEN {cp(cut('wa',2))}
 ELSE wa END"""
    return f"""WITH {_toks_cte()},
terms AS (
  SELECT term AS w, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
),
marked AS (
  SELECT w, df,
         GREATEST(CASE WHEN m = '' THEN len(w) ELSE len(m) END, 3) AS p1
  FROM (SELECT w, df,
               regexp_extract(w, '^(.*?[{V}][^{V}])') AS m
        FROM terms)
),
s1 AS (SELECT {main} AS w, p1, df FROM marked),
s2 AS (SELECT {cp('w')} AS w, p1, df FROM s1),
s3a AS (SELECT CASE WHEN right(w,4)='igst' THEN {cut('w',2)} ELSE w END AS wa,
               p1, df FROM s2),
s3 AS (SELECT {other} AS w, p1, df FROM s3a),
s4 AS (SELECT CASE WHEN len(w)>=2 AND len(w)-1>=p1
                    AND right(w,1)=substr(w,len(w)-1,1)
                    AND right(w,1) NOT IN ({"','".join(V).join(["'", "'"])})
              THEN {cut('w',1)} ELSE w END AS code, df FROM s3)
SELECT code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM s4 GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def no_stem_stats_sql(n: int = 20) -> str:
    """NorwegianLightStemmer (Bokmål) oracle
    (Analysis/No/NorwegianLightStemmer.cs, lang_stem.norwegian_light_stem)."""
    cut = "substr(w, 1, len(w) - {k})"
    case = f"""CASE
    WHEN len(w) > 7 AND right(w, 5) IN ('heter', 'heten') THEN {cut.format(k=5)}
    WHEN len(w) > 5 AND right(w, 3) IN ('dom', 'het') THEN {cut.format(k=3)}
    WHEN len(w) > 7 AND right(w, 5) IN ('elser', 'elsen') THEN {cut.format(k=5)}
    WHEN len(w) > 6 AND right(w, 4) IN ('ende','else','este','eren') THEN {cut.format(k=4)}
    WHEN len(w) > 5 AND right(w, 3) IN ('ere','est','ene') THEN {cut.format(k=3)}
    WHEN len(w) > 4 AND right(w, 2) IN ('er','en','et','st','te') THEN {cut.format(k=2)}
    WHEN len(w) > 3 AND right(w, 1) IN ('a','e','n') THEN {cut.format(k=1)}
    ELSE w END"""
    return _stem_stats_wrap(case, n)


def freetext_lookup_sql(context: str = "spark", k: int = 10) -> str:
    """FreeTextSuggester lookup oracle (ops/freetext.py
    FreeTextModel.lookup with a trailing separator): next tokens after
    ``context`` scored weight = floor(LONG_MAX * bigramCount /
    contextUnigramCount) in HUGEINT — the exact-rational form of the
    reference's decimal formula (:777).  The context has >= k distinct
    successors on this corpus, so the top-k never reaches the backed-off
    unigram level (asserted by the engine query)."""
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
big AS (
  SELECT term AS w1,
         lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
  FROM toks WHERE term <> ''
),
ctx AS (
  SELECT CAST(count(*) AS HUGEINT) AS c FROM toks
  WHERE term = '{context}'
),
cand AS (
  SELECT w2 AS token, CAST(count(*) AS HUGEINT) AS cnt
  FROM big WHERE w1 = '{context}' AND w2 IS NOT NULL AND w2 <> ''
  GROUP BY w2
)
SELECT token,
       CAST((CAST(9223372036854775807 AS HUGEINT) * cnt)
            // (SELECT c FROM ctx) AS BIGINT) AS weight
FROM cand ORDER BY weight DESC, token ASC LIMIT {k}"""


def child_block_join_sql(k: int = 50) -> str:
    """ToChildBlockJoinQuery oracle (ops/joins.py child_block_join):
    heavy lineitems of URGENT orders, (orderkey, linenumber) order."""
    return f"""SELECT l.l_orderkey, l.l_linenumber, l.l_quantity
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE o.o_orderpriority = '1-URGENT' AND l.l_quantity > 45
ORDER BY l.l_orderkey, l.l_linenumber LIMIT {k}"""


def chained_filter_sql() -> str:
    """ChainedFilter oracle (search/filters.py chained_filter): the gate
    chain is (term 'spark') OR (n_chars in [500, 900)) ANDNOT (term
    'window') XOR (term 'merge') — left fold, doc ids ascending."""
    ex = ("SELECT DISTINCT doc_id FROM kept WHERE term = '{t}'")
    return f"""WITH {_toks_cte()},
f0 AS ({ex.format(t='spark')}),
f1 AS (SELECT doc_id FROM documents WHERE n_chars >= 500 AND n_chars < 900),
f2 AS ({ex.format(t='window')}),
f3 AS ({ex.format(t='merge')}),
s1 AS (SELECT doc_id FROM f0 UNION SELECT doc_id FROM f1),
s2 AS (SELECT doc_id FROM s1 EXCEPT SELECT doc_id FROM f2),
s3 AS (
  (SELECT doc_id FROM s2 EXCEPT SELECT doc_id FROM f3)
  UNION
  (SELECT doc_id FROM f3 EXCEPT SELECT doc_id FROM s2)
)
SELECT doc_id FROM s3 ORDER BY doc_id"""


def function_recip_sql(a: float = 1000.0, m: float = 1.0, b: float = 1000.0,
                       k: int = 10) -> str:
    """FunctionQuery oracle (search/function.py function_search with
    ReciprocalFunction(Int64FieldSource('n_chars'))): every doc matches,
    score = f32(a / (m * f32(n_chars) + b)) — REAL arithmetic in DuckDB is
    float32 like the engine's numpy kernels; (score desc, doc asc) order."""
    return f"""WITH scored AS (
  SELECT doc_id,
         CAST({a} AS REAL) / (CAST({m} AS REAL) * CAST(n_chars AS REAL)
              + CAST({b} AS REAL)) AS score
  FROM documents
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def function_scale_sql(lo: float = 0.0, hi: float = 1.0, k: int = 10) -> str:
    """ScaleFunction oracle (ScaleFloatFunction.cs CreateScaleInfo over ALL
    docs): rescale f32(n_chars) from its corpus [min,max] into [lo,hi];
    score = f32((x - min) * ((hi-lo)/span) + lo)."""
    return f"""WITH si AS (
  SELECT CAST(min(CAST(n_chars AS REAL)) AS REAL) AS mn,
         CAST(max(CAST(n_chars AS REAL)) AS REAL) AS mx
  FROM documents
)
, scored AS (
  SELECT doc_id,
         (CAST(n_chars AS REAL) - si.mn)
            * ((CAST({hi} AS REAL) - CAST({lo} AS REAL)) / (si.mx - si.mn))
            + CAST({lo} AS REAL) AS score
  FROM documents, si
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def function_query_source_sql(terms: list[str], def_val: float, a: float,
                              m: float, b: float, k: int = 10) -> str:
    """QueryValueSource oracle (search/function.py): per-doc value =
    BM25 OR score (def_val for non-matches) × a/(m·f32(n_chars)+b), REAL
    node-for-node."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"({score_expr} + COALESCE(s{i}, {ZERO_R}))"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id
),
qscore AS (
  SELECT doc_id, {score_expr} AS score FROM agg
),
scored AS (
  SELECT d.doc_id,
         COALESCE(q.score, CAST({def_val} AS REAL))
           * (CAST({a} AS REAL)
              / (CAST({m} AS REAL) * CAST(d.n_chars AS REAL)
                 + CAST({b} AS REAL))) AS score
  FROM documents d LEFT JOIN qscore q USING (doc_id)
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def function_ord_sql(field: str = "source", a: float = 1000.0,
                     b: float = 1000.0, k: int = 10) -> str:
    """Reverse-ord oracle (search/function.py OrdFieldSource reverse):
    score = f32(valueCount - ord - 1) + f32(a/(f32(n_chars)+b)); ord =
    0-based rank among sorted distinct field values."""
    return f"""WITH o AS (
  SELECT {field} AS v,
         CAST(row_number() OVER (ORDER BY {field}) - 1 AS BIGINT) AS ord
  FROM (SELECT DISTINCT {field} FROM documents)
),
n AS (SELECT count(*) AS cnt FROM o),
scored AS (
  SELECT d.doc_id,
         CAST(n.cnt - o.ord - 1 AS REAL)
           + (CAST({a} AS REAL)
              / (CAST(d.n_chars AS REAL) + CAST({b} AS REAL))) AS score
  FROM documents d JOIN o ON o.v = d.{field}, n
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def spatial_intersects_sql(cover: list[str], level: int = 6) -> str:
    """RecursivePrefixTree Intersects oracle (ops/spatial.py quad_cover +
    intersects_filter): doc level-L cell from the same integer grid math,
    matched by prefix against the (Python-computed, constant) cover."""
    grid = 1 << level
    x = f"(((lon_c + 18000) * {grid}) // 36000)"
    y = f"(((lat_c + 9000) * {grid}) // 18000)"
    parts = []
    for i in range(level):
        shift = level - 1 - i
        xb = f"(({x} >> {shift}) & 1)"
        yb = f"(({y} >> {shift}) & 1)"
        parts.append(
            f"CASE WHEN {yb} = 1 THEN (CASE WHEN {xb} = 0 THEN 'A' "
            f"ELSE 'B' END) ELSE (CASE WHEN {xb} = 0 THEN 'C' ELSE 'D' "
            f"END) END")
    cell = " || ".join(parts)
    cond = " OR ".join(f"cell LIKE '{p}%'" for p in cover)
    return f"""WITH
geo AS (
  SELECT doc_id,
         CAST((doc_id * 7919) % 18000 - 9000 AS BIGINT) AS lat_c,
         CAST((doc_id * 104729) % 36000 - 18000 AS BIGINT) AS lon_c
  FROM documents
),
celled AS (SELECT doc_id, {cell} AS cell FROM geo)
SELECT doc_id FROM celled WHERE {cond} ORDER BY doc_id"""


def grouping_by_function_sql(terms: list[str], edges: tuple[int, int] = (399, 699),
                             n_groups: int = 3, group_docs: int = 2) -> str:
    """GroupingSearch(ValueSource) oracle (search/function.py
    function_grouping_search): BM25 OR scores, nested-RangeMap length
    buckets as group keys, groups by (max score desc, key asc), top docs
    per group by (score desc, doc asc)."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"({score_expr} + COALESCE(s{i}, {ZERO_R}))"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    lo, hi = edges
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id
),
scored AS (
  SELECT doc_id, {score_expr} AS score FROM agg
),
keyed AS (
  SELECT s.doc_id, s.score,
         CASE WHEN d.n_chars <= {lo} THEN 0.0
              WHEN d.n_chars <= {hi} THEN 1.0
              ELSE 2.0 END AS group_key
  FROM scored s JOIN documents d USING (doc_id)
),
topg AS (
  SELECT group_key,
         row_number() OVER (ORDER BY max(score) DESC, group_key ASC)
           AS grp_rank
  FROM keyed GROUP BY group_key
),
docs AS (
  SELECT group_key, doc_id, score,
         row_number() OVER (PARTITION BY group_key
                            ORDER BY score DESC, doc_id ASC) AS doc_rank
  FROM keyed
)
SELECT t.grp_rank, CAST(t.group_key AS DOUBLE) AS group_key,
       d.doc_rank, d.doc_id, CAST(d.score AS DOUBLE) AS score
FROM topg t JOIN docs d ON d.group_key = t.group_key
WHERE t.grp_rank <= {n_groups} AND d.doc_rank <= {group_docs}
ORDER BY t.grp_rank, d.doc_rank"""


def classic_highlight_sql(terms: list[str], frag_size: int = 100,
                          k: int = 10) -> str:
    """Classic Highlighter oracle (ops/highlight.py classic_best_fragment):
    fragment boundaries via the SimpleFragmenter state machine's closed
    form ``frag_i = i + least(0, min_{j<=i}(end_j//F - j))`` (running-min
    window); fragment score = REAL sum of unique query-term classic-idf
    weights; best = (score desc, frag asc). End offsets re-derived from
    the space-joined corpus (sum of token lengths + separators)."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    pivot = " + ".join(
        f"COALESCE(MAX(CASE WHEN term = '{t}' THEN wv END), {ZERO_R})"
        for t in terms)
    return f"""WITH top AS (
  SELECT * FROM ({bm25_topk_sql(terms, k)}) s
),
{_toks_cte()},
nq AS (SELECT count(*) AS nd FROM documents),
cw AS (
  SELECT term,
         CAST(ln(CAST(nq.nd AS DOUBLE) / (df + 1)) + 1.0 AS REAL) AS wv
  FROM (SELECT term, count(DISTINCT doc_id) AS df FROM kept
        WHERE term IN ({terms_sql}) GROUP BY term) d, nq
),
offs AS (
  SELECT doc_id, pos,
         CAST(SUM(length(term) + 1) OVER (
           PARTITION BY doc_id ORDER BY pos) - 1 AS BIGINT) AS end_off
  FROM toks
),
seq AS (
  SELECT k.doc_id, k.pos, k.term, o.end_off,
         row_number() OVER (PARTITION BY k.doc_id ORDER BY k.pos) AS i
  FROM kept k JOIN offs o ON o.doc_id = k.doc_id AND o.pos = k.pos
  WHERE k.doc_id IN (SELECT doc_id FROM top)
),
frag AS (
  SELECT doc_id, term,
         CAST(i + LEAST(0, MIN(end_off // {frag_size} - i) OVER (
           PARTITION BY doc_id ORDER BY i)) AS BIGINT) AS frag
  FROM seq
),
fs AS (
  SELECT doc_id, frag, {pivot} AS score
  FROM (SELECT DISTINCT doc_id, frag, term FROM frag
        WHERE term IN ({terms_sql})) x
  JOIN cw USING (term)
  GROUP BY doc_id, frag
),
best AS (
  SELECT doc_id, frag, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, frag ASC) AS rn
  FROM fs WHERE score > 0
)
SELECT t.rank, t.doc_id, b.frag, CAST(b.score AS DOUBLE) AS score
FROM top t JOIN best b ON b.doc_id = t.doc_id AND b.rn = 1
ORDER BY t.rank"""


def query_scorer_highlight_sql(phrase: list[str],
                               frag_size: int = 100) -> str:
    """QueryScorer oracle (ops/highlight.query_scorer_best_fragment):
    spans = exact in-order adjacency of the phrase terms over kept
    positions (stop holes break adjacency, as in SpanNear slop 0); a
    phrase term's occurrence is marked ONLY inside a span; fragments via
    the shared SimpleFragmenter running-min closed form; best fragment by
    (unique marked terms desc, fragment asc)."""
    assert len(phrase) >= 2
    t_sql = ", ".join(f"'{t}'" for t in phrase)
    join_steps = " AND ".join(
        f"EXISTS (SELECT 1 FROM kept k{i} WHERE k{i}.doc_id = p0.doc_id "
        f"AND k{i}.term = '{phrase[i]}' AND k{i}.pos = p0.pos + {i})"
        for i in range(1, len(phrase)))
    return f"""WITH {_toks_cte()},
spans AS (
  SELECT p0.doc_id, p0.pos AS s, p0.pos + {len(phrase) - 1} AS e
  FROM kept p0
  WHERE p0.term = '{phrase[0]}' AND {join_steps}
),
marked AS (
  SELECT DISTINCT k.doc_id, k.pos, k.term
  FROM kept k JOIN spans ON spans.doc_id = k.doc_id
   AND k.pos BETWEEN spans.s AND spans.e
  WHERE k.term IN ({t_sql})
),
offs AS (
  SELECT doc_id, pos,
         CAST(SUM(length(term) + 1) OVER (
           PARTITION BY doc_id ORDER BY pos) - 1 AS BIGINT) AS end_off
  FROM toks
),
seq AS (
  SELECT k.doc_id, k.pos, k.term, o.end_off,
         row_number() OVER (PARTITION BY k.doc_id ORDER BY k.pos) AS i
  FROM kept k JOIN offs o ON o.doc_id = k.doc_id AND o.pos = k.pos
  WHERE k.doc_id IN (SELECT DISTINCT doc_id FROM spans)
),
frag AS (
  SELECT doc_id, pos,
         CAST(i + LEAST(0, MIN(end_off // {frag_size} - i) OVER (
           PARTITION BY doc_id ORDER BY i)) AS BIGINT) AS frag
  FROM seq
),
fs AS (
  SELECT m.doc_id, f.frag,
         CAST(count(DISTINCT m.term) AS BIGINT) AS n_unique
  FROM marked m JOIN frag f ON f.doc_id = m.doc_id AND f.pos = m.pos
  GROUP BY m.doc_id, f.frag
),
best AS (
  SELECT doc_id, frag, n_unique,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY n_unique DESC, frag ASC) AS rn
  FROM fs
),
tot AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_marked
  FROM marked GROUP BY doc_id
)
SELECT b.doc_id, b.frag, b.n_unique, t.n_marked
FROM best b JOIN tot t USING (doc_id)
WHERE b.rn = 1 ORDER BY b.doc_id"""


def block_grouping_sql(terms: list[str], n_groups: int = 5,
                       max_docs_per_group: int = 2) -> str:
    """BlockGroupingCollector oracle (search/block_grouping.py): the full
    BM25 hit relation ranked (score desc, doc asc); a group's best doc is
    its min rank, group order = best-rank order, within-group docs by
    rank; totalGroupCount = distinct groups over ALL hits."""
    base = bm25_topk_sql(terms, k=1 << 40)
    return f"""WITH base AS ({base}),
g AS (
  SELECT b.rank, b.doc_id, b.score, d.source AS grp
  FROM base b JOIN documents d USING (doc_id)
),
best AS (SELECT grp, min(rank) AS best_rank FROM g GROUP BY grp),
granks AS (
  SELECT grp,
         CAST(row_number() OVER (ORDER BY best_rank) AS BIGINT) AS group_rank
  FROM best
),
gc AS (SELECT grp, CAST(count(*) AS BIGINT) AS group_count FROM g GROUP BY grp),
tot AS (SELECT CAST(count(*) AS BIGINT) AS total_groups FROM best),
wr AS (
  SELECT g.*,
         CAST(row_number() OVER (PARTITION BY grp ORDER BY rank) AS BIGINT)
           AS within_rank
  FROM g
)
SELECT gr.group_rank, wr.within_rank, wr.doc_id, wr.score,
       gc.group_count, tot.total_groups
FROM wr JOIN granks gr USING (grp) JOIN gc USING (grp), tot
WHERE gr.group_rank <= {n_groups} AND wr.within_rank <= {max_docs_per_group}
ORDER BY gr.group_rank, wr.within_rank"""


def pack_sequences_sql(seq_len: int = 128, sep: int = 1) -> str:
    """Sequence-packing oracle (ops/packing.py pack_sequences): BPE
    pre-tokenizer counts, docs concatenated in doc_id order with ``sep``
    EOS tokens each, chunked into seq_len slices — all-integer window
    cumsum."""
    pat = r" ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"
    return f"""WITH t AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_tokens
  FROM documents
),
c AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens + {sep}) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
           AND 1 PRECEDING), 0) AS BIGINT) AS start_off
  FROM t
)
SELECT doc_id, n_tokens, start_off,
       CAST(start_off // {seq_len} AS BIGINT) AS first_seq,
       CAST((start_off + GREATEST(n_tokens, 1) - 1) // {seq_len} AS BIGINT)
         AS last_seq,
       CAST((start_off + GREATEST(n_tokens, 1) - 1) // {seq_len}
         - start_off // {seq_len} + 1 AS BIGINT) AS n_seqs
FROM c ORDER BY doc_id"""


def epoch_shuffle_sql(seed: int = 1, n: int = 100) -> str:
    """Epoch-shuffle oracle (ops/sampling.py epoch_shuffle): order by
    md5('epoch:{{seed}}:' + doc_id) hex, first n rows ranked."""
    return f"""WITH keyed AS (
  SELECT doc_id,
         md5('epoch:{seed}:' || CAST(doc_id AS VARCHAR)) AS shuffle_key
  FROM documents
)
SELECT CAST(row_number() OVER (ORDER BY shuffle_key, doc_id) AS BIGINT)
         AS rank,
       doc_id, shuffle_key
FROM keyed ORDER BY shuffle_key, doc_id LIMIT {n}"""


def domain_stats_sql(blocklist: tuple[str, ...] = ("d3.example.com",),
                     cap_num: int = 1, cap_den: int = 20) -> str:
    """Domain hygiene oracle (ops/domains.py domain_stats): same
    md5-derived skewed domain map, per-domain counts, blocklist + exact
    integer share-cap flags."""
    h = _MD5_INT31.format(s="'dom:' || CAST(doc_id AS VARCHAR)")
    bl = ", ".join(f"'{d}'" for d in blocklist)
    return f"""WITH dom AS (
  SELECT doc_id,
         'd' || CAST(((h % 40) * (h % 40)) // 40 AS VARCHAR)
             || '.example.com' AS domain
  FROM (SELECT doc_id, {h} AS h FROM documents)
),
n AS (SELECT count(*) AS total FROM documents),
agg AS (SELECT domain, count(*) AS n_docs FROM dom GROUP BY domain)
SELECT agg.domain, agg.n_docs,
       agg.domain IN ({bl}) AS blocked_list,
       agg.n_docs * {cap_den} > n.total * {cap_num} AS blocked_cap
FROM agg, n ORDER BY agg.domain"""


def function_tfidf_sql(term: str, k: int = 10) -> str:
    """TF×IDF FunctionQuery oracle (search/function.py TFSource/IDFSource):
    every doc matches; score = f32(f32(sqrt(tf)) * idf) with
    idf = f32(ln(maxDoc / (df + 1)) + 1) over GLOBAL stats; docs without
    the term score Tf(0) = 0."""
    return f"""WITH {_toks_cte()},
n AS (SELECT count(*) AS nd FROM documents),
dfv AS (SELECT count(DISTINCT doc_id) AS v FROM kept WHERE term = '{term}'),
idf AS (
  SELECT CAST(ln(CAST(n.nd AS DOUBLE) / (dfv.v + 1)) + 1.0 AS REAL) AS w
  FROM n, dfv
),
tf AS (
  SELECT doc_id, CAST(sqrt(CAST(count(*) AS DOUBLE)) AS REAL) AS tfv
  FROM kept WHERE term = '{term}' GROUP BY doc_id
),
scored AS (
  SELECT d.doc_id,
         COALESCE(CAST(tf.tfv * idf.w AS REAL), CAST(0 AS REAL)) AS score
  FROM documents d LEFT JOIN tf ON tf.doc_id = d.doc_id, idf
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def function_if_range_sql(lo: float, hi: float, exp: float, div: float,
                          floor_v: float, k: int = 10) -> str:
    """If/RangeMap/Pow/Div/Max oracle (search/function.py): per doc
    x = f32(n_chars); score = max(x in [lo,hi] ? f32(pow(x, exp)) : x/div,
    floor_v) — REAL arithmetic node-for-node, pow in DOUBLE cast back."""
    return f"""WITH scored AS (
  SELECT doc_id,
         GREATEST(
           CASE WHEN CAST(n_chars AS REAL) >= CAST({lo} AS REAL)
                 AND CAST(n_chars AS REAL) <= CAST({hi} AS REAL)
                THEN CAST(pow(CAST(CAST(n_chars AS REAL) AS DOUBLE),
                              CAST({exp} AS DOUBLE)) AS REAL)
                ELSE CAST(n_chars AS REAL) / CAST({div} AS REAL)
           END,
           CAST({floor_v} AS REAL)) AS score
  FROM documents
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def boosted_recip_sql(terms: list[str], a: float = 1000.0, b: float = 1000.0,
                      k: int = 10) -> str:
    """BoostedQuery oracle (BoostedQuery.cs CustomScorer:181-184,
    search/function.py boosted_search): OR-of-terms BM25 float32 score
    multiplied per doc by f32(a / (f32(n_chars) + b)), left-assoc float32
    exactly as ``qWeight * scorer.GetScore() * vals.SingleVal(doc)``."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"({score_expr} + COALESCE(s{i}, {ZERO_R}))"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id
),
scored AS (
  SELECT doc_id, {score_expr} AS score FROM agg
)
, boosted AS (
  SELECT s.doc_id,
         s.score * (CAST({a} AS REAL)
              / (CAST(d.n_chars AS REAL) + CAST({b} AS REAL))) AS score
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM boosted ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def facet_sum_value_sql(term: str = "spark") -> str:
    """TaxonomyFacetSumIntAssociations oracle: SUM(n_chars) at every
    taxonomy path prefix (lang and lang/source) over docs matching
    ``term`` — integer-exact."""
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term = '{term}'),
hits AS (SELECT d.* FROM documents d JOIN m USING (doc_id))
SELECT path, CAST(v AS BIGINT) AS sum_assoc FROM (
  SELECT lang AS path, sum(n_chars) AS v FROM hits GROUP BY lang
  UNION ALL
  SELECT lang || '/' || source, sum(n_chars) FROM hits GROUP BY lang, source
) ORDER BY path"""


def all_groups_sql(term: str = "spark") -> str:
    """AllGroupsCollector oracle: distinct `source` groups among docs
    matching ``term``, group keys ascending."""
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term = '{term}')
SELECT DISTINCT source AS grp FROM documents JOIN m USING (doc_id)
ORDER BY grp"""


def span_multiterm_near_sql(prefix: str = "sp", t2: str = "merge",
                            slop: int = 3) -> str:
    """SpanMultiTermQueryWrapper oracle: ordered minimal near spans where
    clause 1 is ANY term with the prefix (the SpanOr rewrite — positions of
    all matching terms merged) and clause 2 is ``t2``; span_near_count_sql's
    m1/m2 shrink rule."""
    return f"""WITH {_toks_cte()},
occ1 AS (SELECT doc_id, pos FROM kept WHERE term LIKE '{prefix}%'),
occ2 AS (SELECT doc_id, pos FROM kept WHERE term = '{t2}'),
m1 AS (
  SELECT o1.doc_id, o1.pos AS p1, min(o2.pos) AS p2
  FROM occ1 o1 JOIN occ2 o2 ON o2.doc_id = o1.doc_id AND o2.pos >= o1.pos + 1
  GROUP BY o1.doc_id, o1.pos
),
m2 AS (SELECT doc_id, max(p1) AS p1, p2 FROM m1 GROUP BY doc_id, p2)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_spans
FROM m2 WHERE p2 - p1 - 1 <= {slop}
GROUP BY doc_id ORDER BY doc_id"""


def substr_dedup_sql(L: int = 10) -> str:
    """ExactSubstr dedup oracle (ops/substrdedup.dedup_substrings — Lee et
    al. 2022 fixed-window form): duplicated L-token windows (count >= 2
    corpus-wide, within-doc repeats counted), interval cover, and the md5
    of the space-joined surviving tokens. Hashing = _MD5_INT60 over the
    space-joined window, identical to the engine."""
    h = _MD5_INT60.format(
        s=f"array_to_string(list_slice(arr, i, i + {L - 1}), ' ')")
    return f"""WITH arrs AS (
  SELECT doc_id, string_split(text, ' ') AS arr FROM documents
),
w AS (
  SELECT doc_id, i, {h} AS h
  FROM arrs, LATERAL (SELECT unnest(range(1, len(arr) - {L - 2})) AS i)
  WHERE len(arr) >= {L}
),
dups AS (SELECT h FROM w GROUP BY h HAVING count(*) >= 2),
dw AS (SELECT w.doc_id, w.i FROM w JOIN dups USING (h)),
ndw AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup_windows
        FROM dw GROUP BY doc_id),
cov AS (SELECT DISTINCT doc_id, j
        FROM dw, LATERAL (SELECT unnest(range(i, i + {L})) AS j) u(j)),
ncov AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_covered_tokens
         FROM cov GROUP BY doc_id),
tok AS (
  SELECT a.doc_id, t.j, a.arr[t.j] AS tk
  FROM arrs a, LATERAL (SELECT unnest(range(1, len(a.arr) + 1)) AS j) t
),
kept AS (
  SELECT t.doc_id,
         md5(COALESCE(string_agg(t.tk, ' ' ORDER BY t.j), '')) AS clean_md5
  FROM tok t LEFT JOIN cov c ON c.doc_id = t.doc_id AND c.j = t.j
  WHERE c.doc_id IS NULL
  GROUP BY t.doc_id
)
SELECT a.doc_id,
       CAST(len(a.arr) AS BIGINT) AS n_tokens,
       CAST(greatest(len(a.arr) - {L - 1}, 0) AS BIGINT) AS n_windows,
       COALESCE(ndw.n_dup_windows, 0) AS n_dup_windows,
       COALESCE(ncov.n_covered_tokens, 0) AS n_covered_tokens,
       COALESCE(k.clean_md5, md5('')) AS clean_md5
FROM arrs a
LEFT JOIN ndw USING (doc_id)
LEFT JOIN ncov USING (doc_id)
LEFT JOIN kept k USING (doc_id)
ORDER BY a.doc_id"""


def facet_sum_float_sql(term: str = "merge") -> str:
    """Float association facet oracle (TaxonomyFacetSumFloatAssociations):
    assoc = n_chars % 16 — small exact-in-float32 integers whose sums stay
    < 2^24, so the integer SQL sum cast through REAL equals the engine's
    float32 accumulation bit-for-bit."""
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term = '{term}'),
hits AS (SELECT d.lang, d.source, d.n_chars % 16 AS v
         FROM documents d JOIN m USING (doc_id))
SELECT path, CAST(CAST(s AS REAL) AS DOUBLE) AS sum_assoc FROM (
  SELECT lang AS path, sum(v) AS s FROM hits GROUP BY lang
  UNION ALL
  SELECT lang || '/' || source, sum(v) FROM hits GROUP BY lang, source
) ORDER BY path"""


def synonym_expand_stats_sql() -> str:
    """Solr-synonym expansion df oracle (analysis/synparse + SynonymFilter):
    'spark, flare' equivalence class shares df (docs containing either);
    'merge => unify' adds merge docs to unify's df only."""
    return f"""WITH {_toks_cte()},
d AS (SELECT DISTINCT doc_id, term FROM kept
      WHERE term IN ('spark', 'flare', 'merge', 'unify'))
SELECT term, CAST(df AS BIGINT) AS df FROM (
  SELECT 'flare' AS term,
         (SELECT count(DISTINCT doc_id) FROM d
          WHERE term IN ('spark', 'flare')) AS df
  UNION ALL
  SELECT 'merge',
         (SELECT count(DISTINCT doc_id) FROM d WHERE term = 'merge')
  UNION ALL
  SELECT 'spark',
         (SELECT count(DISTINCT doc_id) FROM d
          WHERE term IN ('spark', 'flare'))
  UNION ALL
  SELECT 'unify',
         (SELECT count(DISTINCT doc_id) FROM d
          WHERE term IN ('merge', 'unify'))
) ORDER BY term"""


def span_payload_check_sql(term: str = "merge", start_off: int = 0) -> str:
    """SpanPayloadCheckQuery oracle (spans.SpanPayloadCheckQuery): per-doc
    count of ``term`` occurrences whose start char offset equals
    ``start_off``."""
    return f"""WITH {_toks_cte()},{_OFFS_CTE}
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_spans
FROM offs WHERE term = '{term}' AND start = {start_off}
GROUP BY doc_id ORDER BY doc_id"""


def span_near_payload_check_sql(
        pairs: tuple[tuple[str, str, tuple[int, ...]], ...],
        slop: int = 0) -> str:
    """SpanNearPayloadCheckQuery oracle: for each (t1, t2, targets) pair,
    the ordered minimal near spans (span_near_count_sql's m2 rule) whose
    BOTH start offsets fall in ``targets`` — count-equality (2 == 2) plus
    per-candidate membership, the reference's first-match loop semantics."""
    legs = []
    for t1, t2, targets in pairs:
        tl = ", ".join(str(t) for t in targets)
        legs.append(f"""
SELECT '{t1} {t2}' AS pair, doc_id, CAST(count(*) AS BIGINT) AS n_spans
FROM (
  SELECT m2.doc_id
  FROM (SELECT doc_id, max(p1) AS p1, p2
        FROM (SELECT o1.doc_id, o1.pos AS p1, min(o2.pos) AS p2
              FROM kept o1 JOIN kept o2
                ON o2.doc_id = o1.doc_id AND o2.pos >= o1.pos + 1
               AND o1.term = '{t1}' AND o2.term = '{t2}'
              WHERE o1.term = '{t1}'
              GROUP BY o1.doc_id, o1.pos) m1
        GROUP BY doc_id, p2) m2
  JOIN offs o1 ON o1.doc_id = m2.doc_id AND o1.pos = m2.p1
  JOIN offs o2 ON o2.doc_id = m2.doc_id AND o2.pos = m2.p2
  WHERE m2.p2 - m2.p1 - 1 <= {slop}
    AND o1.start IN ({tl}) AND o2.start IN ({tl})
) GROUP BY doc_id"""
        )
    union = "\nUNION ALL\n".join(legs)
    return f"""WITH {_toks_cte()},{_OFFS_CTE}
SELECT * FROM ({union})
ORDER BY pair, doc_id"""


def block_join_groups_sql(n_groups: int = 10, docs_per_group: int = 3) -> str:
    """ToParentBlockJoinCollector.GetTopGroups oracle
    (ops/joins.to_parent_block_join_groups): top parents by max matched-child
    extendedprice with per-group hit counts and top children per parent by
    (score desc, linenumber asc)."""
    return f"""WITH c AS (
  SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
         CAST(l_extendedprice AS DOUBLE) AS s
  FROM lineitem WHERE l_returnflag = 'R' AND l_quantity > 30
),
p AS (
  SELECT l_orderkey, max(s) AS parent_score,
         CAST(count(*) AS BIGINT) AS group_hits
  FROM c GROUP BY l_orderkey
),
topp AS (
  SELECT * FROM p ORDER BY parent_score DESC, l_orderkey ASC LIMIT {n_groups}
),
ranked AS (
  SELECT c.l_orderkey, t.parent_score, t.group_hits, c.l_linenumber,
         c.s AS child_score,
         CAST(row_number() OVER (PARTITION BY c.l_orderkey
                                 ORDER BY c.s DESC, c.l_linenumber ASC)
              AS BIGINT) AS child_rank
  FROM c JOIN topp t USING (l_orderkey)
)
SELECT l_orderkey, parent_score, group_hits, child_rank, l_linenumber,
       child_score
FROM ranked WHERE child_rank <= {docs_per_group}
ORDER BY parent_score DESC, l_orderkey ASC, child_rank ASC"""


def group_facets_sql(term: str = "spark", group_field: str = "source",
                     facet_field: str = "lang", size: int = 10,
                     min_count: int = 1) -> str:
    """Grouped-facets oracle (search/group_facets.group_facets — the
    TermGroupFacetCollector contract with global pair dedup): per facet
    value, COUNT(DISTINCT group) among docs matching ``term``; entries
    count desc then value asc, capped at ``size`` after the ``min_count``
    filter; totalCount/totalMissingCount as repeated columns."""
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term = '{term}'),
pairs AS (SELECT DISTINCT d.{group_field} AS grp, d.{facet_field} AS facet
          FROM documents d JOIN m USING (doc_id)),
cnt AS (SELECT facet, count(*) AS group_count FROM pairs
        WHERE facet IS NOT NULL AND facet <> '' GROUP BY facet),
tot AS (SELECT CAST(COALESCE(sum(group_count), 0) AS BIGINT) AS t FROM cnt),
miss AS (SELECT count(*) AS mc FROM pairs
         WHERE facet IS NULL OR facet = '')
SELECT facet, group_count,
       (SELECT t FROM tot) AS total_count,
       (SELECT CAST(mc AS BIGINT) FROM miss) AS missing_count
FROM cnt WHERE group_count >= {min_count}
ORDER BY group_count DESC, facet ASC LIMIT {size}"""


def group_heads_sql(term: str = "spark") -> str:
    """AllGroupHeadsCollector oracle: per `source` group, the top-scoring
    doc for the single-term BM25 query (score desc, doc asc tie) — the
    float32 score CTE widened to DOUBLE for output."""
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte([term])},
tf AS (
  SELECT doc_id, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term = '{term}' GROUP BY doc_id
),
scored AS (
  SELECT tf.doc_id, (w.wv * tf.f) / (tf.f + c.cache) AS score
  FROM tf
  JOIN qweights w ON w.term = '{term}'
  JOIN normcache c ON c.doc_id = tf.doc_id
),
ranked AS (
  SELECT d.source AS grp, s.doc_id, s.score,
         row_number() OVER (PARTITION BY d.source
                            ORDER BY s.score DESC, s.doc_id ASC) AS rn
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT grp, doc_id, CAST(score AS DOUBLE) AS score
FROM ranked WHERE rn = 1 ORDER BY grp"""


def _grams_cte(k: int) -> str:
    """Distinct md5-int60 k-gram hashes per doc (docs shorter than k drop
    out) — identical hashing to ops/decontaminate._gram_hashes."""
    h = _MD5_INT60.format(
        s=f"array_to_string(list_slice(arr, i, i + {k - 1}), ' ')")
    return f"""arrs AS (SELECT doc_id, string_split(text, ' ') AS arr FROM documents),
grams AS (
  SELECT DISTINCT doc_id, {h} AS h
  FROM arrs, LATERAL (SELECT unnest(range(1, len(arr) - {k - 2})) AS i)
  WHERE len(arr) >= {k}
)"""


def decontaminate_sql(modulo: int = 97, k: int = 8) -> str:
    """Decontamination oracle (ops/decontaminate.decontaminate): per
    non-benchmark doc, the count of its distinct k-grams present in the
    benchmark subset's (doc_id % modulo = 0) gram set."""
    return f"""WITH {_grams_cte(k)},
bench AS (SELECT DISTINCT h FROM grams WHERE doc_id % {modulo} = 0)
SELECT g.doc_id, count(*) AS n_hits
FROM grams g JOIN bench USING (h)
WHERE g.doc_id % {modulo} <> 0
GROUP BY g.doc_id ORDER BY g.doc_id"""


def dup_ngrams_sql(k: int = 5) -> str:
    """Cross-document duplicated k-grams oracle
    (ops/decontaminate.dup_ngram_counts): per doc, its distinct k-grams
    shared with at least one other doc."""
    return f"""WITH {_grams_cte(k)},
common AS (SELECT h FROM grams GROUP BY h HAVING count(*) > 1)
SELECT doc_id, count(*) AS n_dup
FROM grams JOIN common USING (h)
GROUP BY doc_id ORDER BY doc_id"""


def slow_fuzzy_sql(probe: str = "batch", min_sim: float = 0.5) -> str:
    """SlowFuzzyQuery term-enum oracle (ops/slowfuzzy.slow_fuzzy_terms):
    similarity = f32(1 - lev/min(len(term), len(probe))), accepted when
    strictly above min_sim; boost = f32((sim - min_sim) / (1 - min_sim))."""
    plen = len(probe)
    return f"""WITH {_toks_cte()},
termdf AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term
),
scored AS (
  SELECT term, df,
         CAST(1.0 AS REAL)
           - CAST(levenshtein(term, '{probe}') AS REAL)
             / CAST(least(length(term), {plen}) AS REAL) AS sim
  FROM termdf
)
SELECT term, df,
       CAST((sim - CAST({min_sim} AS REAL))
            * (CAST(1.0 AS REAL) / (CAST(1.0 AS REAL) - CAST({min_sim} AS REAL)))
            AS DOUBLE) AS boost
FROM scored WHERE sim > CAST({min_sim} AS REAL)
ORDER BY term"""


def fuzzy_like_this_sql(tokens: list[str], min_sim: float = 0.2,
                        k: int = 10) -> str:
    """FuzzyLikeThisQuery.AddTerms oracle (ops/slowfuzzy.fuzzy_like_this):
    per source token, slow-fuzzy variants with boost ramp; one idf per
    token (source df, else integer-mean variant df); variant score =
    f32((boost * boost) * idf); global top-k (score desc, term, source)."""
    ms = f"CAST({min_sim} AS REAL)"
    scale = f"(CAST(1.0 AS REAL) / (CAST(1.0 AS REAL) - {ms}))"
    parts = []
    for i, tok in enumerate(tokens):
        sim = (f"CAST(1.0 AS REAL) - CAST(levenshtein(term, '{tok}') AS REAL)"
               f" / CAST(least(length(term), {len(tok)}) AS REAL)")
        parts.append(f"""v{i} AS (
  SELECT '{tok}' AS source, term, df, (sim - {ms}) * {scale} AS boost
  FROM (SELECT term, df, {sim} AS sim FROM termdf)
  WHERE sim > {ms}
),
d{i} AS (
  SELECT CASE WHEN max(CASE WHEN term = '{tok}' THEN df END) IS NOT NULL
              THEN max(CASE WHEN term = '{tok}' THEN df END)
              ELSE sum(df) // count(*) END AS dfsrc
  FROM v{i}
),
s{i} AS (
  SELECT source, term,
         (boost * boost)
           * CAST(ln(CAST((SELECT N FROM coll) AS DOUBLE)
                     / (d{i}.dfsrc + 1)) + 1.0 AS REAL) AS score
  FROM v{i}, d{i}
)""")
    union = "\nUNION ALL\n".join(f"SELECT * FROM s{i}"
                                 for i in range(len(tokens)))
    ctes = ",\n".join(parts)
    return f"""WITH {_toks_cte()},
termdf AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term
),
{ctes}
SELECT source, term, CAST(score AS DOUBLE) AS score
FROM ({union})
ORDER BY score DESC, term ASC, source ASC LIMIT {k}"""


def sorted_set_sort_sql(k: int = 20) -> str:
    """SortedSetSortField oracle (search/sortedset.sorted_set_sort): docs
    with a non-empty kept-term set ordered by their lexicographic MIN term
    (doc asc ties), MAX term alongside."""
    return f"""WITH {_toks_cte()}
SELECT doc_id, min(term) AS min_term, max(term) AS max_term
FROM kept GROUP BY doc_id
ORDER BY min_term, doc_id LIMIT {k}"""


def pii_scrub_sql() -> str:
    """PII scrub oracle (ops/scrub.PiiScrub over pii_augmented_text): the
    augmented text is re-derived from the same md5 formulas, then RE2
    regexp_extract_all / regexp_replace pin the exact find+redact
    semantics the Ray op must reproduce."""
    from lucenenet_ray.ops.scrub import EMAIL_RE, IPV4_RE, PHONE_RE

    h1 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':email'")
    h2 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':phone'")
    h3 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':ip'")
    # DuckDB single-quoted literals are escape-free: patterns go verbatim
    email, phone, ip = EMAIL_RE, PHONE_RE, IPV4_RE
    return f"""WITH h AS (
  SELECT doc_id, text, {h1} AS h1, {h2} AS h2, {h3} AS h3 FROM documents
),
aug AS (
  SELECT doc_id,
         text
         || CASE WHEN h1 % 3 = 0
                 THEN ' user'||(h1 % 97)||'@mail'||(h1 % 13)||'.com'
                 ELSE '' END
         || CASE WHEN h2 % 4 = 0
                 THEN ' +1-555-'||(1000 + h2 % 9000)
                 ELSE '' END
         || CASE WHEN h3 % 5 = 0
                 THEN ' 10.'||(h3 % 256)||'.'||(h2 % 256)||'.'||(h1 % 256)
                 ELSE '' END AS t
  FROM h
)
SELECT doc_id,
       CAST(len(regexp_extract_all(t, '{email}')) AS BIGINT) AS n_emails,
       CAST(len(regexp_extract_all(t, '{phone}')) AS BIGINT) AS n_phones,
       CAST(len(regexp_extract_all(t, '{ip}')) AS BIGINT) AS n_ips,
       CAST(len(regexp_replace(regexp_replace(regexp_replace(t,
            '{email}', '<EMAIL>', 'g'),
            '{phone}', '<PHONE>', 'g'),
            '{ip}', '<IP>', 'g')) AS BIGINT) AS redacted_n_chars
FROM aug ORDER BY doc_id"""


def repetition_removal_sql(k: int = 3) -> str:
    """Within-doc repeated-chunk removal oracle (ops/scrub.RepetitionRemover):
    consecutive non-overlapping k-token chunks, first occurrence kept."""
    return f"""WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS arr FROM documents
),
chunks AS (
  SELECT doc_id, i,
         array_to_string(arr[i:least(i + {k - 1}, len(arr))], ' ') AS chunk,
         least(i + {k - 1}, len(arr)) - i + 1 AS clen
  FROM toks, LATERAL (SELECT unnest(range(1, len(arr) + 1, {k})) AS i) r
),
marked AS (
  SELECT doc_id, clen,
         row_number() OVER (PARTITION BY doc_id, chunk ORDER BY i) AS rn
  FROM chunks
)
SELECT doc_id,
       CAST(COALESCE(sum(CASE WHEN rn = 1 THEN clen ELSE 0 END), 0) AS BIGINT)
         AS clean_n_tokens,
       CAST(COALESCE(sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS chunks_removed
FROM marked GROUP BY doc_id ORDER BY doc_id"""


def en_minimal_stats_sql() -> str:
    """EnglishMinimalStemmer oracle (Analysis/En/EnglishMinimalStemmer.cs,
    Harman S-stemmer): the plural-strip rules as one CASE over the standard
    kept-token stream; stemmed (term, df, ttf)."""
    return f"""WITH {_toks_cte()},
st AS (
  SELECT doc_id, CASE
    WHEN len(term) < 3 OR substr(term, len(term), 1) <> 's' THEN term
    WHEN substr(term, len(term)-1, 1) IN ('u','s') THEN term
    WHEN substr(term, len(term)-1, 1) = 'e' AND len(term) > 3
         AND substr(term, len(term)-2, 1) = 'i'
         AND substr(term, len(term)-3, 1) NOT IN ('a','e')
      THEN substr(term, 1, len(term)-3) || 'y'
    WHEN substr(term, len(term)-1, 1) = 'e'
         AND substr(term, len(term)-2, 1) IN ('i','a','o','e') THEN term
    ELSE substr(term, 1, len(term)-1) END AS term
  FROM kept
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM st GROUP BY term ORDER BY term"""


def term_stats_cz_stemmed_sql() -> str:
    """CzechStemmer oracle (Analysis/Cz/CzechStemmer.cs) applied
    corpus-wide with the engine's Czech stop set. The corpus is ASCII, so
    the diacritic branches (ětem/atům/ův/čt/št/ů…) are statically dead and
    the CASE chains mirror only the ASCII-reachable rules — exact on this
    input, like term_stats_de_stemmed's fold no-op."""
    from lucenenet_ray.analysis.lang import CZECH_STOP

    stop = "(" + ", ".join(f"'{w}'" for w in sorted(CZECH_STOP)) + ")"
    suf3 = "('ech','ich','emi','ete','eti','iho','imu','ata','aty','ama'," \
           "'ami','ovi')"
    suf2 = "('em','es','at','os','us','mi','ou')"
    return f"""WITH t0 AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents
),
k AS (SELECT doc_id, w FROM t0 WHERE w <> '' AND w NOT IN {stop}),
c1 AS (
  SELECT doc_id, CASE
    WHEN len(w) > 7 AND substr(w, len(w)-4, 5) = 'atech'
      THEN substr(w, 1, len(w)-5)
    WHEN len(w) > 6 AND substr(w, len(w)-3, 4) = 'etem'
      THEN substr(w, 1, len(w)-4)
    WHEN len(w) > 5 AND substr(w, len(w)-2, 3) IN {suf3}
      THEN substr(w, 1, len(w)-3)
    WHEN len(w) > 4 AND substr(w, len(w)-1, 2) IN {suf2}
      THEN substr(w, 1, len(w)-2)
    WHEN len(w) > 3 AND substr(w, len(w), 1) IN ('a','e','i','o','u','y')
      THEN substr(w, 1, len(w)-1)
    ELSE w END AS w
  FROM k
),
c2 AS (
  SELECT doc_id, CASE
    WHEN len(w) > 5 AND substr(w, len(w)-1, 2) IN ('ov','in')
      THEN substr(w, 1, len(w)-2)
    ELSE w END AS w
  FROM c1
),
c3 AS (
  SELECT doc_id, CASE
    WHEN w = '' THEN w
    WHEN substr(w, len(w), 1) = 'c' THEN substr(w, 1, len(w)-1) || 'k'
    WHEN substr(w, len(w), 1) = 'z' THEN substr(w, 1, len(w)-1) || 'h'
    WHEN len(w) > 1 AND substr(w, len(w)-1, 1) = 'e'
      THEN substr(w, 1, len(w)-2) || substr(w, len(w), 1)
    ELSE w END AS term
  FROM c2
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM c3 GROUP BY term ORDER BY term"""


def common_grams_stats_sql() -> str:
    """CommonGramsFilter oracle (Analysis/CommonGrams/CommonGramsFilter.cs):
    unigrams all kept (NO stop removal — the filter replaces StopFilter),
    plus prev_cur grams for adjacent pairs where either side is common
    (common set = the engine's English stop set); (term, df, ttf)."""
    return f"""WITH t0 AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
uni AS (SELECT doc_id, term FROM t0 WHERE term <> ''),
grams AS (
  SELECT a.doc_id, a.term || '_' || b.term AS term
  FROM t0 a JOIN t0 b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  WHERE a.term <> '' AND b.term <> ''
    AND (a.term IN {STOP_SQL} OR b.term IN {STOP_SQL})
),
allt AS (SELECT * FROM uni UNION ALL SELECT * FROM grams)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM allt GROUP BY term ORDER BY term"""


def path_hierarchy_stats_sql() -> str:
    """PathHierarchyTokenizer oracle (Analysis/Path/PathHierarchyTokenizer
    .cs): each doc's synthetic path source/lang/d<doc_id%7> emits its three
    prefix tokens; (term, df, ttf)."""
    return """WITH p AS (
  SELECT doc_id, source, lang, 'd' || (doc_id % 7) AS leaf FROM documents
),
toks AS (
  SELECT doc_id, source AS term FROM p
  UNION ALL
  SELECT doc_id, source || '/' || lang FROM p
  UNION ALL
  SELECT doc_id, source || '/' || lang || '/' || leaf FROM p
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM toks GROUP BY term ORDER BY term"""


def reverse_stats_sql() -> str:
    """ReverseStringFilter oracle (Analysis/Reverse/ReverseStringFilter.cs):
    stats over reversed kept tokens — the leading-wildcard index shape."""
    return f"""WITH {_toks_cte()}
SELECT reverse(term) AS term, count(DISTINCT doc_id) AS df,
       count(*) AS ttf
FROM kept GROUP BY reverse(term) ORDER BY term"""


COMPOUND_DICT = ("win", "dow", "tab", "le", "ord", "er", "bat", "ch",
                 "str", "eam", "spa", "rk", "vec", "tor", "sma", "ll")


def compound_stats_sql() -> str:
    """DictionaryCompoundWordTokenFilter oracle
    (Analysis/Compound/DictionaryCompoundWordTokenFilter.cs): originals +
    every dictionary subword (len 2..15) of tokens >= 5 chars, any start
    offset; (term, df, ttf)."""
    d = "(" + ", ".join(f"'{w}'" for w in sorted(COMPOUND_DICT)) + ")"
    return f"""WITH {_toks_cte()},
subs AS (
  SELECT doc_id, substr(term, i + 1, j) AS term
  FROM kept,
       LATERAL (SELECT unnest(range(0, len(term) - 2 + 1)) AS i) a,
       LATERAL (SELECT unnest(range(2, 16)) AS j) b
  WHERE len(term) >= 5 AND i + j <= len(term)
    AND substr(term, i + 1, j) IN {d}
),
allt AS (
  SELECT doc_id, term FROM kept
  UNION ALL SELECT doc_id, term FROM subs
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM allt GROUP BY term ORDER BY term"""


def icu_fold_stats_sql() -> str:
    """ICUFoldingFilter oracle (Analysis/Icu/ICUFoldingFilter.cs analog,
    analysis/icu_like.icu_fold): deterministic accents are spliced into
    each doc (md5-gated a→à / e→é / o→ô replaces, SQL-mirrored), then the
    fold must restore the ASCII term stream — on this precomposed Latin
    palette lower(strip_accents(x)) is provably equal to the full
    NFKD/strip-Mn/casefold/NFKC fold (pinned by pytest)."""
    h1 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':a'")
    h2 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':e'")
    h3 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':o'")
    return f"""WITH aug AS (
  SELECT doc_id,
         CASE WHEN {h3} % 5 = 0 THEN replace(
                CASE WHEN {h2} % 4 = 0 THEN replace(
                  CASE WHEN {h1} % 3 = 0 THEN replace(text, 'a', 'à')
                       ELSE text END, 'e', 'é') ELSE
                  CASE WHEN {h1} % 3 = 0 THEN replace(text, 'a', 'à')
                       ELSE text END END, 'o', 'ô')
              ELSE
                CASE WHEN {h2} % 4 = 0 THEN replace(
                  CASE WHEN {h1} % 3 = 0 THEN replace(text, 'a', 'à')
                       ELSE text END, 'e', 'é') ELSE
                  CASE WHEN {h1} % 3 = 0 THEN replace(text, 'a', 'à')
                       ELSE text END END
         END AS t
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(string_split(t, ' ')) AS term FROM aug
),
folded AS (
  SELECT doc_id, lower(strip_accents(term)) AS term
  FROM toks WHERE term <> ''
)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM folded GROUP BY term ORDER BY term"""


def auto_stop_terms_sql(max_percent_docs: float = 0.765625) -> str:
    """QueryAutoStopWordAnalyzer oracle
    (Analysis/Query/QueryAutoStopWordAnalyzer.cs:119-145): body terms with
    df strictly greater than (int)(NumDocs * maxPercentDocs). The engine
    truncates a float32 product (the reference's C# cast); this SQL floors
    a double product — the gate pct 0.765625 (= 49/64) is exactly
    representable in BOTH widths, so the truncated thresholds are
    identical at every N."""
    return f"""WITH {_toks_cte()},
g AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term
)
SELECT g.term, CAST(g.df AS BIGINT) AS df
FROM g, coll
WHERE g.df > CAST(floor(coll.N * {max_percent_docs}) AS BIGINT)
ORDER BY g.term"""


def hll_distinct_sql() -> str:
    """HyperLogLog oracle (ops/sketch.py): re-derives every register from
    the md5 formulas — idx = low 10 bits of the first 4 hex chars, rho =
    41 - bit_length(40-bit suffix) + 1 via length(bin(v)) (string-exact
    bit length, no float log2) — then the exact integer invariants. The
    alpha constant is the exact rational 7213·m/(10000·m+10790), so
    est_raw floor-divides in HUGEINT."""
    m = 1024
    kmax = 41
    num = 7213 * m * m * m * (1 << kmax)
    den_c = 10000 * m + 10790
    return f"""WITH d AS (
  SELECT DISTINCT CAST(l_orderkey AS VARCHAR) AS s FROM lineitem
),
hr AS (
  SELECT CAST(('0x'||substr(md5(s),1,4)) AS BIGINT) % {m} AS idx,
         CAST(('0x'||substr(md5(s),5,10)) AS BIGINT) AS v
  FROM d
),
rr AS (
  SELECT idx,
         max(CASE WHEN v = 0 THEN {kmax}
                  ELSE 40 - length(bin(v)) + 1 END) AS rho
  FROM hr GROUP BY idx
),
reg AS (
  SELECT COALESCE(rr.rho, 0) AS rho
  FROM range({m}) r(i) LEFT JOIN rr ON rr.idx = r.i
),
agg AS (
  SELECT CAST(count(*) FILTER (rho = 0) AS BIGINT) AS n_zero,
         CAST(sum(1::BIGINT << ({kmax} - rho)) AS BIGINT) AS harmonic_s
  FROM reg
)
SELECT CAST({m} AS BIGINT) AS m, n_zero, harmonic_s,
       CAST(CAST('{num}' AS HUGEINT) //
            (CAST('{den_c}' AS HUGEINT) * harmonic_s) AS BIGINT) AS est_raw
FROM agg"""


def cms_heavy_hitters_sql(threshold_div: int = 32) -> str:
    """Count-Min oracle (ops/sketch.py): bucket per (row r, term) from
    md5("{{r}}:{{term}}") first 8 hex chars mod 1024; bucket counts sum
    ALL colliding terms' occurrences; estimate = min over the 4 rows;
    heavy hitters = estimate >= total_tokens // div."""
    bucket = ("CAST(('0x'||substr(md5(CAST(r.r AS VARCHAR)||':'||term),1,8))"
              " AS BIGINT) % 1024")
    return f"""WITH {_toks_cte()},
tt AS (
  SELECT term, CAST(count(*) AS BIGINT) AS c FROM kept GROUP BY term
),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM tt),
buck AS (
  SELECT r.r AS r, term, c, {bucket} AS b
  FROM tt, range(4) r(r)
),
bc AS (SELECT r, b, CAST(sum(c) AS BIGINT) AS bcount FROM buck GROUP BY r, b),
est AS (
  SELECT term, CAST(min(bc.bcount) AS BIGINT) AS est
  FROM buck JOIN bc USING (r, b) GROUP BY term
)
SELECT term, est FROM est, tot
WHERE est >= n // {threshold_div} ORDER BY term"""


def freq_mass_sql() -> str:
    """FreqMass oracle (ops/textstats.FreqMass): per doc, the sum of
    GLOBAL ttf/df over its kept-token occurrences — exact integers."""
    return f"""WITH {_toks_cte()},
g AS (
  SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
  FROM kept GROUP BY term
)
SELECT d.doc_id,
       CAST(COALESCE(sum(g.ttf), 0) AS BIGINT) AS ttf_mass,
       CAST(COALESCE(sum(g.df), 0) AS BIGINT) AS df_mass,
       CAST(count(k.term) AS BIGINT) AS n_kept
FROM documents d
LEFT JOIN kept k USING (doc_id)
LEFT JOIN g ON k.term = g.term
GROUP BY d.doc_id ORDER BY d.doc_id"""


def funnel_sql(steps: tuple[str, ...] = ("view", "click", "purchase")
               ) -> str:
    """Funnel oracle (ops/funnel.funnel): per step, users whose earliest
    qualifying event (strictly after the previous step's first completion)
    exists; cascading min-timestamp joins."""
    ctes = ["""s1 AS (
  SELECT user_id, min(ts) AS t FROM events
  WHERE event_type = '{0}' GROUP BY user_id
)""".format(steps[0].replace("'", "''"))]
    for i in range(1, len(steps)):
        esc = steps[i].replace("'", "''")
        ctes.append(f"""s{i + 1} AS (
  SELECT e.user_id, min(e.ts) AS t
  FROM events e JOIN s{i} USING (user_id)
  WHERE e.event_type = '{esc}' AND e.ts > s{i}.t
  GROUP BY e.user_id
)""")
    selects = [
        f"SELECT '{steps[i].replace(chr(39), chr(39) * 2)}' AS step, "
        f"CAST({i + 1} AS BIGINT) AS step_ord, "
        f"CAST((SELECT count(*) FROM s{i + 1}) AS BIGINT) AS n_users"
        for i in range(len(steps))]
    return ("WITH " + ",\n".join(ctes) + "\n" +
            "\nUNION ALL\n".join(selects) + "\nORDER BY step_ord")


def url_email_stats_sql() -> str:
    """UAX29URLEmailTokenizer oracle (analysis/urlemail.py): urls/emails
    are deterministically spliced into each doc (md5 formulas), then per
    token-type (term, type, df, ttf) — regexp_matches is anchored-pattern
    exact on the same whitespace tokens."""
    from lucenenet_ray.analysis.urlemail import EMAIL_TOKEN_RE, URL_TOKEN_RE

    em = EMAIL_TOKEN_RE.replace("'", "''")
    ur = URL_TOKEN_RE.replace("'", "''")
    h1 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':url'")
    h2 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':em'")
    h3 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':mlt'")
    stop = STOP_SQL
    is_mailto = (f"term LIKE 'mailto:%' AND "
                 f"regexp_matches(substr(term, 8), '{em}')")
    return f"""WITH aug AS (
  SELECT doc_id,
         text
         || CASE WHEN {h1} % 3 = 0
                 THEN ' https://site' || ({h1} % 50) || '.example.com/p/'
                      || ({h1} % 7)
                      || CASE WHEN {h1} % 2 = 0
                              THEN '?q=' || ({h1} % 9) || '&x=2'
                              ELSE '' END
                 ELSE '' END
         || CASE WHEN {h2} % 4 = 0
                 THEN ' dev' || ({h2} % 60) || '@corp' || ({h2} % 5)
                      || '.io' ELSE '' END
         || CASE WHEN {h2} % 8 = 0
                 THEN ' ip' || ({h2} % 60) || '@[10.0.0.' || ({h2} % 9)
                      || ']' ELSE '' END
         || CASE WHEN {h3} % 5 = 0
                 THEN ' mailto:u' || ({h3} % 40) || '@m' || ({h3} % 3)
                      || '.org' ELSE '' END AS t
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(string_split(t, ' ')) AS term FROM aug
),
typed AS (
  SELECT doc_id, term,
         CASE WHEN regexp_matches(term, '{em}')
              THEN '<EMAIL>'
              WHEN regexp_matches(term, '{ur}')
              THEN '<URL>'
              ELSE '<ALPHANUM>' END AS type
  FROM toks WHERE term <> '' AND NOT ({is_mailto})
  UNION ALL
  SELECT doc_id, 'mailto', '<ALPHANUM>' FROM toks WHERE {is_mailto}
  UNION ALL
  SELECT doc_id, substr(term, 8), '<EMAIL>' FROM toks WHERE {is_mailto}
),
kept AS (
  SELECT * FROM typed
  WHERE type <> '<ALPHANUM>' OR term NOT IN {stop}
)
SELECT term, type, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM kept GROUP BY term, type ORDER BY term, type"""


def word_break_sql(probes: tuple[str, ...] = ("sparkwindow",
                                              "batchmerge")) -> str:
    """WordBreakSpellChecker.SuggestWordBreaks analog (maxChanges=1): every
    split of each probe whose two halves are both dictionary terms, ranked
    like LengthThenMaxFreqComparer (max df desc) with a deterministic
    (left, right) tiebreak."""
    vals = ", ".join(f"('{p}')" for p in probes)
    return f"""WITH {_toks_cte()},
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term),
probes(probe) AS (VALUES {vals}),
splits AS (
  SELECT probe, i,
         substr(probe, 1, i) AS left_word,
         substr(probe, i + 1) AS right_word
  FROM probes, LATERAL (SELECT unnest(generate_series(1, len(probe) - 1))
                        AS i)
)
SELECT s.probe, s.left_word, s.right_word,
       l.df AS left_df, r.df AS right_df
FROM splits s
JOIN dfs l ON l.term = s.left_word
JOIN dfs r ON r.term = s.right_word
ORDER BY s.probe, greatest(l.df, r.df) DESC, s.left_word, s.right_word"""


def word_combine_sql(terms: tuple[str, ...] = ("spark", "win", "dow",
                                               "merge", "sort")) -> str:
    """WordBreakSpellChecker.SuggestWordCombinations analog (maxChanges=1,
    SUGGEST_ALWAYS): adjacent term pairs whose concatenation is a
    dictionary term, ranked by combined df desc then position."""
    vals = ", ".join(
        f"({i}, '{terms[i]}', '{terms[i] + terms[i + 1]}')"
        for i in range(len(terms) - 1))
    return f"""WITH {_toks_cte()},
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term),
pairs(idx, left_word, combined) AS (VALUES {vals})
SELECT CAST(p.idx AS BIGINT) AS idx, p.combined, d.df
FROM pairs p JOIN dfs d ON d.term = p.combined
WHERE d.df >= 1
ORDER BY d.df DESC, p.idx"""


def png_decode_stats_sql(n: int = 48) -> str:
    """PNG decode oracle (ops/png.py, ops/multimodal.synthesize_png_table):
    the engine round-trips md5-derived pixels through a REAL
    zlib/filtered PNG encode+decode; the oracle recomputes (height,
    width, per-channel pixel sums) straight from the md5 formulas —
    pixel byte (r, c, ch) of image i = byte (c*3+ch) of
    md5('png:'||i||':'||r). No zlib in the oracle: a decoder bug cannot
    cancel out."""
    hh = _MD5_INT31.format(s="CAST(i AS VARCHAR)||':pngd'")
    byte = ("CAST(('0x'||substr(md5('png:'||i||':'||r), "
            "2*(c*3+ch)+1, 2)) AS BIGINT)")
    return f"""WITH imgs AS (
  SELECT i, 4 + ({hh}) % 5 AS h, 3 + ({hh}) % 3 AS w
  FROM generate_series(0, {n - 1}) AS t(i)
),
px AS (
  SELECT imgs.i, imgs.h, imgs.w, r.r, c.c, ch.ch, {byte} AS v
  FROM imgs
  JOIN generate_series(0, 8) AS r(r) ON r.r < imgs.h
  JOIN generate_series(0, 5) AS c(c) ON c.c < imgs.w
  JOIN generate_series(0, 2) AS ch(ch) ON TRUE
)
SELECT i AS item_id, CAST(h AS BIGINT) AS height,
       CAST(w AS BIGINT) AS width,
       CAST(sum(v) FILTER (WHERE ch = 0) AS BIGINT) AS sum_r,
       CAST(sum(v) FILTER (WHERE ch = 1) AS BIGINT) AS sum_g,
       CAST(sum(v) FILTER (WHERE ch = 2) AS BIGINT) AS sum_b
FROM px GROUP BY i, h, w ORDER BY i"""


def wikipedia_stats_sql() -> str:
    """WikipediaTokenizer oracle (analysis/wikipedia.py): the corpus is
    plain space-separated words (→ <ALPHANUM>); every spliced
    wiki-markup snippet's token output is a STRING FORMULA the oracle
    re-emits directly (positional-probe style — the engine does the
    real scanning, the oracle asserts the expected contract output)."""
    h1 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':wcat'")
    h2 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':wlink'")
    h3 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':whead'")
    h4 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':wfmt'")
    h5 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':wext'")
    return f"""WITH base AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term,
         '<ALPHANUM>' AS type
  FROM documents
),
splice AS (
  SELECT doc_id, 'cat' || ({h1} % 40) AS term, 'c' AS type
  FROM documents WHERE {h1} % 3 = 0
  UNION ALL
  SELECT doc_id, 'page' || ({h2} % 30), 'il'
  FROM documents WHERE {h2} % 4 = 0
  UNION ALL
  SELECT doc_id, 'go' || ({h2} % 5), 'il'
  FROM documents WHERE {h2} % 4 = 0
  UNION ALL
  SELECT doc_id, 'top' || ({h3} % 20), 'h'
  FROM documents WHERE {h3} % 5 = 0
  UNION ALL
  SELECT doc_id, 'deep' || ({h3} % 10), 'sh'
  FROM documents WHERE {h3} % 7 = 0
  UNION ALL
  SELECT doc_id, 'strong' || ({h4} % 15), 'b'
  FROM documents WHERE {h4} % 6 = 0
  UNION ALL
  SELECT doc_id, 'soft' || ({h4} % 12), 'i'
  FROM documents WHERE {h4} % 8 = 0
  UNION ALL
  SELECT doc_id, 'http://w' || ({h5} % 25) || '.org/p', 'elu'
  FROM documents WHERE {h5} % 9 = 0
  UNION ALL
  SELECT doc_id, 'via' || ({h5} % 4), 'el'
  FROM documents WHERE {h5} % 9 = 0
  UNION ALL
  SELECT doc_id, 'on' || ({h5} % 3), 'el'
  FROM documents WHERE {h5} % 9 = 0
  UNION ALL
  SELECT doc_id, 'cite' || ({h5} % 6), 'ci'
  FROM documents WHERE {h5} % 11 = 0
),
allt AS (
  SELECT * FROM base WHERE term <> ''
  UNION ALL SELECT * FROM splice
)
SELECT term, type, count(DISTINCT doc_id) AS df,
       CAST(count(*) AS BIGINT) AS ttf
FROM allt GROUP BY term, type ORDER BY term, type"""


def classic_stats_sql() -> str:
    """ClassicAnalyzer oracle (analysis/core_tokenizers.py): classic-typed
    tokens (acronym/company/host/num) are deterministically spliced into
    each doc; per (term, type) stats. Corpus tokens are plain [a-z0-9]+
    so ClassicTokenizer degenerates to whitespace+stop on them."""
    h1 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':acr'")
    h2 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':co'")
    h3 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':host'")
    h4 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':num'")
    return f"""WITH aug AS (
  SELECT doc_id,
         text
         || CASE WHEN {h1} % 3 = 0
                 THEN ' ' || ['u.s.a.', 'i.b.m.', 'd.n.a.'][({h1} % 3) + 1]
                 ELSE '' END
         || CASE WHEN {h2} % 4 = 0
                 THEN ' ' || ['at&t', 'excite@home',
                              'procter&gamble'][({h2} % 3) + 1]
                 ELSE '' END
         || CASE WHEN {h3} % 5 = 0
                 THEN ' www.site' || ({h3} % 40) || '.org' ELSE '' END
         || CASE WHEN {h4} % 6 = 0
                 THEN ' ' || ({h4} % 9) || '-x-' || ({h4} % 7)
                 ELSE '' END AS t
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(string_split(t, ' ')) AS raw FROM aug
),
typed AS (
  SELECT doc_id,
         CASE WHEN regexp_matches(raw, '^[a-z]\\.([a-z]\\.)+$')
              THEN replace(raw, '.', '') ELSE raw END AS term,
         CASE WHEN regexp_matches(raw, '^[a-z]\\.([a-z]\\.)+$')
              THEN '<ACRONYM>'
              WHEN regexp_matches(raw, '^[a-z]+[&@][a-z]+$')
              THEN '<COMPANY>'
              WHEN regexp_matches(raw, '^[a-z0-9]+(\\.[a-z0-9]+)+$')
              THEN '<HOST>'
              WHEN regexp_matches(raw,
                   '^[0-9]+(-[a-z0-9]+-[0-9]+)+$')
              THEN '<NUM>'
              ELSE '<ALPHANUM>' END AS type
  FROM toks WHERE raw <> ''
),
kept AS (
  SELECT * FROM typed
  WHERE type <> '<ALPHANUM>' OR term NOT IN {STOP_SQL}
)
SELECT term, type, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM kept GROUP BY term, type ORDER BY term, type"""


def suggest_blended_sql(query: str, k: int = 10) -> str:
    """BlendedInfixSuggester oracle (POSITION_LINEAR): score =
    trunc(weight * (1 - 0.10 * first-matching-token-position))."""
    esc = query.replace("'", "''").replace("%", "\\%").replace("_", "\\_")
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
big AS (
  SELECT doc_id,
         term || ' ' || lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS sh
  FROM toks WHERE term <> ''
),
dict AS (
  SELECT sh AS key, count(*) AS weight
  FROM big WHERE sh IS NOT NULL
    AND (sh LIKE '{esc}%' ESCAPE '\\' OR sh LIKE '% {esc}%' ESCAPE '\\')
  GROUP BY sh
),
blended AS (
  SELECT key, weight,
         CAST(trunc(weight * (1 - 0.10 * (CASE
              WHEN split_part(key, ' ', 1) LIKE '{esc}%' ESCAPE '\\'
              THEN 0 ELSE 1 END))) AS BIGINT) AS score
  FROM dict
)
SELECT key, weight, score FROM blended
ORDER BY score DESC, key LIMIT {k}"""


def suggest_fuzzy_sql(query: str, k: int = 10, max_edits: int = 1) -> str:
    """FuzzySuggester oracle (transpositions=False so DuckDB's plain
    levenshtein matches): keys with some prefix within max_edits of the
    query, first char exact, exact-prefix matches first."""
    esc = query.replace("'", "''")
    n = len(query)
    pls = range(max(1, n - max_edits), n + max_edits + 1)
    prefix_ok = " OR ".join(
        f"levenshtein(substr(key, 1, {p}), '{esc}') <= {max_edits}"
        for p in pls)
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
big AS (
  SELECT doc_id,
         term || ' ' || lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS sh
  FROM toks WHERE term <> ''
),
dict AS (
  SELECT sh AS key, count(*) AS weight FROM big
  WHERE sh IS NOT NULL AND substr(sh, 1, 1) = substr('{esc}', 1, 1)
  GROUP BY sh
),
matched AS (
  SELECT key, weight,
         CASE WHEN starts_with(key, '{esc}') THEN 1 ELSE 0 END AS exact
  FROM dict
  WHERE starts_with(key, '{esc}') OR ({prefix_ok})
)
SELECT key, weight, CAST(exact AS BIGINT) AS exact FROM matched
ORDER BY exact DESC, weight DESC, key LIMIT {k}"""


def suggest_fst_bucketed_sql(prefix: str, k: int = 10,
                             buckets: int = 10) -> str:
    """FSTCompletionLookup oracle: rank-decile buckets with equal-weight
    runs sharing the run-first bucket (min over the weight partition)."""
    esc = prefix.replace("'", "''")
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
big AS (
  SELECT doc_id,
         term || ' ' || lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS sh
  FROM toks WHERE term <> ''
),
dict AS (
  SELECT sh AS key, count(*) AS weight FROM big
  WHERE sh IS NOT NULL GROUP BY sh
),
ranked AS (
  SELECT key, weight,
         row_number() OVER (ORDER BY weight, key) - 1 AS line,
         count(*) OVER () AS n
  FROM dict
),
bucketed AS (
  SELECT key, weight,
         min(CAST(line * {buckets} // n AS BIGINT))
             OVER (PARTITION BY weight) AS bucket
  FROM ranked
)
SELECT key, bucket FROM bucketed
WHERE starts_with(key, '{esc}')
ORDER BY (CASE WHEN key = '{esc}' THEN 0 ELSE 1 END), bucket DESC, key
LIMIT {k}"""


def spellchecker_ngram_sql(word: str, num_sug: int = 5,
                           accuracy: float = 0.5) -> str:
    """SpellChecker.cs oracle: gram-sharing dictionary terms scored by the
    LevensteinDistance similarity (1 - d/max), accuracy-filtered, ranked
    (score desc, df desc, term asc)."""
    esc = word.replace("'", "''")
    n = len(word)
    if n > 5:
        sizes = (3, 4)
    elif n == 5:
        sizes = (2, 3)
    else:
        sizes = (1, 2)
    grams = sorted({word[i: i + ng] for ng in sizes
                    for ng_ in [ng] for i in range(n - ng + 1)})
    gvals = ", ".join("('" + g.replace("'", "''") + "')" for g in grams)
    return f"""WITH {_toks_cte()},
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term),
grams(g) AS (VALUES {gvals}),
cand AS (
  SELECT DISTINCT term, df FROM dfs, grams WHERE contains(term, g)
),
scored AS (
  SELECT term, df,
         1.0 - CAST(levenshtein(term, '{esc}') AS DOUBLE)
             / greatest(len(term), len('{esc}')) AS score
  FROM cand WHERE term <> '{esc}'
)
SELECT term, score, df FROM scored WHERE score >= {accuracy}
ORDER BY score DESC, df DESC, term LIMIT {num_sug}"""


def facet_range_double_sql() -> str:
    """DoubleRangeFacetCounts oracle: inclusive/exclusive double ranges of
    l_extendedprice over returned lineitems; all ranges reported."""
    return """WITH m AS (
  SELECT l_extendedprice AS x FROM lineitem WHERE l_returnflag = 'R'
),
r(label, ord) AS (VALUES ('lo', 0), ('mid', 1), ('hi', 2))
SELECT r.label,
       CASE r.label
         WHEN 'lo' THEN (SELECT count(*) FROM m WHERE x >= 0 AND x < 20000)
         WHEN 'mid' THEN (SELECT count(*) FROM m
                          WHERE x >= 20000 AND x < 45000)
         ELSE (SELECT count(*) FROM m WHERE x >= 45000)
       END AS count
FROM r ORDER BY r.ord"""


def near_dup_components_sql() -> str:
    """Connected components over the SAME minhash candidate pairs: a
    recursive transitive closure, root = min reachable node."""
    cand = minhash_candidates_sql()
    return f"""WITH RECURSIVE cand AS (
  SELECT doc_a, doc_b FROM ({cand})
),
edges AS (
  SELECT doc_a AS s, doc_b AS d FROM cand
  UNION SELECT doc_b, doc_a FROM cand
  UNION SELECT doc_a, doc_a FROM cand
  UNION SELECT doc_b, doc_b FROM cand
),
reach(s, d) AS (
  SELECT s, d FROM edges
  UNION
  SELECT r.s, e.d FROM reach r JOIN edges e ON r.d = e.s
)
SELECT s AS doc_id, min(d) AS root FROM reach GROUP BY s ORDER BY s"""


def stratified_sample_sql(fr_en: float = 0.4, fr_de: float = 0.8) -> str:
    """Stratified-sample oracle: identical md5 keep-rule per language."""
    h = _MD5_INT31.format(s="'strat:'||CAST(doc_id AS VARCHAR)")
    return f"""WITH kept AS (
  SELECT lang FROM documents
  WHERE {h} < CASE lang
      WHEN 'en' THEN CAST({fr_en} * 2147483648 AS BIGINT)
      WHEN 'de' THEN CAST({fr_de} * 2147483648 AS BIGINT)
      ELSE 2147483648 END
)
SELECT lang, count(*) AS kept FROM kept GROUP BY lang ORDER BY lang"""


def image_stats_sql(n_items: int = 64, side: int = 4) -> str:
    """REAL-image-decode oracle (ops/multimodal.py ImageStats over
    synthesize_real_media_table): the P6 pixel bytes are md5-digest bytes,
    so SQL re-derives every pixel (byte k of item = hex pair r=k%16 of
    md5('{id}:img:{k//16}')) and the integer stats compare exactly."""
    npix = side * side * 3
    byte_v = ("CAST(('0x'||substr(md5(CAST(item_id AS VARCHAR)||':img:'"
              "||CAST(k // 16 AS VARCHAR)), (k % 16) * 2 + 1, 2)) "
              "AS BIGINT)")
    half = side // 2
    return f"""WITH items AS (
  SELECT unnest(range(0, {n_items}, 2)) AS item_id
),
b AS (
  SELECT item_id, k, {byte_v} AS v
  FROM items, LATERAL (SELECT unnest(range({npix})) AS k) r
),
px AS (
  SELECT item_id, v,
    (k // 3) // {side} AS y, (k // 3) % {side} AS x, k % 3 AS c
  FROM b
)
SELECT item_id,
  CAST({side} AS BIGINT) AS height, CAST({side} AS BIGINT) AS width,
  CAST(sum(CASE WHEN c = 0 THEN v ELSE 0 END) AS BIGINT) AS sum_r,
  CAST(sum(CASE WHEN c = 1 THEN v ELSE 0 END) AS BIGINT) AS sum_g,
  CAST(sum(CASE WHEN c = 2 THEN v ELSE 0 END) AS BIGINT) AS sum_b,
  CAST(sum(v) AS BIGINT) AS sum_all,
  CAST(max(v) AS BIGINT) AS max_byte,
  CAST(sum(CASE WHEN y < {half} AND x < {half} THEN v ELSE 0 END)
       AS BIGINT) AS q00,
  CAST(sum(CASE WHEN y < {half} AND x >= {half} THEN v ELSE 0 END)
       AS BIGINT) AS q01,
  CAST(sum(CASE WHEN y >= {half} AND x < {half} THEN v ELSE 0 END)
       AS BIGINT) AS q10,
  CAST(sum(CASE WHEN y >= {half} AND x >= {half} THEN v ELSE 0 END)
       AS BIGINT) AS q11
FROM px GROUP BY item_id ORDER BY item_id"""


def audio_stats_sql(n_items: int = 64, n_samples: int = 128) -> str:
    """REAL-WAV-decode oracle (ops/multimodal.py AudioStats): PCM16
    little-endian sample bytes are md5-digest bytes — SQL re-derives each
    signed sample (lo + 256*hi, minus 65536 when >= 32768) exactly."""
    nbytes = n_samples * 2
    byte_v = ("CAST(('0x'||substr(md5(CAST(item_id AS VARCHAR)||':aud:'"
              "||CAST({k} // 16 AS VARCHAR)), ({k} % 16) * 2 + 1, 2)) "
              "AS BIGINT)")
    lo = byte_v.format(k="(2 * s)")
    hi = byte_v.format(k="(2 * s + 1)")
    return f"""WITH items AS (
  SELECT unnest(range(1, {n_items}, 2)) AS item_id
),
smp AS (
  SELECT item_id,
    CASE WHEN ({lo}) + 256 * ({hi}) >= 32768
         THEN ({lo}) + 256 * ({hi}) - 65536
         ELSE ({lo}) + 256 * ({hi}) END AS v
  FROM items, LATERAL (SELECT unnest(range({n_samples})) AS s) r
)
SELECT item_id,
  CAST({n_samples} AS BIGINT) AS n_samples,
  CAST(sum(abs(v)) AS BIGINT) AS sum_abs,
  CAST(max(v) AS BIGINT) AS max_sample,
  CAST(min(v) AS BIGINT) AS min_sample
FROM smp GROUP BY item_id ORDER BY item_id"""


def image_resize_sql(n_items: int = 64, side: int = 4,
                     out_side: int = 2) -> str:
    """REAL-decode nearest-neighbor resize oracle (ops/multimodal.py
    ImageResize(use_fake_decoder=False)): resized pixel (i,j) = source
    (i*side//out, j*side//out), so the resized byte sum is the sum over
    the selected source indices — all integer."""
    npix = side * side * 3
    byte_v = ("CAST(('0x'||substr(md5(CAST(item_id AS VARCHAR)||':img:'"
              "||CAST(k // 16 AS VARCHAR)), (k % 16) * 2 + 1, 2)) "
              "AS BIGINT)")
    ys = ", ".join(str(i * side // out_side) for i in range(out_side))
    xs = ", ".join(str(j * side // out_side) for j in range(out_side))
    return f"""WITH items AS (
  SELECT unnest(range(0, {n_items}, 2)) AS item_id
),
b AS (
  SELECT item_id, k, {byte_v} AS v
  FROM items, LATERAL (SELECT unnest(range({npix})) AS k) r
),
px AS (
  SELECT item_id, v, (k // 3) // {side} AS y, (k // 3) % {side} AS x
  FROM b
)
SELECT item_id, CAST({out_side} AS BIGINT) AS side,
  CAST(sum(CASE WHEN y IN ({ys}) AND x IN ({xs}) THEN v ELSE 0 END)
       AS BIGINT) AS resize_sum
FROM px GROUP BY item_id ORDER BY item_id"""


def video_luma_sample_sql(n_clips: int = 16, n_frames: int = 12,
                          stride: int = 5, side: int = 4) -> str:
    """REAL concatenated-PPM frame-sampling oracle (ops/multimodal.py
    VideoLumaSample): sampled frame f's luma sum = sum of its 48
    md5-derived pixel bytes."""
    npix = side * side * 3
    frames = ", ".join(str(f) for f in range(0, n_frames, stride))
    byte_v = ("CAST(('0x'||substr(md5(CAST(item_id AS VARCHAR)||':vid:'"
              "||CAST(f AS VARCHAR)||':'||CAST(k // 16 AS VARCHAR)), "
              "(k % 16) * 2 + 1, 2)) AS BIGINT)")
    return f"""WITH items AS (
  SELECT unnest(range({n_clips})) AS item_id
),
fr AS (
  SELECT item_id, f
  FROM items, LATERAL (SELECT unnest([{frames}]) AS f) s
),
b AS (
  SELECT item_id, f, {byte_v} AS v
  FROM fr, LATERAL (SELECT unnest(range({npix})) AS k) r
)
SELECT item_id, CAST(f AS INT) AS frame,
       CAST(sum(v) AS BIGINT) AS luma_sum
FROM b GROUP BY item_id, f ORDER BY item_id, frame"""


def url_dedup_sql() -> str:
    """URL-canonicalization dedup oracle (ops/urlnorm.py over the
    md5-synthesized URL variants in __ray_entry__._q_url_dedup): the
    oracle re-derives BOTH the raw url and the canonical form straight
    from the generative hash formulas — i.e. it checks the canonicalizer
    implements the spec (scheme/www/fragment/trailing-slash/tracking
    stripping + param sort), not merely that SQL string munging agrees."""
    h1 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':u1'")
    h2 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':u2'")
    h3 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':u3'")
    return f"""WITH h AS (
  SELECT doc_id, ({h1}) AS h1, ({h2}) AS h2, ({h3}) AS h3 FROM documents
),
u AS (
  SELECT doc_id,
    (CASE WHEN h3 % 2 = 0 THEN 'https://' ELSE 'http://' END)
    || (CASE WHEN h3 % 3 = 0 THEN 'WWW.' ELSE '' END)
    || 'Example' || (h1 % 5) || '.COM/Path' || (h2 % 7)
    || (CASE WHEN h3 % 5 = 0 THEN '/' ELSE '' END)
    || (CASE
          WHEN h3 % 2 = 0 AND h3 % 3 = 1 THEN
            CASE WHEN h3 % 7 < 3
                 THEN '?utm_source=s' || (h1 % 3) || '&b=2&a=1'
                 ELSE '?utm_source=s' || (h1 % 3) || '&a=1&b=2' END
          WHEN h3 % 2 = 0 THEN '?utm_source=s' || (h1 % 3)
          WHEN h3 % 3 = 1 THEN
            CASE WHEN h3 % 7 < 3 THEN '?b=2&a=1' ELSE '?a=1&b=2' END
          ELSE '' END)
    || (CASE WHEN h3 % 11 = 0 THEN '#frag' ELSE '' END) AS url,
    'example' || (h1 % 5) || '.com/Path' || (h2 % 7)
    || (CASE WHEN h3 % 3 = 1 THEN '?a=1&b=2' ELSE '' END) AS canonical
  FROM h
)
SELECT doc_id, url, canonical,
  CAST(CASE WHEN doc_id = min(doc_id) OVER (PARTITION BY canonical)
        THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM u ORDER BY doc_id"""


def equalized_sample_sql(per_group: int = 30) -> str:
    """Equal-per-group mixing oracle (ops/sampling.py equalized_sample):
    keep iff md5_int31('eqmix:'||doc_id) * n_lang < per_group * 2^31 —
    exact integer cross-multiplication."""
    h = _MD5_INT31.format(s="'eqmix:'||CAST(doc_id AS VARCHAR)")
    return f"""WITH n AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
  FROM documents GROUP BY lang
),
k AS (
  SELECT d.lang, CAST(count(*) AS BIGINT) AS n_kept
  FROM documents d JOIN n USING (lang)
  WHERE ({h}) * n.n_docs < {per_group} * 2147483648
  GROUP BY d.lang
)
SELECT n.lang, n.n_docs, CAST(COALESCE(k.n_kept, 0) AS BIGINT) AS n_kept
FROM n LEFT JOIN k USING (lang) ORDER BY n.lang"""


def simhash_pairs_sql(hamming_k: int = 3, max_bucket: int = 256) -> str:
    """SimHash near-dup oracle: pairs sharing >= 1 of the 4 signature
    chunks, modelling the star-edge cap EXACTLY like simhash_pairs —
    buckets over max_bucket emit only (bucket-min, other) edges — then
    exact Hamming <= k (bit_count over xor)."""
    sig = simhash_sql()
    return f"""WITH sig AS (
  SELECT doc_id, simhash FROM ({sig})
),
blk AS (
  SELECT doc_id, simhash, b.block, b.chunk
  FROM sig, LATERAL (
    SELECT * FROM (VALUES
      (0, (simhash >> 0) & 65535),
      (1, (simhash >> 16) & 65535),
      (2, (simhash >> 32) & 65535),
      (3, (simhash >> 48) & 32767)) AS v(block, chunk)) b
),
stats AS (
  SELECT block, chunk, count(*) AS n, min(doc_id) AS center
  FROM blk GROUP BY block, chunk
),
bucket_pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         a.simhash AS sig_a, b.simhash AS sig_b
  FROM blk a
  JOIN blk b ON a.block = b.block AND a.chunk = b.chunk
            AND a.doc_id < b.doc_id
  JOIN stats s ON s.block = a.block AND s.chunk = a.chunk
  WHERE s.n <= {max_bucket} OR a.doc_id = s.center
),
cand AS (SELECT DISTINCT doc_a, doc_b, sig_a, sig_b FROM bucket_pairs)
SELECT doc_a, doc_b,
       CAST(bit_count(xor(sig_a, sig_b)) AS BIGINT) AS hamming
FROM cand WHERE bit_count(xor(sig_a, sig_b)) <= {hamming_k}
ORDER BY doc_a, doc_b"""


def _webclean_aug_expr() -> str:
    """SQL expression rebuilding ops/webclean.webclean_augmented_text(doc_id,
    text) — pure concat + repeat over the md5_int31 hashes, exactly the
    Python synthesizer branch for branch."""
    h1 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':wc1'")
    h2 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':wc2'")
    h3 = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':wc3'")
    nl = "chr(10)"
    return f"""text
  || repeat({nl}||'the table of data holds '||(({h1}) % 20)
            ||' rows and that is fine.', ({h3}) % 7)
  || CASE WHEN ({h1}) % 2 = 0
          THEN {nl}||'- bullet item '||(({h1}) % 50) ELSE '' END
  || CASE WHEN ({h1}) % 3 = 0
          THEN {nl}||'this line trails off with more to come...' ELSE '' END
  || CASE WHEN ({h2}) % 3 = 0
          THEN {nl}||'please enable javascript to view this page.' ELSE '' END
  || CASE WHEN ({h2}) % 5 = 0
          THEN {nl}||'lorem ipsum dolor sit amet.' ELSE '' END
  || CASE WHEN ({h3}) % 5 = 0
          THEN {nl}||'function f() '||chr(123)||' return '||(({h3}) % 9)
               ||'; '||chr(125) ELSE '' END
  || CASE WHEN ({h1}) % 5 = 0
          THEN {nl}||repeat('#', ({h2}) % 4 + 1)||' marks here' ELSE '' END
  || CASE WHEN ({h2}) % 2 = 0 THEN {nl}||'ok go.' ELSE '' END"""


def gopher_quality_sql(min_words: int = 50, max_words: int = 100000) -> str:
    """Gopher Appendix-A quality-rule oracle (ops/webclean.GopherQuality over
    webclean_augmented_text): every feature integer, every ratio rule a
    cross-multiplication, so the compare is exact."""
    from lucenenet_ray.ops.webclean import GOPHER_STOPWORDS

    stop_list = ", ".join(f"'{s}'" for s in GOPHER_STOPWORDS)
    return f"""WITH aug AS (
  SELECT doc_id, {_webclean_aug_expr()} AS t FROM documents
),
w AS (
  SELECT doc_id, t,
         list_filter(string_split_regex(t, '[ \\n]'), x -> x <> '') AS words,
         string_split(t, chr(10)) AS lines
  FROM aug
),
feat AS (
  SELECT doc_id,
    CAST(len(words) AS BIGINT) AS n_words,
    CAST(COALESCE(list_sum(list_transform(words, x -> len(x))), 0) AS BIGINT)
      AS total_word_chars,
    CAST(len(list_filter(words, x -> regexp_matches(x, '[a-zA-Z]')))
      AS BIGINT) AS n_alpha_words,
    CAST(len(t) - len(replace(t, '#', ''))
         + (len(t) - len(replace(t, '...', ''))) // 3 AS BIGINT)
      AS n_symbol_hits,
    CAST(len(lines) AS BIGINT) AS n_lines,
    CAST(len(list_filter(lines, x -> substr(x, 1, 2) = '- ')) AS BIGINT)
      AS n_bullet_lines,
    CAST(len(list_filter(lines,
         x -> len(x) >= 3 AND substr(x, len(x) - 2, 3) = '...')) AS BIGINT)
      AS n_ellipsis_lines,
    CAST(len(list_filter([{stop_list}], s -> list_contains(words, s)))
      AS BIGINT) AS n_stop_hits
  FROM w
)
SELECT doc_id, n_words, total_word_chars, n_alpha_words, n_symbol_hits,
       n_lines, n_bullet_lines, n_ellipsis_lines, n_stop_hits,
       CAST(CASE WHEN n_words BETWEEN {min_words} AND {max_words}
                  AND 3 * n_words <= total_word_chars
                  AND total_word_chars <= 10 * n_words
                  AND 10 * n_symbol_hits <= n_words
                  AND 10 * n_bullet_lines <= 9 * n_lines
                  AND 10 * n_ellipsis_lines <= 3 * n_lines
                  AND 5 * n_alpha_words >= 4 * n_words
                  AND n_stop_hits >= 2
            THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM feat ORDER BY doc_id"""


def c4_clean_sql() -> str:
    """C4 line-level cleaning oracle (ops/webclean.C4Clean over
    webclean_augmented_text): lines kept iff terminal punctuation + >= 3
    words + no 'javascript'; page kept iff >= 5 sentences, no 'lorem ipsum',
    no curly brace."""
    return f"""WITH aug AS (
  SELECT doc_id, {_webclean_aug_expr()} AS t FROM documents
),
l AS (
  SELECT doc_id, t,
         list_filter(string_split(t, chr(10)),
            x -> substr(x, len(x), 1) IN ('.', '!', '?', '"')
                 AND len(list_filter(string_split(x, ' '), y -> y <> '')) >= 3
                 AND NOT contains(x, 'javascript')) AS kept,
         string_split(t, chr(10)) AS lines
  FROM aug
),
c AS (
  SELECT doc_id, t, lines, kept,
         COALESCE(array_to_string(kept, chr(10)), '') AS clean
  FROM l
)
SELECT doc_id,
  CAST(len(lines) AS BIGINT) AS n_lines,
  CAST(len(kept) AS BIGINT) AS n_kept_lines,
  CAST(len(clean) AS BIGINT) AS clean_n_chars,
  CAST(len(clean) - len(replace(clean, '.', ''))
       + len(clean) - len(replace(clean, '!', ''))
       + len(clean) - len(replace(clean, '?', '')) AS BIGINT) AS n_sentences,
  CAST(CASE WHEN len(clean) - len(replace(clean, '.', ''))
                 + len(clean) - len(replace(clean, '!', ''))
                 + len(clean) - len(replace(clean, '?', '')) >= 5
             AND NOT contains(t, 'lorem ipsum')
             AND NOT contains(t, chr(123))
        THEN 1 ELSE 0 END AS BIGINT) AS page_keep
FROM c ORDER BY doc_id"""


def substring_dedup_sql(k: int = 5) -> str:
    """Duplicated-window substring-dedup oracle
    (ops/neardup.duplicated_window_spans): a k-token window is duplicated
    iff its 60-bit md5 hash occurs >= 2 times corpus-wide (within-doc
    repeats included); covered = distinct token positions under any
    duplicated window. Same hash domain as the Ray op so the dup/keep
    decision is bit-identical."""
    h = ("CAST(('0x'||substr(md5(array_to_string(arr[i:i+" + str(k - 1)
         + "],' ')),1,15)) AS BIGINT)")
    return f"""WITH toks AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), x -> x <> '') AS arr
  FROM documents
),
wins AS (
  SELECT doc_id, i, {h} AS h
  FROM toks, LATERAL (SELECT unnest(range(1, len(arr) - {k} + 2)) AS i) r
  WHERE len(arr) >= {k}
),
dup AS (SELECT h FROM wins GROUP BY h HAVING count(*) >= 2),
marked AS (SELECT w.doc_id, w.i FROM wins w JOIN dup USING (h)),
cover AS (
  SELECT DISTINCT doc_id, p
  FROM marked, LATERAL (SELECT unnest(range(i, i + {k})) AS p) q
),
agg AS (SELECT doc_id, count(*) AS n_dup_windows FROM marked GROUP BY doc_id),
cov AS (SELECT doc_id, count(*) AS n_covered FROM cover GROUP BY doc_id)
SELECT t.doc_id,
       CAST(len(t.arr) AS BIGINT) AS n_tokens,
       CAST(COALESCE(a.n_dup_windows, 0) AS BIGINT) AS n_dup_windows,
       CAST(COALESCE(c.n_covered, 0) AS BIGINT) AS n_covered,
       CAST(len(t.arr) - COALESCE(c.n_covered, 0) AS BIGINT) AS n_kept
FROM toks t
LEFT JOIN agg a USING (doc_id)
LEFT JOIN cov c USING (doc_id)
ORDER BY t.doc_id"""


def lm_quality_sql(mod: int = 10, k: int = 20) -> str:
    """CCNet-style LM quality oracle (ops/lm_quality.py LMDocScorer):
    reference model = 1/2-gram counts of docs with doc_id % mod == 0;
    every transition w1->w2 of every doc scores the exact-rational
    stupid-backoff weight (SCALE=1e6, discount exactly 0.4), summed per
    doc; worst-fluency k docs by avg_w asc, doc_id asc."""
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
tok AS (SELECT * FROM toks WHERE term <> ''),
uni AS (
  SELECT term, CAST(count(*) AS BIGINT) AS c
  FROM tok WHERE doc_id % {mod} = 0 GROUP BY term
),
tot AS (
  SELECT CAST(count(*) AS BIGINT) AS c FROM tok WHERE doc_id % {mod} = 0
),
pairs AS (
  SELECT doc_id, w1, w2 FROM (
    SELECT doc_id, term AS w1,
           lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
    FROM tok
  ) WHERE w2 IS NOT NULL
),
big AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS c
  FROM pairs WHERE doc_id % {mod} = 0 GROUP BY w1, w2
),
scored AS (
  SELECT p.doc_id,
         CASE
           WHEN b.c IS NOT NULL THEN CAST((1000000 * b.c) // u1.c AS BIGINT)
           WHEN u2.c IS NOT NULL THEN CAST((4000000 * u2.c)
                // (10 * (SELECT c FROM tot)) AS BIGINT)
           ELSE CAST(0 AS BIGINT)
         END AS w
  FROM pairs p
  LEFT JOIN big b ON b.w1 = p.w1 AND b.w2 = p.w2
  LEFT JOIN uni u1 ON u1.term = p.w1
  LEFT JOIN uni u2 ON u2.term = p.w2
)
SELECT doc_id, CAST(sum(w) AS BIGINT) AS lm_score,
       CAST(count(*) AS BIGINT) AS n_trans,
       CAST(sum(w) // count(*) AS BIGINT) AS avg_w
FROM scored GROUP BY doc_id
ORDER BY avg_w ASC, doc_id ASC LIMIT {k}"""


def lm_buckets_sql(mod: int = 10) -> str:
    """CCNet head/middle/tail perplexity-bucket oracle
    (ops/lm_quality.py lm_perplexity_buckets): per-doc exact-rational
    stupid-backoff avg_w (same CTEs as lm_quality_sql), tercile cutoffs
    from the reference slice's (avg_w desc) ranks i1=ceil(n/3),
    i2=ceil(2n/3) — exact integer form (n+2)//3 — then every scored doc
    bucketed head (avg_w >= c1) / middle (>= c2) / tail."""
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
tok AS (SELECT * FROM toks WHERE term <> ''),
uni AS (
  SELECT term, CAST(count(*) AS BIGINT) AS c
  FROM tok WHERE doc_id % {mod} = 0 GROUP BY term
),
tot AS (
  SELECT CAST(count(*) AS BIGINT) AS c FROM tok WHERE doc_id % {mod} = 0
),
pairs AS (
  SELECT doc_id, w1, w2 FROM (
    SELECT doc_id, term AS w1,
           lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
    FROM tok
  ) WHERE w2 IS NOT NULL
),
big AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS c
  FROM pairs WHERE doc_id % {mod} = 0 GROUP BY w1, w2
),
scored AS (
  SELECT p.doc_id,
         CASE
           WHEN b.c IS NOT NULL THEN CAST((1000000 * b.c) // u1.c AS BIGINT)
           WHEN u2.c IS NOT NULL THEN CAST((4000000 * u2.c)
                // (10 * (SELECT c FROM tot)) AS BIGINT)
           ELSE CAST(0 AS BIGINT)
         END AS w
  FROM pairs p
  LEFT JOIN big b ON b.w1 = p.w1 AND b.w2 = p.w2
  LEFT JOIN uni u1 ON u1.term = p.w1
  LEFT JOIN uni u2 ON u2.term = p.w2
),
docscore AS (
  SELECT doc_id, CAST(sum(w) // count(*) AS BIGINT) AS avg_w
  FROM scored GROUP BY doc_id
),
ranked AS (
  SELECT avg_w, row_number() OVER (ORDER BY avg_w DESC) AS rn
  FROM docscore WHERE doc_id % {mod} = 0
),
nref AS (SELECT CAST(count(*) AS BIGINT) AS n FROM ranked),
cuts AS (
  SELECT
    (SELECT avg_w FROM ranked
      WHERE rn = ((SELECT n FROM nref) + 2) // 3) AS c1,
    (SELECT avg_w FROM ranked
      WHERE rn = (2 * (SELECT n FROM nref) + 2) // 3) AS c2
)
SELECT CASE WHEN avg_w >= (SELECT c1 FROM cuts) THEN 'head'
            WHEN avg_w >= (SELECT c2 FROM cuts) THEN 'middle'
            ELSE 'tail' END AS bucket,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(avg_w) AS BIGINT) AS sum_avg_w
FROM docscore GROUP BY 1 ORDER BY bucket"""


def paragraph_dedup_sql() -> str:
    """Corpus-wide paragraph-dedup oracle (ops/paradedup.py over
    webclean_augmented_text): a non-empty newline-segment survives only
    at its first (doc_id, idx) occurrence corpus-wide; empties are
    structural and always kept. Per doc: counts + md5 of the rejoined
    kept text."""
    return f"""WITH aug AS (
  SELECT doc_id, {_webclean_aug_expr()} AS t FROM documents
),
paras AS (
  SELECT doc_id, i - 1 AS idx, seg
  FROM (SELECT doc_id,
               unnest(string_split(t, chr(10))) AS seg,
               unnest(range(1, len(string_split(t, chr(10))) + 1)) AS i
        FROM aug)
),
ranked AS (
  SELECT doc_id, idx, seg,
         CASE WHEN seg = '' THEN 1
              WHEN row_number() OVER (PARTITION BY seg
                    ORDER BY doc_id, idx) = 1 THEN 1 ELSE 0 END AS keep
  FROM paras
),
agg AS (
  SELECT doc_id,
    CAST(count(*) AS BIGINT) AS n_paras,
    CAST(sum(keep) AS BIGINT) AS n_kept,
    COALESCE(string_agg(CASE WHEN keep = 1 THEN seg END, chr(10)
                        ORDER BY idx), '') AS clean
  FROM ranked GROUP BY doc_id
)
SELECT doc_id, n_paras, n_kept,
  CAST(len(clean) AS BIGINT) AS clean_len,
  md5(clean) AS clean_md5
FROM agg ORDER BY doc_id"""


def dsir_sql(n_buckets: int = 4096, target_lang: str = "en",
             k: int = 20) -> str:
    """DSIR importance-weight oracle (ops/dsir.py): hashed uni+bigram
    buckets (md5-prefix % B), exact-integer smoothed-probability
    difference weights (SCALE=1e9, +1 smoothing), per-doc sparse dot
    product; most-target-like k docs by score desc, doc_id asc."""
    scale = 10 ** 9
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
tok AS (SELECT * FROM toks WHERE term <> ''),
pairs AS (
  SELECT doc_id, w1 || ' ' || w2 AS g FROM (
    SELECT doc_id, term AS w1,
           lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
    FROM tok
  ) WHERE w2 IS NOT NULL
),
grams AS (
  SELECT doc_id, term AS g FROM tok
  UNION ALL
  SELECT doc_id, g FROM pairs
),
feat AS (
  SELECT doc_id,
         CAST(('0x'||substr(md5(g),1,15)) AS BIGINT) % {n_buckets} AS b
  FROM grams
),
tgtdocs AS (SELECT doc_id FROM documents WHERE lang = '{target_lang}'),
rawc AS (SELECT b, CAST(count(*) AS BIGINT) AS c FROM feat GROUP BY b),
tgtc AS (
  SELECT b, CAST(count(*) AS BIGINT) AS c
  FROM feat JOIN tgtdocs USING (doc_id) GROUP BY b
),
tots AS (
  SELECT (SELECT CAST(count(*) AS BIGINT) FROM feat) AS r_tot,
         (SELECT CAST(count(*) AS BIGINT)
          FROM feat JOIN tgtdocs USING (doc_id)) AS t_tot
),
wb AS (
  SELECT r.b,
         CAST(({scale} * (COALESCE(t.c, 0) + 1))
                // ((SELECT t_tot FROM tots) + {n_buckets})
            - ({scale} * (r.c + 1))
                // ((SELECT r_tot FROM tots) + {n_buckets}) AS BIGINT) AS w
  FROM rawc r LEFT JOIN tgtc t USING (b)
)
SELECT f.doc_id,
       CAST(sum(w.w) AS BIGINT) AS dsir_score,
       CAST(count(*) AS BIGINT) AS n_feats
FROM feat f JOIN wb w USING (b)
GROUP BY f.doc_id
ORDER BY dsir_score DESC, doc_id ASC LIMIT {k}"""


def semdedup_sql(n_clusters: int = 8, tau: float = 0.4) -> str:
    """SemDeDup oracle (ops/semdedup.py): clusters = nearest of the
    n_clusters lowest-vec_id seed vectors (cosine argmax, ties to low
    seed id); within a cluster a vector is dropped iff some same-cluster
    vector with cosine >= tau has lower (cent_sim, vec_id).  Output
    (vec_id, cluster, kept) for every vector, vec_id order."""
    return f"""WITH seeds AS (
  SELECT vec_id AS sid, embedding AS semb FROM embeddings
  WHERE vec_id < {n_clusters}
),
sims AS (
  SELECT v.vec_id, s.sid,
         list_cosine_similarity(v.embedding, s.semb) AS cs
  FROM embeddings v CROSS JOIN seeds s
),
asg AS (
  SELECT vec_id, sid AS cluster, cs AS cent_sim FROM (
    SELECT *, row_number() OVER (
      PARTITION BY vec_id ORDER BY cs DESC, sid ASC) AS rn
    FROM sims
  ) WHERE rn = 1
),
dropped AS (
  SELECT DISTINCT a.vec_id
  FROM asg a
  JOIN asg b ON b.cluster = a.cluster AND b.vec_id <> a.vec_id
  JOIN embeddings ea ON ea.vec_id = a.vec_id
  JOIN embeddings eb ON eb.vec_id = b.vec_id
  WHERE list_cosine_similarity(ea.embedding, eb.embedding) >= {tau}
    AND (b.cent_sim < a.cent_sim
         OR (b.cent_sim = a.cent_sim AND b.vec_id < a.vec_id))
)
SELECT a.vec_id, a.cluster,
       CAST(CASE WHEN d.vec_id IS NULL THEN 1 ELSE 0 END AS BIGINT) AS kept
FROM asg a LEFT JOIN dropped d ON d.vec_id = a.vec_id
ORDER BY a.vec_id"""


def chunk_stats_sql(window: int = 32, overlap: int = 8) -> str:
    """Sliding-window chunking report (ops/chunk.py): per doc the chunk
    count, summed chunk tokens, and md5-16 of the concatenated chunk texts
    — re-derives the exact chunk boundaries (stride = window - overlap,
    emitted while i*stride < n) and byte content via list slicing."""
    stride = window - overlap
    return f"""WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS tl
  FROM documents WHERE length(text) > 0
),
ex AS (
  SELECT doc_id, tl,
         unnest(generate_series(0, (len(tl)-1)//{stride})) AS i
  FROM toks
),
c AS (
  SELECT doc_id, i AS chunk_idx,
         array_to_string(tl[i*{stride}+1 : i*{stride}+{window}], ' ')
           AS chunk_text,
         least({window}, len(tl) - i*{stride}) AS n_tok
  FROM ex
)
SELECT doc_id, COUNT(*) AS n_chunks,
       CAST(SUM(n_tok) AS BIGINT) AS total_tok,
       substr(md5(string_agg(chunk_text, '' ORDER BY chunk_idx)), 1, 16)
         AS chunks_md5
FROM c GROUP BY doc_id ORDER BY doc_id"""


def hybrid_rrf_sql(terms: list[str], vec_id: int, leg_k: int = 20,
                   k: int = 10, K: int = 60) -> str:
    """Hybrid retrieval via reciprocal-rank fusion (ops/hybrid.py): BM25
    top-leg_k (the bit-exact bm25_topk_sql leg) full-outer-joined with
    cosine top-leg_k (knn_exact_sql leg, embeddings vec_id == documents
    doc_id by construction); RRF(d) = Σ 1/(K + rank). Integer ranks feed
    float64 division + one addition — bit-identical to the engine."""
    lex = bm25_topk_sql(terms, k=leg_k)
    vec = knn_exact_sql([vec_id], k=leg_k)
    return f"""SELECT doc_id, rrf_score FROM (
  SELECT COALESCE(l.doc_id, v.vec_id) AS doc_id,
         (CASE WHEN l.rank IS NULL THEN CAST(0.0 AS DOUBLE)
               ELSE 1.0/({K}+l.rank) END
          + CASE WHEN v.rank IS NULL THEN CAST(0.0 AS DOUBLE)
                 ELSE 1.0/({K}+v.rank) END) AS rrf_score
  FROM ({lex}) l
  FULL OUTER JOIN ({vec}) v ON v.vec_id = l.doc_id
) ORDER BY rrf_score DESC, doc_id ASC LIMIT {k}"""


def knn_filtered_sql(query_vec_ids: list[int], label: int,
                     k: int = 10) -> str:
    """Filtered vector search: exact cosine top-k restricted to vectors
    whose metadata label matches — PRE-filter semantics (the candidate set
    is filtered before ranking, so every query returns k matches from the
    filtered pool, never fewer because of the filter)."""
    ids = ", ".join(str(i) for i in query_vec_ids)
    return f"""WITH q AS (
  SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id IN ({ids})
),
sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(e.embedding, q.embedding) AS sim
  FROM embeddings e CROSS JOIN q
  WHERE e.label = {label}
)
SELECT query_id,
       CAST(row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rank,
       vec_id
FROM sims
QUALIFY rank <= {k}
ORDER BY query_id, rank"""


# ---------------------------------------------------------------------------
# SimilarityBase family oracles (DFR / IB / LM) — search/simbase.py


def _r(expr: str) -> str:
    return f"CAST({expr} AS REAL)"


def _d(expr: str) -> str:
    return f"CAST({expr} AS DOUBLE)"


_SIMLEN_CTE = """
simlen AS (
  -- SimilarityBase NORM_TABLE[b] = 1f/(dec*dec): the decoded docLen
  SELECT doc_id,
    CAST(1.0 AS REAL) /
      (CAST((1.0 + CAST((nb + 384) % 4 AS DOUBLE)/4.0)
            * power(2.0, CAST(floor((nb + 384)/4) AS BIGINT) - 127) AS REAL)
       * CAST((1.0 + CAST((nb + 384) % 4 AS DOUBLE)/4.0)
            * power(2.0, CAST(floor((nb + 384)/4) AS BIGINT) - 127) AS REAL))
      AS dl
  FROM normb
)"""

# float32 avgFieldLength = (float)nft / (float)N (SimilarityBase.cs:138 —
# unlike BM25's double division)
_SIM_AVG = ("CAST(CAST((SELECT sumttf FROM coll) AS REAL)"
            " / CAST((SELECT N FROM coll) AS REAL) AS REAL)")
_N_SQL = "(SELECT N FROM coll)"
_NFT_SQL = "(SELECT sumttf FROM coll)"
_LN2 = "ln(2.0)"


def _simbase_score_expr(kind: str, f: str, dl: str, df: str, ttf: str,
                        basic_model: str = "", after_effect: str = "",
                        normalization: str = "H2", distribution: str = "",
                        lambda_kind: str = "DF", c: float = 1.0,
                        mu: float = 2000.0, lam: float = 0.1,
                        boost: float = 1.0) -> str:
    """Per-(doc,term) float32 score expression mirroring
    simbase.score_freqs stage for stage (REAL = one C# float op;
    ln/power on DOUBLE = Math.Log/Math.Pow)."""
    one = "CAST(1.0 AS REAL)"
    boost_r = _R.format(v=repr(float(boost)))
    cp = _r(f"({_r(ttf)} + {one}) / ({_r(_NFT_SQL)} + {one})")
    if kind == "lm_dirichlet":
        mu_r = _R.format(v=repr(float(mu)))
        mucp = _r(f"{mu_r} * {cp}")
        a1 = _r(f"{one} + {_r(f'{f} / {mucp}')}")
        dlmu = _r(f"{dl} + {mu_r}")
        a2 = _r(f"{mu_r} / {dlmu}")
        logs = _r(f"ln({_d(a1)}) + ln({_d(a2)})")
        s = _r(f"{boost_r} * {logs}")
        return f"CASE WHEN {s} > {ZERO_R} THEN {s} ELSE {ZERO_R} END"
    if kind == "lm_jm":
        lam_r = _R.format(v=repr(float(lam)))
        om = _r(f"{one} - {lam_r}")
        omf = _r(f"{om} * {f}")
        inner = _r(f"{omf} / {dl}")
        lamcp = _r(f"{lam_r} * {cp}")
        x = _r(f"{one} + {_r(f'{inner} / {lamcp}')}")
        lnx = _r(f"ln({_d(x)})")
        return _r(f"{boost_r} * {lnx}")
    # tfn (Normalization*.cs)
    c_r = _R.format(v=repr(float(c)))
    if normalization == "H1":
        tfn = _r(f"{_r(f'{f} * {_SIM_AVG}')} / {dl}")
    elif normalization == "H2":
        cavg = _r(f"{c_r} * {_SIM_AVG}")
        inner = _r(f"{one} + {_r(f'{cavg} / {dl}')}")
        tfn = _r(f"{_d(f)} * (ln({_d(inner)})/{_LN2})")
    elif normalization == "H3":
        a = _r(f"{f} + {_r(f'{c_r} * {cp}')}")
        b = _r(f"{dl} + {c_r}")
        tfn = _r(f"{_r(f'{a} / {b}')} * {c_r}")
    elif normalization == "Z":
        rr = _r(f"{_SIM_AVG} / {dl}")
        tfn = _r(f"{_d(f)} * power({_d(rr)}, {_d(c_r)})")
    else:
        tfn = f
    if kind == "ib":
        base = "df" if lambda_kind == "DF" else "ttf"
        src = df if lambda_kind == "DF" else ttf
        lam_e = _r(f"({_r(src)} + {one}) / ({_r(_N_SQL)} + {one})")
        if distribution == "LL":
            x = _r(f"{lam_e} / {_r(f'{tfn} + {lam_e}')}")
            dist = _r(f"-ln({_d(x)})")
        else:  # SPL
            e = _r(f"{tfn} / {_r(f'{tfn} + {one}')}")
            num = f"(power({_d(lam_e)}, {_d(e)}) - {_d(lam_e)})"
            den = _d(_r(f"{one} - {lam_e}"))
            dist = _r(f"-ln({num} / {den})")
        return _r(f"{boost_r} * {dist}")
    # kind == "dfr"
    if basic_model == "In":
        v = _r(f"ln({_d(f'{_N_SQL} + 1')} / ({df} + 0.5))/{_LN2}")
        basic = _r(f"{tfn} * {v}")
    elif basic_model == "G":
        fd = f"CAST({ttf} + 1 AS DOUBLE)"
        lam_d = f"({fd} / ({_d(_N_SQL)} + {fd}))"
        basic = _r(f"ln({lam_d} + 1.0)/{_LN2}"
                   f" + {_d(tfn)} * (ln((1.0 + {lam_d})/{lam_d})/{_LN2})")
    elif basic_model == "IF":
        v = _r(f"ln(1.0 + {_d(f'{_N_SQL} + 1')} / ({ttf} + 0.5))/{_LN2}")
        basic = _r(f"{tfn} * {v}")
    elif basic_model == "Ine":
        ne = (f"({_d(_N_SQL)} * (1.0 - power(({_d(_N_SQL)} - 1.0)"
              f"/{_d(_N_SQL)}, {_d(ttf)})))")
        v = _r(f"ln({_d(f'{_N_SQL} + 1')} / ({ne} + 0.5))/{_LN2}")
        basic = _r(f"{tfn} * {v}")
    else:
        raise ValueError(f"oracle basic model {basic_model} not generated")
    if after_effect == "L":
        after = _r(f"{one} / {_r(f'{tfn} + {one}')}")
    elif after_effect == "B":
        num = _r(f"{ttf} + 2")
        den = _r(f"{_r(f'{df} + 1')} * {_r(f'{tfn} + {one}')}")
        after = _r(f"{num} / {den}")
    else:
        after = one
    return _r(f"{_r(f'{boost_r} * {basic}')} * {after}")


def simbase_topk_sql(kind: str, terms: list[str], k: int = 10,
                     **params) -> str:
    """SHOULD-Boolean top-k under a SimilarityBase similarity — float32
    bit-identical to search(similarity=SimBaseSpec(...)).  Per-term scores
    (docLen-dependent, unlike BM25's 256-entry cache) pivot per doc and sum
    left-assoc in clause order; (score desc, doc_id asc) tie-break."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    score_expr = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        score_expr = f"({score_expr} + COALESCE(s{i}, {ZERO_R}))"
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    per = _simbase_score_expr(kind, "tf.f", "sl.dl", "q.df", "q.ttf",
                              **params)
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_SIMLEN_CTE},
sstats AS (
  SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
  FROM kept WHERE term IN ({terms_sql}) GROUP BY term
),
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term, {per} AS s
  FROM tf
  JOIN sstats q USING (term)
  JOIN simlen sl ON sl.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id
),
scored AS (
  SELECT doc_id, {score_expr} AS score FROM agg
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def bpe_learn_merges_sql() -> str:
    """BPE trainer oracle (ops/bpe_train.learn_bpe over the engineered
    sources/bpetrain corpus): the merge sequence has a CLOSED FORM by
    construction — disjoint letter classes and distinct per-word counts
    make the global (count desc, left asc, right asc) selection order
    derivable without simulating the loop (see sources/bpetrain.py for
    the proof sketch). Phase 1: 64 (x,y) merges by count 300+i desc;
    phase 2: 16 (z,w) at 200+4j; phase 3: 16 (zw,zw) at 100+2j."""
    return """WITH l1 AS (
  SELECT CAST(64 - i AS BIGINT) AS merge_rank,
         chr(97 + CAST(i // 8 AS INTEGER)) AS left_tok,
         chr(105 + CAST(i % 8 AS INTEGER)) AS right_tok,
         CAST(300 + i AS BIGINT) AS cnt
  FROM generate_series(0, 63) t(i)
), l2 AS (
  SELECT CAST(80 - j AS BIGINT),
         chr(113 + CAST(j // 4 AS INTEGER)),
         chr(117 + CAST(j % 4 AS INTEGER)),
         CAST(200 + 4 * j AS BIGINT)
  FROM generate_series(0, 15) t(j)
), l3 AS (
  SELECT CAST(96 - j AS BIGINT),
         chr(113 + CAST(j // 4 AS INTEGER)) || chr(117 + CAST(j % 4 AS INTEGER)),
         chr(113 + CAST(j // 4 AS INTEGER)) || chr(117 + CAST(j % 4 AS INTEGER)),
         CAST(100 + 2 * j AS BIGINT)
  FROM generate_series(0, 15) t(j)
)
SELECT * FROM l1 UNION ALL SELECT * FROM l2 UNION ALL SELECT * FROM l3
ORDER BY merge_rank"""


def knn_subset_exact_sql(query_vec_ids: list[int], k: int = 10,
                         n_subset: int = 256) -> str:
    """Brute-force cosine top-k over the ``n_subset`` lowest vec_ids —
    the exactness oracle for ``knn_hnsw_full`` (ops/hnsw.py): with
    M >= shard size and ef_construction >= shard size no HNSW neighbor
    list is ever pruned, so the sharded graph search must equal brute
    force on the same subset."""
    ids = ", ".join(str(i) for i in query_vec_ids)
    return f"""WITH corpus AS (
  SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT {n_subset}
),
q AS (
  SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id IN ({ids})
),
sims AS (
  SELECT q.query_id, c.vec_id,
         list_cosine_similarity(c.embedding, q.embedding) AS sim
  FROM corpus c CROSS JOIN q
)
SELECT query_id,
       CAST(row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rank,
       vec_id
FROM sims
QUALIFY rank <= {k}
ORDER BY query_id, rank"""


def weighted_sample_sql(k: int = 32, weight_mod: int = 9,
                        salt: str = "wsamp") -> str:
    """Efraimidis-Spirakis A-ES weighted-sampling oracle
    (ops/sampling.py weighted_sample): rank key ln(u)/w with the md5-60
    uniform u = (float64(m)+1)/2^60 — the CAST-then-+1.0 order mirrors the
    engine's numpy float64 staging exactly. weight = n_chars % mod; rows
    with weight 0 are excluded (the paper requires positive weights)."""
    m = _MD5_INT60.format(s=f"'{salt}:'||CAST(doc_id AS VARCHAR)")
    return f"""WITH w AS (
  SELECT doc_id,
         CAST(n_chars % {weight_mod} AS BIGINT) AS weight,
         ln((CAST({m} AS DOUBLE) + 1.0) / 1152921504606846976.0)
           / CAST(n_chars % {weight_mod} AS DOUBLE) AS lnkey
  FROM documents
  WHERE n_chars % {weight_mod} > 0
)
SELECT CAST(row_number() OVER (ORDER BY lnkey DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, weight
FROM w
ORDER BY lnkey DESC, doc_id ASC
LIMIT {k}"""


def pagerank_topk_sql(n_iters: int = 3, k: int = 20) -> str:
    """Integer PageRank oracle (ops/graphrank.py): re-derives the md5 link
    graph and unrolls ``n_iters`` damped iterations as chained CTEs with
    the IDENTICAL int64 arithmetic (// everywhere; sums cast back from
    DuckDB's HUGEINT widening). Size-general: N, base = 10^12 // N and the
    teleport term are computed IN SQL so one string is exact at every sf."""
    md5 = _MD5_INT31.format(s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    ctes = [f"""c AS (
  SELECT count(*) AS n,
         1000000000000 // count(*) AS base,
         (15 * (1000000000000 // count(*))) // 100 AS t15
  FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
edges AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v, d
  FROM (
    SELECT u, j, 1 + (u % 3) AS d, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
r0 AS (SELECT doc_id AS node, CAST(c.base AS BIGINT) AS r
       FROM documents CROSS JOIN c)"""]
    for i in range(1, n_iters + 1):
        ctes.append(f"""r{i} AS (
  SELECT n.doc_id AS node,
         CAST(c.t15 + 85 * COALESCE(s.S, 0) // 100 AS BIGINT) AS r
  FROM documents n CROSS JOIN c LEFT JOIN (
    SELECT e.v AS node, CAST(SUM(p.r // e.d) AS BIGINT) AS S
    FROM edges e JOIN r{i-1} p ON p.node = e.u GROUP BY e.v) s
  ON s.node = n.doc_id
)""")
    return f"""WITH {", ".join(ctes)}
SELECT CAST(row_number() OVER (ORDER BY r DESC, node ASC) AS BIGINT) AS rank_pos,
       node, r AS pagerank
FROM r{n_iters}
ORDER BY r DESC, node ASC
LIMIT {k}"""


def cooccur_topk_sql(window: int = 2, k: int = 30) -> str:
    """Skip-gram co-occurrence oracle (ops/cooccur.py): ordered pairs over
    RAW split positions, 0 < |d| <= window, empty tokens excluded, NO stop
    removal (embedding corpora keep function words); (cnt desc, center asc,
    context asc) top-k."""
    return f"""WITH raw AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
t AS (SELECT doc_id, term, pos FROM raw WHERE term <> ''),
pairs AS (
  SELECT a.term AS center, b.term AS context
  FROM t a JOIN t b
    ON a.doc_id = b.doc_id
   AND b.pos BETWEEN a.pos - {window} AND a.pos + {window}
   AND a.pos <> b.pos
)
SELECT center, context, count(*) AS cnt
FROM pairs
GROUP BY center, context
ORDER BY cnt DESC, center ASC, context ASC
LIMIT {k}"""


def _ngram_cte(n: int, name: str) -> str:
    """Word n-grams over the raw split stream: joined string + start pos."""
    joins = " || ' ' || ".join(
        "term" if j == 0 else f"lead(term, {j}) OVER w" for j in range(n))
    guard = f"lead(term, {n - 1}) OVER w IS NOT NULL" if n > 1 else "TRUE"
    return f"""{name} AS (
  SELECT doc_id, pos, ng FROM (
    SELECT doc_id, pos, {joins} AS ng,
           CASE WHEN {guard} THEN 1 ELSE 0 END AS ok
    FROM rawtoks
    WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  ) WHERE ok = 1
)"""


def gopher_repetition_sql() -> str:
    """Gopher repetition-rule oracle (ops/gopher_rep.py): per doc the
    modal-n-gram char mass for n=2,3,4 ((cnt desc, ngram asc) tie-break,
    numerator = cnt * len(ngram)) and the overlap-uncounted word-position
    cover of duplicated 5-grams — all integers, hash-exact."""
    tops = []
    for n in (2, 3, 4):
        tops.append(f"""top{n} AS (
  SELECT doc_id, CAST(cnt * len(ng) AS BIGINT) AS v FROM (
    SELECT doc_id, ng, count(*) AS cnt,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY count(*) DESC, ng ASC) AS rk
    FROM ng{n} GROUP BY doc_id, ng
  ) WHERE rk = 1
)""")
    return f"""WITH rawtoks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
{_ngram_cte(2, "ng2")},
{_ngram_cte(3, "ng3")},
{_ngram_cte(4, "ng4")},
{_ngram_cte(5, "ng5")},
{", ".join(tops)},
dup5 AS (
  SELECT doc_id, ng FROM ng5 GROUP BY doc_id, ng HAVING count(*) >= 2
),
cover AS (
  SELECT s.doc_id, count(DISTINCT s.pos + j.j) AS v
  FROM ng5 s JOIN dup5 USING (doc_id, ng),
       LATERAL (SELECT unnest(range(5)) AS j) j
  GROUP BY s.doc_id
)
SELECT d.doc_id,
       COALESCE(t2.v, 0) AS top2_chars,
       COALESCE(t3.v, 0) AS top3_chars,
       COALESCE(t4.v, 0) AS top4_chars,
       COALESCE(c.v, 0) AS dup5_cover_words
FROM documents d
LEFT JOIN top2 t2 USING (doc_id)
LEFT JOIN top3 t3 USING (doc_id)
LEFT JOIN top4 t4 USING (doc_id)
LEFT JOIN cover c USING (doc_id)
ORDER BY d.doc_id"""


def cologne_gate_sql(n_words: int = 400) -> str:
    """Cologne-phonetics gate oracle (__ray_entry__._q_cologne_gate): words
    synthesized from md5 over a context-FREE letter subset, so the code is
    translate → lag-dedup (raw code runs collapse even unemitted) →
    drop '0' except word start. Size-capped by the documents row count
    exactly like the engine side."""
    alpha = "aeioubpfvwgklmnrsz"
    digits = "000001133344566788"
    hl = _MD5_INT31.format(s="'colw:'||CAST(word_id AS VARCHAR)")
    hc = _MD5_INT31.format(
        s="'colc:'||CAST(word_id AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH ids AS (
  SELECT unnest(range(LEAST({n_words},
    (SELECT count(*) FROM documents)))) AS word_id
),
lens AS (SELECT word_id, 3 + {hl} % 5 AS L FROM ids),
chars AS (
  SELECT word_id, j,
         substr('{alpha}', CAST(({hc}) % {len(alpha)} AS INTEGER) + 1, 1) AS ch
  FROM lens, LATERAL (SELECT unnest(range(7)) AS j) r
  WHERE j < L
),
words AS (
  SELECT word_id, string_agg(ch, '' ORDER BY j) AS word
  FROM chars GROUP BY word_id
),
codes AS (
  SELECT word_id, j,
         translate(ch, '{alpha}', '{digits}') AS code,
         lag(translate(ch, '{alpha}', '{digits}'))
           OVER (PARTITION BY word_id ORDER BY j) AS prev
  FROM chars
),
kept AS (
  SELECT word_id, j, code FROM codes
  WHERE (prev IS NULL OR code <> prev) AND (code <> '0' OR j = 0)
),
phon AS (
  SELECT word_id, string_agg(code, '' ORDER BY j) AS code
  FROM kept GROUP BY word_id
)
SELECT w.word_id, w.word, p.code
FROM words w JOIN phon p USING (word_id)
ORDER BY w.word_id"""


def nysiis_gate_sql(n_words: int = 400) -> str:
    """NYSIIS gate oracle (__ray_entry__._q_nysiis_gate): over the
    context-free subset the scan is vowel→A (first char RAW) + lag-dedup;
    tail rules (inside one len>1 guard, sequentially on the mutated key):
    pop trailing S; AY→Y only when the current key is longer than 2;
    pop trailing A; strict truncate to 6."""
    hl = _MD5_INT31.format(s="'nysw:'||CAST(word_id AS VARCHAR)")
    hc = _MD5_INT31.format(
        s="'nysc:'||CAST(word_id AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH ids AS (
  SELECT unnest(range(LEAST({n_words},
    (SELECT count(*) FROM documents)))) AS word_id
),
lens AS (SELECT word_id, 3 + {hl} % 6 AS L FROM ids),
chars AS (
  SELECT word_id, j,
         substr('aioubcfgjlnsxy', CAST(({hc}) % 14 AS INTEGER) + 1, 1) AS ch
  FROM lens, LATERAL (SELECT unnest(range(8)) AS j) r
  WHERE j < L
),
words AS (
  SELECT word_id, string_agg(ch, '' ORDER BY j) AS word
  FROM chars GROUP BY word_id
),
tc AS (
  SELECT word_id, j,
         CASE WHEN j = 0 THEN upper(ch)
              WHEN ch IN ('a','i','o','u') THEN 'A'
              ELSE upper(ch) END AS c
  FROM chars
),
dedup AS (
  SELECT word_id, j, c,
         lag(c) OVER (PARTITION BY word_id ORDER BY j) AS prev
  FROM tc
),
key0 AS (
  SELECT word_id, string_agg(c, '' ORDER BY j) AS k
  FROM dedup WHERE prev IS NULL OR c <> prev
  GROUP BY word_id
),
s1 AS (
  SELECT word_id, k AS k0,
         CASE WHEN len(k) > 1 AND k LIKE '%S'
              THEN substr(k, 1, len(k) - 1) ELSE k END AS k
  FROM key0
),
s2 AS (
  SELECT word_id, k0,
         CASE WHEN len(k0) > 1 AND len(k) > 2
                   AND substr(k, len(k) - 1, 2) = 'AY'
              THEN substr(k, 1, len(k) - 2) || 'Y' ELSE k END AS k
  FROM s1
),
s3 AS (
  SELECT word_id,
         CASE WHEN len(k0) > 1 AND k LIKE '%A'
              THEN substr(k, 1, len(k) - 1) ELSE k END AS k
  FROM s2
)
SELECT w.word_id, w.word, substr(s3.k, 1, 6) AS code
FROM words w JOIN s3 USING (word_id)
ORDER BY w.word_id"""


def metaphone_gate_sql(n_words: int = 400) -> str:
    """Metaphone gate oracle (__ray_entry__._q_metaphone_gate): over the
    context-free subset the encoder is RAW adjacent-dup collapse, vowels
    kept only at original position 0, per-letter map
    (d→T, q→K, v→F, z→S, rest identity-uppercased), truncate to 4."""
    hl = _MD5_INT31.format(s="'metw:'||CAST(word_id AS VARCHAR)")
    hc = _MD5_INT31.format(
        s="'metc:'||CAST(word_id AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH ids AS (
  SELECT unnest(range(LEAST({n_words},
    (SELECT count(*) FROM documents)))) AS word_id
),
lens AS (SELECT word_id, 3 + {hl} % 6 AS L FROM ids),
chars AS (
  SELECT word_id, j,
         substr('aoubdfjlnrstqvz', CAST(({hc}) % 15 AS INTEGER) + 1, 1) AS ch
  FROM lens, LATERAL (SELECT unnest(range(8)) AS j) r
  WHERE j < L
),
words AS (
  SELECT word_id, string_agg(ch, '' ORDER BY j) AS word
  FROM chars GROUP BY word_id
),
dedup AS (
  SELECT word_id, j, ch,
         lag(ch) OVER (PARTITION BY word_id ORDER BY j) AS prev
  FROM chars
),
coded AS (
  SELECT word_id, j,
         CASE WHEN ch IN ('a','o','u') THEN
                CASE WHEN j = 0 THEN upper(ch) ELSE NULL END
              ELSE translate(upper(ch), 'DQVZ', 'TKFS') END AS c
  FROM dedup WHERE prev IS NULL OR ch <> prev
),
keys AS (
  SELECT word_id, string_agg(c, '' ORDER BY j) AS k
  FROM coded WHERE c IS NOT NULL GROUP BY word_id
)
SELECT w.word_id, w.word, substr(k.k, 1, 4) AS code
FROM words w JOIN keys k USING (word_id)
ORDER BY w.word_id"""


def dm_soundex_gate_sql(n_words: int = 400) -> str:
    """D-M Soundex gate oracle (__ray_entry__._q_dm_soundex_gate): per-char
    replacement ('a': '0' at start / '' otherwise; consonant map
    b7 g5 k5 l8 n6 p7 q5 v7 w7), keep where replacement non-empty and
    differs from the previous char's replacement (vowels reset the run),
    first 6 digits zero-padded."""
    hl = _MD5_INT31.format(s="'dmsw:'||CAST(word_id AS VARCHAR)")
    hc = _MD5_INT31.format(
        s="'dmsc:'||CAST(word_id AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH ids AS (
  SELECT unnest(range(LEAST({n_words},
    (SELECT count(*) FROM documents)))) AS word_id
),
lens AS (SELECT word_id, 3 + {hl} % 6 AS L FROM ids),
chars AS (
  SELECT word_id, j,
         substr('abgklnpqvw', CAST(({hc}) % 10 AS INTEGER) + 1, 1) AS ch
  FROM lens, LATERAL (SELECT unnest(range(8)) AS j) r
  WHERE j < L
),
words AS (
  SELECT word_id, string_agg(ch, '' ORDER BY j) AS word
  FROM chars GROUP BY word_id
),
reps AS (
  SELECT word_id, j,
         CASE WHEN ch = 'a' THEN CASE WHEN j = 0 THEN '0' ELSE '' END
              ELSE translate(ch, 'bgklnpqvw', '755867577') END AS rep
  FROM chars
),
kept AS (
  SELECT word_id, j, rep,
         lag(rep) OVER (PARTITION BY word_id ORDER BY j) AS prev
  FROM reps
),
codes AS (
  SELECT word_id, string_agg(rep, '' ORDER BY j) AS k
  FROM kept WHERE rep <> '' AND (prev IS NULL OR rep <> prev)
  GROUP BY word_id
)
SELECT w.word_id, w.word,
       substr(COALESCE(c.k, '') || '000000', 1, 6) AS code
FROM words w LEFT JOIN codes c USING (word_id)
ORDER BY w.word_id"""


def dmetaphone_gate_sql(n_words: int = 400) -> str:
    """Double-Metaphone gate oracle (__ray_entry__._q_dmetaphone_gate):
    drop initial 'k' of 'kn'-starting words; consonant runs keep the
    0th, 2nd, ... occurrence (skip-next-on-double); vowels kept at
    position 0 as 'A'; map b→P f→F k→K n→N q→K r→R; truncate to 4;
    alternate == primary in this subset."""
    hl = _MD5_INT31.format(s="'dmew:'||CAST(word_id AS VARCHAR)")
    hc = _MD5_INT31.format(
        s="'dmec:'||CAST(word_id AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH ids AS (
  SELECT unnest(range(LEAST({n_words},
    (SELECT count(*) FROM documents)))) AS word_id
),
lens AS (SELECT word_id, 3 + {hl} % 6 AS L FROM ids),
chars AS (
  SELECT word_id, j,
         substr('aoubfknqr', CAST(({hc}) % 9 AS INTEGER) + 1, 1) AS ch
  FROM lens, LATERAL (SELECT unnest(range(8)) AS j) r
  WHERE j < L
),
words AS (
  SELECT word_id, string_agg(ch, '' ORDER BY j) AS word
  FROM chars GROUP BY word_id
),
live AS (  -- drop the k of a word-initial kn
  SELECT c.word_id, c.j, c.ch FROM chars c JOIN words w USING (word_id)
  WHERE NOT (c.j = 0 AND substr(w.word, 1, 2) = 'kn')
),
runs AS (
  SELECT word_id, j, ch,
         CASE WHEN lag(ch) OVER w IS DISTINCT FROM ch
              THEN 1 ELSE 0 END AS brk
  FROM live WINDOW w AS (PARTITION BY word_id ORDER BY j)
),
runpos AS (
  SELECT word_id, j, ch,
         sum(brk) OVER (PARTITION BY word_id ORDER BY j) AS run_id
  FROM runs
),
emit AS (
  SELECT word_id, j, ch,
         row_number() OVER (PARTITION BY word_id, run_id ORDER BY j) - 1
           AS rn
  FROM runpos
),
coded AS (
  SELECT word_id, j,
         CASE WHEN ch IN ('a','o','u') THEN
                CASE WHEN j = 0 THEN 'A' ELSE NULL END
              ELSE translate(ch, 'bfknqr', 'PFKNKR') END AS c
  FROM emit
  WHERE rn % 2 = 0 OR ch IN ('a','o','u')
),
keys AS (
  SELECT word_id, COALESCE(string_agg(c, '' ORDER BY j), '') AS k
  FROM coded WHERE c IS NOT NULL GROUP BY word_id
)
SELECT w.word_id, w.word, substr(k.k, 1, 4) AS code,
       substr(k.k, 1, 4) AS alt_code
FROM words w LEFT JOIN keys k USING (word_id)
ORDER BY w.word_id"""


def snowball_en_gate_sql(n_words: int = 400) -> str:
    """Porter2 gate oracle (__ray_entry__._q_snowball_en_gate): re-derive
    the constrained (cv)+cc'(+ing) words from the md5 formulas; expected
    stem = strip the trailing 'ing' when present (the only rule the
    constrained shape lets fire)."""
    hn = _MD5_INT31.format(s="'sbn:'||CAST(word_id AS VARCHAR)")
    hc = _MD5_INT31.format(
        s="'sbc:'||CAST(word_id AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    hv = _MD5_INT31.format(
        s="'sbv:'||CAST(word_id AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    ha = _MD5_INT31.format(s="'sba:'||CAST(word_id AS VARCHAR)")
    hb = _MD5_INT31.format(s="'sbb:'||CAST(word_id AS VARCHAR)")
    hi = _MD5_INT31.format(s="'sbi:'||CAST(word_id AS VARCHAR)")
    return f"""WITH ids AS (
  SELECT unnest(range(LEAST({n_words},
    (SELECT count(*) FROM documents)))) AS word_id
),
lens AS (SELECT word_id, 1 + {hn} % 2 AS ns FROM ids),
sylls AS (
  SELECT word_id, j,
         substr('bfkmp', CAST(({hc}) % 5 AS INTEGER) + 1, 1)
           || substr('aou', CAST(({hv}) % 3 AS INTEGER) + 1, 1) AS cv
  FROM lens, LATERAL (SELECT unnest(range(2)) AS j) r
  WHERE j < ns
),
body AS (
  SELECT word_id, string_agg(cv, '' ORDER BY j) AS b
  FROM sylls GROUP BY word_id
),
tails AS (
  SELECT word_id,
         {ha} % 5 AS ca0,
         {hb} % 5 AS cb0,
         {hi} % 2 AS ing
  FROM ids
),
full_w AS (
  SELECT t.word_id,
         b.b
         || substr('bfkmp', CAST(ca0 AS INTEGER) + 1, 1)
         || substr('bfkmp',
              CAST(CASE WHEN cb0 = ca0 THEN (ca0 + 1) % 5
                        ELSE cb0 END AS INTEGER) + 1, 1)
         || CASE WHEN ing = 1 THEN 'ing' ELSE '' END AS word,
         ing
  FROM tails t JOIN body b USING (word_id)
)
SELECT word_id, word,
       CASE WHEN ing = 1 THEN substr(word, 1, len(word) - 3)
            ELSE word END AS stem
FROM full_w
ORDER BY word_id"""


def set_overlap_topk_sql(query_doc: int = 0, k: int = 10,
                         bbox: tuple | None = None) -> str:
    """Set-overlap top-k oracle (ops/setsearch.py): overlap = count of the
    query doc's DISTINCT tokens present in each doc's distinct-token set;
    (overlap desc, doc_id asc) top-k over ALL docs (zero-overlap docs
    rank too). With ``bbox`` (centi-degrees, half-open hi edges) docs are
    spatially pre-filtered over the md5-synthesized coords — the
    spatio-textual top-k shape."""
    if bbox is not None:
        geo = (f""",
geo AS (
  SELECT doc_id,
         CAST((doc_id * 7919) % 18000 - 9000 AS BIGINT) AS lat_c,
         CAST((doc_id * 104729) % 36000 - 18000 AS BIGINT) AS lon_c
  FROM documents
),
pool AS (
  SELECT doc_id FROM geo
  WHERE lat_c >= {bbox[0]} AND lat_c < {bbox[1]}
    AND lon_c >= {bbox[2]} AND lon_c < {bbox[3]}
)""")
    else:
        geo = ",\npool AS (SELECT doc_id FROM documents)"
    return f"""WITH q AS (
  SELECT DISTINCT term FROM (
    SELECT unnest(string_split(text, ' ')) AS term
    FROM documents WHERE doc_id = {query_doc})
  WHERE term <> ''
),
dt AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents)
  WHERE term <> ''
){geo},
ov AS (
  SELECT dt.doc_id, count(*) AS overlap
  FROM dt JOIN q USING (term) GROUP BY dt.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY overlap DESC, doc_id ASC) AS BIGINT)
         AS rank,
       doc_id,
       CAST(overlap AS BIGINT) AS overlap
FROM (
  SELECT p.doc_id, COALESCE(o.overlap, 0) AS overlap
  FROM pool p LEFT JOIN ov o USING (doc_id)
)
ORDER BY overlap DESC, doc_id ASC
LIMIT {k}"""


def greedy_cover_sql(query_doc: int = 0, rounds: int = 3) -> str:
    """Greedy max-coverage oracle (ops/setsearch.py greedy_cover):
    unrolls each selection round as argmax-of-marginal-gain CTEs with the
    identical (gain desc, doc_id asc) tie-break and selected-doc
    exclusion — integer-exact."""
    ctes = [f"""q AS (
  SELECT DISTINCT term FROM (
    SELECT unnest(string_split(text, ' ')) AS term
    FROM documents WHERE doc_id = {query_doc})
  WHERE term <> ''
),
dt AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents)
  WHERE term <> ''
),
m AS (SELECT dt.doc_id, dt.term FROM dt JOIN q USING (term)),
cov0 AS (SELECT term FROM q WHERE FALSE)"""]
    for r in range(1, rounds + 1):
        excl = " AND ".join(
            f"d.doc_id <> (SELECT doc_id FROM w{j})" for j in range(1, r))
        where = f"WHERE {excl}" if excl else ""
        ctes.append(f"""g{r} AS (
  SELECT d.doc_id, COALESCE(c.g, 0) AS gain
  FROM documents d LEFT JOIN (
    SELECT doc_id, count(*) AS g FROM m
    WHERE term NOT IN (SELECT term FROM cov{r-1})
    GROUP BY doc_id) c USING (doc_id)
  {where}
),
w{r} AS (SELECT doc_id, gain FROM g{r} ORDER BY gain DESC, doc_id LIMIT 1),
cov{r} AS (
  SELECT term FROM cov{r-1}
  UNION
  SELECT term FROM m
  WHERE doc_id = (SELECT doc_id FROM w{r})
    AND term NOT IN (SELECT term FROM cov{r-1})
)""")
    arms = []
    for r in range(1, rounds + 1):
        tot = " + ".join(f"(SELECT gain FROM w{j})" for j in range(1, r + 1))
        arms.append(
            f"SELECT CAST({r} AS BIGINT) AS round, doc_id, "
            f"CAST(gain AS BIGINT) AS gain, "
            f"CAST({tot} AS BIGINT) AS covered_total FROM w{r}")
    return (f"WITH {', '.join(ctes)}\n"
            + "\nUNION ALL\n".join(arms) + "\nORDER BY round")


def incremental_minhash_sql(num_perm: int = 16, num_bands: int = 4,
                            k: int = 3) -> str:
    """Incremental MinHash oracle (ops/incneardup.py): cross-corpus band
    join — new (odd doc_ids) x old (even doc_ids) sharing >= 1 band key."""
    from lucenenet_ray.ops.neardup import MERSENNE61, _perm_params

    a, b = _perm_params(num_perm)
    r = num_perm // num_bands
    perm_rows = ", ".join(
        f"({i}, {int(a[i])}, {int(b[i])})" for i in range(num_perm))
    return f"""WITH {_shingles_cte(k)},
perms(perm, a, b) AS (VALUES {perm_rows}),
hashes AS (
  SELECT doc_id, {_MD5_INT31.format(s='gram')} AS h FROM sh
),
minh AS (
  SELECT doc_id, perm, min((a * h + b) % {MERSENNE61}) AS mh
  FROM hashes CROSS JOIN perms GROUP BY doc_id, perm
),
bands AS (
  SELECT doc_id, perm // {r} AS band,
         string_agg(CAST(mh AS VARCHAR), '-' ORDER BY perm) AS band_key
  FROM minh GROUP BY doc_id, perm // {r}
)
SELECT n.doc_id AS doc_new, o.doc_id AS doc_old, count(*) AS n_bands
FROM bands n JOIN bands o
  ON n.band = o.band AND n.band_key = o.band_key
WHERE n.doc_id % 2 = 1 AND o.doc_id % 2 = 0
GROUP BY n.doc_id, o.doc_id
ORDER BY doc_new, doc_old"""


def hits_topk_sql(n_iters: int = 3, k: int = 20) -> str:
    """Integer HITS oracle (ops/graphrank.py hits): same md5 link graph as
    pagerank_topk_sql, unrolled authority/hub half-steps with the engine's
    exact max-normalized fixed-point arithmetic (S=10^6, // floor
    division; DuckDB's HUGEINT sum widening cast back to BIGINT)."""
    md5 = _MD5_INT31.format(s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    ctes = [f"""c AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
edges AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v
  FROM (
    SELECT u, j, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
h0 AS (SELECT doc_id AS node, CAST(1000000 AS BIGINT) AS r FROM documents)"""]
    for i in range(1, n_iters + 1):
        ctes.append(f"""araw{i} AS (
  SELECT n.doc_id AS node, CAST(COALESCE(s.S, 0) AS BIGINT) AS r
  FROM documents n LEFT JOIN (
    SELECT e.v AS node, CAST(SUM(p.r) AS BIGINT) AS S
    FROM edges e JOIN h{i-1} p ON p.node = e.u GROUP BY e.v) s
  ON s.node = n.doc_id
),
a{i} AS (
  SELECT node, CAST((1000000 * r) // (SELECT max(r) FROM araw{i}) AS BIGINT) AS r
  FROM araw{i}
),
hraw{i} AS (
  SELECT n.doc_id AS node, CAST(COALESCE(s.S, 0) AS BIGINT) AS r
  FROM documents n LEFT JOIN (
    SELECT e.u AS node, CAST(SUM(p.r) AS BIGINT) AS S
    FROM edges e JOIN a{i} p ON p.node = e.v GROUP BY e.u) s
  ON s.node = n.doc_id
),
h{i} AS (
  SELECT node, CAST((1000000 * r) // (SELECT max(r) FROM hraw{i}) AS BIGINT) AS r
  FROM hraw{i}
)""")
    n = n_iters
    return f"""WITH {", ".join(ctes)}
SELECT CAST(row_number() OVER (ORDER BY a.r DESC, a.node ASC) AS BIGINT) AS rank_pos,
       a.node AS node, a.r AS authority, h.r AS hub
FROM a{n} a JOIN h{n} h ON h.node = a.node
ORDER BY a.r DESC, a.node ASC
LIMIT {k}"""


def temperature_mix_sql(c_mult: int = 6) -> str:
    """Temperature-mix oracle (ops/domains.py temperature_mix_stats,
    alpha=1/2): same md5 domain map + md5 keep key; the keep rule
    key^2 * n_d < c^2 is evaluated directly in HUGEINT (the engine's
    isqrt-threshold form is provably equivalent)."""
    h = _MD5_INT31.format(s="'dom:' || CAST(doc_id AS VARCHAR)")
    key = _MD5_INT31.format(s="'tmix:' || CAST(doc_id AS VARCHAR)")
    c = c_mult << 31
    return f"""WITH dom AS (
  SELECT doc_id,
         'd' || CAST(((h % 40) * (h % 40)) // 40 AS VARCHAR)
             || '.example.com' AS domain,
         k
  FROM (SELECT doc_id, {h} AS h, {key} AS k FROM documents)
),
agg AS (SELECT domain, count(*) AS n_docs FROM dom GROUP BY domain)
SELECT agg.domain, CAST(agg.n_docs AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (
         WHERE CAST(dom.k AS HUGEINT) * dom.k * agg.n_docs
               < CAST({c} AS HUGEINT) * {c}) AS BIGINT) AS n_kept
FROM dom JOIN agg USING (domain)
GROUP BY agg.domain, agg.n_docs
ORDER BY agg.domain"""


def kneser_ney_topk_sql(k: int = 20) -> str:
    """Interpolated Kneser-Ney bigram oracle (ops/kn_lm.py, D = 3/4):
    raw-adjacent non-empty token bigrams, context u0 = argmax c(u) (term
    asc ties), exact integer score
    p_num = (4*c(u0,w) - 3)*N1pp + 3*N1u0*N1w over the common denominator
    p_den = 4*c(u0)*N1pp."""
    return f"""WITH raw AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS term,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
adj AS (
  SELECT term AS u, lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w
  FROM raw
),
bg AS (
  SELECT u, w, CAST(count(*) AS BIGINT) AS cnt
  FROM adj WHERE u <> '' AND w IS NOT NULL AND w <> ''
  GROUP BY u, w
),
n1pp AS (SELECT count(*) AS v FROM bg),
ctx AS (
  SELECT u, CAST(SUM(cnt) AS BIGINT) AS cu, count(*) AS n1u
  FROM bg GROUP BY u
),
u0 AS (SELECT u, cu, n1u FROM ctx ORDER BY cu DESC, u ASC LIMIT 1),
n1w AS (SELECT w, CAST(count(*) AS BIGINT) AS v FROM bg GROUP BY w)
SELECT bg.w, bg.cnt AS c_bigram, n1w.v AS n1w,
       CAST((4 * bg.cnt - 3) * n1pp.v + 3 * u0.n1u * n1w.v AS BIGINT)
         AS p_num,
       CAST(4 * u0.cu * n1pp.v AS BIGINT) AS p_den
FROM bg
JOIN u0 ON bg.u = u0.u
JOIN n1w ON n1w.w = bg.w
CROSS JOIN n1pp
ORDER BY p_num DESC, bg.w ASC
LIMIT {k}"""


def field_masked_span_sql(source_val: str, t2: str, slop: int) -> str:
    """FieldMaskingSpanQuery oracle (search/spans.py SpanFieldMaskingQuery):
    the masked clause is the keyword `source` field term — one (0, 1) span
    per doc whose source equals ``source_val`` (un-analyzed extra fields
    index at position 0) — composed in an ordered SpanNear with a body
    term; the same minimal-match closed form as span_near_count_sql
    applies with occ1 fixed at position 0."""
    return f"""WITH {_toks_cte()},
occ1 AS (SELECT doc_id, 0 AS pos FROM documents WHERE source = '{source_val}'),
occ2 AS (SELECT doc_id, pos FROM kept WHERE term = '{t2}'),
m1 AS (
  SELECT o1.doc_id, o1.pos AS p1, min(o2.pos) AS p2
  FROM occ1 o1 JOIN occ2 o2 ON o2.doc_id = o1.doc_id AND o2.pos >= o1.pos + 1
  GROUP BY o1.doc_id, o1.pos
),
m2 AS (SELECT doc_id, max(p1) AS p1, p2 FROM m1 GROUP BY doc_id, p2)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_spans
FROM m2 WHERE p2 - p1 - 1 <= {slop}
GROUP BY doc_id ORDER BY doc_id"""


def terms_filter_sql(sources: tuple[str, ...], body_term: str) -> str:
    """TermsFilter oracle (search/filters.py terms_filter): union of the
    keyword `source` field terms and one analyzed body term — distinct
    doc ids, ascending."""
    src_in = ", ".join(f"'{s}'" for s in sources)
    return f"""WITH {_toks_cte()}
SELECT DISTINCT doc_id FROM (
  SELECT doc_id FROM documents WHERE source IN ({src_in})
  UNION ALL
  SELECT doc_id FROM kept WHERE term = '{body_term}'
) ORDER BY doc_id"""


def substring_dedup_sorted_sql(k: int = 5) -> str:
    """Sort-based substring-dedup oracle (ops/suffixsort.py
    duplicated_window_spans_sorted): duplication decided by EXACT k-token
    window string equality (the sorted path never hashes), otherwise the
    substring_dedup_sql contract verbatim."""
    key = f"array_to_string(arr[i:i+{k - 1}], ' ')"
    return f"""WITH toks AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), x -> x <> '') AS arr
  FROM documents
),
wins AS (
  SELECT doc_id, i, {key} AS w
  FROM toks, LATERAL (SELECT unnest(range(1, len(arr) - {k} + 2)) AS i) r
  WHERE len(arr) >= {k}
),
dup AS (SELECT w FROM wins GROUP BY w HAVING count(*) >= 2),
marked AS (SELECT ws.doc_id, ws.i FROM wins ws JOIN dup USING (w)),
cover AS (
  SELECT DISTINCT doc_id, p
  FROM marked, LATERAL (SELECT unnest(range(i, i + {k})) AS p) q
),
agg AS (SELECT doc_id, count(*) AS n_dup_windows FROM marked GROUP BY doc_id),
cov AS (SELECT doc_id, count(*) AS n_covered FROM cover GROUP BY doc_id)
SELECT t.doc_id,
       CAST(len(t.arr) AS BIGINT) AS n_tokens,
       CAST(COALESCE(a.n_dup_windows, 0) AS BIGINT) AS n_dup_windows,
       CAST(COALESCE(c.n_covered, 0) AS BIGINT) AS n_covered,
       CAST(len(t.arr) - COALESCE(c.n_covered, 0) AS BIGINT) AS n_kept
FROM toks t
LEFT JOIN agg a USING (doc_id)
LEFT JOIN cov c USING (doc_id)
ORDER BY t.doc_id"""


def winnow_stats_sql(k: int = 3, w: int = 4) -> str:
    """Winnowing fingerprint oracle (ops/winnow.py, Schleimer et al.
    2003): token k-gram md5_int31 hashes, window-of-w min with the
    RIGHTMOST-position tie rule, distinct (doc, pos, hash) fingerprints,
    shared = hash held by >= 2 distinct docs. Zeros via LEFT JOIN."""
    h = _MD5_INT31.format(s=f"array_to_string(arr[i:i+{k - 1}], ' ')")
    return f"""WITH toks AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), x -> x <> '') AS arr
  FROM documents
),
grams AS (
  SELECT doc_id, i, {h} AS h
  FROM toks, LATERAL (SELECT unnest(range(1, len(arr) - {k} + 2)) AS i) r
  WHERE len(arr) >= {k}
),
wins AS (
  SELECT doc_id, i AS j,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING)
           AS wmin,
         count(*) OVER (PARTITION BY doc_id ORDER BY i
                        ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING)
           AS wlen
  FROM grams
),
sel AS (
  SELECT ws.doc_id, max(g.i) AS p, ws.wmin AS h
  FROM wins ws JOIN grams g
    ON g.doc_id = ws.doc_id AND g.i BETWEEN ws.j AND ws.j + {w - 1}
   AND g.h = ws.wmin
  WHERE ws.wlen = {w}
  GROUP BY ws.doc_id, ws.j, ws.wmin
),
fp AS (SELECT DISTINCT doc_id, p, h FROM sel),
shr AS (
  SELECT h FROM (SELECT h, count(DISTINCT doc_id) AS c FROM fp GROUP BY h)
  WHERE c >= 2
),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fp,
         CAST(count(*) FILTER (WHERE h IN (SELECT h FROM shr)) AS BIGINT)
           AS n_shared_fp
  FROM fp GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(a.n_fp, 0) AS n_fp,
       COALESCE(a.n_shared_fp, 0) AS n_shared_fp
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id"""


def blocklist_scan_sql(patterns: tuple[str, ...]) -> str:
    """Aho-Corasick blocklist oracle (ops/ahocorasick.py blocklist_scan):
    per pattern, ALL substring occurrence positions (overlapping included
    — substr probe at every start, which is what the automaton's output
    links emit) over the raw text; n_docs = docs with >= 1 hit. Patterns
    are literals; zero-count patterns still report a row."""
    arms = []
    for p in sorted(set(patterns)):
        esc = p.replace("'", "''")
        arms.append(f"""SELECT '{esc}' AS pattern, doc_id,
       CAST(count(*) FILTER (
         WHERE substr(text, i, {len(p)}) = '{esc}') AS BIGINT) AS occ
FROM documents, LATERAL (SELECT unnest(range(1, len(text) + 1)) AS i) r
GROUP BY doc_id""")
    body = "\nUNION ALL\n".join(arms)
    return f"""WITH hits AS (
{body}
)
SELECT pattern,
       CAST(count(*) FILTER (WHERE occ > 0) AS BIGINT) AS n_docs,
       CAST(SUM(occ) AS BIGINT) AS n_occurrences
FROM hits GROUP BY pattern ORDER BY pattern"""


def cohort_retention_sql() -> str:
    """Cohort retention oracle (ops/cohort.py cohort_retention): cohort =
    day index of the user's first event (epoch 2024-01-01, calendar-day
    truncation), cells count DISTINCT users per (cohort_day, offset)."""
    return """WITH f AS (
  SELECT user_id,
         date_diff('day', DATE '2024-01-01', CAST(min(ts) AS DATE)) AS coh
  FROM events GROUP BY user_id
),
e AS (
  SELECT ev.user_id, f.coh AS cohort_day,
         date_diff('day', DATE '2024-01-01', CAST(ev.ts AS DATE)) - f.coh
           AS day_offset
  FROM events ev JOIN f USING (user_id)
)
SELECT CAST(cohort_day AS BIGINT) AS cohort_day,
       CAST(day_offset AS BIGINT) AS day_offset,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM e GROUP BY cohort_day, day_offset
ORDER BY cohort_day, day_offset"""


def value_quantiles_sql(qs: tuple[int, ...] = (50, 90, 99)) -> str:
    """Exact discrete quantile oracle (ops/cohort.py value_quantiles):
    k-th smallest per event_type with k = (n-1)*q//100 + 1 (1-based) —
    row_number over the value order; equal-rank ties share the value."""
    vals = ", ".join(f"({q})" for q in qs)
    return f"""WITH ranked AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY value) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events
),
qs(q) AS (VALUES {vals})
SELECT event_type, CAST(q AS BIGINT) AS q, value
FROM ranked JOIN qs ON rn = (n - 1) * q // 100 + 1
ORDER BY event_type, q"""


def triangle_counts_sql() -> str:
    """Triangle-count oracle (ops/triangles.py): same md5 link graph as
    pagerank_topk_sql, symmetrized + deduped to a < b edges; triangles
    enumerated once via the x<y<z three-way join; per-node membership
    counts by unnesting the triangle's vertices."""
    md5 = _MD5_INT31.format(s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH c AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
dir_edges AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v
  FROM (
    SELECT u, j, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
und AS (
  SELECT DISTINCT least(u, v) AS a, greatest(u, v) AS b FROM dir_edges
),
tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM und e1
  JOIN und e2 ON e2.a = e1.b
  JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
),
mem AS (
  SELECT unnest([x, y, z]) AS node FROM tri
)
SELECT node, CAST(count(*) AS BIGINT) AS n_triangles
FROM mem GROUP BY node ORDER BY node"""


def containment_topk_sql(query_doc: int = 0, k: int = 10) -> str:
    """Containment top-k oracle (ops/setsearch.py containment_topk, the
    LSH Ensemble measure): score = (|Q ∩ d| * 10^9) // |distinct(d)|
    in exact integer fixed-point (empty docs score 0), (score desc,
    doc_id asc) top-k over ALL docs."""
    return f"""WITH q AS (
  SELECT DISTINCT term FROM (
    SELECT unnest(string_split(text, ' ')) AS term
    FROM documents WHERE doc_id = {query_doc})
  WHERE term <> ''
),
dt AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents)
  WHERE term <> ''
),
st AS (
  SELECT d.doc_id,
         count(*) AS nd,
         count(*) FILTER (WHERE dt.term IN (SELECT term FROM q)) AS ov
  FROM documents d LEFT JOIN dt ON dt.doc_id = d.doc_id
  GROUP BY d.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY sc DESC, doc_id ASC) AS BIGINT)
         AS rank,
       doc_id, sc AS score
FROM (
  SELECT doc_id,
         CASE WHEN ov IS NULL OR nd = 0 OR ov = 0 THEN 0
              ELSE CAST((ov * 1000000000) // nd AS BIGINT) END AS sc
  FROM st)
ORDER BY sc DESC, doc_id ASC
LIMIT {k}"""


def snapshot_diff_sql() -> str:
    """Snapshot-diff oracle (ops/snapshot_diff.py): same md5 membership +
    mutation rules; changed <=> both sides present and the chg rule fired
    (appending ' v2' always changes the digest); all four statuses
    reported with zeros."""
    ho = _MD5_INT31.format(s="'old:' || CAST(doc_id AS VARCHAR)")
    hn = _MD5_INT31.format(s="'new:' || CAST(doc_id AS VARCHAR)")
    hc = _MD5_INT31.format(s="'chg:' || CAST(doc_id AS VARCHAR)")
    return f"""WITH m AS (
  SELECT doc_id,
         ({ho}) % 4 <> 0 AS in_old,
         ({hn}) % 4 <> 0 AS in_new,
         ({hc}) % 5 = 0 AS chg
  FROM documents
),
st AS (
  SELECT CASE
           WHEN in_old AND in_new AND chg THEN 'changed'
           WHEN in_old AND in_new THEN 'unchanged'
           WHEN in_new THEN 'added'
           ELSE 'removed'
         END AS status
  FROM m WHERE in_old OR in_new
),
names(status) AS (VALUES ('added'), ('changed'), ('removed'), ('unchanged'))
SELECT names.status,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n_docs
FROM names LEFT JOIN (
  SELECT status, count(*) AS n FROM st GROUP BY status) c USING (status)
ORDER BY names.status"""


def props_extract_sql() -> str:
    """JSON props rollup oracle (ops/cohort.py props_extract_stats):
    json_extract the k field, bucket k // 10, exact integer centi-sums
    from round(value * 100) over the same stored doubles."""
    return """WITH x AS (
  SELECT event_type,
         CAST(json_extract(props, '$.k') AS INTEGER) // 10 AS k_bucket,
         CAST(round(value * 100) AS BIGINT) AS centi
  FROM events
)
SELECT event_type, CAST(k_bucket AS BIGINT) AS k_bucket,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(SUM(centi) AS BIGINT) AS value_centi_sum
FROM x GROUP BY event_type, k_bucket
ORDER BY event_type, k_bucket"""


def cdc_dedup_sql(w: int = 8, d: int = 64) -> str:
    """CDC chunk-dedup oracle (ops/cdc_chunks.py): positional probe of the
    window fingerprint cut rule, chunk spans via lag over the cut set
    (doc end unioned in), 60-bit chunk digests, corpus dup decision by
    digest count >= 2; zeros via LEFT JOIN."""
    cut = _MD5_INT31.format(s=f"substr(text, i - {w} + 1, {w})")
    return f"""WITH t AS (SELECT doc_id, text, len(text) AS n FROM documents),
cuts AS (
  SELECT doc_id, i
  FROM t, LATERAL (SELECT unnest(range({w}, n + 1)) AS i) r
  WHERE ({cut}) % {d} = 0
),
ends AS (
  SELECT doc_id, i AS e FROM cuts
  UNION
  SELECT doc_id, n AS e FROM t WHERE n > 0
),
spans AS (
  SELECT doc_id,
         COALESCE(lag(e) OVER (PARTITION BY doc_id ORDER BY e), 0) + 1 AS a,
         e AS b
  FROM ends
),
ch AS (
  SELECT s.doc_id, s.b - s.a + 1 AS nb,
         CAST(('0x' || substr(md5(substr(t.text, s.a, s.b - s.a + 1)), 1, 15))
              AS BIGINT) AS h
  FROM spans s JOIN t USING (doc_id)
),
dup AS (SELECT h FROM ch GROUP BY h HAVING count(*) >= 2),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
         CAST(count(*) FILTER (WHERE h IN (SELECT h FROM dup)) AS BIGINT)
           AS n_dup_chunks,
         CAST(COALESCE(SUM(nb) FILTER (WHERE h IN (SELECT h FROM dup)), 0)
              AS BIGINT) AS dup_bytes
  FROM ch GROUP BY doc_id
)
SELECT doc.doc_id,
       COALESCE(a.n_chunks, 0) AS n_chunks,
       COALESCE(a.n_dup_chunks, 0) AS n_dup_chunks,
       COALESCE(a.dup_bytes, 0) AS dup_bytes
FROM documents doc LEFT JOIN agg a USING (doc_id)
ORDER BY doc.doc_id"""


def vocab_growth_sql() -> str:
    """Heaps-law vocab-growth oracle (ops/textstats.py vocab_growth):
    distinct raw tokens whose first-occurrence doc_id < checkpoint, at
    N = n//10, n//4, n//2, n (computed in SQL so one string is exact at
    every sf)."""
    return """WITH raw AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
),
firsts AS (
  SELECT term, min(doc_id) AS m FROM raw WHERE term <> '' GROUP BY term
),
c AS (SELECT count(*) AS n FROM documents),
cps AS (
  SELECT n // 10 AS cp FROM c UNION ALL
  SELECT n // 4 FROM c UNION ALL
  SELECT n // 2 FROM c UNION ALL
  SELECT n FROM c
)
SELECT CAST(cps.cp AS BIGINT) AS n_docs,
       CAST((SELECT count(*) FROM firsts WHERE m < cps.cp) AS BIGINT)
         AS vocab
FROM cps ORDER BY n_docs"""


def group_split_sql() -> str:
    """Group-aware split oracle (ops/domains.py group_split_counts): same
    md5 domain map + md5 group-split rule; counts per split."""
    h = _MD5_INT31.format(s="'dom:' || CAST(doc_id AS VARCHAR)")
    g = _MD5_INT31.format(s="'gsplit:' || domain")
    return f"""WITH dom AS (
  SELECT doc_id,
         'd' || CAST(((h % 40) * (h % 40)) // 40 AS VARCHAR)
             || '.example.com' AS domain
  FROM (SELECT doc_id, {h} AS h FROM documents)
),
sp AS (
  SELECT doc_id, domain,
         CASE WHEN ({g}) % 10 < 8 THEN 'train'
              WHEN ({g}) % 10 = 8 THEN 'val'
              ELSE 'test' END AS split
  FROM dom
),
names(split, ord) AS (VALUES ('train', 0), ('val', 1), ('test', 2))
SELECT names.split,
       CAST(COALESCE(c.nd, 0) AS BIGINT) AS n_domains,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n_docs
FROM names LEFT JOIN (
  SELECT split, count(DISTINCT domain) AS nd, count(*) AS n
  FROM sp GROUP BY split) c USING (split)
ORDER BY names.ord"""


def revenue_by_nation_sql() -> str:
    """Revenue-per-nation oracle (ops/tpch_join.py): per-ROW centi
    rounding in float64 (same stored doubles), then pure int64 sums."""
    return """SELECT n.n_name,
       CAST(SUM(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS rev_centi
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name
ORDER BY n.n_name"""


def link_records_sql() -> str:
    """Record-linkage oracle (ops/linkage.py link_records): same md5
    membership/perturbation rules, (bucket, nation) block join, integer
    Fellegi-Sunter weights (+25/-15 area, +10/-10 segment, thresh 15)."""
    ina = _MD5_INT31.format(s="'inA:' || CAST(c_custkey AS VARCHAR)")
    inb = _MD5_INT31.format(s="'inB:' || CAST(c_custkey AS VARCHAR)")
    ar = _MD5_INT31.format(s="'area:' || CAST(c_custkey AS VARCHAR)")
    pn = _MD5_INT31.format(s="'pnat:' || CAST(c_custkey AS VARCHAR)")
    pra = _MD5_INT31.format(s="'parea:' || CAST(c_custkey AS VARCHAR)")
    ps = _MD5_INT31.format(s="'pseg:' || CAST(c_custkey AS VARCHAR)")
    segs = ("VALUES (0,'AUTOMOBILE'), (1,'BUILDING'), (2,'FURNITURE'), "
            "(3,'HOUSEHOLD'), (4,'MACHINERY')")
    return f"""WITH segs(seg, sname) AS ({segs}),
base AS (
  SELECT c_custkey AS key,
         CAST(floor(c_acctbal / 1000) AS BIGINT) AS bucket,
         c_nationkey AS nation,
         (SELECT seg FROM segs WHERE sname = c_mktsegment) AS seg,
         ({ar}) % 100 AS area,
         ({ina}) % 4 AS gin_a, ({inb}) % 4 AS gin_b,
         ({pn}) % 3 AS g_pn, ({pra}) % 6 AS g_pa, ({ps}) % 5 AS g_ps
  FROM customer
),
a AS (SELECT key, bucket, nation, seg, area FROM base WHERE gin_a <> 0),
b AS (
  SELECT key, bucket,
         CASE WHEN g_pn = 0 THEN (nation + 1) % 25 ELSE nation END
           AS nation,
         CASE WHEN g_ps = 0 THEN (seg + 1) % 5 ELSE seg END AS seg,
         CASE WHEN g_pa = 0 THEN (area + 1) % 100 ELSE area END AS area
  FROM base WHERE gin_b <> 0
),
cand AS (
  SELECT a.key AS ka, b.key AS kb,
         (CASE WHEN a.area = b.area THEN 25 ELSE -15 END
          + CASE WHEN a.seg = b.seg THEN 10 ELSE -10 END) AS sc
  FROM a JOIN b ON a.bucket = b.bucket AND a.nation = b.nation
)
SELECT CAST(count(*) AS BIGINT) AS n_candidates,
       CAST(count(*) FILTER (WHERE sc >= 15) AS BIGINT) AS n_matches,
       CAST(count(*) FILTER (WHERE sc >= 15 AND ka = kb) AS BIGINT)
         AS n_true_found,
       CAST(count(*) FILTER (WHERE ka = kb) AS BIGINT) AS n_true_in_blocks,
       (SELECT CAST(count(*) AS BIGINT) FROM a JOIN b ON a.key = b.key)
         AS n_true_total
FROM cand"""


def kcore_sql(k: int = 3, rounds: int = 6) -> str:
    """Bounded-round k-core oracle (ops/triangles.py kcore_peel): same
    und edge set as triangle_counts_sql; unrolled peel rounds — deg_r
    over the s_{r-1}-induced subgraph, s_r = deg_r >= k; output round-R
    survivors with their round-R degree."""
    md5 = _MD5_INT31.format(s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    ctes = [f"""c AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
dir_edges AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v
  FROM (
    SELECT u, j, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
und AS (
  SELECT DISTINCT least(u, v) AS a, greatest(u, v) AS b FROM dir_edges
),
bi AS (SELECT a AS x, b AS y FROM und UNION ALL SELECT b, a FROM und),
s0 AS (SELECT doc_id AS node FROM documents)"""]
    for r in range(1, rounds + 1):
        ctes.append(f"""deg{r} AS (
  SELECT bi.x AS node, CAST(count(*) AS BIGINT) AS d
  FROM bi
  WHERE bi.x IN (SELECT node FROM s{r-1})
    AND bi.y IN (SELECT node FROM s{r-1})
  GROUP BY bi.x
),
s{r} AS (SELECT node FROM deg{r} WHERE d >= {k})""")
    return f"""WITH {", ".join(ctes)}
SELECT node, d AS deg FROM deg{rounds}
WHERE node IN (SELECT node FROM s{rounds})
ORDER BY node"""


def spell_variant_pairs_sql(k: int = 20) -> str:
    """SymSpell oracle (ops/symspell.py spell_variant_pairs): same
    deletion-key join over the vocabulary, exact distance-1 verification
    (one mismatched position, or a deletion match), (freq_sum desc, a, b)
    top-k."""
    return f"""WITH {_typo_aug_cte()},
raw AS (
  SELECT unnest(string_split(text, ' ')) AS term FROM aug
),
vocab AS (
  SELECT term, CAST(count(*) AS BIGINT) AS c
  FROM raw WHERE term <> '' GROUP BY term
),
keys AS (
  SELECT term, term AS v FROM vocab
  UNION ALL
  SELECT term, substr(term, 1, i - 1) || substr(term, i + 1) AS v
  FROM vocab, LATERAL (SELECT unnest(range(1, len(term) + 1)) AS i) r
),
cand AS (
  SELECT DISTINCT x.term AS a, y.term AS b
  FROM keys x JOIN keys y ON x.v = y.v AND x.term < y.term
),
ver AS (
  SELECT a, b FROM cand
  WHERE (len(a) = len(b) AND 1 = (
          SELECT count(*)
          FROM (SELECT unnest(range(1, len(a) + 1)) AS i) p
          WHERE substr(a, i, 1) <> substr(b, i, 1)))
     OR (len(a) = len(b) + 1 AND EXISTS (
          SELECT 1 FROM (SELECT unnest(range(1, len(a) + 1)) AS i) p
          WHERE substr(a, 1, i - 1) || substr(a, i + 1) = b))
     OR (len(b) = len(a) + 1 AND EXISTS (
          SELECT 1 FROM (SELECT unnest(range(1, len(b) + 1)) AS i) p
          WHERE substr(b, 1, i - 1) || substr(b, i + 1) = a))
)
SELECT v.a AS term_a, v.b AS term_b,
       CAST(ca.c + cb.c AS BIGINT) AS freq_sum
FROM ver v
JOIN vocab ca ON ca.term = v.a
JOIN vocab cb ON cb.term = v.b
ORDER BY freq_sum DESC, term_a ASC, term_b ASC
LIMIT {k}"""


def _typo_aug_cte() -> str:
    """Augmented-text CTE mirroring ops/symspell.augment_typos."""
    g = _MD5_INT31.format(s="'typo:' || CAST(doc_id AS VARCHAR)")
    gp = _MD5_INT31.format(s="'typopos:' || CAST(doc_id AS VARCHAR)")
    return f"""aug AS (
  SELECT doc_id,
         CASE WHEN ({g}) % 10 = 0 AND len(string_split(text, ' ')) >= 4
                   AND len(string_split(text, ' ')[4]) >= 3
              THEN text || ' ' ||
                   substr(string_split(text, ' ')[4], 1, p) ||
                   substr(string_split(text, ' ')[4], p + 2)
              ELSE text END AS text
  FROM (
    SELECT doc_id, text,
           ({gp}) % len(string_split(text, ' ')[4]) AS p
    FROM documents
    WHERE len(string_split(text, ' ')) >= 4
    UNION ALL
    SELECT doc_id, text, 0 AS p FROM documents
    WHERE len(string_split(text, ' ')) < 4
  )
)"""


def kcenter_greedy_sql(rounds: int = 8, seed_id: int = 0) -> str:
    """K-center greedy oracle (ops/coreset.py): unrolled rounds — pick_r
    minimizes max cosine similarity to the selected set (vec_id ties
    ascending); set-based joins over a MATERIALIZED embedding CTE (a
    correlated-subquery form re-scans the parquet view per candidate)."""
    ctes = ["emb AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings)",
            f"sel1(r, vec_id) AS MATERIALIZED (SELECT 1, CAST({seed_id} AS BIGINT))"]
    for r in range(2, rounds + 1):
        ctes.append(f"""pick{r}(r, vec_id) AS MATERIALIZED (
  SELECT {r}, vec_id FROM (
    SELECT e.vec_id,
           max(list_cosine_similarity(e.embedding, se.embedding)) AS m
    FROM emb e
    CROSS JOIN sel{r-1} s
    JOIN emb se ON se.vec_id = s.vec_id
    WHERE e.vec_id NOT IN (SELECT vec_id FROM sel{r-1})
    GROUP BY e.vec_id
  ) ORDER BY m ASC, vec_id ASC LIMIT 1
),
sel{r} AS MATERIALIZED (
  SELECT * FROM sel{r-1} UNION ALL SELECT * FROM pick{r})""")
    return f"""WITH {", ".join(ctes)}
SELECT CAST(r AS BIGINT) AS round, vec_id FROM sel{rounds} ORDER BY r"""


def mmr_rerank_sql(terms: list[str], n_cand: int = 20, rounds: int = 10
                   ) -> str:
    """MMR oracle (ops/mmr.py): candidates = the float32-bit-exact BM25
    top-n (bm25_topk_sql, MATERIALIZED once), unrolled greedy rounds of
    0.5*rel - 0.5*max-cosine-to-selected (doc_id ties asc) via set-based
    joins over a MATERIALIZED embedding CTE; seed = BM25 rank 1. Rank
    output (round, doc_id)."""
    cands = bm25_topk_sql(terms, k=n_cand).replace("\n", "\n  ")
    ctes = [f"""cands AS MATERIALIZED (
  SELECT doc_id, score FROM ({cands})
  WHERE doc_id IN (SELECT vec_id FROM embeddings)
),
emb AS MATERIALIZED (
  SELECT vec_id, embedding FROM embeddings
  WHERE vec_id IN (SELECT doc_id FROM cands)
),
sel1(r, doc_id) AS MATERIALIZED (
  SELECT 1, doc_id FROM cands ORDER BY score DESC, doc_id ASC LIMIT 1
)"""]
    for r in range(2, rounds + 1):
        ctes.append(f"""pick{r}(r, doc_id) AS MATERIALIZED (
  SELECT {r}, doc_id FROM (
    SELECT c.doc_id, c.score,
           max(list_cosine_similarity(e1.embedding, e2.embedding)) AS ms
    FROM cands c
    JOIN emb e1 ON e1.vec_id = c.doc_id
    CROSS JOIN sel{r-1} s
    JOIN emb e2 ON e2.vec_id = s.doc_id
    WHERE c.doc_id NOT IN (SELECT doc_id FROM sel{r-1})
    GROUP BY c.doc_id, c.score
  ) ORDER BY 0.5 * score - 0.5 * ms DESC, doc_id ASC
  LIMIT 1
),
sel{r} AS MATERIALIZED (
  SELECT * FROM sel{r-1} UNION ALL SELECT * FROM pick{r})""")
    return f"""WITH {", ".join(ctes)}
SELECT CAST(r AS BIGINT) AS round, doc_id FROM sel{rounds} ORDER BY r"""


def hybrid_borda_sql(terms: list[str], vec_id: int, leg_k: int = 20,
                     k: int = 10) -> str:
    """Borda fusion oracle (ops/hybrid.py borda_fuse): same two legs as
    hybrid_rrf_sql, points = leg_k - rank + 1 per leg, pure BIGINT."""
    lex = bm25_topk_sql(terms, k=leg_k)
    vec = knn_exact_sql([vec_id], k=leg_k)
    return f"""SELECT doc_id, borda FROM (
  SELECT COALESCE(l.doc_id, v.vec_id) AS doc_id,
         CAST(COALESCE({leg_k} - l.rank + 1, 0)
              + COALESCE({leg_k} - v.rank + 1, 0) AS BIGINT) AS borda
  FROM ({lex}) l
  FULL OUTER JOIN ({vec}) v ON v.vec_id = l.doc_id
) ORDER BY borda DESC, doc_id ASC LIMIT {k}"""


def label_docs_sql() -> str:
    """Weak-label oracle (ops/weaklabel.py label_docs): raw-token-SET
    membership votes (spark/merge → 1, window/sort → 2), majority with
    tie/abstain exclusion."""
    return """WITH dt AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents)
  WHERE term <> ''
),
v AS (
  SELECT d.doc_id,
         CAST(count(*) FILTER (WHERE dt.term IN ('spark', 'merge'))
              AS BIGINT) AS v1,
         CAST(count(*) FILTER (WHERE dt.term IN ('window', 'sort'))
              AS BIGINT) AS v2
  FROM documents d LEFT JOIN dt USING (doc_id)
  GROUP BY d.doc_id
)
SELECT doc_id,
       CAST(CASE WHEN v1 > v2 THEN 1 ELSE 2 END AS BIGINT) AS label,
       CAST(greatest(v1, v2) AS BIGINT) AS n_votes
FROM v
WHERE v1 <> v2 AND greatest(v1, v2) > 0
ORDER BY doc_id"""


def random_walks_sql(walk_len: int = 5, start_mod: int = 37) -> str:
    """Random-walk oracle (ops/randwalk.py): unrolled hops — step t from
    u takes out-edge j = md5('walk:u:t') % outdeg(u) of the same md5
    link graph (self-loop bump included)."""
    ctes = ["""c AS (SELECT count(*) AS n FROM documents),
w0 AS (
  SELECT doc_id AS start, 0 AS step, doc_id AS node
  FROM documents WHERE doc_id % {sm} = 0
)""".replace("{sm}", str(start_mod))]
    for t in range(1, walk_len + 1):
        jmd5 = _MD5_INT31.format(
            s=f"'walk:' || CAST(w.node AS VARCHAR) || ':{t}'")
        lmd5 = _MD5_INT31.format(
            s="'link:' || CAST(w.node AS VARCHAR) || ':' || CAST(jj.j AS VARCHAR)")
        ctes.append(f"""w{t} AS (
  SELECT w.start, {t} AS step,
         CASE WHEN tt.tgt = w.node THEN (tt.tgt + 1) % c.n
              ELSE tt.tgt END AS node
  FROM w{t-1} w CROSS JOIN c,
  LATERAL (SELECT ({jmd5}) % (1 + (w.node % 3)) AS j) jj,
  LATERAL (SELECT ({lmd5}) % c.n AS tgt) tt
)""")
    arms = "\nUNION ALL\n".join(
        f"SELECT start, CAST(step AS BIGINT) AS step, node FROM w{t}"
        for t in range(walk_len + 1))
    return f"""WITH {", ".join(ctes)}
{arms}
ORDER BY start, step"""


def rocchio_expand_sql(terms: list[str], k: int = 10, m: int = 10) -> str:
    """Rocchio PRF oracle (ops/rocchio.py): pseudo-relevant = the
    float32-bit-exact BM25 top-k; w(t) = (ln(N/(df+1)) + 1) * Σtf with an
    integer tf sum; query terms excluded; (w desc, term asc) top-m."""
    topk = bm25_topk_sql(terms, k=k).replace("\n", "\n  ")
    tlist = ", ".join(f"'{t}'" for t in terms)
    return f"""WITH topk AS MATERIALIZED (
  SELECT doc_id FROM ({topk})
),
{_toks_cte()},
tfs AS (
  SELECT k.term, CAST(count(*) AS BIGINT) AS sum_tf
  FROM kept k JOIN topk USING (doc_id)
  GROUP BY k.term
),
dfs AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
)
SELECT t.term, t.sum_tf, d.df
FROM tfs t JOIN dfs d USING (term) CROSS JOIN coll
WHERE t.term NOT IN ({tlist})
ORDER BY (ln(CAST(coll.N AS DOUBLE) / (d.df + 1)) + 1.0) * t.sum_tf DESC,
         t.term ASC
LIMIT {m}"""


def bm25_dismax_sql(terms: list[str], tie: float = 0.0, k: int = 10) -> str:
    """DisjunctionMaxQuery oracle (searcher._eval_dismax;
    ``Search/DisjunctionMaxQuery.cs:58`` DisjunctionMaxScorer):
    score = max + tie*(sum - max), every op staged float32.  Two clauses:
    sum is the f32 clause-order sum, max is exact at any order."""
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s{i}"
        for i, t in enumerate(terms))
    # DuckDB GREATEST promotes REAL args to DOUBLE; the true max of f32s
    # IS an f32, so the cast back is a lossless identity
    smax = "CAST(GREATEST(" + ", ".join(
        f"COALESCE(s{i}, {ZERO_R})" for i in range(len(terms))) + ") AS REAL)"
    ssum = f"COALESCE(s0, {ZERO_R})"
    for i in range(1, len(terms)):
        ssum = f"({ssum} + COALESCE(s{i}, {ZERO_R}))"
    tie_r = _R.format(v=repr(float(tie)))
    score = f"(smax + ({tie_r} * (ssum - smax)))"
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(terms, None)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id
),
staged AS (
  SELECT doc_id, {smax} AS smax, {ssum} AS ssum FROM agg
),
scored AS (
  SELECT doc_id, {score} AS score FROM staged
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def common_terms_sql(low_terms: list[str], high_terms: list[str],
                     k: int = 10) -> str:
    """CommonTermsQuery oracle (query.common_terms_query;
    ``Queries/CommonTermsQuery.cs``) with low_freq_occur=MUST: a doc MUST
    contain every low-freq term; high-freq terms are demoted to one
    optional SHOULD sub-query.  Clause-order f32 staging: low clauses in
    order, then the sub-query's own f32 clause-order sum added once —
    (..(low0 + low1..) + (high0 + high1..)) with every + a binary32 add.
    The low/high split is fixed by construction: the synthesized corpus
    keeps term-frequency RATIOS scale-invariant, so the classification
    (df <= cutoff) is identical at every sf (asserted engine-side)."""
    all_terms = list(low_terms) + list(high_terms)
    terms_sql = ", ".join(f"'{t}'" for t in all_terms)
    pivot_cols = ",\n    ".join(
        f"MAX(CASE WHEN term = '{t}' THEN s END) AS s_{i}"
        for i, t in enumerate(all_terms))
    nlow = len(low_terms)
    low_sum = f"COALESCE(s_0, {ZERO_R})"
    for i in range(1, nlow):
        low_sum = f"({low_sum} + COALESCE(s_{i}, {ZERO_R}))"
    high_sum = f"COALESCE(s_{nlow}, {ZERO_R})"
    for i in range(nlow + 1, len(all_terms)):
        high_sum = f"({high_sum} + COALESCE(s_{i}, {ZERO_R}))"
    score = f"({low_sum} + {high_sum})" if high_terms else low_sum
    must = "HAVING count(DISTINCT CASE WHEN term IN (" + ", ".join(
        f"'{t}'" for t in low_terms) + f") THEN term END) = {nlow}"
    return f"""WITH {_toks_cte()},{_NORM_CTE},{_weights_cte(all_terms, None)},
tf AS (
  SELECT doc_id, term, CAST(count(*) AS REAL) AS f
  FROM kept WHERE term IN ({terms_sql}) GROUP BY doc_id, term
),
persc AS (
  SELECT tf.doc_id, tf.term,
         (w.wv * tf.f) / (tf.f + c.cache) AS s
  FROM tf
  JOIN qweights w USING (term)
  JOIN normcache c ON c.doc_id = tf.doc_id
),
agg AS (
  SELECT doc_id, {pivot_cols}
  FROM persc GROUP BY doc_id {must}
),
scored AS (
  SELECT doc_id, {score} AS score FROM agg
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST(score AS DOUBLE) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}"""


def constant_score_like_sql(like_pattern: str, boost: float,
                            k: int = 10) -> str:
    """Constant-score multi-term rewrite oracle (WildcardQuery with the
    default CONSTANT_SCORE rewrite, ``Search/WildcardQuery.cs:45``): docs
    holding ANY term matching the SQL LIKE translation of the wildcard
    pattern score exactly boost, ties doc_id asc."""
    esc = like_pattern.replace("'", "''")
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept WHERE term LIKE '{esc}')
SELECT CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST({boost!r} AS DOUBLE) AS score
FROM m ORDER BY doc_id ASC LIMIT {k}"""


# ---------------------------------------------------------------------------
# link graph: shared und-edge CTE + neighborhood / link-prediction oracles


def _und_graph_ctes() -> str:
    """Shared md5 link-graph CTEs (same synthesis as ops/graphrank.py
    _out_edges): c, nodes, dir_edges, und (a<b dedup), bi (both dirs)."""
    md5 = _MD5_INT31.format(
        s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""c AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
dir_edges AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v
  FROM (
    SELECT u, j, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
und AS (
  SELECT DISTINCT least(u, v) AS a, greatest(u, v) AS b FROM dir_edges
),
bi AS (SELECT a AS x, b AS y FROM und UNION ALL SELECT b, a FROM und)"""


def neighborhood_sql() -> str:
    """Exact 2-hop neighborhood-function oracle (ops/linkpredict.py
    neighborhood_sizes): n1 = distinct direct neighbors, n2 = distinct
    nodes within distance <= 2 (self excluded), per node with >= 1 edge."""
    return f"""WITH {_und_graph_ctes()},
two AS (
  SELECT p.y AS src, q.y AS w
  FROM bi p JOIN bi q ON p.x = q.x AND p.y <> q.y
),
reach AS (
  SELECT x AS src, y AS w, 1 AS direct FROM bi
  UNION ALL
  SELECT src, w, 0 AS direct FROM two
)
SELECT src AS node,
       CAST(count(DISTINCT w) FILTER (WHERE direct = 1) AS BIGINT) AS n1,
       CAST(count(DISTINCT w) AS BIGINT) AS n2
FROM reach GROUP BY src ORDER BY src"""


def resource_allocation_sql(k: int = 20) -> str:
    """Resource-allocation link-prediction oracle (ops/linkpredict.py
    resource_allocation_topk; Zhou-Lü-Zhang 2009): per common neighbor z
    the weight is the int fixed point 10^9 // deg(z); candidate = summed
    weight over non-adjacent pairs; (score desc, a, b) top-k."""
    return f"""WITH {_und_graph_ctes()},
deg AS (SELECT x, CAST(count(DISTINCT y) AS BIGINT) AS d FROM bi GROUP BY x),
wedge AS (
  SELECT p.y AS a, q.y AS b, 1000000000 // deg.d AS wt
  FROM bi p
  JOIN bi q ON p.x = q.x AND p.y < q.y
  JOIN deg ON deg.x = p.x
),
cand AS (
  SELECT a, b, CAST(sum(wt) AS BIGINT) AS score
  FROM wedge GROUP BY a, b
),
nonadj AS (
  SELECT cand.* FROM cand
  WHERE NOT EXISTS (SELECT 1 FROM und
                    WHERE und.a = cand.a AND und.b = cand.b)
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, a ASC, b ASC) AS BIGINT)
         AS rank,
       a, b, score
FROM nonadj ORDER BY score DESC, a ASC, b ASC LIMIT {k}"""


def constant_score_range_sql(lower: str, upper: str, boost: float,
                             k: int = 10) -> str:
    """TermRangeQuery constant-score oracle (``Search/TermRangeQuery.cs``
    inclusive bounds): docs holding ANY body term in [lower, upper] score
    exactly boost, ties doc_id asc."""
    lo = lower.replace("'", "''")
    hi = upper.replace("'", "''")
    return f"""WITH {_toks_cte()},
m AS (SELECT DISTINCT doc_id FROM kept
      WHERE term >= '{lo}' AND term <= '{hi}')
SELECT CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank,
       doc_id, CAST({boost!r} AS DOUBLE) AS score
FROM m ORDER BY doc_id ASC LIMIT {k}"""


def cocitation_sql(k: int = 20) -> str:
    """Co-citation oracle (ops/linkpredict.py cocitation_topk; Small
    1973): pairs (a < b) by the count of distinct docs linking to both,
    (count desc, a, b) top-k."""
    return f"""WITH {_und_graph_ctes()},
d AS (SELECT DISTINCT u, v FROM dir_edges),
p AS (
  SELECT e1.v AS a, e2.v AS b, count(*) AS c
  FROM d e1 JOIN d e2 ON e1.u = e2.u AND e1.v < e2.v
  GROUP BY e1.v, e2.v
)
SELECT CAST(row_number() OVER (ORDER BY c DESC, a ASC, b ASC) AS BIGINT)
         AS rank,
       a, b, CAST(c AS BIGINT) AS n_cociting
FROM p ORDER BY c DESC, a ASC, b ASC LIMIT {k}"""


def _raw_adjacent_cte(table: str = "documents") -> str:
    """Raw whitespace tokens, empties dropped, positions re-ranked AFTER
    the drop so bigrams are adjacency of the FILTERED stream (the
    ops/collocations.py contract)."""
    return f"""rawtok AS (
  SELECT doc_id, source,
         unnest(string_split(text, ' ')) AS w,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM {table}
),
ftok AS (
  SELECT doc_id, source, w,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS p
  FROM rawtok WHERE w <> ''
),
bigr AS (
  SELECT x.doc_id, x.source, x.w AS a, y.w AS b
  FROM ftok x JOIN ftok y ON x.doc_id = y.doc_id AND y.p = x.p + 1
)"""


def pmi_bigrams_sql(k: int = 20, min_count: int = 5) -> str:
    """PMI collocation oracle (ops/collocations.py pmi_bigrams; Church &
    Hanks 1990): lift = (c_ab*N*10^9) // (c_a*c_b) in exact integer
    arithmetic (HUGEINT intermediate — the product overflows BIGINT at
    bench scale), c_ab >= min_count, (lift desc, a, b) top-k."""
    return f"""WITH {_raw_adjacent_cte()},
uni AS (SELECT w, CAST(count(*) AS BIGINT) AS c FROM ftok GROUP BY w),
n AS (SELECT CAST(sum(c) AS BIGINT) AS total FROM uni),
ab AS (
  SELECT a, b, CAST(count(*) AS BIGINT) AS c_ab
  FROM bigr GROUP BY a, b HAVING count(*) >= {min_count}
),
scored AS (
  SELECT ab.a, ab.b, ab.c_ab,
         CAST((CAST(ab.c_ab AS HUGEINT) * n.total * 1000000000)
              // (CAST(ua.c AS HUGEINT) * ub.c) AS BIGINT) AS lift
  FROM ab
  JOIN uni ua ON ua.w = ab.a
  JOIN uni ub ON ub.w = ab.b
  CROSS JOIN n
)
SELECT CAST(row_number() OVER (ORDER BY lift DESC, a ASC, b ASC) AS BIGINT)
         AS rank,
       a, b, c_ab, lift
FROM scored ORDER BY lift DESC, a ASC, b ASC LIMIT {k}"""


def ngram_diversity_sql() -> str:
    """Distinct-2 diversity oracle (ops/collocations.py ngram_diversity;
    Zhu et al. 2018 §4.2): per source, total and distinct adjacent
    bigrams over the filtered raw token stream; diversity =
    (distinct*10^9) // total."""
    return f"""WITH {_raw_adjacent_cte()},
per AS (
  SELECT source,
         CAST(count(*) AS BIGINT) AS total_ngrams,
         CAST(count(DISTINCT a || chr(31) || b) AS BIGINT)
           AS distinct_ngrams
  FROM bigr GROUP BY source
)
SELECT source, total_ngrams, distinct_ngrams,
       CAST((CAST(distinct_ngrams AS HUGEINT) * 1000000000)
            // total_ngrams AS BIGINT) AS diversity
FROM per ORDER BY source"""


def trustrank_topk_sql(n_iters: int = 3, k: int = 20,
                       seed_mod: int = 50) -> str:
    """Integer TrustRank oracle (ops/graphrank.py trustrank; Gyöngyi et
    al. VLDB 2004): pagerank_topk_sql's unrolled iterations with the
    teleport mass concentrated on the seed set doc_id % seed_mod = 0 —
    identical int64 // arithmetic, size-general (seed count computed in
    SQL)."""
    md5 = _MD5_INT31.format(
        s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    ctes = [f"""c AS (
  SELECT count(*) AS n,
         1000000000000 // count(*) FILTER (WHERE doc_id % {seed_mod} = 0)
           AS base,
         (15 * (1000000000000 //
            count(*) FILTER (WHERE doc_id % {seed_mod} = 0))) // 100 AS t15
  FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
edges AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v, d
  FROM (
    SELECT u, j, 1 + (u % 3) AS d, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
r0 AS (SELECT doc_id AS node,
              CAST(CASE WHEN doc_id % {seed_mod} = 0 THEN c.base
                        ELSE 0 END AS BIGINT) AS r
       FROM documents CROSS JOIN c)"""]
    for i in range(1, n_iters + 1):
        ctes.append(f"""r{i} AS (
  SELECT n.doc_id AS node,
         CAST(CASE WHEN n.doc_id % {seed_mod} = 0 THEN c.t15 ELSE 0 END
              + 85 * COALESCE(s.S, 0) // 100 AS BIGINT) AS r
  FROM documents n CROSS JOIN c LEFT JOIN (
    SELECT e.v AS node, CAST(SUM(p.r // e.d) AS BIGINT) AS S
    FROM edges e JOIN r{i-1} p ON p.node = e.u GROUP BY e.v) s
  ON s.node = n.doc_id
)""")
    return f"""WITH {", ".join(ctes)}
SELECT CAST(row_number() OVER (ORDER BY r DESC, node ASC) AS BIGINT)
         AS rank_pos,
       node, r AS trust
FROM r{n_iters}
ORDER BY r DESC, node ASC
LIMIT {k}"""


def anchor_terms_sql(k: int = 20) -> str:
    """Anchor-text aggregation oracle (ops/linkpredict.py
    anchor_terms_topk): every directed link (multi-edges counted per
    link) carries the source doc's first two non-empty tokens; counts
    aggregate per TARGET; (cnt desc, node, term) top-k."""
    md5 = _MD5_INT31.format(
        s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH c AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
links AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v
  FROM (
    SELECT u, j, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
rawtok AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
anchor AS (
  SELECT doc_id, w,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS p
  FROM rawtok WHERE w <> ''
),
pairs AS (
  SELECT l.v AS node, a.w AS term
  FROM links l JOIN anchor a ON a.doc_id = l.u AND a.p <= 2
),
agg AS (
  SELECT node, term, CAST(count(*) AS BIGINT) AS cnt
  FROM pairs GROUP BY node, term
)
SELECT CAST(row_number() OVER (ORDER BY cnt DESC, node ASC, term ASC)
            AS BIGINT) AS rank,
       node, term, cnt
FROM agg ORDER BY cnt DESC, node ASC, term ASC LIMIT {k}"""


def degree_dist_sql() -> str:
    """Degree-histogram oracle (ops/linkpredict.py degree_distribution):
    directed in/out degree histograms over the md5 graph, multi-edges
    counted, zero-in-degree nodes included; (kind, deg)-sorted."""
    md5 = _MD5_INT31.format(
        s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH c AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
links AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v
  FROM (
    SELECT u, j, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
ind AS (
  SELECT d.doc_id AS node, CAST(count(l.v) AS BIGINT) AS deg
  FROM documents d LEFT JOIN links l ON l.v = d.doc_id
  GROUP BY d.doc_id
),
outd AS (
  SELECT doc_id AS node, CAST(1 + (doc_id % 3) AS BIGINT) AS deg
  FROM documents
),
hist AS (
  SELECT 'in' AS kind, deg, CAST(count(*) AS BIGINT) AS n_nodes
  FROM ind GROUP BY deg
  UNION ALL
  SELECT 'out' AS kind, deg, CAST(count(*) AS BIGINT) AS n_nodes
  FROM outd GROUP BY deg
)
SELECT kind, deg, n_nodes FROM hist ORDER BY kind, deg"""


def maxsim_topk_sql(n_query_vecs: int = 4, group_size: int = 4,
                    k: int = 10) -> str:
    """ColBERT MaxSim oracle (ops/multivector.py maxsim_topk; Khattab &
    Zaharia SIGIR 2020 §3.2): docs are vec_id // group_size groups; the
    query tokens are the first ``n_query_vecs`` vectors; score = sum over
    query tokens (in qi order via list_sum — the float-aggregate ORDER BY
    rule) of the max cosine.  Rank-only output (knn float-parity
    precedent)."""
    return f"""WITH q AS (
  SELECT vec_id AS qi, embedding FROM embeddings
  WHERE vec_id < {n_query_vecs}
),
sims AS (
  SELECT e.vec_id // {group_size} AS doc, q.qi,
         max(list_cosine_similarity(e.embedding, q.embedding)) AS s
  FROM embeddings e CROSS JOIN q
  GROUP BY e.vec_id // {group_size}, q.qi
),
scored AS (
  SELECT doc, list_sum(list(s ORDER BY qi)) AS score
  FROM sims GROUP BY doc
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc ASC) AS BIGINT)
         AS rank,
       doc
FROM scored ORDER BY score DESC, doc ASC LIMIT {k}"""


def ndcg_eval_sql(terms: tuple[str, ...], mod: int) -> str:
    """nDCG@10 oracle (ops/ndcg.py + __ray_entry__._q_ndcg_eval): re-rank
    each single-term query with the full BM25 SQL, join the md5 relevance
    judgments, and compute integer DCG/IDCG with the SHARED quantized
    discount table (literals embedded from ops/ndcg.py — single source,
    no libm divergence possible)."""
    from lucenenet_ray.ops.ndcg import DISCOUNTS, NDCG_K, SCALE

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    ranked = "\nUNION ALL\n".join(
        f"SELECT '{t}' AS qt, rank, doc_id FROM ({bm25_topk_sql([t], NDCG_K)})"
        for t in terms)
    values = ", ".join(f"('{t}')" for t in terms)
    disc_rows = ", ".join(f"({i + 1}, {d})" for i, d in enumerate(DISCOUNTS))
    rel_r = md5i("'qrel-'||qt||'-'||doc_id")
    rel_d = md5i("'qrel-'||t.qt||'-'||d.doc_id")
    return f"""WITH ranked AS (
{ranked}
),
disc AS (SELECT * FROM (VALUES {disc_rows}) AS d(rnk, w)),
dcg AS (
  SELECT qt,
         CAST(COALESCE(sum(disc.w) FILTER (
           WHERE {rel_r} % {mod} = 0), 0) AS BIGINT) AS dcg_scaled
  FROM ranked JOIN disc ON disc.rnk = ranked.rank
  GROUP BY qt
),
mg AS (
  SELECT t.qt, count(*) AS max_good
  FROM (VALUES {values}) AS t(qt), documents d
  WHERE {rel_d} % {mod} = 0
  GROUP BY t.qt
),
idcg AS (
  SELECT t.qt,
         CAST(COALESCE((SELECT sum(w) FROM disc
            WHERE rnk <= least(COALESCE(m.max_good, 0), {NDCG_K})), 0)
           AS BIGINT) AS idcg_scaled
  FROM (VALUES {values}) AS t(qt) LEFT JOIN mg m ON m.qt = t.qt
)
SELECT d.qt AS query_term, d.dcg_scaled, i.idcg_scaled,
       CAST(CASE WHEN i.idcg_scaled = 0 THEN 0
            ELSE (CAST(d.dcg_scaled AS HUGEINT) * {SCALE})
                 // i.idcg_scaled END AS BIGINT) AS ndcg_fp
FROM dcg d JOIN idcg i ON i.qt = d.qt
ORDER BY query_term"""


def export_partitioned_sql() -> str:
    """Partitioned-export oracle (__ray_entry__._q_export_partitioned):
    per-lang row counts — the engine must round-trip them through a
    hive-partitioned parquet write + per-partition read-back."""
    return """SELECT lang, CAST(count(*) AS BIGINT) AS n_rows
FROM documents GROUP BY lang ORDER BY lang"""


def shard_plan_sql(n_shards: int = 8) -> str:
    """Shard-plan oracle (ops/shardplan.py shard_plan): shard(doc) =
    (bytes_before * n_shards) // total over the doc-id-ordered prefix
    sum; per-shard ranges and totals."""
    return f"""WITH c AS (
  SELECT CAST(sum(n_chars) AS BIGINT) AS W FROM documents
),
pre AS (
  SELECT doc_id, n_chars,
         CAST(COALESCE(sum(n_chars) OVER (
           ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS BIGINT) AS bef
  FROM documents
),
a AS (
  SELECT doc_id, n_chars,
         CAST((CAST(bef AS HUGEINT) * {n_shards})
              // greatest(c.W, 1) AS BIGINT) AS shard_id
  FROM pre CROSS JOIN c
)
SELECT shard_id,
       min(doc_id) AS doc_lo, max(doc_id) AS doc_hi,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS n_bytes
FROM a GROUP BY shard_id ORDER BY shard_id"""


def systematic_resample_sql(m: int) -> str:
    """Systematic-resampling oracle (ops/shardplan.py
    systematic_resample; Kitagawa 1996): n_copies(doc) = f(C_i) -
    f(C_{i-1}) with f(C) = clamp(ceil((2mC - W)/(2W)), 0, m), the ceil
    taken only on the positive branch so truncating and flooring
    division agree; HUGEINT intermediates."""
    return f"""WITH c AS (
  SELECT CAST(sum(n_chars) AS HUGEINT) AS W FROM documents
),
pre AS (
  SELECT doc_id, n_chars,
         CAST(COALESCE(sum(n_chars) OVER (
           ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS HUGEINT) AS bef
  FROM documents
),
f AS (
  SELECT doc_id,
    CAST(CASE WHEN 2 * {m} * bef <= c.W THEN 0
         ELSE least((2 * {m} * bef - c.W + 2 * c.W - 1) // (2 * c.W),
                    {m}) END AS BIGINT) AS f_lo,
    CAST(CASE WHEN 2 * {m} * (bef + n_chars) <= c.W THEN 0
         ELSE least((2 * {m} * (bef + n_chars) - c.W + 2 * c.W - 1)
                    // (2 * c.W), {m}) END AS BIGINT) AS f_hi
  FROM pre CROSS JOIN c
)
SELECT doc_id, f_hi - f_lo AS n_copies
FROM f WHERE f_hi - f_lo > 0 ORDER BY doc_id"""


def split_leakage_sql(pick_mod: int = 20, copy_mod: int = 3,
                      k: int = 50) -> str:
    """Split-leakage oracle (ops/shardplan.py split_leakage): re-derives
    the synthesized val overlay (valpick/leakcopy md5 rules, fresh-text
    rows get md5('fresh-'+id) bodies) and reports val rows whose digest
    appears among train digests."""
    pick = _MD5_INT31.format(s="'valpick-'||CAST(doc_id AS VARCHAR)")
    copy = _MD5_INT31.format(s="'leakcopy-'||CAST(doc_id AS VARCHAR)")
    return f"""WITH train AS (
  SELECT doc_id, md5(text) AS dig FROM documents
),
val AS (
  SELECT doc_id + 1000000000 AS doc_id,
         CASE WHEN {copy} % {copy_mod} = 0 THEN md5(text)
              ELSE md5('fresh-' || md5('fresh-'||CAST(doc_id AS VARCHAR)))
         END AS dig
  FROM documents
  WHERE {pick} % {pick_mod} = 0
),
tr AS (
  SELECT dig, CAST(count(*) AS BIGINT) AS n FROM train GROUP BY dig
)
SELECT v.doc_id, tr.n AS n_train_dups
FROM val v JOIN tr ON tr.dig = v.dig
ORDER BY v.doc_id LIMIT {k}"""


def _stop_filtered_adjacent_cte(table: str = "documents") -> str:
    """Stop-filtered token stream with re-ranked positions and its
    adjacency pairs (the ops/keywords.py textrank contract)."""
    return f"""rawtok AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM {table}
),
ftok AS (
  SELECT doc_id, w,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS p
  FROM rawtok WHERE w <> '' AND w NOT IN {STOP_SQL}
),
ew AS (
  SELECT least(x.w, y.w) AS a, greatest(x.w, y.w) AS b,
         CAST(count(*) AS BIGINT) AS wt
  FROM ftok x JOIN ftok y ON x.doc_id = y.doc_id AND y.p = x.p + 1
  WHERE x.w <> y.w
  GROUP BY least(x.w, y.w), greatest(x.w, y.w)
),
bi AS (
  SELECT a AS src, b AS dst, wt FROM ew
  UNION ALL
  SELECT b, a, wt FROM ew
),
ws AS (SELECT src, CAST(sum(wt) AS BIGINT) AS wsum FROM bi GROUP BY src)"""


def textrank_sql(n_iters: int = 3, k: int = 20) -> str:
    """Integer TextRank oracle (ops/keywords.py textrank_keywords;
    Mihalcea & Tarau EMNLP 2004): unrolled damped rounds over the
    stop-filtered word co-occurrence graph, identical int64 //
    arithmetic, vocabulary = edge-participating words."""
    ctes = [f"""{_stop_filtered_adjacent_cte()},
vocab AS (SELECT DISTINCT src AS word FROM bi),
c AS (
  SELECT count(*) AS v,
         1000000000 // count(*) AS base,
         (15 * (1000000000 // count(*))) // 100 AS t15
  FROM vocab),
r0 AS (SELECT word, CAST(c.base AS BIGINT) AS r FROM vocab CROSS JOIN c)"""]
    for i in range(1, n_iters + 1):
        ctes.append(f"""r{i} AS (
  SELECT v.word,
         CAST(c.t15 + 85 * COALESCE(s.S, 0) // 100 AS BIGINT) AS r
  FROM vocab v CROSS JOIN c LEFT JOIN (
    SELECT e.dst AS word,
           CAST(SUM((p.r * e.wt) // w.wsum) AS BIGINT) AS S
    FROM bi e
    JOIN ws w ON w.src = e.src
    JOIN r{i-1} p ON p.word = e.src
    GROUP BY e.dst) s
  ON s.word = v.word
)""")
    return f"""WITH {", ".join(ctes)}
SELECT CAST(row_number() OVER (ORDER BY r DESC, word ASC) AS BIGINT)
         AS rank_pos,
       word, r AS score
FROM r{n_iters}
ORDER BY r DESC, word ASC LIMIT {k}"""


def rake_sql(k: int = 20, min_phrase_freq: int = 2) -> str:
    """RAKE oracle (ops/keywords.py rake_phrases; Rose et al. 2010):
    stopword-delimited candidate runs, freq/deg word stats with the
    degree-includes-self convention, integer fixed-point word scores,
    phrase score = member-word-score sum with multiplicity."""
    return f"""WITH rawtok AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
tok2 AS (
  SELECT doc_id, w, pos,
         CASE WHEN w = '' OR w IN {STOP_SQL} THEN 1 ELSE 0 END AS is_delim
  FROM rawtok
),
tok3 AS (
  SELECT doc_id, w, pos, is_delim,
         sum(is_delim) OVER (PARTITION BY doc_id ORDER BY pos) AS grp
  FROM tok2
),
cand AS (SELECT doc_id, grp, w, pos FROM tok3 WHERE is_delim = 0),
phr AS (
  SELECT doc_id, grp,
         string_agg(w, ' ' ORDER BY pos) AS phrase,
         CAST(count(*) AS BIGINT) AS L
  FROM cand GROUP BY doc_id, grp
),
wstat AS (
  SELECT c.w AS word,
         CAST(count(*) AS BIGINT) AS freq,
         CAST(sum(p.L) AS BIGINT) AS deg
  FROM cand c JOIN phr p USING (doc_id, grp)
  GROUP BY c.w
),
wscore AS (
  SELECT word, (deg * 1000000000) // freq AS score FROM wstat
),
psum AS (
  SELECT c.doc_id, c.grp, CAST(sum(s.score) AS BIGINT) AS score
  FROM cand c JOIN wscore s ON s.word = c.w
  GROUP BY c.doc_id, c.grp
),
pstats AS (
  SELECT p.phrase,
         max(p.L) AS n_words,
         CAST(count(*) AS BIGINT) AS phrase_freq,
         max(ps.score) AS score
  FROM phr p JOIN psum ps USING (doc_id, grp)
  GROUP BY p.phrase
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, phrase ASC) AS BIGINT)
         AS rank,
       phrase, CAST(n_words AS BIGINT) AS n_words, phrase_freq,
       CAST(score AS BIGINT) AS score
FROM pstats WHERE phrase_freq >= {min_phrase_freq}
ORDER BY score DESC, phrase ASC LIMIT {k}"""


def label_propagation_sql(n_rounds: int = 3, seed_mod: int = 25,
                          n_labels: int = 4) -> str:
    """Label-propagation oracle (ops/propagation.py label_propagation;
    Zhu & Ghahramani 2002 / Raghavan et al. 2007): unrolled synchronous
    majority rounds — per node the (count desc, label asc) argmax over
    labeled neighbors, seeds clamped, previous label kept when no
    neighbor is labeled."""
    ctes = [f"""{_und_graph_ctes()},
l0 AS (
  SELECT doc_id AS node,
         CASE WHEN doc_id % {seed_mod} = 0
              THEN doc_id % {n_labels} ELSE -1 END AS lab
  FROM documents)"""]
    for r in range(1, n_rounds + 1):
        ctes.append(f"""v{r} AS MATERIALIZED (
  SELECT b.x AS node, l.lab, count(*) AS c
  FROM bi b JOIN l{r-1} l ON l.node = b.y
  WHERE l.lab >= 0
  GROUP BY b.x, l.lab
),
p{r} AS MATERIALIZED (
  SELECT node, lab FROM (
    SELECT node, lab,
           row_number() OVER (PARTITION BY node
                              ORDER BY c DESC, lab ASC) AS rn
    FROM v{r})
  WHERE rn = 1
),
l{r} AS MATERIALIZED (
  SELECT n.doc_id AS node,
         CASE WHEN n.doc_id % {seed_mod} = 0
              THEN n.doc_id % {n_labels}
              ELSE COALESCE(p.lab, prev.lab) END AS lab
  FROM documents n
  LEFT JOIN p{r} p ON p.node = n.doc_id
  JOIN l{r-1} prev ON prev.node = n.doc_id
)""")
    return f"""WITH {", ".join(ctes)}
SELECT node, CAST(lab AS BIGINT) AS label
FROM l{n_rounds} WHERE lab >= 0 ORDER BY node"""


def bfs_distances_sql(seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
                      max_rounds: int = 4) -> str:
    """Multi-source BFS oracle (ops/propagation.py bfs_distances):
    unrolled frontier rounds over the und graph (MATERIALIZED — each
    cumulative CTE is referenced twice); per-seed distance histogram."""
    seed_vals = ", ".join(f"({s}, {s}, 0)" for s in seeds)
    ctes = [f"""{_und_graph_ctes()},
c0 AS (SELECT * FROM (VALUES {seed_vals}) t(seed, node, dist))"""]
    for r in range(1, max_rounds + 1):
        ctes.append(f"""f{r} AS MATERIALIZED (
  SELECT DISTINCT c.seed, b.x AS node
  FROM bi b JOIN c{r-1} c ON c.node = b.y AND c.dist = {r-1}
  WHERE NOT EXISTS (SELECT 1 FROM c{r-1} z
                    WHERE z.seed = c.seed AND z.node = b.x)
),
c{r} AS MATERIALIZED (
  SELECT * FROM c{r-1}
  UNION ALL
  SELECT seed, node, {r} AS dist FROM f{r}
)""")
    return f"""WITH {", ".join(ctes)}
SELECT CAST(seed AS BIGINT) AS seed, CAST(dist AS BIGINT) AS dist,
       CAST(count(*) AS BIGINT) AS n_nodes
FROM c{max_rounds} GROUP BY seed, dist ORDER BY seed, dist"""


def pricing_summary_sql() -> str:
    """TPC-H Q1-shape oracle (ops/olap.py pricing_summary): identical
    floor(x*scale + 0.5) integer money staging (half-up — the documented
    np.rint/round() divergence dodge), exact integer sums."""
    return """WITH li AS (
  SELECT l_returnflag, l_linestatus,
         CAST(floor(l_quantity * 1 + 0.5) AS BIGINT) AS qty,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS ep,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS di,
         CAST(floor(l_tax * 100 + 0.5) AS BIGINT) AS tx
  FROM lineitem
)
SELECT l_returnflag, l_linestatus,
       CAST(sum(qty) AS BIGINT) AS sum_qty,
       CAST(sum(ep) AS BIGINT) AS sum_base_cents,
       CAST(sum(ep * (100 - di)) AS BIGINT) AS sum_disc_e4,
       CAST(sum(ep * (100 - di) * (100 + tx)) AS BIGINT) AS sum_charge_e6,
       CAST(count(*) AS BIGINT) AS count_order
FROM li GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus"""


def table_profile_sql(table: str, type_names: dict[str, str]) -> str:
    """Column-profiler oracle (ops/olap.py table_profile): per column the
    declared type, row/null counts, and int64 min/max (other types
    report NULL extrema by contract)."""
    parts = []
    for c in sorted(type_names):
        ty = type_names[c]
        if ty == "int64":
            mn = f"CAST(min({c}) AS BIGINT)"
            mx = f"CAST(max({c}) AS BIGINT)"
        else:
            mn = "CAST(NULL AS BIGINT)"
            mx = "CAST(NULL AS BIGINT)"
        parts.append(
            f"SELECT '{c}' AS \"column\", '{ty}' AS dtype,\n"
            f"       CAST(count(*) AS BIGINT) AS n_rows,\n"
            f"       CAST(count(*) - count({c}) AS BIGINT) AS n_nulls,\n"
            f"       {mn} AS min_int, {mx} AS max_int\n"
            f"FROM {table}")
    union = "\nUNION ALL\n".join(parts)
    return f"""SELECT * FROM (
{union}
) ORDER BY "column\""""


def shipping_priority_sql(segment: str = "BUILDING",
                          cutoff: str = "1998-06-15",
                          k: int = 10) -> str:
    """TPC-H Q3-shape oracle (ops/olap.py shipping_priority): identical
    integer-cents revenue staging; (revenue desc, o_orderdate asc,
    l_orderkey asc) top-k."""
    return f"""WITH ck AS (
  SELECT c_custkey FROM customer WHERE c_mktsegment = '{segment}'
),
o AS (
  SELECT o_orderkey, o_orderdate FROM orders
  JOIN ck ON ck.c_custkey = orders.o_custkey
  WHERE o_orderdate < TIMESTAMP '{cutoff}'
),
rev AS (
  SELECT l.l_orderkey, o.o_orderdate,
         CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                  * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)))
           AS BIGINT) AS revenue_e4
  FROM lineitem l JOIN o ON o.o_orderkey = l.l_orderkey
  WHERE l.l_shipdate > TIMESTAMP '{cutoff}'
  GROUP BY l.l_orderkey, o.o_orderdate
)
SELECT l_orderkey, revenue_e4, o_orderdate
FROM rev
ORDER BY revenue_e4 DESC, o_orderdate ASC, l_orderkey ASC
LIMIT {k}"""


def region_supplier_volume_sql(region: str = "ASIA",
                               year: int = 1997) -> str:
    """TPC-H Q5-shape oracle (ops/olap.py region_supplier_volume):
    same-nation customer/supplier revenue per nation in ``region`` for
    orders placed in ``year``, integer-cents staging."""
    return f"""SELECT n.n_name,
       CAST(sum(CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                * (100 - CAST(floor(l.l_discount * 100 + 0.5) AS BIGINT)))
         AS BIGINT) AS revenue_e4
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
  AND o.o_orderdate >= TIMESTAMP '{year}-01-01'
  AND o.o_orderdate < TIMESTAMP '{year + 1}-01-01'
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
  AND s.s_nationkey = c.c_nationkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
  AND r.r_name = '{region}'
GROUP BY n.n_name
ORDER BY revenue_e4 DESC, n.n_name ASC"""


def segment_order_stats_sql() -> str:
    """Segment order-stats oracle (ops/olap.py segment_order_stats):
    exact lower-rank median/p90 via the cross-multiplied cumulative rule
    over integer cents."""
    return """WITH o AS (
  SELECT c.c_mktsegment AS seg,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders JOIN customer c ON c.c_custkey = orders.o_custkey
),
h AS (
  SELECT seg, cents, count(*) AS cnt FROM o GROUP BY seg, cents
),
c AS (
  SELECT seg, cents,
         sum(cnt) OVER (PARTITION BY seg ORDER BY cents) AS cum,
         sum(cnt) OVER (PARTITION BY seg) AS n
  FROM h
)
SELECT seg AS c_mktsegment,
       CAST(max(n) AS BIGINT) AS n_orders,
       CAST(min(cents) FILTER (WHERE cum * 2 >= n) AS BIGINT)
         AS median_cents,
       CAST(min(cents) FILTER (WHERE cum * 10 >= 9 * n) AS BIGINT)
         AS p90_cents
FROM c GROUP BY seg ORDER BY seg"""


def cold_parts_sql(k: int = 20) -> str:
    """Cold-parts oracle (ops/olap.py cold_parts): per-part lineitem
    reference counts (0 for never-referenced), bottom-k by
    (n_refs asc, p_partkey asc)."""
    return f"""SELECT p.p_partkey, p.p_brand,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n_refs
FROM part p LEFT JOIN (
  SELECT l_partkey, count(*) AS n FROM lineitem GROUP BY l_partkey) c
ON c.l_partkey = p.p_partkey
ORDER BY n_refs ASC, p.p_partkey ASC LIMIT {k}"""


def order_count_distribution_sql() -> str:
    """Q13-shape oracle (ops/olap.py order_count_distribution):
    count-of-counts histogram including the zero-order customers."""
    return """WITH per AS (
  SELECT c.c_custkey, CAST(count(o.o_orderkey) AS BIGINT) AS n_orders
  FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
  GROUP BY c.c_custkey
)
SELECT n_orders, CAST(count(*) AS BIGINT) AS n_customers
FROM per GROUP BY n_orders ORDER BY n_orders"""


def top_priority_per_segment_sql() -> str:
    """Per-segment modal priority oracle (ops/olap.py
    top_priority_per_segment): (count desc, priority asc) argmax."""
    return """WITH a AS (
  SELECT c.c_mktsegment, o.o_orderpriority,
         CAST(count(*) AS BIGINT) AS n_orders
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
  GROUP BY c.c_mktsegment, o.o_orderpriority
),
r AS (
  SELECT *, row_number() OVER (
    PARTITION BY c_mktsegment
    ORDER BY n_orders DESC, o_orderpriority ASC) AS rn
  FROM a
)
SELECT c_mktsegment, o_orderpriority, n_orders
FROM r WHERE rn = 1 ORDER BY c_mktsegment"""


def significant_terms_sql(focus_term: str, k: int = 20,
                          min_fg_df: int = 3) -> str:
    """Significant-terms oracle (ops/collocations.py significant_terms):
    per-doc distinct stop-filtered terms; lift = (fg_df * N_total * 10^9)
    // (df * N_fg) in HUGEINT; focus term excluded."""
    ft = focus_term.replace("'", "''")
    return f"""WITH {_toks_cte()},
dt AS (SELECT DISTINCT doc_id, term FROM kept),
fg AS (SELECT DISTINCT doc_id FROM dt WHERE term = '{ft}'),
tot AS (
  SELECT (SELECT CAST(count(*) AS HUGEINT) FROM documents) AS n_tot,
         (SELECT CAST(count(*) AS HUGEINT) FROM fg) AS n_fg
),
st AS (
  SELECT dt.term,
         CAST(count(*) FILTER (WHERE dt.doc_id IN
              (SELECT doc_id FROM fg)) AS BIGINT) AS fg_df,
         CAST(count(*) AS BIGINT) AS df
  FROM dt GROUP BY dt.term
),
scored AS (
  SELECT term, fg_df, df,
         CAST((CAST(fg_df AS HUGEINT) * tot.n_tot * 1000000000)
              // (CAST(df AS HUGEINT) * tot.n_fg) AS BIGINT) AS score
  FROM st CROSS JOIN tot
  WHERE fg_df >= {min_fg_df} AND term <> '{ft}'
)
SELECT CAST(row_number() OVER (ORDER BY score DESC, term ASC) AS BIGINT)
         AS rank,
       term, fg_df, df, score
FROM scored ORDER BY score DESC, term ASC LIMIT {k}"""


def context_spell_sql(k: int = 50) -> str:
    """Context-spell oracle (ops/symspell.py context_spell_correct;
    Kernighan-Church-Gale noisy channel): re-derives the injected typos
    (the augment_typos md5 rule), the SymSpell deletion-key candidate
    join with exact distance-1 verification, the clean-corpus left-
    bigram/unigram LM, and the (bigram desc, unigram desc, cand asc)
    argmax."""
    g = _MD5_INT31.format(s="'typo:' || CAST(doc_id AS VARCHAR)")
    gp = _MD5_INT31.format(s="'typopos:' || CAST(doc_id AS VARCHAR)")
    return f"""WITH typos AS (
  SELECT doc_id,
         substr(w, 1, p) || substr(w, p + 2) AS typo
  FROM (
    SELECT doc_id, string_split(text, ' ')[4] AS w,
           ({gp}) % len(string_split(text, ' ')[4]) AS p
    FROM documents
    WHERE ({g}) % 10 = 0
      AND len(string_split(text, ' ')) >= 4
      AND len(string_split(text, ' ')[4]) >= 3)
),
rawtok AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
ftok AS (
  SELECT doc_id, w,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS p
  FROM rawtok WHERE w <> ''
),
lasts AS (
  SELECT doc_id, w AS left_word
  FROM (SELECT doc_id, w,
               row_number() OVER (PARTITION BY doc_id
                                  ORDER BY p DESC) AS rn
        FROM ftok)
  WHERE rn = 1
),
vocab AS (
  SELECT w AS term, CAST(count(*) AS BIGINT) AS c FROM ftok GROUP BY w
),
bi AS (
  SELECT x.w AS a, y.w AS b, CAST(count(*) AS BIGINT) AS c
  FROM ftok x JOIN ftok y ON x.doc_id = y.doc_id AND y.p = x.p + 1
  GROUP BY x.w, y.w
),
vkeys AS (
  SELECT term, term AS v FROM vocab
  UNION ALL
  SELECT term, substr(term, 1, i - 1) || substr(term, i + 1) AS v
  FROM vocab, LATERAL (SELECT unnest(range(1, len(term) + 1)) AS i) r
),
tkeys AS (
  SELECT doc_id, typo, typo AS v FROM typos
  UNION ALL
  SELECT doc_id, typo,
         substr(typo, 1, i - 1) || substr(typo, i + 1) AS v
  FROM typos, LATERAL (SELECT unnest(range(1, len(typo) + 1)) AS i) r
),
cand AS (
  SELECT DISTINCT t.doc_id, t.typo, kk.term
  FROM tkeys t JOIN vkeys kk ON kk.v = t.v
  WHERE kk.term <> t.typo
),
ver AS (
  SELECT doc_id, typo, term FROM cand
  WHERE (len(term) = len(typo) AND 1 = (
          SELECT count(*)
          FROM (SELECT unnest(range(1, len(term) + 1)) AS i) p
          WHERE substr(term, i, 1) <> substr(typo, i, 1)))
     OR (len(term) = len(typo) + 1 AND EXISTS (
          SELECT 1 FROM (SELECT unnest(range(1, len(term) + 1)) AS i) p
          WHERE substr(term, 1, i - 1) || substr(term, i + 1) = typo))
     OR (len(typo) = len(term) + 1 AND EXISTS (
          SELECT 1 FROM (SELECT unnest(range(1, len(typo) + 1)) AS i) p
          WHERE substr(typo, 1, i - 1) || substr(typo, i + 1) = term))
),
scored AS (
  SELECT v.doc_id, v.typo, l.left_word, v.term,
         COALESCE(b.c, 0) AS bn, COALESCE(u.c, 0) AS un
  FROM ver v
  JOIN lasts l ON l.doc_id = v.doc_id
  LEFT JOIN bi b ON b.a = l.left_word AND b.b = v.term
  LEFT JOIN vocab u ON u.term = v.term
),
pick AS (
  SELECT * FROM (
    SELECT doc_id, typo, left_word, term, bn,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY bn DESC, un DESC, term ASC) AS rn
    FROM scored)
  WHERE rn = 1
)
SELECT doc_id, typo, left_word, term AS chosen,
       CAST(bn AS BIGINT) AS bigram_n
FROM pick ORDER BY doc_id LIMIT {k}"""


def rate_anomalies_sql() -> str:
    """Rate-anomaly oracle (ops/cohort.py rate_anomalies): the
    cross-multiplied integer 3-sigma rule over hourly counts."""
    return """WITH h AS (
  SELECT date_trunc('hour', ts) AS hour_ts,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY date_trunc('hour', ts)
),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS H,
         CAST(sum(n) AS HUGEINT) AS T,
         CAST(sum(CAST(n AS HUGEINT) * n) AS HUGEINT) AS SS
  FROM h
)
SELECT hour_ts, n AS n_events,
       CAST(CASE WHEN CAST(n AS HUGEINT) * s.H > s.T
                 THEN 1 ELSE 0 END AS BIGINT) AS is_high
FROM h CROSS JOIN s
WHERE (CAST(n AS HUGEINT) * s.H - s.T)
      * (CAST(n AS HUGEINT) * s.H - s.T) > 9 * (s.H * s.SS - s.T * s.T)
ORDER BY hour_ts"""


def daily_distinct_users_sql() -> str:
    """Daily-distinct-users oracle (ops/cohort.py daily_distinct_users)."""
    return """SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day_ts,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY date_trunc('day', ts) ORDER BY day_ts"""


def dedup_eval_sql(sample_mod: int = 20, k: int = 3) -> str:
    """Dedup-quality oracle (ops/neardup.py dedup_eval): exact sampled
    truth (shingle-Jaccard >= 1/2, cross-multiplied) on the stratified
    sample (md5 random stratum UNION 'dup'-marked known positives) vs
    the full LSH candidate run restricted to it; single
    confusion/metric row."""
    rule = _MD5_INT31.format(s="'ndsample-'||CAST(doc_id AS VARCHAR)")
    cand = minhash_candidates_sql()
    return f"""WITH {_shingles_cte(k)},
sample AS MATERIALIZED (
  SELECT doc_id FROM documents WHERE ({rule}) % {sample_mod} = 0
  UNION
  SELECT DISTINCT doc_id FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w = 'dup'
),
ssh AS (SELECT sh.doc_id, sh.gram FROM sh JOIN sample USING (doc_id)),
sizes AS (SELECT doc_id, count(*) AS n FROM ssh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
  FROM ssh a JOIN ssh b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
),
truth AS MATERIALIZED (
  SELECT i.doc_a, i.doc_b FROM inter i
  JOIN sizes sa ON sa.doc_id = i.doc_a
  JOIN sizes sb ON sb.doc_id = i.doc_b
  WHERE 2 * i.i >= sa.n + sb.n - i.i
),
cand0 AS MATERIALIZED ({cand}),
cand AS MATERIALIZED (
  SELECT DISTINCT least(doc_a, doc_b) AS doc_a,
         greatest(doc_a, doc_b) AS doc_b
  FROM cand0
  WHERE doc_a IN (SELECT doc_id FROM sample)
    AND doc_b IN (SELECT doc_id FROM sample)
),
m AS (
  SELECT
    (SELECT CAST(count(*) AS BIGINT) FROM sample) AS n_sample,
    (SELECT CAST(count(*) AS BIGINT) FROM truth) AS n_truth,
    (SELECT CAST(count(*) AS BIGINT) FROM cand) AS n_cand,
    (SELECT CAST(count(*) AS BIGINT) FROM truth t
      WHERE EXISTS (SELECT 1 FROM cand c
                    WHERE c.doc_a = t.doc_a AND c.doc_b = t.doc_b)) AS tp
)
SELECT n_sample, n_truth, n_cand, tp,
       n_cand - tp AS fp, n_truth - tp AS fn,
       CAST(CASE WHEN n_cand = 0 THEN 0
            ELSE (CAST(tp AS HUGEINT) * 1000000000) // n_cand END
         AS BIGINT) AS precision_fp,
       CAST(CASE WHEN n_truth = 0 THEN 0
            ELSE (CAST(tp AS HUGEINT) * 1000000000) // n_truth END
         AS BIGINT) AS recall_fp
FROM m"""


def reciprocity_sql() -> str:
    """Reciprocity oracle (ops/linkpredict.py reciprocity): distinct
    directed edges folded on the normalized pair key; coefficient =
    (2*pairs*10^9) // n_directed."""
    md5 = _MD5_INT31.format(
        s="'link:'||CAST(u AS VARCHAR)||':'||CAST(j AS VARCHAR)")
    return f"""WITH c AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT doc_id AS u FROM documents),
dir_edges AS (
  SELECT u, CASE WHEN t = u THEN (t + 1) % c.n ELSE t END AS v
  FROM (
    SELECT u, j, {md5} AS h
    FROM nodes, LATERAL (SELECT unnest(range(3)) AS j) r
    WHERE j < 1 + (u % 3)) e
  CROSS JOIN c, LATERAL (SELECT e.h % c.n AS t) tt
),
d AS (SELECT DISTINCT u, v FROM dir_edges),
p AS (
  SELECT least(u, v) AS a, greatest(u, v) AS b,
         max(CASE WHEN u < v THEN 1 ELSE 0 END) AS f,
         max(CASE WHEN u > v THEN 1 ELSE 0 END) AS w
  FROM d GROUP BY least(u, v), greatest(u, v)
)
SELECT CAST(sum(f + w) AS BIGINT) AS n_directed,
       CAST(sum(f * w) AS BIGINT) AS n_reciprocal_pairs,
       CAST(CASE WHEN sum(f + w) = 0 THEN 0
            ELSE (2 * CAST(sum(f * w) AS HUGEINT) * 1000000000)
                 // sum(f + w) END AS BIGINT) AS reciprocity_fp
FROM p"""


def ltr_features_sql(queries: list[tuple[str, list[str]]],
                     k: int = 10) -> str:
    """LTR feature-dump oracle (ops/ltr.py ltr_features): per query the
    full float32-exact BM25 top-k joined with tf pivots, global df, and
    kept-token doc length."""
    blocks = []
    for qid, terms in queries:
        t0 = terms[0].replace("'", "''")
        t1 = terms[1].replace("'", "''")
        ranked = bm25_topk_sql(terms, k).replace("\n", "\n  ")
        blocks.append(f"""SELECT '{qid}' AS query_id, r.rank, r.doc_id, r.score,
       CAST(COALESCE(tf0.c, 0) AS BIGINT) AS tf_0,
       CAST(COALESCE(tf1.c, 0) AS BIGINT) AS tf_1,
       CAST((SELECT count(DISTINCT doc_id) FROM kept
             WHERE term = '{t0}') AS BIGINT) AS df_0,
       CAST((SELECT count(DISTINCT doc_id) FROM kept
             WHERE term = '{t1}') AS BIGINT) AS df_1,
       CAST(dl.L AS BIGINT) AS doc_len
FROM ({ranked}) r
LEFT JOIN (SELECT doc_id, count(*) AS c FROM kept
           WHERE term = '{t0}' GROUP BY doc_id) tf0 ON tf0.doc_id = r.doc_id
LEFT JOIN (SELECT doc_id, count(*) AS c FROM kept
           WHERE term = '{t1}' GROUP BY doc_id) tf1 ON tf1.doc_id = r.doc_id
JOIN doclen dl ON dl.doc_id = r.doc_id""")
    union = "\nUNION ALL\n".join(blocks)
    return f"""WITH {_toks_cte()}
SELECT * FROM (
{union}
) ORDER BY query_id, rank"""


def boilerplate_prefixes_sql(k: int = 20, n: int = 3) -> str:
    """Boilerplate-prefix oracle (ops/collocations.py
    boilerplate_prefixes): first-n-raw-token document prefixes by count."""
    return f"""WITH p AS (
  SELECT array_to_string(
           list_slice(string_split(text, ' '), 1, {n}), ' ') AS prefix
  FROM documents
  WHERE len(string_split(text, ' ')) >= {n}
),
agg AS (
  SELECT prefix, CAST(count(*) AS BIGINT) AS n_docs
  FROM p GROUP BY prefix
)
SELECT CAST(row_number() OVER (ORDER BY n_docs DESC, prefix ASC)
            AS BIGINT) AS rank,
       prefix, n_docs
FROM agg ORDER BY n_docs DESC, prefix ASC LIMIT {k}"""


def skyline_sql() -> str:
    """Skyline oracle (ops/skyline.py skyline_docs; Börzsönyi et al.
    ICDE 2001): docs not dominated on (n_tokens min, n_distinct max),
    dominance strict in at least one dimension."""
    return """WITH m AS (
  SELECT doc_id,
         CAST(len(list_filter(string_split(text, ' '),
                              x -> x <> '')) AS BIGINT) AS n_tokens,
         CAST(len(list_distinct(list_filter(string_split(text, ' '),
                                x -> x <> ''))) AS BIGINT) AS n_distinct
  FROM documents
  WHERE len(list_filter(string_split(text, ' '), x -> x <> '')) > 0
)
SELECT doc_id, n_tokens, n_distinct FROM m a
WHERE NOT EXISTS (
  SELECT 1 FROM m b
  WHERE b.n_tokens <= a.n_tokens AND b.n_distinct >= a.n_distinct
    AND (b.n_tokens < a.n_tokens OR b.n_distinct > a.n_distinct)
)
ORDER BY doc_id"""


def attribution_join_sql(convert_type: str = "purchase",
                         touch_type: str = "click",
                         window_us: int = 3_600_000_000,
                         k: int = 50) -> str:
    """Last-touch attribution oracle (ops/temporal_join.py
    attribution_join): per conversion the user's latest touch at or
    before it within the window."""
    return f"""WITH conv AS (
  SELECT user_id, epoch_us(ts) AS ct FROM events
  WHERE event_type = '{convert_type}'
),
touch AS (
  SELECT user_id, epoch_us(ts) AS tt FROM events
  WHERE event_type = '{touch_type}'
),
att AS (
  SELECT c.user_id, c.ct,
         (SELECT max(t.tt) FROM touch t
          WHERE t.user_id = c.user_id AND t.tt <= c.ct) AS tt
  FROM conv c
)
SELECT user_id,
       make_timestamp(ct) AS convert_ts,
       make_timestamp(tt) AS touch_ts,
       CAST(ct - tt AS BIGINT) AS lag_us
FROM att
WHERE tt IS NOT NULL AND ct - tt <= {window_us}
ORDER BY user_id, convert_ts LIMIT {k}"""


def clustering_coefficient_sql() -> str:
    """Global-transitivity oracle (ops/linkpredict.py
    clustering_coefficient): triangles via the x<y<z three-way join,
    wedges = sum C(deg, 2) over und degrees, cc = (3T*10^9) // W."""
    return f"""WITH {_und_graph_ctes()},
deg AS (SELECT x, CAST(count(*) AS BIGINT) AS d FROM bi GROUP BY x),
w AS (SELECT CAST(sum(d * (d - 1) // 2) AS BIGINT) AS wedges FROM deg),
tri AS (
  SELECT CAST(count(*) AS BIGINT) AS t FROM und e1
  JOIN und e2 ON e2.a = e1.b
  JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
)
SELECT w.wedges AS n_wedges, tri.t AS n_triangles,
       CAST(CASE WHEN w.wedges = 0 THEN 0
            ELSE (3 * CAST(tri.t AS HUGEINT) * 1000000000)
                 // w.wedges END AS BIGINT) AS global_cc_fp
FROM w CROSS JOIN tri"""


def assortativity_stats_sql() -> str:
    """Assortativity sufficient-stats oracle (ops/linkpredict.py
    assortativity_stats): x = deg(u), y = deg(v) over both orientations
    of every und edge; exact integer sums, division left to the
    consumer."""
    return f"""WITH {_und_graph_ctes()},
deg AS (SELECT x, CAST(count(*) AS BIGINT) AS d FROM bi GROUP BY x),
pairs AS (
  SELECT da.d AS x, db.d AS y
  FROM bi JOIN deg da ON da.x = bi.x JOIN deg db ON db.x = bi.y
)
SELECT CAST(count(*) AS BIGINT) AS m,
       CAST(sum(x) AS BIGINT) AS sum_x,
       CAST(sum(x * y) AS BIGINT) AS sum_xy,
       CAST(sum(x * x) AS BIGINT) AS sum_x2
FROM pairs"""


def host_stats_sql(k: int = 20) -> str:
    """Host-stats oracle (ops/crawlstats.py host_stats): hosts
    re-derived from the synthesizer formula
    url = https://example{doc_id % 97}.com/p/{doc_id} — the engine must
    recover them by parsing the URL strings."""
    return f"""WITH h AS (
  SELECT 'example' || CAST(doc_id % 97 AS VARCHAR) || '.com' AS host
  FROM documents
),
agg AS (
  SELECT host, CAST(count(*) AS BIGINT) AS n_pages FROM h GROUP BY host
)
SELECT CAST(row_number() OVER (ORDER BY n_pages DESC, host ASC)
            AS BIGINT) AS rank,
       host, n_pages
FROM agg ORDER BY n_pages DESC, host ASC LIMIT {k}"""


def rollup_cube_sql() -> str:
    """Cube oracle (ops/olap.py rollup_cube): GROUPING SETS at all four
    levels with '*' sentinels for absent dimensions."""
    return """SELECT
  CAST(CASE WHEN lang IS NULL AND source IS NULL THEN 0
       WHEN lang IS NULL OR source IS NULL THEN 1
       ELSE 2 END AS BIGINT) AS level,
  COALESCE(lang, '*') AS lang,
  COALESCE(source, '*') AS source,
  CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY GROUPING SETS ((lang, source), (lang), (source), ())
ORDER BY level, lang, source"""


def simpson_index_sql() -> str:
    """Simpson-index oracle (ops/collocations.py simpson_index):
    per-source Σc² and N over raw non-empty tokens; fixed point via
    HUGEINT."""
    return """WITH tok AS (
  SELECT source, unnest(string_split(text, ' ')) AS w FROM documents
),
c AS (
  SELECT source, w, CAST(count(*) AS BIGINT) AS cnt
  FROM tok WHERE w <> '' GROUP BY source, w
),
s AS (
  SELECT source,
         CAST(sum(cnt) AS BIGINT) AS n_tokens,
         CAST(sum(CAST(cnt AS HUGEINT) * cnt) AS BIGINT) AS sum_sq
  FROM c GROUP BY source
)
SELECT source, n_tokens, sum_sq,
       CAST((CAST(sum_sq AS HUGEINT) * 1000000000)
            // (CAST(n_tokens AS HUGEINT) * n_tokens) AS BIGINT)
         AS simpson_fp
FROM s ORDER BY source"""


def host_gini_sql() -> str:
    """Host-Gini oracle (ops/crawlstats.py host_gini): ascending host
    sizes ranked by row_number; exact integer Gini fixed point."""
    return """WITH h AS (
  SELECT 'example' || CAST(doc_id % 97 AS VARCHAR) || '.com' AS host
  FROM documents
),
c AS (SELECT host, CAST(count(*) AS BIGINT) AS cnt FROM h GROUP BY host),
r AS (
  SELECT cnt,
         row_number() OVER (ORDER BY cnt ASC, host ASC) AS i
  FROM c
),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(cnt) AS HUGEINT) AS T,
         CAST(sum(CAST(i AS HUGEINT) * cnt) AS HUGEINT) AS wsum
  FROM r
)
SELECT CAST(n AS BIGINT) AS n_hosts, CAST(T AS BIGINT) AS n_pages,
       CAST(((2 * wsum - (n + 1) * T) * 1000000000) // (n * T)
            AS BIGINT) AS gini_fp
FROM s"""


# ---------------------------------------------------------------------------
# Basque / Catalan / Irish Snowball oracles (analysis/snowball_ext.py):
# the suffix tables are imported from the engine module (single source of
# truth) and compiled into grouped longest-first SQL CASE chains with
# among semantics — the LONGEST match is committed before its region
# check, and a failed check does NOT fall through to shorter suffixes.


def _sql_q(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _p12_ctes(vowels: str, src: str = "terms", extra: str = "") -> str:
    """marked CTE computing p1/p2 (positions after the first/second
    vowel→non-vowel boundary; len(w) if absent). `extra` = passthrough
    columns (e.g. ', pv')."""
    return f"""marked AS (
  SELECT w, df{extra}, p1,
         p1 + CASE WHEN m2 = '' THEN len(w) - p1 ELSE len(m2) END AS p2
  FROM (
    SELECT w, df{extra}, p1,
           regexp_extract(substr(w, p1 + 1),
                          '^(.*?[{vowels}][^{vowels}])') AS m2
    FROM (
      SELECT w, df{extra},
             CASE WHEN m = '' THEN len(w) ELSE len(m) END AS p1
      FROM (SELECT w, df{extra},
                   regexp_extract(w, '^(.*?[{vowels}][^{vowels}])') AS m
            FROM {src})
    )
  )
)"""


def _suffix_case(table, actions: dict, col: str = "w") -> str:
    """Among-semantics CASE over (suffix, case) rows: grouped by
    (len desc, case), each WHEN commits the longest match and applies its
    region-gated action without fall-through to shorter suffixes.

    actions: case -> (region_col | None, replacement) where region_col is
    'p1'/'p2'/'pv' (condition: len(w)-k >= region) and replacement '' is
    delete; None region means unconditional respell."""
    from collections import defaultdict

    groups: dict[tuple[int, int], list[str]] = defaultdict(list)
    for suf, case in table:
        groups[(len(suf), case)].append(suf)
    branches = []
    for (k, case) in sorted(groups, key=lambda t: (-t[0], t[1])):
        sufs = ", ".join(_sql_q(s) for s in sorted(groups[(k, case)]))
        region, repl = actions[case]
        act = (f"substr({col}, 1, len({col}) - {k})"
               if repl == "" else
               f"substr({col}, 1, len({col}) - {k}) || {_sql_q(repl)}")
        if region is None:
            then = act
        else:
            then = (f"CASE WHEN len({col}) - {k} >= {region} "
                    f"THEN {act} ELSE {col} END")
        branches.append(f" WHEN right({col}, {k}) IN ({sufs}) THEN {then}")
    return "CASE\n" + "\n".join(branches) + f"\n ELSE {col} END"


def _prefix_case(table, act_map: dict, col: str = "w") -> str:
    """Longest-first PREFIX among (Irish initial_morph): grouped by
    (len desc, replacement)."""
    from collections import defaultdict

    groups: dict[tuple[int, str], list[str]] = defaultdict(list)
    for pre, case in table:
        groups[(len(pre), act_map[case])].append(pre)
    branches = []
    for (k, repl) in sorted(groups, key=lambda t: (-t[0], t[1])):
        pres = ", ".join(_sql_q(p) for p in sorted(groups[(k, repl)]))
        rep = (f"{_sql_q(repl)} || substr({col}, {k + 1})" if repl
               else f"substr({col}, {k + 1})")
        branches.append(f" WHEN substr({col}, 1, {k}) IN ({pres}) "
                        f"THEN {rep}")
    return "CASE\n" + "\n".join(branches) + f"\n ELSE {col} END"


def catalan_stem_stats_sql(n: int = 20) -> str:
    """Catalan Snowball oracle (CatalanStemmer.cs; snowball_ext
    catalan_stem): R1/R2 via regexp boundaries, attached-pronoun strip,
    standard-suffix (log/ic/c respellings) OR verb-suffix, residual
    strip, diacritic cleaning."""
    from lucenenet_ray.analysis.snowball_ext import (_CA_A_1, _CA_A_2,
                                                     _CA_A_3, _CA_A_4)

    V = "aeiouàáèéìíïòóúü"
    pron = _suffix_case(_CA_A_1, {1: ("p1", "")})
    std = _suffix_case(_CA_A_2, {1: ("p1", ""), 2: ("p2", ""),
                                 3: ("p2", "log"), 4: ("p2", "ic"),
                                 5: ("p1", "c")})
    verb = _suffix_case(_CA_A_3, {1: ("p1", ""), 2: ("p2", "")})
    resid = _suffix_case(_CA_A_4, {1: ("p1", ""), 2: ("p1", "ic")})
    return f"""WITH {_toks_cte()},
terms AS (
  SELECT term AS w, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
),
{_p12_ctes(V)},
s1 AS (SELECT {pron} AS w, p1, p2, df FROM marked),
s2 AS (SELECT CASE WHEN ({std}) <> w THEN ({std})
              ELSE ({verb}) END AS w, p1, p2, df FROM s1),
s3 AS (SELECT {resid} AS w, p1, p2, df FROM s2),
s4 AS (SELECT translate(w, 'àáèéìíïòóúü·', 'aaeeiiioouu.') AS code, df
       FROM s3)
SELECT code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM s4 GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def irish_stem_stats_sql(n: int = 20) -> str:
    """Irish Snowball oracle (IrishStemmer.cs; snowball_ext irish_stem):
    longest-prefix initial de-mutation, then pV/R1/R2 on the de-mutated
    word and the three backward steps (noun R1/R2, deriv R2+respell,
    verb RV/R1)."""
    from lucenenet_ray.analysis.snowball_ext import (_GA_A_0, _GA_A_1,
                                                     _GA_A_2, _GA_A_3,
                                                     _GA_PRE_ACT)

    V = "aeiouáéíóú"
    pre_case = _prefix_case(_GA_A_0, _GA_PRE_ACT, col="w0")
    noun = _suffix_case(_GA_A_1, {1: ("p1", ""), 2: ("p2", "")})
    deriv = _suffix_case(_GA_A_2, {1: ("p2", ""), 2: (None, "arc"),
                                   3: (None, "gin"), 4: (None, "graf"),
                                   5: (None, "paite"), 6: (None, "óid")})
    verb = _suffix_case(_GA_A_3, {1: ("pv", ""), 2: ("p1", "")})
    return f"""WITH {_toks_cte()},
terms0 AS (
  SELECT term AS w0, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM kept GROUP BY term
),
demut AS (SELECT ({pre_case}) AS w, df FROM terms0),
pvm AS (
  SELECT w, df,
         CASE WHEN mv = '' THEN len(w) ELSE len(mv) END AS pv
  FROM (SELECT w, df, regexp_extract(w, '^([^{V}]*[{V}])') AS mv
        FROM demut)
),
{_p12_ctes(V, src="pvm", extra=", pv")},
s1 AS (SELECT {noun} AS w, pv, p1, p2, df FROM marked),
s2 AS (SELECT {deriv} AS w, pv, p1, p2, df FROM s1),
s3 AS (SELECT {verb} AS code, df FROM s2)
SELECT code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM s3 GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def _spliced_terms_cte(words, salt: str) -> str:
    """terms(w, df) over the documents corpus spliced with a
    deterministic language vocabulary — mirrors
    __ray_entry__._spliced_stem_stats (md5-gated per doc, same
    formulas), so stemmer-family gates exercise paths the English
    webtext never reaches."""
    wlist = "[" + ", ".join(_sql_q(w) for w in words) + "]"
    k = len(words)
    h = _MD5_INT31.format(s="CAST(doc_id AS VARCHAR)||':" + salt + "'")
    # the stop filter applies to the BASE-corpus arm ONLY — the engine
    # twin (_spliced_stem_stats) adds splice words AFTER stop filtering,
    # so a splice word colliding with an English stop word must still
    # count (latent-divergence guard, r5 review finding)
    return f"""terms AS (
  SELECT term AS w, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM (
    SELECT doc_id, term FROM (
      SELECT doc_id, unnest(string_split(text, ' ')) AS term
      FROM documents
    ) WHERE term <> '' AND term NOT IN {STOP_SQL}
    UNION ALL
    SELECT doc_id, ({wlist})[1 + ({h}) % {k}] AS term
    FROM documents WHERE ({h}) % 3 = 0
    UNION ALL
    SELECT doc_id, ({wlist})[1 + (({h}) // 7) % {k}] AS term
    FROM documents WHERE ({h}) % 5 = 0
  )
  GROUP BY term
)"""


def _eu_phase(idx: str, src: str, table, actions: dict) -> str:
    """One unrolled Basque among step (snowball_ext._eu_step) as SQL CTEs:
    hit = k*100+case of the longest suffix ending at cursor c; allowed =
    its region gate; on success the slice is applied and the cursor moves
    to bra (a respelling's text is left of the new cursor, so it can never
    re-match — the SnowballProgram slice contract)."""
    from collections import defaultdict

    groups: dict[tuple[int, int], list[str]] = defaultdict(list)
    for suf, case in table:
        groups[(len(suf), case)].append(suf)
    hit_branches = []
    for (k, case) in sorted(groups, key=lambda t: (-t[0], t[1])):
        sufs = ", ".join(_sql_q(s) for s in sorted(groups[(k, case)]))
        hit_branches.append(
            f" WHEN c >= {k} AND substr(w, c - {k} + 1, {k}) IN ({sufs}) "
            f"THEN {k * 100 + case}")
    hit_case = "CASE\n" + "\n".join(hit_branches) + "\n ELSE 0 END"
    allowed_branches = []
    repl_branches = []
    for case, (region, repl) in sorted(actions.items()):
        if region is None:
            allowed_branches.append(f" WHEN hit % 100 = {case} THEN TRUE")
        else:
            allowed_branches.append(
                f" WHEN hit % 100 = {case} THEN (c - hit // 100) >= {region}")
        repl_branches.append(f" WHEN hit % 100 = {case} "
                             f"THEN {_sql_q(repl)}")
    allowed_case = ("CASE WHEN hit = 0 THEN FALSE\n"
                    + "\n".join(allowed_branches) + "\n ELSE FALSE END")
    repl_case = "CASE\n" + "\n".join(repl_branches) + "\n ELSE '' END"
    return f"""t{idx} AS (SELECT *, {hit_case} AS hit FROM {src}),
u{idx} AS (SELECT *, {allowed_case} AS allowed FROM t{idx}),
s{idx} AS (SELECT
    CASE WHEN ok AND allowed
         THEN substr(w, 1, c - hit // 100) || ({repl_case})
              || substr(w, c + 1)
         ELSE w END AS w,
    CASE WHEN ok AND allowed THEN c - hit // 100 ELSE c END AS c,
    (ok AND allowed) AS ok, pv, p1, p2, df
  FROM u{idx})"""


_EU_UNROLL = 3


def basque_stem_stats_sql(n: int = 20) -> str:
    """Basque Snowball oracle (BasqueStemmer.cs; snowball_ext
    basque_stem): Romance RV + R1/R2, then the aditzak and izenak REPEAT
    loops unrolled {U}× each with explicit cursor tracking (splice
    vocabulary needs ≤2 successful strips per loop — measured; a deeper
    word would surface as a gate hash mismatch), an ok-reset, and one
    adjetiboak step. The corpus is spliced with EU_SPLICE_WORDS
    (md5-gated per doc, mirroring _q_eu_stem_stats) so the repeat depth
    and the adjetiboak-after-failed-izenak reset actually fire."""
    from lucenenet_ray.analysis.snowball_ext import (_EU_A_0, _EU_A_1,
                                                     _EU_A_2,
                                                     _EU_ADITZAK_ACT,
                                                     _EU_ADJ_ACT,
                                                     _EU_IZENAK_ACT,
                                                     EU_SPLICE_WORDS)

    V = "aeiou"
    VIN = ", ".join(f"'{ch}'" for ch in V)

    def first_pos(expr: str, cls: str) -> str:
        return (f"CASE WHEN regexp_extract({expr}, '^(.*?[{cls}])') = '' "
                f"THEN len({expr}) "
                f"ELSE len(regexp_extract({expr}, '^(.*?[{cls}])')) END")

    rv = f"""CASE WHEN len(w) < 3 THEN len(w)
 WHEN substr(w,1,1) IN ({VIN}) AND substr(w,2,1) IN ({VIN})
      THEN 2 + {first_pos("substr(w,3)", "^" + V)}
 WHEN substr(w,1,1) IN ({VIN})
      THEN 2 + {first_pos("substr(w,3)", V)}
 WHEN substr(w,2,1) IN ({VIN}) THEN 3
 ELSE 2 + {first_pos("substr(w,3)", V)} END"""

    def norm_acts(acts):
        return {case: ({"RV": "pv", "R1": "p1", "R2": "p2"}.get(reg), rep)
                for case, (reg, rep) in acts.items()}

    phases = []
    src = "s0"
    for i in range(_EU_UNROLL):
        phases.append(_eu_phase(f"a{i}", src, _EU_A_0,
                                norm_acts(_EU_ADITZAK_ACT)))
        src = f"sa{i}"
    phases.append(
        f"r0 AS (SELECT w, c, TRUE AS ok, pv, p1, p2, df FROM {src})")
    src = "r0"
    for i in range(_EU_UNROLL):
        phases.append(_eu_phase(f"i{i}", src, _EU_A_1,
                                norm_acts(_EU_IZENAK_ACT)))
        src = f"si{i}"
    # The izenak repeat ALWAYS terminates with a failed step (ok=FALSE),
    # but the reference runs `do r_adjetiboak` unconditionally afterwards
    # (BasqueStemmer.cs Stem():1040-1054) — reset ok (cursor c persists),
    # exactly as r0 does between the aditzak and izenak repeats.
    phases.append(
        f"r1 AS (SELECT w, c, TRUE AS ok, pv, p1, p2, df FROM {src})")
    src = "r1"
    phases.append(_eu_phase("j0", src, _EU_A_2, norm_acts(_EU_ADJ_ACT)))
    body = ",\n".join(phases)
    return f"""WITH {_spliced_terms_cte(EU_SPLICE_WORDS, "eu")},
rvm AS (SELECT w, df, {rv} AS pv FROM terms),
{_p12_ctes(V, src="rvm", extra=", pv")},
s0 AS (SELECT w, len(w) AS c, TRUE AS ok, pv, p1, p2, df FROM marked),
{body}
SELECT code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM (SELECT w AS code, df FROM sj0) GROUP BY code
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def _rslp_step_expr(w: str, step) -> str:
    """One RSLP step (analysis/rslp.py apply_step;
    RSLPStemmerBase.Step.Apply) as a single SQL expression over column
    ``w``: min-word and entry-suffix bypass gates, then a first-match
    CASE chain — each rule's arm checks min-stem, ends_with, and its
    exception list (whole-word NOT IN vs ends-with OR chain)."""
    arms = []
    for r in step.rules:
        k = len(r.suffix)
        cond = (f"len({w}) - {k} >= {r.min_stem} "
                f"AND ends_with({w}, {_sql_q(r.suffix)})")
        if r.exceptions:
            if step.whole_word_exceptions:
                ex = ", ".join(_sql_q(e) for e in r.exceptions)
                cond += f" AND {w} NOT IN ({ex})"
            else:
                ors = " OR ".join(f"ends_with({w}, {_sql_q(e)})"
                                  for e in r.exceptions)
                cond += f" AND NOT ({ors})"
        res = f"substr({w}, 1, len({w}) - {k}) || {_sql_q(r.replacement)}"
        arms.append(f" WHEN {cond} THEN {res}")
    gates = [f"WHEN len({w}) < {step.min_word} THEN {w}"]
    if step.entry_suffixes:
        ent = " OR ".join(f"ends_with({w}, {_sql_q(s)})"
                          for s in step.entry_suffixes)
        gates.append(f" WHEN NOT ({ent}) THEN {w}")
    return ("CASE " + "\n".join(gates) + "\n" + "\n".join(arms)
            + f"\n ELSE {w} END")


_RSLP_AUG_UNROLL = 4


def rslp_stem_stats_sql(lang: str, n: int = 60) -> str:
    """Galician / Portuguese RSLP oracle (analysis/rslp.py over
    rslp_gl/rslp_pt data; GalicianStemmer.cs:48-97 /
    PortugueseStemmer.cs:47-121): each step is a first-match CASE CTE;
    the Galician Augmentative fixpoint is unrolled {U}× with an active
    flag (corpus+vocabulary max is 3 iterations — measured; a deeper
    word would hash-mismatch loudly); the noun/verb(/vowel) arms gate on
    LENGTH equality exactly as the reference's `len == oldlen` checks;
    accent removal is a translate() against the same character maps."""
    if lang == "gl":
        from lucenenet_ray.analysis.rslp import GL_SPLICE_WORDS as WORDS
        from lucenenet_ray.analysis.rslp_gl import STEPS
        salt, accents = "gl", ("áéêíóú", "aeeiou")
    else:
        from lucenenet_ray.analysis.rslp import PT_SPLICE_WORDS as WORDS
        from lucenenet_ray.analysis.rslp_pt import STEPS
        salt = "ptr"
        accents = ("àáâãäåçèéêëìíîïñòóôõöùúûüýÿ",
                   "aaaaaaceeeeiiiinooooouuuuyy")
    ctes = [_spliced_terms_cte(WORDS, salt),
            "s0 AS (SELECT w, df FROM terms)"]
    if lang == "gl":
        order = ["Plural", "Unification", "Adverb"]
    else:
        order = ["Plural", "Adverb", "Feminine", "Augmentative"]
    src = "s0"
    for i, name in enumerate(order, 1):
        ctes.append(f"s{i} AS (SELECT "
                    f"{_rslp_step_expr('w', STEPS[name])} AS w, df "
                    f"FROM {src})")
        src = f"s{i}"
    if lang == "gl":
        # Augmentative to fixpoint: active while the length changes
        ctes.append(f"a0 AS (SELECT w, TRUE AS act, df FROM {src})")
        src = "a0"
        for i in range(1, _RSLP_AUG_UNROLL + 1):
            aug = _rslp_step_expr("w", STEPS["Augmentative"])
            ctes.append(f"t{i} AS (SELECT w, act, df, {aug} AS w2 "
                        f"FROM {src})")
            ctes.append(
                f"a{i} AS (SELECT CASE WHEN act THEN w2 ELSE w END AS w, "
                f"(act AND len(w2) <> len(w)) AS act, df FROM t{i})")
            src = f"a{i}"
    # length-gated noun/verb(/vowel) arms
    ctes.append(f"n0 AS (SELECT w, len(w) AS n, df FROM {src})")
    ctes.append(f"n1 AS (SELECT {_rslp_step_expr('w', STEPS['Noun'])} "
                f"AS w, n, df FROM n0)")
    ctes.append(
        f"v1 AS (SELECT CASE WHEN len(w) = n THEN "
        f"{_rslp_step_expr('w', STEPS['Verb'])} ELSE w END AS w, n, df "
        f"FROM n1)")
    if lang == "gl":
        ctes.append(f"v2 AS (SELECT "
                    f"{_rslp_step_expr('w', STEPS['Vowel'])} AS w, df "
                    f"FROM v1)")
    else:
        ctes.append(
            f"v2 AS (SELECT CASE WHEN len(w) = n THEN "
            f"{_rslp_step_expr('w', STEPS['Vowel'])} ELSE w END AS w, df "
            f"FROM v1)")
    ctes.append(f"fin AS (SELECT translate(w, {_sql_q(accents[0])}, "
                f"{_sql_q(accents[1])}) AS w, df FROM v2)")
    body = ",\n".join(ctes)
    return f"""WITH {body}
SELECT w AS code, CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS sum_df
FROM fin GROUP BY w
ORDER BY sum_df DESC, code ASC LIMIT {n}"""


def ndcg_graded_sql(terms: tuple[str, ...], k: int = 10) -> str:
    """GRADED nDCG@10 oracle (ops/ndcg.py graded_* + _q_ndcg_graded):
    md5 grade ∈ 0-3 (grade_of thresholds on md5 % GRADE_MOD), gain =
    2^g - 1; DCG joins the ranked BM25 lists with the SHARED quantized
    discount literals; IDCG packs per-query grade counts into the top
    ranks via a rank-threshold CASE — all integer-exact."""
    from lucenenet_ray.ops.ndcg import (DISCOUNTS, GRADE_MOD, NDCG_K,
                                        SCALE)

    def md5i(expr: str) -> str:
        return _MD5_INT31.format(s=expr)

    ranked = "\nUNION ALL\n".join(
        f"SELECT '{t}' AS qt, rank, doc_id "
        f"FROM ({bm25_topk_sql([t], NDCG_K)})"
        for t in terms)
    values = ", ".join(f"('{t}')" for t in terms)
    disc_rows = ", ".join(f"({i + 1}, {d})" for i, d in enumerate(DISCOUNTS))
    h_r = md5i("'grade-'||qt||'-'||doc_id")
    g_r = (f"CASE WHEN {h_r} % {GRADE_MOD} = 0 THEN 3"
           f" WHEN {h_r} % {GRADE_MOD} <= 2 THEN 2"
           f" WHEN {h_r} % {GRADE_MOD} <= 5 THEN 1 ELSE 0 END")
    g_d = g_r.replace("qt||'-'||doc_id", "t.qt||'-'||d.doc_id")
    return f"""WITH ranked AS (
{ranked}
),
disc AS (SELECT rnk, CAST(w AS BIGINT) AS w
         FROM (VALUES {disc_rows}) AS d(rnk, w)),
dcg AS (
  SELECT qt,
         CAST(COALESCE(sum(((1 << ({g_r})) - 1) * disc.w), 0) AS BIGINT)
           AS dcg_scaled
  FROM ranked JOIN disc ON disc.rnk = ranked.rank
  GROUP BY qt
),
gcnt AS (
  SELECT t.qt,
         count(*) FILTER (WHERE ({g_d}) = 3) AS n3,
         count(*) FILTER (WHERE ({g_d}) = 2) AS n2,
         count(*) FILTER (WHERE ({g_d}) = 1) AS n1
  FROM (VALUES {values}) AS t(qt), documents d
  GROUP BY t.qt
),
idcg AS (
  SELECT g.qt,
         CAST(COALESCE(sum(
           CASE WHEN disc.rnk <= g.n3 THEN 7 * disc.w
                WHEN disc.rnk <= g.n3 + g.n2 THEN 3 * disc.w
                WHEN disc.rnk <= g.n3 + g.n2 + g.n1 THEN disc.w
                ELSE 0 END), 0) AS BIGINT) AS idcg_scaled
  FROM gcnt g CROSS JOIN disc
  GROUP BY g.qt
)
SELECT d.qt AS query_term, d.dcg_scaled, i.idcg_scaled,
       CAST(CASE WHEN i.idcg_scaled = 0 THEN 0
            ELSE (CAST(d.dcg_scaled AS HUGEINT) * {SCALE})
                 // i.idcg_scaled END AS BIGINT) AS ndcg_fp
FROM dcg d JOIN idcg i ON i.qt = d.qt
ORDER BY query_term"""


def bpe_encode_stats_sql() -> str:
    """BPE corpus-encode oracle (ops/bpe_encode.py): per word, the
    SHIPPED_MERGES replace chain (each merge ' l r '→' lr ' applied
    _REPLACE_PASSES times — exactly encode_word_replace, whose equality
    with the true leftmost merge is hard-asserted engine-side), then
    per-doc token counts + md5 of the piece stream in word order."""
    from lucenenet_ray.ops.bpe_encode import (_REPLACE_PASSES,
                                              SHIPPED_MERGES)

    expr = "' ' || array_to_string(string_split_regex(w, ''), ' ') || ' '"
    # DuckDB string_split_regex(w, '') yields chars; guard below verifies
    expr = ("' ' || array_to_string(regexp_extract_all(w, '.'), ' ')"
            " || ' '")
    for left, right in SHIPPED_MERGES:
        pat = f"' {left} {right} '"
        rep = f"' {left}{right} '"
        for _ in range(_REPLACE_PASSES):
            expr = f"replace({expr}, {pat}, {rep})"
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS w,
         unnest(range(len(string_split(text, ' ')))) AS pos
  FROM documents
),
enc AS (
  SELECT doc_id, pos,
         replace(trim({expr}), ' ', '|') AS piece_str,
         len(string_split(trim({expr}), ' ')) AS n_pieces
  FROM toks WHERE w <> ''
),
agg AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(n_pieces) AS BIGINT) AS n_bpe_tokens,
         md5(string_agg(piece_str, ' ' ORDER BY pos)) AS enc_md5
  FROM enc GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(a.n_words, 0) AS n_words,
       COALESCE(a.n_bpe_tokens, 0) AS n_bpe_tokens,
       COALESCE(a.enc_md5, md5('')) AS enc_md5
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id"""


def pack_best_fit_sql(seq_len: int = 128, shard_span: int = 256) -> str:
    """Best-fit-decreasing packing oracle (ops/packing.py pack_best_fit):
    per doc-id-range shard, a RECURSIVE CTE advances every shard in
    lockstep one doc per step (ordered eff desc, doc_id asc), carrying
    the shard's bin-load LIST; best fit = the largest load still
    fitting (list comprehension + list_position — first occurrence =
    lowest bin id on ties), else append a new bin. AS MATERIALIZED on
    the ordering CTE (the multiply-referenced-CTE inlining trap)."""
    pat = r" ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"
    return f"""WITH RECURSIVE t AS MATERIALIZED (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_tokens,
         CAST(LEAST(len(regexp_extract_all(text, '{pat}')), {seq_len})
              AS BIGINT) AS eff,
         CAST(doc_id // {shard_span} AS BIGINT) AS shard
  FROM documents
),
ord AS MATERIALIZED (
  SELECT *, row_number() OVER (
      PARTITION BY shard ORDER BY eff DESC, doc_id ASC) AS rk
  FROM t
),
packed AS (
  SELECT shard, CAST(0 AS BIGINT) AS rk, CAST([] AS BIGINT[]) AS bins,
         CAST(NULL AS BIGINT) AS doc_id, CAST(NULL AS BIGINT) AS bin_id
  FROM (SELECT DISTINCT shard FROM ord)
  UNION ALL
  SELECT o.shard, o.rk,
         CASE WHEN len([b for b in p.bins IF b + o.eff <= {seq_len}]) = 0
              THEN list_append(p.bins, o.eff)
              ELSE list_transform(p.bins, (b, i) ->
                CASE WHEN i = list_position(p.bins,
                       list_max([b2 for b2 in p.bins
                                 IF b2 + o.eff <= {seq_len}]))
                     THEN b + o.eff ELSE b END)
         END AS bins,
         o.doc_id,
         CASE WHEN len([b for b in p.bins IF b + o.eff <= {seq_len}]) = 0
              THEN len(p.bins)
              ELSE list_position(p.bins,
                     list_max([b2 for b2 in p.bins
                               IF b2 + o.eff <= {seq_len}])) - 1
         END AS bin_id
  FROM packed p JOIN ord o ON o.shard = p.shard AND o.rk = p.rk + 1
)
SELECT o.doc_id, o.n_tokens, o.eff AS eff_tokens, o.shard,
       pk.bin_id, CAST(o.shard * {1 << 20} + pk.bin_id AS BIGINT)
         AS global_bin
FROM packed pk JOIN ord o ON o.shard = pk.shard AND o.rk = pk.rk
WHERE pk.doc_id IS NOT NULL
ORDER BY o.doc_id"""


def rm3_expand_sql(terms: list[str], fb_docs: int = 10,
                   fb_terms: int = 10, lam: float = 0.5) -> str:
    """RM3 oracle (ops/rm3.py): BM25 top-k pseudo-relevant set, then the
    relevance model with BIT-IDENTICAL float64 fold orders — the
    query-likelihood product left-folds in query order, each term weight
    via list_sum(list(x ORDER BY doc_id)), the normalizer via
    list_sum(list(w ORDER BY term)), interpolation parenthesized
    ``orig + ((1-λ)·(w/W))``. Rank-only output (identical bits →
    identical ranking; candidate set = feedback-doc terms ∪ query terms
    — query terms with zero feedback mass are seeded at w=0.0 so they
    keep their λ/|Q| origin weight, mirroring ops/rm3.py)."""
    top = bm25_topk_sql(terms, fb_docs)
    orig = lam / len(terms)
    prod = "1.0"
    joins = []
    for i, q in enumerate(terms):
        esc = q.replace("'", "''")
        joins.append(
            f"LEFT JOIN tf q{i} ON q{i}.doc_id = d.doc_id "
            f"AND q{i}.term = '{esc}'")
        prod = (f"({prod} * (CAST(COALESCE(q{i}.tf, 0) AS DOUBLE) "
                f"/ d.L))")
    qlits = ", ".join("'" + q.replace("'", "''") + "'" for q in terms)
    qvals = ", ".join("('" + q.replace("'", "''") + "')" for q in terms)
    return f"""WITH {_toks_cte()},
top AS (SELECT doc_id FROM ({top})),
tf AS (
  SELECT k.doc_id, k.term, CAST(count(*) AS BIGINT) AS tf
  FROM kept k JOIN top USING (doc_id)
  GROUP BY k.doc_id, k.term
),
dl AS (SELECT doc_id, L FROM doclen JOIN top USING (doc_id) WHERE L > 0),
pq AS (
  SELECT d.doc_id, {prod} AS p
  FROM dl d
  {' '.join(joins)}
),
wt0 AS (
  SELECT t.term,
         list_sum(list((CAST(t.tf AS DOUBLE) / d.L) * pq.p
                       ORDER BY t.doc_id)) AS w
  FROM tf t JOIN dl d USING (doc_id) JOIN pq USING (doc_id)
  GROUP BY t.term
),
wt AS (  -- seed query terms with zero feedback mass (mirrors rm3.py)
  SELECT term, w FROM wt0
  UNION ALL
  SELECT DISTINCT q.term, 0.0 AS w
  FROM (VALUES {qvals}) q(term)
  WHERE q.term NOT IN (SELECT term FROM wt0)
),
tot AS (SELECT list_sum(list(w ORDER BY term)) AS W FROM wt),
rm3 AS (
  SELECT term,
         (CASE WHEN term IN ({qlits}) THEN {orig!r} ELSE 0.0 END)
         + CASE WHEN tot.W = 0.0 THEN 0.0
                ELSE ((1.0 - {lam!r}) * (wt.w / tot.W)) END AS s
  FROM wt, tot
)
SELECT CAST(row_number() OVER (ORDER BY s DESC, term ASC) AS BIGINT)
         AS rank, term
FROM rm3 ORDER BY s DESC, term ASC LIMIT {fb_terms}"""
