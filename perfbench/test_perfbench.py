"""Tests of the benchmark itself: generator determinism, golden extraction,
the oracle's norm bytes, and a tiny-size smoke run of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import gen, oracle, trace, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = workloads.Sizes(
    templated=dataclasses.replace(gen.TEMPLATED, n_urls=200),
    zipf=dataclasses.replace(gen.ZIPF, n_urls=60, vocab=5000),
    serve_urls=60, serve_queries=40, check_queries=5, inproc_checks=20,
    update=gen.UpdateSpec(base_docs=30, adds=5, updates=2, deletes=3, queries=6))


def test_corpus_is_a_function_of_the_seed():
    spec = dataclasses.replace(gen.ZIPF, n_urls=50, vocab=3000)
    a, b = gen.make_corpus(5, spec, "t"), gen.make_corpus(5, spec, "t")
    assert a.pages.equals(b.pages) and a.tokens == b.tokens
    assert a.n_dup_rows == b.n_dup_rows
    assert a.pages.num_rows == a.n_urls + a.n_dup_rows
    c = gen.make_corpus(6, spec, "t")
    assert not a.pages.equals(c.pages)
    qa = gen.make_queries(5, a.tokens, 30)
    assert qa == gen.make_queries(5, a.tokens, 30)
    assert {q.cls for q in qa} == {"or", "and", "phrase", "prefix"}
    s1, s2 = gen.UpdateScript(5, TINY.update), gen.UpdateScript(5, TINY.update)
    assert s1.base() == s2.base()
    assert s1.next_round() == s2.next_round()


def test_words_are_letters_and_never_stopwords():
    rng = np.random.default_rng(0)
    words = gen.make_vocab(rng, 4000, non_ascii_share=0.1)
    assert len(set(words)) == 4000
    assert all(w.isalpha() and w == w.lower() for w in words)
    assert not set(words) & gen.STOP_WORDS
    assert any(not w.isascii() for w in words)


def test_extracted_tokens_equal_golden_tokens():
    from lucenenet_ray.analysis.standard import StandardAnalyzer
    from lucenenet_ray.extract import ExtractHTML

    corpus = gen.make_corpus(3, dataclasses.replace(gen.ZIPF, n_urls=120, vocab=3000),
                             "t")
    out = ExtractHTML()(corpus.pages)
    assert not any(out.column("extract_error").to_pylist())
    newest = {}
    for url, ts, text in zip(out.column("url").to_pylist(),
                             out.column("warc_ts").to_pylist(),
                             out.column("text").to_pylist()):
        if url not in newest or newest[url][0] < ts:
            newest[url] = (ts, text)
    analyzer = StandardAnalyzer()
    for url, (_ts, text) in newest.items():
        terms, positions = analyzer(text)
        golden = corpus.tokens[gen.doc_id_of(url)]
        assert terms == golden
        assert positions == list(range(len(golden)))


def test_oracle_norm_bytes_match_lucene_smallfloat():
    # reference points of SmallFloat.floatToByte315(1/sqrt(len))
    assert oracle.norm_byte(1) == 124
    assert oracle.norm_byte(4) == 120
    lens = np.arange(1, 5000)
    got = [oracle.norm_byte(int(n)) for n in lens]
    assert all(a >= b for a, b in zip(got, got[1:]))  # longer -> smaller byte


def test_bm25_oracle_clause_order_sum():
    toks = {1: ["aa", "bb", "aa"], 2: ["bb", "cc"], 3: ["cc", "dd", "ee", "ff"]}
    orc = oracle.Bm25Oracle(toks)
    q = gen.BenchQuery("or", "aa bb", ("aa", "bb"))
    docs, scores, total = orc.top_k(q)
    assert total == 2 and docs[0] == 1
    s_aa, s_bb = orc.term_scores("aa"), orc.term_scores("bb")
    assert scores[0] == np.float32(np.float32(0) + s_aa[1] + s_bb[1])
    ph = orc.phrase_scores("bb", "cc")
    assert set(ph) == {2}


def test_report_attributes_worker_spans_by_time():
    spans = [
        {"id": "1:1", "name": "op.query", "pid": 1, "parent": None, "start": 0.0,
         "end": 1.0, "phase": "timed", "cls": "or"},
        {"id": "1:2", "name": "searcher.plan", "pid": 1, "parent": "1:1",
         "start": 0.1, "end": 0.2},
        {"id": "2:1", "name": "serve.search_plan", "pid": 2, "parent": None,
         "start": 0.3, "end": 0.7},
        {"id": "3:1", "name": "serve.search_plan", "pid": 3, "parent": None,
         "start": 0.3, "end": 0.5},
    ]
    m = trace.report(spans)
    assert m["searcher.score_or_ms"] == pytest.approx(400.0)
    assert m["searcher.plan_ms"] == pytest.approx(100.0)
    assert m["serve.hop_ms"] == pytest.approx(500.0)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                        "--workload", "build_zipf", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True,
                       cwd=tmp_path, timeout=120)
    assert p.returncode != 0
    assert not p.stdout.strip()


@pytest.mark.parametrize("name,traced", [
    ("build_templated", False), ("build_zipf", False), ("serve_mixed", False),
    ("update_nrt", False), ("update_nrt", True)])
def test_smoke(name, traced, tmp_path):
    trace_dir = None
    if traced:
        trace_dir = str(tmp_path / "trace")
        os.makedirs(trace_dir)
    out = workloads.run_workload(name, 2, 0.0, str(tmp_path), ROOT, 2,
                                 trace_dir, sizes=TINY)
    assert out.correct, out.checks
    assert not out.failed and sum(out.attempted.values()) > 0
    from perfbench.run import END_TO_END

    assert set(out.metrics) == set(END_TO_END)
    assert all(np.isfinite(v) and v > 0 for v in out.metrics.values())
    if traced:
        from perfbench.run import PER_LAYER

        m = trace.report(trace.load_spans(trace_dir))
        assert all(m[k] > 0 for k in PER_LAYER), {k: m[k] for k in PER_LAYER}
        json.dumps(m)
