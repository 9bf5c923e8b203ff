"""ray-job-submit entrypoint (lucenenet_ray/job.py): sharded resumable index
build — stage-0 routing checkpoint, per-shard lineage skips, query identity
vs the single-shot build — and the search job."""

import json
import os
import shutil

import pytest

from lucenenet_ray.job import index_job, main, search_job
from lucenenet_ray.pipelines.flagship import index_pages
from lucenenet_ray.search.query import parse_query
from lucenenet_ray.search.reader import IndexReader
from lucenenet_ray.search.searcher import search
from lucenenet_ray.sources.pages import pages_parquet

SF = "/root/testdata/sf0.001"
QUERIES = ["spark window", '"batch merge"', "vector AND dup", "data"]


@pytest.fixture(scope="module")
def sharded_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("job")
    out = str(root / "idx_sharded")
    pages = pages_parquet(SF)
    report = index_job(pages, out, n_shards=3, n_buckets=4, n_hparts=2)
    return pages, out, report


def test_index_job_builds_all_shards(sharded_index):
    _, out, report = sharded_index
    assert report["n_docs"] > 0
    assert report["n_shards"] == 3
    built = [s for s in report["shard_lineage"] if s["status"] == "built"]
    assert len(built) == 3
    # metrics ride the lineage (north rule "lineage + metrics")
    assert all("build_sec" in s and "docs_per_sec" in s for s in built)
    assert os.path.exists(os.path.join(out, "_staging", "_DONE"))
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_index_job_rerun_skips_everything(sharded_index):
    pages, out, report = sharded_index
    report2 = index_job(pages, out, n_shards=3, n_buckets=4, n_hparts=2)
    assert report2["n_docs"] == report["n_docs"]
    assert all("skipped" in s["status"] for s in report2["shard_lineage"])
    # the rerun must not have re-staged (checkpoint marker untouched)
    assert os.path.exists(os.path.join(out, "_staging", "_DONE"))


def test_index_job_resumes_after_partial_crash(sharded_index, tmp_path):
    """Kill-one-shard simulation: delete a shard's manifest (the checkpoint);
    the rerun rebuilds ONLY that shard."""
    pages, out, _ = sharded_index
    out2 = str(tmp_path / "idx_crash")
    shutil.copytree(out, out2)
    victim = os.path.join(out2, "shards", "shard0001")
    shutil.rmtree(victim)
    report = index_job(pages, out2, n_shards=3, n_buckets=4, n_hparts=2)
    statuses = {s["shard"]: s["status"] for s in report["shard_lineage"]}
    assert statuses["shard0001"] == "built"
    assert all("skipped" in v for k, v in statuses.items() if k != "shard0001")


def test_sharded_results_match_single_build(sharded_index, tmp_path):
    """Shard-then-merge must be invisible to queries: identical top-k docs
    and float32 scores vs the one-shot distributed build of the same pages
    (SegmentMerger invariant, ``Index/SegmentMerger.cs:40-56``). The merge
    runs the build's own exchange and reducer, so the postings and norms
    bytes (bench.py's digest) and the termstats are identical too."""
    import pyarrow.parquet as pq

    from bench import index_digest

    pages, out, _ = sharded_index
    single = str(tmp_path / "idx_single")
    index_pages(pages, single, n_buckets=4, n_hparts=2)
    assert index_digest(out) == index_digest(single)
    assert pq.read_table(os.path.join(out, "termstats")).equals(
        pq.read_table(os.path.join(single, "termstats")))
    r_sh, r_si = IndexReader(out), IndexReader(single)
    for q in QUERIES:
        a = search(r_sh, parse_query(q), k=10)
        b = search(r_si, parse_query(q), k=10)
        assert a.total_hits == b.total_hits, q
        assert a.to_list() == b.to_list(), q


def test_search_job(sharded_index):
    _, out, _ = sharded_index
    rows = search_job(out, ["spark window", "zzz_nohit"], k=5, n_actors=2)
    assert rows[0]["total_hits"] > 0
    assert len(rows[0]["hits"]) == 5
    assert rows[0]["hits"][0]["score"] >= rows[0]["hits"][-1]["score"]
    assert rows[1]["total_hits"] == 0 and rows[1]["hits"] == []


def test_cli_main_search(sharded_index, capsys):
    _, out, _ = sharded_index
    rc = main(["search", "--index", out, "--query", "spark window",
               "--k", "3", "--actors", "2"])
    assert rc == 0
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert row["total_hits"] > 0 and len(row["hits"]) == 3
