"""Resumable sharded build (``build.build_index_incremental`` via
``job.index_job``): a shard's checkpoint is its Inverter output, written to a
temp dir and renamed into place under a marker. A shard whose map dies
partway leaves no checkpoint, a rerun skips the finished shards, and the
result equals the direct ``index_pages`` build byte for byte."""

import functools
import glob
import os
import shutil

import pyarrow.parquet as pq
import pytest

from lucenenet_ray.job import index_job
from lucenenet_ray.pipelines import flagship
from lucenenet_ray.sources.pages import pages_parquet

SF = "/root/testdata/sf0.001"
LAYOUT = dict(n_buckets=4, n_hparts=2)


@pytest.fixture(scope="module")
def direct(ray_session, tmp_path_factory):
    from bench import index_digest

    pages = pages_parquet(SF)
    path = str(tmp_path_factory.mktemp("direct") / "idx")
    flagship.index_pages(pages, path, **LAYOUT)
    return pages, path, index_digest(path)


def _same_as_direct(out: str, direct_path: str, digest: str) -> None:
    from bench import index_digest

    assert index_digest(out) == digest
    assert pq.read_table(os.path.join(out, "termstats")).equals(
        pq.read_table(os.path.join(direct_path, "termstats")))


def test_shard_map_failure_resumes_to_direct_bytes(direct, tmp_path):
    """Shard 2's map raises after one of its write tasks has landed a
    wire-row file in the temp dir; the rerun skips shards 0-1, drops the
    partial dir and builds the direct build's bytes."""
    from lucenenet_ray.index.build import IndexConfig, build_index_incremental
    from lucenenet_ray.job import _stage_shards

    pages, direct_path, digest = direct
    out = str(tmp_path / "idx")
    staging = os.path.join(out, "_staging")
    _stage_shards(pages, staging, 3)
    shard2 = os.path.join(out, "shards", "shard0002")
    claim = str(tmp_path / "first_block")
    # small map batches: each block of shard 2 is its own write task
    cfg = IndexConfig(index_path="", id_min=0, id_max=flagship.ID_SPACE_MAX,
                      lang_col="lang", batch_size=16, **LAYOUT)

    def fail_on(batch):
        """The first block passes; any other raises once a wire-row file
        of the shard is on disk (so the temp checkpoint dir is partial)."""
        import time

        try:
            os.close(os.open(claim, os.O_CREAT | os.O_EXCL))
            return batch
        except FileExistsError:
            pass
        deadline = time.time() + 30
        while not glob.glob(shard2 + "*/*.parquet") \
                and time.time() < deadline:
            time.sleep(0.1)
        raise RuntimeError("injected shard failure")

    def shards(failing: bool):
        named = []
        for k in range(3):
            factory = functools.partial(
                flagship.page_docs, os.path.join(staging, f"shard={k}"))
            if failing and k == 2:
                factory = (lambda f=factory: f().repartition(4).map_batches(
                    fail_on, batch_format="pyarrow", batch_size=None))
            named.append((f"shard{k:04d}", factory))
        return named

    with pytest.raises(Exception, match="injected shard failure"):
        build_index_incremental(shards(True), out, cfg)

    # shards 0-1 are checkpoints; shard 2 left only a partial temp dir
    for name in ("shard0000", "shard0001"):
        assert os.path.exists(os.path.join(out, "shards", name,
                                           "_checkpoint.json"))
    assert not os.path.exists(shard2)
    partial = glob.glob(shard2 + "?*")
    assert len(partial) == 1
    assert glob.glob(os.path.join(partial[0], "*.parquet"))
    assert not os.path.exists(os.path.join(out, "manifest.json"))

    manifest = build_index_incremental(shards(False), out, cfg)
    lineage = manifest["shard_lineage"]
    assert [s["status"] for s in lineage] == [
        "skipped (checkpoint)", "skipped (checkpoint)", "built"]
    assert glob.glob(shard2 + "*") == [shard2]  # the temp dir is gone
    _same_as_direct(out, direct_path, digest)
    assert sum(s["n_docs"] for s in lineage) == manifest["n_docs"]
    assert lineage[2]["wire_bytes"] > 0


def test_old_layout_shard_dir_is_rebuilt(direct, tmp_path):
    """A ``shards/<name>`` dir holding a full index generation (manifest,
    postings and norms, no marker) is rebuilt, never read as wire rows."""
    pages, direct_path, digest = direct
    out = str(tmp_path / "idx")
    index_job(pages, out, n_shards=3, **LAYOUT)
    victim = os.path.join(out, "shards", "shard0001")
    shutil.rmtree(victim)
    shutil.copytree(direct_path, victim)

    report = index_job(pages, out, n_shards=3, **LAYOUT)
    statuses = {s["shard"]: s["status"] for s in report["shard_lineage"]}
    assert statuses["shard0001"] == "built"
    assert statuses["shard0000"] == statuses["shard0002"] \
        == "skipped (checkpoint)"
    assert not os.path.exists(os.path.join(victim, "manifest.json"))
    _same_as_direct(out, direct_path, digest)


def test_checkpoint_of_other_layout_is_rebuilt(direct, tmp_path):
    """Wire rows carry bucket and hpart ids, so a checkpoint written under
    another layout is rebuilt rather than reduced into the wrong buckets."""
    pages, direct_path, digest = direct
    out = str(tmp_path / "idx")
    index_job(pages, out, n_shards=2, n_buckets=2, n_hparts=2)
    report = index_job(pages, out, n_shards=2, **LAYOUT)
    assert all(s["status"] == "built" for s in report["shard_lineage"])
    _same_as_direct(out, direct_path, digest)
