"""Resumable sharded KG job: manifests, counters, resume, global compaction."""

import json
import os

import pyarrow.parquet as pq
import pytest

from opennre_ray.pipelines.job import run_kg_job
from opennre_ray.sources.pages import shard_documents


@pytest.fixture(scope="module")
def shards(tmp_path_factory, sf_dir):
    out = str(tmp_path_factory.mktemp("shards"))
    shard_documents(sf_dir, out, n_shards=4)
    import glob
    return sorted(glob.glob(os.path.join(out, "*.parquet")))


def _cand_dir(out, name):
    return os.path.join(out, "candidates", f"shard={name}")


def _name(path):
    return os.path.splitext(os.path.basename(path))[0]


def read_triples(out):
    import pandas as pd

    tdir = os.path.join(out, "triples")
    files = sorted(f for f in os.listdir(tdir) if f.endswith(".parquet"))
    return (pd.concat([pq.read_table(os.path.join(tdir, f)).to_pandas()
                       for f in files])
            .sort_values(["subj", "pred", "obj"])
            .reset_index(drop=True)) if files else pd.DataFrame()


def _poisoned_chain(target, sentinel=None):
    """``kg.candidate_stages`` whose last stage raises on the rows of
    ``target`` (while ``sentinel`` exists, when one is given)."""
    import opennre_ray.pipelines.kg as kg_mod
    from opennre_ray.sources.pages import documents_to_pages

    orig = kg_mod.candidate_stages
    urls = set(documents_to_pages(pq.read_table(target))
               .column("url").to_pylist())

    def poisoned(*a, **kw):
        (*head, (name, fn)), settings = orig(*a, **kw)

        def boom(b):
            if (sentinel is None or os.path.exists(sentinel)) and \
                    not urls.isdisjoint(b.column("url").to_pylist()):
                raise RuntimeError("injected mid-write crash")
            return fn(b)

        return head + [(name, boom)], settings

    return poisoned


def test_job_writes_manifests_with_counters(ray_session, shards, tmp_path):
    out = str(tmp_path / "kg")
    res = run_kg_job(shards[:2], out)
    assert len(res["completed"]) == 2 and not res["skipped"]
    for name in res["completed"]:
        mpath = os.path.join(_cand_dir(out, name), "manifest.json")
        m = json.load(open(mpath))
        assert m["model_hash"]
        assert m["extractor_version"] == "1"
        assert m["counters"]["pages.rows_in"] > 0
        assert m["counters"]["score.rows_out"] >= m["counters"]["filter.rows_out"]
        assert m["completed_at"]
    # global triples output exists, subj-sorted, with a graph manifest
    tdir = res["triples_dir"]
    files = [f for f in os.listdir(tdir) if f.endswith(".parquet")]
    gm = json.load(open(os.path.join(tdir, "_manifest.json")))
    assert gm["num_files"] == len(files)
    if files:
        import pyarrow as pa
        t = pa.concat_tables([pq.read_table(os.path.join(tdir, f))
                              for f in sorted(files)])
        subj = t.column("subj").to_pylist()
        assert subj == sorted(subj)


def test_job_resume_skips_completed(ray_session, shards, tmp_path):
    out = str(tmp_path / "kg2")
    r1 = run_kg_job(shards[:1], out, compact=False)
    assert len(r1["completed"]) == 1
    r2 = run_kg_job(shards[:2], out)
    assert r2["skipped"] == r1["completed"]
    assert len(r2["completed"]) == 1


def test_counters_are_per_shard(ray_session, shards, tmp_path):
    out = str(tmp_path / "kg3")
    run_kg_job(shards[:2], out, compact=False)
    cdir = os.path.join(out, "candidates")
    names = sorted(os.listdir(cdir))
    counts = [json.load(open(os.path.join(cdir, n, "manifest.json")))
              ["counters"]["pages.rows_in"] for n in names]
    # each shard counts only its own pages (snapshot resets between shards)
    total = sum(counts)
    n_docs = sum(pq.ParquetFile(s).metadata.num_rows for s in shards[:2])
    assert total == n_docs


def test_sharded_job_matches_unsharded_pipeline(ray_session, shards,
                                               sf_dir, tmp_path):
    """Cross-shard consistency: splitting the corpus into shards must give
    the SAME canonical triples as extract_triples on the whole corpus —
    the canonical map is global and dedup spans shards."""
    import pandas as pd

    from opennre_ray.pipelines.kg import extract_triples

    out = str(tmp_path / "kg4")
    res = run_kg_job(shards, out)   # all 4 shards
    tdir = res["triples_dir"]
    files = sorted(f for f in os.listdir(tdir) if f.endswith(".parquet"))
    got = pd.concat([pq.read_table(os.path.join(tdir, f)).to_pandas()
                     for f in files]) if files else pd.DataFrame()

    want = extract_triples(
        sf_dir, docs_path=os.path.dirname(shards[0])).to_pandas()

    key = ["subj", "pred", "obj"]
    got_s = got.sort_values(key).reset_index(drop=True) if len(got) else got
    want_s = want.sort_values(key).reset_index(drop=True)
    assert len(got_s) == len(want_s)
    pd.testing.assert_frame_equal(
        got_s[key + ["n_evidence", "score"]].reset_index(drop=True),
        want_s[key + ["n_evidence", "score"]].reset_index(drop=True),
        check_dtype=False, atol=1e-6)


def test_curation_job_resume_and_parity(ray_session, shards, tmp_path):
    """Curation job: phase-1 manifests + resume semantics, and the
    sharded output equals the in-process docs_curation_pipeline on the
    same corpus (sampling, segment frequencies and chunking are global,
    so sharding must not change a single chunk)."""
    import pandas as pd

    from opennre_ray.pipelines.job import run_curation_job

    out = str(tmp_path / "cur")
    r1 = run_curation_job(shards[:2], out, compact=False)
    assert len(r1["completed"]) == 2 and not r1["skipped"]
    m = json.load(open(os.path.join(
        out, "filtered", f"shard={r1['completed'][0]}", "manifest.json")))
    assert m["extractor_version"] == "curation-v1"
    assert m["counters"]["gopher.rows_in"] >= m["counters"]["gopher.rows_out"]

    r2 = run_curation_job(shards, out)          # resumes, then finalizes
    assert sorted(r2["skipped"]) == sorted(r1["completed"])
    cdir = r2["chunks_dir"]
    files = sorted(os.path.join(cdir, f) for f in os.listdir(cdir)
                   if f.endswith(".parquet"))
    got = (pd.concat([pq.read_table(f).to_pandas() for f in files])
           .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True))

    # parity against the in-process pipeline over the SAME shard corpus
    import ray.data as rd

    from opennre_ray.functions.dedup import paragraph_dedup
    from opennre_ray.functions.packing import chunk_windows, temperature_sample
    from opennre_ray.functions.textstats import gopher_signals
    import pyarrow as pa

    ds = rd.read_parquet(shards)

    def keep(batch: pa.Table) -> pa.Table:
        mask = pa.array([bool(gopher_signals(t)[5])
                         for t in batch.column("text").to_pylist()])
        return batch.filter(mask)

    chain = chunk_windows(
        paragraph_dedup(
            temperature_sample(
                ds.select_columns(["doc_id", "lang", "text"])
                .map_batches(keep, batch_format="pyarrow"),
                "lang", "doc_id", alpha=0.3),
            w=10),
        size=32, stride=24, text_col="clean_text")
    want = (chain.to_pandas()
            .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


def test_chaos_midwrite_crash_then_resume(ray_session, shards, tmp_path,
                                          monkeypatch):
    """Fail one shard's chain mid-run, restart, and prove exactly-once
    semantics: the crashed shard leaves no manifest (its staged parts
    are invisible to resume and to compaction), the restart
    re-runs ONLY that shard, and the final triples + per-shard manifest
    counters are identical to a never-crashed run — no double counts."""
    import pandas as pd

    import opennre_ray.pipelines.kg as kg_mod

    # --- clean reference run -----------------------------------------
    clean = str(tmp_path / "clean")
    run_kg_job(shards[:2], clean)

    def read_counters(out):
        cdir = os.path.join(out, "candidates")
        return {n: json.load(open(os.path.join(cdir, n, "manifest.json")))
                ["counters"] for n in sorted(os.listdir(cdir))
                if n.startswith("shard=")}

    # --- crashed run: poison the SECOND shard while the sentinel exists
    out = str(tmp_path / "chaos")
    sentinel = str(tmp_path / "crash-now")
    open(sentinel, "w").close()
    target = shards[1]
    monkeypatch.setattr(kg_mod, "candidate_stages",
                        _poisoned_chain(target, sentinel))
    with pytest.raises(Exception, match="injected mid-write crash"):
        run_kg_job(shards[:2], out)

    name0 = os.path.splitext(os.path.basename(shards[0]))[0]
    name1 = os.path.splitext(os.path.basename(target))[0]
    cdir = os.path.join(out, "candidates")
    assert os.path.exists(os.path.join(cdir, f"shard={name0}",
                                       "manifest.json"))
    assert not os.path.exists(os.path.join(cdir, f"shard={name1}"))

    # --- restart (crash condition cleared): only the dead shard re-runs
    os.remove(sentinel)
    res = run_kg_job(shards[:2], out)
    assert res["skipped"] == [name0]
    assert res["completed"] == [name1]

    pd.testing.assert_frame_equal(read_triples(out), read_triples(clean))
    assert read_counters(out) == read_counters(clean)


def test_publish_fsyncs_parquet_before_rename(ray_session, sf_dir, tmp_path,
                                              monkeypatch):
    """Durability: every parquet file of a published candidate shard and
    of the compacted graph is fsynced before the rename that publishes
    it — a crash after the rename can never expose truncated parts."""
    events = []
    real_fsync, real_rename = os.fsync, os.rename

    def fsync(fd):
        events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
        return real_fsync(fd)

    def rename(src, dst):
        events.append(("rename", os.path.realpath(src),
                       os.path.realpath(dst)))
        return real_rename(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "rename", rename)
    out = str(tmp_path / "kg")
    res = run_kg_job({"all": os.path.join(sf_dir, "documents.parquet")}, out)
    monkeypatch.undo()

    for final in (_cand_dir(out, "all"), res["triples_dir"]):
        final = os.path.realpath(final)
        parts = [f for f in os.listdir(final) if f.endswith(".parquet")]
        assert parts, final
        i = next(i for i, e in enumerate(events)
                 if e[0] == "rename" and e[2] == final)
        src = events[i][1]
        synced = {e[1] for e in events[:i] if e[0] == "fsync"}
        assert {os.path.join(src, f) for f in parts} | {src} <= synced


def test_kg_job_cli_keeps_the_callers_session(ray_session, sf_dir,
                                              tmp_path, capsys):
    """``kg_job.main(argv)`` in-process under a session its caller owns:
    one JSON line on stdout, the graph and its manifest published, and
    the caller's session still up afterwards."""
    import runpy

    main = runpy.run_path(os.path.join(os.path.dirname(__file__),
                                       os.pardir, "kg_job.py"))["main"]
    out = str(tmp_path / "kg")
    main(["--input", sf_dir, "--out", out])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["completed"] == 1
    assert ray_session.is_initialized()
    assert os.path.exists(os.path.join(out, "triples", "_manifest.json"))


def test_unreadable_part_fails_shard(tmp_path, monkeypatch):
    """A part file whose footer cannot be read fails the shard: no
    manifest is published (so resume redoes it), never num_rows=null."""
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from opennre_ray.state.lineage import write_shard

    part = str(tmp_path / "part-0.parquet")
    pq_mod.write_table(pa.table({"id": list(range(10))}), part)

    def unreadable(*a, **kw):
        raise OSError("unreadable parquet footer")

    monkeypatch.setattr(pq_mod, "ParquetFile", unreadable)
    out = str(tmp_path / "out")
    with pytest.raises(OSError, match="unreadable parquet footer"):
        write_shard([part], out, "s0",
                    {"input_path": "in/s0", "counters": {}})
    assert not [n for n in os.listdir(out) if n.startswith("shard=")]


def test_job_sweeps_stale_tmp_dirs_of_other_pids(ray_session, shards,
                                                  tmp_path):
    """Leftovers of a crashed run under another pid (publish tmp dirs and
    the job's staging dir) are swept when the shard is redone, instead of
    piling up under candidates/."""
    out = str(tmp_path / "kg")
    name = os.path.splitext(os.path.basename(shards[0]))[0]
    cdir = os.path.join(out, "candidates")
    stale = [os.path.join(cdir, f"{kind}-shard={name}-{os.getpid() + 1}")
             for kind in ("_tmp", "_old")]
    stale.append(os.path.join(cdir, f"_stage-{os.getpid() + 1}"))
    for d in stale:
        os.makedirs(d)
        open(os.path.join(d, "part-0.parquet"), "w").close()
    res = run_kg_job(shards[:1], out, compact=False)
    assert res["completed"] == [name]
    assert sorted(os.listdir(cdir)) == [f"shard={name}"]


def test_benchmark_hooks_are_looked_up_at_call_time(ray_session, sf_dir,
                                                    tmp_path, monkeypatch):
    """The traced benchmark run (perfbench/tracing.py::patch_layers)
    swaps these module attributes for timing wrappers; the job and the
    compaction must reach each through its module at call time, and
    ``_counted`` must see the candidate chain's stage names in order."""
    from opennre_ray.functions import relational
    from opennre_ray.pipelines import job, kg
    from opennre_ray.state import lineage

    calls = {}

    def record(mod, name):
        orig = getattr(mod, name)

        def wrapped(*a, **kw):
            calls.setdefault(name, []).append(a)
            return orig(*a, **kw)

        monkeypatch.setattr(mod, name, wrapped)

    hooks = [(job, "_counted"), (kg, "materialize_graph"),
             (kg, "finalize_triples"), (kg, "canonicalize_ids"),
             (lineage, "write_shard"), (relational, "hash_bucket_aggregate")]
    for mod, name in hooks:
        record(mod, name)
    out = str(tmp_path / "kg")
    job.run_kg_job({"all": os.path.join(sf_dir, "documents.parquet")}, out,
                   compact=False)
    job.compact_candidates(out)

    assert [name for _, name in hooks if not calls.get(name)] == []
    assert [a[2] for a in calls["_counted"]] == [
        "pages", "extract", "mentions", "pairs", "score", "filter"]


def test_compaction_hands_finalize_exactly_the_candidate_columns(
        ray_session, shards, tmp_path, monkeypatch):
    """The shard parts live under ``shard=<name>`` dirs; compaction must
    not read that path segment back as an extra hive column."""
    from opennre_ray.pipelines import kg

    seen = []
    orig = kg.finalize_triples

    def spy(ds):
        seen.append(ds.schema().names)
        return orig(ds)

    monkeypatch.setattr(kg, "finalize_triples", spy)
    run_kg_job(shards[:2], str(tmp_path / "kg"))
    assert seen == [kg.CANDIDATE_COLUMNS]


_CHAIN = ["pages", "extract", "mentions", "pairs", "score", "filter"]


def test_one_execution_publishes_each_shard_whole(ray_session, shards,
                                                   tmp_path):
    """All pending shards run as one execution, yet every manifest holds
    its own shard's counts: every ``{stage}.rows_in/rows_out`` key,
    ``pages.rows_in`` equal to the input file's row count, and candidate
    rows equal to the chain run over that shard file alone. A shard with
    no candidates still publishes, with ``num_rows: 0``."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from opennre_ray.pipelines.kg import (CANDIDATE_COLUMNS,
                                          candidate_stages, map_stages)
    from opennre_ray.sources.pages import PAGE_COLUMNS, documents_to_pages

    quiet = pq.read_table(shards[0]).slice(0, 1)
    quiet = quiet.set_column(quiet.schema.get_field_index("text"), "text",
                             pa.array(["nothing to relate here."]))
    empty = str(tmp_path / "quiet.parquet")
    pq.write_table(quiet, empty)
    inputs = shards + [empty]
    out = str(tmp_path / "kg")
    res = run_kg_job(inputs, out, compact=False)
    assert res["completed"] == [_name(p) for p in inputs]
    assert not [d for d in os.listdir(os.path.join(out, "candidates"))
                if not d.startswith("shard=")]

    key = ["url", "h_id", "t_id", "pred_rel"]
    for path in inputs:
        sdir = _cand_dir(out, _name(path))
        m = json.load(open(os.path.join(sdir, "manifest.json")))
        c = m["counters"]
        assert {f"{s}.rows_{io}" for s in _CHAIN
                for io in ("in", "out")} <= set(c)
        assert c["pages.rows_in"] == pq.ParquetFile(path).metadata.num_rows
        assert m["num_rows"] == c["filter.rows_out"]
        assert m["input_fingerprint"]["size"] == os.path.getsize(path)

        files = sorted(f for f in os.listdir(sdir) if f.endswith(".parquet"))
        got = (pd.concat([pq.read_table(os.path.join(sdir, f)).to_pandas()
                          for f in files]) if files
               else pd.DataFrame(columns=CANDIDATE_COLUMNS))
        pages = (rd.read_parquet(path,
                                 columns=["doc_id", "text", "lang", "source"])
                 .map_batches(documents_to_pages, batch_format="pyarrow")
                 .select_columns(PAGE_COLUMNS))
        want = (map_stages(pages, candidate_stages()[0])
                .select_columns(CANDIDATE_COLUMNS).to_pandas())
        assert len(got) == len(want) == m["num_rows"]
        if len(want):
            pd.testing.assert_frame_equal(
                got.sort_values(key).reset_index(drop=True),
                want.sort_values(key).reset_index(drop=True),
                check_exact=False)
    quiet_m = json.load(open(os.path.join(_cand_dir(out, "quiet"),
                                          "manifest.json")))
    assert quiet_m["num_rows"] == 0 and quiet_m["counters"]["pages.rows_in"] == 1


def test_failing_shard_does_not_block_the_others(ray_session, shards,
                                                  tmp_path, monkeypatch):
    """A chain error in one shard leaves that shard unpublished, lets
    every other shard of the same execution publish, and then raises
    with the original error text; no staged part is left behind."""
    import opennre_ray.pipelines.kg as kg_mod

    monkeypatch.setattr(kg_mod, "candidate_stages",
                        _poisoned_chain(shards[0]))
    out = str(tmp_path / "kg")
    with pytest.raises(RuntimeError, match="injected mid-write crash"):
        run_kg_job(shards[:3], out)
    cdir = os.path.join(out, "candidates")
    assert sorted(os.listdir(cdir)) == sorted(
        f"shard={_name(p)}" for p in shards[1:3])
    for p in shards[1:3]:
        assert os.path.exists(os.path.join(_cand_dir(out, _name(p)),
                                           "manifest.json"))
    assert not os.path.exists(os.path.join(out, "triples"))


def test_resume_redoes_shards_of_another_configuration(ray_session, shards,
                                                        tmp_path):
    """Resume never mixes configurations: a rerun with another threshold
    redoes every shard and its graph equals a fresh run's at that
    threshold; a changed input file (fingerprint) is redone alone."""
    import shutil

    import pandas as pd

    out = str(tmp_path / "kg")
    run_kg_job(shards, out)
    assert len(read_triples(out))
    res = run_kg_job(shards, out, threshold=0.99)
    assert res["completed"] == [_name(p) for p in shards]
    assert res["skipped"] == []
    m = json.load(open(os.path.join(_cand_dir(out, _name(shards[0])),
                                    "manifest.json")))
    assert m["threshold"] == 0.99 and m["model_name"]
    fresh = str(tmp_path / "fresh")
    run_kg_job(shards, fresh, threshold=0.99)
    pd.testing.assert_frame_equal(read_triples(out), read_triples(fresh))

    src = str(tmp_path / "in.parquet")
    shutil.copy(shards[1], src)
    out2 = str(tmp_path / "kg2")
    run_kg_job({"a": src, "b": shards[2]}, out2, compact=False)
    st = os.stat(src)
    os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
    res = run_kg_job({"a": src, "b": shards[2]}, out2, compact=False)
    assert res["completed"] == ["a"] and res["skipped"] == ["b"]


def test_resume_redoes_shards_when_a_chain_constant_changes(
        ray_session, shards, tmp_path, monkeypatch):
    """The chain's stage constants are lineage: a rerun after any of
    ``pairs.MAX_GAP``, ``pairs.MAX_PAIRS_PER_SENT`` or
    ``ner.MAX_SENT_TOKENS`` changed redoes every shard and records the new
    value; an unchanged rerun skips them all. The manifest keeps every
    key it had before these were added. The redone rows follow the
    recorded value: one pair per sentence cuts the pair count."""
    from opennre_ray.stages import ner, pairs

    out = str(tmp_path / "kg")
    names = [_name(p) for p in shards[:2]]

    def manifest():
        return json.load(open(os.path.join(_cand_dir(out, names[0]),
                                           "manifest.json")))

    run_kg_job(shards[:2], out, compact=False)
    assert {"model_hash", "model_name", "threshold", "extractor_version",
            "input_path", "input_fingerprint", "shard", "counters",
            "completed_at"} <= set(manifest())
    for mod, attr, key in [(pairs, "MAX_GAP", "max_gap"),
                           (pairs, "MAX_PAIRS_PER_SENT", "max_pairs_per_sent"),
                           (ner, "MAX_SENT_TOKENS", "max_sent_tokens")]:
        assert manifest()[key] == getattr(mod, attr)
        monkeypatch.setattr(mod, attr, getattr(mod, attr) + 1)
        res = run_kg_job(shards[:2], out, compact=False)
        assert res["completed"] == names and res["skipped"] == []
        assert manifest()[key] == getattr(mod, attr)
    res = run_kg_job(shards[:2], out, compact=False)
    assert res["completed"] == [] and res["skipped"] == names
    pairs_out = manifest()["counters"]["pairs.rows_out"]
    monkeypatch.setattr(pairs, "MAX_PAIRS_PER_SENT", 1)
    res = run_kg_job(shards[:2], out, compact=False)
    assert res["completed"] == names
    assert manifest()["max_pairs_per_sent"] == 1
    assert 0 < manifest()["counters"]["pairs.rows_out"] < pairs_out


def test_compaction_reads_exactly_this_runs_shards(ray_session, shards,
                                                    tmp_path):
    """A rerun over 1 of 4 inputs into an out_root holding all 4 shards
    compacts only that shard: its graph equals a fresh 1-input run's."""
    import pandas as pd

    out = str(tmp_path / "kg")
    run_kg_job(shards, out)
    all_four = read_triples(out)
    res = run_kg_job(shards[:1], out)
    assert res["skipped"] == [_name(shards[0])]
    fresh = str(tmp_path / "fresh")
    run_kg_job(shards[:1], fresh)
    one = read_triples(fresh)
    assert len(one) != len(all_four)
    pd.testing.assert_frame_equal(read_triples(out), one)


#: crash points of ``lineage.publish`` (ALICE, OSDI 2014): each step, the
#: call that follows it (the first such call after that many of the
#: publish's renames) and the triples dirs the crash leaves behind
_PUBLISH_CRASH_POINTS = {
    "write": ("fsync", 0, ["_tmp", "triples"]),
    "fsync": ("rename", 0, ["_tmp", "triples"]),
    "rename_aside": ("rename", 1, ["_old", "_tmp"]),
    "rename": ("fsync", 2, ["_old", "triples"]),
}


@pytest.fixture(scope="module")
def compacted(ray_session, shards, tmp_path_factory):
    """Candidate shards built once, with the graph an uninterrupted
    compaction makes of them."""
    out = str(tmp_path_factory.mktemp("compacted") / "kg")
    run_kg_job(shards[:2], out)
    return out, read_triples(out)


@pytest.mark.parametrize("step", list(_PUBLISH_CRASH_POINTS))
def test_compaction_recovers_from_a_crash_at_each_publish_step(
        compacted, tmp_path, monkeypatch, step):
    """The compaction's publish of ``triples/`` crashes right after
    ``step``, over a previous graph. Rerunning the compaction publishes
    the uninterrupted run's graph and leaves no tmp or old dir; the model
    pass is not rerun."""
    import shutil

    import pandas as pd

    from opennre_ray.pipelines.job import compact_candidates
    from opennre_ray.state import lineage

    src, want = compacted
    out = str(tmp_path / "kg")
    shutil.copytree(src, out)            # candidate shards + previous graph
    op, after, left = _PUBLISH_CRASH_POINTS[step]
    renames = []
    real_rename, real_fsync = os.rename, lineage._fsync

    def crash_if_due(name):
        if name == op and len(renames) == after:
            raise OSError(f"injected crash after {step}")

    def rename(a, b):
        if os.path.dirname(b) == out:
            crash_if_due("rename")
            renames.append(b)
        return real_rename(a, b)

    def fsync(path):
        crash_if_due("fsync")
        return real_fsync(path)

    monkeypatch.setattr(os, "rename", rename)
    monkeypatch.setattr(lineage, "_fsync", fsync)
    with pytest.raises(OSError, match=f"injected crash after {step}"):
        compact_candidates(out)
    monkeypatch.undo()

    def triples_dirs():
        return sorted(n.split("-")[0] for n in os.listdir(out)
                      if "triples" in n)

    assert triples_dirs() == left
    compact_candidates(out)
    assert triples_dirs() == ["triples"]
    pd.testing.assert_frame_equal(read_triples(out), want)
