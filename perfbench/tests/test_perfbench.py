"""Tests for the benchmark's own generators, oracles and span arithmetic.

    python3 -m pytest perfbench/tests -q

Inputs are generated at the size of the smallest test scale (500
documents). Set ``PERFBENCH_SF_DIR`` to a directory holding a
``documents.parquet`` to also cross-check the kg_build oracle on it.
"""

from __future__ import annotations

import os
import sys

import pandas as pd
import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import gen, oracles, tracing  # noqa: E402
from perfbench.workloads import KgBuild, KgFinalize, KgJob  # noqa: E402

N_DOCS = 500


@pytest.fixture(scope="module")
def ray_session():
    import ray
    import ray.data as rd

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


# --- generators -------------------------------------------------------------

def test_documents_deterministic_per_seed():
    a, b = gen.documents(N_DOCS, 7), gen.documents(N_DOCS, 7)
    assert a.equals(b)
    assert not a.column("text").equals(gen.documents(N_DOCS, 8).column("text"))
    words = pd.Series(a.column("text").to_pylist()).str.split().str.len()
    assert words.between(10, 100).all()
    assert a.column("n_chars").to_pylist() == [
        len(t) for t in a.column("text").to_pylist()]


def test_candidates_deterministic_and_schema():
    from opennre_ray.pipelines.kg import CANDIDATE_COLUMNS

    a = gen.candidates(3000, 500, 3)
    assert a.equals(gen.candidates(3000, 500, 3))
    assert not a.equals(gen.candidates(3000, 500, 4))
    assert a.column_names == CANDIDATE_COLUMNS


def test_candidate_variants_fold_to_one_surface():
    from opennre_ray.stages.ner import normalize_surface

    cands = gen.candidates(4000, 300, 5).to_pandas()
    norm = cands["h_name"].map(normalize_surface)
    assert (cands["h_name"] != norm).mean() > 0.2          # variants exist
    canonical = {gen.entity_surface(k) for k in range(300)}
    assert set(norm) <= canonical                          # ...and all fold
    # ~CONFLICT_P of the ids disagree with the surface's own entity
    own = {gen.entity_surface(k): gen.entity_qid(k) for k in range(300)}
    wrong = (norm.map(own) != cands["h_id"]).mean()
    assert 0.05 < wrong < 0.15


def test_entity_surfaces_distinct_after_normalization():
    from opennre_ray.stages.ner import normalize_surface

    names = [normalize_surface(gen.entity_surface(k)) for k in range(20_000)]
    assert len(set(names)) == len(names)


# --- oracles ----------------------------------------------------------------

def _cands(rows):
    cols = ["h_id", "h_name", "t_id", "t_name", "pred_rel", "score", "url"]
    df = pd.DataFrame(rows, columns=cols)
    df["score"] = df["score"].astype("float32")
    df["model_hash"] = "m"
    return pa.Table.from_pandas(df, preserve_index=False)


def test_finalize_oracle_hand_example():
    # 'kare' is seen as Q2 twice and Q1 twice: a tie, so the smaller id
    # wins everywhere; ' moö ' folds onto 'moo' (Q3)
    t = _cands([
        ("Q2", "Kare", "Q3", "moo", "father", 0.5, "u1"),
        ("Q2", "kare", "Q3", " moö ", "father", 0.7, "u2"),
        ("Q1", "KARE", "Q3", "moo", "spouse", 0.2, "u3"),
        ("Q1", "kare ", "Q9", "zz", "spouse", 0.9, "u4"),
    ])
    got = oracles.finalize_frame(t)
    assert got[["subj", "pred", "obj", "n_evidence"]].values.tolist() == [
        ["Q1", "father", "Q3", 2], ["Q1", "spouse", "Q3", 1],
        ["Q1", "spouse", "Q9", 1]]
    assert got["score"].tolist() == pytest.approx([0.7, 0.2, 0.9])


def test_finalize_mismatch_detects_changes():
    want = oracles.finalize_frame(gen.candidates(2000, 200, 1))
    assert oracles.finalize_mismatch(want.sample(frac=1, random_state=0),
                                     want) is None
    bad = want.copy()
    bad.loc[0, "n_evidence"] += 1
    assert "n_evidence" in oracles.finalize_mismatch(bad, want)
    assert oracles.finalize_mismatch(want.iloc[1:], want) is not None


def test_sequential_oracle_counts():
    docs = gen.documents(40, 2)
    want = oracles.sequential_triples(docs)
    assert want["pages"] == 40
    assert len(want["candidates_per_doc"]) == 40
    assert sum(want["candidates_per_doc"]) == want["candidates"] > 0
    assert want["kept"] <= want["candidates"]


def test_job_corpus_has_fixed_work_per_seed(tmp_path):
    corpora = {}
    for seed in (1, 2):
        wl = KgJob(str(tmp_path), seed)
        want = oracles.sequential_triples(gen.document_table(*wl.pool))
        assert want["pages"] == wl.N_DOCS
        assert sum(1 for k in want["kept_per_doc"] if k) == wl.N_RICH
        assert abs(want["candidates"] - wl.N_DOCS * wl.PAIRS_PER_DOC) \
            <= wl.PAIRS_SLACK
        corpora[seed] = wl.pool
    assert KgJob(str(tmp_path), 1).pool == corpora[1]
    assert corpora[1] != corpora[2]


@pytest.mark.skipif(not os.environ.get("PERFBENCH_SF_DIR"),
                    reason="PERFBENCH_SF_DIR not set")
def test_sequential_oracle_matches_library_on_test_data(ray_session):
    import pyarrow.parquet as pq

    from opennre_ray.pipelines.kg import extract_triples

    sf_dir = os.environ["PERFBENCH_SF_DIR"]
    want = oracles.sequential_triples(
        pq.read_table(os.path.join(sf_dir, "documents.parquet")))
    got = extract_triples(sf_dir).to_pandas()
    assert oracles.triple_mismatch(
        set(zip(got["subj"], got["pred"], got["obj"])), want["triples"]) is None


# --- workloads end to end (small sizes) ---------------------------------------

class SmallBuild(KgBuild):
    N_DOCS, N_SHARDS = N_DOCS, 4


class SmallFinalize(KgFinalize):
    N_ROWS, N_ENTITIES, N_FILES = 3000, 500, 2


class SmallJob(KgJob):
    N_DOCS, N_SHARDS = 24, 4


@pytest.mark.parametrize("cls", [SmallBuild, SmallFinalize, SmallJob])
def test_workload_job_passes_its_oracle(ray_session, tmp_path, cls):
    wl = cls(str(tmp_path), seed=1)
    wl.setup(0)
    wl.oracle()
    res = wl.job()
    assert wl.check(res) is None
    assert res["wall_s"] > 0 and res["pages"] > 0 and res["candidates"] > 0


def test_traced_job_reports_layers(ray_session, tmp_path):
    wl = SmallFinalize(str(tmp_path), seed=2)
    wl.setup(0)
    wl.oracle()
    tracer = tracing.Tracer(tracing.make_sink())
    with tracing.patch_layers(tracer), tracer.span("job"):
        res = wl.job(tracer)
    tracer.collect()
    assert wl.check(res) is None
    m = tracing.layer_metrics(tracer.spans)
    assert m["functions.relational.bucket_agg.rows_in"] > 0
    assert m["stages.canonicalize.surfaces"] > 0
    assert m["stages.canonicalize.broadcast"] == 1
    assert m["pipelines.kg.materialize_graph.files"] >= 1
    assert m["stages.score.rows_in"] == 0


# --- span arithmetic --------------------------------------------------------

def test_self_times_subtract_covered_child_intervals():
    spans = [
        {"id": 0, "parent": None, "t0": 0, "t1": 10_000_000_000},
        {"id": 1, "parent": 0, "t0": 1_000_000_000, "t1": 4_000_000_000},
        {"id": 2, "parent": 0, "t0": 3_000_000_000, "t1": 5_000_000_000},
        {"id": 3, "parent": 1, "t0": 2_000_000_000, "t1": 3_000_000_000},
    ]
    got = tracing.self_times(spans)
    assert got == {0: pytest.approx(6.0), 1: pytest.approx(2.0),
                   2: pytest.approx(2.0), 3: pytest.approx(1.0)}


def test_parse_stats_sums_operators():
    text = """Operator 1 ReadParquet->MapBatches(f): 2 tasks executed, 2 blocks produced in 2.26s
* Remote wall time: 1.12s min, 1.13s max, 1.12s mean, 2.25s total
* Remote cpu time: 1.12s min, 1.14s max, 1.13s mean, 2.0s total
* Peak heap memory usage (MiB): 148.73 min, 149.14 max, 148 mean

Operator 2 Sort: executed in 0.1s

\tSuboperator 0 SortSample: 3 tasks executed, 3 blocks produced
\t* Remote wall time: 100.0us min, 5.0ms max, 2.0ms mean, 6.0ms total
\t* Remote cpu time: 90.0us min, 4.0ms max, 1.0ms mean, 3.0ms total
\t* Peak heap memory usage (MiB): 100.0 min, 160.5 max, 120 mean
"""
    got = tracing.parse_stats(text)
    assert got["tasks"] == 5
    assert got["remote_wall_s"] == pytest.approx(2.256)
    assert got["remote_cpu_s"] == pytest.approx(2.003)
    assert got["peak_heap_mb"] == pytest.approx(160.5)
