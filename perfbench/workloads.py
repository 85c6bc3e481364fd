"""The three closed-loop workloads.

Each workload generates its inputs from the seed (``setup``), starts its
workers on a tiny input (``warm_up``), computes the expected output with a
single-process oracle (``oracle``, outside the timed set-up), then runs
one job at a time (``job``), checking every job's output (``check``).

kg_build     model-bound read path: ``extract_triples`` + ``materialize_graph``
             over cost-weighted document shards. ``stages.score`` is most of
             the time; the score filter leaves the wide tail almost idle.
kg_finalize  shuffle-bound tail, no model: ``finalize_triples`` +
             ``materialize_graph`` over a generated candidate table (Zipf
             entities, surface variants, conflicting ids, repeated triples).
             Moves with any shuffle/aggregate change; ``kg_build`` is the
             control where the same change should not move.
kg_job       write path: ``run_kg_job(compact=False)`` over many small
             shards, ``compact_candidates``, then a seeded half of the
             shard outputs is deleted and the job resumes. Per-shard fixed
             cost (plan launch, parquet write, fsync, manifest, counter
             RPCs) dominates. The corpus holds a fixed number of documents
             that yield triples, so compaction always has work.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import time
from functools import partial

import numpy as np

from . import gen, oracles
from .tracing import count_html_bytes, scorer_cache_probe


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


class Workload:
    name = ""

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.n_jobs = 0

    def out_dir(self, tag: str = "") -> str:
        self.n_jobs += 1
        return _fresh(os.path.join(self.work, f"out{tag}"))


class KgBuild(Workload):
    """Pages → triples graph, model-bound."""

    name = "kg_build"
    #: ~2.5 s per job on one core: enough model work (~6k scored pairs) to
    #: dominate the fixed Ray Data launch cost, short enough for ~6 timed
    #: jobs per 20 s run
    N_DOCS = 300
    N_SHARDS = 16
    WARM_DOCS = 8

    def setup(self, rep: int):
        from opennre_ray.sources.pages import shard_documents

        self.docs = gen.documents(self.N_DOCS, self.seed)
        self.sf_dir = _fresh(os.path.join(self.work, f"in{rep}"))
        gen.write_documents(self.docs, self.sf_dir)
        self.shards = shard_documents(self.sf_dir,
                                      os.path.join(self.sf_dir, "shards"),
                                      n_shards=self.N_SHARDS)

    def warm_up(self):
        from opennre_ray.pipelines.kg import extract_triples, materialize_graph

        warm = _fresh(os.path.join(self.work, "warm"))
        gen.write_documents(gen.documents(self.WARM_DOCS, self.seed + 1), warm)
        materialize_graph(extract_triples(warm),
                          _fresh(os.path.join(self.work, "warm-out")))

    def oracle(self):
        self.want = oracles.sequential_triples(self.docs)
        return self.want

    def job(self, tracer=None) -> dict:
        from opennre_ray.pipelines import kg

        out = self.out_dir()
        t0 = time.perf_counter()
        if tracer is None:
            triples = kg.extract_triples(self.sf_dir, docs_path=self.shards)
        else:
            triples = kg.finalize_triples(self._traced_candidates(tracer))
        manifest = kg.materialize_graph(triples, out)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "out": out, "manifest": manifest,
                "pages": self.want["pages"],
                "candidates": self.want["candidates"]}

    def _traced_candidates(self, tracer):
        """The ``read_pages`` + ``candidate_instances`` + filter chain of
        ``extract_triples``, rebuilt from the public stage callables with
        each one wrapped in a timer."""
        import ray.data as rd

        from opennre_ray.pipelines.kg import (DEFAULT_MODEL, SCORE_THRESHOLD,
                                              filter_triples)
        from opennre_ray.sources.pages import documents_to_pages
        from opennre_ray.stages.extract import ExtractText
        from opennre_ray.stages.ner import mentions_udf
        from opennre_ray.stages.pairs import generate_pairs
        from opennre_ray.stages.score import scorer_udf

        ds = rd.read_parquet(self.shards,
                             columns=["doc_id", "text", "lang", "source"])
        ds = ds.map_batches(tracer.timed(documents_to_pages, "sources.pages"),
                            batch_format="pyarrow")
        ds = ds.select_columns(["url", "warc_ts", "html", "lang"])
        chain = [
            (ExtractText(), "stages.extract", count_html_bytes, None),
            (mentions_udf(), "stages.ner", None, None),
            (generate_pairs, "stages.pairs", None, None),
            (scorer_udf(DEFAULT_MODEL), "stages.score", None,
             scorer_cache_probe(DEFAULT_MODEL)),
            (partial(filter_triples, threshold=SCORE_THRESHOLD),
             "pipelines.kg.filter", None, None),
        ]
        for fn, layer, counter, probe in chain:
            kw = {"counter": counter} if counter else {}
            ds = ds.map_batches(tracer.timed(fn, layer, probe=probe, **kw),
                                batch_format="pyarrow")
        return ds

    def check(self, res) -> str | None:
        df = oracles.check_graph_dir(res["out"], res["manifest"])
        return oracles.triple_mismatch(
            set(zip(df["subj"], df["pred"], df["obj"])), self.want["triples"])


class KgFinalize(Workload):
    """Candidate table → canonical deduplicated graph, shuffle-bound."""

    name = "kg_finalize"
    #: ~3.5 s per job on one core; 40k rows over 10k entities gives ~8k
    #: distinct triples and a head bucket several times the mean
    N_ROWS = 40_000
    N_ENTITIES = 10_000
    N_FILES = 4
    WARM_ROWS, WARM_ENTITIES = 400, 100

    def setup(self, rep: int):
        self.cands = gen.candidates(self.N_ROWS, self.N_ENTITIES, self.seed)
        self.files = gen.write_candidates(
            self.cands, _fresh(os.path.join(self.work, f"in{rep}")),
            self.N_FILES)

    def warm_up(self):
        import ray.data as rd

        from opennre_ray.pipelines.kg import finalize_triples, materialize_graph

        files = gen.write_candidates(
            gen.candidates(self.WARM_ROWS, self.WARM_ENTITIES, self.seed + 1),
            _fresh(os.path.join(self.work, "warm")), 1)
        materialize_graph(finalize_triples(rd.read_parquet(files)),
                          _fresh(os.path.join(self.work, "warm-out")))

    def oracle(self):
        self.want = oracles.finalize_frame(self.cands)
        self.pages = len(set(self.cands.column("url").to_pylist()))
        return self.want

    def job(self, tracer=None) -> dict:
        import ray.data as rd

        from opennre_ray.pipelines import kg

        out = self.out_dir()
        t0 = time.perf_counter()
        triples = kg.finalize_triples(rd.read_parquet(self.files))
        manifest = kg.materialize_graph(triples, out)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "out": out, "manifest": manifest,
                "pages": self.pages, "candidates": self.N_ROWS}

    def check(self, res) -> str | None:
        df = oracles.check_graph_dir(res["out"], res["manifest"])
        return oracles.finalize_mismatch(df, self.want)


class KgJob(Workload):
    """Sharded job: commit every shard, compact, lose half, resume."""

    name = "kg_job"
    #: 8 shards of 8 docs: per-shard fixed cost dominates (~0.3 s per
    #: commit on one core against ~0.05 s of model work per shard); a
    #: cycle (run, compact, resume 4 shards) takes ~5 s
    N_DOCS = 64
    N_SHARDS = 8
    WARM_DOCS, WARM_SHARDS = 8, 2
    #: documents in the corpus that yield at least one triple. About 1 in
    #: 90 generated documents does, so a plain 64-document draw has none
    #: on half the seeds; compaction then has nothing to read and the job
    #: time splits into two modes by seed. A fixed count, drawn from a
    #: seeded pool and checked by the oracle, gives every seed the same
    #: shape of work.
    N_RICH = 4
    #: the other documents are taken in pool order, skipping any that
    #: would move the corpus's running scored-pair count more than
    #: PAIRS_SLACK from PAIRS_PER_DOC per document (the generator's mean).
    #: A plain 64-document draw's pair count moves ~7% with the seed
    #: (document length is uniform on 10..100 words), which would show in
    #: candidates_per_s as noise; this way every seed scores the same
    #: number of pairs within a fraction of a percent.
    PAIRS_PER_DOC = 20
    PAIRS_SLACK = 8
    POOL_CHUNK = 128

    def __init__(self, work: str, seed: int):
        super().__init__(work, seed)
        self.pool = self._pool()

    def _pool(self) -> tuple[list[str], list[str]]:
        """(texts, langs) of the corpus, drawn from a seeded pool of
        documents. Runs the oracle over the pool, so it stays out of the
        timed set-up."""
        plain, rich, chunk = [], [], 0
        while True:
            pool = gen.documents(self.POOL_CHUNK, [self.seed, chunk])
            want = oracles.sequential_triples(pool)
            for doc in zip(pool.column("text").to_pylist(),
                           pool.column("lang").to_pylist(),
                           want["candidates_per_doc"], want["kept_per_doc"]):
                (rich if doc[3] else plain).append(doc[:3])
            chunk += 1
            docs = self._fill(plain, rich[:self.N_RICH]) \
                if len(rich) >= self.N_RICH else None
            if docs:
                return [d[0] for d in docs], [d[1] for d in docs]

    def _fill(self, plain: list, rich: list) -> list | None:
        n = self.N_DOCS - self.N_RICH
        per_doc = (self.N_DOCS * self.PAIRS_PER_DOC
                   - sum(d[2] for d in rich)) / n
        docs, total = [], 0
        for doc in plain:
            if abs(total + doc[2] - (len(docs) + 1) * per_doc) \
                    <= self.PAIRS_SLACK:
                docs.append(doc)
                total += doc[2]
                if len(docs) == n:
                    break
        else:
            return None
        step = self.N_DOCS // self.N_RICH
        for i, doc in enumerate(rich):
            docs.insert(i * step, doc)
        return docs

    def setup(self, rep: int):
        from opennre_ray.sources.pages import shard_documents

        self.docs = gen.document_table(*self.pool)
        sf_dir = _fresh(os.path.join(self.work, f"in{rep}"))
        gen.write_documents(self.docs, sf_dir)
        shard_dir = shard_documents(sf_dir, os.path.join(sf_dir, "shards"),
                                    n_shards=self.N_SHARDS)
        self.files = sorted(glob.glob(os.path.join(shard_dir, "*.parquet")))

    def warm_up(self):
        from opennre_ray.pipelines.job import compact_candidates, run_kg_job
        from opennre_ray.sources.pages import shard_documents

        warm = _fresh(os.path.join(self.work, "warm"))
        gen.write_documents(gen.documents(self.WARM_DOCS, self.seed + 1), warm)
        shard_dir = shard_documents(warm, os.path.join(warm, "shards"),
                                    n_shards=self.WARM_SHARDS)
        out = _fresh(os.path.join(self.work, "warm-out"))
        run_kg_job(sorted(glob.glob(os.path.join(shard_dir, "*.parquet"))),
                   out, compact=False)
        compact_candidates(out)

    def oracle(self):
        import pyarrow.parquet as pq

        self.want = oracles.sequential_triples(self.docs)
        if sum(1 for k in self.want["kept_per_doc"] if k) != self.N_RICH:
            raise ValueError("corpus does not hold the documents it was "
                             "drawn to hold")
        per_doc = dict(zip(self.docs.column("doc_id").to_pylist(),
                           self.want["candidates_per_doc"]))
        self.shard_work = {}
        for path in self.files:
            ids = pq.read_table(path, columns=["doc_id"]).column("doc_id")
            name = os.path.splitext(os.path.basename(path))[0]
            self.shard_work[name] = (len(ids),
                                     sum(per_doc[d] for d in ids.to_pylist()))
        return self.want

    def job(self, tracer=None) -> dict:
        from opennre_ray.pipelines import job
        from opennre_ray.pipelines.kg import DEFAULT_MODEL
        from opennre_ray.registry import get_model

        def span(name):
            return tracer.span(name) if tracer else contextlib.nullcontext()

        out = self.out_dir()
        model_hash = get_model(DEFAULT_MODEL).model_hash
        t0 = time.perf_counter()
        with span("pipelines.job.run"):
            first = job.run_kg_job(self.files, out, compact=False)
        t1 = time.perf_counter()
        with span("pipelines.job.compact"):
            triples_dir = job.compact_candidates(out, model_hash=model_hash)
        t2 = time.perf_counter()
        cand_root = os.path.join(out, "candidates")
        commits = self._manifest_mtimes(cand_root)
        rows_before = self._manifest_field(cand_root, "num_rows")
        graph = oracles.check_graph_dir(triples_dir)
        rng = np.random.default_rng((self.seed, self.n_jobs))
        lost = sorted(rng.choice(sorted(self.shard_work), len(self.shard_work)
                                 // 2, replace=False).tolist())
        for name in lost:
            shutil.rmtree(os.path.join(cand_root, f"shard={name}"))
        t3 = time.perf_counter()
        with span("pipelines.job.resume"):
            resumed = job.run_kg_job(self.files, out, compact=False)
        t4 = time.perf_counter()
        resume_commits = self._manifest_mtimes(cand_root, only=lost)
        pages = sum(n for n, _ in self.shard_work.values())
        cands = sum(c for _, c in self.shard_work.values())
        return {
            "wall_s": (t1 - t0) + (t2 - t1) + (t4 - t3),
            "run_s": t1 - t0, "compact_s": t2 - t1, "resume_s": t4 - t3,
            "commit_intervals_s": (np.diff(commits) / 1e9).tolist()
            + (np.diff(resume_commits) / 1e9).tolist(),
            "pages": pages + sum(self.shard_work[n][0] for n in lost),
            "candidates": cands + sum(self.shard_work[n][1] for n in lost),
            "first": first, "resumed": resumed, "lost": lost,
            "graph": graph, "rows_before": rows_before,
            "rows_after": self._manifest_field(cand_root, "num_rows"),
            "pages_counted": sum(
                c.get("pages.rows_in", 0)
                for c in self._manifest_field(cand_root, "counters").values()),
        }

    @staticmethod
    def _manifests(cand_root: str, only=None) -> dict[str, str]:
        out = {}
        for path in glob.glob(os.path.join(cand_root, "shard=*",
                                           "manifest.json")):
            name = os.path.basename(os.path.dirname(path))[len("shard="):]
            if only is None or name in only:
                out[name] = path
        return out

    def _manifest_mtimes(self, cand_root: str, only=None) -> list[int]:
        return sorted(os.stat(p).st_mtime_ns
                      for p in self._manifests(cand_root, only).values())

    def _manifest_field(self, cand_root: str, field: str) -> dict:
        import json

        out = {}
        for name, path in self._manifests(cand_root).items():
            with open(path) as fh:
                out[name] = json.load(fh)[field]
        return out

    def check(self, res) -> str | None:
        names = set(self.shard_work)
        if set(res["first"]["completed"]) != names:
            return f"first run completed {len(res['first']['completed'])} shards"
        if set(res["resumed"]["completed"]) != set(res["lost"]) or \
                set(res["resumed"]["skipped"]) != names - set(res["lost"]):
            return "resume did not redo exactly the deleted shards"
        if res["rows_after"] != res["rows_before"]:
            return "resumed shards hold different row counts"
        if res["pages_counted"] != self.N_DOCS:
            return (f"manifest counters sum to {res['pages_counted']} pages, "
                    f"input has {self.N_DOCS}")
        df = res["graph"]
        return oracles.triple_mismatch(
            set(zip(df["subj"], df["pred"], df["obj"])), self.want["triples"])

    @staticmethod
    def summarize(results: list[dict]) -> dict:
        """Job-level figures read from outside: shard-commit intervals
        (consecutive ``manifest.json`` mtimes), compaction and resume."""
        iv = [x for r in results for x in r["commit_intervals_s"]]
        return {
            "shard_commit_s.p50": _percentile(iv, 50),
            "shard_commit_s.p90": _percentile(iv, 90),
            "shard_commit_s.n": len(iv),
            "compact_s": float(np.median([r["compact_s"] for r in results])),
            "resume_s": float(np.median([r["resume_s"] for r in results])),
        }


WORKLOADS = {w.name: w for w in (KgBuild, KgFinalize, KgJob)}
