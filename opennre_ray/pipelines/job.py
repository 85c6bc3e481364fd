"""Resumable sharded KG-construction job (the ``ray job submit`` entry).

Corpus = a set of input shards (parquet files / key ranges). Each shard runs
the full triple-extraction pipeline and writes an atomic output partition
``shard=<name>/`` with a manifest carrying lineage (input path, model hash,
extractor version) and per-stage row counters. A restarted job skips shards
whose manifests exist — exact resume mid-corpus with no coordination
service (north-star checkpoint/resume; the reference has no data-plane
resume at all, only best-model saves, ``sentence_re.py:134-139``).

Counters are collected by a zero-CPU Ray actor that every stage tallies
into per batch (awaited, so the post-write snapshot can't race in-flight
adds), then snapshotted into each shard's manifest — per-partition metrics
without a metrics service.
"""

from __future__ import annotations

import os
from functools import partial

import pyarrow as pa

from ..registry import get_model
from ..stages.extract import EXTRACTOR_VERSION
from ..state.lineage import ShardManifest, publish, run_sharded
from .kg import CANDIDATE_COLUMNS, DEFAULT_MODEL, SCORE_THRESHOLD


def _counter_actor():
    import ray

    @ray.remote(num_cpus=0)
    class Counters:
        def __init__(self):
            self.counts: dict[str, int] = {}

        def add_many(self, updates: dict) -> bool:
            for key, n in updates.items():
                self.counts[key] = self.counts.get(key, 0) + int(n)
            return True

        def snapshot(self, reset: bool = False) -> dict:
            out = dict(self.counts)
            if reset:
                self.counts.clear()
            return out

    return Counters.remote()


def _counted(fn, counters, stage: str):
    """Wrap a batch UDF to tally rows-in/rows-out into the counter actor.

    The add is AWAITED (one tiny RPC per batch): a fire-and-forget add can
    still be in flight when the post-write snapshot(reset=True) runs, which
    would drop it from this shard's manifest and mis-attribute it to the
    next shard's.
    """
    import ray

    def wrapper(batch):
        out = fn(batch)
        n_in = batch.num_rows if hasattr(batch, "num_rows") else len(batch)
        n_out = out.num_rows if hasattr(out, "num_rows") else len(out)
        ray.get(counters.add_many.remote(
            {f"{stage}.rows_in": n_in, f"{stage}.rows_out": n_out}))
        return out

    return wrapper


def shard_candidates(shard_file: str, *, model_name=DEFAULT_MODEL,
                     threshold=SCORE_THRESHOLD, counters=None):
    """Scored, filtered candidate rows for ONE input shard → Dataset.

    The expensive model pass, per shard and resumable: a counted ``pages``
    stage, then ``kg.candidate_stages``. Canonicalization and dedup are NOT
    applied here: the surface→canonical-id map must be built from GLOBAL
    counts, and triple dedup must span shards — both happen once in
    ``compact_candidates`` (a per-shard finalize would canonicalize the
    same surface to different ids in different shards and emit duplicate
    triples across shards).
    """
    import ray.data as rd

    from ..sources.pages import PAGE_COLUMNS, documents_to_pages
    from .kg import candidate_stages, map_stages

    def count(name, fn):
        return fn if counters is None else _counted(fn, counters, name)

    ds = rd.read_parquet(shard_file,
                         columns=["doc_id", "text", "lang", "source"])
    ds = ds.map_batches(count("pages", documents_to_pages),
                        batch_format="pyarrow").select_columns(PAGE_COLUMNS)
    ds = map_stages(ds, [(name, count(name, fn)) for name, fn in
                         candidate_stages(model_name, threshold)])
    return ds.select_columns(CANDIDATE_COLUMNS)


def compact_candidates(out_root: str, *, model_hash: str = "") -> str:
    """Global finalize: all candidate shards → canonical deduped triples.

    Builds the surface→canonical map ONCE over every shard's candidates
    (cross-shard consistent ids), dedups triples across shards, and
    publishes the subj-sorted graph to ``<out_root>/triples/``
    (``lineage.publish``). Idempotent: re-running after new shards land —
    or after a crash mid-publish — simply rebuilds the graph; the
    expensive model pass is never repeated (it is the resumable part).
    """
    import glob

    import ray.data as rd

    from .kg import finalize_triples, materialize_graph

    cand_files = sorted(glob.glob(
        os.path.join(out_root, "candidates", "shard=*", "*.parquet")))

    def write(tmp):
        if cand_files:
            materialize_graph(finalize_triples(rd.read_parquet(cand_files)),
                              tmp, model_hash=model_hash)

    return publish(out_root, "triples", write)


def _run_job(shard_files, out_root: str, phase_dir: str, build, *,
             model_hash: str, version: str, finalize) -> dict:
    """The two-phase job shape both jobs share.

    Phase 1 (resumable): ``build(path, counters)`` per shard, written to
    ``<out_root>/<phase_dir>/shard=<name>/`` with a manifest snapshotting
    that shard's stage counters; restarts skip completed shards.
    Phase 2: ``finalize()`` (None skips it) returns entries merged into
    the result.
    """
    import ray

    if isinstance(shard_files, list):
        shard_files = {
            os.path.splitext(os.path.basename(p))[0]: p for p in shard_files}
    counters = _counter_actor()

    def make_manifest(name):
        snap = ray.get(counters.snapshot.remote(reset=True))
        return ShardManifest(
            name, input_path=shard_files[name], model_hash=model_hash,
            extractor_version=version, counters=snap)

    result = run_sharded(
        {n: partial(build, p, counters) for n, p in shard_files.items()},
        os.path.join(out_root, phase_dir), make_manifest)
    if finalize is not None:
        result.update(finalize())
    return result


def run_kg_job(shard_files: list[str] | dict[str, str], out_root: str, *,
               model_name=DEFAULT_MODEL, threshold=SCORE_THRESHOLD,
               compact: bool = True) -> dict:
    """Resume-aware two-phase job.

    Phase 1 (resumable): per input shard, run the model pass and write
    candidate rows to ``<out_root>/candidates/shard=<name>/`` with a
    manifest (lineage + stage counters). Restarts skip completed shards.
    Phase 2 (idempotent): one global canonicalize+dedup over all candidate
    shards → ``<out_root>/triples/`` — identical semantics to
    ``extract_triples`` on the whole corpus, regardless of sharding.

    Args:
        shard_files: list of parquet paths (shard name = basename), or an
            explicit {name: path} mapping.
    Returns {completed, skipped, triples_dir}.
    """
    model_hash = get_model(model_name).model_hash

    def build(path, counters):
        return shard_candidates(path, model_name=model_name,
                                threshold=threshold, counters=counters)

    def finalize():
        return {"triples_dir": compact_candidates(out_root,
                                                  model_hash=model_hash)}

    return _run_job(shard_files, out_root, "candidates", build,
                    model_hash=model_hash, version=EXTRACTOR_VERSION,
                    finalize=finalize if compact else None)


# ---------------------------------------------------------------------------
# Resumable curation job (second flagship): Gopher filter per shard,
# global temperature-sample + paragraph-dedup + chunk finalize
# ---------------------------------------------------------------------------

CURATION_VERSION = "curation-v1"


def shard_filtered(shard_file: str, *, counters=None):
    """Gopher-filtered survivors for ONE input shard → Dataset
    (doc_id, lang, text). The row-local (cheap, restartable) stage.
    Temperature sampling, paragraph dedup and chunking are NOT applied
    here: language counts and segment frequencies must be GLOBAL — both
    happen once in ``compact_chunks`` (a per-shard finalize would sample
    against shard-local language mixes and miss cross-shard boilerplate).
    """
    import ray.data as rd

    from ..functions.textstats import gopher_signals

    ds = rd.read_parquet(shard_file, columns=["doc_id", "lang", "text"])

    def keep(batch: pa.Table) -> pa.Table:
        mask = pa.array([bool(gopher_signals(t)[5])
                         for t in batch.column("text").to_pylist()])
        return batch.filter(mask)

    fn = keep if counters is None else _counted(keep, counters, "gopher")
    return ds.map_batches(fn, batch_format="pyarrow")


def compact_chunks(out_root: str, *, alpha: float = 0.3, para_w: int = 10,
                   chunk_size: int = 32, chunk_stride: int = 24) -> str:
    """Global finalize: all filtered shards → temperature-rebalanced,
    paragraph-deduped, chunked corpus, published to ``<out_root>/chunks/``
    (same contract as ``compact_candidates``); the per-shard filter pass
    is never repeated.
    """
    import glob

    import ray.data as rd

    from ..functions.dedup import paragraph_dedup
    from ..functions.packing import chunk_windows, temperature_sample

    filt_files = sorted(glob.glob(
        os.path.join(out_root, "filtered", "shard=*", "*.parquet")))

    def write(tmp):
        if filt_files:
            ds = rd.read_parquet(filt_files)
            sampled = temperature_sample(ds, "lang", "doc_id", alpha=alpha)
            cleaned = paragraph_dedup(sampled, w=para_w)
            chunks = chunk_windows(cleaned, size=chunk_size,
                                   stride=chunk_stride,
                                   text_col="clean_text")
            chunks.write_parquet(tmp)

    return publish(out_root, "chunks", write)


def run_curation_job(shard_files: list[str] | dict[str, str],
                     out_root: str, *, alpha: float = 0.3,
                     para_w: int = 10, chunk_size: int = 32,
                     chunk_stride: int = 24,
                     compact: bool = True) -> dict:
    """Resume-aware curation job, same two-phase shape as ``run_kg_job``:
    phase 1 writes each shard's Gopher survivors to
    ``<out_root>/filtered/shard=<name>/`` with a manifest (restarts skip
    completed shards); phase 2 runs the global sample→dedup→chunk
    finalize once, idempotently. Returns {completed, skipped,
    chunks_dir}."""
    def build(path, counters):
        return shard_filtered(path, counters=counters)

    def finalize():
        return {"chunks_dir": compact_chunks(
            out_root, alpha=alpha, para_w=para_w, chunk_size=chunk_size,
            chunk_stride=chunk_stride)}

    return _run_job(shard_files, out_root, "filtered", build,
                    model_hash="", version=CURATION_VERSION,
                    finalize=finalize if compact else None)
