"""Resumable sharded KG-construction job (the ``ray job submit`` entry).

Corpus = a set of input shards (parquet files). Each shard's rows run the
full candidate chain and land in an atomic output partition
``shard=<name>/`` with a manifest carrying lineage (input path and
fingerprint, model hash and name, threshold, extractor version) and
per-stage row counters. The reference has no data-plane resume at all,
only best-model saves (``sentence_re.py:134-139``).

One call = ONE Ray Data execution over every pending shard: the read
carries each row's input path, and one ``map_batches`` task runs the
stage chain per (block, shard) group, counting rows into a plain dict,
staging the group's output part under ``<phase_dir>/_stage-<pid>/`` and
returning one small record. The driver streams the records and publishes
a shard (``lineage.write_shard``) the moment its first stage has counted
every row of its input file, so per-shard fixed cost is a rename and a
manifest, not a plan launch.

Crash contract: a shard is either published with its manifest or absent.
A shard whose chain raised, or whose rows came back short, is not
published; the others still are, and the call then raises with the
original error text. A restart redoes exactly the shards without a
manifest matching the current run's lineage (``is_shard_complete``), so
resume never mixes configurations; the compaction reads exactly this
run's shards.
"""

from __future__ import annotations

import json
import os
import shutil
import traceback
import uuid
from functools import partial

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..registry import get_model
from ..sources.pages import PAGE_COLUMNS, documents_to_pages
from ..stages.extract import EXTRACTOR_VERSION
from ..state import lineage
from .kg import CANDIDATE_COLUMNS, DEFAULT_MODEL, SCORE_THRESHOLD

#: one record per (block, shard) group, streamed back to the driver
_RECORD = pa.schema([("path", pa.string()), ("part", pa.string()),
                     ("counts", pa.string()), ("error", pa.string())])


def _counted(fn, counters: dict, stage: str):
    """Wrap a batch UDF to add its rows-in/rows-out into ``counters``.

    ``counters`` travels to the worker inside the same pickled task as
    ``_run_groups``, which clears it before each group and snapshots it
    after, so every group's record carries exactly its own counts — no
    actor, no RPC per batch.
    """
    def wrapper(batch):
        out = fn(batch)
        for key, n in ((f"{stage}.rows_in", batch.num_rows),
                       (f"{stage}.rows_out", out.num_rows)):
            counters[key] = counters.get(key, 0) + n
        return out

    return wrapper


def _run_groups(batch: pa.Table, *, stages, counters: dict, columns,
                stage_dir: str) -> pa.Table:
    """map_batches UDF: run the chain on each input file's rows of this
    block, stage the non-empty output as one part file, and return one
    record per group. A chain error becomes that group's record (with its
    traceback) so the other shards still publish."""
    records = []
    paths = batch.column("path")
    for path in pc.unique(paths).to_pylist():
        group = batch.filter(pc.equal(paths, path)).drop_columns(["path"])
        counters.clear()
        part = error = ""
        try:
            for _, fn in stages:
                group = fn(group)
            if group.num_rows:
                part = os.path.join(stage_dir, f"{uuid.uuid4().hex}.parquet")
                pq.write_table(group.select(columns), part)
        except Exception:                           # reported per shard
            error = traceback.format_exc()
        records.append({"path": path, "part": part,
                        "counts": json.dumps(counters), "error": error})
    return pa.Table.from_pylist(records, schema=_RECORD)


def _run_job(shard_files, out_root: str, phase_dir: str, read_columns,
             stages, out_columns, *, lineage_items: dict,
             finalize) -> dict:
    """The two-phase job shape both jobs share.

    Phase 1 (resumable): every pending shard in one Ray Data execution —
    ``read_columns`` of each input, the ``(name, batch fn)`` ``stages``
    in order, ``out_columns`` of the result — each published as
    ``<out_root>/<phase_dir>/shard=<name>/`` with a manifest recording
    ``lineage_items``, the input's path and fingerprint, and the shard's
    per-stage counts. A shard whose manifest records the same lineage is
    skipped. Phase 2: ``finalize(names)`` over this run's shard names
    (None skips it) returns entries merged into the result.
    """
    if isinstance(shard_files, list):
        shard_files = {
            os.path.splitext(os.path.basename(p))[0]: p for p in shard_files}
    root = os.path.join(out_root, phase_dir)
    want = {n: {**lineage_items, "input_path": p,
                "input_fingerprint": lineage.input_fingerprint(p)}
            for n, p in shard_files.items()}
    pending = {n: p for n, p in shard_files.items()
               if not lineage.is_shard_complete(root, n, want[n])}
    stage_dir = lineage.staging_dir(root)
    try:
        failed = _stream_publish(pending, root, want, read_columns, stages,
                                 out_columns, stage_dir) if pending else {}
    finally:
        shutil.rmtree(stage_dir, ignore_errors=True)
    if failed:
        raise RuntimeError("shards not published: " + "; ".join(
            f"{n}: {msg}" for n, msg in failed.items()))
    result = {"completed": list(pending),
              "skipped": [n for n in shard_files if n not in pending]}
    if finalize is not None:
        result.update(finalize(list(shard_files)))
    return result


def _stream_publish(files: dict, root: str, want: dict, read_columns,
                    stages, out_columns, stage_dir: str) -> dict:
    """Run ``files`` through the chain as one execution and consume its
    records, publishing each shard as soon as its first stage has counted
    every row of its input file (parquet footer). Returns {shard: reason}
    for the shards that could not be published."""
    import ray.data as rd

    counters: dict = {}
    chain = [(name, _counted(fn, counters, name)) for name, fn in stages]
    records = rd.read_parquet(
        list(files.values()), columns=read_columns, include_paths=True,
    ).map_batches(partial(_run_groups, stages=chain, counters=counters,
                          columns=out_columns, stage_dir=stage_dir),
                  batch_format="pyarrow")
    name_of = {os.path.abspath(p): n for n, p in files.items()}
    expect = {n: pq.ParquetFile(p).metadata.num_rows
              for n, p in files.items()}
    first = f"{stages[0][0]}.rows_in"
    counts = {n: {f"{s}.rows_{io}": 0 for s, _ in stages
                  for io in ("in", "out")} for n in files}
    parts: dict = {n: [] for n in files}
    errors: dict = {}
    done = set()

    def publish_if_whole(n):
        if n not in done and n not in errors \
                and counts[n][first] == expect[n]:
            lineage.write_shard(parts[n], root, n,
                                {**want[n], "counters": counts[n]})
            done.add(n)

    for rec in records.iter_rows():
        n = name_of[os.path.abspath(rec["path"])]
        if rec["error"]:
            errors[n] = rec["error"]
            continue
        for key, v in json.loads(rec["counts"]).items():
            counts[n][key] += v
        if rec["part"]:
            parts[n].append(rec["part"])
        publish_if_whole(n)
    for n in files:                       # inputs with no rows at all
        publish_if_whole(n)
    return {n: errors.get(n) or f"{first} {counts[n][first]} of "
            f"{expect[n]} input rows" for n in files if n not in done}


def _pages(batch: pa.Table) -> pa.Table:
    return documents_to_pages(batch).select(PAGE_COLUMNS)


def compact_candidates(out_root: str, *, model_hash: str = "",
                       shards=None) -> str:
    """Global finalize: candidate shards → canonical deduped triples.

    Reads the named ``shards`` (every ``shard=*`` dir when None), builds
    the surface→canonical map ONCE over their candidates (cross-shard
    consistent ids), dedups triples across shards, and publishes the
    subj-sorted graph to ``<out_root>/triples/`` (``lineage.publish``).
    Idempotent: re-running after new shards land — or after a crash
    mid-publish — simply rebuilds the graph; the expensive model pass is
    never repeated (it is the resumable part).
    """
    import ray.data as rd

    from .kg import finalize_triples, materialize_graph

    cand_files = _shard_parts(os.path.join(out_root, "candidates"), shards)

    def write(tmp):
        if cand_files:
            # partitioning=None: the default hive partitioning would add
            # the `shard=<name>` dir as a `shard` column to every row
            cands = rd.read_parquet(cand_files, partitioning=None)
            materialize_graph(finalize_triples(cands), tmp,
                              model_hash=model_hash)

    return lineage.publish(out_root, "triples", write)


def _shard_parts(root: str, shards) -> list[str]:
    import glob

    dirs = ["shard=*"] if shards is None else [f"shard={n}" for n in shards]
    return sorted(f for d in dirs
                  for f in glob.glob(os.path.join(root, d, "*.parquet")))


def run_kg_job(shard_files: list[str] | dict[str, str], out_root: str, *,
               model_name=DEFAULT_MODEL, threshold=SCORE_THRESHOLD,
               compact: bool = True) -> dict:
    """Resume-aware two-phase job.

    Phase 1 (resumable): the model pass over every pending input shard
    (``_pages`` then ``kg.candidate_stages``), each shard's candidate rows
    published to ``<out_root>/candidates/shard=<name>/`` with a manifest
    (lineage + stage counters). Canonicalization and dedup are NOT applied
    per shard: the surface→canonical-id map must be built from GLOBAL
    counts and triple dedup must span shards. Phase 2 (idempotent): one
    global canonicalize+dedup over this run's candidate shards →
    ``<out_root>/triples/`` — identical semantics to ``extract_triples``
    on the whole corpus, regardless of sharding.

    Args:
        shard_files: list of parquet paths (shard name = basename), or an
            explicit {name: path} mapping.
    Returns {completed, skipped, triples_dir}.
    """
    from .kg import candidate_stages

    model_hash = get_model(model_name).model_hash
    stages, settings = candidate_stages(model_name, threshold)

    def finalize(names):
        return {"triples_dir": compact_candidates(
            out_root, model_hash=model_hash, shards=names)}

    return _run_job(
        shard_files, out_root, "candidates",
        ["doc_id", "text", "lang", "source"],
        [("pages", _pages)] + stages,
        CANDIDATE_COLUMNS,
        # the chain's code is guarded by its version and by the stage
        # constants its rows were built with
        lineage_items={"model_hash": model_hash, "model_name": model_name,
                       "threshold": threshold,
                       "extractor_version": EXTRACTOR_VERSION, **settings},
        finalize=finalize if compact else None)


# ---------------------------------------------------------------------------
# Resumable curation job (second flagship): Gopher filter per shard,
# global temperature-sample + paragraph-dedup + chunk finalize
# ---------------------------------------------------------------------------

CURATION_VERSION = "curation-v1"
_CURATION_COLUMNS = ["doc_id", "lang", "text"]


def _gopher_keep(batch: pa.Table) -> pa.Table:
    """Gopher-filter survivors (the row-local, restartable stage).
    Temperature sampling, paragraph dedup and chunking need GLOBAL
    language counts and segment frequencies, so they run once in
    ``compact_chunks``."""
    from ..functions.textstats import gopher_signals

    mask = pa.array([bool(gopher_signals(t)[5])
                     for t in batch.column("text").to_pylist()])
    return batch.filter(mask)


def compact_chunks(out_root: str, *, alpha: float = 0.3, para_w: int = 10,
                   chunk_size: int = 32, chunk_stride: int = 24,
                   shards=None) -> str:
    """Global finalize: filtered shards (every ``shard=*`` dir when
    ``shards`` is None) → temperature-rebalanced, paragraph-deduped,
    chunked corpus, published to ``<out_root>/chunks/`` (same contract as
    ``compact_candidates``); the per-shard filter pass is never repeated.
    """
    import ray.data as rd

    from ..functions.dedup import paragraph_dedup
    from ..functions.packing import chunk_windows, temperature_sample

    filt_files = _shard_parts(os.path.join(out_root, "filtered"), shards)

    def write(tmp):
        if filt_files:
            ds = rd.read_parquet(filt_files, partitioning=None)
            sampled = temperature_sample(ds, "lang", "doc_id", alpha=alpha)
            cleaned = paragraph_dedup(sampled, w=para_w)
            chunks = chunk_windows(cleaned, size=chunk_size,
                                   stride=chunk_stride,
                                   text_col="clean_text")
            chunks.write_parquet(tmp)

    return lineage.publish(out_root, "chunks", write)


def run_curation_job(shard_files: list[str] | dict[str, str],
                     out_root: str, *, alpha: float = 0.3,
                     para_w: int = 10, chunk_size: int = 32,
                     chunk_stride: int = 24,
                     compact: bool = True) -> dict:
    """Resume-aware curation job, same two-phase shape as ``run_kg_job``:
    phase 1 writes each shard's Gopher survivors to
    ``<out_root>/filtered/shard=<name>/`` with a manifest (restarts skip
    completed shards); phase 2 runs the global sample→dedup→chunk
    finalize once, idempotently, over this run's shards. Returns
    {completed, skipped, chunks_dir}."""
    def finalize(names):
        return {"chunks_dir": compact_chunks(
            out_root, alpha=alpha, para_w=para_w, chunk_size=chunk_size,
            chunk_stride=chunk_stride, shards=names)}

    return _run_job(shard_files, out_root, "filtered", _CURATION_COLUMNS,
                    [("gopher", _gopher_keep)], _CURATION_COLUMNS,
                    lineage_items={"model_hash": "",
                                   "extractor_version": CURATION_VERSION},
                    finalize=finalize if compact else None)
