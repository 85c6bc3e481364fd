"""The flagship KG-construction pipeline (SURVEY §7.1).

    read pages (parquet / synthesized)
      → ExtractText                (stateless tasks; drops html immediately)
      → mentions_udf               (stateless tasks; compiled alias table
                                    cached per worker)
      → generate_pairs             (stateless explode)
      → scorer_udf                 (stateless tasks; model weights cached
                                    per worker)
      → filter score ≥ τ, rel ≠ NA (vectorized arrow filter)
      → per-block partial          (one row per block and distinct
                                    (h_norm, h_id, pred, t_norm, t_id):
                                    each name normalized once per distinct
                                    value; materialized)
      → canonicalize               (the surface → id map folded in one
                                    task straight from the materialized
                                    partials, then the partials' surfaces
                                    rewritten to subj/obj, grouped by subj)
      → triple dedup               (exact distinct (subj, pred, obj), the
                                    reference's fact-set semantics,
                                    data_loader.py:151-164: the merge,
                                    run by canonicalize_ids per block of
                                    subj-grouped rows)
      → write adjacency parquet (already (subj, pred, obj)-ordered) +
        manifest

Every stage streams; nothing materializes the full corpus — the tail
materializes the per-block partials, whose size scales with distinct
keys per block, not rows. Under the vote bound (2 × partial rows ≤
``CANON_BROADCAST_LIMIT``) two tasks follow the partials — the map
fold, then the rewrite and merge as ONE block — and no exchange: the
graph is one sorted, byte-reproducible file. Above it the map is
bucketed over the votes (a hash shuffle), the rewrite is two bucketed
hash joins on the surface key, and one ``sort("subj")`` serves both the
dedup (all partials of a triple share subj, so they share a range
partition) and the adjacency order the graph is written in.
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.pages import read_pages
from ..stages.canonicalize import canonicalize_ids, map_distinct
from ..stages.extract import ExtractText
from ..stages.pairs import generate_pairs

DEFAULT_MODEL = "wiki80_cnn_softmax"
SCORE_THRESHOLD = 0.12   # seeded-weight scale; ~uniform is 1/|R| = 0.10


def candidate_stages(model_name=DEFAULT_MODEL, threshold=SCORE_THRESHOLD):
    """The candidate chain, pages → filtered candidate rows: ordered
    ``(stage name, batch fn)`` pairs, extract → mentions → pairs → score →
    filter, and the chain settings they were built with. The one
    definition ``extract_triples``, ``candidate_instances`` and the
    sharded job (which counts rows per stage name) all build on.

    Returns ``(stages, settings)``. ``settings`` holds the stage
    constants that shape the rows (``pairs.MAX_GAP``,
    ``pairs.MAX_PAIRS_PER_SENT``, ``ner.MAX_SENT_TOKENS``), read once
    here and bound into the stages, so the job's lineage records exactly
    the values its rows were built with.

    All stages run as stateless tasks with per-worker-cached state
    (model weights, compiled gazetteer regex) — see ``stages.score`` for
    why this beats actor pools for CPU-resident models: elastic task
    scheduling, no pool ramp-up, no pool-vs-pool CPU budget deadlocks.
    """
    from ..stages import ner, pairs
    from ..stages.score import scorer_udf

    settings = {"max_gap": pairs.MAX_GAP,
                "max_pairs_per_sent": pairs.MAX_PAIRS_PER_SENT,
                "max_sent_tokens": ner.MAX_SENT_TOKENS}
    stages = [("extract", ExtractText()),
              ("mentions", ner.mentions_udf(settings["max_sent_tokens"])),
              ("pairs", partial(generate_pairs, max_gap=settings["max_gap"],
                                max_pairs=settings["max_pairs_per_sent"])),
              ("score", scorer_udf(model_name)),
              ("filter", partial(filter_triples, threshold=threshold))]
    return stages, settings


def map_stages(ds, stages):
    """Apply ``(name, batch fn)`` stages in order as pyarrow map_batches.

    batch_size is deliberately None on every stage: a non-None batch_size
    makes the fused operator BUNDLE input blocks until it has that many
    input rows per task, collapsing a 128-block read into ~5 giant tasks
    and serializing the pipeline. Task granularity = one input block;
    numeric chunking happens inside RelationScorer (CHUNK rows).
    """
    for _, fn in stages:
        ds = ds.map_batches(fn, batch_format="pyarrow")
    return ds


def candidate_instances(pages_ds, *, model_name=DEFAULT_MODEL):
    """pages → scored, UNFILTERED instance rows: the candidate chain
    without its final filter stage."""
    stages, _ = candidate_stages(model_name)
    return map_stages(pages_ds, stages[:-1])


def filter_triples(batch: pa.Table, threshold: float = SCORE_THRESHOLD) -> pa.Table:
    keep = pc.and_(pc.not_equal(batch.column("pred_rel"), "NA"),
                   pc.greater_equal(batch.column("score"), threshold))
    return batch.filter(keep)


#: candidate columns the wide-stage tail consumes (canonical map + dedup);
#: the sharded job persists exactly these per shard — single source of truth
CANDIDATE_COLUMNS = ["h_id", "h_name", "t_id", "t_name", "pred_rel",
                     "score", "url", "model_hash"]


#: the triple aggregate, defined once: (output column, per-block partial
#: kernel, merge kernel). Count, max and min all decompose, so merging
#: the per-block partials after the exchange is exact.
_TRIPLE_KEYS = ["subj", "pred", "obj"]
_TRIPLE_AGG = [("n_evidence", "count_all", "sum"),
               ("score", "max", "max"),
               ("sample_url", "min", "min"),
               ("model_hash", "min", "min")]
_TRIPLE_COLUMNS = _TRIPLE_KEYS + [col for col, _, _ in _TRIPLE_AGG]
#: the per-block partial's key: the triple key before canonicalization
#: (surfaces and linker ids), which also carries the canonical map's votes
_PARTIAL_KEYS = ["h_norm", "h_id", "pred", "t_norm", "t_id"]


def _aggregate_triples(t: pa.Table, keys: list[str], merge: bool) -> pa.Table:
    """One ``group_by(keys)`` pass of ``_TRIPLE_AGG``: the partial over
    candidate rows, or (``merge``) the fold of partials."""
    fns = [(col, m if merge else p) for col, p, m in _TRIPLE_AGG]
    out = t.group_by(keys, use_threads=False).aggregate(
        [([], fn) if fn == "count_all" else (col, fn) for col, fn in fns])
    return out.select(keys + [
        fn if fn == "count_all" else f"{col}_{fn}" for col, fn in fns
    ]).rename_columns(keys + [col for col, _ in fns])


def _partial_triples(batch: pa.Table) -> pa.Table:
    """Per-block partial, keyed by surface: candidates → one row per
    (h_norm, h_id, pred, t_norm, t_id). Each name is normalized once per
    distinct value. Null keys are kept: a row with a null ``pred_rel``
    still votes in the canonical map, and the rewrite drops it after."""
    from ..stages.ner import normalize_surface

    t = pa.table({
        "h_norm": map_distinct(batch["h_name"], normalize_surface),
        "h_id": batch["h_id"],
        "pred": batch["pred_rel"],
        "t_norm": map_distinct(batch["t_name"], normalize_surface),
        "t_id": batch["t_id"],
        "score": batch["score"],
        "sample_url": batch["url"],
        "model_hash": batch["model_hash"],
    })
    return _aggregate_triples(t, _PARTIAL_KEYS, merge=False)


def _merge_triples(block: pa.Table) -> pa.Table:
    """``canonicalize_ids``' merge: one block of subj-grouped partials →
    triples, in (subj, pred, obj) order. Every row of a subj is in one
    block (the one block under the vote bound; above it a range
    partition, which ``map_batches`` without a batch_size sees whole, as
    Ray's own ``GroupedData.map_groups`` relies on)."""
    return _aggregate_triples(block, _TRIPLE_KEYS, merge=True).sort_by(
        [(k, "ascending") for k in _TRIPLE_KEYS])


def finalize_triples(inst_ds):
    """Shared wide-stage tail: filtered candidates → deduplicated triples,
    ordered by subj.

    Dedups exactly — the reference's distinct fact set,
    ``data_loader.py:151-164``: the per-block partial keyed by surface
    (``_partial_triples``, materialized), then ``canonicalize_ids``, one
    of two paths by the vote bound. Under it the canonical map is folded
    in one task from those partials, and one more task rewrites their
    surfaces to subj/obj and runs ``_merge_triples`` as ONE block. Above
    it the map is bucketed, the rewrite is two hash joins, and
    ``_merge_triples`` runs per range partition of ONE ``sort("subj")``
    exchange. Exact because the canonical id of a mention is a function
    of its normalized surface alone, so the triple key is a function of the
    partial key, and every aggregate decomposes. Used by
    ``extract_triples``, the sharded job's compaction and the queries'
    triples cache, so semantics cannot drift.

    Output: subj, pred, obj (canonical ids), n_evidence (instance count),
    score (max), sample_url (min url), model_hash (min); globally ordered
    by subj, and by (subj, pred, obj) within a block.

    Memory bound: under the vote bound one task holds every partial
    (at most ``CANON_BROADCAST_LIMIT`` / 2 rows). Skew bound above it:
    the exchange moves per-block partials, not deduplicated triples, so
    the largest merge block holds up to (input blocks) × (distinct
    partial keys — triples times their surface and id variants — of the
    hottest subj) rows, plus the other subjs of its range partition.
    """
    partials = inst_ds.map_batches(_partial_triples,
                                   batch_format="pyarrow").materialize()
    return canonicalize_ids(partials, _TRIPLE_COLUMNS, _merge_triples)


def extract_triples(sf_dir: str, *, model_name=DEFAULT_MODEL, repeat=1,
                    docs_path=None):
    """Full pipeline → deduplicated triple Dataset, ordered by subj
    (``finalize_triples``' output schema)."""
    pages = read_pages(sf_dir, repeat=repeat, docs_path=docs_path)
    stages, _ = candidate_stages(model_name)
    return finalize_triples(map_stages(pages, stages))


def materialize_graph(triples_ds, out_dir: str, model_hash: str = ""):
    """Graph materialize: the triples as adjacency-ordered parquet files +
    manifest.

    Writes ``triples_ds`` in the order it arrives; ``finalize_triples``
    output is already ordered by subj, which clusters each entity's
    outgoing edges (adjacency-list layout) and lets readers range-prune
    by subj on parquet row-group stats. A zero-row input writes no data
    file and an empty manifest.
    """
    import json
    import os

    triples_ds.write_parquet(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
    manifest = {
        "version": 1,
        "model_hash": model_hash,
        "files": files,
        "num_files": len(files),
    }
    with open(os.path.join(out_dir, "_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
