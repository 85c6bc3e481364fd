"""The flagship KG-construction pipeline (SURVEY §7.1).

    read pages (parquet / synthesized)
      → ExtractText                (stateless tasks; drops html immediately)
      → mentions_udf               (stateless tasks; compiled alias table
                                    cached per worker)
      → generate_pairs             (stateless explode)
      → scorer_udf                 (stateless tasks; model weights cached
                                    per worker)
      → filter score ≥ τ, rel ≠ NA (vectorized arrow filter)
      → canonicalize               (two-phase groupby + broadcast rewrite)
      → triple dedup               (groupby (subj,pred,obj) — exact distinct,
                                    the reference's fact-set semantics,
                                    data_loader.py:151-164)
      → sort(subj) → write adjacency parquet partitions + lineage manifest

Every stage streams; nothing materializes the full corpus. The only wide
operations are the two groupbys and the final sort, all over data already
reduced by filtering/partial aggregation.
"""

from __future__ import annotations

from functools import partial

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.pages import read_pages
from ..stages.canonicalize import canonicalize_ids
from ..stages.extract import ExtractText
from ..stages.pairs import generate_pairs

DEFAULT_MODEL = "wiki80_cnn_softmax"
SCORE_THRESHOLD = 0.12   # seeded-weight scale; ~uniform is 1/|R| = 0.10


def candidate_stages(model_name=DEFAULT_MODEL, threshold=SCORE_THRESHOLD):
    """The candidate chain, pages → filtered candidate rows, as ordered
    ``(stage name, batch fn)`` pairs: extract → mentions → pairs → score →
    filter. The one definition ``extract_triples``, ``candidate_instances``
    and the sharded job (which counts rows per stage name) all build on.

    All stages run as stateless tasks with per-worker-cached state
    (model weights, compiled gazetteer regex) — see ``stages.score`` for
    why this beats actor pools for CPU-resident models: elastic task
    scheduling, no pool ramp-up, no pool-vs-pool CPU budget deadlocks.
    """
    from ..stages.ner import mentions_udf
    from ..stages.score import scorer_udf

    return [("extract", ExtractText()),
            ("mentions", mentions_udf()),
            ("pairs", generate_pairs),
            ("score", scorer_udf(model_name)),
            ("filter", partial(filter_triples, threshold=threshold))]


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
    return map_stages(pages_ds, candidate_stages(model_name)[:-1])


def filter_triples(batch: pa.Table, threshold: float = SCORE_THRESHOLD) -> pa.Table:
    keep = pc.and_(pc.not_equal(batch.column("pred_rel"), "NA"),
                   pc.greater_equal(batch.column("score"), threshold))
    return batch.filter(keep)


#: candidate columns the wide-stage tail consumes (canonical map + dedup);
#: the sharded job persists exactly these per shard — single source of truth
CANDIDATE_COLUMNS = ["h_id", "h_name", "t_id", "t_name", "pred_rel",
                     "score", "url", "model_hash"]


def finalize_triples(inst_ds):
    """Shared wide-stage tail: filtered candidates → deduplicated triples.

    Two passes for canonicalization (pass 1 builds the tiny surface →
    canonical map from the materialized candidates, pass 2 rewrites via a
    broadcast), then exact triple dedup == the reference's distinct fact
    set (``data_loader.py:151-164``). Group count ≈ #distinct triples
    (unbounded at corpus scale) → coarse hash buckets + vectorized
    per-bucket aggregation instead of Ray's per-group path. Used by both
    ``extract_triples`` and the sharded job so semantics cannot drift.
    """
    import pandas as pd

    from ..functions.relational import hash_bucket_aggregate

    # keep ONLY the columns the two passes need (names for the map,
    # ids/score/lineage for dedup) — materializing with `text` & spans
    # attached would hold every surviving candidate's sentence in the
    # object store for no consumer (at corpus scale that is the
    # difference between caching candidates and caching the corpus)
    inst_ds = inst_ds.select_columns(CANDIDATE_COLUMNS).materialize()
    # size-gated: broadcast map under CANON_BROADCAST_LIMIT distinct
    # surfaces (the gazetteer reality), bucketed-join rewrite above it
    # (open-web NER, surfaces ≈ corpus cardinality)
    inst_ds = canonicalize_ids(inst_ds, CANDIDATE_COLUMNS)

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["h_id", "pred_rel", "t_id"], as_index=False)
               .agg(n_evidence=("score", "size"), score=("score", "max"),
                    sample_url=("url", "min"),
                    model_hash=("model_hash", "min")))
        return out.rename(columns={"h_id": "subj", "pred_rel": "pred",
                                   "t_id": "obj"})

    proj = inst_ds.select_columns(["h_id", "pred_rel", "t_id", "score",
                                   "url", "model_hash"])
    return hash_bucket_aggregate(proj, ["h_id", "pred_rel", "t_id"],
                                 dedup_bucket)


def extract_triples(sf_dir: str, *, model_name=DEFAULT_MODEL, repeat=1,
                    docs_path=None):
    """Full pipeline → deduplicated triple Dataset.

    Output schema: subj, pred, obj (canonical ids), n_evidence (instance
    count), score (max), sample_url, model_hash (per-row lineage).
    """
    pages = read_pages(sf_dir, repeat=repeat, docs_path=docs_path)
    return finalize_triples(map_stages(pages, candidate_stages(model_name)))


def materialize_graph(triples_ds, out_dir: str, model_hash: str = ""):
    """Dedup-and-sort graph materialize: adjacency-ordered parquet + manifest.

    Sorting by subj clusters each entity's outgoing edges (adjacency-list
    layout); parquet row-group stats then let readers range-prune by subj.
    """
    import json
    import os

    sorted_ds = triples_ds.sort("subj")
    sorted_ds.write_parquet(out_dir)
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
