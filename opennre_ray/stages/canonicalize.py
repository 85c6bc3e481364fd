"""Entity canonicalization: groupby-aggregate on normalized surfaces.

North-star requirement: "entity canonicalization runs as a groupby-aggregate
shuffle on normalized surface-form keys with explicit hash partitioning and
salted keys for head-entity skew". Design, over the surface-keyed triple
partials of ``kg.finalize_triples`` (one row per block and distinct
(h_norm, h_id, pred, t_norm, t_id), with its ``n_evidence`` row count):

Phase 1 (votes): both mention slots of the partials become
    (norm_surface, entity_id) → cnt votes, the partial's ``n_evidence``
    as the count; null ids and null surfaces do not vote. Head-entity
    skew (a country name on billions of pages) is absorbed by the
    partials, the map-side combine: a hot surface contributes at most
    one row per (block, partial key) however many mentions it has. This
    is the "salted key" two-phase pattern with the block id as the salt.
Phase 2 (per-surface argmax): ``canonical_argmax`` (sum per (surface,
    id), highest count, ties to the smaller id) through
    ``hash_bucket_aggregate`` on ``norm_surface``. While 2 × the
    partials' row count (free metadata, a bound on the surface count) is
    within ``CANON_BROADCAST_LIMIT``, phases 1–2 run as ONE bucket over
    the partials (``fold_canonical_map``, one task; on a multi-node
    cluster the partials, not the narrower votes, move to it); above it
    over materialized votes in coarse buckets. The map's row count is
    the exact surface count.
Phase 3 (size-gated rewrite of the partials): subj = map[h_norm] and
    obj = map[t_norm], then rows with a null key are dropped (a null
    predicate, or a surface none of whose ids is known). A map within the
    limit is ``ray.put`` once and looked up per distinct surface inside
    ``map_batches`` (zero shuffles — the common case for a
    gazetteer-sized vocabulary). A larger map — open-web NER where
    distinct surfaces ≈ corpus cardinality — is never collected: the
    rewrite is two bucketed hash joins on the surface key. Same
    size-gate pattern as ``relational.anti_join``.

The reference has no linker at all (it trusts ``h.id``/``t.id`` from the
file, ``data_loader.py:152``); canonicalization is the KG build's analogue
of its fact-key grouping.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

#: distinct-surface count above which the canonical map stops being
#: broadcast and the rewrite switches to bucketed hash joins. ~2M short
#: strings ≈ low hundreds of MB — the driver/object-store comfort zone
#: (same budget reasoning as relational.ANTI_JOIN_BROADCAST_LIMIT). The
#: vote bound, 2 × the partials' row count, is checked first: within the
#: limit the map is folded in one bucket straight from the partials.
CANON_BROADCAST_LIMIT = 2_000_000

_MAP_SCHEMA = pa.schema([("norm_surface", pa.string()),
                         ("canonical_id", pa.string())])


def map_distinct(values, fn) -> pa.Array:
    """``fn`` applied once per DISTINCT value of a string column, taken
    back per row; nulls stay null. Mention surfaces are Zipfian — a block
    has far fewer distinct names than rows."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    enc = values.dictionary_encode()
    lut = pa.array([fn(v) for v in enc.dictionary.to_pylist()], pa.string())
    return lut.take(enc.indices)


def canonical_argmax(votes: pa.Table) -> pa.Table:
    """The canonical-id policy, defined once: (norm_surface, entity_id,
    cnt) vote rows → one (norm_surface, canonical_id) row per surface.
    Counts are summed per (surface, id); the winner is the highest total,
    ties to the lexicographically smaller id."""
    totals = votes.group_by(["norm_surface", "entity_id"],
                            use_threads=False).aggregate([("cnt", "sum")])
    totals = totals.sort_by([("norm_surface", "ascending"),
                             ("cnt_sum", "descending"),
                             ("entity_id", "ascending")])
    best = totals.group_by("norm_surface", use_threads=False).aggregate(
        [("entity_id", "first")])
    return best.rename_columns(["norm_surface", "canonical_id"])


def surface_votes(partials: pa.Table) -> pa.Table:
    """Phase 1: both slots of the triple partials → one (norm_surface,
    entity_id, cnt) row per distinct pair; ids cast to string (a block
    holding only null ids types them ``null``)."""
    votes = pa.concat_tables([
        pa.table({"norm_surface": partials.column(norm),
                  "entity_id": partials.column(eid).cast(pa.string()),
                  "cnt": partials.column("n_evidence")})
        for norm, eid in (("h_norm", "h_id"), ("t_norm", "t_id"))])
    votes = votes.filter(pc.field("norm_surface").is_valid()
                         & pc.field("entity_id").is_valid())
    return votes.group_by(["norm_surface", "entity_id"],
                          use_threads=False).aggregate(
        [("cnt", "sum")]).rename_columns(["norm_surface", "entity_id", "cnt"])


def _argmax_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """``canonical_argmax`` as a ``hash_bucket_aggregate`` bucket step."""
    return canonical_argmax(
        pa.Table.from_pandas(g, preserve_index=False)).to_pandas()


def fold_canonical_map(partials: pd.DataFrame) -> pd.DataFrame:
    """Phases 1–2 over all the partials at once: the one-bucket
    ``hash_bucket_aggregate`` step under the size gate."""
    votes = surface_votes(pa.Table.from_pandas(
        partials[["h_norm", "h_id", "t_norm", "t_id", "n_evidence"]],
        preserve_index=False))
    return canonical_argmax(votes).to_pandas()


def _broadcast_rewrite(partials_ds, canon: pa.Table, columns: list[str]):
    """Phase 3 under the gate: ``ray.put`` the map once; each worker
    builds its lookup once (cached per worker) and maps each distinct
    surface of a block once. Rows with a null subj, pred or obj are
    dropped."""
    import ray

    canon_ref = ray.put(canon)
    ref_key = canon_ref.hex()

    def lookup() -> dict[str, str]:
        t = ray.get(canon_ref)
        return dict(zip(t["norm_surface"].to_pylist(),
                        t["canonical_id"].to_pylist()))

    def rewrite(batch: pa.Table) -> pa.Table:
        from .score import cached

        get = cached(("canon", ref_key), lookup).get
        out = (batch.append_column("subj", map_distinct(batch["h_norm"], get))
               .append_column("obj", map_distinct(batch["t_norm"], get)))
        return out.select(columns).filter(pc.field("subj").is_valid()
                                          & pc.field("pred").is_valid()
                                          & pc.field("obj").is_valid())

    return partials_ds.map_batches(rewrite, batch_format="pyarrow")


def _join_rewrite(partials_ds, canon_ds, columns: list[str]):
    """Phase 3 over the gate: the map stays a Dataset and the rewrite is
    two bucketed hash joins on the surface key. Rows with a null pred
    (they have voted) are dropped first; inner joins drop exactly the
    rows whose surface has no known id, as the broadcast lookup's null
    does."""
    from ..functions.relational import shuffle_join

    rows = partials_ds.count() + canon_ds.count()
    values = [c for c in columns if c not in ("subj", "obj")]
    keyed = partials_ds.map_batches(
        lambda t: t.filter(pc.field("pred").is_valid()),
        batch_format="pyarrow")
    joined_h = shuffle_join(keyed, canon_ds, "h_norm", "norm_surface",
                            values + ["t_norm"], ["canonical_id"],
                            rows_hint=rows)

    def set_subj(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"canonical_id": "subj"}).drop(
            columns=["h_norm"])

    joined_t = shuffle_join(
        joined_h.map_batches(set_subj, batch_format="pandas"), canon_ds,
        "t_norm", "norm_surface", values + ["subj"], ["canonical_id"],
        rows_hint=rows)

    def set_obj(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"canonical_id": "obj"})[columns]

    return joined_t.map_batches(set_obj, batch_format="pandas")


def canonicalize_ids(partials_ds, columns: list[str]):
    """Size-gated rewrite of the surface-keyed triple partials to
    canonical ids: rows of ``columns``, with subj/obj the canonical ids
    of h_norm/t_norm and null-key rows dropped.

    ``partials_ds`` must be materialized. While the vote bound (2 × its
    row count) is within ``CANON_BROADCAST_LIMIT`` the argmax runs as
    one bucket, one task over the partials; above it over materialized
    votes in coarse hash buckets. The map's row count — the exact
    surface count — then decides: within the limit the map is broadcast
    and looked up per block, above it the rewrite is two bucketed hash
    joins. All paths emit identical rows.
    """
    import ray

    from ..functions import relational

    if 2 * partials_ds.count() <= CANON_BROADCAST_LIMIT:
        canon_ds = relational.hash_bucket_aggregate(
            partials_ds, ["norm_surface"], fold_canonical_map, n_buckets=1)
    else:
        votes = partials_ds.map_batches(surface_votes,
                                        batch_format="pyarrow").materialize()
        canon_ds = relational.hash_bucket_aggregate(
            votes, ["norm_surface"], _argmax_bucket, rows_hint=votes.count())
    canon_ds = canon_ds.materialize()
    if canon_ds.count() > CANON_BROADCAST_LIMIT:
        return _join_rewrite(partials_ds, canon_ds, columns)
    # empty blocks are skipped: Ray passes them through with the SOURCE
    # schema
    parts = [t.select(_MAP_SCHEMA.names).cast(_MAP_SCHEMA)
             for t in ray.get(canon_ds.to_arrow_refs()) if t.num_rows]
    canon = pa.concat_tables(parts) if parts else _MAP_SCHEMA.empty_table()
    return _broadcast_rewrite(partials_ds, canon, columns)
