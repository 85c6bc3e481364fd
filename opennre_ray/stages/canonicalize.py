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
Phase 3 (rewrite, then the caller's merge per subj group): subj =
    map[h_norm] and obj = map[t_norm]; rows with a null key (a null
    predicate, or a surface none of whose ids is known) are dropped.
    Under the vote bound ONE more task rewrites and merges every partial
    block as one block: two tasks after the partials, no exchange. Above
    it a map within the limit is ``ray.put`` once and looked up per
    distinct surface in ``map_batches``; a larger map — open-web NER
    where distinct surfaces ≈ corpus cardinality — is never collected:
    two bucketed hash joins on the surface key (the size-gate pattern of
    ``relational.anti_join``). Then ONE ``sort("subj")`` exchange, and
    the merge runs per range partition.

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
#: limit the map is folded in one bucket straight from the partials, and
#: one more task rewrites and merges them as one block.
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


def _lookup(canon: pa.Table) -> dict[str, str]:
    """{norm_surface: canonical_id} of a map block. A zero-row map is an
    empty lookup: the one-bucket fold over only empty partial blocks
    emits a keyed empty block with no ``canonical_id`` column."""
    if not canon.num_rows:
        return {}
    return dict(zip(canon["norm_surface"].to_pylist(),
                    canon["canonical_id"].to_pylist()))


def _rewrite(batch: pa.Table, get, columns: list[str]) -> pa.Table:
    """Phase 3 on one table of partials: subj/obj = ``get`` of each
    distinct h_norm/t_norm, then ``columns``; rows with a null subj,
    pred or obj are dropped."""
    out = (batch.append_column("subj", map_distinct(batch["h_norm"], get))
           .append_column("obj", map_distinct(batch["t_norm"], get)))
    return out.select(columns).filter(pc.field("subj").is_valid()
                                      & pc.field("pred").is_valid()
                                      & pc.field("obj").is_valid())


def _rewrite_and_merge(canon: pa.Table, columns: list[str], merge,
                       *blocks: pa.Table) -> pa.Table:
    """Phase 3 under the vote bound, run as ONE task: the partial blocks
    rewritten as one table (each distinct surface looked up once), then
    ``merge``. Empty blocks are skipped (Ray passes them on with the
    SOURCE schema); ``null``-typed columns are promoted."""
    parts = [t for t in blocks if t.num_rows]
    if not parts:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return merge(_rewrite(pa.concat_tables(parts, promote_options="default"),
                          _lookup(canon).get, columns))


def _one_block_merge(partials_ds, canon_ds, columns: list[str], merge):
    """Launch ``_rewrite_and_merge`` over the map block and every partial
    block; its one block is the result."""
    import ray.data as rd

    from ..functions.relational import remote_task

    # materialize() first: ~5 ms on a from_arrow_refs Dataset, where
    # to_arrow_refs alone starts a streaming execution (~16 ms, 1 CPU)
    [canon_ref] = canon_ds.materialize().to_arrow_refs()
    return rd.from_arrow_refs([remote_task(_rewrite_and_merge).remote(
        canon_ref, list(columns), merge, *partials_ds.to_arrow_refs())])


def _broadcast_rewrite(partials_ds, canon: pa.Table, columns: list[str]):
    """Phase 3 over the vote bound, with a map within the limit:
    ``ray.put`` the map once; each worker builds its lookup once (cached
    per worker) and rewrites each block."""
    import ray

    canon_ref = ray.put(canon)
    ref_key = canon_ref.hex()

    def rewrite(batch: pa.Table) -> pa.Table:
        from .score import cached

        get = cached(("canon", ref_key),
                     lambda: _lookup(ray.get(canon_ref))).get
        return _rewrite(batch, get, columns)

    return partials_ds.map_batches(rewrite, batch_format="pyarrow")


def _join_rewrite(partials_ds, canon_ds, columns: list[str]):
    """Phase 3 over the vote bound, with a map over the limit: the map
    stays a Dataset and the rewrite is two bucketed hash joins on the
    surface key. Rows with a null pred (they have voted) are dropped
    first; inner joins drop exactly the rows whose surface has no known
    id, as the broadcast lookup's null does."""
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


def canonicalize_ids(partials_ds, columns: list[str], merge):
    """Size-gated rewrite of the surface-keyed triple partials to
    canonical ids, then ``merge`` (pyarrow table → table) once per block
    of the rewritten rows (``columns``, subj/obj the canonical ids of
    h_norm/t_norm, null-key rows dropped); each block holds every row of
    its subjs, so a fold keyed on subj is exact.

    ``partials_ds`` must be materialized. The vote bound (2 × its row
    count) is decided here, once. Within ``CANON_BROADCAST_LIMIT``: the
    argmax as one ``hash_bucket_aggregate`` bucket over the partials,
    then one task that rewrites and merges every partial block as ONE
    block — no exchange. Above it the argmax runs over materialized
    votes in coarse hash buckets, and the exact surface count decides
    the rewrite: a broadcast map within the limit, two bucketed hash
    joins above it; then ONE ``sort("subj")`` exchange, and ``merge``
    per range partition. All paths emit identical rows.
    """
    import ray

    from ..functions import relational

    if 2 * partials_ds.count() <= CANON_BROADCAST_LIMIT:
        canon_ds = relational.hash_bucket_aggregate(
            partials_ds, ["norm_surface"], fold_canonical_map, n_buckets=1)
        return _one_block_merge(partials_ds, canon_ds, columns, merge)
    votes = partials_ds.map_batches(surface_votes,
                                    batch_format="pyarrow").materialize()
    canon_ds = relational.hash_bucket_aggregate(
        votes, ["norm_surface"], _argmax_bucket,
        rows_hint=votes.count()).materialize()
    if canon_ds.count() > CANON_BROADCAST_LIMIT:
        rows = _join_rewrite(partials_ds, canon_ds, columns)
    else:
        # empty blocks are skipped: Ray passes them through with the
        # SOURCE schema
        parts = [t.select(_MAP_SCHEMA.names).cast(_MAP_SCHEMA)
                 for t in ray.get(canon_ds.to_arrow_refs()) if t.num_rows]
        canon = (pa.concat_tables(parts) if parts
                 else _MAP_SCHEMA.empty_table())
        rows = _broadcast_rewrite(partials_ds, canon, columns)
    return rows.sort("subj").map_batches(merge, batch_format="pyarrow")
