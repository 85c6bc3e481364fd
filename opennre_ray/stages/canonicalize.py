"""Entity canonicalization: groupby-aggregate shuffle on normalized surfaces.

North-star requirement: "entity canonicalization runs as a groupby-aggregate
shuffle on normalized surface-form keys with explicit hash partitioning and
salted keys for head-entity skew". Design:

Phase 1 (map-side combine): inside ``map_batches``, collapse each batch to
    (norm_surface, entity_id) → partial count. Head-entity skew (a country
    name on billions of pages) is absorbed HERE — a hot key contributes at
    most one row per (batch, entity) no matter how many mentions it has, so
    the subsequent shuffle moves O(batches × distinct surfaces), not O(rows).
    This is the "salted key" two-phase pattern with the batch id acting as
    the implicit salt.
Phase 2 (per-surface argmax, size-gated): the partials are materialized
    once; their row count is an upper bound on the distinct-surface count
    and is free metadata. Within ``CANON_BROADCAST_LIMIT`` the argmax
    (``canonical_argmax``: sum per (surface, id), highest count, ties to
    the smaller id) runs over all partials as ONE bucket of
    ``hash_bucket_aggregate``, which folds it on the driver with no
    shuffle (``fold_canonical_map``). Above it the same argmax runs per
    coarse hash bucket on ``norm_surface`` (``build_canonical_dataset``)
    and the map is a DATASET whose row count is the exact surface count.
Phase 3 (size-gated rewrite): a map within the limit is ``ray.put`` once
    and ids rewrite inside ``map_batches`` (zero shuffles — the common case
    for a gazetteer-sized vocabulary). A larger map — open-web NER where distinct
    surfaces ≈ corpus cardinality — is never collected: the rewrite is
    two bucketed hash joins on the surface key. Same size-gate pattern as
    ``relational.anti_join``.

The reference has no linker at all (it trusts ``h.id``/``t.id`` from the
file, ``data_loader.py:152``); canonicalization is the KG build's analogue
of its fact-key grouping.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

#: distinct-surface count above which the canonical map stops being
#: broadcast and the id rewrite switches to bucketed hash joins. ~2M short
#: strings ≈ low hundreds of MB — the driver/object-store comfort zone
#: (same budget reasoning as relational.ANTI_JOIN_BROADCAST_LIMIT). The
#: partial row count, an upper bound on it, is checked first: within the
#: limit the map is folded on the driver without a shuffle.
CANON_BROADCAST_LIMIT = 2_000_000


def _normalize_unique(names: pd.Series) -> pd.Series:
    """normalize_surface applied once per UNIQUE name, mapped back.

    Mention surfaces are Zipfian — a batch has far fewer distinct names
    than rows — so normalizing uniques then mapping is the vectorized form
    of the per-row loop this replaced.
    """
    from .ner import normalize_surface

    uniq = names.unique()
    lut = {n: normalize_surface(n) for n in uniq}
    return names.map(lut)


class PartialSurfaceCounts:
    """Phase 1: per-batch (norm_surface, entity_id) partial counts.

    One concatenated (name, id) frame over both mention slots, one
    vectorized value_counts — no per-row Python.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        frames = [
            pd.DataFrame({
                "name": batch.column(name_col).to_pandas(),
                "entity_id": batch.column(id_col).to_pandas(),
            })
            for name_col, id_col in (("h_name", "h_id"), ("t_name", "t_id"))
        ]
        df = pd.concat(frames, ignore_index=True)
        df["norm_surface"] = _normalize_unique(df["name"])
        counts = (df.groupby(["norm_surface", "entity_id"], sort=False)
                  .size().reset_index(name="cnt"))
        return pa.table({
            "norm_surface": pa.array(counts["norm_surface"], pa.string()),
            "entity_id": pa.array(counts["entity_id"], pa.string()),
            "cnt": pa.array(counts["cnt"].to_numpy(), pa.int64()),
        })


def canonical_argmax(partials: pa.Table) -> pa.Table:
    """The canonical-id policy, defined once: partial (norm_surface,
    entity_id, cnt) rows → one (norm_surface, canonical_id) row per
    surface. Counts are summed per (surface, id); the winner is the
    highest total, ties to the lexicographically smaller id."""
    totals = partials.group_by(["norm_surface", "entity_id"],
                               use_threads=False).aggregate([("cnt", "sum")])
    totals = totals.sort_by([("norm_surface", "ascending"),
                             ("cnt_sum", "descending"),
                             ("entity_id", "ascending")])
    best = totals.group_by("norm_surface", use_threads=False).aggregate(
        [("entity_id", "first")])
    return best.rename_columns(["norm_surface", "canonical_id"])


def _partials(instances_ds):
    """Phase 1 over a Dataset, materialized: its row count is free
    metadata, and both the gate and the fold read it."""
    return instances_ds.map_batches(PartialSurfaceCounts(),
                                    batch_format="pyarrow").materialize()


def _argmax_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """``canonical_argmax`` as a ``hash_bucket_aggregate`` bucket step."""
    return canonical_argmax(
        pa.Table.from_pandas(g, preserve_index=False)).to_pandas()


def _as_map(canon_ds) -> dict[str, str]:
    df = canon_ds.to_pandas()
    if not len(df):
        return {}
    return dict(zip(df["norm_surface"], df["canonical_id"]))


def fold_canonical_map(partials_ds) -> dict[str, str]:
    """Phase 2 under the gate: the argmax over all materialized partials
    as ONE bucket, which ``hash_bucket_aggregate`` folds on the driver
    without a shuffle."""
    from ..functions.relational import hash_bucket_aggregate

    return _as_map(hash_bucket_aggregate(partials_ds, ["norm_surface"],
                                         _argmax_bucket, n_buckets=1))


def build_canonical_dataset(partials_ds):
    """Phase 2 over the gate: materialized partials → Dataset of
    (norm_surface, canonical_id), ``canonical_argmax`` per hash bucket on
    the surface key (all partials of a surface co-locate, so it is exact);
    no process ever holds the whole map."""
    from ..functions.relational import hash_bucket_aggregate

    return hash_bucket_aggregate(partials_ds, ["norm_surface"],
                                 _argmax_bucket,
                                 rows_hint=partials_ds.count())


def build_canonical_map(instances_ds) -> dict[str, str]:
    """Collected {norm_surface: canonical_id} through the bucketed path.

    The pipeline folds the map on the driver instead
    (``fold_canonical_map``); this form exists to check that both agree.
    """
    return _as_map(build_canonical_dataset(_partials(instances_ds)))


class CanonicalizeIds:
    """Phase 3 (broadcast path): rewrite h_id/t_id through the canonical map."""

    def __init__(self, canon_ref):
        import ray
        self.canon = ray.get(canon_ref) if not isinstance(canon_ref, dict) \
            else canon_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        def remap(name_col, id_col):
            names = batch.column(name_col).to_pandas()
            ids = batch.column(id_col).to_pandas()
            mapped = _normalize_unique(names).map(self.canon)
            return pa.array(mapped.fillna(ids), pa.string())

        out = batch.set_column(
            batch.schema.get_field_index("h_id"), "h_id",
            remap("h_name", "h_id"))
        return out.set_column(
            out.schema.get_field_index("t_id"), "t_id",
            remap("t_name", "t_id"))


def _broadcast_rewrite(inst_ds, canon: dict[str, str]):
    """Phase 3 under the gate: ``ray.put`` the map once, rewrite ids per
    batch (the map is cached per worker)."""
    import ray

    canon_ref = ray.put(canon)
    ref_key = canon_ref.hex()

    def canonicalize_batch(batch):
        from ..stages.score import cached
        stage = cached(("canon", ref_key),
                       lambda: CanonicalizeIds(canon_ref))
        return stage(batch)

    return inst_ds.map_batches(canonicalize_batch, batch_format="pyarrow")


def canonicalize_ids(inst_ds, columns: list[str],
                     broadcast_limit: int = CANON_BROADCAST_LIMIT):
    """Size-gated rewrite of h_id/t_id to canonical ids.

    The gate is the distinct-surface count. The partial row count, free
    metadata once the partials are materialized, is an upper bound on it:
    within ``broadcast_limit`` the map is folded on the driver. Above it
    the bucketed argmax runs first, and its materialized row count — the
    exact surface count — decides. A map within the limit is broadcast
    and ids rewrite per batch; a larger one stays a Dataset and the
    rewrite is two bucketed hash joins on the normalized surface key.
    Both paths emit identical values and the same ``columns`` (h_id/t_id
    rewritten).
    """
    partials = _partials(inst_ds)
    if partials.count() <= broadcast_limit:
        return _broadcast_rewrite(inst_ds, fold_canonical_map(partials))
    canon_ds = build_canonical_dataset(partials).materialize()
    if canon_ds.count() <= broadcast_limit:
        return _broadcast_rewrite(inst_ds, _as_map(canon_ds))

    # beyond the broadcast limit: the map is corpus-sized — rewrite via two
    # bucketed hash joins on the surface key (inner joins are total: every
    # surface in the instances is in the map by construction)
    from ..functions.relational import shuffle_join

    rows = inst_ds.count() + canon_ds.count()

    def add_norms(batch: pa.Table) -> pa.Table:
        h = _normalize_unique(batch.column("h_name").to_pandas())
        t = _normalize_unique(batch.column("t_name").to_pandas())
        return (batch.append_column("_h_norm", pa.array(h, pa.string()))
                .append_column("_t_norm", pa.array(t, pa.string())))

    with_norms = inst_ds.map_batches(add_norms, batch_format="pyarrow")
    carry = [c for c in columns if c != "h_id"] + ["_t_norm"]
    joined_h = shuffle_join(
        with_norms, canon_ds, "_h_norm", "norm_surface",
        carry, ["canonical_id"], rows_hint=rows)

    def set_h(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(h_id=df["canonical_id"])
        return df.drop(columns=["_h_norm", "canonical_id"])

    joined_h = joined_h.map_batches(set_h, batch_format="pandas")
    carry_t = [c for c in columns if c != "t_id"]
    joined_t = shuffle_join(
        joined_h, canon_ds, "_t_norm", "norm_surface",
        carry_t, ["canonical_id"], rows_hint=rows)

    def set_t(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(t_id=df["canonical_id"])
        return df[columns]

    return joined_t.map_batches(set_t, batch_format="pandas")
