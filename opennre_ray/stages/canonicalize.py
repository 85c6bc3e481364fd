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
Phase 2 (bucketed shuffle): per-surface argmax over the partials — coarse
    hash buckets on ``norm_surface`` + one vectorized pandas resolve per
    bucket. The result is a (norm_surface, canonical_id) DATASET; nothing
    in phases 1-2 ever collects to the driver.
Phase 3 (size-gated rewrite): if the distinct-surface count fits
    ``CANON_BROADCAST_LIMIT``, the map is collected once, ``ray.put``, and
    ids rewrite inside ``map_batches`` (zero extra shuffle — the gazetteer
    reality in this sandbox). Beyond the limit — open-web NER where
    distinct surfaces ≈ corpus cardinality — the rewrite becomes two
    bucketed hash joins on the surface key and the map never materializes
    in any single process. Same size-gate pattern as
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
#: (same budget reasoning as relational.ANTI_JOIN_BROADCAST_LIMIT).
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


def build_canonical_dataset(instances_ds):
    """Phases 1+2: instance rows → Dataset of (norm_surface, canonical_id).

    Fully distributed: partial counts per batch, then ONE coarse
    hash-bucket shuffle on the surface key with a vectorized per-bucket
    argmax (all partials of a surface co-locate, so the resolve is exact).
    Deterministic winner: highest total count, ties to the
    lexicographically smaller entity id.
    """
    from ..functions.relational import hash_bucket_aggregate

    partials = instances_ds.map_batches(
        PartialSurfaceCounts(), batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        totals = (g.groupby(["norm_surface", "entity_id"], as_index=False)
                  ["cnt"].sum())
        totals = totals.sort_values(
            ["norm_surface", "cnt", "entity_id"],
            ascending=[True, False, True], kind="mergesort")
        best = totals.drop_duplicates("norm_surface", keep="first")
        return best.rename(columns={"entity_id": "canonical_id"})[
            ["norm_surface", "canonical_id"]]

    return hash_bucket_aggregate(partials, ["norm_surface"], per_bucket)


def build_canonical_map(instances_ds) -> dict[str, str]:
    """Collected {norm_surface: canonical_id} — the broadcast-path form.

    Only call under the size gate (or in tests): the distributed argmax
    has already reduced to one row per surface, so collecting is safe
    whenever the surface vocabulary itself is driver-sized.
    """
    df = build_canonical_dataset(instances_ds).to_pandas()
    if not len(df):
        return {}
    return dict(zip(df["norm_surface"], df["canonical_id"]))


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


def canonicalize_ids(inst_ds, columns: list[str],
                     broadcast_limit: int = CANON_BROADCAST_LIMIT):
    """Size-gated phase 3: rewrite h_id/t_id to canonical ids.

    Under ``broadcast_limit`` distinct surfaces: collect the map once,
    broadcast, rewrite per batch (no shuffle of the instances). Over it:
    two bucketed hash joins on the normalized surface key — the map stays
    a Dataset end to end. Both paths emit identical values and the same
    ``columns`` (h_id/t_id rewritten).
    """
    import ray

    canon_ds = build_canonical_dataset(inst_ds).materialize()
    n_surfaces = canon_ds.count()

    if n_surfaces <= broadcast_limit:
        canon = dict(zip(*(canon_ds.to_pandas()[c]
                           for c in ("norm_surface", "canonical_id")))) \
            if n_surfaces else {}
        canon_ref = ray.put(canon)
        ref_key = canon_ref.hex()

        def canonicalize_batch(batch):
            from ..stages.score import cached
            stage = cached(("canon", ref_key),
                           lambda: CanonicalizeIds(canon_ref))
            return stage(batch)

        return inst_ds.map_batches(canonicalize_batch,
                                   batch_format="pyarrow")

    # beyond the broadcast limit: the map is corpus-sized — rewrite via two
    # bucketed hash joins on the surface key (inner joins are total: every
    # surface in the instances is in the map by construction)
    from ..functions.relational import shuffle_join

    def add_norms(batch: pa.Table) -> pa.Table:
        h = _normalize_unique(batch.column("h_name").to_pandas())
        t = _normalize_unique(batch.column("t_name").to_pandas())
        return (batch.append_column("_h_norm", pa.array(h, pa.string()))
                .append_column("_t_norm", pa.array(t, pa.string())))

    with_norms = inst_ds.map_batches(add_norms, batch_format="pyarrow")
    carry = [c for c in columns if c != "h_id"] + ["_t_norm"]
    joined_h = shuffle_join(
        with_norms, canon_ds, "_h_norm", "norm_surface",
        carry, ["canonical_id"])

    def set_h(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(h_id=df["canonical_id"])
        return df.drop(columns=["_h_norm", "canonical_id"])

    joined_h = joined_h.map_batches(set_h, batch_format="pandas")
    carry_t = [c for c in columns if c != "t_id"]
    joined_t = shuffle_join(
        joined_h, canon_ds, "_t_norm", "norm_surface",
        carry_t, ["canonical_id"])

    def set_t(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(t_id=df["canonical_id"])
        return df[columns]

    return joined_t.map_batches(set_t, batch_format="pandas")
