"""Relational building blocks: broadcast join, semi/anti join, windowed aggregate.

The reference has no joins at all (SURVEY §2.4 J1 — its only lookups are
in-process dicts); the KG/corpus build needs dimension joins and log
windowing. Patterns per the Ray Data playbook:

- small side → ``ray.put`` once, pandas merge per batch (no shuffle);
- semi/anti join → broadcast the key set, vectorized ``isin`` filter;
- event-time windows → truncate timestamp to the window in a batch UDF,
  then a (partially-aggregated) groupby on (key, window).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa


def broadcast_join(ds, small_df: pd.DataFrame, on: str, how: str = "inner"):
    """Map-side hash join against a broadcast dimension table.

    ``small_df`` is put in the object store once; each batch task merges
    against the shared copy — zero shuffle, the canonical pattern for
    dimension tables at any corpus scale.
    """
    import ray

    ref = ray.put(small_df)
    ref_key = ref.hex()

    def join_batch(batch: pd.DataFrame) -> pd.DataFrame:
        from ..stages.score import cached

        small = cached(("bjoin", ref_key), lambda: ray.get(ref))
        return batch.merge(small, on=on, how=how)

    return ds.map_batches(join_batch, batch_format="pandas")


def semi_anti_join(ds, keys, col: str, anti: bool = False):
    """Filter rows whose ``col`` is (not) in a broadcast key set."""
    import ray

    ref = ray.put(frozenset(keys))
    ref_key = ref.hex()

    def filter_batch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..stages.score import cached

        key_arr = cached(("semijoin", ref_key),
                         lambda: pa.array(list(ray.get(ref))))
        m = pc.is_in(batch.column(col), value_set=key_arr)
        if anti:
            m = pc.invert(m)
        return batch.filter(m)

    return ds.map_batches(filter_batch, batch_format="pyarrow")


#: per-bucket row budget: one bucket arrives as ONE pandas frame in one
#: worker, so bucket size bounds per-worker heap. 64k rows of mixed
#: string/numeric columns is a few tens of MB — comfortably inside the
#: ~50 MB per-worker working-set rule (BASELINE.md).
TARGET_ROWS_PER_BUCKET = 65_536
_MIN_BUCKETS, _MAX_BUCKETS = 16, 4096


def compute_n_buckets(rows_hint: int | None,
                      target: int = TARGET_ROWS_PER_BUCKET) -> int:
    """Bucket count from an (approximate) input row count.

    With no hint, fall back to 64 (the measured sweet spot at sf0.1).
    The hint need only be order-of-magnitude right: buckets scale linearly
    with rows so per-bucket size stays ~``target`` at any input scale.
    """
    if rows_hint is None:
        return 64
    import math
    return max(_MIN_BUCKETS, min(_MAX_BUCKETS,
                                 math.ceil(max(rows_hint, 1) / target)))


def canonical_bucket(df: "pd.DataFrame", key_cols, n_buckets: int):
    """Dtype-canonical bucket assignment shared by every bucketed shuffle.

    Canonicalizes numeric key dtypes before hashing: ``hash_pandas_object``
    hashes int64 5 and float64 5.0 DIFFERENTLY, so two datasets bucketed
    separately on dtype-mismatched keys (e.g. asof_join / shuffle_join
    sides) would send equal keys to different buckets — silent data loss.
    Equal values always agree as float64; distinct ints >2^53 merely
    co-bucket.
    """
    kdf = df[key_cols].copy()
    for c in key_cols:
        if pd.api.types.is_numeric_dtype(kdf[c]):
            kdf[c] = kdf[c].astype("float64")
    h = pd.util.hash_pandas_object(kdf, index=False)
    return (h % n_buckets).astype("int64")


@functools.cache
def remote_task(fn):
    """``ray.remote(fn)``, built once per process. A task defined inside
    the call that launches it is a new function every call: Ray exports
    it to the cluster, and the worker imports it, before each run."""
    import ray

    return ray.remote(fn)


def _keyed_empty(key_cols) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series([], dtype="object") for c in key_cols})


def _one_bucket(per_bucket, key_cols, *blocks: pa.Table) -> pa.Table:
    """``hash_bucket_aggregate``'s task for ``n_buckets=1``. Empty blocks
    are skipped: Ray passes them through upstream UDFs with the SOURCE
    schema, which would add its columns here."""
    frames = [t.to_pandas() for t in blocks if t.num_rows]
    out = (per_bucket(pd.concat(frames, ignore_index=True)) if frames
           else _keyed_empty(key_cols))
    return pa.Table.from_pandas(out, preserve_index=False)


def hash_bucket_aggregate(ds, key_cols, per_bucket, n_buckets: int | None = None,
                          rows_hint: int | None = None, partial=None):
    """High-cardinality grouped aggregation via coarse hash buckets.

    ``ds.groupby(keys)`` with tens of thousands of tiny groups pays Python
    per-group overhead (measured: 28 s for a 100k-row/40k-group aggregate).
    Instead: hash the key columns into ``n_buckets`` coarse partitions (the
    only shuffle), then run a VECTORIZED pandas groupby inside each bucket.
    Rows with equal keys always share a bucket, so per-bucket aggregation is
    exact. This is also the scale pattern for skew: n_buckets spreads load
    regardless of key cardinality, and a hot single key still lands in one
    bucket whose aggregate is one vectorized reduction.

    ``per_bucket``: fn(pandas.DataFrame) -> DataFrame (must itself group by
    ``key_cols``).
    ``n_buckets``: explicit bucket count; default derives from ``rows_hint``
    (pass the parquet-metadata row count when cheaply known) so per-bucket
    size stays bounded as inputs grow — a fixed count would put rows/64 of
    the input in a single worker's heap at 100× scale. ``n_buckets=1``
    puts every row in one bucket, so there is nothing to shuffle: one
    task runs ``per_bucket`` once over all the input's blocks, read from
    the object store (pass it only for an input one worker can hold,
    e.g. behind a size gate).

    ``partial``: optional map-side combiner fn(DataFrame) -> DataFrame
    run per input BLOCK before the bucket shuffle. For a decomposable
    aggregate (sum/count/min/max/mergeable sketch) pass the per-block
    pre-aggregation and write ``per_bucket`` against the partial rows:
    a hot key then contributes at most one row PER BLOCK to its bucket
    instead of its entire row set — without it, a single 10M-row key
    lands 10M rows in one bucket task (the canonicalize phase-1 / bag
    salted-partial pattern, generalized).
    """
    import pandas as pd

    if n_buckets is None:
        n_buckets = compute_n_buckets(rows_hint)

    if partial is not None:
        def partial_block(df: pd.DataFrame) -> pd.DataFrame:
            return partial(df) if len(df) else df
        ds = ds.map_batches(partial_block, batch_format="pandas")

    if n_buckets == 1:
        import ray.data as rd

        return rd.from_arrow_refs([remote_task(_one_bucket).remote(
            per_bucket, list(key_cols), *ds.to_arrow_refs())])

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            # Ray passes empty blocks through upstream UDFs unchanged, so
            # an all-empty input arrives here with the SOURCE schema (or
            # none) — emit a keyed empty frame instead of KeyError-ing
            out = _keyed_empty(key_cols)
            out["_bucket"] = pd.Series([], dtype="int64")
            return out
        return df.assign(_bucket=canonical_bucket(df, key_cols, n_buckets))

    def run(group: pd.DataFrame) -> pd.DataFrame:
        return per_bucket(group.drop(columns=["_bucket"]))

    bucketed = ds.map_batches(bucketize, batch_format="pandas")
    return bucketed.groupby("_bucket").map_groups(run, batch_format="pandas")


def shuffle_join(left_ds, right_ds, left_key: str, right_key: str,
                 left_cols: list[str], right_cols: list[str],
                 how: str = "inner", n_buckets: int | None = None,
                 rows_hint: int | None = None):
    """Distributed hash join of two LARGE datasets (both sides shuffle).

    Use ``broadcast_join`` when one side fits in the object store; this is
    the fallback when both sides are corpus-scale. Implemented as a tagged
    union + one coarse hash-bucket shuffle on the key + a vectorized pandas
    merge per bucket — equal keys always co-locate, so per-bucket merges
    are exact. (Ray's native ``Dataset.join`` mis-handles the empty /
    schema-less blocks that groupby aggregates emit — 'no match for key
    field' at partition finalize — so the join is built on the same
    bucketing primitive as everything else.)

    ``left_cols`` / ``right_cols``: value columns to carry from each side
    (must be disjoint names; rename before joining if they collide). The
    output key column keeps ``left_key``'s name.

    ``how``: 'inner', 'left' (outer — unmatched left rows keep nulls in
    ``right_cols``), 'full' (outer both ways — unmatched rows from either
    side survive with nulls in the other side's columns; the key column is
    always populated), 'left_semi' or 'left_anti' (semi/anti emit left
    rows whose key is / is not present on the right; right_cols ignored).

    Caveat: the tagged union stores each side's absent columns as nulls, so
    non-string value columns may round-trip through pandas as nullable /
    float — cast downstream if exact dtypes matter.
    """
    import pandas as pd

    if how not in ("inner", "left", "full", "left_semi", "left_anti"):
        raise ValueError(f"unsupported how={how!r}")
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"colliding value columns: {sorted(overlap)}")

    all_cols = list(left_cols) + list(right_cols)

    def tag(cols, key, side):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            # cross-dtype key safety (int64 5 vs float64 5.0) is handled by
            # hash_bucket_aggregate's canonicalized bucket hash
            out = pd.DataFrame({"_key": df[key]})
            for c in all_cols:
                out[c] = df[c] if c in cols else None
            out["_side"] = np.int64(side)
            return out
        return fn

    tagged = (left_ds.map_batches(tag(left_cols, left_key, 0),
                                  batch_format="pandas")
              .union(right_ds.map_batches(tag(right_cols, right_key, 1),
                                          batch_format="pandas")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lhs = g.loc[g["_side"] == 0, ["_key"] + list(left_cols)]
        if how in ("left_semi", "left_anti"):
            rkeys = g.loc[g["_side"] == 1, "_key"].unique()
            mask = lhs["_key"].isin(rkeys)
            out = lhs[mask if how == "left_semi" else ~mask]
        else:
            rhs = g.loc[g["_side"] == 1, ["_key"] + list(right_cols)]
            out = lhs.merge(rhs, on="_key",
                            how="outer" if how == "full" else how)
        return out.rename(columns={"_key": left_key})

    return hash_bucket_aggregate(tagged, ["_key"], per_bucket,
                                 n_buckets=n_buckets, rows_hint=rows_hint)


def band_join(left_ds, right_ds, block_l: str, block_r: str,
              value_l: str, value_r: str, eps, left_cols: list[str],
              right_cols: list[str], n_buckets: int | None = None,
              rows_hint: int | None = None):
    """Distance-band join — the numeric record-linkage primitive
    (blocking + bounded-distance verify): emit every cross-side pair in
    the same block whose values differ by at most ``eps`` (inclusive).

    One bucketed shuffle on the block key (tagged union, same machinery
    as ``shuffle_join``); within each block the right side is sorted once
    and a vectorized double-``searchsorted`` sweep finds each left row's
    qualifying window — O((n+m)·log m + output) per block, never the
    block cross product, so a hot block (everyone in one city) costs its
    output size, not its square. For exact/oracle-able results pass
    PRE-QUANTIZED integer value columns (e.g. cents) and an integer eps —
    the sweep is then pure integer comparisons.

    Output: block key (named ``block_l``) + ``left_cols`` + ``right_cols``
    + ``_diff`` (|value_l − value_r|, same dtype as the inputs).
    """
    all_cols = list(left_cols) + list(right_cols)
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"colliding value columns: {sorted(overlap)}")
    out_cols = [block_l] + all_cols + ["_diff"]

    def tag(cols, blk, val, side):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({"_blk": df[blk], "_val": df[val]})
            for c in all_cols:
                out[c] = df[c] if c in cols else None
            out["_side"] = np.int64(side)
            return out
        return fn

    tagged = (left_ds.map_batches(tag(left_cols, block_l, value_l, 0),
                                  batch_format="pandas")
              .union(right_ds.map_batches(tag(right_cols, block_r,
                                              value_r, 1),
                                          batch_format="pandas")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for blk, grp in g.groupby("_blk", sort=False):
            lhs = grp[grp["_side"] == 0]
            rhs = grp[grp["_side"] == 1]
            if lhs.empty or rhs.empty:
                continue
            rv = rhs["_val"].to_numpy()
            order = np.argsort(rv, kind="stable")
            rv = rv[order]
            lv = lhs["_val"].to_numpy()
            lo = np.searchsorted(rv, lv - eps, "left")
            hi = np.searchsorted(rv, lv + eps, "right")
            cnt = hi - lo
            tot = int(cnt.sum())
            if tot == 0:
                continue
            li = np.repeat(np.arange(len(lv)), cnt)
            starts = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            ri = order[np.arange(tot) - np.repeat(starts, cnt)
                       + np.repeat(lo, cnt)]
            out = pd.DataFrame({block_l: np.repeat(blk, tot)})
            for c in left_cols:
                out[c] = lhs[c].to_numpy()[li]
            for c in right_cols:
                out[c] = rhs[c].to_numpy()[ri]
            out["_diff"] = np.abs(lv[li] - rhs["_val"].to_numpy()[ri])
            outs.append(out)
        if not outs:
            return pd.DataFrame({c: [] for c in out_cols})
        return pd.concat(outs, ignore_index=True)

    return hash_bucket_aggregate(tagged, ["_blk"], per_bucket,
                                 n_buckets=n_buckets, rows_hint=rows_hint)


def table_diff(old_ds, new_ds, key: str, content: str,
               n_buckets: int | None = None,
               rows_hint: int | None = None):
    """Snapshot diff between two table versions — the dataset-versioning
    audit: per key, ``added`` (new only), ``removed`` (old only),
    ``changed`` (both, content differs), ``unchanged``.

    Tagged union + ONE bucketed shuffle on the key; each bucket resolves
    its keys with a vectorized pandas pivot, so the diff never joins
    corpus-wide. ``content`` is the column compared for change detection
    (pass a precomputed content hash for wide rows so only the 16-byte
    digest shuffles). Assumes ``key`` is unique within each version.
    Returns (key, status).
    """
    def tag(side):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"_key": df[key], "_c": df[content],
                                 "_side": np.int64(side)})
        return fn

    tagged = (old_ds.map_batches(tag(0), batch_format="pandas")
              .union(new_ds.map_batches(tag(1), batch_format="pandas")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        old = g[g["_side"] == 0].set_index("_key")["_c"]
        new = g[g["_side"] == 1].set_index("_key")["_c"]
        merged = pd.merge(old.rename("o"), new.rename("n"),
                          left_index=True, right_index=True, how="outer")
        status = np.where(
            merged["o"].isna(), "added",
            np.where(merged["n"].isna(), "removed",
                     np.where(merged["o"] == merged["n"], "unchanged",
                              "changed")))
        return pd.DataFrame({key: merged.index.to_numpy(),
                             "status": status})

    return hash_bucket_aggregate(tagged, ["_key"], per_bucket,
                                 n_buckets=n_buckets, rows_hint=rows_hint)


def apply_changes(base_ds, changes_ds, key: str, content: str,
                  op_col: str = "op", n_buckets: int | None = None,
                  rows_hint: int | None = None):
    """CDC MERGE (the lakehouse upsert-apply): fold a change stream of
    (op ∈ {'upsert', 'delete'}, key, content) rows onto a base snapshot
    to produce the next snapshot — any change beats the base row for its
    key, deletes remove, upserts insert-or-replace.

    Tagged union + ONE bucketed shuffle on the key; each bucket resolves
    vectorized (base rows whose key appears in the changes drop; upsert
    rows pass through). Requires at most one change per key per batch
    application (compact the stream with ``per-key latest-wins`` first
    if it carries history). Returns (key, content) of the new snapshot.
    """
    def tag_base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"_key": df[key], "_c": df[content],
                             "_op": "base"})

    def tag_change(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"_key": df[key], "_c": df[content],
                             "_op": df[op_col]})

    tagged = (base_ds.map_batches(tag_base, batch_format="pandas")
              .union(changes_ds.map_batches(tag_change,
                                            batch_format="pandas")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        changed = set(g.loc[g["_op"] != "base", "_key"])
        base = g[(g["_op"] == "base")
                 & ~g["_key"].isin(changed)][["_key", "_c"]]
        ups = g[g["_op"] == "upsert"][["_key", "_c"]]
        out = pd.concat([base, ups], ignore_index=True)
        return out.rename(columns={"_key": key, "_c": content})

    return hash_bucket_aggregate(tagged, ["_key"], per_bucket,
                                 n_buckets=n_buckets,
                                 rows_hint=rows_hint)


def interval_self_join(ds, block: str, id_col: str, start: str, end: str,
                       n_buckets: int | None = None,
                       rows_hint: int | None = None):
    """Interval-overlap SELF-join within blocks: emit every pair of rows
    in the same block whose [start, end) intervals overlap.

    Requires well-formed intervals (``end > start``). With a block's rows
    sorted by start, a later row *j* overlaps row *i* iff
    ``start_j < end_i`` (its own end necessarily exceeds ``start_i``), so
    ONE ``searchsorted`` per row bounds each overlap window and the emit
    is O(n log n + output) per block — never the block square. One
    bucketed shuffle on the block key; pairs come out normalized
    (``id_a < id_b``) with the integer overlap length.
    """
    from .relational import hash_bucket_aggregate  # self, for clarity

    out_cols = [block, "id_a", "id_b", "overlap"]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for blk, grp in g.groupby(block, sort=False):
            grp = grp.sort_values([start, id_col])
            s = grp[start].to_numpy()
            e = grp[end].to_numpy()
            ids = grp[id_col].to_numpy()
            n = len(s)
            if n < 2:
                continue
            hi = np.searchsorted(s, e, side="left")
            cnt = np.maximum(hi - np.arange(n) - 1, 0)
            tot = int(cnt.sum())
            if tot == 0:
                continue
            li = np.repeat(np.arange(n), cnt)
            offs = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            ri = np.arange(tot) - np.repeat(offs, cnt) + li + 1
            outs.append(pd.DataFrame({
                block: np.repeat(blk, tot),
                "id_a": np.minimum(ids[li], ids[ri]),
                "id_b": np.maximum(ids[li], ids[ri]),
                "overlap": (np.minimum(e[li], e[ri])
                            - np.maximum(s[li], s[ri]))}))
        if not outs:
            return pd.DataFrame({c: [] for c in out_cols})
        return pd.concat(outs, ignore_index=True)

    return hash_bucket_aggregate(ds, [block], per_bucket,
                                 n_buckets=n_buckets, rows_hint=rows_hint)


def broadcast_range_join(ds, bands: pd.DataFrame, value_col: str,
                         lo_col: str = "lo", hi_col: str = "hi",
                         how: str = "inner"):
    """Interval (range) join against a small broadcast band table: emit a
    row per (input row, band) with ``lo <= value < hi``. Bands may overlap
    (a row matches every covering band).

    The band table is broadcast once; each batch evaluates one vectorized
    mask per band (O(bands × batch) comparisons, zero shuffle). This is
    the dimension-table form of the range join — a large×large interval
    join would instead range-partition both sides by interval boundaries,
    which nothing in the current pipelines needs.

    ``how='inner'`` drops rows covered by no band.
    """
    import ray

    if how != "inner":
        raise ValueError(f"unsupported how={how!r}")
    ref = ray.put(bands.reset_index(drop=True))
    ref_key = ref.hex()

    def join_batch(batch: pd.DataFrame) -> pd.DataFrame:
        from ..stages.score import cached

        b = cached(("rjoin", ref_key), lambda: ray.get(ref))
        v = batch[value_col].to_numpy()
        parts = []
        for row in b.itertuples(index=False):
            d = row._asdict()
            m = (v >= d[lo_col]) & (v < d[hi_col])
            if m.any():
                hit = batch.loc[m].copy()
                for c, val in d.items():
                    if c not in (lo_col, hi_col):
                        hit[c] = val
                parts.append(hit)
        if not parts:
            out = batch.iloc[0:0].copy()
            for c in b.columns:
                if c not in (lo_col, hi_col):
                    out[c] = pd.Series(dtype=b[c].dtype)
            return out
        return pd.concat(parts, ignore_index=True)

    return ds.map_batches(join_batch, batch_format="pandas")


def asof_join(left_ds, right_ds, key: str, ts: str,
              left_cols: list[str], right_cols: list[str],
              how: str = "left", right_suffix: str = "_m",
              dedupe_right: bool = False,
              n_buckets: int | None = None, rows_hint: int | None = None):
    """Distributed as-of join: each left row matches the LATEST right row
    of the same ``key`` with right.ts <= left.ts (backward, exact matches
    allowed) — the operator Ray Data lacks for event-stream enrichment.

    Partitioning assumption: equal keys co-locate (same coarse hash-bucket
    shuffle as every other wide op here), so each bucket resolves its keys
    exactly with one vectorized ``pd.merge_asof``. Matched right columns
    come back suffixed ``right_suffix`` (the right ts is also emitted as
    ``ts + right_suffix``).

    ``how='left'`` keeps unmatched left rows (null matches, value columns
    become nullable); ``how='inner'`` drops them. Tie caveat: if the right
    side has duplicate (key, ts) rows the winner among equals is the last
    in this sort order, i.e. bucket-arrival dependent. Pass
    ``dedupe_right=True`` to resolve duplicates deterministically — the
    row with the lexicographically smallest ``right_cols`` tuple wins
    (exact: equal (key, ts) rows always share a bucket).
    """
    import pandas as pd

    if how not in ("left", "inner"):
        raise ValueError(f"unsupported how={how!r}")
    rcols_out = [c + right_suffix for c in right_cols] + [ts + right_suffix]
    all_cols = list(left_cols) + list(right_cols)

    def tag(cols, side):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({"_key": df[key], "_ts": df[ts]})
            for c in all_cols:
                out[c] = df[c] if c in cols else None
            out["_side"] = np.int64(side)
            return out
        return fn

    tagged = (left_ds.map_batches(tag(left_cols, 0), batch_format="pandas")
              .union(right_ds.map_batches(tag(right_cols, 1),
                                          batch_format="pandas")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lhs = (g.loc[g["_side"] == 0, ["_key", "_ts"] + list(left_cols)]
               .sort_values("_ts", kind="mergesort"))
        rhs = g.loc[g["_side"] == 1, ["_key", "_ts"] + list(right_cols)]
        if dedupe_right:
            rhs = (rhs.sort_values(["_key", "_ts"] + list(right_cols),
                                   kind="mergesort")
                   .drop_duplicates(["_key", "_ts"], keep="first"))
        rhs = (rhs.sort_values("_ts", kind="mergesort")
               .rename(columns={c: c + right_suffix for c in right_cols}))
        rhs["_ts_r"] = rhs["_ts"]
        if lhs.empty or rhs.empty:
            merged = lhs.copy()
            for c in [c + right_suffix for c in right_cols] + ["_ts_r"]:
                merged[c] = None
            if how == "inner":
                merged = merged.iloc[0:0]
            return merged.rename(columns={"_key": key, "_ts": ts,
                                          "_ts_r": ts + right_suffix})[
                [key, ts] + list(left_cols) + rcols_out]
        merged = pd.merge_asof(lhs, rhs, on="_ts", by="_key",
                               direction="backward")
        if how == "inner":
            merged = merged[merged["_ts_r"].notna()]
        return merged.rename(columns={"_key": key, "_ts": ts,
                                      "_ts_r": ts + right_suffix})[
            [key, ts] + list(left_cols) + rcols_out]

    return hash_bucket_aggregate(tagged, ["_key"], per_bucket,
                                 n_buckets=n_buckets, rows_hint=rows_hint)


#: distinct-key count above which the anti-join stops collecting keys to
#: the driver and falls back to the bucketed shuffle path. ~2M short keys
#: ≈ low hundreds of MB broadcast — the driver/object-store comfort zone.
ANTI_JOIN_BROADCAST_LIMIT = 2_000_000


def anti_join(left_ds, right_ds, col: str, left_cols: list[str] | None = None,
              *, broadcast_limit: int = ANTI_JOIN_BROADCAST_LIMIT,
              n_buckets: int | None = None, rows_hint: int | None = None):
    """Size-gated left-anti join: keep left rows whose ``col`` is absent
    from the right side.

    The right side's distinct keys are computed distributed (bucketed
    dedup). If the distinct count fits ``broadcast_limit``, the key set is
    broadcast and the join is a vectorized per-batch filter (zero extra
    shuffle of the left side). Beyond the limit — unbounded key
    cardinality at corpus scale — it falls back to the bucketed shuffle
    anti-join, which never materializes the key set anywhere.

    Returns ``[col] + left_cols`` columns on both paths.
    """
    import pandas as pd

    import ray

    out_cols = [col] + list(left_cols or [])
    dkeys = hash_bucket_aggregate(
        right_ds.select_columns([col]), [col],
        lambda g: g.drop_duplicates(col),
        n_buckets=n_buckets, rows_hint=rows_hint).materialize()
    n_keys = dkeys.count()
    if n_keys <= broadcast_limit:
        kdf = dkeys.to_pandas()
        keys = set(kdf[col]) if len(kdf) else set()
        out = semi_anti_join(left_ds, keys, col, anti=True)
        return out.map_batches(lambda b: b.select(out_cols),
                               batch_format="pyarrow")

    # beyond the broadcast limit: Bloom-prefilter the left side so only
    # maybe-matching rows (true matches + ~0.1% false positives) pay the
    # shuffle. No false negatives → rows outside the filter are definite
    # keeps; the residual exact anti-join resolves the rest.
    from .sketches import Bloom, build_bloom

    def canon_vals(values: list) -> list:
        # the Bloom hashes str(value): int64 5 and float64 5.0 must probe
        # the same bits (the same cross-dtype equality every other
        # anti-join path honors), so numeric keys canonicalize to float
        return [float(v) if isinstance(v, (int, float)) and
                not isinstance(v, bool) else v for v in values]

    n_bits = max(1 << 20, 16 * n_keys)
    bloom = build_bloom(dkeys, col, n_bits=n_bits, canon=canon_vals)
    bloom_ref = ray.put(bloom.to_bytes())
    ref_key = bloom_ref.hex()

    def add_maybe(batch: pa.Table) -> pa.Table:
        from ..stages.score import cached

        bf = cached(("bloom", ref_key),
                    lambda: Bloom.from_bytes(ray.get(bloom_ref), n_bits))
        m = bf.contains_many(canon_vals(batch.column(col).to_pylist()))
        return batch.append_column("_maybe", pa.array(m))

    # one masked pass, materialized: the upstream left pipeline and the
    # md5 probes run ONCE; the two filters below read cached blocks
    masked = left_ds.map_batches(add_maybe,
                                 batch_format="pyarrow").materialize()
    # authoritative output dtypes (shuffle_join's tagged union degrades
    # int value columns to float on its null-padded side)
    sch = masked.schema()
    target = pa.schema([(c, sch.base_schema.field(c).type)
                        for c in out_cols])

    def keep_definite(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(
            pc.invert(batch.column("_maybe"))).select(out_cols)

    def keep_maybe(batch: pa.Table) -> pa.Table:
        return batch.filter(batch.column("_maybe")).select([col]
                                                           + list(left_cols
                                                                  or []))

    definite = masked.map_batches(keep_definite, batch_format="pyarrow")
    residual = shuffle_join(
        masked.map_batches(keep_maybe, batch_format="pyarrow"),
        dkeys, col, col, list(left_cols or []), [], how="left_anti",
        n_buckets=n_buckets, rows_hint=rows_hint)

    def conform(b: pd.DataFrame) -> pa.Table:
        b = b.reindex(columns=out_cols) if not len(b) else b[out_cols]
        return pa.Table.from_pandas(b, preserve_index=False).cast(target)

    return definite.union(
        residual.map_batches(conform, batch_format="pandas"))


def global_rank(ds, sort_cols, out_col: str = "rank",
                descending: bool = False):
    """Append a dense 1-based GLOBAL rank by ``sort_cols`` — the
    distributed row_number() primitive (training-order assignment, top-N
    cutoffs, stable output numbering).

    Shape: one ``ds.sort`` (the only shuffle) + per-block row counts
    prefix-summed on the driver (counts are metadata-sized — bytes per
    block, never rows) + an embarrassingly parallel per-block arange at
    the right offset. Blocks stay in the object store end to end.

    Determinism: ties in ``sort_cols`` get block-order-dependent ranks —
    include a unique tiebreaker column, same as any SQL ORDER BY.
    """
    import ray
    import ray.data as rd

    sorted_ds = ds.sort(sort_cols, descending=descending).materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def count(t: pa.Table) -> int:
        return t.num_rows

    @ray.remote
    def with_rank(t: pa.Table, offset: int) -> pa.Table:
        return t.append_column(
            out_col, pa.array(np.arange(offset + 1,
                                        offset + 1 + t.num_rows,
                                        dtype=np.int64)))

    counts = ray.get([count.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts[:-1])]) if counts \
        else np.array([], dtype=np.int64)
    if not refs:
        return sorted_ds
    return rd.from_arrow_refs(
        [with_rank.remote(r, int(o)) for r, o in zip(refs, offsets)])


def add_time_window(ds, ts_col: str, unit: str = "day",
                    out_col: str = "window"):
    """Append a truncated-timestamp window column (event-time tumbling window).

    Emitted as an ISO string so comparisons with SQL ``strftime`` are exact.
    """
    fmt = {"day": "%Y-%m-%d", "hour": "%Y-%m-%d %H:00"}[unit]

    def trunc(batch: pd.DataFrame) -> pd.DataFrame:
        batch[out_col] = batch[ts_col].dt.strftime(fmt)
        return batch

    return ds.map_batches(trunc, batch_format="pandas")




def skew_join(left_ds, right_ds, left_key: str, right_key: str,
              left_cols: list[str], right_cols: list[str], *,
              hot_k: int = 16, counters: int = 64,
              n_buckets: int | None = None,
              rows_hint: int | None = None):
    """Inner join resilient to hot probe keys (skew join).

    A plain hash join sends every row of a hot key to ONE bucket — on a
    Zipfian fact table a single partition ends up holding a large share
    of the corpus while the other workers idle. Here a vectorized
    partial-count pass over the LEFT key (top ``counters`` per batch,
    summed distributed — approximate is fine: routing, not correctness)
    picks the ``hot_k`` heaviest keys; the RIGHT rows for those keys — a
    dimension-side handful — broadcast via ``ray.put``, and ONE tagged
    pass over the fact table joins hot rows map-side, salting the
    finished rows evenly across buckets (they only ride the exchange,
    no bucket concentrates them), while cold rows bucket by key and
    merge per bucket as usual. Total cost: one sketch pass + one
    data pass + one balanced shuffle — vs 3 fact-table passes for the
    naive split-into-two-pipelines formulation.

    Keys are matched in canonical numeric form (float64) for hot-routing
    (values travel natively through both join paths — the canonical form
    only decides WHICH path a row takes), so an int64 fact key still
    routes with a float64 dimension key.
    """
    import ray

    if n_buckets is None:
        n_buckets = compute_n_buckets(rows_hint)

    def canon(s: pd.Series) -> pd.Series:
        # cross-dtype routing safety: int64 5 and float64 5.0 must agree
        return (s.astype("float64")
                if pd.api.types.is_numeric_dtype(s) else s)

    # hot detection: vectorized per-batch partial counts (top `counters`
    # per batch), summed distributed. A truly hot key dominates nearly
    # every batch, so it always survives the per-batch cut; this is
    # routing, not correctness, so the approximation is free.
    def partial_vc(df: pd.DataFrame) -> pd.DataFrame:
        vc = canon(df[left_key]).value_counts().head(counters)
        return pd.DataFrame({"value": vc.index,
                             "cnt": vc.values.astype("int64")})

    # partials are <= counters rows per block — kilobytes — so the merge
    # folds on the driver (a Ray groupby over hundreds of tiny blocks
    # pays ~4 s of per-block fixed cost; see BASELINE.md)
    parts = (left_ds.map_batches(partial_vc, batch_format="pandas")
             .to_pandas())
    summed = parts.groupby("value", as_index=False)["cnt"].sum()
    hot = frozenset(summed.sort_values(["cnt", "value"],
                                       ascending=[False, True])
                    .head(hot_k)["value"])

    # dimension rows of the hot keys: a bounded handful -> broadcast
    right_hot = (right_ds.map_batches(
        lambda df: df[canon(df[right_key]).isin(hot)],
        batch_format="pandas").to_pandas())
    right_hot = right_hot[[right_key] + list(right_cols)].rename(
        columns={right_key: "_key"})
    hot_ref = ray.put((hot, right_hot))

    out_cols = ["_key"] + list(left_cols) + list(right_cols)

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        hot_keys, rh = ray.get(hot_ref)
        df = df[[left_key] + list(left_cols)].rename(
            columns={left_key: "_key"})
        m = canon(df["_key"]).isin(hot_keys)
        done = df[m].merge(rh, on="_key")
        done = done.assign(
            _side=np.int64(2),
            # finished rows spread round-robin — no bucket concentrates
            # a hot key; assignment only affects grouping, not values
            _bucket=(np.arange(len(done)) % n_buckets).astype("int64"))
        cold = df[~m]
        for c in right_cols:
            cold = cold.assign(**{c: None})
        cold = cold.assign(
            _side=np.int64(0),
            _bucket=canonical_bucket(cold, ["_key"], n_buckets))
        return pd.concat([done[out_cols + ["_side", "_bucket"]],
                          cold[out_cols + ["_side", "_bucket"]]])

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        hot_keys, _ = ray.get(hot_ref)
        df = df[[right_key] + list(right_cols)].rename(
            columns={right_key: "_key"})
        df = df[~canon(df["_key"]).isin(hot_keys)]
        for c in left_cols:
            df = df.assign(**{c: None})
        df = df.assign(_side=np.int64(1),
                       _bucket=canonical_bucket(df, ["_key"], n_buckets))
        return df[out_cols + ["_side", "_bucket"]]

    tagged = (left_ds.map_batches(tag_left, batch_format="pandas")
              .union(right_ds.map_batches(tag_right,
                                          batch_format="pandas")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        done = g.loc[g["_side"] == 2, out_cols]
        lhs = g.loc[g["_side"] == 0, ["_key"] + list(left_cols)]
        rhs = g.loc[g["_side"] == 1, ["_key"] + list(right_cols)]
        return pd.concat([done, lhs.merge(rhs, on="_key")])

    merged = (tagged.groupby("_bucket")
              .map_groups(lambda g: per_bucket(g.drop(columns=["_bucket"])),
                          batch_format="pandas"))

    # restore exact input dtypes (the tagged union degrades value columns
    # to object — see shuffle_join's docstring caveat)
    def arrow_types(ds, wanted):
        s = getattr(ds.schema(), "base_schema", ds.schema())
        if isinstance(s, pa.Schema):
            return {c: s.field(c).type for c in wanted}
        by_name = dict(zip(s.names, s.types))       # PandasBlockSchema
        out = {}
        for c in wanted:
            t = by_name[c]
            try:
                out[c] = pa.from_numpy_dtype(t)
            except (pa.ArrowNotImplementedError, TypeError):
                out[c] = pa.string() if t == object else pa.from_numpy_dtype(t)
        return out

    types = arrow_types(left_ds, [left_key] + list(left_cols))
    types.update(arrow_types(right_ds, list(right_cols)))
    cols = [left_key] + list(left_cols) + list(right_cols)
    out_schema = pa.schema([(c, types[c]) for c in cols])

    def conform(df: pd.DataFrame) -> pa.Table:
        df = df.rename(columns={"_key": left_key})
        return pa.Table.from_pandas(df[cols], schema=out_schema,
                                    preserve_index=False)

    return merged.map_batches(conform, batch_format="pandas")


def per_key_mode(ds, key: str, value: str, *,
                 n_buckets: int | None = None,
                 rows_hint: int | None = None):
    """Per-key statistical mode with deterministic tie-break: the value
    with the highest count per key; equal counts resolve to the smallest
    value (SQL replay: ``row_number() OVER (PARTITION BY key ORDER BY cnt
    DESC, value)``). Returns (key, modal_value, cnt).

    Map-side the batch collapses to (key, value, partial-count) triples —
    the shuffle moves distinct pairs, not rows — then one bucketed
    aggregate sums counts and takes the per-key argmax. Keys never span
    buckets, so the argmax is exact.
    """

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby([key, value], as_index=False).agg(
            cnt=(value, "size"))

    pairs = ds.map_batches(
        lambda b: partial(b).astype({"cnt": np.int64}),
        batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby([key, value], as_index=False)
             .agg(cnt=("cnt", "sum")))
        g = g.sort_values(["cnt", value], ascending=[False, True],
                          kind="stable")
        out = g.groupby(key, sort=False).head(1)
        out = out.rename(columns={value: "modal_value"})
        out["cnt"] = out["cnt"].astype(np.int64)
        return out[[key, "modal_value", "cnt"]]

    return hash_bucket_aggregate(pairs, [key], per_bucket,
                                 n_buckets=n_buckets, rows_hint=rows_hint)


def profile_columns(ds, columns: list[str], *,
                    rows_hint: int | None = None):
    """Dataset profiling: per-column row count, null count and EXACT
    distinct count in one pass over the input — the data-quality summary
    every ingestion pipeline runs before heavier stages.

    Counts are block-local integer partials (one row per column per
    block); distincts collapse map-side to DISTINCT (column, value)
    pairs, then one bucketed aggregate — each distinct value lands in
    exactly one bucket, so summing per-bucket nuniques is exact. Values
    hash by their Python string form, which is 1:1 per column type, so
    the count is representation-independent. Nulls are excluded from the
    distinct count (SQL ``count(DISTINCT col)`` semantics).

    Returns (col_name, n, n_null, n_distinct) — integers only, so the
    SQL comparison is exact for every column type.
    """
    import pyarrow as pa

    def count_partial(batch: pa.Table) -> pa.Table:
        names, ns, nulls = [], [], []
        for c in columns:
            col = batch.column(c)
            names.append(c)
            ns.append(batch.num_rows)
            nulls.append(col.null_count)
        return pa.table({"col_name": pa.array(names, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "n_null": pa.array(nulls, pa.int64())})

    from ray.data.aggregate import Sum
    counts = (ds.map_batches(count_partial, batch_format="pyarrow")
              .groupby("col_name")
              .aggregate(Sum("n", alias_name="n"),
                         Sum("n_null", alias_name="n_null")))

    def distinct_partial(batch: pa.Table) -> pa.Table:
        names, vals = [], []
        for c in columns:
            for v in set(batch.column(c).to_pylist()):
                if v is None:
                    continue
                names.append(c)
                vals.append(str(v))
        return pa.table({"col_name": pa.array(names, pa.string()),
                         "v": pa.array(vals, pa.string())})

    def nunique_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates(["col_name", "v"])
               .groupby("col_name", as_index=False).agg(nd=("v", "size")))
        out["nd"] = out["nd"].astype(np.int64)
        return out

    nd_partials = hash_bucket_aggregate(
        ds.map_batches(distinct_partial, batch_format="pyarrow"),
        ["col_name", "v"], nunique_bucket, rows_hint=rows_hint)

    nd = (nd_partials.groupby("col_name")
          .aggregate(Sum("nd", alias_name="n_distinct")))

    # the two aggregates are column-count-sized (kilobytes at any corpus
    # scale) — merge driver-side rather than paying a join shuffle
    out = counts.to_pandas().merge(nd.to_pandas(), on="col_name")
    return out.astype({"n": np.int64, "n_null": np.int64,
                       "n_distinct": np.int64}) \
        .sort_values("col_name").reset_index(drop=True)


def fd_check(ds, determinant: str, dependent: str, *,
             rows_hint: int | None = None):
    """Functional-dependency audit: does ``determinant -> dependent``
    hold? Returns a one-row pandas DataFrame (n_keys, n_violating) —
    keys with more than one distinct dependent value violate the FD.

    Scale shape: one coarse hash-bucket shuffle on the determinant (keys
    co-located, so per-key nunique is exact inside a bucket), each
    bucket reduces to a SINGLE partial row, and the driver folds
    bucket-count rows. Neither the key set nor the violating keys are
    ever materialized; pair with ``per_key_mode`` when the violating
    values themselves are wanted."""
    import pandas as pd

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.groupby(determinant, sort=False)[dependent].nunique()
        return pd.DataFrame({"n_keys": [len(nd)],
                             "n_violating": [int((nd > 1).sum())]})

    parts = hash_bucket_aggregate(ds, [determinant], per_bucket,
                                  rows_hint=rows_hint).to_pandas()
    return parts.sum().to_frame().T.astype("int64")


def _skyline2d_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D maxima (Pareto frontier, maximize both).

    A point is dominated iff some other point is >= on both axes and
    strictly greater on at least one. Vectorized O(n log n): sort by x
    descending, reduce each x-group to its max y, and keep a group iff
    its max y strictly exceeds the running max over all larger-x groups;
    within a kept group exactly the rows attaining the group max survive
    (duplicate (x, y) points all survive — neither dominates the other).
    """
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    gmax = ys[starts]                       # y sorted desc inside a group
    prev = np.r_[np.int64(np.iinfo(np.int64).min),
                 np.maximum.accumulate(gmax)[:-1]]
    kept_group = gmax > prev
    gid = np.cumsum(np.r_[True, xs[1:] != xs[:-1]]) - 1
    kept_sorted = kept_group[gid] & (ys == gmax[gid])
    mask = np.zeros(n, dtype=bool)
    mask[order] = kept_sorted
    return mask


def skyline_2d(ds, x_col: str, y_col: str):
    """Distributed 2-D skyline (Pareto frontier, maximize both columns).

    Scale shape: the frontier operator is MERGEABLE — the global skyline
    is a subset of the union of per-block skylines — so each block first
    reduces to its local frontier (expected O(log block_rows) points for
    independent axes), and only those survivors move. The survivors are
    frontier-sized, so the final pass coalesces them into one block and
    re-applies the same mask; no all-pairs comparison ever runs and the
    shuffle volume is O(frontier), not O(rows). Both columns must be
    integer-valued (quantize floats to cents/micros first) so the
    dominance comparison is exact in every engine.
    """
    def frontier(t: pa.Table) -> pa.Table:
        m = _skyline2d_mask(t.column(x_col).to_numpy(zero_copy_only=False),
                            t.column(y_col).to_numpy(zero_copy_only=False))
        return t.filter(pa.array(m))

    partials = ds.map_batches(frontier, batch_format="pyarrow")
    # survivors are frontier-sized: one coalesced block, one final mask
    return partials.repartition(1).map_batches(frontier,
                                               batch_format="pyarrow")


def key_skew_profile(ds, key_col: str, *, topk: int = 10,
                     rows_hint: int | None = None):
    """Shuffle-planning preflight: how skewed is ``key_col`` as a
    partition key? Reports exact key-count concentration — the decision
    input for salting / hub-capping (every bucketed shuffle in this
    engine assumes per-key volume is bounded; this operator measures
    that assumption BEFORE a job burns a cluster on one hot key).

    One bucketed per-key count, then:
    - Gini of the count distribution via the sorted-rank identity
      G = (2*sum(rank_i * x_i) - (N+1)*sum(x)) / (N*sum(x)) over the
      ascending (count, key) global rank — exact integer partials
      (tie order cannot change the sum: equal x contribute equally at
      any rank), one 12-dp-rounded division at the end;
    - top-k share: the k hottest keys' row fraction (deterministic
      (count desc, key) cutoff), 12-dp rounded;
    - the single hottest key and its count.

    Returns ONE row: (n_rows, n_keys, hot_key, hot_cnt, topk_share,
    gini). Never materializes per-key counts on the driver — only
    per-block scalar partials and the k-row head come back.
    """
    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", as_index=False).size()
        return pd.DataFrame({"k": out["k"].to_numpy(np.int64),
                             "cnt": out["size"].to_numpy(np.int64)})

    keyed = ds.map_batches(
        lambda t: pa.table({"k": t.column(key_col).cast(pa.int64())}),
        batch_format="pyarrow")
    counts = hash_bucket_aggregate(keyed, ["k"], count_bucket,
                                   rows_hint=rows_hint).materialize()

    ranked = global_rank(counts, ["cnt", "k"], out_col="rn")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = b["cnt"].to_numpy(np.int64)
        rn = b["rn"].to_numpy(np.int64)
        return pd.DataFrame({"n_keys": [np.int64(len(b))],
                             "tot": [np.int64(c.sum())],
                             "sr": [np.int64((rn * c).sum())]})

    parts = ranked.map_batches(partial, batch_format="pandas").to_pandas()
    n_keys = int(parts["n_keys"].sum())
    tot = int(parts["tot"].sum())
    sr = int(parts["sr"].sum())

    head = (counts.sort(["cnt", "k"], descending=[True, False])
            .limit(topk).to_pandas())
    topk_cnt = int(head["cnt"].sum())
    hot_key = int(head["k"].iloc[0])
    hot_cnt = int(head["cnt"].iloc[0])

    from .sqlcompat import sql_round
    gini = float(sql_round((2 * sr - (n_keys + 1) * tot)
                           / float(n_keys * tot), 12))
    share = float(sql_round(topk_cnt / float(tot), 12))
    return pd.DataFrame({
        "n_rows": pd.Series([tot], dtype="int64"),
        "n_keys": pd.Series([n_keys], dtype="int64"),
        "hot_key": pd.Series([hot_key], dtype="int64"),
        "hot_cnt": pd.Series([hot_cnt], dtype="int64"),
        "topk_share": pd.Series([share], dtype="float64"),
        "gini": pd.Series([gini], dtype="float64")})
