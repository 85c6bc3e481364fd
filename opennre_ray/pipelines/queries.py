"""Query catalog: every operator exposed as a named pipeline over the
driver's parquet tables, with a DuckDB oracle where SQL can express it.

Each entry is ``fn(sf_dir) -> Dataset | pandas.DataFrame | pyarrow.Table``.
Column names match the oracle SQL exactly (the driver hashes values after
sorting columns by name). SQL-inexpressible operators (model scoring, LSH,
sketches) ship without an oracle → the driver records a rows-only check and
their correctness is covered by the pytest oracles instead.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sqlcompat import sql_round


def _rd():
    import ray.data as rd
    return rd


def _read(sf_dir, table, columns=None, split: bool = True,
          rows_per_block: int = 4096):
    """Column-pruned read; single-row-group testdata files are split into
    blocks post-read so fused downstream stages parallelize (see
    ``sources.pages.default_num_blocks``). ``rows_per_block`` tunes task
    granularity: keep the 4096 default for compute-heavy stages; raise it
    for cheap vectorized scans where per-task overhead would dominate."""
    import pyarrow.parquet as pq
    from ..sources.pages import default_num_blocks

    path = f"{sf_dir}/{table}.parquet"
    kwargs = {}
    if split:
        n = default_num_blocks(pq.ParquetFile(path).metadata.num_rows,
                               rows_per_block=rows_per_block)
        # ALWAYS override — left to itself Ray splits even a 1,500-row
        # table into ~64 tiny blocks, and every downstream stage then
        # pays 64 tasks of pure fixed cost (measured: 2.6 s to read 12 KB)
        kwargs["override_num_blocks"] = n
    return _rd().read_parquet(path, columns=columns, **kwargs)


def _small(sf_dir, table, columns=None) -> pd.DataFrame:
    import pyarrow.parquet as pq
    return pq.read_table(f"{sf_dir}/{table}.parquet",
                         columns=columns).to_pandas()


def _nrows(sf_dir, table) -> int:
    """Row count from parquet footer metadata — free, no data read; used as
    the ``rows_hint`` that sizes hash buckets to the input."""
    import pyarrow.parquet as pq
    return pq.ParquetFile(f"{sf_dir}/{table}.parquet").metadata.num_rows


# ---------------------------------------------------------------------------
# Relational core (groupby-agg / filter / sort-limit / joins / set ops)
# ---------------------------------------------------------------------------

def lineitem_group_agg(sf_dir):
    """TPC-H Q1-style grouped aggregate, fully map-side combined.

    Group cardinality is tiny (|returnflag| × |linestatus|), so a sort
    shuffle is pure overhead — each batch reduces to ≤6 partial rows via a
    vectorized pandas groupby, and the global combine handles
    (blocks × 6) rows. Measured 2.9-3.5 s → ~0.6 s at sf0.1 / 32 CPUs;
    at 100 TB the exchange stays O(blocks × groups), never O(rows).
    """
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(disc_price=b["l_extendedprice"] * (1.0 - b["l_discount"]))
        return (b.groupby(["l_returnflag", "l_linestatus"], as_index=False)
                .agg(sum_qty=("l_quantity", "sum"),
                     sum_base_price=("l_extendedprice", "sum"),
                     sum_disc_price=("disc_price", "sum"),
                     count_order=("l_quantity", "size")))

    parts = _read(sf_dir, "lineitem",
                  ["l_returnflag", "l_linestatus", "l_quantity",
                   "l_extendedprice", "l_discount"],
                  rows_per_block=65536).map_batches(
        partial, batch_format="pandas").to_pandas()
    out = (parts.groupby(["l_returnflag", "l_linestatus"], as_index=False)
           .agg(sum_qty=("sum_qty", "sum"),
                sum_base_price=("sum_base_price", "sum"),
                sum_disc_price=("sum_disc_price", "sum"),
                count_order=("count_order", "sum")))
    out["avg_qty"] = sql_round(out["sum_qty"] / out["count_order"], 4)
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        out[c] = sql_round(out[c], 2)
    out["count_order"] = out["count_order"].astype("int64")
    return out[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
                "sum_disc_price", "avg_qty", "count_order"]]


SQL_LINEITEM_GROUP_AGG = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2)                        AS sum_qty,
       round(sum(l_extendedprice), 2)                   AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(avg(l_quantity), 4)                        AS avg_qty,
       count(*)                                         AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def lineitem_filter_agg(sf_dir):
    """TPC-H Q6-style pushed-down filter + single-row aggregate."""
    ds = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.and_(pc.greater_equal(batch.column("l_discount"), 0.05),
                            pc.less_equal(batch.column("l_discount"), 0.07)),
                    pc.less(batch.column("l_quantity"), 24.0))
        f = batch.filter(m)
        rev = pc.sum(pc.multiply(f.column("l_extendedprice"),
                                 f.column("l_discount"))).as_py() or 0.0
        return pa.table({"partial_rev": pa.array([rev], pa.float64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {"revenue": [float(sql_round(parts["partial_rev"].sum(), 2))]})


SQL_LINEITEM_FILTER_AGG = """
SELECT round(sum(l_extendedprice * l_discount), 2) AS revenue
FROM lineitem
WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


def topk_orders(sf_dir):
    """Global sort-desc + limit (O1/O3 pattern) with deterministic tiebreak."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(100)


SQL_TOPK_ORDERS = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
"""


def customer_nation_join(sf_dir):
    """Broadcast dimension join + grouped aggregate."""
    from ray.data.aggregate import Count, Sum
    from ..functions.relational import broadcast_join

    nation = _small(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})
    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    joined = broadcast_join(ds, nation, on="c_nationkey")
    out = joined.groupby("n_name").aggregate(
        Count(alias_name="n_customers"),
        Sum("c_acctbal", alias_name="sum_acctbal"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b["sum_acctbal"] = sql_round(b["sum_acctbal"], 2)
        return b

    return out.map_batches(fin, batch_format="pandas")


def orders_above_customer_avg(sf_dir):
    """Detail rows filtered against their own group's aggregate (the
    correlated-subquery shape): one customer-hash shuffle computes the
    per-customer mean AND applies the filter inside the same bucket pass —
    no second join of the aggregate back onto the detail."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        avg = g.groupby("o_custkey")["o_totalprice"].transform("mean")
        out = g[g["o_totalprice"] > 1.5 * avg].copy()
        # round at 6 (not 2): cent-valued prices put group means ON the
        # .xx5 boundary, where the engines' different summation orders
        # flip the last cent; at 6 decimals no reachable mean of cent
        # values with small group sizes lands on a rounding boundary
        out["cust_avg"] = sql_round(avg[out.index], 6)
        return out

    out = hash_bucket_aggregate(ds, ["o_custkey"], per_bucket,
                                rows_hint=_nrows(sf_dir, "orders"))
    return out.map_batches(
        lambda b: b[["o_orderkey", "o_custkey", "o_totalprice", "cust_avg"]]
        if len(b) else b,
        batch_format="pandas")


SQL_ORDERS_ABOVE_CUSTOMER_AVG = """
SELECT o_orderkey, o_custkey, o_totalprice,
       round(avg(o_totalprice) OVER (PARTITION BY o_custkey), 6) AS cust_avg
FROM orders
QUALIFY o_totalprice > 1.5 * avg(o_totalprice) OVER (PARTITION BY o_custkey)
"""


def revenue_by_nation(sf_dir):
    """Three-table chain (orders ⋈ customer ⋈ nation) with map-side
    combine: the fact table streams once, both dimensions broadcast, and
    each batch pre-reduces to ≤25 partial rows before the tiny groupby."""
    from ray.data.aggregate import Sum
    from ..functions.relational import broadcast_join

    cust = _small(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    nation = _small(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})
    # dimension⋈dimension happens driver-side (both tiny); the fact table
    # joins the pre-merged map in ONE broadcast pass
    dim = cust.merge(nation, on="c_nationkey")[["o_custkey", "n_name"]]

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, dim, on="o_custkey")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("n_name", as_index=False)
                .agg(n_orders=("o_totalprice", "size"),
                     revenue=("o_totalprice", "sum")))

    parts = joined.map_batches(partial, batch_format="pandas")
    out = parts.groupby("n_name").aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("revenue", alias_name="revenue"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b["n_orders"] = b["n_orders"].astype("int64")
        b["revenue"] = sql_round(b["revenue"], 2)
        return b

    return out.map_batches(fin, batch_format="pandas")


SQL_REVENUE_BY_NATION = """
SELECT n.n_name, count(*)::BIGINT AS n_orders,
       round(sum(o.o_totalprice), 2) AS revenue
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def lineitem_part_skew_join(sf_dir):
    """Fact⋈dimension via the skew-resilient hybrid join: Misra-Gries
    picks the heaviest probe keys, whose rows join map-side against a
    broadcast slice of the dimension while the cold remainder takes the
    bucketed shuffle path — then a map-side combine + tiny groupby."""
    from ray.data.aggregate import Sum
    from ..functions.relational import skew_join

    # coarse blocks: the join scan is cheap vectorized work, so task
    # granularity (not CPU) dominates at fine splits
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"],
               rows_per_block=65_536)
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"],
                 rows_per_block=65_536)
    joined = skew_join(li, part, "l_partkey", "p_partkey",
                       ["l_extendedprice"], ["p_brand"],
                       hot_k=16, rows_hint=_nrows(sf_dir, "lineitem"))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("p_brand", as_index=False)
                .agg(n_items=("l_extendedprice", "size"),
                     revenue=("l_extendedprice", "sum")))

    parts = joined.map_batches(partial, batch_format="pandas")
    out = parts.groupby("p_brand").aggregate(
        Sum("n_items", alias_name="n_items"),
        Sum("revenue", alias_name="revenue"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b["n_items"] = b["n_items"].astype("int64")
        b["revenue"] = sql_round(b["revenue"], 2)
        return b

    return out.map_batches(fin, batch_format="pandas")


def lineitem_rollup(sf_dir):
    """GROUP BY ROLLUP (returnflag, linestatus): the corpus is reduced
    ONCE to the finest level (map-side combine + tiny groupby, the only
    pass), and the coarser levels + grand total derive from those few
    rows on the driver — never a second scan."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"],
               rows_per_block=65_536)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby(["l_returnflag", "l_linestatus"],
                          as_index=False)
                .agg(n_items=("l_quantity", "size"),
                     sum_qty=("l_quantity", "sum")))

    fine = (ds.map_batches(partial, batch_format="pandas")
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("n_items", alias_name="n_items"),
                       Sum("sum_qty", alias_name="sum_qty"))
            .to_pandas())
    fine["n_items"] = fine["n_items"].astype("int64")

    mid = (fine.groupby("l_returnflag", as_index=False)
           .agg(n_items=("n_items", "sum"), sum_qty=("sum_qty", "sum")))
    mid["l_linestatus"] = None
    total = pd.DataFrame({
        "l_returnflag": [None], "l_linestatus": [None],
        "n_items": [fine["n_items"].sum()],
        "sum_qty": [fine["sum_qty"].sum()]})
    out = pd.concat([fine, mid, total], ignore_index=True)
    out["sum_qty"] = sql_round(out["sum_qty"], 2)
    out["n_items"] = out["n_items"].astype("int64")
    return out[["l_returnflag", "l_linestatus", "n_items", "sum_qty"]]


SQL_LINEITEM_ROLLUP = """
SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n_items,
       round(sum(l_quantity), 2) AS sum_qty
FROM lineitem GROUP BY ROLLUP (l_returnflag, l_linestatus)
"""


def lineitem_cube(sf_dir):
    """GROUP BY CUBE (returnflag, linestatus): all four grouping sets
    from the SAME single finest-level corpus pass as the rollup — the
    extra (linestatus-only) level is one more driver-side fold over the
    few finest rows, never a rescan."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"],
               rows_per_block=65_536)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby(["l_returnflag", "l_linestatus"],
                          as_index=False)
                .agg(n_items=("l_quantity", "size"),
                     sum_qty=("l_quantity", "sum")))

    fine = (ds.map_batches(partial, batch_format="pandas")
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("n_items", alias_name="n_items"),
                       Sum("sum_qty", alias_name="sum_qty"))
            .to_pandas())
    fine["n_items"] = fine["n_items"].astype("int64")

    def lvl(keys: list[str]) -> pd.DataFrame:
        if keys:
            g = (fine.groupby(keys, as_index=False)
                 .agg(n_items=("n_items", "sum"),
                      sum_qty=("sum_qty", "sum")))
        else:
            g = pd.DataFrame({"n_items": [fine["n_items"].sum()],
                              "sum_qty": [fine["sum_qty"].sum()]})
        for c in ("l_returnflag", "l_linestatus"):
            if c not in keys:
                g[c] = None
        return g

    out = pd.concat([fine, lvl(["l_returnflag"]), lvl(["l_linestatus"]),
                     lvl([])], ignore_index=True)
    out["sum_qty"] = sql_round(out["sum_qty"], 2)
    out["n_items"] = out["n_items"].astype("int64")
    return out[["l_returnflag", "l_linestatus", "n_items", "sum_qty"]]


SQL_LINEITEM_CUBE = """
SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n_items,
       round(sum(l_quantity), 2) AS sum_qty
FROM lineitem GROUP BY CUBE (l_returnflag, l_linestatus)
"""


NTILE_N = 4


def orders_price_ntile(sf_dir):
    """NTILE(4) quartile assignment over a global price order — the
    distributed row_number primitive (one sort) + a stateless per-row
    tile formula; exact SQL NTILE semantics (first N%n tiles get the
    extra row)."""
    from ..functions.relational import global_rank

    n_rows = _nrows(sf_dir, "orders")
    q, r = divmod(n_rows, NTILE_N)

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    ranked = global_rank(ds, ["o_totalprice", "o_orderkey"],
                         out_col="rn")

    def tile(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["rn"].to_numpy(dtype=np.int64)
        big = r * (q + 1)                    # rows living in the +1 tiles
        t = np.where(rn <= big, (rn - 1) // max(q + 1, 1),
                     r + (rn - 1 - big) // max(q, 1))
        return pd.DataFrame({"o_orderkey": b["o_orderkey"],
                             "o_totalprice": b["o_totalprice"],
                             "tile": (t + 1).astype("int64")})

    return ranked.map_batches(tile, batch_format="pandas")


SQL_ORDERS_PRICE_NTILE = f"""
SELECT o_orderkey, o_totalprice,
       ntile({NTILE_N}) OVER (ORDER BY o_totalprice, o_orderkey)::BIGINT
         AS tile
FROM orders
"""


RFM_TILES = 5
_DAY_US = 86_400_000_000


def customer_rfm_segments(sf_dir):
    """RFM segmentation (Hughes 1994 — the classic marketing-analytics
    triple): per customer, Recency = whole days between their last order
    and the corpus's last order, Frequency = order count, Monetary =
    exact integer cents (per-row half-away-from-zero rounding, so float
    sum order can never drift); then three NTILE(5) scores over
    deterministic (metric, custkey) orders and the combined 3-digit
    segment code. One bucketed per-customer aggregate, then THREE
    chained global_rank passes — each rank carries every column, so no
    score-reassembly joins; tiles are a stateless per-row formula."""
    from ..functions.relational import global_rank, hash_bucket_aggregate
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                  "o_totalprice"])

    def per_customer(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["o_orderdate"].to_numpy("datetime64[us]").astype(np.int64)
        cents = sql_round(g["o_totalprice"].to_numpy(np.float64) * 100.0,
                          0).astype(np.int64)
        out = (pd.DataFrame({"c_custkey": g["o_custkey"].to_numpy(np.int64),
                             "last_ts": ts, "cents": cents})
               .groupby("c_custkey", as_index=False)
               .agg(last_ts=("last_ts", "max"),
                    frequency=("last_ts", "size"),
                    monetary_cents=("cents", "sum")))
        return out.astype({"c_custkey": np.int64, "last_ts": np.int64,
                           "frequency": np.int64,
                           "monetary_cents": np.int64})

    base = hash_bucket_aggregate(
        ds, ["o_custkey"], per_customer,
        rows_hint=_nrows(sf_dir, "orders")).materialize()
    n = base.count()
    md = int(base.map_batches(
        lambda t: pa.table({"m": pa.array(
            [pc.max(t.column("last_ts")).as_py()], pa.int64())}),
        batch_format="pyarrow").to_pandas()["m"].max())
    q, r = divmod(n, RFM_TILES)

    def tiled(col: str):
        big = r * (q + 1)

        def fn(b: pd.DataFrame) -> pd.DataFrame:
            rn = b["rn"].to_numpy(np.int64)
            t = np.where(rn <= big, (rn - 1) // max(q + 1, 1),
                         r + (rn - 1 - big) // max(q, 1))
            b = b.drop(columns=["rn"]).copy()
            b[col] = (t + 1).astype(np.int64)
            return b
        return fn

    out = base
    for metric, col in (("last_ts", "r_score"), ("frequency", "f_score"),
                        ("monetary_cents", "m_score")):
        out = global_rank(out, [metric, "c_custkey"], out_col="rn")
        out = out.map_batches(tiled(col), batch_format="pandas")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        rec = (md - b["last_ts"].to_numpy(np.int64)) // _DAY_US
        return pd.DataFrame({
            "c_custkey": b["c_custkey"].to_numpy(np.int64),
            "recency_days": rec.astype(np.int64),
            "frequency": b["frequency"].to_numpy(np.int64),
            "monetary_cents": b["monetary_cents"].to_numpy(np.int64),
            "r_score": b["r_score"].to_numpy(np.int64),
            "f_score": b["f_score"].to_numpy(np.int64),
            "m_score": b["m_score"].to_numpy(np.int64),
            "rfm": (b["r_score"].to_numpy(np.int64) * 100
                    + b["f_score"].to_numpy(np.int64) * 10
                    + b["m_score"].to_numpy(np.int64)).astype(np.int64)})

    return out.map_batches(finish, batch_format="pandas")


SQL_CUSTOMER_RFM_SEGMENTS = f"""
WITH c AS (SELECT o_custkey AS c_custkey, max(o_orderdate) AS last_ts,
                  count(*)::BIGINT AS frequency,
                  sum(CAST(round(o_totalprice * 100, 0) AS BIGINT))::BIGINT
                    AS monetary_cents
           FROM orders GROUP BY o_custkey),
m AS (SELECT max(last_ts) AS md FROM c),
s AS (SELECT c_custkey,
        (date_diff('microsecond', last_ts, m.md) // {_DAY_US})::BIGINT
          AS recency_days,
        frequency, monetary_cents,
        ntile({RFM_TILES}) OVER (ORDER BY last_ts, c_custkey)::BIGINT
          AS r_score,
        ntile({RFM_TILES}) OVER (ORDER BY frequency, c_custkey)::BIGINT
          AS f_score,
        ntile({RFM_TILES}) OVER (ORDER BY monetary_cents, c_custkey)::BIGINT
          AS m_score
      FROM c, m)
SELECT *, (r_score * 100 + f_score * 10 + m_score)::BIGINT AS rfm FROM s
"""


CMJ_WIDTH = 1 << 12
CMJ_DEPTH = 4


def events_orders_join_estimate(sf_dir):
    """Join-cardinality planning preflight: estimate
    |events ⋈ orders ON user_id = o_custkey| from two fixed-size
    Count-Min sketches (min-over-rows inner product — always an
    over-estimate) next to the exact pair count, BEFORE any shuffle
    moves either table. md5-KM hashing makes the sketch bit-replayable
    in SQL, so the oracle value-checks the estimate itself, not just
    the exact count. See functions/sketches.py::join_size_estimate."""
    from ..functions.sketches import join_size_estimate

    ev = _read(sf_dir, "events", ["user_id"], rows_per_block=32768)
    od = _read(sf_dir, "orders", ["o_custkey"], rows_per_block=32768)
    return join_size_estimate(ev, od, "user_id", "o_custkey",
                              width=CMJ_WIDTH, depth=CMJ_DEPTH,
                              rows_hint=_nrows(sf_dir, "orders"))


SQL_EVENTS_ORDERS_JOIN_ESTIMATE = f"""
WITH lc AS (SELECT user_id AS k, count(*)::BIGINT AS c FROM events
            GROUP BY user_id),
rc AS (SELECT o_custkey AS k, count(*)::BIGINT AS c FROM orders
       GROUP BY o_custkey),
ks AS (SELECT k FROM lc UNION SELECT k FROM rc),
h AS (SELECT k,
        ('0x' || substr(md5(k::VARCHAR), 1, 16))::UBIGINT::HUGEINT AS h1,
        (('0x' || substr(md5(k::VARCHAR), 17, 16))::UBIGINT
         | 1)::HUGEINT AS h2
      FROM ks),
pos AS (SELECT k, r,
          (((h1 + r * h2) % 18446744073709551616) % {CMJ_WIDTH})::BIGINT
            AS p
        FROM h, unnest(range(0, {CMJ_DEPTH})) AS u(r)),
tl AS (SELECT r, p, sum(lc.c)::HUGEINT AS v FROM lc
       JOIN pos ON lc.k = pos.k GROUP BY r, p),
tr AS (SELECT r, p, sum(rc.c)::HUGEINT AS v FROM rc
       JOIN pos ON rc.k = pos.k GROUP BY r, p),
ip AS (SELECT tl.r, sum(tl.v * tr.v) AS prod FROM tl
       JOIN tr ON tl.r = tr.r AND tl.p = tr.p GROUP BY tl.r),
ex AS (SELECT coalesce(sum(lc.c::HUGEINT * rc.c), 0) AS e FROM lc
       JOIN rc ON lc.k = rc.k)
SELECT ex.e::BIGINT AS exact_pairs,
       (SELECT min(prod) FROM ip)::BIGINT AS cm_estimate,
       round(((SELECT min(prod) FROM ip) - ex.e)::DOUBLE
             / ex.e::DOUBLE, 12) AS rel_err
FROM ex
"""


KANON_SMALL = 5     # re-identification risk: groups smaller than this
LDIV_LOW = 3        # homogeneity risk: sensitive diversity below this


def customer_k_anonymity(sf_dir):
    """Privacy / compliance audit (Sweeney 2002 k-anonymity; Machanavajjhala
    2007 l-diversity) over the quasi-identifier pair
    (nation, market segment) with account-balance-thousands as the
    sensitive attribute: the release-readiness numbers a training-data
    pipeline reports before shipping a table containing people.
    k = the smallest QI group (anyone in a group of k is hidden among
    k records); l = the least-diverse group's distinct sensitive count.
    One bucketed QI aggregate (groups co-locate, so per-group n and
    distinct-sensitive are vectorized in-bucket), then per-block scalar
    partials fold on the driver — the group table never collects.
    Output: one summary row."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "customer",
               ["c_nationkey", "c_mktsegment", "c_acctbal"])

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(s=np.floor(
            g["c_acctbal"].to_numpy(np.float64) / 1000.0))
        out = (g.groupby(["c_nationkey", "c_mktsegment"])
               .agg(n=("s", "size"), l=("s", "nunique")).reset_index())
        return out.astype({"n": np.int64, "l": np.int64})

    groups = hash_bucket_aggregate(
        ds, ["c_nationkey", "c_mktsegment"], per_group,
        rows_hint=_nrows(sf_dir, "customer"))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n"].to_numpy(np.int64)
        l = b["l"].to_numpy(np.int64)
        return pd.DataFrame({
            "n_rows": [np.int64(n.sum())],
            "n_groups": [np.int64(len(b))],
            "k_min": [np.int64(n.min())],
            "rows_small": [np.int64(n[n < KANON_SMALL].sum())],
            "l_min": [np.int64(l.min())],
            "groups_low": [np.int64((l < LDIV_LOW).sum())]})

    p = groups.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "n_rows": pd.Series([p["n_rows"].sum()], dtype="int64"),
        "n_groups": pd.Series([p["n_groups"].sum()], dtype="int64"),
        "k_anonymity": pd.Series([p["k_min"].min()], dtype="int64"),
        "rows_in_small_groups": pd.Series([p["rows_small"].sum()],
                                          dtype="int64"),
        "l_diversity": pd.Series([p["l_min"].min()], dtype="int64"),
        "low_diversity_groups": pd.Series([p["groups_low"].sum()],
                                          dtype="int64")})


SQL_CUSTOMER_K_ANONYMITY = f"""
WITH g AS (SELECT c_nationkey, c_mktsegment, count(*)::BIGINT AS n,
                  count(DISTINCT floor(c_acctbal / 1000.0))::BIGINT AS l
           FROM customer GROUP BY c_nationkey, c_mktsegment)
SELECT (SELECT count(*) FROM customer)::BIGINT AS n_rows,
       count(*)::BIGINT AS n_groups,
       min(n)::BIGINT AS k_anonymity,
       coalesce(sum(CASE WHEN n < {KANON_SMALL} THEN n END),
                0)::BIGINT AS rows_in_small_groups,
       min(l)::BIGINT AS l_diversity,
       sum(CASE WHEN l < {LDIV_LOW} THEN 1
                ELSE 0 END)::BIGINT AS low_diversity_groups
FROM g
"""


BOOT_REPLICAS = 40


def orders_bootstrap_ci(sf_dir):
    """Poisson-bootstrap 95% confidence interval for mean order value —
    the uncertainty number every sampled-metrics dashboard wants, via
    the only bootstrap that distributes (per-row Poisson(1) replica
    weights instead of the n-out-of-n multinomial resample; Chamandy et
    al. 2012). Deterministic end-to-end: weights come from md5-seeded
    u64-wrap draws against integer Poisson CDF thresholds, replica sums
    are exact int64 in cents, and the SQL oracle replays the DRAWS
    themselves in HUGEINT arithmetic — the interval is value-checked,
    not just the point estimate. Per block only (B+1) integer partial
    rows move; nearest-rank 2.5/97.5 percentiles over B=40 replica
    means."""
    from ..functions.packing import poisson_bootstrap_ci

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"],
               rows_per_block=32768)
    return poisson_bootstrap_ci(ds, "o_totalprice", "o_orderkey",
                                n_replicas=BOOT_REPLICAS)


def _sql_bootstrap_ci() -> str:
    from ..functions.packing import POISSON1_CDF_U64, bootstrap_params

    B = BOOT_REPLICAS
    a, c = bootstrap_params(B)
    A = "[" + ",".join(str(int(x)) for x in a) + "]::UBIGINT[]"
    C = "[" + ",".join(str(int(x)) for x in c) + "]::UBIGINT[]"
    w_expr = " + ".join(f"(u >= {t}::UBIGINT)::BIGINT"
                        for t in POISSON1_CDF_U64)
    lo = -(-25 * B // 1000)                            # ceil(0.025 * B)
    hi = -(-975 * B // 1000)                           # ceil(0.975 * B)
    return f"""
WITH h AS (SELECT
    ('0x'||substr(md5('boot::'||o_orderkey::VARCHAR),1,16))::UBIGINT AS h,
    CAST(round(o_totalprice*100) AS BIGINT) AS cents FROM orders),
params AS (SELECT unnest(range({B}))::BIGINT AS b,
                  unnest({A}) AS a, unnest({C}) AS c),
draws AS (SELECT b, ((h.h::HUGEINT * a::HUGEINT + c::HUGEINT)
                     % 18446744073709551616)::UBIGINT AS u, cents
          FROM h CROSS JOIN params),
reps AS (SELECT b, sum({w_expr}) AS sw,
                sum(({w_expr}) * cents) AS swx
         FROM draws GROUP BY b),
means AS (SELECT b, round(swx::DOUBLE / sw::DOUBLE / 100, 12) AS m
          FROM reps),
ranked AS (SELECT m, row_number() OVER (ORDER BY m, b) AS r FROM means)
SELECT (SELECT round(sum(cents)::DOUBLE / count(*)::DOUBLE / 100, 12)
        FROM h) AS "mean",
       (SELECT m FROM ranked WHERE r = {lo}) AS ci_lo,
       (SELECT m FROM ranked WHERE r = {hi}) AS ci_hi,
       (SELECT count(*) FROM h)::BIGINT AS n_rows,
       {B}::BIGINT AS n_replicas
"""


SQL_ORDERS_BOOTSTRAP_CI = _sql_bootstrap_ci()


SKEW_TOPK = 10


def events_user_skew_profile(sf_dir):
    """Shuffle-planning preflight on the event log's natural partition
    key: exact Gini of the per-user row-count distribution (sorted-rank
    identity over one global rank — integer partials, one rounded
    division), the top-10 users' row share, and the hottest key. The
    number every salting / hub-capping decision in this engine wants
    BEFORE the shuffle runs; see functions/relational.py::
    key_skew_profile."""
    from ..functions.relational import key_skew_profile

    ds = _read(sf_dir, "events", ["user_id"], rows_per_block=32768)
    return key_skew_profile(ds, "user_id", topk=SKEW_TOPK,
                            rows_hint=_nrows(sf_dir, "events") // 4)


SQL_EVENTS_USER_SKEW_PROFILE = f"""
WITH c AS (SELECT user_id AS k, count(*)::BIGINT AS cnt FROM events
           GROUP BY user_id),
r AS (SELECT k, cnt, row_number() OVER (ORDER BY cnt, k) AS rn FROM c),
s AS (SELECT count(*)::HUGEINT AS n_keys, sum(cnt)::HUGEINT AS tot,
             sum(rn::HUGEINT * cnt) AS sr FROM r),
h AS (SELECT k, cnt FROM c ORDER BY cnt DESC, k LIMIT {SKEW_TOPK})
SELECT s.tot::BIGINT AS n_rows, s.n_keys::BIGINT AS n_keys,
       (SELECT k FROM h ORDER BY cnt DESC, k LIMIT 1)::BIGINT AS hot_key,
       (SELECT max(cnt) FROM h)::BIGINT AS hot_cnt,
       round((SELECT sum(cnt) FROM h)::DOUBLE / s.tot::DOUBLE, 12)
         AS topk_share,
       round((2 * s.sr - (s.n_keys + 1) * s.tot)::DOUBLE
             / (s.n_keys * s.tot)::DOUBLE, 12) AS gini
FROM s
"""


def lineitem_price_histogram(sf_dir):
    """Fixed-width histogram of extended price: per-batch vectorized
    bincount partials, one tiny groupby sum — the one-pass distributed
    histogram shape."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"],
               rows_per_block=65_536)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bins = np.floor(b["l_extendedprice"].to_numpy(dtype=np.float64)
                        / 5000.0).astype(np.int64)
        vc = pd.Series(bins).value_counts()
        return pd.DataFrame({"bin": vc.index.astype("int64"),
                             "cnt": vc.values.astype("int64")})

    out = (ds.map_batches(partial, batch_format="pandas")
           .groupby("bin").aggregate(Sum("cnt", alias_name="cnt")))
    return out.map_batches(
        lambda b: b.assign(cnt=b["cnt"].astype("int64")),
        batch_format="pandas")


SQL_LINEITEM_PRICE_HISTOGRAM = """
SELECT floor(l_extendedprice / 5000.0)::BIGINT AS bin,
       count(*)::BIGINT AS cnt
FROM lineitem GROUP BY bin
"""


def lineitem_qty_price_corr(sf_dir):
    """Pearson correlation of quantity vs extended price via EXACT
    integer moment sums: values quantize to cents/units once, the five
    moments accumulate as arbitrary-precision ints (order-independent,
    overflow-free), and the final float formula runs on identical
    integers in both engines — bit-identical before the cosmetic round.
    One streaming pass; partials are five numbers per batch."""
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"],
               rows_per_block=65_536)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(b["l_quantity"].to_numpy(dtype=np.float64)) \
            .astype(np.int64)
        y = np.rint(b["l_extendedprice"].to_numpy(dtype=np.float64)
                    * 100.0).astype(np.int64)
        return pd.DataFrame({
            "n": [len(x)], "sx": [int(x.sum())], "sy": [int(y.sum())],
            "sxx": [int((x * x).sum())],
            "sxy": [int((x.astype(object) * y.astype(object)).sum())],
            "syy": [int((y.astype(object) * y.astype(object)).sum())]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()

    def exact_sum(col):
        # fold in Python ints: an int64 pandas sum of the syy partials
        # wraps silently past 9.2e18
        return sum(int(v) for v in parts[col])

    n = exact_sum("n")
    sx, sy = exact_sum("sx"), exact_sum("sy")
    sxx, sxy, syy = exact_sum("sxx"), exact_sum("sxy"), exact_sum("syy")
    import math
    num = n * sxy - sx * sy
    # each variance factor fits INT128 but their product does not at
    # sf>=0.1 — convert the exact factors to double FIRST (the oracle
    # does the same), then multiply
    fa = float(n * sxx - sx * sx)
    fb = float(n * syy - sy * sy)
    r = float(num) / math.sqrt(fa * fb)
    return pd.DataFrame({"n": [n], "corr": [float(sql_round(r, 6))]})


SQL_LINEITEM_QTY_PRICE_CORR = """
WITH q AS (
  SELECT round(l_quantity)::HUGEINT AS x,
         round(l_extendedprice * 100.0)::HUGEINT AS y
  FROM lineitem),
m AS (SELECT count(*)::HUGEINT AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x*x) AS sxx, sum(x*y) AS sxy, sum(y*y) AS syy
      FROM q)
SELECT n::BIGINT AS n,
       round((n*sxy - sx*sy)::DOUBLE
             / sqrt((n*sxx - sx*sx)::DOUBLE * (n*syy - sy*sy)::DOUBLE), 6)
         AS corr
FROM m
"""


def customers_order_counts(sf_dir):
    """Left OUTER join: every customer keeps a row, zero-order customers
    included. The fact side pre-aggregates to per-customer partial counts
    map-side (the shuffle moves customer-cardinality count rows, never
    order rows), then one bucketed left join fills absent keys with 0."""
    from ..functions.relational import hash_bucket_aggregate

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"], rows_per_block=65_536)

    # ONE bucketed shuffle: customer keys and map-side-combined order
    # counts ride the same exchange keyed on custkey; each bucket sums
    # its count partials and left-joins in a single vectorized step
    def tag_cust(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": b["c_custkey"].astype("int64"),
                             "cnt": np.int64(0), "side": np.int64(0)})

    def tag_orders(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["o_custkey"].value_counts()
        return pd.DataFrame({"k": vc.index.astype("int64"),
                             "cnt": vc.values.astype("int64"),
                             "side": np.int64(1)})

    tagged = (cust.map_batches(tag_cust, batch_format="pandas")
              .union(orders.map_batches(tag_orders, batch_format="pandas")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = (g[g["side"] == 1].groupby("k")["cnt"].sum())
        keys = g.loc[g["side"] == 0, "k"]
        return pd.DataFrame({
            "c_custkey": keys.astype("int64"),
            "n_orders": keys.map(counts).fillna(0).astype("int64")})

    return hash_bucket_aggregate(tagged, ["k"], per_bucket,
                                 rows_hint=_nrows(sf_dir, "customer"))


SQL_CUSTOMERS_ORDER_COUNTS = """
SELECT c_custkey, count(o_orderkey)::BIGINT AS n_orders
FROM customer LEFT JOIN orders ON o_custkey = c_custkey
GROUP BY c_custkey
"""


_PERIOD_SPLIT = "1998-01-01"


def orders_period_full_join(sf_dir):
    """FULL OUTER shuffle join: per-customer order counts in the early
    period (orderdate < 1998) vs the late period (>= 1998). Customers
    active in only one period appear on only one side, so BOTH outer
    directions are exercised (8 left-only / 20 right-only at sf0.01).

    Each side map-side-combines order rows to per-customer count partials
    before its bucketed sum (the exchanges move customer-cardinality
    rows, never order rows), then ``shuffle_join(how='full')`` stitches
    the periods; absent counts coalesce to 0 for a stable int64 schema.
    Covers the one join direction the engine's hash join lacked
    (inner/left/semi/anti landed in earlier rounds)."""
    from ..functions.relational import hash_bucket_aggregate, shuffle_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"],
                   rows_per_block=65_536)
    split = pd.Timestamp(_PERIOD_SPLIT)
    n_cust = _nrows(sf_dir, "customer")

    def side_counts(early: bool, out_col: str):
        def tag(b: pd.DataFrame) -> pd.DataFrame:
            m = (b["o_orderdate"] < split) if early \
                else (b["o_orderdate"] >= split)
            vc = b.loc[m, "o_custkey"].value_counts()
            return pd.DataFrame({"o_custkey": vc.index.astype("int64"),
                                 out_col: vc.values.astype("int64")})

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            return (g.groupby("o_custkey", as_index=False)[out_col]
                    .sum().astype("int64"))

        return hash_bucket_aggregate(
            orders.map_batches(tag, batch_format="pandas"),
            ["o_custkey"], per_bucket, rows_hint=n_cust)

    joined = shuffle_join(side_counts(True, "n_early"),
                          side_counts(False, "n_late"),
                          "o_custkey", "o_custkey",
                          ["n_early"], ["n_late"],
                          how="full", rows_hint=n_cust)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_custkey": b["o_custkey"].astype("int64"),
            "n_early": b["n_early"].fillna(0).astype("int64"),
            "n_late": b["n_late"].fillna(0).astype("int64")})

    return joined.map_batches(finish, batch_format="pandas")


SQL_ORDERS_PERIOD_FULL_JOIN = f"""
WITH a AS (SELECT o_custkey, count(*)::BIGINT AS n_early FROM orders
           WHERE o_orderdate < TIMESTAMP '{_PERIOD_SPLIT}' GROUP BY 1),
     b AS (SELECT o_custkey, count(*)::BIGINT AS n_late FROM orders
           WHERE o_orderdate >= TIMESTAMP '{_PERIOD_SPLIT}' GROUP BY 1)
SELECT coalesce(a.o_custkey, b.o_custkey)::BIGINT AS o_custkey,
       coalesce(n_early, 0)::BIGINT AS n_early,
       coalesce(n_late, 0)::BIGINT AS n_late
FROM a FULL OUTER JOIN b ON a.o_custkey = b.o_custkey
"""


SQL_LINEITEM_PART_SKEW_JOIN = """
SELECT p_brand, count(*)::BIGINT AS n_items,
       round(sum(l_extendedprice), 2) AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand
"""


SQL_CUSTOMER_NATION_JOIN = """
SELECT n_name, count(*) AS n_customers,
       round(sum(c_acctbal), 2) AS sum_acctbal
FROM customer JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


def supplier_region_join(sf_dir):
    """Two chained broadcast joins (supplier → nation → region)."""
    from ray.data.aggregate import Count, Sum
    from ..functions.relational import broadcast_join

    nation = _small(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _small(sf_dir, "region", ["r_regionkey", "r_name"])
    dim = nation.merge(region, left_on="n_regionkey",
                       right_on="r_regionkey")[["n_nationkey", "r_name"]]
    dim = dim.rename(columns={"n_nationkey": "s_nationkey"})
    ds = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey", "s_acctbal"])
    joined = broadcast_join(ds, dim, on="s_nationkey")
    out = joined.groupby("r_name").aggregate(
        Count(alias_name="n_suppliers"),
        Sum("s_acctbal", alias_name="sum_acctbal"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b["sum_acctbal"] = sql_round(b["sum_acctbal"], 2)
        return b

    return out.map_batches(fin, batch_format="pandas")


SQL_SUPPLIER_REGION_JOIN = """
SELECT r_name, count(*) AS n_suppliers,
       round(sum(s_acctbal), 2) AS sum_acctbal
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def part_brand_stats(sf_dir):
    from ray.data.aggregate import Count, Max, Sum

    ds = _read(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"])
    out = ds.groupby("p_brand").aggregate(
        Count(alias_name="n_parts"),
        Max("p_size", alias_name="max_size"),
        Sum("p_retailprice", alias_name="sum_price"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b["sum_price"] = sql_round(b["sum_price"], 2)
        return b

    return out.map_batches(fin, batch_format="pandas")


SQL_PART_BRAND_STATS = """
SELECT p_brand, count(*) AS n_parts, max(p_size) AS max_size,
       round(sum(p_retailprice), 2) AS sum_price
FROM part GROUP BY p_brand
"""


def region_nation_union(sf_dir):
    """Dataset union + distinct-style sort (set op the reference lacks)."""
    r = _read(sf_dir, "region", ["r_name"]).map_batches(
        lambda b: b.rename_columns(["name"]), batch_format="pyarrow")
    n = _read(sf_dir, "nation", ["n_name"]).map_batches(
        lambda b: b.rename_columns(["name"]), batch_format="pyarrow")
    return r.union(n).sort("name")


SQL_REGION_NATION_UNION = """
SELECT r_name AS name FROM region
UNION ALL
SELECT n_name AS name FROM nation
ORDER BY name
"""


def events_users_intersect_except(sf_dir):
    """INTERSECT/EXCEPT in one bucketed pass: per-user event-type
    presence flags (order-independent max-combine), then a stateless
    classification — 'both' (clicked INTERSECT purchased), 'click_only'
    (EXCEPT), 'purchase_only'. One shuffle for all three set ops."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("user_id")
        return pd.DataFrame({
            "user_id": g.size().index.astype("int64"),
            "has_click": g["event_type"].agg(
                lambda s: int((s == "click").any())).astype("int64"),
            "has_purchase": g["event_type"].agg(
                lambda s: int((s == "purchase").any())).astype("int64")})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby("user_id", as_index=False)
             .agg(has_click=("has_click", "max"),
                  has_purchase=("has_purchase", "max")))
        m = m[(m["has_click"] + m["has_purchase"]) > 0]
        m["segment"] = np.where(
            (m["has_click"] == 1) & (m["has_purchase"] == 1), "both",
            np.where(m["has_click"] == 1, "click_only", "purchase_only"))
        return m[["user_id", "segment"]]

    return hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pandas"), ["user_id"],
        per_bucket, rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_USERS_INTERSECT_EXCEPT = """
WITH c AS (SELECT DISTINCT user_id FROM events WHERE event_type='click'),
p AS (SELECT DISTINCT user_id FROM events WHERE event_type='purchase')
SELECT user_id, 'both' AS segment FROM (SELECT user_id FROM c
                                        INTERSECT SELECT user_id FROM p)
UNION ALL
SELECT user_id, 'click_only' FROM (SELECT user_id FROM c
                                   EXCEPT SELECT user_id FROM p)
UNION ALL
SELECT user_id, 'purchase_only' FROM (SELECT user_id FROM p
                                      EXCEPT SELECT user_id FROM c)
"""


def docs_source_stats(sf_dir):
    """Regexp field extraction + aggregate: the numeric shard index is
    pulled out of the source tag ('src17' → 17) per batch with the
    vectorized pandas regex engine, then a tiny groupby."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        idx = b["source"].str.extract(r"^src(\d+)$")[0].astype("int64")
        g = (b.assign(src_idx=idx)
             .groupby("src_idx", as_index=False)
             .agg(n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")))
        return g

    parts = ds.map_batches(partial, batch_format="pandas")
    out = parts.groupby("src_idx").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("sum_chars", alias_name="sum_chars"))
    return out.map_batches(
        lambda b: b.assign(n_docs=b["n_docs"].astype("int64"),
                           sum_chars=b["sum_chars"].astype("int64")),
        batch_format="pandas")


SQL_DOCS_SOURCE_STATS = r"""
SELECT regexp_extract(source, '^src(\d+)$', 1)::BIGINT AS src_idx,
       count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS sum_chars
FROM documents GROUP BY src_idx
"""


# ---------------------------------------------------------------------------
# Events (log-shaped: distinct, windows, anti-join)
# ---------------------------------------------------------------------------

def events_type_stats(sf_dir):
    """Per event type: events, distinct users, value sum.

    Exact count-distinct via user-hash buckets: a (type, user) pair never
    spans buckets, so per-bucket distinct counts sum exactly.
    """
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("event_type", as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum"))
        u = (g.drop_duplicates(["event_type", "user_id"])
             .groupby("event_type", as_index=False)
             .agg(n_users=("user_id", "size")))
        return a.merge(u, on="event_type")

    parts = hash_bucket_aggregate(ds, ["user_id"], per_bucket,
                                  rows_hint=_nrows(sf_dir, "events")).to_pandas()
    out = parts.groupby("event_type", as_index=False).agg(
        n_events=("n_events", "sum"), n_users=("n_users", "sum"),
        sum_value=("sum_value", "sum"))
    out["sum_value"] = sql_round(out["sum_value"], 2)
    return out[["event_type", "n_events", "n_users", "sum_value"]]


SQL_EVENTS_TYPE_STATS = """
SELECT event_type, count(*) AS n_events,
       count(DISTINCT user_id) AS n_users,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY event_type
"""


def events_daily_window(sf_dir):
    """Tumbling event-time window per user (streaming-shaped aggregate).

    (user_id, day) has ~#users × #days groups — far too many for Ray's
    per-group aggregation path, so this uses the hash-bucket pattern.
    """
    from ..functions.relational import add_time_window, hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    windowed = add_time_window(ds, "ts", unit="day", out_col="day")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["user_id", "day"], as_index=False)
               .agg(n_events=("value", "size"), sum_value=("value", "sum")))
        out["sum_value"] = sql_round(out["sum_value"], 2)
        return out

    return hash_bucket_aggregate(windowed, ["user_id", "day"], per_bucket,
                                 rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_DAILY_WINDOW = """
SELECT user_id, strftime(ts, '%Y-%m-%d') AS day, count(*) AS n_events,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY user_id, day
"""


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def events_type_pivot(sf_dir):
    """Wide daily counts (pivot / crosstab): one column per event type.
    Map-side partial pivot per batch (a 5-way conditional count is one
    vectorized crosstab), then a tiny (day × 6) groupby sum."""
    from ray.data.aggregate import Sum
    from ..functions.relational import add_time_window

    ds = _read(sf_dir, "events", ["ts", "event_type"])
    windowed = add_time_window(ds, "ts", unit="day", out_col="day")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(b["day"], b["event_type"])
        ct = ct.reindex(columns=EVENT_TYPES, fill_value=0)
        ct.columns = [f"n_{t}" for t in EVENT_TYPES]
        return ct.reset_index()

    parts = windowed.map_batches(partial, batch_format="pandas")
    out = parts.groupby("day").aggregate(
        *[Sum(f"n_{t}", alias_name=f"n_{t}") for t in EVENT_TYPES])

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        for t in EVENT_TYPES:
            b[f"n_{t}"] = b[f"n_{t}"].astype("int64")
        return b

    return out.map_batches(fin, batch_format="pandas")


SQL_EVENTS_TYPE_PIVOT = """
SELECT strftime(ts, '%Y-%m-%d') AS day,
       count(*) FILTER (event_type = 'click')::BIGINT    AS n_click,
       count(*) FILTER (event_type = 'error')::BIGINT    AS n_error,
       count(*) FILTER (event_type = 'purchase')::BIGINT AS n_purchase,
       count(*) FILTER (event_type = 'signup')::BIGINT   AS n_signup,
       count(*) FILTER (event_type = 'view')::BIGINT     AS n_view
FROM events GROUP BY day
"""


def events_funnel_click_purchase(sf_dir):
    """Funnel step detection: users whose FIRST click precedes their LAST
    purchase. One pass of per-batch (user, min-click-ts, max-purchase-ts)
    partials — min/max are order-independent, so the bucketed merge is
    exact — then a stateless filter; no per-user sorting anywhere."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    from ..functions.relational import hash_bucket_aggregate

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        clicks = (b[b["event_type"] == "click"]
                  .groupby("user_id", as_index=False)
                  .agg(first_click=("ts", "min")))
        buys = (b[b["event_type"] == "purchase"]
                .groupby("user_id", as_index=False)
                .agg(last_purchase=("ts", "max")))
        return clicks.merge(buys, on="user_id", how="outer")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby("user_id", as_index=False)
             .agg(first_click=("first_click", "min"),
                  last_purchase=("last_purchase", "max")))
        m = m[m["first_click"].notna() & m["last_purchase"].notna()
              & (m["first_click"] < m["last_purchase"])]
        return m

    return hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pandas"), ["user_id"],
        per_bucket, rows_hint=_nrows(sf_dir, "events"))


FUNNEL_STEPS = ("view", "click", "purchase")
FUNNEL_WINDOW_US = 24 * 3_600_000_000    # each step within 24h of the last


def events_multistep_funnel(sf_dir):
    """STRICT-ORDER windowed multi-step funnel (the product-analytics
    shape the 2-step min/max filter can't express): a user completes
    step k only if their earliest step-k event lands strictly AFTER the
    timestamp that completed step k-1 and within the 24-hour step
    window — min-ts chaining, the standard funnel semantics.
    Per-user events co-locate in one hash bucket, so every chain step is
    a vectorized merge+filter+min inside the bucket; only per-bucket
    scalar counts reach the driver. Output: one row of per-step user
    counts."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64),
            "event_type": g["event_type"],
            "ts": g["ts"].to_numpy("datetime64[us]").astype(np.int64)})
        counts = [np.int64(g["user_id"].nunique())]
        prev = None
        for step in FUNNEL_STEPS:
            ev = g[g["event_type"] == step]
            if prev is not None:
                ev = ev.merge(prev, on="user_id")
                ev = ev[(ev["ts"] > ev["prev_ts"])
                        & (ev["ts"] <= ev["prev_ts"] + FUNNEL_WINDOW_US)]
            cur = (ev.groupby("user_id", as_index=False)
                   .agg(prev_ts=("ts", "min")))
            counts.append(np.int64(len(cur)))
            prev = cur[["user_id", "prev_ts"]]
        return pd.DataFrame({
            "n_users": [counts[0]], "n_view": [counts[1]],
            "n_view_click": [counts[2]], "n_full": [counts[3]]})

    parts = hash_bucket_aggregate(
        ds, ["user_id"], per_bucket,
        rows_hint=_nrows(sf_dir, "events")).to_pandas()
    return pd.DataFrame({c: pd.Series([parts[c].sum()], dtype="int64")
                         for c in ("n_users", "n_view", "n_view_click",
                                   "n_full")})


SQL_EVENTS_MULTISTEP_FUNNEL = f"""
WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
            WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
       JOIN s1 ON e.user_id = s1.user_id
       WHERE e.event_type = '{FUNNEL_STEPS[1]}' AND e.ts > s1.t
         AND date_diff('microsecond', s1.t, e.ts) <= {FUNNEL_WINDOW_US}
       GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
       JOIN s2 ON e.user_id = s2.user_id
       WHERE e.event_type = '{FUNNEL_STEPS[2]}' AND e.ts > s2.t
         AND date_diff('microsecond', s2.t, e.ts) <= {FUNNEL_WINDOW_US}
       GROUP BY e.user_id)
SELECT (SELECT count(DISTINCT user_id) FROM events)::BIGINT AS n_users,
       (SELECT count(*) FROM s1)::BIGINT AS n_view,
       (SELECT count(*) FROM s2)::BIGINT AS n_view_click,
       (SELECT count(*) FROM s3)::BIGINT AS n_full
"""


SQL_EVENTS_FUNNEL = """
SELECT user_id, first_click, last_purchase FROM (
  SELECT user_id,
         min(ts) FILTER (event_type = 'click') AS first_click,
         max(ts) FILTER (event_type = 'purchase') AS last_purchase
  FROM events GROUP BY user_id)
WHERE first_click IS NOT NULL AND last_purchase IS NOT NULL
  AND first_click < last_purchase
"""


def events_anti_join(sf_dir):
    """Users who viewed but never purchased — size-gated anti-join: the
    purchaser key set is broadcast while it fits, and spills to a bucketed
    shuffle anti-join past ``ANTI_JOIN_BROADCAST_LIMIT`` distinct keys
    (unbounded key cardinality at corpus scale)."""
    from ..functions.relational import anti_join

    nrows = _nrows(sf_dir, "events")
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    purch = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "purchase"))
        .select(["user_id"]), batch_format="pyarrow")
    viewers = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "view")),
        batch_format="pyarrow")
    out = anti_join(viewers, purch, "user_id", rows_hint=nrows)
    # distinct via groupby (Dataset.unique() returns a list / None when empty)
    from ray.data.aggregate import Count
    d = out.groupby("user_id").aggregate(Count(alias_name="_c")).to_pandas()
    if "user_id" not in d.columns:
        return pd.DataFrame({"user_id": pd.Series([], dtype="int64")})
    return d[["user_id"]]


SQL_EVENTS_ANTI_JOIN = """
SELECT DISTINCT user_id FROM events
WHERE event_type = 'view'
  AND user_id NOT IN (SELECT user_id FROM events
                      WHERE event_type = 'purchase')
"""


def lineitem_topk_per_group(sf_dir):
    """Top-3 line items per (returnflag, linestatus) by extended price —
    a per-group window/top-k (rank via deterministic tiebreak on keys).

    Ray side: hash-bucket on the group key, vectorized per-bucket
    sort+head; groups never span buckets so per-bucket top-k is exact.
    """
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_returnflag", "l_linestatus",
                "l_extendedprice"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["l_returnflag", "l_linestatus", "l_extendedprice", "l_orderkey",
             "l_linenumber"],
            ascending=[True, True, False, True, True])
        out = g.groupby(["l_returnflag", "l_linestatus"]).head(3).copy()
        out["rank"] = out.groupby(["l_returnflag", "l_linestatus"])\
            .cumcount().add(1).astype("int64")
        return out

    return hash_bucket_aggregate(
        ds, ["l_returnflag", "l_linestatus"], per_bucket,
        rows_hint=_nrows(sf_dir, "lineitem"))


SQL_LINEITEM_TOPK_PER_GROUP = """
SELECT l_orderkey, l_linenumber, l_returnflag, l_linestatus,
       l_extendedprice, rank FROM (
  SELECT *, row_number() OVER (
      PARTITION BY l_returnflag, l_linestatus
      ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber) AS rank
  FROM lineitem) WHERE rank <= 3
"""


SESSION_GAP_MIN = 30


def events_sessionize(sf_dir):
    """Per-user session count + mean session length (gap > 30 min splits).

    The streaming-shaped operator: partition by user (hash buckets), sort
    by ts within the partition, vectorized gap detection. Ordering
    assumption: per-user order reconstructed by the in-bucket sort — no
    global order needed (SURVEY §2.7 note).
    """
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        new_session = (
            (g["user_id"] != g["user_id"].shift())
            | ((g["ts"] - g["ts"].shift()) > pd.Timedelta(minutes=SESSION_GAP_MIN))
        )
        g = g.assign(_sid=new_session.cumsum())
        per_sess = g.groupby(["user_id", "_sid"]).size()
        out = per_sess.groupby("user_id").agg(["size", "mean"]).reset_index()
        out.columns = ["user_id", "n_sessions", "mean_session_events"]
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["mean_session_events"] = sql_round(out["mean_session_events"], 6)
        return out

    return hash_bucket_aggregate(ds, ["user_id"], per_bucket,
                                 rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_SESSIONIZE = f"""
WITH marked AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
sess AS (
  SELECT user_id, sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
         ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked),
per_sess AS (
  SELECT user_id, sid, count(*) AS n FROM sess GROUP BY user_id, sid)
SELECT user_id, count(*) AS n_sessions,
       round(avg(n), 6) AS mean_session_events
FROM per_sess GROUP BY user_id
"""


def docs_normalized_dedup(sf_dir):
    """Exact dedup after normalization (lower + collapse whitespace) —
    the canonicalization-normalize flavor of dedup."""
    import re

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ws = re.compile(r"\s+")

    def norm(batch: pa.Table) -> pa.Table:
        texts = [ws.sub(" ", t.lower()).strip()
                 for t in batch.column("text").to_pylist()]
        return pa.table({"norm_text": pa.array(texts, pa.string()),
                         "doc_id": batch.column("doc_id")})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("norm_text", as_index=False)["doc_id"].min()

    normed = ds.map_batches(norm, batch_format="pyarrow")
    return hash_bucket_aggregate(normed, ["norm_text"], per_bucket,
                                 rows_hint=_nrows(sf_dir, "documents"))


SQL_DOCS_NORMALIZED_DEDUP = r"""
SELECT trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS norm_text,
       min(doc_id) AS doc_id
FROM documents GROUP BY norm_text
"""


def docs_mirror_groups(sf_dir):
    """Cross-source mirror / syndication detection: groups of documents
    whose NORMALIZED text is identical but that arrive from ≥ 2 distinct
    sources — the content-farm / mirror-site signal a crawl curation
    pass uses to pick one canonical feed per story (same-source exact
    dups are ordinary recrawls; cross-source dups are syndication).
    One content-bucketed pass (normalized texts co-locate), emitting
    only the group summary (anchor doc, sizes) — never the text."""
    import re

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    ws = re.compile(r"\s+")

    def norm(batch: pa.Table) -> pa.Table:
        texts = [ws.sub(" ", t.lower()).strip()
                 for t in batch.column("text").to_pylist()]
        return pa.table({"norm_text": pa.array(texts, pa.string()),
                         "doc_id": batch.column("doc_id"),
                         "source": batch.column("source")})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("norm_text").agg(
            group_doc=("doc_id", "min"), n_docs=("doc_id", "size"),
            n_sources=("source", "nunique")).reset_index(drop=True)
        out = out[out["n_docs"] >= 2]
        out["is_mirror"] = (out["n_sources"] >= 2).astype(np.int64)
        return out.astype({"group_doc": np.int64, "n_docs": np.int64,
                           "n_sources": np.int64})

    normed = ds.map_batches(norm, batch_format="pyarrow")
    out = hash_bucket_aggregate(normed, ["norm_text"], per_bucket,
                                rows_hint=_nrows(sf_dir, "documents")) \
        .to_pandas()
    if not len(out):
        return pd.DataFrame({"group_doc": pd.Series(dtype="int64"),
                             "n_docs": pd.Series(dtype="int64"),
                             "n_sources": pd.Series(dtype="int64"),
                             "is_mirror": pd.Series(dtype="int64")})
    return (out.sort_values("group_doc").reset_index(drop=True)
            .astype({c: np.int64 for c in out.columns}))


SQL_DOCS_MIRROR_GROUPS = r"""
SELECT min(doc_id)::BIGINT AS group_doc, count(*)::BIGINT AS n_docs,
       count(DISTINCT source)::BIGINT AS n_sources,
       (count(DISTINCT source) >= 2)::BIGINT AS is_mirror
FROM (SELECT doc_id, source,
             trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS nt
      FROM documents)
GROUP BY nt HAVING count(*) >= 2
"""


def events_running_total(sf_dir):
    """Per-event running count + sum per user in ts order (streaming-shaped
    cumulative aggregate; keyed by event_id for oracle comparison)."""
    from ..functions.streaming import running_totals

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = running_totals(ds, "user_id", "ts", "value", tiebreak="event_id",
                         rows_hint=_nrows(sf_dir, "events"))

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return b[["event_id", "running_n", "running_sum"]]

    return out.map_batches(project, batch_format="pandas")


SQL_EVENTS_RUNNING_TOTAL = """
SELECT event_id,
       row_number() OVER w AS running_n,
       round(sum(value) OVER w, 2) AS running_sum
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS UNBOUNDED PRECEDING)
"""


def events_lag_delta(sf_dir):
    """Per-event previous value of the same user + delta (lag window)."""
    from ..functions.streaming import lag_column

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = lag_column(ds, "user_id", "ts", "value", tiebreak="event_id",
                     rows_hint=_nrows(sf_dir, "events"))

    def project(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(delta=sql_round(b["value"] - b["prev_value"], 2))
        return b[["event_id", "prev_value", "delta"]]

    return out.map_batches(project, batch_format="pandas")


SQL_EVENTS_LAG_DELTA = """
SELECT event_id,
       lag(value) OVER w AS prev_value,
       round(value - lag(value) OVER w, 2) AS delta
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def docs_heavy_hitter_words(sf_dir):
    """Approximate top-10 words via per-batch Misra-Gries summaries."""
    from ..functions.sketches import heavy_hitters

    ds = _read(sf_dir, "documents", ["text"])

    def explode(batch: pa.Table) -> pa.Table:
        words = []
        for t in batch.column("text").to_pylist():
            words.extend(t.split())
        return pa.table({"word": pa.array(words, pa.string())})

    return heavy_hitters(ds.map_batches(explode, batch_format="pyarrow"),
                         "word", k=10, counters=64)


def docs_heavy_hitters_verified(sf_dir):
    """EXACT top-10 words: Misra-Gries candidate pass + exact-count verify
    pass (the production heavy-hitter pattern — candidate volume, not
    vocabulary, crosses the wire)."""
    from ..functions.sketches import heavy_hitters_verified

    ds = _read(sf_dir, "documents", ["text"])

    def explode(batch: pa.Table) -> pa.Table:
        words = []
        for t in batch.column("text").to_pylist():
            words.extend(t.split())
        return pa.table({"word": pa.array(words, pa.string())})

    return heavy_hitters_verified(
        ds.map_batches(explode, batch_format="pyarrow"), "word", k=10)


SQL_DOCS_HEAVY_HITTERS_VERIFIED = r"""
SELECT token AS value, count(*)::BIGINT AS cnt FROM (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents)
WHERE token <> ''
GROUP BY token ORDER BY cnt DESC, value ASC LIMIT 10
"""


#: HLL precision for the user count-distinct (2^12 registers)
HLL_P = 12
#: alpha constant quantized to 12 decimals and shared as a literal with
#: the SQL replay (both engines parse the identical decimal string)
HLL_ALPHA = float("%.12f" % (0.7213 / (1 + 1.079 / (1 << HLL_P))))


def events_approx_distinct_users(sf_dir):
    """HLL approximate count-distinct of users — the SKETCH itself is
    value-oracled, not just sanity-checked: hashing uses the repo's
    md5-derived 64-bit (`dedup._word_hash64`), so DuckDB rebuilds the
    4096 registers bit-for-bit (bucket = top 12 hash bits, rank =
    leading-zero count of the rest via a generated comparison chain)
    and replays the harmonic-mean estimate. The register denominator
    sum(2^-reg) is folded as the EXACT integer sum(2^(53-reg)) so no
    float-summation order exists; the one double expression (alpha
    correction + small-range branch) is literal-shared and mirrored.
    Scale shape: one 4096-byte register array per block, max-merged on
    the driver."""
    import math

    from ..functions.dedup import _word_hash64
    from ..functions.sketches import HLL
    from ..functions.sqlcompat import sql_round

    m = 1 << HLL_P
    ds = _read(sf_dir, "events", ["user_id"])

    def per_batch(batch: pa.Table) -> pa.Table:
        items = batch.column("user_id").to_pylist()
        hashes = np.fromiter((_word_hash64(str(it)) for it in items),
                             np.uint64, count=len(items))
        h = HLL(HLL_P).add_hashes(hashes)
        return pa.table({"sketch": pa.array([h.to_bytes()],
                                            pa.binary())})

    merged = HLL(HLL_P)
    for b in (ds.map_batches(per_batch, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for raw in b.column("sketch").to_pylist():
            merged.merge(HLL.from_bytes(raw, HLL_P))
    reg = merged.registers.astype(np.int64)
    zeros = int((reg == 0).sum())
    sum_reg = int(reg.sum())
    denom = sum(1 << (53 - int(r)) for r in reg)   # exact sum 2^(53-r)
    raw_est = (HLL_ALPHA * m * m) / (float(denom) / float(1 << 53))
    if raw_est <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    else:
        est = raw_est
    return pd.DataFrame([{
        "n_zero_registers": np.int64(zeros),
        "sum_registers": np.int64(sum_reg),
        "approx_users": float(sql_round(est, 6))}])


def _sql_hll_users(p: int = HLL_P) -> str:
    m = 1 << p
    branches = " ".join(
        # ::UBIGINT on every threshold: the bare 2^63 literal parses as
        # DECIMAL(19) and drags the whole comparison into DECIMAL
        f"WHEN rest >= {1 << (63 - i)}::UBIGINT THEN {i + 1}"
        for i in range(64 - p))
    # ::DOUBLE: the bare literal parses as DECIMAL(12,12) and the
    # alpha*m*m chain then overflows DECIMAL(18)
    alpha = "%.12f::DOUBLE" % HLL_ALPHA
    est = (f"{alpha} * {m} * {m} / (denom::DOUBLE / {float(1 << 53)})")
    return f"""
WITH h AS (SELECT ('0x' || substr(md5(user_id::VARCHAR), 1, 16))
               ::UBIGINT AS hv
           FROM (SELECT DISTINCT user_id FROM events)),
rr AS (SELECT (hv >> {64 - p})::BIGINT AS idx,
              ((hv % {1 << (64 - p)}::UBIGINT)
               * {1 << p}::UBIGINT)::UBIGINT AS rest FROM h),
rk AS (SELECT idx, CASE {branches} ELSE {64 - p + 1} END AS rank
       FROM rr),
reg AS (SELECT idx, max(rank)::BIGINT AS r FROM rk GROUP BY idx),
agg AS (SELECT count(*)::BIGINT AS n_nonzero,
               sum(r)::BIGINT AS sum_registers,
               sum(1::UBIGINT << (53 - r))::HUGEINT AS denom_nz
        FROM reg),
fin AS (SELECT ({m} - n_nonzero)::BIGINT AS n_zero, sum_registers,
               (denom_nz
                + ({m} - n_nonzero)::HUGEINT
                  * {1 << 53}::HUGEINT) AS denom
        FROM agg)
SELECT n_zero AS n_zero_registers, sum_registers,
       ROUND(CASE WHEN {est} <= 2.5 * {m} AND n_zero > 0
                  THEN {m} * ln({m}::DOUBLE / n_zero)
                  ELSE {est} END, 6) AS approx_users
FROM fin
"""


def events_distinct_users_exact(sf_dir):
    """Exact count-distinct (map-side per-batch dedup, then a distinct
    count over the per-batch survivors) — the ground truth the HLL
    estimate is judged against."""
    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({"user_id": pc.unique(
            batch.column("user_id").combine_chunks())})

    n = (ds.map_batches(partial, batch_format="pyarrow")
         .unique("user_id"))
    return pd.DataFrame({"n_users": pd.array([len(n)], dtype="int64")})


SQL_EVENTS_DISTINCT_USERS_EXACT = """
SELECT count(DISTINCT user_id)::BIGINT AS n_users FROM events
"""


# ---------------------------------------------------------------------------
# Documents: text analysis + dedup
# ---------------------------------------------------------------------------

def docs_token_count(sf_dir):
    from ..functions.textstats import token_count_batch
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow")


SQL_DOCS_TOKEN_COUNT = r"""
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0
            ELSE length(regexp_split_to_array(trim(text), '\s+')) END
         AS n_tokens
FROM documents
"""


def docs_source_length_zscore(sf_dir):
    """Per-source z-score of document token counts — per-feed length
    calibration that flags truncated/concatenated pages WITHIN each crawl
    feed (50 tokens is normal for one source, an outlier for another;
    a global threshold can't see that). Determinism: z is ONE float op
    chain over exact integer moments — z = (n·s − S)/√(n·Q − S²) with
    per-source n, S = Σs, Q = Σs² folded from map-side int64 partials
    (sources-many rows reach the driver, never the corpus); scoring is a
    broadcast row-local second pass over the materialized narrow
    (id, source, count) projection. Identical integer inputs → identical
    IEEE doubles in both engines; rounded at 12 (BASELINE.md's DuckDB
    decimal-parse rule)."""
    import math

    from ..functions.textstats import token_count_batch

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def counted(batch: pa.Table) -> pa.Table:
        t = token_count_batch(batch.select(["doc_id", "text"]))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "source": batch.column("source"),
                         "n_tokens": t.column("n_tokens")})

    cnt = ds.map_batches(counted, batch_format="pyarrow").materialize()

    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column("n_tokens").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        t = pa.table({"source": batch.column("source"),
                      "n": pa.array(np.ones(len(s), np.int64)),
                      "s_sum": pa.array(s), "q_sum": pa.array(s * s)})
        g = t.group_by("source").aggregate(
            [("n", "sum"), ("s_sum", "sum"), ("q_sum", "sum")])
        return g.rename_columns(["source", "n", "s_sum", "q_sum"])

    stats: dict[str, list[int]] = {}
    for b in cnt.map_batches(partial, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
        for src, n, ssum, qsum in zip(b.column("source").to_pylist(),
                                      b.column("n").to_pylist(),
                                      b.column("s_sum").to_pylist(),
                                      b.column("q_sum").to_pylist()):
            a = stats.setdefault(src, [0, 0, 0])
            a[0] += n
            a[1] += ssum
            a[2] += qsum
    # exact Python-int moments → one double sqrt (== SQL HUGEINT::DOUBLE)
    params = {src: (n, ssum, math.sqrt(float(n * qsum - ssum * ssum)))
              for src, (n, ssum, qsum) in stats.items()}

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "source": pd.Series([], dtype="object"),
                                 "n_tokens": pd.Series([], dtype="int64"),
                                 "z": pd.Series([], dtype="float64")})
        n = df["source"].map(lambda x: params[x][0]).to_numpy(np.int64)
        ssum = df["source"].map(lambda x: params[x][1]).to_numpy(np.int64)
        den = df["source"].map(lambda x: params[x][2]).to_numpy(np.float64)
        s = df["n_tokens"].to_numpy(np.int64)
        z = np.where(den > 0.0,
                     sql_round(np.divide(
                         (n * s - ssum).astype(np.float64),
                         np.where(den > 0.0, den, 1.0)), 12), 0.0)
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                             "source": df["source"],
                             "n_tokens": s, "z": z})

    return cnt.map_batches(score, batch_format="pandas")


SQL_DOCS_SOURCE_LENGTH_ZSCORE = r"""
WITH t AS (
  SELECT doc_id, source,
         (CASE WHEN trim(text) = '' THEN 0
               ELSE length(regexp_split_to_array(trim(text), '\s+')) END
          )::BIGINT AS s
  FROM documents),
a AS (
  SELECT source, count(*)::HUGEINT AS n, sum(s)::HUGEINT AS ssum,
         sum(s::HUGEINT * s)::HUGEINT AS q
  FROM t GROUP BY source)
SELECT t.doc_id, t.source, t.s AS n_tokens,
  CASE WHEN a.n * a.q - a.ssum * a.ssum = 0 THEN 0.0
       ELSE round(((a.n * t.s - a.ssum)::DOUBLE)
                  / sqrt((a.n * a.q - a.ssum * a.ssum)::DOUBLE), 12)
  END AS z
FROM t JOIN a USING (source)
"""


VOCAB_TOP_N = 256


def docs_oov_ratio(sf_dir):
    """Out-of-vocabulary counts per doc against the corpus's own top-N
    vocabulary — the two-pass broadcast-statistics quality signal: pass 1
    reduces the corpus to a kilobyte vocab, pass 2 streams."""
    from ..functions.textstats import oov_stats, top_vocab

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    vocab = top_vocab(docs, VOCAB_TOP_N)
    return oov_stats(docs, vocab)


SQL_DOCS_OOV_RATIO = rf"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents WHERE trim(text) <> ''),
vocab AS (
  SELECT token FROM (
    SELECT token, count(*) AS cnt FROM tok GROUP BY token
    ORDER BY cnt DESC, token LIMIT {VOCAB_TOP_N})),
agg AS (
  SELECT t.doc_id, count(*)::BIGINT AS n_tokens,
         count(CASE WHEN v.token IS NULL THEN 1 END)::BIGINT AS oov_cnt
  FROM tok t LEFT JOIN vocab v USING (token)
  GROUP BY t.doc_id)
SELECT d.doc_id, COALESCE(a.n_tokens, 0)::BIGINT AS n_tokens,
       COALESCE(a.oov_cnt, 0)::BIGINT AS oov_cnt
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def docs_above_median_tokens(sf_dir):
    """Dynamic-threshold filter: keep docs at or above the corpus-median
    token count. Pass 1 computes the EXACT median from a distributed value
    histogram (domain-bounded, never the rows); pass 2 is a streaming
    filter on the broadcast scalar."""
    from ..functions.sketches import exact_int_quantile
    from ..functions.textstats import token_count_batch

    tc = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow")
    thr = exact_int_quantile(tc, "n_tokens", 1, 2)
    return tc.filter(expr=f"n_tokens >= {thr}")


SQL_DOCS_ABOVE_MEDIAN_TOKENS = r"""
WITH tc AS (
  SELECT doc_id,
         (CASE WHEN trim(text) = '' THEN 0
               ELSE length(regexp_split_to_array(trim(text), '\s+'))
          END)::BIGINT AS n_tokens
  FROM documents),
h AS (SELECT n_tokens AS v, count(*)::BIGINT AS c FROM tc GROUP BY v),
tot AS (SELECT sum(c)::BIGINT AS n FROM h),
cum AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum FROM h),
thr AS (SELECT min(v) AS thr FROM cum, tot WHERE cum >= (tot.n + 1) // 2)
SELECT tc.doc_id, tc.n_tokens FROM tc, thr WHERE tc.n_tokens >= thr.thr
"""


def docs_quality(sf_dir):
    from ..functions.textstats import quality_score_batch
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        quality_score_batch, batch_format="pyarrow")


SQL_DOCS_QUALITY = r"""
WITH t AS (
  SELECT doc_id, length(text) AS n_chars,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents)
SELECT doc_id, n_chars, length(toks) AS n_tokens,
       CASE WHEN length(toks) = 0 THEN 0.0 ELSE
         round(length(list_filter(toks, w -> lower(w) IN
           ('the','a','an','of','and','or','in','on','to','is')))
           / length(toks)::DOUBLE, 6) END AS stopword_ratio,
       CASE WHEN length(toks) = 0 THEN 0.0 ELSE
         round(list_aggregate(list_transform(toks, w -> length(w)), 'sum')
           / length(toks)::DOUBLE, 6) END AS mean_token_len
FROM t
"""


def docs_word_freq(sf_dir):
    """Word count with map-side combining before the groupby shuffle."""
    from collections import Counter
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(t.split())
        return pa.table({"token": pa.array(list(c.keys()), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("token").aggregate(Sum("cnt", alias_name="cnt")))


SQL_DOCS_WORD_FREQ = r"""
SELECT token, count(*) AS cnt FROM (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents)
WHERE token <> ''      -- empty docs contribute no tokens (engine semantics)
GROUP BY token
"""


TFIDF_K = 3


def docs_tfidf_topk(sf_dir):
    """Per-document top-k tf-idf keywords — two corpus passes (df
    aggregate, then scoring) with a size-gated broadcast of the df map;
    see functions.textstats.tfidf_topk for the beyond-broadcast path."""
    from ..functions.textstats import tfidf_topk

    n = _nrows(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_topk(ds, k=TFIDF_K, n_docs=n, rows_hint=64 * n)


SQL_DOCS_TFIDF_TOPK = rf"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
tf AS (SELECT doc_id, token, count(*)::BIGINT AS tf FROM tok
       WHERE token <> '' GROUP BY doc_id, token),
df AS (SELECT token, count(*)::BIGINT AS df FROM tf GROUP BY token),
s AS (SELECT tf.doc_id, tf.token, tf.tf,
             round(tf.tf * ln((SELECT count(*) FROM documents)::DOUBLE
                              / df.df), 6) AS score
      FROM tf JOIN df USING (token)),
r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                                   ORDER BY score DESC, token) AS rn
      FROM s)
SELECT doc_id, token, tf, score FROM r WHERE rn <= {TFIDF_K}
"""


def docs_inverted_index(sf_dir):
    """Token -> (df, sorted posting list) search index; bucketed by token
    hash, within-doc repeats collapsed map-side."""
    from ..functions.textstats import inverted_index

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return inverted_index(ds, rows_hint=64 * _nrows(sf_dir, "documents"))


SQL_DOCS_INVERTED_INDEX = r"""
WITH pairs AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents WHERE trim(text) <> '')
SELECT token, count(*)::BIGINT AS df,
       string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings
FROM pairs GROUP BY token
"""


def docs_fingerprint(sf_dir):
    from ..functions.textstats import fingerprint_batch
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "md5"])


SQL_DOCS_FINGERPRINT = """
SELECT doc_id, md5(text) AS md5 FROM documents
"""


def docs_exact_dedup(sf_dir):
    from ..functions.dedup import exact_dedup
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup(ds).select_columns(["content_md5", "doc_id"])


SQL_DOCS_EXACT_DEDUP = """
SELECT md5(text) AS content_md5, min(doc_id) AS doc_id
FROM documents GROUP BY text
"""


def docs_lang_dist(sf_dir):
    from ray.data.aggregate import Count
    return _read(sf_dir, "documents", ["lang"]).groupby("lang").aggregate(
        Count(alias_name="n_docs"))


SQL_DOCS_LANG_DIST = """
SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang
"""


# ---------------------------------------------------------------------------
# Embeddings: norms + similarity search
# ---------------------------------------------------------------------------

def embed_norms(sf_dir):
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def norms(batch: pa.Table) -> pa.Table:
        from ..functions.similarity import _as_matrix
        mat = _as_matrix(batch.column("embedding"))
        l2 = sql_round(np.sqrt((mat * mat).sum(axis=1)), 6)
        return pa.table({"vec_id": batch.column("vec_id"),
                         "l2_norm": pa.array(l2, pa.float64())})

    return ds.map_batches(norms, batch_format="pyarrow")


SQL_EMBED_NORMS = """
SELECT vec_id,
       round(sqrt(list_aggregate(list_transform(embedding,
             x -> x::DOUBLE * x::DOUBLE), 'sum')), 6) AS l2_norm
FROM embeddings
"""


KNN_QUERY_IDS = (0, 1, 2)
KNN_K = 10


def _query_vectors(sf_dir):
    """Row-filtered read of just the query vectors (predicate pushdown —
    never the whole embedding table on the driver)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "in", list(KNN_QUERY_IDS))])
    df = t.to_pandas().sort_values("vec_id")
    return df["vec_id"].tolist(), np.stack(
        df["embedding"].to_numpy()).astype(np.float64)


def knn_cosine(sf_dir):
    from ..functions.similarity import knn_brute_force

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qmat = _query_vectors(sf_dir)
    res = knn_brute_force(emb, qids, qmat, k=KNN_K)
    df = res.to_pandas()
    df["rank"] = df["rank"].astype(np.int64)
    return df


SQL_KNN_COSINE = f"""
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
           WHERE vec_id IN {KNN_QUERY_IDS}),
s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
             round(list_cosine_similarity(
                 list_transform(q.qe, x -> x::DOUBLE),
                 list_transform(e.embedding, x -> x::DOUBLE)), 6) AS cosine
      FROM q CROSS JOIN embeddings e),
r AS (SELECT *, row_number() OVER (PARTITION BY query_id
          ORDER BY cosine DESC, neighbor_id) AS rank FROM s)
SELECT query_id, neighbor_id, cosine, rank FROM r WHERE rank <= {KNN_K}
"""


QUANTITY_BANDS = [("low", 1.0, 10.0), ("mid", 10.0, 25.0),
                  ("high", 25.0, 40.0), ("top", 40.0, 51.0)]


def lineitem_quantity_bands(sf_dir):
    """Range join lineitem onto quantity bands (broadcast interval join),
    then a map-side-combined per-band aggregate."""
    from ..functions.relational import broadcast_range_join

    bands = pd.DataFrame(QUANTITY_BANDS, columns=["band", "lo", "hi"])
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"],
               rows_per_block=65536)
    joined = broadcast_range_join(ds, bands, "l_quantity")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("band", as_index=False)
                .agg(n_items=("l_quantity", "size"),
                     sum_price=("l_extendedprice", "sum")))

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    out = (parts.groupby("band", as_index=False)
           .agg(n_items=("n_items", "sum"), sum_price=("sum_price", "sum")))
    out["n_items"] = out["n_items"].astype("int64")
    out["sum_price"] = sql_round(out["sum_price"], 2)
    return out


SQL_LINEITEM_QUANTITY_BANDS = """
WITH bands(band, lo, hi) AS (VALUES
  ('low', 1.0, 10.0), ('mid', 10.0, 25.0),
  ('high', 25.0, 40.0), ('top', 40.0, 51.0))
SELECT b.band, count(*)::BIGINT AS n_items,
       round(sum(l.l_extendedprice), 2) AS sum_price
FROM lineitem l JOIN bands b
  ON l.l_quantity >= b.lo AND l.l_quantity < b.hi
GROUP BY b.band
"""


def events_asof_view(sf_dir):
    """Each click event enriched with the user's latest view event at or
    before it (inner as-of join — the event-stream enrichment operator).

    The right side is deduped per (user_id, ts) with a deterministic
    winner (min event_id) so the match is engine-independent even if two
    views share a timestamp; the SQL oracle mirrors the dedupe."""
    from ..functions.relational import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    clicks = ev.filter(expr="event_type == 'click'")
    views = ev.filter(expr="event_type == 'view'")
    out = asof_join(clicks, views, "user_id", "ts",
                    ["event_id"], ["event_id"], how="inner",
                    dedupe_right=True)

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        batch["event_id_m"] = batch["event_id_m"].astype("int64")
        return batch

    return out.map_batches(finalize, batch_format="pandas")


SQL_EVENTS_ASOF_VIEW = """
SELECT c.user_id, c.ts, c.event_id, v.event_id AS event_id_m,
       v.ts AS ts_m
FROM (SELECT * FROM events WHERE event_type = 'click') c
ASOF JOIN (SELECT user_id, ts, min(event_id) AS event_id
           FROM events WHERE event_type = 'view'
           GROUP BY user_id, ts) v
  ON c.user_id = v.user_id AND c.ts >= v.ts
"""


PACK_BUDGET = 512
PACK_PART_SIZE = 100
SPLIT_TRAIN_FRAC = 0.8


def docs_hash_split(sf_dir):
    """Deterministic content-stable train/test split (md5 draw per key)."""
    from ..functions.packing import hash_split

    ds = _read(sf_dir, "documents", ["doc_id"])
    return hash_split(ds, "doc_id", SPLIT_TRAIN_FRAC).select_columns(
        ["doc_id", "split"])


SQL_DOCS_HASH_SPLIT = f"""
SELECT doc_id,
  CASE WHEN ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
            < {int(SPLIT_TRAIN_FRAC * 4294967296)}
       THEN 'train' ELSE 'test' END AS split
FROM documents
"""


def docs_lang_balanced_sample(sf_dir):
    """Stratified sample: every language down-sampled to the smallest
    language's size (in expectation), deterministically by md5 draw."""
    from ..functions.packing import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(ds, "lang", "doc_id")


SQL_DOCS_LANG_BALANCED_SAMPLE = """
WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
m AS (SELECT min(n) AS mn FROM c),
r AS (SELECT lang, (m.mn * 4294967296) // c.n AS cut FROM c, m)
SELECT d.doc_id, d.lang FROM documents d JOIN r USING (lang)
WHERE ('0x' || substr(md5('strat:' || d.doc_id::VARCHAR), 1, 8))::UBIGINT
      < r.cut
"""


BOTTOMK_K = 20


def docs_bottomk_per_lang(sf_dir):
    """Deterministic per-language bottom-k sample — the order-independent
    equivalent of per-key reservoir sampling ("keep k docs per domain").
    A map-side partial bottom-k bounds the shuffle to <= k candidate rows
    per (block, lang); the corpus itself never moves."""
    from ..functions.packing import bottomk_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return bottomk_sample(ds, "lang", "doc_id", k=BOTTOMK_K,
                          rows_hint=_nrows(sf_dir, "documents"))


SQL_DOCS_BOTTOMK_PER_LANG = f"""
SELECT doc_id, lang, draw FROM (
  SELECT doc_id, lang,
         (('0x' || substr(md5('bk:' || doc_id::VARCHAR), 1, 8))
            ::UBIGINT)::BIGINT AS draw,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY (('0x' || substr(md5('bk:' || doc_id::VARCHAR), 1, 8))
                       ::UBIGINT)::BIGINT, doc_id) AS rn
  FROM documents)
WHERE rn <= {BOTTOMK_K}
"""


WSAMPLE_K = 100


def docs_weighted_sample(sf_dir):
    """Weight-proportional sample without replacement (Efraimidis-
    Spirakis exponential clocks from md5 draws; weight = n_chars) —
    deterministic, partition-invariant, SQL-replayable."""
    from ..functions.packing import weighted_sample

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return weighted_sample(ds, "n_chars", "doc_id", k=WSAMPLE_K)


SQL_DOCS_WEIGHTED_SAMPLE = f"""
SELECT doc_id, n_chars, e FROM (
  SELECT doc_id, n_chars,
         round(-ln(((('0x' || substr(md5('ws:' || doc_id::VARCHAR), 1, 8))
                       ::UBIGINT)::DOUBLE + 1.0) / 4294967296.0)
               / greatest(n_chars, 1)::DOUBLE, 6) AS e
  FROM documents)
ORDER BY e, doc_id LIMIT {WSAMPLE_K}
"""


TOPK_PER_LANG = 10


def docs_topk_tokens_per_lang(sf_dir):
    """Per-language top-k selection by an explicit score (token count,
    ties by doc_id) — the "keep the k best docs per domain" op; map-side
    partial top-k bounds the shuffle to k rows per (block, lang)."""
    from ..functions.packing import topk_by_key
    from ..functions.textstats import token_count_batch

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    tc = docs.map_batches(
        lambda t: token_count_batch(t).append_column(
            "lang", t.column("lang")),
        batch_format="pyarrow")
    return topk_by_key(tc, "lang", "n_tokens", k=TOPK_PER_LANG)


SQL_DOCS_TOPK_TOKENS_PER_LANG = rf"""
SELECT doc_id, n_tokens, lang FROM (
  SELECT doc_id, lang,
         (CASE WHEN trim(text) = '' THEN 0
               ELSE length(regexp_split_to_array(trim(text), '\s+'))
          END)::BIGINT AS n_tokens,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY (CASE WHEN trim(text) = '' THEN 0
                     ELSE length(regexp_split_to_array(trim(text), '\s+'))
                     END) DESC, doc_id) AS rn
  FROM documents) WHERE rn <= {TOPK_PER_LANG}
"""


def docs_pack_sequences(sf_dir):
    """Greedy sequence packing into {PACK_BUDGET}-token sequences within
    doc_id-range partitions."""
    from ..functions.packing import pack_sequences

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return pack_sequences(ds, budget=PACK_BUDGET, part_size=PACK_PART_SIZE)


# the serial greedy fold is per-partition, so the oracle replays it with a
# recursive CTE keyed on the same (doc_id // part_size) partition
SQL_DOCS_PACK_SEQUENCES = rf"""
WITH RECURSIVE d AS (
  SELECT doc_id, n_tokens, doc_id // {PACK_PART_SIZE} AS part_id,
         row_number() OVER (PARTITION BY (doc_id // {PACK_PART_SIZE})
                            ORDER BY doc_id) AS rn
  FROM (SELECT doc_id,
          CASE WHEN trim(text) = '' THEN 0
               ELSE length(regexp_split_to_array(trim(text), '\s+'))
          END::BIGINT AS n_tokens
        FROM documents)),
acc AS (
  SELECT part_id, rn, doc_id, n_tokens, n_tokens AS filled,
         0::BIGINT AS seq_id, 0::BIGINT AS seq_pos
  FROM d WHERE rn = 1
  UNION ALL
  SELECT d.part_id, d.rn, d.doc_id, d.n_tokens,
    CASE WHEN a.filled + d.n_tokens > {PACK_BUDGET}
         THEN d.n_tokens ELSE a.filled + d.n_tokens END,
    CASE WHEN a.filled + d.n_tokens > {PACK_BUDGET}
         THEN a.seq_id + 1 ELSE a.seq_id END,
    CASE WHEN a.filled + d.n_tokens > {PACK_BUDGET}
         THEN 0 ELSE a.seq_pos + 1 END
  FROM d JOIN acc a ON d.part_id = a.part_id AND d.rn = a.rn + 1)
SELECT doc_id, n_tokens, part_id, seq_id, seq_pos FROM acc
"""


PRETRAIN_MIN_TOKENS = 30
PRETRAIN_MAX_REPETITION = 0.9


def docs_pretrain_pipeline(sf_dir):
    """The full pretraining-data preprocessing chain as ONE streaming
    pipeline: exact dedup → quality filter (length + repetition) →
    deterministic train split → sequence packing. Every stage is a library
    operator; the whole composition is value-oracled.

    Scale shape: the only corpus-wide shuffle is the content-hash dedup
    (unavoidable when the keeper must carry its text); stats/filter/split
    are stateless vectorized passes, and packing folds within doc_id-range
    partitions."""
    from ..functions.dedup import exact_dedup
    from ..functions.packing import pack_sequences, split_cut, split_draws
    from ..functions.textstats import repetition_ratio

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    # 1. exact dedup, keeper ROW carries its text
    surv = exact_dedup(docs, carry_cols=["text"],
                       rows_hint=_nrows(sf_dir, "documents"))

    # 2+3. quality filter + train-split draw: ONE tokenization pass per
    # doc (n_tokens rides along so packing doesn't re-tokenize either)
    cut = split_cut(SPLIT_TRAIN_FRAC)

    def keep(batch: pa.Table) -> pa.Table:
        tok_lists = [t.split() for t in batch.column("text").to_pylist()]
        nt = np.array([len(t) for t in tok_lists])
        reps = np.array([repetition_ratio(t) for t in tok_lists])
        draws = split_draws(batch.column("doc_id").to_pylist())
        m = ((nt >= PRETRAIN_MIN_TOKENS)
             & (reps <= PRETRAIN_MAX_REPETITION)
             & (draws < cut))
        return batch.append_column(
            "n_tokens", pa.array(nt, pa.int64())).filter(pa.array(m))

    kept = surv.map_batches(keep, batch_format="pyarrow")

    # 4. pack into fixed-token-budget sequences (uses the carried counts)
    return pack_sequences(kept, budget=PACK_BUDGET,
                          part_size=PACK_PART_SIZE)


SQL_DOCS_PRETRAIN_PIPELINE = rf"""
WITH RECURSIVE surv AS (
  SELECT doc_id, text FROM (
    SELECT doc_id, text,
           row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) AS rn
    FROM documents) WHERE rn = 1),
stats AS (
  SELECT doc_id,
    CASE WHEN trim(text) = '' THEN 0
         ELSE length(regexp_split_to_array(trim(text), '\s+'))
    END::BIGINT AS n_tokens,
    list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS toks
  FROM surv),
keep AS (
  SELECT doc_id, n_tokens FROM stats
  WHERE n_tokens >= {PRETRAIN_MIN_TOKENS}
    AND (CASE WHEN length(toks) < 3 THEN 0.0
         ELSE 1.0 - length(list_distinct(
                list_transform(range(1, length(toks)-1),
                  i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])))
              / (length(toks) - 2)::DOUBLE END) <= {PRETRAIN_MAX_REPETITION}
    AND ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
        < {int(SPLIT_TRAIN_FRAC * 4294967296)}),
d AS (
  SELECT doc_id, n_tokens, doc_id // {PACK_PART_SIZE} AS part_id,
         row_number() OVER (PARTITION BY (doc_id // {PACK_PART_SIZE})
                            ORDER BY doc_id) AS rn
  FROM keep),
acc AS (
  SELECT part_id, rn, doc_id, n_tokens, n_tokens AS filled,
         0::BIGINT AS seq_id, 0::BIGINT AS seq_pos
  FROM d WHERE rn = 1
  UNION ALL
  SELECT d.part_id, d.rn, d.doc_id, d.n_tokens,
    CASE WHEN a.filled + d.n_tokens > {PACK_BUDGET}
         THEN d.n_tokens ELSE a.filled + d.n_tokens END,
    CASE WHEN a.filled + d.n_tokens > {PACK_BUDGET}
         THEN a.seq_id + 1 ELSE a.seq_id END,
    CASE WHEN a.filled + d.n_tokens > {PACK_BUDGET}
         THEN 0 ELSE a.seq_pos + 1 END
  FROM d JOIN acc a ON d.part_id = a.part_id AND d.rn = a.rn + 1)
SELECT doc_id, n_tokens, part_id, seq_id, seq_pos FROM acc
"""


COSINE_PAIR_THRESHOLD = 0.4


def embed_cosine_pairs(sf_dir):
    """Exact thresholded cosine similarity self-join (block-pair matmul) —
    the exact baseline behind embedding near-dedup.

    Scale story: this O(blocks²) path is the SMALL-corpus oracle baseline
    and the only sound operator at low thresholds (0.4 here — sign-LSH
    banding has no recall there). At near-dup thresholds the linear-shuffle
    path is ``embed_cosine_pairs_lsh`` below, pinned pair-identical to this
    join in tests/test_similarity.py."""
    from ..functions.similarity import cosine_pair_join

    # explicit coarse blocks: Ray's auto-split makes 64 tiny blocks of this
    # table → O(64²/2) pair tasks; ~256 rows/block keeps the task count
    # quadratic in DATA size, not in split count
    emb = _read_embeddings(sf_dir)
    return cosine_pair_join(emb, threshold=COSINE_PAIR_THRESHOLD)


def _read_embeddings(sf_dir):
    n = _nrows(sf_dir, "embeddings")
    blocks = max(1, min(32, n // 256))
    return _rd().read_parquet(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"],
                              override_num_blocks=blocks)


SQL_EMBED_COSINE_PAIRS = f"""
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(
           list_transform(a.embedding, x -> x::DOUBLE),
           list_transform(b.embedding, x -> x::DOUBLE)), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(
           list_transform(a.embedding, x -> x::DOUBLE),
           list_transform(b.embedding, x -> x::DOUBLE)), 6)
      >= {COSINE_PAIR_THRESHOLD}
"""


LSH_PAIR_THRESHOLD = 0.95
LSH_ID_SHIFT = 1_000_000


def embed_cosine_pairs_lsh(sf_dir):
    """Near-dup thresholded cosine pair join via banded hyperplane LSH —
    the 100 TB path (linear shuffle of banded copies, exact matmul only
    inside candidate buckets).

    Input: embeddings ∪ an id-shifted exact copy, so every vector has one
    planted duplicate at cosine 1.0. Exact copies share every band bucket
    by construction (identical sign patterns), so recall on them is 1.0
    DETERMINISTICALLY — which is what makes this hash-oracle-able: the
    corpus' own max inter-vector cosine (≤0.61 at every sf) sits far below
    the 0.95 threshold, so the output is exactly the planted pairs and
    DuckDB replays it with a plain exact join.
    """
    from ..functions.similarity import cosine_pair_join_lsh

    # coarse blocks (see embed_cosine_pairs): banding multiplies rows
    # ×n_bands per block, and the bucket shuffle's sort pays per-block
    # fixed cost — 128 auto-split blocks measured 4.1 s of pure sort
    # overhead on a 64k-row banded set vs <1 s at 14 blocks
    emb = _read_embeddings(sf_dir)

    def shift(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.set_column(
            b.schema.get_field_index("vec_id"), "vec_id",
            pc.add(b.column("vec_id"), LSH_ID_SHIFT))

    both = emb.union(emb.map_batches(shift, batch_format="pyarrow"))
    n = _nrows(sf_dir, "embeddings")
    return cosine_pair_join_lsh(both, threshold=LSH_PAIR_THRESHOLD,
                                rows_hint=2 * n)


SQL_EMBED_COSINE_PAIRS_LSH = f"""
WITH uni AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + {LSH_ID_SHIFT} AS vec_id, embedding FROM embeddings)
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(
           list_transform(a.embedding, x -> x::DOUBLE),
           list_transform(b.embedding, x -> x::DOUBLE)), 6) AS cosine
FROM uni a JOIN uni b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(
           list_transform(a.embedding, x -> x::DOUBLE),
           list_transform(b.embedding, x -> x::DOUBLE)), 6)
      >= {LSH_PAIR_THRESHOLD}
"""


SLIDING_WINDOW_DAYS = 7


def events_sliding_window(sf_dir):
    """Per-event trailing 7-day count/sum per user (sliding event-time
    window, RANGE frame semantics: all events with ts in
    [ts - 6 days, ts], ties included).

    Ray shape: hash-bucket by user (users never span buckets), per-user
    sort + vectorized two-pointer over cumulative sums — no per-row Python,
    no global sort.
    """
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    delta = pd.Timedelta(days=SLIDING_WINDOW_DAYS - 1)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        ts = g["ts"].to_numpy()
        val = g["value"].to_numpy()
        users = g["user_id"].to_numpy()
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        ends = np.r_[starts[1:], len(g)]
        n_out = np.empty(len(g), dtype=np.int64)
        s_out = np.empty(len(g), dtype=np.float64)
        for s, e in zip(starts, ends):
            t = ts[s:e]
            csum = np.concatenate([[0.0], np.cumsum(val[s:e])])
            lo = np.searchsorted(t, t - delta, side="left")
            hi = np.searchsorted(t, t, side="right")   # include ts ties
            n_out[s:e] = hi - lo
            s_out[s:e] = csum[hi] - csum[lo]
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "sliding_n_7d": n_out,
                             "sliding_sum_7d": sql_round(s_out, 2)})

    return hash_bucket_aggregate(ds, ["user_id"], per_bucket,
                                 rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_SLIDING_WINDOW = f"""
SELECT event_id,
       count(*) OVER w AS sliding_n_7d,
       round(sum(value) OVER w, 2) AS sliding_sum_7d
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL {SLIDING_WINDOW_DAYS - 1} DAY PRECEDING
                       AND CURRENT ROW)
"""


DD_GAMMA = 1.02


def lineitem_price_ddsketch(sf_dir):
    """Approximate p50/p95 of extended price via a DDSketch (mergeable
    log-bucket quantile sketch, ≤1% relative error at γ=1.02) — the
    sketch-family answer to quantiles when the exact per-group sort
    (``lineitem_quantiles``) is too wide. Deterministic and
    order-independent, so the full bucket→rank→estimate computation is
    hash-oracled in SQL."""
    from ..functions.sketches import dd_quantiles

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    qs = dd_quantiles(ds, "l_extendedprice", qs=(0.5, 0.95),
                      gamma=DD_GAMMA)
    return pd.DataFrame({"p50": [sql_round(qs[0.5], 6)],
                         "p95": [sql_round(qs[0.95], 6)]})


SQL_LINEITEM_PRICE_DDSKETCH = f"""
WITH b AS (SELECT CAST(ceil(ln(l_extendedprice)/ln({DD_GAMMA})) AS BIGINT)
                  AS bucket
           FROM lineitem WHERE l_extendedprice > 0),
counts AS (SELECT bucket, count(*) AS n FROM b GROUP BY bucket),
tot AS (SELECT sum(n) AS t FROM counts),
c AS (SELECT bucket, sum(n) OVER (ORDER BY bucket) AS cum FROM counts)
SELECT
  round(2*power({DD_GAMMA}, (SELECT min(bucket) FROM c, tot
        WHERE cum >= greatest(1, ceil(0.5*t))))/({DD_GAMMA}+1), 6) AS p50,
  round(2*power({DD_GAMMA}, (SELECT min(bucket) FROM c, tot
        WHERE cum >= greatest(1, ceil(0.95*t))))/({DD_GAMMA}+1), 6) AS p95
"""


QUANTILE_QS = (0.5, 0.95)


def lineitem_quantiles(sf_dir):
    """Per-group discrete quantiles (p50/p95 of extended price).

    Exact quantiles require each group's values in one place, so this
    hash-buckets on the group key and sorts per group — the documented
    partitioning assumption is per-group values fit a worker (true for
    low-cardinality group keys; for heavy groups use a mergeable quantile
    sketch instead). Discrete (sorted[ceil(q·n)-1], == DuckDB
    ``quantile_disc``) rather than interpolated: an actual data element,
    so no float-interpolation drift between engines.
    """
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"],
               rows_per_block=65536)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for flag, grp in g.groupby("l_returnflag"):
            v = np.sort(grp["l_extendedprice"].to_numpy())
            n = len(v)
            qs = [float(v[min(int(np.ceil(q * n)) - 1, n - 1)])
                  for q in QUANTILE_QS]
            rows.append((flag, sql_round(qs[0], 2), sql_round(qs[1], 2),
                         np.int64(n)))
        return pd.DataFrame(rows, columns=["l_returnflag", "p50_price",
                                           "p95_price", "n_items"])

    return hash_bucket_aggregate(ds, ["l_returnflag"], per_bucket,
                                 n_buckets=16)


SQL_LINEITEM_QUANTILES = """
SELECT l_returnflag,
       round(quantile_disc(l_extendedprice, 0.5), 2) AS p50_price,
       round(quantile_disc(l_extendedprice, 0.95), 2) AS p95_price,
       count(*)::BIGINT AS n_items
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# Graph operators over a DETERMINISTIC edge table (customer → nation), so
# degree / components / k-hop get full value oracles — the same operators
# the KG pipelines use, minus the model nondeterminism.
# ---------------------------------------------------------------------------

def _arr(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _customer_edges(sf_dir, bidirectional: bool = False):
    """Edge Dataset subj='C<custkey>' --in_nation--> obj='N<nationkey>'."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def mk(batch: pa.Table) -> pa.Table:
        c = _arr(pc.binary_join_element_wise(
            pa.scalar("C"), pc.cast(batch.column("c_custkey"), pa.string()),
            pa.scalar("")))
        n = _arr(pc.binary_join_element_wise(
            pa.scalar("N"), pc.cast(batch.column("c_nationkey"), pa.string()),
            pa.scalar("")))
        if bidirectional:
            subj = pa.concat_arrays([c, n])
            obj = pa.concat_arrays([n, c])
        else:
            subj, obj = c, n
        return pa.table({
            "subj": subj,
            "pred": pa.array(["in_nation"] * len(subj), pa.string()),
            "obj": obj,
        })

    return ds.map_batches(mk, batch_format="pyarrow")


def graph_degree_customers(sf_dir):
    """degree_stats over the deterministic customer→nation edges."""
    from ..functions.graph import degree_stats
    return degree_stats(_customer_edges(sf_dir),
                        rows_hint=_nrows(sf_dir, "customer"))


SQL_GRAPH_DEGREE_CUSTOMERS = """
WITH e AS (SELECT 'C' || c_custkey AS subj, 'in_nation' AS pred,
                  'N' || c_nationkey AS obj FROM customer),
v AS (SELECT subj AS entity, pred, 1 AS outd, 0 AS ind FROM e
      UNION ALL SELECT obj, pred, 0, 1 FROM e)
SELECT entity, sum(outd)::BIGINT AS out_degree, sum(ind)::BIGINT AS in_degree,
       count(DISTINCT pred)::BIGINT AS n_preds
FROM v GROUP BY entity
"""


def graph_components_customers(sf_dir):
    """connected_components over the customer→nation star graph: one
    component per nation, representative = min member label."""
    from ..functions.graph import connected_components
    return connected_components(_customer_edges(sf_dir))


SQL_GRAPH_COMPONENTS_CUSTOMERS = """
WITH e AS (SELECT 'C' || c_custkey AS c, 'N' || c_nationkey AS n
           FROM customer),
m AS (SELECT n, least(min(c), n) AS component FROM e GROUP BY n)
SELECT c AS entity, component FROM e JOIN m USING (n)
UNION ALL SELECT n AS entity, component FROM m
"""


KHOP_SEEDS = ("C1", "C2", "C3")


def graph_khop_customers(sf_dir):
    """2-hop reachability from seed customers over bidirectional edges
    (hop 1 = their nations, hop 2 = co-nationals)."""
    from ..functions.graph import k_hop_neighbors

    reached = k_hop_neighbors(_customer_edges(sf_dir, bidirectional=True),
                              list(KHOP_SEEDS), k=2)
    df = pd.DataFrame(sorted(reached.items()), columns=["entity", "hop"])
    df["hop"] = df["hop"].astype("int64")
    return df


SQL_GRAPH_KHOP_CUSTOMERS = f"""
WITH e AS (SELECT 'C' || c_custkey AS a, 'N' || c_nationkey AS b FROM customer
           UNION ALL SELECT 'N' || c_nationkey, 'C' || c_custkey
           FROM customer),
h0 AS (SELECT unnest({list(KHOP_SEEDS)}) AS v),
h1 AS (SELECT DISTINCT b AS v FROM e JOIN h0 ON e.a = h0.v
       WHERE b NOT IN (SELECT v FROM h0)),
h2 AS (SELECT DISTINCT b AS v FROM e JOIN h1 ON e.a = h1.v
       WHERE b NOT IN (SELECT v FROM h0) AND b NOT IN (SELECT v FROM h1))
SELECT v AS entity, 0::BIGINT AS hop FROM h0
UNION ALL SELECT v, 1 FROM h1
UNION ALL SELECT v, 2 FROM h2
"""


PAGERANK_ITERS = 5


def graph_pagerank_customers(sf_dir):
    """Integer fixed-point PageRank over the bidirectional customer<->nation
    graph (nations are hubs with in-degree ~ customers/nation). int64
    micro-unit arithmetic makes the distributed result bit-identical to the
    SQL replay — see functions.graph.pagerank for the scale story."""
    from ..functions.graph import pagerank
    return pagerank(_customer_edges(sf_dir, bidirectional=True),
                    iters=PAGERANK_ITERS,
                    rows_hint=2 * _nrows(sf_dir, "customer"))


def _pagerank_sql(iters: int, scale: int, num: int, den: int,
                  edge_cte: str | None = None,
                  tail: str | None = None) -> str:
    """Chained-CTE replay of the integer power iteration (one CTE per
    round; all arithmetic BIGINT floor-division, matching the engine).
    ``edge_cte``: SQL producing the directed ``e(src, dst)`` edge set
    (defaults to the customer<->nation graph); ``tail``: final SELECT
    override."""
    if edge_cte is None:
        edge_cte = """e AS (SELECT 'C' || c_custkey AS src, 'N' || c_nationkey AS dst
           FROM customer
           UNION ALL
           SELECT 'N' || c_nationkey, 'C' || c_custkey FROM customer)"""
    parts = [f"""
WITH {edge_cte},
deg AS (SELECT src, count(*)::BIGINT AS outdeg FROM e GROUP BY src),
nodes AS (SELECT DISTINCT src AS v FROM e UNION SELECT dst FROM e),
nn AS (SELECT count(*)::BIGINT AS n FROM nodes),
r0 AS (SELECT v, ({scale} // (SELECT n FROM nn))::BIGINT AS r FROM nodes)"""]
    for i in range(1, iters + 1):
        parts.append(f""",
r{i} AS (SELECT nodes.v,
         (({scale} * {den - num}) // ({den} * (SELECT n FROM nn)))::BIGINT
         + COALESCE(s.inc, 0) AS r
         FROM nodes LEFT JOIN (
           SELECT e.dst AS v,
                  sum((p.r * {num}) // ({den} * deg.outdeg))::BIGINT AS inc
           FROM e JOIN r{i - 1} p ON e.src = p.v
                  JOIN deg ON e.src = deg.src
           GROUP BY e.dst) s ON nodes.v = s.v)""")
    parts.append(tail if tail is not None
                 else f"\nSELECT v AS entity, r AS rank_micro FROM r{iters}")
    return "".join(parts)


SQL_GRAPH_PAGERANK_CUSTOMERS = _pagerank_sql(PAGERANK_ITERS, 10 ** 12,
                                             85, 100)


TEXTRANK_ITERS = 5
TEXTRANK_TOPK = 50
TEXTRANK_MIN_LEN = 4     # content-word heuristic: tokens >= 4 chars


def docs_textrank_keywords(sf_dir):
    """TextRank keyword extraction (Mihalcea & Tarau 2004, EMNLP):
    integer fixed-point PageRank over the corpus word co-occurrence
    graph — vertices are content tokens (>= 4 chars), edges connect
    adjacent content tokens within a document (symmetrized, distinct),
    and the top-k words by stationary rank are the corpus keyword
    vocabulary. One tokenize pass emits directed pairs, one bucketed
    distinct, then the shared bit-deterministic pagerank rounds; a tiny
    sort+limit finishes. Oracle replays the SAME rounds via the shared
    _pagerank_sql CTE template over a word-graph edge CTE."""
    from ..functions.graph import pagerank
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["text"])

    def pair_edges(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        seen = set()
        for t in batch.column("text").to_pylist():
            toks = [w for w in t.split() if len(w) >= TEXTRANK_MIN_LEN]
            for a, b in zip(toks, toks[1:]):
                if a != b and (a, b) not in seen:
                    seen.add((a, b))
                    src.append(a)
                    dst.append(b)
        return pa.table({"subj": pa.array(src, pa.string()),
                         "obj": pa.array(dst, pa.string())})

    pairs = ds.map_batches(pair_edges, batch_format="pyarrow")

    def sym(batch: pa.Table) -> pa.Table:
        a, b = batch.column("subj"), batch.column("obj")
        return pa.concat_tables([batch,
                                 pa.table({"subj": b, "obj": a})])

    both = pairs.map_batches(sym, batch_format="pyarrow")
    n_docs = _nrows(sf_dir, "documents")
    edges = hash_bucket_aggregate(
        both, ["subj", "obj"],
        lambda g: g.drop_duplicates(["subj", "obj"]),
        rows_hint=64 * n_docs).materialize()
    # the word graph is vocabulary²-bounded, FAR smaller than the corpus
    # that generated it — size pagerank's buckets to the real edge count,
    # not the corpus (count() on the materialized edges is metadata-cheap)
    ranks = pagerank(edges, iters=TEXTRANK_ITERS, subj_col="subj",
                     obj_col="obj", rows_hint=2 * edges.count())
    return (ranks.sort(["rank_micro", "entity"],
                       descending=[True, False])
            .limit(TEXTRANK_TOPK).to_pandas()
            .rename(columns={"entity": "word"}))


def _sql_textrank() -> str:
    edge_cte = rf"""tt AS (SELECT list_filter(
    regexp_split_to_array(trim(text), '\s+'),
    w -> length(w) >= {TEXTRANK_MIN_LEN}) AS toks
  FROM documents WHERE trim(text) != ''),
pr AS (SELECT unnest(list_transform(range(1, length(toks)),
         i -> toks[i] || ' ' || toks[i+1])) AS s
       FROM tt WHERE length(toks) >= 2),
e0 AS (SELECT DISTINCT split_part(s, ' ', 1) AS src,
                       split_part(s, ' ', 2) AS dst
       FROM pr WHERE split_part(s, ' ', 1) != split_part(s, ' ', 2)),
e AS MATERIALIZED (SELECT src, dst FROM e0
     UNION SELECT dst, src FROM e0)"""
    tail = (f"\nSELECT v AS word, r AS rank_micro FROM r{TEXTRANK_ITERS}"
            f"\nORDER BY r DESC, v LIMIT {TEXTRANK_TOPK}")
    return _pagerank_sql(TEXTRANK_ITERS, 10 ** 12, 85, 100,
                         edge_cte=edge_cte, tail=tail)


KMEANS_K = 8
KMEANS_ITERS = 3
EMBED_DIM = 64


def embed_kmeans_clusters(sf_dir):
    """Distributed Lloyd k-means over the embeddings table in integer
    fixed-point arithmetic — order-independent int64 sums + truncating
    division make the result bit-identical to the chained-CTE SQL replay
    (see functions.similarity.kmeans_fixed_point for the scale story)."""
    from ..functions.similarity import kmeans_fixed_point

    return kmeans_fixed_point(_read_embeddings(sf_dir), k=KMEANS_K,
                              iters=KMEANS_ITERS)


def _kmeans_sql(k: int, iters: int, scale: int, dim: int) -> str:
    """Chained-CTE replay of the integer Lloyd iteration: quantize →
    (assign, update) per round — all BIGINT, division truncating like the
    engine's _trunc_div — then a final assignment."""
    parts = [f"""
WITH pts AS (
  SELECT vec_id, i::BIGINT AS dim,
         floor(embedding[i]::DOUBLE * {scale})::BIGINT AS v
  FROM embeddings, (SELECT unnest(range(1, {dim + 1})) AS i)),
init AS (
  SELECT vec_id,
         (row_number() OVER (ORDER BY vec_id) - 1)::BIGINT AS cluster
  FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})),
c0 AS (SELECT i.cluster, p.dim, p.v FROM init i JOIN pts p USING (vec_id))"""]
    for t in range(1, iters + 1):
        parts.append(f""",
d{t} AS (SELECT p.vec_id, c.cluster,
              sum((p.v - c.v) * (p.v - c.v))::BIGINT AS dist
       FROM pts p JOIN c{t - 1} c USING (dim)
       GROUP BY p.vec_id, c.cluster),
a{t} AS (SELECT vec_id, cluster FROM (
         SELECT vec_id, cluster,
                row_number() OVER (PARTITION BY vec_id
                                   ORDER BY dist, cluster) AS rn
         FROM d{t}) WHERE rn = 1),
u{t} AS (SELECT a.cluster, p.dim, (sum(p.v) // count(*))::BIGINT AS v
       FROM a{t} a JOIN pts p USING (vec_id) GROUP BY a.cluster, p.dim),
c{t} AS (SELECT c{t - 1}.cluster, c{t - 1}.dim,
                COALESCE(u{t}.v, c{t - 1}.v) AS v
       FROM c{t - 1} LEFT JOIN u{t} USING (cluster, dim))""")
    parts.append(f""",
df AS (SELECT p.vec_id, c.cluster,
              sum((p.v - c.v) * (p.v - c.v))::BIGINT AS dist
       FROM pts p JOIN c{iters} c USING (dim)
       GROUP BY p.vec_id, c.cluster)
SELECT vec_id, cluster FROM (
  SELECT vec_id, cluster,
         row_number() OVER (PARTITION BY vec_id
                            ORDER BY dist, cluster) AS rn
  FROM df) WHERE rn = 1""")
    return "".join(parts)


SQL_EMBED_KMEANS_CLUSTERS = _kmeans_sql(KMEANS_K, KMEANS_ITERS,
                                        10 ** 6, EMBED_DIM)


KCENTER_K = 8


def embed_kcenter_coreset(sf_dir):
    """Greedy k-center (Gonzalez farthest-point) coreset — diversity
    sampling over the embedding table: k maximally-spread exemplars in
    integer fixed-point distance math, bit-identical to the unrolled SQL
    replay (see functions.similarity.kcenter_coreset for the k-pass /
    one-candidate-row-per-block scale shape)."""
    from ..functions.similarity import kcenter_coreset

    return kcenter_coreset(_read_embeddings(sf_dir), k=KCENTER_K)


def _kcenter_sql(k: int, scale: int, dim: int) -> str:
    """Unrolled greedy rounds: round r computes each point's min squared
    distance to the selected set and picks (max dist, min id)."""
    # every CTE is MATERIALIZED: each round references the previous
    # selected-set twice, so inlined CTEs would re-expand the whole
    # chain exponentially (3^k plan copies)
    parts = [f"""
WITH pts AS MATERIALIZED (
  SELECT vec_id, i::BIGINT AS dim,
         floor(embedding[i]::DOUBLE * {scale})::BIGINT AS v
  FROM embeddings, (SELECT unnest(range(1, {dim + 1})) AS i)),
s0 AS MATERIALIZED (
  SELECT vec_id, 0::BIGINT AS rank, 0::BIGINT AS dist
  FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 1))"""]
    for r in range(1, k):
        parts.append(f""",
d{r} AS MATERIALIZED (
  SELECT qid AS vec_id, min(dist) AS mind FROM (
    SELECT q.vec_id AS qid, c.vec_id AS cid,
           sum((q.v - c.v) * (q.v - c.v))::BIGINT AS dist
    FROM pts q JOIN pts c USING (dim)
    WHERE c.vec_id IN (SELECT vec_id FROM s{r - 1})
      AND q.vec_id NOT IN (SELECT vec_id FROM s{r - 1})
    GROUP BY 1, 2)
  GROUP BY 1),
p{r} AS MATERIALIZED (
  SELECT vec_id, mind FROM d{r} ORDER BY mind DESC, vec_id LIMIT 1),
s{r} AS MATERIALIZED (
  SELECT * FROM s{r - 1} UNION ALL
  SELECT vec_id, {r}::BIGINT, mind::BIGINT FROM p{r})""")
    parts.append(f"\nSELECT rank, vec_id, dist FROM s{k - 1}")
    return "".join(parts)


JL_OUT_DIM = 16
JL_SEED = 31


def embed_jl_projection(sf_dir):
    """Johnson-Lindenstrauss random projection to 16 dims — stateless
    one-pass matmul against a seeded Gaussian matrix; long-form output
    (vec_id, dim, val) value-matches the SQL replay (R as literals)."""
    from ..functions.similarity import jl_project

    return jl_project(_read_embeddings(sf_dir), in_dim=EMBED_DIM,
                      out_dim=JL_OUT_DIM, seed=JL_SEED)


def _jl_sql() -> str:
    from ..functions.similarity import jl_matrix_sql_literals

    rows = jl_matrix_sql_literals(EMBED_DIM, JL_OUT_DIM, JL_SEED)
    return f"""
WITH r (i, j, v) AS (VALUES {rows}),
psub AS (
  SELECT vec_id, i::BIGINT AS i, embedding[i]::DOUBLE AS x
  FROM embeddings, (SELECT unnest(range(1, {EMBED_DIM + 1})) AS i))
SELECT p.vec_id, r.j::BIGINT AS dim, round(sum(p.x * r.v), 6) AS val
FROM psub p JOIN r ON p.i = r.i
GROUP BY p.vec_id, r.j
"""


SEMDEDUP_T = 0.45


def embed_semantic_dedup(sf_dir):
    """SemDeDup: k-means clusters (integer fixed-point, bit-reproducible)
    + within-cluster cosine pruning — lowest id of each near-dup set
    survives. Threshold 0.45 suits the synthetic near-orthogonal corpus
    (closest pairs ~0.5 cosine); real near-dup corpora run ~0.95."""
    from ..functions.dedup import semantic_dedup

    return semantic_dedup(_read_embeddings(sf_dir), k=KMEANS_K,
                          iters=KMEANS_ITERS, threshold=SEMDEDUP_T,
                          rows_hint=_nrows(sf_dir, "embeddings"))


def _semantic_dedup_sql(threshold: float) -> str:
    """Replay: the k-means CTE labels every vector, then a within-cluster
    lower-id self-join drops any vector with a near-dup predecessor
    (cosine computed in DOUBLE from the float32 lists, rounded at 6 —
    identical to the engine's float64 matmul + round)."""
    return f"""
WITH labels AS ({SQL_EMBED_KMEANS_CLUSTERS}),
psub AS (
  SELECT vec_id, i::BIGINT AS dim, embedding[i]::DOUBLE AS v
  FROM embeddings, (SELECT unnest(range(1, {EMBED_DIM + 1})) AS i)),
norms AS (SELECT vec_id, sqrt(sum(v * v)) AS nrm FROM psub GROUP BY vec_id),
dots AS (
  SELECT la.vec_id AS a, lb.vec_id AS b, sum(pa.v * pb.v) AS dot
  FROM labels la
  JOIN labels lb ON la.cluster = lb.cluster AND lb.vec_id < la.vec_id
  JOIN psub pa ON pa.vec_id = la.vec_id
  JOIN psub pb ON pb.vec_id = lb.vec_id AND pb.dim = pa.dim
  GROUP BY la.vec_id, lb.vec_id),
dropped AS (
  SELECT DISTINCT d.a AS vec_id
  FROM dots d
  JOIN norms na ON na.vec_id = d.a
  JOIN norms nb ON nb.vec_id = d.b
  WHERE round(d.dot / (na.nrm * nb.nrm), 6) >= {threshold})
SELECT l.vec_id, l.cluster FROM labels l
WHERE l.vec_id NOT IN (SELECT vec_id FROM dropped)
"""


SQL_EMBED_SEMANTIC_DEDUP = _semantic_dedup_sql(SEMDEDUP_T)


def docs_shingles(sf_dir):
    """Distinct 3-word shingle count per document — the (oracle-able)
    shingling front half of the MinHash dedup pipeline."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def count_sh(batch: pa.Table) -> pa.Table:
        out = []
        for t in batch.column("text").to_pylist():
            toks = t.split()
            out.append(0 if len(toks) < 3 else
                       len({tuple(toks[i: i + 3])
                            for i in range(len(toks) - 2)}))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_shingles": pa.array(out, pa.int64())})

    return ds.map_batches(count_sh, batch_format="pyarrow")


SQL_DOCS_SHINGLES = r"""
WITH t AS (SELECT doc_id,
  CASE WHEN trim(text)='' THEN []::VARCHAR[]
       ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents)
SELECT doc_id,
  CASE WHEN length(toks) < 3 THEN 0
       ELSE length(list_distinct(list_transform(range(1, length(toks)-1),
            i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))) END::BIGINT
    AS n_shingles
FROM t
"""


# ---------------------------------------------------------------------------
# Model / KG / sketch operators. SQL cannot replay a seeded numpy model
# forward, so hard driver signal comes from PINNED-VALUE oracles instead
# (pipelines/pins.py, regenerated by scripts/gen_pins.py): small outputs pin
# the full table, large outputs get a companion *_stats query pinning
# deterministic integer aggregates. Both are golden pins with the same
# epistemic status as tests/test_models.py::GOLDEN_EXPECTED — they change
# ONLY on a deliberate semantic change, and the commit must say why.
# ---------------------------------------------------------------------------

def _round_score_col(ds, col: str = "score"):
    """Round a float score column to 6 dp as float64 — makes model-pipeline
    outputs bit-stable for value-hash comparison against pinned literals
    (repr round-trip is exact for doubles)."""
    def fn(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        return batch.set_column(
            batch.schema.get_field_index(col), col,
            pa.array(sql_round(v.astype(np.float64), 6), pa.float64()))
    return ds.map_batches(fn, batch_format="pyarrow")


def _distinct_count(ds, cols: list[str], rows_hint: int | None = None) -> int:
    """Exact distributed distinct count: per-bucket nunique (buckets
    partition by value, so the partial counts just add)."""
    from ..functions.relational import hash_bucket_aggregate

    out = hash_bucket_aggregate(
        ds.select_columns(cols), cols,
        lambda g: pd.DataFrame({"n": [int(len(g.drop_duplicates(cols)))]}),
        rows_hint=rows_hint)
    df = out.to_pandas()
    return int(df["n"].sum()) if len(df) else 0


def _micro_sum(ds, col: str) -> int:
    """Σ rint(x·10⁶) as int64 — an order-independent (exact integer)
    checksum of a float column, robust to block/batch boundaries where a
    float sum would not be."""
    def partial(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"s": pa.array(
            [int(np.rint(v * 1e6).sum())], pa.int64())})
    s = ds.map_batches(partial, batch_format="pyarrow").sum("s")
    return int(s or 0)


def _int_sum(ds, col: str) -> int:
    s = ds.sum(col)
    return int(s or 0)


def _triple_stats(triples_ds) -> pd.DataFrame:
    ds = triples_ds.materialize()
    return pd.DataFrame({
        "n_triples": [np.int64(ds.count())],
        "n_subj": [np.int64(_distinct_count(ds, ["subj"]))],
        "n_pred": [np.int64(_distinct_count(ds, ["pred"]))],
        "n_obj": [np.int64(_distinct_count(ds, ["obj"]))],
        "sum_evidence": [np.int64(_int_sum(ds, "n_evidence"))],
        "score_sum_micro": [np.int64(_micro_sum(ds, "score"))],
    })


def kg_triples(sf_dir):
    """Flagship KG pipeline. ``score`` is emitted rounded to 6 dp (float64)
    so the full 4-row output is pinnable as a value oracle."""
    return _round_score_col(_triples_cached(sf_dir))


def kg_triples_pcnn(sf_dir):
    """Same KG pipeline with the piecewise-CNN scorer (T2 path)."""
    return _triples_cached(sf_dir, "wiki80_pcnn_softmax")


def kg_triples_bert(sf_dir):
    """Same KG pipeline with the BERT-style scorer (T3 path, wordpiece
    encode + transformer forward in the distributed stage)."""
    return _triples_cached(sf_dir, "wiki80_bert_softmax", threshold=0.105)


def kg_degree_stats(sf_dir):
    """Per-entity in/out-degree over the extracted knowledge graph."""
    from ..functions.graph import degree_stats
    return degree_stats(_triples_cached(sf_dir))


def kg_components(sf_dir):
    """Connected components of the extracted graph (min-label propagation)."""
    from ..functions.graph import connected_components
    return connected_components(_triples_cached(sf_dir))


def fewshot_classify(sf_dir):
    """Few-shot prototypical classification over extracted instances."""
    from ..fewshot import FewShotProto

    support = [
        ({"text": "the spark table join was fast",
          "h": {"pos": (4, 9)}, "t": {"pos": (16, 20)}}, "relA"),
        ({"text": "slow hash stream window merge",
          "h": {"pos": (5, 9)}, "t": {"pos": (10, 16)}}, "relB"),
    ]
    fs = FewShotProto().fit(support)
    inst = _pair_instances(sf_dir).select_columns(
        ["url", "text", "h_start", "h_end", "t_start", "t_end"])
    return fs.classify_dataset(inst).select_columns(
        ["url", "pred_rel", "score"])


def sentence_relation_scores(sf_dir):
    """Per-instance scored candidates (pre-aggregation KG stream)."""
    return _scored_candidates(sf_dir).select_columns(
        ["url", "sent_idx", "h_id", "t_id", "pred_rel", "score", "model_hash"])


def encoded_instances(sf_dir):
    """Standalone tokenize/encode operator output (M1 as a stage)."""
    from ..stages.extract import ExtractText
    from ..stages.ner import mentions_udf
    from ..stages.pairs import generate_pairs

    def encode_batch(batch):
        from ..stages.score import EncodeInstances, cached
        enc = cached(("encode", "wiki80_cnn_softmax"), EncodeInstances)
        return enc(batch)

    inst = _pair_instances(sf_dir)
    return inst.map_batches(encode_batch, batch_format="pyarrow")


def bag_relation_scores(sf_dir):
    """Distant-supervision bag pipeline over the extracted instances."""
    from .bag import bag_scores

    inst = _pair_instances(sf_dir).select_columns(
        ["text", "h_id", "h_start", "h_end", "t_id", "t_start", "t_end"])
    return bag_scores(inst, model_name="nyt10_pcnn_att")


def bag_eval_metrics(sf_dir):
    """O1-O5 metric pass over the bag scores (single-row result).

    Runs fully distributed (``bag_eval_distributed``): the bag×relation
    prediction rows never collect to the driver — facts (argmax relation
    per entity pair) mark in the bucketed pass the scores already paid,
    and the PR curve computes as per-block slices of one global score
    sort stitched with carried prefix offsets."""
    from .evalmetrics import bag_eval_distributed
    from ..fixtures import default_rel2id

    m = bag_eval_distributed(bag_relation_scores(sf_dir), default_rel2id())
    scalars = {k: [v] for k, v in m.items() if not isinstance(m[k], np.ndarray)}
    return pd.DataFrame(scalars)


def bag_per_relation_metrics(sf_dir):
    """Per-relation P/R/F1 breakdown of the bag model at the 0.5
    threshold — the standard RE-paper table that micro/macro scalars
    (``bag_eval_metrics``) compress away: which relations the model
    actually gets right. Facts follow bag_eval_distributed's convention
    (argmax relation per entity pair, ties → relation asc); label/pred
    flags per (pair, relation) row reduce to per-relation tp/fp/fn
    INSIDE the (h_id, t_id) bucket the scores already paid for, so only
    |R| x n_buckets integer partial rows reach the driver. P/R/F1 are
    one division each from exact integers, 12-dp rounded. The seeded
    model's softmax never clears 0.5 (max ≈ 0.15 at 10-way), so the
    threshold columns are honest zeros here; `n_rows` and
    `score_sum_micro` (sum of round(score·1e6) — exact int64 under any
    partial-sum order) carry the value-discriminating signal per
    relation. Model-derived scores → full-table pinned oracle
    (pins.py)."""
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.sqlcompat import sql_round

    scores = bag_relation_scores(sf_dir)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        f = (g.sort_values(["h_id", "t_id", "score", "relation"],
                           ascending=[True, True, False, True],
                           kind="stable")
             .drop_duplicates(["h_id", "t_id"])
             [["h_id", "t_id", "relation"]]
             .rename(columns={"relation": "fact_rel"}))
        m = g.merge(f, on=["h_id", "t_id"])
        lab = (m["relation"] == m["fact_rel"]).to_numpy()
        prd = (m["score"].to_numpy(np.float64) >= 0.5)
        out = pd.DataFrame({
            "relation": m["relation"],
            "tp": (lab & prd).astype(np.int64),
            "fp": (~lab & prd).astype(np.int64),
            "fn": (lab & ~prd).astype(np.int64),
            "n_rows": np.ones(len(m), dtype=np.int64),
            "score_sum_micro": np.round(
                m["score"].to_numpy(np.float64) * 1e6).astype(np.int64)})
        return out.groupby("relation", as_index=False)[
            ["tp", "fp", "fn", "n_rows", "score_sum_micro"]].sum()

    parts = hash_bucket_aggregate(
        scores, ["h_id", "t_id"], per_bucket,
        rows_hint=_nrows(sf_dir, "documents")).to_pandas()
    agg = (parts.groupby("relation", as_index=False)[
               ["tp", "fp", "fn", "n_rows", "score_sum_micro"]]
           .sum().sort_values("relation").reset_index(drop=True))
    tp = agg["tp"].to_numpy(np.int64)
    fp = agg["fp"].to_numpy(np.int64)
    fn = agg["fn"].to_numpy(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
        r = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
        f1 = np.where(p + r > 0, 2 * p * r / np.maximum(p + r, 1e-300),
                      0.0)
    return pd.DataFrame({
        "relation": agg["relation"],
        "tp": tp, "fp": fp, "fn": fn,
        "n_rows": agg["n_rows"].to_numpy(np.int64),
        "score_sum_micro": agg["score_sum_micro"].to_numpy(np.int64),
        "precision": sql_round(p, 12).astype(np.float64),
        "recall": sql_round(r, 12).astype(np.float64),
        "f1": sql_round(f1, 12).astype(np.float64)})


def kg_truth_discovery(sf_dir):
    """KB-fusion conflict resolution: for every (subj, pred) the elected
    object is the one with the most supporting evidence across the
    extracted triples (majority voting, the baseline truth-discovery
    rule of Dong et al.'s knowledge fusion line) — ties break to the
    lexicographically smallest object, deterministic. Reports the
    winner's support and how many competing objects it beat;
    n_alternatives > 0 rows are exactly the conflicts a curation pass
    reviews. Scale shape: one bucketed argmax over the deduplicated
    triple table keyed by (subj, pred); all reported columns are exact
    integers/strings, so the row set pins bit-stably (pins.py)."""
    from ..functions.relational import hash_bucket_aggregate

    triples = _triples_cached(sf_dir)

    def elect_bucket(g: pd.DataFrame) -> pd.DataFrame:
        full = g.groupby(["subj", "pred", "obj"],
                         as_index=False)["n_evidence"].sum()
        alts = full.groupby(["subj", "pred"], as_index=False).size() \
                   .rename(columns={"size": "n_objs"})
        full = full.sort_values(["subj", "pred", "n_evidence", "obj"],
                                ascending=[True, True, False, True],
                                kind="stable")
        top = full.drop_duplicates(["subj", "pred"])
        out = top.merge(alts, on=["subj", "pred"])
        return pd.DataFrame({
            "subj": out["subj"].to_numpy(),
            "pred": out["pred"].to_numpy(),
            "obj": out["obj"].to_numpy(),
            "support": out["n_evidence"].astype(np.int64).to_numpy(),
            "n_alternatives": (out["n_objs"] - 1)
            .astype(np.int64).to_numpy()})

    return hash_bucket_aggregate(
        triples.select_columns(["subj", "pred", "obj", "n_evidence"]),
        ["subj", "pred"], elect_bucket,
        rows_hint=_nrows(sf_dir, "documents"))


CALIB_BINS = 10


def kg_type_violations(sf_dir):
    """Ontology/schema validation over the extracted triples — the KG
    QA gate: every triple's (subj_type, pred, obj_type) is checked
    against the relation's declared domain/range
    (fixtures.RELATION_SCHEMA); violating combinations are model errors
    by construction and feed the curation review queue. Scale shape:
    the entity→type table is gazetteer-sized and broadcast (ships in the
    task closure); validation is row-local; the report aggregate is
    |schema|²-bounded, reduced map-side before a tiny driver fold. All
    columns exact ints/strings → full-table pin (pins.py)."""
    from ..fixtures import RELATION_SCHEMA, entity_type_table

    types = entity_type_table()
    schema = dict(RELATION_SCHEMA)
    triples = _triples_cached(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "pred": pd.Series([], dtype="object"),
                "subj_type": pd.Series([], dtype="object"),
                "obj_type": pd.Series([], dtype="object"),
                "valid": pd.Series([], dtype="int64"),
                "n_triples": pd.Series([], dtype="int64"),
                "n_evidence": pd.Series([], dtype="int64")})
        st = df["subj"].map(types)
        ot = df["obj"].map(types)
        want = df["pred"].map(schema)
        ok = [int(w == (a, b))
              for w, a, b in zip(want.tolist(), st.tolist(), ot.tolist())]
        g = pd.DataFrame({"pred": df["pred"], "subj_type": st,
                          "obj_type": ot, "valid": ok,
                          "n_triples": np.int64(1),
                          "n_evidence": df["n_evidence"].astype(np.int64)})
        return (g.groupby(["pred", "subj_type", "obj_type", "valid"],
                          as_index=False, sort=False)
                .agg(n_triples=("n_triples", "sum"),
                     n_evidence=("n_evidence", "sum")))

    parts = triples.map_batches(partial, batch_format="pandas").to_pandas()
    out = (parts.groupby(["pred", "subj_type", "obj_type", "valid"],
                         as_index=False)
           .agg(n_triples=("n_triples", "sum"),
                n_evidence=("n_evidence", "sum"))
           .sort_values(["pred", "subj_type", "obj_type"])
           .reset_index(drop=True))
    out["valid"] = out["valid"].astype(np.int64)
    out["n_triples"] = out["n_triples"].astype(np.int64)
    out["n_evidence"] = out["n_evidence"].astype(np.int64)
    return out


def kg_type_inference(sf_dir):
    """RDFS-style type inference over the candidate KG — the reasoning
    pass that turns a triple stream + a taxonomy into typed entities:
    rdfs2 (pred's declared domain types the subject), rdfs3 (range types
    the object), gazetteer assertions, then rdfs9 (subClassOf closure)
    lifts every derived class to its ancestors
    (fixtures.CLASS_PARENT / class_ancestors). Scale shape: evidence
    emission is row-local with the broadcast relation schema; ONE
    bucketed shuffle keyed on entity co-locates each entity's evidence,
    and the (ontology-sized, corpus-independent) class closure expands
    INSIDE the bucket — the output is |E|x|classes|-bounded exact
    ints/strings. ``inferred_only`` marks types no direct rule asserted
    (what reasoning added). Model-derived argmax labels → full-table
    pinned oracle (pins.py)."""
    from ..fixtures import (RELATION_SCHEMA, class_ancestors,
                            entity_type_table)
    from ..functions.relational import hash_bucket_aggregate

    types = entity_type_table()
    schema = dict(RELATION_SCHEMA)
    anc = class_ancestors()
    triples = _predicted_triples(sf_dir)

    def evidence(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"entity": pd.Series([], dtype="object"),
                                 "cls": pd.Series([], dtype="object"),
                                 "src": pd.Series([], dtype="object")})
        want = df["pred"].map(schema)
        has = want.notna()
        dom = pd.DataFrame({"entity": df.loc[has, "subj"],
                            "cls": [w[0] for w in want[has]],
                            "src": "domain"})
        rng = pd.DataFrame({"entity": df.loc[has, "obj"],
                            "cls": [w[1] for w in want[has]],
                            "src": "range"})
        ment = pd.DataFrame({
            "entity": pd.concat([df["subj"], df["obj"]]).unique(),
            "cls": "", "src": "mention"})
        return pd.concat([dom, rng, ment], ignore_index=True)

    ev = triples.map_batches(evidence, batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (g[g["src"] != "mention"]
               .groupby(["entity", "cls", "src"]).size()
               .rename("n").reset_index())
        ents = [e for e in g["entity"].unique() if e in types]
        asserted = pd.DataFrame({"entity": ents,
                                 "cls": [types[e] for e in ents],
                                 "src": "asserted",
                                 "n": np.ones(len(ents), dtype=np.int64)})
        direct = pd.concat([cnt, asserted], ignore_index=True)
        if not len(direct):
            return pd.DataFrame({
                "entity": pd.Series([], dtype="object"),
                "type": pd.Series([], dtype="object"),
                "n_asserted": pd.Series([], dtype="int64"),
                "n_domain": pd.Series([], dtype="int64"),
                "n_range": pd.Series([], dtype="int64"),
                "n_total": pd.Series([], dtype="int64"),
                "inferred_only": pd.Series([], dtype="int64")})
        ex = (direct.assign(type=direct["cls"].map(lambda c: list(anc[c])))
              .explode("type"))
        agg = ex.groupby(["entity", "type", "src"], as_index=False)["n"].sum()
        wide = (agg.pivot(index=["entity", "type"], columns="src",
                          values="n").reset_index())
        for c in ("asserted", "domain", "range"):
            if c not in wide.columns:
                wide[c] = 0
            wide[c] = wide[c].fillna(0).astype(np.int64)
        directly = set(zip(direct["entity"], direct["cls"]))
        out = pd.DataFrame({
            "entity": wide["entity"], "type": wide["type"],
            "n_asserted": wide["asserted"], "n_domain": wide["domain"],
            "n_range": wide["range"]})
        out["n_total"] = (out["n_asserted"] + out["n_domain"]
                          + out["n_range"]).astype(np.int64)
        out["inferred_only"] = np.array(
            [int((e, t) not in directly)
             for e, t in zip(out["entity"], out["type"])], dtype=np.int64)
        return out

    res = hash_bucket_aggregate(ev, ["entity"], per_bucket,
                                n_buckets=8).to_pandas()
    return (res.sort_values(["entity", "type"]).reset_index(drop=True))


SNOWBALL_TOP_K = 25
SNOWBALL_MAX_PATTERN_TOKENS = 6


def kg_snowball_patterns(sf_dir):
    """Snowball/DIPRE-style pattern induction (Brin 1998, Agichtein &
    Gravano 2000) — the bootstrapping step of semi-supervised relation
    extraction: the token context BETWEEN the two entity mentions
    becomes a candidate extraction pattern, each pattern is scored by
    how often its instances land in the high-confidence seed KB (the
    flagship's thresholded triples), and the per-pattern majority seed
    relation becomes the pattern's label. Reports the top-k patterns by
    support with exact integer confidence (1e6·n_seed // n_total).

    Scale shape: patterns are row-local string slices of the already-
    scored instance stream (ONE scoring pass, materialized); the seed
    KB is KB-bounded (distinct gazetteer pairs × relations), collected
    once and broadcast in the UDF closure — at open-web scale the
    membership test swaps to the decontaminate-style Bloom gate. Counts
    reduce map-side per (pattern, seed_rel), one pattern-bucketed
    aggregate elects the majority label, and top-k prunes per bucket
    before a ≤ k×buckets driver fold. SQL cannot replay the model or
    the NER regex, so the k-row table pins (pins.py)."""
    import re

    from ..functions.relational import hash_bucket_aggregate
    from .kg import SCORE_THRESHOLD

    inst = _scored_candidates(sf_dir)
    n_hint = max(inst.count(), 1)

    def seed_rows(df: pd.DataFrame) -> pd.DataFrame:
        keep = ((df["pred_rel"] != "NA")
                & (df["score"].to_numpy(np.float64) >= SCORE_THRESHOLD))
        g = df.loc[keep, ["h_id", "pred_rel", "t_id"]]
        return g.drop_duplicates()

    seeds = set(map(tuple, inst.map_batches(
        seed_rows, batch_format="pandas").to_pandas()
        .itertuples(index=False, name=None)))

    ws = re.compile(r"\s+")

    def pattern_partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"pattern": pd.Series([], dtype=object),
                "seed_rel": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64")}
        if not len(df):
            return pd.DataFrame(cols)
        pats, rels = [], []
        for text, he, ts, h, r, t in zip(
                df["text"], df["h_end"], df["t_start"],
                df["h_id"], df["pred_rel"], df["t_id"]):
            mid = ws.sub(" ", text[int(he):int(ts)].lower()).strip()
            if mid.count(" ") >= SNOWBALL_MAX_PATTERN_TOKENS:
                continue
            pats.append(mid if mid else "<adjacent>")
            rels.append(r if (h, r, t) in seeds else "")
        out = pd.DataFrame({"pattern": pats, "seed_rel": rels})
        out = out.groupby(["pattern", "seed_rel"], as_index=False).size()
        out = out.rename(columns={"size": "n"})
        out["n"] = out["n"].astype(np.int64)
        return out

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        full = g.groupby(["pattern", "seed_rel"], as_index=False)["n"] \
                .sum()
        tot = (full.groupby("pattern", as_index=False)["n"].sum()
               .rename(columns={"n": "n_total"}))
        sd = full[full["seed_rel"] != ""]
        nsd = (sd.groupby("pattern", as_index=False)["n"].sum()
               .rename(columns={"n": "n_seed"}))
        top = (sd.sort_values(["pattern", "n", "seed_rel"],
                              ascending=[True, False, True],
                              kind="stable")
               .drop_duplicates("pattern")[["pattern", "seed_rel"]]
               .rename(columns={"seed_rel": "major_rel"}))
        out = tot.merge(nsd, on="pattern", how="left") \
                 .merge(top, on="pattern", how="left")
        out["n_seed"] = out["n_seed"].fillna(0).astype(np.int64)
        out["major_rel"] = out["major_rel"].fillna("NA")
        out["conf_micro"] = (10 ** 6 * out["n_seed"]
                             // out["n_total"]).astype(np.int64)
        out = out.sort_values(["n_total", "pattern"],
                              ascending=[False, True], kind="stable")
        return out.head(SNOWBALL_TOP_K)          # per-bucket prune

    cand = hash_bucket_aggregate(
        inst.map_batches(pattern_partial, batch_format="pandas"),
        ["pattern"], per_bucket, rows_hint=n_hint).to_pandas()
    out = (cand.sort_values(["n_total", "pattern"],
                            ascending=[False, True], kind="stable")
           .head(SNOWBALL_TOP_K).reset_index(drop=True))
    return out.astype({"n_total": np.int64, "n_seed": np.int64,
                       "conf_micro": np.int64})


# ── session-scoped model-stage cache ─────────────────────────────────
# ~15 model-derived queries share the same expensive front half
# (read → extract → NER → pairs [→ score → threshold/dedup]). Within
# one driver session the first query to need a stage materializes it
# and the rest reuse the blocks (the generalization of the
# _predicted_triples materialize that took kg_rule_inference
# 27.9 s → 9 s). Cache miss = compute, so every query stays standalone;
# keys carry the Ray job id so a re-init'ed session never touches dead
# object refs, and the dict is bounded FIFO.

_STAGE_CACHE: dict = {}
_STAGE_CACHE_MAX = 24


def _stage_cached(sf_dir, tag, build):
    import ray

    job = (ray.get_runtime_context().get_job_id()
           if ray.is_initialized() else None)
    key = (os.path.abspath(sf_dir), tag, job)
    ds = _STAGE_CACHE.get(key)
    if ds is None:
        ds = build().materialize()
        while len(_STAGE_CACHE) >= _STAGE_CACHE_MAX:
            _STAGE_CACHE.pop(next(iter(_STAGE_CACHE)))
        _STAGE_CACHE[key] = ds
    return ds


def _pair_instances(sf_dir):
    """read → extract → NER → pairs (everything before model scoring),
    materialized once per session per sf_dir. A scored-candidate cache
    entry retains every pre-score column, so when one already exists
    for this sf_dir it is reused instead of paying a second front-half
    pass (the flagship usually runs first and populates it)."""
    import ray

    from ..sources.pages import read_pages
    from ..stages.extract import ExtractText
    from ..stages.ner import mentions_udf
    from ..stages.pairs import generate_pairs

    job = (ray.get_runtime_context().get_job_id()
           if ray.is_initialized() else None)
    want = os.path.abspath(sf_dir)
    for (sf, tag, j), ds in _STAGE_CACHE.items():
        if sf == want and j == job and tag.startswith("scored:"):
            return ds

    def build():
        return (read_pages(sf_dir)
                .map_batches(ExtractText(), batch_format="pyarrow")
                .map_batches(mentions_udf(), batch_format="pyarrow")
                .map_batches(generate_pairs, batch_format="pyarrow"))

    return _stage_cached(sf_dir, "pairs", build)


def _scored_candidates(sf_dir, model_name=None):
    """kg.candidate_instances output (pairs + scorer_udf argmax),
    cached per model. Built as ONE fused streaming chain — a separate
    pair-level materialize barrier between the stages measured ~1 s
    slower on the cold flagship path."""
    from .kg import DEFAULT_MODEL, candidate_instances
    from ..sources.pages import read_pages

    model = model_name or DEFAULT_MODEL

    def build():
        return candidate_instances(read_pages(sf_dir), model_name=model)

    return _stage_cached(sf_dir, f"scored:{model}", build)


def _triples_cached(sf_dir, model_name=None, threshold=None):
    """kg.extract_triples equivalent on the cached scored candidates
    (threshold → canonicalize → dedup), cached per (model, threshold)."""
    from .kg import (DEFAULT_MODEL, SCORE_THRESHOLD, filter_triples,
                     finalize_triples)

    model = model_name or DEFAULT_MODEL
    thr = SCORE_THRESHOLD if threshold is None else threshold

    def build():
        inst = _scored_candidates(sf_dir, model).map_batches(
            lambda b: filter_triples(b, thr), batch_format="pyarrow")
        return finalize_triples(inst)

    return _stage_cached(sf_dir, f"triples:{model}:{thr}", build)


def _copurchase_edges(sf_dir, vertex_mod=None, distinct=True):
    """Cached part co-purchase edge table (parts sharing an order),
    keyed by (vertex-sample mod, distinct): every graph_*_parts query
    starts from one of a handful of these tables, and the build
    (per-order pair expansion in the order's hash bucket + optional
    distinct exchange) was re-run per query (~1.5-3 s each at sf0.1).
    Cache miss = compute, so each query stays standalone."""
    from ..functions.graph import build_copurchase_edges

    def build():
        ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
                   rows_per_block=32768)
        if vertex_mod:
            def sample(batch: pa.Table) -> pa.Table:
                pk = batch.column("l_partkey").to_numpy(
                    zero_copy_only=False)
                return batch.filter(pa.array(pk % vertex_mod == 0))

            ds = ds.map_batches(sample, batch_format="pyarrow")
        n = _nrows(sf_dir, "lineitem") // (vertex_mod or 1)
        return build_copurchase_edges(ds, rows_hint=4 * n,
                                      distinct=distinct)

    return _stage_cached(sf_dir, f"coedges:{vertex_mod}:{distinct}",
                         build)


def _predicted_triples(sf_dir):
    """Distinct (subj, pred, obj) over the model's per-instance argmax
    labels — the CANDIDATE knowledge graph a rule-mining QA pass audits
    before thresholding (the post-threshold table keeps ~4 triples at
    test scale, far too sparse to ground a rule). ``NA`` participates
    like any label on purpose: its inverse/path statistics sanity-check
    the pair generator's symmetry, and the report's relation columns let
    an analyst filter it. One bucketed dedup keyed by the full triple;
    result cached per session (every rule miner consumes it)."""
    from ..functions.rules import compact, distinct_triples

    def build():
        inst = _scored_candidates(sf_dir).map_batches(
            lambda t: t.select(
                ["h_id", "pred_rel", "t_id"]).rename_columns(
                    ["subj", "pred", "obj"]),
            batch_format="pyarrow")
        rows_hint = 4 * _nrows(sf_dir, "documents")
        return compact(distinct_triples(inst, rows_hint=rows_hint),
                       rows_hint=rows_hint)

    return _stage_cached(sf_dir, "pred_triples", build)


def kg_inverse_relations(sf_dir):
    """Inverse/symmetric relation detection over the candidate KG
    (rules.inverse_relations): for every ordered label pair (r1, r2),
    how many entity pairs carry r1(h, t) and r2(t, h) both, with
    integer-micro confidence against |r1|. The classic KB-enrichment QA
    signal (AMIE-family); model-derived labels → full-table pin
    (pins.py). Scale shape: one tagged-union shuffle keyed by the
    directed entity pair; driver work is |R|²-bounded."""
    from ..functions.rules import inverse_relations

    return inverse_relations(_predicted_triples(sf_dir),
                             rows_hint=4 * _nrows(sf_dir, "documents"))


def kg_path_rules(sf_dir):
    """AMIE-lite horn-rule mining r1(x,y) ∧ r2(y,z) ⇒ r3(x,z) over the
    candidate KG (rules.path_rules): body support on distinct (x, z)
    groundings, closed counts, head coverage — exact integer micros.
    Two bucketed shuffles (join entity, then grounding pair); the
    driver fold is |R|³-bounded. Model-derived → full-table pin."""
    from ..functions.rules import path_rules

    return path_rules(_predicted_triples(sf_dir),
                      rows_hint=4 * _nrows(sf_dir, "documents"))


def kg_relation_profile(sf_dir):
    """Per-relation cardinality/functionality profile of the candidate
    KG (rules.relation_profile): triple count, distinct subjects and
    objects, AMIE functionality micros — the 1:1 / 1:N / N:M label that
    gates rule pruning and truth discovery. Bucketed (pred, entity)
    dedup; |R|-bounded at the driver. Model-derived → full-table pin."""
    from ..functions.rules import relation_profile

    return relation_profile(_predicted_triples(sf_dir),
                            rows_hint=4 * _nrows(sf_dir, "documents"))


def kg_relation_implications(sf_dir):
    """Same-direction implication mining over the candidate KG
    (rules.relation_implications): for every ordered label pair
    r1 ≠ r2, how many entity pairs assert BOTH on the same direction,
    with integer-micro confidence vs |r1| — near-1.0 both ways flags
    duplicate relations, one way flags subsumption. One bucketed pass
    keyed by the directed pair; |R|²-bounded fold. Model-derived →
    full-table pin (pins.py)."""
    from ..functions.rules import relation_implications

    return relation_implications(_predicted_triples(sf_dir),
                                 rows_hint=4 * _nrows(sf_dir, "documents"))


def kg_rule_inference(sf_dir):
    """KB completion by rule application (rules.rule_inference): mine
    the AMIE path rules, keep confidence ≥ 0.2, re-ground bodies, and
    anti-join the implied heads against the asserted candidate KG. Per
    qualifying rule: body support, closed count, NEW-prediction count,
    and an order-independent md5 checksum of the predicted-triple set —
    the full prediction content is value-verified while the output stays
    |R|³-bounded. Model-derived labels → full-table pin (pins.py).
    Scale shape: the rule table ships in the closure (|R|³-bounded);
    grounding + anti-join are two bucketed shuffles."""
    from ..functions.rules import rule_inference

    return rule_inference(_predicted_triples(sf_dir),
                          rows_hint=4 * _nrows(sf_dir, "documents"))


KG_PAGERANK_ITERS = 5


def kg_entity_pagerank(sf_dir):
    """Entity importance over the candidate KG: integer fixed-point
    PageRank (functions.graph.pagerank — bit-deterministic micro-unit
    arithmetic) on the directed subj→obj graph of non-NA predicted
    triples. A KG build uses this to order canonicalization review and
    type-inference passes by how load-bearing an entity is. Model-derived
    labels → full-table pin (pins.py); the entity set is gazetteer-
    bounded, so the pinned output is |E| rows. Scale shape: pagerank's
    per-round bucketed join/sum, never collected to the driver."""
    from ..functions.graph import pagerank

    tri = _predicted_triples(sf_dir).map_batches(
        lambda t: t.filter(pc.not_equal(t.column("pred"), "NA")),
        batch_format="pyarrow")
    return pagerank(tri, iters=KG_PAGERANK_ITERS, subj_col="subj",
                    obj_col="obj",
                    rows_hint=4 * _nrows(sf_dir, "documents"))


def kg_snapshot_diff(sf_dir):
    """Incremental KG rebuild audit (the CDC step of a production KG
    build): split the crawl into two deterministic snapshots (md5(url)
    LSB — content-stable, so re-runs and both engines agree), extract
    the candidate KG from each, and report per (relation, status) how
    many distinct triples are stable (asserted in both), added (B only),
    or retired (A only) — plus an order-independent md5 content checksum
    of each triple set, so the full diff content is value-verified while
    the output stays |R|×3-bounded at any corpus size. Model-derived
    labels → full-table pin (pins.py).

    Scale shape: ONE scoring pass; snapshot tags ride the instance
    stream; per-triple (in_a, in_b) flags come from one bucketed dedup
    keyed by the full triple; the (pred, status) fold reduces map-side."""
    from ..functions.packing import split_draws
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.rules import _triple_cksum, _CKSUM_MOD

    inst = _scored_candidates(sf_dir)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "subj": pd.Series([], dtype="object"),
                "pred": pd.Series([], dtype="object"),
                "obj": pd.Series([], dtype="object"),
                "snap": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "subj": df["h_id"].to_numpy(),
            "pred": df["pred_rel"].to_numpy(),
            "obj": df["t_id"].to_numpy(),
            "snap": (split_draws(df["url"].tolist(), "snap") & 1)
            .astype(np.int64)})

    tagged = inst.map_batches(tag, batch_format="pandas")

    def flag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.assign(in_a=(g["snap"] == 0).astype(np.int64),
                       in_b=(g["snap"] == 1).astype(np.int64)) \
            .groupby(["subj", "pred", "obj"], as_index=False) \
            .agg(in_a=("in_a", "max"), in_b=("in_b", "max"))
        return out

    flags = hash_bucket_aggregate(
        tagged, ["subj", "pred", "obj"], flag_bucket,
        rows_hint=4 * _nrows(sf_dir, "documents"))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "pred": pd.Series([], dtype="object"),
                "status": pd.Series([], dtype="object"),
                "n_triples": pd.Series([], dtype="int64"),
                "checksum": pd.Series([], dtype="int64")})
        status = np.where((df["in_a"] > 0) & (df["in_b"] > 0), "stable",
                          np.where(df["in_b"] > 0, "added", "retired"))
        out = pd.DataFrame({
            "pred": df["pred"].to_numpy(), "status": status,
            "n_triples": np.ones(len(df), np.int64),
            "checksum": _triple_cksum(df["subj"], df["pred"], df["obj"])})
        return (out.groupby(["pred", "status"], as_index=False)
                .agg(n_triples=("n_triples", "sum"),
                     checksum=("checksum", "sum")))

    parts = flags.map_batches(partial, batch_format="pandas").to_pandas()
    out = (parts.groupby(["pred", "status"], as_index=False)
           .agg(n_triples=("n_triples", "sum"),
                checksum=("checksum", "sum")))
    out["n_triples"] = out["n_triples"].astype(np.int64)
    out["checksum"] = (out["checksum"] % _CKSUM_MOD).astype(np.int64)
    return out.sort_values(["pred", "status"]).reset_index(drop=True)


def sentence_calibration_bins(sf_dir):
    """Reliability-diagram bins for the sentence scorer: per confidence
    decile, how often an instance-level prediction matches its entity
    pair's MAJORITY vote under the same model — the self-consistency
    calibration proxy a distant-supervision KG build uses when no gold
    labels exist (ECE falls out of the n / n_agree / score_sum_micro
    columns; a well-calibrated scorer concentrates disagreement in the
    low-confidence bins). Scale shape: the candidate stream is scored
    once; majority votes come from map-side (pair, rel, count) partials
    + one pair-keyed bucketed argmax (ties break to the lexicographic
    smallest relation, deterministic); consensus joins back via one
    pair-keyed shuffle; the decile histogram reduces map-side to <= 10
    rows per block before the driver fold. All reported columns are
    exact integers, so the row set pins bit-stably (pins.py)."""
    from ..functions.relational import hash_bucket_aggregate, shuffle_join

    inst = _scored_candidates(sf_dir)
    n_hint = max(inst.count(), 1)

    def sent_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "pair": df["h_id"].astype(str) + "|" + df["t_id"].astype(str),
            "pred_rel": df["pred_rel"].astype(str),
            "score": df["score"].astype(np.float64)})

    sent = inst.map_batches(sent_rows, batch_format="pandas")

    def vote_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["pair", "pred_rel"], sort=False,
                         as_index=False).size()
        out = out.rename(columns={"size": "c"})
        out["c"] = out["c"].astype(np.int64)
        return out

    def majority_bucket(g: pd.DataFrame) -> pd.DataFrame:
        full = g.groupby(["pair", "pred_rel"], as_index=False)["c"].sum()
        full = full.sort_values(["pair", "c", "pred_rel"],
                                ascending=[True, False, True],
                                kind="stable")
        top = full.drop_duplicates("pair")
        return pd.DataFrame({
            "pair": top["pair"].to_numpy(),
            "major_rel": top["pred_rel"].astype(str).to_numpy()})

    major = hash_bucket_aggregate(
        sent.map_batches(vote_partial, batch_format="pandas"),
        ["pair"], majority_bucket, rows_hint=n_hint)

    joined = shuffle_join(sent, major, "pair", "pair",
                          ["pred_rel", "score"], ["major_rel"],
                          rows_hint=n_hint)

    def bin_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("bin", "n", "n_agree",
                                           "score_sum_micro")})
        s = df["score"].to_numpy(np.float64)
        b = np.minimum((s * CALIB_BINS).astype(np.int64), CALIB_BINS - 1)
        out = pd.DataFrame({
            "bin": b,
            "n": np.ones(len(df), dtype=np.int64),
            "n_agree": (df["pred_rel"].to_numpy()
                        == df["major_rel"].to_numpy()).astype(np.int64),
            "score_sum_micro": np.rint(s * 1e6).astype(np.int64)})
        return out.groupby("bin", as_index=False).sum()

    parts = joined.map_batches(bin_partial, batch_format="pandas") \
                  .to_pandas()
    out = parts.groupby("bin", as_index=False).sum()
    for c in ("bin", "n", "n_agree", "score_sum_micro"):
        out[c] = out[c].astype(np.int64)
    return out


#: temperature grid in milli-units (T = t_milli / 1000)
TEMP_GRID_MILLI = (500, 750, 1000, 1500, 2000, 3000)


def sentence_temperature_scaling(sf_dir):
    """Temperature-scaling calibration fit (Guo et al. 2017) for the
    sentence scorer: evaluate ECE over a fixed temperature grid against
    the pair-majority self-consistency proxy (same pseudo-labels as
    ``sentence_calibration_bins``) and flag the argmin — the post-hoc
    calibration step a KG build applies before thresholding scores
    into triples. Softmax temperature is applied to log-probs (softmax
    is shift-invariant, so ln p recovers the logit geometry exactly).

    Exact integer ECE: per (T, decile) the partials carry n, n_agree
    and Σ rint(conf·1e6); ece_micro = Σ_bins |1e6·n_agree − Σconf| // N
    — no float enters after the per-instance rounding, so the 6-row
    table pins bit-stably. Scale shape: ONE scoring pass emits the
    grid's confidence columns (6 floats/instance, R-wide rows never
    shuffle), consensus is the same map-side vote + pair-bucketed
    argmax + ONE pair-keyed join, and the (T, bin) histogram reduces
    map-side to ≤ 60 rows per block."""
    from ..functions.relational import hash_bucket_aggregate, shuffle_join
    from ..stages.extract import ExtractText
    from ..stages.ner import mentions_udf
    from ..stages.pairs import generate_pairs

    tcols = [f"conf_t{t}" for t in TEMP_GRID_MILLI]

    def grid_conf(batch: pa.Table) -> pd.DataFrame:
        from ..stages.score import RelationScorer, cached

        cols = {"pair": pd.Series([], dtype=object),
                "pred_rel": pd.Series([], dtype=object),
                **{c: pd.Series([], dtype="float64") for c in tcols}}
        if batch.num_rows == 0:
            return pd.DataFrame(cols)
        scorer = cached(("scorer", "wiki80_cnn_softmax"),
                        lambda: RelationScorer("wiki80_cnn_softmax"))
        p = scorer.score_matrix(batch).astype(np.float64)
        logp = np.log(np.maximum(p, 1e-300))
        pred = np.argmax(p, axis=1)
        h = batch.column("h_id").to_pylist()
        t_ = batch.column("t_id").to_pylist()
        out = {"pair": [f"{a}|{b}" for a, b in zip(h, t_)],
               "pred_rel": [scorer.id2rel[int(i)] for i in pred]}
        for t_milli, c in zip(TEMP_GRID_MILLI, tcols):
            z = logp / (t_milli / 1000.0)
            z -= z.max(axis=1, keepdims=True)
            ez = np.exp(z)
            out[c] = ez.max(axis=1) / ez.sum(axis=1)
        return pd.DataFrame(out)

    inst = _pair_instances(sf_dir)
    sent = inst.map_batches(grid_conf, batch_format="pyarrow") \
               .materialize()
    n_hint = max(sent.count(), 1)

    def vote_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["pair", "pred_rel"], sort=False,
                         as_index=False).size()
        out = out.rename(columns={"size": "c"})
        out["c"] = out["c"].astype(np.int64)
        return out[["pair", "pred_rel", "c"]]

    def majority_bucket(g: pd.DataFrame) -> pd.DataFrame:
        full = g.groupby(["pair", "pred_rel"], as_index=False)["c"].sum()
        full = full.sort_values(["pair", "c", "pred_rel"],
                                ascending=[True, False, True],
                                kind="stable")
        top = full.drop_duplicates("pair")
        return pd.DataFrame({
            "pair": top["pair"].to_numpy(),
            "major_rel": top["pred_rel"].astype(str).to_numpy()})

    major = hash_bucket_aggregate(
        sent.map_batches(vote_partial, batch_format="pandas"),
        ["pair"], majority_bucket, rows_hint=n_hint)
    joined = shuffle_join(sent, major, "pair", "pair",
                          ["pred_rel"] + tcols, ["major_rel"],
                          rows_hint=n_hint)

    def bin_partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = {c: pd.Series([], dtype="int64")
                for c in ("t_milli", "bin", "n", "n_agree",
                          "conf_sum_micro")}
        if not len(df):
            return pd.DataFrame(cols)
        agree = (df["pred_rel"].to_numpy()
                 == df["major_rel"].to_numpy()).astype(np.int64)
        frames = []
        for t_milli, c in zip(TEMP_GRID_MILLI, tcols):
            conf = df[c].to_numpy(np.float64)
            b = np.minimum((conf * CALIB_BINS).astype(np.int64),
                           CALIB_BINS - 1)
            frames.append(pd.DataFrame({
                "t_milli": np.int64(t_milli), "bin": b,
                "n": np.ones(len(df), dtype=np.int64),
                "n_agree": agree,
                "conf_sum_micro": np.rint(conf * 1e6).astype(np.int64)}))
        out = pd.concat(frames, ignore_index=True)
        return out.groupby(["t_milli", "bin"], as_index=False).sum()

    parts = joined.map_batches(bin_partial, batch_format="pandas") \
                  .to_pandas()
    bins = parts.groupby(["t_milli", "bin"], as_index=False).sum()
    rows = []
    for t_milli, g in bins.groupby("t_milli"):
        n = int(g["n"].sum())
        ece_num = int(np.abs(10 ** 6 * g["n_agree"].to_numpy(np.int64)
                             - g["conf_sum_micro"].to_numpy(np.int64))
                      .sum())
        rows.append({"t_milli": int(t_milli), "n": n,
                     "n_agree": int(g["n_agree"].sum()),
                     "conf_sum_micro": int(g["conf_sum_micro"].sum()),
                     "ece_micro": ece_num // n if n else 0})
    out = pd.DataFrame(rows).sort_values("t_milli")
    best = out.sort_values(["ece_micro", "t_milli"]).iloc[0]["t_milli"]
    out["chosen"] = (out["t_milli"] == best).astype(np.int64)
    return (out.astype({c: np.int64 for c in out.columns})
            .reset_index(drop=True))


#: nonconformity quantization grid (1e-4) and split-conformal alphas
CONF_GRID = 10 ** 4
CONF_ALPHAS = ((5, 100), (10, 100), (20, 100))


def sentence_conformal_sets(sf_dir):
    """Split-conformal prediction for the sentence scorer (Vovk et al.;
    Angelopoulos & Bates 2021): a deterministic md5 hash split carves a
    calibration half; q̂_α = the ⌈(n+1)(1−α)⌉-th smallest calibration
    nonconformity (s = 1 − max softmax, quantized to the 1e-4 grid, part
    of the op definition so both paths are integer-exact); on the eval
    half, report empirical coverage (s_top ≤ q̂) and the total
    prediction-set size Σ|{r : s_r ≤ q̂}| — the finite-sample coverage
    check a KG build runs before trusting thresholded scores. Scale
    shape: ONE scoring pass emits map-side HISTOGRAM partials only
    (three kinds × ≤ grid bins; instances never shuffle, no joins), and
    quantile + coverage + set size all fold from the ≤ 3·grid-row
    histogram on the driver. Pinned-value oracle (the model is not
    SQL-replayable)."""
    from ..stages.extract import ExtractText
    from ..stages.ner import mentions_udf
    from ..stages.pairs import generate_pairs

    def hist_partial(batch: pa.Table) -> pd.DataFrame:
        from ..functions.packing import split_cut, split_draws
        from ..stages.score import RelationScorer, cached

        cols = {"kind": pd.Series([], dtype=object),
                "bin": pd.Series([], dtype="int64"),
                "cnt": pd.Series([], dtype="int64")}
        if batch.num_rows == 0:
            return pd.DataFrame(cols)
        scorer = cached(("scorer", "wiki80_cnn_softmax"),
                        lambda: RelationScorer("wiki80_cnn_softmax"))
        p = scorer.score_matrix(batch).astype(np.float64)
        s = np.clip(np.rint((1.0 - p) * CONF_GRID), 0,
                    CONF_GRID).astype(np.int64)
        keys = [f"{u}|{si}|{h}|{t}" for u, si, h, t in zip(
            batch.column("url").to_pylist(),
            batch.column("sent_idx").to_pylist(),
            batch.column("h_id").to_pylist(),
            batch.column("t_id").to_pylist())]
        is_cal = split_draws(keys, "conf:") < split_cut(0.5)
        s_top = s.min(axis=1)
        frames = [
            pd.DataFrame({"kind": "cal_top", "bin": s_top[is_cal]}),
            pd.DataFrame({"kind": "eval_top", "bin": s_top[~is_cal]}),
            pd.DataFrame({"kind": "eval_all",
                          "bin": s[~is_cal].ravel()})]
        out = pd.concat(frames, ignore_index=True)
        out = out.groupby(["kind", "bin"], as_index=False).size() \
            .rename(columns={"size": "cnt"})
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    inst = _pair_instances(sf_dir)
    hist = (inst.map_batches(hist_partial, batch_format="pyarrow")
            .to_pandas().groupby(["kind", "bin"], as_index=False).sum())

    def series(kind: str) -> pd.DataFrame:
        return (hist[hist["kind"] == kind].sort_values("bin")
                [["bin", "cnt"]].reset_index(drop=True))

    cal, etop, eall = series("cal_top"), series("eval_top"), \
        series("eval_all")
    n_cal = int(cal["cnt"].sum())
    n_eval = int(etop["cnt"].sum())
    rows = []
    for num, den in CONF_ALPHAS:
        k = ((n_cal + 1) * (den - num) + den - 1) // den
        cum = cal["cnt"].cumsum()
        hit = cal["bin"][cum >= k]
        qhat = int(hit.iloc[0]) if len(hit) and k <= n_cal else CONF_GRID
        rows.append({
            "alpha_pct": 100 * num // den, "n_cal": n_cal,
            "qhat_e4": qhat, "n_eval": n_eval,
            "n_covered": int(etop.loc[etop["bin"] <= qhat, "cnt"].sum()),
            "setsize_sum": int(eall.loc[eall["bin"] <= qhat,
                                        "cnt"].sum())})
    out = (pd.DataFrame(rows).sort_values("alpha_pct")
           .reset_index(drop=True))
    return out.astype({c: np.int64 for c in out.columns})


# --- companion *_stats queries: deterministic integer aggregates over the
# large model-pipeline outputs, pinnable as value oracles (pins.py) --------

def kg_triples_pcnn_stats(sf_dir):
    """Pinned-aggregate companion to kg_triples_pcnn (960+ rows is too
    large for a full-table pin; these six BIGINTs fingerprint it)."""
    return _triple_stats(_triples_cached(
        sf_dir, "wiki80_pcnn_softmax"))


def kg_triples_bert_stats(sf_dir):
    """Pinned-aggregate companion to kg_triples_bert."""
    return _triple_stats(_triples_cached(
        sf_dir, "wiki80_bert_softmax", threshold=0.105))


UNCERTAINTY_K = 40


def sentence_uncertainty_sample(sf_dir):
    """Active-learning acquisition: the k candidate instances the model
    is LEAST sure about, ranked by margin (top-1 minus top-2 softmax
    probability, ascending) — the batch a KG-construction loop sends to
    annotators each round (margin sampling, Scheffer et al. 2001).
    Entropy rides along as the secondary acquisition signal. Margin and
    entropy are reported in micro-units (int64) so the full table pins
    bit-stably (model scores are seeded; SQL cannot replay them).

    Scale shape: scoring is the same stateless per-worker-cached
    forward as the flagship (stages/score.py); each block prunes
    MAP-SIDE to its local k lowest-margin rows, so the driver folds at
    most k × n_blocks candidate rows (k=40) regardless of corpus size —
    the global sort never touches the full instance stream.
    Deterministic total order: (margin, entropy, url, sent_idx, h_id,
    t_id)."""
    from ..stages.extract import ExtractText
    from ..stages.ner import mentions_udf
    from ..stages.pairs import generate_pairs

    k = UNCERTAINTY_K
    order = ["margin_micro", "entropy_micro", "url", "sent_idx",
             "h_id", "t_id"]

    def margins(batch: pa.Table) -> pd.DataFrame:
        from ..stages.score import RelationScorer, cached

        empty = pd.DataFrame({
            "url": pd.Series([], dtype=object),
            "sent_idx": pd.Series([], dtype="int64"),
            "h_id": pd.Series([], dtype=object),
            "t_id": pd.Series([], dtype=object),
            "pred_rel": pd.Series([], dtype=object),
            "margin_micro": pd.Series([], dtype="int64"),
            "entropy_micro": pd.Series([], dtype="int64")})
        if batch.num_rows == 0:
            return empty
        scorer = cached(("scorer", "wiki80_cnn_softmax"),
                        lambda: RelationScorer("wiki80_cnn_softmax"))
        p = scorer.score_matrix(batch).astype(np.float64)
        top2 = np.partition(p, p.shape[1] - 2, axis=1)[:, -2:]
        margin = top2[:, 1] - top2[:, 0]
        ent = -(p * np.log(np.maximum(p, 1e-300))).sum(axis=1)
        pred = np.argmax(p, axis=1)
        df = pd.DataFrame({
            "url": batch.column("url").to_pylist(),
            "sent_idx": batch.column("sent_idx")
                             .to_numpy(zero_copy_only=False)
                             .astype(np.int64),
            "h_id": batch.column("h_id").to_pylist(),
            "t_id": batch.column("t_id").to_pylist(),
            "pred_rel": [scorer.id2rel[int(i)] for i in pred],
            "margin_micro": np.round(margin * 10 ** 6).astype(np.int64),
            "entropy_micro": np.round(ent * 10 ** 6).astype(np.int64)})
        return df.sort_values(order).head(k)          # map-side prune

    inst = _pair_instances(sf_dir)
    cand = inst.map_batches(margins, batch_format="pyarrow").to_pandas()
    return (cand.sort_values(order).head(k)
            .reset_index(drop=True))


def sentence_scores_stats(sf_dir):
    """Pinned-aggregate companion to sentence_relation_scores."""
    ds = sentence_relation_scores(sf_dir).materialize()
    return pd.DataFrame({
        "n_rows": [np.int64(ds.count())],
        "n_urls": [np.int64(_distinct_count(ds, ["url"]))],
        "n_rels": [np.int64(_distinct_count(ds, ["pred_rel"]))],
        "sum_sent_idx": [np.int64(_int_sum(ds, "sent_idx"))],
        "score_sum_micro": [np.int64(_micro_sum(ds, "score"))],
    })


def encoded_instances_stats(sf_dir):
    """Pinned-aggregate companion to encoded_instances: integer checksums
    over the encoded id vectors (exact, order-independent)."""
    ds = encoded_instances(sf_dir).materialize()

    def vec_sums(b: pa.Table) -> pa.Table:
        def flat_sum(col):
            c = b.column(col)
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            # fixed-size-list OR Ray tensor-extension layout → (N, L) ints
            mat = np.asarray(c.to_numpy(zero_copy_only=False))
            return int(np.asarray([row.sum() for row in mat]).sum()
                       if mat.dtype == object else int(mat.sum()))
        return pa.table({
            "token_sum": pa.array([flat_sum("token")], pa.int64()),
            "pos1_sum": pa.array([flat_sum("pos1")], pa.int64()),
            "pos2_sum": pa.array([flat_sum("pos2")], pa.int64()),
        })

    sums = ds.map_batches(vec_sums, batch_format="pyarrow")
    return pd.DataFrame({
        "n_rows": [np.int64(ds.count())],
        "n_pairs": [np.int64(_distinct_count(ds, ["h_id", "t_id"]))],
        "token_sum": [np.int64(sums.sum("token_sum") or 0)],
        "pos1_sum": [np.int64(sums.sum("pos1_sum") or 0)],
        "pos2_sum": [np.int64(sums.sum("pos2_sum") or 0)],
    })


def bag_scores_stats(sf_dir):
    """Pinned-aggregate companion to bag_relation_scores."""
    ds = bag_relation_scores(sf_dir).materialize()
    return pd.DataFrame({
        "n_rows": [np.int64(ds.count())],
        "n_bags": [np.int64(_distinct_count(ds, ["h_id", "t_id"]))],
        "n_rels": [np.int64(_distinct_count(ds, ["relation"]))],
        "sum_bag_size": [np.int64(_int_sum(ds, "bag_size"))],
        "score_sum_micro": [np.int64(_micro_sum(ds, "score"))],
    })


def fewshot_stats(sf_dir):
    """Pinned-aggregate companion to fewshot_classify."""
    ds = fewshot_classify(sf_dir).materialize()
    return pd.DataFrame({
        "n_rows": [np.int64(ds.count())],
        "n_rels": [np.int64(_distinct_count(ds, ["pred_rel"]))],
        "score_sum_micro": [np.int64(_micro_sum(ds, "score"))],
    })


def docs_deterministic_shuffle(sf_dir):
    """Content-stable global training order: rank every doc by
    md5(doc_id) — the deterministic epoch shuffle a reproducible training
    pipeline uses instead of random_shuffle (same order at any
    parallelism, resumable mid-epoch). One sort shuffle; ranks assigned
    by the distributed row_number primitive (``global_rank``)."""
    from ..functions.relational import global_rank

    ds = _read(sf_dir, "documents", ["doc_id"])

    def add_hash(b: pa.Table) -> pa.Table:
        import hashlib
        h = [hashlib.md5(str(d).encode()).hexdigest()
             for d in b.column("doc_id").to_pylist()]
        return b.append_column("h", pa.array(h, pa.string()))

    ranked = global_rank(ds.map_batches(add_hash, batch_format="pyarrow"),
                         ["h", "doc_id"], out_col="shuffle_pos")
    return ranked.select_columns(["doc_id", "shuffle_pos"])


SQL_DOCS_DETERMINISTIC_SHUFFLE = """
SELECT doc_id,
       row_number() OVER (ORDER BY md5(doc_id::VARCHAR), doc_id)
           AS shuffle_pos
FROM documents
"""


BPE_TOP_PAIRS = 10


def docs_bpe_pairs(sf_dir):
    """Top-10 most frequent adjacent token pairs — the first merge-candidate
    scan of BPE vocabulary induction, map-side combined before one small
    groupby (the same shape as docs_word_freq)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = t.split()
            c.update(" ".join(p) for p in zip(toks, toks[1:]))
        return pa.table({"pair": pa.array(list(c.keys()), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    totals = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("pair").aggregate(Sum("cnt", alias_name="cnt")))
    top = totals.sort(["cnt", "pair"], descending=[True, False]) \
        .limit(BPE_TOP_PAIRS)
    return top


SQL_DOCS_BPE_PAIRS = f"""
WITH toks AS (
  SELECT CASE WHEN trim(text)='' THEN []::VARCHAR[]
         ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks
  FROM documents),
pairs AS (
  SELECT unnest(list_transform(range(1, length(toks)),
         i -> toks[i] || ' ' || toks[i+1])) AS pair
  FROM toks WHERE length(toks) >= 2)
SELECT pair, count(*)::BIGINT AS cnt FROM pairs
GROUP BY pair ORDER BY cnt DESC, pair LIMIT {BPE_TOP_PAIRS}
"""


PMI_MIN_COUNT = 3
PMI_TOP = 20


def docs_pmi_collocations(sf_dir):
    """Top collocations by pointwise mutual information: one tagged
    corpus pass emits map-side partial counts for unigrams AND adjacent
    bigrams (a single shuffle totals both), the vocabulary-sized unigram
    table broadcasts into the PMI scoring of the bigram rows, and a tiny
    sort+limit finishes. Ranked on the 6-decimal-rounded PMI with pair
    tie-break — value-identical to the SQL replay."""
    from collections import Counter

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        uni: Counter = Counter()
        bi: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = t.split()
            uni.update(toks)
            bi.update(" ".join(p) for p in zip(toks, toks[1:]))
        keys = ["u:" + w for w in uni] + ["b:" + p for p in bi]
        cnts = list(uni.values()) + list(bi.values())
        return pa.table({"key": pa.array(keys, pa.string()),
                         "cnt": pa.array(cnts, pa.int64())})

    import ray

    totals = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("key").aggregate(Sum("cnt", alias_name="cnt"))
              .materialize())

    # unigram slice (vocabulary-sized) + the two totals reach the driver
    # and broadcast; the bigram rows — the big side at web scale — stay
    # distributed for scoring and the final tiny sort+limit
    uni_pdf = (totals.filter(
        lambda r: r["key"].startswith("u:")).to_pandas())
    uni_cnt = dict(zip(uni_pdf["key"].str[2:], uni_pdf["cnt"]))
    T = float(uni_pdf["cnt"].sum())
    B = float(totals.filter(
        lambda r: r["key"].startswith("b:")).sum("cnt"))
    ref = ray.put((uni_cnt, T, B))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        uc, t, btot = ray.get(ref)
        df = df[df["key"].str.startswith("b:")
                & (df["cnt"] >= PMI_MIN_COUNT)].copy()
        if not len(df):
            return pd.DataFrame({"pair": pd.Series([], dtype="object"),
                                 "cnt": pd.Series([], dtype="int64"),
                                 "pmi": pd.Series([], dtype="float64")})
        df["pair"] = df["key"].str[2:]
        a = df["pair"].str.split(" ").str[0].map(uc).astype(float)
        b = df["pair"].str.split(" ").str[1].map(uc).astype(float)
        cab = df["cnt"].astype(float)
        df["pmi"] = sql_round(np.log((cab / btot) / ((a / t) * (b / t))), 6)
        df["cnt"] = df["cnt"].astype("int64")
        return df[["pair", "cnt", "pmi"]]

    return (totals.map_batches(score, batch_format="pandas")
            .sort(["pmi", "pair"], descending=[True, False])
            .limit(PMI_TOP))


SQL_DOCS_PMI_COLLOCATIONS = f"""
WITH toks AS (
  SELECT CASE WHEN trim(text)='' THEN []::VARCHAR[]
         ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks
  FROM documents),
uni AS (SELECT unnest(toks) AS tok FROM toks),
ucnt AS (SELECT tok, count(*)::BIGINT AS c FROM uni GROUP BY tok),
tt AS (SELECT count(*)::DOUBLE AS t FROM uni),
pairs AS (
  SELECT unnest(list_transform(range(1, length(toks)),
         i -> toks[i] || ' ' || toks[i+1])) AS pair
  FROM toks WHERE length(toks) >= 2),
bcnt AS (SELECT pair, count(*)::BIGINT AS cnt FROM pairs GROUP BY pair),
bt AS (SELECT count(*)::DOUBLE AS b FROM pairs)
SELECT pair, cnt,
       round(ln((cnt::DOUBLE / (SELECT b FROM bt))
                / ((ca.c::DOUBLE / (SELECT t FROM tt))
                   * (cb.c::DOUBLE / (SELECT t FROM tt)))), 6) AS pmi
FROM bcnt
JOIN ucnt ca ON ca.tok = split(pair, ' ')[1]
JOIN ucnt cb ON cb.tok = split(pair, ' ')[2]
WHERE cnt >= {PMI_MIN_COUNT}
ORDER BY pmi DESC, pair LIMIT {PMI_TOP}
"""


DECONTAM_K = 3
DECONTAM_EVAL_MOD = 97


def docs_decontaminate(sf_dir):
    """Eval-set n-gram decontamination: the corpus docs that share NO word
    3-gram with the held-out eval slice (doc_id ≡ 0 mod 97). Zero corpus
    shuffle — the eval shingle-hash set broadcasts once."""
    from ..functions.dedup import decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(want_eval):
        def fn(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % DECONTAM_EVAL_MOD) == 0
            return b.filter(pa.array(m if want_eval else ~m))
        return fn

    ev = docs.map_batches(split(True), batch_format="pyarrow")
    corpus = docs.map_batches(split(False), batch_format="pyarrow")
    clean = decontaminate(corpus, ev, k=DECONTAM_K)
    return clean.select_columns(["doc_id"])


SQL_DOCS_DECONTAMINATE = f"""
WITH toks AS (
  SELECT doc_id,
    CASE WHEN trim(text)='' THEN []::VARCHAR[]
         ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks
  FROM documents),
grams AS (
  SELECT doc_id, unnest(
    CASE WHEN length(toks) = 0 THEN ['']
         WHEN length(toks) < {DECONTAM_K} THEN [array_to_string(toks, ' ')]
         ELSE list_transform(range(1, length(toks)-1),
              i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) END) AS g
  FROM toks),
ev AS (SELECT DISTINCT g FROM grams WHERE doc_id % {DECONTAM_EVAL_MOD} = 0),
hits AS (SELECT DISTINCT doc_id FROM grams JOIN ev USING (g)
         WHERE doc_id % {DECONTAM_EVAL_MOD} <> 0)
SELECT doc_id FROM documents
WHERE doc_id % {DECONTAM_EVAL_MOD} <> 0
  AND doc_id NOT IN (SELECT doc_id FROM hits)
"""


DUPSPAN_K = 8


def docs_duplicated_spans(sf_dir):
    """Cross-document duplicated k-gram spans (exact-substring dedup
    primitive): per doc, how many of its k-gram positions also occur in
    another document. Pass 1 aggregates shingle document-frequency and
    keeps only df>=2 hashes inside the shuffle buckets; pass 2 broadcasts
    the dup set and counts membership vectorized."""
    from ..functions.dedup import duplicated_spans

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return duplicated_spans(ds, k=DUPSPAN_K,
                            rows_hint=128 * _nrows(sf_dir, "documents"))


SQL_DOCS_DUPLICATED_SPANS = rf"""
WITH toks AS (
  SELECT doc_id,
    CASE WHEN trim(text)='' THEN []::VARCHAR[]
         ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
pos AS (
  SELECT doc_id, unnest(range(1, length(toks) - {DUPSPAN_K} + 2)) AS i,
         toks
  FROM toks WHERE length(toks) >= {DUPSPAN_K}),
g2 AS (SELECT doc_id,
              array_to_string(toks[i:i + {DUPSPAN_K} - 1], ' ') AS g
       FROM pos),
dup AS (SELECT g FROM (
          SELECT g, count(DISTINCT doc_id) AS df FROM g2 GROUP BY g)
        WHERE df >= 2),
agg AS (SELECT doc_id, count(*)::BIGINT AS n_spans,
               count(CASE WHEN d.g IS NOT NULL THEN 1 END)::BIGINT
                 AS n_dup_spans
        FROM g2 LEFT JOIN dup d USING (g) GROUP BY doc_id)
SELECT dd.doc_id, COALESCE(a.n_spans, 0)::BIGINT AS n_spans,
       COALESCE(a.n_dup_spans, 0)::BIGINT AS n_dup_spans
FROM documents dd LEFT JOIN agg a USING (doc_id)
"""


PARA_W = 10
TEMP_ALPHA = 0.3
CHUNK_SIZE, CHUNK_STRIDE = 32, 24


def docs_paragraph_dedup(sf_dir):
    """CCNet-style duplicated-paragraph removal with reassembly: cut each
    doc into non-overlapping 10-word segments, drop every segment whose
    exact text occurs >= 2 times corpus-wide, rejoin survivors in order.
    Two passes, corpus never shuffled: bucketed segment-count aggregate
    (only dup hashes leave the buckets), then a broadcast membership
    rebuild pass."""
    from ..functions.dedup import paragraph_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return paragraph_dedup(ds, w=PARA_W,
                           rows_hint=16 * _nrows(sf_dir, "documents"))


SQL_DOCS_PARAGRAPH_DEDUP = rf"""
WITH toks AS (
  SELECT doc_id,
    CASE WHEN trim(text)='' THEN []::VARCHAR[]
         ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
seg AS (
  SELECT doc_id,
         unnest(range((length(toks) + {PARA_W} - 1) // {PARA_W})) AS i,
         toks
  FROM toks WHERE length(toks) > 0),
units AS (
  SELECT doc_id, i,
         array_to_string(toks[i*{PARA_W}+1 : i*{PARA_W}+{PARA_W}], ' ') AS u
  FROM seg),
flagged AS (
  SELECT doc_id, i, u, count(*) OVER (PARTITION BY u) AS df FROM units),
agg AS (
  SELECT doc_id,
         coalesce(string_agg(u, ' ' ORDER BY i) FILTER (WHERE df < 2),
                  '') AS clean_text,
         count(*)::BIGINT AS n_units,
         (count(*) FILTER (WHERE df >= 2))::BIGINT AS n_removed
  FROM flagged GROUP BY doc_id)
SELECT d.doc_id, coalesce(a.clean_text, '') AS clean_text,
       coalesce(a.n_units, 0)::BIGINT AS n_units,
       coalesce(a.n_removed, 0)::BIGINT AS n_removed
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def docs_minhash_dedup(sf_dir):
    from ..functions.dedup import minhash_duplicate_groups
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_duplicate_groups(ds)


def _sql_minhash_ctes() -> str:
    """Shared CTE chain replaying MinHash+LSH banding in SQL: the seeded
    affine permutation params are embedded as literals, the shingle hash
    is the md5-derived uint64 (dedup.shingle_hashes), and the
    uint64-wrapping affine transform is replicated in HUGEINT arithmetic.
    Band buckets group by the 4-value signature tuple — identical
    partitioning to the engine's blake2b band digest (collision-free on
    realistic inputs)."""
    from ..functions.dedup import _minhash_params

    a, b = _minhash_params(64)
    A = "[" + ",".join(str(int(x)) for x in a) + "]::UBIGINT[]"
    B = "[" + ",".join(str(int(x)) for x in b) + "]::UBIGINT[]"
    return rf"""t AS (SELECT doc_id,
  CASE WHEN trim(text)='' THEN []::VARCHAR[]
       ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
grams AS (
  SELECT doc_id, unnest(
    CASE WHEN length(toks) < 3 THEN [array_to_string(toks, ' ')]
    ELSE list_distinct(list_transform(range(1, length(toks)-1),
         i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) END) AS g
  FROM t),
sh AS (SELECT DISTINCT doc_id,
        ('0x' || substr(md5(g), 1, 16))::UBIGINT AS h FROM grams),
params AS (SELECT unnest(range(64)) AS perm, unnest({A}) AS a, unnest({B}) AS b),
sig AS (
  SELECT doc_id, perm,
    MIN((((h::HUGEINT * a::HUGEINT) % 18446744073709551616 + b)
        % 18446744073709551616) % 2305843009213693951) AS v
  FROM sh CROSS JOIN params
  GROUP BY doc_id, perm),
bands AS (
  SELECT doc_id, perm // 4 AS band_id,
    string_agg(v::VARCHAR, ',' ORDER BY perm) AS bkey
  FROM sig GROUP BY doc_id, perm // 4),
buckets AS (
  SELECT band_id, bkey, min(doc_id) AS root, count(*) AS n
  FROM bands GROUP BY band_id, bkey)"""


SQL_DOCS_MINHASH_DEDUP = "WITH " + _sql_minhash_ctes() + """
SELECT bd.doc_id, min(k.root)::BIGINT AS dup_group
FROM bands bd JOIN buckets k USING (band_id, bkey)
WHERE k.n >= 2
GROUP BY bd.doc_id
"""


LSH_EVAL_T_NUM, LSH_EVAL_T_DEN = 1, 2   # shingle-Jaccard threshold 1/2


def docs_lsh_recall_eval(sf_dir):
    """'Measure, don't guess' for the near-dedup stack: EXACT recall and
    precision of the MinHash-LSH candidate stage against ground-truth
    3-shingle Jaccard ≥ 1/2 pairs. Truth pairs come from a
    shingle-membership bucket join (intersection counts per pair, then
    the integer cross-multiplied threshold test — no float compare);
    candidates are the distinct band-bucket pairs
    (dedup.lsh_candidate_pairs); both streams meet in ONE tagged-union
    bucketed pass that folds to three counters. Scale note: the truth
    join's pair volume is Σ df(shingle)² — exact audits run corpus-wide
    here and on a stratified sample at 100 TB (the LSH side stays
    linear)."""
    from ..functions.dedup import lsh_candidate_pairs, shingle_hashes
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = _nrows(sf_dir, "documents")

    def memb(batch: pa.Table) -> pd.DataFrame:
        hs_all, d_all, n_all = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            hs = np.unique(shingle_hashes(t, 3)).astype(np.uint64) \
                .view(np.int64)
            hs_all.append(hs)
            d_all.append(np.full(len(hs), d, np.int64))
            n_all.append(np.full(len(hs), len(hs), np.int64))
        if not hs_all:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("h", "doc", "n")})
        return pd.DataFrame({"h": np.concatenate(hs_all),
                             "doc": np.concatenate(d_all),
                             "n": np.concatenate(n_all)})

    m = ds.map_batches(memb, batch_format="pyarrow")

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        mm = g.merge(g, on="h", suffixes=("_a", "_b"))
        mm = mm[mm["doc_a"] < mm["doc_b"]]
        return (mm.groupby(["doc_a", "doc_b", "n_a", "n_b"], sort=False)
                .size().reset_index(name="c"))

    pp = hash_bucket_aggregate(m, ["h"], pair_partial,
                               rows_hint=8 * n_docs)

    def pair_sum(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["doc_a", "doc_b", "n_a", "n_b"], as_index=False)
               ["c"].sum())
        keep = (out["c"] * LSH_EVAL_T_DEN
                >= (out["n_a"] + out["n_b"] - out["c"]) * LSH_EVAL_T_NUM)
        out = out[keep]
        return pd.DataFrame({"a": out["doc_a"].to_numpy(np.int64),
                             "b": out["doc_b"].to_numpy(np.int64)})

    truth = hash_bucket_aggregate(pp, ["doc_a", "doc_b"], pair_sum,
                                  rows_hint=4 * n_docs)
    cand = lsh_candidate_pairs(ds, rows_hint=16 * n_docs)

    def tag(is_cand: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "a": df["a"].to_numpy(np.int64) if len(df) else
                np.empty(0, np.int64),
                "b": df["b"].to_numpy(np.int64) if len(df) else
                np.empty(0, np.int64),
                "ist": np.full(len(df), 1 - is_cand, np.int64),
                "isc": np.full(len(df), is_cand, np.int64)})
        return f

    union = truth.map_batches(tag(0), batch_format="pandas").union(
        cand.map_batches(tag(1), batch_format="pandas"))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby(["a", "b"], as_index=False).agg(
            ist=("ist", "max"), isc=("isc", "max"))
        return pd.DataFrame({
            "n_true": [int(f["ist"].sum())],
            "n_cand": [int(f["isc"].sum())],
            "n_hit": [int(((f["ist"] == 1) & (f["isc"] == 1)).sum())]})

    parts = hash_bucket_aggregate(union, ["a", "b"], fold,
                                  rows_hint=4 * n_docs).to_pandas()
    n_true = int(parts["n_true"].sum())
    n_cand = int(parts["n_cand"].sum())
    n_hit = int(parts["n_hit"].sum())
    return pd.DataFrame({
        "n_true": np.array([n_true], np.int64),
        "n_cand": np.array([n_cand], np.int64),
        "n_hit": np.array([n_hit], np.int64),
        "recall_micro": np.array(
            [10 ** 6 * n_hit // n_true if n_true else 0], np.int64),
        "precision_micro": np.array(
            [10 ** 6 * n_hit // n_cand if n_cand else 0], np.int64)})


def docs_dedup_clusters(sf_dir):
    """TRANSITIVE near-dedup clustering (the Gopher/RefinedWeb production
    shape): MinHash band buckets → doc↔bucket star edges → distributed
    connected components → per-cluster canonical keeper. Unlike
    ``docs_minhash_dedup`` (one-hop per-bucket min), chains of buckets
    resolve to ONE cluster; every doc gets a row (singletons keep
    themselves). Oracle replays the closure with a recursive CTE."""
    from ..functions.dedup import minhash_dedup_clusters

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_dedup_clusters(ds,
                                  rows_hint=16 * _nrows(sf_dir,
                                                        "documents"))


SQL_DOCS_LSH_RECALL_EVAL = "WITH " + _sql_minhash_ctes() + f""",
nsh AS (SELECT doc_id, count(*)::BIGINT AS n FROM sh GROUP BY doc_id),
isect AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*)::BIGINT AS c
          FROM sh x JOIN sh y ON x.h = y.h AND x.doc_id < y.doc_id
          GROUP BY 1, 2),
truth AS (SELECT i.a, i.b FROM isect i
          JOIN nsh na ON na.doc_id = i.a
          JOIN nsh nb ON nb.doc_id = i.b
          WHERE i.c * {LSH_EVAL_T_DEN}
                >= (na.n + nb.n - i.c) * {LSH_EVAL_T_NUM}),
cand AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
         FROM bands x JOIN bands y USING (band_id, bkey)
         WHERE x.doc_id < y.doc_id),
hit AS (SELECT a, b FROM truth INTERSECT SELECT a, b FROM cand),
s AS (SELECT (SELECT count(*) FROM truth)::BIGINT AS n_true,
             (SELECT count(*) FROM cand)::BIGINT AS n_cand,
             (SELECT count(*) FROM hit)::BIGINT AS n_hit)
SELECT n_true, n_cand, n_hit,
  (CASE WHEN n_true = 0 THEN 0
        ELSE 1000000 * n_hit // n_true END)::BIGINT AS recall_micro,
  (CASE WHEN n_cand = 0 THEN 0
        ELSE 1000000 * n_hit // n_cand END)::BIGINT AS precision_micro
FROM s
"""


def docs_split_leakage(sf_dir):
    """Cross-split contamination audit: near-duplicate pairs (MinHash-
    LSH candidates, `dedup.lsh_candidate_pairs`) that STRADDLE the
    deterministic train/test hash split — the leakage a benchmark-clean
    training set must not have (train doc ~ test doc inflates eval).
    Emits one row per contaminated test doc with its train-partner
    count and the smallest offending train doc (the decontamination
    work-list). Scale shape: the candidate stream is the linear banded
    LSH pass, the split flag is RE-DERIVED row-locally from each pair
    endpoint's md5 draw (`packing.split_draws` — no join against a
    split table), and the per-test-doc fold is one bucketed aggregate
    over cross pairs only."""
    from ..functions.dedup import lsh_candidate_pairs
    from ..functions.packing import split_cut, split_draws
    from ..functions.relational import hash_bucket_aggregate

    n = _nrows(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cand = lsh_candidate_pairs(ds, rows_hint=16 * n)
    cut = split_cut(SPLIT_TRAIN_FRAC)

    def cross_pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"test_doc": pd.Series([], dtype="int64"),
                "train_doc": pd.Series([], dtype="int64")}
        if not len(df):
            return pd.DataFrame(cols)
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        tra = split_draws(a) < cut
        trb = split_draws(b) < cut
        keep = tra != trb
        return pd.DataFrame({
            "test_doc": np.where(tra, b, a)[keep],
            "train_doc": np.where(tra, a, b)[keep]})

    x = cand.map_batches(cross_pairs, batch_format="pandas")

    def per_test(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("test_doc", as_index=False).agg(
            n_train_partners=("train_doc", "size"),
            min_train_partner=("train_doc", "min"))
        return out.astype({"test_doc": np.int64,
                           "n_train_partners": np.int64,
                           "min_train_partner": np.int64})

    return hash_bucket_aggregate(x, ["test_doc"], per_test, rows_hint=n)


SQL_DOCS_SPLIT_LEAKAGE = "WITH " + _sql_minhash_ctes() + f""",
cand AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
         FROM bands x JOIN bands y USING (band_id, bkey)
         WHERE x.doc_id < y.doc_id),
s AS (SELECT doc_id,
        ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
          < {int(SPLIT_TRAIN_FRAC * 4294967296)} AS is_train
      FROM documents),
x AS (SELECT CASE WHEN sa.is_train THEN c.b ELSE c.a END AS test_doc,
             CASE WHEN sa.is_train THEN c.a ELSE c.b END AS train_doc
      FROM cand c JOIN s sa ON sa.doc_id = c.a
                  JOIN s sb ON sb.doc_id = c.b
      WHERE sa.is_train <> sb.is_train)
SELECT test_doc::BIGINT AS test_doc,
       count(*)::BIGINT AS n_train_partners,
       min(train_doc)::BIGINT AS min_train_partner
FROM x GROUP BY test_doc
"""


SQL_DOCS_DEDUP_CLUSTERS = "WITH RECURSIVE " + _sql_minhash_ctes() + """,
memb AS (
  SELECT bd.doc_id, bd.band_id::VARCHAR || '|' || bd.bkey AS bucket
  FROM bands bd JOIN buckets k USING (band_id, bkey) WHERE k.n >= 2),
lbl AS (
  SELECT doc_id, doc_id AS comp FROM documents
  UNION
  SELECT m2.doc_id, l.comp
  FROM lbl l JOIN memb m1 ON m1.doc_id = l.doc_id
             JOIN memb m2 ON m2.bucket = m1.bucket)
SELECT doc_id, min(comp)::BIGINT AS cluster, doc_id = min(comp) AS keep
FROM lbl GROUP BY doc_id
"""


def docs_dedup_cluster_eval(sf_dir):
    """Extrinsic dedup-clustering evaluation: the MinHash-LSH transitive
    clusters (prediction) scored against exact normalized-text duplicate
    groups (reference) with PAIRWISE precision/recall/F1, Rand index and
    Adjusted Rand — the QA gate a production near-dedup pass runs on a
    sample before shipping a new banding config. All metrics derive from
    three exact pair counts (same-cluster-in-both, predicted-same,
    truth-same), reported as micro-units plus the ARI as an exact
    integer fraction (ari_num/ari_den — ARI can be negative, so no
    floor-div is taken).

    Scale shape: both clusterings are the existing bucketed pipelines;
    ONE doc_id-bucketed shuffle join aligns them, the contingency table
    (≤ n_docs rows) aggregates bucketed, and the three pair sums fold
    from per-block integer partials with Python ints on the driver (the
    C(n,2) cross terms exceed int64 only at >3e9 docs — HUGEINT in the
    oracle, arbitrary-precision ints here)."""
    import re

    from ..functions.dedup import minhash_dedup_clusters
    from ..functions.relational import hash_bucket_aggregate, shuffle_join

    n = _nrows(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"],
               rows_per_block=32768)
    pred = minhash_dedup_clusters(ds, rows_hint=16 * n)

    ws = re.compile(r"\s+")

    def norm(batch: pa.Table) -> pa.Table:
        texts = [ws.sub(" ", t.lower()).strip()
                 for t in batch.column("text").to_pylist()]
        return pa.table({"norm_text": pa.array(texts, pa.string()),
                         "doc_id": batch.column("doc_id")})

    def assign_truth(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": g["doc_id"],
            "tgrp": g.groupby("norm_text")["doc_id"].transform("min")})

    truth = hash_bucket_aggregate(
        ds.map_batches(norm, batch_format="pyarrow"),
        ["norm_text"], assign_truth, rows_hint=n)

    j = shuffle_join(pred, truth, "doc_id", "doc_id",
                     ["cluster"], ["tgrp"], rows_hint=n)
    ct = hash_bucket_aggregate(
        j, ["cluster", "tgrp"],
        lambda g: g.groupby(["cluster", "tgrp"], as_index=False)
                   .size().rename(columns={"size": "n"}),
        rows_hint=n)

    def pairs_of(counts: pd.Series) -> int:
        v = counts.to_numpy(np.int64)
        return int((v * (v - 1) // 2).sum())

    def tp_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"tp": [pairs_of(b["n"])]})

    def marginal(key: str):
        m = hash_bucket_aggregate(
            ct, [key],
            lambda g, k=key: g.groupby(k, as_index=False)["n"].sum(),
            rows_hint=n)
        return int(m.map_batches(
            lambda b: pd.DataFrame({"p": [pairs_of(b["n"])]}),
            batch_format="pandas").to_pandas()["p"].sum())

    tp = int(ct.map_batches(tp_partial, batch_format="pandas")
               .to_pandas()["tp"].sum())
    pp, tq = marginal("cluster"), marginal("tgrp")
    total = n * (n - 1) // 2
    ari_num = 2 * (total * tp - pp * tq)
    ari_den = total * (pp + tq) - 2 * pp * tq
    if ari_den == 0:
        ari_num, ari_den = 0, 1
    out = pd.DataFrame([{
        "n_docs": n, "tp_pairs": tp, "pred_pairs": pp, "true_pairs": tq,
        "precision_micro": (10 ** 6 * tp // pp) if pp else 0,
        "recall_micro": (10 ** 6 * tp // tq) if tq else 0,
        "f1_micro": (2 * 10 ** 6 * tp // (pp + tq)) if pp + tq else 0,
        "rand_micro": (10 ** 6 * (total - pp - tq + 2 * tp) // total)
                      if total else 0,
        "ari_num": ari_num, "ari_den": ari_den}])
    return out.astype({c: np.int64 for c in out.columns})


SQL_DOCS_DEDUP_CLUSTER_EVAL = rf"""
WITH pred AS MATERIALIZED (
  SELECT doc_id, cluster FROM ({{clusters_sql}})),
tr AS MATERIALIZED (
  SELECT doc_id,
         min(doc_id) OVER (PARTITION BY
           trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS tgrp
  FROM documents),
ct AS MATERIALIZED (
  SELECT p.cluster, t.tgrp, count(*)::HUGEINT AS n
  FROM pred p JOIN tr t USING (doc_id) GROUP BY 1, 2),
s AS (SELECT
  (SELECT count(*) FROM documents)::HUGEINT AS n_docs,
  (SELECT COALESCE(sum(n * (n - 1) // 2), 0) FROM ct)::HUGEINT AS tp,
  (SELECT COALESCE(sum(a * (a - 1) // 2), 0)
     FROM (SELECT sum(n) AS a FROM ct GROUP BY cluster))::HUGEINT AS pp,
  (SELECT COALESCE(sum(b * (b - 1) // 2), 0)
     FROM (SELECT sum(n) AS b FROM ct GROUP BY tgrp))::HUGEINT AS tq),
f AS (SELECT *, n_docs * (n_docs - 1) // 2 AS total FROM s)
SELECT n_docs::BIGINT AS n_docs, tp::BIGINT AS tp_pairs,
  pp::BIGINT AS pred_pairs, tq::BIGINT AS true_pairs,
  (CASE WHEN pp = 0 THEN 0 ELSE 1000000 * tp // pp END)
      ::BIGINT AS precision_micro,
  (CASE WHEN tq = 0 THEN 0 ELSE 1000000 * tp // tq END)
      ::BIGINT AS recall_micro,
  (CASE WHEN pp + tq = 0 THEN 0
        ELSE 2000000 * tp // (pp + tq) END)::BIGINT AS f1_micro,
  (CASE WHEN total = 0 THEN 0
        ELSE 1000000 * (total - pp - tq + 2 * tp) // total END)
      ::BIGINT AS rand_micro,
  (CASE WHEN total * (pp + tq) - 2 * pp * tq = 0 THEN 0
        ELSE 2 * (total * tp - pp * tq) END)::BIGINT AS ari_num,
  (CASE WHEN total * (pp + tq) - 2 * pp * tq = 0 THEN 1
        ELSE total * (pp + tq) - 2 * pp * tq END)::BIGINT AS ari_den
FROM f
"""


def docs_simhash(sf_dir):
    from ..functions.dedup import SimHashStage

    def hexify(batch: pa.Table) -> pa.Table:
        # hex string + int64 bands: engine-neutral types for the oracle hash
        sh = batch.column("simhash").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "simhash_hex": pa.array([format(int(v), "016x") for v in sh]),
            "band0": batch.column("band0").cast(pa.int64()),
            "band1": batch.column("band1").cast(pa.int64()),
            "band2": batch.column("band2").cast(pa.int64()),
            "band3": batch.column("band3").cast(pa.int64()),
        })

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(SimHashStage(), batch_format="pyarrow")
            .map_batches(hexify, batch_format="pyarrow"))


# Word hash = first 8 md5 bytes (dedup._word_hash64) so both engines agree;
# bit i majority over ±1 votes, ties → 0 (strictly-positive test in both).
_SIMHASH_SIG_CTE = r"""
WITH words AS (
  SELECT doc_id, w FROM (
    SELECT doc_id, unnest(regexp_split_to_array(text, '\s+')) AS w
    FROM documents)
  WHERE w <> ''
),
hashed AS (
  SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT AS h FROM words
),
bits AS (
  SELECT doc_id, i,
    SUM(CASE WHEN (h >> i) & 1 = 1 THEN 1 ELSE -1 END) AS acc
  FROM hashed, range(64) t(i)
  GROUP BY doc_id, i
),
sig AS (
  SELECT doc_id,
    COALESCE(SUM(CASE WHEN acc > 0 THEN (1::UBIGINT << i)
                      ELSE 0::UBIGINT END), 0)::UBIGINT AS simhash
  FROM bits GROUP BY doc_id
)"""

SQL_DOCS_SIMHASH = _SIMHASH_SIG_CTE + r""",
full_sig AS (
  SELECT d.doc_id, COALESCE(s.simhash, 0::UBIGINT) AS simhash
  FROM documents d LEFT JOIN sig s USING (doc_id)
)
SELECT doc_id,
  lpad(lower(to_hex(simhash)), 16, '0') AS simhash_hex,
  ((simhash >> 0)  & 65535)::BIGINT AS band0,
  ((simhash >> 16) & 65535)::BIGINT AS band1,
  ((simhash >> 32) & 65535)::BIGINT AS band2,
  ((simhash >> 48) & 65535)::BIGINT AS band3
FROM full_sig
"""


SIMHASH_MAX_HAMMING = 3


def docs_simhash_dedup(sf_dir):
    """SimHash near-dup pairs: 4 × 16-bit band tables → exact band match
    → popcount(xor) ≤ 3 verify (lossless by pigeonhole at this radius).
    One bucketed shuffle for candidates + one for the pair distinct; the
    in-bucket pair expansion is the only quadratic term and it is bounded
    per band value (see ``dedup.simhash_dedup_pairs``)."""
    from ..functions.dedup import simhash_dedup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_dedup_pairs(ds, max_hamming=SIMHASH_MAX_HAMMING,
                               rows_hint=4 * _nrows(sf_dir, "documents"))


SQL_DOCS_SIMHASH_DEDUP = _SIMHASH_SIG_CTE + rf""",
nz AS (SELECT doc_id, simhash FROM sig WHERE simhash <> 0),
bands AS (
  SELECT doc_id, simhash, i AS band_id,
         ((simhash >> (16 * i)) & 65535)::BIGINT AS band_val
  FROM nz, range(4) t(i)
)
SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
       bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
FROM bands a JOIN bands b USING (band_id, band_val)
WHERE a.doc_id < b.doc_id
  AND bit_count(xor(a.simhash, b.simhash)) <= {SIMHASH_MAX_HAMMING}
"""


def docs_repetition(sf_dir):
    """Gopher-style repetition signal: 1 - distinct/total 3-shingles
    (0 = no repeated shingles; high values flag boilerplate/spam)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    from ..functions.textstats import repetition_ratio

    def rep(batch: pa.Table) -> pa.Table:
        out = [float(sql_round(repetition_ratio(t.split()), 6))
               for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "repetition": pa.array(out, pa.float64())})

    return ds.map_batches(rep, batch_format="pyarrow")


# split-then-filter (not trim) so leading/trailing tabs/newlines match
# Python str.split() on this ASCII corpus
SQL_DOCS_REPETITION = r"""
WITH t AS (SELECT doc_id,
  list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS toks
  FROM documents)
SELECT doc_id,
  CASE WHEN length(toks) < 3 THEN 0.0
       ELSE round(1.0 - length(list_distinct(
              list_transform(range(1, length(toks)-1),
                i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])))
            / (length(toks) - 2)::DOUBLE, 6) END AS repetition
FROM t
"""


def docs_langid_heuristic(sf_dir):
    from ..functions.textstats import lang_id_batch
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lang_id_batch, batch_format="pyarrow")


# exact mirror of textstats._LANG_MARKERS + the first-wins argmax tie-break
# (en beats later profiles on ties; later profiles need strictly greater)
SQL_DOCS_LANGID = r"""
WITH t AS (
  SELECT doc_id,
    CASE WHEN trim(text)='' THEN []::VARCHAR[]
         ELSE list_transform(regexp_split_to_array(trim(text), '\s+'),
                             w -> lower(w)) END AS toks
  FROM documents),
s AS (
  SELECT doc_id,
    length(list_filter(toks, w -> w IN ('the','a','of','and','in','to','is','was')))
      / greatest(length(toks),1)::DOUBLE AS s_en,
    length(list_filter(toks, w -> w IN ('der','die','das','und','ist','ein','nicht','mit')))
      / greatest(length(toks),1)::DOUBLE AS s_de,
    length(list_filter(toks, w -> w IN ('el','la','de','y','es','un','una','que')))
      / greatest(length(toks),1)::DOUBLE AS s_es,
    length(list_filter(toks, w -> w IN ('le','la','et','est','un','une','que','pour')))
      / greatest(length(toks),1)::DOUBLE AS s_fr
  FROM t)
SELECT doc_id,
  CASE WHEN s_en > 0 AND s_en >= s_de AND s_en >= s_es AND s_en >= s_fr THEN 'en'
       WHEN s_de > 0 AND s_de > s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de'
       WHEN s_es > 0 AND s_es > s_en AND s_es > s_de AND s_es >= s_fr THEN 'es'
       WHEN s_fr > 0 AND s_fr > s_en AND s_fr > s_de AND s_fr > s_es THEN 'fr'
       ELSE 'und' END AS pred_lang,
  round(greatest(s_en, s_de, s_es, s_fr), 6) AS confidence
FROM s
"""


def docs_rolling_fingerprint(sf_dir):
    from ..functions.textstats import fingerprint_batch
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "rolling_hash"])


# Rabin-Karp over bytes, base 257 mod 2^61-1. The oracle folds over code
# points, which equals the engine's byte fold on this ASCII corpus (the
# engine itself handles arbitrary UTF-8).
SQL_DOCS_ROLLING_FINGERPRINT = r"""
SELECT doc_id,
  CASE WHEN text = '' THEN 0::UBIGINT
  ELSE list_reduce(
    list_prepend(0::HUGEINT,
      list_transform(split(text, ''), c -> unicode(c)::HUGEINT)),
    (a, b) -> (a * 257 + b) % 2305843009213693951
  )::UBIGINT END AS rolling_hash
FROM documents
"""


def knn_lsh_query(sf_dir):
    from ..functions.similarity import knn_lsh

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qmat = _query_vectors(sf_dir)
    return knn_lsh(emb, qids, qmat, k=KNN_K)


def knn_ivf_query(sf_dir):
    """IVF-bucketed ANN: coarse k-means cells, probe nprobe nearest cells
    per query (the scale path when one brute-force matmul pass over the
    corpus is too expensive)."""
    from ..functions.similarity import knn_ivf

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qmat = _query_vectors(sf_dir)
    return knn_ivf(emb, qids, qmat, k=KNN_K)


def knn_pq_query(sf_dir):
    """Product-quantization ANN (ADC): data vectors compressed to m=16
    one-byte codes, queries score via lookup-table gathers — the
    memory-bound scale path when even one float matmul pass per query
    batch is too expensive (codes are 16 B/vector vs 256 B float32)."""
    from ..functions.similarity import knn_pq

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qmat = _query_vectors(sf_dir)
    return knn_pq(emb, qids, qmat, k=KNN_K, m=16, ksub=32)


def knn_ann_recall_eval(sf_dir):
    """Recall@k audit of every ANN path (hyperplane-LSH, IVF, PQ-ADC)
    against the brute-force cosine truth — the 'measure, don't guess'
    gate before trusting an approximate index at scale. Each path runs
    its own distributed search (the heavy part); the per-query top-k
    lists are queries×k-sized, so the overlap fold is driver-local by
    construction. All counts exact ints → full-table pin (pins.py)."""
    truth = knn_cosine(sf_dir)
    tset = set(zip(truth["query_id"].tolist(),
                   truth["neighbor_id"].tolist()))
    n_true = len(truth)
    n_queries = truth["query_id"].nunique()
    rows = []
    for name, fn in (("lsh", knn_lsh_query), ("ivf", knn_ivf_query),
                     ("pq", knn_pq_query)):
        got = fn(sf_dir)
        got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
        hits = sum((q, n) in tset
                   for q, n in zip(got["query_id"].tolist(),
                                   got["neighbor_id"].tolist()))
        rows.append((name, int(n_queries), KNN_K, int(hits),
                     10 ** 6 * hits // n_true if n_true else 0))
    return pd.DataFrame(rows, columns=["method", "n_queries", "k",
                                       "n_hit", "recall_micro"]) \
        .astype({"n_queries": np.int64, "k": np.int64,
                 "n_hit": np.int64, "recall_micro": np.int64})


def embedding_near_dups(sf_dir):
    # threshold/planes tuned so the synthetic corpus (near-orthogonal
    # random embeddings, closest pairs ~0.5 cosine) yields a non-trivial
    # verified group set; real near-dup corpora would run ~0.95 thresholds
    from ..functions.dedup import embedding_dup_groups
    return embedding_dup_groups(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        threshold=0.45, n_planes=8)


def media_features(sf_dir):
    from ..stages.multimodal import media_feature_pipeline
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    feats = media_feature_pipeline(docs)

    def flatten(batch: dict) -> pd.DataFrame:
        return pd.DataFrame({
            "media_id": batch["media_id"],
            "feat_mean": batch["features"][:, :3].mean(axis=1),
            "feat_norm": np.linalg.norm(batch["features"], axis=1),
        })

    return feats.map_batches(flatten, batch_format="numpy")


def media_audio_stats(sf_dir):
    """REAL-codec audio modality end to end: deterministic int16 WAV
    payloads synthesized per doc (seeded by doc_id), decoded by the
    stdlib RIFF/PCM parser inside the DecodeAudio actor stage, feature
    head (RMS / zero-crossing rate / duration / frame energies), then
    one integer-checksum row (1e-3/1e-6 fixed-point sums) — the same
    pin-able hard-signal contract as ``media_features_stats`` but with
    nothing stubbed on the decode path."""
    from ..stages.audiocodec import encode_wav
    from ..stages.multimodal import DecodeAudio

    docs = _read(sf_dir, "documents", ["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = []
        for d in ids:
            rng = np.random.RandomState(int(d) % (2 ** 31 - 1))
            clip = rng.randint(-2048, 2048,
                               size=(256, 1)).astype(np.int16)
            payloads.append(encode_wav(clip, 8000))
        return pa.table({
            "media_id": pa.array([f"a{int(d)}" for d in ids]),
            "payload": pa.array(payloads, pa.binary())})

    feats = (docs.map_batches(synth, batch_format="pyarrow")
             .map_batches(DecodeAudio, batch_format="pyarrow",
                          batch_size=64, concurrency=(1, 4)))

    def fp_partial(b: dict) -> pd.DataFrame:
        f = np.asarray(b["features"], np.float64)
        return pd.DataFrame({
            "n_clips": pd.Series([len(f)], dtype=np.int64),
            "rms_checksum_fp": pd.Series(
                [int(np.floor(f[:, 0] * 1e3 + 0.5).sum())],
                dtype=np.int64),
            "zcr_checksum_fp": pd.Series(
                [int(np.floor(f[:, 1] * 1e6 + 0.5).sum())],
                dtype=np.int64),
            "dur_checksum_fp": pd.Series(
                [int(np.floor(f[:, 2] * 1e6 + 0.5).sum())],
                dtype=np.int64)})

    parts = feats.map_batches(fp_partial, batch_format="numpy") \
        .to_pandas()
    return pd.DataFrame({c: pd.Series([int(parts[c].sum())],
                                      dtype=np.int64)
                         for c in ["n_clips", "rms_checksum_fp",
                                   "zcr_checksum_fp",
                                   "dur_checksum_fp"]})


def media_features_stats(sf_dir):
    """Integer-checksum companion to ``media_features`` (same actor-pool
    decode→feature plumbing, deterministic fake codec): n_media plus
    1e-6 fixed-point checksums of the feature columns — pin-able hard
    signal for the multimodal path."""
    feats = media_features(sf_dir)

    def fp_partial(b: pd.DataFrame) -> pd.DataFrame:
        def fp(x):
            v = np.asarray(x, dtype=np.float64)
            return (np.sign(v)
                    * np.floor(np.abs(v) * 1e6 + 0.5)).astype(np.int64)
        return pd.DataFrame({
            "n_media": pd.Series([len(b)], dtype=np.int64),
            "mean_checksum_fp": pd.Series([int(fp(b["feat_mean"]).sum())],
                                          dtype=np.int64),
            "norm_checksum_fp": pd.Series([int(fp(b["feat_norm"]).sum())],
                                          dtype=np.int64)})

    parts = feats.map_batches(fp_partial, batch_format="pandas") \
        .to_pandas()
    return pd.DataFrame({
        "n_media": pd.Series([int(parts["n_media"].sum())],
                             dtype=np.int64),
        "mean_checksum_fp": pd.Series(
            [int(parts["mean_checksum_fp"].sum())], dtype=np.int64),
        "norm_checksum_fp": pd.Series(
            [int(parts["norm_checksum_fp"].sum())], dtype=np.int64)})


def docs_token_entropy(sf_dir):
    """Per-document unigram entropy (vocabulary-richness quality signal):
    H = -Σ (c/n)·ln(c/n) over the doc's own token distribution, in 1e-6
    fixed-point — each distinct token's term quantized once, integer
    sums are order-free, ``ln`` is libm on both sides. Row-local,
    streams at read bandwidth."""
    import math
    from collections import Counter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def ent(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        n_toks, fps = [], []
        for t in batch.column("text").to_pylist():
            toks = t.split()
            n = len(toks)
            n_toks.append(n)
            if not n:
                fps.append(0)
                continue
            total = 0
            for c in Counter(toks).values():
                term = -(c / n) * math.log(c / n)
                total += int(math.floor(term * 1_000_000 + 0.5))
            fps.append(total)
        return pa.table({"doc_id": ids,
                         "n_tokens": pa.array(n_toks, pa.int64()),
                         "entropy_fp": pa.array(fps, pa.int64())})

    return ds.map_batches(ent, batch_format="pyarrow")


SQL_DOCS_TOKEN_ENTROPY = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
tok2 AS (SELECT doc_id, token FROM tok WHERE token <> ''),
n AS (SELECT doc_id, count(*)::DOUBLE AS n FROM tok2 GROUP BY doc_id),
c AS (SELECT doc_id, token, count(*)::DOUBLE AS c FROM tok2
      GROUP BY doc_id, token),
e AS (SELECT c.doc_id,
        sum(CAST(floor(-(c / n) * ln(c / n) * 1000000 + 0.5)
                 AS BIGINT))::BIGINT AS entropy_fp,
        CAST(any_value(n) AS BIGINT) AS n_tokens
      FROM c JOIN n USING (doc_id) GROUP BY c.doc_id)
SELECT d.doc_id, coalesce(e.n_tokens, 0)::BIGINT AS n_tokens,
       coalesce(e.entropy_fp, 0)::BIGINT AS entropy_fp
FROM documents d LEFT JOIN e USING (doc_id)
"""


def events_type_transitions(sf_dir):
    """First-order Markov transition counts between consecutive event
    types per user (ordered by ts, event_id tiebreak) — the behavioral
    bigram table. Users never span buckets, so per-bucket sort+shift is
    exact; only 5x5 partial counts leave each bucket."""
    from ..functions.relational import hash_bucket_aggregate
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        prev = g.groupby("user_id")["event_type"].shift()
        pairs = pd.DataFrame({"from_type": prev,
                              "to_type": g["event_type"]}).dropna()
        out = (pairs.groupby(["from_type", "to_type"], as_index=False)
               .agg(cnt=("to_type", "size")))
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    parts = hash_bucket_aggregate(ds, ["user_id"], per_bucket,
                                  rows_hint=_nrows(sf_dir, "events"))
    agg = (parts.groupby(["from_type", "to_type"])
           .aggregate(Sum("cnt", alias_name="cnt")))

    def fix(b: pd.DataFrame) -> pd.DataFrame:
        b["cnt"] = b["cnt"].astype(np.int64)
        return b

    return agg.map_batches(fix, batch_format="pandas")


SQL_EVENTS_TYPE_TRANSITIONS = """
WITH s AS (SELECT user_id, event_type,
                  lag(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev
           FROM events)
SELECT prev AS from_type, event_type AS to_type, count(*)::BIGINT AS cnt
FROM s WHERE prev IS NOT NULL GROUP BY from_type, to_type
"""


PSI_BIN_WIDTH = 50.0
PSI_N_BINS = 10


def events_psi_drift(sf_dir):
    """Population-stability-index drift audit between the stream's early
    and late halves (split at the midpoint timestamp) per event type,
    over fixed-width value bins — the distribution-shift alarm a
    continuously-crawled corpus checks before retraining on new data.
    Each bin's PSI term (n/N − m/M)·ln((n·M)/(m·N)) is rounded ONCE to
    the 1e-6 grid so the per-type sum is an order-independent integer
    (`docs_source_divergence`'s fixed-point recipe); bins populated on
    only one side are excluded and counted in `n_zero_bins`. Scale
    shape: one min/max aggregate fixes the midpoint, the histogram
    reduces map-side to ≤ types × 2 × bins rows per block, and the
    final PSI fold runs over a constant-size table."""
    import math

    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    mm = ds.aggregate(Min("ts"), Max("ts"))
    lo = pd.Timestamp(mm["min(ts)"]).value // 1000
    hi = pd.Timestamp(mm["max(ts)"]).value // 1000
    mid = (lo + hi) // 2

    def bin_partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"event_type": pd.Series([], dtype=object),
                "bin": pd.Series([], dtype="int64"),
                "n_early": pd.Series([], dtype="int64"),
                "n_late": pd.Series([], dtype="int64")}
        if not len(df):
            return pd.DataFrame(cols)
        t = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        early = (t <= mid).astype(np.int64)
        b = np.minimum(np.maximum(np.floor(
            df["value"].to_numpy(np.float64) / PSI_BIN_WIDTH)
            .astype(np.int64), 0), PSI_N_BINS - 1)
        out = pd.DataFrame({"event_type": df["event_type"], "bin": b,
                            "n_early": early, "n_late": 1 - early})
        return out.groupby(["event_type", "bin"], as_index=False).sum()

    cnt = (ds.map_batches(bin_partial, batch_format="pandas").to_pandas()
           .groupby(["event_type", "bin"], as_index=False).sum())
    rows = []
    for et, g in cnt.groupby("event_type"):
        big_n = int(g["n_early"].sum())
        big_m = int(g["n_late"].sum())
        psi, zero = 0, 0
        for n_i, m_i in zip(g["n_early"], g["n_late"]):
            n_i, m_i = int(n_i), int(m_i)
            if n_i == 0 or m_i == 0:
                zero += 1
                continue
            term = ((n_i / big_n - m_i / big_m)
                    * math.log((n_i * big_m) / (m_i * big_n)))
            psi += math.floor(term * 1000000 + 0.5)
        rows.append({"event_type": et, "n_early": big_n, "n_late": big_m,
                     "n_zero_bins": zero, "psi_micro": psi})
    out = (pd.DataFrame(rows).sort_values("event_type")
           .reset_index(drop=True))
    return out.astype({c: np.int64 for c in out.columns
                       if c != "event_type"})


SQL_EVENTS_PSI_DRIFT = f"""
WITH mm AS (SELECT min(epoch_us(ts)) AS lo, max(epoch_us(ts)) AS hi
            FROM events),
b AS (SELECT event_type,
             least(greatest(CAST(floor(value / {PSI_BIN_WIDTH})
                                 AS BIGINT), 0), {PSI_N_BINS - 1}) AS bin,
             CASE WHEN epoch_us(ts) <= (mm.lo + mm.hi) // 2
                  THEN 1 ELSE 0 END AS early
      FROM events, mm),
c AS (SELECT event_type, bin, sum(early)::BIGINT AS n_e,
             sum(1 - early)::BIGINT AS n_l
      FROM b GROUP BY event_type, bin),
t AS (SELECT event_type, sum(n_e)::BIGINT AS tn, sum(n_l)::BIGINT AS tm
      FROM c GROUP BY event_type),
term AS (SELECT c.event_type,
           CASE WHEN c.n_e = 0 OR c.n_l = 0 THEN NULL
                ELSE CAST(floor((c.n_e::DOUBLE / t.tn
                                 - c.n_l::DOUBLE / t.tm)
                                * ln((c.n_e * t.tm)::DOUBLE
                                     / (c.n_l * t.tn)::DOUBLE)
                                * 1000000 + 0.5) AS BIGINT) END AS f
         FROM c JOIN t USING (event_type))
SELECT t.event_type, t.tn AS n_early, t.tm AS n_late,
       (count(*) FILTER (WHERE f IS NULL))::BIGINT AS n_zero_bins,
       coalesce(sum(f), 0)::BIGINT AS psi_micro
FROM term JOIN t USING (event_type)
GROUP BY t.event_type, t.tn, t.tm
"""


def docs_unigram_logprob(sf_dir):
    """CCNet-style LM quality score: per-document average log-likelihood
    under the corpus's own unigram distribution, in exact integer
    fixed-point (each token's ln(count/total) rounded once to a 1e-6
    grid, per-doc sums pure integer — no float-summation-order hazard).
    Two passes: bucketed unigram-count aggregate, size-gated broadcast
    scoring map."""
    from ..functions.textstats import unigram_logprob

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return unigram_logprob(ds, rows_hint=16 * _nrows(sf_dir, "documents"))


SQL_DOCS_UNIGRAM_LOGPROB = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
tok2 AS (SELECT doc_id, token FROM tok WHERE token <> ''),
cnt AS (SELECT token, count(*)::DOUBLE AS c FROM tok2 GROUP BY token),
tot AS (SELECT sum(c) AS t FROM cnt),
lp AS (SELECT token, CAST(floor(ln(c / t) * 1000000 + 0.5) AS BIGINT) AS fp
       FROM cnt, tot),
per AS (SELECT t2.doc_id, count(*)::BIGINT AS n_tokens,
               sum(lp.fp)::BIGINT AS logprob_fp
        FROM tok2 t2 JOIN lp USING (token) GROUP BY t2.doc_id)
SELECT d.doc_id, coalesce(per.n_tokens, 0)::BIGINT AS n_tokens,
       coalesce(per.logprob_fp, 0)::BIGINT AS logprob_fp
FROM documents d LEFT JOIN per USING (doc_id)
"""


def docs_curation_funnel(sf_dir):
    """Observability companion to the curation pipeline: document counts
    surviving each stage (in → Gopher pass → temperature sample → chunks
    out). Diagnostic multi-pass by design — production runs ride the
    job-level counters (pipelines/job.py) instead of re-executing
    stages."""
    from ..functions.dedup import paragraph_dedup
    from ..functions.packing import chunk_windows, temperature_sample
    from ..functions.textstats import gopher_signals

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    n_docs = _nrows(sf_dir, "documents")

    def keep_passing(batch: pa.Table) -> pa.Table:
        mask = pa.array([bool(gopher_signals(t)[5])
                         for t in batch.column("text").to_pylist()])
        return batch.filter(mask)

    filtered = ds.map_batches(keep_passing, batch_format="pyarrow")
    n_pass = filtered.count()
    sampled = temperature_sample(filtered, "lang", "doc_id",
                                 alpha=TEMP_ALPHA)
    cleaned = paragraph_dedup(sampled, w=PARA_W, rows_hint=16 * n_docs)
    chunks = chunk_windows(cleaned, size=CHUNK_SIZE, stride=CHUNK_STRIDE,
                           text_col="clean_text").materialize()
    n_chunks = chunks.count()
    n_sampled_docs = len(chunks.unique("doc_id"))
    return pd.DataFrame({
        "n_docs": pd.Series([n_docs], dtype=np.int64),
        "n_pass_gopher": pd.Series([n_pass], dtype=np.int64),
        "n_chunked_docs": pd.Series([n_sampled_docs], dtype=np.int64),
        "n_chunks": pd.Series([n_chunks], dtype=np.int64)})




def embed_label_centroids(sf_dir):
    """Per-label embedding centroid, integer-exact: components quantized
    once to 1e-6 micro-units, per-(label, dim) int64 sums (order-free),
    centroid = floor-div mean back on the micro-grid. The vectorized
    class-prototype aggregate (nearest-centroid classifiers, SemDeDup
    seeding). Output long-form: (label, dim, centroid_fp, n)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in b["embedding"]])
        fp = (np.sign(m) * np.floor(np.abs(m) * 1e6 + 0.5)) \
            .astype(np.int64)
        labels = b["label"].to_numpy(np.int64)
        out = []
        for lab in np.unique(labels):
            rows = fp[labels == lab]
            s = rows.sum(axis=0)
            for d in range(fp.shape[1]):
                out.append((int(lab), d, int(s[d]), len(rows)))
        return pd.DataFrame(out, columns=["label", "dim", "sum_fp", "n"]) \
            .astype({"label": np.int64, "dim": np.int64,
                     "sum_fp": np.int64, "n": np.int64})

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby(["label", "dim"])
           .aggregate(Sum("sum_fp", alias_name="sum_fp"),
                      Sum("n", alias_name="n")))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        s = b["sum_fp"].astype(np.int64).to_numpy()
        n = b["n"].astype(np.int64).to_numpy()
        # DuckDB // truncates toward zero (Python floors) — match it
        cent = np.sign(s) * (np.abs(s) // n)
        b = b.assign(centroid_fp=cent.astype(np.int64),
                     n=b["n"].astype(np.int64))
        return b[["label", "dim", "centroid_fp", "n"]]

    return agg.map_batches(finish, batch_format="pandas")


SQL_EMBED_LABEL_CENTROIDS = """
WITH e AS (SELECT label, unnest(embedding) AS comp,
                  generate_subscripts(embedding, 1) - 1 AS dim
           FROM embeddings),
q AS (SELECT label, dim,
        CAST(CASE WHEN comp >= 0
             THEN floor(comp::DOUBLE * 1000000 + 0.5)
             ELSE -floor(-comp::DOUBLE * 1000000 + 0.5) END AS BIGINT)
          AS fp
      FROM e)
SELECT label::BIGINT AS label, dim::BIGINT AS dim,
       (sum(fp)::BIGINT // count(*)::BIGINT)::BIGINT AS centroid_fp,
       count(*)::BIGINT AS n
FROM q GROUP BY label, dim
"""


FREQ_PAIR_MINSUP = 3


def lineitem_frequent_pairs(sf_dir):
    """Market-basket frequent itemset mining (pair support counting):
    part pairs co-purchased in >= 3 orders. Same bucketed per-order pair
    expansion as the triangle edge build, but counting support instead
    of collapsing to distinct — the shuffle moves (a, b, partial-count)
    rows, never baskets."""
    from ..functions.relational import hash_bucket_aggregate

    # coarse blocks: see graph_link_prediction_parts
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               rows_per_block=32768)

    def op_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # block-local distinct, vectorized (the Python set(zip(...)) form
        # measured ~4 s alone at sf0.1; drop_duplicates is C-speed)
        out = df.drop_duplicates().rename(
            columns={"l_orderkey": "o", "l_partkey": "p"})
        return out.astype({"o": np.int64, "p": np.int64})

    def expand_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-order pair expansion: self-merge with a<b
        # orientation (baskets are tiny, <= 7 lineitems)
        gd = g.drop_duplicates(["o", "p"])
        m = gd.merge(gd, on="o")
        m = m[m["p_x"] < m["p_y"]]
        out = m.groupby(["p_x", "p_y"], as_index=False).agg(
            support=("o", "size"))
        out = out.rename(columns={"p_x": "a", "p_y": "b"})
        out["support"] = out["support"].astype(np.int64)
        return out

    pairs = hash_bucket_aggregate(
        ds.map_batches(op_pairs, batch_format="pandas"), ["o"],
        expand_bucket, rows_hint=_nrows(sf_dir, "lineitem"))

    def sup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["a", "b"], as_index=False).agg(
            support=("support", "sum"))
        out["support"] = out["support"].astype(np.int64)
        return out[out["support"] >= FREQ_PAIR_MINSUP]

    return hash_bucket_aggregate(pairs, ["a", "b"], sup_bucket,
                                 rows_hint=_nrows(sf_dir, "lineitem"))


SQL_LINEITEM_FREQUENT_PAIRS = f"""
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem)
SELECT x.p AS a, y.p AS b, count(*)::BIGINT AS support
FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p
GROUP BY x.p, y.p HAVING count(*) >= {FREQ_PAIR_MINSUP}
"""


def events_rolling_active_users(sf_dir):
    """Rolling 3-day distinct active users per day (the windowed
    COUNT(DISTINCT) SQL window functions cannot express directly):
    distinct (user, day) pairs collapse map-side, each membership
    forward-explodes to the <= 3 window days it supports, one bucketed
    distinct+count per window day, then the day list restricts to days
    that actually occur (broadcast day set — calendars are kilobytes)."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def day_pairs(batch: pa.Table) -> pa.Table:
        days = batch.column("ts").cast(pa.date32()).cast(pa.int32())
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        d = days.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = np.unique(np.stack([u, d], axis=1), axis=0)
        return pa.table({"user_id": pa.array(uniq[:, 0], pa.int64()),
                         "day": pa.array(uniq[:, 1], pa.int64())})

    pairs = hash_bucket_aggregate(
        ds.map_batches(day_pairs, batch_format="pyarrow"),
        ["user_id", "day"],
        lambda g: g.drop_duplicates(["user_id", "day"]),
        rows_hint=_nrows(sf_dir, "events")).materialize()

    import ray
    real_days = frozenset(
        int(d) for b in pairs.select_columns(["day"])
        .iter_batches(batch_format="pyarrow")
        for d in b.column("day").to_pylist())
    dref = ray.put(real_days)

    def explode(batch: pa.Table) -> pa.Table:
        dayset = ray.get(dref)
        us, ws = [], []
        for u, d in zip(batch.column("user_id").to_pylist(),
                        batch.column("day").to_pylist()):
            for w in (d, d + 1, d + 2):
                if w in dayset:
                    us.append(u)
                    ws.append(w)
        return pa.table({"user_id": pa.array(us, pa.int64()),
                         "wday": pa.array(ws, pa.int64())})

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates(["wday", "user_id"])
               .groupby("wday", as_index=False)
               .agg(active_3d=("user_id", "size")))
        out["active_3d"] = out["active_3d"].astype(np.int64)
        return out

    counts = hash_bucket_aggregate(
        pairs.map_batches(explode, batch_format="pyarrow"),
        ["wday"], count_bucket, n_buckets=8)

    def fmt(b: pd.DataFrame) -> pd.DataFrame:
        epoch = np.datetime64("1970-01-01", "D")
        return pd.DataFrame({
            "day": (epoch + b["wday"].to_numpy(np.int64)).astype(str),
            "active_3d": b["active_3d"]})

    return counts.map_batches(fmt, batch_format="pandas")


SQL_EVENTS_ROLLING_ACTIVE_USERS = """
WITH ud AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d FROM events),
days AS (SELECT DISTINCT d FROM ud)
SELECT strftime(days.d, '%Y-%m-%d') AS day,
       count(DISTINCT ud.user_id)::BIGINT AS active_3d
FROM days JOIN ud ON ud.d BETWEEN days.d - 2 AND days.d
GROUP BY days.d
"""


def events_latest_per_user(sf_dir):
    """CDC-style compaction: each user's latest event (max ts, event_id
    tiebreak) — the latest-wins upsert merge every incremental table
    maintenance job runs. One user-bucketed pass; keys never span
    buckets, so per-bucket idxmax is exact."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        out = g.groupby("user_id", sort=False).tail(1)
        out = out.assign(day=out["ts"].dt.strftime("%Y-%m-%d"))
        out["value"] = sql_round(out["value"].to_numpy(np.float64), 2)
        return out[["user_id", "event_id", "day", "event_type", "value"]]

    return hash_bucket_aggregate(ds, ["user_id"], per_bucket,
                                 rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_LATEST_PER_USER = """
WITH r AS (SELECT *, row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts DESC, event_id DESC)
                       AS rn
           FROM events)
SELECT user_id, event_id, strftime(ts, '%Y-%m-%d') AS day, event_type,
       round(value, 2) AS value
FROM r WHERE rn = 1
"""


def events_value_outliers(sf_dir):
    """Per-user z-score anomaly detection, integer-exact: values
    cent-quantized once, then the |z| > 3 test is the pure-integer
    inequality (x·n − S)² > 9·(n·S2 − S²) — no float variance, no
    summation-order hazard, HUGEINT-replayable. One user-bucketed pass:
    a user's rows co-locate, so moments and flags happen in one spot."""
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def cents_batch(b: pd.DataFrame) -> pd.DataFrame:
        b["cents"] = sql_round(b["value"].to_numpy(np.float64) * 100.0,
                               0).astype(np.int64)
        return b[["event_id", "user_id", "cents"]]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        eids, uids, cs = [], [], []
        for uid, grp in g.groupby("user_id", sort=False):
            cents = [int(x) for x in grp["cents"]]
            n, s1 = len(cents), sum(cents)
            s2 = sum(x * x for x in cents)
            thr = 9 * (n * s2 - s1 * s1)   # Python ints: no overflow
            for eid, x in zip(grp["event_id"], cents):
                d = x * n - s1
                if d * d > thr:
                    eids.append(int(eid))
                    uids.append(int(uid))
                    cs.append(x)
        return pd.DataFrame({
            "event_id": pd.Series(eids, dtype=np.int64),
            "user_id": pd.Series(uids, dtype=np.int64),
            "cents": pd.Series(cs, dtype=np.int64)})

    return hash_bucket_aggregate(
        ds.map_batches(cents_batch, batch_format="pandas"),
        ["user_id"], per_bucket, rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_VALUE_OUTLIERS = """
WITH c AS (SELECT event_id, user_id,
                  CAST(round(value * 100) AS HUGEINT) AS cents
           FROM events),
s AS (SELECT user_id, count(*)::HUGEINT AS n, sum(cents)::HUGEINT AS s1,
             sum(cents * cents)::HUGEINT AS s2
      FROM c GROUP BY user_id)
SELECT c.event_id, c.user_id, CAST(c.cents AS BIGINT) AS cents
FROM c JOIN s USING (user_id)
WHERE (c.cents * s.n - s.s1) * (c.cents * s.n - s.s1)
      > 9 * (s.n * s.s2 - s.s1 * s.s1)
"""


def kg_transe_stats(sf_dir):
    """Distributed TransE over the deterministic customer edge table —
    integer-exact loss trajectory + micro-unit embedding checksums (the
    pin-friendly summary of a bit-deterministic training run; full
    bit-exactness vs the sequential oracle is pytest-pinned in
    tests/test_kge.py)."""
    from ..functions.kge import transe_train

    e_df, r_df, losses = transe_train(
        _customer_edges(sf_dir), dim=8, epochs=4,
        rows_hint=_nrows(sf_dir, "customer"))
    return pd.DataFrame({
        "n_entities": pd.Series([len(e_df)], dtype=np.int64),
        "n_relations": pd.Series([len(r_df)], dtype=np.int64),
        "first_loss_fp": pd.Series([losses[0]], dtype=np.int64),
        "final_loss_fp": pd.Series([losses[-1]], dtype=np.int64),
        "ent_checksum_fp": pd.Series([int(e_df["checksum_fp"].sum())],
                                     dtype=np.int64),
        "rel_checksum_fp": pd.Series([int(r_df["checksum_fp"].sum())],
                                     dtype=np.int64)})


def kg_link_prediction(sf_dir):
    """Tail link-prediction metrics (mean rank / MRR / hits@10) of the
    TransE embeddings trained on the customer edge table — integer
    fixed-point metric sums, so the distributed eval is exact and
    pin-able."""
    from ..functions.kge import link_prediction_eval, transe_train

    edges = _customer_edges(sf_dir)
    e_df, r_df, _ = transe_train(edges, dim=8, epochs=4,
                                 rows_hint=_nrows(sf_dir, "customer"))
    return link_prediction_eval(edges, e_df, r_df, hits_k=10)


NEG_K = 2


def kg_negative_samples(sf_dir):
    """Distant-supervision negatives over the deterministic customer
    edge table: each true (C, in_nation, N) triple gets up to 2
    md5-drawn corrupted tails, minus collisions with true triples.
    Stateless flat-map; entity vocab + truth set broadcast once."""
    from ..functions.graph import negative_samples

    return negative_samples(_customer_edges(sf_dir), k=NEG_K)


SQL_KG_NEGATIVE_SAMPLES = f"""
WITH e AS (SELECT 'C' || c_custkey AS subj, 'in_nation' AS pred,
                  'N' || c_nationkey AS obj FROM customer),
ents AS (SELECT list(DISTINCT obj ORDER BY obj) AS arr,
                count(DISTINCT obj)::UBIGINT AS n FROM e),
g AS (SELECT e.subj, e.pred, i.i,
        arr[CAST(('0x' || substr(md5(e.subj || '|' || e.pred || '|'
                                     || i.i::VARCHAR), 1, 16))::UBIGINT
                 % n AS BIGINT) + 1] AS neg_obj
      FROM e, ents, (SELECT unnest(range({NEG_K})) AS i) i)
SELECT g.subj, g.pred, g.neg_obj, g.i::BIGINT AS draw_idx
FROM g WHERE NOT EXISTS (SELECT 1 FROM e t WHERE t.subj = g.subj
                         AND t.pred = g.pred AND t.obj = g.neg_obj)
"""


def docs_curation_pipeline(sf_dir):
    """Second flagship composition — the modern web-corpus curation
    chain, end-to-end as ONE streaming pipeline, value-oracled as one
    unit: Gopher-rules filter (row-local, streams at read bandwidth) →
    temperature rebalancing by language (integer md5 acceptance cuts over
    the FILTERED counts) → CCNet paragraph dedup across the sampled
    corpus (one bucketed segment-frequency aggregate + broadcast rebuild)
    → RAG chunking of the cleaned text (stateless flat-map). One corpus
    shuffle total (the segment-frequency aggregate); every stage is a
    library operator, so the chain cannot drift from the standalone
    queries' semantics."""
    from ..functions.dedup import paragraph_dedup
    from ..functions.packing import chunk_windows, temperature_sample
    from ..functions.textstats import gopher_signals

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def keep_passing(batch: pa.Table) -> pa.Table:
        mask = pa.array([bool(gopher_signals(t)[5])
                         for t in batch.column("text").to_pylist()])
        return batch.filter(mask)

    filtered = ds.map_batches(keep_passing, batch_format="pyarrow")
    sampled = temperature_sample(filtered, "lang", "doc_id",
                                 alpha=TEMP_ALPHA)
    cleaned = paragraph_dedup(
        sampled, w=PARA_W,
        rows_hint=16 * _nrows(sf_dir, "documents"))
    return chunk_windows(cleaned, size=CHUNK_SIZE, stride=CHUNK_STRIDE,
                         text_col="clean_text")


_CURATION_CTES = rf"""
WITH t AS (SELECT doc_id, lang,
  list_filter(regexp_split_to_array(trim(text), '\s+'), x -> x <> '')
    AS toks
  FROM documents),
base AS (
 SELECT doc_id, lang, toks, length(toks)::BIGINT AS n_tokens,
   CASE WHEN length(toks) = 0 THEN 0.0
        ELSE round(list_sum(list_transform(toks, x -> length(x)))::DOUBLE
                   / length(toks), 6) END AS mean_token_len,
   CASE WHEN length(toks) = 0 THEN 0.0
        ELSE round(length(list_filter(
                     toks, x -> regexp_matches(x, '[A-Za-z]')))::DOUBLE
                   / length(toks), 6) END AS alpha_ratio,
   length(list_distinct(list_filter(
     list_transform(toks, x -> lower(x)),
     x -> x IN ('the','a','an','of','and','or','in','on','to','is'))
   ))::BIGINT AS n_stop_distinct,
   CASE WHEN length(toks) < 3 THEN 0.0
        ELSE round(1.0 - length(list_distinct(
               list_transform(range(1, length(toks)-1),
                 i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])))
             / (length(toks) - 2)::DOUBLE, 6) END AS repetition
 FROM t),
keep AS (SELECT doc_id, lang, toks FROM base
         WHERE n_tokens BETWEEN 50 AND 100000
           AND mean_token_len BETWEEN 3.0 AND 10.0
           AND alpha_ratio >= 0.8 AND n_stop_distinct >= 2
           AND repetition <= 0.2),
c AS (SELECT lang, count(*)::DOUBLE AS n FROM keep GROUP BY lang),
m AS (SELECT min(n) AS mn FROM c),
r AS (SELECT lang,
        CAST(floor(pow(m.mn / c.n, {1.0 - TEMP_ALPHA}::DOUBLE)
                   * 4294967296::DOUBLE) AS UBIGINT) AS cut
      FROM c, m),
samp AS (SELECT k.doc_id, k.toks FROM keep k JOIN r USING (lang)
         WHERE ('0x' || substr(md5('temp:' || k.doc_id::VARCHAR), 1, 8))
               ::UBIGINT < r.cut),
seg AS (SELECT doc_id,
          unnest(range((length(toks) + {PARA_W} - 1) // {PARA_W})) AS i,
          toks
        FROM samp WHERE length(toks) > 0),
units AS (SELECT doc_id, i,
            array_to_string(
              toks[i*{PARA_W}+1 : i*{PARA_W}+{PARA_W}], ' ') AS u
          FROM seg),
flagged AS (SELECT doc_id, i, u,
                   count(*) OVER (PARTITION BY u) AS df FROM units),
agg AS (SELECT doc_id,
          coalesce(string_agg(u, ' ' ORDER BY i) FILTER (WHERE df < 2),
                   '') AS clean_text
        FROM flagged GROUP BY doc_id),
ct AS (SELECT doc_id,
         list_filter(regexp_split_to_array(trim(clean_text), '\s+'),
                     x -> x <> '') AS ctoks
       FROM agg),
cn AS (SELECT doc_id, ctoks, length(ctoks) AS n FROM ct
       WHERE length(ctoks) > 0),
ch AS (SELECT doc_id, ctoks, n,
         unnest(range(CASE WHEN n <= {CHUNK_SIZE} THEN 1
                      ELSE (n - {CHUNK_SIZE} + {CHUNK_STRIDE} - 1)
                           // {CHUNK_STRIDE} + 1 END)) AS chunk_id
       FROM cn)
"""

SQL_DOCS_CURATION_PIPELINE = _CURATION_CTES + rf"""
SELECT doc_id, chunk_id,
       array_to_string(
         ctoks[chunk_id * {CHUNK_STRIDE} + 1 :
               least(chunk_id * {CHUNK_STRIDE} + {CHUNK_SIZE}, n)], ' ')
         AS chunk_text,
       (least(chunk_id * {CHUNK_STRIDE} + {CHUNK_SIZE}, n)
        - chunk_id * {CHUNK_STRIDE})::BIGINT AS n_tokens
FROM ch
"""


SQL_DOCS_CURATION_FUNNEL = _CURATION_CTES + """
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       (SELECT count(*) FROM keep)::BIGINT AS n_pass_gopher,
       (SELECT count(DISTINCT doc_id) FROM cn)::BIGINT AS n_chunked_docs,
       (SELECT sum(CASE WHEN n <= {cs} THEN 1
                        ELSE (n - {cs} + {st} - 1) // {st} + 1 END)
        FROM cn)::BIGINT AS n_chunks
""".replace("{cs}", str(CHUNK_SIZE)).replace("{st}", str(CHUNK_STRIDE))


def graph_triangles_parts(sf_dir):
    """Exact triangle count on the part co-purchase graph (parts sharing
    an order). Edge build = per-order pair expansion in the order's hash
    bucket + one distinct; count = wedge join on the middle vertex + a
    bucketed semi-join closure. Output is two scalars."""
    from ..functions.graph import triangle_count

    # coarse blocks: cheap vectorized stages + bucketed shuffles (same
    # fixed-cost-per-block finding as graph_link_prediction_parts)
    n = _nrows(sf_dir, "lineitem")
    edges = _copurchase_edges(sf_dir)
    return triangle_count(edges, rows_hint=8 * n)


SQL_GRAPH_TRIANGLES_PARTS = """
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (SELECT DISTINCT x.p AS a, y.p AS b
      FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
w AS (SELECT e1.a, e1.b, e2.b AS c FROM e e1 JOIN e e2 ON e1.b = e2.a),
t AS (SELECT w.a, w.b, w.c FROM w JOIN e ON e.a = w.a AND e.b = w.c)
SELECT (SELECT count(*) FROM w)::BIGINT AS n_wedges,
       (SELECT count(*) FROM t)::BIGINT AS n_triangles
"""


#: deterministic 20% vertex sample: the co-purchase graph is dense
#: (~120 neighbors/part), and AA's wedge emission is sum(deg²) —
#: 148M wedges at sf0.1 on the full graph. Sampling VERTICES (not
#: edges) keeps every sampled subgraph score exact; the full-graph run
#: is the same operator with a hub cap, documented in adamic_adar.
AA_VERTEX_MOD = 5


def graph_clustering_parts(sf_dir):
    """Per-vertex local clustering coefficient on the (sampled) part
    co-purchase graph: lcc(v) = 2*tri(v) / (deg(v)*(deg(v)-1)) — the
    per-entity neighborhood-density profile next to the global triangle
    census. Middle-oriented wedge exchange credits all three corners of
    each closed wedge; credits and degrees meet in a left join so
    triangle-free vertices report 0. Runs on the same deterministic
    partkey-mod vertex sample as link prediction (wedge volume is
    sum(deg²)); the oracle replays the filter."""
    from ..functions.graph import local_clustering

    n = _nrows(sf_dir, "lineitem") // AA_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, AA_VERTEX_MOD)
    out = local_clustering(edges, rows_hint=8 * n).to_pandas()
    return out.sort_values("entity").reset_index(drop=True)


SQL_GRAPH_CLUSTERING_PARTS = f"""
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
            WHERE l_partkey % {AA_VERTEX_MOD} = 0),
e AS MATERIALIZED (SELECT DISTINCT x.p AS a, y.p AS b
      FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS (SELECT a AS v, b AS n FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT v AS entity, count(DISTINCT n)::BIGINT AS degree
        FROM adj GROUP BY v),
w AS (SELECT e1.a, e2.b AS c, e1.b AS v
      FROM e e1 JOIN e e2 ON e1.b = e2.a),
t AS (SELECT w.a, w.v, w.c FROM w JOIN e ON e.a = w.a AND e.b = w.c),
cr AS (SELECT a AS entity FROM t UNION ALL SELECT v FROM t
       UNION ALL SELECT c FROM t),
tc AS (SELECT entity, count(*)::BIGINT AS triangles FROM cr GROUP BY entity)
SELECT deg.entity, deg.degree,
       coalesce(tc.triangles, 0)::BIGINT AS triangles,
       CASE WHEN deg.degree >= 2 THEN
         round(2.0 * coalesce(tc.triangles, 0)::DOUBLE
               / (deg.degree * (deg.degree - 1))::DOUBLE, 12)
       ELSE 0.0 END AS lcc
FROM deg LEFT JOIN tc USING (entity) ORDER BY deg.entity
"""


def graph_assortativity_parts(sf_dir):
    """Degree assortativity of the part co-purchase graph — the Newman
    r coefficient (Pearson correlation of endpoint degrees): the
    one-number report of whether popular parts co-sell with other
    popular parts (r > 0) or with long-tail parts (r < 0). All moments
    except the cross term are vertex-local in the degree table; the
    cross term is one bucketed deg-onto-adjacency join + neighbor-sum.
    Exact-integer moments → one float division, 12-dp rounded,
    bit-matching the HUGEINT SQL replay."""
    from ..functions.graph import assortativity

    n = _nrows(sf_dir, "lineitem")
    edges = _copurchase_edges(sf_dir)
    return assortativity(edges, rows_hint=8 * n)


SQL_GRAPH_ASSORTATIVITY_PARTS = """
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (SELECT DISTINCT x.p AS a, y.p AS b
      FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS (SELECT a AS u, b AS v FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT u AS vtx, count(*)::BIGINT AS d FROM adj GROUP BY u),
m AS (SELECT sum(d::HUGEINT) AS n, sum(d::HUGEINT * d) AS sx,
             sum(d::HUGEINT * d * d) AS sxx FROM deg),
x AS (SELECT sum(du.d::HUGEINT * dv.d) AS sxy
      FROM adj JOIN deg du ON adj.u = du.vtx
               JOIN deg dv ON adj.v = dv.vtx)
SELECT (SELECT count(*) FROM deg)::BIGINT AS n_vertices,
       (SELECT count(*) FROM e)::BIGINT AS n_edges,
       round((m.n * x.sxy - m.sx * m.sx)::DOUBLE
             / (m.n * m.sxx - m.sx * m.sx)::DOUBLE, 12) AS assortativity
FROM m, x
"""


AA_TOPK = 50
def graph_link_prediction_parts(sf_dir):
    """Adamic-Adar link prediction on the part co-purchase graph: top-k
    NON-adjacent part pairs ranked by sum of 1/ln(deg) over common
    neighbors (fixed-point integer sums — exact under any reduction
    order). The structural KG-completion baseline next to the TransE
    embedding path. Runs on a deterministic partkey-mod vertex sample
    (see AA_VERTEX_MOD); the oracle replays the same filter."""
    from ..functions.graph import adamic_adar

    # coarse blocks: every stage here is a cheap vectorized pass feeding
    # THREE bucketed shuffles — at the 4096 default the sort barriers pay
    # ~150 blocks of fixed cost each (measured 18.1 s vs 2.2 s at 32k)
    n = _nrows(sf_dir, "lineitem") // AA_VERTEX_MOD
    # distinct=False: adamic_adar dedupes parallel pairs in its own keyed
    # passes, saving the whole (a, b)-distinct exchange
    edges = _copurchase_edges(sf_dir, AA_VERTEX_MOD, distinct=False)
    return adamic_adar(edges, k=AA_TOPK, rows_hint=8 * n)


SQL_GRAPH_LINK_PREDICTION_PARTS = f"""
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
            WHERE l_partkey % {AA_VERTEX_MOD} = 0),
e AS (SELECT DISTINCT x.p AS a, y.p AS b
      FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS (SELECT a AS v, b AS n FROM e UNION ALL SELECT b AS v, a AS n FROM e),
deg AS (SELECT v, count(*)::BIGINT AS d FROM adj GROUP BY v),
w AS (SELECT v, CAST(floor(1000000.0 / ln(d) + 0.5) AS BIGINT) AS wt
      FROM deg WHERE d >= 2),
wed AS (SELECT x.n AS a, y.n AS b, w.wt
        FROM adj x JOIN adj y ON x.v = y.v AND x.n < y.n
        JOIN w ON w.v = x.v),
agg AS (SELECT a, b, sum(wt)::BIGINT AS aa_fp,
               count(*)::BIGINT AS common_neighbors
        FROM wed GROUP BY a, b),
cand AS (SELECT * FROM agg WHERE NOT EXISTS
         (SELECT 1 FROM e WHERE e.a = agg.a AND e.b = agg.b))
SELECT a, b, aa_fp, common_neighbors FROM cand
ORDER BY aa_fp DESC, a, b LIMIT {AA_TOPK}
"""


PROFILE_COLS = ["l_quantity", "l_extendedprice", "l_returnflag",
                "l_linestatus", "l_shipdate"]


def lineitem_profile(sf_dir):
    """Dataset profiling: per-column row/null/exact-distinct counts in
    one pass — block-local count partials plus one bucketed
    distinct-pair aggregate."""
    from ..functions.relational import profile_columns

    ds = _read(sf_dir, "lineitem", PROFILE_COLS)
    return profile_columns(ds, PROFILE_COLS,
                           rows_hint=len(PROFILE_COLS)
                           * _nrows(sf_dir, "lineitem"))


SQL_LINEITEM_PROFILE = "\nUNION ALL\n".join(
    f"SELECT '{c}' AS col_name, count(*)::BIGINT AS n, "
    f"(count(*) - count({c}))::BIGINT AS n_null, "
    f"count(DISTINCT {c})::BIGINT AS n_distinct FROM lineitem"
    for c in PROFILE_COLS)


def events_props_stats(sf_dir):
    """Semi-structured payload parsing (the WARC-metadata shape): parse
    the JSON ``props`` column row-locally, extract the numeric field, and
    aggregate per event type — map-side partial (count, sum) tuples, one
    kilobyte-sized groupby. Parsing never leaves the task; only the
    per-type partials shuffle."""
    import json

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        sums: dict[str, tuple[int, int]] = {}
        for et, p in zip(batch.column("event_type").to_pylist(),
                         batch.column("props").to_pylist()):
            k = int(json.loads(p)["k"])
            n, s = sums.get(et, (0, 0))
            sums[et] = (n + 1, s + k)
        types = sorted(sums)
        return pa.table({
            "event_type": pa.array(types, pa.string()),
            "n": pa.array([sums[t][0] for t in types], pa.int64()),
            "sum_k": pa.array([sums[t][1] for t in types], pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_k", alias_name="sum_k")))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b["n"] = b["n"].astype(np.int64)
        b["sum_k"] = b["sum_k"].astype(np.int64)
        b["avg_k"] = sql_round(
            b["sum_k"].to_numpy(np.float64) / b["n"].to_numpy(np.float64),
            6)
        return b

    return agg.map_batches(finish, batch_format="pandas")


SQL_EVENTS_PROPS_STATS = r"""
SELECT event_type, count(*)::BIGINT AS n,
       sum(json_extract(props, '$.k')::BIGINT)::BIGINT AS sum_k,
       round(sum(json_extract(props, '$.k')::BIGINT)::DOUBLE
             / count(*)::DOUBLE, 6) AS avg_k
FROM events GROUP BY event_type
"""



def docs_chunk_windows(sf_dir):
    """RAG-style chunking: overlapping 32-token windows, stride 24, last
    window covers the tail. Stateless flat-map, streams at read
    bandwidth."""
    from ..functions.packing import chunk_windows

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_windows(ds, size=CHUNK_SIZE, stride=CHUNK_STRIDE)


SQL_DOCS_CHUNK_WINDOWS = rf"""
WITH t AS (SELECT doc_id,
  list_filter(regexp_split_to_array(trim(text), '\s+'), x -> x <> '')
    AS toks
  FROM documents),
n AS (SELECT doc_id, toks, length(toks) AS n FROM t WHERE length(toks) > 0),
c AS (SELECT doc_id, toks, n,
        unnest(range(CASE WHEN n <= {CHUNK_SIZE} THEN 1
                     ELSE (n - {CHUNK_SIZE} + {CHUNK_STRIDE} - 1)
                          // {CHUNK_STRIDE} + 1 END)) AS chunk_id
      FROM n)
SELECT doc_id, chunk_id,
       array_to_string(
         toks[chunk_id * {CHUNK_STRIDE} + 1 :
              least(chunk_id * {CHUNK_STRIDE} + {CHUNK_SIZE}, n)], ' ')
         AS chunk_text,
       (least(chunk_id * {CHUNK_STRIDE} + {CHUNK_SIZE}, n)
        - chunk_id * {CHUNK_STRIDE})::BIGINT AS n_tokens
FROM c
"""


def docs_source_overlap(sf_dir):
    """Pairwise Jaccard of distinct 3-shingle sets between sources —
    which crawls duplicate each other. One shingle-bucketed aggregate;
    partials are strata²-sized, the final reduce is kilobytes."""
    from ..functions.textstats import source_shingle_overlap

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return source_shingle_overlap(
        ds, rows_hint=64 * _nrows(sf_dir, "documents"))


SQL_DOCS_SOURCE_OVERLAP = r"""
WITH t AS (SELECT source,
  list_filter(regexp_split_to_array(trim(text), '\s+'), x -> x <> '')
    AS toks
  FROM documents),
sh AS (SELECT DISTINCT source,
         unnest(list_transform(range(1, length(toks)-1),
           i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS s
       FROM t WHERE length(toks) >= 3),
cnt AS (SELECT source, count(*)::BIGINT AS n FROM sh GROUP BY source),
co AS (SELECT a.source AS source_a, b.source AS source_b,
              count(*)::BIGINT AS n_common
       FROM sh a JOIN sh b ON a.s = b.s AND a.source < b.source
       GROUP BY a.source, b.source)
SELECT ca.source AS source_a, cb.source AS source_b,
       ca.n AS n_a, cb.n AS n_b,
       coalesce(co.n_common, 0)::BIGINT AS n_common,
       round(coalesce(co.n_common, 0)
             / (ca.n + cb.n - coalesce(co.n_common, 0))::DOUBLE, 6)
         AS jaccard
FROM cnt ca JOIN cnt cb ON ca.source < cb.source
LEFT JOIN co ON co.source_a = ca.source AND co.source_b = cb.source
"""



def docs_temperature_sample(sf_dir):
    """mT5/XLM-R temperature sampling: language share flattened to
    count**alpha, keep-probability (min/count)**(1-alpha), decided by the
    shared md5 draw — integer-exact row set, corpus never shuffles."""
    from ..functions.packing import temperature_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return temperature_sample(ds, "lang", "doc_id", alpha=TEMP_ALPHA)


SQL_DOCS_TEMPERATURE_SAMPLE = f"""
WITH c AS (SELECT lang, count(*)::DOUBLE AS n FROM documents GROUP BY lang),
m AS (SELECT min(n) AS mn FROM c),
r AS (SELECT lang,
        CAST(floor(pow(m.mn / c.n, {1.0 - TEMP_ALPHA}::DOUBLE)
                   * 4294967296::DOUBLE) AS UBIGINT) AS cut
      FROM c, m)
SELECT d.doc_id, d.lang FROM documents d JOIN r USING (lang)
WHERE ('0x' || substr(md5('temp:' || d.doc_id::VARCHAR), 1, 8))::UBIGINT
      < r.cut
"""


BM25_TERMS = ["merge", "sort", "hash"]
BM25_K1, BM25_B, BM25_TOPK = 1.2, 0.75, 10


def _bm25_scores(sf_dir):
    """Per-doc BM25 fixed-point scores for the fixed BM25_TERMS query
    (docs with zero score omitted). Pass 1 reduces the corpus to scalar
    statistics (N, avgdl, per-term df — map-side partial sums, kilobytes
    to the driver); pass 2 scores each doc row-locally. Per-term
    contributions are rounded to a 1e-6 grid BEFORE summing (integer
    fixed-point), so the score is independent of float-summation order
    and SQL-exact. Shared by ``docs_bm25_topk`` and the hybrid RRF
    fusion so the scoring definition cannot drift."""
    import math

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    terms = list(BM25_TERMS)

    def stat_partial(batch: pa.Table) -> pa.Table:
        dls, dfs = [], {t: 0 for t in terms}
        for t in batch.column("text").to_pylist():
            toks = t.split()
            dls.append(len(toks))
            s = set(toks)
            for q in terms:
                dfs[q] += int(q in s)
        return pa.table({
            "n_docs": pa.array([len(dls)], pa.int64()),
            "sum_dl": pa.array([int(sum(dls))], pa.int64()),
            **{f"df_{q}": pa.array([dfs[q]], pa.int64()) for q in terms}})

    stats = ds.map_batches(stat_partial, batch_format="pyarrow").to_pandas()
    n = float(stats["n_docs"].sum())
    avgdl = float(stats["sum_dl"].sum()) / n
    idf = {q: math.log((n - float(stats[f"df_{q}"].sum()) + 0.5)
                       / (float(stats[f"df_{q}"].sum()) + 0.5) + 1.0)
           for q in terms}
    k1, b = BM25_K1, BM25_B

    def score_batch(batch: pa.Table) -> pa.Table:
        ids, fps = [], []
        id_np = batch.column("doc_id").to_numpy(zero_copy_only=False)
        for i, t in zip(id_np, batch.column("text").to_pylist()):
            toks = t.split()
            dl = float(len(toks))
            fp = 0
            for q in terms:
                tf = float(toks.count(q))
                if tf:
                    contrib = idf[q] * (tf * (k1 + 1.0)
                                        / (tf + k1 * (1.0 - b
                                                      + b * dl / avgdl)))
                    fp += int(math.floor(contrib * 1_000_000 + 0.5))
            if fp:
                ids.append(int(i))
                fps.append(fp)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "score_fp": pa.array(fps, pa.int64())})

    return ds.map_batches(score_batch, batch_format="pyarrow")


def docs_bm25_topk(sf_dir):
    """BM25 retrieval: top-10 documents for the fixed 3-term query (see
    ``_bm25_scores`` for the two-pass scoring shape)."""
    return _bm25_scores(sf_dir).sort(
        ["score_fp", "doc_id"], descending=[True, False]).limit(BM25_TOPK)


SQL_DOCS_BM25_TOPK = rf"""
WITH toks AS (
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS toks
  FROM documents),
dl AS (SELECT doc_id, length(toks)::BIGINT AS dl FROM toks),
stats AS (SELECT count(*)::DOUBLE AS n, (sum(dl)::DOUBLE / count(*)) AS avgdl
          FROM dl),
tf AS (SELECT doc_id, token, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(toks) AS token FROM toks)
       WHERE token IN ('merge', 'sort', 'hash') GROUP BY doc_id, token),
df AS (SELECT token, count(*)::DOUBLE AS df FROM tf GROUP BY token),
sc AS (SELECT tf.doc_id,
         sum(CAST(floor(
           ln((n - df + 0.5::DOUBLE) / (df + 0.5::DOUBLE) + 1.0::DOUBLE)
           * (tf * ({BM25_K1}::DOUBLE + 1.0::DOUBLE)
              / (tf + {BM25_K1}::DOUBLE
                      * (1.0::DOUBLE - {BM25_B}::DOUBLE
                         + {BM25_B}::DOUBLE * dl.dl / avgdl)))
           * 1000000 + 0.5::DOUBLE) AS BIGINT))::BIGINT AS score_fp
       FROM tf JOIN df USING (token) JOIN dl USING (doc_id), stats
       GROUP BY tf.doc_id)
SELECT doc_id, score_fp FROM sc
ORDER BY score_fp DESC, doc_id LIMIT {BM25_TOPK}
"""


RRF_K = 60
HYBRID_TOPK = 10
HYBRID_QUERY_ID = KNN_QUERY_IDS[0]


def docs_hybrid_rrf(sf_dir):
    """Hybrid retrieval with reciprocal-rank fusion (Cormack et al.
    2009): the sparse BM25 ranking and the dense cosine ranking (one
    fixed query vector) fuse as sum of floor(1e9 / (60 + rank)) —
    integer RRF terms, exact under any order. List membership differs
    (BM25 ranks only matching docs; the dense side ranks every embedded
    doc), so the fusion is the engine's FULL OUTER ``shuffle_join``:
    docs on one list only keep that list's term, absent ranks report 0.
    Each ranking is one ``global_rank`` sort; the fusion is one bucketed
    exchange + a top-k with per-block pruning."""
    from ..functions.relational import global_rank, shuffle_join

    # sparse side: BM25 fixed-point scores -> dense 1-based rank
    sparse = _bm25_scores(sf_dir)

    def neg_sparse(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "neg_fp": -b["score_fp"].to_numpy(np.int64)})

    r_sparse = global_rank(
        sparse.map_batches(neg_sparse, batch_format="pandas"),
        ["neg_fp", "doc_id"], out_col="r_bm25")

    # dense side: cosine to the fixed query vector on the SAME normalize
    # + sql_round(…, 6) path the knn queries pin against DuckDB's
    # list_cosine_similarity, -> dense 1-based rank
    from ..functions.similarity import _as_matrix, _normalize
    from ..functions.sqlcompat import sql_round

    _, qmat = _query_vectors(sf_dir)
    qv = qmat[list(KNN_QUERY_IDS).index(HYBRID_QUERY_ID)]
    qn = _normalize(qv.reshape(1, -1))[0]

    def cos_batch(batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch.column("embedding")))
        cos = sql_round(m @ qn, 6)
        return pa.table({
            "doc_id": batch.column("vec_id"),
            "neg_cos": pa.array(-cos, pa.float64())})

    emb = _read_embeddings(sf_dir)
    r_dense = global_rank(emb.map_batches(cos_batch, batch_format="pyarrow"),
                          ["neg_cos", "doc_id"], out_col="r_cos")

    fused = shuffle_join(
        r_sparse.map_batches(lambda b: b[["doc_id", "r_bm25"]],
                             batch_format="pandas"),
        r_dense.map_batches(lambda b: b[["doc_id", "r_cos"]],
                            batch_format="pandas"),
        "doc_id", "doc_id", ["r_bm25"], ["r_cos"],
        how="full", rows_hint=_nrows(sf_dir, "documents"))

    def rrf(b: pd.DataFrame) -> pd.DataFrame:
        rb = b["r_bm25"].to_numpy(dtype=np.float64)
        rc = b["r_cos"].to_numpy(dtype=np.float64)
        term = np.zeros(len(b), dtype=np.int64)
        for r in (rb, rc):
            present = ~np.isnan(r)
            term[present] += (10 ** 9
                              // (RRF_K + r[present].astype(np.int64)))
        out = pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "r_bm25": np.nan_to_num(rb, nan=0.0).astype(np.int64),
            "r_cos": np.nan_to_num(rc, nan=0.0).astype(np.int64),
            "rrf_fp": term})
        return out.sort_values(["rrf_fp", "doc_id"],
                               ascending=[False, True]).head(HYBRID_TOPK)

    return (fused.map_batches(rrf, batch_format="pandas")
            .sort(["rrf_fp", "doc_id"], descending=[True, False])
            .limit(HYBRID_TOPK))


SQL_DOCS_HYBRID_RRF = rf"""
WITH toks AS (
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS toks
  FROM documents),
dl AS (SELECT doc_id, length(toks)::BIGINT AS dl FROM toks),
stats AS (SELECT count(*)::DOUBLE AS n, (sum(dl)::DOUBLE / count(*)) AS avgdl
          FROM dl),
tf AS (SELECT doc_id, token, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(toks) AS token FROM toks)
       WHERE token IN ('merge', 'sort', 'hash') GROUP BY doc_id, token),
df AS (SELECT token, count(*)::DOUBLE AS df FROM tf GROUP BY token),
sc AS (SELECT tf.doc_id,
         sum(CAST(floor(
           ln((n - df + 0.5::DOUBLE) / (df + 0.5::DOUBLE) + 1.0::DOUBLE)
           * (tf * ({BM25_K1}::DOUBLE + 1.0::DOUBLE)
              / (tf + {BM25_K1}::DOUBLE
                      * (1.0::DOUBLE - {BM25_B}::DOUBLE
                         + {BM25_B}::DOUBLE * dl.dl / avgdl)))
           * 1000000 + 0.5::DOUBLE) AS BIGINT))::BIGINT AS score_fp
       FROM tf JOIN df USING (token) JOIN dl USING (doc_id), stats
       GROUP BY tf.doc_id),
sr AS (SELECT doc_id,
              row_number() OVER (ORDER BY score_fp DESC, doc_id) AS r_bm25
       FROM sc),
q AS (SELECT embedding AS qe FROM embeddings
      WHERE vec_id = {HYBRID_QUERY_ID}),
cs AS (SELECT e.vec_id AS doc_id,
              round(list_cosine_similarity(
                  list_transform(q.qe, x -> x::DOUBLE),
                  list_transform(e.embedding, x -> x::DOUBLE)), 6) AS cos
       FROM embeddings e, q),
dr AS (SELECT doc_id,
              row_number() OVER (ORDER BY cos DESC, doc_id) AS r_cos
       FROM cs),
f AS (SELECT coalesce(sr.doc_id, dr.doc_id)::BIGINT AS doc_id,
             coalesce(r_bm25, 0)::BIGINT AS r_bm25,
             coalesce(r_cos, 0)::BIGINT AS r_cos,
             (CASE WHEN r_bm25 IS NULL THEN 0
                   ELSE 1000000000 // ({RRF_K} + r_bm25) END
              + CASE WHEN r_cos IS NULL THEN 0
                     ELSE 1000000000 // ({RRF_K} + r_cos) END)::BIGINT
               AS rrf_fp
      FROM sr FULL OUTER JOIN dr ON sr.doc_id = dr.doc_id)
SELECT doc_id, r_bm25, r_cos, rrf_fp FROM f
ORDER BY rrf_fp DESC, doc_id LIMIT {HYBRID_TOPK}
"""


BPE_MERGES = 12


def docs_bpe_learn(sf_dir):
    """BPE vocabulary induction (Sennrich et al. 2016): learn the first
    12 merges from the corpus. One corpus aggregation (word frequencies),
    then every merge round runs over the vocabulary table only. Output is
    the merge table — deterministic, so its oracle is a golden pin
    (pins.py), same contract as the model pipelines."""
    from ..functions.bpe import bpe_learn

    ds = _read(sf_dir, "documents", ["text"])
    return bpe_learn(ds, n_merges=BPE_MERGES,
                     rows_hint=16 * _nrows(sf_dir, "documents"))


JACCARD_T = 0.5


def docs_jaccard_pairs(sf_dir):
    """EXACT all-pairs Jaccard >= 0.5 self-join via prefix filtering
    (PPJoin): candidates bucket by rare prefix tokens only, verification
    is bucket-local, guaranteed recall by the prefix-filter theorem."""
    from ..functions.dedup import jaccard_pair_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return jaccard_pair_join(ds, threshold=JACCARD_T,
                             rows_hint=16 * _nrows(sf_dir, "documents"))


SQL_DOCS_JACCARD_PAIRS = rf"""
WITH tok AS (
  SELECT DISTINCT doc_id, token FROM (
    SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+'))
      AS token FROM documents)
  WHERE token <> ''),
n AS (SELECT doc_id, count(*)::BIGINT AS n FROM tok GROUP BY doc_id),
i AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*)::BIGINT AS c
      FROM tok x JOIN tok y ON x.token = y.token AND x.doc_id < y.doc_id
      GROUP BY x.doc_id, y.doc_id),
j AS (SELECT i.a, i.b,
             round(i.c / (na.n + nb.n - i.c)::DOUBLE, 6) AS jaccard
      FROM i JOIN n na ON na.doc_id = i.a JOIN n nb ON nb.doc_id = i.b)
SELECT a, b, jaccard FROM j WHERE jaccard >= {JACCARD_T}
"""


CONTAIN_T = 0.5        # containment threshold C(src->dst)
CONTAIN_DF_CAP = 64    # shingles seen in more docs than this are boilerplate


def docs_containment_pairs(sf_dir):
    """ASYMMETRIC containment self-join: ordered (src, dst) pairs where
    >= half of src's discriminative 3-shingles also appear in dst — the
    quote-inclusion / partial-mirror detector that symmetric Jaccard
    misses (a short doc embedded in a long one has tiny J but C ≈ 1).
    Bucket-by-shingle keeps pair generation df_cap^2-bounded per
    shingle; see functions/dedup.py::containment_pair_join."""
    from ..functions.dedup import containment_pair_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = containment_pair_join(
        ds, threshold=CONTAIN_T, df_cap=CONTAIN_DF_CAP,
        rows_hint=16 * _nrows(sf_dir, "documents")).to_pandas()
    return out.sort_values(["src", "dst"]).reset_index(drop=True)


SQL_DOCS_CONTAINMENT_PAIRS = rf"""
WITH t AS (SELECT doc_id,
  CASE WHEN trim(text)='' THEN []::VARCHAR[]
       ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
sh AS (
  SELECT DISTINCT doc_id, s FROM (
    SELECT doc_id, unnest(list_transform(range(1, length(toks)-1),
           i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS s
    FROM t WHERE length(toks) >= 3)),
df AS (SELECT s, count(*) AS df FROM sh GROUP BY s),
-- df = 1 shingles COUNT toward the denominator (a doc of unique
-- content must not look contained); only pair generation needs df >= 2
shk AS (SELECT sh.doc_id, sh.s, df.df FROM sh
        JOIN df ON sh.s = df.s WHERE df.df <= {CONTAIN_DF_CAP}),
sz AS (SELECT doc_id, count(*)::BIGINT AS sz FROM shk GROUP BY doc_id),
p AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*)::BIGINT AS n
      FROM shk x JOIN shk y ON x.s = y.s AND x.doc_id < y.doc_id
      WHERE x.df >= 2 GROUP BY x.doc_id, y.doc_id),
o AS (SELECT a AS src, b AS dst, n FROM p
      UNION ALL SELECT b, a, n FROM p),
c AS (SELECT o.src, o.dst, o.n AS n_shared, sz.sz AS src_size,
             round(o.n::DOUBLE / sz.sz::DOUBLE, 6) AS containment
      FROM o JOIN sz ON sz.doc_id = o.src)
SELECT src, dst, n_shared, src_size, containment
FROM c WHERE containment >= {CONTAIN_T} ORDER BY src, dst
"""


def docs_bpe_encode_stats(sf_dir):
    """Tokenize the corpus with the LEARNED BPE merges (the applied half
    of vocabulary induction): learn 12 merges, broadcast them, stream the
    corpus through a memoizing subword encoder — integer partial sums, so
    the result pins exactly. Compression ratio = n_subwords / n_words."""
    from ..functions.bpe import bpe_apply_stats, bpe_learn

    ds = _read(sf_dir, "documents", ["text"])
    merges = bpe_learn(ds, n_merges=BPE_MERGES,
                       rows_hint=16 * _nrows(sf_dir, "documents"))
    return bpe_apply_stats(ds, merges)


RANGE_PARTS = 8


def orders_range_layout(sf_dir):
    """Range-partitioned storage layout with EXACT quantile boundaries
    (one histogram pass): orders land under part=i by totalprice cents,
    then the layout is read back and aggregated per partition — the
    stats (n, min, max) are exactly what a pruning reader consults, and
    the balanced row counts prove the boundary math under skew."""
    import shutil

    import ray
    from ray.data.aggregate import Count, Max, Min

    from ..functions.storage import write_range_partitioned

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": df["o_orderkey"],
            "cents": np.floor(df["o_totalprice"].to_numpy() * 100
                              + 0.5).astype(np.int64)})

    cds = ds.map_batches(cents, batch_format="pandas")
    tag = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/range_orders_{tag}"
    shutil.rmtree(root, ignore_errors=True)
    write_range_partitioned(cds, "cents", root, n_parts=RANGE_PARTS)

    back = ray.data.read_parquet(root)
    out = back.groupby("part").aggregate(
        Count(alias_name="n_orders"),
        Min("cents", alias_name="min_cents"),
        Max("cents", alias_name="max_cents"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        return b.astype({"part": "int64", "n_orders": "int64",
                         "min_cents": "int64", "max_cents": "int64"})

    return out.map_batches(fin, batch_format="pandas")


SQL_ORDERS_RANGE_LAYOUT = f"""
WITH v AS (SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
           FROM orders),
h AS (SELECT cents AS c, count(*)::BIGINT AS cnt FROM v GROUP BY cents),
s AS (SELECT c, sum(cnt) OVER (ORDER BY c)::BIGINT AS cum FROM h),
n AS (SELECT count(*)::BIGINT AS n FROM v),
b AS (SELECT i, (SELECT min(c) FROM s
                 WHERE cum >= (n.n * i + {RANGE_PARTS} - 1)
                              // {RANGE_PARTS}) AS boundary
      FROM range(1, {RANGE_PARTS}) t(i), n),
p AS (SELECT cents,
             (SELECT count(*) FROM b WHERE boundary <= cents)::BIGINT
             AS part FROM v)
SELECT part, count(*)::BIGINT AS n_orders, min(cents)::BIGINT AS min_cents,
       max(cents)::BIGINT AS max_cents
FROM p GROUP BY part
"""


def events_user_trend(sf_dir):
    """Per-user linear trend — least-squares slope of value over time —
    in EXACT integer arithmetic: x = epoch day, y = value cents, the
    five sufficient statistics (n, Σx, Σy, Σxy, Σx²) aggregate as
    map-side integer partials, and slope_fp = trunc(10⁶·(nΣxy−ΣxΣy) /
    (nΣx²−(Σx)²)) is computed with arbitrary-precision ints on the tiny
    per-user aggregate (and HUGEINT in the oracle) — no float summation
    order anywhere. Degenerate-x users drop."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = (df["ts"].to_numpy().astype("datetime64[us]")
             .astype(np.int64) // 86_400_000_000)
        y = np.floor(df["value"].to_numpy() * 100 + 0.5).astype(np.int64)
        out = pd.DataFrame({"user_id": df["user_id"], "n": np.int64(1),
                            "sx": x, "sy": y, "sxy": x * y, "sxx": x * x})
        return (out.groupby("user_id", as_index=False)
                .agg(n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
                     sxy=("sxy", "sum"), sxx=("sxx", "sum")))

    agg = (ev.map_batches(partial, batch_format="pandas")
           .groupby("user_id").aggregate(
               Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
               Sum("sy", alias_name="sy"), Sum("sxy", alias_name="sxy"),
               Sum("sxx", alias_name="sxx")))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for u, n, sx, sy, sxy, sxx in zip(b["user_id"], b["n"], b["sx"],
                                          b["sy"], b["sxy"], b["sxx"]):
            n, sx, sy, sxy, sxx = (int(n), int(sx), int(sy), int(sxy),
                                   int(sxx))
            den = n * sxx - sx * sx
            if den <= 0:
                continue
            num = 10 ** 6 * (n * sxy - sx * sy)
            q = abs(num) // den
            rows.append((int(u), n, -q if num < 0 else q))
        return pd.DataFrame(rows, columns=["user_id", "n", "slope_fp"]) \
            .astype({"user_id": "int64", "n": "int64",
                     "slope_fp": "int64"})

    return agg.map_batches(fin, batch_format="pandas")


SQL_EVENTS_USER_TREND = """
WITH v AS (SELECT user_id,
                  (epoch_us(ts) // 86400000000)::BIGINT AS x,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
           FROM events),
a AS (SELECT user_id, count(*)::BIGINT AS n, sum(x)::BIGINT AS sx,
             sum(y)::BIGINT AS sy, sum(x * y)::BIGINT AS sxy,
             sum(x * x)::BIGINT AS sxx
      FROM v GROUP BY user_id)
SELECT user_id, n,
       CAST((1000000::HUGEINT * (n::HUGEINT * sxy - sx::HUGEINT * sy))
            // (n::HUGEINT * sxx - sx::HUGEINT * sx) AS BIGINT)
           AS slope_fp
FROM a WHERE n::HUGEINT * sxx - sx::HUGEINT * sx > 0
"""


def docs_compression_stats(sf_dir):
    """Compression-ratio quality signal (the Dolma/RefinedWeb gzip
    heuristic: highly compressible text is repetitive boilerplate, and
    incompressible text is noise). Per-doc zlib-level-6 compressed sizes
    sum map-side into one integer row (n_docs, text_bytes,
    compressed_bytes) — deterministic for a fixed zlib level, so the
    value oracle is a golden pin (pins.py), same contract as the model
    pipelines (SQL cannot replay DEFLATE)."""
    import zlib

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = [t.encode() for t in batch.column("text").to_pylist()]
        comp = sum(len(zlib.compress(t, 6)) for t in texts)
        return pa.table({
            "n_docs": pa.array([len(texts)], pa.int64()),
            "text_bytes": pa.array([sum(len(t) for t in texts)],
                                   pa.int64()),
            "compressed_bytes": pa.array([comp], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({
        "n_docs": pd.Series([int(parts["n_docs"].sum())], dtype="int64"),
        "text_bytes": pd.Series([int(parts["text_bytes"].sum())],
                                dtype="int64"),
        "compressed_bytes":
            pd.Series([int(parts["compressed_bytes"].sum())],
                      dtype="int64")})


LATENESS_S = 604800  # 7-day allowed lateness


def events_late_flags(sf_dir):
    """Watermark / late-data semantics re-expressed in batch: process
    each user's events in ARRIVAL order, keep a running watermark =
    max event-time seen so far − allowed lateness, and flag events
    whose event-time falls behind it. The testdata is fully ts-ordered
    (real arrival order has zero late rows), so arrival is simulated by
    the deterministic md5 permutation of event ids — the engine-wide
    convention for reproducible draws. Bucketed per user, sorted in
    partition, vectorized shifted-cummax (SURVEY §2.7)."""
    import hashlib

    from ..functions.relational import hash_bucket_aggregate

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    late_us = np.int64(LATENESS_S) * 1_000_000

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_arr=[hashlib.md5(str(int(e)).encode()).hexdigest()
                           for e in g["event_id"]])
        g = g.sort_values(["user_id", "_arr"])
        ts = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        run = (pd.Series(ts).groupby(g["user_id"].to_numpy())
               .transform(lambda s: s.cummax().shift(1)))
        late = ts + late_us < run.to_numpy()
        return pd.DataFrame({"event_id": g["event_id"],
                             "user_id": g["user_id"],
                             "is_late": np.where(np.isnan(run), False,
                                                 late)})

    return hash_bucket_aggregate(ev, ["user_id"], per_bucket,
                                 rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_LATE_FLAGS = f"""
WITH w AS (SELECT event_id, user_id, epoch_us(ts) AS t,
                  max(epoch_us(ts)) OVER (PARTITION BY user_id
                      ORDER BY md5(event_id::VARCHAR)
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                      AS wm
           FROM events)
SELECT event_id, user_id,
       coalesce(t + {LATENESS_S}::BIGINT * 1000000 < wm, FALSE)
           AS is_late
FROM w
"""


def embed_triplet_mine(sf_dir):
    """Corpus-global hard-triplet mining (batch-hard selection, Hermans
    et al. 2017): per anchor, the most-similar same-label positive and
    most-similar different-label hard negative, ties broken by
    (−cosine, id) on 1e-6-rounded cosines so SQL row_number replays the
    choice exactly."""
    from ..functions.similarity import triplet_mine

    n = _nrows(sf_dir, "embeddings")
    emb = _rd().read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        override_num_blocks=max(1, min(32, n // 256)))
    out = triplet_mine(emb).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


SQL_EMBED_TRIPLET_MINE = """
WITH s AS (SELECT a.vec_id, a.label AS la, b.vec_id AS bid,
                  b.label AS lb,
                  round(list_cosine_similarity(
                      list_transform(a.embedding, x -> x::DOUBLE),
                      list_transform(b.embedding, x -> x::DOUBLE)),
                        6) AS cos
           FROM embeddings a JOIN embeddings b
             ON a.vec_id <> b.vec_id),
pos AS (SELECT vec_id, bid AS pos_id, cos AS pos_cos,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY cos DESC, bid) AS rn
        FROM s WHERE la = lb),
neg AS (SELECT vec_id, bid AS neg_id, cos AS neg_cos,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY cos DESC, bid) AS rn
        FROM s WHERE la <> lb)
SELECT p.vec_id, p.pos_id, p.pos_cos, n.neg_id, n.neg_cos
FROM (SELECT * FROM pos WHERE rn = 1) p
JOIN (SELECT * FROM neg WHERE rn = 1) n USING (vec_id)
"""


WINSOR_Q = 20  # clip at the exact 1/20 and 19/20 quantiles (p5 / p95)


def events_value_winsorized(sf_dir):
    """Winsorized robust aggregate (outlier-clipped sums — the data-
    cleaning companion to the z-score outlier query): event values
    quantize once to integer cents, the EXACT p5/p95 bounds come from
    one distributed histogram pass (``exact_int_quantiles`` definition:
    smallest value whose cumulative count reaches ceil(n·q)), every
    value clips to [lo, hi], and per-type (n, clipped sum) aggregates in
    pure integers — bit-replayable in SQL via the same cum-hist
    quantile."""
    from ray.data.aggregate import Sum

    from ..functions.sketches import exact_int_quantiles

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "c": np.floor(df["value"].to_numpy() * 100
                          + 0.5).astype(np.int64)})

    cds = ev.map_batches(cents, batch_format="pandas")
    qs = exact_int_quantiles(cds, "c", WINSOR_Q)
    lo, hi = qs[0], qs[-1]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cl = np.clip(df["c"].to_numpy(), lo, hi)
        out = pd.DataFrame({"event_type": df["event_type"], "w": cl})
        return (out.groupby("event_type", as_index=False)
                .agg(n=("w", "size"), wsum_cents=("w", "sum")))

    parts = cds.map_batches(partial, batch_format="pandas")
    out = parts.groupby("event_type").aggregate(
        Sum("n", alias_name="n"),
        Sum("wsum_cents", alias_name="wsum_cents"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        return b.astype({"n": "int64", "wsum_cents": "int64"})

    return out.map_batches(fin, batch_format="pandas")


SQL_EVENTS_VALUE_WINSORIZED = f"""
WITH v AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
           FROM events),
h AS (SELECT c, count(*)::BIGINT AS cnt FROM v GROUP BY c),
s AS (SELECT c, sum(cnt) OVER (ORDER BY c)::BIGINT AS cum FROM h),
n AS (SELECT count(*)::BIGINT AS n FROM v),
b AS (SELECT
  (SELECT min(c) FROM s, n WHERE cum >= (n.n * 1 + {WINSOR_Q} - 1)
                                        // {WINSOR_Q}) AS lo,
  (SELECT min(c) FROM s, n WHERE cum >= (n.n * {WINSOR_Q - 1}
                                         + {WINSOR_Q} - 1)
                                        // {WINSOR_Q}) AS hi)
SELECT event_type, count(*)::BIGINT AS n,
       sum(least(greatest(c, b.lo), b.hi))::BIGINT AS wsum_cents
FROM v, b GROUP BY event_type
"""


Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1998-01-01"


def q5_local_supplier_revenue(sf_dir):
    """TPC-H Q5 analog — the classic six-table star composition: revenue
    from lineitems whose supplier sits in the CUSTOMER's (Asian) nation,
    for orders in a two-year window. Shape: ONE fact⋈fact shuffle
    (lineitem ⋈ date-filtered orders on orderkey); every dimension
    (customer→nation, supplier→nation, region-filtered nations)
    broadcasts and applies map-side, including the local-supplier
    equality filter; per-nation revenue pre-aggregates in each batch
    before the tiny final groupby."""
    from ray.data.aggregate import Sum

    from ..functions.relational import broadcast_join, shuffle_join

    nation = _small(sf_dir, "nation",
                    ["n_nationkey", "n_name", "n_regionkey"])
    region = _small(sf_dir, "region", ["r_regionkey", "r_name"])
    nmap = nation.merge(region, left_on="n_regionkey",
                        right_on="r_regionkey")
    nmap = nmap[nmap["r_name"] == Q5_REGION][["n_nationkey", "n_name"]]
    cust = _small(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust_dim = (cust.merge(nmap, left_on="c_nationkey",
                           right_on="n_nationkey")
                [["c_custkey", "c_nationkey"]]
                .rename(columns={"c_custkey": "o_custkey"}))
    supp = _small(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .rename(columns={"s_suppkey": "l_suppkey"})

    lo = np.datetime64(Q5_DATE_LO)
    hi = np.datetime64(Q5_DATE_HI)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def ofilt(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["o_orderdate"].to_numpy().astype("datetime64[us]")
        return df.loc[(ts >= lo) & (ts < hi),
                      ["o_orderkey", "o_custkey"]]

    orders_f = broadcast_join(
        orders.map_batches(ofilt, batch_format="pandas"), cust_dim,
        on="o_custkey")

    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_suppkey", "l_extendedprice",
                  "l_discount"], rows_per_block=65536)

    def lmap(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"],
            "l_suppkey": df["l_suppkey"],
            "revenue": df["l_extendedprice"].to_numpy()
            * (1.0 - df["l_discount"].to_numpy())})

    joined = shuffle_join(line.map_batches(lmap, batch_format="pandas"),
                          orders_f, "l_orderkey", "o_orderkey",
                          ["l_suppkey", "revenue"], ["c_nationkey"],
                          rows_hint=_nrows(sf_dir, "lineitem"))

    sref_df = supp

    def local_partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"c_nationkey": pd.Series([], "int64"),
                                 "revenue": pd.Series([], "float64")})
        m = df.merge(sref_df, on="l_suppkey")
        m = m[m["s_nationkey"].to_numpy()
              == m["c_nationkey"].to_numpy()]
        return (m.groupby("c_nationkey", as_index=False)
                .agg(revenue=("revenue", "sum")))

    parts = joined.map_batches(local_partial, batch_format="pandas")
    out = parts.groupby("c_nationkey").aggregate(
        Sum("revenue", alias_name="revenue"))

    names = dict(zip(nmap["n_nationkey"], nmap["n_name"]))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_name": [names[int(k)] for k in b["c_nationkey"]],
            "revenue": sql_round(b["revenue"], 2)})

    return out.map_batches(fin, batch_format="pandas")


SQL_Q5_LOCAL_SUPPLIER_REVENUE = f"""
SELECT n_name,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation   ON c_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = '{Q5_REGION}'
  AND o_orderdate >= TIMESTAMP '{Q5_DATE_LO}'
  AND o_orderdate <  TIMESTAMP '{Q5_DATE_HI}'
GROUP BY n_name
"""


def docs_version_diff(sf_dir):
    """Snapshot diff between two corpus versions (dataset-versioning
    audit): v2 is derived deterministically from v1 — every 11th doc
    removed, every 13th rewritten, every 17th duplicated under a new key
    — so all four statuses appear. Only (key, 16-byte content hash)
    rows shuffle; table_diff resolves each bucket with one vectorized
    outer merge."""
    import hashlib

    from ..functions.relational import table_diff

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def md5s(texts) -> list:
        return [hashlib.md5(t.encode()).hexdigest() for t in texts]

    def v1(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "h": md5s(df["text"])})

    def v2(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["doc_id"] % 11 != 0]
        texts = [t + " v2" if k % 13 == 0 else t
                 for k, t in zip(keep["doc_id"], keep["text"])]
        base = pd.DataFrame({"doc_id": keep["doc_id"],
                             "h": md5s(texts)})
        dup = df[df["doc_id"] % 17 == 0]
        added = pd.DataFrame({"doc_id": dup["doc_id"] + 1_000_000,
                              "h": md5s(dup["text"])})
        return pd.concat([base, added], ignore_index=True)

    old = ds.map_batches(v1, batch_format="pandas")
    new = ds.map_batches(v2, batch_format="pandas")
    out = table_diff(old, new, "doc_id", "h",
                     rows_hint=_nrows(sf_dir, "documents"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "status": pd.Series([], dtype="object")})
        return df.astype({"doc_id": "int64"})

    return out.map_batches(fin, batch_format="pandas")


SQL_DOCS_VERSION_DIFF = """
WITH vo AS (SELECT doc_id, md5(text) AS h FROM documents),
vn AS (SELECT doc_id,
              md5(CASE WHEN doc_id % 13 = 0 THEN text || ' v2'
                       ELSE text END) AS h
       FROM documents WHERE doc_id % 11 <> 0
       UNION ALL
       SELECT doc_id + 1000000, md5(text) FROM documents
       WHERE doc_id % 17 = 0)
SELECT coalesce(vo.doc_id, vn.doc_id)::BIGINT AS doc_id,
       CASE WHEN vo.doc_id IS NULL THEN 'added'
            WHEN vn.doc_id IS NULL THEN 'removed'
            WHEN vo.h = vn.h THEN 'unchanged'
            ELSE 'changed' END AS status
FROM vo FULL OUTER JOIN vn ON vo.doc_id = vn.doc_id
"""


KNN_GRAPH_K = 3


def knn_graph_query(sf_dir):
    """Exact self-kNN graph (top-3 cosine neighbors per vector, self
    excluded) — SemDeDup's first step. Broadcast-corpus one-pass path;
    at 100 TB the IVF/LSH candidate stages bound the neighbor scan."""
    from ..functions.similarity import knn_graph

    emb = _read_embeddings(sf_dir)
    out = knn_graph(emb, k=KNN_GRAPH_K).to_pandas()
    return out.sort_values(["vec_id", "rank"]).reset_index(drop=True)


SQL_KNN_GRAPH = f"""
WITH s AS (SELECT a.vec_id, b.vec_id AS neighbor_id,
                  round(list_cosine_similarity(
                      list_transform(a.embedding, x -> x::DOUBLE),
                      list_transform(b.embedding, x -> x::DOUBLE)),
                        6) AS cosine
           FROM embeddings a JOIN embeddings b
             ON a.vec_id <> b.vec_id),
r AS (SELECT *, row_number() OVER (PARTITION BY vec_id
          ORDER BY cosine DESC, neighbor_id) AS rank FROM s)
SELECT vec_id, neighbor_id, cosine, rank FROM r
WHERE rank <= {KNN_GRAPH_K}
"""


def docs_ngram_novelty(sf_dir):
    """Novelty of an incoming shard: the share of its distinct 3-gram
    shingles unseen anywhere in the already-ingested corpus (doc_id%5
    split, same delta convention as the incremental dedup) — the 'is
    today's crawl new text or recycled boilerplate' signal. Distinct
    shingles dedupe through one bucketed pass per side; the unseen set
    rides the size-gated anti-join. One integer row."""
    from ..functions.relational import anti_join, hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def shingles(want_new: bool):
        def fn(batch: pa.Table) -> pa.Table:
            grams = set()
            for k, t in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
                if (k % 5 == 0) != want_new:
                    continue
                toks = t.split()
                if len(toks) < 3:
                    if toks:
                        grams.add(" ".join(toks))
                    continue
                grams.update(" ".join(toks[i:i + 3])
                             for i in range(len(toks) - 2))
            return pa.table({"g": pa.array(sorted(grams), pa.string())})
        return fn

    def uniq(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates("g")

    rows_hint = 64 * _nrows(sf_dir, "documents")
    new_g = hash_bucket_aggregate(
        ds.map_batches(shingles(True), batch_format="pyarrow"), ["g"],
        uniq, rows_hint=rows_hint)
    old_g = hash_bucket_aggregate(
        ds.map_batches(shingles(False), batch_format="pyarrow"), ["g"],
        uniq, rows_hint=rows_hint)
    n_new = new_g.count()
    n_unseen = anti_join(new_g, old_g, "g", [],
                         rows_hint=rows_hint).count()
    return pd.DataFrame({
        "n_delta_grams": pd.Series([int(n_new)], dtype="int64"),
        "n_unseen_grams": pd.Series([int(n_unseen)], dtype="int64")})


SQL_DOCS_NGRAM_NOVELTY = r"""
WITH t AS (SELECT doc_id,
  CASE WHEN trim(text) = '' THEN []::VARCHAR[]
       ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
grams AS (
  SELECT doc_id, unnest(
    CASE WHEN length(toks) < 3 THEN
           CASE WHEN length(toks) = 0 THEN []::VARCHAR[]
                ELSE [array_to_string(toks, ' ')] END
    ELSE list_transform(range(1, length(toks) - 1),
         i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) END) AS g
  FROM t),
newg AS (SELECT DISTINCT g FROM grams WHERE doc_id % 5 = 0),
oldg AS (SELECT DISTINCT g FROM grams WHERE doc_id % 5 <> 0)
SELECT (SELECT count(*) FROM newg)::BIGINT AS n_delta_grams,
       (SELECT count(*) FROM (SELECT g FROM newg EXCEPT
                              SELECT g FROM oldg))::BIGINT
           AS n_unseen_grams
"""


PROX_WINDOW_US = 3_600_000_000  # 1 hour
CONVERSION_WINDOW_US = 72 * 3_600_000_000  # 72 h attribution window


def events_timed_conversion(sf_dir):
    """Timed conversion funnel: users whose FIRST purchase lands within
    the 72-hour attribution window after their FIRST click —
    order-independent min partials per user (no per-user sort), then a
    vectorized time-window test.
    Unlike the proximity join this anchors on the first touch, the
    attribution-window semantics ad pipelines use."""
    from ..functions.relational import hash_bucket_aggregate

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["event_type"].isin(["click", "purchase"])
        df = df[keep]
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame({"user_id": df["user_id"],
                             "event_type": df["event_type"], "t": t})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, grp in g.groupby("user_id", sort=False):
            clicks = grp.loc[grp["event_type"] == "click", "t"]
            if clicks.empty:
                continue
            fc = int(clicks.min())
            buys = grp.loc[(grp["event_type"] == "purchase")
                           & (grp["t"] >= fc), "t"]
            if buys.empty:
                continue
            fp = int(buys.min())
            if fp - fc <= CONVERSION_WINDOW_US:
                rows.append((int(uid), fc, fp, fp - fc))
        return pd.DataFrame(rows, columns=["user_id", "first_click_us",
                                           "first_purchase_us",
                                           "gap_us"]) \
            .astype("int64") if rows else pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("user_id", "first_click_us", "first_purchase_us",
                       "gap_us")})

    return hash_bucket_aggregate(
        ev.map_batches(prep, batch_format="pandas"), ["user_id"],
        per_bucket, rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_TIMED_CONVERSION = f"""
WITH c AS (SELECT user_id, min(epoch_us(ts)) AS fc FROM events
           WHERE event_type = 'click' GROUP BY user_id),
p AS (SELECT e.user_id, min(epoch_us(e.ts)) AS fp
      FROM events e JOIN c ON c.user_id = e.user_id
      WHERE e.event_type = 'purchase' AND epoch_us(e.ts) >= c.fc
      GROUP BY e.user_id)
SELECT c.user_id, c.fc AS first_click_us, p.fp AS first_purchase_us,
       (p.fp - c.fc)::BIGINT AS gap_us
FROM c JOIN p USING (user_id)
WHERE p.fp - c.fc <= {CONVERSION_WINDOW_US}
"""


ATTRIBUTION_WINDOW_US = CONVERSION_WINDOW_US
ATTRIBUTION_SCALE = 10 ** 6


def events_attribution_credit(sf_dir):
    """Linear multi-touch attribution — the ad-pipeline credit split:
    each user's FIRST purchase distributes one unit of credit equally
    across their DISTINCT click timestamps inside the 72 h window ending
    at the purchase. Credit is exact integer micro-units
    (``scale // n`` per click, remainder to the EARLIEST click) so the
    distributed result hash-matches SQL under any partitioning. One
    user-keyed bucket shuffle; per-user work is bounded by the user's
    own event count."""
    from ..functions.relational import hash_bucket_aggregate

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["event_type"].isin(["click", "purchase"])
        df = df[keep]
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame({"user_id": df["user_id"],
                             "event_type": df["event_type"], "t": t})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, grp in g.groupby("user_id", sort=False):
            buys = grp.loc[grp["event_type"] == "purchase", "t"]
            if buys.empty:
                continue
            fp = int(buys.min())
            c = grp.loc[(grp["event_type"] == "click")
                        & (grp["t"] <= fp)
                        & (grp["t"] >= fp - ATTRIBUTION_WINDOW_US), "t"]
            clicks = np.unique(c.to_numpy(np.int64))
            n = len(clicks)
            if not n:
                continue
            base, rem = divmod(ATTRIBUTION_SCALE, n)
            for i, t in enumerate(clicks):
                rows.append((int(uid), int(t),
                             base + (rem if i == 0 else 0)))
        cols = ("user_id", "click_us", "credit_micro")
        return pd.DataFrame(rows, columns=cols).astype("int64") if rows \
            else pd.DataFrame({c: pd.Series([], dtype="int64")
                               for c in cols})

    return hash_bucket_aggregate(
        ev.map_batches(prep, batch_format="pandas"), ["user_id"],
        per_bucket, rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_ATTRIBUTION_CREDIT = f"""
WITH fp AS (SELECT user_id, min(epoch_us(ts)) AS fp FROM events
            WHERE event_type = 'purchase' GROUP BY user_id),
c AS (SELECT DISTINCT e.user_id, epoch_us(e.ts) AS t
      FROM events e JOIN fp USING (user_id)
      WHERE e.event_type = 'click' AND epoch_us(e.ts) <= fp.fp
        AND epoch_us(e.ts) >= fp.fp - {ATTRIBUTION_WINDOW_US}),
n AS (SELECT user_id, count(*)::BIGINT AS n, min(t) AS t0
      FROM c GROUP BY user_id)
SELECT c.user_id, c.t AS click_us,
       ({ATTRIBUTION_SCALE} // n.n
        + CASE WHEN c.t = n.t0 THEN {ATTRIBUTION_SCALE} % n.n
               ELSE 0 END)::BIGINT AS credit_micro
FROM c JOIN n USING (user_id)
"""


def docs_source_concentration(sf_dir):
    """Corpus-diversity concentration metrics: the Herfindahl–Hirschman
    index (Σ share²) and top-1 share over source sizes, integer
    fixed-point (1e6 grid, truncating division) so the single-row result
    replays exactly. A feed-concentration alarm for curation: HHI → 1e6
    means one source dominates the corpus."""
    from ray.data.aggregate import Count

    counts = (_read(sf_dir, "documents", ["source"])
              .groupby("source").aggregate(Count(alias_name="n"))
              .to_pandas())
    c = counts["n"].astype("int64").to_numpy()
    t = int(c.sum())
    hhi_fp = int((10 ** 6 * int((c.astype(object) ** 2).sum())) // (t * t))
    top1_fp = int((10 ** 6 * int(c.max())) // t)
    return pd.DataFrame({
        "n_sources": pd.Series([len(c)], dtype="int64"),
        "hhi_fp": pd.Series([hhi_fp], dtype="int64"),
        "top1_share_fp": pd.Series([top1_fp], dtype="int64")})


SQL_DOCS_SOURCE_CONCENTRATION = """
WITH c AS (SELECT source, count(*)::BIGINT AS n FROM documents
           GROUP BY source),
t AS (SELECT sum(n)::BIGINT AS t FROM c)
SELECT (SELECT count(*) FROM c)::BIGINT AS n_sources,
       CAST((1000000::HUGEINT * (SELECT sum(n::HUGEINT * n) FROM c))
            // ((SELECT t FROM t)::HUGEINT * (SELECT t FROM t))
            AS BIGINT) AS hhi_fp,
       CAST((1000000::HUGEINT * (SELECT max(n) FROM c))
            // (SELECT t FROM t) AS BIGINT) AS top1_share_fp
"""


def docs_cdc_apply(sf_dir):
    """CDC MERGE: fold a deterministic change stream (every 11th doc
    deleted, every 13th upserted with rewritten content, every 17th
    inserted under a new key — the same derivation the snapshot-diff
    query audits) onto the corpus and emit the NEXT snapshot's
    (doc_id, content hash). One bucketed shuffle of (key, 16-byte hash)
    rows; any change beats its base row."""
    import hashlib

    from ..functions.relational import apply_changes

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def md5s(texts) -> list:
        return [hashlib.md5(t.encode()).hexdigest() for t in texts]

    def base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "h": md5s(df["text"])})

    def changes(df: pd.DataFrame) -> pd.DataFrame:
        dels = df[df["doc_id"] % 11 == 0]
        outs = [pd.DataFrame({"doc_id": dels["doc_id"],
                              "h": "", "op": "delete"})]
        ups = df[(df["doc_id"] % 13 == 0) & (df["doc_id"] % 11 != 0)]
        outs.append(pd.DataFrame({
            "doc_id": ups["doc_id"],
            "h": md5s(t + " v2" for t in ups["text"]), "op": "upsert"}))
        ins = df[df["doc_id"] % 17 == 0]
        outs.append(pd.DataFrame({
            "doc_id": ins["doc_id"] + 1_000_000,
            "h": md5s(ins["text"]), "op": "upsert"}))
        return pd.concat(outs, ignore_index=True)

    out = apply_changes(ds.map_batches(base, batch_format="pandas"),
                        ds.map_batches(changes, batch_format="pandas"),
                        "doc_id", "h",
                        rows_hint=_nrows(sf_dir, "documents"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "h": pd.Series([], dtype=object)})
        return df.astype({"doc_id": "int64"})

    return out.map_batches(fin, batch_format="pandas")


SQL_DOCS_CDC_APPLY = """
SELECT doc_id,
       md5(CASE WHEN doc_id % 13 = 0 THEN text || ' v2' ELSE text END)
           AS h
FROM documents WHERE doc_id % 11 <> 0
UNION ALL
SELECT doc_id + 1000000, md5(text) FROM documents WHERE doc_id % 17 = 0
"""


QC_PRICE_HI = 400_000.0


def orders_quality_checks(sf_dir):
    """Data-quality expectations report (Deequ / Great-Expectations
    family): uniqueness, null, range, accepted-values and referential-
    integrity checks over orders, each a streaming aggregate (uniqueness
    is the one bucketed shuffle — of (value, count) pairs only; the FK
    check rides the size-gated anti-join). The range and accepted-values
    expectations are deliberately strict so the report shows both
    passing and failing rows."""
    from ..functions.expectations import (check_accepted_values,
                                          check_foreign_key,
                                          check_in_range, check_not_null,
                                          check_unique, run_checks)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderstatus",
                    "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey"])
    n = _nrows(sf_dir, "orders")
    return run_checks([
        ("unique_orderkey", check_unique(orders, "o_orderkey",
                                         rows_hint=n)),
        ("not_null_custkey", check_not_null(orders, "o_custkey")),
        ("price_in_range", check_in_range(orders, "o_totalprice",
                                          0.0, QC_PRICE_HI)),
        ("status_accepted", check_accepted_values(orders,
                                                  "o_orderstatus",
                                                  ("O", "F"))),
        ("fk_custkey", check_foreign_key(orders, cust, "o_custkey",
                                         "c_custkey", rows_hint=n)),
    ])


SQL_ORDERS_QUALITY_CHECKS = f"""
WITH v AS (
  SELECT 'unique_orderkey' AS chk,
         (count(*) - count(DISTINCT o_orderkey))::BIGINT AS n_violations
  FROM orders
  UNION ALL
  SELECT 'not_null_custkey',
         count(*) FILTER (WHERE o_custkey IS NULL)::BIGINT FROM orders
  UNION ALL
  SELECT 'price_in_range',
         count(*) FILTER (WHERE o_totalprice IS NULL
                             OR o_totalprice < 0.0
                             OR o_totalprice > {QC_PRICE_HI})::BIGINT
  FROM orders
  UNION ALL
  SELECT 'status_accepted',
         count(*) FILTER (WHERE o_orderstatus NOT IN ('O', 'F'))::BIGINT
  FROM orders
  UNION ALL
  SELECT 'fk_custkey',
         (SELECT count(*) FROM orders o
          WHERE NOT EXISTS (SELECT 1 FROM customer c
                            WHERE c.c_custkey = o.o_custkey))::BIGINT)
SELECT chk, n_violations, n_violations = 0 AS passed FROM v
"""


def events_daily_resample_ffill(sf_dir):
    """Time-series gap filling: resample each user's event stream to a
    daily grid (their min→max day) carrying the last observed value
    forward — the classic forward-fill ETL op. Bucketed per user; in
    the bucket each user's calendar expands and one ``searchsorted``
    against the (ts, event_id)-ordered events picks the as-of value per
    day (duplicate-day winner = max (ts, event_id), mirrored by the
    oracle's row_number). Values in integer cents."""
    from ..functions.relational import hash_bucket_aggregate

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame({
            "user_id": df["user_id"], "event_id": df["event_id"],
            "t": t, "d": t // 86_400_000_000,
            "v": np.floor(df["value"].to_numpy() * 100
                          + 0.5).astype(np.int64)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, grp in g.groupby("user_id", sort=False):
            grp = grp.sort_values(["t", "event_id"])
            days = grp["d"].to_numpy()
            vals = grp["v"].to_numpy()
            cal = np.arange(days.min(), days.max() + 1)
            idx = np.searchsorted(days, cal, side="right") - 1
            outs.append(pd.DataFrame({
                "user_id": np.repeat(uid, len(cal)),
                "day": cal, "value_cents": vals[idx],
                "observed": np.isin(cal, days)}))
        if not outs:
            return pd.DataFrame({
                "user_id": pd.Series([], dtype="int64"),
                "day": pd.Series([], dtype="int64"),
                "value_cents": pd.Series([], dtype="int64"),
                "observed": pd.Series([], dtype="bool")})
        return pd.concat(outs, ignore_index=True)

    return hash_bucket_aggregate(
        ev.map_batches(prep, batch_format="pandas"), ["user_id"],
        per_bucket, rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_DAILY_RESAMPLE_FFILL = """
WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS t,
                  (epoch_us(ts) // 86400000000)::BIGINT AS d,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
           FROM events),
b AS (SELECT user_id, min(d) AS lo, max(d) AS hi FROM e
      GROUP BY user_id),
cal AS (SELECT user_id, unnest(range(lo, hi + 1)) AS day FROM b),
ld AS (SELECT user_id, d AS day, v,
              row_number() OVER (PARTITION BY user_id, d
                                 ORDER BY t DESC, event_id DESC) AS rn
       FROM e)
SELECT c.user_id, c.day,
       last_value(ld.v IGNORE NULLS) OVER (
           PARTITION BY c.user_id ORDER BY c.day
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS value_cents,
       ld.v IS NOT NULL AS observed
FROM cal c LEFT JOIN (SELECT * FROM ld WHERE rn = 1) ld
  ON ld.user_id = c.user_id AND ld.day = c.day
"""


PUSHDOWN_MIN_PRICE = 400_000.0


def orders_pushdown_filter_agg(sf_dir):
    """Predicate pushdown at the parquet scan: the row filter evaluates
    inside the read (PyArrow dataset filter — row groups whose min/max
    statistics exclude the band never decompress), so only qualifying
    rows ever enter the pipeline. Per-priority counts + revenue over
    orders above 400k prove the scan."""
    import pyarrow.dataset as pads
    from ray.data.aggregate import Sum

    ds = _rd().read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"],
        filter=pads.field("o_totalprice") >= PUSHDOWN_MIN_PRICE)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("o_orderpriority", as_index=False)
                .agg(n_orders=("o_totalprice", "size"),
                     revenue=("o_totalprice", "sum")))

    parts = ds.map_batches(partial, batch_format="pandas")
    out = parts.groupby("o_orderpriority").aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("revenue", alias_name="revenue"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b["n_orders"] = b["n_orders"].astype("int64")
        b["revenue"] = sql_round(b["revenue"], 2)
        return b

    return out.map_batches(fin, batch_format="pandas")


SQL_ORDERS_PUSHDOWN_FILTER_AGG = f"""
SELECT o_orderpriority, count(*)::BIGINT AS n_orders,
       round(sum(o_totalprice), 2) AS revenue
FROM orders WHERE o_totalprice >= {PUSHDOWN_MIN_PRICE}
GROUP BY o_orderpriority
"""


def docs_exact_stratified_split(sf_dir):
    """EXACT-size stratified train/val/test split (80/10/10 per
    language): docs rank inside their stratum by the deterministic md5
    draw and the first ⌊0.8n⌋ / next up-to-⌊0.9n⌋ / rest become
    train/val/test — rank-based, so split sizes are exact per stratum
    (unlike the probabilistic ``hash_split``, whose sizes are only
    exact in expectation). Bucketed per stratum; strata never span
    buckets."""
    import hashlib

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_d=[hashlib.md5(str(int(k)).encode()).hexdigest()
                         for k in g["doc_id"]])
        g = g.sort_values(["lang", "_d", "doc_id"])
        outs = []
        for lang, grp in g.groupby("lang", sort=False):
            n = len(grp)
            r = np.arange(1, n + 1)
            split = np.where(r <= (8 * n) // 10, "train",
                             np.where(r <= (9 * n) // 10, "val", "test"))
            outs.append(pd.DataFrame({"doc_id": grp["doc_id"],
                                      "lang": lang, "split": split}))
        if not outs:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "lang": pd.Series([], dtype=object),
                                 "split": pd.Series([], dtype=object)})
        return pd.concat(outs, ignore_index=True)

    return hash_bucket_aggregate(ds, ["lang"], per_bucket,
                                 rows_hint=_nrows(sf_dir, "documents"))


SQL_DOCS_EXACT_STRATIFIED_SPLIT = """
WITH r AS (SELECT doc_id, lang,
                  row_number() OVER (PARTITION BY lang
                      ORDER BY md5(doc_id::VARCHAR), doc_id) AS rk,
                  count(*) OVER (PARTITION BY lang) AS n
           FROM documents)
SELECT doc_id, lang,
       CASE WHEN rk <= (8 * n) // 10 THEN 'train'
            WHEN rk <= (9 * n) // 10 THEN 'val'
            ELSE 'test' END AS split
FROM r
"""


def docs_source_divergence(sf_dir):
    """Per-source KL divergence from the corpus unigram distribution —
    the 'linguistically unusual source' signal. Integer fixed-point
    (Σ cnt·round6(log-ratio)); global token counts fold inside the
    token-bucketed aggregate, no join."""
    from ..functions.textstats import source_divergence

    ds = _read(sf_dir, "documents", ["source", "text"])
    return source_divergence(ds,
                             rows_hint=16 * _nrows(sf_dir, "documents"))


SQL_DOCS_SOURCE_DIVERGENCE = r"""
WITH tok AS (
  SELECT source, unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
tok2 AS (SELECT source, token FROM tok WHERE token <> ''),
c AS (SELECT source, token, count(*)::BIGINT AS cnt FROM tok2
      GROUP BY source, token),
ts AS (SELECT source, sum(cnt)::BIGINT AS tots FROM c GROUP BY source),
g AS (SELECT token, sum(cnt)::BIGINT AS cg FROM c GROUP BY token),
t AS (SELECT sum(cnt)::BIGINT AS tot FROM c),
fp AS (SELECT c.source, c.cnt,
              CAST(floor((ln(c.cnt / ts.tots::DOUBLE)
                          - ln(g.cg / t.tot::DOUBLE))
                         * 1000000 + 0.5) AS BIGINT) AS f
       FROM c JOIN ts USING (source) JOIN g USING (token), t)
SELECT fp.source, sum(fp.cnt * fp.f)::BIGINT AS kl_fp_sum,
       any_value(ts.tots)::BIGINT AS n_tokens
FROM fp JOIN ts USING (source) GROUP BY fp.source
"""


def docs_source_influence(sf_dir):
    """Leave-one-source-out data valuation: each source's influence on
    the corpus unigram log-likelihood (LL(corpus) − LL(corpus−source),
    exact 1e-6 fixed point) — the cheap first-order answer to 'which
    sources actually shape this corpus'. Two passes: (source, token)
    counts, then a token-bucketed pass where the leave-out terms
    vectorize as a dense bucket-vocab × sources matrix (global token
    counts fold in-bucket, per-source totals broadcast)."""
    from ..functions.textstats import source_influence

    ds = _read(sf_dir, "documents", ["source", "text"])
    return source_influence(ds,
                            rows_hint=16 * _nrows(sf_dir, "documents"))


SQL_DOCS_SOURCE_INFLUENCE = r"""
WITH tok AS (
  SELECT source, unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
tok2 AS (SELECT source, token FROM tok WHERE token <> ''),
c AS (SELECT source, token, count(*)::BIGINT AS cnt FROM tok2
      GROUP BY source, token),
g AS (SELECT token, sum(cnt)::BIGINT AS cg FROM c GROUP BY token),
t AS (SELECT sum(cnt)::BIGINT AS tot FROM c),
ts AS (SELECT source, sum(cnt)::BIGINT AS tots FROM c GROUP BY source),
ll AS (SELECT sum(g.cg * CAST(floor(ln(g.cg::DOUBLE / t.tot::DOUBLE)
                                    * 1000000 + 0.5) AS BIGINT))::BIGINT
         AS ll_fp
       FROM g, t),
x AS (SELECT ts.source, g.cg - coalesce(c.cnt, 0) AS m,
             t.tot - ts.tots AS rem
      FROM g CROSS JOIN ts
      LEFT JOIN c ON c.token = g.token AND c.source = ts.source, t),
wo AS (SELECT source,
              sum(CASE WHEN m > 0
                  THEN m * CAST(floor(ln(m::DOUBLE / rem::DOUBLE)
                                      * 1000000 + 0.5) AS BIGINT)
                  ELSE 0 END)::BIGINT AS wo_fp
       FROM x GROUP BY source)
SELECT wo.source, ts.tots AS n_tokens, wo.wo_fp,
       (ll.ll_fp - wo.wo_fp)::BIGINT AS influence_fp
FROM wo JOIN ts USING (source), ll
"""


QUOTA_NUM, QUOTA_DEN = 6, 10   # global budget = 60% of the corpus


def docs_source_quota(sf_dir):
    """Water-filling sampling quotas per source (fair budget allocation
    for source balancing): every source keeps min(count, L) docs where
    the level L exhausts the global budget, and the remainder after
    integer division goes one-per-source to the first sources (by name)
    still above the level — the deterministic integer water-fill. The
    per-source counts are a tiny aggregate (sources ≪ corpus; documented
    driver-side step); the allocator itself is O(m log m)."""
    from ray.data.aggregate import Count

    counts = (_read(sf_dir, "documents", ["source"])
              .groupby("source").aggregate(Count(alias_name="n_docs"))
              .to_pandas().sort_values("source").reset_index(drop=True))
    total = int(counts["n_docs"].sum())
    budget = (QUOTA_NUM * total) // QUOTA_DEN

    c = counts["n_docs"].astype("int64").to_numpy()
    order = np.argsort(c, kind="stable")
    quota = c.copy()
    if total > budget:
        sorted_c = c[order]
        prefix = 0
        m = len(c)
        level, rem, cut = 0, 0, m
        for j in range(m):
            remaining = m - j
            lvl = (budget - prefix) // remaining
            if lvl < sorted_c[j]:
                level = lvl
                rem = (budget - prefix) % remaining
                cut = j
                break
            prefix += sorted_c[j]
        else:
            level, rem, cut = int(sorted_c[-1]), 0, m
        quota = np.minimum(c, level)
        # remainder: +1 per source, first by name, among those above L
        above = np.flatnonzero(c > level)          # counts sorted by name
        quota[above[:rem]] += 1
    out = counts.copy()
    out["n_docs"] = out["n_docs"].astype("int64")
    out["quota"] = quota.astype("int64")
    return out


SQL_DOCS_SOURCE_QUOTA = f"""
WITH c AS (SELECT source, count(*)::BIGINT AS n_docs FROM documents
           GROUP BY source),
tot AS (SELECT sum(n_docs)::BIGINT AS t, count(*)::BIGINT AS m FROM c),
bud AS (SELECT ({QUOTA_NUM} * t) // {QUOTA_DEN} AS b, t, m FROM tot),
o AS (SELECT source, n_docs,
             row_number() OVER (ORDER BY n_docs, source) AS j,
             sum(n_docs) OVER (ORDER BY n_docs, source
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                 AS prefix
      FROM c),
lv AS (SELECT (b - coalesce(prefix, 0)) // (m - j + 1) AS level,
              (b - coalesce(prefix, 0)) % (m - j + 1) AS rem
       FROM o, bud
       WHERE (b - coalesce(prefix, 0)) // (m - j + 1) < n_docs
       ORDER BY j LIMIT 1),
fl AS (SELECT coalesce((SELECT level FROM lv),
                       (SELECT max(n_docs) FROM c)) AS level,
              coalesce((SELECT rem FROM lv), 0) AS rem),
ranked AS (SELECT source, n_docs,
                  row_number() OVER (ORDER BY source) AS rk
           FROM c, fl WHERE n_docs > fl.level)
SELECT c.source, c.n_docs,
       (CASE WHEN (SELECT t FROM tot) <= (SELECT b FROM bud)
             THEN c.n_docs
             ELSE least(c.n_docs, fl.level)
                  + (CASE WHEN r.rk IS NOT NULL AND r.rk <= fl.rem
                          THEN 1 ELSE 0 END) END)::BIGINT AS quota
FROM c CROSS JOIN fl LEFT JOIN ranked r ON r.source = c.source
"""


LP_HOLDOUT_MOD = 5


def embed_label_propagation(sf_dir):
    """Semi-supervised label spreading over the kNN graph (weak
    supervision): hold out every 5th vector's label, propagate the
    MODAL label of its labeled top-3 cosine neighbors (ties → smallest
    label), and score against the held-out truth. Composes ``knn_graph``
    (broadcast-corpus exact pass) with ``per_key_mode`` (distinct-pair
    shuffle, deterministic argmax); held-out vectors whose neighbors are
    all held out too are dropped — mirrored in the oracle."""
    from ..functions.relational import per_key_mode
    from ..functions.similarity import knn_graph

    n = _nrows(sf_dir, "embeddings")
    emb = _rd().read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        override_num_blocks=max(1, min(32, n // 256)))
    edges = knn_graph(emb.drop_columns(["label"]), k=KNN_GRAPH_K)

    labels_df = _small(sf_dir, "embeddings", ["vec_id", "label"])
    lab = dict(zip(labels_df["vec_id"], labels_df["label"]))

    def votes(t: pa.Table) -> pa.Table:
        v = t.column("vec_id").to_numpy(zero_copy_only=False)
        nb = t.column("neighbor_id").to_numpy(zero_copy_only=False)
        keep = (v % LP_HOLDOUT_MOD == 0) & (nb % LP_HOLDOUT_MOD != 0)
        v, nb = v[keep], nb[keep]
        return pa.table({
            "vec_id": pa.array(v, pa.int64()),
            "nb_label": pa.array([int(lab[i]) for i in nb], pa.int64())})

    pred = per_key_mode(edges.map_batches(votes, batch_format="pyarrow"),
                        "vec_id", "nb_label", rows_hint=n)

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return pd.DataFrame({
                "vec_id": pd.Series([], dtype="int64"),
                "pred_label": pd.Series([], dtype="int64"),
                "true_label": pd.Series([], dtype="int64"),
                "correct": pd.Series([], dtype="bool")})
        true = np.asarray([int(lab[i]) for i in b["vec_id"]],
                          dtype=np.int64)
        return pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "pred_label": b["modal_value"].astype("int64"),
            "true_label": true,
            "correct": b["modal_value"].to_numpy() == true})

    return pred.map_batches(fin, batch_format="pandas")


SQL_EMBED_LABEL_PROPAGATION = f"""
WITH s AS (SELECT a.vec_id, b.vec_id AS neighbor_id,
                  round(list_cosine_similarity(
                      list_transform(a.embedding, x -> x::DOUBLE),
                      list_transform(b.embedding, x -> x::DOUBLE)),
                        6) AS cosine
           FROM embeddings a JOIN embeddings b
             ON a.vec_id <> b.vec_id),
r AS (SELECT *, row_number() OVER (PARTITION BY vec_id
          ORDER BY cosine DESC, neighbor_id) AS rank FROM s),
e AS (SELECT vec_id, neighbor_id FROM r
      WHERE rank <= {KNN_GRAPH_K}
        AND vec_id % {LP_HOLDOUT_MOD} = 0
        AND neighbor_id % {LP_HOLDOUT_MOD} <> 0),
v AS (SELECT e.vec_id, emb.label::BIGINT AS nb_label, count(*) AS cnt
      FROM e JOIN embeddings emb ON emb.vec_id = e.neighbor_id
      GROUP BY e.vec_id, emb.label),
m AS (SELECT vec_id, nb_label,
             row_number() OVER (PARTITION BY vec_id
                                ORDER BY cnt DESC, nb_label) AS rn
      FROM v)
SELECT m.vec_id, m.nb_label AS pred_label, t.label::BIGINT AS true_label,
       m.nb_label = t.label AS correct
FROM m JOIN embeddings t ON t.vec_id = m.vec_id
WHERE m.rn = 1
"""


def docs_source_scorecard(sf_dir):
    """Per-source curation scorecard — the 'which crawl feeds are worth
    keeping' dashboard: docs, token volume, Gopher pass count and
    within-source exact-dup count per source, in ONE (source, content
    hash) shuffle (dup detection needs same-hash co-location; everything
    else rides the same pass as map-side integer partials)."""
    import hashlib

    from ray.data.aggregate import Sum

    from ..functions.relational import hash_bucket_aggregate
    from ..functions.textstats import gopher_signals

    ds = _read(sf_dir, "documents", ["source", "text"])

    def per_doc(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        texts = batch.column("text").to_pylist()
        sigs = [gopher_signals(t) for t in texts]
        return pa.table({
            "source": pa.array(srcs, pa.string()),
            "h": pa.array([hashlib.md5(t.encode()).hexdigest()
                           for t in texts], pa.string()),
            "cnt": pa.array([1] * len(texts), pa.int64()),
            "toks": pa.array([s[0] for s in sigs], pa.int64()),
            "np": pa.array([s[5] for s in sigs], pa.int64())})

    def per_hash(g: pd.DataFrame) -> pd.DataFrame:
        d = (g.groupby(["source", "h"], as_index=False)
             .agg(cnt=("cnt", "sum"), toks=("toks", "sum"),
                  np=("np", "sum")))
        d["dup"] = np.where(d["cnt"] >= 2, d["cnt"], 0)
        return (d.groupby("source", as_index=False)
                .agg(n_docs=("cnt", "sum"), sum_tokens=("toks", "sum"),
                     n_gopher_pass=("np", "sum"),
                     n_dup_docs=("dup", "sum")))

    parts = hash_bucket_aggregate(
        ds.map_batches(per_doc, batch_format="pyarrow"),
        ["source", "h"], per_hash,
        rows_hint=_nrows(sf_dir, "documents"))
    out = parts.groupby("source").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("sum_tokens", alias_name="sum_tokens"),
        Sum("n_gopher_pass", alias_name="n_gopher_pass"),
        Sum("n_dup_docs", alias_name="n_dup_docs"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        return b.astype({c: "int64" for c in b.columns if c != "source"})

    return out.map_batches(fin, batch_format="pandas")


def customer_entity_resolution(sf_dir):
    """End-to-end entity resolution — blocking → edit-distance matching
    → transitive clustering → golden record: the typo-pair join's
    matches become edges, distributed connected components close the
    chains, and each cluster keeps its min key as the canonical record
    (singletons keep themselves via self-edges). Same CC tail as the
    near-dedup clusterer (``dedup.components_keeper``)."""
    from ..functions.dedup import (components_keeper,
                                   edit_distance_self_join)
    from ..functions.relational import compute_n_buckets

    n = _nrows(sf_dir, "customer")
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    pairs = edit_distance_self_join(ds, id_col="c_custkey",
                                    str_col="c_name", max_dist=1,
                                    rows_hint=n)

    def pair_edges(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"subj": pd.Series([], dtype=object),
                                 "obj": pd.Series([], dtype=object)})
        return pd.DataFrame({
            "subj": "K" + df["id_a"].astype("int64").astype(str),
            "obj": "K" + df["id_b"].astype("int64").astype(str)})

    def self_edges(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            pa.scalar("K"), pc.cast(t.column("c_custkey"), pa.string()),
            pa.scalar(""))
        return pa.table({"subj": k, "obj": k})

    edges = pairs.map_batches(pair_edges, batch_format="pandas").union(
        ds.map_batches(self_edges, batch_format="pyarrow"))
    return components_keeper(edges, "c_custkey", key_prefix="K",
                             n_buckets=compute_n_buckets(n))


SQL_CUSTOMER_ENTITY_RESOLUTION = """
WITH RECURSIVE pr AS (
  SELECT a.c_custkey AS x, b.c_custkey AS y
  FROM customer a JOIN customer b
    ON substr(a.c_name, 1, length(a.c_name) - 1)
       = substr(b.c_name, 1, length(b.c_name) - 1)
   AND a.c_custkey < b.c_custkey
  WHERE levenshtein(a.c_name, b.c_name) <= 1),
e AS (SELECT x, y FROM pr UNION ALL SELECT y, x FROM pr),
lbl AS (
  SELECT c_custkey AS k, c_custkey AS comp FROM customer
  UNION
  SELECT e.y, l.comp FROM lbl l JOIN e ON e.x = l.k)
SELECT k AS c_custkey, min(comp)::BIGINT AS cluster,
       k = min(comp) AS keep
FROM lbl GROUP BY k
"""


def customer_golden_records(sf_dir):
    """Golden-record construction with FIELD-LEVEL SURVIVORSHIP — the
    MDM step after entity resolution: each ER cluster emits ONE master
    record whose fields are elected independently (anchor name from the
    min-key member, statistical mode for categorical fields with
    deterministic smallest-value tie-break, exact integer-cents sum for
    the additive balance field). Scale shape: the cluster assignment
    joins the attribute table on ONE key-bucketed shuffle, and all
    survivorship rules are per-cluster aggregates inside ONE
    cluster-bucketed pass (clusters never span buckets, so modes and
    anchors are exact without a second exchange)."""
    from ..functions.relational import hash_bucket_aggregate, shuffle_join
    from ..functions.sqlcompat import sql_round

    n = _nrows(sf_dir, "customer")
    clusters = customer_entity_resolution(sf_dir)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_mktsegment", "c_nationkey",
                  "c_acctbal"])
    j = shuffle_join(clusters, cust, "c_custkey", "c_custkey",
                     ["cluster"],
                     ["c_name", "c_mktsegment", "c_nationkey",
                      "c_acctbal"], rows_hint=n)

    def survivors(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(cents=sql_round(
            g["c_acctbal"].to_numpy(np.float64) * 100.0, 0)
            .astype(np.int64))
        base = g.groupby("cluster", as_index=False).agg(
            n_members=("c_custkey", "size"),
            acctbal_sum_cents=("cents", "sum"))
        anchor = (g.sort_values(["cluster", "c_custkey"], kind="stable")
                  .groupby("cluster", as_index=False).first()
                  [["cluster", "c_name"]]
                  .rename(columns={"c_name": "name_canonical"}))

        def mode_of(col: str, out: str) -> pd.DataFrame:
            cnt = g.groupby(["cluster", col], as_index=False).agg(
                cnt=(col, "size"))
            cnt = cnt.sort_values(["cnt", col], ascending=[False, True],
                                  kind="stable")
            return (cnt.groupby("cluster", sort=False).head(1)
                    [["cluster", col]].rename(columns={col: out}))

        out = (base.merge(anchor, on="cluster")
               .merge(mode_of("c_mktsegment", "segment_mode"),
                      on="cluster")
               .merge(mode_of("c_nationkey", "nation_mode"),
                      on="cluster"))
        return out.astype({"n_members": np.int64,
                           "acctbal_sum_cents": np.int64,
                           "nation_mode": np.int64})

    return hash_bucket_aggregate(j, ["cluster"], survivors, rows_hint=n)


SQL_CUSTOMER_GOLDEN_RECORDS = ("""
WITH cl AS MATERIALIZED (
  SELECT c_custkey, cluster FROM ("""
                               + SQL_CUSTOMER_ENTITY_RESOLUTION + """)),
j AS MATERIALIZED (
  SELECT cl.cluster, c.c_custkey, c.c_name, c.c_mktsegment,
         c.c_nationkey, round(c.c_acctbal * 100)::BIGINT AS cents
  FROM cl JOIN customer c USING (c_custkey)),
base AS (SELECT cluster, count(*)::BIGINT AS n_members,
                sum(cents)::BIGINT AS acctbal_sum_cents
         FROM j GROUP BY cluster),
anchor AS (SELECT cluster, c_name AS name_canonical FROM (
  SELECT cluster, c_name,
         row_number() OVER (PARTITION BY cluster
                            ORDER BY c_custkey) AS rn FROM j)
  WHERE rn = 1),
seg AS (SELECT cluster, c_mktsegment AS segment_mode FROM (
  SELECT cluster, c_mktsegment,
         row_number() OVER (PARTITION BY cluster
                            ORDER BY count(*) DESC, c_mktsegment) AS rn
  FROM j GROUP BY cluster, c_mktsegment) WHERE rn = 1),
nat AS (SELECT cluster, c_nationkey::BIGINT AS nation_mode FROM (
  SELECT cluster, c_nationkey,
         row_number() OVER (PARTITION BY cluster
                            ORDER BY count(*) DESC, c_nationkey) AS rn
  FROM j GROUP BY cluster, c_nationkey) WHERE rn = 1)
SELECT cluster, n_members, acctbal_sum_cents, name_canonical,
       segment_mode, nation_mode
FROM base JOIN anchor USING (cluster) JOIN seg USING (cluster)
     JOIN nat USING (cluster)
""")


def customer_blocking_eval(sf_dir):
    """Blocking-scheme quality evaluation for entity resolution
    (Christen 2012): for three candidate blocking keys — 4-char name
    prefix, nation+segment, name length — report the candidate-pair
    volume, REDUCTION RATIO vs the all-pairs cross product, and PAIRS
    COMPLETENESS vs the accepted match truth (the edit-distance ≤ 1
    typo pairs that feed `customer_entity_resolution`). This is the
    'measure, don't guess' step before committing an ER blocking key at
    corpus scale. Scale shape: candidate-pair counts come from per-key
    group sizes (Σ n·(n−1)/2 — pairs are COUNTED, never materialized),
    keys reduce map-side then fold per bucket; truth pairs attach their
    endpoint keys via two bucketed joins and coverage folds to three
    integers. Exact micro-unit ratios, no float."""
    from ..functions.dedup import edit_distance_self_join
    from ..functions.relational import hash_bucket_aggregate, shuffle_join

    n = _nrows(sf_dir, "customer")
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_nationkey", "c_mktsegment"])

    def key_long(df: pd.DataFrame) -> pd.DataFrame:
        kp = df["c_name"].str.slice(0, 4)
        kn = (df["c_nationkey"].astype("int64").astype(str)
              + "|" + df["c_mktsegment"])
        kl = df["c_name"].str.len().astype("int64").astype(str)
        return pd.DataFrame({
            "scheme": (["prefix4"] * len(df) + ["nation_segment"] * len(df)
                       + ["name_length"] * len(df)),
            "key": pd.concat([kp, kn, kl], ignore_index=True)})

    def block_partial(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby(["scheme", "key"], as_index=False).size()
        sz["pairs"] = (sz["size"] * (sz["size"] - 1) // 2).astype(np.int64)
        out = sz.groupby("scheme", as_index=False).agg(
            n_blocks=("key", "size"), n_cand_pairs=("pairs", "sum"))
        return out.astype({"n_blocks": np.int64, "n_cand_pairs": np.int64})

    blocks = hash_bucket_aggregate(
        cust.map_batches(key_long, batch_format="pandas"),
        ["scheme", "key"], block_partial, rows_hint=3 * n).to_pandas()
    blocks = blocks.groupby("scheme", as_index=False).sum()

    keys = cust.map_batches(
        lambda df: pd.DataFrame({
            "c_custkey": df["c_custkey"].astype("int64"),
            "kp": df["c_name"].str.slice(0, 4),
            "kn": (df["c_nationkey"].astype("int64").astype(str)
                   + "|" + df["c_mktsegment"]),
            "kl": df["c_name"].str.len().astype("int64").astype(str)}),
        batch_format="pandas")
    pairs = edit_distance_self_join(cust, id_col="c_custkey",
                                    str_col="c_name", max_dist=1,
                                    rows_hint=n)
    j1 = shuffle_join(pairs, keys, "id_a", "c_custkey", ["id_b"],
                      ["kp", "kn", "kl"], rows_hint=n).map_batches(
        # shuffle_join's tagged union round-trips id_b to object dtype;
        # re-cast before it becomes the next join's bucket key
        lambda df: df.assign(id_b=df["id_b"].astype("int64")).rename(
            columns={"kp": "kp_a", "kn": "kn_a", "kl": "kl_a"}),
        batch_format="pandas")
    j2 = shuffle_join(j1, keys, "id_b", "c_custkey",
                      ["kp_a", "kn_a", "kl_a"], ["kp", "kn", "kl"],
                      rows_hint=n)

    def cov_partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"scheme": pd.Series([], dtype=object),
                "n_covered": pd.Series([], dtype="int64"),
                "n_truth_pairs": pd.Series([], dtype="int64")}
        if not len(df):
            return pd.DataFrame(cols)
        m = len(df)
        return pd.DataFrame({
            "scheme": ["prefix4", "nation_segment", "name_length"],
            "n_covered": np.array(
                [(df["kp_a"] == df["kp"]).sum(),
                 (df["kn_a"] == df["kn"]).sum(),
                 (df["kl_a"] == df["kl"]).sum()], np.int64),
            "n_truth_pairs": np.full(3, m, np.int64)})

    cov = (j2.map_batches(cov_partial, batch_format="pandas")
           .to_pandas().groupby("scheme", as_index=False).sum())

    out = blocks.merge(cov, on="scheme", how="left")
    out[["n_covered", "n_truth_pairs"]] = (
        out[["n_covered", "n_truth_pairs"]].fillna(0))
    allp = n * (n - 1) // 2
    out["rr_micro"] = [10 ** 6 * (allp - int(c)) // allp
                       for c in out["n_cand_pairs"]]
    out["pc_micro"] = [0 if t == 0 else 10 ** 6 * int(c) // int(t)
                       for c, t in zip(out["n_covered"],
                                       out["n_truth_pairs"])]
    out = out.sort_values("scheme").reset_index(drop=True)
    return out.astype({c: np.int64 for c in out.columns
                       if c != "scheme"})


SQL_CUSTOMER_BLOCKING_EVAL = """
WITH pr AS (
  SELECT a.c_name AS na, b.c_name AS nb,
         a.c_nationkey AS nka, b.c_nationkey AS nkb,
         a.c_mktsegment AS msa, b.c_mktsegment AS msb
  FROM customer a JOIN customer b
    ON substr(a.c_name, 1, length(a.c_name) - 1)
       = substr(b.c_name, 1, length(b.c_name) - 1)
   AND a.c_custkey < b.c_custkey
  WHERE levenshtein(a.c_name, b.c_name) <= 1),
k AS (
  SELECT 'prefix4' AS scheme, substr(c_name, 1, 4) AS key FROM customer
  UNION ALL
  SELECT 'nation_segment', c_nationkey::VARCHAR || '|' || c_mktsegment
  FROM customer
  UNION ALL
  SELECT 'name_length', length(c_name)::VARCHAR FROM customer),
blocks AS (SELECT scheme, key, count(*)::BIGINT AS n
           FROM k GROUP BY scheme, key),
cand AS (SELECT scheme, count(*)::BIGINT AS n_blocks,
                sum(n * (n - 1) // 2)::BIGINT AS n_cand_pairs
         FROM blocks GROUP BY scheme),
cov AS (
  SELECT 'prefix4' AS scheme,
         count(*) FILTER (WHERE substr(na,1,4) = substr(nb,1,4))::BIGINT
           AS n_covered,
         count(*)::BIGINT AS n_truth_pairs FROM pr
  UNION ALL
  SELECT 'nation_segment',
         count(*) FILTER (WHERE nka::VARCHAR || '|' || msa
                                = nkb::VARCHAR || '|' || msb)::BIGINT,
         count(*)::BIGINT FROM pr
  UNION ALL
  SELECT 'name_length',
         count(*) FILTER (WHERE length(na) = length(nb))::BIGINT,
         count(*)::BIGINT FROM pr),
tot AS (SELECT count(*)::BIGINT AS nc FROM customer)
SELECT c.scheme, c.n_blocks, c.n_cand_pairs, v.n_truth_pairs, v.n_covered,
       (1000000 * (t.nc * (t.nc - 1) // 2 - c.n_cand_pairs)
          // (t.nc * (t.nc - 1) // 2))::BIGINT AS rr_micro,
       (CASE WHEN v.n_truth_pairs = 0 THEN 0
             ELSE 1000000 * v.n_covered // v.n_truth_pairs END)::BIGINT
         AS pc_micro
FROM cand c JOIN cov v USING (scheme), tot t
"""


def events_click_near_purchase(sf_dir):
    """Temporal proximity join: every (click, purchase) pair from the
    SAME user within one hour of each other — ``band_join`` blocked by
    user over integer epoch-µs timestamps, so the per-user sort+sweep
    never builds the per-user cross product (unlike the ASOF join this
    keeps ALL pairs in the window, both directions)."""
    from ..functions.relational import band_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts"])

    def prep(kind: str, id_out: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            df = df[df["event_type"] == kind]
            return pd.DataFrame({
                "user_id": df["user_id"],
                id_out: df["event_id"],
                "ts_us": df["ts"].to_numpy().astype("datetime64[us]")
                    .astype(np.int64)})
        return fn

    clicks = ev.map_batches(prep("click", "click_id"),
                            batch_format="pandas")
    buys = ev.map_batches(prep("purchase", "purchase_id"),
                          batch_format="pandas")
    out = band_join(clicks, buys, "user_id", "user_id", "ts_us", "ts_us",
                    PROX_WINDOW_US, ["click_id"], ["purchase_id"],
                    rows_hint=_nrows(sf_dir, "events"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("user_id", "click_id",
                                           "purchase_id", "gap_us")})
        return pd.DataFrame({"user_id": df["user_id"].astype("int64"),
                             "click_id": df["click_id"].astype("int64"),
                             "purchase_id":
                                 df["purchase_id"].astype("int64"),
                             "gap_us": df["_diff"].astype("int64")})

    return out.map_batches(fin, batch_format="pandas")


SQL_EVENTS_CLICK_NEAR_PURCHASE = f"""
SELECT c.user_id, c.event_id AS click_id, p.event_id AS purchase_id,
       abs(epoch_us(c.ts) - epoch_us(p.ts))::BIGINT AS gap_us
FROM (SELECT * FROM events WHERE event_type = 'click') c
JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
  ON c.user_id = p.user_id
WHERE abs(epoch_us(c.ts) - epoch_us(p.ts)) <= {PROX_WINDOW_US}
"""


def customer_name_typo_pairs(sf_dir):
    """Typo-tolerant record linkage: customer-name pairs within ONE edit,
    blocked on the name minus its last character (the standard blocking
    tradeoff — cross-block matches out of scope by construction). The
    banded Levenshtein verify runs only inside blocks; the oracle uses
    DuckDB's levenshtein() with identical blocking."""
    from ..functions.dedup import edit_distance_self_join

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    out = edit_distance_self_join(ds, id_col="c_custkey",
                                  str_col="c_name", max_dist=1,
                                  rows_hint=_nrows(sf_dir, "customer"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("id_a", "id_b", "dist")})
        return df.astype({"id_a": "int64", "id_b": "int64",
                          "dist": "int64"})

    return out.map_batches(fin, batch_format="pandas")


SQL_CUSTOMER_NAME_TYPO_PAIRS = """
SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
       levenshtein(a.c_name, b.c_name)::BIGINT AS dist
FROM customer a JOIN customer b
  ON substr(a.c_name, 1, length(a.c_name) - 1)
     = substr(b.c_name, 1, length(b.c_name) - 1)
 AND a.c_custkey < b.c_custkey
WHERE levenshtein(a.c_name, b.c_name) <= 1
"""


#: rounded-similarity keep threshold for the JW alias matcher (0.85 and
#: the 6-dp rounding are SQL literals; DuckDB parses both exactly the
#: same doubles Python does at this precision)
JW_ALIAS_THRESHOLD = 0.85


def docs_alias_jw_matches(sf_dir):
    """Entity-alias resolution by Jaro-Winkler: every corpus vocabulary
    word with >= 4 chars gets a deterministic md5-drawn typo variant
    (one interior char deleted — first char kept so blocking is exact),
    and each variant is matched back against the vocabulary inside its
    first-character block; pairs at rounded JW >= 0.85 survive. This is
    the canonicalization dictionary step of a KG build (fuzzy surface →
    canonical form); the JW kernel (functions/dedup.py::jaro_winkler) is
    bit-parity with DuckDB's rapidfuzz vendoring, making the whole match
    table value-oracle-able. Scale shape: vocab distinct is one bucketed
    pass; variant generation is row-local; matching is ONE shuffle keyed
    by the blocking char with per-block candidate sets bounded by the
    blocking key (production widens the key to (first char, length band)
    when per-block vocab grows)."""
    from ..functions.dedup import jaro_winkler
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.sqlcompat import sql_round
    from ..functions.urls import _link_u64

    ds = _read(sf_dir, "documents", ["text"])

    def vocab_partial(batch: pa.Table) -> pa.Table:
        words = set()
        for t in batch.column("text").to_pylist():
            words.update(w.lower() for w in t.split())
        return pa.table({"w": pa.array(sorted(words), pa.string())})

    def vocab_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates("w")

    vocab = hash_bucket_aggregate(
        ds.map_batches(vocab_partial, batch_format="pyarrow"),
        ["w"], vocab_bucket, rows_hint=_nrows(sf_dir, "documents"))

    def sides(df: pd.DataFrame) -> pd.DataFrame:
        w = df["w"].astype(str)
        rows = [pd.DataFrame({"blk": w.str[0], "s": w, "src": "",
                              "side": np.int64(0)})]
        long = w[w.str.len() >= 4]
        if len(long):
            variants = []
            for word in long:
                pos = 1 + _link_u64(f"typo:{word}") % (len(word) - 1)
                variants.append(word[:pos] + word[pos + 1:])
            vs = pd.Series(variants, index=long.index)
            rows.append(pd.DataFrame({"blk": vs.str[0], "s": vs,
                                      "src": long, "side": np.int64(1)}))
        return pd.concat(rows, ignore_index=True)

    def match_bucket(g: pd.DataFrame) -> pd.DataFrame:
        words = g[g["side"] == 0][["blk", "s"]].rename(
            columns={"s": "candidate"})
        variants = g[g["side"] == 1][["blk", "s", "src"]].rename(
            columns={"s": "variant"})
        m = variants.merge(words, on="blk")
        if not len(m):
            return pd.DataFrame({
                "variant": pd.Series([], dtype=str),
                "src": pd.Series([], dtype=str),
                "candidate": pd.Series([], dtype=str),
                "sim": pd.Series([], dtype="float64")})
        sims = sql_round(np.fromiter(
            (jaro_winkler(v, c)
             for v, c in zip(m["variant"], m["candidate"])),
            dtype=np.float64, count=len(m)), 6)
        m = m.assign(sim=sims)
        m = m[m["sim"] >= JW_ALIAS_THRESHOLD]
        return m[["variant", "src", "candidate", "sim"]]

    return hash_bucket_aggregate(
        vocab.map_batches(sides, batch_format="pandas"),
        ["blk"], match_bucket, rows_hint=_nrows(sf_dir, "documents"))


SQL_DOCS_ALIAS_JW_MATCHES = rf"""
WITH t AS (
  SELECT CASE WHEN trim(text) = '' THEN []::VARCHAR[]
         ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
w AS (SELECT DISTINCT lower(unnest(toks)) AS w FROM t),
v AS (
  SELECT w AS src, substr(w, 1, pos::INTEGER)
         || substr(w, pos::INTEGER + 2) AS variant
  FROM (SELECT w,
               (1 + ('0x' || substr(md5('typo:' || w), 1, 16))::UBIGINT
                    % (length(w) - 1))::BIGINT AS pos
        FROM w WHERE length(w) >= 4))
SELECT v.variant, v.src, w.w AS candidate,
       round(jaro_winkler_similarity(v.variant, w.w), 6) AS sim
FROM v JOIN w ON substr(v.variant, 1, 1) = substr(w.w, 1, 1)
WHERE round(jaro_winkler_similarity(v.variant, w.w), 6)
      >= {JW_ALIAS_THRESHOLD}
"""


def graph_predicate_stats(sf_dir):
    """Per-predicate functionality stats (PARIS, Suchanek et al. 2011)
    over a deterministic three-relation edge table: in_nation
    (customer→nation, many:1), located_in (supplier→nation, many:1) and
    placed (customer→order, 1:many). Distinct-endpoint counts dedupe
    through the bucketed aggregate; ratios are integer fixed-point."""
    from ..functions.graph import predicate_stats

    def rel(table, cols, pred, s_pre, s_col, o_pre, o_col):
        ds = _read(sf_dir, table, cols)

        def mk(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "subj": s_pre + df[s_col].astype(str),
                "pred": pred,
                "obj": o_pre + df[o_col].astype(str)})

        return ds.map_batches(mk, batch_format="pandas")

    edges = (rel("customer", ["c_custkey", "c_nationkey"], "in_nation",
                 "C", "c_custkey", "N", "c_nationkey")
             .union(rel("supplier", ["s_suppkey", "s_nationkey"],
                        "located_in", "S", "s_suppkey", "N",
                        "s_nationkey"))
             .union(rel("orders", ["o_orderkey", "o_custkey"], "placed",
                        "C", "o_custkey", "O", "o_orderkey")))
    return predicate_stats(edges,
                           rows_hint=_nrows(sf_dir, "orders"))


SQL_GRAPH_PREDICATE_STATS = """
WITH e AS (
  SELECT 'in_nation' AS pred, 'C' || c_custkey AS subj,
         'N' || c_nationkey AS obj FROM customer
  UNION ALL
  SELECT 'located_in', 'S' || s_suppkey, 'N' || s_nationkey
  FROM supplier
  UNION ALL
  SELECT 'placed', 'C' || o_custkey, 'O' || o_orderkey FROM orders)
SELECT pred, count(*)::BIGINT AS n_edges,
       count(DISTINCT subj)::BIGINT AS n_subj,
       count(DISTINCT obj)::BIGINT AS n_obj,
       (1000000 * count(DISTINCT subj) // count(*))::BIGINT
           AS functionality_fp,
       (1000000 * count(DISTINCT obj) // count(*))::BIGINT
           AS inv_functionality_fp
FROM e GROUP BY pred
"""


SKIPGRAM_WINDOW = 2
SKIPGRAM_TOPK = 100


def docs_skipgram_pairs(sf_dir):
    """Skip-gram (center, context) pair counts within a ±2 window — the
    word2vec/SGNS training-pair generation pass (Mikolov et al. 2013).
    Map-side Counter partials over both directions at each offset, one
    bucketed aggregate on the pair, global top-k with deterministic
    tiebreak. The shuffle moves per-batch distinct pairs, not tokens."""
    from collections import Counter

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = t.split()
            for d in range(1, SKIPGRAM_WINDOW + 1):
                c.update(zip(toks, toks[d:]))
                c.update(zip(toks[d:], toks))
        pairs = list(c.keys())
        return pa.table({
            "w1": pa.array([p[0] for p in pairs], pa.string()),
            "w2": pa.array([p[1] for p in pairs], pa.string()),
            "cnt": pa.array([c[p] for p in pairs], pa.int64())})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["w1", "w2"], as_index=False).agg(
            cnt=("cnt", "sum"))

    counts = hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["w1", "w2"], per_bucket,
        rows_hint=64 * _nrows(sf_dir, "documents"))
    return counts.sort(["cnt", "w1", "w2"],
                       descending=[True, False, False]) \
        .limit(SKIPGRAM_TOPK)


SQL_DOCS_SKIPGRAM_PAIRS = rf"""
WITH t AS (SELECT CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                  ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
           FROM documents),
d1 AS (SELECT unnest(list_transform(range(1, length(toks)),
              i -> toks[i] || ' ' || toks[i+1])) AS pr FROM t),
d2 AS (SELECT unnest(list_transform(range(1, length(toks) - 1),
              i -> toks[i] || ' ' || toks[i+2])) AS pr FROM t),
u AS (SELECT pr FROM d1 UNION ALL SELECT pr FROM d2),
dpairs AS (SELECT split_part(pr, ' ', 1) AS w1, split_part(pr, ' ', 2) AS w2
         FROM u
         UNION ALL
         SELECT split_part(pr, ' ', 2), split_part(pr, ' ', 1) FROM u)
SELECT w1, w2, count(*)::BIGINT AS cnt FROM dpairs GROUP BY w1, w2
ORDER BY cnt DESC, w1, w2 LIMIT {SKIPGRAM_TOPK}
"""


def orders_concurrent_pairs(sf_dir):
    """Interval-overlap self-join: pairs of orders from the SAME customer
    whose fulfillment windows overlap (window = order date + a
    priority-dependent duration, 17–45 days). Blocked by customer, the
    per-block sort + one searchsorted per row bounds each overlap window
    — O(n log n + output), never the block square. Integer epoch-day
    arithmetic end to end, replayed exactly in SQL."""
    from ..functions.relational import interval_self_join

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate",
                "o_orderpriority"])

    def to_days(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["o_orderdate"].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        dur = 10 + 7 * df["o_orderpriority"].str[0].astype(np.int64)
        return pd.DataFrame({"o_custkey": df["o_custkey"],
                             "o_orderkey": df["o_orderkey"],
                             "s": day, "e": day + dur.to_numpy()})

    days = ds.map_batches(to_days, batch_format="pandas")
    out = interval_self_join(days, "o_custkey", "o_orderkey", "s", "e",
                             rows_hint=_nrows(sf_dir, "orders"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("custkey", "order_a", "order_b",
                                           "overlap_days")})
        return pd.DataFrame({"custkey": df["o_custkey"].astype("int64"),
                             "order_a": df["id_a"].astype("int64"),
                             "order_b": df["id_b"].astype("int64"),
                             "overlap_days":
                                 df["overlap"].astype("int64")})

    return out.map_batches(fin, batch_format="pandas")


SQL_ORDERS_CONCURRENT_PAIRS = """
WITH o AS (SELECT o_orderkey, o_custkey,
                  (epoch_us(o_orderdate) // 86400000000)::BIGINT AS s,
                  (epoch_us(o_orderdate) // 86400000000
                   + 10 + 7 * CAST(substr(o_orderpriority, 1, 1) AS INT)
                  )::BIGINT AS e
           FROM orders)
SELECT a.o_custkey::BIGINT AS custkey,
       least(a.o_orderkey, b.o_orderkey)::BIGINT AS order_a,
       greatest(a.o_orderkey, b.o_orderkey)::BIGINT AS order_b,
       (least(a.e, b.e) - greatest(a.s, b.s))::BIGINT AS overlap_days
FROM o a JOIN o b
  ON a.o_custkey = b.o_custkey AND a.o_orderkey < b.o_orderkey
 AND a.s < b.e AND b.s < a.e
"""


PRUNE_LO_CENTS = 20_000_000   # $200,000.00
PRUNE_HI_CENTS = 30_000_000   # exclusive


def orders_pruned_range_scan(sf_dir):
    """Partition-pruned range scan over the range layout: only the
    partitions whose value range overlaps [lo, hi) are READ at all — the
    payoff of ``write_range_partitioned``. Returns the band aggregate
    plus ``parts_scanned`` (derivable from the boundaries alone, so the
    oracle replays the pruning arithmetic too)."""
    import shutil

    import ray

    from ..functions.storage import write_range_partitioned

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": df["o_orderkey"],
            "cents": np.floor(df["o_totalprice"].to_numpy() * 100
                              + 0.5).astype(np.int64)})

    cds = ds.map_batches(cents, batch_format="pandas")
    tag = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/range_scan_orders_{tag}"
    shutil.rmtree(root, ignore_errors=True)
    bounds = np.asarray(write_range_partitioned(
        cds, "cents", root, n_parts=RANGE_PARTS), dtype=np.int64)

    import glob as _glob

    p_lo = int(np.searchsorted(bounds, PRUNE_LO_CENTS, side="right"))
    p_hi = int(np.searchsorted(bounds, PRUNE_HI_CENTS - 1, side="right"))
    files = [f for p in range(p_lo, p_hi + 1)
             for f in sorted(_glob.glob(f"{root}/part={p}/*.parquet"))]
    back = ray.data.read_parquet(files)

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        v = df["cents"].to_numpy()
        m = (v >= PRUNE_LO_CENTS) & (v < PRUNE_HI_CENTS)
        return pd.DataFrame({"n_orders": [np.int64(m.sum())],
                             "sum_cents": [np.int64(v[m].sum())]})

    parts = back.map_batches(agg, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "n_orders": pd.Series([int(parts["n_orders"].sum())],
                              dtype="int64"),
        "sum_cents": pd.Series([int(parts["sum_cents"].sum())],
                               dtype="int64"),
        "parts_scanned": pd.Series([p_hi - p_lo + 1], dtype="int64")})


SQL_ORDERS_PRUNED_RANGE_SCAN = f"""
WITH v AS (SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
           FROM orders),
h AS (SELECT cents AS c, count(*)::BIGINT AS cnt FROM v GROUP BY cents),
s AS (SELECT c, sum(cnt) OVER (ORDER BY c)::BIGINT AS cum FROM h),
n AS (SELECT count(*)::BIGINT AS n FROM v),
b AS (SELECT i, (SELECT min(c) FROM s
                 WHERE cum >= (n.n * i + {RANGE_PARTS} - 1)
                              // {RANGE_PARTS}) AS boundary
      FROM range(1, {RANGE_PARTS}) t(i), n)
SELECT (SELECT count(*) FROM v
        WHERE cents >= {PRUNE_LO_CENTS}
          AND cents < {PRUNE_HI_CENTS})::BIGINT AS n_orders,
       (SELECT coalesce(sum(cents), 0) FROM v
        WHERE cents >= {PRUNE_LO_CENTS}
          AND cents < {PRUNE_HI_CENTS})::BIGINT AS sum_cents,
       ((SELECT count(*) FROM b WHERE boundary <= {PRUNE_HI_CENTS} - 1)
        - (SELECT count(*) FROM b WHERE boundary <= {PRUNE_LO_CENTS})
        + 1)::BIGINT AS parts_scanned
"""


def docs_incremental_dedup(sf_dir):
    """Delta-vs-corpus dedup (incremental ingest): treat doc_id % 5 == 0
    as today's incoming shard and the rest as the already-ingested
    corpus; keep only incoming docs whose content hash is absent from
    the corpus. Only 16-byte md5 keys move — the size-gated anti-join
    broadcasts the corpus key set under its limit and falls back to the
    bucketed shuffle (or bloom gate) above it, so the delta pass never
    rereads corpus text."""
    import hashlib

    from ..functions.relational import anti_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def keyed(batch: pa.Table) -> pa.Table:
        h = [hashlib.md5(t.encode()).hexdigest()
             for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "content_md5": pa.array(h, pa.string())})

    hashed = ds.map_batches(keyed, batch_format="pyarrow")

    def side(want_new: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            new = pa.array(ids % 5 == 0)
            return t.filter(new if want_new else pc.invert(new))
        return fn

    incoming = hashed.map_batches(side(True), batch_format="pyarrow")
    corpus = hashed.map_batches(side(False), batch_format="pyarrow")
    return anti_join(incoming, corpus, "content_md5", ["doc_id"],
                     rows_hint=_nrows(sf_dir, "documents"))


SQL_DOCS_INCREMENTAL_DEDUP = """
SELECT md5(text) AS content_md5, doc_id
FROM documents d WHERE doc_id % 5 = 0
AND NOT EXISTS (SELECT 1 FROM documents o
                WHERE o.doc_id % 5 <> 0 AND md5(o.text) = md5(d.text))
"""


DEBOUNCE_WINDOW_S = 86400


def events_debounce(sf_dir):
    """Windowed event dedup (debounce): drop an event when the same
    user's previous event of the same type is within 24 h — the LAG
    formulation, bucketed by (user, type) with sort-within-partition, so
    no per-event state crosses partitions."""
    from ..functions.streaming import debounce

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts"])
    return debounce(ev, ["user_id", "event_type"], "ts",
                    DEBOUNCE_WINDOW_S, tiebreak="event_id",
                    rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_DEBOUNCE = f"""
WITH g AS (SELECT event_id, user_id, event_type, ts,
                  ts - LAG(ts) OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) AS gap
           FROM events)
SELECT event_id, user_id, event_type, ts FROM g
WHERE gap IS NULL OR gap > INTERVAL {DEBOUNCE_WINDOW_S} SECOND
"""


BAND_EPS_CENTS = 50000  # |acctbal diff| <= 500.00


def customer_supplier_balance_link(sf_dir):
    """Record linkage by blocking + bounded numeric distance: block on
    nation, link customer↔supplier records whose account balances sit
    within 50.00 of each other. Balances quantize ONCE to integer cents
    (floor(x·100+½) — exact on 2-decimal data), so the per-block
    sort+sweep in ``band_join`` is pure integer comparisons and the
    oracle replays it bit-for-bit. Never materializes the block cross
    product."""
    from ..functions.relational import band_join

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey", "s_acctbal"])

    def quantize(col_in, col_out):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out[col_out] = np.floor(
                out[col_in].to_numpy() * 100 + 0.5).astype(np.int64)
            return out.drop(columns=[col_in])
        return fn

    cust = cust.map_batches(quantize("c_acctbal", "c_cents"),
                            batch_format="pandas")
    supp = supp.map_batches(quantize("s_acctbal", "s_cents"),
                            batch_format="pandas")
    out = band_join(cust, supp, "c_nationkey", "s_nationkey",
                    "c_cents", "s_cents", BAND_EPS_CENTS,
                    ["c_custkey"], ["s_suppkey"],
                    rows_hint=_nrows(sf_dir, "customer"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:   # empty bucket blocks can arrive schema-less
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("nationkey", "c_custkey",
                                           "s_suppkey", "bal_diff_cents")})
        return pd.DataFrame({
            "nationkey": df["c_nationkey"].astype("int64"),
            "c_custkey": df["c_custkey"].astype("int64"),
            "s_suppkey": df["s_suppkey"].astype("int64"),
            "bal_diff_cents": df["_diff"].astype("int64")})

    return out.map_batches(fin, batch_format="pandas")


SQL_CUSTOMER_SUPPLIER_BALANCE_LINK = f"""
WITH c AS (SELECT c_custkey, c_nationkey,
                  CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS cc
           FROM customer),
s AS (SELECT s_suppkey, s_nationkey,
             CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT) AS sc
      FROM supplier)
SELECT c_nationkey::BIGINT AS nationkey, c_custkey, s_suppkey,
       abs(cc - sc)::BIGINT AS bal_diff_cents
FROM c JOIN s ON c_nationkey = s_nationkey
WHERE abs(cc - sc) <= {BAND_EPS_CENTS}
"""


BUCKJOIN_N = 32


def customer_orders_bucketed_join(sf_dir):
    """Shuffle-FREE storage-bucketed join (the Hive/Iceberg bucketing
    pattern): customer and orders land hash-bucketed by custkey
    (``write_bucketed`` pays the exchange once at ingest), then
    ``bucketed_join`` merges bucket-by-bucket — one task per bucket
    index, zero runtime shuffle at ANY corpus scale. Per-segment order
    counts + revenue prove the join end-to-end."""
    import shutil

    from ray.data.aggregate import Sum

    from ..functions.storage import bucketed_join, write_bucketed

    tag = os.path.basename(os.path.normpath(sf_dir))
    root_c = f"/tmp/buck_customer_{tag}"
    root_o = f"/tmp/buck_orders_{tag}"
    shutil.rmtree(root_c, ignore_errors=True)
    shutil.rmtree(root_o, ignore_errors=True)
    write_bucketed(_read(sf_dir, "customer",
                         ["c_custkey", "c_mktsegment"]),
                   "c_custkey", root_c, n_buckets=BUCKJOIN_N)
    write_bucketed(_read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
                   "o_custkey", root_o, n_buckets=BUCKJOIN_N)
    joined = bucketed_join(root_c, root_o, "c_custkey", "o_custkey",
                           ["c_mktsegment"], ["o_totalprice"],
                           n_buckets=BUCKJOIN_N)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("c_mktsegment", as_index=False)
                .agg(n_orders=("o_totalprice", "size"),
                     revenue=("o_totalprice", "sum")))

    parts = joined.map_batches(partial, batch_format="pandas")
    out = parts.groupby("c_mktsegment").aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("revenue", alias_name="revenue"))

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b["n_orders"] = b["n_orders"].astype("int64")
        b["revenue"] = sql_round(b["revenue"], 2)
        return b

    return out.map_batches(fin, batch_format="pandas")


SQL_CUSTOMER_ORDERS_BUCKETED_JOIN = """
SELECT c_mktsegment, count(*)::BIGINT AS n_orders,
       round(sum(o_totalprice), 2) AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
GROUP BY c_mktsegment
"""


def docs_bigram_logprob(sf_dir):
    """Per-doc conditional log-likelihood under the corpus's own
    add-one-smoothed bigram LM (the KenLM-style CCNet quality signal,
    one modeling step up from docs_unigram_logprob): one tagged counting
    pass emits unigram + bigram partials together, the per-bigram
    fixed-point weight folds inside a left-bucketed aggregate (ctx counts
    co-locate — no join), and scoring streams. Integer-exact."""
    from ..functions.textstats import bigram_logprob

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bigram_logprob(ds, rows_hint=16 * _nrows(sf_dir, "documents"))


SQL_DOCS_BIGRAM_LOGPROB = r"""
WITH t AS (SELECT doc_id,
  CASE WHEN trim(text) = '' THEN []::VARCHAR[]
       ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
bg AS (SELECT doc_id, unnest(list_transform(range(1, length(toks)),
         i -> toks[i] || ' ' || toks[i+1])) AS bigram FROM t),
cnt AS (SELECT bigram, count(*)::BIGINT AS c FROM bg GROUP BY bigram),
vv AS (SELECT count(DISTINCT token)::BIGINT AS v FROM
        (SELECT unnest(toks) AS token FROM t)),
ctx AS (SELECT split_part(bigram, ' ', 1) AS l, sum(c)::BIGINT AS ctx
        FROM cnt GROUP BY 1),
fp AS (SELECT bigram,
              CAST(floor(ln((c + 1) / (ctx.ctx + vv.v)::DOUBLE)
                         * 1000000 + 0.5) AS BIGINT) AS fp
       FROM cnt JOIN ctx ON split_part(cnt.bigram, ' ', 1) = ctx.l, vv),
per AS (SELECT bg.doc_id, count(*)::BIGINT AS n_bigrams,
               sum(fp.fp)::BIGINT AS bigram_fp
        FROM bg JOIN fp USING (bigram) GROUP BY bg.doc_id)
SELECT d.doc_id, coalesce(per.n_bigrams, 0)::BIGINT AS n_bigrams,
       coalesce(per.bigram_fp, 0)::BIGINT AS bigram_fp
FROM documents d LEFT JOIN per USING (doc_id)
"""


PPLX_TIERS = 3
#: sort key for bigram-less docs — sinks below every real avg logprob
PPLX_EMPTY_NEG = 1e18


def docs_perplexity_tiers(sf_dir):
    """CCNet head/middle/tail split (Wenzek et al. 2020): per-doc
    bigram-LM log-likelihood normalized per bigram, NTILE(3) over the
    global quality order — tier 1 = head (most in-distribution), tier 3
    = tail. One counting shuffle (inside ``bigram_logprob``) + one
    global sort; the tier assignment itself is a stateless per-block
    formula over ``global_rank`` offsets, exact SQL NTILE semantics."""
    from ..functions.relational import global_rank
    from ..functions.textstats import bigram_logprob

    n_docs = _nrows(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    scored = bigram_logprob(ds, rows_hint=16 * n_docs)

    def neg_avg(b: pd.DataFrame) -> pd.DataFrame:
        nb = b["n_bigrams"].to_numpy(dtype=np.float64)
        fp = b["bigram_fp"].to_numpy(dtype=np.float64)
        out = b.copy()
        # IEEE double division on both sides; DuckDB replays the same CASE
        out["neg_avg"] = np.where(nb > 0, -(fp / np.maximum(nb, 1.0)),
                                  PPLX_EMPTY_NEG)
        return out

    ranked = global_rank(
        scored.map_batches(neg_avg, batch_format="pandas"),
        ["neg_avg", "doc_id"], out_col="rn")
    q, r = divmod(n_docs, PPLX_TIERS)

    def tile(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["rn"].to_numpy(dtype=np.int64)
        big = r * (q + 1)
        t = np.where(rn <= big, (rn - 1) // max(q + 1, 1),
                     r + (rn - 1 - big) // max(q, 1))
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "n_bigrams": b["n_bigrams"].astype("int64"),
                             "bigram_fp": b["bigram_fp"].astype("int64"),
                             "tier": (t + 1).astype("int64")})

    return ranked.map_batches(tile, batch_format="pandas")


def _sql_perplexity_tiers() -> str:
    # wraps the bigram-logprob oracle so the LM definition cannot drift
    return f"""
WITH base AS ({SQL_DOCS_BIGRAM_LOGPROB})
SELECT doc_id, n_bigrams, bigram_fp,
       ntile({PPLX_TIERS}) OVER (ORDER BY
         CASE WHEN n_bigrams = 0 THEN {PPLX_EMPTY_NEG:.0e}
              ELSE -(bigram_fp::DOUBLE / n_bigrams) END,
         doc_id)::BIGINT AS tier
FROM base
"""


DSIR_TARGET_SOURCES = ("src1", "src2", "src3")
DSIR_TOPK = 100


def docs_dsir_sample(sf_dir):
    """DSIR data selection (Xie et al. 2023): estimate target vs raw
    unigram LMs in ONE tagged counting pass (target = docs from three
    seed sources), score every doc by the fixed-point log-ratio
    importance weight, keep the top-k — rank-based importance
    resampling, integer-exact so the oracle replays it bit-for-bit."""
    from ..functions.textstats import dsir_weights

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("is_target", pc.is_in(
            batch.column("source"),
            value_set=pa.array(list(DSIR_TARGET_SOURCES))))

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    w = dsir_weights(tagged, rows_hint=16 * _nrows(sf_dir, "documents"))
    return w.sort(["dsir_fp", "doc_id"],
                  descending=[True, False]).limit(DSIR_TOPK)


SQL_DOCS_DSIR_SAMPLE = rf"""
WITH tok AS (
  SELECT doc_id, source IN {DSIR_TARGET_SOURCES} AS is_tgt,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
tok2 AS (SELECT doc_id, is_tgt, token FROM tok WHERE token <> ''),
cnt AS (SELECT token, count(*)::BIGINT AS c_all,
               count(*) FILTER (WHERE is_tgt)::BIGINT AS c_tgt
        FROM tok2 GROUP BY token),
tot AS (SELECT sum(c_all)::BIGINT AS ta, sum(c_tgt)::BIGINT AS tt,
               count(*)::BIGINT AS v FROM cnt),
w AS (SELECT token,
             CAST(floor((ln((c_tgt + 1) / (tt + v)::DOUBLE)
                         - ln((c_all + 1) / (ta + v)::DOUBLE))
                        * 1000000 + 0.5) AS BIGINT) AS fp
      FROM cnt, tot),
per AS (SELECT t2.doc_id, count(*)::BIGINT AS n_tokens,
               sum(w.fp)::BIGINT AS dsir_fp
        FROM tok2 t2 JOIN w USING (token) GROUP BY t2.doc_id),
f AS (SELECT d.doc_id, coalesce(per.n_tokens, 0)::BIGINT AS n_tokens,
             coalesce(per.dsir_fp, 0)::BIGINT AS dsir_fp
      FROM documents d LEFT JOIN per USING (doc_id))
SELECT doc_id, n_tokens, dsir_fp FROM f
ORDER BY dsir_fp DESC, doc_id LIMIT {DSIR_TOPK}
"""


def docs_pii_scrub(sf_dir):
    """PII scrub (CCNet/Dolma-style hygiene pass): email/IPv4/phone spans
    replaced by <CATEGORY> markers, per-category match counts + the md5
    of the scrubbed text per doc. Row-local compiled-regex pass, streams
    at read bandwidth. The synthetic corpus carries no PII, so the oracle
    here pins the identity path (counts 0, md5 == md5(text)); regex
    parity on match-BEARING strings is pinned by
    test_pii_scrub_duckdb_parity against DuckDB's RE2."""
    from ..functions.textstats import pii_scrub_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(pii_scrub_batch, batch_format="pyarrow")


def _sql_pii_scrub() -> str:
    from ..functions.textstats import PII_PATTERNS

    sql = "WITH s0 AS (SELECT doc_id, text AS t0 FROM documents)"
    prev = "s0"
    count_cols = []
    for i, (name, pat) in enumerate(PII_PATTERNS):
        cur = f"s{i + 1}"
        carried = ", ".join(count_cols) + (", " if count_cols else "")
        sql += (f",\n{cur} AS (SELECT doc_id, {carried}"
                f"regexp_replace(t{i}, '{pat}', '<{name.upper()}>', 'g')"
                f" AS t{i + 1},\n"
                f"  length(regexp_extract_all(t{i}, '{pat}'))::BIGINT"
                f" AS n_{name} FROM {prev})")
        count_cols.append(f"n_{name}")
        prev = cur
    total = " + ".join(count_cols)
    sql += (f"\nSELECT doc_id, md5(t{len(PII_PATTERNS)}) AS clean_md5, "
            f"{', '.join(count_cols)}, ({total})::BIGINT AS n_pii "
            f"FROM {prev}")
    return sql


def docs_gopher_filter(sf_dir):
    """Gopher-rules composite quality filter (Rae et al. 2021): per-rule
    signal columns + the AND of all five rules as ``passed``. Row-local,
    stateless, streams at read bandwidth."""
    from ..functions.textstats import gopher_quality_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(gopher_quality_batch, batch_format="pyarrow")


_SQL_GOPHER_BASE = r"""
WITH t AS (SELECT doc_id, source, md5(text) AS h,
  list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS toks
  FROM documents),
base AS (
 SELECT doc_id, source, h, length(toks)::BIGINT AS n_tokens,
   CASE WHEN length(toks) = 0 THEN 0.0
        ELSE round(list_sum(list_transform(toks, x -> length(x)))::DOUBLE
                   / length(toks), 6) END AS mean_token_len,
   CASE WHEN length(toks) = 0 THEN 0.0
        ELSE round(length(list_filter(
                     toks, x -> regexp_matches(x, '[A-Za-z]')))::DOUBLE
                   / length(toks), 6) END AS alpha_ratio,
   length(list_distinct(list_filter(
     list_transform(toks, x -> lower(x)),
     x -> x IN ('the','a','an','of','and','or','in','on','to','is'))
   ))::BIGINT AS n_stop_distinct,
   CASE WHEN length(toks) < 3 THEN 0.0
        ELSE round(1.0 - length(list_distinct(
               list_transform(range(1, length(toks)-1),
                 i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])))
             / (length(toks) - 2)::DOUBLE, 6) END AS repetition
 FROM t),
g AS (
 SELECT *, (CASE WHEN n_tokens BETWEEN 50 AND 100000
                  AND mean_token_len BETWEEN 3.0 AND 10.0
                  AND alpha_ratio >= 0.8
                  AND n_stop_distinct >= 2
                  AND repetition <= 0.2
             THEN 1 ELSE 0 END)::BIGINT AS passed
 FROM base)"""


SQL_DOCS_GOPHER_FILTER = _SQL_GOPHER_BASE + """
SELECT doc_id, n_tokens, mean_token_len, alpha_ratio, n_stop_distinct,
       repetition, passed
FROM g
"""


SQL_DOCS_SOURCE_SCORECARD = _SQL_GOPHER_BASE + """
, d AS (SELECT source, h, count(*)::BIGINT AS cnt,
               sum(n_tokens)::BIGINT AS toks,
               sum(passed)::BIGINT AS np
        FROM g GROUP BY source, h)
SELECT source, sum(cnt)::BIGINT AS n_docs, sum(toks)::BIGINT AS sum_tokens,
       sum(np)::BIGINT AS n_gopher_pass,
       sum(CASE WHEN cnt >= 2 THEN cnt ELSE 0 END)::BIGINT AS n_dup_docs
FROM d GROUP BY source
"""


def events_cohort_retention(sf_dir):
    """Retention triangle: users grouped by first-active day (cohort),
    counted at each later active-day offset. Distinct (user, day) pairs
    collapse map-side; per-user state never leaves its hash bucket; the
    output is calendar-sized."""
    from ..functions.streaming import cohort_retention

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return cohort_retention(ds, rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_COHORT_RETENTION = """
WITH ud AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d FROM events),
c AS (SELECT user_id, min(d) AS cohort FROM ud GROUP BY user_id)
SELECT strftime(c.cohort, '%Y-%m-%d') AS cohort_day,
       datediff('day', c.cohort, ud.d)::BIGINT AS day_offset,
       count(*)::BIGINT AS n_users
FROM ud JOIN c USING (user_id)
GROUP BY cohort_day, day_offset
"""


KM_CENSOR_DAYS = 7     # still-active horizon: last event this close to
#                        corpus end = right-censored, not churned
_DAY_US = 86_400_000_000


def events_kaplan_meier(sf_dir):
    """Kaplan-Meier survival table for user lifetime (Kaplan & Meier
    1958): duration = whole days between a user's first and last event;
    users whose last event falls within KM_CENSOR_DAYS of the corpus
    end are right-censored (still active), the churn-analysis staple.
    Output per observed duration day: (t_day, n_risk, n_event,
    n_censored) — n_risk = users with duration >= t. All exact
    integers; the survival curve S(t) = prod(1 - d_i/n_i) folds from
    them in one pass (kept out of the table so the oracle never
    compares cross-engine float products). Scale shape: the corpus-end
    timestamp comes free from parquet footer stats; per-batch per-user
    min/max partials (order-independent) → one user-bucketed min/max
    aggregate that reduces in-bucket to a <=#durations-row histogram;
    the driver folds histogram partials and reverse-cumsums n_risk —
    raw events never shuffle."""
    from ..functions.relational import hash_bucket_aggregate

    mx = pd.Timestamp(_col_max(sf_dir, "events", "ts")).value // 1000
    cut = mx - KM_CENSOR_DAYS * _DAY_US

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame({
            "user_id": batch.column("user_id").to_numpy(
                zero_copy_only=False),
            "t": batch.column("ts").cast(pa.int64()).to_numpy(
                zero_copy_only=False)})
        return (df.groupby("user_id", as_index=False)
                .agg(f=("t", "min"), l=("t", "max")))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        u = g.groupby("user_id", as_index=False).agg(
            f=("f", "min"), l=("l", "max"))
        t_day = (u["l"].to_numpy(np.int64)
                 - u["f"].to_numpy(np.int64)) // _DAY_US
        cens = (u["l"].to_numpy(np.int64) > cut).astype(np.int64)
        return (pd.DataFrame({"t_day": t_day, "n_event": 1 - cens,
                              "n_censored": cens})
                .groupby("t_day", as_index=False).sum())

    ds = _read(sf_dir, "events", ["user_id", "ts"],
               rows_per_block=32768)
    hist = hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"], per_bucket,
        rows_hint=_nrows(sf_dir, "events")).to_pandas()
    h = (hist.groupby("t_day", as_index=False).sum()
         .sort_values("t_day", ascending=False))
    h["n_risk"] = (h["n_event"] + h["n_censored"]).cumsum()
    out = h.sort_values("t_day").reset_index(drop=True)
    return out[["t_day", "n_risk", "n_event", "n_censored"]].astype(
        {c: np.int64 for c in ("t_day", "n_risk", "n_event",
                               "n_censored")})


SQL_EVENTS_KAPLAN_MEIER = f"""
WITH u AS (SELECT user_id, min(epoch_us(ts)) AS f, max(epoch_us(ts)) AS l
           FROM events GROUP BY user_id),
m AS (SELECT max(epoch_us(ts)) AS mx FROM events),
d AS (SELECT (l - f) // {_DAY_US} AS t_day,
             CASE WHEN l > mx - {KM_CENSOR_DAYS * _DAY_US}
                  THEN 1 ELSE 0 END AS cens
      FROM u, m),
h AS (SELECT t_day, sum(1 - cens)::BIGINT AS n_event,
             sum(cens)::BIGINT AS n_censored, count(*) AS n
      FROM d GROUP BY t_day)
SELECT t_day::BIGINT AS t_day,
       sum(n) OVER (ORDER BY t_day DESC)::BIGINT AS n_risk,
       n_event, n_censored
FROM h ORDER BY t_day
"""


def events_user_modal_type(sf_dir):
    """Per-user statistical mode of event_type (ties -> lexicographically
    smallest). Map-side (user, type, count) partials, one user-bucketed
    argmax — the shuffle moves distinct pairs, never raw events."""
    from ..functions.relational import per_key_mode

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    out = per_key_mode(ds, "user_id", "event_type",
                       rows_hint=_nrows(sf_dir, "events"))
    return out.map_batches(
        lambda b: b.rename(columns={"modal_value": "modal_type"}),
        batch_format="pandas")


SQL_EVENTS_USER_MODAL_TYPE = """
WITH cnt AS (SELECT user_id, event_type, count(*)::BIGINT AS cnt
             FROM events GROUP BY user_id, event_type),
r AS (SELECT *, row_number() OVER (PARTITION BY user_id
                                   ORDER BY cnt DESC, event_type) AS rn
      FROM cnt)
SELECT user_id, event_type AS modal_type, cnt FROM r WHERE rn = 1
"""


def docs_c4_filter(sf_dir):
    """C4 line-level cleaning (Raffel et al. 2020): per-line terminal-
    punctuation / min-words / javascript rules, doc-level lorem-ipsum and
    curly-brace gates. Row-local, streams at read bandwidth. The synthetic
    corpus is single-line prose without terminal punctuation, so the
    oracle here pins the reject path end-to-end (n_kept 0, passed 0,
    kept_md5 = md5('')); rule behavior on multi-line match-BEARING pages
    is pinned by test_c4_filter_duckdb_parity against the same SQL."""
    from ..functions.textstats import c4_filter_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(c4_filter_batch, batch_format="pyarrow")


def _sql_c4_filter() -> str:
    from ..functions.textstats import (C4_MIN_KEPT_LINES,
                                       C4_MIN_WORDS_PER_LINE)

    return f"""
WITH base AS (
  SELECT doc_id, text,
    list_transform(string_split(text, chr(10)),
                   x -> trim(x, ' ' || chr(9) || chr(13))) AS ts
  FROM documents),
f AS (
  SELECT doc_id, text, len(ts)::BIGINT AS n_lines,
    list_filter(ts, t -> t <> ''
      AND substr(t, length(t), 1) IN ('.', '!', '?', '"', '''')
      AND len(regexp_extract_all(t, '[^ ' || chr(9) || ']+'))
            >= {C4_MIN_WORDS_PER_LINE}
      AND NOT contains(lower(t), 'javascript')) AS kept
  FROM base)
SELECT doc_id, n_lines, len(kept)::BIGINT AS n_kept,
  md5(coalesce(array_to_string(kept, chr(10)), '')) AS kept_md5,
  (CASE WHEN len(kept) >= {C4_MIN_KEPT_LINES}
        AND NOT contains(lower(text), 'lorem ipsum')
        AND NOT contains(text, '{{') THEN 1 ELSE 0 END)::BIGINT AS passed
FROM f
"""


def docs_url_dedup(sf_dir):
    """Crawl-level URL dedup: canonicalize cosmetically-variant URLs
    (case, fragments, utm_* params, trailing slash) and keep the earliest
    crawl per canonical page. Raw URLs are synthesized deterministically
    from doc_id (every 10th row re-crawls its predecessor under a
    different variant) so the messify → normalize → dedup chain is
    value-checked end to end; see functions/urls.py."""
    from ..functions.urls import url_dedup

    ds = _read(sf_dir, "documents", ["doc_id"])
    return url_dedup(ds, rows_hint=_nrows(sf_dir, "documents"))


SQL_DOCS_URL_DEDUP = r"""
WITH raw AS (
  SELECT doc_id,
    doc_id - (CASE WHEN doc_id % 10 = 9 THEN 1 ELSE 0 END) AS base_id,
    doc_id % 5 AS m
  FROM documents),
messy AS (
  SELECT doc_id, CASE m
    WHEN 0 THEN 'https://docs.test/page/' || base_id
    WHEN 1 THEN 'HTTPS://DOCS.TEST/page/' || base_id
    WHEN 2 THEN 'https://docs.test/page/' || base_id
                || '?utm_source=feed&utm_campaign=c' || (doc_id % 7)
    WHEN 3 THEN 'https://docs.test/page/' || base_id || '#sec-' || (doc_id % 3)
    ELSE 'https://docs.test/page/' || base_id || '/'
  END AS url FROM raw),
n1 AS (SELECT doc_id,
   lower(regexp_extract(url, '^[A-Za-z]+://[^/?#]*')) ||
   substr(url, length(regexp_extract(url, '^[A-Za-z]+://[^/?#]*')) + 1) AS u
  FROM messy),
n2 AS (SELECT doc_id, regexp_replace(u, '#.*$', '') AS u FROM n1),
n3 AS (SELECT doc_id,
   regexp_replace(u, '[?&]utm_[a-z]+=[A-Za-z0-9_-]*', '', 'g') AS u FROM n2),
n4 AS (SELECT doc_id,
   regexp_replace(regexp_replace(u, '\?&', '?'), '[?&]$', '') AS u FROM n3),
n5 AS (SELECT doc_id,
   regexp_replace(u, '^([A-Za-z]+://[^/]+/.*[^/])/$', '\1') AS norm_url FROM n4)
SELECT norm_url, min(doc_id)::BIGINT AS keeper_doc_id,
       count(*)::BIGINT AS n_crawls
FROM n5 GROUP BY norm_url
"""


def docs_domain_mixture(sf_dir):
    """Domain-mixture reweighting (DoReMi-lite): per-source doc/token
    counts, the source's token share, and the uniform-target resampling
    weight (1/n_sources ÷ token_share) a mixture sampler would apply.
    Map-side per-block partials → one tiny groupby; output is
    domain-sized, never corpus-sized."""
    from ..functions.textstats import token_count_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = token_count_batch(
            batch.select(["doc_id", "text"])).column("n_tokens")
        t = pa.table({"source": batch.column("source"), "n_tokens": toks})
        g = t.group_by("source").aggregate([("n_tokens", "sum"),
                                            ("n_tokens", "count")])
        return g.rename_columns(["source", "sum_toks", "n_docs"])

    # blocks × n_sources partial rows — driver-sized; finalize locally.
    df = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = df.groupby("source", sort=False).agg(
        n_docs=("n_docs", "sum"), n_tokens=("sum_toks", "sum")
    ).reset_index()
    total = float(g["n_tokens"].sum())
    share = g["n_tokens"].to_numpy(np.float64) / total
    g["token_share"] = sql_round(share, 12)
    g["weight"] = sql_round((1.0 / len(g)) / share, 12)
    return g.astype({"n_docs": np.int64, "n_tokens": np.int64})


SQL_DOCS_DOMAIN_MIXTURE = r"""
WITH per AS (
  SELECT source,
    CASE WHEN trim(text) = '' THEN 0
         ELSE length(regexp_split_to_array(trim(text), '\s+')) END AS nt
  FROM documents),
g AS (SELECT source, count(*)::BIGINT AS n_docs, sum(nt)::BIGINT AS n_tokens
      FROM per GROUP BY source),
t AS (SELECT sum(n_tokens)::DOUBLE AS total, count(*)::DOUBLE AS n_src FROM g)
SELECT source, n_docs, n_tokens,
  round(n_tokens / t.total, 12) AS token_share,
  round((1.0 / t.n_src) / (n_tokens / t.total), 12) AS weight
FROM g, t
"""


def events_snapshot_diff(sf_dir):
    """CDC-style snapshot diff: classify every key of two table versions
    as added / deleted / changed / unchanged in ONE keyed shuffle. v2 is
    synthesized deterministically from events (id%17==3 deleted,
    id%13==4 value+1.5, id%19==6 re-inserted under id+10M at half
    value) so the whole diff is value-checked. Scale shape: tag source,
    union, hash-bucket on the key (versions of a key co-locate), each
    bucket reduces to one 4-count partial row — the diff never
    materializes, matched keys never leave their bucket."""
    from ..functions.relational import hash_bucket_aggregate

    v1 = _read(sf_dir, "events", ["event_id", "value"])

    def tag_v1(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(src=np.int64(0))

    def make_v2(b: pd.DataFrame) -> pd.DataFrame:
        eid = b["event_id"].to_numpy(np.int64)
        val = b["value"].to_numpy(np.float64)
        keep = eid % 17 != 3
        upd = pd.DataFrame({
            "event_id": eid[keep],
            "value": np.where(eid[keep] % 13 == 4, val[keep] + 1.5,
                              val[keep])})
        ins_m = eid % 19 == 6
        ins = pd.DataFrame({"event_id": eid[ins_m] + 10_000_000,
                            "value": val[ins_m] * 0.5})
        return pd.concat([upd, ins]).assign(src=np.int64(1))

    both = v1.map_batches(tag_v1, batch_format="pandas").union(
        v1.map_batches(make_v2, batch_format="pandas"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["src"] == 0]
        b = g[g["src"] == 1]
        m = a.merge(b, on="event_id", how="outer", suffixes=("_a", "_b"),
                    indicator=True)
        hit = m["_merge"] == "both"
        changed = int((hit & (m["value_a"] != m["value_b"])).sum())
        return pd.DataFrame({
            "n_added": [int((m["_merge"] == "right_only").sum())],
            "n_deleted": [int((m["_merge"] == "left_only").sum())],
            "n_changed": [changed],
            "n_unchanged": [int(hit.sum()) - changed]})

    parts = hash_bucket_aggregate(both, ["event_id"], per_bucket,
                                  rows_hint=2 * _nrows(sf_dir, "events"))
    return parts.to_pandas().sum().to_frame().T.astype(np.int64)


SQL_EVENTS_SNAPSHOT_DIFF = """
WITH v2 AS (
  SELECT event_id,
         CASE WHEN event_id % 13 = 4 THEN value + 1.5 ELSE value END
           AS value
  FROM events WHERE event_id % 17 <> 3
  UNION ALL
  SELECT event_id + 10000000, value * 0.5 FROM events
  WHERE event_id % 19 = 6),
j AS (SELECT e.event_id AS k1, v2.event_id AS k2,
             e.value AS va, v2.value AS vb
      FROM events e FULL OUTER JOIN v2 ON e.event_id = v2.event_id)
SELECT
  sum(CASE WHEN k1 IS NULL THEN 1 ELSE 0 END)::BIGINT AS n_added,
  sum(CASE WHEN k2 IS NULL THEN 1 ELSE 0 END)::BIGINT AS n_deleted,
  sum(CASE WHEN k1 IS NOT NULL AND k2 IS NOT NULL AND va <> vb
      THEN 1 ELSE 0 END)::BIGINT AS n_changed,
  sum(CASE WHEN k1 IS NOT NULL AND k2 IS NOT NULL AND va = vb
      THEN 1 ELSE 0 END)::BIGINT AS n_unchanged
FROM j
"""


FD_CANDIDATES = (
    ("events", "user_id", "event_type"),
    ("orders", "o_custkey", "o_orderpriority"),
    ("orders", "o_orderkey", "o_custkey"),      # holds: key is unique
    ("customer", "c_nationkey", "c_mktsegment"),
    ("lineitem", "l_orderkey", "l_returnflag"),
)


def fd_audit(sf_dir):
    """Functional-dependency audit across candidate (determinant ->
    dependent) pairs: per-key distinct-dependent counts via one coarse
    hash-bucket shuffle per candidate, each bucket reducing to a single
    partial row (the key set never materializes). Classic data-quality
    profiling: confirms which FDs hold (unique keys) and quantifies the
    violation rate of the rest. See functions/relational.py::fd_check."""
    from ..functions.relational import fd_check

    rows = []
    for tbl, det, dep in FD_CANDIDATES:
        ds = _read(sf_dir, tbl, [det, dep])
        r = fd_check(ds, det, dep, rows_hint=_nrows(sf_dir, tbl)).iloc[0]
        nk, nv = int(r["n_keys"]), int(r["n_violating"])
        rows.append((tbl, det, dep, nk, nv,
                     float(sql_round(nv / nk, 6))))
    out = pd.DataFrame(rows, columns=["tbl", "determinant", "dependent",
                                      "n_keys", "n_violating",
                                      "violation_rate"])
    return out.astype({"n_keys": np.int64, "n_violating": np.int64})


def _sql_fd_audit() -> str:
    parts = []
    for tbl, det, dep in FD_CANDIDATES:
        parts.append(f"""
SELECT '{tbl}' AS tbl, '{det}' AS determinant, '{dep}' AS dependent,
  count(*)::BIGINT AS n_keys,
  sum(CASE WHEN nd > 1 THEN 1 ELSE 0 END)::BIGINT AS n_violating,
  round(sum(CASE WHEN nd > 1 THEN 1 ELSE 0 END)::DOUBLE / count(*), 6)
    AS violation_rate
FROM (SELECT {det}, count(DISTINCT {dep}) AS nd FROM {tbl}
      GROUP BY {det})""")
    return "\nUNION ALL\n".join(parts)


def docs_mojibake(sf_dir):
    """Encoding-damage census (ftfy-style triage, detection only):
    UTF-8-read-as-Latin-1 artifact sequences, replacement characters,
    stray C0 controls, and a per-doc clean flag. Row-local, streams at
    read bandwidth. The corpus is clean by construction, so the oracle
    pins the identity path; artifact-BEARING strings are pinned by
    test_mojibake_duckdb_parity against the same SQL."""
    from ..functions.textstats import mojibake_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(mojibake_batch, batch_format="pyarrow")


def _sql_mojibake() -> str:
    from ..functions.textstats import (MOJIBAKE_CONTROL_CLASS,
                                       MOJIBAKE_MARKERS)

    alt = "|".join(MOJIBAKE_MARKERS)
    repl = chr(0xFFFD)
    return f"""
SELECT doc_id,
  len(regexp_extract_all(text, '{alt}'))::BIGINT AS n_mojibake,
  len(regexp_extract_all(text, '{repl}'))::BIGINT AS n_replacement,
  len(regexp_extract_all(text, '{MOJIBAKE_CONTROL_CLASS}'))::BIGINT
    AS n_control,
  (CASE WHEN len(regexp_extract_all(text, '{alt}')) = 0
         AND len(regexp_extract_all(text, '{repl}')) = 0
         AND len(regexp_extract_all(text, '{MOJIBAKE_CONTROL_CLASS}')) = 0
        THEN 1 ELSE 0 END)::BIGINT AS clean
FROM documents
"""


HEAPS_CHECKPOINTS = 10


def _col_max(sf_dir, table, col) -> int:
    """Exact column max from parquet row-group footer statistics — free,
    no data read (our testdata writers always emit stats; raises loudly
    if a file ever lacks them rather than guessing)."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(f"{sf_dir}/{table}.parquet").metadata
    idx = md.schema.to_arrow_schema().get_field_index(col)
    maxes = []
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            raise ValueError(f"{table}.{col}: no row-group statistics")
        maxes.append(st.max)
    return max(maxes)


def docs_heaps_law(sf_dir):
    """Heaps'-law vocabulary-growth curve: cumulative corpus size
    (docs, token occurrences) vs distinct-vocabulary size at 10 doc-id
    decile checkpoints — the sublinearity audit that tells a tokenizer/
    dedup pipeline whether vocabulary is saturating or still growing
    linearly (a near-linear tail is a strong novel-content / junk
    signal). Scale shape: checkpoint thresholds come free from parquet
    footer stats (max doc_id); ONE corpus pass emits per-batch partials
    only — per-token min-doc_id rows (vocab first-sightings) and a
    <=10-row per-decile (docs, tokens) histogram — then one bucketed
    min/sum aggregate whose per-bucket output is <=10 rows each; the
    driver folds <=10·buckets rows and cumsums. Tokens never shuffle
    raw; everything is exact integers."""
    from ..functions.relational import hash_bucket_aggregate

    m = int(_col_max(sf_dir, "documents", "doc_id")) + 1
    ts = np.array([(m * i) // HEAPS_CHECKPOINTS
                   for i in range(1, HEAPS_CHECKPOINTS + 1)],
                  dtype=np.int64)

    def partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        first: dict = {}
        n_tok = np.zeros(len(ids), dtype=np.int64)
        for i, (d, t) in enumerate(zip(ids, texts)):
            toks = t.split()
            n_tok[i] = len(toks)
            for w in toks:
                p = first.get(w)
                if p is None or d < p:
                    first[w] = d
        tok_rows = pd.DataFrame({
            "kind": "t", "key": list(first.keys()),
            "v": np.fromiter(first.values(), dtype=np.int64,
                             count=len(first)),
            "nd": np.int64(0)})
        bins = np.searchsorted(ts, ids, side="right") + 1
        cnt = (pd.DataFrame({"bin": bins, "v": n_tok})
               .groupby("bin", as_index=False)
               .agg(v=("v", "sum"), nd=("v", "size")))
        cnt_rows = pd.DataFrame({
            "kind": "c", "key": cnt["bin"].astype(str),
            "v": cnt["v"].astype(np.int64),
            "nd": cnt["nd"].astype(np.int64)})
        return pd.concat([tok_rows, cnt_rows], ignore_index=True)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        gt = g[g["kind"] == "t"]
        if len(gt):
            fd = gt.groupby("key")["v"].min()
            b = np.searchsorted(ts, fd.to_numpy(np.int64), side="right")
            vb = np.bincount(b + 1, minlength=HEAPS_CHECKPOINTS + 1)
            nz = np.flatnonzero(vb)
            out.append(pd.DataFrame({
                "decile": nz, "vocab": vb[nz],
                "toks": np.int64(0), "docs": np.int64(0)}))
        gc = g[g["kind"] == "c"]
        if len(gc):
            cc = gc.groupby("key", as_index=False).agg(
                v=("v", "sum"), nd=("nd", "sum"))
            out.append(pd.DataFrame({
                "decile": cc["key"].astype(np.int64), "vocab": np.int64(0),
                "toks": cc["v"].astype(np.int64),
                "docs": cc["nd"].astype(np.int64)}))
        if not out:
            return pd.DataFrame({c: pd.Series(dtype=np.int64)
                                 for c in ("decile", "vocab", "toks",
                                           "docs")})
        return pd.concat(out, ignore_index=True).astype(
            {c: np.int64 for c in ("decile", "vocab", "toks", "docs")})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    parts = hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["kind", "key"], per_bucket,
        rows_hint=64 * _nrows(sf_dir, "documents")).to_pandas()
    agg = (parts.groupby("decile").agg(
        vocab=("vocab", "sum"), toks=("toks", "sum"), docs=("docs", "sum"))
        .reindex(range(1, HEAPS_CHECKPOINTS + 1), fill_value=0))
    return pd.DataFrame({
        "decile": np.arange(1, HEAPS_CHECKPOINTS + 1, dtype=np.int64),
        "docs_cum": agg["docs"].cumsum().to_numpy(np.int64),
        "tokens_cum": agg["toks"].cumsum().to_numpy(np.int64),
        "vocab_cum": agg["vocab"].cumsum().to_numpy(np.int64)})


SQL_DOCS_HEAPS_LAW = rf"""
WITH m AS (SELECT max(doc_id) + 1 AS m FROM documents),
tok AS (SELECT doc_id,
               unnest(regexp_split_to_array(trim(text), '\s+')) AS token
        FROM documents),
firsts AS (SELECT token, min(doc_id) AS fd FROM tok
           WHERE token <> '' GROUP BY token),
nt AS (SELECT doc_id, count(*) FILTER (WHERE token <> '') AS n
       FROM tok GROUP BY doc_id),
d AS (SELECT unnest(range(1, {HEAPS_CHECKPOINTS + 1})) AS i)
SELECT i::BIGINT AS decile,
  (SELECT count(*) FROM documents, m
   WHERE doc_id < m.m * i // {HEAPS_CHECKPOINTS})::BIGINT AS docs_cum,
  (SELECT coalesce(sum(n), 0) FROM nt, m
   WHERE doc_id < m.m * i // {HEAPS_CHECKPOINTS})::BIGINT AS tokens_cum,
  (SELECT count(*) FROM firsts, m
   WHERE fd < m.m * i // {HEAPS_CHECKPOINTS})::BIGINT AS vocab_cum
FROM d ORDER BY i
"""


ZIPF_RANKS = 100


def docs_zipf_alpha(sf_dir):
    """Zipf power-law fit of the corpus word-frequency distribution:
    OLS slope of ln(freq) on ln(rank) over the exact top-N tokens,
    alpha = -slope. Counts ride the word_freq map-combined groupby; the
    post-groupby blocks hold DISJOINT tokens, so each block's local
    top-N merged on the driver is the exact global top-N (blocks x N
    rows, never the vocabulary). The regression is order-free: ln values
    quantized to a 1e-6 grid (absorbs the 1-ulp libm skew between numpy
    and DuckDB), all sums exact integers, one float division at the end.
    Output: (n_ranks, zipf_alpha, ln_intercept)."""
    topn = ZIPF_RANKS

    def local_top(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["cnt", "token"],
                             ascending=[False, True]).head(topn)

    parts = docs_word_freq(sf_dir).map_batches(
        local_top, batch_format="pandas").to_pandas()
    top = parts.sort_values(["cnt", "token"],
                            ascending=[False, True]).head(topn)
    n = len(top)
    rank = np.arange(1, n + 1, dtype=np.float64)
    cnt = top["cnt"].to_numpy(np.float64)
    lr = np.floor(np.log(rank) * 1e6 + 0.5).astype(np.int64)
    lf = np.floor(np.log(cnt) * 1e6 + 0.5).astype(np.int64)
    sx, sy = int(lr.sum()), int(lf.sum())
    sxy = int((lr * lf).sum())
    sxx = int((lr * lr).sum())
    slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
    intercept = (float(sy) - slope * float(sx)) / float(n) / 1e6
    return pd.DataFrame({
        "n_ranks": pd.Series([n], dtype=np.int64),
        "zipf_alpha": [float(sql_round(-slope, 6))],
        "ln_intercept": [float(sql_round(intercept, 6))]})


def _sql_zipf_alpha() -> str:
    return rf"""
WITH wf AS (
  SELECT token, count(*)::BIGINT AS cnt FROM (
    SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
    FROM documents)
  WHERE token <> '' GROUP BY token),
top AS (
  SELECT cnt, token,
         row_number() OVER (ORDER BY cnt DESC, token ASC) AS rank
  FROM wf QUALIFY rank <= {ZIPF_RANKS}),
q AS (
  SELECT CAST(floor(ln(rank::DOUBLE) * 1000000 + 0.5) AS BIGINT) AS lr,
         CAST(floor(ln(cnt::DOUBLE) * 1000000 + 0.5) AS BIGINT) AS lf
  FROM top),
s AS (
  SELECT count(*)::HUGEINT AS n, sum(lr::HUGEINT) AS sx,
         sum(lf::HUGEINT) AS sy, sum(lr::HUGEINT * lf::HUGEINT) AS sxy,
         sum(lr::HUGEINT * lr::HUGEINT) AS sxx
  FROM q),
f AS (
  SELECT n, sx, sy,
         (n * sxy - sx * sy)::DOUBLE / (n * sxx - sx * sx)::DOUBLE AS slope
  FROM s)
SELECT n::BIGINT AS n_ranks, round(-slope, 6) AS zipf_alpha,
       round((sy::DOUBLE - slope * sx::DOUBLE) / n::DOUBLE / 1000000.0, 6)
         AS ln_intercept
FROM f
"""


OUTLIER_TOPK = 5


def embed_centroid_outliers(sf_dir):
    """Per-label embedding outliers: top-k vectors FARTHEST from their
    label centroid, integer-exact — components quantized to 1e-6
    micro-units, centroid from embed_label_centroids (trunc-div, matches
    DuckDB //), distance = int64 squared euclidean in micro-units^2 so
    there is no float summation order to disagree about. Centroids are
    driver-sized (labels x dims) and broadcast once via ray.put; each
    block keeps only its local top-k per label, the driver folds
    blocks x labels x k partial rows. Mislabeled/corrupted-vector triage
    (the SemDeDup prune complement: farthest-first instead of
    nearest-dup)."""
    import ray as _ray

    cent = embed_label_centroids(sf_dir).to_pandas()
    cents = {int(lab): grp.sort_values("dim")["centroid_fp"]
             .to_numpy(np.int64)
             for lab, grp in cent.groupby("label")}
    cent_ref = _ray.put(cents)
    k = OUTLIER_TOPK

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = _ray.get(cent_ref)
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in b["embedding"]])
        fp = (np.sign(m) * np.floor(np.abs(m) * 1e6 + 0.5)) \
            .astype(np.int64)
        labels = b["label"].to_numpy(np.int64)
        vid = b["vec_id"].to_numpy(np.int64)
        out = []
        for lab in np.unique(labels):
            idx = np.flatnonzero(labels == lab)
            diff = fp[idx] - c[int(lab)][None, :]
            d2 = (diff * diff).sum(axis=1)
            top = idx[np.lexsort((vid[idx], -d2))[:k]]
            for i in top:
                d = fp[i] - c[int(lab)]
                out.append((int(lab), int(vid[i]), int((d * d).sum())))
        return pd.DataFrame(out, columns=["label", "vec_id", "d2_fp"]) \
            .astype(np.int64)

    ds = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
    df = ds.map_batches(partial, batch_format="pandas").to_pandas()
    df = df.sort_values(["label", "d2_fp", "vec_id"],
                        ascending=[True, False, True])
    df["rank"] = df.groupby("label").cumcount() + 1
    out = df[df["rank"] <= k].reset_index(drop=True)
    return out[["label", "rank", "vec_id", "d2_fp"]].astype(np.int64)


SQL_EMBED_CENTROID_OUTLIERS = """
WITH e AS (SELECT vec_id, label, unnest(embedding) AS comp,
                  generate_subscripts(embedding, 1) - 1 AS dim
           FROM embeddings),
q AS (SELECT vec_id, label, dim,
        CAST(CASE WHEN comp >= 0
             THEN floor(comp::DOUBLE * 1000000 + 0.5)
             ELSE -floor(-comp::DOUBLE * 1000000 + 0.5) END AS BIGINT)
          AS fp
      FROM e),
c AS (SELECT label, dim,
        (sum(fp)::BIGINT // count(*)::BIGINT)::BIGINT AS cfp
      FROM q GROUP BY label, dim),
d AS (SELECT q.vec_id, q.label,
        sum((q.fp - c.cfp) * (q.fp - c.cfp))::BIGINT AS d2_fp
      FROM q JOIN c ON q.label = c.label AND q.dim = c.dim
      GROUP BY q.vec_id, q.label),
r AS (SELECT *, row_number() OVER (PARTITION BY label
        ORDER BY d2_fp DESC, vec_id) AS rank FROM d)
SELECT label::BIGINT AS label, rank::BIGINT AS rank,
       vec_id::BIGINT AS vec_id, d2_fp
FROM r WHERE rank <= 5
"""


LENGTH_QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99)


def docs_length_quantiles(sf_dir):
    """EXACT distributed quantiles of the doc-length distribution via
    value-histogram partials: each block reduces to (n_tokens, count)
    rows — cardinality bounded by DISTINCT lengths, not docs — one tiny
    merge, then rank selection replaying DuckDB's quantile_disc rank
    max(ceil(q*n)-1, 0). The histogram trick is exact whenever the value
    domain is bounded (lengths, scores on a grid); unbounded doubles
    would need a KLL/t-digest sketch instead (functions/sketches.py holds
    the sketch family)."""
    import math

    from ..functions.textstats import token_count_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        nt = token_count_batch(batch).column("n_tokens").cast(pa.int64())
        g = pa.table({"n_tokens": nt}).group_by("n_tokens") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["n_tokens", "cnt"])

    df = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    h = df.groupby("n_tokens", sort=True)["cnt"].sum()
    n = int(h.sum())
    cum = h.cumsum().to_numpy()
    vals = h.index.to_numpy()
    picks = [int(vals[np.searchsorted(
        cum, max(math.ceil(q * n) - 1, 0) + 1, side="left")])
        for q in LENGTH_QUANTILES]
    return pd.DataFrame({
        "q": np.asarray(LENGTH_QUANTILES, dtype=np.float64),
        "n_tokens_q": np.asarray(picks, dtype=np.int64)})


def _sql_length_quantiles() -> str:
    qs = list(LENGTH_QUANTILES)
    return rf"""
WITH per AS (
  SELECT (CASE WHEN trim(text) = '' THEN 0
          ELSE length(regexp_split_to_array(trim(text), '\s+'))
          END)::BIGINT AS nt
  FROM documents)
SELECT unnest({qs}) AS q,
       unnest(quantile_disc(nt, {qs}))::BIGINT AS n_tokens_q
FROM per
"""


def docs_filter_funnel(sf_dir):
    """FineWeb-style curation funnel in ONE streaming pass: every filter
    flag (Gopher rules, language-ID confidence, PII-free, C4 line rules)
    is computed per document in the same map_batches, each block emits
    one row of partial sums, and the driver folds block-count rows.
    Contrast docs_curation_funnel, which re-executes stages to count
    them — this is the shape a 100 TB run uses (flags cost one read).
    Output: independent pass counts plus the cumulative funnel in the
    order gopher → lang → pii → c4."""
    from ..functions.textstats import (_LANG_MARKERS, _tokens,
                                       c4_line_filter, gopher_signals,
                                       pii_scrub)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def flags_partial(batch: pa.Table) -> pa.Table:
        gp = lk = pc_ = cp = fl = fp = fc = 0
        n = batch.num_rows
        for t in batch.column("text").to_pylist():
            g = gopher_signals(t)[5]
            toks = [w.lower() for w in _tokens(t)]
            nt = max(1, len(toks))
            k = int(any(sum(1 for w in toks if w in m) / nt > 0
                        for m in _LANG_MARKERS.values()))
            p = int(sum(pii_scrub(t)[1]) == 0)
            c = c4_line_filter(t)[3]
            gp += g
            lk += k
            pc_ += p
            cp += c
            fl += g * k
            fp += g * k * p
            fc += g * k * p * c
        return pa.table({
            "n_total": pa.array([n], pa.int64()),
            "n_pass_gopher": pa.array([gp], pa.int64()),
            "n_pass_lang": pa.array([lk], pa.int64()),
            "n_pass_pii": pa.array([pc_], pa.int64()),
            "n_pass_c4": pa.array([cp], pa.int64()),
            "n_funnel_lang": pa.array([fl], pa.int64()),
            "n_funnel_pii": pa.array([fp], pa.int64()),
            "n_funnel_c4": pa.array([fc], pa.int64()),
        })

    df = ds.map_batches(flags_partial, batch_format="pyarrow").to_pandas()
    return df.sum().to_frame().T.astype(np.int64)


def _sql_filter_funnel() -> str:
    return f"""
SELECT count(*)::BIGINT AS n_total,
  sum(g.passed)::BIGINT AS n_pass_gopher,
  sum(l.known)::BIGINT AS n_pass_lang,
  sum(p.clean)::BIGINT AS n_pass_pii,
  sum(c.passed)::BIGINT AS n_pass_c4,
  sum(g.passed * l.known)::BIGINT AS n_funnel_lang,
  sum(g.passed * l.known * p.clean)::BIGINT AS n_funnel_pii,
  sum(g.passed * l.known * p.clean * c.passed)::BIGINT AS n_funnel_c4
FROM ({SQL_DOCS_GOPHER_FILTER}) g
JOIN (SELECT doc_id, (CASE WHEN pred_lang <> 'und' THEN 1 ELSE 0 END)
        AS known FROM ({SQL_DOCS_LANGID})) l USING (doc_id)
JOIN (SELECT doc_id, (CASE WHEN n_pii = 0 THEN 1 ELSE 0 END)
        AS clean FROM ({_sql_pii_scrub()})) p USING (doc_id)
JOIN ({_sql_c4_filter()}) c USING (doc_id)
"""


def docs_domain_blocklist(sf_dir):
    """UT1-style domain blocklist report: parse the crawl URL's host,
    extract the registrable domain (public-suffix-lite: co.uk/co.jp),
    test broadcast-blocklist membership, count docs per domain. The
    whole chain runs on the URL string — synthesis, host parse, suffix
    logic and membership are all value-checked; partials are
    domain-cardinality per block, the corpus never shuffles."""
    from ..functions.urls import domain_blocklist_stats

    ds = _read(sf_dir, "documents", ["doc_id"])
    return domain_blocklist_stats(ds)


def _sql_domain_blocklist() -> str:
    from ..functions.urls import CRAWL_SUBS, CRAWL_TLDS, blocked_domains

    subs = ", ".join(f"'{s}'" for s in CRAWL_SUBS)
    tlds = ", ".join(f"'{t}'" for t in CRAWL_TLDS)
    block = ", ".join(f"'{b}'" for b in sorted(blocked_domains()))
    return rf"""
WITH u AS (
  SELECT doc_id,
    'https://' || [{subs}][doc_id % 3 + 1] || 'site' || (doc_id % 37)
      || '.' || [{tlds}][doc_id % 11 + 1] || '/p/' || doc_id AS url
  FROM documents),
h AS (SELECT doc_id,
        regexp_extract(url, '^[A-Za-z]+://([^/?#]+)', 1) AS host FROM u),
d AS (SELECT doc_id,
    CASE WHEN regexp_matches(host, '\.co\.(uk|jp)$')
         THEN regexp_extract(host, '([^.]+\.co\.[^.]+)$', 1)
         ELSE regexp_extract(host, '([^.]+\.[^.]+)$', 1) END AS domain
  FROM h)
SELECT domain, substr(domain, position('.' IN domain) + 1) AS tld,
  (CASE WHEN domain IN ({block}) THEN 1 ELSE 0 END)::BIGINT AS blocked,
  count(*)::BIGINT AS n_docs
FROM d GROUP BY 1, 2, 3
"""


def docs_winnowing(sf_dir):
    """Winnowing fingerprints (Schleimer et al., SIGMOD 2003 — the MOSS
    scheme): per-doc distinct window-minima of positional k-gram hashes.
    Any shared run of >= w+k-1 words between two docs is guaranteed to
    share a fingerprint while only ~2/(w+1) of gram hashes are kept.
    Row-local, streams at read bandwidth; fp_checksum (sum of the
    selected set mod 2**64) value-checks the SELECTION, not just its
    size. See functions/dedup.py::winnow_fingerprints."""
    from ..functions.dedup import winnow_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(winnow_batch, batch_format="pyarrow")


def _sql_winnowing() -> str:
    from ..functions.dedup import WINNOW_K, WINNOW_W

    k, w = WINNOW_K, WINNOW_W
    return rf"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
g AS (
  SELECT doc_id, len(toks) AS nw, toks,
         unnest(range(CASE WHEN len(toks) < {k}
                      THEN 1 ELSE len(toks) - {k} + 1 END)) AS pos
  FROM t),
h AS (
  SELECT doc_id, pos,
    CASE WHEN nw < {k} THEN 1 ELSE nw - {k} + 1 END AS ng,
    ('0x' || substr(md5(CASE WHEN nw < {k}
         THEN coalesce(array_to_string(toks, ' '), '')
         ELSE array_to_string(toks[pos + 1: pos + {k}], ' ')
       END), 1, 16))::UBIGINT AS gh
  FROM g),
wins AS (
  SELECT doc_id, ng, pos,
    min(gh) OVER (PARTITION BY doc_id ORDER BY pos
                  ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS fp
  FROM h),
sel AS (
  SELECT DISTINCT doc_id, ng, fp FROM wins
  WHERE pos <= greatest(ng - {w}, 0))
SELECT doc_id, max(ng)::BIGINT AS n_grams, count(*)::BIGINT AS n_fps,
  (sum(fp::HUGEINT) % 18446744073709551616)::UBIGINT AS fp_checksum
FROM sel GROUP BY doc_id
"""


def orders_skyline(sf_dir):
    """2-D skyline (Pareto frontier) of orders, maximizing both price
    and recency: an order survives iff no other order is >= on both
    axes and strictly better on one. The frontier operator is
    MERGEABLE (global skyline ⊆ union of per-block skylines), so each
    block reduces to its local frontier first and only frontier-sized
    survivors move — never an all-pairs comparison, shuffle volume
    O(frontier) regardless of corpus size. Both axes quantize to exact
    integers (cents / epoch-µs) so dominance is bit-identical across
    engines. See functions/relational.py::skyline_2d."""
    from ..functions.relational import skyline_2d
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_totalprice", "o_orderdate"])

    def quantize(t: pa.Table) -> pa.Table:
        price = sql_round(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0,
            0).astype(np.int64)
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "price_cents": pa.array(price, pa.int64()),
            "date_us": t.column("o_orderdate").cast(pa.int64()),
        })

    sky = skyline_2d(ds.map_batches(quantize, batch_format="pyarrow"),
                     "price_cents", "date_us")
    return sky.sort("o_orderkey")


SQL_ORDERS_SKYLINE = """
WITH pts AS (
  SELECT o_orderkey,
         ROUND(o_totalprice * 100, 0)::BIGINT AS price_cents,
         epoch_us(o_orderdate)::BIGINT AS date_us
  FROM orders),
g AS (SELECT price_cents, max(date_us) AS gmax FROM pts GROUP BY 1),
k AS (SELECT price_cents, gmax,
        coalesce(max(gmax) OVER (ORDER BY price_cents DESC
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
          -9223372036854775807) AS prev
      FROM g)
SELECT p.o_orderkey, p.price_cents, p.date_us
FROM pts p JOIN k USING (price_cents)
WHERE p.date_us = k.gmax AND k.gmax > k.prev
"""


_BENFORD_P = None


def _benford_p() -> "np.ndarray":
    """Benford probabilities log10(1 + 1/d), d=1..9, quantized to 12
    decimals so both engines use the IDENTICAL constants (DuckDB's
    log10 can sit 1 ulp off numpy's; the quantized values are embedded
    as SQL literals instead of recomputed)."""
    global _BENFORD_P
    if _BENFORD_P is None:
        from ..functions.sqlcompat import sql_round
        d = np.arange(1, 10, dtype=np.float64)
        _BENFORD_P = sql_round(np.log10(1.0 + 1.0 / d), 12)
    return _BENFORD_P


def lineitem_benford(sf_dir):
    """Benford's-law audit of l_extendedprice: distribution of the first
    significant digit vs the log10(1+1/d) expectation, plus the
    chi-square statistic. Fraud/synthetic-data screens run exactly this
    shape over monetary columns. Scale: each block reduces to a 9-row
    digit-count partial (first digit extracted by exact integer
    division on the cents quantization — no float log in the hot path),
    so the shuffle volume is 9 × blocks regardless of corpus size; the
    chi-square is computed once on the driver-side 9-row merge. Floats
    (freq, chi2) round to 12 decimals per the pinned-float rule."""
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"],
               rows_per_block=32768)

    def digit_partial(t: pa.Table) -> pa.Table:
        p = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        c = sql_round(p * 100.0, 0).astype(np.int64)
        c = c[c > 0]
        while True:
            big = c >= 10
            if not big.any():
                break
            c = np.where(big, c // 10, c)
        counts = np.bincount(c, minlength=10)[1:10]
        return pa.table({"digit": pa.array(np.arange(1, 10), pa.int64()),
                         "n": pa.array(counts.astype(np.int64), pa.int64())})

    df = (ds.map_batches(digit_partial, batch_format="pyarrow")
            .to_pandas().groupby("digit", as_index=False)["n"].sum())
    n = np.zeros(9, dtype=np.int64)
    n[df["digit"].to_numpy() - 1] = df["n"].to_numpy()
    total = int(n.sum())
    pq_ = _benford_p()
    exp = total * pq_
    chi2 = float(sql_round(np.sum((n - exp) ** 2 / exp), 12))
    return pd.DataFrame({
        "digit": np.arange(1, 10, dtype=np.int64),
        "n": n,
        "freq": sql_round(n / total, 12),
        "benford_p": pq_,
        "chi2": np.full(9, chi2),
    })


def _sql_benford() -> str:
    pq_ = _benford_p()
    pvals = ", ".join(f"(%d, %.12f)" % (d + 1, pq_[d]) for d in range(9))
    return f"""
WITH c AS (
  SELECT ROUND(l_extendedprice * 100, 0)::BIGINT AS cents
  FROM lineitem WHERE ROUND(l_extendedprice * 100, 0) > 0),
d AS (SELECT substr(cents::VARCHAR, 1, 1)::BIGINT AS digit FROM c),
cnt AS (SELECT digit, count(*)::BIGINT AS n FROM d GROUP BY 1),
p(digit, benford_p) AS (VALUES {pvals}),
m AS (
  SELECT p.digit, coalesce(cnt.n, 0)::BIGINT AS n, p.benford_p
  FROM p LEFT JOIN cnt USING (digit)),
t AS (SELECT sum(n)::BIGINT AS total FROM m)
SELECT digit, n, ROUND(n / total, 12) AS freq, benford_p,
  ROUND(sum((n - total * benford_p) * (n - total * benford_p)
            / (total * benford_p)) OVER (), 12) AS chi2
FROM m, t
"""


#: mild-outlier fence in halves: |x - median| > (3/2) * MAD, compared as
#: 2*dev > 3*mad so the test stays integer-exact on both sides.
MAD_FENCE_NUM = 3
MAD_FENCE_DEN = 2


def lineitem_price_mad_outliers(sf_dir):
    """Robust outlier screen over l_extendedprice: median/MAD fence in
    exact integer cents (median and MAD are immune to the outliers they
    hunt — the reason data-quality monitors prefer them to mean/stddev).
    Scale shape: ONE streaming pass reduces each block to a
    (l_returnflag, cents, count) value-histogram partial — cardinality
    bounded by flags × distinct prices, not rows — and the median, the
    MAD (a second rank selection over the |dev| re-weighted histogram,
    no second data pass), and the per-flag fence counts all come off
    that driver-sized merge. Same exactness argument as
    docs_length_quantiles: quantile_disc rank = max(ceil(q*n)-1, 0)."""
    import math

    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"],
               rows_per_block=32768)

    def hist_partial(t: pa.Table) -> pa.Table:
        cents = pa.array(sql_round(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0, 0).astype(np.int64), pa.int64())
        g = (pa.table({"l_returnflag": t.column("l_returnflag"),
                       "cents": cents})
             .group_by(["l_returnflag", "cents"])
             .aggregate([([], "count_all")]))
        return g.rename_columns(["l_returnflag", "cents", "cnt"])

    h = (ds.map_batches(hist_partial, batch_format="pyarrow").to_pandas()
           .groupby(["l_returnflag", "cents"], as_index=False)["cnt"].sum())

    def disc_median(vals: np.ndarray, weights: np.ndarray) -> int:
        order = np.argsort(vals, kind="stable")
        v, w = vals[order], weights[order]
        cum = w.cumsum()
        n = int(cum[-1])
        return int(v[np.searchsorted(
            cum, max(math.ceil(0.5 * n) - 1, 0) + 1, side="left")])

    gl = h.groupby("cents", as_index=False)["cnt"].sum()
    vals = gl["cents"].to_numpy(np.int64)
    wts = gl["cnt"].to_numpy(np.int64)
    med = disc_median(vals, wts)
    mad = disc_median(np.abs(vals - med), wts)

    h["dev"] = np.abs(h["cents"].to_numpy(np.int64) - med)
    h["out"] = np.where(
        MAD_FENCE_DEN * h["dev"].to_numpy() > MAD_FENCE_NUM * mad,
        h["cnt"].to_numpy(), 0).astype(np.int64)
    out = h.groupby("l_returnflag", as_index=False).agg(
        n_rows=("cnt", "sum"), n_outliers=("out", "sum"))
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["n_outliers"] = out["n_outliers"].astype(np.int64)
    out["median_cents"] = np.int64(med)
    out["mad_cents"] = np.int64(mad)
    return out


_SQL_PRICE_MAD_OUTLIERS = f"""
WITH c AS (
  SELECT l_returnflag,
         ROUND(l_extendedprice * 100, 0)::BIGINT AS cents
  FROM lineitem),
m AS (SELECT quantile_disc(cents, 0.5)::BIGINT AS med FROM c),
d AS (SELECT l_returnflag,
             abs(cents - (SELECT med FROM m))::BIGINT AS dev
      FROM c),
md AS (SELECT quantile_disc(dev, 0.5)::BIGINT AS mad FROM d)
SELECT l_returnflag,
       count(*)::BIGINT AS n_rows,
       sum(CASE WHEN {MAD_FENCE_DEN} * dev
                     > {MAD_FENCE_NUM} * (SELECT mad FROM md)
                THEN 1 ELSE 0 END)::BIGINT AS n_outliers,
       (SELECT med FROM m) AS median_cents,
       (SELECT mad FROM md) AS mad_cents
FROM d GROUP BY 1
"""


KCORE_K = 14
#: same deterministic partkey-mod vertex sample as the Adamic-Adar query
#: (the full co-purchase graph is dense enough that small k-cores are
#: trivially the whole graph); k=14 peels 3-6 rounds at sf0.01/sf0.1 and
#: empties the core at sf0.001, exercising both fixpoints.
KCORE_VERTEX_MOD = 5


def graph_kcore_parts(sf_dir):
    """k-core decomposition (iterative peeling) of the sampled part
    co-purchase graph: vertices of the maximal subgraph with min degree
    >= KCORE_K, with their in-core degree. Each peel round is one
    bucketed degree aggregate + a size-gated anti-join of the victim
    set — linear passes, never all-pairs; see
    functions/graph.py::k_core. The oracle replays the peel as a
    round-capped recursive CTE with the SAME bound (both sides raise /
    stop at 64 rounds, reached by neither — measured max 6)."""
    from ..functions.graph import k_core

    # coarse blocks: cheap vectorized stages + bucketed shuffles (same
    # fixed-cost-per-block finding as graph_link_prediction_parts)
    n = _nrows(sf_dir, "lineitem") // KCORE_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, KCORE_VERTEX_MOD)
    core = k_core(edges, KCORE_K, rows_hint=4 * n)
    if core.count() == 0:
        # Ray's to_pandas drops columns from all-empty blocks; hand the
        # driver a TYPED empty frame so the schema compare still holds
        return pd.DataFrame({"v": pd.Series(dtype="int64"),
                             "core_deg": pd.Series(dtype="int64")})
    return core


def _sql_kcore() -> str:
    k, mod = KCORE_K, KCORE_VERTEX_MOD
    return f"""
WITH RECURSIVE
lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
       WHERE l_partkey % {mod} = 0),
e AS (SELECT DISTINCT x.p AS a, y.p AS b
      FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
alive(r, a, b) AS (
  SELECT 0, a, b FROM e
  UNION ALL
  SELECT r + 1, a, b FROM alive
  WHERE r < 64
    AND a NOT IN (SELECT v FROM (
          SELECT v, count(*) AS c FROM (
            SELECT a AS v FROM alive UNION ALL SELECT b FROM alive)
          GROUP BY v) WHERE c < {k})
    AND b NOT IN (SELECT v FROM (
          SELECT v, count(*) AS c FROM (
            SELECT a AS v FROM alive UNION ALL SELECT b FROM alive)
          GROUP BY v) WHERE c < {k})
    AND EXISTS (SELECT 1 FROM (
          SELECT v, count(*) AS c FROM (
            SELECT a AS v FROM alive UNION ALL SELECT b FROM alive)
          GROUP BY v) WHERE c < {k})
),
last AS (SELECT a, b FROM alive WHERE r = (SELECT max(r) FROM alive)),
deg AS (SELECT v, count(*)::BIGINT AS core_deg FROM (
          SELECT a AS v FROM last UNION ALL SELECT b FROM last)
        GROUP BY v)
SELECT v, core_deg FROM deg
WHERE NOT EXISTS (SELECT 1 FROM deg d2 WHERE d2.core_deg < {k})
"""


TRUSS_K = 5            # per-edge triangle support >= 3 to survive
TRUSS_VERTEX_MOD = 5   # sample parts into the co-purchase graph
TRUSS_ROUNDS = 8       # fixed unroll bound (measured convergence <= 5)


def graph_ktruss_parts(sf_dir):
    """k-truss (Cohen 2008) of the sampled part co-purchase graph: the
    maximal subgraph where EVERY edge sits in >= k-2 triangles — the
    edge-supported cohesion refinement a KG build uses to keep only
    well-corroborated relations (one step stronger than k-core, which
    only bounds degrees). Peel is a fixed 8-round unroll (measured
    convergence <= 5 at every sf; the engine stops early on the
    idempotent converged set and RAISES if still peeling at the bound,
    so oracle divergence is impossible). Per round: ONE wedge exchange
    (per middle vertex, neighbor pairs as map-side-combinable counters;
    each triangle credits all 3 of its edges via its 3 middles) + ONE
    (a, b)-bucketed support aggregate — two linear shuffles, never
    all-pairs; size-gated local replay below the edge threshold
    (functions/graph.py::k_truss). Output: surviving edges with their
    in-truss support."""
    from ..functions.graph import k_truss

    n = _nrows(sf_dir, "lineitem") // TRUSS_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, TRUSS_VERTEX_MOD)
    out = k_truss(edges, TRUSS_K, rounds=TRUSS_ROUNDS,
                  rows_hint=4 * n).to_pandas()
    if not len(out):
        return pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64"),
                             "support": pd.Series(dtype="int64")})
    return (out.sort_values(["a", "b"]).reset_index(drop=True)
            .astype({c: np.int64 for c in out.columns}))


def _sql_ktruss() -> str:
    thr, mod, rounds = TRUSS_K - 2, TRUSS_VERTEX_MOD, TRUSS_ROUNDS
    parts = [f"""
WITH
lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
       WHERE l_partkey % {mod} = 0),
e0 AS MATERIALIZED (SELECT DISTINCT x.p AS a, y.p AS b
                    FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p)"""]
    for i in range(rounds + 1):
        parts.append(f""",
adj{i} AS MATERIALIZED (SELECT a AS u, b AS v FROM e{i}
                        UNION ALL SELECT b, a FROM e{i}),
sup{i} AS MATERIALIZED (
  SELECT e.a, e.b, count(*) AS c
  FROM e{i} e JOIN adj{i} x ON x.u = e.a
              JOIN adj{i} y ON y.u = e.b AND y.v = x.v
  GROUP BY e.a, e.b)""")
        if i < rounds:
            parts.append(f""",
e{i + 1} AS MATERIALIZED (
  SELECT s.a, s.b FROM sup{i} s WHERE s.c >= {thr})""")
    parts.append(f"""
SELECT a, b, c::BIGINT AS support FROM sup{rounds} WHERE c >= {thr}
""")
    return "".join(parts)


WL_ROUNDS = 3
WL_VERTEX_MOD = 5      # sample parts into the co-purchase graph


def graph_wl_colors_parts(sf_dir):
    """Weisfeiler-Lehman color refinement (1-WL, 3 rounds) over the
    sampled part co-purchase graph — structural-role signatures: parts
    sharing a final color have 1-WL-indistinguishable neighborhoods
    (role discovery / isomorphism screening / WL-kernel features).
    Labels are md5-derived hex strings (lab_0 = degree; lab_r =
    md5_16(own || '|' || sorted neighbor multiset)), so the whole
    refinement replays exactly in SQL as unrolled MATERIALIZED rounds.
    Output is the color histogram (color, n_nodes, min part) — bounded
    by the number of distinct structural roles. Scale shape: per round
    ONE bucketed label⋈adjacency join + ONE node-bucketed sorted-agg
    hash, per-round block compaction; size-gated local replay below
    the edge threshold (functions/graph.py::wl_refinement)."""
    from ..functions.graph import wl_refinement
    from ..functions.relational import hash_bucket_aggregate

    n = _nrows(sf_dir, "lineitem") // WL_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, WL_VERTEX_MOD)
    colors = wl_refinement(edges, rounds=WL_ROUNDS, rows_hint=4 * n)

    def hist_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("color", as_index=False).agg(
            n_nodes=("node", "size"), min_part=("node", "min"))
        return out.astype({"n_nodes": np.int64, "min_part": np.int64})

    out = hash_bucket_aggregate(colors, ["color"], hist_bucket,
                                rows_hint=n).to_pandas()
    if not len(out):
        return pd.DataFrame({"color": pd.Series(dtype=str),
                             "n_nodes": pd.Series(dtype="int64"),
                             "min_part": pd.Series(dtype="int64")})
    return (out.sort_values("color").reset_index(drop=True)
            .astype({"n_nodes": np.int64, "min_part": np.int64}))


def _sql_wl() -> str:
    mod = WL_VERTEX_MOD
    rnd = """
l{r} AS MATERIALIZED (
  SELECT s.u AS node,
         substr(md5(l.lab || '|' || string_agg(n.lab, ',' ORDER BY n.lab)),
                1, 16) AS lab
  FROM se s JOIN l{p} l ON l.node = s.u JOIN l{p} n ON n.node = s.v
  GROUP BY s.u, l.lab)"""
    rounds = ",".join(rnd.format(r=i + 1, p=i) for i in range(WL_ROUNDS))
    return f"""
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
            WHERE l_partkey % {mod} = 0),
e AS MATERIALIZED (SELECT DISTINCT x.p AS a, y.p AS b
     FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
se AS MATERIALIZED (SELECT a AS u, b AS v FROM e
     UNION ALL SELECT b, a FROM e),
l0 AS MATERIALIZED (SELECT u AS node, count(*)::VARCHAR AS lab
     FROM se GROUP BY u),{rounds}
SELECT lab AS color, count(*)::BIGINT AS n_nodes,
       min(node)::BIGINT AS min_part
FROM l{WL_ROUNDS} GROUP BY lab
"""


SQL_GRAPH_WL_COLORS_PARTS = _sql_wl()


LP_ITERS = 3
LP_VERTEX_MOD = 5      # sample parts into the co-purchase graph
LP_SEED_MOD = 20       # every p_partkey % 20 == 0 part is a labeled seed


def graph_label_propagation_parts(sf_dir):
    """Seeded label propagation (semi-supervised node classification)
    over the sampled part co-purchase graph: every 4th sampled part is
    clamped to its p_brand; 3 synchronous rounds spread brands to the
    unlabeled parts by neighbor majority vote (ties → smallest label).
    Deterministic integer votes + total tie order → full SQL value
    oracle (one MATERIALIZED CTE per round). Scale shape: per round one
    bucketed label⋈adjacency join + one bucketed clamp/majority — see
    functions/graph.py::label_propagation."""
    from ..functions.graph import label_propagation

    n = _nrows(sf_dir, "lineitem") // LP_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, LP_VERTEX_MOD)
    seeds = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda t: t.filter(pa.array(
            t.column("p_partkey").to_numpy(zero_copy_only=False)
            % LP_SEED_MOD == 0)).rename_columns(["entity", "label"]),
        batch_format="pyarrow")
    out = label_propagation(edges, seeds, iters=LP_ITERS,
                            rows_hint=4 * n).to_pandas()
    return out.sort_values("entity").reset_index(drop=True)


SSSP_ITERS = 4
SSSP_SEED_MOD = 100    # parts with p_partkey % 100 == 0 are hub seeds


def graph_sssp_parts(sf_dir):
    """Multi-source weighted shortest paths (association distance) over
    the sampled part co-purchase graph: edge weight = 1 + 100 // support
    (frequently co-bought parts sit closer), hub seeds at distance 0,
    4 synchronous Bellman-Ford rounds — exact within 4 hops, unreached
    parts absent. Integer weights + min make the distributed result
    value-identical to the unrolled-CTE SQL oracle. Scale shape: per
    round one bucketed distance⋈adjacency join + one bucketed min —
    see functions/graph.py::sssp."""
    from ..functions.graph import sssp
    from ..functions.relational import hash_bucket_aggregate

    n = _nrows(sf_dir, "lineitem") // LP_VERTEX_MOD
    pairs = _copurchase_edges(sf_dir, LP_VERTEX_MOD, distinct=False)

    def weight_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["a", "b"], as_index=False).size()
        out["w"] = (1 + 100 // out["size"]).astype("int64")
        return out[["a", "b", "w"]]

    edges = hash_bucket_aggregate(pairs, ["a", "b"], weight_bucket,
                                  rows_hint=4 * n)
    part_keys = _read(sf_dir, "part", ["p_partkey"]).map_batches(
        lambda t: t.filter(pa.array(
            t.column("p_partkey").to_numpy(zero_copy_only=False)
            % SSSP_SEED_MOD == 0)),
        batch_format="pyarrow").to_pandas()
    out = sssp(edges, part_keys["p_partkey"].tolist(), iters=SSSP_ITERS,
               rows_hint=4 * n).to_pandas()
    return out.sort_values("entity").reset_index(drop=True)


def _sql_sssp() -> str:
    parts = [f"""
WITH lp AS MATERIALIZED (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE l_partkey % {LP_VERTEX_MOD} = 0),
ew AS MATERIALIZED (
  SELECT x.p AS a, y.p AS b, (1 + 100 // count(*))::BIGINT AS w
  FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p
  GROUP BY x.p, y.p),
adj AS MATERIALIZED (
  SELECT a AS u, b AS v, w FROM ew UNION ALL SELECT b, a, w FROM ew),
d0 AS MATERIALIZED (
  SELECT p_partkey::BIGINT AS entity, 0::BIGINT AS dist FROM part
  WHERE p_partkey % {SSSP_SEED_MOD} = 0)"""]
    for i in range(1, SSSP_ITERS + 1):
        parts.append(f""",
d{i} AS MATERIALIZED (
  SELECT entity, min(dist)::BIGINT AS dist FROM (
    SELECT entity, dist FROM d{i - 1}
    UNION ALL
    SELECT adj.v AS entity, p.dist + adj.w AS dist
    FROM adj JOIN d{i - 1} p ON adj.u = p.entity
  ) GROUP BY entity)""")
    parts.append(f"""
SELECT entity::BIGINT AS entity, dist::BIGINT AS dist FROM d{SSSP_ITERS}
ORDER BY entity""")
    return "".join(parts)


def _sql_label_propagation() -> str:
    parts = [f"""
WITH lp AS MATERIALIZED (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE l_partkey % {LP_VERTEX_MOD} = 0),
e0 AS MATERIALIZED (
  SELECT DISTINCT x.p AS a, y.p AS b
  FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS MATERIALIZED (
  SELECT a AS u, b AS v FROM e0 UNION ALL SELECT b, a FROM e0),
seeds AS MATERIALIZED (
  SELECT p_partkey AS entity, p_brand AS label FROM part
  WHERE p_partkey % {LP_SEED_MOD} = 0),
l0 AS MATERIALIZED (SELECT entity, label FROM seeds)"""]
    for i in range(1, LP_ITERS + 1):
        parts.append(f""",
l{i} AS MATERIALIZED (
  SELECT entity, label FROM (
    SELECT adj.v AS entity, p.label,
           row_number() OVER (PARTITION BY adj.v
                              ORDER BY count(*) DESC, p.label ASC) AS rn
    FROM adj JOIN l{i - 1} p ON adj.u = p.entity
    WHERE adj.v NOT IN (SELECT entity FROM seeds)
    GROUP BY adj.v, p.label) WHERE rn = 1
  UNION ALL SELECT entity, label FROM seeds)""")
    parts.append(f"""
SELECT entity::BIGINT AS entity, label::VARCHAR AS label FROM l{LP_ITERS}
ORDER BY entity""")
    return "".join(parts)


def graph_modularity_parts(sf_dir):
    """Modularity report of the label-propagation communities: per
    community c over the labeled-induced subgraph, Q_c = e_c/m -
    (D_c/2m)^2 (Newman-Girvan) — the standard "did the propagation find
    real structure" check a KG build runs before trusting community
    labels downstream. e_c/D_c/m are exact integers from two bucketed
    label⋈edge joins; Q_c is two float divisions and one subtraction
    from those integers, rounded to 12 dp, bit-matching the SQL replay
    (which re-runs the SAME unrolled LP rounds via the shared CTE
    prefix). Driver fold is |communities|^2-bounded (labels are the
    25-brand vocabulary), never edge-bounded."""
    from ..functions.graph import label_propagation
    from ..functions.relational import shuffle_join
    from ..functions.sqlcompat import sql_round

    n = _nrows(sf_dir, "lineitem") // LP_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, LP_VERTEX_MOD)
    seeds = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda t: t.filter(pa.array(
            t.column("p_partkey").to_numpy(zero_copy_only=False)
            % LP_SEED_MOD == 0)).rename_columns(["entity", "label"]),
        batch_format="pyarrow")
    labels = label_propagation(edges, seeds, iters=LP_ITERS,
                               rows_hint=4 * n).materialize()

    la = labels.map_batches(
        lambda t: t.rename_columns(["entity", "ca"]),
        batch_format="pyarrow")
    lb = labels.map_batches(
        lambda t: t.rename_columns(["entity", "cb"]),
        batch_format="pyarrow")
    el = shuffle_join(edges, la, "a", "entity", ["b"], ["ca"],
                      rows_hint=4 * n)
    # shuffle_join's tagged union round-trips carried non-string columns
    # as object dtype — restore int64 before keying the second join
    el = el.map_batches(
        lambda df: df.astype({"b": np.int64}), batch_format="pandas")
    el = shuffle_join(el, lb, "b", "entity", ["a", "ca"], ["cb"],
                      rows_hint=4 * n)

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["ca", "cb"], as_index=False).size()
        out["size"] = out["size"].astype(np.int64)
        return out.rename(columns={"size": "n"})

    pairs = (el.map_batches(pair_partial, batch_format="pandas").to_pandas()
             .groupby(["ca", "cb"], as_index=False)["n"].sum())

    def node_partial(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("label", as_index=False).size()
        out["size"] = out["size"].astype(np.int64)
        return out.rename(columns={"size": "n_nodes"})

    nn = (labels.map_batches(node_partial, batch_format="pandas")
          .to_pandas().groupby("label", as_index=False)["n_nodes"].sum())

    m = int(pairs["n"].sum())
    intra = {c: int(v) for c, v in
             pairs[pairs["ca"] == pairs["cb"]][["ca", "n"]].itertuples(
                 index=False)}
    dsum: dict = {}
    for ca, cb, cnt in pairs.itertuples(index=False):
        dsum[ca] = dsum.get(ca, 0) + int(cnt)
        dsum[cb] = dsum.get(cb, 0) + int(cnt)
    rows = []
    for lab, nv in sorted(zip(nn["label"], nn["n_nodes"])):
        ec = intra.get(lab, 0)
        dc = dsum.get(lab, 0)
        q = float(sql_round(float(ec) / float(m)
                            - float(dc * dc) / float(4 * m * m), 12))
        rows.append((lab, int(nv), ec, dc, q))
    return pd.DataFrame(rows, columns=["label", "n_nodes", "intra_edges",
                                       "degree_sum", "q"]).astype(
        {"n_nodes": "int64", "intra_edges": "int64", "degree_sum": "int64"})


def _sql_modularity() -> str:
    lp_sql = _sql_label_propagation()
    # reuse the LP oracle's unrolled CTE chain verbatim; swap its final
    # SELECT for the modularity tail so the two oracles cannot drift
    prefix = lp_sql[:lp_sql.rindex("\nSELECT entity::BIGINT")]
    return prefix + f""",
lab AS MATERIALIZED (SELECT entity, label FROM l{LP_ITERS}),
el AS MATERIALIZED (
  SELECT la.label AS ca, lb.label AS cb FROM e0
  JOIN lab la ON e0.a = la.entity JOIN lab lb ON e0.b = lb.entity),
mm AS (SELECT count(*)::HUGEINT AS m FROM el),
ec AS (SELECT ca AS label, count(*)::BIGINT AS intra_edges
       FROM el WHERE ca = cb GROUP BY ca),
ds AS (SELECT label, count(*)::BIGINT AS degree_sum FROM
       (SELECT ca AS label FROM el UNION ALL SELECT cb FROM el)
       GROUP BY label),
nn AS (SELECT label, count(*)::BIGINT AS n_nodes FROM lab GROUP BY label)
SELECT nn.label::VARCHAR AS label, nn.n_nodes,
       coalesce(ec.intra_edges, 0)::BIGINT AS intra_edges,
       coalesce(ds.degree_sum, 0)::BIGINT AS degree_sum,
       round(coalesce(ec.intra_edges, 0)::DOUBLE / mm.m::DOUBLE
             - (coalesce(ds.degree_sum, 0)::HUGEINT
                * coalesce(ds.degree_sum, 0))::DOUBLE
               / (4 * mm.m * mm.m)::DOUBLE, 12) AS q
FROM nn LEFT JOIN ec USING (label) LEFT JOIN ds USING (label), mm
ORDER BY label"""


def events_time_weighted_avg(sf_dir):
    """Time-weighted average of `value` per user: the step-function
    integral sum(value_i * (t_{i+1} - t_i)) / (t_last - t_first) — the
    metric a billing/IoT pipeline computes over irregular samples, where
    the plain mean over-weights bursts. One (user_id) hash-bucket
    shuffle; inside a bucket the integral is vectorized (grouped shift
    for the lead timestamp). All arithmetic is exact fixed-point:
    cents x µs products sum as Python ints (they overflow int64; the
    oracle replays them in HUGEINT) and the average is an integer
    floor-division to micro-units — no float ever forms, so the hash
    oracle is exact. Users with one event (zero duration) are skipped.
    Requires non-negative values (events.value is): Python // floors
    while DuckDB // truncates, so a negative integral would diverge."""
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    n = _nrows(sf_dir, "events")

    def quantize(t: pa.Table) -> pa.Table:
        cents = sql_round(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0,
            0).astype(np.int64)
        return pa.table({
            "user_id": t.column("user_id"),
            "event_id": t.column("event_id"),
            "t": t.column("ts").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t", "event_id"])
        nxt = g.groupby("user_id", sort=False)["t"].shift(-1)
        dt = (nxt - g["t"]).fillna(0).astype("int64")
        contrib = g["cents"].astype(object) * dt.astype(object)
        agg = (g.assign(contrib=contrib)
                .groupby("user_id", sort=False)
                .agg(n_events=("t", "size"), t_min=("t", "min"),
                     t_max=("t", "max"), integral=("contrib", "sum"))
                .reset_index())
        agg = agg[agg["n_events"] >= 2]
        dur = (agg["t_max"] - agg["t_min"]).astype("int64")
        twa = [(10 ** 6 * i) // (d * 100)
               for i, d in zip(agg["integral"], dur)]
        return pd.DataFrame({
            "user_id": agg["user_id"].astype("int64"),
            "n_events": agg["n_events"].astype("int64"),
            "duration_us": dur,
            "twa_micro": pd.Series(twa, dtype="int64",
                                   index=agg.index),
        })

    return hash_bucket_aggregate(
        ds.map_batches(quantize, batch_format="pyarrow"),
        ["user_id"], per_bucket, rows_hint=n)


SQL_EVENTS_TIME_WEIGHTED_AVG = """
WITH x AS (
  SELECT user_id, event_id, epoch_us(ts)::BIGINT AS t,
         ROUND(value * 100, 0)::BIGINT AS cents,
         lead(epoch_us(ts)::BIGINT)
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS t_next
  FROM events),
g AS (
  SELECT user_id, count(*)::BIGINT AS n_events,
         (max(t) - min(t))::BIGINT AS duration_us,
         sum(CASE WHEN t_next IS NULL THEN 0::HUGEINT
                  ELSE cents::HUGEINT * (t_next - t) END) AS integral
  FROM x GROUP BY user_id HAVING count(*) >= 2)
SELECT user_id, n_events, duration_us,
  ((1000000::HUGEINT * integral)
     // (duration_us::HUGEINT * 100))::BIGINT AS twa_micro
FROM g
"""


def lineitem_association_rules(sf_dir):
    """Market-basket association rules over the frequent part pairs:
    both rule directions a→b / b→a with confidence
    supp(ab)/supp(a) and lift supp(ab)·N/(supp(a)·supp(b)), reported as
    exact micro-unit integers (floor division over Python-int/HUGEINT
    products — no float forms, hash-oracle exact; all counts are
    non-negative so // semantics agree across engines).

    Scale shape: ONE order-keyed bucket shuffle does everything that
    needs co-located baskets — the (order, part) distinct, per-bucket
    item-support partials, the EXACT per-bucket distinct-order count
    (orders never span buckets) and the per-order pair expansion — as a
    tagged union; pair partials then take one small (a, b) support sum,
    while the parts-sized item/basket stats fold on the driver. The
    item-support table is catalog-sized and BROADCAST onto the rule
    stream (ray.put once, a dict lookup per batch) instead of two
    shuffle joins. (The previous plan ran the lineitem distinct twice
    plus a separate distinct-order shuffle — 4 shuffles and 2 reads;
    this one measures ~2.5x faster at sf0.1.)"""
    import ray as _ray

    from ..functions.relational import hash_bucket_aggregate

    # coarse blocks: see graph_link_prediction_parts
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               rows_per_block=32768)
    n_rows = _nrows(sf_dir, "lineitem")

    def op_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # block-local distinct, vectorized (the Python set(zip(...)) form
        # measured ~4 s alone at sf0.1; drop_duplicates is C-speed)
        out = df.drop_duplicates().rename(
            columns={"l_orderkey": "o", "l_partkey": "p"})
        return out.astype({"o": np.int64, "p": np.int64})

    def basket_bucket(g: pd.DataFrame) -> pd.DataFrame:
        gd = g.drop_duplicates(["o", "p"])
        # kind 0: per-order pair-support partials — vectorized self-merge
        # (baskets are tiny, <= 7 lineitems, so the merge is ~7x rows;
        # a mega-basket would need skew_join's salt/cap treatment)
        m = gd.merge(gd, on="o")
        m = m[m["p_x"] < m["p_y"]]
        pairs = m.groupby(["p_x", "p_y"], as_index=False).agg(
            v=("o", "size"))
        pairs = pairs.rename(columns={"p_x": "a", "p_y": "b"})
        pairs.insert(0, "kind", np.int64(0))
        # kind 1: item-support partials (parts-sized)
        vc = gd["p"].value_counts()
        items = pd.DataFrame({"kind": np.int64(1),
                              "a": vc.index.to_numpy(np.int64),
                              "b": np.int64(0),
                              "v": vc.to_numpy(np.int64)})
        # kind 2: EXACT distinct-order count for this bucket (orders are
        # the bucket key, so bucket counts sum to the global count)
        norders = pd.DataFrame({"kind": [np.int64(2)], "a": [np.int64(0)],
                                "b": [np.int64(0)],
                                "v": [np.int64(gd["o"].nunique())]})
        out = pd.concat([pairs, items, norders], ignore_index=True)
        return out.astype({c: np.int64 for c in out.columns})

    tagged = hash_bucket_aggregate(
        ds.map_batches(op_pairs, batch_format="pandas"), ["o"],
        basket_bucket, rows_hint=n_rows).materialize()

    stats = (tagged.map_batches(
        lambda df: df[df["kind"] > 0], batch_format="pandas").to_pandas())
    item_supp = (stats[stats["kind"] == 1].groupby("a")["v"].sum())
    n_orders = int(stats.loc[stats["kind"] == 2, "v"].sum())
    supp_ref = _ray.put(item_supp.to_dict())

    def sup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["a", "b"], as_index=False).agg(
            support=("v", "sum"))
        out["support"] = out["support"].astype(np.int64)
        return out[out["support"] >= FREQ_PAIR_MINSUP]

    pairs = hash_bucket_aggregate(
        tagged.map_batches(lambda df: df[df["kind"] == 0],
                           batch_format="pandas"),
        ["a", "b"], sup_bucket, rows_hint=n_rows)

    def rules(b: pd.DataFrame, _ref=supp_ref, _n=n_orders) -> pd.DataFrame:
        from ..stages.score import cached

        supp = cached(("assoc_supp", _ref.hex()), lambda: _ray.get(_ref))
        a = b["a"].to_numpy(np.int64)
        bb = b["b"].to_numpy(np.int64)
        s = b["support"].astype(object).to_numpy()
        sa = np.array([supp[x] for x in a], dtype=object)
        sb = np.array([supp[x] for x in bb], dtype=object)
        ante = np.concatenate([a, bb])
        cons = np.concatenate([bb, a])
        sp = np.concatenate([s, s])
        s_ante = np.concatenate([sa, sb])
        s_cons = np.concatenate([sb, sa])
        conf = (10 ** 6 * sp) // s_ante
        lift = (10 ** 6 * sp * _n) // (s_ante * s_cons)
        return pd.DataFrame({
            "antecedent": ante.astype(np.int64),
            "consequent": cons.astype(np.int64),
            "support_pair": sp.astype(np.int64),
            "support_ante": s_ante.astype(np.int64),
            "support_cons": s_cons.astype(np.int64),
            "n_orders": np.full(len(sp), _n, dtype=np.int64),
            "conf_micro": conf.astype(np.int64),
            "lift_micro": lift.astype(np.int64),
        })

    return pairs.map_batches(rules, batch_format="pandas")


SQL_LINEITEM_ASSOCIATION_RULES = f"""
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
n AS (SELECT count(DISTINCT o)::BIGINT AS n_orders FROM lp),
item AS (SELECT p, count(*)::BIGINT AS supp FROM lp GROUP BY p),
pairs AS (SELECT x.p AS a, y.p AS b, count(*)::BIGINT AS s
          FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p
          GROUP BY 1, 2 HAVING count(*) >= {FREQ_PAIR_MINSUP}),
rules AS (
  SELECT a AS antecedent, b AS consequent, s FROM pairs
  UNION ALL
  SELECT b, a, s FROM pairs)
SELECT r.antecedent, r.consequent, r.s AS support_pair,
  ia.supp AS support_ante, ic.supp AS support_cons, n.n_orders,
  ((1000000::HUGEINT * r.s) // ia.supp)::BIGINT AS conf_micro,
  ((1000000::HUGEINT * r.s * n.n_orders)
     // (ia.supp::HUGEINT * ic.supp))::BIGINT AS lift_micro
FROM rules r
JOIN item ia ON ia.p = r.antecedent
JOIN item ic ON ic.p = r.consequent, n
"""


def docs_readability(sf_dir):
    """Flesch reading-ease per document (the classic curation
    readability gate): 206.835 - 1.015·(words/sentences) -
    84.6·(syllables/words) over whitespace tokens, [.!?]-run sentences
    and vowel-group syllables. Row-local vectorized scan — see
    functions/textstats.py::flesch_batch."""
    from ..functions.textstats import flesch_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(flesch_batch, batch_format="pyarrow")


SQL_DOCS_READABILITY = r"""
WITH t AS (
  SELECT doc_id, text,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
w AS (
  SELECT doc_id,
    length(toks)::BIGINT AS n_words,
    greatest(length(regexp_extract_all(text, '[.!?]+')), 1)::BIGINT
      AS n_sents,
    list_aggregate(list_transform(toks,
        x -> greatest(length(regexp_extract_all(lower(x), '[aeiouy]+')),
                      1)), 'sum')::BIGINT AS n_syllables
  FROM t WHERE length(toks) > 0)
SELECT doc_id, n_words, n_sents, n_syllables,
  round(206.835 - 1.015 * (n_words / n_sents)
        - 84.6 * (n_syllables / n_words), 12) AS flesch
FROM w
"""


def events_ewma(sf_dir):
    """Per-user exponentially weighted moving average (alpha = 1/2) of
    `value` in integer cents with half-floor rounding at every step:
    e_n = (e_{n-1} + cents_n) // 2 — the INTEGER recurrence makes the
    smoother bit-deterministic (a float EWMA's pow-decay sums can never
    hash-match across engines; the oracle replays this one exactly as a
    recursive CTE). One (user_id) hash-bucket shuffle; the recurrence is
    inherently sequential per user, so inside a bucket it's a linear
    scan in event order — O(events per user), the same bound any
    streaming smoother has. Output: one row per user with the final
    smoothed value."""
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def quantize(t: pa.Table) -> pa.Table:
        cents = sql_round(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0,
            0).astype(np.int64)
        return pa.table({
            "user_id": t.column("user_id"),
            "event_id": t.column("event_id"),
            "t": t.column("ts").cast(pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t", "event_id"])
        users, ns, ewmas = [], [], []
        for uid, grp in g.groupby("user_id", sort=False):
            e = None
            for m in grp["cents"]:
                e = m if e is None else (e + int(m)) // 2
            users.append(uid)
            ns.append(len(grp))
            ewmas.append(e)
        return pd.DataFrame({
            "user_id": pd.Series(users, dtype="int64"),
            "n_events": pd.Series(ns, dtype="int64"),
            "ewma_cents": pd.Series(ewmas, dtype="int64"),
        })

    return hash_bucket_aggregate(
        ds.map_batches(quantize, batch_format="pyarrow"),
        ["user_id"], per_bucket, rows_hint=_nrows(sf_dir, "events"))


SQL_EVENTS_EWMA = """
WITH RECURSIVE x AS (
  SELECT user_id,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rk,
         ROUND(value * 100, 0)::BIGINT AS cents
  FROM events),
r AS (
  SELECT user_id, rk, cents AS e FROM x WHERE rk = 1
  UNION ALL
  SELECT x.user_id, x.rk, (r.e + x.cents) // 2
  FROM r JOIN x ON x.user_id = r.user_id AND x.rk = r.rk + 1)
SELECT user_id, max(rk)::BIGINT AS n_events,
       arg_max(e, rk)::BIGINT AS ewma_cents
FROM r GROUP BY user_id
"""


RAKE_STOPWORDS = ("the", "a", "an", "of", "and", "or", "in", "on", "to",
                  "is")
RAKE_MIN_FREQ = 5


def docs_rake_scores(sf_dir):
    """RAKE keyword scoring (Rose et al. 2010) over the corpus: candidate
    phrases are maximal stopword-delimited runs of whitespace tokens;
    each word occurrence contributes freq += 1 and deg += phrase length,
    and score = deg/freq (reported as an exact floor-divided micro-unit
    integer). Words seen >= RAKE_MIN_FREQ times are kept. Scale shape:
    phrase segmentation and the (freq, deg) partials are computed
    row-locally per batch (a Counter per block — vocabulary-sized, not
    corpus-sized), then ONE word-keyed bucketed sum finishes it; the
    oracle replays the segmentation as a gaps-and-islands window."""
    from collections import Counter

    from ..functions.relational import hash_bucket_aggregate
    from ..functions.textstats import _tokens

    ds = _read(sf_dir, "documents", ["text"])
    stops = frozenset(RAKE_STOPWORDS)

    def partial(batch: pa.Table) -> pa.Table:
        freq: Counter = Counter()
        deg: Counter = Counter()
        for text in batch.column("text").to_pylist():
            run: list[str] = []
            for w in [t.lower() for t in _tokens(text)] + ["the"]:
                if w in stops:
                    for x in run:
                        freq[x] += 1
                        deg[x] += len(run)
                    run = []
                else:
                    run.append(w)
        words = sorted(freq)
        return pa.table({
            "word": pa.array(words, pa.string()),
            "freq": pa.array([freq[w] for w in words], pa.int64()),
            "deg": pa.array([deg[w] for w in words], pa.int64()),
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("word", as_index=False).agg(
            freq=("freq", "sum"), deg=("deg", "sum"))
        out = out[out["freq"] >= RAKE_MIN_FREQ]
        out["freq"] = out["freq"].astype(np.int64)
        out["deg"] = out["deg"].astype(np.int64)
        out["score_micro"] = ((10 ** 6 * out["deg"])
                              // out["freq"]).astype(np.int64)
        return out

    return hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["word"], per_bucket, rows_hint=_nrows(sf_dir, "documents") * 64)


def _sql_rake() -> str:
    stops = ", ".join(f"'{s}'" for s in RAKE_STOPWORDS)
    return rf"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
u AS (
  SELECT doc_id, lower(unnest(toks)) AS w,
         unnest(range(length(toks))) AS pos
  FROM t),
m AS (
  SELECT doc_id, w, pos, w IN ({stops}) AS is_stop,
         count(CASE WHEN w IN ({stops}) THEN 1 END)
           OVER (PARTITION BY doc_id ORDER BY pos) AS grp
  FROM u),
p AS (
  SELECT doc_id, w,
         count(*) OVER (PARTITION BY doc_id, grp) AS L
  FROM m WHERE NOT is_stop),
agg AS (SELECT w, count(*)::BIGINT AS freq, sum(L)::BIGINT AS deg
        FROM p GROUP BY w)
SELECT w AS word, freq, deg,
  ((1000000::HUGEINT * deg) // freq)::BIGINT AS score_micro
FROM agg WHERE freq >= {RAKE_MIN_FREQ}
"""


def docs_link_graph(sf_dir):
    """Hyperlink source-graph over the crawl: render each page's
    deterministic outlink markup, regex-extract the hrefs (the real
    crawl-side operation — see ``functions/urls.py``), resolve every
    target document's source with ONE doc_id-keyed shuffle join, then
    count (src_source, dst_source) edges. Scale shape: extraction is
    row-local and streams at read bandwidth; the edge→documents join is
    a single bucketed shuffle on doc_id (the corpus is the big side, so
    no broadcast); the final aggregate is map-side partialed first —
    source×source cardinality is tiny, so only partials move."""
    from ..functions.relational import hash_bucket_aggregate, shuffle_join

    edges, n_docs = _link_edges(sf_dir)
    targets = _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        lambda df: df.rename(columns={"source": "dst_source"}),
        batch_format="pandas")
    joined = shuffle_join(edges, targets, "dst_doc", "doc_id",
                          ["src_source"], ["dst_source"],
                          rows_hint=n_docs * 3)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["src_source", "dst_source"], sort=False,
                         as_index=False).size()
        return out.rename(columns={"size": "n_links"})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["src_source", "dst_source"],
                        as_index=False)["n_links"].sum()
        out["n_links"] = out["n_links"].astype(np.int64)
        return out

    partials = joined.map_batches(partial, batch_format="pandas")
    return hash_bucket_aggregate(partials, ["src_source", "dst_source"],
                                 per_bucket, rows_hint=512)


#: md5-replayed outlink edge table shared by every link-graph oracle:
#: (src_doc, src_source, dst_doc), one row per extracted href.
_SQL_LINK_EDGES = """
WITH n AS (SELECT count(*)::UBIGINT AS n_docs FROM documents),
e AS (
  SELECT d.doc_id AS src_doc, d.source AS src_source,
         (('0x' || substr(md5('link:' || d.doc_id::VARCHAR || ':'
                              || t.j::VARCHAR), 1, 16))::UBIGINT
          % n.n_docs)::BIGINT AS dst_doc
  FROM documents d, n, range(3) t(j)
  WHERE t.j < 1 + (('0x' || substr(md5('nlinks:' || d.doc_id::VARCHAR),
                                   1, 16))::UBIGINT % 3)::BIGINT
)"""

_SQL_LINK_GRAPH = _SQL_LINK_EDGES + """
SELECT e.src_source, d2.source AS dst_source, count(*)::BIGINT AS n_links
FROM e JOIN documents d2 ON d2.doc_id = e.dst_doc
GROUP BY 1, 2
"""


def _link_edges(sf_dir):
    """Shared extraction stage for the link-graph analytics queries:
    (src_doc, src_source, dst_doc) edges, one row per extracted href."""
    from ..functions.urls import extract_links_batch

    n_docs = _nrows(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    return docs.map_batches(
        lambda b: extract_links_batch(b, n_docs),
        batch_format="pyarrow"), n_docs


def docs_link_pagerank(sf_dir):
    """PageRank over the doc-level hyperlink graph — THE canonical
    web-graph computation. Reuses the integer fixed-point power iteration
    (functions.graph.pagerank): int64 micro-unit arithmetic makes the
    distributed result bit-identical to the chained-CTE SQL replay. Every
    page has >=1 outlink, so the node set is exactly the corpus and edge
    multiplicity (a page linking the same target twice) is preserved on
    both sides."""
    from ..functions.graph import pagerank

    edges, n_docs = _link_edges(sf_dir)

    def as_pair(t: pa.Table) -> pa.Table:
        return pa.table({
            "subj": t.column("src_doc").cast(pa.string()),
            "obj": t.column("dst_doc").cast(pa.string())})

    return pagerank(edges.map_batches(as_pair, batch_format="pyarrow"),
                    iters=PAGERANK_ITERS, rows_hint=n_docs * 2)


def _link_pagerank_sql(iters: int, scale: int, num: int, den: int) -> str:
    """Chained-CTE replay of the integer power iteration over the
    md5-replayed link edges (same round structure as _pagerank_sql)."""
    head = _SQL_LINK_EDGES + """,
pe AS (SELECT src_doc::VARCHAR AS src, dst_doc::VARCHAR AS dst FROM e)"""
    return _pagerank_rounds_sql(head, iters, scale, num, den)


def _pagerank_rounds_sql(head: str, iters: int, scale: int, num: int,
                         den: int) -> str:
    """Unrolled integer-pagerank rounds over whatever edge CTE ``head``
    defines as ``pe (src, dst)`` — shared by the page-level and
    domain-level replays."""
    parts = [head + f""",
deg AS (SELECT src, count(*)::BIGINT AS outdeg FROM pe GROUP BY src),
nodes AS (SELECT DISTINCT src AS v FROM pe UNION SELECT dst FROM pe),
nn AS (SELECT count(*)::BIGINT AS n FROM nodes),
r0 AS (SELECT v, ({scale} // (SELECT n FROM nn))::BIGINT AS r FROM nodes)"""]
    for i in range(1, iters + 1):
        parts.append(f""",
r{i} AS (SELECT nodes.v,
         (({scale} * {den - num}) // ({den} * (SELECT n FROM nn)))::BIGINT
         + COALESCE(s.inc, 0) AS r
         FROM nodes LEFT JOIN (
           SELECT pe.dst AS v,
                  sum((p.r * {num}) // ({den} * deg.outdeg))::BIGINT AS inc
           FROM pe JOIN r{i - 1} p ON pe.src = p.v
                  JOIN deg ON pe.src = deg.src
           GROUP BY pe.dst) s ON nodes.v = s.v)""")
    parts.append(f"\nSELECT v AS entity, r AS rank_micro FROM r{iters}")
    return "".join(parts)


def docs_domain_pagerank(sf_dir):
    """Domain-level PageRank — the crawl-prioritization authority signal.
    Page graphs aggregate to registered domains BEFORE ranking so one
    site's million internal pages can't vote a million times: page edges
    map row-locally to (src_domain, dst_domain) via the full URL chain
    (synthesize → host parse → public-suffix-lite), self-domain links
    drop (navigation, not endorsement), the pair set dedups, and the
    integer fixed-point power iteration runs over the domain graph.
    Scale shape: the mapping is row-local with a per-worker cache keyed
    on the 407-value domain residue; the distinct is map-side partialed
    (≤ domain² rows per block leave the map side — corpus-sized edge
    streams never shuffle raw); pagerank itself runs on the tiny domain
    graph. Same update rule / fixed-point math as ``docs_link_pagerank``
    (functions/graph.py::pagerank)."""
    from ..functions.graph import pagerank

    return pagerank(_domain_edges(sf_dir), iters=PAGERANK_ITERS,
                    rows_hint=2048)


def _domain_edges(sf_dir):
    """Distinct inter-domain link edges (subj, obj) — shared by the
    domain-level pagerank and trustrank queries."""
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.urls import _HOST_RE, crawl_url, registered_domain

    edges, n_docs = _link_edges(sf_dir)

    def to_domains(df: pd.DataFrame) -> pd.DataFrame:
        cache: dict[int, str] = {}

        def dom(i: int) -> str:
            # domain depends on doc_id only through i % 37 and i % 11,
            # so the cache key is the CRT residue — bounded at 407
            # entries per worker regardless of corpus size
            k = int(i) % 407
            d = cache.get(k)
            if d is None:
                host = _HOST_RE.match(crawl_url(int(i))).group(1)
                d = cache[k] = registered_domain(host)
            return d

        out = pd.DataFrame({"subj": df["src_doc"].map(dom),
                            "obj": df["dst_doc"].map(dom)})
        return out[out["subj"] != out["obj"]].drop_duplicates()

    return hash_bucket_aggregate(
        edges.map_batches(to_domains, batch_format="pandas"),
        ["subj", "obj"], lambda g: g.drop_duplicates(["subj", "obj"]),
        rows_hint=2048)


def docs_domain_trustrank(sf_dir):
    """TrustRank over the domain graph (Gyöngyi, Garcia-Molina &
    Pedersen, VLDB 2004): personalized PageRank whose teleport mass lands
    only on a vetted trust-seed list — here every ``.edu`` registered
    domain, the paper's own oracle-seed heuristic. A domain ranking low
    here but high on raw pagerank is the classic spam-farm signal. Same
    integer fixed-point rounds and scale shape as
    ``docs_domain_pagerank``; the seed set is broadcast-sized by
    construction."""
    from ..functions.graph import pagerank

    seeds = frozenset(f"site{k}.edu" for k in range(37))
    return pagerank(_domain_edges(sf_dir), iters=PAGERANK_ITERS,
                    seeds=seeds, rows_hint=2048)


def _domain_edges_sql_head() -> str:
    """CTE chain ending in ``pe (src, dst)`` = the distinct inter-domain
    link edges: the same URL→registered-domain chain as
    ``_sql_domain_blocklist`` maps both edge endpoints."""
    from ..functions.urls import CRAWL_SUBS, CRAWL_TLDS

    subs = ", ".join(f"'{s}'" for s in CRAWL_SUBS)
    tlds = ", ".join(f"'{t}'" for t in CRAWL_TLDS)
    return _SQL_LINK_EDGES + rf""",
dom AS (
  SELECT doc_id,
    CASE WHEN regexp_matches(host, '\.co\.(uk|jp)$')
         THEN regexp_extract(host, '([^.]+\.co\.[^.]+)$', 1)
         ELSE regexp_extract(host, '([^.]+\.[^.]+)$', 1) END AS domain
  FROM (SELECT doc_id, regexp_extract(
          'https://' || [{subs}][doc_id % 3 + 1] || 'site' || (doc_id % 37)
          || '.' || [{tlds}][doc_id % 11 + 1] || '/p/' || doc_id,
          '^[A-Za-z]+://([^/?#]+)', 1) AS host FROM documents)),
pe AS (SELECT DISTINCT sd.domain AS src, dd.domain AS dst
       FROM e JOIN dom sd ON e.src_doc = sd.doc_id
              JOIN dom dd ON e.dst_doc = dd.doc_id
       WHERE sd.domain <> dd.domain)"""


def _domain_pagerank_sql(iters: int, scale: int, num: int, den: int) -> str:
    return _pagerank_rounds_sql(_domain_edges_sql_head(), iters, scale,
                                num, den)


def _trustrank_rounds_sql(head: str, iters: int, scale: int, num: int,
                          den: int, seed_like: str) -> str:
    """Unrolled TrustRank rounds over ``pe``: identical to the pagerank
    rounds except init mass and the per-round teleport land only on
    nodes matching ``seed_like``, normalized by the seed count."""
    parts = [head + f""",
deg AS (SELECT src, count(*)::BIGINT AS outdeg FROM pe GROUP BY src),
nodes AS (SELECT DISTINCT src AS v FROM pe UNION SELECT dst FROM pe),
sn AS (SELECT count(*)::BIGINT AS n FROM nodes WHERE v LIKE '{seed_like}'),
r0 AS (SELECT v, (CASE WHEN v LIKE '{seed_like}'
                  THEN {scale} // (SELECT n FROM sn)
                  ELSE 0 END)::BIGINT AS r
       FROM nodes)"""]
    for i in range(1, iters + 1):
        parts.append(f""",
r{i} AS (SELECT nodes.v,
         (CASE WHEN nodes.v LIKE '{seed_like}'
               THEN ({scale} * {den - num}) // ({den} * (SELECT n FROM sn))
               ELSE 0 END)::BIGINT
         + COALESCE(s.inc, 0) AS r
         FROM nodes LEFT JOIN (
           SELECT pe.dst AS v,
                  sum((p.r * {num}) // ({den} * deg.outdeg))::BIGINT AS inc
           FROM pe JOIN r{i - 1} p ON pe.src = p.v
                  JOIN deg ON pe.src = deg.src
           GROUP BY pe.dst) s ON nodes.v = s.v)""")
    parts.append(f"\nSELECT v AS entity, r AS rank_micro FROM r{iters}")
    return "".join(parts)


LINK_BFS_SEED_STRIDE = 1000
LINK_BFS_HOPS = 3


def docs_link_bfs(sf_dir):
    """Crawl-frontier BFS: first-reach hop (<= 3) of every page from a
    sparse seed list (every 1000th doc), the scheduling question a
    prioritized recrawl asks. Runs the fully distributed frontier
    (functions.graph.k_hop_dataset — per hop one semi-join, one bucketed
    distinct, one anti-join; nothing driver-sized but the seed list)."""
    from ..functions.graph import k_hop_dataset

    edges, n_docs = _link_edges(sf_dir)

    def as_pair(t: pa.Table) -> pa.Table:
        return pa.table({
            "subj": t.column("src_doc").cast(pa.string()),
            "obj": t.column("dst_doc").cast(pa.string())})

    seeds = [str(i) for i in range(0, n_docs, LINK_BFS_SEED_STRIDE)]
    return k_hop_dataset(edges.map_batches(as_pair, batch_format="pyarrow"),
                         seeds, k=LINK_BFS_HOPS, rows_hint=n_docs * 2)


def _link_bfs_sql(hops: int, stride: int) -> str:
    """Unrolled frontier replay: hop h's CTE is the distinct targets of
    hop h-1 minus everything already reached."""
    parts = [_SQL_LINK_EDGES + f""",
h0 AS (SELECT doc_id AS v FROM documents WHERE doc_id % {stride} = 0),
s0 AS (SELECT v FROM h0)"""]
    for h in range(1, hops + 1):
        parts.append(f""",
h{h} AS (SELECT DISTINCT e.dst_doc AS v FROM e
        JOIN h{h - 1} ON e.src_doc = h{h - 1}.v
        WHERE e.dst_doc NOT IN (SELECT v FROM s{h - 1})),
s{h} AS (SELECT v FROM s{h - 1} UNION ALL SELECT v FROM h{h})""")
    selects = " UNION ALL ".join(
        f"SELECT v::VARCHAR AS entity, {h}::BIGINT AS hop FROM h{h}"
        for h in range(hops + 1))
    parts.append("\n" + selects)
    return "".join(parts)


def docs_link_cocitation(sf_dir):
    """Source-level co-citation: for every source pair (a < b), how many
    distinct pages both link to — the classic 'related sources' signal.
    Scale shape: distinct (dst_doc, src_source) is one bucketed pass;
    pair expansion happens per dst bucket where in-degree per page is
    tiny (<= |sources| rows), so no all-pairs blowup; the final pair
    count aggregate is source^2-sized."""
    from ..functions.relational import hash_bucket_aggregate

    edges, n_docs = _link_edges(sf_dir)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["dst_doc", "src_source"]].drop_duplicates()
        m = d.merge(d, on="dst_doc")
        m = m[m["src_source_x"] < m["src_source_y"]]
        out = m.groupby(["src_source_x", "src_source_y"],
                        as_index=False).size()
        out = out.rename(columns={"src_source_x": "source_a",
                                  "src_source_y": "source_b",
                                  "size": "n_codocs"})
        out["n_codocs"] = out["n_codocs"].astype(np.int64)
        return out

    pairs = hash_bucket_aggregate(edges, ["dst_doc"], per_bucket,
                                  rows_hint=n_docs * 2)

    def final_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["source_a", "source_b"],
                        as_index=False)["n_codocs"].sum()
        out["n_codocs"] = out["n_codocs"].astype(np.int64)
        return out

    return hash_bucket_aggregate(pairs, ["source_a", "source_b"],
                                 final_bucket, rows_hint=512)


_SQL_LINK_COCITATION = _SQL_LINK_EDGES + """,
d AS (SELECT DISTINCT dst_doc, src_source FROM e)
SELECT a.src_source AS source_a, b.src_source AS source_b,
       count(*)::BIGINT AS n_codocs
FROM d a JOIN d b ON a.dst_doc = b.dst_doc
                 AND a.src_source < b.src_source
GROUP BY 1, 2
"""


HITS_ITERS = 3


def docs_link_hits(sf_dir):
    """HITS hubs & authorities over the doc-level hyperlink graph — the
    other canonical web-graph ranking next to PageRank (directories vs
    endorsed content). Runs functions.graph.hits: integer fixed-point
    mutual reinforcement, L1-normalized with floor division each
    half-step, so the distributed result is bit-identical to the
    chained-CTE HUGEINT replay. Scale shape: per half-step one bucketed
    join + one bucketed sum + an O(1) global scalar; score tables never
    collect to the driver."""
    from ..functions.graph import HITS_SCALE, hits

    edges, n_docs = _link_edges(sf_dir)

    def as_pair(t: pa.Table) -> pa.Table:
        return pa.table({
            "subj": t.column("src_doc").cast(pa.string()),
            "obj": t.column("dst_doc").cast(pa.string())})

    return hits(edges.map_batches(as_pair, batch_format="pyarrow"),
                iters=HITS_ITERS, scale=HITS_SCALE, rows_hint=n_docs * 2)


REDIRECT_HOPS = 4


def docs_redirect_resolution(sf_dir):
    """Redirect-chain resolution over the crawl — the canonicalization a
    URL-level dedup needs BEFORE hashing (a crawl that stores both ends
    of a redirect double-counts content). Redirect pages are the docs
    with n_chars % 4 == 0 (a data-dependent predicate, not derivable
    from the doc id) and their redirect target is the FIRST extracted
    href; every page then advances along the redirect edges up to
    REDIRECT_HOPS times. Output: (doc_id, final_doc, n_hops, resolved)
    — resolved=false rows are over-long chains or loops, exactly what a
    crawl audit reviews. Scale shape: the edge table is one extraction
    pass; each hop is ONE bucketed left join keyed by the current
    target (state never collects to the driver); K+1 joins total."""
    from ..functions.relational import shuffle_join
    from ..functions.urls import extract_links_batch

    n_docs = _nrows(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def redirect_edges(t: pa.Table) -> pa.Table:
        mask = pc.equal(pc.bit_wise_and(t.column("n_chars"), 3), 0)
        red = t.filter(mask)
        links = extract_links_batch(red, n_docs)
        # first href per src doc: rows are emitted in document order, so
        # a block-local first is the j=0 link (docs never split blocks)
        df = links.to_pandas().drop_duplicates("src_doc", keep="first")
        return pa.table({
            "src_doc": pa.array(df["src_doc"].to_numpy(np.int64)),
            "dst_doc": pa.array(df["dst_doc"].to_numpy(np.int64))})

    edges = docs.map_batches(redirect_edges,
                             batch_format="pyarrow").materialize()

    state = docs.map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "cur": t.column("doc_id").cast(pa.int64()),
            "hops": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow")

    def advance(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("doc_id", "cur", "hops")})
        hit = df["dst_doc"].notna().to_numpy()
        cur = np.where(hit, df["dst_doc"].fillna(0).to_numpy(np.float64),
                       df["cur"].to_numpy(np.float64)).astype(np.int64)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "cur": cur,
            "hops": df["hops"].to_numpy(np.int64) + hit.astype(np.int64)})

    for _ in range(REDIRECT_HOPS):
        joined = shuffle_join(state, edges, "cur", "src_doc",
                              ["doc_id", "hops"], ["dst_doc"],
                              how="left", rows_hint=n_docs)
        state = joined.map_batches(advance, batch_format="pandas")

    final = shuffle_join(state, edges, "cur", "src_doc",
                         ["doc_id", "hops"], ["dst_doc"],
                         how="left", rows_hint=n_docs)

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "final_doc": pd.Series([], dtype="int64"),
                "n_hops": pd.Series([], dtype="int64"),
                "resolved": pd.Series([], dtype=bool)})
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "final_doc": df["cur"].to_numpy(np.int64),
            "n_hops": df["hops"].to_numpy(np.int64),
            "resolved": df["dst_doc"].isna().to_numpy()})

    return final.map_batches(flag, batch_format="pandas")


def _redirect_resolution_sql(hops: int) -> str:
    """Unrolled hop-by-hop replay: redirect edges are the j=0 md5 link
    draw of the n_chars-selected pages; each hop is one LEFT JOIN."""
    parts = [f"""
WITH n AS (SELECT count(*)::UBIGINT AS n_docs FROM documents),
e AS MATERIALIZED (
  SELECT d.doc_id AS src_doc,
         (('0x' || substr(md5('link:' || d.doc_id::VARCHAR || ':0'),
                          1, 16))::UBIGINT % n.n_docs)::BIGINT AS dst_doc
  FROM documents d, n WHERE d.n_chars % 4 = 0),
s0 AS (SELECT doc_id, doc_id AS cur, 0::BIGINT AS hops FROM documents)"""]
    for k in range(1, hops + 1):
        parts.append(f""",
s{k} AS (SELECT s.doc_id, COALESCE(e.dst_doc, s.cur) AS cur,
         s.hops + CASE WHEN e.dst_doc IS NULL THEN 0 ELSE 1 END AS hops
         FROM s{k - 1} s LEFT JOIN e ON s.cur = e.src_doc)""")
    parts.append(f"""
SELECT s.doc_id, s.cur AS final_doc, s.hops AS n_hops,
       (e.dst_doc IS NULL) AS resolved
FROM s{hops} s LEFT JOIN e ON s.cur = e.src_doc""")
    return "".join(parts)


def _link_hits_sql(iters: int, scale: int) -> str:
    """Chained-CTE replay of the integer HITS iteration over the
    md5-replayed link edges (same round structure as _link_pagerank_sql;
    HUGEINT keeps the normalize numerator exact)."""
    parts = [_SQL_LINK_EDGES + f""",
pe AS MATERIALIZED (
  SELECT src_doc::VARCHAR AS src, dst_doc::VARCHAR AS dst FROM e),
nodes AS MATERIALIZED (
  SELECT DISTINCT src AS v FROM pe UNION SELECT dst FROM pe),
h0 AS (SELECT v, {scale}::BIGINT AS s FROM nodes)"""]
    # every multiply-referenced CTE is MATERIALIZED: the scalar L1 total
    # re-references each round's raw CTE, and without materialization
    # DuckDB re-inlines the whole chain (measured exponential blowup)
    for i in range(1, iters + 1):
        for raw, cur, prev, jk, gk in (
                (f"a{i}r", f"a{i}", f"h{i - 1}", "src", "dst"),
                (f"h{i}r", f"h{i}", f"a{i}", "dst", "src")):
            parts.append(f""",
{raw} AS MATERIALIZED (
          SELECT nodes.v, COALESCE(t.x, 0)::BIGINT AS x
          FROM nodes LEFT JOIN (
            SELECT pe.{gk} AS v, sum(p.s)::BIGINT AS x
            FROM pe JOIN {prev} p ON pe.{jk} = p.v GROUP BY pe.{gk}) t
          ON nodes.v = t.v),
{cur} AS MATERIALIZED (
          SELECT v, CASE WHEN (SELECT sum(x) FROM {raw}) = 0 THEN x
          ELSE ((x::HUGEINT * {scale})
                // (SELECT sum(x) FROM {raw}))::BIGINT END AS s
          FROM {raw})""")
    parts.append(f"""
SELECT h.v AS entity, h.s AS hub_micro, a.s AS auth_micro
FROM h{iters} h JOIN a{iters} a USING (v)""")
    return "".join(parts)


def docs_quality_classifier(sf_dir):
    """fasttext/CCNet-style model-based quality filter: every page gets a
    linear score over hashed bag-of-words features (hash token -> bucket,
    sum bucket weights, keep when score >= 0). The weight vector here is
    an md5-seeded integer draw so the whole thing is SQL-replayable; a
    learned fasttext vector drops in without changing the stage. Scale
    shape: pure row-local streaming map — the per-worker weight vector is
    KB-sized and the token->bucket memo follows the vocabulary."""
    from ..functions.textstats import quality_classifier_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(quality_classifier_batch, batch_format="pyarrow")


def _sql_qclf_ctes() -> str:
    """CTE chunk (no WITH) ending in qsc(doc_id, n_tokens, score) — the
    hashed-linear classifier replay, shared by the classifier query and
    the quality-aware dedup composition."""
    from ..functions.textstats import QCLF_DIM, QCLF_WSPAN
    return rf"""qt AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
qu AS (SELECT doc_id, lower(unnest(toks)) AS w FROM qt),
qs AS (
  SELECT doc_id,
         ((('0x' || substr(md5('qw:' ||
             (('0x' || substr(md5('qh:' || w), 1, 16))::UBIGINT
              % {QCLF_DIM})::VARCHAR), 1, 16))::UBIGINT
           % {QCLF_WSPAN})::BIGINT - {QCLF_WSPAN // 2}) AS wt
  FROM qu),
qagg AS (SELECT doc_id, count(*)::BIGINT AS n_tokens,
                sum(wt)::BIGINT AS score
         FROM qs GROUP BY doc_id),
qsc AS (SELECT d.doc_id, COALESCE(a.n_tokens, 0)::BIGINT AS n_tokens,
               COALESCE(a.score, 0)::BIGINT AS score
        FROM documents d LEFT JOIN qagg a USING (doc_id))"""


def _sql_quality_classifier() -> str:
    return f"""
WITH {_sql_qclf_ctes()}
SELECT doc_id, n_tokens, score, (score >= 0)::BIGINT AS keep
FROM qsc
"""


SQ_LEVELS = 255


def embed_scalar_quantize(sf_dir):
    """Scalar-quantization (int8) audit over the embedding corpus:
    per-dim global range, uniform 255-level quantize, exact integer
    reconstruction error — the SQ-vs-PQ compression/recall question a
    vector index answers before building. Bit-identical to the SQL
    replay (see functions.similarity.scalar_quantize_stats)."""
    from ..functions.similarity import scalar_quantize_stats

    return scalar_quantize_stats(_read_embeddings(sf_dir),
                                 levels=SQ_LEVELS)


def _sql_scalar_quantize(scale: int, dim: int, levels: int) -> str:
    return f"""
WITH pts AS (
  SELECT vec_id, i::BIGINT AS dim,
         floor(embedding[i]::DOUBLE * {scale})::BIGINT AS v
  FROM embeddings, (SELECT unnest(range(1, {dim + 1})) AS i)),
mm AS (SELECT dim, min(v)::BIGINT AS mn, max(v)::BIGINT AS mx
       FROM pts GROUP BY dim),
r AS (
  SELECT p.dim, mm.mn, mm.mx,
         abs(p.v - (mm.mn +
             ((CASE WHEN mm.mx = mm.mn THEN 0
                    ELSE ((p.v - mm.mn) * {levels}) // (mm.mx - mm.mn)
               END) * (mm.mx - mm.mn)) // {levels})) AS err
  FROM pts p JOIN mm USING (dim))
SELECT dim, mn AS v_min, mx AS v_max,
       sum(err)::BIGINT AS sum_abs_err, max(err)::BIGINT AS max_abs_err,
       count(*)::BIGINT AS n_vecs
FROM r GROUP BY dim, mn, mx
"""


def docs_anchor_text(sf_dir):
    """Incoming-anchor-text consensus: the most common anchor text across
    every link pointing AT a page (ties -> lexicographically smallest) —
    the classic web-search signal for naming/describing a target page.
    Scale shape: anchor extraction is row-local; the mode is
    ``per_key_mode``'s distinct-pair partial shuffle (moves (dst, anchor)
    pairs, never the link stream)."""
    from ..functions.relational import per_key_mode
    from ..functions.urls import extract_anchors_batch

    n_docs = _nrows(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id"])
    anchors = docs.map_batches(
        lambda b: extract_anchors_batch(b, n_docs), batch_format="pyarrow")
    modes = per_key_mode(anchors, "dst_doc", "anchor",
                         rows_hint=n_docs * 2)
    return modes.map_batches(
        lambda df: df.rename(columns={"modal_value": "anchor",
                                      "cnt": "n_mentions"}),
        batch_format="pandas")


_SQL_ANCHOR_TEXT = """
WITH n AS (SELECT count(*)::UBIGINT AS n_docs FROM documents),
a AS (
  SELECT (('0x' || substr(md5('link:' || d.doc_id::VARCHAR || ':'
                              || t.j::VARCHAR), 1, 16))::UBIGINT
          % n.n_docs)::BIGINT AS dst_doc,
         'anchor' || (('0x' || substr(md5('atext:' || d.doc_id::VARCHAR
                 || ':' || t.j::VARCHAR), 1, 16))::UBIGINT % 40)::VARCHAR
           AS anchor
  FROM documents d, n, range(3) t(j)
  WHERE t.j < 1 + (('0x' || substr(md5('nlinks:' || d.doc_id::VARCHAR),
                                   1, 16))::UBIGINT % 3)::BIGINT
),
c AS (SELECT dst_doc, anchor, count(*)::BIGINT AS cnt
      FROM a GROUP BY 1, 2)
SELECT dst_doc, anchor, cnt AS n_mentions FROM (
  SELECT dst_doc, anchor, cnt,
         row_number() OVER (PARTITION BY dst_doc
                            ORDER BY cnt DESC, anchor) AS rn
  FROM c) WHERE rn = 1
"""


def docs_quality_dedup(sf_dir):
    """Quality-aware near-dedup — the production composition: MinHash+LSH
    transitive clusters, but the keeper per cluster is the HIGHEST-QUALITY
    member (hashed-linear classifier score, ties -> smallest doc_id), not
    the arbitrary min-id. Real pipelines keep the best duplicate, not the
    first. Scale shape: the cluster and score passes stream independently;
    one doc_id shuffle join lines them up; the keeper argmax is one
    cluster-keyed bucketed pass (per-bucket rows bounded by cluster
    membership, the same bound the CC stage already carries)."""
    from ..functions.dedup import minhash_dedup_clusters
    from ..functions.relational import hash_bucket_aggregate, shuffle_join
    from ..functions.textstats import quality_classifier_batch

    n = _nrows(sf_dir, "documents")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    clusters = minhash_dedup_clusters(docs, rows_hint=16 * n).map_batches(
        lambda df: df[["doc_id", "cluster"]], batch_format="pandas")
    scores = docs.map_batches(
        quality_classifier_batch, batch_format="pyarrow").map_batches(
        lambda df: df[["doc_id", "score"]], batch_format="pandas")
    j = shuffle_join(clusters, scores, "doc_id", "doc_id",
                     ["cluster"], ["score"], rows_hint=n)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cluster", "score", "doc_id"],
                          ascending=[True, False, True])
        keep = (g.groupby("cluster").cumcount() == 0)
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype(np.int64),
            "cluster": g["cluster"].astype(np.int64),
            "score": g["score"].astype(np.int64),
            "keep": keep.astype(np.int64),
        })

    return hash_bucket_aggregate(j, ["cluster"], per_bucket, rows_hint=n)


def _sql_quality_dedup() -> str:
    return ("WITH RECURSIVE " + _sql_minhash_ctes() + """,
memb AS (
  SELECT bd.doc_id, bd.band_id::VARCHAR || '|' || bd.bkey AS bucket
  FROM bands bd JOIN buckets k USING (band_id, bkey) WHERE k.n >= 2),
lbl AS (
  SELECT doc_id, doc_id AS comp FROM documents
  UNION
  SELECT m2.doc_id, l.comp
  FROM lbl l JOIN memb m1 ON m1.doc_id = l.doc_id
             JOIN memb m2 ON m2.bucket = m1.bucket),
cl AS (SELECT doc_id, min(comp)::BIGINT AS cluster FROM lbl
       GROUP BY doc_id),
""" + _sql_qclf_ctes() + """
SELECT cl.doc_id, cl.cluster, qsc.score,
       (row_number() OVER (PARTITION BY cl.cluster
                           ORDER BY qsc.score DESC, cl.doc_id) = 1
        )::BIGINT AS keep
FROM cl JOIN qsc ON qsc.doc_id = cl.doc_id
""")


SESSION_PATH_K = 5        # events per session kept in the path prefix
SESSION_PATH_TOPN = 20    # reported paths


def events_session_paths(sf_dir):
    """Clickstream path mining: the top event-type sequences users take
    inside a session — the funnel-discovery pass a product-analytics
    pipeline runs before designing funnels by hand. Sessions use the
    same 30-min-gap rule as ``events_sessionize``; a session's path is
    its first K=5 event types joined with '>' (total per-user order:
    (ts, event_id), so ties are deterministic in both engines); the
    report is the top 20 paths by session count (ties break to the
    lexicographically smaller path).

    Scale shape: one user-keyed bucketed pass does session assignment +
    path construction + per-bucket path counts; the fold that reaches
    the driver is bounded by |event_types|^K partial rows per bucket,
    not by users or sessions."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events",
               ["user_id", "ts", "event_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        new_session = (
            (g["user_id"] != g["user_id"].shift())
            | ((g["ts"] - g["ts"].shift())
               > pd.Timedelta(minutes=SESSION_GAP_MIN)))
        g = g.assign(_sid=new_session.cumsum())
        g["_rk"] = g.groupby("_sid").cumcount()
        head = g[g["_rk"] < SESSION_PATH_K]
        paths = head.groupby("_sid")["event_type"].agg(">".join)
        out = paths.value_counts().reset_index()
        out.columns = ["path", "n_sessions"]
        out["n_sessions"] = out["n_sessions"].astype(np.int64)
        return out

    parts = hash_bucket_aggregate(
        ds, ["user_id"], per_bucket,
        rows_hint=_nrows(sf_dir, "events")).to_pandas()
    out = parts.groupby("path", as_index=False)["n_sessions"].sum()
    out["n_sessions"] = out["n_sessions"].astype(np.int64)
    return (out.sort_values(["n_sessions", "path"],
                            ascending=[False, True])
            .head(SESSION_PATH_TOPN).reset_index(drop=True))


SQL_EVENTS_SESSION_PATHS = f"""
WITH marked AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w
                      > INTERVAL {SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
sess AS (
  SELECT *, sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY user_id, sid
                               ORDER BY ts, event_id) AS rk
  FROM sess),
paths AS (
  SELECT user_id, sid,
         string_agg(event_type, '>' ORDER BY ts, event_id) AS path
  FROM ranked WHERE rk <= {SESSION_PATH_K} GROUP BY user_id, sid),
cnt AS (SELECT path, count(*)::BIGINT AS n_sessions
        FROM paths GROUP BY path)
SELECT path, n_sessions FROM cnt
ORDER BY n_sessions DESC, path LIMIT {SESSION_PATH_TOPN}
"""


COOC_TOPN = 50            # strongest co-mention priors reported


def kg_entity_cooccurrence(sf_dir):
    """Entity co-mention statistics over the candidate stream — the
    distant-supervision PRIOR a KG build consults before trusting a
    relation between two entities (high-PMI pairs co-occur far above
    chance; low-PMI pairs are incidental). Per unordered entity pair:
    co-mention instance count, each side's mention-slot count, and PMI
    = ln(n_pair · N / (n_a · n_b)) rounded to 12 decimals (counts are
    exact integers, so the float is a single deterministic log on the
    driver-bounded pair table). Model-free but extraction-derived
    (gazetteer NER over extracted text) → full-table pin of the top-50
    pairs by support (deterministic (n_pair desc, a, b) cut); the full
    pair table is |E|²-bounded by the gazetteer.

    Scale shape: map-side pair/slot partial counts; one tiny fold."""

    inst = _pair_instances(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"a": pd.Series([], dtype="object"),
                                 "b": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        a = np.minimum(df["h_id"].to_numpy(), df["t_id"].to_numpy())
        b = np.maximum(df["h_id"].to_numpy(), df["t_id"].to_numpy())
        out = pd.DataFrame({"a": a, "b": b})
        out = out.groupby(["a", "b"], as_index=False).size() \
            .rename(columns={"size": "n"})
        out["n"] = out["n"].astype(np.int64)
        return out

    pairs = (inst.map_batches(partial, batch_format="pandas").to_pandas()
             .groupby(["a", "b"], as_index=False)["n"].sum())
    # each instance contributes one slot to BOTH sides; pair instances
    # double-count into the marginals exactly as PMI over pair draws wants
    total = int(pairs["n"].sum())
    marg = (pd.concat([pairs[["a", "n"]].rename(columns={"a": "e"}),
                       pairs[["b", "n"]].rename(columns={"b": "e"})])
            .groupby("e")["n"].sum())
    import math
    n = pairs["n"].astype(np.int64)
    na = pairs["a"].map(marg).astype(np.int64)
    nb = pairs["b"].map(marg).astype(np.int64)
    pmi = [round(math.log(int(x) * total / (int(u) * int(v))), 12)
           for x, u, v in zip(n, na, nb)]
    out = pd.DataFrame({
        "a": pairs["a"].to_numpy(), "b": pairs["b"].to_numpy(),
        "n_pair": n.to_numpy(),
        "n_a": na.to_numpy(), "n_b": nb.to_numpy(),
        "pmi": pd.Series(pmi, dtype="float64").to_numpy(),
    })
    # report the strongest priors only: top-50 by support keeps the
    # pinned table bounded however wide the gazetteer grows
    return (out.sort_values(["n_pair", "a", "b"],
                            ascending=[False, True, True])
            .head(COOC_TOPN).reset_index(drop=True)
            .sort_values(["a", "b"]).reset_index(drop=True))


CUSUM_SLACK_DIV = 20      # slack k = mean/20 (5% of the daily mean)
CUSUM_THRESH_MULT = 2     # drift flag when cusum exceeds 2x the daily mean


def events_cusum_drift(sf_dir):
    """CUSUM drift monitor over daily event volume per type — the
    data-quality tripwire a production ingest pipeline runs on every
    feed (Page's cumulative-sum test): S_d = max(0, S_{d-1} + x_d - μ - k)
    flags sustained upward volume drift the moment the cumulative excess
    crosses the threshold. The recursion has the closed form
    S_d = C_d - min(0, min_{j<=d} C_j) with C the running sum of the
    centered series, so BOTH sides (engine and the SQL oracle's window
    functions) compute it without a recursive loop. All arithmetic is
    exact integer micro-units (μ = floor-div mean, k = μ/20 slack,
    h = 2μ threshold) — bit-stable across engines.

    Scale shape: daily counts reduce map-side per block to (type, day)
    partials; the fold + recursion runs on the calendar-bounded
    |types| × |days| table (the same driver-bound contract as
    events_type_pivot / kg_type_violations)."""
    from ..functions.relational import add_time_window

    ds = _read(sf_dir, "events", ["ts", "event_type"])
    windowed = add_time_window(ds, "ts", unit="day", out_col="day")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = (b.groupby(["event_type", "day"], sort=False, as_index=False)
               .size().rename(columns={"size": "n"}))
        out["n"] = out["n"].astype(np.int64)
        return out

    parts = windowed.map_batches(partial, batch_format="pandas").to_pandas()
    daily = parts.groupby(["event_type", "day"], as_index=False)["n"].sum()
    frames = []
    for etype, g in daily.groupby("event_type", sort=True):
        g = g.sort_values("day").reset_index(drop=True)
        n = g["n"].astype(np.int64).to_numpy()
        mean_micro = (10 ** 6 * int(n.sum())) // len(n)
        k_micro = mean_micro // CUSUM_SLACK_DIV
        h_micro = CUSUM_THRESH_MULT * mean_micro
        c = np.cumsum(10 ** 6 * n - mean_micro - k_micro)
        s = c - np.minimum(np.minimum.accumulate(c), 0)
        frames.append(pd.DataFrame({
            "event_type": etype,
            "day": g["day"].to_numpy(),
            "n_events": n,
            "cusum_micro": s.astype(np.int64),
            "drift": (s > h_micro).astype(np.int64)}))
    return (pd.concat(frames, ignore_index=True)
            .sort_values(["event_type", "day"]).reset_index(drop=True))


SQL_EVENTS_CUSUM_DRIFT = f"""
WITH daily AS (
  SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, count(*)::BIGINT AS n
  FROM events GROUP BY event_type, day),
st AS (
  SELECT event_type, (1000000 * sum(n)) // count(*) AS mean_micro
  FROM daily GROUP BY event_type),
y AS (
  SELECT d.event_type, d.day, d.n,
         1000000 * d.n - st.mean_micro
           - st.mean_micro // {CUSUM_SLACK_DIV} AS y_micro,
         {CUSUM_THRESH_MULT} * st.mean_micro AS h_micro
  FROM daily d JOIN st USING (event_type)),
c AS (
  SELECT *, sum(y_micro) OVER (PARTITION BY event_type
                               ORDER BY day) AS c_micro FROM y),
m AS (
  SELECT *, least(min(c_micro) OVER (PARTITION BY event_type
                                     ORDER BY day), 0) AS floor_micro
  FROM c)
SELECT event_type, day, n AS n_events,
       (c_micro - floor_micro)::BIGINT AS cusum_micro,
       (c_micro - floor_micro > h_micro)::BIGINT AS drift
FROM m
"""


VOCAB_COVERAGE_SIZES = [10, 100, 1000]


def docs_vocab_coverage(sf_dir):
    """Tokenizer-design audit: what fraction of all corpus tokens the
    top-V whitespace vocabulary covers, for V in {10, 100, 1000} — the
    coverage curve that sizes a subword vocabulary (a V with coverage
    near 1 means a word-level vocab suffices; a flat curve demands BPE).
    Exact integers: coverage_micro = 10^6 * top_V_count // total.

    Scale shape: map-side Counter partials -> one token-keyed groupby
    (the docs_word_freq aggregate) -> distributed sort by (cnt desc,
    token asc) with a LIMIT max(V) head; only max(V) rows plus two
    scalar aggregates (total tokens, vocab size) ever reach the driver.
    Tie-determinism at the V boundary comes from the token tiebreak on
    both sides."""
    from collections import Counter
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(t.split())
        return pa.table({"token": pa.array(list(c.keys()), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    freq = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("token").aggregate(Sum("cnt", alias_name="cnt"))
            .materialize())
    total = int(freq.sum("cnt") or 0)
    vocab = int(freq.count())
    vmax = max(VOCAB_COVERAGE_SIZES)
    top = freq.sort(["cnt", "token"], descending=[True, False]) \
        .limit(vmax).to_pandas()
    cum = top["cnt"].astype(np.int64).cumsum().to_numpy() \
        if len(top) else np.array([], dtype=np.int64)
    rows = []
    for v in VOCAB_COVERAGE_SIZES:
        top_sum = int(cum[min(v, len(cum)) - 1]) if len(cum) else 0
        rows.append({"v": v, "top_sum": top_sum, "total_tokens": total,
                     "vocab_size": vocab,
                     "coverage_micro": (10 ** 6 * top_sum // total)
                     if total else 0})
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


SQL_DOCS_VOCAB_COVERAGE = r"""
WITH tok AS (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
f AS (SELECT token, count(*)::BIGINT AS cnt FROM tok
      WHERE token <> '' GROUP BY token),
r AS (SELECT cnt,
             row_number() OVER (ORDER BY cnt DESC, token ASC) AS rk
      FROM f),
tot AS (SELECT COALESCE(sum(cnt), 0)::BIGINT AS total,
               count(*)::BIGINT AS vocab FROM f)
SELECT v::BIGINT AS v,
       (SELECT COALESCE(sum(cnt), 0)::BIGINT FROM r WHERE rk <= v)
         AS top_sum,
       tot.total AS total_tokens, tot.vocab AS vocab_size,
       CASE WHEN tot.total = 0 THEN 0
            ELSE (1000000 * (SELECT COALESCE(sum(cnt), 0) FROM r
                             WHERE rk <= v)) // tot.total
       END::BIGINT AS coverage_micro
FROM (VALUES (10), (100), (1000)) AS vs(v), tot
"""


def docs_filter_agreement(sf_dir):
    """Inter-filter agreement audit: the 2x2 confusion matrix between
    the Gopher rules filter and the hashed-linear quality classifier,
    plus percent agreement and Cohen's kappa — the calibration check a
    curation pipeline runs before swapping one filter for another (high
    agreement but near-zero kappa means both mostly say 'keep' and the
    classifier adds nothing). Kappa is reported as an exact integer
    fraction (kappa_num / kappa_den with kappa_den > 0) because kappa
    itself can be negative and floor-div semantics differ across
    engines; agreement_micro is the usual nonneg micro floor-div.

    Scale shape: both filters are row-local streaming maps computed in
    ONE pass over the text; per-block 2x2 partials fold to a single
    driver row. (int64 bound: kappa terms are ~n_docs² — exact up to
    ~3e9 docs, HUGEINT territory beyond.)"""
    from ..functions.textstats import (gopher_quality_batch,
                                       quality_classifier_batch)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def flags_partial(batch: pa.Table) -> pa.Table:
        gop = gopher_quality_batch(batch).to_pandas()[["doc_id", "passed"]]
        clf = quality_classifier_batch(batch).to_pandas()[["doc_id", "keep"]]
        m = gop.merge(clf, on="doc_id")
        g = m["passed"].astype(np.int64).to_numpy()
        k = m["keep"].astype(np.int64).to_numpy()
        return pa.table({
            "n_both_keep": [int((g & k).sum())],
            "n_gopher_only": [int((g & (1 - k)).sum())],
            "n_clf_only": [int(((1 - g) & k).sum())],
            "n_both_drop": [int(((1 - g) & (1 - k)).sum())]})

    parts = ds.map_batches(flags_partial, batch_format="pyarrow").to_pandas()
    a = int(parts["n_both_keep"].sum())
    b = int(parts["n_gopher_only"].sum())
    c = int(parts["n_clf_only"].sum())
    d = int(parts["n_both_drop"].sum())
    n = a + b + c + d
    pe_num = (a + b) * (a + c) + (c + d) * (b + d)
    out = pd.DataFrame([{
        "n_docs": n, "n_both_keep": a, "n_gopher_only": b,
        "n_clf_only": c, "n_both_drop": d,
        "agreement_micro": (10 ** 6 * (a + d) // n) if n else 0,
        "kappa_num": n * (a + d) - pe_num,
        "kappa_den": n * n - pe_num}])
    for col in out.columns:
        out[col] = out[col].astype(np.int64)
    return out


def _sql_filter_agreement() -> str:
    return (_SQL_GOPHER_BASE + ",\n" + _sql_qclf_ctes() + """,
fl AS (SELECT g.doc_id, g.passed AS gop,
              (qsc.score >= 0)::BIGINT AS clf
       FROM g JOIN qsc USING (doc_id)),
cm AS (SELECT
    count(*)::BIGINT AS n_docs,
    COALESCE(sum(gop * clf), 0)::BIGINT AS n_both_keep,
    COALESCE(sum(gop * (1 - clf)), 0)::BIGINT AS n_gopher_only,
    COALESCE(sum((1 - gop) * clf), 0)::BIGINT AS n_clf_only,
    COALESCE(sum((1 - gop) * (1 - clf)), 0)::BIGINT AS n_both_drop
  FROM fl)
SELECT n_docs, n_both_keep, n_gopher_only, n_clf_only, n_both_drop,
  CASE WHEN n_docs = 0 THEN 0
       ELSE (1000000 * (n_both_keep + n_both_drop)) // n_docs
  END::BIGINT AS agreement_micro,
  (n_docs * (n_both_keep + n_both_drop)
   - ((n_both_keep + n_gopher_only) * (n_both_keep + n_clf_only)
      + (n_clf_only + n_both_drop) * (n_gopher_only + n_both_drop))
  )::BIGINT AS kappa_num,
  (n_docs * n_docs
   - ((n_both_keep + n_gopher_only) * (n_both_keep + n_clf_only)
      + (n_clf_only + n_both_drop) * (n_gopher_only + n_both_drop))
  )::BIGINT AS kappa_den
FROM cm
""")


WEAK_LABEL_ROUNDS = 3


def docs_weak_label_model(sf_dir):
    """Dawid-Skene weak-supervision label model (binary, fixed-point EM)
    over four integer-threshold labeling functions — the label-
    aggregation pass that replaces a naive majority vote with per-
    labeler sensitivity/specificity estimates and a per-document
    posterior. Reports the final confusion parameters per labeler plus
    the posterior keep count and how many documents EM flipped vs the
    majority vote (4 rows, exact int64).

    Scale shape: labels computed in ONE streaming pass over text, then
    materialized as a 5-small-int-per-doc table; each EM round is one
    map_batches pass emitting 2K+3 integer partials per block, folded
    with Python ints on the driver — no per-doc state is shuffled or
    collected (functions/weaklabel.py). The whole chain is floor-div
    micro-unit arithmetic, replayed bit-exactly by the unrolled-round
    DuckDB oracle (:func:`_weak_label_sql`)."""
    from ..functions.weaklabel import dawid_skene, weak_labels_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"],
               rows_per_block=32768)
    labels = ds.map_batches(weak_labels_batch,
                            batch_format="pyarrow").materialize()
    return dawid_skene(labels, rounds=WEAK_LABEL_ROUNDS)


def _weak_label_sql(rounds: int = WEAK_LABEL_ROUNDS) -> str:
    """Unrolled Dawid-Skene EM replay. Every round CTE is MATERIALIZED
    (each is referenced by both the next params CTE and the next round
    chain — inlined CTEs would re-expand the plan exponentially)."""
    s = 1_000_000
    labs = ("len", "stop", "uniq", "wordlen")
    stop_list = "'the','a','an','of','and','or','in','on','to','is'"
    parts = [rf"""WITH dt AS (
  SELECT doc_id, text,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
r0 AS MATERIALIZED (
  SELECT doc_id, y_len, y_stop, y_uniq, y_wordlen,
         (((y_len + y_stop + y_uniq + y_wordlen) * {s}) // 4)
             ::BIGINT AS p
  FROM (SELECT doc_id,
    CASE WHEN len(toks) >= 20 THEN 1 ELSE 0 END AS y_len,
    CASE WHEN len(list_distinct(list_filter(
           list_transform(toks, t -> lower(t)),
           t -> list_contains([{stop_list}], t)))) >= 2
         THEN 1 ELSE 0 END AS y_stop,
    CASE WHEN len(toks) > 0 AND 2 * len(list_distinct(
           list_transform(toks, t -> lower(t)))) >= len(toks)
         THEN 1 ELSE 0 END AS y_uniq,
    CASE WHEN len(toks) > 0 AND 2 * list_sum(
           list_transform(toks, t -> length(t))) <= 9 * len(toks)
         THEN 1 ELSE 0 END AS y_wordlen
  FROM dt))"""]
    for r in range(1, rounds + 1):
        aggs = [f"GREATEST(1, LEAST({s - 1}, sum(p) // count(*)))"
                f"::BIGINT AS pi"]
        for lb in labs:
            aggs.append(
                f"GREATEST(1, LEAST({s - 1}, (sum(p::HUGEINT * y_{lb})"
                f" * {s}) // GREATEST(sum(p::HUGEINT), 1)))"
                f"::BIGINT AS a_{lb}")
            aggs.append(
                f"GREATEST(1, LEAST({s - 1}, (sum(({s} - p)::HUGEINT"
                f" * (1 - y_{lb})) * {s})"
                f" // GREATEST(sum(({s} - p)::HUGEINT), 1)))"
                f"::BIGINT AS b_{lb}")
        parts.append(f""",
par{r} AS MATERIALIZED (
  SELECT {(',' + chr(10) + '         ').join(aggs)}
  FROM r{r - 1})""")
        inner = f"SELECT r.*, q.* FROM r{r - 1} r CROSS JOIN par{r} q"
        prev_n, prev_d = "pi::HUGEINT", f"({s} - pi)::HUGEINT"
        for j, lb in enumerate(labs, 1):
            inner = f"""SELECT *,
  GREATEST(1, ({prev_n} * (CASE WHEN y_{lb} = 1
    THEN a_{lb} ELSE {s} - a_{lb} END)) // {s}) AS n{j},
  GREATEST(1, ({prev_d} * (CASE WHEN y_{lb} = 1
    THEN {s} - b_{lb} ELSE b_{lb} END)) // {s}) AS d{j}
FROM ({inner})"""
            prev_n, prev_d = f"n{j}", f"d{j}"
        parts.append(f""",
r{r} AS MATERIALIZED (
  SELECT doc_id, y_len, y_stop, y_uniq, y_wordlen,
         (({prev_n} * {s}) // ({prev_n} + {prev_d}))::BIGINT AS p
  FROM ({inner}))""")
    vsum = ",\n         ".join(f"sum(y_{lb})::BIGINT AS v_{lb}"
                               for lb in labs)
    parts.append(f""",
fin AS (
  SELECT count(*)::BIGINT AS n_docs,
         sum(CASE WHEN 2 * p >= {s} THEN 1 ELSE 0 END)
             ::BIGINT AS n_posterior_keep,
         sum(CASE WHEN (CASE WHEN 2 * p >= {s} THEN 1 ELSE 0 END)
                   <> (CASE WHEN 2 * (y_len + y_stop + y_uniq + y_wordlen)
                        >= 4 THEN 1 ELSE 0 END)
             THEN 1 ELSE 0 END)::BIGINT AS n_flipped,
         {vsum}
  FROM r{rounds})
""")
    sels = [f"""SELECT '{lb}' AS labeler, v_{lb} AS n_said_keep,
       a_{lb} AS alpha_fp, b_{lb} AS beta_fp, pi AS pi_fp,
       n_docs, n_posterior_keep, n_flipped
FROM par{rounds} CROSS JOIN fin""" for lb in labs]
    parts.append("\nUNION ALL\n".join(sels))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Nonparametric two-sample / rank statistics (functions/stats.py)
# ---------------------------------------------------------------------------

def events_ks_value_drift(sf_dir):
    """Exact two-sample Kolmogorov-Smirnov test between the `click` and
    `purchase` value distributions — the classic distribution-drift
    check a crawl pipeline runs between snapshot cohorts (PSI's
    binned cousin, but bin-free and exact). Values quantize to 1e-6
    micro ints; the statistic is the integer cross product
    ``d_num = max |c1*N2 - c2*N1|`` over the sorted distinct-value
    table so ``D = d_num/(n1*n2)`` is exact (no float CDFs). Scale
    shape: one bucketed distinct-value aggregate, one sort of the
    distinct table, stitched per-block prefix slices returning O(1)
    scalars (functions/stats.py docstring). Reference parity: same
    order-statistics machinery the reference's driver-side eval sort
    uses (/root/reference/opennre/framework/data_loader.py:251)."""
    from ..functions.sqlcompat import sql_round
    from ..functions.stats import ks_two_sample

    ds = _read(sf_dir, "events", ["event_type", "value"],
               rows_per_block=32768)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(["click", "purchase"])]
        v = sql_round(df["value"].to_numpy(np.float64) * 1e6, 0)
        return pd.DataFrame({
            "v": v.astype(np.int64),
            "g": (df["event_type"] == "click").to_numpy()
                 .astype(np.int64)})

    r = ks_two_sample(ds.map_batches(prep, batch_format="pandas"),
                      rows_hint=_nrows(sf_dir, "events"))
    return pd.DataFrame([{
        "n1": np.int64(r["n1"]), "n2": np.int64(r["n2"]),
        "d_num": np.int64(r["d_num"]),
        "ks_at_micro": np.int64(r["ks_at"]),
        "ks_d": r["ks_d"]}])


SQL_EVENTS_KS_VALUE_DRIFT = """
WITH x AS (
  SELECT ROUND(value * 1000000)::BIGINT AS v,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS g
  FROM events WHERE event_type IN ('click', 'purchase')),
c AS (SELECT v, sum(g)::BIGINT AS n1, sum(1 - g)::BIGINT AS n2
      FROM x GROUP BY v),
t AS (SELECT sum(n1)::BIGINT AS big1, sum(n2)::BIGINT AS big2 FROM c),
p AS (SELECT v, sum(n1) OVER w AS c1, sum(n2) OVER w AS c2
      FROM c WINDOW w AS (ORDER BY v)),
d AS (SELECT v, abs(c1 * t.big2 - c2 * t.big1)::BIGINT AS diff
      FROM p, t)
SELECT t.big1 AS n1, t.big2 AS n2,
       (SELECT max(diff) FROM d) AS d_num,
       (SELECT v FROM d ORDER BY diff DESC, v ASC LIMIT 1)
           AS ks_at_micro,
       ROUND((SELECT max(diff) FROM d)::DOUBLE / (t.big1 * t.big2), 12)
           AS ks_d
FROM t
"""


def lineitem_mannwhitney_returnflag(sf_dir):
    """Exact tie-corrected Mann-Whitney U rank-sum test: does the
    returned ('R') population of l_extendedprice stochastically
    dominate the accepted ('A') one? All rank arithmetic in doubled
    integers over cents (two_r1 = doubled rank-sum, u1_x2 = 2*U1,
    tie_sum = sum(t^3 - t)); the normal-approximation z mirrors the
    oracle's double expression and rounds to 12 decimals. Same
    stitched distinct-value-prefix scale shape as the KS test."""
    from ..functions.sqlcompat import sql_round
    from ..functions.stats import mann_whitney

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"],
               rows_per_block=32768)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_returnflag"].isin(["R", "A"])]
        v = sql_round(
            df["l_extendedprice"].to_numpy(np.float64) * 100.0, 0)
        return pd.DataFrame({
            "v": v.astype(np.int64),
            "g": (df["l_returnflag"] == "R").to_numpy()
                 .astype(np.int64)})

    r = mann_whitney(ds.map_batches(prep, batch_format="pandas"),
                     rows_hint=_nrows(sf_dir, "lineitem"))
    return pd.DataFrame([{
        "n1": np.int64(r["n1"]), "n2": np.int64(r["n2"]),
        "two_r1": np.int64(r["two_r1"]),
        "u1_x2": np.int64(r["u1_x2"]),
        "tie_sum": np.int64(r["tie_sum"]), "z": r["z"]}])


SQL_LINEITEM_MANNWHITNEY = """
WITH x AS (
  SELECT ROUND(l_extendedprice * 100)::BIGINT AS v,
         CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS g
  FROM lineitem WHERE l_returnflag IN ('R', 'A')),
c AS (SELECT v, sum(g)::BIGINT AS n1, sum(1 - g)::BIGINT AS n0,
             count(*)::BIGINT AS t
      FROM x GROUP BY v),
w AS (SELECT v, n1, t,
             coalesce(sum(t) OVER (ORDER BY v
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0)::BIGINT AS prev
      FROM c),
s AS (SELECT sum(n1 * (2 * prev + t + 1))::BIGINT AS two_r1,
             sum(t * t * t - t)::BIGINT AS tie_sum
      FROM w),
tot AS (SELECT sum(n1)::BIGINT AS n1, sum(n0)::BIGINT AS n2 FROM c)
SELECT tot.n1, tot.n2, s.two_r1,
       (s.two_r1 - tot.n1 * (tot.n1 + 1))::BIGINT AS u1_x2,
       s.tie_sum,
       ROUND(((s.two_r1 - tot.n1 * (tot.n1 + 1)
               - tot.n1 * tot.n2)::DOUBLE / 2.0)
             / sqrt((tot.n1::HUGEINT * tot.n2
                     * ((tot.n1 + tot.n2 + 1)::HUGEINT
                        * (tot.n1 + tot.n2) * (tot.n1 + tot.n2 - 1)
                        - s.tie_sum))::DOUBLE
                    / (12.0 * (tot.n1 + tot.n2)
                       * (tot.n1 + tot.n2 - 1))), 12) AS z
FROM s, tot
"""


def lineitem_spearman_qty_price(sf_dir):
    """Exact Spearman rank correlation between l_quantity and
    l_extendedprice — Pearson on tie-midranks, the robust companion to
    the existing Pearson `lineitem_qty_price_corr`. Doubled midranks
    keep every moment integral; the cross moment folds map-side after
    two shuffle joins attach the per-column rank maps (see
    functions/stats.py::spearman for the distributed shape and int64
    bounds)."""
    from ..functions.sqlcompat import sql_round
    from ..functions.stats import spearman

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"],
               rows_per_block=32768)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        c = sql_round(
            df["l_extendedprice"].to_numpy(np.float64) * 100.0, 0)
        return pd.DataFrame({
            "q": df["l_quantity"].to_numpy(np.float64)
                 .astype(np.int64),
            "c": c.astype(np.int64)})

    r = spearman(ds.map_batches(prep, batch_format="pandas"), "q", "c",
                 rows_hint=_nrows(sf_dir, "lineitem"))
    return pd.DataFrame([{"n": np.int64(r["n"]),
                          "spearman_rho": r["rho"]}])


SQL_LINEITEM_SPEARMAN = """
WITH x AS (
  SELECT l_quantity::BIGINT AS q,
         ROUND(l_extendedprice * 100)::BIGINT AS c
  FROM lineitem),
r AS (SELECT 2 * rank() OVER (ORDER BY q)
               + count(*) OVER (PARTITION BY q) - 1 AS rx,
             2 * rank() OVER (ORDER BY c)
               + count(*) OVER (PARTITION BY c) - 1 AS ry
      FROM x),
s AS (SELECT count(*)::HUGEINT AS n,
             sum(rx::HUGEINT) AS sx, sum(ry::HUGEINT) AS sy,
             sum(rx::HUGEINT * rx) AS sxx,
             sum(ry::HUGEINT * ry) AS syy,
             sum(rx::HUGEINT * ry) AS sxy
      FROM r)
SELECT n::BIGINT AS n,
       ROUND((n * sxy - sx * sy)::DOUBLE
             / (sqrt((n * sxx - sx * sx)::DOUBLE)
                * sqrt((n * syy - sy * sy)::DOUBLE)), 12)
           AS spearman_rho
FROM s
"""


#: cohorts for the chi-square independence audit (user_id % K)
CHI2_N_COHORTS = 8


def events_chi_square_cohorts(sf_dir):
    """Pearson chi-square independence test between event_type and a
    deterministic user cohort (user_id % 8) — the A/B-bucket sanity
    audit run before trusting any per-cohort metric: a significant
    statistic means the hash bucketing is confounded with behavior.
    Contingency counts reduce map-side (types x 8 rows per block); each
    cell's contribution quantizes ONCE to the 1e-6 grid so the
    statistic is an order-free integer sum (the PSI recipe). Expected
    counts round to 12 decimals per the pinned-float rule."""
    import math

    ds = _read(sf_dir, "events", ["user_id", "event_type"],
               rows_per_block=32768)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "event_type": pd.Series([], dtype=object),
                "cohort": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64")})
        out = pd.DataFrame({
            "event_type": df["event_type"],
            "cohort": df["user_id"].to_numpy(np.int64)
                      % CHI2_N_COHORTS})
        out["n"] = np.int64(1)
        return out.groupby(["event_type", "cohort"],
                           as_index=False).sum()

    cnt = (ds.map_batches(partial, batch_format="pandas").to_pandas()
           .groupby(["event_type", "cohort"], as_index=False)["n"]
           .sum())
    types = sorted(cnt["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [types, range(CHI2_N_COHORTS)],
        names=["event_type", "cohort"]).to_frame(index=False)
    g = grid.merge(cnt, how="left").fillna({"n": 0})
    g["n"] = g["n"].astype(np.int64)
    rt = g.groupby("event_type")["n"].sum().to_dict()
    ct = g.groupby("cohort")["n"].sum().to_dict()
    big_n = int(g["n"].sum())
    exp, contrib = [], []
    for _, r in g.iterrows():
        e_raw = (rt[r["event_type"]] * ct[r["cohort"]]) / big_n
        exp.append(e_raw)
        c = (r["n"] - e_raw) * (r["n"] - e_raw) / e_raw
        contrib.append(int(math.floor(c * 1_000_000 + 0.5)))
    from ..functions.sqlcompat import sql_round
    out = g.copy()
    out["expected"] = sql_round(np.asarray(exp), 12)
    out["contrib_micro"] = np.asarray(contrib, dtype=np.int64)
    out["chi2_micro"] = np.int64(sum(contrib))
    out["dof"] = np.int64((len(types) - 1) * (CHI2_N_COHORTS - 1))
    out["cohort"] = out["cohort"].astype(np.int64)
    return out


SQL_EVENTS_CHI_SQUARE_COHORTS = f"""
WITH b AS (SELECT event_type, user_id % {CHI2_N_COHORTS} AS cohort
           FROM events),
c AS (SELECT event_type, cohort, count(*)::BIGINT AS n
      FROM b GROUP BY 1, 2),
ty AS (SELECT DISTINCT event_type FROM b),
co AS (SELECT unnest(range({CHI2_N_COHORTS}))::BIGINT AS cohort),
g AS (SELECT ty.event_type, co.cohort, coalesce(c.n, 0)::BIGINT AS n
      FROM ty CROSS JOIN co
      LEFT JOIN c ON c.event_type = ty.event_type
                 AND c.cohort = co.cohort),
rt AS (SELECT event_type, sum(n)::BIGINT AS rt FROM g GROUP BY 1),
ct AS (SELECT cohort, sum(n)::BIGINT AS ct FROM g GROUP BY 1),
t AS (SELECT sum(n)::BIGINT AS bign FROM g),
e AS (SELECT g.event_type, g.cohort, g.n,
             (rt.rt * ct.ct)::DOUBLE / t.bign AS e_raw
      FROM g JOIN rt USING (event_type) JOIN ct USING (cohort), t),
f AS (SELECT event_type, cohort, n, ROUND(e_raw, 12) AS expected,
             CAST(floor((n - e_raw) * (n - e_raw) / e_raw
                        * 1000000 + 0.5) AS BIGINT) AS contrib_micro
      FROM e)
SELECT event_type, cohort, n, expected, contrib_micro,
       sum(contrib_micro) OVER ()::BIGINT AS chi2_micro,
       (((SELECT count(*) FROM ty) - 1)
        * {CHI2_N_COHORTS - 1})::BIGINT AS dof
FROM f
"""


def events_transition_entropy(sf_dir):
    """Conditional next-event entropy H(next | current) per event type
    from the first-order Markov transition table — the sequence-
    predictability audit behind session-model sanity checks (a type
    whose successors are near-uniform carries no signal). Reuses the
    bucketed per-user transition counts of `events_type_transitions`
    (users never span buckets; only types^2 partials shuffle); each
    -(c/n)ln(c/n) term quantizes ONCE to the 1e-6 grid so per-type sums
    are order-free integers, and the overall conditional entropy is the
    count-weighted floor-div mean on the same grid."""
    import math

    tr = events_type_transitions(sf_dir).to_pandas()
    rows = []
    for s, g in tr.groupby("from_type"):
        n_s = int(g["cnt"].sum())
        h_fp = 0
        for c in g["cnt"]:
            c = int(c)
            term = -(c / n_s) * math.log(c / n_s)
            h_fp += int(math.floor(term * 1_000_000 + 0.5))
        rows.append({"from_type": s, "n_out": n_s,
                     "entropy_fp": h_fp})
    out = (pd.DataFrame(rows).sort_values("from_type")
           .reset_index(drop=True))
    big_n = int(out["n_out"].sum())
    cond = sum(int(r["n_out"]) * int(r["entropy_fp"])
               for _, r in out.iterrows()) // big_n
    out["cond_entropy_fp"] = np.int64(cond)
    return out.astype({"n_out": np.int64, "entropy_fp": np.int64})


SQL_EVENTS_TRANSITION_ENTROPY = """
WITH s AS (SELECT user_id, event_type,
                  lag(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev
           FROM events),
tr AS (SELECT prev AS from_type, event_type AS to_type,
              count(*)::BIGINT AS cnt
       FROM s WHERE prev IS NOT NULL GROUP BY 1, 2),
n AS (SELECT from_type, sum(cnt)::BIGINT AS n_out FROM tr GROUP BY 1),
h AS (SELECT tr.from_type,
             sum(CAST(floor(-(tr.cnt::DOUBLE / n.n_out)
                            * ln(tr.cnt::DOUBLE / n.n_out)
                            * 1000000 + 0.5) AS BIGINT))::BIGINT
                 AS entropy_fp
      FROM tr JOIN n USING (from_type) GROUP BY 1),
j AS (SELECT n.from_type, n.n_out, h.entropy_fp
      FROM n JOIN h USING (from_type))
SELECT from_type, n_out, entropy_fp,
       (sum(n_out * entropy_fp) OVER () // sum(n_out) OVER ())::BIGINT
           AS cond_entropy_fp
FROM j
"""


#: Hill estimator order statistic count (top-k tail sample)
HILL_K = 100


def events_hill_tail_index(sf_dir):
    """Hill estimator of the Pareto tail index of the event-value
    distribution: alpha = k / sum ln(v_(i)/v_(k+1)) over the top-k
    order statistics — the heavy-tail screen that decides whether mean-
    based monitors are even meaningful for a metric. Values quantize to
    micro ints; each log term quantizes ONCE to the 1e-6 grid so the
    sum is an order-free integer. Scale shape: per-block top-(k+1)
    partials (k+1 ints per block) merge on the driver — no global sort,
    no shuffle."""
    import math

    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "events", ["value"], rows_per_block=32768)

    def topk_partial(t: pa.Table) -> pa.Table:
        v = sql_round(np.asarray(
            t.column("value").to_numpy(zero_copy_only=False),
            dtype=np.float64) * 1e6, 0).astype(np.int64)
        v = v[v > 0]
        if len(v) > HILL_K + 1:
            v = np.partition(v, len(v) - HILL_K - 1)[-(HILL_K + 1):]
        return pa.table({"vm": pa.array(np.sort(v)[::-1], pa.int64())})

    cand = np.sort(ds.map_batches(topk_partial, batch_format="pyarrow")
                   .to_pandas()["vm"].to_numpy(np.int64))[::-1]
    top = cand[:HILL_K + 1]
    vk1 = int(top[HILL_K])
    hill_fp = sum(
        int(math.floor(math.log(int(v) / vk1) * 1_000_000 + 0.5))
        for v in top[:HILL_K])
    alpha = float(sql_round(HILL_K * 1_000_000.0 / hill_fp, 12))
    return pd.DataFrame([{
        "k": np.int64(HILL_K), "v_k1_micro": np.int64(vk1),
        "hill_fp": np.int64(hill_fp), "alpha_hill": alpha}])


SQL_EVENTS_HILL_TAIL_INDEX = f"""
WITH v AS (SELECT ROUND(value * 1000000)::BIGINT AS vm FROM events
           WHERE ROUND(value * 1000000) > 0),
r AS (SELECT vm, row_number() OVER (ORDER BY vm DESC) AS rn FROM v),
k1 AS (SELECT vm AS vk1 FROM r WHERE rn = {HILL_K + 1}),
h AS (SELECT sum(CAST(floor(ln(r.vm::DOUBLE / k1.vk1)
                            * 1000000 + 0.5) AS BIGINT))::BIGINT
                 AS hill_fp
      FROM r, k1 WHERE r.rn <= {HILL_K})
SELECT {HILL_K}::BIGINT AS k, k1.vk1 AS v_k1_micro, h.hill_fp,
       ROUND({HILL_K} * 1000000.0 / h.hill_fp, 12) AS alpha_hill
FROM h, k1
"""


#: autocorrelation lags reported (calendar-day offsets)
ACF_MAX_LAG = 7


def orders_daily_autocorr(sf_dir):
    """Lag-1..7 autocorrelation of daily order revenue — the
    seasonality detector behind weekly-cycle dashboards. Daily cent
    sums reduce map-side (<= days rows per block); the driver-side fold
    over the tiny day series is EXACT Python-int arithmetic on
    mean-centered deviations scaled by n (dev_t = n*x_t - S, so
    r_k = sum(dev_t*dev_(t+k)) / sum(dev_t^2) with no float mean), with
    pairs matched on CALENDAR-day offset (a gap day contributes no
    pair). The single float per lag mirrors the oracle's
    HUGEINT->DOUBLE division and rounds to 12 decimals."""
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"],
               rows_per_block=32768)

    def day_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"day": pd.Series([], dtype="int64"),
                                 "x": pd.Series([], dtype="int64")})
        d = pd.to_datetime(df["o_orderdate"]).to_numpy(
            "datetime64[D]").astype(np.int64)
        cents = sql_round(df["o_totalprice"].to_numpy(np.float64)
                          * 100.0, 0).astype(np.int64)
        return (pd.DataFrame({"day": d, "x": cents})
                .groupby("day", as_index=False).sum())

    daily = (ds.map_batches(day_partial, batch_format="pandas")
             .to_pandas().groupby("day", as_index=False)["x"].sum()
             .sort_values("day"))
    days = daily["day"].to_numpy(np.int64)
    x = [int(v) for v in daily["x"].to_numpy(np.int64)]
    n = len(x)
    s = sum(x)
    dev = {int(d): n * v - s for d, v in zip(days, x)}
    den = sum(v * v for v in dev.values())
    rows = []
    for k in range(1, ACF_MAX_LAG + 1):
        num, pairs = 0, 0
        for d, v in dev.items():
            w = dev.get(d + k)
            if w is not None:
                num += v * w
                pairs += 1
        rows.append({"lag": np.int64(k), "n_days": np.int64(n),
                     "n_pairs": np.int64(pairs),
                     "acf": float(sql_round(
                         float(num) / float(den), 12))})
    return pd.DataFrame(rows)


SQL_ORDERS_DAILY_AUTOCORR = f"""
WITH d AS (SELECT datediff('day', DATE '1970-01-01',
                           o_orderdate)::BIGINT AS day,
                  sum(ROUND(o_totalprice * 100)::BIGINT)::BIGINT AS x
           FROM orders GROUP BY 1),
s AS (SELECT count(*)::BIGINT AS n, sum(x)::BIGINT AS sx FROM d),
e AS (SELECT day, (s.n * x - s.sx)::HUGEINT AS dev FROM d, s),
den AS (SELECT sum(dev * dev) AS den FROM e),
l AS (SELECT unnest(range(1, {ACF_MAX_LAG + 1}))::BIGINT AS lag),
num AS (SELECT l.lag, coalesce(sum(a.dev * b.dev), 0) AS num,
               count(b.day)::BIGINT AS n_pairs
        FROM l LEFT JOIN e a ON true
        LEFT JOIN e b ON b.day = a.day + l.lag
        GROUP BY l.lag)
SELECT num.lag, s.n AS n_days, num.n_pairs,
       ROUND(num.num::DOUBLE / den.den::DOUBLE, 12) AS acf
FROM num, s, den
ORDER BY num.lag
"""


#: power-iteration rounds for the top principal component
PCA_ITERS = 4
#: fixed-point scales: embedding micro-quant, the per-row dot shrink,
#: and the L-infinity vector normalization target (all powers of two so
#: numpy's arithmetic shifts replay bit-exactly in SQL floor division)
PCA_XSCALE = 1_000_000
PCA_DSHIFT = 16384      # 2^14
PCA_VSCALE = 16384      # 2^14


def embed_pca_top_component(sf_dir):
    """Top principal direction of the (uncentered) embedding Gram
    matrix by FIXED-POINT power iteration — the distributed
    linear-algebra primitive behind whitening, spectral outlier
    screens, and ABTT embedding post-processing. Each round is ONE
    map-side pass: every block computes d_i = sum_j xq_ij*v_j for its
    rows, shrinks by floor(d/2^14), and emits the 64 partial
    s_j = sum_i xq_ij*dd_i sums; the driver folds partials in Python
    ints (exact at any corpus size), L-infinity-normalizes v back to
    +-2^14 with floor division, and broadcasts the 64 ints into the
    next round's closure. No shuffle anywhere — per-round traffic is
    dims x blocks ints. All arithmetic replays bit-exactly in the
    unrolled BIGINT SQL (per-block int64 bound: rows_per_block x
    |xq|max x 2^20 must stay under 2^63 — holds to ~500k-row blocks at
    unit-norm embeddings). Sign is canonicalized so the largest-|v|
    coordinate (smallest dim on ties) is positive."""
    from ..functions.similarity import _as_matrix
    from ..functions.sqlcompat import sql_round

    ds = _read_embeddings(sf_dir).materialize()
    first = ds.take(1)[0]["embedding"]
    dim = len(first)
    v = np.full(dim, PCA_VSCALE, dtype=np.int64)

    for _ in range(PCA_ITERS):
        vb = v.copy()

        def partial(t: pa.Table, vb=vb) -> pa.Table:
            x = _as_matrix(t.column("embedding"), dtype=np.float64)
            xq = sql_round(x * PCA_XSCALE, 0).astype(np.int64)
            d = xq @ vb
            dd = d >> 14          # arithmetic shift == floor / 2^14
            s = xq.T @ dd
            return pa.table({"j": pa.array(np.arange(len(s)),
                                           pa.int64()),
                             "s": pa.array(s, pa.int64())})

        parts = (ds.map_batches(partial, batch_format="pyarrow")
                 .to_pandas())
        s_tot = [0] * dim
        for j, s in zip(parts["j"].to_numpy(np.int64),
                        parts["s"].to_numpy(np.int64)):
            s_tot[int(j)] += int(s)        # Python-int exact fold
        m = max(abs(si) for si in s_tot)
        den = m // PCA_VSCALE + 1
        v = np.array([si // den for si in s_tot], dtype=np.int64)

    a = np.abs(v)
    jstar = int(a.argmax())                # first max = smallest dim
    if v[jstar] < 0:
        v = -v
    return pd.DataFrame({"dim": np.arange(dim, dtype=np.int64),
                         "v_fp": v.astype(np.int64)})


def _sql_pca(iters: int) -> str:
    """Unrolled power-iteration replay. ``fd(a, b)`` is exact BIGINT
    floor division for b > 0 (DuckDB ``//`` truncates; verified exact
    above 2^53 where any double detour would round)."""

    def fd(a: str, b: str) -> str:
        return (f"(CASE WHEN {a} >= 0 THEN ({a}) // ({b}) "
                f"ELSE -((-({a}) + ({b}) - 1) // ({b})) END)")

    parts = [f"""
WITH e AS (SELECT vec_id, unnest(embedding) AS comp,
                  generate_subscripts(embedding, 1) - 1 AS j
           FROM embeddings),
x AS MATERIALIZED (
  SELECT vec_id, j,
         CAST(CASE WHEN comp >= 0
              THEN floor(comp::DOUBLE * {PCA_XSCALE} + 0.5)
              ELSE -floor(-comp::DOUBLE * {PCA_XSCALE} + 0.5) END
              AS BIGINT) AS xq
  FROM e),
v0 AS (SELECT DISTINCT j, {PCA_VSCALE}::BIGINT AS v FROM x)"""]
    for r in range(1, iters + 1):
        d = f"sum(x.xq * v{r - 1}.v)::BIGINT"
        parts.append(f""",
d{r} AS MATERIALIZED (
  SELECT x.vec_id, {fd(d, str(PCA_DSHIFT))} AS dd
  FROM x JOIN v{r - 1} USING (j) GROUP BY x.vec_id),
s{r} AS MATERIALIZED (
  SELECT j, sum(x.xq * d{r}.dd)::BIGINT AS s
  FROM x JOIN d{r} USING (vec_id) GROUP BY j),
m{r} AS (SELECT (max(abs(s)) // {PCA_VSCALE} + 1)::BIGINT AS den
         FROM s{r}),
v{r} AS MATERIALIZED (
  SELECT j, {fd('s', f'm{r}.den')}::BIGINT AS v FROM s{r}, m{r})""")
    parts.append(f""",
fin AS (SELECT j, v FROM v{iters}),
mx AS (SELECT max(abs(v)) AS m FROM fin),
sg AS (SELECT CASE WHEN (SELECT v FROM fin, mx WHERE abs(v) = mx.m
                         ORDER BY j LIMIT 1) < 0
              THEN -1 ELSE 1 END AS s)
SELECT j::BIGINT AS dim, (v * sg.s)::BIGINT AS v_fp
FROM fin, sg ORDER BY dim
""")
    return "".join(parts)


# --- Fellegi-Sunter probabilistic record linkage ---------------------------
#: configured m/u probabilities per agreement feature (expert-set priors
#: — the classic FS setup; parameter ESTIMATION from labeled data is the
#: sibling `docs_weak_label_model` Dawid-Skene EM)
FS_M = {"f_name_tail": 0.9, "f_bal_close": 0.85, "f_bal_bucket": 0.8}
FS_U = {"f_name_tail": 0.1, "f_bal_close": 0.05, "f_bal_bucket": 0.1}
FS_BAL_CLOSE_CENTS = 50_000        # |balance delta| <= $500
FS_BAL_BUCKET_CENTS = 200_000      # same $2000 balance bucket
FS_BAL_OFFSET = 100_000_000        # shift keeps cents positive so
#                                    truncating and floor division agree
FS_UPPER_FP = 2_000_000            # match threshold (2.0 in 1e-6 fp)


def _fs_weights() -> dict:
    """Agreement/disagreement log2-likelihood weights quantized ONCE to
    the 1e-6 grid; the quantized ints are embedded as literals in the
    oracle SQL, so both engines share IDENTICAL constants."""
    import math
    w = {}
    for k in FS_M:
        m, u = FS_M[k], FS_U[k]
        w[k] = (int(math.floor(math.log2(m / u) * 1e6 + 0.5)),
                int(math.floor(math.log2((1 - m) / (1 - u)) * 1e6
                               + 0.5)))
    return w


def customer_fellegi_sunter(sf_dir):
    """Fellegi-Sunter probabilistic record linkage over the customer
    table: candidate pairs blocked on (nation, mktsegment), three
    agreement features (same name tail digit, balance within $500,
    same $2000 balance bucket), and the classic sum of per-feature
    log2(m/u) / log2((1-m)/(1-u)) weights — all integer because every
    weight is a pre-quantized 1e-6 constant. The result is the
    agreement-PATTERN histogram (<= 8 rows: pattern, pair count, score,
    match/possible/non_match decision), never the pair table itself.
    Scale shape: one bucketed shuffle colocates whole blocks; pair
    generation is a vectorized per-block self-merge (O(B^2) within a
    block — the documented blocking trade-off, measured by the sibling
    `customer_blocking_eval`); only 8 pattern partials leave each
    bucket. Complements `customer_entity_resolution` (deterministic
    edit-distance + CC) with the probabilistic-scoring shape."""
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.sqlcompat import sql_round

    w = _fs_weights()
    feats = list(FS_M)
    ds = _read(sf_dir, "customer",
               ["c_custkey", "c_name", "c_nationkey", "c_acctbal",
                "c_mktsegment"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cents = sql_round(g["c_acctbal"].to_numpy(np.float64) * 100.0,
                          0).astype(np.int64)
        g = g.assign(
            cents=cents,
            tail=g["c_name"].str[-1],
            bucket=(cents + FS_BAL_OFFSET) // FS_BAL_BUCKET_CENTS)
        g = g[["c_custkey", "c_nationkey", "c_mktsegment", "cents",
               "tail", "bucket"]]
        m = g.merge(g, on=["c_nationkey", "c_mktsegment"],
                    suffixes=("_a", "_b"))
        m = m[m["c_custkey_a"] < m["c_custkey_b"]]
        out = pd.DataFrame({
            "f_name_tail": (m["tail_a"] == m["tail_b"])
                           .to_numpy().astype(np.int64),
            "f_bal_close": (np.abs(m["cents_a"].to_numpy(np.int64)
                                   - m["cents_b"].to_numpy(np.int64))
                            <= FS_BAL_CLOSE_CENTS).astype(np.int64),
            "f_bal_bucket": (m["bucket_a"] == m["bucket_b"])
                            .to_numpy().astype(np.int64)})
        out["n_pairs"] = np.int64(1)
        return out.groupby(feats, as_index=False)["n_pairs"].sum()

    parts = hash_bucket_aggregate(
        ds, ["c_nationkey", "c_mktsegment"], per_bucket,
        rows_hint=_nrows(sf_dir, "customer"))
    agg = (parts.to_pandas().groupby(feats, as_index=False)["n_pairs"]
           .sum())
    score = np.zeros(len(agg), dtype=np.int64)
    for k in feats:
        score += np.where(agg[k].to_numpy(np.int64) == 1,
                          w[k][0], w[k][1])
    agg["score_fp"] = score
    agg["decision"] = np.where(
        score >= FS_UPPER_FP, "match",
        np.where(score >= 0, "possible", "non_match"))
    agg["n_pairs"] = agg["n_pairs"].astype(np.int64)
    for k in feats:
        agg[k] = agg[k].astype(np.int64)
    return agg.sort_values(feats).reset_index(drop=True)


def _sql_fellegi_sunter() -> str:
    w = _fs_weights()
    terms = " + ".join(
        f"(CASE WHEN {k} = 1 THEN {w[k][0]} ELSE {w[k][1]} END)"
        for k in FS_M)
    return f"""
WITH c AS (
  SELECT c_custkey, c_nationkey, c_mktsegment,
         ROUND(c_acctbal * 100)::BIGINT AS cents,
         substr(c_name, length(c_name), 1) AS tail
  FROM customer),
p AS (
  SELECT CASE WHEN a.tail = b.tail THEN 1 ELSE 0 END AS f_name_tail,
         CASE WHEN abs(a.cents - b.cents) <= {FS_BAL_CLOSE_CENTS}
              THEN 1 ELSE 0 END AS f_bal_close,
         CASE WHEN (a.cents + {FS_BAL_OFFSET}) // {FS_BAL_BUCKET_CENTS}
                 = (b.cents + {FS_BAL_OFFSET}) // {FS_BAL_BUCKET_CENTS}
              THEN 1 ELSE 0 END AS f_bal_bucket
  FROM c a JOIN c b
    ON a.c_nationkey = b.c_nationkey
   AND a.c_mktsegment = b.c_mktsegment
   AND a.c_custkey < b.c_custkey),
g AS (SELECT f_name_tail, f_bal_close, f_bal_bucket,
             count(*)::BIGINT AS n_pairs
      FROM p GROUP BY 1, 2, 3),
s AS (SELECT *, ({terms})::BIGINT AS score_fp FROM g)
SELECT f_name_tail::BIGINT AS f_name_tail,
       f_bal_close::BIGINT AS f_bal_close,
       f_bal_bucket::BIGINT AS f_bal_bucket, n_pairs, score_fp,
       CASE WHEN score_fp >= {FS_UPPER_FP} THEN 'match'
            WHEN score_fp >= 0 THEN 'possible'
            ELSE 'non_match' END AS decision
FROM s
"""


def _daily_event_counts(sf_dir) -> pd.DataFrame:
    """Distributed daily event counts (map-side partials, driver fold —
    the day series is calendar-bounded, so the driver table is tiny at
    any corpus size). Day key matches DuckDB's strftime '%Y-%m-%d'."""
    ds = _read(sf_dir, "events", ["ts"], rows_per_block=32768)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"day": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        out = pd.DataFrame({
            "day": pd.to_datetime(df["ts"]).dt.strftime("%Y-%m-%d")})
        out["n"] = np.int64(1)
        return out.groupby("day", as_index=False).sum()

    return (ds.map_batches(partial, batch_format="pandas").to_pandas()
            .groupby("day", as_index=False)["n"].sum()
            .sort_values("day").reset_index(drop=True))


def events_holt_smoothing(sf_dir):
    """Holt's linear-trend double exponential smoothing of the daily
    event-count series with alpha = beta = 1/2 — the level+trend
    monitor a volume dashboard runs where single EWMA lags ramps
    (sibling: `events_ewma`). The coupled recursion runs in EXACT 1e-6
    fixed point: s' = floor((x + s + b)/2), b' = floor((s' - s + b)/2)
    (dyadic alpha/beta make both steps pure integer), replayed
    row-for-row by the recursive-CTE oracle. Scale shape: the daily
    aggregate reduces map-side; the recursion itself runs over the
    calendar-bounded day series on the driver — O(days), not O(rows)."""
    daily = _daily_event_counts(sf_dir)
    s = int(daily["n"].iloc[0]) * 1_000_000
    b = 0
    srow, brow = [s], [b]
    for v in daily["n"].iloc[1:]:
        x = int(v) * 1_000_000
        s_new = (x + s + b) // 2
        b = (s_new - s + b) // 2
        s = s_new
        srow.append(s)
        brow.append(b)
    out = daily.copy()
    out["n"] = out["n"].astype(np.int64)
    out["s_micro"] = np.asarray(srow, dtype=np.int64)
    out["b_micro"] = np.asarray(brow, dtype=np.int64)
    out["forecast_micro"] = out["s_micro"] + out["b_micro"]
    return out


def _sql_holt() -> str:
    def fd2(a: str) -> str:
        # exact floor((a)/2) for possibly-negative BIGINT (DuckDB //
        # truncates toward zero)
        return (f"(CASE WHEN {a} >= 0 THEN ({a}) // 2 "
                f"ELSE -((-({a}) + 1) // 2) END)")

    s_new = fd2("1000000 * idx.n + rec.s_micro + rec.b_micro")
    return f"""
WITH RECURSIVE daily AS (
  SELECT strftime(ts, '%Y-%m-%d') AS day, count(*)::BIGINT AS n
  FROM events GROUP BY day),
idx AS (SELECT day, n,
               row_number() OVER (ORDER BY day)::BIGINT AS i
        FROM daily),
rec AS (
  SELECT i, day, n, (1000000 * n)::BIGINT AS s_micro,
         0::BIGINT AS b_micro
  FROM idx WHERE i = 1
  UNION ALL
  SELECT idx.i, idx.day, idx.n,
         {s_new}::BIGINT,
         {fd2(s_new + " - rec.s_micro + rec.b_micro")}::BIGINT
  FROM rec JOIN idx ON idx.i = rec.i + 1)
SELECT day, n, s_micro, b_micro,
       (s_micro + b_micro)::BIGINT AS forecast_micro
FROM rec
"""


#: changepoint score scale (1e-5 grid on the count^2 ratio; ties break
#: on the earlier day, deterministically on both sides)
CHANGEPOINT_SCALE = 100_000


def events_changepoint(sf_dir):
    """Single-changepoint detection on the daily event-count series by
    exact binary segmentation: the split k maximizing the variance-
    reduction gain G(k) = Sl^2/k + Sr^2/(n-k) (equivalently minimizing
    two-segment SSE). The gain is compared on an exact integer grid —
    score_fp = (Sl^2*(n-k) + Sr^2*k) * 1e5 // (k*(n-k)) in BIGINT, ties
    to the earlier day — so Ray and the window-function oracle pick the
    IDENTICAL split. Daily counts reduce map-side; the O(days) split
    scan runs on the calendar-bounded driver series."""
    daily = _daily_event_counts(sf_dir)
    n = len(daily)
    xs = [int(v) for v in daily["n"]]
    st = sum(xs)
    best = None
    sl = 0
    for i in range(1, n):            # split AFTER position i (1-based)
        sl += xs[i - 1]
        sr = st - sl
        score = ((sl * sl * (n - i) + sr * sr * i)
                 * CHANGEPOINT_SCALE) // (i * (n - i))
        key = (score, -i)
        if best is None or key > best[0]:
            best = (key, i, sl, sr)
    _, k, sl, sr = best
    return pd.DataFrame([{
        "split_day": daily["day"].iloc[k - 1],
        "k": np.int64(k), "n_days": np.int64(n),
        "score_fp": np.int64(((sl * sl * (n - k) + sr * sr * k)
                              * CHANGEPOINT_SCALE) // (k * (n - k))),
        "left_mean_micro": np.int64(1_000_000 * sl // k),
        "right_mean_micro": np.int64(1_000_000 * sr // (n - k))}])


SQL_EVENTS_CHANGEPOINT = f"""
WITH daily AS (
  SELECT strftime(ts, '%Y-%m-%d') AS day, count(*)::BIGINT AS n
  FROM events GROUP BY day),
o AS (SELECT day, n,
             row_number() OVER (ORDER BY day)::BIGINT AS i,
             count(*) OVER ()::BIGINT AS nd,
             sum(n) OVER (ORDER BY day)::BIGINT AS sl,
             sum(n) OVER ()::BIGINT AS st
      FROM daily),
g AS (SELECT day, i, nd, sl, (st - sl)::BIGINT AS sr FROM o
      WHERE i < nd)
SELECT day AS split_day, i AS k, nd AS n_days,
       ((sl * sl * (nd - i) + sr * sr * i)
        * {CHANGEPOINT_SCALE} // (i * (nd - i)))::BIGINT AS score_fp,
       (1000000 * sl // i)::BIGINT AS left_mean_micro,
       (1000000 * sr // (nd - i))::BIGINT AS right_mean_micro
FROM g
ORDER BY score_fp DESC, split_day ASC
LIMIT 1
"""


def events_trend_test(sf_dir):
    """Mann-Kendall monotone-trend test + Theil-Sen slope over the
    daily event-count series — the distribution-free trend monitor
    (robust to outlier days) paired with its standard slope estimator.
    S = sum of sign(x_j - x_i) over day pairs and the tie-corrected
    variance are exact integers; z mirrors the oracle's double
    expression and rounds to 12 decimals. The Sen slope is the LOWER
    median of the per-pair integer slopes floor(1e6*dx/ddays)
    (negative-safe floor division), so both engines select the
    identical element. Scale shape: daily counts reduce map-side; the
    O(days^2) pair scan runs over the calendar-bounded driver series."""
    import math

    from ..functions.sqlcompat import sql_round

    daily = _daily_event_counts(sf_dir)
    n = len(daily)
    d = pd.to_datetime(daily["day"]).to_numpy(
        "datetime64[D]").astype(np.int64)
    x = daily["n"].to_numpy(np.int64)
    s_stat = 0
    slopes = []
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(x[j]) - int(x[i])
            s_stat += (dx > 0) - (dx < 0)
            slopes.append((1_000_000 * dx) // (int(d[j]) - int(d[i])))
    slopes.sort()
    m = len(slopes)
    sen = slopes[(m - 1) // 2]          # lower median, deterministic
    _, t = np.unique(x, return_counts=True)
    tie_term = int(sum(int(c) * (int(c) - 1) * (2 * int(c) + 5)
                       for c in t))
    var_num = n * (n - 1) * (2 * n + 5) - tie_term
    var = var_num / 18.0
    if s_stat > 0:
        z = (s_stat - 1) / math.sqrt(var)
    elif s_stat < 0:
        z = (s_stat + 1) / math.sqrt(var)
    else:
        z = 0.0
    return pd.DataFrame([{
        "n_days": np.int64(n), "n_pairs": np.int64(m),
        "s_stat": np.int64(s_stat), "var_num": np.int64(var_num),
        "z": float(sql_round(z, 12)),
        "sen_slope_micro": np.int64(sen)}])


SQL_EVENTS_TREND_TEST = """
WITH daily AS (
  SELECT datediff('day', DATE '1970-01-01', ts::DATE)::BIGINT AS d,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1),
pr AS (SELECT b.n - a.n AS dx, b.d - a.d AS dd
       FROM daily a JOIN daily b ON b.d > a.d),
sl AS (SELECT CASE WHEN 1000000 * dx >= 0 THEN (1000000 * dx) // dd
              ELSE -((-(1000000 * dx) + dd - 1) // dd) END AS slope
       FROM pr),
sr AS (SELECT slope, row_number() OVER (ORDER BY slope) AS rn,
              count(*) OVER ()::BIGINT AS m
       FROM sl),
sen AS (SELECT slope AS sen_slope_micro, m FROM sr
        WHERE rn = (m - 1) // 2 + 1),
s AS (SELECT sum(CASE WHEN dx > 0 THEN 1 WHEN dx < 0 THEN -1
                 ELSE 0 END)::BIGINT AS s_stat
      FROM pr),
nn AS (SELECT count(*)::BIGINT AS n FROM daily),
ties AS (SELECT coalesce(sum(c * (c - 1) * (2 * c + 5)), 0)::BIGINT
             AS tie_term
         FROM (SELECT count(*)::BIGINT AS c FROM daily GROUP BY n)),
v AS (SELECT (nn.n * (nn.n - 1) * (2 * nn.n + 5)
              - ties.tie_term)::BIGINT AS var_num
      FROM nn, ties)
SELECT nn.n AS n_days, sen.m AS n_pairs, s.s_stat, v.var_num,
       ROUND(CASE WHEN s.s_stat > 0
                  THEN (s.s_stat - 1) / sqrt(v.var_num / 18.0)
                  WHEN s.s_stat < 0
                  THEN (s.s_stat + 1) / sqrt(v.var_num / 18.0)
                  ELSE 0.0 END, 12) AS z,
       sen.sen_slope_micro
FROM nn, s, v, sen
"""


#: top-k tokens reported by the MI feature-relevance screen
TOKEN_MI_TOPK = 50


def docs_token_lang_mi(sf_dir):
    """Mutual-information feature relevance of tokens vs the document
    language label — the classic filter-selection screen for training a
    language-ID or quality classifier (which words carry label signal).
    Per (token, lang) cell: (c/N)*log2(c*N/(ct*cl)), quantized ONCE to
    a 1e-12 grid so per-token MI sums are order-free integers; the
    top-k by (mi desc, token asc) is deterministic on both sides.
    Scale shape: map-side (token, lang) Counter partials -> ONE
    token-bucketed aggregate (lang marginals are a driver-sized
    broadcast, token marginals fold inside the owning bucket) ->
    per-bucket top-k partials merged on the driver."""
    import math
    from collections import Counter

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["text", "lang"])

    def tok_partial(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for lang, text in zip(df["lang"], df["text"]):
            for w in text.split():
                c[(w, lang)] += 1
        if not c:
            return pd.DataFrame({
                "token": pd.Series([], dtype=object),
                "lang": pd.Series([], dtype=object),
                "c": pd.Series([], dtype="int64")})
        ks = list(c)
        return pd.DataFrame({
            "token": [k[0] for k in ks], "lang": [k[1] for k in ks],
            "c": np.fromiter((c[k] for k in ks), np.int64,
                             count=len(ks))})

    parts = ds.map_batches(tok_partial, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["token", "lang"], as_index=False)["c"].sum()

    cells = hash_bucket_aggregate(
        parts, ["token"], merge,
        rows_hint=16 * _nrows(sf_dir, "documents")).materialize()

    lang_tot = (cells.map_batches(
        lambda df: df.groupby("lang", as_index=False)["c"].sum(),
        batch_format="pandas").to_pandas()
        .groupby("lang")["c"].sum().to_dict())
    big_n = int(sum(lang_tot.values()))

    def mi_topk(g: pd.DataFrame) -> pd.DataFrame:
        # token marginals are complete inside the owning bucket
        tt = g.groupby("token")["c"].sum().to_dict()
        mi: dict = {}
        for token, lang, c in zip(g["token"], g["lang"], g["c"]):
            c = int(c)
            term = ((c / big_n)
                    * math.log2((c * big_n)
                                / (tt[token] * lang_tot[lang])))
            mi[token] = mi.get(token, 0) + int(
                math.floor(term * 1e12 + 0.5))
        out = pd.DataFrame({"token": list(mi),
                            "mi_fp": np.fromiter(mi.values(), np.int64,
                                                 count=len(mi))})
        out["n_token"] = out["token"].map(tt).astype(np.int64)
        return (out.sort_values(["mi_fp", "token"],
                                ascending=[False, True])
                .head(TOKEN_MI_TOPK))

    top = hash_bucket_aggregate(cells, ["token"], mi_topk,
                                rows_hint=16 * _nrows(sf_dir,
                                                      "documents"))
    return (top.to_pandas()
            .sort_values(["mi_fp", "token"], ascending=[False, True])
            .head(TOKEN_MI_TOPK).reset_index(drop=True))


SQL_DOCS_TOKEN_LANG_MI = rf"""
WITH tok AS (
  SELECT lang,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
tok2 AS (SELECT token, lang FROM tok WHERE token <> ''),
cell AS (SELECT token, lang, count(*)::BIGINT AS c
         FROM tok2 GROUP BY 1, 2),
tt AS (SELECT token, sum(c)::BIGINT AS ct FROM cell GROUP BY 1),
lt AS (SELECT lang, sum(c)::BIGINT AS cl FROM cell GROUP BY 1),
nn AS (SELECT sum(c)::BIGINT AS n FROM cell),
term AS (
  SELECT cell.token, tt.ct,
         CAST(floor((cell.c::DOUBLE / nn.n)
                    * log2((cell.c::DOUBLE * nn.n)
                           / (tt.ct::DOUBLE * lt.cl))
                    * 1000000000000 + 0.5) AS BIGINT) AS f
  FROM cell JOIN tt USING (token) JOIN lt USING (lang), nn)
SELECT token, sum(f)::BIGINT AS mi_fp, any_value(ct) AS n_token
FROM term GROUP BY token
ORDER BY mi_fp DESC, token ASC
LIMIT {TOKEN_MI_TOPK}
"""


def docs_langid_confusion(sf_dir):
    """Confusion matrix of the heuristic language-ID predictor vs the
    corpus's lang label — the eval that decides whether a cheap
    function-word classifier is good enough to route documents (the
    synthetic corpus's word-salad text makes 'und' fallbacks common;
    that is the point of measuring). Per-block (true, pred) count
    partials fold on the driver; overall accuracy is the exact integer
    micro-ratio. One row-local pass — streams at read bandwidth."""
    from ..functions.textstats import lang_id_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        pred = lang_id_batch(t)
        df = pd.DataFrame({"true_lang": t.column("lang").to_pylist(),
                           "pred_lang": pred.column("pred_lang")
                           .to_pylist()})
        df["n"] = np.int64(1)
        out = df.groupby(["true_lang", "pred_lang"],
                         as_index=False).sum()
        return pa.Table.from_pandas(out, preserve_index=False)

    cnt = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
           .groupby(["true_lang", "pred_lang"], as_index=False)["n"]
           .sum())
    total = int(cnt["n"].sum())
    correct = int(cnt.loc[cnt["true_lang"] == cnt["pred_lang"],
                          "n"].sum())
    out = cnt.sort_values(["true_lang", "pred_lang"]).reset_index(
        drop=True)
    out["n"] = out["n"].astype(np.int64)
    out["n_correct"] = np.int64(correct)
    out["accuracy_micro"] = np.int64(1_000_000 * correct // total)
    return out


SQL_DOCS_LANGID_CONFUSION = f"""
WITH pred AS ({SQL_DOCS_LANGID}),
j AS (SELECT d.lang AS true_lang, p.pred_lang
      FROM documents d JOIN pred p USING (doc_id)),
c AS (SELECT true_lang, pred_lang, count(*)::BIGINT AS n
      FROM j GROUP BY 1, 2),
t AS (SELECT sum(n)::BIGINT AS total,
             coalesce(sum(n) FILTER (WHERE true_lang = pred_lang),
                      0)::BIGINT AS n_correct
      FROM c)
SELECT c.true_lang, c.pred_lang, c.n, t.n_correct,
       (1000000 * t.n_correct // t.total)::BIGINT AS accuracy_micro
FROM c, t
"""


def events_anova_value_by_type(sf_dir):
    """One-way ANOVA of the event value across event types: the F
    statistic and eta-squared effect size — the parametric companion to
    the KS/Mann-Whitney drift tests (is between-type variance real
    against within-type noise?). Values quantize to exact milli ints;
    per-type (n, sum, sum-of-squares) moments reduce map-side and the
    k-term between-group sum is folded in SORTED type order on both
    sides, so the double arithmetic is bit-mirrored (k terms, fixed
    order — no float-summation-order hazard). Floats round to 12."""
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "events", ["event_type", "value"],
               rows_per_block=32768)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "event_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
                "s": pd.Series([], dtype="int64"),
                "ss": pd.Series([], dtype="int64")})
        v = sql_round(df["value"].to_numpy(np.float64) * 1000.0,
                      0).astype(np.int64)
        out = pd.DataFrame({"event_type": df["event_type"],
                            "n": np.int64(1), "s": v, "ss": v * v})
        return out.groupby("event_type", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    # object accumulate: the corpus-total Σv² clears int64 only ~4x at
    # sf0.1 and would wrap silently at a larger corpus
    for c in ("s", "ss"):
        parts[c] = parts[c].astype(object)
    g = (parts.groupby("event_type", as_index=False).sum()
         .sort_values("event_type"))
    k = len(g)
    big_n = int(g["n"].sum())
    s_tot = int(g["s"].sum())
    ss_tot = int(g["ss"].sum())
    # ordered fold of S_g^2/n_g in type order — mirrors the oracle's
    # list_sum(list(term ORDER BY event_type)) exactly
    between = 0.0
    for _, r in g.iterrows():
        s_g, n_g = int(r["s"]), int(r["n"])
        between += float(s_g * s_g) / n_g
    ssb = between - float(s_tot * s_tot) / big_n
    ssw = float(ss_tot) - between
    f_stat = (ssb / (k - 1)) / (ssw / (big_n - k))
    eta_sq = ssb / (ssb + ssw)
    return pd.DataFrame([{
        "k": np.int64(k), "n": np.int64(big_n),
        "f_stat": float(sql_round(f_stat, 12)),
        "eta_sq": float(sql_round(eta_sq, 12))}])


SQL_EVENTS_ANOVA = """
WITH g AS (
  SELECT event_type, count(*)::BIGINT AS n,
         sum(ROUND(value * 1000)::BIGINT)::BIGINT AS s,
         sum(ROUND(value * 1000)::BIGINT
             * ROUND(value * 1000)::BIGINT)::BIGINT AS ss
  FROM events GROUP BY event_type),
t AS (SELECT count(*)::BIGINT AS k, sum(n)::BIGINT AS bign,
             sum(s)::BIGINT AS st, sum(ss)::BIGINT AS sst,
             list_sum(list((s::HUGEINT * s)::DOUBLE / n
                           ORDER BY event_type)) AS between_
      FROM g),
f AS (SELECT k, bign,
             between_ - (st::HUGEINT * st)::DOUBLE / bign AS ssb,
             sst::DOUBLE - between_ AS ssw
      FROM t)
SELECT k, bign AS n,
       ROUND((ssb / (k - 1)) / (ssw / (bign - k)), 12) AS f_stat,
       ROUND(ssb / (ssb + ssw), 12) AS eta_sq
FROM f
"""


def lineitem_ols_qty_discount(sf_dir):
    """Global simple-OLS regression of quantity on discount — the
    price-elasticity sanity probe over the whole fact table, computed
    from five exact integer moments (n, Sx, Sy, Sxx, Sxy in basis
    points / units) that reduce map-side; no row ever reaches the
    driver. The slope is reported on an exact integer 1e-6 grid
    (floor((1e6*num)/den) with the quotient < 2^53, so the oracle's
    exactly-divisible HUGEINT division is lossless), the intercept is
    derived from the QUANTIZED slope (deterministic on both sides), and
    r-squared mirrors the oracle's single-cast double expression."""
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"],
               rows_per_block=32768)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("n", "sx", "sy", "sxx", "sxy", "syy")})
        x = sql_round(df["l_discount"].to_numpy(np.float64) * 10000.0,
                      0).astype(np.int64)
        y = df["l_quantity"].to_numpy(np.float64).astype(np.int64)
        return pd.DataFrame({
            "n": [np.int64(len(x))], "sx": [int(x.sum())],
            "sy": [int(y.sum())], "sxx": [int((x * x).sum())],
            "sxy": [int((x * y).sum())], "syy": [int((y * y).sum())]})

    p = (ds.map_batches(partial, batch_format="pandas").to_pandas()
         .sum())
    n, sx, sy = int(p["n"]), int(p["sx"]), int(p["sy"])
    sxx, sxy, syy = int(p["sxx"]), int(p["sxy"]), int(p["syy"])
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    den_y = n * syy - sy * sy
    slope_micro = (1_000_000 * num) // den          # Python floor
    icept_num = 1_000_000 * sy - slope_micro * sx
    intercept_micro = icept_num // n
    r2 = float(num * num) / float(den * den_y)
    return pd.DataFrame([{
        "n": np.int64(n), "slope_micro": np.int64(slope_micro),
        "intercept_micro": np.int64(intercept_micro),
        "r2": float(sql_round(r2, 12))}])


SQL_LINEITEM_OLS = """
WITH m AS (
  SELECT count(*)::BIGINT AS n,
         sum(ROUND(l_discount * 10000)::BIGINT)::BIGINT AS sx,
         sum(l_quantity::BIGINT)::BIGINT AS sy,
         sum(ROUND(l_discount * 10000)::BIGINT
             * ROUND(l_discount * 10000)::BIGINT)::BIGINT AS sxx,
         sum(ROUND(l_discount * 10000)::BIGINT
             * l_quantity::BIGINT)::BIGINT AS sxy,
         sum(l_quantity::BIGINT * l_quantity::BIGINT)::BIGINT AS syy
  FROM lineitem),
d AS (SELECT n, sx, sy,
             (n::HUGEINT * sxy - sx::HUGEINT * sy) AS num,
             (n::HUGEINT * sxx - sx::HUGEINT * sx) AS den,
             (n::HUGEINT * syy - sy::HUGEINT * sy) AS den_y
      FROM m),
s AS (SELECT n, sx, sy, num, den, den_y,
             -- exact HUGEINT floor division: subtract the positive
             -- modulus, then the exactly-divisible quotient (< 2^53)
             -- survives the double detour losslessly
             CAST((1000000 * num
                   - (((1000000 * num) % den) + den) % den)
                  / den AS BIGINT) AS slope_micro
      FROM d)
SELECT n, slope_micro,
       (CASE WHEN 1000000 * sy - slope_micro * sx >= 0
             THEN (1000000 * sy - slope_micro * sx) // n
             ELSE -((-(1000000 * sy - slope_micro * sx) + n - 1) // n)
        END)::BIGINT AS intercept_micro,
       ROUND((num * num)::DOUBLE / (den * den_y)::DOUBLE, 12) AS r2
FROM s
"""


def lineitem_kendall_qty_price(sf_dir):
    """Exact Kendall tau-b between l_quantity (ordinal, <=50 distinct)
    and l_extendedprice — the third classical rank correlation next to
    Pearson (`lineitem_qty_price_corr`) and Spearman. Concordant /
    discordant pairs are counted by `functions/stats.py::kendall_tau_b`
    — the vector-carried stitched prefix (one bucketed y aggregate to
    per-y x-count vectors, one sort, per-block vectorized dominance
    counting with the carried cumulative vector); C, D, and both tie
    terms are exact integers. The oracle replays the dominance count
    with per-quantity strict-window sums (RANGE ... 1 PRECEDING on
    integer cents) sliced from a 50-slot list."""
    from ..functions.sqlcompat import sql_round
    from ..functions.stats import kendall_tau_b

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"],
               rows_per_block=32768)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        c = sql_round(
            df["l_extendedprice"].to_numpy(np.float64) * 100.0, 0)
        return pd.DataFrame({
            "q": df["l_quantity"].to_numpy(np.float64)
                 .astype(np.int64),
            "c": c.astype(np.int64)})

    r = kendall_tau_b(ds.map_batches(prep, batch_format="pandas"),
                      "q", "c", rows_hint=_nrows(sf_dir, "lineitem"))
    return pd.DataFrame([{
        "n": np.int64(r["n"]),
        "concordant": np.int64(r["concordant"]),
        "discordant": np.int64(r["discordant"]),
        "tie_x_pairs": np.int64(r["tie_x_pairs"]),
        "tie_y_pairs": np.int64(r["tie_y_pairs"]),
        "tau_b": r["tau_b"]}])


def _sql_kendall(q_lo: int = 1, q_hi: int = 50) -> str:
    """Dominance-count replay: one strict-past window sum per quantity
    value (same ORDER BY, so DuckDB shares the sort), packed into a
    list so each cell row slices its below/above mass. Quantities
    outside [q_lo, q_hi] never occur in TPC-H-shaped data; absent
    values contribute zero columns and cannot change the sums."""
    slots = ", ".join(
        f"coalesce(sum(cnt) FILTER (WHERE q = {k}) OVER win, 0)"
        for k in range(q_lo, q_hi + 1))
    return f"""
WITH x AS (
  SELECT l_quantity::BIGINT AS q,
         ROUND(l_extendedprice * 100)::BIGINT AS y
  FROM lineitem),
cell AS (SELECT y, q, count(*)::BIGINT AS cnt FROM x GROUP BY 1, 2),
w AS (SELECT y, q, cnt, list_value({slots}) AS l
      FROM cell
      WINDOW win AS (ORDER BY y
                     RANGE BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING)),
t AS (SELECT cnt,
             CASE WHEN q <= {q_lo} THEN 0
                  ELSE list_sum(l[1:(q - {q_lo})]) END AS below,
             list_sum(l) - list_sum(l[1:(q - {q_lo} + 1)]) AS above
      FROM w),
cd AS (SELECT coalesce(sum(cnt * below), 0)::BIGINT AS c,
              coalesce(sum(cnt * above), 0)::BIGINT AS d
       FROM t),
tx AS (SELECT sum(ct * (ct - 1) // 2)::BIGINT AS n1
       FROM (SELECT count(*)::BIGINT AS ct FROM x GROUP BY q)),
ty AS (SELECT sum(ct * (ct - 1) // 2)::BIGINT AS n2
       FROM (SELECT count(*)::BIGINT AS ct FROM x GROUP BY y)),
nn AS (SELECT count(*)::BIGINT AS n,
              (count(*)::BIGINT * (count(*) - 1) // 2)::BIGINT AS n0
       FROM x)
SELECT nn.n, cd.c AS concordant, cd.d AS discordant,
       tx.n1 AS tie_x_pairs, ty.n2 AS tie_y_pairs,
       ROUND((cd.c - cd.d)::DOUBLE
             / (sqrt((nn.n0 - tx.n1)::DOUBLE)
                * sqrt((nn.n0 - ty.n2)::DOUBLE)), 12) AS tau_b
FROM nn, cd, tx, ty
"""


#: "converted" = the user has a purchase above this value (every user
#: in the synthetic stream has SOME purchase, so the bare any-purchase
#: rate is degenerate at 1.0; >150 splits users roughly in half)
AB_CONV_VALUE = 150.0


def events_conversion_ab_test(sf_dir):
    """Two-proportion z-test between hash-split user cohorts (user_id
    parity = the A/B assignment) on the high-value purchase-conversion
    rate (a purchase with value > 150) — the experiment-readout
    primitive, run here as an A/A sanity check (a significant z on a
    hash split means the bucketing is broken). Per-user conversion
    flags reduce inside the user's hash bucket (one bucketed
    aggregate); counts are exact integers and the pooled z mirrors the
    oracle's double expression, rounded to 12."""
    import math

    from ..functions.relational import hash_bucket_aggregate
    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"],
               rows_per_block=32768)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        hit = ((g["event_type"] == "purchase")
               & (g["value"] > AB_CONV_VALUE))
        conv = g.assign(is_p=hit).groupby("user_id")["is_p"].any()
        users = conv.index.to_numpy(np.int64)
        out = pd.DataFrame({
            "grp": users % 2,
            "n": np.int64(1),
            "conv": conv.to_numpy().astype(np.int64)})
        return out.groupby("grp", as_index=False).sum()

    g = (hash_bucket_aggregate(ds, ["user_id"], per_bucket,
                               rows_hint=_nrows(sf_dir, "events"))
         .to_pandas().groupby("grp", as_index=False).sum()
         .sort_values("grp"))
    n_a, c_a = int(g["n"].iloc[0]), int(g["conv"].iloc[0])
    n_b, c_b = int(g["n"].iloc[1]), int(g["conv"].iloc[1])
    p_pool = (c_a + c_b) / (n_a + n_b)
    se = math.sqrt(p_pool * (1 - p_pool) * (1.0 / n_a + 1.0 / n_b))
    z = (c_a / n_a - c_b / n_b) / se
    return pd.DataFrame([{
        "n_a": np.int64(n_a), "conv_a": np.int64(c_a),
        "n_b": np.int64(n_b), "conv_b": np.int64(c_b),
        "rate_a_micro": np.int64(1_000_000 * c_a // n_a),
        "rate_b_micro": np.int64(1_000_000 * c_b // n_b),
        "z": float(sql_round(z, 12))}])


SQL_EVENTS_CONVERSION_AB = f"""
WITH u AS (SELECT user_id,
                  max(CASE WHEN event_type = 'purchase'
                            AND value > {AB_CONV_VALUE}
                      THEN 1 ELSE 0 END)::BIGINT AS conv
           FROM events GROUP BY user_id),
g AS (SELECT user_id % 2 AS grp, count(*)::BIGINT AS n,
             sum(conv)::BIGINT AS conv
      FROM u GROUP BY 1),
w AS (SELECT max(CASE WHEN grp = 0 THEN n END)::BIGINT AS n_a,
             max(CASE WHEN grp = 0 THEN conv END)::BIGINT AS conv_a,
             max(CASE WHEN grp = 1 THEN n END)::BIGINT AS n_b,
             max(CASE WHEN grp = 1 THEN conv END)::BIGINT AS conv_b
      FROM g)
SELECT n_a, conv_a, n_b, conv_b,
       (1000000 * conv_a // n_a)::BIGINT AS rate_a_micro,
       (1000000 * conv_b // n_b)::BIGINT AS rate_b_micro,
       ROUND((conv_a::DOUBLE / n_a - conv_b::DOUBLE / n_b)
             / sqrt(((conv_a + conv_b)::DOUBLE / (n_a + n_b))
                    * (1 - (conv_a + conv_b)::DOUBLE / (n_a + n_b))
                    * (1.0 / n_a + 1.0 / n_b)), 12) AS z
FROM w
"""


def docs_source_lang_diversity(sf_dir):
    """Per-source language diversity: Simpson index 1 - sum((n_i/N)^2)
    as the exact integer micro-ratio (1e6*(N^2 - sum n_i^2)) // N^2 —
    the mixture-health audit a multilingual corpus runs per provider
    (a source collapsing to one language skews the training mix).
    (source, lang) counts reduce map-side; the fold over the tiny
    source x lang table is exact integer arithmetic."""
    ds = _read(sf_dir, "documents", ["source", "lang"],
               rows_per_block=32768)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "source": pd.Series([], dtype=object),
                "lang": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64")})
        out = pd.DataFrame({"source": df["source"],
                            "lang": df["lang"]})
        out["n"] = np.int64(1)
        return out.groupby(["source", "lang"], as_index=False).sum()

    cnt = (ds.map_batches(partial, batch_format="pandas").to_pandas()
           .groupby(["source", "lang"], as_index=False)["n"].sum())
    rows = []
    for src, g in cnt.groupby("source"):
        big_n = int(g["n"].sum())
        ss = sum(int(v) * int(v) for v in g["n"])
        rows.append({
            "source": src, "n_docs": np.int64(big_n),
            "n_langs": np.int64(len(g)),
            "simpson_micro": np.int64(
                1_000_000 * (big_n * big_n - ss) // (big_n * big_n))})
    return (pd.DataFrame(rows).sort_values("source")
            .reset_index(drop=True))


SQL_DOCS_SOURCE_LANG_DIVERSITY = """
WITH c AS (SELECT source, lang, count(*)::BIGINT AS n
           FROM documents GROUP BY 1, 2),
s AS (SELECT source, sum(n)::BIGINT AS big_n,
             count(*)::BIGINT AS n_langs,
             sum(n * n)::BIGINT AS ss
      FROM c GROUP BY source)
SELECT source, big_n AS n_docs, n_langs,
       (1000000 * (big_n * big_n - ss) // (big_n * big_n))::BIGINT
           AS simpson_micro
FROM s
"""


#: minimum support (order count) for a frequent triple to be reported
FREQ_TRIPLE_MIN_SUPPORT = 2


def lineitem_frequent_triples(sf_dir):
    """Apriori level-3 market-basket mining: part triples co-occurring
    in at least FREQ_TRIPLE_MIN_SUPPORT orders (the step after the
    existing `lineitem_frequent_pairs`). Baskets are tiny (<= 7 lines
    per order), so the C(b,3) expansion inside the order's hash bucket
    is bounded and the (p1<p2<p3) triple counts reduce map-side through
    ONE bucketed aggregate keyed by the triple."""
    from itertools import combinations

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               rows_per_block=32768)

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, parts in g.groupby("l_orderkey")["l_partkey"]:
            ps = sorted(set(int(p) for p in parts))
            for a, b, c in combinations(ps, 3):
                rows.append((a, b, c))
        if not rows:
            return pd.DataFrame({
                "p1": pd.Series([], dtype="int64"),
                "p2": pd.Series([], dtype="int64"),
                "p3": pd.Series([], dtype="int64"),
                "support": pd.Series([], dtype="int64")})
        out = pd.DataFrame(rows, columns=["p1", "p2", "p3"])
        out["support"] = np.int64(1)
        return out.groupby(["p1", "p2", "p3"], as_index=False).sum()

    triples = hash_bucket_aggregate(
        ds, ["l_orderkey"], expand,
        rows_hint=_nrows(sf_dir, "lineitem"))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        if "p1" not in g.columns:     # schema-less empty bucket block
            return pd.DataFrame({
                c: pd.Series([], dtype="int64")
                for c in ("p1", "p2", "p3", "support")})
        out = g.groupby(["p1", "p2", "p3"],
                        as_index=False)["support"].sum()
        return out[out["support"] >= FREQ_TRIPLE_MIN_SUPPORT]

    out = hash_bucket_aggregate(
        triples, ["p1", "p2", "p3"], merge,
        rows_hint=_nrows(sf_dir, "lineitem")).to_pandas()
    if "support" not in out.columns:   # every bucket filtered to empty
        out = pd.DataFrame({c: pd.Series([], dtype="int64")
                            for c in ("p1", "p2", "p3", "support")})
    out = (out.sort_values(["p1", "p2", "p3"]).reset_index(drop=True))
    return out.astype({c: np.int64 for c in out.columns})


SQL_LINEITEM_FREQUENT_TRIPLES = f"""
WITH b AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT a.l_partkey::BIGINT AS p1, c.l_partkey::BIGINT AS p2,
       d.l_partkey::BIGINT AS p3, count(*)::BIGINT AS support
FROM b a JOIN b c ON a.l_orderkey = c.l_orderkey
              AND a.l_partkey < c.l_partkey
         JOIN b d ON a.l_orderkey = d.l_orderkey
              AND c.l_partkey < d.l_partkey
GROUP BY 1, 2, 3
HAVING count(*) >= {FREQ_TRIPLE_MIN_SUPPORT}
"""


#: sorted-neighborhood lookback (each record pairs with the W-1
#: preceding records in the global sort order)
SNM_WINDOW = 4


def customer_sorted_neighborhood(sf_dir):
    """Sorted-neighborhood-method ER blocking: ONE global sort by
    (c_name, c_custkey), then every record pairs with its W-1
    predecessors in sort order — the classic alternative to hash
    blocking that catches near-keys hash blocks split (compare
    `customer_blocking_eval`). Cross-block windows are stitched by
    carrying each block's (W-1)-row tail: the driver chains the tiny
    tails (blocks x 3 rows) and hands each block its carry-in, so
    pair generation is embarrassingly parallel after the sort.
    Candidates are counted exactly; pairs at edit distance <= 1 are
    the matches (capped two-row DP, bit-parity with DuckDB
    ``levenshtein``)."""
    import ray

    from ..functions.dedup import levenshtein

    k = SNM_WINDOW - 1
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    sorted_ds = ds.sort(["c_name", "c_custkey"]).materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def tail(t: pa.Table, k=k):
        return t.slice(max(0, t.num_rows - k))

    tails = ray.get([tail.remote(r) for r in refs])
    carries, cur = [], None
    for t in tails:
        carries.append(cur)
        cur = (pa.concat_tables([cur, t]) if cur is not None else t)
        cur = cur.slice(max(0, cur.num_rows - k))

    @ray.remote
    def pairs(t: pa.Table, carry, k=k):
        if carry is not None and carry.num_rows:
            t = pa.concat_tables([carry, t])
            start = carry.num_rows
        else:
            start = 0
        names = t.column("c_name").to_pylist()
        keys = t.column("c_custkey").to_pylist()
        n = t.num_rows
        n_cand = 0
        rows = []
        for i in range(start, n):
            for d in range(1, k + 1):
                j = i - d
                if j < 0:
                    break
                n_cand += 1
                a, b = names[j], names[i]
                if abs(len(a) - len(b)) > 1:
                    continue
                dist = levenshtein(a, b, cap=1)
                if dist <= 1:
                    rows.append((int(keys[j]), int(keys[i]), dist))
        return n_cand, rows

    out = ray.get([pairs.remote(r, c)
                   for r, c in zip(refs, carries)])
    n_candidates = sum(o[0] for o in out)
    all_rows = [r for o in out for r in o[1]]
    df = pd.DataFrame(all_rows, columns=["id_a", "id_b", "dist"]) \
        if all_rows else pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("id_a", "id_b", "dist")})
    df["n_candidates"] = np.int64(n_candidates)
    df = df.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return df.astype({c: np.int64 for c in df.columns})


SQL_CUSTOMER_SORTED_NEIGHBORHOOD = f"""
WITH r AS (SELECT c_custkey, c_name,
                  row_number() OVER (ORDER BY c_name, c_custkey)
                      AS rn
           FROM customer),
p AS (SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
             levenshtein(a.c_name, b.c_name) AS dist
      FROM r a JOIN r b
        ON b.rn - a.rn BETWEEN 1 AND {SNM_WINDOW - 1}),
t AS (SELECT count(*)::BIGINT AS n_candidates FROM p)
SELECT id_a::BIGINT AS id_a, id_b::BIGINT AS id_b,
       dist::BIGINT AS dist, t.n_candidates
FROM p, t WHERE dist <= 1
"""


_SQL_COPURCHASE_HEAD = """
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
            FROM lineitem),
e AS (SELECT DISTINCT x.p AS a, y.p AS b
      FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS (SELECT a AS u, b AS v FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT u AS vtx, count(*)::BIGINT AS d FROM adj GROUP BY u)"""


def graph_avg_neighbor_degree_parts(sf_dir):
    """Average-neighbor-degree curve knn(d) of the part co-purchase
    graph — the functional degree-mixing profile behind the single
    assortativity number (`graph_assortativity_parts`): a falling
    curve means popular parts co-sell with long-tail parts. One
    bucketed degree aggregate + one deg-onto-adjacency join +
    per-vertex neighbor sums (the assortativity head), then map-side
    per-degree-class partials; the class mean is the exact integer
    floor of sum(s_v) / (d * count) on the 1e-6 grid."""
    from ..functions.graph import avg_neighbor_degree

    n = _nrows(sf_dir, "lineitem")
    edges = _copurchase_edges(sf_dir)
    return (avg_neighbor_degree(edges, rows_hint=8 * n)
            .sort_values("d").reset_index(drop=True))


SQL_GRAPH_AVG_NBR_DEG = _SQL_COPURCHASE_HEAD + """,
ns AS (SELECT adj.v AS vtx, sum(du.d)::BIGINT AS s
       FROM adj JOIN deg du ON adj.u = du.vtx GROUP BY adj.v),
j AS (SELECT deg.d, ns.s FROM deg JOIN ns USING (vtx))
SELECT d, count(*)::BIGINT AS n_vertices,
       sum(s)::BIGINT AS sum_nbr_deg,
       (1000000 * sum(s)::BIGINT // (d * count(*)))::BIGINT
           AS avg_nbr_deg_micro
FROM j GROUP BY d
"""


def graph_rich_club_parts(sf_dir):
    """Rich-club coefficient phi(k) of the part co-purchase graph over
    degree thresholds k in {1,2,4,8,16,32}: edge density among the
    vertices of degree > k — do the bestseller parts form a
    denser-than-random core? Endpoint degrees attach to each edge via
    two bucketed joins; E_k and N_k fold from two driver-sized
    histograms (min-endpoint-degree and degree), so adding thresholds
    costs nothing. phi is the exact integer micro-ratio
    2e6*E_k // (N_k*(N_k-1))."""
    from ..functions.graph import rich_club

    n = _nrows(sf_dir, "lineitem")
    edges = _copurchase_edges(sf_dir)
    return rich_club(edges, rows_hint=8 * n)


SQL_GRAPH_RICH_CLUB = _SQL_COPURCHASE_HEAD + """,
md AS (SELECT least(da.d, db.d) AS m
       FROM e JOIN deg da ON e.a = da.vtx
              JOIN deg db ON e.b = db.vtx),
ks(k) AS (VALUES (1), (2), (4), (8), (16), (32)),
f AS (SELECT k,
             (SELECT count(*) FROM deg WHERE d > k)::BIGINT AS n_k,
             (SELECT count(*) FROM md WHERE m > k)::BIGINT AS e_k
      FROM ks)
SELECT k::BIGINT AS k, n_k, e_k,
       (CASE WHEN n_k >= 2
             THEN 2000000 * e_k // (n_k * (n_k - 1))
             ELSE 0 END)::BIGINT AS phi_micro
FROM f
"""


#: character classes for the code-vs-prose screen
CODE_SYMBOLS = "{}()[];=<>"
CODE_DIGITS = "0123456789"
CODE_SYMBOL_MICRO_GATE = 20_000      # flag when > 2% symbol chars


def docs_code_detection(sf_dir):
    """Heuristic code-vs-prose screen: per-document symbol-character
    and digit ratios (exact integer micro-units) with a 2% symbol-rate
    code flag — the cheap router that decides whether a crawl page
    goes to the code or prose pipeline (fastText-style classifiers
    start from exactly these surface features). Row-local, streams at
    read bandwidth; counting is a single str.translate pass mirrored
    by DuckDB's translate()."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    sym_tbl = str.maketrans("", "", CODE_SYMBOLS)
    dig_tbl = str.maketrans("", "", CODE_DIGITS)

    def feats(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id")
        nc, ns, nd = [], [], []
        for x in t.column("text").to_pylist():
            n = len(x)
            nc.append(n)
            ns.append(n - len(x.translate(sym_tbl)))
            nd.append(n - len(x.translate(dig_tbl)))
        nc_a = np.asarray(nc, dtype=np.int64)
        ns_a = np.asarray(ns, dtype=np.int64)
        nd_a = np.asarray(nd, dtype=np.int64)
        den = np.maximum(nc_a, 1)
        sym_micro = 1_000_000 * ns_a // den
        dig_micro = 1_000_000 * nd_a // den
        return pa.table({
            "doc_id": ids,
            "n_chars": pa.array(nc_a, pa.int64()),
            "n_symbols": pa.array(ns_a, pa.int64()),
            "n_digits": pa.array(nd_a, pa.int64()),
            "symbol_micro": pa.array(sym_micro, pa.int64()),
            "digit_micro": pa.array(dig_micro, pa.int64()),
            "is_code": pa.array(
                (sym_micro > CODE_SYMBOL_MICRO_GATE).astype(np.int64),
                pa.int64())})

    return ds.map_batches(feats, batch_format="pyarrow")


SQL_DOCS_CODE_DETECTION = f"""
WITH f AS (
  SELECT doc_id, length(text)::BIGINT AS n_chars,
         (length(text)
          - length(translate(text, '{CODE_SYMBOLS}', '')))::BIGINT
             AS n_symbols,
         (length(text)
          - length(translate(text, '{CODE_DIGITS}', '')))::BIGINT
             AS n_digits
  FROM documents)
SELECT doc_id, n_chars, n_symbols, n_digits,
       (1000000 * n_symbols // greatest(n_chars, 1))::BIGINT
           AS symbol_micro,
       (1000000 * n_digits // greatest(n_chars, 1))::BIGINT
           AS digit_micro,
       (1000000 * n_symbols // greatest(n_chars, 1)
        > {CODE_SYMBOL_MICRO_GATE})::BIGINT AS is_code
FROM f
"""


def events_interarrival_stats(sf_dir):
    """Per-user inter-event gap distribution: exact mean (integer
    microseconds) and exact p50/p90/p99 of the gap in whole seconds —
    the arrival-process profile behind session-timeout and debounce
    window choices (`events_sessionize` / `events_debounce` consume
    exactly these percentiles). Consecutive-gap extraction runs inside
    the user's hash bucket (users never straddle buckets, the
    transitions shape); each bucket reduces to a (gap_s, count)
    histogram partial plus exact sum/count, so quantile selection
    replays DuckDB's quantile_disc rank on the driver-sized histogram
    (gap domain is bounded by the stream span in seconds)."""
    import math

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"],
               rows_per_block=32768)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        t = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = g["user_id"].to_numpy(np.int64)
        gap = t[1:] - t[:-1]
        keep = same[1:] == same[:-1]
        gap = gap[keep]
        if not len(gap):
            return pd.DataFrame({
                "gap_s": pd.Series([], dtype="int64"),
                "cnt": pd.Series([], dtype="int64"),
                "sum_us": pd.Series([], dtype="int64")})
        out = pd.DataFrame({"gap_s": gap // 1_000_000,
                            "cnt": np.int64(1), "sum_us": gap})
        return out.groupby("gap_s", as_index=False).sum()

    h = (hash_bucket_aggregate(ds, ["user_id"], per_bucket,
                               rows_hint=_nrows(sf_dir, "events"))
         .to_pandas().groupby("gap_s", as_index=False).sum()
         .sort_values("gap_s"))
    n = int(h["cnt"].sum())
    total_us = int(h["sum_us"].sum())
    cum = h["cnt"].cumsum().to_numpy()
    vals = h["gap_s"].to_numpy(np.int64)
    def pick(q):
        return int(vals[np.searchsorted(
            cum, max(math.ceil(q * n) - 1, 0) + 1, side="left")])
    return pd.DataFrame([{
        "n_gaps": np.int64(n),
        "mean_gap_us": np.int64(total_us // n),
        "p50_s": np.int64(pick(0.5)),
        "p90_s": np.int64(pick(0.9)),
        "p99_s": np.int64(pick(0.99))}])


SQL_EVENTS_INTERARRIVAL = """
WITH s AS (SELECT user_id, epoch_us(ts) AS t,
                  lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id)
                      AS prev
           FROM events),
g AS (SELECT (t - prev)::BIGINT AS gap_us,
             ((t - prev) // 1000000)::BIGINT AS gap_s
      FROM s WHERE prev IS NOT NULL)
SELECT count(*)::BIGINT AS n_gaps,
       (sum(gap_us)::BIGINT // count(*))::BIGINT AS mean_gap_us,
       quantile_disc(gap_s, 0.5)::BIGINT AS p50_s,
       quantile_disc(gap_s, 0.9)::BIGINT AS p90_s,
       quantile_disc(gap_s, 0.99)::BIGINT AS p99_s
FROM g
"""


#: AMS tug-of-war estimator count (sign bits 0..63 of the md5 hash)
AMS_K = 64
#: median-of-means group width (AMS_K/AMS_G groups of AMS_G each)
AMS_G = 8


def docs_f2_moment(sf_dir):
    """AMS tug-of-war sketch of the second frequency moment F2 = sum
    f_x^2 of the corpus word distribution (Alon-Matias-Szegedy 1996) —
    the repetitiveness/skew scalar behind join-size and self-join
    estimation, here with the SKETCH value-oracled: estimator j's sign
    for token x is bit j of the repo's md5-derived 64-bit hash, so
    DuckDB replays all 64 counters exactly. Each block reduces to 64
    integer counters Z_j = sum f*s_j (map-side, one hash per DISTINCT
    token per block); the estimate is the standard median-of-means —
    8 groups of 8 estimators, integer-exact as the lower median of the
    8 group sums of Z_j^2 floor-divided by 8. The exact F2 rides along
    from the same token-count partials (distinct-token squared counts
    fold through one bucketed aggregate), giving the integer
    relative-error report."""
    from collections import Counter

    from ..functions.dedup import _word_hash64
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["text"])

    def _counts(t: pa.Table):
        c: Counter = Counter()
        for x in t.column("text").to_pylist():
            c.update(x.split())
        toks = list(c)
        cnt = np.fromiter((c[w] for w in toks), np.int64,
                          count=len(toks))
        return toks, cnt

    def z_partial(t: pa.Table) -> pa.Table:
        toks, cnt = _counts(t)
        h = np.fromiter((_word_hash64(w) for w in toks), np.uint64,
                        count=len(toks))
        z = np.empty(AMS_K, dtype=np.int64)
        for j in range(AMS_K):
            s = (((h >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
                 * 2 - 1)
            z[j] = int((cnt * s).sum())
        return pa.table({f"z{j}": pa.array([int(z[j])], pa.int64())
                         for j in range(AMS_K)})

    def tok_partial(t: pa.Table) -> pa.Table:
        toks, cnt = _counts(t)
        return pa.table({"token": pa.array(toks, pa.string()),
                         "cnt": pa.array(cnt, pa.int64())})

    zs = (ds.map_batches(z_partial, batch_format="pyarrow")
          .to_pandas().sum())
    z_tot = [int(zs[f"z{j}"]) for j in range(AMS_K)]

    def f2_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("token", as_index=False)["cnt"].sum()
        c = out["cnt"].to_numpy(np.int64)
        return pd.DataFrame({"f2": [int((c * c).sum())]})

    f2_exact = int(hash_bucket_aggregate(
        ds.map_batches(tok_partial, batch_format="pyarrow"),
        ["token"], f2_bucket,
        rows_hint=16 * _nrows(sf_dir, "documents"))
        .to_pandas()["f2"].sum())

    n_groups = AMS_K // AMS_G
    group_sums = sorted(
        sum(z_tot[g * AMS_G + i] ** 2 for i in range(AMS_G))
        for g in range(n_groups))
    f2_ams = group_sums[(n_groups - 1) // 2] // AMS_G  # lower median
    rel_err = 1_000_000 * abs(f2_ams - f2_exact) // f2_exact
    return pd.DataFrame([{
        "f2_exact": np.int64(f2_exact), "f2_ams": np.int64(f2_ams),
        "rel_err_micro": np.int64(rel_err)}])


def _sql_f2(k: int = AMS_K, g: int = AMS_G) -> str:
    zs = ", ".join(
        f"sum(cnt * (2 * ((h >> {j}) & 1)::BIGINT - 1))::BIGINT"
        f" AS z{j}" for j in range(k))
    n_groups = k // g
    gsums = ", ".join(
        "(" + " + ".join(f"z{gi * g + i}::HUGEINT * z{gi * g + i}"
                         for i in range(g)) + ")"
        for gi in range(n_groups))
    return rf"""
WITH tok AS (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
c AS (SELECT token, count(*)::BIGINT AS cnt FROM tok
      WHERE token <> '' GROUP BY token),
hh AS (SELECT cnt,
              ('0x' || substr(md5(token), 1, 16))::UBIGINT AS h
       FROM c),
z AS (SELECT {zs} FROM hh),
f AS (SELECT sum(cnt * cnt)::BIGINT AS f2_exact FROM c),
m AS (SELECT (list_sort(list_value({gsums}))[{(n_groups - 1) // 2 + 1}]
              // {g})::BIGINT AS f2_ams
      FROM z)
SELECT f.f2_exact, m.f2_ams,
       (1000000 * abs(m.f2_ams - f.f2_exact) // f.f2_exact)::BIGINT
           AS rel_err_micro
FROM f, m
"""


#: Markov stationary-distribution fixed-point scale / iteration count
MARKOV_SCALE = 10 ** 12
MARKOV_ROUNDS = 20


def events_markov_stationary(sf_dir):
    """Stationary distribution of the per-user event-type Markov chain
    (power iteration on the first-order transition matrix) — the
    long-run behavioral mix used to weight session-simulation and
    synthetic-traffic generators. Reuses the bucketed transition-count
    pipeline (`events_type_transitions`: users never span buckets, 25
    partial rows per bucket); the iteration itself runs on the driver
    over the constant-size types x types matrix in exact integer
    fixed-point (SCALE=1e12): pi'[j] = sum_i floor(pi[i]*c[i,j]/out[i])
    plus floor(dangling_mass/n) uniform redistribution, 20 rounds from
    the uniform floor(SCALE/n) start — every floor replayed verbatim by
    the unrolled MATERIALIZED SQL rounds. Output is pi in parts per
    billion, keyed by event_type."""
    trans = events_type_transitions(sf_dir).to_pandas()
    types = sorted(_read(sf_dir, "events", ["event_type"])
                   .unique("event_type"))
    n = len(types)
    idx = {t: i for i, t in enumerate(types)}
    cnt = np.zeros((n, n), dtype=np.int64)
    for r in trans.itertuples(index=False):
        cnt[idx[r.from_type], idx[r.to_type]] = r.cnt
    out = cnt.sum(axis=1)

    pi = [MARKOV_SCALE // n] * n
    for _ in range(MARKOV_ROUNDS):
        nxt = [0] * n
        dang = 0
        for i in range(n):
            if out[i] == 0:
                dang += pi[i]
                continue
            for j in range(n):
                if cnt[i, j]:
                    nxt[j] += pi[i] * int(cnt[i, j]) // int(out[i])
        share = dang // n
        pi = [v + share for v in nxt]

    return pd.DataFrame({
        "event_type": types,
        "pi_ppb": np.asarray([p // 1000 for p in pi], np.int64),
    }).sort_values("event_type", ignore_index=True)


def _sql_markov(rounds: int = MARKOV_ROUNDS,
                scale: int = MARKOV_SCALE) -> str:
    body = [rf"""
WITH s AS (SELECT user_id, event_type,
                  lag(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev
           FROM events),
trans AS (SELECT prev AS from_type, event_type AS to_type,
                 count(*)::HUGEINT AS cnt
          FROM s WHERE prev IS NOT NULL GROUP BY 1, 2),
outs AS (SELECT from_type, sum(cnt)::HUGEINT AS out_cnt
         FROM trans GROUP BY 1),
types AS (SELECT DISTINCT event_type FROM events),
nt AS (SELECT count(*)::HUGEINT AS n FROM types),
p0 AS (SELECT event_type, ({scale}::HUGEINT // nt.n)::HUGEINT AS pi
       FROM types, nt)"""]
    for r in range(1, rounds + 1):
        body.append(f"""
p{r} AS MATERIALIZED (
  SELECT ty.event_type,
         (COALESCE(inc.s, 0) + d.share)::HUGEINT AS pi
  FROM types ty
  LEFT JOIN (SELECT t.to_type AS event_type,
                    sum((p.pi * t.cnt) // o.out_cnt)::HUGEINT AS s
             FROM trans t
             JOIN p{r - 1} p ON p.event_type = t.from_type
             JOIN outs o ON o.from_type = t.from_type
             GROUP BY t.to_type) inc USING (event_type)
  CROSS JOIN (SELECT (COALESCE(sum(p.pi), 0) // nt.n)::HUGEINT AS share
              FROM nt LEFT JOIN p{r - 1} p
                ON p.event_type NOT IN (SELECT from_type FROM outs)
              GROUP BY nt.n) d)""")
    return (",".join(body) + f"""
SELECT event_type, (pi // 1000)::BIGINT AS pi_ppb
FROM p{rounds} ORDER BY event_type
""")


CLOSENESS_SEED_MOD = 40   # landmark sources (subset of the % 5 vertices)
CLOSENESS_ITERS = 4


def graph_closeness_parts(sf_dir):
    """Harmonic closeness centrality of the sampled part co-purchase
    graph, estimated from k landmark sources (Eppstein-Wang style:
    undirected distances from a sampled seed set stand in for the full
    all-pairs BFS, which is O(V·E) and off the table at web scale).
    Per-source round-limited BFS via graph.multi_source_distances (one
    bucketed frontier⋈adjacency join + one bucketed (src,entity) min
    per round), then one bucketed per-entity fold: n_reached = #
    landmarks within 4 hops, harmonic_micro = sum floor(1e6/dist) —
    all-integer, so the unrolled-CTE SQL replay is value-identical."""
    from ..functions.graph import multi_source_distances
    from ..functions.relational import hash_bucket_aggregate

    n = _nrows(sf_dir, "lineitem") // LP_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, LP_VERTEX_MOD)

    def unit_w(t: pa.Table) -> pa.Table:
        return t.append_column(
            "w", pa.array(np.ones(t.num_rows, np.int64)))

    seeds = _read(sf_dir, "part", ["p_partkey"]).map_batches(
        lambda t: t.filter(pa.array(
            t.column("p_partkey").to_numpy(zero_copy_only=False)
            % CLOSENESS_SEED_MOD == 0)),
        batch_format="pyarrow").to_pandas()["p_partkey"].tolist()
    dists = multi_source_distances(
        edges.map_batches(unit_w, batch_format="pyarrow"), seeds,
        iters=CLOSENESS_ITERS, rows_hint=4 * n)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["dist"] > 0].copy()
        g["inv_micro"] = 1_000_000 // g["dist"].to_numpy(np.int64)
        out = g.groupby("entity", as_index=False).agg(
            n_reached=("dist", "size"),
            harmonic_micro=("inv_micro", "sum"))
        return out.astype({"entity": np.int64, "n_reached": np.int64,
                           "harmonic_micro": np.int64})

    out = hash_bucket_aggregate(dists, ["entity"], fold,
                                rows_hint=len(seeds) * n).to_pandas()
    return out.sort_values("entity", ignore_index=True)


def _sql_closeness() -> str:
    parts = [f"""
WITH lp AS MATERIALIZED (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE l_partkey % {LP_VERTEX_MOD} = 0),
e0 AS MATERIALIZED (
  SELECT DISTINCT x.p AS a, y.p AS b
  FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS MATERIALIZED (
  SELECT a AS u, b AS v FROM e0 UNION ALL SELECT b, a FROM e0),
d0 AS MATERIALIZED (
  SELECT p_partkey::BIGINT AS src, p_partkey::BIGINT AS entity,
         0::BIGINT AS dist
  FROM part WHERE p_partkey % {CLOSENESS_SEED_MOD} = 0)"""]
    for i in range(1, CLOSENESS_ITERS + 1):
        parts.append(f""",
d{i} AS MATERIALIZED (
  SELECT src, entity, min(dist)::BIGINT AS dist FROM (
    SELECT src, entity, dist FROM d{i - 1}
    UNION ALL
    SELECT p.src, adj.v AS entity, p.dist + 1 AS dist
    FROM adj JOIN d{i - 1} p ON adj.u = p.entity
  ) GROUP BY src, entity)""")
    parts.append(f"""
SELECT entity::BIGINT AS entity, count(*)::BIGINT AS n_reached,
       sum(1000000 // dist)::BIGINT AS harmonic_micro
FROM d{CLOSENESS_ITERS} WHERE dist > 0
GROUP BY entity ORDER BY entity""")
    return "".join(parts)


NDCG_KS = (10, 20)


def docs_bm25_ndcg(sf_dir):
    """nDCG@k ranking-quality eval of the BM25 retrieval run against a
    deterministic graded-relevance judgment (rel = # distinct query
    terms the doc contains, 0-3) — the standard IR eval an index build
    runs before shipping a ranking change. DCG terms are fixed-point
    BEFORE summing (floor((2^rel-1)/log2(p+1)*1e6+0.5)), so both the
    observed and the ideal DCG are order-independent integers and
    ndcg_micro = dcg*1e6 // idcg replays exactly in SQL. Scale shape:
    the ranking is one global sort (global_rank), relevance is one
    row-local pass, the eval folds only the top-max(k) rows to the
    driver plus constant-size per-grade counts for the ideal ranking."""
    import math

    from ..functions.relational import global_rank, shuffle_join

    terms = list(BM25_TERMS)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def rel_batch(batch: pa.Table) -> pa.Table:
        ids, rels = [], []
        id_np = batch.column("doc_id").to_numpy(zero_copy_only=False)
        for i, t in zip(id_np, batch.column("text").to_pylist()):
            s = set(t.split())
            r = sum(q in s for q in terms)
            if r:
                ids.append(int(i))
                rels.append(r)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "rel": pa.array(rels, pa.int64())})

    rel = ds.map_batches(rel_batch, batch_format="pyarrow")

    def neg(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "neg_fp": -b["score_fp"].to_numpy(np.int64)})

    ranked = global_rank(
        _bm25_scores(sf_dir).map_batches(neg, batch_format="pandas"),
        ["neg_fp", "doc_id"], out_col="p")

    kmax = max(NDCG_KS)
    top = shuffle_join(
        ranked.map_batches(
            lambda b: b[b["p"] <= kmax][["doc_id", "p"]],
            batch_format="pandas"),
        rel, "doc_id", "doc_id", ["p"], ["rel"],
        rows_hint=_nrows(sf_dir, "documents")).to_pandas()

    def grade_counts(b: pd.DataFrame) -> pd.DataFrame:
        out = b.groupby("rel", as_index=False).agg(
            cnt=("rel", "size"))
        return out.astype({"rel": np.int64, "cnt": np.int64})

    gc = (rel.map_batches(grade_counts, batch_format="pandas")
          .to_pandas().groupby("rel")["cnt"].sum())
    ideal_rels = []
    for g in sorted(gc.index, reverse=True):
        ideal_rels.extend([int(g)] * int(gc[g]))
        if len(ideal_rels) >= kmax:
            break

    def term_fp(p: int, r: int) -> int:
        return int(math.floor((2.0 ** r - 1.0) / math.log2(p + 1.0)
                              * 1_000_000 + 0.5))

    rows = []
    for k in NDCG_KS:
        dcg = sum(term_fp(int(r.p), int(r.rel))
                  for r in top.itertuples(index=False) if r.p <= k)
        idcg = sum(term_fp(p, r)
                   for p, r in enumerate(ideal_rels[:k], start=1))
        rows.append({"k": np.int64(k), "dcg_fp": np.int64(dcg),
                     "idcg_fp": np.int64(idcg),
                     "ndcg_micro": np.int64(
                         dcg * 1_000_000 // max(idcg, 1))})
    return pd.DataFrame(rows)


SQL_DOCS_BM25_NDCG = rf"""
WITH toks AS (
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS toks
  FROM documents),
dl AS (SELECT doc_id, length(toks)::BIGINT AS dl FROM toks),
stats AS (SELECT count(*)::DOUBLE AS n, (sum(dl)::DOUBLE / count(*)) AS avgdl
          FROM dl),
tf AS (SELECT doc_id, token, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(toks) AS token FROM toks)
       WHERE token IN ('merge', 'sort', 'hash') GROUP BY doc_id, token),
df AS (SELECT token, count(*)::DOUBLE AS df FROM tf GROUP BY token),
sc AS (SELECT tf.doc_id,
         sum(CAST(floor(
           ln((n - df + 0.5::DOUBLE) / (df + 0.5::DOUBLE) + 1.0::DOUBLE)
           * (tf * ({BM25_K1}::DOUBLE + 1.0::DOUBLE)
              / (tf + {BM25_K1}::DOUBLE
                      * (1.0::DOUBLE - {BM25_B}::DOUBLE
                         + {BM25_B}::DOUBLE * dl.dl / avgdl)))
           * 1000000 + 0.5::DOUBLE) AS BIGINT))::BIGINT AS score_fp
       FROM tf JOIN df USING (token) JOIN dl USING (doc_id), stats
       GROUP BY tf.doc_id),
rel AS (SELECT doc_id, count(DISTINCT token)::BIGINT AS rel
        FROM tf GROUP BY doc_id),
ranked AS (SELECT doc_id,
                  row_number() OVER (ORDER BY score_fp DESC, doc_id) AS p
           FROM sc),
terms AS (SELECT p, CAST(floor((pow(2.0::DOUBLE, rel) - 1.0::DOUBLE)
                               / log2((p + 1)::DOUBLE)
                               * 1000000 + 0.5::DOUBLE) AS BIGINT)
                 AS term_fp
          FROM ranked JOIN rel USING (doc_id)),
ideal AS (SELECT row_number() OVER (ORDER BY rel DESC, doc_id) AS p, rel
          FROM rel),
iterms AS (SELECT p, CAST(floor((pow(2.0::DOUBLE, rel) - 1.0::DOUBLE)
                                / log2((p + 1)::DOUBLE)
                                * 1000000 + 0.5::DOUBLE) AS BIGINT)
                  AS term_fp
           FROM ideal),
ks AS (SELECT unnest([{", ".join(str(k) for k in NDCG_KS)}]) AS k)
SELECT k::BIGINT AS k,
       COALESCE((SELECT sum(term_fp) FROM terms WHERE p <= ks.k),
                0)::BIGINT AS dcg_fp,
       COALESCE((SELECT sum(term_fp) FROM iterms WHERE p <= ks.k),
                0)::BIGINT AS idcg_fp,
       (COALESCE((SELECT sum(term_fp) FROM terms WHERE p <= ks.k), 0)
        * 1000000
        // greatest(COALESCE((SELECT sum(term_fp) FROM iterms
                              WHERE p <= ks.k), 0), 1))::BIGINT
           AS ndcg_micro
FROM ks ORDER BY k
"""


def docs_kneser_ney(sf_dir):
    """Per-doc log-likelihood under the corpus's own interpolated
    Kneser-Ney bigram LM — KenLM's smoothing, the quality signal CCNet
    actually ships (vs docs_bigram_logprob's add-one baseline). The
    whole probability chain is integer nano fixed-point (see
    functions/textstats.py::kneser_ney_logprob), so the SQL replay is
    value-identical: one bigram counting shuffle, a right-keyed
    continuation-count fold + bucket join, a left-bucketed weight fold,
    streaming scoring."""
    from ..functions.textstats import kneser_ney_logprob

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return kneser_ney_logprob(ds,
                              rows_hint=16 * _nrows(sf_dir, "documents"))


SQL_DOCS_KNESER_NEY = r"""
WITH t AS (SELECT doc_id,
  CASE WHEN trim(text) = '' THEN []::VARCHAR[]
       ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
bg AS (SELECT doc_id, unnest(list_transform(range(1, length(toks)),
         i -> toks[i] || ' ' || toks[i+1])) AS bigram FROM t),
cnt AS (SELECT bigram, count(*)::BIGINT AS c FROM bg GROUP BY bigram),
ctx AS (SELECT split_part(bigram, ' ', 1) AS l, sum(c)::BIGINT AS c1,
               count(*)::BIGINT AS n1p
        FROM cnt GROUP BY 1),
rc AS (SELECT split_part(bigram, ' ', 2) AS r, count(*)::BIGINT AS ncont
       FROM cnt GROUP BY 1),
nt AS (SELECT count(*)::BIGINT AS n_types FROM cnt),
fp AS (SELECT bigram,
         CAST(floor(ln((
           (greatest(c * 1000000000 - 750000000, 0) // ctx.c1)
           + ((750000000 * ctx.n1p // ctx.c1)
              * (rc.ncont * 1000000000 // nt.n_types) // 1000000000)
         )::DOUBLE / 1000000000) * 1000000 + 0.5) AS BIGINT) AS fp
       FROM cnt
       JOIN ctx ON split_part(cnt.bigram, ' ', 1) = ctx.l
       JOIN rc ON split_part(cnt.bigram, ' ', 2) = rc.r, nt),
per AS (SELECT bg.doc_id, count(*)::BIGINT AS n_bigrams,
               sum(fp.fp)::BIGINT AS kn_fp
        FROM bg JOIN fp USING (bigram) GROUP BY bg.doc_id)
SELECT d.doc_id, coalesce(per.n_bigrams, 0)::BIGINT AS n_bigrams,
       coalesce(per.kn_fp, 0)::BIGINT AS kn_fp
FROM documents d LEFT JOIN per USING (doc_id)
"""


def events_weekday_seasonality(sf_dir):
    """Weekday seasonal profile of event volume: per day-of-week, the
    number of distinct active days, total events, and the seasonal
    index (that weekday's mean daily volume over the overall mean, in
    micro units) — the additive-seasonality prior a traffic forecaster
    fits before Holt-Winters. Day and weekday are pure integer epoch
    math ((epoch_days + 3) % 7, 0 = Monday) so no engine/SQL calendar
    disagreement is possible; the index is one exact integer expression
    (sum_dow * n_days_total * 1e6) // (n_days_dow * total). Scale
    shape: map-side per-day partials, one day-keyed bucketed sum (the
    day table is tiny), then a 7-row driver fold."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["ts"])

    def day_partial(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        day = us // 86_400_000_000
        u, c = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(u, pa.int64()),
                         "cnt": pa.array(c.astype(np.int64))})

    def day_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("day", as_index=False)["cnt"].sum()
        return out.astype({"day": np.int64, "cnt": np.int64})

    daily = hash_bucket_aggregate(
        ds.map_batches(day_partial, batch_format="pyarrow"),
        ["day"], day_bucket,
        rows_hint=_nrows(sf_dir, "events")).to_pandas()
    daily["dow"] = (daily["day"] + 3) % 7
    total = int(daily["cnt"].sum())
    n_days_total = len(daily)
    g = daily.groupby("dow").agg(n_days=("day", "size"),
                                 n_events=("cnt", "sum"))
    rows = []
    for dow in sorted(g.index):
        nd, ne = int(g.loc[dow, "n_days"]), int(g.loc[dow, "n_events"])
        rows.append({
            "dow": np.int64(dow), "n_days": np.int64(nd),
            "n_events": np.int64(ne),
            "index_micro": np.int64(
                ne * n_days_total * 1_000_000 // (nd * total))})
    return pd.DataFrame(rows)


SQL_EVENTS_WEEKDAY_SEASONALITY = """
WITH d AS (SELECT epoch_us(ts) // 86400000000 AS day,
                  count(*)::BIGINT AS cnt
           FROM events GROUP BY 1),
tot AS (SELECT sum(cnt)::BIGINT AS total, count(*)::BIGINT AS nd_total
        FROM d)
SELECT ((day + 3) % 7)::BIGINT AS dow, count(*)::BIGINT AS n_days,
       sum(cnt)::BIGINT AS n_events,
       (sum(cnt) * nd_total * 1000000
        // (count(*) * total))::BIGINT AS index_micro
FROM d, tot GROUP BY dow, nd_total, total ORDER BY dow
"""


#: decision-stump candidate features over lineitem
GINI_FEATURES = ("quantity", "discount_cents")


def lineitem_gini_stump(sf_dir):
    """Exact distributed decision-stump training: for each candidate
    feature (integer quantity, discount in cents) find the threshold t
    minimizing the weighted Gini impurity of the split x <= t against
    the label l_returnflag = 'R' — CART's split search expressed as a
    data pipeline. The corpus reduces map-side to (feature, value,
    n, pos) counts (<= ~60 rows per feature); prefix sums + the Gini
    fold run on the driver in exact arbitrary-precision integers
    (g = 1e6 - (p^2 + (n-p)^2) * 1e6 // n^2, weighted = (n_l*g_l +
    n_r*g_r) // n), so the SQL replay (HUGEINT window prefix sums)
    is value-identical. Ties break toward the smaller threshold."""
    ds = _read(sf_dir, "lineitem",
               ["l_quantity", "l_discount", "l_returnflag"],
               rows_per_block=32768)

    def partial(t: pa.Table) -> pa.Table:
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        lab = np.asarray(
            [x == "R" for x in t.column("l_returnflag").to_pylist()],
            np.int64)
        feats = {"quantity": np.floor(qty + 0.5).astype(np.int64),
                 "discount_cents":
                     np.floor(disc * 100 + 0.5).astype(np.int64)}
        fs, vs, ns, ps = [], [], [], []
        for name, v in feats.items():
            u = np.unique(v)
            for val in u:
                m = v == val
                fs.append(name)
                vs.append(int(val))
                ns.append(int(m.sum()))
                ps.append(int(lab[m].sum()))
        return pa.table({"feature": pa.array(fs, pa.string()),
                         "value": pa.array(vs, pa.int64()),
                         "n": pa.array(ns, pa.int64()),
                         "pos": pa.array(ps, pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
           .groupby(["feature", "value"], as_index=False)[["n", "pos"]]
           .sum())

    def gini(n: int, p: int) -> int:
        if n == 0:
            return 0
        return 1_000_000 - (p * p + (n - p) * (n - p)) * 1_000_000 \
            // (n * n)

    rows = []
    for feat in GINI_FEATURES:
        f = agg[agg["feature"] == feat].sort_values("value")
        n_tot, p_tot = int(f["n"].sum()), int(f["pos"].sum())
        best = None
        nl = pl = 0
        for r in f.itertuples(index=False):
            nl += int(r.n)
            pl += int(r.pos)
            if nl == n_tot:      # degenerate split: nothing on the right
                break
            w = (nl * gini(nl, pl)
                 + (n_tot - nl) * gini(n_tot - nl, p_tot - pl)) // n_tot
            if best is None or w < best[1]:
                best = (int(r.value), w, nl, pl)
        rows.append({"feature": feat,
                     "threshold": np.int64(best[0]),
                     "gini_micro": np.int64(best[1]),
                     "n_left": np.int64(best[2]),
                     "pos_left": np.int64(best[3])})
    return pd.DataFrame(rows).sort_values("feature", ignore_index=True)


SQL_LINEITEM_GINI_STUMP = """
WITH base AS (
  SELECT CAST(floor(l_quantity + 0.5) AS BIGINT) AS quantity,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS discount_cents,
         (l_returnflag = 'R')::BIGINT AS pos
  FROM lineitem),
long AS (
  SELECT 'quantity' AS feature, quantity AS value, pos FROM base
  UNION ALL
  SELECT 'discount_cents', discount_cents, pos FROM base),
cnt AS (SELECT feature, value, count(*)::HUGEINT AS n,
               sum(pos)::HUGEINT AS p
        FROM long GROUP BY 1, 2),
cum AS (SELECT feature, value,
               sum(n) OVER w AS nl, sum(p) OVER w AS pl,
               sum(n) OVER (PARTITION BY feature) AS nt,
               sum(p) OVER (PARTITION BY feature) AS pt
        FROM cnt
        WINDOW w AS (PARTITION BY feature ORDER BY value
                     ROWS UNBOUNDED PRECEDING)),
scored AS (
  SELECT feature, value AS threshold, nl, pl,
         ((nl * (1000000 - (pl*pl + (nl-pl)*(nl-pl)) * 1000000
                           // (nl*nl))
           + (nt-nl) * (CASE WHEN nt = nl THEN 0 ELSE
               1000000 - ((pt-pl)*(pt-pl)
                          + ((nt-nl)-(pt-pl))*((nt-nl)-(pt-pl)))
                         * 1000000 // ((nt-nl)*(nt-nl)) END))
          // nt) AS w
  FROM cum WHERE nl < nt),
best AS (SELECT feature, threshold, w, nl, pl,
                row_number() OVER (PARTITION BY feature
                                   ORDER BY w, threshold) AS rn
         FROM scored)
SELECT feature, threshold::BIGINT AS threshold, w::BIGINT AS gini_micro,
       nl::BIGINT AS n_left, pl::BIGINT AS pos_left
FROM best WHERE rn = 1 ORDER BY feature
"""


def embed_mutual_knn(sf_dir):
    """Reciprocal-nearest-neighbor pairs: (a, b) kept iff b ∈ kNN(a)
    AND a ∈ kNN(b) — the mutual-kNN filter entity resolution and
    semantic clustering seed on, far higher precision than raw kNN
    edges. One bucketed fold over the directed kNN edges keyed by the
    unordered pair (both directions co-locate; size-2 groups survive).
    Cosine is symmetric on the engine's 1e-6 rounding, so either
    direction's value reports identically."""
    from ..functions.relational import hash_bucket_aggregate
    from ..functions.similarity import knn_graph

    edges = knn_graph(_read_embeddings(sf_dir), k=KNN_GRAPH_K)

    def key_batch(t: pa.Table) -> pa.Table:
        a = t.column("vec_id").to_numpy(zero_copy_only=False)
        b = t.column("neighbor_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "lo": pa.array(np.minimum(a, b), pa.int64()),
            "hi": pa.array(np.maximum(a, b), pa.int64()),
            "cosine": t.column("cosine")})

    def mutual_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["lo", "hi"], as_index=False).agg(
            n=("cosine", "size"), cosine=("cosine", "min"))
        out = out[out["n"] == 2]
        return out[["lo", "hi", "cosine"]].astype(
            {"lo": np.int64, "hi": np.int64})

    out = hash_bucket_aggregate(
        edges.map_batches(key_batch, batch_format="pyarrow"),
        ["lo", "hi"], mutual_bucket,
        rows_hint=KNN_GRAPH_K * _nrows(sf_dir, "documents")).to_pandas()
    return out.sort_values(["lo", "hi"], ignore_index=True)


SQL_EMBED_MUTUAL_KNN = f"""
WITH s AS (SELECT a.vec_id, b.vec_id AS neighbor_id,
                  round(list_cosine_similarity(
                      list_transform(a.embedding, x -> x::DOUBLE),
                      list_transform(b.embedding, x -> x::DOUBLE)),
                        6) AS cosine
           FROM embeddings a JOIN embeddings b
             ON a.vec_id <> b.vec_id),
r AS (SELECT *, row_number() OVER (PARTITION BY vec_id
          ORDER BY cosine DESC, neighbor_id) AS rank FROM s)
SELECT r1.vec_id AS lo, r1.neighbor_id AS hi, r1.cosine
FROM r r1 JOIN r r2 ON r1.vec_id = r2.neighbor_id
                   AND r1.neighbor_id = r2.vec_id
WHERE r1.rank <= {KNN_GRAPH_K} AND r2.rank <= {KNN_GRAPH_K}
  AND r1.vec_id < r1.neighbor_id
ORDER BY lo, hi
"""


def graph_betweenness_parts(sf_dir):
    """Approximate betweenness centrality of the sampled part
    co-purchase graph from the CLOSENESS_SEED_MOD landmark sources
    (Brandes 2001 dependency accumulation, Brandes-Pich 2007 source
    sampling) — the bridge-detection signal, round-limited to 4 hops.
    Sigma counts and micro-fixed-point dependency deltas are exact
    integers with floor division at every step, so the distributed
    result, the size-gated local replay and the unrolled-CTE SQL oracle
    are value-identical — see functions/graph.py::betweenness_landmarks
    for the per-round join shape."""
    from ..functions.graph import betweenness_landmarks

    n = _nrows(sf_dir, "lineitem") // LP_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, LP_VERTEX_MOD)
    seeds = _read(sf_dir, "part", ["p_partkey"]).map_batches(
        lambda t: t.filter(pa.array(
            t.column("p_partkey").to_numpy(zero_copy_only=False)
            % CLOSENESS_SEED_MOD == 0)),
        batch_format="pyarrow").to_pandas()["p_partkey"].tolist()
    out = betweenness_landmarks(edges, seeds, iters=CLOSENESS_ITERS,
                                rows_hint=4 * n).to_pandas()
    return out.sort_values("entity", ignore_index=True)


def _sql_betweenness() -> str:
    from ..functions.graph import BETWEENNESS_SCALE

    r_max = CLOSENESS_ITERS
    parts = [f"""
WITH lp AS MATERIALIZED (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE l_partkey % {LP_VERTEX_MOD} = 0),
e0 AS MATERIALIZED (
  SELECT DISTINCT x.p AS a, y.p AS b
  FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS MATERIALIZED (
  SELECT a AS u, b AS v FROM e0 UNION ALL SELECT b, a FROM e0),
d0 AS MATERIALIZED (
  SELECT p_partkey::BIGINT AS src, p_partkey::BIGINT AS entity,
         0::BIGINT AS dist
  FROM part WHERE p_partkey % {CLOSENESS_SEED_MOD} = 0)"""]
    for i in range(1, r_max + 1):
        parts.append(f""",
d{i} AS MATERIALIZED (
  SELECT src, entity, min(dist)::BIGINT AS dist FROM (
    SELECT src, entity, dist FROM d{i - 1}
    UNION ALL
    SELECT p.src, adj.v AS entity, p.dist + 1 AS dist
    FROM adj JOIN d{i - 1} p ON adj.u = p.entity
  ) GROUP BY src, entity)""")
    parts.append(f""",
sg0 AS MATERIALIZED (
  SELECT src, entity AS v, 1::HUGEINT AS sigma FROM d0)""")
    for r in range(1, r_max + 1):
        parts.append(f""",
sg{r} AS MATERIALIZED (
  SELECT p.src, adj.v AS v, sum(p.sigma)::HUGEINT AS sigma
  FROM adj JOIN sg{r - 1} p ON adj.u = p.v
  JOIN d{r_max} d ON d.src = p.src AND d.entity = adj.v
                 AND d.dist = {r}
  GROUP BY p.src, adj.v)""")
    parts.append(f""",
dl{r_max} AS MATERIALIZED (
  SELECT src, v, sigma, 0::HUGEINT AS delta FROM sg{r_max})""")
    for l in range(r_max - 1, -1, -1):
        parts.append(f""",
dl{l} AS MATERIALIZED (
  SELECT s.src, s.v, s.sigma, COALESCE(c.delta, 0)::HUGEINT AS delta
  FROM sg{l} s LEFT JOIN (
    SELECT w.src, adj.u AS v,
           sum(su.sigma * ({BETWEENNESS_SCALE} + w.delta)
               // w.sigma)::HUGEINT AS delta
    FROM adj
    JOIN dl{l + 1} w ON adj.v = w.v
    JOIN sg{l} su ON su.src = w.src AND su.v = adj.u
    GROUP BY w.src, adj.u) c
  ON c.src = s.src AND c.v = s.v)""")
    union = " UNION ALL ".join(
        f"SELECT src, v, delta FROM dl{l}" for l in range(r_max + 1))
    parts.append(f"""
SELECT v::BIGINT AS entity, sum(delta)::BIGINT AS bc_micro
FROM ({union}) WHERE v <> src
GROUP BY v ORDER BY entity""")
    return "".join(parts)


#: acctbal binning for the Naive Bayes feature (non-negative shift /
#: width in cents: TPC-H acctbal spans [-999.99, 9999.99])
NB_BAL_SHIFT_CENTS = 100_000
NB_BAL_BIN_CENTS = 200_000


def customer_naive_bayes(sf_dir):
    """Multinomial Naive Bayes trained AND applied as one pipeline:
    predict c_mktsegment from (nation, acctbal bin) with Laplace
    smoothing, then report the resubstitution confusion matrix — the
    classic weak-classifier audit a curation stack runs to see whether
    cheap metadata predicts a label before paying for model scoring.
    Training reduces map-side to (segment, feature, value) counts (a
    few hundred rows); the log-likelihood table is 1e-6-grid fixed
    point (floor(ln(num/den)*1e6+0.5), num/den exact integers) and
    broadcasts; scoring is a stateless streaming argmax (ties break on
    segment name); the confusion fold is a tiny bucketed count. Value-
    identical to the SQL replay. Bin edges are integer cents math so
    no float-boundary drift is possible."""
    import math

    ds = _read(sf_dir, "customer",
               ["c_custkey", "c_mktsegment", "c_nationkey", "c_acctbal"])

    def featurize(t: pa.Table) -> pd.DataFrame:
        cents = np.floor(
            t.column("c_acctbal").to_numpy(zero_copy_only=False) * 100
            + 0.5).astype(np.int64)
        return pd.DataFrame({
            "seg": t.column("c_mktsegment").to_pylist(),
            "nat": t.column("c_nationkey").to_numpy(
                zero_copy_only=False).astype(np.int64),
            "bin": (cents + NB_BAL_SHIFT_CENTS) // NB_BAL_BIN_CENTS})

    def count_partial(t: pa.Table) -> pa.Table:
        df = featurize(t)
        out = df.groupby(["seg", "nat", "bin"], as_index=False).agg(
            n=("seg", "size"))
        return pa.table({
            "seg": pa.array(out["seg"], pa.string()),
            "nat": pa.array(out["nat"].astype(np.int64)),
            "bin": pa.array(out["bin"].astype(np.int64)),
            "n": pa.array(out["n"].astype(np.int64))})

    counts = (ds.map_batches(count_partial, batch_format="pyarrow")
              .to_pandas().groupby(["seg", "nat", "bin"],
                                   as_index=False)["n"].sum())
    segs = sorted(counts["seg"].unique())
    n_total = int(counts["n"].sum())
    n_seg = {s: int(counts.loc[counts["seg"] == s, "n"].sum())
             for s in segs}
    v_nat = counts["nat"].nunique()
    v_bin = counts["bin"].nunique()
    nat_cnt = counts.groupby(["seg", "nat"])["n"].sum()
    bin_cnt = counts.groupby(["seg", "bin"])["n"].sum()

    def fp(num: int, den: int) -> int:
        return int(math.floor(math.log(num / den) * 1_000_000 + 0.5))

    prior = {s: fp(n_seg[s], n_total) for s in segs}
    nat_fp = {(s, int(v)): fp(int(nat_cnt.get((s, v), 0)) + 1,
                              n_seg[s] + v_nat)
              for s in segs for v in counts["nat"].unique()}
    bin_fp = {(s, int(v)): fp(int(bin_cnt.get((s, v), 0)) + 1,
                              n_seg[s] + v_bin)
              for s in segs for v in counts["bin"].unique()}

    import ray
    ref = ray.put((segs, prior, nat_fp, bin_fp))

    def classify(t: pa.Table) -> pa.Table:
        sgs, pr, nf, bf = ray.get(ref)
        df = featurize(t)
        best_seg = []
        for seg_a, nat, bn in zip(df["seg"], df["nat"], df["bin"]):
            scored = sorted(
                ((-(pr[s] + nf[(s, int(nat))] + bf[(s, int(bn))]), s)
                 for s in sgs))
            best_seg.append(scored[0][1])
        out = (pd.DataFrame({"actual": df["seg"], "pred": best_seg})
               .groupby(["actual", "pred"], as_index=False)
               .agg(n=("pred", "size")))
        return pa.table({
            "actual": pa.array(out["actual"], pa.string()),
            "pred": pa.array(out["pred"], pa.string()),
            "n": pa.array(out["n"].astype(np.int64))})

    conf = (ds.map_batches(classify, batch_format="pyarrow")
            .to_pandas().groupby(["actual", "pred"],
                                 as_index=False)["n"].sum())
    conf["n"] = conf["n"].astype(np.int64)
    return conf.sort_values(["actual", "pred"], ignore_index=True)


SQL_CUSTOMER_NAIVE_BAYES = f"""
WITH base AS (
  SELECT c_custkey, c_mktsegment AS seg, c_nationkey::BIGINT AS nat,
         (CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)
          + {NB_BAL_SHIFT_CENTS}) // {NB_BAL_BIN_CENTS} AS bin
  FROM customer),
segs AS (SELECT seg, count(*)::BIGINT AS n_seg FROM base GROUP BY seg),
tot AS (SELECT count(*)::BIGINT AS n_total,
               count(DISTINCT nat)::BIGINT AS v_nat,
               count(DISTINCT bin)::BIGINT AS v_bin
        FROM base),
natc AS (SELECT seg, nat, count(*)::BIGINT AS n
         FROM base GROUP BY seg, nat),
binc AS (SELECT seg, bin, count(*)::BIGINT AS n
         FROM base GROUP BY seg, bin),
prior AS (SELECT seg,
    CAST(floor(ln(n_seg::DOUBLE / n_total) * 1000000 + 0.5) AS BIGINT)
        AS fp
  FROM segs, tot),
natfp AS (SELECT s.seg, v.nat,
    CAST(floor(ln((COALESCE(c.n, 0) + 1)::DOUBLE / (s.n_seg + t.v_nat))
               * 1000000 + 0.5) AS BIGINT) AS fp
  FROM segs s CROSS JOIN (SELECT DISTINCT nat FROM base) v
  CROSS JOIN tot t
  LEFT JOIN natc c ON c.seg = s.seg AND c.nat = v.nat),
binfp AS (SELECT s.seg, v.bin,
    CAST(floor(ln((COALESCE(c.n, 0) + 1)::DOUBLE / (s.n_seg + t.v_bin))
               * 1000000 + 0.5) AS BIGINT) AS fp
  FROM segs s CROSS JOIN (SELECT DISTINCT bin FROM base) v
  CROSS JOIN tot t
  LEFT JOIN binc c ON c.seg = s.seg AND c.bin = v.bin),
scored AS (SELECT b.c_custkey, b.seg AS actual, p.seg AS cand,
                  p.fp + nf.fp + bf.fp AS score
  FROM base b
  JOIN prior p ON true
  JOIN natfp nf ON nf.seg = p.seg AND nf.nat = b.nat
  JOIN binfp bf ON bf.seg = p.seg AND bf.bin = b.bin),
pred AS (SELECT c_custkey, actual, cand AS pred,
                row_number() OVER (PARTITION BY c_custkey
                                   ORDER BY score DESC, cand) AS rn
         FROM scored)
SELECT actual, pred, count(*)::BIGINT AS n
FROM pred WHERE rn = 1
GROUP BY actual, pred ORDER BY actual, pred
"""


def docs_good_turing(sf_dir):
    """Good-Turing frequency smoothing over the corpus unigram
    distribution: the count-of-counts table N_r (how many word types
    occur exactly r times) for r <= 10 plus the GT-adjusted count
    r* = (r+1)·N_{r+1}/N_r in micro units — the unseen-mass estimator
    (N_1/N) every LM smoother builds on. One token-count shuffle
    (bucketed exact), then count-of-counts reduces map-side to <= 11
    rows per block and folds on the driver; the micro ratio is a single
    exact integer expression."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for x in t.column("text").to_pylist():
            c.update(x.split())
        toks = list(c)
        return pa.table({"token": pa.array(toks, pa.string()),
                         "cnt": pa.array([c[w] for w in toks],
                                         pa.int64())})

    def freq_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("token", as_index=False)["cnt"].sum()
        cc = out.groupby("cnt", as_index=False).agg(n_types=("cnt",
                                                             "size"))
        return cc.astype({"cnt": np.int64, "n_types": np.int64})

    cc = (hash_bucket_aggregate(
        ds.map_batches(tok_partial, batch_format="pyarrow"),
        ["token"], freq_bucket,
        rows_hint=16 * _nrows(sf_dir, "documents"))
        .to_pandas().groupby("cnt", as_index=False)["n_types"].sum())
    nr = dict(zip((int(x) for x in cc["cnt"]),
                  (int(x) for x in cc["n_types"])))
    rows = []
    for r in range(1, 11):
        n_r, n_r1 = nr.get(r, 0), nr.get(r + 1, 0)
        rows.append({
            "r": np.int64(r), "n_types": np.int64(n_r),
            "r_star_micro": np.int64(
                (r + 1) * n_r1 * 1_000_000 // n_r if n_r else 0)})
    return pd.DataFrame(rows)


SQL_DOCS_GOOD_TURING = r"""
WITH tok AS (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
c AS (SELECT token, count(*)::BIGINT AS cnt FROM tok
      WHERE token <> '' GROUP BY token),
cc AS (SELECT cnt AS r, count(*)::BIGINT AS n_types FROM c GROUP BY cnt),
rs AS (SELECT unnest(range(1, 11)) AS r)
SELECT rs.r::BIGINT AS r, COALESCE(a.n_types, 0)::BIGINT AS n_types,
       CASE WHEN COALESCE(a.n_types, 0) = 0 THEN 0
            ELSE (rs.r + 1) * COALESCE(b.n_types, 0) * 1000000
                 // a.n_types END::BIGINT AS r_star_micro
FROM rs LEFT JOIN cc a ON a.r = rs.r
        LEFT JOIN cc b ON b.r = rs.r + 1
ORDER BY rs.r
"""


def lineitem_welch_ttest(sf_dir):
    """Welch's unequal-variance t-test comparing l_extendedprice
    between returned (l_returnflag = 'R') and other line items — the
    two-sample mean-shift check that doesn't assume equal variances
    (vs the rank-based Mann-Whitney already in the suite). Exact
    integer moments (n, sum of cents, sum of squared cents) reduce
    map-side; t and the Welch-Satterthwaite degrees of freedom are a
    fixed float op chain over those integers, rounded to 6 dp exactly
    as the SQL replay computes them."""
    import math

    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "lineitem",
               ["l_extendedprice", "l_returnflag"], rows_per_block=32768)

    def moments(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100 + 0.5).astype(np.int64)
        grp = np.asarray(
            [x == "R" for x in t.column("l_returnflag").to_pylist()])
        rows = {}
        for g in (0, 1):
            m = grp == bool(g)
            c = cents[m]
            # object math: an all-max-price block's squared-cents sum
            # sits within ~1.1x of int64 wrap — keep the partial exact
            co = c.astype(object)
            rows[g] = (int(m.sum()), int(c.sum()), int((co * co).sum()))
        return pa.table({
            "grp": pa.array([0, 1], pa.int64()),
            "n": pa.array([rows[0][0], rows[1][0]], pa.int64()),
            "s1": pa.array([rows[0][1], rows[1][1]], pa.int64()),
            "s2": pa.array([rows[0][2], rows[1][2]], pa.int64())})

    parts = ds.map_batches(moments, batch_format="pyarrow").to_pandas()
    stats = {}
    for g in (0, 1):
        rows_g = parts[parts["grp"] == g]
        # Python-int fold: the squared-cents total exceeds int64 at
        # corpus scale (pandas sum would wrap silently)
        n = sum(int(x) for x in rows_g["n"])
        s1 = float(sum(int(x) for x in rows_g["s1"]))
        s2 = float(sum(int(x) for x in rows_g["s2"]))
        # mirror the SQL's DOUBLE-cast op order exactly
        mean = s1 / n
        var = (s2 - s1 * s1 / n) / (n - 1)
        stats[g] = (n, mean, var)
    n0, m0, v0 = stats[0]
    n1, m1, v1 = stats[1]
    a, b = v1 / n1, v0 / n0
    se2 = a + b
    t_stat = (m1 - m0) / math.sqrt(se2)
    dof = se2 * se2 / (a * a / (n1 - 1) + b * b / (n0 - 1))
    return pd.DataFrame([{
        "n_returned": np.int64(n1), "n_other": np.int64(n0),
        "t_stat": float(sql_round(np.asarray([t_stat]), 6)[0]),
        "welch_dof": float(sql_round(np.asarray([dof]), 6)[0])}])


SQL_LINEITEM_WELCH_TTEST = """
WITH m AS (
  SELECT (l_returnflag = 'R')::BIGINT AS grp,
         count(*)::BIGINT AS n,
         sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))::BIGINT
             AS s1,
         sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
             * CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
             ::HUGEINT AS s2
  FROM lineitem GROUP BY 1),
s AS (SELECT grp, n, s1::DOUBLE / n AS mean,
             (s2::DOUBLE - s1::DOUBLE * s1 / n) / (n - 1) AS var
      FROM m),
w AS (SELECT r.n AS n1, o.n AS n0,
             r.var / r.n + o.var / o.n AS se2,
             r.mean - o.mean AS md,
             r.var / r.n AS a, o.var / o.n AS b,
             r.n - 1 AS dr, o.n - 1 AS dor
      FROM (SELECT * FROM s WHERE grp = 1) r,
           (SELECT * FROM s WHERE grp = 0) o)
SELECT n1 AS n_returned, n0 AS n_other,
       round(md / sqrt(se2), 6) AS t_stat,
       round(se2 * se2 / (a * a / dr + b * b / dor), 6) AS welch_dof
FROM w
"""


#: burstiness report: min corpus frequency and result size
BURST_MIN_CNT = 50
BURST_TOPK = 20


def docs_burstiness(sf_dir):
    """Token burstiness (Church & Gale 1995): variance-to-mean ratio of
    per-document counts — content words clump ('bursty'), function
    words spread evenly, so VMR separates topical vocabulary from glue
    and flags boilerplate injection. Per-block (token, doc_freq, sum c,
    sum c^2) partials fold through one token-bucketed aggregate;
    VMR_micro = 1e6·(N·s2 − s1²) // (N·s1) is exact arbitrary-precision
    integer arithmetic over those moments (zero-count docs contribute
    nothing to either sum, so the population variance over all N docs
    falls out of the same partials). Top-20 by (VMR desc, token) among
    tokens with corpus count >= 50."""
    from collections import Counter

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["text"])
    n_docs = _nrows(sf_dir, "documents")

    def tok_partial(t: pa.Table) -> pa.Table:
        s1: Counter = Counter()
        s2: Counter = Counter()
        df_: Counter = Counter()
        for x in t.column("text").to_pylist():
            c = Counter(x.split())
            for w, k in c.items():
                s1[w] += k
                s2[w] += k * k
                df_[w] += 1
        toks = list(s1)
        return pa.table({
            "token": pa.array(toks, pa.string()),
            "s1": pa.array([s1[w] for w in toks], pa.int64()),
            "s2": pa.array([s2[w] for w in toks], pa.int64()),
            "df": pa.array([df_[w] for w in toks], pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("token", as_index=False)[["s1", "s2", "df"]] \
            .sum()
        out = out[out["s1"] >= BURST_MIN_CNT]
        burst = [int(1_000_000 * (n_docs * int(b) - int(a) * int(a))
                     // (n_docs * int(a)))
                 for a, b in zip(out["s1"], out["s2"])]
        out = pd.DataFrame({
            "token": out["token"],
            "total_cnt": out["s1"].astype(np.int64),
            "doc_freq": out["df"].astype(np.int64),
            "burst_micro": pd.Series(burst, dtype="int64",
                                     index=out.index)})
        # per-bucket top-k prune; exact because buckets partition tokens
        return out.sort_values(["burst_micro", "token"],
                               ascending=[False, True]) \
            .head(BURST_TOPK)

    parts = hash_bucket_aggregate(
        ds.map_batches(tok_partial, batch_format="pyarrow"),
        ["token"], fold,
        rows_hint=16 * n_docs).to_pandas()
    return (parts.sort_values(["burst_micro", "token"],
                              ascending=[False, True])
            .head(BURST_TOPK).reset_index(drop=True))


SQL_DOCS_BURSTINESS = rf"""
WITH t AS (SELECT doc_id,
  CASE WHEN trim(text) = '' THEN []::VARCHAR[]
       ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
c AS (SELECT doc_id, unnest(toks) AS token FROM t),
pc AS (SELECT token, doc_id, count(*)::BIGINT AS k
       FROM c GROUP BY token, doc_id),
m AS (SELECT token, sum(k)::HUGEINT AS s1,
             sum(k * k)::HUGEINT AS s2,
             count(*)::BIGINT AS doc_freq
      FROM pc GROUP BY token),
n AS (SELECT count(*)::HUGEINT AS n_docs FROM documents)
SELECT token, s1::BIGINT AS total_cnt, doc_freq,
       (1000000 * (n_docs * s2 - s1 * s1)
        // (n_docs * s1))::BIGINT AS burst_micro
FROM m, n WHERE s1 >= {BURST_MIN_CNT}
ORDER BY burst_micro DESC, token LIMIT {BURST_TOPK}
"""


#: Allen census: max gap (days) for the 'before'/'meets' classes
ALLEN_GAP_DAYS = 30


def orders_allen_relations(sf_dir):
    """Allen interval-algebra census over same-customer order
    fulfillment windows (window = order date + priority-dependent
    duration, the `orders_concurrent_pairs` convention): each
    canonically-ordered pair within a 30-day proximity band classifies
    into one of {before, meets, overlaps, starts, finished_by,
    contains, equals} — the temporal-relation profile an event-KG
    build reports before asserting interval edges. Customer-bucketed
    vectorized pair expansion (baskets are tiny; the band bounds the
    'before' class so the census never goes quadratic in history
    length), identical CASE cascade on both sides, integer epoch-day
    arithmetic throughout."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate",
                "o_orderpriority"])

    def to_days(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["o_orderdate"].to_numpy().astype("datetime64[us]")
               .astype(np.int64) // 86_400_000_000)
        dur = 10 + 7 * df["o_orderpriority"].str[0].astype(np.int64)
        return pd.DataFrame({"cust": df["o_custkey"].astype(np.int64),
                             "key": df["o_orderkey"].astype(np.int64),
                             "s": day, "e": day + dur.to_numpy()})

    def census(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="cust", suffixes=("_a", "_b"))
        lex = ((m["s_a"] < m["s_b"])
               | ((m["s_a"] == m["s_b"]) & (m["e_a"] < m["e_b"]))
               | ((m["s_a"] == m["s_b"]) & (m["e_a"] == m["e_b"])
                  & (m["key_a"] < m["key_b"])))
        m = m[lex & (m["s_b"] <= m["e_a"] + ALLEN_GAP_DAYS)]
        rel = np.select(
            [(m["s_a"] == m["s_b"]) & (m["e_a"] == m["e_b"]),
             m["s_a"] == m["s_b"],
             m["e_a"] < m["s_b"],
             m["e_a"] == m["s_b"],
             m["e_a"] == m["e_b"],
             m["e_b"] < m["e_a"]],
            ["equals", "starts", "before", "meets", "finished_by",
             "contains"],
            default="overlaps")
        out = (pd.DataFrame({"relation": rel})
               .groupby("relation", as_index=False)
               .agg(n=("relation", "size")))
        return out.astype({"n": np.int64})

    parts = hash_bucket_aggregate(
        ds.map_batches(to_days, batch_format="pandas"),
        ["cust"], census,
        rows_hint=_nrows(sf_dir, "orders")).to_pandas()
    out = parts.groupby("relation", as_index=False)["n"].sum()
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("relation", ignore_index=True)


SQL_ORDERS_ALLEN_RELATIONS = f"""
WITH iv AS (
  SELECT o_custkey AS cust, o_orderkey AS okey,
         epoch_us(o_orderdate) // 86400000000 AS s,
         epoch_us(o_orderdate) // 86400000000
           + 10 + 7 * substr(o_orderpriority, 1, 1)::BIGINT AS e
  FROM orders),
pairs AS (
  SELECT a.s AS s_a, a.e AS e_a, b.s AS s_b, b.e AS e_b
  FROM iv a JOIN iv b ON a.cust = b.cust
  WHERE (a.s < b.s OR (a.s = b.s AND a.e < b.e)
         OR (a.s = b.s AND a.e = b.e AND a.okey < b.okey))
    AND b.s <= a.e + {ALLEN_GAP_DAYS})
SELECT CASE
         WHEN s_a = s_b AND e_a = e_b THEN 'equals'
         WHEN s_a = s_b THEN 'starts'
         WHEN e_a < s_b THEN 'before'
         WHEN e_a = s_b THEN 'meets'
         WHEN e_a = e_b THEN 'finished_by'
         WHEN e_b < e_a THEN 'contains'
         ELSE 'overlaps' END AS relation,
       count(*)::BIGINT AS n
FROM pairs GROUP BY relation ORDER BY relation
"""


DIAMETER_ITERS = 6


def graph_diameter_parts(sf_dir):
    """Two-sweep diameter lower bound of the sampled part co-purchase
    graph (the standard double-BFS heuristic: BFS from a deterministic
    start — the minimum vertex id — then BFS again from the farthest
    node found): reports both sweeps' eccentricities and the peripheral
    pair, round-limited to 6 hops. Each sweep is one single-source run
    of graph.multi_source_distances; argmax ties break toward the
    smaller node id on both engines."""
    from ..functions.graph import multi_source_distances

    n = _nrows(sf_dir, "lineitem") // LP_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, LP_VERTEX_MOD).materialize()

    def unit_w(t: pa.Table) -> pa.Table:
        return t.append_column(
            "w", pa.array(np.ones(t.num_rows, np.int64)))

    from ray.data.aggregate import Min

    wedges = edges.map_batches(unit_w, batch_format="pyarrow")
    src0 = int(edges.aggregate(Min("a"))["min(a)"])

    def farthest(dists) -> tuple[int, int]:
        df = dists.to_pandas()
        df = df.sort_values(["dist", "entity"],
                            ascending=[False, True])
        top = df.iloc[0]
        return int(top["entity"]), int(top["dist"])

    u, ecc0 = farthest(multi_source_distances(
        wedges, [src0], iters=DIAMETER_ITERS, rows_hint=4 * n))
    v, ecc1 = farthest(multi_source_distances(
        wedges, [u], iters=DIAMETER_ITERS, rows_hint=4 * n))
    return pd.DataFrame([{
        "start": np.int64(src0), "sweep1_far": np.int64(u),
        "sweep1_ecc": np.int64(ecc0), "sweep2_far": np.int64(v),
        "diameter_lb": np.int64(ecc1)}])


def _sql_diameter() -> str:
    r_max = DIAMETER_ITERS

    def bfs(tag: str, seed_expr: str) -> str:
        parts = [f"""
{tag}0 AS MATERIALIZED (
  SELECT {seed_expr} AS entity, 0::BIGINT AS dist)"""]
        for i in range(1, r_max + 1):
            parts.append(f""",
{tag}{i} AS MATERIALIZED (
  SELECT entity, min(dist)::BIGINT AS dist FROM (
    SELECT entity, dist FROM {tag}{i - 1}
    UNION ALL
    SELECT adj.v AS entity, p.dist + 1 AS dist
    FROM adj JOIN {tag}{i - 1} p ON adj.u = p.entity
  ) GROUP BY entity)""")
        return "".join(parts)

    return f"""
WITH lp AS MATERIALIZED (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE l_partkey % {LP_VERTEX_MOD} = 0),
e0 AS MATERIALIZED (
  SELECT DISTINCT x.p AS a, y.p AS b
  FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS MATERIALIZED (
  SELECT a AS u, b AS v FROM e0 UNION ALL SELECT b, a FROM e0),
{bfs("f", "(SELECT min(a)::BIGINT FROM e0)")},
far1 AS (SELECT entity, dist FROM f{r_max}
         ORDER BY dist DESC, entity LIMIT 1),
{bfs("g", "(SELECT entity FROM far1)")},
far2 AS (SELECT entity, dist FROM g{r_max}
         ORDER BY dist DESC, entity LIMIT 1)
SELECT (SELECT min(a)::BIGINT FROM e0) AS start,
       far1.entity::BIGINT AS sweep1_far,
       far1.dist::BIGINT AS sweep1_ecc,
       far2.entity::BIGINT AS sweep2_far,
       far2.dist::BIGINT AS diameter_lb
FROM far1, far2
"""


LOGREG_ROUNDS = 10
LOGREG_LR_DEN = 10_000   # lr = 1e-4 on the micro-unit mean gradient


def lineitem_logreg(sf_dir):
    """Bit-deterministic distributed logistic regression: predict
    l_returnflag = 'R' from (quantity, discount_cents) by full-batch
    gradient descent in micro fixed-point — the TransE recipe applied
    to a GLM. Per row the sigmoid activation is floored ONCE to the
    1e-6 grid (floor(1e6/(1+exp(-z))), z the exact integer logit /1e6
    — libm-parity with the SQL replay), so each round's gradient is an
    order-independent integer sum (three map-side scalars per block);
    the weight update divides truncating-toward-zero exactly like
    DuckDB's `//`. 10 unrolled rounds; the final pass reports weights
    and resubstitution accuracy. Scale shape: R passes over the corpus
    emitting 3 ints per block each — the textbook distributed GD."""
    ds = _read(sf_dir, "lineitem",
               ["l_quantity", "l_discount", "l_returnflag"],
               rows_per_block=32768)
    n_rows = _nrows(sf_dir, "lineitem")

    def featurize(t: pa.Table):
        x1 = np.floor(t.column("l_quantity").to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        x2 = np.floor(t.column("l_discount").to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        y = np.asarray(
            [v == "R" for v in t.column("l_returnflag").to_pylist()],
            np.int64)
        return x1, x2, y

    def sig_fp(z_fp: np.ndarray) -> np.ndarray:
        z = z_fp.astype(np.float64) / 1_000_000.0
        with np.errstate(over="ignore"):
            return np.floor(1_000_000.0 / (1.0 + np.exp(-z))) \
                .astype(np.int64)

    def trunc_div(a: int, b: int) -> int:
        # DuckDB's integer `//` truncates toward zero
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    w = [0, 0, 0]  # bias, w1, w2 in micro units
    for _ in range(LOGREG_ROUNDS):
        b_, w1_, w2_ = w

        def grad_partial(t: pa.Table) -> pa.Table:
            x1, x2, y = featurize(t)
            z = b_ + w1_ * x1 + w2_ * x2
            r = sig_fp(z) - y * 1_000_000
            return pa.table({
                "g0": pa.array([int(r.sum())], pa.int64()),
                "g1": pa.array([int((r * x1).sum())], pa.int64()),
                "g2": pa.array([int((r * x2).sum())], pa.int64())})

        gp = (ds.map_batches(grad_partial, batch_format="pyarrow")
              .to_pandas())
        g = [sum(int(x) for x in gp[c]) for c in ("g0", "g1", "g2")]
        w = [wi - trunc_div(gi, n_rows * LOGREG_LR_DEN)
             for wi, gi in zip(w, g)]

    b_, w1_, w2_ = w

    def acc_partial(t: pa.Table) -> pa.Table:
        x1, x2, y = featurize(t)
        pred = (b_ + w1_ * x1 + w2_ * x2 > 0).astype(np.int64)
        return pa.table({
            "n_correct": pa.array([int((pred == y).sum())], pa.int64()),
            "n": pa.array([t.num_rows], pa.int64())})

    ap = ds.map_batches(acc_partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame([{
        "bias_fp": np.int64(w[0]), "w_quantity_fp": np.int64(w[1]),
        "w_discount_fp": np.int64(w[2]),
        "n_correct": np.int64(ap["n_correct"].sum()),
        "n_total": np.int64(ap["n"].sum())}])


def _sql_logreg() -> str:
    parts = [f"""
WITH base AS MATERIALIZED (
  SELECT CAST(floor(l_quantity + 0.5) AS BIGINT) AS x1,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS x2,
         (l_returnflag = 'R')::BIGINT AS y
  FROM lineitem),
nn AS (SELECT count(*)::BIGINT AS n FROM base),
w0 AS (SELECT 0::BIGINT AS b, 0::BIGINT AS w1, 0::BIGINT AS w2)"""]
    for r in range(1, LOGREG_ROUNDS + 1):
        parts.append(f""",
g{r} AS MATERIALIZED (
  SELECT sum(s - y1m)::BIGINT AS g0,
         sum((s - y1m) * x1)::BIGINT AS g1,
         sum((s - y1m) * x2)::BIGINT AS g2
  FROM (SELECT y * 1000000 AS y1m, x1, x2,
               CAST(floor(1000000 / (1 + exp(
                 -((w.b + w.w1 * x1 + w.w2 * x2)::DOUBLE / 1000000))))
                 AS BIGINT) AS s
        FROM base, w{r - 1} w)),
w{r} AS MATERIALIZED (
  SELECT (w.b - g.g0 // (nn.n * {LOGREG_LR_DEN}))::BIGINT AS b,
         (w.w1 - g.g1 // (nn.n * {LOGREG_LR_DEN}))::BIGINT AS w1,
         (w.w2 - g.g2 // (nn.n * {LOGREG_LR_DEN}))::BIGINT AS w2
  FROM w{r - 1} w, g{r} g, nn)""")
    parts.append(f"""
SELECT w.b AS bias_fp, w.w1 AS w_quantity_fp, w.w2 AS w_discount_fp,
       sum(((w.b + w.w1 * x1 + w.w2 * x2 > 0)::BIGINT = y)::BIGINT)
           ::BIGINT AS n_correct,
       count(*)::BIGINT AS n_total
FROM base, w{LOGREG_ROUNDS} w
GROUP BY w.b, w.w1, w.w2""")
    return "".join(parts)


HITTING_ROUNDS = 15
HITTING_ABSORB = "purchase"


def events_hitting_time(sf_dir):
    """Expected steps-to-purchase from each behavioral state: value
    iteration on the per-user event-type Markov chain with 'purchase'
    absorbing — h(s) = 1 + sum_t P(s,t)·h(t), h(purchase) = 0 — the
    funnel-depth scalar a growth team reads next to the stationary
    mix. Transition counts come from the same bucketed pipeline as
    `events_type_transitions`; the iteration runs on the driver over
    the constant-size matrix in exact micro fixed-point (h' = 1e6 +
    (sum cnt·h) // out, one floor per state per round, 15 rounds from
    0), replayed verbatim by the unrolled MATERIALIZED SQL rounds.
    States with no outgoing transitions report their iterate
    unchanged (0)."""
    trans = events_type_transitions(sf_dir).to_pandas()
    types = sorted(_read(sf_dir, "events", ["event_type"])
                   .unique("event_type"))
    idx = {t: i for i, t in enumerate(types)}
    n = len(types)
    cnt = np.zeros((n, n), dtype=np.int64)
    for r in trans.itertuples(index=False):
        cnt[idx[r.from_type], idx[r.to_type]] = r.cnt
    out = cnt.sum(axis=1)
    absorb = idx.get(HITTING_ABSORB)

    h = [0] * n
    for _ in range(HITTING_ROUNDS):
        nxt = list(h)
        for i in range(n):
            if i == absorb or out[i] == 0:
                nxt[i] = 0 if i == absorb else h[i]
                continue
            s = sum(int(cnt[i, j]) * h[j] for j in range(n)
                    if cnt[i, j])
            nxt[i] = 1_000_000 + s // int(out[i])
        h = nxt

    return pd.DataFrame({
        "event_type": types,
        "steps_micro": np.asarray(h, np.int64)})


def _sql_hitting(rounds: int = HITTING_ROUNDS) -> str:
    body = [f"""
WITH s AS (SELECT user_id, event_type,
                  lag(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev
           FROM events),
trans AS (SELECT prev AS from_type, event_type AS to_type,
                 count(*)::HUGEINT AS cnt
          FROM s WHERE prev IS NOT NULL GROUP BY 1, 2),
outs AS (SELECT from_type, sum(cnt)::HUGEINT AS out_cnt
         FROM trans GROUP BY 1),
types AS (SELECT DISTINCT event_type FROM events),
h0 AS (SELECT event_type, 0::HUGEINT AS h FROM types)"""]
    for r in range(1, rounds + 1):
        body.append(f"""
h{r} AS MATERIALIZED (
  SELECT ty.event_type,
         CASE WHEN ty.event_type = '{HITTING_ABSORB}' THEN 0
              WHEN o.out_cnt IS NULL THEN p.h
              ELSE 1000000 + inc.s // o.out_cnt
         END::HUGEINT AS h
  FROM types ty
  JOIN h{r - 1} p USING (event_type)
  LEFT JOIN outs o ON o.from_type = ty.event_type
  LEFT JOIN (SELECT t.from_type AS event_type,
                    sum(t.cnt * p.h)::HUGEINT AS s
             FROM trans t JOIN h{r - 1} p
               ON p.event_type = t.to_type
             GROUP BY t.from_type) inc USING (event_type))""")
    return (",".join(body) + f"""
SELECT event_type, h::BIGINT AS steps_micro
FROM h{rounds} ORDER BY event_type
""")


NEYMAN_BUDGET = 1000


def events_neyman_allocation(sf_dir):
    """Neyman optimal allocation for a stratified sample of the event
    stream: per event_type stratum, sample size n_h proportional to
    N_h·sigma_h (the allocation that minimizes the variance of the
    stratified mean for a fixed budget of 1000) — what a curation
    pipeline computes before drawing an audit sample. Integer moments
    (n, sum cents, sum cents^2) reduce map-side with a Python-int
    driver fold; sigma_h follows the exact SQL double chain; the
    allocation itself is integer largest-remainder over
    1e-6-quantized weights (floor base + top-remainder distribution,
    ties toward the lexicographically smaller type) so both engines
    pick identical integers."""
    import math

    from ..functions.sqlcompat import sql_round

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": t.column("event_type").to_pylist(),
            "cents": np.floor(t.column("value").to_numpy(
                zero_copy_only=False) * 100 + 0.5).astype(np.int64)})
        g = df.groupby("event_type")
        out = pd.DataFrame({
            "event_type": list(g.groups),
            "n": g.size().to_numpy(np.int64),
            "s1": g["cents"].sum().to_numpy(np.int64),
            "s2": g["cents"].apply(
                lambda c: int((c.to_numpy(np.int64) ** 2).sum()))
            .to_numpy(np.int64)})
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(moments, batch_format="pyarrow").to_pandas()
    types = sorted(parts["event_type"].unique())
    rows = []
    for ty in types:
        p = parts[parts["event_type"] == ty]
        n = sum(int(x) for x in p["n"])
        s1 = float(sum(int(x) for x in p["s1"]))
        s2 = float(sum(int(x) for x in p["s2"]))
        var = (s2 - s1 * s1 / n) / n     # population variance, cents^2
        sd = math.sqrt(var)
        w_fp = int(math.floor(n * sd * 1_000_000 + 0.5))
        rows.append([ty, n, sd, w_fp])
    tot = sum(r[3] for r in rows)
    base = {r[0]: NEYMAN_BUDGET * r[3] // tot for r in rows}
    rem = NEYMAN_BUDGET - sum(base.values())
    order = sorted(rows, key=lambda r: (-(NEYMAN_BUDGET * r[3] % tot),
                                        r[0]))
    extra = {r[0]: 1 if i < rem else 0 for i, r in enumerate(order)}
    return pd.DataFrame([{
        "event_type": ty,
        "n_events": np.int64(n),
        "sd_cents": float(sql_round(np.asarray([sd]), 6)[0]),
        "n_alloc": np.int64(base[ty] + extra[ty])}
        for ty, n, sd, _ in rows])


SQL_EVENTS_NEYMAN = f"""
WITH m AS (
  SELECT event_type, count(*)::BIGINT AS n,
         sum(CAST(floor(value * 100 + 0.5) AS BIGINT))::BIGINT AS s1,
         sum(CAST(floor(value * 100 + 0.5) AS BIGINT)
             * CAST(floor(value * 100 + 0.5) AS BIGINT))::HUGEINT AS s2
  FROM events GROUP BY event_type),
sdv AS (SELECT event_type, n,
               sqrt((s2::DOUBLE - s1::DOUBLE * s1 / n) / n) AS sd
        FROM m),
w AS (SELECT event_type, n, sd,
             CAST(floor(n * sd * 1000000 + 0.5) AS BIGINT) AS w_fp
      FROM sdv),
a AS (SELECT event_type, n, sd, w_fp,
             sum(w_fp) OVER () AS tot FROM w),
b AS (SELECT event_type, n, sd,
             {NEYMAN_BUDGET} * w_fp // tot AS base,
             row_number() OVER (
               ORDER BY ({NEYMAN_BUDGET} * w_fp % tot) DESC,
                        event_type) AS rk,
             sum({NEYMAN_BUDGET} * w_fp // tot) OVER () AS base_tot
      FROM a)
SELECT event_type, n AS n_events, round(sd, 6) AS sd_cents,
       (base + CASE WHEN rk <= {NEYMAN_BUDGET} - base_tot
                    THEN 1 ELSE 0 END)::BIGINT AS n_alloc
FROM b ORDER BY event_type
"""


def docs_entropy_rate(sf_dir):
    """Corpus entropy rate: the conditional entropy H(W_next | W_prev)
    of the bigram process, in nats — the single scalar that tracks how
    predictable the corpus is (drops under boilerplate/duplication,
    rises with topic diversity); the language-model-free cousin of a
    perplexity sweep. H = -(1/T)·sum over bigrams c(w1,w2)·ln(c(w1,w2)
    /c(w1·)), where T = total bigram tokens. Each bigram's term is
    rounded ONCE to the 1e-6 grid scaled by its count (integer), so
    the global sum is order-independent and SQL-exact; the per-bigram
    c(w1·) context total folds inside the left-keyed bucket — no join.
    One counting shuffle, three integer scalars out."""
    import math
    from collections import Counter

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["text"])

    def count_partial(batch: pa.Table) -> pa.Table:
        bi: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = t.split()
            bi.update(zip(toks, toks[1:]))
        keys = list(bi.keys())
        return pa.table({
            "left": pa.array([k[0] for k in keys], pa.string()),
            "right": pa.array([k[1] for k in keys], pa.string()),
            "cnt": pa.array([bi[k] for k in keys], pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["left", "right"], as_index=False)["cnt"].sum()
        ctx = g.groupby("left")["cnt"].transform("sum") \
            .to_numpy(np.int64)
        c = g["cnt"].to_numpy(np.int64)
        term = np.asarray([
            int(k) * math.floor(math.log(int(k) / int(x))
                                * 1_000_000 + 0.5)
            for k, x in zip(c, ctx)], dtype=np.int64)
        return pd.DataFrame({"t": [int(c.sum())],
                             "n_types": [len(g)],
                             "h_sum": [int(term.sum())]})

    parts = hash_bucket_aggregate(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["left"], fold,
        rows_hint=16 * _nrows(sf_dir, "documents")).to_pandas()
    t_tot = int(parts["t"].sum())
    h_sum = int(parts["h_sum"].sum())
    return pd.DataFrame([{
        "n_bigram_tokens": np.int64(t_tot),
        "n_bigram_types": np.int64(parts["n_types"].sum()),
        "entropy_rate_micro": np.int64(-h_sum // t_tot)}])


SQL_DOCS_ENTROPY_RATE = r"""
WITH t AS (SELECT doc_id,
  CASE WHEN trim(text) = '' THEN []::VARCHAR[]
       ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents),
bg AS (SELECT unnest(list_transform(range(1, length(toks)),
         i -> toks[i] || ' ' || toks[i+1])) AS bigram FROM t),
cnt AS (SELECT bigram, count(*)::BIGINT AS c FROM bg GROUP BY bigram),
ctx AS (SELECT split_part(bigram, ' ', 1) AS l, sum(c)::BIGINT AS ctx
        FROM cnt GROUP BY 1),
terms AS (SELECT c,
                 c * CAST(floor(ln(c::DOUBLE / ctx.ctx) * 1000000 + 0.5)
                          AS BIGINT) AS term
          FROM cnt JOIN ctx ON split_part(cnt.bigram, ' ', 1) = ctx.l)
SELECT sum(c)::BIGINT AS n_bigram_tokens,
       count(*)::BIGINT AS n_bigram_types,
       ((0 - sum(term)) // sum(c))::BIGINT AS entropy_rate_micro
FROM terms
"""


LORENZ_TILES = 10


def customer_lorenz_deciles(sf_dir):
    """Lorenz concentration curve of customer revenue: customers ranked
    by lifetime spend (ascending, custkey tiebreak), NTILE(10), and per
    decile the exact cent totals, the revenue share, and the cumulative
    share in micro units — the 80/20 table a marketplace reads next to
    the Gini. One bucketed per-customer cent sum, one global rank, a
    stateless NTILE formula over rank offsets (exact SQL semantics, the
    perplexity-tiers pattern), then <= 10 rows fold on the driver with
    integer shares."""
    from ray.data.aggregate import Sum

    from ..functions.relational import global_rank, hash_bucket_aggregate

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "cust": t.column("o_custkey").cast(pa.int64()),
            "cents": pa.array(np.floor(
                t.column("o_totalprice").to_numpy(zero_copy_only=False)
                * 100 + 0.5).astype(np.int64))})

    def per_cust(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("cust", as_index=False)["cents"].sum()
        return out.astype({"cust": np.int64, "cents": np.int64})

    rev = hash_bucket_aggregate(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["cust"], per_cust, rows_hint=_nrows(sf_dir, "orders"))
    n_cust = rev.count()
    ranked = global_rank(rev, ["cents", "cust"], out_col="rn")
    q, r = divmod(n_cust, LORENZ_TILES)

    def tile_partial(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["rn"].to_numpy(np.int64)
        big = r * (q + 1)
        t = np.where(rn <= big, (rn - 1) // max(q + 1, 1),
                     r + (rn - 1 - big) // max(q, 1)) + 1
        out = pd.DataFrame({"decile": t.astype(np.int64),
                            "cents": b["cents"].astype(np.int64)})
        out = out.groupby("decile", as_index=False).agg(
            n_customers=("cents", "size"), revenue_cents=("cents",
                                                          "sum"))
        return out.astype({"n_customers": np.int64,
                           "revenue_cents": np.int64})

    parts = (ranked.map_batches(tile_partial, batch_format="pandas")
             .to_pandas().groupby("decile", as_index=False)
             [["n_customers", "revenue_cents"]].sum())
    total = int(parts["revenue_cents"].sum())
    parts = parts.sort_values("decile", ignore_index=True)
    cum = parts["revenue_cents"].cumsum()
    return pd.DataFrame({
        "decile": parts["decile"].astype(np.int64),
        "n_customers": parts["n_customers"].astype(np.int64),
        "revenue_cents": parts["revenue_cents"].astype(np.int64),
        "share_micro": (parts["revenue_cents"].astype(object)
                        * 1_000_000 // total).astype(np.int64),
        "cum_share_micro": (cum.astype(object) * 1_000_000
                            // total).astype(np.int64)})


SQL_CUSTOMER_LORENZ = f"""
WITH rev AS (
  SELECT o_custkey AS cust,
         sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
             AS cents
  FROM orders GROUP BY o_custkey),
tiled AS (SELECT cents,
                 ntile({LORENZ_TILES}) OVER (ORDER BY cents, cust)
                     AS decile
          FROM rev),
d AS (SELECT decile, count(*)::BIGINT AS n_customers,
             sum(cents)::HUGEINT AS revenue_cents
      FROM tiled GROUP BY decile),
tot AS (SELECT sum(revenue_cents)::HUGEINT AS total FROM d)
SELECT decile::BIGINT AS decile, n_customers,
       revenue_cents::BIGINT AS revenue_cents,
       (revenue_cents * 1000000 // total)::BIGINT AS share_micro,
       (sum(revenue_cents) OVER (ORDER BY decile
                                 ROWS UNBOUNDED PRECEDING)
        * 1000000 // total)::BIGINT AS cum_share_micro
FROM d, tot ORDER BY decile
"""


def docs_yule_k(sf_dir):
    """Yule's characteristic K per source — the classic vocabulary-
    richness statistic (K = 10^4·(S2−S1)/S1² with S1 = token count,
    S2 = Σ c(w)² over word frequencies): low K means diverse vocabulary,
    high K means repetitive boilerplate — the lexical cousin of the
    compression-ratio filter. S1/S2/type counts are exact integers per
    (source, token) group, so the statistic is bit-stable; the single
    big product runs in Python ints / HUGEINT and only the final
    micro-scaled quotient is reported.

    Scale shape: map-side (source, token) count partials, one bucketed
    aggregate emitting three integer partials per source per bucket,
    driver folds |sources| rows."""
    from collections import Counter

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["source", "text"])

    def count_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s, t in zip(batch.column("source").to_pylist(),
                        batch.column("text").to_pylist()):
            c.update((s, w) for w in t.split())
        keys = list(c.keys())
        return pa.table({
            "source": pa.array([k[0] for k in keys], pa.string()),
            "token": pa.array([k[1] for k in keys], pa.string()),
            "cnt": pa.array([c[k] for k in keys], pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["source", "token"], as_index=False)["cnt"].sum()
        c = g["cnt"].to_numpy(np.int64)
        out = pd.DataFrame({"source": g["source"], "c": c, "c2": c * c})
        return (out.groupby("source", as_index=False)
                .agg(n_tokens=("c", "sum"), n_types=("c", "size"),
                     s2=("c2", "sum"))
                .astype({"n_tokens": np.int64, "n_types": np.int64,
                         "s2": np.int64}))

    parts = hash_bucket_aggregate(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["source", "token"], fold,
        rows_hint=64 * _nrows(sf_dir, "documents")).to_pandas()
    agg = parts.groupby("source", as_index=False)[
        ["n_tokens", "n_types", "s2"]].sum()
    s1 = agg["n_tokens"].astype(object)
    s2 = agg["s2"].astype(object)
    k = ((s2 - s1) * 10_000 * 1_000_000 // (s1 * s1)).astype(np.int64)
    return (pd.DataFrame({
        "source": agg["source"],
        "n_tokens": agg["n_tokens"].astype(np.int64),
        "n_types": agg["n_types"].astype(np.int64),
        "s2": agg["s2"].astype(np.int64),
        "yule_k_micro": k})
        .sort_values("source").reset_index(drop=True))


SQL_DOCS_YULE_K = r"""
WITH tok AS (
  SELECT source,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
cnt AS (SELECT source, token, count(*)::BIGINT AS c FROM tok
        WHERE token <> '' GROUP BY source, token),
s AS (SELECT source, sum(c)::HUGEINT AS s1, count(*)::BIGINT AS n_types,
             sum(c * c)::HUGEINT AS s2
      FROM cnt GROUP BY source)
SELECT source, s1::BIGINT AS n_tokens, n_types, s2::BIGINT AS s2,
       ((s2 - s1) * 10000 * 1000000 // (s1 * s1))::BIGINT AS yule_k_micro
FROM s ORDER BY source
"""


def customer_theil_index(sf_dir):
    """Theil T inequality index of customer lifetime revenue — the
    decomposable entropy-based companion to the Lorenz decile table:
    T = Σ (x_i/S)·ln(n·x_i/S) over per-customer cent totals x_i (0 for
    perfectly equal spend, ln(n) when one customer owns the market).
    Each customer's log factor is rounded ONCE to the 1e-6 grid and
    weighted by the exact integer x_i, so the global numerator is an
    order-independent integer sum; n·x_i and S stay below 2^53 at
    sandbox scales so the DOUBLE division inside ln is exact on both
    engines. The final quotient mirrors DuckDB's truncating `//`.

    Scale shape: one bucketed per-customer cent sum (the Lorenz
    shuffle), a scalar (n, S) fold, then a second stateless pass over
    the revenue table emitting one integer partial per block."""
    import math

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "cust": t.column("o_custkey").cast(pa.int64()),
            "cents": pa.array(np.floor(
                t.column("o_totalprice").to_numpy(zero_copy_only=False)
                * 100 + 0.5).astype(np.int64))})

    def per_cust(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("cust", as_index=False)["cents"].sum()
        return out.astype({"cust": np.int64, "cents": np.int64})

    rev = hash_bucket_aggregate(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["cust"], per_cust,
        rows_hint=_nrows(sf_dir, "orders")).materialize()
    n = rev.count()
    total = 0
    for b in rev.iter_batches(batch_format="pyarrow"):
        total += int(pc.sum(b.column("cents")).as_py())

    def term_partial(t: pa.Table, n=n, s=total) -> pa.Table:
        x = t.column("cents").to_numpy(zero_copy_only=False)
        ln_fp = np.asarray(
            [math.floor(math.log(float(int(v) * n) / float(s))
                        * 1_000_000 + 0.5) for v in x], dtype=np.int64)
        return pa.table({"num": pa.array(
            [int((x.astype(object) * ln_fp.astype(object)).sum())],
            pa.int64())})

    num = sum(r["num"] for r in
              rev.map_batches(term_partial,
                              batch_format="pyarrow").take_all())
    # DuckDB // truncates toward zero; mirror it (num can sit a hair
    # below 0 for a perfectly flat distribution after rounding)
    q = abs(num) // total
    theil = q if num >= 0 else -q
    return pd.DataFrame([{"n_customers": np.int64(n),
                          "total_cents": np.int64(total),
                          "theil_micro": np.int64(theil)}])


SQL_CUSTOMER_THEIL = """
WITH rev AS (
  SELECT o_custkey AS cust,
         sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
             AS cents
  FROM orders GROUP BY o_custkey),
s AS (SELECT count(*)::BIGINT AS n, sum(cents)::BIGINT AS total FROM rev),
terms AS (SELECT cents::HUGEINT
            * CAST(floor(ln((cents::HUGEINT * s.n)::DOUBLE
                            / s.total::DOUBLE) * 1000000 + 0.5) AS HUGEINT)
            AS num
          FROM rev, s)
SELECT s.n AS n_customers, s.total AS total_cents,
       ((SELECT sum(num) FROM terms) // s.total::HUGEINT)::BIGINT
           AS theil_micro
FROM s
"""


def orders_hhi_by_nation(sf_dir):
    """Herfindahl-Hirschman concentration of order revenue per nation:
    HHI = Σ_i (x_i/S)² over each nation's customer revenue shares — the
    antitrust-style market-concentration scalar next to the Lorenz /
    Theil inequality views (10000-µ ≈ monopoly, 1e6/n ≈ atomistic).
    Customer cent totals are exact integers; the share-square sum runs
    as Σx_i²·10^6 // S² in Python ints / HUGEINT, so the report is
    bit-stable with no float in the chain.

    Scale shape: both dimensions broadcast into the fact scan, one
    bucketed per-customer aggregate keyed on custkey (each customer
    belongs to one nation, so nation partials fold in-bucket), ≤25
    driver rows."""
    from ..functions.relational import broadcast_join, hash_bucket_aggregate

    cust = _small(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    nation = _small(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})
    dim = cust.merge(nation, on="c_nationkey")[["o_custkey", "n_name"]]

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, dim, on="o_custkey")

    def cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_name": b["n_name"],
            "cust": b["o_custkey"].astype(np.int64),
            "cents": np.floor(b["o_totalprice"].to_numpy(np.float64)
                              * 100 + 0.5).astype(np.int64)})

    def per_nation(g: pd.DataFrame) -> pd.DataFrame:
        # Σc² per nation overflows int64 once per-customer cents reach
        # ~1e8 at sf0.1 (silent numpy wrap; the SQL side is HUGEINT) —
        # accumulate in Python ints and ship the partial as hi/lo int64
        # halves (each < 2^62) across the Arrow boundary
        x = g.groupby(["n_name", "cust"], as_index=False)["cents"].sum()
        rows = []
        for nm, gg in x.groupby("n_name"):
            c = gg["cents"].to_numpy(np.int64)
            ssq = sum(int(v) * int(v) for v in c)
            rows.append((nm, len(c), int(c.sum()),
                         ssq >> 62, ssq & ((1 << 62) - 1)))
        return pd.DataFrame(rows, columns=[
            "n_name", "n_customers", "revenue_cents",
            "ssq_hi", "ssq_lo"]).astype(
                {"n_customers": np.int64, "revenue_cents": np.int64,
                 "ssq_hi": np.int64, "ssq_lo": np.int64})

    parts = hash_bucket_aggregate(
        joined.map_batches(cents, batch_format="pandas"),
        ["cust"], per_nation,
        rows_hint=_nrows(sf_dir, "orders")).to_pandas()
    # object sums: Σ over buckets of the lo halves itself passes 2^63
    for c in ("ssq_hi", "ssq_lo"):
        parts[c] = parts[c].astype(object)
    agg = parts.groupby("n_name", as_index=False)[
        ["n_customers", "revenue_cents", "ssq_hi", "ssq_lo"]].sum()
    sum_sq = agg["ssq_hi"] * (1 << 62) + agg["ssq_lo"]
    s = agg["revenue_cents"].astype(object)
    hhi = (sum_sq * 1_000_000 // (s * s)).astype(np.int64)
    return (pd.DataFrame({
        "n_name": agg["n_name"],
        "n_customers": agg["n_customers"].astype(np.int64),
        "revenue_cents": agg["revenue_cents"].astype(np.int64),
        "hhi_micro": hhi})
        .sort_values("n_name").reset_index(drop=True))


SQL_ORDERS_HHI = """
WITH rev AS (
  SELECT n.n_name, o.o_custkey,
         sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
             AS cents
  FROM orders o
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation n ON c.c_nationkey = n.n_nationkey
  GROUP BY n.n_name, o.o_custkey),
agg AS (SELECT n_name, count(*)::BIGINT AS n_customers,
               sum(cents)::HUGEINT AS s,
               sum(cents::HUGEINT * cents)::HUGEINT AS sum_sq
        FROM rev GROUP BY n_name)
SELECT n_name, n_customers, s::BIGINT AS revenue_cents,
       (sum_sq * 1000000 // (s * s))::BIGINT AS hhi_micro
FROM agg ORDER BY n_name
"""


SQUARES_TOPK = 50


def graph_squares_parts(sf_dir):
    """Per-vertex 4-cycle (square) census on the sampled part
    co-purchase graph: squares(v) = Σ_w C(cn(v, w), 2) — every square
    has exactly one diagonal through each vertex, so the count is
    exact per vertex and complements the triangle/clustering view with
    the bipartite-style cohesion triangles can't see. Top-50 vertices
    by (squares desc, entity). Runs on the deterministic partkey-mod
    vertex sample shared with link prediction / clustering (wedge
    volume is sum(deg²)); the oracle replays the filter."""
    from ..functions.graph import square_census

    n = _nrows(sf_dir, "lineitem") // AA_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, AA_VERTEX_MOD, distinct=False)
    return square_census(edges, k=SQUARES_TOPK, rows_hint=8 * n)


SQL_GRAPH_SQUARES_PARTS = f"""
WITH lp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
            WHERE l_partkey % {AA_VERTEX_MOD} = 0),
e AS (SELECT DISTINCT x.p AS a, y.p AS b
      FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS (SELECT a AS v, b AS n FROM e UNION ALL SELECT b, a FROM e),
wed AS (SELECT x.n AS a, y.n AS b, count(*)::BIGINT AS cn
        FROM adj x JOIN adj y ON x.v = y.v AND x.n < y.n
        GROUP BY x.n, y.n),
sq AS (SELECT a, b, (cn * (cn - 1) // 2)::BIGINT AS s FROM wed
       WHERE cn >= 2),
nodes AS (SELECT a AS entity, s FROM sq UNION ALL SELECT b, s FROM sq),
agg AS (SELECT entity, sum(s)::BIGINT AS squares FROM nodes
        GROUP BY entity)
SELECT entity, squares FROM agg
ORDER BY squares DESC, entity LIMIT {SQUARES_TOPK}
"""


def events_seasonal_decompose(sf_dir):
    """Classical additive seasonal decomposition of the daily event
    volume: trend = centered 7-row moving average over the observed
    day sequence, seasonal = per-weekday mean of the detrended series,
    residual = value − trend − seasonal — the moving-average
    decomposition behind every ops dashboard, next to the weekday
    seasonal index and the Holt smoother. All arithmetic is exact
    integer micro-units; per-weekday means mirror DuckDB's truncating
    `//` (detrended sums can be negative). Days are integer epoch-days
    (weekday = (day + 3) % 7, Monday = 0 — no date functions, so both
    engines agree by construction); edge rows without a full 7-row
    window are dropped, matching the SQL count(*) OVER guard.

    Scale shape: map-side (day, n) partials, one calendar-bounded
    driver fold (the cusum/Holt contract)."""
    ds = _read(sf_dir, "events", ["ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        day = us // 86_400_000_000
        out = pd.DataFrame({"day": day}).groupby(
            "day", as_index=False).size().rename(columns={"size": "n"})
        return out.astype({"day": np.int64, "n": np.int64})

    daily = (ds.map_batches(partial, batch_format="pandas").to_pandas()
             .groupby("day", as_index=False)["n"].sum()
             .sort_values("day").reset_index(drop=True))

    def tdiv(a: int, b: int) -> int:
        q = abs(a) // b
        return q if a >= 0 else -q

    n = daily["n"].astype(np.int64).to_numpy()
    days = daily["day"].to_numpy(np.int64)
    if len(n) < 7:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in ("day", "weekday", "n_events",
                                       "trend_micro", "seasonal_micro",
                                       "residual_micro")})
    win = np.convolve(n, np.ones(7, dtype=np.int64), "valid")  # len-6
    trend = (win * 1_000_000) // 7
    inner = slice(3, len(n) - 3)
    detr = n[inner] * 1_000_000 - trend
    wd = (days[inner] + 3) % 7
    seas_map = {int(w): tdiv(int(detr[wd == w].sum()),
                             int((wd == w).sum()))
                for w in np.unique(wd)}
    seas = np.asarray([seas_map[int(w)] for w in wd], dtype=np.int64)
    return pd.DataFrame({
        "day": days[inner], "weekday": wd.astype(np.int64),
        "n_events": n[inner],
        "trend_micro": trend.astype(np.int64),
        "seasonal_micro": seas,
        "residual_micro": (detr - seas).astype(np.int64)})


SQL_EVENTS_SEASONAL_DECOMPOSE = """
WITH daily AS (
  SELECT epoch_us(ts) // 86400000000 AS day, count(*)::BIGINT AS n
  FROM events GROUP BY 1),
w AS (SELECT day, (day + 3) % 7 AS weekday, n,
             sum(n) OVER win AS s7, count(*) OVER win AS c7
      FROM daily
      WINDOW win AS (ORDER BY day ROWS BETWEEN 3 PRECEDING
                     AND 3 FOLLOWING)),
t AS (SELECT day, weekday, n,
             (s7 * 1000000 // 7)::BIGINT AS trend_micro,
             (n * 1000000 - s7 * 1000000 // 7)::BIGINT AS detr
      FROM w WHERE c7 = 7),
s AS (SELECT weekday, (sum(detr) // count(*))::BIGINT AS seasonal_micro
      FROM t GROUP BY weekday)
SELECT t.day, t.weekday, t.n AS n_events, t.trend_micro,
       s.seasonal_micro,
       (t.detr - s.seasonal_micro)::BIGINT AS residual_micro
FROM t JOIN s USING (weekday) ORDER BY t.day
"""


BURROWS_M = 50          # function-word panel size (top-M corpus tokens)
BURROWS_FREQ_SCALE = 1_000_000_000   # relative frequency, nano units
BURROWS_Z_SCALE = 1_000_000          # z-score, micro units


def docs_burrows_delta(sf_dir):
    """Burrows' Delta stylometric distance between sources — the standard
    authorship-attribution statistic: z-score each source's relative
    frequency of the top-M corpus "function words" across sources, then
    Delta(a,b) = mean |z_a − z_b| over the panel. In a curation pipeline
    this flags near-mirror / same-author source pairs that survive
    document-level dedup (boilerplate farms share style even when texts
    differ). Exact integer chain: nano-unit relative frequencies via
    floor division, per-word deviations d = f·S − Σf (exact ints), sd as
    the INTEGER sqrt of Σd² (isqrt in Python; floor(sqrt)+adjust in SQL,
    exact because the double error on a ≤2^73 radicand perturbs the root
    by ≪1), micro-unit z via truncating division (d is signed — mirrors
    DuckDB's trunc `//`), so every pair's delta is bit-stable.

    Scale shape: one map-side-combined (source, token) count shuffle
    (the only corpus-scale pass), a vocab-scale token-total aggregate
    + sort-limit for the panel, and a ≤|sources|·M dense matrix folded
    on the driver — sources and M are both small by construction."""
    import math
    from collections import Counter

    from ray.data.aggregate import Sum

    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["source", "text"])
    n_docs = _nrows(sf_dir, "documents")

    def count_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s, t in zip(batch.column("source").to_pylist(),
                        batch.column("text").to_pylist()):
            c.update((s, w) for w in t.split())
        keys = list(c.keys())
        return pa.table({
            "source": pa.array([k[0] for k in keys], pa.string()),
            "token": pa.array([k[1] for k in keys], pa.string()),
            "cnt": pa.array([c[k] for k in keys], pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["source", "token"], as_index=False)["cnt"].sum()
        return out.astype({"cnt": np.int64})

    counts = hash_bucket_aggregate(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["source", "token"], fold,
        rows_hint=64 * n_docs).materialize()

    # per-source token totals over the FULL vocabulary (few groups)
    totals = {r["source"]: int(r["sum(cnt)"]) for r in
              counts.groupby("source").aggregate(Sum("cnt")).take_all()}
    sources = sorted(totals)
    s_cnt = len(sources)

    # corpus top-M panel: vocab-scale aggregate, deterministic tie-break
    def tok_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("token", as_index=False)["cnt"].sum()
        return out.astype({"cnt": np.int64})

    panel_rows = (hash_bucket_aggregate(counts, ["token"], tok_fold,
                                        rows_hint=64 * n_docs)
                  .sort(["cnt", "token"], descending=[True, False])
                  .limit(BURROWS_M).take_all())
    panel = [r["token"] for r in panel_rows]
    m = len(panel)

    # dense S×M matrix: counts restricted to the panel (≤ S·M rows)
    panel_set = set(panel)
    sub = counts.map_batches(
        lambda t: t.filter(pc.is_in(t.column("token"),
                                    pa.array(sorted(panel_set)))),
        batch_format="pyarrow").take_all()
    cnt_of = {(r["source"], r["token"]): int(r["cnt"]) for r in sub}

    def trunc_div(a: int, b: int) -> int:
        q = abs(a) // b
        return q if a >= 0 else -q

    f = {(s, w): cnt_of.get((s, w), 0) * BURROWS_FREQ_SCALE // totals[s]
         for s in sources for w in panel}
    z: dict = {}
    for w in panel:
        sumf = sum(f[(s, w)] for s in sources)
        d = {s: f[(s, w)] * s_cnt - sumf for s in sources}
        sd = math.isqrt(sum(v * v for v in d.values()))
        for s in sources:
            z[(s, w)] = (trunc_div(d[s] * BURROWS_Z_SCALE, sd)
                         if sd else 0)
    rows = [{"source_a": a, "source_b": b,
             "delta_micro": np.int64(
                 sum(abs(z[(a, w)] - z[(b, w)]) for w in panel) // m)}
            for i, a in enumerate(sources) for b in sources[i + 1:]]
    return (pd.DataFrame(rows, columns=["source_a", "source_b",
                                        "delta_micro"])
            .astype({"delta_micro": np.int64})
            .sort_values(["source_a", "source_b"]).reset_index(drop=True))


SQL_DOCS_BURROWS_DELTA = rf"""
WITH tok AS (
  SELECT source,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
cnt AS (SELECT source, token, count(*)::BIGINT AS c FROM tok
        WHERE token <> '' GROUP BY source, token),
tot AS (SELECT source, sum(c)::HUGEINT AS t FROM cnt GROUP BY source),
ns AS (SELECT count(*)::HUGEINT AS s FROM tot),
topm AS (SELECT token FROM (
           SELECT token, sum(c) AS tc FROM cnt GROUP BY token
           ORDER BY tc DESC, token LIMIT {BURROWS_M})),
dense AS (
  SELECT tot.source, topm.token,
         COALESCE(cnt.c, 0)::HUGEINT * {BURROWS_FREQ_SCALE} // tot.t AS f
  FROM tot CROSS JOIN topm
  LEFT JOIN cnt ON cnt.source = tot.source AND cnt.token = topm.token),
dev AS (
  SELECT source, token,
         f * (SELECT s FROM ns) - sum(f) OVER (PARTITION BY token) AS d
  FROM dense),
sd0 AS (SELECT token, sum(d * d) AS d2 FROM dev GROUP BY token),
sdr AS (SELECT token, d2,
               CAST(floor(sqrt(d2::DOUBLE)) AS HUGEINT) AS s0
        FROM sd0),
sdc AS (SELECT token,
               s0 + (CASE WHEN (s0 + 1) * (s0 + 1) <= d2 THEN 1 ELSE 0 END)
                  - (CASE WHEN s0 * s0 > d2 THEN 1 ELSE 0 END) AS sd
        FROM sdr),
z AS (SELECT dev.source, dev.token,
             CASE WHEN sdc.sd = 0 THEN 0::HUGEINT
                  ELSE (dev.d * {BURROWS_Z_SCALE}) // sdc.sd END AS z
      FROM dev JOIN sdc USING (token))
SELECT a.source AS source_a, b.source AS source_b,
       (sum(abs(a.z - b.z))
        // (SELECT count(*)::HUGEINT FROM topm))::BIGINT AS delta_micro
FROM z a JOIN z b ON a.token = b.token AND a.source < b.source
GROUP BY 1, 2 ORDER BY 1, 2
"""


DOREMI_ROUNDS = 5                  # multiplicative-weights iterations
DOREMI_ETA_DEN = 10                # η = 1/DOREMI_ETA_DEN per round
DOREMI_SMOOTH = 200_000            # ε·1e6: uniform smoothing of the output
DOREMI_W_SCALE = 1_000_000


def docs_doremi_weights(sf_dir):
    """DoReMi-style domain-mixture reweighting (Xie et al. 2023): domains
    whose text the corpus LM finds hardest get upweighted via
    multiplicative weights on per-domain excess loss, then ε-smoothed
    toward uniform. With no external proxy model in the sandbox, the
    per-domain loss is the corpus's own unigram LM (the same CCNet-style
    signal as docs_unigram_logprob), so excess loss is fixed across
    rounds and the MW iteration is exactly replayable. Every step is
    integer fixed-point: per-domain loss = trunc(−Σ lp_fp / n_tokens)
    in micro-nats (exact integer sums), per-round score =
    floor(exp(excess/η⁻¹·1e6)·1e6 + ½) (libm exp parity, same contract
    as the ln-grid queries), renormalization by truncating division —
    no float accumulates across rounds.

    Scale shape: the corpus passes are unigram_logprob's (one vocab
    aggregate + one size-gated broadcast scoring map) keyed by source,
    so the shuffle payload is |sources| integer partials; the MW rounds
    run on ≤|sources| rows on the driver."""
    import math

    from ray.data.aggregate import Sum

    from ..functions.textstats import unigram_logprob

    ds = _read(sf_dir, "documents", ["source", "text"])
    per_doc = unigram_logprob(
        ds.select_columns(["source", "text"]), id_col="source",
        rows_hint=16 * _nrows(sf_dir, "documents"))
    per = (per_doc.groupby("source")
           .aggregate(Sum("n_tokens", alias_name="n_tokens"),
                      Sum("logprob_fp", alias_name="logprob_fp"))
           .to_pandas())
    per = per[per["n_tokens"] > 0].sort_values("source")
    srcs = list(per["source"])
    loss = {s: (-int(lp)) // int(n) for s, n, lp in
            zip(per["source"], per["n_tokens"], per["logprob_fp"])}
    mn = min(loss.values())
    excess = {s: loss[s] - mn for s in srcs}
    nd = len(srcs)
    w = {s: DOREMI_W_SCALE // nd for s in srcs}
    score = {s: int(math.floor(
        math.exp(excess[s] / (DOREMI_ETA_DEN * 1_000_000.0))
        * 1_000_000 + 0.5)) for s in srcs}
    for _ in range(DOREMI_ROUNDS):
        wp = {s: w[s] * score[s] for s in srcs}
        tot = sum(wp.values())
        w = {s: wp[s] * DOREMI_W_SCALE // tot for s in srcs}
    u = DOREMI_W_SCALE // nd
    return pd.DataFrame({
        "source": srcs,
        "n_tokens": per["n_tokens"].astype(np.int64).to_numpy(),
        "loss_micro": np.asarray([loss[s] for s in srcs], np.int64),
        "excess_micro": np.asarray([excess[s] for s in srcs], np.int64),
        "weight_micro": np.asarray(
            [(w[s] * (DOREMI_W_SCALE - DOREMI_SMOOTH)
              + DOREMI_SMOOTH * u) // DOREMI_W_SCALE for s in srcs],
            np.int64)}).reset_index(drop=True)


def _sql_doremi() -> str:
    """Unrolled MW rounds — each round CTE is referenced twice (value +
    normalizer), so AS MATERIALIZED keeps DuckDB from re-expanding the
    plan exponentially (same lesson as the kcenter oracle)."""
    head = rf"""
WITH tok AS (
  SELECT source,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
tok2 AS (SELECT source, token FROM tok WHERE token <> ''),
cnt AS (SELECT token, count(*)::DOUBLE AS c FROM tok2 GROUP BY token),
tot AS (SELECT sum(c) AS t FROM cnt),
lp AS (SELECT token, CAST(floor(ln(c / t) * 1000000 + 0.5) AS BIGINT) AS fp
       FROM cnt, tot),
per AS MATERIALIZED (
  SELECT t2.source, count(*)::BIGINT AS n_tokens,
         sum(lp.fp)::BIGINT AS lp_sum
  FROM tok2 t2 JOIN lp USING (token) GROUP BY t2.source),
loss AS MATERIALIZED (
  SELECT source, n_tokens, ((-lp_sum) // n_tokens)::BIGINT AS loss_micro
  FROM per WHERE n_tokens > 0),
ex AS MATERIALIZED (
  SELECT source, n_tokens, loss_micro,
         (loss_micro - (SELECT min(loss_micro) FROM loss))::HUGEINT
             AS excess
  FROM loss),
d AS (SELECT count(*)::HUGEINT AS nd FROM ex),
sc AS MATERIALIZED (
  SELECT source, CAST(floor(exp(excess::DOUBLE
                                / {DOREMI_ETA_DEN * 1_000_000}.0)
                            * 1000000 + 0.5) AS HUGEINT) AS score
  FROM ex),
w0 AS MATERIALIZED (
  SELECT source, ({DOREMI_W_SCALE}::HUGEINT // (SELECT nd FROM d)) AS w
  FROM ex)"""
    rounds = []
    for t in range(1, DOREMI_ROUNDS + 1):
        rounds.append(f""",
r{t} AS MATERIALIZED (
  SELECT w{t - 1}.source, w{t - 1}.w * sc.score AS wp
  FROM w{t - 1} JOIN sc USING (source)),
w{t} AS MATERIALIZED (
  SELECT source, wp * {DOREMI_W_SCALE} // (SELECT sum(wp) FROM r{t}) AS w
  FROM r{t})""")
    tail = f"""
SELECT ex.source, ex.n_tokens, ex.loss_micro,
       ex.excess::BIGINT AS excess_micro,
       ((w{DOREMI_ROUNDS}.w * {DOREMI_W_SCALE - DOREMI_SMOOTH}
         + {DOREMI_SMOOTH} * ({DOREMI_W_SCALE}::HUGEINT
                              // (SELECT nd FROM d)))
        // {DOREMI_W_SCALE})::BIGINT AS weight_micro
FROM ex JOIN w{DOREMI_ROUNDS} USING (source) ORDER BY ex.source
"""
    return head + "".join(rounds) + tail


GRID_CELL_MICRO = 125_000      # 2-D grid pitch in 1e-6 embedding units
GRID_MINPTS = 8                # DBSCAN-style core-cell density threshold
GRID_ENC = 1 << 20             # cell id encoding: (cx+OFF)*ENC + (cy+OFF)
GRID_OFF = 1 << 19


def embed_grid_clusters(sf_dir):
    """Grid-density clustering (GriDBSCAN-style) over the first two
    embedding dimensions — the density-based companion to the k-means /
    k-center / SemDeDup family: quantize each vector onto a fixed 2-D
    micro-grid, mark cells holding ≥ minPts vectors as core, union
    8-adjacent core cells into clusters, and label every vector with its
    cell's cluster (−1 = noise). Exact integer chain: the 1e-6
    quantization is the embed_label_centroids grid, cell assignment is
    pure floor division (DuckDB replays it with the
    ((q % C) + C) % C remainder trick since its `//` truncates), and
    cluster ids are min encoded-cell ids via transitive closure.

    Scale shape: one streaming pass emits map-side (cx, cy) count
    partials; the cell table is BOUNDED by the fixed grid resolution
    (≤ (range/pitch)² cells regardless of corpus size), so the core-cell
    union-find folds on the driver and the final labeling is a stateless
    broadcast map — no per-vector shuffle at any scale."""
    from collections import Counter

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def cell_of(batch: pa.Table) -> pa.Table:
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in batch.column("embedding").to_pylist()])
        q = (np.sign(m[:, :2]) * np.floor(np.abs(m[:, :2]) * 1e6 + 0.5)) \
            .astype(np.int64)
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "cx": pa.array(q[:, 0] // GRID_CELL_MICRO, pa.int64()),
            "cy": pa.array(q[:, 1] // GRID_CELL_MICRO, pa.int64())})

    cells = ds.map_batches(cell_of, batch_format="pyarrow").materialize()

    def count_partial(t: pa.Table) -> pa.Table:
        c = Counter(zip(t.column("cx").to_pylist(),
                        t.column("cy").to_pylist()))
        ks = list(c.keys())
        return pa.table({"cx": pa.array([k[0] for k in ks], pa.int64()),
                         "cy": pa.array([k[1] for k in ks], pa.int64()),
                         "n": pa.array([c[k] for k in ks], pa.int64())})

    occ: Counter = Counter()
    for b in (cells.map_batches(count_partial, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for cx, cy, n in zip(b.column("cx").to_pylist(),
                             b.column("cy").to_pylist(),
                             b.column("n").to_pylist()):
            occ[(cx, cy)] += n
    # the (cx+OFF)*ENC+(cy+OFF) cell encoding (and its tuple-order ==
    # numeric-order property) only holds for coords in [-OFF, OFF);
    # out-of-range cells would silently collide — fail loudly instead
    # (cheap: the cell table is grid-bounded)
    if occ and any(cx < -GRID_OFF or cx >= GRID_OFF
                   or cy < -GRID_OFF or cy >= GRID_OFF
                   for cx, cy in occ):
        raise ValueError("embed_grid_clusters: cell coordinate outside "
                         f"[-{GRID_OFF}, {GRID_OFF}) — embedding scale "
                         "exceeds the grid encoding range")
    core = sorted(k for k, v in occ.items() if v >= GRID_MINPTS)

    def enc(c) -> int:
        return (c[0] + GRID_OFF) * GRID_ENC + (c[1] + GRID_OFF)

    # union-find over the bounded core-cell 8-adjacency graph
    parent = {c: c for c in core}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    core_set = set(core)
    for (cx, cy) in core:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nb = (cx + dx, cy + dy)
                if nb in core_set:
                    ra, rb = find((cx, cy)), find(nb)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
    label = {c: enc(find(c)) for c in core}

    def tag(t: pa.Table) -> pa.Table:
        lab = [label.get((cx, cy), -1)
               for cx, cy in zip(t.column("cx").to_pylist(),
                                 t.column("cy").to_pylist())]
        return t.append_column("cluster", pa.array(lab, pa.int64()))

    return cells.map_batches(tag, batch_format="pyarrow")


SQL_EMBED_GRID_CLUSTERS = rf"""
WITH RECURSIVE q AS (
  SELECT vec_id,
         CAST(CASE WHEN e0 >= 0 THEN floor(e0 * 1000000 + 0.5)
              ELSE -floor(-e0 * 1000000 + 0.5) END AS BIGINT) AS q0,
         CAST(CASE WHEN e1 >= 0 THEN floor(e1 * 1000000 + 0.5)
              ELSE -floor(-e1 * 1000000 + 0.5) END AS BIGINT) AS q1
  FROM (SELECT vec_id, embedding[1]::DOUBLE AS e0,
               embedding[2]::DOUBLE AS e1 FROM embeddings)),
cell AS (
  SELECT vec_id,
         (q0 - ((q0 % {GRID_CELL_MICRO}) + {GRID_CELL_MICRO})
               % {GRID_CELL_MICRO}) // {GRID_CELL_MICRO} AS cx,
         (q1 - ((q1 % {GRID_CELL_MICRO}) + {GRID_CELL_MICRO})
               % {GRID_CELL_MICRO}) // {GRID_CELL_MICRO} AS cy
  FROM q),
core AS (
  SELECT cx, cy, (cx + {GRID_OFF}) * {GRID_ENC} + (cy + {GRID_OFF}) AS cell
  FROM cell GROUP BY cx, cy HAVING count(*) >= {GRID_MINPTS}),
lbl AS (
  SELECT cell, cell AS comp FROM core
  UNION
  SELECT b.cell, l.comp
  FROM lbl l JOIN core a ON a.cell = l.cell
             JOIN core b ON abs(a.cx - b.cx) <= 1
                        AND abs(a.cy - b.cy) <= 1),
comp AS (SELECT cell, min(comp)::BIGINT AS cluster FROM lbl GROUP BY cell)
SELECT cell.vec_id, cell.cx, cell.cy,
       COALESCE(comp.cluster, -1)::BIGINT AS cluster
FROM cell
LEFT JOIN core USING (cx, cy)
LEFT JOIN comp ON comp.cell = core.cell
"""


SHAPLEY_CHANNELS = ("click", "error", "signup", "view")  # bit i = 1 << i
SHAPLEY_WINDOW_US = 72 * 3_600_000_000   # pre-purchase attribution window


def events_shapley_attribution(sf_dir):
    """Exact Shapley-value channel attribution: each non-purchase event
    type is a marketing 'channel'; a user converts at their FIRST
    purchase, and their touchpoint set is the distinct channels seen in
    the 72 h window before it (same attribution window as
    events_timed_conversion). The coalition value v(S) counts converted
    users whose touchpoint set ⊆ S; φ_c = Σ_S |S|!(n−1−|S|)!/n!·
    (v(S∪c)−v(S)) is computed EXACTLY with factorial weights scaled by
    n! = 24 — v is monotone so every marginal is a non-negative integer
    and the final micro-unit division truncates identically on both
    engines. Efficiency Σφ_c = v(N) − v(∅) holds exactly in the scaled
    integers. The game-theoretic companion to the position/time-decay
    credit in events_attribution_credit.

    Scale shape: one user-bucketed fold over raw (user, type, ts) rows
    (first-purchase time and windowed mask need the whole user history
    co-located — the events_sessionize shuffle shape), a ≤2ⁿ-row mask
    census, then the 2ⁿ-subset Shapley fold on the driver — constant
    work once the mask table is built."""
    from ..functions.relational import hash_bucket_aggregate

    bit = {c: 1 << i for i, c in enumerate(SHAPLEY_CHANNELS)}
    n = len(SHAPLEY_CHANNELS)
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "et": t.column("event_type"),
            "ts_us": t.column("ts").cast(pa.timestamp("us"))
            .cast(pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        fp = (g[g["et"] == "purchase"].groupby("user_id")["ts_us"].min())
        if fp.empty:
            return pd.DataFrame({"user_id": pd.Series([], dtype=np.int64),
                                 "mask": pd.Series([], dtype=np.int64)})
        t = g[g["et"] != "purchase"].merge(
            fp.rename("fp"), left_on="user_id", right_index=True)
        t = t[(t["ts_us"] < t["fp"])
              & (t["ts_us"] >= t["fp"] - SHAPLEY_WINDOW_US)]
        t["b"] = t["et"].map(bit).fillna(0).astype(np.int64)
        m = t.groupby("user_id")["b"].agg(
            lambda s: int(np.bitwise_or.reduce(s.to_numpy(np.int64))))
        out = pd.DataFrame({"user_id": fp.index.to_numpy(np.int64)})
        out["mask"] = (out["user_id"].map(m).fillna(0)
                       .astype(np.int64))
        return out

    users = hash_bucket_aggregate(
        ds.map_batches(project, batch_format="pyarrow"),
        ["user_id"], fold, rows_hint=_nrows(sf_dir, "events"))

    # mask census: ≤ 2^n keys — fold per-block partials on the driver
    cnt: dict = {}
    for b in users.map_batches(
            lambda g: g.groupby("mask", as_index=False)
            .agg(n=("user_id", "size")),
            batch_format="pandas").iter_batches(batch_format="pyarrow"):
        for m, c in zip(b.column("mask").to_pylist(),
                        b.column("n").to_pylist()):
            cnt[m] = cnt.get(m, 0) + int(c)

    def v(S: int) -> int:
        return sum(c for m, c in cnt.items() if m & ~S == 0)

    fact = [1, 1, 2, 6, 24]
    rows = []
    for c in SHAPLEY_CHANNELS:
        bc = bit[c]
        phi = 0
        for S in range(1 << n):
            if S & bc:
                continue
            k = bin(S).count("1")
            phi += fact[k] * fact[n - 1 - k] * (v(S | bc) - v(S))
        rows.append({"channel": c,
                     "phi_num": np.int64(phi),
                     "shapley_micro": np.int64(
                         phi * 1_000_000 // fact[n])})
    return pd.DataFrame(rows, columns=["channel", "phi_num",
                                       "shapley_micro"])


def _sql_shapley() -> str:
    ch_vals = ", ".join(f"('{c}', {1 << i})"
                        for i, c in enumerate(SHAPLEY_CHANNELS))
    n = len(SHAPLEY_CHANNELS)
    return f"""
WITH ch (name, bit) AS (VALUES {ch_vals}),
fp AS (SELECT user_id, min(epoch_us(ts)) AS fp FROM events
       WHERE event_type = 'purchase' GROUP BY user_id),
touch AS (
  SELECT fp.user_id, ch.bit
  FROM fp JOIN events e ON e.user_id = fp.user_id
          JOIN ch ON ch.name = e.event_type
  WHERE epoch_us(e.ts) < fp.fp
    AND epoch_us(e.ts) >= fp.fp - {SHAPLEY_WINDOW_US}
  GROUP BY fp.user_id, ch.bit),
mk AS (SELECT user_id, sum(bit)::BIGINT AS mask FROM touch
       GROUP BY user_id),
usr AS (SELECT fp.user_id, COALESCE(mk.mask, 0)::BIGINT AS mask
        FROM fp LEFT JOIN mk USING (user_id)),
cnt AS (SELECT mask, count(*)::BIGINT AS n FROM usr GROUP BY mask),
subs AS (SELECT unnest(range(0, {1 << n}))::BIGINT AS s),
v AS MATERIALIZED (
  SELECT subs.s,
         COALESCE((SELECT sum(cnt.n) FROM cnt
                   WHERE (cnt.mask & subs.s) = cnt.mask), 0)::BIGINT AS val
  FROM subs),
fct (k, f) AS (VALUES (0, 1), (1, 1), (2, 2), (3, 6), (4, 24)),
shap AS (
  SELECT ch.name AS channel,
         sum(f1.f * f2.f * (v1.val - v0.val))::BIGINT AS phi_num
  FROM ch
  JOIN subs ON (subs.s & ch.bit) = 0
  JOIN v v0 ON v0.s = subs.s
  JOIN v v1 ON v1.s = (subs.s | ch.bit)
  JOIN fct f1 ON f1.k = bit_count(subs.s)
  JOIN fct f2 ON f2.k = {n} - 1 - bit_count(subs.s)
  GROUP BY ch.name)
SELECT channel, phi_num,
       (phi_num::HUGEINT * 1000000 // {[1, 1, 2, 6, 24][n]})::BIGINT
           AS shapley_micro
FROM shap ORDER BY channel
"""


SEQPAT_MINSUP = 5        # min distinct-user support for a reported pattern


def events_sequence_patterns(sf_dir):
    """Sequential pattern mining (PrefixSpan-style support counting):
    for every ordered TYPE triple (t1, t2, t3), the number of distinct
    users whose event history contains it as a (not necessarily
    contiguous) subsequence. Subsequence existence uses the standard
    greedy argument — earliest t1, then earliest t2 after it, then any
    t3 after that — so both engines check the identical witness; event
    order is the deterministic (ts, event_id) rank within each user.
    Unlike lineitem_frequent_pairs/_triples (unordered co-occurrence
    itemsets) or events_type_transitions (adjacent bigrams), this
    counts ORDER-sensitive, gap-tolerant patterns — the funnel-mining
    primitive.

    Scale shape: one user-bucketed history fold (the events_sessionize
    shuffle); per user the greedy check runs over |types|³ bounded
    patterns with searchsorted on per-type position lists; per-bucket
    partial supports (≤125 keys) fold on the driver."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts",
                                  "event_id"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id").cast(pa.int64()),
            "et": t.column("event_type"),
            "ts_us": t.column("ts").cast(pa.timestamp("us"))
            .cast(pa.int64()),
            "event_id": t.column("event_id").cast(pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"],
                          kind="mergesort")
        support: dict = {}
        for _, grp in g.groupby("user_id", sort=False):
            seq = grp["et"].to_numpy()
            types = sorted(set(seq))
            pos = {t: np.flatnonzero(seq == t) for t in types}
            for t1 in types:
                p1 = pos[t1][0]
                for t2 in types:
                    a2 = pos[t2]
                    i2 = np.searchsorted(a2, p1, side="right")
                    if i2 >= len(a2):
                        continue
                    p2 = a2[i2]
                    for t3 in types:
                        a3 = pos[t3]
                        if len(a3) and a3[-1] > p2:
                            k = (t1, t2, t3)
                            support[k] = support.get(k, 0) + 1
        ks = sorted(support)
        return pd.DataFrame({
            "t1": [k[0] for k in ks], "t2": [k[1] for k in ks],
            "t3": [k[2] for k in ks],
            "support": pd.Series([support[k] for k in ks],
                                 dtype=np.int64)})

    parts = hash_bucket_aggregate(
        ds.map_batches(project, batch_format="pyarrow"),
        ["user_id"], fold, rows_hint=_nrows(sf_dir, "events"))

    total: dict = {}
    for b in parts.iter_batches(batch_format="pyarrow"):
        for t1, t2, t3, s in zip(b.column("t1").to_pylist(),
                                 b.column("t2").to_pylist(),
                                 b.column("t3").to_pylist(),
                                 b.column("support").to_pylist()):
            k = (t1, t2, t3)
            total[k] = total.get(k, 0) + int(s)
    ks = sorted(k for k, v in total.items() if v >= SEQPAT_MINSUP)
    return pd.DataFrame({
        "t1": [k[0] for k in ks], "t2": [k[1] for k in ks],
        "t3": [k[2] for k in ks],
        "support": pd.Series([total[k] for k in ks], dtype=np.int64)})


SQL_EVENTS_SEQUENCE_PATTERNS = f"""
WITH ev AS (
  SELECT user_id, event_type AS et,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events),
f1 AS (SELECT user_id, et AS t1, min(rn) AS r1 FROM ev
       GROUP BY user_id, et),
f2 AS (SELECT f1.user_id, f1.t1, e2.et AS t2, min(e2.rn) AS r2
       FROM f1 JOIN ev e2 ON e2.user_id = f1.user_id AND e2.rn > f1.r1
       GROUP BY f1.user_id, f1.t1, e2.et),
f3 AS (SELECT DISTINCT f2.user_id, f2.t1, f2.t2, e3.et AS t3
       FROM f2 JOIN ev e3 ON e3.user_id = f2.user_id AND e3.rn > f2.r2)
SELECT t1, t2, t3, count(*)::BIGINT AS support
FROM f3 GROUP BY t1, t2, t3 HAVING count(*) >= {SEQPAT_MINSUP}
ORDER BY t1, t2, t3
"""


W1_BINW_CENTS = 50_000       # $500 histogram bins over order totals


def orders_wasserstein_by_nation(sf_dir):
    """Exact 1-D Wasserstein-1 (earth mover's) distance between each
    nation's order-price distribution and the global one, on a fixed
    $500 histogram grid: W1 = Σ_b |F_nation(b) − F_global(b)|·binw —
    the distribution-drift scalar next to the KS/PSI tests
    (events_ks_value_drift tests ONE pair of samples; this profiles
    every segment against the corpus with a shared bounded grid). The
    CDF difference is kept as the cross-multiplied integer
    |cum_n·N_g − cum_g·N_n| so the per-nation sum is exact; ONE final
    truncating division lands on the micro-dollar grid.

    Scale shape: nation dim broadcast into the fact scan, map-side
    (nation, bin) count partials over the BOUNDED price grid (≤ nations
    × ~1000 bins regardless of row count — no shuffle at all), driver
    folds the census and the cumulative sums."""
    from ..functions.relational import broadcast_join

    cust = _small(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    nation = _small(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})
    dim = cust.merge(nation, on="c_nationkey")[["o_custkey", "n_name"]]

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, dim, on="o_custkey")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64)
                         * 100 + 0.5).astype(np.int64)
        out = pd.DataFrame({"n_name": b["n_name"],
                            "bin": cents // W1_BINW_CENTS})
        return (out.groupby(["n_name", "bin"], as_index=False)
                .agg(n=("bin", "size")).astype({"n": np.int64}))

    cnt: dict = {}
    for blk in (joined.map_batches(partial, batch_format="pandas")
                .iter_batches(batch_format="pyarrow")):
        for name, b, c in zip(blk.column("n_name").to_pylist(),
                              blk.column("bin").to_pylist(),
                              blk.column("n").to_pylist()):
            cnt[(name, b)] = cnt.get((name, b), 0) + int(c)

    g: dict = {}
    for (name, b), c in cnt.items():
        g[b] = g.get(b, 0) + c
    ng = sum(g.values())
    max_bin = max(g)
    names = sorted({k[0] for k in cnt})
    rows = []
    for name in names:
        nn = sum(c for (nm, _), c in cnt.items() if nm == name)
        cn = cg = s = 0
        for b in range(max_bin + 1):
            cn += cnt.get((name, b), 0)
            cg += g.get(b, 0)
            s += abs(cn * ng - cg * nn)
        rows.append({"n_name": name, "n_orders": np.int64(nn),
                     "w1_micro": np.int64(
                         s * W1_BINW_CENTS * 10_000 // (nn * ng))})
    return pd.DataFrame(rows, columns=["n_name", "n_orders", "w1_micro"])


SQL_ORDERS_WASSERSTEIN = f"""
WITH o AS (
  SELECT n.n_name,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
             // {W1_BINW_CENTS} AS bin
  FROM orders
  JOIN customer c ON c.c_custkey = o_custkey
  JOIN nation n ON n.n_nationkey = c.c_nationkey),
nb AS (SELECT n_name, bin, count(*)::BIGINT AS n FROM o
       GROUP BY n_name, bin),
nt AS (SELECT n_name, sum(n)::HUGEINT AS nn FROM nb GROUP BY n_name),
gb AS (SELECT bin, sum(n)::HUGEINT AS gn FROM nb GROUP BY bin),
gt AS (SELECT sum(gn)::HUGEINT AS ng FROM gb),
bins AS (SELECT unnest(range(0, (SELECT max(bin) FROM gb) + 1))::BIGINT
             AS bin),
dense AS (
  SELECT nt.n_name, bins.bin,
         COALESCE(nb.n, 0)::HUGEINT AS n, COALESCE(gb.gn, 0) AS gn
  FROM nt CROSS JOIN bins
  LEFT JOIN nb ON nb.n_name = nt.n_name AND nb.bin = bins.bin
  LEFT JOIN gb ON gb.bin = bins.bin),
cum AS (
  SELECT n_name, bin,
         sum(n) OVER (PARTITION BY n_name ORDER BY bin) AS cn,
         sum(gn) OVER (PARTITION BY n_name ORDER BY bin) AS cg
  FROM dense),
agg AS (
  SELECT cum.n_name, nt.nn,
         sum(abs(cn * (SELECT ng FROM gt) - cg * nt.nn)) AS s
  FROM cum JOIN nt USING (n_name) GROUP BY cum.n_name, nt.nn)
SELECT n_name, nn::BIGINT AS n_orders,
       (s * {W1_BINW_CENTS} * 10000
        // (nn * (SELECT ng FROM gt)))::BIGINT AS w1_micro
FROM agg ORDER BY n_name
"""


BOILER_W = 5          # shingle width (tokens)
BOILER_MIN_DOCS = 3   # template threshold: distinct docs per source


def docs_boilerplate_shingles(sf_dir):
    """Per-source boilerplate/template detection: a ``BOILER_W``-gram
    that appears in ≥ ``BOILER_MIN_DOCS`` DISTINCT documents of the
    same source is a template shingle (the CC-style header/footer
    signature a curation pipeline strips before training). Reports per
    source: n_docs, n_template (distinct template shingles) and
    occ_template (total occurrences of those shingles in the source).

    Scale shape: one corpus pass emits per-block (source, g, doc_id, n)
    partials (pre-reduced inside the block), ONE bucketed aggregate
    keyed by (source, g) computes distinct-doc counts + thresholds, and
    the per-source fold reduces map-side to ≤ |sources| rows per
    bucket. Nothing driver-side is corpus-sized."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"],
               rows_per_block=32768)

    def shingle_partial(df: pd.DataFrame) -> pd.DataFrame:
        srcs, gs, dids = [], [], []
        for did, txt, src in zip(df["doc_id"].to_numpy(np.int64),
                                 df["text"], df["source"]):
            toks = str(txt).split()
            for i in range(len(toks) - BOILER_W + 1):
                gs.append(" ".join(toks[i:i + BOILER_W]))
                srcs.append(src)
                dids.append(did)
        out = pd.DataFrame({"source": srcs, "g": gs, "doc_id": dids})
        if not len(out):
            out["n"] = pd.Series([], dtype="int64")
            return out
        return (out.groupby(["source", "g", "doc_id"], as_index=False)
                .size().rename(columns={"size": "n"}))

    parts = ds.map_batches(shingle_partial, batch_format="pandas")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "source": pd.Series([], dtype=object),
            "n_template": pd.Series([], dtype="int64"),
            "occ_template": pd.Series([], dtype="int64")})
        if not len(g) or "doc_id" not in g.columns:
            return empty
        g = g.dropna(subset=["doc_id"])
        if not len(g):
            return empty
        agg = g.groupby(["source", "g"]).agg(
            df_=("doc_id", "nunique"), occ=("n", "sum"))
        tpl = agg[agg["df_"] >= BOILER_MIN_DOCS]
        if not len(tpl):
            return empty
        out = tpl.groupby(level="source").agg(
            n_template=("df_", "size"), occ_template=("occ", "sum"))
        return out.reset_index().astype(
            {"n_template": np.int64, "occ_template": np.int64})

    rows_hint = 64 * _nrows(sf_dir, "documents")
    folded = hash_bucket_aggregate(parts, ["source", "g"], fold,
                                   rows_hint=rows_hint).to_pandas()
    if not len(folded) or "n_template" not in folded.columns:
        folded = pd.DataFrame({
            "source": pd.Series([], dtype=object),
            "n_template": pd.Series([], dtype="int64"),
            "occ_template": pd.Series([], dtype="int64")})
    per_src = (folded.groupby("source", as_index=False)
               [["n_template", "occ_template"]].sum())
    nd = _read(sf_dir, "documents", ["source"]).to_pandas() \
        .groupby("source", as_index=False).size() \
        .rename(columns={"size": "n_docs"})
    out = nd.merge(per_src, on="source", how="left").fillna(0)
    return (out.astype({"n_docs": np.int64, "n_template": np.int64,
                        "occ_template": np.int64})
            .sort_values("source", ignore_index=True))


SQL_DOCS_BOILERPLATE = f"""
WITH toks AS (
  SELECT doc_id, source,
    CASE WHEN trim(text)='' THEN []::VARCHAR[]
         ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks
  FROM documents),
pos AS (
  SELECT doc_id, source,
         unnest(range(1, length(toks) - {BOILER_W} + 2)) AS i, toks
  FROM toks WHERE length(toks) >= {BOILER_W}),
g2 AS (SELECT doc_id, source,
              array_to_string(toks[i:i + {BOILER_W} - 1], ' ') AS g
       FROM pos),
agg AS (SELECT source, g, count(DISTINCT doc_id) AS df, count(*) AS occ
        FROM g2 GROUP BY source, g),
tpl AS (SELECT source, count(*)::BIGINT AS n_template,
               sum(occ)::BIGINT AS occ_template
        FROM agg WHERE df >= {BOILER_MIN_DOCS} GROUP BY source)
SELECT d.source, count(*)::BIGINT AS n_docs,
       coalesce(any_value(t.n_template), 0)::BIGINT AS n_template,
       coalesce(any_value(t.occ_template), 0)::BIGINT AS occ_template
FROM documents d LEFT JOIN tpl t USING (source)
GROUP BY d.source ORDER BY d.source
"""


THEILSEN_TARGET = 512   # sampled points (sample mod derives from n)


def lineitem_theil_sen(sf_dir):
    """Theil-Sen robust slope of extendedprice (cents) on quantity over
    a deterministic md5 row sample — the outlier-proof complement to
    the OLS fit (median of pairwise slopes; breakdown point 29%).

    Exact integer contract shared with the SQL replay: the sample
    keeps rows whose md5-derived uint64 of (orderkey*10+linenumber)
    is ≡ 0 mod ``greatest(1024, n//THEILSEN_TARGET)`` (the mod scales
    with the table so the sample stays ~constant at ANY corpus size);
    slope_micro = trunc((cents_j - cents_i) * 1e6 / (q_j - q_i))
    (DuckDB ``//`` truncates — mirrored via trunc_div since slopes may
    be negative); the reported median is the LOWER median (row
    (n_pairs-1)//2 of the sorted slopes) so no float/interp convention
    can drift. The sampled point set is ~THEILSEN_TARGET rows by
    construction, so the pair matrix is driver-bounded; the corpus
    pass itself is one distributed filtered scan."""
    import hashlib

    n = _nrows(sf_dir, "lineitem")
    mod = max(1024, n // THEILSEN_TARGET)
    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice"], rows_per_block=32768)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"q": pd.Series([], dtype="int64"),
                                 "cents": pd.Series([], dtype="int64"),
                                 "key": pd.Series([], dtype="int64")})
        key = (df["l_orderkey"].to_numpy(np.int64) * 10
               + df["l_linenumber"].to_numpy(np.int64))
        h = np.fromiter(
            (int(hashlib.md5(str(k).encode()).hexdigest()[:16], 16)
             for k in key), np.uint64, len(key))
        m = (h % np.uint64(mod)) == 0
        # DuckDB round() is half-AWAY-from-zero; np.rint is banker's
        # — mirror with floor(x + 0.5) (all values non-negative)
        return pd.DataFrame({
            "q": np.floor(df["l_quantity"].to_numpy(np.float64)[m]
                          + 0.5).astype(np.int64),
            "cents": np.floor(df["l_extendedprice"]
                              .to_numpy(np.float64)[m] * 100 + 0.5)
                 .astype(np.int64),
            "key": key[m]})

    # the synthetic data can repeat (orderkey, linenumber): pair by
    # rank over the FULL deterministic sort (key, q, cents) — matches
    # the SQL row_number() pairing exactly even under key collisions
    pts = (ds.map_batches(keep, batch_format="pandas").to_pandas()
           .sort_values(["key", "q", "cents"], ignore_index=True))
    q = pts["q"].to_numpy(np.int64)
    c = pts["cents"].to_numpy(np.int64)
    m_ = len(pts)
    if m_ > 8 * THEILSEN_TARGET:      # not assert: must survive -O,
        raise ValueError(               # and guards a driver-side m^2
            f"lineitem_theil_sen: sample {m_} rows exceeds the "
            f"{8 * THEILSEN_TARGET} pair-matrix bound — resize the mod")
    dq = q[None, :] - q[:, None]
    dc = c[None, :] - c[:, None]
    iu = np.triu_indices(m_, k=1)
    dq, dc = dq[iu], dc[iu]
    sel = dq != 0
    dq, dc = dq[sel], dc[sel]
    num = dc * 1_000_000
    slopes = np.where(np.sign(num) * np.sign(dq) >= 0,
                      abs(num) // abs(dq),
                      -(abs(num) // abs(dq)))      # trunc toward zero
    slopes = np.sort(slopes)
    n_pairs = len(slopes)
    med = int(slopes[(n_pairs - 1) // 2]) if n_pairs else 0
    return pd.DataFrame({
        "n_points": pd.Series([m_], dtype=np.int64),
        "n_pairs": pd.Series([n_pairs], dtype=np.int64),
        "median_slope_micro": pd.Series([med], dtype=np.int64)})


SQL_LINEITEM_THEIL_SEN = f"""
WITH md AS (SELECT greatest(1024,
                 (SELECT count(*) FROM lineitem) // {THEILSEN_TARGET})
                 AS m),
pts AS (
  SELECT (l_orderkey * 10 + l_linenumber)::BIGINT AS key,
         CAST(round(l_quantity) AS BIGINT) AS q,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
  FROM lineitem, md
  WHERE ('0x' || substr(md5((l_orderkey * 10
                             + l_linenumber)::VARCHAR), 1, 16))::UBIGINT
        % md.m = 0),
rk AS (SELECT *, row_number() OVER (ORDER BY key, q, cents) AS rn
       FROM pts),
pr AS (
  SELECT (b.cents - a.cents)::HUGEINT * 1000000
           // (b.q - a.q)::HUGEINT AS slope
  FROM rk a JOIN rk b ON a.rn < b.rn AND a.q <> b.q),
n AS (SELECT count(*)::BIGINT AS n_pairs FROM pr)
SELECT (SELECT count(*) FROM pts)::BIGINT AS n_points,
       n.n_pairs,
       coalesce((SELECT slope::BIGINT FROM pr ORDER BY slope
                 LIMIT 1 OFFSET ((SELECT n_pairs FROM n) - 1) // 2),
                0)::BIGINT AS median_slope_micro
FROM n
"""


CRAMER_MOD = 4   # props.k cohort arms


def events_cramers_v_props(sf_dir):
    """Cramér's V association between event_type and a cohort parsed
    out of the semi-structured ``props`` JSON column (k % CRAMER_MOD) —
    effect size for the chi-square family (V = sqrt(chi2 / (N·k)),
    k = min(r,c)−1), plus the JSON-extraction operator the engine
    needed (regexp pull of ``$.k``, vectorized; DuckDB side uses the
    byte-identical regexp). Integer contract: chi2 quantizes per cell
    to the 1e-6 grid exactly like events_chi_square_cohorts, and
    v_micro = isqrt(chi2_micro·1e6 // (N·k)) with the verified
    HUGEINT isqrt expression. Counts reduce map-side; the contingency
    grid is |types|×|arms| — driver-bounded."""
    import math

    ds = _read(sf_dir, "events", ["event_type", "props"],
               rows_per_block=32768)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "event_type": pd.Series([], dtype=object),
                "arm": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64")})
        k = (df["props"].astype(str)
             .str.extract(r'"k":\s*(-?\d+)', expand=False)
             .astype("int64"))
        out = pd.DataFrame({"event_type": df["event_type"],
                            "arm": (k % CRAMER_MOD).to_numpy(np.int64)})
        out["n"] = np.int64(1)
        return out.groupby(["event_type", "arm"], as_index=False).sum()

    cnt = (ds.map_batches(partial, batch_format="pandas").to_pandas()
           .groupby(["event_type", "arm"], as_index=False)["n"].sum())
    types = sorted(cnt["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [types, range(CRAMER_MOD)],
        names=["event_type", "arm"]).to_frame(index=False)
    g = grid.merge(cnt, how="left").fillna({"n": 0})
    g["n"] = g["n"].astype(np.int64)
    rt = g.groupby("event_type")["n"].sum().to_dict()
    ct = g.groupby("arm")["n"].sum().to_dict()
    big_n = int(g["n"].sum())
    chi2_micro = 0
    for _, r in g.iterrows():
        e_raw = (rt[r["event_type"]] * ct[r["arm"]]) / big_n
        chi2_micro += int(math.floor(
            (r["n"] - e_raw) ** 2 / e_raw * 1_000_000 + 0.5))
    kmin = min(len(types), CRAMER_MOD) - 1
    v_micro = math.isqrt(chi2_micro * 1_000_000 // (big_n * kmin))
    return pd.DataFrame({
        "n": pd.Series([big_n], dtype=np.int64),
        "dof": pd.Series([(len(types) - 1) * (CRAMER_MOD - 1)],
                         dtype=np.int64),
        "chi2_micro": pd.Series([chi2_micro], dtype=np.int64),
        "v_micro": pd.Series([v_micro], dtype=np.int64)})


SQL_EVENTS_CRAMERS_V = f"""
WITH b AS (SELECT event_type,
                  ((regexp_extract(props, '"k":\\s*(-?\\d+)', 1)::BIGINT)
                   % {CRAMER_MOD} + {CRAMER_MOD}) % {CRAMER_MOD} AS arm
           FROM events),
c AS (SELECT event_type, arm, count(*)::BIGINT AS n FROM b GROUP BY 1, 2),
ty AS (SELECT DISTINCT event_type FROM b),
ar AS (SELECT unnest(range({CRAMER_MOD}))::BIGINT AS arm),
g AS (SELECT ty.event_type, ar.arm, coalesce(c.n, 0)::BIGINT AS n
      FROM ty CROSS JOIN ar
      LEFT JOIN c ON c.event_type = ty.event_type AND c.arm = ar.arm),
rt AS (SELECT event_type, sum(n)::BIGINT AS rt FROM g GROUP BY 1),
ct AS (SELECT arm, sum(n)::BIGINT AS ct FROM g GROUP BY 1),
t AS (SELECT sum(n)::BIGINT AS bign FROM g),
f AS (SELECT CAST(floor((g.n - (rt.rt * ct.ct)::DOUBLE / t.bign)
                        * (g.n - (rt.rt * ct.ct)::DOUBLE / t.bign)
                        / ((rt.rt * ct.ct)::DOUBLE / t.bign)
                        * 1000000 + 0.5) AS BIGINT) AS cm
      FROM g JOIN rt USING (event_type) JOIN ct USING (arm), t),
s AS (SELECT (SELECT sum(cm) FROM f)::HUGEINT AS chi2_micro,
             (SELECT bign FROM t)::HUGEINT AS bign,
             (least((SELECT count(*) FROM ty), {CRAMER_MOD})
              - 1)::HUGEINT AS kmin),
r AS (SELECT chi2_micro, bign, kmin,
             chi2_micro * 1000000 // (bign * kmin) AS x,
             CAST(floor(sqrt((chi2_micro * 1000000
                              // (bign * kmin))::DOUBLE)) AS HUGEINT)
                 AS s0
      FROM s)
SELECT bign::BIGINT AS n,
       (((SELECT count(*) FROM ty) - 1) * {CRAMER_MOD - 1})::BIGINT
           AS dof,
       chi2_micro::BIGINT AS chi2_micro,
       (s0 + (CASE WHEN (s0 + 1) * (s0 + 1) <= x THEN 1 ELSE 0 END)
           - (CASE WHEN s0 * s0 > x THEN 1 ELSE 0 END))::BIGINT
           AS v_micro
FROM r
"""


def nation_order_hhi(sf_dir):
    """Herfindahl-Hirschman concentration of order revenue across the
    customers of each nation — the market-concentration audit (HHI in
    parts-per-million of the squared-share sum). Exact integers both
    sides: per-customer cents = Σ round(o_totalprice·100); per nation
    hhi_ppm = Σ (cents_i·1e6 // S)² // 1e6 (double floor division
    mirrored; all quantities non-negative so // floors identically).

    Scale shape: per-customer totals via ONE bucketed aggregate WITH
    the map-side partial combiner (a hot customer pre-reduces to one
    row per block before the shuffle), one bucketed customer→nation
    join, then a per-nation fold whose input is |customers| rows."""
    from ..functions.relational import hash_bucket_aggregate, shuffle_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=32768)

    def cents_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "o_custkey": df["o_custkey"].to_numpy(np.int64),
            "cents": np.rint(df["o_totalprice"].to_numpy(np.float64)
                             * 100).astype(np.int64)})
        return out.groupby("o_custkey", as_index=False)["cents"].sum()

    def cents_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("o_custkey", as_index=False)["cents"].sum()
        return out.astype({"o_custkey": np.int64, "cents": np.int64})

    n_cust = _nrows(sf_dir, "customer")
    per_cust = hash_bucket_aggregate(
        orders, ["o_custkey"], cents_fold, rows_hint=n_cust,
        partial=cents_partial)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = shuffle_join(per_cust, cust, "o_custkey", "c_custkey",
                          ["cents"], ["c_nationkey"],
                          rows_hint=n_cust)

    def hhi_fold(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for nk, gg in g.groupby("c_nationkey"):
            cents = gg["cents"].to_numpy(np.int64)
            s = int(cents.sum())
            shares = cents * 1_000_000 // s
            rows.append((int(nk), len(cents), s,
                         int((shares * shares).sum() // 1_000_000)))
        return pd.DataFrame(rows, columns=[
            "nationkey", "n_customers", "total_cents", "hhi_ppm"]) \
            .astype(np.int64)

    out = hash_bucket_aggregate(joined, ["c_nationkey"], hhi_fold,
                                rows_hint=25).to_pandas()
    return out.sort_values("nationkey", ignore_index=True)


SQL_NATION_ORDER_HHI = """
WITH pc AS (
  SELECT o_custkey, sum(CAST(round(o_totalprice * 100) AS BIGINT))
             ::BIGINT AS cents
  FROM orders GROUP BY o_custkey),
j AS (SELECT c.c_nationkey AS nationkey, pc.cents
      FROM pc JOIN customer c ON pc.o_custkey = c.c_custkey),
s AS (SELECT nationkey, count(*)::BIGINT AS n_customers,
             sum(cents)::BIGINT AS total_cents
      FROM j GROUP BY nationkey),
sh AS (SELECT j.nationkey,
              (j.cents::HUGEINT * 1000000 // s.total_cents) AS share
       FROM j JOIN s USING (nationkey))
SELECT s.nationkey::BIGINT AS nationkey, s.n_customers, s.total_cents,
       (sum(sh.share * sh.share) // 1000000)::BIGINT AS hhi_ppm
FROM sh JOIN s USING (nationkey)
GROUP BY s.nationkey, s.n_customers, s.total_cents
ORDER BY s.nationkey
"""


PPR_SEED_MOD = 100    # landmark sources for personalized PageRank
PPR_ITERS = 3


def graph_ppr_parts(sf_dir):
    """Personalized PageRank (random walk with restart) from landmark
    part seeds over the sampled co-purchase graph — per-seed entity
    relatedness, the kernel behind local-community / related-item
    queries (distinct from the TrustRank seed-SET teleport the engine
    already has). Exact integer diffusion (graph.multi_source_ppr —
    SCALE 1e12, 85/100 damping, floor division everywhere) so the
    unrolled-CTE SQL replay is value-identical. Reported compactly per
    source: reach, total mass, and the top related entity (max pi
    excluding self, ties toward the smaller entity id)."""
    from ..functions.graph import multi_source_ppr

    n = _nrows(sf_dir, "lineitem") // LP_VERTEX_MOD
    edges = _copurchase_edges(sf_dir, LP_VERTEX_MOD)
    seeds = _read(sf_dir, "part", ["p_partkey"]).map_batches(
        lambda t: t.filter(pa.array(
            t.column("p_partkey").to_numpy(zero_copy_only=False)
            % PPR_SEED_MOD == 0)),
        batch_format="pyarrow").to_pandas()["p_partkey"].tolist()
    pi = multi_source_ppr(edges, seeds, iters=PPR_ITERS,
                          rows_hint=4 * n).to_pandas()
    rows = []
    for src, g in pi.groupby("src"):
        nz = g[g["pi"] > 0]
        others = (nz[nz["entity"] != src]
                  .sort_values(["pi", "entity"],
                               ascending=[False, True]))
        top_e = int(others.iloc[0]["entity"]) if len(others) else -1
        top_pi = int(others.iloc[0]["pi"]) if len(others) else 0
        rows.append((int(src), len(nz), int(nz["pi"].sum()),
                     top_e, top_pi))
    return pd.DataFrame(rows, columns=[
        "src", "n_reached", "sum_pi", "top_entity", "top_pi"]) \
        .astype(np.int64).sort_values("src", ignore_index=True)


def _sql_ppr() -> str:
    from ..functions.graph import PPR_DEN, PPR_NUM, PPR_SCALE
    base = PPR_SCALE * (PPR_DEN - PPR_NUM) // PPR_DEN
    parts = [f"""
WITH lp AS MATERIALIZED (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE l_partkey % {LP_VERTEX_MOD} = 0),
e0 AS MATERIALIZED (
  SELECT DISTINCT x.p AS a, y.p AS b
  FROM lp x JOIN lp y ON x.o = y.o AND x.p < y.p),
adj AS MATERIALIZED (
  SELECT a AS u, b AS v FROM e0 UNION ALL SELECT b, a FROM e0),
dg AS MATERIALIZED (SELECT u AS v, count(*)::BIGINT AS d
                    FROM adj GROUP BY u),
sd AS MATERIALIZED (
  SELECT p_partkey::BIGINT AS s FROM part
  WHERE p_partkey % {PPR_SEED_MOD} = 0),
p0 AS MATERIALIZED (
  SELECT s AS src, s AS entity, {PPR_SCALE}::BIGINT AS pi FROM sd)"""]
    for i in range(1, PPR_ITERS + 1):
        parts.append(f""",
p{i} AS MATERIALIZED (
  SELECT src, entity, sum(pi)::BIGINT AS pi FROM (
    SELECT s AS src, s AS entity, {base}::BIGINT AS pi FROM sd
    UNION ALL
    SELECT p.src, adj.v AS entity,
           (p.pi * {PPR_NUM} // ({PPR_DEN} * dg.d))::BIGINT AS pi
    FROM adj JOIN p{i - 1} p ON adj.u = p.entity
             JOIN dg ON dg.v = adj.u
  ) GROUP BY src, entity)""")
    parts.append(f""",
last AS MATERIALIZED (SELECT * FROM p{PPR_ITERS} WHERE pi > 0),
tot AS (SELECT src, count(*)::BIGINT AS n_reached,
               sum(pi)::BIGINT AS sum_pi FROM last GROUP BY src),
tp AS (SELECT src, entity, pi,
              row_number() OVER (PARTITION BY src
                                 ORDER BY pi DESC, entity) AS rn
       FROM last WHERE entity <> src)
SELECT t.src::BIGINT AS src, t.n_reached, t.sum_pi,
       coalesce(tp.entity, -1)::BIGINT AS top_entity,
       coalesce(tp.pi, 0)::BIGINT AS top_pi
FROM tot t LEFT JOIN tp ON tp.src = t.src AND tp.rn = 1
ORDER BY t.src""")
    return "".join(parts)


DECAY_CAP_DAYS = 20
#: 0.9^d in micro-units, exact integers (d = days before the corpus max)
DECAY_W = tuple((10 ** 6 * 9 ** d) // 10 ** d
                for d in range(DECAY_CAP_DAYS + 1))


def events_decayed_counts(sf_dir):
    """Exponentially time-decayed event counts per type (half-life-style
    freshness weighting, 0.9/day, capped at ``DECAY_CAP_DAYS``) — the
    recency-weighted activity metric a feature store serves instead of
    raw counts. Exact integers: weight(d) = (1e6·9^d) // 10^d is
    precomputed as literals on BOTH sides, d = days between the event
    date and the corpus max date (capped), decayed_micro = Σ w(d).
    Scale shape: one max-date pass, then map-side (event_type, d) count
    partials (≤ types × 21 rows per block) and a driver fold."""
    ds = _read(sf_dir, "events", ["ts", "event_type"],
               rows_per_block=32768)
    mx = ds.max("ts")
    mx_day = pd.Timestamp(mx).normalize()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "event_type": pd.Series([], dtype=object),
                "d": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64")})
        days = ((mx_day - pd.to_datetime(df["ts"]).dt.normalize())
                .dt.days.to_numpy(np.int64))
        out = pd.DataFrame({
            "event_type": df["event_type"],
            "d": np.minimum(days, DECAY_CAP_DAYS)})
        out["n"] = np.int64(1)
        return out.groupby(["event_type", "d"], as_index=False).sum()

    cnt = (ds.map_batches(partial, batch_format="pandas").to_pandas()
           .groupby(["event_type", "d"], as_index=False)["n"].sum())
    w = np.asarray(DECAY_W, np.int64)
    cnt["dec"] = cnt["n"].to_numpy(np.int64) * w[cnt["d"].to_numpy(np.int64)]
    out = cnt.groupby("event_type", as_index=False).agg(
        n=("n", "sum"), decayed_micro=("dec", "sum"))
    return (out.astype({"n": np.int64, "decayed_micro": np.int64})
            .sort_values("event_type", ignore_index=True))


def _sql_decayed() -> str:
    vals = ", ".join(f"({d}, {w})" for d, w in enumerate(DECAY_W))
    return f"""
WITH mx AS (SELECT max(ts::DATE) AS m FROM events),
w(d, wm) AS (VALUES {vals}),
e AS (SELECT event_type,
             least(date_diff('day', ts::DATE, mx.m),
                   {DECAY_CAP_DAYS})::BIGINT AS d
      FROM events, mx)
SELECT event_type, count(*)::BIGINT AS n,
       sum(w.wm)::BIGINT AS decayed_micro
FROM e JOIN w USING (d)
GROUP BY event_type ORDER BY event_type
"""


ZIPF_TOPK = 100


def docs_zipf_slope(sf_dir):
    """Zipf's-law exponent fit over the corpus vocabulary — the log-log
    OLS slope of frequency on rank for the top ``ZIPF_TOPK`` tokens
    (tokenizer/corpus-health QA: natural text sits near −1; a slope far
    off flags template or synthetic inflation). Exact contract shared
    with SQL: ranks break ties (freq desc, token asc); x = rint(ln r ·
    1e6), y = rint(ln f · 1e6) quantize ONCE per point (the PSI
    recipe); slope_micro = trunc((n·Σxy − Σx·Σy) · 1e6 /
    (n·Σx² − (Σx)²)) with truncation mirrored for the negative slope.
    Scale shape: ONE counting shuffle with map-side Counter partials;
    the top-k and the 100-point fit are driver-trivial."""
    import math

    from collections import Counter
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"], rows_per_block=32768)

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(t.split())
        return pa.table({"token": pa.array(list(c.keys()), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    cnt = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("token").aggregate(Sum("cnt", alias_name="cnt"))
           .to_pandas())
    cnt = cnt.sort_values(["cnt", "token"],
                          ascending=[False, True]).head(ZIPF_TOPK)
    freqs = cnt["cnt"].to_numpy(np.int64)
    n = len(freqs)
    xs = [int(math.floor(math.log(r) * 1_000_000 + 0.5))
          for r in range(1, n + 1)]
    ys = [int(math.floor(math.log(int(f)) * 1_000_000 + 0.5))
          for f in freqs]
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    num = (n * sxy - sx * sy) * 1_000_000
    den = n * sxx - sx * sx

    def trunc_div(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    return pd.DataFrame({
        "n_points": pd.Series([n], dtype=np.int64),
        "top_freq": pd.Series([int(freqs[0]) if n else 0],
                              dtype=np.int64),
        "slope_micro": pd.Series([trunc_div(num, den) if n > 1 else 0],
                                 dtype=np.int64)})


SQL_DOCS_ZIPF = rf"""
WITH tok AS (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents),
cnt AS (SELECT token, count(*)::BIGINT AS cnt FROM tok
        WHERE token <> '' GROUP BY token),
top AS (SELECT cnt, row_number() OVER (ORDER BY cnt DESC, token) AS r
        FROM cnt ORDER BY cnt DESC, token LIMIT {ZIPF_TOPK}),
pts AS (SELECT CAST(floor(ln(r) * 1000000 + 0.5) AS HUGEINT) AS x,
               CAST(floor(ln(cnt) * 1000000 + 0.5) AS HUGEINT) AS y
        FROM top),
s AS (SELECT count(*)::HUGEINT AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * y) AS sxy, sum(x * x) AS sxx
      FROM pts)
SELECT n::BIGINT AS n_points,
       (SELECT max(cnt) FROM top)::BIGINT AS top_freq,
       ((n * sxy - sx * sy) * 1000000
        // (n * sxx - sx * sx))::BIGINT AS slope_micro
FROM s
"""


def docs_lang_entropy_by_source(sf_dir):
    """Shannon entropy of the language mix per source — the
    language-balance audit of a crawl partition (a source whose entropy
    collapses got monolingual; one that spikes got contaminated). Each
    (source, lang) cell quantizes −p·ln p ONCE to the 1e-6 grid
    (PSI recipe) so the sum is an order-free integer. Map-side
    (source, lang) count partials; the grid is |sources|×|langs| —
    driver-bounded."""
    import math

    ds = _read(sf_dir, "documents", ["source", "lang"],
               rows_per_block=32768)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # null-key contract: missing source/lang count as '' on BOTH
        # sides (pandas groupby drops NaN keys; SQL GROUP BY keeps
        # NULL — coalesce makes them agree)
        out = (df.fillna({"source": "", "lang": ""})
               .groupby(["source", "lang"], as_index=False).size()
               .rename(columns={"size": "n"}))
        return out

    cnt = (ds.map_batches(partial, batch_format="pandas").to_pandas()
           .groupby(["source", "lang"], as_index=False)["n"].sum())
    rows = []
    for src, g in cnt.groupby("source"):
        tot = int(g["n"].sum())
        h = 0
        for ni in g["n"].to_numpy(np.int64):
            p = ni / tot
            h += int(math.floor(-p * math.log(p) * 1_000_000 + 0.5))
        rows.append((src, tot, len(g), h))
    return pd.DataFrame(rows, columns=[
        "source", "n_docs", "n_langs", "entropy_micro"]).astype(
            {"n_docs": np.int64, "n_langs": np.int64,
             "entropy_micro": np.int64}).sort_values(
                 "source", ignore_index=True)


SQL_DOCS_LANG_ENTROPY = """
WITH c AS (SELECT coalesce(source, '') AS source,
                  coalesce(lang, '') AS lang, count(*)::BIGINT AS n
           FROM documents GROUP BY 1, 2),
t AS (SELECT source, sum(n)::BIGINT AS tot FROM c GROUP BY source),
e AS (SELECT c.source,
             CAST(floor(-(c.n::DOUBLE / t.tot)
                        * ln(c.n::DOUBLE / t.tot)
                        * 1000000 + 0.5) AS BIGINT) AS h
      FROM c JOIN t USING (source))
SELECT c2.source, t.tot AS n_docs, count(*)::BIGINT AS n_langs,
       (SELECT sum(e.h) FROM e WHERE e.source = c2.source)::BIGINT
           AS entropy_micro
FROM c c2 JOIN t USING (source)
GROUP BY c2.source, t.tot ORDER BY c2.source
"""


def supplier_part_gini(sf_dir):
    """Per-supplier Gini coefficient of shipped quantity across parts —
    the supply-concentration audit (0 = a supplier ships every part
    evenly, →1 = one part dominates). Exact integer Gini over the
    ascending (qty, partkey) order:

        g_micro = (2·Σ i·x_i − (n+1)·S) · 1e6 // (n·S)

    (ties in x make Σ i·x order-invariant, so both engines agree).
    Scale shape: map-side (suppkey, partkey, qty) partials, ONE
    bucketed per-supplier fold (suppliers never span buckets; the sort
    is |parts-per-supplier|-local), |suppliers| driver rows."""
    from ..functions.relational import hash_bucket_aggregate

    ds = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_partkey", "l_quantity"],
               rows_per_block=32768)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "sk": df["l_suppkey"].to_numpy(np.int64),
            "pk": df["l_partkey"].to_numpy(np.int64),
            "q": np.floor(df["l_quantity"].to_numpy(np.float64) + 0.5)
                 .astype(np.int64)})
        return out.groupby(["sk", "pk"], as_index=False)["q"].sum()

    def gini_fold(g: pd.DataFrame) -> pd.DataFrame:
        x = g.groupby(["sk", "pk"], as_index=False)["q"].sum()
        rows = []
        for sk, gg in x.groupby("sk"):
            gg = gg.sort_values(["q", "pk"])
            q = gg["q"].to_numpy(np.int64)
            n = len(q)
            s = int(q.sum())
            iw = int((np.arange(1, n + 1, dtype=np.int64) * q).sum())
            gm = (2 * iw - (n + 1) * s) * 1_000_000 // (n * s) \
                if n and s else 0
            rows.append((int(sk), n, s, gm))
        return pd.DataFrame(rows, columns=[
            "suppkey", "n_parts", "total_qty", "gini_micro"]).astype(
                np.int64)

    out = hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pandas"), ["sk"],
        gini_fold, rows_hint=_nrows(sf_dir, "supplier")).to_pandas()
    return out.sort_values("suppkey", ignore_index=True)


SQL_SUPPLIER_PART_GINI = """
WITH pq AS (
  SELECT l_suppkey AS sk, l_partkey AS pk,
         sum(CAST(floor(l_quantity + 0.5) AS BIGINT))::BIGINT AS q
  FROM lineitem GROUP BY 1, 2),
rk AS (SELECT sk, q,
              row_number() OVER (PARTITION BY sk ORDER BY q, pk) AS i
       FROM pq),
a AS (SELECT sk, count(*)::HUGEINT AS n, sum(q)::HUGEINT AS s,
             sum(i::HUGEINT * q)::HUGEINT AS iw
      FROM rk GROUP BY sk)
SELECT sk::BIGINT AS suppkey, n::BIGINT AS n_parts,
       s::BIGINT AS total_qty,
       ((2 * iw - (n + 1) * s) * 1000000 // (n * s))::BIGINT
           AS gini_micro
FROM a ORDER BY suppkey
"""


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

QUERIES = {
    # --- curated prefix: the driver's CORRECTNESS snapshot checks the
    # first 50 entries — every one of these has a value oracle (SQL in
    # ORACLES or a pinned-value oracle in pins.py) and together they
    # cover the flagship operator families: model/KG pipelines, KGE,
    # the dedup suite, ANN/similarity, curation/packing/quality, and
    # the heavyweight relational shapes (skew join, Q5, bucketed join).
    "kg_triples": kg_triples,
    "kg_triples_pcnn_stats": kg_triples_pcnn_stats,
    "kg_triples_bert_stats": kg_triples_bert_stats,
    "sentence_scores_stats": sentence_scores_stats,
    "sentence_calibration_bins": sentence_calibration_bins,
    "sentence_uncertainty_sample": sentence_uncertainty_sample,
    "sentence_temperature_scaling": sentence_temperature_scaling,
    "sentence_conformal_sets": sentence_conformal_sets,
    "kg_snowball_patterns": kg_snowball_patterns,
    "kg_truth_discovery": kg_truth_discovery,
    "kg_type_violations": kg_type_violations,
    "kg_type_inference": kg_type_inference,
    "kg_inverse_relations": kg_inverse_relations,
    "kg_path_rules": kg_path_rules,
    "kg_relation_profile": kg_relation_profile,
    "kg_rule_inference": kg_rule_inference,
    "kg_relation_implications": kg_relation_implications,
    "encoded_instances_stats": encoded_instances_stats,
    "bag_scores_stats": bag_scores_stats,
    "bag_eval_metrics": bag_eval_metrics,
    "bag_per_relation_metrics": bag_per_relation_metrics,
    "fewshot_stats": fewshot_stats,
    "kg_degree_stats": kg_degree_stats,
    "kg_components": kg_components,
    "kg_transe_stats": kg_transe_stats,
    "kg_link_prediction": kg_link_prediction,
    "kg_negative_samples": kg_negative_samples,
    "media_features_stats": media_features_stats,
    "docs_exact_dedup": docs_exact_dedup,
    "docs_quality_dedup": docs_quality_dedup,
    "docs_minhash_dedup": docs_minhash_dedup,
    "docs_dedup_clusters": docs_dedup_clusters,
    "docs_dedup_cluster_eval": docs_dedup_cluster_eval,
    "docs_lsh_recall_eval": docs_lsh_recall_eval,
    "docs_split_leakage": docs_split_leakage,
    "docs_paragraph_dedup": docs_paragraph_dedup,
    "docs_duplicated_spans": docs_duplicated_spans,
    "embed_semantic_dedup": embed_semantic_dedup,
    "docs_decontaminate": docs_decontaminate,
    "docs_jaccard_pairs": docs_jaccard_pairs,
    "docs_containment_pairs": docs_containment_pairs,
    "customer_entity_resolution": customer_entity_resolution,
    "customer_golden_records": customer_golden_records,
    "customer_blocking_eval": customer_blocking_eval,
    "customer_rfm_segments": customer_rfm_segments,
    "events_user_skew_profile": events_user_skew_profile,
    "docs_textrank_keywords": docs_textrank_keywords,
    "events_multistep_funnel": events_multistep_funnel,
    "events_orders_join_estimate": events_orders_join_estimate,
    "customer_k_anonymity": customer_k_anonymity,
    "orders_bootstrap_ci": orders_bootstrap_ci,
    "knn_cosine": knn_cosine,
    "knn_lsh": knn_lsh_query,
    "knn_ivf": knn_ivf_query,
    "knn_pq": knn_pq_query,
    "knn_ann_recall_eval": knn_ann_recall_eval,
    "knn_graph": knn_graph_query,
    "embed_cosine_pairs": embed_cosine_pairs,
    "embed_cosine_pairs_lsh": embed_cosine_pairs_lsh,
    "embed_kmeans_clusters": embed_kmeans_clusters,
    "embed_kcenter_coreset": embed_kcenter_coreset,
    "embed_triplet_mine": embed_triplet_mine,
    "docs_curation_pipeline": docs_curation_pipeline,
    "docs_pretrain_pipeline": docs_pretrain_pipeline,
    "docs_pack_sequences": docs_pack_sequences,
    "docs_deterministic_shuffle": docs_deterministic_shuffle,
    "docs_quality": docs_quality,
    "docs_gopher_filter": docs_gopher_filter,
    "docs_pii_scrub": docs_pii_scrub,
    "docs_c4_filter": docs_c4_filter,
    "docs_url_dedup": docs_url_dedup,
    "docs_domain_mixture": docs_domain_mixture,
    "docs_winnowing": docs_winnowing,
    "docs_domain_blocklist": docs_domain_blocklist,
    "docs_filter_funnel": docs_filter_funnel,
    "docs_quality_classifier": docs_quality_classifier,
    "embed_centroid_outliers": embed_centroid_outliers,
    "docs_link_graph": docs_link_graph,
    "docs_link_pagerank": docs_link_pagerank,
    "docs_domain_pagerank": docs_domain_pagerank,
    "docs_domain_trustrank": docs_domain_trustrank,
    "fd_audit": fd_audit,
    "events_snapshot_diff": events_snapshot_diff,
    "docs_perplexity_tiers": docs_perplexity_tiers,
    "docs_hybrid_rrf": docs_hybrid_rrf,
    "docs_langid_heuristic": docs_langid_heuristic,
    "docs_token_count": docs_token_count,
    "docs_source_length_zscore": docs_source_length_zscore,
    "docs_bpe_learn": docs_bpe_learn,
    "docs_bpe_encode_stats": docs_bpe_encode_stats,
    "docs_fingerprint": docs_fingerprint,
    "docs_dsir_sample": docs_dsir_sample,
    "lineitem_part_skew_join": lineitem_part_skew_join,
    "q5_local_supplier_revenue": q5_local_supplier_revenue,
    "customer_orders_bucketed_join": customer_orders_bucketed_join,
    "events_sessionize": events_sessionize,
    "lineitem_group_agg": lineitem_group_agg,
    # --- remainder (sweep-verified; scripts/sweep_correctness.py runs
    # every value-oracled query at sf0.01 and sf0.1 each round)
    "lineitem_filter_agg": lineitem_filter_agg,
    "orders_period_full_join": orders_period_full_join,
    "topk_orders": topk_orders,
    "customer_nation_join": customer_nation_join,
    "supplier_region_join": supplier_region_join,
    "part_brand_stats": part_brand_stats,
    "region_nation_union": region_nation_union,
    "events_users_intersect_except": events_users_intersect_except,
    "docs_source_stats": docs_source_stats,
    "events_type_stats": events_type_stats,
    "events_daily_window": events_daily_window,
    "events_type_pivot": events_type_pivot,
    "events_funnel_click_purchase": events_funnel_click_purchase,
    "events_anti_join": events_anti_join,
    "events_running_total": events_running_total,
    "lineitem_topk_per_group": lineitem_topk_per_group,
    "docs_bpe_pairs": docs_bpe_pairs,
    "docs_pmi_collocations": docs_pmi_collocations,
    "docs_word_freq": docs_word_freq,
    "docs_tfidf_topk": docs_tfidf_topk,
    "docs_lang_dist": docs_lang_dist,
    "embed_norms": embed_norms,
    "graph_degree_customers": graph_degree_customers,
    "graph_components_customers": graph_components_customers,
    "graph_khop_customers": graph_khop_customers,
    "graph_pagerank_customers": graph_pagerank_customers,
    "embed_jl_projection": embed_jl_projection,
    "docs_shingles": docs_shingles,
    "events_sliding_window": events_sliding_window,
    "lineitem_quantiles": lineitem_quantiles,
    "lineitem_price_ddsketch": lineitem_price_ddsketch,
    "docs_heavy_hitters_verified": docs_heavy_hitters_verified,
    "docs_hash_split": docs_hash_split,
    "docs_lang_balanced_sample": docs_lang_balanced_sample,
    "docs_bottomk_per_lang": docs_bottomk_per_lang,
    "docs_weighted_sample": docs_weighted_sample,
    "docs_oov_ratio": docs_oov_ratio,
    "docs_unigram_logprob": docs_unigram_logprob,
    "docs_token_entropy": docs_token_entropy,
    "events_type_transitions": events_type_transitions,
    "events_psi_drift": events_psi_drift,
    "docs_bm25_topk": docs_bm25_topk,
    "docs_temperature_sample": docs_temperature_sample,
    "docs_source_overlap": docs_source_overlap,
    "docs_chunk_windows": docs_chunk_windows,
    "events_props_stats": events_props_stats,
    "lineitem_profile": lineitem_profile,
    "graph_triangles_parts": graph_triangles_parts,
    "graph_assortativity_parts": graph_assortativity_parts,
    "graph_clustering_parts": graph_clustering_parts,
    "graph_link_prediction_parts": graph_link_prediction_parts,
    "docs_curation_funnel": docs_curation_funnel,
    "events_value_outliers": events_value_outliers,
    "events_latest_per_user": events_latest_per_user,
    "lineitem_frequent_pairs": lineitem_frequent_pairs,
    "embed_label_centroids": embed_label_centroids,
    "events_rolling_active_users": events_rolling_active_users,
    "docs_bigram_logprob": docs_bigram_logprob,
    "customer_supplier_balance_link": customer_supplier_balance_link,
    "events_debounce": events_debounce,
    "docs_incremental_dedup": docs_incremental_dedup,
    "orders_range_layout": orders_range_layout,
    "orders_pruned_range_scan": orders_pruned_range_scan,
    "orders_concurrent_pairs": orders_concurrent_pairs,
    "docs_skipgram_pairs": docs_skipgram_pairs,
    "graph_predicate_stats": graph_predicate_stats,
    "customer_name_typo_pairs": customer_name_typo_pairs,
    "docs_alias_jw_matches": docs_alias_jw_matches,
    "events_click_near_purchase": events_click_near_purchase,
    "docs_version_diff": docs_version_diff,
    "events_value_winsorized": events_value_winsorized,
    "events_late_flags": events_late_flags,
    "docs_compression_stats": docs_compression_stats,
    "events_user_trend": events_user_trend,
    "docs_source_scorecard": docs_source_scorecard,
    "embed_label_propagation": embed_label_propagation,
    "docs_source_quota": docs_source_quota,
    "docs_source_divergence": docs_source_divergence,
    "docs_source_influence": docs_source_influence,
    "docs_exact_stratified_split": docs_exact_stratified_split,
    "orders_pushdown_filter_agg": orders_pushdown_filter_agg,
    "events_daily_resample_ffill": events_daily_resample_ffill,
    "orders_quality_checks": orders_quality_checks,
    "docs_cdc_apply": docs_cdc_apply,
    "docs_source_concentration": docs_source_concentration,
    "events_timed_conversion": events_timed_conversion,
    "events_attribution_credit": events_attribution_credit,
    "lineitem_cube": lineitem_cube,
    "docs_ngram_novelty": docs_ngram_novelty,
    "events_cohort_retention": events_cohort_retention,
    "events_kaplan_meier": events_kaplan_meier,
    "events_user_modal_type": events_user_modal_type,
    "docs_inverted_index": docs_inverted_index,
    "docs_topk_tokens_per_lang": docs_topk_tokens_per_lang,
    "docs_above_median_tokens": docs_above_median_tokens,
    "events_asof_view": events_asof_view,
    "lineitem_quantity_bands": lineitem_quantity_bands,
    "docs_repetition": docs_repetition,
    "events_lag_delta": events_lag_delta,
    "events_distinct_users_exact": events_distinct_users_exact,
    "revenue_by_nation": revenue_by_nation,
    "customers_order_counts": customers_order_counts,
    "lineitem_rollup": lineitem_rollup,
    "orders_price_ntile": orders_price_ntile,
    "lineitem_price_histogram": lineitem_price_histogram,
    "lineitem_qty_price_corr": lineitem_qty_price_corr,
    "orders_above_customer_avg": orders_above_customer_avg,
    "docs_simhash": docs_simhash,
    "docs_simhash_dedup": docs_simhash_dedup,
    "docs_rolling_fingerprint": docs_rolling_fingerprint,
    "orders_skyline": orders_skyline,
    "lineitem_benford": lineitem_benford,
    "lineitem_price_mad_outliers": lineitem_price_mad_outliers,
    "graph_kcore_parts": graph_kcore_parts,
    "graph_ktruss_parts": graph_ktruss_parts,
    "graph_wl_colors_parts": graph_wl_colors_parts,
    "graph_label_propagation_parts": graph_label_propagation_parts,
    "graph_modularity_parts": graph_modularity_parts,
    "graph_sssp_parts": graph_sssp_parts,
    "events_time_weighted_avg": events_time_weighted_avg,
    "lineitem_association_rules": lineitem_association_rules,
    "docs_readability": docs_readability,
    "events_ewma": events_ewma,
    "docs_rake_scores": docs_rake_scores,
    # --- rows-only by design (model/sketch/approximate outputs too
    # large or non-SQL-replayable to value-pin; each has a pinned
    # *_stats companion or a pytest oracle)
    "kg_triples_pcnn": kg_triples_pcnn,
    "kg_triples_bert": kg_triples_bert,
    "fewshot_classify": fewshot_classify,
    "sentence_relation_scores": sentence_relation_scores,
    "encoded_instances": encoded_instances,
    "bag_relation_scores": bag_relation_scores,
    "docs_heavy_hitter_words": docs_heavy_hitter_words,
    "events_approx_distinct_users": events_approx_distinct_users,
    "embedding_near_dups": embedding_near_dups,
    "media_features": media_features,
    "docs_zipf_alpha": docs_zipf_alpha,
    "docs_mojibake": docs_mojibake,
    "docs_link_bfs": docs_link_bfs,
    "docs_link_cocitation": docs_link_cocitation,
    "docs_link_hits": docs_link_hits,
    "docs_redirect_resolution": docs_redirect_resolution,
    "docs_length_quantiles": docs_length_quantiles,
    "embed_scalar_quantize": embed_scalar_quantize,
    "docs_normalized_dedup": docs_normalized_dedup,
    "docs_mirror_groups": docs_mirror_groups,
    "docs_anchor_text": docs_anchor_text,
    "events_cusum_drift": events_cusum_drift,
    "docs_vocab_coverage": docs_vocab_coverage,
    "docs_heaps_law": docs_heaps_law,
    "docs_filter_agreement": docs_filter_agreement,
    "docs_weak_label_model": docs_weak_label_model,
    "kg_entity_pagerank": kg_entity_pagerank,
    "kg_snapshot_diff": kg_snapshot_diff,
    "events_session_paths": events_session_paths,
    "kg_entity_cooccurrence": kg_entity_cooccurrence,
    "events_ks_value_drift": events_ks_value_drift,
    "lineitem_mannwhitney_returnflag": lineitem_mannwhitney_returnflag,
    "lineitem_spearman_qty_price": lineitem_spearman_qty_price,
    "events_chi_square_cohorts": events_chi_square_cohorts,
    "events_transition_entropy": events_transition_entropy,
    "events_hill_tail_index": events_hill_tail_index,
    "orders_daily_autocorr": orders_daily_autocorr,
    "embed_pca_top_component": embed_pca_top_component,
    "customer_fellegi_sunter": customer_fellegi_sunter,
    "events_holt_smoothing": events_holt_smoothing,
    "events_changepoint": events_changepoint,
    "events_trend_test": events_trend_test,
    "docs_token_lang_mi": docs_token_lang_mi,
    "docs_langid_confusion": docs_langid_confusion,
    "events_anova_value_by_type": events_anova_value_by_type,
    "lineitem_ols_qty_discount": lineitem_ols_qty_discount,
    "lineitem_kendall_qty_price": lineitem_kendall_qty_price,
    "events_conversion_ab_test": events_conversion_ab_test,
    "docs_source_lang_diversity": docs_source_lang_diversity,
    "lineitem_frequent_triples": lineitem_frequent_triples,
    "customer_sorted_neighborhood": customer_sorted_neighborhood,
    "graph_avg_neighbor_degree_parts": graph_avg_neighbor_degree_parts,
    "graph_rich_club_parts": graph_rich_club_parts,
    "docs_code_detection": docs_code_detection,
    "events_interarrival_stats": events_interarrival_stats,
    "docs_f2_moment": docs_f2_moment,
    "events_markov_stationary": events_markov_stationary,
    "graph_closeness_parts": graph_closeness_parts,
    "docs_bm25_ndcg": docs_bm25_ndcg,
    "docs_kneser_ney": docs_kneser_ney,
    "events_weekday_seasonality": events_weekday_seasonality,
    "lineitem_gini_stump": lineitem_gini_stump,
    "embed_mutual_knn": embed_mutual_knn,
    "graph_betweenness_parts": graph_betweenness_parts,
    "customer_naive_bayes": customer_naive_bayes,
    "docs_good_turing": docs_good_turing,
    "lineitem_welch_ttest": lineitem_welch_ttest,
    "docs_burstiness": docs_burstiness,
    "orders_allen_relations": orders_allen_relations,
    "graph_diameter_parts": graph_diameter_parts,
    "lineitem_logreg": lineitem_logreg,
    "events_hitting_time": events_hitting_time,
    "events_neyman_allocation": events_neyman_allocation,
    "docs_entropy_rate": docs_entropy_rate,
    "docs_yule_k": docs_yule_k,
    "customer_theil_index": customer_theil_index,
    "orders_hhi_by_nation": orders_hhi_by_nation,
    "graph_squares_parts": graph_squares_parts,
    "events_seasonal_decompose": events_seasonal_decompose,
    "customer_lorenz_deciles": customer_lorenz_deciles,
    "docs_burrows_delta": docs_burrows_delta,
    "docs_doremi_weights": docs_doremi_weights,
    "embed_grid_clusters": embed_grid_clusters,
    "events_shapley_attribution": events_shapley_attribution,
    "events_sequence_patterns": events_sequence_patterns,
    "orders_wasserstein_by_nation": orders_wasserstein_by_nation,
    "docs_boilerplate_shingles": docs_boilerplate_shingles,
    "lineitem_theil_sen": lineitem_theil_sen,
    "events_cramers_v_props": events_cramers_v_props,
    "nation_order_hhi": nation_order_hhi,
    "graph_ppr_parts": graph_ppr_parts,
    "events_decayed_counts": events_decayed_counts,
    "docs_zipf_slope": docs_zipf_slope,
    "docs_lang_entropy_by_source": docs_lang_entropy_by_source,
    "supplier_part_gini": supplier_part_gini,
    "media_audio_stats": media_audio_stats,
}

# The driver's CORRECTNESS snapshot hashes the FIRST 50 queries()
# entries in dict order (CLAUDE.md): keep that prefix curated — every
# entry SQL/pin-oracled — and rotate each round's strongest new
# operators in so they gain driver-hash signal (round-4 additions had
# sweep-only signal; the displaced round-≤3 entries keep their sweep
# + pytest oracles).
_PREFIX_PROMOTE = [
    # round-4 flagships
    "graph_closeness_parts", "graph_betweenness_parts",
    "docs_kneser_ney", "lineitem_logreg", "docs_burrows_delta",
    "docs_doremi_weights", "events_shapley_attribution",
    "orders_wasserstein_by_nation",
    # round-5 flagships (bitset-BFS PPR, boilerplate detection,
    # robust slope, HHI w/ map-side combine, real-codec audio,
    # decayed counters, Zipf fit)
    "graph_ppr_parts", "docs_boilerplate_shingles",
    "lineitem_theil_sen", "nation_order_hhi", "media_audio_stats",
    "events_decayed_counts", "docs_zipf_slope",
]
_keep = [n for n in QUERIES if n not in _PREFIX_PROMOTE]
QUERIES = {**{n: QUERIES[n] for n in _keep[:35]},
           **{n: QUERIES[n] for n in _PREFIX_PROMOTE},
           **{n: QUERIES[n] for n in _keep[35:]}}
del _keep


ORACLES = {
    "lineitem_group_agg": SQL_LINEITEM_GROUP_AGG,
    "lineitem_filter_agg": SQL_LINEITEM_FILTER_AGG,
    "topk_orders": SQL_TOPK_ORDERS,
    "orders_skyline": SQL_ORDERS_SKYLINE,
    "lineitem_benford": _sql_benford(),
    "lineitem_price_mad_outliers": _SQL_PRICE_MAD_OUTLIERS,
    "graph_kcore_parts": _sql_kcore(),
    "graph_ktruss_parts": _sql_ktruss(),
    "graph_wl_colors_parts": SQL_GRAPH_WL_COLORS_PARTS,
    "graph_label_propagation_parts": _sql_label_propagation(),
    "graph_modularity_parts": _sql_modularity(),
    "graph_sssp_parts": _sql_sssp(),
    "events_time_weighted_avg": SQL_EVENTS_TIME_WEIGHTED_AVG,
    "lineitem_association_rules": SQL_LINEITEM_ASSOCIATION_RULES,
    "docs_readability": SQL_DOCS_READABILITY,
    "events_ewma": SQL_EVENTS_EWMA,
    "docs_rake_scores": _sql_rake(),
    "docs_link_graph": _SQL_LINK_GRAPH,
    "docs_link_pagerank": _link_pagerank_sql(PAGERANK_ITERS, 10 ** 12,
                                             85, 100),
    "docs_domain_pagerank": _domain_pagerank_sql(PAGERANK_ITERS, 10 ** 12,
                                                 85, 100),
    "docs_domain_trustrank": _trustrank_rounds_sql(
        _domain_edges_sql_head(), PAGERANK_ITERS, 10 ** 12, 85, 100,
        "%.edu"),
    "docs_link_bfs": _link_bfs_sql(LINK_BFS_HOPS, LINK_BFS_SEED_STRIDE),
    "docs_link_cocitation": _SQL_LINK_COCITATION,
    # 10**6 == functions.graph.HITS_SCALE (pinned by test_graph hits test)
    "docs_link_hits": _link_hits_sql(HITS_ITERS, 10 ** 6),
    "docs_redirect_resolution": _redirect_resolution_sql(REDIRECT_HOPS),
    "docs_quality_classifier": _sql_quality_classifier(),
    "embed_scalar_quantize": _sql_scalar_quantize(10 ** 6, EMBED_DIM,
                                                  SQ_LEVELS),
    "docs_quality_dedup": _sql_quality_dedup(),
    "docs_anchor_text": _SQL_ANCHOR_TEXT,
    "customer_nation_join": SQL_CUSTOMER_NATION_JOIN,
    "supplier_region_join": SQL_SUPPLIER_REGION_JOIN,
    "part_brand_stats": SQL_PART_BRAND_STATS,
    "region_nation_union": SQL_REGION_NATION_UNION,
    "events_users_intersect_except": SQL_EVENTS_USERS_INTERSECT_EXCEPT,
    "docs_source_stats": SQL_DOCS_SOURCE_STATS,
    "events_type_stats": SQL_EVENTS_TYPE_STATS,
    "events_daily_window": SQL_EVENTS_DAILY_WINDOW,
    "events_type_pivot": SQL_EVENTS_TYPE_PIVOT,
    "events_funnel_click_purchase": SQL_EVENTS_FUNNEL,
    "events_anti_join": SQL_EVENTS_ANTI_JOIN,
    "events_sessionize": SQL_EVENTS_SESSIONIZE,
    "events_running_total": SQL_EVENTS_RUNNING_TOTAL,
    "lineitem_topk_per_group": SQL_LINEITEM_TOPK_PER_GROUP,
    "docs_normalized_dedup": SQL_DOCS_NORMALIZED_DEDUP,
    "docs_mirror_groups": SQL_DOCS_MIRROR_GROUPS,
    "docs_decontaminate": SQL_DOCS_DECONTAMINATE,
    "docs_deterministic_shuffle": SQL_DOCS_DETERMINISTIC_SHUFFLE,
    "docs_bpe_pairs": SQL_DOCS_BPE_PAIRS,
    "docs_pmi_collocations": SQL_DOCS_PMI_COLLOCATIONS,
    "docs_token_count": SQL_DOCS_TOKEN_COUNT,
    "docs_source_length_zscore": SQL_DOCS_SOURCE_LENGTH_ZSCORE,
    "docs_quality": SQL_DOCS_QUALITY,
    "docs_word_freq": SQL_DOCS_WORD_FREQ,
    "docs_tfidf_topk": SQL_DOCS_TFIDF_TOPK,
    "docs_fingerprint": SQL_DOCS_FINGERPRINT,
    "docs_exact_dedup": SQL_DOCS_EXACT_DEDUP,
    "docs_lang_dist": SQL_DOCS_LANG_DIST,
    "embed_norms": SQL_EMBED_NORMS,
    "knn_cosine": SQL_KNN_COSINE,
    "graph_degree_customers": SQL_GRAPH_DEGREE_CUSTOMERS,
    "graph_components_customers": SQL_GRAPH_COMPONENTS_CUSTOMERS,
    "graph_khop_customers": SQL_GRAPH_KHOP_CUSTOMERS,
    "graph_pagerank_customers": SQL_GRAPH_PAGERANK_CUSTOMERS,
    "embed_kmeans_clusters": SQL_EMBED_KMEANS_CLUSTERS,
    "embed_kcenter_coreset": _kcenter_sql(KCENTER_K, 10 ** 6, EMBED_DIM),
    "embed_semantic_dedup": SQL_EMBED_SEMANTIC_DEDUP,
    "embed_jl_projection": _jl_sql(),
    "docs_shingles": SQL_DOCS_SHINGLES,
    "events_sliding_window": SQL_EVENTS_SLIDING_WINDOW,
    "lineitem_quantiles": SQL_LINEITEM_QUANTILES,
    "lineitem_price_ddsketch": SQL_LINEITEM_PRICE_DDSKETCH,
    "docs_langid_heuristic": SQL_DOCS_LANGID,
    "docs_simhash": SQL_DOCS_SIMHASH,
    "docs_simhash_dedup": SQL_DOCS_SIMHASH_DEDUP,
    "docs_rolling_fingerprint": SQL_DOCS_ROLLING_FINGERPRINT,
    "docs_minhash_dedup": SQL_DOCS_MINHASH_DEDUP,
    "docs_dedup_clusters": SQL_DOCS_DEDUP_CLUSTERS,
    "docs_dedup_cluster_eval": SQL_DOCS_DEDUP_CLUSTER_EVAL.replace(
        "{clusters_sql}", SQL_DOCS_DEDUP_CLUSTERS),
    "docs_lsh_recall_eval": SQL_DOCS_LSH_RECALL_EVAL,
    "docs_split_leakage": SQL_DOCS_SPLIT_LEAKAGE,
    "docs_dsir_sample": SQL_DOCS_DSIR_SAMPLE,
    "docs_bigram_logprob": SQL_DOCS_BIGRAM_LOGPROB,
    "customer_orders_bucketed_join": SQL_CUSTOMER_ORDERS_BUCKETED_JOIN,
    "customer_supplier_balance_link": SQL_CUSTOMER_SUPPLIER_BALANCE_LINK,
    "events_debounce": SQL_EVENTS_DEBOUNCE,
    "docs_incremental_dedup": SQL_DOCS_INCREMENTAL_DEDUP,
    "orders_range_layout": SQL_ORDERS_RANGE_LAYOUT,
    "orders_pruned_range_scan": SQL_ORDERS_PRUNED_RANGE_SCAN,
    "orders_concurrent_pairs": SQL_ORDERS_CONCURRENT_PAIRS,
    "docs_skipgram_pairs": SQL_DOCS_SKIPGRAM_PAIRS,
    "graph_predicate_stats": SQL_GRAPH_PREDICATE_STATS,
    "customer_name_typo_pairs": SQL_CUSTOMER_NAME_TYPO_PAIRS,
    "docs_alias_jw_matches": SQL_DOCS_ALIAS_JW_MATCHES,
    "events_click_near_purchase": SQL_EVENTS_CLICK_NEAR_PURCHASE,
    "knn_graph": SQL_KNN_GRAPH,
    "docs_version_diff": SQL_DOCS_VERSION_DIFF,
    "q5_local_supplier_revenue": SQL_Q5_LOCAL_SUPPLIER_REVENUE,
    "events_value_winsorized": SQL_EVENTS_VALUE_WINSORIZED,
    "embed_triplet_mine": SQL_EMBED_TRIPLET_MINE,
    "events_late_flags": SQL_EVENTS_LATE_FLAGS,
    "events_user_trend": SQL_EVENTS_USER_TREND,
    "customer_entity_resolution": SQL_CUSTOMER_ENTITY_RESOLUTION,
    "customer_golden_records": SQL_CUSTOMER_GOLDEN_RECORDS,
    "customer_blocking_eval": SQL_CUSTOMER_BLOCKING_EVAL,
    "docs_source_scorecard": SQL_DOCS_SOURCE_SCORECARD,
    "embed_label_propagation": SQL_EMBED_LABEL_PROPAGATION,
    "docs_source_quota": SQL_DOCS_SOURCE_QUOTA,
    "docs_source_divergence": SQL_DOCS_SOURCE_DIVERGENCE,
    "docs_source_influence": SQL_DOCS_SOURCE_INFLUENCE,
    "docs_exact_stratified_split": SQL_DOCS_EXACT_STRATIFIED_SPLIT,
    "orders_pushdown_filter_agg": SQL_ORDERS_PUSHDOWN_FILTER_AGG,
    "events_daily_resample_ffill": SQL_EVENTS_DAILY_RESAMPLE_FFILL,
    "orders_quality_checks": SQL_ORDERS_QUALITY_CHECKS,
    "docs_cdc_apply": SQL_DOCS_CDC_APPLY,
    "docs_source_concentration": SQL_DOCS_SOURCE_CONCENTRATION,
    "events_timed_conversion": SQL_EVENTS_TIMED_CONVERSION,
    "events_attribution_credit": SQL_EVENTS_ATTRIBUTION_CREDIT,
    "lineitem_cube": SQL_LINEITEM_CUBE,
    "docs_ngram_novelty": SQL_DOCS_NGRAM_NOVELTY,
    "docs_heavy_hitters_verified": SQL_DOCS_HEAVY_HITTERS_VERIFIED,
    "embed_cosine_pairs": SQL_EMBED_COSINE_PAIRS,
    "embed_cosine_pairs_lsh": SQL_EMBED_COSINE_PAIRS_LSH,
    "docs_hash_split": SQL_DOCS_HASH_SPLIT,
    "docs_pack_sequences": SQL_DOCS_PACK_SEQUENCES,
    "events_asof_view": SQL_EVENTS_ASOF_VIEW,
    "docs_lang_balanced_sample": SQL_DOCS_LANG_BALANCED_SAMPLE,
    "docs_bottomk_per_lang": SQL_DOCS_BOTTOMK_PER_LANG,
    "docs_weighted_sample": SQL_DOCS_WEIGHTED_SAMPLE,
    "docs_oov_ratio": SQL_DOCS_OOV_RATIO,
    "docs_duplicated_spans": SQL_DOCS_DUPLICATED_SPANS,
    "docs_paragraph_dedup": SQL_DOCS_PARAGRAPH_DEDUP,
    "docs_unigram_logprob": SQL_DOCS_UNIGRAM_LOGPROB,
    "docs_token_entropy": SQL_DOCS_TOKEN_ENTROPY,
    "events_type_transitions": SQL_EVENTS_TYPE_TRANSITIONS,
    "events_psi_drift": SQL_EVENTS_PSI_DRIFT,
    "docs_gopher_filter": SQL_DOCS_GOPHER_FILTER,
    "docs_pii_scrub": _sql_pii_scrub(),
    "docs_c4_filter": _sql_c4_filter(),
    "docs_url_dedup": SQL_DOCS_URL_DEDUP,
    "docs_domain_mixture": SQL_DOCS_DOMAIN_MIXTURE,
    "docs_winnowing": _sql_winnowing(),
    "docs_domain_blocklist": _sql_domain_blocklist(),
    "docs_filter_funnel": _sql_filter_funnel(),
    "docs_length_quantiles": _sql_length_quantiles(),
    "embed_centroid_outliers": SQL_EMBED_CENTROID_OUTLIERS,
    "docs_zipf_alpha": _sql_zipf_alpha(),
    "docs_mojibake": _sql_mojibake(),
    "fd_audit": _sql_fd_audit(),
    "events_snapshot_diff": SQL_EVENTS_SNAPSHOT_DIFF,
    "docs_perplexity_tiers": _sql_perplexity_tiers(),
    "docs_hybrid_rrf": SQL_DOCS_HYBRID_RRF,
    "docs_jaccard_pairs": SQL_DOCS_JACCARD_PAIRS,
    "docs_containment_pairs": SQL_DOCS_CONTAINMENT_PAIRS,
    "docs_bm25_topk": SQL_DOCS_BM25_TOPK,
    "docs_temperature_sample": SQL_DOCS_TEMPERATURE_SAMPLE,
    "docs_source_overlap": SQL_DOCS_SOURCE_OVERLAP,
    "docs_chunk_windows": SQL_DOCS_CHUNK_WINDOWS,
    "events_props_stats": SQL_EVENTS_PROPS_STATS,
    "lineitem_profile": SQL_LINEITEM_PROFILE,
    "graph_triangles_parts": SQL_GRAPH_TRIANGLES_PARTS,
    "graph_assortativity_parts": SQL_GRAPH_ASSORTATIVITY_PARTS,
    "graph_clustering_parts": SQL_GRAPH_CLUSTERING_PARTS,
    "customer_rfm_segments": SQL_CUSTOMER_RFM_SEGMENTS,
    "events_user_skew_profile": SQL_EVENTS_USER_SKEW_PROFILE,
    "docs_textrank_keywords": _sql_textrank(),
    "events_multistep_funnel": SQL_EVENTS_MULTISTEP_FUNNEL,
    "events_orders_join_estimate": SQL_EVENTS_ORDERS_JOIN_ESTIMATE,
    "customer_k_anonymity": SQL_CUSTOMER_K_ANONYMITY,
    "orders_bootstrap_ci": SQL_ORDERS_BOOTSTRAP_CI,
    "graph_link_prediction_parts": SQL_GRAPH_LINK_PREDICTION_PARTS,
    "docs_curation_pipeline": SQL_DOCS_CURATION_PIPELINE,
    "docs_curation_funnel": SQL_DOCS_CURATION_FUNNEL,
    "events_value_outliers": SQL_EVENTS_VALUE_OUTLIERS,
    "events_latest_per_user": SQL_EVENTS_LATEST_PER_USER,
    "lineitem_frequent_pairs": SQL_LINEITEM_FREQUENT_PAIRS,
    "embed_label_centroids": SQL_EMBED_LABEL_CENTROIDS,
    "events_rolling_active_users": SQL_EVENTS_ROLLING_ACTIVE_USERS,
    "kg_negative_samples": SQL_KG_NEGATIVE_SAMPLES,
    "events_cohort_retention": SQL_EVENTS_COHORT_RETENTION,
    "events_kaplan_meier": SQL_EVENTS_KAPLAN_MEIER,
    "events_user_modal_type": SQL_EVENTS_USER_MODAL_TYPE,
    "docs_inverted_index": SQL_DOCS_INVERTED_INDEX,
    "docs_topk_tokens_per_lang": SQL_DOCS_TOPK_TOKENS_PER_LANG,
    "docs_above_median_tokens": SQL_DOCS_ABOVE_MEDIAN_TOKENS,
    "lineitem_quantity_bands": SQL_LINEITEM_QUANTITY_BANDS,
    "docs_repetition": SQL_DOCS_REPETITION,
    "events_lag_delta": SQL_EVENTS_LAG_DELTA,
    "events_distinct_users_exact": SQL_EVENTS_DISTINCT_USERS_EXACT,
    "revenue_by_nation": SQL_REVENUE_BY_NATION,
    "lineitem_part_skew_join": SQL_LINEITEM_PART_SKEW_JOIN,
    "customers_order_counts": SQL_CUSTOMERS_ORDER_COUNTS,
    "orders_period_full_join": SQL_ORDERS_PERIOD_FULL_JOIN,
    "lineitem_rollup": SQL_LINEITEM_ROLLUP,
    "orders_price_ntile": SQL_ORDERS_PRICE_NTILE,
    "lineitem_price_histogram": SQL_LINEITEM_PRICE_HISTOGRAM,
    "lineitem_qty_price_corr": SQL_LINEITEM_QTY_PRICE_CORR,
    "orders_above_customer_avg": SQL_ORDERS_ABOVE_CUSTOMER_AVG,
    "docs_pretrain_pipeline": SQL_DOCS_PRETRAIN_PIPELINE,
    "events_cusum_drift": SQL_EVENTS_CUSUM_DRIFT,
    "docs_vocab_coverage": SQL_DOCS_VOCAB_COVERAGE,
    "docs_heaps_law": SQL_DOCS_HEAPS_LAW,
    "docs_filter_agreement": _sql_filter_agreement(),
    "docs_weak_label_model": _weak_label_sql(),
    "events_session_paths": SQL_EVENTS_SESSION_PATHS,
    "events_ks_value_drift": SQL_EVENTS_KS_VALUE_DRIFT,
    "lineitem_mannwhitney_returnflag": SQL_LINEITEM_MANNWHITNEY,
    "lineitem_spearman_qty_price": SQL_LINEITEM_SPEARMAN,
    "events_chi_square_cohorts": SQL_EVENTS_CHI_SQUARE_COHORTS,
    "events_transition_entropy": SQL_EVENTS_TRANSITION_ENTROPY,
    "events_hill_tail_index": SQL_EVENTS_HILL_TAIL_INDEX,
    "orders_daily_autocorr": SQL_ORDERS_DAILY_AUTOCORR,
    "embed_pca_top_component": _sql_pca(PCA_ITERS),
    "customer_fellegi_sunter": _sql_fellegi_sunter(),
    "events_holt_smoothing": _sql_holt(),
    "events_changepoint": SQL_EVENTS_CHANGEPOINT,
    "events_trend_test": SQL_EVENTS_TREND_TEST,
    "docs_token_lang_mi": SQL_DOCS_TOKEN_LANG_MI,
    "docs_langid_confusion": SQL_DOCS_LANGID_CONFUSION,
    "events_anova_value_by_type": SQL_EVENTS_ANOVA,
    "lineitem_ols_qty_discount": SQL_LINEITEM_OLS,
    "lineitem_kendall_qty_price": _sql_kendall(),
    "events_conversion_ab_test": SQL_EVENTS_CONVERSION_AB,
    "docs_source_lang_diversity": SQL_DOCS_SOURCE_LANG_DIVERSITY,
    "lineitem_frequent_triples": SQL_LINEITEM_FREQUENT_TRIPLES,
    "customer_sorted_neighborhood": SQL_CUSTOMER_SORTED_NEIGHBORHOOD,
    "events_approx_distinct_users": _sql_hll_users(),
    "graph_avg_neighbor_degree_parts": SQL_GRAPH_AVG_NBR_DEG,
    "graph_rich_club_parts": SQL_GRAPH_RICH_CLUB,
    "docs_code_detection": SQL_DOCS_CODE_DETECTION,
    "events_interarrival_stats": SQL_EVENTS_INTERARRIVAL,
    "docs_f2_moment": _sql_f2(),
    "events_markov_stationary": _sql_markov(),
    "graph_closeness_parts": _sql_closeness(),
    "docs_bm25_ndcg": SQL_DOCS_BM25_NDCG,
    "docs_kneser_ney": SQL_DOCS_KNESER_NEY,
    "events_weekday_seasonality": SQL_EVENTS_WEEKDAY_SEASONALITY,
    "lineitem_gini_stump": SQL_LINEITEM_GINI_STUMP,
    "embed_mutual_knn": SQL_EMBED_MUTUAL_KNN,
    "graph_betweenness_parts": _sql_betweenness(),
    "customer_naive_bayes": SQL_CUSTOMER_NAIVE_BAYES,
    "docs_good_turing": SQL_DOCS_GOOD_TURING,
    "lineitem_welch_ttest": SQL_LINEITEM_WELCH_TTEST,
    "docs_burstiness": SQL_DOCS_BURSTINESS,
    "orders_allen_relations": SQL_ORDERS_ALLEN_RELATIONS,
    "graph_diameter_parts": _sql_diameter(),
    "lineitem_logreg": _sql_logreg(),
    "events_hitting_time": _sql_hitting(),
    "events_neyman_allocation": SQL_EVENTS_NEYMAN,
    "docs_entropy_rate": SQL_DOCS_ENTROPY_RATE,
    "docs_yule_k": SQL_DOCS_YULE_K,
    "customer_theil_index": SQL_CUSTOMER_THEIL,
    "orders_hhi_by_nation": SQL_ORDERS_HHI,
    "graph_squares_parts": SQL_GRAPH_SQUARES_PARTS,
    "events_seasonal_decompose": SQL_EVENTS_SEASONAL_DECOMPOSE,
    "customer_lorenz_deciles": SQL_CUSTOMER_LORENZ,
    "docs_burrows_delta": SQL_DOCS_BURROWS_DELTA,
    "docs_doremi_weights": _sql_doremi(),
    "embed_grid_clusters": SQL_EMBED_GRID_CLUSTERS,
    "events_shapley_attribution": _sql_shapley(),
    "events_sequence_patterns": SQL_EVENTS_SEQUENCE_PATTERNS,
    "orders_wasserstein_by_nation": SQL_ORDERS_WASSERSTEIN,
    "docs_boilerplate_shingles": SQL_DOCS_BOILERPLATE,
    "lineitem_theil_sen": SQL_LINEITEM_THEIL_SEN,
    "events_cramers_v_props": SQL_EVENTS_CRAMERS_V,
    "nation_order_hhi": SQL_NATION_ORDER_HHI,
    "graph_ppr_parts": _sql_ppr(),
    "events_decayed_counts": _sql_decayed(),
    "docs_zipf_slope": SQL_DOCS_ZIPF,
    "docs_lang_entropy_by_source": SQL_DOCS_LANG_ENTROPY,
    "supplier_part_gini": SQL_SUPPLIER_PART_GINI,
}

# Pinned-value oracles for the model pipelines (golden pins — regenerate
# with scripts/gen_pins.py ONLY on a deliberate semantic change, and say
# why in the commit). Kept in a generated module so the pin data never
# drifts from the generator.
try:
    from .pins import PINNED_ORACLES
except ImportError:          # first build before pins are generated
    PINNED_ORACLES = {}
ORACLES.update(PINNED_ORACLES)
