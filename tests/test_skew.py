"""Skew-handling tests: hot keys must not concentrate work or break results.

North-star: "entity canonicalization runs as a groupby-aggregate shuffle on
normalized surface-form keys with explicit hash partitioning and salted keys
for head-entity skew".
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from opennre_ray.functions.relational import hash_bucket_aggregate
from opennre_ray.pipelines.bag import BagScorer
from opennre_ray.pipelines.kg import _partial_triples
from opennre_ray.stages.canonicalize import (
    _argmax_bucket,
    fold_canonical_map,
    surface_votes,
)


def _candidates(rows):
    """Mention rows → candidate rows (predicate, score, url and model
    hash filled in where a row does not set them)."""
    return [{"pred_rel": "r", "score": 0.5, "url": "u", "model_hash": "m",
             **r} for r in rows]


def _canonical_map(ds, n_buckets):
    """{norm_surface: canonical_id} through the library's own steps:
    surface-keyed triple partials, then the fold over them as one
    bucket (``n_buckets=1``) or per-block votes → the argmax in
    ``n_buckets`` buckets (None: sized from the vote count)."""
    partials = ds.map_batches(_partial_triples,
                              batch_format="pyarrow").materialize()
    if n_buckets == 1:
        canon = hash_bucket_aggregate(partials, ["norm_surface"],
                                      fold_canonical_map, n_buckets=1)
    else:
        votes = partials.map_batches(surface_votes,
                                     batch_format="pyarrow").materialize()
        canon = hash_bucket_aggregate(votes, ["norm_surface"], _argmax_bucket,
                                      n_buckets=n_buckets,
                                      rows_hint=votes.count())
    df = canon.to_pandas()
    return dict(zip(df["norm_surface"], df["canonical_id"]))


def test_partial_counts_absorb_hot_surface():
    """A surface mentioned N times in a block emits ONE vote row —
    map-side combining is the salt (SURVEY §7.3, canonicalize.py phase 1)."""
    n = 10_000
    batch = pa.Table.from_pylist(_candidates(
        {"h_name": "France", "h_id": "Q142", "t_name": f"city{i}",
         "t_id": f"Q{i}"} for i in range(n)))
    df = surface_votes(_partial_triples(batch)).to_pandas()
    hot = df[df.norm_surface == "france"]
    assert len(hot) == 1
    assert hot.iloc[0]["cnt"] == n


def test_canonical_map_under_skew(ray_session):
    import ray.data as rd

    rows = ([{"h_name": "France", "h_id": "Q142", "t_name": "Paris",
              "t_id": "QP"}] * 500
            + [{"h_name": "france", "h_id": "QBAD", "t_name": "Lyon",
                "t_id": "QL"}] * 3)
    ds = rd.from_items(_candidates(rows), override_num_blocks=8)
    for n_buckets in (1, None):
        canon = _canonical_map(ds, n_buckets)
        assert canon["france"] == "Q142"      # majority id wins


def test_hash_bucket_aggregate_hot_key_exact(ray_session):
    """One key holding 90% of rows still aggregates exactly (single bucket
    reduction is one vectorized op, not per-row Python)."""
    import ray.data as rd

    rows = [{"k": "hot", "v": 1.0}] * 9000 + \
           [{"k": f"cold{i}", "v": 2.0} for i in range(1000)]
    ds = rd.from_items(rows, override_num_blocks=16)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False).agg(n=("v", "size"),
                                                  s=("v", "sum"))

    out = hash_bucket_aggregate(ds, ["k"], per_bucket, n_buckets=8).to_pandas()
    assert len(out) == 1001
    hot = out[out.k == "hot"].iloc[0]
    assert hot["n"] == 9000 and hot["s"] == 9000.0


def test_single_bucket_aggregate_equals_bucketed(ray_session):
    """n_buckets=1 folds in one task without a shuffle and equals the
    bucketed aggregate, with a partial combiner and with emptied blocks
    (which Ray passes on with the source schema) in the input."""
    import ray
    import ray.data as rd

    rows = [{"k": "cold", "v": 2.0}] * 125 + \
           [{"k": f"k{i % 30}", "v": float(i)} for i in range(875)]
    ds = rd.from_items(rows, override_num_blocks=8).map_batches(
        lambda t: t.slice(0, 0) if t.column("k")[0].as_py() == "cold"
        else t, batch_format="pyarrow").materialize()
    assert 0 in [t.num_rows for t in ray.get(ds.to_arrow_refs())]

    def part(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False).agg(n=("v", "size"),
                                                  s=("v", "sum"))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False).agg(n=("n", "sum"),
                                                  s=("s", "sum"))

    def run(n_buckets):
        return (hash_bucket_aggregate(ds, ["k"], merge, n_buckets=n_buckets,
                                      partial=part).to_pandas()
                .sort_values("k", ignore_index=True))

    one = run(1)
    assert len(one) == 30 and one["n"].sum() == 875
    pd.testing.assert_frame_equal(one, run(8))
    empty = hash_bucket_aggregate(ds.limit(0), ["k"], merge, n_buckets=1)
    assert empty.count() == 0


def test_adaptive_buckets_bound_per_bucket_rows():
    """n_buckets scales with the input row hint so per-bucket size stays
    ~TARGET_ROWS_PER_BUCKET at any input scale (a fixed 64 would put
    rows/64 of a 10× input in one worker's heap)."""
    from opennre_ray.functions.relational import (
        TARGET_ROWS_PER_BUCKET,
        compute_n_buckets,
    )

    assert compute_n_buckets(None) == 64
    for rows in (1, 10_000, 1_000_000, 10_000_000, 1_000_000_000):
        n = compute_n_buckets(rows)
        assert 16 <= n <= 4096
        if 16 < n < 4096:
            # interior regime: the per-bucket expectation is bounded
            assert rows / n <= TARGET_ROWS_PER_BUCKET
    # 10× the input → ~10× the buckets (same expected per-bucket rows)
    assert compute_n_buckets(10_000_000) >= 9 * compute_n_buckets(1_000_000)


def test_shuffle_join_matches_pandas_merge(ray_session):
    """Bucketed large-large join == pandas merge (inner / semi / anti)."""
    import ray.data as rd

    from opennre_ray.functions.relational import shuffle_join

    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": [f"k{i % 40}" for i in range(300)],
                         "lv": rng.integers(0, 9, 300).astype(str)})
    right = pd.DataFrame({"rk": [f"k{i}" for i in range(0, 60, 2)],
                          "rv": [f"v{i}" for i in range(0, 60, 2)]})
    lds = rd.from_pandas(left).repartition(7)
    rds = rd.from_pandas(right).repartition(3)

    got = shuffle_join(lds, rds, "k", "rk", ["lv"], ["rv"],
                       n_buckets=16).to_pandas()
    want = left.merge(right, left_on="k", right_on="rk")[["k", "lv", "rv"]]
    key = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True), check_dtype=False)

    anti = shuffle_join(lds, rds, "k", "rk", ["lv"], [],
                        how="left_anti", n_buckets=16).to_pandas()
    want_anti = left[~left["k"].isin(right["rk"])]
    assert len(anti) == len(want_anti)
    assert set(anti["k"]) == set(want_anti["k"])

    semi = shuffle_join(lds, rds, "k", "rk", ["lv"], [],
                        how="left_semi", n_buckets=16).to_pandas()
    assert len(semi) == len(left) - len(want_anti)


def test_anti_join_size_gate(ray_session):
    """Both anti-join strategies agree; the shuffle path engages when the
    distinct key set exceeds the broadcast limit."""
    import ray.data as rd

    from opennre_ray.functions.relational import anti_join

    left = pd.DataFrame({"k": [f"u{i % 500}" for i in range(2000)],
                         "x": ["p"] * 2000})
    right = pd.DataFrame({"k": [f"u{i}" for i in range(0, 500, 3)]})
    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right).repartition(3)
    want = sorted(set(left["k"]) - set(right["k"]))

    bcast = anti_join(lds, rds, "k", ["x"]).to_pandas()
    shuf = anti_join(lds, rds, "k", ["x"], broadcast_limit=10).to_pandas()
    assert sorted(bcast["k"].unique()) == want
    assert sorted(shuf["k"].unique()) == want
    assert list(bcast.columns) == ["k", "x"] == list(shuf.columns)
    assert len(bcast) == len(shuf)


def test_giant_bag_bounded_by_resample():
    """Bag-size skew: a 5000-instance bag is capped to bag_size encoder
    work (G4 semantics), deterministically."""
    scorer = BagScorer("nyt10_pcnn_att", bag_size=8)
    g = pd.DataFrame([{
        "text": f"data stream window batch row {i}", "h_id": "H", "t_id": "T",
        "h_start": 0, "h_end": 4, "t_start": 5, "t_end": 11,
    } for i in range(5000)])
    out1 = scorer(g.copy())
    out2 = scorer(g.copy())
    pd.testing.assert_frame_equal(out1, out2)
    assert (out1["bag_size"] == 8).all()


def test_asof_join_hot_key_exact(ray_session):
    """One key owning 90% of both sides still resolves exactly (the hot
    key lands in one bucket whose merge_asof is one vectorized pass)."""
    import ray.data as rd

    from opennre_ray.functions.relational import asof_join

    rng = np.random.default_rng(21)
    n = 4000
    keys = np.where(rng.random(n) < 0.9, 7, rng.integers(0, 40, n))
    left = pd.DataFrame({"k": keys, "t": np.arange(n, dtype="int64"),
                         "lv": np.arange(n)})
    right = pd.DataFrame({"k": keys[::2], "t": np.arange(0, n, 2) - 1,
                          "rv": np.arange(n // 2)})
    got = asof_join(rd.from_pandas(left).repartition(8),
                    rd.from_pandas(right).repartition(8),
                    "k", "t", ["lv"], ["rv"], how="inner",
                    n_buckets=16).to_pandas()
    want = pd.merge_asof(left.sort_values("t"),
                         right.sort_values("t").rename(
                             columns={"rv": "rv_m"}),
                         on="t", by="k", direction="backward").dropna(
                             subset=["rv_m"])
    assert len(got) == len(want)
    g = got.sort_values(["k", "t"]).reset_index(drop=True)
    w = want.sort_values(["k", "t"]).reset_index(drop=True)
    assert (g["rv_m"].to_numpy() == w["rv_m"].to_numpy()).all()


def test_anti_join_bloom_path_cross_dtype_and_schema(ray_session):
    """The bloom-prefiltered fallback must (a) honor int-vs-float key
    equality like the broadcast path and (b) emit dtype-consistent blocks
    (the residual join's tagged union degrades ints to float)."""
    import pyarrow as pa
    import ray.data as rd

    from opennre_ray.functions.relational import anti_join

    left = pd.DataFrame({"k": np.arange(200, dtype="int64"),
                         "x": np.arange(200, dtype="int64") * 2})
    right = pd.DataFrame({"k": np.arange(0, 200, 2, dtype="float64")})
    lds = rd.from_pandas(left).repartition(4)
    rds = rd.from_pandas(right).repartition(3)

    got = anti_join(lds, rds, "k", ["x"], broadcast_limit=5)  # bloom path
    tbl = pa.concat_tables(
        [b for b in got.iter_batches(batch_format="pyarrow")])
    assert tbl.column("k").type == pa.int64()      # schema conformed
    assert tbl.column("x").type == pa.int64()
    assert sorted(tbl.column("k").to_pylist()) == list(range(1, 200, 2))

    bcast = anti_join(lds, rds, "k", ["x"]).to_pandas()
    assert sorted(bcast["k"]) == sorted(tbl.column("k").to_pylist())


def test_canonicalize_join_path_matches_one_block(ray_session, monkeypatch):
    """Over the vote bound (2 × partial rows above the limit),
    canonicalize_ids switches from the one-block path to the
    bucketed-join rewrite; its output must be row-identical (the size
    gate may never change semantics). Within the limit the argmax is one
    ``hash_bucket_aggregate`` bucket over the materialized partials
    themselves, with no votes execution. Over it the argmax runs
    bucketed over the votes and two joins rewrite the partials, whether
    the surfaces would fit the limit or not: the map's size decides
    nothing."""
    import ray.data as rd

    from opennre_ray.functions import relational
    from opennre_ray.pipelines.kg import _TRIPLE_COLUMNS, _merge_triples
    from opennre_ray.stages import canonicalize

    rng = np.random.default_rng(5)
    rows = []
    for i in range(400):
        s = f"Ent{i % 60}"                     # 60 surfaces, mixed case
        name = s.upper() if i % 3 == 0 else s.lower()
        rows.append({
            "h_name": name, "h_id": f"Q{i % 60}_{rng.integers(3)}",
            "t_name": f"ent{(i + 7) % 60}", "t_id": f"Q{(i + 7) % 60}_0",
            "pred_rel": "r", "score": 0.5, "url": f"u{i}",
            "model_hash": "m",
        })
    ds = rd.from_items(rows, override_num_blocks=8)
    partials = ds.map_batches(_partial_triples,
                              batch_format="pyarrow").materialize()
    n_votes = partials.map_batches(surface_votes,
                                   batch_format="pyarrow").count()
    n_surfaces = len(_canonical_map(ds, 1))
    assert 0 < n_surfaces < n_votes

    aggs, joins = [], []
    orig_agg, orig_join = (relational.hash_bucket_aggregate,
                           relational.shuffle_join)

    def counted_agg(ds, key_cols, *a, **kw):
        aggs.append((key_cols, kw.get("n_buckets"), ds is partials))
        return orig_agg(ds, key_cols, *a, **kw)

    def counted_join(*a, **kw):
        joins.append(a)
        return orig_join(*a, **kw)

    monkeypatch.setattr(relational, "hash_bucket_aggregate", counted_agg)
    monkeypatch.setattr(relational, "shuffle_join", counted_join)
    outs, calls = [], []
    # the one-bucket fold (default limit); the join path with the limit
    # at the surface count (below the vote bound) and just under it
    for limit in (canonicalize.CANON_BROADCAST_LIMIT, n_surfaces,
                  n_surfaces - 1):
        monkeypatch.setattr(canonicalize, "CANON_BROADCAST_LIMIT", limit)
        df = canonicalize.canonicalize_ids(partials, _TRIPLE_COLUMNS,
                                           _merge_triples).to_pandas()
        outs.append(df.sort_values(_TRIPLE_COLUMNS).reset_index(drop=True))
        calls.append((list(aggs), len(joins)))
        aggs.clear()
        joins.clear()
    one_block, gated, joined = outs
    # per hash_bucket_aggregate call (key columns, n_buckets, input is
    # the partials), then the join count: the argmax buckets on
    # norm_surface, each shuffle_join on its tagged _key
    fold = (["norm_surface"], 1, True)
    argmax, join = (["norm_surface"], None, False), (["_key"], None, False)
    assert calls == [([fold], 0), ([argmax, join, join], 2),
                     ([argmax, join, join], 2)]
    assert one_block["n_evidence"].sum() == len(rows)
    pd.testing.assert_frame_equal(one_block, gated, check_dtype=False)
    pd.testing.assert_frame_equal(one_block, joined, check_dtype=False)


def test_global_rank_matches_sql_row_number(ray_session):
    """Distributed rank == single-process sort rank, at any block count."""
    import ray.data as rd

    from opennre_ray.functions.relational import global_rank

    rng = np.random.default_rng(2)
    df = pd.DataFrame({"k": rng.permutation(1000), "v": np.arange(1000)})
    ds = rd.from_pandas(df).repartition(7)
    got = global_rank(ds, ["k"], out_col="r").to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    assert (got["r"].to_numpy() == np.arange(1, 1001)).all()
    # ranks are a permutation even when requested descending
    desc = global_rank(ds, ["k"], out_col="r",
                       descending=True).to_pandas()
    assert sorted(desc["r"]) == list(range(1, 1001))
    assert desc.loc[desc["k"].idxmax(), "r"] == 1


def test_skew_join_matches_merge_and_dtypes(ray_session):
    """Hybrid hot-broadcast + cold-shuffle join == plain inner join, with
    the inputs' exact Arrow dtypes restored on BOTH paths."""
    import ray.data as rd

    from opennre_ray.functions.relational import skew_join

    rng = np.random.default_rng(7)
    n = 5000
    keys = np.where(rng.random(n) < 0.4, 0,
                    rng.integers(0, 200, n)).astype(np.int64)
    left = pd.DataFrame({"k": keys,
                         "v": rng.integers(0, 99, n).astype(np.int64)})
    right = pd.DataFrame({"rk": np.arange(150, dtype=np.int64),
                          "name": [f"n{i}" for i in range(150)]})

    out = skew_join(rd.from_pandas(left).repartition(8),
                    rd.from_pandas(right).repartition(2),
                    "k", "rk", ["v"], ["name"],
                    hot_k=4, rows_hint=n).to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk")[["k", "v", "name"]]
    a = out.sort_values(["k", "v", "name"]).reset_index(drop=True)
    b = exp.sort_values(["k", "v", "name"]).reset_index(drop=True)
    assert a["k"].dtype == np.int64 and a["v"].dtype == np.int64
    pd.testing.assert_frame_equal(a, b)


def test_shuffle_join_left_outer(ray_session):
    """how='left' keeps unmatched left rows with nulls on the right side."""
    import ray.data as rd

    from opennre_ray.functions.relational import shuffle_join

    left = pd.DataFrame({"k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]})
    right = pd.DataFrame({"rk": [2, 4], "rv": [20.0, 40.0]})
    out = shuffle_join(rd.from_pandas(left).repartition(3),
                       rd.from_pandas(right).repartition(2),
                       "k", "rk", ["lv"], ["rv"],
                       how="left", n_buckets=4).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    exp = left.merge(right, left_on="k", right_on="rk",
                     how="left")[["k", "lv", "rv"]]
    pd.testing.assert_frame_equal(out.astype({"rv": float}), exp,
                                  check_dtype=False)


def test_shuffle_join_full_outer(ray_session):
    """how='full' keeps unmatched rows from BOTH sides; the key column is
    populated for every row, and each side's value columns are null on the
    other side's exclusive keys."""
    import ray.data as rd

    from opennre_ray.functions.relational import shuffle_join

    left = pd.DataFrame({"k": [1, 2, 3, 2], "lv": ["a", "b", "c", "b2"]})
    right = pd.DataFrame({"rk": [2, 5, 6], "rv": [20.0, 50.0, 60.0]})
    out = shuffle_join(rd.from_pandas(left).repartition(3),
                       rd.from_pandas(right).repartition(2),
                       "k", "rk", ["lv"], ["rv"],
                       how="full", n_buckets=4).to_pandas()
    exp = (left.merge(right, left_on="k", right_on="rk", how="outer")
           .assign(k=lambda d: d["k"].fillna(d["rk"]))[["k", "lv", "rv"]])
    key = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(
        out.sort_values(key).reset_index(drop=True).astype({"k": float}),
        exp.sort_values(key).reset_index(drop=True).astype({"k": float}),
        check_dtype=False)
    assert out["k"].notna().all()
    # both outer directions actually fired
    assert out.loc[out["k"] == 3, "rv"].isna().all()
    assert out.loc[out["k"] == 5, "lv"].isna().all()


def test_hash_bucket_aggregate_partial_combiner_bounds_hot_key(ray_session):
    """The partial= map-side combiner must (a) keep results exact and
    (b) bound a hot key's per-bucket row count to one row per input
    block — per_bucket ASSERTS the bound, so a missing combine fails
    the query, not just the timing."""
    import ray.data as rd

    from opennre_ray.functions.relational import hash_bucket_aggregate

    n, blocks = 4_000_000, 32
    ds = rd.range(n, override_num_blocks=blocks).map_batches(
        lambda b: pd.DataFrame({"k": np.where(b["id"] % 97 == 0,
                                              b["id"] % 3, 0),
                                "v": b["id"]}),
        batch_format="numpy")

    def part(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("k", as_index=False).agg(
            s=("v", "sum"), c=("v", "size"),
            mn=("v", "min"), mx=("v", "max"))
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # every block contributes <= 3 partial rows per key-bucket
        assert len(g) <= 3 * blocks, f"unbounded bucket: {len(g)} rows"
        out = g.groupby("k", as_index=False).agg(
            s=("s", "sum"), c=("c", "sum"),
            mn=("mn", "min"), mx=("mx", "max"))
        return out

    got = hash_bucket_aggregate(ds, ["k"], fold, n_buckets=8,
                                partial=part).to_pandas()
    got = got.sort_values("k", ignore_index=True)

    ids = np.arange(n, dtype=np.int64)
    k = np.where(ids % 97 == 0, ids % 3, 0)
    exp = (pd.DataFrame({"k": k, "v": ids}).groupby("k", as_index=False)
           .agg(s=("v", "sum"), c=("v", "size"),
                mn=("v", "min"), mx=("v", "max"))
           .sort_values("k", ignore_index=True))
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


# ---------------------------------------------------------------------------
# finalize tail: one graph block under the vote bound, one range exchange
# on subj above it
# ---------------------------------------------------------------------------

_CAND_SCHEMA = pa.schema([("h_id", pa.string()), ("h_name", pa.string()),
                          ("t_id", pa.string()), ("t_name", pa.string()),
                          ("pred_rel", pa.string()), ("score", pa.float64()),
                          ("url", pa.string()), ("model_hash", pa.string())])


def _finalize_oracle(df: pd.DataFrame) -> pd.DataFrame:
    """Single-process pandas form of the finalize tail: per-surface
    argmax (ties to the smaller id), rewrite, then one row per triple."""
    from opennre_ray.stages.ner import normalize_surface

    mentions = pd.DataFrame({
        "surface": pd.concat([df["h_name"], df["t_name"]],
                             ignore_index=True).map(normalize_surface),
        "eid": pd.concat([df["h_id"], df["t_id"]], ignore_index=True)})
    counts = (mentions.groupby(["surface", "eid"]).size()
              .reset_index(name="n")
              .sort_values(["surface", "n", "eid"],
                           ascending=[True, False, True]))
    canon = dict(counts.drop_duplicates("surface")[["surface", "eid"]]
                 .itertuples(index=False, name=None))
    out = pd.DataFrame({
        "subj": df["h_name"].map(normalize_surface).map(canon)
        .fillna(df["h_id"]),
        "pred": df["pred_rel"],
        "obj": df["t_name"].map(normalize_surface).map(canon)
        .fillna(df["t_id"]),
        "score": df["score"], "url": df["url"],
        "model_hash": df["model_hash"]})
    return (out.groupby(["subj", "pred", "obj"], as_index=False)
            .agg(n_evidence=("score", "size"), score=("score", "max"),
                 sample_url=("url", "min"),
                 model_hash=("model_hash", "min"))
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))


def _hot_subj_candidates(n=4000, seed=11):
    """A hot subject (60% of rows) with repeated triples, score ties, and
    urls and model hashes that differ within a triple."""
    rng = np.random.default_rng(seed)
    hot = rng.random(n) < 0.6
    h = np.where(hot, 0, rng.integers(1, 80, n))
    t = rng.integers(0, 40, n)
    return pd.DataFrame({
        "h_id": [f"Q{i}" for i in h],
        "h_name": [f"Ent{i}" if i % 2 else f"ENT{i}" for i in h],
        "t_id": [f"Q{100 + i}" for i in t],
        "t_name": [f"obj{i}" for i in t],
        "pred_rel": [f"r{i}" for i in rng.integers(0, 3, n)],
        "score": rng.integers(0, 4, n) / 4.0,          # many exact ties
        "url": [f"https://u/{i}" for i in rng.integers(0, 500, n)],
        "model_hash": [f"m{i}" for i in rng.integers(0, 3, n)],
    })


def _read_graph(ds, out):
    """materialize_graph, then its rows in file order; the manifest must
    list exactly the files on disk."""
    import os

    import pyarrow.parquet as pq

    from opennre_ray.pipelines.kg import materialize_graph

    manifest = materialize_graph(ds, out)
    files = sorted(f for f in os.listdir(out) if f.endswith(".parquet"))
    assert manifest["files"] == files and manifest["num_files"] == len(files)
    return (pq.read_table(out).to_pandas() if files
            else pd.DataFrame(columns=["subj"]))


def _limit_over_surfaces(ds, df: pd.DataFrame) -> int:
    """A ``CANON_BROADCAST_LIMIT`` just under the vote bound (2 × the
    partial rows of ``ds``) that every distinct voting surface of ``df``
    still fits: the join path runs, and the map's size picks nothing."""
    from opennre_ray.stages.ner import normalize_surface

    limit = 2 * ds.map_batches(_partial_triples,
                               batch_format="pyarrow").count() - 1
    voters = pd.concat([df[["h_name", "h_id"]].set_axis(["s", "i"], axis=1),
                        df[["t_name", "t_id"]].set_axis(["s", "i"], axis=1)])
    assert 0 < voters.dropna()["s"].map(normalize_surface).nunique() <= limit
    return limit


def test_finalize_hot_subj_exact_and_subj_sorted(ray_session, tmp_path,
                                                 monkeypatch):
    """A hot subj spread over 16 input blocks: the per-block partials and
    the merge equal the pandas oracle on every aggregate, and the written
    rows are globally sorted by subj. Under the vote bound the graph is
    one file; with the limit lowered below the vote bound (1000, above
    the surface count, and 0: the join path both times) the range
    exchange spreads it over several files and the merge runs per range
    partition."""
    import ray.data as rd

    from opennre_ray.pipelines.kg import finalize_triples
    from opennre_ray.stages import canonicalize

    df = _hot_subj_candidates()
    ds = rd.from_arrow(pa.Table.from_pandas(df, schema=_CAND_SCHEMA,
                                            preserve_index=False)
                       ).repartition(16)
    assert ds.materialize().num_blocks() >= 8
    want = _finalize_oracle(df)
    assert (want["n_evidence"] > 1).any() and want["subj"].nunique() > 1
    # ~120 surfaces, thousands of partial rows
    for limit in (canonicalize.CANON_BROADCAST_LIMIT, 1000, 0):
        monkeypatch.setattr(canonicalize, "CANON_BROADCAST_LIMIT", limit)
        out = str(tmp_path / f"g{limit}")
        got = _read_graph(finalize_triples(ds), out)
        n_files = len([f for f in os.listdir(out) if f.endswith(".parquet")])
        assert (n_files == 1) == (limit > 1000), (limit, n_files)
        assert got["subj"].tolist() == sorted(got["subj"])
        got = got.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want[got.columns.tolist()],
                                      check_dtype=False)


def test_finalize_drops_null_keys(ray_session):
    """Rows whose triple key is null are dropped, as pandas' groupby
    drops them."""
    import ray.data as rd

    from opennre_ray.pipelines.kg import finalize_triples

    df = _hot_subj_candidates(400, seed=3)
    df.loc[::7, "pred_rel"] = None
    df.loc[5, ["t_id", "t_name"]] = [None, "nobody"]
    ds = rd.from_arrow(pa.Table.from_pandas(df, schema=_CAND_SCHEMA,
                                            preserve_index=False)
                       ).repartition(4)
    got = (finalize_triples(ds).to_pandas()
           .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
    assert got[["subj", "pred", "obj"]].notna().all().all()
    assert got["n_evidence"].sum() < len(df)
    want = _finalize_oracle(df)
    pd.testing.assert_frame_equal(got, want[got.columns.tolist()],
                                  check_dtype=False)


@pytest.mark.parametrize("n_blocks", [1, 8])
def test_finalize_zero_rows_writes_empty_graph(ray_session, tmp_path,
                                               n_blocks):
    """A zero-row input (one block, or only empty blocks) gives a
    zero-row graph whose manifest matches the files on disk."""
    import ray.data as rd

    from opennre_ray.pipelines.kg import finalize_triples

    empty = _CAND_SCHEMA.empty_table()
    ds = rd.from_arrow([empty] * n_blocks)
    got = _read_graph(finalize_triples(ds), str(tmp_path / "g"))
    assert len(got) == 0


@pytest.mark.parametrize("case,limit", [("null_ids", None),
                                        ("empty_blocks", None),
                                        ("null_ids", 0)],
                         ids=["null_ids", "empty_blocks", "null_ids_join"])
def test_one_block_tail_with_an_empty_map(ray_session, tmp_path,
                                          monkeypatch, case, limit):
    """Under the vote bound the rewrite-and-merge task reads a zero-row
    map as an empty lookup: with every id null the map is empty while
    the partials are not, and with every block empty the one-bucket map
    block is ``hash_bucket_aggregate``'s keyed empty block, which has no
    ``canonical_id`` column. Over it (limit 0, every id null) the joins
    read an empty bucketed map and match no row. Every way the graph is
    empty: no data file and an empty manifest."""
    import ray
    import ray.data as rd

    from opennre_ray.pipelines.kg import finalize_triples
    from opennre_ray.stages import canonicalize

    df = _hot_subj_candidates(200, seed=13)
    if case == "null_ids":
        df[["h_id", "t_id"]] = None
    else:
        df = df.iloc[:0]
    table = pa.Table.from_pandas(df, schema=_CAND_SCHEMA,
                                 preserve_index=False)
    ds = rd.from_arrow([table.slice(0, 100), table.slice(100)])
    partials = ds.map_batches(_partial_triples,
                              batch_format="pyarrow").materialize()
    [canon] = ray.get(hash_bucket_aggregate(
        partials, ["norm_surface"], fold_canonical_map,
        n_buckets=1).to_arrow_refs())
    assert canon.num_rows == 0
    if case == "null_ids":
        assert partials.count() > 0
    else:
        assert canon.schema.names == ["norm_surface"]
    if limit is not None:
        monkeypatch.setattr(canonicalize, "CANON_BROADCAST_LIMIT", limit)
    got = _read_graph(finalize_triples(ds), str(tmp_path / "g"))
    assert len(got) == 0


def test_one_block_graph_is_byte_reproducible(ray_session, tmp_path):
    """Under the vote bound the graph is ONE block in (subj, pred, obj)
    order, so two runs over the same input write the same file list and
    identical bytes. Ray's file names lead with per-write ids; the list
    is compared on the (task, block) index that follows them."""
    import hashlib

    import ray.data as rd

    from opennre_ray.pipelines.kg import finalize_triples, materialize_graph

    df = _hot_subj_candidates(2000, seed=17)
    ds = rd.from_arrow(pa.Table.from_pandas(df, schema=_CAND_SCHEMA,
                                            preserve_index=False)
                       ).repartition(8).materialize()
    runs = []
    for run in range(2):
        out = str(tmp_path / f"g{run}")
        manifest = materialize_graph(finalize_triples(ds), out)
        runs.append([("_".join(f.rsplit("_", 2)[1:]),
                      hashlib.sha256(open(os.path.join(out, f), "rb")
                                     .read()).hexdigest())
                     for f in manifest["files"]])
    assert len(runs[0]) == 1
    assert runs[0] == runs[1]


def test_driver_folded_map_equals_bucketed_map(ray_session):
    """The one-bucket fold over the partials (under the gate) and the
    bucketed argmax over the votes (over it) are one policy: equal maps,
    ties to the smaller id included."""
    import ray.data as rd

    rows = ([{"h_name": "France", "h_id": "Q142", "t_name": "Paris",
              "t_id": "QP"}] * 500
            + [{"h_name": "france", "h_id": "QBAD", "t_name": "Lyon",
                "t_id": "QL"}] * 3
            # 'tie' surface: QB and QA twice each → QA
            + [{"h_name": "Tie", "h_id": "QB", "t_name": "tie",
                "t_id": "QA"}] * 2)
    rng = np.random.default_rng(9)
    rows += [{"h_name": f"S{i % 50}", "h_id": f"E{rng.integers(4)}",
              "t_name": f"s{(i + 1) % 50}", "t_id": f"E{rng.integers(4)}"}
             for i in range(600)]
    ds = rd.from_items(_candidates(rows), override_num_blocks=8)
    folded = _canonical_map(ds, 1)
    assert folded == _canonical_map(ds, 8)
    assert folded["france"] == "Q142" and folded["tie"] == "QA"


# one bucket; the join path at limit 0 and just under the vote bound
@pytest.mark.parametrize("limit", [None, 0, "over_surfaces"])
def test_finalize_skips_empty_and_promotes_null_typed_blocks(
        ray_session, monkeypatch, limit):
    """The partial blocks reach canonicalize as Ray hands them on: blocks
    emptied upstream of ``_partial_triples`` arrive without its columns,
    and a block whose ``h_id`` is all null is typed ``null`` by
    ``rd.from_items``. The one-bucket fold skips the first and takes the
    second to string, as do the per-block votes over the gate; the graph
    equals the pandas oracle."""
    import ray
    import ray.data as rd

    from opennre_ray.pipelines.kg import finalize_triples
    from opennre_ray.stages import canonicalize

    df = _hot_subj_candidates(400, seed=7)
    df.loc[100:149, "h_id"] = None                   # block 2 of 8
    for lo in (200, 300):                            # blocks 4 and 6
        df.loc[lo:lo + 49, "url"] = [f"https://drop/{i}" for i in range(50)]
    ds = rd.from_items(df.to_dict("records"), override_num_blocks=8
                       ).map_batches(
        lambda t: t.slice(0, 0)
        if t["url"][0].as_py().startswith("https://drop/") else t,
        batch_format="pyarrow").materialize()
    blocks = ray.get(ds.to_arrow_refs())
    assert sorted(t.num_rows for t in blocks) == [0, 0] + [50] * 6
    assert pa.null() in [t.schema.field("h_id").type for t in blocks
                         if t.num_rows]
    kept = df[~df["url"].str.startswith("https://drop/")]
    if limit == "over_surfaces":
        limit = _limit_over_surfaces(ds, kept)
    if limit is not None:
        monkeypatch.setattr(canonicalize, "CANON_BROADCAST_LIMIT", limit)
    got = (finalize_triples(ds).to_pandas()
           .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
    want = _finalize_oracle(kept)
    pd.testing.assert_frame_equal(got, want[got.columns.tolist()],
                                  check_dtype=False)


def test_finalize_null_pred_votes_and_null_id_surfaces(ray_session,
                                                       monkeypatch):
    """Rows with a null predicate are no triple but still vote: a surface
    whose majority comes only from them keeps that canonical id. A
    surface whose ids are all null has no canonical id, so its rows are
    dropped; null ids never vote, so one id among nulls wins. Both paths
    (the join path at limit 0 and just under the vote bound) equal the
    pandas oracle."""
    import ray.data as rd

    from opennre_ray.pipelines.kg import finalize_triples
    from opennre_ray.stages import canonicalize

    df = _hot_subj_candidates(400, seed=5)
    # 'Hub': Q900 on 6 null-predicate rows, Q901 on 2 scored rows
    hub = pd.DataFrame({
        "h_id": ["Q900"] * 6 + ["Q901"] * 2,
        "h_name": ["Hub", "HUB"] * 4,
        "t_id": ["Q100"] * 8, "t_name": ["obj0"] * 8,
        "pred_rel": [None] * 6 + ["r1", "r2"], "score": [0.5] * 8,
        "url": [f"https://h/{i}" for i in range(8)], "model_hash": ["m0"] * 8})
    # 'Ghost': every mention without an id
    ghost = pd.DataFrame({
        "h_id": [None] * 3 + ["Q3"], "h_name": ["Ghost"] * 3 + ["Ent3"],
        "t_id": ["Q101", "Q102", "Q103", None],
        "t_name": ["obj1", "obj2", "obj3", "ghost"],
        "pred_rel": ["r0"] * 4, "score": [0.25] * 4,
        "url": [f"https://g/{i}" for i in range(4)], "model_hash": ["m1"] * 4})
    # 'Shade': mostly without an id; its one id still wins
    shade = pd.DataFrame({
        "h_id": [None, None, "Q950"], "h_name": ["Shade", "SHADE", "shade"],
        "t_id": ["Q100"] * 3, "t_name": ["obj0"] * 3,
        "pred_rel": ["r0"] * 3, "score": [0.75] * 3,
        "url": [f"https://s/{i}" for i in range(3)], "model_hash": ["m2"] * 3})
    df = pd.concat([df, hub, ghost, shade], ignore_index=True)
    ds = rd.from_arrow(pa.Table.from_pandas(df, schema=_CAND_SCHEMA,
                                            preserve_index=False)
                       ).repartition(4).materialize()
    want = _finalize_oracle(df)
    hub_rows = want[want["subj"].isin(["Q900", "Q901"])]
    assert hub_rows[["subj", "pred", "obj"]].values.tolist() == [
        ["Q900", "r1", "Q100"], ["Q900", "r2", "Q100"]]
    shade_rows = want[want["subj"] == "Q950"]
    assert shade_rows[["pred", "obj", "n_evidence"]].values.tolist() == [
        ["r0", "Q100", 3]]
    assert want["n_evidence"].sum() == df["pred_rel"].notna().sum() - 4
    outs = []
    for limit in (canonicalize.CANON_BROADCAST_LIMIT,   # one block, join
                  _limit_over_surfaces(ds, df), 0):
        monkeypatch.setattr(canonicalize, "CANON_BROADCAST_LIMIT", limit)
        got = (finalize_triples(ds).to_pandas()
               .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want[got.columns.tolist()],
                                      check_dtype=False)
        outs.append(got)
    for got in outs[1:]:
        pd.testing.assert_frame_equal(outs[0], got)     # dtypes too


# ---------------------------------------------------------------------------
# differential fuzz of the finalize tail's paths
# ---------------------------------------------------------------------------

_FUZZ_NAMES = ["Ent1", "ENT1", "ent2", "Ent3", "obj", "OBJ", "Ghost"]
_FUZZ_IDS = ["Q1", "Q2", "Q3", None]


def _fuzz_row(h_names, h_ids, preds, t_ids):
    from hypothesis import strategies as st

    return st.fixed_dictionaries({
        "h_id": st.sampled_from(h_ids), "h_name": st.sampled_from(h_names),
        "t_id": st.sampled_from(t_ids), "t_name": st.sampled_from(_FUZZ_NAMES),
        "pred_rel": st.sampled_from(preds),
        "score": st.sampled_from([0.25, 0.5, 0.75]),       # score ties
        "url": st.sampled_from(["u0", "u1", "u2"]),
        "model_hash": st.sampled_from(["m0", "m1"])})


def _fuzz_tail_input():
    """(candidate frame, its blocks): mixed rows; a hot subj whose two
    ids both vote and can tie, always with a predicate and a known object; an
    optional block whose ids are all null and typed ``null``; and empty
    blocks with the source schema, as blocks emptied upstream arrive."""
    from hypothesis import strategies as st

    @st.composite
    def build(draw):
        rows = draw(st.lists(_fuzz_row(_FUZZ_NAMES, _FUZZ_IDS,
                                       ["r0", "r1", None], _FUZZ_IDS),
                             max_size=40))
        hot = draw(st.lists(_fuzz_row(["Hot", "HOT", "hot"],
                                      ["QH1", "QH2"], ["r0", "r1"],
                                      ["Q1", "Q2"]),
                            min_size=2, max_size=30))
        # both hot ids vote, so the hot surface spans two partial keys
        hot[0]["h_id"], hot[1]["h_id"] = "QH1", "QH2"
        rows += hot
        rows = draw(st.permutations(rows))
        cuts = sorted(draw(st.sets(st.integers(1, len(rows) - 1),
                                   max_size=6)))
        tables = [pa.Table.from_pylist(rows[lo:hi], schema=_CAND_SCHEMA)
                  for lo, hi in zip([0] + cuts, cuts + [len(rows)])]
        null_rows = draw(st.lists(_fuzz_row(_FUZZ_NAMES, [None],
                                            ["r0", None], [None]),
                                  max_size=5))
        if null_rows:
            t = pa.Table.from_pylist(null_rows, schema=_CAND_SCHEMA)
            for col in ("h_id", "t_id"):
                t = t.set_column(t.schema.get_field_index(col), col,
                                 pa.nulls(t.num_rows))
            tables.insert(draw(st.integers(0, len(tables))), t)
            rows = rows + null_rows
        for _ in range(draw(st.integers(0, 2))):
            tables.insert(draw(st.integers(0, len(tables))),
                          _CAND_SCHEMA.empty_table())
        return pd.DataFrame(rows, columns=_CAND_SCHEMA.names), tables

    return build()


def test_finalize_paths_match_oracle_fuzzed(ray_session):
    """The tail's two paths — the one-bucket path (default limit) and the
    join rewrite, once with the limit between the surface count and the
    vote bound and once at 0 — each equal the pandas oracle, dtypes and
    (subj, pred, obj) order included, over generated tables split into
    random blocks."""
    import ray.data as rd
    from hypothesis import HealthCheck, given, settings

    from opennre_ray.functions import relational
    from opennre_ray.pipelines.kg import finalize_triples
    from opennre_ray.stages import canonicalize

    orig_agg, orig_join = (relational.hash_bucket_aggregate,
                           relational.shuffle_join)

    @settings(max_examples=6, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_fuzz_tail_input())
    def check(case):
        df, tables = case
        ds = rd.from_arrow(tables)
        want = _finalize_oracle(df)
        calls = []

        def agg(ds, key_cols, *a, **kw):
            if key_cols == ["norm_surface"]:
                calls.append(("argmax", kw.get("n_buckets")))
            return orig_agg(ds, key_cols, *a, **kw)

        def join(*a, **kw):
            calls.append(("join", None))
            return orig_join(*a, **kw)

        joins = [("argmax", None), ("join", None), ("join", None)]
        paths = {"one_bucket": (canonicalize.CANON_BROADCAST_LIMIT,
                                [("argmax", 1)]),
                 "join_over_surfaces": (_limit_over_surfaces(ds, df),
                                        joins),
                 "join": (0, joins)}
        for path, (limit, expect) in paths.items():
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(canonicalize, "CANON_BROADCAST_LIMIT", limit)
                mp.setattr(relational, "hash_bucket_aggregate", agg)
                mp.setattr(relational, "shuffle_join", join)
                got = finalize_triples(ds).to_pandas()
            assert calls == expect, path
            pd.testing.assert_frame_equal(
                got, want[got.columns.tolist()], obj=path)

    check()
