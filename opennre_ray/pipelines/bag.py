"""Bag-level (distant supervision) pipeline: groupby entity pair → bag score.

Replaces the reference's load-time dict groupby + scope bookkeeping
(``data_loader.py:145-236``) with a coarse hash-bucket shuffle on
``(h_id, t_id)`` and vectorized per-bucket scoring: one ``encode_batch``
and a chunked forward over ALL bag members in the bucket, then a
segment-reduce per bag using scope offsets (the same machinery as the
batched bag trainer, ``training.py:536-558``). A bag never spans buckets,
so per-bucket aggregation is exact; Ray's per-group Python path (measured
28 s for 40k groups) is never touched.

Eval semantics (G6/G8/G9) per reference ``bag_attention.py:152-166``,
``bag_average.py:118-131``, ``bag_one.py:137-145``; prediction-row expansion
(one row per bag × non-NA relation) per ``bag_re.py:170-179`` (M17).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import hashlib

from ..models import BAG_EVAL_AGGREGATORS
from ..registry import get_model

# member sort inside a bag: content-deterministic so resampling picks the
# same members regardless of upstream partitioning / row order
_MEMBER_ORDER = ["text", "h_start", "t_start"]


def bag_seed(h_id, t_id) -> int:
    """Content-derived per-bag RNG seed.

    Python's ``hash()`` is salted per process (PYTHONHASHSEED), so it would
    make 'deterministic' resampling differ across workers/retries — a
    content hash keeps samples identical under any partitioning.
    """
    digest = hashlib.blake2b(f"{h_id}\x00{t_id}".encode(),
                             digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _resample_indices(n: int, bag_size: int, h_id, t_id) -> np.ndarray:
    """Seeded member selection for one bag (G4), as positional indices into
    the bag's deterministically-sorted member order."""
    rng = np.random.default_rng(bag_seed(h_id, t_id))
    if n >= bag_size:
        idx = rng.choice(n, bag_size, replace=False)
    else:
        idx = np.concatenate([np.arange(n), rng.choice(n, bag_size - n)])
    return np.sort(idx)


class BagScorer:
    """Per-group scorer (one bag per call) — the slow reference path.

    Kept as the oracle the vectorized bucket path is pinned against in
    tests; production ``bag_scores`` uses ``BucketBagScorer``.
    """

    def __init__(self, model_name: str = "nyt10_pcnn_att",
                 bag_size: int = 0, rel2id: dict | None = None):
        self.model = get_model(model_name, rel2id=rel2id)
        self.agg = BAG_EVAL_AGGREGATORS[self.model.aggregator or "att"]
        self.bag_size = bag_size

    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        h_id = group["h_id"].iloc[0]
        t_id = group["t_id"].iloc[0]
        group = group.sort_values(_MEMBER_ORDER, kind="mergesort")
        if self.bag_size > 0:
            group = group.iloc[_resample_indices(len(group), self.bag_size,
                                                 h_id, t_id)]
        texts = group["text"].tolist()
        h = group[["h_start", "h_end"]].to_numpy()
        t = group[["t_start", "t_end"]].to_numpy()
        enc = self.model.encoder.encode_batch(texts, h, t)
        rep = self.model.encoder(enc)
        scores = self.agg(rep, self.model.head.fc_w, self.model.head.fc_b,
                          diag=self.model.diag)
        rel2id = self.model.rel2id
        rows = {"h_id": [], "t_id": [], "relation": [], "score": [],
                "bag_size": []}
        for rel, rid in rel2id.items():
            if rel == "NA":
                continue
            rows["h_id"].append(h_id)
            rows["t_id"].append(t_id)
            rows["relation"].append(rel)
            rows["score"].append(float(scores[rid]))
            rows["bag_size"].append(len(group))
        return pd.DataFrame(rows)


class BucketBagScorer:
    """Vectorized scorer for one hash bucket of many bags.

    Sort the bucket by bag key → bag boundaries become scope offsets →
    ONE chunked encode/forward over every member in the bucket → small
    per-bag aggregator reductions on representation slices. Encoding (the
    conv/transformer forward) dominates; it now runs at full batch width
    instead of once per tiny bag.
    """

    # numeric chunk size of the forward: the bucket is encoded once and
    # run through ``forward_chunks`` like a RelationScorer block, with the
    # same per-worker conv scratch bound (see stages/score.py)
    CHUNK = 256

    def __init__(self, model_name: str = "nyt10_pcnn_att",
                 bag_size: int = 0, rel2id: dict | None = None):
        self.model = get_model(model_name, rel2id=rel2id)
        self.agg = BAG_EVAL_AGGREGATORS[self.model.aggregator or "att"]
        self.bag_size = bag_size
        self.rel_names = [r for r in self.model.rel2id if r != "NA"]
        self.rel_ids = np.array([self.model.rel2id[r] for r in self.rel_names])

    def __call__(self, bucket: pd.DataFrame) -> pd.DataFrame:
        if len(bucket) == 0:
            return pd.DataFrame({"h_id": [], "t_id": [], "relation": [],
                                 "score": [], "bag_size": []})
        g = bucket.sort_values(["h_id", "t_id"] + _MEMBER_ORDER,
                               kind="mergesort").reset_index(drop=True)
        key = (g["h_id"].astype(str) + "\x00" + g["t_id"].astype(str)).to_numpy()
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(g)]

        if self.bag_size > 0:
            sel = np.concatenate([
                s + _resample_indices(e - s, self.bag_size,
                                      g["h_id"].iat[s], g["t_id"].iat[s])
                for s, e in zip(starts, ends)])
            g = g.iloc[sel].reset_index(drop=True)
            sizes = np.full(len(starts), self.bag_size)
            starts = np.arange(len(starts)) * self.bag_size
            ends = starts + self.bag_size
        else:
            sizes = ends - starts

        texts = g["text"].tolist()
        h = g[["h_start", "h_end"]].to_numpy()
        t = g[["t_start", "t_end"]].to_numpy()
        enc = self.model.encoder
        rep = np.concatenate(list(enc.forward_chunks(
            enc.encode_batch(texts, h, t), self.CHUNK)))

        fc_w, fc_b, diag = (self.model.head.fc_w, self.model.head.fc_b,
                            self.model.diag)
        score_mat = np.empty((len(starts), len(self.rel_ids)),
                             dtype=np.float64)
        for bi, (s, e) in enumerate(zip(starts, ends)):
            score_mat[bi] = self.agg(rep[s:e], fc_w, fc_b,
                                     diag=diag)[self.rel_ids]

        n_rel = len(self.rel_names)
        return pd.DataFrame({
            "h_id": np.repeat(g["h_id"].to_numpy()[starts], n_rel),
            "t_id": np.repeat(g["t_id"].to_numpy()[starts], n_rel),
            "relation": np.tile(np.array(self.rel_names, dtype=object),
                                len(starts)),
            "score": score_mat.ravel(),
            "bag_size": np.repeat(sizes.astype(np.int64), n_rel),
        })


#: member count beyond which a bag splits into content-salted partial
#: groups (bounds any single shuffle group's rows to ~this many even for
#: a monster entity pair with millions of instances)
OVERSIZE_BAG = 4096


def _member_salts(g: pd.DataFrame, n_salt: np.ndarray) -> np.ndarray:
    """Content-derived salt per bag member — the same blake2b family as
    ``bag_seed`` so salting is stable under any partitioning/retry."""
    keys = (g["text"].astype(str) + "\x00" + g["h_start"].astype(str)
            + "\x00" + g["t_start"].astype(str))
    h = np.fromiter(
        (int.from_bytes(hashlib.blake2b(k.encode(), digest_size=4)
                        .digest(), "little") for k in keys),
        dtype=np.int64, count=len(g))
    return h % np.maximum(n_salt, 1)


class SaltedPartialScorer:
    """Stage A of the oversize-bag path: per (h_id, t_id, _salt) partial
    sufficient statistics for the model's bag aggregator.

    - ``att``: per-relation (max, exp-sum, exp-weighted rep sum) — the
      log-sum-exp-mergeable form of the attention softmax;
    - ``avg``: (rep sum, n);
    - ``one``: per-relation max of member softmax scores (max is exactly
      mergeable).

    Partials ship as ONE float64-bytes column: object-dtype numpy arrays
    through a Ray pandas shuffle risk TensorArray casts; bytes do not.
    Encoding reuses the scorer's block path: one encode per bucket, then
    ``forward_chunks`` in CHUNK=256 slices (the measured ~50 MB per-worker
    working-set bound).
    """

    CHUNK = 256

    def __init__(self, model_name: str = "nyt10_pcnn_att",
                 rel2id: dict | None = None):
        self.model = get_model(model_name, rel2id=rel2id)

    def _encode(self, g: pd.DataFrame) -> np.ndarray:
        texts = g["text"].tolist()
        h = g[["h_start", "h_end"]].to_numpy()
        t = g[["t_start", "t_end"]].to_numpy()
        enc = self.model.encoder
        return np.concatenate(list(enc.forward_chunks(
            enc.encode_batch(texts, h, t), self.CHUNK)))

    def __call__(self, bucket: pd.DataFrame) -> pd.DataFrame:
        if len(bucket) == 0:
            return pd.DataFrame({"h_id": [], "t_id": [], "_salt": [],
                                 "n": [], "payload": []})
        g = bucket.sort_values(["h_id", "t_id", "_salt"] + _MEMBER_ORDER,
                               kind="mergesort").reset_index(drop=True)
        key = (g["h_id"].astype(str) + "\x00" + g["t_id"].astype(str)
               + "\x00" + g["_salt"].astype(str)).to_numpy()
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(g)]
        rep = self._encode(g)
        fc_w = self.model.head.fc_w
        fc_b = self.model.head.fc_b
        diag = self.model.diag
        agg = self.model.aggregator or "att"
        payloads = []
        for s, e in zip(starts, ends):
            r = rep[s:e]
            if agg == "att":
                att_mat = fc_w.T if diag is None else fc_w.T * diag[:, None]
                sc = r @ att_mat                       # (n, N)
                m = sc.max(axis=0)
                ex = np.exp(sc - m)
                part = np.concatenate([
                    m.astype(np.float64), ex.sum(axis=0).astype(np.float64),
                    (ex.T @ r).astype(np.float64).ravel()])
            elif agg == "avg":
                part = r.sum(axis=0).astype(np.float64)
            else:                                      # one
                part = BAG_EVAL_AGGREGATORS["one"](
                    r, fc_w, fc_b).astype(np.float64)
            payloads.append(part.tobytes())
        return pd.DataFrame({
            "h_id": g["h_id"].to_numpy()[starts],
            "t_id": g["t_id"].to_numpy()[starts],
            "_salt": g["_salt"].to_numpy()[starts],
            "n": (ends - starts).astype(np.int64),
            "payload": payloads,
        })


class SaltedMergeScorer:
    """Stage B: merge one bag's salted partials → final score rows (same
    schema as ``BucketBagScorer``). Attention partials combine via the
    standard log-sum-exp rescale, so the merged softmax equals the
    unsplit one up to float summation order."""

    def __init__(self, model_name: str = "nyt10_pcnn_att",
                 rel2id: dict | None = None):
        self.model = get_model(model_name, rel2id=rel2id)
        self.rel_names = [r for r in self.model.rel2id if r != "NA"]
        self.rel_ids = np.array([self.model.rel2id[r]
                                 for r in self.rel_names])

    def _bag_scores(self, payloads: list[bytes], ns: np.ndarray,
                    agg: str) -> np.ndarray:
        from .. import nn
        fc_w = self.model.head.fc_w
        fc_b = self.model.head.fc_b
        n_all = len(self.model.rel2id)
        hidden = self.model.encoder.hidden_size
        parts = [np.frombuffer(p, dtype=np.float64) for p in payloads]
        if agg == "one":
            return np.max(np.stack(parts), axis=0)
        if agg == "avg":
            total = int(ns.sum())
            mean = np.add.reduce(parts) / total
            return nn.softmax(nn.linear(
                mean.astype(np.float32), fc_w, fc_b))
        # att: rescale each partial to the global per-relation max
        ms = np.stack([p[:n_all] for p in parts])                # (J, N)
        ss = np.stack([p[n_all: 2 * n_all] for p in parts])      # (J, N)
        vs = np.stack([p[2 * n_all:].reshape(n_all, hidden)
                       for p in parts])                          # (J, N, H)
        m_glob = ms.max(axis=0)
        w = np.exp(ms - m_glob)                                  # (J, N)
        s_glob = (ss * w).sum(axis=0)                            # (N,)
        v_glob = (vs * w[:, :, None]).sum(axis=0)                # (N, H)
        rep_per_rel = (v_glob / s_glob[:, None]).astype(np.float32)
        probs = nn.softmax(nn.linear(rep_per_rel, fc_w, fc_b))
        return np.diag(probs).copy()

    def __call__(self, bucket: pd.DataFrame) -> pd.DataFrame:
        agg = self.model.aggregator or "att"
        out = {"h_id": [], "t_id": [], "relation": [], "score": [],
               "bag_size": []}
        for (h_id, t_id), g in bucket.groupby(["h_id", "t_id"], sort=False):
            scores = self._bag_scores(list(g["payload"]),
                                      g["n"].to_numpy(), agg)
            size = int(g["n"].sum())
            out["h_id"].extend([h_id] * len(self.rel_names))
            out["t_id"].extend([t_id] * len(self.rel_names))
            out["relation"].extend(self.rel_names)
            out["score"].extend(np.asarray(scores, np.float64)[self.rel_ids])
            out["bag_size"].extend([size] * len(self.rel_names))
        return pd.DataFrame({
            "h_id": out["h_id"], "t_id": out["t_id"],
            "relation": np.array(out["relation"], dtype=object),
            "score": np.array(out["score"], dtype=np.float64),
            "bag_size": np.array(out["bag_size"], dtype=np.int64)})


def bag_scores(instances_ds, model_name="nyt10_pcnn_att", bag_size=0,
               rel2id=None, n_buckets=None,
               oversize_threshold: int | None = OVERSIZE_BAG):
    """instances (text, h_id, h_start.., t_id, t_start..) → bag score rows.

    The coarse hash-bucket shuffle on (h_id, t_id) is the canonical
    exchange (SURVEY G1); scoring is vectorized per bucket. Skewed entity
    pairs: with ``bag_size`` set, seeded resampling bounds them (G4); at
    the unbounded default, any pair whose member count exceeds
    ``oversize_threshold`` routes through a salted two-stage aggregate
    (content-salt members into ceil(n/threshold) groups → mergeable
    partials → per-pair merge) so no single shuffle group ever holds more
    than ~threshold rows. Normal pairs keep the EXACT single-stage float
    path (pins unchanged); hot-pair detection is a map-side count partial
    pass over the materialized instance stream, and the hot-pair set
    (≤ rows/threshold entries by construction) broadcasts once.
    Pass ``oversize_threshold=None`` to disable the salting entirely.
    """
    from ..functions.relational import hash_bucket_aggregate
    from ..stages.score import cached

    rel_key = tuple(sorted(rel2id.items())) if rel2id else None

    def score_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        scorer = cached(
            ("bag_bucket", model_name, bag_size, rel_key),
            lambda: BucketBagScorer(model_name, bag_size, rel2id))
        return scorer(bucket)

    def direct(ds):
        return hash_bucket_aggregate(ds, ["h_id", "t_id"], score_bucket,
                                     n_buckets=n_buckets)

    if bag_size > 0 or not oversize_threshold:
        # resampling (bag_size > 0) needs full-bag membership and already
        # bounds per-bag compute; salting is the bag_size=0 scale path
        return direct(instances_ds)

    inst = instances_ds.materialize()

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby(["h_id", "t_id"], as_index=False).size()
                .rename(columns={"size": "cnt"}))

    # the count stream is map-side-collapsed to distinct-pair partials —
    # a coarse 8-bucket exchange beats the default fan-out (per-block
    # fixed sort cost dominates tiny shuffles; see BASELINE.md)
    counts = hash_bucket_aggregate(
        inst.select_columns(["h_id", "t_id"])    # don't ship text bytes
        .map_batches(count_partial, batch_format="pandas"),
        ["h_id", "t_id"],
        lambda g: g.groupby(["h_id", "t_id"], as_index=False)["cnt"].sum(),
        n_buckets=8)
    def only_hot(b: pd.DataFrame) -> pd.DataFrame:
        # groupby aggregates emit schema-less empty blocks — pass a typed
        # empty frame through instead of KeyError-ing on them
        if "cnt" not in b.columns:
            return pd.DataFrame({"h_id": pd.Series([], dtype=object),
                                 "t_id": pd.Series([], dtype=object),
                                 "cnt": pd.Series([], dtype="int64")})
        return b[b["cnt"] > oversize_threshold]

    hot_df = counts.map_batches(only_hot, batch_format="pandas").to_pandas()
    if not len(hot_df):
        return direct(inst)

    import ray

    n_salt_map = {(h, t): int(np.ceil(c / oversize_threshold)) for h, t, c
                  in hot_df[["h_id", "t_id", "cnt"]].itertuples(index=False)}
    ref = ray.put(n_salt_map)
    ref_key = ref.hex()

    def split_cold(b: pd.DataFrame) -> pd.DataFrame:
        hot = cached(("bag_hot", ref_key), lambda: ray.get(ref))
        mask = np.fromiter(((h, t) in hot for h, t
                            in zip(b["h_id"], b["t_id"])),
                           dtype=bool, count=len(b))
        return b[~mask]

    def split_hot(b: pd.DataFrame) -> pd.DataFrame:
        hot = cached(("bag_hot", ref_key), lambda: ray.get(ref))
        ns = np.fromiter((hot.get((h, t), 0) for h, t
                          in zip(b["h_id"], b["t_id"])),
                         dtype=np.int64, count=len(b))
        b = b[ns > 0].copy()
        b["_salt"] = _member_salts(b, ns[ns > 0])
        return b

    cold_scores = direct(inst.map_batches(split_cold, batch_format="pandas"))

    def partial_bucket(g: pd.DataFrame) -> pd.DataFrame:
        scorer = cached(("bag_salt_a", model_name, rel_key),
                        lambda: SaltedPartialScorer(model_name, rel2id))
        return scorer(g)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        scorer = cached(("bag_salt_b", model_name, rel_key),
                        lambda: SaltedMergeScorer(model_name, rel2id))
        return scorer(g)

    partials = hash_bucket_aggregate(
        inst.map_batches(split_hot, batch_format="pandas"),
        ["h_id", "t_id", "_salt"], partial_bucket, n_buckets=n_buckets)
    # partials are hot-pair × salt rows (tiny); coarse merge exchange
    hot_scores = hash_bucket_aggregate(partials, ["h_id", "t_id"],
                                       merge_bucket, n_buckets=8)
    return cold_scores.union(hot_scores)
