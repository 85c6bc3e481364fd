"""Relation scoring stages (model weights cached per worker process).

Two granularities:

- ``EncodeInstances`` — the standalone tokenize/encode operator (SURVEY M1/M2
  as a stage), emitting fixed-length int32 id/position arrays. Useful when
  encoded tensors are the product (training export) or for parity tests.
- ``RelationScorer`` — the fused encode+forward+head stage the KG pipeline
  uses: instance rows in, instance rows + (pred_rel, score, model_hash) out.
  Fusing avoids materializing (N, L) int arrays in the object store between
  two stages; tokenization is <10% of forward cost, so the fusion loses no
  parallelism while halving object-store traffic. The pipeline runs it as
  stateless tasks through ``scorer_udf``: weights are built once per worker
  process and kept in ``_WORKER_CACHE`` (reference loads them once per
  process too: ``pretrain.py:147``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..registry import get_model

# Per-worker-process state cache for stateless-task UDFs. Ray reuses worker
# processes across tasks, so a module-level cache gives "load once per
# worker" semantics (same amortization as an actor pool) while keeping the
# elastic scheduling of plain tasks — measured 3-5× faster end-to-end than
# an autoscaling actor pool for these CPU-sized models (actor spawn and
# pool ramp-up dominate short stages). Use actor pools instead when state
# must pin a GPU or is too large to build per worker.
_WORKER_CACHE: dict = {}
_WORKER_CACHE_CAP = 32


def cached(key, factory):
    """FIFO-bounded per-worker cache: entries keyed by broadcast ObjectRefs
    would otherwise pin every dimension table / query matrix a long-lived
    session ever shipped, growing worker memory without bound."""
    if key not in _WORKER_CACHE:
        while len(_WORKER_CACHE) >= _WORKER_CACHE_CAP:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
        _WORKER_CACHE[key] = factory()
    return _WORKER_CACHE[key]


def scorer_udf(model_name: str = "wiki80_cnn_softmax"):
    """Stateless-task form of ``RelationScorer`` with per-worker model cache."""

    def score_batch(batch: pa.Table) -> pa.Table:
        scorer = cached(("scorer", model_name),
                        lambda: RelationScorer(model_name))
        return scorer(batch)

    return score_batch


def _spans(batch: pa.Table, prefix: str) -> np.ndarray:
    s = batch.column(f"{prefix}_start").to_numpy(zero_copy_only=False)
    e = batch.column(f"{prefix}_end").to_numpy(zero_copy_only=False)
    return np.stack([s, e], axis=1)


class EncodeInstances:
    """map_batches UDF: instance rows → encoded id/position arrays (numpy)."""

    def __init__(self, model_name: str = "wiki80_cnn_softmax"):
        self.model = get_model(model_name)

    def __call__(self, batch: pa.Table) -> dict:
        texts = batch.column("text").to_pylist()
        enc = self.model.encoder.encode_batch(
            texts, _spans(batch, "h"), _spans(batch, "t"))
        out = {c: batch.column(c).to_numpy(zero_copy_only=False)
               for c in ("url", "h_id", "t_id")}
        out.update(enc)
        return out


def score_matrix_udf(model_name: str = "wiki80_cnn_sigmoid",
                     rel2id: dict | None = None):
    """Stateless-task stage emitting the FULL per-relation score row
    (``rel_scores`` list column) instead of the argmax — the multi-label
    eval path (reference ``data_loader.py:375-446`` consumes
    ``pred_score[sent_num, label_num]``)."""
    # cache key must include the id ASSIGNMENTS, not just the relation
    # names — same names with permuted ids would hit a stale scorer whose
    # rel_scores columns are in the old order
    rel_key = tuple(sorted(rel2id.items())) if rel2id else None

    def fn(batch: pa.Table) -> pa.Table:
        scorer = cached(("matscorer", model_name, rel_key),
                        lambda: RelationScorer(model_name, rel2id=rel2id))
        if batch.num_rows == 0:
            return batch.append_column(
                "rel_scores", pa.array([], pa.list_(pa.float32())))
        mats = [scorer.score_matrix(batch.slice(off, RelationScorer.CHUNK))
                for off in range(0, batch.num_rows, RelationScorer.CHUNK)]
        mat = np.concatenate(mats)
        return batch.append_column(
            "rel_scores",
            pa.array(list(mat), pa.list_(pa.float32())))

    return fn


class RelationScorer:
    """Fused encode → forward → softmax head stage.

    Emits one scored row per instance: the sentence-level equivalent of the
    reference's ``infer()`` loop (``softmax_nn.py:28-39``) vectorized over a
    batch. ``model_hash`` rides along for lineage (north-star requirement).
    """

    # Numeric chunk size, independent of Ray task granularity: blocks are
    # sliced internally so a big fused-task block never materializes the
    # full (N, L) id arrays / conv activations at once. At 256 rows the
    # conv scratch is ~28 MB per worker (two 9.4 MB (B, L, H) buffers + the
    # ~8 MB distinct-row GEMM output, see CnnSentenceEncoder); working sets
    # of ~190 MB ran 5-7x slower under 32 concurrent workers (cache
    # pressure + huge-page first-touch stalls).
    CHUNK = 256

    def __init__(self, model_name: str = "wiki80_cnn_softmax",
                 rel2id: dict | None = None):
        self.model = get_model(model_name, rel2id=rel2id)
        self.id2rel = self.model.id2rel
        # id → name as one object array, indexed by the whole pred vector
        self._rel_names = np.empty(max(self.id2rel) + 1, dtype=object)
        for rid, rel in self.id2rel.items():
            self._rel_names[rid] = rel
        self._hash = self.model.model_hash

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(
                "pred_rel", pa.array([], pa.string())
            ).append_column("score", pa.array([], pa.float32())
            ).append_column("model_hash", pa.array([], pa.string()))
        out = [self._score_chunk(batch.slice(off, self.CHUNK))
               for off in range(0, batch.num_rows, self.CHUNK)]
        return pa.concat_tables(out)

    def _rep(self, batch: pa.Table) -> np.ndarray:
        texts = batch.column("text").to_pylist()
        # pre-tokenized rows (S1 JSONL source) carry token-level offsets —
        # route them through the token branch (the reference's exclusive
        # text/token split, base_encoder.py:91-96). Prefer the original
        # token-list column: re-splitting the joined text would break tokens
        # that contain internal spaces (e.g. 'New York').
        token_lists = None
        if ("tokens" in batch.column_names
                and "is_token" in batch.column_names):
            # `is_token` is the mode flag; text rows carry tokens == []
            flags = batch.column("is_token").to_pylist()
            if any(flags):
                tl = batch.column("tokens").to_pylist()
                token_lists = [list(t) if f else None
                               for t, f in zip(tl, flags)]
        elif "tokens" in batch.column_names:
            tl = batch.column("tokens").to_pylist()
            if any(x for x in tl):          # null-free or legacy nulls
                token_lists = [list(t) if t else None for t in tl]
        elif "is_token" in batch.column_names:
            flags = batch.column("is_token").to_pylist()
            if any(flags):
                token_lists = [t.split(" ") if f else None
                               for t, f in zip(texts, flags)]
        enc = self.model.encoder.encode_batch(
            texts, _spans(batch, "h"), _spans(batch, "t"),
            token_lists=token_lists)
        return self.model.encoder(enc)

    def score_matrix(self, batch: pa.Table) -> np.ndarray:
        """(n, n_rel) head scores (softmax probs / sigmoid activations)."""
        return self.model.head.scores(self._rep(batch)).astype(np.float32)

    def _score_chunk(self, batch: pa.Table) -> pa.Table:
        rep = self._rep(batch)
        pred, score = self.model.head.infer_batch(rep)
        return (batch
                .append_column("pred_rel",
                               pa.array(self._rel_names[pred], pa.string()))
                .append_column("score", pa.array(score.astype(np.float32),
                                                 pa.float32()))
                .append_column("model_hash",
                               pa.array([self._hash] * batch.num_rows,
                                        pa.string())))
