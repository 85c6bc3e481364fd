"""Relation scoring stages (model weights cached per worker process).

Two granularities:

- ``EncodeInstances`` — the standalone tokenize/encode operator (SURVEY M1/M2
  as a stage), emitting fixed-length int32 id/position arrays. Useful when
  encoded tensors are the product (training export) or for parity tests.
- ``RelationScorer`` — the fused encode+forward+head stage the KG pipeline
  uses: instance rows in, instance rows + (pred_rel, score, model_hash) out.
  Fusing avoids materializing (N, L) int arrays in the object store between
  two stages. Its unit of work is the Ray block: one encode per block,
  tokenizing each distinct text segment once, then one conv GEMM per
  distinct input row of the block, then the gathers, pooling and head
  per ``CHUNK`` slice. Encoding is no small share: the kg_build
  benchmark's 6,358 pairs cut into 31,790 segments but only 7,582
  distinct strings, and tokenizing every one of them took 0.20 of the
  scorer's 0.47 s. The pipeline runs it as stateless tasks through
  ``scorer_udf``: weights are built once per worker process and kept in
  ``_WORKER_CACHE`` (reference loads them once per process too:
  ``pretrain.py:147``).
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
        return batch.append_column(
            "rel_scores", pa.array(list(scorer.score_matrix(batch)),
                                   pa.list_(pa.float32())))

    return fn


class RelationScorer:
    """Fused encode → forward → softmax head stage.

    Emits one scored row per instance: the sentence-level equivalent of the
    reference's ``infer()`` loop (``softmax_nn.py:28-39``) vectorized over a
    batch. ``model_hash`` rides along for lineage (north-star requirement).
    """

    # Numeric chunk size, independent of Ray task granularity: a block is
    # encoded whole (~0.5 MB of int32 ids at 3.2k rows) and its conv GEMM
    # runs once per distinct row of the block, but the gathers, pooling
    # and head run per CHUNK-row slice, so the (CHUNK, L, H) buffers stay
    # at 9.4 MB each. CHUNK also bounds the block's GEMM table at
    # CHUNK·L + 1 rows (28 MB; a block with more distinct rows is split
    # into whole-CHUNK ranges), keeping the conv scratch under ~50 MB per
    # worker (see CnnSentenceEncoder); working sets of ~190 MB ran 5-7x
    # slower under 32 concurrent workers (cache pressure + huge-page
    # first-touch stalls). The head's GEMM shapes, hence the scores, are
    # those of the CHUNK slices.
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
        preds, scores = [np.empty(0, np.int64)], [np.empty(0, np.float32)]
        for rep in self._reps(batch):
            pred, score = self.model.head.infer_batch(rep)
            preds.append(pred)
            scores.append(score.astype(np.float32))
        return (batch
                .append_column("pred_rel", pa.array(
                    self._rel_names[np.concatenate(preds)], pa.string()))
                .append_column("score", pa.array(np.concatenate(scores),
                                                 pa.float32()))
                .append_column("model_hash",
                               pa.array([self._hash] * batch.num_rows,
                                        pa.string())))

    def score_matrix(self, batch: pa.Table) -> np.ndarray:
        """(n, n_rel) head scores (softmax probs / sigmoid activations) of
        a whole block, through the same per-block path as ``__call__``."""
        mats = [np.empty((0, len(self.model.head.fc_b)), np.float32)]
        mats += [self.model.head.scores(rep).astype(np.float32)
                 for rep in self._reps(batch)]
        return np.concatenate(mats)

    def _reps(self, batch: pa.Table):
        """The encoder's representations of the block, one array per
        CHUNK-row slice: the block is encoded once and the encoder runs
        its forward over it slice by slice (``forward_chunks``)."""
        return self.model.encoder.forward_chunks(self._encode(batch),
                                                 self.CHUNK)

    def _encode(self, batch: pa.Table) -> dict:
        texts = batch.column("text").to_pylist()
        # pre-tokenized rows (S1 JSONL source: ``sources.instances`` emits
        # both columns) carry token-level offsets — route them through the
        # token branch (the reference's exclusive text/token split,
        # base_encoder.py:91-96). Use the original token-list column:
        # re-splitting the joined text would break tokens that contain
        # internal spaces (e.g. 'New York').
        token_lists = None
        if "is_token" in batch.column_names:
            # `is_token` is the mode flag; text rows carry tokens == []
            flags = batch.column("is_token").to_pylist()
            if any(flags):
                tl = batch.column("tokens").to_pylist()
                token_lists = [list(t) if f else None
                               for t, f in zip(tl, flags)]
        return self.model.encoder.encode_batch(
            texts, _spans(batch, "h"), _spans(batch, "t"),
            token_lists=token_lists)
