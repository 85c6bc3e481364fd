"""Training framework: sentence-level RE training with numpy backprop.

Re-expresses the reference's training loops for this engine:

- ``SentenceRE`` framework (epoch loop, SGD/AdamW-style optimizers, best-
  checkpoint keep, per-epoch eval): reference
  ``opennre/framework/sentence_re.py:10-170`` (L1)
- class-weighted loss option (BagRE, L2): reference ``bag_re.py:64-79`` and
  the per-relation weight aggregate ``data_loader.py:147,174-176`` (G3)
- global seeding (L4): reference ``opennre/__init__.py`` fix_seed
- streaming meters (O10): reference ``framework/utils.py:1-29``
- checkpoint save/load (S5): ``.npz`` weight archives replacing
  ``.pth.tar`` (reference ``sentence_re.py:134-139``)

Data loading is Ray Data: ``ds.random_shuffle`` per epoch (O8, replacing
``DataLoader(shuffle=True)``) and ``iter_batches`` streaming to the trainer
(replacing 8 forked DataLoader workers, ``data_loader.py:105-114``).
Gradient math runs on the driver — the reference trains single-node too;
the distributed part of this engine is the data plane.
"""

from __future__ import annotations

import os
import random

import numpy as np

from . import nn
from .models import encode_instances


def fix_seed(seed: int = 42):
    """Global determinism (reference fix_seed; no torch/cuda here)."""
    random.seed(seed)
    np.random.seed(seed)


class AverageMeter:
    """Streaming mean (reference ``framework/utils.py:1-29``)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.sum = 0.0
        self.count = 0

    def update(self, val: float, n: int = 1):
        self.sum += float(val) * n
        self.count += n

    @property
    def avg(self) -> float:
        return self.sum / self.count if self.count else 0.0


def class_weights(relation_counts: dict[str, int], rel2id: dict[str, int],
                  power: float = 0.05) -> np.ndarray:
    """Per-relation loss weights ``1 / (1 + count)^power`` (reference
    ``data_loader.py:147,174-176`` — weight starts at 1 and counts add)."""
    w = np.ones(len(rel2id), dtype=np.float32)
    for rel, cnt in relation_counts.items():
        w[rel2id[rel]] += cnt
    return 1.0 / (w ** power)


def save_checkpoint(path: str, weights: dict, meta: dict | None = None):
    """Flatten a (possibly nested) weight dict into one ``.npz`` archive."""
    flat = {}

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}{k}/", v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}{i}/", v)
        else:
            flat[prefix.rstrip("/")] = np.asarray(obj)

    walk("", weights)
    if meta:
        for k, v in meta.items():
            flat[f"__meta__/{k}"] = np.asarray(v)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # np.savez silently appends '.npz' when missing — normalize here so
    # save/load agree on the final filename
    if not path.endswith(".npz"):
        path += ".npz"
    np.savez(path, **flat)
    return path


def load_checkpoint(path: str) -> dict:
    """Inverse of ``save_checkpoint`` → nested dict (lists restored)."""
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path += ".npz"
    flat = dict(np.load(path, allow_pickle=False).items())
    root: dict = {}
    for key, arr in flat.items():
        parts = key.split("/")
        cur = root
        for p in parts[:-1]:
            cur = cur.setdefault(p, {})
        cur[parts[-1]] = arr

    def fix_lists(node):
        if isinstance(node, dict):
            if node and all(k.isdigit() for k in node):
                return [fix_lists(node[str(i)]) for i in range(len(node))]
            return {k: fix_lists(v) for k, v in node.items()}
        return node

    return fix_lists(root)


class LinearWarmupSchedule:
    """Linear warmup then linear decay to zero — the reference's
    ``transformers.get_linear_schedule_with_warmup`` semantics
    (``framework/sentence_re.py:84-88``):

        multiplier(step) = step / max(1, warmup)            step < warmup
                         = max(0, (total - step)
                                  / max(1, total - warmup)) otherwise

    Step 0 therefore runs at lr 0 when warmup > 0 (the HF LambdaLR
    applies lambda(0) before the first optimizer step)."""

    def __init__(self, warmup_step: int, training_steps: int):
        self.warmup = int(warmup_step)
        self.total = int(training_steps)

    def multiplier(self, step: int) -> float:
        if step < self.warmup:
            return step / max(1, self.warmup)
        return max(0.0, (self.total - step)
                   / max(1, self.total - self.warmup))


class SgdOptimizer:
    def __init__(self, lr=0.1, weight_decay=1e-5, schedule=None):
        self.lr = lr
        self.wd = weight_decay
        self.schedule = schedule
        self.steps = 0
        self.lr_trace: list[float] = []

    def _lr(self) -> float:
        lr = self.lr if self.schedule is None else \
            self.lr * self.schedule.multiplier(self.steps)
        self.steps += 1
        self.lr_trace.append(lr)
        return lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        lr = self._lr()
        for k, g in grads.items():
            p = params[k]
            p -= lr * (g + self.wd * p)


class AdamOptimizer:
    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=1e-5, schedule=None):
        self.lr, self.b1, self.b2, self.eps, self.wd = (lr, beta1, beta2,
                                                        eps, weight_decay)
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0
        self.schedule = schedule
        self.lr_trace: list[float] = []

    def step(self, params, grads):
        lr = self.lr if self.schedule is None else \
            self.lr * self.schedule.multiplier(self.t)
        self.lr_trace.append(lr)
        self.t += 1
        for k, g in grads.items():
            g = g + self.wd * params[k]
            m = self.m.setdefault(k, np.zeros_like(g))
            v = self.v.setdefault(k, np.zeros_like(g))
            m += (1 - self.b1) * (g - m)
            v += (1 - self.b2) * (g * g - v)
            mh = m / (1 - self.b1 ** self.t)
            vh = v / (1 - self.b2 ** self.t)
            params[k] -= lr * mh / (np.sqrt(vh) + self.eps)


#: reference BERT no-decay list ['bias', 'LayerNorm.bias',
#: 'LayerNorm.weight'] (framework/sentence_re.py:66) mapped onto this
#: repo's parameter naming: *_b bias vectors, ln_*/norm* layer norms
ADAMW_NO_DECAY = ("bias", "_b", "ln_", "norm")


class AdamWOptimizer:
    """BERT-style AdamW with parameter groups — the reference's
    ``opt == 'adamw'`` branch (``framework/sentence_re.py:62-80``):
    decoupled weight decay 0.01 applied only to parameters whose name
    matches none of the no-decay patterns, ``correct_bias=False`` (no
    bias-correction terms, per ``transformers.AdamW``), optional
    :class:`LinearWarmupSchedule`."""

    def __init__(self, lr=2e-5, beta1=0.9, beta2=0.999, eps=1e-6,
                 weight_decay=0.01, schedule=None,
                 no_decay=ADAMW_NO_DECAY):
        self.lr, self.b1, self.b2, self.eps, self.wd = (lr, beta1, beta2,
                                                        eps, weight_decay)
        self.no_decay = tuple(no_decay)
        self.schedule = schedule
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0
        self.lr_trace: list[float] = []

    def step(self, params, grads):
        lr = self.lr if self.schedule is None else \
            self.lr * self.schedule.multiplier(self.t)
        self.lr_trace.append(lr)
        self.t += 1
        for k, g in grads.items():
            m = self.m.setdefault(k, np.zeros_like(g))
            v = self.v.setdefault(k, np.zeros_like(g))
            m += (1 - self.b1) * (g - m)
            v += (1 - self.b2) * (g * g - v)
            # transformers.AdamW order: gradient update FIRST, then
            # decoupled decay on the post-update parameter (distinct
            # from torch.optim.AdamW's pre-update decay by lr²·wd·upd)
            params[k] -= lr * m / (np.sqrt(v) + self.eps)
            if not any(p in k for p in self.no_decay):
                params[k] -= lr * self.wd * params[k]


class CnnSoftmaxTrainer:
    """End-to-end trainable CNN encoder + softmax head (numpy autodiff).

    Forward math identical to ``CnnSentenceEncoder`` + ``SoftmaxHead``
    (eval path bit-matches the scorer stage); backward is hand-derived:
    CE → fc → max-pool routing → ReLU mask → conv GEMM transpose →
    embedding scatter-add.
    """

    def __init__(self, model, loss_weights: np.ndarray | None = None,
                 optimizer=None):
        self.model = model
        enc = model.encoder
        self.params = {
            "word_emb": enc.w["word_emb"],
            "pos1_emb": enc.w["pos1_emb"],
            "pos2_emb": enc.w["pos2_emb"],
            "conv_w": enc.w["conv_w"],
            "conv_b": enc.w["conv_b"],
            "fc_w": model.head.fc_w,
            "fc_b": model.head.fc_b,
        }
        self.loss_weights = loss_weights
        self.opt = optimizer or SgdOptimizer()

    def _forward_cache(self, enc_batch):
        enc = self.model.encoder
        token, pos1, pos2 = (enc_batch["token"], enc_batch["pos1"],
                             enc_batch["pos2"])
        p = self.params
        x = np.concatenate([p["word_emb"][token], p["pos1_emb"][pos1],
                            p["pos2_emb"][pos2]], axis=-1).astype(np.float32)
        pad = enc.kernel_padding
        B, L, C = x.shape
        H, _, K = p["conv_w"].shape
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        wcat = p["conv_w"].transpose(1, 2, 0).reshape(C, K * H)
        Lp = L + 2 * pad
        Lout = Lp - K + 1
        z = (xp.reshape(B * Lp, C) @ wcat).reshape(B, Lp, K, H)
        conv = z[:, 0:Lout, 0].copy()
        for j in range(1, K):
            conv += z[:, j: j + Lout, j]
        conv += p["conv_b"]
        cache = {"token": token, "pos1": pos1, "pos2": pos2, "xp": xp,
                 "conv": conv, "pad": pad, "Lout": Lout, "K": K}
        cache["mask"] = enc_batch.get("mask")
        self._pool_forward(cache)
        cache["logits"] = cache["pooled"] @ p["fc_w"].T + p["fc_b"]
        return cache

    def _pool_forward(self, cache):
        """ReLU + global max-pool (CNN flavor, T1)."""
        relu = np.maximum(cache["conv"], 0.0)
        cache["relu"] = relu
        cache["pooled"] = relu.max(axis=1)              # (B, H)
        cache["argmax"] = relu.argmax(axis=1)           # (B, H)

    def _pool_backward(self, cache, dpooled):
        """Route pooled-gradient back to dconv through argmax + ReLU mask."""
        B, H = dpooled.shape
        drelu = np.zeros_like(cache["relu"])             # (B, Lout, H)
        bidx = np.repeat(np.arange(B), H)
        hidx = np.tile(np.arange(H), B)
        drelu[bidx, cache["argmax"].reshape(-1), hidx] = dpooled.reshape(-1)
        return drelu * (cache["relu"] > 0)

    def train_step(self, enc_batch, labels: np.ndarray) -> tuple[float, float]:
        """One minibatch SGD step → (loss, accuracy)."""
        cache = self._forward_cache(enc_batch)
        p = self.params
        B = len(labels)
        probs = nn.softmax(cache["logits"])
        w = (self.loss_weights[labels] if self.loss_weights is not None
             else np.ones(B, dtype=np.float32))
        eps = 1e-12
        loss = float(-(w * np.log(probs[np.arange(B), labels] + eps)).mean())
        acc = float((cache["logits"].argmax(-1) == labels).mean())

        # d loss / d logits for weighted CE
        dlogits = probs * w[:, None]
        dlogits[np.arange(B), labels] -= w
        dlogits /= B                                     # (B, N)

        grads = {}
        grads["fc_w"] = dlogits.T @ cache["pooled"]
        grads["fc_b"] = dlogits.sum(0)
        dpooled = dlogits @ p["fc_w"]                    # (B, H)
        grads.update(self.encoder_backward(cache, dpooled))

        self.opt.step(p, grads)
        # keep the frozen rows frozen (padding_idx=0 position rows, PAD word)
        p["pos1_emb"][0] = 0
        p["pos2_emb"][0] = 0
        self._sync()
        return loss, acc

    def encoder_backward(self, cache, dpooled) -> dict:
        """Backprop d loss / d pooled-representation through the encoder.

        Shared by the sentence-level head and the bag-attention trainer
        (the encoder math is identical; only the head differs).
        """
        p = self.params
        grads: dict = {}
        dconv = self._pool_backward(cache, dpooled)
        grads["conv_b"] = dconv.sum(axis=(0, 1))
        K = cache["K"]
        Lout = cache["Lout"]
        xp = cache["xp"]
        Hh, C, _ = p["conv_w"].shape
        gw = np.zeros_like(p["conv_w"])                  # (H, C, K)
        dxp = np.zeros_like(xp)
        d2 = dconv.reshape(-1, Hh)                       # (B*Lout, H)
        B = xp.shape[0]
        for j in range(K):
            xs = xp[:, j: j + Lout, :].reshape(-1, C)    # (B*Lout, C)
            gw[:, :, j] = d2.T @ xs
            dxp[:, j: j + Lout, :] += (d2 @ p["conv_w"][:, :, j]).reshape(
                B, Lout, C)
        grads["conv_w"] = gw

        pad = cache["pad"]
        dx = dxp[:, pad: xp.shape[1] - pad, :]           # (B, L, E)
        wd = p["word_emb"].shape[1]
        pd = p["pos1_emb"].shape[1]
        g_word = np.zeros_like(p["word_emb"])
        g_p1 = np.zeros_like(p["pos1_emb"])
        g_p2 = np.zeros_like(p["pos2_emb"])
        np.add.at(g_word, cache["token"].ravel(),
                  dx[:, :, :wd].reshape(-1, wd))
        np.add.at(g_p1, cache["pos1"].ravel(),
                  dx[:, :, wd: wd + pd].reshape(-1, pd))
        np.add.at(g_p2, cache["pos2"].ravel(), dx[:, :, wd + pd:].reshape(-1, pd))
        grads["word_emb"] = g_word
        grads["pos1_emb"] = g_p1
        grads["pos2_emb"] = g_p2
        return grads

    def _sync(self):
        """Push updated params back into the eval-path weight dicts."""
        enc = self.model.encoder
        enc.load_weights({**enc.w, **{
            k: self.params[k]
            for k in ("word_emb", "pos1_emb", "pos2_emb", "conv_w", "conv_b")}})
        self.model.head.fc_w = self.params["fc_w"]
        self.model.head.fc_b = self.params["fc_b"]

    def grads_numerical(self, enc_batch, labels, param, idx, eps=1e-3):
        """Central-difference loss gradient for one scalar (test hook)."""
        p = self.params[param]
        orig = p[idx]

        def loss_at(v):
            p[idx] = v
            cache = self._forward_cache(enc_batch)
            probs = nn.softmax(cache["logits"])
            w = (self.loss_weights[labels] if self.loss_weights is not None
                 else np.ones(len(labels), dtype=np.float32))
            out = float(-(w * np.log(
                probs[np.arange(len(labels)), labels] + 1e-12)).mean())
            p[idx] = orig
            return out

        return (loss_at(orig + eps) - loss_at(orig - eps)) / (2 * eps)


class PcnnSoftmaxTrainer(CnnSoftmaxTrainer):
    """Trainable piecewise-CNN (T2): per-segment masked max-pool, (B, 3H).

    Forward matches ``PcnnSentenceEncoder.forward`` (additive -100 mask
    BEFORE ReLU, ``pcnn_encoder.py:54-80``); backward routes each segment's
    pooled gradient through its own argmax + ReLU mask into the shared conv
    backward. The mask constant itself carries no gradient.
    """

    _MINUS = -100.0

    def _pool_forward(self, cache):
        conv = cache["conv"]
        mask = cache["mask"]
        acts, pools, argmaxes = [], [], []
        for seg in (1, 2, 3):
            off = (self._MINUS * (1.0 - (mask == seg))).astype(np.float32)
            act = np.maximum(conv + off[:, :, None], 0.0)
            acts.append(act)
            pools.append(act.max(axis=1))
            argmaxes.append(act.argmax(axis=1))
        cache["acts"] = acts
        cache["argmaxes"] = argmaxes
        cache["pooled"] = np.concatenate(pools, axis=-1)   # (B, 3H)

    def _pool_backward(self, cache, dpooled):
        B = dpooled.shape[0]
        H = cache["conv"].shape[2]
        dconv = np.zeros_like(cache["conv"])
        bidx = np.repeat(np.arange(B), H)
        hidx = np.tile(np.arange(H), B)
        for s in range(3):
            dp = dpooled[:, s * H: (s + 1) * H]
            dact = np.zeros_like(cache["conv"])
            dact[bidx, cache["argmaxes"][s].reshape(-1), hidx] = dp.reshape(-1)
            dconv += dact * (cache["acts"][s] > 0)
        return dconv


class BagAttentionTrainer(CnnSoftmaxTrainer):
    """Bag-level training with label-indexed instance attention (L2/G5).

    Semantics per reference ``bag_attention.py:106-133`` (train,
    bag_size=0): per bag, attention query = fc.weight[label] * diag,
    softmax over instance scores, weighted-sum bag representation → fc →
    (optionally class-weighted) CE. Gradients flow through the attention
    weights AND the query (fc row + diag) — full softmax Jacobian — then
    through the shared CNN encoder backward.
    """

    def __init__(self, model, loss_weights=None, optimizer=None):
        super().__init__(model, loss_weights=loss_weights, optimizer=optimizer)
        self.params["diag"] = (model.diag if model.diag is not None
                               else np.ones(model.encoder.hidden_size,
                                            np.float32))

    def train_step_bags(self, enc_batch, scopes, labels) -> tuple[float, float]:
        """One step over a minibatch of bags.

        Args:
            enc_batch: encoded arrays for ALL instances, bags concatenated.
            scopes: list of (start, end) instance ranges, one per bag.
            labels: (n_bags,) gold relation ids.
        """
        p = self.params
        cache = self._forward_cache(enc_batch)
        rep = cache["pooled"]                            # (nsum, H)
        n_bags = len(scopes)
        H = rep.shape[1]
        N = p["fc_w"].shape[0]

        bag_rep = np.zeros((n_bags, H), dtype=np.float32)
        att_w = []                                       # per-bag softmax weights
        for b, (s, e) in enumerate(scopes):
            q = p["fc_w"][labels[b]] * p["diag"]
            scores = rep[s:e] @ q
            w = nn.softmax(scores)
            att_w.append(w)
            bag_rep[b] = w @ rep[s:e]
        logits = bag_rep @ p["fc_w"].T + p["fc_b"]
        probs = nn.softmax(logits)
        lw = (self.loss_weights[labels] if self.loss_weights is not None
              else np.ones(n_bags, dtype=np.float32))
        loss = float(-(lw * np.log(
            probs[np.arange(n_bags), labels] + 1e-12)).mean())
        acc = float((logits.argmax(-1) == labels).mean())

        dlogits = probs * lw[:, None]
        dlogits[np.arange(n_bags), labels] -= lw
        dlogits /= n_bags

        grads = {"fc_w": dlogits.T @ bag_rep, "fc_b": dlogits.sum(0),
                 "diag": np.zeros_like(p["diag"])}
        dbag = dlogits @ p["fc_w"]                       # (n_bags, H)
        drep = np.zeros_like(rep)
        for b, (s, e) in enumerate(scopes):
            w = att_w[b]
            r = rep[s:e]
            q = p["fc_w"][labels[b]] * p["diag"]
            # bag_rep = w @ r ; att scores a_i = r_i · q
            g = dbag[b]
            drep[s:e] += np.outer(w, g)
            dotg = r @ g                                 # (n,)
            datt = w * (dotg - float(w @ dotg))          # softmax Jacobian
            drep[s:e] += np.outer(datt, q)
            dq = datt @ r                                # (H,)
            grads["fc_w"][labels[b]] += dq * p["diag"]
            grads["diag"] += dq * p["fc_w"][labels[b]]

        enc_grads = self.encoder_backward(cache, drep)
        for k, v in enc_grads.items():
            grads[k] = v
        self.opt.step(p, grads)
        p["pos1_emb"][0] = 0
        p["pos2_emb"][0] = 0
        self._sync()
        if self.model.diag is not None:
            self.model.diag = p["diag"]
        return loss, acc

    def bag_loss(self, enc_batch, scopes, labels) -> float:
        """Loss only (numerical-gradient test hook)."""
        p = self.params
        cache = self._forward_cache(enc_batch)
        rep = cache["pooled"]
        n_bags = len(scopes)
        bag_rep = np.zeros((n_bags, rep.shape[1]), dtype=np.float32)
        for b, (s, e) in enumerate(scopes):
            q = p["fc_w"][labels[b]] * p["diag"]
            w = nn.softmax(rep[s:e] @ q)
            bag_rep[b] = w @ rep[s:e]
        logits = bag_rep @ p["fc_w"].T + p["fc_b"]
        probs = nn.softmax(logits)
        lw = (self.loss_weights[labels] if self.loss_weights is not None
              else np.ones(n_bags, dtype=np.float32))
        return float(-(lw * np.log(
            probs[np.arange(n_bags), labels] + 1e-12)).mean())


class PcnnBagAttentionTrainer(BagAttentionTrainer, PcnnSoftmaxTrainer):
    """PCNN encoder + bag attention — the reference's recommended distant-
    supervision config (README.md:130-141: pcnn + att). Composition via
    MRO: bag-attention head backprop over the piecewise pooling."""


class MultiLabelTrainer(CnnSoftmaxTrainer):
    """Multi-label sentence training: BCE-with-logits over labels 1..N-1.

    Reference ``framework/multi_label_sentence_re.py:9-174`` (L3) — the NA
    column (id 0) is excluded from the loss; predictions threshold the
    per-label sigmoid scores.
    """

    def train_step_multilabel(self, enc_batch,
                              label_matrix: np.ndarray) -> tuple[float, float]:
        cache = self._forward_cache(enc_batch)
        p = self.params
        B, N = cache["logits"].shape
        pos = np.arange(1, N)                       # exclude NA (col 0)
        logits = cache["logits"][:, pos]
        y = label_matrix[:, pos].astype(np.float32)
        s = nn.sigmoid(logits)
        eps = 1e-12
        loss = float(-(y * np.log(s + eps)
                       + (1 - y) * np.log(1 - s + eps)).mean())
        acc = float(((s >= 0.5) == (y >= 0.5)).all(axis=1).mean())

        dlogits_pos = (s - y) / (B * len(pos))
        dlogits = np.zeros((B, N), dtype=np.float32)
        dlogits[:, pos] = dlogits_pos
        grads = {"fc_w": dlogits.T @ cache["pooled"], "fc_b": dlogits.sum(0)}
        dpooled = dlogits @ p["fc_w"]
        grads.update(self.encoder_backward(cache, dpooled))
        self.opt.step(p, grads)
        p["pos1_emb"][0] = 0
        p["pos2_emb"][0] = 0
        self._sync()
        return loss, acc


def train_bag_re(model, instances_df, *, epochs=3, bags_per_batch=16,
                 bag_size=0, lr=0.1, weight_decay=1e-5, seed=42,
                 use_class_weights=False):
    """Bag-level epoch loop (L2): group instances by fact key, train with
    attention aggregation.

    ``instances_df``: pandas frame (text, h_id, t_id, h_start.., relation) —
    the reference also holds the train set in memory (``data_loader.py:
    137-143``); distributed scoring/eval is the data-plane's job, the
    gradient loop is driver-side.
    """
    import pandas as pd

    fix_seed(seed)
    rel2id = model.rel2id
    weights = None
    if use_class_weights:
        counts = instances_df["relation"].value_counts().to_dict()
        weights = class_weights(counts, rel2id)
    # pick the trainer matching the encoder's pooling (a PCNN head is
    # (N, 3H) — the CNN global-max trainer would shape-mismatch)
    from .models import PcnnSentenceEncoder
    trainer_cls = (PcnnBagAttentionTrainer
                   if isinstance(model.encoder, PcnnSentenceEncoder)
                   else BagAttentionTrainer)
    trainer = trainer_cls(model, loss_weights=weights,
                          optimizer=SgdOptimizer(lr, weight_decay))
    enc = model.encoder
    # fact-key grouping (h_id, t_id, relation) per reference data_loader.py:152
    groups = list(instances_df.groupby(["h_id", "t_id", "relation"]))
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(groups))
        loss_m, acc_m = AverageMeter(), AverageMeter()
        for start in range(0, len(order), bags_per_batch):
            chunk = [groups[i] for i in order[start: start + bags_per_batch]]
            texts, h, t, scopes, labels = [], [], [], [], []
            pos = 0
            for (h_id, t_id, rel), g in chunk:
                if bag_size > 0:
                    from .pipelines.bag import bag_seed
                    bag_rng = np.random.default_rng(bag_seed(h_id, t_id))
                    n = len(g)
                    idx = (bag_rng.choice(n, bag_size, replace=False)
                           if n >= bag_size else
                           np.concatenate([np.arange(n),
                                           bag_rng.choice(n, bag_size - n)]))
                    g = g.iloc[np.sort(idx)]
                texts.extend(g["text"].tolist())
                h.append(g[["h_start", "h_end"]].to_numpy())
                t.append(g[["t_start", "t_end"]].to_numpy())
                scopes.append((pos, pos + len(g)))
                pos += len(g)
                labels.append(rel2id[rel])
            enc_batch = enc.encode_batch(texts, np.concatenate(h),
                                         np.concatenate(t))
            loss, acc = trainer.train_step_bags(enc_batch, scopes,
                                                np.array(labels))
            loss_m.update(loss, len(labels))
            acc_m.update(acc, len(labels))
        history.append({"epoch": epoch, "loss": loss_m.avg, "acc": acc_m.avg})
    return history


def train_sentence_re(model, instances_ds, *, epochs=3, batch_size=64,
                      lr=0.1, weight_decay=1e-5, optimizer="sgd",
                      warmup_step=0, val_ds=None, ckpt_path=None,
                      seed=42, loss_weights=None, metric="acc"):
    """Epoch loop over a Ray Data instance Dataset (L1 semantics).

    ``instances_ds`` columns: text, h_start, h_end, t_start, t_end,
    relation. Shuffling is ``ds.random_shuffle(seed=epoch-keyed)`` (O8);
    batches stream to the trainer via ``iter_batches``. Returns history and
    (optionally) writes the best checkpoint by validation accuracy.

    ``warmup_step > 0`` attaches the reference's linear
    warmup-then-decay schedule (``framework/sentence_re.py:84-88``)
    with ``training_steps = len(dataset) // batch_size * epochs``;
    ``optimizer='adamw'`` selects the BERT-style no-decay parameter
    groups (``framework/sentence_re.py:62-80``).
    """
    fix_seed(seed)
    if not isinstance(optimizer, str):
        opt = optimizer                     # caller-built instance
    else:
        schedule = None
        if warmup_step > 0:
            training_steps = (instances_ds.count() // batch_size) * epochs
            schedule = LinearWarmupSchedule(warmup_step, training_steps)
        if optimizer == "sgd":
            opt = SgdOptimizer(lr, weight_decay, schedule=schedule)
        elif optimizer == "adamw":
            opt = AdamWOptimizer(lr, schedule=schedule)
        else:
            opt = AdamOptimizer(lr, weight_decay=weight_decay,
                                schedule=schedule)
    from .models import PcnnSentenceEncoder
    trainer_cls = (PcnnSoftmaxTrainer
                   if isinstance(model.encoder, PcnnSentenceEncoder)
                   else CnnSoftmaxTrainer)
    trainer = trainer_cls(model, loss_weights=loss_weights, optimizer=opt)
    rel2id = model.rel2id
    enc = model.encoder
    history = []
    best_acc = -1.0

    def encode(batch):
        h = np.stack([batch["h_start"], batch["h_end"]], axis=1)
        t = np.stack([batch["t_start"], batch["t_end"]], axis=1)
        encd = enc.encode_batch(list(batch["text"]), h, t)
        labels = np.array([rel2id[r] for r in batch["relation"]])
        return encd, labels

    for epoch in range(epochs):
        loss_m, acc_m = AverageMeter(), AverageMeter()
        shuffled = instances_ds.random_shuffle(seed=seed + epoch)
        for batch in shuffled.iter_batches(batch_size=batch_size,
                                           batch_format="numpy"):
            encd, labels = encode(batch)
            loss, acc = trainer.train_step(encd, labels)
            loss_m.update(loss, len(labels))
            acc_m.update(acc, len(labels))
        entry = {"epoch": epoch, "loss": loss_m.avg, "acc": acc_m.avg}
        if val_ds is not None:
            from .pipelines.evalmetrics import sentence_eval

            golds, preds = [], []
            for batch in val_ds.iter_batches(batch_size=batch_size,
                                             batch_format="numpy"):
                encd, labels = encode(batch)
                rep = enc(encd)
                pred, _ = model.head.infer_batch(rep)
                golds.extend(labels.tolist())
                preds.extend(pred.tolist())
            entry["val"] = sentence_eval(golds, preds, rel2id)
            # best-checkpoint criterion is selectable (reference --metric,
            # example/train_supervised_cnn.py: micro_f1 | acc)
            if ckpt_path and entry["val"][metric] > best_acc:
                best_acc = entry["val"][metric]
                save_checkpoint(ckpt_path, {"enc": enc.w,
                                            "fc_w": model.head.fc_w,
                                            "fc_b": model.head.fc_b})
        history.append(entry)
    return history
