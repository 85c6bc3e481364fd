"""Sentence encoders, classification heads, and bag-level aggregators (numpy).

Behavior-compatible re-implementations of the reference model layer, written
for batched, columnar execution inside Ray Data stages:

- entity-aware sentence encode (5-segment split, position vectors, pad /
  truncate): reference ``opennre/encoder/base_encoder.py:84-154`` (M1)
- PCNN segment mask: reference ``opennre/encoder/pcnn_encoder.py:151-173`` (M2)
- BERT-style encode with [unusedN] entity markers: reference
  ``opennre/encoder/bert_encoder.py:35-103`` (M3) and entity variant
  ``:145-215`` (M4)
- CNN / PCNN / BERT forward: reference ``cnn_encoder.py:46-65``,
  ``pcnn_encoder.py:54-80``, ``bert_encoder.py:23-33,123-143`` (T1-T4)
- softmax / sigmoid heads: reference ``model/softmax_nn.py``,
  ``model/sigmoid_nn.py`` (T5/T6)
- bag aggregators (attention / average / one, train and eval semantics):
  reference ``model/bag_attention.py:100-181``, ``bag_average.py:71-133``,
  ``bag_one.py:63-154`` (G5-G9)

Unlike the reference (one item per call, tensors allocated per instance),
every function here is batch-first: lists/arrays in, numpy arrays out, so a
single actor call scores thousands of instances with vectorized kernels.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .tokenization import (BertTokenizer, WordTokenizer, memoize_per_call,
                           tokens_to_ids)


# ---------------------------------------------------------------------------
# Entity-aware encoding (M1/M2)
# ---------------------------------------------------------------------------

def _split_segments(tokenize, sentence, pos_head, pos_tail, mask_entity):
    """5-segment entity-aware split of a raw sentence (char offsets).

    Returns (tokens, head_token_pos, tail_token_pos) with token-level spans,
    handling the reversed (tail-before-head) case — reference
    ``base_encoder.py:99-121``.
    """
    rev = pos_head[0] > pos_tail[0]
    lo, hi = (pos_tail, pos_head) if rev else (pos_head, pos_tail)
    before = tokenize(sentence[: lo[0]])
    ent_lo = tokenize(sentence[lo[0]: lo[1]])
    between = tokenize(sentence[lo[1]: hi[0]])
    ent_hi = tokenize(sentence[hi[0]: hi[1]])
    after = tokenize(sentence[hi[1]:])
    if mask_entity:
        ent_lo = ["[UNK]"]
        ent_hi = ["[UNK]"]
    tokens = before + ent_lo + between + ent_hi + after
    span_lo = [len(before), len(before) + len(ent_lo)]
    span_hi = [span_lo[1] + len(between), span_lo[1] + len(between) + len(ent_hi)]
    if rev:
        return tokens, span_hi, span_lo
    return tokens, span_lo, span_hi


def encode_instances(
    texts,
    h_pos,
    t_pos,
    token2id: dict[str, int],
    max_length: int = 128,
    mask_entity: bool = False,
    with_mask: bool = False,
    token_lists=None,
):
    """Encode a batch of instances into fixed-length id/position arrays.

    Args:
        texts: list of raw sentences (char-offset variant) — entries may be
            None when ``token_lists`` provides the pre-tokenized variant
            (the exclusive text/token branch, ``base_encoder.py:91-96``).
        h_pos / t_pos: (N, 2) int arrays of half-open entity spans.
        with_mask: also emit the PCNN segment mask column
            (``pcnn_encoder.py:155-172``).

    Returns dict of int32 arrays: token/pos1/pos2 (N, L), optionally mask.
    """
    tokenize = memoize_per_call(WordTokenizer(vocab=token2id).tokenize)
    pad_id = token2id["[PAD]"]
    unk_id = token2id["[UNK]"]
    n = len(h_pos)
    L = max_length

    token_arr = np.full((n, L), pad_id, dtype=np.int32)
    ntok = np.zeros(n, dtype=np.int64)
    p1_start = np.zeros(n, dtype=np.int64)
    p2_start = np.zeros(n, dtype=np.int64)

    for i in range(n):
        if token_lists is not None and token_lists[i] is not None:
            tokens = list(token_lists[i])
            span_h = [int(h_pos[i][0]), int(h_pos[i][1])]
            span_t = [int(t_pos[i][0]), int(t_pos[i][1])]
        else:
            tokens, span_h, span_t = _split_segments(
                tokenize, texts[i], h_pos[i], t_pos[i], mask_entity
            )
        ids = tokens_to_ids(token2id, tokens, L, pad_id, unk_id)
        token_arr[i, : len(ids)] = ids
        ntok[i] = len(tokens)
        p1_start[i] = min(span_h[0], L)
        p2_start[i] = min(span_t[0], L)

    # Relative-position vectors, vectorized over the batch
    # (reference base_encoder.py:129-139 — per-token min(i - start + L, 2L-1),
    # zero-padded past the real token count).
    idx = np.arange(L, dtype=np.int64)[None, :]
    valid = idx < np.minimum(ntok, L)[:, None]
    pos1 = np.where(valid, np.minimum(idx - p1_start[:, None] + L, 2 * L - 1), 0)
    pos2 = np.where(valid, np.minimum(idx - p2_start[:, None] + L, 2 * L - 1), 0)

    out = {
        "token": token_arr,
        "pos1": pos1.astype(np.int32),
        "pos2": pos2.astype(np.int32),
    }
    if with_mask:
        lo = np.minimum(p1_start, p2_start)[:, None]
        hi = np.maximum(p1_start, p2_start)[:, None]
        seg = np.where(idx <= lo, 1, np.where(idx <= hi, 2, 3))
        out["mask"] = np.where(valid, seg, 0).astype(np.int32)
    return out


class CnnSentenceEncoder:
    """CNN sentence encoder: word⊕pos1⊕pos2 embed → Conv1d → ReLU → max-pool.

    Reference: ``opennre/encoder/cnn_encoder.py`` (T1) over the base encode
    (M1). Weights is a dict with torch-layout arrays:
    ``word_emb (V, word)``, ``pos1_emb/pos2_emb (2L, pos)``,
    ``conv_w (H, word+2*pos, K)``, ``conv_b (H,)``.

    The conv runs one GEMM per DISTINCT ``(token, pos1, pos2)`` row of a
    table (``_conv_tables``), then K shifted row-gathers per slice
    (``_conv_gather``); it is bit-identical to ``nn.conv1d`` over
    ``_embed`` at any batch size. ``RelationScorer`` builds one table per
    block and gathers per ``CHUNK`` slice (``forward_chunks``); every other
    caller builds one table per batch (``_conv_forward``). Scratch per
    encoder, at ``chunk`` = ``RelationScorer.CHUNK`` = 256 rows of L = 40,
    H = 230, C = 60: two (chunk, L, H) float32 gather buffers (9.4 MB
    each) plus the table's GEMM input and output, (U+1, C) and
    (U+1, K·H). A table holds at most chunk·L + 1 = 10,241 rows (2.5 +
    28.3 MB), ~50 MB in all at that ceiling; the kg_build benchmark's
    3.2k-row blocks hold ~5.4k distinct rows (1.3 + 14.9 MB, ~35 MB in
    all). The buffers are grown to the largest table and slice seen.
    """

    with_mask = False

    def __init__(self, token2id, weights, max_length=40, hidden_size=230,
                 mask_entity=False, kernel_padding=1):
        self.token2id = dict(token2id)
        if "[UNK]" not in self.token2id:
            self.token2id["[UNK]"] = len(self.token2id)
        if "[PAD]" not in self.token2id:
            self.token2id["[PAD]"] = len(self.token2id)
        self.max_length = max_length
        self.hidden_size = hidden_size
        self.mask_entity = mask_entity
        self.kernel_padding = kernel_padding
        self.load_weights(weights)

    def load_weights(self, weights: dict):
        """Replace ALL weights and re-derive everything computed from them.

        The one weight-refresh path: ``__init__``, checkpoint restore and
        the trainer's per-step sync all come through here. Assigning
        ``encoder.w`` directly would leave ``_wcat`` (the conv kernels
        side by side, ``(C, K*H)``, for the single-GEMM conv) on the OLD
        conv weights. RNN/LSTM subclasses carry no conv weights.
        """
        self.w = {k: np.asarray(v, dtype=np.float32)
                  for k, v in weights.items()}
        if "conv_w" in self.w:
            cw = self.w["conv_w"]                   # (H, C, K)
            self._wcat = np.ascontiguousarray(
                cw.transpose(1, 2, 0).reshape(cw.shape[1], -1))
        self._scratch = {}
        return self

    def encode_batch(self, texts, h_pos, t_pos, token_lists=None):
        return encode_instances(
            texts, h_pos, t_pos, self.token2id, self.max_length,
            self.mask_entity, with_mask=self.with_mask, token_lists=token_lists,
        )

    def _embed(self, token, pos1, pos2):
        return np.concatenate(
            [self.w["word_emb"][token], self.w["pos1_emb"][pos1],
             self.w["pos2_emb"][pos2]], axis=-1,
        ).astype(np.float32)

    def _buf(self, name, n, *shape):
        """First ``n`` rows of the float32 scratch buffer ``name``, grown to
        the largest ``n`` seen. Under tens of concurrent worker processes,
        fresh multi-MB allocations per batch cost more than the FLOPs
        (page faults + kernel zeroing serialize on the memory subsystem),
        and blocks end in ragged chunks, so buffers are sized by capacity,
        not per batch shape."""
        buf = self._scratch.get(name)
        if buf is None or len(buf) < n or buf.shape[1:] != shape:
            buf = self._scratch[name] = np.empty((n,) + shape, np.float32)
        return buf[:n]

    def _conv_tables(self, token, pos1, pos2, chunk):
        """Step (a) of the conv: distinct-row GEMM tables over a block.

        Each embedded row is a pure function of ``(token, pos1, pos2)``,
        and [PAD] positions past the sentence are all ``([PAD], 0, 0)``:
        a 3.2k-row block of the kg_build benchmark's pairs holds ~5.3k
        distinct keys among its 128k positions. So every position is
        keyed, and the distinct rows are embedded and multiplied once per
        table (``_conv_table``).

        Yields ``(lo, hi, zrows, inv)`` for consecutive row ranges
        ``[lo, hi)`` that cover the block (one empty range for an empty
        block): the range's table and each of its positions' distinct-row
        index, (hi - lo, L). A range is the rest of the block while its distinct keys
        fit in ``chunk``·L, else the longest run of whole ``chunk``-row
        slices that fits; one slice always fits. So a table never exceeds
        ``chunk``·L + 1 rows, the table of one slice at worst.
        """
        npos = max(len(self.w["pos1_emb"]), len(self.w["pos2_emb"]))
        key = (token.astype(np.int64) * npos + pos1) * npos + pos2
        B, L = key.shape
        cap = chunk * L
        lo = 0
        while True:
            ukey, inv = np.unique(key[lo:], return_inverse=True)
            hi = B
            if len(ukey) > cap:
                # the (cap+1)-th distinct key first appears at flat
                # position p of key[lo:]: keep the whole slices before it
                first = np.unique(key[lo:], return_index=True)[1]
                hi = lo + int(np.partition(first, cap)[cap]) // cap * chunk
                ukey, inv = np.unique(key[lo:hi], return_inverse=True)
            yield (lo, hi, self._conv_table(ukey, npos),
                   inv.reshape(hi - lo, L))
            lo = hi
            if lo >= B:
                return

    def _conv_table(self, ukey, npos):
        """Embed the U distinct keys ``ukey`` and multiply them once:
        ``zu = xu @ _wcat``, (U+1, K·H), in the ``_buf`` scratch. Returns
        ``zu`` viewed as (U+1)·K rows of H: row r of ``Zj`` (the j-th
        H-wide block of ``zu``) is row r·K + j."""
        w = self.w
        H, C, K = w["conv_w"].shape
        U = len(ukey)
        tok_u, pos_u = np.divmod(ukey, npos * npos)
        p1_u, p2_u = np.divmod(pos_u, npos)
        wd = w["word_emb"].shape[1]
        pd = w["pos1_emb"].shape[1]
        # GEMM rows: the U distinct rows, then one zero row (row U) for
        # the conv's zero padding. It must be the LAST row: OpenBLAS
        # computes the last row of an odd-row GEMM with a 1-row kernel
        # that sums in another order, and numpy sends a 1-row product to
        # gemv; a zero row is 0 either way. Every other row is then the
        # same whatever U is, so tables of any extent give the same rows.
        xu = self._buf("x", U + 1, C)
        np.take(w["word_emb"], tok_u, axis=0, out=xu[:U, :wd])
        np.take(w["pos1_emb"], p1_u, axis=0, out=xu[:U, wd: wd + pd])
        np.take(w["pos2_emb"], p2_u, axis=0, out=xu[:U, wd + pd:])
        xu[U] = 0.0
        zu = self._buf("z", U + 1, K * H)
        np.matmul(xu, self._wcat, out=zu)
        return zu.reshape(-1, H)

    def _conv_gather(self, zrows, inv):
        """Step (b): the conv output (B, Lout, H) of the rows whose
        distinct-row indices are ``inv`` (B, L), as the sum of K shifted
        gathers from a ``_conv_table``:
        ``y[b, l] = ((Z0[r(b, l)] + Z1[r(b, l+1)]) + Z2[r(b, l+2)]) + conv_b``.
        Each GEMM row, and the add order, is the one ``nn.conv1d``
        computes for that position, so the output is bit-identical to it.

        Returns a view of a scratch buffer, overwritten by the next call.
        """
        w = self.w
        H, _, K = w["conv_w"].shape
        B, L = inv.shape
        pad = self.kernel_padding
        Lp = L + 2 * pad
        Lout = Lp - K + 1
        # padding positions read the zero row, the table's last
        rows = np.full((B, Lp), len(zrows) - K, np.intp)
        rows[:, pad: pad + L] = inv * K
        y = self._buf("y", B, Lout, H)
        tmp = self._buf("tmp", B, Lout, H)
        # mode="clip": every index is in range, and the default "raise"
        # buffers ``out`` through a temporary copy
        np.take(zrows, rows[:, :Lout], axis=0, out=y, mode="clip")
        for j in range(1, K):
            np.take(zrows, rows[:, j: j + Lout] + j, axis=0, out=tmp,
                    mode="clip")
            np.add(y, tmp, out=y)
        y += w["conv_b"]
        return y

    def _conv_forward(self, token, pos1, pos2):
        """Embed + conv of one batch → (B, Lout, H): steps (a) and (b)
        over one table of the whole batch (a ``chunk`` of B rows never
        splits). Returns a view of a scratch buffer."""
        (_, _, zrows, inv), = self._conv_tables(token, pos1, pos2,
                                                max(len(token), 1))
        return self._conv_gather(zrows, inv)

    def forward_chunks(self, enc: dict, chunk: int):
        """The representations of an encoded block, one array per
        consecutive ``chunk``-row slice, in order. Step (a) runs once per
        table of ``_conv_tables`` (once per block unless it holds more
        than ``chunk``·L distinct keys), steps (b) and the pooling once
        per slice, so the gather buffers stay at ``chunk`` rows. Each
        array equals ``self`` over that slice alone, bit for bit. The
        tables live in scratch: consume the generator before calling the
        encoder again."""
        mask = enc.get("mask")
        for lo, hi, zrows, inv in self._conv_tables(
                enc["token"], enc["pos1"], enc["pos2"], chunk):
            for off in range(lo, hi, chunk):
                end = min(off + chunk, hi)
                yield self._pool(self._conv_gather(zrows,
                                                   inv[off - lo: end - lo]),
                                 None if mask is None else mask[off:end])

    def _pool(self, conv, mask=None):
        return np.maximum(conv, 0.0, out=conv).max(axis=1)       # (B, H)

    def forward(self, token, pos1, pos2):
        return self._pool(self._conv_forward(token, pos1, pos2))

    def __call__(self, enc: dict) -> np.ndarray:
        return self.forward(enc["token"], enc["pos1"], enc["pos2"])


class PcnnSentenceEncoder(CnnSentenceEncoder):
    """Piecewise CNN: conv then per-segment max-pool with additive -100 mask.

    Reference: ``opennre/encoder/pcnn_encoder.py:54-80`` (T2). Effective
    hidden size is 3 × ``hidden_size``.
    """

    with_mask = True
    _MINUS = -100.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hidden_size = self.hidden_size * 3

    def _pool(self, conv, mask=None):
        # the conv's gather buffer is free once it returns
        tmp = self._buf("tmp", *conv.shape)
        pools = []
        for seg in (1, 2, 3):
            off = (self._MINUS * (1.0 - (mask == seg))).astype(np.float32)  # (B, L)
            np.add(conv, off[:, :, None], out=tmp)
            np.maximum(tmp, 0.0, out=tmp)
            pools.append(tmp.max(axis=1))
        return np.concatenate(pools, axis=-1)                    # (B, 3H)

    def forward(self, token, pos1, pos2, mask=None):
        return self._pool(self._conv_forward(token, pos1, pos2), mask)

    def __call__(self, enc: dict) -> np.ndarray:
        return self.forward(enc["token"], enc["pos1"], enc["pos2"], enc["mask"])


def _forward_slices(encoder, enc: dict, chunk: int):
    """``forward_chunks`` of the encoders without a conv table: the
    forward of each consecutive ``chunk``-row slice of the block."""
    for off in range(0, len(enc["token"]), chunk):
        yield encoder({k: v[off: off + chunk] for k, v in enc.items()})


class RnnSentenceEncoder(CnnSentenceEncoder):
    """Tanh-RNN sentence encoder with mean pooling over valid tokens.

    The reference declares RNN/AvgPool modules (``module/nn/rnn.py``,
    ``module/pool/avg_pool.py``, T7) but no encoder ever uses them (dead
    code); this is a working equivalent: word⊕pos embed → tanh RNN →
    mean over non-pad positions. Weights: rnn_w_ih (H, E), rnn_w_hh (H, H),
    rnn_b (H,).
    """

    def __init__(self, *args, **kwargs):
        CnnSentenceEncoder.__init__(self, *args, **kwargs)

    def forward(self, token, pos1, pos2):
        x = self._embed(token, pos1, pos2)               # (B, L, E)
        w = self.w
        B, L, _ = x.shape
        H = w["rnn_w_hh"].shape[0]
        h = np.zeros((B, H), dtype=np.float32)
        states = np.empty((B, L, H), dtype=np.float32)
        xw = x @ w["rnn_w_ih"].T + w["rnn_b"]            # (B, L, H) once
        for step in range(L):
            h = np.tanh(xw[:, step] + h @ w["rnn_w_hh"].T)
            states[:, step] = h
        pad_id = self.token2id["[PAD]"]
        valid = (token != pad_id).astype(np.float32)      # (B, L)
        denom = np.maximum(valid.sum(axis=1, keepdims=True), 1.0)
        return (states * valid[:, :, None]).sum(axis=1) / denom

    def __call__(self, enc: dict) -> np.ndarray:
        return self.forward(enc["token"], enc["pos1"], enc["pos2"])

    forward_chunks = _forward_slices


class LstmSentenceEncoder(CnnSentenceEncoder):
    """LSTM sentence encoder, final hidden state as representation.

    The reference's LSTM module is unreachable AND broken (passes a
    ``nonlinearity`` kwarg ``nn.LSTM`` doesn't accept, ``module/nn/
    lstm.py:19-24``); this is a working replacement. Weights: lstm_w_ih
    (4H, E), lstm_w_hh (4H, H), lstm_b (4H,) with gate order i,f,g,o.
    """

    def forward(self, token, pos1, pos2):
        x = self._embed(token, pos1, pos2)
        w = self.w
        B, L, _ = x.shape
        H = w["lstm_w_hh"].shape[1]
        h = np.zeros((B, H), dtype=np.float32)
        c = np.zeros((B, H), dtype=np.float32)
        xw = x @ w["lstm_w_ih"].T + w["lstm_b"]          # (B, L, 4H)
        pad_id = self.token2id["[PAD]"]
        valid = (token != pad_id).astype(np.float32)
        last = np.zeros((B, H), dtype=np.float32)
        for step in range(L):
            gates = xw[:, step] + h @ w["lstm_w_hh"].T
            i = nn.sigmoid(gates[:, :H])
            f = nn.sigmoid(gates[:, H: 2 * H])
            g = np.tanh(gates[:, 2 * H: 3 * H])
            o = nn.sigmoid(gates[:, 3 * H:])
            c = f * c + i * g
            h = o * np.tanh(c)
            m = valid[:, step: step + 1]
            last = last * (1 - m) + h * m                 # keep last valid h
        return last

    def __call__(self, enc: dict) -> np.ndarray:
        return self.forward(enc["token"], enc["pos1"], enc["pos2"])

    forward_chunks = _forward_slices


# ---------------------------------------------------------------------------
# BERT-style encoder (M3/M4 + T3/T4) — tiny seeded transformer, same op order
# ---------------------------------------------------------------------------

class BertSentenceEncoder:
    """BERT-shaped encoder with [unused0-5] entity markers.

    Encoding mirrors reference ``bert_encoder.py:35-103``: wordpiece the five
    segments, bracket head with [unused0]/[unused1] and tail with
    [unused2]/[unused3] (swapped when the tail precedes the head), wrap in
    [CLS]/[SEP], pad to ``max_length``, attention mask over the real tokens.
    Forward runs a post-LN transformer and returns the pooled [CLS] state.
    """

    with_mask = False

    def __init__(self, vocab, weights, max_length=80, hidden_size=64,
                 n_layers=2, n_heads=4, mask_entity=False, entity_repr=False):
        self.tokenizer = BertTokenizer(vocab)
        self.vocab = vocab
        self.w = {k: np.asarray(v, dtype=np.float32) if not isinstance(v, list)
                  else v for k, v in weights.items()}
        self.max_length = max_length
        self.hidden_size = hidden_size * 2 if entity_repr else hidden_size
        self._h = hidden_size
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.mask_entity = mask_entity
        self.entity_repr = entity_repr

    def encode_batch(self, texts, h_pos, t_pos, token_lists=None):
        n = len(h_pos)
        L = self.max_length
        token = np.zeros((n, L), dtype=np.int32)         # 0 == [PAD]
        att = np.zeros((n, L), dtype=np.int32)
        p1 = np.zeros(n, dtype=np.int32)
        p2 = np.zeros(n, dtype=np.int32)
        tk = self.tokenizer
        tokenize = memoize_per_call(tk.tokenize)
        for i in range(n):
            if token_lists is not None and token_lists[i] is not None:
                words = list(token_lists[i])
                hp, tp = h_pos[i], t_pos[i]
                rev = hp[0] > tp[0]
                lo, hi = (tp, hp) if rev else (hp, tp)
                segs = [" ".join(words[: lo[0]]), " ".join(words[lo[0]: lo[1]]),
                        " ".join(words[lo[1]: hi[0]]), " ".join(words[hi[0]: hi[1]]),
                        " ".join(words[hi[1]:])]
            else:
                sentence = texts[i]
                hp, tp = h_pos[i], t_pos[i]
                rev = hp[0] > tp[0]
                lo, hi = (tp, hp) if rev else (hp, tp)
                segs = [sentence[: lo[0]], sentence[lo[0]: lo[1]],
                        sentence[lo[1]: hi[0]], sentence[hi[0]: hi[1]],
                        sentence[hi[1]:]]
            sent0, ent0, sent1, ent1, sent2 = (tokenize(s) for s in segs)
            if self.mask_entity:
                ent0 = ["[unused4]"] if not rev else ["[unused5]"]
                ent1 = ["[unused5]"] if not rev else ["[unused4]"]
            else:
                ent0 = (["[unused0]"] + ent0 + ["[unused1]"]) if not rev \
                    else (["[unused2]"] + ent0 + ["[unused3]"])
                ent1 = (["[unused2]"] + ent1 + ["[unused3]"]) if not rev \
                    else (["[unused0]"] + ent1 + ["[unused1]"])
            pieces = ["[CLS]"] + sent0 + ent0 + sent1 + ent1 + sent2 + ["[SEP]"]
            start_lo = 1 + len(sent0)
            start_hi = 1 + len(sent0) + len(ent0) + len(sent1)
            hpos = start_hi if rev else start_lo
            tpos = start_lo if rev else start_hi
            p1[i] = min(self.max_length - 1, hpos)
            p2[i] = min(self.max_length - 1, tpos)
            ids = tk.convert_tokens_to_ids(pieces)[:L]
            token[i, : len(ids)] = ids
            att[i, : min(len(pieces), L)] = 1
        return {"token": token, "att_mask": att, "pos1": p1, "pos2": p2}

    def _hidden_states(self, token, att_mask):
        L = token.shape[1]
        x = (self.w["word_emb"][token]
             + self.w["pos_emb"][np.arange(L)][None, :, :]
             + self.w["type_emb"][0][None, None, :])
        x = nn.layer_norm(x, self.w["emb_ln_g"], self.w["emb_ln_b"])
        att = att_mask.astype(np.float32)
        for layer in self.w["layers"]:
            x = nn.attention_layer(x, att, layer, self.n_heads)
            x = nn.ffn_layer(x, layer)
        return x

    def forward(self, token, att_mask, pos1=None, pos2=None):
        hidden = self._hidden_states(token, att_mask)
        if self.entity_repr:
            # Gather entity-start hidden states (reference bert_encoder.py:131-142)
            b = np.arange(len(token))
            head = hidden[b, pos1]
            tail = hidden[b, pos2]
            x = np.concatenate([head, tail], axis=-1)
            return nn.linear(x, self.w["ent_w"], self.w["ent_b"])
        pooled = np.tanh(nn.linear(hidden[:, 0], self.w["pool_w"], self.w["pool_b"]))
        return pooled

    def __call__(self, enc: dict) -> np.ndarray:
        return self.forward(enc["token"], enc["att_mask"], enc["pos1"], enc["pos2"])

    forward_chunks = _forward_slices


# ---------------------------------------------------------------------------
# Heads (T5/T6)
# ---------------------------------------------------------------------------

class SoftmaxHead:
    """Linear + softmax sentence-level head (reference ``softmax_nn.py``)."""

    def __init__(self, fc_w, fc_b, rel2id):
        self.fc_w = np.asarray(fc_w, dtype=np.float32)
        self.fc_b = np.asarray(fc_b, dtype=np.float32)
        self.rel2id = rel2id
        self.id2rel = {v: k for k, v in rel2id.items()}

    def logits(self, rep: np.ndarray) -> np.ndarray:
        # numpy sends a 1-row product to gemv, which sums in another
        # order than the batched GEMM: score a lone row as two rows
        if len(rep) == 1:
            return nn.linear(np.concatenate([rep, rep]), self.fc_w,
                             self.fc_b)[:1]
        return nn.linear(rep, self.fc_w, self.fc_b)

    def scores(self, rep: np.ndarray) -> np.ndarray:
        return nn.softmax(self.logits(rep))

    def infer_batch(self, rep: np.ndarray):
        """(pred_ids, pred_scores) per instance — ``softmax_nn.py:28-39``."""
        probs = self.scores(rep)
        pred = probs.argmax(axis=-1)
        return pred, probs[np.arange(len(probs)), pred]


class SigmoidHead(SoftmaxHead):
    """Linear + elementwise sigmoid (multi-label; reference ``sigmoid_nn.py``)."""

    def scores(self, rep: np.ndarray) -> np.ndarray:
        return nn.sigmoid(self.logits(rep))


# ---------------------------------------------------------------------------
# Bag aggregators (G5-G9) — operate on per-bag representation matrices
# ---------------------------------------------------------------------------

def bag_attention_eval(rep, fc_w, fc_b, diag=None):
    """Per-relation attention over a bag, post-softmax diagonal scores.

    rep: (n, H) instance representations of ONE bag. Returns (N,) scores.
    Reference ``bag_attention.py:152-166`` (eval, bag_size=0).
    """
    att_mat = fc_w.T if diag is None else fc_w.T * diag[:, None]   # (H, N)
    att_score = rep @ att_mat                                      # (n, N)
    att_soft = nn.softmax(att_score.T, axis=-1)                    # (N, n)
    rep_per_rel = att_soft @ rep                                   # (N, H)
    probs = nn.softmax(nn.linear(rep_per_rel, fc_w, fc_b))         # (N, N)
    return np.diag(probs).copy()


def bag_attention_train(rep, label, fc_w, fc_b, diag=None):
    """Label-indexed attention for one bag at train time → logits (N,).

    Reference ``bag_attention.py:106-127`` (train, bag_size=0), dropout
    elided (eval-mode determinism).
    """
    att_vec = fc_w[label] if diag is None else fc_w[label] * diag   # (H,)
    att_score = rep @ att_vec                                       # (n,)
    weights = nn.softmax(att_score, axis=-1)
    bag_rep = weights @ rep                                         # (H,)
    return nn.linear(bag_rep, fc_w, fc_b)


def bag_average_eval(rep, fc_w, fc_b):
    """Mean of instance reps → fc → softmax (reference ``bag_average.py:118-131``)."""
    return nn.softmax(nn.linear(rep.mean(axis=0), fc_w, fc_b))


def bag_one_eval(rep, fc_w, fc_b):
    """Per-relation max of per-instance softmax scores (``bag_one.py:137-145``)."""
    probs = nn.softmax(nn.linear(rep, fc_w, fc_b))                  # (n, N)
    return probs.max(axis=0)


def bag_one_train(rep, label, fc_w, fc_b):
    """Pick the instance scoring highest on the gold label → logits (N,).

    Reference ``bag_one.py:110-122``.
    """
    probs = nn.softmax(nn.linear(rep, fc_w, fc_b))
    best = int(probs[:, label].argmax())
    return nn.linear(rep[best], fc_w, fc_b)


BAG_EVAL_AGGREGATORS = {
    "att": bag_attention_eval,
    "avg": lambda rep, fc_w, fc_b, diag=None: bag_average_eval(rep, fc_w, fc_b),
    "one": lambda rep, fc_w, fc_b, diag=None: bag_one_eval(rep, fc_w, fc_b),
}
