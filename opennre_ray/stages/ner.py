"""Sentence split + gazetteer NER + candidate entity linking.

The reference only *declares* the NER surface (``opennre/model/base_model.py:
59-71`` — ``NER.ner()`` is an unimplemented hook; OpenNRE assumes ``h``/``t``
mentions are given). The KG build supplies its own mention detection behind
the same ``[{name, pos}]`` contract: a pinned alias table (surface → entity
id) compiled into a leftmost-longest regex, applied per sentence. The
pipeline runs ``SentenceMentions`` as stateless tasks through
``mentions_udf``, which compiles the table once per worker process —
never re-shipped per batch.
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..fixtures import default_alias_table
from ..tokenization import clean_text, strip_accents

_SENT_BOUNDARY = re.compile(r"(?<=[.!?])\s+")
_WS = re.compile(r"\s+")

MAX_SENT_TOKENS = 24  # windows beyond this split further (CNN max_length=40)


def normalize_surface(s: str) -> str:
    """Canonicalization key: clean → accent-strip → lowercase → collapse ws.

    This is THE partition key of the canonicalization shuffle (SURVEY §7.3);
    it must be a pure function so keys agree across nodes.
    """
    return _WS.sub(" ", strip_accents(clean_text(s)).lower()).strip()


def split_sentences(text: str, max_tokens: int = MAX_SENT_TOKENS):
    """Deterministic sentence segmentation with char offsets.

    Splits on terminal punctuation; over-long sentences are re-windowed on
    word boundaries so downstream encoding (max_length 40) rarely truncates.
    Returns list of (start_char, sentence_text).
    """
    out = []
    offset = 0
    for chunk in _SENT_BOUNDARY.split(text):
        if not chunk:
            continue
        start = text.index(chunk, offset)
        offset = start + len(chunk)
        words = chunk.split(" ")
        if len(words) <= max_tokens:
            out.append((start, chunk))
            continue
        # fixed-size word windows; start offset = length of preceding words
        for i in range(0, len(words), max_tokens):
            window = " ".join(words[i: i + max_tokens])
            wstart = len(" ".join(words[:i])) + (1 if i else 0)
            out.append((start + wstart, window))
    return out


def normalize_with_offsets(text: str) -> tuple[str, list[int]]:
    """``normalize_surface``-equivalent string plus normalized→raw index map.

    Applies the same per-char pipeline (clean → strip accents → lower →
    collapse whitespace → strip) while recording, for every normalized
    character, the raw-character index it came from — so matches against the
    normalized text can be mapped back to raw char spans.
    """
    from ..tokenization import _char_class

    chars: list[str] = []
    idx: list[int] = []
    pending_space = -1          # raw index of a collapsed whitespace run
    for i, ch in enumerate(text):
        cls = _char_class(ch)
        if cls == 1:
            continue
        if cls == 2:
            if chars and pending_space < 0:
                pending_space = i
            continue
        if pending_space >= 0:
            chars.append(" ")
            idx.append(pending_space)
            pending_space = -1
        for sub in strip_accents(ch):
            for low in sub.lower():
                chars.append(low)
                idx.append(i)
    return "".join(chars), idx


class AliasMatcher:
    """Leftmost-longest gazetteer matcher over normalized text.

    The sentence is normalized with an offset map before matching (the alias
    keys are normalized surfaces), so accented/odd-case surface forms in raw
    text — e.g. ``quéry`` for the alias key ``query`` — still match, and the
    emitted spans index the RAW sentence.
    """

    def __init__(self, alias_table: dict[str, str]):
        # re-normalize keys through the SAME per-char pipeline the matcher
        # applies to sentences: whole-string lower() (normalize_surface) is
        # context-sensitive (Greek final sigma), per-char lower() is not —
        # keys and text must go through one function or such aliases
        # silently never match. First key wins on (rare) collisions.
        self.alias_table = {}
        for k, v in alias_table.items():
            nk = normalize_with_offsets(k)[0]
            self.alias_table.setdefault(nk, v)
        # longest alias first so 'hash join' wins over 'hash' at the same start
        pats = sorted(self.alias_table, key=len, reverse=True)
        self.rx = re.compile(
            r"\b(" + "|".join(re.escape(a) for a in pats) + r")\b")

    def find(self, sentence: str):
        """→ list of (start, end, surface, entity_id), non-overlapping.

        start/end are raw-sentence char offsets; surface is the raw text
        slice (possibly accented/cased differently from the alias key).
        """
        norm, idx = normalize_with_offsets(sentence)
        out = []
        for m in self.rx.finditer(norm):
            eid = self.alias_table.get(m.group(1))
            if eid is None:
                continue
            start = idx[m.start(1)]
            end = idx[m.end(1) - 1] + 1
            out.append((start, end, sentence[start:end], eid))
        return out


def mentions_udf(max_sent_tokens: int = MAX_SENT_TOKENS):
    """Stateless-task form of ``SentenceMentions`` with per-worker cache.

    The alias table / compiled regex builds once per worker process (module
    cache in ``stages.score``); tasks schedule elastically with no actor
    pool to ramp up.
    """

    def find_mentions(batch):
        from .score import cached

        stage = cached(("mentions", max_sent_tokens),
                       lambda: SentenceMentions(max_sent_tokens))
        return stage(batch)

    return find_mentions


class SentenceMentions:
    """map_batches stage: pages+text → mention-annotated sentences.

    Emits one row per sentence that has ≥2 mentions (anything less can't
    produce a relation instance). Alias table state is built once per
    instance (once per worker via ``mentions_udf``).
    """

    def __init__(self, max_sent_tokens: int = MAX_SENT_TOKENS):
        self.matcher = AliasMatcher(default_alias_table())
        self.max_sent_tokens = max_sent_tokens

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, sent_idx, sents = [], [], []
        m_starts, m_ends, m_surfaces, m_eids = [], [], [], []
        for url, text in zip(batch.column("url").to_pylist(),
                             batch.column("text").to_pylist()):
            for si, (_, sent) in enumerate(split_sentences(text, self.max_sent_tokens)):
                mentions = self.matcher.find(sent)
                if len(mentions) < 2:
                    continue
                urls.append(url)
                sent_idx.append(si)
                sents.append(sent)
                m_starts.append([m[0] for m in mentions])
                m_ends.append([m[1] for m in mentions])
                m_surfaces.append([m[2] for m in mentions])
                m_eids.append([m[3] for m in mentions])
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "sent_idx": pa.array(sent_idx, pa.int32()),
            "sentence": pa.array(sents, pa.string()),
            "m_start": pa.array(m_starts, pa.list_(pa.int32())),
            "m_end": pa.array(m_ends, pa.list_(pa.int32())),
            "m_surface": pa.array(m_surfaces, pa.list_(pa.string())),
            "m_entity": pa.array(m_eids, pa.list_(pa.string())),
        })
