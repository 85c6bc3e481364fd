"""Text normalization and tokenization primitives.

Re-implements (behavior-compatible, written for this engine) the scalar text
functions of the reference engine's tokenization layer:

- char predicates / clean / split helpers: reference
  ``opennre/tokenization/utils.py:9-143`` (M6-M12 in SURVEY.md §2.2)
- word tokenizer (clean → CJK pad → whitespace split): reference
  ``opennre/tokenization/word_tokenizer.py:39-64`` (M13)
- basic tokenizer (lowercase, strip accents, punctuation split): reference
  ``opennre/tokenization/basic_tokenizer.py:42-64`` (M14)
- wordpiece tokenizer (greedy longest-match-first ``##`` subwords): reference
  ``opennre/tokenization/word_piece_tokenizer.py:40-96`` (M15)
- bert tokenizer (basic → wordpiece): reference
  ``opennre/tokenization/bert_tokenizer.py:48-54`` (M16)

These are pure functions of their inputs: they are called inside Ray Data
``map_batches`` UDFs (once per row within a vectorized batch loop) and must be
deterministic so that extracted text / token ids are byte-identical per url
across retries and partitionings.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from functools import lru_cache

# ---------------------------------------------------------------------------
# Character predicates (reference opennre/tokenization/utils.py:9-64)
# ---------------------------------------------------------------------------

_CJK_RANGES = (
    (0x4E00, 0x9FFF),
    (0x3400, 0x4DBF),
    (0x20000, 0x2A6DF),
    (0x2A700, 0x2B73F),
    (0x2B740, 0x2B81F),
    (0x2B820, 0x2CEAF),
    (0xF900, 0xFAFF),
    (0x2F800, 0x2FA1F),
)


def is_whitespace(ch: str) -> bool:
    """True for space/tab/newline/CR and any Unicode Zs character."""
    if ch in (" ", "\t", "\n", "\r"):
        return True
    return unicodedata.category(ch) == "Zs"


def is_control(ch: str) -> bool:
    """True for control characters; tab/newline/CR count as whitespace instead."""
    if ch in ("\t", "\n", "\r"):
        return False
    return unicodedata.category(ch).startswith("C")


def is_punctuation(ch: str) -> bool:
    """ASCII non-alnum symbol ranges are punctuation, plus any Unicode P*."""
    cp = ord(ch)
    if 33 <= cp <= 47 or 58 <= cp <= 64 or 91 <= cp <= 96 or 123 <= cp <= 126:
        return True
    return unicodedata.category(ch).startswith("P")


def is_cjk_codepoint(cp: int) -> bool:
    """Codepoint inside one of the CJK Unified Ideograph blocks."""
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


@lru_cache(maxsize=4096)
def _char_class(ch: str) -> int:
    """Cached per-char classification: 0=keep, 1=drop, 2=whitespace, 3=cjk.

    Caching matters: corpora reuse a small alphabet, so the unicodedata
    calls amortize to a dict lookup in the hot tokenize path.
    """
    cp = ord(ch)
    if cp == 0 or cp == 0xFFFD or is_control(ch):
        return 1
    if is_whitespace(ch):
        return 2
    if is_cjk_codepoint(cp):
        return 3
    return 0


# ---------------------------------------------------------------------------
# Scalar string transforms (reference opennre/tokenization/utils.py:85-143)
# ---------------------------------------------------------------------------

class _CleanTable(dict):
    """``str.translate`` table for ``clean_text``, filled on first sight of
    each code point from ``_char_class``: drop (None), whitespace (' ') or
    keep (the code point itself). Deriving every entry from ``_char_class``
    makes the translate output equal the per-character rule by
    construction. The table holds one entry per distinct code point seen,
    at most ``_char_class``'s cache size; past that it starts over."""

    def __missing__(self, cp: int):
        if len(self) >= _char_class.cache_parameters()["maxsize"]:
            self.clear()
        cls = _char_class(chr(cp))
        out = self[cp] = None if cls == 1 else " " if cls == 2 else cp
        return out


_CLEAN_TABLE = _CleanTable()


def clean_text(text: str) -> str:
    """Drop NUL/0xFFFD/control chars; map every whitespace char to ' '."""
    return text.translate(_CLEAN_TABLE)


def split_on_whitespace(text: str) -> list[str]:
    """strip + split() — empty input yields []."""
    text = text.strip()
    return text.split() if text else []


def split_on_punctuation(text: str) -> list[str]:
    """Break a token at every punctuation char; each punct char is its own token."""
    pieces: list[str] = []
    fresh = True
    for ch in text:
        if is_punctuation(ch):
            pieces.append(ch)
            fresh = True
        else:
            if fresh:
                pieces.append(ch)
                fresh = False
            else:
                pieces[-1] += ch
    return pieces


def _cjk_pattern() -> re.Pattern:
    """One regex character class matching exactly the ``_char_class`` 3
    code points: ``_CJK_RANGES`` minus their unassigned (Cn) code points,
    which ``_char_class`` drops as control characters instead. No NUL,
    U+FFFD or whitespace lies in the ranges, so that is the only
    exception. A printable character is never a control character, so
    only ranges that are not printable throughout are scanned one
    character at a time (8 ms at import instead of 20 ms)."""
    parts = []
    for lo, hi in _CJK_RANGES:
        chars = "".join(map(chr, range(lo, hi + 1)))
        cuts = [] if chars.isprintable() else [
            i for i, ch in enumerate(chars) if is_control(ch)]
        start = 0
        for cut in cuts + [len(chars)]:
            if cut > start:
                parts.append(f"{chars[start]}-{chars[cut - 1]}")
            start = cut + 1
    return re.compile("[" + "".join(parts) + "]")


_CJK_RE = _cjk_pattern()


def pad_cjk_chars(text: str) -> str:
    """Surround every CJK ideograph with spaces so it splits as its own token."""
    return _CJK_RE.sub(r" \g<0> ", text)


def strip_accents(text: str) -> str:
    """NFD-normalize and remove combining marks (category Mn)."""
    return "".join(
        ch for ch in unicodedata.normalize("NFD", text)
        if unicodedata.category(ch) != "Mn"
    )


def memoize_per_call(tokenize):
    """``tokenize`` behind a plain dict: each distinct string is tokenized
    once for the life of the returned function. Encoders wrap their
    tokenizer once per encode call, so the memo spans one block's
    segments (the pairs of a sentence repeat most of its segments) and
    dies with it; the returned lists are shared between the hits, so
    callers must not mutate them."""
    memo: dict = {}

    def tokenize_once(text):
        out = memo.get(text)
        if out is None:
            out = memo[text] = tokenize(text)
        return out

    return tokenize_once


def tokens_to_ids(
    vocab: dict[str, int],
    tokens: list[str],
    max_seq_length: int | None = None,
    blank_id: int = 0,
    unk_id: int = 1,
    uncased: bool = True,
) -> list[int]:
    """Vocab lookup with unk fallback, then pad/truncate to ``max_seq_length``.

    Lowercases by default even for cased vocabs — this reproduces the
    reference's quirk (``utils.py:186-202``) that the checkpoints were
    trained with.
    """
    if uncased:
        ids = [vocab.get(t.lower(), unk_id) for t in tokens]
    else:
        ids = [vocab.get(t, unk_id) for t in tokens]
    if max_seq_length is not None:
        if len(ids) > max_seq_length:
            ids = ids[:max_seq_length]
        else:
            ids.extend([blank_id] * (max_seq_length - len(ids)))
    return ids


# ---------------------------------------------------------------------------
# Tokenizers
# ---------------------------------------------------------------------------

class WordTokenizer:
    """clean → CJK pad → whitespace split; vocab lookup via ``tokens_to_ids``.

    Reference: ``opennre/tokenization/word_tokenizer.py:39-72``.
    """

    def __init__(self, vocab: dict[str, int] | None = None, unk_token: str = "[UNK]"):
        self.vocab = vocab or {}
        self.unk_token = unk_token
        self._inv_vocab: dict[int, str] | None = None

    def tokenize(self, text: str) -> list[str]:
        return split_on_whitespace(pad_cjk_chars(clean_text(text)))

    def convert_tokens_to_ids(
        self, tokens, max_seq_length=None, blank_id=0, unk_id=1, uncased=True
    ):
        return tokens_to_ids(self.vocab, tokens, max_seq_length, blank_id, unk_id, uncased)

    def convert_ids_to_tokens(self, ids):
        """Inverse vocab lookup (reference ``word_tokenizer.py:69-72``).

        The inverse map is cached: rebuilding it per call is an O(V)
        allocation per decoded sequence inside batch loops. Invalidated
        lazily if the vocab grows/shrinks.
        """
        if self._inv_vocab is None or len(self._inv_vocab) != len(self.vocab):
            self._inv_vocab = {v: k for k, v in self.vocab.items()}
        inv = self._inv_vocab
        return [inv.get(i, self.unk_token) for i in ids]


_NEVER_SPLIT = ("[UNK]", "[SEP]", "[PAD]", "[CLS]", "[MASK]")


class BasicTokenizer:
    """Whitespace split, then per-token lowercase + accent strip + punct split.

    Returns ``(tokens, spans)`` where ``spans[i] = [start, end)`` indexes into
    the output token list for source word *i* (reference
    ``basic_tokenizer.py:42-64``).
    """

    def __init__(self, do_lower_case: bool = True, never_split=_NEVER_SPLIT):
        self.do_lower_case = do_lower_case
        self.never_split = set(never_split)

    def tokenize(self, text: str) -> tuple[list[str], list[list[int]]]:
        words = split_on_whitespace(pad_cjk_chars(clean_text(text)))
        out: list[str] = []
        spans: list[list[int]] = []
        for word in words:
            if self.do_lower_case and word not in self.never_split:
                word = strip_accents(word.lower())
            start = len(out)
            out.extend(split_on_punctuation(word))
            spans.append([start, len(out)])
        return out, spans


class WordpieceTokenizer:
    """Greedy longest-match-first ``##`` subword split against a vocab.

    Reference: ``word_piece_tokenizer.py:40-96``. Words longer than
    ``max_input_chars_per_word`` and words with any unmatchable span
    collapse to a single ``[UNK]``.
    """

    def __init__(self, vocab: dict[str, int], unk_token: str = "[UNK]",
                 max_input_chars_per_word: int = 200):
        self.vocab = vocab
        self.unk_token = unk_token
        self.max_input_chars_per_word = max_input_chars_per_word

    def tokenize(self, text: str) -> tuple[list[str], list[list[int]]]:
        out: list[str] = []
        spans: list[list[int]] = []
        for word in split_on_whitespace(pad_cjk_chars(clean_text(text))):
            start_len = len(out)
            if len(word) > self.max_input_chars_per_word:
                out.append(self.unk_token)
                spans.append([start_len, len(out)])
                continue
            pieces: list[str] = []
            pos = 0
            ok = True
            while pos < len(word):
                end = len(word)
                match = None
                while pos < end:
                    cand = ("##" + word[pos:end]) if pos > 0 else word[pos:end]
                    if cand in self.vocab:
                        match = cand
                        break
                    end -= 1
                if match is None:
                    ok = False
                    break
                pieces.append(match)
                pos = end
            out.extend(pieces if ok else [self.unk_token])
            spans.append([start_len, len(out)])
        return out, spans


class BertTokenizer:
    """Basic tokenize → rejoin → wordpiece (reference ``bert_tokenizer.py:48-54``)."""

    def __init__(self, vocab: dict[str, int], do_lower_case: bool = True,
                 do_basic_tokenize: bool = True, never_split=_NEVER_SPLIT):
        self.vocab = vocab
        self.basic = BasicTokenizer(do_lower_case=do_lower_case, never_split=never_split)
        self.wordpiece = WordpieceTokenizer(vocab=vocab)
        self.do_basic_tokenize = do_basic_tokenize
        self._inv_vocab: dict[int, str] | None = None

    def tokenize(self, text: str) -> list[str]:
        if self.do_basic_tokenize:
            tokens, _ = self.basic.tokenize(text)
            text = " ".join(tokens)
        pieces, _ = self.wordpiece.tokenize(text)
        return pieces

    def convert_tokens_to_ids(self, tokens: list[str]) -> list[int]:
        # Exact match first so special tokens ([CLS], [unusedN]) survive the
        # lowercase fallback (matches the HF tokenizer the reference's BERT
        # path uses, bert_encoder.py:21).
        unk = self.vocab.get("[UNK]", 1)
        return [self.vocab.get(t, self.vocab.get(t.lower(), unk)) for t in tokens]

    def convert_ids_to_tokens(self, ids):
        """Inverse vocab lookup (reference ``bert_tokenizer.py:58-59``);
        cached like ``WordTokenizer.convert_ids_to_tokens``."""
        if self._inv_vocab is None or len(self._inv_vocab) != len(self.vocab):
            self._inv_vocab = {v: k for k, v in self.vocab.items()}
        inv = self._inv_vocab
        return [inv.get(i, "[UNK]") for i in ids]


def load_vocab_file(path) -> dict[str, int]:
    """One token per line; id = line number (reference ``utils.py:145-160``)."""
    vocab: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            vocab[line.strip()] = i
    return vocab
