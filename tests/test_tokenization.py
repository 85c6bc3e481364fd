"""Unit tests for the tokenization layer (SURVEY.md §2.2 M6-M16).

Expected values hand-computed from the documented semantics of the reference
scalar functions (``opennre/tokenization/utils.py:9-202``); the reference
itself cannot run in this sandbox (requires torch), so these are the oracle.
"""

import unicodedata

from hypothesis import given, strategies as st

from opennre_ray.tokenization import (
    _CJK_RANGES,
    BasicTokenizer,
    BertTokenizer,
    WordpieceTokenizer,
    WordTokenizer,
    _char_class,
    clean_text,
    is_control,
    is_punctuation,
    is_whitespace,
    memoize_per_call,
    pad_cjk_chars,
    split_on_punctuation,
    split_on_whitespace,
    strip_accents,
    tokens_to_ids,
)


def test_char_predicates():
    assert is_whitespace(" ") and is_whitespace("\t") and is_whitespace(" ")
    assert not is_whitespace("a")
    assert is_control("\x01") and not is_control("\t") and not is_control("a")
    assert is_punctuation("!") and is_punctuation("^") and is_punctuation("—")
    assert not is_punctuation("5") and not is_punctuation("a")


def test_clean_text_drops_controls_and_canonicalizes_ws():
    assert clean_text("a\x00b�c\x07d") == "abcd"
    assert clean_text("a\tb\nc\rd e") == "a b c d e"
    assert clean_text("a b") == "a b"


def test_split_on_whitespace():
    assert split_on_whitespace("  a  b\tc \n") == ["a", "b", "c"]
    assert split_on_whitespace("   ") == []
    assert split_on_whitespace("") == []


def test_split_on_punctuation():
    assert split_on_punctuation("don't,go!") == ["don", "'", "t", ",", "go", "!"]
    assert split_on_punctuation("abc") == ["abc"]
    assert split_on_punctuation("!!") == ["!", "!"]
    assert split_on_punctuation("") == []


def test_pad_cjk():
    assert pad_cjk_chars("ab中文cd") == "ab 中  文 cd"
    assert pad_cjk_chars("plain") == "plain"
    # Hangul / kana are NOT in the CJK ideograph block
    assert pad_cjk_chars("한글") == "한글"


def test_strip_accents():
    assert strip_accents("Máel Dúin") == "Mael Duin"
    assert strip_accents("café") == "cafe"
    assert strip_accents("naïve") == "naive"


def test_tokens_to_ids_pad_truncate_and_case():
    vocab = {"a": 5, "b": 6, "C": 7, "c": 8}
    # lowercases by default — the reference quirk (utils.py:186-195)
    assert tokens_to_ids(vocab, ["A", "b", "C"]) == [5, 6, 8]
    assert tokens_to_ids(vocab, ["a"], max_seq_length=3, blank_id=0) == [5, 0, 0]
    assert tokens_to_ids(vocab, ["a", "b", "c", "a"], max_seq_length=2) == [5, 6]
    assert tokens_to_ids(vocab, ["zzz"], unk_id=1) == [1]
    assert tokens_to_ids(vocab, ["C"], uncased=False) == [7]


def test_word_tokenizer():
    wt = WordTokenizer()
    assert wt.tokenize("Hello\tworld 中 test") == ["Hello", "world", "中", "test"]
    assert wt.tokenize("") == []


def test_basic_tokenizer_lower_accent_punct_with_spans():
    bt = BasicTokenizer()
    tokens, spans = bt.tokenize("Máel's Book!")
    assert tokens == ["mael", "'", "s", "book", "!"]
    # span per source word into output token list
    assert spans == [[0, 3], [3, 5]]
    # never_split tokens stay cased (but punct split still applies — the
    # reference's basic_tokenizer.py:55-63 only guards the lowercasing)
    tokens2, _ = bt.tokenize("[CLS] Hello")
    assert tokens2 == ["[", "CLS", "]", "hello"]


def test_wordpiece_greedy_longest_match():
    vocab = {"un": 0, "##aff": 1, "##able": 2, "[UNK]": 3, "runn": 4, "##ing": 5}
    wp = WordpieceTokenizer(vocab)
    tokens, spans = wp.tokenize("unaffable running xqz")
    assert tokens == ["un", "##aff", "##able", "runn", "##ing", "[UNK]"]
    assert spans == [[0, 3], [3, 5], [5, 6]]
    long_word = "x" * 201
    tokens, _ = wp.tokenize(long_word)
    assert tokens == ["[UNK]"]


def test_bert_tokenizer_composition():
    vocab = {"cust": 0, "##omer": 1, "data": 2, "[UNK]": 3, ",": 4}
    bt = BertTokenizer(vocab)
    assert bt.tokenize("Customer, data") == ["cust", "##omer", ",", "data"]


@given(st.text(max_size=80))
def test_clean_text_idempotent_and_no_controls(s):
    once = clean_text(s)
    assert clean_text(once) == once
    assert all(not is_control(c) or c in "\t\n\r" for c in once)
    assert "\x00" not in once


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
def test_split_punct_reassembles(s):
    # splitting never loses non-punct content
    assert "".join(split_on_punctuation(s)) == s


def test_ids_to_tokens_roundtrip():
    vocab = {"a": 0, "b": 1, "[UNK]": 2}
    wt = WordTokenizer(vocab=vocab)
    assert wt.convert_ids_to_tokens([1, 0, 9]) == ["b", "a", "[UNK]"]
    bt = BertTokenizer(vocab)
    assert bt.convert_ids_to_tokens(bt.convert_tokens_to_ids(["a", "b"])) == \
        ["a", "b"]


# The per-character implementations ``clean_text`` and ``pad_cjk_chars``
# replaced (one ``str.translate`` and one regex substitution): the
# reference they must equal.

def _clean_text_reference(text):
    out = []
    for ch in text:
        cls = _char_class(ch)
        if cls == 1:
            continue
        out.append(" " if cls == 2 else ch)
    return "".join(out)


def _pad_cjk_chars_reference(text):
    if all(_char_class(ch) != 3 for ch in text):
        return text
    out = []
    for ch in text:
        if _char_class(ch) == 3:
            out.append(" ")
            out.append(ch)
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


_TRICKY_CHARS = st.one_of(
    st.sampled_from(["\x00", "\ufffd", "\t", "\r", "\n", " ", "a", "Z"]),
    st.characters(whitelist_categories=("Cc", "Cf", "Zs")),
    st.characters(whitelist_categories=("Cs",)),            # lone surrogates
    *[st.characters(min_codepoint=lo, max_codepoint=hi)     # CJK, incl.
      for lo, hi in _CJK_RANGES],                           # unassigned
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),  # Hangul
    st.characters(),
)


@given(st.lists(_TRICKY_CHARS, max_size=40).map("".join))
def test_clean_and_pad_equal_per_character_reference(s):
    assert clean_text(s) == _clean_text_reference(s)
    assert pad_cjk_chars(s) == _pad_cjk_chars_reference(s)
    once = clean_text(s)
    assert pad_cjk_chars(once) == _pad_cjk_chars_reference(once)


def test_pad_cjk_range_edges_equal_reference():
    """Both ends of every CJK range, and the unassigned code points inside
    them, which ``_char_class`` drops rather than pads."""
    for lo, hi in _CJK_RANGES:
        for cp in [*range(lo - 2, lo + 3), *range(hi - 20, hi + 3)]:
            ch = chr(cp)
            assert pad_cjk_chars(ch) == _pad_cjk_chars_reference(ch)
            assert clean_text(ch) == _clean_text_reference(ch)
    assert pad_cjk_chars("\U0002fa1f") == "\U0002fa1f"    # Cn, in range


def test_memoize_per_call_tokenizes_each_string_once():
    calls = []

    def tokenize(text):
        calls.append(text)
        return text.split()

    once = memoize_per_call(tokenize)
    assert [once(x) for x in ["a b", "c", "a b", "", ""]] == \
        [["a", "b"], ["c"], ["a", "b"], [], []]
    assert calls == ["a b", "c", ""]
    assert memoize_per_call(tokenize)("a b") == ["a", "b"]
    assert calls[-1] == "a b"
