"""Property-based robustness tests (hypothesis) + import integrity."""

import importlib
import pkgutil

import numpy as np
from hypothesis import given, settings, strategies as st

import opennre_ray
from opennre_ray.fixtures import default_word2id
from opennre_ray.models import encode_instances
from opennre_ray.stages.extract import extract_text
from opennre_ray.stages.ner import split_sentences


def vocab():
    d = dict(default_word2id())
    d["[UNK]"] = len(d)
    d["[PAD]"] = len(d)
    return d


TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    min_size=0, max_size=120)


@given(TEXT, st.integers(0, 120), st.integers(0, 20),
       st.integers(0, 120), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_encode_never_crashes_and_shapes_hold(text, h0, hlen, t0, tlen):
    """Arbitrary text + arbitrary (possibly out-of-range/overlapping) spans
    must encode to well-formed fixed-size arrays — malformed rows crash the
    reference at tokenize time (SURVEY §1.3); this engine must not."""
    L = 16
    h = np.array([[min(h0, len(text)), min(h0 + hlen, len(text))]])
    t = np.array([[min(t0, len(text)), min(t0 + tlen, len(text))]])
    out = encode_instances([text], h, t, vocab(), max_length=L,
                           with_mask=True)
    for key in ("token", "pos1", "pos2", "mask"):
        assert out[key].shape == (1, L)
    V = len(vocab())
    assert (out["token"] >= 0).all() and (out["token"] < V).all()
    assert (out["pos1"] >= 0).all() and (out["pos1"] <= 2 * L - 1).all()
    assert (out["pos2"] >= 0).all() and (out["pos2"] <= 2 * L - 1).all()
    assert set(np.unique(out["mask"])) <= {0, 1, 2, 3}


@given(TEXT)
@settings(max_examples=60, deadline=None)
def test_split_sentences_offsets_always_valid(text):
    for start, sent in split_sentences(text):
        assert text[start: start + len(sent)] == sent


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=100))
@settings(max_examples=60, deadline=None)
def test_extract_roundtrips_template_for_ascii(body):
    from opennre_ray.fixtures import render_html
    assert extract_text(render_html(1, body)) == body


def test_all_modules_import():
    """Every module in the package imports cleanly (no dead references)."""
    failed = []
    for mod in pkgutil.walk_packages(opennre_ray.__path__,
                                     prefix="opennre_ray."):
        try:
            importlib.import_module(mod.name)
        except Exception as exc:       # pragma: no cover
            failed.append((mod.name, exc))
    assert not failed, failed


def test_library_never_owns_a_ray_session():
    """The session belongs to the caller (driver, CLI, bench, the test
    fixture): no module of the package calls ``ray.init`` or
    ``ray.shutdown``, by attribute or by a ``from ray import``."""
    import ast
    import pathlib

    owned = {"init", "shutdown"}
    found = []
    for path in sorted(pathlib.Path(opennre_ray.__path__[0]).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr in owned
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "ray") or (
                    isinstance(node, ast.ImportFrom) and node.module == "ray"
                    and owned & {a.name for a in node.names}):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


WORDS = st.lists(st.text(alphabet="abcd", min_size=1, max_size=3),
                 min_size=0, max_size=40)


@given(WORDS, st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_chunk_window_math_covers_every_token(words, size, stride):
    """Pure window arithmetic (mirrors packing.chunk_windows): chunks
    reconstruct the document exactly via stride-prefixes, every token is
    covered, and no chunk except the last is shorter than min(size, n).
    (stride > size is rejected by the operator — it would skip tokens and
    emit empty trailing chunks, which this test originally caught.)"""
    toks = words
    n = len(toks)
    if n == 0 or stride > size:
        return
    n_chunks = 1 if n <= size else (n - size + stride - 1) // stride + 1
    chunks = []
    for c in range(n_chunks):
        start = c * stride
        end = min(start + size, n)
        chunks.append(toks[start:end])
    # coverage: stride-prefix concatenation == original tokens
    rebuilt = []
    for c, ch in enumerate(chunks):
        take = len(ch) if c == n_chunks - 1 else min(stride, len(ch))
        rebuilt.extend(ch[:take])
    # overlapping windows revisit tokens; the prefix rebuild must cover
    # everything when stride <= size (the only supported regime)
    if stride <= size:
        assert rebuilt == toks
    assert all(len(c) >= 1 for c in chunks)
    assert chunks[-1][-1] == toks[-1]


@given(st.lists(st.lists(st.text(alphabet="ab", min_size=1, max_size=2),
                         min_size=0, max_size=12), min_size=1, max_size=6),
       st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_paragraph_dedup_sequential_invariants(docs, w):
    """Sequential replay of paragraph_dedup's math: surviving segments
    are a subsequence of the original, removed count is consistent, and
    any segment string kept appears exactly once corpus-wide."""
    from collections import Counter

    segs_per_doc = []
    for toks in docs:
        segs = [" ".join(toks[i: i + w]) for i in range(0, len(toks), w)]
        segs_per_doc.append(segs)
    freq = Counter(s for segs in segs_per_doc for s in segs)
    for segs in segs_per_doc:
        kept = [s for s in segs if freq[s] < 2]
        assert len(kept) + sum(1 for s in segs if freq[s] >= 2) == len(segs)
        for s in kept:
            assert freq[s] == 1
        # subsequence: kept preserves original order
        it = iter(segs)
        assert all(any(s == x for x in it) for s in kept)


@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                min_size=0, max_size=60))
@settings(max_examples=80, deadline=None)
def test_skyline2d_mask_matches_bruteforce(pts):
    from opennre_ray.functions.relational import _skyline2d_mask

    x = np.array([p[0] for p in pts], dtype=np.int64)
    y = np.array([p[1] for p in pts], dtype=np.int64)
    got = _skyline2d_mask(x, y)
    want = np.array([
        not any((x[j] >= x[i] and y[j] >= y[i]
                 and (x[j] > x[i] or y[j] > y[i]))
                for j in range(len(pts)))
        for i in range(len(pts))], dtype=bool)
    assert got.tolist() == want.tolist()
