"""Multilingual corpus ingestion, batching, and a synthetic family generator.

The synthetic generator builds ground truth for the routing analysis: each
family owns a disjoint character alphabet, each language is a perturbed
sample of its family's symbol distribution, and the returned truth matrix
puts related languages at distance 0.2 and unrelated ones at 1.0.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .analysis import DistanceMatrix
from .errors import FormatError
from .fileio import atomic_write_text, read_lines
from .tokenizer import BOS_ID, EOS_ID

_LANG_RE = re.compile(r"[a-z]{2,8}")

FAMILY_ALPHABET_SIZE = 12
_LANG_NOISE = 0.35
# disjoint per-family alphabets are carved from this pool in order
_SYMBOL_POOL = (string.ascii_lowercase + string.ascii_uppercase + string.digits
                + "".join(chr(c) for c in range(0x3B1, 0x3C9))   # Greek lowercase
                + "".join(chr(c) for c in range(0x430, 0x450)))  # Cyrillic lowercase


@dataclass
class Document:
    lang: str
    text: str


def normalize_lang(raw, where: str) -> str:
    """A language code lowercased; FormatError naming `where` unless it is [a-z]{2,8}."""
    if not isinstance(raw, str):
        raise FormatError(f"{where}: 'lang' must be a string, got {type(raw).__name__}")
    lang = raw.lower()
    if not _LANG_RE.fullmatch(lang):
        raise FormatError(f"{where}: language code {raw!r} does not match [a-z]{{2,8}}")
    return lang


def load_jsonl(path: str) -> tuple[list[Document], dict[str, int]]:
    """`{"lang": ..., "text": ...}` lines as documents in file order, and counts per language.

    Lines come from fileio.read_lines, which decodes them. The first bad line in file
    order raises FormatError naming the file and line, whether its bytes, its JSON or its
    text (a lone `\\ud800` escape) is at fault; so does a file with no document.
    """
    docs: list[Document] = []
    for lineno, line in read_lines(path):
        where = f"{path}: line {lineno}"
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also an integer literal past Python's digit limit
            raise FormatError(f"{where}: invalid JSON: {getattr(exc, 'msg', exc)}") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{where}: expected a JSON object")
        missing = {"lang", "text"} - set(obj)
        if missing:
            raise FormatError(f"{where}: missing field(s) {sorted(missing)}")
        text = obj["text"]
        if not isinstance(text, str):
            raise FormatError(f"{where}: 'text' must be a string")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(f"{where}: 'text' holds the lone surrogate "
                              f"{text[exc.start]!r} at position {exc.start}, "
                              f"which is not valid Unicode") from None
        docs.append(Document(normalize_lang(obj["lang"], where), text))
    if not docs:
        raise FormatError(f"{path}: no documents")
    return docs, dict(Counter(d.lang for d in docs))


def write_jsonl(docs: list[Document], path: str) -> None:
    lines = [json.dumps({"lang": d.lang, "text": d.text}, ensure_ascii=False) for d in docs]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


@dataclass
class LanguageGroups:
    """A corpus grouped for sampling: langs sorted, docs[i] the documents of
    langs[i] in corpus order, and weights[i] their share of all documents,
    the probability that a draw picks langs[i]."""

    langs: list[str]
    docs: list[list[Document]]
    weights: np.ndarray


def group_by_language(docs: list[Document]) -> LanguageGroups:
    """Group `docs` by language in one pass; the caller keeps it for every batch it draws."""
    by_lang: dict[str, list[Document]] = {}
    for doc in docs:
        by_lang.setdefault(doc.lang, []).append(doc)
    langs = sorted(by_lang)
    counts = np.array([len(by_lang[lang]) for lang in langs], dtype=np.float64)
    return LanguageGroups(langs, [by_lang[lang] for lang in langs], counts / counts.sum())


def pack_sequences(groups: LanguageGroups, n_sequences: int, seq_len: int, tokenizer,
                   rng: np.random.Generator) -> np.ndarray:
    """Pack sampled documents into fixed-length rows of seq_len + 1 token ids.

    Each draw picks a language by its weight, then a document of it uniformly;
    documents are wrapped in bos/eos, concatenated, and truncated.
    """
    rows = np.empty((n_sequences, seq_len + 1), dtype=np.int64)
    for r in range(n_sequences):
        ids: list[int] = []
        while len(ids) < seq_len + 1:
            docs = groups.docs[int(rng.choice(len(groups.langs), p=groups.weights))]
            doc = docs[int(rng.integers(len(docs)))]
            ids.append(BOS_ID)
            ids.extend(tokenizer.encode(doc.text))
            ids.append(EOS_ID)
        rows[r] = ids[:seq_len + 1]
    return rows


def sample_batch(groups: LanguageGroups, batch_size: int, seq_len: int, tokenizer,
                 seed: int, step: int) -> np.ndarray:
    """Deterministic training batch: a pure function of (seed, step).

    Returns a (batch_size, seq_len + 1) id array; the trainer shifts it into
    inputs and next-token targets.
    """
    if not groups.langs:
        raise ValueError("cannot sample from an empty corpus")
    if batch_size < 1 or seq_len < 1:
        raise ValueError(f"batch_size and seq_len must be positive, got {batch_size}, {seq_len}")
    if seed < 0 or step < 0:
        raise ValueError(f"seed and step must be non-negative, got {seed}, {step}")
    rng = default_rng([seed, step])
    return pack_sequences(groups, batch_size, seq_len, tokenizer, rng)


def synth_corpus(n_families: int, langs_per_family: int, docs_per_lang: int,
                 doc_len: int, seed: int) -> tuple[list[Document], DistanceMatrix]:
    """Generate a family-structured corpus plus its ground-truth distance matrix.

    Family f uses symbols _SYMBOL_POOL[f*12:(f+1)*12] only, so family
    alphabets never overlap. Language codes are two letters: family then
    member (family 0 -> "aa", "ab", ...).
    """
    for name, val in (("n_families", n_families), ("langs_per_family", langs_per_family),
                      ("docs_per_lang", docs_per_lang), ("doc_len", doc_len)):
        if val < 1:
            raise ValueError(f"{name} must be positive, got {val}")
    if n_families * FAMILY_ALPHABET_SIZE > len(_SYMBOL_POOL):
        raise ValueError(f"at most {len(_SYMBOL_POOL) // FAMILY_ALPHABET_SIZE} families supported")
    if langs_per_family > 26 or n_families > 26:
        raise ValueError("language codes support at most 26 families of 26 languages")

    rng = default_rng(seed)
    docs: list[Document] = []
    codes: list[str] = []
    for f in range(n_families):
        alphabet = _SYMBOL_POOL[f * FAMILY_ALPHABET_SIZE:(f + 1) * FAMILY_ALPHABET_SIZE]
        base = rng.dirichlet(np.full(FAMILY_ALPHABET_SIZE, 1.5))
        for member in range(langs_per_family):
            code = string.ascii_lowercase[f] + string.ascii_lowercase[member]
            codes.append(code)
            dist = base * np.exp(_LANG_NOISE * rng.standard_normal(FAMILY_ALPHABET_SIZE))
            dist /= dist.sum()
            for _ in range(docs_per_lang):
                symbols = rng.choice(FAMILY_ALPHABET_SIZE, size=doc_len, p=dist)
                docs.append(Document(code, "".join(alphabet[s] for s in symbols)))

    family = np.repeat(np.arange(n_families), langs_per_family)
    truth = np.where(family[:, None] == family[None, :], 0.2, 1.0)
    np.fill_diagonal(truth, 0.0)
    return docs, DistanceMatrix(codes, truth)
