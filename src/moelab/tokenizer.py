"""Trainable byte-level BPE subword tokenizer.

The base vocabulary is all 256 single bytes, so any UTF-8 string encodes and
decodes losslessly regardless of training data. Merge rules are learned
greedily by pair frequency, ties broken by the lexicographically smallest
(left_id, right_id) pair so training is deterministic.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Sequence

from .errors import FormatError
from .fileio import atomic_write_text

PAD_ID = 256
BOS_ID = 257
EOS_ID = 258
_SPECIALS = {"pad": PAD_ID, "bos": BOS_ID, "eos": EOS_ID}
_FIRST_MERGE_ID = 256 + len(_SPECIALS)


def _merge_seq(seq: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    a, b = pair
    out = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == a and seq[i + 1] == b:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


class Tokenizer:
    """Byte-level BPE model: vocabulary, ordered merges, fixed special ids."""

    def __init__(self, merges: Sequence[tuple[int, int]] = ()):
        self.vocab: list[bytes] = [bytes([i]) for i in range(256)]
        self.vocab += [b""] * len(_SPECIALS)  # pad/bos/eos carry no bytes
        self.merges: list[tuple[int, int]] = []
        self.ranks: dict[tuple[int, int], int] = {}
        self.specials = dict(_SPECIALS)
        for left, right in merges:
            self._add_merge(left, right)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def _add_merge(self, left: int, right: int) -> None:
        next_id = len(self.vocab)
        for ref in (left, right):
            if not 0 <= ref < next_id or self.vocab[ref] == b"":
                raise FormatError(f"merge {len(self.merges)} references invalid id {ref}")
        self.ranks[(left, right)] = len(self.merges)
        self.merges.append((left, right))
        self.vocab.append(self.vocab[left] + self.vocab[right])

    # -- training ------------------------------------------------------------

    @classmethod
    def train(cls, corpus: Iterable[str], vocab_size: int) -> "Tokenizer":
        """Learn merges from a document stream until the vocabulary is full.

        Deterministic for a given corpus order: byte-level BPE training has no
        random choices. Stops early if no adjacent pair remains to merge.
        """
        if vocab_size < _FIRST_MERGE_ID:
            raise ValueError(f"vocab_size must be at least {_FIRST_MERGE_ID}, got {vocab_size}")
        seqs = [list(text.encode("utf-8")) for text in corpus]
        seqs = [s for s in seqs if s]
        if not seqs:
            raise ValueError("cannot train a tokenizer on an empty corpus")

        pair_counts: Counter[tuple[int, int]] = Counter()
        pair_where: dict[tuple[int, int], set[int]] = {}
        for si, seq in enumerate(seqs):
            for pair in zip(seq, seq[1:]):
                pair_counts[pair] += 1
                pair_where.setdefault(pair, set()).add(si)

        tok = cls()
        n_merges = vocab_size - _FIRST_MERGE_ID
        for _ in range(n_merges):
            if not pair_counts:
                break
            top = max(pair_counts.values())
            best = min(p for p, c in pair_counts.items() if c == top)
            new_id = len(tok.vocab)
            tok._add_merge(*best)
            for si in sorted(pair_where.get(best, ())):
                old = seqs[si]
                new = _merge_seq(old, best, new_id)
                seqs[si] = new
                before = Counter(zip(old, old[1:]))
                after = Counter(zip(new, new[1:]))
                for pair, c in before.items():
                    pair_counts[pair] -= c
                    if pair_counts[pair] <= 0:
                        del pair_counts[pair]
                for pair, c in after.items():
                    pair_counts[pair] += c
                    pair_where.setdefault(pair, set()).add(si)
                for pair in before:
                    if pair not in after:
                        pair_where[pair].discard(si)
            pair_where.pop(best, None)
        return tok

    # -- encode / decode -------------------------------------------------------

    def encode(self, text: str) -> list[int]:
        """Apply merge rules greedily in learned order (lowest rank first)."""
        ids = list(text.encode("utf-8"))
        while len(ids) >= 2:
            pairs = set(zip(ids, ids[1:]))
            best = min(pairs, key=lambda p: self.ranks.get(p, len(self.ranks)), default=None)
            if best not in self.ranks:
                break
            ids = _merge_seq(ids, best, _FIRST_MERGE_ID + self.ranks[best])
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        """Concatenate token bytes and decode UTF-8; invalid sequences become U+FFFD."""
        chunks = []
        for i in ids:
            if not 0 <= i < len(self.vocab):
                raise ValueError(f"token id {i} outside [0, {len(self.vocab)})")
            chunks.append(self.vocab[i])
        return b"".join(chunks).decode("utf-8", errors="replace")

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {
            "version": 1,
            "vocab": [list(tok) for tok in self.vocab],
            "merges": [list(m) for m in self.merges],
            "specials": self.specials,
        }
        atomic_write_text(path, json.dumps(payload) + "\n")

    @classmethod
    def load(cls, path: str) -> "Tokenizer":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read tokenizer file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise FormatError(f"{path}: tokenizer file holds a {type(payload).__name__}, "
                              "not an object")
        if payload.get("version") != 1:
            raise FormatError(
                f"{path}: unsupported tokenizer file version {payload.get('version')!r}")
        if payload.get("specials") != _SPECIALS:
            raise FormatError(
                f"{path}: unexpected special-token table {payload.get('specials')!r}")
        merges, vocab = payload.get("merges"), payload.get("vocab")
        if not (isinstance(merges, list)
                and all(isinstance(m, list) and len(m) == 2
                        and all(type(i) is int for i in m) for m in merges)):
            raise FormatError(f"{path}: field 'merges' must be a list of [left, right] id pairs")
        if not (isinstance(vocab, list) and all(isinstance(t, list) for t in vocab)):
            raise FormatError(f"{path}: field 'vocab' must be a list of byte lists")
        try:
            tok = cls(merges=[tuple(m) for m in merges])
        except FormatError as exc:
            raise FormatError(f"{path}: field 'merges': {exc}") from None
        try:
            stored = [bytes(t) for t in vocab]
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: field 'vocab' holds a non-byte value: {exc}") from None
        if stored != tok.vocab:
            raise FormatError(f"{path}: stored vocabulary does not match the merge rules")
        return tok
