"""Trainable byte-level BPE subword tokenizer.

The base vocabulary is all 256 single bytes, so any UTF-8 string encodes and
decodes losslessly regardless of training data. Merge rules are learned
greedily by pair frequency, ties broken by the lexicographically smallest
(left_id, right_id) pair so training is deterministic. Training counts the
pairs once. After that a merge updates only the counts of the pairs that
touch an occurrence it replaces, since a pair away from every occurrence is
the same before and after the replace. Apart from the replace and split,
which scan the text in C, a merge costs time in proportion to its
occurrences, not to the corpus or the pair table (see `Tokenizer.train`).

Here a token sequence is a `str` of one character per id: bytes become
characters by a latin-1 decode, and merged id n is `chr(n)`. Merging (a, b)
into n is `s.replace(chr(a) + chr(b), chr(n))`, whose leftmost,
non-overlapping scan is the BPE rule ("aaa" with (a, a) becomes "na"); as
characters compare by id, pairs sort as their id pairs do. `encode` applies
each merge once, in rank order. That equals merging the lowest-rank pair
present until none is left: merge r removes its pair for good, because later
merges only create pairs that hold their own new id, and those rank higher.
"""

from __future__ import annotations

import json
from collections import Counter
from heapq import heapify, heappop, heappush
from operator import add
from typing import Iterable, Sequence

from .errors import FormatError
from .fileio import atomic_write_text
from .tensor import check_ids

PAD_ID = 256
BOS_ID = 257
EOS_ID = 258
_SPECIALS = {"pad": PAD_ID, "bos": BOS_ID, "eos": EOS_ID}
_FIRST_MERGE_ID = 256 + len(_SPECIALS)


class Tokenizer:
    """Byte-level BPE model: vocabulary, ordered merges, fixed special ids."""

    def __init__(self, merges: Sequence[tuple[int, int]] = ()):
        self.vocab: list[bytes] = [bytes([i]) for i in range(256)]
        self.vocab += [b""] * len(_SPECIALS)  # pad/bos/eos carry no bytes
        self.merges: list[tuple[int, int]] = []
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
        self.merges.append((left, right))
        self.vocab.append(self.vocab[left] + self.vocab[right])

    # -- training ------------------------------------------------------------

    @classmethod
    def train(cls, corpus: Iterable[str], vocab_size: int) -> "Tokenizer":
        """Learn merges from a document stream until the vocabulary is full.

        Deterministic for a given corpus order: byte-level BPE training has no
        random choices. Stops early if no adjacent pair remains to merge.

        The documents are joined, and wrapped, by the pad character, and no
        pair that holds it is counted, so every occurrence of a pair has a
        character on each side. Merging (a, b) into n turns each occurrence
        x a b y into x n y: it loses (x, a), (a, b) and (b, y) and gains
        (x, n) and (n, y), and two occurrences side by side trade their (b, a)
        for one (n, n). Every other pair lies away from an occurrence and is
        the same before and after the replace, so these deltas are the whole
        change. The next pair comes off a heap of (-count, pair) entries: an
        entry is pushed whenever a count changes and dropped when it reaches
        the top with a count that has moved since.
        """
        if vocab_size < _FIRST_MERGE_ID:
            raise ValueError(f"vocab_size must be at least {_FIRST_MERGE_ID}, got {vocab_size}")
        docs = [text.encode("utf-8").decode("latin-1") for text in corpus if text]
        if not docs:
            raise ValueError("cannot train a tokenizer on an empty corpus")
        pad = chr(PAD_ID)
        text = pad.join(["", *docs, ""])
        counts = Counter(map(add, text, text[1:]))
        for pair in [p for p in counts if pad in p]:
            del counts[pair]
        heap = [(-c, p) for p, c in counts.items()]
        heapify(heap)

        tok = cls()
        for new_id in range(_FIRST_MERGE_ID, vocab_size):
            while heap and counts[heap[0][1]] != -heap[0][0]:
                heappop(heap)
            if not heap:
                break
            best = heappop(heap)[1]
            a, b = best
            tok._add_merge(ord(a), ord(b))
            new = chr(new_id)
            text = text.replace(best, new)
            parts = text.split(new)  # parts[i] lies between occurrences i and i + 1
            # an empty part sits between two adjacent occurrences: the later one's
            # left neighbour is n, and the earlier one has no pair of its own to its right
            lefts = Counter(p[-1:] or new for p in parts[:-1])
            rights = Counter(p[0] for p in parts[1:] if p)
            delta = Counter({best: 1 - len(parts)})
            for x, c in lefts.items():
                delta[x + new] += c
                delta[(b if x == new else x) + a] -= c
            for y, c in rights.items():
                delta[new + y] += c
                delta[b + y] -= c
            for pair, d in delta.items():
                if d and pad not in pair:
                    counts[pair] += d
                    if counts[pair]:
                        heappush(heap, (-counts[pair], pair))
        return tok

    # -- encode / decode -------------------------------------------------------

    def encode(self, text: str) -> list[int]:
        """Apply the merge rules once each, in learned order."""
        s = text.encode("utf-8").decode("latin-1")
        for new_id, (left, right) in enumerate(self.merges, _FIRST_MERGE_ID):
            s = s.replace(chr(left) + chr(right), chr(new_id))
        return list(map(ord, s))

    def decode(self, ids: Sequence[int]) -> str:
        """Concatenate token bytes and decode UTF-8; invalid sequences become U+FFFD.

        check_ids vets every id first: a bad one raises ValueError naming its position.
        Anything but one sequence of ids raises ValueError naming its shape.
        """
        ids = check_ids(ids, self.vocab_size, "token id")
        if ids.ndim != 1:
            raise ValueError(f"decode takes one sequence of ids, got shape {ids.shape}")
        return b"".join([self.vocab[i] for i in ids.tolist()]).decode("utf-8", errors="replace")

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
        except (OSError, ValueError) as exc:  # ValueError: invalid JSON or UTF-8
            raise FormatError(f"{path}: cannot read tokenizer file: {exc}") from exc
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
