"""The file readers at the boundary: every malformed file, however it was damaged,
loads or raises a FormatError (or, for a config, a ConfigError) that names it.

A flipped byte inside a checkpoint's tensor values loads: the format holds no
digest of its payload."""

import json
import re

import numpy as np
import pytest

from moelab.analysis import DistanceMatrix, read_matrix_tsv, write_matrix_tsv
from moelab.corpus import Document, load_jsonl, write_jsonl
from moelab.errors import ConfigError, FormatError
from moelab.model import Model, ModelConfig
from moelab.tokenizer import Tokenizer
from moelab.trainer import load_checkpoint, save_checkpoint

TINY = dict(n_layers=2, d_model=4, n_heads=1, max_seq_len=4, vocab_size=8, n_experts=2)


def _corpus(path):
    write_jsonl([Document("en", "hello there"), Document("el", "γειά σου"),
                 Document("ru", "привет, мир"), Document("en", "x\ty \"quoted\"")], path)


def _matrix(path):
    write_matrix_tsv(DistanceMatrix(["aa", "bb", "cc"], np.array(
        [[0.0, 0.5, 0.25], [0.5, 0.0, 0.75], [0.25, 0.75, 0.0]])), path)


def _config(path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(TINY, fh)


def _tokenizer(path):
    Tokenizer.train(["hello there, γειά σου"], vocab_size=264).save(path)


def _checkpoint(path):
    save_checkpoint(Model(ModelConfig(**TINY)), path)


def _matrix_rows(path):
    matrix = read_matrix_tsv(path)
    return matrix.codes, matrix.values.tolist()


# name: (seed, write a valid file, read it)
LINE_READERS = {"load_jsonl": (0, _corpus, load_jsonl),
                "read_matrix_tsv": (2, _matrix, _matrix_rows)}
READERS = {**LINE_READERS, "ModelConfig.load": (1, _config, ModelConfig.load),
           "Tokenizer.load": (3, _tokenizer, Tokenizer.load),
           "load_checkpoint": (4, _checkpoint, load_checkpoint)}
PATH_FIRST = {*LINE_READERS, "Tokenizer.load"}  # every refusal leads with the path
MUTATIONS = 100


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One seeded damage: a byte set to a random value, a truncation, or a span duplicated."""
    kind = int(rng.integers(3))
    at = int(rng.integers(len(data)))
    if kind == 0:
        return data[:at] + bytes([int(rng.integers(256))]) + data[at + 1:]
    if kind == 1:
        return data[:at]
    end = int(rng.integers(at, len(data) + 1))
    return data[:end] + data[at:end] + data[end:]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_damaged_file_loads_or_raises_a_format_error_naming_it(tmp_path, reader):
    seed, write, read = READERS[reader]
    valid = tmp_path / "valid"
    write(str(valid))
    data = valid.read_bytes()
    read(str(valid))
    path = tmp_path / "damaged"
    rng = np.random.default_rng(seed)
    refused = 0
    for _ in range(MUTATIONS):
        path.write_bytes(mutate(data, rng))
        try:
            read(str(path))
        except (ConfigError, FormatError) as exc:
            if reader in PATH_FIRST:  # and is never a ConfigError
                assert isinstance(exc, FormatError) and str(exc).startswith(f"{path}: "), exc
            assert str(path) in str(exc), str(exc)
            refused += 1
    assert 0 < refused < MUTATIONS


@pytest.mark.parametrize("reader", sorted(LINE_READERS))
def test_a_byte_that_is_not_utf8_names_the_file_line_byte_and_offset(tmp_path, reader):
    _, write, read = LINE_READERS[reader]
    path = tmp_path / "in"
    write(str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:2] + b"\xfe" + lines[1][2:]
    path.write_bytes(b"".join(lines))
    with pytest.raises(FormatError) as exc:
        read(str(path))
    assert str(exc.value) == (f"{path}: line 2: invalid UTF-8 byte 0xfe at offset 2 "
                              "(invalid start byte)")


@pytest.mark.parametrize("reader", sorted(LINE_READERS))
def test_lines_ended_by_a_lone_carriage_return_are_numbered_as_text_mode_numbers_them(
        tmp_path, reader):
    _, write, read = LINE_READERS[reader]
    path = tmp_path / "in"
    write(str(path))
    expected = read(str(path))
    text = path.read_text(encoding="utf-8")
    path.write_bytes(text.replace("\n", "\r").encode("utf-8"))
    assert read(str(path)) == expected
    lines = text.splitlines(keepends=True)
    path.write_bytes("".join(lines[:2] + ["\r", "\x0cbad line\r"] + lines[3:])
                     .replace("\n", "\r").encode("utf-8"))
    with open(path, encoding="utf-8") as fh:  # text mode: universal newlines
        assert [n for n, line in enumerate(fh, 1) if "bad" in line] == [4]
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 4"):
        read(str(path))


@pytest.mark.parametrize("padding", [0, 3000], ids=["small", "past_64_KiB"])
def test_the_first_bad_line_in_file_order_wins(tmp_path, padding):
    good = b'{"lang": "en", "text": "ok"}\n'
    path = tmp_path / "c.jsonl"
    path.write_bytes(good + b'{"lang": "en", "text": \n' + good * padding
                     + b'{"lang": "en", "text": "caf\xc3\xa9 \xff"}\n')
    assert (path.stat().st_size > 64 * 1024) == bool(padding)
    with pytest.raises(FormatError) as exc:
        load_jsonl(str(path))
    assert str(exc.value).startswith(f"{path}: line 2: invalid JSON: ")
