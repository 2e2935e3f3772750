"""Corpus ingestion, deterministic batching, synthetic family generator."""

import json
from collections import Counter

import numpy as np
import pytest

from moelab.corpus import (Document, group_by_language, load_jsonl, sample_batch, synth_corpus,
                           write_jsonl)
from moelab.errors import FormatError
from moelab.tokenizer import BOS_ID, EOS_ID, Tokenizer


def _digit_limit_error() -> str:
    """The interpreter's message for an integer literal longer than its digit limit."""
    try:
        int("9" * 5000)
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def byte_tokenizer():
    return Tokenizer.train(["ab"], vocab_size=259)  # no merges: pure bytes


class TestLoadJsonl:
    def test_valid_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"lang": "en", "text": "hello"}\n{"lang": "de", "text": "hallo"}\n')
        docs, counts = load_jsonl(str(path))
        assert [d.lang for d in docs] == ["en", "de"]
        assert counts == {"en": 1, "de": 1}

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"lang": "en", "text": "a"}\n{"lang": "en", "text": "b"}\n{broken\n')
        with pytest.raises(FormatError, match="line 3"):
            load_jsonl(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"lang": "en"}\n')
        with pytest.raises(FormatError, match="text"):
            load_jsonl(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        for text in ("", "\n  \n\t\n"):
            path.write_text(text)
            with pytest.raises(FormatError) as exc:
                load_jsonl(str(path))
            assert str(exc.value) == f"{path}: no documents"

    def test_lang_lowercased_and_validated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"lang": "EN", "text": "x"}\n')
        docs, _ = load_jsonl(str(path))
        assert docs[0].lang == "en"
        path.write_text('{"lang": "e1", "text": "x"}\n')
        with pytest.raises(FormatError, match="e1"):
            load_jsonl(str(path))

    @pytest.mark.parametrize("line, problem", [
        ('{"lang": 5, "text": "x"}', "'lang' must be a string, got int"),
        ('["en", "x"]', "expected a JSON object"),
        ('{"lang": "en", "text": 3}', "'text' must be a string"),
        ('{"lang": "en", "text": "x", "n": ' + "9" * 5000 + "}",
         f"invalid JSON: {_digit_limit_error()}"),
    ], ids=["lang_not_a_string", "not_an_object", "text_not_a_string", "integer_past_digit_limit"])
    def test_a_malformed_line_names_the_file_and_line(self, tmp_path, line, problem):
        path = tmp_path / "c.jsonl"
        path.write_text('{"lang": "en", "text": "ok"}\n' + line + "\n")
        with pytest.raises(FormatError) as exc:
            load_jsonl(str(path))
        assert str(exc.value) == f"{path}: line 2: {problem}"

    def test_a_lone_surrogate_escape_names_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"lang": "en", "text": "ok"}\n{"lang": "en", "text": "a\\ud800b"}\n')
        with pytest.raises(FormatError) as exc:
            load_jsonl(str(path))
        assert str(exc.value) == (f"{path}: line 2: 'text' holds the lone surrogate '\\ud800' "
                                  "at position 1, which is not valid Unicode")

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"lang": "en", "text": "ok"}\r\n\n'
                         b'{"lang": "en", "text": "caf\xc3\xa9 \xff"}\n')
        with pytest.raises(FormatError) as exc:
            load_jsonl(str(path))
        assert str(exc.value) == (f"{path}: line 3: invalid UTF-8 byte 0xff at offset 30 "
                                  "(invalid start byte)")

    def test_write_read_roundtrip(self, tmp_path):
        docs = [Document("en", "hello there"), Document("el", "γειά σου")]
        path = tmp_path / "c.jsonl"
        write_jsonl(docs, str(path))
        back, counts = load_jsonl(str(path))
        assert back == docs
        assert counts == {"en": 1, "el": 1}


class TestDocCounts:
    def test_echoes_counts(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [json.dumps({"lang": "en", "text": "x"})] * 3 + \
               [json.dumps({"lang": "de", "text": "y"})]
        path.write_text("\n".join(rows) + "\n")
        docs, counts = load_jsonl(str(path))
        assert counts == {"de": 1, "en": 3}
        assert type(counts) is dict and "xx" not in counts
        assert sum(counts.values()) == len(docs)


class TestSampleBatch:
    def test_groups_by_sorted_language_in_corpus_order(self):
        groups = group_by_language([Document("de", "1"), Document("en", "2"), Document("de", "3")])
        assert groups.langs == ["de", "en"]
        assert [[d.text for d in docs] for docs in groups.docs] == [["1", "3"], ["2"]]
        assert groups.weights.tolist() == [2 / 3, 1 / 3]

    def test_single_language_only(self, byte_tokenizer):
        docs = [Document("en", "abcd") for _ in range(5)]
        batch = sample_batch(group_by_language(docs), 3, 8, byte_tokenizer, seed=0, step=0)
        assert batch.shape == (3, 9)
        body = set(batch.ravel().tolist()) - {BOS_ID, EOS_ID}
        assert body <= {ord(c) for c in "abcd"}

    def test_pure_function_of_seed_and_step(self, byte_tokenizer):
        docs = [Document("en", "abc"), Document("de", "xyz")]
        a = sample_batch(group_by_language(docs), 4, 10, byte_tokenizer, seed=3, step=7)
        b = sample_batch(group_by_language(docs), 4, 10, byte_tokenizer, seed=3, step=7)
        c = sample_batch(group_by_language(docs), 4, 10, byte_tokenizer, seed=3, step=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_language_proportions_match_counts(self, byte_tokenizer):
        # 900 "a"-docs vs 100 "b"-docs; each packed doc contributes one body
        # token, so token shares estimate language draw shares
        docs = [Document("aa", "a")] * 900 + [Document("bb", "b")] * 100
        batch = sample_batch(group_by_language(docs), 1200, 26, byte_tokenizer, seed=1, step=0)
        flat = batch.ravel()
        body = flat[(flat != BOS_ID) & (flat != EOS_ID)]
        assert body.size > 10_000
        share_a = float((body == ord("a")).mean())
        assert abs(share_a - 0.9) < 0.03

    def test_empty_corpus_rejected(self, byte_tokenizer):
        with pytest.raises(ValueError):
            sample_batch(group_by_language([]), 2, 8, byte_tokenizer, seed=0, step=0)


class TestSynthCorpus:
    def test_construction_rule_two_by_two(self):
        docs, truth = synth_corpus(2, 2, 3, 20, seed=0)
        assert truth.codes == ["aa", "ab", "ba", "bb"]
        assert len(docs) == 2 * 2 * 3
        expected = np.array([[0.0, 0.2, 1.0, 1.0],
                             [0.2, 0.0, 1.0, 1.0],
                             [1.0, 1.0, 0.0, 0.2],
                             [1.0, 1.0, 0.2, 0.0]])
        assert np.array_equal(truth.values, expected)

    def test_same_seed_identical(self):
        a, _ = synth_corpus(2, 3, 4, 30, seed=9)
        b, _ = synth_corpus(2, 3, 4, 30, seed=9)
        assert a == b

    def test_family_alphabets_disjoint(self):
        docs, truth = synth_corpus(3, 2, 5, 50, seed=2)
        by_family = {}
        for d in docs:
            by_family.setdefault(d.lang[0], set()).update(d.text)
        fams = list(by_family.values())
        for i in range(len(fams)):
            for j in range(i + 1, len(fams)):
                assert not fams[i] & fams[j]

    def test_histogram_separation(self):
        # total-variation distance between char histograms: same-family pairs
        # must sit strictly below every cross-family pair
        docs, truth = synth_corpus(2, 3, 10, 200, seed=4)
        text = {}
        for d in docs:
            text[d.lang] = text.get(d.lang, "") + d.text
        langs = sorted(text)
        alphabet = sorted(set("".join(text.values())))

        def hist(lang):
            c = Counter(text[lang])
            total = sum(c.values())
            return np.array([c.get(ch, 0) / total for ch in alphabet])

        tv = {}
        for i, a in enumerate(langs):
            for b in langs[i + 1:]:
                tv[(a, b)] = 0.5 * np.abs(hist(a) - hist(b)).sum()
        same = [v for (a, b), v in tv.items() if a[0] == b[0]]
        cross = [v for (a, b), v in tv.items() if a[0] != b[0]]
        assert max(same) < min(cross)

    def test_truth_matrix_invariants(self):
        _, truth = synth_corpus(3, 3, 1, 10, seed=1)
        v = truth.values
        assert np.array_equal(v, v.T)
        assert (np.diag(v) == 0).all()
        assert v.min() >= 0 and v.max() <= 1

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            synth_corpus(0, 2, 2, 10, seed=0)
        with pytest.raises(ValueError):
            synth_corpus(2, 2, 2, 0, seed=0)
