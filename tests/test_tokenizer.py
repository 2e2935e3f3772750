"""Byte-level BPE: training determinism, lossless roundtrip, persistence."""

import hashlib
import json
import random
import re
from collections import Counter

import pytest

from moelab.corpus import synth_corpus
from moelab.errors import FormatError
from moelab.tokenizer import BOS_ID, EOS_ID, PAD_ID, Tokenizer

LOREM = ("the quick brown fox jumps over the lazy dog while the lazy dog "
         "sleeps in the warm sun and the quick fox runs through the field ") * 8


def test_first_merge_on_repeated_byte():
    # hand-simulated BPE: "aaaaaaaa" has only the pair ('a','a'), so the one
    # merge allowed by vocab_size=260 must be (97, 97)
    tok = Tokenizer.train(["aaaaaaaa"], vocab_size=260)
    assert tok.merges == [(97, 97)]
    assert tok.vocab[259] == b"aa"


def test_vocab_size_too_small_rejected():
    with pytest.raises(ValueError):
        Tokenizer.train(["abc"], vocab_size=255)
    with pytest.raises(ValueError):
        Tokenizer.train(["abc"], vocab_size=258)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        Tokenizer.train([], vocab_size=300)
    with pytest.raises(ValueError):
        Tokenizer.train(["", ""], vocab_size=300)


def test_training_is_deterministic():
    corpus = ["abab abab", "banana band", "ababab"]
    a = Tokenizer.train(corpus, vocab_size=300)
    b = Tokenizer.train(list(corpus), vocab_size=300)
    assert a.merges == b.merges
    assert a.vocab == b.vocab


def test_merge_count_bounded_by_corpus():
    tok = Tokenizer.train(["ab"], vocab_size=400)
    # one possible merge ('a','b'), then pairs are exhausted
    assert len(tok.merges) == 1
    assert tok.vocab_size == 260


def test_encode_empty_and_merged_pair():
    tok = Tokenizer.train(["aaaaaaaa"], vocab_size=260)
    assert tok.encode("") == []
    assert tok.encode("aa") == [259]
    assert tok.encode("aaa") in ([259, 97], [97, 259])
    assert tok.encode("b") == [98]


def test_special_ids_fixed():
    tok = Tokenizer()
    assert (PAD_ID, BOS_ID, EOS_ID) == (256, 257, 258)
    assert tok.specials == {"pad": 256, "bos": 257, "eos": 258}


def test_roundtrip_random_unicode():
    tok = Tokenizer.train([LOREM], vocab_size=320)
    rnd = random.Random(1234)
    for _ in range(60):
        n = rnd.randrange(0, 40)
        s = "".join(chr(rnd.choice([rnd.randrange(32, 0x250),
                                    rnd.randrange(0x3B1, 0x2000),
                                    rnd.randrange(0x4E00, 0x9FFF)]))
                    for _ in range(n))
        assert tok.decode(tok.encode(s)) == s


def test_roundtrip_on_training_like_text():
    tok = Tokenizer.train([LOREM], vocab_size=400)
    assert tok.decode(tok.encode(LOREM)) == LOREM


def test_compression_no_longer_than_bytes():
    tok = Tokenizer.train([LOREM], vocab_size=400)
    sample = "the quick brown fox jumps over the lazy dog"
    assert len(tok.encode(sample)) <= len(sample.encode("utf-8"))
    assert len(tok.encode(sample)) < len(sample.encode("utf-8"))  # merges exist


def test_decode_rejects_out_of_range():
    tok = Tokenizer.train(["abc"], vocab_size=260)
    assert tok.decode([]) == ""
    with pytest.raises(ValueError):
        tok.decode([tok.vocab_size])


def test_decode_names_a_non_integer_id_by_position():
    """decode checks its ids with check_ids, so a float is a ValueError naming
    its position, not a TypeError from list indexing."""
    with pytest.raises(ValueError, match="^token id at position 0 is not an integer: 1.0$"):
        Tokenizer().decode([1.0])


@pytest.mark.parametrize("ids, shape", [([[1, 2]], (1, 2)), (5, ())], ids=["batch", "scalar"])
def test_decode_names_the_shape_of_anything_but_one_sequence(ids, shape):
    with pytest.raises(ValueError,
                       match=rf"^decode takes one sequence of ids, got shape {re.escape(str(shape))}$"):
        Tokenizer().decode(ids)


def test_all_byte_tokens_present():
    tok = Tokenizer.train(["xy"], vocab_size=300)
    for i in range(256):
        assert tok.vocab[i] == bytes([i])


def test_save_load_roundtrip(tmp_path):
    tok = Tokenizer.train([LOREM, "banana band"], vocab_size=350)
    path = tmp_path / "tok.json"
    tok.save(str(path))
    loaded = Tokenizer.load(str(path))
    assert loaded.merges == tok.merges
    assert loaded.vocab == tok.vocab
    assert loaded.encode("the lazy dog") == tok.encode("the lazy dog")
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "tok2.json"
    loaded.save(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_file_schema_fields(tmp_path):
    tok = Tokenizer.train(["abab"], vocab_size=261)
    path = tmp_path / "tok.json"
    tok.save(str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert set(payload) == {"version", "vocab", "merges", "specials"}
    assert payload["version"] == 1
    assert len(payload["vocab"]) == tok.vocab_size
    assert all(isinstance(m, list) and len(m) == 2 for m in payload["merges"])


def test_load_rejects_bad_version(tmp_path):
    tok = Tokenizer.train(["abab"], vocab_size=261)
    path = tmp_path / "tok.json"
    tok.save(str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError):
        Tokenizer.load(str(path))


def test_load_rejects_inconsistent_vocab(tmp_path):
    tok = Tokenizer.train(["abab"], vocab_size=261)
    path = tmp_path / "tok.json"
    tok.save(str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["vocab"][-1] = [120, 121, 122]
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError):
        Tokenizer.load(str(path))


def test_load_rejects_merge_referencing_future_id(tmp_path):
    path = tmp_path / "tok.json"
    payload = {
        "version": 1,
        "vocab": [[i] for i in range(256)] + [[], [], [], [97, 97]],
        "merges": [[300, 300]],
        "specials": {"pad": 256, "bos": 257, "eos": 258},
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError):
        Tokenizer.load(str(path))


def _valid_payload():
    return {
        "version": 1,
        "vocab": [[i] for i in range(256)] + [[], [], [], [97, 97]],
        "merges": [[97, 97]],
        "specials": {"pad": 256, "bos": 257, "eos": 258},
    }


def _without(key):
    def edit(payload):
        del payload[key]
        return payload
    return edit


def _set(key, value):
    def edit(payload):
        payload[key] = value
        return payload
    return edit


MALFORMED = {
    "top-level list": (lambda payload: [payload], "not an object"),
    "top-level string": (lambda payload: "tokenizer", "not an object"),
    "missing merges": (_without("merges"), "'merges'"),
    "missing vocab": (_without("vocab"), "'vocab'"),
    "merges not a list": (_set("merges", {"0": [97, 97]}), "'merges'"),
    "merge of one id": (_set("merges", [[97]]), "'merges'"),
    "merge of three ids": (_set("merges", [[97, 97, 97]]), "'merges'"),
    "merge ids as strings": (_set("merges", [["97", "97"]]), "'merges'"),
    "merge ids as floats": (_set("merges", [[97.0, 97.0]]), "'merges'"),
    "merge of a negative id": (_set("merges", [[-1, 97]]), "'merges'"),
    "vocab not a list": (_set("vocab", "abc"), "'vocab'"),
    "vocab entry not a list": (lambda p: _set("vocab", p["vocab"][:-1] + [3])(p), "'vocab'"),
    "vocab byte out of range": (lambda p: _set("vocab", p["vocab"][:-1] + [[97, 300]])(p),
                                "'vocab'"),
    "vocab byte as string": (lambda p: _set("vocab", p["vocab"][:-1] + [["a", "a"]])(p),
                             "'vocab'"),
}


def test_valid_payload_loads(tmp_path):
    path = tmp_path / "tok.json"
    path.write_text(json.dumps(_valid_payload()))
    assert Tokenizer.load(str(path)).encode("aaaa") == [259, 259]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_rejects_malformed_payload_naming_path_and_field(tmp_path, case):
    edit, field = MALFORMED[case]
    path = tmp_path / "tok.json"
    path.write_text(json.dumps(edit(_valid_payload())))
    with pytest.raises(FormatError) as exc:
        Tokenizer.load(str(path))
    assert str(path) in str(exc.value) and field in str(exc.value)


def test_load_names_the_path_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "tok.json"
    path.write_bytes(json.dumps(_valid_payload()).encode().replace(b'"version"', b'"\xffversion"'))
    with pytest.raises(FormatError) as exc:
        Tokenizer.load(str(path))
    assert str(exc.value).startswith(f"{path}: cannot read tokenizer file: 'utf-8' codec can't "
                                     "decode byte 0xff")


# -- reference paths: BPE on int lists, as textbooks write it --------------------

FIRST_MERGE_ID = 259


def reference_merge(ids, pair, new_id):
    out, i = [], 0
    while i < len(ids):
        if tuple(ids[i:i + 2]) == pair:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def reference_train(corpus, vocab_size):
    """Recount every pair of every document before each merge."""
    seqs = [list(text.encode("utf-8")) for text in corpus]
    merges = []
    for new_id in range(FIRST_MERGE_ID, vocab_size):
        counts = Counter(p for s in seqs for p in zip(s, s[1:]))
        if not counts:
            break
        top = max(counts.values())
        best = min(p for p, c in counts.items() if c == top)
        merges.append(best)
        seqs = [reference_merge(s, best, new_id) for s in seqs]
    return merges


def reference_encode(merges, text):
    """Merge the lowest-rank pair present until no learned pair is left."""
    ranks = {pair: r for r, pair in enumerate(merges)}
    ids = list(text.encode("utf-8"))
    while True:
        present = [p for p in zip(ids, ids[1:]) if p in ranks]
        if not present:
            return ids
        best = min(present, key=ranks.get)
        ids = reference_merge(ids, best, FIRST_MERGE_ID + ranks[best])


REFERENCE_CASES = {
    "runs of one byte": (["a" * 9, "aaa", "ba" + "a" * 6 + "b"], 270),
    "two-byte utf-8": (["äöü äöü ßß", "ÄÖÜ über öl"], 280),
    "three-byte utf-8": (["日本語の日本語", "語語語"], 280),
    "astral utf-8": (["😀😀🎉 𝔘𝔫𝔦𝔠𝔬𝔡𝔢", "😀🎉😀🎉"], 300),
    "ties in pair count": (["cd ab", "dc ba"], 264),
    "pairs run out": (["ab", "b"], 400),
    "one-byte documents": (["a", "b", "c"], 300),
    "pairs only across a document boundary": (["xa", "ay"], 300),
    "a repeated pair across the boundary": (["ab", "ab"], 300),
    "long alternating run": (["ab" * 20, "b" + "ab" * 7], 300),
    "long run of one byte": (["a" * 33, "b" + "a" * 32 + "b"], 300),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_train_and_encode_match_the_reference(case):
    corpus, vocab_size = REFERENCE_CASES[case]
    tok = Tokenizer.train(corpus, vocab_size)
    assert tok.merges == reference_train(corpus, vocab_size)
    for text in corpus + ["".join(corpus), "aaaaa", "ab" * 5, "😀" * 3, ""]:
        assert tok.encode(text) == reference_encode(tok.merges, text)


def test_random_corpora_match_the_reference():
    rnd = random.Random(7)
    alphabet = "ab c" + "äß" + "語" + "😀"
    for _ in range(20):
        corpus = ["".join(rnd.choices(alphabet, k=rnd.randrange(0, 81)))
                  for _ in range(rnd.randrange(1, 6))]
        if not any(corpus):
            continue
        vocab_size = FIRST_MERGE_ID + rnd.randrange(0, 81)
        tok = Tokenizer.train(corpus, vocab_size)
        assert tok.merges == reference_train(corpus, vocab_size)
        for _ in range(10):
            text = "".join(rnd.choices(alphabet + "xyz", k=rnd.randrange(0, 40)))
            assert tok.encode(text) == reference_encode(tok.merges, text)


def test_synthetic_corpus_matches_the_reference_over_many_merges():
    docs, _ = synth_corpus(2, 3, 4, 300, 5)
    corpus = [d.text for d in docs]
    tok = Tokenizer.train(corpus, FIRST_MERGE_ID + 150)
    assert len(tok.merges) == 150
    assert tok.merges == reference_train(corpus, FIRST_MERGE_ID + 150)


def test_pinned_merges_and_ids_on_the_benchmark_corpus(tmp_path):
    """The merges, every document's ids and the saved file hash as they did under the
    earlier pair-index trainer and rank-lookup encoder."""
    docs, _ = synth_corpus(3, 3, 40, 400, 101)
    tok = Tokenizer.train((d.text for d in docs), 300)
    ids = [tok.encode(d.text) for d in docs]
    tok.save(str(tmp_path / "tok.json"))

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert sha(json.dumps(tok.merges).encode()) == (
        "6d10f16b54199ce4e25a6d802bcbc4e88b8cf30bbe8635f2de8cf4f85b4ed80e")
    assert sha(json.dumps(ids).encode()) == (
        "4c89967f689f633b9aca222af24e89fc387f80688ecd9c344395196a88036dce")
    assert sha((tmp_path / "tok.json").read_bytes()) == (
        "36bbb40efc358f630c270cf3ccab7177669bf4c8dab013fbfa4de9c8e15095cd")
