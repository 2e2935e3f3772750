"""Routing analysis: activation vectors, distances, correlation, TSV formats."""

import hashlib
import itertools
import math
import re
import sys

import numpy as np
import pytest
from scipy import stats as scipy_stats

from moelab import analysis, tensor
from moelab.analysis import (ActivationVector, DistanceMatrix, collect_activations,
                             correlation_sweep, distance_matrix, format_sweep_tsv,
                             heatmap_rows, pearson, read_matrix_tsv, write_heatmap_tsv,
                             write_matrix_tsv, write_vectors_tsv)
from moelab.corpus import synth_corpus
from moelab.errors import FormatError, ShapeError
from moelab.model import Model, ModelConfig
from moelab.tokenizer import Tokenizer


def vec(lang, counts, n_experts=2):
    """The ActivationVector of layer-major `counts`, n_experts to a layer."""
    return ActivationVector(lang, np.reshape(counts, (-1, n_experts)))


@pytest.fixture(scope="module")
def tiny_setup():
    docs, truth = synth_corpus(2, 2, 6, 60, seed=3)
    tok = Tokenizer.train((d.text for d in docs), 280)
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, max_seq_len=16,
                      vocab_size=300, n_experts=3, seed=5)
    return Model(cfg), tok, docs, truth


def params_digest(model):
    h = hashlib.sha256()
    for name, p in sorted(model.named_parameters().items()):
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestCollectActivations:
    def test_zero_gate_routes_everything_to_expert_zero(self, tiny_setup):
        model, tok, docs, _ = tiny_setup
        gates = [layer.moe.gate_weight.data for layer in model.layers if layer.moe is not None]
        saved = [g.copy() for g in gates]
        for g in gates:
            g[:] = 0.0  # uniform gate: ties pick expert 0
        try:
            vectors = collect_activations(model, tok, docs, 4, 12, seed=0)
        finally:  # the model is shared by the tests of this module
            for g, old in zip(gates, saved):
                g[:] = old
        for v in vectors:
            assert v.counts.shape == (v.n_layers, v.n_experts) == (1, 3)
            assert (v.counts[:, 1:] == 0).all()
            assert (v.counts[:, 0] > 0).all()

    def test_counts_sum_invariant(self, tiny_setup):
        model, tok, docs, _ = tiny_setup
        vectors = collect_activations(model, tok, docs, 5, 12, seed=1)
        for v in vectors:
            assert v.counts.sum() == 5 * 12 * v.n_layers  # sequences x positions x layers

    def test_bitwise_reproducible_and_read_only(self, tiny_setup):
        model, tok, docs, _ = tiny_setup
        before = params_digest(model)
        a = collect_activations(model, tok, docs, 4, 12, seed=7)
        b = collect_activations(model, tok, docs, 4, 12, seed=7)
        assert params_digest(model) == before
        for va, vb in zip(a, b):
            assert va.lang == vb.lang
            assert np.array_equal(va.counts, vb.counts)

    def test_counts_equal_full_forward_routing(self, tiny_setup, monkeypatch):
        """Each language's counts are the bincounts of the plain forwards on its chunks."""
        model, tok, docs, _ = tiny_setup
        forward = model.forward
        n = model.config.n_experts
        from_forward = []

        def recording_forward(ids):
            out = forward(ids)
            from_forward.append(np.stack(
                [np.bincount(s.selected, minlength=n) for s in out.moe_stats]))
            return out

        monkeypatch.setattr(model, "forward", recording_forward)
        vectors = collect_activations(model, tok, docs, 20, 12, seed=4)
        chunks = len(range(0, 20, analysis.CHUNK))  # 20 sequences, CHUNK to a forward
        assert len(from_forward) == chunks * len(vectors)
        for i, v in enumerate(vectors):
            assert np.array_equal(v.counts, sum(from_forward[chunks * i:chunks * (i + 1)]))

    def test_chunk_size_does_not_change_counts(self, tiny_setup, monkeypatch, tmp_path):
        """Each sequence routes on its own, so neither how many share a forward
        nor how many threads run the forwards is seen in the counts or in the
        analyze-routing files; 21 sequences leave a partial last chunk at CHUNK
        2 and 4, and 3 workers are more than a 2-core host has cores. A short
        switch interval makes the threads swap often."""
        _, tok, docs, _ = tiny_setup
        model = Model(ModelConfig(n_layers=2, d_model=16, n_heads=2, max_seq_len=16,
                                  vocab_size=300, n_experts=3, seed=6))
        files = {"vectors.tsv": write_vectors_tsv, "heatmap.tsv": write_heatmap_tsv,
                 "distance.tsv": lambda vectors, path: write_matrix_tsv(
                     distance_matrix(vectors), path)}
        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers, chunk in itertools.product((1, 2, 3), (1, 2, 4)):
                monkeypatch.setattr(tensor, "WORKERS", workers)
                monkeypatch.setattr(analysis, "CHUNK", chunk)
                vectors = collect_activations(model, tok, docs, 21, 12, seed=2)
                out = tmp_path / f"{workers}x{chunk}"
                out.mkdir()
                for name, write in files.items():
                    write(vectors, str(out / name))
                runs[workers, chunk] = ([v.counts for v in vectors],
                                        {name: (out / name).read_bytes() for name in files})
        finally:
            sys.setswitchinterval(interval)
        counts, written = runs[1, 1]
        for key, (other_counts, other_written) in runs.items():
            assert all(np.array_equal(a, b) for a, b in zip(counts, other_counts, strict=True)), key
            assert other_written == written, key
        assert all((c[:, 1:] > 0).any() for c in counts)  # not everything on expert 0

    @pytest.mark.parametrize("n", [0, -1])
    def test_sequence_count_below_one_rejected_before_any_work(self, tiny_setup, n,
                                                                monkeypatch):
        model, tok, docs, _ = tiny_setup

        def unreachable(*args, **kwargs):
            raise AssertionError("called before the argument was checked")

        monkeypatch.setattr(model, "forward", unreachable)
        monkeypatch.setattr(tok, "encode", unreachable)
        with pytest.raises(ValueError, match=rf"^sequences_per_lang must be at least 1, got {n}$"):
            collect_activations(model, tok, docs, n, 12, seed=0)

    def test_missing_language_named(self, tiny_setup):
        model, tok, docs, _ = tiny_setup
        with pytest.raises(ValueError, match="zz"):
            collect_activations(model, tok, docs, 2, 8, seed=0, languages=["zz"])


class TestHeatmapRows:
    def test_hand_l2_norm(self):
        rows = heatmap_rows([vec("aa", [3, 4, 0, 0])])
        assert np.allclose(rows[0, 0], [0.6, 0.8], atol=1e-12)

    def test_zero_block_stays_zero(self):
        rows = heatmap_rows([vec("aa", [0, 0, 5, 5])])
        assert np.array_equal(rows[0, 0], [0.0, 0.0])
        assert np.allclose(rows[0, 1], [math.sqrt(0.5)] * 2, atol=1e-12)

    def test_nonzero_blocks_unit_norm(self):
        rng = np.random.default_rng(0)
        vectors = [vec(code, rng.integers(1, 50, size=8), n_experts=4)
                   for code in ("aa", "bb", "cc")]
        rows = heatmap_rows(vectors)
        assert rows.shape == (3, 2, 4)
        for row in rows:
            for block in row:
                assert abs(np.linalg.norm(block) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            heatmap_rows([vec("aa", [1, 2]), vec("bb", [1, 2, 3, 4])])
        with pytest.raises(ShapeError, match=r"\(layers, experts\), got shape \(4,\)"):
            ActivationVector("aa", [1, 2, 3, 4])


class TestDistanceMatrix:
    def test_identical_vectors_distance_zero(self):
        dm = distance_matrix([vec("aa", [5, 5]), vec("bb", [5, 5])])
        assert dm.values[0, 1] == 0.0

    def test_disjoint_support_distance_one(self):
        dm = distance_matrix([vec("aa", [7, 0]), vec("bb", [0, 3])])
        assert abs(dm.values[0, 1] - 1.0) < 1e-12

    def test_rounding_past_one_is_clipped(self):
        # unclipped, this disjoint pair's distance rounds to 1.0000000000000002
        dm = distance_matrix([vec("aa", [19, 29, 0, 0]), vec("bb", [0, 0, 34, 15])])
        assert dm.values[0, 1] == 1.0

    def test_hand_euclidean(self):
        dm = distance_matrix([vec("aa", [1, 1]), vec("bb", [1, 0])])
        assert abs(dm.values[0, 1] - 0.5411961001461969) < 1e-9

    def test_invariants_on_random_sets(self):
        # Counts hold zeros, so pairs with disjoint, partly shared and full
        # supports all occur. Symmetry and the zero diagonal hold exactly by
        # construction: distance_matrix does not enforce them.
        rng = np.random.default_rng(12)
        supports = set()
        for _ in range(50):
            n_langs = int(rng.integers(2, 7))
            dim = int(rng.integers(1, 5)) * 2
            counts = rng.integers(0, 40, size=(n_langs, dim)) * (rng.random((n_langs, dim)) < 0.5)
            counts[np.arange(n_langs), rng.integers(0, dim, size=n_langs)] += 1  # none all zero
            dm = distance_matrix([vec(f"l{chr(97 + i)}", c) for i, c in enumerate(counts)])
            assert np.array_equal(dm.values, dm.values.T)
            assert (np.diag(dm.values) == 0).all()
            assert dm.values.min() >= 0.0 and dm.values.max() <= 1.0
            for i, j in zip(*np.triu_indices(n_langs, 1)):
                shared = int(((counts[i] > 0) & (counts[j] > 0)).sum())
                supports.add("disjoint" if shared == 0 else "full" if shared == dim else "partial")
                if shared == 0:
                    assert abs(dm.values[i, j] - 1.0) < 1e-12
        assert supports == {"disjoint", "partial", "full"}

    def test_zero_vector_names_language(self):
        with pytest.raises(ValueError, match="bb"):
            distance_matrix([vec("aa", [1, 2]), vec("bb", [0, 0])])

    def test_needs_two_languages(self):
        with pytest.raises(ValueError):
            distance_matrix([vec("aa", [1, 2])])

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError):
            DistanceMatrix(["aa", "bb"], np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(["aa", "bb"], np.array([[0.1, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(["aa", "bb"], np.array([[0.0, 1.5], [1.5, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(["aa", "aa"], np.zeros((2, 2)))


def symmetric_matrix(codes, rng):
    n = len(codes)
    m = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    m[iu] = rng.uniform(0.05, 1.0, size=len(iu[0]))
    return DistanceMatrix(codes, m + m.T)


class TestPearson:
    def test_self_correlation_is_one(self):
        dm = symmetric_matrix(["aa", "bb", "cc", "dd"], np.random.default_rng(1))
        assert abs(pearson(dm, dm) - 1.0) < 1e-12

    def test_negative_affine_gives_minus_one(self):
        rng = np.random.default_rng(2)
        a = symmetric_matrix(["aa", "bb", "cc", "dd"], rng)
        flipped = 1.0 - a.values
        np.fill_diagonal(flipped, 0.0)
        b = DistanceMatrix(a.codes, flipped)
        assert abs(pearson(a, b) + 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_statistics_oracle(self, seed):
        rng = np.random.default_rng(seed + 50)
        codes = ["aa", "bb", "cc", "dd", "ee"][:int(rng.integers(3, 6))]
        a = symmetric_matrix(codes, rng)
        b = symmetric_matrix(codes, rng)
        iu = np.triu_indices(len(codes), 1)
        expected = scipy_stats.pearsonr(a.values[iu], b.values[iu]).statistic
        assert abs(pearson(a, b) - expected) < 1e-12

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        a = symmetric_matrix(["aa", "bb", "cc", "dd"], rng)
        b = symmetric_matrix(["aa", "bb", "cc", "dd"], rng)
        assert pearson(a, b) == pearson(b, a)

    def test_alignment_by_code_not_position(self):
        rng = np.random.default_rng(6)
        a = symmetric_matrix(["aa", "bb", "cc"], rng)
        perm = [2, 0, 1]
        b = DistanceMatrix([a.codes[i] for i in perm],
                           a.values[np.ix_(perm, perm)])
        assert abs(pearson(a, b) - 1.0) < 1e-12

    def test_too_few_common_languages(self):
        rng = np.random.default_rng(7)
        a = symmetric_matrix(["aa", "bb", "cc"], rng)
        b = symmetric_matrix(["aa", "bb", "zz"], rng)
        with pytest.raises(ValueError, match="common"):
            pearson(a, b)

    def test_zero_variance_degenerate(self):
        flat = DistanceMatrix(["aa", "bb", "cc"],
                              np.array([[0, .5, .5], [.5, 0, .5], [.5, .5, 0]], dtype=float))
        other = symmetric_matrix(["aa", "bb", "cc"], np.random.default_rng(8))
        with pytest.raises(ValueError, match="variance"):
            pearson(flat, other)


class TestFilterAndSweep:
    COUNTS = {"aa": 2_000_000, "bb": 500, "cc": 40_000, "dd": 9}

    CODES = ["aa", "bb", "cc", "dd"]

    def vectors(self):
        rng = np.random.default_rng(9)
        return [vec(code, rng.integers(1, 30, size=4)) for code in self.CODES]

    def matrices(self):
        return (distance_matrix(self.vectors()),
                symmetric_matrix(self.CODES, np.random.default_rng(12)))

    def sweep(self, thresholds, counts=None):
        return correlation_sweep(*self.matrices(), self.COUNTS if counts is None else counts,
                                 thresholds, "counts.jsonl")

    def test_threshold_filter(self):
        a, b = self.matrices()
        kept = ["aa", "bb", "cc"]  # dd's 9 documents fall below 100
        assert self.sweep([100, 1e6]) == [(100, 3, pearson(a.restrict(kept), b.restrict(kept))),
                                          (1e6, 1, None)]

    def test_zero_threshold_keeps_all(self):
        assert [n for _, n, _ in self.sweep([0])] == [len(self.CODES)]

    def test_monotone_in_threshold(self):
        sizes = [n for _, n, _ in self.sweep([0, 10, 1000, 1e5, 1e7])]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes == [4, 3, 2, 1, 0]

    def test_missing_count_rejected(self):
        with pytest.raises(ValueError, match="^counts.jsonl: no documents for language 'aa'$"):
            self.sweep([0], counts={"bb": 1, "cc": 1, "dd": 1})

    def test_sweep_rows(self):
        vectors = self.vectors()
        reference = symmetric_matrix(self.CODES, np.random.default_rng(10))
        rows = correlation_sweep(distance_matrix(vectors), reference, self.COUNTS,
                                 [0, 100, 1e12], "counts.jsonl")
        assert rows[0] == (0, 4, pearson(distance_matrix(vectors), reference))
        assert rows[2] == (1e12, 0, None)
        # the restricted matrix gives the same r as distances over the kept vectors only
        kept = [v for v in vectors if self.COUNTS[v.lang] >= 100]
        assert rows[1][:2] == (100, 3)
        assert rows[1][2] == pytest.approx(pearson(distance_matrix(kept), reference),
                                           abs=1e-12)

    def test_sweep_language_counts_non_increasing(self):
        vectors = self.vectors()
        reference = symmetric_matrix(self.CODES, np.random.default_rng(11))
        rows = correlation_sweep(distance_matrix(vectors), reference, self.COUNTS,
                                 [0, 10, 1000, 1e5], "counts.jsonl")
        ns = [n for _, n, _ in rows]
        assert ns == sorted(ns, reverse=True)

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError, match="^thresholds must be sorted ascending, but 3 "
                                             "comes before 1$"):
            correlation_sweep(distance_matrix(self.vectors()), symmetric_matrix(
                self.CODES, np.random.default_rng(0)), self.COUNTS, [0, 3, 3, 1], "counts.jsonl")


class TestTsvFormats:
    def test_matrix_tsv_line_count_and_roundtrip(self, tmp_path):
        dm = symmetric_matrix(["aa", "bb"], np.random.default_rng(13))
        path = tmp_path / "m.tsv"
        write_matrix_tsv(dm, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "lang\taa\tbb"
        back = read_matrix_tsv(str(path))
        assert back.codes == dm.codes
        assert np.allclose(back.values, dm.values, atol=5e-7)
        path2 = tmp_path / "m2.tsv"
        write_matrix_tsv(back, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_matrix_tsv_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("codes\taa\tbb\naa\t0\t1\nbb\t1\t0\n")
        with pytest.raises(FormatError):
            read_matrix_tsv(str(path))

    @pytest.mark.parametrize("cells, problem", [
        ({(0, 1): "inf", (1, 0): "inf"}, r"finite: d\(aa, bb\)=inf$"),
        ({(0, 1): "nan", (1, 0): "nan"}, r"finite: d\(aa, bb\)=nan$"),
        ({(0, 2): "7.0", (2, 0): "7.0"}, r"\[0, 1\]: d\(aa, cc\)=7\.0$"),
        ({(1, 2): "-3", (2, 1): "-3"}, r"\[0, 1\]: d\(bb, cc\)=-3\.0$"),
        ({(0, 1): "0.400000"}, r"not symmetric: d\(aa, bb\)=0\.4 but d\(bb, aa\)=0\.5$"),
        ({(2, 2): "0.100000"}, r"diagonal .*: d\(cc, cc\)=0\.1$"),
    ], ids=["inf", "nan", "above_one", "negative", "asymmetric", "diagonal"])
    def test_matrix_tsv_bad_entry_is_rejected_not_repaired(self, tmp_path, cells, problem):
        dm = DistanceMatrix(["aa", "bb", "cc"], np.array(
            [[0.0, 0.5, 0.25], [0.5, 0.0, 0.75], [0.25, 0.75, 0.0]]))
        path = tmp_path / "m.tsv"
        write_matrix_tsv(dm, str(path))
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        for (i, j), value in cells.items():
            rows[i + 1][j + 1] = value
        path.write_text("".join("\t".join(row) + "\n" for row in rows))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: .*{problem}"):
            read_matrix_tsv(str(path))

    @pytest.mark.parametrize("text, problem", [
        ("lang\taa\tbb\n\naa\t0\t0.5\n\nbb\t0.5\tx\n", "line 5: could not convert"),
        ("lang\taa\tbb\n\n\naa\t0\t0.5\nbb\t0.5\n", "line 5 does not match"),
        ("lang\taa\tbb\taa\naa\t0\t1\t0\nbb\t1\t0\t1\naa\t0\t1\t0\n",
         "language code 'aa' appears twice in distance matrix$"),
        ("lang\taa\tbb\tcc\naa\t0\t1\t1\nbb\t1\t0\t1\n", "3 codes in header but 2 rows$"),
    ], ids=["bad_cell", "short_row", "repeated_code", "missing_row"])
    def test_matrix_tsv_errors_name_the_file_line(self, tmp_path, text, problem):
        path = tmp_path / "m.tsv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {problem}"):
            read_matrix_tsv(str(path))

    def test_vector_tsv_column_count(self, tmp_path):
        rng = np.random.default_rng(14)
        vectors = [vec(code, rng.integers(0, 9, size=6) + 1, n_experts=3)
                   for code in ("aa", "bb")]
        path = tmp_path / "v.tsv"
        write_vectors_tsv(vectors, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["lang", "layer0_expert0", "layer0_expert1",
                                        "layer0_expert2", "layer1_expert0",
                                        "layer1_expert1", "layer1_expert2"]
        for line in lines[1:]:
            assert len(line.split("\t")) == 1 + 2 * 3

    def test_heatmap_tsv_values(self, tmp_path):
        path = tmp_path / "h.tsv"
        write_heatmap_tsv([vec("aa", [3, 4])], str(path))
        lines = path.read_text().splitlines()
        assert lines[1] == "aa\t0.600000\t0.800000"

    def test_sweep_tsv_na_row(self):
        text = format_sweep_tsv([(0, 4, 0.5), (1e12, 1, None)])
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0] == "threshold\tn_languages\tpearson_r"
        assert lines[1] == "0\t4\t0.500000"
        assert lines[2] == "1000000000000\t1\tNA"
