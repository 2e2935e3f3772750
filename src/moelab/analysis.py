"""Expert-routing analysis: per-language activation vectors, distances, correlation.

For each language we count how many tokens each (MoE layer, expert) pair
received, giving one non-negative (layers, experts) array per language. The
counts come from plain no-grad Model.forward passes, the forward that trains
and decodes; nothing here reads their logits, so no (positions x vocab_size)
array is built. Distances between unit-normalized vectors, divided by
sqrt(2), land in [0, 1] and can be compared against reference
language-distance matrices (family trees, synthetic ground truth) via
Pearson correlation over the strict upper triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import FormatError, ShapeError
from .fileio import atomic_write_text, read_lines
from .tensor import no_grad

CHUNK = 4  # sequences per no-grad forward in collect_activations; see there


@dataclass
class ActivationVector:
    """One language's routed-token counts as a (MoE layers, experts) int array:
    counts[layer, e] tokens went from MoE layer `layer` (in model order) to expert e."""

    lang: str
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ShapeError(f"counts must be (layers, experts), got shape {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError(f"negative activation count for language {self.lang!r}")

    @property
    def n_layers(self) -> int:
        return self.counts.shape[0]

    @property
    def n_experts(self) -> int:
        return self.counts.shape[1]


@dataclass
class DistanceMatrix:
    """Symmetric pairwise language distances in [0, 1] with a zero diagonal.

    A violation names its first offending entry by language codes and value.
    """

    codes: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = len(self.codes)
        if len(set(self.codes)) != n:
            dup = next(c for i, c in enumerate(self.codes) if self.codes.index(c) < i)
            raise ValueError(f"language code {dup!r} appears twice in distance matrix")
        if self.values.shape != (n, n):
            raise ShapeError(f"matrix shape {self.values.shape} does not match {n} codes")
        v = self.values

        def entry(i: int, j: int) -> str:
            return f"d({self.codes[i]}, {self.codes[j]})={float(v[i, j])!r}"

        def first(bad: np.ndarray) -> tuple[int, int] | None:
            return tuple(np.argwhere(bad)[0]) if bad.any() else None

        if at := first(~np.isfinite(v)):
            raise ValueError(f"distance matrix entries must be finite: {entry(*at)}")
        if at := first(np.abs(v - v.T) > 1e-12):
            raise ValueError(
                f"distance matrix is not symmetric: {entry(*at)} but {entry(*at[::-1])}")
        if at := first(np.diag(np.diag(v) != 0)):
            raise ValueError(f"distance matrix diagonal must be exactly zero: {entry(*at)}")
        if at := first((v < 0) | (v > 1)):
            raise ValueError(f"distance matrix entries must lie in [0, 1]: {entry(*at)}")

    def restrict(self, codes: list[str]) -> "DistanceMatrix":
        idx = [self.codes.index(c) for c in codes]
        return DistanceMatrix(list(codes), self.values[np.ix_(idx, idx)])


def collect_activations(model, tokenizer, docs, sequences_per_lang: int, seq_len: int,
                        seed: int, languages: list[str] | None = None) -> list[ActivationVector]:
    """Count routed tokens per (MoE layer, expert) pair for each language.

    Runs no-grad forwards of up to CHUNK sequences and reads only their
    routing records: no parameter is touched and no logits are built. Each
    sequence routes on its own, so CHUNK changes no count, only the working
    set. At the desk shape (128 positions, d_model 128) the analyze
    benchmark's peak RSS read 110.1 MB at 16 sequences per forward, 86.8 MB
    at 8, 76.1 MB at 4 and 69.1 MB at 2 (medians of three 25 s runs), and its
    op time was least at 4 (134.5 ms per language against 139.0 ms at 8,
    146.9 ms at 16 and 145.3 ms at 2, best of 20 interleaved rounds, one BLAS
    thread); hence CHUNK = 4.
    Deterministic for a given seed; each language draws from its own
    substream. A sequences_per_lang below 1 raises ValueError before any
    encode or forward.
    A pass whose balance loss is not finite raises FloatingPointError naming
    the language and the MoE layer, counting from 0 in model order.
    """
    from .corpus import LanguageGroups, group_by_language, pack_sequences

    if sequences_per_lang < 1:
        raise ValueError(f"sequences_per_lang must be at least 1, got {sequences_per_lang}")
    groups = group_by_language(docs)
    if languages is None:
        languages = groups.langs
    for lang in languages:
        if lang not in groups.langs:
            raise ValueError(f"language {lang!r} not present in corpus")
    n_experts = model.config.n_experts
    vectors = []
    for lang in languages:
        i = groups.langs.index(lang)
        rng = default_rng([seed, i])
        one = LanguageGroups([lang], [groups.docs[i]], np.ones(1))
        seqs = pack_sequences(one, sequences_per_lang, seq_len, tokenizer, rng)
        seqs = seqs[:, :seq_len]  # routing needs inputs only, no shifted targets
        counts = 0
        for start in range(0, len(seqs), CHUNK):
            with no_grad():
                out = model.forward(seqs[start:start + CHUNK])
            for layer, stats in enumerate(out.moe_stats):  # NaN gate probabilities argmax to 0
                if not math.isfinite(stats.balance_loss):
                    raise FloatingPointError(
                        f"language {lang!r}: MoE layer {layer} routes from non-finite gate "
                        f"probabilities (balance loss {stats.balance_loss})")
            counts += np.stack(
                [np.bincount(s.selected, minlength=n_experts) for s in out.moe_stats])
        vectors.append(ActivationVector(lang, counts))
    return vectors


def _stack(vectors: list[ActivationVector]) -> np.ndarray:
    """The (languages, layers, experts) counts as float64."""
    shapes = {v.counts.shape for v in vectors}
    if len(shapes) > 1:
        raise ShapeError(f"activation vectors disagree in shape: {sorted(shapes)}")
    return np.array([v.counts for v in vectors], dtype=np.float64)


def heatmap_rows(vectors: list[ActivationVector]) -> np.ndarray:
    """(languages, layers, experts): each layer's expert counts scaled to unit
    Euclidean norm (a layer with no tokens stays zero)."""
    rows = _stack(vectors)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)


def distance_matrix(vectors: list[ActivationVector]) -> DistanceMatrix:
    """Unit-normalize each vector, then d(u, v) = |u - v| / sqrt(2) in [0, 1]."""
    if len(vectors) < 2:
        raise ValueError(f"need at least 2 languages, got {len(vectors)}")
    rows = _stack(vectors).reshape(len(vectors), -1)
    norms = np.linalg.norm(rows, axis=1)
    for v, norm in zip(vectors, norms):
        if norm == 0:
            raise ValueError(f"activation vector for language {v.lang!r} is all zero")
    unit = rows / norms[:, None]
    diff = unit[:, None, :] - unit[None, :, :]
    # exactly symmetric with a zero diagonal as computed; rounding can pass 1
    values = np.clip(np.linalg.norm(diff, axis=2) / math.sqrt(2.0), 0.0, 1.0)
    return DistanceMatrix([v.lang for v in vectors], values)


def pearson(a: DistanceMatrix, b: DistanceMatrix) -> float:
    """Pearson r between the strict upper triangles, on the common languages."""
    common = sorted(set(a.codes) & set(b.codes))
    if len(common) < 3:
        raise ValueError(f"need at least 3 common languages, got {len(common)}")
    sub_a = a.restrict(common).values
    sub_b = b.restrict(common).values
    iu = np.triu_indices(len(common), k=1)
    x, y = sub_a[iu], sub_b[iu]
    dx, dy = x - x.mean(), y - y.mean()
    vx, vy = float(dx @ dx), float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("degenerate input: a distance triangle has zero variance")
    return float(np.clip((dx @ dy) / math.sqrt(vx * vy), -1.0, 1.0))


def correlation_sweep(a: DistanceMatrix, b: DistanceMatrix, counts: dict[str, int],
                      thresholds: list[float], where: str
                      ) -> list[tuple[float, int, float | None]]:
    """One (threshold, n_languages, r) row per threshold.

    Each row correlates a and b over their common languages whose document
    count reaches the threshold; r is None when fewer than 3 survive. A
    common language without a count raises ValueError naming `where` the
    counts came from and the language, before any row.
    """
    if not thresholds or not all(map(math.isfinite, thresholds)):
        raise ValueError(f"thresholds must be finite numbers, at least one, got {thresholds!r}")
    pair = next(((lo, hi) for lo, hi in zip(thresholds, thresholds[1:]) if lo > hi), None)
    if pair is not None:
        raise ValueError(f"thresholds must be sorted ascending, but {pair[0]!r} "
                         f"comes before {pair[1]!r}")
    b_codes = set(b.codes)
    common = [c for c in a.codes if c in b_codes]
    missing = next((c for c in common if c not in counts), None)
    if missing is not None:
        raise ValueError(f"{where}: no documents for language {missing!r}")
    rows: list[tuple[float, int, float | None]] = []
    for thr in thresholds:
        kept = [c for c in common if counts[c] >= thr]
        r = pearson(a.restrict(kept), b.restrict(kept)) if len(kept) >= 3 else None
        rows.append((thr, len(kept), r))
    return rows


# -- TSV formats ---------------------------------------------------------------


def _slot_header(vectors: list[ActivationVector]) -> str:
    labels = [f"layer{layer}_expert{e}"
              for layer in range(vectors[0].n_layers) for e in range(vectors[0].n_experts)]
    return "\t".join(["lang"] + labels)


def write_vectors_tsv(vectors: list[ActivationVector], path: str) -> None:
    lines = [_slot_header(vectors)]
    for v in vectors:
        lines.append("\t".join([v.lang] + [str(int(c)) for c in v.counts.ravel()]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_heatmap_tsv(vectors: list[ActivationVector], path: str) -> None:
    rows = heatmap_rows(vectors)
    lines = [_slot_header(vectors)]
    for v, row in zip(vectors, rows):
        lines.append("\t".join([v.lang] + [f"{x:.6f}" for x in row.ravel()]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_matrix_tsv(matrix: DistanceMatrix, path: str) -> None:
    lines = ["\t".join(["lang"] + matrix.codes)]
    for code, row in zip(matrix.codes, matrix.values):
        lines.append("\t".join([code] + [f"{x:.6f}" for x in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_tsv(path: str) -> DistanceMatrix:
    """Read a matrix as write_matrix_tsv writes it; DistanceMatrix's checks apply unchanged."""
    lines = list(read_lines(path))
    if not lines or not lines[0][1].startswith("lang\t"):
        raise FormatError(f"{path}: expected a 'lang\\t<codes...>' header")
    codes = lines[0][1].split("\t")[1:]
    if len(lines) - 1 != len(codes):
        raise FormatError(f"{path}: {len(codes)} codes in header but {len(lines) - 1} rows")
    values = np.zeros((len(codes), len(codes)))
    for i, (lineno, line) in enumerate(lines[1:]):
        parts = line.split("\t")
        if parts[0] != codes[i] or len(parts) != len(codes) + 1:
            raise FormatError(f"{path}: line {lineno} does not match the header ordering")
        try:
            values[i] = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    try:
        return DistanceMatrix(codes, values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def format_sweep_tsv(rows: list[tuple[float, int, float | None]]) -> str:
    lines = ["threshold\tn_languages\tpearson_r"]
    for thr, n, r in rows:
        thr_s = str(int(thr)) if float(thr).is_integer() else repr(float(thr))
        lines.append(f"{thr_s}\t{n}\t" + ("NA" if r is None else f"{r:.6f}"))
    return "\n".join(lines) + "\n"
