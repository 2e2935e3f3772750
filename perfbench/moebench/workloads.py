"""The four benchmark workloads and the closed loop that times them.

Every workload is one caller in one process that sends its next op only
after the previous one returned. Inputs are a pure function of the seed:
a synthetic family-structured corpus and, for the workloads that start
from files, a tokenizer trained on it and a seed-initialised checkpoint.
The program under test receives only those files. Calls go through module
attributes (`corpus_mod.load_jsonl`, not a name imported here), so the
traced run's wrappers see them.

A workload has five parts: make_inputs() writes its input files (run in a
process of its own, so the workload process's peak memory never includes
it), the constructor reads what the checks need (not timed), setup()
builds the program's objects (timed as set-up), op(i) is the timed unit of
work, and check(i, output) verifies the output outside the timed region
and returns the op's token count and whether it passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from moelab import analysis, cli, corpus as corpus_mod, model as model_mod, trainer as trainer_mod
from moelab.tensor import no_grad
from moelab.tokenizer import BOS_ID, Tokenizer

from .stats import peak_rss_mb
from .tracer import SETUP_OP, Tracer

FAMILIES = 3           # language families in the corpus ...
LANGS_PER_FAMILY = 3   # ... of three languages each
MIN_OPS = 2          # train's loss check and the traced/untraced split need two
PEAK_LR = 1e-3
SCHEDULE_STEPS = 1000  # warmup 10 steps, then cosine decay; runs never reach the end

# Input files, all in one directory.
CORPUS = "corpus.jsonl"
TRUTH = "truth.json"
TOKENIZER = "tokenizer.json"
CHECKPOINT = "model.ckpt"


@dataclass
class Shapes:
    """Input and model sizes; the defaults are the desk shapes the benchmark times."""

    docs_per_lang: int = 40
    doc_chars: int = 400
    tokenizer_vocab: int = 300
    model: dict = field(default_factory=dict)  # overrides of desk_config()
    batch: int = 8
    prompt_tokens: int = 16
    new_tokens: int = 112
    sequences_per_lang: int = 16

    def config(self, seed: int):
        return model_mod.desk_config(seed=seed, **self.model)


def write_corpus(shapes: Shapes, seed: int, workdir: str) -> list:
    """Write the seed's corpus and its truth distance matrix; return the documents."""
    docs, truth = corpus_mod.synth_corpus(FAMILIES, LANGS_PER_FAMILY, shapes.docs_per_lang,
                                          shapes.doc_chars, seed)
    corpus_mod.write_jsonl(docs, os.path.join(workdir, CORPUS))
    with open(os.path.join(workdir, TRUTH), "w", encoding="utf-8") as fh:
        json.dump({"codes": truth.codes, "values": truth.values.tolist()}, fh)
    return docs


class Train:
    """Trainer.run one step at a time: backward, clipping, Adam, the encode cache."""

    name = "train"

    @staticmethod
    def make_inputs(shapes: Shapes, seed: int, workdir: str) -> None:
        write_corpus(shapes, seed, workdir)

    def __init__(self, shapes: Shapes, seed: int, workdir: str):
        self.shapes = shapes
        self.seed = seed
        self.docs, _ = corpus_mod.load_jsonl(os.path.join(workdir, CORPUS))
        self.losses: list[float] = []
        self.outputs: list = []

    def setup(self) -> None:
        tok = Tokenizer.train((d.text for d in self.docs), self.shapes.tokenizer_vocab)
        net = model_mod.Model(self.shapes.config(self.seed))
        schedule = trainer_mod.LrSchedule.for_total_steps(PEAK_LR, SCHEDULE_STEPS)
        self.trainer = trainer_mod.Trainer(net, self.docs, tok, schedule,
                               batch_size=self.shapes.batch, seed=self.seed)

    def op(self, i: int):
        return self.trainer.run(1)[0]

    def check(self, i: int, row) -> tuple[int, bool]:
        self.losses.append(row.lm_loss)
        self.outputs.append((row.lm_loss, row.moe_loss, row.total_loss))
        ok = all(math.isfinite(x) for x in (row.lm_loss, row.moe_loss, row.total_loss))
        return self.shapes.batch * self.trainer.seq_len, ok

    def finish(self) -> bool:
        return len(self.losses) >= 2 and self.losses[-1] < self.losses[0]

    def notes(self) -> dict:
        if not self.losses:
            return {}
        return {"first_lm_loss": self.losses[0], "final_lm_loss": self.losses[-1],
                "final_step": len(self.losses) - 1}


class _FromFiles:
    """Inputs written as files; set-up loads the checkpoint, tokenizer and corpus."""

    @staticmethod
    def make_inputs(shapes: Shapes, seed: int, workdir: str) -> None:
        docs = write_corpus(shapes, seed, workdir)
        Tokenizer.train((d.text for d in docs), shapes.tokenizer_vocab).save(
            os.path.join(workdir, TOKENIZER))
        trainer_mod.save_checkpoint(model_mod.Model(shapes.config(seed)),
                                    os.path.join(workdir, CHECKPOINT))

    def __init__(self, shapes: Shapes, seed: int, workdir: str):
        self.shapes = shapes
        self.seed = seed
        self.corpus_path = os.path.join(workdir, CORPUS)
        self.tokenizer_path = os.path.join(workdir, TOKENIZER)
        self.checkpoint_path = os.path.join(workdir, CHECKPOINT)
        with open(os.path.join(workdir, TRUTH), encoding="utf-8") as fh:
            truth = json.load(fh)
        self.truth = analysis.DistanceMatrix(truth["codes"], np.asarray(truth["values"]))
        self.langs = sorted(self.truth.codes)
        self.outputs: list = []

    def setup(self) -> None:
        self.model, _ = trainer_mod.load_checkpoint(self.checkpoint_path)
        self.tok = Tokenizer.load(self.tokenizer_path)
        self.docs, _ = corpus_mod.load_jsonl(self.corpus_path)

    def finish(self) -> bool:
        return True

    def notes(self) -> dict:
        return {}


class Decode(_FromFiles):
    """Greedy generate, B=1: every new token re-runs the whole prefix."""

    name = "decode"

    def op(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        doc = self.docs[int(rng.integers(len(self.docs)))]
        prompt = [BOS_ID] + self.tok.encode(doc.text)[:self.shapes.prompt_tokens - 1]
        return prompt, model_mod.generate(self.model, prompt, self.shapes.new_tokens)

    def check(self, i: int, output) -> tuple[int, bool]:
        prompt, ids = output
        self.outputs.append(ids)
        n_new = self.shapes.new_tokens
        if len(prompt) != self.shapes.prompt_tokens or ids[:len(prompt)] != prompt \
                or len(ids) != len(prompt) + n_new:
            return 0, False
        with no_grad():
            logits = self.model.forward(np.asarray(ids[:-1])).logits.data
        replay = logits[len(prompt) - 1:].argmax(axis=-1)
        return n_new, bool((replay == np.asarray(ids[len(prompt):])).all())


class Analyze(_FromFiles):
    """The paper's experiment: routing counts per language, distances, Pearson r."""

    name = "analyze"

    def __init__(self, shapes: Shapes, seed: int, workdir: str):
        super().__init__(shapes, seed, workdir)
        self.pass_vectors: list = []
        self.rs: list[float] = []

    def op(self, i: int):
        n = len(self.langs)
        if i % n == 0:
            self.pass_vectors = []
        cfg = self.model.config
        vectors = analysis.collect_activations(
            self.model, self.tok, self.docs, self.shapes.sequences_per_lang, cfg.max_seq_len,
            seed=self.seed + i // n, languages=[self.langs[i % n]])
        self.pass_vectors.extend(vectors)
        r = None
        if len(self.pass_vectors) == n:
            r = analysis.pearson(analysis.distance_matrix(self.pass_vectors), self.truth)
        return vectors[0], r

    def check(self, i: int, output) -> tuple[int, bool]:
        vector, r = output
        self.outputs.append((vector.lang, vector.counts.tolist(), r))
        routed = self.shapes.sequences_per_lang * self.model.config.max_seq_len
        per_layer = vector.counts.reshape(-1, vector.n_experts).sum(axis=1)
        ok = vector.n_layers > 0 and bool((per_layer == routed).all())
        if r is not None:
            self.rs.append(r)
            ok = ok and math.isfinite(r)
        return routed, ok

    def notes(self) -> dict:
        return {"pearson_r": self.rs}


class Score(_FromFiles):
    """`moelab perplexity --lang L` in-process: reload, encode, B=1 scoring per document."""

    name = "score"

    def __init__(self, shapes: Shapes, seed: int, workdir: str):
        super().__init__(shapes, seed, workdir)
        # Positions the CLI scores: BOS + text + EOS, cut to one window.
        window = shapes.config(seed).max_seq_len
        docs, _ = corpus_mod.load_jsonl(self.corpus_path)
        tok = Tokenizer.load(self.tokenizer_path)
        self.expected_tokens = {lang: 0 for lang in self.langs}
        for d in docs:
            self.expected_tokens[d.lang] += min(len(tok.encode(d.text)) + 1, window)

    def op(self, i: int):
        lang = self.langs[i % len(self.langs)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(["perplexity", "--checkpoint", self.checkpoint_path,
                             "--tokenizer", self.tokenizer_path, "--corpus", self.corpus_path,
                             "--lang", lang])
        return lang, code, captured.getvalue()

    def check(self, i: int, output) -> tuple[int, bool]:
        lang, code, text = output
        self.outputs.append((lang, code, text))
        expected = self.expected_tokens[lang]
        rows = {}
        for line in text.splitlines()[1:]:
            name, ppl, tokens = line.split("\t")
            rows[name] = (float(ppl), int(tokens))
        ok = code == 0 and set(rows) == {lang, "overall"} and all(
            math.isfinite(ppl) and ppl > 0 and tokens == expected for ppl, tokens in rows.values())
        return expected, ok


WORKLOADS = {w.name: w for w in (Train, Decode, Analyze, Score)}


@dataclass
class Run:
    """Raw timings of one workload run."""

    setup_s: list[float] = field(default_factory=list)
    setup_peak_rss_mb: float = 0.0  # the process's peak resident memory when set-up ended
    op_s: list[float] = field(default_factory=list)
    op_tokens: list[int] = field(default_factory=list)
    op_ok: list[bool] = field(default_factory=list)
    op_traced: list[bool] = field(default_factory=list)


def timed_setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def run(workload, seconds: float, tracer: Tracer | None = None, min_ops: int = MIN_OPS) -> Run:
    """Set up once, then run ops until `seconds` of wall time have passed.

    With a tracer, the set-up and every even-numbered op run traced and the
    odd-numbered ops run with no wrapper installed, so the two halves of
    one run give the tracing overhead.
    """
    result = Run()
    with tracer.installed() if tracer else contextlib.nullcontext():
        result.setup_s.append(timed_setup(workload))
    result.setup_peak_rss_mb = peak_rss_mb()
    begin = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - begin < seconds:
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            tracer.op = i
        tokens, ok, elapsed = 0, False, 0.0
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                start = perf_counter()
                try:
                    output = workload.op(i)
                finally:
                    elapsed = perf_counter() - start
            tokens, ok = workload.check(i, output)
        except Exception:  # a failed op is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
        result.op_s.append(elapsed)
        result.op_tokens.append(tokens)
        result.op_ok.append(ok)
        result.op_traced.append(traced)
        i += 1
    if tracer is not None:
        tracer.op = SETUP_OP
    if not workload.finish():
        result.op_ok[-1] = False
    return result
