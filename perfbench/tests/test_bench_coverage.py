"""Every traced layer is reached on the workloads that should reach it, and
tracing changes no output. Runs the real workloads at tiny shapes."""

import json
from pathlib import Path

import pytest

from moebench import workloads
from moebench.layers import PER_LAYER, layer_tracer
from moebench.stats import END_TO_END

BENCH_DIR = Path(__file__).resolve().parent.parent
PREDICTIONS = json.loads((BENCH_DIR / "predictions.json").read_text())["spans"]

# Nine languages (three families of three), so analysis passes end on both
# traced (even) and untraced (odd) ops.
TINY = workloads.Shapes(
    docs_per_lang=3, doc_chars=120, tokenizer_vocab=280,
    model=dict(n_layers=2, d_model=16, n_heads=2, max_seq_len=24, vocab_size=300, n_experts=4),
    batch=2, prompt_tokens=4, new_tokens=20, sequences_per_lang=2)
OPS = 2 * workloads.FAMILIES * workloads.LANGS_PER_FAMILY  # two analysis passes


def _run(name, tmp_path, traced):
    workdir = tmp_path / ("traced" if traced else "plain")
    workdir.mkdir()
    workloads.WORKLOADS[name].make_inputs(TINY, 7, str(workdir))
    workload = workloads.WORKLOADS[name](TINY, 7, str(workdir))
    tracer = layer_tracer() if traced else None
    result = workloads.run(workload, seconds=0.0, tracer=tracer, min_ops=OPS)
    return workload, result, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layers_covered_and_outputs_unchanged_by_tracing(name, tmp_path):
    plain, plain_run, _ = _run(name, tmp_path, traced=False)
    traced, traced_run, tracer = _run(name, tmp_path, traced=True)
    assert all(plain_run.op_ok) and all(traced_run.op_ok)
    assert traced.outputs == plain.outputs
    assert len(plain.outputs) == OPS

    # Per wrapped attribute, not per span name: softmax is wrapped both in
    # moelab.model and in moelab.moe, and each site must still be reached.
    called_on = {p["span"]: p["called_on"] for p in PREDICTIONS}
    missing = [site for site, span in tracer.sites
               if name in called_on[span] and tracer.site_calls[site] == 0]
    assert missing == []


def test_predictions_cover_every_layer_metric():
    predicted = [m for p in PREDICTIONS for m in p["metrics"]]
    measured = [name for name, _ in PER_LAYER if not name.startswith("trace.")]
    assert sorted(predicted) == sorted(measured)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    made = []
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        workdir = tmp_path / sub
        workdir.mkdir()
        workloads.WORKLOADS[name].make_inputs(TINY, seed, str(workdir))
        made.append({p.name: p.read_bytes() for p in workdir.iterdir()})
    assert workloads.CORPUS in made[0]
    assert made[0] == made[1]
    assert all(made[0][f] != made[2][f] for f in made[0] if f != workloads.TRUTH)
