"""Op latency statistics and the end-to-end metrics of an untraced run."""

from __future__ import annotations

import resource
from statistics import median

MIN_BEYOND = 10  # samples a tail percentile must have beyond it

END_TO_END = [("setup_s", "s"), ("tokens_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("peak_rss_mb", "MB")]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least MIN_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With too few samples for
    such a percentile above the median, the upper median is returned
    instead, and the count beyond says how far short the run fell.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 1 - MIN_BEYOND, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run) -> tuple[dict[str, float], dict]:
    """END_TO_END metrics of a run, plus where op_ms_tail sits in its sample,
    every set-up time, and the peak memory when the in-process set-up ended."""
    op_ms = [s * 1e3 for s in run.op_s]
    tail_ms, percentile, beyond = tail(op_ms)
    metrics = {
        "setup_s": median(run.setup_s),
        # The median op's rate: a few ops stalled by the host would drag a
        # total-over-total rate down by more than the run-to-run spread.
        "tokens_per_s": median([n / s for n, s in zip(run.op_tokens, run.op_s)]),
        "op_ms_p50": median(op_ms),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"op_ms_tail_percentile": percentile, "op_ms_tail_samples": len(op_ms),
                     "op_ms_tail_beyond": beyond, "setup_s_samples": run.setup_s,
                     "setup_peak_rss_mb": run.setup_peak_rss_mb}
