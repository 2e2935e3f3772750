"""Desk benchmark for moelab.

    python3 perfbench/run.py --workload {train,decode,analyze,score,all} \
        --seed N --seconds S --trace {0,1}

Runs one workload in this process (or, with `all`, each workload in a child
process of its own) from the root of a checkout. Inputs are generated from
--seed in a separate process, ops run in a closed loop for --seconds, and
every op's output is checked. With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a run whose even-numbered ops are traced. The lines before it print the same
metrics by name with their units, plus the machine and the checks.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["train", "decode", "analyze", "score"]
BLAS_THREADS = 1
SETUP_REPEATS = 3    # set-ups timed per untraced run, each in a fresh process
CHILD_TIMEOUT_S = 60


def process_env(seed: int) -> dict[str, str]:
    """Settings read only when a process starts; fix_process restarts to apply them."""
    return {
        # String hashing is salted per process. The salt reorders sets and
        # dicts and with them the allocations, so it is part of the input:
        # it comes from --seed.
        "PYTHONHASHSEED": str(seed % 2**32),
        # By default glibc serves blocks over 32 MiB (train's logits and their
        # gradients, analyze's logits) with fresh mmaps and returns freed heap
        # tops to the kernel, so every op page-faults its big arrays in again.
        # On a shared 2-core VM that took 10-40% of a train step, varying from
        # step to step with the host's state. Keep freed memory in the heap
        # instead: a train step then makes no page faults, at the same peak.
        "MALLOC_MMAP_THRESHOLD_": str(2**30),
        "MALLOC_TRIM_THRESHOLD_": str(2**32),
        # OpenBLAS reads these once, at import. One thread gave a narrower
        # run-to-run spread than two on a 2-core machine.
        **{var: str(BLAS_THREADS)
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fix_process(seed: int) -> None:
    """Restart once with process_env(seed) in place; numpy is imported only after this.

    Child processes inherit the settings."""
    env = process_env(seed)
    if any(os.environ.get(k) != v for k, v in env.items()):
        os.environ.update(env)
        os.execv(sys.executable, [sys.executable] + sys.argv)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the phases run_one starts in processes of their own.
    p.add_argument("--phase", choices=("inputs", "setup"), help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    if (args.phase is None) != (args.workdir is None) or (
            args.phase and args.workload == "all"):
        p.error("--phase needs --workdir and one workload")
    return args


def import_program():
    """Import moelab from this checkout's src/, never from anywhere else."""
    if not (SRC / "moelab" / "__init__.py").is_file():
        sys.exit(f"error: no moelab sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import moelab

    if Path(moelab.__file__).resolve().parent != SRC / "moelab":
        sys.exit(f"error: imported moelab from {moelab.__file__}, not from {SRC}")


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"env": {k: os.environ[k] for k in process_env(0)},
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_phase(args, phase: str, workdir: str) -> str:
    """Run one phase of this workload in a fresh process; return its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--phase", phase, "--workdir", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"error: {phase} phase of {args.workload} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


def phase_main(args) -> None:
    """`inputs` writes the workload's input files; `setup` times one cold set-up."""
    import_program()
    from moebench import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.phase == "inputs":
        cls.make_inputs(workloads.Shapes(), args.seed, args.workdir)
    else:
        print(repr(workloads.timed_setup(cls(workloads.Shapes(), args.seed, args.workdir))))


def run_one(args) -> dict:
    import_program()
    from moebench import workloads
    from moebench.layers import PER_LAYER, layer_metrics, layer_tracer
    from moebench.stats import END_TO_END, end_to_end

    print("# machine " + json.dumps(machine()))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    tracer = layer_tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        # Inputs are made in another process, so that this one's peak memory
        # covers only the set-up and the ops.
        run_phase(args, "inputs", workdir)
        workload = workloads.WORKLOADS[args.workload](workloads.Shapes(), args.seed, workdir)
        run = workloads.run(workload, args.seconds, tracer)
        if tracer is None:
            # The set-up above ran cold, in a process that had set up nothing
            # before; the repeats must too, so each gets a process of its own.
            run.setup_s += [float(run_phase(args, "setup", workdir))
                            for _ in range(SETUP_REPEATS - 1)]
    attempted = len(run.op_ok)
    failed = attempted - sum(run.op_ok)
    print(f"# ops attempted {attempted} failed {failed} ops_failed_ratio {failed / attempted}")
    print("# checks " + json.dumps(workload.notes()))
    if tracer is None:
        values, extra = end_to_end(run)
        units = dict(END_TO_END)
        print("# " + json.dumps(extra))
    else:
        values = layer_metrics(tracer, run)
        units = dict(PER_LAYER)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(trace_path))
        print(f"# spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(args) -> dict:
    """Each workload in a child process of its own, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return results


def main(args) -> int:
    if args.phase:
        phase_main(args)
        return 0
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    args = parse_args(sys.argv[1:])
    fix_process(args.seed)
    sys.exit(main(args))
