"""Benchmark of cliffdesigns: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload clifford-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload paper-numbers --seed 1 --seconds 20 --trace 1

The program is imported from the `src` directory next to this one. With
`--trace 0` the last line reports the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run. The line before it holds
provenance, the program's exit statuses per operation and every
operation's time in every round. Each round runs in a fresh worker process
with every BLAS and OpenMP thread variable set to THREADS, overriding
inherited values. The run is pinned to one CPU, where a thread of this
process times a reference kernel beside each worker to gauge that CPU's
speed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("clifford-mc", "haar-moments", "paper-numbers")
THREADS = 1  # multithreaded OpenBLAS timings were bimodal on this 2-CPU machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBES_PER_ROUND = 2
PROBES_AFTER = 6
TIME_LIMIT_S = 175.0
GAUGE_LOOPS = 400
GAUGE_PAUSE_S = 0.2
# Times are reported at the speed at which the gauge kernel takes REF_S,
# about its time alone on a 2.1 GHz Xeon in a fast stretch: see
# `reference_speed_round_s` and `reference_speed_setup_s`.
REF_S = 0.025
# How strongly a workload's round time follows the gauge. The BLAS-bound
# Haar moments slowed about half as much as the gauge kernel: across rounds
# their log time rose 0.3-0.6 times as fast as the gauge's, against 1.1-1.3
# for clifford-mc (README.md).
GAUGE_EXPONENT = {"haar-moments": 0.5}


class BenchError(Exception):
    pass


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"over the {TIME_LIMIT_S:.0f} s limit")
    return left


def gauge_kernel_s() -> float:
    """Seconds taken by a fixed kernel of Kronecker and 8x8 matrix products of
    2x2 complex matrices, made without cliffdesigns."""
    import numpy as np

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    acc = 0j
    t0 = time.perf_counter()
    for _ in range(GAUGE_LOOPS):
        k = np.kron(np.kron(x, x), x)
        acc += (k @ k).trace()
    elapsed = time.perf_counter() - t0
    if acc != 8 * GAUGE_LOOPS:
        raise BenchError(f"gauge kernel summed {acc}, not {8 * GAUGE_LOOPS}")
    return elapsed


def pin_to_one_cpu() -> int:
    """Pin this process, its later threads and its workers to one CPU.

    On a shared 2-CPU virtual machine the CPUs slowed down apart from each
    other, so the gauge only tracks the worker's speed on the same CPU:
    beside a worker pinned to another CPU, the ratio of the two varied as
    much as the worker's raw time (README.md)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Gauge:
    """Times the gauge kernel every GAUGE_PAUSE_S on a thread of its own
    while a worker runs on the same CPU, so the samples spread evenly over
    the worker's time, long operations included."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.samples.append(gauge_kernel_s())
            self._stop.wait(GAUGE_PAUSE_S)

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def launch(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run a worker; return the seconds until it printed "ready", and the
    rest of its output."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), *cmd], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=remaining(deadline))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("a worker ran over the time limit")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd)} exited with status {proc.returncode}")
    return ready, rest


def probe_setup(deadline: float, count: int) -> list[list[float]]:
    """Set-up times of `count` workers, each paired with a gauge sample
    taken just before it."""
    return [[gauge_kernel_s(), launch(["--probe"], deadline)[0]] for _ in range(count)]


def run_round(args, rnd: int, trace: int, deadline: float) -> dict:
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--round", str(rnd),
           "--trace", str(trace)]
    with Gauge() as gauge:
        out = launch(cmd, deadline)[1]
    if not gauge.samples:
        raise BenchError("the gauge took no sample during a round")
    res = json.loads(out.strip().splitlines()[-1])
    res["ref_s"] = gauge.samples
    return res


def reference_speed_round_s(rounds: list[dict], exponent: float = 1.0) -> float:
    """The mean time of a round, scaled by (REF_S over the mean time of the
    gauge kernel during the rounds) to the power `exponent`.

    The machine's speed drifts by up to 2x over seconds to minutes, and the
    program's operations slow with the gauge kernel: averaged over a run,
    the ratio of the two held within a few per cent while each alone varied
    by tens of per cent (README.md)."""
    round_s = statistics.fmean(sum(r["op_s"]) for r in rounds)
    ref_s = statistics.fmean(t for r in rounds for t in r["ref_s"])
    return round_s * (REF_S / ref_s) ** exponent


def reference_speed_setup_s(probes: list[list[float]]) -> float:
    """The median set-up time, each scaled by REF_S over the gauge sample
    taken just before it."""
    return statistics.median(setup_s * REF_S / ref_s for ref_s, setup_s in probes)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    setup, plain, traced = [], [], []
    if not args.trace:
        launch(["--probe"], deadline)  # warm-up: the first import may compile bytecode
    busy = 0.0
    while not plain or busy < args.seconds:
        if not args.trace:
            # Probes spread over the run see the machine's slow and fast phases alike.
            setup += probe_setup(deadline, PROBES_PER_ROUND)
        t0 = time.perf_counter()
        plain.append(run_round(args, len(plain), 0, deadline))
        if args.trace:
            traced.append(run_round(args, len(traced), 1, deadline))
        busy += time.perf_counter() - t0
    if not args.trace:
        setup += probe_setup(deadline, PROBES_AFTER)
    exponent = GAUGE_EXPONENT.get(args.workload, 1.0)
    run_s = reference_speed_round_s(plain, exponent)
    if args.trace:
        metrics = worker.layer_metrics(traced)
        metrics["trace.overhead_s"] = metric(reference_speed_round_s(traced, exponent) - run_s, "s")
    else:
        metrics = {
            "setup_s": metric(reference_speed_setup_s(setup), "s"),
            "run_s": metric(run_s, "s"),
            "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in plain), "MB"),
            "ops_per_s": metric(len(plain[0]["op_s"]) / run_s, "1/s"),
        }
    rounds = plain + traced
    verdicts = {}  # label -> exit status -> count
    for r in rounds:
        for label, code in r["verdicts"]:
            tally = verdicts.setdefault(label, {})
            tally[str(code)] = tally.get(str(code), 0) + 1
    record = {
        "workload": args.workload,
        "cpu": args.cpu,
        "provenance": plain[0]["provenance"],
        "verdicts": verdicts,
        "op_s": {"plain": [r["op_s"] for r in plain], "traced": [r["op_s"] for r in traced]},
        "ref_s": {"plain": [r["ref_s"] for r in plain], "traced": [r["ref_s"] for r in traced]},
        "setup_ref_and_s": setup,
        "messages": [m for r in rounds for m in r["messages"]],
    }
    result = {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cliffdesigns" / "cli.py").is_file():
        print(f"error: no cliffdesigns sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Workers inherit these, and the gauge's numpy reads them at import.
    os.environ.update({v: str(THREADS) for v in THREAD_VARS})
    args.cpu = pin_to_one_cpu()
    try:
        record, result = measure(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
