"""One round of one workload in a fresh process.

    python3 perfbench/worker.py --workload clifford-mc --seed 1 --round 0 --trace 0
    python3 perfbench/worker.py --probe

Imports numpy and the program from the checkout's `src`, prints "ready",
then runs, times and checks every operation of the round and prints one
JSON line. `--probe` stops after "ready"; run.py times that line to
measure set-up. The caller pins the BLAS/OpenMP thread count through the
environment before this process starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("f2lin", "pauli", "clifford", "stabrep", "designs", "fiducial", "moments", "cli")

# Functions wrapped in the traced run, with the statistics reported for each
# as `<module>.<function>.<stat>`. "work" is reported under the name given
# in WORK.
TRACED = {
    "f2lin": {"random_symplectic": ("calls", "self_s"), "fixed_dim_histogram": ("self_s",),
              "maximal_isotropic_subspaces": ("self_s",), "enumerate_sp": ("self_s",)},
    "pauli": {"pauli_matrix": ("calls", "self_s"),
              "characteristic_function": ("calls", "self_s", "work"),
              "ell4_norm4": ("self_s",), "alpha_plus_batch": ("self_s", "work")},
    "clifford": {"lift_symplectic": ("calls", "self_s"), "random_clifford": ("self_s",),
                 "extract_action": ("calls", "self_s"), "clifford_trace_check": ("self_s",),
                 "projective_clifford_unitaries": ("self_s",)},
    "stabrep": {"dimension_table": ("self_s",), "orbit_counting_dims": ("self_s",),
                "sp_multiplicity_sum": ("self_s",), "clifford_frame_potential": ("self_s",)},
    "designs": {"orbit_frame_potential": ("self_s",), "design_report": ("calls", "self_s"),
                "epsilon": ("calls", "self_s")},
    "fiducial": {"singer_eigenstates": ("self_s",), "singer_epsilon_table": ("self_s",),
                 "tensor_completion": ("self_s",), "weighted_two_orbit": ("self_s",),
                 "bisection_root": ("self_s",)},
    "moments": {"mc_moment_report": ("self_s",), "concentration_report": ("self_s",)},
    "cli": {"main": ("self_s",)},
}
WORK = {
    "pauli.alpha_plus_batch": ("rows", lambda args, kwargs: len(args[0])),
    "pauli.characteristic_function": ("amplitudes", lambda args, kwargs: len(args[0])),
}
GENERATORS = {"f2lin.enumerate_sp"}


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    import numpy  # noqa: F401

    mods = {m: importlib.import_module(f"cliffdesigns.{m}") for m in MODULES}
    src = (ROOT / "src").resolve()
    if src not in Path(mods["cli"].__file__).resolve().parents:
        raise SystemExit(f"cliffdesigns was imported from {mods['cli'].__file__}, not {src}")
    return mods


def instrument(tracer, mods: dict) -> None:
    """Replace each traced function in every module namespace that binds it;
    clifford, designs and fiducial import functions by name."""
    for mod, funcs in TRACED.items():
        for fn in funcs:
            key = f"{mod}.{fn}"
            orig = getattr(mods[mod], fn)
            if key in GENERATORS:
                wrapped = tracer.wrap_generator(key, orig)
            else:
                wrapped = tracer.wrap(key, orig, WORK.get(key, (None, None))[1])
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
        "op_seed": "seed * 100000 + round * 100 + op index",
    }


def run_round(ops, tracer=None) -> dict:
    """Run and check every operation of one round, timing each."""
    import spans
    from workloads import CheckFailed

    op_s, wrong, errors, verdicts = [], [], [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            res = op.run()
        except (Exception, SystemExit) as err:  # an op that cannot finish has failed
            op_s.append(time.perf_counter() - t0)
            errors.append(f"{op.label}: {type(err).__name__}: {err}")
            continue
        op_s.append(time.perf_counter() - t0)
        if op.cli:
            verdicts.append((op.label, res[0]))
        try:
            op.check(res)
        except CheckFailed as err:
            wrong.append(f"{op.label}: {err}")
    out = {
        "op_s": op_s, "attempted": len(ops), "failed": len(wrong) + len(errors),
        "wrong": len(wrong), "messages": (wrong + errors)[:10], "verdicts": verdicts,
        "haar_states": sum(op.haar_states for op in ops),
    }
    if tracer is not None:
        recorded = tracer.drain()
        own = spans.self_times(recorded)
        # Spans nest inside the timed operations, so their self times cannot
        # add up to more than the round.
        if sum(own) > sum(op_s):
            raise RuntimeError(f"self times {sum(own)} s exceed the round's {sum(op_s)} s")
        out["layers"] = spans.layer_stats(recorded)
        out["bisect_epsilon_calls"] = spans.count_under(
            recorded, "designs.epsilon", "fiducial.bisection_root")
    return out


def layer_metrics(rounds: list[dict]) -> dict:
    """Per-layer metrics from traced rounds, each a mean per round."""
    def mean(get):
        return sum(get(r) for r in rounds) / len(rounds)

    def stat(key, s):
        return mean(lambda r: r["layers"].get(key, {}).get(s, 0))

    metrics = {}
    for mod, funcs in TRACED.items():
        for fn, stats in funcs.items():
            key = f"{mod}.{fn}"
            for s in stats:
                name = WORK[key][0] if s == "work" else s
                metrics[f"{key}.{name}"] = {"value": stat(key, s),
                                            "unit": "s" if s == "self_s" else "count"}
    states = mean(lambda r: r["haar_states"])
    metrics["pauli.alpha_plus_batch.rows_per_sample"] = {
        "value": stat("pauli.alpha_plus_batch", "work") / states if states else 0.0,
        "unit": "rows/sample"}
    metrics["fiducial.bisection_root.epsilon_calls"] = {
        "value": mean(lambda r: r["bisect_epsilon_calls"]), "unit": "count"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--round", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = import_program()
    print("ready", flush=True)
    if args.probe:
        return 0

    import spans
    import workloads

    files = workloads.write_state_files(ROOT / ".bench_build" / "perfbench")
    ops = workloads.WORKLOADS[args.workload](SimpleNamespace(**mods), files, args.seed, args.round)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        instrument(tracer, mods)
    res = run_round(ops, tracer)
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    res["provenance"] = provenance(args.seed)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
