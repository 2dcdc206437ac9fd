"""ordshift benchmark: one workload, one seed, a closed loop for --seconds.

    python3 bench/run.py --workload sim-small --seed 1 --seconds 20 --trace 0

One process and one caller: each operation starts when the previous one has
ended, on one thread, BLAS included. Operations are timed in process CPU time.
Inputs are made from --seed before anything is timed. Every operation is
checked (outside its timing); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Records of each run and the spans of traced runs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NEEDED = (SRC / "ordshift" / "__init__.py", ROOT / "tests" / "data" / "synthetic.csv",
          ROOT / "tests" / "golden" / "report.txt", ROOT / "tests" / "golden" / "star.svg")
NPROC = len(os.sched_getaffinity(0))
# BLAS runs on one thread. With two BLAS threads on a shared 2-core machine,
# ladder-survey-20k's op_p50_s spread 0.25 (IQR over median of ten runs) in
# wall time, against 0.09 on one thread in CPU time, and an operation took
# 25-34 s instead of 7 s with two busy processes beside it: the threads
# waited on each other.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed for setup_s besides this process: fewer for the
# workload whose cold operation takes seconds.
SETUP_PROBES = {"ladder-survey-20k": 1, "sim-small": 4, "cli-synthetic": 4}
# Whether a workload's operation times are scaled to the reference speed
# (SpeedReference). The rule is fixed per workload, so a faster program does
# not change it. The ladder's operations of seconds outlast the speed spells,
# and the reference, which fits in cache, does not track its memory-bound
# kernel: scaled by it, op_p50_s of five runs spread 0.14 (IQR over median)
# against 0.08 unscaled, so they are reported as measured.
SCALED = {"ladder-survey-20k": False, "sim-small": True, "cli-synthetic": True}
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
REFERENCE_S = 0.009  # SpeedReference.time() on the machine of the committed baseline
GAP_FLOOR = 0.01  # least tolerance of the span-coverage check


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_PROBES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def thread_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def import_ordshift() -> dict:
    """Wall and CPU seconds to import ordshift (numpy included) from this checkout."""
    sys.path.insert(0, str(SRC))
    start, cpu_start = time.perf_counter(), time.process_time()
    import ordshift
    took = {"wall": time.perf_counter() - start, "cpu": time.process_time() - cpu_start}
    if Path(ordshift.__file__).resolve().parent != SRC / "ordshift":
        raise SystemExit(f"imported ordshift from {ordshift.__file__}, not from {SRC}")
    return took


def source_digest() -> str:
    """Digest of the program and the benchmark: counts are compared only
    between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ordshift").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def tail(values: list):
    """(value, percentile): the largest sample with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class SpeedReference:
    """A fixed task of pure Python and small numpy calls, none of them
    ordshift's, timed in CPU time before and after every operation of a
    SCALED workload.

    Operations are timed in process CPU time, which leaves out the time
    other processes, and the host under paravirtual steal accounting, take
    the CPU away: with two busy processes beside the benchmark on a shared
    2-core virtual machine, op_tail_s of sim-small read 0.216 s in wall time
    against 0.106 s with none, and 0.108 s against 0.107 s in scaled CPU
    time. The CPU speed itself swings by up to 1.5x in spells of seconds, in
    CPU time as well as wall time, which 30 s runs do not average out. Every
    operation of a SCALED workload is therefore reported at the reference
    machine's speed: CPU time * REFERENCE_S / (the mean of the two
    bracketing reference CPU times). The reference runs right after an
    operation, so it also sees what the operation leaves behind (caches).
    Wall times and CPU times stay in the run record.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.normal(size=(200, 9, 9))
        self.b = rng.normal(size=(200, 9, 20))
        self.v = rng.normal(size=5000)

    def time(self) -> float:
        np, a, b, v = self.np, self.a, self.b, self.v
        start = time.process_time()
        total = 0
        for i in range(3000):
            total += i * i % 7
        for _ in range(20):
            np.matmul(a, b)
            np.einsum("nrs,nsp->nrp", a, b)
            np.exp(v[:500]).sum()
        return time.process_time() - start


class Runner:
    """The closed loop over one workload's pool, with its checks."""

    def __init__(self, workload: str, seed: int, traced: bool):
        import spans
        import workloads

        make_pool, self.op = workloads.WORKLOADS[workload]
        self.workloads = workloads
        self.pool = make_pool(seed)
        self.log = spans.FitLog()
        self.tracer = spans.Tracer() if traced else None
        self.instrument = spans.Instrument(self.log, self.tracer)
        self.reference = workloads.golden_reference()
        self.first = {}  # pool index -> summary of the first fits made on it
        self.unchecked = {}  # pool index -> those fits, for check_first_fits
        self.ops = []  # one dict per operation, in order
        self.speed_task = SpeedReference() if SCALED[workload] else None
        if self.speed_task is not None:
            self.last_speed = self.speed_task.time()

    def run_op(self, traced: bool = False, check: bool = True, slot: int | None = None) -> dict:
        index = len(self.ops)
        slot = index % len(self.pool) if slot is None else slot
        item = self.pool[slot]
        self.log.reset()
        if self.tracer is not None:
            self.tracer.op = index if traced else -1
        outputs, problems = None, []
        with self.instrument(traced):
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                outputs = self.op(item)
            except Exception as exc:  # an operation that raises is a failed operation
                problems.append(f"raised {type(exc).__name__}: {exc}")
                traceback.print_exc()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        took = cpu
        if self.speed_task is not None:
            after = self.speed_task.time()
            took = cpu * REFERENCE_S / ((self.last_speed + after) / 2.0)
            self.last_speed = after
        fits, ladders = self.log.fits, self.log.ladders
        if outputs is not None and check:
            if slot not in self.first:
                self.unchecked[slot] = fits
            problems += self.workloads.check_op(outputs, fits, ladders, self.reference,
                                                self.first, slot)
        for problem in problems:
            print(f"op {index} failed: {problem}", file=sys.stderr)
        record = {
            "index": index, "slot": slot, "traced": traced, "wall": wall, "cpu": cpu, "time": took,
            "failed": bool(problems),
            "fits": len(fits),
            "converged": sum(1 for _, _, r in fits if r is not None and r.converged),
            "iterations": sum(r.iterations for _, _, r in fits if r is not None),
            "tensor_bytes": max((r.n * (r.k - 1) * r.n_params * 8 for _, _, r in fits if r is not None),
                                default=0),
        }
        if index < len(self.pool):  # the counting window keeps its ladder fits
            data_of = {id(r): data for _, data, r in fits if r is not None}
            record["ladder_results"] = [(data_of[id(row.fit)], row.fit) for table in ladders
                                        for row in table.rows if row.ok]
        self.ops.append(record)
        return record

    def check_first_fits(self) -> None:
        """The intrinsic checks of the first fits on each input, run after
        the loop so that peak_rss_mb leaves out their work. Every operation
        on an input whose first fits fail them fails: a repeat that matched
        those fits made the same ones."""
        for slot, fits in self.unchecked.items():
            problems = self.workloads.check_fits(fits)
            for problem in problems:
                print(f"input {slot} failed: {problem}", file=sys.stderr)
            if problems:
                for op in self.ops:
                    op["failed"] = op["failed"] or op["slot"] == slot
        self.unchecked = {}

    @property
    def window(self) -> list:
        """The first pass over the pool: the same work on every run of a seed."""
        return self.ops[: len(self.pool)]


def probe(args) -> int:
    imported = import_ordshift()
    sys.path.insert(0, str(ROOT / "bench"))
    runner = Runner(args.workload, args.seed, traced=False)
    record = runner.run_op(check=False)
    print(json.dumps({"setup_s": imported["cpu"] + record["cpu"], "failed": record["failed"]}))
    return 0


def setup_samples(args, count: int) -> list:
    """CPU time of import + cold operation, each in a fresh interpreter; not
    scaled, as a fresh interpreter has no reference samples yet."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, env=thread_env(), capture_output=True, text=True, timeout=100,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"]:
            raise RuntimeError("the setup probe's cold operation raised")
        samples.append(result["setup_s"])
    return samples


def check_siblings(key: str, counts: dict) -> bool:
    """Compare exact counts with earlier runs of the same seed and program."""
    path = OUT / "counts" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            print(f"FLAG: exact counts differ from a sibling run: {earlier} != {counts}", file=sys.stderr)
            return False
        return True
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def end_to_end(args, runner: Runner, imported: dict, rss_mb: float) -> dict:
    """The untraced run's end-to-end metrics."""
    warm = runner.ops[1:]
    times = [op["time"] for op in warm]
    tail_s, tail_pct = tail(times)
    window = runner.window
    fits = sum(op["fits"] for op in window)
    setups = [imported["cpu"] + runner.ops[0]["cpu"]] + setup_samples(args, SETUP_PROBES[args.workload])
    print(f"op_tail_s is p{tail_pct:.1f} of {len(times)} warm operations; "
          f"setup_s is the median of {len(setups)} fresh interpreters; "
          f"warm median wall time {statistics.median(op['wall'] for op in warm):.6g} s")
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "fits_per_s": sum(op["fits"] for op in warm) / sum(times),
        "peak_rss_mb": rss_mb,
        "ok_frac": sum(not op["failed"] for op in runner.ops) / len(runner.ops),
        "converged_frac": sum(op["converged"] for op in window) / fits,
    }, {"converged_frac": sum(op["converged"] for op in window) / fits}


def per_layer(runner: Runner, import_s: float):
    """The traced run's per-layer metrics, its exact counts and the
    span-coverage check."""
    import spans
    from ordshift.fit import fisher_info

    summary = runner.tracer.summarize()
    traced = [op for op in runner.ops if op["traced"]]
    per_op = [summary[op["index"]] for op in traced]
    metrics = {"ordshift.import_s": import_s}
    for name in spans.TRACED:
        metrics[f"{name}.self_s"] = statistics.median(rec["self"].get(name, 0.0) for rec in per_op)

    window = runner.window
    counted = [summary[op["index"]] for op in window]
    n_ops = len(window)
    calls = {name: sum(rec["calls"].get(name, 0) for rec in counted) for name in spans.TRACED}
    fits = calls[spans.FIT]
    iterations = sum(op["iterations"] for op in window)
    probs_in_fit = sum(rec["under"].get((spans.FIT, spans.PROBS), 0) for rec in counted)
    fits_in_ladder = sum(rec["under"].get((spans.LADDER, spans.FIT), 0) for rec in counted)
    counts = {
        "fit.calls": fits / n_ops,
        "fit.iterations": iterations / n_ops,
        "fit.iters_per_fit": iterations / fits,
        "links.probs_per_iter": (probs_in_fit - fits) / iterations,
        "inference.fits_per_ladder": fits_in_ladder / calls[spans.LADDER] if calls[spans.LADDER] else 0.0,
        "design.tensor_mb": max(op["tensor_bytes"] for op in window) / 1e6,
        "converged_frac": sum(op["converged"] for op in window) / sum(op["fits"] for op in window),
    }
    metrics.update({k: v for k, v in counts.items() if k != "converged_frac"})
    for name in ("design.expand_design", "splines.bspline_basis", "links.category_probs"):
        metrics[f"{name}.calls"] = calls[name] / n_ops

    for structure in ("global", "locshift", "catspec"):
        times = []
        for op in window:
            for data, result in op["ladder_results"]:
                if result.structure == structure:
                    start = time.perf_counter()
                    fisher_info(result.params, data, result.spec)
                    times.append(time.perf_counter() - start)
        metrics[f"fit.fisher_info.{structure}_s"] = spans.median_or_zero(times)

    # traced and untraced operations alternate after the counting window
    paired = runner.ops[len(runner.pool):]
    on = [op["time"] for op in paired if op["traced"]]
    off = [op["time"] for op in paired if not op["traced"]]
    overhead = statistics.median(on) / statistics.median(off) - 1.0
    metrics["trace.overhead_frac"] = overhead

    wall = sum(op["wall"] for op in traced)
    covered = sum(rec["covered"] for rec in per_op)
    gap = (wall - covered) / wall
    coverage_ok = 0.0 <= gap <= max(overhead, GAP_FLOOR)
    print(f"top-level spans cover {covered:.6f} s of {wall:.6f} s traced operation time "
          f"(gap {gap:.2e}, allowed {max(overhead, GAP_FLOOR):.2e})")
    if not coverage_ok:
        print("FLAG: top-level span times do not add up to the operation wall time", file=sys.stderr)
    return metrics, counts, coverage_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.exists()]
    if missing:
        print(f"error: this is not an ordshift checkout; missing {missing}", file=sys.stderr)
        return 2
    os.environ.update(thread_env())
    os.environ.pop("ORDSHIFT_MAX_ITER", None)  # the CLI's iteration cap stays at its default
    if args.probe:
        return probe(args)

    imported = import_ordshift()
    sys.path.insert(0, str(ROOT / "bench"))
    OUT.mkdir(exist_ok=True)
    traced = bool(args.trace)
    runner = Runner(args.workload, args.seed, traced)
    facts = machine()

    # counting window: one pass over the pool, traced in a traced run
    while len(runner.ops) < len(runner.pool):
        runner.run_op(traced)
    # then operations until the next one would overrun --seconds of operation
    # time, at least two warm ones, or one traced pair in a traced run
    spent = sum(op["wall"] for op in runner.ops[1:])
    step = runner.ops[-1]["wall"] * (2 if traced else 1)
    least = len(runner.pool) + 2 if traced else 3
    while spent + step <= args.seconds or len(runner.ops) < least:
        if traced:
            # a pair runs one pool item traced and untraced, in alternating order
            pair = (len(runner.ops) - len(runner.pool)) // 2
            slot, first = pair % len(runner.pool), pair % 2 == 0
            step = (runner.run_op(first, slot=slot)["wall"]
                    + runner.run_op(not first, slot=slot)["wall"])
        else:
            step = runner.run_op()["wall"]
        spent += step
    # peak memory of the operations, before the intrinsic checks rebuild designs
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    runner.check_first_fits()

    if traced:
        metrics, counts, coverage_ok = per_layer(runner, imported["wall"])
        runner.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics, counts = end_to_end(args, runner, imported, rss_mb)
        coverage_ok = True
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}-{source_digest()}"
    counts_ok = check_siblings(key, counts)

    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if traced else "end_to_end"]}
    attempted = len(runner.ops)
    failed = sum(op["failed"] for op in runner.ops)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "counts": counts, "op_walls": [op["wall"] for op in runner.ops],
        "op_cpu": [op["cpu"] for op in runner.ops], "op_time": [op["time"] for op in runner.ops],
        "metrics": metrics,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(f"machine: {json.dumps(facts)}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and counts_ok and coverage_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
