"""Self-check of the benchmark at tiny sizes: every check fires on a
deliberately corrupted output, and every metric of BENCHMARK.json is emitted
with its unit.

    python3 bench/selfcheck.py

Exits 0 when all pass. It writes only under ``.bench_out/selfcheck``.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_ordshift()
run.OUT = run.OUT / "selfcheck"
run.OUT.mkdir(parents=True, exist_ok=True)

import spans  # noqa: E402
import workloads  # noqa: E402
from ordshift.exceptions import NestingError  # noqa: E402
from ordshift.fit import log_likelihood  # noqa: E402

RESULTS = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))


def fires(problems: list, needle: str) -> bool:
    return any(needle in p for p in problems)


def check_fit_and_ladder() -> None:
    data = workloads.sim_pool(seed=7, n=300, size=1)[0]
    log = spans.FitLog()
    with spans.Instrument(log, None)(False):
        out = workloads.sim_op(data)
    fits, ladders = log.fits, log.ladders
    first = {}
    clean = workloads.check_op(out, fits, ladders, {}, first, 0) + workloads.check_fits(fits)
    expect("a clean sim-small operation passes every check", not clean, "; ".join(clean))
    again = workloads.check_op(out, fits, ladders, {}, first, 0)
    expect("an identical repeat passes", not again, "; ".join(again))
    drifted = [list(f) for f in fits]
    drifted[0][2] = dataclasses.replace(drifted[0][2], deviance=drifted[0][2].deviance + 1e-3)
    problems = workloads.check_op(out, drifted, ladders, {}, first, 0)
    expect("repeat check fires when a repeat's deviance moves by 1e-3",
           fires(problems, "differ from the first operation"), "; ".join(problems))

    spec, data, result = next(f for f in fits if f[2].converged)
    bad = dataclasses.replace(result, deviance=result.deviance * (1 + 1e-6))
    problems = workloads.check_fit(spec, data, bad)
    expect("deviance check fires on a deviance off by 1e-6",
           fires(problems, "!= -2*loglik") and not fires(problems, "score"), "; ".join(problems))

    params = result.params.copy()
    params[-1] += 0.05
    moved = dataclasses.replace(result, params=params, deviance=-2.0 * log_likelihood(params, data, spec))
    problems = workloads.check_fit(spec, data, moved)
    expect("score check fires on perturbed params",
           fires(problems, "max |score|") and not fires(problems, "loglik"), "; ".join(problems))

    family = out["smooth"][0][0]
    refused = {"smooth": [(family, NestingError("both fits must have converged"))]}
    problems = workloads.check_op(refused, fits, [], {}, {}, 0)
    expect("a refused smooth test with every fit converged is a failure",
           fires(problems, "smooth_term_tests raised"), "; ".join(problems))
    unconverged = [[s, d, dataclasses.replace(r, converged=False) if s.family == family else r]
                   for s, d, r in fits]
    problems = workloads.check_op(refused, unconverged, [], {}, {}, 0)
    expect("a refused smooth test after a non-converged fit is an outcome", not problems,
           "; ".join(problems))

    table = copy.deepcopy(ladders[0])
    catspec, locshift = table.row("catspec"), table.row("locshift")
    catspec.fit = dataclasses.replace(catspec.fit, deviance=locshift.fit.deviance + 1e-3)
    problems = workloads.check_ladder(table)
    expect("nesting check fires when catspec deviance exceeds locshift",
           fires(problems, "catspec deviance"), "; ".join(problems))


def check_cli_outputs() -> None:
    out = workloads.cli_pool(seed=0)[0]
    reference = workloads.golden_reference()
    outputs = workloads.cli_op(out)
    clean = workloads.check_op(outputs, [], [], reference, {}, 0)
    expect("a clean cli-synthetic operation matches the goldens", not clean, "; ".join(clean))
    for name in workloads.CLI_FILES:
        workloads.cli_op(out)
        path = out / name
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        problems = workloads.check_files(out, reference)
        expect(f"byte check fires on one flipped byte of {name}",
               problems == [f"{name} differs from the reference bytes"], "; ".join(problems))
    problems = workloads.check_files(out, reference)  # the last check removed every file
    expect("missing outputs are failures", len(problems) == len(workloads.CLI_FILES))
    problems = workloads.check_op({"exit_codes": [0, 3]}, [], [], reference, {}, 0)
    expect("a nonzero CLI exit is a failure", fires(problems, "cli exited 3"), "; ".join(problems))


def check_runner_and_counts() -> None:
    runner = run.Runner("cli-synthetic", 1, traced=False)
    runner.op = lambda item: 1 / 0
    with contextlib.redirect_stderr(io.StringIO()):
        record = runner.run_op()
    expect("an operation that raises is a failed operation", record["failed"])

    workloads.WORKLOADS["tiny-sim"] = (lambda seed: workloads.sim_pool(seed, n=300, size=1),
                                       workloads.sim_op)
    run.SCALED["tiny-sim"] = True
    runner = run.Runner("tiny-sim", 7, traced=False)
    for _ in range(2):
        runner.run_op()
    spec, data, result = runner.unchecked[0][0]
    runner.unchecked[0][0] = [spec, data, dataclasses.replace(result, deviance=result.deviance + 1e-3)]
    clean = not any(op["failed"] for op in runner.ops)
    with contextlib.redirect_stderr(io.StringIO()):
        runner.check_first_fits()
    expect("the deferred intrinsic checks fail every operation on an input whose first fits fail",
           clean and all(op["failed"] for op in runner.ops))
    del workloads.WORKLOADS["tiny-sim"], run.SCALED["tiny-sim"]

    key = "selfcheck-siblings"
    (run.OUT / "counts" / f"{key}.json").unlink(missing_ok=True)
    first = run.check_siblings(key, {"fit.calls": 12.0})
    same = run.check_siblings(key, {"fit.calls": 12.0})
    with contextlib.redirect_stderr(io.StringIO()):
        differ = run.check_siblings(key, {"fit.calls": 12.0625})
    expect("sibling runs with equal counts pass and differing counts are flagged",
           first and same and not differ)

    value, pct = run.tail([float(i) for i in range(1, 26)])
    expect("tail is the sample with ten beyond it", value == 15.0 and pct == 60.0, f"{value} p{pct}")
    expect("tail of too few samples is the maximum", run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0))


def emitted(argv: list) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    assert code == 0, code
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tiny = {
        "ladder-survey-20k": (lambda seed: workloads.survey_pool(seed, n=1500), workloads.survey_op),
        "sim-small": (lambda seed: workloads.sim_pool(seed, n=300, size=3), workloads.sim_op),
        "cli-synthetic": workloads.WORKLOADS["cli-synthetic"],
    }
    workloads.WORKLOADS.update(tiny)
    run.SETUP_PROBES = {name: 1 if name == "cli-synthetic" else 0 for name in run.SETUP_PROBES}
    for workload in tiny:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = emitted(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                              "--trace", str(trace)])
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                         for m in result["metrics"].values())
            expect(f"{workload} --trace {trace} emits every {kind} metric with its unit",
                   got == want and finite and result["correct"] and result["failed"] == 0,
                   f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")


def check_outside_checkout() -> None:
    """In a directory without the program the benchmark must fail cleanly."""
    scratch = run.OUT / "bare"
    (scratch / "bench").mkdir(parents=True, exist_ok=True)
    for path in Path(__file__).resolve().parent.glob("*.py"):
        (scratch / "bench" / path.name).write_bytes(path.read_bytes())
    (scratch / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sim-small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=170)
    expect("without the program it exits nonzero and prints no result",
           proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stderr.strip()[-200:])


def main() -> int:
    check_fit_and_ladder()
    check_cli_outputs()
    check_runner_and_counts()
    check_metrics()
    check_outside_checkout()
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
