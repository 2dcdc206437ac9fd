"""Fit-by-fit parity of two ordshift trees over the benchmark's input pools.

    python tools/parity.py digest --seed 1 --out head.jsonl
    python tools/parity.py digest --seed 1 --ref HEAD~1 --out parent.jsonl
    python tools/parity.py compare parent.jsonl head.jsonl

``digest`` runs one operation per item of each workload's seed-N pool, as
``bench/workloads.py`` defines them (read, never edited), and writes one JSON
line per fit, per likelihood-ratio test and per output file of that
operation. A fit line holds the workload, item, spec, iterations,
``converged``, warnings, SE mask, and params, deviance and covariance as
float hex (reading a fit's covariance computes it, which the workloads
themselves may never do), so two digests of one tree are byte-identical and two of
different trees can be compared to the last bit. ``--ref`` digests a commit
of this repository instead, unpacked with ``git archive`` into a temporary
directory that is removed afterwards, so nothing is left in ``.git``.

``compare`` matches the lines of two digests by workload, item, spec and
occurrence, and reports per field the bit-identical count, the largest
difference and the line (workload, item, spec) that holds it: relative
|a - b| / (1 + |a|) for params and LR statistics, relative |a - b| / |a|
for deviances and p-values, and covariance differences relative to the
largest |entry|; a second occurrence of a spec is named with #1, and so on.
It counts iteration differences and ``converged`` flips in each direction.
Its exit status is 0 when every field of every matched line is
bit-identical and no line is unmatched, 1 otherwise.

numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder-survey-20k", "sim-small", "cli-synthetic")


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _spec_key(spec) -> str:
    family = spec.family.kind + ("-reverse" if spec.family.reverse else "")
    terms = [" + ".join(str(t) for t in side) for side in (spec.location, spec.dispersion)]
    return f"{family} {spec.structure} ~ {terms[0]} | {terms[1]}"


def _test_fields(test) -> dict:
    return {"statistic": float(test.statistic).hex(), "df": int(test.df),
            "p_value": float(test.p_value).hex()}


@contextlib.contextmanager
def _recorded(qualname: str, calls: list):
    """Replace ordshift function ``qualname`` ("module.name") at every
    ordshift module attribute that refers to it by a wrapper appending
    (args, kwargs, result) to ``calls``; put the original back on exit."""
    module, name = qualname.split(".")
    original = getattr(sys.modules[f"ordshift.{module}"], name)

    def wrapper(*args, **kwargs):
        call = [args, kwargs, None]
        calls.append(call)
        try:
            call[2] = original(*args, **kwargs)
        except Exception as exc:
            call[2] = exc
            raise
        return call[2]

    sites = [(m, attr) for key, m in list(sys.modules.items())
             if key == "ordshift" or key.startswith("ordshift.")
             for attr, value in vars(m).items() if value is original]
    for m, attr in sites:
        setattr(m, attr, wrapper)
    try:
        yield calls
    finally:
        for m, attr in sites:
            setattr(m, attr, original)


def _fit_line(spec, result) -> dict:
    line = {"spec": _spec_key(spec)}
    if isinstance(result, Exception):
        line["error"] = f"{type(result).__name__}: {result}"
        return line
    line.update(iterations=int(result.iterations), converged=bool(result.converged),
                warnings=list(result.warnings),
                se_mask=[bool(b) for b in result.se_unavailable],
                deviance=float(result.deviance).hex(), params=_hex(result.params),
                covariance=_hex(result.covariance.ravel()))
    return line


def _item_lines(name: str, item: int, op, data) -> list:
    """The digest lines of one operation on one pool item."""
    fits, ladders = [], []
    with _recorded("fit.fit", fits), _recorded("inference.model_ladder", ladders):
        outputs = op(data)
    lines, seen = [], defaultdict(int)
    for args, kwargs, result in fits:
        line = _fit_line(kwargs["spec"] if "spec" in kwargs else args[0], result)
        line.update(kind="fit", occurrence=seen[line["spec"]])
        seen[line["spec"]] += 1
        lines.append(line)
    for index, (_, _, table) in enumerate(ladders):
        if isinstance(table, Exception):
            continue
        for row in table.rows:
            if row.test is not None:
                lines.append(dict(kind="test", spec=f"ladder {index} {table.family}"
                                  f"{'-reverse' if table.reverse else ''} {row.structure}",
                                  occurrence=0, **_test_fields(row.test)))
    for family, tests in outputs.get("smooth", ()):
        if isinstance(tests, dict):
            for label, test in sorted(tests.items()):
                lines.append(dict(kind="test", spec=f"smooth {family.kind} {label}",
                                  occurrence=0, **_test_fields(test)))
        else:
            lines.append(dict(kind="test", spec=f"smooth {family.kind}", occurrence=0,
                              error=f"{type(tests).__name__}: {tests}"))
    out = outputs.get("out")
    if out is not None:
        for path in sorted(Path(out).iterdir()):
            lines.append(dict(kind="file", spec=path.name, occurrence=0,
                              sha256=hashlib.sha256(path.read_bytes()).hexdigest()))
    for line in lines:
        line.update(workload=name, item=item)
    return lines


def digest(workloads=WORKLOADS, seed: int = 1, pool_size: int | None = None,
           root: Path = ROOT) -> str:
    """The digest of the tree at ``root`` over one operation per item of
    each workload's seed-``seed`` pool, as JSON lines; ``pool_size`` cuts
    the pools of workloads whose pool function takes a size (sim-small).
    It runs in this process, so ordshift must not already be imported from
    another tree."""
    for path in (root / "bench", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads as bench

    text = io.StringIO()
    for name in workloads:
        make_pool, op = bench.WORKLOADS[name]
        sized = pool_size is not None and "size" in inspect.signature(make_pool).parameters
        pool = make_pool(seed, size=pool_size) if sized else make_pool(seed)
        for item, data in enumerate(pool):
            for line in _item_lines(name, item, op, data):
                text.write(json.dumps(line, sort_keys=True) + "\n")
    return text.getvalue()


def _digest_tree(root: Path, args) -> str:
    """digest() of the tree at ``root``, in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "digest", "--root", str(root),
            "--seed", str(args.seed)]
    for name in args.workload or ():
        argv += ["--workload", name]
    return subprocess.run(argv, check=True, capture_output=True, text=True).stdout


def _digest_ref(ref: str, args) -> str:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        return _digest_tree(Path(tmp), args)


# --- compare ----------------------------------------------------------------


def keyed(text: str) -> dict:
    """The lines of a digest by (workload, item, kind, spec, occurrence)."""
    lines = {}
    for line in map(json.loads, text.splitlines()):
        lines[line["workload"], line["item"], line["kind"], line["spec"], line["occurrence"]] = line
    return lines


def _floats(values) -> list:
    return [float.fromhex(v) for v in values]


class _Field:
    """Bit-identical count and largest difference of one field, and the key
    of the line that holds that difference."""

    def __init__(self, name: str):
        self.name, self.count, self.same, self.worst, self.where = name, 0, 0, 0.0, None

    def add(self, key: tuple, a, b, difference) -> None:
        self.count += 1
        if a == b:
            self.same += 1
            return
        if self.where is None or difference > self.worst:
            self.where, self.worst = key, max(self.worst, difference)

    def row(self) -> str:
        row = f"{self.name:<14} {self.same:>6}/{self.count:<6} {self.worst:.3g}"
        if self.where is None:
            return row
        workload, item, _, spec, occurrence = self.where
        line = f"{row} at {workload} item {item}: {spec}"
        return f"{line} #{occurrence}" if occurrence else line


def _relative_to_one(a: list, b: list) -> float:
    return max((abs(x - y) / (1.0 + abs(x)) for x, y in zip(a, b)), default=0.0)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(a) if a else (0.0 if a == b else math.inf)


def compare(first: dict, second: dict) -> tuple:
    """(report lines, whether every matched field is bit-identical and no
    line is unmatched)."""
    fields = {name: _Field(name) for name in (
        "params", "deviance", "covariance", "se_mask", "warnings", "error",
        "statistic", "df", "p_value", "sha256")}
    iterations = _Field("iterations")
    flips = {"true->false": 0, "false->true": 0}
    for key in sorted(first.keys() & second.keys(), key=str):
        a, b = first[key], second[key]
        if "error" in a or "error" in b:
            fields["error"].add(key, a.get("error"), b.get("error"), math.inf)
            continue
        if key[2] == "fit":
            pa, pb = _floats(a["params"]), _floats(b["params"])
            fields["params"].add(key, pa, pb, _relative_to_one(pa, pb) if len(pa) == len(pb)
                                 else math.inf)
            da, db = float.fromhex(a["deviance"]), float.fromhex(b["deviance"])
            fields["deviance"].add(key, da, db, _relative(da, db))
            ca, cb = _floats(a["covariance"]), _floats(b["covariance"])
            scale = max((abs(x) for x in ca), default=0.0)
            fields["covariance"].add(key, ca, cb, max(
                (abs(x - y) for x, y in zip(ca, cb)), default=0.0) / (scale or 1.0)
                if len(ca) == len(cb) else math.inf)
            fields["se_mask"].add(key, a["se_mask"], b["se_mask"], 1.0)
            fields["warnings"].add(key, a["warnings"], b["warnings"], 1.0)
            iterations.add(key, a["iterations"], b["iterations"],
                           abs(a["iterations"] - b["iterations"]))
            if a["converged"] != b["converged"]:
                flips["true->false" if a["converged"] else "false->true"] += 1
        elif key[2] == "test":
            sa, sb = float.fromhex(a["statistic"]), float.fromhex(b["statistic"])
            fields["statistic"].add(key, sa, sb, _relative_to_one([sa], [sb]))
            fields["df"].add(key, a["df"], b["df"], abs(a["df"] - b["df"]))
            va, vb = float.fromhex(a["p_value"]), float.fromhex(b["p_value"])
            fields["p_value"].add(key, va, vb, _relative(va, vb))
        else:
            fields["sha256"].add(key, a["sha256"], b["sha256"], 1.0)
    only = (len(first.keys() - second.keys()), len(second.keys() - first.keys()))
    report = [f"matched lines: {len(first.keys() & second.keys())}; "
              f"only in the first: {only[0]}; only in the second: {only[1]}",
              f"{'field':<14} {'identical':>13} largest difference"]
    report += [f.row() for f in (*fields.values(), iterations) if f.count]
    report.append(f"converged flips: true->false {flips['true->false']}, "
                  f"false->true {flips['false->true']}")
    identical = (not any(only) and not any(flips.values())
                 and all(f.same == f.count for f in (*fields.values(), iterations)))
    return report, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    make = commands.add_parser("digest", help="digest one operation per pool item")
    make.add_argument("--workload", action="append", choices=WORKLOADS,
                      help="a workload to digest (repeatable; default: all)")
    make.add_argument("--seed", type=int, default=1)
    make.add_argument("--ref", help="digest this git commit of the repository instead")
    make.add_argument("--root", type=Path, default=ROOT, help="digest the tree at this path")
    make.add_argument("--out", type=Path, help="write here instead of stdout")
    check = commands.add_parser("compare", help="compare two digests")
    check.add_argument("first", type=Path)
    check.add_argument("second", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        report, identical = compare(*(keyed(path.read_text(encoding="utf-8"))
                                      for path in (args.first, args.second)))
        print("\n".join(report))
        return 0 if identical else 1
    if args.ref is not None:
        text = _digest_ref(args.ref, args)
    else:
        text = digest(args.workload or WORKLOADS, args.seed, root=args.root.resolve())
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
