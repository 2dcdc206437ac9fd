"""tools/parity.py: a digest is deterministic, and compare finds a difference."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_two_dataset_pool_is_repeatable():
    parity = _tool()
    first = parity.digest(("sim-small",), seed=1, pool_size=2)
    again = parity.digest(("sim-small",), seed=1, pool_size=2)
    assert first.encode() == again.encode()
    lines = [json.loads(line) for line in first.splitlines()]
    # per item: two ladders of three fits and two smooth tests of three
    # fits, the ladders' two LR tests apiece and the smooth tests' two
    fits = [line for line in lines if line["kind"] == "fit"]
    assert len(fits) == 2 * 12
    assert {line["item"] for line in lines} == {0, 1}
    assert sum(line["kind"] == "test" for line in lines) == 2 * 8
    first_lines = parity.keyed(first)
    report, identical = parity.compare(first_lines, dict(first_lines))
    assert identical, report
    # one ulp in one parameter of one fit is reported, and fails the check
    key = next(k for k, line in first_lines.items() if line["kind"] == "fit")
    changed = dict(first_lines[key])
    value = float.fromhex(changed["params"][0])
    changed["params"] = [(value + abs(value) * 2.0 ** -52).hex()] + changed["params"][1:]
    report, identical = parity.compare(first_lines, {**first_lines, key: changed})
    assert not identical
    # the params row names the changed fit's line
    workload, item, _, spec, occurrence = key
    assert occurrence == 0
    assert any(row.startswith("params") and "23/24" in row
               and row.endswith(f" at {workload} item {item}: {spec}") for row in report), report
    # and no row of a field without a difference names a line
    assert sum(" at " in row for row in report) == 1, report
