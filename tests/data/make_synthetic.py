"""Regenerate synthetic.csv, the bundled CLI end-to-end dataset.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_synthetic.py

The responses follow a cumulative location-shift model with dual
location/dispersion effects for age (in decades) and group, a
location-only effect for score, and seed 20250808; the committed CSV and
the golden report/star files depend on it byte for byte. The first three
rows are swapped to carry group levels a, b, c in that order so the
first-seen dummy coding is stable regardless of the draw.
"""

import csv
import pathlib

import numpy as np

from ordshift.design import ModelSpec, Term
from ordshift.links import Family
from ordshift.simulate import simulate_dataset

SEED = 20250808
N = 500
K = 5

INTERCEPTS = np.log(np.arange(1, K) / (K - np.arange(1, K)))
BETA = {"age": -0.10, "groupb": 0.50, "groupc": -0.40, "score": 0.80}
ALPHA = {"age": -0.04, "groupb": 0.12, "groupc": -0.10}


def generate():
    rng = np.random.default_rng(SEED)
    age = np.round(rng.uniform(2.0, 8.0, size=N), 3)
    score = np.round(rng.uniform(-1.0, 1.0, size=N), 3)
    group = rng.choice(["a", "b", "c"], size=N)
    for pos, level in enumerate(["a", "b", "c"]):
        idx = pos + int(np.nonzero(group[pos:] == level)[0][0])
        for arr in (group, age, score):
            arr[[pos, idx]] = arr[[idx, pos]]

    columns = {
        "age": age,
        "groupb": (group == "b").astype(float),
        "groupc": (group == "c").astype(float),
        "score": score,
    }
    spec = ModelSpec(
        family=Family("cumulative"),
        structure="locshift",
        location=(Term("age"), Term("groupb"), Term("groupc"), Term("score")),
        dispersion=(Term("age"), Term("groupb"), Term("groupc")),
    )
    params = np.concatenate(
        [INTERCEPTS, list(BETA.values()), list(ALPHA.values())]
    )
    y = simulate_dataset(spec, params, columns, K, rng).y
    return y, age, group, score


def main():
    y, age, group, score = generate()
    out = pathlib.Path(__file__).parent / "synthetic.csv"
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "age", "group", "score"])
        for row in zip(y, age, group, score):
            writer.writerow(row)
    print(f"wrote {out} ({len(y)} rows)")


if __name__ == "__main__":
    main()
