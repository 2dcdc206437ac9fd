"""Additive location-shift models: smooth covariate effects via B-splines.

The response here depends on x through a U-shaped location effect and a
linear dispersion effect. A linear model misses the U; an s(x) term picks it
up, and the likelihood-ratio tests (against dropping the term and against a
linear version) quantify how much it matters. Both baselines are reported
because either comparison can be the interesting one. The fitted model then
predicts category probabilities on a grid of four points, with the knots and
centering means of the training data: four points could not place six knots
of their own, and x = 2.5, beyond the training range, takes the boundary
value of the smooth.
"""

import pathlib

import numpy as np

from ordshift import Family, ModelSpec, Term, fit, predict, render_smooth_svg, smooth_term_tests
from ordshift.simulate import simulate_dataset

here = pathlib.Path(__file__).parent
out_dir = here / "output"
out_dir.mkdir(exist_ok=True)

rng = np.random.default_rng(3)
n, k = 2500, 5
x = rng.uniform(-2.0, 2.0, size=n)
z = rng.uniform(-1.0, 1.0, size=n)

# generate through an explicit U-shaped channel, then fit x as a smooth
gen = ModelSpec(Family("cumulative"), "locshift", (Term("u"),), (Term("z"),))
params = np.concatenate([[-1.5, -0.4, 0.6, 1.7], [1.0], [0.2]])
data = simulate_dataset(gen, params, {"u": x * x - 1.0, "x": x, "z": z}, k, rng)

spec = ModelSpec(
    Family("cumulative"), "locshift",
    location=(Term("x", smooth=True, n_basis=6),),
    dispersion=(Term("z"),),
)
result = fit(spec, data)
print(f"additive fit: deviance {result.deviance:.2f} on {result.df_residual} df, "
      f"{result.iterations} iterations")

tests = smooth_term_tests(data, spec, "x", side="location")
print(f"drop s(x) entirely: LRT {tests['drop'].statistic:.2f} on {tests['drop'].df} df, "
      f"p = {tests['drop'].p_value:.4f}")
print(f"linear x instead:   LRT {tests['linear'].statistic:.2f} on {tests['linear'].df} df, "
      f"p = {tests['linear'].p_value:.4f}")

grid = {"x": np.array([-1.5, 0.0, 1.5, 2.5]), "z": np.zeros(4)}
probs = predict(result, grid)
print("predicted P(y = 1..5) at z = 0:")
for value, row in zip(grid["x"], probs):
    print(f"  x = {value:4.1f}: " + " ".join(f"{p:.3f}" for p in row))

svg_path = out_dir / "smooth.svg"
svg_path.write_text(render_smooth_svg(result, "x"), encoding="utf-8")
print(f"wrote {svg_path}")
