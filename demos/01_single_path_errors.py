"""
Per-path error traces of the adaptive search on three Brownian paths.

For each path the search runs to n = 512 evaluations; the true minimum M
is then sampled exactly from the final skeleton and the error M_n - M is
reported at a few checkpoints.  The error collapses by many orders of
magnitude while the equidistant rule would still be around n^(-1/2).
"""
import numpy as np

from brownmin import (
    BrownianOracle,
    MinimizerConfig,
    RngStream,
    run,
    sample_true_min,
)

LAM = 1.0
STEPS = 512
CHECKPOINTS = [2, 8, 32, 128, 512]

print(f"=== Adaptive search, lambda = {LAM}, three independent paths ===")
header = "path  " + "".join(f"  delta_{n:<9d}" for n in CHECKPOINTS)
print(header)

for path_id in range(3):
    oracle = BrownianOracle(RngStream(2024, path_id), capacity=STEPS + 2)
    state, traces = run(oracle, MinimizerConfig(lam=LAM, max_steps=STEPS))
    true_min = sample_true_min(state.skeleton, RngStream(2024, path_id, 1))
    m_by_n = {tr.n: tr.m_n for tr in traces}
    deltas = [m_by_n[n] - true_min for n in CHECKPOINTS]
    print(f"  {path_id}  " + "".join(f"  {d:11.3e}" for d in deltas))

print()
print("=== Where the evaluations went (path 0) ===")
oracle = BrownianOracle(RngStream(2024, 0), capacity=STEPS + 2)
state, traces = run(oracle, MinimizerConfig(lam=LAM, max_steps=STEPS))
sites = state.skeleton.site_floats()
values = np.asarray(state.skeleton.values)
argmin = int(np.argmin(values))
print(f"discrete minimum {state.m_n:.6f} at t = {sites[argmin]:.6f}")
print(f"smallest gap 2^-{state.tau_level}")
for lo, hi in [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]:
    count = int(np.sum((sites >= lo) & (sites < hi)))
    print(f"  sites in [{lo:.2f}, {hi:.2f}): {count}")
