"""
Exact dyadic sites, the split-score diagnostic, and the depth cap.

Evaluation sites are binary rationals stored as (numerator, level), so
midpoints, gap lengths and the smallest gap are exact at any depth; floats
only enter when values are computed or output is written.  The score-bound
diagnostic cross-checks the search at every step: whenever the observed
increments stay moderate, the largest split score obeys an a priori bound.
"""
from brownmin import (
    BrownianOracle,
    DepthExceededError,
    MinimizerConfig,
    RngStream,
    Skeleton,
    check_score_bound,
    init_state,
    step,
)

print("=== Exact sites at extreme depth ===")
# a skeleton grows only by splitting a gap at its midpoint; the values
# here are placeholders, the sites are what matters
skel = Skeleton()
skel.insert(0.0)
skel.split(1, 0.0)  # the site 1/2
for _ in range(79):
    skel.split(2, 0.0)  # halve the gap just right of 1/2
a, b = skel.site(2), skel.site(3)
print(f"after 80 nested bisections the gap right of 1/2 is [{a}, {b}]")
print("distinct deep sites stay distinct exactly even when their floats tie:")
print(f"  a != b: {a != b};  float(a) == float(b) == 0.5: {float(a) == float(b) == 0.5}")
print(f"  its midpoint {skel.gap_midpoint(2)} and length 2^-{skel.tau_level} are exact too")

print()
print("=== The depth cap fails loudly instead of underflowing ===")
# halve the leftmost gap down to the deepest supported level, 1023, where
# 1/tau = 2^1023 is still a finite double: the next split is refused
skel = Skeleton()
skel.insert(0.0)
try:
    while True:
        skel.split(1, 0.0)
except DepthExceededError as exc:
    print(f"  after {skel.n - 1} nested splits, down to [0, {skel.site(1)}]:")
    print(f"  DepthExceededError: {exc}")

print()
print("=== Score-bound diagnostic along a run (lambda = 8) ===")
# the increment threshold sqrt(lam ln(n) / 4) grows with lambda, so the
# diagnostic bites on most states at lambda = 8 and only rarely at lambda = 1
config = MinimizerConfig(lam=8.0, max_steps=200)
oracle = BrownianOracle(RngStream(11, 0))
state, _ = init_state(oracle, config)
rows = [check_score_bound(state, config)]
while state.n < config.max_steps:
    step(state, oracle, config)
    rows.append(check_score_bound(state, config))
applicable = sum(r.applicable for r in rows)
print(f"  {applicable} of {len(rows)} states had moderate increments;")
print(f"  the bound held at every one (a violation raises immediately).")
last = rows[-1]
print(f"  final state: rho_max = {last.rho_max:.4f} <= bound {last.score_bound:.4f}")
