"""Convex-roof extension of the total-entropy entanglement, checked against
the closed two-qubit form h(C).

For two qubits the roof of E_t collapses to an analytic function of the
Wootters concurrence, exactly as the entanglement of formation does. The
numerical optimizer searches isometries acting on the eigendecomposition
(every valid ensemble arises that way), so its value is an upper bound that
should land on h(C) to optimizer precision.

Run:  python3 demos/02_two_qubit_roof.py
"""

import numpy as np

from dualentropy import (Bipartition, RoofConfig, concurrence_two_qubit,
                         convex_roof, e_t_pure, e_t_two_qubit, h,
                         random_density)

bip = Bipartition.of((2, 2), (0,))
cfg = RoofConfig(restarts=20, max_iters=150, seed=0)
rng = np.random.default_rng(42)

print("state   C(rho)    h(C)      roof      roof - h(C)")
for k in range(8):
    rho = random_density((2, 2), rank=2, seed=rng)
    c = concurrence_two_qubit(rho)
    exact = e_t_two_qubit(rho)
    res = convex_roof(rho, bip, e_t_pure, cfg)
    print(f"{k:5d}   {c:.5f}   {exact:.5f}   {res.value:.5f}   {res.value - exact:+.2e}")

# The roof never undercuts the analytic value (it is an infimum estimated
# from above); the gradient descent lands within about 1e-14 of it here.

# Restart-value spread is a quick flatness probe: for a state whose every
# decomposition shares one marginal spectrum, all restarts land on one
# number, and each stops at iteration 0 with a zero gradient. The AB
# marginal of the fixed 6x3x3 scenario is such a state.
from dualentropy import Bipartition as Bip, eof_pure, example4_state, reduced_state

rho_ab = reduced_state(example4_state(), (0, 1))
res = convex_roof(rho_ab, Bip.of(rho_ab.dims, (0,)), eof_pure,
                  RoofConfig(restarts=10, max_iters=40, ensemble_size=6, seed=0))
vals = np.array(res.restart_values)
print(f"\nflat-roof restart values: min {vals.min():.9f}, max {vals.max():.9f}, "
      f"spread {vals.max() - vals.min():.2e}")
