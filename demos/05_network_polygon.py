"""Polygon inequality on quantum networks of bipartite pure states.

Each edge carries one bipartite pure state; two parties that share several
states are joined by parallel edges. Each party's marginal is a tensor
product of its per-edge halves, so its spectrum is the product distribution
of the per-edge Schmidt spectra. Neither that spectrum nor the global state
is built: a party's total entropy comes from power sums of its edges'
Schmidt spectra, so parties with dozens of edges cost no more than small
ones. The polygon inequality says each party's one-to-group entanglement is
bounded by the sum of everyone else's (unnormalized S^t).

Run:  python3 demos/05_network_polygon.py
"""

import numpy as np

from dualentropy import (MIN_DIM, Edge, NetworkTopology, PureState, one_to_group,
                         one_to_group_dense, polygon_check, random_network)

bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))

# --- fixed triangle of Bell pairs -------------------------------------------

triangle = NetworkTopology(3, (Edge(0, 1, bell), Edge(0, 2, bell), Edge(1, 2, bell)))
report = polygon_check(triangle)
print("triangle of Bell pairs:")
for p, (v, t) in enumerate(zip(report.values, report.taus)):
    print(f"  party {p}: S^t(marginal) = {v:.6f}, tau = {t:.6f}")

# --- two states between one pair: parallel edges ---------------------------

pair = NetworkTopology(3, (Edge(0, 1, bell), Edge(0, 1, bell), Edge(1, 2, bell)))
print("\nparties 0 and 1 share two Bell pairs, parties 1 and 2 one:")
for p in range(3):
    print(f"  party {p}: dim {pair.party_dim(p)}, S^t = {one_to_group(pair, p):.6f}, "
          f"S^t / r(min dim) = {one_to_group(pair, p, MIN_DIM):.6f}")

# --- random qubit/qutrit networks -------------------------------------------

print("\n200 random networks (3-5 parties, qubit/qutrit edges):")
worst = -np.inf
for seed in range(200):
    net = random_network(3 + seed % 3, 0.7, seed=seed)
    if len(net.ends) < 2:
        continue
    worst = max(worst, max(polygon_check(net).taus))
print(f"  largest tau seen: {worst:.3e} (inequality: tau <= 0)")

# --- a 40-party network, no party spectrum built ---------------------------

net = random_network(40, 0.8, seed=1)
report = polygon_check(net)
degree = np.bincount(net.ends.ravel(), minlength=40).max()
print(f"\n40 parties, {len(net.ends)} edges, up to {degree} edges at one party "
      f"(a spectrum of at least 2^{degree} entries):")
print(f"  S^t per party in [{min(report.values):.3f}, {max(report.values):.3f}], "
      f"largest tau {max(report.taus):.3f}")

# --- power-sum path vs the dense reference ----------------------------------

net = random_network(4, 0.5, seed=11)
print("\npower-sum path vs dense marginal on one small network:")
for p in range(4):
    fast = one_to_group(net, p)
    dense = one_to_group_dense(net, p)
    print(f"  party {p}: fast {fast:.10f}, dense {dense:.10f}, "
          f"diff {abs(fast - dense):.1e}")
