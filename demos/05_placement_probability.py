"""Why the degree-distribution optimizations carry over to sliding windows.

From a slot's perspective, what matters is the probability that a given
user put one of its replicas there. Evaluated term by term from the
sequential placement factors, that probability telescopes to l/N for the
framed rule and to exactly the same value for the sliding-window rule (the
window factor cancels the shrunken in-window candidate count). A Monte
Carlo check confirms both.
"""

import numpy as np

from craloha import SchemeConfig, named_distribution, p_uins_fr, p_uins_sw
from craloha.analytics import p_uins_fr_terms, p_uins_sw_terms
from craloha.placement import place_replicas

L, N_SW, N = 4, 50, 200

print(f"degree l={L}, window N_sw={N_SW}, horizon N={N}")
print("framed terms:        ", " + ".join(f"{t:.6f}" for t in p_uins_fr_terms(L, N)))
print("sliding-window terms:", " + ".join(f"{t:.6f}" for t in p_uins_sw_terms(L, N, N_SW)))
print(f"FR sum = {p_uins_fr(L, N):.12f}")
print(f"SW sum = {p_uins_sw(L, N, N_SW):.12f}")
print(f"l/N    = {L / N:.12f}")

# Monte Carlo: a fixed slot, arrivals uniform over the preceding horizon
rng = np.random.default_rng(5)
n = 200_000
target = 10_000
degrees = np.full(n, L)
irsa4 = named_distribution("irsa4")  # max degree L
sw = SchemeConfig(mode="SW", window_slots=N_SW, degree_distribution=irsa4, receiver_memory_slots=N_SW)
arrivals = rng.integers(target - N + 1, target + 1, size=n)
flat, _ = place_replicas(sw, arrivals, degrees, rng)
hits_sw = int((flat.reshape(n, L) == target).any(axis=1).sum())
fr = SchemeConfig(mode="FR", window_slots=N, degree_distribution=irsa4)
flat, _ = place_replicas(fr, np.full(n, target), degrees, rng)
hits_fr = int((flat.reshape(n, L) == target + N).any(axis=1).sum())  # any fixed slot of the tx frame
sigma = np.sqrt((L / N) * (1 - L / N) / n)
print(f"\nempirical, {n} placements (sigma = {sigma:.2e}):")
print(f"  SW slot hit rate {hits_sw / n:.5f}")
print(f"  FR slot hit rate {hits_fr / n:.5f}")
