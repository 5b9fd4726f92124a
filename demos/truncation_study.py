"""Finite-truncation study: coordinate compressions of a rotated operator
with decaying spectrum.

Principal-block truncations interlace, so the Schatten norms of the
positive and negative parts grow monotonically to their master values; the
blockwise divergence converges to the master-level one; the integral budget
is insensitive to dimension doubling once one operand dominates the other
uniformly.
"""

import numpy as np

from frenkel import CompactModel, budget_e_p, synth_compact, theorem3_convergence, truncation_series

model = CompactModel(master_dim=64, law="power", param=1.5, signs="seeded", rotation_seed=7, p=2.0)
T = synth_compact(model)
series = truncation_series(T, model.p)
print(f"truncation series of a {model.master_dim}-dim operator (power law, p = {model.p}):")
print("      n   ||T_n_+||_p   ||T_n_-||_p   HS gap to master")
for n in (1, 2, 4, 8, 16, 32, 64):
    k = n - 1
    print(f"  {n:5d}   {series.plus_norm_p[k]:.9f}   {series.minus_norm_p[k]:.9f}   {series.gap_to_master[k]:.3e}")
print(f"  plus-norm rises monotonically: {bool(np.all(np.diff(series.plus_norm_p) >= -1e-11))}")

mA = CompactModel(master_dim=64, law="power", param=2.0, signs="pos", rotation_seed=11, p=2.0)
mB = CompactModel(master_dim=64, law="power", param=1.5, signs="pos", rotation_seed=12, p=2.0)
conv = theorem3_convergence(mA, mB, 2.0)
print("\nblockwise divergence against the master divergence:")
for k, n in enumerate(conv.ns):
    print(f"  n = {n:3d}: p-norm gap {conv.p_gap[k]:.3e}   strong-sample gap {conv.strong_gap[k]:.3e}")

def dominated(dim):
    a = CompactModel(master_dim=dim, law="geom", param=0.6, signs="pos", rotation_seed=17, p=2.0)
    b = CompactModel(master_dim=dim, law="power", param=2.0, signs="pos", rotation_seed=17, p=2.0)
    return synth_compact(a), synth_compact(b)

e64 = budget_e_p(*dominated(64), 2.0, tol=1e-7)
e128 = budget_e_p(*dominated(128), 2.0, tol=1e-7)
print(f"\nintegral budget under dimension doubling (dominated pair): "
      f"e(64) = {e64:.9f}, e(128) = {e128:.9f}, relative drift {abs(e128 - e64) / e64:.2e}")
