"""Walk through the scattering-matrix determinant identities.

Two unitary scatterers sharing internal channels compose through the star
product, which resums all internal round trips. The determinant of the
composed matrix factorizes into the individual determinants times a pure
phase carried by the round-trip resolvent -- dissipation channels included.
"""

import numpy as np

from casimir.blockmat import logdet, random_contraction, random_unitary, unitary_dilation
from casimir.scattering import (
    ScatteringMatrix,
    alpha_phase,
    chain3_factorization_residual,
    det_composition_residual,
    round_trip,
    star,
    translation_scatterer,
)

rng_seed = 7
n_int, n_ext = 2, 3

print("=== star product of two unitary scatterers ===")
s1 = ScatteringMatrix.from_full(random_unitary(n_int + n_ext, rng_seed), n_int)
s2 = ScatteringMatrix.from_full(random_unitary(n_int + n_ext, rng_seed + 1), n_int)
composed = star(s1, s2)
print(f"channels: {n_int} internal + {n_ext} external on each side")
print(f"composed matrix is {composed.n_ext} x {composed.n_ext}, "
      f"unitarity defect {composed.unitarity_defect():.2e}")

print("\n=== round-trip resolvents ===")
rt = round_trip(s1.ii, s2.ii)
rho = np.max(np.abs(np.linalg.eigvals(s2.ii @ s1.ii)))
print(f"spectral radius of S2ii S1ii: {rho:.3f}")
print(f"det D12 vs det D21 (Sylvester): "
      f"{abs(1 - np.exp(logdet(rt.D12) - logdet(rt.D21))):.2e}")

print("\n=== determinant factorization ===")
res = det_composition_residual(s1, s2)
print(f"det(S1*S2) = (-1)^n det(S1) det(S2) det(D21)/det(D21)*")
print(f"residual: {res:.2e}")
print(f"alpha phase factor for n_int = {n_int}: {alpha_phase(s1, s2):+.12f} "
      f"(expect {(-1) ** n_int:+d})")

print("\n=== lossy three-factor chain ===")
# objects built by dilating contractions: explicitly lossy scatterers that
# are unitary only because their dissipation ports are kept in the game
obj1 = ScatteringMatrix.from_full(unitary_dilation(random_contraction(4, 21)), 2)
obj2 = ScatteringMatrix.from_full(unitary_dilation(random_contraction(4, 22)), 2)
t = random_contraction(2, 23)  # sub-unitary one-way transmission: lossy medium
sl = translation_scatterer(t)
print(f"translation transmission singular values: "
      f"{np.linalg.svd(t, compute_uv=False).round(3)}")
print(f"chain factorization residual (lossy medium): "
      f"{chain3_factorization_residual(obj1, sl, obj2):.2e}")
