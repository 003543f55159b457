"""The two constants behind the admissible Hardy coupling range.

kappa(R) is the best constant of  sum |u|^2/(|x|^2+1) <= kappa * energy(u)
on the radius-R box; rho_plus is the largest M with (Au, u) >= M * energy(u)
on the positive subspace.  Couplings rho < min(rho_plus, 1)/kappa keep the
positive part of the quadratic form coercive.  kappa grows slowly with R
(the Hardy extremal has heavy tails), so the admissible range shrinks as
the box grows; both are reported per box, never as lattice-wide values.
"""

import numpy as np

import latticegap as lg

print("kappa(R) on growing boxes (N = 3):")
kappas = {}
for radius in (0, 2, 4, 6, 8):
    kappas[radius] = lg.best_hardy_constant(lg.BoxDomain(3, radius)).kappa
    print(f"  R = {radius:2d}: kappa = {kappas[radius]:.9f}")
print(f"  (R = 0 is exactly 1/(2N) = {1/6:.9f})")

potential = lg.checkerboard_potential(3, 1.0)
table = lg.bloch_band_edges(potential, grid=8)
box = lg.BoxDomain(3, 4)
split = lg.spectral_split(box, lg.assemble_operator(box, potential), table.gap)

pencil = lg.rho_plus(split)
print(f"\nrho_plus on the radius-4 box:")
print(f"  pencil eigensolve, one per parity sector : {pencil.value:.12f}")
print(f"  sigma_plus / (2N), from the Bloch bands  : {table.sigma_plus / 6:.12f}")
print("  (the minimizer is the positive band-edge wave: rho_plus = sigma_plus/(2N))")

constants = lg.compute_constants(split)
print(f"\nadmissible range: rho < rho_max = min(rho_plus, 1)/kappa "
      f"= {constants.rho_max:.9f}")
print(f"solver cap (0.9 rho_max): {0.9 * constants.rho_max:.9f}")

# the box-exact sandwich that makes the rho-modified norm equivalent on X^+
rng = np.random.default_rng(0)
rho = 0.5 * constants.rho_max
factor = 1.0 - rho * constants.kappa / constants.rho_plus
worst = 1.0
for _ in range(50):
    u = lg.project(split, lg.LatticeField(box, rng.standard_normal(box.site_count)),
                   "plus")
    ratio = lg.rho_norm_plus(split, u, rho, constants=constants) \
        / lg.split_inner(split, u, u)
    worst = min(worst, ratio)
print(f"\nnorm equivalence at rho = rho_max/2: smallest ratio over 50 random")
print(f"X^+ fields = {worst:.6f}, guaranteed floor = {factor:.6f}")
