"""How close can one-sided broadcasting get?  Certified SDP answers.

f_max_broadcast maximizes the fidelity between the input and each
output copy over all one-to-two channels on B; it reaches 1 exactly
for states classical on B.  f_eb does the same over measure-and-
prepare channels (positive partial transpose relaxation, exact for a
qubit B).  Both optima come from an interior-point semidefinite solver
with primal/dual residual certificates, and -2 log2 of either fidelity
lower-bounds the discord.  f_eb_lower is the fidelity that one
explicit measure-and-prepare channel reaches; for a qubit B it is read
off the PPT optimum and meets f_eb to solver accuracy.
"""

import numpy as np

from qbroadcast import (
    bell_state,
    broadcast_report,
    classical_on_b_state,
    f_max_broadcast,
    werner_state,
)

rng = np.random.default_rng(4)

cq = classical_on_b_state(2, 2, rng)
value, channel = f_max_broadcast(cq)
print(f"classical-on-B state: f_max = {value:.8f} (exact copying possible)")
print(f"  returned optimizer is a channel {channel.in_dims} -> {channel.out_dims}")

for name, rho in (("Bell pair", bell_state()),
                  ("Werner p=0.3", werner_state(0.3)),
                  ("Werner p=0.7", werner_state(0.7))):
    rep = broadcast_report(rho)  # raises if the paper's chain breaks
    fmax_solution = rep.f_max_solution
    print(f"\n{name}:")
    print(f"  f_max   = {rep.f_max:.8f}   "
          f"(solver residual {fmax_solution.residuals.primal:.1e}, "
          f"{fmax_solution.iterations} iterations)")
    print(f"  f_eb    = {rep.f_eb:.8f}   (exact EB set: {rep.eb_exact})")
    print(f"  f_eb_lower = {rep.f_eb_lower:.8f}   "
          "(an explicit measure-and-prepare channel achieves it)")
    print(f"  discord = {rep.discord.value:.8f}")
    print(f"  bounds: discord >= -2 log2 f_eb = {rep.discord_bound_eb:.8f}"
          f" >= -2 log2 f_max = {rep.discord_bound_max:.8f}")

print("\nthe Bell pair pins the EB value: f_eb = 1/sqrt(2) = "
      f"{1 / np.sqrt(2):.8f}")
