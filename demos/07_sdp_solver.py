"""The semidefinite solver underneath the fidelity optimizations.

Problems are stated over complex Hermitian blocks with trace-inner-
product constraints; the solver runs a primal-dual interior-point
method directly on those blocks and reports residual certificates.
The fidelity program max 1/2 Tr(X + X^dag) subject to
[[rho, X], [X^dag, sigma]] >= 0 is the workhorse; here it is checked
against the closed-form fidelity and audited independently.
"""

import numpy as np

from qbroadcast import (
    AffineMatrixExpr,
    SdpBuilder,
    audit,
    fidelity,
    fidelity_sdp,
    random_state,
    solve,
)

rng = np.random.default_rng(7)

rho = random_state(3, rng)
sigma = random_state(3, rng)

builder = SdpBuilder()
expr = AffineMatrixExpr(side=3, const=sigma.matrix, terms=())
fidelity_sdp(builder, rho.matrix, expr)
problem = builder.build()
solution = solve(problem)

print(f"qutrit fidelity SDP: {problem.n_constraints} constraints, "
      f"{len(problem.blocks)} block(s)")
print(f"  solver value  = {solution.primal_value:.12f} "
      f"({solution.iterations} iterations)")
print(f"  closed form   = {fidelity(rho, sigma):.12f}")
print(f"  residuals: primal {solution.residuals.primal:.1e}, "
      f"dual {solution.residuals.dual:.1e}, gap {solution.residuals.gap:.1e}")

ok, details = audit(problem, solution)
print(f"  independent audit: ok = {ok}, "
      f"max constraint violation {details['max_constraint_violation']:.1e}, "
      f"min block eigenvalue {details['min_block_eigenvalue']:.1e}")

# a tiny handwritten program: maximize Tr(diag(1, -1) X) with Tr X = 1
builder = SdpBuilder()
blk = builder.add_block(2)
builder.add_objective(blk, np.diag([1.0, -1.0]).astype(complex))
builder.add_constraint({blk: np.eye(2, dtype=complex)}, 1.0)
tiny = solve(builder.build())
print(f"\nmax Tr(diag(1,-1) X) over states: {tiny.primal_value:.9f} "
      "(concentrates on the +1 eigenvector)")
