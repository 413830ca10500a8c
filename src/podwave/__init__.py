"""podwave: POD model order reduction for the 1-D damped wave equation.

Builds linear-FE trajectories of the damped wave equation, extracts POD
bases from snapshots or their first/second difference quotients, runs the
Galerkin reduced-order model, and verifies the exact data-error formulas,
pointwise bounds, and energy identities that certify the reduction.
"""
