#!/usr/bin/env python3
"""Integrate the two lattice flows from a seeded point and report drifts.

Runs the t-flow and the s-flow side by side, prints per-function conservation
drift, phase-space tangency, pencil-eigenvalue drift at a few λ₀, and the
commutation defect of the two flows.  Optionally dumps the t-flow trajectory
to CSV for plotting.

Usage: python3 scripts/flow_demo.py [--algebra sl3] [--dt 1e-3] [--T 2.0]
                                    [--csv out.csv]
"""

import argparse

from toda2 import (
    FlowConfig,
    family_names,
    flow_commutation,
    integrate,
    pencil_eigenvalue_drift,
    phase_tp,
    trajectory_to_csv,
)
from toda2.cli import resolve_algebra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algebra", default="sl3")
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--T", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    alg = resolve_algebra(args.algebra)
    ps = phase_tp(alg)
    m0 = ps.sample_points(seed=args.seed, count=1)[0]
    names = family_names(alg)

    print(f"{alg.name}: phase space dim {ps.dim}, {len(names)} conserved functions")
    for field in ("t", "s"):
        traj = integrate(FlowConfig(field=field, dt=args.dt, T=args.T), m0)
        if traj.truncated:
            print(f"  {field}-flow: {traj.note}")
            continue
        drifts = traj.conservation_drift()
        print(f"  {field}-flow over T={args.T} (dt={args.dt:g}):")
        for name, d in zip(names, drifts):
            print(f"    {name:8s} relative drift {d:.3e}")
        print(f"    tangency {traj.tangency_drift(ps):.3e}")
        for lam0 in (0.0, 1.0, 2.0):
            print(
                f"    pencil eigenvalues at λ₀={lam0:g}: "
                f"drift {pencil_eigenvalue_drift(traj, lam0):.3e}"
            )
        if field == "t" and args.csv:
            trajectory_to_csv(traj, args.csv)
            print(f"    wrote {args.csv}")
    defect = flow_commutation(m0, dt=args.dt, n_steps=100)
    print(f"  t/s commutation defect over 100 steps: {defect:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
