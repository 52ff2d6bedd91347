#!/usr/bin/env python3
"""Survey the structural numbers across algebras: dimensions, ranks, counts.

For each algebra this prints dim 𝔤, dim T_P, the numerical rank of the
restricted Poisson matrix (linear bracket everywhere; quadratic too on
associative algebras), the conserved-family cardinality, and checks the
identity card = dim T_P − rank/2.  Extra spec files can be appended on the
command line.

Usage: python3 scripts/rank_survey.py [more-specs.json ...]
"""

import sys

from toda2 import (
    brackets,
    build_gl,
    build_sl,
    expected_rank,
    family_labels,
    load_spec,
    phase_tp,
    rank_sweep,
)


def survey(alg):
    ps = phase_tp(alg)
    card = len(family_labels(alg))
    rows = []
    for which in brackets(alg):
        r = rank_sweep(ps, which).rank
        ident = "ok" if card == ps.dim - r // 2 else "VIOLATED"
        rows.append((alg.name, which, alg.dim, ps.dim, r, expected_rank(alg), card, ident))
    return rows


def main() -> int:
    algebras = [build_sl(2), build_sl(3), build_sl(4), build_gl(2), build_gl(3)]
    algebras += [load_spec(p) for p in sys.argv[1:]]
    print(f"{'algebra':10s} {'bracket':10s} {'dim g':>5s} {'dim TP':>6s} "
          f"{'rank':>4s} {'expect':>6s} {'card':>4s}  identity")
    bad = 0
    for alg in algebras:
        for name, which, d, dtp, r, exp, card, ident in survey(alg):
            print(f"{name:10s} {which:10s} {d:5d} {dtp:6d} {r:4d} {exp:6d} "
                  f"{card:4d}  {ident}")
            bad += ident != "ok" or r != exp
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
