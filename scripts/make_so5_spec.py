#!/usr/bin/env python3
"""Build the split form of so(5) as an algebra-spec document.

No builder covers the orthogonal series, so this constructs the basis by
hand: with S the antidiagonal identity, so(5) = {X : Xᵀ S + S X = 0} has
basis X_ij = E_ij − E_{6−j,6−i} over representative pairs, graded by j − i.
The principal grading element is diag(4, 2, 0, −2, −4) and e = X₁₂ + X₂₃.
Exponents (1, 3): the conserved family uses ½Tr x² and ¼Tr x⁴.

Usage: python3 scripts/make_so5_spec.py [out.json]
"""

import sys

import numpy as np

from toda2 import load_spec, phase_tp, rank_sweep, save_spec


def X(i, j):
    m = np.zeros((5, 5))
    m[i - 1, j - 1] += 1.0
    m[5 - j, 5 - i] -= 1.0
    return m


def so5_document() -> dict:
    pairs = [(1, 1), (2, 2)] + [
        (i, j) for i in range(1, 6) for j in range(1, 6) if i != j and i + j < 6
    ]
    basis = np.array([X(i, j) for i, j in pairs])
    flat = basis.reshape(len(pairs), -1)

    def coords_of(mat):
        c, *_ = np.linalg.lstsq(flat.T, mat.reshape(-1), rcond=None)
        return c

    return {
        "name": "so5",
        "n": 5,
        "dim": len(pairs),
        "rank": 2,
        "basis": basis.tolist(),
        "degrees": [j - i for i, j in pairs],
        "exponents": [1, 3],
        "cartan": [[2, -1], [-2, 2]],
        "e_coords": coords_of(X(1, 2) + X(2, 3)).tolist(),
        "h_coords": coords_of(4.0 * X(1, 1) + 2.0 * X(2, 2)).tolist(),
        "associative": False,
    }


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "so5.json"
    import json

    alg = load_spec(json.dumps(so5_document()))   # validates, raises on a violation
    save_spec(alg, out)
    ps = phase_tp(alg)
    print(f"wrote {out}: dim {alg.dim}, rank {alg.rank}, exponents {alg.exponents}")
    print(f"phase space dim {ps.dim}, linear Poisson rank {rank_sweep(ps).rank}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
