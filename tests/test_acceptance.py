"""Acceptance battery: the ten headline properties, at their stated tolerances.

Each test prints exactly one [PASS]/[FAIL] line (run with `pytest -s` to see
them all); on failure the assert message carries the offending check lines.
Tolerances are contractual — they must not be loosened to make a test green.
Each check writes its own; the tests below pass none and assert that every
report carries the tolerance of the README's criterion list, so a default
loosened in src fails its criterion.  Two expected values differ from older write-ups on purpose:

* the conserved family on sl(4) has 12 members (= dim T_P − rank/2 = 21 − 9),
  which several independent counts in this suite confirm;
* the quadratic/linear pencil-field relation carries the factor 2/(λ−1);
  the flipped sign leaves O(10) residuals and fails every point sampled.
"""

import numpy as np
import pytest

from toda2 import (
    FlowConfig,
    check_binomial_identity,
    check_mcybe,
    check_morphism_psi1,
    check_poisson_iso,
    family,
    pencil_eigenvalue_drift,
    phase_tp,
    rais_vectors,
    rank_sweep,
    run_battery,
    toda_suite,
)
from toda2 import checks, poisson
from toda2.invariants import family_gradient_stack

from pointwise import rk4_trajectory, sequential_commutation

ORDER = ("sl2", "sl3", "sl4", "gl2", "gl3")
CARD = {"sl2": 3, "sl3": 7, "sl4": 12, "gl2": 5, "gl3": 9}
RANK = {"sl2": 4, "sl3": 10, "sl4": 18, "gl2": 4, "gl3": 10}


def conclude(num, title, ok, summary, failures=()):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {title}: {summary}")
    assert ok, f"criterion {num:02d} {title}\n" + "\n".join(failures)


def reports_conclude(num, title, reports, tol, summary=None):
    """Conclude on the verdicts, and on the tolerance of each report: `tol`,
    the README's, for every report, or by check id, where a check left out
    must be a rank or count (no tolerance)."""
    if summary is None:
        worst = max(
            (r.measured for r in reports if r.measured is not None), default=0.0
        )
        summary = f"{len(reports)} checks, worst residual {worst:.2e}"
    failures = [r.line() for r in reports if not r.verdict]
    for r in reports:
        want = tol.get(r.check) if isinstance(tol, dict) else tol
        stated = (None, r.expected) if want is None else (want, f"< {want:g}")
        got = (r.params.get("tol"), r.expected)
        if got != stated:
            failures.append(f"{r.check}: (tol, expected) = {got}, the README states {stated}")
    conclude(num, title, not failures, summary, failures)


def test_c01_mcybe(desk_algebras):
    reports = []
    for name in ORDER:
        for pair in (False, True):
            reports.append(check_mcybe(desk_algebras[name], samples=200, pair=pair))
    reports_conclude(1, "mcybe splitting solution", reports, 1e-11)


def test_c02_casimirs(desk_algebras):
    reports = []
    for name in ORDER:
        reports += run_battery("casimir", desk_algebras[name], samples=20)
    reports_conclude(2, "pencil pullbacks at λ=1 are Casimirs", reports, 1e-9)


def test_c03_involutivity(desk_algebras):
    reports = []
    for name in ORDER:
        reports += run_battery("involutivity", desk_algebras[name], samples=20)
    reports_conclude(3, "family involutivity (both brackets on gl)", reports, 1e-8)


def test_c04_family_cardinality(desk_algebras):
    got = {name: len(family(desk_algebras[name])) for name in ORDER}
    conclude(
        4,
        "conserved-family cardinality",
        got == CARD,
        "card = " + "/".join(str(got[n]) for n in ORDER),
        [f"{n}: got {got[n]}, want {CARD[n]}" for n in ORDER if got[n] != CARD[n]],
    )


def test_c05_rank_and_count_identity(desk_algebras):
    failures, cells = [], []
    for name in ORDER:
        alg = desk_algebras[name]
        ps = phase_tp(alg)
        kinds = ("linear", "quadratic") if alg.associative else ("linear",)
        for which in kinds:
            r = rank_sweep(ps, which).rank
            cells.append(f"{name}/{which}={r}")
            if r != RANK[name]:
                failures.append(f"{name} {which}: rank {r}, want {RANK[name]}")
            if CARD[name] != ps.dim - r // 2:
                failures.append(
                    f"{name} {which}: card {CARD[name]} ≠ dim T_P − rank/2 "
                    f"= {ps.dim - r // 2}"
                )
    conclude(5, "Poisson rank and exact count identity", not failures,
             ", ".join(cells), failures)


def test_c06_independence_and_rais(desk_algebras):
    failures = []
    for name in ORDER:
        alg = desk_algebras[name]
        ps = phase_tp(alg)
        eh = np.concatenate([alg.e_coords, alg.h_coords])[None]
        r_eh, r_swp = (int(ps.jacobian_ranks(family_gradient_stack(alg, V)).max())
                       for V in (eh, ps.sample_stack(42, 20)))
        if not (r_eh == r_swp == CARD[name]):
            failures.append(f"{name}: rank(e,h)={r_eh}, sweep={r_swp}, card={CARD[name]}")
        rd = rais_vectors(alg)
        if rd.count != (alg.dim + alg.rank) // 2 or rd.rank != rd.count:
            failures.append(f"{name}: rais count={rd.count}, rank={rd.rank}")
        if rd.max_negative_component > 1e-12:
            failures.append(f"{name}: rais span leaks below degree 0")
    conclude(6, "family independence + Raïs vectors", not failures,
             f"jacobian rank = cardinality on all {len(ORDER)} algebras", failures)


def test_c07_vector_field_identities(desk_algebras):
    reports = []
    for name in ORDER:
        reports += run_battery("quadratic-relations", desk_algebras[name], samples=20)
    reports_conclude(7, "closed-form fields, pencil-field relations", reports, 1e-9)


def test_c07_relquad_fails_a_quadratic_field_off_by_one_part_in_a_million(gl3, monkeypatch):
    # a negative control: relquad compares the quadratic bracket field with
    # the linear one, so a quadratic field off by a factor 1 + 1e-6 fails it;
    # the battery reads the field through `poisson.block_field`
    field = poisson.quadratic_field
    monkeypatch.setattr(poisson, "quadratic_field",
                        lambda alg, m, g: field(alg, m, g) * (1.0 + 1e-6))
    relquad = next(r for r in checks.check_field_battery(gl3) if r.check == "relquad")
    assert not relquad.verdict and relquad.measured > 1e-6


def test_c08_flows(desk_algebras):
    failures, worst = [], 0.0
    for name in ORDER:
        alg = desk_algebras[name]
        ps = phase_tp(alg)
        m0 = ps.sample_points(seed=42, count=1)[0]
        # RK4 and its sequential commutation runs: on the exact factorization
        # path of `integrate` these quantities hold by construction
        for field in ("t", "s"):
            traj = rk4_trajectory(FlowConfig(field=field, dt=1e-3, T=1.0), m0)
            cons = float(traj.conservation_drift().max())
            tan = traj.tangency_drift(ps)
            eig = max(pencil_eigenvalue_drift(traj, l0) for l0 in (0.0, 1.0, 2.0))
            worst = max(worst, cons, eig)
            if traj.truncated or cons >= 1e-6:
                failures.append(f"{name} {field}-flow conservation drift {cons:.2e}")
            if tan >= 1e-7:
                failures.append(f"{name} {field}-flow tangency drift {tan:.2e}")
            if eig >= 1e-6:
                failures.append(f"{name} {field}-flow eigenvalue drift {eig:.2e}")
        defect = sequential_commutation(m0, dt=1e-3, n_steps=100)
        if defect >= 1e-6:
            failures.append(f"{name} commutation defect {defect:.2e}")
    conclude(8, "flow conservation, isospectrality, commutation", not failures,
             f"10 integrations, worst drift {worst:.2e}", failures)


def test_c09_toda_reduction(desk_algebras):
    reports = []
    for name in ORDER:
        reports.append(check_poisson_iso(desk_algebras[name], samples=100))
        reports.append(check_binomial_identity(desk_algebras[name], samples=20))
    for name in ("sl2", "sl3"):
        reports += toda_suite(desk_algebras[name])
    reports_conclude(
        9,
        "Toda reduction (iso, binomial collapse, suite)",
        reports,
        {"toda-poisson-iso": 1e-9, "toda-binomial": 1e-10, "toda-submanifold": 1e-9,
         "toda-lax-form": 1e-9, "toda-involutivity": 1e-9, "toda-conservation": 1e-6,
         "toda-diagonal-consistency": 1e-10},
        summary=f"{len(reports)} checks across iso/binomial/suite",
    )


def test_c10_psi1_morphism(desk_algebras):
    reports = [
        check_morphism_psi1(desk_algebras[name], samples=100) for name in ORDER
    ]
    reports_conclude(10, "difference map is a Poisson morphism", reports, 1e-9)
