"""The benchmark's workloads, driven through toda2's public API.

Each workload builds its inputs from the seed in ``setup``, performs one
operation per input in ``run`` (the timed part) and validates the result in
``check`` (untimed).  An operation is one ``check all`` call on one desk
algebra, one flow run or commutation test, or one Poisson-matrix point.

``run`` takes the toda2 package as ``tk`` so that set-up can re-import it, and
a tracer whose spans wrap each call into a toda2 layer.  Untraced and traced
runs do the same arithmetic and must give the same verdicts and counts.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

# Acceptance tolerances of the flow criteria (c08), never loosened here.
CONSERVATION_TOL = 1e-6
ISOSPECTRAL_TOL = 1e-6
TANGENCY_TOL = 1e-7
COMMUTATION_TOL = 1e-6
PENCIL_LAMBDAS = (0.0, 1.0, 2.0)


@dataclass(frozen=True)
class Item:
    """One input: ``key`` names it in the output, ``data`` is workload-specific."""

    key: str
    data: tuple


@dataclass
class Outcome:
    """Verdict of one operation, its computed counts and per-point evidence."""

    ok: bool
    counts: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)
    note: str = ""


def build(tk, token: str, tr):
    """Build and validate a builtin algebra under one ``algebra.build`` span."""
    kind, n = token[:2], int(token[2:])
    with tr.span("algebra.build"):
        alg = tk.build_sl(n) if kind == "sl" else tk.build_gl(n)
        violations = tk.validate_spec(alg)
    if violations:
        raise RuntimeError(f"{token}: spec violates {violations[0]['invariant']}")
    return alg


def warm_phase(tk, alg):
    """T_P with every lazily cached matrix filled in."""
    ps = tk.phase_tp(alg)
    ps.coords
    ps.normal_covectors
    return ps


class CheckDesk:
    """``toda2 check all --format json`` on each desk algebra, one call each."""

    name = "check-desk"
    via_cli = True

    def __init__(self, algebras=("sl2", "sl3", "sl4", "gl2", "gl3"), samples=5):
        self.algebras = algebras
        self.samples = samples

    def setup(self, tk, seed, tr, out_dir):
        # The desk runs with the CLI's default --seed, as a user confirming
        # the paper does, so the workload seed does not enter.  Not every
        # battery seed passes: gl3 jacobi-quadratic-bracket reaches 2.3e-9
        # against its 1e-9 tolerance at seed 12, an open defect of that check.
        cli_seed = tk.cli.build_parser().parse_args(["check", "all"]).seed
        items = []
        for token in self.algebras:
            alg = build(tk, token, tr)
            warm_phase(tk, alg)
            path = out_dir / f"desk-{token}.json"
            items.append(Item(token, (token, alg, cli_seed, path)))
        return items

    def run(self, tk, item, tr):
        token, alg, seed, path = item.data
        if not tr.enabled:
            code = tk.cli.main([
                "check", "all", "--algebra", token, "--samples", str(self.samples),
                "--format", "json", "--out", str(path),
            ])
            return code, path.read_text()
        # The same batteries the CLI runs for "all", one span each.
        reports = []
        for battery in tk.checks.BATTERY_NAMES:
            with tr.span(f"checks.{battery}"):
                reports.extend(tk.checks.run_battery(
                    battery, alg, samples=self.samples, seed=seed))
        with tr.span("reports.emit"):
            text = tk.emit_report(reports, fmt="json") + "\n"
        path.write_text(text)
        return (0 if tk.all_pass(reports) else 1), text

    def headline(self, count, pass_s):
        return "check_desk_s", pass_s, "s"

    def check(self, tk, item, raw):
        code, text = raw
        verdicts = [r["verdict"] for r in json.loads(text)["reports"]]
        failed = verdicts.count(False)
        return Outcome(
            ok=code == 0 and failed == 0,
            counts={"checks.reports": len(verdicts), "checks.failed": failed,
                    "reports.bytes": len(text.encode())},
            evidence={"report": text},
            note=f"exit {code}, {failed} FAIL" if failed or code else "",
        )


class FlowLadder:
    """t- and s-flow RK4 runs with the ``toda2 flow run`` diagnostics, then
    the t/s commutation test, from one seeded T_P point per algebra."""

    name = "flow-ladder"
    via_cli = False

    def __init__(self, algebras=("sl4", "gl4"), dt=1e-3, T=0.2,
                 commutation_steps=100):
        self.algebras = algebras
        self.dt, self.T = dt, T
        self.commutation_steps = commutation_steps

    def setup(self, tk, seed, tr, out_dir):
        runs, tails = [], []
        for token in self.algebras:
            alg = build(tk, token, tr)
            ps = warm_phase(tk, alg)
            m0 = ps.sample_points(seed, 1)[0]
            for fld in ("t", "s"):
                cfg = tk.FlowConfig(field=fld, dt=self.dt, T=self.T)
                runs.append(Item(f"{token}/{fld}-flow", ("run", ps, m0, cfg)))
            tails.append(Item(f"{token}/commutation", ("commutation", ps, m0, None)))
        return runs + tails

    def run(self, tk, item, tr):
        kind, ps, m0, cfg = item.data
        if kind == "commutation":
            with tr.span("flows.commutation"):
                return tk.flow_commutation(m0, dt=self.dt,
                                           n_steps=self.commutation_steps)
        if not tr.enabled:
            traj = tk.integrate(cfg, m0)
        else:
            # integrate() evaluates the family on every state; here the two
            # halves are split so that each gets its own span.
            with tr.span("flows.rk4"):
                traj = tk.integrate(cfg, m0, conserved=[])
            with tr.span("invariants.family_values"):
                fam = tk.family(ps.alg)
                values = np.array([
                    [F(tk.PairPoint.from_vec(ps.alg, row)) for F in fam]
                    for row in traj.states
                ])
            traj = dataclasses.replace(
                traj, conserved=values,
                conserved_names=tuple(F.name for F in fam))
        conservation = float(traj.conservation_drift().max())
        with tr.span("flows.tangency"):
            tangency = traj.tangency_drift(ps)
        with tr.span("flows.isospectral"):
            iso = max(tk.pencil_eigenvalue_drift(traj, lam) for lam in PENCIL_LAMBDAS)
        return traj, conservation, tangency, iso

    def headline(self, count, pass_s):
        return "flow_steps_per_s", count("flows.rk4_steps") / pass_s, "1/s"

    def check(self, tk, item, raw):
        if item.data[0] == "commutation":
            steps = 4 * self.commutation_steps   # Φ_t∘Φ_s and Φ_s∘Φ_t: four legs
            return Outcome(
                ok=raw < COMMUTATION_TOL,
                counts={"flows.rk4_steps": steps, "flows.field_evals": 4 * steps},
                evidence={"commutation": raw},
                note=f"commutation {raw:.3e}" if raw >= COMMUTATION_TOL else "",
            )
        traj, conservation, tangency, iso = raw
        steps = len(traj.times) - 1
        ok = (not traj.truncated and conservation < CONSERVATION_TOL
              and tangency < TANGENCY_TOL and iso < ISOSPECTRAL_TOL)
        return Outcome(
            ok=ok,
            counts={
                "flows.rk4_steps": steps,
                "flows.integrate_steps": steps,
                "flows.field_evals": 4 * steps,
                "flows.truncated": int(traj.truncated),
                "invariants.family_calls": traj.conserved.size,
            },
            evidence={"conservation": conservation, "tangency": tangency,
                      "isospectral": iso},
            note="" if ok else (f"truncated={traj.truncated} conservation "
                                f"{conservation:.3e} tangency {tangency:.3e} "
                                f"isospectral {iso:.3e}"),
        )


class RankLadder:
    """``poisson_matrix`` then ``numerical_rank`` at seeded T_P points."""

    via_cli = False

    def __init__(self, name, which, algebras, points):
        self.name, self.which = name, which
        self.algebras, self.points = algebras, points

    def setup(self, tk, seed, tr, out_dir):
        items = []
        for token in self.algebras:
            alg = build(tk, token, tr)
            ps = warm_phase(tk, alg)
            want = tk.expected_rank(alg)
            for k, m in enumerate(ps.sample_points(seed, self.points)):
                items.append(Item(f"{token}/{self.which}#{k}", (ps, m, want)))
        return items

    def run(self, tk, item, tr):
        ps, m, _ = item.data
        with tr.span(f"poisson.{self.which}.matrix"):
            pm = tk.poisson_matrix(ps, m, self.which)
        with tr.span("poisson.svd"):
            rank = tk.poisson.numerical_rank(pm.matrix)
        return pm, rank

    def headline(self, count, pass_s):
        points = count(f"poisson.{self.which}.matrix_calls")
        return f"rank_{self.which}_points_per_s", points / pass_s, "1/s"

    def check(self, tk, item, raw):
        pm, rank = raw
        want = item.data[2]
        sv = np.linalg.svd(pm.matrix, compute_uv=False)
        gap = float(sv[rank - 1] / max(sv[rank], np.finfo(float).tiny)) \
            if 0 < rank < len(sv) else float("inf")
        k = 2 * item.data[0].alg.dim   # gradients: tangent coordinates + normals
        return Outcome(
            ok=rank == want,
            counts={f"poisson.{self.which}.matrix_calls": 1,
                    "poisson.bracket_pairs": k * (k - 1) // 2},
            evidence={"corrected": pm.corrected,
                      "invariance_defect": pm.invariance_defect,
                      "sv_gap": gap, "rank": rank},
            note="" if rank == want else f"rank {rank} != {want}",
        )


WORKLOADS = {
    w.name: w for w in (
        CheckDesk(),
        FlowLadder(),
        RankLadder("rank-ladder-linear", "linear", ("sl5", "sl6", "gl5"), points=2),
        RankLadder("rank-ladder-quadratic", "quadratic", ("gl4", "gl5"), points=8),
    )
}


def smoke_workloads() -> dict:
    """The same workloads on sl2/gl2, small enough for a test.

    The quadratic ladder takes gl3: on gl2, T_P is invariant under the
    quadratic bracket, so the Dirac correction would go untested.
    """
    return {
        w.name: w for w in (
            CheckDesk(algebras=("sl2", "gl2"), samples=2),
            FlowLadder(algebras=("sl2", "gl2"), T=0.02, commutation_steps=10),
            RankLadder("rank-ladder-linear", "linear", ("sl2", "gl2"), points=2),
            RankLadder("rank-ladder-quadratic", "quadratic", ("gl3",), points=2),
        )
    }
