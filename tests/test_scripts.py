"""The example scripts run against the current API."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_flow_demo_runs_on_sl2(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "flow_demo.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["flow_demo.py", "--algebra", "sl2", "--T", "0.01"])
    assert main() == 0
    out = capsys.readouterr().out
    assert "t-flow over T=0.01" in out and "s-flow over T=0.01" in out
    assert "t/s commutation defect" in out


def test_flow_demo_refuses_a_horizon_past_the_step_bound(monkeypatch):
    # a run keeps every state: 1e15 steps would hang or exhaust memory
    from toda2 import FlowConfig, PreconditionError, flows

    def no_steps(*args):
        raise AssertionError("a flow run was started")

    monkeypatch.setattr(flows, "rk4_states", no_steps)
    monkeypatch.setattr(flows, "factor_states", no_steps)
    main = runpy.run_path(str(SCRIPTS / "flow_demo.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["flow_demo.py", "--algebra", "sl2", "--T", "1e12"])
    message = "T/dt = 1000000000000000 steps; a flow run takes at most 10000"
    with pytest.raises(PreconditionError, match=message):
        main()
    with pytest.raises(PreconditionError, match=message):
        FlowConfig(dt=1e-3, T=1e12)
    assert FlowConfig(dt=1e-3, T=10.0).n_steps == flows.MAX_STEPS


def test_make_so5_spec_writes_a_loadable_valid_spec(tmp_path, monkeypatch, capsys):
    from toda2 import load_spec, validate_spec

    main = runpy.run_path(str(SCRIPTS / "make_so5_spec.py"))["main"]
    out = tmp_path / "so5.json"
    monkeypatch.setattr(sys, "argv", ["make_so5_spec.py", str(out)])
    assert main() == 0
    assert "linear Poisson rank 12" in capsys.readouterr().out
    alg = load_spec(out)
    assert (alg.name, alg.dim, alg.exponents) == ("so5", 10, (1, 3))
    assert validate_spec(alg) == []


def test_rank_survey_runs_on_the_desk(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "rank_survey.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["rank_survey.py"])
    assert main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 7 and all(r.endswith("ok") for r in rows)
