"""The example scripts run against the current API."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_flow_demo_runs_on_sl2(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "flow_demo.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["flow_demo.py", "--algebra", "sl2", "--T", "0.01"])
    assert main() == 0
    out = capsys.readouterr().out
    assert "t-flow over T=0.01" in out and "s-flow over T=0.01" in out
    assert "t/s commutation defect" in out
