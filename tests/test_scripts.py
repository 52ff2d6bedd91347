"""The one example script, which builds the so5 document, runs against the current API."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    # --help prints the usage and writes nothing, not even a file named --help
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_so5_spec.py", "--help"])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: make_so5_spec.py [-h] [out]")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["so5.json"]
