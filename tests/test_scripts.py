"""The example scripts run end to end."""

import runpy
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "audit_demo.py"


def test_audit_demo_runs(capsys):
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "Choquet value of the inverted prices = 0.2500" in out
    assert "certificate kind: negative_mass, buy gap 0.2500, verified True" in out
    assert "certificate kind: choquet_gap" in out
    assert out.count("verified True") == 2
