"""The example scripts run end to end."""

import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "audit_demo.py"
COMPARE = ROOT / "scripts" / "compare_outputs.py"


def test_audit_demo_runs(capsys):
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "Choquet value of the inverted prices = 0.2500" in out
    assert "certificate kind: negative_mass, buy gap 0.2500, verified True" in out
    assert "certificate kind: choquet_gap" in out
    assert out.count("verified True") == 2


def test_compare_outputs_against_itself():
    proc = subprocess.run(
        [sys.executable, str(COMPARE), "--base", str(ROOT), "--docs", "12"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "compared 80 outputs over 12 documents: 0 differ"
