"""The example scripts run end to end."""

import runpy
import shutil
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
    lines = proc.stdout.splitlines()
    assert lines[-1] == "compared 256 outputs over 19 documents: 0 differ"
    # exit 2 means malformed input, and every corpus document is valid
    zero_tol = [line for line in lines if line.startswith("tol 0, ")]
    assert zero_tol
    for line in zero_tol:
        assert not [c for c in line.split(": exit ")[1].split(", ") if c.startswith("2 x")], line


def test_compare_outputs_shows_the_first_differing_line(tmp_path):
    # a base checkout whose human audits word one line differently
    shutil.copytree(ROOT / "src" / "beliefbet", tmp_path / "src" / "beliefbet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "beliefbet" / "cli.py"
    cli.write_text(cli.read_text().replace('"certificate verified: ', '"certificate checked: '))
    proc = subprocess.run(
        [sys.executable, str(COMPARE), "--base", str(tmp_path), "--docs", "12"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    differing = [i for i, line in enumerate(lines) if line.startswith("differs (output): ")]
    assert differing and all("--format human" in lines[i] for i in differing)
    for i in differing:
        assert lines[i + 1] == "  base:   certificate checked: True"
        assert lines[i + 2] == "  change: certificate verified: True"
    assert lines[-1] == f"compared 256 outputs over 19 documents: {len(differing)} differ"
