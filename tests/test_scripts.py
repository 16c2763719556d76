"""The reproduction scripts run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_sphere_tables():
    lines = run_script("sphere_tables.py", "--n", "2", "--weight-bound", "4")
    rows = lines[lines.index("  reduced twisted homology (stable range):") + 1:]
    assert rows[:2] == ["    weight 1  degree 1  dim 1", "    weight 3  degree 3  dim 1"]
    assert "  dual of w^2 is annihilated" in lines


def test_projective_tables():
    # reduced classes sit in degree 2i + 2(w-1) - 1, i = 1, 2, on odd weights
    lines = run_script("projective_tables.py", "--n", "2", "--weight-bound", "4")
    reduced = {(int(r.split()[1]), int(r.split()[3])) for r in lines
               if r.endswith("dim 1  (reduced)")}
    assert reduced == {(w, 2 * i + 2 * (w - 1) - 1) for w in (1, 3) for i in (1, 2)}


def test_transfer_demo():
    lines = run_script("transfer_demo.py", "--weight-bound", "5", "--max-arity", "4")
    assert "higher associativity up to arity 4: pass" in lines
    assert "twisted boundary squares to zero at the truncation: True" in lines
    assert lines[1].startswith("pipeline properties: G2: pass")
