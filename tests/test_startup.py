"""Start-up: importing the CLI loads no module that only some commands need."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: the modules the interpreter already holds
# before the import (its own and those of the host's site) are left out.
PROBE = """
import json, sys
bare = set(sys.modules)
import regopen.cli
loaded = sorted(set(sys.modules) - bare)
from fractions import Fraction
from regopen import FiniteMetric
d = FiniteMetric([[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
same = d == FiniteMetric([[0, Fraction(2, 6)], [Fraction(2, 6), 0]])
print(json.dumps({"loaded": loaded, "same": same, "distance": repr(d(0, 1))}))
"""


def test_the_cli_imports_neither_dataclasses_nor_fractions():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    result = json.loads(proc.stdout)
    assert "regopen.cli" in result["loaded"]
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(result["loaded"])
    # FiniteMetric imports Fraction on first use and still computes exactly
    assert result["same"] and result["distance"] == "Fraction(1, 3)"
