import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COLD_IMPORT = """
import json, sys
import haptosim.cli
import haptosim.operators as operators
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import scipy.linalg, scipy.sparse.linalg
print(json.dumps({
    "scipy_modules": loaded,
    "cg": operators.cg is scipy.sparse.linalg.cg,
    "solveh_banded": operators.solveh_banded is scipy.linalg.solveh_banded,
    "cached": sorted({"cg", "solveh_banded"} & set(vars(operators))),
}))
"""


def test_cold_import_loads_no_scipy():
    # a fresh interpreter, so nothing imported by the test session counts
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env,
                          capture_output=True, text=True, check=True)
    found = json.loads(proc.stdout)
    assert found["scipy_modules"] == []
    # the benchmark tracer's two retired targets still resolve, uncached
    assert found["cg"] and found["solveh_banded"]
    assert found["cached"] == []


def test_operators_resolves_no_other_name_lazily():
    import haptosim.operators as operators
    for name in ("solve", "scipy", "__path__"):
        assert not hasattr(operators, name)
