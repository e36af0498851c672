import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    # scipy.optimize at module top adds about 0.4 s and 50 MB to every import;
    # the L-BFGS-B fallback imports it only when it runs
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import jointmix; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
