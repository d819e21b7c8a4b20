"""What ``import lqrfopid`` loads: of scipy only ``scipy.linalg`` (with the
private modules scipy itself needs), and no plotting library.  Every
module an import adds is paid for by every command and every process
start, so the set is pinned."""
import json
import os
import subprocess
import sys
from pathlib import Path

import lqrfopid

PROBE = """
import json, sys
import lqrfopid
print(json.dumps(sorted(sys.modules)))
"""


def test_import_loads_only_scipy_linalg():
    src = str(Path(lqrfopid.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          check=True, cwd=src, env={**os.environ, "PYTHONPATH": src})
    modules = json.loads(done.stdout)
    public = {name.split(".")[1] for name in modules
              if name.startswith("scipy.") and not name.split(".")[1].startswith("_")}
    assert public <= {"linalg", "version"}, sorted(public)
    assert "scipy.linalg" in modules
    assert not [name for name in modules if name.split(".")[0] == "matplotlib"]
