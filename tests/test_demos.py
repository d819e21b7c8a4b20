"""Every script in ``demos/`` runs to its end: all at once, each as its own
subprocess in a working directory of its own, so the test takes about as
long as the slowest demo."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run(tmp_path):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = {}
    for script in DEMOS:
        cwd = tmp_path / script.stem
        cwd.mkdir()
        with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
            runs[script.name] = (cwd, subprocess.Popen([sys.executable, str(script)], cwd=cwd,
                                                       env=env, stdout=out, stderr=err))
    try:
        assert len(runs) == 6
        for name, (cwd, proc) in runs.items():
            code = proc.wait(timeout=300)
            err = (cwd / "stderr.txt").read_text()
            assert code == 0 and "Traceback" not in err, (name, err)
    finally:
        for _, proc in runs.values():
            proc.kill()
