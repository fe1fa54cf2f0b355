import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_harnesses_run():
    """Every bench/ layer harness still runs against the current program, each
    case once with timing off, so a changed signature in the layers they
    call cannot leave them broken unnoticed."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
