"""Set-up probe: a fresh process that runs one workload call up to the moment
its first episode would start, prints ``ready`` and exits.

run.py launches it several times and times each launch up to the ``ready``
line, so the set-up time covers interpreter start, imports, config, the
checkpoint load (rollout), network and replay allocation (train) and
``WorldStream`` construction, exactly as the real call performs them.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED TINY(0|1) WORK_DIR
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py, before numpy loads
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iovslice import worlds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FirstEpisode(BaseException):
    """Raised where the first episode would start; not an error."""


def _stop(stream, episode_idx):
    raise FirstEpisode


def main() -> int:
    name, seed, tiny, work = sys.argv[1:5]
    workload = WORKLOADS[name](int(seed), tiny == "1")
    worlds.WorldStream.__call__ = _stop
    try:
        workload.call(Path(work), 0)
    except FirstEpisode:
        print("ready", flush=True)
        return 0
    print(f"{name}: the call finished without starting an episode", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
