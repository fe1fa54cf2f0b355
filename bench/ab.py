"""Interleaved in-process A/B timing of two source trees of iovslice.

Side A is the `src/` of a git revision, written out of `git archive` into a
temporary directory; side B is this checkout's `src/`. Both `iovslice`
packages are imported into this one process under distinct module names,
and a case calls the same entry point of each on the same inputs for
ROUNDS rounds, alternating which side runs first. A round whose two
outputs differ is refused. The report is each side's median time and the median paired
ratio B / A with a bootstrap interval over the rounds, so a ratio under 1
means B is faster.

Run from the repository root, one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python bench/ab.py --base HEAD~1 --case run_baseline
    OPENBLAS_NUM_THREADS=1 python bench/ab.py --base HEAD~1 --case cmd_baseline

Cases (each round r uses episode or seed r, the same on both sides):
- `run_baseline`: the three swap-matching algorithms on episode r of the
  default evaluation stream, each on a fresh link; outputs are the final
  columns, the objective history and the stats.
- `cmd_baseline`: `cli.cmd_baseline` of the three algorithms, 10 episodes
  at seed r; output is the CSV's bytes.
- `cmd_eval`: `cli.cmd_eval` of the committed checkpoint of the default
  config (the acceptance cache names it by the config's digest) over the
  sizes sweep, 6 episodes per point at seed r; output is the CSV's bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 20
RESAMPLES = 2000

# prepare(package, round, scratch directory) -> the timed call; the call's
# result is compared across sides by its repr
Case = Callable[[ModuleType, int, Path], Callable[[], object]]


class OutputsDiffer(ValueError):
    """The two sides returned different outputs for the same inputs."""


def load_package(src: Path, name: str) -> ModuleType:
    """Import the `iovslice` package under `src` as the module `name`, with
    `cli` and every module it imports (its relative imports load them as
    `name.<module>`)."""
    init = src / "iovslice" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def extract_src(rev: str, dest: Path) -> Path:
    """The `src/` tree of git revision `rev`, written into `dest`: only the
    archive's regular files, each at its own path under `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        for member in archive.getmembers():
            if member.isfile():
                path = dest / member.name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(archive.extractfile(member).read())
    return dest / "src"


def interleave(
    prepare_a: Callable[[int], Callable[[], object]],
    prepare_b: Callable[[int], Callable[[], object]],
    rounds: int,
) -> tuple[list[float], list[float]]:
    """Seconds per call of each side, round by round; A runs first in even
    rounds and B in odd ones. Raises OutputsDiffer when a round's outputs
    differ."""
    times: tuple[list[float], list[float]] = ([], [])
    for r in range(rounds):
        calls = (prepare_a(r), prepare_b(r))
        outs: list[object] = [None, None]
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            start = time.perf_counter()
            outs[side] = calls[side]()
            times[side].append(time.perf_counter() - start)
        if repr(outs[0]) != repr(outs[1]):
            raise OutputsDiffer(f"round {r}: the two sides' outputs differ")
    return times


def median_ratio(a: list[float], b: list[float]) -> tuple[float, float, float]:
    """Median of the paired ratios b / a, with a 95% bootstrap interval
    (RESAMPLES resamplings of the rounds, fixed seed)."""
    ratios = np.array(b) / np.array(a)
    picks = np.random.default_rng(0).integers(0, len(ratios), size=(RESAMPLES, len(ratios)))
    lo, hi = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return float(np.median(ratios)), float(lo), float(hi)


def _run_baseline(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    bl, cfg = pkg.baselines, pkg.config.RunConfig()
    stream = pkg.worlds.WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, cfg.seed, pkg.worlds.TAG_EVAL)
    scenario, link = stream(r)

    def call():
        runs = []
        for i, name in enumerate(bl.BASELINE_NAMES):
            fresh = pkg.phy.EpisodeLink(link.chan, cfg.channel, cfg.env.slot_duration_s)
            rng = pkg.worlds.algorithm_rng(cfg.seed, cfg.workload, r, i)
            run = bl.run_baseline(name, scenario, fresh, rng, cfg.swap_max_iters)
            runs.append((run.columns, run.objective_history, run.stats))
        return runs

    return call


def default_checkpoint(pkg: ModuleType) -> Path:
    """The acceptance cache's checkpoint of `pkg`'s default config, in the
    directory named by the config's digest."""
    config = pkg.config
    key = hashlib.sha256(config.serialize_config(config.RunConfig()).encode()).hexdigest()[:16]
    return ROOT / "tests" / ".acceptance-cache" / key / "checkpoint.bin"


def _csv_case(command: Callable[[ModuleType, object, Path], Path]) -> Case:
    def prepare(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
        cfg = replace(pkg.config.RunConfig(), seed=r)
        return lambda: command(pkg, cfg, work / f"{pkg.__name__}.csv").read_bytes()

    return prepare


CASES: dict[str, Case] = {
    "run_baseline": _run_baseline,
    "cmd_baseline": _csv_case(
        lambda pkg, cfg, out: pkg.cli.cmd_baseline(cfg, list(pkg.baselines.BASELINE_NAMES), out, 10, "none")
    ),
    "cmd_eval": _csv_case(lambda pkg, cfg, out: pkg.cli.cmd_eval(cfg, default_checkpoint(pkg), out, 6, "sizes")),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of side A")
    parser.add_argument("--case", choices=sorted(CASES), required=True)
    args = parser.parse_args(argv)
    case = CASES[args.case]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        a = load_package(extract_src(args.base, work / "base"), "iovslice_ab_a")
        b = load_package(ROOT / "src", "iovslice_ab_b")
        case(a, 0, work)()  # warm both sides: imports, caches, first allocations
        case(b, 0, work)()
        times_a, times_b = interleave(
            lambda r: case(a, r, work), lambda r: case(b, r, work), ROUNDS
        )
    ratio, lo, hi = median_ratio(times_a, times_b)
    print(f"| case | rounds | A {args.base} median ms | B median ms | B/A median | 95% interval |")
    print("| --- | --- | --- | --- | --- | --- |")
    print(
        f"| {args.case} | {ROUNDS} | {1e3 * np.median(times_a):.2f} | {1e3 * np.median(times_b):.2f}"
        f" | {ratio:.3f} | {lo:.3f}-{hi:.3f} |"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
