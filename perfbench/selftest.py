"""Self-test of the benchmark at tiny sizes; finishes in seconds.

usage: python3 perfbench/selftest.py   (from the root of a checkout)

Runs every workload once untraced and once traced at seed 0 with ``--tiny``
and checks that each run exits 0, ends with a result line that carries a
correctness verdict (``true`` for the workloads BENCHMARK.json lists),
prints exactly the metrics BENCHMARK.json declares for its mode (names and
units), and leaves its manifest and result behind, plus recorded spans when
traced. Then copies only BENCHMARK.json and perfbench/ into an empty
directory and checks that the benchmark exits non-zero there without
printing a result. Exits 1 on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    raise SystemExit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, proc, declared: dict[str, str], listed: bool) -> dict:
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail(f"{workload} trace={trace}: no correctness verdict")
    if listed and not result["correct"]:
        fail(f"{workload} trace={trace}: verdict false at seed 0\n{proc.stderr}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        fail(f"{workload} trace={trace}: attempted/failed {result['attempted']}/{result['failed']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        undeclared = sorted(set(printed) - set(declared))
        missing = sorted(set(declared) - set(printed))
        wrong_unit = sorted(n for n in set(printed) & set(declared) if printed[n] != declared[n])
        fail(f"{workload} trace={trace}: undeclared {undeclared}, missing {missing}, wrong unit {wrong_unit}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{workload} trace={trace}: {name} = {m['value']!r}")
    if trace and not result["metrics"]["worlds.episode.calls"]["value"]:
        fail(f"{workload} trace=1: no spans recorded")
    out = HERE / "results" / f"{workload}-seed0-trace{trace}-tiny"
    for name in ["manifest.json", "result.json"] + (["spans.csv.gz"] if trace else []):
        if not (out / name).is_file():
            fail(f"{workload} trace={trace}: {out / name} missing")
    return result


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in bench["workloads"]}
    unknown = sorted(listed - set(WORKLOADS))
    if unknown:
        fail(f"BENCHMARK.json names workloads run.py does not know: {unknown}")
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = check_result(workload, trace, run(ROOT, workload, trace), declared[trace], workload in listed)
            print(f"ok   {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")

    bare = HERE / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(bare, "rollout", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without the program the benchmark exited {proc.returncode} and printed {proc.stdout!r}")
    print(f"ok   without the program: exit {proc.returncode}, nothing printed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
