"""iovslice benchmark: one workload per run, measured end to end or traced.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The program is imported
from ``src/`` and called in this process through ``iovslice.cli.cmd_*``;
each workload (see workloads.py) makes calls at successive call seeds for
about S seconds and checks every unit each call produced. With ``--trace 0`` the last line of
standard output reports the end-to-end metrics; with ``--trace 1`` the first
half of the time runs untraced and the second half traced, and the last line
reports the per-layer metrics. Manifest, result, outputs and spans go to
``perfbench/results/<workload>-seed<N>-trace<T>/``.
"""

import os

# Set before numpy loads, and inherited by the set-up probes. One process,
# one BLAS thread. numpy's huge-page advice is off because whether the kernel
# finds a free 2 MB page depends on the host: with it on, the peak RSS of
# identical train runs moved by up to 3 MB.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7  # set-up samples per untraced run; the median is reported
# Seconds one Reference pass takes on the development machine (a 2-vCPU
# Xeon VM at 2.1 GHz, median over one minute). Timed end-to-end values are
# scaled to the machine running at that speed.
REF_NOMINAL_S = 0.0123


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="self-test sizes, seconds long")
    return p.parse_args(argv)


def require_checkout() -> None:
    """Exit 2 unless the program and the committed artifacts are present."""
    needed = [ROOT / "src" / "iovslice" / "cli.py", ROOT / "tests" / ".acceptance-cache"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a checkout of iovslice, missing {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)


class Reference:
    """A fixed mix of the three kinds of work the workloads do (interpreter
    loops and dict updates, one-row forward passes of small numpy calls, and
    batch matrix products), timed between calls to see how fast the machine
    runs now.

    On a shared VM the same code runs up to 1.7 times slower for tens of
    seconds at a time, so raw times of one run say more about the neighbours
    than about the program. Dividing each call's time by the reference time
    measured next to it (before and after) cancels most of that: on 5-second
    windows of rollout calls it cut the variation from 12% to 4%.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.row = (rng.random(40), rng.random(33))
        self.w1, self.w2 = rng.random((73, 256)), rng.random((256, 128))
        self.a, self.b = rng.random((32, 128)), rng.random((128, 128))

    def time(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(45_000):
            total += i * i
        counts: dict[int, int] = {}
        for i in range(12_000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        for _ in range(225):
            x = np.concatenate([np.clip(self.row[0], 0.0, 1.0), self.row[1]])
            np.maximum(np.maximum(x @ self.w1, 0.0) @ self.w2, 0.0)
        for _ in range(90):
            np.maximum(self.a @ self.b, 0.0)
        return time.perf_counter() - t0


def scaled(durations: list[float], refs: list[float]) -> list[float]:
    """Durations at reference speed; duration i sits between refs i and i + 1."""
    return [d * 2 * REF_NOMINAL_S / (r0 + r1) for d, r0, r1 in zip(durations, refs, refs[1:])]


def measure_setup(name: str, seed: int, tiny: bool, work: Path, probes: int, reference: Reference) -> dict:
    """Seconds from launching a fresh process until its first episode can start."""
    samples = []
    refs = [reference.time()]
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), "1" if tiny else "0", str(work)]
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
        samples.append(elapsed)
        refs.append(reference.time())
    return {"samples_s": samples, "reference_s": refs}


def run_calls(workload, work: Path, budget_s: float, recorder=None, reference=None) -> dict:
    """Make calls 0, 1, 2, ... while another one fits in the budget (at least
    one), timing each call (and the reference before and after each, if
    given) and checking every unit it produced."""
    durations: list[float] = []
    refs = [reference.time()] if reference is not None else []
    failed = 0
    notes: list[str] = []
    start = time.perf_counter()
    for j in range(workload.max_calls):
        with recorder.installed(workload.root) if recorder is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            output = workload.call(work, j)
            durations.append(time.perf_counter() - t0)
        if reference is not None:
            refs.append(reference.time())
        verdict = workload.check(output, j)
        failed += len(verdict.failed)
        notes.extend(verdict.notes[: 10 - len(notes)])
        if time.perf_counter() - start + statistics.median(durations) > budget_s:
            break
    return {
        "durations_s": durations,
        "reference_s": refs,
        "attempted": workload.units * len(durations),
        "failed": failed,
        "notes": notes,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str | None:
    """HEAD of the checkout if it is a git work tree, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, workload, phases: dict, pinned: int, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_config = blas.get("openblas configuration", "")
    words = blas_config.split()
    core = next((w for w, nxt in zip(words, words[1:]) if nxt.startswith("MAX_THREADS")), None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "pinned_cpu": pinned,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "core": core, "config": blas_config},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "git_revision": _git_revision(),
        "units": {
            "unit": workload.unit,
            "per_call": workload.units,
            **{f"calls_{phase}": len(r["durations_s"]) for phase, r in phases.items()},
        },
    }


def update_flop(cfg) -> int:
    """Matrix-multiply FLOPs of one gradient update, computed from the shapes.

    One forward pass costs 2*batch*W, W being the summed weight-matrix sizes
    (hidden stack plus both heads). An update runs the target forward, the
    online forward and a backward pass of two products per layer (weight
    gradient and input gradient, the latter also for the first layer), i.e.
    four forward passes, five with double-Q. Bias adds, activations and the
    Adam step are not counted.
    """
    dims = [cfg.env.obs_dim, *cfg.train.hidden]
    weights = sum(a * b for a, b in zip(dims[:-1], dims[1:])) + dims[-1] * (1 + cfg.env.n_actions)
    passes = 5 if cfg.train.double_q else 4
    return passes * 2 * cfg.train.batch_size * weights


def end_to_end_metrics(setup: dict, calls: dict) -> dict:
    """Set-up time and throughput at reference speed (see Reference), peak RSS."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kB on Linux
    setup_s = scaled(setup["samples_s"], setup["reference_s"])
    calls_s = scaled(calls["durations_s"], calls["reference_s"])
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "episodes_per_s": {"value": calls["attempted"] / sum(calls_s), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer_metrics(workload, recorder, summary: dict, untraced: dict, traced: dict) -> dict:
    from spans import LEARNER_SPANS, SPANS

    spans = summary["spans"]
    wall_ns = summary["wall_ns"]
    zero = {"calls": 0, "self_ns": 0, "incl_ns": 0}
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ratio(num, den):
        return num / den if den else 0.0  # 0 when the layer did not run

    for name in SPANS:
        s = spans.get(name, zero)
        put(f"{name}.calls", s["calls"], "count")
        put(f"{name}.self_ms", ratio(s["self_ns"], s["calls"]) / 1e6, "ms")
        put(f"{name}.self_share", ratio(s["self_ns"], wall_ns), "frac")

    updates = spans.get("dqn.adam_step", zero)["calls"]
    learner_ns = sum(spans.get(n, zero)["incl_ns"] for n in LEARNER_SPANS)
    flop = update_flop(workload.cfg)
    put("dqn.update_ms", ratio(learner_ns, updates) / 1e6, "ms")
    put("dqn.update_mflop", flop / 1e6, "MFLOP")
    put("dqn.update_gflops", ratio(flop * updates, learner_ns), "GFLOP/s")

    episodes = spans.get("baselines.run_baseline", zero)["calls"]
    evals = spans.get("baselines.evaluate_plan", zero)["calls"]
    put("baselines.evals_per_episode", ratio(evals, episodes), "count")
    put("baselines.swap_accepted", recorder.swap_accepted, "count")
    put("baselines.swap_accept_ratio", ratio(recorder.swap_accepted, evals), "frac")

    instances = spans.get("oracle.brute_force_optimal", zero)["calls"]
    put("oracle.slot_rates_calls", summary["oracle_slot_rates"], "count")
    put("oracle.slot_rates_per_instance", ratio(summary["oracle_slot_rates"], instances), "count")

    # both phases start at call 0, so compare the calls they have in common
    n = min(len(untraced["durations_s"]), len(traced["durations_s"]))
    untraced_ms = sum(untraced["durations_s"][:n]) / (n * workload.units) * 1e3
    traced_ms = sum(traced["durations_s"][:n]) / (n * workload.units) * 1e3
    put("trace.untraced_ms_per_unit", untraced_ms, "ms")
    put("trace.traced_ms_per_unit", traced_ms, "ms")
    put("trace.overhead_frac", traced_ms / untraced_ms - 1.0, "frac")
    return out


def trace_consistency(workload, summary: dict, traced: dict) -> list[str]:
    """Training runs one Adam step per micro-step once the replay warmup is
    reached, so every traced train call must record exactly that many."""
    if workload.name != "train":
        return []
    calls = summary["spans"].get("dqn.adam_step", {"calls": 0})["calls"]
    want = workload.expected_updates * len(traced["durations_s"])
    return [] if calls == want else [f"dqn.adam_step.calls {calls} != micro-steps - warmup + 1 = {want}"]


def pin_cpu() -> tuple[int, int]:
    """Pin this process, and the probes it starts, to the highest-numbered
    CPU it may use. On a small shared VM the CPUs do not run at the same
    speed (the first one also takes the device interrupts), and a process
    that migrates between them measures a mix; one fixed CPU keeps runs
    comparable. Returns (pinned CPU, CPUs the process could use before)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return max(allowed), len(allowed)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    pinned, nproc = pin_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(out, ignore_errors=True)
    work = out / "work"
    work.mkdir(parents=True)

    if args.trace == 0:
        reference = Reference()
        setup = measure_setup(args.workload, args.seed, args.tiny, work, 1 if args.tiny else SETUP_PROBES, reference)
        calls = run_calls(workload, work, args.seconds, reference=reference)
        phases = {"untraced": calls}
        metrics = end_to_end_metrics(setup, calls)
        extra = {"setup": setup, "raw_episodes_per_s": calls["attempted"] / sum(calls["durations_s"])}
        problems: list[str] = []
    else:
        from spans import SpanRecorder

        untraced = run_calls(workload, work, args.seconds / 2)
        recorder = SpanRecorder()
        traced = run_calls(workload, work, args.seconds / 2, recorder)
        phases = {"untraced": untraced, "traced": traced}
        summary = recorder.summary()
        metrics = per_layer_metrics(workload, recorder, summary, untraced, traced)
        problems = trace_consistency(workload, summary, traced)
        recorder.write(out / "spans.csv.gz")
        extra = {"span_count": len(recorder)}

    attempted = sum(r["attempted"] for r in phases.values())
    failed = sum(r["failed"] for r in phases.values())
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        **result,
        "failed_frac": failed / attempted,
        "problems": problems,
        "phases": phases,
        **extra,
    }
    (out / "manifest.json").write_text(json.dumps(manifest(args, workload, phases, pinned, nproc), indent=1) + "\n")
    (out / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    for note in problems + [n for r in phases.values() for n in r["notes"]]:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
