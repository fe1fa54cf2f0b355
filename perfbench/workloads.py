"""The benchmark's workloads: one real ``iovslice.cli.cmd_*`` call per repeat,
and the correctness verdict for every unit that call produced.

Each workload is a closed loop of sequential calls. Call j of a run with
seed s passes ``RunConfig.seed = s * SEED_STRIDE + j * seed_step``, so call 0
runs at the run's seed itself and later calls see other vehicle sets: one
``WorldStream`` keeps its vehicles for every episode, and how much work an
episode costs depends on them, so a run averages over many sets instead of
measuring one. Runs at different seeds use disjoint call seeds. A call's
output depends only on its config, so a call repeated in the same process
(the traced half of a traced run repeats the untraced half's calls) must
reproduce its first output byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

from iovslice import cli
from iovslice.baselines import BASELINE_NAMES
from iovslice.config import RunConfig
from iovslice.dqn import load_checkpoint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / "tests" / ".acceptance-cache"
CHECKPOINT = CACHE / "ad8e64e49a505c85" / "checkpoint.bin"
EVAL_SIZES_CSV = CACHE / "eval-sizes" / "dql.csv"
EVAL_DEFAULT_BASELINES_CSV = CACHE / "eval-default" / "baselines.csv"
EXPECTED = HERE / "expected.json"
SEED_STRIDE = 1_000_000

# Written out here rather than imported from cli, so a change of format in
# the program fails the check instead of moving it.
EVAL_SCHEMA = b"# schema: iovslice-eval/1\n"
EVAL_HEADER = (
    b"algorithm,episode,slice1_delivered,slice2_delivered,prr,slice2_bytes,"
    b"deadline_slots,slice1_packets,slice2_packets,channel_hash\r\n"
)
TRAIN_SCHEMA = b"# schema: iovslice-training-log/1\n"
TRAIN_HEADER = b"episode,return,moving_avg_200,epsilon,loss_mean\r\n"


class Verdict:
    """Failed units of one call, with a few messages saying why."""

    def __init__(self) -> None:
        self.failed: set[int] = set()
        self.notes: list[str] = []

    def fail(self, unit: int, why: str) -> None:
        self.failed.add(unit)
        if len(self.notes) < 10:
            self.notes.append(why)

    def fail_all(self, units: int, why: str) -> None:
        for u in range(units):
            self.fail(u, why)


def _split(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


def _cached_rows(path: Path) -> set[bytes]:
    """Rows of a committed eval CSV, raw bytes. A row carries its own key
    (algorithm, episode, payload size), so a row equals the committed row
    with its key exactly when it is one of these."""
    return set(_split(path)[2:])


def _check_eval_rows(
    lines: list[bytes], units: int, m: int, cached: set[bytes] | None, verdict: Verdict
) -> None:
    """Checks shared by rollout and baselines rows.

    Every row: prr empty or in [0, 1], packets per slice in [0, m], and the
    same channel_hash as every other row of its episode index (sweep points
    share channel draws, and algorithms are paired). With ``cached`` (seed 0)
    each row must also equal the committed row with the same key byte for byte.
    """
    if lines[:2] != [EVAL_SCHEMA, EVAL_HEADER] or len(lines) != 2 + units:
        verdict.fail_all(units, f"eval CSV has a wrong schema/header or {len(lines) - 2} rows, want {units}")
        return
    rows = [next(csv.reader([line.decode()])) for line in lines[2:]]
    hashes: dict[str, str] = {}
    for row in rows:
        hashes.setdefault(row[1], row[9])
    for u, (line, row) in enumerate(zip(lines[2:], rows)):
        prr = row[4]
        if prr and not 0.0 <= float(prr) <= 1.0:
            verdict.fail(u, f"row {u}: prr {prr} outside [0, 1]")
        if not all(0 <= int(row[c]) <= m for c in (7, 8)):
            verdict.fail(u, f"row {u}: packets {row[7]},{row[8]} outside [0, {m}]")
        if row[9] != hashes[row[1]]:
            verdict.fail(u, f"row {u}: channel_hash {row[9]} unpaired at episode {row[1]}")
        if cached is not None and line not in cached:
            verdict.fail(u, f"row {u}: differs from the committed row {line!r}")


class _Workload:
    name: str
    unit: str
    root: str  # span name of one call in the traced run
    units: int  # units per call
    seed_step = 1  # call seeds consumed per call

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cfg = RunConfig(seed=seed)
        self._outputs: dict[int, bytes] = {}

    @property
    def max_calls(self) -> int:
        return SEED_STRIDE // self.seed_step

    def config(self, j: int) -> RunConfig:
        return replace(self.cfg, seed=self.seed * SEED_STRIDE + j * self.seed_step)

    def _reproduces(self, j: int, output: bytes, verdict: Verdict) -> None:
        """A repeated call must reproduce the first output of call j."""
        if self._outputs.setdefault(j, output) != output:
            verdict.fail_all(self.units, f"call {j} did not reproduce its first output")


class Train(_Workload):
    """cmd_train on the default config with 30 episodes. The default warmup
    of 1000 transitions fills in episode 17, and the updates after it take
    most of the call's time (about 90% here)."""

    name = "train"
    unit = "training episode"
    root = "cli.cmd_train"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        train = replace(self.cfg.train, episodes=2, warmup=60) if tiny else replace(self.cfg.train, episodes=30)
        self.cfg = replace(self.cfg, train=train)
        self.units = train.episodes
        env = self.cfg.env
        self.micro_steps = train.episodes * env.m * env.T

    def call(self, work: Path, j: int):
        return cli.cmd_train(self.config(j), work / "train", quiet=True)

    def check(self, output, j: int) -> Verdict:
        ckpt, log_path = output
        verdict = Verdict()
        tc, env = self.cfg.train, self.cfg.env
        lines = _split(log_path)
        if lines[:2] != [TRAIN_SCHEMA, TRAIN_HEADER] or len(lines) != 2 + self.units:
            verdict.fail_all(self.units, f"training log has a wrong schema/header or {len(lines) - 2} rows")
            return verdict
        steps_per_episode = env.m * env.T
        for u, line in enumerate(lines[2:]):
            episode, ret, _, eps, loss = line.decode().rstrip("\r\n").split(",")
            warm = (u + 1) * steps_per_episode >= tc.warmup
            if int(episode) != u + 1 or not math.isfinite(float(ret)) or not 0.0 < float(eps) <= 1.0:
                verdict.fail(u, f"log row {u}: bad episode/return/epsilon {line!r}")
            elif warm != bool(loss) or (loss and not math.isfinite(float(loss))):
                verdict.fail(u, f"log row {u}: loss {loss!r} but replay warm={warm}")
        net = load_checkpoint(ckpt)
        if (net.obs_dim, net.hidden, net.n_actions) != (env.obs_dim, tc.hidden, env.n_actions):
            verdict.fail_all(self.units, f"checkpoint shapes {net.obs_dim} {net.hidden} {net.n_actions}")
        digests = {
            "checkpoint_sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
            "log_sha256": hashlib.sha256(log_path.read_bytes()).hexdigest(),
        }
        expected = json.loads(EXPECTED.read_text())["train"]
        if (self.config(j).seed, tc.episodes, tc.warmup) == (expected["seed"], expected["episodes"], expected["warmup"]):
            for key, value in digests.items():
                if expected[key] != value:
                    verdict.fail_all(self.units, f"{key} {value} != recorded {expected[key]}")
        self._reproduces(j, json.dumps(digests).encode(), verdict)
        return verdict

    @property
    def expected_updates(self) -> int:
        """Gradient updates per call: one per micro-step from the one that
        fills the replay warmup onwards."""
        return self.micro_steps - self.cfg.train.warmup + 1


class Rollout(_Workload):
    """cmd_eval of the committed default checkpoint over the sizes sweep."""

    name = "rollout"
    unit = "eval episode"
    root = "cli.cmd_eval"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.episodes = 1 if tiny else 6
        self.units = self.episodes * len(self.cfg.size_multipliers)
        self.cached = _cached_rows(EVAL_SIZES_CSV)

    def call(self, work: Path, j: int):
        return cli.cmd_eval(self.config(j), CHECKPOINT, work / "dql.csv", self.episodes, "sizes")

    def check(self, output, j: int) -> Verdict:
        verdict = Verdict()
        lines = _split(output)
        cached = self.cached if self.config(j).seed == 0 else None
        _check_eval_rows(lines, self.units, self.cfg.env.m, cached, verdict)
        self._reproduces(j, b"".join(lines), verdict)
        return verdict


class Baselines(_Workload):
    """cmd_baseline with all three swap-matching algorithms at the default point."""

    name = "baselines"
    unit = "algorithm-episode"
    root = "cli.cmd_baseline"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.episodes = 1
        self.units = self.episodes * len(BASELINE_NAMES)
        self.cached = _cached_rows(EVAL_DEFAULT_BASELINES_CSV)

    def call(self, work: Path, j: int):
        return cli.cmd_baseline(self.config(j), list(BASELINE_NAMES), work / "baselines.csv", self.episodes, "none")

    def check(self, output, j: int) -> Verdict:
        verdict = Verdict()
        lines = _split(output)
        cached = self.cached if self.config(j).seed == 0 else None
        _check_eval_rows(lines, self.units, self.cfg.env.m, cached, verdict)
        self._reproduces(j, b"".join(lines), verdict)
        return verdict


class Oracle(_Workload):
    """cmd_oracle over tiny instances (m <= 2, T <= 4); instance k of a call
    runs at the call's seed + k, so calls step their seed by the instance
    count. The optimum must be at least every policy's delivered count;
    instances where it is not are failures of the program (the oracle searches
    a narrower action set than the baselines), and they are counted, not
    skipped."""

    name = "oracle"
    unit = "oracle instance"
    root = "cli.cmd_oracle"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.units = self.seed_step = 3 if tiny else 50

    def call(self, work: Path, j: int):
        return cli.cmd_oracle(self.config(j), self.units, work / "oracle.csv")

    def check(self, output, j: int) -> Verdict:
        verdict = Verdict()
        if [r["instance"] for r in output] != list(range(self.units)):
            verdict.fail_all(self.units, "oracle returned the wrong instances")
            return verdict
        for u, r in enumerate(output):
            best = max(r[n] for n in BASELINE_NAMES)
            if not 0 <= r["optimum"] <= 2 * r["m"] or min(r[n] for n in BASELINE_NAMES) < 0:
                verdict.fail(u, f"call {j} instance {u}: counts out of range {r}")
            elif best > r["optimum"]:
                verdict.fail(u, f"call {j} instance {u}: a policy delivers {best} > optimum {r['optimum']}")
        self._reproduces(j, json.dumps(output).encode(), verdict)
        return verdict


WORKLOADS = {w.name: w for w in (Train, Rollout, Baselines, Oracle)}
