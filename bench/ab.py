"""Interleaved in-process A/B timing of two source trees of iovslice, the
one timing harness for the program's layers and commands.

Side A is the `src/` of a git revision, written out of `git archive` into a
temporary directory; side B is this checkout's `src/`. Both `iovslice`
packages are imported into this one process under distinct module names,
and a case calls the same entry point of each on the same inputs for
ROUNDS rounds, alternating which side runs first. A round whose two
outputs differ in any bit is refused. The report is one line naming the
machine, the numpy and BLAS builds, the OpenBLAS configuration in use (it
names the CPU kernel OpenBLAS dispatched to, which decides the training
bytes), the BLAS thread count, the base commit and, per side, whether its learner ran on the compiled kernels of
`iovslice.dqn.kernels` (and which compiler built them) or on the numpy
fallback, and whether its network passes called numpy's BLAS from those
kernels or ran as numpy code, over a table of each side's median time and
the median paired ratio B / A with a bootstrap interval over the rounds, so
a ratio under 1 means B is faster. Only the ratio and its interval compare across
invocations: on a shared VM the medians of separate runs drift (two runs
15 minutes apart on a 2-vCPU VM read `apply_slot_cold` 1.91 and then
2.64 ms, while every B/A stayed within 0.97-1.03).

On the learner's cases a B/A near 1 does not resolve, and a tree timed
against itself does not give their zero. On a 2-vCPU x86-64 VM (numpy
2.4, OpenBLAS 0.3.31 on its SkylakeX kernel, one BLAS thread), eight runs
of a clean clone against its own HEAD read these medians, and trees that
leave a case's code as it was moved them as far:

  case             time per timed call   tree against itself   code of the case unchanged
  forward_row      0.8-1.1 ms            0.99-1.08             -
  forward_batch    6-9 ms                0.89-0.95             0.99-1.02
  loss_and_grads   20-30 ms              0.98-1.00             1.00-1.03
  train_update     47-51 ms              1.00-1.02             0.99
  greedy_episode   1.7-1.9 ms            0.92-0.97             1.07

The last column's trees dropped two unused attributes of `mlp._Buffers`
(forward_batch 0.99-1.00), or added a comment to `_kernels.c`, so that each
side loads its own library. So forward_row, forward_batch and
greedy_episode resolve only a change beyond about 10% either way, and
loss_and_grads and train_update one beyond about 3%; below that, time the
two trees apart, one process each (as `perfbench` does), or count work.

Run from the repository root; BLAS runs one thread unless
OPENBLAS_NUM_THREADS says otherwise:

    python bench/ab.py --base HEAD~1 --case run_baseline

Each round prepares fresh inputs for both sides and times only the call.
The collector runs before each timed call and is off during it, so a
sweep of what set-up or the other side left behind is not charged to the
call. An entry point that runs in under about 1 ms is called CALLS times
in one timed call (the cases marked "xCALLS"), so those times are per
CALLS calls.

Cases (round r uses episode or seed r, the same on both sides). The slot
path and the baselines play episode r of the default evaluation stream,
and SLOT is a slot inside its slice-2 window:
- `apply_slot_cold` (xCALLS): `phy.apply_slot` at SLOT from the
  start-of-episode ledger, every source on the air at 30 dBm with its
  slice-1 packet over 400 m, the sources spread over the resource blocks;
  each call through a fresh link of the episode's channel, so every group
  and rate is solved. Outputs are each next ledger without its packets
  (the input's, whose fields may differ between trees) and the effects.
- `apply_slot_warm` (xCALLS): the same call through one link that has
  resolved it before: one memo lookup returns the slot's per-source
  effects, and what is left is the mask and one drain-and-mark loop.
- `evaluate_plan` (xCALLS): one swap-matching trial, `baselines.evaluate_plan`
  replaying the columns of the first move `baselines._moves` yields for
  NOMA-MP's initial plan, from the plan's `Record`, through the episode's
  link; outputs are its ledgers without their packets.
- `action_mask` (xCALLS): `SlicingEnv.action_mask` for the second vehicle
  of slot SLOT, after random actions.
- `initial_rb_allocation_oma`, `initial_rb_allocation_noma` (xCALLS): the
  greedy start on OMA-MP's coverage draws, under OMA and under NOMA, each
  call on a fresh link.
- `run_baseline`: the three swap-matching algorithms, each on a fresh link;
  outputs are the final columns, the objective history and the stats.
- `cmd_baseline`: `cli.cmd_baseline` of the three algorithms, 10 episodes
  at seed r; output is the CSV's bytes.
- `cmd_eval`: `cli.cmd_eval` of the committed checkpoint of the default
  config (the acceptance cache names it by the config's digest) over the
  sizes sweep, 6 episodes per point at seed r; output is the CSV's bytes.
- `cmd_oracle`: `cli.cmd_oracle`, 20 tiny instances at seed r; output is
  the CSV's bytes.
- `cmd_plotdata`: `cli.cmd_plotdata` of the acceptance cache's sizes-sweep
  DQL rows and default-point baseline rows (1,600 rows), the same every
  round; output is the CSV's bytes.
- `cmd_train`: `cli.cmd_train` of the default config cut to 8 episodes with
  a warmup of 100 transitions, so 381 gradient updates run, at run and
  train seed r; output is the checkpoint's bytes and the log's.
The learner cases run at the default sizes (73 inputs, hidden (256, 128,
120), 120 actions, batch 32):
- `replay_sample` (xCALLS): `PrioritizedReplay.sample` of a batch (beta
  0.4) from a buffer filled to its capacity of 100,000 with priorities
  drawn at seed r; its observation rows stay zero, so setting it up writes
  no 117 MB of transitions.
- `replay_update` (xCALLS): `update_priorities` of a sampled batch on such
  a buffer.
- `replay_add` (xCALLS): `PrioritizedReplay.add` of one transition with
  observations drawn at seed r into such a buffer, each evicting the oldest.
- `train_update` (xCALLS): one whole update as `train` runs it, on a buffer
  of 1,500 transitions drawn at seed r, their priorities set from
  exponential draws: `sample` (beta 0.4), `td_targets` from a target copy of
  the network, `loss_and_grads`, `Adam.step` from t = 0 and
  `update_priorities`. Outputs are the parameter bytes, the tree's nodes and
  `max_priority`.
- `adam_early`, `adam_late` (xCALLS): one `Adam` step over every parameter
  from t = 0 (t < 356: both bias corrections divide) and from t = 40,000
  (t > 37,412: both have rounded to 1.0).
- `adam_stuck` (xCALLS): the `adam_late` step on a state where every tenth
  element has a zero gradient and a first moment of +-k * 2^-1074, k in
  1..5, stuck at a fixed point of m * 0.9 as dead units' moments get in a
  long training; outputs are the parameters and both moments.
- `loss_and_grads` (xCALLS): `DuelingQNetwork.loss_and_grads` on one batch.
- `forward_row` (xCALLS): `int(net.forward(obs).argmax())`, the action
  `DuelingQNetwork.greedy_action` picks, with the committed checkpoint of
  the default config, over the first CALLS observations of its greedy
  rollout of episode r; outputs are the Q rows.
- `greedy_episode`: `greedy_episode` of the committed checkpoint of the
  default config on episode r of the evaluation stream, through a fresh
  link of its channel; output is the episode's stats.
- `forward_batch` (xCALLS): `td_targets`' forward of a batch of observation
  rows drawn at seed r; outputs are the Q arrays.
The oracle case:
- `brute_force_optimal`: the exhaustive search on episode r of the
  evaluation stream at seed 2 with m=2 sources, n=4 destinations, F=2
  resource blocks and T=3 slots (a 3-slot safety window), on the world's
  fresh link.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import io
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

# numpy reads this once, when it is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / "tests" / ".acceptance-cache"
PLOT_INPUTS = [CACHE / "eval-sizes" / "dql.csv", CACHE / "eval-default" / "baselines.csv"]
ROUNDS = 20
RESAMPLES = 2000
CALLS = 50  # calls per timed call of an entry point that runs in under about 1 ms
SLOT = 3  # a slot inside the default slice-2 window

# prepare(package, round, scratch directory) -> the timed call; the call's
# result is compared across sides through `exact`
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


def exact(value: object) -> object:
    """`value` as nested tuples that are equal exactly when two outputs
    match bit for bit: an array or numpy scalar by its dtype, shape and
    bytes, a float by its hex form, and a list, tuple or dataclass item by
    item, each tagged with its type's name. The two sides' classes
    live under different module names, so `==` between them and pickle
    cannot compare them, and a repr rounds floats and elides long arrays."""
    if isinstance(value, (np.ndarray, np.generic)):
        array = np.asarray(value)
        return ("ndarray", array.dtype.str, array.shape, array.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    name = type(value).__qualname__
    if dataclasses.is_dataclass(value):
        return (name, tuple(exact(getattr(value, field.name)) for field in dataclasses.fields(value)))
    if isinstance(value, (list, tuple)):
        return (name, tuple(exact(item) for item in value))
    if value is None or isinstance(value, (int, str, bytes)):
        return (name, value)
    raise TypeError(f"no exact encoding for a {name}")


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
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                outs[side] = calls[side]()
                times[side].append(time.perf_counter() - start)
            finally:
                gc.enable()
        if exact(outs[0]) != exact(outs[1]):
            raise OutputsDiffer(f"round {r}: the two sides' outputs differ")
    return times


def median_ratio(a: list[float], b: list[float]) -> tuple[float, float, float]:
    """Median of the paired ratios b / a, with a 95% bootstrap interval
    (RESAMPLES resamplings of the rounds, fixed seed)."""
    ratios = np.array(b) / np.array(a)
    picks = np.random.default_rng(0).integers(0, len(ratios), size=(RESAMPLES, len(ratios)))
    lo, hi = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return float(np.median(ratios)), float(lo), float(hi)


def _world(pkg: ModuleType, r: int):
    """The default config and episode r of its evaluation stream."""
    cfg = pkg.config.RunConfig()
    return cfg, pkg.worlds.WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, cfg.seed, pkg.worlds.TAG_EVAL)(r)


def _fresh(pkg: ModuleType, cfg, link):
    """A link of `link`'s channel with empty memos."""
    return pkg.phy.EpisodeLink(link.chan, cfg.channel, cfg.env.slot_duration_s)


def _apply_slot(warm: bool) -> Case:
    def prepare(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
        phy = pkg.phy
        cfg, (scenario, link) = _world(pkg, r)
        ledger = phy.DeliveryLedger.start(scenario.packets)
        actions = [phy.SlotAction(pkg.scenario.SLICE_THROUGHPUT, 400.0, s % cfg.env.F, 30.0) for s in range(cfg.env.m)]
        if warm:
            phy.apply_slot(ledger, actions, link, SLOT)
        links = [link] * CALLS if warm else [_fresh(pkg, cfg, link) for _ in range(CALLS)]

        def call():
            out = [phy.apply_slot(ledger, actions, each, SLOT) for each in links]
            return [(after[1:], effects) for after, effects in out]  # a ledger's packets are its input's

        return call

    return prepare


def _evaluate_plan(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    bl = pkg.baselines
    cfg, (scenario, link) = _world(pkg, r)
    m, _, F, T = link.gain_lin.shape
    rng = pkg.worlds.algorithm_rng(cfg.seed, cfg.workload, r, bl.BASELINE_NAMES.index("NOMA-MP"))
    coverage, packet = bl.random_coverage_slice(m, T, rng)
    options = bl.slot_options(coverage, packet, bl.draw_powers("NOMA-MP", m, T, rng), F)
    freqs = bl.initial_rb_allocation(link, coverage, oma=False)
    columns = bl.plan_columns(options, freqs)
    record = bl.plan_record(columns, scenario, link)
    t, column, _ = next(bl._moves(options, columns, freqs, record.ledgers, False))
    trial = columns.copy()
    trial[t] = column
    def call():
        out = [bl.evaluate_plan(trial, scenario, link, record, t) for _ in range(CALLS)]
        return [[ledger[1:] for ledger in ledgers] for ledgers in out]  # a ledger's packets are its input's

    return call


def _action_mask(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    cfg, world = _world(pkg, r)
    env = pkg.env.SlicingEnv(cfg.env)
    env.reset(*world)
    rng = np.random.default_rng(r)
    for _ in range(SLOT * cfg.env.m + 1):
        env.step(int(rng.integers(cfg.env.n_actions)))
    return lambda: [env.action_mask() for _ in range(CALLS)]


def _initial_rb_allocation(oma: bool) -> Case:
    def prepare(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
        bl = pkg.baselines
        cfg, (_, link) = _world(pkg, r)
        m, _, _, T = link.gain_lin.shape
        coverage, _ = bl.random_coverage_slice(m, T, pkg.worlds.algorithm_rng(cfg.seed, cfg.workload, r, 0))
        links = [_fresh(pkg, cfg, link) for _ in range(CALLS)]
        return lambda: [bl.initial_rb_allocation(each, coverage, oma) for each in links]

    return prepare


def _run_baseline(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    bl = pkg.baselines
    cfg, (scenario, link) = _world(pkg, r)

    def call():
        runs = []
        for i, name in enumerate(bl.BASELINE_NAMES):
            rng = pkg.worlds.algorithm_rng(cfg.seed, cfg.workload, r, i)
            run = bl.run_baseline(name, scenario, _fresh(pkg, cfg, link), rng, cfg.swap_max_iters)
            runs.append((run.columns, run.objective_history, run.stats))
        return runs

    return call


def default_checkpoint(pkg: ModuleType) -> Path:
    """The acceptance cache's checkpoint of `pkg`'s default config, in the
    directory named by the config's digest."""
    config = pkg.config
    key = hashlib.sha256(config.serialize_config(config.RunConfig()).encode()).hexdigest()[:16]
    return CACHE / key / "checkpoint.bin"


def _csv_case(command: Callable[[ModuleType, object, Path], object]) -> Case:
    def prepare(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
        cfg = dataclasses.replace(pkg.config.RunConfig(), seed=r)
        out = work / f"{pkg.__name__}.csv"

        def call():
            command(pkg, cfg, out)
            return out.read_bytes()

        return call

    return prepare


def _cmd_train(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    cfg = pkg.config.RunConfig()
    cfg = dataclasses.replace(cfg, seed=r, train=dataclasses.replace(cfg.train, episodes=8, warmup=100, seed=r))

    def call():
        checkpoint, log = pkg.cli.cmd_train(cfg, work / pkg.__name__, quiet=True)
        return checkpoint.read_bytes(), log.read_bytes()

    return call


def _full_replay(pkg: ModuleType, r: int):
    """The default buffer filled to capacity, and the default batch size."""
    cfg = pkg.config.RunConfig()
    tc = cfg.train
    buf = pkg.dqn.PrioritizedReplay(tc.replay_capacity, cfg.env.obs_dim, alpha=tc.alpha, priority_eps=tc.priority_eps)
    buf.size = tc.replay_capacity
    buf.update_priorities(np.arange(buf.size), np.random.default_rng(r).exponential(size=buf.size))
    return buf, tc.batch_size


def _replay_sample(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    buf, batch = _full_replay(pkg, r)
    rng = np.random.default_rng(r)
    return lambda: [buf.sample(batch, 0.4, rng) for _ in range(CALLS)]


def _replay_update(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    buf, batch = _full_replay(pkg, r)
    rng = np.random.default_rng(r)
    updates = [(buf.sample(batch, 0.4, rng).indices, rng.exponential(size=batch)) for _ in range(CALLS)]

    def call():
        for indices, td_abs in updates:
            buf.update_priorities(indices, td_abs)
        return buf.tree.nodes, buf.max_priority

    return call


def _replay_add(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    buf, _ = _full_replay(pkg, r)
    rng = np.random.default_rng(r)
    rows = [(rng.uniform(size=buf.obs.shape[1]), int(rng.integers(100)), rng.normal()) for _ in range(CALLS)]

    def call():
        for obs, action, reward in rows:
            buf.add(obs, action, reward, obs, 1.0)
        return buf.tree.nodes, buf.max_priority, buf.obs[:CALLS]

    return call


def _train_update(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    cfg, net = _net(pkg, r)
    tc, obs_dim, n_actions = cfg.train, cfg.env.obs_dim, cfg.env.n_actions
    buf = pkg.dqn.PrioritizedReplay(tc.replay_capacity, obs_dim, alpha=tc.alpha, priority_eps=tc.priority_eps)
    rng = np.random.default_rng(r)
    for _ in range(1500):
        buf.add(rng.uniform(size=obs_dim), int(rng.integers(n_actions)), rng.normal(), rng.uniform(size=obs_dim), 1.0)
    buf.update_priorities(np.arange(len(buf)), rng.exponential(size=len(buf)))
    target, opt = net.clone(), pkg.dqn.Adam(net.params, tc.lr)

    def call():
        for _ in range(CALLS):
            batch = buf.sample(tc.batch_size, 0.4, rng)
            targets = pkg.dqn.td_targets(target, batch.rewards, batch.next_obs, batch.discount)
            _, grads, td_abs = net.loss_and_grads(batch.obs, batch.actions, targets, batch.weights, tc.huber_delta)
            opt.step(net.params, grads)
            buf.update_priorities(batch.indices, td_abs)
        return net.params.flat, buf.tree.nodes, buf.max_priority

    return call


def _net(pkg: ModuleType, r: int):
    cfg = pkg.config.RunConfig()
    return cfg, pkg.dqn.DuelingQNetwork(cfg.env.obs_dim, cfg.train.hidden, cfg.env.n_actions, np.random.default_rng(r))


def _adam(t0: int, stuck: bool = False) -> Case:
    def prepare(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
        cfg, net = _net(pkg, r)
        params, grads = net.params, net.clone().params
        rng = np.random.default_rng(r)
        grads.flat[...] = rng.normal(size=grads.flat.size)
        opt = pkg.dqn.Adam(params, cfg.train.lr)
        opt.t = t0
        if stuck:
            opt.m[...] = rng.normal(scale=1e-4, size=opt.m.size)
            opt.v[...] = rng.uniform(0.0, 1e-6, size=opt.v.size)
            dead = np.arange(0, opt.m.size, 10)
            grads.flat[dead] = 0.0
            opt.m[dead] = rng.choice([-1.0, 1.0], size=dead.size) * rng.integers(1, 6, size=dead.size) * 5e-324

        def call():
            for _ in range(CALLS):
                opt.step(params, grads)
            return (params.flat, opt.m, opt.v) if stuck else (params.flat, opt.t)

        return call

    return prepare


def _loss_and_grads(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    cfg, net = _net(pkg, r)
    obs_dim, n_actions, batch = cfg.env.obs_dim, cfg.env.n_actions, cfg.train.batch_size
    rng = np.random.default_rng(r)
    args = (
        rng.uniform(size=(batch, obs_dim)),
        rng.integers(n_actions, size=batch),
        rng.normal(size=batch),
        rng.uniform(0.5, 1.0, size=batch),
        cfg.train.huber_delta,
    )

    def call():
        for _ in range(CALLS - 1):
            net.loss_and_grads(*args)
        return net.loss_and_grads(*args)  # the inputs repeat, so the last output stands for all

    return call


def _forward_row(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    cfg, world = _world(pkg, r)
    net = pkg.dqn.load_checkpoint(default_checkpoint(pkg))
    env = pkg.env.SlicingEnv(cfg.env)
    rows = [env.reset(*world)]
    while len(rows) < CALLS:
        rows.append(env.step(int(net.forward(rows[-1]).argmax())).next_observation)

    def call():
        out = []
        for obs in rows:
            q = net.forward(obs)
            int(q.argmax())
            out.append(q)
        return out

    return call


def _greedy_episode(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    cfg, (scenario, link) = _world(pkg, r)
    net = pkg.dqn.load_checkpoint(default_checkpoint(pkg))
    env, fresh = pkg.env.SlicingEnv(cfg.env), _fresh(pkg, cfg, link)
    return lambda: pkg.dqn.greedy_episode(net, env, scenario, fresh)


def _forward_batch(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    cfg, net = _net(pkg, r)
    batches = np.random.default_rng(r).uniform(size=(CALLS, cfg.train.batch_size, cfg.env.obs_dim))
    return lambda: [net.forward(batch) for batch in batches]


def _brute_force_optimal(pkg: ModuleType, r: int, work: Path) -> Callable[[], object]:
    cfg = pkg.config.RunConfig()
    env = pkg.env.EnvConfig(m=2, n=4, F=2, T=3)
    workload = dataclasses.replace(cfg.workload, deadline_len_slots=3)
    scenario, link = pkg.worlds.WorldStream(cfg.road, env, cfg.channel, workload, 2, pkg.worlds.TAG_EVAL)(r)
    return lambda: pkg.oracle.brute_force_optimal(scenario, link)


CASES: dict[str, Case] = {
    "apply_slot_cold": _apply_slot(warm=False),
    "apply_slot_warm": _apply_slot(warm=True),
    "evaluate_plan": _evaluate_plan,
    "action_mask": _action_mask,
    "initial_rb_allocation_oma": _initial_rb_allocation(oma=True),
    "initial_rb_allocation_noma": _initial_rb_allocation(oma=False),
    "run_baseline": _run_baseline,
    "cmd_baseline": _csv_case(
        lambda pkg, cfg, out: pkg.cli.cmd_baseline(cfg, list(pkg.baselines.BASELINE_NAMES), out, 10, "none")
    ),
    "cmd_eval": _csv_case(lambda pkg, cfg, out: pkg.cli.cmd_eval(cfg, default_checkpoint(pkg), out, 6, "sizes")),
    "cmd_oracle": _csv_case(lambda pkg, cfg, out: pkg.cli.cmd_oracle(cfg, 20, out)),
    "cmd_plotdata": _csv_case(lambda pkg, cfg, out: pkg.cli.cmd_plotdata(PLOT_INPUTS, out)),
    "cmd_train": _cmd_train,
    "replay_sample": _replay_sample,
    "replay_update": _replay_update,
    "replay_add": _replay_add,
    "train_update": _train_update,
    "adam_early": _adam(0),
    "adam_late": _adam(40_000),
    "adam_stuck": _adam(40_000, stuck=True),
    "loss_and_grads": _loss_and_grads,
    "forward_row": _forward_row,
    "greedy_episode": _greedy_episode,
    "forward_batch": _forward_batch,
    "brute_force_optimal": _brute_force_optimal,
}


def machine_line(base: str) -> str:
    """The machine, the numpy and BLAS builds, the OpenBLAS configuration in
    use (it names the CPU kernel OpenBLAS dispatched to on this machine,
    which `np.show_config`'s build-time string does not), the BLAS thread
    count and the commit `base` resolves to."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core import _multiarray_umath

        get_config = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_config64_
        get_config.restype = ctypes.c_char_p
        config = get_config().decode()
    except (ImportError, OSError, AttributeError):  # numpy not built on the ILP64 scipy-openblas
        config = "configuration in use unknown"
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{base}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    return (
        f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {np.__version__},"
        f" BLAS {blas.get('name')} {blas.get('version')} ({config}),"
        f" OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, base {base} = {commit}"
    )


def learner_kernels(pkg: ModuleType) -> str:
    """What `pkg`'s Adam and replay ran on: "no kernels" for a tree without
    the loader, "kernels unused" where nothing built them, "fallback" where
    the build failed, else the compiler that built them."""
    kernels = getattr(pkg.dqn, "kernels", None)
    if kernels is None:
        return "no kernels"
    if kernels._handle is kernels._UNSET:
        return "kernels unused"
    if kernels._handle is None:
        return "fallback (the kernels did not build)"
    version = subprocess.run([*kernels.compiler(), "--version"], capture_output=True, text=True).stdout
    return f"kernels built by {version.splitlines()[0] if version else ' '.join(kernels.compiler())}"


def network_passes(pkg: ModuleType) -> str:
    """What `pkg`'s network passes ran on: numpy code for a tree without the
    BLAS lookup or where it found nothing, else numpy's BLAS called from the
    kernels; "BLAS not looked up" where no pass asked for it."""
    kernels = getattr(pkg.dqn, "kernels", None)
    if not hasattr(kernels, "_blas"):
        return "network on numpy"
    if kernels._blas is kernels._UNSET:
        return "network's BLAS not looked up"
    if not kernels._blas:
        return "network on numpy (numpy's BLAS not found)"
    return "network on numpy's BLAS, called from the kernels"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of side A")
    parser.add_argument("--case", choices=sorted(CASES), required=True)
    args = parser.parse_args(argv)
    case = CASES[args.case]
    header = machine_line(args.base)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        a = load_package(extract_src(args.base, work / "base"), "iovslice_ab_a")
        b = load_package(ROOT / "src", "iovslice_ab_b")
        case(a, 0, work)()  # warm both sides: imports, caches, first allocations
        case(b, 0, work)()
        times_a, times_b = interleave(lambda r: case(a, r, work), lambda r: case(b, r, work), ROUNDS)
    ratio, lo, hi = median_ratio(times_a, times_b)
    print(f"{header}; A: {learner_kernels(a)}, {network_passes(a)}; B: {learner_kernels(b)}, {network_passes(b)}")
    print(f"| case | rounds | A {args.base} median ms | B median ms | B/A median | 95% interval |")
    print("| --- | --- | --- | --- | --- | --- |")
    print(
        f"| {args.case} | {ROUNDS} | {1e3 * np.median(times_a):.2f} | {1e3 * np.median(times_b):.2f}"
        f" | {ratio:.3f} | {lo:.3f}-{hi:.3f} |"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
