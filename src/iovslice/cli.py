"""Experiment driver: train, eval, baseline, oracle and plotdata subcommands.

Every subcommand is fully determined by (config, seed). Evaluation rows carry
a hash of the episode's realized channel so paired comparisons across
algorithms can be verified after the fact. CSV files start with a schema
comment line; consumers refuse schemas they do not know.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import baselines as bl
from . import oracle as orc
from .channel import ChannelState, trace_hash
from .config import RunConfig, load_config, serialize_config
from .dqn import (
    TrainingDiverged,
    TrainLogRow,
    greedy_episode,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .env import COVERAGE_LEVELS_M, POWER_LEVELS_DBM, EnvConfig, SlicingEnv
from .phy import ReceptionStats
from .scenario import Scenario
from .worlds import TAG_EVAL, TAG_TRAIN, WorkloadConfig, WorldStream, algorithm_rng

TRAINING_LOG_SCHEMA = "# schema: iovslice-training-log/1"
EVAL_SCHEMA = "# schema: iovslice-eval/1"
PLOTDATA_SCHEMA = "# schema: iovslice-plotdata/1"

EVAL_COLUMNS = [
    "algorithm",
    "episode",
    "slice1_delivered",
    "slice2_delivered",
    "prr",
    "slice2_bytes",
    "deadline_slots",
    "slice1_packets",
    "slice2_packets",
    "channel_hash",
]

PLOTDATA_COLUMNS = [
    "algorithm",
    "slice2_bytes",
    "deadline_slots",
    "episodes",
    "slice1_mean",
    "slice1_stderr",
    "slice2_mean",
    "slice2_stderr",
    "total_mean",
    "total_stderr",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, schema: str, columns: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(schema + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read_csv(path: Path, expected_schema: str) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != expected_schema:
            raise ValueError(
                f"{path}: schema line {first!r} does not match expected {expected_schema!r}"
            )
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), [dict(r) for r in reader]


def _check_out_dir(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    probe.write_text("")
    probe.unlink()


def sweep_points(cfg: RunConfig, sweep: str) -> list[WorkloadConfig]:
    if sweep == "none":
        return [cfg.workload]
    if sweep == "sizes":
        return [replace(cfg.workload, slice2_bytes=300 * mult) for mult in cfg.size_multipliers]
    if sweep == "deadlines":
        for d in cfg.deadline_sweep_slots:  # fail before the first point runs
            if d > cfg.env.T:
                raise ValueError(f"deadline window {d} exceeds horizon {cfg.env.T}")
        return [replace(cfg.workload, deadline_len_slots=d) for d in cfg.deadline_sweep_slots]
    raise ValueError(f"unknown sweep {sweep!r}, expected none, sizes or deadlines")


# -- subcommands --------------------------------------------------------------


def cmd_train(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> tuple[Path, Path]:
    _check_out_dir(out_dir)
    env = SlicingEnv(cfg.env, cfg.channel)
    stream = WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, cfg.seed, TAG_TRAIN)

    def progress(row: TrainLogRow) -> None:
        if not quiet and row.episode % 100 == 0:
            print(
                f"episode {row.episode}: return {row.episode_return:.3f}"
                f" eps {row.epsilon:.3f}",
                file=sys.stderr,
            )

    net, log = train(stream, env, cfg.train, progress=progress)
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(net, ckpt)
    log_path = out_dir / "training_log.csv"
    _write_csv(
        log_path,
        TRAINING_LOG_SCHEMA,
        ["episode", "return", "moving_avg_200", "epsilon", "loss_mean"],
        [[r.episode, r.episode_return, r.moving_avg_200, r.epsilon, r.loss_mean] for r in log],
    )
    return ckpt, log_path


def _eval_rows(
    cfg: RunConfig,
    name: str,
    workload: WorkloadConfig,
    episodes: int,
    play: Callable[[int, Scenario, ChannelState], ReceptionStats],
) -> list[list]:
    """One EVAL_COLUMNS row per episode of the paired evaluation stream;
    play(ep, scenario, chan) runs the algorithm on the episode's world."""
    stream = WorldStream(cfg.road, cfg.env, cfg.channel, workload, cfg.seed, TAG_EVAL)
    rows = []
    for ep in range(episodes):
        scenario, chan = stream(ep)
        st = play(ep, scenario, chan)
        rows.append(
            [
                name,
                ep,
                st.receptions[0],
                st.receptions[1],
                st.prr,
                workload.slice2_bytes,
                workload.deadline_len_slots,
                st.packets[0],
                st.packets[1],
                trace_hash(chan),
            ]
        )
    return rows


def cmd_eval(cfg: RunConfig, checkpoint: Path, out_path: Path, episodes: int, sweep: str) -> Path:
    net = load_checkpoint(checkpoint)
    if net.obs_dim != cfg.env.obs_dim or net.n_actions != cfg.env.n_actions:
        raise ValueError(
            f"checkpoint shapes ({net.obs_dim} obs, {net.n_actions} actions) do not match "
            f"config ({cfg.env.obs_dim} obs, {cfg.env.n_actions} actions)"
        )
    env = SlicingEnv(cfg.env, cfg.channel)
    rows: list[list] = []
    for workload in sweep_points(cfg, sweep):
        rows.extend(
            _eval_rows(cfg, "DQL", workload, episodes, lambda ep, sc, ch: greedy_episode(net, env, sc, ch))
        )
    _write_csv(out_path, EVAL_SCHEMA, EVAL_COLUMNS, rows)
    return out_path


def cmd_baseline(cfg: RunConfig, names: list[str], out_path: Path, episodes: int, sweep: str) -> Path:
    for name in names:
        if name not in bl.BASELINE_NAMES:
            raise ValueError(f"unknown baseline {name!r}, valid names: {', '.join(bl.BASELINE_NAMES)}")
    rows: list[list] = []
    for workload in sweep_points(cfg, sweep):
        for name in names:

            def play(ep: int, scenario: Scenario, chan: ChannelState) -> ReceptionStats:
                rng = algorithm_rng(cfg.seed, workload, ep, bl.BASELINE_NAMES.index(name))
                return bl.run_baseline(
                    name, scenario, chan, cfg.channel, cfg.env.slot_duration_s, rng, cfg.swap_max_iters
                ).stats

            rows.extend(_eval_rows(cfg, name, workload, episodes, play))
    _write_csv(out_path, EVAL_SCHEMA, EVAL_COLUMNS, rows)
    return out_path


def oracle_instance(
    cfg: RunConfig, env_cfg: EnvConfig, workload: WorkloadConfig, seed: int
) -> tuple[Scenario, ChannelState, int, dict[str, bl.BaselineRun]]:
    """One tiny instance: episode 0 of the evaluation stream at this seed, its
    exhaustive optimum and every baseline's run on it.

    The optimum searches every coverage and power level of the action space,
    the levels the baselines draw from, so no policy may exceed it.
    """
    scenario, chan = WorldStream(cfg.road, env_cfg, cfg.channel, workload, seed, TAG_EVAL)(0)
    best = orc.brute_force_optimal(
        scenario, chan, cfg.channel, env_cfg.slot_duration_s, COVERAGE_LEVELS_M, POWER_LEVELS_DBM
    )
    runs = {
        name: bl.run_baseline(
            name,
            scenario,
            chan,
            cfg.channel,
            env_cfg.slot_duration_s,
            algorithm_rng(seed, workload, 0, i),
            cfg.swap_max_iters,
        )
        for i, name in enumerate(bl.BASELINE_NAMES)
    }
    return scenario, chan, best.best_delivered, runs


def cmd_oracle(cfg: RunConfig, instances: int, out_path: Path | None) -> list[dict]:
    """Tiny-instance sanity sweep: exhaustive optimum vs every policy."""
    results = []
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA11CE]))
    for k in range(instances):
        m = int(rng.integers(1, 3))
        T = int(rng.integers(2, 4)) if m == 2 else int(rng.integers(2, 5))
        env_cfg = EnvConfig(m=m, n=2, F=1, T=T, slot_duration_s=cfg.env.slot_duration_s)
        workload = replace(
            cfg.workload, deadline_len_slots=min(cfg.workload.deadline_len_slots, T)
        )
        _, _, optimum, runs = oracle_instance(cfg, env_cfg, workload, cfg.seed + k)
        counts = {name: sum(run.stats.packets) for name, run in runs.items()}
        results.append({"instance": k, "m": m, "T": T, "optimum": optimum, **counts})
    if out_path is not None:
        cols = ["instance", "m", "T", "optimum", *bl.BASELINE_NAMES]
        _write_csv(
            out_path,
            "# schema: iovslice-oracle/1",
            cols,
            [[r[c] for c in cols] for r in results],
        )
    return results


def _mean_stderr(values: list[float]) -> tuple[float, float | None]:
    arr = np.array(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, None
    return mean, float(arr.std(ddof=1) / np.sqrt(len(arr)))


def cmd_plotdata(inputs: list[Path], out_path: Path) -> Path:
    groups: dict[tuple[str, str, str], list[tuple[float, float]]] = {}
    for path in inputs:
        columns, rows = _read_csv(path, EVAL_SCHEMA)
        missing = [c for c in EVAL_COLUMNS if c not in columns]
        extra = [c for c in columns if c not in EVAL_COLUMNS]
        if missing or extra:
            raise ValueError(
                f"{path}: eval column mismatch, missing={missing}, unexpected={extra}"
            )
        for row in rows:
            key = (row["algorithm"], row["slice2_bytes"], row["deadline_slots"])
            groups.setdefault(key, []).append(
                (float(row["slice1_delivered"]), float(row["slice2_delivered"]))
            )
    out_rows = []
    for (algo, size, deadline), vals in sorted(groups.items()):
        s1 = [v[0] for v in vals]
        s2 = [v[1] for v in vals]
        tot = [a + b for a, b in vals]
        m1, e1 = _mean_stderr(s1)
        m2, e2 = _mean_stderr(s2)
        mt, et = _mean_stderr(tot)
        out_rows.append([algo, size, deadline, len(vals), m1, e1, m2, e2, mt, et])
    _write_csv(out_path, PLOTDATA_SCHEMA, PLOTDATA_COLUMNS, out_rows)
    return out_path


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iovslice",
        description="Sliced NOMA V2V broadcast scheduling: training, evaluation, baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_train = sub.add_parser("train", help="train the scheduler and write a checkpoint")
    add_common(p_train)
    p_train.add_argument("--out", type=Path, required=True, help="output directory")
    p_train.add_argument("--episodes", type=int, default=None)
    p_train.add_argument("--quiet", action="store_true")

    p_eval = sub.add_parser("eval", help="greedy evaluation of a trained checkpoint")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--out", type=Path, required=True, help="output CSV path")
    p_eval.add_argument("--episodes", type=int, default=None)
    p_eval.add_argument("--sweep", choices=["none", "sizes", "deadlines"], default="none")

    p_base = sub.add_parser("baseline", help="run offline benchmark schedulers")
    add_common(p_base)
    p_base.add_argument("--algorithms", default=",".join(bl.BASELINE_NAMES))
    p_base.add_argument("--out", type=Path, required=True, help="output CSV path")
    p_base.add_argument("--episodes", type=int, default=None)
    p_base.add_argument("--sweep", choices=["none", "sizes", "deadlines"], default="none")

    p_orc = sub.add_parser("oracle", help="exhaustive-search bound on tiny instances")
    add_common(p_orc)
    p_orc.add_argument("--instances", type=int, default=20)
    p_orc.add_argument("--out", type=Path, default=None)

    p_plot = sub.add_parser("plotdata", help="aggregate eval CSVs into figure-ready rows")
    p_plot.add_argument("--inputs", type=Path, nargs="+", required=True)
    p_plot.add_argument("--out", type=Path, required=True)

    sub.add_parser("print-config", help="dump the default configuration")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "print-config":
            sys.stdout.write(serialize_config(RunConfig()))
            return 0
        if args.command == "plotdata":
            out = cmd_plotdata(list(args.inputs), args.out)
            print(f"wrote {out}")
            return 0

        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)

        if args.command == "train":
            if args.episodes is not None:
                cfg = replace(cfg, train=replace(cfg.train, episodes=args.episodes))
            ckpt, log_path = cmd_train(cfg, args.out, quiet=args.quiet)
            print(f"wrote {ckpt} and {log_path}")
            return 0
        if args.command == "oracle":
            results = cmd_oracle(cfg, args.instances, args.out)
            worst = max((max(r[n] for n in bl.BASELINE_NAMES) - r["optimum"] for r in results), default=0)
            print(f"{len(results)} instances, max policy-minus-optimum gap {worst}")
            return 0
        episodes = args.episodes if args.episodes is not None else cfg.eval_episodes
        if args.command == "eval":
            out = cmd_eval(cfg, args.checkpoint, args.out, episodes, args.sweep)
            print(f"wrote {out}")
            return 0
        if args.command == "baseline":
            names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
            out = cmd_baseline(cfg, names, args.out, episodes, args.sweep)
            print(f"wrote {out}")
            return 0
        parser.error(f"unhandled command {args.command}")
        return 2
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
