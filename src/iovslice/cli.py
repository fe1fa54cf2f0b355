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
from dataclasses import astuple, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import baselines as bl
from . import oracle as orc
from .channel import trace_hash
from .config import RunConfig, load_config, serialize_config
from .dqn import (
    TrainingDiverged,
    TrainLogRow,
    greedy_episode,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .env import EnvConfig, SlicingEnv
from .phy import EpisodeLink, ReceptionStats
from .scenario import Scenario
from .worlds import TAG_EVAL, TAG_TRAIN, WorkloadConfig, WorldStream, algorithm_rng


def _count(text: str) -> int:
    """A nonnegative integer as `str(int)` writes it (`0600` would split a sweep point)."""
    if not (text.isascii() and text.isdecimal() and (text == "0" or text[0] != "0")):
        raise ValueError("is not a canonical nonnegative integer")
    return int(text)


def _prr(text: str) -> float | None:
    """None for an empty field, else a float in [0, 1]; nan is refused."""
    if not text:
        return None
    try:
        if 0.0 <= (value := float(text)) <= 1.0:
            return value
    except ValueError:
        pass
    raise ValueError("is neither empty nor a number in [0, 1]")


class Table(NamedTuple):
    """One CSV format: a schema line, then a header of the columns in file
    order. A format that is read maps each column to its field's parser,
    one only written maps each to None. csv writes None as an empty field
    and a float as its repr."""

    schema: str
    columns: dict[str, Callable[[str], object] | None]

    def write(self, path: Path, rows: Iterable[Sequence]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(self.schema + "\n")
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(rows)

    def read(self, path: Path) -> list[dict[str, object]]:
        """The parsed rows, keyed by column, blank lines skipped. A ValueError
        naming the file refuses another schema line, a header that misses,
        adds or repeats a column, a row of more or fewer fields, a field over
        csv's size limit or that its parser refuses, and non-UTF-8 bytes."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                first = fh.readline().rstrip("\n")
                if first != self.schema:
                    raise ValueError(f"{path}: schema line {first!r} does not match expected {self.schema!r}")
                header = next(reader, [])
                missing = [c for c in self.columns if c not in header]
                extra = [c for i, c in enumerate(header) if c not in self.columns or c in header[:i]]  # repeats too
                if missing or extra:
                    raise ValueError(f"{path}: column mismatch, missing={missing}, unexpected={extra}")
                at = [(name, header.index(name), parse) for name, parse in self.columns.items()]
                rows = []
                for fields in filter(None, reader):
                    if len(fields) != len(header):
                        raise ValueError(f"{path}: line {reader.line_num + 1}: {len(fields)} fields, not {len(header)}")
                    row = {}
                    for name, i, parse in at:
                        try:
                            row[name] = parse(fields[i])
                        except ValueError as exc:
                            where = f"episode {row['episode']}: " if "episode" in row else ""
                            raise ValueError(f"{path}: {where}{name} {fields[i]!r} {exc}") from None
                    rows.append(row)
            except csv.Error as exc:
                raise ValueError(f"{path}: line {reader.line_num + 1}: {exc}") from None
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        return rows


TRAINING_LOG = Table(
    "# schema: iovslice-training-log/1",
    dict.fromkeys(["episode", "return", "moving_avg_200", "epsilon", "loss_mean"]),  # TrainLogRow's fields
)
EVAL = Table(
    "# schema: iovslice-eval/1",
    {
        "algorithm": str,
        "episode": _count,
        "slice1_delivered": _count,
        "slice2_delivered": _count,
        "prr": _prr,
        "slice2_bytes": _count,
        "deadline_slots": _count,
        "slice1_packets": _count,
        "slice2_packets": _count,
        "channel_hash": str,
    },
)
PLOTDATA = Table(
    "# schema: iovslice-plotdata/1",
    dict.fromkeys(
        [
            "algorithm", "slice2_bytes", "deadline_slots", "episodes",
            "slice1_mean", "slice1_stderr", "slice2_mean", "slice2_stderr", "total_mean", "total_stderr",
        ]
    ),
)
ORACLE = Table("# schema: iovslice-oracle/1", dict.fromkeys(["instance", "m", "T", "optimum", *bl.BASELINE_NAMES]))


def _check_out_dir(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    probe.write_text("")
    probe.unlink()


def _check_count(name: str, value: int) -> None:
    """Reject a negative count, which would run nothing and write empty output."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


SWEEPS = ("none", "sizes", "deadlines")  # the `--sweep` choices, each a branch of sweep_points


def sweep_points(cfg: RunConfig, sweep: str) -> list[WorkloadConfig]:
    if sweep == "none":
        return [cfg.workload]
    if sweep == "sizes":
        return [replace(cfg.workload, slice2_bytes=300 * mult) for mult in cfg.size_multipliers]
    if sweep == "deadlines":
        # checked here, before the first point runs, and not by RunConfig: a
        # small-T config stays valid with the default axis until it sweeps it
        if (deadline := max(cfg.deadline_sweep_slots, default=0)) > cfg.env.T:
            raise ValueError(f"run.deadline_sweep_slots entries must be <= env.T, got {deadline} > {cfg.env.T}")
        return [replace(cfg.workload, deadline_len_slots=d) for d in cfg.deadline_sweep_slots]
    raise ValueError(f"unknown sweep {sweep!r}, expected {', '.join(SWEEPS[:-1])} or {SWEEPS[-1]}")


# -- subcommands --------------------------------------------------------------


def cmd_train(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> tuple[Path, Path]:
    stream = WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, cfg.seed, TAG_TRAIN)
    made_out_dir = not out_dir.exists()
    _check_out_dir(out_dir)
    env = SlicingEnv(cfg.env)

    def progress(row: TrainLogRow) -> None:
        if not quiet and row.episode % 100 == 0:
            print(
                f"episode {row.episode}: return {row.episode_return:.3f}"
                f" eps {row.epsilon:.3f}",
                file=sys.stderr,
            )

    try:
        net, log = train(stream, env, cfg.train, progress=progress)
    except TrainingDiverged:
        if made_out_dir and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(net, ckpt)
    log_path = out_dir / "training_log.csv"
    TRAINING_LOG.write(log_path, map(astuple, log))
    return ckpt, log_path


Policy = tuple[str, Callable[[WorkloadConfig, int, Scenario, EpisodeLink], ReceptionStats]]


def _eval_rows(cfg: RunConfig, workloads: list[WorkloadConfig], episodes: int, policies: list[Policy]) -> list[list]:
    """EVAL rows of every (name, play) policy on the paired evaluation
    stream at every sweep point: point by point, within a point policy by
    policy, and within a policy episode by episode. Each episode's
    world (scenario, link) is drawn and its channel hashed once, and it
    serves every point and policy: each further point takes the episode's
    scenario at that point on the same link (`worlds.WorldStream.with_workload`).
    play(workload, ep, scenario, link) runs one algorithm on it, sharing the
    link's memo, and leaves the scenario and channel as they were."""
    if not workloads:
        return []
    stream = WorldStream(cfg.road, cfg.env, cfg.channel, workloads[0], cfg.seed, TAG_EVAL)
    rows: list[list[list[list]]] = [[[] for _ in policies] for _ in workloads]
    for ep in range(episodes):
        scenario, link = stream(ep)
        channel_hash = trace_hash(link.chan)
        for i, (workload, point_rows) in enumerate(zip(workloads, rows)):
            if i:
                scenario = stream.with_workload(scenario, workload, ep)
            for policy_rows, (name, play) in zip(point_rows, policies):
                st = play(workload, ep, scenario, link)
                policy_rows.append(
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
                        channel_hash,
                    ]
                )
    return [row for point_rows in rows for policy_rows in point_rows for row in policy_rows]


def cmd_eval(cfg: RunConfig, checkpoint: Path, out_path: Path, episodes: int, sweep: str) -> Path:
    _check_count("episodes", episodes)
    net = load_checkpoint(checkpoint)
    if net.obs_dim != cfg.env.obs_dim or net.n_actions != cfg.env.n_actions:
        raise ValueError(
            f"checkpoint shapes ({net.obs_dim} obs, {net.n_actions} actions) do not match "
            f"config ({cfg.env.obs_dim} obs, {cfg.env.n_actions} actions)"
        )
    env = SlicingEnv(cfg.env)
    dql: Policy = ("DQL", lambda workload, ep, scenario, link: greedy_episode(net, env, scenario, link))
    workloads = sweep_points(cfg, sweep)
    _check_out_dir(out_path.parent)
    EVAL.write(out_path, _eval_rows(cfg, workloads, episodes, [dql]))
    return out_path


def cmd_baseline(cfg: RunConfig, names: list[str], out_path: Path, episodes: int, sweep: str) -> Path:
    """Rows of the named baselines over the paired evaluation stream, per
    sweep point algorithm by algorithm. The algorithms and sweep points
    share each episode's one link; each algorithm makes its own draws from
    its `algorithm_rng` at the point."""
    _check_count("episodes", episodes)
    if not names:
        raise ValueError(f"no baseline named, valid names: {', '.join(bl.BASELINE_NAMES)}")
    for i, name in enumerate(names):
        if name not in bl.BASELINE_NAMES:
            raise ValueError(f"unknown baseline {name!r}, valid names: {', '.join(bl.BASELINE_NAMES)}")
        if name in names[:i]:
            raise ValueError(f"duplicate baseline {name}")

    def baseline(name: str) -> Policy:
        def play(workload: WorkloadConfig, ep: int, scenario: Scenario, link: EpisodeLink) -> ReceptionStats:
            rng = algorithm_rng(cfg.seed, workload, ep, bl.BASELINE_NAMES.index(name))
            return bl.run_baseline(name, scenario, link, rng, cfg.swap_max_iters).stats

        return name, play

    workloads = sweep_points(cfg, sweep)
    _check_out_dir(out_path.parent)
    EVAL.write(out_path, _eval_rows(cfg, workloads, episodes, [baseline(name) for name in names]))
    return out_path


def oracle_instance(
    cfg: RunConfig, env_cfg: EnvConfig, workload: WorkloadConfig, seed: int
) -> tuple[Scenario, EpisodeLink, int, dict[str, bl.BaselineRun]]:
    """One tiny instance: the world (scenario, link) of episode 0 of the
    evaluation stream at this seed, its exhaustive optimum and every
    baseline's run on it, all on that one link.

    Nothing the caller passes can narrow the optimum's action space
    (`oracle.brute_force_optimal`).
    """
    scenario, link = WorldStream(cfg.road, env_cfg, cfg.channel, workload, seed, TAG_EVAL)(0)
    best = orc.brute_force_optimal(scenario, link)
    runs = {
        name: bl.run_baseline(name, scenario, link, algorithm_rng(seed, workload, 0, i), cfg.swap_max_iters)
        for i, name in enumerate(bl.BASELINE_NAMES)
    }
    return scenario, link, best.best_delivered, runs


def cmd_oracle(cfg: RunConfig, instances: int, out_path: Path | None) -> list[dict]:
    """Tiny-instance sanity sweep: exhaustive optimum vs every policy."""
    _check_count("instances", instances)
    if out_path is not None:
        _check_out_dir(out_path.parent)
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
        counts = [sum(run.stats.packets) for run in runs.values()]  # in BASELINE_NAMES order
        results.append(dict(zip(ORACLE.columns, [k, m, T, optimum, *counts])))
    if out_path is not None:
        ORACLE.write(out_path, map(dict.values, results))
    return results


def _mean_stderr(values: list[float]) -> tuple[float, float | None]:
    arr = np.array(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, None
    return mean, float(arr.std(ddof=1) / np.sqrt(len(arr)))


def cmd_plotdata(inputs: list[Path], out_path: Path) -> Path:
    """Mean and standard error per (algorithm, slice-2 size, deadline) over
    every input's rows, grouped and sorted on the algorithm's name and the
    parsed counts (600 before 3000). A row repeating one already read (same
    algorithm, sweep point, episode and channel) is refused, as is what
    `EVAL.read` refuses."""
    groups: dict[tuple[str, int, int], list[tuple[int, int]]] = {}
    seen: set[tuple] = set()
    for path in inputs:
        for row in EVAL.read(path):
            key = (row["algorithm"], row["slice2_bytes"], row["deadline_slots"])
            row_key = (*key, row["episode"], row["channel_hash"])
            if row_key in seen:
                raise ValueError(f"{path}: duplicate row for {row['algorithm']} episode {row['episode']}")
            seen.add(row_key)
            groups.setdefault(key, []).append((row["slice1_delivered"], row["slice2_delivered"]))
    out_rows = []
    for (algo, size, deadline), vals in sorted(groups.items()):
        s1 = [v[0] for v in vals]
        s2 = [v[1] for v in vals]
        tot = [a + b for a, b in vals]
        m1, e1 = _mean_stderr(s1)
        m2, e2 = _mean_stderr(s2)
        mt, et = _mean_stderr(tot)
        out_rows.append([algo, size, deadline, len(vals), m1, e1, m2, e2, mt, et])
    PLOTDATA.write(out_path, out_rows)
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
        seed_help = "override run.seed (worlds, baseline draws, oracle instances); the learner reads train.seed"
        p.add_argument("--seed", type=int, default=None, help=seed_help)

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
    p_eval.add_argument("--sweep", choices=SWEEPS, default="none")

    p_base = sub.add_parser("baseline", help="run offline benchmark schedulers")
    add_common(p_base)
    p_base.add_argument("--algorithms", default=",".join(bl.BASELINE_NAMES))
    p_base.add_argument("--out", type=Path, required=True, help="output CSV path")
    p_base.add_argument("--episodes", type=int, default=None)
    p_base.add_argument("--sweep", choices=SWEEPS, default="none")

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
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
