import contextlib
import csv
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iovslice import cli, phy, scenario
from iovslice.config import RunConfig, load_config, parse_config, serialize_config
from iovslice.dqn import DuelingQNetwork, TrainConfig, save_checkpoint
from iovslice.env import EnvConfig
from iovslice.scenario import MAX_ROAD_LENGTH_M

from conftest import forced_fallback, forced_no_blas


def tiny_cfg(**run_kw):
    from iovslice.worlds import WorkloadConfig

    return RunConfig(
        env=EnvConfig(m=2, n=2, F=2, T=6),
        train=TrainConfig(episodes=3, warmup=16, batch_size=8, seed=1),
        workload=WorkloadConfig(deadline_len_slots=4),
        eval_episodes=3,
        **run_kw,
    )


def line_of(text, key):
    """The line of `text` that sets `key`, counted from 1."""
    (lineno,) = [i for i, line in enumerate(text.splitlines(), start=1) if line.split("=", 1)[0].strip() == key]
    return lineno


def config_text(cfg, overrides):
    """`serialize_config(cfg)` with each `key = value` line of `overrides` in
    place of that key's own line, so no key is set twice."""
    text = serialize_config(cfg)
    lines = text.splitlines()
    for line in overrides.splitlines():
        lines[line_of(text, line.split("=", 1)[0].strip()) - 1] = line
    return "\n".join(lines) + "\n"


def test_config_roundtrip_defaults():
    text = serialize_config(RunConfig())
    cfg = parse_config(text)
    assert cfg == RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_roundtrip_modified():
    cfg = tiny_cfg(seed=7, size_multipliers=(2, 4))
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("env.bogus = 3\n")
    with pytest.raises(ValueError, match="section"):
        parse_config("m = 3\n")


def test_config_rejects_duplicate_key():
    # read top-down, a file whose later line overrode an earlier one would not pin its run
    with pytest.raises(ValueError, match=r"^line 3: duplicate key env\.T \(first set on line 1\)$"):
        parse_config("env.T = 20\n# shorter episodes\nenv.T = 12\n")
    with pytest.raises(ValueError, match="duplicate key train.lr"):
        parse_config(serialize_config(RunConfig()) + "train.lr = 1e-4\n")


@pytest.mark.parametrize("key, sweep", [("size_multipliers", "sizes"), ("deadline_sweep_slots", "deadlines")])
def test_config_rejects_repeated_sweep_point(tmp_path, monkeypatch, capsys, key, sweep):
    # a repeated point would run twice and write every one of its rows twice
    with pytest.raises(ValueError, match=rf"^line 1: run\.{key} repeats 3$"):
        parse_config(f"run.{key} = 2,3,4,3\n")
    assert getattr(parse_config(f"run.{key} = 2,4\n"), key) == (2, 4)
    monkeypatch.chdir(tmp_path)
    text = config_text(tiny_cfg(), f"run.{key} = 3,3")
    Path("run.cfg").write_text(text)
    argv = ["baseline", "--config", "run.cfg", "--algorithms", "NOMA-MP", "--episodes", "2", "--sweep", sweep]
    assert cli.main([*argv, "--out", "base.csv"]) == 1
    assert capsys.readouterr().err == f"error: run.cfg: line {line_of(text, f'run.{key}')}: run.{key} repeats 3\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "run.cfg"]  # rejected before any output


@pytest.mark.parametrize("key", ["size_multipliers", "deadline_sweep_slots"])
@pytest.mark.parametrize("value, low", [("0", 0), ("0,3", 0), ("4,-2", -2)])
def test_config_rejects_sweep_point_below_one(tmp_path, monkeypatch, capsys, key, value, low):
    # such a point makes no payload or deadline; it is refused when the config
    # is read, even by a run that sweeps nothing
    with pytest.raises(ValueError, match=rf"^line 1: run\.{key} entries must be >= 1, got {low}$"):
        parse_config(f"run.{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"^run\.{key} entries must be >= 1"):
        RunConfig(**{key: (0,)})
    monkeypatch.chdir(tmp_path)
    text = config_text(tiny_cfg(), f"run.{key} = {value}")
    Path("run.cfg").write_text(text)
    argv = ["baseline", "--config", "run.cfg", "--algorithms", "NOMA-MP", "--episodes", "1", "--sweep", "none"]
    assert cli.main([*argv, "--out", "base.csv"]) == 1
    n = line_of(text, f"run.{key}")
    assert capsys.readouterr().err == f"error: run.cfg: line {n}: run.{key} entries must be >= 1, got {low}\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


@pytest.mark.parametrize(
    "line, argv, says",
    [
        ("train.seed = -1", ["train", "--out", "run"], "train.seed must be >= 0, got -1"),
        ("run.seed = -5", ["baseline", "--out", "out/base.csv"], "run.seed must be >= 0, got -5"),
        (None, ["eval", "--checkpoint", "ckpt.bin", "--out", "out/eval.csv", "--seed", "-2"],
         "run.seed must be >= 0, got -2"),
    ],
    ids=["train.seed", "run.seed", "--seed"],
)
def test_main_rejects_a_negative_seed(tmp_path, monkeypatch, capsys, line, argv, says):
    # numpy's seeding refuses it too, but mid-command, naming nothing, after the output directory exists
    monkeypatch.chdir(tmp_path)
    cfg = tiny_cfg()
    text = serialize_config(cfg) if line is None else config_text(cfg, line)
    Path("run.cfg").write_text(text)
    save_checkpoint(DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, rng=None), Path("ckpt.bin"))
    before = sorted(tmp_path.iterdir())
    assert cli.main([argv[0], "--config", "run.cfg", *argv[1:], "--episodes", "1"]) == 1
    where = "" if line is None else f"run.cfg: line {line_of(text, line.split(' =')[0])}: "  # --seed is no line
    assert capsys.readouterr().err == f"error: {where}{says}\n"
    assert sorted(tmp_path.iterdir()) == before  # rejected before any output


def test_load_config_names_its_file(tmp_path):
    # parse_config's own messages start at the line; the file read adds the path
    path = tmp_path / "run.cfg"
    path.write_text("env.q = 3\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 1: unknown config key 'env.q'$"):
        load_config(path)
    path.write_text("env.T = 4\n")  # below the default deadline, a key the file never set
    says = "line 1: workload.deadline_len_slots must be <= env.T, got 8 > 4"
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: {says}')}$"):
        load_config(path)
    path.write_bytes(b"env.T = 12  # caf\xe9\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xe9"):
        load_config(path)
    path.write_bytes("env.T = 12  # café\n".encode("utf-8"))
    assert load_config(path).env.T == 12


TRAIN = ["train", "--out", "run"]
EVAL = ["eval", "--checkpoint", "ckpt.bin", "--out", "eval.csv"]
BASELINE = ["baseline", "--algorithms", "NOMA-MP", "--out", "base.csv"]

MALFORMED = [
    ("train.target_copy_period = 0", TRAIN, "train.target_copy_period must be >= 1, got 0"),
    ("env.rate_norm_bps = 0.0", EVAL, "env.rate_norm_bps must be > 0 or auto, got 0.0"),
    ("env.slot_duration_s = -0.005", EVAL, "env.slot_duration_s must be > 0, got -0.005"),
    ("train.updates_per_step = 0", TRAIN, "train.updates_per_step must be >= 1, got 0"),
    ("train.huber_delta = 0.0", TRAIN, "train.huber_delta must be > 0, got 0.0"),
    # warmup 16 fits, but a batch of 21 is never stored
    ("train.replay_capacity = 20\ntrain.batch_size = 21", TRAIN,
     "train.batch_size must be <= train.replay_capacity, got 21 > 20"),
    ("train.replay_capacity = 0", TRAIN, "train.replay_capacity must be >= 1, got 0"),
    # the replay never holds the 16 warmup transitions, so no update would run
    ("train.replay_capacity = 10", TRAIN, "train.warmup must be <= train.replay_capacity, got 16 > 10"),
    # min(left, nan) is left, so every broadcast would "deliver"
    ("channel.rb_bandwidth_hz = nan", BASELINE, "channel.rb_bandwidth_hz: not a finite number: 'nan'"),
    ("train.lr = nan", TRAIN, "train.lr: not a finite number: 'nan'"),
    ("workload.deadline_len_slots = 7", TRAIN, "workload.deadline_len_slots must be <= env.T, got 7 > 6"),
    ("workload.deadline_len_slots = 0", TRAIN, "workload.deadline_len_slots must be >= 1, got 0"),
    ("workload.slice2_bytes = 0", TRAIN, "workload.slice2_bytes must be >= 1, got 0"),
    ("workload.slice1_bits_min = 2e6", TRAIN,
     "workload.slice1_bits_min must be <= workload.slice1_bits_max, got 2000000.0 > 1000000.0"),
    ("workload.slice1_bits_min = 0.0", TRAIN, "workload.slice1_bits_min must be > 0, got 0.0"),
    # a negative count would run nothing and write a header-only CSV
    ("run.eval_episodes = -1", EVAL, "run.eval_episodes must be >= 0, got -1"),
    ("run.swap_max_iters = -1", BASELINE, "run.swap_max_iters must be >= 0, got -1"),
    # a 1 m road never holds m + n vehicles, so the vehicle drop must give up
    ("road.length_m = 1.0", TRAIN, None),
    ("road.length_m = 1.0", EVAL, None),
    ("train.priority_eps = -0.5", TRAIN, "train.priority_eps must be > 0, got -0.5"),
    ("train.hidden = 0", TRAIN, "train.hidden entries must be >= 1, got (0,)"),
    ("train.alpha = -1.0", TRAIN, "train.alpha must be >= 0, got -1.0"),
    ("train.beta_start = 2.0", TRAIN, "train.beta_start must be in [0, 1], got 2.0"),
    ("train.beta_end = -0.5", TRAIN, "train.beta_end must be in [0, 1], got -0.5"),
    ("train.eps_anneal_frac = -1.0", TRAIN, "train.eps_anneal_frac must be in [0, 1], got -1.0"),
]


@pytest.mark.parametrize(
    "line, command, says", MALFORMED, ids=[f"{line}-command{i}" for i, (line, _, _) in enumerate(MALFORMED)]
)
def test_main_rejects_malformed_config_value(tmp_path, monkeypatch, capsys, line, command, says):
    monkeypatch.chdir(tmp_path)
    cfg = tiny_cfg()
    text = config_text(cfg, line)
    Path("run.cfg").write_text(text)
    save_checkpoint(DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, rng=None), Path("ckpt.bin"))
    before = sorted(tmp_path.iterdir())
    assert cli.main([command[0], "--config", "run.cfg", *command[1:], "--episodes", "1"]) == 1
    err = capsys.readouterr().err
    if says is None:  # refused at vehicle placement, not by the config
        assert err.startswith("error: ")
    else:  # the line is the last one that set a key the refusal names
        lineno = max(line_of(text, key) for key in re.findall(r"[a-z]\w*\.\w+", says))
        assert err == f"error: run.cfg: line {lineno}: {says}\n"
    assert sorted(tmp_path.iterdir()) == before  # rejected before any output


@pytest.mark.parametrize(
    "argv",
    [
        ["baseline", "--algorithms", "NOMA-MP", "--out", "base.csv", "--episodes", "-2"],
        ["eval", "--checkpoint", "ckpt.bin", "--out", "eval.csv", "--episodes", "-1"],
        ["oracle", "--instances", "-5", "--out", "oracle.csv"],
        ["baseline", "--algorithms", ",", "--out", "base.csv", "--episodes", "1"],
    ],
)
def test_main_rejects_negative_counts_and_empty_algorithms(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    cfg = tiny_cfg()
    Path("run.cfg").write_text(serialize_config(cfg))
    save_checkpoint(DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, rng=None), Path("ckpt.bin"))
    before = sorted(tmp_path.iterdir())
    assert cli.main([argv[0], "--config", "run.cfg", *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""
    assert sorted(tmp_path.iterdir()) == before  # rejected before any output


def test_main_rejects_a_lane_that_stands_still(tmp_path, monkeypatch, capsys):
    # with 6 lanes per direction the slowest backward lane runs at 0 km/h and
    # its Poisson drop would never end, so placement must not be reached
    def unreachable(*args):
        raise AssertionError("vehicle placement ran on a road the config should reject")

    monkeypatch.setattr(scenario, "poisson_positions", unreachable)
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(config_text(tiny_cfg(), "road.lanes_per_direction = 6"))
    before = sorted(tmp_path.iterdir())
    assert cli.main(["train", "--config", "run.cfg", "--out", "run", "--episodes", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "road.lanes_per_direction" in err
    assert sorted(tmp_path.iterdir()) == before  # rejected before any output


def test_main_accepts_zero_counts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = dataclasses.replace(tiny_cfg(), eval_episodes=0, swap_max_iters=0)
    Path("run.cfg").write_text(serialize_config(cfg))
    assert cli.main(["baseline", "--config", "run.cfg", "--algorithms", "NOMA-MP", "--out", "base.csv"]) == 0
    assert Path("base.csv").read_text().count("\n") == 2  # schema line and header, no episode
    assert cli.main(["oracle", "--config", "run.cfg", "--instances", "0"]) == 0
    assert "0 instances" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_main_reports_training_divergence(tmp_path, monkeypatch, capsys):
    # a finite but absurd learning rate passes the parser; the loss then goes non-finite
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(config_text(tiny_cfg(), "train.lr = 1e300"))
    assert cli.main(["train", "--config", "run.cfg", "--out", "run", "--episodes", "10", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at episode ")
    assert "Traceback" not in err
    assert not Path("run").exists()  # the empty directory train made is gone
    # a directory that was there before the run stays, empty or not
    Path("kept").mkdir()
    assert cli.main(["train", "--config", "run.cfg", "--out", "kept", "--episodes", "10", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: non-finite loss at episode ")
    assert Path("kept").is_dir() and not any(Path("kept").iterdir())


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--checkpoint", "ckpt.bin", "--out", "eval.csv"],
        ["baseline", "--algorithms", "NOMA-MP", "--out", "base.csv"],
    ],
)
def test_deadline_sweep_past_horizon_fails_before_any_episode(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    cfg = tiny_cfg()  # T = 6, deadline sweep 2..8
    Path("run.cfg").write_text(serialize_config(cfg))
    save_checkpoint(DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, rng=None), Path("ckpt.bin"))
    starts = []
    draw_world = cli.WorldStream.__call__

    def spy(stream, ep):
        starts.append(ep)
        return draw_world(stream, ep)

    monkeypatch.setattr(cli.WorldStream, "__call__", spy)
    argv = [command[0], "--config", "run.cfg", *command[1:], "--episodes", "1", "--sweep", "deadlines"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: run.deadline_sweep_slots entries must be <= env.T, got 8 > 6\n"
    assert starts == []
    assert not Path(command[-1]).exists()


def test_unknown_sweep_is_refused_naming_every_sweep():
    with pytest.raises(ValueError, match="unknown sweep 'bogus'") as info:
        cli.sweep_points(RunConfig(), "bogus")
    named = re.findall(r"\w+", str(info.value).split("expected", 1)[1])
    assert [word for word in named if word != "or"] == list(cli.SWEEPS)
    for sweep in cli.SWEEPS:  # each one the parser offers is a branch
        assert cli.sweep_points(RunConfig(), sweep)
        for command in (["eval", "--checkpoint", "c.bin"], ["baseline"]):
            assert cli.build_parser().parse_args([*command, "--out", "o.csv", "--sweep", sweep]).sweep == sweep


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_config_rejects_infinite_road_length(value):
    # an infinite road would make poisson_positions loop forever
    with pytest.raises(ValueError, match=r"line 1: road\.length_m: not a finite number"):
        parse_config(f"road.length_m = {value}\n")


def test_config_rejects_road_longer_than_cap():
    # generate_vehicles' time and memory grow with the length; only the config is built here
    with pytest.raises(ValueError, match=r"^line 1: road\.length_m must be <= 1000000\.0, got 1000000000000\.0$"):
        parse_config("road.length_m = 1e12\n")
    assert parse_config(f"road.length_m = {MAX_ROAD_LENGTH_M!r}\n").road.length_m == MAX_ROAD_LENGTH_M


def test_default_config_digest_is_pinned():
    # names the acceptance-cache directory; drift would force a full retrain
    key = hashlib.sha256(serialize_config(RunConfig()).encode()).hexdigest()[:16]
    assert key == "ad8e64e49a505c85"


_VALUES = {
    int: st.integers(-(2**63), 2**63),
    float: st.floats(allow_nan=False, allow_infinity=False),
    bool: st.booleans(),
    float | None: st.none() | st.floats(allow_nan=False, allow_infinity=False),
    tuple[int, ...]: st.lists(st.integers(-(2**63), 2**63), min_size=1, max_size=6).map(tuple),
}


def _config_keys():
    """(section field or None for run scalars, key, type) for every config key."""
    hints = typing.get_type_hints(RunConfig)
    for f in dataclasses.fields(RunConfig):
        if dataclasses.is_dataclass(hints[f.name]):
            section_hints = typing.get_type_hints(hints[f.name])
            for g in dataclasses.fields(hints[f.name]):
                yield f.name, g.name, section_hints[g.name]
        else:
            yield None, f.name, hints[f.name]


# One refused value per bound of every config key, and the exact refusal.
REFUSALS = [
    ("road.length_m", 0.0, "road.length_m must be > 0, got 0.0"),
    ("road.length_m", 1e12, "road.length_m must be <= 1000000.0, got 1000000000000.0"),
    ("road.lane_width_m", -4.0, "road.lane_width_m must be > 0, got -4.0"),
    ("road.lanes_per_direction", 0, "road.lanes_per_direction must be >= 1, got 0"),
    ("road.lanes_per_direction", 6,
     "road.lanes_per_direction must leave every lane moving, got 6: backward lane 12 runs at 0 km/h"),
    ("channel.fc_ghz", 0.0, "channel.fc_ghz must be > 0, got 0.0"),
    ("channel.antenna_height_m", 1.0, "channel.antenna_height_m must be > 1.0, got 1.0"),
    ("channel.shadow_sigma_db", -3.0, "channel.shadow_sigma_db must be >= 0, got -3.0"),
    ("channel.rb_bandwidth_hz", -1.0, "channel.rb_bandwidth_hz must be > 0, got -1.0"),
    ("channel.min_distance_m", 0.0, "channel.min_distance_m must be > 0, got 0.0"),
    ("env.m", 0, "env.m must be >= 1, got 0"),
    ("env.n", -1, "env.n must be >= 1, got -1"),
    ("env.F", 0, "env.F must be >= 1, got 0"),
    ("env.T", 0, "env.T must be >= 1, got 0"),
    ("env.T", 4, "workload.deadline_len_slots must be <= env.T, got 8 > 4"),
    ("env.slot_duration_s", 0.0, "env.slot_duration_s must be > 0, got 0.0"),
    ("env.gamma", 0.0, "env.gamma must be in (0, 1], got 0.0"),
    ("env.gamma", 1.5, "env.gamma must be in (0, 1], got 1.5"),
    ("env.rate_norm_bps", -1.0, "env.rate_norm_bps must be > 0 or auto, got -1.0"),
    ("train.episodes", 0, "train.episodes must be >= 1, got 0"),
    ("train.lr", -1.0, "train.lr must be > 0, got -1.0"),
    ("train.batch_size", 0, "train.batch_size must be >= 1, got 0"),
    ("train.batch_size", 100_001, "train.batch_size must be <= train.replay_capacity, got 100001 > 100000"),
    ("train.target_copy_period", 0, "train.target_copy_period must be >= 1, got 0"),
    ("train.eps_start", 1.5, "train.eps_start must be in [0, 1], got 1.5"),
    ("train.eps_start", 0.01, "train.eps_end must be <= train.eps_start, got 0.02 > 0.01"),
    ("train.eps_end", 0.0, "train.eps_end must be > 0, got 0.0"),
    ("train.eps_anneal_frac", 2.0, "train.eps_anneal_frac must be in [0, 1], got 2.0"),
    ("train.replay_capacity", 0, "train.replay_capacity must be >= 1, got 0"),
    ("train.alpha", -1.0, "train.alpha must be >= 0, got -1.0"),
    ("train.beta_start", -0.5, "train.beta_start must be in [0, 1], got -0.5"),
    ("train.beta_end", 2.0, "train.beta_end must be in [0, 1], got 2.0"),
    ("train.priority_eps", 0.0, "train.priority_eps must be > 0, got 0.0"),
    ("train.warmup", 100_001, "train.warmup must be <= train.replay_capacity, got 100001 > 100000"),
    ("train.updates_per_step", 0, "train.updates_per_step must be >= 1, got 0"),
    ("train.hidden", (4, 0), "train.hidden entries must be >= 1, got (4, 0)"),
    ("train.huber_delta", 0.0, "train.huber_delta must be > 0, got 0.0"),
    ("train.seed", -1, "train.seed must be >= 0, got -1"),
    ("workload.slice1_bits_min", 0.0, "workload.slice1_bits_min must be > 0, got 0.0"),
    ("workload.slice1_bits_max", 10.0,
     "workload.slice1_bits_min must be <= workload.slice1_bits_max, got 100000.0 > 10.0"),
    ("workload.slice2_bytes", 0, "workload.slice2_bytes must be >= 1, got 0"),
    ("workload.deadline_len_slots", 0, "workload.deadline_len_slots must be >= 1, got 0"),
    ("workload.deadline_len_slots", 21, "workload.deadline_len_slots must be <= env.T, got 21 > 20"),
    ("run.seed", -1, "run.seed must be >= 0, got -1"),
    ("run.eval_episodes", -1, "run.eval_episodes must be >= 0, got -1"),
    ("run.size_multipliers", (2, 0), "run.size_multipliers entries must be >= 1, got 0"),
    ("run.size_multipliers", (2, 2), "run.size_multipliers repeats 2"),
    ("run.deadline_sweep_slots", (0,), "run.deadline_sweep_slots entries must be >= 1, got 0"),
    ("run.deadline_sweep_slots", (3, 3), "run.deadline_sweep_slots repeats 3"),
    ("run.swap_max_iters", -1, "run.swap_max_iters must be >= 0, got -1"),
]
# config keys that accept any value their parser does
UNBOUNDED = {
    "channel.antenna_gain_dbi", "channel.noise_figure_db", "channel.noise_floor_dbm",
    "env.reward_upper_bound", "train.double_q",
}


@pytest.mark.parametrize("key, value, says", REFUSALS)
def test_config_refusal_names_key_value_and_line(key, value, says):
    # a refusal names the key it refuses and its value (a bound on another key
    # names both), and parse_config adds the line that set the key
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    with pytest.raises(ValueError, match=rf"^line 1: {re.escape(says)}$"):
        parse_config(f"{key} = {text}\n")
    section, name = key.split(".")
    with pytest.raises(ValueError, match=rf"^{re.escape(says)}$"):
        if section == "run":
            RunConfig(**{name: value})
        else:
            RunConfig(**{section: dataclasses.replace(getattr(RunConfig(), section), **{name: value})})
    assert key in says


def test_every_config_key_is_bounded_or_free():
    keys = {f"{section or 'run'}.{name}" for section, name, _ in _config_keys()}
    assert {key for key, _, _ in REFUSALS} | UNBOUNDED == keys
    for key in UNBOUNDED:
        for text in ("true", "false") if key == "train.double_q" else ("-1e300", "0.0", "1e300"):
            parse_config(f"{key} = {text}\n")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_config_roundtrip_property(data):
    # a draw the validators reject leaves the key at its previous value
    cfg = RunConfig()
    for section, name, typ in _config_keys():
        value = data.draw(_VALUES[typ], label=f"{section or 'run'}.{name}")
        with contextlib.suppress(ValueError):
            if section is None:
                cfg = dataclasses.replace(cfg, **{name: value})
            else:
                sub = dataclasses.replace(getattr(cfg, section), **{name: value})
                cfg = dataclasses.replace(cfg, **{section: sub})
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


def test_print_config_subcommand(capsys):
    assert cli.main(["print-config"]) == 0
    out = capsys.readouterr().out
    assert "env.m = 3" in out
    assert "train.lr = 1e-05" in out
    assert parse_config(out) == RunConfig()


def test_cmd_train_writes_outputs(tmp_path):
    cfg = tiny_cfg()
    ckpt, log_path = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    assert ckpt.exists() and log_path.exists()
    lines = log_path.read_text().splitlines()
    assert lines[0] == cli.TRAINING_LOG.schema
    assert lines[1] == "episode,return,moving_avg_200,epsilon,loss_mean"
    assert len(lines) == 2 + 3


def test_cmd_train_single_episode_blank_moving_avg(tmp_path):
    cfg = tiny_cfg()
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, episodes=1))
    _, log_path = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    lines = log_path.read_text().splitlines()
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert fields[0] == "1" and fields[2] == ""  # moving average absent


def test_train_determinism_byte_for_byte(tmp_path):
    cfg = tiny_cfg()
    ckpt1, log1 = cli.cmd_train(cfg, tmp_path / "a", quiet=True)
    ckpt2, log2 = cli.cmd_train(cfg, tmp_path / "b", quiet=True)
    assert ckpt1.read_bytes() == ckpt2.read_bytes()
    assert log1.read_bytes() == log2.read_bytes()


@pytest.mark.parametrize(
    "double_q, checkpoint_sha256, log_sha256",
    [
        (
            False,
            "19efe08a1cc9a980c147e280ef326df9bfbb091c8fa3e24aeb1af05818139cd5",
            "8354e09b651b75bab044e84caa966aa03c3f8475d4a4798d044db1eb940df4da",
        ),
        (
            True,
            "393a1bdce98555ad63f9cda01a4dddc35e72d8166edc51bd531ce218d13a60c9",
            "78d9e70c7a7e67113a06eec8a454b4ac8ff5b1082489ea0cd02270d9ac21e1eb",
        ),
    ],
    ids=["dqn", "double-q"],
)
def test_train_output_digests_are_pinned(tmp_path, double_q, checkpoint_sha256, log_sha256):
    """A short seeded training run on the default config (3 episodes, about
    120 updates) writes exactly the recorded bytes, so any drift in the
    environment, network, optimizer or replay arithmetic shows here."""
    cfg = RunConfig()
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, episodes=3, warmup=60, double_q=double_q))
    # on the kernels where they build, with the network on numpy, then on the fallback
    for path in (contextlib.nullcontext, forced_no_blas, forced_fallback):
        with path():
            ckpt, log_path = cli.cmd_train(cfg, tmp_path / path.__name__, quiet=True)
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == checkpoint_sha256
        assert hashlib.sha256(log_path.read_bytes()).hexdigest() == log_sha256


# `python -c` programs that run `cli.main` on their arguments: one with the
# learner forced onto its fallback, one that prints whether the process left
# the kernels unbuilt
FALLBACK_MAIN = (
    "import sys; from iovslice import cli; from iovslice.dqn import kernels;"
    " kernels.library = lambda: None; sys.exit(cli.main(sys.argv[1:]))"
)
UNBUILT_MAIN = (
    "import sys; from iovslice import cli; from iovslice.dqn import kernels;"
    " code = cli.main(sys.argv[1:]); print(kernels._handle is kernels._UNSET); sys.exit(code)"
)


def cli_env(**extra):
    """This environment with `src/` on PYTHONPATH, for a fresh `python`."""
    src = str(Path(__file__).parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The pinned 3-episode default training run writes the same checkpoint
    and log bytes with one BLAS thread and with two. Each run is a fresh
    process, since BLAS reads its thread count when numpy is imported."""
    cfg = RunConfig()
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, episodes=3, warmup=60))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(cfg))
    outputs = []
    for threads in ("1", "2"):
        for main in (["-m", "iovslice.cli"], ["-c", FALLBACK_MAIN]):  # kernels where they build, then the fallback
            out = tmp_path / f"threads-{threads}-{main[0]}"
            argv = [sys.executable, *main, "train", "--config", str(cfg_path), "--out", str(out), "--quiet"]
            env = cli_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run(argv, env=env, check=True, timeout=300)
            outputs.append([(out / name).read_bytes() for name in ("checkpoint.bin", "training_log.csv")])
    assert all(each == outputs[0] for each in outputs)


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--checkpoint", "ckpt.bin", "--out", "eval.csv", "--episodes", "1"],
        ["baseline", "--out", "base.csv", "--episodes", "1"],
        ["oracle", "--instances", "2", "--out", "oracle.csv"],
        ["plotdata", "--inputs", "eval.csv", "--out", "plot.csv"],
        ["train", "--out", "run", "--episodes", "1"],
    ],
    ids=lambda command: command[0],
)
def test_only_training_builds_the_kernels(tmp_path, command):
    """Each command in a fresh process: those that run no network pass leave
    the kernel loader unset, so their set-up time and memory do not carry
    the build; `train` and `eval`, whose network passes run in the kernels
    from the first one on, show that the probe sees a build."""
    cfg = dataclasses.replace(tiny_cfg(), train=TrainConfig(episodes=1, warmup=8, batch_size=8, seed=1))
    (tmp_path / "run.cfg").write_text(serialize_config(cfg))
    save_checkpoint(DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, rng=None), tmp_path / "ckpt.bin")
    if command[0] == "plotdata":
        cli.cmd_eval(cfg, tmp_path / "ckpt.bin", tmp_path / "eval.csv", episodes=1, sweep="none")
    config = [] if command[0] == "plotdata" else ["--config", "run.cfg"]
    argv = [sys.executable, "-c", UNBUILT_MAIN, command[0], *config, *command[1:]]
    done = subprocess.run(argv, env=cli_env(), cwd=tmp_path, capture_output=True, text=True, timeout=300)
    unbuilt = command[0] not in ("train", "eval")
    assert (done.returncode, done.stdout.splitlines()[-1:]) == (0, [str(unbuilt)]), done.stderr


def test_baseline_output_digests_are_pinned(tmp_path):
    """All three swap-matching baselines over the size sweep at seed 3 write
    exactly the recorded bytes, so any drift in the link layer, the swap
    search or its incremental replay shows here."""
    cfg = dataclasses.replace(RunConfig(), seed=3)
    out = cli.cmd_baseline(cfg, list(cli.bl.BASELINE_NAMES), tmp_path / "base.csv", episodes=2, sweep="sizes")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2ab8f5c5c28226f9bb6c720784c6caf2a5f35b7dce45798848586290ff81d36c"
    )


def test_oracle_output_digest_is_pinned(tmp_path):
    """The tiny-instance oracle sweep at seed 3 writes exactly the recorded
    bytes, so any drift in the exhaustive search, its pruning or the link
    layer it resolves slots through shows here."""
    cfg = dataclasses.replace(RunConfig(), seed=3)
    out = tmp_path / "oracle.csv"
    cli.cmd_oracle(cfg, instances=25, out_path=out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "da5afebbcd054b11cd355b2a42e902ed1bec2b23815a4a972d2f2bb9e2c02588"
    )


def test_eval_output_digest_is_pinned(tmp_path):
    """Greedy evaluation of the committed checkpoint over the size sweep at
    seed 3 writes exactly the recorded bytes, so any drift in the worlds, the
    environment or one-row inference shows here."""
    cfg = dataclasses.replace(RunConfig(), seed=3)
    key = hashlib.sha256(serialize_config(RunConfig()).encode()).hexdigest()[:16]  # the cache's directory
    ckpt = Path(__file__).parent / ".acceptance-cache" / key / "checkpoint.bin"
    out = cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=10, sweep="sizes")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "991df19919a643feb97a5f4e20a8ceff87485fd6d8f3ab5f46df5c612d1e5a7b"
    )


def test_plotdata_output_digest_is_pinned(tmp_path):
    """`plotdata` of the committed sizes-sweep DQL rows and default-point
    baseline rows writes exactly the recorded bytes. Groups sort on the
    parsed counts, so the DQL sizes read in numeric order."""
    cache = Path(__file__).parent / ".acceptance-cache"
    inputs = [cache / "eval-sizes" / "dql.csv", cache / "eval-default" / "baselines.csv"]
    out = cli.cmd_plotdata(inputs, tmp_path / "plot.csv")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "77adef38c80c789955b92c2681eaf573468bff7da126bf7946f780c3d21b948f"
    )
    dql = [line.split(",") for line in out.read_text().splitlines()[2:] if line.startswith("DQL,")]
    assert [row[1] for row in dql] == ["600", "1200", "1800", "2400", "3000"]


def test_cmd_eval_rows_and_bounds(tmp_path):
    cfg = tiny_cfg()
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    out = cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=3, sweep="none")
    lines = out.read_text().splitlines()
    assert lines[0] == cli.EVAL.schema
    header = lines[1].split(",")
    assert header == list(cli.EVAL.columns)
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == 3
    m, n = cfg.env.m, cfg.env.n
    for row in rows:
        assert row["algorithm"] == "DQL"
        assert int(row["slice1_packets"]) + int(row["slice2_packets"]) <= 2 * m
        assert int(row["slice1_delivered"]) <= m * n
        assert int(row["slice2_delivered"]) <= m * n
        assert len(row["channel_hash"]) == 16


def test_cmd_eval_shape_mismatch(tmp_path):
    cfg = tiny_cfg()
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    bigger = dataclasses.replace(cfg, env=EnvConfig(m=3, n=4, F=2, T=6))
    with pytest.raises(ValueError, match="checkpoint shapes"):
        cli.cmd_eval(bigger, ckpt, tmp_path / "eval.csv", episodes=1, sweep="none")


def test_cmd_eval_sweep_rows(tmp_path):
    cfg = tiny_cfg(size_multipliers=(2, 4))
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    out = cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=2, sweep="sizes")
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2 * 2  # sweep points x episodes
    sizes = {row[5] for row in rows}
    assert sizes == {"600", "1200"}


def test_cmd_baseline_paired_hashes(tmp_path):
    cfg = tiny_cfg()
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    eval_out = cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=2, sweep="none")
    base_out = cli.cmd_baseline(
        cfg, list(cli.bl.BASELINE_NAMES), tmp_path / "base.csv", episodes=2, sweep="none"
    )
    def rows_of(path):
        lines = path.read_text().splitlines()
        header = lines[1].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[2:]]

    eval_rows = rows_of(eval_out)
    base_rows = rows_of(base_out)
    assert len(base_rows) == 3 * 2
    by_episode = {}
    for row in (*eval_rows, *base_rows):
        by_episode.setdefault(row["episode"], set()).add(row["channel_hash"])
    for ep, hashes in by_episode.items():
        assert len(hashes) == 1  # identical channel across algorithms


def test_cmd_baseline_draws_each_world_once(tmp_path, monkeypatch):
    # every algorithm at every sweep point plays the one world drawn and
    # hashed per episode index; a run of two algorithms writes, per point,
    # each one's rows as a run of that algorithm alone does
    cfg = tiny_cfg(size_multipliers=(2, 4))
    draws, hashed, played = [], [], []
    draw_world, hash_world = cli.WorldStream.__call__, cli.trace_hash
    run_baseline = cli.bl.run_baseline

    def spy_draw(stream, ep):
        world = draw_world(stream, ep)
        draws.append((ep, world[1]))
        return world

    def spy_hash(chan):
        hashed.append(chan)
        return hash_world(chan)

    def spy_run(name, world_scenario, link, rng, max_iters):
        played.append((world_scenario.packets[1].size_bits, link))
        return run_baseline(name, world_scenario, link, rng, max_iters)

    monkeypatch.setattr(cli.WorldStream, "__call__", spy_draw)
    monkeypatch.setattr(cli, "trace_hash", spy_hash)
    monkeypatch.setattr(cli.bl, "run_baseline", spy_run)
    cli.cmd_baseline(cfg, list(cli.bl.BASELINE_NAMES), tmp_path / "all.csv", episodes=3, sweep="sizes")
    assert [ep for ep, _ in draws] == [0, 1, 2]
    links = [link for _, link in draws]
    assert len(hashed) == 3 and all(chan is link.chan for chan, link in zip(hashed, links))
    # per episode, each point's own safety payload, on that episode's one link
    assert played == [(8.0 * size, link) for link in links for size in (600, 1200) for _ in cli.bl.BASELINE_NAMES]

    def rows(names, path):
        cli.cmd_baseline(cfg, names, path, episodes=3, sweep="sizes")
        return path.read_text().splitlines()[2:]

    pair = rows(["NOMA-RP", "OMA-MP"], tmp_path / "pair.csv")
    alone = {name: rows([name], tmp_path / f"{name}.csv") for name in ("NOMA-RP", "OMA-MP")}
    assert len(pair) == 2 * 2 * 3
    for point in range(2):  # three rows per algorithm and point
        assert pair[6 * point : 6 * point + 6] == [
            *alone["NOMA-RP"][3 * point : 3 * point + 3],
            *alone["OMA-MP"][3 * point : 3 * point + 3],
        ]


@pytest.mark.parametrize("point", [{"slice2_bytes": 3000}, {"deadline_len_slots": 2}])
def test_world_at_another_point_is_that_points_world(point):
    # a sweep point's scenario on the first point's stream equals the world a
    # stream of its own draws, down to the channel and the packets
    cfg = tiny_cfg()
    workload = dataclasses.replace(cfg.workload, **point)
    first = cli.WorldStream(cfg.road, cfg.env, cfg.channel, cfg.workload, cfg.seed, cli.TAG_EVAL)
    own = cli.WorldStream(cfg.road, cfg.env, cfg.channel, workload, cfg.seed, cli.TAG_EVAL)
    for ep in range(3):
        first_scenario, first_link = first(ep)
        own_scenario, own_link = own(ep)
        assert first.with_workload(first_scenario, workload, ep) == own_scenario != first_scenario
        assert cli.trace_hash(first_link.chan) == cli.trace_hash(own_link.chan)


def test_each_world_builds_one_link(tmp_path, monkeypatch):
    # the world stream builds the only link tables: every algorithm, the
    # oracle and the greedy rollout play a world on the link it came with
    built = []

    class SpyLink(phy.EpisodeLink):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(phy, "EpisodeLink", SpyLink)
    cfg = tiny_cfg(size_multipliers=(2, 4))
    cli.cmd_baseline(cfg, list(cli.bl.BASELINE_NAMES), tmp_path / "base.csv", episodes=3, sweep="sizes")
    assert len(built) == 3  # one per episode, whatever the sweep points
    built.clear()
    cli.cmd_oracle(cfg, instances=4, out_path=None)
    assert len(built) == 4
    built.clear()
    ckpt = tmp_path / "ckpt.bin"
    save_checkpoint(DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, rng=None), ckpt)
    cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=3, sweep="none")
    assert len(built) == 3


def test_cmd_baseline_unknown_name(tmp_path):
    cfg = tiny_cfg()
    with pytest.raises(ValueError, match="valid names"):
        cli.cmd_baseline(cfg, ["NOMA-XX"], tmp_path / "x.csv", episodes=1, sweep="none")
    # and through the CLI entry point: nonzero exit, message on stderr
    rc = cli.main(
        ["baseline", "--algorithms", "NOMA-XX", "--out", str(tmp_path / "x.csv"), "--episodes", "1"]
    )
    assert rc == 1


def test_cmd_baseline_rejects_a_repeated_name(tmp_path, monkeypatch):
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(cli.bl, "run_baseline", no_episode)
    with pytest.raises(ValueError, match="duplicate baseline NOMA-MP"):
        cli.cmd_baseline(tiny_cfg(), ["NOMA-MP", "NOMA-MP"], tmp_path / "x.csv", episodes=3, sweep="none")
    assert not (tmp_path / "x.csv").exists()


def test_cmd_plotdata_rejects_a_repeated_row(tmp_path):
    base_out = cli.cmd_baseline(tiny_cfg(), ["NOMA-MP"], tmp_path / "base.csv", episodes=3, sweep="none")
    with pytest.raises(ValueError, match="duplicate row for NOMA-MP episode 0"):
        cli.cmd_plotdata([base_out, base_out], tmp_path / "plot.csv")
    assert not (tmp_path / "plot.csv").exists()


@pytest.mark.parametrize(
    "column, value",
    [
        ("slice1_delivered", "nan"),
        ("slice1_delivered", "inf"),
        ("slice2_delivered", "-1"),
        ("slice2_delivered", "1.5"),
        ("slice1_delivered", "abc"),
        ("slice1_delivered", "007"),
        ("slice2_packets", "x"),
    ],
)
def test_cmd_plotdata_rejects_a_non_count(tmp_path, capsys, column, value):
    """A delivered or packet count that is not a nonnegative integer as
    `str(int)` writes it fails naming the file and episode, and no output
    is written."""
    rows = [dict(zip(cli.EVAL.columns, ["DQL", ep, 2, 1, 0.5, 600, 8, 3, 3, "90eac777210bf0f4"])) for ep in range(3)]
    eval_csv = tmp_path / "eval.csv"

    def write_rows():
        cli.EVAL.write(eval_csv, [list(r.values()) for r in rows])

    write_rows()
    plot = cli.cmd_plotdata([eval_csv], tmp_path / "good.csv").read_text().splitlines()
    assert plot[2].split(",")[3:5] == ["3", "2.0"]  # episodes, slice1_mean
    rows[1][column] = value
    write_rows()
    out = tmp_path / "plot.csv"
    assert cli.main(["plotdata", "--inputs", str(eval_csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {eval_csv}: episode 1: {column} {value!r}")
    assert not out.exists()


@pytest.mark.parametrize(
    "column, value, says",
    [
        ("slice2_bytes", "0600", "episode 1: slice2_bytes '0600' is not a canonical nonnegative integer"),
        ("deadline_slots", "+8", "episode 1: deadline_slots '+8' is not a canonical nonnegative integer"),
        ("deadline_slots", "8.0", "episode 1: deadline_slots '8.0' is not a canonical nonnegative integer"),
        ("episode", "x", "episode 'x' is not a canonical nonnegative integer"),
        ("episode", "01", "episode '01' is not a canonical nonnegative integer"),
        ("prr", "nope", "episode 1: prr 'nope' is neither empty nor a number in [0, 1]"),
        ("prr", "nan", "episode 1: prr 'nan' is neither empty nor a number in [0, 1]"),
        ("prr", "1.5", "episode 1: prr '1.5' is neither empty nor a number in [0, 1]"),
    ],
)
def test_cmd_plotdata_rejects_a_non_canonical_field(tmp_path, capsys, column, value, says):
    """A hand-written eval file whose second row spells its sweep point or
    episode other than `str(int)` does (`0600` would group apart from
    `600`) or carries a prr outside [0, 1] fails naming the file, and no
    output is written; the same file with canonical fields, an empty prr and
    prr 0 and 1 aggregates into one row."""
    rows = [["DQL", ep, 2, 1, prr, 600, 8, 3, 3, "90eac777210bf0f4"] for ep, prr in enumerate(["", 0.0, 1])]
    eval_csv = tmp_path / "eval.csv"
    cli.EVAL.write(eval_csv, rows)
    plot = cli.cmd_plotdata([eval_csv], tmp_path / "good.csv").read_text().splitlines()
    assert [line.split(",")[:4] for line in plot[2:]] == [["DQL", "600", "8", "3"]]
    rows[1][list(cli.EVAL.columns).index(column)] = value
    cli.EVAL.write(eval_csv, rows)
    out = tmp_path / "plot.csv"
    assert cli.main(["plotdata", "--inputs", str(eval_csv), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {eval_csv}: {says}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "case, says",
    [
        ("short row", "line 4: 9 fields, not 10"),
        ("extra field", "line 4: 11 fields, not 10"),
        ("long field", "line 4: field larger than field limit"),
        ("repeated column", "unexpected=['slice1_delivered']"),
        ("not utf-8", "'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_cmd_plotdata_rejects_a_malformed_file(tmp_path, capsys, case, says):
    """A row with fewer or more fields than the header, a field over csv's
    size limit, a header naming a column twice and bytes that are not UTF-8
    each fail naming the file, and no output is written."""
    rows = [["DQL", ep, 2, 1, 0.5, 600, 8, 3, 3, "90eac777210bf0f4"] for ep in range(3)]
    if case == "short row":
        rows[1].pop()
    elif case == "extra field":
        rows[1].append(7)
    elif case == "long field":
        rows[1][-1] = "f" * 200_000
    eval_csv = tmp_path / "eval.csv"
    cli.EVAL.write(eval_csv, rows)
    if case == "repeated column":  # a second slice1_delivered, which must not replace the first
        with open(eval_csv, "w", newline="") as fh:
            fh.write(cli.EVAL.schema + "\n")
            csv.writer(fh).writerows([[*cli.EVAL.columns, "slice1_delivered"], *(row + [9] for row in rows)])
    elif case == "not utf-8":
        eval_csv.write_bytes(eval_csv.read_bytes().replace(b"DQL,1,", b"DQ\xff,1,"))
    out = tmp_path / "plot.csv"
    assert cli.main(["plotdata", "--inputs", str(eval_csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {eval_csv}: ") and says in err
    assert not out.exists()


_COUNT = st.integers(min_value=0)
_TEXT = st.text(st.characters(blacklist_categories=["Cs"]))  # a lone surrogate has no UTF-8 form


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_TEXT, *[_COUNT] * 3, st.none() | st.floats(0.0, 1.0), *[_COUNT] * 4, _TEXT)))
def test_eval_table_round_trip(tmp_path_factory, rows):
    """EVAL rows of valid values read back as written: counts as ints, a
    float prr bit for bit, a None prr through an empty field and back."""
    path = tmp_path_factory.mktemp("eval") / "eval.csv"
    cli.EVAL.write(path, rows)

    def exact(row):
        return [v.hex() if isinstance(v, float) else v for v in row]

    assert [exact(row.values()) for row in cli.EVAL.read(path)] == [exact(row) for row in rows]


def test_cmd_plotdata_aggregates(tmp_path):
    cfg = tiny_cfg()
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    eval_out = cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=3, sweep="none")
    base_out = cli.cmd_baseline(cfg, ["NOMA-MP"], tmp_path / "base.csv", episodes=3, sweep="none")
    plot = cli.cmd_plotdata([eval_out, base_out], tmp_path / "plot.csv")
    lines = plot.read_text().splitlines()
    assert lines[0] == cli.PLOTDATA.schema
    header = lines[1].split(",")
    assert header == list(cli.PLOTDATA.columns)
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == 2  # algorithms x one sweep point
    for row in rows:
        assert row["episodes"] == "3"
        total = float(row["slice1_mean"]) + float(row["slice2_mean"])
        assert total == pytest.approx(float(row["total_mean"]))


def test_cmd_plotdata_single_episode_blank_stderr(tmp_path):
    cfg = tiny_cfg()
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    eval_out = cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=1, sweep="none")
    plot = cli.cmd_plotdata([eval_out], tmp_path / "plot.csv")
    lines = plot.read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["slice1_stderr"] == "" and row["total_stderr"] == ""


def test_cmd_plotdata_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# schema: something-else/9\na,b\n1,2\n")
    with pytest.raises(ValueError, match="schema"):
        cli.cmd_plotdata([bad], tmp_path / "plot.csv")
    mangled = tmp_path / "mangled.csv"
    mangled.write_text(cli.EVAL.schema + "\nalgorithm,episode\nDQL,0\n")
    with pytest.raises(ValueError, match="missing"):
        cli.cmd_plotdata([mangled], tmp_path / "plot.csv")


def test_cli_eval_determinism(tmp_path):
    cfg = tiny_cfg()
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    a = cli.cmd_eval(cfg, ckpt, tmp_path / "a.csv", episodes=2, sweep="none")
    b = cli.cmd_eval(cfg, ckpt, tmp_path / "b.csv", episodes=2, sweep="none")
    assert a.read_bytes() == b.read_bytes()


def test_cmd_train_unwritable_out_fails_fast(tmp_path):
    import time

    # a file where a directory should be defeats even a root test runner
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    cfg = tiny_cfg()
    t0 = time.time()
    with pytest.raises(OSError):
        cli.cmd_train(cfg, blocked / "run", quiet=True)
    assert time.time() - t0 < 2.0  # failed before any training compute


@pytest.mark.parametrize("command", ["eval", "baseline", "oracle"])
def test_unwritable_out_fails_before_the_first_episode(tmp_path, monkeypatch, command):
    # a file where a directory should be defeats even a root test runner
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    cfg = tiny_cfg()
    ckpt = tmp_path / "ckpt.bin"
    save_checkpoint(DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, rng=None), ckpt)
    starts = []
    draw_world = cli.WorldStream.__call__

    def spy(stream, ep):
        starts.append(ep)
        return draw_world(stream, ep)

    monkeypatch.setattr(cli.WorldStream, "__call__", spy)
    out = blocked / f"{command}.csv"
    with pytest.raises(OSError):
        if command == "eval":
            cli.cmd_eval(cfg, ckpt, out, episodes=3, sweep="none")
        elif command == "baseline":
            cli.cmd_baseline(cfg, ["NOMA-MP"], out, episodes=3, sweep="none")
        else:
            cli.cmd_oracle(cfg, instances=3, out_path=out)
    assert starts == []


def test_cmd_oracle_runs(tmp_path):
    cfg = tiny_cfg()
    results = cli.cmd_oracle(cfg, instances=3, out_path=tmp_path / "oracle.csv")
    assert len(results) == 3
    for r in results:
        for name in cli.bl.BASELINE_NAMES:
            assert r[name] <= r["optimum"]
    assert (tmp_path / "oracle.csv").exists()


def test_oracle_instance_honours_swap_max_iters():
    from iovslice.worlds import WorkloadConfig

    cfg = dataclasses.replace(RunConfig(), swap_max_iters=0)
    env_cfg = EnvConfig(m=2, n=2, F=1, T=3)
    for seed in range(20):
        _, _, _, runs = cli.oracle_instance(cfg, env_cfg, WorkloadConfig(deadline_len_slots=2), seed)
        assert all(len(run.objective_history) == 1 for run in runs.values())


def test_main_oracle(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(tiny_cfg()))
    out = tmp_path / "oracle.csv"
    assert cli.main(["oracle", "--config", str(cfg_path), "--instances", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("2 instances, max policy-minus-optimum gap ")
    assert int(printed.rsplit(" ", 1)[1]) <= 0
    assert out.exists()


def test_main_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(tiny_cfg()))
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"), "--quiet"]) == 0
    assert cli.main(
        [
            "eval",
            "--config", str(cfg_path),
            "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
            "--out", str(tmp_path / "eval.csv"),
            "--episodes", "2",
        ]
    ) == 0
    assert (tmp_path / "eval.csv").exists()
