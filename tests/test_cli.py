import contextlib
import dataclasses
import hashlib
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iovslice import cli
from iovslice.config import RunConfig, parse_config, serialize_config
from iovslice.dqn import DuelingQNetwork, TrainConfig, save_checkpoint
from iovslice.env import EnvConfig


def tiny_cfg(**run_kw):
    from iovslice.worlds import WorkloadConfig

    return RunConfig(
        env=EnvConfig(m=2, n=2, F=2, T=6),
        train=TrainConfig(episodes=3, warmup=16, batch_size=8, seed=1),
        workload=WorkloadConfig(deadline_len_slots=4),
        eval_episodes=3,
        **run_kw,
    )


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


@pytest.mark.parametrize(
    "line, command",
    [
        ("train.target_copy_period = 0", ["train", "--out", "run"]),
        ("env.rate_norm_bps = 0.0", ["eval", "--checkpoint", "ckpt.bin", "--out", "eval.csv"]),
        ("env.slot_duration_s = -0.005", ["eval", "--checkpoint", "ckpt.bin", "--out", "eval.csv"]),
        ("train.updates_per_step = 0", ["train", "--out", "run"]),
        ("train.huber_delta = 0.0", ["train", "--out", "run"]),
        # warmup 16 fits, but a batch of 21 is never stored
        ("train.replay_capacity = 20\ntrain.batch_size = 21", ["train", "--out", "run"]),
        ("train.replay_capacity = 0", ["train", "--out", "run"]),
        # the replay never holds the 16 warmup transitions, so no update would run
        ("train.replay_capacity = 10", ["train", "--out", "run"]),
        # min(left, nan) is left, so every broadcast would "deliver"
        ("channel.rb_bandwidth_hz = nan", ["baseline", "--algorithms", "NOMA-MP", "--out", "base.csv"]),
        ("train.lr = nan", ["train", "--out", "run"]),
        ("workload.deadline_len_slots = 7", ["train", "--out", "run"]),  # longer than T = 6
        ("workload.deadline_len_slots = 0", ["train", "--out", "run"]),
        ("workload.slice2_bytes = 0", ["train", "--out", "run"]),
        ("workload.slice1_bits_min = 2e6", ["train", "--out", "run"]),  # above the max
        ("workload.slice1_bits_min = 0.0", ["train", "--out", "run"]),
    ],
)
def test_main_rejects_malformed_config_value(tmp_path, monkeypatch, capsys, line, command):
    monkeypatch.chdir(tmp_path)
    cfg = tiny_cfg()
    Path("run.cfg").write_text(serialize_config(cfg) + line + "\n")
    save_checkpoint(DuelingQNetwork(cfg.env.obs_dim, (4,), cfg.env.n_actions, rng=None), Path("ckpt.bin"))
    before = sorted(tmp_path.iterdir())
    assert cli.main([command[0], "--config", "run.cfg", *command[1:], "--episodes", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == before  # rejected before any output


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_main_reports_training_divergence(tmp_path, monkeypatch, capsys):
    # a finite but absurd learning rate passes the parser; the loss then goes non-finite
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(serialize_config(tiny_cfg()) + "train.lr = 1e300\n")
    assert cli.main(["train", "--config", "run.cfg", "--out", "run", "--episodes", "10", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at episode ")
    assert "Traceback" not in err


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
    assert capsys.readouterr().err == "error: deadline window 7 exceeds horizon 6\n"
    assert starts == []
    assert not Path(command[-1]).exists()


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_config_rejects_infinite_road_length(value):
    # an infinite road would make poisson_positions loop forever
    with pytest.raises(ValueError, match=r"line 1: road\.length_m: not a finite number"):
        parse_config(f"road.length_m = {value}\n")


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
    assert lines[0] == cli.TRAINING_LOG_SCHEMA
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
    ckpt, log_path = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == checkpoint_sha256
    assert hashlib.sha256(log_path.read_bytes()).hexdigest() == log_sha256


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


def test_cmd_eval_rows_and_bounds(tmp_path):
    cfg = tiny_cfg()
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    out = cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=3, sweep="none")
    lines = out.read_text().splitlines()
    assert lines[0] == cli.EVAL_SCHEMA
    header = lines[1].split(",")
    assert header == cli.EVAL_COLUMNS
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


def test_cmd_baseline_unknown_name(tmp_path):
    cfg = tiny_cfg()
    with pytest.raises(ValueError, match="valid names"):
        cli.cmd_baseline(cfg, ["NOMA-XX"], tmp_path / "x.csv", episodes=1, sweep="none")
    # and through the CLI entry point: nonzero exit, message on stderr
    rc = cli.main(
        ["baseline", "--algorithms", "NOMA-XX", "--out", str(tmp_path / "x.csv"), "--episodes", "1"]
    )
    assert rc == 1


def test_cmd_plotdata_aggregates(tmp_path):
    cfg = tiny_cfg()
    ckpt, _ = cli.cmd_train(cfg, tmp_path / "run", quiet=True)
    eval_out = cli.cmd_eval(cfg, ckpt, tmp_path / "eval.csv", episodes=3, sweep="none")
    base_out = cli.cmd_baseline(cfg, ["NOMA-MP"], tmp_path / "base.csv", episodes=3, sweep="none")
    plot = cli.cmd_plotdata([eval_out, base_out], tmp_path / "plot.csv")
    lines = plot.read_text().splitlines()
    assert lines[0] == cli.PLOTDATA_SCHEMA
    header = lines[1].split(",")
    assert header == cli.PLOTDATA_COLUMNS
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
    mangled.write_text(cli.EVAL_SCHEMA + "\nalgorithm,episode\nDQL,0\n")
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
