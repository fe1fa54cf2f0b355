"""The traced benchmark run (`perfbench/spans.py`) wraps program functions by
replacing them where callers look them up. A name that moved, or a caller that
bound it at import time, would leave a span silently empty; these checks load
the span module as it is and fail instead."""

import importlib.util
from pathlib import Path

import numpy as np

from iovslice import baselines, phy
from iovslice.channel import ChannelConfig
from iovslice.config import RunConfig
from iovslice.dqn import mlp
from iovslice.dqn.agent import greedy_episode
from iovslice.env import EnvConfig, SlicingEnv
from iovslice.scenario import RoadConfig
from iovslice.worlds import TAG_EVAL, WorkloadConfig, WorldStream

from conftest import forced_channel, hand_built_scenario

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_an_attribute_of_its_owner():
    spans = _spans()
    for owner, attr, name in spans.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is not defined there"
    assert "forward" in mlp.DuelingQNetwork.__dict__
    assert "run_baseline" in baselines.__dict__


def test_traced_baseline_run_reaches_every_baseline_span():
    # run_baseline must look its helpers up as module globals at call time
    spans = _spans()
    sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0])
    link = phy.EpisodeLink(forced_channel(sc, -85.0, F=2), ChannelConfig(), 0.005)
    recorder = spans.SpanRecorder()
    with recorder.installed("root"):
        run = baselines.run_baseline("NOMA-MP", sc, link, np.random.default_rng(0), RunConfig().swap_max_iters)
    assert len(run.objective_history) >= 1
    assert recorder.swap_accepted == len(run.objective_history) - 1
    calls = {name: span["calls"] for name, span in recorder.summary()["spans"].items()}
    for name in ("run_baseline", "initial_rb_allocation", "swap_matching"):
        assert calls[f"baselines.{name}"] == 1
    assert calls["baselines.evaluate_plan"] == run.evaluations
    assert calls["phy.apply_slot"] == run.slots_replayed


def test_traced_world_draw_reaches_every_world_span():
    # WorldStream.__call__ must look the world builders up as worlds globals at call time
    spans = _spans()
    world = WorldStream(RoadConfig(), EnvConfig(), ChannelConfig(), WorkloadConfig(), seed=0, tag=TAG_EVAL)
    recorder = spans.SpanRecorder()
    with recorder.installed("root"):
        world(0)
        world(1)
    calls = {name: span["calls"] for name, span in recorder.summary()["spans"].items()}
    for name in ("worlds.episode", "scenario.advance_mobility", "scenario.generate_packets", "channel.draw_channel"):
        assert calls[name] == 2, name


def test_traced_greedy_rollout_reaches_every_env_span():
    # greedy_episode must reach SlicingEnv.reset and step as class
    # attributes, and the env must call phy.apply_slot as a phy global
    spans = _spans()
    env_cfg = EnvConfig(m=3, n=2, F=2, T=5)
    sc = hand_built_scenario([0.0, 300.0, 600.0], [100.0, 400.0])
    link = phy.EpisodeLink(forced_channel(sc, -85.0, F=2, T=5), ChannelConfig(), env_cfg.slot_duration_s)
    net = mlp.DuelingQNetwork(env_cfg.obs_dim, (4,), env_cfg.n_actions, np.random.default_rng(0))
    recorder = spans.SpanRecorder()
    with recorder.installed("root"):
        greedy_episode(net, SlicingEnv(env_cfg), sc, link)
    calls = {name: span["calls"] for name, span in recorder.summary()["spans"].items()}
    assert calls["env.reset"] == 1
    assert calls["env.step"] == calls["dqn.forward_row"] == env_cfg.m * env_cfg.T
    assert calls["phy.apply_slot"] == env_cfg.T
