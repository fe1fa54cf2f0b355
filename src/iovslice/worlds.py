"""Deterministic episode worlds, shared by training, evaluation and baselines.

A stream owns one base scenario; episode k moves the base by k episode
durations and draws fresh packets and channel from a seed derived from
(master seed, stream tag, workload point, episode index). Evaluation streams
are therefore pairable: every algorithm sees bit-identical worlds at the same
episode index. A world is the scenario and its `phy.EpisodeLink`, the one
link table of the episode's channel: every policy played on the world shares
it, and nothing else builds one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import phy
from .channel import ChannelConfig, draw_channel
from .env import EnvConfig
from .scenario import (
    RoadConfig,
    Scenario,
    advance_mobility,
    generate_packets,
    generate_vehicles,
)

TAG_BASE = 0
TAG_TRAIN = 1
TAG_EVAL = 2
TAG_BASELINE = 3


@dataclass(frozen=True)
class WorkloadConfig:
    slice1_bits_min: float = 1e5
    slice1_bits_max: float = 1e6
    slice2_bytes: int = 600
    deadline_len_slots: int = 8

    def __post_init__(self) -> None:
        if self.deadline_len_slots < 1:
            raise ValueError("deadline must be at least 1 slot")
        if self.slice2_bytes < 1:
            raise ValueError("safety payload must be at least 1 byte")
        if not 0 < self.slice1_bits_min <= self.slice1_bits_max:
            raise ValueError("need 0 < slice1_bits_min <= slice1_bits_max")

    @property
    def slice2_bits(self) -> float:
        return 8.0 * self.slice2_bytes


class WorldStream:
    """Callable episode factory: world(k) -> (scenario, link)."""

    def __init__(
        self,
        road: RoadConfig,
        env_cfg: EnvConfig,
        channel_cfg: ChannelConfig,
        workload: WorkloadConfig,
        seed: int,
        tag: int,
    ):
        self.road = road
        self.env_cfg = env_cfg
        self.channel_cfg = channel_cfg
        self.workload = workload
        self.seed = seed
        self.tag = tag
        base_rng = np.random.default_rng(np.random.SeedSequence([seed, TAG_BASE, tag]))
        self.base = generate_vehicles(road, env_cfg.m, env_cfg.n, base_rng)

    def packet_rng(self, episode_idx: int) -> np.random.Generator:
        w = self.workload
        return np.random.default_rng(
            np.random.SeedSequence(
                [self.seed, self.tag, w.slice2_bytes, w.deadline_len_slots, episode_idx]
            )
        )

    def channel_rng(self, episode_idx: int) -> np.random.Generator:
        # no workload terms in the key: sweep points share channel draws, so a
        # workload sweep compares payloads over identical radio conditions
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, self.tag, 0x0C4A, episode_idx])
        )

    def __call__(self, episode_idx: int) -> tuple[Scenario, phy.EpisodeLink]:
        cfg = self.env_cfg
        w = self.workload
        elapsed = episode_idx * cfg.T * cfg.slot_duration_s
        scenario = advance_mobility(self.base, elapsed)
        packets = generate_packets(
            scenario,
            self.packet_rng(episode_idx),
            slice1_bits_range=(w.slice1_bits_min, w.slice1_bits_max),
            slice2_bits=w.slice2_bits,
            deadline_len_slots=w.deadline_len_slots,
            T=cfg.T,
        )
        scenario = replace(scenario, packets=packets)
        channel = draw_channel(scenario, self.channel_cfg, cfg.F, cfg.T, self.channel_rng(episode_idx))
        return scenario, phy.EpisodeLink(channel, self.channel_cfg, cfg.slot_duration_s)


def algorithm_rng(seed: int, workload: WorkloadConfig, episode_idx: int, algo_idx: int) -> np.random.Generator:
    """Private stream for an algorithm's own draws, independent of the world."""
    return np.random.default_rng(
        np.random.SeedSequence(
            [
                seed,
                TAG_BASELINE,
                workload.slice2_bytes,
                workload.deadline_len_slots,
                episode_idx,
                algo_idx,
            ]
        )
    )
