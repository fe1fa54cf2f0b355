"""Deterministic episode worlds, shared by training, evaluation and baselines.

A stream owns one base scenario; episode k moves the base by k episode
durations and draws fresh packets from a seed derived from (master seed,
stream tag, workload point, episode index), and a fresh channel from one
without the workload point (`WorldStream.channel_rng`). Evaluation streams
are therefore pairable: every algorithm sees bit-identical worlds at the same
episode index. A world is the scenario and its `phy.EpisodeLink`, the one
link table of the episode's channel: every policy played on the world shares
it, at every workload point (`WorldStream.with_workload`), and nothing else
builds one.
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
        for name in ("deadline_len_slots", "slice2_bytes"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"workload.{name} must be >= 1, got {value}")
        if not self.slice1_bits_min > 0:
            raise ValueError(f"workload.slice1_bits_min must be > 0, got {self.slice1_bits_min}")
        if not (low := self.slice1_bits_min) <= (high := self.slice1_bits_max):
            raise ValueError(f"workload.slice1_bits_min must be <= workload.slice1_bits_max, got {low} > {high}")

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

    def channel_rng(self, episode_idx: int) -> np.random.Generator:
        # no workload terms in the key: sweep points share channel draws, so a
        # workload sweep compares payloads over identical radio conditions
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, self.tag, 0x0C4A, episode_idx])
        )

    def with_workload(self, scenario: Scenario, workload: WorkloadConfig, episode_idx: int) -> Scenario:
        """The episode's scenario at workload point `workload`: its vehicles,
        with the packets that point draws for the episode. Only the packets
        read the workload, so the episode's channel and link serve every point."""
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [self.seed, self.tag, workload.slice2_bytes, workload.deadline_len_slots, episode_idx]
            )
        )
        packets = generate_packets(
            scenario,
            rng,
            slice1_bits_range=(workload.slice1_bits_min, workload.slice1_bits_max),
            slice2_bits=workload.slice2_bits,
            deadline_len_slots=workload.deadline_len_slots,
            T=self.env_cfg.T,
        )
        return replace(scenario, packets=packets)

    def __call__(self, episode_idx: int) -> tuple[Scenario, phy.EpisodeLink]:
        cfg = self.env_cfg
        elapsed = episode_idx * cfg.T * cfg.slot_duration_s
        scenario = self.with_workload(advance_mobility(self.base, elapsed), self.workload, episode_idx)
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
