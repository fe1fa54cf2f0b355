"""Radio channel model: LOS street-level pathloss, log-normal shadowing, Rayleigh fading.

Pathloss follows the WINNER+ B1 LOS parametrization with effective antenna
heights (actual height minus 1 m) in both the breakpoint distance and the
far branch. All constants sit in ChannelConfig so a run's channel model is
auditable from its config dump. draw_channel samples one episode's radio into
a ChannelState; shadowing is folded into the large-scale gain, not kept apart.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario

LIGHT_SPEED_MPS = 3.0e8


@dataclass(frozen=True)
class ChannelConfig:
    fc_ghz: float = 2.0
    antenna_height_m: float = 1.5
    antenna_gain_dbi: float = 3.0  # per end
    noise_figure_db: float = 9.0
    shadow_sigma_db: float = 3.0
    noise_floor_dbm: float = -114.0  # thermal floor per RB bandwidth
    rb_bandwidth_hz: float = 1e6
    min_distance_m: float = 3.0  # clamp below this to dodge the d->0 singularity

    def __post_init__(self) -> None:
        for name in ("fc_ghz", "rb_bandwidth_hz", "min_distance_m"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"channel.{name} must be > 0, got {value}")
        if not self.antenna_height_m > 1.0:  # the effective height is h - 1
            raise ValueError(f"channel.antenna_height_m must be > 1.0, got {self.antenna_height_m}")
        if not self.shadow_sigma_db >= 0:
            raise ValueError(f"channel.shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}")


def breakpoint_distance_m(cfg: ChannelConfig) -> float:
    h_eff = cfg.antenna_height_m - 1.0
    return 4.0 * h_eff * h_eff * (cfg.fc_ghz * 1e9) / LIGHT_SPEED_MPS


def pathloss_db(d_m: float, cfg: ChannelConfig) -> float:
    """LOS pathloss in dB at distance d_m, clamped up to the configured minimum."""
    d = max(float(d_m), cfg.min_distance_m)
    h_eff = cfg.antenna_height_m - 1.0
    if d <= breakpoint_distance_m(cfg):
        return 22.7 * math.log10(d) + 41.0 + 20.0 * math.log10(cfg.fc_ghz / 5.0)
    return (
        40.0 * math.log10(d)
        + 9.45
        - 17.3 * math.log10(h_eff)
        - 17.3 * math.log10(h_eff)
        + 2.7 * math.log10(cfg.fc_ghz / 5.0)
    )


def noise_lin_mw(cfg: ChannelConfig) -> float:
    """Effective per-RB noise power in mW (floor plus receiver noise figure)."""
    return 10.0 ** ((cfg.noise_floor_dbm + cfg.noise_figure_db) / 10.0)


@dataclass(frozen=True)
class ChannelState:
    """Per-episode radio randomness for every source-destination link.

    Arrays are indexed (source, destination), fading extended by (frequency,
    slot). large_scale_db folds both antenna gains, pathloss and the
    per-link shadowing draw into one number, so
    gain_lin = 10^(large_scale_db/10) * fastfade_pow.
    """

    dist_m: np.ndarray  # (m, n)
    large_scale_db: np.ndarray  # (m, n)
    fastfade_pow: np.ndarray  # (m, n, F, T), exponential(1) power gains
    gain_lin: np.ndarray  # (m, n, F, T)


def link_distances(scenario: Scenario) -> np.ndarray:
    """(m, n) source-to-destination distances using lane-center y offsets."""
    src = scenario.positions(scenario.sources)
    dst = scenario.positions(scenario.destinations)
    diff = src[:, None, :] - dst[None, :, :]
    return np.hypot(diff[:, :, 0], diff[:, :, 1])


def draw_channel(
    scenario: Scenario, cfg: ChannelConfig, F: int, T: int, rng: np.random.Generator
) -> ChannelState:
    """Sample shadowing (once per link) and fading (per link, frequency, slot).

    Rayleigh amplitude fading is drawn directly as exponential(1) power gains.
    Draw order is fixed (shadowing, then fading) so a seed pins the episode.
    """
    if F < 1 or T < 1:
        raise ValueError("need at least one frequency and one slot")
    dist = link_distances(scenario)
    pl = np.vectorize(lambda d: pathloss_db(d, cfg))(dist)
    shadow = rng.normal(0.0, cfg.shadow_sigma_db, size=dist.shape)
    fastfade = rng.exponential(1.0, size=(*dist.shape, F, T))
    large = 2.0 * cfg.antenna_gain_dbi - pl - shadow
    gain = 10.0 ** (large / 10.0)
    return ChannelState(
        dist_m=dist,
        large_scale_db=large,
        fastfade_pow=fastfade,
        gain_lin=gain[:, :, None, None] * fastfade,
    )


def trace_hash(state: ChannelState) -> str:
    """Short digest of the realized gains; equal hashes mean identical radio draws."""
    h = hashlib.sha256()
    h.update(repr(state.gain_lin.shape).encode())
    h.update(np.ascontiguousarray(state.gain_lin).tobytes())
    return h.hexdigest()[:16]
