"""Single-agent scheduling MDP over the sliced broadcast network.

The scheduler fixes a (coverage, packet, frequency, power) tuple per source
vehicle each slot. To keep the action space flat at 120 entries the tuples
are chosen one vehicle at a time: m micro-steps per slot, with the earlier
same-slot choices visible in the observation, reward paid out when the last
vehicle's choice resolves the slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from . import phy
from .channel import ChannelConfig, ChannelState, noise_lin_mw, pathloss_db
from .scenario import Scenario

COVERAGE_LEVELS_M = (0.0, 100.0, 400.0, 1000.0, 1400.0)
POWER_LEVELS_DBM = (phy.SILENCE_POWER_DBM, 15.0, 23.0, 30.0)
N_PACKET_CHOICES = 3  # none / slice 1 / slice 2

# Observation normalization bounds.
GAIN_DB_LO = -160.0
GAIN_DB_HI = -40.0
FADE_CLIP = 4.0


def n_actions(F: int) -> int:
    return len(COVERAGE_LEVELS_M) * N_PACKET_CHOICES * F * len(POWER_LEVELS_DBM)


def encode_action(cov_idx: int, pkt_idx: int, freq_idx: int, pow_idx: int, F: int) -> int:
    """Mixed-radix pack, coverage most significant."""
    if not (0 <= cov_idx < len(COVERAGE_LEVELS_M) and 0 <= pkt_idx < N_PACKET_CHOICES):
        raise ValueError("coverage or packet index out of range")
    if not (0 <= freq_idx < F and 0 <= pow_idx < len(POWER_LEVELS_DBM)):
        raise ValueError("frequency or power index out of range")
    return ((cov_idx * N_PACKET_CHOICES + pkt_idx) * F + freq_idx) * len(POWER_LEVELS_DBM) + pow_idx


def decode_action(index: int, F: int) -> tuple[int, int, int, int]:
    if not 0 <= index < n_actions(F):
        raise ValueError(f"action index {index} outside 0..{n_actions(F) - 1}")
    index, pow_idx = divmod(index, len(POWER_LEVELS_DBM))
    index, freq_idx = divmod(index, F)
    cov_idx, pkt_idx = divmod(index, N_PACKET_CHOICES)
    return cov_idx, pkt_idx, freq_idx, pow_idx


def action_to_slot_action(index: int, F: int) -> phy.SlotAction:
    cov_idx, pkt_idx, freq_idx, pow_idx = decode_action(index, F)
    return phy.SlotAction(
        packet_id=pkt_idx,
        coverage_m=COVERAGE_LEVELS_M[cov_idx],
        freq=freq_idx,
        power_dbm=POWER_LEVELS_DBM[pow_idx],
    )


def default_rate_norm_bps(channel_cfg: ChannelConfig, reference_distance_m: float = 100.0) -> float:
    """Reward normalizer: the clean-channel rate at max power over the
    reference distance, a fixed scenario-independent constant."""
    snr_db = (
        max(POWER_LEVELS_DBM)
        + 2.0 * channel_cfg.antenna_gain_dbi
        - pathloss_db(reference_distance_m, channel_cfg)
        - (channel_cfg.noise_floor_dbm + channel_cfg.noise_figure_db)
    )
    return channel_cfg.rb_bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class EnvConfig:
    m: int = 3
    n: int = 4
    F: int = 2
    T: int = 20
    slot_duration_s: float = 0.005
    gamma: float = 1.0
    reward_upper_bound: float = 1.0
    rate_norm_bps: float | None = None  # None: derive from the channel config

    def __post_init__(self) -> None:
        if self.T < 1 or self.F < 1 or self.m < 1 or self.n < 1:
            raise ValueError("m, n, F, T must all be at least 1")
        if not 0 < self.gamma <= 1:
            raise ValueError("discount must be in (0, 1]")
        if not self.slot_duration_s > 0:
            raise ValueError("slot duration must be positive")
        if self.rate_norm_bps is not None and not self.rate_norm_bps > 0:
            raise ValueError("rate normalizer must be positive, or auto")

    @property
    def n_actions(self) -> int:
        return n_actions(self.F)

    @property
    def obs_dim(self) -> int:
        m, n, F = self.m, self.n, self.F
        return m * n * (1 + F) + 12 * m + 1


@dataclass(frozen=True)
class StepResult:
    reward: float
    next_observation: np.ndarray
    terminal: bool


def individual_reward(outcome: phy.SourceOutcome, rate_norm_bps: float, upper_bound: float = 1.0) -> float:
    """Delivery pays the bound; an unfinished transmission pays its normalized
    group rate; silence and empty groups pay nothing."""
    if outcome.delivered_now:
        return upper_bound
    if outcome.transmitted and outcome.group:
        return min(max(outcome.rate_bps / rate_norm_bps, 0.0), 1.0) * upper_bound
    return 0.0


def episode_return(slot_rewards: list[float], gamma: float) -> float:
    """Discounted sum over slots (micro-steps inside a slot carry no reward)."""
    return float(sum(r * gamma**t for t, r in enumerate(slot_rewards)))


class SlicingEnv:
    """Episodic environment; reset with a scenario and channel, step with flat
    action indices. One instance serves one episode loop at a time."""

    def __init__(self, cfg: EnvConfig, channel_cfg: ChannelConfig, collect_trace: bool = False):
        self.cfg = cfg
        self.channel_cfg = channel_cfg
        self.noise_mw = noise_lin_mw(channel_cfg)
        self.rate_norm_bps = (
            cfg.rate_norm_bps if cfg.rate_norm_bps is not None else default_rate_norm_bps(channel_cfg)
        )
        self.collect_trace = collect_trace
        self.trace: list[dict] = []
        self._ready = False

    # -- episode lifecycle ---------------------------------------------------

    def reset(self, scenario: Scenario, channel: ChannelState) -> np.ndarray:
        cfg = self.cfg
        if scenario.m != cfg.m or scenario.n != cfg.n:
            raise ValueError(
                f"scenario has {scenario.m}x{scenario.n} vehicles, config wants {cfg.m}x{cfg.n}"
            )
        if channel.gain_lin.shape != (cfg.m, cfg.n, cfg.F, cfg.T):
            raise ValueError(
                f"channel shape {channel.gain_lin.shape} != {(cfg.m, cfg.n, cfg.F, cfg.T)}"
            )
        if len(scenario.packets) != 2 * cfg.m:
            raise ValueError("scenario is missing its per-source packet pairs")
        self.scenario = scenario
        self.channel = channel
        self.ledger = phy.DeliveryLedger(scenario.packets)
        self.slot = 0
        self.deciding = 0
        self.pending: list[int] = []
        self.prev_choice = np.zeros((cfg.m, N_PACKET_CHOICES), dtype=np.float64)
        self.slot_rewards: list[float] = []
        self.terminal = False
        self.trace = []
        self._ready = True
        return self.observation()

    def step(self, action_index: int) -> StepResult:
        if not self._ready:
            raise RuntimeError("reset the environment before stepping")
        if self.terminal:
            raise phy.ContractViolation("step called on a finished episode")
        self.pending.append(int(action_index))
        if len(self.pending) < self.cfg.m:
            self.deciding += 1
            return StepResult(0.0, self.observation(), False)
        reward = self._resolve_slot()
        self.slot += 1
        self.deciding = 0
        self.pending = []
        self.terminal = self.slot >= self.cfg.T
        return StepResult(reward, self.observation(), self.terminal)

    def _resolve_slot(self) -> float:
        cfg = self.cfg
        outcomes = phy.apply_slot(
            self.ledger,
            [action_to_slot_action(idx, cfg.F) for idx in self.pending],
            self.channel.gain_lin[:, :, :, self.slot],
            self.channel.dist_m,
            self.noise_mw,
            self.channel_cfg.rb_bandwidth_hz,
            self.slot,
            cfg.slot_duration_s,
        )
        reward = 0.0
        self.prev_choice[:] = 0.0
        for src, out in enumerate(outcomes):
            reward += individual_reward(out, self.rate_norm_bps, cfg.reward_upper_bound)
            self.prev_choice[src, out.packet_id if out.transmitted else phy.PKT_NONE] = 1.0
            if self.collect_trace:
                cov_idx, pkt_idx, freq_idx, pow_idx = decode_action(self.pending[src], cfg.F)
                self.trace.append(
                    {
                        "slot": self.slot,
                        "vehicle": src,
                        "action": self.pending[src],
                        "coverage_m": COVERAGE_LEVELS_M[cov_idx],
                        "chosen_packet": pkt_idx,
                        "freq": freq_idx,
                        "power_dbm": POWER_LEVELS_DBM[pow_idx],
                        "transmitted": out.transmitted,
                        "packet": out.packet_id,
                        "rate_bps": out.rate_bps,
                        "reward": individual_reward(out, self.rate_norm_bps, cfg.reward_upper_bound),
                        "leftover": self.ledger.leftover_bits.tolist(),
                    }
                )
        self.slot_rewards.append(reward)
        return reward

    # -- observation ---------------------------------------------------------

    def observation(self) -> np.ndarray:
        """Flat feature vector, every entry in [0, 1]; layout documented field
        by field below (sizes for defaults m=3, n=4, F=2 add up to 73)."""
        cfg = self.cfg
        m, n, F, T = cfg.m, cfg.n, cfg.F, cfg.T
        slot = min(self.slot, T - 1)
        parts = [
            # large-scale link gains, affine dB -> [0, 1]
            np.clip(
                (self.channel.large_scale_db.ravel() - GAIN_DB_LO) / (GAIN_DB_HI - GAIN_DB_LO),
                0.0,
                1.0,
            ),
            # current-slot fast fading, clipped exponential power
            np.clip(self.channel.fastfade_pow[:, :, :, slot].ravel(), 0.0, FADE_CLIP) / FADE_CLIP,
            # what each source actually sent last slot (one-hot, zeros at slot 0)
            self.prev_choice.ravel().copy(),
            # leftover bits, normalized by packet size
            (self.ledger.leftover_bits / np.array([p.size_bits for p in self.ledger.packets])),
            # safety-packet window, slots normalized by the horizon
            np.array(
                [
                    v / T
                    for src in range(m)
                    for v in (
                        self.scenario.packet(src, 2).arrival_slot,
                        self.scenario.packet(src, 2).deadline_slot,
                    )
                ]
            ),
            np.array([self.slot / T]),
            _one_hot(self.deciding, m),
            self._peer_choices(),
        ]
        obs = np.concatenate(parts)
        assert obs.shape == (cfg.obs_dim,)
        return obs

    def _peer_choices(self) -> np.ndarray:
        """Normalized action components already fixed this slot, zeros for
        vehicles that have not decided yet."""
        cfg = self.cfg
        out = np.zeros((cfg.m, 4), dtype=np.float64)
        for src, idx in enumerate(self.pending):
            cov, pkt, freq, pw = decode_action(idx, cfg.F)
            out[src, 0] = cov / (len(COVERAGE_LEVELS_M) - 1)
            out[src, 1] = pkt / (N_PACKET_CHOICES - 1)
            out[src, 2] = freq / (cfg.F - 1) if cfg.F > 1 else 0.0
            out[src, 3] = pw / (len(POWER_LEVELS_DBM) - 1)
        return out.ravel()

    # -- reporting -----------------------------------------------------------

    def stats(self) -> phy.ReceptionStats:
        return phy.reception_stats(self.ledger)

    def write_trace(self, path) -> None:
        from pathlib import Path

        lines = [
            "slot\tvehicle\taction\tcoverage_m\tchosen_packet\tfreq\tpower_dbm"
            "\ttransmitted\tpacket\trate_bps\treward\tleftover"
        ]
        for row in self.trace:
            leftover = ",".join(repr(x) for x in row["leftover"])
            lines.append(
                f"{row['slot']}\t{row['vehicle']}\t{row['action']}\t{row['coverage_m']!r}"
                f"\t{row['chosen_packet']}\t{row['freq']}\t{row['power_dbm']!r}"
                f"\t{int(row['transmitted'])}"
                f"\t{row['packet']}\t{row['rate_bps']!r}\t{row['reward']!r}\t{leftover}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def _one_hot(i: int, size: int) -> np.ndarray:
    v = np.zeros(size, dtype=np.float64)
    v[i] = 1.0
    return v
