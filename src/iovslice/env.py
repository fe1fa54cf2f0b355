"""Single-agent scheduling MDP over the sliced broadcast network.

The scheduler fixes a (coverage, packet, frequency, power) tuple per source
vehicle each slot. To keep the action space flat at 120 entries the tuples
are chosen one vehicle at a time: m micro-steps per slot, with the earlier
same-slot choices visible in the observation, reward paid out when the last
vehicle's choice resolves the slot.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import operator

import numpy as np

from . import phy
from .channel import ChannelConfig, ChannelState, pathloss_db
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
        return sum(_obs_sizes(self).values())


class ContractViolation(RuntimeError):
    """A caller broke the environment's call protocol: it stepped before
    reset or after the episode ended."""


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
    if outcome.group:  # on the air to someone; silence has no group
        return min(max(outcome.rate_bps / rate_norm_bps, 0.0), 1.0) * upper_bound
    return 0.0


def episode_return(slot_rewards: list[float], gamma: float) -> float:
    """Discounted sum over slots (micro-steps inside a slot carry no reward)."""
    return float(sum(r * gamma**t for t, r in enumerate(slot_rewards)))


class SlicingEnv:
    """Episodic environment; reset with a scenario and channel, step with flat
    action indices. One instance serves one episode loop at a time."""

    def __init__(self, cfg: EnvConfig, channel_cfg: ChannelConfig):
        self.cfg = cfg
        self.channel_cfg = channel_cfg
        self.rate_norm_bps = (
            cfg.rate_norm_bps if cfg.rate_norm_bps is not None else default_rate_norm_bps(channel_cfg)
        )
        self._layout = _obs_layout(cfg)
        # every action index decoded once: its slot action, and its components
        # normalized to [0, 1] as the vehicles after it see them
        self._actions = [action_to_slot_action(index, cfg.F) for index in range(cfg.n_actions)]
        self._peer_rows = np.array(
            [
                (
                    cov / (len(COVERAGE_LEVELS_M) - 1),
                    pkt / (N_PACKET_CHOICES - 1),
                    freq / (cfg.F - 1) if cfg.F > 1 else 0.0,
                    pw / (len(POWER_LEVELS_DBM) - 1),
                )
                for cov, pkt, freq, pw in (decode_action(index, cfg.F) for index in range(cfg.n_actions))
            ]
        )
        self.terminal = True  # no episode until reset

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
        self.link = phy.EpisodeLink(channel, self.channel_cfg, cfg.slot_duration_s)
        self.ledger = phy.DeliveryLedger.start(scenario.packets)
        self.slot = 0
        self.deciding = 0
        self.pending: list[int] = []
        self.prev_choice = np.zeros((cfg.m, N_PACKET_CHOICES), dtype=np.float64)
        self.slot_rewards: list[float] = []
        self.terminal = False
        # The observation without its deciding one-hot (left zero): episode
        # constants are written here, per-slot parts by _begin_slot and peer
        # choices by step.
        m, T = cfg.m, cfg.T
        self._obs = obs = np.zeros(cfg.obs_dim)
        lay = self._layout
        # large-scale link gains, affine dB -> [0, 1]
        obs[lay["gain"]] = np.clip(
            (channel.large_scale_db.ravel() - GAIN_DB_LO) / (GAIN_DB_HI - GAIN_DB_LO), 0.0, 1.0
        )
        # safety-packet window, slots normalized by the horizon
        obs[lay["window"]] = [
            v / T
            for src in range(m)
            for v in (scenario.packet(src, 2).arrival_slot, scenario.packet(src, 2).deadline_slot)
        ]
        self._packet_bits = np.array([p.size_bits for p in self.ledger.packets])
        # fast fading, clipped exponential power: row t is slot t's, in observation order
        fade = np.clip(channel.fastfade_pow, 0.0, FADE_CLIP) / FADE_CLIP
        self._fade_rows = fade.transpose(3, 0, 1, 2).reshape(T, -1)
        self._begin_slot()
        return self.observation()

    def step(self, action_index: int) -> StepResult:
        """Fix the deciding vehicle's action. An index that is not an integer
        (TypeError) or is out of range (ValueError) changes nothing."""
        if self.terminal:
            raise ContractViolation("step called before reset or on a finished episode")
        cfg = self.cfg
        index = operator.index(action_index)
        if not 0 <= index < len(self._actions):
            raise ValueError(f"action index {index} outside 0..{len(self._actions) - 1}")
        self.pending.append(index)
        if len(self.pending) < cfg.m:
            # visible to the vehicles after this one
            at = self._layout["peer"].start + 4 * self.deciding
            self._obs[at : at + 4] = self._peer_rows[index]
            self.deciding += 1
            return StepResult(0.0, self.observation(), False)
        reward = self._resolve_slot()
        self.slot += 1
        self.deciding = 0
        self.pending = []
        self.terminal = self.slot >= cfg.T
        self._begin_slot()
        return StepResult(reward, self.observation(), self.terminal)

    def action_mask(self) -> np.ndarray:
        """The deciding vehicle's actions that `phy.useful` accepts, as a bool
        array; when there are none, exactly those that resolve as `OFF_AIR`."""
        if self.terminal:
            raise ContractViolation("action_mask called before reset or on a finished episode")
        src, slot = self.deciding, self.slot
        mask = np.array([phy.useful(self.ledger, src, act, slot, self.link) for act in self._actions])
        if not mask.any():
            mask = np.array([not phy.on_air(self.ledger, src, act, slot) for act in self._actions])
        return mask

    def _resolve_slot(self) -> float:
        cfg = self.cfg
        self.ledger, outcomes = phy.apply_slot(
            self.ledger, [self._actions[index] for index in self.pending], self.link, self.slot
        )
        reward = 0.0
        self.prev_choice[:] = 0.0
        for src, out in enumerate(outcomes):
            reward += individual_reward(out, self.rate_norm_bps, cfg.reward_upper_bound)
            self.prev_choice[src, out.packet_id] = 1.0
        self.slot_rewards.append(reward)
        return reward

    # -- observation ---------------------------------------------------------

    def observation(self) -> np.ndarray:
        """Flat feature vector, every entry in [0, 1]; fields in _obs_sizes
        (sizes for defaults m=3, n=4, F=2 add up to 73). A new array each call."""
        obs = self._obs.copy()
        obs[self._layout["deciding"].start + self.deciding] = 1.0
        return obs

    def _begin_slot(self) -> None:
        """Write the parts of the observation that change once per slot, and
        clear the peer choices."""
        obs, lay, T = self._obs, self._layout, self.cfg.T
        # current-slot fast fading (the last slot's once the episode is over)
        obs[lay["fade"]] = self._fade_rows[min(self.slot, T - 1)]
        # what each source actually sent last slot (one-hot, zeros at slot 0)
        obs[lay["prev"]] = self.prev_choice.ravel()
        # leftover bits, normalized by packet size
        np.divide(self.ledger.leftover_bits, self._packet_bits, out=obs[lay["leftover"]])
        obs[lay["slot"]] = self.slot / T
        obs[lay["peer"]] = 0.0

    # -- reporting -----------------------------------------------------------

    def stats(self) -> phy.ReceptionStats:
        return phy.reception_stats(self.ledger)


def _obs_sizes(cfg: EnvConfig) -> dict[str, int]:
    """Observation fields in order, with their sizes: the one definition of
    the layout and of obs_dim."""
    m, n, F = cfg.m, cfg.n, cfg.F
    return {
        "gain": m * n,  # large-scale gain per link
        "fade": m * n * F,  # fast fading per link and frequency, current slot
        "prev": m * N_PACKET_CHOICES,  # packet each source sent last slot, one-hot
        "leftover": 2 * m,  # leftover bits per packet over its size
        "window": 2 * m,  # slice-2 arrival and deadline per source, over T
        "slot": 1,  # slot index over T
        "deciding": m,  # one-hot of the vehicle deciding now
        "peer": 4 * m,  # coverage, packet, frequency, power already fixed this slot
    }


def _obs_layout(cfg: EnvConfig) -> dict[str, slice]:
    """Observation fields in order, as slices of the flat vector."""
    layout, pos = {}, 0
    for name, size in _obs_sizes(cfg).items():
        layout[name] = slice(pos, pos + size)
        pos += size
    return layout
