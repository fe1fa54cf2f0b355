"""Single-agent scheduling MDP over the sliced broadcast network.

The scheduler fixes a (coverage, packet, frequency, power) tuple per source
vehicle each slot; an action index is a position in `phy.action_table(F)`.
To keep the action space flat at 120 entries (F = 2) the tuples are chosen
one vehicle at a time: m micro-steps per slot, with the earlier same-slot
choices visible in the observation, reward paid out when the last vehicle's
choice resolves the slot (`SlicingEnv.step_slot`, which takes whole slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
import operator
from typing import NamedTuple

import numpy as np

from . import phy
from .channel import ChannelConfig, pathloss_db
from .scenario import SLICE_SAFETY, Scenario, packet_count

# Observation normalization bounds.
GAIN_DB_LO = -160.0
GAIN_DB_HI = -40.0
FADE_CLIP = 4.0
RATE_NORM_DISTANCE_M = 100.0  # link length of the reward normalizer's clean-channel rate


def default_rate_norm_bps(channel_cfg: ChannelConfig) -> float:
    """Reward normalizer: the clean-channel rate at max power over
    `RATE_NORM_DISTANCE_M`, a fixed scenario-independent constant."""
    snr_db = (
        max(phy.POWER_LEVELS_DBM)
        + 2.0 * channel_cfg.antenna_gain_dbi
        - pathloss_db(RATE_NORM_DISTANCE_M, channel_cfg)
        - (channel_cfg.noise_floor_dbm + channel_cfg.noise_figure_db)
    )
    return phy.rate_bps(10.0 ** (snr_db / 10.0), channel_cfg.rb_bandwidth_hz)


@dataclass(frozen=True)
class EnvConfig:
    m: int = 3
    n: int = 4
    F: int = 2
    T: int = 20
    slot_duration_s: float = 0.005
    gamma: float = 1.0
    reward_upper_bound: float = 1.0
    rate_norm_bps: float | None = None  # None: derive from each world's channel config

    def __post_init__(self) -> None:
        for name in ("m", "n", "F", "T"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"env.{name} must be >= 1, got {value}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"env.gamma must be in (0, 1], got {self.gamma}")
        if not self.slot_duration_s > 0:
            raise ValueError(f"env.slot_duration_s must be > 0, got {self.slot_duration_s}")
        if self.rate_norm_bps is not None and not self.rate_norm_bps > 0:
            raise ValueError(f"env.rate_norm_bps must be > 0 or auto, got {self.rate_norm_bps}")

    @property
    def n_actions(self) -> int:
        return len(phy.action_levels(self.F))

    @property
    def obs_dim(self) -> int:
        return sum(_obs_sizes(self).values())


class ContractViolation(RuntimeError):
    """A caller broke the environment's call protocol: it stepped before
    reset, after the episode ended or, with a whole slot, mid-slot."""


class StepResult(NamedTuple):
    reward: float
    next_observation: np.ndarray
    terminal: bool
    discount: float  # on the next state's value: 1.0 within a slot, gamma once it resolves, 0.0 at the end


def individual_reward(
    delivered_now: bool, group_mask: int, rate_bps: float, rate_norm_bps: float, upper_bound: float
) -> float:
    """One source's reward for a slot, read off its `phy.SourceEffect` and the
    ledger after it: delivery pays the bound; an unfinished transmission pays
    its normalized group rate; silence and empty groups (mask 0) pay nothing."""
    if delivered_now:
        return upper_bound
    if group_mask:  # on the air to someone; silence has no group
        return min(max(rate_bps / rate_norm_bps, 0.0), 1.0) * upper_bound
    return 0.0


def episode_return(slot_rewards: list[float], gamma: float) -> float:
    """Discounted sum over slots (micro-steps inside a slot carry no reward)."""
    return float(sum(r * gamma**t for t, r in enumerate(slot_rewards)))


class SlicingEnv:
    """Episodic environment; reset with a world (a scenario and its episode's
    `phy.EpisodeLink`), step with flat action indices. One instance serves
    one episode loop at a time."""

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        # observation fields in order, as slices of the flat vector
        sizes = _obs_sizes(cfg)
        self._layout = lay = {name: slice(end - sizes[name], end) for name, end in zip(sizes, accumulate(sizes.values()))}
        # the fields `_begin_slot` writes: fade, prev and leftover lie side by side
        self._per_slot = slice(lay["fade"].start, lay["leftover"].stop)
        self._slot_at, self._deciding_at, self._peer_at = lay["slot"].start, lay["deciding"].start, lay["peer"].start
        # the action table (as a set, the only choices step_slot takes), and each
        # entry's level indices i of k normalized to i / max(k - 1, 1) as later vehicles see them
        self._actions = phy.action_table(cfg.F)
        self._table = frozenset(self._actions)
        levels = phy.action_levels(cfg.F)
        self._peer_rows = levels / np.maximum(levels.max(axis=0), 1)
        self.terminal = True  # no episode until reset

    # -- episode lifecycle ---------------------------------------------------

    def reset(self, scenario: Scenario, link: phy.EpisodeLink) -> np.ndarray:
        """Start an episode on this world; a scenario or link that does not
        fit the config (ValueError) changes nothing."""
        cfg = self.cfg
        if scenario.m != cfg.m or scenario.n != cfg.n:
            raise ValueError(
                f"scenario has {scenario.m}x{scenario.n} vehicles, config wants {cfg.m}x{cfg.n}"
            )
        if link.gain_lin.shape != (cfg.m, cfg.n, cfg.F, cfg.T):
            raise ValueError(f"link gain shape {link.gain_lin.shape} != {(cfg.m, cfg.n, cfg.F, cfg.T)}")
        if link.slot_duration_s != cfg.slot_duration_s:
            raise ValueError(f"link slot duration {link.slot_duration_s} s != config {cfg.slot_duration_s} s")
        if len(scenario.packets) != packet_count(cfg.m):
            raise ValueError(f"scenario has {len(scenario.packets)} packets, config wants {packet_count(cfg.m)}")
        self.scenario = scenario
        self.link = link
        norm = cfg.rate_norm_bps  # else the world's: its link's channel config sets it
        self.rate_norm_bps = norm if norm is not None else default_rate_norm_bps(link.channel_cfg)
        self.ledger = phy.DeliveryLedger.start(scenario.packets)
        self.slot = 0
        self.pending: list[int] = []  # this slot's action indices so far
        self._prev = [0.0] * (cfg.m * len(phy.PACKET_CHOICES))  # prev_choice, flat
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
            (link.chan.large_scale_db.ravel() - GAIN_DB_LO) / (GAIN_DB_HI - GAIN_DB_LO), 0.0, 1.0
        )
        # safety-packet window, slots normalized by the horizon
        safety = [scenario.packet(src, SLICE_SAFETY) for src in range(m)]
        obs[lay["window"]] = [v / T for p in safety for v in (p.arrival_slot, p.deadline_slot)]
        self._packet_bits = [float(p.size_bits) for p in self.ledger.packets]
        # fast fading, clipped exponential power: row t is slot t's, in observation order
        fade = np.clip(link.chan.fastfade_pow, 0.0, FADE_CLIP) / FADE_CLIP
        self._fade_rows = fade.transpose(3, 0, 1, 2).reshape(T, -1).tolist()
        self._begin_slot()
        return self.observation()

    @property
    def deciding(self) -> int:  # the source whose action the next `step` fixes
        return len(self.pending)

    @property
    def prev_choice(self) -> np.ndarray:
        """What each source sent last slot, a new (m, 3) array: row src is
        the one-hot of its packet choice, PKT_NONE when it was off the air;
        all zeros before the first slot resolves."""
        return np.array(self._prev).reshape(self.cfg.m, len(phy.PACKET_CHOICES))

    def step(self, action_index: int) -> StepResult:
        """Fix the deciding vehicle's action, the last one's via `step_slot`; a
        non-integer (TypeError) or out-of-range index (ValueError) changes nothing."""
        if self.terminal:
            raise ContractViolation("step called before reset or on a finished episode")
        index = operator.index(action_index)
        if not 0 <= index < len(self._actions):
            raise ValueError(f"action index {index} outside 0..{len(self._actions) - 1}")
        deciding = len(self.pending)
        if deciding + 1 < self.cfg.m:
            # visible to the vehicles after this one
            at = self._peer_at + 4 * deciding
            self._obs[at : at + 4] = self._peer_rows[index]
            self.pending.append(index)
            return StepResult(0.0, self.observation(), False, 1.0)
        column = [self._actions[i] for i in self.pending] + [self._actions[index]]
        self.pending = []
        return self.step_slot(column)

    def step_slot(self, actions: list[phy.SlotAction]) -> StepResult:
        """Resolve, pay and advance the slot with one raw choice per source;
        change nothing mid-slot, before reset or after the end (ContractViolation),
        or given other than m choices or one outside `phy.action_table(F)`
        (ValueError). A source is on the air when its effect names a packet
        k >= 0, delivered now when the new ledger's leftover of k is 0.0
        (`on_air` admits only undelivered packets)."""
        if self.terminal or self.pending:
            raise ContractViolation("step_slot called mid-slot, before reset or on a finished episode")
        cfg = self.cfg
        if len(actions) != cfg.m:
            raise ValueError(f"{len(actions)} choices for {cfg.m} sources")
        if not self._table.issuperset(actions):
            bad = next(act for act in actions if act not in self._table)
            raise ValueError(f"choice {tuple(bad)} is not in the action table")
        norm, upper = self.rate_norm_bps, cfg.reward_upper_bound
        self.ledger, effects = phy.apply_slot(self.ledger, actions, self.link, self.slot)
        left = self.ledger.leftover_bits
        reward = 0.0
        prev, width = [0.0] * len(self._prev), len(phy.PACKET_CHOICES)
        for src, (act, (k, _, group_mask, rate)) in enumerate(zip(actions, effects)):
            on_air = k >= 0
            reward += individual_reward(on_air and left[k] == 0.0, group_mask, rate, norm, upper)
            prev[src * width + (act[0] if on_air else phy.PKT_NONE)] = 1.0
        self._prev = prev
        self.slot_rewards.append(reward)
        self.slot += 1
        self.terminal = self.slot >= cfg.T
        self._begin_slot()
        return StepResult(reward, self.observation(), self.terminal, 0.0 if self.terminal else cfg.gamma)

    def action_mask(self) -> np.ndarray:
        """The deciding vehicle's useful actions (`phy.useful_mask`) as a bool
        array; when there are none, exactly those that resolve as `OFF_AIR`."""
        if self.terminal:
            raise ContractViolation("action_mask called before reset or on a finished episode")
        air, useful = phy.useful_mask(self.ledger, self.deciding, self.slot, self.link)
        return useful if useful.any() else ~air

    # -- observation ---------------------------------------------------------

    def observation(self) -> np.ndarray:
        """Flat feature vector, every entry in [0, 1]; fields in _obs_sizes
        (sizes for defaults m=3, n=4, F=2 add up to 73). A new array each call."""
        obs = self._obs.copy()
        obs[self._deciding_at + len(self.pending)] = 1.0
        return obs

    def _begin_slot(self) -> None:
        """Write the parts of the observation that change once per slot, and
        clear the peer choices."""
        obs, slot, T = self._obs, self.slot, self.cfg.T
        # in one write of Python floats: current-slot fast fading (the last
        # slot's once the episode is over), what each source actually sent
        # last slot (one-hot, zeros at slot 0) and the leftover bits,
        # normalized by packet size
        obs[self._per_slot] = (
            self._fade_rows[min(slot, T - 1)]
            + self._prev
            + [left / bits for left, bits in zip(self.ledger.leftover_bits, self._packet_bits)]
        )
        obs[self._slot_at] = slot / T
        obs[self._layout["peer"]] = 0.0

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
        "prev": m * len(phy.PACKET_CHOICES),  # packet each source sent last slot, one-hot
        "leftover": packet_count(m),  # leftover bits per packet over its size
        "window": 2 * m,  # slice-2 arrival and deadline per source, over T
        "slot": 1,  # slot index over T
        "deciding": m,  # one-hot of the vehicle deciding now
        "peer": 4 * m,  # coverage, packet, frequency, power already fixed this slot
    }
