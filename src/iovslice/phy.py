"""Link layer: power-domain multiple access with SIC, broadcast groups, delivery accounting.

Transmitters sharing a resource block are separated by successive interference
cancellation at each receiver (`sic_sinr`), and a broadcast runs at the rate of
its worst group member (`slot_rates`). This module alone knows how a slot is
resolved, and each of its rules has one home:
- the action space: `action_levels(F)`, its one mixed radix, and
  `action_table(F)`, every `SlotAction` one source can pick; the
  environment's action indices, the baselines' draws and the oracle's
  candidates all come from them;
- `on_air`, whether a choice puts a packet on the air, and `useful_mask`,
  which applies it and a non-empty group over the whole table;
- `in_coverage`, the one radius rule (`coverage_group` per source);
- `DeliveryLedger`, what a slot changes; `drain`, the one drain formula; and
  `reach`, the bound on what the rest of an episode can still deliver;
- `EpisodeLink`, one episode's link table and the only way a slot resolution
  sees the channel, with its exact memo of slot resolutions, `resolve`;
- `apply_slot`, one slot of raw choices resolved from a ledger, which the
  environment and `baselines.evaluate_plan` play; the oracle's search drains
  `resolve` with `drain_slot` instead (`oracle.brute_force_optimal`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .channel import ChannelConfig, ChannelState, noise_lin_mw
from .scenario import SLICE_SAFETY, SLICE_THROUGHPUT, Packet, packet_index, packet_slice

# Power level meaning "radio off"; mapped to exactly zero transmit power so
# that not transmitting is bit-exact, never a -100 dBm whisper.
SILENCE_POWER_DBM = -100.0

PKT_NONE = 0  # the packet choice of no packet; the others are the slice ids

# The levels of the action space; `action_levels` orders their product.
COVERAGE_LEVELS_M = (0.0, 100.0, 400.0, 1000.0, 1400.0)
PACKET_CHOICES = (PKT_NONE, SLICE_THROUGHPUT, SLICE_SAFETY)
POWER_LEVELS_DBM = (SILENCE_POWER_DBM, 15.0, 23.0, 30.0)


def power_lin_mw(power_dbm: float) -> float:
    """dBm to mW, with the silence level collapsing to exactly zero."""
    if power_dbm <= SILENCE_POWER_DBM:
        return 0.0
    return 10.0 ** (power_dbm / 10.0)


def sic_sinr(
    transmitters: list[tuple[int, float]], noise_lin: float
) -> dict[int, float]:
    """SINR per transmitter id under ideal SIC at one receiver.

    transmitters: (id, received linear power) pairs. Decoding order is by
    received power descending (ties by id ascending); the k-th decoded signal
    sees only the weaker ones plus noise.
    """
    if not transmitters:
        return {}
    ordered = sorted(transmitters, key=lambda e: (-e[1], e[0]))
    out: dict[int, float] = {}
    tail = 0.0  # interference left after cancelling everything stronger
    for tid, p in reversed(ordered):
        out[tid] = p / (tail + noise_lin)
        tail += p
    return out


def rate_bps(sinr: float, rb_bandwidth_hz: float) -> float:
    if sinr < 0:
        raise ValueError("sinr must be nonnegative")
    return rb_bandwidth_hz * math.log2(1.0 + sinr)


def in_coverage(dist_m: np.ndarray, coverage_m: np.ndarray | float) -> np.ndarray:
    """Whether each destination lies within the broadcast radius, elementwise
    (the two broadcast together); a radius of 0 or less covers no one."""
    return (dist_m <= coverage_m) & (coverage_m > 0)


def coverage_group(dist_row: np.ndarray, coverage_m: float) -> tuple[int, ...]:
    """Destination indices within the broadcast radius; empty for radius 0."""
    return tuple(np.flatnonzero(in_coverage(dist_row, coverage_m)).tolist())


class SlotAction(NamedTuple):
    """One source vehicle's choice for one slot, already decoded. Any
    4-tuple in this field order is read the same way."""

    packet_id: int  # PKT_NONE or a slice id
    coverage_m: float
    freq: int
    power_dbm: float


@cache
def action_levels(F: int) -> np.ndarray:
    """Row i (read-only) holds the (coverage, packet, frequency, power) level
    indices of flat action index i: a mixed radix, coverage most significant."""
    levels = np.indices((len(COVERAGE_LEVELS_M), len(PACKET_CHOICES), F, len(POWER_LEVELS_DBM))).reshape(4, -1).T
    levels.flags.writeable = False
    return levels


def action_table(F: int) -> tuple[SlotAction, ...]:
    """Every choice of one source for one slot, in flat action-index order:
    `action_levels(F)` decoded."""
    return tuple(
        SlotAction(PACKET_CHOICES[pkt], COVERAGE_LEVELS_M[cov], f, POWER_LEVELS_DBM[pw])
        for cov, pkt, f, pw in action_levels(F).tolist()
    )


# One source's part in a resolved slot: the ledger index of the packet on
# the air (-1 when off the air), the bits the slot carries toward it (rate x
# slot duration), the group's destination bitmask and the broadcast rate. A
# plain tuple: slot solves that miss the memo build one per source.
SourceEffect = tuple[int, float, int, float]


def drain(left: float, bits: float) -> float:
    """Leftover bits after a slot carrying `bits` toward `left` (both
    nonnegative): exactly 0.0 when bits >= left, positive otherwise."""
    return left - min(left, bits)


def drains(left: float, bits: Iterable[float]) -> bool:
    """Whether `drain` by bits[0], bits[1], ... in turn empties `left`."""
    for b in bits:
        left = drain(left, b)
    return left == 0.0


def reach(leftover: Sequence[float], tails: Mapping[int, Iterable[float]]) -> int:
    """The packets delivered (leftover 0.0), plus the undelivered packets k
    that `drains` within `tails[k]`. This bounds the count delivered by the
    episode's end when every later slot carries packet k at most its entry
    in `tails[k]`, in slot order (a slot left out carries it nothing), and
    no undelivered packet `tails` leaves out can be delivered: `drain` is
    monotone in both arguments, so a packet its tail cannot empty stays
    undelivered. The swap search's reach stop and the oracle's cut both
    read it; each argues only that its tails dominate."""
    return leftover.count(0.0) + sum(1 for k, bits in tails.items() if leftover[k] > 0.0 and drains(leftover[k], bits))


def drain_slot(leftover: tuple[float, ...], effects: Sequence[SourceEffect]) -> tuple[float, ...]:
    """Leftover bits after a slot whose sources have these effects: each
    on-air source's packet is drained by its bits."""
    after = list(leftover)
    for k, bits, _, _ in effects:
        if k >= 0:
            after[k] = drain(after[k], bits)
    return tuple(after)


class DeliveryLedger(NamedTuple):
    """Per-packet leftover bits and reached destinations; an immutable value
    that `apply_slot` replaces, so ledgers are shared, never copied.

    Packets sit where `scenario.packet_index` puts them. A packet is
    delivered exactly when its leftover is 0.0 (`drain`). Bit d of
    reached[k] is set once destination d was in one of the packet's
    broadcast groups: the packet's intended receivers. Since a broadcast
    runs at its worst member's rate, one leftover counter per packet is
    enough for a fixed group; the group may change from slot to slot, and a
    destination that joined late still counts once the packet is delivered.
    """

    packets: tuple[Packet, ...]
    leftover_bits: tuple[float, ...]
    reached: tuple[int, ...]

    @classmethod
    def start(cls, packets: Sequence[Packet]) -> "DeliveryLedger":
        """The ledger before the first slot: every packet whole, nothing reached."""
        packets = tuple(packets)
        return cls(packets, tuple(float(p.size_bits) for p in packets), (0,) * len(packets))


def slot_rates(
    effective: Sequence[tuple[int, tuple[int, ...], int, float]],  # (pkt, group, freq, p_mw)
    gain_slot: np.ndarray | Sequence,  # (m, n, F) linear gains for this slot, read as gain_slot[s][d][f]
    noise_mw: float,
    rb_bandwidth_hz: float,
) -> list[float]:
    """Broadcast rate per source: min over its group of the member's SIC rate.

    Sources with PKT_NONE are off the air; an on-air source with an empty
    group still radiates interference but earns rate zero.
    """
    m = len(effective)
    sending = [s for s in range(m) if effective[s][0] != PKT_NONE]
    rates = [0.0] * m
    sinr_cache: dict[tuple[int, int], dict[int, float]] = {}
    for src in sending:
        _, group, freq, _ = effective[src]
        if not group:
            continue
        worst = math.inf
        for d in group:
            key = (d, freq)
            if key not in sinr_cache:
                txs = [(s, effective[s][3] * gain_slot[s][d][freq]) for s in sending if effective[s][2] == freq]
                sinr_cache[key] = sic_sinr(txs, noise_mw)
            worst = min(worst, sinr_cache[key][src])
        rates[src] = rate_bps(worst, rb_bandwidth_hz)
    return rates


# a source's choice when it puts nothing on the air; `apply_slot` turns every
# such choice into this one, so they all key the slot memo alike
OFF_AIR = SlotAction(PKT_NONE, 0.0, 0, SILENCE_POWER_DBM)

_OFF_AIR_EFFECT: SourceEffect = (-1, 0.0, 0, 0.0)


def on_air(ledger: DeliveryLedger, src: int, act: SlotAction, slot: int) -> bool:
    """Whether source `src`'s choice puts a packet on the air at this slot:
    it names a packet, its radius is above 0, its power is above silence,
    and the packet is undelivered with its window holding the slot."""
    if act[0] == PKT_NONE or act[1] <= 0.0 or act[3] <= SILENCE_POWER_DBM:
        return False
    k = packet_index(src, act[0])
    return ledger.leftover_bits[k] > 0.0 and ledger.packets[k].open_at(slot)


def useful_mask(ledger: DeliveryLedger, src: int, slot: int, link: EpisodeLink) -> tuple[np.ndarray, ...]:
    """Over `action_table(F)` (F: the link's), source `src`'s choices `on_air`
    at this slot, and those also useful, with a group that reaches someone.
    Each clause of `on_air` reads one level (packet: named, undelivered, in
    its window; radius: above 0; power: above silence; frequency: none) and
    the group the radius alone, so each flag is a product of per-level flags."""
    levels = action_levels(link.gain_lin.shape[2])
    cov, pkt, pw = levels[:, 0], levels[:, 1], levels[:, 3]
    sends = [
        p != PKT_NONE and ledger.leftover_bits[k := packet_index(src, p)] > 0.0 and ledger.packets[k].open_at(slot)
        for p in PACKET_CHOICES
    ]
    reaches = np.array([r > 0.0 and bool(link.group(src, r)) for r in COVERAGE_LEVELS_M])
    air = np.array(sends)[pkt] & np.array([p > SILENCE_POWER_DBM for p in POWER_LEVELS_DBM])[pw]
    return air & np.array([r > 0.0 for r in COVERAGE_LEVELS_M])[cov], air & reaches[cov]


class EpisodeLink:
    """One episode's link table: the inputs `apply_slot` resolves slots
    against, plus memos of the broadcast groups and the slot resolutions.

    `worlds.WorldStream` builds one per episode (per channel realization)
    and hands it out with the scenario; every policy and every replay of
    that episode, however many plans it scores, shares it. It keeps the
    `ChannelState` and the `ChannelConfig` it came from as `chan` and
    `channel_cfg`; `resolve` reads that config's noise and RB bandwidth.
    """

    def __init__(self, chan: ChannelState, channel_cfg: ChannelConfig, slot_duration_s: float) -> None:
        self.chan = chan
        self.channel_cfg = channel_cfg
        self.gain_lin = chan.gain_lin  # (m, n, F, T) linear gains
        self.dist_m = chan.dist_m  # (m, n)
        self.noise_mw = noise_lin_mw(channel_cfg)
        self.rb_bandwidth_hz = channel_cfg.rb_bandwidth_hz
        self.slot_duration_s = slot_duration_s
        self._groups: dict[tuple[int, float], tuple[int, ...]] = {}
        self._group_mask: dict[tuple[int, ...], int] = {(): 0}  # bit d set when d is in the group
        self._resolved: dict[tuple, tuple[SourceEffect, ...]] = {}
        self._gains: list[list | None] = [None] * self.gain_lin.shape[3]  # [slot][src][dst][freq], as solved

    def group(self, src: int, coverage_m: float) -> tuple[int, ...]:
        """`coverage_group` of the source at this radius, computed once."""
        key = (src, coverage_m)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = coverage_group(self.dist_m[src], coverage_m)
            self._group_mask[group] = sum(1 << d for d in group)
        return group

    def lone_bits(self, slot: int, src: int, group: tuple[int, ...], freq: int, p_mw: float) -> float:
        """Bits the slot carries for source `src` alone on resource block
        `freq`, broadcasting at `p_mw` to `group`: the interference-free
        rate to the group's worst member times the slot duration, 0.0 for
        the empty group: the very floats `slot_rates` gives a source alone
        on its RB, and an upper bound on its bits under SIC, of which the
        swap search's and the oracle's tails for `reach` are made."""
        if not group:
            return 0.0
        gain = self._slot_gains(slot)[src]
        worst = min([p_mw * gain[d][freq] for d in group])
        return rate_bps(worst / self.noise_mw, self.rb_bandwidth_hz) * self.slot_duration_s

    def _slot_gains(self, slot: int) -> list:
        """The slot's (m, n, F) gains as nested Python floats, the very
        values of `gain_lin`, made on the slot's first solve (a link that
        solves one slot pays 2 us, not the whole table's 34)."""
        gains = self._gains[slot]
        if gains is None:
            gains = self._gains[slot] = self.gain_lin[:, :, :, slot].tolist()
        return gains

    def resolve(self, slot: int, choices: tuple[tuple[int, float, int, float], ...]) -> tuple[SourceEffect, ...]:
        """Per-source effects of these choices at this slot, solved once per
        key. Each choice is on the air (`on_air`) or is `OFF_AIR`, whose
        source carries no packet (index -1), no bits and the empty group.

        The memo is exact: an on-air choice fixes its packet, group,
        frequency and linear power, an off-air source neither transmits nor
        interferes, and within an episode the slot fixes the gains, so a hit
        returns the very floats a fresh `slot_rates` solve would, and the
        bits are the same multiply made once per key."""
        key = (slot, choices)
        hit = self._resolved.get(key)
        if hit is None:
            groups = [self.group(src, c[1]) for src, c in enumerate(choices)]
            effective = [(c[0], group, c[2], power_lin_mw(c[3])) for c, group in zip(choices, groups)]
            rates = slot_rates(effective, self._slot_gains(slot), self.noise_mw, self.rb_bandwidth_hz)
            dt, masks = self.slot_duration_s, self._group_mask
            hit = self._resolved[key] = tuple(
                [
                    _OFF_AIR_EFFECT if c[0] == PKT_NONE else (packet_index(src, c[0]), rate * dt, masks[group], rate)
                    for src, (c, group, rate) in enumerate(zip(choices, groups, rates))
                ]
            )
        return hit


def apply_slot(
    ledger: DeliveryLedger,
    actions: Sequence[tuple[int, float, int, float]],  # per source, SlotAction fields in order
    link: EpisodeLink,
    slot: int,
) -> tuple[DeliveryLedger, tuple[SourceEffect, ...]]:
    """Resolve one slot of raw per-source choices: turn those `on_air`
    rejects into `OFF_AIR`, look the slot's effects up in the link's memo,
    then drain each on-air packet and mark its group reached. Returns the
    ledger after the slot and the effects the memo holds; `ledger` itself is
    left as it was. An on-air choice with an empty group stays on the air.
    """
    choices = tuple([act if on_air(ledger, src, act, slot) else OFF_AIR for src, act in enumerate(actions)])
    effects = link.resolve(slot, choices)
    leftover, reached = list(ledger.leftover_bits), list(ledger.reached)
    for k, bits, group_mask, _ in effects:
        if k >= 0:
            leftover[k] = drain(leftover[k], bits)
            reached[k] |= group_mask
    return DeliveryLedger(ledger.packets, tuple(leftover), tuple(reached)), effects


@dataclass(frozen=True)
class ReceptionStats:
    """Episode totals. packets counts delivered payloads per slice (at most one
    per source and slice); receptions weights each delivered payload by its
    intended receivers, which is what a broadcast metric sees."""

    packets: tuple[int, int]
    receptions: tuple[int, int]
    prr: float | None


def reception_stats(ledger: DeliveryLedger) -> ReceptionStats:
    packets, receptions, intended = [0, 0], [0, 0], 0
    for k, (left, reached) in enumerate(zip(ledger.leftover_bits, ledger.reached)):
        s = packet_slice(k) - 1
        audience = reached.bit_count()
        intended += audience
        if audience and left == 0.0:
            packets[s] += 1
            receptions[s] += audience
    prr = None if intended == 0 else (receptions[0] + receptions[1]) / intended
    return ReceptionStats(tuple(packets), tuple(receptions), prr)
