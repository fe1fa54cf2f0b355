"""Exhaustive search over joint action sequences for tiny instances.

The optimum is the largest delivered-packet count that any sequence of raw
per-source choices from the given coverage x packet x frequency x power
levels can reach, under the same masking and slot resolution as the
environment. It is an upper bound that every policy drawing its choices from
those levels must respect. `replay_actions` replays a sequence through the
link layer the environment and the baselines share (`phy.apply_slot`).

The search is depth-first over slots, but it does not enumerate raw choices.
For each (source, slot) it keeps one representative of every choice that can
change the outcome; `candidate_actions` lists the rules. Every rule rests on
one monotonicity fact: under SIC a transmitter's SINR at a receiver only
depends on the weaker signals on its resource block (`phy.sic_sinr`), so
taking a transmitter off the air never lowers anyone else's broadcast rate,
and a higher rate never delivers a packet later. Replacing a pruned choice by
its representative (or by silence) therefore delivers a superset of the
packets, slot by slot, and the optimum over the candidates equals the optimum
over the raw choices.

Within the search, slot rates are memoized per (slot, joint candidate); a
state (slot, leftover bits, delivered flags) reached twice is searched once,
since everything after a slot depends on that state alone; and a branch is
cut once the packets delivered so far plus those that peak rates could still
finish (`_peak_bits`) cannot beat the best count found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import phy
from .channel import ChannelConfig, ChannelState, noise_lin_mw
from .scenario import Packet, Scenario


class SearchSpaceTooLarge(ValueError):
    """The requested enumeration exceeds the configured budget."""


NO_TX = phy.SlotAction(phy.PKT_NONE, 0.0, 0, phy.SILENCE_POWER_DBM)
_OFF_AIR = (phy.PKT_NONE, (), 0, 0.0)


@dataclass(frozen=True)
class OracleResult:
    best_delivered: int
    best_actions: tuple[tuple[phy.SlotAction, ...], ...]  # per slot, per source


def replay_actions(
    scenario: Scenario,
    chan: ChannelState,
    channel_cfg: ChannelConfig,
    slot_duration_s: float,
    actions_per_slot,
) -> phy.DeliveryLedger:
    """Replay a full joint action sequence of raw choices through the shared
    link layer."""
    noise = noise_lin_mw(channel_cfg)
    ledger = phy.DeliveryLedger(scenario.packets)
    for t, slot_actions in enumerate(actions_per_slot):
        phy.apply_slot(
            ledger,
            slot_actions,
            chan.gain_lin[:, :, :, t],
            chan.dist_m,
            noise,
            channel_cfg.rb_bandwidth_hz,
            t,
            slot_duration_s,
        )
    return ledger


def _open_slots(packet: Packet, T: int) -> range:
    """Slots at which `phy.mask_packet_choice` lets the packet on the air."""
    if packet.slice_id == phy.PKT_SLICE2:
        return range(packet.arrival_slot, min(packet.deadline_slot, T - 1) + 1)
    return range(T)


def _peak_bits(
    chan: ChannelState,
    channel_cfg: ChannelConfig,
    slot_duration_s: float,
    coverage_options_m: tuple[float, ...],
    power_options_dbm: tuple[float, ...],
) -> list[list[float]]:
    """Per source and slot, the most bits any choice can send: the
    interference-free rate at the highest power to the best destination
    within the widest radius, on the best frequency. It is computed exactly
    as `phy.slot_rates` computes a lone transmitter's rate, so no real
    transmission can exceed it."""
    m, _, F, T = chan.gain_lin.shape
    noise = noise_lin_mw(channel_cfg)
    bw = channel_cfg.rb_bandwidth_hz
    p_max = max((phy.power_lin_mw(pw) for pw in power_options_dbm), default=0.0)
    peaks = []
    for s in range(m):
        reach = phy.coverage_group(chan.dist_m[s], max(coverage_options_m, default=0.0))
        peaks.append(
            [
                max(
                    (
                        phy.rate_bps(p_max * float(chan.gain_lin[s, d, f, t]) / noise, bw) * slot_duration_s
                        for d in reach
                        for f in range(F)
                    ),
                    default=0.0,
                )
                for t in range(T)
            ]
        )
    return peaks


def _drains(left: float, bits) -> bool:
    """Whether sending at most bits[0], bits[1], ... in turn can empty `left`,
    with the same arithmetic as the ledger update."""
    for b in bits:
        left -= min(left, b)
    return left <= 0.0


def candidate_actions(
    scenario: Scenario,
    chan: ChannelState,
    channel_cfg: ChannelConfig,
    slot_duration_s: float,
    coverage_options_m: tuple[float, ...],
    power_options_dbm: tuple[float, ...],
    packet_options: tuple[int, ...] = (phy.PKT_NONE, phy.PKT_SLICE1, phy.PKT_SLICE2),
) -> list[list[list[phy.SlotAction]]]:
    """Per source and slot, the choices the search has to try; NO_TX first.

    Starting from coverage x packet x frequency x power, a choice is dropped
    when another one (or silence) does at least as well in every sequence:

    - Silence. No packet, zero coverage and the silence power all leave the
      source off the air; NO_TX stands for all of them.
    - Same effect. Choices with the same (packet, broadcast group, frequency,
      linear power) resolve identically, so one coverage level per distinct
      destination group and one power level per distinct linear power remain.
      Coverage radii are nested, so there are at most n non-empty groups.
    - Empty group. An on-air source whose radius reaches no destination earns
      rate zero and only adds interference; silence dominates it.
    - Closed window. A packet the mask would demote at this slot (a safety
      packet outside [arrival, deadline], or one already delivered at the
      start) is silence.
    - Undeliverable packet. A broadcast runs at its worst member's rate and
      interference only lowers SINR, so no slot can carry more than
      `_peak_bits`. If those peaks over every open slot of the packet cannot
      drain its leftover bits, no sequence delivers it, and transmitting it
      only interferes.
    """
    m, _, F, T = chan.gain_lin.shape
    peaks = _peak_bits(chan, channel_cfg, slot_duration_s, coverage_options_m, power_options_dbm)
    powers: dict[float, float] = {}  # linear mW -> first dBm level giving it
    for pw in power_options_dbm:
        p_mw = phy.power_lin_mw(pw)
        if p_mw > 0.0:
            powers.setdefault(p_mw, pw)
    out = []
    for s in range(m):
        groups: dict[tuple[int, ...], float] = {}  # group -> first radius giving it
        for cov in coverage_options_m:
            group = phy.coverage_group(chan.dist_m[s], cov)
            if group:
                groups.setdefault(group, cov)
        open_slots = {}
        for pkt in packet_options:
            if pkt == phy.PKT_NONE:
                continue
            packet = scenario.packets[2 * s + (pkt - 1)]
            slots = _open_slots(packet, T)
            if packet.leftover_bits > 0.0 and _drains(packet.leftover_bits, [peaks[s][t] for t in slots]):
                open_slots[pkt] = slots
        out.append(
            [
                [NO_TX]
                + [
                    phy.SlotAction(pkt, cov, f, pw)
                    for cov in groups.values()
                    for pkt, slots in open_slots.items()
                    if t in slots
                    for f in range(F)
                    for pw in powers.values()
                ]
                for t in range(T)
            ]
        )
    return out


def brute_force_optimal(
    scenario: Scenario,
    chan: ChannelState,
    channel_cfg: ChannelConfig,
    slot_duration_s: float,
    coverage_options_m: tuple[float, ...],
    power_options_dbm: tuple[float, ...],
    packet_options: tuple[int, ...] = (phy.PKT_NONE, phy.PKT_SLICE1, phy.PKT_SLICE2),
    max_sequences: float = 1e7,
) -> OracleResult:
    """Maximum delivered-packet count over every joint action sequence.

    The space searched is every sequence of raw choices from the given
    levels; `candidate_actions` prunes it without changing the maximum.
    `max_sequences` bounds the product, over slots and sources, of the
    candidate-list lengths: the number of joint sequences left after pruning,
    before the search merges repeated states and cuts hopeless branches. The
    check runs before any search, and SearchSpaceTooLarge is raised if it
    fails. `best_actions` replays to the optimum; it ends early when no
    further packet could be delivered.
    """
    m, _, _, T = chan.gain_lin.shape
    cands = candidate_actions(
        scenario, chan, channel_cfg, slot_duration_s, coverage_options_m, power_options_dbm, packet_options
    )
    sequences = math.prod(float(len(cands[s][t])) for s in range(m) for t in range(T))
    if sequences > max_sequences:
        raise SearchSpaceTooLarge(
            f"{max(len(c) for per_slot in cands for c in per_slot)} candidate actions per source and slot "
            f"at most, {sequences:.3g} sequences exceeds budget {max_sequences:.3g}"
        )
    noise = noise_lin_mw(channel_cfg)
    bw = channel_cfg.rb_bandwidth_hz
    # per slot and source: (index, raw action, packet index or -1, effective choice)
    options = [
        [
            [
                (i, act, -1, _OFF_AIR)
                if act.packet_id == phy.PKT_NONE
                else (
                    i,
                    act,
                    2 * s + (act.packet_id - 1),
                    (
                        act.packet_id,
                        phy.coverage_group(chan.dist_m[s], act.coverage_m),
                        act.freq,
                        phy.power_lin_mw(act.power_dbm),
                    ),
                )
                for i, act in enumerate(cands[s][t])
            ]
            for s in range(m)
        ]
        for t in range(T)
    ]
    start_leftover = tuple(float(p.leftover_bits) for p in scenario.packets)
    start_delivered = tuple(left == 0.0 for left in start_leftover)
    # packets that survived pruning, with the peak bits of their open slots from t on
    peaks = _peak_bits(chan, channel_cfg, slot_duration_s, coverage_options_m, power_options_dbm)
    live = sorted({opt[2] for per_slot in options for per_source in per_slot for opt in per_source} - {-1})
    tails = {
        k: [[peaks[k // 2][u] for u in _open_slots(scenario.packets[k], T) if u >= t] for t in range(T + 1)]
        for k in live
    }

    def upper_bound(t: int, leftover: tuple[float, ...], delivered: tuple[bool, ...]) -> int:
        """Delivered so far plus every open packet that peak rates could still finish."""
        return sum(delivered) + sum(
            1 for k in live if not delivered[k] and _drains(leftover[k], tails[k][t])
        )

    rate_memo: list[dict] = [{} for _ in range(T)]  # per slot: option indices -> rates
    visited: list[set] = [set() for _ in range(T)]  # per slot: states already searched
    best_count = -1
    best_seq: list[tuple[phy.SlotAction, ...]] = []
    seq: list[tuple[phy.SlotAction, ...]] = []

    def descend(t: int, leftover: tuple[float, ...], delivered: tuple[bool, ...]) -> None:
        nonlocal best_count, best_seq
        bound = upper_bound(t, leftover, delivered)
        if bound <= best_count:
            return
        if sum(delivered) == bound:  # nothing more can be delivered
            best_count = bound
            best_seq = list(seq)
            return
        # a delivered packet is masked to silence, which NO_TX already covers
        choices = [
            [opt for opt in per_source if opt[2] < 0 or not delivered[opt[2]]] for per_source in options[t]
        ]
        memo = rate_memo[t]
        for joint in product(*choices):
            ids = tuple(opt[0] for opt in joint)
            rates = memo.get(ids)
            if rates is None:
                rates = phy.slot_rates([opt[3] for opt in joint], chan.gain_lin[:, :, :, t], noise, bw)
                memo[ids] = rates
            new_leftover = list(leftover)
            new_delivered = list(delivered)
            for s, (_, _, k, _) in enumerate(joint):
                if k < 0 or rates[s] <= 0.0:
                    continue
                sent = min(new_leftover[k], rates[s] * slot_duration_s)
                new_leftover[k] -= sent
                if new_leftover[k] <= 0.0:
                    new_leftover[k] = 0.0
                    new_delivered[k] = True
            if t + 1 == T:  # a final state is cheaper to score than to descend into
                count = sum(new_delivered)
                if count > best_count:
                    best_count = count
                    best_seq = [*seq, tuple(opt[1] for opt in joint)]
            else:
                # what follows a slot depends only on the state it leaves behind
                state = (tuple(new_leftover), tuple(new_delivered))
                if state in visited[t + 1]:
                    continue
                visited[t + 1].add(state)
                seq.append(tuple(opt[1] for opt in joint))
                descend(t + 1, *state)
                seq.pop()
            if best_count == bound:
                return

    descend(0, start_leftover, start_delivered)
    return OracleResult(best_delivered=best_count, best_actions=tuple(best_seq))
