"""Exhaustive search over joint action sequences for tiny instances.

`brute_force_optimal` finds the largest delivered-packet count that any
sequence of raw per-source choices from `phy.action_table(F)` can reach, under
the environment's masking and slot resolution. The environment's actions and
the baselines' draws come from that table, so the optimum bounds every
policy, and its `best_actions` replay through `baselines.evaluate_plan`.
`candidate_actions` prunes the raw choices and `phy.reach` over `_peak_tails`
cuts branches, neither changing the optimum; their docstrings say why.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass
from itertools import product

from . import phy
from .scenario import SLICE_SAFETY, SLICE_THROUGHPUT, Scenario, packet_index


class SearchSpaceTooLarge(ValueError):
    """The requested enumeration exceeds the configured budget."""


# most joint sequences, after pruning, that brute_force_optimal will search
MAX_SEQUENCES = 1e7


@dataclass(frozen=True)
class OracleResult:
    best_delivered: int
    best_actions: tuple[tuple[phy.SlotAction, ...], ...]  # per slot, per source


def _peak_tails(scenario: Scenario, link: phy.EpisodeLink) -> list[dict[int, tuple[float, ...]]]:
    """The peaks in `baselines.Record.tails`' format: per slot t (T + 1
    entries), each deliverable packet mapped to the positive peak bits of
    its open slots from t on. A source's peak at a slot is the most bits any
    choice sends: the lone bits (`phy.EpisodeLink.lone_bits`) at the
    highest power to the best destination of the widest radius, on the best
    frequency. A broadcast runs at its worst member's rate, so these tails
    dominate every sequence (`phy.reach`); a packet whose peaks do not drain
    its size is not deliverable, and no sequence delivers it."""
    m, _, F, T = link.gain_lin.shape
    p_max = phy.power_lin_mw(max(phy.POWER_LEVELS_DBM))
    tails: list[dict[int, tuple[float, ...]]] = [{} for _ in range(T + 1)]
    for s in range(m):
        group = link.group(s, max(phy.COVERAGE_LEVELS_M))
        peaks = [
            max((link.lone_bits(t, s, (d,), f, p_max) for d in group for f in range(F)), default=0.0) for t in range(T)
        ]
        for k in (packet_index(s, SLICE_THROUGHPUT), packet_index(s, SLICE_SAFETY)):
            slots = [t for t in range(T) if peaks[t] > 0.0 and scenario.packets[k].open_at(t)]
            if phy.drains(scenario.packets[k].size_bits, [peaks[t] for t in slots]):
                for t in range(T + 1):
                    tails[t][k] = tuple([peaks[u] for u in slots if u >= t])
    return tails


def candidate_actions(
    scenario: Scenario, link: phy.EpisodeLink, deliverable: Collection[int]
) -> list[list[list[tuple[int, phy.SlotAction]]]]:
    """Per slot and source, the choices the search has to try with their packet indices,
    `(-1, phy.OFF_AIR)` first; `deliverable` holds the packets `_peak_tails` of the same link maps.

    Starting from `phy.action_table(F)`, a choice is dropped when another one
    (or silence) does at least as well in every sequence:

    - Same effect. Choices with the same (packet, broadcast group, frequency,
      linear power) resolve identically, so only the first of them in table
      order remains. Coverage radii are nested, so there are at most n
      non-empty groups.
    - Not useful (`phy.useful_mask` of the episode's start ledger). No packet,
      zero coverage, the silence power and a packet outside its window
      [arrival, deadline] all leave the source off the air; `phy.OFF_AIR`
      stands for all of them. An on-air source whose radius reaches no
      destination earns rate zero and only adds interference; silence
      dominates it.
    - Undeliverable packet. No sequence delivers a packet outside
      `deliverable` (`_peak_tails`), so transmitting it only interferes.

    Every rule rests on one monotonicity fact: under SIC a transmitter's
    SINR at a receiver only depends on the weaker signals on its resource
    block (`phy.sic_sinr`), so taking a transmitter off the air never lowers
    anyone else's broadcast rate, and a higher rate never delivers a packet
    later. Replacing a pruned choice by its representative (or by silence)
    therefore delivers a superset of the packets, slot by slot, and the
    optimum over the candidates equals the optimum over the raw choices.
    """
    m, _, F, T = link.gain_lin.shape
    start = phy.DeliveryLedger.start(scenario.packets)
    table = phy.action_table(F)
    firsts: list[dict[tuple, tuple[int, int]]] = [{} for _ in range(m)]  # (packet, group, freq, mW) -> (k, i)
    for s in range(m):
        for i, act in enumerate(table):
            if act.packet_id != phy.PKT_NONE and (k := packet_index(s, act.packet_id)) in deliverable:
                key = (act.packet_id, link.group(s, act.coverage_m), act.freq, phy.power_lin_mw(act.power_dbm))
                firsts[s].setdefault(key, (k, i))
    useful = [[phy.useful_mask(start, s, t, link)[1] for s in range(m)] for t in range(T)]
    return [
        [[(-1, phy.OFF_AIR)] + [(k, table[i]) for k, i in firsts[s].values() if useful[t][s][i]] for s in range(m)]
        for t in range(T)
    ]


def brute_force_optimal(scenario: Scenario, link: phy.EpisodeLink) -> OracleResult:
    """Maximum delivered-packet count over every joint action sequence on
    the world (scenario, link); the search resolves its slots through
    `link`'s memo, which other policies on the world may share.

    The space searched is every sequence of raw choices from
    `phy.action_table(F)`; `candidate_actions` prunes it without changing
    the maximum.
    `MAX_SEQUENCES` bounds the product, over slots and sources, of the
    candidate-list lengths: the number of joint sequences left after pruning,
    before the search merges repeated states and cuts hopeless branches. The
    check runs before any search, and SearchSpaceTooLarge is raised if it
    fails. `best_actions` replays to the optimum; it ends early when no
    further packet could be delivered.

    The search is depth-first over slots. It does not call `phy.apply_slot`
    for every joint choice, which would test each choice with `phy.on_air`
    again and OR in reached bitmasks it never reads: its candidates are
    already what `apply_slot` hands the slot memo, `phy.OFF_AIR` or a choice
    useful at the episode's start, and it drops a candidate once its packet
    is delivered. So it drains leftover bits by `link.resolve` with
    `phy.drain_slot`. A packet is delivered exactly when its leftover is
    0.0, so the state at a slot is the leftover tuple alone: a state reached
    twice is searched once, and a branch is cut once `phy.reach` of its
    leftover over the peak tails cannot beat the best count found.
    """
    T = link.gain_lin.shape[3]
    tails = _peak_tails(scenario, link)
    options = candidate_actions(scenario, link, tails[0].keys())
    sequences = math.prod(float(len(c)) for per_slot in options for c in per_slot)
    if sequences > MAX_SEQUENCES:
        raise SearchSpaceTooLarge(
            f"{max(len(c) for per_slot in options for c in per_slot)} candidate actions per source and slot "
            f"at most, {sequences:.3g} sequences exceeds budget {MAX_SEQUENCES:.3g}"
        )

    visited: list[set] = [set() for _ in range(T)]  # per slot: leftover states already searched
    best_count = -1
    best_seq: list[tuple[phy.SlotAction, ...]] = []
    seq: list[tuple[phy.SlotAction, ...]] = []

    def descend(t: int, leftover: tuple[float, ...]) -> None:
        nonlocal best_count, best_seq
        done = leftover.count(0.0)
        bound = phy.reach(leftover, tails[t])
        if bound <= best_count:
            return
        if done == bound:  # nothing more can be delivered
            best_count = bound
            best_seq = list(seq)
            return
        # a delivered packet is not on the air (`phy.on_air`), which OFF_AIR already covers
        choices = [[act for k, act in per_source if k < 0 or leftover[k] > 0.0] for per_source in options[t]]
        for acts in product(*choices):
            after = phy.drain_slot(leftover, link.resolve(t, acts))
            if t + 1 == T:  # a final state is cheaper to score than to descend into
                count = after.count(0.0)
                if count > best_count:
                    best_count = count
                    best_seq = [*seq, acts]
            else:
                # what follows a slot depends only on the leftover it leaves behind
                if after in visited[t + 1]:
                    continue
                visited[t + 1].add(after)
                seq.append(acts)
                descend(t + 1, after)
                seq.pop()
            if best_count == bound:
                return

    descend(0, phy.DeliveryLedger.start(scenario.packets).leftover_bits)
    return OracleResult(best_delivered=best_count, best_actions=tuple(best_seq))
