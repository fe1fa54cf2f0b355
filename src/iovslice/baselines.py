"""Offline benchmark schedulers: gain-greedy RB assignment plus swap matching.

`run_baseline` plays one of `BASELINE_NAMES` on a world. All three draw
coverage and slice uniformly per slot from the levels of `phy`'s action
table; the MP variants always use maximum power while RP draws a random
level, and OMA keeps one transmitter per resource block. Only frequencies
are searched, so a plan is the draws (`slot_options`) plus one frequency row
per slot, and `plan_columns` turns it into per-slot action columns.
`initial_rb_allocation` is the greedy start and `swap_matching` the local
search. Every plan is scored by `evaluate_plan` through the world's
`phy.EpisodeLink`, the link layer the learned policy is scored by, whose
memo the caller may share with other policies on the world.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import ge
from typing import NamedTuple

import numpy as np

from . import phy
from .scenario import Scenario, packet_index

BASELINE_NAMES = ("OMA-MP", "NOMA-MP", "NOMA-RP")

INACTIVE = -1  # frequency of a source that found no free RB; its option is phy.OFF_AIR
Action = tuple[int, float, int, float]  # `phy.SlotAction` field order
Column = tuple[Action, ...]  # one slot's per-source actions
Options = list[list[tuple[Action, ...]]]  # per slot and source: its action per frequency, then OFF_AIR


def random_coverage_slice(m: int, T: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform coverage level and packet choice per (source, slot). Illegal
    picks are not filtered here; the link layer masks them when replaying."""
    coverage = np.array(phy.COVERAGE_LEVELS_M)[rng.integers(0, len(phy.COVERAGE_LEVELS_M), size=(m, T))]
    packet = np.array(phy.PACKET_CHOICES)[rng.integers(0, len(phy.PACKET_CHOICES), size=(m, T))]
    return coverage, packet


def draw_powers(variant: str, m: int, T: int, rng: np.random.Generator) -> np.ndarray:
    if variant.endswith("MP"):
        return np.full((m, T), max(phy.POWER_LEVELS_DBM))
    active = [p for p in phy.POWER_LEVELS_DBM if p > phy.SILENCE_POWER_DBM]
    return np.array(active)[rng.integers(0, len(active), size=(m, T))]


def slot_options(coverage_m: np.ndarray, packet: np.ndarray, power_dbm: np.ndarray, F: int) -> Options:
    """Per slot and source, F + 1 actions: entry f < F is the source's drawn
    (packet, coverage, power) on frequency f, and the last is `phy.OFF_AIR`,
    so index INACTIVE takes the source off the air. The draws are (m, T)."""
    return [
        [tuple([(pkt, cov, f, pw) for f in range(F)] + [phy.OFF_AIR]) for pkt, cov, pw in zip(*slot)]
        for slot in zip(packet.T.tolist(), coverage_m.T.tolist(), power_dbm.T.tolist())
    ]


def plan_columns(options: Options, freqs: list[list[int]]) -> list[Column]:
    """The per-slot action columns of the plan tuning each source to its
    frequency in `freqs` (one row per slot, INACTIVE included)."""
    return [tuple([opts[f] for opts, f in zip(slot, row)]) for slot, row in zip(options, freqs)]


def initial_rb_allocation(link: phy.EpisodeLink, coverage_m: np.ndarray, oma: bool) -> list[list[int]]:
    """Greedy frequency assignment, strongest sources first; one frequency
    row per slot.

    Per slot, sources are ranked by their best achievable sum of gains to the
    current broadcast group; each takes the frequency maximizing that sum.
    Under OMA a taken frequency is gone, and a source left without one sits
    the slot out (INACTIVE). Ties go to the lower source and the lower
    frequency.

    The group sums of every slot come from one array pass, and they are the
    floats a sum over each group's members gives: numpy sums a (members, F)
    block with F >= 2 down its rows, one row at a time from 0.0, so adding
    every destination in index order, a non-member as an exact 0.0, makes
    the same additions. With one frequency the block is a column, which
    numpy sums pairwise from 8 members on; such groups are summed as that
    block.
    """
    m, n, F, T = link.gain_lin.shape
    member = phy.in_coverage(link.dist_m[:, :, None], coverage_m[:, None, :])  # (m, n, T)
    group_gain = np.zeros((m, F, T))
    for d in range(n):
        group_gain += np.where(member[:, d, None, :], link.gain_lin[:, d], 0.0)
    if F == 1:
        for s, t in zip(*np.nonzero(member.sum(axis=1) >= 8)):
            group_gain[s, :, t] = link.gain_lin[s, np.flatnonzero(member[s, :, t]), :, t].sum(axis=0)
    if not oma:  # every source takes its best frequency, the lowest of tied ones
        return group_gain.argmax(axis=1).T.tolist()
    # per slot: sources strongest first, and each source's frequencies best first
    orders = np.argsort(-group_gain.max(axis=1), axis=0, kind="stable").T.tolist()
    prefs = np.argsort(-group_gain, axis=1, kind="stable").transpose(2, 0, 1).tolist()
    freqs = []
    for order, slot_prefs in zip(orders, prefs):
        row = [INACTIVE] * m
        taken: set[int] = set()
        for s in order:
            for f in slot_prefs[s]:
                if f not in taken:
                    row[s] = f
                    taken.add(f)
                    break
        freqs.append(row)
    return freqs


class Record(NamedTuple):
    """The current plan of a swap search, as its trials read it.

    `ledgers` are the plan's ledgers before every slot and after the last
    (T + 1), `delivered` the count they deliver, and `tails[k]` (k = 0..T)
    maps a packet index to the lone bits (`phy.EpisodeLink.lone_bits`) of
    the plan's columns at slots k..T-1 that name the packet within its
    window, in slot order; a packet no such column names is absent. That
    is the tails format `phy.reach` reads.
    """

    ledgers: list[phy.DeliveryLedger]
    delivered: int
    tails: list[dict[int, tuple[float, ...]]]


def evaluate_plan(
    columns: Sequence[Column],
    scenario: Scenario,
    link: phy.EpisodeLink,
    record: Record | None = None,
    start: int = 0,
) -> list[phy.DeliveryLedger]:
    """Replay per-slot action columns through the same link layer as the
    online policy.

    Returns the ledger before every slot and after the last, T + 1 of them;
    the last is the episode's outcome.
    `record` is the `Record` of a plan that differs from this one only at
    slot `start`: the replay then shares record.ledgers[: start + 1] and
    stops after the first slot whose ledger shows that it cannot deliver
    more than `record.delivered`, returning the ledgers up to that slot
    only. With k the next slot, from which on this plan plays the record's
    columns, either of two tests shows it; both are exact, so a plan that
    delivers more replays all T slots.
    - Dominance: every packet's leftover bits are at least the record's
      (equal leftovers included). By induction over the later slots,
      - each source the record puts on the air is on the air in this plan
        with the same choice, since its packet is undelivered here too and
        the windows depend on the slot alone; this plan only adds
        transmitters, those whose packets the record has delivered;
      - under ideal SIC an added transmitter is decoded before a source or
        joins the weaker signals it is decoded against, so no SINR rises;
      - the tail sums, the division, log2, the product and the min over
        the group all round monotonically, and so does `phy.drain`, so no
        rate rises and every leftover stays at least the record's.
    - Reach: `phy.reach` of the leftover over `record.tails[k]` is at most
      `record.delivered`. Its premise holds: the later columns are the
      record's, and a column carries a packet only if it names the packet
      within its window, and then no more than the source's lone bits
      (`phy.EpisodeLink.lone_bits`), since interference only lowers SINR
      under SIC and the roundings are monotone.
    Both arguments rest on ideal SIC and on the ledger semantics of `phy`
    (a packet's leftover only falls, and a delivered or closed packet is
    masked off the air); a change to either must re-derive them.
    """
    if record is None:
        ledgers = [phy.DeliveryLedger.start(scenario.packets)]
    else:
        ledgers = record.ledgers[: start + 1]
    for t in range(start, len(columns)):
        ledger, _ = phy.apply_slot(ledgers[-1], columns[t], link, t)
        ledgers.append(ledger)
        if record is not None:
            left = ledger.leftover_bits
            if all(map(ge, left, record.ledgers[t + 1].leftover_bits)):
                break
            if phy.reach(left, record.tails[t + 1]) <= record.delivered:
                break
    return ledgers


def delivered_packets(ledger: phy.DeliveryLedger) -> int:
    return ledger.leftover_bits.count(0.0)  # delivered means leftover 0.0


@dataclass
class BaselineRun:
    stats: phy.ReceptionStats
    columns: list[Column]  # the final plan's per-slot actions
    objective_history: list[int]
    evaluations: int  # plans replayed by the swap search, the initial plan included
    slots_replayed: int  # phy.apply_slot calls those replays made


def _tails(columns: Sequence[Column], scenario: Scenario, link: phy.EpisodeLink) -> list[dict[int, tuple[float, ...]]]:
    """`Record.tails` of the plan with these columns: from the empty tails
    after the last slot, each slot k prepends to the tails after it the lone
    bits of every source whose choice names a packet open at k and carries
    bits alone."""
    tail: dict[int, tuple[float, ...]] = {}
    out = [tail]
    for k in range(len(columns) - 1, -1, -1):
        tail = tail.copy()
        for s, act in enumerate(columns[k]):
            if act[0] != phy.PKT_NONE and scenario.packets[p := packet_index(s, act[0])].open_at(k):
                bits = link.lone_bits(k, s, link.group(s, act[1]), act[2], phy.power_lin_mw(act[3]))
                if bits > 0.0:
                    tail[p] = (bits, *tail.get(p, ()))
        out.append(tail)
    return out[::-1]


def plan_record(columns: Sequence[Column], scenario: Scenario, link: phy.EpisodeLink) -> Record:
    """A plan's `Record`: its full replay (one `evaluate_plan`) and tails."""
    ledgers = evaluate_plan(columns, scenario, link)
    return Record(ledgers, delivered_packets(ledgers[-1]), _tails(columns, scenario, link))


def _moves(
    options: Options, columns: list[Column], freqs: list[list[int]], ledgers: list[phy.DeliveryLedger], oma: bool
):
    """(slot, edited column, edited freq row) per candidate move of the plan
    whose columns, frequency rows and ledgers these are, in search order:
    per slot, pairwise frequency swaps (vacancies included), then
    single-source retunes respecting OMA exclusivity. Only the edited
    sources' actions change, each picked from its options.

    A move is left out when every source it edits draws a choice that
    `phy.on_air` rejects at that slot: it ignores the frequency, and
    INACTIVE is `phy.OFF_AIR`, so `phy.apply_slot` masks the edited column
    to the plan's own and the trial would replay to the plan's ledgers."""
    for t, (slot, row) in enumerate(zip(options, freqs)):
        m = len(row)
        air = [phy.on_air(ledgers[t], s, slot[s][0], t) for s in range(m)]

        def retune(*changes: tuple[int, int]):  # (source, new frequency) pairs
            column, new_row = list(columns[t]), row.copy()
            for i, f in changes:
                new_row[i] = f
                column[i] = slot[i][f]
            return t, tuple(column), new_row

        for i in range(m):
            for j in range(i + 1, m):
                if row[i] != row[j] and (air[i] or air[j]):
                    yield retune((i, row[j]), (j, row[i]))
        for i in range(m):
            if not air[i]:
                continue
            for f in range(len(slot[i]) - 1):
                if row[i] == f:
                    continue
                if oma and any(row[j] == f for j in range(m) if j != i):
                    continue
                yield retune((i, f))


def swap_matching(
    options: Options,
    freqs: list[list[int]],
    scenario: Scenario,
    link: phy.EpisodeLink,
    oma: bool,
    max_iters: int,
) -> BaselineRun:
    """First-improvement local search over frequency swaps and single moves.

    The search state is one frequency row per slot, starting from `freqs`
    (left as it is); `options` are the `slot_options` the rows index. A move
    edits one slot's row and column, and a trial shares every other column
    with the current plan. `evaluate_plan` replays the initial plan in full
    through `link`, and each trial from the slot it edits, against the
    current plan's `Record`. Two exact cuts keep a trial that cannot win
    from costing replays, so neither changes the search's path: `_moves`
    leaves out a move whose edited sources are all off the air, and
    `evaluate_plan` stops a trial on dominance or reach; each docstring
    carries its argument. A trial that wins therefore replays every slot,
    and the record stays complete; one stopped before its last slot has
    fewer than T + 1 ledgers and loses. A move is kept only if the
    delivered count strictly increases; the objective history holds the
    count after each accepted move (leading entry: the initial count), and
    the stats are read off the final plan's recorded ledgers.
    """
    T = len(freqs)
    freqs = freqs.copy()  # rows are replaced, never edited in place
    columns = plan_columns(options, freqs)
    record = plan_record(columns, scenario, link)
    history = [record.delivered]
    evaluations, slots = 1, T
    while len(history) - 1 < max_iters:
        for t, column, row in _moves(options, columns, freqs, record.ledgers, oma):
            trial = columns.copy()
            trial[t] = column
            ledgers = evaluate_plan(trial, scenario, link, record, t)
            evaluations += 1
            slots += len(ledgers) - 1 - t
            if len(ledgers) > T and delivered_packets(ledgers[-1]) > record.delivered:
                columns, freqs[t] = trial, row
                record = Record(ledgers, delivered_packets(ledgers[-1]), _tails(columns, scenario, link))
                history.append(record.delivered)
                break
        else:
            break
    return BaselineRun(phy.reception_stats(record.ledgers[-1]), columns, history, evaluations, slots)


def run_baseline(
    name: str, scenario: Scenario, link: phy.EpisodeLink, rng: np.random.Generator, max_iters: int
) -> BaselineRun:
    """The named scheduler on the world (scenario, link); its draws come
    from `rng`, and the allocation and every trial read `link`."""
    if name not in BASELINE_NAMES:
        raise ValueError(f"unknown baseline {name!r}, expected one of {BASELINE_NAMES}")
    oma = name.startswith("OMA")
    m, _, F, T = link.gain_lin.shape
    coverage, packet = random_coverage_slice(m, T, rng)
    options = slot_options(coverage, packet, draw_powers(name, m, T, rng), F)
    freqs = initial_rb_allocation(link, coverage, oma)
    return swap_matching(options, freqs, scenario, link, oma, max_iters)
