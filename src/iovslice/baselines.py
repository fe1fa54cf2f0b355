"""Offline benchmark schedulers: gain-greedy RB assignment plus swap matching.

All three variants draw coverage and slice uniformly at random per slot from
the levels of `phy`'s action table, then assign frequencies greedily by
channel gain and locally improve the assignment with swap moves, scoring each
through the same link layer the learned policy is scored by. Only the
frequencies are searched, so a plan is two things: the draws, as
`slot_options` (per slot and source, the source's action on every frequency,
then `phy.OFF_AIR` at index INACTIVE), and the search state `freqs`, one
frequency row per slot. `plan_columns` turns them into the per-slot action
columns the link layer replays. A move edits the frequencies of one slot, so
it picks the one or two edited sources' new actions out of that slot's options
and shares every other column with the current plan; no plan is copied. Its
trial shares the current plan's recorded ledgers up to that slot
(`phy.apply_slot` returns a new ledger, so none is copied) and stops as soon
as its leftover bits are, packet by packet, at least the record's: from then
on it cannot deliver more than the current plan (`evaluate_plan` gives the
argument). All trials read the world's `phy.EpisodeLink`, which the caller
hands in and may share with other policies on the world, so a slot resolved
before, from a ledger that masks it alike, costs a memo lookup. OMA keeps
one transmitter per resource block; the MP variants always use maximum
power while RP draws a random level.

The greedy assignment scores every (source, frequency, slot) at once: the
coverage grid of all sources and slots comes from `phy.in_coverage`, the
rule `phy.coverage_group` applies to one source, and the group gain sums are
the very floats a per-slot sum over each group gives
(`initial_rb_allocation` says why). Only OMA's taking of frequencies in rank
order runs slot by slot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import ge

import numpy as np

from . import phy
from .scenario import Scenario

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


def evaluate_plan(
    columns: Sequence[Column],
    scenario: Scenario,
    link: phy.EpisodeLink,
    record: list[phy.DeliveryLedger] | None = None,
    start: int = 0,
) -> list[phy.DeliveryLedger]:
    """Replay per-slot action columns through the same link layer as the
    online policy.

    Returns the ledger before every slot and after the last, T + 1 of them;
    the last is the episode's outcome.
    `record` holds those ledgers for a plan that differs from this one only
    at slot `start`: the replay then shares record[: start + 1] and stops
    after the first slot that leaves every packet's leftover bits at least
    the record's (equal leftovers included), returning the ledgers up to
    that slot only. Such a plan delivers no more than the recorded one:
    every later slot plays the same columns, and by induction over them,
    - each source the record puts on the air is on the air in this plan
      with the same choice, since its packet is undelivered here too and
      the windows depend on the slot alone; this plan only adds
      transmitters, those whose packets the record has delivered;
    - under ideal SIC an added transmitter is decoded before a source or
      joins the weaker signals it is decoded against, so no SINR rises;
    - the tail sums, the division, log2, the product and the min over the
      group all round monotonically, and so does `phy.drain`, so no rate
      rises and every leftover stays at least the record's.
    So only a plan that is never dominated can beat the record, and it
    replays all T slots. The argument rests on ideal SIC and on the ledger
    semantics of `phy` (a packet's leftover only falls, and a delivered or
    closed packet is masked off the air); a change to either must re-derive
    it.
    """
    ledgers = [phy.DeliveryLedger.start(scenario.packets)] if record is None else record[: start + 1]
    for t in range(start, len(columns)):
        ledger, _ = phy.apply_slot(ledgers[-1], columns[t], link, t)
        ledgers.append(ledger)
        if record is not None and all(map(ge, ledger.leftover_bits, record[t + 1].leftover_bits)):
            break
    return ledgers


def delivered_packets(ledger: phy.DeliveryLedger) -> int:
    return ledger.leftover_bits.count(0.0)  # delivered means leftover 0.0


@dataclass
class BaselineRun:
    stats: phy.ReceptionStats
    columns: list[Column]  # the final plan's per-slot actions
    objective_history: list[int]
    evaluations: int  # plans scored by the swap search, the initial plan included
    slots_replayed: int  # phy.apply_slot calls those scorings made


def _moves(options: Options, columns: list[Column], freqs: list[list[int]], oma: bool):
    """(slot, edited column, edited freq row) per candidate move of the plan
    whose columns and frequency rows these are, in search order: per slot,
    pairwise frequency swaps (vacancies included), then single-source
    retunes respecting OMA exclusivity. Only the edited sources' actions
    change, each picked from its options."""
    for t, (slot, row) in enumerate(zip(options, freqs)):
        m = len(row)

        def retune(*changes: tuple[int, int]):  # (source, new frequency) pairs
            column, new_row = list(columns[t]), row.copy()
            for i, f in changes:
                new_row[i] = f
                column[i] = slot[i][f]
            return t, tuple(column), new_row

        for i in range(m):
            for j in range(i + 1, m):
                if row[i] != row[j]:
                    yield retune((i, row[j]), (j, row[i]))
        for i in range(m):
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
    current plan's recorded ledgers. A trial stopped once its leftover bits
    dominate the record's (fewer than T + 1 ledgers back) delivers no more
    than the current plan, so it loses; a trial that wins therefore replays
    every slot, and the record stays complete. A move is kept only if the
    delivered count strictly increases; the objective history holds the
    count after each accepted move (leading entry: the initial count), and
    the stats are read off the final plan's recorded ledgers.
    """
    T = len(freqs)
    freqs = freqs.copy()  # rows are replaced, never edited in place
    columns = plan_columns(options, freqs)
    record = evaluate_plan(columns, scenario, link)
    history = [delivered_packets(record[-1])]
    evaluations, slots = 1, len(record) - 1
    while len(history) - 1 < max_iters:
        for t, column, row in _moves(options, columns, freqs, oma):
            trial = columns.copy()
            trial[t] = column
            ledgers = evaluate_plan(trial, scenario, link, record, t)
            evaluations += 1
            slots += len(ledgers) - 1 - t
            if len(ledgers) > T and delivered_packets(ledgers[-1]) > history[-1]:
                columns, record, freqs[t] = trial, ledgers, row
                history.append(delivered_packets(ledgers[-1]))
                break
        else:
            break
    return BaselineRun(phy.reception_stats(record[-1]), columns, history, evaluations, slots)


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
