"""Offline benchmark schedulers: gain-greedy RB assignment plus swap matching.

All three variants draw coverage and slice uniformly at random per slot, then
assign frequencies greedily by channel gain and locally improve the assignment
with swap moves, scoring each through the same link layer the learned policy
is scored by. The search runs on the plan's action columns (`plan_columns`):
per slot, one tuple per source in `phy.SlotAction` field order, `phy.OFF_AIR`
for a source without a resource block. A move edits the frequencies of one
slot, so it rebuilds the one or two edited sources' tuples of that slot's
column and shares every other column with the current plan; no plan is
copied and no array is converted per trial. Its trial shares the current
plan's recorded ledgers up to that slot (`phy.apply_slot` returns a new
ledger, so none is copied) and stops as soon as its ledger matches the record
again. All trials of one episode share its `phy.EpisodeLink`, so a slot the
search has resolved before, from a ledger that masks it alike, costs a memo
lookup. OMA keeps one transmitter per resource block; the MP variants always
use maximum power while RP draws a random level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phy
from .channel import ChannelConfig, ChannelState
from .env import COVERAGE_LEVELS_M, POWER_LEVELS_DBM
from .scenario import Scenario

BASELINE_NAMES = ("OMA-MP", "NOMA-MP", "NOMA-RP")

MAX_POWER_DBM = max(POWER_LEVELS_DBM)
ACTIVE_POWERS_DBM = tuple(p for p in POWER_LEVELS_DBM if p > phy.SILENCE_POWER_DBM)

INACTIVE = -1  # frequency slot of a source that found no free RB
Column = tuple[tuple[int, float, int, float], ...]  # one slot's per-source actions


@dataclass
class OfflinePlan:
    """Per (source, slot) choices; arrays shaped (m, T)."""

    coverage_m: np.ndarray  # float
    packet: np.ndarray  # int, PKT_* codes
    freq: np.ndarray  # int, INACTIVE when off the air
    power_dbm: np.ndarray  # float

    def copy(self) -> "OfflinePlan":
        return OfflinePlan(
            self.coverage_m.copy(), self.packet.copy(), self.freq.copy(), self.power_dbm.copy()
        )


def random_coverage_slice(m: int, T: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform coverage level and packet choice per (source, slot). Illegal
    picks are not filtered here; the link layer masks them when replaying."""
    coverage = np.array(COVERAGE_LEVELS_M)[rng.integers(0, len(COVERAGE_LEVELS_M), size=(m, T))]
    packet = rng.integers(0, 3, size=(m, T))
    return coverage, packet


def draw_powers(variant: str, m: int, T: int, rng: np.random.Generator) -> np.ndarray:
    if variant.endswith("MP"):
        return np.full((m, T), MAX_POWER_DBM)
    return np.array(ACTIVE_POWERS_DBM)[rng.integers(0, len(ACTIVE_POWERS_DBM), size=(m, T))]


def initial_rb_allocation(
    link: phy.EpisodeLink,
    coverage_m: np.ndarray,
    packet: np.ndarray,
    power_dbm: np.ndarray,
    oma: bool,
) -> OfflinePlan:
    """Greedy frequency assignment, strongest sources first.

    Per slot, sources are ranked by their best achievable sum of gains to the
    current broadcast group; each takes the frequency maximizing that sum.
    Under OMA a taken frequency is gone, and a source left without one sits
    the slot out.
    """
    m, n, F, T = link.gain_lin.shape
    freq = np.full((m, T), INACTIVE, dtype=np.int64)
    for t in range(T):
        group_gain = np.zeros((m, F))
        for s in range(m):
            members = link.group(s, float(coverage_m[s, t]))
            if members:
                group_gain[s] = link.gain_lin[s, members, :, t].sum(axis=0)
        best = group_gain.max(axis=1)
        order = sorted(range(m), key=lambda s: (-best[s], s))
        taken: set[int] = set()
        for s in order:
            prefs = np.argsort(-group_gain[s], kind="stable")
            if oma:
                free = [int(f) for f in prefs if int(f) not in taken]
                if not free:
                    continue
                freq[s, t] = free[0]
                taken.add(free[0])
            else:
                freq[s, t] = int(prefs[0])
    return OfflinePlan(coverage_m.copy(), packet.copy(), freq, power_dbm.copy())


def _action(packet: int, coverage_m: float, freq: int, power_dbm: float) -> tuple[int, float, int, float]:
    """One source's slot action in `phy.SlotAction` field order."""
    return phy.OFF_AIR if freq == INACTIVE else (packet, coverage_m, freq, power_dbm)


def _plan_rows(plan: OfflinePlan) -> tuple[list[list], ...]:
    """(packet, coverage_m, freq, power_dbm), each as per-slot lists of
    per-source Python scalars."""
    return tuple(a.T.tolist() for a in (plan.packet, plan.coverage_m, plan.freq, plan.power_dbm))


def plan_columns(plan: OfflinePlan) -> list[Column]:
    """The plan as per-slot action columns: one tuple per source in
    `phy.SlotAction` field order, `phy.OFF_AIR` for an INACTIVE source."""
    return [tuple(map(_action, *slot)) for slot in zip(*_plan_rows(plan))]


def evaluate_plan(
    plan: OfflinePlan | list[Column],
    scenario: Scenario,
    link: phy.EpisodeLink,
    record: list[phy.DeliveryLedger] | None = None,
    start: int = 0,
) -> list[phy.DeliveryLedger]:
    """Replay the episode through the same link layer as the online policy.

    `plan` is a whole `OfflinePlan` or its `plan_columns`, which is how the
    swap search passes its trials. Returns the ledger before every slot and
    after the last, T + 1 of them; the last is the episode's outcome.
    `record` holds those ledgers for a plan that differs from this one only
    at slot `start`: the replay then shares record[: start + 1] and stops
    after the first slot that leaves the leftover bits, and with them the
    delivery flags, bit for bit as the record has them.
    Every later slot then plays out alike, so this plan delivers what the
    recorded one does; such a replay returns the ledgers up to that slot only.
    """
    columns = plan_columns(plan) if isinstance(plan, OfflinePlan) else plan
    ledgers = [phy.DeliveryLedger.start(scenario.packets)] if record is None else record[: start + 1]
    for t in range(start, len(columns)):
        ledger, _ = phy.apply_slot(ledgers[-1], columns[t], link, t)
        ledgers.append(ledger)
        # bit-identical progress, so the rest replays exactly as recorded.
        # Float equality is bit equality here: leftovers are finite and
        # nonnegative, and `phy.drain` never yields -0.0.
        if record is not None and ledger.leftover_bits == record[t + 1].leftover_bits:
            break
    return ledgers


def delivered_packets(ledger: phy.DeliveryLedger) -> int:
    return ledger.leftover_bits.count(0.0)  # delivered means leftover 0.0


@dataclass
class BaselineRun:
    stats: phy.ReceptionStats
    plan: OfflinePlan
    objective_history: list[int]
    evaluations: int  # plans scored by the swap search, the initial plan included
    slots_replayed: int  # phy.apply_slot calls those scorings made


def _moves(columns: list[Column], rows: tuple[list[list], ...], oma: bool, F: int):
    """(slot, edited column, edited freq row) per candidate move of the plan
    whose columns and `_plan_rows` these are, in search order: per slot,
    pairwise frequency swaps (vacancies included), then single-source
    retunes respecting OMA exclusivity. Only the edited sources' actions are
    rebuilt."""
    packet, coverage, freqs, power = rows
    for t, row in enumerate(freqs):
        m = len(row)

        def retune(*changes: tuple[int, int]):  # (source, new frequency) pairs
            column, new_row = list(columns[t]), row.copy()
            for i, f in changes:
                new_row[i] = f
                column[i] = _action(packet[t][i], coverage[t][i], f, power[t][i])
            return t, tuple(column), new_row

        for i in range(m):
            for j in range(i + 1, m):
                if row[i] != row[j]:
                    yield retune((i, row[j]), (j, row[i]))
        for i in range(m):
            for f in range(F):
                if row[i] == f:
                    continue
                if oma and any(row[j] == f for j in range(m) if j != i):
                    continue
                yield retune((i, f))


def swap_matching(
    plan: OfflinePlan,
    evaluate,
    oma: bool,
    F: int,
    max_iters: int = 1000,
) -> BaselineRun:
    """First-improvement local search over frequency swaps and single moves.

    The search runs on the plan's action columns (`plan_columns`): a move
    edits one slot's column, and a trial shares every other column with the
    current plan. evaluate(columns, record, start) -> ledgers replays them as
    `evaluate_plan` does: in full when record is None, else from slot
    `start` against the current plan's ledgers, which every trial differs
    from at that slot only. A trial that rejoins them (fewer than T + 1
    ledgers back) delivers what the current plan does. A move is kept only if
    the delivered count strictly increases; the objective history holds the
    count after each accepted move (leading entry: the initial count), and
    the stats are read off the final plan's recorded ledgers.
    """
    T = plan.freq.shape[1]
    rows = _plan_rows(plan)
    freqs = rows[2]  # the current plan's per-slot frequencies, INACTIVE included
    freq = plan.freq.copy()  # the same, as the final plan's array
    columns = plan_columns(plan)
    record = evaluate(columns, None, 0)
    history = [delivered_packets(record[-1])]
    evaluations, slots = 1, len(record) - 1
    while len(history) - 1 < max_iters:
        for t, column, row in _moves(columns, rows, oma, F):
            trial = columns.copy()
            trial[t] = column
            ledgers = evaluate(trial, record, t)
            evaluations += 1
            slots += len(ledgers) - 1 - t
            if len(ledgers) > T and delivered_packets(ledgers[-1]) > history[-1]:
                columns, record, freqs[t], freq[:, t] = trial, ledgers, row, row
                history.append(delivered_packets(ledgers[-1]))
                break
        else:
            break
    final = OfflinePlan(plan.coverage_m.copy(), plan.packet.copy(), freq, plan.power_dbm.copy())
    return BaselineRun(phy.reception_stats(record[-1]), final, history, evaluations, slots)


def run_baseline(
    name: str,
    scenario: Scenario,
    chan: ChannelState,
    channel_cfg: ChannelConfig,
    slot_duration_s: float,
    rng: np.random.Generator,
    max_iters: int = 1000,
) -> BaselineRun:
    if name not in BASELINE_NAMES:
        raise ValueError(f"unknown baseline {name!r}, expected one of {BASELINE_NAMES}")
    oma = name.startswith("OMA")
    m, _, F, T = chan.gain_lin.shape
    coverage, packet = random_coverage_slice(m, T, rng)
    powers = draw_powers(name, m, T, rng)
    # the allocation and every trial read this one episode's link table
    link = phy.EpisodeLink(chan, channel_cfg, slot_duration_s)
    plan = initial_rb_allocation(link, coverage, packet, powers, oma)

    def evaluate(columns: list[Column], record: list[phy.DeliveryLedger] | None, start: int):
        return evaluate_plan(columns, scenario, link, record, start)

    return swap_matching(plan, evaluate, oma, F, max_iters)
