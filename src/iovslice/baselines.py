"""Offline benchmark schedulers: gain-greedy RB assignment plus swap matching.

All three variants draw coverage and slice uniformly at random per slot, then
assign frequencies greedily by channel gain and locally improve the assignment
with swap moves, scoring each through the same link layer the learned policy
is scored by. A move edits one slot, so its trial replays from the current
plan's recorded ledger at that slot and stops as soon as the ledger matches
the record again. All trials of one episode share its `phy.EpisodeLink`, so a
slot configuration the search has scored before costs a memo lookup. OMA
keeps one transmitter per resource block; the MP variants always use maximum
power while RP draws a random level.
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
_SILENT = phy.SlotAction(phy.PKT_NONE, 0.0, 0, phy.SILENCE_POWER_DBM)  # an INACTIVE source's action


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


def evaluate_plan(
    plan: OfflinePlan,
    scenario: Scenario,
    link: phy.EpisodeLink,
    record: list[phy.DeliveryLedger] | None = None,
    start: int = 0,
) -> list[phy.DeliveryLedger]:
    """Replay the episode through the same link layer as the online policy.

    Returns the ledger before every slot and after the last, T + 1 of them;
    the last is the episode's outcome. `record` holds those ledgers for a
    plan that differs from this one only at slot `start`: the replay then
    resumes from record[start] and stops after the first slot that leaves
    the leftover bits, and with them the delivery flags, bit for bit as the
    record has them.
    Every later slot then plays out alike, so this plan delivers what the
    recorded one does; such a replay returns the ledgers up to that slot only.
    """
    ledgers = [phy.DeliveryLedger(scenario.packets)] if record is None else record[: start + 1]
    # per slot from `start` on, the sources' (packet, coverage, freq, power) as Python scalars
    fields = (plan.packet, plan.coverage_m, plan.freq, plan.power_dbm)
    columns = zip(*(a[:, start:].T.tolist() for a in fields))
    for t, column in enumerate(columns, start):
        actions = [_SILENT if act[2] == INACTIVE else act for act in zip(*column)]
        ledger = ledgers[-1].copy()
        phy.apply_slot(ledger, actions, link, t)
        ledgers.append(ledger)
        # bit-identical progress, so the rest replays exactly as recorded
        if record is not None and ledger.leftover_bits.tobytes() == record[t + 1].leftover_bits.tobytes():
            break
    return ledgers


def delivered_packets(ledger: phy.DeliveryLedger) -> int:
    return ledger.leftover_bits.tolist().count(0.0)  # delivered means leftover 0.0


@dataclass
class BaselineRun:
    stats: phy.ReceptionStats
    plan: OfflinePlan
    objective_history: list[int]
    evaluations: int  # plans scored by the swap search, the initial plan included
    slots_replayed: int  # phy.apply_slot calls those scorings made


def _moves(current: OfflinePlan, oma: bool, F: int):
    """(slot, trial plan) per candidate move of `current`, in search order:
    per slot, pairwise frequency swaps (vacancies included), then
    single-source retunes respecting OMA exclusivity."""
    m, T = current.freq.shape
    for t in range(T):
        for i in range(m):
            for j in range(i + 1, m):
                if current.freq[i, t] == current.freq[j, t]:
                    continue
                trial = current.copy()
                trial.freq[i, t], trial.freq[j, t] = current.freq[j, t], current.freq[i, t]
                yield t, trial
        for i in range(m):
            for f in range(F):
                if current.freq[i, t] == f:
                    continue
                if oma and any(current.freq[j, t] == f for j in range(m) if j != i):
                    continue
                trial = current.copy()
                trial.freq[i, t] = f
                yield t, trial


def swap_matching(
    plan: OfflinePlan,
    evaluate,
    oma: bool,
    F: int,
    max_iters: int = 1000,
) -> BaselineRun:
    """First-improvement local search over frequency swaps and single moves.

    evaluate(plan, record, start) -> ledgers replays a plan as `evaluate_plan`
    does: in full when record is None, else from slot `start` against the
    current plan's ledgers, which every trial differs from at that slot only.
    A trial that rejoins them (fewer than T + 1 ledgers back) delivers what
    the current plan does. A move is kept only if the delivered count
    strictly increases; the objective history holds the count after each
    accepted move (leading entry: the initial count), and the stats are read
    off the final plan's recorded ledgers.
    """
    T = plan.freq.shape[1]
    current = plan.copy()
    record = evaluate(current, None, 0)
    history = [delivered_packets(record[-1])]
    evaluations, slots = 1, len(record) - 1
    while len(history) - 1 < max_iters:
        for t, trial in _moves(current, oma, F):
            ledgers = evaluate(trial, record, t)
            evaluations += 1
            slots += len(ledgers) - 1 - t
            if len(ledgers) > T and delivered_packets(ledgers[-1]) > history[-1]:
                current, record = trial, ledgers
                history.append(delivered_packets(ledgers[-1]))
                break
        else:
            break
    return BaselineRun(phy.reception_stats(record[-1]), current, history, evaluations, slots)


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

    def evaluate(p: OfflinePlan, record: list[phy.DeliveryLedger] | None, start: int):
        return evaluate_plan(p, scenario, link, record, start)

    return swap_matching(plan, evaluate, oma, F, max_iters)
