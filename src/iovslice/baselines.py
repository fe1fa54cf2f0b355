"""Offline benchmark schedulers: gain-greedy RB assignment plus swap matching.

All three variants draw coverage and slice uniformly at random per slot, then
assign frequencies greedily by channel gain and locally improve the assignment
with swap moves, replaying the whole episode through the same link layer the
learned policy is scored by. OMA keeps one transmitter per resource block;
the MP variants always use maximum power while RP draws a random level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phy
from .channel import ChannelConfig, ChannelState, noise_lin_mw
from .env import COVERAGE_LEVELS_M, POWER_LEVELS_DBM
from .scenario import Scenario

BASELINE_NAMES = ("OMA-MP", "NOMA-MP", "NOMA-RP")

MAX_POWER_DBM = max(POWER_LEVELS_DBM)
ACTIVE_POWERS_DBM = tuple(p for p in POWER_LEVELS_DBM if p > phy.SILENCE_POWER_DBM)

INACTIVE = -1  # frequency slot of a source that found no free RB


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
    scenario: Scenario,
    chan: ChannelState,
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
    m, n, F, T = chan.gain_lin.shape
    freq = np.full((m, T), INACTIVE, dtype=np.int64)
    for t in range(T):
        group_gain = np.zeros((m, F))
        for s in range(m):
            members = phy.coverage_group(chan.dist_m[s], float(coverage_m[s, t]))
            if members:
                group_gain[s] = chan.gain_lin[s, members, :, t].sum(axis=0)
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
    chan: ChannelState,
    channel_cfg: ChannelConfig,
    slot_duration_s: float,
) -> phy.DeliveryLedger:
    """Replay the episode through the same link layer as the online policy."""
    noise = noise_lin_mw(channel_cfg)
    ledger = phy.DeliveryLedger(scenario.packets)
    m, _, _, T = chan.gain_lin.shape
    for t in range(T):
        actions = []
        for s in range(m):
            f = int(plan.freq[s, t])
            if f == INACTIVE:
                actions.append(phy.SlotAction(phy.PKT_NONE, 0.0, 0, phy.SILENCE_POWER_DBM))
            else:
                actions.append(
                    phy.SlotAction(
                        int(plan.packet[s, t]), float(plan.coverage_m[s, t]), f, float(plan.power_dbm[s, t])
                    )
                )
        phy.apply_slot(
            ledger,
            actions,
            chan.gain_lin[:, :, :, t],
            chan.dist_m,
            noise,
            channel_cfg.rb_bandwidth_hz,
            t,
            slot_duration_s,
        )
    return ledger


def delivered_packets(ledger: phy.DeliveryLedger) -> int:
    return int(ledger.delivered.sum())


def swap_matching(
    plan: OfflinePlan,
    evaluate,
    oma: bool,
    F: int,
    max_iters: int = 1000,
) -> tuple[OfflinePlan, list[int]]:
    """First-improvement local search over frequency swaps and single moves.

    evaluate: plan -> delivered packet count. A move is kept only if the count
    strictly increases; returns the plan and the objective after each accepted
    move (leading entry is the initial objective).
    """
    m, T = plan.freq.shape
    current = plan.copy()
    history = [int(evaluate(current))]
    accepted = 0
    improved = True
    while improved and accepted < max_iters:
        improved = False
        for t in range(T):
            # pairwise frequency swaps, vacancies included
            for i in range(m):
                for j in range(i + 1, m):
                    if current.freq[i, t] == current.freq[j, t]:
                        continue
                    trial = current.copy()
                    trial.freq[i, t], trial.freq[j, t] = current.freq[j, t], current.freq[i, t]
                    score = int(evaluate(trial))
                    if score > history[-1]:
                        current = trial
                        history.append(score)
                        accepted += 1
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
            # single-source retunes, respecting OMA exclusivity
            for i in range(m):
                for f in range(F):
                    if current.freq[i, t] == f:
                        continue
                    if oma and any(
                        current.freq[j, t] == f for j in range(m) if j != i
                    ):
                        continue
                    trial = current.copy()
                    trial.freq[i, t] = f
                    score = int(evaluate(trial))
                    if score > history[-1]:
                        current = trial
                        history.append(score)
                        accepted += 1
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return current, history


@dataclass
class BaselineRun:
    stats: phy.ReceptionStats
    plan: OfflinePlan
    objective_history: list[int]


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
    plan = initial_rb_allocation(scenario, chan, coverage, packet, powers, oma)

    def evaluate(p: OfflinePlan) -> int:
        return delivered_packets(evaluate_plan(p, scenario, chan, channel_cfg, slot_duration_s))

    plan, history = swap_matching(plan, evaluate, oma, F, max_iters)
    ledger = evaluate_plan(plan, scenario, chan, channel_cfg, slot_duration_s)
    return BaselineRun(stats=phy.reception_stats(ledger), plan=plan, objective_history=history)
