"""Link layer: power-domain multiple access with SIC, broadcast groups, delivery accounting.

Transmitters sharing a resource block are separated by successive interference
cancellation at each receiver: the strongest signal is decoded against all
weaker ones, subtracted, and so on. A broadcast succeeds at the rate of its
worst group member, so one leftover counter per packet is enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .scenario import Packet

# Power level meaning "radio off"; mapped to exactly zero transmit power so
# that not transmitting is bit-exact, never a -100 dBm whisper.
SILENCE_POWER_DBM = -100.0

PKT_NONE = 0
PKT_SLICE1 = 1
PKT_SLICE2 = 2


class ContractViolation(RuntimeError):
    """A caller broke the environment's call protocol, such as stepping a
    finished episode."""


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


def coverage_group(dist_row: np.ndarray, coverage_m: float) -> tuple[int, ...]:
    """Destination indices within the broadcast radius; empty for radius 0."""
    if coverage_m <= 0:
        return ()
    return tuple(int(j) for j in np.flatnonzero(dist_row <= coverage_m))


@dataclass(frozen=True)
class SlotAction:
    """One source vehicle's choice for one slot, already decoded."""

    packet_id: int  # PKT_NONE / PKT_SLICE1 / PKT_SLICE2
    coverage_m: float
    freq: int
    power_dbm: float


@dataclass
class SourceOutcome:
    transmitted: bool
    packet_id: int  # effective packet after masking, PKT_NONE if silent
    group: tuple[int, ...]
    rate_bps: float
    delivered_now: bool


@dataclass
class DeliveryLedger:
    """Per-packet leftover bits, delivery flags, and reached destinations.

    Packet k belongs to source k // 2; slice is 1 + (k % 2). reached[k] is
    the union of broadcast-group members over the packet's transmission
    slots, which is the packet's set of intended receivers.
    """

    packets: tuple[Packet, ...]
    leftover_bits: np.ndarray = field(init=False)
    delivered: np.ndarray = field(init=False)
    reached: list[set[int]] = field(init=False)

    def __post_init__(self) -> None:
        self.leftover_bits = np.array([p.leftover_bits for p in self.packets], dtype=np.float64)
        self.delivered = np.array([p.leftover_bits == 0 for p in self.packets], dtype=bool)
        self.reached = [set() for _ in self.packets]

    def index(self, src: int, slice_id: int) -> int:
        return 2 * src + (slice_id - 1)

    def copy(self) -> "DeliveryLedger":
        dup = DeliveryLedger(self.packets)
        dup.leftover_bits = self.leftover_bits.copy()
        dup.delivered = self.delivered.copy()
        dup.reached = [set(s) for s in self.reached]
        return dup


def mask_packet_choice(ledger: DeliveryLedger, src: int, packet_id: int, slot: int) -> int:
    """Demote useless packet choices to PKT_NONE.

    Already-delivered packets and safety packets outside their arrival/deadline
    window cannot be scheduled; `apply_slot` masks every choice through this,
    so all policies share identical semantics.
    """
    if packet_id == PKT_NONE:
        return PKT_NONE
    k = ledger.index(src, packet_id)
    if ledger.delivered[k]:
        return PKT_NONE
    pkt = ledger.packets[k]
    if packet_id == PKT_SLICE2 and not (pkt.arrival_slot <= slot <= pkt.deadline_slot):
        return PKT_NONE
    return packet_id


def slot_rates(
    effective: list[tuple[int, tuple[int, ...], int, float]],  # (pkt, group, freq, p_mw)
    gain_slot: np.ndarray,  # (m, n, F) linear gains for this slot
    noise_mw: float,
    rb_bandwidth_hz: float,
) -> list[float]:
    """Broadcast rate per source: min over its group of the member's SIC rate.

    Sources with PKT_NONE are off the air; an on-air source with an empty
    group still radiates interference but earns rate zero.
    """
    m = len(effective)
    on_air = [s for s in range(m) if effective[s][0] != PKT_NONE]
    rates = [0.0] * m
    sinr_cache: dict[tuple[int, int], dict[int, float]] = {}
    for src in on_air:
        _, group, freq, _ = effective[src]
        if not group:
            continue
        worst = math.inf
        for d in group:
            key = (d, freq)
            if key not in sinr_cache:
                txs = [
                    (s, effective[s][3] * float(gain_slot[s, d, freq]))
                    for s in on_air
                    if effective[s][2] == freq
                ]
                sinr_cache[key] = sic_sinr(txs, noise_mw)
            worst = min(worst, sinr_cache[key][src])
        rates[src] = rate_bps(worst, rb_bandwidth_hz)
    return rates


def apply_slot(
    ledger: DeliveryLedger,
    actions: list[SlotAction],
    gain_slot: np.ndarray,  # (m, n, F) linear gains for this slot
    dist: np.ndarray,  # (m, n)
    noise_mw: float,
    rb_bandwidth_hz: float,
    slot: int,
    slot_duration_s: float,
) -> list[SourceOutcome]:
    """Resolve one slot of raw per-source choices: mask, SIC rates per
    broadcast group, then ledger updates.

    A choice of an already-delivered packet, or of a safety packet outside
    its window, is masked to no transmission (`mask_packet_choice`).
    """
    m = len(actions)
    outcomes: list[SourceOutcome] = []
    effective: list[tuple[int, tuple[int, ...], int, float]] = []  # (pkt, group, freq, p_mw)
    for src, act in enumerate(actions):
        pkt = mask_packet_choice(ledger, src, act.packet_id, slot)
        p_mw = power_lin_mw(act.power_dbm)
        if pkt == PKT_NONE or p_mw == 0.0 or act.coverage_m <= 0:
            effective.append((PKT_NONE, (), act.freq, 0.0))
        else:
            effective.append((pkt, coverage_group(dist[src], act.coverage_m), act.freq, p_mw))

    rates = slot_rates(effective, gain_slot, noise_mw, rb_bandwidth_hz)

    for src in range(m):
        pkt, group, freq, p_mw = effective[src]
        if pkt == PKT_NONE:
            outcomes.append(SourceOutcome(False, PKT_NONE, (), 0.0, False))
            continue
        k = ledger.index(src, pkt)
        if group:
            ledger.reached[k].update(group)
        delivered_now = False
        if rates[src] > 0.0:
            sent = min(ledger.leftover_bits[k], rates[src] * slot_duration_s)
            ledger.leftover_bits[k] -= sent
            if ledger.leftover_bits[k] <= 0.0:
                ledger.leftover_bits[k] = 0.0
                ledger.delivered[k] = True
                delivered_now = True
        outcomes.append(SourceOutcome(True, pkt, group, rates[src], delivered_now))
    return outcomes


@dataclass(frozen=True)
class ReceptionStats:
    """Episode totals. packets counts delivered payloads per slice (at most one
    per source and slice); receptions weights each delivered payload by its
    intended receivers, which is what a broadcast metric sees."""

    packets: tuple[int, int]
    receptions: tuple[int, int]
    intended: tuple[int, int]
    prr: float | None


def reception_stats(ledger: DeliveryLedger) -> ReceptionStats:
    packets = [0, 0]
    receptions = [0, 0]
    intended = [0, 0]
    for k, pkt in enumerate(ledger.packets):
        s = pkt.slice_id - 1
        audience = len(ledger.reached[k])
        if audience == 0:
            continue
        intended[s] += audience
        if ledger.delivered[k]:
            packets[s] += 1
            receptions[s] += audience
    total_intended = intended[0] + intended[1]
    prr = None if total_intended == 0 else (receptions[0] + receptions[1]) / total_intended
    return ReceptionStats(
        packets=(packets[0], packets[1]),
        receptions=(receptions[0], receptions[1]),
        intended=(intended[0], intended[1]),
        prr=prr,
    )
