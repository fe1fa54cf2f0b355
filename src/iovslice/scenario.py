"""Highway world: lane geometry, Poisson vehicle placement, mobility, packet workloads.

The world is a straight multi-lane highway. Each lane has one signed velocity
(RoadConfig.lane_velocity): forward lanes move toward +x, backward lanes
toward -x. A vehicle is its lane, position and velocity; positions are frozen
within an episode and advanced between episodes, and the road wraps around so
the vehicle population stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

KMH_TO_MPS = 1000.0 / 3600.0

# Slice 1 carries large best-effort payloads over the whole horizon,
# slice 2 carries small deadline-bound safety payloads.
SLICE_THROUGHPUT = 1
SLICE_SAFETY = 2


def packet_index(src: int, slice_id: int) -> int:
    """Where source `src`'s packet on a slice sits in `Scenario.packets` and
    every ledger: the one packet layout, source-major, each source's
    throughput packet before its safety packet, `packet_count(m)` in all, so
    a packet's slice is its position (`packet_slice`)."""
    return 2 * src + (slice_id - 1)


def packet_count(m: int) -> int:
    """How many packets `packet_index` lays out for m sources."""
    return 2 * m


def packet_slice(k: int) -> int:
    """The slice of packet k, which `packet_index` fixes by its position."""
    return k % 2 + 1


# Mean headway between vehicles in the same lane, in seconds of travel.
HEADWAY_S = 2.5

# Vehicle drops generate_vehicles makes before it gives up on a road too short
# to hold m + n vehicles.
MAX_VEHICLE_DRAWS = 1000
# Longest road a RoadConfig accepts: generate_vehicles places every Poisson
# vehicle on every lane, so its time and memory grow with the length.
MAX_ROAD_LENGTH_M = 1e6


@dataclass(frozen=True)
class RoadConfig:
    length_m: float = 2000.0
    lane_width_m: float = 4.0
    lanes_per_direction: int = 3

    def __post_init__(self) -> None:
        for name in ("length_m", "lane_width_m"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"road.{name} must be > 0, got {value}")
        if self.length_m > MAX_ROAD_LENGTH_M:
            raise ValueError(f"road.length_m must be <= {MAX_ROAD_LENGTH_M}, got {self.length_m}")
        if self.lanes_per_direction < 1:
            raise ValueError(f"road.lanes_per_direction must be >= 1, got {self.lanes_per_direction}")
        slowest = self.lane_velocity(self.total_lanes)  # the outermost backward lane
        if slowest >= 0:
            # a lane that stands still has zero mean spacing, so its Poisson drop never ends
            raise ValueError(
                f"road.lanes_per_direction must leave every lane moving, got {self.lanes_per_direction}:"
                f" backward lane {self.total_lanes} runs at {-slowest / KMH_TO_MPS:g} km/h"
            )

    @property
    def total_lanes(self) -> int:
        return 2 * self.lanes_per_direction

    def lane_center_y(self, lane: int) -> float:
        """y coordinate of a global lane index (1..total_lanes)."""
        return (lane - 0.5) * self.lane_width_m

    def lane_velocity(self, lane: int) -> float:
        """Signed velocity in m/s of a global lane index (1..total_lanes).

        Forward lanes run 60, 80, 100 km/h toward +x from lane 1 up; backward
        lanes run 100, 80, 60 km/h toward -x, so the fastest lanes of both
        directions sit at the median.
        """
        if not 1 <= lane <= self.total_lanes:
            raise ValueError(f"lane {lane} outside 1..{self.total_lanes}")
        if lane <= self.lanes_per_direction:
            return (60.0 + 2.0 * (lane - 1) * 10.0) * KMH_TO_MPS
        return -((100.0 - 2.0 * (lane - self.lanes_per_direction - 1) * 10.0) * KMH_TO_MPS)


@dataclass(frozen=True)
class Vehicle:
    lane: int  # global lane index, 1..total_lanes
    x_m: float
    velocity_mps: float  # signed: the lane's velocity


@dataclass(frozen=True)
class Packet:
    """A source's payload on a slice, both fixed by its position (`packet_index`), whose leftover
    bits the ledger tracks; on either slice it goes on the air only within [arrival, deadline]."""

    size_bits: float
    arrival_slot: int
    deadline_slot: int

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("packet size must be positive")
        if not 0 <= self.arrival_slot <= self.deadline_slot:
            raise ValueError("packet window must satisfy 0 <= arrival <= deadline")

    def open_at(self, slot: int) -> bool:
        """Whether the packet's window holds this slot."""
        return self.arrival_slot <= slot <= self.deadline_slot


@dataclass(frozen=True)
class Scenario:
    road: RoadConfig
    sources: tuple[Vehicle, ...]
    destinations: tuple[Vehicle, ...]
    packets: tuple[Packet, ...] = ()  # `packet_count(m)`, laid out by `packet_index`

    @property
    def m(self) -> int:
        return len(self.sources)

    @property
    def n(self) -> int:
        return len(self.destinations)

    def packet(self, src: int, slice_id: int) -> Packet:
        return self.packets[packet_index(src, slice_id)]

    def positions(self, vehicles: tuple[Vehicle, ...]) -> np.ndarray:
        """(len, 2) array of (x, y) coordinates."""
        return np.array(
            [(v.x_m, self.road.lane_center_y(v.lane)) for v in vehicles], dtype=np.float64
        )


def poisson_positions(length_m: float, mean_spacing_m: float, rng: np.random.Generator) -> list[float]:
    """1-D Poisson process on [0, length): cumulative exponential gaps."""
    xs: list[float] = []
    x = rng.exponential(mean_spacing_m)
    while x < length_m:
        xs.append(x)
        x += rng.exponential(mean_spacing_m)
    return xs


def generate_vehicles(road: RoadConfig, m: int, n: int, rng: np.random.Generator) -> Scenario:
    """Drop a Poisson stream of vehicles on every lane, then sample roles.

    Each lane, in lane order, gets an independent stream with mean spacing
    HEADWAY_S times the lane speed. One permutation of the pool then picks the
    m sources and, after them, the n destinations; the rest are discarded.
    Regenerates in the unlikely case the pool is too small, at most
    MAX_VEHICLE_DRAWS times in all.
    """
    if m < 1 or n < 1:
        raise ValueError("need at least one source and one destination")
    for _ in range(MAX_VEHICLE_DRAWS):
        placed: list[tuple[int, float, float]] = []  # Vehicle fields: (lane, x, velocity)
        for lane in range(1, road.total_lanes + 1):
            velocity = road.lane_velocity(lane)
            for x in poisson_positions(road.length_m, HEADWAY_S * abs(velocity), rng):
                placed.append((lane, x, velocity))
        if len(placed) >= m + n:
            break
    else:
        raise ValueError(
            f"a road of length {road.length_m!r} m held fewer than m + n = {m + n} vehicles"
            f" in {MAX_VEHICLE_DRAWS} draws"
        )
    order = rng.permutation(len(placed))
    picked = [Vehicle(*placed[k]) for k in order[: m + n]]
    return Scenario(road=road, sources=tuple(picked[:m]), destinations=tuple(picked[m:]))


def advance_mobility(scenario: Scenario, elapsed_s: float) -> Scenario:
    """Shift every vehicle by its signed velocity, wrapping at the road ends."""
    if elapsed_s < 0:
        raise ValueError("elapsed time must be nonnegative")
    length = scenario.road.length_m

    def moved(v: Vehicle) -> Vehicle:
        return replace(v, x_m=(v.x_m + v.velocity_mps * elapsed_s) % length)

    return replace(
        scenario,
        sources=tuple(moved(v) for v in scenario.sources),
        destinations=tuple(moved(v) for v in scenario.destinations),
    )


def generate_packets(
    scenario: Scenario,
    rng: np.random.Generator,
    slice1_bits_range: tuple[float, float],
    slice2_bits: float,
    deadline_len_slots: int,
    T: int,
) -> tuple[Packet, ...]:
    """Fresh per-source packet pair: one full-horizon payload, one deadline payload.

    Each packet sits at its `packet_index`. The slice 2 arrival slot is
    uniform over every start that leaves the full window inside the horizon.
    The config sections already refuse both bad windows for every run's
    `WorldStream`: `WorkloadConfig` one under a slot, `RunConfig` and the
    deadline sweep one longer than `env.T`; these checks guard other callers.
    """
    if deadline_len_slots < 1:
        raise ValueError(f"workload.deadline_len_slots must be >= 1, got {deadline_len_slots}")
    if deadline_len_slots > T:
        raise ValueError(f"workload.deadline_len_slots must be <= env.T, got {deadline_len_slots} > {T}")
    lo, hi = slice1_bits_range
    packets: list[Packet | None] = [None] * packet_count(scenario.m)
    for src in range(scenario.m):
        packets[packet_index(src, SLICE_THROUGHPUT)] = Packet(float(rng.uniform(lo, hi)), 0, T - 1)
        arrival = int(rng.integers(0, T - deadline_len_slots + 1))
        packets[packet_index(src, SLICE_SAFETY)] = Packet(float(slice2_bits), arrival, arrival + deadline_len_slots - 1)
    return tuple(packets)
