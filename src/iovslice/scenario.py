"""Highway world: lane geometry, Poisson vehicle placement, mobility, packet workloads.

The world is a straight multi-lane highway. Vehicle speed is fixed per lane,
positions are frozen within an episode and advanced between episodes, and the
road wraps around so the vehicle population stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

KMH_TO_MPS = 1000.0 / 3600.0

FORWARD = "forward"
BACKWARD = "backward"
SOURCE = "source"
DESTINATION = "destination"

# Slice 1 carries large best-effort payloads over the whole horizon,
# slice 2 carries small deadline-bound safety payloads.
SLICE_THROUGHPUT = 1
SLICE_SAFETY = 2

# Mean headway between vehicles in the same lane, in seconds of travel.
HEADWAY_S = 2.5


@dataclass(frozen=True)
class RoadConfig:
    length_m: float = 2000.0
    lane_width_m: float = 4.0
    lanes_per_direction: int = 3

    def __post_init__(self) -> None:
        if self.length_m <= 0 or self.lane_width_m <= 0:
            raise ValueError("road dimensions must be positive")
        if self.lanes_per_direction < 1:
            raise ValueError("need at least one lane per direction")

    @property
    def total_lanes(self) -> int:
        return 2 * self.lanes_per_direction

    def lane_center_y(self, lane: int) -> float:
        """y coordinate of a global lane index (1..total_lanes)."""
        return (lane - 0.5) * self.lane_width_m

    def lane_direction(self, lane: int) -> str:
        if not 1 <= lane <= self.total_lanes:
            raise ValueError(f"lane {lane} outside 1..{self.total_lanes}")
        return FORWARD if lane <= self.lanes_per_direction else BACKWARD


def lane_speed(lane: int, direction: str, lanes_per_direction: int = 3) -> float:
    """Speed in m/s of the per-direction lane index (1-based).

    Forward lanes run 60, 80, 100 km/h from lane 1 up; backward lanes run
    100, 80, 60 km/h so the fastest lanes of both directions sit at the median.
    """
    if not 1 <= lane <= lanes_per_direction:
        raise ValueError(f"lane {lane} outside 1..{lanes_per_direction}")
    if direction == FORWARD:
        kmh = 60.0 + 2.0 * (lane - 1) * 10.0
    elif direction == BACKWARD:
        kmh = 100.0 - 2.0 * (lane - 1) * 10.0
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return kmh * KMH_TO_MPS


@dataclass(frozen=True)
class Vehicle:
    id: int
    role: str  # SOURCE or DESTINATION
    lane: int  # global lane index, 1..total_lanes
    direction: str
    x_m: float
    speed_mps: float


@dataclass(frozen=True)
class Packet:
    owner: int  # source-vehicle index (0-based position in Scenario.sources)
    slice_id: int
    size_bits: float
    arrival_slot: int
    deadline_slot: int
    leftover_bits: float

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("packet size must be positive")
        if not 0 <= self.arrival_slot <= self.deadline_slot:
            raise ValueError("packet window must satisfy 0 <= arrival <= deadline")
        if not 0 <= self.leftover_bits <= self.size_bits:
            raise ValueError("leftover bits outside [0, size]")


@dataclass(frozen=True)
class Scenario:
    road: RoadConfig
    sources: tuple[Vehicle, ...]
    destinations: tuple[Vehicle, ...]
    packets: tuple[Packet, ...] = ()  # 2 per source: (slice 1, slice 2), source-major
    episode_index: int = 0

    @property
    def m(self) -> int:
        return len(self.sources)

    @property
    def n(self) -> int:
        return len(self.destinations)

    def packet(self, src: int, slice_id: int) -> Packet:
        return self.packets[2 * src + (slice_id - 1)]

    def positions(self, vehicles: tuple[Vehicle, ...]) -> np.ndarray:
        """(len, 2) array of (x, y) coordinates."""
        return np.array(
            [(v.x_m, self.road.lane_center_y(v.lane)) for v in vehicles], dtype=np.float64
        )

    def source_positions(self) -> np.ndarray:
        return self.positions(self.sources)

    def destination_positions(self) -> np.ndarray:
        return self.positions(self.destinations)


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

    Each lane gets an independent stream with mean spacing HEADWAY_S times the
    lane speed; m sources and n destinations are drawn uniformly from the pool
    and the rest are discarded. Regenerates in the unlikely case the pool is
    too small.
    """
    if m < 1 or n < 1:
        raise ValueError("need at least one source and one destination")
    while True:
        placed: list[tuple[int, str, float, float]] = []  # (lane, direction, x, speed)
        for lane in range(1, road.total_lanes + 1):
            direction = road.lane_direction(lane)
            per_dir = lane if direction == FORWARD else lane - road.lanes_per_direction
            speed = lane_speed(per_dir, direction, road.lanes_per_direction)
            for x in poisson_positions(road.length_m, HEADWAY_S * speed, rng):
                placed.append((lane, direction, x, speed))
        if len(placed) >= m + n:
            break
    order = rng.permutation(len(placed))
    sources = tuple(Vehicle(i, SOURCE, *placed[order[i]]) for i in range(m))
    destinations = tuple(Vehicle(m + j, DESTINATION, *placed[order[m + j]]) for j in range(n))
    return Scenario(road=road, sources=sources, destinations=destinations)


def advance_mobility(scenario: Scenario, elapsed_s: float) -> Scenario:
    """Shift every vehicle by its signed speed, wrapping at the road ends."""
    if elapsed_s < 0:
        raise ValueError("elapsed time must be nonnegative")
    length = scenario.road.length_m

    def moved(v: Vehicle) -> Vehicle:
        sign = 1.0 if v.direction == FORWARD else -1.0
        return replace(v, x_m=(v.x_m + sign * v.speed_mps * elapsed_s) % length)

    return replace(
        scenario,
        sources=tuple(moved(v) for v in scenario.sources),
        destinations=tuple(moved(v) for v in scenario.destinations),
    )


def generate_packets(
    scenario: Scenario,
    rng: np.random.Generator,
    slice1_bits_range: tuple[float, float] = (1e5, 1e6),
    slice2_bits: float = 4800.0,
    deadline_len_slots: int = 8,
    T: int = 20,
) -> tuple[Packet, ...]:
    """Fresh per-source packet pair: one full-horizon payload, one deadline payload.

    The slice 2 arrival slot is uniform over every start that leaves the full
    window inside the horizon.
    """
    if deadline_len_slots < 1:
        raise ValueError("deadline window must span at least one slot")
    if deadline_len_slots > T:
        raise ValueError(f"deadline window {deadline_len_slots} exceeds horizon {T}")
    lo, hi = slice1_bits_range
    packets: list[Packet] = []
    for src in range(scenario.m):
        size1 = float(rng.uniform(lo, hi))
        packets.append(
            Packet(src, SLICE_THROUGHPUT, size1, 0, T - 1, size1)
        )
        arrival = int(rng.integers(0, T - deadline_len_slots + 1))
        packets.append(
            Packet(
                src,
                SLICE_SAFETY,
                float(slice2_bits),
                arrival,
                arrival + deadline_len_slots - 1,
                float(slice2_bits),
            )
        )
    return tuple(packets)


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write one vehicle per row for reproducibility debugging."""
    lines = ["id\trole\tlane\tdirection\tx_m\tspeed_mps"]
    for v in (*scenario.sources, *scenario.destinations):
        lines.append(f"{v.id}\t{v.role}\t{v.lane}\t{v.direction}\t{v.x_m!r}\t{v.speed_mps!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_scenario(path: str | Path, road: RoadConfig) -> Scenario:
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0].split("\t") != ["id", "role", "lane", "direction", "x_m", "speed_mps"]:
        raise ValueError(f"{path}: not a scenario table")
    sources: list[Vehicle] = []
    destinations: list[Vehicle] = []
    for line in text[1:]:
        vid, role, lane, direction, x_m, speed = line.split("\t")
        v = Vehicle(int(vid), role, int(lane), direction, float(x_m), float(speed))
        if role == SOURCE:
            sources.append(v)
        elif role == DESTINATION:
            destinations.append(v)
        else:
            raise ValueError(f"{path}: unknown role {role!r}")
    return Scenario(road=road, sources=tuple(sources), destinations=tuple(destinations))
