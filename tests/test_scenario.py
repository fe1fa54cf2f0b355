from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iovslice.config import parse_config
from iovslice.env import EnvConfig
from iovslice.scenario import (
    SLICE_SAFETY,
    SLICE_THROUGHPUT,
    RoadConfig,
    advance_mobility,
    generate_packets,
    generate_vehicles,
    poisson_positions,
)
from iovslice.worlds import WorkloadConfig

SIZES = ((1e5, 1e6), 4800.0)  # slice-1 size range and slice-2 size, in bits


def test_lane_velocity_paper_values():
    road = RoadConfig()
    assert road.lane_velocity(1) == pytest.approx(60 / 3.6, abs=1e-9)
    assert road.lane_velocity(3) == pytest.approx(100 / 3.6, abs=1e-9)
    assert road.lane_velocity(4) == pytest.approx(-100 / 3.6, abs=1e-9)


def test_lane_velocity_full_sets():
    # forward lanes 1..3 move toward +x, backward lanes 4..6 toward -x
    kmh = [RoadConfig().lane_velocity(lane) * 3.6 for lane in range(1, 7)]
    assert kmh == pytest.approx([60.0, 80.0, 100.0, -100.0, -80.0, -60.0])


def test_lane_velocity_rejects_bad_lane():
    road = RoadConfig()
    with pytest.raises(ValueError):
        road.lane_velocity(0)
    with pytest.raises(ValueError):
        road.lane_velocity(7)


@pytest.mark.parametrize("lanes", [6, 7])
def test_road_rejects_a_lane_that_does_not_move(lanes):
    # 6 lanes per direction leave the slowest backward lane at 0 km/h, whose
    # zero mean spacing would stall the Poisson drop; 7 would run it at +20 km/h
    with pytest.raises(ValueError, match=r"road\.lanes_per_direction"):
        parse_config(f"road.lanes_per_direction = {lanes}\n")


def test_road_accepts_five_lanes_per_direction():
    road = parse_config("road.lanes_per_direction = 5\n").road
    assert road.lane_velocity(road.total_lanes) * 3.6 == pytest.approx(-20.0)


def test_generate_vehicles_counts(rng):
    sc = generate_vehicles(RoadConfig(), 3, 4, rng)
    assert sc.m == 3 and sc.n == 4
    for v in (*sc.sources, *sc.destinations):
        assert 0 <= v.x_m < sc.road.length_m
        assert 1 <= v.lane <= 6
        # the vehicle velocity matches its lane
        assert v.velocity_mps == sc.road.lane_velocity(v.lane)


def test_generate_vehicles_rejects_zero_counts(rng):
    with pytest.raises(ValueError):
        generate_vehicles(RoadConfig(), 0, 4, rng)


def test_poisson_mean_spacing(rng):
    # gaps of the placement process are exponential with the configured mean
    speed = 60 / 3.6
    mean = 2.5 * speed  # 41.67 m
    assert mean == pytest.approx(41.6667, abs=1e-3)
    gaps = []
    while len(gaps) < 10_000:
        xs = poisson_positions(2000.0, mean, rng)
        gaps.extend(np.diff([0.0, *xs]))
    assert np.mean(gaps) == pytest.approx(mean, rel=0.05)


def test_advance_mobility_identity(rng):
    sc = generate_vehicles(RoadConfig(), 2, 2, rng)
    same = advance_mobility(sc, 0.0)
    assert [v.x_m for v in same.sources] == [v.x_m for v in sc.sources]


def test_advance_mobility_wraps():
    from conftest import hand_built_scenario

    sc = hand_built_scenario([1990.0], [0.0])
    moved = advance_mobility(sc, 1.0)
    assert moved.sources[0].x_m == pytest.approx(1990 + 60 / 3.6 - 2000, abs=1e-9)


def test_advance_mobility_backward_decreases(rng):
    sc = generate_vehicles(RoadConfig(), 5, 5, rng)
    moved = advance_mobility(sc, 0.5)
    for before, after in zip(sc.sources, moved.sources):
        delta = (after.x_m - before.x_m) % sc.road.length_m
        if before.lane > sc.road.lanes_per_direction:  # a backward lane
            assert delta > sc.road.length_m / 2  # moved toward decreasing x
        else:
            assert 0 < delta < sc.road.length_m / 2


def test_mobility_stays_on_road(rng):
    sc = generate_vehicles(RoadConfig(), 3, 3, rng)
    for elapsed in rng.uniform(0, 1e4, size=50):
        moved = advance_mobility(sc, float(elapsed))
        for v in (*moved.sources, *moved.destinations):
            assert 0 <= v.x_m < sc.road.length_m


def test_generate_packets_defaults(rng):
    sc = generate_vehicles(RoadConfig(), 3, 4, rng)
    # the default workload and horizon, passed the way `worlds` passes them
    w = WorkloadConfig()
    bits = (w.slice1_bits_min, w.slice1_bits_max)
    packets = generate_packets(sc, rng, bits, w.slice2_bits, w.deadline_len_slots, EnvConfig().T)
    assert len(packets) == 6
    sc = replace(sc, packets=packets)
    for src in range(3):
        p1, p2 = packets[2 * src], packets[2 * src + 1]
        assert (sc.packet(src, SLICE_THROUGHPUT), sc.packet(src, SLICE_SAFETY)) == (p1, p2)
        assert p2.size_bits == 4800.0  # 600 bytes
        assert p1.arrival_slot == 0 and p1.deadline_slot == 19
        assert p2.deadline_slot - p2.arrival_slot + 1 == 8


def test_generate_packets_windows_and_sizes(rng):
    sc = generate_vehicles(RoadConfig(), 3, 4, rng)
    sizes = []
    for _ in range(350):  # 1050 slice-1 draws
        world = replace(sc, packets=generate_packets(sc, rng, *SIZES, deadline_len_slots=5, T=20))
        for src in range(sc.m):
            p1, p2 = world.packet(src, SLICE_THROUGHPUT), world.packet(src, SLICE_SAFETY)
            sizes.append(p1.size_bits)
            assert (p1.arrival_slot, p1.deadline_slot) == (0, 19)
            assert 0 <= p2.arrival_slot <= p2.deadline_slot <= 19
            assert p2.deadline_slot - p2.arrival_slot + 1 == 5
    sizes = np.array(sizes)
    assert sizes.min() >= 1e5 and sizes.max() <= 1e6


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_generated_windows_lie_in_the_horizon(data):
    """The premise of the one window test `Packet.open_at` applies to both
    slices: slice 1 spans exactly [0, T-1], and slice 2 spans the configured
    length inside [0, T-1], so no window needs a cap at the horizon."""
    T = data.draw(st.integers(1, 40))
    length = data.draw(st.integers(1, T))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sc = generate_vehicles(RoadConfig(), data.draw(st.integers(1, 4)), 1, rng)
    packets = generate_packets(sc, rng, *SIZES, deadline_len_slots=length, T=T)
    assert len(packets) == 2 * sc.m
    sc = replace(sc, packets=packets)
    for src in range(sc.m):
        p1, p2 = sc.packet(src, SLICE_THROUGHPUT), sc.packet(src, SLICE_SAFETY)
        assert (p1.arrival_slot, p1.deadline_slot) == (0, T - 1)
        assert 0 <= p2.arrival_slot <= p2.deadline_slot <= T - 1
        assert p2.deadline_slot - p2.arrival_slot + 1 == length


def test_generate_packets_degenerate_window(rng):
    sc = generate_vehicles(RoadConfig(), 2, 2, rng)
    for _ in range(20):
        world = replace(sc, packets=generate_packets(sc, rng, *SIZES, deadline_len_slots=20, T=20))
        for src in range(sc.m):
            p2 = world.packet(src, SLICE_SAFETY)
            assert p2.arrival_slot == 0 and p2.deadline_slot == 19


def test_generate_packets_rejects_long_deadline(rng):
    sc = generate_vehicles(RoadConfig(), 1, 1, rng)
    with pytest.raises(ValueError, match=r"^workload.deadline_len_slots must be <= env.T, got 21 > 20$"):
        generate_packets(sc, rng, *SIZES, deadline_len_slots=21, T=20)
    with pytest.raises(ValueError, match=r"^workload.deadline_len_slots must be >= 1, got 0$"):
        generate_packets(sc, rng, *SIZES, deadline_len_slots=0, T=20)
