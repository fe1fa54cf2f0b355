"""Layer harness for the swap-matching baselines, on pytest-benchmark.

One case per algorithm: `baselines.run_baseline` on episode 0 of the default
configuration's evaluation stream, with the algorithm's own draws. Each
round gets a fresh link of the episode's channel, so it pays the initial
allocation, the whole swap search and every memo miss of that episode. Each
case's `extra_info` holds two exact counts of the search it timed:
`evaluations`, the plans scored, and `slots_replayed`, the `phy.apply_slot`
calls those scorings made. One case plays all three algorithms in turn on
one fresh link per round, as `iovslice baseline` plays a world; its
`extra_info` holds the `phy.slot_rates` solves of one such round,
`slot_rates_solves`, and those of the three algorithms on a link each,
`slot_rates_solves_apart`. Two more cases time
`baselines.initial_rb_allocation` alone on the same world and OMA-MP's
coverage draws, under OMA and under NOMA, on a fresh episode link per round.

Run from the repository root (tier-1 does not collect this directory):

    python -m pytest bench/test_swap_search.py --benchmark-json=BENCH_swap_search.json
"""

import pytest

from iovslice import baselines as bl
from iovslice import phy
from iovslice.config import RunConfig
from iovslice.worlds import TAG_EVAL, WorldStream, algorithm_rng

CFG = RunConfig()
ROUNDS = 100

pytestmark = pytest.mark.benchmark(disable_gc=True)


@pytest.fixture(scope="module")
def world():
    return WorldStream(CFG.road, CFG.env, CFG.channel, CFG.workload, CFG.seed, TAG_EVAL)(0)


def _link(world):
    """A fresh link table of the world's channel, with empty memos."""
    return phy.EpisodeLink(world[1].chan, CFG.channel, CFG.env.slot_duration_s)


def _rng(name):
    return algorithm_rng(CFG.seed, CFG.workload, 0, bl.BASELINE_NAMES.index(name))


@pytest.mark.parametrize("name", bl.BASELINE_NAMES)
def test_run_baseline(benchmark, world, name):
    def setup():
        return (name, world[0], _link(world), _rng(name), CFG.swap_max_iters), {}

    run = benchmark.pedantic(bl.run_baseline, setup=setup, rounds=ROUNDS, warmup_rounds=2)
    assert run.evaluations > 1 and CFG.env.T <= run.slots_replayed
    benchmark.extra_info["evaluations"] = run.evaluations
    benchmark.extra_info["slots_replayed"] = run.slots_replayed


def _play(sc, links):
    """The three algorithms in turn on the world, each on its link."""
    pairs = zip(bl.BASELINE_NAMES, links)
    return [bl.run_baseline(name, sc, link, _rng(name), CFG.swap_max_iters) for name, link in pairs]


def test_three_baselines_on_one_link(benchmark, world, monkeypatch):
    def setup():
        return (world[0], [_link(world)] * len(bl.BASELINE_NAMES)), {}

    runs = benchmark.pedantic(_play, setup=setup, rounds=ROUNDS, warmup_rounds=2)
    solves = [0]
    slot_rates = phy.slot_rates

    def counted(*args):
        solves[0] += 1
        return slot_rates(*args)

    monkeypatch.setattr(phy, "slot_rates", counted)
    assert _play(*setup()[0]) == runs
    shared, solves[0] = solves[0], 0
    assert _play(world[0], [_link(world) for _ in bl.BASELINE_NAMES]) == runs  # the shared memo is exact
    assert 0 < shared < solves[0]
    benchmark.extra_info["slot_rates_solves"] = shared
    benchmark.extra_info["slot_rates_solves_apart"] = solves[0]


@pytest.mark.parametrize("oma", [True, False], ids=["OMA", "NOMA"])
def test_initial_rb_allocation(benchmark, world, oma):
    link = world[1]
    m, _, F, T = link.gain_lin.shape
    coverage, _ = bl.random_coverage_slice(m, T, algorithm_rng(CFG.seed, CFG.workload, 0, 0))

    def setup():
        return (_link(world), coverage, oma), {}

    freqs = benchmark.pedantic(bl.initial_rb_allocation, setup=setup, rounds=ROUNDS, warmup_rounds=2)
    assert len(freqs) == T and all(len(row) == m and bl.INACTIVE <= min(row) <= max(row) < F for row in freqs)
