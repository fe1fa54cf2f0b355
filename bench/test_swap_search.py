"""Layer harness for the swap-matching baselines, on pytest-benchmark.

One case per algorithm: `baselines.run_baseline` on episode 0 of the default
configuration's evaluation stream, with the algorithm's own draws, as
`iovslice baseline` runs it. Each call builds its own episode link, so every
round pays the initial allocation, the whole swap search and every memo miss
of that episode. Each case's `extra_info` holds two exact counts of the
search it timed: `evaluations`, the plans scored, and `slots_replayed`, the
`phy.apply_slot` calls those scorings made. Two more cases time
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


@pytest.mark.parametrize("name", bl.BASELINE_NAMES)
def test_run_baseline(benchmark, world, name):
    sc, chan = world

    def setup():
        rng = algorithm_rng(CFG.seed, CFG.workload, 0, bl.BASELINE_NAMES.index(name))
        return (name, sc, chan, CFG.channel, CFG.env.slot_duration_s, rng, CFG.swap_max_iters), {}

    run = benchmark.pedantic(bl.run_baseline, setup=setup, rounds=ROUNDS, warmup_rounds=2)
    assert run.evaluations > 1 and CFG.env.T <= run.slots_replayed
    benchmark.extra_info["evaluations"] = run.evaluations
    benchmark.extra_info["slots_replayed"] = run.slots_replayed


@pytest.mark.parametrize("oma", [True, False], ids=["OMA", "NOMA"])
def test_initial_rb_allocation(benchmark, world, oma):
    _, chan = world
    m, _, F, T = chan.gain_lin.shape
    coverage, _ = bl.random_coverage_slice(m, T, algorithm_rng(CFG.seed, CFG.workload, 0, 0))

    def setup():
        return (phy.EpisodeLink(chan, CFG.channel, CFG.env.slot_duration_s), coverage, oma), {}

    freqs = benchmark.pedantic(bl.initial_rb_allocation, setup=setup, rounds=ROUNDS, warmup_rounds=2)
    assert len(freqs) == T and all(len(row) == m and bl.INACTIVE <= min(row) <= max(row) < F for row in freqs)
