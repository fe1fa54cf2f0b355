"""Layer harness for the swap-matching baselines, on pytest-benchmark.

One case per algorithm: `baselines.run_baseline` on episode 0 of the default
configuration's evaluation stream, with the algorithm's own draws, as
`iovslice baseline` runs it. Each call builds its own episode link, so every
round pays the initial allocation, the whole swap search and every memo miss
of that episode. Each case's `extra_info` holds two exact counts of the
search it timed: `evaluations`, the plans scored, and `slots_replayed`, the
`phy.apply_slot` calls those scorings made.

Run from the repository root (tier-1 does not collect this directory):

    python -m pytest bench/test_swap_search.py --benchmark-json=BENCH_swap_search.json
"""

import pytest

from iovslice import baselines as bl
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
