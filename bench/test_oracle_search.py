"""Layer harness for the oracle's exhaustive search, on pytest-benchmark.

One case: `oracle.brute_force_optimal` over the whole action table on
a fixed tiny instance, episode 0 of the evaluation stream at seed 2 with
m=2 sources, n=4 destinations, F=2 resource blocks and T=3 slots (a 3-slot
safety window). Its candidate lists leave about 7.5e5 joint sequences; the
state merge and the peak-rate cut bring the search down to 173 slot solves.
Each timed call gets a fresh link of the instance's channel, so no memo
carries over.

Run from the repository root (tier-1 does not collect this directory):

    python -m pytest bench/test_oracle_search.py --benchmark-json=BENCH_oracle.json
"""

import dataclasses

import pytest

from iovslice import oracle, phy
from iovslice.config import RunConfig
from iovslice.env import EnvConfig
from iovslice.worlds import TAG_EVAL, WorldStream

CFG = RunConfig()
ENV = EnvConfig(m=2, n=4, F=2, T=3)
WORKLOAD = dataclasses.replace(CFG.workload, deadline_len_slots=3)
SEED = 2

# the search allocates millions of small tuples; a collection inside a timed
# round would charge its sweep to whichever call happened to trigger it
pytestmark = pytest.mark.benchmark(disable_gc=True)


@pytest.fixture(scope="module")
def instance():
    return WorldStream(CFG.road, ENV, CFG.channel, WORKLOAD, SEED, TAG_EVAL)(0)


def test_brute_force_optimal(benchmark, instance):
    sc, link = instance

    def setup():
        return (sc, phy.EpisodeLink(link.chan, CFG.channel, ENV.slot_duration_s)), {}

    res = benchmark.pedantic(oracle.brute_force_optimal, setup=setup, rounds=100, warmup_rounds=3)
    assert res.best_delivered == 2 and len(res.best_actions) == ENV.T
