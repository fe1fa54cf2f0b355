"""Layer harness for the slot path, on pytest-benchmark.

Four cases on episode 0 of the default configuration's evaluation stream:
`phy.apply_slot` through a fresh link of the episode's channel (cold: every
group and rate is solved), through a link that has resolved the same slot
before (warm: one memo lookup returns the slot's per-source effects, and
what is left is the mask and one drain-and-mark loop over the sources), one
swap-matching trial, `baselines.evaluate_plan` replaying the action columns
of the first move `baselines._moves` yields for NOMA-MP's initial plan from
the plan's `Record` through the episode's shared link, and one `SlicingEnv.action_mask` call mid-episode (the second vehicle
of slot SLOT, after random actions). A timed round of either `apply_slot`
case makes CALLS calls from the same start-of-episode ledger, which
`apply_slot` leaves as it is, so the reported times are per CALLS calls.

Run from the repository root (tier-1 does not collect this directory):

    python -m pytest bench/test_slot_path.py --benchmark-json=BENCH_slot_path.json
"""

import numpy as np
import pytest

from iovslice import baselines as bl
from iovslice import phy
from iovslice.config import RunConfig
from iovslice.env import SlicingEnv
from iovslice.worlds import TAG_EVAL, WorldStream, algorithm_rng

CFG = RunConfig()
SLOT = 3  # a slot inside the default slice-2 window
CALLS, ROUNDS = 50, 200  # apply_slot calls per timed round, rounds per case

# the setups allocate links; a collection inside a timed round
# would charge their cleanup to the slot path
pytestmark = pytest.mark.benchmark(disable_gc=True)


@pytest.fixture(scope="module")
def world():
    return WorldStream(CFG.road, CFG.env, CFG.channel, CFG.workload, CFG.seed, TAG_EVAL)(0)


def _link(world):
    """A fresh link table of the world's channel, with empty memos."""
    return phy.EpisodeLink(world[1].chan, CFG.channel, CFG.env.slot_duration_s)


def _slot_actions():
    """Every source on air at 30 dBm with a slice-1 packet over 400 m, the
    sources spread over the resource blocks."""
    return [phy.SlotAction(phy.PKT_SLICE1, 400.0, s % CFG.env.F, 30.0) for s in range(CFG.env.m)]


def _resolve(ledger, actions, links):
    """One round: the slot resolved from the ledger once per link."""
    return [phy.apply_slot(ledger, actions, link, SLOT) for link in links]


def test_apply_slot_cold_link(benchmark, world):
    ledger = phy.DeliveryLedger.start(world[0].packets)
    actions = _slot_actions()

    def setup():
        return (ledger, actions, [_link(world) for _ in range(CALLS)]), {}

    out = benchmark.pedantic(_resolve, setup=setup, rounds=ROUNDS, warmup_rounds=5)
    assert all(k >= 0 for _, effects in out for k, *_ in effects)  # every source on the air


def test_apply_slot_warm_link(benchmark, world):
    ledger = phy.DeliveryLedger.start(world[0].packets)
    actions = _slot_actions()
    link = _link(world)
    phy.apply_slot(ledger, actions, link, SLOT)

    def setup():
        return (ledger, actions, [link] * CALLS), {}

    out = benchmark.pedantic(_resolve, setup=setup, rounds=ROUNDS, warmup_rounds=5)
    assert all(k >= 0 for _, effects in out for k, *_ in effects)  # every source on the air


def test_evaluate_plan_trial(benchmark, world):
    sc = world[0]
    link = _link(world)
    m, _, F, T = link.gain_lin.shape
    rng = algorithm_rng(CFG.seed, CFG.workload, 0, bl.BASELINE_NAMES.index("NOMA-MP"))
    coverage, packet = bl.random_coverage_slice(m, T, rng)
    options = bl.slot_options(coverage, packet, bl.draw_powers("NOMA-MP", m, T, rng), F)
    freqs = bl.initial_rb_allocation(link, coverage, oma=False)
    columns = bl.plan_columns(options, freqs)
    record = bl.plan_record(columns, sc, link)
    t, column, _ = next(bl._moves(options, columns, freqs, record.ledgers, False))
    trial = columns.copy()
    trial[t] = column
    ledgers = benchmark(bl.evaluate_plan, trial, sc, link, record, t)
    assert t < len(ledgers) - 1 <= T


def test_action_mask_mid_episode(benchmark, world):
    env = SlicingEnv(CFG.env)
    env.reset(*world)
    rng = np.random.default_rng(0)
    for _ in range(SLOT * CFG.env.m + 1):
        env.step(int(rng.integers(CFG.env.n_actions)))
    mask = benchmark(env.action_mask)
    assert mask.shape == (CFG.env.n_actions,) and mask.any()
