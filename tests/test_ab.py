import ctypes
import math
import re
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from bench import ab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def unload(*names):
    for name in [key for key in sys.modules if key.split(".")[0] in names]:
        del sys.modules[name]


@pytest.fixture(scope="module")
def two_copies():
    """This tree's package imported twice, under two names."""
    names = ("iovslice_test_ab_a", "iovslice_test_ab_b")
    yield [ab.load_package(SRC, name) for name in names]
    unload(*names)


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_head_src_extracts_and_loads(tmp_path):
    src = ab.extract_src("HEAD", tmp_path)
    assert src == tmp_path / "src" and (src / "iovslice" / "cli.py").is_file()
    try:
        head = ab.load_package(src, "iovslice_test_ab_head")
        assert head.cli.__file__ == str(src / "iovslice" / "cli.py")
        assert ab.default_checkpoint(head).is_file()
    finally:
        unload("iovslice_test_ab_head")


def test_copies_are_distinct_modules(two_copies):
    a, b = two_copies
    assert a.phy is not b.phy and a.phy.__name__ == "iovslice_test_ab_a.phy"
    assert a.baselines.BASELINE_NAMES == b.baselines.BASELINE_NAMES


def test_two_copies_of_one_tree_give_a_finite_ratio(two_copies, tmp_path):
    # a tiny case: one swap-matching algorithm on one small world per round
    def prepare(pkg):
        def at(r):
            env_cfg = pkg.env.EnvConfig(m=2, n=2, F=2, T=4)
            workload = pkg.worlds.WorkloadConfig(deadline_len_slots=2)
            channel_cfg = pkg.channel.ChannelConfig()
            scenario, link = pkg.worlds.WorldStream(
                pkg.scenario.RoadConfig(), env_cfg, channel_cfg, workload, r, pkg.worlds.TAG_EVAL
            )(0)
            rng = pkg.worlds.algorithm_rng(r, workload, 0, 1)
            return lambda: pkg.baselines.run_baseline("NOMA-MP", scenario, link, rng, 1000).stats

        return at

    a, b = two_copies
    times_a, times_b = ab.interleave(prepare(a), prepare(b), 6)
    assert len(times_a) == len(times_b) == 6
    ratio, lo, hi = ab.median_ratio(times_a, times_b)
    assert all(math.isfinite(x) and x > 0 for x in (ratio, lo, hi))
    assert lo <= ratio <= hi


def test_differing_outputs_are_refused():
    calls = []

    def side(value):
        def at(r):
            return lambda: calls.append(r) or (r, value)

        return at

    with pytest.raises(ab.OutputsDiffer, match="round 0"):
        ab.interleave(side("a"), side("b"), 4)
    assert calls == [0, 0]  # both sides ran round 0, and no round after it
    assert [len(times) for times in ab.interleave(side("a"), side("a"), 4)] == [4, 4]


@pytest.mark.parametrize(
    "a, b",
    [
        (np.array([0.123456789012]), np.array([0.123456789099])),  # equal to 8 significant digits
        (np.zeros(2000), np.concatenate([np.zeros(1000), [1e-300], np.zeros(999)])),  # a repr elides the middle
    ],
    ids=["tenth-digit", "long-array"],
)
def test_outputs_differing_in_any_bit_are_refused(a, b):
    with pytest.raises(ab.OutputsDiffer):
        ab.interleave(lambda r: lambda: a, lambda r: lambda: b, 1)


@pytest.mark.parametrize("name", sorted(ab.CASES))
def test_every_case_gives_equal_outputs_on_two_copies(two_copies, tmp_path, name):
    """Each case's round 0 on two copies of this tree, timing unread, so a
    changed signature in the layers a case calls cannot break it unnoticed."""
    case = ab.CASES[name]
    a, b = two_copies
    times_a, times_b = ab.interleave(lambda r: case(a, r, tmp_path), lambda r: case(b, r, tmp_path), 1)
    assert len(times_a) == len(times_b) == 1


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_header_names_the_openblas_kernel_in_use(two_copies):
    """The CPU kernel OpenBLAS dispatched to decides the training bytes, and
    it can differ between runs of one numpy build on different machines."""
    try:
        from numpy._core import _multiarray_umath

        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        pytest.skip("numpy is not built on the ILP64 scipy-openblas")
    corename.restype = ctypes.c_char_p
    header = ab.machine_line("HEAD", two_copies[1])
    assert re.search(rf"\(OpenBLAS [^)]* {re.escape(corename().decode())} MAX_THREADS=\d+\)", header), header


def test_header_names_each_sides_learner_path(two_copies, tmp_path, monkeypatch):
    old = ModuleType("old")
    old.dqn = ModuleType("old.dqn")  # a tree from before the kernels
    assert ab.learner_kernels(old) == "no kernels"
    a, _ = two_copies
    ab.CASES["adam_early"](a, 0, tmp_path)()
    built = a.dqn.kernels.library() is not None
    assert ab.learner_kernels(a).startswith("kernels built by " if built else "fallback ")
    monkeypatch.setattr(a.dqn.kernels, "_handle", a.dqn.kernels._UNSET)
    assert ab.learner_kernels(a) == "kernels unused"
    monkeypatch.undo()
    assert ab.network_passes(old) == "network on numpy"
    ab.CASES["forward_batch"](a, 0, tmp_path)()
    if a.dqn.kernels.blas() is not None:
        assert ab.network_passes(a) == "network on numpy's BLAS, called from the kernels"
    else:
        assert ab.network_passes(a) in ("network on numpy (numpy's BLAS not found)", "network's BLAS not looked up")
    monkeypatch.setattr(a.dqn.kernels, "_blas", a.dqn.kernels._UNSET)
    assert ab.network_passes(a) == "network's BLAS not looked up"
    monkeypatch.setattr(a.dqn.kernels, "_blas", False)
    assert ab.network_passes(a) == "network on numpy (numpy's BLAS not found)"


def test_docstring_lists_every_case_and_no_other():
    """The module docstring is where the cases are described: each bullet
    names its cases in backticks before its colon."""
    listed = [
        name
        for line in ab.__doc__.splitlines()
        if line.startswith("- ")
        for name in re.findall(r"`(\w+)`", line.split(":", 1)[0])
    ]
    assert sorted(listed) == sorted(ab.CASES)
