"""Acceptance suite: every exit criterion at its stated tolerance.

One full default-configuration training run backs criteria 1-5; it is cached
per session (and on disk under .acceptance-cache keyed by the config) because
it takes minutes, not because any tolerance depends on it. Beside the cached
checkpoint sit the training stamp of the code that trained it and the
OpenBLAS configuration it ran on; a learner whose stamp differs retrains
into a temporary directory and leaves the cache as it is. Each criterion
prints a PASS/FAIL line so a log scan shows the whole gate at a glance.
"""

import dataclasses
import hashlib
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from iovslice import baselines as bl
from iovslice import cli, phy
from iovslice.config import RunConfig, serialize_config
from iovslice.dqn import DuelingQNetwork, TrainConfig, greedy_episode, kernels, load_checkpoint
from iovslice.dqn.replay import PrioritizedReplay
from iovslice.env import EnvConfig, SlicingEnv
from iovslice.worlds import WorkloadConfig

from conftest import forced_fallback

CACHE_DIR = Path(__file__).parent / ".acceptance-cache"
EVAL_EPISODES = 200


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="session")
def default_cfg() -> RunConfig:
    return RunConfig()


def stamp_configs(cfg: RunConfig) -> list[RunConfig]:
    """The stamp's short runs of `cfg`, without and with double-Q: 3 episodes
    and 100 updates each, which copy the target every 30 updates, wrap a
    100-transition replay and run at the epsilon floor from the second
    episode on, all branches the pinned 3-episode digest run never reaches."""
    train = dataclasses.replace(
        cfg.train, episodes=3, warmup=80, replay_capacity=100, target_copy_period=30, eps_anneal_frac=0.3
    )
    return [dataclasses.replace(cfg, train=dataclasses.replace(train, double_q=dq)) for dq in (False, True)]


def training_stamp(cfg: RunConfig) -> str:
    """sha256 over the checkpoints and logs of the stamp runs, in order."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, run in enumerate(stamp_configs(cfg)):
            for path in cli.cmd_train(run, Path(tmp) / str(i), quiet=True):
                digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_paths(cfg: RunConfig) -> tuple[Path, Path, Path]:
    """The cache's checkpoint, training log and stamp of `cfg`, in the
    directory named by its config digest."""
    out_dir = CACHE_DIR / hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
    return out_dir / "checkpoint.bin", out_dir / "training_log.csv", out_dir / "stamp.sha256"


def cached_run(cfg: RunConfig, stamp: str, scratch: Path) -> tuple[Path, Path, Path]:
    """The checkpoint and training log of `cfg`'s full training run, and the
    directory whose `eval-default` and `eval-sizes` hold the DQL eval CSVs
    of that checkpoint.

    Where the cache lacks the checkpoint, the log or the stamp, the run is
    regenerated into it, with today's `stamp` and the OpenBLAS configuration
    in use beside the checkpoint. Where the committed stamp differs from
    `stamp`, this code trains other bytes (a changed learner, or another
    OpenBLAS CPU kernel), so the run goes to `scratch` instead and a warning
    names both configurations: committed files are never overwritten, and
    deleting the cache is the one way to refresh it."""
    ckpt, log, stamp_path = cache_paths(cfg)
    blas_path = stamp_path.with_name("openblas.txt")
    blas = kernels.openblas_config() or "unknown"
    root, fresh = CACHE_DIR, True
    if not (ckpt.exists() and log.exists() and stamp_path.exists()):
        cli.cmd_train(cfg, ckpt.parent, quiet=True)
        stamp_path.write_text(stamp + "\n")
        blas_path.write_text(blas + "\n")
    elif stamp_path.read_text().strip() != stamp:
        committed = blas_path.read_text().strip() if blas_path.exists() else "not recorded"
        warnings.warn(
            f"the training stamp differs from the committed one, so the default run is retrained into {scratch};"
            f" OpenBLAS of the committed run: {committed}; in use: {blas}"
        )
        root = scratch
        ckpt, log = cli.cmd_train(cfg, root / ckpt.parent.name, quiet=True)
    else:
        fresh = False
    for sweep, name in (("none", "eval-default"), ("sizes", "eval-sizes")):
        dql = root / name / "dql.csv"
        if fresh or not dql.exists():
            cli.cmd_eval(cfg, ckpt, dql, episodes=EVAL_EPISODES, sweep=sweep)
    return ckpt, log, root


@pytest.fixture(scope="session")
def trained(default_cfg, tmp_path_factory):
    """Full default training run and the DQL eval CSVs of its checkpoint,
    from the cache where today's training stamp matches it (`cached_run`)."""
    return cached_run(default_cfg, training_stamp(default_cfg), tmp_path_factory.mktemp("acceptance-cache"))


def read_log(path: Path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


@pytest.fixture(scope="session")
def eval_rows(default_cfg, trained):
    """Paired-seed evaluation at the default point: DQL plus all baselines."""
    dql = trained[2] / "eval-default" / "dql.csv"
    base = CACHE_DIR / "eval-default" / "baselines.csv"
    if not base.exists():
        cli.cmd_baseline(
            default_cfg, list(bl.BASELINE_NAMES), base, episodes=EVAL_EPISODES, sweep="none"
        )
    rows = []
    for path in (dql, base):
        lines = path.read_text().splitlines()
        header = lines[1].split(",")
        rows.extend(dict(zip(header, line.split(","))) for line in lines[2:])
    return rows


def test_training_stamp_runs_reach_every_learner_branch(default_cfg, tmp_path, monkeypatch):
    """Each stamp run copies the target, evicts from its full replay and
    reaches the epsilon floor; the first runs without double-Q, the second
    with it."""
    copies, evictions = [], []
    copy_from, add = DuelingQNetwork.copy_from, PrioritizedReplay.add

    def copy_spy(net, other):
        copies.append(other)
        copy_from(net, other)

    def add_spy(buf, *args):
        evictions.append(len(buf) == buf.capacity)
        add(buf, *args)

    monkeypatch.setattr(DuelingQNetwork, "copy_from", copy_spy)
    monkeypatch.setattr(PrioritizedReplay, "add", add_spy)
    runs = stamp_configs(default_cfg)
    assert [run.train.double_q for run in runs] == [False, True]
    for i, run in enumerate(runs):
        copies.clear()
        evictions.clear()
        _, log = cli.cmd_train(run, tmp_path / str(i), quiet=True)
        assert copies and any(evictions)
        assert float(read_log(log)[-1]["epsilon"]) == run.train.eps_end


def test_a_differing_stamp_retrains_beside_the_cache(default_cfg, tmp_path, monkeypatch):
    """An empty cache is filled, with the stamp and the OpenBLAS
    configuration; a matching stamp reuses it; a differing one trains and
    evaluates into the scratch directory, names both configurations and
    leaves every cached file as it was."""
    calls = []

    def write(path, what):
        calls.append(what)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"{what} {len(calls)}")
        return path

    def train(cfg, out, quiet):
        return write(out / "checkpoint.bin", "train"), write(out / "training_log.csv", "log")

    monkeypatch.setattr(cli, "cmd_train", train)
    monkeypatch.setattr(cli, "cmd_eval", lambda cfg, ckpt, out, episodes, sweep: write(out, f"eval {ckpt.read_text()}"))
    monkeypatch.setattr(kernels, "openblas_config", lambda: "OpenBLAS Here")
    monkeypatch.setattr(sys.modules[__name__], "CACHE_DIR", tmp_path / "cache")
    ckpt, log, stamp_path = cache_paths(default_cfg)
    assert cached_run(default_cfg, "one", tmp_path / "scratch") == (ckpt, log, tmp_path / "cache")
    assert stamp_path.read_text() == "one\n" and stamp_path.with_name("openblas.txt").read_text() == "OpenBLAS Here\n"
    cached = {path: path.read_bytes() for path in (tmp_path / "cache").rglob("*") if path.is_file()}
    assert len(cached) == 6 and len(calls) == 4
    assert cached_run(default_cfg, "one", tmp_path / "scratch") == (ckpt, log, tmp_path / "cache")
    assert len(calls) == 4
    monkeypatch.setattr(kernels, "openblas_config", lambda: "OpenBLAS Elsewhere")
    with pytest.warns(UserWarning, match="committed run: OpenBLAS Here; in use: OpenBLAS Elsewhere"):
        ckpt2, _, root = cached_run(default_cfg, "two", tmp_path / "scratch")
    assert root == tmp_path / "scratch" and ckpt2 == root / ckpt.parent.name / "checkpoint.bin"
    assert (root / "eval-sizes" / "dql.csv").read_text() == "eval train 5 8"  # of the fifth call's checkpoint
    assert {path: path.read_bytes() for path in (tmp_path / "cache").rglob("*") if path.is_file()} == cached


def test_training_stamp_is_the_same_on_the_fallback(default_cfg, trained):
    *_, stamp_path = cache_paths(default_cfg)
    with forced_fallback():
        assert training_stamp(default_cfg) == stamp_path.read_text().strip()


def totals_by_algorithm(rows):
    by_algo: dict[str, list[float]] = {}
    for row in rows:
        by_algo.setdefault(row["algorithm"], []).append(
            float(row["slice1_delivered"]) + float(row["slice2_delivered"])
        )
    return {k: float(np.mean(v)) for k, v in by_algo.items()}


# -- criterion 1: training improves ------------------------------------------


def test_criterion_1_training_improvement(trained):
    _, log_path, _ = trained
    rows = read_log(log_path)
    assert len(rows) == 3000
    ma = {int(r["episode"]): r["moving_avg_200"] for r in rows}
    assert ma[199] == ""  # undefined before 200 episodes
    early = float(ma[200])
    final = float(ma[3000])
    passed = final >= 1.03 * early
    report(
        "1 (training improvement)",
        passed,
        f"moving average {early:.3f} at episode 200 -> {final:.3f} at 3000 "
        f"({(final / early - 1) * 100:+.1f}%, need >= +3%)",
    )
    assert passed


# -- criteria 2, 3, 5: policy dominance, slice priority, baseline ordering ----


def test_criterion_2_policy_dominance(eval_rows):
    totals = totals_by_algorithm(eval_rows)
    dql = totals["DQL"]
    worst_margin = min(dql / totals[name] for name in bl.BASELINE_NAMES)
    passed = all(dql >= 1.2 * totals[name] for name in bl.BASELINE_NAMES)
    report(
        "2 (policy dominance)",
        passed,
        f"DQL {dql:.2f} vs "
        + ", ".join(f"{n} {totals[n]:.2f}" for n in bl.BASELINE_NAMES)
        + f"; worst ratio {worst_margin:.2f} (need >= 1.20)",
    )
    assert passed


def test_criterion_3_slice2_priority(eval_rows):
    s1 = np.mean([float(r["slice1_delivered"]) for r in eval_rows if r["algorithm"] == "DQL"])
    s2 = np.mean([float(r["slice2_delivered"]) for r in eval_rows if r["algorithm"] == "DQL"])
    passed = s2 > s1
    report(
        "3 (slice 2 priority)",
        passed,
        f"DQL delivered means: slice 2 {s2:.2f} vs slice 1 {s1:.2f} (need strict >)",
    )
    assert passed


def test_criterion_5_baseline_ordering(eval_rows):
    totals = totals_by_algorithm(eval_rows)
    ordering = totals["NOMA-MP"] >= totals["NOMA-RP"]
    in_band = all(4.5 <= totals[name] <= 7.0 for name in bl.BASELINE_NAMES)
    passed = ordering and in_band
    report(
        "5 (baseline ordering)",
        passed,
        f"NOMA-MP {totals['NOMA-MP']:.2f} >= NOMA-RP {totals['NOMA-RP']:.2f}: {ordering}; "
        f"totals in [4.5, 7.0]: {in_band} "
        f"({', '.join(f'{n} {totals[n]:.2f}' for n in bl.BASELINE_NAMES)})",
    )
    assert passed


def test_cached_eval_rows_reproduce(default_cfg, trained, tmp_path):
    # the leading seed-0 rows of the committed eval CSVs, regenerated byte for byte
    ckpt, _, evals = trained
    dql = cli.cmd_eval(default_cfg, ckpt, tmp_path / "dql.csv", episodes=3, sweep="none")
    assert dql.read_bytes() == b"".join((evals / "eval-default" / "dql.csv").read_bytes().splitlines(keepends=True)[:5])
    committed = (CACHE_DIR / "eval-default" / "baselines.csv").read_bytes().splitlines(keepends=True)
    for name in bl.BASELINE_NAMES:
        out = cli.cmd_baseline(default_cfg, [name], tmp_path / f"{name}.csv", episodes=20, sweep="none")
        rows = [line for line in committed if line.split(b",")[0] == name.encode()][:20]  # episodes 0-19
        assert out.read_bytes() == b"".join(committed[:2] + rows)


# -- criterion 4: size trend ---------------------------------------------------


def test_criterion_4_size_trend(trained):
    lines = (trained[2] / "eval-sizes" / "dql.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    by_size: dict[int, list[float]] = {}
    for row in rows:
        by_size.setdefault(int(row["slice2_bytes"]), []).append(float(row["slice2_delivered"]))
    sizes = sorted(by_size)
    means = [float(np.mean(by_size[s])) for s in sizes]
    violations = [
        (sizes[i], means[i + 1] - means[i])
        for i in range(len(means) - 1)
        if means[i + 1] > means[i]
    ]
    passed = len(violations) <= 1 and all(v[1] <= 0.3 for v in violations)
    report(
        "4 (size trend)",
        passed,
        f"slice 2 delivered means over sizes {sizes}: "
        + str([round(v, 2) for v in means])
        + f"; adjacent increases {[(s, round(d, 2)) for s, d in violations]} "
        "(allow <= 1 of <= 0.3)",
    )
    assert passed


# -- criterion 6: oracle bounds -------------------------------------------------


def test_criterion_6_oracle_bounds(default_cfg):
    instances = 0
    policy_violations = 0
    swap_violations = 0
    rng = np.random.default_rng(2024)
    while instances < 100:
        m = 1 + instances % 2
        T = 2 + (instances // 2) % 3  # cycle 2, 3, 4
        env_cfg = EnvConfig(m=m, n=2, F=1, T=T)
        scenario, link, optimum, runs = cli.oracle_instance(
            default_cfg, env_cfg, WorkloadConfig(deadline_len_slots=2), 5000 + instances
        )
        # every baseline policy is bounded by the optimum
        for run in runs.values():
            if sum(run.stats.packets) > optimum:
                policy_violations += 1
            if any(a >= b for a, b in zip(run.objective_history, run.objective_history[1:])):
                swap_violations += 1
        # a greedy rollout of a random network is bounded too
        net = DuelingQNetwork(env_cfg.obs_dim, (16, 16), env_cfg.n_actions, rng)
        if sum(greedy_episode(net, SlicingEnv(env_cfg), scenario, link).packets) > optimum:
            policy_violations += 1
        instances += 1
    passed = policy_violations == 0 and swap_violations == 0
    report(
        "6 (oracle bounds)",
        passed,
        f"{instances} tiny instances: policy-above-optimum {policy_violations}, "
        f"non-increasing swap objectives {swap_violations} (need 0 and 0)",
    )
    assert passed


# -- criterion 7: numeric cores --------------------------------------------------


def test_criterion_7_numeric_cores():
    # MLP gradients vs central finite differences, through the dueling combine
    rng = np.random.default_rng(77)
    net = DuelingQNetwork(4, (2,), 3, rng)
    obs = rng.normal(size=(6, 4))
    actions = rng.integers(0, 3, size=6)
    targets = rng.normal(scale=3.0, size=6)
    weights = rng.uniform(0.2, 1.0, size=6)
    _, grads, _ = net.loss_and_grads(obs, actions, targets, weights, 1.0)

    def loss_value():
        q = net.forward(obs)
        delta = q[np.arange(6), actions] - targets
        per = np.where(np.abs(delta) <= 1.0, 0.5 * delta**2, np.abs(delta) - 0.5)
        return float(np.mean(weights * per))

    eps = 1e-6
    worst_rel = 0.0
    for p_idx, p in enumerate(net.params):
        flat = p.ravel()
        g = grads[p_idx].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = loss_value()
            flat[k] = orig - eps
            down = loss_value()
            flat[k] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(g[k]), 1e-8)
            worst_rel = max(worst_rel, abs(g[k] - fd) / denom)
    grad_ok = worst_rel < 1e-5

    # SIC sum-rate identity on 1e4 random power sets
    rng = np.random.default_rng(78)
    sic_worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 6))
        powers = rng.uniform(1e-12, 1e-6, size=k)
        noise = rng.uniform(1e-12, 1e-9)
        sinrs = phy.sic_sinr(list(enumerate(powers)), noise)
        lhs = sum(math.log2(1 + s) for s in sinrs.values())
        rhs = math.log2(1 + powers.sum() / noise)
        sic_worst = max(sic_worst, abs(lhs - rhs) / rhs)
    sic_ok = sic_worst < 1e-9

    # prioritized sampling: uniformity and concentration
    tc = TrainConfig()
    buf = PrioritizedReplay(64, 2, tc.alpha, tc.priority_eps)
    for i in range(64):
        buf.add(np.zeros(2), 0, 0.0, np.zeros(2), 1.0)
    rng = np.random.default_rng(79)
    draws = []
    while len(draws) < 100_000:
        draws.extend(buf.sample(50, beta=1.0, rng=rng).indices)
    _, p_uniform = scipy_stats.chisquare(np.bincount(np.array(draws[:100_000]), minlength=64))
    buf2 = PrioritizedReplay(16, 2, tc.alpha, tc.priority_eps)
    for i in range(16):
        buf2.add(np.zeros(2), 0, 0.0, np.zeros(2), 1.0)
    buf2.update_priorities(np.array([3]), np.array([1e6]))
    draws2 = []
    while len(draws2) < 20_000:
        draws2.extend(buf2.sample(16, beta=1.0, rng=rng).indices)
    concentration = float(np.mean(np.array(draws2) == 3))
    sampling_ok = p_uniform > 0.01 and concentration > 0.99

    passed = grad_ok and sic_ok and sampling_ok
    report(
        "7 (numeric cores)",
        passed,
        f"gradient max rel err {worst_rel:.2e} (<1e-5); sic identity max rel err "
        f"{sic_worst:.2e} (<1e-9); chi-square p {p_uniform:.3f} (>0.01), "
        f"concentration {concentration:.4f} (>0.99)",
    )
    assert passed


# -- criterion 8: determinism ----------------------------------------------------


def test_criterion_8_determinism(tmp_path, trained):
    # the determinism contract is exercised end to end through the CLI at a
    # reduced episode count; the full-size artifacts back criteria 1-5
    cfg = RunConfig(
        env=EnvConfig(m=3, n=4, F=2, T=20),
        train=TrainConfig(episodes=40, warmup=200, batch_size=16, seed=11),
        eval_episodes=6,
    )
    ckpt_a, log_a = cli.cmd_train(cfg, tmp_path / "a", quiet=True)
    ckpt_b, log_b = cli.cmd_train(cfg, tmp_path / "b", quiet=True)
    train_same = ckpt_a.read_bytes() == ckpt_b.read_bytes()
    log_same = log_a.read_bytes() == log_b.read_bytes()
    eval_a = cli.cmd_eval(cfg, ckpt_a, tmp_path / "ea.csv", episodes=6, sweep="none")
    eval_b = cli.cmd_eval(cfg, ckpt_b, tmp_path / "eb.csv", episodes=6, sweep="none")
    eval_same = eval_a.read_bytes() == eval_b.read_bytes()
    base_a = cli.cmd_baseline(cfg, ["NOMA-MP"], tmp_path / "ba.csv", episodes=4, sweep="none")
    base_b = cli.cmd_baseline(cfg, ["NOMA-MP"], tmp_path / "bb.csv", episodes=4, sweep="none")
    base_same = base_a.read_bytes() == base_b.read_bytes()

    # checkpoint round-trip on the full trained network: bit-identical outputs
    full_ckpt, _, _ = trained
    net = load_checkpoint(full_ckpt)
    reload_path = tmp_path / "reload.bin"
    from iovslice.dqn import save_checkpoint

    save_checkpoint(net, reload_path)
    again = load_checkpoint(reload_path)
    x = np.random.default_rng(0).uniform(size=(32, net.obs_dim))
    roundtrip_same = bool(np.array_equal(net.forward(x), again.forward(x)))

    passed = train_same and log_same and eval_same and base_same and roundtrip_same
    report(
        "8 (determinism)",
        passed,
        f"checkpoint {train_same}, training log {log_same}, eval csv {eval_same}, "
        f"baseline csv {base_same}, round-trip forward {roundtrip_same}",
    )
    assert passed
