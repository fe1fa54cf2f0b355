"""Outside-in span recorder for the traced benchmark run.

Spans are recorded around the program's public functions by replacing the
names where callers look them up (a module attribute, or a class attribute
for methods), so nothing under ``src/`` changes. Each span keeps a name, a
start and end in ``perf_counter_ns`` and the index of its parent span. A
span's self time is its duration minus the durations of its direct children;
the program is single-threaded, so children nest strictly inside parents.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from pathlib import Path

import numpy as np

from iovslice import baselines, cli, oracle, phy, worlds
from iovslice.dqn import agent, mlp, replay
from iovslice.env import SlicingEnv

# Span names in report order; every one is reported by every traced run.
SPANS = (
    "worlds.episode",
    "scenario.advance_mobility",
    "scenario.generate_packets",
    "channel.draw_channel",
    "channel.trace_hash",
    "phy.apply_slot",
    "phy.slot_rates",
    "phy.reception_stats",
    "env.reset",
    "env.step",
    "env.observation",
    "dqn.forward_row",
    "dqn.forward_batch",
    "dqn.td_targets",
    "dqn.loss_and_grads",
    "dqn.adam_step",
    "dqn.replay_add",
    "dqn.replay_sample",
    "dqn.replay_update",
    "dqn.target_copy",
    "dqn.checkpoint_io",
    "baselines.run_baseline",
    "baselines.initial_rb_allocation",
    "baselines.swap_matching",
    "baselines.evaluate_plan",
    "oracle.brute_force_optimal",
)

# (owner, attribute, span name). The owner is where the caller looks the name
# up: ``worlds`` binds draw_channel with ``from ... import``, ``cli`` binds
# trace_hash and the checkpoint functions, ``agent.train`` calls td_targets as
# a module global, and ``phy``/``baselines``/``oracle`` functions are reached
# through their module attribute.
TARGETS = (
    (worlds.WorldStream, "__call__", "worlds.episode"),
    (worlds, "advance_mobility", "scenario.advance_mobility"),
    (worlds, "generate_packets", "scenario.generate_packets"),
    (worlds, "draw_channel", "channel.draw_channel"),
    (cli, "trace_hash", "channel.trace_hash"),
    (phy, "apply_slot", "phy.apply_slot"),
    (phy, "slot_rates", "phy.slot_rates"),
    (phy, "reception_stats", "phy.reception_stats"),
    (SlicingEnv, "reset", "env.reset"),
    (SlicingEnv, "step", "env.step"),
    (SlicingEnv, "observation", "env.observation"),
    (agent, "td_targets", "dqn.td_targets"),
    (mlp.DuelingQNetwork, "loss_and_grads", "dqn.loss_and_grads"),
    (mlp.Adam, "step", "dqn.adam_step"),
    (replay.PrioritizedReplay, "add", "dqn.replay_add"),
    (replay.PrioritizedReplay, "sample", "dqn.replay_sample"),
    (replay.PrioritizedReplay, "update_priorities", "dqn.replay_update"),
    (mlp.DuelingQNetwork, "copy_from", "dqn.target_copy"),
    (cli, "save_checkpoint", "dqn.checkpoint_io"),
    (cli, "load_checkpoint", "dqn.checkpoint_io"),
    (baselines, "initial_rb_allocation", "baselines.initial_rb_allocation"),
    (baselines, "swap_matching", "baselines.swap_matching"),
    (baselines, "evaluate_plan", "baselines.evaluate_plan"),
    (oracle, "brute_force_optimal", "oracle.brute_force_optimal"),
)

# Spans that make up one gradient update in ``agent.train``.
LEARNER_SPANS = (
    "dqn.replay_sample",
    "dqn.td_targets",
    "dqn.loss_and_grads",
    "dqn.adam_step",
    "dqn.replay_update",
    "dqn.target_copy",
)


class SpanRecorder:
    """In-memory spans plus the patches that feed them. Span i is
    (name_ids[i], starts[i], ends[i], parents[i]); flat integer arrays keep a
    30-second rollout's half a million spans in about 15 MB."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")  # perf_counter_ns
        self.ends = array("q")
        self.parents = array("q")  # -1 for a root span
        self._stack: list[int] = []
        self.swap_accepted = 0  # accepted swap-matching moves, from objective histories

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.starts)

    def _rows(self):
        return zip(self.name_ids, self.starts, self.ends, self.parents)

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_forward(self, fn):
        row_id, batch_id = self._id("dqn.forward_row"), self._id("dqn.forward_batch")

        def traced(net, obs):
            idx = self._open(row_id if np.ndim(obs) == 1 else batch_id)
            try:
                return fn(net, obs)
            finally:
                self._close(idx)

        return traced

    def _wrap_run_baseline(self, fn):
        name_id = self._id("baselines.run_baseline")

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                run = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.swap_accepted += len(run.objective_history) - 1
            return run

        return traced

    @contextlib.contextmanager
    def installed(self, root: str):
        """Patch every target and record the block as a root span named
        ``root``; restore the originals afterwards."""
        patches = [(owner, attr, self.wrap(name, getattr(owner, attr))) for owner, attr, name in TARGETS]
        patches.append(
            (mlp.DuelingQNetwork, "forward", self._wrap_forward(mlp.DuelingQNetwork.forward))
        )
        patches.append((baselines, "run_baseline", self._wrap_run_baseline(baselines.run_baseline)))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            idx = self._open(self._id(root))
            try:
                yield self
            finally:
                self._close(idx)
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: index, name, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name_id, start, end, parent) in enumerate(self._rows()):
                fh.write(f"{i},{self.names[name_id]},{start},{end},{parent}\n")

    def summary(self) -> dict:
        """Per-name calls, self time and inclusive time, plus the traced wall
        time (the summed duration of the root spans) and the number of
        phy.slot_rates calls made directly by the oracle, i.e. its memo misses."""
        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        incl_ns = [0] * n
        child_ns = [0] * len(self)
        for _, start, end, parent in self._rows():
            if parent >= 0:
                child_ns[parent] += end - start
        wall_ns = 0
        oracle_id = self._ids.get("oracle.brute_force_optimal", -1)
        rates_id = self._ids.get("phy.slot_rates", -1)
        oracle_rates = 0
        for i, (name_id, start, end, parent) in enumerate(self._rows()):
            dur = end - start
            calls[name_id] += 1
            self_ns[name_id] += dur - child_ns[i]
            incl_ns[name_id] += dur
            if parent < 0:
                wall_ns += dur
            if name_id == rates_id and parent >= 0 and self.name_ids[parent] == oracle_id:
                oracle_rates += 1
        out = {"wall_ns": wall_ns, "oracle_slot_rates": oracle_rates, "spans": {}}
        for name_id, name in enumerate(self.names):
            out["spans"][name] = {
                "calls": calls[name_id],
                "self_ns": self_ns[name_id],
                "incl_ns": incl_ns[name_id],
            }
        return out

