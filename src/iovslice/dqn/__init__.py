from .mlp import (
    Adam,
    CheckpointFormatError,
    DuelingQNetwork,
    UnsupportedVersionError,
    load_checkpoint,
    save_checkpoint,
)
from .replay import PrioritizedReplay, SumTree
from .agent import (
    TrainConfig,
    TrainingDiverged,
    TrainLogRow,
    epsilon,
    greedy_episode,
    replay_beta,
    td_targets,
    train,
)

__all__ = [
    "Adam",
    "CheckpointFormatError",
    "DuelingQNetwork",
    "PrioritizedReplay",
    "SumTree",
    "TrainConfig",
    "TrainLogRow",
    "TrainingDiverged",
    "UnsupportedVersionError",
    "epsilon",
    "greedy_episode",
    "load_checkpoint",
    "replay_beta",
    "save_checkpoint",
    "td_targets",
    "train",
]
