"""The five workloads, by name."""

from .control_churn import ControlChurn
from .degraded_pull import DegradedPull
from .fanout_push import FanoutPush
from .match_sparse import MatchSparse
from .mesh_fanout import MeshFanout

BY_NAME = {
    cls.name: cls
    for cls in (FanoutPush, MatchSparse, ControlChurn, DegradedPull, MeshFanout)
}
