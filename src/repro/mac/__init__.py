"""802.11 MAC substrate: frames, DCF, PCF, NAV, stations."""

from .backoff import (
    LEVEL_HANDOFF,
    LEVEL_NEW_OR_DATA,
    LEVEL_REACTIVATION,
    NUM_LEVELS,
    BackoffPolicy,
    StandardBEB,
)
from .dcf import ChannelAccessManager, DcfStats, DcfTransmitter
from .frames import BROADCAST, Frame, FrameType
from .nav import Nav
from .pcf import CfpScheduler, CfpStats, CfPollable, PcfCoordinator, PollAction
from .station import DataStation, RealTimeStation, RTState

__all__ = [
    "BackoffPolicy",
    "StandardBEB",
    "LEVEL_HANDOFF",
    "LEVEL_REACTIVATION",
    "LEVEL_NEW_OR_DATA",
    "NUM_LEVELS",
    "ChannelAccessManager",
    "DcfTransmitter",
    "DcfStats",
    "Frame",
    "FrameType",
    "BROADCAST",
    "Nav",
    "PcfCoordinator",
    "PollAction",
    "CfpScheduler",
    "CfpStats",
    "CfPollable",
    "RealTimeStation",
    "DataStation",
    "RTState",
]
