"""Discrete-event simulation kernel (substrate).

The paper's evaluation was built on the commercial Simscript II.5 tool;
this package is the from-scratch replacement: a deterministic DES
kernel whose only agenda entry is a cancellable timer callback, with
generator bodies driven by those timers and named random streams.
"""

from .engine import Process, Simulator, TimerHandle
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "TimerHandle",
    "Process",
    "RandomStreams",
]
