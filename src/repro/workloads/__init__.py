"""Traffic generation: arrival processes, packet trains, traffic specs."""

from .arrivals import (
    ArrivalBatch,
    ArrivalProcess,
    ArrivalSpec,
    BatchPoissonArrivals,
    BatchPoissonSpec,
    DeterministicArrivals,
    DeterministicSpec,
    OnOffArrivals,
    OnOffSpec,
    PoissonArrivals,
    PoissonSpec,
)
from .packet_train import PacketTrainArrivals, PacketTrainSpec
from .replay import ReplayArrivals, ReplaySpec
from .sessions import SessionChurnSpec
from .traffic import FixedSize, TrafficSpec

__all__ = [
    "ArrivalBatch",
    "ArrivalProcess",
    "ArrivalSpec",
    "BatchPoissonArrivals",
    "BatchPoissonSpec",
    "DeterministicArrivals",
    "DeterministicSpec",
    "FixedSize",
    "OnOffArrivals",
    "OnOffSpec",
    "PacketTrainArrivals",
    "PacketTrainSpec",
    "PoissonArrivals",
    "PoissonSpec",
    "ReplayArrivals",
    "ReplaySpec",
    "SessionChurnSpec",
    "TrafficSpec",
]
