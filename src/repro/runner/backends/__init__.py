"""Pluggable sweep-execution backends.

``serial`` runs in-process (the bit-identity reference).  ``warm`` and
``distributed`` are one lease coordinator (:mod:`.fleet`) over two
transports: ``warm`` keeps persistent agent processes on pipes alive
across batches (the local parallel path), ``distributed`` leases to
agents over tcp, forked here or joining from other hosts
(``docs/DISTRIBUTED.md``).  All three fold results through the same
:class:`~repro.runner.runner.SweepRunner` machinery (cache, checkpoint
journal, retries), so backend choice can never change results — only
wall-clock.
"""

from __future__ import annotations

from typing import Optional

from .base import BatchState, ExecutionBackend
from .distributed import DistributedBackend, DistributedOptions
from .serial import SerialBackend
from .warm import WarmBackend, reset_warm_state

__all__ = [
    "BACKEND_NAMES",
    "BatchState",
    "DistributedBackend",
    "DistributedOptions",
    "ExecutionBackend",
    "SerialBackend",
    "WarmBackend",
    "make_backend",
    "reset_warm_state",
]

#: Valid ``--backend`` choices (immutable on purpose: a registry dict
#: here would itself be module-level mutable state under RPR012).
BACKEND_NAMES = ("serial", "warm", "distributed")


def make_backend(name: str,
                 distributed_options: Optional[DistributedOptions] = None,
                 ) -> ExecutionBackend:
    """Instantiate the named backend (``distributed_options`` applies to
    distributed)."""
    if name == "serial":
        return SerialBackend()
    if name == "warm":
        return WarmBackend()
    if name == "distributed":
        return DistributedBackend(distributed_options)
    raise ValueError(
        f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
