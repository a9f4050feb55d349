"""In-process serial execution: the deterministic reference backend."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import BatchState, ExecutionBackend

if TYPE_CHECKING:
    from ..runner import SweepRunner

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Run every task in the parent process, one attempt loop at a time.

    This is the reference every other backend is measured against for
    bit-identity, and the path ``jobs<=1`` (or a single-task batch)
    always takes regardless of the configured backend.
    """

    name = "serial"

    def run_batch(self, runner: "SweepRunner", batch: BatchState) -> None:
        for i in batch.work:
            if runner.fail_fast and batch.failures:
                return
            runner._run_inline(batch, i, 1)
