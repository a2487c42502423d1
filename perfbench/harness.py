"""What the workloads share: the per-round recorder and the check verdict."""

from __future__ import annotations

import dataclasses
import hashlib
import time


@dataclasses.dataclass
class Check:
    """One verdict on the outputs of the named operations.

    ``rounds`` limits the verdict to some rounds (None: every round).  A
    failed check marks those operations failed; it makes the run incorrect
    unless ``known_fault`` names the program fault that makes it fail.
    """

    name: str
    ok: bool
    detail: str
    ops: tuple[str, ...]
    rounds: tuple[int, ...] | None = None
    known_fault: str = ""


class Recorder:
    """Times the program calls of one round and keeps digests of its outputs.

    ``blobs`` maps ``"<op>"`` or ``"<op>:<part>"`` to the sha256 of an
    output, so the digests of two rounds can be compared operation by
    operation.
    """

    def __init__(self, tracer: object | None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.updates: dict[str, int] = {}
        self.blobs: dict[str, bytes] = {}
        self.errors: dict[str, str] = {}

    def call(self, label: str, fn, *args, updates: int = 0, **kwargs):
        """Time one call into the program; ``updates`` marks a call that
        moves particles and says how many position updates it makes."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[label] = time.perf_counter() - t0
        if updates:
            self.updates[label] = updates
        return result


def digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.digest()
