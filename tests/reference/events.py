"""A minimal deterministic discrete-event loop for the reference oracles.

Processes are generators that ``yield`` either a float delay (sleep) or an
:class:`Event` to wait on.  Virtual time only moves forward, by the float
addition ``now + delay``, and ties run in scheduling order.
"""

from __future__ import annotations

import heapq
from typing import Generator

from repro.errors import SimulationError


class Event:
    """A one-shot condition processes can wait on."""

    def __init__(self, loop: "EventLoop"):
        self._loop = loop
        self.fired = False
        self._waiters: list[Process] = []

    def fire(self) -> None:
        """Wake all waiters at the current virtual time."""
        if self.fired:
            return
        self.fired = True
        for proc in self._waiters:
            self._loop._schedule(self._loop.now, proc)
        self._waiters.clear()


class Process:
    """A generator-backed activity; ``result`` is its return value."""

    def __init__(self, gen: Generator):
        self.gen = gen
        self.finished = False
        self.result = None


class EventLoop:
    """Deterministic event loop with float virtual time."""

    def __init__(self):
        self.now = 0.0
        self._queue: list[tuple[float, int, Process]] = []
        self._seq = 0

    def event(self) -> Event:
        return Event(self)

    def spawn(self, gen: Generator) -> Process:
        """Register a process to start at the current time."""
        proc = Process(gen)
        self._schedule(self.now, proc)
        return proc

    def _schedule(self, when: float, proc: Process) -> None:
        heapq.heappush(self._queue, (when, self._seq, proc))
        self._seq += 1

    def run(self) -> float:
        """Run until the queue drains."""
        while self._queue:
            when, _, proc = heapq.heappop(self._queue)
            self.now = max(self.now, when)
            self._step(proc)
        return self.now

    def _step(self, proc: Process) -> None:
        try:
            yielded = proc.gen.send(None)
        except StopIteration as stop:
            proc.finished = True
            proc.result = stop.value
            return
        if isinstance(yielded, Event):
            if yielded.fired:
                self._schedule(self.now, proc)
            else:
                yielded._waiters.append(proc)
        elif yielded < 0:
            raise SimulationError("process yielded a negative delay")
        else:
            self._schedule(self.now + float(yielded), proc)
