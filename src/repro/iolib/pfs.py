"""Lustre-like parallel-file-system model with fair-share contention.

The PFS is modeled at the level that determines the paper's I/O results:

- ``n_osts`` object storage targets, each sustaining ``ost_bw_mbps``;
- files are striped over ``stripe_count`` OSTs, capping a single stream at
  ``stripe_count * ost_bw_mbps``;
- each client node's network link caps it at ``client_bw_mbps``;
- concurrent writers share the aggregate ``n_osts * ost_bw_mbps`` by
  progressive filling (max-min fairness): every active flow gets the same
  share unless its own cap binds — the standard fluid model for shared
  storage backends.

:func:`fair_share_schedule` is an exact event-driven solver for that fluid
model, working on classes of equal flows (a cluster tenant's ranks, each
class one entry with its flow count) rather than on single flows;
:class:`PFSModel` packages it with the single-stream cost helpers the
experiment drivers use.  The aggregate saturation is what
produces Fig. 12's jump in uncompressed write energy at 512 cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError

__all__ = ["PFSModel", "fair_share_schedule"]


def fair_share_schedule(
    arrivals: np.ndarray,
    sizes_bytes: np.ndarray,
    per_flow_cap_mbps: float,
    aggregate_cap_mbps: float,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Finish times of flow classes sharing a link, max-min fair.

    Parameters
    ----------
    arrivals, sizes_bytes:
        Per-class start time (s) and per-flow size (bytes): 1-D, finite,
        sizes non-negative.
    per_flow_cap_mbps / aggregate_cap_mbps:
        Individual and shared capacity in MB/s, positive and finite.
    counts:
        Flows in each class (1-D integers >= 1, aligned with ``arrivals``);
        ``None`` means one flow per entry.

    Returns
    -------
    np.ndarray of completion times (s), one per class: all flows of a class
    are admitted together and finish together.

    The solver advances between events (arrivals or completions).  Within an
    interval the rate of each active flow is constant:
    ``min(per_flow_cap, aggregate / n_active)`` — with a homogeneous per-flow
    cap, max-min fairness reduces to exactly this.  A class of ``c`` flows
    goes through the same float operations as each of its flows would one
    by one, so its finish time is bit-identical to theirs in a per-flow
    solve of the expanded arrays; solver cost scales with classes, not flows.

    Raises :class:`~repro.errors.ConfigurationError` for misaligned, non-1-D
    or non-finite inputs, negative sizes, counts that are not integers >= 1
    and non-positive or non-finite caps.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    sizes = np.asarray(sizes_bytes, dtype=np.float64) / 1e6  # MB
    if arrivals.ndim != 1 or sizes.ndim != 1:
        raise ConfigurationError("arrivals and sizes must be 1-D")
    if arrivals.shape != sizes.shape:
        raise ConfigurationError("arrivals and sizes must align")
    if not (np.isfinite(arrivals).all() and np.isfinite(sizes).all()):
        raise ConfigurationError("arrivals and sizes must be finite")
    if (sizes < 0).any():
        raise ConfigurationError("sizes must be non-negative")
    if not all(
        math.isfinite(cap) and cap > 0
        for cap in (per_flow_cap_mbps, aggregate_cap_mbps)
    ):
        raise ConfigurationError("capacities must be positive and finite")
    if counts is not None:
        counts = np.asarray(counts)
        if counts.ndim != 1 or counts.shape != arrivals.shape:
            raise ConfigurationError("counts must be 1-D and align with arrivals")
        if counts.size and (counts.dtype.kind not in "iu" or (counts < 1).any()):
            raise ConfigurationError("counts must be integers >= 1")
    m = arrivals.size
    if not m:
        return np.empty(0)
    finish = np.full(m, np.inf)
    remaining = sizes  # a fresh array: consumed in place
    order = np.argsort(arrivals, kind="stable")
    # Python lists for the admission walk: indexing them is cheaper than
    # indexing numpy arrays one scalar at a time, and the floats are the
    # same doubles.
    due = arrivals[order].tolist()
    order = order.tolist()
    # Flows per class, and the flows a completion mask retires.
    if counts is None:
        flows = [1] * m
        n_finished = np.count_nonzero
    else:
        flows = counts.tolist()
        n_finished = lambda done: counts[done].sum()  # noqa: E731
    next_arrival = 0  # index into `order`
    # The active set is a boolean mask over classes, so the per-event work
    # (progress subtraction, minimum remaining, completion harvest) runs as
    # whole-array numpy ops, the same ``x - rate * dt`` per class.
    active = np.zeros(m, dtype=bool)
    n_active = 0  # flows, not classes: the fair share divides by flows
    t = due[0]

    guard = 0
    while next_arrival < m or n_active:
        guard += 1
        if guard > 10 * m + 100:
            raise SimulationError("fair-share solver failed to converge")
        # Admit all classes that have arrived by t.  Zero-byte flows need no
        # bandwidth: they complete at their arrival instant instead of
        # entering the active set (where each one would force a zero-length
        # solver step and burn guard iterations).
        while next_arrival < m and due[next_arrival] <= t + 1e-12:
            idx = order[next_arrival]
            next_arrival += 1
            if remaining[idx] <= 1e-9:
                finish[idx] = arrivals[idx]
            else:
                active[idx] = True
                n_active += flows[idx]
        if not n_active:
            if next_arrival >= m:
                break
            t = due[next_arrival]
            continue
        rate = min(per_flow_cap_mbps, aggregate_cap_mbps / n_active)
        # Time to the next event: earliest completion or next arrival.
        low = float(remaining[active].min())
        dt_complete = low / rate
        dt_arrival = due[next_arrival] - t if next_arrival < m else np.inf
        # A completion that coincides with an arrival is one positive step to
        # the shared event time; the next iteration admits the arrival.  Both
        # candidate steps are strictly positive — active flows have bytes left
        # and pending arrivals are beyond the admission tolerance — so the
        # solver can never stall on a dt == 0 step.
        dt = min(dt_complete, dt_arrival)
        if dt <= 0:
            raise SimulationError("non-positive time step in fair-share solver")
        step = rate * dt
        np.subtract(remaining, step, out=remaining, where=active)
        t += dt
        # Rounded subtraction is monotone, so the smallest remainder after
        # the step is ``low - step``: harvest only when some class is done.
        if low - step <= 1e-9:
            done = active & (remaining <= 1e-9)
            finish[done] = t
            active &= ~done
            n_active -= int(n_finished(done))
    return finish


@dataclass(frozen=True)
class PFSModel:
    """A striped parallel file system shared by all client nodes."""

    n_osts: int = 8
    ost_bw_mbps: float = 500.0
    stripe_count: int = 4
    client_bw_mbps: float = 1000.0
    metadata_latency_s: float = 0.002  # per open/close at the MDS

    def __post_init__(self):
        if self.n_osts < 1 or self.stripe_count < 1:
            raise ConfigurationError("n_osts and stripe_count must be >= 1")
        if self.stripe_count > self.n_osts:
            raise ConfigurationError("stripe_count cannot exceed n_osts")
        if self.ost_bw_mbps <= 0 or self.client_bw_mbps <= 0:
            raise ConfigurationError("bandwidths must be positive")

    @property
    def aggregate_bw_mbps(self) -> float:
        """Backend ceiling shared by all concurrent writers."""
        return self.n_osts * self.ost_bw_mbps

    @property
    def stream_bw_mbps(self) -> float:
        """Best-case bandwidth of one uncontended stream."""
        return min(self.client_bw_mbps, self.stripe_count * self.ost_bw_mbps)

    def single_write_seconds(self, nbytes: int, efficiency: float = 1.0) -> float:
        """Uncontended write time for one file of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError("nbytes must be non-negative")
        if not 0 < efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        return self.metadata_latency_s + (nbytes / 1e6) / (
            self.stream_bw_mbps * efficiency
        )

    def single_read_seconds(self, nbytes: int, efficiency: float = 1.0) -> float:
        """Uncontended read time (reads skip the write-commit round trips).

        Lustre reads typically sustain ~20 % more per-stream bandwidth than
        writes (no OST commit barrier); the paper's Section VI-A remark that
        compressed reads enjoy the same savings is modeled through this path.
        """
        if nbytes < 0:
            raise ConfigurationError("nbytes must be non-negative")
        if not 0 < efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        return self.metadata_latency_s + (nbytes / 1e6) / (
            1.2 * self.stream_bw_mbps * efficiency
        )

    def concurrent_write_times(
        self,
        sizes_bytes: np.ndarray,
        efficiency: float = 1.0,
        arrivals: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Finish times for concurrent writes (fair-share fluid model), one
        per class of ``counts`` equal flows (one flow each by default)."""
        sizes_bytes = np.asarray(sizes_bytes)
        if arrivals is None:
            arrivals = np.zeros(sizes_bytes.shape)
        return fair_share_schedule(
            np.asarray(arrivals) + self.metadata_latency_s,
            sizes_bytes,
            per_flow_cap_mbps=self.stream_bw_mbps * efficiency,
            aggregate_cap_mbps=self.aggregate_bw_mbps * efficiency,
            counts=counts,
        )

    def pipelined_write_times(
        self,
        sizes_bytes: np.ndarray,
        arrivals: np.ndarray,
        efficiency: float = 1.0,
    ) -> np.ndarray:
        """Finish times for one client streaming chunks of a single file.

        The chunk flows all originate from the same client writing the same
        striped file, so the *aggregate* cap is the single-stream bandwidth
        (client link or stripe width, whichever binds) — not the backend
        ceiling shared by a whole cluster.  Staggered chunk arrivals model
        the compress stage feeding the write stage; the MDS open is charged
        once, on the first chunk.
        """
        if not 0 < efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        stream = self.stream_bw_mbps * efficiency
        return fair_share_schedule(
            np.asarray(arrivals, dtype=np.float64) + self.metadata_latency_s,
            np.asarray(sizes_bytes, dtype=np.float64),
            per_flow_cap_mbps=stream,
            aggregate_cap_mbps=stream,
        )
