"""The per-flow fair-share solver: every flow its own mask entry.

``pfs.fair_share_schedule`` (one entry per flow class, weighted by its flow
count) is checked against :func:`reference_fair_share_schedule` bit for
bit, on per-flow input and on each class expanded into its flows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError


def reference_fair_share_schedule(arrivals, sizes_bytes, per_flow_cap_mbps,
                                  aggregate_cap_mbps):
    """The per-flow event-driven solver: every flow its own mask entry."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    sizes = np.asarray(sizes_bytes, dtype=np.float64) / 1e6  # MB
    if arrivals.shape != sizes.shape:
        raise ConfigurationError("arrivals and sizes must align")
    if per_flow_cap_mbps <= 0 or aggregate_cap_mbps <= 0:
        raise ConfigurationError("capacities must be positive")
    n = arrivals.size
    finish = np.full(n, np.inf)
    remaining = sizes.copy()
    order = np.argsort(arrivals, kind="stable")
    next_arrival = 0
    active = np.zeros(n, dtype=bool)
    n_active = 0
    t = float(arrivals[order[0]]) if n else 0.0

    guard = 0
    while next_arrival < n or n_active:
        guard += 1
        if guard > 10 * n + 100:
            raise SimulationError("fair-share solver failed to converge")
        while next_arrival < n and arrivals[order[next_arrival]] <= t + 1e-12:
            idx = int(order[next_arrival])
            next_arrival += 1
            if remaining[idx] <= 1e-9:
                finish[idx] = float(arrivals[idx])
            else:
                active[idx] = True
                n_active += 1
        if not n_active:
            if next_arrival >= n:
                break
            t = float(arrivals[order[next_arrival]])
            continue
        rate = min(per_flow_cap_mbps, aggregate_cap_mbps / n_active)
        dt_complete = float(remaining[active].min()) / rate
        dt_arrival = (
            float(arrivals[order[next_arrival]]) - t
            if next_arrival < n
            else np.inf
        )
        dt = min(dt_complete, dt_arrival)
        if dt <= 0:
            raise SimulationError("non-positive time step in fair-share solver")
        remaining[active] -= rate * dt
        t += dt
        done = active & (remaining <= 1e-9)
        n_done = int(np.count_nonzero(done))
        if n_done:
            finish[done] = t
            active &= ~done
            n_active -= n_done
    return finish
