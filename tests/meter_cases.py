"""Hypothesis inputs shared by the energy-meter properties of
``test_energy`` and the node-meter properties of ``test_cluster``."""

from __future__ import annotations

import numpy as np

from reference.energy import FLOOR

from repro.energy import CPUS, get_cpu
from repro.energy.cpus import CPUSpec

#: Sampling intervals of the closed-form sampler and meter properties.
INTERVALS = (0.003, 0.01, 0.02, 0.05, 0.25)

#: A one-socket node beside the catalogue's two- and four-socket ones.
ONE_SOCKET = CPUSpec(
    name="uni16",
    model="one-socket test node",
    codename="-",
    system="-",
    cores=16,
    sockets=1,
    tdp_w=125.0,
    idle_w=30.0,
    speed=1.0,
    ram="-",
    year=2020,
)
METER_CPUS = [get_cpu(name) for name in sorted(CPUS)] + [ONE_SOCKET]


def tick_durations(interval):
    """Durations on, just under and just over tick multiples, near the floor."""
    from hypothesis import strategies as st

    def near(k, where):
        base = k * interval
        return {
            "on": base,
            "under": float(np.nextafter(base, 0.0)),
            "over": float(np.nextafter(base, np.inf)),
            "floor-": base + 0.5 * FLOOR,
            "floor": base + FLOOR,
            "floor+": base + 2 * FLOOR,
        }[where]

    return st.one_of(
        st.builds(
            near,
            st.integers(0, 400),
            st.sampled_from(["on", "under", "over", "floor-", "floor", "floor+"]),
        ),
        st.sampled_from(
            [0.0, 0.5 * FLOOR, FLOOR, float(np.nextafter(FLOOR, 1.0)), 2 * FLOOR]
        ),
        st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
    )
