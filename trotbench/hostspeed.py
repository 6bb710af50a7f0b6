"""The host's speed, measured by a fixed reference task in the same run.

On a shared virtual machine the CPU runs each call up to twice as slow as it
can, in spells from a fraction of a second to minutes, as other tenants come
and go.  How much of a run falls in slow spells differs from run to run, so
raw times differ too, even best times.  The reference task is the same short
work in every run and every version of trotopt: parsing a `.qc` text and a
small numpy statevector simulation, the kinds of steps trotopt's own calls
are made of.  Timed after every operation, its mean time over a run grows
with the share of the run spent in slow spells just as the calls' mean
times do, so the ratio of the two hardly moves with the host.

Reported times are a call's mean time divided by the task's mean time over
the same run, times :data:`REFERENCE_SECONDS`, about the task's mean time on
a 2.1 GHz Xeon 2-vCPU virtual machine, so they stay in seconds.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

import generate
import qcsim

REFERENCE_SECONDS = 0.0024


class HostSpeed:
    """Runs the reference task on demand and keeps its timings."""

    def __init__(self):
        rng = random.Random("reference task")
        self.text = qcsim.write_qc(generate.random_ct(20, 400, rng))
        self.circ = generate.random_ct(8, 120, rng)
        self.states = qcsim.random_states(8, 2, np.random.default_rng(0))
        self.times = []

    def sample(self) -> None:
        start = time.perf_counter()
        circ = qcsim.read_qc(self.text)
        qcsim.counts(circ)
        qcsim.non_phase_skeleton(circ)
        qcsim.simulate(self.circ, self.states)
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns this run's times into reference seconds."""
        return REFERENCE_SECONDS / statistics.fmean(self.times)
