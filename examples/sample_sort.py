#!/usr/bin/env python
"""Sample sort: all-to-all communication and the projections timeline.

Runs the five-phase parallel sample sort (local sort → sample → splitters
→ all-to-all → merge) on two machine classes, validates against numpy,
and prints the execution timeline so the phases are visible: the dense
band is the all-to-all, the long '#' runs are local sorts and merges.

Run::

    python examples/sample_sort.py
"""

import numpy as np

from repro import Kernel, make_machine
from repro.apps.samplesort import SampleSortMain
from repro.trace.timeline import Timeline
from repro.util.rng import RngStream


def main():
    n, workers = 8192, 8
    data = RngStream(1, "example-sort").generator.standard_normal(n)

    for machine_name in ("symmetry", "ipsc2"):
        machine = make_machine(machine_name, workers)
        kernel = Kernel(machine, trace_events="exec_begin,exec_end", seed=2)
        result = kernel.run(SampleSortMain, data, workers, 16)
        assert np.array_equal(result.result, np.sort(data)), "sort is wrong!"
        st = result.stats
        print(f"{machine_name}: sorted {n} keys on {workers} PEs in "
              f"{result.time * 1e3:.2f} virtual ms "
              f"({st.total_bytes_sent} bytes moved, "
              f"util {st.mean_utilization * 100:.0f}%)")
        print(Timeline(kernel.events).render(width=64))
        print()

    print("Scaling (ipsc2, virtual time):")
    t1 = None
    for p in (1, 2, 4, 8, 16):
        machine = make_machine("ipsc2", p)
        kernel = Kernel(machine, seed=2)
        result = kernel.run(SampleSortMain, data, p, 16)
        assert np.array_equal(result.result, np.sort(data))
        t1 = t1 or result.time
        print(f"  P={p:2d}  {result.time * 1e3:8.2f} ms  "
              f"speedup {t1 / result.time:5.2f}")


if __name__ == "__main__":
    main()
