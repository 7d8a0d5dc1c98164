"""Time one set-up as a fresh interpreter pays it: import isokit and build
the first round of seeded inputs.  Prints the seconds taken, then the
median of three calibration samples taken right after (measure.py).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from time import perf_counter

START = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gen  # noqa: E402
import jobs  # noqa: E402,F401  (imports every isokit layer the jobs call)

next(gen.rounds(sys.argv[1], int(sys.argv[2])))
elapsed = perf_counter() - START

import measure  # noqa: E402

print(elapsed, sorted(measure.calibrate() for _ in range(3))[1])
