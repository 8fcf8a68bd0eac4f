"""Set-up time of one workload, in a fresh interpreter.

    python benchmark/setup_job.py certify|derive|evolve

The clock starts before anything else is imported, so the timed
`import z22field` pays for every module it loads, the standard library's
included.  The benchmark's own modules are loaded afterwards, off the
clock.  Prints one JSON object: `setup_s` and the Python and numpy
versions.
"""

import sys
import time

t0 = time.perf_counter()
import z22field  # noqa: E402,F401  (the cold import is what is timed)
setup_s = time.perf_counter() - t0

import json  # noqa: E402

import numpy  # noqa: E402

import workloads as wl  # noqa: E402

workload = sys.argv[1]
t0 = time.perf_counter()
if workload == "derive":
    wl.derive_request(*wl.WARMUP_REQUEST)
elif workload == "evolve":
    z22field.init_profile(wl.big_config())
elif workload != "certify":
    sys.exit(f"unknown workload {workload!r}")
setup_s += time.perf_counter() - t0

print(json.dumps({"setup_s": setup_s, "python": sys.version.split()[0],
                  "numpy": numpy.__version__}))
