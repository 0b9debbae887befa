"""Set-up probe: in a fresh interpreter, time ``import dtlsim`` and then
building one workload's inputs. Prints one JSON line with ``import_s``
and, unless ``--import-only``, ``setup_s`` (import plus inputs), both
host-normalized (see hostclock), and the raw times."""

import argparse
import json
import sys
import time
from pathlib import Path

# standard-library modules the benchmark's own files use, loaded before
# the clock starts so that only the program's import is timed
import dataclasses  # noqa: F401
import random  # noqa: F401
import subprocess  # noqa: F401

from hostclock import HostClock


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--small", action="store_true")
    p.add_argument("--import-only", action="store_true")
    args = p.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    clock = HostClock()
    t0 = time.perf_counter()
    import dtlsim  # noqa: F401
    out = {"raw_import_s": time.perf_counter() - t0}
    if not args.import_only:
        import tracing
        import workloads
        workloads.WORKLOADS[args.workload](args.seed, args.small,
                                           tracing.NullTracer(), args.scratch)
        out["raw_setup_s"] = time.perf_counter() - t0
    key = "raw_import_s" if args.import_only else "raw_setup_s"
    factor = clock.scale(out[key]) / out[key]
    out.update({k[4:]: v * factor for k, v in list(out.items())})
    out["reference_s"] = clock.samples
    print(json.dumps(out))


if __name__ == "__main__":
    main()
