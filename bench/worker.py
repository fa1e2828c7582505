"""One fresh interpreter of a benchmark run: set up, run one round of a
workload, and print the result as one JSON line.

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The
result carries the CLOCK_MONOTONIC time at which set-up finished, so the
parent can time set-up from before it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _peak_rss_mb():
    # ru_maxrss of a process started by fork and exec also counts its
    # parent's peak, which Linux carries across the exec; VmHWM is this
    # process's own.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: import the package (and the benchmark's own modules that import
    # it), install the tracer when asked, and build the workload's cones.
    from kronquiver import symfunc

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workloads.setup(args.workload)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "kronquiver": symfunc.__file__}))
        return 0

    ops = workloads.build(args.workload, args.seed)
    memo = {"lr_start": len(symfunc._LR_MEMO)}
    records = workloads.run_ops(ops)
    rss_mb = _peak_rss_mb()
    memo["lr_end"] = len(symfunc._LR_MEMO)
    memo["mn_end"] = len(symfunc._MN_MEMO)
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({
        "ready": ready,
        "kronquiver": symfunc.__file__,
        "records": [[r.label, r.seconds, r.error, r.value, r.parts] for r in records],
        "rss_mb": rss_mb,
        "memo": memo,
        "trace": tracer.snapshot() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
