"""Set-up probe: a fresh interpreter that stops at the first Engine.run.

``python3 perfbench/probe.py WORKLOAD SEED`` imports the simulator,
builds and drives the workload's first cluster run, and prints the
``time.monotonic_ns()`` reading taken as that run enters
``Engine.run`` -- the same clock the parent read before starting this
process, so the difference is the set-up time.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))


class _Ready(Exception):
    """Raised at the first Engine.run of this process."""


def main() -> int:
    import workloads
    from repro.sim.engine import HeapEngine, WheelEngine

    workload = workloads.WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])

    def stop(self, *args, **kwargs):
        raise _Ready(time.monotonic_ns())

    for cls in (HeapEngine, WheelEngine):
        cls.run = stop
    try:
        workloads.run_iteration(workload, seed, workload.configs[:1])
    except _Ready as ready:
        print(ready.args[0])
        return 0
    print("the workload never reached Engine.run", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
