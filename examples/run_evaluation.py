#!/usr/bin/env python
"""Run the full paper evaluation (E01-E18) and print every table.

This is the programmatic twin of ``python -m repro evaluate``. With
``--markdown`` it emits the per-experiment sections EXPERIMENTS.md
embeds; with ``--quick`` it uses the small CI-sized workloads; with
``--parallel N`` the experiments fan across N worker processes (every
experiment is self-contained, so the output is identical to serial;
``--parallel 0`` uses one worker per CPU); with ``--metrics DIR`` each
experiment runs fully instrumented and writes one metrics-snapshot
JSON into DIR (identical whether serial or parallel).

Run:  python examples/run_evaluation.py [--quick] [--markdown]
          [--parallel N] [--metrics DIR]
"""

import argparse
import os
import sys

from repro.experiments.parallel import run_instrumented, run_parallel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--markdown", action="store_true")
    parser.add_argument("--parallel", type=int, default=1, metavar="N")
    parser.add_argument("--metrics", metavar="DIR", default=None,
                        dest="metrics_dir")
    args = parser.parse_args()
    workers = None if args.parallel == 0 else args.parallel
    if args.metrics_dir is not None:
        from repro.obs.snapshot import write_snapshot

        run = run_instrumented(quick=args.quick, workers=workers)
        results = run.results
        os.makedirs(args.metrics_dir, exist_ok=True)
        for experiment_id, snapshot in run.snapshots.items():
            write_snapshot(os.path.join(args.metrics_dir,
                                        f"{experiment_id}-metrics.json"),
                           snapshot)
    else:
        results = run_parallel(quick=args.quick, workers=workers)
    failures = []
    for result in results:
        if args.markdown:
            print(result.render_markdown())
            print()
        else:
            print(result.render())
            print()
        if not result.all_supported():
            failures.append(result.experiment_id)
    if failures:
        print(f"REFUTED claims in: {', '.join(failures)}", file=sys.stderr)
        sys.exit(1)
    if not args.markdown:
        print(f"All {len(results)} experiments support the "
              f"paper's claims.")


if __name__ == "__main__":
    main()
