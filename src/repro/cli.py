"""Command-line interface: ``python -m repro``.

Subcommands:

- ``list`` -- the registered experiments with their paper anchors;
- ``run E03 [--quick] [--trace out.json] [--metrics out.json]`` -- one
  experiment, optionally with a Perfetto trace and a metrics snapshot;
- ``evaluate [--quick] [--markdown] [--metrics DIR] [--spans DIR]`` --
  the full E01-E18 evaluation, optionally writing one metrics snapshot
  per experiment and the traced experiments' span-tree artifacts;
- ``cluster [--nodes N] [--design D] [--policy P] [--fanout F]`` -- one
  multi-machine cluster run (see :mod:`repro.cluster`) with its summary
  table, optionally traced/snapshotted like ``run``;
- ``trace [--top K]`` -- run one traced cluster and pretty-print the K
  slowest requests' span trees with per-component percentages
  (:mod:`repro.obs.spans`);
- ``profile E03`` -- the cycle-attribution profile of one experiment;
- ``sensitivity`` -- the cost-model break-even analysis.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__


def _run_flags() -> argparse.ArgumentParser:
    """The cluster-run flags ``cluster`` and ``trace`` share, as a parent
    parser. A child shares its parent's actions and ``set_defaults``
    rewrites an action's default, so each verb gets its own copy."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--nodes", type=int, default=8)
    flags.add_argument("--design", help="hw-threads | sw-threads | "
                       "event-loop; cluster also takes 'all' (the three)")
    flags.add_argument("--backend", default="model",
                       help="server backend per node: 'model' "
                            "(behavioral RpcServerModel) or 'isa' "
                            "(full ISA-level machine)")
    flags.add_argument("--policy", default="round-robin",
                       help="random | round-robin | jsq | p2c")
    flags.add_argument("--fanout", type=int, default=1,
                       help="shards per request (response = slowest)")
    flags.add_argument("--load", type=float, default=0.6,
                       help="offered load per node of the base service")
    flags.add_argument("--requests", type=int, default=500)
    flags.add_argument("--queue-limit", type=int, default=None,
                       help="per-node admission limit (default: none)")
    flags.add_argument("--hedge-after", type=int, default=None,
                       metavar="CYCLES",
                       help="send a hedged shard after this many cycles")
    flags.add_argument("--shards", type=int, default=1,
                       help="partition the run over N engine shards "
                            "(conservative PDES; byte-identical output; "
                            "random or round-robin, no hedging)")
    flags.add_argument("--seed", type=lambda v: int(v, 0), default=0xC0FFEE)
    return flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Behavioral reproduction of 'A Case Against (Most) "
                    "Context Switches' (HotOS '21)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the registered experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", help="e.g. E03")
    run.add_argument("--quick", action="store_true",
                     help="small CI-sized workloads")
    run.add_argument("--seed", type=lambda v: int(v, 0), default=0xC0FFEE)
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="emit structured JSON instead of tables")
    run.add_argument("--trace", metavar="FILE", default=None,
                     dest="trace_path",
                     help="export a Perfetto/Chrome trace-event JSON of "
                          "the run (open in ui.perfetto.dev)")
    run.add_argument("--metrics", metavar="FILE", default=None,
                     dest="metrics_path",
                     help="write the run's metrics snapshot as JSON")
    run.add_argument("--span-trace", metavar="FILE", default=None,
                     dest="span_trace_path",
                     help="export the experiment's retained span trees "
                          "as Perfetto trace-event JSON (traced "
                          "experiments only, e.g. E16)")
    run.add_argument("--spans", metavar="FILE", default=None,
                     dest="spans_path",
                     help="write the experiment's retained span trees "
                          "as plain JSON (traced experiments only)")

    evaluate = sub.add_parser("evaluate", help="run every experiment")
    evaluate.add_argument("--quick", action="store_true")
    evaluate.add_argument("--markdown", action="store_true",
                          help="emit EXPERIMENTS.md sections")
    evaluate.add_argument("--parallel", type=int, default=1, metavar="N",
                          help="fan experiments across N worker processes "
                               "(results are identical to serial; 0 = one "
                               "per CPU)")
    evaluate.add_argument("--metrics", metavar="DIR", default=None,
                          dest="metrics_dir",
                          help="write one metrics-snapshot JSON per "
                               "experiment into DIR")
    evaluate.add_argument("--spans", metavar="DIR", default=None,
                          dest="spans_dir",
                          help="write the traced experiments' span-tree "
                               "exemplars into DIR (JSON + Perfetto "
                               "trace per experiment)")

    cluster = sub.add_parser(
        "cluster", parents=[_run_flags()],
        help="simulate a multi-machine cluster (load balancing, "
             "fan-out, hedged requests)")
    cluster.add_argument("--drop-prob", type=float, default=0.0,
                         help="per-message link drop probability")
    cluster.add_argument("--json", action="store_true", dest="as_json")
    cluster.add_argument("--trace", metavar="FILE", default=None,
                         dest="trace_path",
                         help="export a Perfetto/Chrome trace-event JSON")
    cluster.add_argument("--metrics", metavar="FILE", default=None,
                         dest="metrics_path",
                         help="write the run's metrics snapshot as JSON")
    cluster.add_argument("--span-trace", metavar="FILE", default=None,
                         dest="span_trace_path",
                         help="trace every request and export the "
                              "retained span trees as Perfetto "
                              "trace-event JSON")
    cluster.set_defaults(design="hw-threads")

    trace = sub.add_parser(
        "trace", parents=[_run_flags()],
        help="run one traced cluster and pretty-print the slowest "
             "requests' span trees (critical-path decomposition)")
    trace.add_argument("--top", type=int, default=5, metavar="K",
                       help="render the K slowest requests (default 5)")
    trace.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the full span payload as JSON instead "
                            "of rendered trees")
    trace.add_argument("--span-trace", metavar="FILE", default=None,
                       dest="span_trace_path",
                       help="also export the trees as Perfetto "
                            "trace-event JSON")
    # lossless links: trace has no --drop-prob
    trace.set_defaults(design="sw-threads", drop_prob=0.0)

    profile = sub.add_parser("profile",
                             help="cycle-attribution profile of one "
                                  "experiment (issue/stall/mwait/"
                                  "fastforward/idle per core)")
    profile.add_argument("experiment_id", help="e.g. E03")
    profile.add_argument("--quick", action="store_true",
                         help="small CI-sized workloads")
    profile.add_argument("--seed", type=lambda v: int(v, 0),
                         default=0xC0FFEE)

    sub.add_parser("sensitivity",
                   help="cost-model break-even analysis")

    sub.add_parser("isa", help="the simulated ISA, instruction by "
                               "instruction")
    return parser


def _cmd_list() -> int:
    from repro.analysis.tables import Table
    from repro.experiments import all_experiments

    table = Table(["id", "title", "paper anchor"])
    for experiment in all_experiments():
        table.add_row(experiment.experiment_id, experiment.title,
                      experiment.paper_anchor)
    print(table.render())
    return 0


def _write_span_trace(path: str, trees) -> None:
    """``trees`` is ``[(label, tree), ...]`` span trees."""
    from repro.obs.export import span_trace, write_trace

    write_trace(path, span_trace(trees))
    print(f"span trace written to {path} (open in ui.perfetto.dev)",
          file=sys.stderr)


def _cmd_run(experiment_id: str, quick: bool, seed: int,
             as_json: bool = False, trace_path: Optional[str] = None,
             metrics_path: Optional[str] = None,
             span_trace_path: Optional[str] = None,
             spans_path: Optional[str] = None) -> int:
    from repro.errors import ReproError
    from repro.experiments import get_experiment

    try:
        experiment = get_experiment(experiment_id.upper())
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if trace_path or metrics_path:
        # run inside an obs session: every machine the experiment builds
        # instruments itself and lands in the session
        import repro.obs as obs

        with obs.session(experiment.experiment_id) as sess:
            result = experiment.run(quick=quick, seed=seed)
        if trace_path:
            from repro.obs.export import write_trace
            write_trace(trace_path, sess.chrome_trace())
            print(f"trace written to {trace_path} "
                  f"(open in ui.perfetto.dev)", file=sys.stderr)
        if metrics_path:
            from repro.obs.snapshot import write_snapshot
            write_snapshot(metrics_path, sess.snapshot())
            print(f"metrics snapshot written to {metrics_path}",
                  file=sys.stderr)
    else:
        result = experiment.run(quick=quick, seed=seed)
    if span_trace_path or spans_path:
        import json

        from repro.experiments.parallel import span_artifacts

        trees = span_artifacts([result]).get(experiment.experiment_id)
        if not trees:
            print(f"error: {experiment.experiment_id} publishes no span "
                  f"trees; only traced experiments (e.g. E16) support "
                  f"--span-trace/--spans", file=sys.stderr)
            return 2
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(trees, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"span trees written to {spans_path}", file=sys.stderr)
        if span_trace_path:
            _write_span_trace(span_trace_path,
                              [(t["label"], t["tree"]) for t in trees])
    print(result.to_json() if as_json else result.render())
    return 0 if result.all_supported() else 1


def _cmd_profile(experiment_id: str, quick: bool, seed: int) -> int:
    from repro.analysis.tables import Table
    from repro.errors import ReproError
    from repro.experiments import get_experiment
    from repro.obs.profile import BUCKETS
    import repro.obs as obs

    try:
        experiment = get_experiment(experiment_id.upper())
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    with obs.session(experiment.experiment_id) as sess:
        experiment.run(quick=quick, seed=seed)
    totals = {bucket: 0 for bucket in BUCKETS}
    grand = 0
    cores = 0
    for machine in sess.machines:
        profiles = machine.obs.profiler.snapshot(machine.engine.now)
        for buckets in profiles.values():
            cores += 1
            grand += buckets["total"]
            for bucket in BUCKETS:
                totals[bucket] += buckets[bucket]
    table = Table(["bucket", "cycles", "share"],
                  title=f"{experiment.experiment_id} cycle attribution "
                        f"({cores} cores over {len(sess.machines)} "
                        f"machines)")
    for bucket in BUCKETS:
        share = totals[bucket] / grand if grand else 0.0
        table.add_row(bucket, totals[bucket], f"{share:7.2%}")
    table.add_row("total", grand, f"{1:7.2%}" if grand else f"{0:7.2%}")
    print(table.render())
    # snapshot() raises if any core's buckets fail to sum to engine.now
    print("attribution exact: buckets sum to engine.now on every core")
    return 0


def _cmd_isa() -> int:
    from repro.analysis.tables import Table
    from repro.isa.instructions import OPS

    table = Table(["opcode", "operands", "latency", "description"])
    for spec in OPS.values():
        table.add_row(spec.name, " ".join(spec.operands) or "-",
                      spec.latency, spec.description)
    print(table.render())
    return 0


def _cmd_evaluate(quick: bool, markdown: bool, parallel: int = 1,
                  metrics_dir: Optional[str] = None,
                  spans_dir: Optional[str] = None) -> int:
    import json
    import os

    from repro.errors import ReproError
    from repro.experiments.parallel import run_instrumented, run_parallel

    workers = None if parallel == 0 else parallel
    try:
        if metrics_dir is not None:
            from repro.obs.snapshot import write_snapshot

            run = run_instrumented(quick=quick, workers=workers)
            results = run.results
            os.makedirs(metrics_dir, exist_ok=True)
            for experiment_id, snapshot in run.snapshots.items():
                path = os.path.join(metrics_dir,
                                    f"{experiment_id}-metrics.json")
                write_snapshot(path, snapshot)
            print(f"{len(run.snapshots)} metrics snapshots written to "
                  f"{metrics_dir}", file=sys.stderr)
        else:
            results = run_parallel(quick=quick, workers=workers)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if spans_dir is not None:
        from repro.experiments.parallel import span_artifacts
        from repro.obs.export import span_trace, write_trace

        artifacts = span_artifacts(results)
        os.makedirs(spans_dir, exist_ok=True)
        for experiment_id, trees in artifacts.items():
            path = os.path.join(spans_dir, f"{experiment_id}-spans.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(trees, handle, indent=1, sort_keys=True)
                handle.write("\n")
            write_trace(
                os.path.join(spans_dir,
                             f"{experiment_id}-spans.trace.json"),
                span_trace([(t["label"], t["tree"]) for t in trees]))
        print(f"span artifacts for {len(artifacts)} traced experiments "
              f"written to {spans_dir}", file=sys.stderr)
    failures: List[str] = []
    for result in results:
        print(result.render_markdown() if markdown else result.render())
        print()
        if not result.all_supported():
            failures.append(result.experiment_id)
    if failures:
        print(f"REFUTED claims in: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _cluster_config(args, design: str):
    """The ``ClusterConfig`` of one ``cluster`` or ``trace`` run."""
    from repro.cluster import ClusterConfig, LinkSpec, get_design

    return ClusterConfig(
        nodes=args.nodes, design=get_design(design), policy=args.policy,
        fanout=args.fanout, load=args.load, requests=args.requests,
        queue_limit=args.queue_limit, hedge_after=args.hedge_after,
        link=LinkSpec(drop_prob=args.drop_prob), backend=args.backend,
        shards=args.shards)


def _cmd_cluster(args) -> int:
    import json
    from contextlib import nullcontext

    import repro.obs.spans as spans
    from repro.analysis.tables import Table
    from repro.cluster import DESIGNS, run_cluster
    from repro.errors import ReproError

    names = (list(DESIGNS) if args.design == "all"
             else [args.design])
    summaries = {}
    span_trees = []
    try:
        for name in names:
            config = _cluster_config(args, name)
            tracing = (spans.tracing() if args.span_trace_path
                       else nullcontext(None))
            with tracing as store:
                if args.trace_path or args.metrics_path:
                    import repro.obs as obs

                    with obs.session(f"cluster.{name}") as sess:
                        result = run_cluster(config, seed=args.seed)
                    if args.trace_path:
                        from repro.obs.export import write_trace
                        write_trace(args.trace_path, sess.chrome_trace())
                        print(f"trace written to {args.trace_path} "
                              f"(open in ui.perfetto.dev)",
                              file=sys.stderr)
                    if args.metrics_path:
                        from repro.obs.snapshot import write_snapshot
                        write_snapshot(args.metrics_path, sess.snapshot())
                        print(f"metrics snapshot written to "
                              f"{args.metrics_path}", file=sys.stderr)
                else:
                    result = run_cluster(config, seed=args.seed)
            if store is not None:
                span_trees.extend((name, tree)
                                  for tree in store.exemplars())
            summaries[name] = result.summary
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.span_trace_path:
        _write_span_trace(args.span_trace_path, span_trees)
    if args.as_json:
        print(json.dumps(summaries, indent=1, sort_keys=True))
    else:
        columns = ["design", "completed", "dropped", "rejected", "hedges",
                   "p50", "p99", "goodput/Mcyc", "conserved"]
        table = Table(columns,
                      title=f"{args.nodes} nodes, {args.policy}, fanout "
                            f"{args.fanout}, load {args.load}")
        def quantile(value: float):
            # completed == 0 leaves the quantiles at +inf
            return round(value) if value != float("inf") else "inf"

        for name, summary in summaries.items():
            table.add_row(name, summary["completed"], summary["dropped"],
                          summary["rejected"], summary["hedges"],
                          quantile(summary["p50"]),
                          quantile(summary["p99"]),
                          round(summary["goodput_per_mcycle"], 3),
                          summary["conserved"])
        print(table.render())
    ok = all(summary["conserved"] for summary in summaries.values())
    return 0 if ok else 1


def _cmd_trace(args) -> int:
    import json

    import repro.obs.spans as spans
    from repro.cluster import run_cluster
    from repro.errors import ReproError

    if args.top < 1:
        print(f"error: --top must be >= 1, got {args.top}",
              file=sys.stderr)
        return 2
    try:
        config = _cluster_config(args, args.design)
        with spans.tracing(top_k=args.top) as store:
            run_cluster(config, seed=args.seed)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(store.payload(), indent=1, sort_keys=True))
    else:
        trees = sorted(store.exemplars(),
                       key=lambda tree: (-(tree["latency"] or 0),
                                         tree["request_id"]))
        for tree in trees[:args.top]:
            print(spans.render_tree(tree))
            print()
        completed = store.paths()
        if completed:
            p50 = store.percentile_request(50.0)["latency"]
            p99 = store.percentile_request(99.0)["latency"]
            print(f"{len(completed)} completed requests traced; "
                  f"p50 {p50:,} / p99 {p99:,} cycles")
        else:
            print("no completed requests were traced")
    if args.span_trace_path:
        _write_span_trace(args.span_trace_path,
                          [(args.design, tree)
                           for tree in store.exemplars()])
    return 0


def _cmd_sensitivity() -> int:
    from repro.experiments.sensitivity import sensitivity_table

    print(sensitivity_table().render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args.experiment_id, args.quick, args.seed,
                            args.as_json, args.trace_path,
                            args.metrics_path, args.span_trace_path,
                            args.spans_path)
        if args.command == "evaluate":
            return _cmd_evaluate(args.quick, args.markdown, args.parallel,
                                 args.metrics_dir, args.spans_dir)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "profile":
            return _cmd_profile(args.experiment_id, args.quick, args.seed)
        if args.command == "sensitivity":
            return _cmd_sensitivity()
        if args.command == "isa":
            return _cmd_isa()
        parser.print_help()
        return 0
    except BrokenPipeError:
        # output piped into a pager/head that closed early; not an error
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001 - best-effort flush
            pass
        return 0
