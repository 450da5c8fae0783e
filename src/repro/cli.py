"""Command-line interface.

The subcommands cover the library's main entry points::

    repro-fairclique solve          --dataset DBLP --model relative --engine exact -k 3 -d 1
    repro-fairclique solve          --dataset DBLP -k 3 -d 1 --stream
    repro-fairclique solve          --dataset DBLP -k 4 -d 2 --sweep delta --sweep-values 0 1 2 3
    repro-fairclique enumerate      --dataset DBLP --model relative -k 3 -d 1 --limit 10
    repro-fairclique explain        --dataset DBLP --model relative -k 3 -d 1 --search-workers 4
    repro-fairclique search         --edges g.edges --attributes g.attrs -k 3 -d 1
    repro-fairclique reduce         --dataset Themarker -k 6
    repro-fairclique stats          --dataset DBLP
    repro-fairclique compare-models --dataset Aminer -k 4 -d 2
    repro-fairclique reproduce fig4 --scale 0.5
    repro-fairclique datasets
    repro-fairclique engines

Every query command runs through one :class:`~repro.api.FairCliqueSession`
over the loaded graph: ``solve`` answers a query (``--stream`` prints the
incumbent trajectory live, ``--top-k`` asks for the k largest maximal fair
cliques, ``--sweep`` runs the batch layer so same-``k`` queries share one
reduction run), ``enumerate`` lazily lists every maximal fair clique, and
``explain`` prints the resolved query plan without solving.  ``search`` and
``compare-models`` are retained as thin wrappers over the same path.
``python -m repro ...`` is equivalent to the installed console script.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.api import FairCliqueQuery, FairCliqueSession, available_engines, default_registry
from repro.api.query import DELTA_MODELS, MODELS
from repro.api.tasks import ENUMERATION_ENGINES
from repro.bounds.stacks import stack_names
from repro.datasets.registry import dataset_names, dataset_table, load_dataset
from repro.exceptions import ReproError
from repro.experiments.reporting import format_table, rows_to_csv
from repro.experiments.runner import experiment_ids, run_experiment
from repro.graph.io import read_edge_list, write_clique_report
from repro.reduction.pipeline import reduce_graph


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=dataset_names(), help="use a built-in dataset stand-in")
    source.add_argument("--edges", help="edge-list file (one 'u v' pair per line)")
    parser.add_argument("--attributes", help="attribute file (one 'v attr' pair per line)")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fairclique",
        description="Maximum fair clique search (ICDE 2025 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve_cmd = subparsers.add_parser(
        "solve",
        help="answer a fair-clique query (any model x engine) through the unified API",
    )
    _add_graph_source(solve_cmd)
    solve_cmd.add_argument("--model", default="relative", choices=MODELS,
                           help="fairness model to solve")
    solve_cmd.add_argument("--engine", default="exact", choices=available_engines(),
                           help="engine to dispatch to")
    solve_cmd.add_argument("-k", type=int, required=True, help="minimum vertices per attribute")
    solve_cmd.add_argument("-d", "--delta", type=int, default=None,
                           help="maximum attribute-count gap (relative model only)")
    solve_cmd.add_argument("--bound", default=None, choices=list(stack_names()) + ["none"],
                           help="upper-bound stack for the exact engine")
    solve_cmd.add_argument("--no-heuristic", action="store_true",
                           help="disable HeurRFC seeding (exact engine)")
    solve_cmd.add_argument("--no-reduction", action="store_true",
                           help="disable the reduction pipeline (exact engine)")
    solve_cmd.add_argument("--time-limit", type=float, default=None,
                           help="seconds before giving up")
    solve_cmd.add_argument("--search-workers", type=int, default=None,
                           help="process-pool size for the component-sharded "
                                "parallel search (exact engine, every model)")
    solve_cmd.add_argument("--stream", action="store_true",
                           help="print the incumbent trajectory live while the "
                                "exact search runs")
    solve_cmd.add_argument("--top-k", type=int, default=None, metavar="N",
                           help="return the N largest maximal fair cliques "
                                "(task='top_k') instead of one maximum clique")
    solve_cmd.add_argument("--sweep", choices=("k", "delta"), default=None,
                           help="sweep one parameter over --sweep-values via the batch layer")
    solve_cmd.add_argument("--sweep-values", type=int, nargs="+", default=None,
                           help="values of the swept parameter")
    solve_cmd.add_argument("--workers", type=int, default=None,
                           help="process-pool size for sweeps (default: in-process)")
    solve_cmd.add_argument("--report", help="write the clique membership report to this path")

    enumerate_cmd = subparsers.add_parser(
        "enumerate",
        help="lazily list every maximal fair clique (task='enumerate')",
    )
    _add_graph_source(enumerate_cmd)
    enumerate_cmd.add_argument("--model", default="relative", choices=MODELS)
    enumerate_cmd.add_argument("--engine", default="exact",
                               choices=ENUMERATION_ENGINES,
                               help="kernel-native generator, or the "
                                    "Bron-Kerbosch oracle")
    enumerate_cmd.add_argument("-k", type=int, required=True,
                               help="minimum vertices per attribute")
    enumerate_cmd.add_argument("-d", "--delta", type=int, default=None,
                               help="maximum attribute-count gap (relative model only)")
    enumerate_cmd.add_argument("--limit", type=int, default=None, metavar="N",
                               help="stop after printing N cliques (the "
                                    "generator is lazy; enumeration never "
                                    "runs past what is printed)")

    explain_cmd = subparsers.add_parser(
        "explain",
        help="print the resolved query plan (engine, reductions, bounds, shards) without solving",
    )
    _add_graph_source(explain_cmd)
    explain_cmd.add_argument("--model", default="relative", choices=MODELS)
    explain_cmd.add_argument("--engine", default="exact", choices=available_engines())
    explain_cmd.add_argument("-k", type=int, required=True)
    explain_cmd.add_argument("-d", "--delta", type=int, default=None)
    explain_cmd.add_argument("--bound", default=None, choices=list(stack_names()) + ["none"])
    explain_cmd.add_argument("--search-workers", type=int, default=None)
    explain_cmd.add_argument("--warm", action="store_true",
                             help="solve the query once first, so the plan "
                                  "shows the warm-cache state (incl. the "
                                  "shard plan for --search-workers)")

    search = subparsers.add_parser(
        "search",
        help="find the maximum relative fair clique (wrapper over 'solve')",
    )
    _add_graph_source(search)
    search.add_argument("-k", type=int, required=True, help="minimum vertices per attribute")
    search.add_argument("-d", "--delta", type=int, required=True, help="maximum attribute-count gap")
    search.add_argument("--bound", default="ubAD", choices=list(stack_names()) + ["none"],
                        help="upper-bound stack used for pruning")
    search.add_argument("--no-heuristic", action="store_true", help="disable HeurRFC seeding")
    search.add_argument("--time-limit", type=float, default=None, help="seconds before giving up")
    search.add_argument("--report", help="write the clique membership report to this path")

    reduce_cmd = subparsers.add_parser("reduce", help="run the reduction pipeline and report sizes")
    _add_graph_source(reduce_cmd)
    reduce_cmd.add_argument("-k", type=int, required=True)

    stats = subparsers.add_parser("stats", help="print structural and fairness statistics")
    _add_graph_source(stats)

    compare = subparsers.add_parser(
        "compare-models",
        help="solve the weak, relative, and strong fair clique models side by side",
    )
    _add_graph_source(compare)
    compare.add_argument("-k", type=int, required=True)
    compare.add_argument("-d", "--delta", type=int, required=True)
    compare.add_argument("--time-limit", type=float, default=None)

    reproduce = subparsers.add_parser("reproduce", help="re-run a paper table or figure")
    reproduce.add_argument("experiment", choices=experiment_ids())
    reproduce.add_argument("--scale", type=float, default=1.0,
                           help="dataset scale factor (smaller = faster)")
    reproduce.add_argument("--csv", help="also write the raw rows as CSV to this path")

    serve_cmd = subparsers.add_parser(
        "serve",
        help="run the async fair-clique query service (HTTP/JSON over a session pool)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument("--port", type=int, default=8710,
                           help="bind port (0 picks a free one)")
    serve_cmd.add_argument("--preload", action="append", default=[],
                           metavar="DATASET", choices=dataset_names(),
                           help="serve a built-in dataset (repeatable; the "
                                "graph id is the lowercased dataset name)")
    serve_cmd.add_argument("--scale", type=float, default=1.0,
                           help="scale factor for preloaded datasets")
    serve_cmd.add_argument("--session-capacity", type=int, default=8,
                           help="max warm sessions held in the LRU registry")
    serve_cmd.add_argument("--result-cache", type=int, default=1024,
                           help="cross-request result cache capacity (0 disables)")
    serve_cmd.add_argument("--max-in-flight", type=int, default=8,
                           help="max queries executing concurrently")
    serve_cmd.add_argument("--queue-depth", type=int, default=32,
                           help="max queries waiting beyond the in-flight cap "
                                "(the rest get 429)")
    serve_cmd.add_argument("--executor-workers", type=int, default=4,
                           help="worker threads in the executor backend")
    serve_cmd.add_argument("--default-tier", default="standard",
                           choices=("free", "standard", "unlimited"),
                           help="quota tier applied when a request names none")
    serve_cmd.add_argument("--breaker-threshold", type=int, default=5,
                           help="consecutive solve crashes before a graph's "
                                "circuit breaker opens (503s)")
    serve_cmd.add_argument("--breaker-reset", type=float, default=30.0,
                           metavar="SECONDS",
                           help="seconds an open breaker waits before "
                                "admitting a half-open probe")
    serve_cmd.add_argument("--data-dir", default=None, metavar="DIR",
                           help="durable state directory: uploaded graphs are "
                                "write-ahead logged, cacheable results and "
                                "parallel-solve checkpoints persist, and a "
                                "restart warm-boots from it (default: "
                                "in-memory only)")
    serve_cmd.add_argument("--wal-fsync-every", type=int, default=8,
                           metavar="N",
                           help="fsync the batched result WAL every N appends "
                                "(graph acks always fsync)")
    serve_cmd.add_argument("--wal-compact-every", type=int, default=256,
                           metavar="N",
                           help="rewrite a WAL as snapshot+tail every N "
                                "appends")

    subparsers.add_parser("datasets", help="list the built-in dataset stand-ins")
    subparsers.add_parser("engines", help="list registered engines and supported models")
    return parser


def _load_graph(args: argparse.Namespace):
    if getattr(args, "dataset", None):
        return load_dataset(args.dataset, scale=args.scale)
    if not args.attributes:
        raise SystemExit("--attributes is required when --edges is used")
    return read_edge_list(args.edges, args.attributes)


def _exact_options(args: argparse.Namespace) -> dict:
    """Exact-engine options from the shared CLI flags."""
    options: dict = {}
    bound = getattr(args, "bound", None)
    if bound is not None:
        options["bound_stack"] = None if bound == "none" else bound
    if getattr(args, "no_heuristic", False):
        options["use_heuristic"] = False
    if getattr(args, "no_reduction", False):
        options["use_reduction"] = False
    return options


def _print_clique_body(graph, report, report_path: str | None = None) -> None:
    """Everything below the headline: balance, members, optional report file."""
    if report.found:
        print(f"attribute balance: {report.attribute_counts}")
        for vertex in sorted(report.clique, key=str):
            print(f"  {vertex}\t{graph.attribute(vertex)}\t{graph.label(vertex)}")
        if report_path:
            write_clique_report(graph, report.clique, report_path)
            print(f"report written to {report_path}")
    else:
        model_word = "relative " if report.model == "relative" else f"{report.model} "
        suffix = "(k, delta)" if report.delta is not None else "k"
        print(f"no {model_word}fair clique satisfies the given {suffix}")


def _print_report(graph, report, report_path: str | None = None) -> None:
    print(report.summary())
    _print_clique_body(graph, report, report_path)


def _command_solve(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    # Exact-only flags are passed through for every engine: the engine's own
    # option validation rejects ones it does not understand, instead of the
    # CLI silently dropping them.
    options = _exact_options(args)
    base = dict(
        model=args.model,
        k=args.k,
        delta=args.delta,
        engine=args.engine,
        time_limit=args.time_limit,
        workers=args.search_workers,
        options=options,
    )
    if args.top_k is not None:
        base.update(task="top_k", count=args.top_k)
        if args.report:
            raise SystemExit("--report is not supported with --top-k "
                             "(the task prints a clique list, not one clique)")
    if args.stream and (args.sweep is not None or args.top_k is not None):
        raise SystemExit("--stream follows one maximum-clique solve; "
                         "it cannot combine with --sweep or --top-k")

    with FairCliqueSession(graph) as session:
        if args.stream:
            return _stream_solve(graph, session, FairCliqueQuery(**base), args.report)
        if args.sweep is None:
            report = session.solve(FairCliqueQuery(**base))
            if report.cliques is not None:
                _print_clique_list(graph, report)
                return 0
            _print_report(graph, report, args.report)
            return 0

        if not args.sweep_values:
            raise SystemExit("--sweep requires --sweep-values")
        if args.sweep == "delta" and args.model not in DELTA_MODELS:
            raise SystemExit(f"model {args.model!r} has no delta to sweep")
        if args.report:
            raise SystemExit("--report is not supported with --sweep "
                             "(the sweep prints a table, not one clique)")
        queries = []
        for value in args.sweep_values:
            fields = dict(base)
            fields[args.sweep] = value
            queries.append(FairCliqueQuery(**fields))
        reports = session.solve_many(queries, max_workers=args.workers)
        rows = [
            {
                args.sweep: getattr(query, args.sweep),
                "size": report.size,
                "counts": report.attribute_counts,
                "gap": report.fairness_gap,
                "optimal": report.optimal,
                "seconds": round(report.seconds, 3),
            }
            for query, report in zip(queries, reports)
        ]
        print(format_table(
            rows,
            title=f"{args.model}/{args.engine} sweep over {args.sweep} (k={args.k})",
        ))
        return 0


def _stream_solve(graph, session: FairCliqueSession, query: FairCliqueQuery,
                  report_path: str | None) -> int:
    """Print the incumbent trajectory live, then the final report."""
    final = None
    for event in session.stream(query):
        if event.final:
            final = event.report
            break
        members = ""
        if event.clique is not None:
            members = "  {" + ", ".join(sorted(map(str, event.clique))) + "}"
        print(f"[{event.seconds:8.3f}s] incumbent size={event.size}{members}",
              flush=True)
    assert final is not None
    print(f"[{final.seconds:8.3f}s] done")
    _print_report(graph, final, report_path)
    return 0


def _print_clique_list(graph, report) -> None:
    """Body of the enumeration tasks: one line per clique."""
    for clique in report.cliques:
        members = ", ".join(sorted(map(str, clique)))
        histogram = graph.attribute_histogram(clique)
        print(f"  size={len(clique)}  counts={histogram}  {{{members}}}")
    print(report.summary())


def _command_enumerate(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    query = FairCliqueQuery(
        model=args.model, k=args.k, delta=args.delta,
        engine=args.engine, task="enumerate",
    )
    total = 0
    sizes: dict[int, int] = {}
    with FairCliqueSession(graph) as session:
        # The generator is lazy: with --limit N nothing past the N-th clique
        # is ever enumerated.
        for clique in session.enumerate(query):
            total += 1
            sizes[len(clique)] = sizes.get(len(clique), 0) + 1
            members = ", ".join(sorted(map(str, clique)))
            print(f"  size={len(clique)}  {{{members}}}")
            if args.limit is not None and total >= args.limit:
                print(f"stopped at --limit {args.limit}")
                return 0
    by_size = ", ".join(
        f"{count}x size {size}" for size, count in sorted(sizes.items(), reverse=True)
    )
    print(f"{total} maximal {args.model} fair clique(s)"
          + (f": {by_size}" if total else ""))
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    options = _exact_options(args)
    query = FairCliqueQuery(
        model=args.model, k=args.k, delta=args.delta, engine=args.engine,
        workers=args.search_workers, options=options,
    )
    with FairCliqueSession(graph) as session:
        if args.warm:
            session.solve(query)
            info = session.cache_info()
            print(f"(warmed: {info['reductions']} reduction(s) cached)")
        print(session.explain(query).summary())
    return 0


def _command_search(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    with FairCliqueSession(graph) as session:
        report = session.solve(
            FairCliqueQuery(
                model="relative", k=args.k, delta=args.delta,
                time_limit=args.time_limit, options=_exact_options(args),
            ),
        )
    # Keep the historical one-line format ("MaxRFC...: size=...") on top.
    status = "optimal" if report.optimal else "heuristic/truncated"
    print(f"{report.algorithm}: size={report.size} (k={report.k}, delta={report.delta}, "
          f"{status}, {report.seconds:.3f}s, {report.stats.branches_explored} branches)")
    _print_clique_body(graph, report, args.report)
    return 0


def _command_reduce(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result = reduce_graph(graph, args.k)
    print(f"input: |V|={graph.num_vertices} |E|={graph.num_edges}")
    print(result.summary())
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.analysis import attribute_assortativity, summarize_graph

    graph = _load_graph(args)
    summary = summarize_graph(graph).as_dict()
    summary["attribute_assortativity"] = round(attribute_assortativity(graph), 4)
    width = max(len(key) for key in summary)
    for key, value in summary.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


def _command_compare_models(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    queries = [
        FairCliqueQuery(model="weak", k=args.k, time_limit=args.time_limit),
        FairCliqueQuery(model="relative", k=args.k, delta=args.delta,
                        time_limit=args.time_limit),
        FairCliqueQuery(model="strong", k=args.k, time_limit=args.time_limit),
    ]
    with FairCliqueSession(graph) as session:
        reports = session.solve_many(queries)
    rows = [
        {
            "model": report.model,
            "size": report.size,
            "counts": report.attribute_counts,
            "gap": report.fairness_gap,
            "seconds": round(report.seconds, 3),
        }
        for report in reports
    ]
    print(format_table(rows, title=f"Fair clique models (k={args.k}, delta={args.delta})"))
    return 0


def _command_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.figures import runtime_chart_from_rows

    outcome = run_experiment(args.experiment, scale=args.scale)
    print(outcome.report)
    # The chart plots runtime per configuration against k; experiments
    # whose rows vary something else (Fig. 9's sample fractions) get none.
    if outcome.rows and {"k", "runtime_us", "configuration"} <= outcome.rows[0].keys():
        print()
        print(runtime_chart_from_rows(
            outcome.rows,
            title=f"{args.experiment}: runtime (log-scale bars)",
        ))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(rows_to_csv(outcome.rows))
        print(f"rows written to {args.csv}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Run the service tier in the foreground until SIGINT/SIGTERM."""
    import signal
    import threading

    from repro.resilience import faults
    from repro.service import FairCliqueService, ServerHandle, ServiceConfig

    # Chaos harnesses arm fault plans through the environment; a normal
    # serve run pays one dict lookup here and nothing afterwards.  A
    # malformed plan refuses to boot — running a "chaos test" where no
    # fault can ever fire is worse than failing loudly.
    try:
        plan = faults.install_from_env()
    except faults.FaultPlanError as error:
        print(f"repro serve: {error}", file=sys.stderr, flush=True)
        return 2
    if plan is not None:
        print(f"fault injection armed: {len(plan.specs)} spec(s), "
              f"seed={plan.seed}", flush=True)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        session_capacity=args.session_capacity,
        result_cache_capacity=args.result_cache,
        max_in_flight=args.max_in_flight,
        queue_depth=args.queue_depth,
        executor_workers=args.executor_workers,
        default_tier=args.default_tier,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset,
        data_dir=args.data_dir,
        wal_fsync_every=args.wal_fsync_every,
        wal_compact_every=args.wal_compact_every,
    )
    service = FairCliqueService(config)
    if service.recovery is not None:
        recovery = service.recovery
        print(f"warm restart from {args.data_dir}: "
              f"{recovery['graphs_recovered']} graph(s), "
              f"{recovery['results_restored']} cached result(s), "
              f"{recovery['checkpoints_found']} solve checkpoint(s)"
              + (f", {recovery['truncated_bytes']} torn byte(s) truncated"
                 if recovery.get("truncated_bytes") else ""),
              flush=True)
    for name in args.preload:
        graph = load_dataset(name, scale=args.scale)
        service.add_graph(name.lower(), graph)
        print(f"serving graph {name.lower()!r}: "
              f"|V|={graph.num_vertices} |E|={graph.num_edges}", flush=True)

    handle = ServerHandle.start(service)
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        print("\nshutting down: draining in-flight queries...", flush=True)
        stop.set()

    signal.signal(signal.SIGINT, request_stop)
    signal.signal(signal.SIGTERM, request_stop)
    print(f"fair-clique service listening on {handle.address} "
          f"(tier={config.default_tier}, in-flight={config.max_in_flight}, "
          f"queue={config.queue_depth})", flush=True)
    print("endpoints: /healthz /metrics /graphs /solve /explain /stream /enumerate",
          flush=True)
    stop.wait()
    handle.stop()
    print("drained; bye", flush=True)
    return 0


def _command_datasets() -> int:
    rows = dataset_table(scale=1.0)
    print(format_table(rows, columns=["dataset", "n", "m", "d_max", "attributes", "description"],
                       title="Built-in dataset stand-ins (Table I analogue)"))
    return 0


def _command_engines() -> int:
    rows = [
        {
            "engine": name,
            "models": ", ".join(sorted(engine.models)),
            "description": engine.description,
        }
        for name, engine in ((n, default_registry.get(n)) for n in default_registry.names())
    ]
    print(format_table(rows, columns=["engine", "models", "description"],
                       title="Registered fair-clique engines"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, parser)
    except ReproError as error:
        # Library errors (bad parameters, unsupported model/engine pairs…)
        # become clean one-line failures instead of tracebacks.
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.command == "solve":
        return _command_solve(args)
    if args.command == "enumerate":
        return _command_enumerate(args)
    if args.command == "explain":
        return _command_explain(args)
    if args.command == "search":
        return _command_search(args)
    if args.command == "reduce":
        return _command_reduce(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "compare-models":
        return _command_compare_models(args)
    if args.command == "reproduce":
        return _command_reproduce(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "datasets":
        return _command_datasets()
    if args.command == "engines":
        return _command_engines()
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
