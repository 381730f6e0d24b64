"""Command-line interface: ``python -m repro <command>``.

Commands
--------
factor   factor a random matrix with any registered algorithm
         (``--algo``, capabilities via ``--list``), report residual +
         volume (phase breakdown with -v)
bounds   print the I/O lower bound of a kernel (lu / mmm / cholesky)
plan     Processor Grid Optimization + model predictions for a machine
models   evaluate the Table 2 models at one (N, P)
sweep    run the paper's experiment grids through the parallel sweep
         engine (--list / --run / --resume / --show-cache /
         --clear-cache)
serve    run the factorization service's TCP front-end (newline-
         delimited JSON requests against the algorithm registry)
loadgen  generate a synthetic workload (Zipf sizes, open/closed loop)
         against an in-process service and report tail latency,
         throughput, cache hit rate and rejections
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

import numpy as np


def _print_machines() -> None:
    from repro.models.machines import list_machines

    print(f"{'name':<14} {'ranks':>7} {'mem/rank':>9} {'alpha':>9} "
          f"{'beta':>9} {'gamma':>9} topology")
    for m in list_machines():
        print(f"{m.name:<14} {m.total_ranks:>7,} "
              f"{m.memory_per_rank_bytes / 2**30:>8.2f}G "
              f"{m.alpha:>9.2e} {m.beta:>9.2e} "
              f"{m.gamma_flops:>9.2e} {m.topology}")


def _usage_error(exc: Exception) -> NoReturn:
    """Report bad input as ``error: ...`` and exit 2."""
    # A KeyError's str() quotes its message; an OSError's args[0] is
    # its errno.
    print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}",
          file=sys.stderr)
    raise SystemExit(2)


def _cmd_factor(args: argparse.Namespace) -> int:
    from repro.algorithms import (
        FactorVerificationError,
        factor,
        get_algorithm,
        list_algorithms,
    )

    if args.list_machines:
        _print_machines()
        return 0
    if args.list:
        print(f"{'name':<13} {'kind':<5} {'grid':<5} {'block':<6} "
              f"description")
        for info in list_algorithms():
            print(f"{info.name:<13} {info.kind:<5} "
                  f"{info.grid_family:<5} {info.block_param:<6} "
                  f"{info.description}")
        return 0

    blocks = {
        key: value for key, value in (("v", args.v), ("nb", args.nb))
        if value is not None
    }
    try:
        info = get_algorithm(args.algo)
        rng = np.random.default_rng(args.seed)
        if info.kind == "chol":
            b = rng.standard_normal((args.n, args.n))
            a = b @ b.T + args.n * np.eye(args.n)
        else:
            a = rng.standard_normal((args.n, args.n))
        res = factor(
            info.name, a, args.p, machine=args.machine, faults=args.faults,
            fault_seed=args.fault_seed, timeout_s=args.timeout, **blocks,
        )
    except FactorVerificationError:
        raise  # wrong factors are a finding, not a usage error
    except (ValueError, TypeError, KeyError, OSError) as exc:
        # Bad input: factor() checks its arguments, the machine spec and
        # the fault plan before any rank starts.
        _usage_error(exc)
    print(res.describe())
    faults_report = res.volume.faults
    if faults_report is not None:
        by_action = ", ".join(
            f"{action}: {count}"
            for action, count in sorted(
                faults_report["by_action"].items()
            )
        ) or "none fired"
        print(f"injected faults: {faults_report['n_injected']} "
              f"({by_action})")
    print(f"per-rank volume: {res.volume.per_rank_bytes:,.0f} B")
    if "orthogonality" in res.meta:
        print(f"orthogonality ||Q^T Q - I||: "
              f"{res.meta['orthogonality']:.2e}")
    timing = res.volume.timing
    if timing is not None:
        print(f"predicted time on {timing.machine}: "
              f"{timing.makespan:.6e} s "
              f"(compute {timing.total_compute_seconds:.3e} s, "
              f"comm {timing.total_comm_seconds:.3e} s)")
    if args.verbose:
        for phase, nbytes in sorted(
            res.volume.phase_bytes.items(), key=lambda kv: -kv[1]
        ):
            msgs = res.volume.phase_messages.get(phase, 0)
            secs = (
                f"  {timing.phase_seconds.get(phase, 0.0):.3e} s"
                if timing is not None else ""
            )
            print(f"  {phase:<20} {nbytes:>12,} B  {msgs:>8,} msgs"
                  f"{secs}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.theory import (
        cholesky_program,
        lu_program,
        mmm_program,
        program_lower_bound,
    )

    for flag, value in (("--n", args.n), ("--m", args.m), ("--p", args.p)):
        if not value >= 1:
            _usage_error(ValueError(f"{flag} must be >= 1, got {value:g}"))
    programs = {
        "lu": lu_program,
        "mmm": mmm_program,
        "cholesky": cholesky_program,
    }
    pb = program_lower_bound(programs[args.kernel](), args.n, float(args.m))
    print(f"{args.kernel.upper()} I/O lower bound, N={args.n}, M={args.m:g}:")
    for name, q in pb.per_statement.items():
        print(f"  {name:<4} Q >= {q:,.0f} elements")
    print(f"  total   Q >= {pb.q_total:,.0f} elements "
          f"({pb.q_total * 8 / 1e6:.2f} MB)")
    if args.p > 1:
        print(f"  parallel (P={args.p}): Q >= {pb.q_parallel(args.p):,.0f} "
              f"elements/processor")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.algorithms.gridopt import optimize_grid_25d
    from repro.models.machines import resolve_machine
    from repro.models.prediction import reduction_vs_second_best

    try:
        machine = resolve_machine(args.machine)
        p = machine.total_ranks if args.p is None else args.p
        choice = optimize_grid_25d(
            p, args.n, m_max=machine.memory_per_rank_elements
        )
    except (KeyError, ValueError, OSError) as exc:
        _usage_error(exc)
    print(f"{machine.name}: N={args.n:,}, P={p:,}")
    print(f"grid [G,G,c] = [{choice.grid_rows}, {choice.grid_rows}, "
          f"{choice.layers}], {choice.disabled_ranks} ranks disabled")
    # priced at the replication depth the chosen grid runs
    point = reduction_vs_second_best(args.n, p, c=choice.layers)
    for impl, vol in sorted(point.volumes.items(), key=lambda kv: kv[1]):
        print(f"  {impl:<14} {vol / 1e9:10.3f} GB")
    print(f"best: {point.best} ({point.reduction:.2f}x less than "
          f"{point.second_best})")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.models.prediction import sweep_models

    try:
        volumes = sweep_models(args.n, args.p, leading_only=args.leading)
    except ValueError as exc:
        _usage_error(exc)
    flavor = "leading factors" if args.leading else "exact per-step"
    print(f"Table 2 models ({flavor}), N={args.n:,}, P={args.p:,}:")
    for impl, vol in sorted(volumes.items(), key=lambda kv: kv[1]):
        print(f"  {impl:<14} {vol / 1e9:10.3f} GB total, "
              f"{vol / args.p / 1e6:8.2f} MB/rank")
    return 0


def _sweep_row_columns(rows: list[dict]) -> list[tuple[str, str]]:
    """Column order for sweep output: identity axes first, then the
    headline metrics, in first-row key order.  Nested breakdowns and
    per-rank vectors are skipped (``-v`` runs show them per point);
    columns that are ``None`` in every row (e.g. the timing fields of a
    volume-only sweep) are dropped."""
    lead = ("impl", "n", "p", "v", "machine")
    skip = {"phase_bytes", "phase_seconds", "rank_seconds"}
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys and key not in skip:
                keys.append(key)
    keys = [
        k for k in keys
        if any(row.get(k) is not None for row in rows)
    ]
    keys.sort(
        key=lambda k: lead.index(k) if k in lead else len(lead)
    )
    return [(k, k) for k in keys]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.cache import SweepCache, default_cache_dir
    from repro.harness.reporting import format_table
    from repro.harness.specs import SPECS, named_spec
    from repro.harness.sweep import run_sweep

    cache_dir = args.cache_dir or default_cache_dir()
    cache = None if args.no_cache else SweepCache(cache_dir)

    if args.list:
        print(f"{'name':<22} {'points':>6}  description")
        for name in sorted(SPECS):
            spec = named_spec(name)
            print(f"{name:<22} {len(spec.points()):>6}  "
                  f"{spec.description}")
        return 0

    if args.show_cache:
        stats = SweepCache(cache_dir).stats()
        print(f"cache: {stats['root']}")
        print(f"entries: {stats['entries']}")
        for name, count in sorted(stats["by_task"].items()):
            print(f"  {name:<18} {count:>6}")
        print(f"compute seconds cached: "
              f"{stats['compute_seconds_saved']:.2f}")
        return 0

    if args.clear_cache:
        removed = SweepCache(cache_dir).clear()
        print(f"removed {removed} entries from {cache_dir}")
        return 0

    name = args.run or args.resume
    if not name:
        _usage_error(ValueError(
            "nothing to do: pass --run NAME, --resume NAME, --list, "
            "--show-cache or --clear-cache"
        ))

    try:
        spec = named_spec(name)
    except KeyError as exc:
        _usage_error(exc)

    def progress(res) -> None:
        if args.verbose:
            origin = "cache" if res.from_cache else f"{res.elapsed_s:.2f}s"
            note = f"  [{res.error}]" if res.error else ""
            print(f"  {res.status:<7} {res.point.label()} "
                  f"({origin}){note}")

    try:
        result = run_sweep(
            spec,
            workers=args.workers,
            cache=cache,
            max_points=args.max_points,
            force=args.force,
            progress=progress if args.verbose else None,
        )
    except ValueError as exc:
        _usage_error(exc)
    rows = result.rows(strict=False)
    if rows:
        print(format_table(
            rows,
            _sweep_row_columns(rows),
            title=f"sweep {name}: {spec.description}",
        ))
    for failure in result.failures():
        print(f"FAILED {failure.point.label()}: {failure.error}",
              file=sys.stderr)
    print(result.summary())
    if cache is not None:
        print(f"cache: {cache.root}")
    return 1 if result.n_failed else 0


def _from_flags(cls: type, args: argparse.Namespace, kind: str):
    """``cls`` built from only the flags the user gave: a flag that sets
    a field stores under the field's name and has no default of its
    own, so every default is the dataclass's."""
    import dataclasses

    from repro.documents import read

    given = {
        f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
        if hasattr(args, f.name)
    }
    return read(cls, given, kind)


def _service_cache(args: argparse.Namespace, tmp_dir: str | None = None):
    """Result cache per the --cache-dir / --no-cache flags; falls back
    to ``tmp_dir`` (loadgen's fresh scratch cache) when neither is
    given, or the shared sweep cache when there is no fallback."""
    from repro.harness.cache import SweepCache, default_cache_dir

    if args.no_cache:
        return None
    if args.cache_dir:
        return SweepCache(args.cache_dir)
    if tmp_dir is not None:
        return SweepCache(tmp_dir)
    return SweepCache(default_cache_dir())


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import FactorService, ServiceConfig, serve_tcp

    try:
        config = _from_flags(ServiceConfig, args, "service")
    except ValueError as exc:
        _usage_error(exc)
    cache = _service_cache(args)

    async def run() -> None:
        service = FactorService(config, cache=cache)
        async with service:
            server = await serve_tcp(service, args.host, args.port)
            addr = server.sockets[0].getsockname()
            print(f"serving factorizations on {addr[0]}:{addr[1]} "
                  f"(workers={config.workers}, "
                  f"queue_depth={config.queue_depth})")
            print("protocol: one JSON request per line, e.g. "
                  '{"impl": "conflux", "n": 64, "p": 4, "seed": 0} — '
                  '{"op": "metrics"} for live metrics; Ctrl-C to stop')
            async with server:
                await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.service import ServiceConfig, WorkloadSpec, run_workload

    try:
        config = _from_flags(ServiceConfig, args, "service")
        spec = _from_flags(WorkloadSpec, args, "workload")
    except ValueError as exc:
        _usage_error(exc)

    # Default to a fresh scratch cache so repeated loadgen runs report
    # reproducible hit counts; --cache-dir opts into a persistent
    # (sweep-shared) cache, --no-cache disables caching entirely.
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        cache = _service_cache(args, tmp_dir=tmp)
        report = run_workload(config, spec, cache=cache)

    print(report.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.json}")
    counts = report.metrics["counts"]
    return 1 if counts["errors"] else 0


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, help="worker threads")
    parser.add_argument("--queue-depth", type=int,
                        help="admission bound: queued jobs before "
                             "rejection")
    parser.add_argument("--timeout", type=float, dest="request_timeout_s",
                        help="per-request timeout in seconds")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result cache directory "
                             "(shared with the sweep engine)")
    parser.add_argument("--no-cache", action="store_true", default=False,
                        help="serve without a result cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COnfLUX reproduction toolkit (PPoPP 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factor", help="run a distributed factorization")
    f.add_argument("--algo", default="conflux",
                   metavar="NAME",
                   help="registered algorithm name (see --list)")
    f.add_argument("--list", action="store_true",
                   help="list registered algorithms and capabilities")
    f.add_argument("--n", type=int, default=256)
    f.add_argument("--p", type=int, default=16)
    f.add_argument("--v", type=int, default=None, help="2.5D block size")
    f.add_argument("--nb", type=int, default=None, help="2D block size")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--machine", default=None, metavar="PRESET|PATH",
                   help="machine preset name or Machine JSON path; "
                        "turns on the discrete-event clock")
    f.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="arm deterministic fault injection from a "
                        "FaultPlan JSON file")
    f.add_argument("--fault-seed", type=int, default=None,
                   help="override the plan's seed (replay variants)")
    f.add_argument("--timeout", type=float, default=None,
                   help="wall budget of the run in seconds")
    f.add_argument("--list-machines", action="store_true",
                   help="list the machine presets and their "
                        "alpha/beta/gamma parameters")
    f.add_argument("-v", "--verbose", action="store_true",
                   dest="verbose")
    f.set_defaults(fn=_cmd_factor)

    b = sub.add_parser("bounds", help="derive I/O lower bounds")
    b.add_argument("--kernel", default="lu",
                   choices=["lu", "mmm", "cholesky"])
    b.add_argument("--n", type=int, default=4096)
    b.add_argument("--m", type=float, default=1 << 20)
    b.add_argument("--p", type=int, default=1)
    b.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("plan", help="plan a run on a machine preset")
    p.add_argument("--machine", default="piz_daint",
                   metavar="PRESET|PATH",
                   help="machine preset name or Machine JSON path, as "
                        "for 'factor' (see 'factor --list-machines'; "
                        "the simulator scale is 'laptop-sim')")
    p.add_argument("--n", type=int, default=16384)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(fn=_cmd_plan)

    m = sub.add_parser("models", help="evaluate the Table 2 models")
    m.add_argument("--n", type=int, default=16384)
    m.add_argument("--p", type=int, default=1024)
    m.add_argument("--leading", action="store_true",
                   help="leading factors only (figure convention)")
    m.set_defaults(fn=_cmd_models)

    s = sub.add_parser(
        "sweep",
        help="run experiment grids through the parallel sweep engine",
    )
    action = s.add_mutually_exclusive_group()
    action.add_argument("--list", action="store_true",
                        help="list the named sweeps and their sizes")
    action.add_argument("--run", metavar="NAME",
                        help="execute a named sweep")
    action.add_argument("--resume", metavar="NAME",
                        help="alias of --run: cached points are skipped, "
                             "failed/missing ones re-executed")
    action.add_argument("--show-cache", action="store_true",
                        help="summarise the result cache")
    action.add_argument("--clear-cache", action="store_true",
                        help="delete every cached result")
    s.add_argument("--workers", type=int, default=4,
                   help="worker processes (<=1 runs inline; default 4)")
    s.add_argument("--max-points", type=int, default=None,
                   help="truncate the grid (CI smoke runs)")
    s.add_argument("--force", action="store_true",
                   help="recompute even on cache hits")
    s.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_SWEEP_CACHE "
                        "or ~/.cache/repro/sweeps)")
    s.add_argument("--no-cache", action="store_true",
                   help="run without reading or writing the cache")
    s.add_argument("-v", "--verbose", action="store_true",
                   dest="verbose", help="per-point progress lines")
    s.set_defaults(fn=_cmd_sweep)

    # serve and loadgen flags that set a ServiceConfig / WorkloadSpec
    # field have no default (argument_default): see _from_flags.
    srv = sub.add_parser(
        "serve",
        help="serve factorization requests over TCP (JSON lines)",
        argument_default=argparse.SUPPRESS,
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7077)
    _add_service_flags(srv)
    srv.set_defaults(fn=_cmd_serve)

    lg = sub.add_parser(
        "loadgen",
        help="run a synthetic workload against an in-process service",
        argument_default=argparse.SUPPRESS,
    )
    lg.add_argument("--mode", choices=["closed", "open"],
                    help="closed: fixed concurrency; open: Poisson "
                         "arrivals at --rate regardless of completions")
    lg.add_argument("--requests", type=int)
    lg.add_argument("--clients", type=int,
                    help="closed-loop concurrency")
    lg.add_argument("--rate", type=float, dest="rate_rps",
                    help="open-loop arrival rate in req/s")
    lg.add_argument("--seed", type=int,
                    help="workload seed (the request stream is a pure "
                         "function of it)")
    lg.add_argument("--zipf-s", type=float,
                    help="Zipf skew of sizes and repeat matrices")
    lg.add_argument("--sizes", type=int, nargs="+",
                    help="problem-size catalog, most popular first")
    lg.add_argument("--seed-pool", type=int,
                    help="distinct matrices per size (smaller pool = "
                         "more cache hits)")
    lg.add_argument("--algo", dest="impl",
                    help="registered algorithm to request")
    lg.add_argument("--p", type=int, help="ranks per request")
    lg.add_argument("--json", default=None, metavar="PATH",
                    help="also write the report document as JSON")
    _add_service_flags(lg)
    lg.set_defaults(fn=_cmd_loadgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
