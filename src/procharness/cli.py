"""Command-line entry point.

Stages are separate subcommands (``gen``, ``serve``, ``run``, ``classify``,
``report``) so traces captured elsewhere can still be classified and
reported. Exit codes: 0 success, 1 usage error, 2 partial failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import threading
from pathlib import Path

from .archive import load_documents
from .config import HarnessConfig, load_config
from .model import ModelError
from .runner import (
    SCENARIO_A,
    SCENARIO_B,
    classify_archive,
    run_batch,
    write_reports,
)
from .toolsim import (
    ENCAPSULATED_SERVER_ID,
    KPI_SERVER_ID,
    PROCEDURE_SERVER_ID,
    build_kpi_pool,
    gen_stress_procedure,
)
from .wire import ToolServer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2

DEFAULT_SERVER_PORTS = (8801, 8802, 8803)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--out", type=Path, default=Path("out"), help="output directory (default: out)"
    )
    parser.add_argument(
        "--servers",
        default=None,
        help="host:port,host:port,host:port for tool servers 1-3 "
        "(default: in-process loopback)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="override config worker count"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="procharness", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write the KPI pool and stress procedures")
    _common_flags(p_gen)

    p_serve = sub.add_parser("serve", help="run the three tool servers over HTTP")
    _common_flags(p_serve)

    p_run = sub.add_parser("run", help="execute a scenario batch")
    _common_flags(p_run)
    p_run.add_argument("--scenario", choices=[SCENARIO_A, SCENARIO_B], required=True)

    p_classify = sub.add_parser("classify", help="annotate an archive with verdicts")
    _common_flags(p_classify)
    p_classify.add_argument("--scenario", choices=[SCENARIO_A, SCENARIO_B], required=True)
    p_classify.add_argument("--archive", type=Path, default=None, help="input archive")

    p_report = sub.add_parser("report", help="emit summary CSV and markdown")
    _common_flags(p_report)
    p_report.add_argument("--scenario", choices=[SCENARIO_A, SCENARIO_B], required=True)
    p_report.add_argument("--archive", type=Path, default=None, help="classified archive")
    p_report.add_argument(
        "--fold-other",
        action="store_true",
        help="fold the residual deviation class into the wrong-order column",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> HarnessConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)
    return config


def _parse_servers(value: str | None) -> dict[int, str] | None:
    if value is None:
        return None
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError("--servers needs exactly three host:port entries")
    return {i + 1: f"http://{p}" for i, p in enumerate(parts)}


def _archive_path(out_dir: Path, scenario: str) -> Path:
    return out_dir / f"runs_{scenario.lower()}.jsonl"


def _classified_path(out_dir: Path, scenario: str) -> Path:
    return out_dir / f"runs_{scenario.lower()}_classified.jsonl"


def cmd_gen(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = build_kpi_pool(config.seed)
    pool_path = out_dir / "kpi_pool.json"
    pool_path.write_text(
        json.dumps(pool.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written = [pool_path]
    for k in config.scenario_b.k_values:
        intent, procedure = gen_stress_procedure(pool, k, config.seed)
        path = out_dir / f"stress_k{k:03d}.json"
        path.write_text(
            json.dumps(
                {"k": k, "intent": intent.to_dict(), "procedure": procedure.to_dict()},
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    from .runner import HarnessEnv

    config = _resolve_config(args)
    env = HarnessEnv(config)
    binds = []
    if args.servers:
        for part in args.servers.split(","):
            host, _, port = part.strip().rpartition(":")
            binds.append((host or "127.0.0.1", int(port)))
        if len(binds) != 3:
            print("serve needs exactly three host:port entries", file=sys.stderr)
            return EXIT_USAGE
    else:
        binds = [("127.0.0.1", p) for p in DEFAULT_SERVER_PORTS]

    servers = []
    for server_id, (host, port) in zip(
        (ENCAPSULATED_SERVER_ID, PROCEDURE_SERVER_ID, KPI_SERVER_ID), binds
    ):
        server = ToolServer(env.hosts[server_id], host, port).start()
        servers.append(server)
        print(f"server {server_id} listening on {server.url}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        for server in servers:
            server.close()
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    try:
        server_urls = _parse_servers(args.servers)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    archive_path = _archive_path(args.out, args.scenario)
    stats = run_batch(
        config, args.scenario, archive_path, server_urls, progress=print
    )
    print(
        f"scenario {args.scenario}: {stats.attempted} new runs, "
        f"{stats.skipped} already present, {stats.backend_errors} backend errors "
        f"-> {archive_path}"
    )
    return EXIT_PARTIAL if stats.backend_errors else EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    in_path = args.archive or _archive_path(args.out, args.scenario)
    if not in_path.exists():
        print(f"archive not found: {in_path}", file=sys.stderr)
        return EXIT_USAGE
    out_path = _classified_path(args.out, args.scenario)
    classified, corrupt = classify_archive(config, in_path, out_path)
    print(f"classified {classified} runs ({corrupt} corrupt lines) -> {out_path}")
    return EXIT_PARTIAL if corrupt else EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    in_path = args.archive or _classified_path(args.out, args.scenario)
    if not in_path.exists():
        print(f"classified archive not found: {in_path}", file=sys.stderr)
        return EXIT_USAGE
    docs = load_documents(in_path)
    csv_path = args.out / f"summary_{args.scenario.lower()}.csv"
    md_path = args.out / f"report_{args.scenario.lower()}.md"
    write_reports(docs, csv_path, md_path, fold_other_into_wrong_order=args.fold_other)
    print(csv_path)
    print(md_path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": cmd_gen,
        "serve": cmd_serve,
        "run": cmd_run,
        "classify": cmd_classify,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ModelError as exc:  # a bad config, found before any run starts
        print(f"{parser.prog} {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
