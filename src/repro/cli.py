"""Command-line interface for the 007 reproduction.

The subcommands cover the common workflows:

* ``scenario`` — run the full pipeline on a synthetic Clos fabric with injected
  failures and print the epoch report plus accuracy/precision/recall.
  Scenarios are shareable files: ``--dump-config out.json`` writes the
  resolved :class:`~repro.experiments.scenario.ScenarioConfig` (including any
  ``--timeline`` script) without running it, ``--config out.json`` runs one.
* ``experiment`` — regenerate one of the paper's tables/figures by name
  (``fig03``, ``table1``, ``sec83`` ...) and print its rows.
* ``checkpoint`` — inspect, convert (JSON <-> binary) and merge (delta onto
  base) service checkpoints written by ``Checkpoint.save``.
* ``fleet`` — the distributed deployment: ``fleet analyzer`` serves the
  socket ingest front-end, ``fleet agent`` streams one agent's evidence
  slice at it, and ``fleet run`` orchestrates N agents + one analyzer on
  localhost into a self-describing run directory (``repro.fleet``).
* ``pack`` — the named scenario-pack library (``repro.scenarios``):
  ``pack list`` shows the registry, ``pack validate`` schema-checks every
  ``scenario.json``/``expected.json``, and ``pack run --all`` executes each
  scenario against its committed golden metrics, deterministically at any
  ``--workers`` count.
* ``theory`` — evaluate Theorems 1 and 2 for a given topology sizing.

Installed as the ``repro-007`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.experiments.figures import FIGURES, MEASURED, run_figure
from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.netsim.script import ScenarioScript
from repro.topology.elements import LinkLevel, SwitchTier
from repro.theory.theorem1 import traceroute_rate_bound
from repro.theory.theorem2 import (
    max_detectable_bad_links,
    noise_tolerance_bound,
)
from repro.topology.clos import ClosParameters


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-007",
        description="Reproduction of '007: Democratically Finding the Cause of Packet Drops'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenario = subparsers.add_parser("scenario", help="run the full pipeline once")
    scenario.add_argument("--pods", type=int, default=2)
    scenario.add_argument("--tors-per-pod", type=int, default=10)
    scenario.add_argument("--t1-per-pod", type=int, default=4)
    scenario.add_argument("--t2", type=int, default=4)
    scenario.add_argument("--hosts-per-tor", type=int, default=3)
    scenario.add_argument("--bad-links", type=int, default=1)
    scenario.add_argument("--drop-rate", type=float, default=5e-3)
    scenario.add_argument("--connections-per-host", type=int, default=40)
    scenario.add_argument("--epochs", type=int, default=1)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--top", type=int, default=5, help="how many ranked links to print")
    scenario.add_argument(
        "--engine",
        choices=["arrays", "dicts"],
        default="arrays",
        help="analysis engine (vectorized default vs pure-Python reference)",
    )
    # time-varying timeline (scripted events on top of the static failures)
    scenario.add_argument(
        "--timeline",
        choices=["none", "flap", "burst", "reboot", "drain"],
        default="none",
        help="scripted per-epoch event timeline; victims are chosen randomly "
        "(seeded) at the given level",
    )
    scenario.add_argument(
        "--event-start", type=int, default=2, help="epoch the scripted event begins"
    )
    scenario.add_argument(
        "--event-duration", type=int, default=3, help="epochs the scripted event lasts"
    )
    scenario.add_argument(
        "--event-rate",
        type=float,
        default=1e-2,
        help="drop rate of flap/burst events (reboot/drain always blackhole)",
    )
    scenario.add_argument(
        "--num-events",
        type=int,
        default=1,
        help="how many flaps (or links per burst) the timeline contains",
    )
    scenario.add_argument(
        "--event-level",
        choices=["host", "1", "2"],
        default="1",
        help="link level the scripted events strike (host-ToR, ToR-T1, T1-T2)",
    )
    scenario.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="run the scenario described by a JSON config file (written by "
        "--dump-config); the other scenario flags are ignored",
    )
    scenario.add_argument(
        "--dump-config",
        metavar="PATH",
        default=None,
        help="write the resolved scenario config as JSON ('-' for stdout) "
        "and exit without running",
    )

    experiment = subparsers.add_parser("experiment", help="regenerate a table/figure")
    experiment.add_argument("name", choices=sorted([*FIGURES, *MEASURED]))
    experiment.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep experiments (1 = serial; results are "
        "byte-identical at any worker count)",
    )
    experiment.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the experiment's default trials per sweep point",
    )

    checkpoint = subparsers.add_parser(
        "checkpoint",
        help="inspect, convert or merge service checkpoints",
    )
    checkpoint_sub = checkpoint.add_subparsers(
        dest="checkpoint_command", required=True
    )
    ckpt_inspect = checkpoint_sub.add_parser(
        "inspect",
        help="print a checkpoint's format, kind, counters and epoch contents",
    )
    ckpt_inspect.add_argument("path", help="checkpoint file (JSON or binary)")
    ckpt_convert = checkpoint_sub.add_parser(
        "convert",
        help="rewrite a checkpoint in the other serialization",
    )
    ckpt_convert.add_argument("src", help="source checkpoint (JSON or binary)")
    ckpt_convert.add_argument("dst", help="destination path")
    ckpt_convert.add_argument(
        "--format",
        choices=["binary", "json"],
        default="binary",
        help="serialization to write (default: binary)",
    )
    ckpt_merge = checkpoint_sub.add_parser(
        "merge",
        help="apply a delta checkpoint onto its full base",
    )
    ckpt_merge.add_argument("base", help="full base checkpoint")
    ckpt_merge.add_argument("delta", help="delta checkpoint taken against it")
    ckpt_merge.add_argument("out", help="where to write the merged checkpoint")
    ckpt_merge.add_argument(
        "--format",
        choices=["binary", "json"],
        default="binary",
        help="serialization to write (default: binary)",
    )

    fleet = subparsers.add_parser(
        "fleet",
        help="distributed fleet: socket analyzer, agent senders, run orchestration",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_workload_arguments(command, events_default: int) -> None:
        command.add_argument(
            "--fabric",
            default="tiny",
            choices=["tiny", "small", "medium", "large"],
            help="fabric preset the synthetic workload is generated over",
        )
        command.add_argument(
            "--profile",
            choices=["uniform", "skewed", "hot-tor"],
            default="skewed",
            help="traffic mix of the synthetic workload",
        )
        command.add_argument(
            "--timeline",
            choices=["none", "flap", "burst"],
            default="none",
            help="scripted failure timeline biasing the workload over time",
        )
        command.add_argument("--epochs", type=int, default=3)
        command.add_argument(
            "--events-per-epoch", type=int, default=events_default
        )
        command.add_argument("--seed", type=int, default=7)
        command.add_argument(
            "--chunk-events",
            type=int,
            default=1024,
            help="evidence events per wire chunk",
        )

    fleet_analyzer = fleet_sub.add_parser(
        "analyzer",
        help="serve the socket ingest front-end until a query-socket shutdown",
    )
    fleet_analyzer.add_argument(
        "--bind",
        default="tcp:127.0.0.1:0",
        help="evidence listener endpoint (tcp:HOST:PORT or unix:/PATH; "
        "port 0 = kernel-assigned)",
    )
    fleet_analyzer.add_argument(
        "--query-bind",
        default="tcp:127.0.0.1:0",
        help="newline-JSON query listener endpoint",
    )
    fleet_analyzer.add_argument(
        "--num-agents",
        type=int,
        default=1,
        help="agents whose ticks form each epoch's finalize barrier",
    )
    fleet_analyzer.add_argument(
        "--mode",
        choices=["events", "columns"],
        default="events",
        help="ingest core: decoded events through a real service, or the "
        "arrays-only columnar fold",
    )
    fleet_analyzer.add_argument(
        "--engine", choices=["arrays", "dicts"], default="arrays"
    )
    fleet_analyzer.add_argument(
        "--shards",
        type=int,
        default=1,
        help="service shards behind the events mode (1 = unsharded)",
    )
    fleet_analyzer.add_argument(
        "--backend",
        choices=["inline", "process"],
        default="inline",
        help="shard executor backend when --shards > 1",
    )
    fleet_analyzer.add_argument("--workers", type=int, default=None)
    fleet_analyzer.add_argument("--retain-reports", type=int, default=16)
    fleet_analyzer.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        help="seconds of agent silence before the connection is dropped",
    )
    fleet_analyzer.add_argument(
        "--ready-file",
        metavar="PATH",
        default=None,
        help="write the bound endpoints as JSON here once listening "
        "(how the runner discovers kernel-assigned ports)",
    )

    fleet_agent = fleet_sub.add_parser(
        "agent",
        help="stream one agent's deterministic workload slice at an analyzer",
    )
    fleet_agent.add_argument("--agent-id", required=True)
    fleet_agent.add_argument(
        "--connect", required=True, help="analyzer evidence endpoint"
    )
    fleet_agent.add_argument("--agent-index", type=int, required=True)
    fleet_agent.add_argument("--num-agents", type=int, required=True)
    _fleet_workload_arguments(fleet_agent, events_default=4000)
    fleet_agent.add_argument(
        "--fail-after-events",
        type=int,
        default=None,
        help="scripted chaos: die mid-run (exit 17, socket left severed) "
        "after sending this many events",
    )
    fleet_agent.add_argument(
        "--log",
        metavar="PATH",
        default=None,
        help="append lifecycle events as JSONL here",
    )

    fleet_run = fleet_sub.add_parser(
        "run",
        help="orchestrate N agents + one analyzer on localhost into a run dir",
    )
    fleet_run.add_argument(
        "--run-dir",
        required=True,
        help="directory for meta.json / summary.json / per-agent JSONL",
    )
    fleet_run.add_argument(
        "--transport", choices=["tcp", "unix"], default="tcp"
    )
    fleet_run.add_argument("--agents", type=int, default=4)
    fleet_run.add_argument("--shards", type=int, default=2)
    fleet_run.add_argument(
        "--mode", choices=["events", "columns"], default="events"
    )
    fleet_run.add_argument(
        "--engine", choices=["arrays", "dicts"], default="arrays"
    )
    fleet_run.add_argument(
        "--backend", choices=["inline", "process"], default="inline"
    )
    fleet_run.add_argument("--workers", type=int, default=None)
    _fleet_workload_arguments(fleet_run, events_default=4000)
    fleet_run.add_argument(
        "--kill-agent",
        type=int,
        default=None,
        help="index of the agent to kill mid-run and relaunch",
    )
    fleet_run.add_argument(
        "--kill-after-events",
        type=int,
        default=None,
        help="events the victim sends before dying "
        "(default: half its share)",
    )
    fleet_run.add_argument(
        "--no-verify-replay",
        action="store_true",
        help="skip the bit-identity check against a single-process replay",
    )
    fleet_run.add_argument(
        "--timeout",
        type=float,
        default=180.0,
        help="hard deadline on the whole run, seconds",
    )

    pack = subparsers.add_parser(
        "pack", help="run, list or validate the named scenario-pack library"
    )
    pack_sub = pack.add_subparsers(dest="pack_command", required=True)

    def _pack_dir_argument(command) -> None:
        command.add_argument(
            "--dir",
            default=None,
            help="pack directory (default: $REPRO_SCENARIO_PACK, ./scenarios, "
            "or the checkout's scenarios/)",
        )

    pack_list = pack_sub.add_parser("list", help="list the pack's scenarios")
    _pack_dir_argument(pack_list)

    pack_validate = pack_sub.add_parser(
        "validate", help="schema-validate every scenario.json + expected.json"
    )
    _pack_dir_argument(pack_validate)

    pack_run = pack_sub.add_parser(
        "run", help="run scenarios and compare against their goldens"
    )
    _pack_dir_argument(pack_run)
    pack_run.add_argument(
        "names", nargs="*", help="scenario names to run (default with --all: every one)"
    )
    pack_run.add_argument(
        "--all", action="store_true", help="run every scenario in the pack"
    )
    pack_run.add_argument(
        "--workers", type=int, default=1, help="worker processes (results identical at any count)"
    )
    pack_run.add_argument(
        "--update-goldens",
        action="store_true",
        help="write expected.json from this run instead of comparing",
    )
    pack_run.add_argument(
        "--report-dir",
        default=None,
        help="write one <name>.report.json per scenario into this directory",
    )

    theory = subparsers.add_parser("theory", help="evaluate Theorems 1 and 2")
    theory.add_argument("--pods", type=int, default=2)
    theory.add_argument("--tors-per-pod", type=int, default=20)
    theory.add_argument("--t1-per-pod", type=int, default=8)
    theory.add_argument("--t2", type=int, default=8)
    theory.add_argument("--hosts-per-tor", type=int, default=20)
    theory.add_argument("--tmax", type=int, default=100)
    theory.add_argument("--bad-links", type=int, default=10)
    theory.add_argument("--bad-drop-rate", type=float, default=5e-4)
    theory.add_argument("--packets-lower", type=int, default=50)
    theory.add_argument("--packets-upper", type=int, default=100)
    return parser


_EVENT_LEVELS = {
    "host": LinkLevel.HOST,
    "1": LinkLevel.LEVEL1,
    "2": LinkLevel.LEVEL2,
}


def _build_timeline(args: argparse.Namespace) -> Optional[ScenarioScript]:
    """Translate the ``--timeline`` flags into a :class:`ScenarioScript`."""
    if args.timeline == "none":
        return None
    level = _EVENT_LEVELS[args.event_level]
    script = ScenarioScript()
    if args.timeline == "flap":
        # successive (non-overlapping) flaps: simultaneous random flaps could
        # resolve to the same victim and silently collapse into one; links
        # congesting together is what --timeline burst expresses.
        for i in range(max(1, args.num_events)):
            script.flap(
                start=args.event_start + i * (args.event_duration + 1),
                duration=args.event_duration,
                drop_rate=args.event_rate,
                level=level,
            )
    elif args.timeline == "burst":
        script.burst(
            start=args.event_start,
            duration=args.event_duration,
            level=level,
            num_links=max(1, args.num_events),
            drop_rate=args.event_rate,
        )
    elif args.timeline == "reboot":
        script.reboot_switch(
            epoch=args.event_start,
            tier=SwitchTier.T1,
            outage_epochs=args.event_duration,
        )
    elif args.timeline == "drain":
        script.drain(start=args.event_start, duration=args.event_duration, level=level)
    return script


def _run_scenario_command(args: argparse.Namespace, out) -> int:
    if args.config is not None:
        with open(args.config) as handle:
            data = json.load(handle)
        if "pack_version" in data and "config" in data:
            # a scenario-pack envelope (scenarios/<name>/scenario.json):
            # run the wrapped config directly
            data = data["config"]
        config = ScenarioConfig.from_dict(data)
        script = config.script
    else:
        script = _build_timeline(args)
        config = ScenarioConfig(
            npod=args.pods,
            n0=args.tors_per_pod,
            n1=args.t1_per_pod,
            n2=args.t2,
            hosts_per_tor=args.hosts_per_tor,
            num_bad_links=args.bad_links,
            drop_rate_range=(args.drop_rate, args.drop_rate),
            connections_per_host=args.connections_per_host,
            epochs=args.epochs,
            seed=args.seed,
            engine=args.engine,
            script=script,
        )
    if args.dump_config is not None:
        text = json.dumps(config.to_dict(), indent=2, sort_keys=True)
        if args.dump_config == "-":
            print(text, file=out)
        else:
            with open(args.dump_config, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote scenario config to {args.dump_config}", file=out)
        return 0

    # the multi-epoch aggregator rides along as a report sink, folding in
    # every finalized epoch as the analysis service produces it.
    from repro.core.aggregate import MultiEpochAggregator

    aggregator = MultiEpochAggregator()
    result = run_scenario(config, sinks=(aggregator,))
    report = result.reports[-1]
    print(result.topology.describe(), file=out)
    print("injected failures:", file=out)
    for link, rate in sorted(result.failure_scenario.drop_rates.items()):
        print(f"  {link} at {rate:.3%}", file=out)
    if script is not None:
        per_epoch = result.per_epoch_detection_007()
        print("per-epoch timeline:", file=out)
        for i, score in enumerate(per_epoch):
            truth = result.truth_for_epoch(i)
            detected = result.reports[i].detected_links
            print(
                f"  epoch {i}: {len(truth.bad_links)} bad link(s), "
                f"{len(detected)} detected, precision {score.precision:.2f}, "
                f"recall {score.recall:.2f}",
                file=out,
            )
        for link, latency in sorted(result.time_to_detection_007().items()):
            latency_text = "never" if latency is None else f"{latency} epoch(s)"
            print(f"  time to detection of {link}: {latency_text}", file=out)
        false_alarms = result.false_alarm_rate_007()
        if false_alarms == false_alarms:  # not nan
            print(f"  false-alarm rate after clear: {false_alarms:.2f}", file=out)
    print(report.summary(), file=out)
    print(f"top {args.top} voted links:", file=out)
    for link, votes in report.top_links(args.top):
        print(f"  {votes:8.2f}  {link}", file=out)
    score = result.detection_007(epoch_index=len(result.reports) - 1)
    print(
        f"detection: precision {score.precision:.2f}, recall {score.recall:.2f}; "
        f"per-flow accuracy {result.accuracy_007(len(result.reports) - 1):.2f}",
        file=out,
    )
    mean_det, std_det = aggregator.detections_per_epoch()
    print(
        f"aggregate over {aggregator.epochs_ingested} epoch(s): "
        f"{mean_det:.2f} ± {std_det:.2f} link(s) flagged per epoch",
        file=out,
    )
    return 0


def _run_experiment_command(args: argparse.Namespace, out) -> int:
    figure = FIGURES.get(args.name)
    if figure is not None:
        runner = SweepRunner(workers=max(1, args.workers))
        result = run_figure(figure, trials=args.trials, runner=runner)
    else:
        if args.workers > 1:
            print(
                f"warning: experiment {args.name!r} does not run sweeps; "
                "--workers ignored",
                file=sys.stderr,
            )
        if args.trials is not None:
            print(
                f"warning: experiment {args.name!r} has no trial count; "
                "--trials ignored",
                file=sys.stderr,
            )
        result = MEASURED[args.name]()
    print(result.format_table(), file=out)
    return 0


def _run_checkpoint_command(args: argparse.Namespace, out) -> int:
    from pathlib import Path

    from repro.api.checkpoint import (
        CHECKPOINT_MAGIC,
        Checkpoint,
        epoch_columns,
    )

    try:
        if args.checkpoint_command == "inspect":
            path = Path(args.path)
            data = path.read_bytes()
            fmt = "binary" if data.startswith(CHECKPOINT_MAGIC) else "json"
            checkpoint = Checkpoint.load(path)
            payload = checkpoint.payload
            delta_text = " (delta)" if checkpoint.is_delta else ""
            print(
                f"{path}: {fmt} checkpoint, payload v{checkpoint.version}, "
                f"kind={checkpoint.kind}{delta_text}, {len(data):,} bytes",
                file=out,
            )
            print(
                f"  last_finalized={payload.get('last_finalized')} "
                f"max_epoch_seen={payload.get('max_epoch_seen')}",
                file=out,
            )
            if checkpoint.kind == "sharded":
                print(f"  num_shards={payload['num_shards']}", file=out)
            epochs = payload.get("epochs", [])
            if not epochs:
                print(f"  {checkpoint.kind}: no open epochs", file=out)
            for entry in epochs:
                updates = len(epoch_columns(entry, checkpoint.columns, ("rs",))["rs"])
                print(
                    f"  {checkpoint.kind}: epoch {entry['epoch']}: "
                    f"{entry['records']['count']:,} path records, "
                    f"{updates:,} consumed update seqs",
                    file=out,
                )
            return 0
        if args.checkpoint_command == "convert":
            checkpoint = Checkpoint.load(args.src)
            checkpoint.save(args.dst, format=args.format)
            size = Path(args.dst).stat().st_size
            print(
                f"wrote {args.format} checkpoint to {args.dst} "
                f"({size:,} bytes)",
                file=out,
            )
            return 0
        if args.checkpoint_command == "merge":
            base = Checkpoint.load(args.base)
            delta = Checkpoint.load(args.delta)
            merged = base.apply_delta(delta)
            merged.save(args.out, format=args.format)
            size = Path(args.out).stat().st_size
            print(
                f"merged {args.delta} onto {args.base}; wrote {args.format} "
                f"checkpoint to {args.out} ({size:,} bytes)",
                file=out,
            )
            return 0
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(
        f"unhandled checkpoint command {args.checkpoint_command!r}"
    )  # pragma: no cover


def _run_fleet_analyzer_command(args: argparse.Namespace, out) -> int:
    import asyncio
    import os

    from repro.fleet.analyzer import (
        ColumnarIngestCore,
        FleetAnalyzer,
        ServiceIngestCore,
    )
    from repro.fleet.protocol import parse_endpoint

    if args.mode == "columns":
        if args.engine != "arrays":
            print("error: the columns mode is arrays-only", file=sys.stderr)
            return 2
        core = ColumnarIngestCore(retain_reports=args.retain_reports)
    else:
        from repro.api.service import Zero07Service
        from repro.api.sharded import ShardedService

        if args.shards == 1:
            service = Zero07Service(
                engine=args.engine, retain_reports=args.retain_reports
            )
        else:
            service = ShardedService(
                num_shards=args.shards,
                engine=args.engine,
                backend=args.backend,
                workers=args.workers,
                retain_reports=args.retain_reports,
            )
        core = ServiceIngestCore(service)
    analyzer = FleetAnalyzer(
        core,
        expected_agents=args.num_agents,
        idle_timeout=args.idle_timeout,
    )

    async def serve() -> None:
        bound, query_bound = await analyzer.start(
            parse_endpoint(args.bind), parse_endpoint(args.query_bind)
        )
        ready = {"evidence": str(bound), "query": str(query_bound)}
        if args.ready_file is not None:
            # atomic publish: the runner reads the file as soon as it exists.
            tmp = args.ready_file + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(ready, sort_keys=True) + "\n")
            os.replace(tmp, args.ready_file)
        print(
            f"FLEET-ANALYZER READY evidence={ready['evidence']} "
            f"query={ready['query']}",
            file=out,
            flush=True,
        )
        await analyzer.run()

    asyncio.run(serve())
    print(
        f"fleet analyzer done: {analyzer.stats.evidence_events} events from "
        f"{len(analyzer.agents)} agent(s), "
        f"{analyzer.stats.epochs_finalized} epoch(s) finalized",
        file=out,
    )
    return 0


def _run_fleet_agent_command(args: argparse.Namespace, out) -> int:
    from repro.fleet.agent import FleetAgentClient, jsonl_logger
    from repro.fleet.protocol import parse_endpoint
    from repro.fleet.runner import build_generator

    generator = build_generator(
        args.fabric, args.profile, args.timeline, args.seed,
        args.events_per_epoch,
    )
    client = FleetAgentClient(
        args.agent_id,
        parse_endpoint(args.connect),
        chunk_events=args.chunk_events,
        reconnect_seed=args.seed * 10007 + args.agent_index,
        fail_after_events=args.fail_after_events,
        log=jsonl_logger(args.log) if args.log else None,
    )
    client.connect()
    try:
        for epoch in range(args.epochs):
            client.send_run(
                epoch,
                generator.agent_events(
                    epoch, args.agent_index, args.num_agents
                ),
            )
            client.tick(epoch)
        client.drain()
    finally:
        client.close()
    stats = client.stats
    print(
        f"{args.agent_id}: {stats.events_sent} events in "
        f"{stats.chunks_sent} chunk(s), {stats.reconnects} reconnect(s), "
        f"{stats.redelivered_chunks} redelivered chunk(s)",
        file=out,
    )
    return 0


def _run_fleet_run_command(args: argparse.Namespace, out) -> int:
    from repro.fleet.runner import FleetRunConfig, run_fleet

    try:
        config = FleetRunConfig(
            run_dir=args.run_dir,
            agents=args.agents,
            shards=args.shards,
            transport=args.transport,
            mode=args.mode,
            engine=args.engine,
            backend=args.backend,
            workers=args.workers,
            fabric=args.fabric,
            profile=args.profile,
            timeline=args.timeline,
            epochs=args.epochs,
            events_per_epoch=args.events_per_epoch,
            seed=args.seed,
            chunk_events=args.chunk_events,
            kill_agent=args.kill_agent,
            kill_after_events=args.kill_after_events,
            verify_replay=not args.no_verify_replay,
            timeout=args.timeout,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        summary = run_fleet(
            config, progress=lambda message: print(message, file=out)
        )
    except Exception as error:
        print(f"error: fleet run failed: {error}", file=sys.stderr)
        return 1
    for entry in summary["epochs"]:
        marker = (
            ""
            if entry.get("replay_match") is None
            else (" replay=match" if entry["replay_match"] else " replay=DIFF")
        )
        print(
            f"epoch {entry['epoch']}: {len(entry['truth'])} bad link(s), "
            f"{len(entry['detected'])} detected{marker}",
            file=out,
        )
    if summary.get("kill"):
        kill = summary["kill"]
        print(
            f"scripted kill: agent-{kill['agent']} exit {kill['exit_code']}, "
            f"recovered in {kill.get('recovery_seconds', 0.0):.2f}s",
            file=out,
        )
    verdict = summary.get("replay_equivalent")
    print(
        f"fleet run {'converged' if summary['converged'] else 'FAILED'} in "
        f"{summary['duration_seconds']:.2f}s; replay equivalence: "
        f"{'not checked' if verdict is None else ('bit-identical' if verdict else 'MISMATCH')}",
        file=out,
    )
    print(f"run directory: {args.run_dir}", file=out)
    ok = summary["converged"] and verdict is not False
    return 0 if ok else 1


def _run_fleet_command(args: argparse.Namespace, out) -> int:
    if args.fleet_command == "analyzer":
        return _run_fleet_analyzer_command(args, out)
    if args.fleet_command == "agent":
        return _run_fleet_agent_command(args, out)
    if args.fleet_command == "run":
        return _run_fleet_run_command(args, out)
    raise AssertionError(
        f"unhandled fleet command {args.fleet_command!r}"
    )  # pragma: no cover


def _run_pack_command(args: argparse.Namespace, out) -> int:
    from repro.scenarios import (
        PackValidationError,
        compare_to_golden,
        load_pack,
        outcome_document,
        run_pack,
        write_golden,
    )

    try:
        pack = load_pack(args.dir)
    except PackValidationError as exc:
        print(f"pack error: {exc}", file=out)
        return 1

    if args.pack_command == "list":
        for name, scenario in pack.items():
            golden = "golden" if scenario.expected is not None else "NO GOLDEN"
            print(
                f"{name}: {scenario.title or '(untitled)'} "
                f"[epochs={scenario.config.epochs}, trials={scenario.trials}, "
                f"{golden}]",
                file=out,
            )
        return 0

    if args.pack_command == "validate":
        # load_pack already schema-validated every file; report what it saw.
        missing = [n for n, s in pack.items() if s.expected is None]
        print(f"{len(pack)} scenario(s) valid", file=out)
        if missing:
            print(f"missing goldens: {', '.join(missing)}", file=out)
            return 1
        return 0

    # pack run ----------------------------------------------------------
    if args.all and args.names:
        print("pack run: pass either --all or scenario names, not both", file=out)
        return 2
    if args.all:
        selected = list(pack.values())
    elif args.names:
        unknown = [name for name in args.names if name not in pack]
        if unknown:
            print(
                f"unknown scenario(s): {', '.join(unknown)} "
                f"(known: {', '.join(pack)})",
                file=out,
            )
            return 2
        selected = [pack[name] for name in args.names]
    else:
        print("pack run: give scenario names or --all", file=out)
        return 2

    runner = SweepRunner(workers=args.workers)
    outcomes = run_pack(selected, runner=runner)

    if args.report_dir is not None:
        import os

        os.makedirs(args.report_dir, exist_ok=True)

    failed = False
    for scenario in selected:
        outcome = outcomes[scenario.name]
        if args.update_goldens:
            document = write_golden(scenario, outcome)
            print(f"{scenario.name}: wrote {scenario.expected_path}", file=out)
            violations: List[str] = []
        elif scenario.expected is None:
            document = outcome_document(outcome)
            violations = [
                "no expected.json committed (run with --update-goldens)"
            ]
        else:
            document = outcome_document(outcome)
            violations = compare_to_golden(scenario.expected, outcome)

        if args.report_dir is not None:
            report_path = f"{args.report_dir}/{scenario.name}.report.json"
            with open(report_path, "w") as handle:
                json.dump(
                    {
                        "scenario": scenario.name,
                        "actual": document,
                        "violations": violations,
                    },
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")

        if not args.update_goldens:
            if violations:
                failed = True
                print(f"{scenario.name}: FAIL", file=out)
                for violation in violations:
                    print(f"  {violation}", file=out)
            else:
                print(f"{scenario.name}: ok", file=out)
    return 1 if failed else 0


def _run_theory_command(args: argparse.Namespace, out) -> int:
    params = ClosParameters(
        npod=args.pods,
        n0=args.tors_per_pod,
        n1=args.t1_per_pod,
        n2=args.t2,
        hosts_per_tor=args.hosts_per_tor,
    )
    ct = traceroute_rate_bound(params, tmax=args.tmax)
    print(f"Theorem 1: per-host traceroute budget Ct = {ct:.2f}/s (Tmax={args.tmax})", file=out)
    if params.npod >= 2:
        k_max = max_detectable_bad_links(params)
        print(f"Theorem 2: detectable simultaneous bad links k < {k_max:.1f}", file=out)
        if args.bad_links < k_max:
            pg = noise_tolerance_bound(
                params, args.bad_drop_rate, args.bad_links, args.packets_lower, args.packets_upper
            )
            print(
                f"Theorem 2: with {args.bad_links} bad links at drop rate {args.bad_drop_rate:.2%}, "
                f"good links may drop up to {pg:.2e} per packet",
                file=out,
            )
        else:
            print("Theorem 2: requested bad-link count exceeds the detectable bound", file=out)
    else:
        print("Theorem 2: requires at least two pods", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "scenario":
        return _run_scenario_command(args, out)
    if args.command == "experiment":
        return _run_experiment_command(args, out)
    if args.command == "checkpoint":
        return _run_checkpoint_command(args, out)
    if args.command == "fleet":
        return _run_fleet_command(args, out)
    if args.command == "pack":
        return _run_pack_command(args, out)
    if args.command == "theory":
        return _run_theory_command(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
