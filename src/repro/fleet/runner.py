"""The fleet experiment runner: N agent processes + one analyzer, one run dir.

:func:`run_fleet` launches a :class:`~repro.fleet.analyzer.FleetAnalyzer`
and ``agents`` sender processes on localhost (as ``repro.cli fleet ...``
subprocesses), optionally kills one agent mid-run (the scripted failure),
waits for every epoch to finalize, and writes a self-describing run
directory:

* ``meta.json`` — the resolved config, endpoints and launch commands;
* ``summary.json`` — convergence, per-epoch link-level report signatures
  (the per-flow positions ``null``, as the ``report`` verb serves them),
  detected links vs the generator's ground truth, analyzer/agent stats, the
  kill record, and the replay-equivalence verdict;
* ``agent-<i>.jsonl`` — each agent's lifecycle log (connects, reconnects,
  redeliveries, ticks), one JSON object per line;
* ``analyzer.log`` / ``agent-<i>.log`` — raw subprocess output.

Every process regenerates its slice of the workload deterministically from
the shared ``(fabric, profile, timeline, seed, events_per_epoch)`` tuple,
so the runner can verify the distributed run against a single-process
``ingest_batch`` replay bit-for-bit (``verify_replay``) without shipping
events between processes twice.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.service import Zero07Service
from repro.fleet.agent import KILL_EXIT_CODE
from repro.fleet.protocol import Endpoint, parse_endpoint
from repro.loadgen import EvidenceLoadGenerator, WorkloadProfile
from repro.netsim.script import ScenarioScript
from repro.testing import report_signature
from repro.topology.elements import LinkLevel

#: summary.json schema tag; bump when the run-dir contract changes.
RUN_SCHEMA = "fleet-run-v1"

FLEET_TIMELINES = ("none", "flap", "burst")


def fleet_timeline(name: str) -> Optional[ScenarioScript]:
    """The scripted failure timeline of a fleet run, by name.

    Shared by the runner, the agent CLI and the replay verifier — all three
    must resolve the identical script for the streams to line up.
    """
    if name == "none":
        return None
    script = ScenarioScript()
    if name == "flap":
        script.flap(start=1, duration=2, drop_rate=1e-2, level=LinkLevel.LEVEL1)
    elif name == "burst":
        script.burst(
            start=1, duration=2, level=LinkLevel.LEVEL1, num_links=2,
            drop_rate=1e-2,
        )
    else:
        raise ValueError(f"unknown fleet timeline {name!r}")
    return script


def build_generator(
    fabric: str,
    profile: str,
    timeline: str,
    seed: int,
    events_per_epoch: int,
) -> EvidenceLoadGenerator:
    """The deterministic workload every fleet process regenerates."""
    return EvidenceLoadGenerator(
        fabric=fabric,
        profile=WorkloadProfile.named(profile),
        script=fleet_timeline(timeline),
        seed=seed,
        events_per_epoch=events_per_epoch,
    )


def json_signature(report) -> List:
    """A report's signature round-tripped through JSON (tuples → lists).

    The query socket serves signatures as JSON, so equality checks against
    locally computed signatures must normalize both sides the same way
    (the remote side is :meth:`FleetQueryClient.report_signature`).
    """
    return json.loads(json.dumps(report_signature(report)))


class FleetQueryClient:
    """Blocking newline-JSON client of the analyzer's query socket."""

    def __init__(self, endpoint: Endpoint, timeout: float = 10.0) -> None:
        self._sock = endpoint.connect(timeout=timeout)
        self._reader = self._sock.makefile("rb")

    def request(self, payload: Dict) -> Dict:
        """One request/response round trip."""
        self._sock.sendall(
            json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        )
        line = self._reader.readline()
        if not line:
            raise ConnectionError("analyzer query socket closed")
        return json.loads(line)

    def report_signature(
        self, epoch: Optional[int] = None, page_limit: Optional[int] = None
    ) -> List:
        """The full ten-position signature of ``epoch``'s report, equal to
        :func:`json_signature` of the report object the analyzer holds."""
        return self.full_report(epoch, page_limit)[1]

    def full_report(
        self, epoch: Optional[int] = None, page_limit: Optional[int] = None
    ) -> Tuple[Dict, List]:
        """``epoch``'s ``report`` document as served, and its full signature.

        ``report`` serves the link-level positions; the three per-flow ones
        are put together from ``flows`` pages of ``page_limit`` flows (the
        analyzer's cap when ``None``).  Every reply names the ``view`` it was
        read from: when an open epoch moves under the pager it starts over,
        so the result is always one report's signature, never a blend.
        """
        if page_limit is not None and page_limit < 1:
            raise ValueError("page_limit must be at least 1")
        attempts = 8  # walks before an epoch that keeps moving is given up on
        for _ in range(attempts):
            response = self._checked({"cmd": "report", "epoch": epoch})
            document = response["report"]
            if any(document["flows"].values()):
                per_flow = self._paged_flows(
                    document["epoch"], response["view"], page_limit
                )
            else:
                # nothing to page — and for an epoch nobody sent evidence for
                # no view to hold on to: every query builds its report anew
                per_flow = [], [], []
            if per_flow is not None:
                signature = list(document["signature"])
                signature[3:6] = per_flow
                return document, signature
        raise RuntimeError(
            f"epoch {epoch} kept changing: no consistent view of its flows "
            f"in {attempts} attempts"
        )

    def _paged_flows(
        self, epoch: int, view: int, page_limit: Optional[int]
    ) -> Optional[Tuple[List, List, List]]:
        """Signature positions 3-5 of the report behind ``view``, page by
        page; ``None`` as soon as a page comes from another view."""
        causes, noise, failure = [], [], []
        request = {"cmd": "flows", "epoch": epoch, "offset": 0}
        if page_limit is not None:
            request["limit"] = page_limit
        while True:
            page = self._checked(request)
            if page["view"] != view:
                return None
            for flow, cause, is_noise, is_failure in page["flows"]:
                if cause is not None:
                    causes.append([flow, cause])
                if is_noise:
                    noise.append(flow)
                if is_failure:
                    failure.append(flow)
            request["offset"] += len(page["flows"])
            if request["offset"] >= page["total"]:
                return causes, noise, failure

    def _checked(self, payload: Dict) -> Dict:
        """:meth:`request`, with an error reply raised."""
        response = self.request(payload)
        if not response.get("ok"):
            raise RuntimeError(
                f"{payload.get('cmd')} query failed: {response.get('error')}"
            )
        return response

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FleetQueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class FleetRunConfig:
    """Everything one localhost fleet run needs (all of it deterministic)."""

    run_dir: str
    agents: int = 4
    shards: int = 2
    transport: str = "tcp"  # tcp | unix
    mode: str = "events"  # events (full service) | columns (arrays turbo)
    engine: str = "arrays"
    backend: str = "inline"
    workers: Optional[int] = None
    fabric: str = "tiny"
    profile: str = "skewed"
    timeline: str = "none"
    epochs: int = 3
    events_per_epoch: int = 4000
    seed: int = 7
    chunk_events: int = 1024
    kill_agent: Optional[int] = None
    kill_after_events: Optional[int] = None
    verify_replay: bool = True
    timeout: float = 180.0

    def __post_init__(self) -> None:
        if self.agents < 1:
            raise ValueError("agents must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.transport not in ("tcp", "unix"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.mode not in ("events", "columns"):
            raise ValueError(f"unknown analyzer mode {self.mode!r}")
        if self.mode == "columns" and self.engine != "arrays":
            raise ValueError("the columns analyzer mode is arrays-only")
        if self.engine not in ("arrays", "dicts"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.timeline not in FLEET_TIMELINES:
            raise ValueError(f"unknown fleet timeline {self.timeline!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.kill_agent is not None and not (
            0 <= self.kill_agent < self.agents
        ):
            raise ValueError("kill_agent must name a launched agent index")

    def as_dict(self) -> Dict:
        """The config as a JSON-serializable mapping."""
        return asdict(self)


def _agent_command(
    config: FleetRunConfig,
    index: int,
    endpoint: str,
    run_dir: Path,
    fail_after_events: Optional[int],
) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "fleet",
        "agent",
        "--agent-id",
        f"agent-{index}",
        "--connect",
        endpoint,
        "--agent-index",
        str(index),
        "--num-agents",
        str(config.agents),
        "--fabric",
        config.fabric,
        "--profile",
        config.profile,
        "--timeline",
        config.timeline,
        "--epochs",
        str(config.epochs),
        "--events-per-epoch",
        str(config.events_per_epoch),
        "--seed",
        str(config.seed),
        "--chunk-events",
        str(config.chunk_events),
        "--log",
        str(run_dir / f"agent-{index}.jsonl"),
    ]
    if fail_after_events is not None:
        command += ["--fail-after-events", str(fail_after_events)]
    return command


def _subprocess_env() -> Dict[str, str]:
    import repro

    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _launch(command: List[str], log_path: Path, env: Dict[str, str]):
    log = open(log_path, "ab")
    process = subprocess.Popen(
        command, stdout=log, stderr=subprocess.STDOUT, env=env
    )
    process._fleet_log_handle = log  # closed in _reap
    return process


def _reap(process) -> None:
    handle = getattr(process, "_fleet_log_handle", None)
    if handle is not None:
        handle.close()


def _terminate(process, grace: float = 5.0) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    _reap(process)


def _wait_ready(path: Path, process, deadline: float) -> Dict:
    while time.monotonic() < deadline:
        if path.exists():
            text = path.read_text()
            if text.endswith("\n"):  # written atomically, newline-terminated
                return json.loads(text)
        if process.poll() is not None:
            raise RuntimeError(
                f"analyzer exited with status {process.returncode} "
                "before binding its sockets"
            )
        time.sleep(0.05)
    raise TimeoutError("analyzer did not report readiness in time")


def _replay_signatures(config: FleetRunConfig) -> List[List]:
    """Per-epoch signatures of the single-process ``ingest_batch`` replay."""
    generator = build_generator(
        config.fabric,
        config.profile,
        config.timeline,
        config.seed,
        config.events_per_epoch,
    )
    service = Zero07Service(
        engine=config.engine, retain_reports=max(8, config.epochs)
    )
    for epoch in range(config.epochs):
        service.ingest_batch(generator.epoch_events(epoch, tick=True))
    return [
        json_signature(service.report(epoch)) for epoch in range(config.epochs)
    ]


def run_fleet(
    config: FleetRunConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Execute one localhost fleet run; returns the written summary."""

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    run_dir = Path(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    env = _subprocess_env()
    start = time.monotonic()
    deadline = start + config.timeout

    if config.transport == "tcp":
        bind = "tcp:127.0.0.1:0"
        query_bind = "tcp:127.0.0.1:0"
    else:
        bind = f"unix:{run_dir / 'evidence.sock'}"
        query_bind = f"unix:{run_dir / 'query.sock'}"
    ready_path = run_dir / "analyzer-ready.json"
    if ready_path.exists():
        ready_path.unlink()
    analyzer_command = [
        sys.executable,
        "-m",
        "repro.cli",
        "fleet",
        "analyzer",
        "--bind",
        bind,
        "--query-bind",
        query_bind,
        "--num-agents",
        str(config.agents),
        "--mode",
        config.mode,
        "--engine",
        config.engine,
        "--shards",
        str(config.shards),
        "--backend",
        config.backend,
        "--retain-reports",
        str(max(16, config.epochs)),
        "--ready-file",
        str(ready_path),
    ]
    if config.workers is not None:
        analyzer_command += ["--workers", str(config.workers)]

    meta = {
        "schema": RUN_SCHEMA,
        "created_at": time.time(),
        "config": config.as_dict(),
        "analyzer_command": analyzer_command,
    }
    (run_dir / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )

    analyzer = _launch(analyzer_command, run_dir / "analyzer.log", env)
    agents: Dict[int, object] = {}
    summary: Dict = {"schema": RUN_SCHEMA, "config": config.as_dict()}
    kill_record: Optional[Dict] = None
    try:
        ready = _wait_ready(ready_path, analyzer, deadline)
        evidence_endpoint = ready["evidence"]
        query_endpoint = parse_endpoint(ready["query"])
        meta["endpoints"] = ready
        (run_dir / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )
        say(f"analyzer ready at {evidence_endpoint}")

        kill_threshold = None
        if config.kill_agent is not None:
            share = (config.epochs * config.events_per_epoch) // max(
                1, config.agents
            )
            kill_threshold = (
                config.kill_after_events
                if config.kill_after_events is not None
                else max(1, share // 2)
            )
        for index in range(config.agents):
            fail_after = (
                kill_threshold if index == config.kill_agent else None
            )
            command = _agent_command(
                config, index, evidence_endpoint, run_dir, fail_after
            )
            agents[index] = _launch(
                command, run_dir / f"agent-{index}.log", env
            )
        say(f"launched {config.agents} agent(s)")

        if config.kill_agent is not None:
            victim = agents[config.kill_agent]
            while victim.poll() is None:
                if time.monotonic() > deadline:
                    raise TimeoutError("scripted kill never fired")
                time.sleep(0.05)
            _reap(victim)
            killed_at = time.monotonic()
            relaunch = _agent_command(
                config,
                config.kill_agent,
                evidence_endpoint,
                run_dir,
                None,
            )
            agents[config.kill_agent] = _launch(
                relaunch, run_dir / f"agent-{config.kill_agent}.log", env
            )
            kill_record = {
                "agent": config.kill_agent,
                "fail_after_events": kill_threshold,
                "exit_code": victim.returncode,
                "exit_code_expected": KILL_EXIT_CODE,
                "relaunched": True,
            }
            say(
                f"agent-{config.kill_agent} died with status "
                f"{victim.returncode}; relaunched"
            )

        exit_codes: Dict[int, int] = {}
        for index, process in agents.items():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                exit_codes[index] = process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise TimeoutError(f"agent-{index} did not finish in time")
            finally:
                _reap(process)
        say("all agents drained and exited")

        query = FleetQueryClient(query_endpoint)
        try:
            while True:
                stats = query.request({"cmd": "stats"})
                if stats["last_finalized"] == config.epochs - 1:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "analyzer never finalized the last epoch "
                        f"(stuck at {stats['last_finalized']})"
                    )
                time.sleep(0.05)
            if kill_record is not None:
                kill_record["recovery_seconds"] = time.monotonic() - killed_at
            describe = query.request({"cmd": "describe"})["describe"]
            generator = build_generator(
                config.fabric,
                config.profile,
                config.timeline,
                config.seed,
                config.events_per_epoch,
            )
            epochs: List[Dict] = []
            served: List[List] = []  # full signatures, for the replay check
            for epoch in range(config.epochs):
                if config.verify_replay:
                    report, full_signature = query.full_report(epoch)
                    served.append(full_signature)
                else:
                    report = query._checked(
                        {"cmd": "report", "epoch": epoch}
                    )["report"]
                epochs.append(
                    {
                        "epoch": epoch,
                        "signature": report["signature"],
                        "detected": report["detected_links"],
                        "truth": [
                            str(link)
                            for link in generator.bad_links_for_epoch(epoch)
                        ],
                    }
                )
            summary["analyzer"] = {
                "stats": stats["stats"],
                "agents": stats["agents"],
                "describe": describe,
            }
            query.request({"cmd": "shutdown"})
        finally:
            query.close()
        analyzer_exit = analyzer.wait(timeout=30)
        _reap(analyzer)

        replay_equivalent: Optional[bool] = None
        if config.verify_replay:
            say("verifying against a single-process replay")
            reference = _replay_signatures(config)
            replay_equivalent = True
            for entry, signature, expected in zip(epochs, served, reference):
                match = signature == expected
                entry["replay_match"] = match
                replay_equivalent = replay_equivalent and match

        for entry in epochs:
            truth = set(entry["truth"])
            entry["truth_detected"] = truth <= set(entry["detected"])

        summary.update(
            {
                "endpoints": ready,
                "converged": True,
                "epochs": epochs,
                "agents": [
                    {
                        "agent_id": f"agent-{index}",
                        "index": index,
                        "exit_code": exit_codes[index],
                        "log": f"agent-{index}.jsonl",
                    }
                    for index in sorted(agents)
                ],
                "kill": kill_record,
                "replay_equivalent": replay_equivalent,
                "analyzer_exit_code": analyzer_exit,
                "duration_seconds": time.monotonic() - start,
            }
        )
        return summary
    except BaseException as error:
        summary.update(
            {
                "converged": False,
                "error": f"{type(error).__name__}: {error}",
                "kill": kill_record,
                "duration_seconds": time.monotonic() - start,
            }
        )
        raise
    finally:
        for process in agents.values():
            _terminate(process)
        _terminate(analyzer)
        (run_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )


def validate_run_dir(path) -> Dict:
    """Check a fleet run directory against the run-dir contract.

    Raises ``ValueError`` naming the first violation; returns the parsed
    ``summary.json`` when the directory is valid.
    """
    run_dir = Path(path)
    if not run_dir.is_dir():
        raise ValueError(f"{run_dir} is not a directory")
    for name in ("meta.json", "summary.json"):
        if not (run_dir / name).is_file():
            raise ValueError(f"{run_dir} is missing {name}")
    meta = json.loads((run_dir / "meta.json").read_text())
    for key in ("schema", "config", "analyzer_command"):
        if key not in meta:
            raise ValueError(f"meta.json is missing {key!r}")
    summary = json.loads((run_dir / "summary.json").read_text())
    if summary.get("schema") != RUN_SCHEMA:
        raise ValueError(
            f"summary.json schema {summary.get('schema')!r} != {RUN_SCHEMA!r}"
        )
    for key in ("config", "converged", "duration_seconds"):
        if key not in summary:
            raise ValueError(f"summary.json is missing {key!r}")
    if not isinstance(summary["converged"], bool):
        raise ValueError("summary.json converged must be a boolean")
    if summary["converged"]:
        for key in ("endpoints", "epochs", "agents", "replay_equivalent"):
            if key not in summary:
                raise ValueError(f"summary.json is missing {key!r}")
        config = summary["config"]
        epochs = summary["epochs"]
        if len(epochs) != config["epochs"]:
            raise ValueError(
                f"summary has {len(epochs)} epoch entries, "
                f"config says {config['epochs']}"
            )
        for entry in epochs:
            for key in ("epoch", "signature", "detected", "truth"):
                if key not in entry:
                    raise ValueError(f"epoch entry is missing {key!r}")
        for agent in summary["agents"]:
            log = run_dir / agent["log"]
            if not log.is_file():
                raise ValueError(f"{run_dir} is missing {agent['log']}")
            with open(log, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, 1):
                    try:
                        json.loads(line)
                    except json.JSONDecodeError:
                        raise ValueError(
                            f"{agent['log']}:{line_number} is not JSON"
                        ) from None
    return summary
