"""Public-API snapshot of ``repro.api``.

The streaming service is the repo's stable system boundary: CLI, sweeps,
aggregation and external consumers all build on it.  This test pins the
exported names *and the signatures of the core entry points*, so an
accidental breaking change (renamed method, reordered/removed parameter,
changed default) fails CI and has to be made deliberately — by updating this
snapshot in the same commit that changes the surface.
"""

from __future__ import annotations

import inspect

import repro.api as api

EXPECTED_EXPORTS = {
    # events
    "Evidence",
    "PathEvidence",
    "RetransmissionEvidence",
    "EpochTick",
    "evidence_to_dict",
    "evidence_from_dict",
    # service
    "Zero07Service",
    "ServiceStats",
    "EvidenceSource",
    "ReportSink",
    "ReportUnavailableError",
    "CallbackSink",
    "DetectionLogSink",
    # scale-out
    "ShardedService",
    "shard_of_host",
    "ShardExecutor",
    "InlineExecutor",
    "ProcessExecutor",
    "ShardExecutorError",
    # evidence transport
    "WireEncoder",
    "WireDecoder",
    "WireRun",
    "LinkRemap",
    "EvidenceColumnStore",
    "WireProtocolError",
    # checkpointing
    "Checkpoint",
    "CHECKPOINT_VERSION",
    # sources
    "MonitoringEvidenceStream",
    "ReplayEvidenceSource",
    "EvidenceRecorder",
    "path_evidence_stream",
    "partition_evidence",
}

#: pinned signatures of the stable entry points.  The modules use
#: ``from __future__ import annotations``, so ``inspect.signature`` renders
#: the literal (stringified) annotations — which is exactly what we pin.
EXPECTED_SIGNATURES = {
    "Zero07Service.__init__": (
        "(self, blame_config: 'Optional[BlameConfig]' = None, "
        "vote_policy: 'VotePolicy' = 'inverse_hops', "
        "engine: 'EngineKind' = 'arrays', "
        "attribute_noise_flows: 'bool' = False, "
        "sinks: 'Sequence[ReportSink]' = (), "
        "retain_reports: 'int' = 8, "
        "link_index: 'Optional[LinkIndex]' = None) -> 'None'"
    ),
    "Zero07Service.ingest": "(self, event: 'Evidence') -> 'None'",
    "Zero07Service.ingest_batch": (
        "(self, events: 'Iterable[Evidence]', owned: 'bool' = False) -> 'None'"
    ),
    "Zero07Service.report": "(self, epoch: 'Optional[int]' = None) -> 'EpochReport'",
    "Zero07Service.advance_epoch": "(self, epoch: 'int') -> 'EpochReport'",
    "Zero07Service.checkpoint": (
        "(self, base: 'Optional[Checkpoint]' = None) -> 'Checkpoint'"
    ),
    "Zero07Service.restore": (
        "(checkpoint: 'Checkpoint', sinks: 'Sequence[ReportSink]' = (), "
        "link_index: 'Optional[LinkIndex]' = None) -> \"'Zero07Service'\""
    ),
    "ShardedService.__init__": (
        "(self, num_shards: 'int' = 2, "
        "blame_config: 'Optional[BlameConfig]' = None, "
        "vote_policy: 'VotePolicy' = 'inverse_hops', "
        "engine: 'EngineKind' = 'arrays', "
        "attribute_noise_flows: 'bool' = False, "
        "sinks: 'Sequence[ReportSink]' = (), "
        "retain_reports: 'int' = 8, "
        "backend: 'str' = 'inline', "
        "workers: 'Optional[int]' = None) -> 'None'"
    ),
    "ShardedService.report": "(self, epoch: 'Optional[int]' = None) -> 'EpochReport'",
    "ShardedService.checkpoint": (
        "(self, base: 'Optional[Checkpoint]' = None) -> 'Checkpoint'"
    ),
    "ShardedService.restore": (
        "(checkpoint: 'Checkpoint', sinks: 'Sequence[ReportSink]' = (), "
        "backend: 'str' = 'inline', workers: 'Optional[int]' = None) "
        "-> \"'ShardedService'\""
    ),
    "ProcessExecutor.__init__": (
        "(self, num_shards: 'int', service_config: 'Dict[str, Any]', "
        "workers: 'Optional[int]' = None) -> 'None'"
    ),
    "Checkpoint.to_json": "(self, indent: 'int | None' = None) -> 'str'",
    "Checkpoint.from_json": "(text: 'str') -> \"'Checkpoint'\"",
    "Checkpoint.to_bytes": "(self) -> 'bytes'",
    "Checkpoint.from_bytes": "(data: 'bytes') -> \"'Checkpoint'\"",
    "Checkpoint.save": (
        "(self, path: 'Union[str, Path]', format: 'str' = 'binary') -> 'None'"
    ),
    "Checkpoint.load": "(path: 'Union[str, Path]') -> \"'Checkpoint'\"",
    "Checkpoint.apply_delta": "(self, delta: \"'Checkpoint'\") -> \"'Checkpoint'\"",
    "ReportSink.on_report": "(self, report: 'EpochReport') -> 'None'",
    "EvidenceSource.events": "(self) -> 'Iterable[Evidence]'",
    "path_evidence_stream": (
        "(epoch: 'int', paths: 'Sequence[DiscoveredPath]', "
        "tick: 'bool' = False) -> 'Iterator[Evidence]'"
    ),
    "shard_of_host": "(host: 'str', num_shards: 'int') -> 'int'",
}


#: pinned exports of the loadgen package (the synthetic-workload surface).
EXPECTED_LOADGEN_EXPORTS = {
    "EvidenceLoadGenerator",
    "WorkloadProfile",
    "FABRIC_PRESETS",
    "fabric_parameters",
}

#: pinned exports of the distributed fleet subsystem (``repro.fleet``):
#: transport protocol, analyzer front-end, agent client, experiment runner.
EXPECTED_FLEET_EXPORTS = {
    # protocol
    "FLEET_MAGIC",
    "FLEET_PROTOCOL_VERSION",
    "Endpoint",
    "parse_endpoint",
    "FrameReader",
    "FleetProtocolError",
    "TruncatedFrameError",
    "FrameTooLargeError",
    "UnknownFrameError",
    "HandshakeError",
    "VersionMismatchError",
    "PeerError",
    # analyzer
    "FleetAnalyzer",
    "AnalyzerThread",
    "AnalyzerStats",
    "ServiceIngestCore",
    "ColumnarIngestCore",
    # agent
    "FleetAgentClient",
    "AgentStats",
    "KILL_EXIT_CODE",
    # runner
    "FleetRunConfig",
    "run_fleet",
    "validate_run_dir",
    "FleetQueryClient",
}

#: pinned signatures of the loadgen and fleet entry points.
EXPECTED_HARNESS_SIGNATURES = {
    "repro.loadgen.EvidenceLoadGenerator.__init__": (
        "(self, fabric: 'Union[str, ClosParameters]' = 'medium', "
        "profile: 'Optional[WorkloadProfile]' = None, "
        "script: 'Optional[ScenarioScript]' = None, "
        "seed: 'int' = 0, events_per_epoch: 'int' = 100000) -> 'None'"
    ),
    "repro.loadgen.EvidenceLoadGenerator.epoch_events": (
        "(self, epoch: 'int', tick: 'bool' = True) -> 'List[Evidence]'"
    ),
    "repro.loadgen.EvidenceLoadGenerator.agent_events": (
        "(self, epoch: 'int', agent_index: 'int', num_agents: 'int') "
        "-> 'List[Evidence]'"
    ),
    "repro.loadgen.EvidenceLoadGenerator.stream": (
        "(self, epochs: 'int', tick: 'bool' = True) -> 'Iterator[Evidence]'"
    ),
    "repro.loadgen.fabric_parameters": (
        "(fabric: 'Union[str, ClosParameters]') -> 'ClosParameters'"
    ),
    "repro.fleet.run_fleet": (
        "(config: 'FleetRunConfig', "
        "progress: 'Optional[Callable[[str], None]]' = None) -> 'Dict'"
    ),
    "repro.fleet.FleetAgentClient.send_run": (
        "(self, epoch: 'int', events: 'Sequence[Evidence]', "
        "seqs: 'Optional[Sequence[int]]' = None) -> 'None'"
    ),
    "repro.fleet.FleetAnalyzer.__init__": (
        "(self, core, expected_agents: 'int', "
        "credit_bytes: 'int' = 8388608, "
        "stage_limit_bytes: 'int' = 67108864, "
        "idle_timeout: 'float' = 30.0, "
        "handshake_timeout: 'float' = 10.0) -> 'None'"
    ),
}


def _resolve(dotted: str):
    obj = api
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_exported_names_are_exactly_the_snapshot():
    assert set(api.__all__) == EXPECTED_EXPORTS
    for name in EXPECTED_EXPORTS:
        assert hasattr(api, name), f"__all__ lists {name} but it is missing"


def test_core_entry_point_signatures_are_pinned():
    drifted = {}
    for dotted, expected in EXPECTED_SIGNATURES.items():
        actual = str(inspect.signature(_resolve(dotted)))
        if actual != expected:
            drifted[dotted] = actual
    assert not drifted, (
        "public API signatures drifted — if intentional, update the snapshot "
        f"in the same commit: {drifted}"
    )


def test_shard_executors_serve_shards_only():
    """Evidence, reports and checkpoints come from the sharded facade's
    coordinator service, so the executor contract has no verb for them."""
    public = {name for name in vars(api.ShardExecutor) if not name.startswith("_")}
    assert public == {
        "submit_vector_run",
        "submit_event",
        "tick",
        "restore_shards",
        "shard_service",
        "check",
        "drain_store",
        "pause_wire",
        "resume_wire",
        "close",
    }


def test_loadgen_exports_are_exactly_the_snapshot():
    import repro.loadgen as loadgen

    assert set(loadgen.__all__) == EXPECTED_LOADGEN_EXPORTS
    for name in EXPECTED_LOADGEN_EXPORTS:
        assert hasattr(loadgen, name), f"repro.loadgen.{name} is missing"


def test_fleet_exports_are_exactly_the_snapshot():
    import repro.fleet as fleet

    assert set(fleet.__all__) == EXPECTED_FLEET_EXPORTS
    for name in EXPECTED_FLEET_EXPORTS:
        assert hasattr(fleet, name), f"repro.fleet.{name} is missing"


def test_loadgen_and_fleet_signatures_are_pinned():
    import importlib

    drifted = {}
    for dotted, expected in EXPECTED_HARNESS_SIGNATURES.items():
        module_name, _, remainder = dotted.partition(".")
        parts = remainder.split(".")
        module = importlib.import_module(f"{module_name}.{parts[0]}")
        obj = module
        for part in parts[1:]:
            obj = getattr(obj, part)
        actual = str(inspect.signature(obj))
        if actual != expected:
            drifted[dotted] = actual
    assert not drifted, (
        "loadgen/fleet API signatures drifted — if intentional, update the "
        f"snapshot in the same commit: {drifted}"
    )


def test_evidence_event_fields_are_pinned():
    """The wire format: field names (and order) of every evidence event."""
    import dataclasses

    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (api.PathEvidence, api.RetransmissionEvidence, api.EpochTick)
    }
    assert fields == {
        "PathEvidence": ["epoch", "seq", "path"],
        "RetransmissionEvidence": ["epoch", "flow_id", "retransmissions", "seq"],
        "EpochTick": ["epoch"],
    }


def test_service_stats_fields_are_pinned():
    """The counters ride every checkpoint's ``stats`` block, the process
    executor's ``stats()`` and (``fallback_events``) the analyzer's ``stats``
    verb: names and order are part of the surface."""
    import dataclasses

    assert [f.name for f in dataclasses.fields(api.ServiceStats)] == [
        "paths_ingested",
        "retransmission_updates",
        "ticks",
        "duplicate_events",
        "out_of_order_events",
        "late_events",
        "fallback_events",
        "reports_materialized",
        "epochs_finalized",
    ]
