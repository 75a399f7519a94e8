"""Fleet runner and CLI tests: config validation, the run-dir contract,
argument plumbing, and one real multi-process localhost run.

The end-to-end run is deliberately tiny (tiny fabric, two agents, two
epochs) but exercises the full production path: the ``repro fleet run``
driver launching analyzer + agent subprocesses over TCP, a scripted
mid-run kill with relaunch, convergence, and the bit-identical replay
verification recorded in ``summary.json``.
"""

from __future__ import annotations

import copy
import io
import json

import pytest

from repro.cli import build_parser, main
from repro.fleet.runner import (
    RUN_SCHEMA,
    FleetRunConfig,
    fleet_timeline,
    run_fleet,
    validate_run_dir,
)


class TestFleetRunConfig:
    def test_defaults_are_valid(self, tmp_path):
        config = FleetRunConfig(run_dir=str(tmp_path))
        assert config.agents == 4
        assert config.transport == "tcp"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"agents": 0},
            {"transport": "carrier-pigeon"},
            {"timeline": "apocalypse"},
            {"epochs": 0},
            {"kill_agent": 4},  # only agents 0..3 exist
            {"kill_agent": -1},
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, overrides):
        with pytest.raises(ValueError):
            FleetRunConfig(run_dir=str(tmp_path), **overrides)

    def test_timeline_registry_matches_validator(self):
        assert fleet_timeline("none") is None
        assert fleet_timeline("flap") is not None
        assert fleet_timeline("burst") is not None
        with pytest.raises(ValueError):
            fleet_timeline("apocalypse")


class TestCliPlumbing:
    def test_fleet_run_defaults(self):
        args = build_parser().parse_args(
            ["fleet", "run", "--run-dir", "/tmp/r"]
        )
        assert args.command == "fleet"
        assert args.fleet_command == "run"
        assert args.transport == "tcp"
        assert args.agents == 4
        assert args.timeline == "none"
        assert args.no_verify_replay is False

    def test_fleet_run_flags_map_onto_config(self):
        args = build_parser().parse_args(
            [
                "fleet", "run",
                "--run-dir", "/tmp/r",
                "--transport", "unix",
                "--agents", "3",
                "--timeline", "flap",
                "--kill-agent", "1",
                "--no-verify-replay",
            ]
        )
        assert args.transport == "unix"
        assert args.agents == 3
        assert args.timeline == "flap"
        assert args.kill_agent == 1
        assert args.no_verify_replay is True

    def test_fleet_agent_requires_identity_and_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "agent"])

    def test_fleet_analyzer_defaults(self):
        args = build_parser().parse_args(
            ["fleet", "analyzer", "--num-agents", "2"]
        )
        assert args.bind == "tcp:127.0.0.1:0"
        assert args.mode == "events"

    def test_fleet_rejects_unknown_transport(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "run", "--run-dir", "/tmp/r",
                 "--transport", "pigeon"]
            )

    def test_fleet_run_has_no_shard_option(self, capsys):
        """One service is behind every fleet analyzer: ``--shards`` is a
        usage error, not a silently ignored flag."""
        with pytest.raises(SystemExit) as stop:
            main(["fleet", "run", "--run-dir", "/tmp/r", "--shards", "2"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """One real localhost fleet run with a scripted kill, shared by tests."""
    run_dir = tmp_path_factory.mktemp("fleet-run")
    config = FleetRunConfig(
        run_dir=str(run_dir),
        agents=2,
        transport="tcp",
        epochs=2,
        events_per_epoch=600,
        seed=13,
        chunk_events=128,
        kill_agent=1,
        kill_after_events=150,
        timeout=120.0,
    )
    summary = run_fleet(config)
    return run_dir, summary


class TestEndToEndRun:
    def test_run_converges_and_is_replay_equivalent(self, completed_run):
        _, summary = completed_run
        assert summary["converged"] is True
        assert summary["replay_equivalent"] is True
        assert all(entry["replay_match"] for entry in summary["epochs"])
        # a default run: one service behind the analyzer
        assert summary["analyzer"]["describe"]["service"] == "Zero07Service"

    def test_scripted_kill_fired_and_recovered(self, completed_run):
        _, summary = completed_run
        kill = summary["kill"]
        assert kill["agent"] == 1
        assert kill["exit_code"] == kill["exit_code_expected"]
        assert kill["relaunched"] is True
        assert kill["recovery_seconds"] > 0

    def test_every_agent_exited_cleanly(self, completed_run):
        _, summary = completed_run
        assert [agent["exit_code"] for agent in summary["agents"]] == [0, 0]

    def test_run_dir_passes_the_contract(self, completed_run):
        run_dir, summary = completed_run
        validated = validate_run_dir(run_dir)
        assert validated["schema"] == RUN_SCHEMA
        assert validated["converged"] is True
        assert len(validated["epochs"]) == summary["config"]["epochs"]

    def test_agent_logs_record_lifecycle_events(self, completed_run):
        run_dir, _ = completed_run
        events = []
        with open(run_dir / "agent-1.jsonl", encoding="utf-8") as handle:
            for line in handle:
                events.append(json.loads(line)["event"])
        assert "scripted-kill" in events  # the victim's death is on record
        assert "connect" in events  # ... and so is the relaunch

    def test_cli_fleet_run_exit_code_and_output(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "fleet", "run",
                "--run-dir", str(tmp_path / "cli-run"),
                "--agents", "2",
                "--epochs", "2",
                "--events-per-epoch", "400",
                "--chunk-events", "128",
                "--seed", "5",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "replay=match" in text
        assert "converged" in text
        validate_run_dir(tmp_path / "cli-run")


class TestRunDirContract:
    def corrupt(self, run_dir, tmp_path, mutate):
        clone = tmp_path / "clone"
        clone.mkdir()
        for item in run_dir.iterdir():
            (clone / item.name).write_bytes(item.read_bytes())
        summary = json.loads((clone / "summary.json").read_text())
        mutate(summary, clone)
        (clone / "summary.json").write_text(json.dumps(summary))
        with pytest.raises(ValueError):
            validate_run_dir(clone)

    def test_rejects_missing_files(self, tmp_path):
        with pytest.raises(ValueError, match="is missing meta.json"):
            validate_run_dir(tmp_path)
        (tmp_path / "meta.json").write_text("{}")
        with pytest.raises(ValueError, match="is missing summary.json"):
            validate_run_dir(tmp_path)

    def test_rejects_wrong_schema(self, completed_run, tmp_path):
        run_dir, _ = completed_run
        self.corrupt(
            run_dir, tmp_path,
            lambda s, _: s.update(schema="fleet-run-v999"),
        )

    def test_rejects_epoch_count_mismatch(self, completed_run, tmp_path):
        run_dir, _ = completed_run
        self.corrupt(
            run_dir, tmp_path, lambda s, _: s["epochs"].pop()
        )

    def test_rejects_missing_agent_log(self, completed_run, tmp_path):
        run_dir, _ = completed_run

        def mutate(summary, clone):
            (clone / "agent-0.jsonl").unlink()

        self.corrupt(run_dir, tmp_path, mutate)

    def test_rejects_corrupt_agent_log(self, completed_run, tmp_path):
        run_dir, _ = completed_run

        def mutate(summary, clone):
            with open(clone / "agent-0.jsonl", "a") as handle:
                handle.write("not json\n")

        self.corrupt(run_dir, tmp_path, mutate)

    def test_unconverged_summary_needs_no_epochs(self, completed_run, tmp_path):
        run_dir, _ = completed_run
        clone = tmp_path / "unconverged"
        clone.mkdir()
        for item in run_dir.iterdir():
            (clone / item.name).write_bytes(item.read_bytes())
        summary = json.loads((clone / "summary.json").read_text())
        failed = copy.deepcopy(summary)
        for key in ("endpoints", "epochs", "agents", "replay_equivalent"):
            failed.pop(key, None)
        failed["converged"] = False
        failed["error"] = "TimeoutError: analyzer never finalized"
        (clone / "summary.json").write_text(json.dumps(failed))
        assert validate_run_dir(clone)["converged"] is False
