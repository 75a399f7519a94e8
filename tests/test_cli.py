"""Tests for the repro-007 command-line interface."""

from __future__ import annotations

import argparse
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]


def _verbs(parser, prefix=()):
    """Every leaf command path of the parser, e.g. ``("fleet", "run")``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _verbs(sub, (*prefix, name))
            return
    yield prefix


def _documented_commands():
    """The argv text after ``repro-007`` / ``python -m repro.cli`` in the
    docs' fenced blocks and in the CI workflow, comments and ``&`` dropped."""
    sources = [
        match.group(1)
        for doc in ("EXPERIMENTS.md", "API.md")
        for match in re.finditer(r"^```\w*\n(.*?)^```", (REPO / doc).read_text(), re.M | re.S)
    ]
    sources.append((REPO / ".github" / "workflows" / "ci.yml").read_text())
    commands = []
    for text in sources:
        for line in re.sub(r"\\\n\s*", " ", text).splitlines():
            match = re.search(r"(?:repro-007|python -m repro\.cli) (.*)", line)
            if match:
                command = " ".join(shlex.split(match.group(1), comments=True)).rstrip(" &")
                if command not in commands:
                    commands.append(command)
    return commands


VERBS = list(_verbs(build_parser()))
DOCUMENTED_COMMANDS = _documented_commands()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario"])
        assert args.command == "scenario"
        assert args.bad_links == 1

    def test_experiment_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_experiment_names_are_the_nineteen_experiments(self):
        (verbs,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        (name,) = [a for a in verbs.choices["experiment"]._actions if a.dest == "name"]
        assert name.choices == sorted(
            ["fig01", "table1", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
             "fig10", "fig11", "fig12", "sec66", "sec67", "fig13", "sec72", "sec82", "sec83",
             "ablations"]
        )

    def test_theory_arguments(self):
        args = build_parser().parse_args(["theory", "--pods", "4", "--tmax", "50"])
        assert args.pods == 4 and args.tmax == 50

    def test_bench_is_not_a_verb(self, capsys):
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args(["bench"])
        assert stop.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", VERBS, ids=[" ".join(v) for v in VERBS])
    def test_every_verb_renders_its_help(self, verb, capsys):
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args([*verb, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro-007 {' '.join(verb)} ")


class TestDocumentedCommands:
    """Every ``repro-007`` command in EXPERIMENTS.md's and API.md's fenced
    blocks, and every ``python -m repro.cli`` command CI runs, parses: a verb,
    flag or choice that the docs name and the CLI no longer has fails here."""

    @pytest.mark.parametrize("command", DOCUMENTED_COMMANDS)
    def test_documented_command_parses(self, command):
        argv = shlex.split(re.sub(r"<\w+>|\$\{\{[^}]*\}\}", "placeholder", command))
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


class TestCommands:
    def test_scenario_command_output(self):
        out = io.StringIO()
        code = main(
            [
                "scenario",
                "--pods", "2",
                "--tors-per-pod", "4",
                "--t1-per-pod", "2",
                "--t2", "2",
                "--hosts-per-tor", "2",
                "--bad-links", "1",
                "--drop-rate", "0.01",
                "--connections-per-host", "25",
                "--seed", "3",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "injected failures" in text
        assert "top 5 voted links" in text
        assert "precision" in text

    def test_theory_command_output(self):
        out = io.StringIO()
        code = main(["theory", "--pods", "2"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "Theorem 1" in text
        assert "Theorem 2" in text

    def test_a_measured_experiment_warns_about_workers_and_trials(self, capsys, monkeypatch):
        from repro.experiments import figures
        from repro.experiments.base import ExperimentResult

        monkeypatch.setitem(figures.MEASURED, "table1", lambda: ExperimentResult("Table 1"))
        out = io.StringIO()
        assert main(["experiment", "table1", "--workers", "2", "--trials", "3"], out=out) == 0
        assert capsys.readouterr().err == (
            "warning: experiment 'table1' does not run sweeps; --workers ignored\n"
            "warning: experiment 'table1' has no trial count; --trials ignored\n"
        )
        assert out.getvalue() == "Table 1: (no data)\n"

    def test_theory_single_pod_message(self):
        out = io.StringIO()
        main(["theory", "--pods", "1"], out=out)
        assert "requires at least two pods" in out.getvalue()

    def test_theory_too_many_bad_links(self):
        out = io.StringIO()
        main(["theory", "--pods", "2", "--bad-links", "10000"], out=out)
        assert "exceeds the detectable bound" in out.getvalue()


class TestCheckpointCommand:
    """``repro-007 checkpoint``: inspect / convert / merge on-disk checkpoints."""

    @pytest.fixture()
    def checkpoints(self, tmp_path):
        from repro.api import Zero07Service
        from repro.loadgen import EvidenceLoadGenerator

        generator = EvidenceLoadGenerator(
            fabric="tiny", events_per_epoch=400, seed=5
        )
        service = Zero07Service()
        service.ingest_batch(generator.epoch_events(0, tick=False), owned=True)
        base = service.checkpoint()
        base.save(tmp_path / "base.bin")
        service.ingest_batch(generator.epoch_events(1, tick=False), owned=True)
        service.checkpoint(base=base).save(tmp_path / "delta.bin")
        service.checkpoint().save(tmp_path / "full.json", format="json")
        return tmp_path

    def test_inspect_prints_format_kind_and_epochs(self, checkpoints):
        out = io.StringIO()
        assert main(
            ["checkpoint", "inspect", str(checkpoints / "base.bin")], out=out
        ) == 0
        text = out.getvalue()
        assert "binary checkpoint" in text
        assert "kind=service" in text
        assert "epoch 0" in text

        out = io.StringIO()
        assert main(
            ["checkpoint", "inspect", str(checkpoints / "delta.bin")], out=out
        ) == 0
        assert "(delta)" in out.getvalue()

        out = io.StringIO()
        assert main(
            ["checkpoint", "inspect", str(checkpoints / "full.json")], out=out
        ) == 0
        assert "json checkpoint" in out.getvalue()

    def test_convert_round_trips_between_serializations(self, checkpoints):
        from repro.api import Checkpoint

        out = io.StringIO()
        assert main(
            [
                "checkpoint", "convert",
                str(checkpoints / "base.bin"),
                str(checkpoints / "base.json"),
                "--format", "json",
            ],
            out=out,
        ) == 0
        original = Checkpoint.load(checkpoints / "base.bin")
        converted = Checkpoint.load(checkpoints / "base.json")
        assert converted == original

    def test_merge_reproduces_the_full_checkpoint(self, checkpoints):
        from repro.api import Checkpoint

        out = io.StringIO()
        assert main(
            [
                "checkpoint", "merge",
                str(checkpoints / "base.bin"),
                str(checkpoints / "delta.bin"),
                str(checkpoints / "merged.bin"),
            ],
            out=out,
        ) == 0
        merged = Checkpoint.load(checkpoints / "merged.bin")
        full = Checkpoint.load(checkpoints / "full.json")
        assert merged == full

    def _inspect_convert_merge(self, directory, base, delta, full):
        """Drive all three subcommands on ``base``/``delta`` files; the merge
        must reproduce ``full`` and the inspection must count its records."""
        from repro.api import Checkpoint

        for name, fmt in ((base, "json"), (base, "binary")):
            converted = directory / f"converted.{fmt}"
            assert main(
                ["checkpoint", "convert", str(directory / name), str(converted),
                 "--format", fmt],
                out=io.StringIO(),
            ) == 0
            assert Checkpoint.load(converted) == Checkpoint.load(directory / name)
        merged = directory / "merged.out"
        assert main(
            ["checkpoint", "merge", str(directory / base), str(directory / delta),
             str(merged)],
            out=io.StringIO(),
        ) == 0
        assert Checkpoint.load(merged) == full
        out = io.StringIO()
        assert main(["checkpoint", "inspect", str(merged)], out=out) == 0
        for entry in full.materialize().payload["epochs"]:
            assert (
                f"epoch {entry['epoch']}: {len(entry['records']):,} path records, "
                f"{len(entry['retransmission_seqs']):,} consumed update seqs"
            ) in out.getvalue()

    def test_commands_on_containers_of_live_captures(self, checkpoints):
        """Columns written exactly as ``checkpoint()`` captured them (tables
        in capture order, a delta's own prefixes) — never through JSON."""
        from repro.api import Checkpoint

        self._inspect_convert_merge(
            checkpoints, "base.bin", "delta.bin",
            Checkpoint.load(checkpoints / "full.json"),
        )

    def test_commands_on_json_documents(self, checkpoints):
        from repro.api import Checkpoint

        for name in ("base", "delta"):
            Checkpoint.load(checkpoints / f"{name}.bin").save(
                checkpoints / f"{name}.json", format="json"
            )
        self._inspect_convert_merge(
            checkpoints, "base.json", "delta.json",
            Checkpoint.load(checkpoints / "full.json"),
        )

    def test_merge_rejects_a_mismatched_base(self, checkpoints, capsys):
        # full.json is not the base the delta was taken against — the
        # fingerprint check must fail loudly instead of merging garbage.
        assert main(
            [
                "checkpoint", "merge",
                str(checkpoints / "full.json"),
                str(checkpoints / "delta.bin"),
                str(checkpoints / "bad.bin"),
            ],
            out=io.StringIO(),
        ) == 2
        assert "fingerprint" in capsys.readouterr().err
        assert not (checkpoints / "bad.bin").exists()

    def test_inspect_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["checkpoint", "inspect", str(tmp_path / "nope.bin")],
            out=io.StringIO(),
        ) == 2
        assert "error:" in capsys.readouterr().err
