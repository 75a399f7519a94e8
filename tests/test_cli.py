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

#: the committed checkpoint fixtures: containers written by an earlier commit.
CHECKPOINT_FIXTURES = REPO / "tests" / "data" / "checkpoints"


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
    """``repro-007 checkpoint``: inspect / merge on-disk checkpoints."""

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
        service.checkpoint().save(tmp_path / "full.bin")
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
            ["checkpoint", "inspect", str(CHECKPOINT_FIXTURES / "full.ckpt")], out=out
        ) == 0
        assert "binary checkpoint" in out.getvalue()

    def test_json_documents_are_refused_and_convert_is_gone(
        self, checkpoints, capsys
    ):
        """JSON checkpoint documents are retired: ``inspect`` and ``merge``
        exit 2 naming the retirement, and there is no ``convert`` to upgrade
        one."""
        document = checkpoints / "x.json"
        document.write_text('{"version": 2, "kind": "service", "epochs": []}')
        assert main(["checkpoint", "inspect", str(document)], out=io.StringIO()) == 2
        assert "JSON checkpoint documents are retired" in capsys.readouterr().err
        merge = [str(document), str(checkpoints / "delta.bin"), str(checkpoints / "m")]
        assert main(["checkpoint", "merge", *merge], out=io.StringIO()) == 2
        assert "JSON checkpoint documents are retired" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["checkpoint", "convert", str(document), str(checkpoints / "c")])
        assert exit_info.value.code == 2

    def test_inspect_prints_the_shard_count_and_epochs_of_a_fleet(self, tmp_path):
        from repro.api import ShardedService
        from repro.loadgen import EvidenceLoadGenerator

        generator = EvidenceLoadGenerator(fabric="tiny", events_per_epoch=400, seed=5)
        fleet = ShardedService(num_shards=3)
        fleet.ingest_batch(generator.epoch_events(0, tick=False), owned=True)
        checkpoint = fleet.checkpoint()
        checkpoint.save(tmp_path / "fleet.bin")
        out = io.StringIO()
        assert main(["checkpoint", "inspect", str(tmp_path / "fleet.bin")], out=out) == 0
        text = out.getvalue()
        assert "kind=sharded" in text and "num_shards=3" in text
        (entry,) = checkpoint.payload["epochs"]
        assert f"sharded: epoch 0: {entry['records']['count']:,} path records" in text

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
        full = Checkpoint.load(checkpoints / "full.bin")
        assert merged == full

    def _merge_inspect(self, out_dir, base, delta, full):
        """Merge the ``base``/``delta`` files into ``out_dir`` and inspect the
        result; the merge must reproduce ``full`` and the inspection must
        count its records."""
        from repro.api import Checkpoint
        from repro.api.checkpoint import epoch_columns

        merged = out_dir / "merged.out"
        assert main(
            ["checkpoint", "merge", str(base), str(delta), str(merged)],
            out=io.StringIO(),
        ) == 0
        assert Checkpoint.load(merged) == full
        out = io.StringIO()
        assert main(["checkpoint", "inspect", str(merged)], out=out) == 0
        for entry in full.payload["epochs"]:
            updates = epoch_columns(entry, full.columns, ("rs",))["rs"]
            assert (
                f"epoch {entry['epoch']}: {entry['records']['count']:,} path "
                f"records, {len(updates):,} consumed update seqs"
            ) in out.getvalue()

    def test_commands_on_containers_of_live_captures(self, checkpoints):
        """Columns written exactly as ``checkpoint()`` captured them (tables
        in capture order, a delta's own prefixes)."""
        from repro.api import Checkpoint

        self._merge_inspect(
            checkpoints, checkpoints / "base.bin", checkpoints / "delta.bin",
            Checkpoint.load(checkpoints / "full.bin"),
        )

    def test_commands_on_containers_of_an_earlier_commit(self, tmp_path):
        from repro.api import Checkpoint

        self._merge_inspect(
            tmp_path,
            CHECKPOINT_FIXTURES / "base.ckpt",
            CHECKPOINT_FIXTURES / "delta.ckpt",
            Checkpoint.load(CHECKPOINT_FIXTURES / "full.ckpt"),
        )

    def test_merge_rejects_a_mismatched_base(self, checkpoints, capsys):
        # full.ckpt is not the base the delta was taken against — the
        # fingerprint check must fail loudly instead of merging garbage.
        assert main(
            [
                "checkpoint", "merge",
                str(CHECKPOINT_FIXTURES / "full.ckpt"),
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
