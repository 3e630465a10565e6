"""Tests for the command-line interface."""

import argparse
import json
import pathlib
import re

import pytest

from repro import cli as cli_module
from repro.cli import build_parser, main


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        for command in ("run", "tables", "feeds", "report"):
            args = parser.parse_args([command])
            assert args.command == command
            assert args.preset == "tiny"
            assert args.seed == 7

    def test_options(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--preset", "small", "--seed", "3", "--days", "1.5"])
        assert args.preset == "small"
        assert args.seed == 3
        assert args.days == 1.5

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--preset", "galactic"])


class TestMain:
    def test_tables_command(self, capsys):
        code = main(["tables", "--days", "0.5", "--seed", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "TABLE 1" in output
        assert "TABLE 3" in output
        assert "Fake Software" in output

    def test_feeds_command(self, capsys):
        code = main(["feeds", "--days", "0.5", "--seed", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "domain feed:" in output
        assert "exclusive coverage" in output

    def test_run_with_export(self, tmp_path, capsys):
        code = main(["run", "--days", "0.5", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        crawl = json.loads((tmp_path / "crawl.json").read_text())
        assert crawl["format"] == "seacma-crawl/1"
        milking = json.loads((tmp_path / "milking.json").read_text())
        assert milking["format"] == "seacma-milking/1"

    def test_report_command(self, capsys):
        code = main(["report", "--days", "0.5", "--seed", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert output.startswith("# SEACMA measurement report")
        assert "Table 3" in output

    @pytest.mark.parametrize("days", ["-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [pytest.param(["run"], id="run"), pytest.param(["resume", "nowhere"], id="resume")],
    )
    def test_unbounded_days_rejected_before_the_crawl(
        self, monkeypatch, capsys, argv, days
    ):
        def no_world(*args, **kwargs):
            raise AssertionError("the world was built despite a bad --days")

        monkeypatch.setattr(cli_module, "build_world", no_world)
        code = main([*argv, "--days", days])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration_days must be finite and non-negative")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_run_without_milking(self, capsys):
        code = main(["run", "--no-milking", "--seed", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "SEACMA campaigns" in output
        assert "milking:" not in output


class TestStreaming:
    def test_parser_stream_options(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--store-dir", "d", "--workers", "2"]
        )
        assert str(args.store_dir) == "d"
        assert args.workers == 2
        args = parser.parse_args(["resume", "d", "--days", "1.5"])
        assert args.command == "resume"
        assert str(args.store_dir) == "d" and args.days == 1.5

    def test_run_stream_then_offline_report(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(
            ["run", "--days", "0.5", "--seed", "3",
             "--store-dir", str(store_dir)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SEACMA campaigns" in output
        assert f"run store written to {store_dir}/" in output
        for stream in ("meta", "interactions", "progress", "campaigns"):
            assert (store_dir / f"{stream}.jsonl").exists()
        # The same store regenerates tables and the report offline.
        assert main(["report", "--from-store", str(store_dir)]) == 0
        assert capsys.readouterr().out.startswith("# SEACMA measurement report")
        assert main(["tables", "--from-store", str(store_dir)]) == 0
        assert "TABLE 1" in capsys.readouterr().out

    def test_finished_run_leaves_only_streams(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(
            ["run", "--seed", "3", "--no-milking", "--store-dir", str(store_dir)]
        ) == 0
        leftovers = [
            path.name for path in store_dir.iterdir() if path.suffix != ".jsonl"
        ]
        assert leftovers == []


class TestStoreErrorPaths:
    """Operational store failures must exit non-zero with a one-line
    message on stderr — never a traceback."""

    def test_resume_missing_dir(self, tmp_path, capsys):
        code = main(["resume", str(tmp_path / "nowhere")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "no run store" in captured.err
        assert "Traceback" not in captured.err

    def test_resume_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["resume", str(empty)])
        assert code == 2
        captured = capsys.readouterr()
        assert "no run store" in captured.err

    def test_report_from_store_missing_dir(self, tmp_path, capsys):
        code = main(["report", "--from-store", str(tmp_path / "nope")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_tables_from_store_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "blank"
        empty.mkdir()
        code = main(["tables", "--from-store", str(empty)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAdaptiveStores:
    """Stores crawled by the retired adaptive scheduler carry a
    ``sched_config`` meta record and a ``policy.jsonl`` stream.  Their
    finished reports stay readable; an unfinished one cannot be resumed
    with the static plan."""

    SCHED_CONFIG = {
        "policy": "ucb1",
        "explore_floor": 0.15,
        "session_budget": 150,
        "round_domains": None,
        "epsilon": 0.1,
        "ucb_coef": 0.25,
        "cluster_weight": 5.0,
        "candidate_weight": 1.0,
        "attribution_weight": 0.05,
    }

    @pytest.fixture
    def adaptive_store(self, tmp_path, capsys):
        """A finished run whose meta names it adaptive, written by hand."""
        store_dir = tmp_path / "store"
        assert main(
            ["run", "--seed", "3", "--no-milking", "--store-dir", str(store_dir)]
        ) == 0
        capsys.readouterr()

        def line(record):
            return json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"

        with open(store_dir / "meta.jsonl", "a") as meta:
            meta.write(line({"key": "sched_config", "value": self.SCHED_CONFIG}))
        (store_dir / "policy.jsonl").write_text(
            line({"kind": "round", "round": 0, "domains": []})
        )
        return store_dir

    def test_unfinished_adaptive_store_is_refused(self, adaptive_store, capsys):
        with open(adaptive_store / "meta.jsonl", "a") as meta:
            meta.write('{"key":"status","value":"running"}\n')
        code = main(["resume", str(adaptive_store)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "adaptive" in err
        assert "Traceback" not in err

    def test_finished_adaptive_store_still_reads(self, adaptive_store, capsys):
        assert main(["store", "check", str(adaptive_store)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert re.search(r"policy\s+1 records", out)
        assert main(["report", "--from-store", str(adaptive_store)]) == 0
        assert capsys.readouterr().out.startswith("# SEACMA measurement report")
        # A finished run is never resumed, adaptive or not.
        assert main(["resume", str(adaptive_store)]) == 2
        assert "already finished" in capsys.readouterr().err


class TestWorkersFlag:
    def test_workers_apply_without_a_store(self, capsys):
        # Every run streams, so --workers needs no other flag.
        code = main(
            ["run", "--workers", "2", "--seed", "3",
             "--days", "0.5", "--no-milking"]
        )
        assert code == 0
        assert "crawled" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, flag",
        [pytest.param(["run"], "--workers", id="run-workers")],
    )
    def test_zero_workers_rejected(self, capsys, argv, flag):
        # Rejected by the parser before any store is touched: one usage
        # line, no traceback.
        with pytest.raises(SystemExit):
            main([*argv, flag, "0"])
        err = capsys.readouterr().err
        assert f"{flag} must be at least 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["run"], id="run-batch-domains"),
            pytest.param(["resume", "store"], id="resume-batch-domains"),
        ],
    )
    def test_batch_domains_flag_is_gone(self, capsys, argv):
        # Every finished domain is ingested as it lands; the grouping
        # flag no longer exists and argparse rejects it.
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--batch-domains", "4"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --batch-domains 4" in err
        assert "Traceback" not in err

    def test_streamed_run_with_workers(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--workers",
                "2",
                "--seed",
                "3",
                "--days",
                "0.5",
                "--no-milking",
                "--store-dir",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "crawled" in output
        assert (tmp_path / "store" / "interactions.jsonl").exists()


class TestHelpCoverage:
    """The module docstring synopsis must not drift from the real parser."""

    def _subparsers(self):
        parser = build_parser()
        actions = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert actions, "CLI parser lost its subcommands"
        return actions[0].choices

    def _all_subparsers(self):
        """Every subparser keyed by its full path, nested groups
        (``trace summarize``, ``feed serve`` ...) included."""
        found = {}

        def walk(prefix, parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        path = f"{prefix} {name}".strip()
                        found[path] = sub
                        walk(path, sub)

        walk("", build_parser())
        return found

    def test_every_subcommand_documented(self):
        doc = cli_module.__doc__
        for name in self._subparsers():
            assert f"seacma {name}" in doc, f"docstring misses subcommand {name!r}"

    def test_every_flag_documented(self):
        doc = cli_module.__doc__
        for name, sub in self._all_subparsers().items():
            for action in sub._actions:
                for option in action.option_strings:
                    if option.startswith("--") and option != "--help":
                        assert option in doc, (
                            f"docstring misses {option} (subcommand {name})"
                        )

    def test_no_phantom_flags_documented(self):
        """Every --flag the docstring mentions must exist on some subparser."""
        real = {
            option
            for sub in self._all_subparsers().values()
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--")
        } | {"--help"}
        documented = set(re.findall(r"--[a-z][a-z-]+", cli_module.__doc__))
        assert documented <= real, f"docstring invents {documented - real}"


class TestTelemetryFlags:
    def test_trace_flags_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--trace-dir", "traces/x", "--metrics"]
        )
        assert args.trace_dir == pathlib.Path("traces/x")
        assert args.metrics is True
        args = parser.parse_args(["resume", "store", "--trace-dir", "t"])
        assert args.trace_dir == pathlib.Path("t")

    def test_trace_summarize_parsed(self):
        args = build_parser().parse_args(["trace", "summarize", "out"])
        assert args.command == "trace"
        assert args.trace_command == "summarize"
        assert args.trace_dir == pathlib.Path("out")

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_traced_run_then_summarize(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        code = main(
            [
                "run",
                "--seed",
                "3",
                "--days",
                "0.5",
                "--no-milking",
                "--store-dir",
                str(tmp_path / "store"),
                "--trace-dir",
                str(trace_dir),
                "--metrics",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "trace written to" in output
        assert "seacma_crawl_sessions_total" in output
        assert (trace_dir / "spans.jsonl").exists()
        assert (trace_dir / "trace.json").exists()
        assert (trace_dir / "metrics.prom").exists()

        code = main(["trace", "summarize", str(trace_dir)])
        assert code == 0
        summary = capsys.readouterr().out
        assert "spans" in summary
        assert "stage.crawl" in summary

    def test_summarize_missing_trace_fails_cleanly(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "absent")])
        assert code == 2
        assert "no trace at" in capsys.readouterr().err

    def test_untraced_run_prints_no_telemetry(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--seed",
                "3",
                "--days",
                "0.5",
                "--no-milking",
                "--store-dir",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "trace written" not in output
        assert "seacma_" not in output


class TestFeedCommands:
    def test_parser_feed_options(self):
        parser = build_parser()
        args = parser.parse_args(
            ["feed", "pull", "store", "--since", "3", "--json"]
        )
        assert args.command == "feed" and args.feed_command == "pull"
        assert str(args.store_dir) == "store"
        assert args.since == 3 and args.as_json
        args = parser.parse_args(
            ["feed", "lag", "store", "--cohorts", "4",
             "--clients-per-cohort", "100", "--poll-minutes", "15"]
        )
        assert args.feed_command == "lag"
        assert args.cohorts == 4 and args.clients_per_cohort == 100
        assert args.poll_minutes == 15.0

    def test_engine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["feed", "serve", "store", "--engine", "stdlib"]
            )
        assert "--engine" in capsys.readouterr().err

    def test_feed_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["feed"])

    def test_pull_full_then_not_modified(self, feed_store, capsys):
        store_dir, _, result = feed_store
        assert main(["feed", "pull", str(store_dir)]) == 0
        assert capsys.readouterr().out.startswith("full: ")
        latest = result.feed[-1]
        code = main(
            ["feed", "pull", str(store_dir), "--since", str(latest.version)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("not_modified:")

    def test_pull_json_payload_matches_run(self, feed_store, capsys):
        store_dir, _, result = feed_store
        assert main(["feed", "pull", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        latest = result.feed[-1]
        assert payload["version"] == latest.version
        assert payload["content_hash"] == latest.content_hash
        assert len(payload["entries"]) == len(latest)

    def test_pull_delta_chain_from_v1_converges_to_latest(self, feed_store, capsys):
        store_dir, _, result = feed_store
        if len(result.feed) < 2:
            pytest.skip("run published a single feed version")
        # With delta-chain compaction a deep catch-up may take several
        # hops (each bounded by the checkpoint interval), but the chain
        # must reach the latest version in finitely many pulls.
        latest = result.feed[-1].version
        since, hops = 1, 0
        while since < latest:
            assert main(
                ["feed", "pull", str(store_dir), "--since", str(since), "--json"]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["kind"] == "delta"
            assert payload["from_version"] == since
            assert payload["to_version"] > since
            since = payload["to_version"]
            hops += 1
            assert hops <= len(result.feed), "delta chain failed to converge"
        assert since == latest

    def test_lag_prints_protection_table(self, feed_store, capsys):
        store_dir, _, _ = feed_store
        code = main(
            ["feed", "lag", str(store_dir), "--cohorts", "3",
             "--clients-per-cohort", "100", "--poll-minutes", "60"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "PROTECTION LAG" in output
        assert "ALL" in output
        assert "300 modeled clients" in output

    def test_feed_on_store_without_feed_fails_cleanly(self, tmp_path, capsys):
        code = main(["feed", "pull", str(tmp_path / "absent")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
