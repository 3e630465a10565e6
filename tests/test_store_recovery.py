"""Crash tolerance of the durable run store.

A process killed mid-flush leaves a partial trailing JSONL line; the
store must treat that as expected damage — skip it on read, cut it off
before appending — while still refusing to paper over corruption of
records that were already acknowledged by a progress marker.
"""

from __future__ import annotations

import json

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.chaos import CrashDirective, CrashError, CrashPlan, install, reset
from repro.cli import main
from repro.core.milking import MilkingConfig
from repro.errors import StoreError
from repro.store import JsonlStore, MemoryStore
from repro.store.persist import load_world

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)


def make_store(tmp_path, records=3):
    store = JsonlStore(tmp_path / "store", run_id="torn")
    for n in range(records):
        store.append("events", {"n": n, "payload": "x" * 20})
    store.close()
    return tmp_path / "store"


class TestTornTailRead:
    @pytest.mark.parametrize("cut", [1, 5, 13, 27])
    def test_truncated_at_arbitrary_offset_skips_tail(self, tmp_path, cut):
        directory = make_store(tmp_path)
        path = directory / "events.jsonl"
        data = path.read_bytes()
        full = len(data)
        path.write_bytes(data[: full - cut])
        store = JsonlStore.open(directory)
        records = store.read("events")
        # The torn final record is skipped; every complete one survives.
        assert [r["n"] for r in records] in ([0, 1], [0, 1, 2])
        assert all(isinstance(r, dict) for r in records)

    def test_interior_corruption_still_raises(self, tmp_path):
        directory = make_store(tmp_path)
        path = directory / "events.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"broken": \n'
        path.write_bytes(b"".join(lines))
        store = JsonlStore.open(directory)
        with pytest.raises(StoreError, match="corrupt record"):
            store.read("events")

    def test_intact_file_reads_completely(self, tmp_path):
        directory = make_store(tmp_path)
        store = JsonlStore.open(directory)
        assert [r["n"] for r in store.read("events")] == [0, 1, 2]


class TestScan:
    """``scan``: the one streaming read both backends implement."""

    def test_skips_torn_tail(self, tmp_path):
        directory = make_store(tmp_path)
        path = directory / "events.jsonl"
        path.write_bytes(path.read_bytes()[:-7])  # tear the last record
        store = JsonlStore.open(directory)
        assert [r["n"] for r in store.scan("events")] == [0, 1]
        assert [r["n"] for r in store.scan("events", [1, 0])] == [1, 0]
        with pytest.raises(StoreError, match="row 2 is past the end"):
            list(store.scan("events", [2]))

    def test_mid_stream_corruption_names_stream_and_line(self, tmp_path):
        directory = make_store(tmp_path)
        path = directory / "events.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"broken": \n'
        path.write_bytes(b"".join(lines))
        store = JsonlStore.open(directory)
        with pytest.raises(StoreError, match=r"stream 'events' at .*events\.jsonl:2"):
            list(store.scan("events"))
        # Only the rows asked for are decoded.
        assert [r["n"] for r in store.scan("events", [0, 2])] == [0, 2]

    @pytest.mark.parametrize("backend", ["jsonl", "memory"])
    def test_rejects_row_past_the_end(self, tmp_path, backend):
        if backend == "jsonl":
            store = JsonlStore.open(make_store(tmp_path))
        else:
            store = MemoryStore()
            store.extend("events", ({"n": n} for n in range(3)))
        assert [r["n"] for r in store.scan("events", [2, 0, 1])] == [2, 0, 1]
        assert [r["n"] for r in store.scan("events", range(1, 3))] == [1, 2]
        with pytest.raises(StoreError, match="past the end of stream 'events'"):
            list(store.scan("events", [0, 3]))
        assert list(store.scan("missing", [])) == []
        assert store.read("events") == list(store.scan("events"))


class TestTornTailAppend:
    def test_append_repairs_torn_tail_first(self, tmp_path):
        directory = make_store(tmp_path)
        path = directory / "events.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"n": 99, "pay')  # killed mid-write
        store = JsonlStore.open(directory)
        store.append("events", {"n": 3})
        store.close()
        lines = path.read_bytes().decode().splitlines()
        parsed = [json.loads(line) for line in lines]  # every line valid again
        assert [r["n"] for r in parsed] == [0, 1, 2, 3]

    def test_count_reflects_repair(self, tmp_path):
        directory = make_store(tmp_path)
        path = directory / "events.jsonl"
        with path.open("ab") as handle:
            handle.write(b"garbage-tail")
        store = JsonlStore.open(directory)
        store.append("events", {"n": 3})
        assert store.count("events") == 4


class TestTruncate:
    def test_jsonl_truncate_keeps_prefix(self, tmp_path):
        directory = make_store(tmp_path, records=5)
        store = JsonlStore.open(directory)
        store.truncate("events", 2)
        assert [r["n"] for r in store.read("events")] == [0, 1]
        assert store.count("events") == 2
        store.append("events", {"n": 7})
        assert store.count("events") == 3

    def test_memory_truncate_keeps_prefix(self):
        store = MemoryStore()
        for n in range(5):
            store.append("events", {"n": n})
        store.truncate("events", 3)
        assert [r["n"] for r in store.read("events")] == [0, 1, 2]

    def test_truncate_missing_stream_is_noop(self, tmp_path):
        store = JsonlStore(tmp_path / "s")
        store.truncate("nothing", 0)
        assert store.read("nothing") == []


class TestAtomicTruncate:
    """A crash anywhere inside a cut loses nothing already committed."""

    @pytest.fixture(autouse=True)
    def _no_leftover_plan(self):
        reset()
        yield
        reset()

    def _crash_truncating(self, tmp_path, point):
        directory = make_store(tmp_path, records=5)
        store = JsonlStore.open(directory)
        install(CrashPlan(CrashDirective(point)))
        try:
            with pytest.raises(CrashError):
                store.truncate("events", 2)
        finally:
            install(None)
        store.close()
        return directory

    def test_crash_before_temp_leaves_stream_untouched(self, tmp_path):
        directory = self._crash_truncating(tmp_path, "store.truncate.pre")
        store = JsonlStore.open(directory)
        assert [r["n"] for r in store.read("events")] == [0, 1, 2, 3, 4]
        assert store.last_recovery.clean

    def test_crash_before_swap_sweeps_temp_keeps_original(self, tmp_path):
        # ``mid`` now sits between a rollback's last cut and the journal's
        # removal: a crash there must leave the next open able to finish.
        directory = make_store(tmp_path, records=5)
        whole = (directory / "events.jsonl").read_bytes()
        store = JsonlStore.open(directory)
        store.begin_intent("grp")
        store.append("events", {"n": 5})
        store.close()
        install(CrashPlan(CrashDirective("store.truncate.mid")))
        try:
            with pytest.raises(CrashError):
                JsonlStore.open(directory)
        finally:
            install(None)
        # The cut is done; only the journal's removal is outstanding.
        assert (directory / "events.jsonl").read_bytes() == whole
        assert (directory / "intent.log").exists()
        store = JsonlStore.open(directory)
        assert store.last_recovery.intent_rolled_back == "grp"
        assert [r["n"] for r in store.read("events")] == [0, 1, 2, 3, 4]
        assert not (directory / "intent.log").exists()

    def test_crash_after_swap_is_a_completed_truncate(self, tmp_path):
        directory = self._crash_truncating(tmp_path, "store.truncate.post")
        store = JsonlStore.open(directory)
        assert [r["n"] for r in store.read("events")] == [0, 1]
        assert store.last_recovery.clean


class TestCutPrimitive:
    def test_truncate_keeps_prefix_bytes(self, tmp_path):
        directory = tmp_path / "s"
        JsonlStore(directory, run_id="cut").close()
        path = directory / "events.jsonl"
        prefix = b'{"n": 0}\n{"n": 1,  "x": "y"}\n'
        path.write_bytes(prefix + b'{"n": 2}\n{"n": 3}\n')
        store = JsonlStore.open(directory)
        store.truncate("events", 2)
        assert path.read_bytes() == prefix
        assert not list(directory.glob("*.tmp"))

    def test_stream_shorter_than_snapshot_refuses_open(self, tmp_path):
        directory = make_store(tmp_path)
        store = JsonlStore.open(directory)
        store.begin_intent("grp")
        store.close()
        path = directory / "events.jsonl"
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(StoreError, match="'events'") as error:
            JsonlStore.open(directory)
        assert f"{size - 10} bytes" in str(error.value)
        assert f"the {size} its open intent" in str(error.value)

    def test_store_check_on_shrunk_stream_exits_2(self, tmp_path, capsys):
        directory = make_store(tmp_path)
        store = JsonlStore.open(directory)
        store.begin_intent("grp")
        store.close()
        path = directory / "events.jsonl"
        path.write_bytes(path.read_bytes()[:-10])
        assert main(["store", "check", str(directory)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'events'" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_torn_tail_before_intent_is_repaired_not_journaled(self, tmp_path):
        # A begin journals sizes on line boundaries: a torn tail is cut
        # first, so a rollback of an append-free intent shrinks nothing.
        directory = make_store(tmp_path)
        path = directory / "events.jsonl"
        whole = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b'{"n": 99, "pay')
        store = JsonlStore.open(directory)
        store.begin_intent("grp")
        store.close()
        store = JsonlStore.open(directory)
        assert store.last_recovery.intent_rolled_back == "grp"
        assert path.read_bytes() == whole

    def test_old_format_journals(self, tmp_path):
        # A begin/commit pair from the record-count journal reads as
        # committed; an open record-count begin cannot be cut by size.
        directory = make_store(tmp_path)
        journal = directory / "intent.log"
        begin = b'{"counts":{"events":1},"label":"old","op":"begin"}\n'
        journal.write_bytes(begin + b'{"op":"commit"}\n')
        store = JsonlStore.open(directory)
        assert store.last_recovery.clean and store.count("events") == 3
        store.close()
        journal.write_bytes(begin)
        with pytest.raises(StoreError, match="older store format"):
            JsonlStore.open(directory)
        assert store.read("events") and journal.exists()


class TestIntentJournal:
    def _abandoned_intent(self, tmp_path):
        directory = make_store(tmp_path)
        store = JsonlStore.open(directory)
        store.begin_intent("grp")
        store.append("events", {"n": 77})
        store.append("newstream", {"fresh": True})
        store.close()  # crash: the intent is never committed
        return directory

    def test_uncommitted_intent_rolls_back_on_open(self, tmp_path):
        directory = self._abandoned_intent(tmp_path)
        store = JsonlStore.open(directory)
        recovery = store.last_recovery
        assert recovery.intent_rolled_back == "grp"
        assert recovery.records_rolled_back == {"events": 1}
        assert recovery.streams_removed == ["newstream"]
        assert [r["n"] for r in store.read("events")] == [0, 1, 2]
        assert not (directory / "newstream.jsonl").exists()
        assert not (directory / "intent.log").exists()

    def test_committed_intent_is_never_rolled_back(self, tmp_path):
        directory = make_store(tmp_path)
        store = JsonlStore.open(directory)
        store.begin_intent("grp")
        store.append("events", {"n": 3})
        store.commit_intent()
        store.close()
        store = JsonlStore.open(directory)
        assert store.last_recovery.clean
        assert store.count("events") == 4

    def test_nested_intent_rejected(self, tmp_path):
        store = JsonlStore(tmp_path / "s", run_id="torn")
        store.begin_intent("outer")
        with pytest.raises(StoreError, match="inside an open intent"):
            store.begin_intent("inner")

    def test_stream_born_after_open_rolls_back(self, tmp_path, monkeypatch):
        # The store learns its streams at open and from its own appends;
        # a stream first created later, inside an intent, is still
        # removed when that intent rolls back — and no batch globs.
        directory = make_store(tmp_path)
        store = JsonlStore.open(directory)

        def no_glob(self, pattern):
            raise AssertionError(f"globbed {pattern!r} after open")

        monkeypatch.setattr(type(directory), "glob", no_glob)
        store.append("feed", {"v": 1})  # born after open, committed
        store.begin_intent("grp")
        store.append("feed", {"v": 2})
        store.append("policy", {"round": 0})  # born inside the intent
        store.close()  # crash: the intent is never committed
        monkeypatch.undo()
        store = JsonlStore.open(directory)
        recovery = store.last_recovery
        assert recovery.intent_rolled_back == "grp"
        assert recovery.records_rolled_back == {"feed": 1}
        assert recovery.streams_removed == ["policy"]
        assert store.read("feed") == [{"v": 1}]
        assert not (directory / "policy.jsonl").exists()

    def test_torn_begin_record_is_ignored(self, tmp_path):
        # A begin line that never finished writing means begin_intent never
        # returned, so no stream write can have happened under it.
        directory = make_store(tmp_path)
        (directory / "intent.log").write_bytes(b'{"op":"begin","label":"t')
        store = JsonlStore.open(directory)
        assert store.last_recovery.intent_rolled_back is None
        assert store.count("events") == 3
        assert not (directory / "intent.log").exists()

    def test_crash_inside_rollback_is_itself_recoverable(self, tmp_path):
        # A crash in the middle of *recovery* must leave the next open
        # able to finish the rollback.
        reset()
        directory = self._abandoned_intent(tmp_path)
        install(CrashPlan(CrashDirective("store.truncate.mid")))
        try:
            with pytest.raises(CrashError):
                JsonlStore.open(directory)
        finally:
            install(None)
            reset()
        assert (directory / "intent.log").exists()  # rollback incomplete
        store = JsonlStore.open(directory)
        assert store.last_recovery.intent_rolled_back == "grp"
        assert [r["n"] for r in store.read("events")] == [0, 1, 2]
        assert not (directory / "intent.log").exists()

    def test_open_refuses_store_without_identity(self, tmp_path):
        # Debris of a run that died before run-init committed: meta.jsonl
        # absent (or identity rolled back) must not be adopted as "run".
        directory = tmp_path / "debris"
        directory.mkdir()
        with pytest.raises(StoreError, match="no run store"):
            JsonlStore.open(directory)
        (directory / "meta.jsonl").write_bytes(b'{"key":"run_id","va')
        with pytest.raises(StoreError, match="no run store"):
            JsonlStore.open(directory)


class TestStoreCheckCLI:
    def test_clean_store_reports_counts(self, tmp_path, capsys):
        directory = make_store(tmp_path)
        assert main(["store", "check", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "'torn'" in out and "clean" in out
        assert "events" in out and "3 records" in out

    def test_torn_tail_reported_as_repaired(self, tmp_path, capsys):
        directory = make_store(tmp_path)
        with (directory / "events.jsonl").open("ab") as handle:
            handle.write(b'{"n": 99, "pay')
        assert main(["store", "check", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out
        assert "repaired torn tail: events (14 bytes trimmed)" in out
        # The repair is durable: a second check is clean.
        assert main(["store", "check", str(directory)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_rolled_back_intent_reported(self, tmp_path, capsys):
        directory = make_store(tmp_path)
        store = JsonlStore.open(directory)
        store.begin_intent("batch:x.example")
        store.append("events", {"n": 9})
        store.close()
        assert main(["store", "check", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "rolled back uncommitted intent 'batch:x.example'" in out
        assert "events: 1" in out

    def test_interior_corruption_exits_2(self, tmp_path, capsys):
        directory = make_store(tmp_path)
        path = directory / "events.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"broken": \n'
        path.write_bytes(b"".join(lines))
        assert main(["store", "check", str(directory)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corrupt record" in err

    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["store", "check", str(tmp_path / "absent")]) == 2
        assert "no run store" in capsys.readouterr().err


class TestResumeAfterTornBatch:
    def _interrupted_run(self, tmp_path, batches=4):
        directory = tmp_path / "run"
        pipeline = SeacmaPipeline(
            build_world(WorldConfig.tiny(seed=5)), milking_config=MILKING
        )
        store = JsonlStore(directory, run_id="resume")
        run = pipeline.start_streaming(store=store, with_milking=False)
        for count, _ in enumerate(run.crawl_batches()):
            if count >= batches:
                break
        store.close()
        return directory

    def test_unacknowledged_rows_trimmed_and_recrawled(self, tmp_path):
        directory = self._interrupted_run(tmp_path)
        interactions = directory / "interactions.jsonl"
        lines = interactions.read_bytes().splitlines(keepends=True)
        with interactions.open("ab") as handle:
            handle.write(lines[0])        # complete but unacknowledged row
            handle.write(lines[1][:33])   # torn mid-append
        store = JsonlStore.open(directory)
        world = load_world(store)
        pipeline = SeacmaPipeline(world, milking_config=MILKING)
        result = pipeline.resume_streaming(store, with_milking=False)
        rows = store.read("interactions")
        progress = store.read("progress")
        hashes = store.read("hashes")
        assert progress[-1]["interaction_rows"] == len(rows)
        assert all(record["row"] < len(rows) for record in hashes)
        assert len(result.crawl.interactions) == len(rows)

    def test_acknowledged_damage_still_refuses(self, tmp_path):
        directory = self._interrupted_run(tmp_path)
        interactions = directory / "interactions.jsonl"
        data = interactions.read_bytes()
        interactions.write_bytes(data[: len(data) - 30])  # tears an acked row
        store = JsonlStore.open(directory)
        world = load_world(store)
        pipeline = SeacmaPipeline(world, milking_config=MILKING)
        with pytest.raises(StoreError, match="missing crawl records"):
            pipeline.resume_streaming(store, with_milking=False)
