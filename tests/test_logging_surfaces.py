"""Direct tests for the instrumentation and browser log query APIs."""

from repro.browser.logging import (
    BrowserLog,
    DialogEntry,
    LogEntry,
    NavigationEntry,
    ScriptFetchEntry,
    TabOpenEntry,
)
from repro.browser.useragent import CHROME_MACOS
from repro.core.crawler import crawl_session
from repro.js.instrumentation import InstrumentationLog


class TestInstrumentationLog:
    def make_log(self):
        log = InstrumentationLog()
        log.record(0.0, "Window.open", ("http://a.com/",), "http://s.com/a.js", "http://p.com/")
        log.record(1.0, "Window.open", ("http://b.com/",), "http://s.com/b.js", "http://p.com/")
        log.record(2.0, "Window.alert", ("hi",), None, "http://x.com/")
        return log

    def test_len_and_iter(self):
        log = self.make_log()
        assert len(log) == 3
        assert [record.api for record in log] == [
            "Window.open", "Window.open", "Window.alert",
        ]


class TestBrowserLog:
    def make_entries(self):
        log = BrowserLog()
        log.append(NavigationEntry(timestamp=0.0, tab_id=1, url="http://a.com/", cause="initial"))
        log.append(TabOpenEntry(timestamp=1.0, tab_id=2, parent_tab_id=1, url="http://b.com/"))
        log.append(NavigationEntry(timestamp=2.0, tab_id=2, url="http://b.com/", cause="window-open"))
        log.append(DialogEntry(timestamp=3.0, tab_id=2, kind="alert", message="x", page_url="http://b.com/"))
        return log

    def test_entries_of(self):
        log = self.make_entries()
        assert len(log.entries_of(NavigationEntry)) == 2
        assert len(log.entries_of(TabOpenEntry)) == 1

    def test_navigations_filtered_by_tab(self):
        log = self.make_entries()
        assert len(log.navigations()) == 2
        assert len(log.navigations(tab_id=2)) == 1
        assert log.navigations(tab_id=9) == []

    def test_mark_and_since(self):
        log = self.make_entries()
        mark = log.mark()
        assert log.since(mark) == []
        entry = NavigationEntry(timestamp=4.0, tab_id=1, url="http://c.com/", cause="initial")
        log.append(entry)
        assert log.since(mark) == [entry]

    def test_downloads_empty(self):
        assert self.make_entries().downloads() == []

    def test_iteration_order(self):
        log = self.make_entries()
        timestamps = [entry.timestamp for entry in log]
        assert timestamps == sorted(timestamps)


class TestCliSelfcheck:
    def test_selfcheck_ok(self, capsys):
        from repro.cli import main

        assert main(["selfcheck", "--seed", "4"]) == 0
        assert "world ok" in capsys.readouterr().out


def _entry_kinds():
    kinds, todo = [], [LogEntry]
    while todo:
        kind = todo.pop()
        kinds.append(kind)
        todo.extend(kind.__subclasses__())
    return kinds


def _crawl_some(world):
    for site in world.publishers[:12]:
        crawl_session(world.internet, site.url, CHROME_MACOS, world.vantage_institution)


class TestSessionLogRows:
    """A crawl session logs rows; entries exist only when read back."""

    def test_crawl_builds_no_log_entries(self, fresh_world, monkeypatch):
        built = []
        for kind in _entry_kinds():
            init = kind.__init__
            monkeypatch.setattr(
                kind,
                "__init__",
                lambda self, *args, _init=init, **kwargs: built.append(type(self))
                or _init(self, *args, **kwargs),
            )
        added = []
        add = BrowserLog.add
        monkeypatch.setattr(
            BrowserLog, "add", lambda self, kind, row: added.append(kind) or add(self, kind, row)
        )
        _crawl_some(fresh_world)
        assert len(added) > 100
        assert built == []

    def test_reading_back_gives_the_recorded_entries_in_order(self, fresh_world, monkeypatch):
        recorded: dict[int, list] = {}
        logs = {}
        add = BrowserLog.add

        def recording_add(self, kind, row):
            recorded.setdefault(id(self), []).append(kind(*row))
            logs[id(self)] = self
            add(self, kind, row)

        monkeypatch.setattr(BrowserLog, "add", recording_add)
        _crawl_some(fresh_world)
        assert len(logs) >= 12
        kinds_seen = set()
        for key, log in logs.items():
            expected = recorded[key]
            assert list(log) == expected
            assert len(log) == len(expected)
            for mark in (0, 1, len(expected) // 2, len(expected)):
                assert log.since(mark) == expected[mark:]
            for kind in {type(entry) for entry in expected}:
                kinds_seen.add(kind)
                assert log.entries_of(kind) == [e for e in expected if type(e) is kind]
            assert log.entries_of(LogEntry) == expected
            navigations = [e for e in expected if isinstance(e, NavigationEntry)]
            assert log.navigations() == navigations
            for tab_id in {entry.tab_id for entry in expected}:
                assert log.navigations(tab_id) == [
                    e for e in navigations if e.tab_id == tab_id
                ]
        assert {NavigationEntry, TabOpenEntry, ScriptFetchEntry} <= kinds_seen
