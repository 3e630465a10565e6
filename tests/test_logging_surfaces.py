"""Direct tests for the instrumentation and browser log query APIs."""

from repro.browser.logging import (
    BrowserLog,
    DialogEntry,
    NavigationEntry,
    TabOpenEntry,
)
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
