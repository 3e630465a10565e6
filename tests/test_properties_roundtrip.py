"""Property-based round-trip tests: export/import, PNG, feeds."""

import string
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import export_crawl_dataset, import_crawl_dataset
from repro.analysis.feeds import BlacklistFeed, FeedEntry
from repro.core.crawler import AdInteraction, ChainNode, PageFeatures
from repro.imaging.png import encode_png

# ------------------------------------------------------------- strategies

short_text = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12)
host = st.lists(short_text, min_size=2, max_size=3).map(".".join)
url = host.map(lambda h: f"http://{h}/p")
cause = st.sampled_from(["window-open", "http-redirect", "meta-refresh", "js-location"])

chain_node = st.builds(
    ChainNode,
    url=url,
    cause=cause,
    source_url=st.one_of(st.none(), url),
)

page_features = st.builds(
    PageFeatures,
    n_scripts=st.integers(0, 9),
    n_images=st.integers(0, 9),
    n_anchors=st.integers(0, 9),
    n_offsite_anchors=st.integers(0, 9),
    title=short_text,
)

interaction = st.builds(
    AdInteraction,
    publisher_domain=host,
    publisher_url=url,
    ua_name=st.sampled_from(["chrome66-macos", "chrome65-android", "ie10-windows"]),
    vantage_name=st.sampled_from(["institution", "laptop-1"]),
    landing_url=url,
    landing_host=host,
    landing_e2ld=host,
    screenshot_hash=st.integers(min_value=0, max_value=2**128 - 1),
    timestamp=st.floats(min_value=0, max_value=1e7, allow_nan=False),
    chain=st.lists(chain_node, max_size=5).map(tuple),
    publisher_scripts=st.lists(url, max_size=3).map(tuple),
    load_failed=st.booleans(),
    notification_prompt=st.booleans(),
    notification_push_endpoint=st.one_of(st.none(), url),
    popunder=st.booleans(),
    page_features=page_features,
    labels=st.dictionaries(short_text, short_text, max_size=3),
)


class TestCrawlExportProperties:
    @given(records=st.lists(interaction, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_everything(self, records):
        restored = import_crawl_dataset(export_crawl_dataset(records))
        assert len(restored) == len(records)
        for original, copy in zip(records, restored):
            assert copy.landing_url == original.landing_url
            assert copy.screenshot_hash == original.screenshot_hash
            assert copy.chain == original.chain
            assert copy.publisher_scripts == original.publisher_scripts
            assert copy.page_features == original.page_features
            assert copy.labels == original.labels
            assert copy.load_failed == original.load_failed


class TestPngProperties:
    @given(
        height=st.integers(min_value=1, max_value=64),
        width=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_size_roundtrip(self, height, width, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(height, width)).astype(np.uint8)
        assert struct.unpack(">II", encode_png(image)[16:24]) == (width, height)


class TestFeedProperties:
    @given(
        values=st.lists(short_text, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_dedupe_invariant(self, values):
        feed = BlacklistFeed(name="prop")
        for index, value in enumerate(values):
            feed.add(FeedEntry(value=value, first_seen=float(index), kind="domain"))
        assert len(feed) == len(set(values))
        assert feed.values() == list(dict.fromkeys(values))
        for value in values:
            assert value in feed.values()
