"""Tests for backtracking graphs and milkable-URL extraction (§3.4/§3.5)."""

from dataclasses import replace

from repro.core.backtrack import attack_node, backtracking_graph, milkable_candidates
from repro.core.crawler import AdInteraction, ChainNode


def figure3_interaction():
    """The Figure 3 chain: publisher -> AdSterra -> TDS -> attack page."""
    return AdInteraction(
        publisher_domain="verbeinlaliga.com",
        publisher_url="http://verbeinlaliga.com/",
        ua_name="chrome66-macos",
        vantage_name="institution",
        landing_url="http://live6nmld10.club/lp?cid=x",
        landing_host="live6nmld10.club",
        landing_e2ld="live6nmld10.club",
        screenshot_hash=123,
        timestamp=0.0,
        chain=(
            ChainNode(
                url="http://nsvf17p9.com/atag_srv/go?pid=verbeinlaliga.com",
                cause="window-open",
                source_url="http://nsvf17p9.com/atag_srv.js",
            ),
            ChainNode(
                url="http://nsvf17p9.com/atag_srv/go?pid=verbeinlaliga.com",
                cause="initial",
                source_url="http://nsvf17p9.com/atag_srv.js",
            ),
            ChainNode(url="http://findglo210.info/go?cid=ts-01", cause="http-redirect"),
            ChainNode(url="http://live6nmld10.club/lp?cid=x", cause="http-redirect"),
        ),
        publisher_scripts=("http://nsvf17p9.com/atag_srv.js",),
        labels={"kind": "se-attack"},
    )


class TestBacktrackingGraph:
    def test_nodes_and_roles(self):
        graph = backtracking_graph(figure3_interaction())
        roles = graph.nodes
        assert roles["http://verbeinlaliga.com/"] == "publisher"
        assert roles["http://nsvf17p9.com/atag_srv.js"] == "script"
        assert roles["http://live6nmld10.club/lp?cid=x"] == "attack"

    def test_edge_order_follows_loading(self):
        graph = backtracking_graph(figure3_interaction())
        pairs = [(src, dst) for src, dst, _ in graph.edges]
        assert ("http://verbeinlaliga.com/", "http://nsvf17p9.com/atag_srv.js") in pairs
        assert (
            "http://nsvf17p9.com/atag_srv.js",
            "http://nsvf17p9.com/atag_srv/go?pid=verbeinlaliga.com",
        ) in pairs
        assert (
            "http://findglo210.info/go?cid=ts-01",
            "http://live6nmld10.club/lp?cid=x",
        ) in pairs

    def test_edges_listed_in_causal_order(self):
        graph = backtracking_graph(figure3_interaction())
        assert graph.edges == (
            ("http://verbeinlaliga.com/", "http://nsvf17p9.com/atag_srv.js", "script-include"),
            (
                "http://nsvf17p9.com/atag_srv.js",
                "http://nsvf17p9.com/atag_srv/go?pid=verbeinlaliga.com",
                "window-open",
            ),
            (
                "http://nsvf17p9.com/atag_srv/go?pid=verbeinlaliga.com",
                "http://findglo210.info/go?cid=ts-01",
                "http-redirect",
            ),
            (
                "http://findglo210.info/go?cid=ts-01",
                "http://live6nmld10.club/lp?cid=x",
                "http-redirect",
            ),
        )

    def test_duplicate_consecutive_urls_collapsed(self):
        graph = backtracking_graph(figure3_interaction())
        # window-open + initial log the same click URL; one node results.
        click_nodes = [n for n in graph.nodes if "atag_srv/go" in n]
        assert len(click_nodes) == 1

    def test_attack_node_lookup(self):
        graph = backtracking_graph(figure3_interaction())
        assert attack_node(graph) == "http://live6nmld10.club/lp?cid=x"

    def test_dead_landing_marked(self):
        record = figure3_interaction()
        dead = replace(record, load_failed=True)
        graph = backtracking_graph(dead)
        assert graph.nodes[attack_node(graph)] == "dead"

    def test_edge_causes_recorded(self):
        graph = backtracking_graph(figure3_interaction())
        causes = {cause for _, _, cause in graph.edges}
        assert "script-include" in causes
        assert "http-redirect" in causes


class TestMilkableCandidates:
    def test_tds_extracted(self):
        candidates = milkable_candidates(figure3_interaction())
        assert candidates == ["http://findglo210.info/go?cid=ts-01"]

    def test_adnet_click_url_excluded(self):
        """If the TDS hop is missing, the ad network's click endpoint must
        NOT become a milking source (§6: milking avoids the ad networks)."""
        record = figure3_interaction()
        chain = tuple(node for node in record.chain if "findglo210" not in node.url)
        no_tds = replace(record, chain=chain)
        assert milkable_candidates(no_tds) == []

    def test_empty_chain(self):
        record = figure3_interaction()
        empty = replace(record, chain=())
        assert milkable_candidates(empty) == []

    def test_candidates_on_real_crawl(self, pipeline_run):
        world, _, result = pipeline_run
        tds_domains = {campaign.tds_domain for campaign in world.campaigns}
        found = set()
        for cluster in result.discovery.seacma_campaigns:
            for record in cluster.interactions:
                for url in milkable_candidates(record):
                    host = url.split("/")[2]
                    found.add(host)
        assert found
        assert found <= tds_domains, "candidates must be upstream TDS hosts"
