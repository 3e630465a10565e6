"""Figures 5 & 6 — the SE-attack screenshot gallery.

Benchmarks screenshot rendering + perceptual hashing across every
campaign template and verifies the property the whole discovery pipeline
rests on: screenshots of one campaign are near-duplicates; screenshots
of different campaigns are far apart.
"""

import itertools

from repro.dom.page import VisualSpec
from repro.imaging.dhash import dhash128, dhash_hex
from repro.imaging.distance import hamming
from repro.imaging.image import render_visual

_fresh_variant = itertools.count(10_000)


def test_fig5_screenshot_gallery(benchmark, bench_world, save_artifact):
    campaigns = bench_world.campaigns

    def render_gallery():
        # Fresh variants each call: this measures rendering and hashing
        # a visual the pipeline's per-visual hash memo has not seen.
        base = next(_fresh_variant)
        return [
            dhash128(render_visual(VisualSpec(campaign.template_key, variant=base + i)))
            for i, campaign in enumerate(campaigns)
        ]

    benchmark(render_gallery)

    lines = []
    hashes = {}
    for campaign in campaigns:
        near = [
            dhash128(render_visual(VisualSpec(campaign.template_key, variant=v)))
            for v in range(3)
        ]
        hashes[campaign.key] = near[0]
        spread = max(hamming(near[0], h) for h in near)
        lines.append(
            f"{campaign.category.value:<22} {campaign.key:<24} "
            f"dhash {dhash_hex(near[0])}  intra-spread {spread} bits"
        )
        # Same campaign, different domains: inside the clustering eps.
        assert spread <= 12

    # Different campaigns: far outside eps.
    keys = list(hashes)
    min_cross = min(
        hamming(hashes[a], hashes[b])
        for i, a in enumerate(keys)
        for b in keys[i + 1 :]
    )
    lines.append(f"minimum cross-campaign distance: {min_cross} bits")
    assert min_cross > 12
    save_artifact("fig5_screenshot_gallery", "\n".join(lines))
