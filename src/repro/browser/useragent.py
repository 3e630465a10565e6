"""User-agent profiles and device emulation.

§3.2: the crawlers visit each publisher with four Browser/OS combinations
— Chrome 66 on macOS, Chrome 65 on Android (with DevTools device emulation
for screen size), IE 10 on Windows and Edge 12 on Windows — because many
SEACMA ads are targeted by platform.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class UserAgentProfile:
    """One emulated Browser/OS combination."""

    name: str
    ua_string: str
    browser: str
    os: str
    mobile: bool
    screen_width: int
    screen_height: int


CHROME_MACOS = UserAgentProfile(
    name="chrome66-macos",
    ua_string=(
        "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13_4) AppleWebKit/537.36 "
        "(KHTML, like Gecko) Chrome/66.0.3359.117 Safari/537.36"
    ),
    browser="chrome",
    os="macos",
    mobile=False,
    screen_width=1440,
    screen_height=900,
)

CHROME_ANDROID = UserAgentProfile(
    name="chrome65-android",
    ua_string=(
        "Mozilla/5.0 (Linux; Android 8.0.0; Pixel 2) AppleWebKit/537.36 "
        "(KHTML, like Gecko) Chrome/65.0.3325.109 Mobile Safari/537.36"
    ),
    browser="chrome",
    os="android",
    mobile=True,
    screen_width=411,
    screen_height=731,
)

IE_WINDOWS = UserAgentProfile(
    name="ie10-windows",
    ua_string="Mozilla/5.0 (compatible; MSIE 10.0; Windows NT 6.2; Trident/6.0)",
    browser="ie",
    os="windows",
    mobile=False,
    screen_width=1366,
    screen_height=768,
)

EDGE_WINDOWS = UserAgentProfile(
    name="edge12-windows",
    ua_string=(
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
        "(KHTML, like Gecko) Chrome/42.0.2311.135 Safari/537.36 Edge/12.246"
    ),
    browser="edge",
    os="windows",
    mobile=False,
    screen_width=1920,
    screen_height=1080,
)

#: The paper's four crawling profiles, in crawl order.
PROFILES: tuple[UserAgentProfile, ...] = (
    CHROME_MACOS,
    CHROME_ANDROID,
    IE_WINDOWS,
    EDGE_WINDOWS,
)


def profile_by_name(name: str) -> UserAgentProfile:
    """Look up a profile by its short name."""
    for profile in PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(name)
