"""Application traffic profiles.

The paper's traffic generator uses "template sessions using real
traffic captured for common protocols like HTTP, IRC, and Telnet, and
synthetically generate[s] traffic sessions for other protocols"
(Section 2.4).  We encode each protocol as a :class:`SessionTemplate`:
the server port, transport protocol, and the distributions of packets
and bytes per session, derived from the shapes commonly reported for
those protocols (short transactional HTTP sessions, long chatty IRC
sessions, keystroke-dominated Telnet, tiny UDP TFTP transfers, worm
probes, and half-open SYN-flood attempts).

A :class:`TrafficProfile` is a weighted mixture of templates — the
"relative popularity of different application ports".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from .packet import TCP, UDP


@dataclass(frozen=True)
class SessionTemplate:
    """Statistical template for one application protocol's sessions."""

    name: str
    server_port: int
    proto: int = TCP
    mean_packets: float = 10.0
    min_packets: int = 2
    max_packets: int = 200
    mean_packet_size: int = 500
    bidirectional: bool = True
    #: Fraction of sessions carrying a malware payload tag (drives the
    #: signature module and NIPS match rates).
    malicious_fraction: float = 0.0
    payload_tag: str = ""
    #: True for half-open SYN-only attempts (SYN-flood template).
    half_open: bool = False
    #: True when the "session" is a one-packet probe to a random host
    #: (scan template) rather than a normal connection.
    probe: bool = False

    def draw_packet_count(self, rng: random.Random) -> int:
        """Draw a session's packet count (geometric-ish, bounded)."""
        if self.half_open or self.probe:
            return 1
        span = max(1.0, self.mean_packets - self.min_packets)
        count = self.min_packets + int(rng.expovariate(1.0 / span))
        return max(self.min_packets, min(self.max_packets, count))


#: Template library keyed by protocol name.  Ports follow the modules'
#: canonical assignments (HTTP 80, IRC 6667, Telnet/login 23, TFTP 69,
#: Blaster worm RPC 135).
TEMPLATES: Dict[str, SessionTemplate] = {
    "http": SessionTemplate(
        name="http", server_port=80, mean_packets=12, min_packets=4,
        mean_packet_size=700, malicious_fraction=0.01, payload_tag="exploit-http",
    ),
    "irc": SessionTemplate(
        name="irc", server_port=6667, mean_packets=60, min_packets=10,
        mean_packet_size=120, malicious_fraction=0.02, payload_tag="botnet-cnc",
    ),
    "telnet": SessionTemplate(
        name="telnet", server_port=23, mean_packets=80, min_packets=10,
        mean_packet_size=80, malicious_fraction=0.01, payload_tag="login-bruteforce",
    ),
    "tftp": SessionTemplate(
        name="tftp", server_port=69, proto=UDP, mean_packets=8, min_packets=2,
        mean_packet_size=450,
    ),
    "smtp": SessionTemplate(
        name="smtp", server_port=25, mean_packets=15, min_packets=6,
        mean_packet_size=600,
    ),
    "dns": SessionTemplate(
        name="dns", server_port=53, proto=UDP, mean_packets=2, min_packets=2,
        max_packets=4, mean_packet_size=120,
    ),
    "blaster": SessionTemplate(
        name="blaster", server_port=135, mean_packets=3, min_packets=2,
        mean_packet_size=300, malicious_fraction=1.0, payload_tag="blaster-worm",
    ),
    "synflood": SessionTemplate(
        name="synflood", server_port=80, mean_packets=1, half_open=True,
        mean_packet_size=40, malicious_fraction=1.0, payload_tag="syn-flood",
    ),
    "scanprobe": SessionTemplate(
        name="scanprobe", server_port=0, mean_packets=1, probe=True,
        mean_packet_size=40, malicious_fraction=1.0, payload_tag="scan",
    ),
}


@dataclass
class TrafficProfile:
    """A weighted mixture of session templates."""

    name: str
    weights: Dict[str, float]

    def __post_init__(self) -> None:
        unknown = set(self.weights) - set(TEMPLATES)
        if unknown:
            raise ValueError(f"unknown templates in profile: {sorted(unknown)}")
        total = sum(self.weights.values())
        if total <= 0:
            raise ValueError("profile weights must sum to a positive value")
        self.weights = {name: w / total for name, w in self.weights.items()}

    @property
    def template_names(self) -> List[str]:
        """Names of the templates in this mixture."""
        return list(self.weights)

    def draw_template(self, rng: random.Random) -> SessionTemplate:
        """Sample a template according to the mixture weights."""
        names = list(self.weights)
        probabilities = [self.weights[n] for n in names]
        return TEMPLATES[rng.choices(names, weights=probabilities)[0]]


def mixed_profile() -> TrafficProfile:
    """The microbenchmark's "mixed traffic profile that stresses
    different modules": every module sees a meaningful share."""
    return TrafficProfile(
        "mixed",
        {
            "http": 0.34,
            "irc": 0.08,
            "telnet": 0.06,
            "tftp": 0.05,
            "smtp": 0.12,
            "dns": 0.15,
            "blaster": 0.05,
            "synflood": 0.07,
            "scanprobe": 0.08,
        },
    )


def web_heavy_profile() -> TrafficProfile:
    """An enterprise-egress-style profile dominated by HTTP."""
    return TrafficProfile(
        "web-heavy",
        {"http": 0.70, "dns": 0.15, "smtp": 0.08, "irc": 0.02, "telnet": 0.01,
         "synflood": 0.02, "scanprobe": 0.02},
    )


def attack_heavy_profile() -> TrafficProfile:
    """A profile with an elevated unwanted-traffic share (NIPS stress)."""
    return TrafficProfile(
        "attack-heavy",
        {"http": 0.25, "dns": 0.10, "smtp": 0.05, "irc": 0.05,
         "blaster": 0.20, "synflood": 0.20, "scanprobe": 0.15},
    )


#: Profile factories by name, as configs and fault-plan shifts name them.
PROFILES: Dict[str, Callable[[], TrafficProfile]] = {
    "mixed": mixed_profile,
    "web_heavy": web_heavy_profile,
    "attack_heavy": attack_heavy_profile,
}
