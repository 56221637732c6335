"""Golden fingerprints of every RBC completion mode, end to end and standalone.

The same completion rules (ECHO/READY tallies, clan-supporter counts, READY
amplification, the two-round certificate, the optimistic all-n fast path and
its fallback) drive both the consensus-level ``VertexRbc`` and the standalone
RBC protocols.  These fingerprints pin their exact outputs, so any change to
event order, message count, or delivery time in either shows up here.  The
expected values are recorded from the implementation and must never be
edited to follow a behavioural change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.committees import ClanConfig
from repro.consensus import Deployment, ProtocolParams
from repro.consensus.byzantine import EquivocatingProposer
from repro.crypto.signatures import Pki
from repro.net.faults import LossyLink
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc import (
    BrachaRbc,
    Membership,
    OptimisticRbc,
    TribeBrachaRbc,
    TribeTwoRoundRbc,
    TwoRoundRbc,
)
from repro.rbc.byzantine import send_equivocating_vals, send_withholding_vals
from repro.sim import Simulator
from repro.smr.mempool import SyntheticWorkload

# -- deployment runs ---------------------------------------------------------

#: n=7 with one elected clan {0, 1, 4, 6}: the clan condition (f_c+1 clan
#: ECHOes) is live, and node 4 is a block proposer that can equivocate.
CFG = ClanConfig.single_clan(7, 4)
EQUIVOCATOR = 4


def _deployment_fingerprint(mode: str, byzantine: bool, loss: float) -> dict:
    workload = SyntheticWorkload(txns_per_proposal=5)
    dep = Deployment(
        CFG,
        ProtocolParams(rbc_mode=mode),
        make_block=workload.make_block,
        byzantine={EQUIVOCATOR: EquivocatingProposer()} if byzantine else None,
        faults=LossyLink(loss, seed=3) if loss else None,
        reliable=bool(loss),
    )
    dep.start()
    dep.run(until=4.0, max_events=5_000_000)
    honest = [i for i in range(CFG.n) if not (byzantine and i == EQUIVOCATOR)]
    fallbacks: dict[str, int] = {}
    for i in honest:
        for reason, count in dep.nodes[i].rbc.fallbacks.items():
            fallbacks[reason] = fallbacks.get(reason, 0) + count
    stats = dep.base_network.stats
    return {
        "events": dep.sim.processed_events,
        "bytes": stats.total_bytes,
        "messages": stats.total_messages,
        "log": hashlib.sha256(repr(dep.nodes[0].ordered_keys()).encode()).hexdigest(),
        "fast": sum(dep.nodes[i].rbc.fast_deliveries for i in honest),
        "fallback": sum(dep.nodes[i].rbc.fallback_deliveries for i in honest),
        "fallbacks": dict(sorted(fallbacks.items())),
    }


DEPLOYMENT_GOLDEN: dict[tuple[str, bool, float], dict] = {
    ('two-round', False, 0.0): {
        'events': 29120,
        'bytes': 6128144,
        'messages': 29498,
        'log': '27796e5a54107f38dc23a358da7eef797c6d1c7318c4cddce869c0ff2b481030',
        'fast': 0,
        'fallback': 0,
        'fallbacks': {},
    },
    ('two-round', True, 0.0): {
        'events': 7420,
        'bytes': 1750866,
        'messages': 7742,
        'log': '76141e2531d7195ca29e38dfed6d25fe4857a7c42b85aaa3bab3f660e6fb7440',
        'fast': 0,
        'fallback': 0,
        'fallbacks': {},
    },
    ('bracha', False, 0.0): {
        'events': 19551,
        'bytes': 2955212,
        'messages': 19845,
        'log': '03adfef09dc26a522fc867f1725a52a2da703dc642888d67caabdd3b9732d55c',
        'fast': 0,
        'fallback': 0,
        'fallbacks': {},
    },
    ('bracha', True, 0.0): {
        'events': 6230,
        'bytes': 1011432,
        'messages': 6223,
        'log': '497cabf8a9b6410c260ad01bdc1e6469b5bdbd79d3ae0ed00619f540201730e9',
        'fast': 0,
        'fallback': 0,
        'fallbacks': {},
    },
    ('optimistic', False, 0.0): {
        'events': 15694,
        'bytes': 3458232,
        'messages': 15778,
        'log': 'e4efd8eff727ab9fb0cd132075cc345b5eb71c8cd0f576c39f93798379b91321',
        'fast': 1960,
        'fallback': 0,
        'fallbacks': {},
    },
    ('optimistic', True, 0.0): {
        'events': 4438,
        'bytes': 1079468,
        'messages': 4508,
        'log': 'cc14637b31b882ea62d85844ad26bd5a926440b0720c417f2ba07821d2a457a1',
        'fast': 396,
        'fallback': 0,
        'fallbacks': {'conflict': 66},
    },
    ('prefix', False, 0.0): {
        'events': 21279,
        'bytes': 3195188,
        'messages': 21573,
        'log': '03adfef09dc26a522fc867f1725a52a2da703dc642888d67caabdd3b9732d55c',
        'fast': 0,
        'fallback': 0,
        'fallbacks': {},
    },
    ('prefix', True, 0.0): {
        'events': 6473,
        'bytes': 1059042,
        'messages': 6466,
        'log': '497cabf8a9b6410c260ad01bdc1e6469b5bdbd79d3ae0ed00619f540201730e9',
        'fast': 0,
        'fallback': 0,
        'fallbacks': {},
    },
    ('optimistic', False, 0.02): {
        'events': 13786,
        'bytes': 1888436,
        'messages': 14026,
        'log': 'b08c60b63ad0cd229a4f0292c8b02e30f48f77e12225bbef3f75922f8f195270',
        'fast': 840,
        'fallback': 13,
        'fallbacks': {'timeout': 13},
    },
}


@pytest.mark.parametrize("case", sorted(DEPLOYMENT_GOLDEN), ids=str)
def test_deployment_fingerprint(case):
    assert _deployment_fingerprint(*case) == DEPLOYMENT_GOLDEN[case]


# -- standalone runs ---------------------------------------------------------

N = 16
CLAN = frozenset(range(10))


def _standalone_fingerprint(protocol: str, scenario: str) -> dict:
    sim = Simulator()
    net = Network(sim, N, latency=UniformLatencyModel(0.05), track_kinds=True)
    membership = Membership(N, CLAN)
    pki = Pki(N, seed=7)
    delivered: dict[int, tuple] = {}
    modules = []
    for i in range(N):
        def on_deliver(d, i=i):
            delivered[i] = (sim.now, d.digest.hex()[:16], d.full)

        if protocol == "bracha":
            module = BrachaRbc(i, N, net, sim, on_deliver)
        elif protocol == "two-round":
            module = TwoRoundRbc(i, N, net, sim, pki, on_deliver)
        elif protocol == "tribe-bracha":
            module = TribeBrachaRbc(i, membership, net, sim, on_deliver)
        elif protocol == "tribe-two-round":
            module = TribeTwoRoundRbc(i, membership, net, sim, pki, on_deliver)
        else:
            module = OptimisticRbc(i, membership, net, sim, on_deliver)
        modules.append(module)
    signed = pki if "two-round" in protocol else None
    whole = protocol in ("bracha", "two-round")
    members = Membership.whole_tribe(N) if whole else membership
    if scenario == "honest":
        modules[0].broadcast(b"v" * 1024, 1)
    elif scenario == "withhold":
        # Just enough holders echo for a quorum; the rest of the clan pulls.
        holders = range(12) if whole else range(6)
        send_withholding_vals(
            net, 15, 1, b"w" * 1024, members, receive_full=holders, pki=signed
        )
    else:  # equivocate: clan members 7-9 see "b", everyone else "a"
        assignments = {
            i: (b"b" if i in (7, 8, 9) else b"a") for i in range(N) if i != 15
        }
        send_equivocating_vals(net, 15, 1, assignments, members, pki=signed)
    sim.run(max_events=1_000_000)
    # Group the nodes by outcome: (delivery time, digest prefix, full).
    outcomes: dict[tuple, list[int]] = {}
    for i, outcome in sorted(delivered.items()):
        outcomes.setdefault(outcome, []).append(i)
    out = {
        "delivered": {k: tuple(v) for k, v in sorted(outcomes.items())},
        "by_kind": dict(sorted(net.stats.messages_by_kind.items())),
    }
    if protocol == "optimistic":
        out["fast"] = sum(m.fast_deliveries for m in modules)
        out["fallback"] = sum(m.fallback_deliveries for m in modules)
        out["fallbacks"] = dict(sorted(
            (r, sum(m.fallbacks.get(r, 0) for m in modules))
            for r in {r for m in modules for r in m.fallbacks}
        ))
    return out


STANDALONE_GOLDEN: dict[tuple[str, str], dict] = {
    ('bracha', 'honest'): {
        'delivered': {
            (0.15000000000000002, '558eef493ccbd46d', True): (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        },
        'by_kind': {'EchoMsg': 256, 'ReadyMsg': 256, 'ValMsg': 16},
    },
    ('bracha', 'withhold'): {
        'delivered': {
            (0.15000000000000002, 'c0f8873ab8299d79', True): (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
            (0.2, 'c0f8873ab8299d79', True): (12, 13, 14, 15),
        },
        'by_kind': {'EchoMsg': 192, 'PayloadRequest': 4, 'PayloadResponse': 4, 'ReadyMsg': 256, 'ValMsg': 16},
    },
    ('bracha', 'equivocate'): {
        'delivered': {
            (0.15000000000000002, '3b196fd4907bedf5', True): (0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14),
            (0.2, '3b196fd4907bedf5', True): (7, 8, 9, 15),
        },
        'by_kind': {'EchoMsg': 240, 'PayloadRequest': 4, 'PayloadResponse': 4, 'ReadyMsg': 256, 'ValMsg': 15},
    },
    ('two-round', 'honest'): {
        'delivered': {
            (0.1, '558eef493ccbd46d', True): (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        },
        'by_kind': {'CertMsg': 256, 'EchoMsg': 256, 'ValMsg': 16},
    },
    ('two-round', 'withhold'): {
        'delivered': {
            (0.1, 'c0f8873ab8299d79', True): (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
            (0.2, 'c0f8873ab8299d79', True): (12, 13, 14, 15),
        },
        'by_kind': {'CertMsg': 256, 'EchoMsg': 192, 'PayloadRequest': 4, 'PayloadResponse': 4, 'ValMsg': 16},
    },
    ('two-round', 'equivocate'): {
        'delivered': {
            (0.1, '3b196fd4907bedf5', True): (0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14),
            (0.2, '3b196fd4907bedf5', True): (7, 8, 9, 15),
        },
        'by_kind': {'CertMsg': 256, 'EchoMsg': 240, 'PayloadRequest': 4, 'PayloadResponse': 4, 'ValMsg': 15},
    },
    ('tribe-bracha', 'honest'): {
        'delivered': {
            (0.15000000000000002, '558eef493ccbd46d', False): (10, 11, 12, 13, 14, 15),
            (0.15000000000000002, '558eef493ccbd46d', True): (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        },
        'by_kind': {'EchoMsg': 256, 'ReadyMsg': 256, 'ValMsg': 16},
    },
    ('tribe-bracha', 'withhold'): {
        'delivered': {
            (0.15000000000000002, 'c0f8873ab8299d79', False): (10, 11, 12, 13, 14, 15),
            (0.15000000000000002, 'c0f8873ab8299d79', True): (0, 1, 2, 3, 4, 5),
            (0.2, 'c0f8873ab8299d79', True): (6, 7, 8, 9),
        },
        'by_kind': {'EchoMsg': 192, 'PayloadRequest': 4, 'PayloadResponse': 4, 'ReadyMsg': 256, 'ValMsg': 16},
    },
    ('tribe-bracha', 'equivocate'): {
        'delivered': {
            (0.15000000000000002, '3b196fd4907bedf5', False): (10, 11, 12, 13, 14, 15),
            (0.15000000000000002, '3b196fd4907bedf5', True): (0, 1, 2, 3, 4, 5, 6),
            (0.2, '3b196fd4907bedf5', True): (7, 8, 9),
        },
        'by_kind': {'EchoMsg': 240, 'PayloadRequest': 3, 'PayloadResponse': 3, 'ReadyMsg': 256, 'ValMsg': 15},
    },
    ('tribe-two-round', 'honest'): {
        'delivered': {
            (0.1, '558eef493ccbd46d', False): (10, 11, 12, 13, 14, 15),
            (0.1, '558eef493ccbd46d', True): (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        },
        'by_kind': {'CertMsg': 256, 'EchoMsg': 256, 'ValMsg': 16},
    },
    ('tribe-two-round', 'withhold'): {
        'delivered': {
            (0.1, 'c0f8873ab8299d79', False): (10, 11, 12, 13, 14, 15),
            (0.1, 'c0f8873ab8299d79', True): (0, 1, 2, 3, 4, 5),
            (0.2, 'c0f8873ab8299d79', True): (6, 7, 8, 9),
        },
        'by_kind': {'CertMsg': 256, 'EchoMsg': 192, 'PayloadRequest': 4, 'PayloadResponse': 4, 'ValMsg': 16},
    },
    ('tribe-two-round', 'equivocate'): {
        'delivered': {
            (0.1, '3b196fd4907bedf5', False): (10, 11, 12, 13, 14, 15),
            (0.1, '3b196fd4907bedf5', True): (0, 1, 2, 3, 4, 5, 6),
            (0.2, '3b196fd4907bedf5', True): (7, 8, 9),
        },
        'by_kind': {'CertMsg': 256, 'EchoMsg': 240, 'PayloadRequest': 3, 'PayloadResponse': 3, 'ValMsg': 15},
    },
    ('optimistic', 'honest'): {
        'delivered': {
            (0.1, '558eef493ccbd46d', False): (10, 11, 12, 13, 14, 15),
            (0.1, '558eef493ccbd46d', True): (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        },
        'by_kind': {'EchoMsg': 256, 'ValMsg': 16},
        'fast': 16,
        'fallback': 0,
        'fallbacks': {},
    },
    ('optimistic', 'withhold'): {
        'delivered': {
            (0.6000000000000001, 'c0f8873ab8299d79', False): (10, 11, 12, 13, 14, 15),
            (0.6000000000000001, 'c0f8873ab8299d79', True): (0, 1, 2, 3, 4, 5),
            (0.6500000000000001, 'c0f8873ab8299d79', True): (6, 7, 8, 9),
        },
        'by_kind': {'EchoMsg': 192, 'PayloadRequest': 4, 'PayloadResponse': 4, 'ReadyMsg': 256, 'ValMsg': 16},
        'fast': 0,
        'fallback': 16,
        'fallbacks': {'timeout': 16},
    },
    ('optimistic', 'equivocate'): {
        'delivered': {
            (0.15000000000000002, '3b196fd4907bedf5', False): (10, 11, 12, 13, 14, 15),
            (0.15000000000000002, '3b196fd4907bedf5', True): (0, 1, 2, 3, 4, 5, 6),
            (0.2, '3b196fd4907bedf5', True): (7, 8, 9),
        },
        'by_kind': {'EchoMsg': 240, 'PayloadRequest': 3, 'PayloadResponse': 3, 'ReadyMsg': 256, 'ValMsg': 15},
        'fast': 0,
        'fallback': 16,
        'fallbacks': {'conflict': 16},
    },
}


@pytest.mark.parametrize("case", sorted(STANDALONE_GOLDEN), ids=str)
def test_standalone_fingerprint(case):
    assert _standalone_fingerprint(*case) == STANDALONE_GOLDEN[case]
