"""Property-based tests: RBC guarantees under randomized fault environments.

Hypothesis drives the adversary: random clan choice, random crash sets up to
f, random sender behaviour (honest / withholding / equivocating), random
latencies.  The Definition 2 properties must hold in every generated world:

* Integrity — at most one delivery per (origin, round) per party;
* Agreement — no two honest parties deliver different digests;
* Validity — with an honest sender and ≤ f crashes, everyone delivers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.rbc.base import Membership
from repro.rbc.byzantine import send_equivocating_vals, send_withholding_vals
from repro.rbc.protocols import TribeBrachaRbc, TribeTwoRoundRbc
from repro.crypto.signatures import Pki
from repro.sim import Simulator
from repro.types import clan_max_faults, max_faults


def build(n, clan, protocol, seed):
    sim = Simulator()
    net = Network(sim, n, latency=UniformLatencyModel(0.03, jitter=0.02, seed=seed))
    membership = Membership(n, frozenset(clan))
    pki = Pki(n, seed=seed)
    deliveries = {i: [] for i in range(n)}
    modules = []
    for i in range(n):
        def cb(d, i=i):
            deliveries[i].append(d)
        if protocol == "bracha":
            modules.append(TribeBrachaRbc(i, membership, net, sim, cb))
        else:
            modules.append(TribeTwoRoundRbc(i, membership, net, sim, pki, cb))
    return sim, net, membership, pki, deliveries, modules


world = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=4, max_value=13),
        "seed": st.integers(min_value=0, max_value=10_000),
        "protocol": st.sampled_from(["bracha", "two-round"]),
        "clan_pick": st.randoms(use_true_random=False),
        "behaviour": st.sampled_from(["honest", "withhold", "equivocate"]),
        "crash_pick": st.randoms(use_true_random=False),
    }
)


@settings(max_examples=40, deadline=None)
@given(world=world)
def test_rbc_properties_hold_in_random_worlds(world):
    n = world["n"]
    f = max_faults(n)
    clan_size = world["clan_pick"].randint(3, n)
    clan = sorted(world["clan_pick"].sample(range(n), clan_size))
    sim, net, membership, pki, deliveries, modules = build(
        n, clan, world["protocol"], world["seed"]
    )
    sender = world["crash_pick"].randrange(n)
    crashes = set()
    if f > 0 and world["behaviour"] == "honest":
        # Crash up to f tribe members, but never a clan majority: the
        # tribe/clan construction assumes f_c <= ceil(n_c/2) - 1 faults per
        # clan (payload retrieval needs a live honest clan majority), so a
        # world that crashes more isn't one validity is promised in.
        count = world["crash_pick"].randint(0, f)
        candidates = [i for i in range(n) if i != sender]
        world["crash_pick"].shuffle(candidates)
        clan_budget = clan_max_faults(len(clan))
        for i in candidates:
            if len(crashes) == count:
                break
            if i in membership.clan:
                if clan_budget == 0:
                    continue
                clan_budget -= 1
            crashes.add(i)
    pki_arg = pki if world["protocol"] == "two-round" else None

    if world["behaviour"] == "honest":
        modules[sender].broadcast(b"payload", 1)
    elif world["behaviour"] == "withhold":
        lucky = clan[: max(1, len(clan) // 2)]
        send_withholding_vals(
            net, sender, 1, b"payload", membership, receive_full=lucky, pki=pki_arg
        )
    else:
        assignments = {
            i: (b"A" if i % 2 == 0 else b"B") for i in range(n) if i != sender
        }
        send_equivocating_vals(net, sender, 1, assignments, membership, pki=pki_arg)
    for node in crashes:
        net.crash(node)
    sim.run(until=60.0, max_events=300_000)

    live = [i for i in range(n) if i not in crashes]
    # Integrity.
    for i in live:
        assert len(deliveries[i]) <= 1
    # Agreement on the digest.
    digests = {d.digest for i in live for d in deliveries[i]}
    assert len(digests) <= 1
    # Agreement on the payload among clan deliverers.
    payloads = {
        bytes(d.payload) for i in live for d in deliveries[i] if d.full
    }
    assert len(payloads) <= 1
    # Clan members deliver payloads, outsiders deliver digests.
    for i in live:
        for d in deliveries[i]:
            assert d.full == (i in membership.clan)
    # Validity under an honest sender.
    if world["behaviour"] == "honest":
        for i in live:
            assert deliveries[i], f"honest-sender validity failed at {i}"
