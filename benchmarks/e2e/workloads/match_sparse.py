"""``match_sparse``: 4000 content/topic-filtered subscriptions, about 1% match.

Most of a publish is topic-index lookup plus compiled-XPath evaluation;
deliveries are few.  Home of the ``filters`` and ``xmlkit.xpath`` layers,
which are idle in ``fanout_push``: an optimisation of matching must move
this workload and leave that one alone.

Topics are ``grid/<site>/<kind>`` over 50 sites and 2 kinds; events carry
one of 100 hosts.  Subscriptions (the seed picks each one's host, site and
kind):

* 1000 WSN 1.3, Full-dialect ``grid/*/<kind>`` + XPath on the host;
* 1000 WSN 1.3, Full-dialect ``grid/<site>/*`` + XPath on the host;
* 2000 WSE 08/2004, XPath on the host (no topic model);

spread evenly over the hosts (20 + 10 + 10 each), so that about 25 of the
4000 match whatever the seed.

The oracle evaluates the same host/site/kind predicates in plain Python.
"""

from __future__ import annotations

from repro.xmlkit.names import Namespaces

from .base import Recorder, Scenario

HOSTS = 100
SITES = 50
KINDS = ("load", "temp")
SUBSCRIPTIONS = 4000


class MatchSparse(Scenario):
    name = "match_sparse"
    nominal_block_seconds = 0.36
    extra_setups = 0
    recoveries_per_round = 1
    recovery_rounds = 2  # replaying 56 publishes over 4000 filters takes 4 s

    def populate(self) -> None:
        #: per consumer: (host, site or None, kind or None) it listens for
        self.predicates: list[tuple[int, object, object]] = []
        # every host gets exactly 20 WSE, 10 kind-wildcard (5 per kind) and 10
        # site-wildcard subscriptions, so matches per publish barely depend on
        # the seed; the seed decides the order, the sites and who is who
        plans = []
        for host in range(HOSTS):
            plans += [("wse", host, None)] * 20
            plans += [("kind", host, KINDS[n % 2]) for n in range(10)]
            plans += [("site", host, None)] * 10
        assert len(plans) == SUBSCRIPTIONS
        self.rng.shuffle(plans)
        for shape, host, kind in plans:
            site = self.rng.randrange(SITES)
            xpath = f"/ev:Reading[ev:host='h{host:03d}']"
            if shape == "wse":
                _, consumer = self.add_consumer("wse0408")
                self.predicates.append((host, None, None))
                self.subscribe(consumer, "wse0408", xpath=xpath)
                continue
            _, consumer = self.add_consumer("wsn13")
            if shape == "kind":
                topic = f"grid/*/{kind}"
                self.predicates.append((host, None, kind))
            else:
                topic = f"grid/s{site:02d}/*"
                self.predicates.append((host, site, None))
            self.subscribe(
                consumer, "wsn13", topic=topic,
                topic_dialect=Namespaces.DIALECT_TOPIC_FULL, xpath=xpath,
            )
        #: host -> consumers interested in it (the model's own index)
        self.by_host: dict[int, list[int]] = {}
        for index, (host, _, _) in enumerate(self.predicates):
            self.by_host.setdefault(host, []).append(index)

    def prepare(self) -> None:
        self.events = []
        owed = 0
        for _ in range(self.publishes_per_block):
            host = self.rng.randrange(HOSTS)
            site = self.rng.randrange(SITES)
            kind = self.rng.choice(KINDS)
            payload, key = self.next_reading(host, site)
            self.events.append((payload, f"grid/s{site:02d}/{kind}"))
            for index in self.by_host.get(host, ()):
                _, want_site, want_kind = self.predicates[index]
                if want_site not in (None, site) or want_kind not in (None, kind):
                    continue
                self.expected[index].append(key)
                owed += 1
        self.block_publishes = len(self.events)
        self.block_obligations = owed

    def run(self, recorder: Recorder) -> None:
        self.timed_publishes(recorder, self.events)
