"""OBS001 plants: the name slot holds a catalog literal or is a finding."""

from repro.obs_helpers import note_event, note_metric

BAD_METRIC = "made.up.metric"
GOOD_METRIC = "channel.down.bytes"
KINDS = {"up": "channel.upload", "down": "bogus.event"}


def local_note(obs, name):
    obs.inc(name)


class Shipper:
    def __init__(self, obs):
        self.obs = obs

    def literals(self, path, seq):
        self.obs.event("queue.node.teleported", path=path, seq=seq)
        self.obs.inc("no.such.counter")
        with self.obs.span("no.such.span"):
            pass
        self.obs.event("queue.node.shipped", path=path, seq=seq)
        self.obs.inc("client.conflicts")
        self.obs.inc("waived.counter")  # reprolint: disable=OBS001

    def multi_line(self):
        self.obs.inc(
            "no.such.gauge",
            2,
        )

    def constants(self):
        self.obs.inc(BAD_METRIC)
        self.obs.inc(GOOD_METRIC)
        self.obs.inc(BAD_METRIC)  # reprolint: disable=OBS001

    def table(self, kind):
        self.obs.event(KINDS[kind])

    def forwarded(self):
        local_note(self.obs, "forwarded.local.bad")
        note_metric(self.obs, "forwarded.remote.bad")
        note_event(self.obs, "forwarded.event.bad", n=1)

    def dynamic(self, name, bus):
        self.obs.event(name)
        self.obs.span(name=name)
        bus.event("anything.goes")
