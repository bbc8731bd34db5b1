"""Helpers that forward a parameter into an obs name slot.

The forward is the finding; what callers pass is never looked at.
"""


def note_metric(obs, name):
    obs.inc(name)


def note_event(obs, name, **attrs):
    obs.event(name, **attrs)
