"""Helpers that forward a parameter into an obs name slot."""


def note_metric(obs, name):
    obs.inc(name)


def note_event(obs, name, **attrs):
    obs.event(name, **attrs)
