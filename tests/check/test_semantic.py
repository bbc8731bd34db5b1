"""What the flow pass used to find, and who finds it now.

The dataflow layer is gone: a wall-clock callable smuggled through a
binding or a parameter is caught at the import that names the module,
an obs name that is a variable is itself the finding, and the two
rules that still look at more than one node — one DeterministicRandom
stream handed to several consumers, set iteration feeding an
order-sensitive sink — read a single function. Each test plants the
pattern and asserts the finding (or its absence — forked streams and
sorted sets must stay quiet). Every case runs through both entry points
— ``lint_paths`` over files on disk and ``lint_source`` over the text —
and they must agree. (The file keeps its name, and the classes theirs,
because the test ids are pinned.)
"""

import os
import tempfile

from repro.check import CheckConfig, lint_paths, lint_source


def findings_for(named_sources, config=None):
    """The ``lint_paths`` findings, after checking ``lint_source`` agrees."""
    with tempfile.TemporaryDirectory() as root:
        for name, source in named_sources.items():
            target = os.path.join(root, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(source)
        from_paths = lint_paths([root], config=config, package_roots=[root])
    ((name, source),) = named_sources.items()
    from_source = lint_source(source, path=name, config=config)

    def row(f):
        return (f.rule, f.line, f.message, f.hint, f.suppressed)

    assert [row(f) for f in from_source] == [row(f) for f in from_paths]
    return from_paths


def rules_hit(named_sources):
    return sorted({f.rule for f in findings_for(named_sources)})


class TestFlowClock:
    def test_clock_through_local_binding(self):
        src = (
            "import time\n"
            "now = time.time\n"
            "def stamp():\n"
            "    return now()\n"
        )
        findings = findings_for({"mod.py": src})
        # Held at the import: there is no binding to chase without it.
        assert [(f.rule, f.line) for f in findings] == [("DET001", 1)]
        assert "`time` is imported" in findings[0].message

    def test_clock_passed_into_calling_parameter(self):
        src = (
            "import time\n"
            "def sample(clock):\n"
            "    return clock()\n"
            "def run():\n"
            "    return sample(time.time)\n"
        )
        findings = findings_for({"mod.py": src})
        assert [(f.rule, f.line) for f in findings] == [("DET001", 1)]

    def test_clock_reference_never_called_is_an_import_finding(self):
        # Was quiet: holding a reference is not reading the clock. The
        # boundary rule does not care what the module is used for.
        src = (
            "import time\n"
            "BANNED = {time.time, time.monotonic}\n"
        )
        assert rules_hit({"mod.py": src}) == ["DET001"]


class TestSharedRng:
    SHARED = (
        "from repro.common.rng import DeterministicRandom\n"
        "class A:\n"
        "    def __init__(self, rng):\n"
        "        self.rng = rng\n"
        "def build():\n"
        "    rng = DeterministicRandom(7)\n"
        "    a = A(rng)\n"
        "    b = A(rng)\n"
        "    return a, b\n"
    )

    def test_shared_across_construction_sites(self):
        findings = findings_for({"mod.py": self.SHARED})
        assert [f.rule for f in findings] == ["DET003"]
        assert "across 2 construction sites" in findings[0].message
        assert "`rng`" in findings[0].message

    def test_shared_inside_loop(self):
        src = (
            "from repro.common.rng import DeterministicRandom\n"
            "class A:\n"
            "    def __init__(self, rng):\n"
            "        self.rng = rng\n"
            "def build(n):\n"
            "    rng = DeterministicRandom(7)\n"
            "    out = []\n"
            "    for _ in range(n):\n"
            "        out.append(A(rng))\n"
            "    return out\n"
        )
        findings = findings_for({"mod.py": src})
        assert [f.rule for f in findings] == ["DET003"]
        assert "inside a loop" in findings[0].message

    def test_forked_streams_are_quiet(self):
        forked = self.SHARED.replace(
            "    a = A(rng)\n    b = A(rng)\n",
            "    a = A(rng.fork(\"a\"))\n    b = A(rng.fork(\"b\"))\n",
        )
        assert forked != self.SHARED
        assert rules_hit({"mod.py": forked}) == []

    def test_single_site_is_quiet(self):
        single = self.SHARED.replace("    b = A(rng)\n", "    b = None\n")
        assert rules_hit({"mod.py": single}) == []


class TestUnorderedIteration:
    HEAPED = (
        "import heapq\n"
        "def drain(paths):\n"
        "    dirty = set(paths)\n"
        "    heap = []\n"
        "    for p in dirty:\n"
        "        heapq.heappush(heap, (0.0, p))\n"
        "    return heap\n"
    )

    def test_set_into_heap(self):
        findings = findings_for({"mod.py": self.HEAPED})
        assert [f.rule for f in findings] == ["DET004"]
        assert "`dirty`" in findings[0].message
        assert "hash order" in findings[0].message

    def test_sorted_clears_the_taint(self):
        fixed = self.HEAPED.replace("for p in dirty:", "for p in sorted(dirty):")
        assert rules_hit({"mod.py": fixed}) == []

    def test_list_reshape_keeps_the_taint(self):
        # list() preserves whatever order the set yields — still tainted.
        kept = self.HEAPED.replace("for p in dirty:", "for p in list(dirty):")
        assert rules_hit({"mod.py": kept}) == ["DET004"]

    def test_orderless_body_is_quiet(self):
        # Iterating a set is fine when the body is order-insensitive.
        src = (
            "def total(paths):\n"
            "    dirty = set(paths)\n"
            "    n = 0\n"
            "    for p in dirty:\n"
            "        n += len(p)\n"
            "    return n\n"
        )
        assert rules_hit({"mod.py": src}) == []


class TestFlowObsNames:
    def test_variable_name_rejected_unresolved(self):
        src = (
            "NAME = \"made.up.metric\"\n"
            "def record(obs):\n"
            "    obs.inc(NAME)\n"
        )
        findings = findings_for({"mod.py": src})
        assert [f.rule for f in findings] == ["OBS001"]
        assert "`NAME` is not a string literal" in findings[0].message

    def test_variable_name_in_catalog_is_still_a_finding(self):
        # Was quiet: the constant was resolved and found in the catalog.
        src = (
            "NAME = \"channel.down.bytes\"\n"
            "def record(obs):\n"
            "    obs.inc(NAME)\n"
        )
        assert rules_hit({"mod.py": src}) == ["OBS001"]

    def test_dict_lookup_is_a_finding(self):
        src = (
            "KINDS = {\"up\": \"channel.upload\", \"down\": \"bogus.event\"}\n"
            "def record(obs, kind):\n"
            "    obs.event(KINDS[kind])\n"
        )
        findings = findings_for({"mod.py": src})
        assert [f.rule for f in findings] == ["OBS001"]
        assert "`KINDS[kind]`" in findings[0].message

    def test_forwarding_helper_is_the_finding_not_its_callers(self):
        src = (
            "def note(obs, name):\n"
            "    obs.inc(name)\n"
            "def ship(obs):\n"
            "    note(obs, \"made.up.metric\")\n"
        )
        findings = findings_for({"mod.py": src})
        assert [(f.rule, f.line) for f in findings] == [("OBS001", 2)]
        # ... and the facade itself, which must forward, is exempt by path.
        assert lint_source(src, rel_path="obs/__init__.py") == []


class TestApplyConfig:
    """The one selection step treats every rule's findings alike."""

    SRC = TestSharedRng.SHARED.replace(
        "    b = A(rng)\n", "    b = A(rng)  # reprolint: disable=DET003\n"
    )

    def test_suppression_comments_cover_semantic_findings(self):
        (finding,) = findings_for({"mod.py": self.SRC})
        assert finding.rule == "DET003" and finding.suppressed

    def test_entry_points_agree_on_a_suppressed_flow_finding(self):
        # lint_source once ran fewer rules than lint_paths: it missed the
        # finding and reported the comment that silences it as stale.
        for findings in (
            lint_source(self.SRC), findings_for({"mod.py": self.SRC})
        ):
            assert [(f.rule, f.line, f.suppressed) for f in findings] == [
                ("DET003", 8, True)
            ]

    def test_exemption_globs_drop_semantic_findings(self):
        config = CheckConfig(exemptions={"DET003": ("pkg/*",)})
        assert findings_for({"pkg/shared.py": self.SRC}, config) == []

    def test_only_filter_drops_other_rules(self):
        config = CheckConfig(only=("PY001",))
        assert findings_for({"mod.py": self.SRC}, config) == []
