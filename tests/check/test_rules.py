"""Unit tests for the static rule catalog (layer 1 of `repro check`)."""

import pytest

from repro.check import CheckConfig, gate, lint_source
from repro.check.findings import Finding, human_report, severity_rank, to_json


def rules_hit(source, **kwargs):
    return sorted({f.rule for f in lint_source(source, **kwargs) if not f.suppressed})


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_hit("import time\nt = time.time()\n") == ["DET001"]

    def test_module_alias_tracked(self):
        assert rules_hit("import time as t\nx = t.monotonic()\n") == ["DET001"]

    def test_from_import_tracked(self):
        src = "from time import perf_counter\nx = perf_counter()\n"
        assert rules_hit(src) == ["DET001"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nx = datetime.now()\n"
        assert rules_hit(src) == ["DET001"]

    def test_datetime_module_chain_flagged(self):
        src = "import datetime\nx = datetime.datetime.utcnow()\n"
        assert rules_hit(src) == ["DET001"]

    def test_sleep_flagged(self):
        assert rules_hit("import time\ntime.sleep(1)\n") == ["DET001"]

    def test_virtual_clock_is_fine(self):
        assert rules_hit("x = clock.now()\n") == []

    def test_unrelated_time_attribute_is_an_import_finding(self):
        # Was quiet (only the banned callables counted). The boundary is
        # the module: what cannot be imported cannot be misused later.
        src = "import time\nx = time.struct_time\n"
        assert rules_hit(src) == ["DET001"]
        assert rules_hit(src, rel_path="common/clock.py") == []

    def test_the_finding_is_the_import_line(self):
        src = "import os\nimport time\n\n\ndef f():\n    return time.time()\n"
        assert [(f.rule, f.line) for f in lint_source(src)] == [("DET001", 2)]


# Every way the flow pass used to chase a clock or an entropy source
# through a binding, and every way of spelling the import itself. Each
# row is held by the import boundary alone.
BYPASSES = {
    "alias": "import {m} as m\nx = m.{f}()\n",
    "from-import": "from {m} import {f} as g\nx = g()\n",
    "function-local import": "def f():\n    import {m}\n    return {m}.{f}()\n",
    "nested def": (
        "def outer():\n    def inner():\n        import {m}\n"
        "        return {m}.{f}()\n    return inner\n"
    ),
    "class body": "class C:\n    import {m}\n    at = {m}.{f}()\n",
    "default argument": "import {m}\ndef f(at={m}.{f}()):\n    return at\n",
    "self attribute": (
        "import {m}\nclass C:\n    def __init__(self):\n"
        "        self._f = {m}.{f}\n    def go(self):\n        return self._f()\n"
    ),
    "calling parameter": (
        "import {m}\ndef sample(f):\n    return f()\n"
        "def run():\n    return sample({m}.{f})\n"
    ),
    "__import__": "x = __import__(\"{m}\").{f}()\n",
    "importlib.import_module": (
        "import importlib\nx = importlib.import_module(\"{m}\").{f}()\n"
    ),
    "submodule": "import {m}.sub\n",
}


class TestImportBoundary:
    @pytest.mark.parametrize("bypass", sorted(BYPASSES))
    @pytest.mark.parametrize("rule, module, func, shim", [
        ("DET001", "time", "time", "common/clock.py"),
        ("DET001", "datetime", "now", "harness/wallclock.py"),
        ("DET002", "random", "random", "common/rng.py"),
        ("DET002", "secrets", "token_hex", "common/rng.py"),
        ("DET002", "uuid", "uuid4", "common/rng.py"),
    ])
    def test_bypass_table(self, bypass, rule, module, func, shim):
        src = BYPASSES[bypass].format(m=module, f=func)
        assert rules_hit(src) == [rule]
        assert rules_hit(src, rel_path=shim) == []

    def test_lookalikes_are_quiet(self):
        src = (
            "from .time import x\nimport timeit\nimport randomness\n"
            "import_module(name)\n__import__(name)\nimport_module('os')\n"
        )
        assert rules_hit(src) == []


class TestUnseededRandom:
    def test_module_level_random_flagged(self):
        assert rules_hit("import random\nx = random.random()\n") == ["DET002"]

    def test_randint_from_import_flagged(self):
        src = "from random import randint\nx = randint(1, 6)\n"
        assert rules_hit(src) == ["DET002"]

    def test_seeded_random_instance_allowed(self):
        # ... where `random` may be imported at all. Elsewhere the seeded
        # generator is DeterministicRandom, which needs no import of it.
        src = "import random\nr = random.Random(7)\n"
        assert rules_hit(src, rel_path="common/rng.py") == []
        assert rules_hit(src) == ["DET002"]

    def test_system_random_flagged(self):
        assert rules_hit("import random\nr = random.SystemRandom()\n") == ["DET002"]

    def test_os_urandom_flagged(self):
        assert rules_hit("import os\nx = os.urandom(16)\n") == ["DET002"]
        assert rules_hit("import os as o\nx = o.getrandom(16)\n") == ["DET002"]
        assert rules_hit("from os import urandom\n") == ["DET002"]

    def test_os_path_join_is_fine(self):
        assert rules_hit("import os\nx = os.path.join('a', 'b')\n") == []

    def test_uuid4_and_secrets_flagged(self):
        assert rules_hit("import uuid\nx = uuid.uuid4()\n") == ["DET002"]
        assert rules_hit("import secrets\nx = secrets.token_hex()\n") == ["DET002"]

    def test_rng_module_exempt_by_path(self):
        src = "import random\nx = random.random()\n"
        assert rules_hit(src, rel_path="common/rng.py") == []


class TestMutableDefaults:
    def test_list_default_flagged(self):
        assert rules_hit("def f(x=[]):\n    return x\n") == ["PY001"]

    def test_dict_call_default_flagged(self):
        assert rules_hit("def f(x=dict()):\n    return x\n") == ["PY001"]

    def test_kwonly_default_flagged(self):
        assert rules_hit("def f(*, x={}):\n    return x\n") == ["PY001"]

    def test_none_default_fine(self):
        assert rules_hit("def f(x=None, y=(), z=0):\n    return x\n") == []


class TestBareExcept:
    def test_bare_except_flagged(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert rules_hit(src) == ["PY002"]

    def test_typed_except_fine(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert rules_hit(src) == []


class TestPrint:
    def test_print_flagged_as_warning(self):
        findings = lint_source("print('hi')\n")
        assert [f.rule for f in findings] == ["PY003"]
        assert findings[0].severity == "warning"

    def test_cli_exempt_by_default(self):
        assert rules_hit("print('hi')\n", rel_path="cli.py") == []
        assert rules_hit("print('hi')\n", rel_path="obs/render.py") == []


class TestObsNames:
    def test_unknown_event_name_flagged(self):
        src = "obs.event('no.such.event', path=p)\n"
        assert rules_hit(src) == ["OBS001"]

    def test_unknown_metric_name_flagged(self):
        src = "self.obs.inc('no.such.counter')\n"
        assert rules_hit(src) == ["OBS001"]

    def test_unknown_span_name_flagged(self):
        src = "with self.obs.span('no.such.span'):\n    pass\n"
        assert rules_hit(src) == ["OBS001"]

    def test_catalogued_names_fine(self):
        src = (
            "self.obs.event('queue.node.shipped', path=p, seq=s)\n"
            "obs.inc('client.conflicts')\n"
        )
        assert rules_hit(src) == []

    def test_dynamic_name_is_a_finding(self):
        # Was left to the Tracer's runtime KeyError; now no name reaches
        # the facade from linted code without having been read here.
        assert rules_hit("obs.event(name, path=p)\n") == ["OBS001"]
        assert rules_hit("obs.span(name=n)\n") == ["OBS001"]
        assert rules_hit("obs.inc(name='no.such.counter')\n") == ["OBS001"]
        assert rules_hit("obs.inc(name='client.conflicts')\n") == []

    def test_non_obs_receiver_ignored(self):
        assert rules_hit("bus.event('anything.goes')\n") == []


class TestWireFields:
    PLANTED = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Msg:\n"
        "    path: str\n"
        "    offset: int\n"
        "    def wire_size(self):\n"
        "        return 8 + len(self.path)\n"
    )

    def test_hand_written_wire_size_flagged(self):
        findings = lint_source(self.PLANTED)
        assert [f.rule for f in findings] == ["WIRE001"]
        assert "Msg.wire_size" in findings[0].message

    def test_hand_written_byte_codec_flagged(self):
        src = (
            "import struct\n"
            "class Rec:\n"
            "    def encode(self):\n"
            "        return struct.pack('<I', self.x)\n"
            "    @classmethod\n"
            "    def decode(cls, buf):\n"
            "        return cls(*struct.unpack('<I', buf))\n"
            "    @staticmethod\n"
            "    def parse(buf):\n"
            "        return buf\n"
        )
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["WIRE001"] * 3
        assert [f.line for f in findings] == [1, 3, 6]  # the import, too

    @pytest.mark.parametrize("line", [
        "import struct", "import io, struct as s", "from struct import Struct",
    ])
    def test_struct_import_flagged_outside_the_field_table_module(self, line):
        # A codec written as plain functions has no class to inspect (the
        # trace-file codec was one); its raw material is what gets flagged.
        assert rules_hit(line + "\n") == ["WIRE001"]
        assert rules_hit(line + "\n", rel_path="common/wire.py") == []
        assert rules_hit("from .struct import x\nimport structlog\n") == []

    def test_declared_field_table_is_clean(self):
        src = (
            "from dataclasses import dataclass\n"
            "from repro.common import wire\n"
            "@wire.record(wire.text('path', wire.u16be), wire.u64be('offset'))\n"
            "@dataclass\n"
            "class Msg:\n"
            "    path: str\n"
            "    offset: int\n"
        )
        assert rules_hit(src) == []

    def test_algorithms_named_encode_are_not_codecs(self):
        # A delta backend's encode(self, base, target) computes a delta;
        # an instance-level decode(self, buf) is a codec *object*, not a
        # record hand-writing its own bytes.
        src = (
            "class Backend:\n"
            "    def encode(self, base, target, *, meter=None):\n"
            "        return diff(base, target)\n"
            "    def decode(self, buf):\n"
            "        return buf\n"
        )
        assert rules_hit(src) == []

    def test_dataclass_without_wire_size_ignored(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Plain:\n"
            "    x: int\n"
        )
        assert rules_hit(src) == []


class TestSuppression:
    def test_line_suppression(self):
        src = "import time  # reprolint: disable=DET001\nt = time.time()\n"
        findings = lint_source(src)
        assert len(findings) == 1 and findings[0].suppressed
        assert not gate(findings)

    def test_file_suppression(self):
        src = (
            "# reprolint: disable-file=DET001\n"
            "import time\n"
            "import datetime\n"
        )
        findings = lint_source(src)
        assert len(findings) == 2 and all(f.suppressed for f in findings)

    def test_suppression_is_per_rule(self):
        # The DET001 finding is NOT silenced by a PY003 comment; the
        # PY003 comment itself, matching nothing, is flagged stale.
        src = "import time  # reprolint: disable=PY003\n"
        assert rules_hit(src) == ["CFG002", "DET001"]


class TestFindingsModel:
    def test_gate_respects_threshold(self):
        warn = [Finding("PY003", "warning", "f.py", 1, "m")]
        assert gate(warn, fail_on="warning")
        assert not gate(warn, fail_on="error")

    def test_severity_rank_rejects_unknown(self):
        with pytest.raises(ValueError):
            severity_rank("catastrophic")

    def test_reports_render(self):
        findings = lint_source("import time\nt = time.time()\n", path="x.py")
        text = human_report(findings)
        assert "x.py:1" in text and "DET001" in text
        assert '"rule": "DET001"' in to_json(findings)

    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == ["PARSE"]
        assert gate(findings)

    def test_only_filter(self):
        src = "import time\nt = time.time()\nprint('x')\n"
        config = CheckConfig(only=("PY003",))
        assert rules_hit(src, config=config) == ["PY003"]
