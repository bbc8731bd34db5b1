"""The findings contract: what `repro check` says about a planted tree.

``fixtures/tree/repro`` is a miniature package with at least one planted
and one suppressed hit for every lint rule id (plus the exempt-by-path
``cli.py`` / ``common/clock.py``). ``fixtures/golden.json`` records what
the engine reported for it — rule, path, line, message, hint, severity,
suppressed — and for ``src/repro`` itself, together with the exit codes
under each ``--fail-on`` level and the ``--only DET001`` selection;
``fixtures/golden.sarif`` is the SARIF log of the same run. Any engine
change must reproduce them through both entry points. After a deliberate
catalog change, re-record both with
``PYTHONPATH=src python tests/check/test_findings_golden.py``.
"""

import ast
import json
import os
import tokenize
from collections import Counter

import pytest

import repro
from repro.check import ALL_RULES, Rule, lint_paths
from repro.check.linter import iter_python_files
from repro.cli import main

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures"
)
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))

with open(os.path.join(FIXTURES, "golden.json"), encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

_FIELDS = ("rule", "path", "line", "message", "hint", "severity", "suppressed")


def rows(findings):
    """Findings (objects or ``--json`` dicts) as sorted comparable rows."""
    return sorted(
        [f[k] if isinstance(f, dict) else getattr(f, k) for k in _FIELDS]
        for f in findings
    )


@pytest.fixture
def in_fixtures(monkeypatch):
    # Relative paths keep the recorded locations machine-independent;
    # the `/repro/` segment makes exemption globs see `cli.py` etc.
    monkeypatch.chdir(FIXTURES)


def check_json(capsys, *argv):
    code = main(["check", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestFixtureTree:
    def test_through_lint_paths(self, in_fixtures):
        assert rows(lint_paths(["tree"])) == GOLDEN["fixture"]

    def test_through_the_cli(self, in_fixtures, capsys):
        code, payload = check_json(capsys, "tree")
        assert code == 1
        assert rows(payload["findings"]) == GOLDEN["fixture"]
        assert sorted(payload) == [
            "failed", "findings", "invariants", "summary",
        ]

    def test_every_rule_id_has_a_hit_and_a_suppressed_hit(self):
        hit = {r[0] for r in GOLDEN["fixture"] if not r[6]}
        waived = {r[0] for r in GOLDEN["fixture"] if r[6]}
        catalog = {
            "DET001", "DET002", "DET003", "DET004", "PY001", "PY002",
            "PY003", "OBS001", "WIRE001",
        }
        assert hit == catalog | {"CFG001", "CFG002", "PARSE"}
        # Engine findings (hygiene, PARSE) cannot be suppressed.
        assert waived == catalog

    @pytest.mark.parametrize("level", ["advice", "warning", "error"])
    def test_exit_code_per_gate(self, in_fixtures, capsys, level):
        for name, expected in GOLDEN["exit_codes"][level].items():
            path = os.path.join("tree", "repro", name)
            assert main(["check", path, "--fail-on", level]) == expected, name
        capsys.readouterr()

    def test_only_selects_one_rule(self, in_fixtures, capsys):
        code, payload = check_json(capsys, "tree", "--only", "DET001")
        assert code == 1
        assert rows(payload["findings"]) == GOLDEN["only_DET001"]

    def test_sarif_log(self, in_fixtures, capsys, tmp_path):
        out = tmp_path / "out.sarif"
        assert main(["check", "tree", "--sarif", str(out)]) == 1
        capsys.readouterr()
        golden_path = os.path.join(FIXTURES, "golden.sarif")
        with open(golden_path, encoding="utf-8") as handle:
            golden = json.load(handle)
        doc = json.loads(out.read_text(encoding="utf-8"))

        def canonical(log):
            # Result order is the engine's; everything else is pinned.
            (run,) = log["runs"]
            run["results"].sort(key=lambda r: json.dumps(r, sort_keys=True))
            return log

        assert canonical(doc) == canonical(golden)


class TestEachThingOnce:
    def test_one_parse_and_one_comment_scan_per_file(
        self, in_fixtures, monkeypatch
    ):
        parses, scans = Counter(), []
        real_parse, real_tokens = ast.parse, tokenize.generate_tokens

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parses[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        def counting_tokens(readline):
            scans.append(readline)
            return real_tokens(readline)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
        lint_paths(["tree"])
        files = iter_python_files(["tree"])
        assert parses == Counter(files)
        # Only files that mention the directive are tokenized at all.
        with_directive = 0
        for path in files:
            with open(path, encoding="utf-8") as handle:
                with_directive += "reprolint:" in handle.read()
        assert 0 < len(scans) == with_directive < len(files)

    def test_one_rule_class_per_id(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids)) == 9
        assert set(Rule.__subclasses__()) == set(ALL_RULES)


class TestRealTree:
    def test_through_lint_paths(self):
        assert rows(lint_paths([PACKAGE_DIR])) == GOLDEN["src_repro"]

    def test_through_the_cli(self, capsys):
        code, payload = check_json(capsys)
        assert code == 0
        assert rows(payload["findings"]) == GOLDEN["src_repro"]


def record():
    """Rewrite the goldens from what the engine says now."""
    import contextlib
    import io

    def check(*argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["check", *argv])
        return code, out.getvalue()

    os.chdir(FIXTURES)
    names = [os.path.relpath(p, os.path.join("tree", "repro"))
             for p in iter_python_files(["tree"])]
    golden = {
        "fixture": rows(lint_paths(["tree"])),
        "only_DET001": rows(json.loads(
            check("tree", "--only", "DET001", "--json")[1])["findings"]),
        "exit_codes": {
            level: {
                name: check(os.path.join("tree", "repro", name),
                            "--fail-on", level)[0]
                for name in names
            }
            for level in ("advice", "warning", "error")
        },
        "src_repro": rows(lint_paths([PACKAGE_DIR])),
    }
    with open("golden.json", "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, ensure_ascii=False, sort_keys=True)
        handle.write("\n")
    check("tree", "--sarif", "golden.sarif")


if __name__ == "__main__":
    record()
