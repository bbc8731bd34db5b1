"""Configuration edge cases: exemption globs vs inline suppressions,
comment placement and multi-rule syntax, and the suppression hygiene
rules (CFG001 unknown id, CFG002 stale comment).

The precedence contract under test: exemption globs drop a finding
before suppression comments are consulted, so an exempted finding never
surfaces even as "suppressed"; hygiene, by contrast, is judged against
the *unfiltered* findings, so a comment covering an exempted-but-real
finding is not stale.
"""

from repro.check import CheckConfig, lint_source
from repro.check.config import parse_suppressions

CLOCKY = "import time\nt = time.time()\n"


def visible(findings):
    return [f for f in findings if not f.suppressed]


class TestExemptionPrecedence:
    def test_exempt_glob_beats_inline_suppression(self):
        # Both mechanisms apply: the glob wins, the finding is gone
        # entirely (not merely marked suppressed).
        src = "import time  # reprolint: disable=DET001\nt = time.time()\n"
        config = CheckConfig(exemptions={"DET001": ("legacy/*",)})
        findings = lint_source(
            src, path="legacy/old.py", rel_path="legacy/old.py",
            config=config,
        )
        assert [f.rule for f in findings] == []

    def test_exempted_finding_keeps_its_comment_fresh(self):
        # Hygiene judges against unfiltered findings: the comment does
        # cover a real DET001, so no CFG002 even though the glob ate it.
        src = "import time  # reprolint: disable=DET001\nt = time.time()\n"
        config = CheckConfig(exemptions={"DET001": ("legacy/*",)})
        findings = lint_source(
            src, path="legacy/old.py", rel_path="legacy/old.py",
            config=config,
        )
        assert not any(f.rule == "CFG002" for f in findings)

    def test_glob_matches_package_relative_path_only(self):
        src = "import time\nt = time.time()\n"
        config = CheckConfig(exemptions={"DET001": ("legacy/*",)})
        findings = lint_source(
            src, path="elsewhere/new.py", rel_path="elsewhere/new.py",
            config=config,
        )
        assert [f.rule for f in visible(findings)] == ["DET001"]


class TestCommentSyntax:
    def test_disable_file_works_from_anywhere_in_the_file(self):
        # The file-wide form is positional-independent: declared on the
        # last line, it still covers findings above it.
        src = CLOCKY + "# reprolint: disable-file=DET001\n"
        findings = lint_source(src)
        assert len(findings) == 1 and findings[0].suppressed

    def test_multi_rule_disable(self):
        src = (
            "import time\n"
            "def f(xs=[]):  # reprolint: disable=PY001,DET001\n"
            "    return time.time()\n"
        )
        suppressions = parse_suppressions(src)
        assert suppressions.covers("PY001", 2)
        assert suppressions.covers("DET001", 2)
        assert not suppressions.covers("PY002", 2)

    def test_docstring_mentioning_syntax_is_inert(self):
        # The comment scanner is token-based: prose documenting the
        # ``# reprolint: disable-file=DET001`` form must not silence
        # anything (and must not trip hygiene either).
        src = (
            '"""Write `# reprolint: disable-file=DET001` to opt out."""\n'
            + CLOCKY
        )
        findings = lint_source(src)
        assert [f.rule for f in visible(findings)] == ["DET001"]


class TestHygiene:
    def test_unknown_rule_id_flagged(self):
        # One finding per problem: an unknown id gets CFG001 and no
        # redundant CFG002 (a typo'd rule can never match anything).
        src = "x = 1  # reprolint: disable=DET999\n"
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["CFG001"]
        assert "unknown rule id `DET999`" in findings[0].message

    def test_invariant_ids_are_known_suppressible(self):
        src = "x = 1  # reprolint: disable=INV-EXACTLY-ONCE\n"
        findings = lint_source(src)
        assert not any(f.rule == "CFG001" for f in findings)

    def test_stale_line_comment_flagged(self):
        src = "import os\nimport time  # reprolint: disable=PY002\n"
        findings = lint_source(src)
        stale = [f for f in findings if f.rule == "CFG002"]
        assert len(stale) == 1 and stale[0].line == 2
        assert "stale" in stale[0].message

    def test_stale_file_comment_flagged(self):
        src = "# reprolint: disable-file=PY002\nx = 1\n"
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["CFG002"]
        assert "anywhere in the file" in findings[0].message

    def test_used_comments_are_quiet(self):
        src = "import time  # reprolint: disable=DET001\nt = time.time()\n"
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["DET001"]  # suppressed, no CFG

    def test_hygiene_skipped_under_only(self):
        # `--only DET001` narrows the raw picture; judging staleness
        # against it would produce false alarms, so hygiene stands down.
        src = "import os\nimport time  # reprolint: disable=PY002\n"
        findings = lint_source(src, config=CheckConfig(only=("DET001",)))
        assert [f.rule for f in findings] == ["DET001"]
