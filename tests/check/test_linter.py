"""The lint engine over real files, and the tools/reprolint.py gate."""

import os
import subprocess
import sys

import repro
from repro.check import active, lint_paths

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
REPROLINT = os.path.join(REPO_ROOT, "tools", "reprolint.py")
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def run_reprolint(*args):
    return subprocess.run(
        [sys.executable, REPROLINT, *args],
        capture_output=True,
        text=True,
    )


class TestTreeIsClean:
    def test_src_repro_lints_clean(self):
        # Satellite 1: the shipped tree has zero unsuppressed findings, so
        # the CI lint job starts green.
        findings = active(lint_paths([PACKAGE_DIR]))
        assert findings == [], "\n".join(
            f"{f.location()}: {f.rule}: {f.message}" for f in findings
        )

    def test_reprolint_exits_zero_on_the_tree(self):
        proc = run_reprolint()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout


class TestReprolintGate:
    def test_planted_wall_clock_fails(self, tmp_path):
        # Acceptance: nonzero exit on a planted wall-clock call.
        planted = tmp_path / "bad_clock.py"
        planted.write_text("import time\n\nSTARTED = time.time()\n")
        proc = run_reprolint(str(planted))
        assert proc.returncode == 1
        assert "DET001" in proc.stdout
        assert "`time` is imported" in proc.stdout

    def test_planted_unknown_obs_name_fails(self, tmp_path):
        # Acceptance: nonzero exit on an obs event name absent from the
        # names.py catalog.
        planted = tmp_path / "bad_event.py"
        planted.write_text(
            "def ship(obs):\n"
            "    obs.event('queue.node.teleported', seq=1)\n"
        )
        proc = run_reprolint(str(planted))
        assert proc.returncode == 1
        assert "OBS001" in proc.stdout
        assert "queue.node.teleported" in proc.stdout

    def test_suppressed_finding_does_not_gate(self, tmp_path):
        planted = tmp_path / "waived.py"
        planted.write_text(
            "import time  # reprolint: disable=DET001\n"
            "T = time.time()\n"
        )
        proc = run_reprolint(str(planted))
        assert proc.returncode == 0

    def test_fail_on_error_passes_warnings(self, tmp_path):
        planted = tmp_path / "printy.py"
        planted.write_text("print('library noise')\n")
        assert run_reprolint(str(planted)).returncode == 1
        assert run_reprolint(str(planted), "--fail-on", "error").returncode == 0

    def test_directory_walk_finds_nested_files(self, tmp_path):
        nested = tmp_path / "pkg" / "sub"
        nested.mkdir(parents=True)
        (nested / "mod.py").write_text("import os\nK = os.urandom(4)\n")
        proc = run_reprolint(str(tmp_path))
        assert proc.returncode == 1
        assert "DET002" in proc.stdout
