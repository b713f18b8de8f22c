"""The kernel-purity family (REP1xx) and the driver features every
family shares: ``--select`` isolation, ``--changed``, fingerprints and
the baseline life cycle.

Every rule gets a positive fixture (asserting the rule id fires on the
expected line) and a negative fixture exercising its exemption logic.
"""

import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    Baseline,
    changed_python_files,
    expand_select,
    lint_paths,
    lint_source,
    render_text,
)

#: REP1xx rules are scoped to kernel directories; this path is inside.
KERNEL = "src/repro/sim/columnar/kern.py"
#: ...and this one is outside (same package, not a kernel).
NON_KERNEL = "src/repro/sweep/mod.py"


def check(source: str, path: str = KERNEL):
    return lint_source(path, textwrap.dedent(source))


def rule_lines(source: str, rule_id: str, path: str = KERNEL) -> list[int]:
    return [
        f.line for f in check(source, path) if f.rule_id == rule_id and f.active
    ]


# ======================================================================
# Numeric-kernel purity (REP101–REP102)
# ======================================================================
class TestREP101DtypePromotion:
    def test_int_array_true_division(self):
        src = """\
        import numpy as np

        counts = np.zeros(4, dtype=np.int64)
        totals = np.zeros(4)
        mean = totals / counts
        """
        assert rule_lines(src, "REP101") == [5]

    def test_mixed_int_float_arithmetic(self):
        src = """\
        import numpy as np

        counts = np.zeros(4, dtype=np.int64)
        weights = np.ones(4)
        scaled = weights * counts
        """
        assert rule_lines(src, "REP101") == [5]

    def test_bool_sum_without_dtype(self):
        src = """\
        import numpy as np

        load = np.zeros(8)
        mask = load > 0.0
        alive = mask.sum()
        """
        assert rule_lines(src, "REP101") == [5]

    def test_np_sum_over_bool_without_dtype(self):
        src = """\
        import numpy as np

        load = np.zeros(8)
        alive = np.sum(load > 0.0)
        """
        assert rule_lines(src, "REP101") == [4]

    def test_explicit_astype_is_exempt(self):
        src = """\
        import numpy as np

        counts = np.zeros(4, dtype=np.int64)
        totals = np.zeros(4)
        mean = totals / counts.astype(np.float64)
        alive = (totals > 0.0).sum(dtype=np.int64)
        """
        assert rule_lines(src, "REP101") == []

    def test_finding_carries_fix_hint(self):
        src = """\
        import numpy as np

        counts = np.zeros(4, dtype=np.int64)
        x = counts / counts
        """
        (finding,) = [f for f in check(src) if f.rule_id == "REP101"]
        assert " — fix: " in finding.message

    def test_scope_limits_family_to_kernel_dirs(self):
        src = """\
        import numpy as np

        counts = np.zeros(4, dtype=np.int64)
        x = counts / counts
        """
        assert rule_lines(src, "REP101", path=NON_KERNEL) == []


class TestREP102OrderSensitiveReduction:
    def test_sum_over_set(self):
        src = """\
        values = {0.1, 0.2, 0.7}
        total = sum(values)
        """
        assert rule_lines(src, "REP102") == [2]

    def test_fromiter_over_generator_over_set(self):
        src = """\
        import numpy as np

        sids = {3, 1, 2}
        arr = np.fromiter((s * 0.5 for s in sids), dtype=np.float64)
        """
        assert rule_lines(src, "REP102") == [4]

    def test_sorted_set_is_exempt(self):
        src = """\
        values = {0.1, 0.2, 0.7}
        total = sum(sorted(values))
        """
        assert rule_lines(src, "REP102") == []


# ======================================================================
# Selection, --changed, fingerprints, baseline life
# ======================================================================
REP1_FIXTURE = textwrap.dedent(
    """\
    import numpy as np

    counts = np.zeros(4, dtype=np.int64)
    ratio = counts / counts
    """
)

REP0_FIXTURE = textwrap.dedent(
    """\
    import random

    def draw():
        return random.random()
    """
)


def make_lint_tree(tmp_path: Path) -> Path:
    """One planted REP1xx kernel hazard plus one REP0xx hazard."""
    root = tmp_path / "tree"
    kernel_dir = root / "src" / "repro" / "sim" / "columnar"
    sweep_dir = root / "src" / "repro" / "sweep"
    kernel_dir.mkdir(parents=True)
    sweep_dir.mkdir(parents=True)
    (kernel_dir / "kern.py").write_text(REP1_FIXTURE)
    (sweep_dir / "draw.py").write_text(REP0_FIXTURE)
    return root


class TestSelectIsolation:
    def test_rep0_only_run_ignores_planted_rep1_fixture(self, tmp_path):
        root = make_lint_tree(tmp_path)
        result = lint_paths([root], select=["REP0"])
        assert result.errors == []
        assert {f.rule_id for f in result.active} == {"REP001"}

    def test_rep1_only_run_sees_only_the_kernel_hazard(self, tmp_path):
        root = make_lint_tree(tmp_path)
        result = lint_paths([root], select=["REP1"])
        assert {f.rule_id for f in result.active} == {"REP101"}

    def test_family_expansion(self):
        assert expand_select(["REP0"]) == frozenset(
            {"REP001", "REP002", "REP003", "REP006"}
        )
        assert expand_select(["REP1,REP002"]) == frozenset(
            {"REP101", "REP102", "REP002"}
        )
        # a typo, and the retired REP2xx/AUD families and rule ids
        for token in ("REP9", "REP2", "AUD", "REP004"):
            with pytest.raises(ValueError, match=token):
                expand_select([token])

    def test_default_select_is_every_rule(self, tmp_path):
        root = make_lint_tree(tmp_path)
        result = lint_paths([root])
        assert {f.rule_id for f in result.active} == {"REP001", "REP101"}


class TestChangedFiles:
    def make_repo(self, tmp_path: Path) -> Path:
        root = tmp_path / "repo"
        (root / "pkg").mkdir(parents=True)
        (root / "pkg" / "stable.py").write_text("STABLE = 1\n")
        (root / "pkg" / "edited.py").write_text("EDITED = 1\n")

        def git(*args: str) -> None:
            subprocess.run(
                ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
                cwd=root, check=True, capture_output=True,
            )

        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        (root / "pkg" / "edited.py").write_text("EDITED = 2\n")
        (root / "pkg" / "fresh.py").write_text("FRESH = 1\n")
        (root / "pkg" / "notes.txt").write_text("not python\n")
        return root

    def test_modified_and_untracked_python_files(self, tmp_path):
        root = self.make_repo(tmp_path)
        changed = changed_python_files([root / "pkg"], cwd=root)
        assert [p.name for p in changed] == ["edited.py", "fresh.py"]

    def test_scope_filter(self, tmp_path):
        root = self.make_repo(tmp_path)
        (root / "other").mkdir()
        (root / "other" / "extra.py").write_text("EXTRA = 1\n")
        changed = changed_python_files([root / "other"], cwd=root)
        assert [p.name for p in changed] == ["extra.py"]

    def test_outside_a_repo_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            changed_python_files([tmp_path], cwd=tmp_path)

    def test_cli_changed_with_clean_tree(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        root = self.make_repo(tmp_path)
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t",
             "add", "-A"],
            cwd=root, check=True, capture_output=True,
        )
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t",
             "commit", "-q", "-m", "all"],
            cwd=root, check=True, capture_output=True,
        )
        monkeypatch.chdir(root)
        assert main(["lint", "--changed", "--no-baseline", "pkg"]) == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_cli_changed_lints_only_the_dirty_file(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        root = self.make_repo(tmp_path)
        (root / "pkg" / "fresh.py").write_text(REP0_FIXTURE)
        monkeypatch.chdir(root)
        assert main(["lint", "--changed", "--no-baseline", "pkg"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "stable.py" not in out


class TestFingerprintStability:
    def test_new_family_fingerprints_survive_line_shifts(self):
        for fixture, rule in ((REP1_FIXTURE, "REP101"), (REP0_FIXTURE, "REP001")):
            path = KERNEL if rule == "REP101" else NON_KERNEL
            before = [
                f for f in lint_source(path, fixture) if f.rule_id == rule
            ]
            shifted_src = "# leading comment\n\n" + fixture
            shifted = [
                f
                for f in lint_source(path, shifted_src)
                if f.rule_id == rule
            ]
            assert [f.fingerprint for f in before] == [
                f.fingerprint for f in shifted
            ]
            assert shifted[0].line == before[0].line + 2


class TestBaselineLifecycle:
    def test_write_then_clean_rerun(self, tmp_path, monkeypatch):
        root = make_lint_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        first = lint_paths([root])
        assert len(first.active) == 2
        baseline = Baseline.from_findings(first.findings)
        baseline.save(tmp_path / "base.json")
        reloaded = Baseline.load(tmp_path / "base.json")
        second = lint_paths([root], baseline=reloaded)
        assert second.active == []
        assert len(second.baselined) == 2
        assert second.exit_code == 0
        assert second.warnings == []

    def test_stale_entries_become_warnings_not_failures(self, tmp_path):
        root = make_lint_tree(tmp_path)
        stale = Baseline(
            [
                {
                    "path": "gone/removed.py",
                    "rule": "REP001",
                    "line": 4,
                    "snippet": "return random.random()",
                    "fingerprint": "0" * 16,
                }
            ]
        )
        result = lint_paths([root], select=["REP0"], baseline=stale)
        assert len(result.warnings) == 1
        assert "stale baseline entry" in result.warnings[0]
        assert "gone/removed.py" in result.warnings[0]
        # warnings never gate: exit code reflects findings only
        assert result.exit_code == 1  # the planted REP001 still fires
        rendered = render_text(result)
        assert "warning:" in rendered
