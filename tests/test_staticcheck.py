"""The determinism lint engine: every rule, suppression, baseline, output."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    ALL_RULE_IDS,
    Baseline,
    BaselineError,
    RULES,
    lint_paths,
    lint_source,
    render_github,
    render_json,
    render_text,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def check(source: str, path: str = "pkg/mod.py"):
    """Lint a dedented snippet; returns the findings list."""
    return lint_source(path, textwrap.dedent(source))


def rule_lines(source: str, rule_id: str, path: str = "pkg/mod.py") -> list[int]:
    return [f.line for f in check(source, path) if f.rule_id == rule_id and f.active]


class TestREP001UnseededRng:
    def test_global_random_call(self):
        src = """\
        import random

        def f():
            return random.random()
        """
        assert rule_lines(src, "REP001") == [4]

    def test_global_shuffle_via_alias(self):
        src = """\
        import random as rnd

        def f(items):
            rnd.shuffle(items)
        """
        assert rule_lines(src, "REP001") == [4]

    def test_from_import_function(self):
        src = """\
        from random import choice

        def f(xs):
            return choice(xs)
        """
        assert rule_lines(src, "REP001") == [4]

    def test_unseeded_numpy_default_rng(self):
        src = """\
        import numpy as np

        g = np.random.default_rng()
        """
        assert rule_lines(src, "REP001") == [3]

    def test_seeded_constructions_are_fine(self):
        src = """\
        import random
        import numpy as np

        a = random.Random(42)
        b = np.random.default_rng(7)
        """
        assert rule_lines(src, "REP001") == []

    def test_unseeded_random_class(self):
        src = """\
        import random

        a = random.Random()
        """
        assert rule_lines(src, "REP001") == [3]

    def test_bare_reference_as_callback(self):
        src = """\
        import random

        key = random.random
        """
        assert rule_lines(src, "REP001") == [3]

    def test_rng_module_itself_is_exempt(self):
        src = """\
        import numpy as np

        g = np.random.default_rng()
        """
        findings = lint_source("src/repro/sim/rng.py", textwrap.dedent(src))
        assert [f for f in findings if f.rule_id == "REP001"] == []


class TestREP002WallClock:
    def test_time_time(self):
        src = """\
        import time

        def f():
            return time.time()
        """
        assert rule_lines(src, "REP002") == [4]

    def test_perf_counter_and_monotonic(self):
        src = """\
        from time import monotonic, perf_counter

        def f():
            return perf_counter() - monotonic()
        """
        assert rule_lines(src, "REP002") == [4, 4]

    def test_datetime_now(self):
        src = """\
        from datetime import datetime

        def f():
            return datetime.now()
        """
        assert rule_lines(src, "REP002") == [4]

    def test_bare_time_reference(self):
        src = """\
        import time
        from dataclasses import field

        ts = field(default_factory=time.time)
        """
        assert rule_lines(src, "REP002") == [4]

    def test_profiler_module_is_exempt(self):
        src = """\
        import time

        def f():
            return time.perf_counter()
        """
        findings = lint_source("src/repro/obs/profiler.py", textwrap.dedent(src))
        assert [f for f in findings if f.rule_id == "REP002"] == []

    def test_sleep_is_not_a_clock_read(self):
        src = """\
        import time

        def f():
            time.sleep(0.1)
        """
        assert rule_lines(src, "REP002") == []


class TestREP003SetIteration:
    def test_for_over_set_building_list(self):
        src = """\
        def f(s: set):
            out = []
            for x in s:
                out.append(x)
            return out
        """
        assert rule_lines(src, "REP003") == [3]

    def test_sorted_wrap_is_fine(self):
        src = """\
        def f(s: set):
            out = []
            for x in sorted(s):
                out.append(x)
            return out
        """
        assert rule_lines(src, "REP003") == []

    def test_order_insensitive_body_is_fine(self):
        src = """\
        def f(s: set):
            total = 0
            for x in s:
                total += 1
            return total
        """
        assert rule_lines(src, "REP003") == []

    def test_set_literal_comprehension_into_list(self):
        src = """\
        def f(xs):
            return list({x for x in xs})
        """
        assert rule_lines(src, "REP003") == [2]

    def test_sum_over_set_is_fine(self):
        src = """\
        def f(s: set):
            return sum(v for v in s)
        """
        assert rule_lines(src, "REP003") == []

    def test_dict_view_set_algebra(self):
        src = """\
        def f(a: dict, b: dict):
            return list(a.keys() & b.keys())
        """
        assert rule_lines(src, "REP003") == [2]

    def test_plain_dict_iteration_is_fine(self):
        # CPython dicts are insertion-ordered; only sets are hash-ordered.
        src = """\
        def f(d: dict):
            return [v for v in d.values()]
        """
        assert rule_lines(src, "REP003") == []


class TestREP006StreamNames:
    def test_variable_stream_name(self):
        src = """\
        def f(rng_tree, which):
            return rng_tree.stream(which)
        """
        assert rule_lines(src, "REP006") == [2]

    def test_fstring_stream_name(self):
        src = """\
        def f(rng_tree, i):
            return rng_tree.fresh(f"w-{i}")
        """
        assert rule_lines(src, "REP006") == [2]

    def test_literal_stream_name_is_fine(self):
        src = """\
        def f(rng_tree):
            return rng_tree.stream("workload")
        """
        assert rule_lines(src, "REP006") == []


class TestSuppression:
    def test_bare_noqa_suppresses_everything(self):
        src = """\
        import random

        x = random.random()  # repro: noqa
        """
        findings = check(src)
        assert all(not f.active for f in findings)
        assert any(f.suppressed for f in findings)

    def test_scoped_noqa_suppresses_only_named_rule(self):
        src = """\
        import random
        import time

        def f():
            t = time.time()  # repro: noqa[REP002]
            return random.random() + t  # repro: noqa[REP002]
        """
        findings = check(src)
        active = [f.rule_id for f in findings if f.active]
        assert active == ["REP001"]
        assert [f.rule_id for f in findings if f.suppressed] == ["REP002"]

    def test_wrong_rule_id_does_not_suppress(self):
        src = """\
        import random

        x = random.random()  # repro: noqa[REP002]
        """
        assert rule_lines(src, "REP001") == [3]


class TestBaseline:
    def test_round_trip_silences_grandfathered(self, tmp_path):
        src = textwrap.dedent(
            """\
            import random

            x = random.random()
            """
        )
        first = lint_source("m.py", src)
        baseline = Baseline.from_findings(first)
        path = tmp_path / "base.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        again = lint_source("m.py", src, baseline=loaded)
        assert [f for f in again if f.active] == []
        assert [f for f in again if f.baselined] != []

    def test_baseline_does_not_cover_new_findings(self, tmp_path):
        baseline = Baseline.from_findings(lint_source("m.py", "import random\nx = random.random()\n"))
        fresh = lint_source(
            "m.py", "import random\nx = random.random()\ny = random.random()\n",
            baseline=baseline,
        )
        # The first occurrence is grandfathered; the second is new.
        assert len([f for f in fresh if f.baselined]) == 1
        assert len([f for f in fresh if f.active]) == 1

    def test_fingerprint_survives_line_moves(self):
        a = lint_source("m.py", "import random\nx = random.random()\n")
        b = lint_source("m.py", "import random\n\n\nx = random.random()\n")
        assert a[0].fingerprint == b[0].fingerprint

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(BaselineError):
            Baseline.load(path)

    def test_bumped_version_is_rejected(self, tmp_path):
        baseline = Baseline.from_findings(
            lint_source("m.py", "import random\nx = random.random()\n")
        )
        payload = baseline.to_dict()
        payload["version"] = int(payload["version"]) + 1  # type: ignore[call-overload]
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BaselineError, match="version"):
            Baseline.load(path)


class TestDriverAndRendering:
    def test_lint_paths_counts_and_exit_code(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import random\nx = random.random()\n")
        result = lint_paths([tmp_path])
        assert result.files_checked == 2
        assert result.counts_by_rule() == {"REP001": 1}
        assert result.exit_code == 1

    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        result = lint_paths([tmp_path])
        assert result.exit_code == 0

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = lint_paths([tmp_path])
        assert result.errors and "syntax error" in result.errors[0].message
        assert result.exit_code == 1

    def test_select_restricts_rules(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "import random\nimport time\nx = random.random()\ny = time.time()\n"
        )
        result = lint_paths([tmp_path], select=["REP002"])
        assert result.counts_by_rule() == {"REP002": 1}

    def test_unknown_select_raises(self, tmp_path):
        # An empty selection would lint nothing and pass; it raises too.
        for select in (["REP999"], [""], [","]):
            with pytest.raises(ValueError):
                lint_paths([tmp_path], select=select)

    def test_text_render_has_location_and_summary(self, tmp_path):
        (tmp_path / "m.py").write_text("import random\nx = random.random()\n")
        text = render_text(lint_paths([tmp_path]))
        assert "m.py:2:" in text and "REP001" in text
        assert "1 finding(s) in 1 file(s)" in text

    def test_json_render_parses(self, tmp_path):
        (tmp_path / "m.py").write_text("import random\nx = random.random()\n")
        payload = json.loads(render_json(lint_paths([tmp_path])))
        assert payload["active"] == 1
        assert payload["findings"][0]["rule"] == "REP001"

    def test_github_render_annotates(self, tmp_path):
        (tmp_path / "m.py").write_text("import random\nx = random.random()\n")
        out = render_github(lint_paths([tmp_path]))
        assert out.startswith("::error file=")
        assert "title=REP001" in out

    def test_rule_registry_is_complete(self):
        assert set(ALL_RULE_IDS) == {
            "REP001", "REP002", "REP003", "REP006", "REP101", "REP102",
        }
        for rule in RULES.values():
            assert rule.summary and rule.rationale


class TestDogfood:
    def test_repro_source_tree_is_clean(self):
        """The committed tree must gate at zero active findings with the
        default selection (every rule)."""
        result = lint_paths([REPO_SRC])
        assert result.errors == []
        active = [f.location() + " " + f.rule_id for f in result.active]
        assert active == []


class TestLintCli:
    def test_cli_lint_clean_tree(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_lint_finding_and_github_format(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "m.py").write_text("import random\nx = random.random()\n")
        assert main(["lint", str(tmp_path), "--format", "github"]) == 1
        assert "::error file=" in capsys.readouterr().out

    def test_cli_write_baseline_then_gate(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.py").write_text("import random\nx = random.random()\n")
        assert main(["lint", "m.py", "--write-baseline"]) == 0
        assert (tmp_path / ".repro-lint-baseline.json").exists()
        capsys.readouterr()
        # Old finding is baselined; a new one still gates.
        assert main(["lint", "m.py"]) == 0
        (tmp_path / "m.py").write_text(
            "import random\nx = random.random()\ny = random.choice([1])\n"
        )
        assert main(["lint", "m.py"]) == 1
