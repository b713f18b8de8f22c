"""Edge cases for the shared artifact-path helpers (repro.obs.paths)."""

from __future__ import annotations

import pathlib

import pytest

from repro.obs.paths import ARTIFACT_SUFFIXES, split_suffix, tagged_path


class TestSplitSuffix:
    def test_compound_suffix_recognized_as_unit(self):
        assert split_suffix("out.tsdb.json") == ("out", ".tsdb.json")
        assert split_suffix("run.prov.json") == ("run", ".prov.json")
        assert split_suffix("run.fp.json") == ("run", ".fp.json")

    def test_longest_suffix_wins_over_plain_json(self):
        # .tsdb.json must not be split as (out.tsdb, .json).
        assert split_suffix("out.tsdb.json")[1] == ".tsdb.json"
        assert split_suffix("out.json") == ("out", ".json")

    def test_relative_path_keeps_directory_part(self):
        assert split_suffix("runs/week1/out.tsdb.json") == (
            "runs/week1/out",
            ".tsdb.json",
        )
        assert split_suffix("./out.fp.json") == ("./out", ".fp.json")

    def test_absolute_and_pathlib_inputs(self):
        assert split_suffix("/tmp/a/b.prov.json") == ("/tmp/a/b", ".prov.json")
        stem, suffix = split_suffix(pathlib.PurePosixPath("x/y.jsonl"))
        assert (stem, suffix) == ("x/y", ".jsonl")

    def test_multi_dot_stem_survives(self):
        # Only the recognized artifact suffix is removed; dots in the
        # stem (versions, dates) stay put.
        assert split_suffix("run.v2.1.tsdb.json") == ("run.v2.1", ".tsdb.json")
        assert split_suffix("2026.08.07.fp.json") == ("2026.08.07", ".fp.json")

    def test_tagged_compound_suffix_splits_outside_the_tag(self):
        # A previously-tagged file re-splits at the artifact suffix.
        assert split_suffix("cmp.rfh.fp.json") == ("cmp.rfh", ".fp.json")
        assert split_suffix("cmp.rfh.tsdb.json") == ("cmp.rfh", ".tsdb.json")

    def test_unrecognized_suffix_is_empty(self):
        assert split_suffix("notes.txt") == ("notes.txt", "")
        assert split_suffix("archive.tar.gz") == ("archive.tar.gz", "")
        assert split_suffix("plain") == ("plain", "")

    def test_bare_suffix_named_file_never_splits_to_empty_stem(self):
        # A file literally named ".json" must not split to an empty stem;
        # a dotfile matching a *longer* compound suffix falls through to
        # the shorter one that leaves a non-empty stem.
        assert split_suffix(".json") == (".json", "")
        assert split_suffix("dir/.tsdb.json") == ("dir/.tsdb", ".json")

    @pytest.mark.parametrize("suffix", ARTIFACT_SUFFIXES)
    def test_every_registered_suffix_round_trips(self, suffix):
        stem, got = split_suffix(f"file{suffix}")
        assert (stem, got) == ("file", suffix)


class TestTaggedPath:
    def test_tag_lands_before_compound_suffix(self):
        assert tagged_path("out.tsdb.json", "rfh") == "out.rfh.tsdb.json"
        assert tagged_path("cmp.fp.json", "owner") == "cmp.owner.fp.json"

    def test_tagging_twice_stacks_outside_in(self):
        once = tagged_path("out.tsdb.json", "rfh")
        assert tagged_path(once, "retry") == "out.rfh.retry.tsdb.json"

    def test_relative_directories_preserved(self):
        assert (
            tagged_path("results/day2/out.prov.json", "rfh")
            == "results/day2/out.rfh.prov.json"
        )

    def test_no_recognized_suffix_appends_tag(self):
        assert tagged_path("outfile", "rfh") == "outfile.rfh"
        assert tagged_path("notes.txt", "rfh") == "notes.txt.rfh"

