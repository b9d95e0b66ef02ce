"""The conformance harness itself: determinism, shrinking, CLI contract."""

import json

import pytest

from repro.conformance import ENGINES, run_conformance
from repro.conformance.cli import conformance_main
from repro.conformance.shrink import shrink
from repro.util.rng import SeededRng


class TestSmokeFuzz:
    def test_all_engines_pass_smoke_run(self):
        report = run_conformance(2006, 200)
        assert report.ok, report.render()
        assert [run.engine for run in report.runs] == list(ENGINES)

    def test_case_split_covers_total(self):
        report = run_conformance(1, 10)
        assert sum(run.cases for run in report.runs) == 10

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engines"):
            run_conformance(1, 4, engines=["codec", "nope"])


class TestDeterminism:
    def test_report_is_byte_identical_across_runs(self):
        first = run_conformance(2006, 80)
        second = run_conformance(2006, 80)
        assert first.render() == second.render()
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("name", ENGINES)
    def test_generation_depends_only_on_coordinates(self, name):
        # the case at (engine, index) must not depend on which other engines
        # run or how many cases they get — that is what makes a single
        # failure re-investigable in isolation
        engine = ENGINES[name]
        direct = engine.generate(SeededRng(2006).fork(f"{name}/7"))
        again = engine.generate(SeededRng(2006).fork(f"{name}/7"))
        assert direct == again

    @pytest.mark.parametrize("name", ENGINES)
    def test_different_seeds_generate_different_cases(self, name):
        engine = ENGINES[name]
        a = engine.generate(SeededRng(1).fork(f"{name}/0"))
        b = engine.generate(SeededRng(2).fork(f"{name}/0"))
        assert a != b


class TestShrinker:
    def test_shrinks_list_to_minimal_failing_element(self):
        failing = lambda case: isinstance(case, list) and "bad" in case
        result = shrink(["a", "bad", "c", "d"], failing)
        assert result == ["bad"]

    def test_shrinks_nested_strings(self):
        # string variants are prefix truncations only, so the shortest
        # failing *prefix* is the deterministic floor
        failing = lambda case: isinstance(case, dict) and "x" in case.get("s", "")
        assert shrink({"s": "aaxaa"}, failing) == {"s": "aax"}

    def test_halves_integers_toward_zero(self):
        failing = lambda case: isinstance(case, dict) and case.get("n", 0) >= 10
        # 500 → 250 → 125 → 62 → 31 → 15 (both 0 and 7 stop failing)
        assert shrink({"n": 500}, failing) == {"n": 15}

    def test_budget_bounds_probe_count(self):
        calls = []

        def failing(case):
            calls.append(case)
            return True  # everything "fails": only the budget stops us

        shrink(["a"] * 50, failing, budget=17)
        assert len(calls) <= 17

    def test_result_always_still_failing(self):
        failing = lambda case: isinstance(case, list) and sum(
            1 for item in case if item == "k"
        ) >= 2
        result = shrink(["k", "j", "k", "k"], failing)
        assert failing(result)
        assert result == ["k", "k"]


class TestCli:
    def test_exit_zero_and_report_on_stdout(self, capsys):
        assert conformance_main(["--seed", "2006", "--cases", "40"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS (0 failures)" in out
        assert "seed=2006 cases=40" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert conformance_main(["--seed", "2006", "--cases", "40", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"] == "pass"
        assert set(record["engines"]) == set(ENGINES)

    def test_engine_subset(self, capsys):
        assert conformance_main(["--cases", "20", "--engines", "codec,framing"]) == 0
        out = capsys.readouterr().out
        assert "engines=codec,framing" in out
        assert "lifecycle" not in out

    def test_unknown_engine_is_usage_error(self, capsys):
        assert conformance_main(["--cases", "4", "--engines", "warp"]) == 2

    def test_corpus_replay_flag(self, capsys, tmp_path):
        good = {"engine": "codec", "name": "ok", "case": {"kind": "raw", "xml": "<a/>"}}
        (tmp_path / "ok.json").write_text(json.dumps(good))
        assert conformance_main(["--cases", "8", "--corpus", str(tmp_path)]) == 0
        assert "corpus: 1 cases, 0 failures" in capsys.readouterr().out

    def test_failing_corpus_sets_exit_code(self, capsys, tmp_path, monkeypatch):
        # no real corpus case fails on fixed code, so force a failure to pin
        # the exit-1 contract CI depends on
        entry = {"engine": "codec", "name": "boom", "case": {"kind": "raw", "xml": "<a/>"}}
        (tmp_path / "boom.json").write_text(json.dumps(entry))
        monkeypatch.setattr(ENGINES["codec"], "check", lambda case: "forced failure")
        code = conformance_main(
            ["--cases", "8", "--engines", "framing", "--corpus", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "corpus: 1 cases, 1 failures" in out
        assert "FAIL codec/boom: forced failure" in out
