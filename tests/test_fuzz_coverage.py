"""Coverage-guided parallel fuzzing: collector, sharding, corpus, CLI.

Pins the contracts the campaign engine rests on: the coverage collector
is deterministic and strictly scoped (normal runs never pay for it),
parallel blind campaigns aggregate exactly like serial ones, signature
dedup counts a signature once no matter how many shards see it, and the
on-disk corpus resumes where it stopped.
"""

from __future__ import annotations

import sys

import pytest

from repro.cli import EXIT_FAILURE, EXIT_OK, main
from repro.eval.coverage import (DEFAULT_COVERAGE_MODULES, CoverageCollector,
                                 CoverageMap, collect_edges)
from repro.eval.faultinject import (Classification, mutant_rng, mutate,
                                    regenerate_mutant, seed_corpus)
from repro.eval.fuzz import (CORPUS_SCHEMA, CorpusState, FuzzConfig,
                             FuzzResult, _merge_shard, bench_payload,
                             load_corpus_entries, run_fuzz_campaign,
                             signature_key)
from repro.interp.replay import load_crash_bundle
from repro.wasm.decoder import decode_module


def _decode_seed():
    return decode_module(seed_corpus()["fib"])


class TestCoverageCollector:
    def test_new_edge_detection_is_deterministic(self):
        _, first = collect_edges(_decode_seed)
        _, second = collect_edges(_decode_seed)
        assert first, "decoding must touch decoder edges"
        assert first == second

    def test_different_inputs_reach_different_edges(self):
        corpus = seed_corpus()
        _, fib = collect_edges(decode_module, corpus["fib"])
        _, sink = collect_edges(decode_module, corpus["kitchen_sink"])
        # kitchen_sink exercises sections fib doesn't have
        assert sink - fib

    def test_disabled_path_has_no_effect(self):
        # no collector entered: whatever trace hook was active stays active
        before = sys.gettrace()
        _decode_seed()
        assert sys.gettrace() is before

    def test_collector_restores_prior_trace(self):
        collector = CoverageCollector(backend="settrace")
        sentinel = lambda *a: None  # noqa: E731
        saved = sys.gettrace()
        sys.settrace(sentinel)
        try:
            with collector:
                _decode_seed()
            assert sys.gettrace() is sentinel
        finally:
            sys.settrace(saved)
        assert collector.edges

    def test_foreign_code_is_not_collected(self):
        _, edges = collect_edges(sorted, [3, 1, 2])
        assert edges == set()

    def test_drain_clears(self):
        collector = CoverageCollector()
        with collector:
            _decode_seed()
            first = collector.drain()
            assert first
            assert collector.drain() == set()

    def test_monitoring_backend_if_available(self):
        if sys.version_info < (3, 12):
            pytest.skip("sys.monitoring backend needs 3.12+")
        _, edges = collect_edges(_decode_seed, backend="monitoring")
        assert edges

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            CoverageCollector(backend="perf")

    def test_map_add_all_reports_only_new(self):
        cov = CoverageMap()
        assert cov.add_all({1, 2, 3}) == {1, 2, 3}
        assert cov.add_all({2, 3, 4}) == {4}
        assert len(cov) == 4
        assert CoverageMap.from_payload(cov.to_payload()).edges == cov.edges

    def test_module_order_is_pinned(self):
        # edge ids embed the module index; reordering this tuple breaks
        # every persisted corpus, so changes must bump MUTATOR_VERSION
        assert DEFAULT_COVERAGE_MODULES == (
            "repro.wasm.leb128", "repro.wasm.decoder",
            "repro.wasm.validation", "repro.core.instrument",
            "repro.wasm.encoder")


class TestShardedCampaign:
    def test_parallel_blind_matches_serial(self):
        serial = run_fuzz_campaign(FuzzConfig(
            mutants=300, seed=99, parallel=1, execute=False))
        parallel = run_fuzz_campaign(FuzzConfig(
            mutants=300, seed=99, parallel=3, round_size=40, execute=False))
        assert serial.signatures == parallel.signatures
        assert serial.rejected_at == parallel.rejected_at
        assert serial.survived == parallel.survived

    def test_shard_merge_dedups_signatures(self):
        config = FuzzConfig(seed=1)
        state = CorpusState()
        result = FuzzResult(seed=1)
        sig = signature_key("decode", "rejected", "DecodeError")
        example = {"name": "fib", "index": 0, "recipe": "flip@0^0x01",
                   "max_ops": 3, "stage": "decode", "outcome": "rejected",
                   "exc_type": "DecodeError", "message": "bad magic",
                   "mutant": b"\x00"}
        shard = {"mutants": 10, "rejected_at": {"decode": 10}, "survived": 0,
                 "signature_counts": {sig: 10},
                 "signature_examples": {sig: example},
                 "escapes": [], "additions": [], "new_edges": []}
        _merge_shard(config, state, result, shard)
        _merge_shard(config, state, result, shard)  # same sig, second shard
        assert result.new_signatures == [sig]
        assert result.signatures[sig] == 20

    def test_resumed_signatures_are_not_new(self):
        sig = signature_key("decode", "rejected", "DecodeError")
        config = FuzzConfig(seed=1)
        state = CorpusState()
        result = FuzzResult(seed=1, preexisting=frozenset({sig}))
        shard = {"mutants": 1, "rejected_at": {"decode": 1}, "survived": 0,
                 "signature_counts": {sig: 1},
                 "signature_examples": {sig: {"outcome": "rejected"}},
                 "escapes": [], "additions": [], "new_edges": []}
        _merge_shard(config, state, result, shard)
        assert result.new_signatures == []

    def test_coverage_guided_evolves_corpus(self):
        result = run_fuzz_campaign(FuzzConfig(
            mutants=400, seed=5, coverage=True))
        assert result.coverage and result.backend
        assert result.edges > 0
        assert result.corpus_added > 0

    def test_mutant_regenerates_exactly_across_modes(self):
        corpus = seed_corpus()
        for max_ops in (1, 3):
            a, _ = mutate(corpus["fib"], mutant_rng(7, "fib", 3),
                          max_ops=max_ops)
            b, _ = mutate(corpus["fib"], mutant_rng(7, "fib", 3),
                          max_ops=max_ops)
            assert a == b

    def test_time_budget_stops_campaign(self):
        result = run_fuzz_campaign(FuzzConfig(
            mutants=1_000_000, seed=3, execute=False, round_size=50,
            time_budget=0.0))
        assert result.mutants == 0

    def test_escape_is_recorded(self, monkeypatch, tmp_path):
        def bad_classify(binary, execute=True, engines=(True, False)):
            return Classification(stage="decode", outcome="escape",
                                  exc_type="IndexError", message="boom")

        monkeypatch.setattr("repro.eval.fuzz.classify", bad_classify)
        result = run_fuzz_campaign(FuzzConfig(
            mutants=3, seed=1, save_failures=str(tmp_path), reduce_tests=0))
        assert not result.ok
        assert len(result.escapes) == 3
        assert result.bundles  # escape bundles were written


class TestCorpusPersistence:
    def test_resume_round_trip(self, tmp_path):
        first = run_fuzz_campaign(FuzzConfig(
            mutants=300, seed=11, coverage=True, corpus_dir=str(tmp_path),
            reduce_tests=0))
        assert (tmp_path / "corpus.json").is_file()
        second = run_fuzz_campaign(FuzzConfig(
            mutants=300, seed=11, coverage=True, corpus_dir=str(tmp_path),
            reduce_tests=0))
        # the cursor advanced: run 2 fuzzes indices 300..599, not 0..299
        assert CorpusState.load(tmp_path).next_index == 600
        # signatures known from run 1 are not re-announced by run 2
        assert not set(second.new_signatures) & set(first.new_signatures)
        assert set(second.preexisting) >= set(first.new_signatures)

    def test_stale_schema_starts_fresh(self, tmp_path):
        (tmp_path / "corpus.json").write_text(
            '{"schema": "not-it/0", "next_index": 900}')
        state = CorpusState.load(tmp_path)
        assert state.next_index == 0
        assert set(state.entries) == set(seed_corpus())

    def test_corrupt_state_starts_fresh(self, tmp_path):
        (tmp_path / "corpus.json").write_text("{nope")
        assert CorpusState.load(tmp_path).next_index == 0

    def test_schema_tag_current(self):
        assert CORPUS_SCHEMA == "repro.fuzz-corpus/1"

    def test_evolved_entries_reload_bytes(self, tmp_path):
        run_fuzz_campaign(FuzzConfig(
            mutants=400, seed=5, coverage=True, corpus_dir=str(tmp_path),
            reduce_tests=0))
        entries = load_corpus_entries(tmp_path)
        evolved = {n: b for n, b in entries.items() if n.startswith("cov-")}
        assert evolved
        state = CorpusState.load(tmp_path)
        for name, data in evolved.items():
            assert state.entries[name] == data
            assert state.lineage[name]["parent"]


class TestSignatureBundles:
    def test_new_signatures_are_bundled_and_replayable(self, tmp_path):
        from repro.eval.faultinject import replay_failure_bundle

        result = run_fuzz_campaign(FuzzConfig(
            mutants=400, seed=5, coverage=True, corpus_dir=str(tmp_path)))
        assert result.bundles
        for path in result.bundles:
            bundle = load_crash_bundle(path)
            assert bundle.manifest["kind"] == "pipeline"
            assert bundle.manifest["fuzz"]["signature"]
            reproduced, live = replay_failure_bundle(bundle)
            assert reproduced, f"{path}: {live}"

    def test_pass_signature_not_bundled(self, tmp_path):
        result = run_fuzz_campaign(FuzzConfig(
            mutants=400, seed=5, coverage=True, corpus_dir=str(tmp_path)))
        pass_sig = signature_key(None, "pass", None)
        assert pass_sig in result.new_signatures
        assert not (tmp_path / "signatures" / "pass-pass--").exists()

    def test_bench_payload_shape(self):
        result = run_fuzz_campaign(FuzzConfig(mutants=60, seed=2,
                                              execute=False))
        payload = bench_payload(result)
        assert payload["mutants"] == 60
        assert payload["mutants_per_sec"] > 0
        assert "signatures" in payload and "escapes" in payload


class TestFuzzCLI:
    def test_guided_cli_exit_ok(self, tmp_path, capsys):
        status = main(["fuzz", "--mutants", "120", "--seed", "5",
                       "--coverage", "--corpus-dir", str(tmp_path)])
        assert status == EXIT_OK
        out = capsys.readouterr().out
        assert "coverage via" in out

    def test_escape_exits_failure(self, monkeypatch, capsys):
        def bad_classify(binary, execute=True, engines=(True, False)):
            return Classification(stage="decode", outcome="escape",
                                  exc_type="IndexError", message="boom")

        monkeypatch.setattr("repro.eval.fuzz.classify", bad_classify)
        status = main(["fuzz", "--mutants", "2", "--coverage"])
        assert status == EXIT_FAILURE
        assert "ESCAPE" in capsys.readouterr().err

    def test_serial_escape_exits_failure(self, monkeypatch, capsys):
        def explode(binary, execute, engines):
            raise IndexError("boom")

        monkeypatch.setattr("repro.eval.faultinject._pipeline_stage", explode)
        status = main(["fuzz", "--mutants", "2"])
        assert status == EXIT_FAILURE
        assert "ESCAPE" in capsys.readouterr().err

    def test_reduce_applies_to_every_campaign_mode(self, monkeypatch,
                                                   tmp_path, capsys):
        # --reduce used to be dropped whenever --coverage (or --parallel,
        # --corpus-dir, ...) was given
        def explode(binary, execute, engines):
            raise IndexError("boom")

        monkeypatch.setattr("repro.eval.faultinject._pipeline_stage", explode)
        failures = tmp_path / "failures"
        status = main(["fuzz", "--mutants", "2", "--coverage",
                       "--save-failures", str(failures), "--reduce"])
        assert status == EXIT_FAILURE
        bundles = sorted(failures.iterdir())
        assert len(bundles) == 2
        for path in bundles:
            bundle = load_crash_bundle(path)
            reduction = bundle.manifest["reduction"]
            assert reduction["reduced_size"] == len(bundle.module_bytes)
            assert reduction["reduced_size"] < reduction["original_size"]

    def test_guided_escape_bundle_regenerates_from_manifest(
            self, monkeypatch, tmp_path, capsys):
        def bad_classify(binary, execute=True, engines=(True, False)):
            return Classification(stage="decode", outcome="escape",
                                  exc_type="IndexError", message="boom")

        monkeypatch.setattr("repro.eval.fuzz.classify", bad_classify)
        result = run_fuzz_campaign(FuzzConfig(
            mutants=6, seed=11, coverage=True,
            save_failures=str(tmp_path)))
        assert len(result.escapes) == 6
        differs_at_default_depth = False
        for failure in result.escapes:
            bundle = load_crash_bundle(tmp_path / f"{failure.corpus_name}-"
                                                  f"{failure.index}")
            fuzz = bundle.manifest["fuzz"]
            assert fuzz["max_ops"] == 1
            assert fuzz["corpus"] in seed_corpus()
            assert regenerate_mutant(fuzz["seed"], fuzz["corpus"],
                                     fuzz["index"],
                                     max_ops=fuzz["max_ops"]) \
                == bundle.module_bytes
            differs_at_default_depth |= regenerate_mutant(
                fuzz["seed"], fuzz["corpus"], fuzz["index"]) \
                != bundle.module_bytes
        # the recorded depth matters: the default of 3 rebuilds other bytes
        assert differs_at_default_depth
        capsys.readouterr()
        assert main(["bundle", str(tmp_path / "fib-0")]) == EXIT_OK
        assert "max_ops=1" in capsys.readouterr().out
