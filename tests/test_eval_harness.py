"""The evaluation harness itself: sweeps, reports, and the hook matrix."""

import pytest

from repro.core.analysis import ALL_GROUPS, used_groups
from repro.eval import (FIGURE_GROUPS, OverheadReport, SizeReport,
                        baseline_runtime, instrumented_runtime,
                        make_full_analysis, make_group_analysis,
                        overhead_sweep, polybench_workloads, render_fig8,
                        render_fig9, render_table, render_table5, size_sweep,
                        time_instrumentation)
from repro.eval.faithfulness import run_instrumented, run_original
from repro.workloads.polybench import compile_kernel


class TestHooksMatrix:
    def test_figure_groups_cover_all(self):
        assert set(FIGURE_GROUPS) == set(ALL_GROUPS)
        assert len(FIGURE_GROUPS) == 21

    @pytest.mark.parametrize("group", FIGURE_GROUPS)
    def test_group_analysis_implements_exactly_one_group(self, group):
        analysis = make_group_analysis(group)
        assert used_groups(analysis) == frozenset({group})

    def test_full_analysis_implements_everything(self):
        assert used_groups(make_full_analysis()) == frozenset(ALL_GROUPS)

    def test_group_analyses_are_noops(self):
        analysis = make_group_analysis("binary")
        analysis.binary(None, "i32.add", 1, 2, 3)  # must not raise


class TestSizeSweep:
    def test_sweep_shape(self):
        module = compile_kernel("trisolv")
        reports = size_sweep("trisolv", module)
        assert len(reports) == len(FIGURE_GROUPS) + 1
        assert reports[-1].config == "all"
        all_report = reports[-1]
        assert all_report.increase_percent > \
            max(r.increase_percent for r in reports[:-1])

    def test_size_report_math(self):
        report = SizeReport("x", "all", 100, 150, 3)
        assert report.increase_percent == 50.0


class TestTimingAndOverhead:
    def test_timing_report(self):
        report = time_instrumentation("gemm", compile_kernel("gemm"), repeats=2)
        assert report.mean_seconds > 0
        assert report.throughput_mb_per_s > 0
        assert report.repeats == 2

    def test_baseline_and_instrumented(self):
        workload = polybench_workloads(["trisolv"])[0]
        base = baseline_runtime(workload, repeats=1)
        heavy = instrumented_runtime(workload, "all", repeats=1)
        assert heavy > base

    def test_overhead_sweep_subset(self):
        workload = polybench_workloads(["durbin"])[0]
        reports = overhead_sweep(workload, ["nop", "binary"], repeats=1)
        by_config = {r.config: r for r in reports}
        assert set(by_config) == {"nop", "binary", "all"}
        assert by_config["binary"].relative_runtime > \
            by_config["nop"].relative_runtime * 0.8

    def test_slow_first_baseline_sample_does_not_skew_the_sweep(self):
        workload = polybench_workloads(["trisolv"])[0]
        # one span per sample, in sweep order: baseline, then the
        # configuration, for nop, binary and all; the first baseline
        # sample is five times slower than the median of the three
        durations = [10.0, 2.0, 1.0, 4.0, 2.0, 8.0]
        stamps, now = [], 0.0
        for seconds in durations:
            stamps += [now, now + seconds]
            now += seconds
        clock = iter(stamps).__next__
        reports = overhead_sweep(workload, ["nop", "binary"], repeats=1,
                                 clock=clock)
        assert [r.config for r in reports] == ["nop", "binary", "all"]
        assert [r.baseline_seconds for r in reports] == [2.0, 2.0, 2.0]
        assert [r.relative_runtime for r in reports] == [1.0, 2.0, 4.0]

    def test_overhead_report_math(self):
        report = OverheadReport("x", "all", 1.0, 42.0)
        assert report.relative_runtime == 42.0


class TestFaithfulnessHelpers:
    def test_run_original_captures_prints(self):
        workload = polybench_workloads(["durbin"])[0]
        result, printed = run_original(workload)
        assert printed and isinstance(result, list)

    def test_run_instrumented_matches(self):
        workload = polybench_workloads(["durbin"])[0]
        expected, expected_printed = run_original(workload)
        actual, actual_printed, module = run_instrumented(workload)
        assert actual == expected
        assert actual_printed == expected_printed


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbbb"], [["x", 1], ["yyyy", 22]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title + header + rule + 2 rows
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_render_table5(self):
        report = time_instrumentation("polybench/x", compile_kernel("trisolv"),
                                      repeats=2)
        text = render_table5([report])
        assert "Table 5" in text and "PolyBench" in text

    def test_render_fig8(self):
        reports = {"s": [SizeReport("a", "nop", 100, 101, 1),
                         SizeReport("a", "all", 100, 700, 10)]}
        text = render_fig8(reports, ["nop", "all"])
        assert "+1.0%" in text and "+600.0%" in text

    def test_render_fig9_geomean(self):
        reports = {"s": [OverheadReport("a", "all", 1.0, 4.0)],
                   "t": [OverheadReport("b", "all", 1.0, 9.0)]}
        text = render_fig9(reports, ["all"])
        assert "4.00x" in text and "9.00x" in text and "6.00x" in text
