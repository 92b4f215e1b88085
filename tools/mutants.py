"""Mutation probe: does the tier-1 suite notice a one-string change to calibkit?

Each mutant names a file under ``src/calibkit``, an exact old string, its
replacement, and the test expected to catch it. For each selected mutant
the probe copies ``src/`` to a temporary directory, replaces the old
string in the copy, and runs the tier-1 suite with ``-x -q`` against the
copy (the tests themselves are the repository's). It reports one of:

* ``caught``   a test failed; the first failing test is shown. When that
  is not the expected test, the expected test is run on its own too, and
  the line says whether it fails as well;
* ``survived`` every test passed;
* ``stale``    the old string does not occur exactly once, or the mutated
  file does not compile, so the mutant no longer fits the code and needs
  re-targeting.

Mutants run one at a time, each in a fresh copy. Standard library only.

    python tools/mutants.py                      # every mutant
    python tools/mutants.py --file metrics.py    # the mutants of one file
    python tools/mutants.py --only ece-pairwise-sum --only eq-always-true

The exit status is 0 when every selected mutant is caught, else 1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
INPUTS = "tests/test_inputs.py::"
TIMEOUT = 600.0  # seconds per pytest run; a mutant that loops forever counts as caught


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/calibkit
    old: str
    new: str
    expect: str  # pytest node id of the test expected to catch it


MUTANTS = [
    # The reliability table as three arrays.
    Mutant("ece-pairwise-sum", "metrics.py",
           "float(np.cumsum(table.counts / n * np.abs(table.acc - table.conf))[-1])",
           "float(np.sum(table.counts / n * np.abs(table.acc - table.conf)))",
           "tests/test_metrics.py::TestEce::test_equals_an_ordered_per_bin_loop_exactly[15]"),
    Mutant("eq-always-true", "metrics.py",
           "return all(np.array_equal(getattr(self, f), getattr(other, f))",
           "return True or all(np.array_equal(getattr(self, f), getattr(other, f))",
           "tests/test_metrics.py::TestReliabilityTable::"
           "test_tables_differing_in_one_bin_compare_unequal[counts]"),
    Mutant("divide-by-raw-counts", "metrics.py",
           "occupied = np.maximum(counts, 1)", "occupied = counts",
           "tests/test_metrics.py::TestReliabilityTable::test_two_correct_records_m2"),
    Mutant("precision-over-row-sums", "metrics.py",
           "precision = np.nan_to_num(tp / cm.sum(axis=0))",
           "precision = np.nan_to_num(tp / cm.sum(axis=1))",
           "tests/test_metrics.py::TestClassificationReport::test_hand_worked_macro_f1"),
    Mutant("zero-over-zero-warns", "metrics.py",
           'with np.errstate(invalid="ignore"):', 'with np.errstate():',
           "tests/test_metrics.py::TestClassificationReport::"
           "test_class_absent_everywhere_scores_zero"),
    Mutant("svg-walks-empty-bins", "reporting.py",
           "occupied = table.counts.nonzero()[0]", "occupied = (table.counts >= 0).nonzero()[0]",
           "tests/test_reporting.py::TestReliabilitySvg::test_curve_skips_empty_bins"),
    Mutant("svg-swaps-acc-and-conf", "reporting.py",
           "zip(table.conf[occupied].tolist(), table.acc[occupied].tolist())",
           "zip(table.acc[occupied].tolist(), table.conf[occupied].tolist())",
           "tests/test_reporting.py::TestReliabilitySvg::"
           "test_single_occupied_bin_draws_one_bar_pair"),
    Mutant("bin-side-right", "kernels.py",
           'edges.searchsorted(conf, side="left")', 'edges.searchsorted(conf, side="right")',
           "tests/test_kernels.py::test_bin_indices_match_interval_membership"),
    Mutant("acc-sums-of-confidence", "kernels.py",
           "np.bincount(bins, weights=correct, minlength=n_bins)",
           "np.bincount(bins, weights=conf, minlength=n_bins)",
           "tests/test_kernels.py::test_reliability_sums_match_brute_force"),
    # The scalar rule: one mutant per kind it rejects, and one config that
    # checks its field without holding the returned float.
    Mutant("real-takes-bool", "errors.py",
           "if isinstance(value, bool) or not isinstance(value, numbers.Real):",
           "if not isinstance(value, numbers.Real):",
           INPUTS + "test_non_real_scalars_stop_at_the_boundary[LossConfig.gamma_e-bool]"),
    Mutant("real-takes-str", "errors.py",
           "not isinstance(value, numbers.Real):", "not isinstance(value, (numbers.Real, str)):",
           INPUTS + "test_non_real_scalars_stop_at_the_boundary[LossConfig.gamma_e-str]"),
    Mutant("real-takes-none", "errors.py",
           "not isinstance(value, numbers.Real):",
           "not isinstance(value, (numbers.Real, type(None))):",
           INPUTS + "test_non_real_scalars_stop_at_the_boundary[LossConfig.gamma_e-None]"),
    Mutant("real-takes-complex", "errors.py",
           "not isinstance(value, numbers.Real):", "not isinstance(value, (numbers.Real, complex)):",
           INPUTS + "test_non_real_scalars_stop_at_the_boundary[LossConfig.gamma_e-complex]"),
    Mutant("real-takes-nan", "errors.py",
           "if not (math.isfinite(x) and (x > 0.0 if positive else x >= 0.0)):",
           "if abs(x) == math.inf or (x <= 0.0 if positive else x < 0.0):",
           INPUTS + "test_non_finite_and_out_of_range_scalars_stop_at_the_boundary"
           "[LossConfig.gamma_e-nan]"),
    Mutant("real-takes-inf", "errors.py",
           "if not (math.isfinite(x) and (x > 0.0", "if not ((x > 0.0",
           INPUTS + "test_non_finite_and_out_of_range_scalars_stop_at_the_boundary"
           "[LossConfig.gamma_e-inf]"),
    Mutant("gamma-e-not-held-as-float", "losses.py",
           'object.__setattr__(self, "gamma_e", _real(self.gamma_e, "gamma_e"))',
           '_real(self.gamma_e, "gamma_e")',
           INPUTS + "test_zero_is_the_least_non_negative_scalar_and_ints_are_held_as_float"),
    # The array and count rules.
    Mutant("array-any-dtype", "errors.py",
           'if a.dtype.kind not in "iuf":', "if False:",
           INPUTS + "test_bad_arrays_stop_at_the_boundary_without_a_warning[Dataset-str]"),
    Mutant("array-not-finite", "errors.py",
           "if not (np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0))):",
           "if False:",
           INPUTS + "test_bad_arrays_stop_at_the_boundary_without_a_warning[Dataset-nan]"),
    Mutant("count-takes-bool", "errors.py",
           "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
           "if not isinstance(value, (int, np.integer)):",
           INPUTS + "test_bad_counts_stop_at_the_boundary[bin_edges-True]"),
    Mutant("count-takes-fractions", "errors.py",
           "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
           "if isinstance(value, bool):",
           INPUTS + "test_bad_counts_stop_at_the_boundary[bin_edges-2.5]"),
    Mutant("count-minimum-excluded", "errors.py",
           "if value < minimum:", "if value <= minimum:",
           "tests/test_inputs.py"),  # its module-level configs no longer construct
    Mutant("soft-ece-skips-the-rules", "losses.py",
           "preds = Predictions.from_probs(probs, labels)",
           "preds = Predictions(np.asarray(probs, dtype=np.float64), np.asarray(labels))",
           INPUTS + "test_bad_arrays_stop_at_the_boundary_without_a_warning[soft_ece-str]"),
    # The pinned constants, tolerances and clamp; bin-side-right above is
    # the eighteenth of this set.
    Mutant("nll-clamp-removed", "losses.py",
           "picked = np.maximum(p.reshape(-1)[at_label], EPSILON)",
           "picked = p.reshape(-1)[at_label]",
           "tests/test_losses.py::TestNll::test_probability_clamp_is_one_in_a_million"),
    Mutant("shuffle-seed-off-by-one", "training.py",
           "default_rng([first.seed, epoch])", "default_rng([first.seed, epoch + 1])",
           "tests/test_golden.py::test_artifacts_match_pinned_digests[experiment-seed0]"),
    Mutant("argmax-last-index", "metrics.py",
           "predicted = np.argmax(self.probs, axis=1)",
           "predicted = self.probs.shape[1] - 1 - np.argmax(self.probs[:, ::-1], axis=1)",
           "tests/test_metrics.py::TestPredictions::test_argmax_tie_breaks_to_lowest_index"),
    Mutant("ramp-denominator-plus-one", "losses.py",
           "(config.total_epochs - config.s_e))", "(config.total_epochs - config.s_e + 1))",
           "tests/test_acceptance.py::test_criterion_6_curriculum_schedule_is_exact"),
    Mutant("compare-skips-the-scalar-rule", "cli.py",
           'return _real(section[name], f"{where}{name}")', "return float(section[name])",
           "tests/test_cli.py::TestCompareAndDiagram::"
           "test_compare_report_with_bad_metric_value[accuracy-True]"),
    Mutant("split-bytes-zero", "_bulk.py",
           "SPLIT_BYTES = 32 << 20", "SPLIT_BYTES = 0",
           "tests/test_data.py::TestResume::test_a_late_fault_resumes_at_its_block[malformed]"),
    Mutant("svg-curve-colour", "reporting.py",
           '_CURVE_COLOR = "#d62728"', '_CURVE_COLOR = "#d62729"',
           "tests/test_golden.py::test_artifacts_match_pinned_digests[experiment-seed0]"),
    Mutant("arm-index-swap", "training.py",
           "results.append((_arm(params, s),",
           "results.append((_arm(params, len(configs) - 1 - s),",
           "tests/test_cli.py::TestExperiment::"
           "test_arms_match_single_train_runs_byte_for_byte[0.7]"),
    Mutant("loader-tolerance-2e-3", "data.py",
           "off_sum = np.abs(totals - 1.0) > 1e-3", "off_sum = np.abs(totals - 1.0) > 2e-3",
           "tests/test_data.py::"
           "test_rows_within_1e_3_of_sum_1_load_renormalized_and_the_rest_fail[0.001001-bulk]"),
    Mutant("loader-tolerance-one-sided", "data.py",
           "off_sum = np.abs(totals - 1.0) > 1e-3", "off_sum = totals - 1.0 > 1e-3",
           "tests/test_data.py::"
           "test_rows_within_1e_3_of_sum_1_load_renormalized_and_the_rest_fail[-0.001001-bulk]"),
    Mutant("from-probs-tolerance-1e-6", "metrics.py",
           "off = np.abs(totals - 1.0) > 1e-9", "off = np.abs(totals - 1.0) > 1e-6",
           "tests/test_metrics.py::TestPredictions::"
           "test_rows_within_1e_9_of_sum_1_are_kept_as_given_and_the_rest_fail[1.001e-09]"),
    Mutant("from-probs-tolerance-one-sided", "metrics.py",
           "off = np.abs(totals - 1.0) > 1e-9", "off = totals - 1.0 > 1e-9",
           "tests/test_metrics.py::TestPredictions::"
           "test_rows_within_1e_9_of_sum_1_are_kept_as_given_and_the_rest_fail[-1.001e-09]"),
    Mutant("epsilon-1e-7", "kernels.py",
           "EPSILON = 1e-6", "EPSILON = 1e-7",
           "tests/test_losses.py::TestNll::test_probability_clamp_is_one_in_a_million"),
    Mutant("memory-error-uncaught", "cli.py",
           "except MemoryError as exc:", "except ZeroDivisionError as exc:",
           "tests/test_cli.py::TestTrain::test_out_of_memory_fails_cleanly[numpy]"),
    Mutant("learning-rate-zero-allowed", "training.py",
           '_real(self.learning_rate, "learning_rate", True)',
           '_real(self.learning_rate, "learning_rate")',
           "tests/test_training.py::TestTrainConfig::test_rejects_bad_learning_rate"),
    Mutant("nll-mean-over-n-minus-1", "losses.py",
           "loss = -np.log(picked).sum(axis=1) / n", "loss = -np.log(picked).sum(axis=1) / (n - 1)",
           "tests/test_acceptance.py::test_criterion_2_gradients_match_finite_differences"),
    Mutant("nll-grad-not-divided-by-n", "losses.py",
           "    grad /= n\n", "",
           "tests/test_acceptance.py::test_criterion_2_gradients_match_finite_differences"),
    # The lazy export table, the entries' one-thread default and the flag map.
    Mutant("export-under-wrong-submodule", "__init__.py",
           '"reporting": "comparison_table', '"kernels": "comparison_table',
           "tests/test_package.py::test_every_public_name_resolves_to_its_submodules_object"),
    Mutant("python-m-keeps-default-threads", "cli.py",
           '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n', "    pass\n",
           "tests/test_package.py::"
           "test_cli_entries_start_openblas_on_one_thread_unless_the_user_set_it[python-m-unset]"),
    Mutant("console-script-imports-cli-first", "__init__.py",
           '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n    from .cli import main\n',
           '    from .cli import main\n    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
           "tests/test_package.py::test_cli_entries_start_openblas_on_one_thread_unless_the_user"
           "_set_it[console-script-unset]"),
    Mutant("flag-map-entry-swapped", "cli.py",
           '"n_per_class": "--per-class"', '"n_per_class": "--classes"',
           "tests/test_cli.py::TestUsage::test_errors_name_the_flag[--per-class]"),
    Mutant("count-rule-names-no-field", "errors.py",
           'raise DomainError(f"{name} must be {bound}, got {value}", field=name)',
           'raise DomainError(f"{name} must be {bound}, got {value}")',
           "tests/test_cli.py::TestUsage::test_errors_name_the_flag[--per-class]"),
    Mutant("calib-seed-blamed-on-the-flag", "cli.py",
           "            return _count(seed, \"seed\", 0)\n", "            return seed\n",
           "tests/test_cli.py::TestTrain::test_negative_seed_env_fails_cleanly"),
    Mutant("load-log-skips-the-count-check", "cli.py",
           '    _count(args.bins, "bin count", 1)\n', "",
           "tests/test_cli.py::TestEval::test_bad_bins_fails_before_the_log_is_parsed[eval]"),
]


def _pytest(src: Path, args: list[str]) -> tuple[int, str]:
    """Run pytest from the repository root with ``src`` first on the path;
    return its exit code and the first failing test (or a summary)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]),
        PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, *TIER1, *args], cwd=REPO, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT:g} s"
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return proc.returncode, line.split(" ", 1)[1].split(" - ", 1)[0]
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else f"exit {proc.returncode}"


def probe(mutant: Mutant) -> tuple[str, str]:
    """(result, detail) for one mutant on a fresh copy of ``src/``."""
    with tempfile.TemporaryDirectory(prefix="calibkit-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "calibkit" / mutant.file
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            return "stale", f"old string found {found} times"
        text = text.replace(mutant.old, mutant.new)
        try:
            compile(text, str(path), "exec")
        except SyntaxError as exc:  # an import error would pass for a caught mutant
            return "stale", f"the mutated file does not compile: {exc.msg}, line {exc.lineno}"
        path.write_text(text, encoding="utf-8")
        code, first = _pytest(src, ["-x"])
        if code == 0:
            return "survived", first
        if first == mutant.expect:
            return "caught", first
        guard, _ = _pytest(src, [mutant.expect])
        return "caught", f"{first} (expected test {'fails too' if guard else 'PASSES'})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--file", action="append", default=[], metavar="NAME",
                        help="only mutants of this file under src/calibkit (repeatable)")
    parser.add_argument("--only", action="append", default=[], metavar="MUTANT",
                        help="only the mutant of this name (repeatable)")
    args = parser.parse_args(argv)
    unknown = set(args.only) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS
              if (not args.file or m.file in args.file) and (not args.only or m.name in args.only)]
    if not chosen:
        parser.error("no mutant matches the selection")
    width = max(len(m.name) for m in chosen)
    results = []
    for m in chosen:
        result, detail = probe(m)
        results.append(result)
        print(f"{result:<8}  {m.name:<{width}}  {m.file:<12}  {detail}", flush=True)
    print(", ".join(f"{results.count(r)} {r}" for r in ("caught", "survived", "stale")))
    return 0 if set(results) == {"caught"} else 1


if __name__ == "__main__":
    sys.exit(main())
