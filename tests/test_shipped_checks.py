"""The comparators of ``shipped_checks.py``, on synthetic CSV text and
summaries: each rule passes what it allows and fails what it forbids."""

import hashlib
import os

import pytest

from unlearn_lab.oracle import PRED_ABS_FLOOR

import shipped_checks
from shipped_checks import (
    CheckFailed,
    Run,
    cells_agree,
    check_digests,
    child_env,
    compare_against,
    compare_kernels,
    compare_rank_counts,
    compare_stacked,
    forced_kernels,
)

LINEAR = """\
# schema: sweep-nt/v3
# config: {"seeds":[3,11]}
experiment,seed,n_t,rl_ft,ul_ft
sweep-nt,3,1,0.0,0.5
sweep-nt,11,1,1.25e-13,2.5
"""


def classifier_csv(*rows: str) -> str:
    """A ``classifier-demo`` CSV of ``rows``, each from its seed cell on."""
    return ("# schema: classifier/v5\n# config: {}\nexperiment,variant,alpha,seed,ua,ra,ta\n"
            + "".join(f"classifier-demo,ft,0.5,{row}\n" for row in rows))


CLASSIFIER = classifier_csv("3,0.25,1.0,0.75", "11,0.5,1.0,0.75",
                            "mean,0.375,1.0,0.75", "std,0.125,0.0,0.0")

LOG = """\
INFO unlearn_lab.experiments: stage solve: 0.01 s
DEBUG unlearn_lab.linalg: rank-deficient matrix: shape (40, 30) has rank 20 (cutoff 1.2e-13)
DEBUG unlearn_lab.linalg: rank-deficient matrix: shape (40, 25) has rank 20 (cutoff 1.1e-13)
"""


def run(csv=LINEAR, log=LOG, core="Haswell", **summary) -> Run:
    """A run of the CSV ``csv`` whose summary takes ``summary``'s values."""
    schema = next(line for line in csv.splitlines() if line.startswith("# schema:"))
    return Run(csv, {
        "schema": schema.removeprefix("# schema: "),
        "passed": True,
        "failures": [],
        "rank_deficient_solves": {"solvers": 2, "oracle": 0},
        "platform": {"openblas_core": core},
        **summary,
    }, log)


def test_the_floor_is_the_oracles():
    assert shipped_checks.PRED_ABS_FLOOR == PRED_ABS_FLOOR


def test_a_child_runs_its_trees_code_with_warnings_as_errors(tmp_path):
    env = child_env(tmp_path, OPENBLAS_CORETYPE="Haswell")
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(tmp_path / "src")
    assert env["PYTHONWARNINGS"] == "error"
    assert env["OPENBLAS_CORETYPE"] == "Haswell"


class TestCellRule:
    """Two kernels' cells agree within relative 1e-12, or both under the
    oracle's absolute floor; NaN agrees only with NaN."""

    @pytest.mark.parametrize("value", [0.5, -3.0e7, 2.0e-9])
    def test_a_relative_difference_of_1e_11_fails_and_one_of_1e_13_passes(self, value):
        assert not cells_agree(repr(value), repr(value * (1 + 1e-11)))
        assert cells_agree(repr(value), repr(value * (1 + 1e-13)))

    def test_two_values_under_the_floor_pass_whatever_their_ratio(self):
        small = PRED_ABS_FLOOR / 2
        assert cells_agree(repr(small), repr(-small / 1000))
        assert cells_agree("0.0", repr(small))
        # Only both under it: one value at the floor is held to the bound.
        assert not cells_agree(repr(small), repr(PRED_ABS_FLOOR))

    def test_nan_agrees_only_with_nan(self):
        assert not cells_agree("nan", "1.0")
        assert not cells_agree("0.0", "nan")
        assert cells_agree("nan", "nan")

    def test_other_cells_must_be_equal(self):
        assert cells_agree("distinct", "distinct")
        assert not cells_agree("distinct", "overlap")
        assert not cells_agree("true", "false")


class TestKernelRun:
    """The rest of a forced kernel's run must repeat the default's."""

    def test_a_forced_run_within_the_bound_passes_and_counts_its_changed_cells(self):
        forced = run(LINEAR.replace("1.25e-13", "1.2500000000001e-13")
                     .replace("2.5\n", "2.500000000001\n"))
        assert compare_kernels(run(), forced, "Haswell") == 2
        assert compare_kernels(run(), run(), "Haswell") == 0

    def test_a_changed_comment_line_fails(self):
        forced = run(LINEAR.replace('"seeds":[3,11]', '"seeds":[3,12]'))
        with pytest.raises(CheckFailed, match="comment lines differ at line 2"):
            compare_kernels(run(), forced, "Haswell")

    @pytest.mark.parametrize("key,value", [
        ("passed", False),
        ("failures", [{"seed": 3, "type": "SvdFailureError"}]),
        ("rank_deficient_solves", {"solvers": 3, "oracle": 0}),
    ])
    def test_a_changed_summary_value_fails(self, key, value):
        with pytest.raises(CheckFailed, match=f"^{key} reads"):
            compare_kernels(run(), run(**{key: value}), "Haswell")

    def test_a_summary_that_names_another_core_fails(self):
        with pytest.raises(CheckFailed, match="reads kernel SkylakeX, not Haswell"):
            compare_kernels(run(), run(core="SkylakeX"), "Haswell")

    def test_a_cell_beyond_the_bound_fails(self):
        forced = run(LINEAR.replace("2.5\n", "2.50000000001\n"))
        with pytest.raises(CheckFailed, match="ul_ft on CSV line 3 reads 2.5"):
            compare_kernels(run(), forced, "Haswell")

    def test_a_changed_shape_fails(self):
        with pytest.raises(CheckFailed, match="CSV lines"):
            compare_kernels(run(), run(LINEAR + "sweep-nt,5,1,0.0,0.5\n"), "Haswell")
        with pytest.raises(CheckFailed, match="CSV line 2 has 5 cells"):
            compare_kernels(run(), run(LINEAR.replace("0.0,0.5", "0.0,0.5,1")), "Haswell")

    def test_a_classifier_csv_must_be_equal_as_written(self):
        assert compare_kernels(run(CLASSIFIER), run(CLASSIFIER), "Haswell") == 0
        forced = run(CLASSIFIER.replace("0.375", "0.3750000000000001"))
        with pytest.raises(CheckFailed, match="classifier CSVs differ"):
            compare_kernels(run(CLASSIFIER), forced, "Haswell")

    @pytest.mark.parametrize("default,forced", [
        ("SkylakeX", ["Haswell", "Sandybridge"]), ("Haswell", ["Sandybridge"]),
        ("Zen", ["Sandybridge"]), ("Sandybridge", ["Haswell"]),
        (None, ["Haswell", "Sandybridge"]),
    ])
    def test_each_forced_kernel_differs_from_the_default(self, default, forced):
        assert forced_kernels(default) == forced

    @pytest.mark.parametrize("bad", [None, "Sandybridge"])
    def test_the_check_runs_every_forced_kernel_and_fails_on_any(
        self, monkeypatch, tmp_path, bad
    ):
        # A stand-in CLI: the default run is SkylakeX's, and the forced
        # kernel ``bad`` reads a beyond-the-bound cell.
        forced = []

        def fake_run(tree, config, out, *flags, OPENBLAS_CORETYPE=None):
            forced.append((OPENBLAS_CORETYPE, out.parent.name))
            if OPENBLAS_CORETYPE is None:
                return run(core="SkylakeX")
            text = LINEAR.replace("2.5\n", "2.50000000001\n") if OPENBLAS_CORETYPE == bad else LINEAR
            return run(text, core=OPENBLAS_CORETYPE)

        monkeypatch.setattr(shipped_checks, "run_config", fake_run)
        config = tmp_path / "sweep_nt.json"
        if bad is None:
            note = shipped_checks.kernel(config, tmp_path)
            assert note.startswith("0 cells differ under Haswell, 0 cells differ under Sandybridge")
        else:
            with pytest.raises(CheckFailed, match="reads 2.5 on the default kernel and"
                                                  " 2.50000000001 on Sandybridge"):
                shipped_checks.kernel(config, tmp_path)
        assert forced == [(None, "default"), ("Haswell", "Haswell"),
                          ("Sandybridge", "Sandybridge")]


class TestDigests:
    def test_every_listed_output_must_have_its_digest(self, tmp_path):
        content = b"x,y\n1,2\n"
        (tmp_path / "a.csv").write_bytes(content)
        listing = f"{hashlib.sha256(content).hexdigest()}  a.csv\n"
        assert check_digests(listing, tmp_path) == ["a.csv"]
        (tmp_path / "a.csv").write_bytes(b"x,y\n1,3\n")
        with pytest.raises(CheckFailed, match="^a.csv: SHA-256"):
            check_digests(listing, tmp_path)
        with pytest.raises(CheckFailed, match="^a.csv: no such output"):
            check_digests(listing, tmp_path / "elsewhere")


class TestAgainst:
    """A run against another revision's: equal rank counts and DEBUG rank
    lines, and equal CSV lines where the schema is the same; a changed
    config echo is reported and fails nothing."""

    def test_an_equal_run_passes_and_compares_its_csv(self):
        assert compare_against(run(), run()) == (True, [])

    def test_a_changed_data_line_fails(self):
        with pytest.raises(CheckFailed, match="CSV lines after the comments differ at line 3"):
            compare_against(run(), run(LINEAR.replace("2.5\n", "2.5000000000000004\n")))

    def test_a_changed_rank_count_fails(self):
        with pytest.raises(CheckFailed, match="^rank_deficient_solves reads"):
            compare_against(run(), run(rank_deficient_solves={"solvers": 2, "oracle": 1}))

    @pytest.mark.parametrize("log", [
        LOG.replace("has rank 20 (cutoff 1.1e-13)", "has rank 19 (cutoff 1.1e-13)"),
        LOG.rsplit("DEBUG", 1)[0],
    ], ids=["changed", "missing"])
    def test_a_changed_debug_rank_line_fails(self, log):
        with pytest.raises(CheckFailed, match="DEBUG rank-deficient lines differ"):
            compare_against(run(), run(log=log))

    def test_a_config_echo_that_differs_alone_passes(self):
        theirs = run(LINEAR.replace('"seeds":[3,11]',
                                    '"seeds":[3,11],"task":{"sep":4},"tolerance":{"rel":1e-08}'))
        ours = run(LINEAR.replace('"seeds":[3,11]', '"new":1,"seeds":[3,11],"task":{"sep":4.5}'),
                   log=LOG.replace("0.01 s", "0.02 s"))
        assert compare_against(theirs, ours) == (
            True, ["'new' added", "'task' changed", "'tolerance' removed"])
        # An int echoed as a float is a change; the order of the keys is not.
        sep = run(LINEAR.replace('"seeds":[3,11]', '"task":{"sep":4.0,"k":2},"seeds":[3,11]'))
        reordered = run(sep.csv.replace('{"sep":4.0,"k":2}', '{"k":2,"sep":4.0}'))
        assert compare_against(sep, reordered) == (True, [])
        assert compare_against(sep, run(sep.csv.replace("4.0", "4"))) == (True, ["'task' changed"])

    def test_a_schema_change_skips_only_the_csv_comparison(self):
        changed = LINEAR.replace("sweep-nt/v3", "sweep-nt/v4").replace("0.5\n", "0.25\n")
        assert compare_against(run(), run(changed)) == (False, [])
        with pytest.raises(CheckFailed, match="^rank_deficient_solves reads"):
            compare_against(run(), run(changed, rank_deficient_solves={"solvers": 3, "oracle": 0}))
        with pytest.raises(CheckFailed, match="DEBUG rank-deficient lines differ"):
            compare_against(run(), run(changed, log=""))


class TestStacked:
    """A stacked run's seed rows are the one-seed runs' rows, in order."""

    ALONE = [classifier_csv("3,0.25,1.0,0.75", "mean,0.25,1.0,0.75", "std,0.0,0.0,0.0"),
             classifier_csv("11,0.5,1.0,0.75", "mean,0.5,1.0,0.75", "std,0.0,0.0,0.0")]

    def test_mean_and_std_rows_are_ignored(self):
        assert compare_stacked(CLASSIFIER, self.ALONE) == 2

    def test_a_changed_seed_row_fails(self):
        changed = [self.ALONE[0], self.ALONE[1].replace("11,0.5,", "11,0.25,")]
        with pytest.raises(CheckFailed, match="stacked and one-seed rows differ at line 2"):
            compare_stacked(CLASSIFIER, changed)

    def test_the_seed_order_counts(self):
        with pytest.raises(CheckFailed, match="differ at line 1"):
            compare_stacked(CLASSIFIER, self.ALONE[::-1])

    def test_a_missing_seed_column_or_no_rows_fails(self):
        with pytest.raises(CheckFailed, match="no seed column"):
            compare_stacked(CLASSIFIER.replace(",seed,", ",member,"), self.ALONE)
        with pytest.raises(CheckFailed, match="no seed column"):
            compare_stacked("", self.ALONE)
        header_only = "\n".join(CLASSIFIER.splitlines()[:3]) + "\n"
        with pytest.raises(CheckFailed, match="no seed rows"):
            compare_stacked(header_only, [])


class TestStackedRankCounts:
    """A stacked run counts the rank-deficient solves of all its seeds."""

    ALONE = [{"solvers": 18, "oracle": 7}] * 3

    def test_the_one_seed_counts_sum_to_the_stacked_ones(self):
        assert compare_rank_counts({"solvers": 54, "oracle": 21}, self.ALONE) == {
            "oracle": 21, "solvers": 54}
        assert compare_rank_counts({"solvers": 0, "oracle": 0}, [{}, {"solvers": 0}]) == {
            "oracle": 0, "solvers": 0}

    @pytest.mark.parametrize("stacked", [
        {"solvers": 54, "oracle": 20},
        {"solvers": 18, "oracle": 7},
        {"solvers": 54},
        {"solvers": 54, "oracle": 21, "other": 1},
    ], ids=["one-short", "one-seed", "missing-side", "extra-side"])
    def test_any_other_count_fails(self, stacked):
        with pytest.raises(CheckFailed, match=r"^rank_deficient_solves reads .* stacked, but the"
                                              r" one-seed runs sum to \{'oracle': 21"):
            compare_rank_counts(stacked, self.ALONE)

