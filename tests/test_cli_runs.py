"""The table of documented CLI runs in `cli_runs.py`, which CI runs in full."""
import pytest

from afrelay import harness
from afrelay.cli import _build_parser, main
from cli_runs import CASES, runs


def test_case_names_are_unique():
    names = [case.name for case in CASES]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("case", [c for c in CASES if c.workers], ids=lambda c: c.name)
def test_each_workers_run_spans_more_blocks_than_workers(case, tmp_path):
    # a run of W workers is split into at most W block ranges, so W + 1
    # blocks give some range two, the last block short or not
    assert case.workers[0] == 1
    for argv, _, _ in runs(case, tmp_path)[0]:
        args = _build_parser().parse_args(argv)
        cfg = harness.load_config(args.config)
        blocks = -(-(args.trials or cfg.trials) // harness.block_size(cfg.ofdm))
        assert blocks >= args.workers + 1


@pytest.mark.parametrize("case", [c for c in CASES if c.exit], ids=lambda c: c.name)
def test_failing_cases_exit_with_their_code_and_write_no_csv(case, tmp_path):
    for group in runs(case, tmp_path):
        for argv, _, out in group:
            assert main(argv) == case.exit
            assert not out.exists()
