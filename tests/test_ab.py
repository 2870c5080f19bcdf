import contextlib
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_quartiles_interpolate_inclusively():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pairs_won_follow_the_better_direction_and_ties_count_for_neither():
    before = [10.0, 10.0, 10.0, 10.0]
    after = [9.0, 10.0, 11.0, 8.0]
    assert ab.pairs_won(before, after, "lower") == 2
    assert ab.pairs_won(before, after, "higher") == 1


@pytest.mark.parametrize("better, after, worse", [
    ("lower", 125.0, False),  # exactly at the bound
    ("lower", 125.1, True),
    ("lower", 50.0, False),
    ("higher", 75.0, False),
    ("higher", 74.9, True),
    ("higher", 200.0, False),
])
def test_worse_beyond_bound_is_relative_to_the_before_median(better, after, worse):
    assert ab.worse_beyond_bound(100.0, after, better, 0.25) is worse


def test_table_has_one_row_per_metric_with_its_statistics():
    metrics = [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.08},
        {"name": "train_examples_per_s", "unit": "examples/s", "better": "higher", "bound": 0.25},
    ]
    before = [{"peak_rss_mb": v, "train_examples_per_s": t}
              for v, t in [(145.0, 220.0), (144.8, 240.0), (144.9, 260.0)]]
    after = [{"peak_rss_mb": v, "train_examples_per_s": t}
             for v, t in [(122.5, 250.0), (122.6, 240.0), (160.0, 150.0)]]
    header, rule, rss, train = ab.table(metrics, before, after, "parent")
    assert header.count("|") == rule.count("|") == rss.count("|") == train.count("|") == 7
    assert rss == ("| peak_rss_mb (MB, lower is better) | 144.9 [144.85, 144.95] "
                   "| 122.6 [122.55, 141.3] | 2 of 3 | 0.1 | no (bound 8%) |")
    assert train == ("| train_examples_per_s (examples/s, higher is better) | 240 [230, 250] "
                     "| 240 [195, 245] | 1 of 3 | 20 | no (bound 25%) |")


WITNESS_DIFF = """\
--- parent
+++ this tree
@@ -1,5 +1,5 @@
 {"host": {"cpu_count": 2, "OPENBLAS_NUM_THREADS": null}}
-{"variant": "graph_attention", "hidden_dim": 48, "checkpoint_arrays_sha256": "cc"}
+{"variant": "graph_attention", "hidden_dim": 48, "checkpoint_arrays_sha256": "dd"}
-{"variant": "transformer", "hidden_dim": 48, "checkpoint_arrays_sha256": "aa"}
+{"variant": "transformer", "hidden_dim": 48, "checkpoint_arrays_sha256": "bb"}
 {"degeneracy": {"max_loop_deviation": "0x0.0p+0"}}
-{"gradcheck": {"transformer": "0x1.0p-30"}}
+{"gradcheck": {"transformer": "0x1.8p-30"}}
""".splitlines(keepends=True)


def test_an_empty_witness_diff_moves_nothing():
    assert ab.undeclared_moves([], []) == []
    assert ab.undeclared_moves([], ['{"gradcheck"']) == []


def test_every_moved_witness_line_is_undeclared_without_declarations():
    assert ab.undeclared_moves(WITNESS_DIFF, []) == WITNESS_DIFF[4:8] + WITNESS_DIFF[9:]


@pytest.mark.parametrize("declared, undeclared", [
    (['{"gradcheck"'], [4, 5, 6, 7]),
    (['{"variant"'], [9, 10]),
    (['{"variant"', '{"gradcheck"'], []),
    (['{"degeneracy"', '{"host"'], [4, 5, 6, 7, 9, 10]),  # context lines did not move
    ([WITNESS_DIFF[6][1:]], [4, 5, 7, 9, 10]),  # a whole line pins one side
    (['{"variant": "transformer"'], [4, 5, 9, 10]),  # one model's lines
])
def test_declared_prefixes_let_only_their_lines_move(declared, undeclared):
    assert ab.undeclared_moves(WITNESS_DIFF, declared) == [WITNESS_DIFF[i] for i in undeclared]


def test_the_diff_headers_are_not_moves():
    assert ab.undeclared_moves(WITNESS_DIFF[:3], []) == []


def _is_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True)
    return top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT


@pytest.mark.skipif(not _is_git_checkout(), reason="the repository is not a git checkout")
@pytest.mark.parametrize("running", [
    "**/scripts/bit_witness.py",  # the revision is being extracted, or was
    "*/tmp*",  # the revision's witness runs and has made its temporary directory
])
def test_sigterm_leaves_no_checkout_and_no_child(tmp_path, running):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "bit_witness.py"), "--against", "HEAD"],
        env={**os.environ, "TMPDIR": str(tmpdir)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not any(tmpdir.glob(running)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(tmpdir.iterdir()) == []
    children = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        with contextlib.suppress(OSError):
            if str(tmpdir).encode() in cmdline.read_bytes():
                children.append(cmdline)
    assert children == []
