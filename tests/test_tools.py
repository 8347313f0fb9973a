import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_record_refuses_a_side_with_bytecode_caches(tmp_path):
    # a valid cache lets one side skip compiling, so the recorder stops
    # before it runs anything, and names the cache
    parent = tmp_path / "parent"
    (parent / "src" / "sparsekit" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--parent", str(parent),
         "--workloads", "exact_small", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "src/sparsekit/__pycache__" in proc.stderr
    assert not out.exists()


def test_bench_record_refuses_a_parent_that_is_no_git_checkout(tmp_path):
    # an exported tree (`git archive`) has no commit to record; the file once
    # named its parent as ""
    parent = tmp_path / "parent"
    (parent / "src" / "sparsekit").mkdir(parents=True)
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--parent", str(parent),
         "--workloads", "exact_small", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "git clone" in proc.stderr
    assert not out.exists()
