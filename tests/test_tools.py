import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def _bench_record():
    import importlib.util
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(digest, correct=True, failed=0, **metrics):
    return {"metrics": metrics, "output_digest": digest, "correct": correct, "failed": failed}


def test_bench_record_summary_counts_wins_by_each_metrics_direction():
    summary = _bench_record()._summary
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
               {"name": "jobs_per_s", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]
    pairs = [
        # the change uses less memory and runs more jobs: a win on both
        {"parent": _side("a", peak_rss_mb=40.0, jobs_per_s=10.0),
         "change": _side("a", peak_rss_mb=30.0, jobs_per_s=12.0)},
        # more memory and fewer jobs: a loss on both
        {"parent": _side("b", peak_rss_mb=40.0, jobs_per_s=10.0),
         "change": _side("c", peak_rss_mb=41.0, jobs_per_s=9.0)},
        # a tie counts for neither side
        {"parent": _side("d", peak_rss_mb=35.0, jobs_per_s=11.0),
         "change": _side("d", peak_rss_mb=35.0, jobs_per_s=11.0)},
        # a failed run leaves its pair out of every count
        {"parent": {"error": "exit 1"},
         "change": _side("e", peak_rss_mb=1.0, jobs_per_s=99.0)},
    ]
    out = summary(pairs, metrics)
    assert (out["pairs"], out["errors"], out["digests_equal"]) == (3, 1, 2)
    assert out["peak_rss_mb"]["better"] == "lower"
    assert out["peak_rss_mb"]["change_better_pairs"] == 1
    assert out["jobs_per_s"]["change_better_pairs"] == 1
    assert out["peak_rss_mb"]["parent"] == {"median": 40.0, "q1": 35.0, "q3": 40.0}
    assert out["jobs_per_s"]["change"]["median"] == 11.0
    assert "setup_s" not in out  # a metric no run reported is left out

    # the two directions are read separately: lower memory and fewer jobs
    mixed = [{"parent": _side("x", peak_rss_mb=40.0, jobs_per_s=10.0),
              "change": _side("y", peak_rss_mb=30.0, jobs_per_s=9.0)}]
    out = summary(mixed, metrics)
    assert out["peak_rss_mb"]["change_better_pairs"] == 1
    assert out["jobs_per_s"]["change_better_pairs"] == 0
    assert out["digests_equal"] == 0


def test_bench_record_fails_a_run_that_reports_wrong_outputs(tmp_path, monkeypatch, capsys):
    # `perfbench/run.py` exits 0 with "correct": false when jobs fail; the
    # recorder once counted only runs that exited non-zero, and returned 0
    module = _bench_record()
    parent = tmp_path / "parent"
    parent.mkdir()
    subprocess.run(["git", "init", "-q", str(parent)], check=True)
    wrong = set()

    def run(checkout, workload, seed, seconds):
        bad = ("change" if checkout == module.HERE else "parent", seed) in wrong
        return {**_side("d", correct=not bad, failed=3 * bad, jobs_per_s=10.0),
                "attempted": 9, "git_sha": "", "src_sha256": ""}

    monkeypatch.setattr(module, "_run", run)
    monkeypatch.setattr(module, "_bytecode_caches", lambda checkout: [])
    argv = ["--parent", str(parent), "--workloads", "exact_small", "--seeds", "1-3",
            "--out", str(tmp_path / "bench.json")]

    def summary():
        doc = json.loads((tmp_path / "bench.json").read_text())
        return doc["workloads"]["exact_small"]["summary"]

    assert module.main(argv) == 0
    assert summary()["incorrect"] == {"parent": 0, "change": 0}

    wrong.add(("change", 2))  # the change's run on seed 2 fails three jobs
    assert module.main(argv) == 1
    assert "not correct" in capsys.readouterr().err
    out = summary()
    assert (out["errors"], out["pairs"]) == (0, 3)
    assert out["incorrect"] == {"parent": 0, "change": 1}
    assert out["failed_jobs"] == {"parent": 0, "change": 3}


def test_bench_record_summary_counts_incorrect_runs_per_side():
    metrics = [{"name": "jobs_per_s", "better": "higher", "bound": 0.25}]
    pairs = [
        {"parent": _side("a", correct=False, failed=2, jobs_per_s=10.0),
         "change": _side("a", jobs_per_s=10.0)},
        {"parent": _side("b", jobs_per_s=10.0),
         "change": _side("b", correct=False, failed=1, jobs_per_s=10.0)},
        # the parent's run did not finish: the pair is an error, and only
        # the change's run is counted
        {"parent": {"error": "exit 1"},
         "change": _side("c", correct=False, failed=5, jobs_per_s=10.0)},
    ]
    out = _bench_record()._summary(pairs, metrics)
    assert (out["pairs"], out["errors"]) == (2, 1)
    assert out["incorrect"] == {"parent": 1, "change": 2}
    assert out["failed_jobs"] == {"parent": 2, "change": 6}


_PARENT_SETUP_S = [1.2, 1.3, 1.3, 1.4, 1.5, 1.6, 1.9, 2.0, 2.0, 2.1]
_PARENT_JOBS = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


@pytest.mark.parametrize("name,better,parent,change,verdict", [
    # the parent's quartiles 1.30-2.00 s spread past 0.25 of its median, and
    # some change run reads worse than some parent run: +30 % tells nothing
    ("setup_s", "lower", _PARENT_SETUP_S, [1.3 * x for x in _PARENT_SETUP_S], "unresolved"),
    # as wide, but every change run beats every parent run
    ("setup_s", "lower", _PARENT_SETUP_S, [x - 1.0 for x in _PARENT_SETUP_S], "better"),
    # 30 % fewer jobs a second, past the 0.25 bound
    ("jobs_per_s", "higher", _PARENT_JOBS, [0.7 * x for x in _PARENT_JOBS], "worse"),
    # 9 of 10 pairs won, and the medians 0.7 apart against quartiles 0.55 apart
    ("jobs_per_s", "higher", _PARENT_JOBS, [x + 0.8 for x in _PARENT_JOBS[:9]] + [10.0],
     "better"),
    # every pair won, but by less than the parent's quartile distance
    ("jobs_per_s", "higher", _PARENT_JOBS, [x + 0.1 for x in _PARENT_JOBS], "held"),
    # 10 % worse is within the bound
    ("jobs_per_s", "higher", _PARENT_JOBS, [0.9 * x for x in _PARENT_JOBS], "held"),
], ids=["unresolved", "better-past-a-wide-spread", "worse", "better", "held-small-gain",
        "held-within-bound"])
def test_bench_record_summary_states_a_verdict_per_metric(name, better, parent, change,
                                                           verdict):
    pairs = [{"parent": _side("d", **{name: x}), "change": _side("d", **{name: y})}
             for x, y in zip(parent, change)]
    out = _bench_record()._summary(pairs, [{"name": name, "better": better, "bound": 0.25}])
    assert out[name]["verdict"] == verdict


def test_bench_record_prints_every_verdict_but_held(tmp_path, monkeypatch, capsys):
    module = _bench_record()
    parent = tmp_path / "parent"
    parent.mkdir()
    subprocess.run(["git", "init", "-q", str(parent)], check=True)

    def run(checkout, workload, seed, seconds):
        slow = 0.5 if checkout == module.HERE else 1.0
        return {**_side("d", jobs_per_s=10.0 * slow, peak_rss_mb=40.0),
                "attempted": 9, "git_sha": "", "src_sha256": ""}

    monkeypatch.setattr(module, "_run", run)
    monkeypatch.setattr(module, "_bytecode_caches", lambda checkout: [])
    assert module.main(["--parent", str(parent), "--workloads", "exact_small",
                        "--seeds", "1-3", "--out", str(tmp_path / "bench.json")]) == 0
    err = capsys.readouterr().err
    assert "exact_small jobs_per_s: worse (median 10 -> 5" in err
    assert "peak_rss_mb" not in err


_RESULT_LINES = (json.dumps({"detail": {"output_digest": "d",
                                        "meta": {"git_sha": "", "src_sha256": ""}}}) + "\n"
                 + json.dumps({"metrics": {"jobs_per_s": {"value": 10.0}}, "correct": True,
                               "failed": 0, "attempted": 9}) + "\n")


def _record_with_faked_runs(tmp_path, monkeypatch, outcomes):
    """main() over seeds 1-2 with `subprocess.run` faked for the harness
    runs (git still runs): the k-th run raises outcomes[k] if it is an
    exception and prints it as stdout otherwise, or prints a good result."""
    module = _bench_record()
    parent = tmp_path / "parent"
    parent.mkdir()
    subprocess.run(["git", "init", "-q", str(parent)], check=True)
    real = subprocess.run
    runs = []

    def fake(cmd, **kw):
        if cmd[0] == "git":
            return real(cmd, **kw)
        runs.append(cmd)
        outcome = outcomes.get(len(runs), _RESULT_LINES)
        if isinstance(outcome, Exception):
            raise outcome
        return subprocess.CompletedProcess(cmd, 0, stdout=outcome, stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake)
    monkeypatch.setattr(module, "_bytecode_caches", lambda checkout: [])
    out = tmp_path / "bench.json"
    code = module.main(["--parent", str(parent), "--workloads", "exact_small",
                        "--seeds", "1-2", "--out", str(out)])
    assert len(runs) == 4
    return code, json.loads(out.read_text())["workloads"]["exact_small"]


def test_bench_record_keeps_the_recording_when_a_run_times_out(tmp_path, monkeypatch):
    # the timeout once ended main with a traceback, and the finished first
    # pair was lost with the file
    hang = subprocess.TimeoutExpired(["perfbench/run.py"], 1800)
    code, workload = _record_with_faked_runs(tmp_path, monkeypatch, {3: hang})
    assert code == 1
    assert (workload["summary"]["pairs"], workload["summary"]["errors"]) == (1, 1)
    first, second = workload["pairs"]
    assert first["parent"]["output_digest"] == first["change"]["output_digest"] == "d"
    # seed 2 runs the change first, so the third run is the change's
    assert second["change"] == {"error": "timed out after 1800 s"}
    assert second["parent"]["metrics"] == {"jobs_per_s": 10.0}


@pytest.mark.parametrize("stdout", [
    "Traceback (most recent call last):\nSomeError: boom\n",
    '{"detail": {}}\n{"metrics": {}}\n',
    "[1]\n[2]\n",
], ids=["not-json", "missing-keys", "not-objects"])
def test_bench_record_counts_an_unreadable_result_as_an_error(tmp_path, monkeypatch,
                                                               stdout):
    code, workload = _record_with_faked_runs(tmp_path, monkeypatch, {2: stdout})
    assert code == 1
    assert (workload["summary"]["pairs"], workload["summary"]["errors"]) == (1, 1)
    assert workload["pairs"][0]["change"]["error"].startswith("unreadable result")


def test_bench_record_refuses_an_empty_seed_list(tmp_path, capsys):
    # "5-1" once gave no seeds, an empty BENCH file and exit 0
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as e:
        _bench_record().main(["--parent", str(tmp_path), "--workloads", "exact_small",
                              "--seeds", "5-1", "--out", str(out)])
    assert e.value.code == 2
    assert "'5-1' names no seed" in capsys.readouterr().err
    assert not out.exists()


def _counting_runs(module, monkeypatch):
    """Fake `_run` with a good result, and return the list it appends each
    (workload, seed) to."""
    runs = []

    def run(checkout, workload, seed, seconds):
        runs.append((workload, seed))
        return {**_side("d", jobs_per_s=10.0), "attempted": 9, "git_sha": "", "src_sha256": ""}

    monkeypatch.setattr(module, "_run", run)
    monkeypatch.setattr(module, "_bytecode_caches", lambda checkout: [])
    return runs


def test_bench_record_refuses_an_unknown_workload_before_running(tmp_path, monkeypatch,
                                                                 capsys):
    # "bogus" once ran 2 x seeds harness runs that all failed, wrote a BENCH
    # file and exited 1
    module = _bench_record()
    parent = tmp_path / "parent"
    parent.mkdir()
    subprocess.run(["git", "init", "-q", str(parent)], check=True)
    runs = _counting_runs(module, monkeypatch)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as e:
        module.main(["--parent", str(parent), "--workloads", "exact_small,bogus",
                     "--seeds", "1-2", "--out", str(out)])
    assert e.value.code == 2
    assert "unknown workload(s) bogus" in capsys.readouterr().err
    assert runs == [] and not out.exists()


def test_bench_record_calls_digests_equal_only_when_both_runs_finished(tmp_path,
                                                                       monkeypatch, capsys):
    # both runs of seed 1 fail; their missing digests once compared equal
    hang = subprocess.TimeoutExpired(["perfbench/run.py"], 1800)
    code, workload = _record_with_faked_runs(tmp_path, monkeypatch, {1: hang, 2: hang})
    assert code == 1
    err = capsys.readouterr().err
    lines = {line.split(":")[0]: line for line in err.splitlines() if " seed " in line}
    assert lines["exact_small seed 1"].endswith("digests equal: False")
    assert lines["exact_small seed 2"].endswith("digests equal: True")


def test_bench_record_refuses_a_checkout_another_recording_holds(tmp_path, monkeypatch,
                                                                 capsys):
    # the harness works in one fixed directory per checkout, so a second
    # recording from it would delete the first one's files
    import fcntl
    import os
    module = _bench_record()
    parent = tmp_path / "parent"
    parent.mkdir()
    subprocess.run(["git", "init", "-q", str(parent)], check=True)
    runs = _counting_runs(module, monkeypatch)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(parent), "--workloads", "exact_small", "--seeds", "1",
            "--out", str(out)]
    held = os.open(parent, os.O_RDONLY)
    try:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert module.main(argv) == 2
    finally:
        os.close(held)
    assert f"another recording holds {parent}" in capsys.readouterr().err
    assert runs == [] and not out.exists()
    # once the lock is released, the recording runs, and it releases both
    # checkouts when it ends
    assert module.main(argv) == 0
    assert len(runs) == 2
    assert module.main(argv) == 0


def test_bench_record_runs_a_checkout_against_itself(tmp_path, monkeypatch):
    # a recording of one checkout on both sides measures the host's noise;
    # it takes the checkout's lock once
    import shutil
    module = _bench_record()
    here = tmp_path / "here"
    here.mkdir()
    subprocess.run(["git", "init", "-q", str(here)], check=True)
    shutil.copy(ROOT / "BENCHMARK.json", here)
    monkeypatch.setattr(module, "HERE", here)
    runs = _counting_runs(module, monkeypatch)
    assert module.main(["--parent", str(here), "--workloads", "exact_small", "--seeds", "1-2",
                        "--out", str(tmp_path / "bench.json")]) == 0
    assert len(runs) == 4
