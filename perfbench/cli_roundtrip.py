"""cli_roundtrip: one fresh `python -m sparsekit.cli` process per job, over
every command, on fixed small and medium inputs.

Set-up writes an edge-list file, a DIMACS file and a sweep config into the
work directory; the other inputs are inline generator specs.  Each
certificate-producing command writes `--out`, and the next job reads it back
with `verify` or `game --replay`.  Paths are relative to the checkout, so the
outputs do not depend on where it lives.

A job's time is the CPU time (user + system) of its CLI process, not its
wall time: on a shared host the wall time of a short process also holds the
waits for a CPU and the time the host takes away.  The two agree within a
few per cent when the machine is idle; the wall times are in the run's
detail line.  The CPU time is then rescaled to a reference speed, as the
in-process workloads' times are, but the probe is a reference process
(REFERENCE_CODE): the host's speed swings move a process start, with its
page faults and compiling, more than they move a small in-process loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

from sparsekit import generate, parse_edge_list, read_dimacs, write_edge_list

from common import child_env, dimacs_text, emit
from speed import Speed

TIMEOUT_S = 120
# Put on the CLI processes' PYTHONPATH: reports each one's peak RSS.
HOOK_DIR = Path(__file__).resolve().parent / "childhook"
PEAK_PREFIX = "perfbench-peak-rss-kb "


def children_cpu_s() -> float:
    """CPU time (user + system) of every child process that has ended and
    been waited for.  Jobs run one process at a time, so the difference
    around a job is that job's process."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


JOB_CLOCK = children_cpu_s


# The reference process: an interpreter start, the standard-library imports
# the CLI makes, and compiling and running a generated module.  It never
# imports sparsekit, so a change to the library does not move it.
REFERENCE_CODE = """\
import argparse, dataclasses, hashlib, json, math
from collections import deque
src = []
for i in range(100):
    src += [f"def f{i}(adj, s):", "    dist = {s: 0}", "    q = deque([s])",
            "    while q:", "        u = q.popleft()", "        for w in adj[u]:",
            "            if w not in dist:", "                dist[w] = dist[u] + 1",
            "                q.append(w)", f"    return sum(dist.values()) + {i}", ""]
ns = {"deque": deque}
exec(compile("\\n".join(src), "<reference>", "exec"), ns)
for i in range(10):
    dataclasses.make_dataclass(f"C{i}", [("a", int), ("b", list)])
adj = [[(v * 7 + k) % 2000 for k in (1, 2, 3)] for v in range(2000)]
total = sum(ns[f"f{i}"](adj, i) for i in range(5))
"""
# A round value near the reference process's CPU time on the machine the
# benchmark was built on (Intel Xeon vCPU, CPython 3.11) in its quieter
# spells.  It only scales every reported job time.
REFERENCE_CPU_S = 0.08
# Longest gap between reference processes while jobs run.
PROBE_EVERY_S = 1.0


def make_speed() -> Speed:
    """A speed probe that times REFERENCE_CODE in a fresh process, started
    as the jobs' processes are."""
    argv = [sys.executable, "-c", REFERENCE_CODE]
    env = child_env(os.getcwd(), str(HOOK_DIR))

    def probe() -> float:
        c0 = children_cpu_s()
        subprocess.run(argv, env=env, capture_output=True, check=True, timeout=TIMEOUT_S)
        return children_cpu_s() - c0

    return Speed(probe, REFERENCE_CPU_S, every_s=PROBE_EVERY_S, warmup=2)


def peak_rss_kb() -> int:
    """The largest peak RSS over every CLI process run so far."""
    return CliJob.peak_rss_kb


def _spec(**kw) -> str:
    return json.dumps(kw, sort_keys=True)


GRID3 = _spec(family="grid", rows=3, cols=3)
K4 = _spec(family="complete", n=4)
DOMINATION_FORMULA = ("exists x1 . exists x2 . forall y . "
                      "y = x1 | y = x2 | E(y,x1) | E(y,x2)")
SENTENCE = json.dumps({"k": 2, "r": 1, "chi": "exists y within 1 of x . E(x,y)"})


class CliJob:
    """One invocation with its expected exit code.  `verify` and `--replay`
    jobs must also report a clean certificate."""

    peak_rss_kb = 0

    def __init__(self, argv: list, expect: int, root: str, env: dict):
        self.argv = argv
        self.expect = expect
        self.root = root
        self.env = env

    def __call__(self, tr, state):
        proc = tr.call("cli.process", subprocess.run,
                       [sys.executable, "-m", "sparsekit.cli", *self.argv],
                       cwd=self.root, env=self.env, capture_output=True, text=True,
                       timeout=TIMEOUT_S)
        text, problems = self._check(tr, proc.returncode, proc.stdout, count_handler=True)
        last = proc.stderr.rstrip("\n").rpartition("\n")[2]
        if last.startswith(PEAK_PREFIX):
            CliJob.peak_rss_kb = max(CliJob.peak_rss_kb, int(last[len(PEAK_PREFIX):]))
        else:
            problems.append(("bench", f"{self.argv[0]} reported no peak RSS"))
        return text, problems

    def in_process(self, tr, run):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tr.call("cli.run", run, list(self.argv))
        return self._check(tr, code, out.getvalue(), count_handler=False)

    def _check(self, tr, code: int, stdout: str, count_handler: bool):
        problems = []
        if code != self.expect:
            problems.append(("cli", f"{self.argv[0]} exited {code}, expected {self.expect}"))
        try:
            doc = json.loads(stdout)
        except ValueError:
            problems.append(("cli", f"{self.argv[0]} printed no JSON document"))
            return "", problems
        if count_handler:
            tr.count("cli.handler_s", doc["wall_time_s"])
        if doc["command"] != self.argv[0]:
            problems.append(("cli", f"envelope names command {doc['command']!r}"))
        if self.expect == 0 and doc["error"] is not None:
            problems.append(("cli", f"{self.argv[0]} error {doc['error']}"))
        result = doc["result"] or {}
        if self.argv[0] == "verify" and result.get("ok") is not True:
            problems.append(("cli", f"verify {self.argv[1]}: {result.get('violations')}"))
        if "--replay" in self.argv and result.get("violations") != []:
            problems.append(("cli", f"replay: {result.get('violations')}"))
        record = {"exit": code, "result": doc["result"],
                  "certificate": doc["certificate"], "error": doc["error"]}
        return json.dumps(record, sort_keys=True), problems


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def setup(seed: int, tr, workdir: str):
    """workdir is relative to the checkout root, which is the working directory."""
    rng = random.Random(seed)
    gnd = _spec(family="gnd", n=200, d=3.0, seed=rng.randrange(2 ** 32))
    tree = _spec(family="random_tree", n=150, seed=rng.randrange(2 ** 32))
    gen_tree = _spec(family="random_tree", n=40, seed=rng.randrange(2 ** 32))
    density_seed = str(rng.randrange(2 ** 32))
    sweep_seed = rng.randrange(2 ** 32)

    w = workdir
    edges_path, dimacs_path, sweep_path = f"{w}/gnd200.txt", f"{w}/tree150.dimacs", f"{w}/sweep.json"
    g = tr.call("graphio.generate", generate, json.loads(gnd))
    text = tr.call("graphio.write_edge_list", write_edge_list, g)
    if sorted(tr.call("graphio.parse_edge_list", parse_edge_list, text).edges()) != sorted(g.edges()):
        raise RuntimeError("edge-list round trip changed the edges")
    _write(edges_path, text)
    g = tr.call("graphio.generate", generate, json.loads(tree))
    text = dimacs_text(g)
    back = tr.call("graphio.read_dimacs", read_dimacs, text)
    if back.n != g.n or sorted(back.edges()) != sorted(g.edges()):
        raise RuntimeError("DIMACS round trip changed the graph")
    _write(dimacs_path, text)
    sweep = {
        "families": [{"name": "gnd", "spec": {"family": "gnd", "n": 60, "d": 3.0, "seed": sweep_seed}},
                     {"name": "tree", "spec": {"family": "random_tree", "n": 60, "seed": sweep_seed}},
                     {"name": "grid", "spec": {"family": "grid", "rows": 6, "cols": 6}}],
        "r": [1, 2],
        "operations": ["wcol", "cover", "partition", "density"],
        "seed": sweep_seed,
    }
    _write(sweep_path, emit(tr, sweep))

    def out(name):
        return ["--out", f"{w}/{name}.json"]

    def verify(name, graph):
        return (["verify", f"{w}/{name}.json", "--graph", graph], 0)

    grid34 = _spec(family="grid", rows=3, cols=4)
    k4_sub = _spec(family="subdivision", base=json.loads(K4), r=1)
    grid6 = _spec(family="grid", rows=6, cols=6)
    cycle6 = _spec(family="cycle", n=6)
    path64 = _spec(family="path", n=64)
    grid4 = _spec(family="grid", rows=4, cols=4)
    path8 = _spec(family="path", n=8)
    invocations = [
        (["gen", gen_tree, "--to", f"{w}/gen_tree.txt"], 0),
        (["wcol", GRID3, "--r", "2", "--mode", "exact", *out("wcol_exact")], 0),
        verify("wcol_exact", GRID3),
        (["wcol", edges_path, "--r", "2", *out("wcol_heuristic")], 0),
        verify("wcol_heuristic", edges_path),
        (["col", dimacs_path, *out("col")], 0),
        verify("col", dimacs_path),
        (["treedepth", grid34, *out("treedepth")], 0),
        verify("treedepth", grid34),
        (["minor", k4_sub, "--pattern", K4, "--r", "1", "--expect", *out("minor")], 0),
        verify("minor", k4_sub),
        (["minor", path8, "--pattern", K4, "--r", "1", "--expect"], 1),
        (["density", edges_path, "--r", "1", "--seed", density_seed, "--budget", "50",
          *out("density")], 0),
        verify("density", edges_path),
        (["game", grid6, "--kind", "splitter", "--r", "1", *out("game_splitter")], 0),
        (["game", grid6, "--replay", f"{w}/game_splitter.json"], 0),
        (["game", cycle6, "--kind", "treedepth", "--splitter", "exhaustive",
          "--connector", "exhaustive", "--rounds", "8", *out("game_treedepth")], 0),
        (["game", cycle6, "--replay", f"{w}/game_treedepth.json"], 0),
        (["uqw", path64, "--r", "2", "--m", "2", *out("uqw")], 0),
        verify("uqw", path64),
        (["separator", dimacs_path, "--r", "1", "--eps", "0.2", *out("separator")], 0),
        verify("separator", dimacs_path),
        (["cover", edges_path, "--r", "2", "--order", "greedy", *out("cover")], 0),
        verify("cover", edges_path),
        (["partition", dimacs_path, "--r", "1", *out("partition")], 0),
        verify("partition", dimacs_path),
        (["eval", _spec(family="cycle", n=5), "--formula", DOMINATION_FORMULA, "--expect"], 0),
        (["eval", grid4, "--sentence", SENTENCE, "--expect", *out("eval")], 0),
        verify("eval", grid4),
        (["solve", path8, "--problem", "independent", "--r", "2", "--k", "3", "--expect",
          *out("independent")], 0),
        verify("independent", path8),
        (["solve", edges_path, "--problem", "dominating", "--r", "1", "--mode", "greedy",
          *out("dominating")], 0),
        verify("dominating", edges_path),
        (["solve", _spec(family="cycle", n=9), "--problem", "dominating", "--r", "1"], 0),
        (["sweep", sweep_path], 0),
    ]
    root = os.getcwd()
    env = child_env(root, str(HOOK_DIR))
    return [(f"{i:02d}:{argv[0]}", CliJob(argv, expect, root, env))
            for i, (argv, expect) in enumerate(invocations)]


def replay_in_process(tr, jobs) -> list:
    """Run the same argv list through `cli.run` in this process; returns
    (job id, problems) per job."""
    from sparsekit.cli import run
    return [(job_id, job.in_process(tr, run)[1]) for job_id, job in jobs]
