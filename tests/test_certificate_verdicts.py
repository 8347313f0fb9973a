"""Verdict pin for every certificate kind, run in-process through `cli.run`.

Each certificate-writing command runs once with `--out`; its document is
pinned, and its certificate is verified against its own graph and against
P8, the full `--out` document is verified too, and transcripts are also
replayed.  Then every key of the certificate, and every key one level down,
is forged one at a time: dropped, set to true / 1.5 / "x" / -1 / [] / 0, an
integer raised by one, a list shortened or its first item repeated.  Each
forgery is verified against the certificate's own graph, and a transcript
whose rounds are forged is also replayed.

The pin holds, per case, the exit code and two sha256 prefixes of
(exit code, envelope without `wall_time_s`): one of the envelope as it is,
one with the error message blanked.  Its `verdicts` were taken at commit
e769649, before the certificate kinds moved into the library.  A case may
differ from them only in two ways.  When both exits are 2, the error message
alone may change: a malformed certificate is still refused, in other words.
Otherwise the case matches a pattern of `DECLARED`, which says why, and its
verdict now is pinned under `changed`.

From the repository root, `PYTHONPATH=src python tests/test_certificate_verdicts.py`
re-takes the whole pin, and with `--declare` it records under `changed` the
current verdict of every case that differs and matches `DECLARED`, and
refuses (exit 1) when some other case differs.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import sparsekit.cli as cli

PIN = Path(__file__).resolve().parent / "certificate_verdicts.json"

P8 = '{"family":"path","n":8}'
C6 = '{"family":"cycle","n":6}'
C7 = '{"family":"cycle","n":7}'
GRID = '{"family":"grid","rows":3,"cols":3}'
GND = '{"family":"gnd","n":12,"d":3.0,"seed":1}'
STAR = '{"family":"star","n":10}'
K3 = '{"family":"complete","n":3}'

# name -> (argv without --out, the graph the certificate talks about)
WRITERS = {
    "wcol_exact": (["wcol", GRID, "--r", "2", "--mode", "exact"], GRID),
    "wcol_greedy": (["wcol", GND, "--r", "2", "--order", "greedy"], GND),
    "col": (["col", C7], C7),
    "treedepth": (["treedepth", GRID], GRID),
    "minor": (["minor", C7, "--pattern", K3, "--r", "1"], C7),
    "density": (["density", GRID, "--r", "1", "--seed", "3"], GRID),
    "game_splitter": (["game", GRID, "--kind", "splitter", "--r", "1"], GRID),
    "game_treedepth": (["game", C6, "--kind", "treedepth", "--splitter", "exhaustive",
                        "--connector", "exhaustive", "--rounds", "8"], C6),
    "uqw_extract": (["uqw", P8, "--r", "2", "--m", "2"], P8),
    "uqw_brute": (["uqw", STAR, "--r", "1", "--m", "3", "--mode", "brute"], STAR),
    "separator": (["separator", STAR, "--r", "1", "--eps", "0.5"], STAR),
    "cover": (["cover", GRID, "--r", "1"], GRID),
    "partition": (["partition", C7, "--r", "1"], C7),
    "eval_sentence": (["eval", C7, "--sentence", '{"k":2,"r":1,"chi":"true"}'], C7),
    "eval_marked": (["eval", P8, "--sentence", '{"k":2,"r":1,"chi":"P(x)"}',
                     "--marked", "1,6"], P8),
    "independent": (["solve", P8, "--problem", "independent", "--r", "2", "--k", "3"], P8),
    "dominating": (["solve", C7, "--problem", "dominating", "--r", "1"], C7),
    "dominating_greedy": (["solve", GND, "--problem", "dominating", "--r", "1",
                           "--mode", "greedy"], GND),
}

FILLERS = (("true", True), ("1.5", 1.5), ("x", "x"), ("-1", -1), ("[]", []), ("0", 0))

# verdicts changed on purpose since the pin: (case pattern, why)
DECLARED = (
    (r"/kind=\[\]", "an unhashable kind was a TypeError (exit 4); it is an unknown "
     "kind now (exit 2)"),
    (r"/(r|config\.radius)=1\.5", "BFS stopped only at a radius it met exactly, so "
     "a fractional radius had no cap; 1.5 now reaches what 1 does"),
    (r"/r=(-1|x|\[\])", "BFS now refuses a negative radius, and a radius that is "
     "no number is malformed (exit 2)"),
    (r"^density/(model\.)?depth", "the density check compares the report's depth "
     "with its model's, and needs the depth"),
    (r"^eval_\w+/(sentence\.)?(k|r)\W", "a sentence witness's k and r must be the "
     "sentence's k and 2r"),
    (r"^eval_\w+/sentence\.chi=\[\]", "the tokenizer read an empty list as empty "
     "text (formula_parse); a chi that is no string is malformed (precondition)"),
    (r"^(minor|density)/h\.(n=(1\.5|x|\[\])|edges=x)$", "a graph h whose vertex count or "
     "edge endpoint is no JSON integer is refused as graph input (graph_input), not "
     "when the graph is built (precondition)"),
)


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    doc = json.loads(out.getvalue())
    del doc["wall_time_s"]
    return code, doc


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _verdict(code: int, doc: dict) -> list:
    blank = dict(doc)
    if blank["error"] is not None:
        blank["error"] = {**blank["error"], "message": None}
    return [code, _sha([code, doc]), _sha([code, blank])]


def _forgeries(cert: dict):
    """(label, forged certificate) pairs, one key changed at a time."""
    paths = []
    for k, v in cert.items():
        paths.append((k,))
        if isinstance(v, dict):
            paths += [(k, k2) for k2 in v]
    for path in paths:
        *head, last = path
        value = cert
        for k in head:
            value = value[k]
        value = value[last]
        variants = [("drop", None)] + [(f"={label}", v) for label, v in FILLERS]
        if type(value) is int:
            variants.append(("+1", value + 1))
        if isinstance(value, list) and value:
            variants += [("shortened", value[:-1]), ("duplicated", value + value[:1])]
        for label, new in variants:
            forged = json.loads(json.dumps(cert))
            inner = forged
            for k in head:
                inner = inner[k]
            if label == "drop":
                del inner[last]
            else:
                inner[last] = new
            yield ".".join(path) + label, forged


def collect() -> tuple:
    """({writer: sha of its --out document}, {case: verdict}), run in the
    current directory, which the cases write their files into.  The runs
    share one parser: building it is most of the cost of a run."""
    parser = cli.build_parser()
    with mock.patch.object(cli, "build_parser", lambda: parser):
        return _collect()


def _collect() -> tuple:
    outs, verdicts = {}, {}
    for name, (argv, graph) in WRITERS.items():
        code, doc = _run([*argv, "--out", "out.json"])
        assert code == 0 and doc["certificate"] is not None, (name, doc)
        saved = json.loads(Path("out.json").read_text())
        del saved["wall_time_s"]
        outs[name] = _sha(saved)
        cert = doc["certificate"]

        def check(case, document, against, replay=False):
            Path("cert.json").write_text(json.dumps(document))
            verdicts[f"{name}/{case}"] = _verdict(
                *_run(["verify", "cert.json", "--graph", against]))
            if replay:
                verdicts[f"{name}/{case}/replay"] = _verdict(
                    *_run(["game", against, "--replay", "cert.json"]))

        transcript = argv[0] == "game"
        check("own", cert, graph, transcript)
        check("p8", cert, P8, transcript)
        check("out_document", saved, graph, transcript)
        for label, forged in _forgeries(cert):
            check(label, forged, graph, transcript and label.startswith("rounds"))
    return outs, verdicts


def _declared(case: str) -> bool:
    return any(re.search(pattern, case) for pattern, _ in DECLARED)


def _unexplained(verdicts: dict, pinned: dict) -> dict:
    """The cases whose verdict differs from the pin other than by the
    wording of a malformed-certificate error."""
    out = {}
    for case, (code, full, blank) in verdicts.items():
        old_code, old_full, old_blank = pinned[case]
        if full != old_full and not (code == old_code == 2 and blank == old_blank):
            out[case] = (old_code, code)
    return out


def test_verdicts_match_the_pin(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pin = json.loads(PIN.read_text())
    outs, verdicts = collect()
    assert outs == pin["out"]
    assert set(verdicts) == set(pin["verdicts"])
    # each declared change has a reason, really changed, and holds now
    changed = pin["changed"]
    assert all(_declared(case) for case in changed)
    assert _unexplained(changed, pin["verdicts"]).keys() == changed.keys()
    assert {c: verdicts[c] for c in changed} == changed
    rest = {c: v for c, v in verdicts.items() if c not in changed}
    assert _unexplained(rest, pin["verdicts"]) == {}


def main(argv):
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            outs, verdicts = collect()
        finally:
            os.chdir(here)
    if argv == ["--declare"]:
        pin = json.loads(PIN.read_text())
        differ = _unexplained(verdicts, pin["verdicts"])
        stray = sorted(c for c in differ if not _declared(c))
        if stray:
            print("undeclared verdict changes:\n  " + "\n  ".join(stray), file=sys.stderr)
            return 1
        pin["changed"] = {c: verdicts[c] for c in sorted(differ)}
    else:
        pin = {"out": outs, "verdicts": verdicts, "changed": {}}
    PIN.write_text(json.dumps(pin, indent=0, sort_keys=True) + "\n")
    print(f"{len(outs)} documents, {len(verdicts)} verdicts, {len(pin['changed'])} "
          f"changed -> {PIN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
