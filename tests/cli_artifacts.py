"""Write the outputs of a fixed list of CLI invocations under OUTDIR, so that
the CLI of two source trees can be compared byte for byte with `diff -r`.

    PYTHONPATH=src python tests/cli_artifacts.py OUTDIR
    PYTHONPATH=src python tests/cli_artifacts.py --manifest

The committed manifest cli_artifacts.sha256 holds the SHA-256 of every output
file, one `<digest>  <relative path>` line per file in path order (the format
of `sha256sum`), and test_cli_artifacts.py checks the outputs against it.
`--manifest` writes the outputs to a temporary directory and rewrites the
manifest from them, for a change that alters the outputs on purpose.

Each case runs its steps in OUTDIR/<case>/ with relative paths, after
writing its fixture files there. Step i leaves i.stdout, i.stderr and i.exit
next to the files it writes. An exception that escapes main() is recorded as
its type and message (no traceback, whose file paths differ between trees)
with exit code 1, the code an uncaught exception gives the console script.
The script is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

from ksumclique.cli import main

MANIFEST = Path(__file__).with_name("cli_artifacts.sha256")
SEEDS = (1, 2, 501)

# chain, source kind, n_range, k_range, m_range, params, trials
EXPERIMENTS = (
    ("ksum_to_vectorsum", "ksum", (4, 8), (2, 3), (0, 25), {}, 200),
    ("nodeweight_to_edgeweight", "graph-node", (4, 8), (2, 3), (0, 6), {}, 100),
    ("edgeweight_to_unweighted", "graph-edge", (4, 7), (2, 3), (0, 4), {}, 30),
    ("edgeweight_to_unweighted", "graph-edge", (4, 7), (2, 3), (0, 4), {"alpha_mode": "present"}, 50),
    ("smallksum_to_kclique", "ksum", (4, 8), (2, 3), (0, 16), {}, 50),
    ("clique_to_vectorsum", "clique", (3, 5), (2, 2), (0, 5), {}, 100),
    ("kclique_to_ksum", "clique", (3, 5), (2, 2), (0, 5), {"radix_mode": "mixed"}, 50),
    ("ksum_mod_reduce", "ksum", (4, 8), (2, 3), (0, 1000), {}, 150),
    ("targetsum_to_ksum", "targetsum", (4, 8), (2, 3), (0, 25), {}, 150),
    ("ksum_to_targetsum", "ksum", (4, 8), (2, 3), (0, 25), {}, 150),
    ("lindep_to_vectorsum", "lindep", (4, 8), (2, 3), (0, 5), {}, 50),
    ("ksum_to_vectorsum,vectorsum_to_ksum", "ksum", (4, 8), (2, 3), (0, 25), {}, 150),
    ("clique_to_vectorsum,vectorsum_to_ksum", "clique", (3, 5), (2, 2), (0, 5), {}, 100),
    ("nodeweight_to_edgeweight,edgeweight_to_unweighted", "graph-node", (4, 7), (2, 3), (0, 4),
     {"alpha_mode": "present"}, 50),
    ("ksum_to_targetsum,targetsum_to_ksum", "ksum", (4, 8), (2, 3), (0, 25), {}, 100),
    ("clique_to_vectorsum", "clique", (4, 4), (3, 3), (0, 5), {}, 30),
    ("kclique_to_ksum", "clique", (4, 4), (3, 3), (0, 5), {"radix_mode": "mixed"}, 30),
)

VECTORSUM = {"type": "vectorsum", "k": 2, "dim": 2, "vectors": [["1", "2"], ["3", "0"], ["0", "4"], ["2", "2"]],
             "target": ["3", "4"], "entry_range": ["0", "4"]}
TARGETSUM = {"type": "targetsum", "q": "7", "k": 3, "elements": ["1", "2", "4", "5", "6"], "target": "0"}
LINDEP = {"type": "lindep", "q": "3", "n": 2, "k": 2, "vectors": [["1", "0"], ["2", "1"], ["0", "2"]],
          "target": ["1", "1"]}
NEGATIVE_NW = {"type": "graph", "k": 3, "n": 5, "edges": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [3, 4]],
               "node_weights": ["-3", "1", "2", "-1", "4"], "edge_weights": None, "weight_bound": "4",
               "target": "2", "partition": None}


def _steps_for_seed(seed: int) -> list[list[str]]:
    s = str(seed)
    return [
        ["gen", "ksum", "--n", "7", "--k", "3", "--M", "49", "--plant", "--seed", s, "--out", "k.json"],
        ["gen", "ksum", "--n", "8", "--k", "3", "--M", "30", "--seed", s, "--out", "u.json"],
        ["gen", "graph", "--n", "7", "--k", "3", "--edge-prob", "0.4", "--plant", "--seed", s, "--out", "g.json"],
        ["gen", "graph", "--n", "6", "--k", "2", "--edge-prob", "0.5", "--seed", s, "--out", "g2.json"],
        ["gen", "graph", "--n", "8", "--k", "3", "--weights", "node", "--M", "9", "--plant", "--seed", s,
         "--out", "nw.json"],
        ["gen", "graph", "--n", "9", "--k", "3", "--weights", "node", "--M", "20", "--seed", s, "--out", "nw2.json"],
        ["gen", "graph", "--n", "6", "--k", "3", "--weights", "node", "--M", "5", "--target", "100", "--seed", s,
         "--out", "far.json"],
        ["gen", "graph", "--n", "10", "--k", "4", "--weights", "node", "--M", "6", "--edge-prob", "0.7",
         "--plant", "--seed", s, "--out", "nw4.json"],
        ["gen", "graph", "--n", "6", "--k", "3", "--weights", "edge", "--M", "2", "--plant", "--seed", s,
         "--out", "ew.json"],
        ["gen", "graph", "--n", "9", "--k", "5", "--weights", "node", "--M", "5", "--edge-prob", "0.8",
         "--plant", "--seed", s, "--out", "nw5.json"],
        ["gen", "graph", "--n", "6", "--k", "4", "--weights", "edge", "--M", "1", "--plant", "--seed", s,
         "--out", "ew4.json"],
        ["reduce", "--in", "k.json", "--via", "ksum_to_vectorsum", "--out", "k.vs.jsonl"],
        ["reduce", "--in", "k.json", "--via", "ksum_to_vectorsum", "--d", "2", "--out", "k.vs2.jsonl"],
        ["reduce", "--in", "k.json", "--from", "ksum", "--to", "vectorsum", "--p", "13", "--d", "2"],
        ["reduce", "--in", "k.json", "--via", "smallksum_to_kclique", "--out", "k.cl.jsonl"],
        ["reduce", "--in", "k.json", "--via", "smallksum_to_kclique", "--f-exponent", "3", "--out", "k.cl3.jsonl"],
        ["reduce", "--in", "k.json", "--via", "smallksum_to_kclique", "--alpha-mode", "full", "--out", "k.clf.jsonl"],
        ["reduce", "--in", "k.json", "--via", "ksum_mod_reduce", "--confidence", "20", "--seed", s, "--out", "k.mod.jsonl"],
        ["reduce", "--in", "k.json", "--via", "ksum_to_targetsum", "--out", "k.ts.jsonl"],
        ["reduce", "--in", "nw.json", "--via", "nodeweight_to_edgeweight", "--out", "nw.ew.jsonl"],
        ["reduce", "--in", "nw.json", "--via", "nodeweight_to_edgeweight", "--d", "2", "--out", "nw.ew2.jsonl"],
        ["reduce", "--in", "ew.json", "--via", "edgeweight_to_unweighted", "--out", "ew.full.jsonl"],
        ["reduce", "--in", "ew.json", "--via", "edgeweight_to_unweighted", "--alpha-mode", "present",
         "--out", "ew.present.jsonl"],
        ["reduce", "--in", "ew4.json", "--via", "edgeweight_to_unweighted", "--alpha-mode", "present",
         "--out", "ew4.present.jsonl"],
        ["reduce", "--in", "g.json", "--via", "clique_to_vectorsum", "--out", "g.vs.jsonl"],
        ["reduce", "--in", "g2.json", "--via", "kclique_to_ksum", "--out", "g2.ks.jsonl"],
        ["reduce", "--in", "g2.json", "--via", "kclique_to_ksum", "--radix-mode", "mixed", "--out", "g2.ksm.jsonl"],
        ["reduce", "--in", "vs.json", "--via", "vectorsum_to_ksum", "--out", "vs.ks.jsonl"],
        ["reduce", "--in", "ts.json", "--via", "targetsum_to_ksum", "--out", "ts.ks.jsonl"],
        ["reduce", "--in", "ld.json", "--via", "lindep_to_vectorsum", "--out", "ld.vs.jsonl"],
        ["reduce", "--in", "g.json", "--via", "ksum_to_vectorsum"],
        ["reduce", "--in", "k.json", "--from", "ksum"],
        ["solve", "--in", "k.json", "--out", "k.auto.json"],
        ["solve", "--in", "k.json", "--solver", "ksum-mim"],
        ["solve", "--in", "u.json", "--solver", "ksum-brute"],
        ["solve", "--in", "u.json", "--solver", "ksum-mim"],
        ["solve", "--in", "g.json"],
        ["solve", "--in", "g.json", "--solver", "triangle-naive-mm"],
        ["solve", "--in", "g.json", "--solver", "triangle-degree-split"],
        ["solve", "--in", "nw.json"],
        ["solve", "--in", "nw.json", "--solver", "nw-triangle"],
        ["solve", "--in", "nw.json", "--solver", "nw-clique"],
        ["solve", "--in", "nw2.json", "--solver", "nw-triangle"],
        ["solve", "--in", "nw2.json", "--solver", "nw-clique"],
        ["solve", "--in", "nw4.json", "--solver", "nw-clique"],
        ["solve", "--in", "nw5.json", "--solver", "nw-clique"],
        ["solve", "--in", "far.json", "--solver", "nw-triangle"],
        ["solve", "--in", "neg.json", "--solver", "nw-triangle"],
        ["solve", "--in", "neg.json", "--solver", "nw-clique"],
        ["solve", "--in", "neg.json", "--solver", "clique-brute"],
        ["solve", "--in", "ew.json"],
        ["solve", "--in", "g.json", "--solver", "ksum-mim"],
        ["solve", "--in", "k.cl.jsonl"],
        ["solve", "--in", "k.vs.jsonl"],
        ["solve", "--in", "nw.ew.jsonl"],
        ["solve", "--in", "ew.present.jsonl"],
        ["solve", "--in", "ew4.present.jsonl"],
        ["solve", "--in", "g2.ks.jsonl", "--solver", "ksum-mim"],
        ["solve", "--in", "ld.vs.jsonl"],
        ["verify", "--in", "k.json", "--witness", "0,1,2"],
        ["verify", "--in", "g.json", "--witness", "0,1"],
        ["verify", "--in", "g.json", "--witness", "x"],
        ["subsetsum-mode", "--in", "u.json", "--out", "pieces", "--report", "modes.jsonl"],
        # the ksum, vectorsum and targetsum oracles past the cost rule's crossover,
        # where they meet in the middle (C(n, k) at most 1,820 here)
        ["gen", "ksum", "--n", "14", "--k", "4", "--M", "60", "--plant", "--seed", s, "--out", "w.json"],
        ["gen", "ksum", "--n", "16", "--k", "3", "--M", "200", "--seed", s, "--out", "x.json"],
        ["reduce", "--in", "w.json", "--via", "ksum_to_targetsum", "--out", "w.ts.jsonl"],
        ["reduce", "--in", "x.json", "--via", "ksum_to_targetsum", "--out", "x.ts.jsonl"],
        ["reduce", "--in", "g2.json", "--via", "clique_to_vectorsum", "--out", "g2.vs.jsonl"],
        ["solve", "--in", "w.json"],
        ["solve", "--in", "x.json"],
        ["solve", "--in", "w.ts.jsonl"],
        ["solve", "--in", "x.ts.jsonl"],
        ["solve", "--in", "g2.ks.jsonl"],
        ["solve", "--in", "g2.ksm.jsonl"],
        ["solve", "--in", "g2.vs.jsonl"],
        ["solve", "--in", "g2.ksm.jsonl", "--solver", "ksum-mim"],
        # the digit-norm vertex codes, taken at k >= 5 or past 64 vertices
        ["gen", "graph", "--n", "6", "--k", "5", "--edge-prob", "0.6", "--seed", s, "--out", "g5.json"],
        ["gen", "graph", "--n", "70", "--k", "3", "--edge-prob", "0.05", "--seed", s, "--out", "g70.json"],
        ["reduce", "--in", "g5.json", "--via", "clique_to_vectorsum", "--out", "g5.vs.jsonl"],
        ["reduce", "--in", "g5.json", "--via", "kclique_to_ksum", "--radix-mode", "mixed", "--out", "g5.ksm.jsonl"],
        ["reduce", "--in", "g70.json", "--via", "clique_to_vectorsum", "--out", "g70.vs.jsonl"],
        ["reduce", "--in", "g70.json", "--via", "kclique_to_ksum", "--radix-mode", "mixed", "--out", "g70.ksm.jsonl"],
        # ksum-mim with a right half of two or three numbers, on unpacked sums
        ["solve", "--in", "w.json", "--solver", "ksum-mim"],
        ["gen", "ksum", "--n", "24", "--k", "6", "--M", "1000", "--plant", "--seed", s, "--out", "y.json"],
        ["solve", "--in", "y.json", "--solver", "ksum-mim"],
    ]


def cases() -> list[tuple[str, dict[str, object], list[list[str]]]]:
    out: list[tuple[str, dict[str, object], list[list[str]]]] = []
    fixtures = {"vs.json": VECTORSUM, "ts.json": TARGETSUM, "ld.json": LINDEP, "neg.json": NEGATIVE_NW}
    for seed in SEEDS:
        out.append((f"commands-{seed}", fixtures, _steps_for_seed(seed)))
    for i, (chain, source, n_range, k_range, m_range, params, trials) in enumerate(EXPERIMENTS):
        cfg = {"trials": trials, "seed": 0, "n_range": list(n_range), "k_range": list(k_range),
               "m_range": list(m_range), "chain": chain.split(","), "source": source, "params": params}
        steps = [["experiment", "--config", "cfg.json", "--seed", str(seed), "--out", f"report-{seed}.json"]
                 for seed in SEEDS]
        out.append((f"experiment-{i:02d}", {"cfg.json": cfg}, steps))
    bad = {"trials.json": {"trials": "x"}, "range.json": {"n_range": [6, 4]}, "oracle.json": {"oracle": "bogus"},
           "chain.json": {"chain": ["bogus"]}}
    out.append(("experiment-bad-config", bad, [["experiment", "--config", name, "--out", "r.json"] for name in bad]))
    return out


def run(argv: list[str]) -> tuple[bytes, bytes, int]:
    """main(argv) with stdout and stderr captured as bytes."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        print("".join(traceback.format_exception_only(type(exc), exc)), end="", file=err)
        code = 1
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    err.flush()
    return out.buffer.getvalue(), err.buffer.getvalue(), code


def write_artifacts(outdir: Path) -> None:
    home = Path.cwd()
    for name, fixtures, steps in cases():
        case_dir = outdir / name
        case_dir.mkdir(parents=True)
        for fname, obj in fixtures.items():
            (case_dir / fname).write_text(json.dumps(obj) + "\n", encoding="utf-8")
        os.chdir(case_dir)
        try:
            for i, argv in enumerate(steps):
                stdout, stderr, code = run(argv)
                Path(f"{i:02d}.stdout").write_bytes(stdout)
                Path(f"{i:02d}.stderr").write_bytes(stderr)
                Path(f"{i:02d}.exit").write_text(f"{code}\n", encoding="utf-8")
        finally:
            os.chdir(home)


def digests(outdir: Path) -> dict[str, str]:
    """The SHA-256 of every file under outdir, by its path relative to outdir."""
    return {path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in outdir.rglob("*") if path.is_file()}


def read_manifest() -> dict[str, str]:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def mismatches(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """The files whose digests differ, that are missing or that are extra."""
    return ([f"changed: {name}" for name in sorted(want.keys() & got.keys()) if want[name] != got[name]]
            + [f"missing: {name}" for name in sorted(want.keys() - got.keys())]
            + [f"extra: {name}" for name in sorted(got.keys() - want.keys())])


if __name__ == "__main__":
    if sys.argv[1:] == ["--manifest"]:
        with tempfile.TemporaryDirectory() as tmp:
            write_artifacts(Path(tmp).resolve())
            written = digests(Path(tmp).resolve())
        MANIFEST.write_text("".join(f"{written[name]}  {name}\n" for name in sorted(written)), encoding="utf-8")
    elif len(sys.argv) == 2:
        write_artifacts(Path(sys.argv[1]).resolve())
    else:
        sys.exit("usage: cli_artifacts.py OUTDIR | --manifest")
