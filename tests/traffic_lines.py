"""List the lines of src/ksumclique that neither the benchmark's workloads
nor the CLI artifacts reach.

    python3.12 tests/traffic_lines.py [SEED ...]

Runs one pass over the pool of every workload in perfbench/chains.py at each
seed (default 1 and 501), set-up included, then writes every output of
cli_artifacts.py into a temporary directory, with a sys.monitoring line
callback on. It prints, per function of the package, the executable lines
that none of this reached, as `file:function  first-last, ...`. A line that
only tests, refusals of outside input or other callers reach shows up here;
so does a code path whose traffic a later change took away.

Needs Python 3.12 or later (sys.monitoring). It only reads perfbench/. The
script is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import tempfile
import time
from inspect import CO_OPTIMIZED
from itertools import groupby
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "ksumclique"


def _code_lines(code: CodeType) -> set[int]:
    """The lines of code and the code nested in it that hold an instruction,
    but for each code object's first line, which only a def occupies and no
    line event reports."""
    lines = {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def executable_lines(path: Path) -> dict[str, set[int]]:
    """Per top-level function and method of the file, by qualified name, the
    lines a call of it can run."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    out = {}
    for const in module.co_consts:
        if not isinstance(const, CodeType):
            continue
        if const.co_flags & CO_OPTIMIZED:
            out[const.co_qualname] = _code_lines(const)
        else:  # a class body, whose own lines run at import: its methods
            out.update((c.co_qualname, _code_lines(c)) for c in const.co_consts if isinstance(c, CodeType))
    return out


def _ranges(lines: list[int]) -> str:
    """Sorted lines as comma-separated runs, `a-b` for consecutive ones."""
    runs = [[line for _, line in run] for _, run in groupby(enumerate(lines), lambda p: p[1] - p[0])]
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def run_traffic(seeds: list[int]) -> None:
    """One pass over every workload pool at each seed, then the CLI artifacts."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import chains
    import run as bench

    for seed in seeds:
        for w in chains.WORKLOADS.values():
            t0 = time.perf_counter()
            ks = bench.load_program()
            cases = w.pool(seed, ks)
            for case in cases:
                chains.run_case(w, case, ks, time.perf_counter)
            print(f"# {w.name} seed {seed}: {len(cases)} operations in {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr)
    import cli_artifacts

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        cli_artifacts.write_artifacts(Path(tmp).resolve())
    print(f"# cli artifacts in {time.perf_counter() - t0:.1f} s", file=sys.stderr)


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print(f"traffic_lines.py needs Python 3.12 or later for sys.monitoring; this is {sys.version.split()[0]}",
              file=sys.stderr)
        return 2
    seeds = [int(arg) for arg in argv] or [1, 501]
    files = {str(path): path for path in sorted(PACKAGE_DIR.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}
    mon = sys.monitoring
    tool = mon.COVERAGE_ID

    def on_line(code: CodeType, line: int) -> object:
        seen = hits.get(code.co_filename)
        if seen is not None:
            seen.add(line)
        return mon.DISABLE  # each line is reported once, then runs at full speed

    mon.use_tool_id(tool, "traffic_lines")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        run_traffic(seeds)
    finally:
        mon.set_events(tool, 0)
        mon.register_callback(tool, mon.events.LINE, None)
        mon.free_tool_id(tool)
    total = 0
    for name, path in files.items():
        for qualname, lines in executable_lines(path).items():
            missed = sorted(lines - hits[name])
            if missed:
                total += len(missed)
                print(f"{path.name}:{qualname}  {_ranges(missed)}")
    print(f"# {total} lines unreached", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
