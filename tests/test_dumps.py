"""The dump files, pinned byte for byte.

`--dump-cfg`, `--dump-callgraph` and `--dump-flow` write the flow graph
of each function, both call graphs and the per-line lock sets beside the
input. For each program below, `fixtures/dumps/<name>.txt` holds every file
they write, in name order, each under a `== <file name> ==` line.
Regenerate it with `PYTHONPATH=src python tests/test_dumps.py` and say in
the change's notes which dumps moved and why.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from lockshift.cli import main

from helpers import CORPUS, FIXTURES

DUMPS = FIXTURES / "dumps"

# A call, a lock held across it, and statements after a return, which get
# no flow-graph node and so no place in the dumps.
DEAD_CODE = """\
int n;
mutex_t m;
void bump() {
    n = n + 1;
}
void f() {
    pthread_mutex_lock(&m);
    bump();
    pthread_mutex_unlock(&m);
    return;
    n = 2;
    bump();
}
void main() {
    f();
}
"""

PROGRAMS = {
    "listing1": (FIXTURES / "listing1.mc").read_text(),
    "loop_held": (CORPUS / "loop_held.mc").read_text(),
    "dead_code": DEAD_CODE,
}


def dumps(name: str, directory: Path) -> str:
    """Every dump file of PROGRAMS[name], written into directory."""
    src = directory / ("%s.mc" % name)
    src.write_text(PROGRAMS[name])
    code = main(["analyze", str(src), "--emit-summary", str(directory / "summary.json"),
                 "--dump-cfg", "--dump-callgraph", "--dump-flow"])
    assert code == 0
    files = sorted(p for p in directory.glob("%s.*" % name) if p != src)
    return "".join("== %s ==\n%s" % (p.name, p.read_text()) for p in files)


@pytest.mark.parametrize("name", PROGRAMS)
def test_dump_files_match_the_pinned_text(name, tmp_path, capsys):
    got = dumps(name, tmp_path)
    capsys.readouterr()
    assert got == (DUMPS / ("%s.txt" % name)).read_text()


if __name__ == "__main__":
    DUMPS.mkdir(exist_ok=True)
    for program in PROGRAMS:
        with tempfile.TemporaryDirectory() as scratch:
            (DUMPS / ("%s.txt" % program)).write_text(dumps(program, Path(scratch)))
