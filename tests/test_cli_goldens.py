"""Byte-identity pins on the command-line front end.

Each case runs one ``python -m repro`` command line at a small
instruction budget, in a scratch working directory and with relative
output paths, and pins the SHA-256 of its stdout, its exit code and of
every file it writes.  Later cases read files that earlier cases wrote
(``timeline export`` reads ``timeline record``'s JSONL, ``trace
summarize``/``trace export`` read ``run --trace-out``'s capture), so the
cases run once, in order, in one module-scoped fixture.

The fixture runs them in a fresh interpreter: request ids are numbered
per process (``controller.transaction``), so a capture's bytes depend on
every simulation run before it in the same process.

A refactor of the CLI layer is only legal while every digest below
stays the same.  After an intentional change to one of these outputs,
print fresh digests with::

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.__main__ import main

INSTS = "3000"
SRC = str(Path(__file__).resolve().parents[1] / "src")

#: case -> (argv, files the command writes, relative to the cwd).
CASES = {
    "list": (["list"], ()),
    "run-ddr2": (
        ["run", "--system", "ddr2", "--workload", "2C-1", "--insts", INSTS],
        (),
    ),
    "run-fbd-ap-observed": (
        ["run", "--workload", "2C-1", "--insts", INSTS, "--latency",
         "--utilisation", "--timeline-ns", "500"],
        (),
    ),
    "run-trace-out": (
        ["run", "--workload", "swim", "--insts", INSTS,
         "--trace-out", "run.jsonl"],
        ("run.jsonl",),
    ),
    "compare": (["compare", "--workload", "swim", "--insts", INSTS], ()),
    "faults": (
        ["faults", "--workload", "swim", "--insts", INSTS,
         "--rates", "1e-4,1e-2"],
        (),
    ),
    "timeline-record": (
        ["timeline", "record", "--workload", "2C-1", "--insts", INSTS,
         "--window-ns", "500", "--out", "tl.jsonl", "--csv", "tl.csv"],
        ("tl.jsonl", "tl.csv"),
    ),
    "timeline-export-chrome": (
        ["timeline", "export", "tl.jsonl", "--chrome", "tl-trace.json"],
        ("tl-trace.json",),
    ),
    "prefetch-report": (
        ["prefetch", "report", "--workload", "swim", "--insts", INSTS],
        (),
    ),
    "prefetch-report-json": (
        ["prefetch", "report", "--workload", "swim", "--insts", INSTS,
         "--json"],
        (),
    ),
    "prefetch-report-trace-out": (
        ["prefetch", "report", "--workload", "swim", "--insts", INSTS,
         "--trace-out", "pf.jsonl"],
        ("pf.jsonl",),
    ),
    "trace-summarize": (["trace", "summarize", "run.jsonl"], ()),
    "trace-export": (
        ["trace", "export", "run.jsonl", "-o", "run.trace.json"],
        ("run.trace.json",),
    ),
    "sweep": (
        ["sweep", "k=2,4", "--workload", "swim", "--insts", INSTS,
         "--no-cache"],
        (),
    ),
}

#: case -> output ("exit", "stdout" or a file name) -> digest.
GOLDENS = {
    'list': {
        'exit': '0',
        'stdout': 'fbda6c20441ffd289094ccdbefee387b0050ad0332beee2b5aacc3928fa91632',
    },
    'run-ddr2': {
        'exit': '0',
        'stdout': 'b35a9c9214d792b6ee64a8db4c26fd94814e125ba0ec553d8720adf3a7391d34',
    },
    'run-fbd-ap-observed': {
        'exit': '0',
        'stdout': '89313631cc31a35b5fa9f2007194b2c3df1e4e8d183f3a6682a2136c186efc7f',
    },
    'run-trace-out': {
        'exit': '0',
        'stdout': '263dc2e6bdb66332da22010deae05149cfbcf962851b4841a9855b6d36aee319',
        'run.jsonl': 'de7d18d5bb742e7ff4251d76ce079be705e11d2d249ac5d67b3ce4ae81bad81c',
    },
    'compare': {
        'exit': '0',
        'stdout': 'adb962bc61f7bb7c927d2e12cae183531d911dceeccc769be913df3e6c438967',
    },
    'faults': {
        'exit': '0',
        'stdout': 'e1c53df33a1d033468b76470cf757a54a37f9b7a5d376da8f39870debfc9a8d5',
    },
    'timeline-record': {
        'exit': '0',
        'stdout': '1ea414e7b152ecf91b8f5a0441fca255eddad7ea6dc1a6a67b0db91044d204a0',
        'tl.jsonl': '8853fe04cf3553298e5a1ccb187c5d1dd3a68182e01754220fe887bcc603e919',
        'tl.csv': '5b3e536bcc67a4ceec846ea634665f850fcd70bc80db5869909be13c7714004b',
    },
    'timeline-export-chrome': {
        'exit': '0',
        'stdout': '48e27c7b78ddeaf3e31706036d7178c4410a05c2dfa69791d88247de74531fe6',
        'tl-trace.json': '40a0780914fa56487b4aabb61cde41ace339e517e57dd328dd04ccd75399e27a',
    },
    'prefetch-report': {
        'exit': '0',
        'stdout': 'eff609892febc5f7871b054977e7406f7ed4827c6f05130089d8d549b388abc5',
    },
    'prefetch-report-json': {
        'exit': '0',
        'stdout': '8d821f2e4bd05c62ed3b3379c01e3e03c4c35702fb814a015f195d3e0816bf7a',
    },
    'prefetch-report-trace-out': {
        'exit': '0',
        'stdout': '6e017d99d5719a2356589412028b3dc5b6e3e0c450f7aaa35eb2987fa656242c',
        'pf.jsonl': 'e641d5c4ab54b9e4f0b0e147fca63cee7234b4b93666e765ea8a1481c35eeb37',
    },
    'trace-summarize': {
        'exit': '0',
        'stdout': '9f30b4e998a5acec2d4e19f82be0e1340b7c1350e56786eb58293ef9acdc480f',
    },
    'trace-export': {
        'exit': '0',
        'stdout': '1bad0ece1e56be925c567c969d392630bd7ff136d471f2a77d528eecc7bc9150',
        'run.trace.json': 'd30e1d400a8b9854a0eb2a629862d495b536f7d31e1d058b445a03ab8df98532',
    },
    'sweep': {
        'exit': '0',
        'stdout': '8bf329f240bb17bc5eea6b0cfeff22facaf6e24d9620843a04e21806dba9179a',
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_all(workdir: Path):
    """Run every case in order inside ``workdir``; return their digests."""
    digests = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, (argv, files) in CASES.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            entry = {"exit": str(code), "stdout": _digest(out.getvalue().encode())}
            for file in files:
                entry[file] = _digest(Path(file).read_bytes())
            digests[name] = entry
    finally:
        os.chdir(previous)
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--json"],
        cwd=tmp_path_factory.mktemp("cli-goldens"),
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(digests, case):
    assert digests[case] == GOLDENS[case]


def test_run_profile_writes_flame_and_profiled_capture(tmp_path, capsys):
    """Profiling through the CLI; wall times vary, so nothing is pinned."""
    from repro.engine.profiler import parse_collapsed
    from repro.telemetry import load_capture

    flame = tmp_path / "run.folded"
    capture = tmp_path / "run.jsonl"
    code = main(["run", "--workload", "swim", "--insts", INSTS,
                 "--profile", "5", "--flame", str(flame),
                 "--trace-out", str(capture)])
    assert code == 0
    assert "flame stacks ->" in capsys.readouterr().out
    assert parse_collapsed(flame.read_text())
    assert load_capture(capture).profile
    assert main(["trace", "export", str(capture),
                 "-o", str(tmp_path / "run.trace.json")]) == 0
    assert "schema: OK" in capsys.readouterr().out


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        print(json.dumps(record_all(Path.cwd())))
        sys.exit(0)
    with tempfile.TemporaryDirectory() as scratch:
        fresh = record_all(Path(scratch))
    print("GOLDENS = {")
    for name, entry in fresh.items():
        print(f"    {name!r}: {{")
        for key, value in entry.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
    sys.exit(0)
