"""Smoke test of tools/microbench.py: every layer runs and is reported
with ordered quartiles."""

import importlib.util
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "microbench.py"


def test_microbench_runs_every_layer_once(capsys):
    spec = importlib.util.spec_from_file_location("microbench", TOOL)
    microbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(microbench)
    start = time.perf_counter()
    assert microbench.main(["--repeat", "1", "--calls", "1"]) == 0
    assert time.perf_counter() - start < 0.5
    lines = capsys.readouterr().out.splitlines()
    names = [name for name, _ in microbench.layers()]
    assert len(lines) == 1 + len(names)
    for line, name in zip(lines[1:], names):
        assert line.startswith(name)
        median, q25, q75 = map(float, line.split()[-3:])
        assert 0.0 < q25 <= median <= q75
