"""``scripts/count_calls.py`` counts exactly: two runs print the same."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_calls.py"


def _script():
    spec = importlib.util.spec_from_file_location("count_calls", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_counted_runs_print_identical_numbers(capsys):
    script = _script()
    outputs = []
    for _ in range(2):
        assert script.main(["--apps", "SPEC-BFS", "--scale", "0.25"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    header, row = outputs[0].splitlines()
    assert header.split()[:3] == ["app", "python", "c"]
    name, python, c_calls, commits, steps = row.split()[:5]
    assert name == "SPEC-BFS"
    assert all(int(n.replace(",", "")) > 0
               for n in (python, c_calls, commits, steps))
