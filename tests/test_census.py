"""tools/census.py: the byte census of the benchmark's jobs against another checkout."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def test_a_checkout_matches_itself(capsys):
    assert census.main(["--other", str(ROOT), "--workload", "families", "--seed", "1"]) == 0
    assert capsys.readouterr().out == (
        "families: 13 jobs, 0 differ (stdout 0, stderr 0, report 0 (0 layout only), exit code 0)\n"
    )


def test_a_moved_output_is_counted_and_named(tmp_path, capsys):
    # a copy of the program whose every command prints one more line
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "tbcurv" / "cli.py"
    cli.write_text(cli.read_text() + "\n\n_main = main\n\n\ndef main(argv=None):\n"
                   "    print('moved')\n    return _main(argv)\n")
    assert census.main(["--other", str(tmp_path), "--workload", "families", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("families: 13 jobs, 13 differ "
                      "(stdout 13, stderr 0, report 0 (0 layout only), exit code 0)")
    assert out[1] == "  differs: families/1/0 family-check/sasaki/0"
    assert out[2] == ("    stdout line 1: "
                      "'family sasaki: valid; phi > 0 on [0, 25] (4096 samples)\\n' != 'moved\\n'")
    assert out[-1] == "  ... 3 more"


def test_first_differing_line():
    line = census.first_differing_line
    assert line("a\nb\nc\n", "a\nB\nc\n") == "line 2: 'b\\n' != 'B\\n'"
    assert line("a\nb\n", "a\n") == "line 2: 'b\\n' != None"
    assert line("a\n", "a") == "line 1: 'a\\n' != 'a'"
    assert line("x" * 300, "y") == f"line 1: {'x' * 200!r} != 'y'"


def test_same_document():
    same = census.same_document
    assert same('{"b": [NaN, -0.0], "a": 1}', '{\n  "a": 1,\n  "b": [\n    NaN,\n    -0.0\n  ]\n}')
    assert not same('{"a": [0.0]}', '{"a": [-0.0]}')
    assert not same('{"a": 1}', "")
