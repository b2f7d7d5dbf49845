import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cohdiff.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_check_demo_program():
    code, text = run("check", str(DEMO / "basic.cohdiff"))
    assert code == 0
    assert "term t : a & b" in text
    assert "term u : D D c" in text


def test_check_type_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cohdiff"
    bad.write_text("fn f : (a) -> a;\nterm t [x: b] = f(x);\n")
    code, text = run("check", str(bad))
    assert code == 1
    assert "type error" in text


def test_check_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cohdiff"
    bad.write_text("term t = <x;\n")
    code, text = run("check", str(bad))
    assert code == 1
    assert "parse error" in text


def test_diff_prints_term_and_type():
    code, text = run("diff", str(DEMO / "basic.cohdiff"), "--term", "u", "--var", "x")
    assert code == 0
    assert "theta_1(f^[1,0,1,0](x, iota0(y)))" in text
    assert "type : D D D c" in text


def test_diff_unknown_variable_is_type_error():
    code, text = run("diff", str(DEMO / "basic.cohdiff"), "--term", "u", "--var", "z")
    assert code == 1
    assert text == "error: variable 'z' not in the context of 'u'\n"


def test_reduce_trace_and_normal_form():
    code, text = run(
        "reduce", str(DEMO / "basic.cohdiff"), "--term", "v", "--trace"
    )
    assert code == 0
    assert "#1 pi0-theta @ 0 : [pi0(pi0(iota0(iota0(x))))]" in text
    assert "normal : [x] (3 steps)" in text


def test_reduce_fuel_exhausted_exit_code():
    code, text = run(
        "reduce", str(DEMO / "basic.cohdiff"), "--term", "v", "--fuel", "1"
    )
    assert code == 2
    assert "fuel exhausted" in text


def test_reduce_trace_stops_when_fuel_runs_out():
    code, text = run(
        "reduce", str(DEMO / "basic.cohdiff"), "--term", "v", "--trace",
        "--fuel", "1",
    )
    assert code == 2
    assert text.splitlines() == [
        "#1 pi0-theta @ 0 : [pi0(pi0(iota0(iota0(x))))]",
        "fuel exhausted after 1 steps",
    ]


def test_reduce_env_fuel_override(monkeypatch):
    monkeypatch.setenv("COHDIFF_FUEL", "1")
    code, _ = run("reduce", str(DEMO / "basic.cohdiff"), "--term", "v")
    assert code == 2
    monkeypatch.setenv("COHDIFF_FUEL", "50")
    code, _ = run("reduce", str(DEMO / "basic.cohdiff"), "--term", "v")
    assert code == 0


@pytest.mark.parametrize(
    "value, message",
    [("abc", "COHDIFF_FUEL must be an integer, got 'abc'"),
     ("0", "COHDIFF_FUEL must be >= 1")],
)
def test_bad_env_fuel_is_usage_error(monkeypatch, value, message):
    monkeypatch.setenv("COHDIFF_FUEL", value)
    code, text = run("reduce", str(DEMO / "basic.cohdiff"), "--term", "v")
    assert code == 5
    assert text.splitlines() == [f"error: {message}"]


def test_eval_matrix_and_point():
    code, text = run(
        "eval",
        str(DEMO / "nat.cohdiff"),
        "--model",
        str(DEMO / "nat.pcsmodel"),
        "--term",
        "branch",
        "--at",
        "L.0=1,R.L.1=1/2",
    )
    assert code == 0
    assert "entry (L.0, R.L.1) -> 1 : 1" in text
    assert "value 1 = 1/2" in text


def test_eval_model_error_exit_code(tmp_path):
    bad = tmp_path / "bad.pcsmodel"
    bad.write_text("object N { web = [0]; predual = [[0]]; }\n")
    code, text = run(
        "eval",
        str(DEMO / "nat.cohdiff"),
        "--model",
        str(bad),
        "--term",
        "branch",
    )
    assert code == 3
    assert "model error" in text


@pytest.mark.parametrize(
    "at, message",
    [
        ("L.0=abc", "bad rational 'abc'"),
        ("L.0=1/2/3", "bad rational '1/2/3'"),
        ("L.0=1/0", "zero denominator in '1/0'"),
        # Only an optional "-" and ASCII digits, as int() alone would allow
        # more.
        ("L.0=1_0", "bad rational '1_0'"),
        ("L.0=\uff11", "bad rational '\uff11'"),
        ("L.0=+1/ 2", "bad rational '+1/ 2'"),
        ("Q.0=1", "unknown atom tag 'Q' in 'Q.0'"),
        ("L.9=1", "point atom outside the context web: L.9"),
        ("L.0=-1", "negative coordinate at L.0"),
        ("L.0=1,L.0=2", "point gives L.0 twice"),
        ("=1", "bad point entry '=1', want atom=p/q"),
        # A negative coordinate is reported only once the whole point parses.
        ("L.0=-1,L.0=2", "point gives L.0 twice"),
        ("L.0=-1,Q.0=1", "unknown atom tag 'Q' in 'Q.0'"),
    ],
)
def test_eval_bad_point_is_model_error(at, message):
    code, text = run(
        "eval",
        str(DEMO / "nat.cohdiff"),
        "--model",
        str(DEMO / "nat.pcsmodel"),
        "--term",
        "branch",
        "--at",
        at,
    )
    assert code == 3
    # The point is checked before the map is printed.
    assert text.strip().splitlines() == [f"model error: {message}"]


def test_model_file_unknown_atom_tag_is_model_error(tmp_path):
    bad = tmp_path / "bad.pcsmodel"
    text = (DEMO / "nat.pcsmodel").read_text()
    bad.write_text(text.replace("entry (0, L.0)", "entry (0, Q.0)"))
    code, text = run(
        "eval",
        str(DEMO / "nat.cohdiff"),
        "--model",
        str(bad),
        "--term",
        "branch",
    )
    assert code == 3
    assert text.strip() == (
        "model error: 11:3: interp 'ifz': unknown atom tag 'Q' in 'Q.0'"
    )


def test_model_file_duplicate_block_is_model_error(tmp_path):
    bad = tmp_path / "bad.pcsmodel"
    text = (DEMO / "nat.pcsmodel").read_text()
    bad.write_text(text + "interp succ { entry (1) -> 0 : 1/2; }\n")
    code, out = run(
        "eval", str(DEMO / "nat.cohdiff"), "--model", str(bad), "--term", "branch"
    )
    assert code == 3
    assert out.strip().splitlines() == [
        "model error: 21:8: interp 'succ' declared twice"
    ]


def test_model_file_repeated_entry_is_named_as_written(tmp_path):
    bad = tmp_path / "bad.pcsmodel"
    text = (DEMO / "nat.pcsmodel").read_text()
    entry = "  entry (0, L.0) -> 0 : 1;\n"
    bad.write_text(text.replace(entry, entry + entry))
    code, out = run(
        "eval", str(DEMO / "nat.cohdiff"), "--model", str(bad), "--term", "branch"
    )
    assert code == 3
    assert out.strip().splitlines() == [
        "model error: 12:3: interp 'ifz': duplicate entry (0, L.0) -> 0"
    ]


def test_model_lacking_a_ground_type_is_model_error(tmp_path):
    program = tmp_path / "m.cohdiff"
    program.write_text("fn f : (M) -> M;\nterm t [x: M] = f(x);\n")
    model = tmp_path / "n.pcsmodel"
    model.write_text(
        "object N { web = [0]; predual = [[1]]; }\n"
        "interp f { entry (0) -> 0 : 1; }\n"
    )
    code, out = run("eval", str(program), "--model", str(model), "--term", "t")
    assert code == 3
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("model error: ")
    assert "'M'" in lines[0]


def test_interp_for_an_undeclared_symbol_is_model_error(tmp_path):
    bad = tmp_path / "bad.pcsmodel"
    text = (DEMO / "nat.pcsmodel").read_text()
    bad.write_text(text + "interp sux { entry (1) -> 0 : 5; }\n")
    code, out = run(
        "eval", str(DEMO / "nat.cohdiff"), "--model", str(bad), "--term", "branch"
    )
    assert code == 3
    assert out.strip().splitlines() == [
        "model error: 21:1: interp 'sux' names no declared fn"
    ]


@pytest.mark.parametrize(
    "entry, message",
    [
        ("entry (7) -> 1 : 1;", "6:3: interp 'succ': atom '7' not in slot 0 web"),
        ("entry (2) -> 1 : 2;", "4:1: interp 'succ' escapes the codomain"),
    ],
)
def test_interp_fault_carries_its_position(tmp_path, entry, message):
    bad = tmp_path / "bad.pcsmodel"
    text = (DEMO / "nat.pcsmodel").read_text()
    bad.write_text(text.replace("entry (2) -> 1 : 1;", entry))
    code, out = run(
        "eval", str(DEMO / "nat.cohdiff"), "--model", str(bad), "--term", "branch"
    )
    assert code == 3
    assert out.strip().splitlines() == [f"model error: {message}"]


def _constant_model(tmp_path, coeff, ctx=" [u: N]"):
    """The demo program and model plus a constant k : () -> N."""
    program = tmp_path / "k.cohdiff"
    program.write_text((DEMO / "nat.cohdiff").read_text()
                       + f"fn k : () -> N;\nterm c{ctx} = succ(k());\n")
    model = tmp_path / "k.pcsmodel"
    text = (DEMO / "nat.pcsmodel").read_text()
    model.write_text(text + f"interp k {{ entry () -> 1 : {coeff}; }}\n")
    return str(program), str(model), text.count("\n") + 1


def test_model_file_constant_is_a_map_out_of_the_terminal_object(tmp_path):
    program, model, _ = _constant_model(tmp_path, "1/2")
    code, out = run("eval", program, "--model", model, "--term", "c")
    assert code == 0
    assert out.strip().splitlines()[-1] == "  entry () -> 0 : 1/2"


def test_closed_term_omits_the_context_brackets(tmp_path):
    program, model, _ = _constant_model(tmp_path, "1/2", ctx="")
    code, out = run("eval", program, "--model", model, "--term", "c", "--at", "")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "domain : top"
    assert lines[-1] == "value 0 = 1/2"
    # The grammar has no empty context: brackets hold at least one variable.
    program, model, _ = _constant_model(tmp_path, "1/2", ctx=" []")
    code, out = run("eval", program, "--model", model, "--term", "c")
    assert code == 1
    assert "expected ident, found ']'" in out


def test_model_file_constant_escaping_is_model_error(tmp_path):
    program, model, line = _constant_model(tmp_path, "3/2")
    code, out = run("eval", program, "--model", model, "--term", "c")
    assert code == 3
    assert out.strip().splitlines() == [
        f"model error: {line}:1: interp 'k' escapes the codomain"
    ]


def test_linear_interp_escaping_at_a_vertex_is_model_error(tmp_path):
    # 5/9 a + 5/9 b stays below 1 at every probe of the unit square, but
    # reaches 10/9 at its vertex (1, 1).
    program = tmp_path / "square.cohdiff"
    program.write_text("fn f : (S) -> U;\nterm t [x: S] = f(x);\n")
    model = tmp_path / "square.pcsmodel"
    model.write_text(
        "object S { web=[a,b]; predual=[[1,0],[0,1]]; }\n"
        "object U { web=[u]; predual=[[1]]; }\n"
        "interp f { entry (a) -> u : 5/9; entry (b) -> u : 5/9; }\n"
    )
    code, out = run(
        "eval", str(program), "--model", str(model), "--term", "t",
        "--at", "a=1,b=1",
    )
    assert code == 3
    assert out.strip().splitlines() == [
        "model error: 3:1: interp 'f' escapes the codomain"
    ]


def test_bilinear_interp_escaping_at_a_vertex_pair_is_model_error(tmp_path):
    # 2 x_a y_b reaches 2 at the vertex pair (e_a, e_b) of N & N, which no
    # probe of the product comes near; the vertex products reach it.
    program = tmp_path / "pair.cohdiff"
    program.write_text("fn f : (N, N) -> N;\nterm t [x: N, y: N] = f(x, y);\n")
    model = tmp_path / "pair.pcsmodel"
    model.write_text(
        "object N { web=[a,b,c,d,e]; predual=[[1,1,1,1,1]]; }\n"
        "interp f { entry (a, b) -> a : 2; }\n"
    )
    code, out = run(
        "eval", str(program), "--model", str(model), "--term", "t",
        "--at", "L.a=1,R.b=1",
    )
    assert code == 3
    assert out.strip().splitlines() == [
        "model error: 2:1: interp 'f' escapes the codomain"
    ]


@pytest.mark.parametrize(
    "role, kind, code, prefix",
    [
        ("program", "directory", 5, "error: "),
        ("model", "directory", 5, "error: "),
        ("program", "undecodable", 1, "parse error: 1:6: "),
        ("model", "undecodable", 3, "model error: 1:6: "),
    ],
)
def test_unreadable_input_file(tmp_path, role, kind, code, prefix):
    path = tmp_path
    if kind == "undecodable":
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# caf\xe9\n")
    if role == "program":
        argv = ["check", str(path)]
    else:
        argv = ["eval", str(DEMO / "nat.cohdiff"), "--model", str(path),
                "--term", "branch"]
    got, out = run(*argv)
    lines = out.strip().splitlines()
    assert got == code
    assert len(lines) == 1 and lines[0].startswith(prefix)


def test_laws_pass_and_determinism():
    code1, text1 = run("laws", "--backend", "pcs", "--seed", "7", "--cases", "4")
    code2, text2 = run("laws", "--backend", "pcs", "--seed", "7", "--cases", "4")
    assert code1 == code2 == 0
    assert text1 == text2
    assert "LAW D-Schwarz PASS cases=4" in text1


def test_laws_negative_control_exit_code():
    code, text = run(
        "laws", "--backend", "pcs-corrupt-sigma", "--seed", "1", "--cases", "2"
    )
    assert code == 4
    assert "LAW D-zero FAIL" in text


def test_laws_zero_cases_is_usage_error():
    code, text = run("laws", "--cases", "0")
    assert code == 5
    assert text == "error: case count must be >= 1\n"


def test_theorems_subcommand():
    code, text = run("theorems", "--cases", "4", "--seed", "5")
    assert code == 0
    assert "all theorems hold" in text


def test_theorems_out_of_fuel_is_a_bound_exit():
    # Each invariance check stops early; without --verbose those verdicts
    # still print, and the summary does not claim the theorems hold.
    code, text = run("theorems", "--cases", "3", "--fuel", "1")
    assert code == 2
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(line.endswith("(fuel exhausted)") for line in lines[:3])
    assert lines[-1] == "checked 3 terms: reduction fuel exhausted on 3"


def test_theorems_verbose_matches_golden():
    # Every THEOREM line of the README's theorems command, byte for byte.
    code, text = run(
        "theorems", "--backend", "both", "--cases", "50", "--seed", "0",
        "--verbose",
    )
    assert code == 0
    golden = ROOT / "tests" / "golden" / "theorems_both_seed0.txt"
    assert text == golden.read_text()


@pytest.mark.parametrize("backend", ["pcs", "poly"])
def test_theorems_on_one_backend_print_its_lines_of_both(backend):
    # Alone, a backend prints what it prints when it shares the application
    # memo with the other.
    code, text = run(
        "theorems", "--backend", backend, "--cases", "50", "--seed", "0",
        "--verbose",
    )
    assert code == 0
    golden = (ROOT / "tests" / "golden" / "theorems_both_seed0.txt").read_text()
    lines = golden.splitlines()
    own = [line for line in lines if line.startswith(f"[{backend}] ")]
    assert text.splitlines() == own + lines[-1:]


def test_unknown_term_is_usage_error():
    code, text = run("reduce", str(DEMO / "basic.cohdiff"), "--term", "nope")
    assert code == 5
    assert "no term named" in text


def test_bad_flags_are_usage_errors():
    code, _ = run("laws", "--backend", "unknown")
    assert code == 5
    code, _ = run("reduce", str(DEMO / "basic.cohdiff"), "--term", "v", "--fuel", "0")
    assert code == 5


def test_walkthrough_script_runs():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, str(DEMO / "walkthrough.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "all 33 laws pass: True" in result.stdout
    assert "THEOREM differential HOLDS" in result.stdout


def _cli_process(args, unbuffered=False, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "cohdiff.cli", *args],
        env=env, stderr=subprocess.PIPE, text=True, timeout=120, **kwargs,
    )


def test_deeply_nested_term_exits_without_traceback(tmp_path):
    depth = 3000
    program = tmp_path / "deep.cohdiff"
    program.write_text(
        "term t [x: N] = " + "iota0(" * depth + "x" + ")" * depth + ";\n"
    )
    result = _cli_process(["check", str(program)], stdout=subprocess.PIPE)
    assert "Traceback" not in result.stderr
    assert result.returncode == 1
    assert result.stdout.strip().splitlines() == [
        "error: input nested too deeply to process"
    ]


def test_degree_cap_exits_2_without_traceback(tmp_path):
    t = "u"
    for _ in range(5):
        t = f"ifz({t}, <{t}, {t}>)"
    program = tmp_path / "big.cohdiff"
    program.write_text(
        "fn succ : (N) -> N;\nfn ifz : (N, N & N) -> N;\n"
        f"term big [u: N] = {t};\n"
    )
    result = _cli_process(
        ["eval", str(program), "--model", str(DEMO / "nat.pcsmodel"),
         "--term", "big"],
        stdout=subprocess.PIPE,
    )
    assert "Traceback" not in result.stderr
    assert result.returncode == 2
    assert result.stdout.splitlines() == [
        "error: monomial degree 32 exceeds cap 16"
    ]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "args",
    [["theorems", "--cases", "3", "--verbose"], ["check", "BAD"]],
    ids=["output", "error"],
)
def test_closed_stdout_pipe_exits_without_traceback(tmp_path, args, unbuffered):
    # Buffered, the pipe fails at the final flush; unbuffered, at a print.
    bad = tmp_path / "bad.cohdiff"
    bad.write_text("term t [x: N] = ?;\n")  # a parse error
    args = [str(bad) if a == "BAD" else a for a in args]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        result = _cli_process(args, unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr
    assert result.returncode == 5
    assert result.stderr.strip().splitlines() == ["error: output pipe closed"]
