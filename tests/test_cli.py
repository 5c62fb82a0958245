"""The command line surface: exact output bytes, batch mode, exit codes."""

import io
import json
import subprocess
import sys

import pytest

import cuspcm
from cuspcm import cusp, tpq
from cuspcm.cli import COMMANDS, main, parse_lambda, parse_seq
from test_oracle import plant_rank_plus_one, plant_wrong_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_batch(capsys, monkeypatch, argv, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(l + "\n" for l in lines)))
    return run(capsys, *argv)


# -------------------------------------------------------------- parsing


def test_parse_seq():
    assert parse_seq("2,-1,0") == (2, -1, 0)
    assert parse_seq("7") == (7,)
    for bad in ("", "1,", "a", "1, 2", "1..2"):
        with pytest.raises(ValueError):
            parse_seq(bad)


def test_parse_lambda():
    assert parse_lambda("3/2") == parse_lambda("6/4")
    assert parse_lambda("-2") == -2
    for bad in ("", "0", "1/0", "0/3", "1.5", "x"):
        with pytest.raises(ValueError):
            parse_lambda(bad)


# ------------------------------------------------------- single results


def test_cohom_exact_output(capsys):
    code, out = run(
        capsys, "cohom", "--s", "1", "--seq", "2,-1", "--m", "1", "--lambda", "3/2"
    )
    assert code == 0
    assert out == '{"theta":2,"delta":0,"h0":1,"h1":0}\n'


def test_canon_exact_output(capsys):
    code, out = run(capsys, "canon", "--s", "2", "--seq", "3,4,1,2")
    assert code == 0
    assert out == '{"canonical":[1,2,3,4],"aperiodic":true}\n'


def test_verify_grid_summary(capsys):
    code, out = run(
        capsys, "verify", "--grid", "rs_max=4", "entries=-2..2", "m_max=2",
        "lambdas=1,-1,2",
    )
    assert code == 0
    result = json.loads(out)
    assert result["formula_mismatches"] == 0
    assert result["euler_failures"] == 0
    assert result["rank_identity_failures"] == 0
    assert result["ok"] is True
    assert result["cases"] > 0


BAD_GRIDS = {
    "s=0": "s must be at least 1, got 0",
    "rs_max=-1": "the grid box holds no cases",
    "m_max=0": "the grid box holds no cases",
    "s=9": "the grid box holds no cases",
    "m_max=x": "grid setting 'm_max' must be an integer, got 'x'",
    "s=1,1": "s=1 is repeated in the grid box",
    "lambdas=2,4/2": "lambda=2 is repeated in the grid box",
}


@pytest.mark.parametrize("setting", BAD_GRIDS)
def test_verify_grid_bad_box_is_invalid_input(capsys, setting):
    code, out = run(capsys, "verify", "--grid", setting)
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "invalid_input"
    assert error["message"].startswith(BAD_GRIDS[setting])


def test_verify_grid_failures_exit_2_and_stay_out_of_the_table(capsys, monkeypatch):
    # A closed form planted one too high everywhere: every case fails all
    # three checks, and the JSON lists the first 20 failures only.
    plant_wrong_closed_form(monkeypatch, lambda triple: True)
    code, out = run(capsys, "verify", "--grid", "rs_max=2")
    result = json.loads(out)
    assert code == 2
    assert result["ok"] is False
    cases = result["cases"]
    assert cases > 20
    for kind in ("formula_mismatches", "euler_failures", "rank_identity_failures"):
        assert result[kind] == cases
    assert len(result["failures"]) == 20
    assert result["failures"][0] == "s=1 d=[-2] m=1 lam=1: formula (1,2) vs oracle (0,2)"
    code, out = run(capsys, "verify", "--grid", "rs_max=2", "--format", "table")
    assert code == 2
    assert [line.split()[0] for line in out.splitlines()] == [
        "cases", "formula_mismatches", "euler_failures", "rank_identity_failures", "ok"]
    assert out.splitlines()[-1].split() == ["ok", "False"]


def test_verify_single_triple(capsys):
    code, out = run(
        capsys, "verify", "--s", "1", "--seq", "0,1", "--m", "2", "--lambda", "-1"
    )
    assert code == 0
    result = json.loads(out)
    assert result["agree"] is True
    assert result["formula"] == result["oracle"]


def test_verify_single_triple_failure_exits_2(capsys, monkeypatch):
    # rank 5 is not m*theta - delta at m = 2: a failed check, not a traceback.
    plant_rank_plus_one(monkeypatch)
    code, out = run(
        capsys, "verify", "--s", "1", "--seq", "1,0", "--m", "2", "--lambda", "2"
    )
    assert code == 2
    assert len(out.splitlines()) == 1
    result = json.loads(out)
    assert result["agree"] is False
    assert '"agree":false' in out


def test_a_failed_single_verify_names_its_failed_checks(capsys, monkeypatch):
    # A passing run prints no "failures" key; a failing one lists the
    # descriptors verify --grid gives for the case, the rank identity's too.
    argv = ["verify", "--s", "1", "--seq", "1,0", "--m", "2", "--lambda", "2"]
    code, out = run(capsys, *argv)
    assert code == 0 and "failures" not in json.loads(out)
    plant_rank_plus_one(monkeypatch)
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["failures"] == [
        "s=1 d=[1,0] m=2 lam=2: formula (2,0) vs oracle (1,-1)",
        "s=1 d=[1,0] m=2 lam=2: rk=5",
    ]
    code, out = run(capsys, *argv, "--format", "table")
    assert code == 2 and "failures" not in out and "rk=" not in out


def test_classify_and_lambda_serialization(capsys):
    code, out = run(
        capsys, "classify", "--s", "1", "--b", "1", "--seq", "2", "--m", "1",
        "--lambda", "3/2",
    )
    assert code == 0
    assert json.loads(out) == {
        "kind": "module", "seq": [2], "m": 1, "lam": "3/2", "rank": 2,
    }


def test_enumerate_rank_two(capsys):
    code, out = run(capsys, "enumerate", "--s", "1", "--b", "1", "--rank", "2")
    result = json.loads(out)
    assert code == 0
    assert [f["seq"] for f in result["families"]] == [[0], [1], [2], [0, 1], [0, 2]]
    assert result["exceptional"] == [
        {"kind": "module", "seq": [1], "m": 1, "lam": "1", "rank": 2}
    ]


def test_growth_counts(capsys):
    code, out = run(capsys, "growth", "--s", "1", "--b", "1", "--r-max", "2")
    assert code == 0
    assert json.loads(out)["counts"] == [
        {"rank": 1, "families": 2},
        {"rank": 2, "families": 5},
    ]


def test_tpq_roundtrip(capsys):
    code, out = run(capsys, "tpq-geometry", "--p", "3", "--q", "8")
    assert code == 0
    assert json.loads(out) == {
        "p": 3, "q": 8, "s": 2, "b": [1, 0], "t": None, "case": "P3",
    }
    code, out = run(capsys, "tpq-sigma", "--p", "3", "--q", "8", "--seq", "1,2,3,4")
    assert json.loads(out) == {"sigma": [1, 4, 3, 2], "sigma_symmetric": False}
    code, out = run(
        capsys, "tpq-descend", "--p", "3", "--q", "8", "--seq", "1,0", "--m", "1",
        "--lambda", "-1",
    )
    assert json.loads(out)["labels"] == [
        {"kind": "split", "seq": [1, 0], "m": 1, "sign": -1, "branch": 1},
        {"kind": "split", "seq": [1, 0], "m": 1, "sign": -1, "branch": 2},
    ]
    code, out = run(capsys, "tpq-descend", "--p", "3", "--q", "8", "--free")
    assert json.loads(out)["labels"] == [{"kind": "free"}]


def test_quiver_dot_output(capsys):
    code, out = run(
        capsys, "quiver", "--s", "1", "--b", "1", "--max-base-rank", "1",
        "--depth", "2",
    )
    assert code == 0
    assert out.startswith("digraph ar_quiver {")
    assert out.endswith("}\n")
    assert '"M([0],1,2)" -> "M([0],2,2)";' in out


def test_quiver_json_output(capsys):
    code, out = run(
        capsys, "tpq-quiver", "--p", "3", "--q", "8", "--depth", "2",
        "--seq", "1,0", "--lambda", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["tubes"][0]["period"] == 2
    assert data["nodes"][0] == {"id": "A'", "kind": "free"}


# ------------------------------------------------------------ bad input


def test_kahn_violation_is_structured(capsys):
    code, out = run(
        capsys, "classify", "--s", "1", "--b", "1", "--seq", "0", "--m", "1",
        "--lambda", "1",
    )
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "kahn_violation"


def test_validation_error_exits_two(capsys):
    code, out = run(
        capsys, "cohom", "--s", "1", "--seq", "1", "--m", "1", "--lambda", "0"
    )
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid_input"


QUIVER_WITHOUT_TUBES = ["quiver", "--s", "1", "--b", "1", "--max-base-rank", "1",
                        "--depth", "0", "--lambdas", "1"]


def test_a_bad_depth_is_an_error_when_no_tube_is_built(capsys):
    # At max base rank 1 and lam = 1 both rank-1 bases are dropped.
    assert main(QUIVER_WITHOUT_TUBES) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth must be positive, got 0\n"
    code, out = run(capsys, *QUIVER_WITHOUT_TUBES, "--format", "json")
    assert code == 2
    assert json.loads(out) == {"error": {
        "kind": "invalid_input", "message": "depth must be positive, got 0"}}


def test_table_mode_reports_on_stderr(capsys):
    code = main(
        ["classify", "--s", "1", "--b", "1", "--seq", "0", "--m", "1",
         "--lambda", "1", "--format", "table"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "\n" not in captured.err.rstrip("\n")


def test_missing_flag_is_reported(capsys):
    code, out = run(capsys, "canon", "--s", "2")
    assert code == 2
    assert "--seq is required" in json.loads(out)["error"]["message"]


# ----------------------------------------------------------- batch mode


def test_batch_keeps_input_order_and_never_aborts(capsys, monkeypatch):
    code, out = run_batch(
        capsys, monkeypatch,
        ["cohom", "--s", "1", "--batch"],
        [
            '{"seq": [2, -1], "m": 1, "lambda": "3/2"}',
            '{"seq": [0], "m": 1}',
            "garbage",
            '{"seq": [0], "m": 2, "lambda": 1}',
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '{"theta":2,"delta":0,"h0":1,"h1":0}'
    assert json.loads(lines[1])["error"]["message"] == "missing field 'lambda'"
    assert "error" in json.loads(lines[2])
    assert json.loads(lines[3]) == {"theta": 1, "delta": 1, "h0": 1, "h1": 1}


def test_batch_classify_reports_kahn_per_record(capsys, monkeypatch):
    code, out = run_batch(
        capsys, monkeypatch,
        ["classify", "--s", "1", "--b", "1", "--batch"],
        ['{"seq": [0], "m": 1, "lambda": 1}', '{"seq": [1], "m": 1, "lambda": 1}'],
    )
    assert code == 0
    first, second = (json.loads(l) for l in out.splitlines())
    assert first["error"]["kind"] == "kahn_violation"
    assert second["rank"] == 2


def test_batch_canon(capsys, monkeypatch):
    code, out = run_batch(
        capsys, monkeypatch,
        ["canon", "--s", "2", "--batch"],
        ['{"seq": [3, 4, 1, 2]}', '{"seq": [1, 2, 3]}'],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '{"canonical":[1,2,3,4],"aperiodic":true}'
    assert "not a multiple" in json.loads(lines[1])["error"]["message"]


def test_batch_tpq_descend(capsys, monkeypatch):
    code, out = run_batch(
        capsys, monkeypatch,
        ["tpq-descend", "--p", "3", "--q", "8", "--batch"],
        ['{"free": true}', '{"seq": [1, 0], "m": 2, "lambda": 1}'],
    )
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0])["labels"] == [{"kind": "free"}]
    assert [x["branch"] for x in json.loads(lines[1])["labels"]] == [1, 2]


@pytest.mark.parametrize(
    "free", [True, 1, -1, 0.5, "x", "0", [0], {"a": 1}, False, None, 0, 0.0, "", [], {}]
)
@pytest.mark.parametrize("flag", [[], ["--free"]])
def test_a_truthy_free_key_stands_in_for_the_triple(capsys, monkeypatch, free, flag):
    # The key of a record decides, in every JSON type; the --free flag is
    # ignored under --batch.
    record = json.dumps({"free": free, "seq": [2, 1], "m": 1, "lambda": 2})
    code, out = run_batch(
        capsys, monkeypatch, ["tpq-descend", "--p", "3", "--q", "8", "--batch", *flag],
        [record, json.dumps({"free": free})],
    )
    assert code == 0
    if free:
        assert out == '{"labels":[{"kind":"free"}]}\n' * 2
    else:
        assert out.splitlines() == [
            '{"labels":[{"kind":"single","seq":[2,1],"m":1,"lam":"2"}]}',
            '{"error":{"kind":"invalid_input","message":"missing field \'seq\'"}}',
        ]


@pytest.mark.parametrize("batch", [False, True])
def test_a_closed_stdout_exits_zero(monkeypatch, batch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdin", io.StringIO('{"seq": [3, 4, 1, 2]}\n'))
    monkeypatch.setattr("sys.stdout", Closed())
    argv = ["canon", "--s", "2"] + (["--batch"] if batch else ["--seq", "3,4,1,2"])
    assert main(argv) == 0


# ------------------------------------------------------------ the shim


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcm.cli", "canon", "--s", "2", "--seq", "3,4,1,2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"canonical":[1,2,3,4],"aperiodic":true}\n'


def test_version():
    proc = subprocess.run([sys.executable, "-m", "cuspcm.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == f"cuspcm {cuspcm.__version__}\n" == "cuspcm 0.1.0\n"


@pytest.mark.parametrize(
    "argv,seqs,module,name",
    [
        (["classify", "--s", "1", "--b", "1", "--batch"], [[d] for d in range(1, 6)],
         cusp, "classify_label"),
        (["tpq-descend", "--p", "3", "--q", "8", "--batch"],
         [[d, 0] for d in range(1, 6)], tpq, "descend"),
    ],
    ids=["classify", "tpq-descend"],
)
def test_a_function_replaced_between_main_calls_answers_every_record(
    capsys, monkeypatch, argv, seqs, module, name
):
    # A tracer wraps library functions between two calls of main; the second
    # call must go through the wrappers, not through functions bound before.
    lines = [json.dumps({"seq": seq, "m": 1, "lambda": 2}) for seq in seqs]
    first = run_batch(capsys, monkeypatch, argv, lines)
    assert first[0] == 0 and "error" not in first[1]
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    assert run_batch(capsys, monkeypatch, argv, lines) == first
    assert len(calls) == len(lines)


# ------------------------------------------------------- robustness


@pytest.mark.parametrize(
    "argv",
    [
        ["cohom", "--s", "1", "--seq", "1", "--m", "1"],
        ["classify", "--s", "1", "--b", "1", "--seq", "1", "--m", "1"],
        ["verify", "--seq", "1", "--m", "1"],
        ["tpq-descend", "--p", "3", "--q", "8", "--seq", "1,0", "--m", "1"],
        ["tpq-quiver", "--p", "3", "--q", "8", "--depth", "2", "--seq", "1,0",
         "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_lambda_names_the_flag(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["message"] == "--lambda is required"


TRIPLE = ("seq", "m", "lambda")

# What each command reads: its geometry ("cusp", "tpq" or None), its input
# fields in the order they are checked, whether it takes --batch, and the
# other flags a run needs.
READS = {
    "canon": (None, ("seq",), True, []),
    "cohom": (None, TRIPLE, True, []),
    "verify": (None, TRIPLE, False, []),
    "classify": ("cusp", TRIPLE, True, []),
    "enumerate": ("cusp", (), False, ["--rank", "1"]),
    "growth": ("cusp", (), False, ["--r-max", "1"]),
    "quiver": ("cusp", (), False, ["--max-base-rank", "1", "--depth", "1"]),
    "tpq-geometry": ("tpq", (), False, []),
    "tpq-sigma": ("tpq", ("seq",), True, []),
    "tpq-descend": ("tpq", TRIPLE, True, []),
    "tpq-quiver": ("tpq", ("seq", "lambda"), False, ["--depth", "1"]),
}
GEOMETRY = {None: ["--s", "1"], "cusp": ["--s", "1", "--b", "1"],
            "tpq": ["--p", "3", "--q", "8"]}
BAD_GEOMETRY = {
    "cusp": (["--s", "1", "--b", "x"],
             "malformed sequence literal 'x': expected comma-separated integers"),
    "tpq": (["--p", "2", "--q", "3"], "p must be at least 3, got 2"),
}


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda cmd: cmd.name)
def test_each_command_reads_its_geometry_then_its_fields_in_order(
        capsys, monkeypatch, cmd):
    assert set(READS) == {c.name for c in COMMANDS}
    geometry, fields, batch, extra = READS[cmd.name]
    assert ("--batch" in dict(cmd.flags)) == batch
    seq = "1,0" if geometry == "tpq" else "1"
    flags = {"seq": seq, "m": "1", "lambda": "2"}

    def error(*argv):
        code, out = run(capsys, cmd.name, *argv, "--format", "json")
        assert code == 2
        return json.loads(out)["error"]["message"]

    if geometry:
        bad, message = BAD_GEOMETRY[geometry]
        assert error(*bad, *extra) == message
    argv = GEOMETRY[geometry] + extra
    if not fields:
        code, out = run(capsys, cmd.name, *argv, "--format", "json")
        assert code == 0 and "error" not in json.loads(out)
    for i, name in enumerate(fields):
        given = [arg for f in fields[:i] for arg in (f"--{f}", flags[f])]
        if cmd.name == "tpq-quiver" and i == 0:
            # Its run step first asks for exactly one of its two inputs.
            assert error(*argv).startswith("give exactly one of")
            continue
        assert error(*argv, *given) == f"--{name} is required"
    if batch:
        record = {"seq": [int(v) for v in seq.split(",")]}
        code, out = run_batch(capsys, monkeypatch, [cmd.name, *argv, "--batch"],
                              ["{}", json.dumps(record)])
        answers = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(answers) == 2
        assert answers[0]["error"]["message"] == "missing field 'seq'"
        if "m" in fields:
            assert answers[1]["error"]["message"] == "missing field 'm'"
        else:
            assert "error" not in answers[1]


def test_deeply_nested_record_does_not_end_the_stream(capsys, monkeypatch):
    code, out = run_batch(
        capsys, monkeypatch,
        ["cohom", "--s", "1", "--batch"],
        ['{"seq": [1], "m": 1, "lambda": 2}', "[" * 100_000,
         '{"seq": [2], "m": 1, "lambda": 2}'],
    )
    assert code == 0
    first, bad, last = (json.loads(l) for l in out.splitlines())
    assert first == {"theta": 1, "delta": 0, "h0": 1, "h1": 0}
    assert bad["error"]["kind"] == "invalid_input"
    assert last == {"theta": 1, "delta": 0, "h0": 2, "h1": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--s", "1200", "--b", ",".join(["1"] + ["0"] * 1199),
         "--rank", "1"],
        ["tpq-quiver", "--p", "3", "--q", "1300", "--depth", "1",
         "--max-base-rank", "1", "--format", "json"],
    ],
    ids=["enumerate", "tpq-quiver"],
)
def test_long_cycles_give_a_result_or_a_structured_error(capsys, argv):
    code, out = run(capsys, *argv)
    lines = out.splitlines()
    if code == 0:
        assert "error" not in json.loads(out)
    else:
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "invalid_input"


LONG_CYCLE_B = ",".join(["1"] + ["0"] * 1199)


def test_a_long_cycle_enumerates_in_a_fresh_interpreter():
    # The candidate walk is deeper than the default recursion limit here.
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcm.cli", "enumerate", "--s", "1200",
         "--b", LONG_CYCLE_B, "--rank", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout[:200]
    assert len(json.loads(proc.stdout)["families"]) == 1201


def test_a_long_cycle_quiver_in_a_fresh_interpreter():
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcm.cli", "tpq-quiver", "--p", "3", "--q", "1500",
         "--depth", "1", "--max-base-rank", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout[:200]
    assert proc.stdout.startswith("digraph ")
    assert proc.stdout.rstrip().endswith("}")
