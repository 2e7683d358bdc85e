import ast
import hashlib
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dehnlab import cli
from dehnlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_z2_n4(capsys):
    code, out, _ = run_cli(capsys, "count", "--group", "z2", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# dehnlab config=")
    assert lines[1].startswith("# config_hash=")
    assert lines[2] == "n,vertex,count"
    assert "4,(0,0),36" in lines
    # mass conservation over the emitted rows
    total = sum(int(l.rsplit(",", 1)[1]) for l in lines[3:])
    assert total == 4**4


def test_count_nonbacktracking(capsys):
    code, out, _ = run_cli(capsys, "count", "--group", "z2", "--n", "4", "--nonbacktracking")
    assert code == 0
    assert "4,(0,0),8" in out.splitlines()


def test_count_torsion_vertex_format(capsys):
    code, out, _ = run_cli(capsys, "count", "--group", "z10", "--n", "10")
    assert code == 0
    assert any(line.startswith("10,(;0),") for line in out.splitlines())


def test_cogrowth_table(capsys):
    code, out, _ = run_cli(capsys, "cogrowth", "--n-max", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "n,g_n,f_n,ratio"
    f4 = [l for l in lines if l.startswith("4,")]
    assert f4 and f4[0].startswith("4,36,8,")


def test_cogrowth_table_640_digest(capsys):
    # The counting benchmark pins the same SHA-256 of the header and data rows.
    code, out, _ = run_cli(capsys, "cogrowth", "--n-max", "640")
    assert code == 0
    data = "".join(l + "\n" for l in out.splitlines() if l and not l.startswith("#"))
    assert data.count("\n") == 322
    assert hashlib.sha256(data.encode()).hexdigest() == (
        "9a4fc365896bb72fb2c2dd232644393df0e325c1521c79fc025d45d63d9cbe88"
    )


def test_dehn_exact_smean(capsys):
    code, out, _ = run_cli(
        capsys, "dehn", "--group", "z2", "--kind", "smean", "--n", "4", "--exact"
    )
    assert code == 0
    row = out.splitlines()[3]
    assert row.startswith("4,smean,2/9,")


def test_dehn_exact_smean_zxz2_n8(capsys):
    code, out, _ = run_cli(capsys, "dehn", "--group", "zxz2", "--kind", "smean", "--n", "8")
    assert code == 0
    assert out.splitlines()[3].startswith("8,smean,9092/6435,")


def test_dehn_exact_smean_z3_n8(capsys):
    # (count, sum, max) = (44730, 53712, 5) over the closed words of length 8
    code, out, _ = run_cli(capsys, "dehn", "--group", "z3", "--kind", "smean", "--n", "8")
    assert code == 0
    assert out.splitlines()[3].startswith("8,smean,2984/2485,")


def test_dehn_D_z2_closed_form_at_n_1000(capsys):
    # floor(1000^2 / 16), from the closed form: 4^1000 words are never listed
    code, out, _ = run_cli(capsys, "dehn", "--group", "z2", "--kind", "D", "--n", "1000")
    assert code == 0
    assert out.splitlines()[3].startswith("1000,D,62500,")


def test_dehn_D_z2_builds_only_the_report_asked_for(capsys):
    # one O(1) report for n = 10^9, not the 10^9 + 1 reports of every length up to it
    code, out, _ = run_cli(capsys, "dehn", "--group", "z2", "--kind", "D", "--n", "1000000000")
    assert code == 0
    assert out.splitlines()[3].split(",")[:3] == ["1000000000", "D", "62500000000000000"]


def test_dehn_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "dehn", "--group", "z2", "--kind", "osmean", "--n", "4",
        "--samples", "500", "--seed", "9", "--emit", "json",
    )
    assert code == 0
    doc = json.loads(out)
    rep = doc["report"]
    assert rep["n"] == 4 and rep["kind"] == "osmean"
    assert set(rep["value"]) == {"estimate", "ci_low", "ci_high", "samples", "seed"}
    assert rep["value"]["samples"] == 500 and rep["value"]["seed"] == 9
    assert "normalized" in rep
    assert doc["config"]["combing"] == "staircase"


@pytest.mark.parametrize("kind", ["osmean", "smean"])
def test_dehn_one_sample_has_no_interval(capsys, kind):
    # one sample has no spread: strict JSON null and empty CSV fields, never NaN
    argv = ["dehn", "--group", "z2", "--kind", kind, "--n", "8", "--samples", "1", "--seed", "3"]
    code, out, _ = run_cli(capsys, *argv, "--emit", "json")
    assert code == 0

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    value = json.loads(out, parse_constant=no_constants)["report"]["value"]
    assert value["ci_low"] is None and value["ci_high"] is None
    assert value["samples"] == 1 and value["estimate"] >= 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.splitlines()[2:4])))
    assert (row["ci_low"], row["ci_high"], row["samples"]) == ("", "", "1")


def test_dehn_sampling_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "dehn", "--group", "z2", "--kind", "osmean", "--n", "4", "--samples", "10"
    )
    assert code == 2
    assert "seed" in err


def test_dehn_lazy_kind(capsys):
    code, out, _ = run_cli(capsys, "dehn", "--group", "z2", "--kind", "lazy", "--n", "4")
    assert code == 0
    assert "4,lazy-mean,8/61," in out


def test_area_subcommand(capsys, monkeypatch, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("a1 a2 A1 A2\na1 A1\n")
    code, out, _ = run_cli(capsys, "area", "--group", "z2", "--words-file", str(words))
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "word,lower,upper,exact"
    assert lines[3] == "a1.a2.A1.A2,1,1,true"
    assert lines[4] == "a1.A1,0,0,true"


def test_area_rejects_open_word(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("a1 a2\n")
    code, _, err = run_cli(capsys, "area", "--group", "z2", "--words-file", str(words))
    assert code == 2
    assert "closed" in err or "trivial" in err


def test_bad_group_is_config_error(capsys):
    code, _, err = run_cli(capsys, "count", "--group", "nope", "--n", "2")
    assert code == 2
    assert "builtin" in err


def test_count_over_the_frame_budget_exits_3(capsys):
    code, _, err = run_cli(capsys, "count", "--group", "z3", "--n", "100")  # 201^3 cells
    assert code == 3
    assert "budget" in err


def test_negative_length_is_config_error(capsys):
    for group, kind in (("z2", "smean"), ("z3", "smean"), ("zxz2", "mean"), ("z2", "D")):
        code, _, err = run_cli(capsys, "dehn", "--group", group, "--kind", kind, "--n", "-1")
        assert code == 2
        assert "--n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--group", "z2", "--n", "-1"),
        ("cogrowth", "--n-max", "-4"),
        ("dehn", "--group", "z2", "--kind", "osmean", "--n", "4", "--samples", "0", "--seed", "1"),
        ("dehn", "--group", "z2", "--kind", "smean", "--n", "4", "--samples", "-3", "--seed", "1"),
    ],
)
def test_nonsense_sizes_are_config_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--n" in err or "--samples" in err


@pytest.mark.parametrize("kind", ["smean", "osmean"])
def test_sampled_dehn_off_z2_names_the_samplers(capsys, kind):
    # the samplers' own check comes before the default combing can refuse zxz2
    code, out, err = run_cli(
        capsys, "dehn", "--group", "zxz2", "--kind", kind, "--n", "4", "--samples", "10", "--seed", "1"
    )
    assert code == 2
    assert out == ""
    assert "samplers are implemented for the standard Z^2 presentation" in err


def test_exact_osmean_off_z2_names_the_combing_that_works(capsys):
    code, out, err = run_cli(capsys, "dehn", "--group", "zxz2", "--kind", "osmean", "--n", "4")
    assert code == 2
    assert out == ""
    assert "staircase needs a standard free-abelian presentation; use bfs-lex" in err
    argv = ("dehn", "--group", "zxz2", "--kind", "osmean", "--n", "4", "--combing", "bfs-lex")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "35/32" in out


def test_dehn_single_sample(capsys):
    code, out, _ = run_cli(
        capsys, "dehn", "--group", "z2", "--kind", "osmean", "--n", "4", "--samples", "1", "--seed", "1"
    )
    assert code == 0
    assert out.splitlines()[3].startswith("4,osmean,,")


def test_budget_exhaustion_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "dehn", "--group", "z2", "--kind", "smean", "--n", "40", "--exact"
    )
    assert code == 3
    assert "budget" in err.lower()


def test_byte_identical_reruns(capsys, tmp_path):
    argv = [
        "dehn", "--group", "z2", "--kind", "osmean", "--n", "6",
        "--samples", "400", "--seed", "31", "--emit", "json",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    out_path = tmp_path / "a.json"
    code = main(argv + ["--output", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out1


def test_output_file_and_headers(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    code = main(["count", "--group", "z2", "--n", "2", "--output", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.startswith("# dehnlab config=")
    assert "config_hash" in text


def test_version_banner():
    proc = subprocess.run(
        [sys.executable, "-m", "dehnlab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PCG64" in proc.stdout
    assert "K_1d=1.35" in proc.stdout
    assert "2.7" in proc.stdout
    assert "staircase" in proc.stdout


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_entry_point():
    """The declared console script, run from source as the installed stub runs it."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["dehnlab"]
    assert target == "dehnlab.cli:main"
    module, func = target.split(":")
    stub = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'dehnlab'\n"
        f"sys.exit({func}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", stub, "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("dehnlab ")


@pytest.mark.skipif(shutil.which("dehnlab") is None, reason="dehnlab is not installed on PATH")
def test_installed_console_script():
    proc = subprocess.run(["dehnlab", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("dehnlab ")


def test_threads_flag_rejected(capsys):
    # the worker-cap flag was never read, so the parser no longer offers it
    with pytest.raises(SystemExit) as exc:
        main(["count", "--group", "z2", "--n", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# Runs each command in one fresh interpreter (pytest itself holds numpy) and
# prints, after `import dehnlab` and after each command, whether numpy is loaded.
STARTUP_PROBE = """
import contextlib, io, json, sys
import dehnlab
from dehnlab.cli import main
seen = [["import dehnlab", None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    seen.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_numpy_free_commands_do_not_import_numpy(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("a1 a2 A1 A2\n")
    numpy_free = [
        ["--version"],
        ["cogrowth", "--n-max", "20"],
        ["area", "--group", "z3", "--words-file", str(words)],
        ["area", "--group", "zxz2", "--words-file", str(words)],
        ["dehn", "--group", "zxz2", "--kind", "smean", "--n", "4"],
        ["dehn", "--group", "zxz2", "--kind", "D", "--n", "6"],
        ["dehn", "--group", "z2", "--kind", "D", "--n", "6"],
        ["dehn", "--group", "z2", "--kind", "D", "--n", "1000"],
        ["dehn", "--group", "z2", "--kind", "D", "--n", "1000000000"],
    ]
    control = ["count", "--group", "z2", "--n", "4"]
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(numpy_free + [control])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [["import dehnlab", None, False]]
    expected += [[" ".join(argv), 0, False] for argv in numpy_free]
    expected += [[" ".join(control), 0, True]]  # the dense walk counts do load it
    assert json.loads(proc.stdout) == expected


TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def _traced_entry_points() -> dict:
    """`CLI_ENTRY_POINTS` of the traced benchmark, read without importing it."""
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "CLI_ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("CLI_ENTRY_POINTS not found")


def test_traced_entry_points_are_cli_module_attributes():
    names = _traced_entry_points()
    assert names
    for name, layer in names.items():
        module = importlib.import_module(f"dehnlab.{layer}")
        assert getattr(cli, name) is getattr(module, name), name


def test_cli_calls_layers_through_its_module_names(capsys, monkeypatch, tmp_path):
    # a traced run replaces these names on dehnlab.cli and must see every call
    calls = []

    def recording(fn):
        def wrapper(*args, **kw):
            calls.append(fn.__name__)
            return fn(*args, **kw)

        return wrapper

    dehn_routes = [
        ("D", [], "dehn_exact"),
        ("mean", [], "mean_exact"),
        ("lazy", [], "lazy_mean"),
        ("smean", [], "smean_exact"),
        ("osmean", [], "osmean_exact"),
        ("smean", ["--samples", "10", "--seed", "1"], "smean_sampled"),
        ("osmean", ["--samples", "10", "--seed", "1"], "osmean_sampled"),
    ]
    for name in ["f_recurrence", "closed_area_result"] + [fn for _, _, fn in dehn_routes]:
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    words = tmp_path / "words.txt"
    words.write_text("a1 a2 A1 A2\na1 A1\n")
    assert run_cli(capsys, "cogrowth", "--n-max", "8")[0] == 0
    assert run_cli(capsys, "area", "--group", "zxz2", "--words-file", str(words))[0] == 0
    assert calls == ["f_recurrence", "closed_area_result", "closed_area_result"]
    for kind, extra, fn in dehn_routes:
        calls.clear()
        argv = ["dehn", "--group", "z2", "--kind", kind, "--n", "4", *extra]
        assert run_cli(capsys, *argv)[0] == 0, argv
        assert calls == [fn], argv
