"""Command-line interface: exit codes, report contents, determinism, and
config-file handling."""

import json
import os

import numpy as np
import pytest

import hasts.cli
from conftest import sample_field, two_level_space
from hasts import meshio, samples
from hasts.basis import GlobalKnots
from hasts.cli import main

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def sample(name):
    return os.path.join(SAMPLES, name)


def read(path):
    with open(path) as f:
        return f.read()


def exit_code(argv):
    """The exit code of ``main``, also where argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# -- validate ------------------------------------------------------------------


def test_validate_suitable_mesh_exits_zero(tmp_path, capsys):
    rc = main(["validate", "--mesh", sample("tensor_4x4_p2.mesh"), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "analysis-suitable yes" in out
    report = read(tmp_path / "validate_report.txt")
    assert report == out
    assert "violation" not in report


def test_validate_unsuitable_mesh_exits_one(tmp_path, capsys):
    rc = main(["validate", "--mesh", sample("extension_unsuitable.mesh"), "--out", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "analysis-suitable no" in out
    assert "offending-pair" in out


def test_validate_unreadable_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    bad.write_text("not a mesh file\n")
    rc = main(["validate", "--mesh", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err
    rc = main(["validate", "--mesh", str(tmp_path / "missing.mesh"), "--out", str(tmp_path)])
    assert rc == 2


def test_validate_requires_mesh(tmp_path, capsys):
    rc = main(["validate", "--out", str(tmp_path)])
    assert rc == 2


def test_validate_help_names_mesh_files_only(tmp_path, capsys):
    """``validate`` reads only .mesh files, and its --mesh help says so; a
    hierarchy file is unreadable input to it."""
    assert exit_code(["validate", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--mesh MESH a .mesh file; extract and solve also take a .hier hierarchy file" in text
    assert main(["validate", "--mesh", sample("two_level_p2.hier"), "--out", str(tmp_path)]) == 2
    assert "bad header 'hasts-hierarchy 1'" in capsys.readouterr().err


# -- extract -------------------------------------------------------------------


def test_extract_mesh_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["extract", "--mesh", sample("index_vector_a.mesh"), "--out", str(out)])
        assert rc == 0
    assert read(out1 / "extraction.txt") == read(out2 / "extraction.txt")
    assert read(out1 / "extraction.txt").startswith("hasts-extraction 1\n")


def test_extract_hierarchy_file(tmp_path, capsys):
    """A hierarchy file is told from a mesh file by its first significant
    line, as the reader skips comments and blank lines: one that starts with
    them is read as a hierarchy by extract and by solve, like the plain
    file."""
    space = two_level_space(4, 2)
    text = meshio.dump_hierarchy(space.levels)
    for name, body in (("plain", text), ("commented", "# two levels\n\n   \n# p = 2\n" + text)):
        hier, out = tmp_path / f"{name}.hier", tmp_path / name
        hier.write_text(body)
        assert main(["extract", "--mesh", str(hier), "--out", str(out)]) == 0
        assert f"n_f {space.n_f} n_e {space.n_e}" in capsys.readouterr().out
        assert read(out / "extraction.txt").count("element ") == space.n_e
        args = ["--benchmark", "manufactured", "--tol", "1e-2", "--iterations", "1", "--out", str(out)]
        assert main(["solve", "--mesh", str(hier), *args]) == 0
        assert capsys.readouterr().out.startswith(f"iterations 1 n_f {space.n_f} n_e {space.n_e} ")
    assert read(tmp_path / "commented" / "extraction.txt") == read(tmp_path / "plain" / "extraction.txt")


def test_extract_matches_golden_dump(tmp_path, capsys):
    """The export of the shipped hierarchy matches a committed copy byte for
    byte, which pins every %.17g figure of C^e, weights and points."""
    rc = main(["extract", "--mesh", sample("two_level_p2.hier"), "--out", str(tmp_path)])
    assert rc == 0
    golden = os.path.join(os.path.dirname(__file__), "data", "two_level_p2.extraction.txt")
    with open(golden, "rb") as f:
        want = f.read()
    with open(tmp_path / "extraction.txt", "rb") as f:
        assert f.read() == want


def test_extract_rejects_unsuitable_mesh(tmp_path, capsys):
    rc = main(["extract", "--mesh", sample("extension_unsuitable.mesh"), "--out", str(tmp_path)])
    assert rc == 1
    assert "not analysis-suitable" in capsys.readouterr().err
    assert not (tmp_path / "extraction.txt").exists()


# -- solve ---------------------------------------------------------------------


def solve_args(tmp_path, *extra):
    return [
        "solve", "--benchmark", "manufactured", "--p", "2", "--elements", "4",
        "--tol", "1e-2", "--iterations", "2", "--out", str(tmp_path), *extra,
    ]


def test_solve_writes_history_and_fields(tmp_path, capsys):
    rc = main(solve_args(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("iterations ")
    history = read(tmp_path / "history.txt").strip().splitlines()
    assert history[0] == "# iteration n_f n_e total_estimate marked"
    n_iter = len(history) - 1
    for k in range(1, n_iter + 1):
        assert (tmp_path / f"field_{k:03d}.txt").exists()
        assert (tmp_path / f"elements_{k:03d}.txt").exists()
        assert (tmp_path / f"greville_{k:03d}.txt").exists()


def test_solve_deterministic_across_runs(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(solve_args(out)) == 0
    for name in os.listdir(out1):
        assert read(out1 / name) == read(out2 / name)


GOLDEN_SOLVES = {
    "skew45_p2": ["--p", "2", "--elements", "8"],
    "skew45_p3": ["--p", "3", "--elements", "4"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVES))
def test_solve_matches_golden_outputs(case, tmp_path, monkeypatch, capsys):
    """Three adaptive iterations of the skew benchmark.  History, element and
    Greville files match committed copies byte for byte; each field file
    matches the one-point-at-a-time reference sampler to 1e-14."""
    sampled = []

    def recording_sample_field(disc, coeffs, *args):
        sampled.append((disc, coeffs))
        return real_sample_field(disc, coeffs, *args)

    real_sample_field = hasts.cli.sample_field
    monkeypatch.setattr(hasts.cli, "sample_field", recording_sample_field)
    argv = ["solve", "--benchmark", "skew45", "--tol", "2e-3", "--iterations", "3"]
    assert main(argv + GOLDEN_SOLVES[case] + ["--out", str(tmp_path)]) == 0
    golden = os.path.join(os.path.dirname(__file__), "data", case)
    names = sorted(os.listdir(golden))
    assert len(names) == 7
    for name in names:
        with open(os.path.join(golden, name), "rb") as f:
            want = f.read()
        with open(tmp_path / name, "rb") as f:
            assert f.read() == want, name
    assert len(sampled) == 3
    for k, (disc, coeffs) in enumerate(sampled, start=1):
        got = np.loadtxt(tmp_path / f"field_{k:03d}.txt")
        want = np.column_stack([a.ravel() for a in sample_field(disc, coeffs)])
        assert np.abs(got - want).max() <= 1e-14


def test_solve_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "benchmark": "manufactured", "p": 2, "elements": 4,
        "tol": 1e-2, "iterations": 2,
    }))
    outa = tmp_path / "a"
    rc = main(["solve", "--config", str(cfg), "--out", str(outa)])
    assert rc == 0
    hist_a = read(outa / "history.txt")
    # the flag overrides the config entry: a huge tol stops after one iteration
    outb = tmp_path / "b"
    rc = main(["solve", "--config", str(cfg), "--tol", "10", "--out", str(outb)])
    assert rc == 0
    hist_b = read(outb / "history.txt").strip().splitlines()
    assert len(hist_b) == 2  # header + single iteration
    assert hist_a != "\n".join(hist_b)


@pytest.mark.parametrize("kappa", ["6.25e6", "5e6"])
def test_solve_at_tiny_peclet_number(tmp_path, kappa):
    """At Pe ~ 1e-8, coth(Pe) - 1/Pe cancelled to a negative or zero tau; the
    estimates must stay nonnegative and their total nonzero."""
    rc = main(["solve", "--benchmark", "skew45", "--kappa", kappa, "--elements", "8",
               "--iterations", "1", "--out", str(tmp_path)])
    assert rc == 0
    est = np.loadtxt(tmp_path / "elements_001.txt")[:, 5]
    assert (est >= 0).all()
    assert float(read(tmp_path / "history.txt").splitlines()[1].split()[3]) > 0


@pytest.mark.parametrize(
    "kappa, message",
    [
        ("nan", "diffusivity must be finite, not nan"),
        ("inf", "diffusivity must be finite, not inf"),
        ("1e200", "linear solve residual nan exceeds 1e-10"),
        ("1e300", "error estimate of level 1 element (3, 4, 3, 4) is inf, not finite"),
        ("1e308", "linear solve failed: Factor is exactly singular"),
    ],
)
def test_solve_refuses_diffusivity_it_cannot_use(kappa, message, tmp_path, capsys):
    """A diffusivity that is not finite is refused by the problem; one whose
    stiffness matrix overflows to a singular factor or to a residual that is
    not finite is refused by the linear solve, and one whose error estimates
    overflow by the estimator.  Each exits 1 with one error line, no warning
    and no traceback, and writes nothing."""
    out = tmp_path / "out"
    assert main(["solve", "--elements", "2", "--iterations", "1", "--kappa", kappa, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solve_rejects_bad_parameters(tmp_path, capsys):
    assert main(solve_args(tmp_path, "--tol", "-1")) == 1
    assert main(solve_args(tmp_path, "--max-levels", "0")) == 1
    assert exit_code(["solve", "--benchmark", "none", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(solve_args(tmp_path, "--iterations", "0")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    for elements in ("0", "-3"):
        assert main(solve_args(tmp_path, "--elements", elements)) == 1
        assert capsys.readouterr().err == "error: elements must be >= 1\n"


def invalid_mesh_file(path):
    """A 4x4 biquadratic mesh with an L-shaped cell around (4, 4)."""
    mesh = samples.tensor_mesh(4, 4, 2, 2).without_segments(hsegs=[(4, 5)], vsegs=[(5, 4)])
    path.write_text(meshio.dump_mesh(mesh, GlobalKnots.uniform_open(mesh.m, 2), GlobalKnots.uniform_open(mesh.n, 2)))
    return str(path)


TENSOR = sample("tensor_4x4_p3.mesh")
UNSUITABLE = sample("extension_unsuitable.mesh")

# argv, config entries, exit code and a line of stderr; "INVALID" stands for
# a mesh with an L-shaped cell
CLASH = "sets the tensor start and cannot be combined with --mesh"
CONTRACT_CASES = {
    "validate-flag": (["validate", "--mesh", TENSOR, "--tol", "5"], None, 2, "unrecognized arguments: --tol 5"),
    "validate-key": (["validate", "--mesh", TENSOR], {"tol": 5}, 2, "unknown config keys ['tol']"),
    "extract-flag": (["extract", "--mesh", TENSOR, "--p", "2"], None, 2, "unrecognized arguments: --p 2"),
    "extract-key": (["extract", "--mesh", TENSOR], {"benchmark": "skew45"}, 2, "unknown config keys ['benchmark']"),
    "solve-flag": (["solve", "--seed", "1"], None, 2, "unrecognized arguments: --seed 1"),
    "solve-key": (["solve"], {"seed": 1}, 2, "unknown config keys ['seed']"),
    "solve-mesh-flag-p": (["solve", "--mesh", TENSOR, "--p", "2"], None, 2, "--p " + CLASH),
    "solve-mesh-key-elements": (["solve", "--mesh", TENSOR], {"elements": 2}, 2, "--elements " + CLASH),
    "solve-key-mesh-flag-q": (["solve", "--q", "2"], {"mesh": TENSOR}, 2, "--q " + CLASH),
    "solve-unsuitable": (["solve", "--mesh", UNSUITABLE], None, 1, "error: level 1 mesh is not analysis-suitable"),
    "solve-invalid": (
        ["solve", "--mesh", "INVALID"], None, 1,
        "error: level 1 invalid: non-rectangular-cell at (4, 4): cell component is not a rectangle",
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_each_command_reads_only_its_options(case, tmp_path, capsys):
    """An option a command does not declare, by flag or by config key, and a
    tensor-start option next to a mesh file exit 2; a mesh that extract
    rejects stops solve with extract's error line, and neither writes."""
    argv, config, code, line = CONTRACT_CASES[case]
    argv = [invalid_mesh_file(tmp_path / "l_cell.mesh") if a == "INVALID" else a for a in argv]
    out = tmp_path / "out"
    argv += ["--out", str(out)]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "run.json")]
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert err.endswith(line + "\n")
    if code == 1:
        assert exit_code(["extract", "--mesh", argv[2], "--out", str(out)]) == 1
        assert capsys.readouterr().err == err == line + "\n"
    assert not out.exists()


def test_config_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for key in ("typo", "seed", "beta"):
        cfg.write_text(json.dumps({"benchmark": "manufactured", key: 1}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    cfg.write_text("{not json")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for text in (
        '{"tol": "0.01"}',
        '{"max_levels": null}',
        '{"elements": 2.5}',
        '{"p": true}',
        '{"benchmark": "foo"}',
        "[1, 2]",
    ):
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2, text
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("parse error: "), text
    # an integer is a valid float; null keeps a null default
    cfg.write_text('{"tol": 1, "q": null, "kappa": null}')
    args = hasts.cli.build_parser().parse_args(["solve", "--config", str(cfg)])
    resolved = hasts.cli.resolve_config(args)
    assert type(resolved["tol"]) is float and resolved["kappa"] is None and resolved["q"] == 2


def test_knots_off_the_unit_interval_are_a_parse_error(tmp_path, capsys):
    # a 4x4 biquadratic mesh whose knots run from 0 to 2
    mesh = samples.tensor_mesh(4, 4, 2, 2)
    text = meshio.dump_mesh(mesh, GlobalKnots.uniform_open(mesh.m, 2), GlobalKnots.uniform_open(mesh.n, 2))
    lines = text.splitlines()
    for i in (2, 3):
        kw, *vals = lines[i].split()
        lines[i] = " ".join([kw] + [meshio.fmt(2 * float(v)) for v in vals])
    path = tmp_path / "k02.mesh"
    path.write_text("\n".join(lines) + "\n")
    for cmd in (["solve", "--benchmark", "skew45", "--iterations", "1"], ["extract"]):
        capsys.readouterr()
        assert main(cmd + ["--mesh", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("parse error: line 3: ")


def test_solve_on_mesh_file_start(tmp_path, capsys):
    rc = main([
        "solve", "--mesh", sample("tensor_4x4_p2.mesh"), "--benchmark", "manufactured",
        "--tol", "1e-2", "--iterations", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "history.txt").exists()
