import argparse
import functools
import itertools
import json
import math
import operator
import os
import re
import resource
import shlex
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc import cli, quadrature, statevector
from latcirc.cli import run
from latcirc.errors import EXIT_PREFIXES, ConvergenceFailure
from latcirc.kinematics import LatticeParams
from latcirc.propagator import contour_identity_residual, equal_time


def read_hash_and_body(path):
    text = path.read_text()
    first, _, rest = text.partition("\n")
    assert first.startswith("# config_hash=")
    return first[len("# config_hash=") :], rest


def test_dispersion_csv(tmp_path):
    out = tmp_path / "disp.csv"
    assert run(["dispersion", "--a", "0.1", "--m", "1", "--L", "256", "--out", str(out)]) == 0
    _, body = read_hash_and_body(out)
    lines = body.strip().split("\n")
    assert lines[0] == "p,theta,omega,E,E_latt"
    assert len(lines) == 257
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # momenta inside the zone, sorted ascending
    assert rows[:, 0].min() > -math.pi / 0.1 and rows[:, 0].max() <= math.pi / 0.1 + 1e-12
    assert np.all(np.diff(rows[:, 0]) > 0)
    # Fig.-2 behavior straight from the emitted table
    half = rows[rows[:, 0] >= 0]
    rel_theta = np.abs(half[:, 1] - half[:, 3]) / half[:, 3]
    assert rel_theta.max() < 0.05


def test_dispersion_csv_at_m_a_one_with_extreme_m_and_a(tmp_path):
    # m^2 and a^2 overflow and underflow on their own; M and the energies form m a and hypots
    out = tmp_path / "disp.csv"
    argv = ["dispersion", "--a", "1e-200", "--m", "1e200", "--L", "8", "--out", str(out)]
    assert run(argv) == 0
    _, body = read_hash_and_body(out)
    rows = np.array([[float(v) for v in line.split(",")] for line in body.strip().split("\n")[1:]])
    assert rows.shape == (8, 5) and np.isfinite(rows).all()
    # theta(0) = arccos(M)/a with M = 1/2
    assert rows[rows[:, 0] == 0.0][0, 1] == pytest.approx(math.pi / 3 * 1e200, rel=1e-14)


@pytest.mark.parametrize("flags", [["--m", "0"], ["--m", "25", "--a", "0.1"]],
                         ids=["massless", "m_a_above_two"])
def test_degenerate_dispersion_names_both_conditions(tmp_path, capsys, flags):
    # at m a = 2.5, M = -2.125: the line used to blame m > 0, which holds there
    out = tmp_path / "disp.csv"
    assert run(["dispersion", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("real theta requires m > 0 and m a < 2\n")
    assert not out.exists()


def test_movers_json(tmp_path):
    out = tmp_path / "movers.json"
    assert run(["movers", "--L", "8", "--out", str(out)]) == 0
    _, body = read_hash_and_body(out)
    payload = json.loads(body)
    assert payload["residual"] < 1e-12
    assert payload["params"]["m"] == 0.0


def test_lightcone_json(tmp_path):
    out = tmp_path / "cone.json"
    assert run(["lightcone", "--m", "0", "--tau", "3", "--L", "32", "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    assert payload["radius"] == 3


def test_lightcone_long_chain(tmp_path):
    # the cone evolves start columns through the stencil, never a dense 2L x 2L map
    out = tmp_path / "cone.json"
    assert run(["lightcone", "--L", "1000000", "--tau", "3", "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    assert 0 < payload["radius"] <= 6


def test_propagator_csv(tmp_path):
    out = tmp_path / "prop.csv"
    assert run(["propagator", "--L", "8", "--out", str(out)]) == 0
    _, body = read_hash_and_body(out)
    lines = body.strip().split("\n")
    assert lines[0] == "p0,p1,re,im"
    assert len(lines) == 65


def test_oneloop_csv_normalization(tmp_path):
    out = tmp_path / "oneloop.csv"
    code = run(
        ["oneloop", "--lambda", "1", "--m", "1", "--a-series", "0.2,0.1,0.05,0.025",
         "--out", str(out)]
    )
    assert code == 0
    _, body = read_hash_and_body(out)
    lines = body.strip().split("\n")
    assert lines[0].split(",") == [
        "a", "pi_cont", "pi_shift_plain", "pi_shift_smeared",
        "pi_cont_norm", "pi_shift_plain_norm", "pi_shift_smeared_norm",
    ]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # normalized columns agree (= 0) at the largest lattice spacing
    largest = rows[np.argmax(rows[:, 0])]
    assert np.all(largest[4:] == 0.0)


def test_pathint_check_json(tmp_path):
    out = tmp_path / "pathint.json"
    assert run(["pathint-check", "--n-points", "16", "--tau", "2", "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    assert payload["rel_errors"]["path"] < 1e-12
    assert payload["rel_errors"]["action"] < 1e-10  # dual grid default


def test_pathint_check_beyond_dense_cap(tmp_path):
    # dim 16^4 = 65536 is past the dense-step cap; the tau = 2 sum has 65536 terms
    out = tmp_path / "pathint.json"
    argv = ["pathint-check", "--L", "4", "--n-points", "16", "--tau", "2", "--out", str(out)]
    assert run(argv) == 0
    assert json.loads(read_hash_and_body(out)[1])["rel_errors"]["path"] <= 1e-12


# The child reads its own peak, VmHWM (in KiB), which counts only the address space it
# built after exec: Linux carries ru_maxrss over from the forking process, so a large
# test process would set the child's ru_maxrss.
PEAK_RSS_CHILD = """
import sys
from latcirc import perturbation, quadrature
from latcirc.cli import run
code = run(sys.argv[1:])
with open("/proc/self/status") as status:
    (peak,) = [line.split()[1] for line in status if line.startswith("VmHWM:")]
print(code, peak)
"""


@pytest.mark.parametrize("argv", [
    ["pathint-check", "--n-points", "64", "--tau", "2"],
    ["pathint-check", "--L", "3", "--n-points", "16", "--tau", "2"],
    ["movers", "--L", "100000"],
])
def test_peak_memory(tmp_path, argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, *argv, "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert child.returncode == 0, child.stderr[-500:]
    code, peak_kib = child.stdout.split()
    assert code == "0", child.stderr
    assert int(peak_kib) / 1024 < 200


def _limit_address_space():
    limit = 2 * 2**30  # room for the interpreter and numpy, far below each request
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ["movers", "--L", "1000000000"],
    ["dispersion", "--L", "1000000000"],
    ["lightcone", "--L", "1000000000"],
    ["propagator", "--L", "100000"],
])
def test_oversized_inputs_capped_before_allocation(tmp_path, argv):
    # with 2 GiB of address space, an allocation made before the budget check
    # would end in a MemoryError traceback and exit 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    child = subprocess.run(
        [sys.executable, "-m", "latcirc.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        preexec_fn=_limit_address_space, timeout=120)
    assert child.returncode == 3, child.stderr[-500:]
    assert child.stderr.startswith("resource cap exceeded: ")
    assert child.stderr.count("\n") == 1
    assert not out.exists()


def test_pathint_check_refuses_path_sum_before_any_state(tmp_path, monkeypatch, capsys):
    def no_state(*args):
        raise AssertionError("a state vector was built before the path-term check")

    monkeypatch.setattr(statevector, "amplitude_circuit", no_state)
    monkeypatch.setattr(statevector, "CircuitStep", no_state)
    out = tmp_path / "pathint.json"
    assert run(["pathint-check", "--L", "4", "--tau", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap exceeded: brute-force sum terms") and err.count("\n") == 1
    assert not out.exists()


def joined_csv_reference(path, config, header, columns):
    """The writer that formats every row into one joined string: the byte reference."""
    rows = np.column_stack([np.ravel(c) for c in columns]).tolist()
    row_format = ",".join(["%.17g"] * len(header))
    lines = [f"# config_hash={cli._config_hash(config)}", ",".join(header)]
    lines.extend(row_format % tuple(row) for row in rows)
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# no NaN or inf: the writer refuses them (test_writers_refuse_non_finite_values)
SPECIAL_VALUES = [0.0, -0.0, 1.0, -3.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                  math.pi, 0.1]


@pytest.mark.parametrize("rows", [0, 1, 7, cli._CSV_CHUNK_ROWS - 1, cli._CSV_CHUNK_ROWS,
                                  cli._CSV_CHUNK_ROWS + 1, 2 * cli._CSV_CHUNK_ROWS + 6])
@pytest.mark.parametrize("n_columns", [1, 4, 7])
def test_streamed_csv_equals_joined_reference(tmp_path, rows, n_columns):
    rng = np.random.default_rng(rows * 10 + n_columns)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
               for _ in range(n_columns)]
    columns[0][: len(SPECIAL_VALUES)] = SPECIAL_VALUES[:rows]
    if rows % 2 == 0 and rows:  # a 2-d column and a list column are flattened alike
        columns[-1] = columns[-1].reshape(2, -1)
        columns[0] = columns[0].tolist()
    header = [f"c{j}" for j in range(n_columns)]
    config = {"rows": rows, "n_columns": n_columns}
    cli._write_csv(str(tmp_path / "streamed.csv"), config, header, columns)
    joined_csv_reference(str(tmp_path / "joined.csv"), config, header, columns)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


def test_cli_csv_artifacts_equal_joined_reference(tmp_path, monkeypatch):
    cases = {
        "dispersion": ["dispersion", "--L", "2048"],
        "dispersion_config": ["dispersion", "--a", "0.3", "--m", "0.7", "--L", "40000"],
        "propagator": ["propagator", "--L", "64"],
        "propagator_chunks": ["propagator", "--L", "300", "--epsilon", "0.01"],
        "oneloop": ["oneloop", "--a-series", "0.2,0.1"],
    }
    streamed = {name: _cli_bytes(tmp_path, argv, name) for name, argv in cases.items()}
    monkeypatch.setattr(cli, "_write_csv", joined_csv_reference)
    assert {name: _cli_bytes(tmp_path, argv, name) for name, argv in cases.items()} == streamed


def test_gauge_check_json(tmp_path):
    out = tmp_path / "gauge.json"
    assert run(["gauge-check", "--tau", "1", "--pairs", "3", "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    assert payload["deviation"] < 1e-10
    assert "gauss_commutator_max" not in payload
    assert 0.0 < payload["wel_unitarity_deviation"] < 1.0


def test_gauge_check_n3_matrix_free(tmp_path):
    out = tmp_path / "gauge3.json"
    assert run(["gauge-check", "--N", "3", "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    assert payload["deviation"] < 1e-10


def test_gauge_check_n1_link_axes(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["gauge-check", "--N", "1", "--lx", "6", "--ly", "6", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap exceeded: link tensor axes") and err.count("\n") == 1
    assert not out.exists()
    assert run(["gauge-check", "--N", "1", "--lx", "4", "--ly", "4", "--tau", "3",
                "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    expected = np.exp(-2j * (3 * 16 * 1.0 + 3 * 32 / 1.0))  # as test_equiv_check_n1_closed_form
    assert complex(*payload["lhs"]) == pytest.approx(expected, rel=1e-12)
    assert payload["deviation"] < 1e-13


@pytest.mark.parametrize("tau", [1, 2])
def test_gauge_check_n1_at_64_links(tmp_path, tau):
    # 4 x 8 sites carry 64 links, as many axes as numpy allows; the one configuration's
    # index is a Python-int sum, so the run needs no numpy index call of 64 arrays
    out = tmp_path / "g.json"
    assert run(["gauge-check", "--N", "1", "--lx", "4", "--ly", "8", "--tau", str(tau),
                "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    expected = np.exp(-2j * (tau * 32 * 1.0 + tau * 64 / 1.0))  # 32 plaquettes, 64 links
    assert complex(*payload["lhs"]) == pytest.approx(expected, rel=1e-12)
    assert payload["deviation"] < 1e-13


def test_renorm_cli(tmp_path):
    from latcirc.kinematics import LatticeParams, dispersion_theta

    base = LatticeParams(a=0.1, m=1.0)
    targets = [dispersion_theta(base, p) for p in (0.3, 0.6, 0.9)]
    problem = {
        "a": 0.1,
        "m": 1.0,
        "observables": [{"kind": "dispersion_theta", "p": p} for p in (0.3, 0.6, 0.9)],
        "targets": targets,
        "init": {"m": 1.3},
        "eta": 0.05,
        "tol": 1e-8,
        "max_iters": 500,
    }
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(problem))
    out = tmp_path / "renorm.json"
    assert run(["renorm", "--problem", str(problem_path), "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    assert payload["converged"] is True
    assert abs(payload["final"]["m"] - 1.0) < 1e-3


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"a": 0.2, "m": 2.0, "L": 8}))
    out1 = tmp_path / "a.csv"
    assert run(["dispersion", "--config", str(cfg_path), "--out", str(out1)]) == 0
    rows = out1.read_text().strip().split("\n")[2:]
    first_p = float(rows[0].split(",")[0])
    assert abs(first_p) < math.pi / 0.2 + 1e-12  # zone of a = 0.2
    # flags override the file
    out2 = tmp_path / "b.csv"
    assert run(["dispersion", "--config", str(cfg_path), "--a", "0.1", "--out", str(out2)]) == 0
    assert read_hash_and_body(out1)[0] != read_hash_and_body(out2)[0]
    # unknown config keys are a validation error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    assert run(["dispersion", "--config", str(bad), "--out", str(tmp_path / "c.csv")]) == 1


def test_exit_codes(tmp_path):
    assert run(["nosuchcommand"]) == 1
    assert run(["dispersion"]) == 1  # missing --out
    # m = 0 makes the dispersion table degenerate at p = 0: validation error
    assert run(["dispersion", "--m", "0", "--out", str(tmp_path / "x.csv")]) == 1
    # non-finite parameters are a validation error, not an all-NaN table
    assert run(["dispersion", "--m", "nan", "--out", str(tmp_path / "nan.csv")]) == 1
    assert not (tmp_path / "nan.csv").exists()
    assert run(["propagator", "--epsilon", "nan", "--out", str(tmp_path / "eps.csv")]) == 1
    # missing input files end in a message too
    assert run(["renorm", "--problem", str(tmp_path / "none.json"),
                "--out", str(tmp_path / "r.json")]) == 1
    # a renorm problem file must hold a JSON object
    (tmp_path / "list.json").write_text("[1]")
    assert run(["renorm", "--problem", str(tmp_path / "list.json"),
                "--out", str(tmp_path / "r.json")]) == 1
    # resource cap: cone wrap-around
    assert run(["lightcone", "--tau", "5", "--L", "8", "--out", str(tmp_path / "y.json")]) == 3


# one run per kind of failure the CLI can reach, with its exact stderr line; "renorm"
# stands for a problem whose bare mass starts negative
FAILURE_LINES = [
    (["dispersion", "--m", "0"], 1, "error: |c(p)| = 1.0 >= 1; real theta requires m > 0 and m a < 2"),
    (["renorm"], 1, "error: observable failed at {'m': -0.5}: m must be finite and nonnegative, "
                    "got -0.5"),
    (["lightcone", "--kind", "Strang", "--a=1e300"], 2, "numerical convergence failure: the light "
     "cone's coefficients are not all finite after 3 steps"),
    (["gauge-check", "--lx", "1", "--ly", "40"], 3, "resource cap exceeded: link tensor axes: 80 "
     "exceeds the cap 64"),
    (["pathint-check", "--tau", "100000"], 3, "resource cap exceeded: brute-force sum terms: "
     "~10^240822 exceeds the cap 100000000"),
    (["lightcone", "--tau", "5", "--L", "8"], 3, "resource cap exceeded: 4*tau + 3 sites to rule "
     "out wrap-around, against L: 23 exceeds the cap 8"),
    (["pathint-check", "--dt=1e-160"], 2, "numerical convergence failure: the action-form "
     "measure (sqrt(i/(2 pi kappa)) delta_phi)^(tau L) ~10^317 is past the float range"),
]


@pytest.mark.parametrize("argv, code, line", FAILURE_LINES, ids=[
    "-".join([argv[0], str(code), str(i)]) for i, (argv, code, _) in enumerate(FAILURE_LINES)])
def test_failure_exit_code_and_line(tmp_path, capsys, argv, code, line):
    out = tmp_path / "out"
    if argv == ["renorm"]:
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({**SMALL_PROBLEM, "init": {"m": -0.5}}))
        argv = ["renorm", "--problem", str(problem)]
    assert run(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def _column_computed(*args, **kwargs):
    raise RuntimeError("a table column was computed before its text was bounded")


def test_table_text_is_bounded_before_the_file_opens(tmp_path, capsys, monkeypatch):
    # at 25 bytes a value, dispersion --L 64 holds 8000 bytes of table text, propagator --L 8
    # 6400 and oneloop with 35 spacings 6125: each refused before any column is computed
    monkeypatch.setattr(cli, "BYTE_BUDGET", 6000)
    for module, name in ((cli.kinematics, "momentum_grid"), (cli.propagator, "feynman_momentum"),
                         (cli.perturbation, "one_loop_mass")):
        monkeypatch.setattr(module, name, _column_computed)
    out = tmp_path / "out.csv"
    for argv, rows, text in ((["dispersion", "--L", "64"], 64, 8000),
                             (["propagator", "--L", "8"], 64, 6400),
                             (["oneloop", "--a-series", ",".join(["0.1"] * 35)], 35, 6125)):
        assert run([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"resource cap exceeded: bytes of table text in {rows} "
                                           f"rows: {text} exceeds the cap 6000\n")
        assert not out.exists()


def test_byte_identical_reruns(tmp_path):
    cases = [
        ["dispersion", "--a", "0.1", "--m", "1", "--L", "32"],
        ["movers", "--L", "4"],
        ["lightcone", "--tau", "2", "--L", "16"],
        ["propagator", "--L", "4"],
        ["oneloop", "--a-series", "0.2,0.1,0.05,0.02"],
        ["pathint-check", "--n-points", "12"],
        ["gauge-check", "--tau", "1", "--pairs", "2", "--seed", "7"],
    ]
    for idx, argv in enumerate(cases):
        first = tmp_path / f"run{idx}_a.out"
        second = tmp_path / f"run{idx}_b.out"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv[0]


@pytest.mark.parametrize("values", [
    {"L": "abc"}, {"L": 8.0}, {"L": True}, {"a": "0.1"}, {"m": False}, {"dt": [0.1]},
    {"dt": "x"}, 5, None, "a", [{}], [],
])
def test_config_value_types_checked(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # an int where a float is expected, and a number for a key without default
    cfg.write_text(json.dumps({"a": 1, "m": 1, "dt": 0.5, "L": 4}))
    assert run(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "y.csv")]) == 0


@pytest.mark.parametrize("flags", [
    ["--g", "0"], ["--kappa", "0"], ["--pairs", "0"], ["--g", "nan"], ["--kappa", "-1"],
])
def test_gauge_check_rejects_bad_inputs(tmp_path, capsys, flags):
    out = tmp_path / "g.json"
    assert run(["gauge-check", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


DROP = object()
SMALL_PROBLEM = {"a": 0.1, "m": 1.0, "observables": [{"kind": "dispersion_theta", "p": 0.3}],
                 "targets": [0.03], "init": {"m": 1.3}, "max_iters": 2}


@pytest.mark.parametrize("key, value", [
    ("a", DROP), ("observables", DROP), ("targets", DROP), ("init", DROP), ("a", "x"),
    ("a", True), ("m", None), ("eta", "0.1"), ("max_iters", 2.5), ("init", [1.3]),
    ("backtracking", 1), ("init", {"m": [1]}), ("init", {"m": True}),
    ("tol", math.nan), ("eta", math.nan), ("max_iters", -3), ("fd_step", math.inf),
    ("targets", [math.nan]), ("targets", [math.inf]),
    *[("observables", [{"kind": "one_loop", "regulator": "ShiftPlain", "resolution": bad}])
      for bad in (math.inf, -math.inf, math.nan, 4096.5, "4096", True)],
    ("backtrack", True),  # a typo for backtracking, refused as --config refuses one
])
def test_renorm_problem_checked(tmp_path, capsys, key, value):
    problem = dict(SMALL_PROBLEM)
    path, out = tmp_path / "problem.json", tmp_path / "r.json"
    path.write_text(json.dumps(problem))
    assert run(["renorm", "--problem", str(path), "--out", str(out)]) == 0
    if value is DROP:
        del problem[key]
    else:
        problem[key] = value
    path.write_text(json.dumps(problem))
    assert run(["renorm", "--problem", str(path), "--out", str(tmp_path / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{key}'" in err or f" {key}=" in err  # names the key
    if key == "observables" and value is not DROP:  # a key the one_loop kind does not read
        assert "'resolution'" in err
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("argv, problem, line", [
    (["oneloop", "--a-series", ","], None,
     "error: a-series must contain at least one lattice spacing"),
    (["renorm"], None, "error: renorm needs --problem pointing to a JSON problem file"),
    (["renorm"], {**SMALL_PROBLEM, "observables": [{"kind": "bogus", "p": 0.3}]},
     "error: unknown observable kind 'bogus'"),
], ids=["oneloop-empty-a-series", "renorm-no-problem", "renorm-unknown-kind"])
def test_input_refusals_exit_1_with_one_line(tmp_path, capsys, argv, problem, line):
    out = tmp_path / "out"
    if problem is not None:
        (tmp_path / "problem.json").write_text(json.dumps(problem))
        argv = [*argv, "--problem", str(tmp_path / "problem.json")]
    assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("observables", [1]), ("observables", [{"kind": "omega"}]), ("targets", [[0.03]]),
])
def test_renorm_problem_malformed_entries(tmp_path, capsys, key, value):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**SMALL_PROBLEM, key: value}))
    assert run(["renorm", "--problem", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    # a target that is no number is refused by the one rule for reals, not as malformed
    says = ("'targets' entry 0 must be finite, got [0.03]" if key == "targets"
            else "renorm problem is malformed")
    assert err.startswith(f"error: {says}") and err.count("\n") == 1


def test_renorm_problem_without_observables_refused(tmp_path, capsys):
    # no observable left nothing to calibrate: the run wrote "converged": true at the start
    path, out = tmp_path / "problem.json", tmp_path / "r.json"
    path.write_text(json.dumps({**SMALL_PROBLEM, "observables": [], "targets": []}))
    assert run(["renorm", "--problem", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'observables'" in err and err.count("\n") == 1
    assert not out.exists()


def _cli_bytes(workdir: Path, argv: list[str], name: str) -> bytes:
    out = workdir / name
    assert run(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@settings(max_examples=10, deadline=None)
@given(
    sub=st.sampled_from(["propagator", "dispersion"]),
    a=st.floats(0.05, 0.5),
    m=st.floats(0.1, 3.0),
    L=st.integers(1, 12),
    eps=st.floats(1e-4, 1e-1),
    order=st.permutations(["a", "m", "L", "epsilon"]),
)
def test_cli_bytes_independent_of_rerun_and_config_route(sub, a, m, L, eps, order):
    values = {"a": a, "m": m, "L": L}
    if sub == "propagator":
        values["epsilon"] = eps
    flags, permuted = [sub], [sub]
    for key, value in values.items():
        flags += [f"--{key}", repr(value)]
    for key in [key for key in order if key in values]:
        permuted += [f"--{key}", repr(values[key])]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        first = _cli_bytes(workdir, flags, "first")
        assert _cli_bytes(workdir, flags, "second") == first
        assert _cli_bytes(workdir, permuted, "permuted") == first
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert _cli_bytes(workdir, [sub, "--config", str(cfg)], "config") == first


README_PROBLEM = {
    "a": 0.1, "m": 1.0,
    "observables": [{"kind": "dispersion_theta", "p": 0.3},
                    {"kind": "one_loop", "regulator": "ShiftSmeared", "p_in": 0.0}],
    "targets": [1.044, 0.127], "init": {"m": 1.3},
    "eta": 0.05, "fd_step": 1e-4, "tol": 1e-8, "max_iters": 500,
}


def _exact_route_sums() -> list[str]:
    """The zone sums long enough for quadrature._fsum's numpy route, as hex: the equal-time
    sum of a d = 2 grid (128^2 and 256^2 folded terms) and the contour quadrature at 2^16
    nodes (2^15 folded terms). No CLI artifact sums that many terms."""
    p1 = LatticeParams(a=0.1, m=1.0)
    values = [equal_time(LatticeParams(a=0.2, d=2, m=1.0), (2, 0), 256, conv_rtol=1e-9)]
    values += [contour_identity_residual(p1, 0.3, t, 1e-3, 2**16, None) for t in (0, 1, 3)]
    return [value.hex() for value in values]


def test_zone_artifacts_equal_list_fsum_reference(tmp_path, monkeypatch):
    # every exact reduction (fsum_real and fsum_complex) routes through quadrature._fsum;
    # the reference sums a Python list with math.fsum, and must see only numpy-route sizes
    fast = _exact_route_sums()
    sizes = []
    monkeypatch.setattr(quadrature, "_fsum",
                        lambda x: sizes.append(x.size) or math.fsum(x.tolist()))
    assert _exact_route_sums() == fast
    assert min(sizes) >= quadrature._CROSSOVER
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(README_PROBLEM))
    _cli_bytes(tmp_path, ["renorm", "--problem", str(problem)], "renorm")
    assert json.loads(read_hash_and_body(tmp_path / "renorm")[1])["iterations"] == 185


README_CLI = (Path(__file__).resolve().parents[1] / "README.md").read_text().split(
    "\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _readme_block(language: str) -> str:
    return README_CLI.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # every command of the README's CLI block runs as written, with the README's renorm problem
    # as its problem.json, so a removed flag cannot survive in the docs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.json").write_text(_readme_block("json"))
    lines = _readme_block("sh").splitlines()
    assert len(lines) == len(cli.DEFAULTS) and all(line.startswith("latcirc ") for line in lines)
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line


def test_readme_lists_the_settings_of_each_subcommand():
    listed = re.findall(r"^- `([a-z-]+)`: (`.*`)$", README_CLI, re.MULTILINE)
    assert {name: keys.replace("`", "").split(", ") for name, keys in listed} == {
        name: list(defaults) for name, defaults in cli.DEFAULTS.items()}


# The child writes each named artifact of a JSON {name: argv} table into a directory.
ARTIFACTS_CHILD = """
import json, sys
from latcirc.cli import run
cases, workdir = json.loads(sys.argv[1]), sys.argv[2]
for name, argv in cases.items():
    assert run(argv + ["--out", f"{workdir}/{name}"]) == 0, name
"""


def test_reference_artifacts_independent_of_blas_threads(tmp_path):
    # the Shift kernel's eigh, the W_el GEMMs and the unitarity norm are LAPACK and BLAS
    # calls, whose blocking may follow the thread count: one thread and the default must
    # write the same bytes
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(README_PROBLEM))
    cases = {name: [name] for name in cli.DEFAULTS if name != "renorm"}
    cases.update({"renorm": ["renorm", "--problem", str(problem)],
                  "gauge-check-N3": ["gauge-check", "--N", "3"],
                  "pathint-check-mass": ["pathint-check", "--grid", "mass", "--kind", "Trotter",
                                         "--L", "3", "--n-points", "8"]})
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    written = {}
    for threads in ("1", "default"):
        workdir = tmp_path / threads
        workdir.mkdir()
        extra = {"OPENBLAS_NUM_THREADS": threads} if threads != "default" else {}
        child = subprocess.run(
            [sys.executable, "-c", ARTIFACTS_CHILD, json.dumps(cases), str(workdir)],
            capture_output=True, text=True, env={**env, **extra, "PYTHONPATH": path},
            timeout=300)
        assert child.returncode == 0, child.stderr[-500:]
        written[threads] = {name: (workdir / name).read_bytes() for name in cases}
    assert len(cases) == 10
    assert written["1"] == written["default"]


def test_multi_block_wilson_sums_independent_of_blas_threads(tmp_path):
    # the references above sum one block of Wilson terms per pair; here each pair's 2^20
    # terms run in 16 blocks, each tallied by distinct action, and one BLAS thread and the
    # default must still write the same bytes
    argv = ["gauge-check", "--lx", "1", "--ly", "2", "--tau", "4", "--pairs", "2"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    written = {}
    for threads in ("1", "default"):
        extra = {"OPENBLAS_NUM_THREADS": threads} if threads != "default" else {}
        child = subprocess.run(
            [sys.executable, "-c", ARTIFACTS_CHILD, json.dumps({threads: argv}), str(tmp_path)],
            capture_output=True, text=True, env={**env, **extra, "PYTHONPATH": path},
            timeout=300)
        assert child.returncode == 0, child.stderr[-500:]
        written[threads] = (tmp_path / threads).read_bytes()
    assert written["1"] == written["default"]


# every option string of every subcommand, first copied from the hand-written parser that
# declared them one add_argument at a time, less the settings no run computes with
# (REMOVED_SETTINGS); the table-built parser must keep them all
FLAG_INVENTORY = {
    "dispersion": ["--L", "--a", "--config", "--dt", "--m", "--out"],
    "movers": ["--L", "--a", "--config", "--out"],
    "lightcone": ["--L", "--a", "--config", "--dt", "--kind", "--m", "--observable", "--out",
                  "--tau"],
    "propagator": ["--L", "--a", "--config", "--dt", "--epsilon", "--m", "--out"],
    "oneloop": ["--a-series", "--config", "--lambda", "--m", "--out", "--p-in"],
    "pathint-check": ["--L", "--a", "--config", "--dt", "--grid", "--kind", "--lambda", "--m",
                      "--n-points", "--out", "--tau"],
    "gauge-check": ["--N", "--config", "--g", "--kappa", "--lx", "--ly", "--out", "--pairs",
                    "--seed", "--tau"],
    "renorm": ["--config", "--out", "--problem"],
}


def test_flag_inventory():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: sorted(flag for action in sub._actions for flag in action.option_strings
                          if flag not in ("-h", "--help"))
             for name, sub in subparsers.choices.items()}
    assert found == FLAG_INVENTORY
    lam = [a for a in subparsers.choices["oneloop"]._actions if "--lambda" in a.option_strings]
    assert lam[0].dest == "lam"


# the settings that no run computed with, each at a value its subcommand once ran: the free
# circuits have lambda = 0, oneloop reads its spacings from --a-series, and the mover shift
# holds only at m = 0 and dt = a
REMOVED_SETTINGS = {("dispersion", "lam"): 0.0, ("propagator", "lam"): 0.0,
                    ("lightcone", "lam"): 0.0, ("movers", "lam"): 0.0, ("oneloop", "a"): 0.1,
                    ("oneloop", "dt"): 0.1, ("movers", "m"): 0.0, ("movers", "dt"): 0.1}


@pytest.mark.parametrize("subcommand, key", REMOVED_SETTINGS,
                         ids=[f"{name}-{key}" for name, key in REMOVED_SETTINGS])
def test_removed_settings_are_refused(tmp_path, capsys, subcommand, key):
    # as a flag, a one-line usage error; as a --config key, an unknown key; never an artifact
    value, out, config = REMOVED_SETTINGS[subcommand, key], tmp_path / "out", tmp_path / "c.json"
    assert run([subcommand, f"{_flag(key)}={value}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: latcirc: unrecognized arguments: {_flag(key)}={value}\n"
    config.write_text(json.dumps({key: value}))
    assert run([subcommand, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lightcone", "--kind", "Foo"], ["dispersion", "--L", "abc"], ["nosuchcommand"], [],
    ["dispersion", "--nosuchflag", "1"],
    ["pathint-check", "--n", "8"],  # an abbreviation of --n-points
])
def test_usage_error_is_one_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)] if argv else argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: latcirc") and err.count("\n") == 1
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["oneloop", "--help"]) == 0
    assert "--a-series" in capsys.readouterr().out


@pytest.mark.parametrize("sub, values", [
    ("pathint-check", {"grid": "bogus"}), ("lightcone", {"kind": "Trotter"}),
    ("lightcone", {"observable": "x"}),
])
def test_config_values_checked_against_choices(tmp_path, capsys, sub, values):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(values))
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 1
    ((key, value),) = values.items()
    err = capsys.readouterr().err
    assert err.startswith(f"error: config value {key}={value!r} is not one of")
    assert err.count("\n") == 1
    assert not out.exists()


# numpy warnings are errors here: a RuntimeWarning on stderr would be a second line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    (["oneloop", "--p-in", "nan"], 1), (["oneloop", "--m", "1e200"], 2),
    (["oneloop", "--a-series", "1e300"], 2), (["propagator", "--epsilon", "inf"], 1),
    (["propagator", "--dt", "1e300", "--L", "4"], 2), (["gauge-check", "--g", "1e-200"], 1),
    (["gauge-check", "--g", "1e200"], 1), (["gauge-check", "--g", "1e-160"], 1),
    (["gauge-check", "--kappa", "1e-320"], 1),
    (["gauge-check", "--g", "1e-10", "--kappa", "1e300"], 1),  # only 2 kappa/g^2 overflows
    (["gauge-check", "--g", "1e20", "--kappa", "1e-300"], 1),  # only 2 kappa/g^2 underflows
])
def test_non_finite_results_and_overflowing_couplings(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{EXIT_PREFIXES[code]}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, says", [
    (["lightcone", "--L", "0"], 1, "L must be"), (["lightcone", "--L", "-1"], 1, "L must be"),
    (["gauge-check", "--seed", "-1"], 1, "seed must be"),
    # counts of hundreds of thousands of digits, named by their power of ten
    (["pathint-check", "--tau", "100000"], 3, "~10^240822"),
    (["gauge-check", "--tau", "1000000"], 3, "~10^"), (["pathint-check", "--L", "1000"], 3, "~10^"),
    # a^2 and (m a)^2 overflow as products to inf, not as Python float powers
    (["pathint-check", "--a", "1e300"], 2, "NaN"), (["pathint-check", "--m", "1e300"], 2, "NaN"),
    (["pathint-check", "--a", "1e300", "--kind", "Trotter"], 2, "NaN"),
    (["pathint-check", "--m", "1e300", "--kind", "Trotter"], 2, "NaN"),
    (["pathint-check", "--a", "1e300", "--kind", "Shift"], 2, "NaN"),
    # an evolved light cone that is not finite, once read as radius 0
    (["lightcone", "--m", "1e300"], 2, "not all finite"),
    (["lightcone", "--a", "1e300"], 2, "not all finite"),
    (["lightcone", "--kind", "Strang", "--a", "1e-160"], 2, "not all finite"),
    # squares past the range and a division by a square that rounds to 0, all formed as
    # products and quotients: a stencil coefficient is inf, and the cone is not finite
    *[(["lightcone", "--kind", "Strang", setting, "--observable", observable], 2,
       "not all finite") for setting in ("--a=1e300", "--a=1e160", "--m=1e300", "--m=1e160")
      for observable in ("phi", "pi", "both")],
    *[(["lightcone", "--kind", "Strang", "--a=1e-300", "--observable", observable], 2,
       "not all finite") for observable in ("phi", "pi", "both")],
    *[(["pathint-check", "--dt=1e-160", "--grid", grid], 2, "action-form measure")
      for grid in ("dual", "mass")],
    (["pathint-check", "--grid", "mass", "--m=1e-300"], 2, "action-form measure"),
    (["pathint-check", "--grid", "mass", "--m=1e-160"], 2, "action-form measure"),
    # huge counts refused from their logarithms, never formed
    *[(["pathint-check", setting, "--kind", kind, "--grid", grid], 3, "~10^")
      for setting in ("--L=1000000000", "--tau=1000000000") for kind in statevector.KINDS
      for grid in ("dual", "mass")],
    (["pathint-check", "--n-points", "10", "--tau", "10000000"], 3, "~10^19999998"),
    (["gauge-check", "--tau=1000000000"], 3, "~10^"),
    (["gauge-check", "--pairs=1000000"], 3, "of 1000000 pairs"),
    (["gauge-check", "--pairs=1000000000"], 3, "of 1000000000 pairs"),
    # the link-axis cap before any link array
    (["gauge-check", "--lx", "1000000000"], 3, "link tensor axes: 4000000000 exceeds the cap"),
    (["gauge-check", "--ly", "1000000000"], 3, "link tensor axes: 4000000000 exceeds the cap"),
    # the Strang cone at its default observable, past the range as above
    *[(["lightcone", "--kind", "Strang", setting], 2, "not all finite")
      for setting in ("--a=1e300", "--m=1e300", "--a=1e-300")],
    # a 401-digit int read from --config, named by its power of ten, not its digits
    (["dispersion", {"a": 10**400}], 1, "~10^400"),
    # a negative L, refused as such and not by the table text of its square
    (["propagator", "--L", "-5000"], 1, "L must be"),
])
def test_extreme_settings_end_in_one_short_line(tmp_path, capsys, argv, code, says):
    out, limit = tmp_path / "out", 160
    if isinstance(argv[-1], dict):  # settings of a --config file, whose one value is the line
        config, limit = tmp_path / "config.json", 80
        config.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], "--config", str(config)]
    assert run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{EXIT_PREFIXES[code]}: ") and err.count("\n") == 1
    assert says in err and len(err) < limit
    assert not out.exists()


def _refuse_constant(name):
    raise ValueError(f"the artifact holds {name}")


def _end_fault(code, err, out):
    """Why a run did not end cleanly, or None if it did: exit 0 with a finite artifact and
    nothing on stderr, or exit 1, 2 or 3 with one prefixed stderr line and no artifact."""
    if code not in (0, 1, 2, 3):
        return f"exit {code}"
    if code and not (err.startswith(f"{EXIT_PREFIXES[code]}: ") and err.count("\n") == 1):
        return f"exit {code} with stderr {err!r}"
    if code:
        return "an artifact beside the error" if out.exists() else None
    if err:
        return f"exit 0 with stderr {err!r}"
    _, body = read_hash_and_body(out)
    try:
        if body.startswith("{"):
            json.loads(body, parse_constant=_refuse_constant)
        elif not np.isfinite(np.loadtxt(body.splitlines(), delimiter=",", skiprows=1)).all():
            return "exit 0 with a non-finite table"
    except ValueError as exc:
        return f"exit 0, but {exc}"
    return None


# every int-typed setting of every subcommand, so a new int flag joins the sweep below
INT_SETTINGS = [(name, key) for name, defaults in cli.DEFAULTS.items()
                for key, value in defaults.items() if type(value) is int]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("subcommand, key", INT_SETTINGS,
                         ids=[f"{name}-{key}" for name, key in INT_SETTINGS])
def test_int_settings_at_zero_and_minus_one(tmp_path, capsys, subcommand, key, value):
    # a run either succeeds with a finite artifact or ends in one documented line, never
    # in a traceback
    out = tmp_path / "out"
    code = run([subcommand, f"--{key.replace('_', '-')}={value}", "--out", str(out)])
    assert _end_fault(code, capsys.readouterr().err, out) is None


SWEEP_INTS = [0, -1, 10**6, 10**9, 10**30]
SWEEP_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300, 1e-300, 1e160, 1e-160]
CASE_SECONDS = 2.0  # a case still running then lacks a cap


def _flag(key):
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def _choice_combinations(name):
    keys = [key for sub, key in cli._CHOICES if sub == name]
    return [dict(zip(keys, values))
            for values in itertools.product(*[cli._CHOICES[(name, key)] for key in keys])]


# every subcommand with a number setting, under every combination of its choice settings
SWEEP = [(name, choices) for name, defaults in cli.DEFAULTS.items()
         if any(type(value) is not str for value in defaults.values())
         for choices in _choice_combinations(name)]


class _Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise _Overtime


def _timed_end_fault(argv, out, capsys):
    """``_end_fault`` of one in-process run, or why it never ended: it raised (a traceback
    in a real run) or was still running after CASE_SECONDS, the sign of a missing cap."""
    out.unlink(missing_ok=True)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a second line
            code = run(argv + ["--out", str(out)])
    except _Overtime:
        return f"still running after {CASE_SECONDS} s"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        err = capsys.readouterr().err
    return _end_fault(code, err, out)


def _first_row_writer(write_csv):
    """``write_csv`` of a table's first row, once the whole table is checked finite as the
    writer checks it: the %.17g text of dispersion's 10^6 rows takes 2.1 s (2-vCPU VM),
    and no cap is about formatting."""
    def write(path, config, header, columns):
        columns = [np.ravel(c) for c in columns]
        if not all(np.isfinite(c).all() for c in columns):
            raise ConvergenceFailure("the table holds a NaN or infinite value")
        write_csv(path, config, header, [c[:1] for c in columns])
    return write


@pytest.mark.parametrize("subcommand, choices", SWEEP, ids=[
    "-".join([name, *choices.values()]) for name, choices in SWEEP])
def test_every_number_setting_at_its_extremes(tmp_path, capsys, monkeypatch, subcommand, choices):
    # each int setting at 0, -1 and three huge counts, each float setting at the IEEE
    # extremes, written as --key=value and through --config: every run must end cleanly
    monkeypatch.setattr(cli, "_write_csv", _first_row_writer(cli._write_csv))
    out, config = tmp_path / "out", tmp_path / "config.json"
    base = [subcommand, *[f"{_flag(key)}={value}" for key, value in choices.items()]]
    faults = []
    previous = signal.signal(signal.SIGALRM, _overtime)
    try:
        for key, default in cli.DEFAULTS[subcommand].items():
            if key in choices or type(default) is str:
                continue
            for value in SWEEP_INTS if type(default) is int else SWEEP_FLOATS:
                config.write_text(json.dumps({key: value}))
                for route in ([f"{_flag(key)}={value!r}"], ["--config", str(config)]):
                    fault = _timed_end_fault(base + route, out, capsys)
                    if fault:
                        faults.append(f"{' '.join(base)} {key}={value!r} by {route[0]}: {fault}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not faults, "\n".join(faults)


# every float setting (a default of a float or of None) of every subcommand
FLOAT_SETTINGS = [(name, key) for name, defaults in cli.DEFAULTS.items()
                  for key, value in defaults.items() if value is None or type(value) is float]


@pytest.mark.parametrize("subcommand, key", FLOAT_SETTINGS,
                         ids=[f"{name}-{key}" for name, key in FLOAT_SETTINGS])
def test_config_int_past_the_float_range_is_not_finite(tmp_path, capsys, subcommand, key):
    # JSON reads 10^400 as a Python int, which no float holds: it is refused as not finite,
    # never converted into an OverflowError (exit 2)
    out, config = tmp_path / "out", tmp_path / "config.json"
    config.write_text(json.dumps({key: 10**400}))
    assert run([subcommand, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and " must be finite" in err and err.count("\n") == 1
    assert not out.exists()


# a problem whose every number is read: both observable kinds, lam > 0 so p_in counts, and
# targets met at m = 1, which the descent reaches from m = 1.3 in 184 steps
RENORM_PROBLEM = {"a": 0.1, "dt": 0.1, "m": 1.0, "lam": 1.0, "eta": 0.05, "fd_step": 1e-4,
                  "tol": 1e-8, "max_iters": 2, "init": {"m": 1.3},
                  "observables": [{"kind": "dispersion_theta", "p": 0.3},
                                  {"kind": "one_loop", "regulator": "ShiftSmeared", "p_in": 0.2}],
                  "targets": [1.0442863483701577, 0.25478801220425495]}
RENORM_NUMBERS = [(key,) for key in ("a", "dt", "m", "lam", "eta", "fd_step", "tol", "max_iters")]
RENORM_NUMBERS += [("targets", 0), ("targets", 1), ("init", "m"), ("observables", 0, "p"),
                   ("observables", 1, "p_in")]


@pytest.mark.parametrize("where", RENORM_NUMBERS, ids=lambda where: ".".join(map(str, where)))
def test_every_renorm_problem_number_at_its_extremes(tmp_path, capsys, where):
    # each number of a problem file at the sweep's values, and as "0.3" and true, which are no
    # numbers: every run ends cleanly, and a non-number never runs as a number
    problem_file, out = tmp_path / "problem.json", tmp_path / "out.json"
    values = SWEEP_INTS if where == ("max_iters",) else SWEEP_FLOATS
    faults = []
    previous = signal.signal(signal.SIGALRM, _overtime)
    try:
        for value in [*values, "0.3", True]:
            problem = json.loads(json.dumps(RENORM_PROBLEM))
            parent = functools.reduce(operator.getitem, where[:-1], problem)
            parent[where[-1]] = value
            problem_file.write_text(json.dumps(problem))
            fault = _timed_end_fault(["renorm", "--problem", str(problem_file)], out, capsys)
            if fault is None and isinstance(value, (str, bool)) and out.exists():
                fault = "exit 0: a non-number ran as a number"
            if fault:
                faults.append(f"{where} = {value!r}: {fault}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not faults, "\n".join(faults)


def test_renorm_trace_is_bounded_before_the_descent(tmp_path, capsys):
    # tol = 1e-300 is never met, so the descent would run all 10^7 iterations, ~64 us and
    # ~2 KiB of trace each: refused at once instead
    problem_file, out = tmp_path / "problem.json", tmp_path / "out.json"
    problem_file.write_text(json.dumps({**RENORM_PROBLEM, "tol": 1e-300, "max_iters": 10**7}))
    argv = ["renorm", "--problem", str(problem_file)]
    previous = signal.signal(signal.SIGALRM, _overtime)
    try:
        assert _timed_end_fault(argv, out, capsys) is None
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert run([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "resource cap exceeded: bytes for a descent trace of 10000038 records: ")
    assert not out.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_non_finite_values(tmp_path, bad):
    out = tmp_path / "out.json"
    with pytest.raises(ConvergenceFailure, match="NaN or infinite"):
        cli._write_json(str(out), {}, {"rel_errors": {"path": bad}})
    assert not out.exists()
    out = tmp_path / "out.csv"
    with pytest.raises(ConvergenceFailure, match="NaN or infinite"):
        cli._write_csv(str(out), {}, ["x", "y"], [[0.0, 1.0], np.array([[2.0], [bad]])])
    assert not out.exists()


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # a usage error between two identical runs leaves the one parser as it was
    assert cli._build_parser() is cli._build_parser()
    argv = ["pathint-check", "--n-points", "8", "--tau", "2", "--L", "3"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(argv + ["--out", str(first)]) == 0
    assert run(["pathint-check", "--grid", "bogus", "--out", str(tmp_path / "bad")]) == 1
    assert run(argv + ["--out", str(second)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("error: latcirc") and err.count("\n") == 1
    assert first.read_bytes() == second.read_bytes()
    assert not (tmp_path / "bad").exists()


def test_pathint_check_action_error_carries_the_metaplectic_phase(tmp_path):
    # tau L = 6: the action form is (-i)^6 = -1 times the circuit amplitude
    out = tmp_path / "pathint.json"
    assert run(["pathint-check", "--L", "2", "--n-points", "16", "--tau", "3",
                "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    assert payload["rel_errors"]["action"] < 1e-10
    assert payload["rel_errors"]["path"] < 1e-12


@pytest.mark.parametrize("L, tau", [(3, 1), (5, 1), (3, 3)])
def test_pathint_check_action_error_at_odd_tau_l(tmp_path, L, tau):
    # tau L odd: the action form is i^(tau L) = -i or +i times the circuit amplitude, not
    # (-i)^(tau L), which differs from it by a sign
    out = tmp_path / "pathint.json"
    assert run(["pathint-check", "--L", str(L), "--n-points", "8", "--tau", str(tau),
                "--out", str(out)]) == 0
    payload = json.loads(read_hash_and_body(out)[1])
    assert payload["rel_errors"]["action"] < 1e-10
    assert payload["rel_errors"]["path"] < 1e-12


def test_oneloop_answers_fine_spacings(tmp_path):
    # at a = 0.001 the Shift integrand peaks within m a of the zone ends, where a trapezoid
    # rule of 8192 nodes had not converged; the closed form needs no nodes. Pi_plain grows
    # by (lambda/(2 pi)) ln 10 per decade of 1/a, to O((m a)^2)
    out = tmp_path / "oneloop.csv"
    assert run(["oneloop", "--a-series", "0.2,0.1,0.01,0.001", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    assert rows[:, 0].tolist() == [0.2, 0.1, 0.01, 0.001]
    assert rows[3, 2] - rows[2, 2] == pytest.approx(math.log(10.0) / (2.0 * math.pi), rel=1e-4)


def test_oneloop_refuses_shift_regulators_past_m_a_two(tmp_path, capsys):
    # m a = 6 at a = 0.2 puts M = 1 - (m a)^2/2 = -17 outside |M| < 1
    out = tmp_path / "oneloop.csv"
    assert run(["oneloop", "--m", "30", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "|M| < 1" in err and err.count("\n") == 1
    assert not out.exists()
