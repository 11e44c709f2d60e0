import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import statecompat
from statecompat import compat
from statecompat.cli import main
from statecompat.compat import full_report
from statecompat.density import validate_density
from statecompat.generate import random_unitary
from statecompat.linalg import DEFAULT_TOL
from statecompat.scenario import run_scenario
from statecompat.fileio import (
    Instance,
    dump_payload,
    instance_payload,
    parse_instance,
)

from conftest import count_linalg, pairs_to_vector

E0 = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def write_instance(path, matrices, dim=None, names=None):
    dim = dim or matrices[0].shape[0]
    names = names or [f"rho_{i + 1}" for i in range(len(matrices))]
    inst = Instance(dim=dim, names=names, matrices=[np.asarray(m, complex) for m in matrices])
    with open(path, "w") as fh:
        dump_payload(instance_payload(inst), fh)
    return path


def spin_pair():
    return [np.diag([1.0, 0.0]), np.outer(PLUS, PLUS.conj())]


# ------------------------------------------------------------------- check


def test_check_incompatible_spin_pair(tmp_path, capsys):
    path = write_instance(tmp_path / "spin.json", spin_pair())
    code = main(["check", "--input", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["report"]["compatible"] is False
    assert payload["report"]["pairwise_product_nonzero"][0][1] is True
    assert payload["report"]["pairwise_commute"][0][1] is False


def test_check_compatible_with_witness(tmp_path):
    path = write_instance(
        tmp_path / "ok.json", [np.eye(2) / 2, np.outer(PLUS, PLUS.conj())]
    )
    out = tmp_path / "report.json"
    code = main(["check", "--input", str(path), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    witness = pairs_to_vector(payload["report"]["witness"])
    assert abs(abs(np.vdot(witness, PLUS)) - 1.0) <= 1e-10


def test_check_diagnoses_bad_trace(tmp_path, capsys):
    path = write_instance(tmp_path / "bad.json", [np.diag([1.0, 1.0])])
    code = main(["check", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "TraceNotOne" in err
    assert "rho_1" in err


def test_check_reports_every_offending_matrix(tmp_path, capsys):
    path = write_instance(
        tmp_path / "bad2.json",
        [np.diag([1.0, 1.0]), np.diag([1.5, -0.5]), np.eye(2) / 2],
    )
    code = main(["check", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "rho_1: TraceNotOne" in err
    assert "rho_2: NotPositive" in err
    assert "rho_3" not in err


def test_check_missing_file(capsys):
    code = main(["check", "--input", "/nonexistent/instance.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_huge_integer_is_an_input_error(tmp_path):
    payload = instance_payload(
        Instance(dim=2, names=["a"], matrices=[np.diag([1.0, 0.0]).astype(complex)])
    )
    payload["matrices"][0]["rows"][0][1][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    env = dict(os.environ, PYTHONPATH=str(Path(statecompat.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "statecompat.cli", "check", "--input", str(path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "(0,1) re" in proc.stderr
    assert proc.stdout == ""


def test_check_tolerance_flags_are_honored(tmp_path, capsys):
    # with a loose match tolerance the non-Hermitian defect is symmetrized away
    m = np.diag([0.6, 0.4]).astype(complex)
    m[0, 1] = 1e-5
    path = write_instance(tmp_path / "almost.json", [m])
    assert main(["check", "--input", str(path)]) == 2
    capsys.readouterr()
    assert main(["check", "--input", str(path), "--tol-match", "1e-3"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------- scenario


def test_scenario_compatible_pair(tmp_path):
    path = write_instance(
        tmp_path / "pair.json", [np.diag([0.75, 0.25]), np.outer(PLUS, PLUS.conj())]
    )
    out = tmp_path / "rep.json"
    code = main(["scenario", "--input", str(path), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["scenario"]["success"] is True
    assert payload["scenario"]["joint_zero_outcome_probability"] > 0
    for observer in payload["scenario"]["observers"]:
        assert observer["recovery_distance"] <= 1e-8


def test_scenario_three_observers(tmp_path, capsys):
    code = main(
        ["generate", "--dim", "3", "--count", "3", "--seed", "5",
         "--mode", "compatible", "--output", str(tmp_path / "gen.json")]
    )
    assert code == 0
    code = main(["scenario", "--input", str(tmp_path / "gen.json")])
    capsys.readouterr()
    assert code == 0


def test_scenario_dim64_four_observers(tmp_path):
    gen = tmp_path / "d64.json"
    args = ["--dim", "64", "--count", "4", "--seed", "7", "--mode", "compatible"]
    assert main(["generate", *args, "--output", str(gen)]) == 0
    out = tmp_path / "report.json"
    assert main(["scenario", "--input", str(gen), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["scenario"]["success"] is True


def test_scenario_incompatible_exits_one(tmp_path, capsys):
    path = write_instance(tmp_path / "spin.json", spin_pair())
    code = main(["scenario", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "common" in captured.err
    payload = json.loads(captured.out)
    assert "scenario" not in payload
    assert payload["report"]["compatible"] is False


def test_scenario_decides_the_intersection_once(tmp_path, monkeypatch):
    gen = tmp_path / "gen.json"
    assert main(["generate", "--dim", "5", "--count", "3", "--seed", "4",
                 "--mode", "compatible", "--output", str(gen)]) == 0
    splits = []
    original = compat.intersection_split

    def counting_split(*args):
        splits.append(1)
        return original(*args)

    monkeypatch.setattr(compat, "intersection_split", counting_split)
    with count_linalg() as cli_counts:
        assert main(["scenario", "--input", str(gen), "--output", str(tmp_path / "r.json")]) == 0
    assert len(splits) == 1
    # The report's one SVD is the scenario's own support test: the whole run
    # makes no more SVDs than run_scenario alone.
    rhos = [validate_density(m) for m in parse_instance(json.loads(gen.read_text())).matrices]
    with count_linalg() as scenario_counts:
        run_scenario(rhos)
    assert cli_counts["svd"] == scenario_counts["svd"]


def check_and_scenario_codes(path):
    out = str(path) + ".report.json"
    return [main([verb, "--input", str(path), "--output", out]) for verb in ("check", "scenario")]


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 5),
    count=st.integers(2, 4),
    seed=st.integers(0, 2**20),
    mode=st.sampled_from(["compatible", "incompatible", "pairwise-only"]),
)
def test_check_and_scenario_agree_on_generated_instances(tmp_path_factory, dim, count, seed, mode):
    if mode == "pairwise-only":
        dim, count = max(dim, 3), 3
    path = tmp_path_factory.mktemp("gen") / "inst.json"
    assert main(["generate", "--dim", str(dim), "--count", str(count), "--seed", str(seed),
                 "--mode", mode, "--output", str(path)]) == 0
    check, scenario = check_and_scenario_codes(path)
    assert (check == 0) == (scenario == 0)


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.floats(0.2, 5.0),
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**20),
)
def test_check_and_scenario_agree_near_the_boundary(tmp_path_factory, ratio, dim, seed):
    """Pure pairs at angle ratio * sqrt(2) match_abs, where the verdict flips at ratio 1.

    At the flip the support defect and the recovery distance are the same
    number computed two ways; within rounding of it (|ratio - 1| <= 1e-6)
    either verdict is right, so those draws are skipped.
    """
    assume(abs(ratio - 1.0) > 1e-6)
    theta = ratio * np.sqrt(2) * DEFAULT_TOL.match_abs
    frame = random_unitary(dim, np.random.default_rng(seed))
    a = frame[:, 0]
    b = np.cos(theta) * frame[:, 0] + np.sin(theta) * frame[:, 1]
    path = write_instance(tmp_path_factory.mktemp("theta") / "pair.json",
                          [np.outer(a, a.conj()), np.outer(b, b.conj())])
    check, scenario = check_and_scenario_codes(path)
    assert (check == 0) == (scenario == 0) == (ratio < 1.0)


# ----------------------------------------------------------------- generate


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--dim", "4", "--count", "3", "--seed", "7", "--mode", "compatible"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reports_are_byte_identical_one_line_sorted_json(tmp_path):
    gen = tmp_path / "gen.json"
    assert main(["generate", "--dim", "4", "--count", "3", "--seed", "7",
                 "--mode", "compatible", "--output", str(gen)]) == 0
    files = [gen]
    for verb in ("check", "scenario"):
        first, second = tmp_path / f"{verb}.1.json", tmp_path / f"{verb}.2.json"
        for out in (first, second):
            assert main([verb, "--input", str(gen), "--output", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()
        files.append(first)
    for path in files:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_generate_seeds_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--dim", "3", "--seed", "1", "--output", str(a)]) == 0
    assert main(["generate", "--dim", "3", "--seed", "2", "--output", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_generate_compatible_checks_out(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    assert main(["generate", "--dim", "4", "--count", "3", "--seed", "11",
                 "--mode", "compatible", "--output", str(gen)]) == 0
    assert main(["check", "--input", str(gen)]) == 0
    capsys.readouterr()
    assert main(["scenario", "--input", str(gen)]) == 0
    capsys.readouterr()


def test_generate_incompatible_dim2(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    assert main(["generate", "--dim", "2", "--count", "2", "--seed", "3",
                 "--mode", "incompatible", "--output", str(gen)]) == 0
    assert main(["check", "--input", str(gen)]) == 1
    capsys.readouterr()


def test_generate_pairwise_only_pattern(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    assert main(["generate", "--dim", "3", "--count", "3", "--seed", "9",
                 "--mode", "pairwise-only", "--output", str(gen)]) == 0
    assert main(["check", "--input", str(gen)]) == 1
    capsys.readouterr()
    inst = parse_instance(json.loads(gen.read_text()))
    for i in range(3):
        for j in range(i + 1, 3):
            pair = tmp_path / f"pair{i}{j}.json"
            write_instance(pair, [inst.matrices[i], inst.matrices[j]])
            assert main(["check", "--input", str(pair)]) == 0
            capsys.readouterr()


def test_generate_rejects_bad_parameters(capsys):
    assert main(["generate", "--dim", "1"]) == 2
    assert main(["generate", "--dim", "3", "--count", "2", "--mode", "pairwise-only"]) == 2
    capsys.readouterr()


def test_generated_instances_keep_their_promises(tmp_path, capsys):
    """compatible -> check 0 and scenario 0; incompatible -> check 1."""
    for seed in range(4):
        for mode, dim, count in [("compatible", 3, 2), ("compatible", 4, 3),
                                 ("incompatible", 3, 2), ("incompatible", 4, 3)]:
            gen = tmp_path / f"{mode}-{dim}-{count}-{seed}.json"
            assert main(["generate", "--dim", str(dim), "--count", str(count),
                         "--seed", str(seed), "--mode", mode, "--output", str(gen)]) == 0
            expected = 0 if mode == "compatible" else 1
            assert main(["check", "--input", str(gen)]) == expected
            capsys.readouterr()
            if mode == "compatible":
                assert main(["scenario", "--input", str(gen)]) == 0
                capsys.readouterr()


# ------------------------------------------------------------- report reuse


def test_report_witness_round_trip(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    rep = tmp_path / "rep.json"
    assert main(["generate", "--dim", "4", "--count", "3", "--seed", "21",
                 "--mode", "compatible", "--output", str(gen)]) == 0
    assert main(["check", "--input", str(gen), "--output", str(rep)]) == 0
    capsys.readouterr()
    payload = json.loads(rep.read_text())
    witness = pairs_to_vector(payload["report"]["witness"])
    inst = parse_instance(payload["instance"])
    for matrix in inst.matrices:
        rho = validate_density(matrix)
        assert np.vdot(witness, rho.matrix @ witness).real > 0


def test_report_verdicts_rederivable_from_embedded_instance(tmp_path, capsys):
    for mode, seed in [("compatible", 2), ("incompatible", 4), ("pairwise-only", 6)]:
        gen = tmp_path / f"{mode}.json"
        rep = tmp_path / f"{mode}-rep.json"
        assert main(["generate", "--dim", "3", "--count", "3", "--seed", str(seed),
                     "--mode", mode, "--output", str(gen)]) == 0
        main(["check", "--input", str(gen), "--output", str(rep)])
        capsys.readouterr()
        payload = json.loads(rep.read_text())
        inst = parse_instance(payload["instance"])
        again = full_report([validate_density(m) for m in inst.matrices])
        assert again.compatible == payload["report"]["compatible"]
        assert again.intersection_dim == payload["report"]["intersection_dim"]
        assert (
            np.asarray(again.pairwise_commute).tolist()
            == payload["report"]["pairwise_commute"]
        )
