import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import statecompat
from statecompat import compat, density, fileio, linalg
from statecompat.cli import build_parser, main
from statecompat.compat import CompatReport, full_report
from statecompat.density import DensityMatrix, support, validate_density
from statecompat.errors import InstanceFormatError, NumericalFailureError
from statecompat.generate import (
    generate_instance,
    incompatible_instance,
    pairwise_only_instance,
    random_density,
    random_subspace,
    random_unitary,
)
from statecompat.linalg import DEFAULT_TOL, subspace_intersection
from statecompat.scenario import run_scenario
from statecompat.fileio import (
    MAX_INSTANCE_MATRICES,
    Instance,
    dump_payload,
    instance_payload,
    load_instance,
    parse_instance,
)

from conftest import (
    as_lists,
    assert_spells_as_json_dumps,
    count_linalg,
    json_bits,
    list_route_text,
    nan_fed,
    pairs_to_vector,
    write_to_text,
    written_json,
)

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


def run_check_process(path) -> subprocess.CompletedProcess:
    """``check`` on ``path`` in a fresh interpreter, as the console script runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(statecompat.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "statecompat.cli", "check", "--input", str(path)],
        capture_output=True, text=True, env=env, check=False,
    )


def assert_one_line_input_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2  # killed by a signal, it would be negative
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("statecompat: error: ")
    assert proc.stdout == ""


def test_check_huge_integer_is_an_input_error(tmp_path):
    payload = as_lists(instance_payload(
        Instance(dim=2, names=["a"], matrices=[np.diag([1.0, 0.0]).astype(complex)])
    ))
    payload["matrices"][0]["rows"][0][1][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    proc = run_check_process(path)
    assert_one_line_input_error(proc)
    assert "(0,1) re" in proc.stderr


@pytest.mark.parametrize("text", [
    "[" * 10**6 + "]" * 10**6,  # over the opening bound of the orjson path: json
    '{"a": ' * 16384 + "1" + "}" * 16384,  # over the object bound of the orjson path: json
    '{"dim": 1, "matrices": [{"rows": [[[Infinity, 0.0]]]}]}',
    '{"dim": 1, "matrices": [{"rows": [[[1.0, 0.0]]]}],}',
], ids=["1e6-nested-arrays", "16384-nested-objects", "infinity-entry", "invalid-json"])
def test_check_unreadable_input_is_one_line_error(tmp_path, text):
    path = tmp_path / "unreadable.json"
    path.write_text(text)
    assert_one_line_input_error(run_check_process(path))


#: ``load_instance`` on the file ``sys.argv[1]`` in a thread with a 512 KiB
#: stack, the default for threads on macOS; prints the error's class name.
SMALL_STACK_LOAD = """
import sys, threading
from statecompat.errors import InstanceFormatError
from statecompat.fileio import load_instance

def load():
    try:
        load_instance(sys.argv[1])
    except InstanceFormatError as exc:
        print(type(exc).__name__)

threading.stack_size(512 * 1024)
thread = threading.Thread(target=load)
thread.start()
thread.join()
"""


@pytest.mark.parametrize("text", [
    '{"a": ' * 4096 + "1" + "}" * 4096,
    "[" * 12000 + "]" * 12000,
], ids=["4096-nested-objects", "12000-nested-arrays"])
def test_deep_input_is_refused_on_a_small_thread_stack(tmp_path, text):
    # orjson overflows a 512 KiB stack on either text; json refuses both
    path = tmp_path / "deep.json"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(statecompat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SMALL_STACK_LOAD, str(path)],
                          capture_output=True, text=True, env=env, check=False, timeout=120)
    assert proc.returncode == 0  # killed by a signal, it would be negative
    assert (proc.stdout, proc.stderr) == ("InstanceFormatError\n", "")


#: ``json.loads`` of ``sys.argv[1]`` in a thread with a 512 KiB stack, the
#: standard library alone
SMALL_STACK_JSON = """
import json, sys, threading

def load():
    try:
        json.loads(sys.argv[1])
        print("decoded")
    except RecursionError:
        print("RecursionError")

threading.stack_size(512 * 1024)
thread = threading.Thread(target=load)
thread.start()
thread.join()
"""


@pytest.mark.parametrize("text", [
    '{"a": ' * fileio.JSON_MAX_DEPTH + "1" + "}" * fileio.JSON_MAX_DEPTH,
    "[" * fileio.JSON_MAX_DEPTH + "]" * fileio.JSON_MAX_DEPTH,
], ids=["objects", "arrays"])
def test_json_survives_its_depth_bound_on_a_small_thread_stack(text):
    # Python 3.13's json recurses up to 10,000 levels before it refuses, and
    # 4,096 nested objects kill a 512 KiB thread there; the texts _decode
    # hands to json nest at most JSON_MAX_DEPTH deep. Earlier Pythons decode
    # them or refuse them at their recursion limit, which is no crash either.
    proc = subprocess.run([sys.executable, "-c", SMALL_STACK_JSON, text],
                          capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 0  # killed by a signal, it would be negative
    assert proc.stdout in ("decoded\n", "RecursionError\n") and proc.stderr == ""


@pytest.mark.parametrize("verb", ["check", "scenario"])
def test_report_verbs_refuse_more_matrices_than_the_cap(tmp_path, capsys, verb):
    # 1x1 matrices: each is valid, and only the count is over the cap
    count = MAX_INSTANCE_MATRICES + 1
    path = write_instance(tmp_path / "many.json", [np.ones((1, 1))] * count)
    assert main([verb, "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert f"{count} matrices" in err and "cap" in err


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


@pytest.mark.parametrize("matrix", [np.diag([0.75, 0.25]), np.outer(PLUS, PLUS.conj()), np.eye(3) / 3])
def test_one_matrix_is_compatible_and_its_scenario_succeeds(tmp_path, matrix):
    """compatible => scenario succeeds, also for one assignment: it is realized
    by two observers holding it and reported once."""
    path = write_instance(tmp_path / "one.json", [matrix])
    out = tmp_path / "rep.json"
    assert main(["check", "--input", str(path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["compatible"] is True
    assert main(["scenario", "--input", str(path), "--output", str(out)]) == 0
    scenario = json.loads(out.read_text())["scenario"]
    assert scenario["success"] is True
    assert [o["name"] for o in scenario["observers"]] == ["rho_1"]
    assert scenario["observers"][0]["recovery_distance"] <= 1e-15
    assert 0.0 < scenario["joint_zero_outcome_probability"] <= 1.0 + 1e-15


def test_scenario_incompatible_exits_one(tmp_path, capsys):
    path = write_instance(tmp_path / "spin.json", spin_pair())
    code = main(["scenario", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "common" in captured.err
    payload = json.loads(captured.out)
    assert "scenario" not in payload
    assert payload["report"]["compatible"] is False


@pytest.mark.parametrize("verb", ["check", "scenario"])
@pytest.mark.parametrize("matrices", [spin_pair(), [np.diag([0.75, 0.25]), np.eye(2) / 2]])
def test_report_schema(tmp_path, verb, matrices):
    """The report holds every CompatReport field plus the names; the scenario section's
    keys are its own, written only when the round trip ran."""
    path = write_instance(tmp_path / "inst.json", matrices)
    out = tmp_path / "rep.json"
    code = main([verb, "--input", str(path), "--output", str(out)])
    payload = json.loads(out.read_text())
    ran = verb == "scenario" and code == 0
    assert set(payload) == {"instance", "report", "tolerances"} | ({"scenario"} if ran else set())
    assert set(payload["report"]) == {"names"} | {f.name for f in fields(CompatReport)}
    assert set(payload["tolerances"]) == {"rank_rel", "match_abs"}
    if ran:
        scenario = payload["scenario"]
        assert set(scenario) == {"joint_zero_outcome_probability", "observers", "success"}
        assert [set(o) for o in scenario["observers"]] == [{"name", "recovery_distance"}] * 2


def test_scenario_decides_the_intersection_once(tmp_path, monkeypatch):
    """Either report verb splits the set once: one intersection split (the SVD of
    compat._split_set), one rank split of the stacked spectra and one phase-fix of
    the witness per op, which the report and the round trip both read. Validation
    phase-fixes its eigenvectors through density's own binding, not counted here."""
    gen = tmp_path / "gen.json"
    assert main(["generate", "--dim", "5", "--count", "3", "--seed", "4",
                 "--mode", "compatible", "--output", str(gen)]) == 0
    calls = []
    for module, name in ((compat, "_split_rows"), (density, "_rank_split"), (compat, "_fix_columns")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    for verb in ("check", "scenario"):
        calls.clear()
        with count_linalg() as cli_counts:
            assert main([verb, "--input", str(gen), "--output", str(tmp_path / "r.json")]) == 0
        assert sorted(calls) == ["_fix_columns", "_rank_split", "_split_rows"], verb
        assert cli_counts["svd"] == 1, verb
    # The report's one SVD is the scenario's own support test: the whole run
    # makes no more SVDs than run_scenario alone.
    rhos = [validate_density(m) for m in parse_instance(json.loads(gen.read_text())).matrices]
    with count_linalg() as scenario_counts:
        run_scenario(rhos)
    assert cli_counts["svd"] == scenario_counts["svd"]


def top_level_texts(text: str) -> dict[str, str]:
    """Each key of a written one-line JSON object with its value's text, as written."""
    decoder, texts, pos = json.JSONDecoder(), {}, 1
    while text[pos] != "}":
        key, pos = decoder.raw_decode(text, pos)
        assert text[pos:pos + 2] == ": "
        start = pos + 2
        pos = decoder.raw_decode(text, start)[1]
        texts[key] = text[start:pos]
        pos += 2 if text.startswith(", ", pos) else 0
    return texts


def report_sets(tmp_path):
    """Instance files for both verbs: generated compatible and incompatible sets, one
    matrix, and pure pairs at 0.99 and 1.01 of the angle where the verdict flips."""
    for mode in ("compatible", "incompatible"):
        path = tmp_path / f"{mode}.json"
        assert main(["generate", "--dim", "4", "--count", "3", "--seed", "12",
                     "--mode", mode, "--output", str(path)]) == 0
        yield mode, path, mode == "compatible"
    rho = random_density(3, np.random.default_rng(5), rank=2)
    yield "one matrix", write_instance(tmp_path / "one.json", [rho]), True
    frame = random_unitary(3, np.random.default_rng(9))
    for ratio in (0.99, 1.01):
        theta = ratio * DEFAULT_TOL.match_abs
        b = np.cos(theta) * frame[:, 0] + np.sin(theta) * frame[:, 1]
        pair = [np.outer(frame[:, 0], frame[:, 0].conj()), np.outer(b, b.conj())]
        yield f"theta {ratio}", write_instance(tmp_path / f"theta_{ratio}.json", pair), ratio < 1.0


def test_check_and_scenario_write_the_same_report(tmp_path):
    """The two verbs read one split of the set, so their "report" sections are
    the same bytes; only scenario adds the round trip, on a compatible set."""
    for name, path, compatible in report_sets(tmp_path):
        texts, codes = {}, {}
        for verb in ("check", "scenario"):
            out = tmp_path / f"{verb}.report.json"
            codes[verb] = main([verb, "--input", str(path), "--output", str(out)])
            texts[verb] = top_level_texts(out.read_text(encoding="ascii").removesuffix("\n"))
        assert codes == dict.fromkeys(codes, 0 if compatible else 1), name
        assert json.loads(texts["check"]["report"])["compatible"] is compatible, name
        assert texts["check"]["report"] == texts["scenario"]["report"], name
        assert texts["check"]["instance"] == texts["scenario"]["instance"], name
        assert ("scenario" in texts["scenario"]) is compatible and "scenario" not in texts["check"], name


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
    """Pure pairs at angle ratio * match_abs, where the verdict flips at ratio 1.

    The pair's smallest root-sum-square defect is sqrt(2) sin(theta/2), which
    reaches the membership threshold match_abs/sqrt(2) at theta = match_abs.
    Within rounding of the flip (|ratio - 1| <= 1e-6) either verdict is
    right, so those draws are skipped.
    """
    assume(abs(ratio - 1.0) > 1e-6)
    theta = ratio * DEFAULT_TOL.match_abs
    frame = random_unitary(dim, np.random.default_rng(seed))
    a = frame[:, 0]
    b = np.cos(theta) * frame[:, 0] + np.sin(theta) * frame[:, 1]
    path = write_instance(tmp_path_factory.mktemp("theta") / "pair.json",
                          [np.outer(a, a.conj()), np.outer(b, b.conj())])
    check, scenario = check_and_scenario_codes(path)
    assert (check == 0) == (scenario == 0) == (ratio < 1.0)


def repeated_set(pattern: str, theta: float, frame: np.ndarray) -> list[np.ndarray]:
    """Pure states near frame[:, 0]: [a, a, b] with b at angle theta from a, or
    [a, b, b, c] with a and c at angle theta from b, towards two orthogonal directions."""
    e0, e1, e2 = frame[:, 0], frame[:, 1], frame[:, 2]
    if pattern == "aab":
        states = [e0, e0, np.cos(theta) * e0 + np.sin(theta) * e1]
    else:
        states = [np.cos(theta) * e0 - np.sin(theta) * e1, e0, e0,
                  np.cos(theta) * e0 + np.sin(theta) * e2]
    return [np.outer(v, v.conj()) for v in states]


#: the angle at which each pattern's smallest root-sum-square defect reaches
#: match_abs/sqrt(2), in units of match_abs (small-angle values): [a, a, b]
#: has defect sqrt(2/3) theta, [a, b, b, c] sqrt(3/2) theta
FLIP_ANGLE = {"aab": np.sqrt(3) / 2, "abbc": 1 / np.sqrt(3)}


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.floats(0.2, 5.0),
    pattern=st.sampled_from(sorted(FLIP_ANGLE)),
    dim=st.integers(3, 5),
    seed=st.integers(0, 2**20),
)
def test_check_and_scenario_agree_on_repeated_states_near_the_boundary(
    tmp_path_factory, ratio, pattern, dim, seed
):
    """Sets with a repeated state, where one input can carry most of the defect.

    The verdict flips at ratio 1; draws within 1e-6 of it are skipped.
    """
    assume(abs(ratio - 1.0) > 1e-6)
    theta = ratio * FLIP_ANGLE[pattern] * DEFAULT_TOL.match_abs
    frame = random_unitary(dim, np.random.default_rng(seed))
    path = write_instance(tmp_path_factory.mktemp("repeated") / "set.json",
                          repeated_set(pattern, theta, frame))
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
        value = written_json(text)  # one ASCII line, sorted keys
        assert write_to_text(value) == text  # the writer's own spelling of what it reads
        assert json_bits(orjson.loads(text)) == json_bits(value)  # both decoders read the same


def written_reports(tmp_path) -> dict:
    """Each report verb's ``--output`` file, on a generated incompatible and a compatible instance."""
    files = {}
    for mode in ("incompatible", "compatible"):
        gen = tmp_path / f"{mode}.json"
        assert main(["generate", "--dim", "3", "--count", "40", "--seed", "2", "--mode", mode,
                     "--output", str(gen)]) == 0
        for verb in ("check", "scenario"):
            out = tmp_path / f"{mode}.{verb}.json"
            main([verb, "--input", str(gen), "--output", str(out)])
            files[gen, verb] = out.read_bytes()
    return files


@pytest.mark.parametrize("capture", ["capsys", "capfd"])
def test_reports_on_stdout_are_the_output_files_bytes(tmp_path, request, capture):
    """Without ``--output`` the report follows what the stream already holds, as the file's bytes."""
    captured = request.getfixturevalue(capture)
    for (gen, verb), want in written_reports(tmp_path).items():
        captured.readouterr()
        print("before", end=" ")  # held by the text layer when the report is written
        main([verb, "--input", str(gen)])
        print("after")
        assert captured.readouterr().out.encode() == b"before " + want + b"after\n", (gen.name, verb)


def test_reports_on_a_redirected_stdout_are_the_output_files_bytes(tmp_path, monkeypatch, capsys):
    for (gen, verb), want in written_reports(tmp_path).items():
        stdout = tmp_path / "stdout.txt"
        with open(stdout, "w", encoding="utf-8") as fh:
            monkeypatch.setattr(sys, "stdout", fh)
            fh.write("before ")
            main([verb, "--input", str(gen)])
            fh.write("after\n")
            monkeypatch.undo()
        assert stdout.read_bytes() == b"before " + want + b"after\n", (gen.name, verb)
        env = dict(os.environ, PYTHONPATH=str(Path(statecompat.__file__).parents[1]))
        with open(stdout, "wb") as fh:  # the console script's own standard output, a file descriptor
            subprocess.run([sys.executable, "-m", "statecompat.cli", verb, "--input", str(gen)],
                           stdout=fh, stderr=subprocess.DEVNULL, env=env, check=False)
        assert stdout.read_bytes() == want, (gen.name, verb)
    capsys.readouterr()


def re_encoded(report_text: str) -> dict:
    """A report's payload with its instance re-encoded, as the writer before the echo wrote it."""
    payload = json.loads(report_text)
    payload["instance"] = instance_payload(parse_instance(payload["instance"]))
    return payload


@pytest.mark.parametrize("mode", ["compatible", "incompatible", "pairwise-only"])
def test_spliced_reports_match_the_old_writer(tmp_path, capsys, mode):
    for dim in range(2, 9):
        for count in (2, 3):
            if mode == "pairwise-only" and (dim < 3 or count != 3):
                continue
            gen = tmp_path / f"{dim}-{count}.json"
            assert main(["generate", "--dim", str(dim), "--count", str(count), "--seed", str(dim),
                         "--mode", mode, "--output", str(gen)]) == 0
            line = gen.read_text().removesuffix("\n")
            assert load_instance(gen).echo == line
            for verb in ("check", "scenario"):
                out = tmp_path / f"{dim}-{count}.{verb}.json"
                main([verb, "--input", str(gen), "--output", str(out)])
                text = out.read_text()
                assert text.startswith(f'{{"instance": {line}, ')
                payload = re_encoded(text)
                assert text == write_to_text(payload) == list_route_text(payload), (dim, count, verb)
                assert_spells_as_json_dumps(text, payload)
    capsys.readouterr()


def test_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    gen, tight, plain, again = (tmp_path / f"{n}.json" for n in ("gen", "tight", "plain", "again"))
    assert main(["generate", "--dim", "3", "--count", "2", "--seed", "4", "--output", str(gen)]) == 0
    assert main(["check", "--input", str(gen), "--tol-rank", "1e-6", "--output", str(tight)]) == 0
    assert main(["check", "--input", str(gen), "--output", str(plain)]) == 0
    assert json.loads(tight.read_text())["tolerances"]["rank_rel"] == 1e-6
    assert json.loads(plain.read_text())["tolerances"] == {"match_abs": 1e-8, "rank_rel": 1e-10}
    generated = tmp_path / "defaults.json"
    assert main(["generate", "--output", str(generated)]) == 0
    inst = load_instance(generated)
    assert inst.dim == 2 and len(inst.matrices) == 2  # the defaults, not the last check's input
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--input", str(gen), "--tol-bogus", "1"])
    assert excinfo.value.code == 2
    assert main(["check", "--input", str(gen), "--output", str(again)]) == 0
    assert again.read_bytes() == plain.read_bytes()
    capsys.readouterr()


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
    assert main(["generate", "--count", "1"]) == 2
    assert main(["generate", "--dim", "3", "--count", "2", "--mode", "pairwise-only"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("call, message", [
    (lambda rng: generate_instance(3, 3, 1, "mixed"), "unknown mode 'mixed'"),
    (lambda rng: random_density(3, rng, rank=0), "rank must lie in 1..3, got 0"),
    (lambda rng: random_density(3, rng, rank=4), "rank must lie in 1..3, got 4"),
    (lambda rng: random_subspace(3, 4, rng), "subspace dimension must lie in 0..3, got 4"),
    (lambda rng: pairwise_only_instance(2, rng), "needs dimension >= 3, got 2"),
    (lambda rng: incompatible_instance(3, 1, rng), "needs count >= 2, got 1"),
    (lambda rng: incompatible_instance(3, 0, rng), "needs count >= 2, got 0"),
    (lambda rng: incompatible_instance(1, 2, rng), "dimension must be at least 2, got 1"),
    (lambda rng: incompatible_instance(0, 2, rng), "dimension must be at least 2, got 0"),
    (lambda rng: incompatible_instance(3.0, 2, rng), "dimension must be an integer, got 3.0"),
    (lambda rng: pairwise_only_instance(3.0, rng), "dimension must be an integer, got 3.0"),
    (lambda rng: pairwise_only_instance(True, rng), "dimension must be an integer, got True"),
], ids=["mode", "rank-0", "rank-over-dim", "sub-dim-over-dim", "pairwise-dim-2",
        "incompatible-count-1", "incompatible-count-0", "incompatible-dim-1", "incompatible-dim-0",
        "incompatible-float-dim", "pairwise-float-dim", "pairwise-bool-dim"])
def test_generators_refuse_parameters_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call(np.random.default_rng(0))


def test_a_failed_eigendecomposition_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    """LAPACK really fails, on NaN, inside the package's eigh entry: the gufunc sets
    the invalid flag and the entry's errstate handler raises numpy's own error,
    with no floating-point warning (the suite turns one into an error). At d <= 2
    LAPACK returns NaN without failing, so the matrix is 3x3."""
    path = tmp_path / "inst.json"
    write_instance(path, [np.eye(3) / 3])  # one matrix, so one line: each failing matrix gets its own
    monkeypatch.setattr(linalg, "_EIGH_GUFUNC", nan_fed(linalg._EIGH_GUFUNC))
    message = "eigendecomposition failed: Eigenvalues did not converge"
    with pytest.raises(NumericalFailureError, match=f"^{message}$"):
        DensityMatrix(np.eye(3) / 3)
    assert main(["check", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err


def test_a_failed_svd_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    """The intersection SVD's twin of the test above: LAPACK fails on NaN rows."""
    path = write_instance(tmp_path / "inst.json", generate_instance(3, 2, 1, "compatible"))
    monkeypatch.setattr(linalg, "_SVD_GUFUNC", nan_fed(linalg._SVD_GUFUNC))
    assert main(["check", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "statecompat: error: SVD did not converge\n"


def test_no_package_path_goes_through_the_numpy_linalg_wrappers(tmp_path, monkeypatch):
    """Every eigh and SVD the package makes is its own LAPACK entry, so with
    np.linalg.eigh and np.linalg.svd made to raise, validation, the report, the
    scenario, the intersection of subspaces and both report verbs still run."""
    matrices = generate_instance(4, 3, 5, "compatible")
    path = write_instance(tmp_path / "inst.json", matrices)

    def wrapper(*args, **kwargs):
        raise AssertionError("the package called a numpy.linalg wrapper")

    monkeypatch.setattr(np.linalg, "eigh", wrapper)
    monkeypatch.setattr(np.linalg, "svd", wrapper)
    rhos = [validate_density(m) for m in matrices]
    assert full_report(rhos).compatible
    assert run_scenario(rhos).success
    assert subspace_intersection([support(rho) for rho in rhos]).dim >= 1
    for verb in ("check", "scenario"):
        assert main([verb, "--input", str(path), "--output", str(tmp_path / "r.json")]) == 0


def test_generate_caps_its_size_before_allocating(capsys):
    for argv, flag in [
        (["--dim", "100000"], "--dim"),
        (["--dim", "2897", "--count", "2"], "--dim"),  # 16785218 entries, just over 2**24
        (["--dim", "2", "--count", "5000000"], "--count"),
        (["--dim", "2", "--count", "1025"], "--count"),
    ]:
        assert main(["generate"] + argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err and "cap" in err, err


@pytest.mark.parametrize("count, dim, flag", [
    (1025, 2, "--count"),  # the matrix cap alone is over
    (2, 2897, "--dim"),  # the entry cap alone, and two matrices of that dim are over it
    (1025, 4097, "--count"),  # both caps are over: the matrix cap is named first
    (5000000, 2, "--count"),
])
def test_reading_and_generating_refuse_a_size_in_the_same_words(tmp_path, capsys, count, dim, flag):
    with pytest.raises(InstanceFormatError) as excinfo:
        parse_instance({"dim": dim, "matrices": [{"rows": []}] * count})
    read = str(excinfo.value).removeprefix("instance too large: ")
    assert read != str(excinfo.value)
    out = tmp_path / "gen.json"
    assert main(["generate", "--count", str(count), "--dim", str(dim), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"statecompat: error: {flag} too large: {read}\n"
    assert not out.exists()


def test_neither_reading_nor_generating_refuses_the_largest_count_for_size(tmp_path, capsys):
    with pytest.raises(InstanceFormatError) as excinfo:  # refused for its empty rows instead
        parse_instance({"dim": 2, "matrices": [{"rows": []}] * 1024})
    assert str(excinfo.value) == "matrix 'rho_1': expected 2 rows"
    out = tmp_path / "gen.json"
    assert main(["generate", "--count", "1024", "--dim", "2", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(load_instance(out).matrices) == 1024


#: ``cli.main`` on the argv ``sys.argv[1:]`` in a fresh interpreter, or only
#: the import of ``statecompat.cli`` when there is none; prints the exit code
#: (None for the import) and whether orjson was imported.
MAIN_AND_IMPORTS = """
import sys
from statecompat import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(code, "orjson" in sys.modules)
"""


def test_orjson_is_imported_only_to_read_or_write_a_file(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(statecompat.__file__).parents[1]))
    path = str(tmp_path / "gen.json")
    for argv, printed in [([], "None False\n"),
                          (["generate", "--output", path], "0 True\n"),
                          (["check", "--input", path, "--output", str(tmp_path / "r.json")], "0 True\n")]:
        proc = subprocess.run([sys.executable, "-c", MAIN_AND_IMPORTS, *argv],
                              capture_output=True, text=True, env=env, check=False, timeout=120)
        assert (proc.stdout, proc.stderr) == (printed, "")


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
