import importlib.resources
import json
import sys
import time

from khtangle import acat, cli, dstruct, tangles


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_algebra_a(capsys):
    code, out, _ = run(capsys, "verify", "algebra-a")
    assert code == cli.EXIT_PASS
    assert "PASS" in out


def test_verify_algebra_a_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "algebra-a")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["verdict"] == "PASS" and rep["violations"] == []
    assert rep["config"] == {"max_len": 5}


def test_json_after_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "algebra-a", "--json")
    assert code == cli.EXIT_PASS
    assert json.loads(out)["verdict"] == "PASS"


def packaged_table_lines():
    return importlib.resources.files("khtangle.data").joinpath(
        "mu_tables.txt").read_text().splitlines()


def test_verify_algebra_a_bad_table_fails(capsys, tmp_path):
    lines = [l for l in packaged_table_lines()
             if not l.startswith("mu2 p01 p10 ")]
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "algebra-a", "--table", str(path))
    assert code == cli.EXIT_FAIL
    assert "FAIL" in out and "violation" in out


def test_verify_algebra_a_missing_table_is_usage_error(capsys, tmp_path):
    path = tmp_path / "absent.txt"
    code, out, err = run(capsys, "verify", "algebra-a", "--table", str(path))
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and "absent.txt" in err
    assert out == ""


def test_verify_algebra_a_malformed_table_is_usage_error(capsys, tmp_path):
    path = tmp_path / "malformed.txt"
    path.write_text("\n".join(packaged_table_lines() + ["mu2 a0 zz -> a0"]))
    code, out, err = run(capsys, "verify", "algebra-a", "--table", str(path))
    assert code == cli.EXIT_USAGE
    assert err == "error: unknown generator 'zz' in 'mu2 a0 zz -> a0'\n"
    assert out == ""


def test_verify_algebra_a_refuses_malformed_lines(capsys, tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("mu2 a0 a0 -> a0\nmu2 a0 a0 -> b0\n")
    code, out, err = run(capsys, "verify", "algebra-a", "--table", str(path))
    assert code == cli.EXIT_USAGE
    assert err == "error: repeated entry mu2 a0 a0 in 'mu2 a0 a0 -> b0'\n"
    assert out == ""


def test_verify_algebra_a_empty_table_fails_units(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# no products\n")
    code, out, _ = run(capsys, "--json", "verify", "algebra-a",
                       "--table", str(path))
    assert code == cli.EXIT_FAIL
    rep = json.loads(out)
    assert rep["verdict"] == "FAIL"
    assert rep["violations"] == [f"unit {g}" for g in acat.GENERATORS]


def test_report_names_the_argv_main_received(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "--whatever"])
    code, out, _ = run(capsys, "--json", "compare", "--tangle", "x1")
    assert code == cli.EXIT_PASS
    assert json.loads(out)["command"] == "--json compare --tangle x1"


def test_verify_functor_reports_defects(capsys, monkeypatch):
    from khtangle import functor
    monkeypatch.setattr(functor, "F_TABLE", {
        k: v for k, v in functor.F_TABLE.items() if k != ("p01", "p10")})
    code, out, _ = run(capsys, "verify", "functor")
    assert code == cli.EXIT_FAIL
    assert ("   violation: p01 p10: defect "
            "['bb:D', 'bb:S^2', 'tt:D', 'tt:S^2']\n") in out


def test_verify_bimodules(capsys):
    code, out, _ = run(capsys, "verify", "bimodules", "--json")
    assert code == cli.EXIT_PASS
    assert json.loads(out)["config"] == {"bound": 16, "margin": 8}


def test_verify_depth_options_are_gone(capsys):
    # each verifier runs at one fixed depth, reported in its config
    for argv in (("algebra-a", "--max-len", "2"), ("functor", "--max-len", "0"),
                 ("bimodules", "--bound", "20"), ("bimodules", "--margin", "4"),
                 ("homology-c", "--max-weight", "3")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == cli.EXIT_USAGE, argv
        assert "unrecognized arguments" in err and out == ""


def test_verify_homology_c(capsys):
    code, out, _ = run(capsys, "verify", "homology-c", "--json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["verdict"] == "PASS"
    assert rep["homology_dims"]


def test_compute_dd1_roundtrips(capsys):
    code, out, _ = run(capsys, "compute", "dd1", "--tangle", "x1")
    assert code == cli.EXIT_PASS
    m = tangles.compute_dd1(tangles.parse_tangle("x1"))
    assert out == dstruct.serialize(m)
    assert dstruct.check_d_squared(m) == []
    assert len(m.gens) == 4  # two generators, doubled by the cone


def test_compute_lt_json(capsys):
    code, out, _ = run(capsys, "compute", "lt", "--tangle", "x1", "--json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    m = tangles.compute_lt_image(tangles.parse_tangle("x1"))
    assert rep["structure"] == dstruct.serialize(m)
    assert len(m.gens) == 4


def test_compare_equivalent(capsys):
    code, out, _ = run(capsys, "compare", "--tangle", "x1 x1")
    assert code == cli.EXIT_PASS
    assert "EQUIVALENT" in out


def test_compare_star_option(capsys):
    code, out, _ = run(capsys, "compare", "--tangle", "x1", "--star", "se")
    assert code == cli.EXIT_PASS


def test_bad_tangle_is_usage_error(capsys):
    code, _, err = run(capsys, "compare", "--tangle", "z9")
    assert code == cli.EXIT_USAGE
    assert "bad token" in err
    # a superscript is a digit to str.isdigit, but not to the parser
    code, _, err = run(capsys, "compare", "--tangle", "x\u00b2")
    assert code == cli.EXIT_USAGE
    assert "bad token" in err


def test_max_crossings_guard(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "compute", "dd1", "--tangle",
                         " ".join(["x1"] * 11))
    assert time.perf_counter() - t0 < 5
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and "over the cap of 50,000" in err
    assert out == ""


def test_corpus_runs_given_words(capsys):
    code, out, _ = run(capsys, "--json", "corpus", "x1 x1", "")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["config"] == {"entries": 2}
    assert rep["verdicts"] == {"x1 x1": "EQUIVALENT", "(empty)": "EQUIVALENT"}


def test_corpus_compares_a_repeated_word_once(capsys, monkeypatch):
    compared = []
    compare = tangles.compare
    monkeypatch.setattr(tangles, "compare",
                        lambda word: compared.append(str(word))
                        or compare(word))
    code, out, _ = run(capsys, "--json", "corpus", "x1", "x1", "", " x01 ")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["config"] == {"entries": 2}
    assert rep["verdicts"] == {"x1": "EQUIVALENT", "(empty)": "EQUIVALENT"}
    assert compared == ["x1", ""]


def test_wall_time_ignores_a_clock_stepping_back(capsys, monkeypatch):
    # the wall clock steps back 100 s between any two readings
    readings = iter(range(10 ** 9, 0, -100))
    monkeypatch.setattr(time, "time", lambda: float(next(readings)))
    code, out, _ = run(capsys, "--json", "compare", "--tangle", "x1")
    assert code == cli.EXIT_PASS
    assert 0 <= json.loads(out)["wall_time_s"] < 60


def test_corpus_bad_word_is_usage_error(capsys):
    code, out, err = run(capsys, "corpus", "x1 x1", "z9")
    assert code == cli.EXIT_USAGE
    assert "bad token" in err and out == ""


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == cli.EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == cli.EXIT_USAGE
