import json
import subprocess
import sys
import time

import pytest

from umvue.cli import main


@pytest.fixture()
def p23_file(tmp_path):
    path = tmp_path / "paper-2-3.json"
    assert main(["corpus", "emit", "paper-2-3", "-o", str(path)]) == 0
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(p23_file, capsys):
    code, out, err = run(capsys, "analyze", str(p23_file))
    assert code == 0
    assert err == ""
    assert "mve partition: {1, 2, 3} {4}" in out


def test_analyze_json(p23_file, capsys):
    code, out, _ = run(capsys, "analyze", str(p23_file), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mve_partition"] == [["1", "2", "3"], ["4"]]
    assert data["umvue_functionals"] == ["2*theta + 2*theta^2", "1 - 2*theta - 2*theta^2"]


def test_verify_negative_verdict(p23_file, capsys):
    code, out, _ = run(capsys, "verify", str(p23_file), "--statistic", "1,0,0,0")
    assert code == 1
    assert "umvue: no" in out
    assert "witness: (1, 1, -1, 0)" in out
    assert "residual: theta" in out


def test_verify_positive_verdict(p23_file, capsys):
    code, out, _ = run(capsys, "verify", str(p23_file), "--statistic", "1,1,1,0")
    assert code == 0
    assert "umvue: yes" in out


def test_verify_length_mismatch_is_input_error(p23_file, capsys):
    code, _, err = run(capsys, "verify", str(p23_file), "--statistic", "1,0")
    assert code == 2
    assert err.startswith("error:")


def test_verify_bad_rational_is_input_error(p23_file, capsys):
    code, _, err = run(capsys, "verify", str(p23_file), "--statistic", "1,x,0,0")
    assert code == 2
    assert err.startswith("error:")


def test_estimate_positive(p23_file, capsys):
    code, out, _ = run(capsys, "estimate", str(p23_file), "--target", "1")
    assert code == 0
    assert "umvue: (1, 1, 1, 1)" in out


def test_estimate_block_functional(p23_file, capsys):
    code, out, _ = run(capsys, "estimate", str(p23_file),
                       "--target", "1 - 2*theta - 2*theta^2")
    assert code == 0
    assert "umvue: (0, 0, 0, 1)" in out


def test_estimate_no_umvue(p23_file, capsys):
    code, out, _ = run(capsys, "estimate", str(p23_file), "--target", "theta")
    assert code == 1
    assert "NoUmvue" in out


def test_estimate_not_estimable(p23_file, capsys):
    code, out, _ = run(capsys, "estimate", str(p23_file), "--target", "theta^3")
    assert code == 1
    assert "NotEstimable" in out


def test_estimate_unknown_parameter_is_input_error(p23_file, capsys):
    code, _, err = run(capsys, "estimate", str(p23_file), "--target", "eta")
    assert code == 2
    assert err.startswith("error:")


def test_product_and_slice(tmp_path, capsys):
    b1 = tmp_path / "b1.json"
    b2 = tmp_path / "b2.json"
    assert main(["corpus", "emit", "bernoulli", "-o", str(b1)]) == 0
    b2.write_text(b1.read_text().replace("theta", "eta"), encoding="utf-8")
    capsys.readouterr()

    prod = tmp_path / "prod.json"
    code, _, _ = run(capsys, "product", str(b1), str(b2), "-o", str(prod))
    assert code == 0
    data = json.loads(prod.read_text())
    assert data["pmf"][0] == "eta*theta"

    sliced = tmp_path / "sliced.json"
    code, _, _ = run(capsys, "slice", str(prod), "--bind", "eta=1/3", "-o", str(sliced))
    assert code == 0
    assert json.loads(sliced.read_text())["pmf"][0] == "1/3*theta"


def test_slice_at_endpoint_is_input_error(tmp_path, capsys):
    demo = tmp_path / "demo.json"
    assert main(["corpus", "emit", "two-param-demo", "-o", str(demo)]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "slice", str(demo), "--bind", "eta=0")
    assert code == 2
    assert err.startswith("error:")


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    assert "paper-2-3" in out
    assert "lehmann-trunc" in out


def test_corpus_emit_to_stdout(capsys):
    code, out, _ = run(capsys, "corpus", "emit", "binomial", "--param", "n=2")
    assert code == 0
    assert json.loads(out)["pmf"] == [
        "1 - 2*theta + theta^2", "2*theta - 2*theta^2", "theta^2",
    ]


def test_corpus_unknown_name_is_input_error(capsys):
    code, _, err = run(capsys, "corpus", "emit", "nope")
    assert code == 2
    assert err.startswith("error:")


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "analyze", "does-not-exist.json")
    assert code == 2
    assert err.startswith("error:")


def test_invalid_model_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "parameters": ["theta"],
        "domain": {"theta": ["0", "1"]},
        "support": ["a", "b"],
        "pmf": ["theta", "1 - 2*theta"],
    }), encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error:")
    assert "sum to 1" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err


def test_subprocess_entry_point(tmp_path):
    path = tmp_path / "m.json"
    emit = subprocess.run(
        [sys.executable, "-m", "umvue", "corpus", "emit", "paper-2-3", "-o", str(path)],
        capture_output=True, text=True,
    )
    assert emit.returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "umvue", "verify", str(path), "--statistic", "1,1,1,0"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "umvue: yes" in result.stdout


def test_zero_denominator_domain_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "parameters": ["theta"],
        "domain": {"theta": ["0", "1/0"]},
        "support": ["a", "b"],
        "pmf": ["theta", "1 - theta"],
    }), encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("target", ["theta^999999999", "(1+theta)^2000"])
def test_oversized_power_is_input_error_and_fast(p23_file, capsys, target):
    start = time.monotonic()
    code, _, err = run(capsys, "estimate", str(p23_file), "--target", target)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert err.startswith("error:")
