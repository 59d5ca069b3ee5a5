import json
import subprocess
import sys
import time

import pytest

from umvue import analyze_model, corpus_model, load_model, render_text, require_valid
from umvue.cli import _build_parser, main


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


@pytest.mark.parametrize("target", ["theta^999999999", "(1+theta)^2000",
                                    "(1+theta)^500*(1+theta)^500*(1+theta)^500"])
def test_oversized_power_is_input_error_and_fast(p23_file, capsys, target):
    start = time.monotonic()
    code, _, err = run(capsys, "estimate", str(p23_file), "--target", target)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert err.startswith("error:")


def model_file(tmp_path, pmf, domain=("0", "1/4")):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "parameters": ["theta"],
        "domain": {"theta": list(domain)},
        "support": [str(k) for k in range(len(pmf))],
        "pmf": pmf,
    }), encoding="utf-8")
    return path


LONG_LITERAL = "9" * 5000
DEEP = "(" * 5000 + "theta" + ")" * 5000


@pytest.mark.parametrize("text, position", [("theta^²", 6), (LONG_LITERAL, 0),
                                            ("theta + " + LONG_LITERAL, 8), (DEEP, 100)],
                         ids=["superscript", "long", "long-second", "deep"])
def test_bad_number_or_nesting_in_target_is_input_error(p23_file, capsys, text, position):
    start = time.monotonic()
    code, _, err = run(capsys, "estimate", str(p23_file), "--target", text)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert err.startswith("error:") and f"at position {position}" in err


@pytest.mark.parametrize("text", ["theta^²", LONG_LITERAL, DEEP], ids=["superscript", "long", "deep"])
def test_bad_number_or_nesting_in_pmf_is_input_error(tmp_path, capsys, text):
    start = time.monotonic()
    code, _, err = run(capsys, "analyze", str(model_file(tmp_path, [text, "1 - theta"])))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert err.startswith("error:")


def test_decimal_digits_of_any_script_and_nesting_100_parse(tmp_path, capsys):
    nested = "(" * 100 + "theta" + ")" * 100
    path = model_file(tmp_path, [nested + "^٢", "1 - theta^2"])
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "theta^2" in out
    code, out, _ = run(capsys, "estimate", str(path), "--target", nested)
    assert code != 2
    assert "target: theta" in out


@pytest.mark.parametrize("domain", ["[0, 0.5]", '["0", 1e-400]', '[0.0, "1/2"]'])
def test_json_float_in_domain_is_input_error(tmp_path, capsys, domain):
    path = tmp_path / "m.json"
    path.write_text('{"parameters": ["theta"], "domain": {"theta": %s}, "support": ["a", "b"],'
                    ' "pmf": ["theta", "1 - theta"]}' % domain, encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error:") and "'theta'" in err


@pytest.mark.parametrize("domain", ['"01"', '{"0": "a", "1": "b"}', '["0", "1/2", "1"]', '"0"'],
                         ids=["string", "object", "three", "scalar"])
def test_domain_entry_that_is_not_a_pair_is_input_error(tmp_path, capsys, domain):
    path = tmp_path / "m.json"
    path.write_text('{"parameters": ["theta"], "domain": {"theta": %s}, "support": ["a", "b"],'
                    ' "pmf": ["theta", "1 - theta"]}' % domain, encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'theta'" in err and "two-element array" in err


MALFORMED_FILES = {
    "deep": b"[" * 100000,
    "long-integer": ('{"parameters": ["theta"], "domain": {"theta": [0, %s]}, "support": ["a", "b"],'
                     ' "pmf": ["theta", "1 - theta"]}' % ("1" * 5000)).encode(),
    "utf-16-bom": b"\xff\xfe{}",
}


@pytest.mark.parametrize("content", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
def test_unreadable_model_file_is_input_error_and_fast(tmp_path, capsys, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    start = time.monotonic()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_json_integer_and_string_domain_bounds_are_read(tmp_path, capsys):
    path = model_file(tmp_path, ["theta", "1 - theta"], domain=(0, "1/2"))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "mve partition" in out


# nine factors of 10^500 make a 4501-digit coefficient, past the interpreter's
# int-to-string limit (4300 digits)
HUGE_TARGET = "*".join(["10^500"] * 9) + "*theta"


def test_coefficient_too_long_to_print_in_target_is_input_error(p23_file, capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "estimate", str(p23_file), "--target", HUGE_TARGET)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "digits" in err


def test_product_with_coefficient_too_long_to_print_is_input_error(tmp_path, capsys):
    c = str(10 ** 2199)  # 2200 digits; the product has c^2 with 4399
    paths = []
    for name in ("theta", "tau"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "parameters": [name],
            "domain": {name: ["0", f"1/{c}"]},
            "support": ["a", "b"],
            "pmf": [f"{c}*{name}", f"1 - {c}*{name}"],
        }), encoding="utf-8")
        paths.append(str(path))
    start = time.monotonic()
    code, out, err = run(capsys, "product", *paths)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "digits" in err


def test_corpus_emit_at_the_size_bound_reads_back(tmp_path, capsys):
    # lehmann-trunc's top degree is k + 1, so k = 511 is its largest size
    path = tmp_path / "lt.json"
    assert main(["corpus", "emit", "lehmann-trunc", "--param", "k=511", "-o", str(path)]) == 0
    assert require_valid(load_model(path)) == corpus_model("lehmann-trunc", {"k": 511})
    path = tmp_path / "const.json"
    assert main(["corpus", "emit", "constant", "--param", "n=512", "-o", str(path)]) == 0
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "cells: 512" in out


@pytest.mark.parametrize("name, param", [("lehmann-trunc", "k=512"), ("binomial", "n=513"),
                                         ("constant", "n=513"), ("binomial", "n=1000000")])
def test_corpus_size_over_the_bound_is_input_error_and_fast(capsys, name, param):
    start = time.monotonic()
    code, out, err = run(capsys, "corpus", "emit", name, "--param", param)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "<=" in err


def test_corpus_emit_then_analyze_round_trip(tmp_path, capsys):
    for name, param in (("binomial", "n=6"), ("lehmann-trunc", "k=5"), ("constant", "n=3")):
        path = tmp_path / f"{name}.json"
        assert main(["corpus", "emit", name, "--param", param, "-o", str(path)]) == 0
        key, value = param.split("=")
        expected = render_text(analyze_model(corpus_model(name, {key: int(value)})))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert out == expected


# a decimal exponent expands to a power of ten, so Fraction("1e999999999")
# never returns; past the int-to-string limit (4300 digits) it is refused
# from the text
@pytest.mark.parametrize("argv", [
    ["verify", "MODEL", "--statistic=1e3000000,1,1,0"],
    ["verify", "MODEL", "--statistic=1,1e-999999999,1,0"],
    ["slice", "MODEL", "--bind", "theta=1e5000"],
    ["analyze", "HUGE_DOMAIN"],
], ids=["statistic", "negative-exponent", "binding", "domain"])
def test_huge_decimal_exponent_is_input_error_and_fast(p23_file, tmp_path, capsys, argv):
    huge_domain = model_file(tmp_path, ["theta", "1 - theta"], domain=("0", "1e5000"))
    argv = [{"MODEL": str(p23_file), "HUGE_DOMAIN": str(huge_domain)}.get(a, a) for a in argv]
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "more than 4300 digits" in err


def test_decimal_exponent_within_the_limit_is_read(p23_file, capsys):
    code, out, _ = run(capsys, "verify", str(p23_file), "--statistic=1e4000,1e4000,1e4000,0")
    assert code == 0
    assert "umvue: yes" in out
    assert f"statistic: ({10**4000}, " in out


def test_slice_out_of_domain_error_line_stays_short(p23_file, capsys):
    code, out, err = run(capsys, "slice", str(p23_file), "--bind", "theta=1e4000")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert len(lines[0]) < 200
    assert "theta" in lines[0]


# the parser is built once per process, so an append default (--bind,
# --param) or a help exit must not carry from one main() call to the next
@pytest.mark.parametrize("first, second, second_says", [
    (["slice", "DEMO", "--bind", "eta=1/3"], ["slice", "DEMO"],
     "error: slice needs at least one --bind NAME=VALUE\n"),
    (["corpus", "emit", "binomial", "--param", "n=3"], ["corpus", "emit", "binomial", "--param", "n=4"],
     '"4"'),
    (["--help"], ["corpus", "emit", "binomial", "--param", "n=2"], '"2"'),
], ids=["slice-bind", "corpus-param", "help"])
def test_successive_calls_share_no_state(tmp_path, capsys, first, second, second_says):
    demo = tmp_path / "demo.json"
    assert main(["corpus", "emit", "two-param-demo", "-o", str(demo)]) == 0
    first, second = ([str(demo) if a == "DEMO" else a for a in argv] for argv in (first, second))

    def fresh(argv):
        _build_parser.cache_clear()
        return run(capsys, *argv)

    expected = [fresh(first), fresh(second)]
    assert second_says in expected[1][1] + expected[1][2]
    _build_parser.cache_clear()
    assert [run(capsys, *first), run(capsys, *second)] == expected
    assert [run(capsys, *first), run(capsys, *second)] == expected
    assert _build_parser.cache_info().misses == 1
