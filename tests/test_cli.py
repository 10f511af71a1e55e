import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import warnings

import pytest

import toricdual
from toricdual import oracle
from toricdual.cli import main, read_matrix
from toricdual.configuration import parse_configuration
from test_engine import _replay_strong, _strong_reference


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_segre2(tmp_path, as_json=True):
    path = tmp_path / ("segre2.json" if as_json else "segre2.txt")
    if as_json:
        path.write_text(
            json.dumps(
                {
                    "rows": 3,
                    "cols": 4,
                    "entries": [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]],
                }
            )
        )
    else:
        path.write_text("1 0 1 0\n0 1 0 1\n0 0 1 1\n")
    return str(path)


def test_gale_command_json(tmp_path, capsys):
    code, out, _ = run(capsys, "gale", write_segre2(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["gale_matrix"]["cols"] == 1
    assert [row[0] for row in doc["gale_matrix"]["entries"]] in (
        [1, -1, -1, 1],
        [-1, 1, 1, -1],
    )
    assert doc["affine_dim"] == 2
    assert "total_ms" in doc["timings"]


def test_gale_command_text_input(tmp_path, capsys):
    code, out, _ = run(capsys, "--format", "text", "gale", write_segre2(tmp_path, as_json=False))
    assert code == 0
    assert "gale_matrix" in out


def test_check_self_dual(tmp_path, capsys):
    code, out, _ = run(capsys, "check", "self-dual", write_segre2(tmp_path), "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["criterion"] == "gale-line-sums"
    assert doc["oracle"]["status"] == "ok"


def test_check_self_dual_verify_on_non_regular_input(tmp_path, capsys):
    # the referees read [1; W], so non-regular input is answered
    path = tmp_path / "twisted_cubic.txt"
    path.write_text("0 1 2 3\n")
    code, out, err = run(capsys, "check", "self-dual", str(path), "--verify")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["oracle"] == {"status": "ok", "flats": False, "sigma": False}


JOIN_SKIP = "oracle covers repeat-free non-pyramidal input"


@pytest.mark.parametrize(
    "text, criterion, reason",
    [
        # an apex, then a repeated column: both are joins
        ("1 1 1 1\n0 1 2 0\n0 0 0 1\n", "join-decomposition", JOIN_SKIP),
        ("0 1 1 2\n", "join-decomposition", JOIN_SKIP),
        # 13 distinct points on a line: past the referees' enumeration guard
        (" ".join(map(str, range(13))) + "\n", "gale-line-sums", "enumeration guard"),
    ],
)
def test_check_self_dual_verify_skips_what_the_oracle_does_not_cover(
    tmp_path, capsys, text, criterion, reason
):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    code, out, err = run(capsys, "check", "self-dual", str(path), "--verify")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["criterion"] == criterion
    assert doc["oracle"] == {"status": "skipped", "reason": reason}


def test_check_self_dual_verify_exits_one_on_a_disagreement(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "self_dual_via_flats", lambda b: False)
    code, out, _ = run(capsys, "check", "self-dual", write_segre2(tmp_path), "--verify")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["oracle"] == {"status": "DISAGREEMENT", "flats": False, "sigma": True}


def test_check_strong(tmp_path, capsys):
    path = write_segre2(tmp_path)
    code, out, _ = run(capsys, "check", "strong", path, "--verify")
    assert code == 0
    doc = json.loads(out)
    c = parse_configuration(read_matrix(path))
    assert doc["verdict"] is _strong_reference(c) is True
    assert doc["witness"]["line_sums_zero"] is True
    assert doc["witness"]["unbalanced_circuits"] == []
    _replay_strong(c, doc["witness"])
    assert doc["oracle"] == {"status": "ok", "points": True}


def write_strong6x16(tmp_path):
    """A regular, non-pyramidal 6x16 matrix whose canonical Gale entries have
    11 bits, so e^e products and the certifying grid are both out of reach."""
    path = tmp_path / "strong6x16.txt"
    path.write_text(
        "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n"
        "3 -3 2 0 -1 2 3 -2 1 -3 -1 -3 -3 -3 2 1\n"
        "-3 0 2 -2 0 2 -3 1 -2 3 0 0 1 -2 -1 -2\n"
        "2 -2 3 0 -1 -3 0 3 1 2 -3 -2 2 2 3 -1\n"
        "-3 2 -1 2 2 1 0 1 3 2 -2 -1 -1 1 0 3\n"
        "1 0 1 3 -3 0 -2 2 3 0 0 2 -2 -1 1 2\n"
    )
    return str(path)


def test_check_strong_on_large_products_exits_zero(tmp_path, capsys):
    # the line sums fail, so the strong test stops before checking balance
    path = write_strong6x16(tmp_path)
    code, out, err = run(capsys, "check", "strong", path)
    assert code == 0, err
    doc = json.loads(out)
    c = parse_configuration(read_matrix(path))
    assert doc["verdict"] is _strong_reference(c) is False
    assert doc["witness"]["line_sums_zero"] is False
    assert doc["witness"]["unbalanced_circuits"] is None
    _replay_strong(c, doc["witness"])


def _integers(value):
    """The number of integers in a JSON value."""
    if isinstance(value, dict):
        return sum(map(_integers, value.values()))
    if isinstance(value, list):
        return sum(map(_integers, value))
    return type(value) is int


def test_check_strong_witness_holds_o_n_integers(tmp_path, capsys):
    # [1; W] for the tour's 26x100 sample: regular, 100 points, corank 73;
    # the witness names classes and circuits, it does not hold a basis
    sample = pathlib.Path(__file__).parents[1] / "demos" / "data" / "random_26x100.txt"
    rows = read_matrix(str(sample))
    path = tmp_path / "ones_26x100.txt"
    path.write_text("\n".join(" ".join(map(str, row)) for row in [[1] * 100, *rows]) + "\n")
    code, out, err = run(capsys, "check", "strong", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["witness"]["line_sums_zero"] is False
    assert _integers(doc["witness"]) <= 3 * 100


def test_check_strong_verify_reports_a_skipped_oracle_past_its_guard(tmp_path, capsys):
    code, out, err = run(capsys, "check", "strong", write_strong6x16(tmp_path), "--verify")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["oracle"] == {"status": "skipped", "reason": "certifying grid guard"}


def test_check_facial(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check", "facial", write_segre2(tmp_path), "--subset", "0,2", "--verify"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    code, out, _ = run(capsys, "check", "facial", write_segre2(tmp_path))
    assert code == 1  # --subset missing


def test_decompose_and_enumerations(tmp_path, capsys):
    path = write_segre2(tmp_path)
    for cmd in ("decompose", "circuits", "flats", "smooth-certificate", "classify-hypersurface"):
        code, out, _ = run(capsys, cmd, path)
        assert code == 0, cmd
        json.loads(out)


def test_classify_hypersurface_value(tmp_path, capsys):
    _, out, _ = run(capsys, "classify-hypersurface", write_segre2(tmp_path))
    assert json.loads(out)["hypersurface_class"] == "segre_quadric"


def test_generate_lawrence_with_parity(tmp_path, capsys):
    out_file = tmp_path / "law.json"
    code, out, _ = run(
        capsys, "generate", "lawrence", "--rows", "1 1 1", "--output", str(out_file)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["parity_verdict"] is True
    saved = json.loads(out_file.read_text())
    assert saved["rows"] == 4 and saved["cols"] == 6
    # the written file round-trips through the reader
    assert read_matrix(str(out_file)).tolist() == saved["entries"]


def test_generate_family_alpha(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "family-alpha", "--alpha", "2")
    assert code == 0
    assert json.loads(out)["affine_dim"] == 4


def test_generate_family_dim(capsys):
    code, out, _ = run(capsys, "generate", "family-dim", "--alphas", "2,-2")
    assert code == 0
    assert json.loads(out)["affine_dim"] == 3


def test_generate_takes_r_from_the_alphas(capsys):
    from toricdual.families import family_codim, family_dim

    for argv, dim, c in (
        (["family-dim", "--alphas", "1,1,-2"], 4, family_dim(3, [1, 1, -2])),
        (["family-codim", "--m", "3", "--alphas", "2,-1,-1"], 5, family_codim(3, 3, [2, -1, -1])),
    ):
        code, out, err = run(capsys, "generate", *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["affine_dim"] == dim
        assert doc["matrix"]["entries"] == c.weights.tolist()
    # the removed --r is a usage error, not an abbreviation of --rows
    with pytest.raises(SystemExit) as exc:
        main(["generate", "family-dim", "--r", "2", "--alphas", "1,-1"])
    assert exc.value.code == 2


def test_oracle_crosscheck(capsys):
    code, out, _ = run(capsys, "oracle", "crosscheck", "--seed", "3", "--count", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["agreements"] == 5
    assert doc["disagreements"] == []


def test_oracle_crosscheck_exits_1_on_a_disagreement(capsys, monkeypatch):
    sigma = oracle.self_dual_via_sigma
    monkeypatch.setattr(oracle, "self_dual_via_sigma", lambda c: not sigma(c))
    code, out, err = run(capsys, "oracle", "crosscheck", "--seed", "3", "--count", "2")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["agreements"] == 0
    assert [entry["index"] for entry in doc["disagreements"]] == [0, 1]


def test_oracle_crosscheck_refuses_a_negative_count(capsys):
    _assert_one_error_line(*run(capsys, "oracle", "crosscheck", "--count", "-1"))
    code, out, _ = run(capsys, "oracle", "crosscheck", "--count", "0")
    assert code == 0
    assert json.loads(out)["agreements"] == 0


def test_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "gale", str(bad))
    assert code == 1 and "error" in err

    pyramid = tmp_path / "pyr.txt"
    pyramid.write_text("1 1 1 1\n0 1 2 0\n0 0 0 1\n")
    code, _, err = run(capsys, "check", "strong", str(pyramid))
    assert code == 1
    assert "non-pyramidal" in err

    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "gale", str(missing))
    assert code == 1


def test_reports_with_integers_past_the_digit_limit(tmp_path, capsys):
    # 2000-digit entries are read under the int-to-str limit (4300 digits by
    # default), but the Gale dual and the line-sum witness hold 3x3 minors
    rng = random.Random(3)
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps({"entries": [[rng.randrange(10**1999, 10**2000) for _ in range(6)] for _ in range(3)]})
    )
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for argv in (("gale", str(path)), ("check", "self-dual", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert max(map(len, re.findall(r"\d+", out))) > 4300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_reports_are_written_where_ints_have_no_digit_limit(tmp_path, capsys, monkeypatch):
    # an interpreter with no int-to-str limit (Python 3.10) has neither the
    # getter nor the setter: the report is written as it is, with no limit
    # lifted or put back
    path = write_segre2(tmp_path)
    code, out, err = run(capsys, "check", "self-dual", path)
    for name in ("get_int_max_str_digits", "set_int_max_str_digits"):
        monkeypatch.delattr(sys, name, raising=False)
    unlimited = run(capsys, "check", "self-dual", path)
    assert (code, err) == (unlimited[0], unlimited[2]) == (0, "")
    docs = [json.loads(out), json.loads(unlimited[1])]
    for doc in docs:
        del doc["timings"]
    assert docs[0] == docs[1] and docs[0]["verdict"] is True


def test_text_entries_past_the_digit_limit_keep_their_message(tmp_path, capsys):
    # an integer too long to read under the int-to-str limit is not called
    # a non-integer entry
    path = tmp_path / "long.txt"
    path.write_text("1 " + "7" * 5000 + "\n")
    code, out, err = run(capsys, "gale", str(path))
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        _assert_one_error_line(code, out, err)
        assert "digits" in err and "non-integer" not in err
    else:
        assert code == 0


def _assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# int() alone reads "1_0" as 10 and the Arabic-Indic digit as 3, and
# refuses "+-2" with its own message
NOT_INTEGERS = ["1_0", "٣", "+-2"]


@pytest.mark.parametrize("token", NOT_INTEGERS)
@pytest.mark.parametrize("place", ["matrix", "--subset", "--alphas"])
def test_an_integer_is_a_sign_and_ascii_digits(tmp_path, capsys, place, token):
    path = tmp_path / "matrix.txt"
    path.write_text(f"1 1 1\n0 1 {token}\n")
    argv, message = {
        "matrix": (("check", "self-dual", str(path)), f"non-integer entry {token!r} at (1,2)"),
        "--subset": (
            ("check", "facial", write_segre2(tmp_path), "--subset", f"0,{token}"),
            f"--subset expects comma-separated integers, got {token!r}",
        ),
        "--alphas": (
            ("generate", "family-dim", "--alphas", f"{token},-2"),
            f"--alphas expects comma-separated integers, got {token!r}",
        ),
    }[place]
    code, out, err = run(capsys, *argv)
    _assert_one_error_line(code, out, err)
    assert err == f"error: {message}\n"


def test_spaces_around_an_integer_are_read(tmp_path, capsys):
    code, out, _ = run(capsys, "check", "facial", write_segre2(tmp_path), "--subset", "0, 2")
    assert code == 0 and json.loads(out)["subset"] == [0, 2]
    code, out, _ = run(capsys, "generate", "segre", "--m", " 2")
    assert code == 0 and json.loads(out)["m"] == 2


@pytest.mark.parametrize("token", NOT_INTEGERS)
def test_an_integer_option_is_a_sign_and_ascii_digits(capsys, token):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "segre", "--m", token])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"toricdual generate: error: argument --m: expects an integer, got {token!r}"
    ]


def test_refusals_echo_a_short_excerpt_of_the_entry(tmp_path, capsys):
    # an entry nested 900 deep (within the JSON parser's limit) and a
    # 5000-character text token are cut, not echoed whole
    nested = tmp_path / "nested.json"
    nested.write_text('{"entries": ' + "[" * 900 + "]" * 900 + "}")
    token = tmp_path / "token.txt"
    token.write_text("1 " + "x" * 5000 + "\n")
    for path, place in ((nested, "(0,0)"), (token, "(0,1)")):
        code, out, err = run(capsys, "gale", str(path))
        _assert_one_error_line(code, out, err)
        assert len(err) < 120 and "..." in err
        assert err.startswith("error: non-integer entry ") and err.endswith(f" at {place}\n")


def test_deeply_nested_json_is_one_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (("check", "self-dual", str(path)), ("gale", str(path))):
        code, out, err = run(capsys, *argv)
        _assert_one_error_line(code, out, err)
        assert err == "error: the JSON nests too deeply to be a matrix\n"


@pytest.mark.parametrize("entries", [5, [5], [[1, 2], 3], None])
def test_malformed_entries_are_input_errors(tmp_path, capsys, entries):
    path = tmp_path / "bad_shape.json"
    path.write_text(json.dumps({"entries": entries}))
    for argv in (("check", "self-dual", str(path)), ("gale", str(path))):
        _assert_one_error_line(*run(capsys, *argv))


def test_configuration_without_points_is_refused(tmp_path, capsys):
    path = tmp_path / "no_points.json"
    path.write_text(json.dumps({"entries": [[]]}))
    for argv in (("check", "self-dual", str(path)), ("gale", str(path)), ("decompose", str(path))):
        code, out, err = run(capsys, *argv)
        _assert_one_error_line(code, out, err)
        assert "at least one point" in err


def test_read_matrix_closes_its_file(tmp_path):
    path = write_segre2(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert read_matrix(path).shape == (3, 4)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_read_matrix_from_stdin(capsys, monkeypatch):
    text = "1 0 1 0\n0 1 0 1\n0 0 1 1\n"
    rows = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert read_matrix("-").tolist() == rows
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "gale", "-")
    assert code == 0
    assert json.loads(out)["config_echo"]["entries"] == rows


SEGRE2_TEXT = "1 0 1 0\n0 1 0 1\n0 0 1 1\n"
SEGRE2_JSON = '{"entries": [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]}'


@pytest.mark.parametrize(
    "text, source",
    [(SEGRE2_TEXT, "file"), (SEGRE2_JSON, "file"), (SEGRE2_TEXT, "stdin")],
    ids=["text-file", "json-file", "stdin"],
)
def test_a_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch, text, source):
    rows = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
        path = "-"
    code, out, err = run(capsys, "check", "self-dual", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["config_echo"]["entries"] == rows


def test_read_matrix_refusals(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text(" \n\n")
    with pytest.raises(ValueError, match="empty matrix file"):
        read_matrix(str(empty))
    path = tmp_path / "bad_cols.json"
    path.write_text(json.dumps({"rows": 2, "cols": 3, "entries": [[1, 0], [0, 1]]}))
    with pytest.raises(ValueError, match="'cols' field disagrees"):
        read_matrix(str(path))


def test_numpy_is_never_imported(tmp_path):
    """Importing the CLI, a check and a crosscheck all run without numpy."""
    script = "\n".join(
        [
            "import sys",
            "import toricdual.cli",
            "assert 'numpy' not in sys.modules, 'import'",
            f"assert toricdual.cli.main(['check', 'self-dual', {write_segre2(tmp_path)!r}]) == 0",
            "assert 'numpy' not in sys.modules, 'check self-dual'",
            "assert toricdual.cli.main(['oracle', 'crosscheck', '--count', '3']) == 0",
            "assert toricdual.crosscheck(seed=1, count=2)['disagreements'] == []",
            "assert 'numpy' not in sys.modules, 'crosscheck'",
        ]
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr


def _child_env():
    """The environment of a fresh interpreter that finds this checkout's package."""
    src = os.path.dirname(os.path.dirname(toricdual.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_python(script):
    """Run ``script`` in a fresh interpreter that finds this checkout's package."""
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), timeout=120
    )


def test_a_closed_stdout_exits_141_without_an_error_line():
    """A reader that stops early (``toricdual ... | head -c 10``) is not an
    input error: the run exits 128 + SIGPIPE and writes nothing to stderr,
    not even when the interpreter flushes stdout on exit."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricdual.cli", "check", "self-dual", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    # the report is written only after stdin is read, so the read end of
    # stdout is closed before the first write
    proc.stdout.close()
    proc.stdin.write(b"1 0 1 0\n0 1 0 1\n0 0 1 1\n")
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_check_self_dual_loads_no_oracle_code(tmp_path):
    """A plain check imports neither the referees, the families nor
    dataclasses; the commands that run them still work in that process."""
    path = write_segre2(tmp_path)
    # a site that preloads one of them must not fail the test, so leave out
    # what an interpreter holds before it imports toricdual
    bare = set(_run_python("import sys; print('\\n'.join(sys.modules))").stdout.split())
    watched = sorted({"toricdual.oracle", "toricdual.families", "dataclasses"} - bare)
    assert "toricdual.oracle" in watched and "toricdual.families" in watched
    script = "\n".join(
        [
            "import sys",
            "import toricdual.cli",
            f"assert toricdual.cli.main(['check', 'self-dual', {path!r}]) == 0",
            f"loaded = [m for m in {watched!r} if m in sys.modules]",
            "assert loaded == [], loaded",
            f"assert toricdual.cli.main(['check', 'self-dual', {path!r}, '--verify']) == 0",
            "assert toricdual.cli.main(['generate', 'segre', '--m', '2']) == 0",
            "assert toricdual.cli.main(['oracle', 'crosscheck', '--count', '2']) == 0",
        ]
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_check_self_dual_leaves_fractions_unimported(tmp_path):
    """The checks and the referees run on ints alone: ``imat`` imports
    ``Fraction`` only for a non-int entry and ``ratlp`` loads only where an
    LP runs, so a plain check loads none of ``fractions``, the ``decimal``
    it imports, and ``ratlp``; a facial check, a smoothness certificate, a
    verified check and a crosscheck, each in a fresh process after a plain
    check, load ``ratlp`` and still neither of the other two."""
    path = write_segre2(tmp_path)
    bare = set(_run_python("import sys; print('\\n'.join(sys.modules))").stdout.split())
    watched = sorted({"fractions", "decimal"} - bare)
    assert "fractions" in watched and "toricdual.ratlp" not in bare
    for argv in (
        ["check", "facial", str(path), "--subset", "0,1"],
        ["smooth-certificate", str(path)],
        ["check", "self-dual", str(path), "--verify"],
        ["oracle", "crosscheck", "--count", "3"],
    ):
        script = "\n".join(
            [
                "import sys",
                "import toricdual.cli",
                f"assert toricdual.cli.main(['check', 'self-dual', {str(path)!r}]) == 0",
                f"loaded = [m for m in {watched + ['toricdual.ratlp']!r} if m in sys.modules]",
                "assert loaded == [], loaded",
                f"assert toricdual.cli.main({argv!r}) == 0",
                f"loaded = [m for m in {watched!r} if m in sys.modules]",
                "assert loaded == [], loaded",
                "assert 'toricdual.ratlp' in sys.modules",
            ]
        )
        proc = _run_python(script)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_inconsistent_json_header(tmp_path, capsys):
    path = tmp_path / "bad_dims.json"
    path.write_text(json.dumps({"rows": 5, "cols": 4, "entries": [[1, 0], [0, 1]]}))
    code, _, err = run(capsys, "gale", str(path))
    assert code == 1 and "disagrees" in err


@pytest.mark.parametrize("header", [{"rows": True}, {"cols": 3.0}], ids=["rows-true", "cols-float"])
def test_json_sizes_must_be_integers(tmp_path, capsys, header):
    # true == 1 and 3.0 == 3 in Python, but neither is a size
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps({**header, "entries": [[1, 2, 3]]}))
    code, out, err = run(capsys, "check", "self-dual", str(path))
    assert code == 1 and out == ""
    assert f"'{next(iter(header))}' field disagrees with the entries" in err


def test_enumeration_guard_surfaces_as_error(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text(" ".join(str(i) for i in range(13)) + "\n")
    code, _, err = run(capsys, "circuits", str(wide))
    assert code == 1 and "guard" in err


def test_format_flag_after_subcommand(tmp_path, capsys):
    code, out, _ = run(capsys, "gale", write_segre2(tmp_path), "--format", "text")
    assert code == 0
    assert out.startswith("gale_matrix") or "gale_matrix" in out


REPORT = ("verdict", "criterion", "witness")
ECHO = ("config_echo", "timings")
GENERATED = ("matrix", "affine_dim")
# each command line (SEGRE2 stands for a matrix file) and its report's keys
COMMAND_KEYS = {
    "gale SEGRE2": ("gale_matrix", "affine_dim", "zero_rows", *ECHO),
    "check self-dual SEGRE2": (*REPORT, *ECHO),
    "check self-dual SEGRE2 --verify": (*REPORT, "oracle", *ECHO),
    "check strong SEGRE2 --verify": (*REPORT, "oracle", *ECHO),
    "check facial SEGRE2 --subset 0": (*REPORT, "subset", *ECHO),
    "check facial SEGRE2 --subset 0 --verify": (*REPORT, "subset", "oracle", *ECHO),
    "decompose SEGRE2": ("repeat_codim", "apex_indices", "core_indices", "join_shape", *ECHO),
    "circuits SEGRE2": ("circuits", *ECHO),
    "flats SEGRE2": ("flats", *ECHO),
    "smooth-certificate SEGRE2": (*REPORT, "certificate", *ECHO),
    "classify-hypersurface SEGRE2": ("hypersurface_class", *ECHO),
    "generate segre": (*GENERATED, "m", *ECHO),
    'generate lawrence --rows "1 1 1"': (
        *GENERATED, "block", "parity_verdict", "parity_witness", *ECHO
    ),
    "generate family-alpha": (*GENERATED, "alpha", *ECHO),
    "generate family-dim": (*GENERATED, *ECHO),
    "generate family-codim": (*GENERATED, *ECHO),
    "oracle crosscheck --count 2": (
        "seed", "count", "self_dual_instances", "agreements", "disagreements", "timings"
    ),
}


@pytest.mark.parametrize("command", COMMAND_KEYS)
def test_every_command_reports_its_keys_in_order(tmp_path, capsys, command):
    segre2 = write_segre2(tmp_path)
    argv = [segre2 if a == "SEGRE2" else a for a in shlex.split(command)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert tuple(json.loads(out)) == COMMAND_KEYS[command]


def test_every_command_refuses_with_one_error_line(tmp_path, capsys, monkeypatch):
    pyramid = tmp_path / "pyramid.txt"
    pyramid.write_text("1 1 1 1\n0 1 2 0\n0 0 0 1\n")
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("1 1 1 1\n0 1 2 1\n")
    path = write_segre2(tmp_path)
    fractional = tmp_path / "fractional.txt"
    fractional.write_text("# a comment line is not counted\n1 1 1\n1 1.5 2\n")
    no_entries = tmp_path / "no_entries.json"
    no_entries.write_text('{"rows": 2}')
    bare_array = tmp_path / "bare_array.json"
    bare_array.write_text("[[1,2],[3,4]]")
    json_form = (
        'a JSON matrix is an object with an "entries" field: '
        '{"rows": d, "cols": n, "entries": [[...], ...]}'
    )
    for argv in (
        ("check", "strong", str(pyramid)),
        ("check", "facial", path, "--subset", "4"),
        ("smooth-certificate", str(repeated)),
        ("generate", "lawrence"),
    ):
        _assert_one_error_line(*run(capsys, *argv))
    # every integer the command line reads names its place when it is not one
    for argv, message in (
        (("check", "self-dual", str(fractional)), "non-integer entry '1.5' at (1,1)"),
        (("check", "self-dual", str(no_entries)), json_form),
        (("decompose", str(bare_array)), json_form),
        (("check", "facial", path, "--subset", "0,,1"),
         "--subset expects comma-separated integers, got ''"),
        (("generate", "lawrence", "--rows", "1 a"),
         "--rows expects integer rows separated by ';', got 'a'"),
        (("generate", "family-dim", "--alphas", "2,-2.0"),
         "--alphas expects comma-separated integers, got '-2.0'"),
    ):
        code, out, err = run(capsys, *argv)
        _assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"
    monkeypatch.setattr(oracle, "facial_via_separation", lambda c, s: False)
    code, out, _ = run(capsys, "check", "facial", path, "--subset", "0", "--verify")
    assert code == 1 and json.loads(out)["oracle"]["status"] == "DISAGREEMENT"


def _fuzz_matrix_file(rng):
    """The body of a random small matrix file, a JSON object or text, half
    of them regular; about one in three has a defect that the reader must
    refuse: a ragged row, an entry that is no integer, or a JSON size that
    disagrees."""
    d, n = rng.randint(1, 3), rng.randint(1, 7)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
    if rng.random() < 0.5:  # a row of ones: both presentations occur
        rows[0] = [1] * n
    defect = rng.choice([None, None, None, None, "ragged", "size", 1.5, "x", True])
    if defect == "ragged":
        rows[-1].append(1)
    elif defect not in (None, "size"):
        rows[rng.randrange(d)][rng.randrange(n)] = defect
    if defect == "size":
        return json.dumps({"rows": d, "cols": n + 1, "entries": rows})
    if rng.random() < 0.5:
        sizes = {"rows": d, "cols": n} if rng.random() < 0.5 else {}
        return json.dumps({**sizes, "entries": rows})
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def test_matrix_commands_keep_their_exit_contract_on_random_input(tmp_path, capsys):
    # every matrix command, --verify included, on seeded random files: exit
    # 0 with a JSON report, or exit 1 with one error: line and nothing else
    rng = random.Random(20)
    commands = [shlex.split(c) for c in COMMAND_KEYS if "SEGRE2" in c]
    path = tmp_path / "matrix"
    for _ in range(80):
        path.write_text(_fuzz_matrix_file(rng))
        for command in commands:
            code, out, err = run(capsys, *[str(path) if a == "SEGRE2" else a for a in command])
            if code == 0:
                assert err == "" and "timings" in json.loads(out), command
            else:
                _assert_one_error_line(code, out, err)
