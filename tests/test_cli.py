import numpy as np
import pytest

from tracecat import algebra, cli
from tracecat.cyclo import CycloField
from tracecat.fusion import verlinde_su2
from tracecat.modules import AmbiguousFusion, regular_module
from tracecat.packages import ade_action, data_dir, load_builtin, save_package


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_table_golden(capsys):
    code, out, _ = run(capsys, "trace", "--builtin", "d4_su2_4")
    assert code == 0
    assert out == "1  : 1 ⊕ 5\n2  : 2 ⊕ 4\n3  : 3\n3' : 3\n"


def test_trace_table_tsv(capsys):
    code, out, _ = run(capsys, "trace", "--builtin", "d4_su2_4", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "1\t1^1 + 5^1"


def test_trace_word_golden(capsys):
    code, out, _ = run(
        capsys, "trace", "--builtin", "d10_su2_16", "--word", "(1+9)*(1+9')"
    )
    assert code == 0
    assert out.strip() == "1 ⊕ 3 ⊕ 7 ⊕ 9 ⊕ 9 ⊕ 11 ⊕ 15 ⊕ 17"


def test_trace_object_trivial(capsys):
    code, out, _ = run(capsys, "trace", "--builtin", "a5_su2_4", "--object", "1")
    assert code == 0
    assert out.strip() == "1"


def test_trace_word_with_multiplicity_terms(capsys):
    code, out, _ = run(
        capsys, "trace", "--builtin", "d10_su2_16", "--word", "(2*9)*(1+9')"
    )
    assert code == 0  # multiplicities inside parenthesised factors


def test_object_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "trace", "--builtin", "d4_su2_4", "--object", "1+zz")
    assert code == 2
    assert "unknown label" in err


def test_word_parse_error(capsys):
    code, _, err = run(capsys, "trace", "--builtin", "d4_su2_4", "--word", "(1+2")
    assert code == 2
    assert "parenthes" in err


@pytest.mark.parametrize("word", ["((2))", "(())", "(1+(2))", "(2"])
def test_parentheses_do_not_nest_in_words(capsys, word):
    code, out, err = run(capsys, "fuse", "--k", "4", "--word", word)
    assert (code, out, err) == (2, "", "error: unbalanced parentheses in word expression\n")


@pytest.mark.parametrize("word", ["2*2 ", "2*2\t", " 2*2", "2 * 2"])
def test_whitespace_around_word_tokens_is_accepted(capsys, word):
    ring = verlinde_su2(4)
    assert cli.parse_word(word, ring.labels, ring.name) == cli.parse_word("2*2", ring.labels, ring.name)
    assert run(capsys, "fuse", "--k", "4", "--word", word) == (0, "1 ⊕ 3\n", "")


def test_trailing_whitespace_after_an_object_is_accepted():
    ring = verlinde_su2(16)
    assert cli.parse_object("1+9 ", ring.labels, ring.name) == ring.basis("1") + ring.basis("9")


def test_an_untokenizable_word_is_one_error_line(capsys):
    code, out, err = run(capsys, "fuse", "--k", "4", "--word", "1&1")
    assert (code, out, err) == (2, "", "error: cannot tokenize expression at '&1'\n")


def test_missing_package_selector(capsys):
    code, _, err = run(capsys, "trace")
    assert code == 2


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "trace", "--builtin", "zzz")
    assert code == 1
    assert "no builtin" in err


def test_fuse_in_base_ring(capsys):
    code, out, _ = run(capsys, "fuse", "--k", "4", "--word", "2*2")
    assert code == 0
    assert out.strip() == "1 ⊕ 3"


def test_fuse_in_module_ring(capsys):
    code, out, _ = run(capsys, "fuse", "--builtin", "d10_su2_16", "--word", "9*9'")
    assert code == 0
    assert out.strip() == "3 ⊕ 7"


def test_end_vertex(capsys):
    code, out, _ = run(capsys, "end", "--builtin", "e7_su2_16", "--object", "1")
    assert code == 0
    assert out.strip() == "1 ⊕ 9 ⊕ 17"


def test_end_catalog(capsys):
    code, out, _ = run(capsys, "end", "--builtin", "e7_su2_16", "--bound", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 7


def test_end_identify(capsys):
    code, out, _ = run(
        capsys,
        "end",
        "--builtin",
        "e7_su2_16",
        "--object",
        "1",
        "--identify",
        "a17_su2_16,d10_su2_16,e7_su2_16",
    )
    assert code == 0
    assert "unique = yes" in out


@pytest.mark.parametrize(
    "once,repeated",
    [
        ("e7_su2_16", "e7_su2_16,e7_su2_16"),
        ("e7_su2_16,a17_su2_16", "e7_su2_16,a17_su2_16,e7_su2_16"),
    ],
)
def test_repeated_identify_names_count_once(capsys, monkeypatch, once, repeated):
    loaded = []
    monkeypatch.setattr(cli, "load_builtin", lambda name: loaded.append(name) or load_builtin(name))
    argv = ("end", "--builtin", "e7_su2_16", "--object", "1", "--identify")
    single = run(capsys, *argv, once)
    assert single[0] == 0 and "witness = " in single[1]
    loaded_once, loaded[:] = sorted(loaded), []
    assert run(capsys, *argv, repeated) == single
    assert sorted(loaded) == loaded_once  # a repeated name is not loaded again


def test_identify_reuses_the_builtin_package(capsys, monkeypatch):
    loaded = []
    monkeypatch.setattr(cli, "load_builtin", lambda name: loaded.append(name) or load_builtin(name))
    argv = ("end", "--builtin", "e7_su2_16", "--object", "1", "--identify", "a17_su2_16,e7_su2_16")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "witness = e7_su2_16:1^1  unique = yes" in out
    assert loaded == ["e7_su2_16", "a17_su2_16"]  # --builtin once, then the new name


def test_identify_over_another_base_ring_exits_one(capsys, tmp_path):
    # a regular module over the D4 module ring: its internal Ends are not
    # objects of SU(2)_3, whatever their multiplicities
    regular = regular_module(load_builtin("d4_su2_4").module_ring(), name="reg_d4")
    save_package(regular, tmp_path / "reg_d4.pkg")
    argv = ("end", "--package", str(tmp_path / "reg_d4.pkg"), "--object", "1")
    code, out, err = run(capsys, *argv, "--identify", "a4_su2_3")
    assert (code, out) == (1, "")
    assert err == "error: a4_su2_3 is over su2_3, not d4_su2_4.module\n"


def test_identify_loads_every_name_before_any_catalog(capsys, monkeypatch):
    # the second name is over another ring: refused before any enumeration
    monkeypatch.setattr(algebra, "enumerate_internal_ends", None)
    argv = ("end", "--builtin", "d4_su2_4", "--object", "1", "--identify", "d4_su2_4,a4_su2_3")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: a4_su2_3 is over su2_3, not su2_4\n"


def test_a_value_error_from_the_library_is_one_error_line(capsys, monkeypatch):
    def boom(action, max_total_mult):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "enumerate_internal_ends", boom)
    assert run(capsys, "end", "--builtin", "d4_su2_4") == (1, "", "error: boom\n")


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("1\t1.0")
    assert abs(float(lines[1].split("\t")[1]) - 2**0.5) < 1e-10


def test_dims_high_level(capsys):
    code, out, _ = run(capsys, "dims", "--k", "35")
    assert code == 0
    assert len(out.strip().splitlines()) == 36


def test_dims_at_the_maximum_level(capsys):
    code, out, _ = run(capsys, "dims", "--k", "100")
    assert code == 0
    assert len(out.strip().splitlines()) == 101


@pytest.mark.parametrize("k", [10, 35, 60, 100])
def test_dims_match_exact_quantum_integers(capsys, k):
    # [a]_q built a second way: exactly in Q(zeta), then evaluated
    field = CycloField.for_level(k)
    code, out, _ = run(capsys, "dims", "--k", str(k))
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [label for label, _ in rows] == [str(a) for a in range(1, k + 2)]
    for a, (_, value) in enumerate(rows, start=1):
        assert abs(float(value) - complex(field.quantum_integer(a))) < 1e-12


def test_builtin_dims_match_exact_quantum_integers(capsys):
    # the module dimensions of A17 are [a]_q at level 16, built exactly in Q(zeta)
    field = CycloField.for_level(16)
    code, out, _ = run(capsys, "dims", "--builtin", "a17_su2_16")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 17
    for a, (_, value) in enumerate(rows, start=1):
        assert abs(float(value) - complex(field.quantum_integer(a))) < 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--k", "101"),
        ("fuse", "--k", "101", "--word", "2"),
        ("trace", "--builtin", "a102_su2_101"),
        ("verify", "--suite", "tl", "--k", "101"),
    ],
)
def test_levels_above_the_maximum_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: level 101 exceeds the maximum level 100\n"


def test_verify_single_package(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "d4_su2_4")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_rank_one_package(capsys):
    # the trace rebuild of a rank-1 module
    code, out, _ = run(capsys, "verify", "--builtin", "a1_su2_0")
    assert code == 0
    assert out.splitlines() == [
        "PASS  ring su2_0",
        "PASS  action a1_su2_0",
        "PASS  module tensor data a1_su2_0",
        "PASS  splitting a1_su2_0",
        "PASS  trace rotation a1_su2_0",
        "PASS  adjunction a1_su2_0",
        "PASS  underlying object a1_su2_0",
    ]


def test_verify_tl_level_two(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tl", "--k", "2")
    assert code == 0
    assert "identity suite, level 2" in out


def test_verify_corrupted_package_fails(capsys, tmp_path):
    path = data_dir() / "d4_su2_4.pkg"
    lines = path.read_text().splitlines()
    start = lines.index("action 3") + 1
    fields = lines[start].split()
    fields[0] = "5"
    lines[start] = " ".join(fields)
    bad = tmp_path / "bad.pkg"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", "--package", str(bad))
    assert code == 1
    assert "associativity" in err or "compatibility" in err


def test_derive_d10_byte_identical(capsys):
    code, out, _ = run(capsys, "derive", "--builtin", "d10_su2_16")
    assert code == 0
    assert "byte-identical" in out
    assert "unique up to symmetry" in out
    assert "graph symmetries: 2" in out


def test_derive_writes_output(capsys, tmp_path):
    out_path = tmp_path / "regen.pkg"
    code, out, _ = run(
        capsys, "derive", "--builtin", "d4_su2_4", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == (data_dir() / "d4_su2_4.pkg").read_text()


@pytest.mark.parametrize("where", ["missing/regen.pkg", "."])
def test_derive_to_an_unwritable_path_is_one_error_line(capsys, tmp_path, where):
    out_path = tmp_path / where  # a missing directory, or a directory
    code, _, err = run(capsys, "derive", "--builtin", "d4_su2_4", "--out", str(out_path))
    assert code == 1
    assert err.startswith(f"error: {out_path}: cannot write: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_derive_no_solution(capsys, tmp_path):
    pkg = tmp_path / "d5_su2_6.pkg"
    save_package(ade_action("d5", 6, unit="1"), pkg)
    code, out, _ = run(capsys, "derive", "--package", str(pkg))
    assert code == 1
    assert "no consistent fusion tensor" in out


def test_derive_ambiguous_prints_all_solutions(capsys, monkeypatch):
    # no honest two-solution input is known; exercise the reporting channel
    sols = [np.zeros((4, 4, 4), dtype=np.int64) for _ in range(2)]
    sols[0][1, 1, 0] = 1
    sols[1][1, 1, 1] = 1

    def fake_derive(action, unit_module=None):
        raise AmbiguousFusion("2 fusion tensors remain after quotienting", sols)

    monkeypatch.setattr(cli, "derive_module_fusion", fake_derive)
    pkg_path = data_dir() / "d4_su2_4.pkg"
    code, out, _ = run(capsys, "derive", "--package", str(pkg_path))
    assert code == 1
    assert "-- solution 1 --" in out and "-- solution 2 --" in out


def test_data_dir_override_changes_builtins(capsys, tmp_path, monkeypatch):
    save_package(ade_action("d4", 4, unit="1"), tmp_path / "mine.pkg")
    monkeypatch.setenv("TRACECAT_DATA", str(tmp_path))
    code, _, err = run(capsys, "trace", "--builtin", "d10_su2_16")
    assert code == 1  # shipped builtins are hidden behind the override


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "trace", "--builtin", "e8_su2_28")
    _, second, _ = run(capsys, "trace", "--builtin", "e8_su2_28")
    assert first == second


def test_verify_all_passes(capsys):
    # the full gate: every package suite plus all four identity-suite levels
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    assert "FAIL" not in out
    for k in (2, 4, 10, 16):
        assert f"identity suite, level {k}" in out


def test_derive_regular_family_is_trivial(capsys):
    code, out, _ = run(capsys, "derive", "--builtin", "a5_su2_4")
    assert code == 0
    assert "unique up to symmetry" in out


def test_verify_tl_level_four_with_bound(capsys):
    # the level-4 identity suite with an explicit strand cap
    code, out, _ = run(capsys, "verify", "--suite", "tl", "--k", "4", "--bound", "3")
    assert code == 0
    assert "identity suite, level 4" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "files,match",
    [
        ({"bad": "package p\nbase su2 101\n"}, "line 2: level 101 exceeds"),
        ({"bad": "package p\nbase su2 -1\n"}, "line 2: level must be nonnegative"),
        ({"bad": "package p\nbase file bad\n"}, "line 2: base file 'bad' is still loading"),
        (
            {"bad": "package p\nbase file other\n", "other": "package q\nbase file bad\n"},
            "other.pkg: line 2: base file 'bad' is still loading",
        ),
        (
            {"bad": "package p\nbase su2 1\nmsimples a\naction 1\n" + str(2**63) + "\n"},
            "line 5: multiplicity 9223372036854775808 does not fit in 64 bits",
        ),
    ],
    ids=["level-101", "level-minus-1", "self-base", "base-cycle", "overflow"],
)
def test_package_errors_exit_one_with_one_line(capsys, tmp_path, files, match):
    for name, text in files.items():
        (tmp_path / f"{name}.pkg").write_text(text)
    code, out, err = run(capsys, "trace", "--package", str(tmp_path / "bad.pkg"))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err


@pytest.mark.parametrize("verb", ["trace", "end", "fuse", "dims", "verify", "derive"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_package_exits_one_with_one_line(capsys, tmp_path, verb, kind):
    path = {"missing": tmp_path / "missing.pkg", "directory": tmp_path}.get(kind)
    if path is None:
        path = tmp_path / "bytes.pkg"
        path.write_bytes(b"package p\n\xff\xfe\n")
    extra = ("--word", "1") if verb == "fuse" else ()
    code, out, err = run(capsys, verb, "--package", str(path), *extra)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "tl", "--k", "-1"),
        ("verify", "--suite", "tl", "--k", "-2"),
        ("verify", "--all", "--k", "-1"),
    ],
)
def test_negative_levels_on_verify_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: level must be nonnegative\n"


def test_strand_caps_past_the_maximum_exit_one(capsys):
    code, out, err = run(capsys, "verify", "--suite", "tl", "--k", "4", "--bound", "7")
    assert (code, out) == (1, "")
    assert err == "error: strand cap 7 exceeds the maximum 6\n"


def test_strand_cap_past_the_maximum_with_all_prints_no_check(capsys):
    # the package checks run before the suite refuses the cap, and print nothing
    code, out, err = run(capsys, "verify", "--all", "--bound", "7")
    assert (code, out, err) == (1, "", "error: strand cap 7 exceeds the maximum 6\n")


IDENTIFY_E7 = ("--object", "1", "--identify", "e7_su2_16")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "tl", "--k", "2", "--bound", "-1"),
        ("end", "--builtin", "e7_su2_16", "--bound", "-5"),
        ("end", "--builtin", "e7_su2_16", *IDENTIFY_E7, "--bound", "-1"),
        ("verify", "--all", "--bound", "-1"),
        ("verify", "--suite", "tl", "--k", "4", "--bound", "-2"),
        ("end", "--builtin", "d4_su2_4", "--format", "tsv", "--bound", "-1"),
        ("verify", "--suite", "tl", "--k", "2", "--bound", "0"),
        ("end", "--builtin", "e7_su2_16", "--bound", "0"),
        ("end", "--builtin", "e7_su2_16", *IDENTIFY_E7, "--bound", "0"),
    ],
)
def test_negative_bounds_are_usage_errors(capsys, argv):
    # a bound of 0 is refused too, rather than read as "no bound given"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: bound must be at least 1\n"
    assert len(err.splitlines()) == 1 and "Traceback" not in err


BIG = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--builtin", "d4_su2_4", "--object", f"{BIG}*1"),
        ("trace", "--builtin", "d4_su2_4", "--word", f"({BIG}*1)*3"),
        ("end", "--builtin", "d4_su2_4", "--object", f"{BIG}*1"),
        ("fuse", "--k", "4", "--word", f"({BIG}*2)"),
        # the total of a label's terms counts, not each term alone
        ("trace", "--builtin", "d4_su2_4", "--object", f"{2**62}*1+{2**62}*1"),
    ],
)
def test_oversized_multiplicities_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: multiplicity ") and err.endswith(" does not fit in 64 bits\n")
    assert len(err.splitlines()) == 1


def test_largest_64_bit_multiplicity_is_accepted(capsys):
    # machine format: the text format would repeat the label 2**63 - 1 times
    argv = ("trace", "--builtin", "a5_su2_4", "--format", "tsv", "--object", f"{2**63 - 1}*1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == f"1^{2**63 - 1}\n"


M = 2**63 - 1


@pytest.mark.parametrize(
    "argv, answer",
    [
        # End(n 1) = n^2 (1 + 5): int64 products used to wrap to 1 + 5
        (("end", "--builtin", "d4_su2_4", "--object", f"{M}*1"), f"1^{M * M} + 5^{M * M}"),
        (
            ("trace", "--builtin", "e6_su2_10", "--object", f"{M}*1+{M}*3"),
            f"1^{M} + 3^{M} + 5^{M} + 7^{2 * M} + 9^{M}",
        ),
        (("fuse", "--k", "4", "--word", f"({M}*2)*(2*2)"), f"1^{2 * M} + 3^{2 * M}"),
        (("fuse", "--builtin", "d4_su2_4", "--word", f"({M}*3)*(2*3)"), f"3'^{2 * M}"),
        (("trace", "--builtin", "d4_su2_4", "--word", f"({M}*3)*(2*3)"), f"3^{2 * M}"),
    ],
)
def test_products_past_64_bits_are_exact(capsys, argv, answer):
    assert run(capsys, *argv, "--format", "tsv") == (0, answer + "\n", "")
    # the text format would repeat each label more than 2**20 times
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" use --format tsv\n")
    assert len(err.splitlines()) == 1


def test_text_output_is_refused_past_2_to_the_20_summands(capsys):
    argv = ("trace", "--builtin", "a5_su2_4", "--object")
    code, out, _ = run(capsys, *argv, f"{2**20}*1")
    assert code == 0 and out == " ⊕ ".join(["1"] * 2**20) + "\n"
    message = f"error: {2**20 + 1} summands are too many to print as text; use --format tsv\n"
    assert run(capsys, *argv, f"{2**20 + 1}*1") == (2, "", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("trace", "--builtin", "d4_su2_4", "--object", "1", "--word", "3"),
            "argument --word: not allowed with argument --object",
        ),
        (("end", "--builtin", "d4_su2_4", "--identify", "d4_su2_4"), "--identify needs --object"),
    ],
)
def test_options_that_would_be_ignored_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# The options each verb reads; every other option is refused.
ACCEPTS = {
    "trace": {"builtin", "package", "object", "word", "format"},
    "end": {"builtin", "package", "object", "bound", "format", "identify"},
    "fuse": {"builtin", "package", "k", "word", "format"},
    "dims": {"builtin", "package", "k"},
    "verify": {"builtin", "package", "k", "bound", "all", "suite"},
    "derive": {"builtin", "package", "unit", "out"},
}
# a value for each option (None: a flag), and a valid argv of each verb;
# `--float`, read by no verb since the suite became exact only, is refused by all
VALUES = {
    "builtin": "d4_su2_4",
    "package": str(data_dir() / "d4_su2_4.pkg"),
    "object": "1",
    "word": "2",
    "k": "4",
    "bound": "2",
    "format": "tsv",
    "float": None,
    "identify": "d4_su2_4",
    "all": None,
    "suite": "tl",
    "unit": "1",
    "out": "regen.pkg",
}
VALID = {
    "trace": ("--builtin", "d4_su2_4"),
    "end": ("--builtin", "d4_su2_4"),
    "fuse": ("--k", "4", "--word", "2"),
    "dims": ("--k", "4"),
    "verify": ("--suite", "tl", "--k", "4"),
    "derive": ("--builtin", "d4_su2_4"),
}


def _option(name):
    return (f"--{name}",) if VALUES[name] is None else (f"--{name}", VALUES[name])


def test_each_verb_accepts_exactly_the_options_it_reads():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    for verb, parser in subparsers.items():
        assert {a.dest for a in parser._actions} - {"help"} == ACCEPTS[verb]
    assert sum(len(options) for options in ACCEPTS.values()) == 29


@pytest.mark.parametrize(
    "verb, option",
    [(verb, opt) for verb in ACCEPTS for opt in VALUES if opt not in ACCEPTS[verb]],
)
def test_options_a_verb_does_not_read_are_usage_errors(capsys, verb, option):
    argv = (verb, *VALID[verb], *_option(option))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: {' '.join(_option(option))}\n"


@pytest.mark.parametrize(
    "argv, first, second",
    [
        ((verb, "--builtin", "d4_su2_4", "--package", "p.pkg"), "builtin", "package")
        for verb in ACCEPTS
    ]
    + [
        (("trace", "--builtin", "d4_su2_4", "--object", "1", "--word", "1"), "object", "word"),
        (("fuse", "--k", "4", "--builtin", "d4_su2_4", "--word", "2"), "k", "builtin"),
        (("fuse", "--package", "p.pkg", "--k", "4", "--word", "2"), "package", "k"),
        (("dims", "--builtin", "d4_su2_4", "--k", "4"), "builtin", "k"),
        (("dims", "--k", "4", "--package", "p.pkg"), "k", "package"),
    ],
)
def test_exclusive_options_are_usage_errors(capsys, argv, first, second):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: argument --{second}: not allowed with argument --{first}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dims", "--k", "abc"), "argument --k: invalid int value: 'abc'"),
        (("trace", "--format", "xml"), "argument --format: invalid choice: 'xml'"),
        ((), "the following arguments are required: verb"),
        (("frobnicate",), "argument verb: invalid choice: 'frobnicate'"),
    ],
)
def test_argparse_errors_are_one_line_without_system_exit(capsys, argv, message):
    code, out, err = run(capsys, *argv)  # a SystemExit would fail the test here
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


NEEDS_TL = "--k and --bound need --suite tl or --all"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--builtin", "d4_su2_4", "--k", "4"), NEEDS_TL),
        (("verify", "--builtin", "d4_su2_4", "--bound", "2"), NEEDS_TL),
        (("verify", "--builtin", "d4_su2_4", "--k", "0"), NEEDS_TL),
        (("verify", "--suite", "packages", "--k", "2"), NEEDS_TL),
        (("verify", "--k", "4", "--bound", "2"), NEEDS_TL),
        (
            ("end", "--builtin", "d4_su2_4", "--object", "1", "--bound", "2"),
            "--bound with --object needs --identify",
        ),
    ],
)
def test_options_ignored_for_some_values_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_adjunction_is_checked_through_duality(capsys, tmp_path):
    # a valid action (validate_action passes) whose trace matrix is not the
    # other side of the adjunction: 2 . b holds a twice, but 2 . a holds b once
    pkg = tmp_path / "fake.pkg"
    pkg.write_text(
        "package fake\nbase su2 2\nmsimples a b\nunit a\n"
        "action 1\n1 0\n0 1\naction 2\n0 2\n1 0\naction 3\n1 0\n0 1\n"
    )
    code, out, _ = run(capsys, "verify", "--package", str(pkg))
    assert code == 1
    assert "PASS  action fake" in out.splitlines()
    assert "FAIL  adjunction fake: adjunction fails at (c=2, m=b): 2 vs 1" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ("end", "--builtin", "a61_su2_60", "--bound", "4"),
        ("end", "--builtin", "d4_su2_4", "--object", "1", "--identify", "a5_su2_4", "--bound", "1000"),
    ],
)
def test_catalogs_past_the_cap_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith(" a catalog may hold\n") and len(err.splitlines()) == 1


D4 = ("--builtin", "d4_su2_4")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("trace", *D4, "--object="), 2, "empty term in object expression"),
        (("trace", *D4, "--word="), 2, "word expression ends unexpectedly"),
        (("end", *D4, "--object="), 2, "empty term in object expression"),
        (("end", *D4, "--object=", "--bound", "1"), 2, "--bound with --object needs --identify"),
        (("end", *D4, "--identify="), 2, "--identify needs --object"),
        (("end", *D4, "--object", "1", "--identify="), 1, "no builtin or package file named ''"),
        (("fuse", "--k", "4", "--word="), 2, "word expression ends unexpectedly"),
        (("derive", *D4, "--unit="), 1, "unknown module label '' in d4_su2_4"),
        (("derive", *D4, "--out="), 1, ": cannot write: No such file or directory"),
        (("dims", "--builtin="), 1, "no builtin or package file named ''"),
        (("verify", "--package="), 1, ".: cannot read: Is a directory"),
    ],
)
def test_empty_option_values_are_errors(capsys, argv, code, message):
    # an empty value used to be read as no value: each of these exited 0
    # doing something else, or failed on another option
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")
