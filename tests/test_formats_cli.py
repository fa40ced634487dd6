from pathlib import Path

import pytest

from perfcode import cli, codes, formats
from perfcode.codes import codeword_masks, extended_hamming
from perfcode.digraph import Digraph
from perfcode.poset import Poset
from perfcode.wposet import WeightedPoset

# Full `classify --k 3`, `family`, `induce` and `expand` stdout, byte for byte.
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poset_round_trip():
    p = Poset.from_relations(5, [(1, 3), (3, 5), (2, 4)])
    text = formats.write_poset(p)
    assert formats.parse_poset(text).down == p.down


def test_wposet_round_trip(anchor_star_wposet):
    text = formats.write_wposet(anchor_star_wposet)
    back = formats.parse_wposet(text)
    assert back.poset.down == anchor_star_wposet.poset.down
    assert back.pi == anchor_star_wposet.pi


def test_wposet_weights_default_to_one():
    wp = formats.parse_wposet("3\n1 < 2\n")
    assert wp.pi == (1, 1, 1)


def test_digraph_round_trip(paired_sinks_digraph):
    text = formats.write_digraph(paired_sinks_digraph)
    assert formats.parse_digraph(text).edges == paired_sinks_digraph.edges


def test_code_round_trip():
    h3 = extended_hamming(3)
    back = formats.parse_code(formats.write_code(h3))
    assert set(codeword_masks(back)) == set(codeword_masks(h3))


# (parser, text, line named, message fragment); a cycle has no single line
# to blame and is charged to the head line.
FORMAT_ERRORS = [
    (formats.parse_poset, "3\n1 < 2\n2 bad 3\n", 3, "expected `j < i`"),
    (formats.parse_poset, "3\n1 < 2\n2 < 2\n", 3, "reflexive relation 2 < 2"),
    (formats.parse_poset, "3\n1 < 2\n2 < 1\n", 1, "cycle"),
    (formats.parse_wposet, "3\nw 2 2\n2 bad 3\n", 3, "expected `j < i`"),
    (formats.parse_wposet, "3\nw 2 2\n\n1 < 7\n", 4, "relation 1 < 7 out of range 1..3"),
    (formats.parse_wposet, "3\n1 < 2\nw 5 2\n", 3, "weight for element 5 out of range 1..3"),
    (formats.parse_wposet, "3\n1 < 2\nw 2 0\n", 3, "weight of element 2 must be >= 1"),
    (formats.parse_wposet, "3\nw 2 2\n1 < 3\nw 2 3\n", 4, "repeated weight for element 2"),
    (formats.parse_wposet, "3\nw 1 2\n1 < 2\n2 < 1\n", 1, "cycle"),
    (formats.parse_digraph, "4\n1 -> 1\n", 2, "loop 1 -> 1 not allowed"),
    (formats.parse_digraph, "4\n1 -> 2\n1 -> 1\n", 3, "loop 1 -> 1 not allowed"),
    (formats.parse_digraph, "4\n1 -> 2\n2 -> 9\n", 3, "edge 2 -> 9 out of range 1..4"),
    (formats.parse_code, "8 2\n10010110\n", 1, "expected 2 basis vectors"),
    (formats.parse_code, "0 0\n", 1, "code length must be in 1..64, got 0"),
    (formats.parse_code, "-2 0\n", 1, "code length must be in 1..64, got -2"),
    (formats.parse_code, "\n65 1\n" + "1" * 65 + "\n", 2, "code length must be in 1..64, got 65"),
]


def test_format_errors_carry_line_numbers():
    for parse, text, line, fragment in FORMAT_ERRORS:
        with pytest.raises(formats.FormatError) as err:
            parse(text)
        assert (err.value.line, text) == (line, text)
        assert str(err.value).startswith(f"line {line}: ") and fragment in str(err.value)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def star_file(tmp_path, anchor_star_wposet):
    return _write(tmp_path, "star.wposet", formats.write_wposet(anchor_star_wposet))


@pytest.fixture
def digraph_file(tmp_path, paired_sinks_digraph):
    return _write(tmp_path, "g.digraph", formats.write_digraph(paired_sinks_digraph))


def test_cli_sphere(capsys, star_file):
    code, out, _ = run(capsys, "sphere", "--wposet", star_file, "--radius", "2")
    assert code == 0
    assert out == "formula=16\n"
    code, out, _ = run(capsys, "sphere", "--wposet", star_file, "--radius", "2", "--oracle")
    assert code == 0
    assert out == "formula=16 oracle=16\n"


def test_cli_check_perfect(capsys, star_file):
    code, out, _ = run(
        capsys, "check", "--code", "h3", "--structure", star_file,
        "--kind", "wposet", "--radius", "2",
    )
    assert code == 0
    assert "2-perfect: true" in out
    assert "method=conditions" in out and "method=exhaustive" in out


def test_cli_check_failure_exit_code(capsys, tmp_path):
    flat = _write(tmp_path, "flat.wposet", formats.write_wposet(
        WeightedPoset.uniform(Poset.antichain(8))))
    code, out, _ = run(
        capsys, "check", "--code", "h3", "--structure", flat,
        "--kind", "wposet", "--radius", "2", "--method", "conditions",
    )
    assert code == 1
    assert "2-perfect: false" in out
    assert "witness" in out


def test_cli_check_digraph(capsys, digraph_file):
    code, out, _ = run(
        capsys, "check", "--code", "h3", "--structure", digraph_file,
        "--kind", "digraph", "--radius", "2", "--method", "exhaustive",
    )
    assert code == 0
    assert "2-perfect: true" in out


def test_cli_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "check", "--code", "h3", "--structure", str(tmp_path / "nope.wposet"),
        "--kind", "wposet", "--radius", "2",
    )
    assert code == 2
    assert "nope.wposet" in err


def test_cli_bad_format_names_path_and_line(capsys, tmp_path, star_file):
    bad = _write(tmp_path, "bad.wposet", "8\n1 << 5\n")
    code, _, err = run(
        capsys, "check", "--code", "h3", "--structure", bad,
        "--kind", "wposet", "--radius", "2",
    )
    assert code == 2
    assert "bad.wposet" in err and "line 2" in err
    long_code = _write(tmp_path, "long.code", "65 0\n")
    code, out, err = run(
        capsys, "check", "--code", long_code, "--structure", star_file,
        "--kind", "wposet", "--radius", "2",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {long_code}: line 1: code length must be in 1..64, got 65\n"


def test_cli_usage_error(capsys):
    assert cli.main(["sphere", "--radius", "2"]) == 2
    capsys.readouterr()


def test_cli_induce(capsys, digraph_file):
    code, out, _ = run(capsys, "induce", "--digraph", digraph_file)
    assert code == 0
    assert "block 4: 1 5" in out
    assert "w 4 2" in out


def test_cli_expand(capsys, star_file):
    code, out, _ = run(capsys, "expand", "--wposet", star_file)
    assert code == 0
    assert out.splitlines()[0] == "9"
    assert "4 -> 5" in out and "5 -> 4" in out
    assert "block 4: 4 5" in out


def test_cli_map_code_headers(capsys, star_file, digraph_file):
    code, out, _ = run(
        capsys, "map-code", "--direction", "expand", "--structure", star_file,
        "--code", "h3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 2 3 4 4′ 5 6 7 8"
    assert len(lines) == 17
    assert all(len(line) == 9 for line in lines[1:])

    code, out, _ = run(
        capsys, "map-code", "--direction", "collapse", "--structure", digraph_file,
        "--code", "h3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 3 4 5 6 7 8"
    assert len(lines) == 17
    assert "0011110" in lines


def test_cli_map_code_reports_merges(capsys, tmp_path):
    ring = Digraph.from_edges(8, [(i, i % 8 + 1) for i in range(1, 9)])
    path = _write(tmp_path, "ring.digraph", formats.write_digraph(ring))
    code, out, err = run(
        capsys, "map-code", "--direction", "collapse", "--structure", path,
        "--code", "h3",
    )
    assert code == 0
    assert out.splitlines()[0] == "8"
    assert set(out.splitlines()[1:]) == {"0", "1"}
    assert "merged 16 codewords into 2" in err


def test_cli_family_files_feed_check(capsys, tmp_path):
    prefix = str(tmp_path / "fam")
    code, out, _ = run(
        capsys, "family", "--k", "3", "--kind", "wposet", "--variant", "2",
        "--out", prefix,
    )
    assert code == 0
    assert f"structure-file={prefix}.wposet" in out
    code, out, _ = run(
        capsys, "check", "--code", f"{prefix}.code", "--structure", f"{prefix}.wposet",
        "--kind", "wposet", "--radius", "2",
    )
    assert code == 0
    assert "2-perfect: true" in out


def test_cli_family_requires_variant_for_wposet(capsys):
    code, _, err = run(capsys, "family", "--k", "3", "--kind", "wposet")
    assert code == 2
    assert "variant" in err


def test_cli_family_digraph_stdout(capsys):
    code, out, _ = run(capsys, "family", "--k", "3", "--kind", "digraph")
    assert code == 0
    assert "---" in out
    assert "1 -> 5" in out


def test_cli_classify_output_and_witness_files(capsys, tmp_path):
    witness_dir = tmp_path / "witnesses"
    code, out, _ = run(
        capsys, "classify", "--k", "3", "--kind", "digraph",
        "--emit-witness", str(witness_dir), "--threads", "2",
    )
    assert code == 0
    assert "kind=digraph k=3 classes=8 admitting=4" in out
    assert "vector=(3,1,3) distribution=(1,1,1) admits=true" in out
    assert "vector=(3,1,3) distribution=(3,0,0) admits=false" in out
    files = sorted(witness_dir.iterdir())
    assert len(files) == 4
    for path in files:
        g = formats.parse_digraph(path.read_text(encoding="utf-8"))
        assert isinstance(g, Digraph)


@pytest.mark.parametrize("kind", ["wposet", "digraph"])
def test_cli_classify_matches_golden_stdout(capsys, kind):
    golden = (GOLDEN / f"classify_k3_{kind}.txt").read_text(encoding="utf-8")
    assert run(capsys, "classify", "--k", "3", "--kind", kind) == (0, golden, "")


FAMILY_KINDS = {
    "wposet_v1": ("--kind", "wposet", "--variant", "1"),
    "wposet_v2": ("--kind", "wposet", "--variant", "2"),
    "digraph": ("--kind", "digraph"),
}


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(FAMILY_KINDS))
def test_cli_family_matches_golden_stdout(capsys, k, name):
    golden = (GOLDEN / f"family_k{k}_{name}.txt").read_text(encoding="utf-8")
    assert run(capsys, "family", "--k", str(k), *FAMILY_KINDS[name]) == (0, golden, "")


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cli_induce_and_expand_of_family_files_match_golden_stdout(capsys, tmp_path, k):
    prefix = tmp_path / f"fam{k}"
    for name, argv in FAMILY_KINDS.items():
        assert run(capsys, "family", "--k", str(k), *argv, "--out", f"{prefix}_{name}")[0] == 0
    golden = (GOLDEN / f"induce_k{k}.txt").read_text(encoding="utf-8")
    assert run(capsys, "induce", "--digraph", f"{prefix}_digraph.digraph") == (0, golden, "")
    for v in (1, 2):
        golden = (GOLDEN / f"expand_k{k}_v{v}.txt").read_text(encoding="utf-8")
        assert run(capsys, "expand", "--wposet", f"{prefix}_wposet_v{v}.wposet") == (0, golden, "")


def test_cli_check_conditions_past_the_ball_limit_is_usage_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "antichain.wposet"
    path.write_text(formats.write_wposet(WeightedPoset.uniform(Poset.antichain(8))), encoding="utf-8")
    monkeypatch.setattr(codes, "BALL_LIMIT", 36)
    code, out, err = run(capsys, "check", "--code", "h3", "--structure", str(path),
                         "--kind", "wposet", "--radius", "2", "--method", "conditions")
    assert (code, out) == (2, "")
    assert err == "error: radius-2 ball of 37 masks exceeds ball limit 36\n"


def test_cli_classify_witness_dir_that_is_a_file_is_usage_error(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "classify", "--k", "3", "--kind", "digraph",
                       "--emit-witness", str(taken))
    assert code == 2
    assert err == f"error: cannot write {taken}: File exists\n"


def test_cli_family_out_in_missing_dir_is_usage_error(capsys, tmp_path):
    prefix = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "family", "--k", "3", "--kind", "digraph", "--out", str(prefix))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {prefix}.digraph: No such file or directory\n"


def test_cli_classify_deterministic_across_threads(capsys):
    code1, out1, _ = run(capsys, "classify", "--k", "3", "--kind", "wposet", "--threads", "1")
    code2, out2, _ = run(capsys, "classify", "--k", "3", "--kind", "wposet", "--threads", "4")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("kind, variant", [("wposet", "1"), ("wposet", "2"), ("digraph", None)])
def test_cli_check_h5_family_by_conditions(capsys, tmp_path, kind, variant):
    prefix = str(tmp_path / "fam5")
    argv = ["family", "--k", "5", "--kind", kind, "--out", prefix]
    if variant is not None:
        argv += ["--variant", variant]
    assert run(capsys, *argv)[0] == 0
    check = ["check", "--code", "h5", "--structure", f"{prefix}.{kind}", "--kind", kind, "--radius", "2"]
    code, out, err = run(capsys, *check, "--method", "conditions")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "method=conditions sphere_size=64 expected_sphere_size=64"
        " sphere_condition=true partition_condition=true",
        "2-perfect: true",
    ]
    code, out, err = run(capsys, *check, "--method", "exhaustive")
    assert code == 2
    assert "exhaustive guard 16" in err


def test_cli_check_h5_digraph_family_at_radius_three(capsys, tmp_path):
    prefix = str(tmp_path / "fam5")
    assert run(capsys, "family", "--k", "5", "--kind", "digraph", "--out", prefix)[0] == 0
    code, out, err = run(capsys, "check", "--code", "h5", "--structure", f"{prefix}.digraph",
                         "--kind", "digraph", "--radius", "3", "--method", "conditions")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == ("method=conditions sphere_size=782 expected_sphere_size=64"
                        " sphere_condition=false partition_condition=false")
    assert lines[-1] == "3-perfect: false"


@pytest.mark.parametrize("kind, variant, method", [
    pytest.param("wposet", "1", None, id="wposet-1"),
    pytest.param("digraph", None, None, id="digraph-None"),
    *((kind, variant, method) for method in ("conditions", "exhaustive", "both")
      for kind, variant in (("wposet", "1"), ("digraph", None))),
])
def test_cli_check_negative_radius_is_usage_error(capsys, tmp_path, kind, variant, method):
    prefix = str(tmp_path / "fam3")
    argv = ["family", "--k", "3", "--kind", kind, "--out", prefix]
    if variant is not None:
        argv += ["--variant", variant]
    assert run(capsys, *argv)[0] == 0
    check = ["check", "--code", "h3", "--structure", f"{prefix}.{kind}", "--kind", kind,
             "--radius", "-1"]
    if method is not None:
        check += ["--method", method]
    code, out, err = run(capsys, *check)
    assert (code, out, err) == (2, "", "error: radius must be non-negative, got -1\n")


def test_cli_tables_run(capsys):
    code, out, _ = run(capsys, "tables", "--which", "2")
    assert code == 0
    assert out.splitlines()[0] == "1 2 3 4 4′ 5 6 7 8"
    code, out, _ = run(capsys, "tables", "--which", "4")
    assert code == 0
    assert out.splitlines()[0] == "2 3 4 5 6 7 8"
    assert cli.main(["tables", "--which", "3"]) == 2
    capsys.readouterr()
