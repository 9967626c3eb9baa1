import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wallkit.cli import build_parser, main
from wallkit.dehn import DehnMachine
from wallkit.presentation import gen_example


def run_cli(*args, env=None):
    e = dict(os.environ)
    e.pop("WALLKIT_BUDGET", None)
    if env:
        e.update(env)
    r = subprocess.run(
        [sys.executable, "-m", "wallkit.cli", *args], capture_output=True, text=True, env=e
    )
    return r.returncode, r.stdout, r.stderr


@pytest.fixture()
def pres_files(tmp_path):
    good = tmp_path / "tv_12_7.pres"
    good.write_text("gens: a b\nrel: (ab)^7\nrel: (aabb)^7\n")
    bad = tmp_path / "tv_12_6.pres"
    bad.write_text("gens: a b\nrel: (ab)^6\nrel: (aabb)^6\n")
    broken = tmp_path / "broken.pres"
    broken.write_text("gens a b\nrel: (ab)^7\n")
    return good, bad, broken


def test_check_exit_codes(pres_files):
    good, bad, broken = pres_files
    rc, out, _ = run_cli("check", "--input", str(good), "--lambda", "1/6")
    assert rc == 0 and "pass" in out
    assert "ratio=1/7" in out
    rc, _, _ = run_cli("check", "--input", str(bad), "--lambda", "1/6")
    assert rc == 1
    rc, _, err = run_cli("check", "--input", str(broken))
    assert rc == 2 and "error" in err


def test_check_reads_the_files_lambda(tmp_path, capsys):
    # tv{1,2} k=7 has pieces of ratio 1/7: C'(1/6) holds, C'(1/8) does not.
    pres = tmp_path / "tv_12_7_eighth.pres"
    pres.write_text("gens: a b\nlambda: 1/8\nrel: (ab)^7\nrel: (aabb)^7\n")
    assert main(["check", "--input", str(pres)]) == 1
    assert "condition C'(1/8): fail" in capsys.readouterr().out
    assert main(["check", "--input", str(pres), "--lambda", "1/6"]) == 0
    assert "condition C'(1/6): pass" in capsys.readouterr().out


def test_check_prints_worst_piece(pres_files):
    good, _, _ = pres_files
    rc, out, _ = run_cli("check", "--input", str(good))
    lines = [ln for ln in out.splitlines() if ln.startswith("relator")]
    assert len(lines) == 2
    assert all("worst=" in ln for ln in lines)


# sha256 of `wallkit check` stdout, recorded before the byte-coded piece
# engine and Booth keys replaced the per-letter scans.  The `worst=` piece
# depends on the order among equal-length pieces, so this pins it too.
CHECK_DIGESTS = {
    "--family rips --j-max 1 --scale 16": "d86fd474dbaf333050184836d1123d4ff6249b29243b0dcbc128a3e7785aa071",
    "--family rips --j-max 1 --scale 24": "494297a1a83cd8cf3e5639a7b69d70688193fe7f704b8c551b0bfd5b2c32a9a6",
    "--family rips --j-max 1 --scale 32": "40c08c2c8ba51a98df3e46a7ae22d8ca6fa63b1095ac87a52855fe012b9c403d",
    "--family tv --I 1,2,3 --k 7": "71fac92dd35ecca4ec7f51d2f4920b40ca6adb5a907ec8a0a87e6d0fe30734a8",
    "--family pride --n-max 3": "f1422e2f51ae45ab6150241c6cb98838864d3416c9df651060ec81353e403b37",
}


@pytest.mark.parametrize("args", sorted(CHECK_DIGESTS))
def test_check_output_is_byte_stable(args):
    rc, out, err = run_cli("check", *args.split())
    assert rc == (1 if "pride" in args else 0), err
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[args]


def test_separation_free_group(tmp_path):
    outdir = tmp_path / "out"
    rc, out, err = run_cli(
        "separation", "--family", "none", "--radius", "3",
        "--region", "all", "--out", str(outdir),
    )
    assert rc == 0, err
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["min_ratio"] == "1/1"
    assert summary["constant"] == "1/12"
    csv = (outdir / "report.csv").read_text()
    assert csv.splitlines()[0] == "p,q,d,dw,ratio_num,ratio_den,in_A_count"


def test_separation_tv_small_ball(tmp_path):
    outdir = tmp_path / "tv"
    rc, out, err = run_cli(
        "separation", "--family", "tv", "--I", "1,2", "--k", "7", "--radius", "4",
        "--region", "all", "--max-pairs", "300",
        "--out", str(outdir), "--dot",
    )
    assert rc == 0, err
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["passed"] is True
    assert (outdir / "walls.dot").exists()
    assert (outdir / "complex.txt").exists()


# sha256 of the files `wallkit separation --family tv --I 1,2 --k 7
# --radius 8` writes: the validity-gated sample of 240 vertices
RADIUS8_DIGESTS = {
    "report.csv": "62df88e0710bf007f1b8b6985ab1b950fb723ceee309619a1356407d89a9724d",
    "summary.json": "8bc926bbcff94f963997f7a3b237fe71df3bc52ecd04a59d4691bba770d7d370",
    "complex.txt": "4957c27f7ff8f7836176de2cba3fbb1e30c90990ba389667ea80c8b7f11fe577",
}


def test_separation_tv_radius8_auto_region(tmp_path):
    # auto mode sweeps a seeded sample of 240 vertices of the valid ball
    outdir = tmp_path / "tv8"
    rc, out, err = run_cli(
        "separation", "--family", "tv", "--I", "1,2", "--k", "7", "--radius", "8",
        "--out", str(outdir),
    )
    assert rc == 0, err
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["constant"] == "1/12"
    assert summary["pairs"] == 240 * 239 // 2
    num, den = map(int, summary["min_ratio"].split("/"))
    assert num * 12 >= den  # min ratio >= 1/12
    assert summary["passed"] is True
    for name, digest in RADIUS8_DIGESTS.items():
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest, name


# sha256 of the files `wallkit separation --family tv --I 1,2 --k 7
# --radius 8 --region all --max-pairs 5000` writes: a sparse sample of
# pairs over the whole ball, most of them from different hanging trees
SPARSE_DIGESTS = {
    "report.csv": "1cfe7723e5d0b0c4564e8e2432eb7640159a497ff809c7ad8c20ab958c2da917",
    "summary.json": "a812b549ca66c2fb0c8a8a8b4e8ccea3a90975768ea25b69add6a65a74b766fd",
}


def test_separation_tv_radius8_sparse_sample(tmp_path):
    rc, out, err = run_cli(
        "separation", "--family", "tv", "--I", "1,2", "--k", "7", "--radius", "8",
        "--region", "all", "--max-pairs", "5000", "--out", str(tmp_path),
    )
    assert rc == 0, err
    for name, digest in SPARSE_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_intrinsic_sample_builds_walls_once(tmp_path, monkeypatch):
    import wallkit.cli as cli

    calls = []
    build_walls = cli.build_walls
    monkeypatch.setattr(cli, "build_walls", lambda *a, **kw: calls.append(kw) or build_walls(*a, **kw))
    argv = ["separation", "--family", "tv", "--I", "1", "--k", "7", "--radius", "7", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["passed"] is True
    assert len(calls) == 1


def test_separation_runs_check_B6_once(tmp_path, monkeypatch):
    # the validity gate is the sweep's only piece computation
    import wallkit.complexes as complexes

    calls = []
    check_B6 = complexes.check_B6
    monkeypatch.setattr(complexes, "check_B6", lambda *a, **kw: calls.append(a) or check_B6(*a, **kw))
    argv = ["separation", "--family", "tv", "--I", "1", "--k", "7", "--radius", "7", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 1


def test_separation_observe_example1(tmp_path):
    outdir = tmp_path / "obs"
    rc, out, err = run_cli(
        "separation", "--example", "example1", "--n", "1,2,3", "--observe",
        "--region", "all", "--out", str(outdir),
    )
    assert rc == 0, err
    assert "observe" in out
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["observe"] is True
    # the anchor-pair rows carry the decaying ratios
    from wallkit.complexes import load_complex

    c = load_complex((outdir / "complex.txt").read_text())
    rows = {}
    for line in (outdir / "report.csv").read_text().splitlines()[1:]:
        p, q, d, dw, *_ = map(int, line.split(",")[:4])
        rows[(p, q)] = (d, dw)
    for n in (1, 2, 3):
        a, e = sorted((c.labeled(f"a{n}"), c.labeled(f"e{n}")))
        assert rows[(a, e)] == (2 * n + 6, 6)


def test_separation_rejects_lambda_past_one_sixth(tmp_path, monkeypatch, capsys):
    # at lambda 1/4 the separation constant is -1/4, so every pair would pass
    import wallkit.cli as cli

    pres = tmp_path / "ab5.pres"
    pres.write_text("gens: a b\nrel: (ab)^5\n")
    monkeypatch.setattr(cli, "build_cayley_ball", lambda *a, **kw: pytest.fail("ball built"))
    argv = ["separation", "--input", str(pres), "--radius", "6", "--region", "all", "--out", str(tmp_path / "o")]
    assert main([*argv, "--lambda", "1/4"]) == 2
    assert "outside (0, 1/6]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main([*argv, "--lambda", "2"]) == 2
    assert "lambda 2 outside (0, 1/6]" in capsys.readouterr().err


def test_separation_with_no_pairs_fails(tmp_path):
    # a one-vertex complex is valid but has no pair to check
    path = tmp_path / "point.complex"
    path.write_text("wallkit-complex 1\ncounts 1 0 0\nv 0\n")
    rc, out, err = run_cli("separation", "--complex-file", str(path))
    assert rc == 1, err
    assert json.loads(out[: out.rindex("}") + 1])["passed"] is False
    assert out.splitlines()[-1] == "pairs=0 constant=1/12 min_ratio=n/a FAIL"


COMPLEX_FILES = {
    # exit 2: the walls or the piece condition cannot be set up
    "odd-cell": ("counts 3 3 1\nv 0\nv 1\nv 2\ne 0 0 1\ne 1 1 2\ne 2 2 0\nc 0 1 2 3\n", 2),
    # exit 1: valid input, but not a complex the theorem covers
    "four-cycle": ("counts 4 4 0\nv 0\nv 1\nv 2\nv 3\ne 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 3 0\n", 1),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_FILES))
def test_separation_refuses_invalid_complexes(tmp_path, capsys, name):
    text, code = COMPLEX_FILES[name]
    path = tmp_path / f"{name}.complex"
    path.write_text("wallkit-complex 1\n" + text)
    outdir = tmp_path / "out"
    assert main(["separation", "--complex-file", str(path), "--out", str(outdir)]) == code
    assert capsys.readouterr().err.startswith("error:")
    assert not (outdir / "report.csv").exists()
    if code == 1:
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["passed"] is False and "h1_trivial" in summary["error"]


@pytest.mark.parametrize("base", ["99", "-1"])
def test_separation_rejects_base_outside_the_vertices(tmp_path, capsys, base):
    path = tmp_path / "edge.complex"
    path.write_text(f"wallkit-complex 1\nmeta base {base}\ncounts 2 1 0\nv 0\nv 1\ne 0 0 1\n")
    assert main(["separation", "--complex-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: base vertex {base} outside 0..1" in captured.err and "pairs=" not in captured.out


def test_separation_refuses_non_small_cancellation_complex(capsys):
    # the theta chain fails the 1/6 piece condition: exit 2 unless observed
    assert main(["separation", "--example", "example1", "--n", "1"]) == 2
    assert "piece condition" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--settled-policy", "all"], ["--margin", "2"], ["--region", "interior"]], ids=lambda f: f[0]
)
def test_separation_removed_options_exit_2(flags, capsys):
    assert main(["separation", "--family", "tv", "--I", "1", "--radius", "3", *flags]) == 2
    assert "pairs=" not in capsys.readouterr().out


def test_region_auto_equals_all_on_small_complexes(tmp_path):
    # at most 240 vertices, the seeded sample of auto mode is every vertex
    args = ["separation", "--example", "example2", "--x", "2", "--half-r", "8"]
    outs = {}
    for region in ("auto", "all"):
        outs[region] = tmp_path / region
        assert main([*args, "--region", region, "--out", str(outs[region])]) == 0
    for name in ("report.csv", "summary.json", "complex.txt"):
        assert (outs["auto"] / name).read_bytes() == (outs["all"] / name).read_bytes(), name


def test_separation_multi_letter_generators(tmp_path):
    # vertex labels such as "x1 y1" hold spaces; complex.txt keeps them
    from wallkit.complexes import load_complex

    pres = tmp_path / "xy.pres"
    pres.write_text("gens: x1 y1\nrel: (x1 y1)^7\n")
    outdir = tmp_path / "out"
    rc, out, err = run_cli("separation", "--input", str(pres), "--radius", "3", "--out", str(outdir))
    assert rc == 0, err
    assert json.loads((outdir / "summary.json").read_text())["passed"] is True
    c = load_complex((outdir / "complex.txt").read_text())
    assert c.vertex_labels[c.labeled("x1 y1")] == "x1 y1"
    assert c.labeled("y1^-1 x1^-1") > 0


def test_separation_byte_stability(tmp_path):
    args = (
        "separation", "--example", "example2", "--x", "2", "--half-r", "8",
        "--region", "all", "--max-pairs", "200", "--seed", "5",
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    rc1, *_ = run_cli(*args, "--out", str(out1))
    rc2, *_ = run_cli(*args, "--out", str(out2))
    assert rc1 == rc2 == 0
    assert (out1 / "report.csv").read_text() == (out2 / "report.csv").read_text()
    assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()


def test_word_command(pres_files):
    good, bad, _ = pres_files
    rc, out, _ = run_cli("word", "--input", str(good), "(ab)^7")
    assert rc == 0 and out.strip().endswith("trivial")
    rc, out, _ = run_cli("word", "--input", str(good), "a")
    assert rc == 0 and "non-trivial" in out
    rc, out, _ = run_cli("word", "--input", str(good), "(ab)^4")
    assert rc == 0
    form = [ln for ln in out.splitlines() if ln.startswith("normal form:")][0]
    assert len(form.split(":")[1].strip()) <= 6 * 4  # six letters, some with ^-1
    rc, _, err = run_cli("word", "--input", str(bad), "a")
    assert rc == 1


def test_word_budget_exit(pres_files):
    good, _, _ = pres_files
    rc, _, err = run_cli("word", "--input", str(good), "(ab)^4", env={"WALLKIT_BUDGET": "5"})
    assert rc == 3 and "budget" in err
    # an explicit --node-budget wins over the environment
    rc, _, err = run_cli(
        "word", "--input", str(good), "--node-budget", "5", "(ab)^4", env={"WALLKIT_BUDGET": "1000000"}
    )
    assert rc == 3 and "budget" in err


def test_word_budget_message_names_no_missing_option(capsys):
    # word's table is bounded by --node-budget; it has no --vertex-budget
    assert main(["word", "--family", "tv", "--node-budget", "3", "ababab"]) == 3
    assert capsys.readouterr().err == "budget: element budget 3 exhausted at radius 1\n"


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--vertex-budget", "3"]])
def test_word_takes_no_ball_options(flag, capsys):
    # word builds no ball, so the ball's seed and vertex budget are not its options
    assert main(["word", "--family", "tv", "--I", "1", *flag, "(ab)^4"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_usage_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].strip() for ln in block.splitlines()]
    argvs = [shlex.split(ln)[1:] for ln in lines if ln.startswith("wallkit ")]
    assert len(argvs) >= 5
    for argv in argvs:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README usage line does not parse: wallkit {shlex.join(argv)}")


@pytest.mark.parametrize("raw", ["5", " 5", "-5", "0", "abc"])
def test_budget_env_parsed_the_same_everywhere(monkeypatch, raw):
    monkeypatch.setenv("WALLKIT_BUDGET", raw)
    args = build_parser().parse_args(["word", "--family", "tv", "a"])
    assert DehnMachine(gen_example("tv", I={1}, k=7)).node_budget == args.node_budget


def test_non_positive_budget_env_is_ignored():
    rc, out, err = run_cli(
        "word", "--family", "tv", "--I", "1", "--k", "7", "(ab)^4", env={"WALLKIT_BUDGET": "-5"}
    )
    assert rc == 0, err


def test_separation_budget_exit(tmp_path):
    outdir = tmp_path / "b"
    rc, _, err = run_cli(
        "separation", "--family", "tv", "--I", "1", "--k", "7", "--radius", "6",
        "--vertex-budget", "50", "--out", str(outdir),
    )
    assert rc == 3
    summary = json.loads((outdir / "summary.json").read_text())
    assert "error" in summary  # partial output preserved


def test_walls_dump(tmp_path):
    dump = tmp_path / "walls.txt"
    dot = tmp_path / "walls.dot"
    rc, _, err = run_cli(
        "walls-dump", "--example", "example2", "--x", "2", "--half-r", "14",
        "--out", str(dump), "--dot", str(dot),
    )
    assert rc == 0, err
    text = dump.read_text()
    assert text.startswith("wall 0 edges=")
    assert "hyper" in text
    assert dot.read_text().startswith("graph walls {")


# sha256 of `wallkit walls-dump --example example1 --n 1,2,3` stdout
WALLS_DUMP_DIGEST = "e25245f0dfb111e013b453c98eae3759a4e5cc955308fc59c88829ed4aa19533"


def test_walls_dump_is_byte_stable():
    rc, out, err = run_cli("walls-dump", "--example", "example1", "--n", "1,2,3")
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == WALLS_DUMP_DIGEST


@pytest.mark.parametrize(
    "text",
    [
        "wallkit-complex 1\ncounts 2 1 0\nv 0\nv 1\ne 0 1\n",
        "wallkit-complex 1\ncounts 2 x 0\nv 0\nv 1\ne 0 0 1\n",
        "wallkit-complex 1\ncounts 2 1 1\nv 0\nv 1\ne 0 0 1\nc 0 5\n",
        "wallkit-complex 1\ncounts 2 1 1\nv 0\nv 1\ne 0 0 1\nc 0 1 0\n",
        "wallkit-complex 1\ncounts -1 0 0\n",
        "wallkit-complex 1\ncounts 2 1 0\nv 0\nv 1\nv 7 ghost\ne 0 0 1\n",
    ],
    ids=["short-edge-line", "non-integer-count", "edge-past-end", "token-zero", "negative-count", "vertex-past-end"],
)
def test_walls_dump_rejects_malformed_complex_file(tmp_path, text):
    path = tmp_path / "bad.complex"
    path.write_text(text)
    rc, out, err = run_cli("walls-dump", "--complex-file", str(path))
    assert rc == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize("max_pairs", ["-1", "0"])
def test_separation_rejects_non_positive_max_pairs(tmp_path, max_pairs):
    rc, out, err = run_cli(
        "separation", "--example", "example2", "--max-pairs", max_pairs, "--out", str(tmp_path / "o"),
    )
    assert rc == 2 and "--max-pairs" in err and "pairs=" not in out


def test_separation_rejects_max_pairs_before_the_build(tmp_path):
    # the radius-30 build alone would run into the vertex budget
    out_dir = tmp_path / "D"
    rc, out, err = run_cli(
        "separation", "--family", "tv", "--I", "1,2", "--radius", "30", "--max-pairs", "0", "--out", str(out_dir),
    )
    assert rc == 2 and "--max-pairs" in err and out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, option",
    [
        ("separation", "--radius"),
        ("separation", "--node-budget"),
        ("separation", "--vertex-budget"),
        ("separation", "--max-pairs"),
        ("walls-dump", "--radius"),
        ("walls-dump", "--node-budget"),
        ("walls-dump", "--vertex-budget"),
        ("word", "--node-budget"),
    ],
)
def test_count_options_below_one_are_usage_errors(command, option, value, monkeypatch, capsys):
    # every count option goes through one argparse type: exit 2 before anything is built
    import wallkit.cli as cli

    monkeypatch.setattr(cli, "DehnMachine", lambda *a, **kw: pytest.fail("Dehn machine built"))
    monkeypatch.setattr(cli, "build_cayley_ball", lambda *a, **kw: pytest.fail("ball built"))
    word = ["(ab)^4"] if command == "word" else []
    assert main([command, "--family", "tv", "--I", "1", option, value, *word]) == 2
    assert f"argument {option}: must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["", ","])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["check", "--family", "tv", "--I"], "--I"),
        (["walls-dump", "--example", "example1", "--n"], "--n"),
    ],
    ids=["check-I", "walls-dump-n"],
)
def test_empty_integer_lists_are_usage_errors(argv, option, value, capsys):
    # an empty list used to fall back to the default (tv{1,2}, n = 1,2,3)
    assert main([*argv, value]) == 2
    out, err = capsys.readouterr()
    assert f"argument {option}: empty integer list" in err and out == ""


def test_bad_letters_exit_input(tmp_path):
    # Words are validated where they are read: an unknown name in a relator
    # or in the queried word exits 2 before anything is built.
    bad = tmp_path / "bad.pres"
    bad.write_text("gens: a b\nrel: a c b\n")
    for args in (
        ("check", "--input", str(bad)),
        ("word", "--input", str(bad), "a"),
        ("word", "--family", "tv", "--I", "1", "a x"),
    ):
        rc, out, err = run_cli(*args)
        assert rc == 2 and err.startswith("error:") and out == "", args


def test_examples_listing():
    rc, out, _ = run_cli("examples")
    assert rc == 0
    for name in ("tv", "pride", "rips", "example1", "example2"):
        assert name in out


def test_main_callable_directly(tmp_path):
    # in-process entry point honors the same contract
    assert main(["examples"]) == 0
    assert main(["check", "--input", str(tmp_path / "missing.pres")]) == 2


def test_python_m_wallkit_runs_the_cli():
    r = subprocess.run([sys.executable, "-m", "wallkit", "--help"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: wallkit")


def test_unknown_args_exit_input():
    rc, *_ = run_cli("check", "--nope")
    assert rc == 2
