import hashlib
import json
import os
import subprocess
import sys

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
    assert csv.splitlines()[0] == "p,q,d,dw,ratio_num,ratio_den,settled,in_A_count"


def test_separation_tv_small_ball(tmp_path):
    outdir = tmp_path / "tv"
    rc, out, err = run_cli(
        "separation", "--family", "tv", "--I", "1,2", "--k", "7", "--radius", "4",
        "--settled-policy", "all", "--region", "all", "--max-pairs", "300",
        "--out", str(outdir), "--dot",
    )
    assert rc == 0, err
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["passed"] is True
    assert (outdir / "walls.dot").exists()
    assert (outdir / "complex.txt").exists()


def test_separation_tv_radius8_auto_region(tmp_path):
    # the faithful interior is empty at radius 8, so auto mode falls back
    # to a validity-gated seeded sample and still reports a real min ratio
    outdir = tmp_path / "tv8"
    rc, out, err = run_cli(
        "separation", "--family", "tv", "--I", "1,2", "--k", "7", "--radius", "8",
        "--out", str(outdir),
    )
    assert rc == 0, err
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["constant"] == "1/12"
    assert summary["region"] == "auto:intrinsic-sample"
    num, den = map(int, summary["min_ratio"].split("/"))
    assert num * 12 >= den  # min ratio >= 1/12
    assert summary["passed"] is True


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
    assert text.startswith("wall 0 settled=1 edges=")
    assert "hyper" in text
    assert dot.read_text().startswith("graph walls {")


@pytest.mark.parametrize(
    "text",
    [
        "wallkit-complex 1\ncounts 2 1 0\nv 0\nv 1\ne 0 1\n",
        "wallkit-complex 1\ncounts 2 x 0\nv 0\nv 1\ne 0 0 1\n",
        "wallkit-complex 1\ncounts 2 1 1\nv 0\nv 1\ne 0 0 1\nc 0 5\n",
        "wallkit-complex 1\ncounts 2 1 1\nv 0\nv 1\ne 0 0 1\nc 0 1 0\n",
        "wallkit-complex 1\ncounts -1 0 0\n",
    ],
    ids=["short-edge-line", "non-integer-count", "edge-past-end", "token-zero", "negative-count"],
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
    assert rc == 2 and "max_pairs" in err and "pairs=" not in out


def test_examples_listing():
    rc, out, _ = run_cli("examples")
    assert rc == 0
    for name in ("tv", "pride", "rips", "example1", "example2"):
        assert name in out


def test_main_callable_directly(tmp_path):
    # in-process entry point honors the same contract
    assert main(["examples"]) == 0
    assert main(["check", "--input", str(tmp_path / "missing.pres")]) == 2


def test_unknown_args_exit_input():
    rc, *_ = run_cli("check", "--nope")
    assert rc == 2
