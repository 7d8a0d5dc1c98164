"""End-to-end CLI runs: report shape, frozen payloads, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isokit
from isokit import models
from isokit.cli import run
from isokit.cubelim import random_cube_map
from isokit.group import FiniteGroup
from isokit.jsonio import (
    canonical_dumps,
    complex_to_json,
    cube_map_to_json,
    group_to_json,
)

C2_JSON = canonical_dumps(group_to_json(FiniteGroup.cyclic(2)))


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _report(capsys, argv, expect_code=0):
    code, out = _run(capsys, argv)
    assert code == expect_code, out
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "result", "status"}
    return report


def _c2_file(tmp_path):
    p = tmp_path / "c2.json"
    p.write_text(C2_JSON)
    return str(p)


def test_version(capsys):
    code, out = _run(capsys, ["--version"])
    assert code == 0
    assert out == "isokit 0.1.0\n"


def test_usage_errors(capsys):
    for argv in ([], ["group"], ["frobnicate"], ["lefschetz", "--bogus"]):
        code, out = _run(capsys, argv)
        assert code == 64, argv
        assert out == ""  # usage text goes to stderr, never the report stream


def test_report_shape_and_byte_stability(capsys):
    first = _run(capsys, ["group", "make", "--cyclic", "2"])
    second = _run(capsys, ["group", "make", "--cyclic", "2"])
    assert first == second and first[0] == 0
    report = json.loads(first[1])
    assert report["command"] == "group make"
    assert report["status"] == "ok"
    assert report["inputs"] == {}
    assert report["result"] == group_to_json(FiniteGroup.cyclic(2))


def test_group_make_variants(capsys):
    r = _report(capsys, ["group", "make", "--symmetric", "3"])
    assert r["result"]["order"] == 6
    r = _report(capsys, ["group", "make", "--product", "c2,c2"])
    assert r["result"]["order"] == 4
    code, out = _run(capsys, ["group", "make", "--cyclic", "2", "--symmetric", "3"])
    assert code == 65
    code, out = _run(capsys, ["group", "make"])
    assert code == 65


def test_out_file(capsys, tmp_path):
    out = tmp_path / "g.json"
    r = _report(capsys, ["group", "make", "--cyclic", "3", "--out", str(out)])
    assert out.read_text() == canonical_dumps(r["result"])


def test_out_not_written_on_failure(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, _ = _run(capsys, ["complex", "make", "--model", "nope", "--out", str(out)])
    assert code == 65
    assert not out.exists()


def test_group_info_frozen(capsys, tmp_path):
    path = _c2_file(tmp_path)
    r = _report(capsys, ["group", "info", "--group", path])
    assert r["result"]["order"] == 2 and r["result"]["abelian"] is True
    assert r["result"]["marks"] == {"names": ["e", "C2"], "matrix": [[2, 0], [1, 1]]}
    assert [c["name"] for c in r["result"]["classes"]] == ["e", "C2"]
    assert list(r["inputs"]) == [path]
    assert r["inputs"][path].startswith("sha256:")


def test_complex_make(capsys):
    r = _report(capsys, ["complex", "make", "--model", "wedge"])
    assert r["result"] == complex_to_json(models.COMPLEX_MODELS["wedge"]())
    code, out = _run(capsys, ["complex", "make", "--model", "nope"])
    assert code == 65
    assert json.loads(out)["status"]["code"] == "BadInput"


def test_complex_info_frozen(capsys):
    r = _report(capsys, ["complex", "info", "--complex", "hexagon"])
    assert r["result"] == {
        "vertices": 6,
        "simplices": 12,
        "dim": 1,
        "euler_characteristic": 0,
        "group_order": 2,
        "regular": True,
        "present_classes": ["e"],
    }


def test_complex_regularize(capsys, tmp_path):
    flipped = tmp_path / "seg.json"
    flipped.write_text(
        canonical_dumps(
            {
                "vertices": 2,
                "facets": [[0, 1]],
                "action": {"1": [1, 0]},
                "group": group_to_json(FiniteGroup.cyclic(2)),
            }
        )
    )
    r = _report(capsys, ["complex", "regularize", "--complex", str(flipped)])
    assert r["result"]["vertices"] == 3
    # already-regular input passes through unchanged
    r = _report(capsys, ["complex", "regularize", "--complex", "hexagon"])
    assert r["result"] == complex_to_json(models.COMPLEX_MODELS["hexagon"]())


def test_linking_commands_frozen(capsys, tmp_path):
    path = _c2_file(tmp_path)
    r = _report(capsys, ["linking", "build", "--group", path, "--chain", "e<C2"])
    assert r["result"]["vertices"] == 3
    assert r["result"]["facets"] == [[0, 2], [1, 2]]

    r = _report(capsys, ["linking", "boundary", "--group", path, "--chain", "e<C2"])
    assert r["result"] == {
        "boundary_simplices": 3,
        "pieces": [
            {"chain": "e", "simplices": [[0], [1]], "slots": [0]},
            {"chain": "C2", "simplices": [[2]], "slots": [1]},
        ],
    }

    r = _report(capsys, ["linking", "fd", "--group", path, "--chain", "e<C2"])
    assert r["result"] == {
        "facet": [0, 2],
        "translates": {"0": [0, 2], "1": [1, 2]},
    }

    code, out = _run(capsys, ["linking", "build", "--group", path, "--chain", "C2<e"])
    assert code == 70
    assert json.loads(out)["status"]["code"] == "NotStrictChain"


def test_linking_chain_with_an_element_outside_the_group_is_bad_input(capsys, tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(canonical_dumps(group_to_json(FiniteGroup.cyclic(4))))
    for command in ("build", "boundary", "fd"):
        code, out = _run(capsys, ["linking", command, "--group", str(path), "--chain", "e<{0,99}"])
        assert code == 65, command
        assert json.loads(out)["status"] == {
            "code": "BadInput",
            "message": "{0,99} is not a subgroup",
        }


def test_decompose_cli(capsys):
    r = _report(capsys, ["decompose", "--complex", "swap-segment"])
    assert r["result"]["skeleta"] == [3, 5]
    assert len(r["result"]["cells"]) == 3


def test_check_isovariant_exit_codes(capsys, tmp_path):
    r = _report(capsys, ["check-isovariant", "--map", "fixed-point-inclusion"], 0)
    assert r["result"]["isovariant"] is True and r["result"]["exit"] == 0

    r = _report(capsys, ["check-isovariant", "--map", "disk-collapse"], 1)
    assert r["result"] == {
        "simplicial": True,
        "equivariant": True,
        "isovariant": False,
        "exit": 1,
    }

    hex_json = complex_to_json(models.COMPLEX_MODELS["hexagon"]())
    const = tmp_path / "const.json"
    const.write_text(
        canonical_dumps(
            {"source": hex_json, "target": hex_json, "vertices": [0] * 6}
        )
    )
    r = _report(capsys, ["check-isovariant", "--map", str(const)], 2)
    assert r["result"]["simplicial"] is True
    assert r["result"]["equivariant"] is False and r["result"]["exit"] == 2


def test_strata_frozen(capsys):
    r = _report(capsys, ["strata", "--complex", "s3-dust"])
    assert r["result"] == {
        "classes": [
            {"name": "e", "exact": 6, "closure": 6, "fixed_union": 12},
            {"name": "C2", "exact": 3, "closure": 3, "fixed_union": 4},
            {"name": "C3", "exact": 2, "closure": 2, "fixed_union": 3},
            {"name": "G6", "exact": 1, "closure": 1, "fixed_union": 1},
        ],
        "filtration": {"order": ["G6", "C3", "C2", "e"], "levels": [1, 3, 6, 12]},
        "treelike": False,
    }


def test_lefschetz_cli(capsys):
    r = _report(capsys, ["lefschetz", "--map", "hexagon-rotation"])
    assert r["result"] == {"lefschetz": 0, "per_class": {"e": 0}}
    r = _report(capsys, ["lefschetz", "--map", "hexagon-reflection"])
    assert r["result"] == {"lefschetz": 2, "per_class": {"e": 2}}


def test_reidemeister_cli_names_the_map_at_fault(capsys, tmp_path):
    hex_json = complex_to_json(models.COMPLEX_MODELS["hexagon"]())
    folded = tmp_path / "folded.json"
    folded.write_text(
        canonical_dumps({"source": hex_json, "target": hex_json, "vertices": [0, 3] * 3})
    )
    for argv in (
        ["reidemeister", "--map", str(folded)],
        ["reidemeister", "--map", str(folded), "--pi", "Z", "--phi", "1"],
    ):
        code, out = _run(capsys, argv)
        assert code == 70, argv
        assert json.loads(out)["status"]["code"] == "NotSimplicial", argv
    code, out = _run(capsys, ["reidemeister", "--map", "ring-inclusion"])
    assert code == 70
    assert json.loads(out)["status"]["code"] == "NotSelfMap"


def test_burnside_cli(capsys):
    r = _report(capsys, ["burnside", "--map", "hexagon-reflection"])
    assert r["result"] == {
        "classes": ["e", "C2"],
        "marks": [2, 0],
        "orbit_coeffs": [1, 0],
    }
    code, out = _run(capsys, ["burnside", "--map", "disk-collapse"])
    assert code == 70
    assert json.loads(out)["status"]["code"] == "NotSelfMap"


def test_reidemeister_cli(capsys):
    r = _report(capsys, ["reidemeister", "--map", "hexagon-reflection"])
    assert r["result"] == {
        "pi": [0],
        "phi": [[-1]],
        "torsion": [2],
        "free_rank": 0,
        "class_count": 2,
        "coefficients": [
            {"class": [0], "representative": [0], "coefficient": 1},
            {"class": [1], "representative": [1], "coefficient": 1},
        ],
        "lefschetz": 2,
        "is_zero": False,
    }
    # explicit fundamental-group data must agree with the derived one
    explicit = _report(
        capsys,
        ["reidemeister", "--map", "hexagon-reflection", "--pi", "Z", "--phi", "-1"],
    )
    assert explicit["result"] == r["result"]

    for argv in (
        ["reidemeister", "--map", "hexagon-reflection", "--pi", "Z"],
        ["reidemeister", "--map", "hexagon-reflection", "--pi", "Q", "--phi", "1"],
        ["reidemeister", "--map", "hexagon-reflection", "--pi", "Z", "--phi", "[1,2]"],
    ):
        code, _ = _run(capsys, argv)
        assert code == 65, argv


def test_verdict_cli(capsys):
    r = _report(capsys, ["verdict", "--map", "hexagon-rotation"])
    assert r["result"]["verdict"] == "already fixed-point-free"
    assert r["result"]["fixed_point_free"] is True
    assert r["result"]["forced"] == []

    r = _report(capsys, ["verdict", "--map", "wedge-identity"])
    assert r["result"]["verdict"] == (
        "hypotheses fail; no conclusion; note forced fixed points: [0]"
    )
    assert r["result"]["note"] == (
        "all Lefschetz marks vanish yet these vertices are fixed by every "
        "isovariant self-map: equivariantly removable, not isovariantly"
    )
    assert r["result"]["forced"] == [0]
    assert r["result"]["marks"] == [0, 0]
    assert r["result"]["hypotheses"]["gap_failures"] == [["e", "C2", 0]]

    r = _report(
        capsys, ["verdict", "--map", "hexagon-identity", "--dims", '{"e":3}']
    )
    assert r["result"]["hypotheses"]["ok"] is True
    assert r["result"]["verdict"] == (
        "isovariantly removable iff R_G(f)=0 (hypotheses hold); "
        "computed necessary invariants vanish"
    )

    code, _ = _run(capsys, ["verdict", "--map", "hexagon-identity", "--dims", "[1]"])
    assert code == 65


def test_cube_check_cli(capsys, tmp_path):
    r = _report(capsys, ["cube", "check", "--dim", "2", "--trials", "5", "--seed", "3"])
    assert r["result"] == {
        "dim": 2,
        "trials": 5,
        "seed": 3,
        "verified": 5,
        "all_surjective": True,
    }

    path = tmp_path / "cube.json"
    path.write_text(canonical_dumps(cube_map_to_json(random_cube_map(2, seed=0))))
    r = _report(capsys, ["cube", "check", "--file", str(path)])
    assert r["result"]["dim"] == 2
    assert r["result"]["hypothesis_ok"] is True
    assert r["result"]["corner_failures"] == []
    assert r["result"]["surjective"] is True
    assert r["result"]["chain_surjective"] is True

    code, _ = _run(capsys, ["cube", "check", "--dim", "5"])
    assert code == 65


@pytest.mark.parametrize("dim, seed, digest", [
    (3, 5, "2a561c89a5e53bbc32306ab74bbe81d2ac31da72ee9b714288a5883d7e86d9d7"),
    (4, 2, "a34e6eca80c3400370e1a4879e708e3cecea8fe510e102ba0447380e5fd16dd8"),
])
def test_cube_check_file_report_is_pinned(capsys, tmp_path, monkeypatch, dim, seed, digest):
    monkeypatch.chdir(tmp_path)
    name = f"cube{dim}.json"
    Path(name).write_text(canonical_dumps(cube_map_to_json(random_cube_map(dim, seed=seed))))
    code, out = _run(capsys, ["cube", "check", "--file", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cube_check_rejects_negative_arguments(capsys):
    for argv, message in (
        (["--dim", "-1"], "--dim must be nonnegative, got -1"),
        (["--trials", "-3"], "--trials must be nonnegative, got -3"),
    ):
        r = _report(capsys, ["cube", "check", *argv], expect_code=65)
        assert r["result"] is None
        assert r["status"] == {"code": "BadInput", "message": message}


def test_python_dash_m_runs_the_cli():
    src = str(Path(isokit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "isokit", "cube", "check", "--dim", "2", "--trials", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["verified"] == 2


def test_export_dot(capsys, tmp_path):
    out = tmp_path / "strata.dot"
    r = _report(capsys, ["export-dot", "--complex", "s3-dust", "--out", str(out)])
    dot = r["result"]["dot"]
    assert dot.startswith("digraph")
    for name in ("e", "C2", "C3", "G6"):
        assert f'"{name}"' in dot
    # --out carries the raw DOT text, not a JSON wrapper
    assert out.read_text() == dot


def test_missing_file_reports_bad_input(capsys):
    code, out = _run(capsys, ["group", "info", "--group", "missing.json"])
    assert code == 65
    report = json.loads(out)
    assert report["result"] is None
    assert report["status"] == {
        "code": "BadInput",
        "message": "group file not found: missing.json",
    }
