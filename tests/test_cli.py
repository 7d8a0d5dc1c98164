"""End-to-end CLI runs: report shape, frozen payloads, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from oracles import cells_report_reference
from test_cubelim import _wide_limit_map

import isokit
from isokit import cli, fixpoint, gmap, models
from isokit.cli import build_parser, run
from isokit.cubelim import MAX_CUBE_DIM, Cube, CubeMap, random_cube_map
from isokit.errors import CapExceeded
from isokit.group import FiniteGroup
from isokit.jsonio import (
    Canonical,
    canonical_dumps,
    complex_to_json,
    cube_map_to_json,
    group_to_json,
    map_to_json,
)
from isokit.linking import decompose

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
    r = _report(capsys, ["group", "make", "--dihedral", "2"])
    assert r["result"] == group_to_json(FiniteGroup.dihedral(2)) and r["result"]["order"] == 4
    r = _report(capsys, ["group", "make", "--product", "d2,c2"])
    assert r["result"]["order"] == 8
    code, out = _run(capsys, ["group", "make", "--cyclic", "2", "--symmetric", "3"])
    assert code == 65
    code, out = _run(capsys, ["group", "make"])
    assert code == 65


def test_group_make_reports_bad_specs(capsys):
    for argv, code, message in (
        (["--product", "c2,x3"], "BadInput", "bad group token 'x3' (use cN, sN, dN)"),
        (["--product", " , "], "BadInput", "empty product spec"),
        (["--product", "s4,c3"], "GroupTooLarge", "group order 72 exceeds cap 48"),
        (["--cyclic", "49"], "GroupTooLarge", "group order 49 exceeds cap 48"),
    ):
        r = _report(capsys, ["group", "make", *argv], expect_code=65)
        assert r["status"] == {"code": code, "message": message}, argv
    r = _report(capsys, ["group", "make", "--product", "C2,S3"])
    assert r["result"] == group_to_json(
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.symmetric(3))
    )


def test_out_file(capsys, tmp_path):
    out = tmp_path / "g.json"
    r = _report(capsys, ["group", "make", "--cyclic", "3", "--out", str(out)])
    assert out.read_text() == canonical_dumps(r["result"])


def test_out_encodes_the_result_once(capsys, tmp_path, monkeypatch):
    """--out writes the result's canonical text, and the report inserts
    that same text, so the result is encoded once."""
    encoded = []

    def spy(obj):
        encoded.append(obj)
        return canonical_dumps(obj)

    monkeypatch.setattr(cli, "canonical_dumps", spy)
    out = tmp_path / "disk.json"
    r = _report(capsys, ["complex", "make", "--model", "rotation-disk", "--out", str(out)])
    result, report = encoded
    assert r["result"] == result == complex_to_json(models.COMPLEX_MODELS["rotation-disk"]())
    assert isinstance(report["result"], Canonical)
    assert out.read_text() == report["result"].text + "\n" == canonical_dumps(result)


def test_out_not_written_on_failure(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, _ = _run(capsys, ["complex", "make", "--model", "nope", "--out", str(out)])
    assert code == 65
    assert not out.exists()


# one successful run of every command that takes --out
OUT_COMMANDS = {
    "group make": ["group", "make", "--cyclic", "3"],
    "complex make": ["complex", "make", "--model", "hexagon"],
    "complex regularize": ["complex", "regularize", "--complex", "hexagon"],
    "linking build": ["linking", "build", "--group", "{c2}", "--chain", "e<C2"],
    "decompose": ["decompose", "--complex", "swap-segment"],
    "export-dot": ["export-dot", "--complex", "s3-dust"],
}


def _commands_with_out(parser, prefix=()):
    for action in parser._actions:
        if "--out" in action.option_strings:
            yield " ".join(prefix)
        for name, sub in (getattr(action, "choices", None) or {}).items():
            if hasattr(sub, "_actions"):
                yield from _commands_with_out(sub, prefix + (name,))


def test_out_commands_cover_the_parser():
    assert set(_commands_with_out(build_parser())) == set(OUT_COMMANDS)


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_failed_out_write_prints_one_report(capsys, tmp_path, command):
    argv = [a.replace("{c2}", _c2_file(tmp_path)) for a in OUT_COMMANDS[command]]
    out = tmp_path / "missing" / "x.out"
    code, text = _run(capsys, argv + ["--out", str(out)])
    assert code == 65
    assert text.count("\n") == 1 and text.endswith("\n")
    report = json.loads(text)
    assert report["command"] == command and report["result"] is None
    assert report["status"]["code"] == "BadInput"
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


def test_reidemeister_cli_caps_the_class_count(capsys):
    argv = ["reidemeister", "--map", "hexagon-rotation", "--pi", "Z/300000", "--phi", "1"]
    r = _report(capsys, argv, expect_code=65)
    assert r["result"] is None
    assert r["status"] == {
        "code": "TooManyTwistedClasses",
        "message": "300000 twisted classes exceed the cap of 10000",
    }


def test_subdivision_cap_is_bad_input(capsys, tmp_path):
    """A 10-simplex with two vertices swapped is irregular; regularizing it
    would subdivide it into over 3 billion simplices."""
    path = tmp_path / "big.json"
    path.write_text(canonical_dumps({
        "vertices": 11,
        "facets": [list(range(11))],
        "group": group_to_json(FiniteGroup.cyclic(2)),
        "action": {"1": [1, 0] + list(range(2, 11))},
    }))
    r = _report(capsys, ["complex", "regularize", "--complex", str(path)], expect_code=65)
    assert r["result"] is None
    assert r["status"] == {
        "code": "TooManySimplices",
        "message": "a subdivision of 3245265145 simplices exceeds the cap of 2000000",
    }


def test_face_closure_cap_is_bad_input(capsys, tmp_path):
    """One 40-vertex facet would need 2^40 faces."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"vertices": 40, "facets": [list(range(40))]}))
    r = _report(capsys, ["complex", "info", "--complex", str(path)], expect_code=65)
    assert r["result"] is None
    assert r["status"] == {
        "code": "TooManySimplices",
        "message": "the faces of a 40-vertex facet take the complex past the cap of 2000000 simplices",
    }


@pytest.mark.parametrize("dim", [6, 7])
def test_cube_limit_cap_is_bad_input(capsys, tmp_path, dim):
    """Stage limits of 2^20 and 2^35 elements: each run stops at the first
    limit past the cap with one report."""
    path = tmp_path / "wide.json"
    path.write_text(canonical_dumps(cube_map_to_json(_wide_limit_map(dim))))
    r = _report(capsys, ["cube", "check", "--file", str(path)], expect_code=65)
    assert r["result"] is None
    assert r["status"] == {
        "code": "CubeTooLarge",
        "message": "a limit has more elements than the cap of 100000",
    }


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


def test_burnside_cli_checks_the_map_and_computes_marks_once(capsys, count_calls):
    checks = count_calls("_require_self_map", fixpoint)
    scans = count_calls("is_equivariant", gmap)
    marks = count_calls("marks_vector", fixpoint, cli)
    r = _report(capsys, ["burnside", "--map", "wedge-identity"])
    assert r["result"] == {"classes": ["e", "C2"], "marks": [0, 0], "orbit_coeffs": [0, 0]}
    assert (len(checks), len(scans), len(marks)) == (1, 1, 1)


# map files whose source and target are one complex, by one path or by two
# equal inline objects; digests taken before such files were parsed once
SHARED_COMPLEX_RUNS = {
    "verdict hexagon-rotation-shared": "0:d5de0fff8cfd4f3042d059e60609bde26efd60ec9154c1872e2815e5fb82b17e",
    "lefschetz hexagon-rotation-shared": "0:806daa8877ff545b6da943129b000229915327e73b42d5ed5f339ee4ff1ecbeb",
    "burnside hexagon-rotation-shared": "0:e7603586fe700cb2901f7c7c94460d734b98964585ddcc407ae993b505e79c10",
    "reidemeister hexagon-rotation-shared": "0:4f3ad04e81e425d9e56f01868d6d3c1cf2bea3d1a65b754cf688b24c4acdfc80",
    "verdict hexagon-rotation-inline": "0:8e0b2627a40be31dfdeb6d50fd0aebe73f8679b5dc3fc9a9aa8e19e1fe6f8570",
    "lefschetz hexagon-rotation-inline": "0:39436cc11a316bca8b77395cd203eede593d19f84083e1a0f01774c739ed45b6",
    "burnside hexagon-rotation-inline": "0:47ff6f3af463278d6a8258d09fcbd687b88509c2ab4c7417cfdc1bdc4ae87f4b",
    "reidemeister hexagon-rotation-inline": "0:bacefc6a91e8dd3bcd4cdc93204b384d5606eb7f28a7130ab1b4c649c11977d0",
    "verdict wedge-identity-shared": "0:1f73acb550c26197af8d49f73cbbf94d84222dfbfa1f29c6342732b02606385c",
    "lefschetz wedge-identity-shared": "0:fbe531ddedf890a151ec789d4a7c2ed8969367b93905332a3e79a55348954098",
    "burnside wedge-identity-shared": "0:a0bad645c1997375171e1d0b9fe80af796213fb0f5f0c41955130edc6ecdfd17",
    "reidemeister wedge-identity-shared": "0:7d55172fc9d7e99fff21c17519f4c8de40ca92ef46f439287aac5ceb6dfa77cb",
    "verdict wedge-identity-inline": "0:162e7d3c94ae22c0735ec7599810aaed4d35a74a5d0f3e1ac00b5b3f473ea3d8",
    "lefschetz wedge-identity-inline": "0:7a8fa9a9a51e1f74e66c5b7d743a2702730ee529a2f0632cb4c49d351ac5258a",
    "burnside wedge-identity-inline": "0:73acafd7e204ae53d162604366ce2341b71784f26602b00c51c62faa95a332c3",
    "reidemeister wedge-identity-inline": "0:b3f7f7ae4167e89aabb8c4a44552e833fb108af19d5df5848cd11c348d839d30",
}


def test_shared_complex_map_reports_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {}
    for name in ("hexagon-rotation", "wedge-identity"):
        f = models.MAP_MODELS[name]()
        cx = complex_to_json(f.source)
        (tmp_path / f"{name}-complex.json").write_text(canonical_dumps(cx))
        path = f"{name}-complex.json"
        for kind, source, target in (("shared", path, path), ("inline", cx, cx)):
            obj = {"source": source, "target": target, "vertices": list(f.vertices)}
            (tmp_path / f"{name}-{kind}.json").write_text(canonical_dumps(obj))
            for command in ("verdict", "lefschetz", "burnside", "reidemeister"):
                code, out = _run(capsys, [command, "--map", f"{name}-{kind}.json"])
                got[f"{command} {name}-{kind}"] = (
                    f"{code}:{hashlib.sha256(out.encode()).hexdigest()}"
                )
    assert got == SHARED_COMPLEX_RUNS


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
    # no seed: the all-singleton identity map, whose limit plans are the largest
    (5, None, "b403776dbad518d8cba96465590fe2f75c356991a006f89e98d792bd817cbccb"),
    (6, None, "d767695b9c208053adb8bbcc965d7d9b71b04b966bbe74007d51c04558b5ef33"),
    (7, None, "61c93485abc4f02bf0267c85374f3a0647727d199985997f631806381ee8817f"),
])
def test_cube_check_file_report_is_pinned(capsys, tmp_path, monkeypatch, dim, seed, digest):
    monkeypatch.chdir(tmp_path)
    name = f"cube{dim}.json"
    m = _point_cube_map(dim) if seed is None else cube_map_to_json(random_cube_map(dim, seed=seed))
    Path(name).write_text(canonical_dumps(m))
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


def test_cube_check_file_rejects_negative_arguments_like_the_random_path(capsys, tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(canonical_dumps(cube_map_to_json(random_cube_map(2, seed=0))))
    for argv in (["--dim", "-2"], ["--trials", "-1"], ["--dim", "-1", "--trials", "-1"]):
        random_path = _run(capsys, ["cube", "check", *argv])
        assert random_path[0] == 65
        assert json.loads(random_path[1])["status"]["code"] == "BadInput"
        assert _run(capsys, ["cube", "check", "--file", str(path), *argv]) == random_path, argv


def test_decompose_out_writes_the_reference_report(capsys, tmp_path):
    """The result is one canonical text, written whole to --out and inside
    the printed report."""
    out = tmp_path / "cells.json"
    code, printed = _run(capsys, ["decompose", "--complex", "rotation-disk", "--out", str(out)])
    assert code == 0
    reference = cells_report_reference(decompose(models.COMPLEX_MODELS["rotation-disk"]()))
    assert out.read_text() == canonical_dumps(reference)
    assert printed == canonical_dumps(
        {"command": "decompose", "inputs": {}, "result": reference, "status": "ok"}
    )


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


def test_error_paths_do_not_depend_on_assert(tmp_path):
    """`python -O` strips assert statements; the CLI's checks must not."""
    (tmp_path / "truncated.json").write_text(
        canonical_dumps(map_to_json(models.MAP_MODELS["hexagon-rotation"]()))[:40]
    )
    (tmp_path / "c4.json").write_text(canonical_dumps(group_to_json(FiniteGroup.cyclic(4))))
    src = str(Path(isokit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    runs = (
        (["verdict", "--map", "disk-collapse"], 70),
        (["verdict", "--map", "truncated.json"], 65),
        (["linking", "build", "--group", "c4.json", "--chain", "e<{0,99}"], 65),
    )
    for argv, code in runs:
        outputs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "isokit", *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            outputs.append((proc.returncode, proc.stdout))
        assert outputs[0] == outputs[1], argv
        assert outputs[0][0] == code, outputs[0]


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


# every command that reads an input: its command line up to the input's
# option, the kind of file it reads, and a built-in name it accepts instead
INPUT_RUNS = {
    "group info": (["group", "info", "--group"], "group", None),
    "linking build": (["linking", "build", "--chain", "e<C2", "--group"], "group", None),
    "linking boundary": (["linking", "boundary", "--chain", "e<C2", "--group"], "group", None),
    "linking fd": (["linking", "fd", "--chain", "e<C2", "--group"], "group", None),
    "complex info": (["complex", "info", "--complex"], "complex", "hexagon"),
    "complex regularize": (["complex", "regularize", "--complex"], "complex", "hexagon"),
    "decompose": (["decompose", "--complex"], "complex", "hexagon"),
    "strata": (["strata", "--complex"], "complex", "hexagon"),
    "export-dot": (["export-dot", "--complex"], "complex", "hexagon"),
    "check-isovariant": (["check-isovariant", "--map"], "map", "hexagon-rotation"),
    "lefschetz": (["lefschetz", "--map"], "map", "hexagon-rotation"),
    "burnside": (["burnside", "--map"], "map", "hexagon-rotation"),
    "reidemeister": (["reidemeister", "--map"], "map", "hexagon-rotation"),
    "verdict": (["verdict", "--map"], "map", "hexagon-rotation"),
    "cube check": (["cube", "check", "--file"], "cube", None),
}


def _input_file(tmp_path, kind):
    """A valid input file of the kind; the map file names its complex by a
    path, which the report does not list."""
    docs = {"group": C2_JSON, "complex": canonical_dumps(_HEXAGON),
            "cube": canonical_dumps(_CUBE2_MAP)}
    if kind == "map":
        (tmp_path / "hexagon.json").write_text(docs["complex"])
        f = models.MAP_MODELS["hexagon-rotation"]()
        docs["map"] = canonical_dumps(
            {"source": "hexagon.json", "target": "hexagon.json", "vertices": list(f.vertices)}
        )
    path = tmp_path / f"{kind}-input.json"
    path.write_text(docs[kind])
    return str(path)


@pytest.mark.parametrize("command", sorted(INPUT_RUNS))
def test_report_inputs_are_the_files_named_on_the_command_line(capsys, tmp_path, command):
    argv, kind, model = INPUT_RUNS[command]
    path = _input_file(tmp_path, kind)
    r = _report(capsys, argv + [path])
    assert r["command"] == command and r["status"] == "ok"
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert r["inputs"] == {path: f"sha256:{digest}"}
    if model is not None:
        r = _report(capsys, argv + [model])
        assert r["status"] == "ok" and r["inputs"] == {}



_HEXAGON = complex_to_json(models.COMPLEX_MODELS["hexagon"]())
_CUBE1 = {"vertices": {"": 1, "0": 1}, "maps": {"+0": [0]}}
_SWAP = complex_to_json(models.COMPLEX_MODELS["swap-segment"]())
# swap-segment, its full action and names, with a vertex count no list matches
_HUGE_SWAP = {**_SWAP, "vertices": 1e308}
_HUGE_SWAP_PARTIAL = {
    k: v for k, v in _HUGE_SWAP.items() if k != "names"
} | {"action": {"1": [2, 1, 0]}}


def _cube1_map(source):
    """A 1-cube map file from the given source cube onto the point cube."""
    return {"dim": 1, "source": source, "target": _CUBE1, "components": {"": [0], "0": [0]}}


def _with_key(doc, path, key, like):
    """doc with one more entry key, a copy of the value at like, in the
    object at path: a second key for what like names."""
    out = json.loads(json.dumps(doc))
    table = out
    for step in path:
        table = table[step]
    table[key] = table[like]
    return out


_CUBE1_MAP = cube_map_to_json(random_cube_map(1, seed=0))
_CUBE2_MAP = cube_map_to_json(random_cube_map(2, seed=3, max_size=3))
_CUBE3_MAP = cube_map_to_json(random_cube_map(3, seed=0, max_size=2))


def _point_cube_map(n):
    """The identity map of the all-singleton n-cube, as a cube-map file."""
    verts = [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]
    point = Cube(n, dict.fromkeys(verts, 1), {(s, j): (0,) for s in verts for j in range(n) if j not in s})
    return cube_map_to_json(CubeMap(point, point, dict.fromkeys(verts, (0,))))


# one row per malformed input: the JSON written to the file "{file}" names
# (or None), and the command line; each must exit 65 with a report whose
# code is BadInput or, for a row in CAPPED_INPUTS, the cap's error
MALFORMED_INPUTS = {
    "complex facets of integers": (
        {"vertices": 3, "facets": [1, 2]}, ["complex", "info", "--complex", "{file}"]
    ),
    "complex vertices as a list": (
        {"vertices": [3], "facets": [[0, 1, 2]]}, ["complex", "info", "--complex", "{file}"]
    ),
    "complex action as a list": (
        {"vertices": 3, "facets": [[0, 1, 2]], "action": [[0, 1, 2]]},
        ["complex", "info", "--complex", "{file}"],
    ),
    "complex vertices beyond a partial action": (
        _HUGE_SWAP_PARTIAL, ["complex", "info", "--complex", "{file}"]
    ),
    "complex vertices beyond a full action": (
        {k: v for k, v in _HUGE_SWAP.items() if k != "names"},
        ["complex", "info", "--complex", "{file}"],
    ),
    "complex vertices beyond its names": (
        _HUGE_SWAP_PARTIAL | {"names": ["a", "b", "c"]},
        ["complex", "info", "--complex", "{file}"],
    ),
    "complex vertices beyond its facets": (
        {"vertices": 1e308, "facets": [[0, 1]]}, ["complex", "info", "--complex", "{file}"]
    ),
    "complex vertices unnamed by anything": (
        {"vertices": 5, "facets": [[0, 1]]}, ["complex", "info", "--complex", "{file}"]
    ),
    "group degree beyond its generators": (
        {"degree": 1e308, "generators": [[1, 0]]}, ["group", "info", "--group", "{file}"]
    ),
    "group degree negative": (
        {"degree": -1, "generators": []}, ["group", "info", "--group", "{file}"]
    ),
    "group degree negative with a generator": (
        {"degree": -3, "generators": [[0]]}, ["group", "info", "--group", "{file}"]
    ),
    "cube dim beyond its vertex sets": (
        {"dim": 1e308, "source": _CUBE1, "target": _CUBE1, "components": {}},
        ["cube", "check", "--file", "{file}"],
    ),
    "cube dim above its cap": (
        _point_cube_map(MAX_CUBE_DIM + 1), ["cube", "check", "--file", "{file}"]
    ),
    "cube dim negative": (
        {
            "dim": -1,
            "source": {"vertices": {"": 1}, "maps": {}},
            "target": {"vertices": {"": 1}, "maps": {}},
            "components": {"": [0]},
        },
        ["cube", "check", "--file", "{file}"],
    ),
    "complex vertices negative": (
        {"vertices": -1, "facets": []}, ["complex", "info", "--complex", "{file}"]
    ),
    "complex facet entry of a fraction": (
        {"vertices": 3, "facets": [[0, 1.9], [1, 2]]}, ["complex", "info", "--complex", "{file}"]
    ),
    "complex vertices of a fraction": (
        {"vertices": 2.5, "facets": [[0, 1]]}, ["complex", "info", "--complex", "{file}"]
    ),
    "complex facet entry true": (
        {"vertices": 2, "facets": [[True, 0]]}, ["complex", "info", "--complex", "{file}"]
    ),
    "complex vertices as a string": (
        {"vertices": "3", "facets": [[0, 1, 2]]}, ["complex", "info", "--complex", "{file}"]
    ),
    "complex names as an integer": (
        {"vertices": 2, "facets": [[0, 1]], "names": 5},
        ["complex", "info", "--complex", "{file}"],
    ),
    "group table as an integer": ({"table": 5}, ["group", "info", "--group", "{file}"]),
    "group generators as an integer": (
        {"generators": 5, "degree": 2}, ["group", "info", "--group", "{file}"]
    ),
    "map vertices as an integer": (
        {"source": _HEXAGON, "target": _HEXAGON, "vertices": 7},
        ["verdict", "--map", "{file}"],
    ),
    "cube cover map as an integer": (
        {
            "dim": 1,
            "source": {"vertices": {"": 1, "0": 1}, "maps": {"+0": 5}},
            "target": _CUBE1,
            "components": {"": [0], "0": [0]},
        },
        ["cube", "check", "--file", "{file}"],
    ),
    "cube dim as a list": (
        {"dim": [1], "source": _CUBE1, "target": _CUBE1, "components": {}},
        ["cube", "check", "--file", "{file}"],
    ),
    "cube component null": (
        {"dim": 1, "source": _CUBE1, "target": _CUBE1, "components": {"": None}},
        ["cube", "check", "--file", "{file}"],
    ),
    "phi of an object": (
        None,
        ["reidemeister", "--map", "hexagon-identity", "--pi", "Z", "--phi", '[{"a":1}]'],
    ),
    "phi matrix with an integer row": (
        None, ["reidemeister", "--map", "hexagon-identity", "--pi", "Z", "--phi", "[[1],3]"]
    ),
    "dims value as a list": (
        None, ["verdict", "--map", "hexagon-identity", "--dims", '{"e": [1]}']
    ),
    "dims value null": (
        None, ["verdict", "--map", "hexagon-identity", "--dims", '{"e": null}']
    ),
    "dims value of a fraction": (
        None, ["verdict", "--map", "hexagon-identity", "--dims", '{"e": 3.9}']
    ),
    "phi true": (
        None, ["reidemeister", "--map", "hexagon-identity", "--pi", "Z", "--phi", "true"]
    ),
    "complex action key with a space": (
        _SWAP | {"action": {"0": [0, 1, 2], " 1": [2, 1, 0]}},
        ["complex", "info", "--complex", "{file}"],
    ),
    "complex action key with a sign": (
        _SWAP | {"action": {"+0": [0, 1, 2], "1": [2, 1, 0]}},
        ["complex", "info", "--complex", "{file}"],
    ),
    "complex action keys naming one element": (
        _SWAP | {"action": {"1": [2, 1, 0], "01": [0, 1, 2]}},
        ["complex", "info", "--complex", "{file}"],
    ),
    "cube vertex key with a space": (
        _cube1_map({"vertices": {"": 1, " 0": 1}, "maps": {"+0": [0]}}),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube vertex key with an underscore": (
        _cube1_map({"vertices": {"": 1, "0_0": 1}, "maps": {"+0": [0]}}),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube cover key index with a space": (
        _cube1_map({"vertices": {"": 1, "0": 1}, "maps": {"+ 0": [0]}}),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube cover key index with a leading zero": (
        _cube1_map({"vertices": {"": 1, "0": 1}, "maps": {"+00": [0]}}),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube vertex key repeating a part": (
        _with_key(_CUBE2_MAP, ["source", "vertices"], "0,0", "0"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube vertex keys naming one subset": (
        _with_key(_CUBE2_MAP, ["source", "vertices"], "1,0", "0,1"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube cover key repeating a part": (
        _with_key(_CUBE2_MAP, ["target", "maps"], "1,1+0", "1+0"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube cover keys naming one cover": (
        _with_key(_CUBE3_MAP, ["source", "maps"], "1,0+2", "0,1+2"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube component key repeating a part": (
        _with_key(_CUBE2_MAP, ["components"], "1,1", "1"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube component keys naming one subset": (
        _with_key(_CUBE2_MAP, ["components"], "1,0", "0,1"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube cover key adding an index its subset holds": (
        _with_key(_CUBE1_MAP, ["source", "maps"], "0+0", "+0"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube cover key adding an index outside the cube": (
        _with_key(_CUBE1_MAP, ["source", "maps"], "+7", "+0"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube cover key at a subset outside the cube": (
        _with_key(_CUBE1_MAP, ["target", "maps"], "5+0", "+0"),
        ["cube", "check", "--file", "{file}"],
    ),
    "cube component at a subset outside the cube": (
        _with_key(_CUBE1_MAP, ["components"], "0,5", "0"),
        ["cube", "check", "--file", "{file}"],
    ),
    "group order of a fraction": (
        {"order": 2.0, "table": [[0, 1], [1, 0]]}, ["group", "info", "--group", "{file}"]
    ),
    "group order true": ({"order": True, "table": [[0]]}, ["group", "info", "--group", "{file}"]),
    **{
        f"pi torsion order {order}": (
            None, ["reidemeister", "--map", "hexagon-identity", "--pi", f"Z/{order}", "--phi", "1"]
        )
        for order in ("1_0", "+3", "03")
    },
    **{
        f"product token {tok}": (None, ["group", "make", "--product", tok])
        for tok in ("c1_0", "c+2", "s03")
    },
    **{
        f"group make --{option} {value}": (None, ["group", "make", f"--{option}", value])
        for option, value in (("cyclic", "1_0"), ("cyclic", "abc"), ("symmetric", "03"), ("dihedral", "+3"))
    },
    **{
        f"cube check --{option} {value}": (None, ["cube", "check", "--trials", "1", f"--{option}", value])
        for option, value in (("dim", "0_3"), ("trials", "1_0"), ("seed", "1_0"))
    },
    **{
        f"subgroup token {tok}": (
            {"table": [[0, 1], [1, 0]]},
            ["linking", "build", "--group", "{file}", "--chain", f"e<{tok}"],
        )
        for tok in ("{0,,1}", "{+0,1}", "{0,0,1}", "{0,1,}")
    },
}

# a count of 1e308 is no JSON integer, so each such row has a twin whose
# integer count only the oversized-count guards reject
MALFORMED_INPUTS |= {
    f"{case}, an integer": ({k: 10**400 if v == 1e308 else v for k, v in doc.items()}, argv)
    for case, (doc, argv) in MALFORMED_INPUTS.items()
    if doc is not None and 1e308 in doc.values()
}

# rows well formed but past a fixed size cap, with the cap's error code
CAPPED_INPUTS = {"cube dim above its cap": "CubeTooLarge"}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_bad_input(capsys, tmp_path, case):
    doc, argv = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    code, out = _run(capsys, [a.replace("{file}", str(path)) for a in argv])
    report = json.loads(out)
    assert code == 65, out
    assert report["result"] is None
    assert report["status"]["code"] == CAPPED_INPUTS.get(case, "BadInput")


def _nested(depth):
    """depth opening brackets, then as many closing ones: JSON that
    json.dumps cannot write, as it recurses as deep."""
    return "[" * depth + "]" * depth


# runs that decode JSON nested past the decoder's depth: the text written to
# the file "{file}" names (or None), and the command line; deep.json beside
# it always holds such an array
DEEP_JSON_RUNS = {
    "group info": (_nested(200_000), ["group", "info", "--group", "{file}"]),
    "complex info": (_nested(5000), ["complex", "info", "--complex", "{file}"]),
    "cube check --file": (_nested(5000), ["cube", "check", "--file", "{file}"]),
    "map file": (_nested(5000), ["lefschetz", "--map", "{file}"]),
    "complex a map file names": (
        '{"source": "deep.json", "target": "deep.json", "vertices": [0]}',
        ["check-isovariant", "--map", "{file}"],
    ),
    "verdict --dims": (None, ["verdict", "--map", "hexagon-rotation", "--dims", _nested(5000)]),
    "reidemeister --phi": (
        None, ["reidemeister", "--map", "hexagon-rotation", "--pi", "Z", "--phi", _nested(5000)]
    ),
}


@pytest.mark.parametrize("case", sorted(DEEP_JSON_RUNS))
def test_deeply_nested_json_is_bad_input(capsys, tmp_path, case):
    text, argv = DEEP_JSON_RUNS[case]
    path = tmp_path / "input.json"
    (tmp_path / "deep.json").write_text(_nested(5000))
    if text is not None:
        path.write_text(text)
    code, out = _run(capsys, [a.replace("{file}", str(path)) for a in argv])
    assert code == 65 and out.count("\n") == 1, out
    assert json.loads(out)["status"] == {"code": "BadInput", "message": "JSON nests too deeply to decode"}


def test_size_caps_share_one_base_class():
    """run reports each size cap as bad input under the subclass's own code."""
    assert {c.__name__ for c in CapExceeded.__subclasses__()} == {
        "CubeTooLarge", "GroupTooLarge", "TooManySimplices", "TooManyTwistedClasses"
    }


_FUZZ_VALUES = (5, [1], None, "x", {"a": 1}, [[0]], -1, True)


def _value_paths(doc, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    if isinstance(doc, (dict, list)):
        members = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in members:
            yield from _value_paths(value, path + (key,))


def _replace_at(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def test_cube_check_file_fuzz(capsys, tmp_path):
    """Every value of a valid dim-2 cube-map file, replaced in turn by each
    of a few wrong JSON values, gives one report and exit 0 or 65."""
    doc = _CUBE2_MAP
    path = tmp_path / "map.json"
    codes = set()
    for where in _value_paths(doc):
        for value in _FUZZ_VALUES:
            path.write_text(json.dumps(_replace_at(doc, where, value)))
            code, out = _run(capsys, ["cube", "check", "--file", str(path)])
            assert code in (0, 65), (where, value, out)
            assert out.count("\n") == 1, (where, value, out)
            assert set(json.loads(out)) == {"command", "inputs", "result", "status"}
            codes.add(code)
    assert codes == {0, 65}


_FILE_FUZZ_RUNS = {
    "group info, a table": (group_to_json(FiniteGroup.cyclic(3)), ["group", "info", "--group"]),
    "group info, generators": (
        {"degree": 3, "generators": [[1, 2, 0]]}, ["group", "info", "--group"]
    ),
    "strata": (_HEXAGON, ["strata", "--complex"]),
    "decompose": (_HEXAGON, ["decompose", "--complex"]),
    "verdict": (map_to_json(models.MAP_MODELS["hexagon-rotation"]()), ["verdict", "--map"]),
    "reidemeister": (
        map_to_json(models.MAP_MODELS["hexagon-rotation"]()), ["reidemeister", "--map"]
    ),
}


@pytest.mark.parametrize("case", sorted(_FILE_FUZZ_RUNS))
def test_group_complex_and_map_file_fuzz(capsys, tmp_path, case):
    """Every value of a valid group, complex or map file, replaced in turn
    by each of a few wrong JSON values, gives one report and exit 0, 65 or
    70; 70 is the failed report of a well-formed map that is not simplicial."""
    doc, argv = _FILE_FUZZ_RUNS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, argv + [str(path)])[0] == 0
    codes = set()
    for where in _value_paths(doc):
        for value in _FUZZ_VALUES:
            path.write_text(json.dumps(_replace_at(doc, where, value)))
            code, out = _run(capsys, argv + [str(path)])
            assert code in (0, 65, 70), (where, value, out)
            assert out.count("\n") == 1, (where, value, out)
            assert set(json.loads(out)) == {"command", "inputs", "result", "status"}
            codes.add(code)
    assert 65 in codes


# sha256 of stdout, with the exit code, of every built-in model run:
# complex commands on each complex model, map commands on each map model
GOLDEN_MODEL_RUNS = {
    "complex info --complex antipodal-square": "0:1ac166e2a7b3920d650490f80eb67307125ea507f1db3724a02257447803bb92",
    "complex regularize --complex antipodal-square": "0:03ae8327a7c79e58c54be15a70bc7cd2f13ac9a63deb38747bcdc84f1fd1958b",
    "decompose --complex antipodal-square": "70:ea004e972c939a94bb653e977aa7cb25ce49bc525b6f47d4aea95e8ef59ba640",
    "strata --complex antipodal-square": "0:caf09414b89371c0b8a4f0f1d0668a0b8e2e9e544f47ccc77d5e4dbb0dd10a2f",
    "export-dot --complex antipodal-square": "0:12835d9bfbc6e47d2c1fb9fab27cab5b7c1d08f017a9c9a7059c30e739bb7cba",
    "complex info --complex c2-point": "0:9c5184aeb6a7dcc92dd1a54ec18efbc52d81742a2f94673e695131752c837429",
    "complex regularize --complex c2-point": "0:94439408f502372c0de1573953627cd8ae700f81ed51c63951ec99f13637af57",
    "decompose --complex c2-point": "0:1cc3a9188f55b22eb0b0d0f1ddbcba7282cdeebcb5613b10f08798082b945b01",
    "strata --complex c2-point": "0:06845a00f3beef3f07ba1fdca7d7ac64ea560c6b0c02496f6b5cbd98d9897923",
    "export-dot --complex c2-point": "0:c95b9204bcda4164b896c47906b8c606cf6e55374b15c2d20c2d589c2e0d3ac2",
    "complex info --complex c2xc2-wedge": "0:e09b191ca24bd88654dd8947a490c3fb9eafb1ccb2e71b8af91acf26463db4cf",
    "complex regularize --complex c2xc2-wedge": "0:679f93e8920081f455902149a779dc3142b0f1c081afcca7a4942483897e075d",
    "decompose --complex c2xc2-wedge": "0:3a0864d769a470c88ca638456bc45618189920e638742e169ffc55805d4cead1",
    "strata --complex c2xc2-wedge": "0:df2fa1f2ed8407469ca5d6c9f7b3b010719a16f9fc0446546a8c738554f850c1",
    "export-dot --complex c2xc2-wedge": "0:a7dc3c8990ccdf57c7898a85ca6f8c4d96521c5c9b2f65812946894e12907725",
    "complex info --complex cross5": "0:de4974edf434331f3d8ab25b99f2d5df1be6c0c4cf7903b49c60c366378c8f72",
    "complex regularize --complex cross5": "0:bf34f7cfec5f427d89d1cd1f17af0c8a66b37058804dff59aba09d7bcc058b2b",
    "decompose --complex cross5": "70:a3aeefe7d16bb02a79a8f635a2025e72b6a3ad49a9b5973d333d51da2628c5ba",
    "strata --complex cross5": "0:cfb7e568892e05dad08e5fbd60aa0e2bd7a6d462dbfe85cc46d25d30452b7023",
    "export-dot --complex cross5": "0:1436dceaba21651d688f7ee569321227a5402877d8b7490f8c39919eddd9735f",
    "complex info --complex hexagon": "0:27bfa46d5e1bb72a7ab3d03c20a069d87e8984f4914dea2e1136936f832010c0",
    "complex regularize --complex hexagon": "0:4d119abc33de5ab622979cfab389ccc94dd6b9c662824bc1e54f15cb00e42205",
    "decompose --complex hexagon": "0:1b42d0db03160c913f32e14bab215cf0114fdacda033d16395de048d89f2fdb1",
    "strata --complex hexagon": "0:a0a620eb44422450c6bd26665581eed90b8178b98afd0ae575b403911c2bf7a4",
    "export-dot --complex hexagon": "0:cf0f3c06c9c86a46cc6e7a1c0730315fd3ff4df002e9ab6a9f4638738c91b98c",
    "complex info --complex point": "0:fe5a92bd752aaa67c2f28ec5c73aceea779c05494fc19f020791c067188f2330",
    "complex regularize --complex point": "0:73fb48579ab5d26623c25fbe992893148148113606df901c103047c71ba75702",
    "decompose --complex point": "0:75c808ef17ad436e04c87421ba202ddda7af0005967ea5f0354850871530556e",
    "strata --complex point": "0:66cf72b1e0dff18de2cea17ed60f32bd4b97cdf91009f4789af67afacfe03fa3",
    "export-dot --complex point": "0:19e4035efac7a81114db172dc33aa5ae5ef53150915fa7bb121cb3a926830c86",
    "complex info --complex rotation-disk": "0:56d22a7115e0e47cfab96c73962c14d75694b59f3b8c7e67952eef8d402d1b0f",
    "complex regularize --complex rotation-disk": "0:28e456c5c40cec9ebdee8595bb9cab9eecd084aebb1ad071ae8c06dba04bd42e",
    "decompose --complex rotation-disk": "0:23e4af0b984b021e80e3251e8a1d8a2eaf321568db9116c1f9ee088f720ae56e",
    "strata --complex rotation-disk": "0:13b478f01cec31c169fd5b5c546ac17509f0ff20ce9d2c6864b521bc34710bd5",
    "export-dot --complex rotation-disk": "0:d936356bc3a3a6a33ac74e2f5c0c222139dfaae33f436957235c2672572eb546",
    "complex info --complex s3-dust": "0:37e593f278fa149d571c8a54e5e436f001d9d19da4dca3d4a35a6a278d93a6f1",
    "complex regularize --complex s3-dust": "0:25c115197ce63129c67135d6b08c64f5472a22f445b9d4dc89c0898e3bf60fd9",
    "decompose --complex s3-dust": "0:3f8ae6d5f03aaa8fe15612a004d1d18870fe33d3f87fea53e3be308be14099a3",
    "strata --complex s3-dust": "0:84b80041634768a10bb7fd663ade76ed041be11e4227ba05333224e61213a66e",
    "export-dot --complex s3-dust": "0:6c3d3c8e1bb5bce2c4c43e537c08178d03a485ec583a5f794420404cef5ed005",
    "complex info --complex swap-segment": "0:5a7ac0ad2f1738f957734f18d28b7b75a22b51d106573b1487dd5353d56c1c2e",
    "complex regularize --complex swap-segment": "0:c7b11bb2a89cf6a34f71378e90ee719f0ac580ecf7cbc316aa44e441b3ba0517",
    "decompose --complex swap-segment": "0:6f9d579d04163c068e8a5cb0f21caaa422a0bc1414e1531849c7071f54fc5f23",
    "strata --complex swap-segment": "0:f0afeac45ff36d878f9105e5d83e3a6c1d81ada8a273dc38ac35ddbee8efad69",
    "export-dot --complex swap-segment": "0:dfa8393e5e24832caf0949e4efd1c5965caab92bfc72288bac2f4629d3323756",
    "complex info --complex wedge": "0:8c3fc0501b9a5e1e35cf1877a7e06bdea947f85101f076beedb1dc9bd1623ab8",
    "complex regularize --complex wedge": "0:2b97d81d4205a282d36a07f3dc99e4a835e4e623b755998178df23b4dd0c7aba",
    "decompose --complex wedge": "0:20ea767e118661867ee6880c322a8e190a72eb11fdfc6c2f57e131eb0f8d4be8",
    "strata --complex wedge": "0:9f0193696411071e0da9582f3663e151907f39831b94f3f940fe8560fb994371",
    "export-dot --complex wedge": "0:e831158771addec180661db63ef192fa666f81b4814743b27295aaa9e92c00ba",
    "check-isovariant --map cross5-identity": "0:193a1a86f376e37ab7f09d3c50a7d1ff60247cd21557942c7a31c327af694ab2",
    "lefschetz --map cross5-identity": "0:e2425930ab385d32805169a898f4a91df6706f438571dcc12acb59c902963f71",
    "burnside --map cross5-identity": "0:14c8b72223181ce57a83fbec0d3a7f5a365093e8698230c8514e676200732868",
    "verdict --map cross5-identity": "0:1f062754f657b9dab560d07ba7e6f106673d19c801b0aaca38d6636c9c3cba7a",
    "reidemeister --map cross5-identity": "70:93d2d59ad93b38e9f8c51e57d7d235d5b24a3be857646bd4978c5054e74aea85",
    "reidemeister --map cross5-identity --pi Z --phi 1": "70:93d2d59ad93b38e9f8c51e57d7d235d5b24a3be857646bd4978c5054e74aea85",
    "reidemeister --map cross5-identity --pi Z --phi -1": "70:93d2d59ad93b38e9f8c51e57d7d235d5b24a3be857646bd4978c5054e74aea85",
    "check-isovariant --map disk-collapse": "1:ff3aa802755248003aca046966f4f27e67773b0b15c0f19f2a01e17128964aa2",
    "lefschetz --map disk-collapse": "70:405f6356043c38cee2398928d5dae53b3084321d4df42065568e217d8a472e10",
    "burnside --map disk-collapse": "70:0ccd4778fb05badc778c7d918088e1da010471fd50f1f27a9e24d78e12c100b6",
    "verdict --map disk-collapse": "70:6b5da3fbbce5f5d04e812d45481d8c073b9929240ab1e7d33a71527d979f4815",
    "reidemeister --map disk-collapse": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "reidemeister --map disk-collapse --pi Z --phi 1": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "reidemeister --map disk-collapse --pi Z --phi -1": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "check-isovariant --map fixed-point-inclusion": "0:193a1a86f376e37ab7f09d3c50a7d1ff60247cd21557942c7a31c327af694ab2",
    "lefschetz --map fixed-point-inclusion": "70:405f6356043c38cee2398928d5dae53b3084321d4df42065568e217d8a472e10",
    "burnside --map fixed-point-inclusion": "70:0ccd4778fb05badc778c7d918088e1da010471fd50f1f27a9e24d78e12c100b6",
    "verdict --map fixed-point-inclusion": "70:6b5da3fbbce5f5d04e812d45481d8c073b9929240ab1e7d33a71527d979f4815",
    "reidemeister --map fixed-point-inclusion": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "reidemeister --map fixed-point-inclusion --pi Z --phi 1": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "reidemeister --map fixed-point-inclusion --pi Z --phi -1": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "check-isovariant --map hexagon-identity": "0:193a1a86f376e37ab7f09d3c50a7d1ff60247cd21557942c7a31c327af694ab2",
    "lefschetz --map hexagon-identity": "0:43dc21af84897f1b2153d42cedf9b4d48d9b8de08d4995c21fe745a0546ddf28",
    "burnside --map hexagon-identity": "0:14c8b72223181ce57a83fbec0d3a7f5a365093e8698230c8514e676200732868",
    "verdict --map hexagon-identity": "0:c280de372c91b452a98b1186382483e1f203c5be73a530ad393dd1c8933b5cc6",
    "reidemeister --map hexagon-identity": "0:42187f22faa2f7791a9ed7edf7d1d11ddb6e8d6ae9322abd0145210ebc48abe8",
    "reidemeister --map hexagon-identity --pi Z --phi 1": "0:42187f22faa2f7791a9ed7edf7d1d11ddb6e8d6ae9322abd0145210ebc48abe8",
    "reidemeister --map hexagon-identity --pi Z --phi -1": "70:668d237eff5a770e1b4070e96f775a21c781bae946a7e63605e635769a08e1a6",
    "check-isovariant --map hexagon-reflection": "0:193a1a86f376e37ab7f09d3c50a7d1ff60247cd21557942c7a31c327af694ab2",
    "lefschetz --map hexagon-reflection": "0:d3e667f38aae53886a9d22f10e93eb16ebee75626d82660940cb3ff5c6cdc034",
    "burnside --map hexagon-reflection": "0:77da9e52924f61f0ca12f7a719c5a482203a6e5e8d603e2bf6f70d59f9f82e82",
    "verdict --map hexagon-reflection": "0:d872268d74769666afbe8a4c0883a9c3373d945f2c59871db2f95594b97c03cc",
    "reidemeister --map hexagon-reflection": "0:dd50df5ed6efa32923f886dcefbdbed227948812f80ee6e858f6f16653fb95ce",
    "reidemeister --map hexagon-reflection --pi Z --phi 1": "70:668d237eff5a770e1b4070e96f775a21c781bae946a7e63605e635769a08e1a6",
    "reidemeister --map hexagon-reflection --pi Z --phi -1": "0:dd50df5ed6efa32923f886dcefbdbed227948812f80ee6e858f6f16653fb95ce",
    "check-isovariant --map hexagon-rotation": "0:193a1a86f376e37ab7f09d3c50a7d1ff60247cd21557942c7a31c327af694ab2",
    "lefschetz --map hexagon-rotation": "0:43dc21af84897f1b2153d42cedf9b4d48d9b8de08d4995c21fe745a0546ddf28",
    "burnside --map hexagon-rotation": "0:14c8b72223181ce57a83fbec0d3a7f5a365093e8698230c8514e676200732868",
    "verdict --map hexagon-rotation": "0:3714bf38efd0b175e605afef3cc0fec4efb73f0a5fc49de342cb4e235258b8b5",
    "reidemeister --map hexagon-rotation": "0:6edb3095d75472ca0777ea488ba29f337053f188204775491e4adce2220252a3",
    "reidemeister --map hexagon-rotation --pi Z --phi 1": "0:6edb3095d75472ca0777ea488ba29f337053f188204775491e4adce2220252a3",
    "reidemeister --map hexagon-rotation --pi Z --phi -1": "70:668d237eff5a770e1b4070e96f775a21c781bae946a7e63605e635769a08e1a6",
    "check-isovariant --map ring-inclusion": "0:193a1a86f376e37ab7f09d3c50a7d1ff60247cd21557942c7a31c327af694ab2",
    "lefschetz --map ring-inclusion": "70:405f6356043c38cee2398928d5dae53b3084321d4df42065568e217d8a472e10",
    "burnside --map ring-inclusion": "70:0ccd4778fb05badc778c7d918088e1da010471fd50f1f27a9e24d78e12c100b6",
    "verdict --map ring-inclusion": "70:6b5da3fbbce5f5d04e812d45481d8c073b9929240ab1e7d33a71527d979f4815",
    "reidemeister --map ring-inclusion": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "reidemeister --map ring-inclusion --pi Z --phi 1": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "reidemeister --map ring-inclusion --pi Z --phi -1": "70:3188fc12578c69802f684c233227ccfde9e4eca618dbd0e6ed502b1dc38bf877",
    "check-isovariant --map wedge-identity": "0:193a1a86f376e37ab7f09d3c50a7d1ff60247cd21557942c7a31c327af694ab2",
    "lefschetz --map wedge-identity": "0:e2425930ab385d32805169a898f4a91df6706f438571dcc12acb59c902963f71",
    "burnside --map wedge-identity": "0:14c8b72223181ce57a83fbec0d3a7f5a365093e8698230c8514e676200732868",
    "verdict --map wedge-identity": "0:32439deb1085864c462c5cd95c9f8bbde9d53eb9d1784439eecc1b7cc69ddade",
    "reidemeister --map wedge-identity": "0:42187f22faa2f7791a9ed7edf7d1d11ddb6e8d6ae9322abd0145210ebc48abe8",
    "reidemeister --map wedge-identity --pi Z --phi 1": "0:42187f22faa2f7791a9ed7edf7d1d11ddb6e8d6ae9322abd0145210ebc48abe8",
    "reidemeister --map wedge-identity --pi Z --phi -1": "70:668d237eff5a770e1b4070e96f775a21c781bae946a7e63605e635769a08e1a6",
    "cube check --dim 3 --trials 20": "0:4aa7178c3eae4560556de563e8ade0f74afcc02caf10c4240c14337225937e10",
}


def _model_runs():
    for name in sorted(models.COMPLEX_MODELS):
        for command in (["complex", "info"], ["complex", "regularize"], ["decompose"],
                        ["strata"], ["export-dot"]):
            yield command + ["--complex", name]
    for name in sorted(models.MAP_MODELS):
        for command in (["check-isovariant"], ["lefschetz"], ["burnside"], ["verdict"],
                        ["reidemeister"]):
            yield command + ["--map", name]
        for phi in ("1", "-1"):
            yield ["reidemeister", "--map", name, "--pi", "Z", "--phi", phi]
    yield ["cube", "check", "--dim", "3", "--trials", "20"]


def test_builtin_model_reports_are_pinned(capsys):
    got = {}
    for argv in _model_runs():
        code, out = _run(capsys, argv)
        got[" ".join(argv)] = f"{code}:{hashlib.sha256(out.encode()).hexdigest()}"
    assert len(got) == 107
    assert got == GOLDEN_MODEL_RUNS
