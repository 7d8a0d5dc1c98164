"""Command-line interface: every operation behind one binary with JSON
reports on stdout.

Reports are canonical (sorted keys, tight separators, one trailing
newline) so identical inputs give byte-identical output.  Exit codes:
0 success, 64 usage, 65 bad input, 70 domain error; check-isovariant
uses 0/1/2 for isovariant / equivariant-only / not equivariant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, reduce
from typing import Dict, List, Optional, Tuple

from . import __version__
from .cubelim import check_hypothesis, factorize_limit, random_cube_map
from .errors import CapExceeded, IsokitError
from .fixpoint import (
    TwistedConjugacySetup,
    _orbits,
    derive_pidata,
    lefschetz,
    lefschetz_fixed_sets,
    marks_vector,
    reidemeister_trace,
    removal_verdict,
)
from .gcomplex import (
    class_fixed_union,
    close_simplices,
    exact_stratum,
    filtration,
    is_treelike,
    make_regular,
    present_classes,
    stratification_dot,
)
from .gmap import is_equivariant, is_isovariant, is_simplicial
from .group import (
    FiniteGroup,
    _decimal_int,
    chain_name,
    class_names,
    parse_subgroup_token,
    subgroup_conjugacy_classes,
    table_of_marks,
)
from .jsonio import (
    _int,
    _ints,
    canonical_dumps,
    cells_to_json,
    complex_to_json,
    file_digest,
    group_to_json,
    load_json,
    parse_complex,
    parse_cube_map,
    parse_group,
    parse_map,
)
from .linking import boundary, build_linking, decompose, fundamental_domain
from .models import COMPLEX_MODELS, MAP_MODELS

EX_OK = 0
EX_USAGE = 64
EX_BADINPUT = 65
EX_DOMAIN = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


# a handler's inputs map each file that it read to the file's digest,
# which its report carries
def _load_group(value: str, inputs: Dict[str, str]) -> FiniteGroup:
    if not os.path.exists(value):
        raise ValueError(f"group file not found: {value}")
    inputs[value] = file_digest(value)
    return parse_group(load_json(value))


def _load(value: str, inputs: Dict[str, str], parse, models):
    """A complex or a map from a JSON file, else from a built-in model name."""
    if os.path.exists(value):
        inputs[value] = file_digest(value)
        return parse(load_json(value), os.path.dirname(value) or ".")
    if value in models:
        return models[value]()
    raise ValueError(f"not a file or model name: {value}")


def _emit(args, inputs: Dict[str, str], result, raw_text: Optional[str] = None) -> int:
    report = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "status": "ok",
    }
    out = getattr(args, "out", None)
    if out:
        # before the report, so that a failed write prints only its own report
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(raw_text if raw_text is not None else canonical_dumps(result))
    sys.stdout.write(canonical_dumps(report))
    return EX_OK


def _fail(command: str, exit_code: int, code: str, message: str) -> int:
    report = {
        "command": command,
        "inputs": {},
        "result": None,
        "status": {"code": code, "message": message},
    }
    sys.stdout.write(canonical_dumps(report))
    return exit_code


def _parse_chain(g: FiniteGroup, text: str):
    """Subgroups named in "e<C2" form; build_linking checks the chain."""
    return [parse_subgroup_token(g, tok.strip()) for tok in text.split("<")]


def _parse_pi(text: str) -> Tuple[int, ...]:
    factors = []
    for tok in text.replace("*", "x").split("x"):
        tok = tok.strip()
        if tok in ("1", ""):
            continue
        if tok == "Z":
            factors.append(0)
        elif tok.startswith("Z/"):
            d = _decimal_int(tok[2:].strip(), "torsion order in pi token")
            if d < 2:
                raise ValueError(f"bad torsion order in pi token: {tok!r}")
            factors.append(d)
        else:
            raise ValueError(f"bad pi token: {tok!r} (use Z, Z/n, products with x)")
    return tuple(factors)


def _parse_phi(text: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    value = json.loads(text)
    if isinstance(value, int):
        value = [value]
    if not isinstance(value, list):
        raise ValueError("phi must be an integer, a list, or a matrix")
    if value and isinstance(value[0], list):
        matrix = [_ints(row, "phi row") for row in value]
    else:
        # flat list: diagonal matrix
        diag = _ints(value, "phi")
        matrix = [
            tuple(diag[i] if i == j else 0 for j in range(len(diag)))
            for i in range(len(diag))
        ]
    if len(matrix) != rank or any(len(row) != rank for row in matrix):
        raise ValueError(f"phi must be {rank}x{rank} for the given pi")
    return tuple(matrix)


# -- subcommand handlers ---------------------------------------------------------


# the standard groups of `group make`, by option name; a --product token
# names one by its first letter
_GROUP_MAKERS = {
    "cyclic": FiniteGroup.cyclic,
    "symmetric": FiniteGroup.symmetric,
    "dihedral": FiniteGroup.dihedral,
}


def _cmd_group_make(args) -> int:
    chosen = [n for n in (*_GROUP_MAKERS, "product") if getattr(args, n) is not None]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --cyclic/--symmetric/--dihedral/--product")
    (name,) = chosen
    value = getattr(args, name)
    if name == "product":
        g = _product_group(value)
    else:
        g = _GROUP_MAKERS[name](_decimal_int(value, f"--{name}"))
    return _emit(args, {}, group_to_json(g))


def _product_group(spec: str) -> FiniteGroup:
    makers = {name[0]: make for name, make in _GROUP_MAKERS.items()}

    def base(tok: str) -> FiniteGroup:
        tok = tok.strip().lower()
        if tok[:1] not in makers:
            raise ValueError(f"bad group token {tok!r} (use cN, sN, dN)")
        return makers[tok[:1]](_decimal_int(tok[1:].strip(), f"group token {tok!r}: size"))

    toks = [t for t in spec.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty product spec")
    return reduce(FiniteGroup.direct_product, map(base, toks))


def _cmd_group_info(args) -> int:
    inputs = {}
    g = _load_group(args.group, inputs)
    names = class_names(g)
    classes = []
    for cls in subgroup_conjugacy_classes(g):
        rep = cls[0]
        classes.append(
            {
                "name": names[rep],
                "order": len(rep),
                "conjugates": len(cls),
                "representative": sorted(rep),
            }
        )
    marks = table_of_marks(g)
    result = {
        "order": g.order,
        "abelian": g.is_abelian(),
        "classes": classes,
        "marks": {
            "names": list(marks.names),
            "matrix": [list(row) for row in marks.matrix],
        },
    }
    return _emit(args, inputs, result)


def _cmd_complex_make(args) -> int:
    if args.model not in COMPLEX_MODELS:
        raise ValueError(
            f"unknown model {args.model!r}; choose from "
            + ", ".join(sorted(COMPLEX_MODELS))
        )
    x = COMPLEX_MODELS[args.model]()
    return _emit(args, {}, complex_to_json(x))


def _cmd_complex_info(args) -> int:
    inputs = {}
    x = _load(args.complex, inputs, parse_complex, COMPLEX_MODELS)
    names = class_names(x.group)
    result = {
        "vertices": x.n_vertices,
        "simplices": len(x.simplices()),
        "dim": x.dim,
        "euler_characteristic": x.euler_characteristic(),
        "group_order": x.group.order,
        "regular": x.is_regular(),
        "present_classes": [names[r] for r in present_classes(x)],
    }
    return _emit(args, inputs, result)


def _cmd_complex_regularize(args) -> int:
    inputs = {}
    x = _load(args.complex, inputs, parse_complex, COMPLEX_MODELS)
    return _emit(args, inputs, complex_to_json(make_regular(x)))


def _cmd_linking_build(args) -> int:
    inputs = {}
    g = _load_group(args.group, inputs)
    chain = _parse_chain(g, args.chain)
    l = build_linking(g, chain)
    return _emit(args, inputs, complex_to_json(l.complex))


def _cmd_linking_boundary(args) -> int:
    inputs = {}
    g = _load_group(args.group, inputs)
    chain = _parse_chain(g, args.chain)
    l = build_linking(g, chain)
    b = boundary(l)
    pieces = []
    for piece in b.pieces:
        pieces.append(
            {
                "slots": list(piece.slots),
                "chain": chain_name(g, piece.subchain),
                "simplices": sorted(list(s) for s in piece.simplices),
            }
        )
    result = {
        "pieces": pieces,
        "boundary_simplices": len(b.simplices),
    }
    return _emit(args, inputs, result)


def _cmd_linking_fd(args) -> int:
    inputs = {}
    g = _load_group(args.group, inputs)
    chain = _parse_chain(g, args.chain)
    l = build_linking(g, chain)
    fd = fundamental_domain(l)
    result = {
        "facet": list(fd.facet),
        "translates": {str(h): list(f) for h, f in sorted(fd.translates.items())},
    }
    return _emit(args, inputs, result)


def _cmd_decompose(args) -> int:
    inputs = {}
    x = _load(args.complex, inputs, parse_complex, COMPLEX_MODELS)
    structure = decompose(x)
    return _emit(args, inputs, cells_to_json(structure))


def _cmd_check_isovariant(args) -> int:
    inputs = {}
    f = _load(args.map, inputs, parse_map, MAP_MODELS)
    simplicial = is_simplicial(f)
    equivariant = simplicial and is_equivariant(f)
    isovariant = equivariant and is_isovariant(f)
    if isovariant:
        code = 0
    elif equivariant:
        code = 1
    else:
        code = 2
    result = {
        "simplicial": simplicial,
        "equivariant": equivariant,
        "isovariant": isovariant,
        "exit": code,
    }
    _emit(args, inputs, result)
    return code


def _cmd_strata(args) -> int:
    inputs = {}
    x = _load(args.complex, inputs, parse_complex, COMPLEX_MODELS)
    names = class_names(x.group)
    classes = []
    for rep in present_classes(x):
        stratum = exact_stratum(x, rep)
        classes.append(
            {
                "name": names[rep],
                "exact": len(stratum.simplices),
                "closure": len(close_simplices(stratum.simplices)),
                "fixed_union": len(class_fixed_union(x, rep)),
            }
        )
    filt = filtration(x)
    result = {
        "classes": classes,
        "filtration": {
            "order": list(filt.names),
            "levels": [len(level) for level in filt.levels],
        },
        "treelike": is_treelike(x),
    }
    return _emit(args, inputs, result)


def _cmd_lefschetz(args) -> int:
    inputs = {}
    f = _load(args.map, inputs, parse_map, MAP_MODELS)
    result = {"lefschetz": lefschetz(f)}
    try:
        result["per_class"] = lefschetz_fixed_sets(f)
    except IsokitError:
        result["per_class"] = None
    return _emit(args, inputs, result)


def _cmd_burnside(args) -> int:
    inputs = {}
    f = _load(args.map, inputs, parse_map, MAP_MODELS)
    mv = marks_vector(f)
    orbit = _orbits(mv, f.source.group)
    result = {
        "classes": list(mv.names),
        "marks": list(mv.coefficients),
        "orbit_coeffs": list(orbit.coefficients),
    }
    return _emit(args, inputs, result)


def _cmd_reidemeister(args) -> int:
    inputs = {}
    f = _load(args.map, inputs, parse_map, MAP_MODELS)
    if (args.pi is None) != (args.phi is None):
        raise ValueError("--pi and --phi must be given together")
    if args.pi is not None:
        factors = _parse_pi(args.pi)
        phi = _parse_phi(args.phi, len(factors))
        setup = TwistedConjugacySetup(invariant_factors=factors, phi=phi)
        pidata = derive_pidata(f, setup)
    else:
        pidata = derive_pidata(f)
    trace = reidemeister_trace(f, pidata)
    tc = trace.classes
    records = [
        {
            "class": list(label),
            "representative": list(tc.representative(label)),
            "coefficient": coeff,
        }
        for label, coeff in sorted(trace.coefficients.items())
    ]
    result = {
        "pi": list(pidata.setup.invariant_factors),
        "phi": [list(row) for row in pidata.setup.phi],
        "torsion": list(tc.torsion),
        "free_rank": tc.free_rank,
        "class_count": tc.count,
        "coefficients": records,
        "lefschetz": trace.lefschetz,
        "is_zero": trace.is_zero,
    }
    return _emit(args, inputs, result)


def _cmd_verdict(args) -> int:
    inputs = {}
    f = _load(args.map, inputs, parse_map, MAP_MODELS)
    dims = None
    if args.dims is not None:
        parsed = json.loads(args.dims)
        if not isinstance(parsed, dict):
            raise ValueError("--dims must be a JSON object of class name -> dim")
        dims = {str(k): _int(v, f"--dims value of {k!r}") for k, v in parsed.items()}
    report = removal_verdict(f, dims)
    return _emit(args, inputs, report.as_dict())


def _cmd_cube_check(args) -> int:
    inputs = {}
    dim, trials, seed = (
        _decimal_int(getattr(args, k), f"--{k}") for k in ("dim", "trials", "seed")
    )
    if args.file is not None:
        inputs[args.file] = file_digest(args.file)
        m = parse_cube_map(load_json(args.file))
        hyp = check_hypothesis(m)
        fact = factorize_limit(m)
        result = {
            "dim": m.n,
            "hypothesis_ok": hyp.ok,
            "corner_failures": [list(map(list, pair)) for pair in hyp.failures],
            "surjective": fact.direct.is_surjective,
            "chain_lengths": [len(stage) for stage in fact.stages],
            "chain_surjective": fact.all_links_surjective,
        }
        return _emit(args, inputs, result)
    if dim < 0:
        raise ValueError(f"--dim must be nonnegative, got {dim}")
    if dim > 4:
        raise ValueError("randomized cube dimension is capped at 4")
    if trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {trials}")
    verified = 0
    for t in range(trials):
        m = random_cube_map(dim, seed=seed + t)
        hyp = check_hypothesis(m)
        fact = factorize_limit(m)
        if hyp.ok and fact.composed.is_surjective and fact.all_links_surjective:
            verified += 1
    result = {
        "dim": dim,
        "trials": trials,
        "seed": seed,
        "verified": verified,
        "all_surjective": verified == trials,
    }
    return _emit(args, inputs, result)


def _cmd_export_dot(args) -> int:
    inputs = {}
    x = _load(args.complex, inputs, parse_complex, COMPLEX_MODELS)
    dot = stratification_dot(x)
    return _emit(args, inputs, {"dot": dot}, raw_text=dot)


# -- parser ----------------------------------------------------------------------


@cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="isokit", description=__doc__)
    p.add_argument("--version", action="version", version=f"isokit {__version__}")
    sub = p.add_subparsers(dest="topcommand", required=True, parser_class=_Parser)

    def add(parser, name, func, command, **kwargs):
        q = parser.add_parser(name, **kwargs)
        q.set_defaults(func=func, command=command)
        return q

    group = add(sub, "group", None, "group", help="make or inspect groups")
    gsub = group.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    q = add(gsub, "make", _cmd_group_make, "group make", help="build a standard group")
    q.add_argument("--cyclic")
    q.add_argument("--symmetric")
    q.add_argument("--dihedral", help="dihedral group of order 2n")
    q.add_argument("--product", type=str, help="comma list of cN/sN/dN tokens")
    q.add_argument("--out", type=str)
    q = add(gsub, "info", _cmd_group_info, "group info", help="subgroup classes and marks")
    q.add_argument("--group", required=True)

    cx = add(sub, "complex", None, "complex", help="make or inspect complexes")
    csub = cx.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    q = add(csub, "make", _cmd_complex_make, "complex make", help="materialize a named model")
    q.add_argument("--model", required=True)
    q.add_argument("--out", type=str)
    q = add(csub, "info", _cmd_complex_info, "complex info")
    q.add_argument("--complex", required=True)
    q = add(csub, "regularize", _cmd_complex_regularize, "complex regularize",
            help="subdivide until the action is regular")
    q.add_argument("--complex", required=True)
    q.add_argument("--out", type=str)

    lk = add(sub, "linking", None, "linking", help="linking simplices")
    lsub = lk.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, func, helptext in (
        ("build", _cmd_linking_build, "coset complex of a strict chain"),
        ("boundary", _cmd_linking_boundary, "boundary pieces by proper subchains"),
        ("fd", _cmd_linking_fd, "fundamental domain facet and translates"),
    ):
        q = add(lsub, name, func, f"linking {name}", help=helptext)
        q.add_argument("--group", required=True)
        q.add_argument("--chain", required=True, help='like "e<C2"')
        if name == "build":
            q.add_argument("--out", type=str)

    q = add(sub, "decompose", _cmd_decompose, "decompose",
            help="isovariant cell structure of an equivariant triangulation")
    q.add_argument("--complex", required=True)
    q.add_argument("--out", type=str)

    q = add(sub, "check-isovariant", _cmd_check_isovariant, "check-isovariant",
            help="exit 0 isovariant, 1 equivariant only, 2 otherwise")
    q.add_argument("--map", required=True)

    q = add(sub, "strata", _cmd_strata, "strata", help="isotropy strata and filtration")
    q.add_argument("--complex", required=True)

    q = add(sub, "lefschetz", _cmd_lefschetz, "lefschetz")
    q.add_argument("--map", required=True)

    q = add(sub, "burnside", _cmd_burnside, "burnside",
            help="marks vector and orbit-basis coefficients")
    q.add_argument("--map", required=True)

    q = add(sub, "reidemeister", _cmd_reidemeister, "reidemeister")
    q.add_argument("--map", required=True)
    q.add_argument("--pi", type=str, help='like "Z" or "Z/3" or "Z x Z/2"')
    q.add_argument("--phi", type=str, help="JSON integer, list (diagonal), or matrix")

    q = add(sub, "verdict", _cmd_verdict, "verdict", help="removability report")
    q.add_argument("--map", required=True)
    q.add_argument("--dims", type=str, help='JSON like {"e":5,"C2":3}')

    cube = add(sub, "cube", None, "cube", help="cube-of-sets limit lemma")
    qsub = cube.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    q = add(qsub, "check", _cmd_cube_check, "cube check")
    q.add_argument("--file", type=str, help="cube map JSON")
    q.add_argument("--trials", default="100")
    q.add_argument("--dim", default="3")
    q.add_argument("--seed", default="0")

    q = add(sub, "export-dot", _cmd_export_dot, "export-dot",
            help="DOT graph of the stratification poset")
    q.add_argument("--complex", required=True)
    q.add_argument("--out", type=str)

    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    command = getattr(args, "command", "isokit")
    try:
        return args.func(args)
    except CapExceeded as exc:
        return _fail(command, EX_BADINPUT, exc.code, str(exc))
    except IsokitError as exc:
        return _fail(command, EX_DOMAIN, exc.code, str(exc))
    except (ValueError, OSError) as exc:
        return _fail(command, EX_BADINPUT, "BadInput", str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]))
