"""Command-line interface: every operation behind one binary with JSON
reports on stdout.

Reports are canonical (sorted keys, tight separators, one trailing
newline) so identical inputs give byte-identical output.  Exit codes:
0 success, 64 usage, 65 bad input, 70 domain error; check-isovariant
uses 0/1/2 for isovariant / equivariant-only / not equivariant.

`run` is the one path from command line to report: it loads every input
file or model the command line names, calls the command's `_cmd_*`
handler, which only computes the result from what it is given, then
writes `--out` and prints the report.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, reduce
from typing import Dict, List, Optional, Tuple

from . import __version__
from .cubelim import CubeMap, check_hypothesis, factorize_limit, random_cube_map
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
    GComplex,
    class_fixed_union,
    close_simplices,
    exact_stratum,
    filtration,
    is_treelike,
    make_regular,
    present_classes,
    stratification_dot,
)
from .gmap import GMap, is_equivariant, is_isovariant, is_simplicial
from .group import (
    FiniteGroup,
    _decimal_int,
    _int,
    chain_name,
    class_names,
    parse_subgroup_token,
    subgroup_conjugacy_classes,
    table_of_marks,
)
from .jsonio import (
    _ints,
    Canonical,
    canonical_dumps,
    cells_to_json,
    complex_to_json,
    file_digest,
    group_to_json,
    load_json,
    parse_complex,
    parse_cube_map,
    parse_group,
    parse_json,
    parse_map,
)
from .linking import LinkingSimplex, boundary, build_linking, decompose, fundamental_domain
from .models import COMPLEX_MODELS, MAP_MODELS

EX_OK = 0
EX_USAGE = 64
EX_BADINPUT = 65
EX_DOMAIN = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


# each input option: its parser, its built-in models, and the start of the
# error for a value that names neither a file nor a model (None: the value
# must name a file, and opening it raises the error)
_INPUTS = {
    "group": (lambda doc, _: parse_group(doc), {}, "group file not found: "),
    "complex": (parse_complex, COMPLEX_MODELS, "not a file or model name: "),
    "map": (parse_map, MAP_MODELS, "not a file or model name: "),
    "file": (lambda doc, _: parse_cube_map(doc), {}, None),
}


def _load(args, option: str, inputs: Dict[str, str]):
    """The value of an option that run resolves before the handler runs:
    an input names a JSON file, whose digest goes into inputs, or else a
    built-in model; cube check's --dim, --trials and --seed are integers."""
    value = getattr(args, option)
    if option not in _INPUTS:
        return _decimal_int(value, f"--{option}")
    parse, models, missing = _INPUTS[option]
    if value is None:  # cube check without --file
        return None
    if missing is None or os.path.exists(value):
        inputs[value] = file_digest(value)
        return parse(load_json(value), os.path.dirname(value) or ".")
    if value in models:
        return models[value]()
    raise ValueError(missing + value)


def _report(command: str, inputs: Dict[str, str], result, status) -> None:
    report = {"command": command, "inputs": inputs, "result": result, "status": status}
    sys.stdout.write(canonical_dumps(report))


def _fail(command: str, exit_code: int, code: str, message: str) -> int:
    _report(command, {}, None, {"code": code, "message": message})
    return exit_code


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
    value = parse_json(text)
    if type(value) is int:
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
# each takes the parsed arguments, then the values of the options it loads,
# and returns its result


# the standard groups of `group make`, by option name; a --product token
# names one by its first letter
_GROUP_MAKERS = {
    "cyclic": FiniteGroup.cyclic,
    "symmetric": FiniteGroup.symmetric,
    "dihedral": FiniteGroup.dihedral,
}


def _cmd_group_make(args) -> dict:
    chosen = [n for n in (*_GROUP_MAKERS, "product") if getattr(args, n) is not None]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --cyclic/--symmetric/--dihedral/--product")
    (name,) = chosen
    value = getattr(args, name)
    if name == "product":
        g = _product_group(value)
    else:
        g = _GROUP_MAKERS[name](_decimal_int(value, f"--{name}"))
    return group_to_json(g)


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


def _cmd_group_info(args, g: FiniteGroup) -> dict:
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
    return {
        "order": g.order,
        "abelian": g.is_abelian(),
        "classes": classes,
        "marks": {
            "names": list(marks.names),
            "matrix": [list(row) for row in marks.matrix],
        },
    }


def _cmd_complex_make(args) -> dict:
    if args.model not in COMPLEX_MODELS:
        raise ValueError(
            f"unknown model {args.model!r}; choose from "
            + ", ".join(sorted(COMPLEX_MODELS))
        )
    return complex_to_json(COMPLEX_MODELS[args.model]())


def _cmd_complex_info(args, x: GComplex) -> dict:
    names = class_names(x.group)
    return {
        "vertices": x.n_vertices,
        "simplices": len(x.simplices()),
        "dim": x.dim,
        "euler_characteristic": x.euler_characteristic(),
        "group_order": x.group.order,
        "regular": x.is_regular(),
        "present_classes": [names[r] for r in present_classes(x)],
    }


def _cmd_complex_regularize(args, x: GComplex) -> dict:
    return complex_to_json(make_regular(x))


def _linking(args, g: FiniteGroup) -> LinkingSimplex:
    """The linking simplex of the chain named in "e<C2" form; build_linking
    checks the chain."""
    chain = [parse_subgroup_token(g, tok.strip()) for tok in args.chain.split("<")]
    return build_linking(g, chain)


def _cmd_linking_build(args, g: FiniteGroup) -> dict:
    return complex_to_json(_linking(args, g).complex)


def _cmd_linking_boundary(args, g: FiniteGroup) -> dict:
    b = boundary(_linking(args, g))
    pieces = []
    for piece in b.pieces:
        pieces.append(
            {
                "slots": list(piece.slots),
                "chain": chain_name(g, piece.subchain),
                "simplices": sorted(list(s) for s in piece.simplices),
            }
        )
    return {
        "pieces": pieces,
        "boundary_simplices": len(b.simplices),
    }


def _cmd_linking_fd(args, g: FiniteGroup) -> dict:
    fd = fundamental_domain(_linking(args, g))
    return {
        "facet": list(fd.facet),
        "translates": {str(h): list(f) for h, f in sorted(fd.translates.items())},
    }


def _cmd_decompose(args, x: GComplex) -> Canonical:
    return cells_to_json(decompose(x))


def _cmd_check_isovariant(args, f: GMap) -> dict:
    """The result's exit field is the run's exit code."""
    simplicial = is_simplicial(f)
    equivariant = simplicial and is_equivariant(f)
    isovariant = equivariant and is_isovariant(f)
    return {
        "simplicial": simplicial,
        "equivariant": equivariant,
        "isovariant": isovariant,
        "exit": 0 if isovariant else 1 if equivariant else 2,
    }


def _cmd_strata(args, x: GComplex) -> dict:
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
    return {
        "classes": classes,
        "filtration": {
            "order": list(filt.names),
            "levels": [len(level) for level in filt.levels],
        },
        "treelike": is_treelike(x),
    }


def _cmd_lefschetz(args, f: GMap) -> dict:
    result = {"lefschetz": lefschetz(f)}
    try:
        result["per_class"] = lefschetz_fixed_sets(f)
    except IsokitError:
        result["per_class"] = None
    return result


def _cmd_burnside(args, f: GMap) -> dict:
    mv = marks_vector(f)
    orbit = _orbits(mv, f.source.group)
    return {
        "classes": list(mv.names),
        "marks": list(mv.coefficients),
        "orbit_coeffs": list(orbit.coefficients),
    }


def _cmd_reidemeister(args, f: GMap) -> dict:
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
    return {
        "pi": list(pidata.setup.invariant_factors),
        "phi": [list(row) for row in pidata.setup.phi],
        "torsion": list(tc.torsion),
        "free_rank": tc.free_rank,
        "class_count": tc.count,
        "coefficients": records,
        "lefschetz": trace.lefschetz,
        "is_zero": trace.is_zero,
    }


def _cmd_verdict(args, f: GMap) -> dict:
    dims = None
    if args.dims is not None:
        parsed = parse_json(args.dims)
        if not isinstance(parsed, dict):
            raise ValueError("--dims must be a JSON object of class name -> dim")
        dims = {str(k): _int(v, f"--dims value of {k!r}") for k, v in parsed.items()}
    return removal_verdict(f, dims).as_dict()


def _cmd_cube_check(args, dim: int, trials: int, seed: int, m: Optional[CubeMap]) -> dict:
    if dim < 0:
        raise ValueError(f"--dim must be nonnegative, got {dim}")
    if trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {trials}")
    if m is not None:
        hyp = check_hypothesis(m)
        fact = factorize_limit(m)
        return {
            "dim": m.n,
            "hypothesis_ok": hyp.ok,
            "corner_failures": [list(map(list, pair)) for pair in hyp.failures],
            "surjective": fact.direct.is_surjective,
            "chain_lengths": [len(stage) for stage in fact.stages],
            "chain_surjective": fact.all_links_surjective,
        }
    if dim > 4:
        raise ValueError("randomized cube dimension is capped at 4")
    verified = 0
    for t in range(trials):
        m = random_cube_map(dim, seed=seed + t)
        hyp = check_hypothesis(m)
        fact = factorize_limit(m)
        if hyp.ok and fact.composed.is_surjective and fact.all_links_surjective:
            verified += 1
    return {
        "dim": dim,
        "trials": trials,
        "seed": seed,
        "verified": verified,
        "all_surjective": verified == trials,
    }


def _cmd_export_dot(args, x: GComplex) -> dict:
    """--out takes the raw DOT text."""
    return {"dot": stratification_dot(x)}


# -- parser ----------------------------------------------------------------------


@cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    # the help leaves out the docstring's last paragraph, which is about the code
    p = _Parser(prog="isokit", description=__doc__.rsplit("\n\n", 1)[0])
    p.add_argument("--version", action="version", version=f"isokit {__version__}")
    sub = p.add_subparsers(dest="topcommand", required=True, parser_class=_Parser)

    # load names the options run resolves for the handler, in order
    def add(parser, name, func, command, load=(), **kwargs):
        q = parser.add_parser(name, **kwargs)
        q.set_defaults(func=func, command=command, load=load)
        return q

    group = add(sub, "group", None, "group", help="make or inspect groups")
    gsub = group.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    q = add(gsub, "make", _cmd_group_make, "group make", help="build a standard group")
    q.add_argument("--cyclic")
    q.add_argument("--symmetric")
    q.add_argument("--dihedral", help="dihedral group of order 2n")
    q.add_argument("--product", type=str, help="comma list of cN/sN/dN tokens")
    q.add_argument("--out", type=str)
    q = add(gsub, "info", _cmd_group_info, "group info", ("group",),
            help="subgroup classes and marks")
    q.add_argument("--group", required=True)

    cx = add(sub, "complex", None, "complex", help="make or inspect complexes")
    csub = cx.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    q = add(csub, "make", _cmd_complex_make, "complex make", help="materialize a named model")
    q.add_argument("--model", required=True)
    q.add_argument("--out", type=str)
    q = add(csub, "info", _cmd_complex_info, "complex info", ("complex",))
    q.add_argument("--complex", required=True)
    q = add(csub, "regularize", _cmd_complex_regularize, "complex regularize", ("complex",),
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
        q = add(lsub, name, func, f"linking {name}", ("group",), help=helptext)
        q.add_argument("--group", required=True)
        q.add_argument("--chain", required=True, help='like "e<C2"')
        if name == "build":
            q.add_argument("--out", type=str)

    q = add(sub, "decompose", _cmd_decompose, "decompose", ("complex",),
            help="isovariant cell structure of an equivariant triangulation")
    q.add_argument("--complex", required=True)
    q.add_argument("--out", type=str)

    q = add(sub, "check-isovariant", _cmd_check_isovariant, "check-isovariant", ("map",),
            help="exit 0 isovariant, 1 equivariant only, 2 otherwise")
    q.add_argument("--map", required=True)

    q = add(sub, "strata", _cmd_strata, "strata", ("complex",),
            help="isotropy strata and filtration")
    q.add_argument("--complex", required=True)

    q = add(sub, "lefschetz", _cmd_lefschetz, "lefschetz", ("map",))
    q.add_argument("--map", required=True)

    q = add(sub, "burnside", _cmd_burnside, "burnside", ("map",),
            help="marks vector and orbit-basis coefficients")
    q.add_argument("--map", required=True)

    q = add(sub, "reidemeister", _cmd_reidemeister, "reidemeister", ("map",))
    q.add_argument("--map", required=True)
    q.add_argument("--pi", type=str, help='like "Z" or "Z/3" or "Z x Z/2"')
    q.add_argument("--phi", type=str, help="JSON integer, list (diagonal), or matrix")

    q = add(sub, "verdict", _cmd_verdict, "verdict", ("map",), help="removability report")
    q.add_argument("--map", required=True)
    q.add_argument("--dims", type=str, help='JSON like {"e":5,"C2":3}')

    cube = add(sub, "cube", None, "cube", help="cube-of-sets limit lemma")
    qsub = cube.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    # the integers first, so that a bad one is reported before a bad file
    q = add(qsub, "check", _cmd_cube_check, "cube check", ("dim", "trials", "seed", "file"))
    q.add_argument("--file", type=str, help="cube map JSON")
    q.add_argument("--trials", default="100")
    q.add_argument("--dim", default="3")
    q.add_argument("--seed", default="0")

    q = add(sub, "export-dot", _cmd_export_dot, "export-dot", ("complex",),
            help="DOT graph of the stratification poset")
    q.add_argument("--complex", required=True)
    q.add_argument("--out", type=str)

    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if type(exc.code) is int else EX_USAGE
    command = getattr(args, "command", "isokit")
    inputs: Dict[str, str] = {}
    try:
        result = shown = args.func(args, *[_load(args, option, inputs) for option in args.load])
        if getattr(args, "out", None):
            # before the report, so that a failed write prints only its own report
            if command == "export-dot":
                text = result["dot"]
            else:  # encoded once, for the file and for the report
                text = canonical_dumps(result)
                shown = Canonical(text[:-1])
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        _report(command, inputs, shown, "ok")
    except CapExceeded as exc:
        return _fail(command, EX_BADINPUT, exc.code, str(exc))
    except IsokitError as exc:
        return _fail(command, EX_DOMAIN, exc.code, str(exc))
    except (ValueError, OSError) as exc:
        return _fail(command, EX_BADINPUT, "BadInput", str(exc))
    return result["exit"] if command == "check-isovariant" else EX_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))
