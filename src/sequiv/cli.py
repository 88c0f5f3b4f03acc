"""Command-line surface for the toolkit.

Every subcommand works on plain line-based text files and is
deterministic given identical inputs and flags.  Decision commands end
with a machine block of stable key=value lines; document commands print
bare documents in the same formats the parsers accept.

Handlers never write stdout.  A decision handler returns a
Verdict and a document handler returns its document text; `main` is the
only code that writes stdout, after the handler has returned.  So a
document is printed whole or not at all: `corpus generate` writes its
TSV once, at the end, and an error part-way prints no partial rows.

Exit codes: 0 success or decided, 1 invalid input or a usage error,
2 undecided, 3 internal error (an exactness check inside the library
failed).  Every exit 1 prints one "error: ..." line on stderr.

`build_parser` declares each subcommand in one call, by name, help,
handler and positional names, to the declarer its group returns; the
subcommand's own options are added to the parser that call returns.
`main` builds its parser once per process, on the first call, and
reuses it: in-process callers pay for argparse construction once, and a
shell invocation, which calls `main` once, is unaffected.  Each
subcommand's handler is bound into that parser when it is built, so to
substitute behaviour patch the library functions the handlers call, not
`cli._cmd_*`.  `build_parser` still returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

from . import __version__
from .braidclosure import (
    burau_alexander,
    knot_corpus,
    parse_artin_word,
    seifert_matrix,
)
from .intlin import InternalCheckError, format_matrix, parse_matrix
from .laurent import format_laurent
from .purebraid import (
    delta_equivalent,
    is_delta_trivial,
    linking_matrix,
    parse_braid,
)
from .seifert import (
    SearchBudget,
    alexander,
    bounded_sequiv_search,
    column_enlarge,
    invariants,
    row_enlarge,
    try_reduce,
    validate,
)
from .standardform import (
    format_disk_band,
    from_disk_band,
    parse_disk_band,
    standardization_witness,
    standardize,
    to_disk_band,
)
from .stringlink import (
    delta_equivalent_links,
    format_string_link,
    normalize_linking,
    pairwise_linking,
    parse_string_link,
)

DEFAULT_CORPUS_SEED = 7

_FORMAT_HELP = """\
file formats (one example each):

  matrix        line 1 is the size m, then m rows of m integers.
                empty matrix is the single line "0".
                    2
                    -1 1
                    0 -1

  braid word    header "n <strands>", then signed generator indices.
                    n 2
                    1 1 1

  pure braid    header "n <strands>", then letters "i j e", e in {1, -1}.
                    n 3
                    1 2 1
                    2 3 -1

  string link   header "n <n> k <k>", framings line, letters "i.a j.b e".
                    n 2 k 2
                    framings 0 0
                    1.1 2.1 1
                    1.2 2.2 -1

  disk band     "g <g>", framings line, nonzero band-linking lines "i j lk".
                    g 1
                    framings -1 -1

  polynomial    printed as "lo=<lowest exponent>; coeffs=<integers>".

decision commands end with key=value machine lines; the default corpus
seed is %d.
""" % DEFAULT_CORPUS_SEED


@dataclass
class Verdict:
    """Outcome of a subcommand: detail lines plus a stable machine block."""

    status: str  # ok | distinct | equivalent | unknown
    detail: list[str] = field(default_factory=list)
    machine: dict[str, str] = field(default_factory=dict)

    def emit(self) -> None:
        for line in self.detail:
            print(line)
        print(f"status={self.status}")
        for key, value in self.machine.items():
            print(f"{key}={value}")

    @property
    def exit_code(self) -> int:
        return 2 if self.status == "unknown" else 0


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _load_seifert(path: str):
    return validate(parse_matrix(_read(path)))


def _bool(x: bool) -> str:
    return "true" if x else "false"


# ---------------------------------------------------------------------------
# mat


def _cmd_mat_invariants(args) -> Verdict:
    sm = _load_seifert(args.file)
    inv = invariants(sm)
    delta = inv.alexander
    machine = {
        "alexander_lo": str(delta.lo),
        "alexander_coeffs": " ".join(str(c) for c in delta.coeffs),
        "signature": str(inv.signature),
        "determinant": str(inv.determinant),
        "arf": str(inv.arf),
        "genus": str(sm.genus),
        "valid": "true",
    }
    detail = [f"alexander: {format_laurent(delta)}"]
    detail += [f"{k}: {v}" for k, v in machine.items() if not k.startswith("alexander")]
    return Verdict("ok", detail, machine)


def _cmd_mat_standardize(args) -> Verdict:
    sm = _load_seifert(args.file)
    a, n = standardize(sm)
    out_a = args.out_a or args.file + ".A"
    out_n = args.out_n or args.file + ".N"
    _write(out_a, format_matrix(a))
    _write(out_n, format_matrix(n.matrix))
    detail = [f"A -> {out_a}", f"N -> {out_n}"]
    return Verdict("ok", detail, {"a_file": out_a, "n_file": out_n})


def _cmd_mat_enlarge(args) -> str:
    sm = _load_seifert(args.file)
    xi = [0] * sm.size if args.vector is None else args.vector
    enlarge = column_enlarge if args.kind == "column" else row_enlarge
    return format_matrix(enlarge(sm, xi, args.x).matrix)


def _cmd_mat_reduce(args) -> str:
    sm = _load_seifert(args.file)
    reduced = try_reduce(sm)
    if reduced is None:
        return "irreducible\n"
    return format_matrix(reduced.matrix)


def _cmd_mat_sequiv(args) -> Verdict:
    m1 = _load_seifert(args.file1)
    m2 = _load_seifert(args.file2)
    budget = SearchBudget(
        max_size=args.max_size, max_entry=args.max_entry, max_nodes=args.max_nodes
    )
    result = bounded_sequiv_search(m1, m2, budget)
    if result.verdict == "distinct":
        return Verdict("distinct", [f"distinct ({result.reason})"], {"invariant": result.reason.split()[0]})
    if result.verdict == "equivalent":
        detail = [f"equivalent ({len(result.witness)} moves)"]
        machine = {"moves": str(len(result.witness))}
        for idx, move in enumerate(result.witness, 1):
            text = move.describe()
            detail.append(f"move {idx}: {text}")
            machine[f"move_{idx}"] = text
        return Verdict("equivalent", detail, machine)
    return Verdict("unknown", [f"unknown ({result.reason})"], {"reason": result.reason})


# ---------------------------------------------------------------------------
# braid


def _lk_verdict(lm) -> Verdict:
    """The linking table, one "i j lk" line per nonzero entry, for braid lk and slink lk."""
    detail = [f"n {lm.n}"] + [f"{i} {j} {v}" for i, j, v in lm.entries]
    return Verdict("ok", detail, {"n": str(lm.n), "zero": _bool(lm.is_zero())})


def _delta_equiv_verdict(same: bool) -> Verdict:
    status = "equivalent" if same else "distinct"
    return Verdict(status, [status], {"delta_equivalent": _bool(same)})


def _cmd_braid_lk(args) -> Verdict:
    return _lk_verdict(linking_matrix(parse_braid(_read(args.file))))


def _cmd_braid_delta_trivial(args) -> Verdict:
    w = parse_braid(_read(args.file))
    trivial = is_delta_trivial(w)
    return Verdict("ok", [f"delta-trivial: {_bool(trivial)}"], {"delta_trivial": _bool(trivial)})


def _cmd_braid_delta_equiv(args) -> Verdict:
    w1 = parse_braid(_read(args.file1))
    w2 = parse_braid(_read(args.file2))
    return _delta_equiv_verdict(delta_equivalent(w1, w2))


# ---------------------------------------------------------------------------
# slink


def _cmd_slink_lk(args) -> Verdict:
    return _lk_verdict(pairwise_linking(parse_string_link(_read(args.file))))


def _cmd_slink_normalize(args) -> str:
    link = parse_string_link(_read(args.file))
    return format_string_link(normalize_linking(link))


def _cmd_slink_delta_equiv(args) -> Verdict:
    l1 = parse_string_link(_read(args.file1))
    l2 = parse_string_link(_read(args.file2))
    return _delta_equiv_verdict(delta_equivalent_links(l1, l2))


# ---------------------------------------------------------------------------
# std


def _cmd_std_to_disk_band(args) -> str:
    sm = _load_seifert(args.file)
    return format_disk_band(to_disk_band(sm))


def _cmd_std_from_disk_band(args) -> str:
    d = parse_disk_band(_read(args.file))
    return format_matrix(from_disk_band(d).matrix)


def _cmd_std_witness(args) -> Verdict:
    sm = _load_seifert(args.matrix)
    a1 = parse_matrix(_read(args.a1))
    a2 = parse_matrix(_read(args.a2))
    report = standardization_witness(sm, a1, a2)
    machine = {
        "symplectic": _bool(report.c_symplectic),
        "forms_match": _bool(report.forms_match_after_transition),
        "framings": " ".join(str(f) for f in report.framings),
    }
    return Verdict("ok", report.lines(), machine)


# ---------------------------------------------------------------------------
# closure


def _cmd_closure_seifert(args) -> str:
    w = parse_artin_word(_read(args.file))
    return format_matrix(seifert_matrix(w).matrix)


def _cmd_closure_alexander(args) -> Verdict:
    w = parse_artin_word(_read(args.file))
    surface = alexander(seifert_matrix(w))
    burau = burau_alexander(w)
    agree = surface == burau
    detail = [
        f"surface: {format_laurent(surface)}",
        f"burau: {format_laurent(burau)}",
        f"agree: {_bool(agree)}",
    ]
    return Verdict("ok", detail, {"agree": _bool(agree)})


# ---------------------------------------------------------------------------
# corpus


def _cmd_corpus_generate(args) -> str:
    words = knot_corpus(args.n, args.maxlen, args.seed, args.count)
    lines = ["word\tn\tlength\talexander\tsignature\tdeterminant\tarf\tagree"]
    for w in words:
        inv = invariants(seifert_matrix(w))
        agree = inv.alexander == burau_alexander(w)
        lines.append(
            "%s\t%d\t%d\t%s\t%d\t%d\t%d\t%s"
            % (
                " ".join(str(v) for v in w.letters),
                w.strands,
                len(w.letters),
                format_laurent(inv.alexander),
                inv.signature,
                inv.determinant,
                inv.arf,
                _bool(agree),
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser wiring


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError.

    main then reports them like any invalid input: exit 1 and one
    "error: ..." line.  Subparsers are built from this class too.
    """

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sequiv",
        description="Exact-arithmetic toolkit for Seifert matrices and S-equivalence.",
        epilog=_FORMAT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"sequiv {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    def group(name: str, help: str):
        """Add a group; return its declarer of subcommands by name, help, handler and positionals."""
        commands = top.add_parser(name, help=help).add_subparsers(dest="command", required=True)

        def command(name: str, help: str, func, *positionals: str) -> argparse.ArgumentParser:
            p = commands.add_parser(name, help=help)
            for positional in positionals:
                p.add_argument(positional)
            p.set_defaults(func=func)
            return p

        return command

    mat = group("mat", "Seifert matrix operations")
    mat("invariants", "Alexander, signature, determinant, Arf", _cmd_mat_invariants, "file")
    p = mat("standardize", "write A and N with N = A M A^T standardized", _cmd_mat_standardize, "file")
    p.add_argument("--out-a")
    p.add_argument("--out-n")
    p = mat("enlarge", "apply a column or row enlargement", _cmd_mat_enlarge, "file")
    p.add_argument("--kind", choices=("column", "row"), default="column")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--vector", type=int, nargs="*", help="enlargement column/row entries")
    mat("reduce", "strip one enlargement if a pattern matches", _cmd_mat_reduce, "file")
    p = mat("sequiv", "bounded search for an S-equivalence witness", _cmd_mat_sequiv, "file1", "file2")
    p.add_argument("--max-size", type=int, default=SearchBudget.max_size)
    p.add_argument("--max-entry", type=int, default=SearchBudget.max_entry)
    p.add_argument("--max-nodes", type=int, default=SearchBudget.max_nodes)

    braid = group("braid", "pure braid words")
    braid("lk", "pairwise linking numbers", _cmd_braid_lk, "file")
    braid("delta-trivial", "can the word be undone by delta moves", _cmd_braid_delta_trivial, "file")
    braid("delta-equiv", "same pairwise linking numbers", _cmd_braid_delta_equiv, "file1", "file2")

    slink = group("slink", "doubled string links")
    slink("lk", "string-link pairwise linking numbers", _cmd_slink_lk, "file")
    slink("normalize", "zero out every braid-level linking number", _cmd_slink_normalize, "file")
    slink("delta-equiv", "same linking numbers and framings", _cmd_slink_delta_equiv, "file1", "file2")

    std = group("std", "standard form and disk-band data")
    std(
        "to-disk-band", "framings and band linking of a standardized matrix", _cmd_std_to_disk_band, "file"
    )
    std("from-disk-band", "rebuild the standardized matrix", _cmd_std_from_disk_band, "file")
    std("witness", "check two standardizations of one matrix", _cmd_std_witness, "matrix", "a1", "a2")

    closure = group("closure", "braid closures")
    closure("seifert", "Seifert matrix of a knot closure", _cmd_closure_seifert, "file")
    closure("alexander", "both polynomial paths and agreement flag", _cmd_closure_alexander, "file")

    corpus = group("corpus", "derived example corpus")
    p = corpus("generate", "deterministic knot-closure corpus with invariants", _cmd_corpus_generate)
    p.add_argument("--n", type=int, default=4, help="maximum strand count")
    p.add_argument("--maxlen", type=int, default=12, help="maximum word length")
    p.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SEED)
    p.add_argument("--count", type=int, default=100)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    # Entries and coefficients are exact integers of any length, so the
    # interpreter's int <-> str digit limit is lifted for this call only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        outcome = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    else:
        if isinstance(outcome, Verdict):
            outcome.emit()
            return outcome.exit_code
        sys.stdout.write(outcome)
        return 0
    finally:
        sys.set_int_max_str_digits(limit)
