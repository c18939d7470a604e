"""Command-line front end.

Subcommands: params (invariant report for a graph6 input), family (emit a
named construction), search (exhaustive catalog for one order), verify (run
one named claim verifier).  Exit codes: 0 success/pass, 1 verifier fail,
2 usage, parse or file error.

`verify` and `families` are imported by their own commands only, so that
`search` and `params` load neither.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from chromastab import chromatic, generate, graph6
from chromastab.graph import Graph, GraphError


def _jobs(text):
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


class _Claims:
    """The ids of `verify.CLAIMS`, sorted, for argparse's `choices`; it
    imports `verify` only when argparse checks a claim or lists them."""

    def __contains__(self, claim):
        return claim in self._ids()

    def __iter__(self):
        return iter(self._ids())

    @staticmethod
    def _ids():
        from chromastab import verify

        return sorted(verify.CLAIMS)


def _parser():
    p = argparse.ArgumentParser(
        prog="chromastab",
        description="Exact chromatic vertex stability toolkit for small graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("params", help="full invariant report for a graph")
    pp.add_argument("graph", help="graph6 string, a file containing one, or - for stdin")

    pf = sub.add_parser("family", help="emit a named construction")
    pf.add_argument("family", choices=tuple(_FAMILIES))
    pf.add_argument("--n", type=int, default=None, help="target order (GN, HNE)")
    pf.add_argument(
        "--chords",
        default="0",
        help="hex bitmask of chord indices, little-endian from index 1 (HNE)",
    )
    pf.add_argument("--host", default=None, help="host graph6 (BIP, SUBDIV)")
    pf.add_argument("--a", type=int, default=None, help="first attachment vertex (BIP)")
    pf.add_argument("--b", type=int, default=None, help="second attachment vertex (BIP)")
    pf.add_argument(
        "--plan",
        default=None,
        help="subdivision plan 'u-v:k,u-v:k' with even k (SUBDIV)",
    )
    pf.add_argument("--format", choices=("g6", "dot", "json"), default="g6")
    pf.add_argument("--output", default=None, help="write here instead of stdout")

    ps = sub.add_parser("search", help="exhaustive isomorph-free catalog for one order")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--max-degree", type=int, default=None)
    ps.add_argument("--connected-only", action="store_true")
    ps.add_argument(
        "--predicate",
        choices=sorted(generate.NAMED_PREDICATES),
        default=None,
        help="named filter evaluated on completed graphs",
    )
    ps.add_argument("--jobs", type=_jobs, default=None)
    ps.add_argument("--output", required=True, help="catalog file path")

    pv = sub.add_parser("verify", help="machine-check one named claim")
    pv.add_argument(
        "claim", choices=_Claims(), metavar="CLAIM", help="the claim to check: %(choices)s"
    )
    pv.add_argument("--n", type=int, default=None, help="order or order cap, for claims that take one")
    pv.add_argument("--seed", type=int, default=None, help="random seed, for claims that take one")
    pv.add_argument("--jobs", type=_jobs, default=None)
    pv.add_argument("--output", default=None, help="also write the JSON report here")

    return p


def _read_graph(spec: str) -> Graph:
    if spec == "-":
        text = sys.stdin.read()
    elif os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
    else:
        text = spec
    line = text.strip().splitlines()
    if not line:
        raise graph6.Graph6Error("empty input", 0)
    return graph6.decode(line[0])


def _cmd_params(args) -> int:
    g = _read_graph(args.graph)
    report = chromatic.analyze(g)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _parse_plan(text):
    plan = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        edge, _, count = part.partition(":")
        u, _, v = edge.partition("-")
        plan.append(((int(u), int(v)), int(count)))
    return tuple(plan)


def _host(args):
    return _read_graph(args.host) if args.host else None


# family id -> constructor called with the `families` module and the parsed
# `family` arguments
_FAMILIES = {
    "G9": lambda fam, args: fam.g9(),
    "G10": lambda fam, args: fam.g10(),
    "GN": lambda fam, args: fam.g_n(args.n),
    "HNE": lambda fam, args: fam.h_n_e(args.n, int(args.chords, 16)),
    "BIP": lambda fam, args: fam.bipartite_construction(_host(args), args.a, args.b),
    "SUBDIV": lambda fam, args: fam.subdivide_family(_host(args), _parse_plan(args.plan or "")),
}


def _cmd_family(args) -> int:
    from chromastab import families

    g = _FAMILIES[args.family](families, args)
    if args.format == "g6":
        payload = graph6.encode(g) + "\n"
    elif args.format == "dot":
        payload = graph6.to_dot(g, name=args.family)
    else:
        payload = (
            json.dumps(
                {
                    "n": g.n,
                    "edges": [list(e) for e in g.edges()],
                    "labels": {
                        str(v): tag
                        for v, tag in enumerate(g.labels or ())
                        if tag is not None
                    },
                },
                indent=2,
            )
            + "\n"
        )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        if args.format == "g6" and g.labels is not None:
            with open(f"{args.output}.labels.json", "w") as fh:
                json.dump(
                    {str(v): tag for v, tag in enumerate(g.labels) if tag is not None},
                    fh,
                    indent=2,
                )
                fh.write("\n")
    else:
        sys.stdout.write(payload)
    return 0


def _check_output_folder(path):
    """Refuse an output path whose folder is missing or is no folder, before
    a command spends its run on what it would write there."""
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        raise OSError(code, os.strerror(code), folder)


def _cmd_search(args) -> int:
    _check_output_folder(args.output)
    spec = generate.GenSpec(
        n=args.n,
        max_degree=args.max_degree,
        connected_only=args.connected_only,
        predicate=args.predicate,
    )
    jobs = args.jobs if args.jobs is not None else generate.default_jobs()
    cat = generate.enumerate_catalog(spec, jobs=jobs)
    generate.write_catalog(cat, args.output)
    for stage, count in cat.meta["funnel"].items():
        print(f"{stage}\t{count}")
    print(f"entries\t{len(cat.entries)}")
    return 0


def _cmd_verify(args) -> int:
    from chromastab import verify

    if args.output:
        _check_output_folder(args.output)
    jobs = args.jobs if args.jobs is not None else generate.default_jobs()
    report = verify.run(args.claim, n=args.n, seed=args.seed, jobs=jobs)
    blob = json.dumps(report.to_dict(), indent=2)
    print(blob)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(blob)
            fh.write("\n")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "params":
            return _cmd_params(args)
        if args.command == "family":
            return _cmd_family(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (GraphError, graph6.Graph6Error, generate.GenerateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
