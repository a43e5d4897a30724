"""Command-line surface.

Verbs: enumerate, verify, counterexamples, stone, regular-lattice,
cofinite-demo. Exit codes: 0 success / suite passed, 1 suite failures, 2
usage errors (an output path that cannot be written among them), 141
(128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import stat
import sys

from . import cofinite as cof
from .enumeration import EnumerationSpec, enumerate_topologies
from .errors import MalformedSpace, RegOpenError
from .lattice import ge_relation, regular_open_lattice, relation_pairs, well_inside
from .serialize import (
    canonical_json,
    lattice_to_dict,
    lattice_to_dot,
    space_from_dict,
    space_to_dict,
)
from .stone import stone_space
from .suites import SUITES, counterexample_search, run_suites
from .topology import Topology, discrete, indiscrete, sierpinski, x3

FIXTURES = {
    "sierpinski": sierpinski,
    "x3": x3,
}


def _load_space(token: str) -> Topology:
    m = re.fullmatch(r"(discrete|indiscrete):(\d+)", token)
    if m:
        maker = discrete if m.group(1) == "discrete" else indiscrete
        return maker(int(m.group(2)))
    if token in FIXTURES:
        return FIXTURES[token]()
    try:
        with open(token, encoding="utf-8") as fp:
            doc = json.load(fp)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise MalformedSpace(f"{token!r} is not a JSON space file: {exc}")
    except OSError:
        raise MalformedSpace(
            f"{token!r} is neither a fixture name "
            f"({', '.join(sorted(FIXTURES))}, discrete:N, indiscrete:N) nor a readable file"
        ) from None
    return space_from_dict(doc)


ALLOW_N5_HELP = "permit n = 5 and above, up to the size limit"


def _add_common(p: argparse.ArgumentParser, dot: bool = False):
    p.add_argument("--json", metavar="PATH", help="write JSON output to PATH")
    if dot:
        p.add_argument("--dot", metavar="PATH", help="write a Hasse-diagram DOT file to PATH")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="regopen",
        description="Regular-open lattices of finite spaces: compute, verify, search.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="enumerate topologies on n points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("all", "up-to-homeomorphism"), default="all")
    p.add_argument("--limit", type=int)
    p.add_argument("--allow-n5", action="store_true", help=ALLOW_N5_HELP)
    _add_common(p)

    p = sub.add_parser("verify", help="run a verification suite over the enumeration")
    p.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    p.add_argument("--n", type=int, default=3, help="ground-size bound (default 3)")
    p.add_argument("--seed", type=int, default=0, help="accepted for old command lines; no suite reads it")
    p.add_argument("--allow-n5", action="store_true", help=ALLOW_N5_HELP)
    _add_common(p)

    p = sub.add_parser("counterexamples", help="non-homeomorphic pairs with isomorphic lattices")
    p.add_argument("--n", type=int, default=3, help="maximum ground size (<= 4)")
    _add_common(p)

    p = sub.add_parser("stone", help="Stone space of the regular-open algebra of a space")
    p.add_argument("space", help="fixture name or path to a space JSON file")
    _add_common(p, dot=True)

    p = sub.add_parser("regular-lattice", help="regular-open lattice of a space")
    p.add_argument("space", help="fixture name or path to a space JSON file")
    _add_common(p, dot=True)

    p = sub.add_parser("cofinite-demo", help="walk the symbolic cofinite-topology computation")
    _add_common(p)
    return ap


def _cmd_enumerate(args) -> int:
    spec = EnumerationSpec(args.n, mode=args.mode, limit=args.limit, allow_n5=args.allow_n5)
    spaces = [space_to_dict(t) for t in enumerate_topologies(spec)]
    print(f"{len(spaces)} topologies on {args.n} points ({args.mode})")
    if args.json:
        args.json.write(canonical_json(spaces))
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.n, allow_n5=args.allow_n5)
    for report in reports:
        if report.passed:
            status = "pass"
        elif report.instances == 0:
            status = "FAIL (no instances checked)"
        else:
            status = f"FAIL ({len(report.failures)} failures)"
        print(f"{report.suite}: {status} [{report.instances} instances, {report.wall_time_s:.2f}s]")
    if args.json:
        payload = [r.to_dict() for r in reports]
        args.json.write(canonical_json(payload[0] if len(payload) == 1 else payload))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_counterexamples(args) -> int:
    pairs = counterexample_search(args.n)
    print(f"{len(pairs)} R-isomorphic non-homeomorphic pairs up to n = {args.n}")
    for p in pairs:
        tag = "same" if p.same_under_reported_iso else "DIFFERENT"
        print(
            f"  |R|={len(p.iso)}  "
            f"{p.t1!r}  ~  {p.t2!r}  [well-inside {tag} under reported iso]"
        )
    if args.json:
        args.json.write(canonical_json([p.to_dict() for p in pairs]))
    return 0


def _cmd_stone(args) -> int:
    t = _load_space(args.space)
    lat = regular_open_lattice(t)
    st = stone_space(lat)
    print(f"space: n={t.n}, {len(t.open_masks)} opens; regular opens: {lat.m}")
    print(f"atoms: {[sorted(lat.element(a)) for a in st.atoms]}")
    print(f"stone space: discrete on {st.space.n} points")
    for i in range(lat.m):
        print(f"  {sorted(lat.element(i))} -> clopen {sorted(st.to_clopen[i])}")
    if args.json:
        payload = {
            "space": space_to_dict(t),
            "stone_space": space_to_dict(st.space),
            "atoms": list(st.atoms),
            "to_clopen": [sorted(s) for s in st.to_clopen],
        }
        args.json.write(canonical_json(payload))
    if args.dot:
        args.dot.write(lattice_to_dot(regular_open_lattice(st.space), "clopen"))
    return 0


def _cmd_regular_lattice(args) -> int:
    t = _load_space(args.space)
    lat = regular_open_lattice(t)
    rel = well_inside(lat)
    print(f"space: n={t.n}, {len(t.open_masks)} opens")
    print(f"regular opens ({lat.m}):")
    atoms = lat.atoms()
    for i in range(lat.m):
        marks = []
        if i == lat.bottom:
            marks.append("bottom")
        if i == lat.top:
            marks.append("top")
        if i in atoms:
            marks.append("atom")
        suffix = f"  ({', '.join(marks)})" if marks else ""
        print(f"  [{i}] {sorted(lat.element(i))}{suffix}")
    print(f"well-inside pairs: {sorted(rel)}")
    print(f"ge pairs:          {sorted(relation_pairs(ge_relation(lat)))}")
    if args.json:
        args.json.write(canonical_json(lattice_to_dict(lat, rel)))
    if args.dot:
        args.dot.write(lattice_to_dot(lat))
    return 0


def _cmd_cofinite_demo(args) -> int:
    family, traces = cof.regular_opens()
    print("cofinite topology on an infinite symbolic ground set")
    print("opens are the empty set and the cofinite sets; sampling a few:")
    for tr in traces:
        verdict = "regular" if tr.regular else "not regular"
        print(
            f"  {tr.queried!r}: closure = {tr.closure!r}, "
            f"int(closure) = {tr.regularization!r}  -> {verdict}"
        )
    print(f"regular opens: {family[0]!r} and {family[1]!r} only")
    if args.json:
        payload = {
            "regular_opens": [s.to_dict() for s in family],
            "trace": [
                {
                    "queried": tr.queried.to_dict(),
                    "closure": tr.closure.to_dict(),
                    "regularization": tr.regularization.to_dict(),
                    "regular": tr.regular,
                }
                for tr in traces
            ],
        }
        args.json.write(canonical_json(payload))
    return 0


@contextlib.contextmanager
def _output(path: str):
    """A buffer for the output file at ``path``, written there only when the
    work ends without an exception.

    The file is opened at once, for appending so that nothing is truncated,
    and an output path that cannot be written is refused before the work
    starts. After a failed run an existing file is left as it was, and a
    file made here is removed.
    """
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8") as fp:
        buffer = io.StringIO()
        try:
            yield buffer
        except BaseException:
            if not existed:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise
        if stat.S_ISREG(os.fstat(fp.fileno()).st_mode):  # not a pipe or a device
            fp.truncate(0)
        fp.write(buffer.getvalue())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "counterexamples": _cmd_counterexamples,
        "stone": _cmd_stone,
        "regular-lattice": _cmd_regular_lattice,
        "cofinite-demo": _cmd_cofinite_demo,
    }
    try:
        # Output paths are opened before the work starts, so one that cannot
        # be written is refused at once, not after a long run.
        with contextlib.ExitStack() as outputs:
            for name in ("json", "dot"):
                path = getattr(args, name, None)
                if path:
                    setattr(args, name, outputs.enter_context(_output(path)))
            code = handlers[args.verb](args)
        sys.stdout.flush()
        return code
    except RegOpenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left; flushing stdout at exit must not raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
