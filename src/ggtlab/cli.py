"""Command-line front end.

One subcommand per capability; stochastic subcommands require a seed (from
--seed or the config file) and produce byte-identical outputs for identical
(config, seed).  Only stochastic subcommands take --config, and only those
that write files take --out.  Subcommands that work in a tree use the
model's top-level tree (`spaces.top_level_orbit`), read through its orbit
map; their --space flag may only name that tree (cayley for a free group
and its product with Z, bass-serre for a two-factor free product and its
product with Z).  separation reads --x and --y as elements of the model and
measures them in that tree.  A coset search (htsum, order) runs only where its
record is provably complete; `projections.enumerate_cosets` refuses any
other with exit 2 before it enumerates, and htsum's --window still parses
but has no effect.  project and pivot use the axis of an element
(`projections.axis_of`) moved by --axis-rep or --h-rep: --axis-root a^2
names <a>.  Exit codes: 0 success, 1 validation error, 2 certification
failure, 3 property-suite failure.

Parsing reads argv straight off the command table `_COMMANDS`, one pass per
call.  A flag is matched by its full name only (a prefix such as ``--g`` for
``--gap`` is an unrecognized argument) and takes its value as ``--flag value``
or ``--flag=value``; the last repeat wins, and ``--cone`` appends.  A token
starting with ``--`` is never a value, but ``--seed -1`` hands -1 on to the
seed check.  An absent flag reads its table default, under the flag's name
without ``--`` and with ``-`` turned into ``_``.  Every usage error (unknown
or missing flag, missing or ill-typed value, bad choice, stray token, unknown
command) is one ``error: validation:`` line with exit 1, as is a --config
that cannot be read or an --out that cannot be written.  ``-h``/``--help``
prints the table's help on stdout, and ``--version`` the version before a
command only; both exit 0.

Import rule: a CLI process is mostly start-up, so this module loads only
`groups`, `projections` and `spaces`, which the tree commands share.  Each
handler imports what it needs of `chains`, `experiments`, `boundary`, `hhs`,
`morse` and `checks` itself, when it runs; numpy loads with the first
function that draws or fits (see `chains`).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .groups import FreeGroup, FreeProduct, GroupError, ball, geodesic, model_from_descriptor, parse_word
from .projections import (
    CertificationError,
    axis_of,
    default_independent_loxodromics,
    distance_formula_sum,
    enumerate_cosets,
    linear_order,
    pivot,
    project_to_set,
)
from .spaces import (
    OrbitMap,
    SpaceError,
    cone_off,
    cyclic_coset_family,
    fibre_separation_profile,
    top_level_orbit,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CERTIFICATION = 2
EXIT_PROPERTY = 3


def _emit(args, name: str, text: str) -> None:
    if args.out:
        path = Path(args.out) / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


# each --space value names the kind of group whose tree it is
_SPACES = {"cayley": FreeGroup, "bass-serre": FreeProduct}


def _orbit(args) -> OrbitMap:
    """The model's top-level orbit map; an explicit --space must name its tree."""
    orbit = top_level_orbit(model_from_descriptor(args.model))
    if args.space is not None and not isinstance(orbit.tree, _SPACES[args.space]):
        raise SpaceError(f"--space {args.space} is not the top-level tree of {args.model}")
    return orbit


def _load_config(args) -> ExperimentConfig:
    from .experiments import parse_config

    given = {"model": args.model, "kernel": args.kernel, "samples": getattr(args, "samples", None), "seed": args.seed}
    overrides = {attr: val for attr, val in given.items() if val is not None}
    if getattr(args, "n", None):
        overrides["n_grid"] = tuple(int(x) for x in args.n.split(","))
    if getattr(args, "C", None):
        overrides["c_grid"] = tuple(float(x) for x in args.C.split(","))
    if getattr(args, "T", None) is not None:
        overrides["threshold"] = args.T
    if not args.config:
        return parse_config("", **overrides)
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read --config {args.config}: {getattr(exc, 'strerror', None) or exc}") from None
    return parse_config(text, **overrides)


# --- subcommand handlers -----------------------------------------------------


def cmd_ball(args) -> int:
    model = model_from_descriptor(args.model)
    center = parse_word(model, args.center)
    elems = ball(model, center, args.radius)
    lines = [str(w) for w in elems]
    _emit(args, "ball.txt", f"# ggtlab {__version__}\n" + "\n".join(lines) + f"\n# count={len(elems)}\n")
    print(f"{len(elems)} elements")
    return EXIT_OK


def cmd_project(args) -> int:
    orbit = _orbit(args)
    model = orbit.group
    ax = axis_of(parse_word(model, args.axis_root)).translate(parse_word(model, args.axis_rep))
    val = project_to_set(orbit, parse_word(model, args.x), ax)
    pts = " ".join(f"[{p}]" for p in val.points)
    print(f"projection of [{args.x}] onto {ax}: {pts} at distance {val.distance} ({val.method})")
    return EXIT_OK


def _search_orbit(args) -> OrbitMap:
    """The top-level orbit map of a coset search (htsum, order, pivot).

    On G x Z the axes of g live in a Bass-Serre tree only; with G free the
    top-level tree is G's Cayley tree, so the search is refused up front."""
    orbit = _orbit(args)
    if isinstance(orbit.tree, FreeGroup) and not orbit.is_identity:
        raise SpaceError(
            f"coset searches on {orbit.group.describe()} need a Bass-Serre top-level tree; "
            f"its top-level tree is the Cayley tree of {orbit.tree.describe()}"
        )
    return orbit


def _coset_record(args):
    """The threshold-coset record of an htsum or order search; `enumerate_cosets`
    refuses one it cannot certify before it enumerates."""
    orbit = _search_orbit(args)
    g, o, p = (parse_word(orbit.group, t) for t in (args.g, args.o, args.p))
    return enumerate_cosets(orbit, g, o, p, args.T)


def cmd_htsum(args) -> int:
    record = _coset_record(args)
    total = distance_formula_sum(record, record.o, record.p)
    _emit(args, "htsum.jsonl", record.to_jsonl())
    print(f"{len(record.entries)} coset(s); sum over threshold-{args.T} cosets = {total}")
    return EXIT_OK


def cmd_order(args) -> int:
    entries, report = linear_order(_coset_record(args))
    for i, e in enumerate(entries):
        print(f"{i}: {e.axis} value={e.value} position={e.position}")
    state = "consistent" if report.consistent else f"{len(report.disagreements)} disagreement(s)"
    print(f"order criteria: {state} over {report.pairs} pair(s)")
    return EXIT_OK


def cmd_pivot(args) -> int:
    orbit = _search_orbit(args)
    model = orbit.group
    default_independent_loxodromics(model)  # refuses a model without a shipped pair, before any set-up
    target = parse_word(model, args.alpha)
    path = geodesic(model, model.identity(), target)
    h_axis = axis_of(parse_word(model, args.h)).translate(parse_word(model, args.h_rep))
    res = pivot(orbit, path, target, h_axis, args.s, bound=args.bound)
    verdict = "pass" if res.passed else "no pivot within bound (best shown)"
    print(f"pivot: q' = [{res.pivot}] values={res.values} {verdict} (examined {res.examined})")
    return EXIT_OK if res.passed else EXIT_CERTIFICATION


def cmd_simulate(args) -> int:
    from .chains import simulate
    from .experiments import ExperimentError, resolve_kernel

    if args.steps < 0 or args.count < 1:
        raise ExperimentError(f"need --steps >= 0 and --count >= 1, got {args.steps} and {args.count}")
    cfg = _load_config(args)
    seed = cfg.require_seed()
    model = model_from_descriptor(cfg.model)
    kernel = resolve_kernel(model, cfg.kernel)
    start = parse_word(model, args.start)
    lines = [traj.to_json() for traj in simulate(kernel, start, args.steps, seed, range(args.count))]
    _emit(args, "trajectories.jsonl", "\n".join(lines) + "\n")
    print(f"{args.count} trajectorie(s) of {args.steps} step(s), seed {seed}")
    return EXIT_OK


def cmd_progress(args) -> int:
    from .experiments import linear_progress_experiment

    cfg = _load_config(args)
    res = linear_progress_experiment(cfg)
    _emit(args, "progress.csv", res.csv())
    for n, drift in res.drifts:
        print(f"n={n}: drift {drift:.4f}")
    if res.fit is not None:
        slope, r_squared = res.fit
        print(f"failure decay slope {slope:.4f} (R^2 {r_squared:.3f})")
    return EXIT_OK


def cmd_bounded_proj(args) -> int:
    from .experiments import bounded_projection_experiment

    cfg = _load_config(args)
    res = bounded_projection_experiment(cfg, bound=args.bound)
    _emit(args, "bounded_proj.csv", res.csv())
    print(f"minimum cell probability: {res.min_probability:.4f}")
    return EXIT_OK


def cmd_tail(args) -> int:
    from .experiments import check_recursion_inputs, recursion_check, tail_experiment

    cfg = _load_config(args)
    model = model_from_descriptor(cfg.model)
    o = parse_word(model, args.o) if args.o else None
    p = parse_word(model, args.p) if args.p else None
    check_recursion_inputs(args.steps, args.gap, args.eps)
    curve = tail_experiment(cfg, o=o, p=p, n=args.steps)
    rep = recursion_check(curve, gap=args.gap, eps=args.eps)
    if curve.c_prime is None:
        raise CertificationError("no tail cell has the 10 successes a C' fit needs")
    _emit(args, "tail.csv", curve.csv())
    print(
        f"C' = {curve.c_prime:.3f}; envelope {'holds' if curve.envelope_ok() else 'FAILS'}; "
        f"recursion pass fraction {rep.pass_fraction:.2f}"
    )
    return EXIT_OK


def cmd_morse(args) -> int:
    from .morse import morse_certificate

    model = model_from_descriptor(args.model)
    target = parse_word(model, args.segment)
    seg = geodesic(model, model.identity(), target)
    grid = []
    for cell in args.grid.split(";"):
        try:
            lam, eps = map(float, cell.split(","))
        except ValueError:
            raise GroupError(f"--grid cell {cell!r} is not two numbers lam,eps") from None
        grid.append((lam, eps))
    cert = morse_certificate(model, seg, grid, args.window)
    _emit(args, "morse.csv", cert.to_csv())
    for (lam, eps), cell in sorted(cert.cells.items()):
        print(f"M({lam:g},{eps:g}) = {cell.max_detour} [{cell.status}]")
    return EXIT_OK


def cmd_incompat(args) -> int:
    from .morse import diagonal_crossing_ray, incompatibility_witness, tree_gauge

    model = model_from_descriptor(args.model)
    beta = diagonal_crossing_ray(model, flat_size=args.flat_size, tail=args.tail)
    wit = incompatibility_witness(model, beta, tree_gauge, kappa=args.kappa, prefix_bound=args.L)
    if wit is None:
        print("no witness within the search family (inconclusive)")
        return EXIT_OK
    print(
        f"witness: point [{wit.point}] margin {wit.margin} on a path of {len(wit.mu) - 1} step(s)"
    )
    return EXIT_OK


def cmd_cone(args) -> int:
    model = model_from_descriptor(args.model)
    families = []
    for root in args.cone or []:
        families.append(cyclic_coset_family(model, parse_word(model, root)))
    graph = cone_off(model, args.radius, families)
    text = graph.serialize() if len(graph) <= args.serialize_limit else ""
    if text:
        _emit(args, "cone.adj", text)
    print(f"coned ball: {len(graph)} vertices, {len(graph.cliques)} coned coset(s)")
    return EXIT_OK


def cmd_fibers(args) -> int:
    from .hhs import (
        coning_schedule,
        factored_ball,
        fiber_parallelism_check,
        product_free_regions,
        product_free_skeleton,
    )

    if not 0 <= args.bound < math.inf:
        raise GroupError(f"--bound must be a finite number >= 0, got {args.bound}")
    model = model_from_descriptor(args.model)
    sched = coning_schedule(product_free_skeleton())
    regions = product_free_regions(model)
    fb = factored_ball(model, args.radius, sched, sched.termination_round, regions)
    res = fiber_parallelism_check(
        model, fb, parse_word(model, args.x), parse_word(model, args.y), args.bound, regions
    )
    print(f"verdict: {res.verdict}; hausdorff sweep {res.hausdorff_sweep}")
    return EXIT_OK


def cmd_separation(args) -> int:
    orbit = top_level_orbit(model_from_descriptor(args.model))
    x, y = (parse_word(orbit.group, t) for t in (args.x, args.y))
    truncs = [int(t) for t in args.truncations.split(",")]
    prof = fibre_separation_profile(orbit, x, y, args.r, args.s, truncs)
    print(f"profile {prof.pairs}; verdict {prof.verdict}")
    return EXIT_OK


def cmd_crossratio(args) -> int:
    from .boundary import cross_ratio, parse_boundary_point

    model = model_from_descriptor(args.model)
    pts = [parse_boundary_point(model, t) for t in (args.a, args.b, args.c, args.d)]
    value = cross_ratio(model, *pts)
    print(f"[{args.a}, {args.b}, {args.c}, {args.d}] = {value}")
    return EXIT_OK


def cmd_check(args) -> int:
    from .checks import run_all

    failures = run_all()
    if failures:
        print(f"{failures} check(s) FAILED")
        return EXIT_PROPERTY
    print("all checks passed")
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


_MODEL = ("--model", {"default": "F2"})
_SPACE = ("--space", {"default": None, "choices": list(_SPACES), "help": "the model's top-level tree (default)"})
_OUT = ("--out", {"help": "output directory"})
_EXPERIMENT = (("--model", {"default": None}), ("--kernel", {"default": None}))
_SAMPLES = ("--samples", {"type": int, "default": None})

# name -> (handler, help, stochastic: takes --config and --seed, arguments after those)
_COMMANDS = {
    "ball": (cmd_ball, "enumerate a metric ball", False, (
        _OUT,
        _MODEL,
        ("--center", {"default": "e"}),
        ("--radius", {"type": int, "required": True}),
    )),
    "project": (cmd_project, "nearest-point projection onto an axis", False, (
        _MODEL,
        _SPACE,
        ("--x", {"required": True}),
        ("--axis-root", {"required": True}),
        ("--axis-rep", {"default": "e"}),
    )),
    "htsum": (cmd_htsum, "threshold cosets and their distance sum", False, (
        _OUT,
        _MODEL,
        _SPACE,
        ("--g", {"default": "a"}),
        ("--o", {"required": True}),
        ("--p", {"required": True}),
        ("--T", {"type": int, "required": True}),
        # parsed and unread: exact-geometry benchmark jobs still pass it
        ("--window", {"type": int, "default": None, "help": "no effect: a search is complete or refused"}),
    )),
    "order": (cmd_order, "linear order of threshold cosets", False, (
        _MODEL,
        _SPACE,
        ("--g", {"default": "a"}),
        ("--o", {"required": True}),
        ("--p", {"required": True}),
        ("--T", {"type": int, "required": True}),
    )),
    "pivot": (cmd_pivot, "search a pivot uncoupling a path from an axis", False, (
        _MODEL,
        _SPACE,
        ("--alpha", {"required": True, "help": "path target (path from e)"}),
        ("--h", {"default": "a", "help": "axis generator"}),
        ("--h-rep", {"default": "e", "help": "axis translate"}),
        ("--s", {"type": int, "default": 3}),
        ("--bound", {"type": int, "default": 4}),
    )),
    "simulate": (cmd_simulate, "sample seeded trajectories", True, (
        _OUT,
        *_EXPERIMENT,
        ("--start", {"default": "e"}),
        ("--steps", {"type": int, "required": True}),
        ("--count", {"type": int, "default": 1}),
    )),
    "progress": (cmd_progress, "linear-progress experiment", True, (
        _OUT,
        *_EXPERIMENT,
        _SAMPLES,
        ("--n", {"default": None, "help": "comma-separated checkpoints"}),
        ("--C", {"default": None, "help": "comma-separated divisors"}),
    )),
    "bounded-proj": (cmd_bounded_proj, "bounded-projection probability experiment", True, (
        _OUT,
        *_EXPERIMENT,
        _SAMPLES,
        ("--bound", {"type": float, "default": 2.0}),
    )),
    "tail": (cmd_tail, "tail-curve experiment with recursion check", True, (
        _OUT,
        *_EXPERIMENT,
        _SAMPLES,
        ("--T", {"type": int, "default": None}),
        ("--o", {"default": None}),
        ("--p", {"default": None}),
        ("--steps", {"type": int, "default": 200}),
        ("--gap", {"type": int, "default": 8}),
        ("--eps", {"type": float, "default": 0.2}),
    )),
    "morse": (cmd_morse, "windowed Morse certificate", False, (
        _OUT,
        _MODEL,
        ("--segment", {"required": True, "help": "segment target word"}),
        ("--grid", {"default": "1,0;1,2;2,2"}),
        ("--window", {"type": int, "default": 4}),
    )),
    "incompat": (cmd_incompat, "incompatibility witness for the crossing ray", False, (
        ("--model", {"default": "Z^2 * Z"}),
        ("--flat-size", {"type": int, "default": 6}),
        ("--tail", {"type": int, "default": 12}),
        ("--kappa", {"type": int, "default": 1}),
        ("--L", {"type": int, "default": 24}),
    )),
    "cone": (cmd_cone, "coned-off metric ball", False, (
        _OUT,
        _MODEL,
        ("--radius", {"type": int, "required": True}),
        ("--cone", {"action": "append", "help": "root whose cosets get coned (repeatable)"}),
        ("--serialize-limit", {"type": int, "default": 3000}),
    )),
    "fibers": (cmd_fibers, "fibre parallelism verdict in the factored ball", False, (
        ("--model", {"default": "(Z^2 * Z) x Z"}),
        ("--radius", {"type": int, "default": 4}),
        ("--x", {"required": True}),
        ("--y", {"required": True}),
        ("--bound", {"type": int, "default": 4}),
    )),
    "separation": (cmd_separation, "fibre separation profile", False, (
        ("--model", {"default": "F2", "choices": ["F2", "F2 x Z"]}),
        ("--x", {"required": True}),
        ("--y", {"required": True}),
        ("--r", {"type": int, "default": 1}),
        ("--s", {"type": int, "default": 2}),
        ("--truncations", {"default": "4,6,8"}),
    )),
    "crossratio": (cmd_crossratio, "cross-ratio of four tree ends", False, (
        _MODEL,
        ("--a", {"required": True}),
        ("--b", {"required": True}),
        ("--c", {"required": True}),
        ("--d", {"required": True}),
    )),
    "check": (cmd_check, "run the fast property-check suite", False, ()),
}


_SEEDED = (
    ("--config", {"help": "plain-text key=value config file"}),
    ("--seed", {"type": int, "default": None, "help": "mandatory for stochastic runs"}),
)
_HELP = ("-h", "--help")


def _flags(command: str) -> dict[str, dict]:
    """The flags of a command and their specs, in table order."""
    _, _, stochastic, arguments = _COMMANDS[command]
    return dict((_SEEDED if stochastic else ()) + arguments)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _help(command: str | None) -> str:
    if command is None:
        width = max(map(len, _COMMANDS))
        return "\n".join([
            "usage: ggtlab [-h] [--version] COMMAND [--flag value ...]",
            "exact group metrics, tree projections, coset sums and seeded chain experiments",
            *(f"  {name:<{width}}  {entry[1]}" for name, entry in _COMMANDS.items()),
        ])
    flags = _flags(command)
    shown = {
        flag: f"{flag} " + ("{" + ",".join(spec["choices"]) + "}" if "choices" in spec else _dest(flag).upper())
        for flag, spec in flags.items()
    }
    usage = (text if flags[flag].get("required") else f"[{text}]" for flag, text in shown.items())
    width = max(map(len, shown.values()), default=0)
    lines = [" ".join(["usage: ggtlab", command, "[-h]", *usage]), _COMMANDS[command][1]]
    for flag, spec in flags.items():
        notes = [spec.get("help", "")]
        if spec.get("required"):
            notes.append("(required)")
        elif spec.get("default") is not None:
            notes.append(f"(default: {spec['default']})")
        lines.append(f"  {shown[flag]:<{width}}  {' '.join(filter(None, notes))}".rstrip())
    return "\n".join(lines)


def _parse(argv: list[str]):
    """The handler of argv's command and its flag values, or None once help
    or the version is printed; a usage error raises ValueError."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    command, *rest = argv
    if command in _HELP:
        print(_help(None))
        return None
    if command == "--version":
        print(f"ggtlab {__version__}")
        return None
    if command not in _COMMANDS:
        raise ValueError(f"argument command: invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    flags = _flags(command)
    values = {_dest(flag): spec.get("default") for flag, spec in flags.items()}
    given, stray = set(), []
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            print(_help(command))
            return None
        flag, explicit, value = token.partition("=")
        spec = flags.get(flag)
        if spec is None:
            stray.append(token)
            continue
        if not explicit:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"argument {flag}: expected one argument")
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                raise ValueError(f"argument {flag}: invalid {spec['type'].__name__} value: {value!r}") from None
        if "choices" in spec and value not in spec["choices"]:
            raise ValueError(f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(spec['choices'])})")
        dest = _dest(flag)
        values[dest] = [*(values[dest] or ()), value] if spec.get("action") == "append" else value
        given.add(flag)
    missing = [flag for flag, spec in flags.items() if spec.get("required") and flag not in given]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if stray:
        raise ValueError(f"unrecognized arguments: {' '.join(stray)}")
    return _COMMANDS[command][0], SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parsed = _parse(argv)
        if parsed is None:
            return EXIT_OK
        handler, args = parsed
        return handler(args)
    except CertificationError as exc:
        print(f"error: certification: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except ValueError as exc:  # every validation error of the package is one, usage errors too
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
