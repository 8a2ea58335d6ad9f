"""Exit codes, output determinism and subcommand behaviour of the CLI."""

import pytest

from ggtlab import __version__, cli, groups, morse, spaces
from ggtlab.chains import HORIZON_CAP
from ggtlab.cli import main

COMMANDS = (
    "ball", "project", "htsum", "order", "pivot", "simulate", "progress", "bounded-proj",
    "tail", "morse", "incompat", "cone", "fibers", "separation", "crossratio", "check",
)
# the subcommands that write files, and so take --out
WRITERS = ("ball", "htsum", "simulate", "progress", "bounded-proj", "tail", "morse", "cone")
STOCHASTIC = ("simulate", "progress", "bounded-proj", "tail")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ball_example(capsys):
    code, out, _ = run(capsys, "ball", "--model", "F2", "--radius", "2")
    assert code == 0
    assert "17 elements" in out


def test_htsum_example(capsys):
    code, out, _ = run(
        capsys, "htsum", "--model", "F2", "--g", "a", "--o", "e", "--p", "b a^5 b", "--T", "4"
    )
    assert code == 0
    assert "sum over threshold-4 cosets = 5" in out
    assert '"cosetRep": "b"' in out


def test_order_subcommand(capsys):
    code, out, _ = run(
        capsys, "order", "--o", "e", "--p", "b a^4 b^2 a^4 b", "--T", "3"
    )
    assert code == 0 and "consistent" in out


def test_unknown_flag_is_validation_error(capsys):
    code, _, _ = run(capsys, "ball", "--radius", "2", "--bogus", "1")
    assert code == 1


def test_bad_model_is_validation_error(capsys):
    code, _, err = run(capsys, "ball", "--model", "Q8", "--radius", "2")
    assert code == 1 and "validation" in err


def test_seed_required_for_stochastic(capsys):
    code, _, err = run(capsys, "simulate", "--steps", "5")
    assert code == 1 and "seed" in err


def test_simulate_deterministic(capsys):
    code1, out1, _ = run(capsys, "simulate", "--steps", "8", "--seed", "3")
    code2, out2, _ = run(capsys, "simulate", "--steps", "8", "--seed", "3")
    assert code1 == code2 == 0 and out1 == out2


def test_progress_outputs_identical_files(tmp_path, capsys):
    args = [
        "progress", "--seed", "5", "--samples", "200", "--n", "20,40", "--C", "4",
    ]
    code1, _, _ = run(capsys, *args, "--out", str(tmp_path / "one"))
    code2, _, _ = run(capsys, *args, "--out", str(tmp_path / "two"))
    assert code1 == code2 == 0
    b1 = (tmp_path / "one" / "progress.csv").read_bytes()
    b2 = (tmp_path / "two" / "progress.csv").read_bytes()
    assert b1 == b2
    assert b"# config=" in b1 and b"seed=5" in b1


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = F2\nkernel = srw\nsamples = 100\nseed = 9\nn = 10\nC = 2\n")
    code, out, _ = run(capsys, "progress", "--config", str(cfg), "--samples", "150")
    assert code == 0 and "drift" in out


def test_pivot_subcommand(capsys):
    code, out, _ = run(capsys, "pivot", "--alpha", "a^8", "--h", "a", "--s", "3", "--bound", "2")
    assert code == 0 and "pass" in out


def test_pivot_on_a_free_product_with_a_rank_one_first_factor(capsys):
    # the default loxodromic pair of Z * Z^2 is x y and x^-1 y
    code, out, _ = run(capsys, "pivot", "--model", "Z * Z^2", "--alpha", "x y^2 x", "--h", "x y")
    assert code == 0 and "pass" in out


def test_morse_subcommand(capsys):
    code, out, _ = run(capsys, "morse", "--segment", "a^5", "--grid", "1,0", "--window", "3")
    assert code == 0 and "M(1,0) = 0" in out


def test_incompat_subcommand(capsys):
    code, out, _ = run(capsys, "incompat", "--flat-size", "6", "--tail", "8", "--L", "20")
    assert code == 0 and "margin" in out


def test_cone_subcommand(capsys):
    code, out, _ = run(capsys, "cone", "--model", "F2", "--radius", "3", "--cone", "a")
    assert code == 0 and "coned ball" in out


def test_fibers_subcommand(capsys):
    code, out, _ = run(capsys, "fibers", "--x", "x", "--y", "y t", "--radius", "4")
    assert code == 0 and "same product region" in out


def _pinned_stdout(capsys, jobs) -> str:
    import hashlib

    texts = []
    for argv in jobs:
        code, out, _ = run(capsys, *argv)
        texts.append(f"{code}\n{out}")
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def test_golden_fibers_and_incompat_stdout(capsys):
    # sha256 of the stdout, recorded before the Hausdorff sweep and the
    # detour search measured by distance rows; the outputs must not move
    fibers = [
        ("t x", "t^-1 t", "3", "4"), ("t^-1 z^-1", "y^-1 y z", "4", "2"),
        ("x^-1", "x^-1 t^-1", "3", "4"), ("t^-1 t", "x^-1", "4", "2"),
        ("x^-1", "z^-1", "3", "4"), ("z", "y^-1 x", "4", "2"),
        ("y", "t^-1 x^-1", "3", "4"), ("x t^-1 z", "y^-1 y^-1 t^-1", "4", "2"),
    ]
    incompat = [("3", "5", "8", "1"), ("3", "5", "8", "2"), ("4", "6", "12", "1"),
                ("5", "6", "16", "2"), ("6", "8", "20", "1")]
    assert _pinned_stdout(capsys, [
        ("fibers", "--x", x, "--y", y, "--radius", r, "--bound", b) for x, y, r, b in fibers
    ]) == "bec91ce476927d17b5864b7c9f319a1db6a6d1b96681c1d3b22b8a9dcefa175e"
    assert _pinned_stdout(capsys, [
        ("incompat", "--flat-size", f, "--tail", t, "--L", L, "--kappa", k) for f, t, L, k in incompat
    ]) == "f7d84f92e5077bd1f80d0f96653324607cb5f32428c90359ed93f1033d89e752"


def test_separation_subcommand(capsys):
    code, out, _ = run(
        capsys, "separation", "--model", "F2", "--x", "e", "--y", "a b a b", "--truncations", "4,6"
    )
    assert code == 0 and "bounded" in out


def test_separation_reads_points_in_the_model(capsys):
    # --x and --y are elements of F2 x Z; central letters move no point of the tree
    argv = ["separation", "--model", "F2 x Z", "--y", "a b", "--r", "0", "--s", "1", "--truncations", "4,6"]
    plain = run(capsys, *argv, "--x", "a")
    assert plain == (0, "profile ((4, 4), (6, 8)); verdict growing\n", "")
    assert run(capsys, *argv, "--x", "a t^2") == plain


def test_crossratio_subcommand(capsys):
    code, out, _ = run(capsys, "crossratio", "--a", "(a)", "--b", "a.(b)", "--c", "(b)", "--d", "b.(a)")
    assert code == 0 and "= 2" in out


def test_check_subcommand_passes(capsys):
    code, out, err = run(capsys, "check")
    assert code == 0 and err == ""
    assert "FAIL" not in out and out.endswith("all checks passed\n")


def test_certification_exit_code(capsys):
    # Bass-Serre enumeration is never certified: exit 2
    code, _, err = run(
        capsys,
        "htsum", "--model", "Z^2 * Z", "--space", "bass-serre",
        "--g", "x z", "--o", "e", "--p", "z x z", "--T", "2", "--window", "4",
    )
    assert code == 2 and "certification" in err


def _fail_coset_searches(monkeypatch):
    """Make building any ball or geodesic in `projections` fail the test."""
    import ggtlab.projections

    def fail(*args, **kwargs):
        raise AssertionError("a ball or geodesic was built for an uncertifiable search")

    monkeypatch.setattr(ggtlab.projections, "ball", fail)
    monkeypatch.setattr(ggtlab.projections, "geodesic", fail)


def test_certification_refused_before_enumerating(monkeypatch, capsys):
    _fail_coset_searches(monkeypatch)
    code, out, err = run(
        capsys,
        "htsum", "--model", "Z^2 * Z", "--space", "bass-serre",
        "--g", "x z", "--o", "e", "--p", "z x z", "--T", "2", "--window", "4",
    )
    assert code == 2 and out == ""
    assert err == "error: certification: enumeration window insufficient\n"
    # bad input is still a validation error, found before the refusal
    code, out, err = run(
        capsys,
        "htsum", "--model", "Z^2 * Z", "--space", "bass-serre",
        "--g", "x", "--o", "e", "--p", "z", "--T", "2",
    )
    assert code == 1 and out == "" and err.startswith("error: validation:")


@pytest.mark.parametrize(
    "flags",
    [
        ["--gap", "0"],
        ["--eps", "nan"],
        ["--eps", "-5"],
        ["--eps", "inf"],
        # 2 * gap = 32 > 3 * 40 // 4 = 30: no t has [t - gap, t + gap] on the curve
        ["--steps", "40", "--gap", "16"],
    ],
    ids=" ".join,
)
def test_tail_refused_before_walking(monkeypatch, capsys, flags):
    import ggtlab.experiments

    def fail(*args, **kwargs):
        raise AssertionError("tail_experiment called for a refused recursion check")

    monkeypatch.setattr(ggtlab.experiments, "tail_experiment", fail)
    code, out, err = run(capsys, "tail", "--seed", "1", "--samples", "50", *flags)
    assert code == 1 and out == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1


def test_order_refused_before_enumerating(monkeypatch, capsys):
    _fail_coset_searches(monkeypatch)
    bass_serre = ["--model", "Z^2 * Z", "--space", "bass-serre", "--g", "x z", "--o", "e"]
    for argv in (
        ["order", *bass_serre, "--p", "z x z", "--T", "2"],
        # a Cayley-tree search whose threshold is within the coset spacing
        ["order", "--g", "a b", "--o", "e", "--p", "b a^4 b", "--T", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: certification: enumeration window insufficient\n"
    code, out, err = run(capsys, "order", *bass_serre, "--p", "q", "--T", "2")
    assert code == 1 and out == "" and err.startswith("error: validation:")


def test_tail_refuses_an_uncertifiable_search_before_walking(monkeypatch, tmp_path, capsys):
    from ggtlab import chains, experiments

    def fail(*args, **kwargs):
        raise AssertionError("walks drawn for an uncertifiable coset search")

    monkeypatch.setattr(chains, "ensemble", fail)
    monkeypatch.setattr(experiments, "ensemble", fail)
    # root a b^2 spaces coset points 3 apart; T = 3 cannot certify the record
    config = tmp_path / "tail.cfg"
    config.write_text("g = a b^2\nT = 3\n")
    outdir = tmp_path / "out"
    code, out, err = run(capsys, "tail", "--config", str(config), "--seed", "6", "--samples", "10", "--out", str(outdir))
    assert (code, out, err) == (2, "", "error: certification: enumeration window insufficient\n")
    assert not outdir.exists()


def test_pivot_refused_before_its_path(monkeypatch, capsys):
    import ggtlab.cli

    def fail(*args, **kwargs):
        raise AssertionError("geodesic built for a model without a shipped loxodromic pair")

    monkeypatch.setattr(ggtlab.cli, "geodesic", fail)
    code, out, err = run(capsys, "pivot", "--model", "(Z^2 * Z) x Z", "--alpha", "x z", "--h", "x z")
    assert code == 1 and out == ""
    assert err == "error: validation: no default loxodromic pair shipped for (Z^2 * Z) x Z\n"


_PAST_CAP = str(HORIZON_CAP + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["progress", "--samples", "1", "--n", _PAST_CAP],
        ["simulate", "--steps", _PAST_CAP],
        ["tail", "--samples", "1", "--steps", _PAST_CAP],
    ],
    ids=lambda argv: argv[0],
)
def test_horizons_past_the_cap_refused_before_drawing(monkeypatch, tmp_path, capsys, argv):
    from ggtlab import chains

    def fail(*args, **kwargs):
        raise AssertionError("a generator was made for a refused horizon")

    monkeypatch.setattr(chains, "trajectory_rng", fail)
    outdir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--seed", "1", "--out", str(outdir))
    assert code == 1 and out == "" and not outdir.exists()
    assert err == f"error: validation: horizon must lie in [0, {HORIZON_CAP}], got {_PAST_CAP}\n"


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (["simulate", "--seed", "-1", "--steps", "3"], 1, "validation"),
        (["simulate", "--seed", "1", "--steps", "-3"], 1, "validation"),
        (["simulate", "--seed", "1", "--steps", "3", "--count", "-1"], 1, "validation"),
        (["progress", "--seed", "1", "--samples", "0"], 1, "validation"),
        (["progress", "--seed", "1", "--samples", "5", "--n", "0"], 1, "validation"),
        (["progress", "--seed", "1", "--samples", "5", "--n", "5", "--C", "0"], 1, "validation"),
        (["bounded-proj", "--seed", "1", "--samples", "0"], 1, "validation"),
        (["project", "--x", "a", "--axis-root", "e"], 1, "validation"),
        # the curve cannot cover [t - gap, t + gap] for the default gap 8
        (["tail", "--seed", "1", "--steps", "20", "--samples", "50"], 1, "validation"),
        # five samples leave no cell with the 10 successes the C' fit needs
        (["tail", "--seed", "1", "--samples", "5", "--steps", "40"], 2, "certification"),
        (["bounded-proj", "--seed", "1", "--samples", "5", "--bound", "nan"], 1, "validation"),
        (["bounded-proj", "--seed", "1", "--samples", "5", "--bound", "-1"], 1, "validation"),
        (["separation", "--x", "a^3", "--y", "b^3", "--r", "-1"], 1, "validation"),
        (["separation", "--x", "a^3", "--y", "b^3", "--s", "-2"], 1, "validation"),
        (["incompat", "--kappa", "-3"], 1, "validation"),
        # below 2 the search family is empty
        (["incompat", "--L", "-1"], 1, "validation"),
        (["incompat", "--L", "1"], 1, "validation"),
        # Fraction("1/0") raises ZeroDivisionError, which is no ValueError
        (["simulate", "--seed", "1", "--steps", "3", "--kernel", "lazy:1/0"], 1, "validation"),
        (["progress", "--seed", "1", "--samples", "5", "--kernel", "lazy:1/0"], 1, "validation"),
        # a laziness that is no number, or none at all
        (["simulate", "--seed", "1", "--steps", "3", "--kernel", "lazy:abc"], 1, "validation"),
        (["simulate", "--seed", "1", "--steps", "3", "--kernel", "lazy:"], 1, "validation"),
        # a laziness outside [0, 1): lazy:1 never moves, the others are no measure
        (["progress", "--seed", "1", "--samples", "5", "--kernel", "lazy:1"], 1, "validation"),
        (["simulate", "--seed", "1", "--steps", "3", "--kernel", "lazy:2"], 1, "validation"),
        (["simulate", "--seed", "1", "--steps", "3", "--kernel", "lazy:-1/2"], 1, "validation"),
        # no Hausdorff bound below 0 can hold
        (["fibers", "--x", "x", "--y", "y", "--bound", "-1"], 1, "validation"),
        (["pivot", "--alpha", "a^3", "--bound", "-1"], 1, "validation"),
        # a character that starts no token once made the descriptor parser loop
        (["ball", "--model", "F2.", "--radius", "1"], 1, "validation"),
        # each --space value names the other tree
        (["project", "--model", "Z^2 * Z", "--space", "cayley", "--x", "x", "--axis-root", "x z"], 1, "validation"),
        (["project", "--space", "bass-serre", "--x", "a", "--axis-root", "b"], 1, "validation"),
        # the top-level tree of F2 x Z is the Cayley tree of F2, where G x Z has no axes
        (["htsum", "--model", "F2 x Z", "--o", "e", "--p", "a b", "--T", "3"], 1, "validation"),
        (["order", "--model", "F2 x Z", "--o", "e", "--p", "a b", "--T", "3"], 1, "validation"),
        (["pivot", "--model", "F2 x Z", "--alpha", "a^3"], 1, "validation"),
        # Z^2 acts on no tree of the lab
        (["project", "--model", "Z^2", "--x", "x", "--axis-root", "y"], 1, "validation"),
        # infinite or nan cells once failed inside the window search
        (["morse", "--segment", "a^3", "--grid", "inf,0"], 1, "validation"),
        (["morse", "--segment", "a^3", "--grid", "1,inf"], 1, "validation"),
        (["morse", "--segment", "a^3", "--grid", "nan,0"], 1, "validation"),
        (["morse", "--segment", "a^3", "--grid", "1,0;1"], 1, "validation"),
        (["morse", "--segment", "a^3", "--grid", "1,0,2"], 1, "validation"),
        # a repeated checkpoint or divisor once printed its rows twice
        (["progress", "--seed", "1", "--samples", "5", "--n", "5,5"], 1, "validation"),
        (["progress", "--seed", "1", "--samples", "5", "--n", "5", "--C", "3,3"], 1, "validation"),
        # no pair of independent loxodromics is shipped for (Z^2 * Z) x Z
        (["pivot", "--model", "(Z^2 * Z) x Z", "--alpha", "x z", "--h", "x z"], 1, "validation"),
        # the crossing ray is a staircase in Z^2 * Z only
        (["incompat", "--model", "Z^2"], 1, "validation"),
        (["incompat", "--model", "Z"], 1, "validation"),
        (["incompat", "--model", "F2"], 1, "validation"),
        (["incompat", "--model", "F2 x Z"], 1, "validation"),
        (["incompat", "--model", "(Z^2 * Z) x Z"], 1, "validation"),
        # a huge power is refused before it is expanded
        (["simulate", "--seed", "1", "--steps", "3", "--start", "a^99999999999999999999"], 1, "validation"),
        (["ball", "--radius", "0", "--center", "a^300000000"], 1, "validation"),
        # rank 0 once ran through the generator name pool
        (["ball", "--model", "F0", "--radius", "1"], 1, "validation"),
        (["ball", "--model", "Z^0", "--radius", "1"], 1, "validation"),
        # a window of 0 holds only the segment, so no detour in it is a witness
        (["morse", "--segment", "a^3", "--window", "0"], 1, "validation"),
        (["morse", "--segment", "a^3", "--window", "-1"], 1, "validation"),
        # past the work budgets: 101^3 * |B(4)| > 10^7 and 1001^2 * |B(3)| > 5 * 10^5
        (["morse", "--segment", "a^100"], 1, "validation"),
        (["pivot", "--alpha", "a^1000"], 1, "validation"),
        # z x z^-1 fixes a vertex of the Bass-Serre tree: it has no axis
        (["project", "--model", "Z^2 * Z", "--x", "z", "--axis-root", "z x z^-1"], 1, "validation"),
    ],
)
def test_refused_inputs_write_nothing(tmp_path, capsys, argv, code, kind):
    outdir = tmp_path / "out"
    out_flag = ["--out", str(outdir)] if argv[0] in WRITERS else []
    got, out, err = run(capsys, *argv, *out_flag)
    assert got == code
    assert err.startswith(f"error: {kind}:") and err.count("\n") == 1
    assert out == "" and not outdir.exists()


@pytest.mark.parametrize("window", ["0", "-1"])
def test_morse_window_below_one_is_named(capsys, window):
    code, out, err = run(capsys, "morse", "--segment", "a^3", "--window", window)
    assert code == 1 and out == ""
    assert err == f"error: validation: the window must be >= 1, got {window}\n"


def test_morse_past_its_budget_builds_no_ball(monkeypatch, capsys):
    # |B(12)| of F2 is 1,062,881 and 4^3 times that passes the Morse budget,
    # which the ball's size tells before any ball is built
    def fail(*args):
        raise AssertionError("ball built for a refused window")

    monkeypatch.setattr(groups, "ball_letters", fail)
    monkeypatch.setattr(morse, "ball_letters", fail)
    code, out, err = run(capsys, "morse", "--segment", "a^3", "--window", "12")
    assert code == 1 and out == ""
    assert err == (
        "error: validation: a segment of 4 vertices in a window ball of 1062881 vertices is past the Morse budget\n"
    )


def test_cone_past_its_budget_builds_no_ball(monkeypatch, capsys):
    # |B(12)| of F2 is 1,062,881, past the 200,000 vertices a coned ball may
    # store, which the ball's size tells before any ball is built
    def fail(*args):
        raise AssertionError("ball built for a refused radius")

    monkeypatch.setattr(groups, "ball_letters", fail)
    monkeypatch.setattr(spaces, "ball_letters", fail)
    code, out, err = run(capsys, "cone", "--radius", "12", "--cone", "a")
    assert code == 1 and out == ""
    assert err == "error: validation: the radius-12 ball of F2 has 1062881 vertices, past the cone-off budget\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--radius", "30"],
        ["cone", "--radius", "30", "--cone", "a"],
        ["morse", "--segment", "a^3", "--window", "30"],
        ["pivot", "--alpha", "a^3", "--s", "30"],
        ["fibers", "--x", "x", "--y", "y", "--radius", "30"],
        ["separation", "--x", "a^3", "--y", "b^3", "--truncations", "4,30"],
    ],
)
def test_balls_past_the_vertex_budget_refused(monkeypatch, tmp_path, capsys, argv):
    # each command enumerates a ball past the budget: one line and exit 1,
    # not growing until memory runs out
    monkeypatch.setattr(groups, "BALL_VERTEX_BUDGET", 1000)
    outdir = tmp_path / "out"
    out_flag = ["--out", str(outdir)] if argv[0] in WRITERS else []
    code, out, err = run(capsys, *argv, *out_flag)
    assert code == 1
    assert err.startswith("error: validation:") and err.count("\n") == 1
    assert "more than 1000 vertices" in err
    assert out == "" and not outdir.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_config_and_out_only_where_read(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert code == 0 and err == ""
    assert ("--config" in out) == (command in STOCHASTIC)
    assert ("--out" in out) == (command in WRITERS)
    # each flag of the command's table entry has its own line
    lines = out.splitlines()
    for flag, _ in _table_flags(command):
        assert sum(line.split()[0] == flag for line in lines[2:]) == 1, flag


def test_space_defaults_to_the_top_level_tree(capsys):
    argv = ["project", "--model", "Z^2 * Z", "--x", "x z y", "--axis-root", "x z"]
    derived = run(capsys, *argv)
    assert derived[0] == 0 and derived == run(capsys, *argv, "--space", "bass-serre")
    assert run(capsys, "project", "--x", "b a", "--axis-root", "a") == run(
        capsys, "project", "--x", "b a", "--axis-root", "a", "--space", "cayley"
    )
    code, out, err = run(capsys, "project", "--model", "(Z^2 * Z) x Z", "--x", "x t z", "--axis-root", "x z")
    assert code == 0 and err == "" and "(scan-axis)" in out


def test_project_onto_the_axis_of_the_root(capsys):
    # the axis of a b a^-1 is the line of a<b>, which passes next to a b^5 a^-1;
    # a proper power names the axis of its root
    assert run(capsys, "project", "--x", "a b^5 a^-1", "--axis-root", "a b a^-1") == (
        0, "projection of [a b^5 a^-1] onto a<b>: [a b^5] at distance 1 (analytic)\n", ""
    )
    assert run(capsys, "project", "--x", "a^3 b", "--axis-root", "a^2") == (
        0, "projection of [a^3 b] onto e<a>: [a^3] at distance 1 (analytic)\n", ""
    )
    # on F2 x Z the axis lives in the Cayley tree of F2
    assert run(capsys, "project", "--model", "F2 x Z", "--x", "a b t", "--axis-root", "b a t^2") == (
        0, "projection of [a b t] onto e<a^-1 b^-1 t^-2>: [e] at distance 2 (scan-axis)\n", ""
    )


def test_golden_separation_stdout(capsys):
    # sha256 of the stdout, recorded while the subcommand chose its orbit map
    # by the model's name; F2 x Z reads the same Cayley tree of F2
    cases = [("e", "a b a b", "1", "2", "4,6"), ("a", "b a^-2 b", "0", "1", "3,5,7"),
             ("b", "a^2 b^-1 a", "1", "1", "3,5,7"), ("e", "a", "0", "1", "4,6,8")]
    assert _pinned_stdout(capsys, [
        ("separation", "--model", m, "--x", x, "--y", y, "--r", r, "--s", s, "--truncations", t)
        for m in ("F2", "F2 x Z") for x, y, r, s, t in cases
    ]) == "8b6c8ac91a0e469e88c5c67744e2cf9e13cd814e901efef324630be6ce08d040"


def test_progress_prints_no_slope_over_one_n(capsys):
    # only the n = 7 cells have 10 failures, so no failure-decay line can be fitted
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "progress", "--seed", "7000003", "--kernel", "srw", "--samples", "120",
            "--n", "7,30,64", "--C", "3,5",
        )
    assert code == 0 and err == ""
    assert "drift" in out and "slope" not in out


# sha256 of stdout (the output directory spelled OUT) followed by the written
# file, recorded before the walks of an experiment shared one generator; the
# seeds are none that the benchmark draws, and bounded-proj runs its default
# cells
_WALK_RUNS = {
    "progress": (["--samples", "300", "--n", "7,30,64,150", "--C", "3,5"], "progress.csv"),
    "tail": (["--samples", "200", "--steps", "100"], "tail.csv"),
    "bounded-proj": (["--samples", "10"], "bounded_proj.csv"),
    "simulate": (["--steps", "40", "--count", "3"], "trajectories.jsonl"),
}


@pytest.mark.parametrize(
    "command, kernel, seed, pin",
    [
        ("progress", "srw", 7_000_003, "f02943fe15fa54531c0881558d57a4dd15f9369ef76ce623d26e29ed1d25c62e"),
        ("tail", "srw", 7_000_003, "74ecaca57124dfb07c83e7cdcaf867e3ee72f7669cb078513a3f7396ec4b5f9e"),
        ("bounded-proj", "srw", 7_000_003, "0f207286111cf82dedbfb78b0887ecf0a1d45d3ebc420d423a1305416bc39502"),
        ("simulate", "srw", 7_000_003, "ae232bcc719d8272012ba3a4bf0237bb6301d6cb743d68addd2300b7f93c0893"),
        ("progress", "srw", 424_242_424_242, "d25f6e77e95e11d96cead1389a5d1480fe05591934ded759fe3ff119934fefdc"),
        ("tail", "srw", 424_242_424_242, "d212d0c93a36e9bf5c19f57f853348b0b67581ea2702afd3065c63de3f7d5272"),
        ("bounded-proj", "srw", 424_242_424_242, "2169fec832bc9539b637b97523a7b7b7e8a3acf94529e2aeb44154c774e25de6"),
        ("simulate", "srw", 424_242_424_242, "b5ddabd43357a0b88f9cd36b1f593199c0d6ee596e32a575b38d43be61e75e90"),
        ("progress", "srw", 2**63 - 1, "aa1a94873c551b92501ce432ffed6b65e4ab52da6695ef7b39c7d5cefe1e242b"),
        ("tail", "srw", 2**63 - 1, "5f0c0fbbedb00ca4a7c1684cb8954183c33817dfc9ae672fe102de8687a1581e"),
        ("bounded-proj", "srw", 2**63 - 1, "221bbc03bc7ef103ccff70fb94b9061802d65dc1211237ac4ad4e2d1516f13ff"),
        ("simulate", "srw", 2**63 - 1, "b23b0d640c9eec18fb863dbfdcbb5d41e273920293b18127aab2a6f6d4fa293f"),
        ("progress", "lazy:1/2", 7_000_003, "df04d427444efc463f6a181268ad7a5ff4202eb6e0f3eb3c84ed55b5d0f383ae"),
        ("tail", "lazy:1/2", 7_000_003, "637d21656a0c8d495e53cd014dbfa43ed4a8af2086f21b2bfcadb1771ed27a10"),
        ("bounded-proj", "lazy:1/2", 7_000_003, "176639558b3f4da147c7b3c6ab80028358fffffce5613df434cb9fcee3c94516"),
        ("simulate", "lazy:1/2", 7_000_003, "6c2dec808b6f205845364dbc5706b2a4055125e942e581b9b7609ec4f3809da0"),
        ("progress", "lazy:1/2", 424_242_424_242, "46e1ca44f6aa4ea0d7d3d97725c246afd9eac6e25e125cfd2c5cf0848df268de"),
        ("tail", "lazy:1/2", 424_242_424_242, "ed571e396a5fb8ce04a1d6ba7f193f21e74f345a2e26794ff185db88120db0b0"),
        ("bounded-proj", "lazy:1/2", 424_242_424_242, "ccc801b208cd0b3058755c22002dd47e89a4851208687c6db74436758133932b"),
        ("simulate", "lazy:1/2", 424_242_424_242, "8037a733a9b3e7752be54dbad2c707dfdd9bc1e399ceccb6de44fce6942de529"),
        ("progress", "lazy:1/2", 2**63 - 1, "e80a702c1a5e9f5f720ebff58a332e418e0840e4894351dc1302d6207980ff8e"),
        ("tail", "lazy:1/2", 2**63 - 1, "301938913361c82d1d908a57141f263c4037917438cfc15038707566236b4035"),
        ("bounded-proj", "lazy:1/2", 2**63 - 1, "97a607b4000d038322316cd1b37cc37065c6ea73dc8195cc7aed44fe292d4455"),
        ("simulate", "lazy:1/2", 2**63 - 1, "be331f98cefc4e6173ab4958aa3a6ec85c4186caef5a1397e4b976eff8742e52"),
    ],
)
def test_golden_walk_outputs(tmp_path, capsys, command, kernel, seed, pin):
    import hashlib

    flags, name = _WALK_RUNS[command]
    code, out, _ = run(capsys, command, "--seed", str(seed), "--kernel", kernel, *flags, "--out", str(tmp_path))
    assert code == 0
    text = out.replace(str(tmp_path), "OUT") + (tmp_path / name).read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == pin


# sha256 of the stdout of `simulate --count 3 --steps 60`, recorded before the
# branch swap relabelled letters through a table and before trajectories were
# spelled state from state (now `groups.spell_letters`, which adds or drops
# one run's part where a state adds or removes its last letter).  The srw
# rows are the word-product walks, whose consecutive states also change
# letters before their last one, so they take the speller's shared-prefix path.
@pytest.mark.parametrize(
    "model, kernel, start, seed, pin",
    [
        ("F2", "srw-branch-swap", "e", 7_000_003, "1ff54b4cc4606afe40bdc584ab38d35ebaa45230c78bc03c616aed877659ed26"),
        ("F2", "srw-branch-swap", "e", 2**63 - 1, "61d1d320fea5e2c0015da7718509ae2a056fe0d9d37b5c381772b057f028d1c7"),
        ("F2", "srw-branch-swap", "a b^-1", 7_000_003, "8c3f01928c2c7eaebba366cf296326cff71a4645a927bfa927b13db40e805da5"),
        ("F2", "srw-branch-swap", "a b^-1", 2**63 - 1, "2ca3fd55d6946555c22c7614f724ba7e44d6cda1e2ba97a83877fee77730d82a"),
        ("F3", "srw-branch-swap", "e", 7_000_003, "d8bc6f667e112b2cb58743785077bd8816618ac42d3b3b1e25273db7963bbef0"),
        ("F3", "srw-branch-swap", "e", 2**63 - 1, "b243bf7b7c65151c0662d51c898fe4b90f8f6f2b04d5c74b0b3b111666179800"),
        ("F3", "srw-branch-swap", "a b^-1", 7_000_003, "3bb8d252d9e7d69d7a547ce2eda204013abf2a56e6c2aebae1e9ab6f988805c7"),
        ("F3", "srw-branch-swap", "a b^-1", 2**63 - 1, "ebbe6d428bb0c53c47fc81225e4db7d8a46c38a8587242e830b83615084cb25f"),
        ("F2 x Z", "srw", "e", 7_000_003, "97236b2ef1b7c0fee91251c1a1657045280eba3b140023b9fd23b8a4f79e4926"),
        ("F2 x Z", "srw", "e", 2**63 - 1, "01d7311c18d4e56e0767e8a5ac4abfb77232d0b4e0e7fa4a6ce0c7667ee50438"),
        ("F2 x Z", "srw", "a t^-2", 7_000_003, "afd8fc88a8fc2a28adef209e4a1d2c33d39a4713e563a6bcee67a59525298264"),
        ("F2 x Z", "srw", "a t^-2", 2**63 - 1, "c8f65b637368cabecfad1d426e67f740b84a71431599c13eca89bca8d3dcc821"),
        ("Z^2 * Z", "srw", "e", 7_000_003, "bbd2ab761781bd5a1995a977aad6f9fc56f635c980a1e5b085e80b862b22882f"),
        ("Z^2 * Z", "srw", "e", 2**63 - 1, "87fd6e38254515a96bfd6f04ab974294d799460c353a0ff85d04e08594151e5f"),
        ("Z^2 * Z", "srw", "x^2 z y^-1", 7_000_003, "11b74c6e6cad8be3dfbdff67e03a957c0238f817b23577afacf8bafe97b3ca8e"),
        ("Z^2 * Z", "srw", "x^2 z y^-1", 2**63 - 1, "dbb8e71c4d92c5e25e56e5c39766668657d2a18b5ebe75ba1021ead7ae829747"),
        ("(Z^2 * Z) x Z", "srw", "e", 7_000_003, "abc9cccabc9220acc6bdba680e004503d826b6a8841eda8ef4fb7c88f78ffefe"),
        ("(Z^2 * Z) x Z", "srw", "e", 2**63 - 1, "4ca59e457a6837abc6d40a149da6ebabb0aefea1af9b1b1a4a16249a36e66b99"),
        ("(Z^2 * Z) x Z", "srw", "z x t", 7_000_003, "191a761bd8b176371d84d7d7bf583ac89d7ef51eb00d633e819c127d9391a08e"),
        ("(Z^2 * Z) x Z", "srw", "z x t", 2**63 - 1, "51ff8490e0627a06e78c3c062b5fec968093fb20c5f443534312fb0a3c6e691e"),
    ],
)
def test_golden_trajectories(capsys, model, kernel, start, seed, pin):
    import hashlib

    code, out, _ = run(
        capsys, "simulate", "--model", model, "--kernel", kernel, "--start", start,
        "--seed", str(seed), "--count", "3", "--steps", "60",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin


@pytest.mark.parametrize(
    "seed, pin",
    [
        (7_000_003, "d213965097ca32363d0f589b468771e81ccb6e3e6eca6b50ebdd811d5cecb5d2"),
        (2**63 - 1, "c358d8219a0867b57200e2dc58578212d8aad353316e9d7612ff217cd6ed7f3a"),
    ],
)
def test_golden_pushed_progress(capsys, seed, pin):
    # sha256 of the stdout, recorded with the trajectories above
    import hashlib

    code, out, _ = run(
        capsys, "progress", "--kernel", "srw-branch-swap", "--seed", str(seed),
        "--samples", "40", "--n", "10,20,40", "--C", "2,3",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin


_CHOICES = ", ".join(COMMANDS)


# the one validation line of each class of usage error, keyed by its argv
_USAGE_ERRORS = {
    "ball --radius 2 --bogus 1": "unrecognized arguments: --bogus 1",  # unknown flag
    "tail --seed 1 --g 3": "unrecognized arguments: --g 3",  # prefix of a flag
    "simulate --steps 5 --seed": "argument --seed: expected one argument",  # missing value
    "simulate --steps --seed 1": "argument --steps: expected one argument",  # a flag is no value
    "ball --radius x": "argument --radius: invalid int value: 'x'",
    "bounded-proj --seed 1 --bound two": "argument --bound: invalid float value: 'two'",
    "separation --model F3 --x a --y b": "argument --model: invalid choice: 'F3' (choose from F2, F2 x Z)",
    "order --o e": "the following arguments are required: --p, --T",
    "ball --radius 2 extra": "unrecognized arguments: extra",  # stray token
    "bogus": f"argument command: invalid choice: 'bogus' (choose from {_CHOICES})",
    "": "the following arguments are required: command",
    "ball --radius 2 --version": "unrecognized arguments: --version",  # --version after a command
}


@pytest.mark.parametrize(
    "argv", [[cmd, "--help"] for cmd in COMMANDS] + [line.split() for line in _USAGE_ERRORS], ids=" ".join
)
def test_subcommand_parser_matches_full_parser(capsys, argv):
    """Each argv stops in the parser, as it did under the argparse parser
    holding every subcommand that this test once compared against: help on
    stdout with exit 0, or exit 1 with one validation line and no stdout."""
    code, out, err = run(capsys, *argv)
    if argv[1:] == ["--help"]:
        assert (code, err) == (0, "") and out.startswith(f"usage: ggtlab {argv[0]} [-h]")
    else:
        assert (code, out, err) == (1, "", f"error: validation: {_USAGE_ERRORS[' '.join(argv)]}\n")


@pytest.mark.parametrize("value", ["3", "e"])
def test_flag_prefixes_are_not_abbreviations(capsys, value):
    # a prefix of --gap once set it silently
    code, out, err = run(capsys, "tail", "--seed", "1", "--g", value)
    assert (code, out, err) == (1, "", f"error: validation: unrecognized arguments: --g {value}\n")


def test_top_level_help_version_and_unknown_command(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert all(cmd in out for cmd in COMMANDS)
    assert run(capsys, "-h") == (code, out, err)
    assert run(capsys, "--version") == (0, f"ggtlab {__version__}\n", "")
    assert run(capsys, "bogus") == (1, "", f"error: validation: {_USAGE_ERRORS['bogus']}\n")
    assert run(capsys) == (1, "", f"error: validation: {_USAGE_ERRORS['']}\n")


def _parsed(monkeypatch, capsys, argv):
    """The flag values that `main(argv)` hands its command's handler."""
    handed = []
    _, help_text, stochastic, arguments = cli._COMMANDS[argv[0]]
    monkeypatch.setitem(cli._COMMANDS, argv[0], (lambda args: handed.append(vars(args)) or 0, help_text, stochastic, arguments))
    assert run(capsys, *argv) == (0, "", "")
    return handed.pop()


def _table_flags(command):
    _, _, stochastic, arguments = cli._COMMANDS[command]
    return [*(cli._SEEDED if stochastic else ()), *arguments]


@pytest.mark.parametrize("command", COMMANDS)
def test_absent_flags_read_their_table_defaults(monkeypatch, capsys, command):
    flags = _table_flags(command)
    given = {flag: "1" if "type" in spec else "e" for flag, spec in flags if spec.get("required")}
    got = _parsed(monkeypatch, capsys, [command, *(t for item in given.items() for t in item)])
    assert list(got) == [flag[2:].replace("-", "_") for flag, _ in flags]
    for flag, spec in flags:
        value = got[flag[2:].replace("-", "_")]
        assert value == (spec.get("type", str)(given[flag]) if flag in given else spec.get("default")), flag


def test_flag_value_forms_repeats_and_appends(monkeypatch, capsys):
    spaced = _parsed(monkeypatch, capsys, ["simulate", "--seed", "3", "--steps", "8", "--model", "F3"])
    assert spaced["seed"] == 3 and spaced["steps"] == 8 and spaced["model"] == "F3"
    assert _parsed(monkeypatch, capsys, ["simulate", "--seed=3", "--steps=8", "--model=F3"]) == spaced
    # the last of repeated values wins; a negative seed is a value, left to the seed check
    assert _parsed(monkeypatch, capsys, ["simulate", "--seed", "-1", "--steps", "8", "--model=F3", "--seed=3"]) == spaced
    assert _parsed(monkeypatch, capsys, ["cone", "--radius", "2", "--cone", "a", "--cone=b a"])["cone"] == ["a", "b a"]
    assert run(capsys, "ball", "--radius=2") == run(capsys, "ball", "--radius", "2")


def _written(path, data: bytes):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize(
    "flag, make",
    [
        ("--config", lambda tmp: tmp / "missing.cfg"),
        ("--config", lambda tmp: tmp),
        ("--config", lambda tmp: _written(tmp / "latin1.cfg", b"\xff\xfe")),
        ("--out", lambda tmp: tmp / "out.txt"),
        ("--out", lambda tmp: tmp / "out.txt" / "sub"),
    ],
    ids=["config-missing", "config-directory", "config-not-utf8", "out-a-file", "out-under-a-file"],
)
def test_unreadable_config_and_unwritable_out_are_validation_errors(tmp_path, capsys, flag, make):
    (tmp_path / "out.txt").write_text("kept\n")
    path = str(make(tmp_path))
    argv = ["simulate", "--seed", "1", "--steps", "3", flag, path]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: validation: cannot ") and f" {flag} {path}: " in err and err.count("\n") == 1
    assert (tmp_path / "out.txt").read_text() == "kept\n"


def test_cone_output_digest(capsys):
    # sha256 of the serialized coned ball, recorded before the graph moved
    # onto integer vertex ids: the neighbour order must not change
    import hashlib

    code, out, _ = run(capsys, "cone", "--model", "F2", "--radius", "3", "--cone", "a")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d350d2ad34ae69212c3bc2cc06b2e43e0cda783066b78aedade900c762380857"
    )


def test_every_package_error_maps_to_one_exit_code(monkeypatch, capsys):
    # every *Error of the package is a ValueError (exit 1) except the
    # certification failure, a RuntimeError (exit 2)
    import importlib
    import inspect
    import pkgutil

    import ggtlab
    import ggtlab.checks

    errors = {
        cls
        for info in pkgutil.iter_modules(ggtlab.__path__)
        for _, cls in inspect.getmembers(importlib.import_module(f"ggtlab.{info.name}"), inspect.isclass)
        if cls.__name__.endswith("Error") and cls.__module__.startswith("ggtlab.")
    }
    assert len(errors) >= 10
    for cls in sorted(errors, key=lambda c: c.__name__):
        certification = cls.__name__ == "CertificationError"
        assert issubclass(cls, RuntimeError if certification else ValueError), cls
        assert certification != issubclass(cls, ValueError), cls

        def fail(cls=cls):
            raise cls("probe")

        monkeypatch.setattr(ggtlab.checks, "run_all", fail)
        kind = "certification" if certification else "validation"
        assert run(capsys, "check") == (2 if certification else 1, "", f"error: {kind}: probe\n")
