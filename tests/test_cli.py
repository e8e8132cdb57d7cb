import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from rankgradient import __version__
from rankgradient.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    PRIME_CHECK_BOUND,
    build_parser,
    is_prime,
    main,
)
from rankgradient.towers import BASE_POINT_CAP


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_cli_import_loads_no_heavy_stdlib_modules():
    # -S skips site, whose .pth files may import some of these themselves
    heavy = ("dataclasses", "inspect", "hashlib", "_hashlib", "tempfile", "importlib.resources")
    code = f"import sys, rankgradient.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    ).stdout
    assert out.strip() == "[]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lowindex_f2(capsys):
    code, out, _ = run(capsys, "lowindex", "--preset", "f2", "--max", "4")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["version"] == __version__
    assert obj["config"]["command"] == "lowindex"
    assert obj["report"]["counts"] == {"1": 1, "2": 3, "3": 13, "4": 71}


def test_lowindex_csv(capsys):
    code, out, _ = run(capsys, "lowindex", "--preset", "f2", "--max", "3",
                       "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# rankgradient")
    assert lines[2] == "index,count"
    assert lines[3:] == ["1,1", "2,3", "3,13"]


def test_chain_fig8(capsys):
    code, out, _ = run(capsys, "chain", "--preset", "fig8", "--depth", "4")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["report"]["chain"]["indices"] == [1, 1, 2, 3, 4]
    for lv in obj["report"]["levels"]:
        assert lv["rank_upper"] <= 3


def test_chain_block_keeps_the_provenance(capsys):
    code, out, _ = run(capsys, "chain", "--preset", "fig8", "--depth", "2")
    assert code == EXIT_OK
    # the provenance string sits in the chain block beside the structure
    assert isinstance(json.loads(out)["report"]["chain"]["provenance"], str)


def test_gradient_is_not_a_command(capsys):
    # chain prints the gradient report; there is no second front end for it
    with mock.patch("rankgradient.cli.load_source") as load:
        with pytest.raises(SystemExit) as exc:
            main(["gradient", "--preset", "fig8", "--depth", "1"])
    assert exc.value.code == EXIT_PARSE
    assert not load.called
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'gradient'" in captured.err
    assert "Traceback" not in captured.err


def test_chain_farber_inferred_from_sole_sub(capsys):
    code, out, _ = run(capsys, "chain", "--preset", "f2", "--depth", "2")
    assert code == EXIT_OK
    indices = json.loads(out)["report"]["chain"]["indices"]
    assert indices[0] == 1
    assert indices[1] == 16


def test_tower_text(capsys):
    code, out, _ = run(capsys, "tower", "--group", "s3", "--mu", "3/4",
                       "--depth", "1", "--format", "text")
    assert code == EXIT_OK
    assert "limits: d 11/9" in out


def test_graphing(capsys):
    code, out, _ = run(
        capsys, "graphing", "--preset", "fig8", "--depth", "3", "--level", "3",
    )
    assert code == EXIT_OK
    obj = json.loads(out)["report"]
    assert obj["index"] == 3
    assert obj["rank_bound"] >= 1


def test_graphing_on_a_normal_closure_level(capsys):
    # f2's level 1 is the normal closure K of index 16; the seed is the
    # Schreier generators of its table, 1 + 16 of them in a free group
    code, out, err = run(capsys, "graphing", "--preset", "f2", "--depth", "2",
                         "--level", "1", "--format", "text")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == "level 1: index 16, edge measure 2/1, rank bound 17"


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--preset", "s3")
    assert code == EXIT_OK
    obj = json.loads(out)["report"]
    assert obj["generators"] == ["a", "b"]


def test_enumerate_with_cache(capsys, tmp_path):
    args = ("enumerate", "--preset", "f2", "--sub", "K",
            "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, *args)
    assert code == EXIT_OK
    first = json.loads(out)["report"]
    assert first["index"] == 16
    assert first["cache"] == {"hits": 0, "misses": 1, "enabled": True}
    code, out, _ = run(capsys, *args)
    assert json.loads(out)["report"]["cache"]["hits"] == 1


def test_exit_code_parse(capsys):
    code, _, err = run(capsys, "enumerate", "--preset", "f2", "--sub", "nope")
    assert code == EXIT_PARSE
    assert "nope" in err


def test_exit_code_io(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--input", str(tmp_path / "missing.txt"))
    assert code == EXIT_IO


def test_exit_code_budget(capsys):
    code, _, err = run(capsys, "tower", "--group", "z2z2", "--mu", "0",
                       "--depth", "1", "--scale", "1")
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_deep_tower_exits_3_naming_the_coset_cap(capsys):
    # every layout's level 6 would pass the coset cap, which is found
    # before any twist search is set up
    with mock.patch("rankgradient.towers._TwistSearch", side_effect=AssertionError):
        code, out, err = run(capsys, "tower", "--group", "s3", "--mu", "3/4", "--depth", "6")
    assert code == EXIT_BUDGET
    assert out == ""
    assert "layout (8, 3): level 6 would pass coset cap 100000" in err
    assert "Traceback" not in err


def test_graphing_honours_coset_cap(capsys):
    code, out, err = run(capsys, "graphing", "--preset", "fig8", "--depth", "3",
                         "--level", "3", "--coset-cap", "2")
    assert code == EXIT_BUDGET
    assert out == ""
    assert "exceeded 2 live cosets" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gens, rank", [("a,t^3", 6), ("a,b", 6), ("t^3", 5)])
def test_graphing_rejects_non_generating_gens(capsys, gens, rank):
    # each set fixes the base coset but does not generate the level, which
    # the homology screen sees before any coset enumeration could trip its cap
    code, out, err = run(capsys, "graphing", "--preset", "fig8", "--depth", "3",
                         "--level", "3", "--gens", gens)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: not a verified L-graphing: ")
    assert f"rank {rank} over F_2, the cycle space has rank 7" in err
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from([
        ("--preset", "s3"), ("--preset", "z2z2"), ("--preset", "f2", "--sub", "K"),
    ]),
    cap=st.integers(min_value=1, max_value=40),
)
def test_enumerate_cap_exits_0_or_3_and_names_the_cap(source, cap):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["enumerate", *source, "--coset-cap", str(cap)])
    assert code in (EXIT_OK, EXIT_BUDGET)
    if code == EXIT_BUDGET:
        assert out.getvalue() == ""
        assert f"exceeded {cap} live cosets" in err.getvalue()
    else:
        assert json.loads(out.getvalue())["report"]["index"] <= cap
    assert "Traceback" not in err.getvalue()


LOWINDEX_COUNTS = {}  # (preset, max) -> report at the default node cap


def run_main(*argv):
    """(exit code, stdout, stderr) of an in-process run, without capsys,
    which hypothesis tests cannot share between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def lowindex_run(preset, n_max):
    return run_main("lowindex", "--preset", preset, "--max", str(n_max))


@settings(max_examples=30, deadline=None)
@given(
    source=st.sampled_from([("surface2", 3), ("surface2", 4), ("f2", 3), ("f2", 4)]),
    cap=st.integers(min_value=1, max_value=150_000),
)
def test_lowindex_cap_exits_0_or_3_and_names_the_cap(source, cap):
    import rankgradient.cosets as cosets

    if source not in LOWINDEX_COUNTS:
        code, out, _ = lowindex_run(*source)
        assert code == EXIT_OK
        LOWINDEX_COUNTS[source] = json.loads(out)["report"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cosets, "DEFAULT_NODE_CAP", cap)
        code, out, err = lowindex_run(*source)
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_BUDGET)
    if code == EXIT_BUDGET:
        assert out == ""
        assert f"exceeded {cap} nodes" in err
    else:
        assert json.loads(out)["report"] == LOWINDEX_COUNTS[source]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["chain"])
@pytest.mark.parametrize("source", [
    ("--preset", "fig8", "--depth", "3", "--coset-cap", "2"),
    ("--preset", "lamplighter3", "--depth", "3", "--coset-cap", "4"),
])
def test_hnn_and_lamplighter_chains_honour_coset_cap(capsys, command, source):
    code, out, err = run(capsys, command, *source)
    assert code == EXIT_BUDGET
    assert out == ""
    assert f"exceeded {source[-1]} live cosets" in err
    assert "Traceback" not in err


F2_CHAIN = {}  # indices of chain --preset f2 --depth 3 at the default index cap


@settings(max_examples=30, deadline=None)
@given(cap=st.integers(min_value=1, max_value=5000))
def test_chain_index_cap_truncates_or_gives_the_full_chain(cap):
    argv = ("chain", "--preset", "f2", "--depth", "3")
    if not F2_CHAIN:
        code, out, _ = run_main(*argv)
        assert code == EXIT_OK
        F2_CHAIN["indices"] = json.loads(out)["report"]["chain"]["indices"]
    code, out, err = run_main(*argv, "--index-cap", str(cap))
    assert code == EXIT_OK
    chain = json.loads(out)["report"]["chain"]
    event("truncated" if chain["truncated"] else "full")
    assert all(index <= cap for index in chain["indices"])
    if chain["truncated"]:
        assert f"exceeds cap {cap}" in chain["truncated"]
        assert chain["indices"] == F2_CHAIN["indices"][: len(chain["indices"])]
    else:
        assert chain["indices"] == F2_CHAIN["indices"]
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(
    argv=st.sampled_from([
        ("chain", "--preset", "fig8", "--depth", "4"),
        ("chain", "--preset", "lamplighter3", "--depth", "3"),
        ("graphing", "--preset", "fig8", "--depth", "3", "--level", "3"),
        ("graphing", "--preset", "f2", "--depth", "2", "--level", "2"),
    ]),
    cap=st.integers(min_value=1, max_value=40),
)
def test_chain_and_graphing_coset_cap_exit_0_or_3_and_name_the_cap(argv, cap):
    code, out, err = run_main(*argv, "--coset-cap", str(cap))
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_BUDGET)
    if code == EXIT_BUDGET:
        assert out == ""
        assert f"exceeded {cap} live cosets" in err
    assert "Traceback" not in err


@settings(max_examples=30, deadline=None)
@given(
    group=st.sampled_from([("s3", "3/4"), ("z2z2", "1/2"), ("z2z2", "0")]),
    # small scales build quickly; large ones trip the point cap before any work
    scale=st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1000)),
)
def test_tower_scale_exits_0_or_3_naming_the_point_cap_or_the_route(group, scale):
    name, mu = group
    code, out, err = run_main(
        "tower", "--group", name, "--mu", mu, "--depth", "1", "--scale", str(scale)
    )
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_BUDGET)
    if code == EXIT_BUDGET:
        assert out == ""
        assert f"over the cap {BASE_POINT_CAP}" in err or "route" in err or "layout (" in err
    assert "Traceback" not in err


def test_hnn_input_without_a_z_quotient_is_a_parse_error(capsys, tmp_path):
    # t^2 = 1, so t cannot map onto Z: <a, t^3> is the whole group
    path = tmp_path / "k4.txt"
    path.write_text("gens a t\nrel a^2\nrel t^2\nrel a t a^-1 t^-1\n")
    code, _, err = run(capsys, "chain", "--input", str(path), "--depth", "3")
    assert code == EXIT_PARSE
    assert "does not map onto Z" in err


@pytest.mark.parametrize("preset", ["f3", "surface2"])
def test_chain_of_an_input_naming_no_chain_is_a_parse_error(capsys, preset):
    # no subgroup, no generator t and not W_m: nothing picks the chain
    code, out, err = run(capsys, "chain", "--preset", preset, "--depth", "2")
    assert code == EXIT_PARSE
    assert out == ""
    assert "pass --sub NAME for a normal-core chain or --stable LETTER" in err
    assert "Traceback" not in err


W2_CHAIN = ("--preset", "lamplighter2", "--depth", "2")


@pytest.mark.parametrize("argv, removed", [
    (("chain", *W2_CHAIN, "--kind", "lamplighter"), "--kind lamplighter"),
    (("chain", *W2_CHAIN, "--m", "2"), "--m 2"),
    (("graphing", *W2_CHAIN, "--level", "1", "--kind", "hnn"), "--kind hnn"),
    (("graphing", *W2_CHAIN, "--level", "1", "--m", "2"), "--m 2"),
])
def test_removed_chain_options_are_usage_errors(capsys, argv, removed):
    # the chain is read off the input, so --kind and --m are gone; they are
    # rejected while parsing, before the input is read
    with mock.patch("rankgradient.cli.load_source") as load:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
    assert exc.value.code == EXIT_PARSE
    assert not load.called
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {removed}" in captured.err
    assert "Traceback" not in captured.err


def test_lamplighter_chain_reads_its_input(capsys, tmp_path):
    from importlib import resources

    # the chain is read off the presentation, not off the preset's name
    text = resources.files("rankgradient.presets").joinpath("lamplighter2.txt").read_text()
    path = tmp_path / "w2.txt"
    path.write_text(text)
    code, by_file, _ = run(capsys, "chain", "--input", str(path), "--depth", "2")
    assert code == EXIT_OK
    _, by_preset, _ = run(capsys, "chain", "--preset", "lamplighter2", "--depth", "2")
    assert json.loads(by_file)["report"] == json.loads(by_preset)["report"]
    assert json.loads(by_file)["report"]["chain"]["indices"] == [1, 2, 4]


def test_lamplighter_chain_builds_w_m_once(capsys, monkeypatch):
    from rankgradient import chains

    # lamplighter_exponent builds W_3 to compare it with the input, and
    # lamplighter_chain takes the checked input as its ambient group
    built = []
    monkeypatch.setattr(chains, "lamplighter_presentation",
                        lambda m, build=chains.lamplighter_presentation: built.append(m) or build(m))
    code, _, _ = run(capsys, "chain", "--preset", "lamplighter3", "--depth", "2")
    assert code == EXIT_OK
    assert built == [3]


def test_reserved_generator_name_in_input_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("gens 1 a\nrel 1 a\n")
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert code == EXIT_PARSE
    assert out == ""
    assert "reserved generator name '1'" in err
    assert "Traceback" not in err


def test_missing_source_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lowindex", "--max", "2"])
    assert exc.value.code == EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ("chain", "--preset", "fig8", "--depth", "2", "--jobs", "2"),
    ("chain", "--preset", "fig8", "--depth", "2", "--seed", "1"),
    ("tower", "--group", "s3", "--mu", "3/4", "--depth", "1", "--jobs", "2"),
])
def test_jobs_and_non_tower_seed_are_not_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_PARSE


@pytest.mark.parametrize("bad", [
    ("--mu", "1/0"),
    ("--scale", "-2"),
    ("--scale", "0"),
    ("--primes", "4"),
    ("--primes", "2,2"),
    ("--coset-cap", "0"),
])
def test_bad_tower_input_is_a_usage_error(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["tower", "--group", "s3", "--mu", "3/4", "--depth", "1", *bad])
    assert exc.value.code == EXIT_PARSE
    assert "Traceback" not in capsys.readouterr().err


def test_is_prime_matches_trial_division():
    for n in range(100_001):
        trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == trial, n
    # Strong pseudoprimes to bases 2-7 and to bases 2-37 (only base 41
    # catches the second), its two prime factors, and the prime 2^61 - 1.
    assert not is_prime(3215031751)
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(2**61 - 1)


def test_large_prime_parses_fast():
    start = time.monotonic()
    args = build_parser().parse_args(
        ["chain", "--preset", "fig8", "--depth", "1", "--primes", "2,100000000000031"]
    )
    assert time.monotonic() - start < 0.1
    assert args.primes == (2, 100000000000031)


@pytest.mark.parametrize("value, message", [
    (str(100000000000031 * 3), "distinct primes"),
    (str(PRIME_CHECK_BOUND), str(PRIME_CHECK_BOUND)),
    (str(PRIME_CHECK_BOUND + 2), str(PRIME_CHECK_BOUND)),
])
def test_bad_large_primes_are_usage_errors(capsys, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--preset", "fig8", "--depth", "1", "--primes", value])
    assert exc.value.code == EXIT_PARSE
    assert message in capsys.readouterr().err


def test_label_cap_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graphing", "--preset", "fig8", "--depth", "3", "--level", "3",
              "--label-cap", "8"])
    assert exc.value.code == EXIT_PARSE


def test_csv_unavailable_for_validate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--preset", "s3", "--format", "csv"])
    assert exc.value.code == EXIT_PARSE


ENUMERATE = ("enumerate", "--preset", "s3")
LOWINDEX = ("lowindex", "--preset", "f2", "--max", "2")
CHAIN = ("chain", "--preset", "fig8", "--depth", "1")
GRAPHING = ("graphing", "--preset", "fig8", "--depth", "1", "--level", "1")
TOWER = ("tower", "--group", "s3", "--mu", "3/4", "--depth", "1")
VALIDATE = ("validate", "--preset", "s3")


@pytest.mark.parametrize("argv", [
    ENUMERATE + ("--primes", "2"),
    LOWINDEX + ("--primes", "2"),
    LOWINDEX + ("--coset-cap", "10"),
    LOWINDEX + ("--cache-dir", "cache"),
    CHAIN + ("--cache-dir", "cache"),
    CHAIN + ("--effort", "2"),
    CHAIN + ("--max", "2"),
    CHAIN + ("--level", "1"),
    GRAPHING + ("--primes", "2"),
    GRAPHING + ("--effort", "0"),
    GRAPHING + ("--cache-dir", "cache"),
    TOWER + ("--preset", "s3"),
    TOWER + ("--input", "s3.txt"),
    TOWER + ("--coset-cap", "10"),
    TOWER + ("--cache-dir", "cache"),
    TOWER + ("--effort", "0"),
    VALIDATE + ("--primes", "2"),
    ENUMERATE + ("--format", "csv"),
    GRAPHING + ("--format", "csv"),
    VALIDATE + ("--format", "csv"),
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    # rejected while parsing, before any work is done
    with mock.patch("rankgradient.cli.load_source") as load:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
    assert exc.value.code == EXIT_PARSE
    assert not load.called


def test_effort_zero_does_not_rewrite_long_relators(capsys, tmp_path):
    # rewriting a^10001 trips the relator cap, so each level reports the
    # Schreier count with a note naming the cap
    path = tmp_path / "long.txt"
    path.write_text("gens a t\nrel a^10001\n")
    argv = ("chain", "--input", str(path), "--depth", "1")
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == EXIT_OK
    assert out.splitlines()[2:] == [
        f"level {n}: index 1 rank [1, 2] beta1 1 | rank_upper=1/1, rank_lower=0/1, "
        "beta1=1/1, b1_2=1/1, b1_3=1/1, b1_5=1/1 | NOTE rank_upper is the Schreier "
        "count: relator length 10001 exceeds cap 10000 (coset 0)"
        for n in (0, 1)
    ]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    for level in json.loads(out)["report"]["levels"]:
        assert "error" not in level
        assert (level["rank_lower"], level["rank_upper"], level["beta1"]) == (1, 2, 1)
        assert "exceeds cap 10000" in level["note"]


def test_byte_identical_output(capsys):
    argv = ("chain", "--preset", "fig8", "--depth", "5", "--format", "csv")
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv)
    assert a == b


def test_input_file_equivalent_to_preset(capsys, tmp_path):
    from importlib import resources

    text = resources.files("rankgradient.presets").joinpath("fig8.txt").read_text()
    path = tmp_path / "mine.txt"
    path.write_text(text)
    _, by_preset, _ = run(capsys, "chain", "--preset", "fig8", "--depth", "2")
    _, by_file, _ = run(capsys, "chain", "--input", str(path), "--depth", "2")
    assert (
        json.loads(by_preset)["report"] == json.loads(by_file)["report"]
    )


# One cheap run of each command, for the config echo tests.
ECHO_ARGV = {
    "enumerate": ("--preset", "f2", "--sub", "K"),
    "lowindex": ("--preset", "f2", "--max", "2"),
    "chain": ("--preset", "fig8", "--depth", "2"),
    "graphing": ("--preset", "fig8", "--depth", "1", "--level", "1"),
    "tower": ("--group", "z2z2", "--mu", "1/2", "--depth", "0"),
    "validate": ("--preset", "s3"),
}


def subparsers():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices


def echo_of(capsys, command, *extra):
    code, out, _ = run(capsys, command, *ECHO_ARGV[command], *extra)
    assert code == EXIT_OK
    return json.loads(out)["config"]


def test_every_command_has_an_echo_case():
    assert set(subparsers()) == set(ECHO_ARGV)


@pytest.mark.parametrize("command", sorted(ECHO_ARGV))
def test_echo_keys_are_the_options_the_command_parses(capsys, command):
    config = echo_of(capsys, command)
    dests = {a.dest for a in subparsers()[command]._actions if a.dest != "help"}
    want = {"command", "source"} | dests - {"preset", "input"}
    assert set(config) == want
    assert list(config) == sorted(config)
    assert config["command"] == command


@pytest.mark.parametrize("command", sorted(ECHO_ARGV))
def test_text_header_echoes_the_same_config(capsys, command):
    config = echo_of(capsys, command)
    _, out, _ = run(capsys, command, *ECHO_ARGV[command], "--format", "text")
    assert out.splitlines()[1] == "# config " + json.dumps({**config, "format": "text"})


def test_tower_echoes_covers(capsys):
    assert echo_of(capsys, "tower", "--covers")["covers"] is True
    assert echo_of(capsys, "tower")["covers"] is False


def test_chain_echoes_the_index_cap_in_effect(capsys):
    assert echo_of(capsys, "chain")["index_cap"] == 10000
    assert echo_of(capsys, "chain", "--index-cap", "7")["index_cap"] == 7
    assert "effort" not in echo_of(capsys, "chain")


def test_lowindex_echoes_no_settings_it_does_not_take(capsys):
    config = echo_of(capsys, "lowindex")
    assert not {"effort", "primes", "seed", "depth"} & set(config)
    assert config == {"command": "lowindex", "format": "json", "max": 2,
                      "source": "preset:f2"}



def readme_tour():
    """The rankgradient lines of the sh block under README's Command line."""
    readme = os.path.join(os.path.dirname(SRC), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("rankgradient ")]


def test_readme_tour_runs(capsys):
    tour = [argv for argv in readme_tour() if {"--preset", "--group"} & set(argv)]
    assert len(tour) >= 5
    for argv in tour:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        assert out
