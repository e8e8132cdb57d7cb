import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankgradient
from rankgradient.cache import (
    TableCache,
    cache_key,
    deserialize_table,
    serialize_table,
)
from rankgradient.cli import EXIT_OK, main
from rankgradient.cosets import enumerate_cosets, validate
from rankgradient.words import parse_presentation

TEXT = "gens a b\nrel a^3\nrel b^2\nrel a b a b\nsub H b\n"


def parsed(text=TEXT):
    pres, specs = parse_presentation(text)
    return pres, (specs[0] if specs else None)


def test_serialize_round_trip():
    pres, spec = parsed()
    table = enumerate_cosets(pres, spec)
    restored = deserialize_table(serialize_table(table), pres, spec)
    assert restored.perms == table.perms
    assert restored.provenance == "cache"
    # equality and hashing ignore the provenance
    assert restored == table and hash(restored) == hash(table)


def test_cache_key_ignores_formatting():
    a = cache_key(*parsed())
    b = cache_key(*parsed("# c\ngens  a   b\n\nrel a^3\nrel b^2\nrel a b a b\nsub H b\n"))
    assert a == b
    # a different subgroup gives a different key
    assert a != cache_key(*parsed(TEXT.replace("sub H b", "sub H a")))


@pytest.mark.parametrize("text", ["gens a b\nrel a^3\n", "sub H \u03b1 \u00e9 \u2211 \U0001d400", ""])
def test_sha256_matches_hashlib(text):
    import hashlib

    from rankgradient.cache import _sha256

    assert _sha256(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cache_key_is_pinned():
    # entries written before the built-in SHA-256 keep their names (the key
    # moves only with ALGORITHM_VERSION or the canonical form)
    assert cache_key(*parsed()) == "6352c4bbf45dbb5214e312d96ad3fe7964ae46f2ab0c72a58dbfc7b35d37cd9c"


CACHED_ENUMERATE = """
import sys
from rankgradient.cli import main

for _ in range(2):
    main(["enumerate", "--preset", "s3", "--cache-dir", sys.argv[1], "--format", "text"])
print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""


def test_cached_enumerate_loads_no_openssl(tmp_path):
    # -S skips site, whose .pth files may import hashlib themselves
    src = str(Path(rankgradient.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", CACHED_ENUMERATE, str(tmp_path)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.splitlines()
    assert [line for line in out if line.startswith("index")] == [
        "index 6 (subgroup 1, cache miss)",
        "index 6 (subgroup 1, cache hit)",
    ]
    assert out[-1] == "[]"


def test_disabled_cache_counts_misses():
    cache = TableCache()
    assert not cache.enabled and cache.directory is None
    pres, spec = parsed()
    cache.enumerate(pres, spec)
    cache.enumerate(pres, spec)
    assert (cache.hits, cache.misses) == (0, 2)


def test_cache_hit_after_miss(tmp_path):
    cache = TableCache(str(tmp_path))
    pres, spec = parsed()
    first = cache.enumerate(pres, spec)
    second = cache.enumerate(pres, spec)
    assert (cache.hits, cache.misses) == (1, 1)
    assert first.perms == second.perms
    assert second.provenance == "cache"


def run_main(capsys, *argv):
    assert main(list(argv)) == EXIT_OK
    return capsys.readouterr().out


def test_environment_cannot_change_a_report(tmp_path, monkeypatch, capsys):
    # the cache directory comes from --cache-dir alone, so the config echo
    # names every setting that can move a report's bytes
    argv = ("enumerate", "--preset", "s3", "--format", "text")
    plain = run_main(capsys, *argv)
    assert "cache miss" in plain
    monkeypatch.setenv("RANKGRADIENT_CACHE", str(tmp_path))
    assert [run_main(capsys, *argv) for _ in range(2)] == [plain, plain]
    run_main(capsys, "validate", "--preset", "f2")
    assert list(tmp_path.iterdir()) == []


def corrupt(path, mangle):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    mangle(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def test_corrupted_payload_is_a_miss(tmp_path):
    cache = TableCache(str(tmp_path))
    pres, spec = parsed()
    cache.enumerate(pres, spec)
    path = os.path.join(str(tmp_path), cache_key(pres, spec) + ".json")

    corrupt(path, lambda obj: obj["payload"]["perms"][0].reverse())
    fresh = TableCache(str(tmp_path))
    table = fresh.enumerate(pres, spec)
    assert fresh.misses == 1  # checksum no longer matches
    assert table.provenance != "cache"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not json at all")
    fresh = TableCache(str(tmp_path))
    assert fresh.enumerate(pres, spec).provenance != "cache"
    assert fresh.misses == 1


def test_version_mismatch_is_a_miss(tmp_path):
    cache = TableCache(str(tmp_path))
    pres, spec = parsed()
    cache.enumerate(pres, spec)
    path = os.path.join(str(tmp_path), cache_key(pres, spec) + ".json")

    def bump(obj):
        obj["payload"]["version"] = "rankgradient-cosets-0"
        # keep the checksum honest so only the version check can fail
        from rankgradient.cache import _checksum

        obj["checksum"] = _checksum(obj["payload"])

    corrupt(path, bump)
    with pytest.raises(ValueError, match="version|written by"):
        with open(path, encoding="utf-8") as fh:
            deserialize_table(fh.read(), pres, spec)
    fresh = TableCache(str(tmp_path))
    assert fresh.enumerate(pres, spec).provenance != "cache"


def test_wrong_presentation_rejected(tmp_path):
    pres, spec = parsed()
    table = enumerate_cosets(pres, spec)
    other_pres, other_spec = parsed(TEXT.replace("sub H b", "sub H a"))
    with pytest.raises(ValueError, match="different presentation"):
        deserialize_table(serialize_table(table), other_pres, other_spec)


COLD_WRITER = """
import os, sys
from rankgradient.cache import TableCache, cache_key
from rankgradient.words import parse_presentation

pres, specs = parse_presentation(sys.argv[2])
cache = TableCache(sys.argv[1])
path = cache._path(cache_key(pres, specs[0]))
for _ in range(int(sys.argv[3])):
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    cache.enumerate(pres, specs[0])
"""


def test_concurrent_cold_writers_of_one_key(tmp_path):
    src = str(Path(rankgradient.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", COLD_WRITER, str(tmp_path), TEXT, "300"]
    workers = [
        subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    try:
        for w in workers:
            _, err = w.communicate(timeout=120)
            assert w.returncode == 0, err
    finally:
        for w in workers:
            w.kill()
    cache = TableCache(str(tmp_path))
    pres, spec = parsed()
    table = cache.enumerate(pres, spec)
    assert (cache.hits, cache.misses) == (1, 0)
    assert validate(table) == []
    assert table.perms == enumerate_cosets(pres, spec).perms
    assert not list(tmp_path.glob("*.tmp"))


def enumerate_s3(cache_dir, capsys):
    """The text report line of ``enumerate --preset s3`` through the cache."""
    argv = ["enumerate", "--preset", "s3", "--cache-dir", str(cache_dir), "--format", "text"]
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize(
    "perms",
    [
        [[0, 5], [1, 0]],  # entries past the end of the list
        [[0, 0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 0]],  # not a bijection
        [[1, 2, 0, 4, 5, 3], [3, 4]],  # lists of different lengths
    ],
    ids=["out_of_range", "not_bijective", "ragged"],
)
def test_invalid_table_with_good_checksum_is_a_miss(tmp_path, capsys, perms):
    from rankgradient.cache import _checksum

    assert enumerate_s3(tmp_path, capsys) == "index 6 (subgroup 1, cache miss)"
    assert enumerate_s3(tmp_path, capsys) == "index 6 (subgroup 1, cache hit)"
    pres, _ = parsed("gens a b\nrel a^3\nrel b^2\nrel a b a b\n")
    path = os.path.join(str(tmp_path), cache_key(pres) + ".json")
    good = enumerate_cosets(pres).perms

    def forge(obj):
        obj["payload"]["perms"] = perms
        obj["checksum"] = _checksum(obj["payload"])  # only the table is wrong

    corrupt(path, forge)
    with pytest.raises(ValueError, match="permutation list|not a valid coset table"):
        with open(path, encoding="utf-8") as fh:
            deserialize_table(fh.read(), pres, None)
    assert enumerate_s3(tmp_path, capsys) == "index 6 (subgroup 1, cache miss)"
    with open(path, encoding="utf-8") as fh:
        rewritten = deserialize_table(fh.read(), pres, None)
    assert rewritten.perms == good
    assert enumerate_s3(tmp_path, capsys) == "index 6 (subgroup 1, cache hit)"


@pytest.mark.parametrize("entry", ["[]", "null", "1", '"x"'])
def test_entry_that_is_not_an_object_is_a_miss(tmp_path, capsys, entry):
    assert enumerate_s3(tmp_path, capsys) == "index 6 (subgroup 1, cache miss)"
    pres, _ = parsed("gens a b\nrel a^3\nrel b^2\nrel a b a b\n")
    path = os.path.join(str(tmp_path), cache_key(pres) + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(entry)
    with pytest.raises(ValueError, match="not a JSON object"):
        deserialize_table(entry, pres, None)
    assert enumerate_s3(tmp_path, capsys) == "index 6 (subgroup 1, cache miss)"
    with open(path, encoding="utf-8") as fh:
        rewritten = deserialize_table(fh.read(), pres, None)
    assert rewritten.perms == enumerate_cosets(pres).perms
    assert enumerate_s3(tmp_path, capsys) == "index 6 (subgroup 1, cache hit)"
