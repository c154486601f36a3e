"""CLI: flags, exit codes, stats JSON determinism."""

import json

import pytest

from twocut import cli, packing
from twocut.cli import EXIT_BUDGET, EXIT_DISCONNECTED, EXIT_OK, EXIT_PARSE, main
from twocut.graph import load_graph
from twocut.packing import PipelineConfig, min_cut_pipeline
from twocut.proxy import build_proxy_graph

GSTAR_TEXT = "p 5 6\n0 1 1\n1 2 1\n0 3 1\n3 4 1\n2 4 4\n1 3 2\n"


@pytest.fixture
def gstar_file(tmp_path):
    path = tmp_path / "gstar.txt"
    path.write_text(GSTAR_TEXT)
    return path


def test_run_sequential_with_verify(gstar_file, capsys):
    code = main(["--mode", "sequential", "--input", str(gstar_file), "--seed", "7", "--verify", "oracle"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "min cut value: 2" in out
    assert "verified" in out


def test_run_streaming_with_churn_matches(gstar_file, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code = main([
        "--mode", "streaming", "--churn", "0.5", "--input", str(gstar_file),
        "--seed", "7", "--stats", str(stats_path), "--verify", "oracle",
    ])
    assert code == EXIT_OK
    payload = json.loads(stats_path.read_text())
    assert payload["value"] == 2
    assert payload["passes"] >= 1
    assert payload["queries"] == 0
    assert set(payload) == {"value", "queries", "passes", "tracked_words", "probes", "wall_ms", "seed"}


def test_report_partition(gstar_file, capsys):
    code = main(["--input", str(gstar_file), "--report-partition"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    side = [int(tok) for tok in out.splitlines()[1].split(":")[1].split()]
    assert 0 < len(side) < 5


def test_trees_override(gstar_file, capsys):
    code = main(["--input", str(gstar_file), "--trees", "2", "--verify", "oracle"])
    assert code == EXIT_OK
    assert "min cut value: 2" in capsys.readouterr().out
    g = load_graph(GSTAR_TEXT)
    assert min_cut_pipeline(g, rng=7)[1].trees_packed == 10
    assert min_cut_pipeline(g, rng=7, config=PipelineConfig(trees_override=2))[1].trees_packed == 2


@pytest.mark.parametrize("trees", [-1, 0])
def test_trees_below_one_refused(gstar_file, capsys, trees):
    assert main(["--input", str(gstar_file), "--trees", str(trees)]) == EXIT_PARSE
    assert "tree count must be at least 1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="at least 1"):
        min_cut_pipeline(load_graph(GSTAR_TEXT), rng=7, config=PipelineConfig(trees_override=trees))


@pytest.mark.parametrize("churn", ["inf", "nan", "-1"])
def test_non_finite_churn_refused(gstar_file, capsys, churn):
    # every mode refuses it, not only the streaming one that uses it
    for mode in packing.MODES:
        assert main(["--mode", mode, "--churn", churn, "--input", str(gstar_file)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: churn must be finite") and err.count("\n") == 1


@pytest.mark.parametrize("mode", packing.MODES)
@pytest.mark.parametrize("eps", ["1e-170", "5e-324", "1e-160"])
def test_tiny_epsilon_refused(gstar_file, capsys, eps, mode):
    # eps * eps underflows to 0 (or the eps^-2 budget overflows a float)
    assert main(["--mode", mode, "--epsilon", eps, "--input", str(gstar_file)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: eps must lie in (0, 1/10]") and err.count("\n") == 1
    g = load_graph(GSTAR_TEXT)
    with pytest.raises(ValueError, match="eps must lie"):
        min_cut_pipeline(g, mode, eps=float(eps), rng=7)
    with pytest.raises(ValueError, match="eps must lie"):
        build_proxy_graph(g, float(eps))


def test_smallest_carried_epsilon_runs(capsys):
    # just above the refusal the budgets are huge but finite, and peeling
    # still stops at the first empty forest
    g = load_graph(GSTAR_TEXT)
    for mode in packing.MODES:
        assert min_cut_pipeline(g, mode, eps=1e-150, rng=7)[0].value == 2


def test_budget_exit_code(gstar_file, capsys, monkeypatch):
    monkeypatch.setattr(packing, "TRACKED_WORDS_FACTOR", 0.01)
    assert main(["--mode", "streaming", "--input", str(gstar_file)]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3 1\n0 1\n")
    assert main(["--input", str(bad)]) == EXIT_PARSE
    assert main(["--input", str(tmp_path / "missing.txt")]) == EXIT_PARSE


def test_non_utf8_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p 3 2\n0 1 1\n1 2 \xff\n")
    assert main(["--input", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_disconnected_exit_code(tmp_path, capsys):
    disc = tmp_path / "disc.txt"
    disc.write_text("p 4 1\n0 1 1\n")
    assert main(["--input", str(disc)]) == EXIT_DISCONNECTED


@pytest.mark.parametrize("mode", packing.MODES)
def test_min_cut_zero_through_zero_weight_edge(mode, tmp_path, capsys):
    # connected only through the zero-weight edge (3, 4), which no sparsifier keeps
    path = tmp_path / "zero.txt"
    path.write_text("p 5 5\n0 1 3\n1 2 3\n2 0 3\n2 3 2\n3 4 0\n")
    assert main(["--mode", mode, "--input", str(path), "--verify", "oracle"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "min cut value: 0" in out
    assert "verified" in out


def test_stats_json_deterministic(gstar_file, tmp_path):
    texts = []
    for run in range(2):
        path = tmp_path / f"s{run}.json"
        assert main([
            "--mode", "cut-query", "--input", str(gstar_file), "--seed", "99",
            "--stats", str(path),
        ]) == EXIT_OK
        payload = json.loads(path.read_text())
        payload["wall_ms"] = 0  # the one physically nondeterministic field
        texts.append(json.dumps(payload, sort_keys=False))
    assert texts[0] == texts[1]


def test_malformed_header_exit_code(tmp_path, capsys):
    for header in ("p --3 2", "p ² 1"):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{header}\n0 1 1\n1 2 1\n")
        assert main(["--input", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: bad header")
    bad.write_text("p 3 2\n0 1 1_0\n1 2 1\n")
    assert main(["--input", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: bad edge line") and err.count("\n") == 1


def test_unwritable_stats_exit_code(gstar_file, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "s.json"
    assert main(["--input", str(gstar_file), "--stats", str(target)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_memory_error_exit_code(gstar_file, capsys, monkeypatch):
    # a run that outgrows memory (say a huge --churn stream) ends as a budget overrun
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "min_cut_pipeline", out_of_memory)
    assert main(["--mode", "streaming", "--churn", "1e12", "--input", str(gstar_file)]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
