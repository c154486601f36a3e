"""CLI: flags, exit codes, stats JSON determinism."""

import json

import pytest

from twocut import packing
from twocut.cli import EXIT_BUDGET, EXIT_DISCONNECTED, EXIT_OK, EXIT_PARSE, main
from twocut.graph import load_graph
from twocut.packing import PipelineConfig, min_cut_pipeline

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


def test_budget_exit_code(gstar_file, capsys, monkeypatch):
    monkeypatch.setattr(packing, "TRACKED_WORDS_FACTOR", 0.01)
    assert main(["--mode", "streaming", "--input", str(gstar_file)]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3 1\n0 1\n")
    assert main(["--input", str(bad)]) == EXIT_PARSE
    assert main(["--input", str(tmp_path / "missing.txt")]) == EXIT_PARSE


def test_disconnected_exit_code(tmp_path, capsys):
    disc = tmp_path / "disc.txt"
    disc.write_text("p 4 1\n0 1 1\n")
    assert main(["--input", str(disc)]) == EXIT_DISCONNECTED


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
