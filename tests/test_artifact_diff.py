import json
import shutil

from pufledger import ScenarioConfig, run_scenario

from artifact_diff import compare_dirs, main


def rewrite_line(path, number, change):
    """Apply change to the parsed JSON of the file's line `number`, in place."""
    lines = path.read_text(encoding="ascii").splitlines()
    record = json.loads(lines[number])
    change(record)
    lines[number] = json.dumps(record, separators=(",", ":"))
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")


def test_report_names_each_planted_field_and_nothing_else(tmp_path, capsys):
    old = tmp_path / "old"
    run_scenario(ScenarioConfig(seed=5, n_candidates=60, n_transactions=4, n_clients=2,
                                n_fast_clients=1, out_dir=str(old)))
    new = tmp_path / "new"
    shutil.copytree(old, new)
    assert main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "summary: 7 files, 7 identical, 0 differ"

    events = (new / "events.ndjson").read_text(encoding="ascii").splitlines()
    accept = next(i for i, line in enumerate(events) if '"hashes":' in line)
    kind = json.loads(events[accept])["kind"]
    rewrite_line(new / "events.ndjson", accept,
                 lambda event: event["detail"].update(hashes=event["detail"]["hashes"] + 1))
    chain = sorted(new.glob("chain_*.ndjson"))[0]
    rewrite_line(chain, 2, lambda entry: entry.update(t_validated=entry["t_validated"] + 1))

    report, same = compare_dirs(old, new)
    assert not same
    assert report[-1] == "summary: 7 files, 5 identical, 2 differ"
    at = report.index(f"{chain.name}: differs")
    assert report[at + 1:at + 3] == ["  chain t_validated: 1", "  first differing line 3:"]
    at = report.index("events.ndjson: differs")
    assert report[at + 1:at + 3] == [f"  {kind} detail.hashes: 1",
                                     f"  first differing line {accept + 1}:"]
    assert report[at + 3] == f"    - {events[accept][:200]}"
    differing = [line for line in report if line.endswith(": differs")]
    assert differing == [f"{chain.name}: differs", "events.ndjson: differs"]


def test_report_names_a_changed_timings_column(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    (old / "timings.csv").write_text("tx,dt_sa,result\n0,5,accepted\n1,6,accepted\n")
    (new / "timings.csv").write_text("tx,dt_sa,result\n0,5,accepted\n1,7,accepted\n")
    (old / "metrics.json").write_text('{\n "a": 1\n}\n')
    (new / "metrics.json").write_text('{\n "a":1\n}\n')
    report, _ = compare_dirs(old, new)
    assert report == ["metrics.json: differs", "  metrics (formatting): 1",
                      "  first differing line 2:", '    -  "a": 1', '    +  "a":1',
                      "timings.csv: differs", "  column dt_sa: 1",
                      "  first differing line 3:", "    - 1,6,accepted", "    + 1,7,accepted",
                      "summary: 2 files, 0 identical, 2 differ"]
