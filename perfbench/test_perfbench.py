"""Tests of the benchmark itself: its output checks reject doctored payloads,
its job lists are reproducible, and its self-time arithmetic is right.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
from drinfeld import cli  # noqa: E402


def _output(job: list[str]) -> dict:
    code, out, err = run.invoke(cli.main, job)
    assert code == 0, err
    return json.loads(out)


def _problems(job: list[str], payload: dict) -> list:
    return checks.check_job(job, json.dumps(payload))


def _doctor(payload: dict, edit) -> dict:
    doctored = copy.deepcopy(payload)
    edit(doctored)
    return doctored


def _bump(mapping: dict, key: str) -> None:
    mapping[key] = mapping[key] + 1


DOCTORED = [
    (["local-dims", "--p", "3", "--k", "4"], lambda o: _bump(o, "dimZhar")),
    (["local-dims", "--p", "2", "--k", "3"], lambda o: _bump(o, "dimE")),
    (["lattice", "--p", "2", "--k", "3"], lambda o: o["computed"]["gamma1"].reverse()),
    (["lattice", "--p", "3", "--k", "4"], lambda o: o["computed"]["standard_edge"].reverse()),
    (
        ["lattice", "--p", "3", "--k", "3", "--level", "2", "--offset", "0"],
        lambda o: o["profile"].reverse(),
    ),
    (
        ["theta", "--p", "2", "--k", "1", "--f", "1/z", "--level", "1"],
        lambda o: _bump(o, "kernel_polynomial_dimension"),
    ),
    (
        ["theta", "--p", "2", "--k", "1", "--f", "1/z", "--level", "1"],
        lambda o: o["certificate"].update(output_valuation="1/2"),
    ),
    (["tree", "--p", "3", "--radius", "2"], lambda o: _bump(o["computed"], "edges")),
    (["harmonic", "--p", "2", "--k", "1", "--radius", "2"], lambda o: _bump(o, "dimension")),
    (
        ["residue", "--p", "2", "--k", "0", "--f", "1/z", "--radius", "2"],
        lambda o: o["cochain"][0].update(value=["2"]),
    ),
    (
        ["residue", "--p", "2", "--k", "0", "--f", "1/z", "--radius", "2"],
        lambda o: o["cochain"].pop(),
    ),
    (
        ["residue", "--p", "3", "--k", "1", "--f", "(z-1)^-1*(z-1/3)^2*z^-2", "--radius", "2"],
        lambda o: o["cochain"][-1]["value"].__setitem__(0, "7/2 + -3*pihat"),
    ),
    (["modp", "degrees", "--q", "4", "--k", "7"], lambda o: _bump(o, "degree")),
    (["modp", "sections", "--q", "3", "--k", "2", "--radius", "1"], lambda o: _bump(o, "dimension")),
    (
        ["modp", "sections", "--q", "3", "--k", "3", "--radius", "1"],
        lambda o: o["basis"].pop(),
    ),
    (
        ["modp", "stable-lines", "--q", "2", "--k", "8", "--i", "0"],
        lambda o: _bump(o, "group_order"),
    ),
    (
        ["modp", "symgeom-check", "--q", "3", "--k", "4", "--i", "0"],
        lambda o: _bump(o, "injectivity_rank"),
    ),
    (["modp", "b-forms", "--q", "3"], lambda o: o.update({"pass": False})),
    (["tree", "--p", "2", "--radius", "2"], lambda o: o["config"].update(p=3)),
]


@pytest.mark.parametrize("job,edit", DOCTORED, ids=[" ".join(j) for j, _ in DOCTORED])
def test_check_accepts_real_output_and_rejects_doctored_one(job, edit):
    payload = _output(job)
    assert _problems(job, payload) == []
    assert _problems(job, _doctor(payload, edit)) != []


def test_doctored_payload_counts_as_failed_job():
    real = ["tree", "--p", "2", "--radius", "3"]

    def doctored_main():
        print(json.dumps({"command": "tree", "computed": {"vertices": 23, "edges": 22}}))

    jobs = [real, ["tree", "--p", "2", "--radius", "1"]]
    good = run.run_list(cli.main, jobs)
    assert (good["failed"], good["wrong"]) == (0, 0)
    bad = run.run_list(doctored_main, jobs)
    assert (bad["failed"], bad["wrong"]) == (2, 2)


def test_nonzero_exit_counts_as_failed_but_not_wrong():
    ran = run.run_list(cli.main, [["modp", "stable-lines", "--q", "2", "--k", "7", "--i", "0"]])
    assert (ran["failed"], ran["wrong"]) == (1, 0)


def test_scalar_parsing():
    assert checks.parse_scalar("-3/2") == (-1.5, 0)
    assert checks.parse_scalar("pihat") == (0, 1)
    assert checks.parse_scalar("-1/4*pihat") == (0, -0.25)
    assert checks.parse_scalar("5 + -2*pihat") == (5, -2)
    for text in ("5 + ", "5 + 2", "2pihat"):
        with pytest.raises(ValueError):
            checks.parse_scalar(text)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_fixed_by_its_seed(workload):
    first = workloads.job_list(workload, 7)
    assert first == workloads.job_list(workload, 7)
    assert len(first) >= 4 * run.TAIL_BEYOND
    other = workloads.job_list(workload, 8)
    assert other != first
    assert {tuple(j) for j in other} != {tuple(j) for j in first}
    mix = lambda jobs: Counter(checks.parse_args(j)[0] for j in jobs)  # noqa: E731
    assert mix(other) == mix(first)


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    # cli [0, 10] > linalg [1, 4] > symrep [2, 3]; cli > modp [5, 9]
    for name, start, end, parent in (
        ("cli", 0.0, 10.0, -1),
        ("linalg.rref", 1.0, 4.0, 0),
        ("symrep.substitution_matrix", 2.0, 3.0, 1),
        ("modp.symgeom_iso", 5.0, 9.0, 0),
    ):
        tracer.names.append(name)
        tracer.name.append(len(tracer.names) - 1)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.job.append(0)
    assert tracer.self_times() == {"cli": 3.0, "linalg": 2.0, "symrep": 1.0, "modp": 4.0}


_TRACED = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run, spans
from drinfeld import cli
tracer = spans.Tracer()
tracer.install()
for n, job in enumerate([["modp", "symgeom-check", "--q", "3", "--k", "4", "--i", "0"],
                         ["lattice", "--p", "2", "--k", "2", "--level", "1", "--offset", "0"],
                         ["lattice", "--p", "2", "--k", "2", "--level", "1", "--offset", "0"]]):
    code, out, err = tracer.run_job(n, lambda: run.invoke(cli.main, job))
    assert code == 0, err
print(json.dumps({k: v["value"] for k, v in tracer.metrics(0.0).items()}))
"""


def test_traced_run_counts_calls_made_through_imported_names():
    done = subprocess.run(
        [sys.executable, "-c", _TRACED, str(run.HERE), str(run.SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    metrics = json.loads(done.stdout)
    assert set(metrics) == set(spans.METRICS)
    # modp binds rref by name at import; its calls must still be counted.
    assert metrics["linalg.rref.calls"] > 0
    assert metrics["scalars.fq_mul"] > 0
    assert metrics["symrep.substitution_matrix.calls"] > 0
    assert metrics["lattices.vertex_lattice.calls"] == 2
    assert metrics["lattices.vertex_lattice.distinct"] == 1
    assert metrics["modp.self_s"] > 0 and metrics["cli.self_s"] > 0


def test_benchmark_file_names_the_reported_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == spans.METRICS


def test_missing_program_source_fails_without_a_result(tmp_path: Path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-cochains",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
