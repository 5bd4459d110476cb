"""The benchmark's view of the package still holds.

``bench/layers.py`` names the package functions it traces in ``TARGETS``;
a renamed or deleted one otherwise shows only in a traced benchmark run.
Its ``Tracer`` replaces them while installed and derives counters from
what they see: the oracle's ``evaluate`` and the full rescores that
``split_scores`` makes, which the search must therefore look up at call
time.  ``bench/workloads.py`` runs the score-bound loop, whose pinned
bytes hold every per-path ``step`` and ``check_score_bound`` record.
Both modules are loaded from their files and not changed.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import brownmin.cli
from brownmin import BrownianOracle, MinimizerConfig, RngStream, run

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while its classes are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _target(module, cls, attr):
    owner = importlib.import_module(f"brownmin.{module}")
    return vars(getattr(owner, cls))[attr] if cls else getattr(owner, attr)


def test_every_traced_target_resolves_and_installs():
    layers = _load("layers")
    before = {t: _target(*t) for t in layers.TARGETS}
    with layers.Tracer().install():
        assert all(_target(*t) is not before[t] for t in layers.TARGETS)
    assert all(_target(*t) is before[t] for t in layers.TARGETS)


def test_score_bound_records_match_the_golden_hash(tmp_path):
    # 32 paths to n = 1 000 at lambda 1 and 8, one record per state
    workloads = _load("workloads")
    golden = json.loads((BENCH / "golden.json").read_text())
    job = workloads.score_bound_job(golden["seed"], tmp_path)
    assert hashlib.sha256(job.output).hexdigest() == golden["sha256"]["score-bound"]
    assert golden["sha256"]["score-bound"] == (
        "818aee3271561173925fab3f3f69266786906f8ec52897b30241933f1f101369")


def test_traced_simulate_sees_the_oracle_and_the_rescores(tmp_path):
    layers = _load("layers")
    argv = ["simulate", "--lambda", "1", "--steps", "300", "--seed", "3"]
    config = MinimizerConfig(lam=1.0, max_steps=300)
    plain = run(BrownianOracle(RngStream(3, 0)), config)[1]
    tracer = layers.Tracer()
    with tracer.install():
        assert brownmin.cli.main(argv + ["--out", str(tmp_path / "traced.csv")]) == 0
        traced = run(BrownianOracle(RngStream(3, 0)), config)[1]
    metrics = tracer.layer_metrics()
    assert metrics["oracle.BrownianOracle.evaluate.calls"] > 0
    assert 0.0 < metrics["minimizer.rescore_useful_ratio"] <= 1.0
    assert traced == plain
