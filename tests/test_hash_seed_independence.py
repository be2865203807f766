"""Same answer in every process: no result may follow string-hash order.

Python salts ``str`` hashes per process, so iterating a ``set`` of app
names can change float summation order between two runs of the same
command, and the result cache (keyed on inputs and code, not on the
hash seed) would then hold cells from both orders. Each subprocess
below prints digests of canonical outputs — one mix of every Fig. 13
design on both engines, an 8-chip fleet, a 4-tenant placement-service
replay and one 8-core trace-simulator run — under its own
``PYTHONHASHSEED``.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Runs in each subprocess: one ``name digest`` line per output.
PROGRAM = r"""
import hashlib

from repro.experiments.common import DEFAULT_DESIGNS
from repro.fleet import Scenario, run_fleet
from repro.model.api import run_model
from repro.model.workload import make_default_workload
from repro.serve.loadgen import build_scripts
from repro.serve.service import PlacementService
from repro.sim.tracesim import TraceSimulator
from repro.vtb.vtb import DESCRIPTOR_ENTRIES, PlacementDescriptor
from repro.workloads.traces import ZipfTrace


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


workload = make_default_workload(["xapian"], mix_seed=1, load="high")
for design in DEFAULT_DESIGNS:
    for engine in ("fast", "reference"):
        result = run_model(
            design=design, workload=workload, epochs=5, seed=1,
            engine=engine,
        )
        print(f"model/{design}/{engine}", digest(repr(result)))

fleet = run_fleet(Scenario(chips=8, epochs=4, seed=0), design="Jumanji")
print("fleet", digest(fleet.to_json()))

service = PlacementService()
fingerprints = []
for script in build_scripts(tenants=4, requests=4, seed=0):
    info = service.create_session(script.create)
    for epoch in range(len(script.factors)):
        decision = service.decide(
            info.session_id, script.telemetry(info, epoch)
        )
        fingerprints.append(decision.fingerprint())
print("serve", digest("\n".join(fingerprints)))

sim = TraceSimulator(bank_sets=64)
for c in range(8):
    banks = [(c % 4) * 5 + b for b in range(5)]
    sim.add_core(
        c,
        ZipfTrace(2000, alpha=0.9, seed=c, base_line=c << 32),
        vc_id=c,
        descriptor=PlacementDescriptor(
            [banks[i % len(banks)] for i in range(DESCRIPTOR_ENTRIES)]
        ),
        partition=f"app{c}",
    )
sim.run(300)
print("tracesim", digest(repr(sim.stats())))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    pythonpath = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", PROGRAM],
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": pythonpath},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1", "2", "random")
    }
    digests = {}
    for seed, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        digests[seed] = dict(line.split() for line in stdout.splitlines())
    reference = digests["0"]
    assert sum(n.startswith("model/") for n in reference) == 10
    assert {"fleet", "serve", "tracesim"} <= set(reference)
    for seed, outputs in digests.items():
        differing = sorted(
            name for name in reference if outputs[name] != reference[name]
        )
        assert not differing, f"PYTHONHASHSEED={seed}: {differing}"
