"""One sha256 per solver run, to check that a refactor leaves traces bit-identical.

Runs every zoo kind under mst, mst+mu, amst, amst from L0 = L/1024 (several
trials at k = 0), amst+eps, umst and sumst with gaussian and with noiseless
("none") mini-batches; the kinds with a linear image run a second time with
``linear=None``, which runs on the identity image z = x with the difference
descent check (named ``<kind>:plain``), like the kinds without one.  Run with
``--iters 2000`` too: only the long runs reach the k = 995 and k = 1821
overflows, which show bit identity in the error lines.  Prints one line
per case: the case name and a sha256 over every in-memory trace column (name,
dtype and values), the trace meta, final_x, the counters, and the CSV and
JSON text that emit_trace writes for the trace, so that a change to the
writer's bytes shows as well.  A run that raises after its first row digests
the partial report it carries and names the error after the digest; a run
that raises before prints the error alone.  Run it on two versions of the
code and diff the output:

    PYTHONPATH=src python demos/trace_digest.py > after.txt

Usage: python demos/trace_digest.py [--iters 300]
"""

import argparse
import dataclasses
import hashlib
import os
import tempfile

import numpy as np

from triangle_opt import (ZOO_KINDS, NoiseModel, SolverConfig, TriangleOptError,
                          emit_trace, make_problem, run)

EPSILON = 1e-3
SUMST_D = 0.1


def _configs(meta: dict, iters: int) -> dict:
    L = meta.get("L", 1.0)
    mu = meta.get("mu") or 1e-2
    sumst = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=SUMST_D,
                         max_iters=iters)
    return {
        "mst": SolverConfig(mode="mst_exact_L", L_known=L, max_iters=iters),
        "mst+mu": SolverConfig(mode="mst_exact_L", L_known=L, mu=mu, max_iters=iters),
        "amst": SolverConfig(mode="amst_adaptive", max_iters=iters),
        "amst@L/1024": SolverConfig(mode="amst_adaptive", L0=L / 1024, max_iters=iters),
        "amst+eps": SolverConfig(mode="amst_adaptive", epsilon=EPSILON, max_iters=iters),
        "umst": SolverConfig(mode="umst_universal", epsilon=EPSILON, max_iters=iters),
        "sumst": (sumst, "gaussian"),
        "sumst-none": (sumst, "none"),
    }


def _cases(iters: int):
    for kind in ZOO_KINDS:
        problem = make_problem(kind)
        objectives = {kind: problem.objective}
        if problem.objective.linear is not None:
            objectives[f"{kind}:plain"] = dataclasses.replace(problem.objective, linear=None)
        configs = _configs(problem.objective.smoothness_meta or {}, iters)
        for label, base in objectives.items():
            for name, config in configs.items():
                objective = base
                if isinstance(config, tuple):
                    config, noise = config
                    objective = dataclasses.replace(base, noise_model=NoiseModel(kind=noise))
                yield f"{label}/{name}", objective, problem.setup, config, 0


def _column_bytes(col: np.ndarray) -> bytes:
    # a batch size past 2**63 makes an object column, whose raw bytes are
    # pointers: hash those columns by value
    if col.dtype == object:
        return repr(col.tolist()).encode()
    return col.tobytes()


def digest(report, workdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(report.trace.data):
        col = np.asarray(report.trace.data[name])
        h.update(f"{name}:{col.dtype.str}:".encode())
        h.update(_column_bytes(col))
    h.update(repr(sorted(report.trace.meta.items())).encode())
    h.update(np.ascontiguousarray(report.final_x).tobytes())
    h.update(repr((report.iterations, report.total_f_calls, report.total_grad_calls,
                   report.total_stoch_calls, report.certified_gap)).encode())
    for fmt in ("csv", "json"):
        with open(emit_trace(report.trace, fmt, os.path.join(workdir, f"trace.{fmt}")),
                  "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=300)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        for name, objective, setup, config, rng in _cases(args.iters):
            try:
                line = digest(run(objective, setup, config, rng), workdir)
            except TriangleOptError as exc:
                line = f"error: {type(exc).__name__}: {exc}"
                report = getattr(exc, "report", None)
                if report is not None:
                    line = f"{digest(report, workdir)} {line}"
            print(f"{name} {line}", flush=True)


if __name__ == "__main__":
    main()
