"""One benchmark process: set up, run its jobs timed, then check outputs.

Run as ``python3 perfbench/job.py SPEC.json`` with ``PYTHONPATH`` pointing
at the checkout's ``src``.  The spec names the process kind and its inputs;
the result file records when the process became ready (``time.monotonic``,
comparable with the parent's clock), each job's wall time, and each job's
output digest or law-check verdict.  Checks run after the last timed job.
With ``trace`` set, mixsym's public functions are wrapped before the jobs
run (set-up included) and the spans are written out at the end.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

t_import = time.perf_counter()
import mixsym.cli  # noqa: E402 - timed as part of set-up
from mixsym import classical, dualpair, hecke, mms  # noqa: E402
from mixsym.sl2 import GroupSpec  # noqa: E402
import_s = time.perf_counter() - t_import

import tracing  # noqa: E402


def digest(obj):
    text = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()[:32]


def exact_rows(mat):
    return [[str(Fraction(x)) for x in row] for row in mat]


def _operator(op):
    return digest({"name": op.name, "mat": exact_rows(op.mat)})


def operator_jobs(spec, tracer):
    """Set up the warm spaces; return the timed jobs on them."""
    spaces = {(f, n): mms.build_space(GroupSpec(f, n)) for f, n in spec["spaces"]}
    jobs = []
    for (family, level), sp in spaces.items():
        tag = f"ops/{family}/{level}"
        for q in (2, 3, 5, 7):
            jobs.append((f"{tag}/T{q}", lambda sp=sp, q=q: hecke.hecke_operator(sp, q),
                         _operator))
        jobs.append((f"{tag}/W", lambda sp=sp: hecke.atkin_lehner(sp), _operator))
        jobs.append((f"{tag}/conj", lambda sp=sp: hecke.complex_conjugation(sp),
                     _operator))
        if family == "gamma1":
            jobs.append((f"{tag}/diamond2", lambda sp=sp: hecke.diamond(sp, 2),
                         _operator))
        jobs.append((f"{tag}/classical_T3",
                     lambda sp=sp: classical.hecke_matrix(sp, 3),
                     lambda m: digest(exact_rows(m))))

        def pairing_g(sp=sp):
            pm = dualpair.pairing_matrix(sp)
            return pm, dualpair.verify_G_identity(sp, pm)

        jobs.append((f"{tag}/pairing_G", pairing_g,
                     lambda out: digest({"six": exact_rows(out[0].six_mat),
                                         "G": out[1]})))
    batch = spec["batch"]
    sp = spaces[tuple(batch["space"])]
    triples = [[tuple(m) for m in t] for t in batch["triples"]]

    def reduce_batch():
        span = tracer.span("bench.reduce_pair_batch") if tracer \
            else contextlib.nullcontext()
        with span:
            return [(mms.reduce_pair(sp, a, b), mms.reduce_pair(sp, b, c),
                     mms.reduce_pair(sp, a, c)) for a, b, c in triples]

    jobs.append((f"ops/{batch['space'][0]}/{batch['space'][1]}/reduce_pair_batch",
                 reduce_batch, None))
    return jobs


def cocycle_law(rows):
    """{g,g'} + {g',g''} = {g,g''} for every triple of the batch."""
    return all([x + y for x, y in zip(r1, r2)] == r3 for r1, r2, r3 in rows)


def cli_jobs(spec):
    argv, check = spec["argv"], spec["check"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = mixsym.cli.main(argv)
            except SystemExit as e:
                rc = e.code
        return rc, buf.getvalue()

    def check_output(out):
        rc, text = out
        if check == "report":
            items = [[i["id"], i["status"]] for i in json.loads(text)["items"]]
            return digest({"rc": rc, "items": items})
        if check == "file":
            with open(argv[argv.index("--out") + 1], "rb") as f:
                return digest({"rc": rc, "file": digest(f.read())})
        return digest({"rc": rc, "stdout": text})

    return [(spec["id"], run, check_output)]


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(mixsym.cli.__file__).startswith(src + os.sep):
        print(f"mixsym imported from {mixsym.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracing.install(tracer)
    kind = spec["kind"]
    if kind == "operators":
        jobs = operator_jobs(spec, tracer)
    else:
        jobs = cli_jobs(spec)
    ready = time.monotonic()

    outputs = []
    for job_id, fn, check in jobs:
        t0 = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as e:  # noqa: BLE001 - a raising job is a failed operation
            out, error = None, f"{type(e).__name__}: {e}"
        outputs.append((job_id, time.perf_counter() - t0, out, error, check))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = []
    for job_id, wall, out, error, check in outputs:
        rec = {"id": job_id, "wall_s": wall, "error": error}
        if error is None:
            try:
                if check is None:
                    rec["law_ok"] = cocycle_law(out)
                else:
                    rec["digest"] = check(out)
            except Exception as e:  # noqa: BLE001 - an unreadable output fails its check
                rec["error"] = f"check: {type(e).__name__}: {e}"
        results.append(rec)
    if tracer:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as f:
        json.dump({"ready": ready, "import_s": import_s, "peak_kib": peak_kib,
                   "jobs": results}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
