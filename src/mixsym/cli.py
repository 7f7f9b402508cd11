"""Command-line front end: verification suites and space serialization.

Subcommands:

  mixsym verify --suite {rank,manin,hecke,pairing,eis,all} [options]
  mixsym export --family {gamma0,gamma1,full} --level N [--out PATH]
  mixsym import PATH

Exit codes: 0 every assertion passed, 1 assertion failure, 2 usage error,
3 I/O error.  Conjecture-level checks (the pairing determinant value) are
emitted with status "report" and only fail the run under --strict.
"""

import argparse
import errno
import json
import math
import os
import sys

from . import __version__
from .sl2 import GroupSpec, InvalidSpecError
from .mms import (DocumentMismatchError, InvalidInputError, build_space,
                  cusp_cokernel_invariants, expected_homology_index,
                  expected_manin_index, homology_index_in_kernel,
                  kernel_pi_invariants, manin_index, space_from_dict,
                  space_to_dict)
from . import classical, dualpair, eis, hecke
from .zlattice import factor, mat_mul, mat_scale

DEFAULT_LEVELS = [5, 7, 11, 13]
DEFAULT_PRIMES = [2, 3, 5, 7]
DEFAULT_PN = [5, 7, 9, 11, 13, 25]
# Largest --primes and --pn values.  T_q sums over q + 1 coset representatives,
# and M' has phi(p^n)^2 / 4 entries: under a 1 GiB address-space cap, T_99991 at
# Gamma0(11) peaks at 33 MiB of RSS and the eis suite at p^n = 997 at 65 MiB.
MAX_PRIME = 10**5
MAX_PN = 1000


class Reporter:
    def __init__(self, suite):
        self.suite = suite
        self.items = []

    def add(self, item_id, status, detail):
        self.items.append({"id": item_id, "status": status, "detail": detail})

    def check(self, item_id, ok, detail=""):
        self.add(item_id, "pass" if ok else "fail", detail)
        return ok

    def report(self, item_id, detail):
        self.add(item_id, "report", detail)

    def failed(self):
        return [i for i in self.items if i["status"] == "fail"]

    def to_dict(self):
        return {"suite": self.suite, "items": self.items, "version": __version__}

    def to_markdown(self):
        lines = [f"# Suite: {self.suite}", "", "| id | status | detail |",
                 "|---|---|---|"]
        for i in self.items:
            lines.append(f"| {i['id']} | {i['status']} | {i['detail']} |")
        return "\n".join(lines) + "\n"


def _spaces(family, levels):
    for lvl in levels:
        yield lvl, build_space(GroupSpec(family, lvl))


def suite_rank(rep, family, spaces, **_):
    for lvl, sp in spaces:
        expected = 2 * sp.genus + 2 * (sp.n_cusp - 1)
        rep.check(f"rank/{family}/{lvl}", sp.rank == expected,
                  f"rank={sp.rank} expected={expected} genus={sp.genus} cusps={sp.n_cusp}")
        ker = kernel_pi_invariants(sp)
        cok = cusp_cokernel_invariants(sp)
        rep.check(f"exact-sequence/{family}/{lvl}", ker == cok,
                  f"ker(pi)={ker} coker={cok}")
        idx = homology_index_in_kernel(sp)
        exp = expected_homology_index(sp)
        rep.check(f"homology-index/{family}/{lvl}", idx == exp,
                  f"index={idx} expected={exp}")


def suite_manin(rep, family, spaces, **_):
    for lvl, sp in spaces:
        idx = manin_index(sp)
        exp = expected_manin_index(sp)
        p = _odd_prime_base(lvl)
        in_theorem = p is not None and p >= 5
        detail = f"index={idx} expected={exp}"
        if in_theorem or lvl == 1:
            rep.check(f"manin-index/{family}/{lvl}", idx == exp, detail)
        else:
            rep.report(f"manin-index/{family}/{lvl}", detail + " (outside proved range)")


def _odd_prime_base(m):
    """The prime p if m is a power of an odd prime p, else None."""
    try:
        return eis._odd_prime_power(m)[0]
    except eis.UnsupportedModulusError:
        return None


def suite_hecke(rep, family, spaces, primes, **_):
    for lvl, sp in spaces:
        tag = f"{family}/{lvl}"
        if sp.rank == 0:
            rep.check(f"hecke/{tag}", True, "rank 0, nothing to check")
            continue
        ops = []
        for q in primes:
            op = hecke.hecke_operator(sp, q)
            ops.append(op)
            if lvl % q != 0 and q != 2:
                rep.check(f"integral/T{q}/{tag}", op.is_integral(),
                          f"denominator={op.denominator}")
            elif lvl % q == 0:
                rep.check(f"denominator/U{q}/{tag}", q % op.denominator == 0,
                          f"denominator={op.denominator} divides {q}")
            else:
                rep.check(f"denominator/T{q}/{tag}", 2 % op.denominator == 0,
                          f"denominator={op.denominator}")
        conj = hecke.complex_conjugation(sp)
        ok = all(hecke.operators_commute(a, b)
                 for i, a in enumerate(ops) for b in ops[i + 1:])
        rep.check(f"commutation/{tag}", ok, f"primes={primes}")
        rep.check(f"conj-squared/{tag}",
                  hecke.compose(conj, conj) == hecke.identity_operator(sp), "")
        rep.check(f"conj-commutes/{tag}",
                  all(hecke.operators_commute(conj, op) for op in ops), "")
        for q, op in zip(primes, ops):
            cl = classical.hecke_matrix(sp, q)
            lhs = mat_mul(op.num, sp.pi_basis)
            rhs = mat_scale(op.den, mat_mul(sp.pi_basis, cl))
            rep.check(f"pi-equivariance/T{q}/{tag}", lhs == rhs, "")
        if family == "gamma0" and _odd_prime_base(lvl) == lvl:
            for q, op in zip(primes, ops):
                scale = 1 if lvl % q == 0 else q + 1
                cs = sp.cusp_sublattice()
                img = mat_mul(cs, op.num)
                want = mat_scale(op.den * scale, cs)
                rep.check(f"eisenstein-action/T{q}/{tag}", img == want,
                          f"T_q acts by {scale} on ker(pi)")


def suite_pairing(rep, family, spaces, strict=False, **_):
    for lvl, sp in spaces:
        tag = f"{family}/{lvl}"
        pm = dualpair.pairing_matrix(sp)
        info = dualpair.perfectness_report(sp, pm)
        rep.check(f"antisymmetry/{tag}", info["antisymmetric"], "")
        rep.check(f"six-integral/{tag}", info["six_times_integral"], "")
        if sp.rank:
            conj = hecke.complex_conjugation(sp)
            rep.check(f"conj-anti-invariance/{tag}",
                      dualpair.conj_anti_invariance(sp, pm, conj), "")
            rep.check(f"perfectness/{tag}", info["perfect_after_inverting"],
                      f"perfect over Z[1/{info['inverted']}], "
                      f"invariants={[str(f) for f in info['invariants']]}")
            w = hecke.atkin_lehner(sp)
            q = next((q for q in (3, 5, 7, 11) if (2 * lvl) % q != 0), None)
            if q is not None:
                t = hecke.hecke_operator(sp, q)
                rep.check(f"adjointness/T{q}/{tag}",
                          dualpair.adjointness_check(sp, pm, t, w), "")
            try:
                n = dualpair.verify_G_identity(sp, pm)
                rep.check(f"G-identity/{tag}", True, f"{n} functionals")
            except Exception as e:  # noqa: BLE001 - reported, not raised
                rep.check(f"G-identity/{tag}", False, str(e))
        det_ok = info["abs_pfaffian"] == info["expected_abs_det"]
        detail = (f"|det|={info['abs_det']} |Pf|={info['abs_pfaffian']} "
                  f"conjectured={info['expected_abs_det']} "
                  "(det of an antisymmetric form is the square of its Pfaffian)")
        if strict:
            rep.check(f"det-conjecture/{tag}", det_ok, detail)
        else:
            rep.report(f"det-conjecture/{tag}", detail +
                       (" MATCH" if det_ok else " MISMATCH: conjecture falsified?"))


def _is_eisenstein_eigenform(a, p):
    """Whether a_1 .. a_N of ``a`` (a_1 != 0) satisfy the Hecke relations of
    an eigenform on Gamma0(p) with T_l = 1 + l for primes l != p and U_p = 1:

      a_l = (1 + l)*a_1 (l != p),  a_p = a_1,
      a_1*a_mn = a_m*a_n for coprime m and n,
      a_1*a_(l^(k+1)) = a_l*a_(l^k) - l*a_1*a_(l^(k-1)) (the last term only for l != p).

    Together they fix every a_n from a_1.
    """
    top = len(a) - 1
    a1 = a[1]
    if not a1:
        return False
    for ell in range(2, top + 1):
        if factor(ell) != {ell: 1}:
            continue
        if a[ell] != (a1 if ell == p else (1 + ell) * a1):
            return False
        q = ell
        while q * ell <= top:
            drop = 0 if ell == p else ell * a1 * a[q // ell]
            if a1 * a[q * ell] != a[ell] * a[q] - drop:
                return False
            q *= ell
    return all(a1 * a[m * n] == a[m] * a[n]
               for m in range(2, top + 1) for n in range(m + 1, top // m + 1)
               if math.gcd(m, n) == 1)


def suite_eis(rep, pn_list, tol, **_):
    for pn in pn_list:
        r1, r2 = eis.logdet_identity(pn, tol=tol)
        for r in (r1, r2):
            rep.check(f"{r.identity}/{pn}", r.passed and abs(complex(r.lhs)) > 0,
                      f"lhs={r.lhs!r} rhs={r.rhs!r} rel_error={r.rel_error:.3e}")
        p = _odd_prime_base(pn)
        if p == pn:
            data = eis.gamma0p_constants(p)
            coeff_ok = _is_eisenstein_eigenform(data["coefficients"], p)
            nz = data["L_value"] != 0 and data["period_vector"][1] != 0
            rep.check(f"gamma0p-constants/{p}", coeff_ok and nz,
                      f"d={data['d']} n={data['n']} L(E,1)={data['L_value']:.6f}")


SUITES = {
    "rank": suite_rank,
    "manin": suite_manin,
    "hecke": suite_hecke,
    "pairing": suite_pairing,
    "eis": suite_eis,
}


def _write(text, path):
    """Write ``text`` to ``path``, or to stdout when it is None; 3 on OSError, else 0.

    Stdout is flushed here, so a full device fails inside the handler and
    not at exit; a closed stdout (None, or a closed file) fails as EBADF.
    """
    try:
        if path:
            with open(path, "w") as f:
                f.write(text)
        elif sys.stdout is None or sys.stdout.closed:
            raise OSError(errno.EBADF, "stdout is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as e:
        print(f"error: cannot write {path or 'stdout'}: {e}", file=sys.stderr)
        if not path:
            _discard_stdout()
        return 3
    return 0


def _discard_stdout():
    """Point stdout's descriptor at os.devnull after a failed write.

    The buffer keeps the bytes it could not write, and the interpreter
    flushes it again at exit; without this that flush fails too, prints
    "Exception ignored" and turns the exit code into 120.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor behind stdout: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def run_verify(args):
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    rep = Reporter(args.suite)
    # every suite takes **_, so all of them get the same keywords; the spaces
    # are built once and shared, unless the eis suite, which needs none, runs alone
    kwargs = {"family": args.family, "primes": args.primes,
              "pn_list": args.pn, "tol": args.tol, "strict": args.strict,
              "spaces": [] if suites == ["eis"] else list(_spaces(args.family, args.levels))}
    for name in suites:
        SUITES[name](rep, **kwargs)
    text = (json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"
            if args.format == "json" else rep.to_markdown())
    if _write(text, args.out):
        return 3
    failures = rep.failed()
    if failures:
        print("failing items:", file=sys.stderr)
        for i in failures:
            print(f"  {i['id']}: {i['detail']}", file=sys.stderr)
        return 1
    return 0


def run_export(args):
    doc = space_to_dict(build_space(GroupSpec(args.family, args.level)))
    return _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def run_import(args):
    try:
        with open(args.path) as f:
            doc = json.load(f)
    except OSError as e:
        print(f"error: cannot read {args.path}: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        print(f"error: {args.path}: document nested too deeply", file=sys.stderr)
        return 2
    try:
        space = space_from_dict(doc)
    except DocumentMismatchError as e:
        print(f"mismatch: {args.path}: {e}", file=sys.stderr)
        return 1
    except (InvalidInputError, InvalidSpecError) as e:
        print(f"error: {args.path}: {e}", file=sys.stderr)
        return 2
    return _write(f"ok: {space.spec.label()} rank {space.rank}\n", None)


def _int_list(s):
    try:
        xs = [int(x) for x in s.split(",") if x]
    except ValueError:
        xs = []
    if not xs:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {s!r}")
    return xs


def _at_most(xs, bound):
    """xs, unless one is above ``bound``; checked before any value is factored."""
    big = [x for x in xs if x > bound]
    if big:
        raise argparse.ArgumentTypeError(f"larger than the bound of {bound}: {big}")
    return xs


def _prime_list(s):
    qs = _at_most(_int_list(s), MAX_PRIME)
    bad = [q for q in qs if factor(q) != {q: 1}]
    if bad:
        raise argparse.ArgumentTypeError(f"not prime: {bad}")
    return qs


def _odd_prime_power_list(s):
    ms = _at_most(_int_list(s), MAX_PN)
    bad = [m for m in ms if _odd_prime_base(m) is None]
    if bad:
        raise argparse.ArgumentTypeError(f"not an odd prime power: {bad}")
    return ms


def _tolerance(s):
    try:
        tol = float(s)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite positive number, got {s!r}")
    return tol


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixsym",
        description="Exact mixed modular symbols: verification suites and export.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   choices=["rank", "manin", "hecke", "pairing", "eis", "all"])
    v.add_argument("--family", choices=["gamma0", "gamma1"], default="gamma0")
    v.add_argument("--levels", type=_int_list, default=DEFAULT_LEVELS,
                   help="comma-separated levels")
    v.add_argument("--primes", type=_prime_list, default=DEFAULT_PRIMES,
                   help="comma-separated Hecke primes")
    v.add_argument("--pn", type=_odd_prime_power_list, default=DEFAULT_PN,
                   help="comma-separated odd prime powers for the eis suite")
    v.add_argument("--tol", type=_tolerance, default=eis.DEFAULT_TOL,
                   help=f"finite positive tolerance (default: {eis.DEFAULT_TOL})")
    v.add_argument("--strict", action="store_true",
                   help="fail on conjecture-level mismatches too")
    v.add_argument("--out", default=None)
    v.add_argument("--format", choices=["json", "markdown"], default="json")
    v.set_defaults(fn=run_verify)

    e = sub.add_parser("export", help="serialize a symbol space to JSON")
    e.add_argument("--family", choices=["gamma0", "gamma1", "full"],
                   required=True)
    e.add_argument("--level", type=int, default=1)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=run_export)

    i = sub.add_parser("import", help="load and re-verify a serialized space")
    i.add_argument("path")
    i.set_defaults(fn=run_import)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidSpecError, ValueError, argparse.ArgumentTypeError,
            OverflowError, MemoryError) as e:
        # a MemoryError usually has no message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
