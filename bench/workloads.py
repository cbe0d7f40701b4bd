"""The benchmark's workloads: seeded inputs, op lists and independent checks.

Every workload is a closed loop with one client: one op at a time, the
next op only after the previous one returned.  ``ops(index)`` builds the
op list of pass ``index`` from ``numpy.random.default_rng([seed, index])``,
so a seed fixes every input of every pass.  Each op's ``run`` is the timed
call into freespec; its ``check`` verifies the output with plain numpy
outside the timed region and raises ``CheckFailed`` when it is wrong.

* certify -- ``classify`` on points of the spin pencils, few and large
  calls: the Hermitian-direction, column and commutant systems and the
  ``perturbation_range`` step search dominate.
* cli -- one fresh ``python -m freespec.cli`` process per op, as users run
  it: interpreter start, import, tuple I/O and sphere scans dominate.
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

PSD_TOL = 1e-9       # freespec's default membership band
RANK_TOL = 1e-8      # freespec's default relative rank cutoff
ROUNDOFF = 1e-12     # slack between two eigensolves of the same matrix

SETUP_LIBRARY = ("import time\n"
                 "import freespec as fs\n"
                 "from freespec.pencil import ensure_bounded_flag\n"
                 "for g in (2, 3, 4):\n"
                 "    ensure_bounded_flag(fs.Pencil(fs.spin_tuple(g)))\n"
                 "print(time.monotonic())\n")
SETUP_CLI = "import time\nimport freespec.cli\nprint(time.monotonic())\n"


class CheckFailed(Exception):
    """An op's output failed its independent check."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: object      # () -> output; the only timed part
    check: object    # output -> None, or raises CheckFailed


@dataclass
class OpResult:
    kind: str
    seconds: float
    failed: bool
    correct: bool
    reason: str | None = None


def run_op(op, tracer=None):
    """Time one op, then check its output with the tracer paused."""
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # a raising op is a measured failure, not a crash
        seconds = time.perf_counter() - start
        from freespec.errors import FreespecError
        # freespec's own errors (exit 64/65/70 in the CLI) report that no
        # verdict was reached; anything else is a wrong behaviour.
        return OpResult(op.kind, seconds, True, isinstance(exc, FreespecError),
                        f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    with tracer.pause() if tracer is not None else contextlib.nullcontext():
        try:
            op.check(output)
        except Exception as exc:  # CheckFailed, or output too malformed to check
            return OpResult(op.kind, seconds, True, False, f"{type(exc).__name__}: {exc}")
    return OpResult(op.kind, seconds, False, True)


# --- plain-numpy reference computations ---------------------------------------

def pencil_matrix(A, X):
    """``I - sum_i A_i (x) X_i`` built with ``np.kron``."""
    L = np.eye(A.shape[1] * X.shape[1], dtype=complex)
    for Ai, Xi in zip(A, X):
        L -= np.kron(Ai, Xi)
    return L


def min_eig(A, X):
    return float(np.linalg.eigvalsh(pencil_matrix(A, X))[0])


def kernel_dim(A, X):
    """Eigenvalues of the pencil value within freespec's rank cutoff."""
    w = np.linalg.eigvalsh(pencil_matrix(A, X))
    return int(np.sum(np.abs(w) <= RANK_TOL * max(np.abs(w).max(), 1.0)))


def random_hermitian(rng, n):
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (G + G.conj().T)


def scaled_point(rng, A, n, scale):
    """Gaussian Hermitian tuple scaled so the pencil's smallest eigenvalue
    is ``1 - scale``: on the boundary at 1, inside below, outside above."""
    X = np.array([random_hermitian(rng, n) for _ in range(A.shape[0])])
    top = np.linalg.eigvalsh(np.eye(A.shape[1] * n) - pencil_matrix(A, X))[-1]
    return X * (scale / top)


def haar_conjugate(rng, X):
    n = X.shape[1]
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    Y = np.einsum("ab,ibc,dc->iad", U, X, U.conj())
    return 0.5 * (Y + Y.conj().transpose(0, 2, 1))


def direct_sum(*parts):
    g, n = parts[0].shape[0], sum(p.shape[1] for p in parts)
    out = np.zeros((g, n, n), dtype=complex)
    offset = 0
    for p in parts:
        out[:, offset:offset + p.shape[1], offset:offset + p.shape[1]] = p
        offset += p.shape[1]
    return out


def gell_mann_3():
    """lambda_1 ... lambda_8 in the standard order."""
    E = np.zeros((8, 3, 3), dtype=complex)
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        slot = (0, 3, 5)[k]
        E[slot, i, j] = E[slot, j, i] = 1.0
        E[slot + 1, i, j], E[slot + 1, j, i] = -1j, 1j
    E[2] = np.diag([1.0, -1.0, 0.0])
    E[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    return E


def write_tuple_file(path, mats):
    """The tuple-file format, written without freespec."""
    payload = {"format_version": "1", "size": int(mats.shape[1]), "length": int(mats.shape[0]),
               "hermitian": True,
               "matrices": [[[[float(z.real), float(z.imag)] for z in row] for row in M]
                            for M in mats]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def read_tuple_file(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    mats = np.array(payload["matrices"], dtype=float)
    return mats[..., 0] + 1j * mats[..., 1]


def is_spin_tuple(mats, g):
    """g Hermitian matrices with A_i A_j + A_j A_i = 2 delta_ij I."""
    if mats.shape[0] != g or not np.allclose(mats, mats.conj().transpose(0, 2, 1), atol=1e-12):
        return False
    eye = np.eye(mats.shape[1])
    return all(np.abs(mats[i] @ mats[j] + mats[j] @ mats[i] - 2.0 * (i == j) * eye).max() <= 1e-12
               for i in range(g) for j in range(i, g))


# --- workloads ------------------------------------------------------------------

class Context:
    """Where a run lives: the checkout, a scratch directory in it, the seed."""

    def __init__(self, root, workdir, seed):
        self.workdir, self.seed = workdir, seed
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def rng(self, index):
        return np.random.default_rng([self.seed, index])


def _library():
    import freespec
    import freespec.fixtures
    import freespec.pencil
    return freespec


def _spin_pencils(fs, sizes):
    pencils = {}
    for g in sizes:
        pencils[g] = fs.Pencil(fs.spin_tuple(g))
        fs.pencil.ensure_bounded_flag(pencils[g])
    return pencils


class Certify:
    name = "certify"
    setup_code = SETUP_LIBRARY
    sizes = ((3, (6, 10, 14)), (4, (6, 10)))
    points_per_size = 3

    def __init__(self, ctx):
        self.ctx = ctx

    def prepare(self):
        self.fs = fs = _library()
        self.pencils = _spin_pencils(fs, (3, 4))
        self.x4 = fs.fixtures.load_fixture("freeex4")[0].mats
        self.x6 = fs.fixtures.load_fixture("freeex6")[0].mats
        fs.classify(self.pencils[3], self.x4)  # pays numpy's lazy first-call costs

    def ops(self, index, inline=False):
        rng, fs = self.ctx.rng(index), self.fs
        ops = []
        for g, sizes in self.sizes:
            A = self.pencils[g].coefficients.mats
            for n in sizes:
                for _ in range(self.points_per_size):
                    ops.append(self._op(f"boundary_g{g}_n{n}", g, scaled_point(rng, A, n, 1.0),
                                        self._check_boundary))
        arveson = ((direct_sum(self.x4, self.x6), 16, 2), (direct_sum(self.x4, self.x6, self.x4), 22, 5))
        for X, kdim, cdim in arveson:
            ops.append(self._op(f"arveson_n{X.shape[1]}", 3, haar_conjugate(rng, X),
                                self._check_arveson, kdim, cdim))
        for X, kdim in ((self.x4, 6), (self.x6, 10)):
            ops.append(self._op(f"free_n{X.shape[1]}", 3, haar_conjugate(rng, X),
                                self._check_free, kdim))
        A = self.pencils[3].coefficients.mats
        ops.append(self._op("non_member", 3, scaled_point(rng, A, 10, 1.2), self._check_outside))
        ops.append(self._op("interior", 3, scaled_point(rng, A, 10, 0.7), self._check_inside))
        return ops

    def _op(self, kind, g, X, check, *expected):
        fs, pencil = self.fs, self.pencils[g]
        point = fs.HermitianTuple(X)
        A = pencil.coefficients.mats
        return Op(kind, lambda: fs.classify(pencil, point),
                  lambda cert: check(A, X, cert, *expected))

    def _verdict(self, cert, name):
        expect(cert.verdict.value == name, f"verdict {cert.verdict.value}, expected {name}")

    def _check_boundary(self, A, X, cert):
        self._verdict(cert, "boundary")
        expect(abs(min_eig(A, X)) <= PSD_TOL, "input is not a boundary point")
        w = cert.witness
        expect(w is not None and w.kind == "hermitian", "boundary verdict without a Hermitian witness")
        beta, alpha = np.asarray(w.direction), w.alpha
        expect(np.abs(beta - beta.conj().transpose(0, 2, 1)).max() <= 1e-12, "witness not Hermitian")
        expect(abs(np.linalg.norm(beta) - 1.0) <= 1e-9, "witness not unit norm")
        expect(alpha is not None and 0.0 < alpha < 1e6, f"perturbation range {alpha}")
        for sign in (1.0, -1.0):
            expect(min_eig(A, X + sign * alpha * beta) >= -PSD_TOL - ROUNDOFF,
                   f"X {'+-'[sign < 0]} alpha beta leaves the set")
        worst = min(min_eig(A, X + s * 1.01 * alpha * beta) for s in (1.0, -1.0))
        expect(worst < -PSD_TOL, "perturbation range is not maximal")

    def _check_arveson(self, A, X, cert, kdim, cdim):
        self._verdict(cert, "arveson")
        expect(cert.kernel_dim == kdim == kernel_dim(A, X), f"kernel dim {cert.kernel_dim}, expected {kdim}")
        expect(cert.commutant_dim == cdim, f"commutant dim {cert.commutant_dim}, expected {cdim}")
        w = cert.witness
        expect(w is not None and w.kind == "commutant", "arveson verdict without a commutant witness")
        C = np.asarray(w.direction)
        expect(np.abs(C - C.conj().T).max() <= 1e-12, "commutant witness not Hermitian")
        expect(max(np.abs(C @ Xi - Xi @ C).max() for Xi in X) <= 1e-8, "witness does not commute")
        scalar = np.trace(C) / C.shape[0] * np.eye(C.shape[0])
        expect(np.linalg.norm(C - scalar) >= 0.5, "commutant witness is scalar")

    def _check_free(self, A, X, cert, kdim):
        self._verdict(cert, "free")
        expect(abs(min_eig(A, X)) <= PSD_TOL, "free point is not on the boundary")
        expect(cert.kernel_dim == kdim == kernel_dim(A, X), f"kernel dim {cert.kernel_dim}, expected {kdim}")
        expect(cert.commutant_dim == 1, f"commutant dim {cert.commutant_dim}, expected 1")

    def _check_outside(self, A, X, cert):
        self._verdict(cert, "non-member")
        expect(min_eig(A, X) < -PSD_TOL, "point is a member")

    def _check_inside(self, A, X, cert):
        self._verdict(cert, "interior")
        expect(min_eig(A, X) > PSD_TOL, "point is not interior")

    @staticmethod
    def key_op(passes):
        # The typical classify of a boundary point: each boundary slot at its
        # median over the passes, averaged over the 15 slots (five sizes).
        # classify's cost varies by 12-23% from one seeded point to the next,
        # so the 3 n=14 points of a pass alone leave too few samples.
        typical = slot_medians(passes, lambda r: r.seconds)
        return statistics.mean(t for r, t in zip(passes[0], typical) if r.kind.startswith("boundary"))

    @staticmethod
    def named(passes):
        return {"classify_boundary_g3_n14_s": median_of(passes, "boundary_g3_n14"),
                "classify_boundary_g4_n10_s": median_of(passes, "boundary_g4_n10"),
                "classify_arveson_n14_s": median_of(passes, "arveson_n14")}


class Cli:
    name = "cli"
    setup_code = SETUP_CLI

    def __init__(self, ctx):
        self.ctx = ctx

    def prepare(self):
        fs = _library()
        import freespec.cli
        self.main = freespec.cli.main
        self.spin = {g: fs.spin_tuple(g).mats for g in (2, 3)}
        self.x4 = fs.fixtures.load_fixture("freeex4")[0].mats
        self.x6 = fs.fixtures.load_fixture("freeex6")[0].mats
        write_tuple_file(self._path("gm3.json"), gell_mann_3())

    def _path(self, name):
        return os.path.join(self.ctx.workdir, name)

    def ops(self, index, inline=False):
        rng, p = self.ctx.rng(index), self._path
        write_tuple_file(p("x4c.json"), haar_conjugate(rng, self.x4))
        write_tuple_file(p("x6c.json"), haar_conjugate(rng, self.x6))
        # Non-member of the 3-coordinate drop of the Gell-Mann pencil: the
        # compressions by e1 and e3 force X_3 <= 3/2, and here max eig X_3 = 2.
        X = np.array([random_hermitian(rng, 2) for _ in range(3)])
        X[2] *= 2.0 / np.linalg.eigvalsh(X[2])[-1]
        write_tuple_file(p("gmx.json"), X)
        spec = [
            ("fixture", ["spin-g8", "--out", p("g8.json"), "--json"], self._check_written("g8.json", 8)),
            ("membership", ["--pencil", p("g8.json"), "--point", "zeros", "--json"], self._check_zeros),
            ("fixture", ["spin-g3", "--out", p("g3.json"), "--json"], self._check_written("g3.json", 3)),
            ("fixture", ["freeex4", "--out", p("x4.json"), "--json"], self._check_freeex4_file),
            ("membership", ["--pencil", p("g3.json"), "--point", p("x4c.json"), "--json"],
             self._check_boundary_member),
            ("extreme", ["--pencil", "spin-g3", "--point", "freeex4", "--json"], self._check_free(6)),
            ("extreme", ["--pencil", p("g3.json"), "--point", p("x6c.json"), "--json"],
             self._check_free(10)),
            ("dilate", ["--pencil", "spin-g2", "--point", "zeros", "--out", p("dil.json"), "--json"],
             self._check_dilation),
            ("choi", ["--basis", "pauli", "--point", "pauli-conj", "--json"], self._check_choi),
            ("dual", ["--basis", "pauli", "--out", p("dual.json"), "--json"], self._check_dual),
            ("ball", ["--set", "matrix", "--point", "spin-g3", "--json"], self._check_matrix_ball),
            ("ball", ["--set", "wmax", "--point", "pauli", "--json"],
             self._check_one_sided("verdicts.witness_direction")),
            ("ball", ["--set", "qd", "--point", "pauli", "--json"],
             self._check_one_sided("verdicts.witness_direction")),
            ("drop", ["--pencil", "spin-g4", "--keep", "3", "--point", "freeex4", "--json"],
             self._check_registered_drop),
            ("drop", ["--pencil", p("gm3.json"), "--keep", "3", "--point", p("gmx.json"), "--json"],
             self._check_drop_search),
            ("hull", ["--generator", "simplex-remark-pencil", "--point", "0,-0.6667", "--json"],
             self._check_one_sided("verdicts.separating_direction")),
            ("chain", ["--g", "3", "--samples", "200", "--json"], self._check_chain),
            ("verify-paper", [], self._check_verify_paper),
        ]
        runner = self._inline if inline else self._process
        return [Op(command, (lambda argv=[command] + args: runner(argv)), check)
                for command, args, check in spec]

    def _process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "freespec.cli"] + argv, env=self.ctx.env,
                              cwd=self.ctx.workdir, capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stdout

    def _inline(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.main(argv)
        return code, out.getvalue()

    @staticmethod
    def _report(output, codes):
        code, stdout = output
        expect(code in codes, f"exit {code}, expected {sorted(codes)}")
        return json.loads(stdout)

    def _check_written(self, name, g):
        def check(output):
            self._report(output, {0})
            expect(is_spin_tuple(read_tuple_file(self._path(name)), g), f"{name} is not spin-g{g}")
        return check

    def _check_freeex4_file(self, output):
        self._report(output, {0})
        A, X = read_tuple_file(self._path("g3.json")), read_tuple_file(self._path("x4.json"))
        expect(abs(min_eig(A, X)) <= PSD_TOL and kernel_dim(A, X) == 6, "x4.json is not freeex4")

    def _check_zeros(self, output):
        report = self._report(output, {0})
        expect(report["verdicts.member"] is True, "zeros reported outside")
        expect(abs(report["margins.min_eigenvalue"] - 1.0) <= 1e-12, "pencil value at 0 is not I")

    def _check_boundary_member(self, output):
        report = self._report(output, {0})
        A, X = read_tuple_file(self._path("g3.json")), read_tuple_file(self._path("x4c.json"))
        expect(report["verdicts.boundary"] is True and report["verdicts.kernel_dim"] == 6
               == kernel_dim(A, X), "conjugated freeex4 is not a boundary point with kernel 6")
        expect(abs(report["margins.min_eigenvalue"] - min_eig(A, X)) <= 1e-12, "min eigenvalue differs")

    def _check_free(self, kdim):
        def check(output):
            report = self._report(output, {0})
            expect(report["verdicts.verdict"] == "free", f"verdict {report['verdicts.verdict']}")
            expect(report["verdicts.kernel_dim"] == kdim, f"kernel dim {report['verdicts.kernel_dim']}")
        return check

    def _check_dilation(self, output):
        report = self._report(output, {0})
        expect(report["verdicts.success"] is True, "dilation of zeros failed")
        Y = read_tuple_file(self._path("dil.json"))
        expect(Y.shape[1] == 1 + report["verdicts.steps"], "output size does not match the steps")
        expect(np.abs(Y[:, 0, 0]).max() <= 1e-12, "zeros is not the leading corner")
        expect(min_eig(self.spin[2], Y) >= -PSD_TOL - ROUNDOFF, "dilation left the set")

    def _check_choi(self, output):
        report = self._report(output, {1})
        expect(report["verdicts.member"] is False and report["margins.min_eigenvalue"] < -PSD_TOL,
               "refutation without a negative Choi eigenvalue")

    def _check_dual(self, output):
        self._report(output, {0})
        B = read_tuple_file(self._path("dual.json"))
        expect(B.shape == (3, 2, 2) and np.abs(B - B.conj().transpose(0, 2, 1)).max() <= 1e-12,
               "dual pencil is not a Hermitian 2x2 triple")

    def _check_matrix_ball(self, output):
        self._report(output, {1})
        top = np.linalg.eigvalsh(np.einsum("iab,ibc->ac", self.spin[3], self.spin[3]))[-1]
        expect(top > 1.0 + PSD_TOL, "spin-g3 lies in the matrix ball")

    def _check_one_sided(self, witness_key):
        def check(output):
            report = self._report(output, {1, 2})
            expect(output[0] == 2 or report[witness_key] is not None, "refutation without a witness")
        return check

    def _check_registered_drop(self, output):
        report = self._report(output, {0})
        expect(report["inputs.mode"] == "registered-exact", "drop did not use the registered case")
        expect(min_eig(self.spin[3], self.x4) >= -PSD_TOL, "freeex4 is not in spin-g3")

    def _check_drop_search(self, output):
        report = self._report(output, {2})
        expect(report["verdicts.witness_found"] is False, "witness found for a certified non-member")
        X = read_tuple_file(self._path("gmx.json"))
        expect(np.linalg.eigvalsh(X[2])[-1] > 1.5, "input is not a certified non-member")

    def _check_chain(self, output):
        report = self._report(output, {0})
        expect(report["verdicts.violations"] == [], "containment chain violated")

    @staticmethod
    def _check_verify_paper(output):
        code, stdout = output
        expect(code == 0, f"exit {code}")
        lines = [line for line in stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
        expect(len(lines) == 11 and all(line.startswith("PASS") for line in lines),
               f"{sum(line.startswith('PASS') for line in lines)} of 11 criteria passed")

    @staticmethod
    def key_op(passes):
        # The 17 commands other than verify-paper, one typical run each.
        # verify-paper alone gets 3 samples a run, and across ten seeds
        # their median spread by 26%; it is reported per layer instead.
        typical = slot_medians(passes, lambda r: r.seconds)
        return sum(t for r, t in zip(passes[0], typical) if r.kind != "verify-paper")

    @staticmethod
    def named(passes):
        return {"verify_paper_s": median_of(passes, "verify-paper")}


WORKLOADS = {w.name: w for w in (Certify, Cli)}


def median_of(passes, kind):
    times = [r.seconds for p in passes for r in p if r.kind == kind]
    return statistics.median(times) if times else 0.0


def slot_medians(passes, value):
    """Each op slot's median over passes: the ops of a typical pass.

    Every pass runs the same op list on fresh inputs, so slot k holds the
    same kind of op in each.  A slow spell of the machine stretches some
    ops of some passes; per-slot medians describe the typical pass.
    """
    return [statistics.median(value(p[k]) for p in passes) for k in range(len(passes[0]))]

