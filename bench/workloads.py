"""The three benchmark workloads.

Each workload builds what it needs in `setup` (lattice, book, first
input), makes the input of operation i in `prepare` (outside the timed
span), runs one operation in `run` (the timed span: only mildns calls),
checks each output in `check`, each round of operations in `check_round`,
and once per run, outside the timed operations, the slower properties in
`check_run`. The workload seed only chooses inputs; every operation gets
an input not used before in the run, so a cache keyed on the input cannot
show a gain that users would not see.
"""
from __future__ import annotations

import math

import numpy as np

import checks
from mildns import duhamel, lattice, norms, picard

BOOK = (2, 2.0, 0.0, 4.0)  # d, p, s, q_tilde: the critical d = 2 book
SCALE_FRACTION = 0.5  # data are scaled to this share of delta


def _book():
    return picard.build_exponent_book(*BOOK)


def _quad(book, nodes: int):
    return duhamel.QuadratureSpec(nodes, book.gamma_kato, book.alpha)


def _scaled(lat, data: np.ndarray, horizon: float, book) -> "lattice.VectorField":
    """The datum rescaled so its Kato-window smallness lhs is 0.5 * delta."""
    probe = lattice.VectorField(lat, data, lattice.PHYSICAL)
    lhs = picard.smallness_lhs(probe, horizon, book).lhs
    return lattice.VectorField(lat, data * (SCALE_FRACTION * book.delta / lhs), lattice.PHYSICAL)


def _random_band(lat, seed: int) -> np.ndarray:
    spec = lattice.DatumSpec(kind="random_band", seed=seed, k_min=1, k_max=4,
                             divergence_free=True)
    return lattice.realize_datum(spec, lat).data


def _check_solution(solution, box_len: float, delta: float) -> None:
    trace = solution.trace
    checks.check_converged(trace.converged, trace.ratios, trace.residual, trace.threshold)
    checks.check_divergence_free([f.data for f in solution.trajectory.fields], box_len)
    checks.check_scaled_smallness(solution.smallness.lhs, delta, SCALE_FRACTION)


def b_oracle_runs(n: int, box_len: float, horizon: float, book, mesh_nodes: int,
                  quad_nodes: int) -> list:
    """(times, fields) of B at the given mesh and at the doubled one, for
    the two single-mode heat flows of checks.ORACLE_U and checks.ORACLE_V
    (built with numpy, not with mildns's heat flow)."""
    lat = lattice.make_lattice(2, n, box_len)
    runs = []
    for factor in (1, 2):
        mesh = norms.quadratic_mesh(horizon, factor * mesh_nodes)

        def flow(mode, amplitude):
            return norms.Trajectory(lat, mesh, [
                lattice.VectorField(lat, checks.single_mode_flow(n, box_len, mode, amplitude, t),
                                    lattice.PHYSICAL)
                for t in mesh])

        out = duhamel.bilinear_trajectory(flow(*checks.ORACLE_U), flow(*checks.ORACLE_V),
                                          _quad(book, factor * quad_nodes))
        runs.append((mesh, [f.data for f in out.fields]))
    return runs


class Workload:
    name = ""
    round_size = 1
    field_shape = (2, 2, 32, 32)  # the reference kernel's arrays: B's tensor on n = 32

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self._first = None

    def setup(self) -> None:
        raise NotImplementedError

    def input(self, index: int):
        """Input of operation `index`; operation 0's is made during setup."""
        if index == 0 and self._first is not None:
            first, self._first = self._first, None
            return first
        return self.prepare(index)

    def prepare(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> dict:
        raise NotImplementedError

    def check_round(self, items) -> None:
        """Checks over one round of operations; most workloads have none."""

    def check_run(self) -> dict:
        raise NotImplementedError


# The Picard solve of the ladder/fluctuation experiments.
N, BOX, HORIZON, MESH, QUAD = 32, 2.0 * math.pi, 0.25, 16, 16


def small_datum(lat, book, seed: int):
    """A divergence-free random_band datum (k in [1, 4]) at 0.5 * delta."""
    return _scaled(lat, _random_band(lat, seed), HORIZON, book)


def solve(u0, book, **kwargs):
    return picard.solve_mild(u0, HORIZON, book, mesh_nodes=MESH, quad=_quad(book, QUAD),
                             **kwargs)


class PicardWorkload(Workload):
    """One solve_mild per operation."""

    name = "picard"

    def setup(self) -> None:
        self.lattice = lattice.make_lattice(2, N, BOX)
        self.book = picard.calibrate_thresholds(_book())  # the default corpus
        self.base_seed = int(self.rng.integers(2**31))
        self._first = self.prepare(0)
        self.first = None

    def prepare(self, index: int):
        return small_datum(self.lattice, self.book, self.base_seed + index)

    def run(self, u0):
        return solve(u0, self.book)

    def check(self, u0, solution) -> dict:
        _check_solution(solution, BOX, self.book.delta)
        if self.first is None:
            self.first = (u0, solution)
        return {"iterations": solution.trace.iterations,
                "max_ratio": max(solution.trace.ratios)}

    def check_run(self) -> dict:
        data, rate = checks.taylor_green(N, BOX, 1.0)
        u0 = _scaled(self.lattice, data, HORIZON, self.book)
        tg = solve(u0, self.book)
        _check_solution(tg, BOX, self.book.delta)
        checks.check_taylor_green(tg.trajectory.times, [f.data for f in tg.trajectory.fields],
                                  u0.data, rate)

        checks.require(self.first is not None, "no checked solve to restart")
        u0, heat_start = self.first
        zero_start = solve(u0, self.book, start="zero")
        _check_solution(zero_start, BOX, self.book.delta)
        checks.check_same_fixed_point([f.data for f in zero_start.trajectory.fields],
                                      [f.data for f in heat_start.trajectory.fields])

        errors = checks.check_b_oracle(
            *b_oracle_runs(N, BOX, HORIZON, self.book, MESH, QUAD), N, BOX)
        return {"taylor_green_iterations": tg.trace.iterations, "b_oracle_errors": errors}


class CalibrateWorkload(Workload):
    """One calibrate_thresholds per operation on a fresh 20-pair corpus."""

    name = "calibrate"

    def setup(self) -> None:
        self.book = _book()
        self.base_seed = int(self.rng.integers(2**31))
        self._first = self.prepare(0)
        self.first = None

    def prepare(self, index: int):
        # a corpus reads seeds seed .. seed + 2 * pairs - 1; keep them disjoint
        return picard.CorpusSpec(seed=self.base_seed + 40 * index, d=BOOK[0])

    def run(self, corpus):
        return picard.calibrate_thresholds(self.book, corpus)

    def check(self, corpus, book) -> dict:
        checks.check_thresholds(book.c_hat, book.delta, book.sigma, book.equiv_constant)
        checks.check_digest(book.calibration_digest, checks.calibration_digest(
            book.key, book.c_hat, book.delta, book.sigma, book.equiv_constant,
            corpus.to_dict()))
        if self.first is None:
            self.first = (corpus, book)
        return {"c_hat": book.c_hat}

    def check_run(self) -> dict:
        checks.require(self.first is not None, "no checked calibration to repeat")
        corpus, book = self.first
        again = picard.calibrate_thresholds(self.book, corpus)
        checks.check_digest(again.calibration_digest, book.calibration_digest)

        lat = lattice.make_lattice(corpus.d, corpus.n, corpus.box_len)
        mesh = norms.quadratic_mesh(corpus.horizon, corpus.mesh_nodes)
        quad = _quad(book, corpus.quad_nodes)
        pairs, ratios = [], []
        for i in range(corpus.pairs):
            u = norms.heat_trajectory(self._corpus_datum(lat, corpus, 2 * i), mesh)
            v = norms.heat_trajectory(self._corpus_datum(lat, corpus, 2 * i + 1), mesh)
            report = duhamel.bilinear_estimate_report(u, v, book, quad=quad, refine=False)
            pairs.append((u, v))
            ratios.append(report.ratio)
        checks.check_worst_ratio(book.c_hat, ratios)
        worst = int(np.argmax(ratios))
        doubled = duhamel.bilinear_estimate_report(*pairs[worst], book, quad=quad.doubled(),
                                                   refine=False).ratio
        checks.check_ratio_stability(ratios[worst], doubled)

        lat = lattice.make_lattice(2, N, BOX)
        _check_solution(solve(small_datum(lat, book, self.base_seed - 1), book), BOX, book.delta)

        errors = checks.check_b_oracle(
            *b_oracle_runs(corpus.n, corpus.box_len, corpus.horizon, book, corpus.mesh_nodes,
                           corpus.quad_nodes), corpus.n, corpus.box_len)
        return {"worst_ratio": ratios[worst], "worst_ratio_doubled": doubled,
                "b_oracle_errors": errors}

    @staticmethod
    def _corpus_datum(lat, corpus, index: int):
        """Corpus datum `index`, built as CorpusSpec documents it: seed
        corpus.seed + index, unit L2 norm, divergence-free."""
        spec = lattice.DatumSpec(kind="random_band", amplitude=1.0, seed=corpus.seed + index,
                                 k_min=corpus.k_min, k_max=corpus.k_max,
                                 divergence_free=True)
        return lattice.realize_datum(spec, lat)


class SpectralWorkload(Workload):
    """One power-law datum per operation: realise it, take its L2 norm and
    its heat-Besov norm on a 512^2 lattice.

    A round is four operations with r_inner within 1/16 octave of 0.5,
    0.25, 0.125 and 0.0625, so each round can be checked for the
    Lebesgue/Besov dichotomy."""

    name = "spectral"
    round_size = 4
    field_shape = (2, 512, 512)
    N, BOX, DECAY, R_OUTER = 512, 8.0, 1.0, 2.0
    LEVELS = (0.5, 0.25, 0.125, 0.0625)
    P, Q_TILDE = 2.0, 4.0
    SMOOTHNESS = 2 / Q_TILDE - 2 / P  # d/q_tilde - d/p = -1/2

    def setup(self) -> None:
        self.lattice = lattice.make_lattice(2, self.N, self.BOX)
        self._first = self.prepare(0)

    def prepare(self, index: int) -> float:
        level = index % len(self.LEVELS)
        shift = float(self.rng.random()) / 16.0
        # stay inside [0.0625, 0.5]: the smallest level moves up, the others down
        if level == len(self.LEVELS) - 1:
            return self.LEVELS[level] * 2.0**shift
        return self.LEVELS[level] * 2.0**-shift

    def run(self, r_inner: float):
        spec = lattice.DatumSpec(kind="power_law", decay=self.DECAY, r_inner=r_inner,
                                 r_outer=self.R_OUTER)
        u0 = lattice.realize_datum(spec, self.lattice)
        l2 = norms.lebesgue_norm(u0, self.P)
        report = norms.besov_norm_heat(u0, self.SMOOTHNESS, self.Q_TILDE)
        return l2, report

    def check(self, r_inner, out) -> dict:
        l2, report = out
        checks.check_power_law_l2(l2, r_inner, self.R_OUTER, self.N, self.BOX)
        checks.require(report.window_ok, "Besov grid left the lattice validity window")
        checks.require(math.isfinite(report.value) and report.value > 0,
                       f"Besov value {report.value!r}")
        return {"r_inner": r_inner, "l2": l2, "besov": report.value}

    def check_round(self, items) -> None:
        checks.check_dichotomy([r for r, _ in items], [out[0] for _, out in items],
                               [out[1].value for _, out in items])

    def check_run(self) -> dict:
        mode, amplitude = (1, 2), 1.0
        data = np.zeros((2, self.N, self.N))
        data[0] = checks.single_mode_flow(self.N, self.BOX, mode, (amplitude,), 0.0)[0]
        u = lattice.VectorField(self.lattice, data, lattice.PHYSICAL)
        value = norms.besov_norm_heat(u, self.SMOOTHNESS, self.Q_TILDE).value
        ksq = (2 * math.pi / self.BOX) ** 2 * (mode[0] ** 2 + mode[1] ** 2)
        expected = checks.single_mode_besov(
            self.SMOOTHNESS, ksq, checks.cos_lq_norm(amplitude, self.BOX, 2, self.Q_TILDE))
        checks.check_single_mode_besov(value, expected)
        return {"single_mode_besov": value, "single_mode_closed_form": expected}


WORKLOADS = {w.name: w for w in (PicardWorkload, CalibrateWorkload, SpectralWorkload)}
