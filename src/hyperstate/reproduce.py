"""Reproduction report: recompute every published table and compare.

Each check mirrors one block of the published results at desk scale and
reports PASS/FAIL plus discrepancy notes.  Comparisons that hinge on
suspect published cells (the moment-witness A_4 table, extended sweep
rows) document the disagreement instead of failing: the exact-rational
pipeline and the dense-operator oracles adjudicate which side is wrong.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import reference_tables as ref
from .coherence import coherence_report, l1_coherence, rel_entropy_coherence
from .hypergraph import (
    Hypergraph,
    canonical_edges,
    complete_k_graph,
    edges_text,
    parse_edges,
    single_full_edge,
)
from .moments import (
    AgarwalTaraResult,
    agarwal_tara,
    m_moment_oracle,
    moment_sequences,
    mu_moment_oracle,
    stirling_coefficients,
    w_factor,
)
from .operators import (
    SpectralBoundReport,
    annihilation,
    number_operator,
    number_phase_commutator_dense,
    phase_operator_agreement,
    phase_operator_dense,
    quadrature_commutator,
    spectral_bound_check,
    variance,
    verify_structure,
)
from .squeezing import squeeze_report
from .state import hypergraph_state, membership_signs
from .sweep import (
    METRIC_NAMES,
    Family,
    SweepResults,
    SweepSummary,
    _require_threads,
    render_results,
    sweep_family,
)

VALUE_TOL = 1e-3
EXACT_TOL = 1e-9
# Column of each metric in ``SweepResults.values``.
_COLUMN = {name: i for i, name in enumerate(METRIC_NAMES)}


# The check methods of ``Reproducer``, in report order.
CHECKS = (
    "check_example_state",
    "check_single_full_table",
    "check_example_statistics",
    "check_dminus1_extrema",
    "check_complete_k_table",
    "check_witness_small",
    "check_moment_identities",
    "check_a4_crosscheck",
    "check_coherence",
    "check_structure_suite",
    "check_stated_eigenvalue_bound",
    "check_quadrature_claims",
    "check_no_number_squeezing",
    "check_determinism",
)


@dataclass(frozen=True)
class CheckResult:
    key: str
    name: str
    status: str  # "PASS" or "FAIL"
    detail: str
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "notes": list(self.notes),
        }


def _result(key: str, name: str, failures: list[str], detail: str, notes: list[str]) -> CheckResult:
    if failures:
        joined = "; ".join(failures[:4]) + ("; ..." if len(failures) > 4 else "")
        return CheckResult(key, name, "FAIL", joined, tuple(notes))
    return CheckResult(key, name, "PASS", detail, tuple(notes))


def _dminus1_edge_count(text: str, d: int) -> int | None:
    """Number of edges of ``text`` when each is a (d-1)-subset of the d vertices, else None."""
    edges = canonical_edges(parse_edges(text))
    if all(len(e) == d - 1 and set(e) <= set(range(d)) for e in edges):
        return len(edges)
    return None


def _matches_up_to_relabeling(expected: str, candidates: tuple[str, ...], d: int) -> bool:
    """Does some candidate edge set equal the (d-1)-uniform ``expected`` after relabeling?

    Each edge of a (d-1)-uniform set leaves out one vertex, and a relabeling can
    send any set of left-out vertices to any other of the same size, so two such
    sets are relabelings of each other exactly when they have the same number of
    edges.  A set that is not (d-1)-uniform matches nothing.
    """
    count = _dminus1_edge_count(expected, d)
    return count is not None and any(_dminus1_edge_count(c, d) == count for c in candidates)


@dataclass
class Reproducer:
    """Runs the reproduction checks; every check reads a family's sweep from one memo."""

    extended: bool = False
    threads: int = 1
    _sweeps: dict[tuple, tuple[SweepResults, SweepSummary]] = field(default_factory=dict)
    _bounds: dict[int, SpectralBoundReport] = field(default_factory=dict)
    _witnesses: dict[tuple[int, int], AgarwalTaraResult] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        _require_threads(self.threads)

    def sweep(self, kind: str, d: int, k: int | None = None) -> tuple[SweepResults, SweepSummary]:
        """``sweep_family`` of ``Family(kind, d, k)``, run once per family and shared by every check."""
        key = (kind, d, k)
        if key not in self._sweeps:
            self._sweeps[key] = sweep_family(Family(kind, d, k), threads=self.threads)
        return self._sweeps[key]

    def spectral_bound(self, dim: int, comm: np.ndarray | None = None) -> SpectralBoundReport:
        """``spectral_bound_check`` at ``dim``, run once for C10 and C10b.

        ``comm`` is the dense [N, P] at ``dim`` when the caller already built it.
        """
        if dim not in self._bounds:
            self._bounds[dim] = spectral_bound_check(dim, comm)
        return self._bounds[dim]

    def witness(self, d: int, n: int) -> AgarwalTaraResult:
        """``agarwal_tara(d, n)``, evaluated once per (d, n) and shared by C6, C7 and C8."""
        if (d, n) not in self._witnesses:
            self._witnesses[(d, n)] = agarwal_tara(d, n)
        return self._witnesses[(d, n)]

    # --- individual checks -------------------------------------------------

    def check_example_state(self) -> CheckResult:
        g = Hypergraph(4, ref.EXAMPLE_STATE_EDGES)
        psi = hypergraph_state(g)
        signs = tuple(int(round(float(a.real) * 4)) for a in psi)
        failures = []
        if signs != ref.EXAMPLE_STATE_SIGNS:
            failures.append(f"signs {signs} != published {ref.EXAMPLE_STATE_SIGNS}")
        return _result("C1", "example state amplitudes", failures,
                       "all 16 published signs reproduced", [])

    def check_single_full_table(self) -> CheckResult:
        failures = []
        for d, expected in sorted(ref.SINGLE_FULL_S_P.items()):
            got = self.sweep("single-full", d)[0][0].metrics["s_p"]
            if got is None or abs(got - expected) >= VALUE_TOL:
                failures.append(f"d={d}: s_p={got} vs published {expected}")
        return _result("C2", "single full-hyperedge squeezing (d=4..13)", failures,
                       "all 10 published values within 1e-3", [])

    def check_example_statistics(self) -> CheckResult:
        g = Hypergraph(4, ref.EXAMPLE_STATE_EDGES)
        report = squeeze_report(g)
        psi = hypergraph_state(g)
        dense_var_n = variance(number_operator(16), psi)
        failures = []
        for label, got, expected in (
            ("var_p", report.var_p, ref.EXAMPLE_STATE_VAR_P),
            ("var_n", report.var_n, ref.EXAMPLE_STATE_VAR_N),
            ("half_comm", report.half_comm, ref.EXAMPLE_STATE_HALF_COMM),
        ):
            if abs(got - expected) >= VALUE_TOL:
                failures.append(f"{label}={got:.6f} vs published {expected}")
        if abs(dense_var_n - report.var_n) >= EXACT_TOL:
            failures.append(f"dense var_n {dense_var_n!r} != closed form {report.var_n!r}")
        if report.s_p is None or report.s_p <= 0:
            failures.append(f"example state should not be phase squeezed, s_p={report.s_p}")
        return _result("C3", "published example statistics", failures,
                       f"var_p={report.var_p:.4f} var_n={report.var_n} half={report.half_comm:.4f}", [])

    def check_dminus1_extrema(self) -> CheckResult:
        failures: list[str] = []
        notes: list[str] = []
        gated = (5, 6, 7, 8)
        extended = (9, 10, 11, 12) if self.extended else ()
        for d in gated + extended:
            pub_max, pub_max_sets, pub_min, pub_min_sets = ref.DMINUS1_S_P[d]
            summary = self.sweep("dminus1", d)[1].metrics["s_p"]
            hard = d in gated
            for label, pub_value, pub_sets, got_value, got_sets in (
                ("max", pub_max, pub_max_sets, summary.max_value, summary.argmax),
                ("min", pub_min, pub_min_sets, summary.min_value, summary.argmin),
            ):
                if got_value is None or abs(got_value - pub_value) >= VALUE_TOL:
                    message = (f"d={d} {label}: computed {got_value} vs published {pub_value}")
                    if hard:
                        failures.append(message)
                    else:
                        notes.append(
                            "suspected misprint in the (d-1)-graph extrema table: " + message
                        )
                if not all(_matches_up_to_relabeling(pub, got_sets, d) for pub in pub_sets):
                    message = f"d={d} {label}: extremal edge sets {got_sets} vs published {pub_sets}"
                    if hard:
                        failures.append(message)
                    else:
                        notes.append("extended row, edge sets differ: " + message)
        scope = "d=5..12" if self.extended else "d=5..8"
        return _result("C4", f"(d-1)-graph squeezing extrema ({scope})", failures,
                       "published extrema and edge sets reproduced", notes)

    def check_complete_k_table(self) -> CheckResult:
        failures = []
        for (d, k), expected in sorted(ref.COMPLETE_K_S_P.items()):
            if d > 8 and not self.extended:
                continue
            got = self.sweep("complete-k", d, k)[0][0].metrics["s_p"]
            if got is None or abs(got - expected) >= VALUE_TOL:
                failures.append(f"d={d},k={k}: s_p={got} vs published {expected}")
        scope = "d<=11" if self.extended else "d<=8"
        return _result("C5", f"complete k-graph squeezing ({scope})", failures,
                       "all populated published cells within 1e-3", [])

    def check_witness_small(self) -> CheckResult:
        from fractions import Fraction

        failures = []
        a2_d2 = self.witness(2, 2)
        if a2_d2.a_n != Fraction(-1, 6):
            failures.append(f"A_2(d=2) = {a2_d2.a_n} != -1/6")
        a2_d3 = self.witness(3, 2)
        if a2_d3.a_n != Fraction(1, 2):
            failures.append(f"A_2(d=3) = {a2_d3.a_n} != 1/2")
        a3_d3 = self.witness(3, 3)
        if a3_d3.det_m != Fraction(-245, 4) or a3_d3.det_mu != Fraction(441, 4):
            failures.append(
                f"n=3, d=3 determinants {a3_d3.det_m}, {a3_d3.det_mu} != -245/4, 441/4"
            )
        for d, expected in ((3, -0.3571), (4, -0.2160), (5, 0.1862)):
            got = float(self.witness(d, 3).a_n)
            if abs(got - expected) >= 1e-4:
                failures.append(f"A_3(d={d}) = {got:.5f} vs published {expected}")
        return _result("C6", "moment witness A_2/A_3 tables", failures,
                       "exact fractions and published decimals agree", [])

    def check_moment_identities(self) -> CheckResult:
        failures = []
        sequences = {d: moment_sequences(d, (1 << d) - 1) for d in range(1, 7)}
        for d, (m, mu) in sequences.items():
            for k in range(len(m)):
                if m[k] != m_moment_oracle(d, k):
                    failures.append(f"m_{k}(d={d}) disagrees with the summation oracle")
                if 1 <= k and mu[k] != mu_moment_oracle(d, k):
                    failures.append(f"mu_{k}(d={d}) disagrees with the power-sum oracle")
        # The published W_k against the closed form and against m_k = W_1 ... W_k.
        for d, row in ref.W_FACTOR_TABLE.items():
            m = sequences[d][0]
            for k, published in enumerate(row, start=1):
                if not published == w_factor(d, k) == m[k] / m[k - 1]:
                    failures.append(f"published W_{k}(d={d}) = {published}, closed form {w_factor(d, k)}, "
                                    f"m_{k}/m_{k - 1} = {m[k] / m[k - 1]}")
        if ref.STIRLING_TRIANGLE != stirling_coefficients(len(ref.STIRLING_TRIANGLE)):
            failures.append("published Stirling triangle differs from S(k, j)")
        # Third route: dense-matrix expectation of the ordered ladder powers,
        # evaluated on two different hypergraphs per d to confirm the moments
        # ignore the edge structure.
        for d in range(2, 6):
            dim = 1 << d
            lower = annihilation(dim)
            for g in (single_full_edge(d), complete_k_graph(d, max(2, d - 1))):
                vec = hypergraph_state(g)
                for k in range(1, dim):
                    vec = lower @ vec
                    dense = float(np.vdot(vec, vec).real)
                    exact = float(sequences[d][0][k])
                    if abs(dense - exact) > EXACT_TOL * max(1.0, abs(exact)):
                        failures.append(
                            f"dense <(a+)^{k} a^{k}> on {g.d}-vertex graph differs from exact"
                        )
        notes = [disc.describe() for disc in ref.witness_discrepancies(witness=self.witness)]
        return _result("C7", "moment identities (three routes, exact)", failures,
                       "product, summation, and dense routes agree for d<=6", notes)

    def check_a4_crosscheck(self) -> CheckResult:
        failures = []
        for d in (3, 4, 5):
            result = self.witness(d, 4)
            m, mu = moment_sequences(d, 6)
            m_float = np.array([[float(m[i + j]) for j in range(4)] for i in range(4)])
            mu_float = np.array([[float(mu[i + j]) for j in range(4)] for i in range(4)])
            det_m = float(np.linalg.det(m_float))
            det_mu = float(np.linalg.det(mu_float))
            a4_float = det_m / (det_mu - det_m)
            if abs(a4_float - float(result.a_n)) > 1e-9 * max(1.0, abs(float(result.a_n))):
                failures.append(f"d={d}: float-determinant A_4 {a4_float} vs exact {float(result.a_n)}")
        notes = [disc.describe() for disc in ref.witness_discrepancies(n=4, witness=self.witness)]
        return _result("C8", "A_4 exact vs float determinants", failures,
                       "exact-rational and float evaluations agree to 1e-9", notes)

    def check_coherence(self) -> CheckResult:
        failures: list[str] = []
        notes: list[str] = []
        ln2 = math.log(2.0)
        for d in range(1, 11):  # closed forms against the general measures on the built state
            g = single_full_edge(d) if d > 1 else Hypergraph(1)
            report, psi = coherence_report(g, "number"), hypergraph_state(g)
            if report.c_l1 != l1_coherence(psi):
                failures.append(f"d={d}: number-basis c_l1 {report.c_l1!r} != l1_coherence")
            if abs(report.c_rel_ent - rel_entropy_coherence(psi)) > 1e-12 * d * ln2:
                failures.append(f"d={d}: number-basis entropy {report.c_rel_ent!r} != rel_entropy_coherence")
        for d, printed in sorted(ref.NUMBER_BASIS_ENTROPY.items()):
            if abs(d * ln2 - printed) >= VALUE_TOL:
                failures.append(f"d={d}: published entropy row {printed} vs {d * ln2:.4f}")
        # Phase-basis extrema over connected (d-1)-graphs; d=4 is the gate,
        # further rows are compared and documented when extended.
        gated = (4,)
        extended_ent = tuple(range(5, 11)) if self.extended else ()
        extended_l1 = tuple(range(5, 9)) if self.extended else ()
        for metric, table, rows in (
            ("c_rel_phase", ref.PHASE_BASIS_ENTROPY, gated + extended_ent),
            ("c_l1_phase", ref.PHASE_BASIS_L1, gated + extended_l1),
        ):
            for d in rows:
                pub_max, pub_max_sets, pub_min, pub_min_sets = table[d]
                summary = self.sweep("dminus1", d)[1].metrics[metric]
                hard = d in gated
                for label, pub_value, pub_sets, got_value, got_sets in (
                    ("max", pub_max, pub_max_sets, summary.max_value, summary.argmax),
                    ("min", pub_min, pub_min_sets, summary.min_value, summary.argmin),
                ):
                    ok_value = got_value is not None and abs(got_value - pub_value) < VALUE_TOL
                    ok_sets = all(_matches_up_to_relabeling(p, got_sets, d) for p in pub_sets)
                    if hard and not ok_value:
                        failures.append(
                            f"{metric} d={d} {label}: computed {got_value} vs published {pub_value}"
                        )
                    elif hard and not ok_sets:
                        failures.append(
                            f"{metric} d={d} {label}: edge sets {got_sets} vs published {pub_sets}"
                        )
                    elif not (ok_value and ok_sets):
                        notes.append(
                            f"suspected misprint in the phase-basis {metric} table: d={d} {label} "
                            f"published {pub_value}, computed {got_value}"
                        )
        return _result("C9", "coherence closed forms and phase-basis extrema", failures,
                       "number-basis closed forms exact; published d=4 extrema reproduced", notes)

    def check_structure_suite(self) -> CheckResult:
        failures = []
        rng = np.random.default_rng(20240809)
        for dim in (4, 8, 16, 64, 256):
            phase_op = phase_operator_dense(dim)
            report = verify_structure(phase_op)
            if not (report.hermitian.holds and report.circulant.holds):
                failures.append(f"dim={dim}: phase operator not Hermitian circulant")
            states = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(3)]
            states = [state / np.linalg.norm(state) for state in states]
            spectral_error, fft_error = phase_operator_agreement(phase_op, states)
            if spectral_error > 1e-10:
                failures.append(f"dim={dim}: entry formula differs from spectral sum")
            comm = number_phase_commutator_dense(dim)
            comm_report = verify_structure(comm)
            if not (comm_report.skew_hermitian.holds and comm_report.toeplitz.holds):
                failures.append(f"dim={dim}: [N,P] not skew-Hermitian Toeplitz")
            if float(np.max(np.abs(np.diag(comm)))) > 0.0:
                failures.append(f"dim={dim}: [N,P] diagonal not exactly zero")
            bound = self.spectral_bound(dim, comm)
            if not bound.within_row_sum:
                failures.append(f"dim={dim}: eigenvalue beyond the row-sum Gershgorin bound")
            if bound.spectral_radius > np.pi * (dim - 1) ** 2 / 2 + 1e-12:
                failures.append(f"dim={dim}: eigenvalue beyond pi(dim-1)^2/2")
            if fft_error > 1e-10:
                failures.append(f"dim={dim}: FFT application differs from dense")
        # Robertson bound on every swept record; an undefined (NaN) value violates it.
        checked = 0
        for d in (4, 5, 6, 7, 8):
            results = self.sweep("dminus1", d)[0]
            var_n, var_p, half = (results.values[:, _COLUMN[m]] for m in ("var_n", "var_p", "half_comm"))
            checked += len(results)
            for i in np.flatnonzero(~(var_n * var_p >= half * half * (1.0 - 1e-9))).tolist():
                failures.append(f"Robertson violation at d={d}, edges {results.edges[i]}")
        return _result("C10", "phase-operator structure suite", failures,
                       f"structure, spectra, FFT agreement, Robertson on {checked} states", [])

    def check_stated_eigenvalue_bound(self) -> CheckResult:
        failures = []
        notes = [
            "the published closed form 2pi(D-1)^2/(4D^2) drops a D^2 factor in the "
            "row-sum evaluation and cannot bound the spectrum: at D=2 the commutator "
            "is [[0, pi/2], [-pi/2, 0]] with eigenvalues +-pi/2 while the formula "
            "gives pi/8; the published |<[N,P]>| = 2 x 1.8624 at d=4 already exceeds "
            "the formula value 1.3806 there",
            "the matrix row sums themselves, and the corrected relaxation "
            "pi(D-1)^2/2, do bound every eigenvalue (verified in the structure suite)",
        ]
        for dim in (4, 8, 16, 64, 256):
            bound = self.spectral_bound(dim)
            if bound.spectral_radius > bound.stated_bound:
                failures.append(
                    f"dim={dim}: spectral radius {bound.spectral_radius:.4f} > stated {bound.stated_bound:.4f}"
                )
        return _result("C10b", "stated eigenvalue bound formula", failures,
                       "eigenvalues within the stated closed form", notes)

    def check_quadrature_claims(self) -> CheckResult:
        failures = []
        notes = []
        commutators: dict[tuple[int, int], np.ndarray] = {}

        def commutator(dim: int, k: int) -> np.ndarray:
            if (dim, k) not in commutators:
                commutators[dim, k] = quadrature_commutator(dim, k)
            return commutators[dim, k]

        # Every k-uniform hypergraph at d = 2..4, and at d = 5, 6 the single full
        # edge and the first five (d-1)-graphs, a family's states at once: with x
        # its sign rows, <psi|C|psi> = x.C x / dim for psi = x / sqrt(dim).
        families = [(Family("k-uniform", d, k), None) for d in (2, 3, 4) for k in range(1, d + 1)]
        families += [(Family(kind, d), 5) for d in (5, 6) for kind in ("single-full", "dminus1")]
        count = 0
        for family, top in families:
            d, rows = family.d, family.rows[:top]
            signs = membership_signs(d, family.edges, rows)
            values = [np.sum(signs * (signs @ commutator(1 << d, k).T), axis=1) / (1 << d) for k in (1, 2)]
            count += len(rows)
            for i in np.flatnonzero(~np.all(np.abs(values) <= 1e-10, axis=0)).tolist():
                text = edges_text(Hypergraph(d, itertools.compress(family.edges, rows[i])))
                failures.extend(f"<[X^{k},P^{k}]> = {complex(value[i])} on d={d}, edges {text}"
                                for k, value in zip((1, 2), values) if not abs(value[i]) <= 1e-10)
        for g in (single_full_edge(3), Hypergraph(4, ref.EXAMPLE_STATE_EDGES), complete_k_graph(4, 3)):
            psi = hypergraph_state(g)
            for k in (3, 4):
                value = complex(np.vdot(psi, commutator(g.dim, k) @ psi))
                # Within the check's tolerance a value is round-off (exactly 0 for k = 4 on a
                # real state: the commutator is real antisymmetric), so its digits are not printed.
                shown = ("0 (within 1e-10)" if abs(value) <= 1e-10 else
                         f"{value.real:.6g}{value.imag:+.6g}j (nonzero; the all-k claim fails here)")
                notes.append(f"claim verification: <[X^{k},P^{k}]> on d={g.d} edges {edges_text(g)} = {shown}")
        return _result("C11", "quadrature commutator nullity (k=1,2)", failures,
                       f"zero within 1e-10 on {count} hypergraph states", notes)

    def check_no_number_squeezing(self) -> CheckResult:
        failures = []
        notes = []
        count = 0
        swept = [self.sweep("dminus1", d)[0] for d in (4, 5, 6, 7, 8)]
        for d in range(2, 9):
            swept.append(self.sweep("single-full", d)[0])
            swept.extend(self.sweep("complete-k", d, k)[0] for k in range(2, d + 1))
        for results in swept:
            s_n = results.values[:, _COLUMN["s_n"]]
            undefined = np.isnan(s_n)
            count += len(results) - int(np.count_nonzero(undefined))
            for i in np.flatnonzero(undefined).tolist():
                notes.append(f"s_n undefined at d={results.d}, edges {results.edges[i]}")
            for i in np.flatnonzero(s_n < 0).tolist():
                failures.append(f"S_N = {s_n[i].item()} < 0 at d={results.d}, edges {results.edges[i]}")
        return _result("C12", "no number squeezing over swept families (d<=8)", failures,
                       f"S_N >= 0 on all {count} swept configurations", notes)

    def check_determinism(self) -> CheckResult:
        failures = []
        family = Family("dminus1", 6)
        records_1, _ = sweep_family(family, threads=1)
        records_8, _ = sweep_family(family, threads=8)
        for fmt in ("csv", "json"):
            if render_results(records_1, fmt) != render_results(records_8, fmt):
                failures.append(f"{fmt} output differs between 1 and 8 threads")
        return _result("C13", "thread-count determinism", failures,
                       "1-thread and 8-thread sweeps render byte-identically", [])

    # --- driver -------------------------------------------------------------

    def run(self) -> list[CheckResult]:
        """Every check in report order; ``timings`` then maps each key to its wall seconds."""
        results = []
        self.timings = {}
        for name in CHECKS:
            start = time.perf_counter()
            results.append(getattr(self, name)())  # through the instance, so a wrapped method runs
            self.timings[results[-1].key] = time.perf_counter() - start
        return results

    # --- plot series ----------------------------------------------------------

    def plot_series(self) -> dict[str, list[tuple[int, float]]]:
        """Metric-vs-d series for the published scatter figures."""
        series: dict[str, list[tuple[int, float]]] = {}
        series["single_full_s_p"] = [
            (d, self.sweep("single-full", d)[0][0].metrics["s_p"]) for d in range(4, 14)
        ]
        top = 12 if self.extended else 8
        for label, metric in (("s_p", "s_p"), ("entropy", "c_rel_phase"), ("l1", "c_l1_phase")):
            lo: list[tuple[int, float]] = []
            hi: list[tuple[int, float]] = []
            start = 5 if metric == "s_p" else 4
            for d in range(start, top + 1):
                summary = self.sweep("dminus1", d)[1].metrics[metric]
                if summary.min_value is not None:
                    lo.append((d, summary.min_value))
                if summary.max_value is not None:
                    hi.append((d, summary.max_value))
            series[f"dminus1_{label}_min"] = lo
            series[f"dminus1_{label}_max"] = hi
        series["number_basis_l1"] = [(d, float((1 << d) - 1)) for d in range(4, 11)]
        series["number_basis_entropy"] = [(d, d * math.log(2.0)) for d in range(4, 11)]
        return series


def render_text(results: list[CheckResult]) -> str:
    lines = []
    for result in results:
        lines.append(f"{result.status:4s} {result.key:3s} {result.name}: {result.detail}")
        for note in result.notes:
            lines.append(f"       - {note}")
    failed = sum(1 for r in results if r.status == "FAIL")
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines) + "\n"
