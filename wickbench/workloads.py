"""The three workloads: their inputs, their timed pass and their checks.

Each workload builds its inputs from a seed, runs one timed pass over them
and then checks the outputs against the independent oracles in
:mod:`oracles`.  The checks run after the pass and are not timed.

Inputs come in fixed shapes (which powers sit at which point slot, how
many terms, which sub-monomial a vertex rule names), drawn once from a
seed of the benchmark's own; the workload seed draws the point labels,
per triple or monomial, and every coefficient.  Drawing the shapes per
seed as well made the work of a pass differ by 10 % or more between seeds
(one twisted triple of total power 20 took 27 s where its neighbours took
under 1 s), so the spread between seeds measured the draw and not the
program.  With fixed shapes the seed still changes every label, every
coefficient and the sharing of memo-table entries between inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
from qftalg.coqts import RMode, chronological, twisted_product
from qftalg.expr import parse
from qftalg.hopf import Element, Generator, Monomial
from qftalg.renorm import Vertex, connected_T, renormalized_T, t_c_functional
from qftalg.scalar import PropPoly

COEFFS = (-3, -2, -1, 1, 2, 3)


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(COEFFS), rng.randint(1, 3))


def occ(mono: Monomial) -> tuple:
    """A qftalg monomial as the oracles' sorted occurrence tuple."""
    return tuple(sorted((g.point, g.power) for g in mono.occurrences()))


def poly(p: PropPoly) -> dict:
    """A qftalg polynomial as the oracles' dict form."""
    return {
        tuple(sorted((s.kind, s.a, s.b, e) for s, e in symmap)): c
        for symmap, c in p.terms.items()
    }


def scalar_part(element: Element) -> dict:
    """``{occurrences: constant term}``: the element with every
    propagator symbol set to zero."""
    out = {}
    for mono, c in element.terms.items():
        q = c.constant_term()
        if q:
            out[occ(mono)] = q
    return out


class Workload:
    """Inputs made from a seed, a timed pass over them and its checks.

    ``run()`` returns the operations' latencies; ``check()`` returns the
    number of operations that failed and a list of wrong outputs.  The
    worker times ``REF_SLICES`` reference slices before and after the pass.
    """

    REF_SLICES = 4

    def p50_latencies(self, latencies: list[float]) -> list[float]:
        """The latencies ``cmd_p50_ms`` is the median of."""
        return latencies


# ---------------------------------------------------------------------------
# twisted


class Twisted(Workload):
    """Seeded triples multiplied in both bracketings, in both modes."""

    POINTS = ("x1", "x2", "x3", "x4")
    TRIPLES = 40
    # sum over the triple of each element's largest total power; the cost
    # of a triple grows steeply with it
    POWER_CAP = 14

    @classmethod
    def shapes(cls) -> list:
        """Per triple, per element, the terms' ``(point slot, power)`` lists:
        1-3 distinct terms of 0-3 occurrences with powers <= 3."""
        rng = random.Random("wickbench twisted shapes")
        out = []
        while len(out) < cls.TRIPLES:
            triple = []
            for _ in range(3):
                terms = {
                    tuple(sorted((rng.randrange(4), rng.randint(1, 3))
                                 for _ in range(rng.randint(0, 3))))
                    for _ in range(rng.randint(1, 3))
                }
                triple.append(sorted(terms))
            cost = sum(max(sum(n for _, n in t) for t in el) for el in triple)
            if cost <= cls.POWER_CAP:
                out.append(triple)
        return out

    def __init__(self, seed: int, out_dir: Path, trace_child: bool):
        rng = random.Random(seed)
        self.triples = []
        for shape in self.shapes():
            points = rng.sample(self.POINTS, 4)
            triple = []
            for terms in shape:
                elem = {}
                for t in terms:
                    mono = Monomial.from_occurrences(Generator(points[slot], n) for slot, n in t)
                    elem[mono] = PropPoly.constant(_coeff(rng))
                triple.append(Element(elem))
            self.triples.append(tuple(triple))
        self.ops = 2 * len(self.triples)

    def run(self) -> list[float]:
        self.results = {}
        latencies = []
        for mode in (RMode.CHRONOLOGICAL, RMode.OPERATOR):
            for i, (u, v, w) in enumerate(self.triples):
                t0 = time.perf_counter()
                uv = twisted_product(u, v, mode)
                left = twisted_product(uv, w, mode)
                right = twisted_product(u, twisted_product(v, w, mode), mode)
                latencies.append(time.perf_counter() - t0)
                self.results[mode, i] = (uv, left, right)
        return latencies

    def check(self) -> tuple[int, list[str]]:
        errors = []
        for (mode, i), (uv, left, right) in self.results.items():
            u, v, _ = self.triples[i]
            kind = oracles.SYMMETRIC if mode is RMode.CHRONOLOGICAL else oracles.ORIENTED
            if left != right:
                errors.append(f"triple {i} {mode.value}: (uv)w != u(vw)")
            if mode is RMode.CHRONOLOGICAL and twisted_product(v, u, mode) != uv:
                errors.append(f"triple {i}: feynman product does not commute")
            normal = oracles.normal_product(scalar_part(u), scalar_part(v))
            if scalar_part(uv) != normal:
                errors.append(f"triple {i} {mode.value}: propagator-free part != u.v")
            for a in u.terms:
                for b in v.terms:
                    got = twisted_product(Element.from_monomial(a), Element.from_monomial(b), mode)
                    if poly(got.counit()) != oracles.contraction_table_sum(occ(a), occ(b), kind):
                        errors.append(f"triple {i} {mode.value}: eps({a} o {b}) != oracle")
        return 0, errors


# ---------------------------------------------------------------------------
# connected


class Connected(Workload):
    """``T_c``, ``t_c`` and ``T_R`` of seeded monomials."""

    POINTS = ("y1", "y2", "y3")
    MONOMIALS = 16
    POWER_CAP = 11

    @classmethod
    def shapes(cls) -> list:
        """Per monomial: 4-6 ``(point slot, power)`` occurrences with powers
        1-4 and total power between 2(p-1) and min(2p, 11), plus the power
        a vertex rule gives the sub-monomial of the first two occurrences."""
        rng = random.Random("wickbench connected shapes")
        out = []
        while len(out) < cls.MONOMIALS:
            p = rng.randint(4, 6)
            occurrences = sorted((rng.randrange(3), rng.randint(1, 4)) for _ in range(p))
            total = sum(n for _, n in occurrences)
            if 2 * (p - 1) <= total <= min(2 * p, cls.POWER_CAP):
                out.append((occurrences, rng.randint(1, 2)))
        return out

    def __init__(self, seed: int, out_dir: Path, trace_child: bool):
        rng = random.Random(seed)
        self.cases = []
        # One labelling for the whole pass: monomials share sub-monomials,
        # and relabelling each one apart changed which sub-monomials
        # coincide, and so the median operation, from seed to seed.
        points = rng.sample(self.POINTS, 3)
        for occurrences, pair_power in self.shapes():
            gens = [Generator(points[slot], n) for slot, n in occurrences]
            rules = {Monomial.of(g): _coeff(rng) * Element.from_generator(g)
                     for g in sorted(set(gens))}
            pair = Monomial.from_occurrences(gens[:2])
            rules[pair] = _coeff(rng) * Element.from_generator(Generator(gens[0].point, pair_power))
            self.cases.append((Monomial.from_occurrences(gens), gens, Vertex(rules)))
        self.ops = 3 * len(self.cases)

    def run(self) -> list[float]:
        self.results = []
        latencies = []
        for mono, _, vertex in self.cases:
            u = Element.from_monomial(mono)
            outputs = []
            for op in (lambda: connected_T(u), lambda: t_c_functional(mono),
                       lambda: renormalized_T(u, vertex)):
                t0 = time.perf_counter()
                outputs.append(op())
                latencies.append(time.perf_counter() - t0)
            self.results.append(tuple(outputs))
        return latencies

    def check(self) -> tuple[int, list[str]]:
        errors = []
        for (mono, gens, vertex), (tc_element, tc, tr) in zip(self.cases, self.results):
            if poly(tc) != oracles.multigraph_sum(occ(mono), connected_only=True)[0]:
                errors.append(f"{mono}: t_c != connected-multigraph oracle")
            if tc_element.counit() != tc:
                errors.append(f"{mono}: T_c(m).counit() != t_c(m)")
            blocks = {}
            expansion = Element.zero()
            tr_vacuum = {}
            for partition in oracles.set_partitions(list(range(len(gens)))):
                product = Element.one()
                images = {(): Fraction(1)}
                for block in partition:
                    sub = Monomial.from_occurrences(gens[k] for k in block)
                    if sub not in blocks:
                        blocks[sub] = (connected_T(Element.from_monomial(sub)), vertex.image(sub))
                    tc_block, image = blocks[sub]
                    product = product * tc_block
                    images = oracles.normal_product(
                        images, {occ(m): c.constant_term() for m, c in image.terms.items()})
                expansion = expansion + product
                oracles.poly_add_into(tr_vacuum, oracles.t_of_element(images))
            if chronological(mono) != expansion:
                errors.append(f"{mono}: T(m) != sum over partitions of prod T_c(m_B)")
            if poly(tr.counit()) != tr_vacuum:
                errors.append(f"{mono}: eps(T_R(m)) != sum over partitions of t(prod O(m_B))")
        return 0, errors


# ---------------------------------------------------------------------------
# cli


def family_sizes(random_count: int) -> dict:
    """``checked`` counts of ``qftalg check --law all``: every monomial of at
    most k occurrences of g generators (3 points, powers up to n) plus the
    random members; bialgebra checks ordered pairs."""

    def monomials(max_occurrences, max_power):
        g = 3 * max_power
        return sum(math.comb(g + k - 1, k) for k in range(max_occurrences + 1))

    default = monomials(3, 3) + random_count
    return {
        "coalgebra(delta)": default,
        "coalgebra(delta-prime)": default,
        "bialgebra": (monomials(2, 3) + random_count) ** 2,
        "comodule-coalgebra": monomials(3, 2) + random_count,
        "antipode": default,
    }


def _expr(occurrences) -> str:
    return "*".join(f"phi^{n}({pt})" if n > 1 else f"phi({pt})" for pt, n in occurrences)


class Cli(Workload):
    """One session of ``python -m qftalg`` commands, each in a fresh
    process, run one at a time."""

    POINTS = ("x1", "x2", "x3", "x4")
    RANDOM_COUNT = 4
    # a run holds only two or three sessions, so each brings more slices
    REF_SLICES = 12
    # (command, shape): the shapes are occurrence lists over point slots
    SHORT = (
        ("delta-json", [(0, 2), (1, 1), (2, 2)]),
        ("delta", [(0, 1), (0, 2), (3, 2)]),
        ("delta-prime-json", [(0, 1), (1, 1), (1, 1), (2, 2)]),
        ("delta-prime", [(1, 2), (2, 1), (3, 3)]),
        ("counit", [(0, 1), (1, 1)]),
        ("wick-feynman", ([(0, 1), (0, 1), (3, 2)], [(1, 2), (2, 2)])),
        ("wick-wightman", ([(0, 2), (1, 1)], [(2, 1), (3, 2)])),
        ("T", [(0, 1), (1, 1), (2, 2), (3, 2)]),
        ("t", [(0, 1), (1, 1), (2, 1), (3, 1), (0, 2)]),
        ("t", [(0, 2), (1, 2), (2, 2), (3, 2)]),
        ("Tc", [(0, 1), (1, 2), (2, 1), (3, 2)]),
        ("tc", [(0, 2), (1, 2), (2, 2), (3, 2)]),
        ("tc", [(0, 1), (1, 3), (2, 2), (3, 2)]),
        ("TR", [(0, 2), (1, 2), (2, 1), (3, 1)]),
        ("graphs-dot", [(0, 3), (1, 3), (2, 2), (3, 2), (0, 2)]),
        ("graphs-json-connected", [(0, 2), (1, 3), (2, 3), (3, 2), (1, 2)]),
    )

    def __init__(self, seed: int, out_dir: Path, trace_child: bool):
        rng = random.Random(seed)
        self.out_dir = out_dir
        self.trace_child = trace_child
        self.commands = []  # (argv, expected: callable(stdout) -> error or None)
        for name, shape in self.SHORT:
            points = rng.sample(self.POINTS, 4)

            def label(s):
                return [(points[slot], n) for slot, n in s]

            self.commands.append(self._short(name, label, shape, rng))
        bad_vertex = out_dir / "vertex-bad.json"
        bad_vertex.write_text('{"a":1}')
        # Both fail today with exit 1 and a traceback (ZeroDivisionError in
        # the parser, TypeError in Vertex.from_json); they pass once they
        # end with exit 2 and one line on stderr.
        self.failing = [
            ["t", "--expr", "1/0"],
            ["TR", "--expr", "phi(x1)*phi(x2)", "--vertex", str(bad_vertex)],
        ]
        self.check_argv = ["check", "--law", "all", "--output", "json",
                           "--seed", str(seed), "--random-count", str(self.RANDOM_COUNT)]
        self.ops = len(self.commands) + len(self.failing) + 1

    def _short(self, name, label, shape, rng):
        if name.startswith("wick"):
            lhs, rhs = label(shape[0]), label(shape[1])
            mode = name.split("-")[1]
            kind = oracles.SYMMETRIC if mode == "feynman" else oracles.ORIENTED
            want = oracles.contraction_table_sum(lhs, rhs, kind)
            argv = ["wick", "--mode", mode, "--lhs", _expr(lhs), "--rhs", _expr(rhs)]
            return argv, lambda out: _vacuum_is(out, want, exact=False)
        occurrences = sorted(label(shape))
        text = _expr(occurrences)
        if name.startswith("delta"):
            command = name.removesuffix("-json")
            argv = [command, "--expr", text]
            if name.endswith("-json"):
                return argv + ["--output", "json"], lambda out: _counit_laws_json(out, occurrences)
            return argv, lambda out: _counit_laws_pretty(out, text)
        if name == "counit":
            c0, c1 = _coeff(rng), _coeff(rng)
            argv = ["counit", "--expr", f"({c0}) + ({c1})*{text}"]
            return argv, lambda out: _vacuum_is(out, {(): c0}, exact=True)
        if name.startswith("graphs"):
            connected = name.endswith("connected")
            count = oracles.multigraph_sum(occurrences, connected)[1]
            argv = ["graphs", "--expr", text, "--format", "json" if "json" in name else "dot"]
            if connected:
                argv.append("--connected")
            return argv, lambda out: _graph_count_is(out, count, "json" in name)
        if name == "TR":
            return self._tr(occurrences, text, rng)
        connected = name.lower() == "tc"
        want = oracles.multigraph_sum(occurrences, connected)[0]
        return [name, "--expr", text], lambda out: _vacuum_is(out, want, exact=name.islower())

    def _tr(self, occurrences, text, rng):
        """A vertex file mapping each single generator and the first pair of
        occurrences to multiples of single generators."""
        rules, images = [], {}
        subsets = [[o] for o in sorted(set(occurrences))] + [occurrences[:2]]
        for sub in subsets:
            point, power = sub[0][0], (sub[0][1] if len(sub) == 1 else 1)
            c = _coeff(rng)
            source = {}
            for pt, n in sub:
                source[pt, n] = source.get((pt, n), 0) + 1
            rules.append({
                "from": [{"point": pt, "power": n, "mult": m} for (pt, n), m in source.items()],
                "to": [{"point": point, "power": power, "coeff": f"{c.numerator}/{c.denominator}"}],
            })
            images[tuple(sorted(sub))] = {((point, power),): c}
        path = self.out_dir / f"vertex-{len(self.commands)}.json"
        path.write_text(json.dumps(rules))
        want: dict = {}
        for partition in oracles.set_partitions(list(range(len(occurrences)))):
            product = {(): Fraction(1)}
            for block in partition:
                image = images.get(tuple(sorted(occurrences[k] for k in block)))
                if image is None:
                    break
                product = oracles.normal_product(product, image)
            else:
                oracles.poly_add_into(want, oracles.t_of_element(product))
        argv = ["TR", "--expr", text, "--vertex", str(path)]
        return argv, lambda out: _vacuum_is(out, want, exact=False)

    def _spawn(self, argv, env) -> tuple[subprocess.CompletedProcess, float]:
        t0 = time.perf_counter()
        if self.trace_child:
            trace_path = self.out_dir / f"trace-{len(self.traces)}.json"
            self.traces.append(trace_path)
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   repr(t0), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "qftalg", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
        return proc, time.perf_counter() - t0

    def run(self) -> list[float]:
        env = {k: v for k, v in os.environ.items() if k != "QFTALG_SEED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        self.traces = []
        runs = [self._spawn(argv, env)
                for argv in [a for a, _ in self.commands] + self.failing + [self.check_argv]]
        short, failing = len(self.commands), len(self.failing)
        self.short_runs = [proc for proc, _ in runs[:short]]
        self.failing_runs = [proc for proc, _ in runs[short:short + failing]]
        self.check_run = runs[-1][0]
        return [latency for _, latency in runs]

    def p50_latencies(self, latencies: list[float]) -> list[float]:
        """The short commands: neither ``check`` nor the failing two."""
        return latencies[:len(self.commands)]

    def check(self) -> tuple[int, list[str]]:
        errors = []
        for (argv, verify), proc in zip(self.commands, self.short_runs):
            if proc.returncode:
                problem = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            else:
                try:
                    problem = verify(proc.stdout)
                except Exception as exc:  # an unreadable output is a wrong output
                    problem = f"{type(exc).__name__}: {exc}"
            if problem:
                errors.append(f"{' '.join(argv)}: {problem}")
        failed = sum(
            1 for proc in self.failing_runs
            if proc.returncode != 2 or len(proc.stderr.splitlines()) != 1
        )
        errors += _check_report(self.check_run, family_sizes(self.RANDOM_COUNT))
        return failed, errors


def _vacuum_is(out: str, want: dict, exact: bool) -> str | None:
    """The output re-parses; its vacuum part (its whole value if exact)
    equals ``want``."""
    value = parse(out)
    if exact and any(not m.is_unit for m in value.terms):
        return f"not a scalar: {out.strip()[:200]}"
    if poly(value.counit()) != want:
        return f"vacuum part {value.counit()} differs from the oracle"
    return None


def _counit_laws_json(out: str, occurrences) -> str | None:
    """Exactly one term ``1 (x) m`` and one ``m (x) 1``, with coefficient 1."""
    mono = [{"point": pt, "power": n, "mult": m}
            for (pt, n), m in sorted({o: occurrences.count(o) for o in occurrences}.items())]
    one = [{"coeff": "1/1", "symbols": []}]
    terms = json.loads(out)
    left = [t for t in terms if t["slots"][0] == []]
    right = [t for t in terms if t["slots"][1] == []]
    if [t["slots"][1] for t in left] != [mono] or [t["slots"][0] for t in right] != [mono]:
        return "counit laws fail"
    if left[0]["coeff"] != one or right[0]["coeff"] != one:
        return "counit terms do not have coefficient 1"
    return None


def _counit_laws_pretty(out: str, text: str) -> str | None:
    mono = str(parse(text).sorted_terms()[0][0])
    terms = out.strip().split(" + ")
    if f"1 ⊗ {mono}" not in terms or f"{mono} ⊗ 1" not in terms:
        return "counit terms 1 ⊗ m and m ⊗ 1 missing"
    return None


def _graph_count_is(out: str, count: int, is_json: bool) -> str | None:
    got = len(json.loads(out)["graphs"]) if is_json else \
        sum(1 for line in out.splitlines() if line.startswith("graph G_"))
    return None if got == count else f"{got} graphs, oracle counts {count}"


def _check_report(proc, sizes: dict) -> list[str]:
    if proc.returncode:
        return [f"check: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
    reports = json.loads(proc.stdout)
    got = {r["law"]: r["checked"] for r in reports}
    errors = [f"check {r['law']}: {len(r['failures'])} failures" for r in reports if r["failures"]]
    if got != sizes:
        errors.append(f"check: checked {got}, expected {sizes}")
    return errors


WORKLOADS = {"twisted": Twisted, "connected": Connected, "cli": Cli}
