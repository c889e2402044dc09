"""Trusted emission: every synthesizer builds its gates through circuit.Emitter,
which skips the per-gate checks.  Each emitted circuit must equal the one the
checked path (Gate(...) plus Circuit.append) builds from the same values, and
its pre-built signature histogram must equal the one computed from its gates.
"""

import copy
import functools
import random

import pytest

from qrsmux import sumsynth
from qrsmux.analysis import primes_in
from qrsmux.circuit import Circuit, Gate
from qrsmux.galois import FieldSpec
from qrsmux.gf2m import build_code, expand_cmuladds, synth_cmuladd, synth_encoder_gf2m

SAMPLED_MOD_PRIMES = [2, 3, 5, 7, 17, 31, 61, 127, 131, 137, 257, 509, 1021]


def sum_circuits():
    for d in primes_in(2, 1021):
        yield f"synth_sum({d})", sumsynth.synth_sum(d)


def rca_circuits():
    for k in range(1, 11):
        yield f"synth_rca({k})", sumsynth.synth_rca(k)


def mod_circuits():
    for d in SAMPLED_MOD_PRIMES:
        yield f"synth_mod(plan({d}))", sumsynth.synth_mod(sumsynth.plan(d))


def cmuladd_circuits():
    for m in range(1, 9):
        f = FieldSpec.binary_extension(m)
        for n in range(max(1, f.order - 1)):
            yield f"synth_cmuladd(m={m}, n={n})", synth_cmuladd(f, n)


@functools.lru_cache(maxsize=None)
def encoder(m):
    return synth_encoder_gf2m(build_code(m, 1 << (m - 1)))


def expanded_circuits():
    for m in range(2, 9):
        expanded, _ = expand_cmuladds(encoder(m))
        assert expanded.sealed == encoder(m).sealed
        yield f"expand_cmuladds(m={m})", expanded


FAMILIES = {
    "synth_sum": sum_circuits,
    "synth_rca": rca_circuits,
    "synth_mod": mod_circuits,
    "synth_cmuladd": cmuladd_circuits,
    "expand_cmuladds": expanded_circuits,
}


def checked_copy(c: Circuit) -> Circuit:
    """c rebuilt gate by gate through Gate(...) and Circuit.append."""
    out = Circuit(c.table, meta=c.meta)
    for g in c.gates:
        out.append(Gate(g.kind, g.controls, g.targets, d=g.d, n=g.n, poly=g.poly))
    return out.seal()


@pytest.mark.parametrize("family", FAMILIES)
def test_trusted_gates_equal_checked_gates(family):
    for label, emitted in FAMILIES[family]():
        assert emitted.sealed, label
        checked = checked_copy(emitted)
        assert emitted.gates == checked.gates, label
        assert list(map(hash, emitted.gates)) == list(map(hash, checked.gates)), label


@pytest.mark.parametrize("family", FAMILIES)
def test_prebuilt_histogram_equals_computed(family):
    rng = random.Random(11)
    for label, emitted in FAMILIES[family]():
        prebuilt = list(emitted.signature_histogram().items())
        cleared = copy.copy(emitted)
        cleared._histogram = None
        assert prebuilt == list(cleared.signature_histogram().items()), label
        assert all(indices for _, indices in prebuilt), label

        n = len(emitted)
        for i in sorted({0, rng.randrange(n)}) if n else ():
            mutant = emitted.without_gate(i)
            # gate i leaves its signature; later gates move down one place, and
            # a signature whose first gate was i may now come later in use order
            shifted = [(key, tuple(j - (j > i) for j in indices if j != i)) for key, indices in prebuilt]
            want = sorted([(key, indices) for key, indices in shifted if indices], key=lambda kv: kv[1][0])
            assert list(mutant.signature_histogram().items()) == want, (label, i)
