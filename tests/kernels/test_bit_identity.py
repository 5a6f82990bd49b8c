"""Verification values of MG, CG, BT, SP, FT and EP, to the last bit.

MG, CG, BT and SP are the four benchmarks whose drivers dispatch the
catalogued slab kernels (``repro.kernels.registry``).  Their constants
below are class-S verification values as ``float.hex()``, captured at
commit ``44b98db`` -- the last tree in which the drivers reached their
kernels through a by-name, per-tier lookup -- on serial, threads x2 and
process x2.  A driver that ever dispatches anything but the same
arithmetic (a second form of a kernel, a reordered chain, another
reduction order) changes a bit here.

FT's six checksums (re and im) were captured on the commit that made
``repro.ft.fft.fft_rows`` the four-step (two stacked matmuls per row;
its parent is ``71a1690``), equal on serial, threads x2, threads x3 and
process x2: each row's transform is the same arithmetic whichever slab
holds it (``test_fft_rows.py`` proves that for any row split).

EP's ``sx``/``sy`` were captured at ``64b08a3``, the last tree whose
46-bit generator split each multiply into 23-bit halves: they pin the
NPB random stream itself, end to end.  Two workers add two partial sums,
so their last bit differs from one worker's.

The last bit of a float reduction belongs to the platform as much as to
the code (OpenBLAS picks its dot kernel per CPU, NumPy its SIMD width),
so the constants only bind where three small reductions reproduce the
capture host's bits; elsewhere the cases skip and say why.
"""

import numpy as np
import pytest

from repro import run_benchmark

#: quantity -> float.hex(), serial (MG..SP at 44b98db, FT and EP as above).
PARENT = {
    "MG": {"rnm2": "0x1.bd3e23d9218d2p-15"},
    "CG": {"zeta": "0x1.131c140145f4dp+3"},
    "BT": {
        "xcr[1]": "0x1.5cdcb49376195p-3",
        "xcr[2]": "0x1.a92c4da62b6c2p-7",
        "xcr[3]": "0x1.0a7801d40c39cp-5",
        "xcr[4]": "0x1.b122633334d3dp-6",
        "xcr[5]": "0x1.8975142b7ded7p-3",
        "xce[1]": "0x1.0605e0ab8677bp-11",
        "xce[2]": "0x1.7b20f49394558p-15",
        "xce[3]": "0x1.3644b9bd5054dp-14",
        "xce[4]": "0x1.35a0f3903319fp-14",
        "xce[5]": "0x1.d407aba63dccbp-11",
    },
    "SP": {
        "xcr[1]": "0x1.c212da9e5c840p-6",
        "xcr[2]": "0x1.53803e2172c1bp-7",
        "xcr[3]": "0x1.0a01a68529e3fp-6",
        "xcr[4]": "0x1.03881cceb0cd7p-6",
        "xcr[5]": "0x1.1d7bbc36dc29dp-5",
        "xce[1]": "0x1.c9d67918e4d2bp-16",
        "xce[2]": "0x1.5bc5eb31b1b58p-17",
        "xce[3]": "0x1.0f08548fa3032p-16",
        "xce[4]": "0x1.0840c34980dd1p-16",
        "xce[5]": "0x1.1eb3fab080ef9p-15",
    },
    "FT": {
        "checksum[1].re": "0x1.154de9e5da886p+9",
        "checksum[1].im": "0x1.e4894d21e8340p+8",
        "checksum[2].re": "0x1.1551bbb5760fep+9",
        "checksum[2].im": "0x1.e687ca0f87d69p+8",
        "checksum[3].re": "0x1.154eb318eb4c8p+9",
        "checksum[3].im": "0x1.e8641d4f55f48p+8",
        "checksum[4].re": "0x1.15456c13a7a76p+9",
        "checksum[4].im": "0x1.ea2097d735a41p+8",
        "checksum[5].re": "0x1.153676e9f16c9p+9",
        "checksum[5].im": "0x1.ebbf61c86f048p+8",
        "checksum[6].re": "0x1.152259010e296p+9",
        "checksum[6].im": "0x1.ed427d4df00d9p+8",
    },
    "EP": {"sx": "-0x1.95fab5782f081p+11", "sy": "-0x1.b2e683649f530p+12"},
}

#: Where two workers differ from one: MG's norm and EP's sums add two
#: partials.
PARENT_TWO_WORKERS = {
    "MG": {"rnm2": "0x1.bd3e23d9218d1p-15"},
    "EP": {"sx": "-0x1.95fab5782f082p+11", "sy": "-0x1.b2e683649f52ep+12"},
}

#: BLAS dot, pairwise sum and reduceat over one seeded vector, on the
#: capture host (numpy 2.4.6, OpenBLAS 0.3.31 Haswell kernels).
CAPTURE_HOST_REDUCTIONS = (
    "0x1.ff30c54599a4ap+11", "0x1.ff30c54599a4ap+11", "0x1.78b57ab441764p+4")


def _host_reductions():
    x = np.random.default_rng(20261001).standard_normal(4099)
    return (float(x @ x).hex(), float(np.sum(x * x)).hex(),
            float(np.add.reduceat(x, np.arange(0, 4099, 7)).sum()).hex())


same_float_platform = pytest.mark.skipif(
    _host_reductions() != CAPTURE_HOST_REDUCTIONS,
    reason="this platform's float reductions differ in the last bit from "
           "the host the constants were captured on")


@same_float_platform
@pytest.mark.parametrize("backend,workers",
                         [("serial", 1), ("threads", 2), ("process", 2)])
@pytest.mark.parametrize("name", sorted(PARENT))
def test_verification_values_equal_the_parents(name, backend, workers):
    expected = dict(PARENT[name])
    if workers == 2:
        expected.update(PARENT_TWO_WORKERS.get(name, {}))
    result = run_benchmark(name, "S", backend, workers)
    assert result.verified
    computed = {quantity: float(value).hex()
                for quantity, value, *_ in result.verification.checks}
    assert computed == expected
