"""Byte identity of the brane-algebra files the benchmark's jobs read.

``perfbench/workloads.py`` writes each file as
``json.dumps(brane_algebra(W, critical_points(W)[k]).to_json_dict(), sort_keys=True)``
for the algebras its jobs can draw: projective n = 1, 2, 3 at points 0 and
1, and exceptional n = 2 at point 0 and n = 3 at points 0 and 1, each at
the eight values of its ``EPS``.  ``DIGESTS`` pins the sha256 of each of
the 30 texts, recorded from the library as it stood before the value and
Hessian at a critical point were read off the evaluation that checks its
gradient.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from qhsplit import toric

DIGESTS = {
    ("pn", 1, 0, None): "9bfba16b2e23b8c3317b32febee20b50a67f82fc8846e7db6e05a407c8907ec0",
    ("pn", 1, 1, None): "865bcaf1d5738c790795f8803d710af4640a62e1866eb6355409f91ddb229c21",
    ("pn", 2, 0, None): "018dd66371ec14c9743642d71401d590341e92375557df94700787fcfdd8a0b4",
    ("pn", 2, 1, None): "77f3b614c8d5c13e6c9940ad81ae5f09d817012488e42e88d37ee820b9a97b6a",
    ("pn", 3, 0, None): "d36acd8e2aa3e0d43239633f1331a447d3a44212155f75677153a5ae56a53722",
    ("pn", 3, 1, None): "9415d10f1556d23d84e3f852563a9d1a0b9f9322546ab2abc6d845fc18e7ffee",
    ("exceptional", 2, 0, '1/10'): "b5bde0646165987beb470045de9f100f549c4a57c4f315f496787f881982ca5f",
    ("exceptional", 3, 0, '1/10'): "7b8f992554489062ccd77b7b477de856bab386cfd491e683a68b22b7d763f167",
    ("exceptional", 3, 1, '1/10'): "1a42fabea4610b07a2c6054c84af167df81820568462fa0b0e60264d29eb9301",
    ("exceptional", 2, 0, '1/7'): "ca0c936b8e94ea2ab82eccda7c07975931b09fe9c2ebf77d1004a39b93dde9f5",
    ("exceptional", 3, 0, '1/7'): "f3b97f4428bfbb02825cedd9dd7f8e0097df188f04aa1b4af5dac51ac5cf5abf",
    ("exceptional", 3, 1, '1/7'): "ebe3d963904afcb4b14faf833db3f88b3c350215fc20ef81f814bc88aace3380",
    ("exceptional", 2, 0, '1/5'): "5e0522c7002c015234e79af40d85647907fd1c4dac6328c14cd28e5360a46b79",
    ("exceptional", 3, 0, '1/5'): "2c2fda0518992ee40936b71fccdd289f024d4eaea7d549bcb9af9755ccdfd0e3",
    ("exceptional", 3, 1, '1/5'): "1e36b17c182a3dfc9aff60d22ba52a698e17f01e8a1f09a534fe3b8efd90d2e5",
    ("exceptional", 2, 0, '2/9'): "391fdb9a35b279164403cfb937678613c830bdcfd96ce8c81ff83edd615c6d8c",
    ("exceptional", 3, 0, '2/9'): "7a20e28ca7fb9c3ef3caad03c00089dc792db891f92b8617b7d6465d98bf690a",
    ("exceptional", 3, 1, '2/9'): "9b75cc89f2625074839cfbb674a48c290d345d89a1bf45b2b72ddbabca63bcd0",
    ("exceptional", 2, 0, '1/4'): "305ad9f6a688247628431b485563d19e2790cea0e75334ee3de804f4fe535459",
    ("exceptional", 3, 0, '1/4'): "2fef753fb9adf3acc8fe0d1fe818981038bf691e2ae865521619512b95a10040",
    ("exceptional", 3, 1, '1/4'): "0611788aff83da89d55162f31442ba3beaf69464bbb8d06f10ea702aeaa3b617",
    ("exceptional", 2, 0, '3/10'): "53e8c04f37d774c619ad987b3acbdd955d7803ea3884bceb8728d6e5a0ee3057",
    ("exceptional", 3, 0, '3/10'): "1982afd7e809eaf958b3aee1091d93478f062fffdddabf96de4bf50faa9067b8",
    ("exceptional", 3, 1, '3/10'): "0c8688b294372b7363bdd08c10f3f3f21bff6dc29780fc3937b5fd657ccc5733",
    ("exceptional", 2, 0, '1/3'): "f449c3f1187cb8cfb677d339078c4b9f5f75ec6a0d73e0d66b4f94e0658269f9",
    ("exceptional", 3, 0, '1/3'): "6c581bcdcb8ae4d482d2383ff1df8257827941c456652dca610e740f7fdb1b1c",
    ("exceptional", 3, 1, '1/3'): "4f38b09318aae2ab678d6b4006c0dcc1403f86c2bedf1172b235e658a4824a41",
    ("exceptional", 2, 0, '2/5'): "0edac4e60913cfcdefb8b7acacdcfe3e20b23929961ac00865cd409f32c4040b",
    ("exceptional", 3, 0, '2/5'): "751a5af5d93d17c2101fb640dc5f42ff862d57cb588417adf047118f26ef2e2a",
    ("exceptional", 3, 1, '2/5'): "391777e7f113b5bb2ce712a6a6afa2b63e14785ca191d4cb8bc50932cb2088b2",
}


@pytest.mark.parametrize("kind, n, k, eps", list(DIGESTS))
def test_brane_algebra_file_bytes(kind, n, k, eps):
    W = (toric.PotentialFunction.clifford_torus(n) if kind == "pn"
         else toric.PotentialFunction.exceptional(n, Fraction(eps)))
    text = json.dumps(toric.brane_algebra(W, toric.critical_points(W)[k]).to_json_dict(),
                      sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[kind, n, k, eps]
