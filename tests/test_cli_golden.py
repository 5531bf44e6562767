"""Byte identity of the report commands: the sha256 of stdout and the exit
code for a fixed grid of ``potential crit``, ``oc matrix`` and ``blowup
split`` invocations, run in process through ``cli.main``.

The digests were recorded once from the reports as they stood before the
brane families were given one definition each; a refactor that keeps them
changes no byte of these reports.  A deliberate change of a report updates
the digests it changes, and says so.
"""

import contextlib
import hashlib
import io

import pytest

from qhsplit.cli import main

GOLDEN = {
    "potential crit --kind pn --n 1": ("1ee82554f99d151c5666124b71ca640fb9c1837888aae74d144dd7ae480003df", 0),
    "potential crit --kind pn --n 2": ("28d5d5dababda5b5fac0ef3193d0049b6fb0a65392cdc68adc1b55c3e8929a67", 0),
    "potential crit --kind pn --n 3": ("bccdef5f8b27bde9903efdefcbc205bcc5cd9b02c91c8f6df45a78c19f6dfcdd", 0),
    "potential crit --kind pn --n 4": ("6f86966642dcf874f110f86fd2e22841cd3d95bb947d1a0de61a8831fd3a2dba", 0),
    "potential crit --kind exceptional --n 2 --eps 1/10": ("cb9e353dbb2997e581c276f0417ba5a6cf59c0eee922138420de3b6b80beabf9", 0),
    "potential crit --kind exceptional --n 3 --eps 1/10": ("00c871a6eb14b1f4b1a0b1e0b9b863a5ed2523566897f4ab926c568a0db72181", 0),
    "potential crit --kind exceptional --n 4 --eps 1/10": ("42904ec8a884534ad668df680fd5fc7b96c968b2ab0882b5cdc3f19a91126e7e", 0),
    "oc matrix --kind pn --n 1 --format json": ("97cced814f5c6d5b3d02d8efee9eacd6869d3cdec1d6f06a031037dc226dcc5b", 0),
    "oc matrix --kind pn --n 2 --format json": ("16574460a358d35630e99b86c114ea61a1b10d2a56e745a86b5003e20bd4252b", 0),
    "oc matrix --kind pn --n 3 --format json": ("d89566c23356239e3bd0aec2ad204c14d50f2e0c34e2791de57e21ed5eb60f73", 0),
    "oc matrix --kind pn --n 4 --format json": ("0e8b2ef8e10219383e51fb735c6a61b59ef82466a952c281b59300d8a53a4633", 0),
    "oc matrix --kind pn --n 5 --format json": ("726936d719be666c7dabb5de8c57a1697fc1d0f2f97850ab739c6ab2c400f50c", 0),
    "oc matrix --kind exceptional --n 2 --eps 1/7 --format json": ("423efaf7b5f65e25300ad4843a5b1da2460e5628134df79b1e94d2420289c603", 0),
    "oc matrix --kind exceptional --n 3 --eps 1/7 --format json": ("097417920fccb4b5398dc3b8827bf59608a6e65293e2ebb7867be6fa14f0466a", 0),
    "oc matrix --kind exceptional --n 4 --eps 1/7 --format json": ("5fffd960ac0e273b772e22e52e26eb9aceb19c2be50ff6d1d551fea86a36e3de", 0),
    "oc matrix --kind exceptional --n 5 --eps 1/7 --format json": ("becc896ac892a1c021cddb9c52ce9789b4f44c5f942b4d44672e6fe2e3b8f98d", 0),
    "oc matrix --kind pn --n 1 --format csv": ("bc5d3f4550f56f65bb089c6066eae6ca06aee2e39082256c2190e1727f5869f5", 0),
    "oc matrix --kind pn --n 2 --format csv": ("5c606a37313736399aaae1508129fa83369e0e08f08520e26e0c1af7ae882a55", 0),
    "oc matrix --kind pn --n 3 --format csv": ("ed5a6aae37fc8c0e9374b4d2268ce3a627e3dcbfd8d8b2702e16433155571fd5", 0),
    "oc matrix --kind pn --n 4 --format csv": ("9da64ac3c3546a0ccc9ae9ad53314994ae2996881aec532b12fcc2936d85d9d1", 0),
    "oc matrix --kind pn --n 5 --format csv": ("19885003b39373fd5f743a940436232550232a6897f10dc8952ebf5e0a99a0e3", 0),
    "oc matrix --kind exceptional --n 2 --eps 1/7 --format csv": ("41b0794db9ca2d2cdddda8b8138f19d7af06175a4d107ae5a95a4e421e6e68f0", 0),
    "oc matrix --kind exceptional --n 3 --eps 1/7 --format csv": ("f8e202040b56e4fa630b6ecf630dfbd9ceac67f5362fa38cf894b41bed48405d", 0),
    "oc matrix --kind exceptional --n 4 --eps 1/7 --format csv": ("6d84ac5c1b97ffe26f9ff06c1a5d3886895bdb8dfcb3d48a1284855597db1708", 0),
    "oc matrix --kind exceptional --n 5 --eps 1/7 --format csv": ("b80df3cba377012202ec2fef2997329cfe03d4f3f4355e4c9d3dd8193d5a0c24", 0),
    "oc matrix --kind pn --n 1 --format md": ("70f1baa1a03d100c6387277041df3f607a53c2c2d8786d7af773893e0a00ca69", 0),
    "oc matrix --kind pn --n 2 --format md": ("7fe7f648c3db9e1e25d429c729004534b17e47cf3cea9dfc485b233a899b3dc1", 0),
    "oc matrix --kind pn --n 3 --format md": ("4f98eccff04c58d79d268f4ce29c76ae87cc6ee58a9db05a5e6be760e57e2e8c", 0),
    "oc matrix --kind pn --n 4 --format md": ("d8343d8f1d6559d442fc4a1d8249b9b1956faccebb065c08eb3ffb87dbec896b", 0),
    "oc matrix --kind pn --n 5 --format md": ("ca3506b1db3f9e48203c6fe4d21c82eb123f3ed25aae0de7376bfba4b0884895", 0),
    "oc matrix --kind exceptional --n 2 --eps 1/7 --format md": ("5918ddfde2155aec950c4a1ff623c6856fe3403786a9ac68ecba74f1a0723c18", 0),
    "oc matrix --kind exceptional --n 3 --eps 1/7 --format md": ("3149ad9c841a584514a12e812b21df262a6d3581e4ed59f1f7e500855a01a5b7", 0),
    "oc matrix --kind exceptional --n 4 --eps 1/7 --format md": ("2acca1a7498cdf36a397d9154e0400a71c1b2c758f35c1e117eeaa50432f4a9a", 0),
    "oc matrix --kind exceptional --n 5 --eps 1/7 --format md": ("0c3da92d880b75c450f20f712c35d4fec3ebe822c635e6ebf762901773f3ade8", 0),
    "blowup split --n 2 --eps 1/10 --format json": ("6a4e92b3c8ee2a9739dd4965025f8dde99c8cf81dc0381f1b97c82113687bb12", 0),
    "blowup split --n 3 --eps 1/10 --format json": ("6a6bab03cdfd63e2a6bd6c00caaacd6b97272e6919f555f28b451b22d7c265fa", 0),
    "blowup split --n 4 --eps 1/10 --format json": ("ea969079ae975bca2803ebe786196a57a92529b2e8be838251de5856cd859d27", 0),
    "blowup split --n 5 --eps 1/10 --format json": ("2ea5bcbe92d0ab76ae9866aba9c41706bf668342d95b983d058014c6fab9af64", 0),
    "blowup split --n 2 --eps 1/3 --format json": ("5a849c860b233f606c4957a7a0a1a50f4262409c787efcbcdd3922bedc4309bc", 0),
    "blowup split --n 3 --eps 1/3 --format json": ("e089a6bcb6749504257b27041ba72ea58eaf8ca1a6bfc97315e3050dc5e09f93", 0),
    "blowup split --n 4 --eps 1/3 --format json": ("759cf5f913f7e37916862db531822b9c081d8012a874e7dffc40f279a8565d03", 0),
    "blowup split --n 5 --eps 1/3 --format json": ("576aedd97a26ed542ebb28558b1e98992a766160546dcdb8c8d5add3c3b51f3e", 0),
    "blowup split --n 2 --eps 1/10 --format md": ("0f027560c29f27e6682f3af81c5c2ee1443fe33dfbf12da199948b3eebe4af68", 0),
    "blowup split --n 3 --eps 1/10 --format md": ("833bfd5d1343c861d203ae0c318c0d14c78e6197e69d288a8315e354fb352796", 0),
    "blowup split --n 4 --eps 1/10 --format md": ("679dbf60da0459aa8c9c5eacecc8c7fed3d5125ea0c10bc8fb565cfc56608e80", 0),
    "blowup split --n 5 --eps 1/10 --format md": ("3807c31148bd3bd86fe6f6068fc6b1d0ace16dda62c507361f231a380280b99b", 0),
    "blowup split --n 2 --eps 1/3 --format md": ("75647833a6249e8c7fe0d7ad4ac1d05865a93b9cb7281dbb10e6bb669baf31e0", 0),
    "blowup split --n 3 --eps 1/3 --format md": ("6ca9d003f79d6d976287168f836892c942687c439228ed5b73d8e5b574911b5f", 0),
    "blowup split --n 4 --eps 1/3 --format md": ("6c4dac79c2dafe12c0ee76740ad74b68ba6b0dd3d476797e782ecec6818d504a", 0),
    "blowup split --n 5 --eps 1/3 --format md": ("862b096c56744874a98eb03ed6d8b55205d0a5a90303d65da89805fdd68852ef", 0),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_bytes_are_pinned(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert (digest, code) == GOLDEN[command]
