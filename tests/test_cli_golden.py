"""Byte identity of the command line, run in process through ``cli.main``.

``GOLDEN`` pins the sha256 of stdout and the exit code for a fixed grid of
``potential crit``, ``oc matrix`` and ``blowup split`` reports; the digests
were recorded once from the reports as they stood before the brane families
were given one definition each, and the ``--order`` entries from ``oc matrix``
as it stood before it computed one determinant per matrix.  ``HELP_GOLDEN``
pins the sha256 of stdout and of stderr and the exit code for the help texts
and usage errors; those digests were recorded from the parser as it stood
before it built only the branch of the command a call names.  argparse wraps
help to the terminal width, so they are taken at ``COLUMNS=80``.  The
entries from ``trees enumerate --boundary 3 extra`` on, where a root-level
error or help comes with or after a named command, were recorded later, from
the parser as it stood before a call that opens with a command name
registered only that command.  The ``blowup split`` reports at ``--eps 1``
(cut short by the bulk-shift cutoff) and ``--eps 9/10``, and its two value
errors in ``HELP_GOLDEN`` (dimension one, ``eps`` zero), were recorded from
the report as it stood before it read the summand dimensions off the two
open-closed blocks.

A refactor that keeps the digests changes no byte of these outputs.  A
deliberate change of an output updates the digests it changes, and says so.
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
    "oc matrix --n 2 --kind pn --order 6 --format json": ("370ee7846721a5f940308c005605fe641d3658a487065504182ba5aa9c54835d", 0),
    "oc matrix --n 2 --kind pn --order 6 --format csv": ("c6ecda112d023eb4a1068c4cef79daa78c249c157c94dabf33c3e3be2573ffe6", 0),
    "oc matrix --n 2 --kind pn --order 6 --format md": ("1a43ba9feb113285431a5dbf4b3bd872d09b8c2f7730217e1abd63c063864d73", 0),
    "oc matrix --n 3 --kind exceptional --eps 1/7 --order 12": ("dd2d3d682703710195e1757d05c7181e7b41d549c83d58d9ae94a91d22da2130", 0),
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
    "blowup split --n 2 --eps 1 --format json": ("590694d4767d2c027f0b7b15f82a55a15da83ef1b6d0ff2cf542274c56d89793", 1),
    "blowup split --n 2 --eps 1 --format md": ("1b0a729a25cdfc187f4e850234a22fd9e72462dbe7e77e16bdd77ef92b9c4710", 1),
    "blowup split --n 3 --eps 9/10": ("6571dd732f4ef5dc78835b4a48f63888b0964f1fe798ddf4011dc56f70eb41a2", 0),
}


# argv -> (sha256 of stdout, sha256 of stderr, exit code).  Every command
# alone and with -h, every leaf with -h, the root's own paths (no command,
# an unknown command, "--", a flag the named leaf lacks) and the leaves'
# bad or missing values; then root errors and help with or after a named
# command (an extra argument, a second command name, a root flag before the
# command, -h before the leaf), an abbreviated leaf flag and the value errors
# of ``blowup split``, whose JSON message goes to stderr.
# ``verify-all`` alone runs the whole suite, so it is left to
# tests/test_acceptance.py.
HELP_GOLDEN = {
    "": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "9fbf5c2351498af65e97df09f366ca1ba1ae6ecfe28707a0fe3ecf493fa0518c", 2),
    "-h": ("fd5c6dc615ea9ae6bd197b7f76cd65e10f2df573424d47bed63784ca1e67243b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "--he": ("fd5c6dc615ea9ae6bd197b7f76cd65e10f2df573424d47bed63784ca1e67243b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "bogus": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "dcf958917780dea1ef6de7c1b461ea4163174e946fdf33dd63f6e306ee8c218b", 2),
    "-h trees": ("fd5c6dc615ea9ae6bd197b7f76cd65e10f2df573424d47bed63784ca1e67243b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "-- trees enumerate --boundary 3": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "629cd6132bea1e3d1399b04600b05c34e9d3dd63ef4925e33882575882a44718", 2),
    "trees": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "66da7dfede86eb05112d97ebb4028b3e1485a94f7de6742cfe668b823337432b", 2),
    "ainfty": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6cc874dd4c7f737b5f3dcb09b93c5074dba3e77203af0390302bcc01902f25a9", 2),
    "hh": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "3dd917e165982dd67ec7c5e58373886b6fbacbb420671aea7c3ac53b9319a9b1", 2),
    "potential": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "9bf3cc539dbca12ef35a6eb6ea72338cd738f3400a123228d2c9da91b5a328e7", 2),
    "oc": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "ce1797a9eac47bfea6eb75aaffa980ee548be609872c421629d2b2a58ffd68c8", 2),
    "blowup": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0b3398a9e71af91a2a8ea9a24c8f3da779977a60c9b16012da3ea1713716deed", 2),
    "trees -h": ("fe021f38879828d2aafd32874d9ff6248f92c3d775af9ea0811a5282c33fc4db", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "ainfty -h": ("686948c0a188df4a5ea6c180a5302a8906619a20361231859829c4760f15d548", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "hh -h": ("4bff085902c6d396bdeb945e826ca595e267fcb8e4fab1626bc233bacd2d73db", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "potential -h": ("19ed073f1842974246d7159baaf0c72f33a196248b56cf3a5b8f8658bed51ec8", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "oc -h": ("a2cbc30b2b0be76f7eaf15c09d4b9a7bf340164b622ee57b856129e1014759a6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "blowup -h": ("b0ecd949824228a78a5643af50e107e1c793f00bc59e018f65f2812f4cdea003", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "verify-all -h": ("1b77dfddb6e1484a0e39073074023504d30f727c61e5da9e318fe3a36a46660f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "trees enumerate -h": ("45f8e5f3d6da74cbf58e43325894cd684142ac75f5cf99086aace6d46770622f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "ainfty verify -h": ("0f3a6ad3e9b622b526435cd7f82e5394b9621683d72cc0d30588d51c41b715ee", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "hh dims -h": ("ae4c2b9e19395237d2829b4e74eb3ac90a4ac9252c91dc5922fca750e5ba6982", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "potential crit -h": ("723b95ec13d23233a9bed60b200412f0de1d78fb05eea12c3ada6d7ee4a922cb", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "oc matrix -h": ("ba4ea3e3b0788c4f927975edba1fde27dc03ba47b7f86dc01bdfde1c8477f564", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "blowup split -h": ("deabdbd275ac946edbb6c084e9cf008d0c81d7aa2c7f2432be644ed314bdb0ad", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "trees bogus": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "154c7806bcb9225532a73811d63896d5c632d845c273a08bf87bc12b7a0d5743", 2),
    "trees enumerate --boundary 3 --bogus": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1fafca19e9b854a362b20aabcd8d7f6473b3282a5be78bdc86224250fbea53f0", 2),
    "verify-all --bogus": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1fafca19e9b854a362b20aabcd8d7f6473b3282a5be78bdc86224250fbea53f0", 2),
    "trees enumerate --boundary 3 --metric bogus": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "fea44d68464232eea1309e41bdb3c1523d0525c70e27cdd50c765776abd058be", 2),
    "oc matrix --n 2 --kind pn --format bogus": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "3fcb7a07a6ece870bce5a9cc19b8e06f0462e29bcbd0c141c1626312a0c4d449", 2),
    "blowup split --n 2 --eps 1/10 --format bogus": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "78a4345e16ea6d827a6917fc598f275725284b0ca443a13808cf8f9bec92ab75", 2),
    "trees enumerate --boundary x": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "05d85004fb5c75d3786594c06eb8747ae66c454d206d4326f350f74721e70f38", 2),
    "blowup split --n 2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "5b326e47509bcd99711bb57f13d2e5c32c0a7317f95337dd80dc42d9625cc1f5", 2),
    "oc matrix --n 2 --kind pn --order 0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a333e794bbe4494cebd296d6a3a654b0622256d8747e29e371ecdf4b2eab70f8", 2),
    "hh dims": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0b647925581ad5604fa67c638d62157649fe204aa0069aa116dffbea58b53e86", 2),
    "trees enumerate --boundary 3 extra": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1f180fa42bf5238a335b5c34beb371b76184819b38c6d7e9aebd77c0425c4ba6", 2),
    "trees -h enumerate": ("fe021f38879828d2aafd32874d9ff6248f92c3d775af9ea0811a5282c33fc4db", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "--he trees": ("fd5c6dc615ea9ae6bd197b7f76cd65e10f2df573424d47bed63784ca1e67243b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "-x trees": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "66da7dfede86eb05112d97ebb4028b3e1485a94f7de6742cfe668b823337432b", 2),
    "potential crit --kind pn --n 2 trees": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "04246f50f2ab87e5e3bee067b7b5925423cb03b7277d45774de07e091e69a2ca", 2),
    "verify-all --bogus x": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "cd08b0105e47b7ccffb57de0f60b241526819888d2b4720d89e591844dac2562", 2),
    "oc matrix --n 2 --kind pn --form json": ("16574460a358d35630e99b86c114ea61a1b10d2a56e745a86b5003e20bd4252b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "blowup split --n 1 --eps 1/10": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d2ecd7fb71cc4b0f02a289f2b2e7205900e060205ad0a8e25b7cb83329581abf", 1),
    "blowup split --n 2 --eps=0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "8083fe0dbb7f3d107b27d0c9daf32420a57a7a498c370fb0009add5ace6004e7", 1),
}


def _digests(command):
    """The sha256 of stdout and of stderr of one in-process call, and its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
    return (*(hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()
              for text in (out, err)), code)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_bytes_are_pinned(command):
    out, _, code = _digests(command)
    assert (out, code) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_and_usage_error_bytes_are_pinned(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _digests(command) == HELP_GOLDEN[command]


def test_one_parser_keeps_the_bytes_across_an_error_and_a_report(monkeypatch):
    # the parser a process reuses must give the same bytes after a usage
    # error as before it
    monkeypatch.setenv("COLUMNS", "80")
    error, report = "bogus", "blowup split --n 2 --eps 1/10 --format md"
    assert _digests(error) == HELP_GOLDEN[error]
    out, _, code = _digests(report)
    assert (out, code) == GOLDEN[report]
    assert _digests(error) == HELP_GOLDEN[error]
