"""Cross-commit byte identity of the CLI output.

For every shipped fixture and every check command the table below pins the
exit code and the sha256 of the ``--json`` and the human output (stdout,
then stderr).  Three broken variants of the fixtures pin the precondition
notes as well.  The digests were recorded before the precondition memo and
the single canonical-map routine went in; a refactor that changes one
byte of any report fails here.  The ``check-bimonoid`` rows were
re-recorded once, when that command began to print the bimonoid's
memoised axioms: the same rows, under the same names, as the
preconditions of ``derive-entwining``.  Each command runs from the instance's
directory on a relative path, so the instance name in the report does not
depend on where the checkout lives.

Every fixture has matrices of at most 16x16, so ``GOLDEN_LARGE`` adds
``make-instance regular-comodule --p 5 --order 16``: its instance text, and
``galois-generalized`` on it, a 256x256 canonical map and its inverse.
Those digests were recorded with the engine as it was before the spliced
JSON renderer and the array-level row elimination went in.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from entwine.cli import CHECK_COMMANDS, main
from entwine.instances import FIXTURES, build_instance, builders, fixture_path, serialize_instance

from conftest import ALL_FIXTURES

# variant -> (fixture, role, map slot, entry): the role's slot is pointed
# at a copy of its map with that entry bumped by one
BROKEN = {
    "kz2_f3~m": ("kz2_f3", "A", "m", 0),
    "regular_comodule_f3~rho": ("regular_comodule_f3", "B", "rho", 0),
    "regular_comodule_f3~mB": ("regular_comodule_f3", "B", "m", 1),
}


def write_broken(variant: str, directory: str) -> None:
    name, role, slot, entry = BROKEN[variant]
    with open(fixture_path(name), encoding="utf-8") as fh:
        raw = json.load(fh)
    src = raw["roles"][role][slot]
    entries = list(raw["maps"][src]["entries"])
    entries[entry] += 1
    raw["maps"][src + "~"] = dict(raw["maps"][src], entries=entries)
    raw["roles"][role][slot] = src + "~"
    with open(os.path.join(directory, variant + ".json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, sort_keys=True, indent=2)


def _digest(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue() + err.getvalue()
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


def outputs(directory: str, name: str, command: str) -> tuple:
    """(exit code, json digest, human digest) of ``directory/name.json``."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        code, json_digest = _digest((command, name + ".json", "--json"))
        human_code, human_digest = _digest((command, name + ".json"))
    finally:
        os.chdir(here)
    assert code == human_code
    return code, json_digest, human_digest


GOLDEN = {
    ("kz2_f3", "check-monoid"): (0, "828bfd229b8a04b9d0d4081475cfc9d09ab0427d6db540078e85099723c302e1",
        "c6b56256a6941b2782d8af935103a464069e3e26cbb397b1251d0225c772d338"),
    ("kz2_f3", "check-comonoid"): (0, "969241728babb750f07a8fbbc379bf4f5c6e85356568962f0faf4ae7754c5c70",
        "fad8a980973e64a7c6072caf02deb07600c6b29583a11657c1a8b25f25f1df37"),
    ("kz2_f3", "check-bimonoid"): (0, "f2bbb0bc4cca52b516968339e346efccd23cfa0afaecdb672bf8dde6f2f1a2c9",
        "0635c477a4e0ac0dabac5640037178c970ff126a55a37441e6fca41676c16fbb"),
    ("kz2_f3", "check-comodule-algebra"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("kz2_f3", "check-entwining"): (0, "f3d18b6bc9600b80613c6926d5fc7a622ba5ee4b3c47729cd6729623cd0ad2cb",
        "2249e6b1f6277c446b304fa28ab52dbeff8df279847879392fd934620482c828"),
    ("kz2_f3", "check-hopf-module"): (0, "c0d375f4bb80ef308d81968124bc7fc1ef4e5f5fdbb918efa50eb69ebab0ca90",
        "f4658aba5c92db471db82048ba0241be37cbc5cc5686077c98a80101d7e55bee"),
    ("kz2_f3", "derive-entwining"): (0, "4964bf5835d525d93b486904a82f4a9b960054658cad5c08caf42e12ce603b02",
        "ac339e1978c51a283f8ae707e2df8852c1ee8d5572b8e349156a7095f1faeffa"),
    ("kz2_f3", "galois"): (0, "944be88eb6bf9da651529cecfaf35d1cb3acf05936289ff19e563c1f9072cd3c",
        "a5e89719423fdea1f3ee3c09347da508500663582f2c54a3220f56515c614e75"),
    ("kz2_f3", "galois-generalized"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("kz2_f3", "galois-dual"): (0, "b0877b3b0ac418e817f987dd2fbec20bb069c84ebebf63be386e3f24541e7d3a",
        "13f58c6af1911553b771d85c5595193304c493f77c07fb6f7008ec47d6d44c0d"),
    ("kz2_f3", "fundamental-theorem"): (0, "b9f70dfd6f754c8adb6424bfe5f5327406775bf180e7818107d982c265890440",
        "d5e8e06e559ebd677b299a662c4c3085e086c820150309d93b04fbd610d1eb01"),
    ("kz2_f3", "check-duoidal"): (0, "1212637044ea14c6947d5c8ad66342d8a8d75e07a0baa8b429759d7997484cc1",
        "ef73cd9b32b129a7465980962eb3ae2d73c7838082a7589350cfd08f688f65ed"),
    ("kz2_f3", "tau-split"): (0, "738fad1d7af84ed10d564069a83fea985a5e9176a325e94fec3334c848f570d6",
        "c772d4a736554525eba4be22f89ba4e4c568951f8a4f0c8f7ca4cc9aec46a94c"),
    ("kz3_f2", "check-monoid"): (0, "59af3cd6254a5d86e9d764ced6f468f33c38d969e2e363cac330c23b4f577d81",
        "9c7b1a0e126e82a32e5d296e39414aa20408622410f31c62fb0365dbea0f84af"),
    ("kz3_f2", "check-comonoid"): (0, "1777feedc7787146b1c6495b03f55348a55366bfd8ef9d29f2b97dfdb66d0a62",
        "58729a6e683cbb6d530cf294962c81c5d09616b482f229af5772d8fd895560f4"),
    ("kz3_f2", "check-bimonoid"): (0, "61bae904e7312391b3067fb3942bc1c31f5439e6115011d39c98d7e78ebc0dc7",
        "817dced5eb1e845d14608969cddfaed72ea42d39782083f6966f2e20f736525e"),
    ("kz3_f2", "check-comodule-algebra"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("kz3_f2", "check-entwining"): (0, "28f7fed93508310f26b1a0332814f653f0fcdf0d359dfb77896f1cdac46770d7",
        "73c36a9aa634dc944ae3bc2c82fb6dc14480c30b2f6840dd4bd714d226dcab3f"),
    ("kz3_f2", "check-hopf-module"): (0, "fdce95a6f48957b09958a458b35b83a54505570c6e18a261122f1236b1ddc318",
        "6f4cd3c2332f8750b7943f66fd26f54431910a7c52666f63b740680a79d420d1"),
    ("kz3_f2", "derive-entwining"): (0, "2c5dca44ff47300dc14aec84a4747f02ba61efd64adeef2111f374c237d63a41",
        "c602afcd469fd5b80e8f67e88cc642e54a5d317799760b5f21945208d05edf6d"),
    ("kz3_f2", "galois"): (0, "70ba36f7d9c529626de231b1551040771a3bbb65face65c4972c38a041243e41",
        "c2f7cef81ac4d1c101aa28b365a672d46fee50ed3533e446971a243fa9f9f76e"),
    ("kz3_f2", "galois-generalized"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("kz3_f2", "galois-dual"): (0, "5ed1cd404b6d12e4b767c0fb2cb63d371e906f69432f2fa893f2d522741e6239",
        "e37707d4a877b86f756c140537e4479d5305934122b8b4e2dc988647762b72b5"),
    ("kz3_f2", "fundamental-theorem"): (0, "dea60d33a8e20b6a24173717476a3b25d22c9e6c9b9da307dbc35604c22787fb",
        "9047ab1b780aeb46bca9ec1ff01c84e6dfa2a3940dc5dbe0a45742aa0bd6d05d"),
    ("kz3_f2", "check-duoidal"): (0, "bca9a761f86589a81a62089661bd815c9e2422d68f7c2d3efa494fd5c013d172",
        "1e1a618ef44d7b1c47b091f1445ae505344de5a441618d960fbc23ca703d68bb"),
    ("kz3_f2", "tau-split"): (0, "96714cd4cfe206d723b54057fff8e7bd2cb95379e3187248545e27043fbfd081",
        "49a318d5a2c9b658e896bcc914d8eb369acc1ad946265e776e96478e132305d2"),
    ("m2_f2", "check-monoid"): (0, "0f0c2b1182e3a8850875cb370f2722fdd26a170ce01226bfcf729350624d18b5",
        "2a9a7ac6f87523e347c7af4d1501c795703188b959feb042a4d25f15dc361a6b"),
    ("m2_f2", "check-comonoid"): (0, "5d35818d0bde053523fdeb76daa1cd8747320854a4b41e015d8262886fa8eb93",
        "5380acffb7648876150465f014ce66a74d7dc31f6feed4bf6985bf8d324cdb15"),
    ("m2_f2", "check-bimonoid"): (0, "e652a0a2726f18afffba8ef6ef08b639949ebc5715c87692e0bc167a6a1db4fe",
        "0d32213f927131c02dd6559e2a6af6b6552da8eb46c9baafd01f9086c4769dcf"),
    ("m2_f2", "check-comodule-algebra"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("m2_f2", "check-entwining"): (0, "cbe63a9feae7aab706fdb886074e12bbe241986b55b82374d2cc18ff3c55bbf4",
        "c3afe7fcbdeca635b22fc65bf526212e664c6e2dac1488db44e296d92d03b581"),
    ("m2_f2", "check-hopf-module"): (0, "6363555f76950260cd1a1788c3298a3ec3beb058ea486eb043b54458bab660bf",
        "0d770f51248fe928cbb4f5772363706ae6aaa42041a0ba5c857a8b34baed66bd"),
    ("m2_f2", "derive-entwining"): (0, "e19f3ed8aa0a4e1aa907481caddbf543425738f34842d59e7bd5a90a36c06327",
        "539011d9ad672d117f8d93242a29cc14ce2f1e78afd8dfc815d385feebd40df3"),
    ("m2_f2", "galois"): (1, "2420c9b7b062baee2a5e37c76d9febdc3eba5af2089d28a45e32493b86dbb174",
        "c73e757264bea7a86ad57dda4c58857690dfe606c7cf5dc0fda9d202d3eedbe5"),
    ("m2_f2", "galois-generalized"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("m2_f2", "galois-dual"): (1, "5a6be9565a9cc915cf3cbedc3f98fc4f24aab6febdb1a4a740343d2fbf67893b",
        "8b500cd50f4b45619c4cabb5c1d2acf7caa9f1d6dc675a9bb53d23488dcfd25c"),
    ("m2_f2", "fundamental-theorem"): (1, "955c802a7c2f923533321c2e19215427325ad36d47c7261288b638df6dfdecd7",
        "7fbe96aa9d6e07dbc5c6471f5175788ad7324127731bca3c6bd1acafd76c2f77"),
    ("m2_f2", "check-duoidal"): (0, "6af05fd97d7aea4df589cdec405a108a12f82e83900d2e44f6ec4ecf95b6b49a",
        "9cf67942ff5f62366bad0b5da7bf4d6583a9eef83519a0300c3ee2cf49ea8c52"),
    ("m2_f2", "tau-split"): (0, "d37f1a5c15ade3a6e084421cc0e47b559e6a774f6361760f05b92333ddd2fd83",
        "f4dcb7562efd0a825a09797ad6ef59e954df277f977ac57c16b69ab998177a26"),
    ("sweedler_f5", "check-monoid"): (0, "53f500b50e4d13003d3f7605f7cf3901557f3761fbb090429cd1639d7aeecfd0",
        "7af3e924cb480294bb035fe333cd16b443d0510ff2ec2974eb3415be719dcfa8"),
    ("sweedler_f5", "check-comonoid"): (0, "9fafc633e6acc8938b02380c3a2f707f4ae96d2586d74065c5c1c8943fd6fefc",
        "152526822cd9091297dfe0dd67176c48eb1f3714b03c9cc43fef9dbfaa419807"),
    ("sweedler_f5", "check-bimonoid"): (0, "38d9ed9a1b405f9d49f647316060e935bba111a03f5f943d2ea20230238f0503",
        "fe6d30e8276677cb55fd02559597c77e0f532390dafa17179af168587c3b25d9"),
    ("sweedler_f5", "check-comodule-algebra"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("sweedler_f5", "check-entwining"): (0, "374bbafb777f5a512928160192522fc99be0d4bd773d916eead5a20aa4b64f64",
        "09ba01bb5fc086054c81cc9a1cf44b5c274218e8507cabbf47989778c9ddf00c"),
    ("sweedler_f5", "check-hopf-module"): (0, "ecb2cc8c5d488f5ab93c5814cacb0d06a3d1698837221931e569406790848f47",
        "95acdff251ebce5982dfe04f157b7b492d40eeb81436bab24ecc4d2bb6cb55c6"),
    ("sweedler_f5", "derive-entwining"): (0, "e3b44e882ac3db982a7f11927c7a93f6f286080c77b1dea287e24558302703fd",
        "9834bc0d2118ca54c54c46fc5ccd07581c8399791edc48d6ceae339653654d36"),
    ("sweedler_f5", "galois"): (0, "86323ddf845315e1100c65ad62fb2045d44a45d9716d984f422980a94fc7caba",
        "8a9d4b56363d95c70f1ea0a50ef2cd3c90a683a84cf3f05754996f5b6c16200d"),
    ("sweedler_f5", "galois-generalized"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("sweedler_f5", "galois-dual"): (0, "dc1032d1dafd09bf88ed40b8ff0056739c1fc62a604f308c80e06b1b8863577f",
        "4f6fd71dc1cae1164167bdf913ce8d8e8b9fb8b3f0b04d84d682e0316fa455e2"),
    ("sweedler_f5", "fundamental-theorem"): (0, "1e75a47e0f59493d9b90d76032aba7d2180612563044b59f8ae695a283a7ada3",
        "c430ee7d24b385a5cf674e09be7721931dbe8be02fe43b8cb257c748c445505f"),
    ("sweedler_f5", "check-duoidal"): (0, "e034de345bfb5c7865108910e1eb96246905ac5999c4c06544726016e17f3dd9",
        "d07fdb1bb0d85020f6d5fe8290ebb944e6305e22771c184f8fa7484170197b66"),
    ("sweedler_f5", "tau-split"): (0, "ff463c0fb60eeab8b6d484dbac866c1631b2a3d38b5a62232249a866403c7a19",
        "e016d5690a6805efd2fa18f710b9e7816866aca1d3fd28e01ada9adc3f89d529"),
    ("trivial_fp", "check-monoid"): (0, "31bc21d4f6441c95965317758a1d13c7476543d922700273dedf0e2ed110f40c",
        "0c34b3bba08392bd95ba0e4d471293cfdc4f5fcecd5098e87138be48393336b4"),
    ("trivial_fp", "check-comonoid"): (0, "a4cb07fe2e3ea30156efe82fbda9315228eabe42e8c0e21d267e6c101331e798",
        "9c74ff91772412022f4199aee26cf8298d71d99f693b47282b023018ba10c884"),
    ("trivial_fp", "check-bimonoid"): (0, "1a5c3279e9ec2f2d78eda4bf3ea581daccb5f3489a84a8ff508d56b5b13a2929",
        "ead426c12ecfd2795bf834c4e841064df4f9e80b4d6a21805123d63ab618d030"),
    ("trivial_fp", "check-comodule-algebra"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("trivial_fp", "check-entwining"): (0, "af6f763aecb4570545c1d96ccaad3bddbb6853d500a2d399641c5759ee10e249",
        "7c5b9dece6950f180f7a6a92d9924203cc7cbf8b4f91e6f892f0d9b7972f7277"),
    ("trivial_fp", "check-hopf-module"): (0, "7f99f1d726f8be73a47ef366277e886931570b522c5f321e1dc2d74e36502c4f",
        "6ce431e52f5ba7d0d92bc7533e8797772e85c2e9582a7fba8a1cff1b89f6c054"),
    ("trivial_fp", "derive-entwining"): (0, "e94bdea68936b3f44cc2411358a3455ecd4e52e74809960e0162e5d6694ec16d",
        "c66f9920b08d23a40bc47367433eac85ecea4f4d88628d572af2fdf7cd49d47c"),
    ("trivial_fp", "galois"): (0, "54967f2766920352c63cdea8f5e8020c35d2cb861211a755880bfa73cd6bd429",
        "e6a7b655661d69678bdde311c33250970824d38a01c00186d753cd63dc60a1a3"),
    ("trivial_fp", "galois-generalized"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("trivial_fp", "galois-dual"): (0, "0896f878f0f25d3fcac836d810e1fc5647ebd6558b12387fe175a9809c6e5247",
        "5963bf65e4f2f17c84f3a4caee986d6bb3f4522bec360e3fa0962a77377e1dba"),
    ("trivial_fp", "fundamental-theorem"): (0, "30e304347562509e61ba4f6c3ef82087c53c3c354050e348a3dccd3443c4d73e",
        "f2c6ecff0ddee468205b45ee322cde975a165272f138734169c8a0c68b6e1579"),
    ("trivial_fp", "check-duoidal"): (0, "73de48daf3eda365a99cf573f63b366b0ce432c771862c37fa6f6c451639ad87",
        "4f8d0742b367f0560110c345b8a1a63b2b114c892d91fe10c5d5112f111854fe"),
    ("trivial_fp", "tau-split"): (0, "3769ce1eecb74ac3ef680a49ef4620aee598f7994163dadc49883076b2256845",
        "ddadd2529a1794f5750a668d0e314223d8611810f110de00173fa14004550c22"),
    ("regular_comodule_f3", "check-monoid"): (0, "86f5c5fb62c9b965bc16ff4d5c59efda67c88ee5bbf234d5993142ad81764f24",
        "492d5881320ff7cba5781bd38daa450061b743c9e1286620099c359a1942fc14"),
    ("regular_comodule_f3", "check-comonoid"): (0, "ff99d6086f9bbf0d5d65a74430f6783d6d8fc1536dcb2aaddc22475127dc70d8",
        "1d3cb36332f22399a812d3f4196685a3b42ed2dcad7fb429165464b7949ccfa5"),
    ("regular_comodule_f3", "check-bimonoid"): (0, "e7d97f89962f0698e384cdf52843d19ddddc895b744dba4f116d089b242f6371",
        "a2809daa3d2cd2eeb55651cf20da4a96f9de0ef2acf1f736e025429efbae495d"),
    ("regular_comodule_f3", "check-comodule-algebra"): (0, "e7bb6d8fcf46703a688881472c1b9e19c032cf49793d2437a792f68b9f47e89c",
        "aec5b2a64412d754671ea3432d09024ae84603276c6432d13bd6da6375c7a831"),
    ("regular_comodule_f3", "check-entwining"): (2, "9401038b12ca777f15e0b1797da0625398a4861afc1887f6af18f7daf49e78a2",
        "9401038b12ca777f15e0b1797da0625398a4861afc1887f6af18f7daf49e78a2"),
    ("regular_comodule_f3", "check-hopf-module"): (2, "13c7150303aafc864d64cac0061556ad68756bab130d1f9559a0a137da7eebd0",
        "13c7150303aafc864d64cac0061556ad68756bab130d1f9559a0a137da7eebd0"),
    ("regular_comodule_f3", "derive-entwining"): (0, "2989130330b10fceadc11c52ddc6cfbe2fe2b0b49fef8dab1ea3eb6541a8f36b",
        "5722a9954a9fb2da8fc36e01a4b2e92ee0e9370f462e0cdfb9372888e2fc3daa"),
    ("regular_comodule_f3", "galois"): (0, "93826f11e6d12a811f44fa841950e450361b7237487254c40854ff712ace9e0a",
        "d4b9b47ca052e4422eb20cd4dff03fa37aee5679a569712a7be071e81df5b186"),
    ("regular_comodule_f3", "galois-generalized"): (0, "71341ba8b71e2b9208528da74e480d281519400c10bd36367a5768ebb5e064e7",
        "e2b01c888510f24e54e1324c8515c4fdc6b025a0f046e77c1db8e20e81e6a293"),
    ("regular_comodule_f3", "galois-dual"): (0, "a1e27e155be4c9e769174e625329afb65d41b3afb153383c47a6944d3a63b3c9",
        "2c01cfccc46ea675f32f3094c3f0e951144d253ba2e9294a7d89c21abc3c1e6e"),
    ("regular_comodule_f3", "fundamental-theorem"): (0, "91902ea56df306fdc113580d2a90b55884f7af53b5bcba9667ffc2865793930f",
        "bcca41ad96a6d80d6f52b701e02c375e8f74edbc8c461621bbae431e66db6ffd"),
    ("regular_comodule_f3", "check-duoidal"): (0, "59d65f0531977a91545aff9ab635d6b9481e988e80bb4e1f322c67b6dd38dcf8",
        "c4f38740f05f4cdd3ea4d965485f9de5f2c03be55d2f49ea87a4bf140e1e5400"),
    ("regular_comodule_f3", "tau-split"): (0, "6de97c041b47605caddaa85058f8c4804849915a5d6c352663a4e357007610d2",
        "858a4b4263bdb1709a741b44e91ea4ee994cd3d4feef054e72cb4f938918ee57"),
    ("trivial_coaction_f3", "check-monoid"): (0, "dbb0cf0921beb7a1c1565feb01aea62f7632017019eecb2ea198d4528e2d3c57",
        "709eb48d3c8adeb1c8faaa09683bbf219de7195fc5d3fcbbbbbdc6f2637e5bb2"),
    ("trivial_coaction_f3", "check-comonoid"): (0, "81292008717056b84bdb52ac8bfcd3bb7ead5f4d2fb7fc06c21f015d32eeb75b",
        "4c0089145e579adc897c3a863eb60754b2f38ded7211662506703be3b39059b5"),
    ("trivial_coaction_f3", "check-bimonoid"): (0, "456ed7f330b74bad7965f8488eab351f901d6661f023cb2776cd9cbfd824ea88",
        "1b0139f139be3b584eacc8d5dc4c2f0c7aaca493717d4d5740dd240719b819c2"),
    ("trivial_coaction_f3", "check-comodule-algebra"): (0, "0f46c59d0e08758353baed07e51972d7f2bcb60d624d0e691a27f474e91ef6b4",
        "af44c8e652eca74d448eadd0608fd51310f38585dcc6ff1b3f82341a81f45102"),
    ("trivial_coaction_f3", "check-entwining"): (2, "9401038b12ca777f15e0b1797da0625398a4861afc1887f6af18f7daf49e78a2",
        "9401038b12ca777f15e0b1797da0625398a4861afc1887f6af18f7daf49e78a2"),
    ("trivial_coaction_f3", "check-hopf-module"): (2, "13c7150303aafc864d64cac0061556ad68756bab130d1f9559a0a137da7eebd0",
        "13c7150303aafc864d64cac0061556ad68756bab130d1f9559a0a137da7eebd0"),
    ("trivial_coaction_f3", "derive-entwining"): (0, "08ddc8e4ce764e2a999600d6e2bed6c93f38a7d672f9da2132a0140c12f48bdc",
        "c0c4c5291f1c1067db12cffec489024a97a2ce7ade989712f70d69ec27ce3166"),
    ("trivial_coaction_f3", "galois"): (0, "cb7eb8429c4b8b6e39b2ad3fba0301d9be6dab4786d8635f9a8c2fc5c36a8914",
        "39d1a8a64cd1e5dfc5d981346db6ec4505b3ba7e20b8bed1b0eec358173b3511"),
    ("trivial_coaction_f3", "galois-generalized"): (1, "2741275532b66664503f13e867f4961caad3d6b008e4310cca3aa39142793bba",
        "c44705150f7ac03b8cc7677f486d6687916f7e6f2ef5c3a5e2a8b81e98d0d264"),
    ("trivial_coaction_f3", "galois-dual"): (0, "0a9b19c5fa2680abfdea7f1c6c521829f504944b2e547413460fa901f6b045d7",
        "ae07fe213f718984ae6dea78984e23d688eca7bf47e1d9654fa5af64dc9d5fbd"),
    ("trivial_coaction_f3", "fundamental-theorem"): (0, "728d0f9f6640c35536b46adcb26bf3f9a1217b6d1d6793c8af15d7d1e386e9db",
        "27a0470624c8e6bd08ec6c613bf115d39731673445943f504ad8020d8cee9fee"),
    ("trivial_coaction_f3", "check-duoidal"): (0, "07b70c843180337d423c0cd7e3353d08880e0ee593f32e019622c649370a84f2",
        "c49b015c31d2900981863115b23b489bb9bba3e7a9bce8df91c6c9fd261865c5"),
    ("trivial_coaction_f3", "tau-split"): (0, "2957a6ab810166d45214acba5da7b06994f2cd180f2c303747f7381920925708",
        "b0011c85c595b107d1a27c39c2c618c416965df6bb6b215e53684cffee6b4510"),
    ("kz2_f3~m", "check-monoid"): (1, "c072f7f4a0d69d0d68e65c657f9f63e8cfbdb5250b5767d6e99e084dac420847",
        "ae4c105c897cad3ea4bdd9e04a97020f8751179dbc2b3776d556d47c38110f9f"),
    ("kz2_f3~m", "check-comonoid"): (0, "3d9b287cfc555573c2b74205f0b229dfed0f924e43123c46d22cd6ef17aa6930",
        "ac1179c87381fcbdf2e92d8ecfd5483f36786318baa8c62eb88c4aac92361057"),
    ("kz2_f3~m", "check-bimonoid"): (1, "2713be5e2bd97f3236aa754a1d697327d819c66be3909598acc699178d57a6cf",
        "4b7214d1ee656d02b0cd5f6fd4f7bb9b45e4cc6802d0b5efae9ac665de3fbc90"),
    ("kz2_f3~m", "check-comodule-algebra"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("kz2_f3~m", "check-entwining"): (1, "a4659261bdf0b15e144a31a71d5aef650406801c20d49eb0f6238a56dd79affd",
        "d7cf6fa800153157049902b672af2ab5091349febd54e18b60cd2251a4f1219a"),
    ("kz2_f3~m", "check-hopf-module"): (1, "382ad70914d44277e8bba3160fd0b44ba82ed83c8b48645faeef749ba8172b7f",
        "836f46d64e0af1511507b9f1df4dc43c049213dfb5ee100943c3a667c4d5db73"),
    ("kz2_f3~m", "derive-entwining"): (1, "247392ed7250269fff3202b906aee8884433d7a8d3c204df1dfaedb60d797d07",
        "c35c0a26fcad7d0a8041be8a3e23520c9e81c6e56d29e5e8fea20607d0d9f76a"),
    ("kz2_f3~m", "galois"): (1, "089f5ba77455289a96b668b4f4d93ec650b904a26f0716f87778688ff16fdd4f",
        "cd4fdeb1a4454e2fb9d6c9b0072bd0e7872d1c5afac9cbb2d7b3a22df39f5fe1"),
    ("kz2_f3~m", "galois-generalized"): (2, "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e",
        "a011bdb26f95da9cbe4cf3f3f709d88817de611326d00b011085671fdc832b1e"),
    ("kz2_f3~m", "galois-dual"): (1, "e10d507066a681f84773c83da63ef74d537e956a8820c5c6de41a0998a489049",
        "73470f6e6c5d9a0c0a06fe44c44c63774a20ce2491d3d394bc2926e9730fbdbd"),
    ("kz2_f3~m", "fundamental-theorem"): (1, "a3608a49f944029a12a3f05d444cd39df87798938b1350992536ea77af77f59b",
        "8e079ae38ab2505b069b7f7ab8ee92553e7a7910a043701712358b9d7190e29a"),
    ("kz2_f3~m", "check-duoidal"): (0, "bd3c1072e01f11af4505d28b7f04840073ff4330936ab54484636ea3c21d8769",
        "dab0e95d799cc8f10e58e625881935691401e04c8783fc972af03f0a99594641"),
    ("kz2_f3~m", "tau-split"): (0, "9e0522f11f01985a7de381dc560e29491f14499d39175a3b44c06d21aca89626",
        "77c713283190b97e56230f1a494ffbda0c0c7b812405ee358035bbe04f6aae27"),
    ("regular_comodule_f3~mB", "check-monoid"): (1, "26ad376210a111bccd81b89836db74b6f5256776ee1ce0850545c2f529502715",
        "c1fb09b20e9f784f46a86316ce06c71bee87c089401b29e9038830317887744f"),
    ("regular_comodule_f3~mB", "check-comonoid"): (0, "ef023d0e5449440c0bd236136d6e31032e95630d6ff2eaf650707bc85a711d71",
        "ab911bf56c6fc5b8bb2201f84462cd9ebac483086a95307f0d78199b101a1ff1"),
    ("regular_comodule_f3~mB", "check-bimonoid"): (0, "d09df17e8293c44c6604618385859fecf97f787fa59c2a884cf8d5d40249a420",
        "f99379930e1ba5162f49bb7ed2ed8d9efa10ee1569697f137924a6b8ec369a4f"),
    ("regular_comodule_f3~mB", "check-comodule-algebra"): (1, "1f8f9e691869f402676f26fb951d1b9a2d63cfac554b39c36b50286096b6a56e",
        "9d8d0e42ba1d421905be88f2bcf748b29aefd66e73101d59611e14df8d64475d"),
    ("regular_comodule_f3~mB", "check-entwining"): (2, "9401038b12ca777f15e0b1797da0625398a4861afc1887f6af18f7daf49e78a2",
        "9401038b12ca777f15e0b1797da0625398a4861afc1887f6af18f7daf49e78a2"),
    ("regular_comodule_f3~mB", "check-hopf-module"): (2, "13c7150303aafc864d64cac0061556ad68756bab130d1f9559a0a137da7eebd0",
        "13c7150303aafc864d64cac0061556ad68756bab130d1f9559a0a137da7eebd0"),
    ("regular_comodule_f3~mB", "derive-entwining"): (0, "87d0d2c606b2ecf9d26f959bee3b61cacafab270c97fa842efd5868b39da8473",
        "d99aa6712f0a557ebfdf0bc40d073267a282b3f74593c5f5ad411f98c87da78e"),
    ("regular_comodule_f3~mB", "galois"): (0, "6dea0490a1e4728619d6b4b1e40a13c253f1b0b408c77cd342a9b36818e16912",
        "79d3ca001f20683214cc2eccfa0a12e12a9ab0abfaf7ddd0073b2e364df1db8b"),
    ("regular_comodule_f3~mB", "galois-generalized"): (1, "f7be477f14063a690525610f0c00c34efa6cb2282c368dc78e22f71c8857d043",
        "d9243d7c369891101e17bb46ebeda9fbd48da2b8081e8fed20c59b6970220092"),
    ("regular_comodule_f3~mB", "galois-dual"): (0, "5767f3d896e937d260c915bced8e06f4b99bef1fe3e73b41f836f71ad1361d54",
        "3fde9d0477a5f8b8b956987800e06d601a1cb3c53942fe5d144c5c9c2ebb913c"),
    ("regular_comodule_f3~mB", "fundamental-theorem"): (0, "925d2a47792df3304dc96ab27e547a32d766426b2fe358c948c42480bede1290",
        "bddc03fd7a4ff87a27520940ecfed2f7565fd03ad79894ae283426ff20718897"),
    ("regular_comodule_f3~mB", "check-duoidal"): (0, "d2c049436437bfd5cbd6ac5ae4b7686e028273d0518bc596f5bb48ccd9f47919",
        "e56403b70dd9d9d4e1bc8ae676bbc9dc1621477ec7f7c527391f1786be9a72c0"),
    ("regular_comodule_f3~mB", "tau-split"): (0, "bc3b98e1d97fb2fbc3bd160c0b928bf8083d41648e8ae2e8398599aaae837ee6",
        "b2b24064a44dfd91fcf5b593cfdb0fbd6e623ccd299acc74846266b88f9174ea"),
    ("regular_comodule_f3~rho", "check-monoid"): (0, "345cbe88501c6455cc3809e20735f9eafc43fa6afb91d197840302df8bfa2966",
        "2770a48af45edc8f52d2efec666ceb2ecaced61d6950765b86ef726392e12a3b"),
    ("regular_comodule_f3~rho", "check-comonoid"): (0, "4500783a472ce4b632253b5bd8362e50169417a06800f4305fc3d9f40fe9caa0",
        "b6a20db21a3292c11fa936536cb84eb8f0988f02618245d09c54a29763a53f06"),
    ("regular_comodule_f3~rho", "check-bimonoid"): (0, "636bc63e2e95ddfaf22f0c20d9bbfef42f2fd59814ef15fa04995e7d9a5b653e",
        "b877050fe51e9035140415307b80aaf57504242c3121400f9306bc7199d75a66"),
    ("regular_comodule_f3~rho", "check-comodule-algebra"): (1, "8f6c3621a7162da898366f9a7b7c3ef287d21a567cda52c748e8eb032b024136",
        "9fb438dba31353cbb0dd17706b8c8f033e58184857e6e5d83bf644f0a60320f3"),
    ("regular_comodule_f3~rho", "check-entwining"): (2, "9401038b12ca777f15e0b1797da0625398a4861afc1887f6af18f7daf49e78a2",
        "9401038b12ca777f15e0b1797da0625398a4861afc1887f6af18f7daf49e78a2"),
    ("regular_comodule_f3~rho", "check-hopf-module"): (2, "13c7150303aafc864d64cac0061556ad68756bab130d1f9559a0a137da7eebd0",
        "13c7150303aafc864d64cac0061556ad68756bab130d1f9559a0a137da7eebd0"),
    ("regular_comodule_f3~rho", "derive-entwining"): (0, "6c0dedf7fef83d81340ec38e14cc5ce5049182a6c12abcdcc5172c846b96c64c",
        "2a6ae51b7ddbea791282f155bc3e4e536b04aadb6794bb7c60f6d6a8ddaaa3da"),
    ("regular_comodule_f3~rho", "galois"): (0, "8bf2f2908c44a3189595058185575c1c2613cdb5eff8f5b0be758c482c3faf33",
        "b7a48e91fc841d14da2c9b6f16802756c67b5658efb3703972f5c3925cb490fc"),
    ("regular_comodule_f3~rho", "galois-generalized"): (1, "9d0838891e9bfdad7f3dec9cb805b97beddd41afb54c5e40b0b6819a70c765cb",
        "4e77615ceab2374c5d14ce5c0cd7c0be56c832e897084f001db29a1d74d38f19"),
    ("regular_comodule_f3~rho", "galois-dual"): (0, "97017d7033c2fef42ffaacc9e1e2c8feda1d0f5d1e24c93f50abe4b1049642d2",
        "5c58642e55f0bdc9561af9fa37ab415342b4d5303e632b2a68769b1a2ab55dce"),
    ("regular_comodule_f3~rho", "fundamental-theorem"): (0, "1c5e58593e9e9b1fba5687201ee40a5dbe302b38c7fedecb17047b0274136e15",
        "8232f952fb55b4207b957085ccb819f587f3ed535ae6403a59464bb02f7ec3aa"),
    ("regular_comodule_f3~rho", "check-duoidal"): (0, "836779f68b4d3845ce750f6de51cf0e96f98961c1ab40367b132013eff05a517",
        "611f328ad3de1314aad934bcdbb4cb7ad87e4fc17920d9d1afd99b9df5a65858"),
    ("regular_comodule_f3~rho", "tau-split"): (0, "129d08cf1e4bc1822c8c5ebc986c39c725c9e29568bb5fa928b42fc98d2bb742",
        "3a02de54b6bb9ea3967f479d027ef6c1552aa9291f944cb9fef043a7260770ad"),
}


@pytest.mark.parametrize("command", CHECK_COMMANDS)
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_output_matches_golden_digest(name, command):
    directory = os.path.dirname(fixture_path(name))
    assert outputs(directory, name, command) == GOLDEN[(name, command)]


@pytest.mark.parametrize("command", CHECK_COMMANDS)
@pytest.mark.parametrize("variant", sorted(BROKEN))
def test_broken_output_matches_golden_digest(tmp_path, variant, command):
    write_broken(variant, str(tmp_path))
    assert outputs(str(tmp_path), variant, command) == GOLDEN[(variant, command)]


def test_golden_table_covers_fixtures_and_commands():
    names = ALL_FIXTURES + tuple(BROKEN)
    assert set(GOLDEN) == {(n, c) for n in names for c in CHECK_COMMANDS}


LARGE = ("make-instance", "regular-comodule", "--p", "5", "--order", "16")
LARGE_NAME = "regular_c16_f5"
GOLDEN_LARGE = {
    "make-instance": (0, "a0db92db928966bd0a0d5567d002160adc4f1baf7c55eb4165c311037909a1ea"),
    "galois-generalized": (0, "02ae73bceb0810b54db6c2129ca5aace430e1f0877b781563fd1f19fa9260bde",
        "c1e75d7181a342522d00d973f9357e1b6311b099cee65d631f2683dc3ec1c8bf"),
}


def test_large_instance_text_matches_golden_digest():
    assert _digest(LARGE + ("--out", "-")) == GOLDEN_LARGE["make-instance"]


def test_large_canonical_map_matches_golden_digest(tmp_path):
    assert main(list(LARGE + ("--out", str(tmp_path / (LARGE_NAME + ".json"))))) == 0
    got = outputs(str(tmp_path), LARGE_NAME, "galois-generalized")
    assert got == GOLDEN_LARGE["galois-generalized"]


# make-instance for every kind at p = 2 and 5, orders 0, 1 and 5: exit code
# and sha256 of stdout then stderr, errors included (order 0 of a group
# order, sweedler at p = 2); kinds without a group order ignore --order
MAKE_INSTANCE_GOLDEN = {
    ("group-algebra", 2, 0): (2, "265f7fc854de0c0e6a892e295a54bcf65d3761221a2f542a962331ffda3ccf7d"),
    ("group-algebra", 2, 1): (0, "a521a2f7ec92383a24c2136a5b7ccbf21fe54a2f529c1e28b6ec2ffeace3eecd"),
    ("group-algebra", 2, 5): (0, "d731f3511066fd2044f48168a924e5b001e69616f4b13cd49b2eb053365acb46"),
    ("group-algebra", 5, 0): (2, "265f7fc854de0c0e6a892e295a54bcf65d3761221a2f542a962331ffda3ccf7d"),
    ("group-algebra", 5, 1): (0, "20d681cb7b1627a13dbea407b9655d3626e8ab0b125fcda3b8fb01d47171b9df"),
    ("group-algebra", 5, 5): (0, "dc64c99eaac96f010b738e553604632a8217b0d7384f0171af685b11fdb9a151"),
    ("idempotent-monoid", 2, 0): (0, "7ffc8ca827587330d367ff5e70fafb80279228d3d6f026066e0ceec1a8b73744"),
    ("idempotent-monoid", 2, 1): (0, "7ffc8ca827587330d367ff5e70fafb80279228d3d6f026066e0ceec1a8b73744"),
    ("idempotent-monoid", 2, 5): (0, "7ffc8ca827587330d367ff5e70fafb80279228d3d6f026066e0ceec1a8b73744"),
    ("idempotent-monoid", 5, 0): (0, "ed4569e7c17d78043ca7959dc7fe4cc87a01c96e51bb3e9ca15b3cb76348473e"),
    ("idempotent-monoid", 5, 1): (0, "ed4569e7c17d78043ca7959dc7fe4cc87a01c96e51bb3e9ca15b3cb76348473e"),
    ("idempotent-monoid", 5, 5): (0, "ed4569e7c17d78043ca7959dc7fe4cc87a01c96e51bb3e9ca15b3cb76348473e"),
    ("regular-comodule", 2, 0): (2, "265f7fc854de0c0e6a892e295a54bcf65d3761221a2f542a962331ffda3ccf7d"),
    ("regular-comodule", 2, 1): (0, "06f49153457d3611893adebee126b61ad97483544f0929ba3887b6e454aec6e9"),
    ("regular-comodule", 2, 5): (0, "c4834f64a7baf80a93b8138273780c55a05f5ff5c306052f91d2aef74a0850db"),
    ("regular-comodule", 5, 0): (2, "265f7fc854de0c0e6a892e295a54bcf65d3761221a2f542a962331ffda3ccf7d"),
    ("regular-comodule", 5, 1): (0, "351c430de89b5f27f52f976ae5155571d953967ee1ed26f8645716ce49fa6644"),
    ("regular-comodule", 5, 5): (0, "16d79372a8b5684bdab4c40039b5708999f2cb57de149893865de80d21c80935"),
    ("sweedler", 2, 0): (2, "1229bace3ce37bfd39df9021d661c1a59553122678c287042b6a073d71f97c3a"),
    ("sweedler", 2, 1): (2, "1229bace3ce37bfd39df9021d661c1a59553122678c287042b6a073d71f97c3a"),
    ("sweedler", 2, 5): (2, "1229bace3ce37bfd39df9021d661c1a59553122678c287042b6a073d71f97c3a"),
    ("sweedler", 5, 0): (0, "cd3b91e2866d47a88c1786beb65bcee71be8303cb5b928717fb85064ddf97cd7"),
    ("sweedler", 5, 1): (0, "cd3b91e2866d47a88c1786beb65bcee71be8303cb5b928717fb85064ddf97cd7"),
    ("sweedler", 5, 5): (0, "cd3b91e2866d47a88c1786beb65bcee71be8303cb5b928717fb85064ddf97cd7"),
    ("trivial", 2, 0): (0, "a521a2f7ec92383a24c2136a5b7ccbf21fe54a2f529c1e28b6ec2ffeace3eecd"),
    ("trivial", 2, 1): (0, "a521a2f7ec92383a24c2136a5b7ccbf21fe54a2f529c1e28b6ec2ffeace3eecd"),
    ("trivial", 2, 5): (0, "a521a2f7ec92383a24c2136a5b7ccbf21fe54a2f529c1e28b6ec2ffeace3eecd"),
    ("trivial", 5, 0): (0, "20d681cb7b1627a13dbea407b9655d3626e8ab0b125fcda3b8fb01d47171b9df"),
    ("trivial", 5, 1): (0, "20d681cb7b1627a13dbea407b9655d3626e8ab0b125fcda3b8fb01d47171b9df"),
    ("trivial", 5, 5): (0, "20d681cb7b1627a13dbea407b9655d3626e8ab0b125fcda3b8fb01d47171b9df"),
    ("trivial-coaction", 2, 0): (2, "265f7fc854de0c0e6a892e295a54bcf65d3761221a2f542a962331ffda3ccf7d"),
    ("trivial-coaction", 2, 1): (0, "d610b50923992b66926f19ff1e14961f896ba0a11caa0ce3d87bd16716e21049"),
    ("trivial-coaction", 2, 5): (0, "0a8d47c56221f720bd81450215a7ce195abe28d7b1893880c785a101bc5911c2"),
    ("trivial-coaction", 5, 0): (2, "265f7fc854de0c0e6a892e295a54bcf65d3761221a2f542a962331ffda3ccf7d"),
    ("trivial-coaction", 5, 1): (0, "e661a8639fb8c33d891b7065aa0151abf62840b7f7259ee3f5791dfee208eaed"),
    ("trivial-coaction", 5, 5): (0, "ae3d2f36f6a3ca97119d416a7b59f109a4610c45c4c8f9dd035aad6172b6e8a4"),
}


@pytest.mark.parametrize("kind, p, order", sorted(MAKE_INSTANCE_GOLDEN))
def test_make_instance_matches_golden_digest(kind, p, order):
    argv = ("make-instance", kind, "--p", str(p), "--order", str(order))
    assert _digest(argv) == MAKE_INSTANCE_GOLDEN[(kind, p, order)]


def test_make_instance_table_covers_every_kind():
    assert {kind for kind, _, _ in MAKE_INSTANCE_GOLDEN} == set(builders)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_shipped_fixture_is_its_builders_output(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        shipped = fh.read()
    assert shipped == serialize_instance(build_instance(*FIXTURES[name]))
