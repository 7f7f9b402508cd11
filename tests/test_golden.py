"""Golden regression digests for exports, operators, the pairing and reports.

The digests were recorded from a known-good build; any change to coset
order, basis choice or operator assembly changes them.  The report digests
cover the full JSON stdout of ``mixsym verify``, so they also pin the
``lhs=... rhs=... rel_error=...`` details of the eis suite and the index
values of the lattice checks, byte for byte.  To print fresh
digests (only after confirming the new output is right), run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from mixsym import dualpair, hecke
from mixsym.cli import main
from mixsym.mms import build_space, space_to_dict
from mixsym.sl2 import GroupSpec

EXPORT_DIGESTS = {
    ("gamma0", 11):
        "9e16a4df6d3bffc63c2e0604edf71c236d9366ca576076b2258fe17c8e0079fb",
    ("gamma0", 25):
        "c4938491fa8df58acfad4dd1fab8f0e3f8131d392bd5fab8f60b7c442c9bc52d",
    ("gamma1", 7):
        "e46a5b64468062a53f9ed88b2f3e64ce51717cfcedfce1a7145eb2e25a933d4d",
    ("gamma0", 101):
        "0eca19a449ccd960ee17b890a9d88a59921d0dd9c64974cd826180646cafef38",
    # many cusps with composite denominators, recorded while cusp points
    # were still Fractions
    ("gamma0", 36):
        "91bb24c10e41848ec78f50e0f4a0fc797a575ec4fd220fa32e4fe7b21f55ed1e",
    ("gamma1", 12):
        "99d235886dd3262162f2ac3422c15e64b1313c501b50fbe7ae29ce10965a0033",
}

MATRIX_DIGESTS = {
    ("gamma0", 11, "T2"):
        "ae1f0b33c52fca354d997cb77310d7495099cf1f1e02ffb047519bd008e3a976",
    ("gamma0", 11, "T3"):
        "d444e07fb9842b1588af63ea1220074e83471a34354b00930f699f97f70a69c2",
    ("gamma0", 11, "W"):
        "a617c5ddc666852d006e18e4cb0668b73d386e2a48c5797a10757bf37a0bf936",
    ("gamma0", 11, "conj"):
        "9fe5baac9c77b7a1c61c25dd172385aeec82fb867f8d5346b7161ff02f2c7939",
    ("gamma0", 11, "six_mat"):
        "1846944799dc47455fc550be944f4fe28a048bb21fd882b65d1f6f77ecab61ba",
    ("gamma0", 25, "U5"):
        "b3e1dc805a612c10c9d7642852ee7df35f398e3bcc92de8c1e70ce40950906e5",
    ("gamma0", 36, "U2"):
        "88c88b921dbec10966fde8625bca67cbc0417c15586b48a1d468ba0ac981c9ba",
    ("gamma0", 36, "U3"):
        "9365fbf56a69f49766d2289212b42087f2544382b0bd2a25a10183e7666341db",
    ("gamma0", 36, "W"):
        "ea2ff7ee4ecf2d5e00971ecf40dc23a9387204ed53d8ddaceb9ab5ad89236f85",
    ("gamma1", 7, "T2"):
        "2c88ba769e2d9cb665cc74109b2bbc7219e9be7be14232a70b4f024ef9be150a",
    ("gamma1", 7, "T3"):
        "0d39b9c0aff3282f8ecf3a7c15ac945b3cf912795aeb8d66ded3f8114bd88fcc",
    ("gamma1", 7, "W"):
        "5a6aa8359211b7930e12b08bf7dfa73497d3667546ce77047bd268a461d7f914",
    ("gamma1", 7, "conj"):
        "fe9c2d4b405edb4c3861d3a09cf55ce3236f4d16dab7bb1b1baf60ed4d664ac2",
    ("gamma1", 7, "six_mat"):
        "fd48cc4f9143f0d8d5d596b5ea12de98fc0df8e653360dd032023cc77059b654",
    ("gamma1", 12, "U2"):
        "007fa99a9720954ce0775ae4280d3c3b8ac1131767cc2f5a138b012c9f7fbab0",
    ("gamma1", 12, "U3"):
        "adde424f4156338d743e821deeb400157dfb1bc404c10f580e9f6500af73a75c",
    ("gamma1", 12, "W"):
        "4959f9883a6b73e52db3c7262cff18254110064422411fc2c39f75e352ce95e2",
}

REPORT_DIGESTS = {
    ("verify", "--suite", "eis", "--pn", "27,49,81,121,125,169"):
        "640369f4206ddd0777b2dc9d84c6a8c784481ac96663bfcfed1ff6f3f4f2340c",
    ("verify", "--suite", "all", "--family", "gamma1",
     "--levels", "5,7,11,13"):
        "ab04917e7d80e16c96024ba9721c75283e1f23d3d66ed1229d6fdf7859b7762d",
    ("verify", "--suite", "all"):
        "7c6dfb6015757ac1bdd034221cfb9f4e3efd31d75a5f586039a276f8c2da36f4",
    ("verify", "--suite", "all", "--strict", "--format", "markdown"):
        "ad7d8f8212c8537450b9d0e51f1ae90c9c1eba917f5cb12d253cfdccf91b921b",
    ("verify", "--suite", "pairing", "--levels", "2,3,4,6,9,25,27",
     "--strict"):
        "efed266f5686d25a8141f5512507da7bec330c21340dfd28adbd1f35d1a5ea08",
    # level 1 has rank 0; recorded while rank 0 still had its own branches
    ("verify", "--suite", "all", "--levels", "1,2", "--strict"):
        "f1fb31db8ca16c1927da84653344dd5b1230467a702dcb62a9ede366afd67f69",
    ("verify", "--suite", "all", "--family", "gamma1", "--levels", "1,2",
     "--strict"):
        "cc40b7aac1728e4649ac0080a440ba21b9dea689199ae3c656e56e63af831602",
}


def _space(family, level, _cache={}):
    if (family, level) not in _cache:
        _cache[(family, level)] = build_space(GroupSpec(family, level))
    return _cache[(family, level)]


def export_digest(family, level):
    """SHA-256 of the export document exactly as ``mixsym export`` writes it."""
    doc = space_to_dict(_space(family, level))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_digest(family, level, what):
    """SHA-256 of a named matrix with every entry written as an exact rational."""
    sp = _space(family, level)
    if what == "six_mat":
        name, mat = what, dualpair.pairing_matrix(sp).six_mat
    else:
        if what == "W":
            op = hecke.atkin_lehner(sp)
        elif what == "conj":
            op = hecke.complex_conjugation(sp)
        else:  # T<q> or U<q>: hecke_operator names it by the level
            op = hecke.hecke_operator(sp, int(what[1:]))
            assert op.name == what
        name, mat = op.name, op.mat
    rows = [[str(Fraction(x)) for x in row] for row in mat]
    text = json.dumps({"name": name, "mat": rows}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(argv):
    """SHA-256 of the stdout of ``mixsym`` run with ``argv``; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("family,level", sorted(EXPORT_DIGESTS))
def test_export_golden(family, level):
    assert export_digest(family, level) == EXPORT_DIGESTS[(family, level)]


@pytest.mark.parametrize("family,level,what", sorted(MATRIX_DIGESTS))
def test_matrix_golden(family, level, what):
    assert matrix_digest(family, level, what) == MATRIX_DIGESTS[(family, level, what)]


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_report_golden(argv):
    assert report_digest(argv) == REPORT_DIGESTS[argv]


if __name__ == "__main__":
    for key in EXPORT_DIGESTS:
        print(f"    {key!r}: \"{export_digest(*key)}\",")
    for key in MATRIX_DIGESTS:
        print(f"    {key!r}: \"{matrix_digest(*key)}\",")
    for key in REPORT_DIGESTS:
        print(f"    {key!r}: \"{report_digest(key)}\",")
