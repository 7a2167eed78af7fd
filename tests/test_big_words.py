"""Big-weight digests: the decompose and ker-im-coker queries on weights of
10-16 base-p digits (ker-im-coker up to 13) at p = 3, 5, 7, each pinned by
the first 16 hex digits of the SHA-256 of its stdout.  The golden CLI corpus
reaches such sizes only at the 20-digit cap, where few words live; here most
digits are neither 0 nor p - 1, so thousands of words live per query.

The ker-im-coker pairs are admissible at j = 0 and at j of one and two
digits, and each prime has one thickened query at r = 12.  Re-record (only
when an output is meant to change) with

    PYTHONPATH=src python3 tests/test_big_words.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from spolink.cli import main

DIGESTS = [
    ("decompose-sl2 --p 3 --k 33378", "b08d5e7131ca29e1"),
    ("decompose-spo21 --p 3 --l 20446", "4bb0f4f944bdac71"),
    ("decompose-grt --p 3 --r 9 --l=-450467", "8396d43be30a2b4f"),
    ("decompose-sl2 --p 3 --k 607308", "dcd2a0f45a567c8a"),
    ("decompose-spo21 --p 3 --l 862817", "84a0507ff14d8beb"),
    ("decompose-grt --p 3 --r 12 --l=-8791884", "33973a5e81ccc801"),
    ("decompose-sl2 --p 3 --k 14915327", "1b797ee65e4b2c03"),
    ("decompose-spo21 --p 3 --l 16192663", "fb9be15608aead84"),
    ("decompose-grt --p 3 --r 15 --l=-365226802", "2805d1980cf43cd2"),
    ("ker-im-coker --p 3 --k 53175 --j 0", "88b3d3c326834ce5"),
    ("ker-im-coker --p 3 --k 53836 --j 1", "27672e46a239f3d5"),
    ("ker-im-coker --p 3 --k 37364 --j 5", "82f2c5a58d715d50"),
    ("ker-im-coker --p 3 --k 715671 --j 0", "e411e792450398e1"),
    ("ker-im-coker --p 3 --k 1264919 --j 2", "ae79e07980a6b748"),
    ("ker-im-coker --p 3 --k 951101 --j 8", "db5d187510bd5398"),
    ("ker-im-coker --p 3 --k 1119863 --grt --r 12", "ec435ea390f0275c"),
    ("decompose-sl2 --p 5 --k 5243771", "d3f2ec87e8a5644a"),
    ("decompose-spo21 --p 5 --l 4161965", "117e8d83ede0566b"),
    ("decompose-grt --p 5 --r 9 --l=-141261174", "da8e60e3b39f89dd"),
    ("decompose-sl2 --p 5 --k 489608444", "64d665e8b9951f9d"),
    ("decompose-spo21 --p 5 --l 1165236193", "5fb1b77096082e89"),
    ("decompose-grt --p 5 --r 12 --l=-11744400251", "e8397cfd9985d441"),
    ("decompose-sl2 --p 5 --k 102357878268", "b6b2521850134594"),
    ("decompose-spo21 --p 5 --l 62388242435", "e033219309169519"),
    ("decompose-grt --p 5 --r 15 --l=-2766873051503", "2df8a4cc655640dc"),
    ("ker-im-coker --p 5 --k 6355840 --j 0", "868e43b3764c1845"),
    ("ker-im-coker --p 5 --k 2781079 --j 4", "b4f120d56ee86ea2"),
    ("ker-im-coker --p 5 --k 9354694 --j 19", "362722b97cb7ab82"),
    ("ker-im-coker --p 5 --k 727276735 --j 0", "fa5f0673d50c5781"),
    ("ker-im-coker --p 5 --k 1008665894 --j 4", "72e3a9e0401e3423"),
    ("ker-im-coker --p 5 --k 1000102290 --j 15", "f6bb04ec0c716666"),
    ("ker-im-coker --p 5 --k 679113891 --grt --r 12", "b9b8d384c354c196"),
    ("decompose-sl2 --p 7 --k 248898099", "ba60136c4b9bb4f4"),
    ("decompose-spo21 --p 7 --l 272167484", "68f9308e60bb6914"),
    ("decompose-grt --p 7 --r 9 --l=-6555070416", "c228b38dd59b2724"),
    ("decompose-sl2 --p 7 --k 17443967125", "8d7b806177fbb50f"),
    ("decompose-spo21 --p 7 --l 31861726998", "8a1c49bbde527dba"),
    ("decompose-grt --p 7 --r 12 --l=-1436430561032", "04d3e53362217d9c"),
    ("decompose-sl2 --p 7 --k 29043267973844", "b6bfdd99e2846a86"),
    ("decompose-spo21 --p 7 --l 30048544242526", "0e431d517ec0a096"),
    ("decompose-grt --p 7 --r 15 --l=-878031029241615", "b5d97ed34a3fe25f"),
    ("ker-im-coker --p 7 --k 272878816 --j 0", "1605cbd466ba889b"),
    ("ker-im-coker --p 7 --k 87271396 --j 2", "ee85d14236419fab"),
    ("ker-im-coker --p 7 --k 202868638 --j 14", "bc95c7b07c5e4c11"),
    ("ker-im-coker --p 7 --k 15266843494 --j 0", "c23dc93361fee2d6"),
    ("ker-im-coker --p 7 --k 52799864107 --j 4", "007c5cbd4184577f"),
    ("ker-im-coker --p 7 --k 38292657876 --j 39", "d99c542ec86585e7"),
    ("ker-im-coker --p 7 --k 87625438603 --grt --r 12", "55954f5f8efbcdfd"),
]


def _digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


@pytest.mark.parametrize("query, digest", DIGESTS, ids=[q for q, _ in DIGESTS])
def test_big_weight_output_digest(query, digest):
    assert _digest(query.split()) == digest


if __name__ == "__main__":
    for query, _ in DIGESTS:
        print(f'    ("{query}", "{_digest(query.split())}"),')
