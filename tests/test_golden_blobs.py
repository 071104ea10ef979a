"""Golden SHA-256 digests of compressed blobs: the on-disk formats are frozen.

Each of the 14 Table 4 methods compresses five small corpus inputs (three
float64, two float32; 1-D, 2-D and 3-D). The digests were taken from the
pure-Python implementations before their sequential loops moved to C, so a
kernel change that alters any emitted bit, and with it any CR, fails here.
"""
import hashlib

import numpy as np
import pytest

from repro.codecs.base import TABLE4_METHODS, load_codec
from repro.data.corpus import generate, get_spec

#: (dataset, scale): msg-bt is over 64 KiB (the LZ77 offset window),
#: gas-price repeats values, astro-pt flips signs (64-bit XOR widths).
INPUTS = {
    "msg-bt": 0.15,
    "gas-price": 0.05,
    "astro-pt": 0.25,
    "citytemp": 0.05,
    "turbulence": 0.1,
}

GOLDEN = {
    ("msg-bt", "pFPC"): "616f02148c1cb572269cf5d3c76052c2f94cc9b74c16308573af9b2827735b58",
    ("msg-bt", "SPDP"): "1be4ebbd6391a849a44573a919327bf8385fc04eb2a78961af4f7b49bd99d806",
    ("msg-bt", "fpzip"): "acbbae7d0003adf4ab039c609563e84d2aff6cc80846d4a9581551f19018ded4",
    ("msg-bt", "shf+LZ4"): "8943e8fe4f70b9d493442b2855535e241ceabe8b98cc0e556aac2c7ebdaf5214",
    ("msg-bt", "shf+zstd"): "f2d69702051e2fefbcc6a5c0e11f14d64d97c94f1c316f86d066b06d0aadab70",
    ("msg-bt", "ndzip-C"): "1bcc8cc25abd033bcfcb702774394d9dd123b6a11aab8ce2b8a9c72d65b00260",
    ("msg-bt", "BUFF"): "87921e4a4772d0fdd8f01c2232bed19b0675176099ef80f3ddee52728403a17d",
    ("msg-bt", "Gorilla"): "b77919544e5b9fe1e790e3c02efd497eed75179887bd9903aa8a672e1f767bbf",
    ("msg-bt", "Chimp"): "cd5873ae10b0a6f5fe7a674b0df6ca8631b36f70988ad95c80739e714be3fe7b",
    ("msg-bt", "GFC"): "04de08f8b9b972609b224d60c1b6d8b8369f195e1d9c0e11468b769d9494da1c",
    ("msg-bt", "MPC"): "326386e6d76adf7cb28b66150ea68ad05da4801c2f9bf06fb342256b44ed5333",
    ("msg-bt", "nv::LZ4"): "65eb7bb106b9a34ba88fed00c2fb9e3ec589c749090e601eb5c9968b52200a1e",
    ("msg-bt", "nv::btcomp"): "ee797f3c4f04d668a475ead814981dbc11ad9dcffa605920ef7500cf7054af8d",
    ("msg-bt", "ndzip-G"): "1bcc8cc25abd033bcfcb702774394d9dd123b6a11aab8ce2b8a9c72d65b00260",
    ("gas-price", "pFPC"): "3476e1da405f6e6efb2e5dfffdee50353c4d7b51d2b23fe4f1998318dc57d1a5",
    ("gas-price", "SPDP"): "39f7e4b7ff362a3720d6144f0ad426b9fb2db8aca77be6c2183095d3ee3e88ad",
    ("gas-price", "fpzip"): "0f3df1007a15f6e18a35b9c57c656a2f42706347b6df378f2a29c5f6545a812b",
    ("gas-price", "shf+LZ4"): "3017d7c068c3d08544f2ef60fb4ee503444b3f6cab992158e6edd36e0f7950f5",
    ("gas-price", "shf+zstd"): "e4e504ed084a1b9250aee14fca04cc9de7d4e091e52371d4477f01cb5bca629e",
    ("gas-price", "ndzip-C"): "0c8d6d71d6831dcfe09722fe1af5e8d1818624687fb530c166fae8a1d44f437c",
    ("gas-price", "BUFF"): "3957cf71a3e285477ada0047f420839e96aefbbbae5b8f2a6d01011cc92fa8ce",
    ("gas-price", "Gorilla"): "e138af19417c7ab4cdaa82ca5a1058d547e386fe2f03c299853f71711c4d1b32",
    ("gas-price", "Chimp"): "0e37753d03748947927183fc189271d6f6b3989daee7f69b90bd9b9855064ae9",
    ("gas-price", "GFC"): "d69091937e788a3e7974e4303cec202108de1716f87e8cd3bf55c50eb05d14f4",
    ("gas-price", "MPC"): "79368c3b4a4acec9b32932b7e75b8566462d6f706b854a27958a00bfeaee0066",
    ("gas-price", "nv::LZ4"): "54c7e8ae84ff0fa0159e5f574e5de3c6b2b17ac1563f6b099f78e19dca7478ae",
    ("gas-price", "nv::btcomp"): "3034bf710c3ed68dc2e1119aae265981cd0adc28f70e084a66c138cd06389170",
    ("gas-price", "ndzip-G"): "0c8d6d71d6831dcfe09722fe1af5e8d1818624687fb530c166fae8a1d44f437c",
    ("astro-pt", "pFPC"): "a9eca0030ec21a0f0d11d57fda42e991b06eb7c233d7f5a9ce585a2327fa5b83",
    ("astro-pt", "SPDP"): "0dcec23c91afa5f949b9a24e6a71d0b0bac6864805a207f4b1c078938007f630",
    ("astro-pt", "fpzip"): "3f276a53a72696447b8d04c1cb739970563dc3041a066026babda4f11a78a6f4",
    ("astro-pt", "shf+LZ4"): "8ac411aaa1548a5f22fb0f277b16d9fc2e8c90935ac9ad2074f547b79e3a2b7b",
    ("astro-pt", "shf+zstd"): "b26fd2bd786c87b03d416a8dc2c41ed0f99390e1101bd73b24a26e236150019f",
    ("astro-pt", "ndzip-C"): "a361d95aff8f9c5d2549a73ed109dfa2ffd0451729b396bbd3bc78903e7d87af",
    ("astro-pt", "BUFF"): "8a4985cc1789c26d90e84f0667dbf8493582807d42a0f79a600065fae2397fc3",
    ("astro-pt", "Gorilla"): "d6ef2aaa9e9b50ac5f20090c11f917e928e7e50cfcb23b9755da514ca8da3974",
    ("astro-pt", "Chimp"): "3eb9a7a0f98965dd30dc3870dbb919ed2d8151af24a4268db821f554de631042",
    ("astro-pt", "GFC"): "60581001d244d732c9909ee682646294aba8c5f57d0701c41760dec29a6446b3",
    ("astro-pt", "MPC"): "3bad614ec0fb326d0fec21483faf8d7ecddd3e9f82295f082bcc773cfe857148",
    ("astro-pt", "nv::LZ4"): "c09fe57a25da7aacfb1da37c4c2cdb127a5936dfcc4088c05a51d9bb894c4929",
    ("astro-pt", "nv::btcomp"): "3e202cbaa12f149ff5d831af7ee29346400abb345565c7e876cb58b977b91115",
    ("astro-pt", "ndzip-G"): "a361d95aff8f9c5d2549a73ed109dfa2ffd0451729b396bbd3bc78903e7d87af",
    ("citytemp", "pFPC"): "c062e877dcc49ba0518422caf2affceef0a142df6c803e817b6ef8f9f9b01c86",
    ("citytemp", "SPDP"): "0772ff4ccabc9017167c3104efd091a094100cf3fa09c0aa9a25eb4682467af2",
    ("citytemp", "fpzip"): "afdf5db4ad67a84c15a8d20e57a2d28917b4cf263227da5e0e7c5aa8e7f9293d",
    ("citytemp", "shf+LZ4"): "01bbe56bf77233da981e79ae6335725b63db4eef6eda8f8179fe15a3fdcf0bf8",
    ("citytemp", "shf+zstd"): "584b75e1e05b68fd0756bd4144f7a5b761320aeaa81d1c857c218605f820d46b",
    ("citytemp", "ndzip-C"): "814a9f576f9ef3088387bff218357a8850cf7ae6951bb1f03ac14832988cef35",
    ("citytemp", "BUFF"): "29852e179bf290cd896d3d3db466a2ddffdd0d4aaab81649986e82586fc6b130",
    ("citytemp", "Gorilla"): "4a3c68c3d9ef8dd13f175a08a4008c03cec5002d980c2793e61ecb89ec32f78b",
    ("citytemp", "Chimp"): "587855fa2cf6f9782d1ad7dfe55c3f5fa324ed7960613d8e776631ad8fc87afe",
    ("citytemp", "GFC"): "6015ba2781ef1fc87a5147146368a5eae26756442c643cd4abe9fa2121a3249b",
    ("citytemp", "MPC"): "4f4c59988d48156c732c22e16b1bdd58e5565cc91c2744f03229984ac7c5c1fb",
    ("citytemp", "nv::LZ4"): "436ca3a16db5aaa556327493705dee17d774f4506ba34c801168418864b69371",
    ("citytemp", "nv::btcomp"): "c1734155a1936b070681b5e124da42d693a5af2e9e108ef385bcc7a808577dfb",
    ("citytemp", "ndzip-G"): "814a9f576f9ef3088387bff218357a8850cf7ae6951bb1f03ac14832988cef35",
    ("turbulence", "pFPC"): "fe4dc67ffc6ef21cfe0fca52cb2e07254dfed47f7906eb6a878b042848388e9e",
    ("turbulence", "SPDP"): "520d1bf0c0f477193c6638dabc5dcb8190a3caa7bc8e3db3b18a453750f9c58a",
    ("turbulence", "fpzip"): "5b7c74d10ac85b7589a40c8495c7cbc7c4f85d647650c4442fb396998d366f65",
    ("turbulence", "shf+LZ4"): "7d6251c24fdfd84bf5f5feee215ffb1b8e6a1a544b27f9b69799b4b2f81debf3",
    ("turbulence", "shf+zstd"): "97ce1b2827f1b2db907c7fbe43fd979dbb741a4de5562ec1be0bdaf49c4068c5",
    ("turbulence", "ndzip-C"): "61978b219f7d622c982250af473cd34be08e707c2ab2f7631fbe5ea97edb0d80",
    ("turbulence", "BUFF"): "f56a37210d38cef5b3c3f2ceb00e96d866088618f3329f214757b45d41e6e974",
    ("turbulence", "Gorilla"): "6383089870139875b897b72e53b6a9073910ce10433e3219e946eff25417bf95",
    ("turbulence", "Chimp"): "a8218a37f43d5ff8cc9ee70dcd2c229b45056a0df1cd39610bc0f81782901d8b",
    ("turbulence", "GFC"): "21ffbef1248d0791db2add5c0e7358cea87988b0c3474fc004c4def8d19e9a45",
    ("turbulence", "MPC"): "4cf4f62121755210f65bf05c35b92f7a813c9544c08aaa245dd311d0a1c2ff9c",
    ("turbulence", "nv::LZ4"): "320655625f00cdbf2f744eb2508ac8f12cdbd3cb6a7062f400f40d0b4e36778d",
    ("turbulence", "nv::btcomp"): "409da4fccefb08c18e6fcfd0868c39b15f2cdd50258ab80cb42e59dd5f9e765d",
    ("turbulence", "ndzip-G"): "61978b219f7d622c982250af473cd34be08e707c2ab2f7631fbe5ea97edb0d80",
}


def test_every_method_and_input_has_a_digest():
    assert set(GOLDEN) == {(d, m) for d in INPUTS for m in TABLE4_METHODS}


@pytest.mark.parametrize("dataset", list(INPUTS))
@pytest.mark.parametrize("method", TABLE4_METHODS)
def test_blob_digest_unchanged(dataset, method):
    arr = generate(get_spec(dataset), INPUTS[dataset])
    codec = load_codec(method)
    blob = codec.compress(arr)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(dataset, method)]
    np.testing.assert_array_equal(
        codec.decompress(blob).view(np.uint8), arr.reshape(-1).view(np.uint8)
    )
