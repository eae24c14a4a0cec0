#!/usr/bin/env python3
"""Prints cross-implementation test vectors for `hc_crypto::aead::seal`.

Each envelope is built here with Python's `hashlib` and the
`cryptography` package's RFC 8439 ChaCha20Poly1305, independently of the
Rust code: the nonce is the first 12 bytes of
SHA-256(key || le64(aad length) || aad || plaintext), and the wire is
nonce || tag || ciphertext.

Inputs: one key, byte i = (0x40 + i); plaintexts of 0, 1, 15, 16, 17, 63,
64, 65, 2,301 and 70,990 bytes, byte i = (31 * i + 7) mod 256; aads of
0, 1, 16 and 17 bytes, byte i = (17 * i + 3) mod 256. A case whose
plaintext is at most 65 bytes holds the whole wire in hex; a longer one
holds the SHA-256 of the wire.

`tests/aead_vectors.json` is this script's output, and `tests/kernels.rs`
checks every case against the Rust implementation. To check the file:

    python3 scripts/aead_vectors.py | diff -u tests/aead_vectors.json -
"""

import hashlib
import json

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

PLAINTEXT_LENS = (0, 1, 15, 16, 17, 63, 64, 65, 2301, 70990)
AAD_LENS = (0, 1, 16, 17)
# Cases up to this plaintext length hold the whole wire.
WHOLE_WIRE_MAX = 65


def plaintext(n):
    return bytes((31 * i + 7) % 256 for i in range(n))


def aad(n):
    return bytes((17 * i + 3) % 256 for i in range(n))


def seal(key, message, associated):
    nonce = hashlib.sha256(
        key + len(associated).to_bytes(8, "little") + associated + message
    ).digest()[:12]
    sealed = ChaCha20Poly1305(key).encrypt(nonce, message, associated)
    ciphertext, tag = sealed[:-16], sealed[-16:]
    return nonce + tag + ciphertext


def main():
    key = bytes(0x40 + i for i in range(32))
    cases = []
    for plaintext_len in PLAINTEXT_LENS:
        for aad_len in AAD_LENS:
            wire = seal(key, plaintext(plaintext_len), aad(aad_len))
            case = {"plaintext_len": plaintext_len, "aad_len": aad_len}
            if plaintext_len <= WHOLE_WIRE_MAX:
                case["wire"] = wire.hex()
            else:
                case["wire_sha256"] = hashlib.sha256(wire).hexdigest()
            cases.append(case)
    lines = ",\n".join("  " + json.dumps(case) for case in cases)
    print('{"key": "%s", "cases": [\n%s\n]}' % (key.hex(), lines))


if __name__ == "__main__":
    main()
