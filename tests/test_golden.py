"""Golden digests: the shipped configs must reproduce pinned output bytes.

Each ``configs/*.json`` run goes through the CLI into a temporary directory
and the SHA-256 of every file it writes, ``manifest.json`` included, is
compared with the value pinned here.  A rerun matching itself (criterion
10) cannot catch an engine change that shifts numbers; this test can.  A
change that is meant to alter outputs must say so and re-pin these values.
"""

import hashlib
from pathlib import Path

import pytest

from nsdde_sim.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# config stem -> (command, {file name: sha256})
GOLDEN = {
    "linear_simulate": ("simulate", {
        "manifest.json": "2d729f297600c650e74eafd76ae6969672403013664fd9cb592563edb5428415",
        "noise_0000.bin": "336e68ca8076b6efe78198699d76eabcb12492a406521770a42b51d8590aa911",
        "noise_0001.bin": "86af2283efdbdcc500f70a4d0f4eefec8093d264b0fc0749d4440dc6b4e670b5",
        "noise_0002.bin": "0e8d87bc63d6b389dd7708dcb091d517e0b46aea882c28e1b1ed51c4f23a4e72",
        "path_0000.csv": "db146dda33569e8932b433ab7899a909db4796d327cbec4be5e311ee2ad76a67",
        "path_0001.csv": "db146dda33569e8932b433ab7899a909db4796d327cbec4be5e311ee2ad76a67",
        "path_0002.csv": "db146dda33569e8932b433ab7899a909db4796d327cbec4be5e311ee2ad76a67",
    }),
    "sec4_check": ("check", {
        "check.json": "3638623142357f6be08242e9179a548cdf7d86d154f375de9dc7907df28ed078",
        "manifest.json": "84e0921cd14f200deec767b4a726785b273b424fc18c35463d858fcb8709ceb9",
    }),
    "sec4_converge": ("converge", {
        "converge.csv": "188f05842be33094bd6237a87b8e23bfcc02cc15805a1de804c148c7bcefbe44",
        "manifest.json": "11d9dd2de5a6e76abfdf40b5bc471db45105a0da4b063ba02d0325d78f30fb44",
    }),
    "sec4_moments": ("moments", {
        "manifest.json": "b686dd5540a0b9eb583cc07719b22d0437e4901e83fbdbfe7c0b6b1b3a7ae9bc",
        "moments.csv": "e393688e18a71bfd7cdc0c4971de1d80e9c8dd391ceef6dc87626f04c83691b1",
    }),
    "sec4_moments_fine": ("moments", {
        "manifest.json": "f670ca3ca9eca0488e025c0b00cf6bd1a0aee178d6991c7f7ddde1ed9640a73b",
        "moments.csv": "f8ff7d2138a6f1ff51e6281dfab2095696bcfdb16eae7727771e5278d60a1ae0",
    }),
    "sec4_perturbation": ("perturbation", {
        "manifest.json": "1050fe747776282d0f9a8d5407e61b8e1141e07ee222a8f7333e949ca9d7e801",
        "perturbation.csv": "93d58bf64b79ceb9c028e76d5297798fae3bb82e435f85cf5e1911f1ed1664c7",
    }),
    "sec4_simulate": ("simulate", {
        "manifest.json": "cfc050cb246bfcb8e849fb83d69e5f107a9d22cab12d326bafa115b194c410f1",
        "noise_0000.bin": "8520d66b1ad7f7c4ca82a51eadb15a5cf514976c3af6f06b5fe23ae60e94d0a0",
        "noise_0001.bin": "97f48d86b2f4ab032b0506ac44117def109ac789b066e13f297c516d9fa9a1b7",
        "noise_0002.bin": "cf183f45e1e3707c9dc672eb9e4b111d03ec43eb6d95c50bd9d239d8cc66429e",
        "path_0000.csv": "9a15628145cbd787b8f27aad92e17ff1d2fc25c76a3f57bd16ed64721ce32cf9",
        "path_0001.csv": "20c5056e3f181f0c6c3e25a165f1f8feb0f95b24d8e875ccb56a406379ee75fa",
        "path_0002.csv": "7dd67bfbc5fe97121e038aa616bb8244bb7362343489acd13ce886aad333066c",
    }),
}


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_shipped_config_outputs_match_golden_digests(stem, tmp_path):
    command, expected = GOLDEN[stem]
    argv = [command, "--config", str(CONFIGS / f"{stem}.json"), "--output", str(tmp_path)]
    if command == "simulate":
        argv.append("--dump-noise")
    assert main(argv) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == expected
