"""Golden output hashes: report bundles of seven small configs, byte for byte.

Each config runs `dynaclear` in process and the SHA-256 of every
deterministic bundle file is compared with a stored digest, so a refactor
that claims to keep the output proves that no byte moved.  `summary.json`
is left out: it echoes `out`, `jobs` and the package/library versions.

The digests pin this platform's numpy and Python builds (float formatting
and libm results can differ elsewhere).  If a change moves bytes on
purpose, regenerate them and say in the change log why the law still holds.
"""

import hashlib

import pytest

from dynaclear.cli import main

FILES = ("ratios_alpha.csv", "ratios_beta.csv", "fits.json", "traces.csv")

CONFIGS = {
    # small-pool matrix route, analytic denominator
    "greedy-const": (
        ["simulate", "--schedule", "greedy", "--rate", "const:1", "--matches", "200",
         "--reps", "12", "--seed", "11", "--a-grid", "10,25,50,100,200",
         "--tau-grid", "20,40,80,160,320", "--jobs", "1"],
        {
            "ratios_alpha.csv": "7c6e2df4231399d2580682c226034ebe2ca49e1578e2b3663d1b69305aebbc61",
            "ratios_beta.csv": "cf876ab5fc83c8cca7bb332cd8975db84fdc71edf13a7513f52bfa62dc270c7a",
            "fits.json": "1865027409c29ff866227b143e71445d9d3e82aaa55bd54b5d5a6858ecf17a94",
            "traces.csv": "d3a658b8e2e4c64d3fb80e530973b638e4f504c194a4a16e951c015da1589033",
        },
    ),
    # heterogeneous row-sum route (pools past the seam) and the empirical
    # patient denominator, both fanned out over two workers
    "power-uniform": (
        ["simulate", "--schedule", "power:0.5", "--rate", "uniform:0.5:2", "--matches", "120",
         "--reps", "8", "--seed", "12", "--a-grid", "5,10,20,40",
         "--tau-grid", "20,40,80,160", "--jobs", "2"],
        {
            "ratios_alpha.csv": "470be6e8046ccaa82411e31910a41b584f2de88154e077052d4dd1b1e29cf7da",
            "ratios_beta.csv": "1f4f7a5917c42478f1eba9181b5ae2282b35c4227535f4200db03c68a8f6bd4e",
            "fits.json": "9f3071212329cc76500dcea03267dc6225f943171b9d0a16cd2729da4b5437ae",
            "traces.csv": "ff8f2adc077cdb1508b1662aeaee87bf7d25e5d451c7cbecd35e01ca62bc4eab",
        },
    ),
    # product-form rates on the heterogeneous route, whose pool state stores
    # one factor per agent; about one event in five is past the seam
    "power-product": (
        ["simulate", "--schedule", "power:0.5", "--rate", "product:0.25:4", "--matches", "120",
         "--reps", "8", "--seed", "17", "--a-grid", "5,10,20,40",
         "--tau-grid", "20,40,80,160", "--jobs", "1"],
        {
            "ratios_alpha.csv": "9eeab5fb39e3ed22d3cf12b989e3217f0726a6124372e281a8fbce929cfab407",
            "ratios_beta.csv": "e79a6109406526099a8d8ab42314d5ed3964be494f8f129affcef12fcf246c22",
            "fits.json": "f314a6449b957a37c4005d8d4d0e93d53815af5305382dc0bccf3c0f85138213",
            "traces.csv": "1f8c4c6e2cc36a9a7db50756f81482bf8cdbf85a5f97c80eaca4cb91a61fe9cd",
        },
    ),
    # count-decay cost law
    "gmode": (
        ["gmode", "--delta", "3", "--gamma", "0.45", "--matches", "200",
         "--reps", "10", "--seed", "13", "--a-grid", "10,25,50,100,200",
         "--tau-grid", "20,40,80,160,320", "--jobs", "1"],
        {
            "ratios_alpha.csv": "196cd9734979bcec500ff74f4e7f54751c923ffca512a261ff9cb57e77e1f2ca",
            "ratios_beta.csv": "6a35d6fb9035c102163ff29ebb1501f2994ad0c2a14e006d76612e976ab638af",
            "fits.json": "f13286174867a6eba3accb887d8b2162fa99bfcbb4c196c41ba87abcc838943a",
            "traces.csv": "2ec59d400d998b01977db5c89a5066a6f19300a09b0f5fae280f638e29037207",
        },
    ),
    # arrival-order pairing
    "fcfs": (
        ["simulate", "--schedule", "fcfs", "--rate", "const:1", "--matches", "200",
         "--reps", "10", "--seed", "14", "--a-grid", "10,25,50,100,200",
         "--tau-grid", "20,40,80,160,320", "--jobs", "1"],
        {
            "ratios_alpha.csv": "41a214f4d3c78073f137de8c3d2f2f1ac583eb138a41c158b348cff903c21ad3",
            "ratios_beta.csv": "eb65394d6b7689059c6fe90fafddca1ba45bac702f912aa7d64f69b9a86ab2ec",
            "fits.json": "a05ff1c7e452b76991c1ac6983a0c92f1b538f44d36cf6045d6eea3b237ad737",
            "traces.csv": "d0f3c671b373a3f6579d59e1aec2d2f3e2d6facef89c883546e1f9c4cb32f279",
        },
    ),
    # constant-rate seam route: most traced clearing events sample the
    # minimum past SEAM_PAIRS instead of pricing the pool matrix
    "balanced-const": (
        ["simulate", "--schedule", "balanced", "--rate", "const:1", "--matches", "2000",
         "--reps", "6", "--seed", "16", "--a-grid", "20,100,500,1000,2000",
         "--tau-grid", "200,400,800,1600,3200", "--jobs", "1"],
        {
            "ratios_alpha.csv": "56d8dee895c23bc31616f23ba97a7da554feef17fb77a0e6e95f59dd3f63a994",
            "ratios_beta.csv": "46f3cb7c52d2a44409b012d0b657f3eafb8e9d37bbbc084088fbdbb4f2d78bf7",
            "fits.json": "58f188f9af7f98a4236d133e6d14a8903976d2809f41c13237ac528ab76fa17e",
            "traces.csv": "62a64ea042df12ad89e9c080f28725f2fe3ff30cb33cf3997dd176081c752a83",
        },
    ),
    # terminal optimal assignment at the horizon
    "patient": (
        ["simulate", "--schedule", "patient", "--rate", "const:1", "--matches", "60",
         "--reps", "10", "--seed", "15", "--a-grid", "5,10,20,40,60",
         "--tau-grid", "10,20,40,80,150", "--jobs", "1"],
        {
            "ratios_alpha.csv": "6a0f73f7a784247723052f3afa01150c1a6ba88e1eb866ba7f7382ded45f337b",
            "ratios_beta.csv": "12524c34a353cacd0aec0a123b106db8411066e42f801527116f307efeb4c608",
            "fits.json": "ecd539d40ff8631c4183c60eeb54e864e52ac0768e094760f7f8146db47f45c0",
            "traces.csv": "6941cf60814273d586abedd4a37b5f797b0785ed42253a33a41b829498b58c43",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bundle_bytes_are_pinned(name, tmp_path):
    argv, expected = CONFIGS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in FILES}
    assert got == expected
