"""A pinned byte-identity corpus of simulation grids.

Each entry is the sha256 of a grid's results CSV followed by a zero byte
and its failure list, one ``<error type>: <message>`` line per failed
cell.  The hashes were taken before the numpy Philox kernel folded its
zero counter words, so they pin that every stream, estimate and failure
of these grids is unchanged by kernel rewrites.  A change that is meant
to change these streams must say why and rewrite the corpus.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from crexlab import protocol_config, rows_to_csv, run_grid, simulation
from crexlab.simulation import SimulationConfig

# (family, base seed, replications) -> sha256 of the protocol grid
PROTOCOL = {
    ("exp", 1, 20): "6d9cae81d6c7727fae44d442511bd7dd2fd41d7fb73e5be3b68aa30b3eeb7a45",
    ("exp", 1, 7): "f073abb8051f29f47ba905d2e847ac10f96321a39a3c496848ea980a0012d1c7",
    ("exp", 1, 1): "68be4bd48e9e28ea00e31d45c282e2e2a732f9ffd17cfffe12e8aa8f9e25a746",
    ("exp", 2**40 + 3, 20): "fc599d6b77e46a99143c3c2aa3647347799e85fc585d8cd9ae5f8c25de3faff9",
    ("exp", 2**40 + 3, 7): "2be7623189655a1200a4c39db1cba1771a7eaf1c76cedf73ddc1efe4d24bef39",
    ("exp", 2**40 + 3, 1): "b37887615b96ce800313e1d6aa4435697bf25cd535789974046f6959a70750e0",
    ("exp", 99, 20): "75af6d452c543f17e3a53b15eed5a0f69a96ef3a95a58aa61ee538db5f63f635",
    ("exp", 99, 7): "99a164bc1dc60ef4bc2a2cfe72fedb23ded0202328817aca9a3e8895bc3e9f00",
    ("exp", 99, 1): "8edd8674ceda2b9cb62ad91a4b11f53e17c541210053a340dbff3f5a6ad99f6f",
    ("unif", 1, 20): "15759c2fc0553491ec2b4c7ae7029eec8a88a5c0a0941c1965e6a9a5e217e5ae",
    ("unif", 1, 7): "6d2b33fb145eec152a399de6bc1fe7ccb87ab9510e633fb48cb42ec1604f6601",
    ("unif", 1, 1): "0ab8c948e96e76bae5bc15c7a403dfe4b7356c0ae14363468fab01b1b62b29d2",
    ("unif", 2**40 + 3, 20): "94e7d3617a6472845b1f6cca111481688c898938da429c19301d015203909803",
    ("unif", 2**40 + 3, 7): "149139e075528ee7f1f9959de5e762015ce60a70bd7019381a21d592b0a7b8f8",
    ("unif", 2**40 + 3, 1): "41546c6f2483378b03fc941700ed0d0a241ef715e2d95930c1e3daa001ad1a41",
    ("unif", 99, 20): "07e7cb9a72c4576f2ada0f6e8c9bdf61cb6f8356dc40dd85f9648ada33875d47",
    ("unif", 99, 7): "d2cb034966ba0a990ee0d85941a63ab72d41d02c656d4300fe787cd48afbcd4a",
    ("unif", 99, 1): "4f3ed55fb416411f851aea43e7c99dd62c5bcac0a1c9e3875bf61e3283e1e792",
    ("beta", 1, 20): "d85858a1bcbb461e83ed7c5c8c3edaa5f9cfb104539a4b9585e9e80df1c44d2e",
    ("beta", 1, 7): "d7855fd430ec9a4859e49b3b0b3a1c2e08c5ccc5e383c356d76770b387a06a9c",
    ("beta", 1, 1): "10618c180006a12d03fe890e097b287de6ae0b7fc84bd289c40ab9269be2095b",
    ("beta", 2**40 + 3, 20): "2dcc6f328a7be860d75507c63a485f01c6c3ac4954e203353bedae1c8efa6ca5",
    ("beta", 2**40 + 3, 7): "d455f0da47b6b4030fa6a08ec99583c58c212896bf84eeb9e290a718544c775d",
    ("beta", 2**40 + 3, 1): "7bd9a01a912e5293e53e253cc5deb42eab4c11f81ead3cb38ca8cf012bf6eb14",
    ("beta", 99, 20): "a9e8a206a723fbd6d5197aa88b301057724f287dd17994f6cf7ffcd8b0acaa61",
    ("beta", 99, 7): "2a3656926d4818453af16009070a7c7c50aa16aa414528b5a09a5402106cf4ec",
    ("beta", 99, 1): "9fcb078d78b12909bd531689e0cc6ecb4d720230eff9bd84a4413df30acf3312",
}

# mixed grids of all five estimators, rows of 1 to 195 uniforms, so
# rows fall on both sides of the numpy Philox width limit
MIXED = {
    "exp:rate=1": "2f51c11d822c654ef203dc268fc81b959f2162356bae4f8997d2dc8698a7cbbe",
    "unif:a=2,b=3": "288b6efb8470678442aacc0843dba18eb0eef9312fd894ae1b4be2922f4346a2",
}
PSI_FAMILY = {"exp:rate=1": "exp", "unif:a=2,b=3": "unif"}


def _digest(config):
    result = run_grid(config)
    failures = "".join(f"{type(f.cause).__name__}: {f}\n" for f in result.failures)
    text = rows_to_csv(result.rows).encode() + b"\0" + failures.encode()
    return hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("family,seed,reps", list(PROTOCOL))
def test_protocol_grid_bytes_are_pinned(family, seed, reps):
    config = protocol_config(family, replications=reps, base_seed=seed)
    assert _digest(config) == PROTOCOL[family, seed, reps]


@pytest.mark.parametrize("law", list(MIXED))
def test_mixed_grid_bytes_are_pinned(law):
    config = SimulationConfig(
        law,
        m_values=(1, 2, 3, 4, 5),
        l_values=(1, 2, 3, 13),
        estimators=("vn", "rn", "rmn", "lstat", "lstat_adj"),
        w_lists={"rmn": (0, 1), "lstat_adj": (-1, 0)},
        psi_family=PSI_FAMILY[law],
        replications=37,
        base_seed=2**40 + 3,
    )
    assert _digest(config) == MIXED[law]


def test_philox_workspace_grows_and_is_reused():
    # in a new thread, whose draw workspace starts empty, runs of R = 20, 1,
    # 7 and 20: the numpy Philox rows and the output grow for the first,
    # serve the smaller runs from their first columns and the last at full
    # size again
    sequence = [("exp", 1, 20), ("exp", 1, 1), ("exp", 1, 7), ("exp", 1, 20)]

    def grids():
        for family, seed, reps in sequence:
            digest = _digest(protocol_config(family, replications=reps, base_seed=seed))
            workspace = simulation._WORKSPACE
            yield digest, (workspace.rows.shape, workspace.out.shape)

    with ThreadPoolExecutor(1) as pool:
        runs = pool.submit(lambda: list(grids())).result(timeout=120)
    assert [digest for digest, _ in runs] == [PROTOCOL[key] for key in sequence]
    assert len({shape for _, shape in runs}) == 1
