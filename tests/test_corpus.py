"""A pinned byte-identity corpus of simulation grids.

Each entry is the sha256 of a grid's results CSV followed by a zero byte
and its failure list, one ``<error type>: <message>`` line per failed
cell.  The hashes were taken under stream contract 3, where replication
``r`` of every cell of one draw shape reads the Philox stream keyed
``(k0, 0)`` from counter block ``r * ceil(width / 4)``.  They pin that
every stream, estimate and failure of these grids is unchanged by kernel
rewrites.  A change that is meant to change these streams must say why
and rewrite the corpus: ``PYTHONPATH=src python tests/test_corpus.py``
prints it.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from crexlab import protocol_config, rows_to_csv, run_grid, simulation
from crexlab.simulation import SimulationConfig

# (family, base seed, replications) -> sha256 of the protocol grid
PROTOCOL = {
    ("exp", 1, 20): "73860f49f700f1ac1c6a2d1956c6bd91cc4eafba4b995edf67aeac4122952e99",
    ("exp", 1, 7): "f249244c7e0b9176629f98da56fbd20c739bdc89c3937e784ace63ed5b7352c9",
    ("exp", 1, 1): "0c1e80871bbe6728ea71e1294baf93ea35a7df43789a5f3e3c8c5ff615d43404",
    ("exp", 2**40 + 3, 20): "d390240db541ee7de0c2403e4cfbdf3beace6d1416711cbb190a7d65b3dde848",
    ("exp", 2**40 + 3, 7): "186c684e781488cd9e0797194ea86cf15b59b22bdca1a78dfd3c1b23991f8da9",
    ("exp", 2**40 + 3, 1): "eb53c2fa9a2ab807476c221e2ed6e779e88131151d19b0bee9d71086c35ce148",
    ("exp", 99, 20): "3cb86ed3232a97e390cb77137c5fa2318d02818649100ec6177a4b78969d3d01",
    ("exp", 99, 7): "6cb092a3b1f8457ccfdf0dbbbf3c4d5c45ded0cf17860555bffa7e418d45a588",
    ("exp", 99, 1): "32cc55cee56296f24d8bd03ca1517262ba28dc026e265a514c31a57d963849c2",
    ("unif", 1, 20): "8254d9db67363f7d14f9d87641111a12e0c71db7ac4f216f460fb65489bd65e1",
    ("unif", 1, 7): "11ea8ce9db622fca2a6650a929ab289208b21f965dbd144a65c2115b12c2e9d6",
    ("unif", 1, 1): "7160ca38535f66d6a978848776d97739369b08e76334f1b2d856dc203340e113",
    ("unif", 2**40 + 3, 20): "5454873f4f6a8248f278647fc21849e80ac2d562033a60b68d8fb0220c5db2b3",
    ("unif", 2**40 + 3, 7): "46e1bcec22db057bdf4197599a7202eb5983e65ecc7eefe8d0c5b7c78e5c4868",
    ("unif", 2**40 + 3, 1): "61e620b7e69422507d18549a61ef1f75e72caa35c6eb9289719387710637affa",
    ("unif", 99, 20): "885662d00ec1217707c80affa47723d41f9edaaf63172207fa2edea09fbe0109",
    ("unif", 99, 7): "688249f8dae2f0719fd6d9162a2ad26b4d54d86cec8d3b76e14dbe8bf44e5692",
    ("unif", 99, 1): "8700f8f9785e1030e12347aacba7feec4a9d853285a76be6e2e90dbd22432081",
    ("beta", 1, 20): "adc46dd7247410aaca3cae901597caaed90ab5c3afdd1304cd8e88d13ad7f98e",
    ("beta", 1, 7): "ff5ca2bc267f43002867bfe4084fbea18bbd567c2f5a21d6b7e6efd0a5425de3",
    ("beta", 1, 1): "c1cbf3205b42152ada489e5c394260329b725bbef3ef42a8afde4719b134a7a3",
    ("beta", 2**40 + 3, 20): "7c8f3dd2d608a1dad0ac0b19e411af07c5eee3ff209aab1b9e56b1bf2b5697e3",
    ("beta", 2**40 + 3, 7): "c0ffa3f415c507ddabe577b268b655862e2c8d01ac5d20ff1009caead2dade59",
    ("beta", 2**40 + 3, 1): "75e513bd01dbd1bd08712e8e203484c01b9a89723190bce4cb8c751a3dd741a7",
    ("beta", 99, 20): "ec46ffdcee5f671bd3d082df2245d00b8ad27e8a71c2fa5b5391d6510a587e5e",
    ("beta", 99, 7): "0cc72ef431938e25920b9b1669eafd345329e3891c3e055e9f6884cbb6412686",
    ("beta", 99, 1): "58ace2b148b4f92e69c81d899fb897279a894c89b5895ffa7f92bb9b29f2a36b",
    # the paper's 5000 replications: MinRSSU rows of 30 and 45 uniforms
    # span 3 and 4 chunks, which no grid above reaches
    ("exp", 1, 5000): "7e5ab192d67372647a677f3515c03f75cea1a6eb76ce1c46468fde200498a2d2",
    ("unif", 1, 5000): "22283f60fc67906f48974715314e35558287cc79c57ff2ee9b9f8c24b3608484",
    ("beta", 1, 5000): "94a0ddf22cbce76d6727520868f40e011e7825d8118f0f8bb0bf374f89147707",
}

# mixed grids of all five estimators: vn and MinRSSU shapes, m = 1 and
# l = 1, rows of 1 to 195 uniforms
MIXED = {
    "exp:rate=1": "fff0b16b3c51c76d9ccca84b045421e44773c4bf0bd0f6bbaeb200a11311a2e7",
    "unif:a=2,b=3": "e41b3235515163c32d399d36ddd91814d5a555e41bfabb5ab99fbd896af04613",
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
    assert _digest(_mixed_config(law)) == MIXED[law]


def _mixed_config(law):
    return SimulationConfig(
        law,
        m_values=(1, 2, 3, 4, 5),
        l_values=(1, 2, 3, 13),
        estimators=("vn", "rn", "rmn", "lstat", "lstat_adj"),
        w_lists={"rmn": (0, 1), "lstat_adj": (-1, 0)},
        psi_family=PSI_FAMILY[law],
        replications=37,
        base_seed=2**40 + 3,
    )


def test_philox_workspace_grows_and_is_reused():
    # in a new thread, whose draw workspace starts empty, runs of R = 20, 1,
    # 7 and 20: the output grows for the first, serves the smaller runs from
    # its first entries and the last at full size again
    sequence = [("exp", 1, 20), ("exp", 1, 1), ("exp", 1, 7), ("exp", 1, 20)]

    def grids():
        for family, seed, reps in sequence:
            digest = _digest(protocol_config(family, replications=reps, base_seed=seed))
            yield digest, simulation._WORKSPACE.out.shape

    with ThreadPoolExecutor(1) as pool:
        runs = pool.submit(lambda: list(grids())).result(timeout=120)
    assert [digest for digest, _ in runs] == [PROTOCOL[key] for key in sequence]
    assert len({shape for _, shape in runs}) == 1


if __name__ == "__main__":
    for family, seed, reps in PROTOCOL:
        config = protocol_config(family, replications=reps, base_seed=seed)
        print(f"    {(family, seed, reps)!r}: {_digest(config)!r},")
    for law in MIXED:
        print(f"    {law!r}: {_digest(_mixed_config(law))!r},")
