"""A pinned byte-identity corpus of simulation grids.

Each entry is the sha256 of a grid's results CSV followed by a zero byte
and its failure list, one ``<error type>: <message>`` line per failed
cell.  The hashes were taken under stream contract 4, where replication
``r`` of every cell of one draw shape reads the Philox stream keyed
``(k0, 0)`` from counter block ``r * ceil(width / 4)``, and a sample of
``m * l`` values of either design reads ``width = m * l`` uniforms.  They pin that
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
    ("exp", 1, 20): "0a8e38b1286861973ece8477edca5a9cb3aa92ce6b5b41e29956a7736377f471",
    ("exp", 1, 7): "12ad3ed4fb73fc4b47d919bf00816419fbfbbc9ed819d44ef212954d84c3db66",
    ("exp", 1, 1): "4e082bcbbeb1a0aec7538aa8937b18a05be861f3311e85da797fe4a7265c10e5",
    ("exp", 2**40 + 3, 20): "b7066e0beb990bf9bdca4171b635b6f9f3058b0574121e458686f2c1fc7b6fe7",
    ("exp", 2**40 + 3, 7): "e29d63ba43d694e8b5e2c2b0108ffdd60e584d88a61190afd13302396e7f0a6c",
    ("exp", 2**40 + 3, 1): "e35098163cf12c80b9284eb1ff9c40c47096c0e022317151e588a4a80ac21863",
    ("exp", 99, 20): "e0cef206a2c9cfa651d25d3cd2f93293798935b4610eb2c84aba41c4fd0da094",
    ("exp", 99, 7): "028327e017115df861b455a79944a980eb66a74955de8482955c5fcb273150c7",
    ("exp", 99, 1): "8f2115911c5f0a96efb75623fa218769d21794a8eabc26cfb6ddab6d9a7e5459",
    ("unif", 1, 20): "0fe30f5adbd15e82821b6840dcd08db936599753595466a333f58191ef614dc6",
    ("unif", 1, 7): "60a1a1365295bf46ea952dd286f3995a620c9ee5f261d21284e1f3f6eb7a5f90",
    ("unif", 1, 1): "eecc26f9f213de588e138219e10ac5f0bdf6dbef698769c95f98e8255d8fd8ae",
    ("unif", 2**40 + 3, 20): "77b2735f17051bda7223a0f56d9eba4d9f90461c823c393d6afe2b316f4aaf37",
    ("unif", 2**40 + 3, 7): "eb29f6db13a51df32684048c036d901985c5c22cb2b2752c4725369fb4f0f25c",
    ("unif", 2**40 + 3, 1): "81b771a59e0dbb6756fa0e2b234ddfe56ce5beff3ba71a879f0e68799e72ca76",
    ("unif", 99, 20): "69efd6bd423f78f2b0885d64455610caa8536067aba391cb07409f74e577cdb3",
    ("unif", 99, 7): "97b1d7f154b2f45c8231bf76d70abd46bc9b25a8935a01e9585e0c7a7dfe41a2",
    ("unif", 99, 1): "80b51c3629d1673da984e9fae9f3b5d733f0d8128dfe5ceb5f908c69cde47bef",
    ("beta", 1, 20): "8b4a25653027a548446cb50a27e05f79821dccfa888867a08352c421595a5b11",
    ("beta", 1, 7): "c99da5a9bf175df9b94d34fac9c062c21c32ab11a66c5e9ed17840a29dca7c70",
    ("beta", 1, 1): "d6ead4d215b163d656a076588149357b10ead0de21e56a90541dfa0724e00f71",
    ("beta", 2**40 + 3, 20): "3293f5c00973089e2d5cbd25e356cc9293df2122bf6cee3a762327c448cd377f",
    ("beta", 2**40 + 3, 7): "c9de3e76340f4d1cde5ee06d7f01bef29bc2375034f26cc3ba0daf5b3736d37a",
    ("beta", 2**40 + 3, 1): "efe3511f730a0c3131f37c16bd378df1f22ae6488d8f95826e3cd0fd6a405fb9",
    ("beta", 99, 20): "e035d2104076c72a9e11ffa756a940fd07528acd86f9ece4c06d1733c1c3dfc1",
    ("beta", 99, 7): "ea936fa08c212b7d8b3a83171ca1f44b9d2f52c7709e156c0763131ad3fb8cad",
    ("beta", 99, 1): "5f3e21e2232d745d1ec6034bcfe090dbb3cff54db994f71574431395768da5a2",
    # the paper's 5000 replications: MinRSSU rows of 10 and 15 uniforms
    # span 4 and 5 chunks, which no grid above reaches
    ("exp", 1, 5000): "1570b01a70f1f54fa8d7f8e1a46ee816ad21eb3b0e33e1176adb0bfd7ada972d",
    ("unif", 1, 5000): "23b6da16cada21df0f123f91f4feadb88775380190534020d89ea091105a362d",
    ("beta", 1, 5000): "301476ea228b5956351e5c9c2276a2c03a5b23fb347ce1346b418adb7d67b578",
}

# mixed grids of all five estimators: vn and MinRSSU shapes, m = 1 and
# l = 1, rows of 1 to 65 uniforms
MIXED = {
    "exp:rate=1": "dcc6aeddbbcae0ab1ed7bdf285435f385331746323d6a1432f9d320120e960e8",
    "unif:a=2,b=3": "7e23b503090a29b98956a8791589b1158b72c415357bfb1f7c22db9a63933414",
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
