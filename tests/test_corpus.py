"""A pinned byte-identity corpus of simulation grids.

Each entry is the sha256 of a grid's results CSV followed by a zero byte
and its failure list, one ``<error type>: <message>`` line per failed
cell.  The hashes were taken under stream contract 2, where replication
``r`` of every cell of one draw shape reads the Philox stream keyed
``(k0, r)``.  They pin that every stream, estimate and failure of these
grids is unchanged by kernel rewrites.  A change that is meant to change
these streams must say why and rewrite the corpus:
``PYTHONPATH=src python tests/test_corpus.py`` prints it.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from crexlab import protocol_config, rows_to_csv, run_grid, simulation
from crexlab.simulation import SimulationConfig

# (family, base seed, replications) -> sha256 of the protocol grid
PROTOCOL = {
    ("exp", 1, 20): "9a3ee4b4b6f456255ed07ada643efe3348f97d765f672cd04a8186971d838fb0",
    ("exp", 1, 7): "2f396eb4646e96c0f678f1cde571dd58a29f6f810737859a643b34d213b3d271",
    ("exp", 1, 1): "0c1e80871bbe6728ea71e1294baf93ea35a7df43789a5f3e3c8c5ff615d43404",
    ("exp", 2**40 + 3, 20): "f44435bd545c456ec347098419a19ef490e1e04eceda2df03bf8a94f39a9f9c4",
    ("exp", 2**40 + 3, 7): "12f2df6a1c5e7cd5520e7e733177beee3364cb49582ccac0474843790cf32401",
    ("exp", 2**40 + 3, 1): "eb53c2fa9a2ab807476c221e2ed6e779e88131151d19b0bee9d71086c35ce148",
    ("exp", 99, 20): "c801dee94633246c3dc2a084b52f4d24a219f72911a92ec30dcce013ada89be8",
    ("exp", 99, 7): "26851824d7979d82727875d3c5d0ce9a3fb5df1020da0d93c92ef69d13ed1665",
    ("exp", 99, 1): "32cc55cee56296f24d8bd03ca1517262ba28dc026e265a514c31a57d963849c2",
    ("unif", 1, 20): "1782b13813eb81dfdcfa71a203aa3f90197748b963405e9826fe28b8d7917254",
    ("unif", 1, 7): "0fa60ad02deff28d94e5273a87c3cdfcddc5cab9eb508809c83eb883a980aea1",
    ("unif", 1, 1): "7160ca38535f66d6a978848776d97739369b08e76334f1b2d856dc203340e113",
    ("unif", 2**40 + 3, 20): "e16708ea279202ca3a111979ac43cb1f121386034af326b825aad511df172820",
    ("unif", 2**40 + 3, 7): "d708471a29a58e238ef6398eb1cc7d863caebb9c615ed305d00ec1e50b9ce3a3",
    ("unif", 2**40 + 3, 1): "61e620b7e69422507d18549a61ef1f75e72caa35c6eb9289719387710637affa",
    ("unif", 99, 20): "4e90a4f395f57f498006cd80ef1dcf385dd164a7f20846cbd6cb0ac0bac14f64",
    ("unif", 99, 7): "5ea13d353c8d4eaf8c9ea44ba65fc1cf4e8d06accbaa48dace71b4f4a3d5b3c4",
    ("unif", 99, 1): "8700f8f9785e1030e12347aacba7feec4a9d853285a76be6e2e90dbd22432081",
    ("beta", 1, 20): "3533e8b541aba53aad0813f8c330052fa19ef5ddd5dea7e1aa4d7f3130278907",
    ("beta", 1, 7): "f5ef0f0cec370597e08616ad0fad200ff99a69ce387777876373588003624853",
    ("beta", 1, 1): "c1cbf3205b42152ada489e5c394260329b725bbef3ef42a8afde4719b134a7a3",
    ("beta", 2**40 + 3, 20): "1a3da3fd71487e770077869632ef99d9de2c862f2ee0d23351534d73f808695b",
    ("beta", 2**40 + 3, 7): "04b1a737077108089838ef67b8b64823f51cf3cb6ddcb9c5371c13b6424eb11f",
    ("beta", 2**40 + 3, 1): "75e513bd01dbd1bd08712e8e203484c01b9a89723190bce4cb8c751a3dd741a7",
    ("beta", 99, 20): "eb192261e33492e1a517620f0c0d61d0fcd2b04ce2a640ecb6e04d9150bb7406",
    ("beta", 99, 7): "0c93085d685b866d29df39c0dca9bac4875057c71ac56c16bf2455c481871734",
    ("beta", 99, 1): "58ace2b148b4f92e69c81d899fb897279a894c89b5895ffa7f92bb9b29f2a36b",
    # the paper's 5000 replications: MinRSSU rows of 30 and 45 uniforms
    # span 3 and 4 chunks, which no grid above reaches
    ("exp", 1, 5000): "ea18796770430ff09ff0fd792ae71720b16a6418daf7291dd44c0d47f5d77f06",
    ("unif", 1, 5000): "6e49062a75cad0bfe51922c186628a986de99dd8aacfb4fd0f8db4c94ddd6347",
    ("beta", 1, 5000): "1d1aa16c3c8cf5f801f3f32ce73f9408cf57f14c2c0c6b76eb633ecfd2ea2f05",
}

# mixed grids of all five estimators: vn and MinRSSU shapes, m = 1 and
# l = 1, rows of 1 to 195 uniforms
MIXED = {
    "exp:rate=1": "01a3d5503fbd8ac935a693ddd987c45352f84009695d79f1e16d5304c11c7d14",
    "unif:a=2,b=3": "85f718c18e9003309940f4b1cd648fea89cd8fe997af91fa2ecd70e30f304a2f",
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
