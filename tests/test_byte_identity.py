"""Pinned output bytes: the regression oracle across refactors.

Every digest below is the sha256 of outputs produced by an earlier version
of the engine.  A change that alters any trial, aggregate or emitted file
byte fails here, even if it stays self-consistent run to run (which is all
criterion 8 checks).  The digests are never regenerated to make a change
pass: a mismatch means the change altered results.
"""

import hashlib

import pytest

from thinlab.core import run_trial, simulate_max_load_counts
from thinlab.experiments import (ExperimentConfig, emit, run_experiment,
                                 run_greedy_d_choice)
from thinlab.strategies import make_strategy

N_GRID = (1, 2, 7, 100, 10**4, 10**5)
SEEDS = (0, 17, 16294208416658607535)
STRATEGY_DEPTHS = {
    "threshold:ell=0.5": (1, 2, 3, 4),
    "threshold:ell=1.5": (1, 2, 3, 4),
    "always-accept": (1, 2, 3, 4),
    "beta-thinning:beta=0.5,cap=1": (2,),
    "beta-thinning:beta=0.9,cap=0": (2,),
}


def balls(n):
    # m > n at every n, and m crosses the 2**16 pool refill at n = 10**5
    return n + 3


def sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\n")
    return h.hexdigest()


def trial_digest(spec, n):
    return sha(
        run_trial(n, d, balls(n), make_strategy(spec, n, d), seed).to_json()
        for d in STRATEGY_DEPTHS[spec] for seed in SEEDS
    )


def greedy_digest(n):
    return sha(
        run_greedy_d_choice(n, d, balls(n), seed).to_json()
        for d in (2, 3) for seed in SEEDS
    )


def batched_digest(spec, n, d):
    counts = simulate_max_load_counts(n, d, 3 * n, make_strategy(spec, n, d),
                                      trials=400, seed=5)
    return sha([repr(sorted(counts.items()))])


EMIT_CONFIG = ExperimentConfig(n=1000, d=3, rho="1.5", strategy="threshold",
                               trials=6, seed=11, threads=2)

TRIAL_DIGESTS = {
    ('threshold:ell=0.5', 1): '636ad098923f13f99d3a9b51532d41e5d2c776e462fee8c1752426d748c4f4d2',
    ('threshold:ell=0.5', 2): 'ee840ac2a11b7232e482866f09264942adc466a5ca6cff0752635c4eadf2e988',
    ('threshold:ell=0.5', 7): '34e74e5935d65f82e9e998b2c821dfacbfafbaa42a7b202ab9a3acf5de42c1df',
    ('threshold:ell=0.5', 100): '4a89d71a68eb067bca172a494bfc3c952f9b9ee76d6a5637c20816a7d901ed8c',
    ('threshold:ell=0.5', 10000): 'd1493f60dfa8400e4c951a3ee3ebaa75b7345e2a61f6fe115582c5a9399b098d',
    ('threshold:ell=0.5', 100000): '6fe7af08a1832fae3ec8cc5837e0eb162e7882356be70440f86e9e625aa6386e',
    ('threshold:ell=1.5', 1): '30934c038ea82616be1af9dbacce1d7b59aa134b7296f042158b20ecdd4814bd',
    ('threshold:ell=1.5', 2): '1d9670c877fd35f0b4c367eba803eb9c9b78d262d530e861305bdc497cc2ee7e',
    ('threshold:ell=1.5', 7): 'ae404cb3e0edcbaf0ad15491f19cb9e70c8342114f6e33489330d9cc39da9df3',
    ('threshold:ell=1.5', 100): '550405f0f00b6950a1e7c8cd45a2867a6712b25db414806463d5fb3410b0ca7e',
    ('threshold:ell=1.5', 10000): 'e73a44e4ada40541c1764c768be94b393f62f010bbdde624fed164ccd5ef0f96',
    ('threshold:ell=1.5', 100000): '4b39ed53429dbf7db8ddcc7a51078769a5a7623300574d76ebcd35a8b67cd5e5',
    ('always-accept', 1): '6e8d71204920f0c4423765c09ae2a41b370d15ea97bd42924d358b4040b93a46',
    ('always-accept', 2): '75c100443f45cab8197bebdfa22f02f633c202603cd89cb31d5c971c438648ff',
    ('always-accept', 7): '4b1b3bdb0c12efded9c917908454f7b6660fca8e8af86f6b6956590432f3261f',
    ('always-accept', 100): '81125b4e9c82f753188dfbc6c257d97e867e65ab22484ca7d5ca6005a51b813d',
    ('always-accept', 10000): '062c864d98aa725708891f4838543943bb8c6df4e7ccd71f2960085932ae7940',
    ('always-accept', 100000): '2263805234c7c85bbf57d87a99c8e353189e9b2c45bd1d910cc88c9359457613',
    ('beta-thinning:beta=0.5,cap=1', 1): '99c39f7dc43b83f56f0995c58957c3c1ceadd8cc33daafc4d251263dcdf044df',
    ('beta-thinning:beta=0.5,cap=1', 2): 'e72b679e8891ad6757e3cb5b05b92b00b87243c9a6c3093b7c3e499b79865bc1',
    ('beta-thinning:beta=0.5,cap=1', 7): '16e72e44263c137acd261aa1da3ece83f04796366fbecc3445faf9d1f3de99f3',
    ('beta-thinning:beta=0.5,cap=1', 100): '94816fb1ae44fe3514bd585848388d3ecb1e57f8b6690584545d1af3107df104',
    ('beta-thinning:beta=0.5,cap=1', 10000): '24445431d65503062e2ae814fd8e728ab083ce7e02028ed23f5a0035c7e8b5e3',
    ('beta-thinning:beta=0.5,cap=1', 100000): '9565a1ee306dc759244c92311fe60924f7a3f158c029f09a6c74005bf64feb25',
    ('beta-thinning:beta=0.9,cap=0', 1): '3ebd122993b9c320d8fb7abe60a90d87740415dce57595f712f8c0dd7b03a083',
    ('beta-thinning:beta=0.9,cap=0', 2): '824198f26800930fdaa0c8a0f2314b14ba42e03cf036da805ad9efc1f6374f4e',
    ('beta-thinning:beta=0.9,cap=0', 7): '53d036ddbae768cd8db6d298bde29aabb673aa9d687d833c18ed1b1ae8b7f5c5',
    ('beta-thinning:beta=0.9,cap=0', 100): 'e9addc30e8bcd9efe97dd8f4606d2939a2f6cc4f3c63a4aa9da3b155576b32a8',
    ('beta-thinning:beta=0.9,cap=0', 10000): '453ec456747c017a0e42cc7b23f1cf9b5a4afb3b874c6f1fa3ef147a80c5199b',
    ('beta-thinning:beta=0.9,cap=0', 100000): '2879bb9626631d775b11157a7bdd5b94e0145f282e70aca0e007fefcba448803',
}

GREEDY_DIGESTS = {
    1: 'b9870f00b73042a09998caac11f2d743c60e62877e9167765b331ff0d46ae8f4',
    2: '7b901ee30e36b345d28049a9e04b91023381ab60986841bf6f53ffd5d1b9e7c3',
    7: '67e61155f7141d7e47a7ca5e3338648df8f718f5f4005edd42dfc2d049903b75',
    100: '7352753d2f7fff297c7240c2dfc9cea3d7754ea873c86b930cc48eff9039dd6e',
    10000: '52fe893b608fa1d6d9a9b6ff809fc9d6a7f4fd112ab4e69d487113f4b02863e8',
    100000: 'b13e27e8448198f87fabc4361dfb1c6abca90e4b5919e87ea59ea60851f1acb3',
}

BATCHED_DIGESTS = {
    ('threshold:ell=0.5', 3, 2): '56e2ef2a6daea20dc25f69ec3a099ede09f59d0119a6989da04efce6439696db',
    ('threshold:ell=1.5', 4, 3): '7605f6f199cf9ada6b0affefd68e5be671e97be7de4fd4728116852b1ed4c2f5',
    ('always-accept', 2, 3): 'd5a35e9eb00ea0772e05dd294540a4ecdccf5a8086035ee70987b4ef4447690d',
    ('beta-thinning:beta=0.5,cap=0', 3, 2): '02824e10d8bf9ff3140756f83df07509b92577953f40dae03f22e399932033bd',
    ('beta-thinning:beta=0.5,cap=1', 100, 2): 'ca9767234459611fbee9096450a6d54f30c93d38bd96e51de2de15897d079a61',
}

EMIT_DIGESTS = {
    'csv': 'a89a1122e4ec82648cd2e11990eb913b4d3ad1f5db3b7a734083ff3a378f28cf',
    'json': '51cd80feeb5b6a00bca4e4367e62be41c41ec0d2871636beb75ffeab61aaf6fc',
    'plotdata': '52c4ee1813734f1917f0eb89fb098542efbaccb21b7da7ce1a83b445cfc2fcea',
}


@pytest.mark.parametrize("spec,n", sorted(TRIAL_DIGESTS))
def test_trial_json_bytes(spec, n):
    assert trial_digest(spec, n) == TRIAL_DIGESTS[spec, n]


@pytest.mark.parametrize("n", sorted(GREEDY_DIGESTS))
def test_greedy_json_bytes(n):
    assert greedy_digest(n) == GREEDY_DIGESTS[n]


@pytest.mark.parametrize("spec,n,d", sorted(BATCHED_DIGESTS))
def test_batched_counts(spec, n, d):
    assert batched_digest(spec, n, d) == BATCHED_DIGESTS[spec, n, d]


def test_emitted_file_bytes(tmp_path):
    agg = run_experiment(EMIT_CONFIG)
    for fmt, digest in EMIT_DIGESTS.items():
        path = tmp_path / f"out.{fmt}"
        emit(agg, fmt, path)
        assert sha([path.read_bytes()]) == digest, fmt
