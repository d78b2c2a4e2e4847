"""Byte identity of every runner's output for fixed seeds.

Each case runs one sampler on one of the suite's chains and hashes what it
returns: the kept states (``state_matrix()``), the stage-one indices and the
accept counts of a stage-two run, both stores of a stage-one pair, the draws
and accept count of a random walk.  The digests were recorded before the
samplers' moves were restructured for speed; a change that keeps every
target, draw and check must reproduce them bit for bit.  One more case
hashes the ``diagnostics.csv`` that ``chainmeld diag`` writes for a seeded
AR(1) file, recorded before the diagnostics were reworked to use less
memory.  Floating-point
results may differ in the last bit across numpy releases, so the digests
are compared only under the numpy version CI pins.
"""

import hashlib
import json

import numpy as np
import pytest

from chainmeld import (
    builtin_gaussian_chain,
    dictatorial_complete,
    factorize_for_sampler,
    linear_pooling,
    log_pooling,
    run_parallel_stage_two,
    run_parallel_stage_two_unitwise,
    run_random_walk,
    run_sequential,
    run_stage_one_pair,
)
from chainmeld.chain import real_coords
from chainmeld.cli import main
from chainmeld.normal_approx import build_normal_approx_target, fit_gaussian_moments

from conftest import make_discrete_chain, make_long_chain

PINNED_NUMPY = "2.4.6"
README = dict(rho=0.2, s2=2.0, tau=1.0, y1=[-2.0], y2=[0.5], y3=[2.0])
N_ITER = 300
SCALE = 0.8

pytestmark = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests were recorded under numpy {PINNED_NUMPY}, this is {np.__version__}",
)


def _digest(*arrays, counts=None) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    if counts is not None:
        h.update(json.dumps(counts, sort_keys=True).encode())
    return h.hexdigest()


def _output_digest(out) -> str:
    return _digest(out.state_matrix(), out.indices, counts=out.accept_counts)


def _built(model: str):
    if model == "gaussian":
        return builtin_gaussian_chain(**README)
    if model == "discrete":
        return make_discrete_chain()
    return make_long_chain(4, seed=4)


def _factor(built, pool: str):
    model = built.model
    if pool == "log":
        return factorize_for_sampler(
            log_pooling(model, np.linspace(0.3, 0.8, model.n_submodels)), "subprior-ends")
    if pool == "linear":
        lam = [[0.5, 0.5]] * (model.n_submodels - 1)
        return factorize_for_sampler(
            linear_pooling(model, lam, built.boundary_marginals), "flat-ends")
    return factorize_for_sampler(
        dictatorial_complete(model, [1, 1], built.boundary_marginals), "subprior-ends")


def _run(model: str, pool: str, runner: str, chains: int) -> str:
    built = _built(model)
    factor = _factor(built, pool)
    m = built.model
    if runner == "sequential":
        out = run_sequential(m, factor, (SCALE,) * m.n_submodels, N_ITER, chains=chains,
                             seed=11)
        return _output_digest(out)
    s1, s3 = run_stage_one_pair(m, factor, SCALE, N_ITER, chains=chains, seed=12)
    if runner == "stage_one_pair":
        return _digest(s1.phi, s1.psi, s3.phi, s3.psi)
    if runner == "parallel":
        return _output_digest(run_parallel_stage_two(m, factor, s1, s3, SCALE, N_ITER,
                                                     chains=chains, seed=13))
    if runner == "unitwise":
        return _output_digest(run_parallel_stage_two_unitwise(m, factor, s1, s3, SCALE, N_ITER,
                                                              chains=chains, seed=13))
    # runner == "normal_approx": the random walk on the normal-approx target
    g1, g3 = fit_gaussian_moments(s1), fit_gaussian_moments(s3)
    target = build_normal_approx_target(m, factor, g1, g3)
    init = np.concatenate([g1.mean, g3.mean, np.zeros(m.submodels[1].psi_dim)])
    draws, accepted = run_random_walk(target, real_coords(3), SCALE, N_ITER, chains=chains,
                                      seed=14, init=init)
    return _digest(draws, counts=accepted)


def _walk(chains: int) -> str:
    draws, accepted = run_random_walk(lambda z: -0.5 * (z * z).sum(axis=1), real_coords(2),
                                      SCALE, N_ITER, chains=chains, seed=15)
    return _digest(draws, counts=accepted)


CASES = [
    (model, pool, runner)
    for model, pools, runners in (
        ("gaussian", ("log", "linear", "complete"),
         ("stage_one_pair", "parallel", "sequential", "normal_approx")),
        ("discrete", ("log", "linear"),
         ("stage_one_pair", "parallel", "unitwise", "sequential")),
        ("long4", ("log", "linear"), ("sequential",)),
    )
    for pool in pools
    for runner in runners
]

DIGESTS = {
    "discrete-linear-parallel-1": "78c2f0678e6e8667fad488af387def646186f53e736f11389c21ad16c1144243",
    "discrete-linear-parallel-2": "58f8edae5024c05af78ade99444d7e2d6cdfb6f6a4da73d6c458785a252ed812",
    "discrete-linear-parallel-8": "9c0a789ee64b1ce6c81baeaef9e30b2625ca2f1649a6147ef840a1bb58e1fb57",
    "discrete-linear-sequential-1": "f46849eac441b2eb523bc666ec5405985512d309ea8c434bdb81b93a53b2a2b6",
    "discrete-linear-sequential-2": "a94b6f946b145a5a55450f1617da77dcf6b82c0e7aff2405ae2ba59f66776dd8",
    "discrete-linear-sequential-8": "c4567af87a5cac66e0c412eb3f0a2fb9cb4c6d3235f0979aa7ad8e91ae073c02",
    "discrete-linear-stage_one_pair-1": "0f95247babe6f2b45188ce5d9b806fe44eb35822da9f88f5367b7071923cccb6",
    "discrete-linear-stage_one_pair-2": "5c5984db2ae6bad2a8a1b5ba025dd2ad8dc2634adc76c1598ffdbf563a348a2b",
    "discrete-linear-stage_one_pair-8": "b47435fea189a01f5cdcdc070d36657a49e0bf0431432efaa07f4630c5a39a0f",
    "discrete-linear-unitwise-1": "11deb3b389207e5d433dc2ab3881ab7fd07075a9c6376a2bf66a95b0d63a9953",
    "discrete-linear-unitwise-2": "1ee1e36c30c72f17c8929f83cf1d04a902e0f0cf9acdb32a953e91ddbbde3939",
    "discrete-linear-unitwise-8": "1d2675d7a9f67e9935e08c35bcdf18fc8c04da14d2d4a37042aadd88b4277917",
    "discrete-log-parallel-1": "5b72942235faa4be1b15f32a0afe87c4f708d6880319c94a1c31986a98969c92",
    "discrete-log-parallel-2": "307f0a179370783a2004eb53f9f30c7aa36f252c235a858e84e597eccbd136be",
    "discrete-log-parallel-8": "4ff7d57248245d110b5cffb37774d6174bb4f27113a68f1cee08cab3316f8253",
    "discrete-log-sequential-1": "a395eb6463f8c25a369c652ae9e01b29d1d82e664ed6ed577dbad3982d4caad1",
    "discrete-log-sequential-2": "6d57f41cf1b3a16da33dfca13139c1f039e48fdf10f4210a71d34652b9a16ba2",
    "discrete-log-sequential-8": "668796d752d6df5ebe084cac0bf05054d10c8569ba14763028107164bf234621",
    "discrete-log-stage_one_pair-1": "e6ea41ceebef8c6582ec6c6479e26a77e1977b16bdb0fa81d11c4d153d2e2805",
    "discrete-log-stage_one_pair-2": "82462454cab83ad4426e9128b40d7aef3e0296acf4ecff71c200159450d66a35",
    "discrete-log-stage_one_pair-8": "d6a1f31dd91acacda03c8aaada005f5a2b3f530eb0f0a809b5804ca4799ac614",
    "discrete-log-unitwise-1": "f4e3f5535bcf41feca278b8a959e73f90cdb0205e535fec21f6a0f64079cb8a7",
    "discrete-log-unitwise-2": "879b61cedbe6bbbb0ab57b7587bfc4c06a1b0a9950176998ca12892514d437b6",
    "discrete-log-unitwise-8": "5cd9cd738d691d0ed7a922e39914215f31da0379d9a019aa445e8041f93336d6",
    "gaussian-complete-normal_approx-1": "4eaf5f4317332a33fc03759ddb51cf7962e2027042eb7222280addd61dcccd92",
    "gaussian-complete-normal_approx-2": "fd91df601c696d05d7836909994fb8077312d0112a516da88e16771793ae0b3f",
    "gaussian-complete-normal_approx-8": "1e063c6a255aa921912bb3902fb38adeb5d9e8f680b418a50e980641f143116d",
    "gaussian-complete-parallel-1": "c6b968219e06765675df3169e19a824191af2048697d1b1e819732b3adda50b9",
    "gaussian-complete-parallel-2": "19c37fbf76b9d411d75baeb27073395957626cfd0ebff5cf1c7a929a5592433f",
    "gaussian-complete-parallel-8": "209c905a74cfbebce65c3644320d98f76d1411be7e53e05d502646300c222e05",
    "gaussian-complete-sequential-1": "44d5e18008fc136dc9076f93a64e9f46b20f18e19a314dcba9d4730203e80665",
    "gaussian-complete-sequential-2": "85c5f0ebf818ea1e85dbb9ded97ab269ca9bc46e343da771bf244920f0d8d8c8",
    "gaussian-complete-sequential-8": "4e0ed5e5242a9bf853772151adfcd1ee99094f68c6979e9af03a0ff38e566ddf",
    "gaussian-complete-stage_one_pair-1": "cd546fb32c79b7f7d7fafa54f4eb7f6da93256f00107423e0be63952e2b1e563",
    "gaussian-complete-stage_one_pair-2": "d039ed583f3a0dc98ec4334821a3c57bdec62050a2de37b0d92de7781179ad31",
    "gaussian-complete-stage_one_pair-8": "f0680e1aaad5fa9800407f13b687b30750aabda8c7d55c0ed323a02329e44aa2",
    "gaussian-linear-normal_approx-1": "80de35f35495c3c5ff31876d74f359b2640ce769952b69248f9dd43a39fe0f54",
    "gaussian-linear-normal_approx-2": "eeef2caca493110e80a904037442ad983f0c3c2b49ffd4540750d36ed8b2a284",
    "gaussian-linear-normal_approx-8": "9fdfb76141aec6f8f0d611c8b627491ddcff88950b55c2d65787596fd86b5823",
    "gaussian-linear-parallel-1": "fa18338dc546841567402f6dd797029c440ea794a42cabee4652ac9d86de19bf",
    "gaussian-linear-parallel-2": "1c7e648db37bf5379ec22ac36061c4b8d855f5c4a4b7f94e6779d7a7e7cda0f5",
    "gaussian-linear-parallel-8": "8068a4431a432c42d225ee7efcafca0408ba5a90b02d081504f6cac50b4959ee",
    "gaussian-linear-sequential-1": "7fe9cbe7384af3bc0fde995b3a8021ebbdacdaf82cda6308229233dd2533f4f6",
    "gaussian-linear-sequential-2": "38e523dacdb6257e9f6929ec5969fe239232152a807217fffb64d1a50aab65c4",
    "gaussian-linear-sequential-8": "6a7c9bda8c3dbaa431822781700ee246c30d7d8f95d8a6ab622aae2c4097b526",
    "gaussian-linear-stage_one_pair-1": "fd4fb85db4f6da1175b1b505dc5b93c48a66fd4566ee5dfcd686c3adeb656712",
    "gaussian-linear-stage_one_pair-2": "830c1e959ec9ca780eb4c6c958e95f9ef1becd6e62e1147c522d4835ec4b88e5",
    "gaussian-linear-stage_one_pair-8": "b736f5cc53c54cd557a2a701d39d8a972723efc0400e2351a6c5114a8333e082",
    "gaussian-log-normal_approx-1": "d673bb4b419d6858047e356ce034129621ac6a0cabc3d3a9b19bfe03ca4af9c9",
    "gaussian-log-normal_approx-2": "7390516a3338e97357b37465a7b9b947c59383e23407ffa3ef7f97c9a2a1a932",
    "gaussian-log-normal_approx-8": "e9ba59c1a3cf25f425ad25e5080606297a44ae2f84aaa71b01810bb291ba03f2",
    "gaussian-log-parallel-1": "354108b6e765049ba59e114b13fc32df5f76ad661f772878c6e20a92b3ed8582",
    "gaussian-log-parallel-2": "6b12635fe6491b9caa1fb73ef8f8dfb74071b929ac6dfc0b7ae5deb5d5c69727",
    "gaussian-log-parallel-8": "0cb1d652a8ff6f2ba2bfce9261831731883868c66f8d8274b192f2f7029f3e7b",
    "gaussian-log-sequential-1": "16302fd025f865d052e7a82b60f45347eddffd482812637b5e46db61616a68f5",
    "gaussian-log-sequential-2": "1426b4d41dd4ec25163df043b747f86ffa13d9503bc3182148b27b876032ceb0",
    "gaussian-log-sequential-8": "b48b28e17155dadd6d0da77f5fd614bab9672ef859263715e9424ba723a3502e",
    "gaussian-log-stage_one_pair-1": "cd546fb32c79b7f7d7fafa54f4eb7f6da93256f00107423e0be63952e2b1e563",
    "gaussian-log-stage_one_pair-2": "d039ed583f3a0dc98ec4334821a3c57bdec62050a2de37b0d92de7781179ad31",
    "gaussian-log-stage_one_pair-8": "f0680e1aaad5fa9800407f13b687b30750aabda8c7d55c0ed323a02329e44aa2",
    "long4-linear-sequential-1": "60bde7a434473679102ab70de332e4025403dd4ea87820f02ed51cd48402a197",
    "long4-linear-sequential-2": "6a81068c8b44e5d7817468d02fa2e73dedb635a3f7dcd270ae43c125b9e0df4d",
    "long4-linear-sequential-8": "e4ea3822e95000fab595aa6d14be7423b800b174546f3300967f2c841afd6959",
    "long4-log-sequential-1": "45d2db04cc916a699fbbecb71f95d282e06955cce6a9cb8e498da991dc761f86",
    "long4-log-sequential-2": "55631298126a2c757079737a4c4dd89d917281682ac79247189f2b974f96c2e3",
    "long4-log-sequential-8": "800148238c9b93c842f3f839c0a909b8910cc69cdbbdd1fd04b9d9f94f0fd3fa",
    "walk-1": "d5e8ff7aadcc8f77601739bccb7021eb552c89401f61eb3f6cb0d1b4571d475f",
    "walk-2": "c93fb4b9a735289ed6ce2893177d595202453bfbeeef073c76bf1e573e10b6b1",
    "walk-8": "8409b9b8a1c3fd40747a42fb27d48d2d103eebb655bd97f2d17cee8b4e206c81",
}


@pytest.mark.parametrize("chains", [1, 2, 8])
@pytest.mark.parametrize("model, pool, runner", CASES)
def test_runner_output_is_pinned(model, pool, runner, chains):
    assert _run(model, pool, runner, chains) == DIGESTS[f"{model}-{pool}-{runner}-{chains}"]


@pytest.mark.parametrize("chains", [1, 2, 8])
def test_random_walk_is_pinned(chains):
    assert _walk(chains) == DIGESTS[f"walk-{chains}"]


# diagnostics.csv of chainmeld diag on _ar1_samples().
DIAG_DIGEST = "ec1306b22f7624d699cabf4528b8dcaf8ece19661221d424f180eafddb385a0c"


def _ar1_samples(chains=4, draws=1_000) -> str:
    """melded_samples.csv text: AR(1) columns with a = 0.5 and 0.9, and the
    first rounded to one decimal so that ranks tie."""
    rng = np.random.default_rng(2021)
    cols = np.empty((3, chains, draws))
    for j, a in enumerate((0.5, 0.9)):
        noise = np.sqrt(1.0 - a * a) * rng.standard_normal((chains, draws))
        cols[j, :, 0] = rng.standard_normal(chains)
        for t in range(1, draws):
            cols[j, :, t] = a * cols[j, :, t - 1] + noise[:, t]
    cols[2] = np.round(cols[0], 1)
    lines = ["chain,iteration,theta_0,theta_1,theta_2"]
    lines += [f"{c},{t}," + ",".join(repr(float(x)) for x in cols[:, c, t])
              for c in range(chains) for t in range(draws)]
    return "\n".join(lines) + "\n"


def test_diag_output_is_pinned(tmp_path):
    cfg = {
        "model": {"name": "gaussian-chain", "params": README},
        "pooling": {"method": "logarithmic", "lambda": [0.5, 0.5, 0.5]},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "melded_samples.csv").write_text(_ar1_samples())
    assert main(["diag", "--config", str(tmp_path / "run.json")]) == 0
    written = (tmp_path / "out" / "diagnostics.csv").read_bytes()
    assert hashlib.sha256(written).hexdigest() == DIAG_DIGEST
