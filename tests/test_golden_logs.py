"""Golden run logs: fixed seeds must regenerate byte-identical CSV logs.

Each case's ``log_to_csv(records)`` is pinned by its sha256. A change that
alters any logged value (incumbent, draws, estimate, frame, precision
index, p-value, status or cache size) in any iteration fails here, so
refactors and speed-ups must reproduce the runs exactly. Each case also
states the ``stop_reason`` its run ends with.
"""

import hashlib
import math

import pytest

from apmads import (
    ProblemDef,
    RunOutput,
    SolverConfig,
    log_to_csv,
    problem_registry,
    run,
    write_log,
)
from apmads import solver
from apmads.cli import main
from apmads.problems import norm2_feasible, norm2_truth

SIGMA_FIXED = 1e-3
N20_DIM = 20
N20_START = tuple(math.pi**2 if i % 2 == 0 else math.e**2 for i in range(N20_DIM))
N20_MAX_ITERATIONS = 150


def norm2_n20() -> ProblemDef:
    return ProblemDef(
        name="norm2-n20",
        dimension=N20_DIM,
        start=N20_START,
        truth=norm2_truth,
        feasible=norm2_feasible,
        best_truth=0.0,
        stop_delta_p=problem_registry("norm2").stop_delta_p,
    )


def golden_run(key: str) -> RunOutput:
    problem_name, algo, seed, overrides, _ = CASES[key]
    problem = norm2_n20() if problem_name == "norm2-n20" else problem_registry(problem_name)
    if algo == "fixed":
        overrides = {"sigma_fixed": SIGMA_FIXED, **overrides}
    return run(problem, SolverConfig(variant=algo, seed=seed, **overrides))


# key -> (problem, algo, seed, config overrides, expected stop reason)
CASES = {
    f"{problem}-{algo}-s{seed}": (problem, algo, seed, {}, "frame")
    for problem in ("norm2", "moustache")
    for algo in ("dp", "mp", "fixed")
    for seed in range(3)
}
CASES.update({
    f"norm2-n20-{algo}-s0": ("norm2-n20", algo, 0, {"max_iterations": N20_MAX_ITERATIONS},
                             "max_iterations")
    for algo in ("dp", "mp")
})
# the baseline at n=20, whose observe path is the poll's
CASES["norm2-n20-fixed-s0"] = (
    "norm2-n20", "fixed", 0, {"max_iterations": N20_MAX_ITERATIONS}, "max_iterations"
)
# the baseline's other stops: the draw budget, the iteration cap, a frame
# threshold override, and the stall of a near-exact sigma (criterion 4)
FIXED_STOPS = [
    ("norm2", "draws", {"stop_draws": 5e7}, "budget"),
    ("norm2", "iters", {"max_iterations": 25}, "max_iterations"),
    ("norm2", "delta", {"stop_delta_p": 1e-3}, "frame"),
    ("moustache", "draws", {"stop_draws": 1e8}, "budget"),
    ("moustache", "iters", {"max_iterations": 25}, "max_iterations"),
    ("moustache", "delta", {"stop_delta_p": 1e-3}, "frame"),
]
CASES.update({
    f"{problem}-fixed-{stop}-s{seed}": (problem, "fixed", seed, overrides, reason)
    for problem, stop, overrides, reason in FIXED_STOPS
    for seed in range(2)
})
CASES["norm2-fixed-1e-10-s0"] = ("norm2", "fixed", 0, {"sigma_fixed": 1e-10}, "frame")

DIGESTS = {
    "norm2-dp-s0": "8cec6dd2d22184ff708eaadf2e2090fd9824cf48824014a94607d1f5235c787b",
    "norm2-dp-s1": "ed16e228b1c585f496c42da2f5828ed137605b7f624351b476c1dff19171f96b",
    "norm2-dp-s2": "9261aff3f1add08f20c156396164efd0cfe102117ca6404de66953f9cbbe3910",
    "norm2-mp-s0": "ba8d36f13d3a7cd4e98d263483d0bed42f84abd88d82d883f717f94790dc145c",
    "norm2-mp-s1": "3b96a863b12113aae0f00184bad35c5ee35540782b07995f920ca952fabb4502",
    "norm2-mp-s2": "cef7575db988619754ff00e4823a19e268561bd404e8b9dac77731138fa48141",
    "norm2-fixed-s0": "b47551f94a35245acafa32f2842708f3d65a9b9bef8bc298d4f1b34f36c3ef16",
    "norm2-fixed-s1": "8db3003cbf5330ede7a88a280ca57e7f72ae097bcfef4af22a978fcb1c1904b2",
    "norm2-fixed-s2": "62e8314887c41aadb1e32269bd2c1351a66e4e7f5516aac607dfb5191cc0e49d",
    "moustache-dp-s0": "5d121e44978444a0b5272c27d83ce32a8ed5c8e593bff1c68d7f4a07446a64a1",
    "moustache-dp-s1": "4feec2796a5397a4832eb1cd58d4bc82922e8518cac1c4621b484c060e7d7403",
    "moustache-dp-s2": "b43ac01bcababb1149ffb460a0353c8f4b01f40f7c6e2887fa05d2300c66b06c",
    "moustache-mp-s0": "49ad5666e68ddfcd64aeadcb9fa60c9b7509d6ab19d8212d4f5c5891109981b3",
    "moustache-mp-s1": "fd1773cd4dd55339e65499656dcbfcfd50ae390f75080ac5888ffc9db2f8b783",
    "moustache-mp-s2": "56fc37e99850051cc02e8d0b901f840e1544c7aa64099807a350ee26aaf341cf",
    "moustache-fixed-s0": "659cf56cba70da1dafe47615c93e99fe0e0f60ea26234519501acd0e16e01e96",
    "moustache-fixed-s1": "1cad5c91b9feacc9ee9e07db3bebf010711eb86eaa1ec7700b7d233ed34f00f2",
    "moustache-fixed-s2": "15ad11cc62588b55ee0f5cd8151f2383c39fdfd002520d81d120c28f56404438",
    "norm2-n20-dp-s0": "d33b92b496f8a48455860cf1d96779344f9e8842b461a224bd0e7299f53f6909",
    "norm2-n20-mp-s0": "5875c988195d1d52788a77617628305ef01299c8e7c6cbf9ca04145e2f4a9e24",
    "norm2-n20-fixed-s0": "bb764cc520a60747c1a609f4663066387028658846fa234c99fe5d7159ddbee5",
    "norm2-fixed-draws-s0": "755167afbd81d4140a65ea7be21c08160f2d08d747cd352889cf676ab356ec91",
    "norm2-fixed-draws-s1": "591d179838b0048d68ff685cf7fa73c88c15705b8fa8c2acb7e60d7887e7d1f3",
    "norm2-fixed-iters-s0": "dd5965882d27df56a41fe779e6ddb9ad82b6bb1e3cad39bceb68a536e1488c30",
    "norm2-fixed-iters-s1": "f7062f844c94482d1b13277e49eefc74b2e1ad426ad2825554bd4e05d6d96a84",
    "norm2-fixed-delta-s0": "479842b002053fe7f57f57aedb96f20198447fb46df60c82442489e9882fdd1f",
    "norm2-fixed-delta-s1": "71f06b74cf17252f03a63d90132cb0a1fa4991c14b9ae6c28a135a5ba75460d9",
    "norm2-fixed-1e-10-s0": "89c23b891266d99c782cef2f4601be67566e7199f403b44435517527978875fb",
    "moustache-fixed-draws-s0": "e30e97a56fcad8fafc5806bed30aa71ba59e16c27b2b412ddf09fd02d5d48c35",
    "moustache-fixed-draws-s1": "1ce20ed4b64a16b3a71d8f0dcb68248ce5f32ee17ba677bf5c6e2b3e0bef84f2",
    "moustache-fixed-iters-s0": "53cc56f4b8c299dc8885db45dbd6f97a9e3f6c2bdb6b9d3626557492fd6511c5",
    "moustache-fixed-iters-s1": "9cbce9d2812f82dc6e0f73e52a1fe52f0b72a7cbc02f2e609bae88ee4077be05",
    "moustache-fixed-delta-s0": "b6eb7341de8658aa6331ee5c9b9c8f06917493eaf52fb75cc30a5cec52d6c096",
    "moustache-fixed-delta-s1": "f5ee731c94c07009b1c866d2886dd306239f493b495b1778ba19ebea805e2dad",
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden_log_is_byte_identical(key):
    out = golden_run(key)
    assert hashlib.sha256(log_to_csv(out.records).encode()).hexdigest() == DIGESTS[key]
    assert out.stop_reason == CASES[key][-1]


@pytest.mark.parametrize("problem", ["norm2", "moustache"])
def test_the_benchmark_baseline_call_writes_the_fixed_logs(problem):
    # perfbench builds its fixed solves as run_fixed_precision_baseline(p, sigma,
    # SolverConfig(seed=s)), a default dp config: they must be the fixed variant's runs
    for seed in range(3):
        out = solver.run_fixed_precision_baseline(
            problem_registry(problem), SIGMA_FIXED, SolverConfig(seed=seed)
        )
        fixed = golden_run(f"{problem}-fixed-s{seed}")
        assert log_to_csv(out.records) == log_to_csv(fixed.records)


# --- golden profile outputs ---------------------------------------------------
#
# ``apmads profile --tau 1e-2 1e-3`` over the logs of the paper cases
# ({norm2, moustache} x {dp, mp, fixed} x seeds 0-2): every CSV it writes
# is pinned by its sha256, so changes to log I/O and profile computation
# must reproduce the outputs byte for byte.

PAPER_CASES = [
    key for key, (problem, _, _, overrides, _) in CASES.items()
    if problem in ("norm2", "moustache") and not overrides
]
_CLI_ALGO = {"dp": "dpmads", "mp": "mpmads", "fixed": "fixed"}

PROFILE_DIGESTS = {
    "acc.csv": "95b5ec2f669fcd499779169fff6034aae8f37b95477e20604d0884043425d652",
    "perf_tau0.01.csv": "92f8b23ca7d8f76a82e3261863864af8c084c76348e332887cc6935fbf9e3e37",
    "perf_tau0.001.csv": "6f93c06967fd6e22f6c82ea3233dfcda5f0a67a50c4bc1a8018b4d3a177dc889",
    "data_tau0.01.csv": "4eeef83951e280a718fc011b5395b71028102d7046af7db3bab8dec5a2e45c2e",
    "data_tau0.001.csv": "26db3f35e40d74d60c3bb6d9a1c028289fdf853a16cfaa7559d258ef9b7d6999",
    "conv__norm2__dpmads__s0.csv": "6a8e58886fe67ff341d8ecd97872d6f445b6c3ea61e77143f85762cdb8c55b86",
    "conv__norm2__dpmads__s1.csv": "15b2b0a9b54381df24e7217e9e8f41ff709b00e83bf6da4cd06620445d055a89",
    "conv__norm2__dpmads__s2.csv": "4e71ee50ecfa17f08b78f13cb0d11ddfe82f2e1faab0e11bebc51cc85dc96faf",
    "conv__norm2__mpmads__s0.csv": "0a761ad3a02363ea5da928579899dcd8aa2339645cd0ecdf72e0acbea71f6933",
    "conv__norm2__mpmads__s1.csv": "91ea12073da78d066ecfba2ef480c64fc17fea0994dd18e9e08a5c60da373703",
    "conv__norm2__mpmads__s2.csv": "e9d5e0812e480a2cf6884ced54cd4c0eecf190871ceb26dc17e572635f036e0f",
    "conv__norm2__fixed__s0.csv": "d9f073ba638131aed061e8e3d2d743bdbbe2b8494c4f60e7f8fb6c0113b94867",
    "conv__norm2__fixed__s1.csv": "e4bc115590fa47d950b5720075a9247cb4d108cc0e68e68e891378ebd793b866",
    "conv__norm2__fixed__s2.csv": "73fac00fcf08ea22bbea786a1970b00a91504154a8a6ed6a9d95b08e6e594969",
    "conv__moustache__dpmads__s0.csv": "a8b3d6b08800bac3e80a12a92630c4ca010747275313c10dec612a0328455bf4",
    "conv__moustache__dpmads__s1.csv": "a8b61a267e003d1328da41eb0b025e39d84a045693e8929d03ece82bcc097960",
    "conv__moustache__dpmads__s2.csv": "a5500ec7992e24295357327985cf2921bcec513e64641427c9544abb6575786c",
    "conv__moustache__mpmads__s0.csv": "991280f314d8811dcf146306599f5ff5c78e2d1fed0d13bbf86feea494cb78fb",
    "conv__moustache__mpmads__s1.csv": "a89d358399d9db402981698ea643bbacefae7101b89a803152ef3392be8c0547",
    "conv__moustache__mpmads__s2.csv": "6698d3029b36e04ce51330f2fb084198896620cfc95f0b91364c935ee64227ac",
    "conv__moustache__fixed__s0.csv": "15c063f9054cdf513dbe05f9289ac9276f9b1124d4d659995e9f2025ea82e682",
    "conv__moustache__fixed__s1.csv": "ec0d2605447f2e17522f1937ca807bfa4875173c04e95c89cb88b89282d43c55",
    "conv__moustache__fixed__s2.csv": "6bb22a1dd3685370a5dfc75a0a445c3c34ea85010fec0e85fee6008be417034b",
}


@pytest.fixture(scope="module")
def profile_outputs(tmp_path_factory):
    assert len(PAPER_CASES) == 18
    root = tmp_path_factory.mktemp("golden-profile")
    logs = []
    for key in PAPER_CASES:
        problem, algo, seed, _, _ = CASES[key]
        path = root / f"{problem}__{_CLI_ALGO[algo]}__s{seed}.csv"
        write_log(golden_run(key).records, path)
        logs.append(str(path))
    out_dir = root / "profile"
    code = main(["profile", *logs, "--tau", "1e-2", "1e-3", "--out-dir", str(out_dir)])
    assert code == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


def test_profile_writes_exactly_the_pinned_files(profile_outputs):
    assert sorted(profile_outputs) == sorted(PROFILE_DIGESTS)


@pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
def test_golden_profile_output_is_byte_identical(profile_outputs, name):
    assert profile_outputs[name] == PROFILE_DIGESTS[name]
