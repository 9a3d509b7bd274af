"""Golden outputs of the multi-broadcast planner and both transports.

Each digest pins, byte for byte, one output on the acceptance fixtures:
the centralized schedule's JSON, and for each distributed mode the JSONL
slot traces and the metrics of seeds 0-2, uncapped and, on the c2
greedy cases, cut by ``max_rounds`` 3 and 6.  A change that alters any
schedule, trace or metric here has to update the digests on purpose.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from rumorcast.backbone import bounded_diameter_cds, greedy_cds
from rumorcast.central import multibroadcast_schedule, schedule_to_dict
from rumorcast import distributed
from rumorcast.distributed import (SimConfig, init_states,
                                   run_distributed_multibroadcast)
from rumorcast.fixtures import (gen_random_udg, gen_ring_fixture,
                                gen_star_path, pick_sources)

SEEDS = (0, 1, 2)
SLOT_FACTOR = 2.0


def _star_path():
    return gen_star_path(4, 3)


def _ring():
    # tips t0/t7 are non-member sources, hub (the root) and o3 are members
    return gen_ring_fixture(12), ["t0", "o3", "hub", "t7"]


def _udg():
    # four of the five sources sit off the backbone, and the
    # bounded-diameter backbone loses two members to pruning
    g = gen_random_udg(30, 0.28, seed=2)
    return g, pick_sources(g, 5)


FIXTURES = {"star-path": _star_path, "ring": _ring, "udg": _udg}
BACKBONES = {"greedy": greedy_cds, "bounded": bounded_diameter_cds}

# case -> (central schedule, cd traces, cd metrics, nocd traces, nocd metrics)
GOLDEN = {
    "star-path/greedy/c1": (
        "16db864b06f288ba71e861a7de5cedfbe38abe158113e9cf2bcbaa02a21e53c0",
        "045a99b544a21d0c86a73060a5ac8f81641278040fc7f2e23ab2fc6a8134efa8",
        "4d7597e4edf48bbfb53f549c2b7548f57adeee1b8bfbade8e9e863d851ac6d13",
        "c27e9d767239f2392185cce159116a64492a4af3d6899778be48b458f91fb35f",
        "d40d02e673fd26a9224e9db86515c67d8b6ad6f29f882b34ce0f5c09b661eb77",
    ),
    "star-path/greedy/c2": (
        "dee867f1394dff114c155aeb2cec8f9156e5335f879b98cc3db9e948e712f279",
        "be12d437cceb6935b6d15913b2ef0f4bc28e1a308c51a3d91257831fbe1bc2c9",
        "2252448124242ea41c599bc30401f64a477cd330f3379b58c5c1e59325e12cff",
        "6b78b0e7c91c8efce4cbc9489db113d95564cf534a668f8db3990e47bc8e3bfc",
        "2b2dc98dac4cc96d929d114c30218d57b878d16f06725de681e4ee40f92c8eb8",
    ),
    "star-path/greedy/c3": (
        "da053530b8e13b9781755d65f4c1f71c169a26abbd4e5c69af781d5a47cd8352",
        "be12d437cceb6935b6d15913b2ef0f4bc28e1a308c51a3d91257831fbe1bc2c9",
        "2252448124242ea41c599bc30401f64a477cd330f3379b58c5c1e59325e12cff",
        "6b78b0e7c91c8efce4cbc9489db113d95564cf534a668f8db3990e47bc8e3bfc",
        "2b2dc98dac4cc96d929d114c30218d57b878d16f06725de681e4ee40f92c8eb8",
    ),
    "star-path/bounded/c1": (
        "16db864b06f288ba71e861a7de5cedfbe38abe158113e9cf2bcbaa02a21e53c0",
        "045a99b544a21d0c86a73060a5ac8f81641278040fc7f2e23ab2fc6a8134efa8",
        "4d7597e4edf48bbfb53f549c2b7548f57adeee1b8bfbade8e9e863d851ac6d13",
        "c27e9d767239f2392185cce159116a64492a4af3d6899778be48b458f91fb35f",
        "d40d02e673fd26a9224e9db86515c67d8b6ad6f29f882b34ce0f5c09b661eb77",
    ),
    "star-path/bounded/c2": (
        "dee867f1394dff114c155aeb2cec8f9156e5335f879b98cc3db9e948e712f279",
        "be12d437cceb6935b6d15913b2ef0f4bc28e1a308c51a3d91257831fbe1bc2c9",
        "2252448124242ea41c599bc30401f64a477cd330f3379b58c5c1e59325e12cff",
        "6b78b0e7c91c8efce4cbc9489db113d95564cf534a668f8db3990e47bc8e3bfc",
        "2b2dc98dac4cc96d929d114c30218d57b878d16f06725de681e4ee40f92c8eb8",
    ),
    "star-path/bounded/c3": (
        "da053530b8e13b9781755d65f4c1f71c169a26abbd4e5c69af781d5a47cd8352",
        "be12d437cceb6935b6d15913b2ef0f4bc28e1a308c51a3d91257831fbe1bc2c9",
        "2252448124242ea41c599bc30401f64a477cd330f3379b58c5c1e59325e12cff",
        "6b78b0e7c91c8efce4cbc9489db113d95564cf534a668f8db3990e47bc8e3bfc",
        "2b2dc98dac4cc96d929d114c30218d57b878d16f06725de681e4ee40f92c8eb8",
    ),
    "ring/greedy/c1": (
        "8727e68d835563c7014047ee515e9b132dbb4a95327e3db7db28093ce31d5605",
        "c0bf1799b2849e4ddd612931b3d49e515d7669563a797b2211acbaa575c6558a",
        "6eac6e46f6308ab6c713adc29c15dab466137a3fd16d9a2114e70cb08e28994c",
        "e139105a7f304b9f5708cd986ad67956cfd5434dccd6b141c9d72c2d7e36d87e",
        "1d67ca31d7342536ada5f67194886ddae963e52ec0895a2a11543d5f9ac1dc38",
    ),
    "ring/greedy/c2": (
        "5cff6fea03a0fea7b4e0fd8f3955be72728c9ef6767753e5efac2d155977fb5c",
        "3adb0e1692dc2ef72825725fe6d1484e675520b2c5a1272025e7d6bd4dfca31e",
        "6d636406d8cfd6bb80f49b6a93f51b7d9029bbfe44c94630cdb799a432dfd3e4",
        "53e6953171e121200c6f622cc13360ddd1b76c1bac527d66df61a6f33fc87f98",
        "29a2626df3f87b4391d9a24045d1591d90648590ddd36c9e15ba8dba933a76ef",
    ),
    "ring/greedy/c3": (
        "49a84d7155f0204b283584157477bcad69f3dc055ce083958489e456477c60ea",
        "3adb0e1692dc2ef72825725fe6d1484e675520b2c5a1272025e7d6bd4dfca31e",
        "6d636406d8cfd6bb80f49b6a93f51b7d9029bbfe44c94630cdb799a432dfd3e4",
        "53e6953171e121200c6f622cc13360ddd1b76c1bac527d66df61a6f33fc87f98",
        "29a2626df3f87b4391d9a24045d1591d90648590ddd36c9e15ba8dba933a76ef",
    ),
    "ring/bounded/c1": (
        "8727e68d835563c7014047ee515e9b132dbb4a95327e3db7db28093ce31d5605",
        "c0bf1799b2849e4ddd612931b3d49e515d7669563a797b2211acbaa575c6558a",
        "6eac6e46f6308ab6c713adc29c15dab466137a3fd16d9a2114e70cb08e28994c",
        "e139105a7f304b9f5708cd986ad67956cfd5434dccd6b141c9d72c2d7e36d87e",
        "1d67ca31d7342536ada5f67194886ddae963e52ec0895a2a11543d5f9ac1dc38",
    ),
    "ring/bounded/c2": (
        "5cff6fea03a0fea7b4e0fd8f3955be72728c9ef6767753e5efac2d155977fb5c",
        "3adb0e1692dc2ef72825725fe6d1484e675520b2c5a1272025e7d6bd4dfca31e",
        "6d636406d8cfd6bb80f49b6a93f51b7d9029bbfe44c94630cdb799a432dfd3e4",
        "53e6953171e121200c6f622cc13360ddd1b76c1bac527d66df61a6f33fc87f98",
        "29a2626df3f87b4391d9a24045d1591d90648590ddd36c9e15ba8dba933a76ef",
    ),
    "ring/bounded/c3": (
        "49a84d7155f0204b283584157477bcad69f3dc055ce083958489e456477c60ea",
        "3adb0e1692dc2ef72825725fe6d1484e675520b2c5a1272025e7d6bd4dfca31e",
        "6d636406d8cfd6bb80f49b6a93f51b7d9029bbfe44c94630cdb799a432dfd3e4",
        "53e6953171e121200c6f622cc13360ddd1b76c1bac527d66df61a6f33fc87f98",
        "29a2626df3f87b4391d9a24045d1591d90648590ddd36c9e15ba8dba933a76ef",
    ),
    "udg/greedy/c1": (
        "314a2b9e8dc8da1a3a98f327a131e9c0cbd5d6c57822ebf8bc7f628d74739791",
        "dc340cf2a77e52fa45bfccd57d99d718fdf098b9a69609d772dad6d7fc37413e",
        "05ef71fa07bcd782c8fbd1bdb4dd0f7704a30dd94e4a6313b77afe8f5f2a6eab",
        "00e572c2bf5bc40b7e401f18ea2d268b1f1c7e9a14576492712d0e05a7ab9e84",
        "e65884953ccef73abce514271168c5cd589d7413edbb746db4c4409efe681502",
    ),
    "udg/greedy/c2": (
        "761970417f9f173ffa99ee93213c59cdda6cfccc855e1e54da8fe1f30b252978",
        "41e548cce99a6cd2fa5bf19f8d765b51ec831d5c130e719669430ba6d582a502",
        "26fdaef47b440e0e164efd7edf35af808895191e8e1aa78049cfef64b8b97df6",
        "91681cec316e8a293e149b793c5cdedc1359342d205ce2055467b1f50be1dde0",
        "a5b3b0c9f0e79825810f2e793518ebeaf9616e4f998f2f60694fe1371a4d05b0",
    ),
    "udg/greedy/c3": (
        "6a01eabcd81e8693148aa654fad01851a245faf08d365bce0be1be0f791e94e6",
        "fcdd14722d3744d58101965ea22f963663afe688dc21088c47983e3b32c75cdc",
        "494fe1f30916c4f3bb62a95e4935e8fb05941e5b5780a00223d1da70374ddd47",
        "0e79308d1c6ae9fe2f725b041f384bfc321cad1ec31614c25518f8c056e484f3",
        "b849ff915511c857e6b7cbe4f8378dd11a0fac83c3f9d8f9d5b44ab191bb9b37",
    ),
    "udg/bounded/c1": (
        "f687f60a304afb14705e0773c37af860030494d3aa9f54ec0535073f5d879433",
        "85972c8dd0892ec32f488a9a023f992fe6a35c0357050e05c0b366100a352fcf",
        "605df792a33dd96d06d3caee943947f610b2d3c812de5cd9920a9e344f7ab7d3",
        "a2b6c533e679525011ce33c7b0a8375764e1094ad63eb700e3b379ae29502d01",
        "a1d7abc3bed0b75f9c6c598f3e0ace4f10d13d8e846215e63049261aeca55631",
    ),
    "udg/bounded/c2": (
        "4619a19a31997b1a72c93a78f4e6357b5888eaa14dac20805a1351da952c38b1",
        "de2a8272e1ce729c5df501b8f35c067f3e978c18399c714f8074b4a40f00e85e",
        "a0db114ea1294898fbe0ab23b96cb9c83592be0688641d44b4c7b006535d8ed1",
        "7958a82bb057c5db589aedc14df42085d7ad0b82c1853c665b162799b894c6fa",
        "aa8d265a77c0fb80acac0e0e2207ea702f95845e149dda9a65df8f47dcc02403",
    ),
    "udg/bounded/c3": (
        "0edf2d38bb94bb6df1009f353121615d855d047974c50847f68dccb9efb09173",
        "2a7b2ac738b053a6ed863a554eff5a89bd858a5fd8978826296aac88a3332c50",
        "ea2dbe2d0be4d57dd03ad9d3992e71e086255c70ef2754faec91165e5d67c500",
        "568af368f4b5e1308ffa6642cb90b8b52972f00bb3ae155052aa02fd25965192",
        "0fe33ee04479e97ca75f930188317df546e6e0af7cecdea7013b539a6adc0ecf",
    ),
}


def _sha(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _case(name: str):
    fixture, backbone, c = name.split("/")
    g, sources = FIXTURES[fixture]()
    return g, BACKBONES[backbone](g), sources, int(c[1:])


def _transport_digests(g, bb, sources, c: int, **cap) -> list[str]:
    """Per mode, the digests of the seeds' traces and of their metrics;
    ``cap`` may set ``max_rounds``."""
    out = []
    for mode in ("cd", "nocd"):
        traces, metrics = [], []
        for seed in SEEDS:
            buf = io.StringIO()
            cfg = SimConfig(slot_factor=SLOT_FACTOR, mode=mode, seed=seed,
                            **cap)
            dm = run_distributed_multibroadcast(g, bb, sources, c, cfg,
                                                trace=buf)
            traces.append(buf.getvalue())
            metrics.append(json.dumps(dm.to_dict(), sort_keys=True))
        out += [_sha(traces), _sha(metrics)]
    return out


def digests(name: str) -> tuple[str, ...]:
    g, bb, sources, c = _case(name)
    sched = multibroadcast_schedule(g, bb, sources, c)
    out = [_sha([json.dumps(schedule_to_dict(sched), sort_keys=True)])]
    return tuple(out + _transport_digests(g, bb, sources, c))


CASES = [f"{f}/{b}/c{c}" for f in FIXTURES for b in BACKBONES
         for c in (1, 2, 3)]


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden(name):
    assert digests(name) == GOLDEN[name]


# case/r<max_rounds> -> (cd traces, cd metrics, nocd traces, nocd metrics).
# Every run here needs at least 7 rounds uncapped, so both caps cut each
# one
CAPPED = {
    "star-path/greedy/c2/r3": (
        "760770339ea40ee3f1c1e93d2413d9c049c65930e4dc02e0cad9b6342c8e5180",
        "ab3aa5c58f7fe29e48b53f611bd34a06ea62631e3683ead00df2042084a3f949",
        "02051ca5a48327652d8ca591c97cc5675598cac9d802aa6135aba2254088acf4",
        "b8e967b0f7856e65fd9c16c683864fe102d1bcfde87fcf86910d8215479db195",
    ),
    "star-path/greedy/c2/r6": (
        "6d74f83667c195e76da705725f8aed4e919ad1abdf363accd3b68640672f669e",
        "5f707f638835f6b51c4573a0c7a9cbefd805b962e766f1f634416ff528f9ed0d",
        "6c82d4ce15858efd09ab91f82d146144b8e406a2a6fc3f14abdc3dabd67a4b16",
        "6b064ae6a99279bd841e14f16a504b84ea0ea6b97cd080756aed269410c29a6b",
    ),
    "ring/greedy/c2/r3": (
        "a6e61eaf7bef10b90eef6b4ae82dc8b3b879b7d4a6a644cea688035db1857097",
        "48b0ad51d1d0cef6effdbe4683eb0d723a044ac973cd6b198c4b7d334a361057",
        "7a217f239200608333217857f0612bef03d8b126ea89e1fc63d6c91f26f35209",
        "b64488b62b0edfd463c68c44c766732ba5581630b60969722ade2b499d64fd2f",
    ),
    "ring/greedy/c2/r6": (
        "54329429d583f387ae2ae2794dfdc804fe19d2a7d2c835e56f9cf0947a55862a",
        "f645ecea90c45f0a6786d3d8ba2f0a55f40040cb9b1fbe2dc8751a71074b4756",
        "17c174ddff4f946fa3f7b2b6a74c90116db5b8b29afc80494219c8a6b67552b7",
        "ed59f47c334bc7996e701661a6454666e67e0c900d85ccd35815dc555bef9823",
    ),
    "udg/greedy/c2/r3": (
        "828e14c5bbbd508f4730351e94aea2d531f7ce50407426598aba0d12a039194a",
        "3687b19cfe29c1666e1c710e8637f2783013c81277dd21929de23febbae591a4",
        "cceefd72e1e287f3ce05d643eebb76264ddb5f666a04defe8f99c574f8a798ac",
        "0bcf1354ff491535900cc17a0aac020652f259cd2f9ff804b38326e03e9ddc04",
    ),
    "udg/greedy/c2/r6": (
        "52cbb145d12f9834a3e1e7cf07f90cef80c4872bc7a6d576ea4af37153c65c4e",
        "5286f92dbbb330e08396ef750600dfd67886c2f3f05c611e54b3a00434c1383e",
        "3e890c86578c9fbf39a37a2a8ec822778621708a033fa59f287a760bcc6f38dd",
        "bd4afcb63659ae4ea1fc301cfe3303f2c97601e1713655ae0a1224babb40412f",
    ),
}


@pytest.mark.parametrize("name", CAPPED)
def test_capped_outputs_match_golden(name):
    case, cap = name.rsplit("/r", 1)
    g, bb, sources, c = _case(case)
    assert tuple(_transport_digests(g, bb, sources, c,
                                    max_rounds=int(cap))) == CAPPED[name]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cd_runs_give_no_unit_an_address_set(monkeypatch, fixture):
    """No CD round reads ``awaiting_ack``, so a CD run arms none: every
    state keeps the shared empty frozenset, armed units included."""
    seen = []

    def recording(g, cfg):
        seen.append(init_states(g, cfg))
        return seen[-1]

    monkeypatch.setattr(distributed, "init_states", recording)
    g, bb, sources, c = _case(f"{fixture}/greedy/c2")
    for seed in SEEDS:
        cfg = SimConfig(slot_factor=SLOT_FACTOR, mode="cd", seed=seed)
        run_distributed_multibroadcast(g, bb, sources, c, cfg)
    assert len(seen) == len(SEEDS)
    for states in seen:
        assert any(state.pending != () for state in states.values())
        for state in states.values():
            assert type(state.awaiting_ack) is frozenset
            assert not state.awaiting_ack


def test_udg_case_prunes_distribution_senders():
    """The pinned cases cover pruning: some member never distributes.

    The root opens distribution with the first chunk and never transmits
    during collection, so every sender from its first round on is a
    distribution sender.
    """
    g, bb, sources, c = _case("udg/bounded/c2")
    sched = multibroadcast_schedule(g, bb, sources, c)
    first = next(i for i, rnd in enumerate(sched.rounds)
                 if any(tx.sender == bb.root for tx in rnd))
    senders = {tx.sender for rnd in sched.rounds[first:] for tx in rnd}
    assert senders < set(bb.members)
