"""Pinned digests of `sums`, `dim-report` and `cover-cost` outputs that no
golden covers.

`sums` is run for every symbolic psi family and for two tables (one spanning
many dyadic blocks, one too short for the condensation fit), with each of
the three sum kinds, on cantor (d = 1) and gasket (d = 2).  `dim-report` is
run with one tau below the Dirichlet exponent and one whose approximant
stays short.  The digests were captured before the closed-form exponents,
the Dirichlet cut-off and the sweep reach moved to their single homes; each
CSV is hashed without its `# config_hash=` line (a table's path is part of
the config).

`cover-cost` is run on the d = 2 systems, where some D_n balls hold two or
more block rationals and take the exact-rank witness path (the goldens pin
only cantor, where every ball holds one).  Those digests were captured
before the witness built its own block points.
"""

import hashlib

import pytest

from fracapprox.cli import main

# r = 2^(k/4), psi = r^-2 (log r)^-1: 33 dyadic blocks, and a short 4-block one
LONG_TABLE = "".join(
    f"{2.0 ** (k / 4)!r},{2.0 ** (-k / 2) / (k / 4 * 0.6931471805599453)!r}\n"
    for k in range(1, 133)
)
SHORT_TABLE = "".join(f"{2.0 ** k!r},{2.0 ** (-2.5 * k)!r}\n" for k in range(1, 6))

PSIS = {
    "power": "power:tau=2.0",
    "powerlog": "powerlog:beta=3.0",
    "gpl": "gpl:tau=1.5,beta=2.0",
    "table-long": "table:long.csv",
    "table-short": "table:short.csv",
}

# the Hausdorff sum at s = 0.5, so its psi exponent differs from measure_zero's
KINDS = {
    "lebesgue": [],
    "measure_zero": [],
    "hausdorff": ["--s-param", "0.5"],
}

SUMS_DIGESTS = {
    "cantor-gpl-hausdorff":
        "6b1d1efa19e3b2ad5165ef6125ad99d462d988a3f830c0c369365ae4271a14ee",
    "cantor-gpl-lebesgue":
        "e18055912e364169cab218e9a7ed3cd976dc1a414f0a74bcf636bcdcaeb12be1",
    "cantor-gpl-measure_zero":
        "027ffcc7bc8dc287ef4028b4f7c51d1358977c885f62bbb0121e4360df630ba6",
    "cantor-power-hausdorff":
        "a26f847e2e19e9e599ac4246c6b2af111419e7127b65476e2faad763e5598035",
    "cantor-power-lebesgue":
        "cb1b4b379d06dbd1e66c14f4c21cdaa6dd76edeffa578b4ae46c48c7cf448039",
    "cantor-power-measure_zero":
        "1b2c85fac1e4525b3ddf043c9349ac4adf5ad8123b16ef22b20fe9fe14e33488",
    "cantor-powerlog-hausdorff":
        "a275421ebd1ec358df4d9fe60f65cbb79bf5682941d688ac45d7397eec2f5b7f",
    "cantor-powerlog-lebesgue":
        "7c18e181d1d68c84af1cd06990e8f72cfe1d1b90a338649e41a7d3f5e7a30f90",
    "cantor-powerlog-measure_zero":
        "a365cc062053c6d6dbd396e2705108ef5bb383347057eab32028a8e21af2abc7",
    "cantor-table-long-hausdorff":
        "200388c6aa0456a36bc3a56307ad8d9f303010f961a8bb7d95d067afa231f6e3",
    "cantor-table-long-lebesgue":
        "7f4e73a6c76d1445b2f911b59fc51352f92230dce1322e8bcce11aef45fee6e8",
    "cantor-table-long-measure_zero":
        "c793dca006e441866c8a4adaf4be5386bc74188fce4a465bccc37134631f6622",
    "cantor-table-short-hausdorff":
        "fc1b008407f62485852aefee87fafb26cc678ddf94e34c6ab71b66c9ee439c28",
    "cantor-table-short-lebesgue":
        "fc1b008407f62485852aefee87fafb26cc678ddf94e34c6ab71b66c9ee439c28",
    "cantor-table-short-measure_zero":
        "fc1b008407f62485852aefee87fafb26cc678ddf94e34c6ab71b66c9ee439c28",
    "gasket-gpl-hausdorff":
        "026ba842636c476cc13e56751a8a3c45f6a9a0dab454ab22be6960b546904a53",
    "gasket-gpl-lebesgue":
        "78e461d31e3abfe9fbb7994d3b513cd29720039fe1092228b2dbd29c54015c8e",
    "gasket-gpl-measure_zero":
        "d72b900026be36abd2be1c23a5c9219d7d38eb7d300d933bae94dcbe92283a13",
    "gasket-power-hausdorff":
        "b86200de97e15c3c3dfa6e619872972aad094b368c76c6aeaf9f3d3836c630e5",
    "gasket-power-lebesgue":
        "e54bffae2022d54961cfecf64df1ebb5f5df0ff29347b2c7d385ca15c4a20717",
    "gasket-power-measure_zero":
        "6f5153b0900b83c3639b48f836e6e2efc5dabe11bd151e87850b7a7a8fd0fd76",
    "gasket-powerlog-hausdorff":
        "bc7ec1f95d32a5c2e53a9e28a2255ab127b9cf500f9986a9f7089d370c7640b1",
    "gasket-powerlog-lebesgue":
        "e8f3e179272ffcaeba1fb3c97e53c9ea31950ad7fdfb80b7a9f39d3768915f70",
    "gasket-powerlog-measure_zero":
        "7251bd7da8d1013af723bbc82dc25bad0de2d6f548d6371820aa567bba5f3f4c",
    "gasket-table-long-hausdorff":
        "f8d6c7996ff0d3c38e82cc2c78c67aebf41485e5f8077528893a3cfa2c9321a5",
    "gasket-table-long-lebesgue":
        "8425e3096c8c2b173c0851cce6a86cc5c601c23cbb4fd3b92e6fc3830946248d",
    "gasket-table-long-measure_zero":
        "82bb5247e8b2ba917895b4b5ba88ce1cc5fb66cb433c3c3da8f915e81143b7a0",
    "gasket-table-short-hausdorff":
        "fc1b008407f62485852aefee87fafb26cc678ddf94e34c6ab71b66c9ee439c28",
    "gasket-table-short-lebesgue":
        "fc1b008407f62485852aefee87fafb26cc678ddf94e34c6ab71b66c9ee439c28",
    "gasket-table-short-measure_zero":
        "fc1b008407f62485852aefee87fafb26cc678ddf94e34c6ab71b66c9ee439c28",
}

DIM_REPORT_DIGEST = "1ee58ad8649fd6ba3f8d065d44e99aaf72d58a7f02866d5db8f9cf35dd951608"

COVER_COST_DIGESTS = {
    ("gasket", "power:tau=3.0", "1:2"):
        "983f7eadf0434412b494f8913634b2878b6bf134820808f8cb9f2eea82479cf9",
    ("koch", "power:tau=3.0", "1:3"):
        "4796f15f22f0d6e3d2eee6ac24c894c9415ce47fa93fa23311812ba3645cc959",
    ("dust", "power:tau=2.5", "1:4"):
        "26cc26c75500f9dd1a47d5eb18bae94879681b271a4da7dc884f35be2bd615de",
}


def _digest(path) -> str:
    lines = [line for line in path.read_bytes().split(b"\n")
             if not line.startswith(b"# config_hash=")]
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def _run(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "long.csv").write_text(LONG_TABLE)
    (tmp_path / "short.csv").write_text(SHORT_TABLE)
    out = tmp_path / "run"
    assert main(["--seed", "0", "--out", str(out), *argv]) == 0
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("psi", sorted(PSIS))
@pytest.mark.parametrize("ifs", ["cantor", "gasket"])
def test_sums_output_digest(tmp_path, monkeypatch, ifs, psi, kind):
    out = _run(tmp_path, monkeypatch, ["sums", "--ifs", ifs, "--psi", PSIS[psi],
                                       "--kind", kind, *KINDS[kind]])
    assert _digest(out / "sums.csv") == SUMS_DIGESTS[f"{ifs}-{psi}-{kind}"]


def test_dim_report_output_digest(tmp_path, monkeypatch, capsys):
    # tau 1.5 < 2 is skipped; tau 8 keeps too few points in 12 batches
    out = _run(tmp_path, monkeypatch, ["dim-report", "--ifs", "cantor", "--taus",
                                       "1.5,2.5,8.0", "--samples", "20000"])
    assert _digest(out / "dim_report.csv") == DIM_REPORT_DIGEST
    err = capsys.readouterr().err.splitlines()
    assert sorted(line.split(" ")[0] for line in err) == ["tau=1.5", "tau=8.0:"]


@pytest.mark.parametrize("ifs, psi, blocks", sorted(COVER_COST_DIGESTS),
                         ids=[ifs for ifs, _, _ in sorted(COVER_COST_DIGESTS)])
def test_cover_cost_d2_output_digest(tmp_path, monkeypatch, ifs, psi, blocks):
    out = _run(tmp_path, monkeypatch, ["cover-cost", "--ifs", ifs, "--psi", psi,
                                       "--blocks", blocks])
    assert _digest(out / "cover_cost.csv") == COVER_COST_DIGESTS[ifs, psi, blocks]
