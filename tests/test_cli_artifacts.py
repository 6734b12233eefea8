"""The byte-identity contract: every output file of tests/cli_artifacts.py
has the SHA-256 that the committed manifest cli_artifacts.sha256 records.

A change that alters the outputs on purpose rewrites the manifest with
`PYTHONPATH=src python tests/cli_artifacts.py --manifest`, so the diff of the
manifest names every file it changed.
"""

import cli_artifacts


def test_cli_artifacts_match_the_manifest(tmp_path):
    out = tmp_path / "out"
    cli_artifacts.write_artifacts(out)
    want = cli_artifacts.read_manifest()
    assert cli_artifacts.mismatches(want, cli_artifacts.digests(out)) == []
    # one flipped byte, one missing file and one extra file are each reported
    flipped, dropped = sorted(want)[:2]
    data = bytearray((out / flipped).read_bytes())
    data[0] ^= 1
    (out / flipped).write_bytes(bytes(data))
    (out / dropped).unlink()
    (out / "new.txt").write_bytes(b"")
    assert cli_artifacts.mismatches(want, cli_artifacts.digests(out)) == [
        f"changed: {flipped}", f"missing: {dropped}", "extra: new.txt"]
