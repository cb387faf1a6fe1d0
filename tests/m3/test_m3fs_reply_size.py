"""An m3fs reply larger than the client's reply slot is an error, not
a simulator abort."""

import pytest

from repro.m3.services.m3fs.fs import FsError
from repro.m3.system import M3System


def test_oversized_readdir_raises_fs_error_and_the_run_continues():
    system = M3System(pe_count=4).boot()
    # 30 names marshal to 512 B, over the 496 B reply payload (a 528 B
    # message for a 512 B slot); 29 fit.
    files = {f"/big/f{i:02d}.txt": b"x" for i in range(30)}
    files.update({f"/ok/f{i:02d}.txt": b"x" for i in range(29)})
    system.fs_preload(files)

    def app(env):
        with pytest.raises(FsError, match="exceeds"):
            yield from env.vfs.readdir("/big")
        return (yield from env.vfs.readdir("/ok"))

    assert system.run_app(app) == [f"f{i:02d}.txt" for i in range(29)]
