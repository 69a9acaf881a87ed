"""The CLI corpus: each command's exit code and the SHA-256 of its stdout and stderr.

Every entry runs in-process through ``cli.main``.  A code source is a pair:
("catalog", name), ("hamming", m), ("perfect", j) or ("text", key into
TEXTS).  An entry's stdin is a source or None; an argv item that is a source
is written to a temporary file and replaced by its path, as ``paste`` reads
two files.  A change that alters a pinned hash on purpose says so in
CHANGES.md, with the command and its first differing line before and after.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.cli import main
from qpaste.files import dumps

TEXTS = {
    "shor9": "ZZIIIIIII\nIZZIIIIII\nIIIZZIIII\nIIIIZZIII\nIIIIIIZZI\nIIIIIIIZZ\n"
    "XXXXXXIII\nIIIXXXXXX\n",
    "degenerate6": "XXZIZX\nZXXZII\nIZXXZI\nZIZXXI\nZIIIIZ\n",
    "xx_zz": "XX\nZZ\n",
    "xxxx_zzzz": "XXXX\nZZZZ\n",
    "zz": "ZZ\n",
    "xx_xx": "XX\nXX\n",
    "malformed": "XXXX\nZZQZ\n",
    "padded": "XXXX\nIIII\nZZZZ\n",
    # Paste operands, one failed precondition each, next to code5 or code8.
    "code8_extra_row": "XXXXXXXX\nZZZZZZZZ\nXIXIZYZY\nXIYZXIYZ\nXZIYIYXZ\nZIIIIIII\n",
    "code8_leading_pad": "IIIIIIII\nXXXXXXXX\nZZZZZZZZ\nXIXIZYZY\nXIYZXIYZ\nXZIYIYXZ\n",
    "anticommuting3": "XXXXX\nZIIII\nIZIII\n",
    "colliding6": "XXXXXX\nZZZZZZ\nZZIIII\nXXIIII\nIIZZII\nIIXXII\n",
    "code5_pad": "XXZIZ\nZXXZI\nIZXXZ\nZIZXX\nIIIII\n",
}

EMPTY = hashlib.sha256(b"").hexdigest()

CODE5 = ("catalog", "code5")
CODE8 = ("catalog", "code8")
CODE13 = ("catalog", "code13")

# (argv, stdin, exit code, SHA-256 of stdout, SHA-256 of stderr)
CORPUS = [
    (("family", "hamming", "3"), None, 0,
     "81b80bb8ff2868ec3b39212ea41398264bf4b7b47179d3b9cec5a6bde0a24e7a", EMPTY),
    (("family", "hamming", "4"), None, 0,
     "72a4ea9618ba075cd7aebca5c02dee279452562f2b05afdcf14b0c4b37bb463a", EMPTY),
    (("family", "hamming", "5"), None, 0,
     "91034a1de6570f8740782f039f9e5eafb647afd6f79842c2fbd25017b369e48e", EMPTY),
    (("family", "hamming", "6"), None, 0,
     "9ff5f88043474d53781229ec43431ab7ac82e52203331750c2c4ef7c6cd42603", EMPTY),
    (("family", "hamming", "7"), None, 0,
     "7e5cce7baa07fd85e90a08c8aa21f00ecdebfe6a3e17e776903250fae04a9dda", EMPTY),
    (("family", "hamming", "8"), None, 0,
     "8334d77f38efd5d475c708f445b3433992b35c175f55d1e18f2cd5530d3d52bf", EMPTY),
    (("family", "hamming", "9"), None, 0,
     "565ec2fb292ce0acf8ece5038c06bb9b7ecf5618cdf9fdc60c565d2712429a5c", EMPTY),
    (("family", "hamming", "10"), None, 0,
     "8237c4bd9660ac1bb19cd4eb97bc145e2800218d4420180f0aba152c95939325", EMPTY),
    (("family", "hamming", "11"), None, 0,
     "a4565f6f8e24f0a8bc88d6e017921cb623c4144fb1c3919d88e7a797274b453f", EMPTY),
    (("family", "hamming", "12"), None, 0,
     "feef1e856a017ca84069969f629268b36ffa132a035cf0169b1ed53b88d5f596", EMPTY),
    (("family", "perfect", "1", "--max-j", "6"), None, 0,
     "0024361ee5ac092ff1d514e3c87400d51bf2578d275e17daabe657c13cb4bc1d", EMPTY),
    (("family", "perfect", "2", "--max-j", "6"), None, 0,
     "2a418433ff7ef9bae6240590be832ca1c41c30d27ba0e4327f066e35ffd34b9f", EMPTY),
    (("family", "perfect", "3", "--max-j", "6"), None, 0,
     "69a423027b0208d321cffb4f2061930a093d1b972aa4ade6658c98c508af905d", EMPTY),
    (("family", "perfect", "4", "--max-j", "6"), None, 0,
     "a4c58b783486a6b97eb8173ac4dd566089ee787eecfbdd757e7008400f55524f", EMPTY),
    (("family", "perfect", "5", "--max-j", "6"), None, 0,
     "72e6a36f149e0da06b9f5072b2d962376ac455f3d35b70885bcd1caf75e9f7ab", EMPTY),
    (("family", "perfect", "6", "--max-j", "6"), None, 0,
     "2623119a0c179051625b8d4945be340a73b1a45e4a0b78f80c60d41aba92112d", EMPTY),
    (("verify", "-"), ("hamming", 3), 0,
     "8c3003eb0d6a2d34d873c862f6cd572692a4d72cb36ba9f308bc351cbe4b30ad", EMPTY),
    (("verify", "-"), ("hamming", 4), 0,
     "b27ad0752c5e93ae4203c76990f05072d759e75f45699e36b13199aafe711fa7", EMPTY),
    (("verify", "-"), ("hamming", 5), 0,
     "e48f87756ec44926ca46a8d749355eb96e3f8d43f1dd805346e2e5e750f54ee0", EMPTY),
    (("verify", "-"), ("hamming", 6), 0,
     "6a7e37eec9de3d41b648020b54d31dd66feb035a23653e79e41742bc8c1f2e76", EMPTY),
    (("verify", "-"), ("hamming", 7), 0,
     "b7d99b1ea6fc520901e2f7fd615bfddfe344e4357e4c4c173cde155c7a090c88", EMPTY),
    (("verify", "-"), ("hamming", 8), 0,
     "e7990bb0ba9def3dc1d77fd4ba7ecc8c6a90badc837f869ea90b110b6638f3fe", EMPTY),
    (("verify", "-"), ("hamming", 9), 0,
     "302664df2485a4d6943ac1fa36d75f81b2aa4357bd7a43b832ea2122bad5a36e", EMPTY),
    (("verify", "-"), ("hamming", 10), 0,
     "9ad41a1eb0156d8faaa37f738f27d38bcb6549b306ba92c2b56c8fb432c93386", EMPTY),
    (("verify", "-"), ("hamming", 11), 0,
     "78a3afb0fcfe25a66b82effb1bd0d5c101aaa68d9d83f186b8faba6132f7c588", EMPTY),
    (("verify", "-"), ("hamming", 12), 0,
     "3e0e21d2a8352edb330c24107aaf80554f7fbeaa3a24b65b0608151cacf59f3e", EMPTY),
    (("verify", "-"), ("perfect", 1), 0,
     "516addcfb0c360f9254b0000595aad60bbf55052776d633786ceccb5f29233c6", EMPTY),
    (("verify", "-"), ("perfect", 2), 0,
     "e2632a5a7ff89b41e2174a6bdcf2ba32f37c0326c907b6f8f26477048d93fcf4", EMPTY),
    (("verify", "-"), ("perfect", 3), 0,
     "fa1ef25ffd65019a7c0f6498cd11d3e1a533f1deee404b0919d91cce685b0977", EMPTY),
    (("verify", "-"), ("perfect", 4), 0,
     "d852e37ff6056f89422ecd02b5b827585d097639ffbeed27adaad5b46af994d7", EMPTY),
    (("verify", "-"), ("perfect", 5), 0,
     "455bdf039847e938baa933c8e2dc2e09edb84d808969c684d4c625494b096838", EMPTY),
    (("verify", "-"), ("perfect", 6), 0,
     "7ef96ff7388abb98382b2e35e2d585862f80aa2bf4c1fd6869a5f429484e20e4", EMPTY),
    (("syndromes", "-"), ("hamming", 3), 0,
     "20e2d2918f4e632d969ef0afa403a7f85cb4b852af105bcd8ca13514c9030063", EMPTY),
    (("syndromes", "-"), ("hamming", 4), 0,
     "3c49b91cd9ff94d35a8f4f88674f2c6762c72f879f6812d275ea04edf5b5b225", EMPTY),
    (("syndromes", "-"), ("hamming", 5), 0,
     "e9190f536f43c0ff990a97573dc2c821f2c05c47c02a595100dda46ccbb29a7e", EMPTY),
    (("syndromes", "-"), ("hamming", 6), 0,
     "584c3057a3fbbfd53fb325785487583b1533d7a381a8e3f0bd8e1a58f84ce039", EMPTY),
    (("syndromes", "-"), ("hamming", 7), 0,
     "816e66bd3b7c0835e191f8e87950a65b3f023fefdcf2290875c2f8d6a6e78995", EMPTY),
    (("syndromes", "-"), ("hamming", 8), 0,
     "3229c6246f0b37bb4876e1c10a5520bf9c69d942fdf5f5b772cb7cc6e1e626fb", EMPTY),
    (("syndromes", "-"), ("hamming", 9), 0,
     "1860a24b314a85901144954bca9b87f226e9a0ddce8f0b2d94212f33364dc421", EMPTY),
    (("syndromes", "-"), ("hamming", 10), 0,
     "5fd47d1ccdc570708b8bc527f58cc275c8593e6f476810b27ccac23a4efd0bd6", EMPTY),
    (("syndromes", "-"), ("hamming", 11), 0,
     "9d35e8f579bffb067b070974e8b4e66d1af9896865030c315c63924a603d3e9d", EMPTY),
    (("syndromes", "-"), ("hamming", 12), 0,
     "4e38030a476136f49ed38154a531f6edacaf6bbb895565eee2452b852c0b05f4", EMPTY),
    (("syndromes", "-"), ("perfect", 1), 0,
     "18a1c7edc5e841241c53880a6144d397ff8ab250bdeccf438368b91612a20789", EMPTY),
    (("syndromes", "-"), ("perfect", 2), 0,
     "d0998d969f9aa41f677dd95f6d50f50ae4906164385221c117ba66aa911e82c5", EMPTY),
    (("syndromes", "-"), ("perfect", 3), 0,
     "22d485d32b22379164b63486d6a070b24a495a65399c0e7ba9755eef1b219442", EMPTY),
    (("syndromes", "-"), ("perfect", 4), 0,
     "1f8b3f32460e4fe7de96046977e7c357a8638b0b0ecc1a4586a1afa0ca6db6ff", EMPTY),
    (("syndromes", "-"), ("perfect", 5), 0,
     "7f3bfd7f75375e623ce2448f105e6636446711b3ec0d7590486e5ba83d258762", EMPTY),
    (("syndromes", "-"), ("perfect", 6), 0,
     "2805ca7b89e5f90a2a555a5cf2d88d2fd5fce1a79451f38e464b33f8fe8aa134", EMPTY),
    (("verify", "-", "--kl"), CODE5, 0,
     "43ba3cc8b73632b3a4728163159a6b78e7da940064b8ab0cef64890885026947", EMPTY),
    (("verify", "-", "--kl"), CODE8, 0,
     "0071072692b08dbdbc29827a9e337b0dd9d4bae096c1d460650a8f4321bea2aa", EMPTY),
    (("verify", "-", "--kl"), CODE13, 0,
     "6f4e984650807efd84e1fb8d4c82b5cfa7e78bf5326eac7fd8f7bfd9399d6476", EMPTY),
    (("verify", "-", "--kl"), ("text", "shor9"), 0,
     "c4fec251dba9f22d5091bd8a2c93316dee4f782c041da9f48f381bb15630090d", EMPTY),
    (("paste", CODE8, CODE5, "--augment", "1"), None, 0,
     "8ebfc301e1d5afb6e257766e56056ba382ca12b4219107b1632dd82e5a583109",
     "a1e3a465b800bc1f734a39e5903a91297bcdda5974d6368188ebc6cbfa14e167"),
    (("bound", "13"), None, 0,
     "337faa482ec749331466894566e8be857154ed736edc97db8b0f61e9837a954a", EMPTY),
    (("bound", "21", "15"), None, 0,
     "9015caa4cca0fc39f8e0bb5711388193b820d8a157bda721095378027f3d6b8a", EMPTY),
    (("verify", "-", "--kl"), ("text", "xx_zz"), 0,
     "d9276783dab9572c0c56645e31de78a2def325c669a84365d6590f2124807622", EMPTY),
    (("verify", "-", "--distance"), CODE13, 0,
     "0fb814e441238c5a0a56f1986081d82c05336392066c302da18c7ed32cea9965", EMPTY),
    (("verify", "-", "--distance", "--kl"), CODE5, 0,
     "89856649c9d7749bad21d8b792e754e1e71c28468dca9ace20ae068fbb71e006", EMPTY),
    (("verify", "-", "--distance", "2"), CODE5, 0,
     "6cd1577a65105531e5767cdd9ea0614fd60a299c171951979fffd78ff2b4e759", EMPTY),
    (("verify", "-", "--distance", "0"), CODE5, 2,
     "dd7241ca0b9e514271242209c2cf85ea7b51806f2e1e088074268a4c6726752c",
     "9d7dc517068f30883bf81e2ad80736b84ae313eb0bacfb40a2bf46627ec006f6"),
    (("verify", "-", "--distance", "6"), CODE5, 2,
     "dd7241ca0b9e514271242209c2cf85ea7b51806f2e1e088074268a4c6726752c",
     "01d8911602944e493af8994714400a0b7c8ed3bea84a2c8adc8cd351111f2eae"),
    (("verify", "-", "--kl"), ("text", "xxxx_zzzz"), 1,
     "3a577f67745cf5a92aca8e47c50fc070fe429a9dc04e0ad4b598b4ffd6c0a36a", EMPTY),
    (("verify", "-"), ("text", "zz"), 1,
     "7588cb9c62ae33e4a7f269bf848a9e808d7e61832fad773ed8dfa36b4587e0c5", EMPTY),
    (("verify", "-", "--kl"), ("text", "zz"), 1,
     "804413e837b519310544b5a0f3551d65fa5dd9beeb9d819b490c0d94ad2e6322", EMPTY),
    (("verify", "-"), ("text", "degenerate6"), 0,
     "9d253895e9e2de73f5ffcab8d689ac88312fc5cc6b5c0b39a62dc916816aac84", EMPTY),
    (("verify", "-"), ("text", "xx_xx"), 1,
     "cb56d83bb4ca081fb687704d6dfdc336af06d97a00d2df0f724f6af2271aabca", EMPTY),
    (("verify", "-"), ("text", "malformed"), 3,
     EMPTY, "2ac354c7d49d91dc7a6dcc009b2e7cb187062d963e51cbc1ef8b617e44ae32fa"),
    (("verify", "-"), ("text", "padded"), 1,
     "f07f07263418a24657dd5257d7db11d5de6c415f096a66279b0b356cdba5a4ee",
     "094ad8a7a8bb28777b65ee8834655e87a128dd903ad70c8660bc1adda6ec6b6c"),
    (("syndromes", "-"), ("text", "padded"), 2,
     EMPTY, "889d12bd59553305268bd39d3d84b1d0cd603174e209a5ba741e21cb53886600"),
    (("verify", "-", "--kl"), ("perfect", 2), 2,
     "5d9f11e609d83221e16e0cbfbcb11fa0a0d6ca535243a5956d104b65066a5665",
     "5aa89b4bc512cfa6babf1c995fe40feb11c914f3c80ab93519cb595e3227eb01"),
    (("paste", ("text", "code8_extra_row"), CODE5), None, 2,
     EMPTY, "936afe7648e4f0d190b0c708099e4094db31af514c81c1305db8ba902f726c49"),
    (("paste", CODE8, ("text", "anticommuting3")), None, 2,
     EMPTY, "7749cd3e5fe57a8f78771f1bb954633431bcf3caac9c9db0590175e116255c25"),
    (("paste", ("text", "colliding6"), CODE5), None, 2,
     EMPTY, "082d8be941af04805e3f35afb3e3b593d18fef931e6842969a934293010bbd20"),
    (("paste", CODE8, ("text", "degenerate6"), "--augment", "2"), None, 2,
     EMPTY, "558fbbd9f8d5eb8895aba97a5838ac84ba9b560f52eb13a8d800cdfb3a86b67e"),
    (("paste", CODE13, CODE5), None, 2,
     EMPTY, "0a5364e315ef7dda46b124783474feb62f360de8c938bd1be17d9a6e804bb0d6"),
    (("paste", ("text", "code8_leading_pad"), CODE5), None, 2,
     EMPTY, "2df6c54323b47c75b749e17356c3804b8446a415d318a429c73943f3a3e92ebf"),
    (("paste", CODE8, CODE5, "--augment", "2"), None, 2,
     EMPTY, "f2e5a5fed38262e6072a4efda6f5d1e63bc73fdfa1d271ca4fd4ac051021f1d8"),
    (("paste", ("hamming", 4), ("text", "code5_pad"), "--augment", "1"), None, 2,
     EMPTY, "7196992b6d0b44132fe11f063d92fa9a52b394ff226f2274c339877ef4c2429f"),
    (("bound", "3"), None, 0,
     "d5cfa6bc70d4632754aa57b5acde8023213d20a640ab37df493a25ff124ae5f3", EMPTY),
    (("bound", "5", "9"), None, 2,
     EMPTY, "79ad5570a2edd581c84ff13ba1f320122caebe023726fbe0fccf5e7aa5177b55"),
    (("bound", "14284", "14268"), None, 0,
     "d4b25dfb0d4c92c03fb7ec0ecdb59e7219df5f7e43bd15a0faf02cdb5ae55830", EMPTY),
    (("bound", "20000", "19980"), None, 0,
     "21fe57e0a40e52ff246dda77bf141c52f9dc8843d38f7432c6fc2e6a75f9e904", EMPTY),
    (("family", "hamming", "13"), None, 2,
     EMPTY, "2a59f893e5f3087396fc423bc4e547c89e1ad8e57e5af1efc347b95ed32dde1f"),
]


def _text(source) -> str:
    kind, arg = source
    if kind == "text":
        return TEXTS[arg]
    if kind == "catalog":
        return dumps(builtin(arg))
    if kind == "hamming":
        return dumps(hamming_class(arg))
    return dumps(perfect(arg, j_max=6))


class _Digest(io.TextIOBase):
    """A text stream that keeps only the SHA-256 of what is written and its head.

    ``syndromes`` on perfect(6) writes about 90 MB, so nothing keeps the whole text.
    """

    def __init__(self):
        self.sha = hashlib.sha256()
        self.head = ""

    def write(self, text):
        self.sha.update(text.encode())
        if len(self.head) < 2000:
            self.head += text
        return len(text)


def run(argv, stdin, tmp_path):
    """Exit code and the digests of stdout and stderr of one in-process run."""
    args = []
    for i, item in enumerate(argv):
        if isinstance(item, tuple):
            path = tmp_path / f"arg{i}.stab"
            path.write_text(_text(item))
            item = str(path)
        args.append(item)
    out, err = _Digest(), _Digest()
    saved = sys.stdin
    sys.stdin = io.StringIO(_text(stdin)) if stdin is not None else io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = saved
    return code, out, err


def _id(entry):
    argv, stdin = entry[:2]
    words = [f"{item[0]}:{item[1]}" if isinstance(item, tuple) else item for item in argv]
    if stdin is not None:
        words.append(f"<{stdin[0]}:{stdin[1]}")
    return " ".join(words)


@pytest.mark.parametrize("argv, stdin, exit_code, out_sha, err_sha", CORPUS, ids=map(_id, CORPUS))
def test_cli_corpus(argv, stdin, exit_code, out_sha, err_sha, tmp_path):
    code, out, err = run(argv, stdin, tmp_path)
    got = (code, out.sha.hexdigest(), err.sha.hexdigest())
    assert got == (exit_code, out_sha, err_sha), f"stdout:\n{out.head}\nstderr:\n{err.head}"
