"""Backbone graph builders.

Three stacked-hourglass variants, each one call to the same template,
which takes every difference below as an argument:

* ``build_hourglass54`` -- 3 modules, 3 downsamplings each with channel
  schedule (384, 384, 512), one residual per skip / down / up stage, a
  single 512-channel middle residual, nearest-neighbor upsampling, a
  two-stage stem, a bare 1x1-remap join between modules (no post conv or
  carry block), per-scale attention heads on the last module and 3x3
  corner prediction heads.
* ``build_hourglass104_reference`` -- the classic two-module baseline
  kept for comparisons: 5 downsamplings per module with schedule
  (256, 384, 384, 384, 512), two residuals per stage, four in the middle,
  a 3x3 conv after each module and the usual 1x1-remap junction between
  modules.
* ``build_squeeze_hourglass`` -- the reference with five edits: every
  residual becomes a fire module (the stem's leading conv stays standard),
  a third stride-2 stem stage, one downsampling fewer per module, 4x4
  stride-2 transpose-conv upsampling and 1x1 lead convs in the heads.

Structural conventions used everywhere: downsampling is a stride-2 block
(never pooling); each up stage is upsample -> block(s) mapping the deeper
channel count back down -> add the skip feature.

Input sizes must survive the halving chain so every skip join matches its
upsampled partner (roughly: the post-stem resolution must be divisible by
2^levels).  The canonical 255x255 works for every variant, as does
127x127; build() validates and raises on a size that breaks the mirror.
"""

from .decode import SIZE_CLASSES
from .graph import ArchGraph, Node
from .kernels import _integer, _one_of, _pair


class Emit:
    """Appends the tagged primitive nodes of one block to a graph.

    The only definition of each block: the builders emit whole backbones
    through it, and a one-block graph built with it is how a single block is
    run (``init_weights`` + ``forward``) or counted (``cost_report``).
    Standard and 1x1 convolutions carry biases; depthwise branches do not.
    """

    def __init__(self, graph):
        self.g = graph

    def conv(self, node_id, src, in_c, out_c, k, stride=1, act="",
             stage="", role="", block="", block_kind="conv", bias=True):
        self.g.add(Node(id=node_id, kind="conv", inputs=[src], stage=stage, role=role,
                        block=block or node_id, block_kind=block_kind,
                        in_channels=in_c, out_channels=out_c, kernel=(k, k),
                        stride=stride, padding=(k - 1) // 2, bias=bias, activation=act))
        return node_id

    def residual(self, name, src, in_c, out_c, stride=1, stage="", role=""):
        """ReLU(conv3x3(ReLU(conv3x3/stride(x))) + shortcut), where the
        shortcut is x or, when channels or stride change, a 1x1/stride conv."""
        tags = dict(stage=stage, role=role, block=name, block_kind="residual")
        c1 = self.conv(f"{name}.conv1", src, in_c, out_c, 3, stride=stride, act="relu", **tags)
        c2 = self.conv(f"{name}.conv2", c1, out_c, out_c, 3, **tags)
        if in_c != out_c or stride != 1:
            shortcut = self.conv(f"{name}.proj", src, in_c, out_c, 1, stride=stride, **tags)
        else:
            shortcut = src
        self.g.add(Node(id=f"{name}.add", kind="add", inputs=[c2, shortcut], **tags))
        self.g.add(Node(id=f"{name}.out", kind="relu", inputs=[f"{name}.add"], **tags))
        return f"{name}.out"

    def fire(self, name, src, in_c, out_c, stride=1, stage="", role=""):
        """Squeeze 1x1 to out/2, then 1x1/stride and 3x3-depthwise/stride
        expands (out/2 each), concatenated and ReLU'd; no shortcut."""
        if out_c % 2:
            raise ValueError(f"fire module {name!r} needs even out_channels, got {out_c}")
        tags = dict(stage=stage, role=role, block=name, block_kind="fire")
        sq = out_c // 2
        s0 = self.conv(f"{name}.squeeze", src, in_c, sq, 1, **tags)
        b1 = self.conv(f"{name}.expand1x1", s0, sq, sq, 1, stride=stride, **tags)
        self.g.add(Node(id=f"{name}.expand3x3", kind="dwconv", inputs=[s0],
                        in_channels=sq, out_channels=sq, kernel=(3, 3), stride=stride,
                        padding=1, bias=False, **tags))
        self.g.add(Node(id=f"{name}.cat", kind="concat", inputs=[b1, f"{name}.expand3x3"], **tags))
        self.g.add(Node(id=f"{name}.out", kind="relu", inputs=[f"{name}.cat"], **tags))
        return f"{name}.out"

    def block(self, kind, name, src, in_c, out_c, stride=1, stage="", role=""):
        blocks = {"residual": self.residual, "fire": self.fire}
        _one_of("block kind", kind, blocks)
        return blocks[kind](name, src, in_c, out_c, stride, stage=stage, role=role)

    def upsample(self, kind, name, src, channels, stage="", role=""):
        _one_of("upsample kind", kind, ("nearest", "tconv"))
        tags = dict(stage=stage, role=role, block=name, block_kind="upsample")
        if kind == "nearest":
            self.g.add(Node(id=name, kind="upsample2x", inputs=[src], **tags))
        else:
            self.g.add(Node(id=name, kind="tconv", inputs=[src], in_channels=channels,
                            out_channels=channels, kernel=(4, 4), stride=2, padding=1,
                            bias=True, **tags))
        return name

    def add_relu(self, name, srcs, stage="", role=""):
        tags = dict(stage=stage, role=role, block=name, block_kind="merge")
        self.g.add(Node(id=f"{name}.add", kind="add", inputs=list(srcs), **tags))
        self.g.add(Node(id=f"{name}.out", kind="relu", inputs=[f"{name}.add"], **tags))
        return f"{name}.out"

    def corner_heads(self, src, in_c, num_classes, lead_kernel, mid=256):
        """Per corner kind (tl, br): a lead conv (``lead_kernel``) + ReLU, then
        1x1 convs to sigmoid heatmaps, embeddings and offsets, each tapped."""
        for kind in ("tl", "br"):
            tags = dict(stage="heads", block=f"heads.{kind}", block_kind="corner_head")
            lead = self.conv(f"heads.{kind}.lead", src, in_c, mid, lead_kernel, act="relu",
                             role=f"{kind}_lead", **tags)
            heat = self.conv(f"heads.{kind}.heat", lead, mid, num_classes, 1, act="sigmoid",
                             role=f"{kind}_heat", **tags)
            embed = self.conv(f"heads.{kind}.embed", lead, mid, 1, 1, role=f"{kind}_embed", **tags)
            off = self.conv(f"heads.{kind}.off", lead, mid, 2, 1, role=f"{kind}_off", **tags)
            self.g.tap(f"{kind}_heat", heat)
            self.g.tap(f"{kind}_embed", embed)
            self.g.tap(f"{kind}_off", off)

    def attention_heads(self, scale_feats, mid=256):
        """Per size class, a 3x3 conv + ReLU then a 1x1 conv + sigmoid to one
        channel, tapped as ``attn_<size>``.  ``scale_feats`` maps "small" |
        "medium" | "large" to (node id, channels), the finest resolution
        scoring the smallest objects."""
        for name, (src, ch) in scale_feats.items():
            tags = dict(stage="attn", block=f"attn.{name}", block_kind="attention_head")
            c1 = self.conv(f"attn.{name}.conv1", src, ch, mid, 3, act="relu", role=name, **tags)
            score = self.conv(f"attn.{name}.score", c1, mid, 1, 1, act="sigmoid", role=name, **tags)
            self.g.tap(f"attn_{name}", score)


def _emit_module(e, m, x, dims, mult, middle_mult, block, upsample):
    """One hourglass module; returns (output id, up features coarsest-first)."""
    stage = m
    levels = len(dims) - 1
    cur = x
    skips = []
    for i in range(levels):
        role_s, role_d = f"skip{i + 1}", f"down{i + 1}"
        s = cur
        for j in range(mult):
            s = e.block(block, f"{m}.skip{i + 1}.{j + 1}", s, dims[i], dims[i], 1,
                        stage=stage, role=role_s)
        skips.append(s)
        d = e.block(block, f"{m}.down{i + 1}.1", cur, dims[i], dims[i + 1], 2,
                    stage=stage, role=role_d)
        for j in range(1, mult):
            d = e.block(block, f"{m}.down{i + 1}.{j + 1}", d, dims[i + 1], dims[i + 1], 1,
                        stage=stage, role=role_d)
        cur = d
    for j in range(middle_mult):
        cur = e.block(block, f"{m}.middle.{j + 1}", cur, dims[levels], dims[levels], 1,
                      stage=stage, role="middle")
    up_feats = []
    for i in reversed(range(levels)):
        role = f"up{i + 1}"
        cur = e.upsample(upsample, f"{m}.up{i + 1}.upsample", cur, dims[i + 1],
                         stage=stage, role=role)
        c_in = dims[i + 1]
        for j in range(mult):
            c_out = dims[i] if j == mult - 1 else dims[i + 1]
            cur = e.block(block, f"{m}.up{i + 1}.{j + 1}", cur, c_in, c_out, 1,
                          stage=stage, role=role)
            c_in = c_out
        e.g.add(Node(id=f"{m}.up{i + 1}.merge", kind="add", inputs=[cur, skips[i]],
                     stage=stage, role=role, block=f"{m}.up{i + 1}.merge", block_kind="merge"))
        cur = f"{m}.up{i + 1}.merge"
        up_feats.append((i, cur))
    return cur, up_feats


def _hourglass(num_classes, input_hw, block, stem, dims, upsample, lead_kernel,
               modules=2, mult=2, middle_mult=4, post_carry=True, attention=False):
    """CornerNet's hourglass, the one body all three backbone builders call: a
    7x7/2 conv, one stride-2 ``block`` per out-channel count in ``stem``, then
    ``modules`` hourglass modules over ``dims`` with ``mult`` blocks per stage
    and ``middle_mult`` in the middle.  Consecutive modules meet at a join of
    1x1 remaps of the module's input and output.  With ``post_carry`` each
    module's output first passes a 3x3 conv, and a ``block`` carries the join
    into the next module.  With ``attention``, attention heads read the last
    module's three finest up features, finest first."""
    _integer("num_classes", num_classes)
    _pair("input_hw", input_hw)
    g = ArchGraph((1, 3) + tuple(input_hw))
    e = Emit(g)
    short = "res" if block == "residual" else block
    x = e.conv("stem.conv1", "input", 3, 128, 7, stride=2, act="relu",
               stage="stem", role="down1")
    for i, (in_c, out_c) in enumerate(zip([128] + stem, stem), 1):
        x = e.block(block, f"stem.{short}{i}", x, in_c, out_c, 2, stage="stem", role=f"down{i + 1}")

    for m in range(1, modules + 1):
        y, up_feats = _emit_module(e, f"module{m}", x, dims, mult=mult, middle_mult=middle_mult,
                                   block=block, upsample=upsample)
        if post_carry:
            y = e.conv(f"post{m}.conv", y, 256, 256, 3, act="relu",
                       stage=f"post{m}", role="postconv")
        if m < modules:
            stage = f"inter{m}"
            a = e.conv(f"{stage}.remap_prev", x, 256, 256, 1, stage=stage, role="remap")
            b = e.conv(f"{stage}.remap_out", y, 256, 256, 1, stage=stage, role="remap")
            y = e.add_relu(f"{stage}.join", [a, b], stage=stage, role="join")
            if post_carry:
                y = e.block(block, f"{stage}.{short}", y, 256, 256, stage=stage, role="carry")
        x = y

    if attention:
        by_level = dict(up_feats)  # level -> node id; level 0 is the finest scale
        e.attention_heads({size: (by_level[i], dims[i]) for i, size in enumerate(SIZE_CLASSES)})
    g.tap("feature", x)
    e.corner_heads(x, 256, num_classes, lead_kernel=lead_kernel)
    g.shapes()
    return g


def build_hourglass54(num_classes, input_hw=(255, 255)):
    """Saccade backbone: 3 shallow hourglass modules plus attention heads."""
    return _hourglass(num_classes, input_hw, "residual", [256], [256, 384, 384, 512],
                      "nearest", lead_kernel=3, modules=3, mult=1, middle_mult=1,
                      post_carry=False, attention=True)


def build_hourglass104_reference(num_classes=80, input_hw=(255, 255)):
    """Two-module deep-hourglass baseline used as the comparison reference."""
    return _hourglass(num_classes, input_hw, "residual", [256],
                      [256, 256, 384, 384, 384, 512], "nearest", lead_kernel=3)


def build_squeeze_hourglass(num_classes, input_hw=(255, 255), extra_pre_downsample=True):
    """Compact two-module backbone: the reference with the five edits above.

    ``extra_pre_downsample=False`` drops the third stride-2 stem stage and is
    only meant for activation-memory comparisons against the default build.
    """
    stem = [256, 256] if extra_pre_downsample else [256]
    return _hourglass(num_classes, input_hw, "fire", stem,
                      [256, 256, 384, 384, 512], "tconv", lead_kernel=1)


def build_single_module(block="residual", dims=(256, 384, 384, 512), mult=1,
                        middle_mult=1, upsample="nearest", input_hw=(64, 64)):
    """A bare one-module graph, handy for block-for-block cost comparisons."""
    _pair("input_hw", input_hw)
    g = ArchGraph((1, dims[0]) + tuple(input_hw))
    e = Emit(g)
    out, _ = _emit_module(e, "module1", "input", list(dims), mult=mult,
                          middle_mult=middle_mult, block=block, upsample=upsample)
    g.tap("feature", out)
    g.shapes()
    return g


BUILDERS = {
    "hourglass54": build_hourglass54,
    "squeeze": build_squeeze_hourglass,
    "hg104-ref": build_hourglass104_reference,
}
