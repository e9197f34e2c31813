"""conv-analysis: a conv net holding every layer kind, trained then decomposed.

Item: one input decomposed.  Op: one call.  Each pass trains the net for
one hard-mode epoch on teacher-labelled images (every Adam step forces the
convolutions to be lowered again), then runs decompose, class_templates
and partial_product_norms on each of INPUTS inputs with the lowered
matrices cached.  The net: conv, relu, maxpool, batch norm, a residual
skip block, avgpool and a dense classifier on 3x12x12 inputs.
"""

import hashlib

import masonet as M
import numpy as np

import ref
from harness import Op, Workload

SHAPE = (3, 12, 12)
CLASSES = 10
TRAIN_IMAGES = 2000
INPUTS = 150
JACOBIAN_CHECKED = 25  # inputs whose A, templates and norms meet an independent Jacobian


def _conv(rng, out_ch, in_shape, k, bias=True):
    fan_in = in_shape[0] * k * k
    return M.Conv(
        rng.standard_normal((out_ch, in_shape[0], k, k)) * np.sqrt(2.0 / fan_in),
        rng.standard_normal(out_ch) * 0.1 if bias else np.zeros(out_ch),
        (1, 1),
        "same-zero",
        in_shape,
    )


def make_net(rng) -> M.Network:
    c, h, w = SHAPE
    conv = _conv(rng, 4, SHAPE, 3)
    d1 = 4 * h * w
    pool, (_, h2, w2) = M.pool_regions_2d((4, h, w), (2, 2))
    d2 = 4 * h2 * w2
    bn = M.BatchNorm(
        rng.standard_normal(d2) * 0.1,
        0.5 + rng.random(d2),
        1.0 + 0.1 * rng.standard_normal(d2),
        0.1 * rng.standard_normal(d2),
    )
    block = M.SkipBlock(
        _conv(rng, 4, (4, h2, w2), 3),
        M.Activation("relu", d2),
        _conv(rng, 4, (4, h2, w2), 1, bias=False),
        0.1 * rng.standard_normal(d2),
    )
    avg, (_, h3, w3) = M.pool_regions_2d((4, h2, w2), (2, 2))
    d3 = 4 * h3 * w3
    return M.Network(
        [
            conv,
            M.Activation("relu", d1),
            M.MaxPool(pool, d1),
            bn,
            block,
            M.AvgPool(avg, d2),
            M.Dense(rng.standard_normal((CLASSES, d3)) * 0.3, np.zeros(CLASSES)),
        ],
        SHAPE,
        CLASSES,
    )


def _digest(obj, h=None) -> str:
    """Hash of every parameter array in a network (lowering caches excluded)."""
    h = h or hashlib.sha1()
    for layer in obj.layers if isinstance(obj, M.Network) else [obj]:
        for key, value in sorted(vars(layer).items()):
            if key.startswith("_"):
                continue
            if isinstance(value, np.ndarray):
                h.update(value.tobytes())
            elif hasattr(value, "__dataclass_fields__"):
                _digest(value, h)
    return h.hexdigest()


def build(seed, workdir):
    rng = np.random.default_rng(seed)
    student = make_net(rng)
    dim = int(np.prod(SHAPE))
    teacher = rng.standard_normal((CLASSES, dim))
    X = rng.standard_normal((TRAIN_IMAGES, dim))
    y = np.argmax(X @ teacher.T, axis=1)
    inputs = rng.standard_normal((INPUTS, dim))
    config = M.TrainConfig(epochs=1, seed=seed)
    state = {"net": student, "digest": None}
    jac_checked = set(rng.choice(INPUTS, JACOBIAN_CHECKED, replace=False).tolist())
    references = {}  # net digest -> logits of every input; (digest, j) -> Jacobian, norms

    def train():
        trained, history = M.train(student, (X, y), config)
        state["net"] = trained
        return trained, history

    def check_train(result):
        trained, history = result
        state["digest"] = _digest(trained)
        h = history[0]
        if not np.isfinite(h["loss"]):
            return f"non-finite loss {h['loss']}"
        logits, _ = ref.forward(trained, X)
        agree = int(np.sum(np.argmax(logits, axis=1) == y))
        if abs(agree - h["accuracy"] * TRAIN_IMAGES) > 1.0:
            return f"history accuracy {h['accuracy']} vs independent forward {agree / TRAIN_IMAGES}"
        return None

    def logits(j):
        if state["digest"] not in references:
            references[state["digest"]] = ref.forward(state["net"], inputs)[0]
        return references[state["digest"]][j]

    def jacobian(j):
        """(full Jacobian, prefix Jacobian norms) at input j, or None if unsampled."""
        key = (state["digest"], j)
        if j in jac_checked and key not in references:
            jac = ref.jacobians(state["net"], inputs[j])
            references[key] = (jac[-1], np.array([np.linalg.norm(J) for J in jac[:-1]]))
        return references.get(key)

    def check_affine(j, A, b, what):
        if not ref.within_criterion_1(A @ inputs[j] + b, logits(j)):
            return f"input {j}: {what} miss the forward output"
        jac = jacobian(j)
        if jac is not None and not ref.within_criterion_1(A, jac[0]):
            return f"input {j}: {what} differ from the independent Jacobian"
        return None

    def check_norms(j, norms):
        if len(norms) != len(student.layers) - 1 or not np.all(np.isfinite(norms)):
            return f"input {j}: bad norm list {norms}"
        jac = jacobian(j)
        if jac is not None and not ref.within_criterion_1(np.array(norms), jac[1]):
            return f"input {j}: partial product norms {norms} vs {jac[1].tolist()}"
        return None

    ops = [Op("train[1 epoch]", train, 0, check_train)]
    for j in range(INPUTS):
        ops += [
            Op(f"decompose[{j}]", lambda j=j: M.decompose(state["net"], inputs[j]), 1,
               lambda r, j=j: check_affine(j, r.A, r.b, "decomposed A x + b")),
            Op(f"class_templates[{j}]", lambda j=j: M.class_templates(state["net"], inputs[j]), 1,
               lambda r, j=j: check_affine(j, r[0], r[1], "templates")),
            Op(f"partial_product_norms[{j}]", lambda j=j: M.partial_product_norms(state["net"], inputs[j]), 1,
               lambda r, j=j: check_norms(j, r)),
        ]
    warm = make_net(np.random.default_rng(seed + 1))  # warm-up on a throwaway net
    M.train(warm, (X[:256], y[:256]), config)
    M.decompose(warm, inputs[0])
    sizes = {"input_shape": list(SHAPE), "classes": CLASSES, "train_images": TRAIN_IMAGES,
             "epochs": 1, "batch": 128, "inputs": INPUTS, "ops_per_pass": len(ops),
             "layers": [type(layer).__name__ for layer in student.layers]}
    return Workload(ops, sizes)
