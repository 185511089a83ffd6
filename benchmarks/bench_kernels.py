"""Time the numeric kernels and both 1NN searches.

Run as a script: ``PYTHONPATH=src python3 benchmarks/bench_kernels.py``.
The first table times each public kernel at a fixed size.  The second
times ``nn1_exhaustive`` against ``nn1_tree`` at the shapes that set
``nn1_indices``'s size rule: the ``knn_eval`` benchmark search, a README
``bdml run`` search, and a large training set with few queries.  The two
searches must return identical indices at every shape; that check runs
first, so the one-time ``scipy.spatial`` import is not timed.  Each
number is the best of several samples.
"""

import timeit

import numpy as np

from bdml import kernels

SIZES = {
    "pair_sq_proj": dict(n=400, k=10, m=5000),
    "nn1_indices": dict(n_train=2000, n_query=500, k=10),
    "weighted_outer_sum": dict(m=5000, k=20),
    "row_quad_forms": dict(m=5000, k=20),
    # one margin or probability per pair of a 100-example pool
    "expit": dict(m=5000),
    "log_expit": dict(m=5000),
    "xlogx": dict(m=5000),
}

# (label, n_train, n_query, k)
NN1_SHAPES = (
    ("knn_eval", 20000, 5000, 5),
    ("readme_run", 40, 20, 2),
    ("few queries", 1 << 16, 8, 5),
)


def make_inputs(rng):
    s = SIZES
    proj = kernels.as_f64(rng.normal(size=(s["pair_sq_proj"]["n"],
                                           s["pair_sq_proj"]["k"])))
    ii = kernels.as_i64(rng.integers(0, proj.shape[0], size=s["pair_sq_proj"]["m"]))
    jj = kernels.as_i64((ii + 1 + rng.integers(0, proj.shape[0] - 1,
                                               size=ii.size)) % proj.shape[0])
    train = kernels.as_f64(rng.normal(size=(s["nn1_indices"]["n_train"],
                                            s["nn1_indices"]["k"])))
    queries = kernels.as_f64(rng.normal(size=(s["nn1_indices"]["n_query"],
                                              s["nn1_indices"]["k"])))
    rows = kernels.as_f64(rng.normal(size=(s["weighted_outer_sum"]["m"],
                                           s["weighted_outer_sum"]["k"])))
    coef = kernels.as_f64(rng.gamma(1.0, size=rows.shape[0]))
    mat = rng.normal(size=(rows.shape[1], rows.shape[1]))
    mat = kernels.as_f64(mat + mat.T)
    margins = kernels.as_f64(rng.normal(scale=10.0, size=s["expit"]["m"]))
    log_margins = kernels.as_f64(rng.normal(scale=10.0, size=s["log_expit"]["m"]))
    probs = kernels.expit(rng.normal(scale=10.0, size=s["xlogx"]["m"]))
    return {
        "pair_sq_proj": (proj, ii, jj),
        "nn1_indices": (train, queries),
        "weighted_outer_sum": (rows, coef),
        "row_quad_forms": (rows, mat),
        "expit": (margins,),
        "log_expit": (log_margins,),
        "xlogx": (probs,),
    }


def best_ms(fn, args, number=20, repeat=5):
    return min(timeit.repeat(lambda: fn(*args), number=number, repeat=repeat)) / number * 1e3


def main():
    rng = np.random.default_rng(0)
    print(f"{'kernel':<20} {'ms':>10}")
    for name, args in make_inputs(rng).items():
        print(f"{name:<20} {best_ms(getattr(kernels, name), args):>10.3f}")

    print()
    print(f"{'nn1 shape':<32} {'exhaustive ms':>14} {'tree ms':>10} {'nn1_indices':>12}")
    for label, n_train, n_query, k in NN1_SHAPES:
        args = (kernels.as_f64(rng.normal(size=(n_train, k))),
                kernels.as_f64(rng.normal(size=(n_query, k))))
        if not np.array_equal(kernels.nn1_exhaustive(*args), kernels.nn1_tree(*args)):
            raise SystemExit(f"{label}: exhaustive and tree searches disagree")
        # the knn_eval exhaustive search takes seconds: time it once per sample
        number = max(1, min(20, (1 << 22) // (n_train * n_query)))
        t_exh = best_ms(kernels.nn1_exhaustive, args, number=number, repeat=3)
        t_tree = best_ms(kernels.nn1_tree, args, number=number, repeat=3)
        choice = "tree" if kernels.uses_tree(n_train, n_query, k) else "exhaustive"
        shape = f"{label} {n_train}x{n_query}x{k}"
        print(f"{shape:<32} {t_exh:>14.3f} {t_tree:>10.3f} {choice:>12}")


if __name__ == "__main__":
    main()
