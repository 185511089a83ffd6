"""Time the numba kernels against their numpy fallbacks.

Run as a script. The JIT is warmed up on small inputs first so the
compile cost does not pollute the numbers; each kernel is checked for
agreement between the two paths before timing.  Without numba the
``*_nb`` variants are plain Python loops that take minutes at these
sizes, so only the numpy fallbacks are timed.
"""

import timeit

import numpy as np

from bdml import kernels
from bdml.accel import NUMBA_ENABLED

SIZES = {
    "pair_sq_proj": dict(n=400, k=10, m=5000),
    "nn1_indices": dict(n_train=2000, n_query=500, k=10),
    "weighted_outer_sum": dict(m=5000, k=20),
    "row_quad_forms": dict(m=5000, k=20),
}


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
    return {
        "pair_sq_proj": (proj, ii, jj),
        "nn1_indices": (train, queries),
        "weighted_outer_sum": (rows, coef),
        "row_quad_forms": (rows, mat),
    }


def best_ms(fn, args, reps=20):
    return min(timeit.repeat(lambda: fn(*args), number=reps, repeat=5)) / reps * 1e3


def main():
    rng = np.random.default_rng(0)
    inputs = make_inputs(rng)
    print(f"numba enabled: {NUMBA_ENABLED}")
    if not NUMBA_ENABLED:
        print("numba variants skipped: without numba they run as pure-Python "
              "loops, minutes per kernel at these sizes")
        print(f"{'kernel':<20} {'numpy ms':>10}")
        for name, args in inputs.items():
            print(f"{name:<20} {best_ms(getattr(kernels, name + '_np'), args):>10.3f}")
        return
    print(f"{'kernel':<20} {'numba ms':>10} {'numpy ms':>10} {'speedup':>8}")
    for name, args in inputs.items():
        nb = getattr(kernels, name + "_nb")
        np_ = getattr(kernels, name + "_np")
        nb(*args)  # JIT warmup / first-call compile
        if name == "nn1_indices":
            assert np.array_equal(nb(*args), np_(*args))
        else:
            assert np.allclose(nb(*args), np_(*args), atol=1e-10)
        t_nb = best_ms(nb, args)
        t_np = best_ms(np_, args)
        print(f"{name:<20} {t_nb:>10.3f} {t_np:>10.3f} {t_np / t_nb:>7.1f}x")


if __name__ == "__main__":
    main()
