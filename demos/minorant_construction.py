"""From a rough ball system to a smooth minorant with derivative bounds.

Starts with randomly jittered balls on a circle, builds the almost
periodic partition adapted to them, shows that the transfer function of
a density with constant cell averages stays uniformly bounded, and then
constructs the smooth minorant whose cell averages are exactly constant.
"""

import numpy as np

from obslab import construct


def main():
    rng = np.random.default_rng(11)
    W, n, delta, M = 24.0, 24, 0.1, 2.0
    pitch = W / n
    jitter = 0.5 * (pitch - 2.0 * delta)
    centers = pitch * np.arange(n) + rng.uniform(-jitter, jitter, size=n)
    Y = construct.BallSystem(centers, delta, W)
    wmin, wat = Y.window_min_measure(M)
    print(f"ball system: {n} balls of radius {delta} on a period-{W:g} circle")
    print(f"  leanest length-{M:g} window starts at {wat:.3f} with measure {wmin:.4f}")

    part = construct.build_partition(Y, M)
    gaps = part.gaps
    print(f"  partition: {len(part.breakpoints) - 1} cells, "
          f"gaps in [{gaps.min():.3f}, {gaps.max():.3f}] "
          f"(target [{M:g}, {M + 2 * delta:g}])")

    rho = 0.5
    bp = part.breakpoints
    xs, vs = [], []
    for k in range(len(bp) - 1):
        t = np.linspace(bp[k], bp[k + 1], 49)
        seg = rho + 0.3 * np.sin(2.0 * np.pi * 2 * (t - bp[k]) / (bp[k + 1] - bp[k]))
        if k:
            t, seg = t[1:], seg[1:]
        xs.append(t)
        vs.append(seg)
    res = construct.transfer_function((np.concatenate(xs), np.concatenate(vs)), rho, part)
    print(f"transfer function of a density with constant cell averages {rho}:")
    print(f"  sup |B| = {res.max_abs:.4f} against the bound {res.bound:.4f}")
    drift = np.max(np.abs(res.breakpoint_values - res.breakpoint_values[0]))
    print(f"  drift of B across breakpoints: {drift:.2e}")

    rho = 0.8 * wmin / M
    sm = construct.smooth_minorant(Y, M, rho)
    density = construct.sliding_window_min(sm.values, sm.step, 2.0 * M)
    print(f"smooth minorant at rho = {rho:.4f}:")
    print(f"  cell averages are exactly eta = {sm.eta:.4f} >= rho/4 = {rho / 4:.4f}")
    print(f"  every length-{2 * M:g} window keeps average >= {density:.4f} "
          f"(floor {0.99 * rho / 8:.4f})")
    for m, rec in construct.derivative_bounds(sm).items():
        print(f"  |d^{m} a| <= {rec['max_a']:.3g} within allowance {rec['allowed']:.3g}: "
              f"{'ok' if rec['ok'] else 'VIOLATED'}")


if __name__ == "__main__":
    main()
