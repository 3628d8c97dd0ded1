"""Independent brute-force enumerators used to freeze expected values.

Everything here works on plain distance matrices (lists of lists or ndarray)
with naive loops, on purpose: these are the oracles the library is tested
against, so they must not share code with it.
"""
import math


def tri_const_scan(d):
    """Smallest A with d[x][y] <= A*(d[x][z]+d[z][y]), scanning all triples."""
    n = len(d)
    worst = 1.0
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                denom = d[x][z] + d[z][y]
                if denom > 0:
                    worst = max(worst, d[x][y] / denom)
    return worst


def fault_scan(d):
    """First fault of a distance table, as (kind, x, y) or None: rows in
    order, each checked for a NaN or infinite entry, then a negative entry,
    then a nonzero diagonal, then a zero off-diagonal entry; only then the
    first pair (x, y) in row-major order with
    |d[x][y] - d[y][x]| > 1e-12 * |d[y][x]|."""
    n = len(d)
    for x in range(n):
        for y in range(n):
            if not math.isfinite(d[x][y]):
                return ("nonfinite", x, y)
        for y in range(n):
            if d[x][y] < 0:
                return ("negative", x, y)
        if d[x][x] != 0:
            return ("diagonal", x, x)
        for y in range(n):
            if y != x and d[x][y] == 0:
                return ("zero", x, y)
    for x in range(n):
        for y in range(n):
            if not abs(d[x][y] - d[y][x]) <= 1e-12 * abs(d[y][x]):
                return ("asymmetric", x, y)
    return None


def ball_scan(d, center, r):
    return sorted(y for y in range(len(d)) if d[y][center] < r)


def ball_in_members_scan(d, center, r, members):
    """(ball(center, r) lies in members, diameter of members) by plain
    set inclusion and a double loop; an empty member list has diameter 0."""
    inside = set(ball_scan(d, center, r)) <= set(members)
    diam = 0.0
    for a in members:
        for b in members:
            diam = max(diam, d[a][b])
    return inside, diam


def generation_scan(delta, r):
    """The k with delta**(k+2) < r <= delta**(k+1), walking the powers
    delta**j one step at a time from j = 0."""
    j = 0
    while delta ** j < r:
        j -= 1
    while delta ** (j + 1) >= r:
        j += 1
    return j - 1


def greedy_net_scan(d, order, threshold):
    """Greedy maximal threshold-separated subset, insertion in `order`."""
    chosen = []
    for p in order:
        if all(d[p][q] >= threshold for q in chosen):
            chosen.append(p)
    return chosen


def level_witness_scan(d, pts, sep_thr, cov_thr):
    """(closest pair, worst-covered point) of one level of centers `pts`.

    The pair is the first (i, j), i != j, in row-major order with the
    smallest d[pts[i]][pts[j]], as (pts[i], pts[j], dist) when that dist is
    below sep_thr, else None. The point is the first x with the largest
    distance to its nearest center, as (x, dist) when that dist is at least
    cov_thr, else None."""
    pair = None
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i != j and (pair is None or d[pts[i]][pts[j]] < pair[2]):
                pair = (pts[i], pts[j], d[pts[i]][pts[j]])
    worst = None
    for x in range(len(d)):
        near = math.inf
        for p in pts:
            near = min(near, d[p][x])
        if worst is None or near > worst[1]:
            worst = (x, near)
    return (pair if pair is not None and pair[2] < sep_thr else None,
            worst if worst[1] >= cov_thr else None)


def parent_scan(d, parent_pts, child_pts, tight_thr, loose_thr):
    """Per child: unique parent within tight_thr if any (error on ties),
    else first-listed parent within loose_thr, else None."""
    out = []
    for c in child_pts:
        tight = [i for i, p in enumerate(parent_pts) if d[c][p] < tight_thr]
        if len(tight) > 1:
            raise AssertionError(f"tight tie for child {c}: {tight}")
        if len(tight) == 1:
            out.append((tight[0], True))
            continue
        loose = [i for i, p in enumerate(parent_pts) if d[c][p] < loose_thr]
        out.append((loose[0], False) if loose else None)
    return out


def descendant_closure(parent_maps, finest_size):
    """parent_maps[j][c] = parent index one level up. Returns, per level,
    a list mapping finest-level index -> ancestor index at that level."""
    levels = len(parent_maps) + 1
    assign = [None] * levels
    assign[levels - 1] = list(range(finest_size))
    for j in range(levels - 2, -1, -1):
        assign[j] = [parent_maps[j][a] for a in assign[j + 1]]
    return assign


def boundary_scan(d, members, eps):
    """Members within eps (inclusive) of some point outside the member set."""
    outside = [y for y in range(len(d)) if y not in set(members)]
    if not outside:
        return []
    return sorted(x for x in members if min(d[x][y] for y in outside) <= eps)


def chain_scan(d, centers, assign, k_min, tri, sep, cover, delta):
    """Every admissible boundary chain of a system, walked level by level.

    centers[j] and assign[j] are level k_min + j's center ids and its point
    -> cube index list. None when the scale headroom
    18 * tri**5 * cover * delta <= sep is missing. Otherwise
    (per_depth, checked, witnesses): a triple (x, k, depth) is admissible
    when x's distance to the complement of its level-k cube is below
    tau * delta**k at tau = sep * delta**depth / (12 * tri**4). Its chain
    is the centers of x's cubes on levels k..k+depth; every pair of them
    is checked against eps_1 * delta**(coarser level), eps_1 = sep /
    (12 * tri**4), and a triple with a close pair is a witness
    (x, k, depth, its first two close pairs).
    """
    if 18.0 * tri ** 5 * cover * delta > sep * (1 + 1e-12):
        return None
    n, n_levels = len(d), len(centers)
    eps_1 = sep / (12.0 * tri ** 4)
    per_depth, checked, witnesses = {}, 0, []
    for x in range(n):
        for j in range(n_levels):
            k = k_min + j
            gap = math.inf
            for y in range(n):
                if assign[j][y] != assign[j][x]:
                    gap = min(gap, d[x][y])
            if gap == math.inf:
                continue
            for depth in range(n_levels - j):
                tau = sep * delta ** depth / (12.0 * tri ** 4)
                if not gap < tau * delta ** k:
                    continue
                chain = [centers[j + a][assign[j + a][x]]
                         for a in range(depth + 1)]
                close = []
                for a in range(depth + 1):
                    for b in range(a + 1, depth + 1):
                        checked += 1
                        dist = d[chain[a]][chain[b]]
                        if dist < eps_1 * delta ** (k + a):
                            close.append((k + a, k + b, chain[a], chain[b],
                                          dist))
                per_depth[depth] = per_depth.get(depth, 0) + 1
                if close:
                    witnesses.append((x, k, depth, close[:2]))
    return per_depth, checked, witnesses


def cube_axioms_scan(d, levels, parent_maps, k_min, delta, inner, outer,
                     tri, tol=1e-12):
    """Pass/fail of each cube axiom, straight from its definition.

    levels[j]: the cubes of level k_min + j as (center, member list) pairs.
    parent_maps[j][i]: index on level j of the parent of cube i on level
    j + 1. A point listed in several cubes of a level belongs to the last
    of them. Ball radii are inner/outer * delta**k; the radii bound is
    tri * (d(ancestor, center) + fine radius) <= ancestor radius, between
    consecutive levels only.
    """
    n = len(d)
    nl = len(levels)
    owner = []
    for cubes in levels:
        own = [None] * n
        for i, (_, members) in enumerate(cubes):
            for p in members:
                own[p] = i
        owner.append(own)

    def ancestor(b, a, i):
        for j in range(b - 1, a - 1, -1):
            i = parent_maps[j][i]
        return i

    def pairs():
        """(coarse level, fine level, d row of the ancestor center, fine
        center) for every fine cube and every coarser level."""
        for b in range(nl):
            for a in range(b):
                for i, (zf, _) in enumerate(levels[b]):
                    zc = levels[a][ancestor(b, a, i)][0]
                    yield a, b, d[zc], zf

    def r_out(j):
        return outer * delta ** (k_min + j)

    out = {}
    out["partition"] = all(
        sum(members.count(p) for _, members in cubes) == 1
        for cubes in levels for p in range(n))
    out["nesting"] = all(
        len({owner[a][p] for p in members}) == 1
        and owner[a][members[0]] is not None
        for b in range(nl) for a in range(b)
        for _, members in levels[b] if members)
    out["ball_sandwich_inner"] = all(
        owner[j][y] == i
        for j, cubes in enumerate(levels)
        for i, (c, _) in enumerate(cubes)
        for y in range(n) if d[c][y] < inner * delta ** (k_min + j))
    out["ball_sandwich_outer"] = all(
        d[c][y] < r_out(j)
        for j, cubes in enumerate(levels) for c, members in cubes
        for y in members)
    out["descendant_ball_sets"] = all(
        row_c[y] < r_out(a)
        for a, b, row_c, zf in pairs()
        for y in range(n) if d[zf][y] < r_out(b))
    out["descendant_ball_radii"] = all(
        tri * (row_c[zf] + r_out(b)) <= r_out(a) * (1 + tol)
        for a, b, row_c, zf in pairs() if b == a + 1)
    out["descendant_center_proximity"] = all(
        row_c[zf] < r_out(a) for a, b, row_c, zf in pairs())
    out["topology"] = True
    return out


def greedy_color_scan(n_nodes, edges, order):
    """Smallest label unused among already-colored neighbours, in `order`."""
    adj = {i: set() for i in range(n_nodes)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    color = {}
    for v in order:
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return [color[i] for i in range(n_nodes)]


# -- child selection -------------------------------------------------------------


def children_scan(parent_of, n_parents):
    """Per parent index, its child indices in ascending order."""
    return [[c for c in range(len(parent_of)) if parent_of[c] == a]
            for a in range(n_parents)]


def near_child_scan(d, parent_pt, child_pts, kids, near_thr):
    """The child of `kids` closest to parent_pt (ties to the first listed),
    or None when even that one is not closer than near_thr."""
    best = None
    for c in kids:
        if best is None or d[parent_pt][child_pts[c]] < d[parent_pt][child_pts[best]]:
            best = c
    if best is None or not d[parent_pt][child_pts[best]] < near_thr:
        return None
    return best


def select_scan(d, parent_pts, child_pts, parent_of, labels, near_thr, l, m,
                ordinals=None, pin=None):
    """One child index per parent: the m-th child (ascending index) of a
    parent labeled l, with m moved to (m + ordinals[a] - 1) mod the child
    count + 1 when per-parent ordinals are given; otherwise, or when there
    is no m-th child, the near child (None if there is none). A parent
    sitting at point `pin` keeps the child sitting at that same point."""
    out = []
    for a, kids in enumerate(children_scan(parent_of, len(parent_pts))):
        if pin is not None and parent_pts[a] == pin:
            out.append(list(child_pts).index(pin))
            continue
        mm = m
        if ordinals is not None and kids:
            mm = (m + ordinals[a] - 1) % len(kids) + 1
        if labels[a] == l and 1 <= mm <= len(kids):
            out.append(kids[mm - 1])
        else:
            out.append(near_child_scan(d, parent_pts[a], child_pts, kids,
                                       near_thr))
    return out


# -- selection marginals -------------------------------------------------------


def single_draw_marginals(children, near, labels, master_count):
    """Exact child distribution for one parent under the level draw:
    master label uniform over {0..master_count-1}; on a match the child is
    uniform over `children`, otherwise uniform over `near`.

    children/near: lists of child ids (near must be a subset of children).
    labels: the parent's label. Returns {child id: probability}.
    """
    probs = {c: 0.0 for c in children}
    for ell in range(master_count):
        branch = children if ell == labels else near
        for c in branch:
            probs[c] += 1.0 / master_count / len(branch)
    return probs


def wilson_upper_scan(hits, n, z=1.6448536269514722):
    p = hits / n
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return center + half


def inclusive_balls_scan(d):
    """Every distinct ball, enumerated as inclusive prefixes: for each center
    c and each realized distance u, the set {y : d[y][c] <= u}. Deduplicated.
    """
    n = len(d)
    balls = set()
    for c in range(n):
        for u in sorted({d[y][c] for y in range(n)}):
            balls.add(tuple(sorted(y for y in range(n) if d[y][c] <= u)))
    return [list(b) for b in sorted(balls)]


def maximal_scan(d, mu, f):
    """Per point: max over balls containing it of the mu-average of |f|."""
    out = [0.0] * len(d)
    for b in inclusive_balls_scan(d):
        tot = sum(mu[y] for y in b)
        avg = sum(mu[y] * abs(f[y]) for y in b) / tot
        for y in b:
            out[y] = max(out[y], avg)
    return out


def sharp_scan(d, mu, f):
    """Per point: max over balls of the mu-average of |f - f_B|, f_B the
    signed average of f."""
    out = [0.0] * len(d)
    for b in inclusive_balls_scan(d):
        tot = sum(mu[y] for y in b)
        fb = sum(mu[y] * f[y] for y in b) / tot
        osc = sum(mu[y] * abs(f[y] - fb) for y in b) / tot
        for y in b:
            out[y] = max(out[y], osc)
    return out


def bmo_scan(d, mu, f):
    best = 0.0
    for b in inclusive_balls_scan(d):
        tot = sum(mu[y] for y in b)
        fb = sum(mu[y] * f[y] for y in b) / tot
        best = max(best, sum(mu[y] * abs(f[y] - fb) for y in b) / tot)
    return best


def ap_scan(d, mu, omega, p):
    """sup over balls of omega(B) * sigma(B)^(p-1) / mu(B)^p, all integrals
    against mu, sigma = omega^(-1/(p-1))."""
    sigma = [w ** (-1.0 / (p - 1)) for w in omega]
    best = 0.0
    for b in inclusive_balls_scan(d):
        mb = sum(mu[y] for y in b)
        wb = sum(mu[y] * omega[y] for y in b)
        sb = sum(mu[y] * sigma[y] for y in b)
        best = max(best, wb * sb ** (p - 1) / mb ** p)
    return best


def dyadic_maximal_scan(levels_members, mu, f):
    """Per point: max over listed cubes containing it of the mu-average of
    |f|. levels_members: per level, a list of member id lists."""
    n = len(mu)
    out = [0.0] * n
    for level in levels_members:
        for members in level:
            tot = sum(mu[y] for y in members)
            avg = sum(mu[y] * abs(f[y]) for y in members) / tot
            for y in members:
                out[y] = max(out[y], avg)
    return out


def doubling_scan(d, mu):
    """Smallest C with mu(B(x,2r)) <= C*mu(B(x,r)) over realized strict
    balls."""
    n = len(d)
    best = 1.0
    for x in range(n):
        for r in sorted({d[y][x] for y in range(n)} - {0.0}):
            inner = sum(mu[y] for y in range(n) if d[y][x] < r)
            outer = sum(mu[y] for y in range(n) if d[y][x] < 2 * r)
            best = max(best, outer / inner)
    return best


def iterated_doubling_scan(per_center, best, c_exp, tol=1e-9):
    """Up to four (x, r, R) per center whose masses break
    m(R)/m(r) <= best * (R/r)**c_exp * (1 + tol), found by comparing every
    radius pair r < R of the center. per_center[x] is (radii, masses) as
    numpy arrays; the pairs are formed as whole numpy blocks so that each
    comparison is made on the same floats as the library's pairwise formula.
    """
    import numpy as np
    bad = []
    for x, (radii, m_r) in enumerate(per_center):
        iu = np.triu_indices(radii.size, k=1)
        lhs = m_r[iu[1]] / m_r[iu[0]]
        rhs = best * (radii[iu[1]] / radii[iu[0]]) ** c_exp
        viol = np.flatnonzero(lhs > rhs * (1.0 + tol))
        for j in viol[:4]:
            bad.append((x, float(radii[iu[0][j]]), float(radii[iu[1][j]])))
    return bad


def dyadic_sharp_scan(levels_members, mu, f):
    """Per point: max over listed cubes containing it of the mu-average of
    |f - f_Q|, f_Q the signed cube average."""
    n = len(mu)
    out = [0.0] * n
    for level in levels_members:
        for members in level:
            tot = sum(mu[y] for y in members)
            fq = sum(mu[y] * f[y] for y in members) / tot
            osc = sum(mu[y] * abs(f[y] - fq) for y in members) / tot
            for y in members:
                out[y] = max(out[y], osc)
    return out


def dyadic_ap_scan(levels_members, mu, omega, p):
    """sup over listed cubes of omega(Q) sigma(Q)^(p-1) / mu(Q)^p."""
    sigma = [w ** (-1.0 / (p - 1)) for w in omega]
    best = 0.0
    for level in levels_members:
        for members in level:
            mq = sum(mu[y] for y in members)
            wq = sum(mu[y] * omega[y] for y in members)
            sq = sum(mu[y] * sigma[y] for y in members)
            best = max(best, wq * sq ** (p - 1) / mq ** p)
    return best
