"""The copy group from image tables: the image of every block and every
raw row of mdi.build_sdp under every copy permutation, the reference that
mdi's canonical forms are checked against bit for bit, and the group
average of a solution's blocks that strategy.EffectiveStrategy.from_solution
is checked against. The index maps here are the tables' own, not mdi's."""
import itertools

import numpy as np

from mdirand import mdi


def digit_map(base, perm):
    """Index map of one copy permutation on base**m indices: copy k of the
    image holds the digit of copy perm[k]."""
    shape = (base,) * len(perm)
    digits = np.unravel_index(np.arange(base ** len(perm)), shape)
    return np.ravel_multi_index([digits[k] for k in perm], shape)


def moved(mats, hilbert):
    """U mats U^dag for the basis permutation hilbert, on a stack."""
    inv = np.empty_like(hilbert)
    inv[hilbert] = np.arange(hilbert.size)
    return mats[..., inv, :][..., inv]


def block_images(sym, n_fam, live, n_o):
    """The (|G|, n_fam L n_o) image of every block (f, x, e) of
    mdi.build_sdp, in its numbering (f L + x') n_o + e (x' the position of
    x in live), and the (|G|, d) basis maps: row g under the g-th
    permutation of the copies' digits, row 0 the identity. A matrix M
    moves to M' with M'[h[i], h[j]] = M[i, j], h the basis map: the
    conjugation by the permutation unitary U_g."""
    group = list(itertools.permutations(range(sym.copies)))
    states, outcomes, hilbert = (np.stack([digit_map(r, p) for p in group]) for r in sym.roots)
    fam = states[:, :n_fam]  # state 0 is fixed: the single family stays
    out = (fam[:, :, None, None] * len(live)
           + np.searchsorted(live, outcomes[:, live])[:, None, :, None]) * n_o
    return (out + outcomes[:, None, None, :]).reshape(len(fam), -1), hilbert


def block_canon(sym, n_fam, live, n_o):
    """canon of mdi._block_orbits: the smallest image of each block."""
    return block_images(sym, n_fam, live, n_o)[0].min(axis=0)


def twirl(scenario, x_blocks):
    """The operators of strategy.EffectiveStrategy.from_solution for the orbit
    blocks x_blocks: each block, expanded by its face, moved onto its
    image under every copy permutation by the index maps, over |G|."""
    n_s, n_o, d = scenario.n_states, scenario.n_outcomes, scenario.dim
    n_fam = n_s if scenario.mode == mdi.MODE_FINITE_Q else 1
    faces = mdi.face_bases(scenario)
    sym, live, _ = mdi._block_orbits(scenario, faces)
    images, hilbert = block_images(sym, n_fam, live, n_o)
    reps = np.unique(images.min(axis=0))
    expanded = []
    for k, blk in zip(reps, x_blocks):  # block k = (f L + x') n_o + e
        v = faces[live[k // n_o % len(live)]]
        expanded.append(v @ blk @ v.conj().T)
    full = np.stack(expanded)
    ops = np.zeros((images.shape[1], d, d), dtype=complex)
    for img, h in zip(images, hilbert):
        ops[img[reps]] += moved(full, h) / len(images)
    out = np.zeros((n_s, n_o, n_o, d, d), dtype=complex)
    out[:, live] = ops.reshape(n_fam, len(live), n_o, d, d)
    return out


def _row_images(n_fam, states, outcomes, live, basis, traceless, band):
    """The (|G|, ...) images of the raw rows of families i, ii, iii, iv and
    of the band rows under the group's maps of the inputs, outcomes, live
    outcomes (as their positions x'), basis and traceless elements."""
    fam = states[..., :n_fam]
    n_s, n_o, n_l, d2 = (a.shape[-1] for a in (states, outcomes, live, basis))
    o3, o4, _ = mdi._row_starts(n_fam, n_s, n_o, n_l, d2, band)
    guess = (1 + (fam[..., :, None, None] * n_o + outcomes[..., None, :, None]) * (d2 - 1)
             + traceless[..., None, None, :])
    ind = (o3 + ((fam[..., 1:, None, None] - 1) * n_l + live[..., None, :, None]) * d2
           + basis[..., None, None, :])
    stat = o4 + states[..., :, None] * n_l + live[..., None, :]
    norm = np.zeros(fam.shape[:-1] + (1,), dtype=np.intp)
    return norm, guess, ind, stat, (stat + n_s * n_l)[..., :n_s if band else 0, :]


def row_orbits(sym, n_fam, live, band=False):
    """(kept, red, wt) of mdi._row_orbits from the table of every raw
    row's image, and its sign, under every copy permutation."""
    group = list(itertools.permutations(range(sym.copies)))
    states, outcomes, h = (np.stack([digit_map(r, p) for p in group]) for r in sym.roots)
    n_g, d = h.shape
    d2 = d * d
    n_raw = mdi._row_starts(n_fam, states.shape[1], outcomes.shape[1], len(live), d2, band)[-1]
    rows = np.arange(n_raw)
    # image of each basis element; the pair k < l has its symmetric
    # element at pair[k, l] and its antisymmetric one next
    k, l = np.nonzero(np.arange(d)[:, None] < np.arange(d))
    pair = np.zeros((d, d), dtype=np.intp)
    pair[k, l] = pair[l, k] = d + 2 * np.arange(k.size)
    hk, hl = h[:, k], h[:, l]
    bas = np.empty((n_g, d2), dtype=np.intp)
    bas[:, :d], bas[:, d::2], bas[:, d + 1::2] = h, pair[hk, hl], pair[hk, hl] + 1
    # traceless: the off-diagonal elements, then e_kk - e_00 for k >= 1
    tl = np.concatenate([bas[:, d:] - d, d2 - d - 1 + h[:, 1:]], axis=1)
    live_images = np.searchsorted(live, outcomes[:, live])
    parts = _row_images(n_fam, states, outcomes, live_images, bas, tl, band)
    img = np.concatenate([i.reshape(n_g, -1) for i in parts], axis=1)
    # signs: an antisymmetric element turns when its pair's order does
    bas_s = np.ones((n_g, d2))
    bas_s[:, d + 1::2] = np.where(hk < hl, 1.0, -1.0)
    tl_s = np.concatenate([bas_s[:, d:], np.ones((n_g, d - 1))], axis=1)
    signs = [1.0, tl_s[:, None, None], bas_s[:, None, None], 1.0, 1.0]
    sign = np.concatenate([np.broadcast_to(s, i.shape).reshape(n_g, -1)
                           for i, s in zip(parts, signs)], axis=1)
    canon = img.min(axis=0)
    negated = np.any((img == rows) & (sign < 0.0), axis=0)
    kept = np.flatnonzero((canon == rows) & ~negated)
    index = np.full(rows.size, -1)
    index[kept] = np.arange(kept.size)
    red = index[canon]
    s = sign[img.argmin(axis=0), rows] / np.bincount(canon, minlength=rows.size)[canon]
    return kept, red, np.where(red >= 0, s, 0.0)
